"""Orthogonal Hermitian operator bases and coefficient expansions.

A basis for an N-dimensional subsystem consists of N^2 Hermitian matrices
F_mu with F_0 = identity, Tr[F_mu F_nu] = N delta_{mu nu}, and F_mu
traceless for mu >= 1 (scaled generalized Gell-Mann generators).  Product
bases F_{mu nu} = F_mu (x) F_nu span the bipartite operator space, and any
joint density matrix is encoded by the real mean values <F_{mu nu}>.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    dagger,
    finite_array,
    kron,
    partial_trace,
    require_hermitian,
    require_unitary,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# build_basis and product_basis stay plain functions in front of private
# caches, so that introspection (perfbench's layer tracer) still sees functions.
def build_basis(n: int) -> "HermitianBasis":
    """Orthogonal Hermitian basis for dimension n.

    Ordering: identity, then symmetric off-diagonal pairs (row-major over
    j < k), then antisymmetric pairs, then diagonal generators.  All
    matrices are scaled so Tr[F_mu F_nu] = n delta_{mu nu}; for n = 2 this
    reproduces the Pauli matrices {I, s1, s2, s3}.  The basis is built once
    per n and shared by every caller, so its array is read-only: copy it
    before modifying.
    """
    return _build_basis(n)


@functools.cache
def _build_basis(n: int) -> "HermitianBasis":
    if n < 2:
        raise ValueError(f"basis dimension must be >= 2, got {n}")
    scale = np.sqrt(n / 2.0)
    mats = [np.eye(n, dtype=complex)]
    sym = []
    antisym = []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            sym.append(scale * s)
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1j
            a[k, j] = 1j
            antisym.append(scale * a)
    mats.extend(sym)
    mats.extend(antisym)
    for l in range(1, n):
        d = np.zeros(n, dtype=complex)
        d[:l] = 1.0
        d[l] = -l
        mats.append(scale * np.sqrt(2.0 / (l * (l + 1))) * np.diag(d))
    return HermitianBasis(dim=n, mats=_read_only(np.array(mats)))


@dataclass(frozen=True)
class HermitianBasis:
    """The n^2 orthogonal Hermitian basis matrices for one subsystem."""

    dim: int
    mats: np.ndarray  # shape (dim^2, dim, dim), index 0 is the identity

    def __post_init__(self):
        if self.mats.shape != (self.dim**2, self.dim, self.dim):
            raise ValueError(f"expected {self.dim**2} matrices of size {self.dim}")


def product_basis(n: int, m: int) -> "ProductBasis":
    """Product basis F_{mu nu} = F_mu (x) F_nu for an (n, m) bipartition.

    Built once per (n, m) and shared like build_basis: its arrays are
    read-only.
    """
    return _product_basis(n, m)


@functools.cache
def _product_basis(n: int, m: int) -> "ProductBasis":
    return ProductBasis(basis_s=build_basis(n), basis_r=build_basis(m))


@dataclass(frozen=True)
class ProductBasis:
    basis_s: HermitianBasis
    basis_r: HermitianBasis
    mats: np.ndarray = field(init=False)  # (n^2, m^2, n*m, n*m)

    def __post_init__(self):
        prod = kron(self.basis_s.mats[:, None], self.basis_r.mats[None])
        object.__setattr__(self, "mats", _read_only(prod))

    @property
    def n(self) -> int:
        return self.basis_s.dim

    @property
    def m(self) -> int:
        return self.basis_r.dim

    @property
    def dim(self) -> int:
        return self.n * self.m


@dataclass
class JointStateCoeffs:
    """Mean values <F_{mu nu}> of a bipartite state, with a fixed/free mask.

    ``coeff[mu, nu]`` holds the real expansion coefficient; ``free[mu, nu]``
    is True where the value is unspecified (subject to completion by a
    feasibility solver).  ``coeff[0, 0]`` is always 1 and fixed.
    """

    n: int
    m: int
    coeff: np.ndarray
    free: np.ndarray

    def __post_init__(self):
        self.coeff = finite_array(self.coeff, "coefficients")
        self.free = np.array(self.free, dtype=bool)
        shape = (self.n**2, self.m**2)
        if self.coeff.shape != shape or self.free.shape != shape:
            raise ValueError(f"coefficient arrays must have shape {shape}")
        if self.free[0, 0] or abs(self.coeff[0, 0] - 1.0) > 1e-12:
            raise ValueError("coeff[0, 0] must equal 1 and be fixed")

    @classmethod
    def blank(cls, n: int, m: int) -> "JointStateCoeffs":
        """All coefficients zero (maximally mixed), all fixed."""
        coeff = np.zeros((n**2, m**2))
        coeff[0, 0] = 1.0
        return cls(n=n, m=m, coeff=coeff, free=np.zeros((n**2, m**2), dtype=bool))

    @property
    def fully_fixed(self) -> bool:
        return not self.free.any()

    def copy(self) -> "JointStateCoeffs":
        return JointStateCoeffs(self.n, self.m, self.coeff.copy(), self.free.copy())

    def with_probe(self, probe: np.ndarray) -> "JointStateCoeffs":
        """Overwrite the subsystem mean values <F_{alpha 0}> and fix them."""
        probe = np.asarray(probe, dtype=float)
        if probe.shape != (self.n**2 - 1,):
            raise ValueError(f"probe must have length {self.n**2 - 1}, got {probe.shape}")
        out = self.copy()
        out.coeff[1:, 0] = probe
        out.free[1:, 0] = False
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "coeff": self.coeff.tolist(),
            "free_mask": self.free.astype(int).tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointStateCoeffs":
        return cls(
            n=read_dim(data, "n"),
            m=read_dim(data, "m"),
            coeff=data["coeff"],
            free=np.array(data["free_mask"], dtype=bool),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "JointStateCoeffs":
        return cls.from_json_dict(json.loads(text))


def read_dim(data: dict, key: str) -> int:
    """A dimension field of a JSON object: a positive integer."""
    value = data[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def expand_state(pi: np.ndarray, pb: ProductBasis, tol: float = DEFAULT_TOL) -> JointStateCoeffs:
    """Coefficients <F_{mu nu}> = Tr[F_{mu nu} Pi] of a joint density matrix."""
    d = pb.dim
    if pi.shape != (d, d):
        raise ValueError(f"state has shape {pi.shape}, basis expects ({d},{d})")
    require_hermitian(pi, tol, "state")
    tr = complex(np.trace(pi))
    if abs(tr - 1.0) > 10 * tol:
        raise ValueError(f"state trace is {tr:.6g}, expected 1")
    raw = np.einsum("abij,ji->ab", pb.mats, pi)
    imag = float(np.abs(raw.imag).max())
    if imag > tol:
        raise ValueError(f"complex expansion coefficients (residue {imag:.3e}); non-Hermitian input")
    return JointStateCoeffs(
        n=pb.n, m=pb.m, coeff=raw.real, free=np.zeros(raw.shape, dtype=bool)
    )


def reconstruct_state(c: JointStateCoeffs, pb: ProductBasis) -> np.ndarray:
    """Pi = (1/NM) sum coeff[mu, nu] F_{mu nu}; positivity is not guaranteed."""
    if not c.fully_fixed:
        raise ValueError("cannot reconstruct a state with free coefficients")
    if (c.n, c.m) != (pb.n, pb.m):
        raise ValueError(f"coefficients are ({c.n},{c.m}), basis is ({pb.n},{pb.m})")
    return np.einsum("ab,abij->ij", c.coeff, pb.mats) / pb.dim


def marginal_coeffs(c: JointStateCoeffs) -> np.ndarray:
    """The subsystem Bloch-type vector <F_{alpha 0}>, alpha = 1..N^2-1."""
    if c.free[:, 0].any():
        raise ValueError("subsystem coefficients <F_{alpha 0}> are not all fixed")
    return c.coeff[1:, 0].copy()


@dataclass(frozen=True)
class TransferMatrix:
    """Real orthogonal matrix t with U^dag F_{mu nu} U = sum t[munu, albe] F_{albe}.

    Rows and columns are flattened composite indices mu*m^2 + nu.
    """

    n: int
    m: int
    t: np.ndarray

    def index(self, mu: int, nu: int) -> int:
        return mu * self.m**2 + nu


def transfer_matrix(u: np.ndarray, pb: ProductBasis, tol: float = DEFAULT_TOL) -> TransferMatrix:
    """Expansion of the Heisenberg action of a unitary over the product basis.

    t[munu, albe] = (1/NM) Tr[F_{albe} U^dag F_{mu nu} U].  Composition
    follows the conjugation order: t(U1 @ U2) = t(U1) @ t(U2).
    """
    require_unitary(u, tol)
    d = pb.dim
    if u.shape != (d, d):
        raise ValueError(f"unitary has shape {u.shape}, basis expects ({d},{d})")
    flat = pb.mats.reshape(-1, d, d)
    conj = np.einsum("ai,xij,jb->xab", dagger(u), flat, u)
    t = np.einsum("yba,xab->xy", flat, conj) / d
    imag = float(np.abs(t.imag).max())
    if imag > tol:
        raise ValueError(f"transfer matrix has imaginary residue {imag:.3e}")
    return TransferMatrix(n=pb.n, m=pb.m, t=t.real)


def marginal_state(pi: np.ndarray, n: int, m: int) -> np.ndarray:
    """Subsystem density matrix Tr_R Pi."""
    return partial_trace(pi, n, m, side="right")
