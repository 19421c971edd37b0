"""Orthogonal Hermitian operator bases and coefficient expansions.

A basis for an N-dimensional subsystem is one read-only array of N^2
Hermitian matrices F_mu with F_0 = identity, Tr[F_mu F_nu] = N delta_{mu nu},
and F_mu traceless for mu >= 1 (scaled generalized Gell-Mann generators;
the Pauli matrices for N = 2).  One codec maps a traceless operator Q to its
coefficients Re Tr[F_alpha Q], alpha >= 1, and back to sum c_alpha F_alpha / N;
``probe_state`` is the subsystem state (1/N)(1 + sum c_alpha F_alpha).
Product bases F_{mu nu} = F_mu (x) F_nu span the bipartite operator space,
and any joint density matrix is encoded by the real mean values
<F_{mu nu}>.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, finite_array, require_hermitian


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# build_basis and product_basis stay plain functions in front of private
# caches, so that introspection (perfbench's layer tracer) still sees functions.
def build_basis(n: int) -> np.ndarray:
    """Orthogonal Hermitian basis for dimension n, shape (n^2, n, n).

    Ordering: identity, then symmetric off-diagonal pairs (row-major over
    j < k), then antisymmetric pairs, then diagonal generators.  All
    matrices are scaled so Tr[F_mu F_nu] = n delta_{mu nu}; for n = 2 this
    reproduces the Pauli matrices {I, s1, s2, s3}, and n = 1 gives [[1]]
    (a closed system's trivial environment).  The basis is built once
    per n and shared by every caller, so the array is read-only.
    """
    return _build_basis(n)


@functools.cache
def _build_basis(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"basis dimension must be >= 1, got {n}")
    scale = np.sqrt(n / 2.0)
    mats = [np.eye(n, dtype=complex)]
    # -(scale * 1j) has real part -0.0, as the literal -1j has: n = 2 gives the Paulis bit for bit
    for upper, lower in ((scale, scale), (-(scale * 1j), scale * 1j)):
        for j in range(n):
            for k in range(j + 1, n):
                f = np.zeros((n, n), dtype=complex)
                f[j, k], f[k, j] = upper, lower
                mats.append(f)
    for l in range(1, n):
        d = np.zeros(n, dtype=complex)
        d[:l] = 1.0
        d[l] = -l
        mats.append(scale * np.sqrt(2.0 / (l * (l + 1))) * np.diag(d))
    return _read_only(np.array(mats))


def coefficients(q: np.ndarray, n: int) -> np.ndarray:
    """Coefficients Re Tr[F_alpha Q], alpha >= 1, of operators ``q`` (..., n, n): shape (..., n^2 - 1)."""
    return np.einsum("aij,...ji->...a", build_basis(n)[1:], q).real


def traceless_operator(c: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``coefficients`` on traceless operators: sum_alpha c_alpha F_alpha / n, batched."""
    return np.einsum("...a,aij->...ij", c, build_basis(n)[1:]) / n


def probe_state(probe: np.ndarray, n: int) -> np.ndarray:
    """Subsystem state (1/N)(1 + sum probe_alpha F_alpha) for probe vectors.

    ``probe`` has shape (..., N^2 - 1); leading dimensions are batched.  It is
    1/N + traceless_operator(probe, N) up to rounding: the sum is taken before the division.
    """
    probe = np.asarray(probe, dtype=float)
    if probe.shape[-1:] != (n**2 - 1,):
        raise ValueError(f"probe must have length {n**2 - 1}")
    return (np.eye(n, dtype=complex) + np.einsum("...a,aij->...ij", probe, build_basis(n)[1:])) / n


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
    basis_s: np.ndarray  # build_basis(n)
    basis_r: np.ndarray  # build_basis(m)
    mats: np.ndarray = field(init=False)  # (n^2, m^2, n*m, n*m)

    def __post_init__(self):
        prod = np.kron(self.basis_s[:, None], self.basis_r[None])
        object.__setattr__(self, "mats", _read_only(prod))

    @property
    def n(self) -> int:
        return self.basis_s.shape[-1]

    @property
    def m(self) -> int:
        return self.basis_r.shape[-1]

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
        raise ValueError(f"state trace is {tr.real:.6g}, expected 1")
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
