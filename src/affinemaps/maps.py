"""Affine maps rho -> L(rho) + K of subsystem dynamics and their representations.

The homogeneous part L is completely positive and unital; it is carried by
multiplication operators G(nu) on the subsystem, defined by the expansion
U = sum_nu G(nu) (x) F_nu of the joint unitary over an environment basis,
so that L(Q) = sum_nu G(nu) Q G(nu)^dag.  The inhomogeneous part K is a
traceless Hermitian matrix determined by the environment and correlation
mean values of the joint state.  The linear extension Q -> L(Q) + K Tr Q
agrees with the affine map on density matrices and admits B-matrix, Choi,
and signed operator-sum representations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import HermitianBasis, ProductBasis, build_basis, read_dim
from .linalg import (
    DEFAULT_TOL,
    dagger,
    from_pairs,
    partial_trace,
    require_density,
    require_hermitian,
    require_unitary,
    to_pairs,
)


@dataclass
class AffineMap:
    """An affine subsystem map, stored as (G operators, K).

    ``g_ops`` has shape (m^2, n, n) and satisfies the two completeness sums
    sum G^dag G = sum G G^dag = identity; ``k_mat`` is Hermitian and
    traceless.  Instances are immutable by convention; derived
    representations are cached on first use.
    """

    n: int
    m: int
    g_ops: np.ndarray
    k_mat: np.ndarray
    validate_tol: float = 1e-8

    def __post_init__(self):
        self.g_ops = np.asarray(self.g_ops, dtype=complex)
        self.k_mat = np.asarray(self.k_mat, dtype=complex)
        if self.g_ops.shape != (self.m**2, self.n, self.n):
            raise ValueError(
                f"expected {self.m**2} operators of size {self.n}, got {self.g_ops.shape}"
            )
        if self.k_mat.shape != (self.n, self.n):
            raise ValueError(f"K must be {self.n}x{self.n}, got {self.k_mat.shape}")
        tol = self.validate_tol
        require_hermitian(self.k_mat, tol, "K")
        tr = complex(np.trace(self.k_mat))
        if abs(tr) > tol:
            raise ValueError(f"K must be traceless, got trace {tr:.3e}")
        eye = np.eye(self.n)
        left = np.einsum("nji,njk->ik", self.g_ops.conj(), self.g_ops)
        right = np.einsum("nij,nkj->ik", self.g_ops, self.g_ops.conj())
        if np.abs(left - eye).max() > tol or np.abs(right - eye).max() > tol:
            raise ValueError("G operators violate the completeness sums")

    @cached_property
    def basis_s(self) -> HermitianBasis:
        return build_basis(self.n)

    @cached_property
    def one_prime(self) -> np.ndarray:
        """Image of the identity under the linear extension: 1 + N K."""
        return np.eye(self.n, dtype=complex) + self.n * self.k_mat

    @cached_property
    def f_primes(self) -> np.ndarray:
        """L(F_alpha) for the traceless basis matrices, alpha = 1..n^2-1."""
        return apply_L(self, self.basis_s.mats[1:])


def extract_G(u: np.ndarray, basis_r: HermitianBasis, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multiplication operators G(nu) = (1/M) Tr_R[U (1 (x) F_nu)].

    Inverts the expansion U = sum_nu G(nu) (x) F_nu over the environment
    basis; the returned array has shape (m^2, n, n).
    """
    require_unitary(u, tol)
    m = basis_r.dim
    d = u.shape[0]
    if d % m:
        raise ValueError(f"unitary dimension {d} not divisible by environment dimension {m}")
    n = d // m
    u4 = u.reshape(n, m, n, m)
    return np.einsum("iajc,xca->xij", u4, basis_r.mats) / m


def apply_L(amap: AffineMap, q: np.ndarray) -> np.ndarray:
    """Homogeneous action L(Q) = sum_nu G(nu) Q G(nu)^dag, batched over leading dimensions."""
    if q.shape[-2:] != (amap.n, amap.n):
        raise ValueError(f"operand must be {amap.n}x{amap.n}, got {q.shape}")
    return np.einsum("nij,...jk,nlk->...il", amap.g_ops, q, amap.g_ops.conj())


def apply_affine(amap: AffineMap, rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Full map L(rho) + K applied to a subsystem density matrix."""
    if rho.shape != (amap.n, amap.n):
        raise ValueError(f"state must be {amap.n}x{amap.n}, got {rho.shape}")
    require_hermitian(rho, tol, "state")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 10 * tol:
        raise ValueError(f"state trace is {tr:.6g}, expected 1")
    return apply_L(amap, rho) + amap.k_mat


def linear_extension(amap: AffineMap, q: np.ndarray) -> np.ndarray:
    """Linear map Q -> L(Q) + K Tr Q, batched; agrees with apply_affine on unit trace."""
    return apply_L(amap, q) + amap.k_mat * np.trace(q, axis1=-2, axis2=-1)[..., None, None]


def w_operators(u: np.ndarray, obs: np.ndarray, m: int) -> np.ndarray:
    """Joint operators W_a with Tr_S[A_a K] = Tr[Pi W_a] for every joint state Pi.

    W_a = U^dag (A_a (x) 1) U - (Tr_R[U^dag (A_a (x) 1) U] / M) (x) 1 for the
    stack ``obs`` (k, n, n) of subsystem observables and an environment of
    dimension ``m``.  W_a depends on the dynamics alone; the state enters
    only through Pi, and a product rho (x) 1/M gives Tr[Pi W_a] = 0.  A
    stack ``u`` (..., d, d) of unitaries gives W of shape (..., k, d, d).
    """
    n = obs.shape[-1]
    d = n * m
    if u.shape[-2:] != (d, d):
        raise ValueError(f"unitary has shape {u.shape}, expected {(d, d)}")
    eye = np.eye(m)

    def lift(a):
        return np.einsum("...ij,xy->...ixjy", a, eye).reshape(a.shape[:-2] + (d, d))

    u = u[..., None, :, :]
    y = dagger(u) @ lift(obs) @ u
    return y - lift(partial_trace(y, n, m) / m)


def extract_K(
    u: np.ndarray, pi: np.ndarray, pb: ProductBasis, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Inhomogeneous part K from the joint unitary and joint state.

    K = (1/N) sum_{mu>=1} Tr[Pi W_mu] F_mu with W_mu the w_operators of the
    traceless subsystem basis.  Only environment and correlation mean
    values enter; the subsystem coefficients of Pi drop out.
    """
    require_unitary(u, tol)
    require_density(pi, tol, "joint state")
    n, m = pb.n, pb.m
    if pi.shape != (n * m, n * m):
        raise ValueError(f"joint state has shape {pi.shape}, basis expects {(n * m, n * m)}")
    f = pb.basis_s.mats[1:]
    coeff = np.einsum("aij,ji->a", w_operators(u, f, m), pi)
    k = np.einsum("a,aij->ij", coeff, f) / n
    imag = float(np.abs(k - dagger(k)).max())
    if imag > 10 * tol:
        raise ValueError(f"extracted K is not Hermitian (deviation {imag:.3e})")
    return 0.5 * (k + dagger(k))


def extract_map(
    u: np.ndarray, pi: np.ndarray, pb: ProductBasis, tol: float = DEFAULT_TOL
) -> AffineMap:
    """Build the full affine map (G operators and K) from (U, Pi)."""
    return AffineMap(
        n=pb.n,
        m=pb.m,
        g_ops=extract_G(u, pb.basis_r, tol),
        k_mat=extract_K(u, pi, pb, tol),
    )


def mean_value_correction(a: np.ndarray, u: np.ndarray, pi: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Tr_S[A K] = Tr[Pi W_A] for a subsystem observable A (see w_operators).

    This is the part of the evolved mean value <A> that the homogeneous map
    alone misses; it vanishes for every A iff Pi is the product rho (x) 1/M.
    """
    require_hermitian(a, tol, "observable")
    n = a.shape[0]
    d = pi.shape[0]
    if d % n:
        raise ValueError(f"joint dimension {d} not divisible by subsystem dimension {n}")
    w = w_operators(u, a[None], d // n)[0]
    return float(np.einsum("ij,ji->", w, pi).real)


@dataclass(frozen=True)
class BMatrix:
    """Component array B with Q'_{rs} = sum_{jk} B[(r,j),(s,k)] Q_{jk}.

    Composite indices are flattened row-major, so for n = 2 rows and
    columns run in the order 11, 12, 21, 22 (one-based).
    """

    n: int
    b: np.ndarray

    def apply(self, q: np.ndarray) -> np.ndarray:
        n = self.n
        b4 = self.b.reshape(n, n, n, n)
        return np.einsum("rjsk,jk->rs", b4, q)


def b_matrix(amap: AffineMap) -> BMatrix:
    """B[(r,j),(s,k)] = sum_nu G(nu)_{rj} conj(G(nu)_{sk}) + K_{rs} delta_{jk}."""
    n = amap.n
    b4 = np.einsum("nrj,nsk->rjsk", amap.g_ops, amap.g_ops.conj())
    b4 = b4 + np.einsum("rs,jk->rjsk", amap.k_mat, np.eye(n))
    return BMatrix(n=n, b=b4.reshape(n**2, n**2))


@dataclass(frozen=True)
class ChoiMatrix:
    """Block matrix sum_{jk} E_{jk} (x) f(E_{jk}) of the linear extension f.

    Input index first, output index second; Hermitian, and its partial
    trace over the output factor is the identity (trace preservation).
    """

    n: int
    c: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.c)


def choi_matrix(amap: AffineMap) -> ChoiMatrix:
    n = amap.n
    units = np.eye(n**2, dtype=complex).reshape(n, n, n, n)  # units[j, k] = E_jk
    c = linear_extension(amap, units).transpose(0, 2, 1, 3).reshape(n**2, n**2)
    return ChoiMatrix(n=n, c=0.5 * (c + dagger(c)))


def choi_and_cp(amap: AffineMap, tol: float = DEFAULT_TOL) -> tuple[ChoiMatrix, bool]:
    """Choi matrix of the linear extension and its complete positivity.

    The map is completely positive iff the Choi matrix is PSD; K = 0 always
    yields a CP map since L alone is an operator sum.
    """
    choi = choi_matrix(amap)
    return choi, bool(choi.eigenvalues[0] >= -tol)


def pm_decomposition(amap: AffineMap, tol: float = 1e-10) -> tuple[list[np.ndarray], list[int]]:
    """Signed operator-sum form Q' = sum_+ C Q C^dag - sum_- C Q C^dag.

    Eigendecomposes the Choi matrix and emits C = sqrt(|lambda|) unvec(v)
    for every eigenvalue with |lambda| > tol, positive signs first.  The
    unvec convention stacks the output index fastest, matching the Choi
    block layout.
    """
    n = amap.n
    w, v = np.linalg.eigh(choi_matrix(amap).c)
    ops: list[np.ndarray] = []
    signs: list[int] = []
    order = np.argsort(-w)  # descending: positives first, then negatives by magnitude
    for idx in order:
        lam = w[idx]
        if abs(lam) <= tol:
            continue
        c_op = np.sqrt(abs(lam)) * v[:, idx].reshape(n, n).T
        ops.append(c_op)
        signs.append(1 if lam > 0 else -1)
    return ops, signs


def purity_delta(amap: AffineMap, rho: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Change of Tr[rho^2] under the map; never positive iff K = 0."""
    out = apply_affine(amap, rho, tol)
    return float((np.trace(out @ out) - np.trace(rho @ rho)).real)


def map_to_json_dict(amap: AffineMap) -> dict:
    """Serializable map representation, complex scalars as [re, im] pairs."""
    return {
        "n": amap.n,
        "m": amap.m,
        "g_ops": to_pairs(amap.g_ops),
        "k": to_pairs(amap.k_mat),
        "one_prime": to_pairs(amap.one_prime),
        "f_primes": to_pairs(amap.f_primes),
        "b_matrix": to_pairs(b_matrix(amap).b),
    }


def map_from_json_dict(data: dict) -> AffineMap:
    return AffineMap(
        n=read_dim(data, "n"),
        m=read_dim(data, "m"),
        g_ops=from_pairs(data["g_ops"], "g_ops"),
        k_mat=from_pairs(data["k"], "k"),
    )


def map_to_json(amap: AffineMap) -> str:
    return json.dumps(map_to_json_dict(amap))


def map_from_json(text: str) -> AffineMap:
    return map_from_json_dict(json.loads(text))
