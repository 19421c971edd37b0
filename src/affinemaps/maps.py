"""Affine maps rho -> L(rho) + K of subsystem dynamics and their representations.

The homogeneous part L is completely positive and unital; it is carried by
multiplication operators G(nu) on the subsystem, defined by the expansion
U = sum_nu G(nu) (x) F_nu of the joint unitary over an environment basis,
so that L(Q) = sum_nu G(nu) Q G(nu)^dag.  L is applied through the
homogeneous B array b4[r, j, s, k] = sum_nu G(nu)_{rj} conj(G(nu)_{sk}),
built once per map, as one contraction over the flattened (j, k) index.
The inhomogeneous part K is a traceless Hermitian matrix read off the
Heisenberg picture: K's coefficients are Tr[Pi W_mu] with the joint
operators W_mu of ``w_operators``, so only environment and correlation
mean values of the joint state enter, and ``basis.traceless_operator``
turns them into K.  The linear extension
Q -> L(Q) + K Tr Q agrees with the affine map on density matrices; it is
``BMatrix.apply``, the Choi matrix is the reindexed B matrix, and the CP
test and signed operator sum come from its spectrum.  ``bloch_action`` is
the qubit form a -> T a + kappa on Bloch vectors, both read off through
``basis.coefficients``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ProductBasis, build_basis, coefficients, read_dim, traceless_operator
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

VALIDATE_TOL = 1e-8  # tolerance of the Hermiticity, trace and completeness checks on a new map


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

    def __post_init__(self):
        self.g_ops = np.asarray(self.g_ops, dtype=complex)
        self.k_mat = np.asarray(self.k_mat, dtype=complex)
        if self.g_ops.shape != (self.m**2, self.n, self.n):
            raise ValueError(f"expected {self.m**2} operators of size {self.n}, got {self.g_ops.shape}")
        if self.k_mat.shape != (self.n, self.n):
            raise ValueError(f"K must be {self.n}x{self.n}, got {self.k_mat.shape}")
        tol = VALIDATE_TOL
        require_hermitian(self.k_mat, tol, "K")
        tr = complex(np.trace(self.k_mat))
        if abs(tr) > tol:
            raise ValueError(f"K must be traceless, got trace {tr.real:.3e}")
        eye = np.eye(self.n)  # sum G^dag G and sum G G^dag are traces of the B array
        left, right = np.einsum("rjrk->jk", self.b4), np.einsum("rjsj->rs", self.b4)
        if np.abs(left - eye).max() > tol or np.abs(right - eye).max() > tol:
            raise ValueError("G operators violate the completeness sums")

    @cached_property
    def one_prime(self) -> np.ndarray:
        """Image of the identity under the linear extension: 1 + N K."""
        return np.eye(self.n, dtype=complex) + self.n * self.k_mat

    @cached_property
    def b4(self) -> np.ndarray:
        """Homogeneous B array b4[r, j, s, k] = sum_nu G(nu)_{rj} conj(G(nu)_{sk})."""
        return np.einsum("nrj,nsk->rjsk", self.g_ops, self.g_ops.conj())

    @cached_property
    def f_primes(self) -> np.ndarray:
        """L(F_alpha) for the traceless basis matrices, alpha = 1..n^2-1."""
        return apply_L(self, build_basis(self.n)[1:])


def extract_G(u: np.ndarray, basis_r: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multiplication operators G(nu) = (1/M) Tr_R[U (1 (x) F_nu)].

    Inverts the expansion U = sum_nu G(nu) (x) F_nu over the environment
    basis ``build_basis(m)``; the returned array has shape (m^2, n, n).
    """
    require_unitary(u, tol)
    m = basis_r.shape[-1]
    d = u.shape[0]
    if d % m:
        raise ValueError(f"unitary dimension {d} not divisible by environment dimension {m}")
    n = d // m
    u4 = u.reshape(n, m, n, m)
    return np.einsum("iajc,xca->xij", u4, basis_r) / m


def _contract_b4(b4: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q'_{rs} = sum_{jk} b4[r, j, s, k] Q_{jk}, batched over leading dimensions of ``q``."""
    n, q = b4.shape[0], np.asarray(q)
    if q.shape[-2:] != (n, n):
        raise ValueError(f"operand must be {n}x{n}, got {q.shape}")
    sup = b4.transpose(1, 3, 0, 2).reshape(n * n, n * n)
    # einsum, not @: a BLAS matmul rounds a slice differently depending on the batch
    return np.einsum("...x,xy->...y", q.reshape(q.shape[:-2] + (n * n,)), sup).reshape(q.shape[:-2] + (n, n))


def apply_L(amap: AffineMap, q: np.ndarray) -> np.ndarray:
    """L(Q) = sum_nu G(nu) Q G(nu)^dag through the homogeneous B array ``amap.b4``, batched."""
    return _contract_b4(amap.b4, q)


def apply_affine(amap: AffineMap, rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Full map L(rho) + K applied to a subsystem density matrix."""
    if rho.shape != (amap.n, amap.n):
        raise ValueError(f"state must be {amap.n}x{amap.n}, got {rho.shape}")
    require_density(rho, tol, "state")
    return apply_L(amap, rho) + amap.k_mat


def bloch_action(amap: AffineMap) -> tuple[np.ndarray, np.ndarray]:
    """Qubit affine action a -> T a + kappa: T_jk = Re Tr[F_j L(F_k)]/2 from ``f_primes``, kappa_j = Re Tr[F_j K]."""
    if amap.n != 2:
        raise ValueError("Bloch action requires a qubit map")
    return 0.5 * coefficients(amap.f_primes, 2).T, coefficients(amap.k_mat, 2)


def w_operators(u: np.ndarray, obs: np.ndarray, m: int) -> np.ndarray:
    """Joint operators W_a with Tr_S[A_a K] = Tr[Pi W_a] for every joint state Pi.

    W_a = U^dag (A_a (x) 1) U - (Tr_R[U^dag (A_a (x) 1) U] / M) (x) 1 for the
    stack ``obs`` (k, n, n) of subsystem observables and an environment of
    dimension ``m``.  For A_a = F_alpha this is the Heisenberg row
    t[alpha 0, .] without its gamma = 0 part: with
    U^dag (F_alpha (x) 1) U = sum t[alpha 0, beta gamma] F_{beta gamma},
    W_alpha = sum_{beta, gamma >= 1} t[alpha 0, beta gamma] F_{beta gamma}.
    W_a depends on the dynamics alone; the state enters only through Pi,
    and a product rho (x) 1/M gives Tr[Pi W_a] = 0.  A stack ``u``
    (..., d, d) of unitaries gives W of shape (..., k, d, d).
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
    coeff = np.einsum("aij,ji->a", w_operators(u, pb.basis_s[1:], m), pi)
    k = traceless_operator(coeff, n)
    imag = float(np.abs(k - dagger(k)).max())
    if imag > 10 * tol:
        raise ValueError(f"extracted K is not Hermitian (deviation {imag:.3e})")
    return 0.5 * (k + dagger(k))


def extract_map(
    u: np.ndarray, pi: np.ndarray, pb: ProductBasis, tol: float = DEFAULT_TOL
) -> AffineMap:
    """Build the full affine map (G operators and K) from (U, Pi)."""
    return AffineMap(n=pb.n, m=pb.m, g_ops=extract_G(u, pb.basis_r, tol), k_mat=extract_K(u, pi, pb, tol))


@dataclass(frozen=True)
class BMatrix:
    """Component array B with Q'_{rs} = sum_{jk} B[(r,j),(s,k)] Q_{jk}; ``apply`` is batched.

    Composite indices are flattened row-major, so for n = 2 rows and
    columns run in the order 11, 12, 21, 22 (one-based).
    """

    n: int
    b: np.ndarray

    def apply(self, q: np.ndarray) -> np.ndarray:
        n = self.n
        return _contract_b4(self.b.reshape(n, n, n, n), q)


def b_matrix(amap: AffineMap) -> BMatrix:
    """B[(r,j),(s,k)] = sum_nu G(nu)_{rj} conj(G(nu)_{sk}) + K_{rs} delta_{jk}."""
    n = amap.n
    b4 = amap.b4 + np.einsum("rs,jk->rjsk", amap.k_mat, np.eye(n))
    return BMatrix(n=n, b=b4.reshape(n**2, n**2))


def choi_matrix(amap: AffineMap) -> np.ndarray:
    """Hermitian block matrix sum_{jk} E_{jk} (x) f(E_{jk}) of the linear extension f.

    Input index first, output index second: C[(j,r),(k,s)] = B[(r,j),(s,k)].
    Its partial trace over the output factor is the identity (trace
    preservation).
    """
    n = amap.n
    c = b_matrix(amap).b.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n**2, n**2)
    return 0.5 * (c + dagger(c))


def choi_and_cp(amap: AffineMap, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
    """Ascending Choi spectrum of the linear extension and its complete positivity.

    The map is completely positive iff the Choi matrix is PSD; K = 0 always
    yields a CP map since L alone is an operator sum.
    """
    eigenvalues = np.linalg.eigvalsh(choi_matrix(amap))
    return eigenvalues, bool(eigenvalues[0] >= -tol)


def pm_decomposition(amap: AffineMap, tol: float = 1e-10) -> tuple[list[np.ndarray], list[int]]:
    """Signed operator-sum form Q' = sum_+ C Q C^dag - sum_- C Q C^dag.

    Eigendecomposes the Choi matrix and emits C = sqrt(|lambda|) unvec(v)
    for every eigenvalue with |lambda| > tol, positive signs first.  The
    unvec convention stacks the output index fastest, matching the Choi
    block layout.
    """
    n = amap.n
    w, v = np.linalg.eigh(choi_matrix(amap))
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
