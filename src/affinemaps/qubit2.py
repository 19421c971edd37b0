"""Closed-form two-qubit map families, kappa bounds, and kappa maximization.

Two families are provided.  The interaction family uses the commuting
generator (1/2) sum_j gamma_j s_j (x) x_j, giving a diagonal Bloch
contraction with factors (cos g2 cos g3, cos g3 cos g1, cos g1 cos g2) and
an inhomogeneous vector built from environment and cross-correlation mean
values.  The two-momentum rotation family conditions one of two spin
rotations on the x_1 eigenvalue of the second qubit, with
G(0) = (D1 + D2)/2 and G(1) = (D1 - D2)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import JointStateCoeffs, expand_state, product_basis, reconstruct_state
from .linalg import DEFAULT_TOL, finite_array, kron, random_density, random_unitary, to_pairs
from .maps import AffineMap, BMatrix, apply_L, extract_K, w_operators

I2 = np.eye(2, dtype=complex)
SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
PAULIS = np.concatenate([I2[None], SIGMA])
SIGMA_PAIRS = np.array([kron(s, s) for s in SIGMA])  # s_j (x) s_j, the interaction generators

GOLDEN_KAPPA_BOUND = (1 + np.sqrt(5)) / 2


@dataclass(frozen=True)
class IntHamParams:
    """Three interaction angles, radians; the map is 2pi-periodic in each."""

    gamma: tuple[float, float, float]


@dataclass(frozen=True)
class Rotation:
    """Axis-angle rotation; zero axis with zero angle denotes the identity."""

    axis: tuple[float, float, float]
    angle: float

    def __post_init__(self):
        a = finite_array(self.axis, "rotation axis")
        if a.shape != (3,) or finite_array(self.angle, "rotation angle").shape != ():
            raise ValueError("a rotation needs three axis values and one angle")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > 1e-12 and not (norm == 0.0 and self.angle == 0.0):
            raise ValueError(f"rotation axis must be unit length, got |axis| = {norm}")

    @property
    def matrix(self) -> np.ndarray:
        """3x3 rotation matrix (Rodrigues form)."""
        n = np.asarray(self.axis, dtype=float)
        if np.linalg.norm(n) == 0.0:
            return np.eye(3)
        c, s = np.cos(self.angle), np.sin(self.angle)
        cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
        return c * np.eye(3) + s * cross + (1 - c) * np.outer(n, n)


@dataclass(frozen=True)
class LorentzParams:
    r1: Rotation
    r2: Rotation


def kappa_vector(k_mat: np.ndarray) -> np.ndarray:
    """Bloch components kappa_j = Tr[s_j K] of a qubit inhomogeneous part."""
    return np.einsum("jab,ba->j", SIGMA, k_mat).real


def bloch_action(amap: AffineMap) -> tuple[np.ndarray, np.ndarray]:
    """Affine action on Bloch vectors, a -> T a + kappa, for a qubit map."""
    if amap.n != 2:
        raise ValueError("Bloch action requires a qubit map")
    t_mat = 0.5 * np.einsum("jab,kba->jk", SIGMA, apply_L(amap, SIGMA)).real
    return t_mat, kappa_vector(amap.k_mat)


def k_from_kappa(kappa) -> np.ndarray:
    """K = (1/2) sum_j kappa_j s_j."""
    return 0.5 * np.einsum("j,jab->ab", np.asarray(kappa, dtype=float), SIGMA)


def int_ham_unitary(p: IntHamParams) -> np.ndarray:
    """exp(-i/2 sum_j gamma_j s_j (x) x_j)."""
    return _int_ham_unitaries(np.asarray(p.gamma, dtype=float))


def _int_ham_unitaries(gamma: np.ndarray) -> np.ndarray:
    """int_ham_unitary for angles of shape (..., 3).

    The three generators commute, so the exponential is the product of the
    factor exponentials cos(g/2) - i sin(g/2) s_j (x) x_j.
    """
    half = gamma[..., None, None] / 2
    f = np.cos(half) * np.eye(4) - 1j * np.sin(half) * SIGMA_PAIRS
    u = np.eye(4, dtype=complex)
    for j in range(3):
        u = u @ f[..., j, :, :]
    return u


def _two_qubit_coeff(corr: JointStateCoeffs) -> np.ndarray:
    if (corr.n, corr.m) != (2, 2):
        raise ValueError(f"two-qubit mean values expected, got dimensions ({corr.n}, {corr.m})")
    return corr.coeff


def int_ham_kappa(p: IntHamParams, corr: JointStateCoeffs) -> np.ndarray:
    """Inhomogeneous Bloch vector from the interaction angles and mean values.

    kappa_1 = <x1> sin g2 sin g3 - <s2 x3> cos g2 sin g3 + <s3 x2> sin g2 cos g3
    and cyclic; only <x_k> and the off-diagonal <s_j x_k> enter.
    """
    c = _two_qubit_coeff(corr)
    s = np.sin(p.gamma)
    co = np.cos(p.gamma)
    return np.array(
        [
            c[0, 1] * s[1] * s[2] - c[2, 3] * co[1] * s[2] + c[3, 2] * s[1] * co[2],
            c[0, 2] * s[2] * s[0] - c[3, 1] * co[2] * s[0] + c[1, 3] * s[2] * co[0],
            c[0, 3] * s[0] * s[1] - c[1, 2] * co[0] * s[1] + c[2, 1] * s[0] * co[1],
        ]
    )


def int_ham_g_ops(p: IntHamParams) -> np.ndarray:
    """Multiplication operators of the interaction unitary over the Pauli basis."""
    c = np.cos(np.asarray(p.gamma) / 2)
    s = np.sin(np.asarray(p.gamma) / 2)
    return np.array(
        [
            (c[0] * c[1] * c[2] - 1j * s[0] * s[1] * s[2]) * I2,
            (c[0] * s[1] * s[2] - 1j * s[0] * c[1] * c[2]) * SIGMA[0],
            (s[0] * c[1] * s[2] - 1j * c[0] * s[1] * c[2]) * SIGMA[1],
            (s[0] * s[1] * c[2] - 1j * c[0] * c[1] * s[2]) * SIGMA[2],
        ]
    )


def int_ham_map(p: IntHamParams, corr: JointStateCoeffs) -> AffineMap:
    """Closed-form affine map of the interaction family.

    ``corr`` supplies <x_k> and the off-diagonal <s_j x_k>; diagonal
    correlations and subsystem mean values do not affect the map and are
    ignored.
    """
    return AffineMap(
        n=2, m=2, g_ops=int_ham_g_ops(p), k_mat=k_from_kappa(int_ham_kappa(p, corr))
    )


def int_ham_b_matrix(p: IntHamParams, kappa) -> BMatrix:
    """Closed-form 4x4 B array of the interaction family.

    Rows and columns are composite (r, j) indices in the order 11, 12, 21,
    22; C_i is cos gamma_i.
    """
    c1, c2, c3 = np.cos(p.gamma)
    k1, k2, k3 = np.asarray(kappa, dtype=float)
    b = 0.5 * np.array(
        [
            [1 + k3 + c1 * c2, 0, k1 - 1j * k2, c2 * c3 + c3 * c1],
            [0, 1 + k3 - c1 * c2, c2 * c3 - c3 * c1, k1 - 1j * k2],
            [k1 + 1j * k2, c2 * c3 - c3 * c1, 1 - k3 - c1 * c2, 0],
            [c2 * c3 + c3 * c1, k1 + 1j * k2, 0, 1 - k3 + c1 * c2],
        ],
        dtype=complex,
    )
    return BMatrix(n=2, b=b)


def su2_from_rotation(axis, angle) -> np.ndarray:
    """2x2 unitary D = cos(a/2) 1 - i sin(a/2) axis . sigma.

    Satisfies D^dag s_j D = sum_k R_{jk} s_k with R the axis-angle rotation
    matrix; products compose as D1 D2 -> R1 @ R2.  Batched over the leading
    dimensions of ``axis`` (..., 3) and ``angle`` (...); a zero axis with
    a zero angle gives the identity.
    """
    n = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    norm = np.linalg.norm(n, axis=-1)
    bad = (np.abs(norm - 1.0) > 1e-12) & ~((norm == 0.0) & (angle == 0.0))
    if bad.any():
        raise ValueError(f"rotation axis must be unit length, got |axis| = {norm[bad].flat[0]}")
    a = angle[..., None, None]
    return np.cos(a / 2) * I2 - 1j * np.sin(a / 2) * np.einsum("...j,jab->...ab", n, SIGMA)


def lorentz_unitary(p: LorentzParams) -> np.ndarray:
    """U = D1 (x) (1 + x1)/2 + D2 (x) (1 - x1)/2."""
    return _lorentz_unitaries(np.array([*p.r1.axis, p.r1.angle, *p.r2.axis, p.r2.angle], dtype=float))


def _lorentz_unitaries(p: np.ndarray) -> np.ndarray:
    """lorentz_unitary for parameters (r1.axis, r1.angle, r2.axis, r2.angle) of shape (..., 8)."""
    d1 = su2_from_rotation(p[..., :3], p[..., 3])
    d2 = su2_from_rotation(p[..., 4:7], p[..., 7])
    return kron(d1, 0.5 * (I2 + SIGMA[0])) + kron(d2, 0.5 * (I2 - SIGMA[0]))


def lorentz_map(p: LorentzParams, corr: JointStateCoeffs) -> AffineMap:
    """Closed-form map of the two-momentum rotation family.

    L(Q) = (D1 Q D1^dag + D2 Q D2^dag)/2 and kappa = (R1 v - R2 v)/2 with
    v = <sigma x1>; only the three <s_j x1> mean values enter K.
    """
    d1 = su2_from_rotation(p.r1.axis, p.r1.angle)
    d2 = su2_from_rotation(p.r2.axis, p.r2.angle)
    zero = np.zeros((2, 2), dtype=complex)
    g_ops = np.array([0.5 * (d1 + d2), 0.5 * (d1 - d2), zero, zero])
    v = _two_qubit_coeff(corr)[1:, 1]
    kappa = 0.5 * (p.r1.matrix @ v - p.r2.matrix @ v)
    return AffineMap(n=2, m=2, g_ops=g_ops, k_mat=k_from_kappa(kappa))


class KappaBounds(NamedTuple):
    kappa_norm: float
    bound_a: float
    bound_b: float
    ok: bool


def kappa_bounds_check(
    u: np.ndarray, coeffs: JointStateCoeffs, tol: float = DEFAULT_TOL
) -> KappaBounds:
    """Check |kappa| <= sqrt(3 - |<sigma>|^2) and |kappa| <= 1 + |<sigma>|.

    Both bounds hold for any unitary and any two-qubit density matrix; they
    meet at |<sigma>| = (sqrt(5) - 1)/2, where each equals (1 + sqrt(5))/2.
    """
    pb = product_basis(2, 2)
    pi = reconstruct_state(coeffs, pb)
    k = extract_K(u, pi, pb, tol)
    kappa_norm = float(np.linalg.norm(kappa_vector(k)))
    a_norm = float(np.linalg.norm(coeffs.coeff[1:, 0]))
    bound_a = float(np.sqrt(max(3.0 - a_norm**2, 0.0)))
    bound_b = 1.0 + a_norm
    return KappaBounds(
        kappa_norm=kappa_norm,
        bound_a=bound_a,
        bound_b=bound_b,
        ok=kappa_norm <= min(bound_a, bound_b) + tol,
    )


class KappaSearchResult(NamedTuple):
    best_kappa_norm: float
    witness: dict


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, each rounded as np.linalg.norm rounds one vector."""
    return np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _best_state_kappa(w_ops: np.ndarray, iters: int = 8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize |kappa| over states for a stack of fixed component operators.

    ``w_ops`` has shape (B, 3, 4, 4).  Per slice, alternates between the
    best pure state for a direction u (top eigenvector of sum u_j W_j) and
    realigning u with the achieved kappa; a slice with W = 0 keeps the
    maximally mixed state, and a slice stops once its |kappa| is below
    1e-14.  Returns (|kappa| (B,), kappa (B, 3), state (B, 4, 4)).
    """
    b, d = w_ops.shape[0], w_ops.shape[-1]
    norms, kappas = np.zeros(b), np.zeros((b, 3))
    states = np.broadcast_to(np.eye(d, dtype=complex) / d, (b, d, d)).copy()
    weights = np.linalg.norm(w_ops.reshape(b, 3, -1), axis=-1)
    live = np.flatnonzero(weights.max(axis=1) >= 1e-15)
    u_dir = weights[live] / _norms(weights[live])[:, None]
    for _ in range(iters):
        if live.size == 0:
            break
        w_live = w_ops[live]
        _, vecs = np.linalg.eigh(np.einsum("zj,zjab->zab", u_dir, w_live))
        psi = vecs[..., -1]
        pi = psi[:, :, None] * psi[:, None, :].conj()
        # kappa_j = Re Tr[W_j pi], summed over b within a, then over a, so that
        # a slice's value does not depend on the batch it is evaluated in
        pi_t = pi[:, None].swapaxes(-1, -2)
        kappa = (w_live.real * pi_t.real - w_live.imag * pi_t.imag).sum(-1).sum(-1)
        norm = _norms(kappa)
        better = norm > norms[live]
        idx = live[better]
        norms[idx], kappas[idx], states[idx] = norm[better], kappa[better], pi[better]
        keep = norm >= 1e-14
        live, u_dir = live[keep], kappa[keep] / norm[keep, None]
    return norms, kappas, states


def _golden_refine(f, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [lo, hi]."""
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform axis and angle, as the four values (axis, angle)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.append(axis, rng.uniform(0, 2 * np.pi))


class _Family(NamedTuple):
    """A two-qubit unitary family as a flat parameter vector.

    ``draw`` samples one parameter vector, ``unitary`` maps a stack of them
    to a stack of U, ``fields`` gives one vector's witness entries, and
    ``refine`` lists the coordinates the search refines, each with its
    golden-section interval around a value.
    """

    draw: Callable[[np.random.Generator], np.ndarray]
    unitary: Callable[[np.ndarray], np.ndarray]
    fields: Callable[[np.ndarray], dict]
    refine: tuple[tuple[int, Callable[[float], tuple[float, float]]], ...]


FAMILIES = {
    "int_ham": _Family(
        draw=lambda rng: rng.uniform(0, 2 * np.pi, size=3),
        unitary=_int_ham_unitaries,
        fields=lambda p: {"gamma": p.tolist()},
        refine=tuple((i, lambda x: (x - 0.5, x + 0.5)) for i in range(3)),
    ),
    "lorentz": _Family(
        draw=lambda rng: np.concatenate([_random_rotation(rng), _random_rotation(rng)]),
        unitary=_lorentz_unitaries,
        fields=lambda p: {
            "r1": {"axis": p[:3].tolist(), "angle": float(p[3])},
            "r2": {"axis": p[4:7].tolist(), "angle": float(p[7])},
        },
        refine=((7, lambda x: (0.0, 2 * np.pi)),),
    ),
    "random_unitary": _Family(
        draw=lambda rng: random_unitary(4, rng),
        unitary=lambda p: p,
        fields=lambda p: {"unitary": to_pairs(p)},
        refine=(),
    ),
}


def _family(name: str) -> _Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


_BLOCK = 1024  # trials evaluated per batch, which bounds the memory of a search at any trial count


def kappa_search(
    family: str, trials: int, seed: int = 0, state_iters: int = 8
) -> KappaSearchResult:
    """Randomized search with local refinement for the largest |kappa|.

    For each parameter draw the best state is found exactly (top
    eigenvector of the kappa component operators w_operators(U, SIGMA, 2)
    along a direction, alternated to convergence); the best parameters are
    then refined by coordinate golden-section search where the family
    lists refinement coordinates.  Draws are made one trial at a time, so
    the random stream does not depend on the batching, and evaluated in
    batches of _BLOCK trials.  Deterministic for a given seed.
    """
    fam = _family(family)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)

    def best_states(params):
        return _best_state_kappa(w_operators(fam.unitary(params), SIGMA, 2), state_iters)

    best_norm, best = -1.0, None
    for start in range(0, trials, _BLOCK):
        params = np.array([fam.draw(rng) for _ in range(min(_BLOCK, trials - start))])
        norms = best_states(params)[0]
        i = int(np.argmax(norms))
        if norms[i] > best_norm:
            best_norm, best = norms[i], params[i].copy()
    for i, interval in fam.refine:
        def at(x, i=i):
            p = best.copy()
            p[i] = x
            return best_states(p[None])[0][0]

        x, val = _golden_refine(at, *interval(best[i]))
        if val > best_norm:
            best[i], best_norm = x, val
    norm, kappa, pi = (a[0] for a in best_states(best[None]))
    witness = {
        **fam.fields(best),
        "kappa": kappa.tolist(),
        "coeff": expand_state(pi, product_basis(2, 2)).coeff.tolist(),
    }
    return KappaSearchResult(best_kappa_norm=float(norm), witness=witness)


class BoundsSweep(NamedTuple):
    checked: int
    ok: int
    max_kappa_norm: float
    min_margin: float


def bounds_sweep(family: str, trials: int, seed: int = 0, tol: float = DEFAULT_TOL) -> BoundsSweep:
    """Check the two kappa bounds over random family draws and random states."""
    fam = _family(family)
    rng = np.random.default_rng(seed)
    pb = product_basis(2, 2)
    ok = 0
    max_norm = 0.0
    min_margin = np.inf
    for _ in range(trials):
        u = fam.unitary(fam.draw(rng)[None])[0]
        coeffs = expand_state(random_density(4, rng), pb)
        res = kappa_bounds_check(u, coeffs, tol)
        ok += int(res.ok)
        max_norm = max(max_norm, res.kappa_norm)
        min_margin = min(min_margin, min(res.bound_a, res.bound_b) - res.kappa_norm)
    return BoundsSweep(checked=trials, ok=ok, max_kappa_norm=max_norm, min_margin=float(min_margin))
