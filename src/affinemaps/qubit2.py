"""Two-qubit map families, kappa bounds, and kappa maximization.

Each family is a joint unitary; its maps come from ``maps.map_from_unitary``
like every other map, and the paper's closed forms (G operators, kappa, B
matrix) are kept as test oracles.  The interaction family uses the
commuting generator (1/2) sum_j gamma_j s_j (x) x_j, giving a diagonal
Bloch contraction with factors (cos g2 cos g3, cos g3 cos g1, cos g1 cos g2)
and a kappa built from environment and cross-correlation mean values.  The
two-momentum rotation family conditions one of two spin rotations on the
x_1 eigenvalue of the second qubit, with G(0) = (D1 + D2)/2 and
G(1) = (D1 - D2)/2.  The Pauli matrices are the n = 2 basis
``build_basis(2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import JointStateCoeffs, build_basis, expand_state, expand_states, product_basis, reconstruct_state
from .linalg import DEFAULT_TOL, combine, complex_gaussian, finite_array, gram_density, haar_unitary
from .linalg import require_density, require_unitary, to_pairs, trace_pairing
from .maps import AffineMap, map_from_unitary, w_operators

I2, SIGMA = build_basis(2)[0], build_basis(2)[1:]  # the identity and the Pauli matrices
SIGMA_PAIRS = np.array([np.kron(s, s) for s in SIGMA])  # s_j (x) s_j, the interaction generators

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
        su2_from_rotation(a, self.angle)  # the unit-axis rule


@dataclass(frozen=True)
class LorentzParams:
    r1: Rotation
    r2: Rotation


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


def int_ham_map(p: IntHamParams, corr: JointStateCoeffs) -> AffineMap:
    """Map of the interaction family for the mean values ``corr``."""
    return map_from_unitary(int_ham_unitary(p), corr)


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
    return np.cos(a / 2) * I2 - 1j * np.sin(a / 2) * combine(n, SIGMA)


def lorentz_unitary(p: LorentzParams) -> np.ndarray:
    """U = D1 (x) (1 + x1)/2 + D2 (x) (1 - x1)/2.

    Its map has L(Q) = (D1 Q D1^dag + D2 Q D2^dag)/2 and kappa = (R1 v - R2 v)/2
    with v = <sigma x1>; only the three <s_j x1> mean values enter K.  So
    |kappa| <= (|R1 v| + |R2 v|)/2 = |v| <= 1 for every state: |v| is the
    largest <n.sigma x1> over unit n, and n.sigma x1 has eigenvalues +-1.
    """
    return _lorentz_unitaries(np.array([*p.r1.axis, p.r1.angle, *p.r2.axis, p.r2.angle], dtype=float))


def _lorentz_unitaries(p: np.ndarray) -> np.ndarray:
    """lorentz_unitary for parameters (r1.axis, r1.angle, r2.axis, r2.angle) of shape (..., 8)."""
    d1 = su2_from_rotation(p[..., :3], p[..., 3])
    d2 = su2_from_rotation(p[..., 4:7], p[..., 7])
    return np.kron(d1, 0.5 * (I2 + SIGMA[0])) + np.kron(d2, 0.5 * (I2 - SIGMA[0]))


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
    kappa_j = Re Tr[Pi W_j] with W_j = w_operators(u, SIGMA, 2), the kernel
    the search maximizes; ``u`` must be unitary and ``coeffs`` a state.
    """
    require_unitary(u, tol)
    pi = reconstruct_state(coeffs)
    require_density(pi, tol, "joint state")
    kappa = trace_pairing(w_operators(u, SIGMA, 2), pi)
    kappa_norm = float(_norms(kappa))
    a_norm = float(_norms(coeffs.coeff[1:, 0]))
    bound_a = math.sqrt(max(3.0 - a_norm**2, 0.0))
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
    w, u_dir = w_ops[live], weights[live] / _norms(weights[live])[:, None]
    for _ in range(iters):
        if live.size == 0:
            break
        _, vecs = np.linalg.eigh(combine(u_dir, w))
        psi = vecs[..., -1]
        pi = psi[:, :, None] * psi[:, None, :].conj()
        kappa = trace_pairing(w, pi)
        norm = _norms(kappa)
        better = norm > norms[live]
        better = slice(None) if better.all() else better  # usually all: then views, not copies
        idx = live[better]
        norms[idx], kappas[idx], states[idx] = norm[better], kappa[better], pi[better]
        keep = norm >= 1e-14
        keep = slice(None) if keep.all() else keep
        live, w, u_dir = live[keep], w[keep], kappa[keep] / norm[keep, None]
    return norms, kappas, states


_LOOKAHEAD = 3  # golden-section steps per call of the refined function: 2^3 - 1 = 7 points


def _golden_refine(f, lo: float, hi: float, iters: int = 40) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [lo, hi].

    ``f`` maps an array of points to their values.  Each call covers the
    next k = _LOOKAHEAD steps: it evaluates the 2^k - 1 points that those
    steps could need, one per outcome of the comparisons not yet known, and
    the walk down that tree gives the iterates and the result of the
    one-point-per-step search in 1 + ceil(iters / k) calls, not 2 + iters.
    """
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(np.array([c, d]))

    def step(a, b, c, d, left):
        # the bracket after one step; its new point is c after a left step (fc >= fd), else d
        return (a, d, d - phi * (d - a), c, left) if left else (c, b, d, c + phi * (b - c), left)

    for done in range(0, iters, _LOOKAHEAD):
        k = min(_LOOKAHEAD, iters - done)
        tree = [step(a, b, c, d, fc >= fd)]  # node i has children 2i + 1 (left) and 2i + 2
        for i in range(2 ** (k - 1) - 1):
            tree += [step(*tree[i][:4], True), step(*tree[i][:4], False)]
        values = f(np.array([node[2] if node[4] else node[3] for node in tree]))
        i = 0
        for _ in range(k):
            a, b, c, d, left = tree[i]
            fc, fd = (values[i], fc) if left else (fd, values[i])
            i = 2 * i + (1 if fc >= fd else 2)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform axis and angle, as the four values (axis, angle)."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.append(axis, rng.uniform(0, 2 * np.pi))


class _Family(NamedTuple):
    """A two-qubit unitary family as a parameter array: a flat vector, or a Gaussian matrix.

    ``draw`` samples one parameter array, ``unitary`` maps a stack of them
    to a stack of U, ``fields`` gives one array's witness entries, and
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
        draw=lambda rng: complex_gaussian(4, rng),
        unitary=haar_unitary,
        fields=lambda p: {"unitary": to_pairs(haar_unitary(p))},
        refine=(),
    ),
}


def _family(name: str, trials: int) -> _Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return FAMILIES[name]


_BLOCK = 1024  # trials evaluated per batch, which bounds the memory of a search at any trial count


def kappa_search(family: str, trials: int, seed: int = 0) -> KappaSearchResult:
    """Randomized search with local refinement for the largest |kappa|.

    For each parameter draw the best state is found exactly (top
    eigenvector of the kappa component operators w_operators(U, SIGMA, 2)
    along a direction, alternated to convergence); the best parameters are
    then refined by coordinate golden-section search where the family lists
    refinement coordinates, one batch per _LOOKAHEAD steps.  Draws are made
    one trial at a time, so the random stream does not depend on the
    batching, and evaluated in batches of _BLOCK trials; deterministic per seed.
    """
    fam = _family(family, trials)
    rng = np.random.default_rng(seed)

    def best_states(params):
        return _best_state_kappa(w_operators(fam.unitary(params), SIGMA, 2))

    best_norm, best = -1.0, None
    for start in range(0, trials, _BLOCK):
        params = np.array([fam.draw(rng) for _ in range(min(_BLOCK, trials - start))])
        norms = best_states(params)[0]
        i = int(np.argmax(norms))
        if norms[i] > best_norm:
            best_norm, best = norms[i], params[i].copy()
    for i, interval in fam.refine:
        def at(xs, i=i):
            p = np.repeat(best[None], len(xs), axis=0)
            p[:, i] = xs
            return best_states(p)[0]

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
    """Check the two kappa bounds over random family draws and random states.

    Trials go in blocks of _BLOCK, so memory does not grow with ``trials``:
    a block is drawn in the seeded order (one family draw, then the
    complex_gaussian(4) that random_density(4) draws), its unitaries, states
    and coefficients are built as stacks, and each (U, state) pair is
    checked by its own kappa_bounds_check call.
    """
    fam = _family(family, trials)
    rng = np.random.default_rng(seed)
    ok, max_norm, min_margin = 0, 0.0, np.inf
    for start in range(0, trials, _BLOCK):
        params, gs = zip(*[(fam.draw(rng), complex_gaussian(4, rng)) for _ in range(min(_BLOCK, trials - start))])
        coeff = expand_states(gram_density(np.array(gs)), product_basis(2, 2), tol)
        for u, c in zip(fam.unitary(np.array(params)), coeff):
            res = kappa_bounds_check(u, JointStateCoeffs(2, 2, c, np.zeros((4, 4), dtype=bool)), tol)
            ok += int(res.ok)
            max_norm = max(max_norm, res.kappa_norm)
            min_margin = min(min_margin, min(res.bound_a, res.bound_b) - res.kappa_norm)
    return BoundsSweep(checked=trials, ok=ok, max_kappa_norm=max_norm, min_margin=float(min_margin))
