"""Compatibility and positivity domain membership and sampling.

The compatibility domain of a map is the set of subsystem Bloch-type
vectors that extend to a positive joint state with the map's fixed
environment/correlation coefficients.  ``compatibility(spec, probes, tol)``
decides it for a batch of probes by the margin t* = max over the free
coefficients c of lambda_min(X(c)), X(c) the joint matrix with every fixed
coefficient and the probe in place, and returns (inside, margin,
completion): inside is margin >= -tol and completion is the witness X(c).
A probe a moves only the subsystem column: X0(a) = X_fix + sum_alpha
a_alpha (F_alpha x 1)/NM.  A fully fixed spec gives t* = lambda_min(X0);
otherwise a batched log-det barrier method with damped Newton steps (Boyd
& Vandenberghe, Convex Optimization, ch. 11) brackets t* between a lower
bound and a dual upper bound, so every label is certified.  A Newton step
is one matrix inverse and a few GEMMs with no eigendecomposition: the
lower bound t + 1/||S^-1||_F on lambda_min(X), S = X - t 1 > 0, decides
"inside", and lambda_min is computed only for the probes so decided, whose
margin is the lambda_min of their completion.  The positivity
domain is the set of subsystem states whose image under the affine map is
positive; ``positivity(amap, probes, tol)`` labels a batch of qubit
probes a on the Bloch action a -> T a + kappa, whose image is a state
exactly when |T a + kappa| <= 1, and ``image_of_ball`` maps the unit
circle of a section plane through that action.  The CSV encoder formats
each distinct value of a column once and gathers the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import JointStateCoeffs, product_basis
from .linalg import DEFAULT_TOL
from .maps import AffineMap, bloch_action


class InfeasibleError(Exception):
    """A required domain membership could not be satisfied."""


def compatibility(
    spec: JointStateCoeffs, probes: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified compatibility labels for probes of shape (..., n^2 - 1).

    Each probe is written into the subsystem column <F_{alpha 0}> of
    ``spec``, which it fixes whatever ``spec.free`` says there; leading
    dimensions are batched.  Returns (inside, margin, completion): margin
    is t* = max over the free coefficients c of lambda_min(X(c)), inside is
    margin >= -tol and completion (..., d, d) is the last iterate X(c).
    X0 = X(0) is one fixed matrix plus the product of the probes with the
    (F_alpha x 1)/d, built in place as the completion; with no free
    coefficient, or where lambda_min(X0) >= -tol, margin = lambda_min(X0).
    Otherwise S = X(c) - t 1 is kept positive definite by a log-det barrier,
    centred by damped Newton steps for mu = 1e-2, 1e-4, ..., 1e-14.  A step
    takes S^-1 from one matrix inverse, every A_j S^-1 (A_j = dS/dc_j or
    dS/dt) from one product with the stacked A_j, and the gradient and
    Hessian of the barrier in c and t from real GEMMs of float views
    (``_newton_terms``).  It needs no eigvalsh: since S > 0,
    lambda_min(X(c)) >= t + 1/||S^-1||_F, and ||S^-1||_F^2 is the t-t entry
    of the Hessian.  While the Newton decrement is below 1,
    Z = mu (S^-1 - S^-1 dS S^-1), dS the Newton step, is PSD with trace 1
    and no free components, so Tr[Z X0] bounds t* from above.
    A probe stops once decided: inside when t + 1/||S^-1||_F >= -tol, with
    margin = lambda_min(X(c)) from an eigvalsh of the probes so decided;
    outside (margin = upper bound) when the upper bound is below -tol;
    otherwise by the midpoint of the bounds once they are within tol/10.
    One still open after the last mu is labelled by lambda_min(X(c)).  The
    centring loop stops on a test over the whole batch, so the margin of an
    inside probe can move by about 5e-6 with the batch it is solved in.
    """
    probes = np.asarray(probes, dtype=float)
    n_axes = spec.n**2 - 1
    if probes.shape[-1:] != (n_axes,):
        raise ValueError(f"probe must have length {n_axes}, got shape {probes.shape}")
    lead = probes.shape[:-1]
    flat = probes.reshape(-1, n_axes)
    free = spec.free.copy()
    free[1:, 0] = False
    base = np.where(free, 0.0, spec.coeff)
    base[1:, 0] = 0.0  # the probes fill this column

    pb = product_basis(spec.n, spec.m)
    d = pb.dim
    # X0 = (X_fix + sum_alpha a_alpha F_alpha (x) 1) / d, built in the array that becomes the completion
    x0 = (flat @ pb.mats[1:, 0].reshape(n_axes, d * d)).reshape(-1, d, d)
    x0 += (base.reshape(-1) @ pb.mats.reshape(-1, d * d)).reshape(d, d)
    x0 /= d
    free_ops = pb.mats[free] / d
    margin = np.linalg.eigvalsh(x0)[..., 0]
    idx = np.flatnonzero(margin < -tol) if len(free_ops) else np.arange(0)  # X0 >= -tol is inside already
    if idx.size:
        _barrier_search(x0, margin, idx, free_ops, tol)
    return (margin >= -tol).reshape(lead), margin.reshape(lead), x0.reshape(lead + (d, d))


def _barrier_search(completion, margin, idx, free_ops, tol) -> None:
    """Barrier search of ``compatibility`` on the rows ``idx`` of X0 = ``completion``.

    Each decided row's margin and last iterate are written into ``margin``
    and ``completion``.
    """
    k, d = len(free_ops), free_ops.shape[-1]
    eye = np.eye(d)
    ops = np.concatenate([free_ops, -eye[None]])  # A_j = dS/dc_j, then dS/dt
    free_floats = free_ops.view(float).reshape(k, -1)
    diag = np.arange(k + 1)
    e_t = np.eye(k + 1)[k]
    x, t = completion[idx], margin[idx] - 0.1
    for mu in np.logspace(-2, -14, 7):
        if not idx.size:
            break
        for _ in range(50):  # centring takes a few steps; the cap only bounds the loop
            g0, hess = _newton_terms(np.linalg.inv(x - t[:, None, None] * eye), ops)
            lower = t + 1.0 / np.sqrt(hess[:, k, k])  # lambda_min(S) >= 1 / ||S^-1||_F, and H_tt = ||S^-1||_F^2
            # a ridge: the Hessian is singular where t* = 0 on a face
            hess[:, diag, diag] += 1e-12 * np.trace(hess, axis1=1, axis2=2)[:, None]
            grad = g0 + e_t / mu
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
            dec = np.sqrt(np.maximum((grad * step).sum(axis=1), 0.0))
            upper = np.where(dec < 1.0, t + mu * (d - (step * g0).sum(axis=1)), np.inf)

            inside = lower >= -tol
            close = upper - lower < tol / 10
            done = inside | close | (upper < -tol)
            if inside.any():  # the margin of an inside probe is lambda_min of its completion
                lower[inside] = np.linalg.eigvalsh(x[inside])[:, 0]
            margin[idx[done]] = np.where(inside, lower, np.where(close, (lower + upper) / 2, upper))[done]
            completion[idx[done]] = x[done]
            keep = ~done
            idx, x, t, step, dec = idx[keep], x[keep], t[keep], step[keep], dec[keep]
            step *= np.where(dec > 0.25, 1.0 / (1.0 + dec), 1.0)[:, None]
            x = x + (step[:, :k] @ free_floats).view(complex).reshape(-1, d, d)
            t = t + step[:, k]
            if dec.max(initial=0.0) < 0.25:
                break
    if idx.size:
        margin[idx] = np.linalg.eigvalsh(x)[:, 0]
        completion[idx] = x


def _newton_terms(s_inv: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g0, H) with g0_j = Tr[S^-1 A_j] and H_jl = Tr[S^-1 A_j S^-1 A_l], batched over S^-1.

    Both are real since S^-1 and the A_j are Hermitian, so each is a real
    GEMM of float views: g0_j = <A_j, S^-1>, and with Q_j = A_j S^-1 from
    one product of the stacked A_j with S^-1, H_jl = Tr[Q_j Q_l] =
    <Q_j, Q_l^H>.  The batch goes through in chunks of b / (2 (k+1)) rows,
    so that Q and Q^H together hold no more than S^-1 does.
    """
    b, d = s_inv.shape[:2]
    n_ops = len(ops)
    g0 = s_inv.view(float).reshape(b, -1) @ ops.view(float).reshape(n_ops, -1).T
    hess = np.empty((b, n_ops, n_ops))
    chunk = max(1, b // (2 * n_ops))
    for lo in range(0, b, chunk):
        q = (ops.reshape(-1, d) @ s_inv[lo : lo + chunk]).reshape(-1, n_ops, d, d)
        q_h = np.conjugate(q.swapaxes(2, 3), out=np.empty_like(q))
        rows = (len(q), n_ops, -1)
        hess[lo : lo + chunk] = q.view(float).reshape(rows) @ q_h.view(float).reshape(rows).transpose(0, 2, 1)
    return g0, hess


def positivity(amap: AffineMap, probes: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Positivity-domain label per qubit probe a of shape (..., 3).

    The image of (1 + a.sigma)/2 has smallest eigenvalue (1 - |T a + kappa|)/2
    by ``bloch_action``; it is inside where that is >= -tol (domains are
    closed).  Raises ValueError for n != 2 and for probes with (1 - |a|)/2 < -tol.
    """
    if amap.n != 2:
        raise ValueError("positivity is implemented for qubit maps")
    probes = np.asarray(probes, dtype=float)
    if probes.shape[-1:] != (3,):
        raise ValueError("probe must have length 3")
    if ((1 - np.linalg.norm(probes, axis=-1)) / 2 < -tol).any():
        raise ValueError("probe does not define a positive state")
    t_mat, kappa = bloch_action(amap)
    return (1 - np.linalg.norm(probes @ t_mat.T + kappa, axis=-1)) / 2 >= -tol


SECTION_AXES = {"p1p2": (0, 1), "p1p3": (0, 2), "p2p3": (1, 2)}


def _section_axes(section: str) -> tuple[int, int]:
    """Coordinate indices of a section plane such as "p1p2"."""
    axes = SECTION_AXES.get(section)
    if axes is None:
        raise ValueError(f"unknown section {section!r}; expected one of {sorted(SECTION_AXES)}")
    return axes


def _section_grid(section: str, resolution: int) -> np.ndarray:
    axes = _section_axes(section)
    line = np.linspace(-1.0, 1.0, resolution)
    x, y = np.meshgrid(line, line, indexing="ij")
    disc = x * x + y * y <= 1.0 + 1e-12
    probes = np.zeros((int(disc.sum()), 3))
    probes[:, axes[0]], probes[:, axes[1]] = x[disc], y[disc]
    return probes


def image_of_ball(amap: AffineMap, section: str, resolution: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Image of the unit circle of a section plane under the Bloch action.

    Returns (inputs, outputs), each (resolution, 3); qubit maps only.
    """
    if amap.n != 2:
        raise ValueError("image_of_ball requires a qubit map")
    if resolution < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    t_mat, kappa = bloch_action(amap)
    theta = 2 * np.pi * np.arange(resolution) / resolution
    inputs = np.zeros((resolution, 3))
    inputs[:, _section_axes(section)] = np.column_stack([np.cos(theta), np.sin(theta)])
    return inputs, inputs @ t_mat.T + kappa


def _fibonacci_shells(resolution: int) -> np.ndarray:
    """Deterministic ball grid: Fibonacci spirals on concentric shells."""
    shells = max(1, resolution // 4)
    i = np.arange(resolution)
    z = 1.0 - 2.0 * (i + 0.5) / resolution
    radial = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i  # golden-angle spiral, shared by every shell
    radii = np.arange(1, shells + 1) / shells
    pts = [np.column_stack([r * radial * np.cos(theta), r * radial * np.sin(theta), r * z]) for r in radii]
    return np.vstack([np.zeros((1, 3)), *pts])


def _random_ball(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        cand = rng.uniform(-1.0, 1.0, size=(count, 3))
        pts.extend(cand[(cand**2).sum(axis=1) <= 1.0])
    return np.array(pts[:count])


def _format_column(column: np.ndarray, fmt: str) -> list:
    """``fmt % x`` per entry of a float64 or int64 column, once per distinct bit pattern (-0.0 apart from 0.0)."""
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([fmt % x for x in keys.view(column.dtype).tolist()], dtype=object)[inverse].tolist()


def _write_csv(path, header: str, values: np.ndarray, labels=()) -> None:
    """Write ``header``, then per row the ``values`` as %.9g and the ``labels`` columns as %d, in one write."""
    columns = [_format_column(c, "%.9g") for c in np.asarray(values, dtype=float).T]
    columns += [_format_column(np.asarray(c).astype(np.int64), "%d") for c in labels]
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


@dataclass
class DomainSample:
    """Labeled probe cloud: compat in {1, 0} (in/out), pos in {1, 0}.

    ``seed`` is None on a grid, which draws no random numbers, and
    ``resolution`` is None on a random cloud sized by a count.
    """

    probes: np.ndarray
    compat: np.ndarray
    pos: np.ndarray
    section: str | None
    region: str
    resolution: int | None
    seed: int | None
    meta: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        header = ",".join(f"a{i + 1}" for i in range(self.probes.shape[1])) + ",compat,pos"
        _write_csv(path, header, self.probes, (self.compat, self.pos))

    def sidecar_dict(self, spec: JointStateCoeffs, map_ref: str | None = None) -> dict:
        return {
            "spec": spec.to_json_dict(),
            "map": map_ref,
            "seed": self.seed,
            "resolution": self.resolution,
            "section": self.section,
            "region": self.region,
            **self.meta,
        }


def sample_domain(
    spec: JointStateCoeffs,
    amap: AffineMap | None = None,
    region: str = "grid",
    section: str | None = None,
    resolution: int = 101,
    count: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> DomainSample:
    """Label probes in the unit ball with compatibility and positivity flags.

    Grid sections are uniform in the chosen coordinate plane; volume grids
    use Fibonacci-spiral shells; random mode draws uniformly from the ball
    with the given seed.  One ``compatibility`` call labels every probe,
    whether or not the spec has free coefficients, and one ``positivity``
    call fills the pos column; without a map the pos column is 1.
    """
    if spec.n != 2:
        raise ValueError("domain sampling is implemented for qubit subsystems")
    if resolution < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if region == "grid":
        if count is not None:
            raise ValueError("a count applies to random regions only")
        probes = _section_grid(section, resolution) if section else _fibonacci_shells(resolution)
    elif region == "random":
        if section:
            raise ValueError("a section applies to grid regions only")
        n_pts = count if count is not None else resolution**2
        if n_pts <= 0:
            raise ValueError("count must be positive")
        probes = _random_ball(n_pts, seed)
    else:
        raise ValueError(f"region must be 'grid' or 'random', got {region!r}")
    if probes.size == 0:
        raise ValueError("no probes generated")

    compat = compatibility(spec, probes, tol)[0].astype(int)
    pos = positivity(amap, probes, tol).astype(int) if amap is not None else np.ones(len(probes), dtype=int)

    return DomainSample(
        probes=probes,
        compat=compat,
        pos=pos,
        section=section,
        region=region,
        resolution=None if count is not None else resolution,
        seed=seed if region == "random" else None,
    )
