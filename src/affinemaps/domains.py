"""Compatibility and positivity domain membership and sampling.

``compatibility`` decides which subsystem Bloch-type vectors extend to a
positive joint state with a spec's fixed coefficients, each label with a
certificate, for specs with and without free coefficients.  ``positivity``
labels the qubit probes whose image under an affine map is a state,
``image_of_ball`` maps a section's unit circle, and ``sample_domain`` labels
a probe grid or random cloud with both and writes it as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import JointStateCoeffs, product_basis
from .linalg import DEFAULT_TOL, combine, dagger, trace_pairing
from .maps import AffineMap, bloch_action


SCREEN_CHUNK = 1024  # rows per chunk of the dual screen and of eigvalsh, so their copies have a fixed size
DUAL_ROWS = 64  # seed rows of the dual screen; below 8 DUAL_ROWS (the measured break-even) a batch is all seed


class InfeasibleError(Exception):
    """A required domain membership could not be satisfied."""


def compatibility(
    spec: JointStateCoeffs, probes: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified compatibility labels for probes of shape (..., n^2 - 1).

    Each probe is written into the subsystem column <F_{alpha 0}> of
    ``spec``, which it fixes whatever ``spec.free`` says there; leading
    dimensions are batched.  Returns (inside, margin, completion) for
    t* = max over the free coefficients c of lambda_min(X(c)), where X(0) =
    X0(a) = P_0 + sum_alpha a_alpha P_alpha for the one stack P = [X_fix,
    F_alpha (x) 1]/d (``probe_ops``) that the screens share.  Each label is
    a certificate.  Inside is margin >= -tol, the eigvalsh lambda_min of the
    completion (..., d, d), the last X(c), or a certified lower bound on it
    (``_seed_step``).  Outside, margin is an upper bound on t* below -tol:
    from a dual Z (``_barrier_search``; ``_dual_screen``, whose rows keep
    X0), or t* = lambda_min(X0) with no free coefficient.  So a label
    depends on its probe, not its batch, up to eigvalsh rounding at -tol;
    only ``_barrier_search``'s fallback labels outside without a
    certificate.  Margins and completions depend on the batch: inside
    margins moved by up to 3.4e-2 between whole, shuffled and 511-row
    batches of fig1's partial p1p2 section at 41, 101 and 201.  A batch of
    b >= 8 DUAL_ROWS probes is solved in order: a seed of every
    (b // DUAL_ROWS)-th row, ``_dual_screen`` by the seed's outside duals,
    ``_seed_step`` by its inside rows, and a solve of the rows left open.
    A smaller batch is all seed.
    """
    probes = np.asarray(probes, dtype=float)
    n_axes = spec.n**2 - 1
    if probes.shape[-1:] != (n_axes,):
        raise ValueError(f"probe must have length {n_axes}, got shape {probes.shape}")
    lead = probes.shape[:-1]
    flat = probes.reshape(np.prod(lead, dtype=int), n_axes)  # n = 1 has no axes, so the rows cannot be inferred
    free = spec.free.copy()
    free[1:, 0] = False
    base = np.where(free, 0.0, spec.coeff)
    base[1:, 0] = 0.0  # the probes fill this column

    pb = product_basis(spec.n, spec.m)
    d = pb.dim
    probe_ops = np.concatenate([combine(base.reshape(-1), pb.mats.reshape(-1, d, d))[None], pb.mats[1:, 0]]) / d
    x0 = combine(flat, probe_ops[1:])  # X0(a) = probe_ops[0] + a . probe_ops[1:], built in the array that becomes the completion
    x0 += probe_ops[0]
    free_ops = pb.mats[free] / d
    margin = np.empty(len(flat))
    stride = len(flat) // DUAL_ROWS if len(flat) >= 8 * DUAL_ROWS else 1
    seeds = np.arange(0, len(flat), stride)
    duals = _solve_rows(x0, margin, seeds, free_ops, tol, stride > 1)
    if stride > 1:
        left = np.ones(len(flat), dtype=bool)
        left[seeds] = False
        rho = _rounding(flat, probe_ops)
        if len(duals):
            _dual_screen(flat, left, margin, duals, probe_ops, free_ops, rho, tol)
        warm = seeds[margin[seeds] >= -tol]
        if warm.size:  # combine's bits do not depend on the batch, so X0 of the seeds is rebuilt exactly
            _seed_step(flat, left, margin, x0, warm, x0[warm] - (combine(flat[warm], probe_ops[1:]) + probe_ops[0]), rho, np.sqrt(spec.n - 1) / d, tol)
        _solve_rows(x0, margin, np.flatnonzero(left), free_ops, tol, False)
    return (margin >= -tol).reshape(lead), margin.reshape(lead), x0.reshape(lead + (d, d))


def _solve_rows(x0, margin, rows, free_ops, tol, duals: bool) -> list:
    """Margins of ``rows``: lambda_min of their ``x0`` per SCREEN_CHUNK rows, then ``_barrier_search`` on those below -tol.

    ``rows`` are the seed rows, then the rows the screens left open (a row a
    screen certifies takes no eigvalsh).  Returns the duals Z of the rows
    decided outside, as a list of stacks: the search's, or with no free
    coefficient and ``duals``, Z = v v^H for the unit lowest eigenvector v of
    X0 from one eigh, since lambda_min(X0) <= v^H X0 v.
    """
    for lo in range(0, len(rows), SCREEN_CHUNK):
        r = rows[lo : lo + SCREEN_CHUNK]
        margin[r] = np.linalg.eigvalsh(x0[r])[:, 0]
    below = rows[margin[rows] < -tol]
    if len(free_ops):
        return _barrier_search(x0, margin, below, free_ops, tol)
    if not (duals and below.size):
        return []
    v = np.linalg.eigh(x0[below])[1][:, :, 0]
    return [v[:, :, None] * v[:, None].conj()]


def _barrier_search(completion, margin, idx, free_ops, tol) -> list:
    """Barrier search of ``compatibility`` on the rows ``idx`` of X0 = ``completion``.

    S = X(c) - t 1 is kept positive definite by a log-det barrier (Boyd &
    Vandenberghe, Convex Optimization, ch. 11), centred by damped Newton
    steps for mu = 1e-2, 1e-4, ..., 1e-14; a step is one inverse and the
    GEMMs of ``_newton_terms``, with no eigvalsh.  Since S > 0,
    lambda_min(X(c)) >= t + 1/||S^-1||_F, and ||S^-1||_F^2 is the t-t entry
    of the Hessian.  While the Newton decrement is below 1,
    Z = mu (S^-1 - S^-1 dS S^-1), dS the Newton step, is PSD with trace 1
    and no free components, so Tr[Z X0] bounds t* from above.  A row is
    decided inside once the lower bound reaches -tol, with margin
    lambda_min(X(c)) from eigvalsh, and outside (margin = upper bound) once
    the upper bound is below -tol.  The fallback: a row still open after the
    last mu takes lambda_min(X(c)), which certifies no outside label.
    Margins and last iterates are written into ``margin`` and
    ``completion``; returns the Z of the rows decided outside, one stack per step.
    """
    k, d = len(free_ops), free_ops.shape[-1]
    eye = np.eye(d)
    ops = np.concatenate([free_ops, -eye[None]])  # A_j = dS/dc_j, then dS/dt
    diag = np.arange(k + 1)
    e_t = np.eye(k + 1)[k]
    x, t = completion[idx], margin[idx] - 0.1
    duals = []
    for mu in np.logspace(-2, -14, 7):
        if not idx.size:
            break
        for _ in range(50):  # centring takes a few steps; the cap only bounds the loop
            s_inv = np.linalg.inv(x - t[:, None, None] * eye)
            g0, hess = _newton_terms(s_inv, ops)
            lower = t + 1.0 / np.sqrt(hess[:, k, k])  # lambda_min(S) >= 1 / ||S^-1||_F, and H_tt = ||S^-1||_F^2
            # a ridge: the Hessian is singular where t* = 0 on a face
            hess[:, diag, diag] += 1e-12 * np.trace(hess, axis1=1, axis2=2)[:, None]
            grad = g0 + e_t / mu
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
            dec = np.sqrt(np.maximum((grad * step).sum(axis=1), 0.0))
            upper = np.where(dec < 1.0, t + mu * (d - (step * g0).sum(axis=1)), np.inf)

            inside = lower >= -tol
            out = upper < -tol
            done = inside | out
            if done.any():
                if out.any():  # upper = Tr[Z X(c)]
                    s_out = s_inv[out]
                    duals.append(mu * (s_out - s_out @ combine(step[out], ops) @ s_out))
                if inside.any():  # the margin of an inside probe is lambda_min of its completion
                    lower[inside] = np.linalg.eigvalsh(x[inside])[:, 0]
                margin[idx[done]] = np.where(inside, lower, upper)[done]
                completion[idx[done]] = x[done]
                keep = ~done
                idx, x, t, step, dec = idx[keep], x[keep], t[keep], step[keep], dec[keep]
            step *= np.where(dec > 0.25, 1.0 / (1.0 + dec), 1.0)[:, None]
            x = x + combine(step[:, :k], free_ops)
            t = t + step[:, k]
            if dec.max(initial=0.0) < 0.25:
                break
    if idx.size:
        margin[idx] = np.linalg.eigvalsh(x)[:, 0]
        completion[idx] = x
    return duals


def _dual_screen(flat, left, margin, duals, probe_ops, free_ops, rho, tol) -> None:
    """Certify rows of the probes ``flat`` open in ``left`` outside by the stacks ``duals`` of Z, and clear them in ``left``.

    Tr[Z X0(a)] is affine in a through ``probe_ops`` (X_fix / d, then the
    F_alpha0 / d), and ``free_ops`` holds the free F_j / d.  Z is only nearly
    dual feasible, so the bound is weak duality (Boyd & Vandenberghe, Convex
    Optimization, ch. 5) made robust.  Take delta >= max(0, -lambda_min(Z)),
    tau = Tr Z + d delta and E0 = sum_j ||F_j||_op |Tr[Z F_j]| / d.  Pairing
    Z + delta 1 >= 0 with X(c*) - t* 1 >= 0, and using Tr X = 1, gives
    t* tau <= Tr[Z X0(a)] + delta + sum_j c*_j Tr[Z F_j] / d.  For t* < 0,
    X(c*) + |t*| 1 >= 0 has trace 1 + d|t*|, so |c*_j| = |Tr[F_j X(c*)]| <=
    ||F_j||_op (1 + 2 d |t*|); for t* >= 0 the sum is at most E0, so the
    numerator below is at least t* tau >= 0.  Hence t* <= (Tr[Z X0(a)] +
    delta + E0 + rho ||Z||_F) / (tau + 2 d E0) whenever the right side is
    negative, where ``rho`` (``_rounding``) covers the rounding of the affine
    evaluation.  With no free coefficient E0 = 0, t* = lambda_min(X0), and
    rho is also well above the rounding of eigvalsh (of order d eps ||X0||).
    A row is screened when its least bound is below -tol, and gets it as
    margin; the search, which labels inside only on a lower bound on t* of
    at least -tol, would label it outside too.  The least bound is taken in
    two stages, so that most rows meet only a few duals: over a greedy cover
    (the duals that screen the most seed rows, closed in ``left``, not yet
    screened), then over every dual on the rows the cover leaves open.
    """
    d, eps = probe_ops.shape[-1], np.finfo(float).eps
    z = np.concatenate(duals)
    z = (z + dagger(z)) / 2
    z_norm = np.linalg.norm(z, axis=(1, 2))
    delta = np.maximum(0.0, -np.linalg.eigvalsh(z)[:, 0]) + 4 * d * eps * z_norm
    e0 = d * np.abs(trace_pairing(free_ops, z)) @ np.linalg.norm(free_ops, 2, axis=(1, 2))
    w = trace_pairing(probe_ops, z)  # Tr[Z X0(a)] = w_0 + sum_alpha a_alpha w_alpha
    den = np.trace(z, axis1=1, axis2=2).real + d * delta + 2 * d * e0
    coef, off = w[:, 1:] / den[:, None], ((w[:, 0] + delta + e0 + rho * z_norm) / den)[:, None]  # Z_j bounds t* by coef_j . a + off_j
    hit = coef @ flat[~left].T + off < -tol
    cover = []
    while hit.any():
        cover.append(int(hit.sum(axis=1).argmax()))
        hit = hit[:, ~hit[cover[-1]]]
    cover_coef, cover_off = coef[cover], off[cover]
    for lo in range(0, len(flat), SCREEN_CHUNK):  # duals by rows: the least bound is a min along the rows, not per short row
        a, m, todo = flat[lo : lo + SCREEN_CHUNK].T, margin[lo : lo + SCREEN_CHUNK], left[lo : lo + SCREEN_CHUNK]
        bounds = cover_coef @ a
        bounds += cover_off
        bound = bounds.min(axis=0, initial=np.inf)
        again = ~(bound < -tol)
        bounds = coef @ a[:, again]
        bounds += off
        bound[again] = bounds.min(axis=0, initial=np.inf)
        hit = todo & (bound < -tol)  # NaN is never screened
        m[hit] = bound[hit]
        todo[hit] = False


def _rounding(flat, probe_ops) -> float:
    """rho = 16 (n^2 + d^2) eps (||X_fix||_F + max|a| sum_alpha ||F_alpha0||_F) / d, the screens' rounding allowance on X0(a)."""
    norms, d = np.linalg.norm(probe_ops, axis=(1, 2)), probe_ops.shape[-1]
    return 16 * (len(probe_ops) + d * d) * np.finfo(float).eps * (norms[0] + np.maximum(flat.max(initial=0.0), -flat.min(initial=0.0)) * norms[1:].sum())


def _seed_step(flat, left, margin, x0, seeds, free, rho, c, tol) -> None:
    """Certify rows of ``flat`` open in ``left`` inside by the inside rows ``seeds``, clearing them in ``left``.

    ``free`` holds the seeds' free parts X_s - X0(a_s), X_s the completion
    in ``x0`` (all zero with no free coefficient).  ``build_basis`` scales
    Tr[F_alpha F_beta] = n delta_alpha beta, so A = sum_alpha u_alpha
    F_alpha is traceless with Tr A^2 = n |u|^2, and its largest |eigenvalue|
    x has x^2 + x^2 / (n - 1) <= n |u|^2: ||A (x) 1||_op <= sqrt(n - 1) |u|.
    As X0(a) - X0(a_s) = sum_alpha (a - a_s)_alpha F_alpha (x) 1 / d, Weyl's
    inequality (Horn & Johnson, Matrix Analysis, Thm 4.3.1) gives
    lambda_min(X0(a) + X_s - X0(a_s)) >= lambda_s - c |a - a_s|, lambda_s the
    seed's margin (eigvalsh of X_s), ``c`` = sqrt(n - 1) / d.  That matrix
    keeps the spec's fixed coefficients, so each open row takes it, from its
    seed with the best bound, as completion and as the search's start (no
    gather when every free part is zero).  Less 4 d eps ||X_s||_F for the
    seed's eigvalsh, 4 (d + 1) eps ||X_s - X0(a_s)||_F for the free part's
    subtraction, addition and share of the row's eigvalsh, and ``rho``
    (``_rounding``) for the rounding of X0 at both probes, of the basis, of
    the bound and of the rest of the row's eigvalsh, the best bound is a
    lower bound on the completion's eigvalsh lambda_min.  A row is certified
    when it is at least -tol, with it as margin; NaN never is.  |a - a_s| is
    summed from the differences, not expanded (|a|^2 - 2 a.a_s + |a_s|^2 can
    lose about 1e-8).  Per SCREEN_CHUNK rows the bounds by every seed take
    two (seeds, SCREEN_CHUNK) arrays, at most 65 x 1024 floats each.
    """
    d, eps = x0.shape[-1], np.finfo(float).eps
    lam = margin[seeds] - 4 * d * eps * np.linalg.norm(x0[seeds], axis=(1, 2)) - rho - 4 * (d + 1) * eps * np.linalg.norm(free, axis=(1, 2))
    rows = np.flatnonzero(left)
    for lo in range(0, len(rows), SCREEN_CHUNK):
        r = rows[lo : lo + SCREEN_CHUNK]
        bounds = np.zeros((len(seeds), len(r)))
        for a_j, s_j in zip(flat[r].T, flat[seeds].T):
            bounds += np.square(a_j - s_j[:, None])
        np.subtract(lam[:, None], c * np.sqrt(bounds, out=bounds), out=bounds)  # lambda_s - c |a - a_s| less the allowances
        if free.any():
            x0[r] += free[bounds.argmax(axis=0)]
        bound = bounds.max(axis=0)
        hit = bound >= -tol
        margin[r[hit]], left[r[hit]] = bound[hit], False


def _newton_terms(s_inv: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g0, H) with g0_j = Tr[S^-1 A_j] and H_jl = Tr[S^-1 A_j S^-1 A_l], batched over S^-1.

    Both are real since S^-1 and the A_j are Hermitian, so each is a real
    GEMM of float views: g0_j = <A_j, S^-1>, and with Q_j = A_j S^-1 from
    one product of the stacked A_j with S^-1, H_jl = Tr[Q_j Q_l] =
    <Q_j, Q_l^H>.  The batch goes through in chunks of SCREEN_CHUNK / (k+1)
    rows, so that Q and Q^H each hold at most SCREEN_CHUNK matrices.
    """
    b, d = s_inv.shape[:2]
    n_ops = len(ops)
    g0 = s_inv.view(float).reshape(b, -1) @ ops.view(float).reshape(n_ops, -1).T
    hess = np.empty((b, n_ops, n_ops))
    chunk = max(1, SCREEN_CHUNK // n_ops)
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
    closed).  Raises ValueError for n != 2 (by ``bloch_action``) and for
    probes without (1 - |a|)/2 >= -tol, non-finite ones included.
    """
    t_mat, kappa = bloch_action(amap)
    probes = np.asarray(probes, dtype=float)
    if probes.shape[-1:] != (3,):
        raise ValueError("probe must have length 3")
    if not ((1 - np.linalg.norm(probes, axis=-1)) / 2 >= -tol).all():
        raise ValueError("probe does not define a positive state")
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
    t_mat, kappa = bloch_action(amap)
    if resolution < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    theta = 2 * np.pi * np.arange(resolution) / resolution
    inputs = np.zeros((resolution, 3))
    inputs[:, _section_axes(section)] = np.column_stack([np.cos(theta), np.sin(theta)])
    return inputs, inputs @ t_mat.T + kappa


def _fibonacci_shells(resolution: int) -> np.ndarray:
    """Deterministic ball grid: Fibonacci spirals on concentric shells."""
    shells = max(1, resolution // 4)
    pts = np.zeros((1 + shells * resolution, 3))  # the origin, then the shells; an impossible size fails here, before any work
    i = np.arange(resolution)
    z = 1.0 - 2.0 * (i + 0.5) / resolution
    radial = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i  # golden-angle spiral, shared by every shell
    cos, sin = np.cos(theta), np.sin(theta)
    for k, r in enumerate(np.arange(1, shells + 1) / shells):
        pts[1 + k * resolution : 1 + (k + 1) * resolution] = np.column_stack([r * radial * cos, r * radial * sin, r * z])
    return pts


def _random_ball(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 3))
    while len(pts) < count:
        cand = rng.uniform(-1.0, 1.0, size=(count, 3))
        pts = np.concatenate([pts, cand[(cand**2).sum(axis=1) <= 1.0]])
    return pts[:count]


def _format_column(column: np.ndarray, end: bytes) -> np.ndarray:
    """``b"%.9g" % x + end`` per entry of a float64 column as an S array, formatted once per distinct bit pattern."""
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)  # -0.0 apart from 0.0
    return np.array([b"%.9g%s" % (x, end) for x in keys.view(float).tolist()])[inverse]


def write_csv(path, header: str, values: np.ndarray, labels=()) -> None:
    """Write ``header``, then per row the ``values`` as %.9g and the 0/1 ``labels`` as digits, in one write."""
    values = np.asarray(values, dtype=float).T
    ends = [b","] * (len(values) + len(labels) - 1) + [b"\n"]
    columns = [_format_column(c, end) for c, end in zip(values, ends)]
    columns += [np.array([b"0" + end, b"1" + end])[np.asarray(c, dtype=np.intp)] for c, end in zip(labels, ends[len(values) :])]
    block = np.hstack([c[:, None].view(np.uint8) for c in columns])  # the rows' bytes, with the S arrays' zero padding
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n" + block[block != 0].tobytes())


@dataclass
class DomainSample:
    """Labeled probe cloud: compat in {1, 0} (in/out), pos in {1, 0}."""

    probes: np.ndarray
    compat: np.ndarray
    pos: np.ndarray

    def write_csv(self, path) -> None:
        header = ",".join(f"a{i + 1}" for i in range(self.probes.shape[1])) + ",compat,pos"
        write_csv(path, header, self.probes, (self.compat, self.pos))


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

    return DomainSample(probes, compat, pos)
