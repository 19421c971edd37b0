import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinemaps.basis import JointStateCoeffs, expand_state, probe_state, product_basis, reconstruct_state, traceless_operator
from affinemaps.cli import _write_pairs_csv, fig1_spec, fig2_spec
from affinemaps.linalg import combine, random_density, random_unitary
from affinemaps import domains, tomography
from affinemaps.maps import AffineMap, apply_L, extract_G, extract_map, map_from_unitary
from affinemaps.domains import (
    DUAL_ROWS,
    SCREEN_CHUNK,
    SECTION_AXES,
    DomainSample,
    _fibonacci_shells,
    _newton_terms,
    _section_grid,
    compatibility,
    image_of_ball,
    positivity,
    sample_domain,
)
from affinemaps.tomography import design_probes
from affinemaps.qubit2 import (
    I2,
    SIGMA,
    IntHamParams,
    LorentzParams,
    Rotation,
    int_ham_map,
    lorentz_unitary,
)

SQ3 = 1.0 / np.sqrt(3.0)
AXIS_Z = (0.0, 0.0, 1.0)
IDENTITY_ROT = Rotation(axis=(0.0, 0.0, 0.0), angle=0.0)


def two_coefficient_spec(x=SQ3):
    """<x1> = <s3 x1> = x, everything else fixed at zero."""
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[0, 1] = x
    spec.coeff[3, 1] = x
    return spec


def at_probe(spec, probe):
    """A copy of a spec whose probe column <F_{alpha 0}> is fixed already, set to ``probe``."""
    out = dataclasses.replace(spec)
    out.coeff[1:, 0] = probe
    return out


def sphere_inequalities(probe, x=SQ3):
    plus = probe[0] ** 2 + probe[1] ** 2 + (probe[2] + x) ** 2 <= (1 + x) ** 2
    minus = probe[0] ** 2 + probe[1] ** 2 + (probe[2] - x) ** 2 <= (1 - x) ** 2
    return plus and minus


# ---------------------------------------------------------------------------
# full compatibility
# ---------------------------------------------------------------------------
def test_compatible_full_uncorrelated_ball(rng):
    spec = JointStateCoeffs.blank(2, 2)
    probes = rng.uniform(-1, 1, size=(50, 3))
    expected = np.linalg.norm(probes, axis=1) <= 1.0
    np.testing.assert_array_equal(compatibility(spec, probes)[0], expected)


def test_compatible_full_origin_excluded():
    assert not compatibility(two_coefficient_spec(), np.zeros(3))[0]


def test_compatible_full_small_sphere_center():
    assert compatibility(two_coefficient_spec(), np.array([0.0, 0.0, SQ3]))[0]


def test_compatible_full_matches_sphere_geometry(rng):
    probes = rng.uniform(-1, 1, size=(2000, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1]
    full = compatibility(two_coefficient_spec(), probes)[0]
    disagreements = sum(f != sphere_inequalities(p) for f, p in zip(full, probes))
    assert disagreements == 0


def test_compatible_full_convexity(rng):
    # sampled feasible pairs have feasible midpoints
    spec = two_coefficient_spec()
    probes = rng.uniform(-1, 1, size=(500, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1]
    feasible = probes[compatibility(spec, probes)[0]]
    assert len(feasible) >= 2
    pairs = len(feasible) // 2
    mids = 0.5 * (feasible[0 : 2 * pairs : 2] + feasible[1 : 2 * pairs : 2])
    assert compatibility(spec, mids)[0].all()


@settings(max_examples=40)
@given(probes=st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * 3), min_size=1, max_size=50))
def test_fig2_margin_is_exact(probes):
    # the fig2 state splits into the sigma_1 = +-1 blocks of R:
    # (1/4)((1 +- x) 1 + (a +- x e3).sigma), so lambda_min has a closed form
    a = np.array(probes)
    e3 = np.array([0.0, 0.0, SQ3])
    exact = np.minimum(1 - SQ3 - np.linalg.norm(a - e3, axis=1), 1 + SQ3 - np.linalg.norm(a + e3, axis=1)) / 4
    inside, margin, completion = compatibility(fig2_spec(), a)
    np.testing.assert_allclose(margin, exact, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(inside, margin >= -1e-9)
    assert completion.shape == (len(a), 4, 4)


# ---------------------------------------------------------------------------
# partial compatibility (barrier solver)
# ---------------------------------------------------------------------------
def all_free_spec():
    spec = JointStateCoeffs.blank(2, 2)
    spec.free[:, :] = True
    spec.free[0, 0] = False
    return spec


def test_partial_feasible_with_witness():
    spec = all_free_spec()
    spec.coeff[1, 1] = 1.0
    spec.free[1, 1] = False
    inside, _, witness = compatibility(spec, np.zeros(3))
    assert inside
    assert np.linalg.eigvalsh(witness)[..., 0] >= -1e-9
    assert abs(np.trace(np.kron(SIGMA[0], SIGMA[0]) @ witness).real - 1.0) < 1e-8
    assert abs(np.trace(witness).real - 1.0) < 1e-8


def test_partial_infeasible_overweight_pair():
    spec = all_free_spec()
    spec.coeff[0, 1] = 0.9
    spec.free[0, 1] = False
    spec.coeff[3, 1] = 0.9
    spec.free[3, 1] = False
    assert not compatibility(spec, np.zeros(3))[0]


def test_partial_degenerates_to_full(rng, pb22):
    # free bits on the probe column are overridden by the probe: no search
    # is left, and the label is the sign of lambda_min of the fixed state
    spec = two_coefficient_spec()
    masked = dataclasses.replace(spec)
    masked.free[1:, 0] = True
    probes = rng.uniform(-1, 1, size=(20, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1]
    expected = [np.linalg.eigvalsh(reconstruct_state(at_probe(spec, p)))[0] >= -1e-9 for p in probes]
    np.testing.assert_array_equal(compatibility(spec, probes)[0], expected)
    np.testing.assert_array_equal(compatibility(masked, probes)[0], expected)


def test_partial_witness_reproduces_fixed_coefficients(pb22, rng):
    # feasible witnesses are PSD and match every fixed coefficient to 1e-8
    spec = JointStateCoeffs.blank(2, 2)
    spec.free[1:, 1:] = True
    spec.coeff[0, 1] = 0.4
    probes = rng.uniform(-0.4, 0.4, size=(10, 3))
    inside, _, witnesses = compatibility(spec, probes)
    assert inside.all()
    for probe, witness in zip(probes, witnesses):
        sub = at_probe(spec, probe)
        back = expand_state(witness, pb22)
        fixed = ~sub.free
        np.testing.assert_allclose(back.coeff[fixed], sub.coeff[fixed], atol=1e-8)


def test_partial_monotone_relaxation(rng):
    # freeing coefficients can only enlarge the feasible set
    pb = product_basis(2, 2)
    for _ in range(10):
        full_spec = expand_state(random_density(4, rng), pb)
        probe = full_spec.coeff[1:, 0]
        assert compatibility(full_spec, probe)[0]
        relaxed = dataclasses.replace(full_spec)
        relaxed.free[1, 1] = relaxed.free[2, 2] = relaxed.free[3, 3] = True
        assert compatibility(relaxed, probe)[0]


def test_batched_labels_match_probe_by_probe():
    # the barrier's stopping test sees the whole batch, so margins of inside
    # probes move with the batch; the labels must not
    spec = fig1_spec(True)
    probes = _section_grid("p1p2", 41)
    single = [compatibility(spec, p)[0] for p in probes]
    batched = compatibility(spec, probes)
    np.testing.assert_array_equal(batched[0], single)
    nested = compatibility(spec, probes.reshape(3, -1, 3))  # 1257 = 3 x 419 probes
    for flat, lead in zip(batched, nested):
        assert lead.shape[:2] == (3, 419)
        np.testing.assert_array_equal(lead.reshape(flat.shape), flat)


@pytest.mark.parametrize(
    "radius, expected",
    [(0.5, "feasible"), (1 + 2e-9, "feasible"), (1 + 6e-9, "infeasible"), (1.5, "infeasible")],
)
def test_partial_margin_decided_at_tolerance(rng, radius, expected):
    # with only the marginal fixed t* = (1 - |a|)/4 exactly: Pi >= t 1 forces
    # Tr_R Pi >= 2t 1, and rho_a (x) 1/2 attains it; the middle radii put t*
    # at -tol/2 and -3 tol/2
    direction = rng.normal(size=3)
    inside = compatibility(all_free_spec(), radius * direction / np.linalg.norm(direction))[0]
    assert inside == (expected == "feasible")


def test_partial_compatibility_prefilter_marginal():
    assert not compatibility(all_free_spec(), np.array([0.9, 0.9, 0.9]))[0]


def random_spec(seed, mask):
    """Coefficients of a random full-rank joint state; bit j of mask frees entry j."""
    spec = expand_state(random_density(4, np.random.default_rng(seed)), product_basis(2, 2))
    spec.free = ((mask >> np.arange(16)) & 1).astype(bool).reshape(4, 4)
    return spec


free_masks = st.integers(0, 2**16 - 1).map(lambda m: m & ~1)  # (0, 0) stays fixed


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), mask=free_masks)
def test_partial_freeing_keeps_state_feasible(pb22, seed, mask):
    spec = random_spec(seed, mask)
    inside, _, witness = compatibility(spec, spec.coeff[1:, 0])
    assert inside
    assert np.linalg.eigvalsh(witness)[..., 0] >= -1e-9
    fixed = ~spec.free
    fixed[1:, 0] = True  # the probe column is always fixed
    np.testing.assert_allclose(expand_state(witness, pb22).coeff[fixed], spec.coeff[fixed], atol=1e-8)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    mask=free_masks,
    direction=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    radius=st.floats(1.001, 3.0),
)
def test_probe_outside_unit_ball_is_infeasible(seed, mask, direction, radius):
    # the marginal of a joint state with lambda_min t has lambda_min >= 2t, and
    # (1 - |a|)/2 <= -5e-4 here, far below -2 tol
    probe = radius * np.array(direction) / np.linalg.norm(direction)
    assert not compatibility(random_spec(seed, mask), probe)[0]


ball_points = st.tuples(*[st.floats(-1, 1)] * 3).map(lambda v: np.array(v) / max(1.0, np.linalg.norm(v)))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), mask=free_masks, probes=st.lists(ball_points, min_size=1, max_size=8))
def test_batch_certificates_hold_for_every_probe(pb22, seed, mask, probes):
    spec, probes, tol = random_spec(seed, mask), np.array(probes), 1e-9
    inside, margin, completion = compatibility(spec, probes, tol)
    np.testing.assert_array_equal(inside, margin >= -tol)
    assert (margin[~inside] < -tol).all()
    fixed = ~spec.free
    fixed[1:, 0] = True  # the probe column is always fixed
    for probe, m, x in zip(probes[inside], margin[inside], completion[inside]):
        assert abs(m - np.linalg.eigvalsh(x)[0]) <= 1e-12
        expected = at_probe(spec, probe).coeff[fixed]
        np.testing.assert_allclose(expand_state(x, pb22).coeff[fixed], expected, atol=1e-8)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 2.0))
def test_fixed_spec_labels_are_lambda_min_sign(pb22, seed, scale):
    spec = random_spec(seed, 0)
    spec.coeff[1:, 1:] *= scale  # scaled correlations cut the ball at various radii
    s = sample_domain(spec, region="random", count=50, seed=seed % 1000)
    lam = [np.linalg.eigvalsh(reconstruct_state(at_probe(spec, p)))[0] for p in s.probes]
    np.testing.assert_array_equal(s.compat, (np.array(lam) >= -1e-9).astype(int))


@settings(max_examples=40)
@given(
    dims=st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 2.0),
    count=st.integers(1, 6),
)
def test_fixed_path_completion_is_the_spec_with_the_probe_written_in(dims, seed, scale, count):
    # X0(a) = X_fix + sum_alpha a_alpha (F_alpha x 1)/NM at any (n, m); a free flag on the
    # subsystem column is overridden by the probe, so the spec still takes the fixed path
    n, m = dims
    rng = np.random.default_rng(seed)
    pb = product_basis(n, m)
    spec = expand_state(random_density(n * m, rng), pb)
    spec.coeff[1:, 1:] *= scale
    spec.free[1:, 0] = rng.random(n**2 - 1) < 0.5
    probes = spec.coeff[1:, 0] + rng.normal(scale=0.2, size=(count, n**2 - 1))
    tol = 1e-9
    inside, margin, completion = compatibility(spec, probes, tol)
    written = JointStateCoeffs.blank(n, m)
    expected = []
    for probe in probes:
        written.coeff[:] = spec.coeff
        written.coeff[1:, 0] = probe
        expected.append(reconstruct_state(written))
    expected = np.array(expected)
    np.testing.assert_allclose(completion, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(inside, np.linalg.eigvalsh(expected)[:, 0] >= -tol)
    np.testing.assert_array_equal(margin, np.linalg.eigvalsh(completion)[:, 0])


@pytest.mark.parametrize("lead", [(0,), (2, 0)])
def test_empty_probe_batch_gives_empty_labels(lead):
    inside, margin, completion = compatibility(JointStateCoeffs.blank(2, 2), np.zeros(lead + (3,)))
    assert inside.shape == margin.shape == lead and completion.shape == lead + (4, 4)


@pytest.mark.parametrize("lead", [(), (3,), (2, 8 * DUAL_ROWS)])
def test_one_level_subsystem_probes_have_no_axes(lead):
    # n = 1: a probe has n^2 - 1 = 0 entries, so the rows of a batch come from its leading shape,
    # and X0 = 1/m is inside with lambda_min 1/m (or, screened by the seed step, a bound just below)
    inside, margin, completion = compatibility(JointStateCoeffs.blank(1, 3), np.zeros(lead + (0,)))
    assert inside.shape == margin.shape == lead and completion.shape == lead + (3, 3)
    assert inside.all() and (np.abs(margin - 1 / 3) <= 1e-12).all()


def test_fixed_path_peak_memory_is_near_the_completion():
    # X0 is assembled in the returned completion itself: no per-probe copy of the
    # (n^2, m^2) coefficient table, which took the peak to about 3x the completion;
    # on p1p3 the seed step's bounds take (seeds, SCREEN_CHUNK) arrays only, and with no free
    # coefficient it adds no free part
    spec = fig2_spec()
    for section, ratio in (("p1p2", 1.5), ("p1p3", 1.1)):
        probes = _section_grid(section, 201)
        assert spec.fully_fixed and len(probes) == 31417
        compatibility(spec, probes[:1])  # the cached product basis is built outside the trace
        tracemalloc.start()
        try:
            nbytes = compatibility(spec, probes)[2].nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * nbytes, section


@settings(max_examples=40)
@given(
    dims=st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.03, 0.3, 30.0]),
    count=st.sampled_from([8 * DUAL_ROWS, SCREEN_CHUNK + 1, 3000]),
    tol=st.sampled_from([0.0, 1e-12, 1e-9]),
)
def test_fixed_screen_keeps_the_eigvalsh_labels(dims, seed, scale, count, tol):
    # batches large enough for the seed rows to screen the other rows: labels are eigvalsh's own, an
    # inside margin is eigvalsh's lambda_min or a certified lower bound on it, at least -tol, and an
    # outside margin is a certified upper bound on lambda_min below -tol
    n, m = dims
    rng = np.random.default_rng(seed)
    spec = expand_state(random_density(n * m, rng), product_basis(n, m))
    probes = spec.coeff[1:, 0] + rng.normal(scale=scale, size=(count, n**2 - 1))
    inside, margin, completion = compatibility(spec, probes, tol)
    lam = np.linalg.eigvalsh(completion)[:, 0]
    np.testing.assert_array_equal(inside, lam >= -tol)
    assert (-tol <= margin[inside]).all() and (margin[inside] <= lam[inside]).all()
    assert (lam[~inside] <= margin[~inside]).all() and (margin[~inside] < -tol).all()


@pytest.mark.parametrize("seed", range(3))
def test_fixed_screen_keeps_the_eigvalsh_labels_on_the_boundary(seed):
    # each seed row is 1.5 u for a unit u and its seven followers are u itself, where lambda_min
    # = (1 - |u|)/4 is 0 up to rounding and the seed's v gives v^H X0(u) v = lambda_min exactly:
    # at tol = 0 only the rounding allowance of the bound keeps these rows from the screen
    u = np.random.default_rng(seed).normal(size=(DUAL_ROWS, 3))
    probes = np.repeat(u / np.linalg.norm(u, axis=1, keepdims=True), 8, axis=0)
    probes[::8] *= 1.5
    inside, margin, completion = compatibility(JointStateCoeffs.blank(2, 2), probes, 0.0)
    lam = np.linalg.eigvalsh(completion)[:, 0]
    np.testing.assert_array_equal(inside, lam >= 0)
    assert (lam[~inside] <= margin[~inside]).all() and 0 < inside.sum() < 7 * DUAL_ROWS


@pytest.mark.parametrize("seed", range(3))
def test_weyl_screen_sends_the_boundary_to_eigvalsh(monkeypatch, seed):
    # each seed row is 0.5 u for a unit u, inside with lambda_min = 1/8, and its seven followers are u
    # itself, where lambda_min = (1 - |u|)/4 is 0 up to rounding; the Weyl bound 1/8 - |u - 0.5 u|/4
    # is exactly 0 there, so at tol = 0 only the rounding allowance keeps these rows from the screen
    u = np.random.default_rng(seed).normal(size=(DUAL_ROWS, 3))
    probes = np.repeat(u / np.linalg.norm(u, axis=1, keepdims=True), 8, axis=0)
    probes[::8] *= 0.5
    counted, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counted.append(len(a)) or eigvalsh(a))
    inside, margin, completion = compatibility(JointStateCoeffs.blank(2, 2), probes, 0.0)
    monkeypatch.undo()
    lam = np.linalg.eigvalsh(completion)[:, 0]
    np.testing.assert_array_equal(inside, lam >= 0)
    assert inside[::8].all() and counted == [DUAL_ROWS, 7 * DUAL_ROWS]
    # with free coefficients: four inside points of the fig1 partial spec, each 16 seed rows, whose
    # X0 is not PSD, so the search gives their completions a free part.  The seven followers of a
    # seed row lie at |a - a_s| = lambda_s / c, c = 1/4, in random directions, where its bound is 0
    # up to rounding and every other point's is negative; at tol = 0 none is certified, and each
    # starts from its seed's completion, where lambda_min >= lambda_s - c |a - a_s| = 0
    spec = fig1_spec(True)
    points = np.array([[0.068, 0.089, 0.166], [0.15, 0.126, 0.039], [0.066, 0.0, 0.293], [-0.057, 0.212, 0.205]])
    assert (compatibility(dataclasses.replace(spec, free=np.zeros((4, 4), dtype=bool)), points)[1] < 0).all()
    probes = np.repeat(points, 2 * DUAL_ROWS, axis=0)
    lam_s = compatibility(spec, probes[::8], 0.0)[1]  # an all-seed batch of the seed rows: their own solve
    u = np.random.default_rng(seed).normal(size=(DUAL_ROWS, 7, 3))
    probes.reshape(DUAL_ROWS, 8, 3)[:, 1:] += lam_s[:, None, None] / 0.25 * u / np.linalg.norm(u, axis=2, keepdims=True)
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(eigvalsh(a)[:, 0]) or eigvalsh(a))
    inside, margin, completion = compatibility(spec, probes, 0.0)
    assert (lam_s > 0).all() and inside[::8].all() and np.array_equal(margin[::8], lam_s)
    [warm] = [lam for lam in calls if len(lam) == 7 * DUAL_ROWS]
    assert warm.min() >= -1e-12


def test_seed_step_allowance_covers_the_free_part_rounding():
    # rows on the a3 axis with X0(a) = B + rho_a (x) 1/2, B Hermitian with entries 2^20 times small
    # integers, are exact in floats, so rho = 0 leaves only the step's own rounding to cover.  The
    # seed a_s = z/2 has the completion X_s = rho_{a_s} (x) 1/2 + g v v^H, v on the block where
    # lambda_min = 1/8, so its free part X_s - X0(a_s) is about -B and loses the low bits of X_s.
    # At a = z, X0(a) plus that free part has lambda_min 0 in exact arithmetic and the Weyl bound
    # 1/8 - |a - a_s| / 4 is 0 too, but the completion's eigvalsh lies about 1e-9 from 0 either way:
    # a row certified there must have a margin no larger than that eigvalsh
    rng = np.random.default_rng(0)
    flat = np.zeros((3, 3))
    flat[:, 2] = (0.5, 0.5, 1.0)  # the seed, a row at the seed and a row on the boundary
    tol = 1e-12
    for _ in range(24):
        k = rng.integers(1, 4, size=(2, 4, 4))
        b = 2.0**20 * (k[0] + 1j * k[1])
        x0 = np.array([b + b.conj().T + np.diag(np.repeat([1 + a, 1 - a], 2) / 4) for a in flat[:, 2]])
        seed_x0 = x0[:1].copy()
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        x0[0] = np.diag([3, 3, 1, 1]) / 8
        x0[0, 2:, 2:] += rng.uniform(0.5, 2.0) * np.outer(v, v.conj()) / np.vdot(v, v).real
        margin = np.linalg.eigvalsh(x0[:1])[:, 0].repeat(3)
        left = np.array([False, True, True])
        domains._seed_step(flat, left, margin, x0, np.array([0]), x0[:1] - seed_x0, 0.0, 0.25, tol)
        lam = np.linalg.eigvalsh(x0)[:, 0]
        assert not left[1] and abs(lam[1] - lam[0]) <= 1e-8
        assert (-tol <= margin[~left]).all() and (margin[~left] <= lam[~left]).all()


@pytest.mark.parametrize("extra", [1, SCREEN_CHUNK + 1])
def test_fixed_screen_leaves_the_completion_unchanged(extra):
    # the screen reads X0 and the open rows' eigvalsh takes copies of every chunk, the last one of
    # a single row included
    spec = two_coefficient_spec()
    probes = np.random.default_rng(extra).uniform(-1, 1, size=(SCREEN_CHUNK + extra, 3))
    probes[-1] = 0.0  # X0 at the origin is outside, and row -1 is not a seed row
    inside, margin, completion = compatibility(spec, probes)
    expected = np.array([reconstruct_state(at_probe(spec, p)) for p in probes])
    np.testing.assert_allclose(completion, expected, rtol=0, atol=1e-15)
    assert not inside[-1] and np.linalg.eigvalsh(completion[-1])[0] <= margin[-1] < -1e-9


def test_fixed_screen_passes_nan_rows_to_eigvalsh(monkeypatch):
    # every seed row (each 8th) is outside, so the screen runs on row 5; a NaN row is never
    # screened, so eigvalsh raises as it does for a batch that is all seed
    spec, probes = JointStateCoeffs.blank(2, 2), np.tile([0.0, 0.0, 1.5], (8 * DUAL_ROWS, 1))
    calls = spy_on_dual_screen(monkeypatch)
    assert not compatibility(spec, probes)[0].any()
    [(z, screened)] = calls
    assert len(z) == DUAL_ROWS and len(screened) == 7 * DUAL_ROWS
    probes[5, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        compatibility(spec, probes)


def test_fixed_path_takes_eigvalsh_only_for_undecided_rows(monkeypatch):
    # the 65 seed rows of a fig2 section at 201 take one eigvalsh, and the outside ones one eigh for
    # their duals v v^H (65 / 54 / 54 / 60), whose own eigvalsh gives the dual screen's slack; of the
    # rows that screen leaves open (0 / 5861 / 5861 / 1013, all inside but 0 / 263 / 263 / 148), the
    # 0 / 11 / 11 / 5 inside seed rows certify 0 / 4769 / 4769 / 118 inside, and the rest take eigvalsh
    spec = fig2_spec()
    counted, vectors = [], []
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counted.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: vectors.append(len(a)) or eigh(a))
    grids = [_section_grid(section, 201) for section in ("p1p2", "p1p3", "p2p3")] + [_fibonacci_shells(201)]
    expected = zip((0, 5609, 5609, 870), (130, 1211, 1211, 1020), (65, 54, 54, 60))
    for probes, (inside, eigvalsh_rows, eigh_rows) in zip(grids, expected):
        counted.clear()
        vectors.clear()
        assert compatibility(spec, probes)[0].sum() == inside
        assert sum(counted) == eigvalsh_rows and vectors == [eigh_rows]
        assert max(counted) <= SCREEN_CHUNK


@pytest.mark.parametrize("dims, base", [((2, 2), (0.0, 0.0, SQ3)), ((3, 2), None)])
def test_design_probes_batches_take_one_eigvalsh_each(monkeypatch, dims, base):
    # a batch below 8 DUAL_ROWS probes is all seed: one eigvalsh of X0, no eigh and no screen,
    # as for the 7-17 probes of every design_probes step on a fully fixed spec
    n, m = dims
    if base is None:
        spec = expand_state(random_density(n * m, np.random.default_rng(1)), product_basis(n, m))
        base = spec.coeff[1:, 0]
    else:
        spec = fig2_spec()
    counted, steps = [], []
    eigvalsh, compat = np.linalg.eigvalsh, tomography.compatibility
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counted.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(domains, "_dual_screen", None)
    monkeypatch.setattr(tomography, "compatibility", lambda spec, probes, tol: steps.append(len(probes)) or compat(spec, probes, tol))
    design_probes(spec, np.array(base), eps=0.05)
    assert counted == steps and steps[0] == 2 * (n**2 - 1) + 1


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_completion_scaling_keeps_the_bits_of_the_division(dims):
    # X0(a) is built from one stack P = [X_fix, F_alpha0]/d as combine(a, P[1:]) + P[0], bit for bit at
    # every d.  Where d is a power of two the scaling by 1/d is exact, so the completion also keeps the
    # bits of the former (combine(a, F_alpha0) + X_fix) * (1/d), and the qubit presets keep theirs
    n, m = dims
    rng = np.random.default_rng(n * m)
    pb = product_basis(n, m)
    d = pb.dim
    spec = expand_state(random_density(d, rng), pb)
    probes = spec.coeff[1:, 0] + rng.normal(scale=0.3, size=(300, n**2 - 1))
    base = spec.coeff.copy()
    base[1:, 0] = 0.0
    x_fix = combine(base.reshape(-1), pb.mats.reshape(-1, d, d))
    stack = np.concatenate([x_fix[None], pb.mats[1:, 0]]) / d
    completion = compatibility(spec, probes)[2]
    assert completion.tobytes() == (combine(probes, stack[1:]) + stack[0]).tobytes()
    divided = (combine(probes, pb.mats[1:, 0]) + x_fix).view(float) * (1 / d)
    if d & (d - 1) == 0:
        assert completion.tobytes() == divided.tobytes()
    np.testing.assert_allclose(completion.view(float), divided, rtol=0, atol=1e-15)


def test_partial_path_peak_memory_is_a_few_completions():
    # a Newton step holds every A_j S^-1 and its conjugate transpose over chunks of the batch no
    # larger than S^-1, and no einsum temporaries, which took the peak to about 10x the completion
    spec, probes = fig1_spec(True), _section_grid("p1p2", 41)
    compatibility(spec, probes[:1])  # the cached product basis is built outside the trace
    tracemalloc.start()
    try:
        nbytes = compatibility(spec, probes)[2].nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * nbytes


def test_partial_path_takes_eigvalsh_only_at_decisions(monkeypatch):
    # one eigvalsh per seed row's X0, one per probe the search decides inside and one per seed
    # dual; no Newton step takes one.  Of the 1257 probes 208 are inside; the 67 seed rows (10 of
    # them inside) give 57 duals, which screen 937 of the other 992 outside probes.  The 10 inside
    # seed rows certify 22 of the 253 rows left open by their Weyl bounds, with no eigvalsh; the
    # other 231 take one eigvalsh at their best seed's free coefficients, which certifies 137 of
    # them, and the search decides the last 39 inside rows.  So the count is
    # 67 + 10 + 57 + 231 + 39 = 404, where it was 425 with every open row taking that eigvalsh
    # from its nearest seed, 585 with each open row started at c = 0, and 1257 + 208 = 1465 before
    # the screen
    spec, probes = fig1_spec(True), _section_grid("p1p2", 41)
    counted = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counted.append(len(a)) or eigvalsh(a))
    inside = compatibility(spec, probes)[0]
    assert inside.sum() == 208
    assert sum(counted) == 404 <= len(probes) / 2


def test_open_rows_start_from_their_best_inside_seed(monkeypatch):
    # of the 253 rows the dual screen leaves open on this section, the seed step certifies most
    # inside ones by a Weyl bound or, from its best seed's completion, one eigvalsh, so the second
    # search sees about the boundary alone (94 rows; 93 from the nearest seed, 253 when each open
    # row started at c = 0)
    searched = []
    search = domains._barrier_search
    monkeypatch.setattr(domains, "_barrier_search", lambda x, m, idx, f, t: searched.append(len(idx)) or search(x, m, idx, f, t))
    assert compatibility(fig1_spec(True), _section_grid("p1p2", 41))[0].sum() == 208
    assert len(searched) == 2 and searched[1] <= 100


@pytest.mark.parametrize("dims, examples", [((2, 2), 10), ((3, 2), 2), ((2, 3), 2), ((3, 3), 2)], ids=["2x2", "3x2", "2x3", "3x3"])
def test_warm_started_rows_keep_their_labels_and_certificates(dims, examples):
    # a random spec with a random free mask, in batches where open rows start from an inside seed's
    # free coefficients: the labels are those of the same probes solved in all-seed chunks and in a
    # permuted batch, an inside margin is at least -tol and at most the eigvalsh of its completion,
    # and every completion keeps the spec's fixed coefficients.  Each dims has a fixed share of the
    # 16 examples, so the cost does not follow hypothesis's draw of dims; (3, 3) takes about 0.5 ms
    # a probe in a batch and more in all-seed chunks, so its batches stop at 8 DUAL_ROWS
    n, m = dims

    @settings(max_examples=examples)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.sampled_from([8 * DUAL_ROWS, SCREEN_CHUNK + 1, 3000]),
        tol=st.sampled_from([0.0, 1e-12, 1e-9]),
    )
    def check(seed, count, tol):
        count = 8 * DUAL_ROWS if dims == (3, 3) else count
        rng = np.random.default_rng(seed)
        pb = product_basis(n, m)
        spec = expand_state(random_density(n * m, rng), pb)
        spec.free = rng.random(spec.free.shape) < rng.uniform(0.2, 0.8)
        spec.free[0, 0] = False
        probes = spec.coeff[1:, 0] + rng.normal(scale=0.8 / n, size=(count, n**2 - 1))
        inside, margin, completion = compatibility(spec, probes, tol)
        chunks = [compatibility(spec, part, tol)[0] for part in np.array_split(probes, -(-count // (8 * DUAL_ROWS - 1)))]
        np.testing.assert_array_equal(inside, np.concatenate(chunks))
        perm = rng.permutation(count)  # other seed rows, other duals and other warm starts: each label follows its probe
        np.testing.assert_array_equal(compatibility(spec, probes[perm], tol)[0], inside[perm])
        assert (-tol <= margin[inside]).all() and (margin[inside] <= np.linalg.eigvalsh(completion[inside])[:, 0]).all()
        fixed = ~spec.free
        fixed[1:, 0] = False  # the probe column, checked against each row's probe
        coeff = np.einsum("mnij,bji->bmn", pb.mats, completion).real
        np.testing.assert_allclose(coeff[:, fixed] - spec.coeff[fixed], 0, atol=1e-8)
        np.testing.assert_allclose(coeff[:, 1:, 0], probes, atol=1e-8)

    check()


@settings(max_examples=24)
@given(
    dims=st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]),
    fixed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(8 * DUAL_ROWS, 3000),
    tol=st.sampled_from([0.0, 1e-12, 1e-9]),
)
def test_labels_do_not_depend_on_the_subset(dims, fixed, seed, count, tol):
    # a probe keeps its label in a random subset of its batch, all seed (below 8 DUAL_ROWS rows) or
    # screened, with other seed rows, duals and warm starts; a label may differ only where both
    # margins lie within 1e-9 of -tol.  With free coefficients (3, 3) takes about 0.5 ms a probe,
    # so its batches stop at 1024
    n, m = dims
    rng = np.random.default_rng(seed)
    spec = expand_state(random_density(n * m, rng), product_basis(n, m))
    if not fixed:
        spec.free = rng.random(spec.free.shape) < rng.uniform(0.2, 0.8)
        spec.free[0, 0] = False
        count = min(count, 1024) if dims == (3, 3) else count
    probes = spec.coeff[1:, 0] + rng.normal(scale=(0.1 if fixed else 0.8) / n, size=(count, n**2 - 1))
    inside, margin, _ = compatibility(spec, probes, tol)
    for size in (rng.integers(1, 8 * DUAL_ROWS), rng.integers(8 * DUAL_ROWS, count + 1)):
        keep = rng.permutation(count) < size
        kept_inside, kept_margin, _ = compatibility(spec, probes[keep], tol)
        moved = kept_inside != inside[keep]
        assert (np.abs(margin[keep][moved] + tol) <= 1e-9).all() and (np.abs(kept_margin[moved] + tol) <= 1e-9).all()


@pytest.mark.parametrize("spec", [fig1_spec(True), fig2_spec()], ids=["fig1-partial", "fig2-fixed"])
def test_cloud_labels_do_not_depend_on_its_count(spec):
    # the ball's accepted draws do not depend on the count, so the 700-probe cloud is the first 700
    # rows of the 2000-probe one; both batches are screened, with other seeds and duals, and a label
    # is a certificate of its own probe, so the labels agree too
    for seed in (0, 5):
        small = sample_domain(spec, region="random", count=700, seed=seed)
        large = sample_domain(spec, region="random", count=2000, seed=seed)
        assert np.array_equal(small.probes, large.probes[:700])
        np.testing.assert_array_equal(small.compat, large.compat[:700])
        assert 0 < small.compat.sum() < 700


def spy_on_dual_screen(monkeypatch):
    """Record (duals Z, rows screened) of every ``_dual_screen`` call in the returned list."""
    calls = []
    screen = domains._dual_screen

    def spy(flat, left, margin, duals, probe_ops, free_ops, rho, tol):
        seeds = ~left
        screen(flat, left, margin, duals, probe_ops, free_ops, rho, tol)
        calls.append((np.concatenate(duals), np.flatnonzero(~left & ~seeds)))

    monkeypatch.setattr(domains, "_dual_screen", spy)
    return calls


def test_dual_screen_margins_bound_the_closed_form(monkeypatch):
    # with only the marginal fixed t* = (1 - |a|)/4 exactly (see
    # test_partial_margin_decided_at_tolerance); a screened margin is a proven upper bound on t*
    # below -tol, and the seed's duals are PSD with trace 1 and no free components
    rng = np.random.default_rng(3)
    probes = rng.normal(size=(2400, 3))
    probes *= rng.uniform(0.0, 1.5, size=(len(probes), 1)) / np.linalg.norm(probes, axis=1, keepdims=True)
    t_star = (1 - np.linalg.norm(probes, axis=1)) / 4
    calls = spy_on_dual_screen(monkeypatch)
    inside, margin, completion = compatibility(all_free_spec(), probes)
    [(z, screened)] = calls
    assert len(screened) > (t_star < 0).sum() / 2
    assert (margin[screened] >= t_star[screened]).all() and (margin[screened] < -1e-9).all()
    band = np.abs(t_star) > 1e-6
    np.testing.assert_array_equal(inside[band], t_star[band] > 0)
    x0 = np.kron(probe_state(probes[screened], 2), I2 / 2)  # c = 0: the marginal times 1/2
    np.testing.assert_allclose(completion[screened], x0, rtol=0, atol=1e-15)
    assert (np.linalg.eigvalsh(z)[:, 0] >= -1e-12).all()
    assert np.abs(np.trace(z, axis1=1, axis2=2) - 1).max() <= 1e-9
    free = all_free_spec().free
    free[1:, 0] = False
    assert np.abs(np.einsum("kij,zji->zk", product_basis(2, 2).mats[free], z)).max() <= 1e-8


@pytest.mark.parametrize("dims, seed", [((2, 2), 0), ((2, 2), 1), ((2, 2), 2), ((3, 2), 3), ((2, 3), 4), ((3, 3), 5)])
def test_dual_screen_keeps_the_labels_of_small_batches(monkeypatch, dims, seed):
    # a random spec with a random free mask: one batch of 8 DUAL_ROWS probes, which the dual
    # screen runs on, gets the labels of the same probes solved in all-seed chunks
    n, m = dims
    rng = np.random.default_rng(seed)
    spec = expand_state(random_density(n * m, rng), product_basis(n, m))
    spec.free = rng.random(spec.free.shape) < rng.uniform(0.2, 0.8)
    spec.free[0, 0] = False
    probes = spec.coeff[1:, 0] + rng.normal(scale=0.8 / n, size=(8 * DUAL_ROWS, n**2 - 1))
    calls = spy_on_dual_screen(monkeypatch)
    inside = compatibility(spec, probes)[0]
    assert len(calls) == 1 and len(calls[0][1])
    chunks = [compatibility(spec, part)[0] for part in np.split(probes, 8)]
    assert len(calls) == 1
    np.testing.assert_array_equal(inside, np.concatenate(chunks))


def test_dual_screen_passes_nan_rows_to_eigvalsh():
    # every seed row (each 8th) is outside, so the screen runs on row 5; a NaN row is never
    # screened, so eigvalsh raises as it does for a batch that is all seed
    probes = np.tile([0.0, 0.0, 1.5], (8 * DUAL_ROWS, 1))
    assert not compatibility(all_free_spec(), probes)[0].any()
    probes[5, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        compatibility(all_free_spec(), probes)


@pytest.mark.parametrize("resolution, section_count, volume_count", [(41, 208, 61), (101, 1289, 340)])
def test_fig1_partial_inside_counts(resolution, section_count, volume_count):
    # numerical facts of the fig1 partial spec, the same on all three sections by its symmetry
    spec = fig1_spec(True)
    for section in sorted(SECTION_AXES):
        assert compatibility(spec, _section_grid(section, resolution))[0].sum() == section_count
    assert compatibility(spec, _fibonacci_shells(resolution))[0].sum() == volume_count


@settings(max_examples=60)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1), gap=st.floats(1e-9, 10.0))
def test_inverse_frobenius_norm_bounds_lambda_min(dims, seed, gap):
    # lambda_min(S) = 1 / ||S^-1||_2 >= 1 / ||S^-1||_F for S > 0; the search reads
    # ||S^-1||_F^2 off the t-t entry of its Hessian
    n, m = dims
    d = n * m
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (g + g.conj().T) * rng.uniform(0.01, 10.0)
    lam = np.linalg.eigvalsh(x)[0]
    t = lam - gap
    s_inv = np.linalg.inv(x - t * np.eye(d))
    frob = np.linalg.norm(s_inv)
    assert t + 1 / frob <= lam + 1e-12
    # at condition up to 1e11 the computed S^-1 is Hermitian only to about 1e-5 of its norm, and
    # H_tt = Re Tr[S^-1 S^-1] drops the square of that part, so compare on the Hermitian part
    s_inv = (s_inv + s_inv.conj().T) / 2
    _, hess = _newton_terms(s_inv[None], -np.eye(d, dtype=complex)[None])
    assert t + 1 / np.sqrt(hess[0, 0, 0]) <= lam + 1e-12
    assert abs(hess[0, 0, 0] - np.linalg.norm(s_inv) ** 2) <= 1e-12 * frob**2


def test_partial_path_memory_scales_with_the_batch():
    # at (3, 3) with every correlation free (k = 72) the largest arrays of a step are the stacked
    # A_j and a chunk of A_j S^-1, (k+1) d^2 entries each; nothing of size (d^2 (k+1))^2, 280 MB
    # here, is built per call
    pb = product_basis(3, 3)
    free = np.ones((9, 9), dtype=bool)
    free[0, 0] = False
    coeff = np.zeros((9, 9))
    coeff[0, 0] = 1.0
    spec = JointStateCoeffs(3, 3, coeff, free)
    probes = np.zeros((4, 8))
    probes[:, 7] = 10.0  # far outside the state space of the qutrit
    compatibility(spec, probes[:1])
    tracemalloc.start()
    try:
        inside = compatibility(spec, probes)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not inside.any()
    assert peak <= 8 * len(probes) * 73 * pb.dim**2 * 16  # about 2.6x


def einsum_newton_terms(s_inv, ops):
    """Oracle: g0 and H from every S^-1 A_j formed as a (B, d, k+1, d) array."""
    b, d = s_inv.shape[:2]
    p = (s_inv.reshape(-1, d) @ ops.transpose(1, 0, 2).reshape(d, -1)).reshape(b, d, len(ops), d)
    return np.einsum("bxjx->bj", p).real, np.einsum("bxjz,bzlx->bjl", p, p).real


@settings(max_examples=40)
@given(
    dims=st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
    free_share=st.floats(0.0, 1.0),
)
def test_newton_terms_match_einsum_oracle(dims, seed, free_share):
    n, m = dims
    rng = np.random.default_rng(seed)
    pb = product_basis(n, m)
    d = pb.dim
    free = rng.random((n * n, m * m)) < free_share
    free[0, 0] = False
    free[1:, 0] = False  # the probe column is never free
    ops = np.concatenate([pb.mats[free] / d, -np.eye(d)[None]])
    # 23 rows go through in several chunks, with a remainder, once k + 1 > SCREEN_CHUNK / 23
    s = random_density(d, rng, shape=(23,)) + rng.uniform(1e-6, 1.0, size=(23, 1, 1)) * np.eye(d)
    s_inv = np.linalg.inv(s)
    g0, hess = _newton_terms(s_inv, ops)
    g0_ref, hess_ref = einsum_newton_terms(s_inv, ops)
    np.testing.assert_allclose(g0, g0_ref, rtol=0, atol=1e-12 * np.abs(g0_ref).max())
    np.testing.assert_allclose(hess, hess_ref, rtol=0, atol=1e-12 * np.abs(hess_ref).max())


def unchunked_newton_terms(s_inv, ops):
    """Reference: _newton_terms with the whole batch in one chunk."""
    b, d = s_inv.shape[:2]
    g0 = s_inv.view(float).reshape(b, -1) @ ops.view(float).reshape(len(ops), -1).T
    q = (ops.reshape(-1, d) @ s_inv).reshape(b, len(ops), d, d)
    q_h = np.conjugate(q.swapaxes(2, 3), out=np.empty_like(q))
    rows = (b, len(ops), -1)
    return g0, q.view(float).reshape(rows) @ q_h.view(float).reshape(rows).transpose(0, 2, 1)


@pytest.mark.parametrize("dims, k", [((2, 2), 3), ((3, 3), 72)])
def test_newton_terms_chunks_match_one_chunk_bitwise(dims, k):
    rng = np.random.default_rng(k)
    pb = product_basis(*dims)
    d = pb.dim
    ops = np.concatenate([pb.mats.reshape(-1, d, d)[1 : k + 1] / d, -np.eye(d)[None]])
    chunk = SCREEN_CHUNK // (k + 1)
    for b in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        s_inv = np.linalg.inv(random_density(d, rng, shape=(b,)) + 0.1 * np.eye(d))
        for got, want in zip(_newton_terms(s_inv, ops), unchunked_newton_terms(s_inv, ops)):
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# positivity domain
# ---------------------------------------------------------------------------
def test_positivity_cp_map_whole_ball(rng, pb22):
    g = extract_G(random_unitary(4, rng), pb22.basis_r)
    amap = AffineMap(n=2, m=2, g_ops=g, k_mat=np.zeros((2, 2), dtype=complex))
    probes = rng.uniform(-1, 1, size=(50, 3))
    assert positivity(amap, probes[(probes**2).sum(axis=1) <= 1]).all()


def kappa_one_map():
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[1, 1] = 1.0
    params = LorentzParams(r1=IDENTITY_ROT, r2=Rotation(axis=AXIS_Z, angle=np.pi))
    return map_from_unitary(lorentz_unitary(params), corr)


def test_positivity_boundary_point_included():
    # |a^U| = 1 exactly at the origin probe: closed domains include it
    assert positivity(kappa_one_map(), np.zeros(3))


def test_positivity_axis_probe_excluded():
    # probe along the relative rotation axis adds kappa undamped: |a^U| > 1
    amap = kappa_one_map()
    assert not positivity(amap, np.array([0.0, 0.0, 0.5]))
    # probe orthogonal to the axis is averaged away: back on the boundary
    assert positivity(amap, np.array([0.5, 0.0, 0.0]))


def test_positivity_rejects_invalid_probe():
    # a NaN probe is no state either: it must not come back labelled outside
    for probes in ([[0.5, 0.0, 0.0], [1.2, 0.0, 0.0]], [[np.nan, 0.0, 0.0]], [[0.5, 0.0, 0.0], [0.0, np.nan, 0.0]]):
        with pytest.raises(ValueError, match="positive state"):
            positivity(kappa_one_map(), np.array(probes))


@pytest.mark.parametrize(
    "label",
    [lambda p: compatibility(JointStateCoeffs.blank(2, 2), p), lambda p: positivity(kappa_one_map(), p), lambda p: probe_state(p, 2)],
    ids=["compatibility", "positivity", "probe_state"],
)
def test_qubit_probe_must_have_length_3(label):
    with pytest.raises(ValueError, match="probe must have length 3"):
        label(np.zeros((5, 2)))


@pytest.mark.parametrize("section", sorted(SECTION_AXES))
def test_positivity_matches_eigvalsh_on_fig2_sections(section):
    # the Bloch-norm label agrees with LAPACK's spectrum of every image; each section holds both labels
    amap = int_ham_map(IntHamParams(gamma=(2.28, 3.02, 2.87)), fig2_spec())
    probes = _section_grid(section, 201)
    images = apply_L(amap, probe_state(probes, 2)) + amap.k_mat
    expected = np.linalg.eigvalsh(images)[:, 0] >= -1e-9
    assert expected.any() and not expected.all()
    np.testing.assert_array_equal(positivity(amap, probes), expected)


@settings(max_examples=50, deadline=None)
@given(m=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 4.0))
def test_positivity_matches_matrix_oracle(m, seed, scale):
    # oracle: the smallest eigenvalue of every 2x2 image; K is scaled so both labels occur,
    # and probes whose oracle margin lies within 1e-12 of -tol may round either way
    rng = np.random.default_rng(seed)
    pb = product_basis(2, m)
    base = extract_map(random_unitary(2 * m, rng), random_density(2 * m, rng), pb)
    amap = AffineMap(2, m, base.g_ops, scale * base.k_mat)
    probes = rng.uniform(-1, 1, size=(200, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1]
    tol = 1e-9
    oracle = np.linalg.eigvalsh(apply_L(amap, probe_state(probes, 2)) + amap.k_mat)[..., 0]
    clear = np.abs(oracle + tol) > 1e-12
    np.testing.assert_array_equal(positivity(amap, probes, tol)[clear], (oracle >= -tol)[clear])


def test_positivity_is_qubit_only(rng):
    amap = extract_map(random_unitary(6, rng), random_density(6, rng), product_basis(3, 2))
    with pytest.raises(ValueError, match="qubit"):
        positivity(amap, np.zeros(8))


def test_positivity_contains_true_evolution_images(pb22, rng):
    # probes in the compatibility domain evolve to positive states
    spec = two_coefficient_spec(0.4)
    u = random_unitary(4, rng)
    amap = extract_map(u, reconstruct_state(at_probe(spec, np.zeros(3))), pb22)
    probes = rng.uniform(-1, 1, size=(50, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1]
    assert positivity(amap, probes[compatibility(spec, probes)[0]]).all()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------
def test_sample_domain_two_coefficient_sections():
    spec = two_coefficient_spec()
    in_plane = sample_domain(spec, section="p1p2", resolution=31)
    assert not (in_plane.compat == 1).any()  # domain avoids the a3 = 0 plane
    vert = sample_domain(spec, section="p1p3", resolution=31)
    feas = vert.probes[vert.compat == 1]
    assert len(feas) > 0
    assert (feas[:, 2] > 0).all()


def test_sample_domain_partial_labels_every_probe():
    # the fig1 partial section holds probes such as (0.3, 0, 0) with max lambda_min +1.48e-4
    s = sample_domain(fig1_spec(True), section="p1p2", resolution=41)
    assert set(np.unique(s.compat)) <= {0, 1}
    for probe in ([0.3, 0.0, 0.0], [0.0, 0.3, 0.0]):
        at = np.abs(s.probes - probe).max(axis=1) < 1e-12
        assert at.sum() == 1 and s.compat[at][0] == 1


def test_sample_domain_deterministic(tmp_path):
    spec = two_coefficient_spec()
    s1 = sample_domain(spec, section="p1p3", resolution=21)
    s2 = sample_domain(spec, section="p1p3", resolution=21)
    np.testing.assert_array_equal(s1.compat, s2.compat)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    s1.write_csv(p1)
    s2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_domain_random_region_seeded():
    spec = JointStateCoeffs.blank(2, 2)
    s1 = sample_domain(spec, region="random", count=100, seed=7)
    s2 = sample_domain(spec, region="random", count=100, seed=7)
    np.testing.assert_array_equal(s1.probes, s2.probes)
    assert (s1.compat == 1).all()  # uncorrelated spec: whole ball feasible


def test_sample_domain_volume_grid():
    spec = JointStateCoeffs.blank(2, 2)
    s = sample_domain(spec, region="grid", section=None, resolution=16)
    assert (np.linalg.norm(s.probes, axis=1) <= 1 + 1e-12).all()
    assert (s.compat == 1).all()


def test_sample_domain_positivity_column(rng, pb22):
    spec = two_coefficient_spec(0.3)
    pi = reconstruct_state(at_probe(spec, np.zeros(3)))
    amap = extract_map(random_unitary(4, rng), pi, pb22)
    s = sample_domain(spec, amap=amap, section="p1p3", resolution=21)
    inside = s.compat == 1
    assert (s.pos[inside] == 1).all()


def test_sample_domain_rejects_bad_inputs():
    spec = JointStateCoeffs.blank(2, 2)
    with pytest.raises(ValueError):
        sample_domain(spec, region="random", count=0)
    with pytest.raises(ValueError):
        sample_domain(spec, region="grid", section="p9p9")
    with pytest.raises(ValueError):
        sample_domain(spec, region="grid", resolution=0)
    with pytest.raises(ValueError):
        sample_domain(spec, region="random", count=5, section="p1p2")
    with pytest.raises(ValueError, match="region must be 'grid' or 'random', got 'cube'"):
        sample_domain(spec, region="cube")


def test_sample_csv_format(tmp_path):
    spec = two_coefficient_spec()
    s = sample_domain(spec, section="p1p3", resolution=11)
    path = tmp_path / "section.csv"
    s.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a1,a2,a3,compat,pos"
    assert len(lines) == 1 + len(s.probes)


def per_row_csv(header, values, labels):
    """Reference CSV text: one f-string per value, joined row by row."""
    lines = [header]
    for i, row in enumerate(values):
        lines.append(",".join([f"{x:.9g}" for x in row] + [str(int(c[i])) for c in labels]))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_row_format(tmp_path):
    edges = np.array([[-0.0, 5e-324, 1e-300], [1 / 3, np.pi, -1e20], [0.0, -1 / 3, 1.0]])
    edge_sample = DomainSample(probes=edges, compat=np.array([1, 0, 1]), pos=np.array([0, 1, 1]))
    # signed zeros repeat in the first column, the last column is constant
    zeros = np.array([[0.0, 1.0, 0.25], [-0.0, 0.0, 0.25], [0.0, -0.0, 0.25], [-0.0, 2.0, 0.25]])
    zero_sample = DomainSample(probes=zeros, compat=np.array([1, 1, 1, 1]), pos=np.array([0, 1, 0, 1]))
    sample = sample_domain(two_coefficient_spec(), amap=kappa_one_map(), section="p1p3", resolution=201)
    assert set(sample.pos) == {0, 1} and set(sample.compat) == {0, 1}
    for s in (edge_sample, zero_sample, sample):
        s.write_csv(tmp_path / "s.csv")
        expected = per_row_csv("a1,a2,a3,compat,pos", s.probes, (s.compat, s.pos))
        assert (tmp_path / "s.csv").read_text() == expected

    outputs = sample.probes[::-1] * np.e
    _write_pairs_csv(str(tmp_path / "p.csv"), sample.probes, outputs, {"compat": sample.compat})
    expected = per_row_csv("in1,in2,in3,out1,out2,out3,compat", np.hstack([sample.probes, outputs]), (sample.compat,))
    assert (tmp_path / "p.csv").read_text() == expected
    _write_pairs_csv(str(tmp_path / "e.csv"), edges, edges[::-1])
    assert (tmp_path / "e.csv").read_text() == per_row_csv("in1,in2,in3,out1,out2,out3", np.hstack([edges, edges[::-1]]), ())


# ---------------------------------------------------------------------------
# image of the unit circle
# ---------------------------------------------------------------------------
def test_image_of_ball_identity_map():
    amap = AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=np.zeros((2, 2), dtype=complex))
    inputs, outputs = image_of_ball(amap, "p1p2", resolution=64)
    np.testing.assert_allclose(inputs, outputs, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(inputs, axis=1), 1.0, atol=1e-14)


def test_image_of_ball_contraction_ellipse():
    gamma = (0.9, 1.3, 0.4)
    amap = int_ham_map(IntHamParams(gamma=gamma), JointStateCoeffs.blank(2, 2))
    inputs, outputs = image_of_ball(amap, "p1p2", resolution=128)
    f1 = np.cos(gamma[1]) * np.cos(gamma[2])
    f2 = np.cos(gamma[2]) * np.cos(gamma[0])
    np.testing.assert_allclose(outputs[:, 0], f1 * inputs[:, 0], atol=1e-12)
    np.testing.assert_allclose(outputs[:, 1], f2 * inputs[:, 1], atol=1e-12)
    np.testing.assert_allclose(outputs[:, 2], 0.0, atol=1e-12)


def test_image_of_ball_shifted_by_kappa():
    amap = AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=traceless_operator([0.0, 0.0, 0.2], 2))
    _, outputs = image_of_ball(amap, "p1p2", resolution=16)
    np.testing.assert_allclose(outputs[:, 2], 0.2, atol=1e-14)


def test_probe_state_matches_bloch():
    rho = probe_state(np.array([0.1, -0.2, 0.3]), 2)
    expected = 0.5 * (I2 + 0.1 * SIGMA[0] - 0.2 * SIGMA[1] + 0.3 * SIGMA[2])
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_probe_state_batched(rng):
    probes = rng.uniform(-0.5, 0.5, size=(2, 5, 3))
    rhos = probe_state(probes, 2)
    assert rhos.shape == (2, 5, 2, 2)
    np.testing.assert_allclose(rhos[1, 3], probe_state(probes[1, 3], 2), atol=1e-15)
