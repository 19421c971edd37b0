import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinemaps.basis import JointStateCoeffs, expand_state, probe_state, product_basis, reconstruct_state, traceless_operator
from affinemaps.cli import _write_pairs_csv, fig1_spec, fig2_spec
from affinemaps.linalg import is_psd, random_density, random_unitary
from affinemaps.maps import AffineMap, apply_L, extract_G, extract_map
from affinemaps.domains import (
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
from affinemaps.qubit2 import (
    I2,
    SIGMA,
    IntHamParams,
    LorentzParams,
    Rotation,
    int_ham_map,
    lorentz_map,
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
    out = spec.copy()
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
    assert is_psd(witness)
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
    masked = spec.copy()
    masked.free[1:, 0] = True
    probes = rng.uniform(-1, 1, size=(20, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1]
    expected = [np.linalg.eigvalsh(reconstruct_state(at_probe(spec, p), pb22))[0] >= -1e-9 for p in probes]
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
        relaxed = full_spec.copy()
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
    assert is_psd(witness)
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
    lam = [np.linalg.eigvalsh(reconstruct_state(at_probe(spec, p), pb22))[0] for p in s.probes]
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
        expected.append(reconstruct_state(written, pb))
    expected = np.array(expected)
    np.testing.assert_allclose(completion, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(inside, np.linalg.eigvalsh(expected)[:, 0] >= -tol)
    np.testing.assert_array_equal(margin, np.linalg.eigvalsh(completion)[:, 0])


@pytest.mark.parametrize("lead", [(0,), (2, 0)])
def test_empty_probe_batch_gives_empty_labels(lead):
    inside, margin, completion = compatibility(JointStateCoeffs.blank(2, 2), np.zeros(lead + (3,)))
    assert inside.shape == margin.shape == lead and completion.shape == lead + (4, 4)


def test_fixed_path_peak_memory_is_near_the_completion():
    # X0 is assembled in the returned completion itself: no per-probe copy of the
    # (n^2, m^2) coefficient table, which took the peak to about 3x the completion
    spec, probes = fig2_spec(), _section_grid("p1p2", 201)
    assert spec.fully_fixed and len(probes) == 31417
    compatibility(spec, probes[:1])  # the cached product basis is built outside the trace
    tracemalloc.start()
    try:
        nbytes = compatibility(spec, probes)[2].nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * nbytes


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
    # one eigvalsh of X0 per probe, then one per probe the search decides inside; no Newton
    # step takes one, and no probe of this section is left open after the last mu
    spec, probes = fig1_spec(True), _section_grid("p1p2", 41)
    counted = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: counted.append(len(a)) or eigvalsh(a))
    inside = compatibility(spec, probes)[0]
    assert sum(counted) == len(probes) + inside.sum() <= 1.5 * len(probes)


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
    # 23 rows go through in several chunks, with a remainder, whenever k is small
    s = random_density(d, rng, shape=(23,)) + rng.uniform(1e-6, 1.0, size=(23, 1, 1)) * np.eye(d)
    s_inv = np.linalg.inv(s)
    g0, hess = _newton_terms(s_inv, ops)
    g0_ref, hess_ref = einsum_newton_terms(s_inv, ops)
    np.testing.assert_allclose(g0, g0_ref, rtol=0, atol=1e-12 * np.abs(g0_ref).max())
    np.testing.assert_allclose(hess, hess_ref, rtol=0, atol=1e-12 * np.abs(hess_ref).max())


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
    return lorentz_map(
        LorentzParams(r1=IDENTITY_ROT, r2=Rotation(axis=AXIS_Z, angle=np.pi)), corr
    )


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
    with pytest.raises(ValueError):
        positivity(kappa_one_map(), np.array([[0.5, 0.0, 0.0], [1.2, 0.0, 0.0]]))


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
    amap = extract_map(u, reconstruct_state(at_probe(spec, np.zeros(3)), pb22), pb22)
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
    pi = reconstruct_state(at_probe(spec, np.zeros(3)), pb22)
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


def test_sample_csv_format(tmp_path):
    spec = two_coefficient_spec()
    s = sample_domain(spec, section="p1p3", resolution=11)
    path = tmp_path / "section.csv"
    s.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a1,a2,a3,compat,pos"
    assert len(lines) == 1 + len(s.probes)
    meta = s.sidecar_dict(spec, map_ref=None)
    assert meta["map"] is None
    assert meta["resolution"] == 11 and meta["section"] == "p1p3"
    assert meta["spec"]["coeff"][0][1] == pytest.approx(SQ3)


def per_row_csv(header, values, labels):
    """Reference CSV text: one f-string per value, joined row by row."""
    lines = [header]
    for i, row in enumerate(values):
        lines.append(",".join([f"{x:.9g}" for x in row] + [str(int(c[i])) for c in labels]))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_row_format(tmp_path):
    edges = np.array([[-0.0, 5e-324, 1e-300], [1 / 3, np.pi, -1e20], [0.0, -1 / 3, 1.0]])
    edge_sample = DomainSample(
        probes=edges, compat=np.array([1, 0, 1]), pos=np.array([0, 1, 1]),
        section=None, region="grid", resolution=1, seed=0,
    )
    # signed zeros repeat in the first column, the last column is constant
    zeros = np.array([[0.0, 1.0, 0.25], [-0.0, 0.0, 0.25], [0.0, -0.0, 0.25], [-0.0, 2.0, 0.25]])
    zero_sample = DomainSample(
        probes=zeros, compat=np.array([1, 1, 1, 1]), pos=np.array([0, 1, 0, 1]),
        section=None, region="grid", resolution=1, seed=0,
    )
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
