import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PAULIS,
    best_state_kappa_masked,
    heisenberg_rows,
    int_ham_b_matrix,
    int_ham_closed_map,
    int_ham_kappa,
    lorentz_closed_map,
    rotation_matrix,
)

from affinemaps.basis import JointStateCoeffs, coefficients, expand_state, expand_states, product_basis, reconstruct_state
from affinemaps.linalg import dagger, from_pairs, partial_trace, random_density, random_unitary
from affinemaps.maps import apply_L, b_matrix, bloch_action, choi_and_cp, extract_map, map_from_unitary, w_operators
from affinemaps import qubit2
from affinemaps.cli import fig1_spec, fig2_spec
from affinemaps.qubit2 import (
    FAMILIES,
    GOLDEN_KAPPA_BOUND,
    I2,
    SIGMA,
    IntHamParams,
    LorentzParams,
    Rotation,
    bounds_sweep,
    int_ham_map,
    int_ham_unitary,
    kappa_bounds_check,
    kappa_search,
    lorentz_unitary,
    su2_from_rotation,
    _best_state_kappa,
    _golden_refine,
)

AXIS_Z = (0.0, 0.0, 1.0)
IDENTITY_ROT = Rotation(axis=(0.0, 0.0, 0.0), angle=0.0)


def random_corr(rng, pb):
    return expand_state(random_density(4, rng), pb)


# ---------------------------------------------------------------------------
# interaction family
# ---------------------------------------------------------------------------
def test_int_ham_unitary_zero_angles():
    u = int_ham_unitary(IntHamParams(gamma=(0.0, 0.0, 0.0)))
    np.testing.assert_allclose(u, np.eye(4), atol=1e-15)


def test_int_ham_unitary_pi_angle():
    u = int_ham_unitary(IntHamParams(gamma=(0.0, 0.0, np.pi)))
    np.testing.assert_allclose(u, -1j * np.kron(SIGMA[2], SIGMA[2]), atol=1e-14)


def test_int_ham_unitary_matches_eigendecomposition(rng):
    for _ in range(10):
        gamma = rng.uniform(0, 2 * np.pi, 3)
        h = sum(gamma[j] * np.kron(SIGMA[j], SIGMA[j]) for j in range(3))
        w, v = np.linalg.eigh(h)  # exp(-i h / 2) = V exp(-i w / 2) V^dag
        np.testing.assert_allclose(
            int_ham_unitary(IntHamParams(gamma=tuple(gamma))),
            (v * np.exp(-0.5j * w)) @ dagger(v),
            atol=1e-12,
        )


def heisenberg_terms(gamma):
    """Expansion coefficients of U^dag s_j U over the product basis."""
    s, c = np.sin(gamma), np.cos(gamma)
    terms = {
        (1, 0): c[1] * c[2], (0, 1): s[1] * s[2], (2, 3): -c[1] * s[2], (3, 2): s[1] * c[2],
    }, {
        (2, 0): c[2] * c[0], (0, 2): s[2] * s[0], (3, 1): -c[2] * s[0], (1, 3): s[2] * c[0],
    }, {
        (3, 0): c[0] * c[1], (0, 3): s[0] * s[1], (1, 2): -c[0] * s[1], (2, 1): s[0] * c[1],
    }
    return terms


@pytest.mark.parametrize("gamma", [(0.3, 0.7, 1.1), (2.0, 0.1, 5.5)])
def test_int_ham_heisenberg_expansion(gamma, pb22):
    gamma = np.array(gamma)
    t = heisenberg_rows(int_ham_unitary(IntHamParams(gamma=tuple(gamma))), pb22)
    for j, terms in enumerate(heisenberg_terms(gamma), start=1):
        row = t[j].copy()
        for (mu, nu), val in terms.items():
            assert abs(row[mu, nu] - val) < 1e-12, (j, mu, nu)
            row[mu, nu] = 0.0
        np.testing.assert_allclose(row, 0.0, atol=1e-12)


def test_int_ham_adjoint_flips_angles(pb22):
    gamma = (0.4, 1.3, 2.2)
    u = int_ham_unitary(IntHamParams(gamma=gamma))
    u_neg = int_ham_unitary(IntHamParams(gamma=tuple(-g for g in gamma)))
    np.testing.assert_allclose(dagger(u), u_neg, atol=1e-13)


def test_int_ham_kappa_single_angle_specialization():
    # gamma = (0, 0, wt) with <s1 x3>, <s2 x3> nonzero
    wt, a, b = 0.85, 0.3, -0.2
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[1, 3] = a
    corr.coeff[2, 3] = b
    p = IntHamParams(gamma=(0.0, 0.0, wt))
    for kappa in (int_ham_kappa(p, corr), coefficients(int_ham_map(p, corr).k_mat, 2)):
        np.testing.assert_allclose(kappa, [-b * np.sin(wt), a * np.sin(wt), 0.0], atol=1e-14)


def test_int_ham_map_matches_numeric_extraction(pb22, rng):
    for _ in range(50):
        gamma = tuple(rng.uniform(0, 2 * np.pi, 3))
        pi = random_density(4, rng)
        corr = expand_state(pi, pb22)
        p = IntHamParams(gamma=gamma)
        closed = int_ham_closed_map(p, corr)
        for numeric in (extract_map(int_ham_unitary(p), pi, pb22), int_ham_map(p, corr)):
            np.testing.assert_allclose(closed.k_mat, numeric.k_mat, atol=1e-10)
            np.testing.assert_allclose(closed.g_ops, numeric.g_ops, atol=1e-10)


def test_int_ham_two_coefficient_family_bound(rng):
    # only <x1> and <s3 x1> nonzero: kappa_3 = 0 and |kappa| <= 1, for tables that need not be states
    for _ in range(100):
        corr = JointStateCoeffs.blank(2, 2)
        corr.coeff[0, 1] = rng.uniform(-1, 1)
        corr.coeff[3, 1] = rng.uniform(-1, 1)
        kappa = coefficients(int_ham_map(IntHamParams(gamma=tuple(rng.uniform(0, 2 * np.pi, 3))), corr).k_mat, 2)
        assert abs(kappa[2]) < 1e-14
        assert np.linalg.norm(kappa) <= 1.0 + 1e-12


def test_int_ham_b_matrix_identity():
    b = int_ham_b_matrix(IntHamParams(gamma=(0.0, 0.0, 0.0)), [0.0, 0.0, 0.0])
    q = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]])
    np.testing.assert_allclose(b.apply(q), q, atol=1e-14)


def test_int_ham_b_matrix_matches_map(pb22, rng):
    for _ in range(20):
        gamma = tuple(rng.uniform(0, 2 * np.pi, 3))
        corr = random_corr(rng, pb22)
        amap = int_ham_map(IntHamParams(gamma=gamma), corr)
        closed = int_ham_b_matrix(IntHamParams(gamma=gamma), coefficients(amap.k_mat, 2))
        np.testing.assert_allclose(closed.b, b_matrix(amap).b, atol=1e-12)


def test_int_ham_b_matrix_recovers_basis_images(pb22, rng):
    gamma = (1.9, 0.3, 0.8)
    corr = random_corr(rng, pb22)
    amap = int_ham_map(IntHamParams(gamma=gamma), corr)
    b = int_ham_b_matrix(IntHamParams(gamma=gamma), coefficients(amap.k_mat, 2))
    np.testing.assert_allclose(b.apply(np.eye(2, dtype=complex)), np.eye(2) + 2 * amap.k_mat, atol=1e-13)
    for j in range(3):
        np.testing.assert_allclose(b.apply(SIGMA[j]), apply_L(amap, SIGMA[j]), atol=1e-13)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------
def test_su2_identity():
    np.testing.assert_allclose(su2_from_rotation((0.0, 0.0, 0.0), 0.0), I2, atol=1e-15)


def test_su2_z_pi_conjugation():
    d = su2_from_rotation(AXIS_Z, np.pi)
    np.testing.assert_allclose(dagger(d) @ SIGMA[0] @ d, -SIGMA[0], atol=1e-14)


def test_su2_conjugation_matches_rotation(rng):
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, 2 * np.pi)
        rot = Rotation(axis=tuple(axis), angle=angle)
        d = su2_from_rotation(axis, angle)
        for j in range(3):
            expected = sum(rotation_matrix(rot)[j, k] * SIGMA[k] for k in range(3))
            np.testing.assert_allclose(dagger(d) @ SIGMA[j] @ d, expected, atol=1e-12)


def test_su2_composition_order(rng):
    # conjugating by D1 D2 applies the rotation matrix product R1 @ R2
    r1 = Rotation(axis=(1.0, 0.0, 0.0), angle=0.9)
    r2 = Rotation(axis=(0.0, 1.0, 0.0), angle=1.7)
    d12 = su2_from_rotation(r1.axis, r1.angle) @ su2_from_rotation(r2.axis, r2.angle)
    combined = rotation_matrix(r1) @ rotation_matrix(r2)
    for j in range(3):
        expected = sum(combined[j, k] * SIGMA[k] for k in range(3))
        np.testing.assert_allclose(dagger(d12) @ SIGMA[j] @ d12, expected, atol=1e-12)


def test_su2_rejects_non_unit_axis():
    # one rule: su2_from_rotation holds it, and Rotation applies it on construction
    for make in (su2_from_rotation, lambda axis, angle: Rotation(axis=axis, angle=angle)):
        with pytest.raises(ValueError, match="rotation axis must be unit length"):
            make((1.0, 1.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# two-momentum rotation family
# ---------------------------------------------------------------------------
def test_lorentz_equal_rotations_cp(pb22, rng):
    rot = Rotation(axis=(0.0, 1.0, 0.0), angle=1.1)
    corr = random_corr(rng, pb22)
    amap = map_from_unitary(lorentz_unitary(LorentzParams(r1=rot, r2=rot)), corr)
    np.testing.assert_allclose(amap.k_mat, 0.0, atol=1e-13)
    _, is_cp = choi_and_cp(amap)
    assert is_cp


def test_lorentz_kappa_example():
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[1, 1] = 0.8
    params = LorentzParams(r1=IDENTITY_ROT, r2=Rotation(axis=AXIS_Z, angle=np.pi))
    amap = map_from_unitary(lorentz_unitary(params), corr)
    np.testing.assert_allclose(coefficients(amap.k_mat, 2), [0.8, 0.0, 0.0], atol=1e-13)


def test_lorentz_map_matches_numeric_extraction(pb22, rng):
    for _ in range(50):
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        params = LorentzParams(
            r1=Rotation(axis=tuple(axes[0]), angle=rng.uniform(0, 2 * np.pi)),
            r2=Rotation(axis=tuple(axes[1]), angle=rng.uniform(0, 2 * np.pi)),
        )
        pi = random_density(4, rng)
        corr = expand_state(pi, pb22)
        closed = lorentz_closed_map(params, corr)
        for numeric in (extract_map(lorentz_unitary(params), pi, pb22), map_from_unitary(lorentz_unitary(params), corr)):
            np.testing.assert_allclose(closed.k_mat, numeric.k_mat, atol=1e-10)
            np.testing.assert_allclose(closed.g_ops, numeric.g_ops, atol=1e-10)


def test_lorentz_aligned_rotations_give_zero_kappa():
    # v along the axis of R1^-1 R2 is fixed by both rotations
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[3, 1] = 0.7
    params = LorentzParams(r1=IDENTITY_ROT, r2=Rotation(axis=AXIS_Z, angle=1.3))
    amap = map_from_unitary(lorentz_unitary(params), corr)
    np.testing.assert_allclose(amap.k_mat, 0.0, atol=1e-13)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_lorentz_kappa_is_at_most_one(pb22, seed, rank):
    # |kappa| = |R1 v - R2 v|/2 <= |v| <= 1, v = <sigma x1>: see lorentz_unitary
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(2, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    r1, r2 = (Rotation(axis=tuple(a), angle=float(t)) for a, t in zip(axes, rng.uniform(0, 2 * np.pi, 2)))
    corr = expand_state(random_density(4, rng, rank=rank), pb22)
    kappa = coefficients(map_from_unitary(lorentz_unitary(LorentzParams(r1=r1, r2=r2)), corr).k_mat, 2)
    assert np.linalg.norm(kappa) <= 1 + 1e-9


def test_lorentz_axis_component_drops_out(rng):
    # with the 3 axis along the axis of R1^-1 R2, varying <s3 x1> leaves kappa fixed
    base_axis = rng.normal(size=3)
    base_axis /= np.linalg.norm(base_axis)
    r1 = Rotation(axis=tuple(base_axis), angle=0.8)
    rel = Rotation(axis=AXIS_Z, angle=1.9)
    r1_mat_rel = rotation_matrix(r1) @ rotation_matrix(rel)
    # compose R2 = R1 * rel via su2 product: rotation matrices multiply directly
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[1, 1] = 0.3
    corr.coeff[2, 1] = -0.4
    kappas = []
    for s3x1 in (-0.5, 0.0, 0.5):
        corr.coeff[3, 1] = s3x1
        v = corr.coeff[1:, 1]
        kappas.append(0.5 * (rotation_matrix(r1) @ v - r1_mat_rel @ v))
    np.testing.assert_allclose(kappas[0], kappas[1], atol=1e-13)
    np.testing.assert_allclose(kappas[1], kappas[2], atol=1e-13)


def test_bloch_action_matches_apply(rng, pb22):
    amap = extract_map(random_unitary(4, rng), random_density(4, rng), pb22)
    t_mat, kappa = bloch_action(amap)
    a = np.array([0.2, -0.3, 0.4])
    rho = 0.5 * (I2 + np.einsum("j,jab->ab", a, SIGMA))
    out = apply_L(amap, rho) + amap.k_mat
    out_bloch = np.array([np.trace(SIGMA[j] @ out).real for j in range(3)])
    np.testing.assert_allclose(t_mat @ a + kappa, out_bloch, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_bloch_action_bits_match_pauli_contraction(rng, m):
    # reference: T and kappa contracted with the hand-written Pauli matrices; the Bloch
    # action reads both off build_basis(2) through basis.coefficients, so the two must
    # agree bit for bit
    pb = product_basis(2, m)
    for _ in range(20):
        amap = extract_map(random_unitary(2 * m, rng), random_density(2 * m, rng), pb)
        t_mat, kappa = bloch_action(amap)
        sigma = PAULIS[1:]
        assert np.array_equal(t_mat, 0.5 * np.einsum("jab,kba->jk", sigma, apply_L(amap, sigma)).real)
        assert np.array_equal(kappa, np.einsum("jab,ba->j", sigma, amap.k_mat).real)


# ---------------------------------------------------------------------------
# kappa bounds and search
# ---------------------------------------------------------------------------
def test_kappa_bounds_product_state(pb22, rng):
    coeffs = expand_state(np.kron(random_density(2, rng), I2 / 2), pb22)
    res = kappa_bounds_check(random_unitary(4, rng), coeffs)
    assert res.kappa_norm < 1e-12
    assert res.ok


def test_kappa_bounds_random_pairs(pb22, rng):
    for _ in range(200):
        coeffs = expand_state(random_density(4, rng), pb22)
        res = kappa_bounds_check(random_unitary(4, rng), coeffs)
        assert res.ok
        assert res.kappa_norm <= GOLDEN_KAPPA_BOUND + 1e-9


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_kappa_bounds_hold_for_haar_unitaries(pb22, seed, rank):
    rng = np.random.default_rng(seed)
    res = kappa_bounds_check(random_unitary(4, rng), expand_state(random_density(4, rng, rank), pb22))
    assert res.ok
    assert res.kappa_norm <= GOLDEN_KAPPA_BOUND + 1e-9


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_kappa_bounds_norm_equals_extracted_K(pb22, seed, rank):
    # the check reads kappa off w_operators; the norm is bit for bit the one of map_from_unitary's K
    rng = np.random.default_rng(seed)
    u = random_unitary(4, rng)
    coeffs = expand_state(random_density(4, rng, rank), pb22)
    k = map_from_unitary(u, coeffs).k_mat
    assert kappa_bounds_check(u, coeffs).kappa_norm == np.linalg.norm(coefficients(k, 2))


def test_kappa_bounds_meet_at_golden_ratio():
    a = (np.sqrt(5.0) - 1) / 2
    assert abs(np.sqrt(3 - a**2) - (1 + a)) < 1e-12
    assert abs((1 + a) - GOLDEN_KAPPA_BOUND) < 1e-12


def test_kappa_bounds_rejects_non_state(rng):
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.coeff[0, 1] = 0.9
    coeffs.coeff[3, 1] = 0.9
    with pytest.raises(ValueError):
        kappa_bounds_check(random_unitary(4, rng), coeffs)


def test_kappa_bounds_rejects_non_unitary(pb22, rng):
    coeffs = expand_state(random_density(4, rng), pb22)
    with pytest.raises(ValueError, match="not unitary"):
        kappa_bounds_check(1.01 * random_unitary(4, rng), coeffs)


def test_kappa_search_lorentz_reaches_limit():
    result = kappa_search("lorentz", trials=300, seed=3)
    assert result.best_kappa_norm >= 0.99
    assert result.best_kappa_norm <= 1.0 + 1e-9
    assert "r1" in result.witness and "coeff" in result.witness


def test_kappa_search_random_unitary_respects_global_bound():
    result = kappa_search("random_unitary", trials=100, seed=4)
    assert 0.0 < result.best_kappa_norm <= GOLDEN_KAPPA_BOUND + 1e-9


def test_kappa_search_int_ham_reported():
    result = kappa_search("int_ham", trials=60, seed=5)
    # no exact supremum is known for this family; only the global bound is asserted
    assert 0.5 < result.best_kappa_norm <= GOLDEN_KAPPA_BOUND + 1e-9
    assert "gamma" in result.witness


@pytest.mark.parametrize("family", ["int_ham", "random_unitary"])
@pytest.mark.parametrize("seed", range(6))
def test_kappa_search_stays_below_two_over_root_three(family, seed):
    """|kappa| <= 2/sqrt(3) for both families: observed, not proved.

    A scratch maximisation reached 2/sqrt(3) to within 1.6e-15 for both, and at 300 trials the largest
    result over seeds 0-29 was 2/sqrt(3) - 1.4e-6 for int_ham (seed 2 here) and 2/sqrt(3) - 4.0e-6 for
    random_unitary.  No search may exceed it by more than 1e-9.
    """
    assert kappa_search(family, trials=300, seed=seed).best_kappa_norm <= 2.0 / np.sqrt(3.0) + 1e-9


def test_kappa_search_deterministic():
    r1 = kappa_search("lorentz", trials=50, seed=11)
    r2 = kappa_search("lorentz", trials=50, seed=11)
    assert r1.best_kappa_norm == r2.best_kappa_norm


def test_kappa_search_rejects_bad_family():
    with pytest.raises(ValueError):
        kappa_search("nope", trials=1)
    with pytest.raises(ValueError):
        kappa_search("lorentz", trials=0)


def test_bounds_sweep_all_families():
    for family in ("int_ham", "lorentz", "random_unitary"):
        sweep = bounds_sweep(family, trials=50, seed=9)
        assert sweep.ok == sweep.checked == 50
        assert sweep.max_kappa_norm <= GOLDEN_KAPPA_BOUND


@pytest.mark.parametrize("trials", [0, -5])
def test_bounds_sweep_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        bounds_sweep("int_ham", trials)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_bounds_sweep_matches_per_trial_loop(pb22, family, monkeypatch):
    # reference: one family draw, one state and one check per trial, in the seeded order
    rng = np.random.default_rng(9)
    ok, max_norm, min_margin = 0, 0.0, np.inf
    for _ in range(50):
        u = FAMILIES[family].unitary(FAMILIES[family].draw(rng)[None])[0]
        res = kappa_bounds_check(u, expand_state(random_density(4, rng), pb22))
        ok += int(res.ok)
        max_norm = max(max_norm, res.kappa_norm)
        min_margin = min(min_margin, min(res.bound_a, res.bound_b) - res.kappa_norm)
    assert tuple(bounds_sweep(family, 50, seed=9)) == (50, ok, max_norm, float(min_margin))
    monkeypatch.setattr(qubit2, "_BLOCK", 16)  # four blocks keep the seeded order and every check
    assert tuple(bounds_sweep(family, 50, seed=9)) == (50, ok, max_norm, float(min_margin))


def test_bounds_sweep_memory_does_not_grow_with_the_trials():
    # about 3 KB a trial when every trial was drawn and built at once: the peak at 2 _BLOCK + 1
    # trials was twice that at _BLOCK
    def peak(trials):
        tracemalloc.start()
        try:
            bounds_sweep("lorentz", trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bounds_sweep("lorentz", 1)  # the cached product basis is built outside the trace
    assert peak(2 * qubit2._BLOCK + 1) <= 1.3 * peak(qubit2._BLOCK)


def record_sweep_expansions(monkeypatch):
    """Make qubit2's expand_states record the (states, tol) of every call; returns the record."""
    seen = []

    def record(pis, pb, tol):
        seen.append((pis.copy(), tol))
        return expand_states(pis, pb, tol)

    monkeypatch.setattr(qubit2, "expand_states", record)
    return seen


@pytest.mark.parametrize("family", list(FAMILIES))
def test_bounds_sweep_block_densities_are_random_density(family, monkeypatch):
    seen = record_sweep_expansions(monkeypatch)
    bounds_sweep(family, 70, seed=3)
    rng = np.random.default_rng(3)
    [(pis, _)] = seen
    assert len(pis) == 70
    for pi in pis:
        FAMILIES[family].draw(rng)
        assert np.array_equal(pi, random_density(4, rng))


def test_bounds_sweep_expands_states_at_its_tol(monkeypatch):
    seen = record_sweep_expansions(monkeypatch)
    sweep = bounds_sweep("lorentz", 20, seed=4, tol=1e-7)
    assert [tol for _, tol in seen] == [1e-7]
    assert sweep.ok == 20


def golden_refine_loop(f, lo, hi, iters):
    """Reference: golden-section search evaluating one point per step."""
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


GOLDEN_TARGETS = {
    "smooth peak": lambda x: np.exp(-((x - 0.3173) ** 2)),
    "plateau": lambda x: np.minimum(1.0 - np.abs(x - 0.4), 0.8),  # fc == fd ties on the flat top
    "step": lambda x: np.where(x < 0.61, 0.25, 1.0),
}


@pytest.mark.parametrize("iters", [1, 2, 3, 40, 41])
@pytest.mark.parametrize("target", list(GOLDEN_TARGETS))
def test_golden_refine_matches_one_point_search(target, iters):
    g = GOLDEN_TARGETS[target]
    calls = []

    def batched(xs):
        calls.append(len(xs))
        return g(xs)

    expected = golden_refine_loop(lambda x: g(np.array([x]))[0], -0.5, 1.5, iters)
    assert _golden_refine(batched, -0.5, 1.5, iters) == expected
    assert len(calls) == 1 + -(-iters // 3)


def test_kappa_search_witness_state_is_valid(pb22):
    result = kappa_search("int_ham", trials=40, seed=6)
    coeff = np.array(result.witness["coeff"])
    coeffs = JointStateCoeffs(n=2, m=2, coeff=coeff, free=np.zeros((4, 4), dtype=bool))
    assert np.linalg.eigvalsh(reconstruct_state(coeffs))[..., 0] >= -1e-9
    kappa = int_ham_kappa(IntHamParams(gamma=tuple(result.witness["gamma"])), coeffs)
    np.testing.assert_allclose(np.linalg.norm(kappa), result.best_kappa_norm, atol=1e-10)


# ---------------------------------------------------------------------------
# the W-operator kernel against the closed forms, and the pinned search
# ---------------------------------------------------------------------------
angles = st.floats(0.0, 2 * np.pi)


def kernel_kappa(u, pi):
    return np.einsum("jab,ba->j", w_operators(u, SIGMA, 2), pi).real


@settings(max_examples=50)
@given(gamma=st.tuples(angles, angles, angles), seed=st.integers(0, 2**32 - 1))
def test_w_operators_match_int_ham_kappa(pb22, gamma, seed):
    pi = random_density(4, np.random.default_rng(seed))
    p = IntHamParams(gamma=gamma)
    expected = int_ham_kappa(p, expand_state(pi, pb22))
    np.testing.assert_allclose(kernel_kappa(int_ham_unitary(p), pi), expected, atol=1e-12)


@settings(max_examples=50)
@given(angle1=angles, angle2=angles, seed=st.integers(0, 2**32 - 1))
def test_w_operators_match_lorentz_kappa(pb22, angle1, angle2, seed):
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(2, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    p = LorentzParams(
        r1=Rotation(axis=tuple(axes[0]), angle=angle1), r2=Rotation(axis=tuple(axes[1]), angle=angle2)
    )
    pi = random_density(4, rng)
    expected = coefficients(lorentz_closed_map(p, expand_state(pi, pb22)).k_mat, 2)
    np.testing.assert_allclose(kernel_kappa(lorentz_unitary(p), pi), expected, atol=1e-12)


def fixed_table(seed):
    """A fully fixed two-qubit coefficient table with entries in [-1, 1]; it is rarely a state."""
    coeff = np.random.default_rng(seed).uniform(-1, 1, (4, 4))
    coeff[0, 0] = 1.0
    return JointStateCoeffs(2, 2, coeff, np.zeros((4, 4), dtype=bool))


@settings(max_examples=60)
@given(
    family=st.sampled_from(["int_ham", "lorentz"]),
    seed=st.integers(0, 2**32 - 1),
    table=st.integers(0, 2**32 - 1).map(fixed_table),
)
@example(family="int_ham", seed=0, table=fig1_spec(False))
@example(family="int_ham", seed=0, table=fig2_spec())
@example(family="lorentz", seed=0, table=fig1_spec(False))
@example(family="lorentz", seed=0, table=fig2_spec())
def test_map_from_unitary_matches_closed_forms(family, seed, table):
    # K is linear in the mean values, so the constructor meets the closed forms on any table
    x = FAMILIES[family].draw(np.random.default_rng(seed))
    if family == "int_ham":
        p = IntHamParams(gamma=tuple(x))
        u, closed = int_ham_unitary(p), int_ham_closed_map(p, table)
    else:
        p = LorentzParams(r1=Rotation(tuple(x[:3]), x[3]), r2=Rotation(tuple(x[4:7]), x[7]))
        u, closed = lorentz_unitary(p), lorentz_closed_map(p, table)
    amap = map_from_unitary(u, table)
    np.testing.assert_allclose(amap.g_ops, closed.g_ops, rtol=0, atol=1e-14)
    np.testing.assert_allclose(amap.k_mat, closed.k_mat, rtol=0, atol=1e-14)


def witness_unitary(family, w):
    if family == "int_ham":
        return int_ham_unitary(IntHamParams(gamma=tuple(w["gamma"])))
    if family == "lorentz":
        return lorentz_unitary(LorentzParams(r1=Rotation(**w["r1"]), r2=Rotation(**w["r2"])))
    return from_pairs(w["unitary"])


# best |kappa| and bounds_sweep(family, 200, seed + 1) as first computed with
# the family-specific component operators
PINNED_SEARCH = [
    ("int_ham", 0, 1.1535466443706217, (200, 200, 0.6457719776860559, 0.5695347092181856), ["gamma"]),
    ("lorentz", 1, 1.0000000000000004, (200, 200, 0.6767576770263369, 0.631820296648583), ["r1", "r2"]),
    ("random_unitary", 2, 1.1545440808522143, (200, 200, 0.8204309136468106, 0.4695085488551751), ["unitary"]),
]


@pytest.mark.parametrize("family,seed,best,sweep,fields", PINNED_SEARCH)
def test_kappa_search_pinned(pb22, family, seed, best, sweep, fields):
    result = kappa_search(family, trials=200, seed=seed)
    assert abs(result.best_kappa_norm - best) < 1e-12
    np.testing.assert_allclose(bounds_sweep(family, trials=200, seed=seed + 1), sweep, rtol=0, atol=1e-12)
    w = result.witness
    assert list(w) == fields + ["kappa", "coeff"]
    # the witness reproduces the norm: kappa of Tr_R[U Pi U^dag] - Tr_R[U (rho (x) 1/2) U^dag]
    u = witness_unitary(family, w)
    pi = reconstruct_state(JointStateCoeffs(2, 2, np.array(w["coeff"]), np.zeros((4, 4), bool)))
    rho = partial_trace(pi, 2, 2)
    k = partial_trace(u @ (pi - np.kron(rho, I2 / 2)) @ dagger(u), 2, 2)
    assert abs(np.linalg.norm(coefficients(k, 2)) - result.best_kappa_norm) < 1e-9


# ---------------------------------------------------------------------------
# the batched search against per-slice evaluation
# ---------------------------------------------------------------------------
def family_stack(family, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([FAMILIES[family].draw(rng) for _ in range(count)])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_unitaries_batched_match_single(family):
    params = family_stack(family, 20, 7)
    stack = FAMILIES[family].unitary(params)
    single = np.array([FAMILIES[family].unitary(p[None])[0] for p in params])
    assert np.array_equal(stack, single)
    if family == "int_ham":
        assert np.array_equal(stack[0], int_ham_unitary(IntHamParams(gamma=tuple(params[0]))))
    if family == "lorentz":
        p = params[0]
        rot = LorentzParams(r1=Rotation(tuple(p[:3]), p[3]), r2=Rotation(tuple(p[4:7]), p[7]))
        assert np.array_equal(stack[0], lorentz_unitary(rot))


def best_state_kappa_loop(w_ops, iters=8):
    """Reference: the per-slice alternation on one (3, 4, 4) stack, as a plain loop."""
    weights = np.linalg.norm(w_ops.reshape(3, -1), axis=1)
    best = (0.0, np.zeros(3), np.eye(4, dtype=complex) / 4)
    if weights.max() < 1e-15:
        return best
    u_dir = weights / np.linalg.norm(weights)
    for _ in range(iters):
        psi = np.linalg.eigh(np.einsum("j,jab->ab", u_dir, w_ops))[1][:, -1]
        pi = np.outer(psi, psi.conj())
        kappa = np.einsum("jab,ba->j", w_ops, pi).real
        norm = float(np.linalg.norm(kappa))
        if norm > best[0]:
            best = (norm, kappa, pi)
        if norm < 1e-14:
            break
        u_dir = kappa / norm
    return best


@pytest.mark.parametrize("family", list(FAMILIES))
def test_best_state_kappa_batched_matches_slices(family):
    u = FAMILIES[family].unitary(family_stack(family, 30, 3))
    u = np.concatenate([u[:15], np.eye(4, dtype=complex)[None], u[15:]])  # U = 1 gives W = 0
    w = w_operators(u, SIGMA, 2)
    norms, kappas, states = _best_state_kappa(w)
    for i in range(len(u)):
        single = tuple(a[0] for a in _best_state_kappa(w[i : i + 1]))
        for norm, kappa, state in (best_state_kappa_loop(w[i]), single):
            assert abs(norms[i] - norm) < 1e-12
            np.testing.assert_allclose(kappas[i], kappa, rtol=0, atol=1e-12)
            np.testing.assert_allclose(states[i], state, rtol=0, atol=1e-12)
    assert norms[15] == 0.0 and np.array_equal(states[15], np.eye(4) / 4)
    assert (norms[np.arange(len(u)) != 15] > 0).all()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_best_state_kappa_equals_the_masked_loop(family):
    w = w_operators(FAMILIES[family].unitary(family_stack(family, 40, 5)), SIGMA, 2)
    w[3] = 0.0  # W = 0: never live, keeps the maximally mixed state
    w[[7, 20]] *= 1e-15  # live, but |kappa| falls below 1e-14 after the first step
    got = _best_state_kappa(w)
    for out, oracle in zip(got, best_state_kappa_masked(w)):
        assert np.array_equal(out, oracle)
    assert got[0][3] == 0.0 and (0.0 < got[0][[7, 20]]).all() and (got[0][[7, 20]] < 1e-14).all()
    assert (got[0][got[0] > 1e-14] > 0.1).all()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_kappa_search_blocks_do_not_change_result(family, monkeypatch):
    one_block = kappa_search(family, trials=40, seed=2)
    monkeypatch.setattr(qubit2, "_BLOCK", 16)
    assert kappa_search(family, trials=40, seed=2) == one_block


def test_kappa_search_trial_stage_is_the_per_trial_maximum():
    # random_unitary refines nothing, so the result is the best of the per-trial evaluations
    rng = np.random.default_rng(8)
    per_trial = [
        _best_state_kappa(w_operators(random_unitary(4, rng)[None], SIGMA, 2))[0][0] for _ in range(50)
    ]
    assert kappa_search("random_unitary", trials=50, seed=8).best_kappa_norm == max(per_trial)


def test_int_ham_closed_form_witness_reaches_two_over_root_three():
    g = np.arccos(1 / np.sqrt(3))
    u = int_ham_unitary(IntHamParams(gamma=(g, g, g)))
    norm, kappa, pi = (a[0] for a in _best_state_kappa(w_operators(u[None], SIGMA, 2)))
    assert abs(norm - 2 / np.sqrt(3)) < 1e-12
    assert abs(np.trace(pi) - 1) < 1e-12 and np.linalg.eigvalsh(pi)[0] > -1e-12
    # the state reproduces the norm: kappa of Tr_R[U (Pi - rho (x) 1/2) U^dag]
    rho = partial_trace(pi, 2, 2)
    k = partial_trace(u @ (pi - np.kron(rho, I2 / 2)) @ dagger(u), 2, 2)
    np.testing.assert_allclose(coefficients(k, 2), kappa, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(coefficients(k, 2)) - 2 / np.sqrt(3)) < 1e-12
