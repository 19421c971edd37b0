import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinemaps.basis import JointStateCoeffs, expand_state, reconstruct_state, transfer_matrix
from affinemaps.linalg import dagger, from_pairs, kron, partial_trace, random_density, random_unitary
from affinemaps.maps import apply_L, b_matrix, choi_and_cp, extract_map, w_operators
from affinemaps import qubit2
from affinemaps.qubit2 import (
    FAMILIES,
    GOLDEN_KAPPA_BOUND,
    I2,
    SIGMA,
    IntHamParams,
    LorentzParams,
    Rotation,
    bloch_action,
    bounds_sweep,
    int_ham_b_matrix,
    int_ham_kappa,
    int_ham_map,
    int_ham_unitary,
    kappa_bounds_check,
    kappa_search,
    kappa_vector,
    lorentz_map,
    lorentz_unitary,
    su2_from_rotation,
    _best_state_kappa,
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
    np.testing.assert_allclose(u, -1j * kron(SIGMA[2], SIGMA[2]), atol=1e-14)


def test_int_ham_unitary_matches_eigendecomposition(rng):
    from affinemaps.linalg import unitary_from_hermitian

    for _ in range(10):
        gamma = rng.uniform(0, 2 * np.pi, 3)
        h = sum(gamma[j] * kron(SIGMA[j], SIGMA[j]) for j in range(3))
        np.testing.assert_allclose(
            int_ham_unitary(IntHamParams(gamma=tuple(gamma))),
            unitary_from_hermitian(h, 0.5),
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
    t = transfer_matrix(int_ham_unitary(IntHamParams(gamma=tuple(gamma))), pb22)
    for j, terms in enumerate(heisenberg_terms(gamma), start=1):
        row = t.t[t.index(j, 0)].copy()
        for (mu, nu), val in terms.items():
            assert abs(row[t.index(mu, nu)] - val) < 1e-12, (j, mu, nu)
            row[t.index(mu, nu)] = 0.0
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
    kappa = int_ham_kappa(IntHamParams(gamma=(0.0, 0.0, wt)), corr)
    np.testing.assert_allclose(kappa, [-b * np.sin(wt), a * np.sin(wt), 0.0], atol=1e-14)


def test_int_ham_map_matches_numeric_extraction(pb22, rng):
    for _ in range(50):
        gamma = tuple(rng.uniform(0, 2 * np.pi, 3))
        pi = random_density(4, rng)
        corr = expand_state(pi, pb22)
        closed = int_ham_map(IntHamParams(gamma=gamma), corr)
        numeric = extract_map(int_ham_unitary(IntHamParams(gamma=gamma)), pi, pb22)
        np.testing.assert_allclose(closed.k_mat, numeric.k_mat, atol=1e-10)
        np.testing.assert_allclose(closed.g_ops, numeric.g_ops, atol=1e-10)


def test_int_ham_two_coefficient_family_bound(rng):
    # only <x1> and <s3 x1> nonzero: kappa_3 = 0 and |kappa| <= 1
    for _ in range(100):
        corr = JointStateCoeffs.blank(2, 2)
        corr.coeff[0, 1] = rng.uniform(-1, 1)
        corr.coeff[3, 1] = rng.uniform(-1, 1)
        kappa = int_ham_kappa(IntHamParams(gamma=tuple(rng.uniform(0, 2 * np.pi, 3))), corr)
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
        closed = int_ham_b_matrix(IntHamParams(gamma=gamma), kappa_vector(amap.k_mat))
        np.testing.assert_allclose(closed.b, b_matrix(amap).b, atol=1e-12)


def test_int_ham_b_matrix_recovers_basis_images(pb22, rng):
    gamma = (1.9, 0.3, 0.8)
    corr = random_corr(rng, pb22)
    amap = int_ham_map(IntHamParams(gamma=gamma), corr)
    b = int_ham_b_matrix(IntHamParams(gamma=gamma), kappa_vector(amap.k_mat))
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
            expected = sum(rot.matrix[j, k] * SIGMA[k] for k in range(3))
            np.testing.assert_allclose(dagger(d) @ SIGMA[j] @ d, expected, atol=1e-12)


def test_su2_composition_order(rng):
    # conjugating by D1 D2 applies the rotation matrix product R1 @ R2
    r1 = Rotation(axis=(1.0, 0.0, 0.0), angle=0.9)
    r2 = Rotation(axis=(0.0, 1.0, 0.0), angle=1.7)
    d12 = su2_from_rotation(r1.axis, r1.angle) @ su2_from_rotation(r2.axis, r2.angle)
    combined = r1.matrix @ r2.matrix
    for j in range(3):
        expected = sum(combined[j, k] * SIGMA[k] for k in range(3))
        np.testing.assert_allclose(dagger(d12) @ SIGMA[j] @ d12, expected, atol=1e-12)


def test_su2_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        su2_from_rotation((1.0, 1.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# two-momentum rotation family
# ---------------------------------------------------------------------------
def test_lorentz_equal_rotations_cp(pb22, rng):
    rot = Rotation(axis=(0.0, 1.0, 0.0), angle=1.1)
    corr = random_corr(rng, pb22)
    amap = lorentz_map(LorentzParams(r1=rot, r2=rot), corr)
    np.testing.assert_allclose(amap.k_mat, 0.0, atol=1e-13)
    _, is_cp = choi_and_cp(amap)
    assert is_cp


def test_lorentz_kappa_example():
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[1, 1] = 0.8
    amap = lorentz_map(LorentzParams(r1=IDENTITY_ROT, r2=Rotation(axis=AXIS_Z, angle=np.pi)), corr)
    np.testing.assert_allclose(kappa_vector(amap.k_mat), [0.8, 0.0, 0.0], atol=1e-13)


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
        closed = lorentz_map(params, corr)
        numeric = extract_map(lorentz_unitary(params), pi, pb22)
        np.testing.assert_allclose(closed.k_mat, numeric.k_mat, atol=1e-10)
        np.testing.assert_allclose(closed.g_ops, numeric.g_ops, atol=1e-10)


def test_lorentz_aligned_rotations_give_zero_kappa():
    # v along the axis of R1^-1 R2 is fixed by both rotations
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[3, 1] = 0.7
    amap = lorentz_map(LorentzParams(r1=IDENTITY_ROT, r2=Rotation(axis=AXIS_Z, angle=1.3)), corr)
    np.testing.assert_allclose(amap.k_mat, 0.0, atol=1e-13)


def test_lorentz_axis_component_drops_out(rng):
    # with the 3 axis along the axis of R1^-1 R2, varying <s3 x1> leaves kappa fixed
    base_axis = rng.normal(size=3)
    base_axis /= np.linalg.norm(base_axis)
    r1 = Rotation(axis=tuple(base_axis), angle=0.8)
    rel = Rotation(axis=AXIS_Z, angle=1.9)
    r1_mat_rel = r1.matrix @ rel.matrix
    # compose R2 = R1 * rel via su2 product: rotation matrices multiply directly
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[1, 1] = 0.3
    corr.coeff[2, 1] = -0.4
    kappas = []
    for s3x1 in (-0.5, 0.0, 0.5):
        corr.coeff[3, 1] = s3x1
        v = corr.coeff[1:, 1]
        kappas.append(0.5 * (r1.matrix @ v - r1_mat_rel @ v))
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


# ---------------------------------------------------------------------------
# kappa bounds and search
# ---------------------------------------------------------------------------
def test_kappa_bounds_product_state(pb22, rng):
    coeffs = expand_state(kron(random_density(2, rng), I2 / 2), pb22)
    res = kappa_bounds_check(random_unitary(4, rng), coeffs)
    assert res.kappa_norm < 1e-12
    assert res.ok


def test_kappa_bounds_random_pairs(pb22, rng):
    for _ in range(200):
        coeffs = expand_state(random_density(4, rng), pb22)
        res = kappa_bounds_check(random_unitary(4, rng), coeffs)
        assert res.ok
        assert res.kappa_norm <= GOLDEN_KAPPA_BOUND + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_kappa_bounds_hold_for_haar_unitaries(pb22, seed, rank):
    rng = np.random.default_rng(seed)
    res = kappa_bounds_check(random_unitary(4, rng), expand_state(random_density(4, rng, rank), pb22))
    assert res.ok
    assert res.kappa_norm <= GOLDEN_KAPPA_BOUND + 1e-9


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


def test_kappa_search_witness_state_is_valid(pb22):
    result = kappa_search("int_ham", trials=40, seed=6)
    coeff = np.array(result.witness["coeff"])
    coeffs = JointStateCoeffs(n=2, m=2, coeff=coeff, free=np.zeros((4, 4), dtype=bool))
    from affinemaps.basis import reconstruct_state
    from affinemaps.linalg import is_psd

    assert is_psd(reconstruct_state(coeffs, pb22))
    kappa = int_ham_kappa(IntHamParams(gamma=tuple(result.witness["gamma"])), coeffs)
    np.testing.assert_allclose(np.linalg.norm(kappa), result.best_kappa_norm, atol=1e-10)


# ---------------------------------------------------------------------------
# the W-operator kernel against the closed forms, and the pinned search
# ---------------------------------------------------------------------------
angles = st.floats(0.0, 2 * np.pi)


def kernel_kappa(u, pi):
    return np.einsum("jab,ba->j", w_operators(u, SIGMA, 2), pi).real


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gamma=st.tuples(angles, angles, angles), seed=st.integers(0, 2**32 - 1))
def test_w_operators_match_int_ham_kappa(pb22, gamma, seed):
    pi = random_density(4, np.random.default_rng(seed))
    p = IntHamParams(gamma=gamma)
    expected = int_ham_kappa(p, expand_state(pi, pb22))
    np.testing.assert_allclose(kernel_kappa(int_ham_unitary(p), pi), expected, atol=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(angle1=angles, angle2=angles, seed=st.integers(0, 2**32 - 1))
def test_w_operators_match_lorentz_kappa(pb22, angle1, angle2, seed):
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(2, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    p = LorentzParams(
        r1=Rotation(axis=tuple(axes[0]), angle=angle1), r2=Rotation(axis=tuple(axes[1]), angle=angle2)
    )
    pi = random_density(4, rng)
    expected = kappa_vector(lorentz_map(p, expand_state(pi, pb22)).k_mat)
    np.testing.assert_allclose(kernel_kappa(lorentz_unitary(p), pi), expected, atol=1e-12)


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
    pi = reconstruct_state(JointStateCoeffs(2, 2, np.array(w["coeff"]), np.zeros((4, 4), bool)), pb22)
    rho = partial_trace(pi, 2, 2)
    k = partial_trace(u @ (pi - kron(rho, I2 / 2)) @ dagger(u), 2, 2)
    assert abs(np.linalg.norm(kappa_vector(k)) - result.best_kappa_norm) < 1e-9


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
    k = partial_trace(u @ (pi - kron(rho, I2 / 2)) @ dagger(u), 2, 2)
    np.testing.assert_allclose(kappa_vector(k), kappa, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(kappa_vector(k)) - 2 / np.sqrt(3)) < 1e-12
