import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import heisenberg_rows, rotation_matrix

from affinemaps.basis import JointStateCoeffs, build_basis, coefficients, expand_state, product_basis, traceless_operator
from affinemaps.linalg import dagger, partial_trace, random_density, random_unitary
from affinemaps.maps import (
    AffineMap,
    apply_L,
    apply_affine,
    b_matrix,
    choi_and_cp,
    choi_matrix,
    extract_G,
    extract_map,
    map_from_unitary,
    map_from_json,
    map_to_json,
    map_to_json_dict,
    pm_decomposition,
    purity_delta,
    w_operators,
)
from affinemaps.qubit2 import (
    I2,
    SIGMA,
    IntHamParams,
    LorentzParams,
    Rotation,
    int_ham_unitary,
    kappa_bounds_check,
    lorentz_unitary,
    su2_from_rotation,
)

AXIS_Z = (0.0, 0.0, 1.0)
DIMS = [(2, 2), (3, 2), (2, 3), (3, 3)]


# ---------------------------------------------------------------------------
# joint-space brute-force oracles
# ---------------------------------------------------------------------------
def evolve_joint(u, pi, n, m):
    return partial_trace(u @ pi @ dagger(u), n, m)


def l_by_partial_trace(u, q, n, m):
    return partial_trace(u @ np.kron(q, np.eye(m) / m) @ dagger(u), n, m)


def identity_with_kappa(kappa):
    """Qubit map with L = id and the given inhomogeneous Bloch vector."""
    return AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=traceless_operator(kappa, 2))


def random_k_zero_map(rng, n=2, m=2):
    pb = product_basis(n, m)
    g = extract_G(random_unitary(n * m, rng), pb.basis_r)
    return AffineMap(n=n, m=m, g_ops=g, k_mat=np.zeros((n, n), dtype=complex))


def random_map(rng, n=2, m=2):
    pb = product_basis(n, m)
    return extract_map(random_unitary(n * m, rng), random_density(n * m, rng), pb)


# ---------------------------------------------------------------------------
# extract_G
# ---------------------------------------------------------------------------
def test_extract_G_identity(pb22):
    g = extract_G(np.eye(4, dtype=complex), pb22.basis_r)
    np.testing.assert_allclose(g[0], I2, atol=1e-14)
    np.testing.assert_allclose(g[1:], 0.0, atol=1e-14)


def test_extract_G_single_angle(pb22):
    # commuting exponential expands to cos(g/2) 1 - i sin(g/2) s3 x3
    gamma = 1.1
    u = int_ham_unitary(IntHamParams(gamma=(0.0, 0.0, gamma)))
    g = extract_G(u, pb22.basis_r)
    np.testing.assert_allclose(g[0], np.cos(gamma / 2) * I2, atol=1e-13)
    np.testing.assert_allclose(g[1], 0.0, atol=1e-13)
    np.testing.assert_allclose(g[2], 0.0, atol=1e-13)
    np.testing.assert_allclose(g[3], -1j * np.sin(gamma / 2) * SIGMA[2], atol=1e-13)


def test_extract_G_two_momentum_family(pb22):
    r1 = Rotation(axis=AXIS_Z, angle=0.7)
    r2 = Rotation(axis=(1.0, 0.0, 0.0), angle=2.1)
    u = lorentz_unitary(LorentzParams(r1=r1, r2=r2))
    d1 = su2_from_rotation(r1.axis, r1.angle)
    d2 = su2_from_rotation(r2.axis, r2.angle)
    g = extract_G(u, pb22.basis_r)
    np.testing.assert_allclose(g[0], 0.5 * (d1 + d2), atol=1e-13)
    np.testing.assert_allclose(g[1], 0.5 * (d1 - d2), atol=1e-13)
    np.testing.assert_allclose(g[2:], 0.0, atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_extract_G_reconstructs_unitary(dims, rng):
    pb = product_basis(*dims)
    u = random_unitary(pb.dim, rng)
    g = extract_G(u, pb.basis_r)
    rebuilt = sum(np.kron(g[nu], pb.basis_r[nu]) for nu in range(pb.m**2))
    np.testing.assert_allclose(rebuilt, u, atol=1e-10)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_extract_G_completeness(dims, rng):
    pb = product_basis(*dims)
    for _ in range(20):
        g = extract_G(random_unitary(pb.dim, rng), pb.basis_r)
        left = np.einsum("nji,njk->ik", g.conj(), g)
        right = np.einsum("nij,nkj->ik", g, g.conj())
        np.testing.assert_allclose(left, np.eye(pb.n), atol=1e-10)
        np.testing.assert_allclose(right, np.eye(pb.n), atol=1e-10)


@settings(max_examples=40)
@given(dims=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1))
def test_extract_G_completeness_sums_hold_for_any_unitary(dims, seed):
    # sum_nu G(nu)^dag G(nu) = 1 (trace preservation) and sum_nu G(nu) G(nu)^dag = 1 (L(1) = 1)
    pb = product_basis(*dims)
    g = extract_G(random_unitary(pb.dim, np.random.default_rng(seed)), pb.basis_r)
    np.testing.assert_allclose(np.einsum("nji,njk->ik", g.conj(), g), np.eye(pb.n), rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.einsum("nij,nkj->ik", g, g.conj()), np.eye(pb.n), rtol=0, atol=1e-10)


def test_extract_G_rejects_non_unitary(pb22):
    with pytest.raises(ValueError):
        extract_G(np.eye(4) * 1.5, pb22.basis_r)


# ---------------------------------------------------------------------------
# apply_L
# ---------------------------------------------------------------------------
def test_apply_L_unital(rng):
    amap = random_map(rng)
    np.testing.assert_allclose(apply_L(amap, I2), I2, atol=1e-12)


def test_apply_L_matches_partial_trace_form(rng):
    for dims in [(2, 2), (2, 3), (3, 2)]:
        pb = product_basis(*dims)
        for _ in range(70):
            u = random_unitary(pb.dim, rng)
            amap = AffineMap(
                n=pb.n, m=pb.m, g_ops=extract_G(u, pb.basis_r),
                k_mat=np.zeros((pb.n, pb.n), dtype=complex),
            )
            q = rng.normal(size=(pb.n, pb.n)) + 1j * rng.normal(size=(pb.n, pb.n))
            np.testing.assert_allclose(
                apply_L(amap, q), l_by_partial_trace(u, q, pb.n, pb.m), atol=1e-10
            )


def test_apply_L_batched(rng):
    amap = random_map(rng, n=3, m=2)
    q = rng.normal(size=(2, 4, 3, 3)) + 1j * rng.normal(size=(2, 4, 3, 3))
    b = b_matrix(amap)
    batched_l, batched_ext = apply_L(amap, q), b.apply(q)
    for idx in np.ndindex(2, 4):
        np.testing.assert_array_equal(batched_l[idx], apply_L(amap, q[idx]))
        np.testing.assert_array_equal(batched_ext[idx], b.apply(q[idx]))
    with pytest.raises(ValueError):
        apply_L(amap, q[..., :2])


@settings(max_examples=40)
@given(dims=st.sampled_from(DIMS), lead=st.sampled_from([(), (3,), (2, 4)]), seed=st.integers(0, 2**32 - 1))
def test_apply_L_matches_operator_sum(dims, lead, seed):
    # L through the homogeneous B array equals sum_nu G Q G^dag and the B matrix of the K = 0 map
    n, m = dims
    rng = np.random.default_rng(seed)
    amap = random_k_zero_map(rng, n, m)
    q = rng.normal(size=lead + (n, n)) + 1j * rng.normal(size=lead + (n, n))
    explicit = sum(g @ q @ dagger(g) for g in amap.g_ops)
    np.testing.assert_allclose(apply_L(amap, q), explicit, rtol=0, atol=1e-13)
    np.testing.assert_allclose(b_matrix(amap).apply(q), apply_L(amap, q), rtol=0, atol=1e-13)


def test_apply_L_interaction_contraction(pb22):
    gamma = (0.4, 0.9, 1.7)
    u = int_ham_unitary(IntHamParams(gamma=gamma))
    amap = AffineMap(
        n=2, m=2, g_ops=extract_G(u, pb22.basis_r), k_mat=np.zeros((2, 2), dtype=complex)
    )
    factors = [
        np.cos(gamma[1]) * np.cos(gamma[2]),
        np.cos(gamma[2]) * np.cos(gamma[0]),
        np.cos(gamma[0]) * np.cos(gamma[1]),
    ]
    for j in range(3):
        np.testing.assert_allclose(apply_L(amap, SIGMA[j]), factors[j] * SIGMA[j], atol=1e-12)


def test_apply_L_two_momentum_rotation_average(pb22):
    r1 = Rotation(axis=AXIS_Z, angle=1.2)
    r2 = Rotation(axis=(0.0, 1.0, 0.0), angle=0.5)
    u = lorentz_unitary(LorentzParams(r1=r1, r2=r2))
    amap = AffineMap(
        n=2, m=2, g_ops=extract_G(u, pb22.basis_r), k_mat=np.zeros((2, 2), dtype=complex)
    )
    for j in range(3):
        # rows of the inverse rotations give the conjugated Pauli expansion
        expected = 0.5 * sum(
            (rotation_matrix(r1).T[j, k] + rotation_matrix(r2).T[j, k]) * SIGMA[k] for k in range(3)
        )
        np.testing.assert_allclose(apply_L(amap, SIGMA[j]), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# K: map_from_unitary, and extract_map on a joint density matrix
# ---------------------------------------------------------------------------
def test_extract_K_mixed_environment_product(pb22, rng):
    # K vanishes exactly when Pi equals rho (x) 1/M
    u = random_unitary(4, rng)
    pi = np.kron(random_density(2, rng), I2 / 2)
    np.testing.assert_allclose(extract_map(u, pi, pb22).k_mat, 0.0, atol=1e-12)


def test_extract_K_single_angle_coefficient(pb22):
    # gamma = (0, 0, g), <s1 x3> = c: kappa = (0, c sin g, 0)
    gamma, c = 0.8, 0.35
    u = int_ham_unitary(IntHamParams(gamma=(0.0, 0.0, gamma)))
    pi = 0.25 * (np.eye(4) + c * np.kron(SIGMA[0], SIGMA[2]))
    k = extract_map(u, pi, pb22).k_mat
    np.testing.assert_allclose(coefficients(k, 2), [0.0, c * np.sin(gamma), 0.0], atol=1e-13)


def test_extract_K_two_momentum_example(pb22):
    # R1 = id, R2 = rotation by pi about axis 3, <s1 x1> = 0.8: kappa = (0.8, 0, 0)
    params = LorentzParams(
        r1=Rotation(axis=(0.0, 0.0, 0.0), angle=0.0), r2=Rotation(axis=AXIS_Z, angle=np.pi)
    )
    u = lorentz_unitary(params)
    pi = 0.25 * (np.eye(4) + 0.8 * np.kron(SIGMA[0], SIGMA[0]))
    k = extract_map(u, pi, pb22).k_mat
    np.testing.assert_allclose(coefficients(k, 2), [0.8, 0.0, 0.0], atol=1e-12)


@settings(max_examples=40)
@given(dims=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1))
def test_extract_K_matches_brute_force(dims, seed):
    # K = Tr_R[U Pi U^dag] - L(rho), with L(rho) = Tr_R[U (rho (x) 1/M) U^dag]
    n, m = dims
    rng = np.random.default_rng(seed)
    u, pi = random_unitary(n * m, rng), random_density(n * m, rng)
    rho = partial_trace(pi, n, m)
    expected = evolve_joint(u, pi, n, m) - l_by_partial_trace(u, rho, n, m)
    np.testing.assert_allclose(extract_map(u, pi, product_basis(n, m)).k_mat, expected, atol=1e-12)


def test_extract_K_independent_of_subsystem_coefficients(rng):
    # any subsystem column <F_{alpha 0}>, a state's or not, leaves K unchanged, and so does freeing it
    for n, m in DIMS * 3:
        u = random_unitary(n * m, rng)
        spec = expand_state(random_density(n * m, rng), product_basis(n, m))
        k = map_from_unitary(u, spec).k_mat
        spec.coeff[1:, 0] = rng.uniform(-3, 3, size=n**2 - 1)
        np.testing.assert_allclose(map_from_unitary(u, spec).k_mat, k, rtol=0, atol=1e-14)
        spec.free[1:, 0] = True
        np.testing.assert_allclose(map_from_unitary(u, spec).k_mat, k, rtol=0, atol=1e-14)


def test_extract_K_rejects_non_state(pb22, rng):
    u = random_unitary(4, rng)
    with pytest.raises(ValueError, match="joint state is not positive semidefinite"):
        extract_map(u, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), pb22)


def test_map_from_unitary_rejects_a_free_entry_that_enters_K(pb22, rng):
    spec = JointStateCoeffs.blank(2, 2)
    spec.free[2, 3] = True
    with pytest.raises(ValueError, match=r"coeff\[2, 3\] is free but enters K"):
        map_from_unitary(random_unitary(4, rng), spec)


def test_map_from_unitary_ignores_free_entries_of_zero_weight(pb22):
    # int_ham reads no diagonal correlation <s_j x_j>, so those may stay free
    u = int_ham_unitary(IntHamParams(gamma=(0.4, 1.3, 2.2)))
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[0, 1:] = spec.coeff[1, 2] = 0.25
    fixed = map_from_unitary(u, spec)
    spec.coeff[1, 1] = spec.coeff[2, 2] = 0.5  # placeholder values of free entries are not read
    spec.free[[1, 2, 3], [1, 2, 3]] = True
    amap = map_from_unitary(u, spec)
    assert np.array_equal(amap.k_mat, fixed.k_mat) and np.array_equal(amap.g_ops, fixed.g_ops)


@settings(max_examples=30)
@given(dims=st.sampled_from([(2, 2), (3, 2), (3, 3)]), seed=st.integers(0, 2**32 - 1))
def test_extract_map_reads_pi_as_the_constructor_reads_its_mean_values(dims, seed):
    n, m = dims
    rng = np.random.default_rng(seed)
    pb = product_basis(n, m)
    u, pi = random_unitary(n * m, rng), random_density(n * m, rng)
    direct, via = extract_map(u, pi, pb), map_from_unitary(u, expand_state(pi, pb))
    assert np.array_equal(direct.g_ops, via.g_ops)
    np.testing.assert_allclose(direct.k_mat, via.k_mat, rtol=0, atol=1e-15)


def test_extract_map_rejects_a_state_of_other_dims(pb22):
    with pytest.raises(ValueError, match=r"state has shape \(6, 6\), basis expects \(4,4\)"):
        extract_map(np.eye(4), np.eye(6) / 6, pb22)


@pytest.mark.parametrize("dims", [(2, 1), (3, 2), (2, 3)])
def test_map_from_unitary_rejects_a_unitary_of_other_dims(rng, dims):
    with pytest.raises(ValueError, match=r"unitary has shape \(4, 4\)"):
        map_from_unitary(random_unitary(4, rng), JointStateCoeffs.blank(*dims))


def with_nan(a):
    """A complex copy of ``a`` with its [0, 1] entry NaN."""
    a = np.array(a, dtype=complex)
    a[0, 1] = np.nan
    return a


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: map_from_unitary(with_nan(np.eye(4)), JointStateCoeffs.blank(2, 2)), "not unitary"),
        (lambda: kappa_bounds_check(with_nan(np.eye(4)), JointStateCoeffs.blank(2, 2)), "not unitary"),
        (lambda: AffineMap(n=2, m=1, g_ops=np.eye(2)[None], k_mat=with_nan(np.zeros((2, 2)))), "K is not Hermitian"),
        (lambda: AffineMap(n=2, m=1, g_ops=with_nan(np.eye(2))[None], k_mat=np.zeros((2, 2))), "completeness"),
    ],
    ids=["map_from_unitary", "kappa_bounds_check", "AffineMap-K", "AffineMap-G"],
)
def test_nan_fails_every_tolerance_check(build, match):
    # a deviation of NaN compares False with any tolerance, so each check is written `not dev <= tol`
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: AffineMap(n=2, m=2, g_ops=np.eye(2)[None], k_mat=np.zeros((2, 2))), r"expected 4 operators of size 2, got \(1, 2, 2\)"),
        (lambda: AffineMap(n=2, m=1, g_ops=np.eye(2)[None], k_mat=np.zeros((3, 3))), r"K must be 2x2, got \(3, 3\)"),
        (lambda: extract_G(np.eye(3), build_basis(2)), "unitary dimension 3 not divisible by environment dimension 2"),
        (lambda: apply_affine(identity_with_kappa([0.0, 0.0, 0.0]), np.eye(3) / 3), r"state must be 2x2, got \(3, 3\)"),
    ],
    ids=["AffineMap-G", "AffineMap-K", "extract_G", "apply_affine"],
)
def test_shape_mismatch_is_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# ---------------------------------------------------------------------------
# apply_affine / the linear extension Q -> L(Q) + K Tr Q (BMatrix.apply)
# ---------------------------------------------------------------------------
def test_apply_affine_identity_map():
    amap = identity_with_kappa([0.0, 0.0, 0.0])
    rho = 0.5 * (I2 + 0.3 * SIGMA[0])
    np.testing.assert_allclose(apply_affine(amap, rho), rho, atol=1e-14)


def test_apply_affine_end_to_end(pb22, rng):
    for _ in range(50):
        u = random_unitary(4, rng)
        pi = random_density(4, rng)
        amap = extract_map(u, pi, pb22)
        rho = partial_trace(pi, 2, 2)
        np.testing.assert_allclose(
            apply_affine(amap, rho), evolve_joint(u, pi, 2, 2), atol=1e-10
        )


def test_apply_affine_shifts_maximally_mixed():
    amap = identity_with_kappa([0.0, 0.0, 0.4])
    out = apply_affine(amap, I2 / 2)
    np.testing.assert_allclose(out, 0.5 * (I2 + 0.4 * SIGMA[2]), atol=1e-14)


def test_b_matrix_apply_traceless_input(rng):
    amap = random_map(rng)
    q = 0.7 * SIGMA[0] + 0.2 * SIGMA[2]
    np.testing.assert_allclose(b_matrix(amap).apply(q), apply_L(amap, q), atol=1e-13)


def test_b_matrix_apply_identity_image(rng):
    amap = random_map(rng)
    np.testing.assert_allclose(
        b_matrix(amap).apply(I2), np.eye(2) + 2 * amap.k_mat, atol=1e-12
    )
    np.testing.assert_allclose(amap.one_prime, np.eye(2) + 2 * amap.k_mat, atol=1e-14)


def test_b_matrix_apply_additive(rng):
    b = b_matrix(random_map(rng))
    for _ in range(10):
        q1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(b.apply(q1 + q2), b.apply(q1) + b.apply(q2), atol=1e-12)


# ---------------------------------------------------------------------------
# B matrix
# ---------------------------------------------------------------------------
def test_b_matrix_identity_action(rng):
    amap = identity_with_kappa([0.0, 0.0, 0.0])
    b = b_matrix(amap)
    q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(b.apply(q), q, atol=1e-14)


def test_b_matrix_matches_operator_sum_on_matrix_units(rng):
    # Q -> sum_nu G Q G^dag + K Tr Q on every E_jk
    amap = random_map(rng)
    b = b_matrix(amap)
    for j in range(2):
        for k in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[j, k] = 1.0
            explicit = sum(g @ e @ dagger(g) for g in amap.g_ops) + amap.k_mat * (j == k)
            np.testing.assert_allclose(b.apply(e), explicit, atol=1e-10)


@pytest.mark.parametrize("dims", DIMS)
def test_b_matrix_bytes_unchanged(rng, dims):
    # reference: the sum over nu as one einsum, plus K (x) 1, rounded as b_matrix must round it
    amap = random_map(rng, *dims)
    g, n = amap.g_ops, amap.n
    old = np.einsum("nrj,nsk->rjsk", g, g.conj()) + np.einsum("rs,jk->rjsk", amap.k_mat, np.eye(n))
    np.testing.assert_array_equal(b_matrix(amap).b, old.reshape(n**2, n**2))


def test_b_matrix_choi_reshuffle(rng):
    # Choi[(j,a),(k,b)] = B[(a,j),(b,k)]
    amap = random_map(rng)
    b = b_matrix(amap).b
    choi = choi_matrix(amap)
    reshuffled = choi.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    np.testing.assert_allclose(reshuffled, b, atol=1e-12)


@pytest.mark.parametrize("dims", DIMS)
def test_choi_is_reindexed_b_matrix(rng, dims):
    # reference: the linear extension of the matrix units E_jk, arranged as blocks and symmetrized
    # a K read from JSON may be Hermitian only to tolerance, hence the second map
    n, m = dims
    units = np.eye(n**2, dtype=complex).reshape(n, n, n, n)  # units[j, k] = E_jk
    for _ in range(20):
        exact = random_map(rng, n, m)
        skewed = AffineMap(n, m, exact.g_ops, exact.k_mat + 1e-10 * (np.eye(n, k=1) - np.eye(n, k=-1)))
        for amap in (exact, skewed):
            ext = apply_L(amap, units) + amap.k_mat * np.trace(units, axis1=-2, axis2=-1)[..., None, None]
            c = ext.transpose(0, 2, 1, 3).reshape(n**2, n**2)
            assert np.array_equal(choi_matrix(amap), 0.5 * (c + dagger(c)))


# ---------------------------------------------------------------------------
# Choi and signed operator sums
# ---------------------------------------------------------------------------
def test_choi_k_zero_is_cp(rng):
    for _ in range(10):
        _, is_cp = choi_and_cp(random_k_zero_map(rng))
        assert is_cp


def test_choi_trace_preservation(rng):
    amap = random_map(rng)
    choi = choi_matrix(amap)
    out_traced = partial_trace(choi, 2, 2)
    np.testing.assert_allclose(out_traced, np.eye(2), atol=1e-12)


def test_choi_identity_with_kappa_not_cp():
    # eigenvalues computed by direct eigensolve of the 4x4 Choi matrix:
    # 1 +- sqrt(1 + |kappa|^2/16) on the maximally-entangled block, +-kappa/4 on the rest
    amap = identity_with_kappa([0.0, 0.0, 0.5])
    eigenvalues, is_cp = choi_and_cp(amap)
    assert not is_cp
    expected = [-0.25, 1 - np.sqrt(1.0625), 0.25, 1 + np.sqrt(1.0625)]
    np.testing.assert_allclose(eigenvalues, sorted(expected), atol=1e-12)


def test_choi_equal_rotations_cp(pb22):
    rot = Rotation(axis=(0.0, 1.0, 0.0), angle=1.3)
    u = lorentz_unitary(LorentzParams(r1=rot, r2=rot))
    pi = 0.25 * (np.eye(4) + 0.6 * np.kron(SIGMA[0], SIGMA[0]))
    amap = extract_map(u, pi, pb22)
    np.testing.assert_allclose(amap.k_mat, 0.0, atol=1e-12)
    _, is_cp = choi_and_cp(amap)
    assert is_cp


def test_pm_decomposition_cp_map_all_positive(rng):
    amap = random_k_zero_map(rng)
    ops, signs = pm_decomposition(amap)
    assert all(s == 1 for s in signs)
    total = sum(dagger(c) @ c for c in ops)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-10)


def test_pm_decomposition_identity_with_kappa():
    # Choi eigensolve oracle: eigenvalues {2.0308, 0.25, -0.0308, -0.25},
    # hence two negative-sign operators
    amap = identity_with_kappa([0.0, 0.0, 0.5])
    ops, signs = pm_decomposition(amap)
    assert signs.count(-1) == 2
    assert signs == sorted(signs, reverse=True)


def test_pm_decomposition_operator_count(rng):
    for _ in range(10):
        ops, _ = pm_decomposition(random_map(rng))
        assert len(ops) <= 4


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3)])
def test_pm_decomposition_reconstructs(rng, dims):
    n = dims[0]
    for _ in range(20):
        amap = random_map(rng, *dims)
        ops, signs = pm_decomposition(amap)
        q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rebuilt = sum(s * (c @ q @ dagger(c)) for c, s in zip(ops, signs))
        np.testing.assert_allclose(rebuilt, b_matrix(amap).apply(q), atol=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (3, 3)])
def test_cp_flag_matches_sign_census(rng, dims):
    for _ in range(50):
        amap = random_map(rng, *dims)
        _, is_cp = choi_and_cp(amap, tol=1e-9)
        _, signs = pm_decomposition(amap, tol=1e-9)
        assert is_cp == all(s == 1 for s in signs)


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------
def test_purity_never_increases_without_k(rng):
    amap = random_k_zero_map(rng)
    for _ in range(200):
        rho = random_density(2, rng)
        assert purity_delta(amap, rho) <= 1e-12


def test_purity_increases_at_maximally_mixed(rng):
    for _ in range(20):
        amap = random_map(rng)
        lam = np.linalg.eigvalsh(amap.k_mat)
        if np.abs(lam).max() < 1e-3:
            continue
        delta = purity_delta(amap, np.eye(2, dtype=complex) / 2)
        assert delta > 0
        np.testing.assert_allclose(delta, (lam**2).sum(), rtol=1e-10)


def random_subsystem_state(rng, n):
    """A random n x n state of random rank, so that pure states are drawn too."""
    return random_density(n, rng, rank=int(rng.integers(1, n + 1)))


@settings(max_examples=40)
@given(dims=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1))
def test_purity_theorem_product_state_with_mixed_environment(dims, seed):
    # with Pi = rho (x) 1/M every correlation that enters K vanishes: K = 0, and no state gains purity
    n, m = dims
    rng = np.random.default_rng(seed)
    pi = np.kron(random_density(n, rng), np.eye(m) / m)
    amap = extract_map(random_unitary(n * m, rng), pi, product_basis(n, m))
    assert np.linalg.norm(amap.k_mat) <= 1e-12
    assert purity_delta(amap, random_subsystem_state(rng, n)) <= 1e-12


@settings(max_examples=40)
@given(dims=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1))
def test_purity_theorem_any_joint_state(dims, seed):
    # for any Pi, L alone never raises Tr rho^2, and at 1/n the affine map raises it by exactly
    # ||K||_F^2, since L(1/n) = 1/n and Tr K = 0
    n, m = dims
    rng = np.random.default_rng(seed)
    amap = extract_map(random_unitary(n * m, rng), random_density(n * m, rng), product_basis(n, m))
    rho = random_subsystem_state(rng, n)
    out = apply_L(amap, rho)
    assert np.trace(out @ out).real - np.trace(rho @ rho).real <= 1e-12
    k2 = np.linalg.norm(amap.k_mat) ** 2
    assert abs(purity_delta(amap, np.eye(n, dtype=complex) / n) - k2) <= 1e-8 * k2


def test_purity_qubit_closed_form():
    k = 0.3
    amap = identity_with_kappa([0.0, 0.0, k])
    np.testing.assert_allclose(purity_delta(amap, I2 / 2), k**2 / 2, atol=1e-14)


# ---------------------------------------------------------------------------
# W operators: Tr_S[A K] = Re Tr[Pi W_A], the mean-value part the homogeneous map misses
# ---------------------------------------------------------------------------
def trace_pi_w(a, u, pi):
    n = a.shape[0]
    w = w_operators(u, a[None], pi.shape[0] // n)[0]
    return np.einsum("ij,ji->", w, pi).real


def test_w_operators_mixed_environment_product(pb22, rng):
    u = random_unitary(4, rng)
    pi = np.kron(random_density(2, rng), I2 / 2)
    for a in SIGMA:
        assert abs(trace_pi_w(a, u, pi)) < 1e-12


def test_w_operators_single_angle():
    gamma, c = 1.1, 0.45
    u = int_ham_unitary(IntHamParams(gamma=(0.0, 0.0, gamma)))
    pi = 0.25 * (np.eye(4) + c * np.kron(SIGMA[0], SIGMA[2]))
    np.testing.assert_allclose(
        trace_pi_w(SIGMA[1], u, pi), c * np.sin(gamma), atol=1e-13
    )


@settings(max_examples=40)
@given(dims=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1))
def test_w_operators_consistent_with_k(dims, seed):
    n, m = dims
    rng = np.random.default_rng(seed)
    u, pi = random_unitary(n * m, rng), random_density(n * m, rng)
    k = extract_map(u, pi, product_basis(n, m)).k_mat
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = g + dagger(g)
    assert abs(trace_pi_w(a, u, pi) - np.trace(a @ k).real) < 1e-12


# ---------------------------------------------------------------------------
# the Heisenberg rows t[alpha 0, beta gamma] and serialization
# ---------------------------------------------------------------------------
def test_homogeneous_action_matches_transfer_block(pb22, rng):
    u = random_unitary(4, rng)
    amap = AffineMap(
        n=2, m=2, g_ops=extract_G(u, pb22.basis_r), k_mat=np.zeros((2, 2), dtype=complex)
    )
    t = heisenberg_rows(u, pb22)
    basis = build_basis(2)
    for mu in range(1, 4):
        for alpha in range(1, 4):
            coeff = np.trace(basis[mu] @ apply_L(amap, basis[alpha])).real / 2
            assert abs(coeff - t[mu, alpha, 0]) < 1e-12


@settings(max_examples=80)
@given(dims=st.sampled_from(DIMS), seed=st.integers(0, 2**32 - 1))
def test_map_from_heisenberg_rows(dims, seed):
    # with T = t[alpha 0, beta 0]: a' = T a + kappa, kappa_alpha = sum_{beta >= 0, gamma >= 1} t[alpha 0, beta gamma] c_{beta gamma}
    n, m = dims
    pb = product_basis(n, m)
    rng = np.random.default_rng(seed)
    u, pi = random_unitary(n * m, rng), random_density(n * m, rng)
    t = heisenberg_rows(u, pb)[1:]
    c = expand_state(pi, pb).coeff
    f = pb.basis_s[1:]
    amap = extract_map(u, pi, pb)
    rho_out = apply_affine(amap, partial_trace(pi, n, m))
    kappa = np.einsum("abg,bg->a", t[:, :, 1:], c[:, 1:])
    a_out = np.einsum("aij,ji->a", f, rho_out).real
    np.testing.assert_allclose(a_out, t[:, 1:, 0] @ c[1:, 0] + kappa, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("aij,ji->a", f, amap.k_mat).real, kappa, rtol=0, atol=1e-12)
    rows = np.einsum("abg,bgij->aij", t[:, :, 1:], pb.mats[:, 1:])
    np.testing.assert_allclose(w_operators(u, f, m), rows, rtol=0, atol=1e-12)


def test_map_json_round_trip(rng):
    amap = random_map(rng)
    back = map_from_json(map_to_json(amap))
    np.testing.assert_allclose(back.g_ops, amap.g_ops, atol=1e-15)
    np.testing.assert_allclose(back.k_mat, amap.k_mat, atol=1e-15)
    data = map_to_json_dict(amap)
    b_arr = np.asarray(data["b_matrix"], dtype=float)
    np.testing.assert_allclose(
        b_arr[..., 0] + 1j * b_arr[..., 1], b_matrix(amap).b, atol=1e-15
    )


def test_affine_map_validates_k():
    with pytest.raises(ValueError):
        AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=0.2 * np.eye(2))  # not traceless
    with pytest.raises(ValueError):
        AffineMap(n=2, m=1, g_ops=np.array([2 * I2]), k_mat=np.zeros((2, 2)))  # not complete


def test_affine_map_prints_a_real_k_trace():
    with pytest.raises(ValueError) as exc:
        AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=0.2 * np.eye(2))
    assert str(exc.value) == "K must be traceless, got trace 4.000e-01"
