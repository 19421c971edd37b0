import json

import numpy as np
import pytest

from affinemaps.basis import (
    JointStateCoeffs,
    build_basis,
    expand_state,
    marginal_coeffs,
    product_basis,
    reconstruct_state,
    transfer_matrix,
)
from affinemaps.linalg import kron, random_density, random_unitary
from affinemaps.qubit2 import I2, PAULIS, SIGMA, int_ham_unitary, IntHamParams


def test_build_basis_qubit_is_pauli():
    basis = build_basis(2)
    np.testing.assert_allclose(basis.mats, PAULIS, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_orthogonality(n):
    basis = build_basis(n)
    for mu in range(n**2):
        for nu in range(n**2):
            tr = np.trace(basis.mats[mu] @ basis.mats[nu])
            expected = n if mu == nu else 0.0
            assert abs(tr - expected) < 1e-12, (mu, nu)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_traceless(n):
    basis = build_basis(n)
    for mu in range(1, n**2):
        assert abs(np.trace(basis.mats[mu])) < 1e-14


def test_build_basis_rejects_small_n():
    with pytest.raises(ValueError):
        build_basis(1)


def test_product_basis_orthogonality():
    pb = product_basis(2, 3)
    flat = pb.mats.reshape(-1, 6, 6)
    gram = np.einsum("xij,yji->xy", flat, flat)
    np.testing.assert_allclose(gram, 6 * np.eye(len(flat)), atol=1e-12)


def test_bases_are_cached():
    pb = product_basis(2, 3)
    assert product_basis(2, 3) is pb
    assert build_basis(3) is build_basis(3)
    assert pb.basis_s is build_basis(2) and pb.basis_r is build_basis(3)


@pytest.mark.parametrize("mats", [lambda: build_basis(2).mats, lambda: product_basis(2, 2).mats])
def test_cached_basis_is_read_only(mats):
    arr = mats()
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 2.0
    assert arr[(0,) * arr.ndim] == 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_product_basis_matches_kron_loop(dims):
    pb = product_basis(*dims)
    s, r = pb.basis_s.mats, pb.basis_r.mats
    loop = np.array([[np.kron(s[mu], r[nu]) for nu in range(len(r))] for mu in range(len(s))])
    # bit for bit, signed zeros included
    assert np.array_equal(pb.mats.view(np.uint64), loop.view(np.uint64))


def test_expand_maximally_mixed(pb22):
    coeffs = expand_state(np.eye(4) / 4, pb22)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(coeffs.coeff, expected, atol=1e-14)
    assert coeffs.fully_fixed


def test_expand_bell_correlation(pb22):
    pi = 0.25 * (np.eye(4) + kron(SIGMA[0], SIGMA[0]))
    coeffs = expand_state(pi, pb22)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 1] = 1.0
    np.testing.assert_allclose(coeffs.coeff, expected, atol=1e-14)


def test_reconstruct_blank_is_maximally_mixed(pb22):
    np.testing.assert_allclose(
        reconstruct_state(JointStateCoeffs.blank(2, 2), pb22), np.eye(4) / 4, atol=1e-15
    )


def test_round_trip_random(pb22, rng):
    for _ in range(20):
        pi = random_density(4, rng)
        coeffs = expand_state(pi, pb22)
        np.testing.assert_allclose(reconstruct_state(coeffs, pb22), pi, atol=1e-12)


def test_coefficients_of_states_are_bounded(pb22, rng):
    # |<F_{mu nu}>| stays below NM and the squared sum equals NM Tr[Pi^2] <= NM
    for _ in range(20):
        coeffs = expand_state(random_density(4, rng), pb22)
        assert np.abs(coeffs.coeff).max() <= 4.0
        assert (coeffs.coeff**2).sum() <= 4.0 + 1e-12


def test_round_trip_quarter_correlations(pb22):
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.coeff[1:, 1:] = 0.25
    pi = reconstruct_state(coeffs, pb22)
    back = expand_state(pi, pb22)
    np.testing.assert_allclose(back.coeff, coeffs.coeff, atol=1e-13)


def test_expand_rejects_non_unit_trace(pb22):
    with pytest.raises(ValueError):
        expand_state(np.eye(4), pb22)


def test_expand_rejects_non_hermitian(pb22):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.3
    with pytest.raises(ValueError):
        expand_state(m, pb22)


def test_reconstruct_rejects_free_entries(pb22):
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.free[1, 1] = True
    with pytest.raises(ValueError):
        reconstruct_state(coeffs, pb22)


def test_marginal_coeffs_mixed():
    coeffs = JointStateCoeffs.blank(2, 2)
    np.testing.assert_allclose(marginal_coeffs(coeffs), np.zeros(3), atol=1e-15)


def test_marginal_coeffs_product(pb22, rng):
    rho = random_density(2, rng)
    pi = kron(rho, I2 / 2)
    coeffs = expand_state(pi, pb22)
    bloch = np.array([np.trace(SIGMA[j] @ rho).real for j in range(3)])
    np.testing.assert_allclose(marginal_coeffs(coeffs), bloch, atol=1e-13)


def test_marginal_coeffs_read_off():
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.coeff[1:, 0] = [0.2, 0.0, 0.4]
    np.testing.assert_allclose(marginal_coeffs(coeffs), [0.2, 0.0, 0.4], atol=1e-15)


def test_transfer_matrix_identity(pb22):
    t = transfer_matrix(np.eye(4, dtype=complex), pb22)
    np.testing.assert_allclose(t.t, np.eye(16), atol=1e-13)


def test_transfer_matrix_single_angle(pb22):
    gamma = 0.9
    u = int_ham_unitary(IntHamParams(gamma=(0.0, 0.0, gamma)))
    t = transfer_matrix(u, pb22)
    row = t.t[t.index(1, 0)]
    expected = np.zeros(16)
    expected[t.index(1, 0)] = np.cos(gamma)
    expected[t.index(2, 3)] = -np.sin(gamma)
    np.testing.assert_allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_transfer_matrix_orthogonal(dims, rng):
    pb = product_basis(*dims)
    u = random_unitary(pb.dim, rng)
    t = transfer_matrix(u, pb).t
    np.testing.assert_allclose(t @ t.T, np.eye(len(t)), atol=1e-10)


def test_transfer_matrix_identity_row_and_column(pb22, rng):
    t = transfer_matrix(random_unitary(4, rng), pb22).t
    e0 = np.zeros(16)
    e0[0] = 1.0
    np.testing.assert_allclose(t[0], e0, atol=1e-12)
    np.testing.assert_allclose(t[:, 0], e0, atol=1e-12)


def test_transfer_matrix_composition(pb22, rng):
    # conjugation (U1 U2)^dag F (U1 U2) expands the inner factor first
    u1, u2 = random_unitary(4, rng), random_unitary(4, rng)
    t12 = transfer_matrix(u1 @ u2, pb22).t
    np.testing.assert_allclose(t12, transfer_matrix(u1, pb22).t @ transfer_matrix(u2, pb22).t, atol=1e-10)


def test_transfer_matrix_rejects_non_unitary(pb22):
    with pytest.raises(ValueError):
        transfer_matrix(np.eye(4) * 2.0, pb22)


def test_coeffs_json_round_trip():
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.coeff[0, 1] = 0.25
    coeffs.free[2, 2] = True
    data = json.loads(coeffs.to_json())
    assert data["n"] == 2 and data["m"] == 2
    back = JointStateCoeffs.from_json(coeffs.to_json())
    np.testing.assert_allclose(back.coeff, coeffs.coeff)
    assert np.array_equal(back.free, coeffs.free)


def test_coeffs_requires_unit_leading_entry():
    coeff = np.zeros((4, 4))
    with pytest.raises(ValueError):
        JointStateCoeffs(n=2, m=2, coeff=coeff, free=np.zeros((4, 4), dtype=bool))
