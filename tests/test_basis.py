import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PAULIS

from affinemaps.basis import (
    JointStateCoeffs,
    build_basis,
    coefficients,
    expand_state,
    probe_state,
    product_basis,
    reconstruct_state,
    traceless_operator,
)
from affinemaps.linalg import random_density
from affinemaps.qubit2 import SIGMA


def test_build_basis_qubit_is_pauli():
    basis = build_basis(2)
    np.testing.assert_allclose(basis, PAULIS, atol=1e-15)
    # bit for bit, signed zeros included: the real part of -i is -0.0 in both
    assert np.array_equal(basis.view(np.uint64), PAULIS.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_orthogonality(n):
    basis = build_basis(n)
    for mu in range(n**2):
        for nu in range(n**2):
            tr = np.trace(basis[mu] @ basis[nu])
            expected = n if mu == nu else 0.0
            assert abs(tr - expected) < 1e-12, (mu, nu)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_traceless(n):
    basis = build_basis(n)
    for mu in range(1, n**2):
        assert abs(np.trace(basis[mu])) < 1e-14


def test_build_basis_rejects_small_n():
    with pytest.raises(ValueError):
        build_basis(0)
    # n = 1 is a closed system's environment: the single matrix [[1]]
    assert np.array_equal(build_basis(1), [[[1]]]) and build_basis(1).shape == (1, 1, 1)


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


@pytest.mark.parametrize("mats", [lambda: build_basis(2), lambda: product_basis(2, 2).mats])
def test_cached_basis_is_read_only(mats):
    arr = mats()
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 2.0
    assert arr[(0,) * arr.ndim] == 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_product_basis_matches_kron_loop(dims):
    pb = product_basis(*dims)
    s, r = pb.basis_s, pb.basis_r
    loop = np.array([[np.kron(s[mu], r[nu]) for nu in range(len(r))] for mu in range(len(s))])
    # bit for bit, signed zeros included
    assert np.array_equal(pb.mats.view(np.uint64), loop.view(np.uint64))


@given(data=st.data(), n=st.sampled_from([2, 3, 4]))
def test_coefficient_codec_round_trip(data, n):
    c = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n * n - 1, max_size=n * n - 1)))
    op = traceless_operator(c, n)
    np.testing.assert_allclose(coefficients(op, n), c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(probe_state(c, n) - np.eye(n) / n, op, rtol=0, atol=1e-15)


def test_expand_maximally_mixed(pb22):
    coeffs = expand_state(np.eye(4) / 4, pb22)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(coeffs.coeff, expected, atol=1e-14)
    assert coeffs.fully_fixed


def test_expand_state_prints_a_real_trace(pb22):
    with pytest.raises(ValueError) as exc:
        expand_state(np.eye(4) / 2 + 0j, pb22)
    assert str(exc.value) == "state trace is 2, expected 1"


def test_expand_bell_correlation(pb22):
    pi = 0.25 * (np.eye(4) + np.kron(SIGMA[0], SIGMA[0]))
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
