import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PAULIS

from affinemaps.basis import (
    EXPAND_CHUNK,
    JointStateCoeffs,
    build_basis,
    coefficients,
    expand_state,
    expand_states,
    probe_state,
    product_basis,
    reconstruct_state,
    traceless_operator,
)
from affinemaps.linalg import random_density, require_density
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


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_traceless_operator_norm_is_at_most_sqrt_n_minus_1_times_its_coefficients(seed, n, scale):
    # the constant of compatibility's Weyl screen: A = sum_alpha u_alpha F_alpha is traceless with
    # Tr A^2 = n |u|^2, so ||A||_op <= sqrt(n - 1) |u|; at n = 2 every such A has eigenvalues +-|u|
    u = scale * np.random.default_rng(seed).normal(size=n * n - 1)
    op_norm = np.abs(np.linalg.eigvalsh(n * traceless_operator(u, n))).max()
    bound = np.sqrt(n - 1) * np.linalg.norm(u)
    assert op_norm <= bound * (1 + 1e-12)
    if n == 2:
        assert op_norm == pytest.approx(bound, rel=1e-12, abs=0)


def test_expand_maximally_mixed(pb22):
    coeffs = expand_state(np.eye(4) / 4, pb22)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(coeffs.coeff, expected, atol=1e-14)
    assert coeffs.fully_fixed


def test_expand_state_prints_a_real_trace(pb22):
    with pytest.raises(ValueError) as exc:
        expand_state(np.eye(4) / 2 + 0j, pb22)
    assert str(exc.value) == "state has trace 2, expected 1"
    # the trace rule is require_density's, 10 max(tol, 1e-9): a trace of 1 + 1e-10 passes it at
    # tol = 1e-12, and the table then holds coeff[0, 0] = Tr Pi as exactly 1, which its own rule
    # (1 to 1e-12) accepts; before, that rule rejected the state
    pi = np.eye(4) / 4 * (1 + 1e-10)
    require_density(pi, 1e-12)
    assert expand_state(pi, pb22, 1e-12).coeff[0, 0] == 1.0
    pi = np.eye(4) / 4 * (1 + 5e-13)
    coeff = expand_state(pi, pb22, 1e-14).coeff
    assert coeff[0, 0] == 1.0 and not coeff.ravel()[1:].any()
    with pytest.raises(ValueError, match="^state has trace 1.00001, expected 1$"):
        expand_state(np.eye(4) / 4 * (1 + 1e-5), pb22, 1e-7)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), count=st.integers(1, 200))
@example(seed=0, rank=4, count=EXPAND_CHUNK)
@example(seed=1, rank=1, count=EXPAND_CHUNK + 1)
def test_expand_states_equals_expand_state_row_by_row(pb22, seed, rank, count):
    rng = np.random.default_rng(seed)
    pis = random_density(4, rng, rank, shape=(count,))
    coeff = expand_states(pis, pb22)
    assert coeff.shape == (count, 4, 4)
    for pi, c in zip(pis, coeff):
        assert np.array_equal(expand_state(pi, pb22).coeff, c)
    # one bad member fails the block with the message it fails expand_state with alone
    at = rng.integers(count)
    skewed = pis[at] + 1e-3 * np.triu(np.ones((4, 4)), 1)
    for member in (skewed, 2 * pis[at]):
        block = pis.copy()
        block[at] = member
        with pytest.raises(ValueError) as one:
            expand_state(member, pb22)
        with pytest.raises(ValueError, match=r"^state (is not Hermitian|has trace 2)") as stack:
            expand_states(block, pb22)
        assert str(stack.value) == str(one.value)


def test_expand_states_keeps_leading_shape_and_rejects_bad_shapes(pb22, rng):
    pis = random_density(4, rng, shape=(2, 3))
    assert np.array_equal(expand_states(pis, pb22), expand_states(pis.reshape(6, 4, 4), pb22).reshape(2, 3, 4, 4))
    with pytest.raises(ValueError, match=r"state has shape \(5, 6, 6\), basis expects \(4,4\)"):
        expand_states(np.zeros((5, 6, 6)), pb22)


def test_expand_bell_correlation(pb22):
    pi = 0.25 * (np.eye(4) + np.kron(SIGMA[0], SIGMA[0]))
    coeffs = expand_state(pi, pb22)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 1] = 1.0
    np.testing.assert_allclose(coeffs.coeff, expected, atol=1e-14)


def test_reconstruct_blank_is_maximally_mixed(pb22):
    np.testing.assert_allclose(
        reconstruct_state(JointStateCoeffs.blank(2, 2)), np.eye(4) / 4, atol=1e-15
    )


def test_round_trip_random(pb22, rng):
    for _ in range(20):
        pi = random_density(4, rng)
        coeffs = expand_state(pi, pb22)
        np.testing.assert_allclose(reconstruct_state(coeffs), pi, atol=1e-12)


def test_coefficients_of_states_are_bounded(pb22, rng):
    # |<F_{mu nu}>| stays below NM and the squared sum equals NM Tr[Pi^2] <= NM
    for _ in range(20):
        coeffs = expand_state(random_density(4, rng), pb22)
        assert np.abs(coeffs.coeff).max() <= 4.0
        assert (coeffs.coeff**2).sum() <= 4.0 + 1e-12


def test_round_trip_quarter_correlations(pb22):
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.coeff[1:, 1:] = 0.25
    pi = reconstruct_state(coeffs)
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
        reconstruct_state(coeffs)


def test_coeffs_json_round_trip():
    coeffs = JointStateCoeffs.blank(2, 2)
    coeffs.coeff[0, 1] = 0.25
    coeffs.free[2, 2] = True
    data = json.loads(coeffs.to_json())
    assert data["n"] == 2 and data["m"] == 2
    back = JointStateCoeffs.from_json_dict(data)
    np.testing.assert_allclose(back.coeff, coeffs.coeff)
    assert np.array_equal(back.free, coeffs.free)


def test_coeffs_json_reads_booleans_and_digits_as_free_mask():
    data = JointStateCoeffs.blank(2, 2).to_json_dict()
    data["free_mask"][1] = [False, True, 0, 1]
    back = JointStateCoeffs.from_json_dict(json.loads(json.dumps(data)))
    assert back.free[1].tolist() == [False, True, False, True]


def test_coeffs_requires_unit_leading_entry():
    coeff = np.zeros((4, 4))
    with pytest.raises(ValueError):
        JointStateCoeffs(n=2, m=2, coeff=coeff, free=np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match=r"coefficient arrays must have shape \(4, 4\)"):
        JointStateCoeffs(n=2, m=2, coeff=np.zeros((3, 4)), free=np.zeros((3, 4), dtype=bool))
