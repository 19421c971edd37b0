import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinemaps.basis import build_basis
from affinemaps.linalg import (
    combine,
    complex_gaussian,
    dagger,
    from_pairs,
    gram_density,
    partial_trace,
    random_density,
    random_unitary,
    require_density,
    to_pairs,
    trace_pairing,
)
from affinemaps.qubit2 import I2, SIGMA


def test_partial_trace_product_form(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(partial_trace(np.kron(a, b), 2, 3), a * np.trace(b), atol=1e-12)


def test_partial_trace_maximally_mixed():
    np.testing.assert_allclose(partial_trace(np.eye(4) / 4, 2, 2), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_single_env_coefficient():
    # joint state with <S3> = 0.5 and every other coefficient zero
    pi = 0.25 * (np.eye(4) + 0.5 * np.kron(SIGMA[2], I2))
    expected = 0.5 * (I2 + 0.5 * SIGMA[2])
    np.testing.assert_allclose(partial_trace(pi, 2, 2), expected, atol=1e-14)


def test_partial_trace_preserves_trace(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for dims in [(2, 3), (3, 2)]:
        assert abs(np.trace(partial_trace(m, *dims)) - np.trace(m)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 2, 3)


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "rho is not Hermitian (deviation 1.000e-01 > tol 1.000e-09)"),
        (np.eye(2), "rho has trace 2, expected 1"),
        (np.diag([1.2, -0.2]), "rho is not positive semidefinite to tolerance 1.000e-09"),
    ],
    ids=["hermitian", "trace", "psd"],
)
def test_require_density_messages(rho, message):
    with pytest.raises(ValueError) as exc:
        require_density(rho, name="rho")
    assert str(exc.value) == message


def test_require_density_accepts_boundary_states():
    require_density(np.diag([1.0, -1e-10]) + 0j)
    require_density(np.eye(4) / 4)


@settings(max_examples=80)
@given(
    k=st.integers(1, 8),
    d=st.sampled_from([2, 3, 4, 6, 9]),
    batch=st.integers(1, 5),
    zeros=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_pairing_is_batch_invariant(k, d, batch, zeros, seed):
    # half the parts set to +-0.0 in some draws, so signed zeros are compared too
    rng = np.random.default_rng(seed)

    def draw(shape):
        parts = rng.normal(size=(2,) + shape) * (rng.uniform(size=(2,) + shape) >= zeros)
        return parts[0] + 1j * parts[1]

    a, b = draw((batch, k, d, d)), draw((batch, d, d))
    got = trace_pairing(a, b)
    assert got.shape == (batch, k)
    for i in range(batch):
        assert got[i].tobytes() == trace_pairing(a[i], b[i]).tobytes()
        assert got[i].tobytes() == trace_pairing(a[i : i + 1], b[i : i + 1])[0].tobytes()
        for j in range(k):
            assert got[i, j].tobytes() == trace_pairing(a[i, j : j + 1], b[i]).tobytes()
    # within 1e-15 of the complex einsum, relative to |Re Tr[A B]| <= ||A||_F ||B||_F
    expected = np.einsum("...kij,...ji->...k", a, b).real
    scale = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))[:, None]
    assert (np.abs(got - expected) <= 1e-15 * scale).all()


@settings(max_examples=80)
@given(
    k=st.integers(1, 16),
    n=st.integers(1, 9),
    lead=st.sampled_from([(), (5,), (2, 3)]),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_combine_is_batch_invariant(k, n, lead, shared, seed):
    # shared: one stack (k, n, n) for every coefficient row, as the basis sites pass it
    rng = np.random.default_rng(seed)
    c = rng.normal(size=lead + (k,))
    shape = (k, n, n) if shared else lead + (k, n, n)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c_before, a_before = c.copy(), a.copy()
    c.setflags(write=False)
    a.setflags(write=False)
    got = combine(c, a)
    assert got.shape == lead + (n, n)
    for idx in np.ndindex(*lead):
        assert got[idx].tobytes() == combine(c[idx], a if shared else a[idx]).tobytes()
    # within 4 eps sum_k |c_k| max_k |A_k| of the complex einsum, per slice
    expected = np.einsum("...k,...kij->...ij", c, a)
    scale = 4 * np.finfo(float).eps * np.abs(c).sum(-1) * np.abs(a).max(axis=(-3, -2, -1))
    assert (np.abs(got - expected).max(axis=(-2, -1)) <= scale).all()
    assert c.tobytes() == c_before.tobytes() and a.tobytes() == a_before.tobytes()
    # the shared read-only basis arrays go in as they are, and come out unchanged
    basis = build_basis(n)[1:]
    basis_before = basis.copy()
    coeff = rng.normal(size=lead + (n * n - 1,))
    err = np.abs(combine(coeff, basis) - np.einsum("...k,kij->...ij", coeff, basis)).max(axis=(-2, -1), initial=0.0)
    assert (err <= 4 * np.finfo(float).eps * np.abs(coeff).sum(-1) * np.abs(basis).max(initial=0.0)).all()
    assert basis.tobytes() == basis_before.tobytes()


def test_random_unitary_is_unitary(rng):
    u = random_unitary(6, rng)
    np.testing.assert_allclose(dagger(u) @ u, np.eye(6), atol=1e-12)


def test_random_density_is_state(rng):
    rho = random_density(4, rng)
    assert np.linalg.eigvalsh(rho)[..., 0] >= -1e-9
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_random_batches_are_states_and_unitaries():
    us = random_unitary(3, np.random.default_rng(7), shape=(2, 4))
    np.testing.assert_allclose(dagger(us) @ us, np.broadcast_to(np.eye(3), (2, 4, 3, 3)), atol=1e-12)
    rhos = random_density(3, np.random.default_rng(7), shape=(2, 4))
    assert rhos.shape == (2, 4, 3, 3) and (np.linalg.eigvalsh(rhos)[..., 0] >= -1e-9).all()
    np.testing.assert_allclose(np.trace(rhos, axis1=-2, axis2=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("draw", [random_unitary, random_density])
def test_random_batch_of_one_draws_the_single_matrix(draw):
    # shape (1,) and the default () consume the same stream
    single = draw(4, np.random.default_rng(7))
    np.testing.assert_allclose(draw(4, np.random.default_rng(7), shape=(1,))[0], single, atol=1e-15)


def test_gram_density_stack_is_the_one_matrix_arithmetic():
    # np.trace of one matrix, slice by slice; the shape path's einsum trace differs in the last bit
    # on about a fifth of these draws
    rng = np.random.default_rng(3)
    g = np.array([complex_gaussian(4, rng) for _ in range(400)])
    one = []
    for x in g:
        m = x @ dagger(x)
        one.append(m / np.trace(m).real)
    assert np.array_equal(gram_density(g), np.array(one))
    rng = np.random.default_rng(3)  # random_density(4) draws one complex_gaussian(4)
    assert all(np.array_equal(gram_density(x), random_density(4, rng)) for x in g[:20])


def test_pairs_round_trip_is_exact(rng):
    z = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    np.testing.assert_array_equal(from_pairs(json.loads(json.dumps(to_pairs(z)))), z)


@pytest.mark.parametrize(
    "data",
    [3, [1.0, 2.0, 3.0], {"re": 1}, [[1.0, {}]], [[1.0, 2.0], [3.0]], [["1", "2"]], [[float("nan"), 0.0]], [[True, False]], None],
)
def test_from_pairs_rejects_malformed(data):
    with pytest.raises(ValueError):
        from_pairs(data)
