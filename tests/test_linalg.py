import json

import numpy as np
import pytest

from affinemaps.linalg import (
    dagger,
    from_pairs,
    is_psd,
    partial_trace,
    random_density,
    random_unitary,
    require_density,
    to_pairs,
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


def test_is_psd_maximally_mixed():
    assert is_psd(np.eye(4) / 4)


def test_is_psd_rejects_overweight_correlations():
    # fixed <x1> = <s3 x1> = 0.9 with zero probe: min eigenvalue is negative
    pi = 0.25 * (np.eye(4) + 0.9 * np.kron(SIGMA[2], SIGMA[0]) + 0.9 * np.kron(I2, SIGMA[0]))
    assert not is_psd(pi)


def test_is_psd_boundary_state():
    pi = 0.25 * (np.eye(4) + np.kron(SIGMA[0], SIGMA[0]))
    assert is_psd(pi)
    w = np.linalg.eigvalsh(pi)
    np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-14)


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_is_batched():
    overweight = 0.25 * (np.eye(4) + 0.9 * np.kron(SIGMA[2], SIGMA[0]) + 0.9 * np.kron(I2, SIGMA[0]))
    stack = np.array([[np.eye(4) / 4, overweight]] * 3)
    np.testing.assert_array_equal(is_psd(stack), [[True, False]] * 3)
    assert is_psd(np.eye(2)).shape == ()


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "rho is not Hermitian (deviation 1.000e-01 > tol 1.000e-09)"),
        (np.eye(2), "rho has trace 2+0j, expected 1"),
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


def test_random_unitary_is_unitary(rng):
    u = random_unitary(6, rng)
    np.testing.assert_allclose(dagger(u) @ u, np.eye(6), atol=1e-12)


def test_random_density_is_state(rng):
    rho = random_density(4, rng)
    assert is_psd(rho)
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_random_batches_are_states_and_unitaries():
    us = random_unitary(3, np.random.default_rng(7), shape=(2, 4))
    np.testing.assert_allclose(dagger(us) @ us, np.broadcast_to(np.eye(3), (2, 4, 3, 3)), atol=1e-12)
    rhos = random_density(3, np.random.default_rng(7), shape=(2, 4))
    assert rhos.shape == (2, 4, 3, 3) and is_psd(rhos).all()
    np.testing.assert_allclose(np.trace(rhos, axis1=-2, axis2=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("draw", [random_unitary, random_density])
def test_random_batch_of_one_draws_the_single_matrix(draw):
    # shape (1,) and the default () consume the same stream
    single = draw(4, np.random.default_rng(7))
    np.testing.assert_allclose(draw(4, np.random.default_rng(7), shape=(1,))[0], single, atol=1e-15)


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
