import json

import numpy as np
import pytest
from hypothesis import settings

from affinemaps.basis import product_basis
from affinemaps.linalg import to_pairs

# every property test draws the same examples on every run; numerical
# kernels vary too much in speed for a per-example deadline
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


# the identity and the Pauli matrices, written out as the reference for build_basis(2)
PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


@pytest.fixture(scope="session")
def pb22():
    return product_basis(2, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def heisenberg_rows(u, pb):
    """Heisenberg rows t[alpha, beta, gamma] = Tr[F_{beta gamma} U^dag (F_alpha (x) 1) U] / NM.

    They expand U^dag (F_alpha (x) 1) U = sum t[alpha, beta, gamma] F_{beta gamma}.
    """
    t = np.einsum("bgij,kj,akl,li->abg", pb.mats, u.conj(), pb.mats[:, 0], u, optimize=True) / pb.dim
    assert np.abs(t.imag).max() < 1e-12
    return t.real


def pairs_json(probes):
    """Pair-file text of an evaluated ProbeSet: [{"rho_in_coeffs": [...], "rho_out": [[[re, im], ...]]}]."""
    outputs = to_pairs(probes.outputs)
    return json.dumps([{"rho_in_coeffs": c, "rho_out": o} for c, o in zip(probes.probes.tolist(), outputs)])
