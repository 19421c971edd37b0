import json

import numpy as np
import pytest
from hypothesis import settings

from affinemaps.basis import product_basis, traceless_operator
from affinemaps.linalg import combine, to_pairs, trace_pairing
from affinemaps.maps import AffineMap, BMatrix
from affinemaps.qubit2 import I2, SIGMA, _norms, su2_from_rotation

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


# ---------------------------------------------------------------------------
# the paper's two-qubit closed forms, the oracles for maps.map_from_unitary
# ---------------------------------------------------------------------------
def int_ham_kappa(p, corr):
    """Closed-form kappa of the interaction family from the angles and the mean values.

    kappa_1 = <x1> sin g2 sin g3 - <s2 x3> cos g2 sin g3 + <s3 x2> sin g2 cos g3
    and cyclic; only <x_k> and the off-diagonal <s_j x_k> enter.
    """
    c, s, co = corr.coeff, np.sin(p.gamma), np.cos(p.gamma)
    return np.array(
        [
            c[0, 1] * s[1] * s[2] - c[2, 3] * co[1] * s[2] + c[3, 2] * s[1] * co[2],
            c[0, 2] * s[2] * s[0] - c[3, 1] * co[2] * s[0] + c[1, 3] * s[2] * co[0],
            c[0, 3] * s[0] * s[1] - c[1, 2] * co[0] * s[1] + c[2, 1] * s[0] * co[1],
        ]
    )


def int_ham_g_ops(p):
    """Multiplication operators of the interaction unitary over the Pauli basis."""
    c, s = np.cos(np.asarray(p.gamma) / 2), np.sin(np.asarray(p.gamma) / 2)
    return np.array(
        [
            (c[0] * c[1] * c[2] - 1j * s[0] * s[1] * s[2]) * I2,
            (c[0] * s[1] * s[2] - 1j * s[0] * c[1] * c[2]) * SIGMA[0],
            (s[0] * c[1] * s[2] - 1j * c[0] * s[1] * c[2]) * SIGMA[1],
            (s[0] * s[1] * c[2] - 1j * c[0] * c[1] * s[2]) * SIGMA[2],
        ]
    )


def int_ham_closed_map(p, corr):
    """Closed-form map of the interaction family."""
    return AffineMap(n=2, m=2, g_ops=int_ham_g_ops(p), k_mat=traceless_operator(int_ham_kappa(p, corr), 2))


def int_ham_b_matrix(p, kappa):
    """Closed-form 4x4 B array of the interaction family.

    Rows and columns are composite (r, j) indices in the order 11, 12, 21,
    22; C_i is cos gamma_i.
    """
    c1, c2, c3 = np.cos(p.gamma)
    k1, k2, k3 = np.asarray(kappa, dtype=float)
    b = 0.5 * np.array(
        [
            [1 + k3 + c1 * c2, 0, k1 - 1j * k2, c2 * c3 + c3 * c1],
            [0, 1 + k3 - c1 * c2, c2 * c3 - c3 * c1, k1 - 1j * k2],
            [k1 + 1j * k2, c2 * c3 - c3 * c1, 1 - k3 - c1 * c2, 0],
            [c2 * c3 + c3 * c1, k1 + 1j * k2, 0, 1 - k3 + c1 * c2],
        ],
        dtype=complex,
    )
    return BMatrix(n=2, b=b)


def rotation_matrix(r):
    """3x3 matrix of an axis-angle Rotation (Rodrigues form)."""
    n = np.asarray(r.axis, dtype=float)
    if np.linalg.norm(n) == 0.0:
        return np.eye(3)
    c, s = np.cos(r.angle), np.sin(r.angle)
    cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return c * np.eye(3) + s * cross + (1 - c) * np.outer(n, n)


def lorentz_closed_map(p, corr):
    """Closed-form map of the two-momentum rotation family.

    G = ((D1 + D2)/2, (D1 - D2)/2, 0, 0) and kappa = (R1 v - R2 v)/2 with
    v = <sigma x1>.
    """
    d1 = su2_from_rotation(p.r1.axis, p.r1.angle)
    d2 = su2_from_rotation(p.r2.axis, p.r2.angle)
    zero = np.zeros((2, 2), dtype=complex)
    g_ops = np.array([0.5 * (d1 + d2), 0.5 * (d1 - d2), zero, zero])
    v = corr.coeff[1:, 1]
    kappa = 0.5 * (rotation_matrix(p.r1) @ v - rotation_matrix(p.r2) @ v)
    return AffineMap(n=2, m=2, g_ops=g_ops, k_mat=traceless_operator(kappa, 2))


def pairs_json(probes):
    """Pair-file text of an evaluated ProbeSet: [{"rho_in_coeffs": [...], "rho_out": [[[re, im], ...]]}]."""
    outputs = to_pairs(probes.outputs)
    return json.dumps([{"rho_in_coeffs": c, "rho_out": o} for c, o in zip(probes.probes.tolist(), outputs)])


# ---------------------------------------------------------------------------
# the eigen-alternation of the kappa search as one masked loop
# ---------------------------------------------------------------------------
def best_state_kappa_masked(w_ops, iters=8):
    """Oracle for qubit2._best_state_kappa: every step re-indexes W by the live rows and copies every update.

    The search's own loop keeps the live W stack and skips those copies when
    no slice is left behind; its three outputs must equal these bit for bit.
    """
    b, d = w_ops.shape[0], w_ops.shape[-1]
    norms, kappas = np.zeros(b), np.zeros((b, 3))
    states = np.broadcast_to(np.eye(d, dtype=complex) / d, (b, d, d)).copy()
    weights = np.linalg.norm(w_ops.reshape(b, 3, -1), axis=-1)
    live = np.flatnonzero(weights.max(axis=1) >= 1e-15)
    u_dir = weights[live] / _norms(weights[live])[:, None]
    for _ in range(iters):
        if live.size == 0:
            break
        _, vecs = np.linalg.eigh(combine(u_dir, w_ops[live]))
        psi = vecs[..., -1]
        pi = psi[:, :, None] * psi[:, None, :].conj()
        kappa = trace_pairing(w_ops[live], pi)
        norm = _norms(kappa)
        better = norm > norms[live]
        idx = live[better]
        norms[idx], kappas[idx], states[idx] = norm[better], kappa[better], pi[better]
        keep = norm >= 1e-14
        live, u_dir = live[keep], kappa[keep] / norm[keep, None]
    return norms, kappas, states
