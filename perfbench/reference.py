"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``affinemaps``.  Operators are built from explicit
Pauli and Gell-Mann matrices and their Kronecker products, unitaries from
their generators, and reduced states by direct evolution, so a check that
compares the program against these functions compares two separate
computations of the same quantity.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.array([I2, SX, SY, SZ])

_R3 = np.sqrt(3.0)
# Textbook Gell-Mann matrices lambda_1 .. lambda_8.
_GM = {
    1: [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    2: [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    3: [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    4: [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    5: [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    6: [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    7: [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    8: [[1 / _R3, 0, 0], [0, 1 / _R3, 0], [0, 0, -2 / _R3]],
}
# The package orders a qutrit basis as identity, symmetric pairs,
# antisymmetric pairs, diagonal generators, scaled so Tr[F F] = 3.
GELL_MANN = np.array(
    [np.eye(3)] + [np.sqrt(1.5) * np.array(_GM[k]) for k in (1, 4, 6, 2, 5, 7, 3, 8)],
    dtype=complex,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def hermitian_basis(n: int) -> np.ndarray:
    """Explicit basis {F_mu} for one subsystem, F_0 = identity, Tr[F F] = n."""
    if n == 2:
        return PAULI
    if n == 3:
        return GELL_MANN
    raise ValueError(f"no explicit basis for dimension {n}")


def joint_operators(n: int, m: int) -> np.ndarray:
    """F_mu (x) F_nu as an (n^2, m^2, nm, nm) array."""
    fs, fr = hermitian_basis(n), hermitian_basis(m)
    return np.array([[np.kron(a, b) for b in fr] for a in fs])


def state_from_coeffs(coeff: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(1/NM) sum coeff[mu, nu] F_mu (x) F_nu, batched over leading axes."""
    d = ops.shape[-1]
    return np.einsum("...ab,abij->...ij", coeff, ops) / d


def coeffs_of_state(pi: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Mean values Tr[F_mu (x) F_nu Pi] (real part)."""
    return np.einsum("abij,...ji->...ab", ops, pi).real


def partial_trace_r(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """Trace out the second (environment) factor, batched."""
    r = x.reshape(x.shape[:-2] + (n, m, n, m))
    return np.einsum("...iaja->...ij", r)


def exp_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def int_ham_unitary(gamma) -> np.ndarray:
    """exp(-i/2 sum_j gamma_j s_j (x) s_j), from the generator."""
    h = 0.5 * sum(g * np.kron(PAULI[j + 1], PAULI[j + 1]) for j, g in enumerate(gamma))
    return exp_hermitian(h)


def su2(axis, angle: float) -> np.ndarray:
    """cos(a/2) 1 - i sin(a/2) axis . sigma."""
    n = np.asarray(axis, dtype=float)
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * np.einsum("j,jab->ab", n, PAULI[1:])


def lorentz_unitary(r1: dict, r2: dict) -> np.ndarray:
    """D1 (x) (1 + s1)/2 + D2 (x) (1 - s1)/2 for two axis-angle rotations."""
    d1 = su2(r1["axis"], r1["angle"])
    d2 = su2(r2["axis"], r2["angle"])
    return np.kron(d1, (I2 + SX) / 2) + np.kron(d2, (I2 - SX) / 2)


def evolve_reduced(u: np.ndarray, pi: np.ndarray, n: int, m: int) -> np.ndarray:
    """Tr_R[U Pi U^dag], batched over leading axes of pi."""
    return partial_trace_r(u @ pi @ u.conj().T, n, m)


def kappa_direct(u: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """kappa_j = Tr[s_j Tr_R(U (Pi - rho (x) 1/2) U^dag)] for two qubits."""
    rho = partial_trace_r(pi, 2, 2)
    diff = pi - np.kron(rho, I2 / 2)
    out = evolve_reduced(u, diff, 2, 2)
    return np.einsum("jab,ba->j", PAULI[1:], out).real


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR factorisation of a complex Gaussian."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def full_rank_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """G G^dag / Tr for a square complex Gaussian G."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def max_lambda_min(
    x0: np.ndarray, free_ops: np.ndarray, mu_final: float = 1e-11
) -> tuple[np.ndarray, float]:
    """max over real c of lambda_min(X0 + sum_k c_k A_k), batched over X0.

    lambda_min of an affine Hermitian family is concave in c, so the
    maximum is the value of the convex problem max t s.t. X0 + sum c A - t 1
    is PSD.  It is found by a damped-Newton log-det barrier method
    (path-following over mu), which stays strictly feasible.  Returns the
    achieved lambda_min at the final c (a lower bound on the maximum) and
    the largest duality-gap estimate d * mu_final + final Newton
    decrement over the batch, which bounds how far below the maximum it is.
    """
    batch, d = x0.shape[0], x0.shape[-1]
    k = free_ops.shape[0]
    eye = np.eye(d)
    ops = np.concatenate([free_ops, -eye[None].astype(complex)])  # derivatives of S
    c = np.zeros((batch, k))
    t = np.linalg.eigvalsh(x0)[:, 0] - 1.0
    x = np.concatenate([c, t[:, None]], axis=1)

    def slack(x):
        return x0 + np.einsum("bk,kij->bij", x[:, :k], free_ops) - x[:, k, None, None] * eye

    decrement = np.zeros(batch)
    for mu in np.geomspace(1.0, mu_final, 12):
        for _ in range(25):
            s_inv = np.linalg.inv(slack(x))
            p = np.einsum("bij,kjl->bkil", s_inv, ops)
            grad = np.einsum("bkii->bk", p).real
            grad[:, k] += 1.0 / mu
            hess = np.einsum("bkij,blji->bkl", p, p).real
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
            decrement = np.sqrt(np.maximum(np.einsum("bk,bk->b", grad, step), 0.0))
            if decrement.max() < 1e-9:
                break
            damp = np.where(decrement > 0.25, 1.0 / (1.0 + decrement), 1.0)
            x = x + damp[:, None] * step
    achieved = np.linalg.eigvalsh(slack(x) + x[:, k, None, None] * eye)[:, 0]
    gap = d * mu_final + float(decrement.max()) * mu_final
    return achieved, gap
