"""Dense complex matrix kernel: products, partial traces, Hermitian eigenproblems."""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_deviation(a: np.ndarray) -> float:
    """Max-abs entry of a - a^dagger."""
    return float(np.abs(a - dagger(a)).max())


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return a.shape[-1] == a.shape[-2] and hermitian_deviation(a) <= tol


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL, name: str = "matrix") -> None:
    dev = hermitian_deviation(a)
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e} > tol {tol:.3e})")


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    d = u.shape[-1]
    return u.shape[-2] == d and float(np.abs(dagger(u) @ u - np.eye(d)).max()) <= tol


def require_unitary(u: np.ndarray, tol: float = DEFAULT_TOL, name: str = "matrix") -> None:
    if not is_unitary(u, tol):
        raise ValueError(f"{name} is not unitary to tolerance {tol:.3e}")


def allclose(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality with an explicit absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply.

    Leading axes follow np.kron, so kron(a, b) of a stack a (k, n, n) and a
    matrix b is the stack of kron(a[i], b).
    """
    return np.kron(a, b)


def partial_trace(m: np.ndarray, dim_s: int, dim_r: int, side: str = "right") -> np.ndarray:
    """Trace out one tensor factor of a (dim_s*dim_r) square matrix.

    side="right" traces out the second factor (returns dim_s x dim_s);
    side="left" traces out the first (returns dim_r x dim_r). The full
    trace is preserved either way.
    """
    d = dim_s * dim_r
    if m.shape[-2:] != (d, d):
        raise ValueError(f"expected {d}x{d} matrix for dims ({dim_s},{dim_r}), got {m.shape}")
    resh = m.reshape(m.shape[:-2] + (dim_s, dim_r, dim_s, dim_r))
    if side == "right":
        return np.trace(resh, axis1=-3, axis2=-1)
    if side == "left":
        return np.trace(resh, axis1=-4, axis2=-2)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def herm_eig(h: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns); raises on
    non-Hermitian input.
    """
    require_hermitian(h, tol)
    return np.linalg.eigh(h)


def unitary_from_hermitian(h: np.ndarray, scale: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i * scale * h) for Hermitian h, via eigendecomposition."""
    w, v = herm_eig(h, tol)
    return (v * np.exp(-1j * scale * w)) @ dagger(v)


def is_psd(h: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the minimum eigenvalue of Hermitian h is >= -tol."""
    require_hermitian(h, tol)
    return bool(np.linalg.eigvalsh(h)[..., 0].min() >= -tol)


def require_density(rho: np.ndarray, tol: float = DEFAULT_TOL, name: str = "state") -> None:
    """Check Hermitian, unit trace, PSD."""
    require_hermitian(rho, tol, name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(tol, 1e-9) * 10:
        raise ValueError(f"{name} has trace {tr:.6g}, expected 1")
    if not is_psd(rho, tol):
        raise ValueError(f"{name} is not positive semidefinite to tolerance {tol:.3e}")


def finite_array(data, name: str = "array") -> np.ndarray:
    """Float copy of a rectangular nesting of finite numbers; ValueError otherwise."""
    raw = np.asarray(data)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers only")
    arr = raw.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} values must be finite")
    return arr


def to_pairs(mat) -> list:
    """JSON form of a complex array: every scalar becomes an [re, im] pair."""
    mat = np.asarray(mat)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def from_pairs(data, name: str = "matrix") -> np.ndarray:
    """Inverse of to_pairs; the last axis must hold [re, im] pairs."""
    arr = finite_array(data, name)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"{name} must be a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix G G^dagger / Tr, with optional rank restriction."""
    k = dim if rank is None else rank
    g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    m = g @ dagger(g)
    return m / np.trace(m).real
