"""Dense complex matrix kernel: products, partial traces, Hermitian eigenproblems."""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL, name: str = "matrix") -> None:
    dev = float(np.abs(a - dagger(a)).max())
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e} > tol {tol:.3e})")


def require_unitary(u: np.ndarray, tol: float = DEFAULT_TOL, name: str = "matrix") -> None:
    d = u.shape[-1]
    if u.shape[-2] != d or float(np.abs(dagger(u) @ u - np.eye(d)).max()) > tol:
        raise ValueError(f"{name} is not unitary to tolerance {tol:.3e}")


def partial_trace(m: np.ndarray, dim_s: int, dim_r: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dim_s*dim_r) square matrix, batched."""
    d = dim_s * dim_r
    if m.shape[-2:] != (d, d):
        raise ValueError(f"expected {d}x{d} matrix for dims ({dim_s},{dim_r}), got {m.shape}")
    return np.trace(m.reshape(m.shape[:-2] + (dim_s, dim_r, dim_s, dim_r)), axis1=-3, axis2=-1)


def is_psd(h: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per matrix of a Hermitian stack (..., n, n): smallest eigenvalue >= -tol."""
    require_hermitian(h, tol)
    return np.linalg.eigvalsh(h)[..., 0] >= -tol


def require_density(rho: np.ndarray, tol: float = DEFAULT_TOL, name: str = "state") -> None:
    """Check Hermitian, unit trace, PSD; Hermiticity is checked once, before the eigvalsh."""
    require_hermitian(rho, tol, name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(tol, 1e-9) * 10:
        raise ValueError(f"{name} has trace {tr.real:.6g}, expected 1")
    if not (np.linalg.eigvalsh(rho)[..., 0] >= -tol).all():
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


def random_unitary(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-random unitaries of shape ``shape + (dim, dim)`` via QR of complex Gaussian matrices."""
    z = rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(size=shape + (dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None, shape: tuple = ()) -> np.ndarray:
    """Random density matrices G G^dagger / Tr of shape ``shape + (dim, dim)``, with optional rank restriction."""
    k = dim if rank is None else rank
    g = rng.normal(size=shape + (dim, k)) + 1j * rng.normal(size=shape + (dim, k))
    m = g @ dagger(g)
    tr = np.einsum("...ii->...", m).real if shape else np.trace(m).real  # sum orders differ; each keeps its seeded draws
    return m / tr[..., None, None]
