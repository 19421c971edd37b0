"""Reconstruction of the affine map from input/output state pairs.

Because the map is affine in the state, finite differences between probe
states that differ along a single basis axis recover the homogeneous
images F'_alpha exactly at any step size, and the image of the identity
follows from any single output.  Probe states are restricted to the
compatibility domain of the declared coefficient spec: ``design_probes``
labels its candidates with one ``domains.compatibility`` call per step
size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import JointStateCoeffs, build_basis
from .domains import InfeasibleError, compatibility, probe_state
from .linalg import DEFAULT_TOL, finite_array, from_pairs, to_pairs
from .maps import AffineMap, apply_affine


@dataclass
class ProbeSet:
    """Designed probe states and (once evaluated) their evolved outputs.

    ``probes`` holds the base Bloch-type vector first, then one singly
    perturbed vector per axis; ``deltas`` records the signed step actually
    used along each axis.
    """

    spec: JointStateCoeffs
    base: np.ndarray
    deltas: np.ndarray
    probes: np.ndarray
    pairs: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.spec.n


MAX_HALVINGS = 20


def design_probes(
    spec: JointStateCoeffs,
    base: np.ndarray,
    eps: float = 0.05,
    tol: float = DEFAULT_TOL,
) -> ProbeSet:
    """Base state plus one single-axis perturbation per coefficient axis.

    Each perturbation tries base + eps e_alpha, then base - eps e_alpha,
    halving eps up to MAX_HALVINGS times until the probe lies in the
    compatibility domain.  One ``compatibility`` call per step size labels
    the base (first step only) and both candidates of every axis not yet
    placed; each axis keeps the first admissible candidate in that order.
    Raises InfeasibleError if the base is outside the domain or some axis
    admits no feasible step (empty interior along that axis).
    """
    base = np.asarray(base, dtype=float)
    n_axes = spec.n**2 - 1
    if base.shape != (n_axes,):
        raise ValueError(f"base must have length {n_axes}")
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    deltas = np.zeros(n_axes)
    axes = np.arange(n_axes)  # the axes not yet placed
    step = eps
    for halving in range(MAX_HALVINGS + 1):
        cand = np.tile(base, (len(axes), 2, 1))
        cand[np.arange(len(axes)), :, axes] += np.array([1.0, -1.0]) * step
        cand = cand.reshape(-1, n_axes)
        if halving == 0:
            cand = np.vstack([base, cand])
        inside = compatibility(spec, cand, tol)[0]
        if halving == 0:
            if not inside[0]:
                raise InfeasibleError(f"base probe {base.tolist()} is outside the compatibility domain")
            inside = inside[1:]
        inside = inside.reshape(-1, 2)
        placed = inside.any(axis=1)
        deltas[axes[placed]] = np.where(inside[placed, 0], 1.0, -1.0) * step
        axes = axes[~placed]
        if not axes.size:
            break
        step /= 2.0
    else:
        raise InfeasibleError(
            f"no feasible perturbation along axis {axes[0] + 1} at minimum step {step:.3e}"
        )
    probes = np.tile(base, (n_axes + 1, 1))
    probes[np.arange(1, n_axes + 1), np.arange(n_axes)] += deltas
    return ProbeSet(spec=spec, base=base, deltas=deltas, probes=probes)


def evaluate_probes(probes: ProbeSet, evolve: Callable[[np.ndarray], np.ndarray]) -> ProbeSet:
    """Fill in output states by calling the evolution oracle on each probe."""
    probes.pairs = [(p.copy(), np.asarray(evolve(p), dtype=complex)) for p in probes.probes]
    return probes


def map_oracle(amap: AffineMap) -> Callable[[np.ndarray], np.ndarray]:
    """Evolution oracle backed by a known affine map."""

    def evolve(probe: np.ndarray) -> np.ndarray:
        return apply_affine(amap, probe_state(probe, amap.n))

    return evolve


@dataclass
class MapReconstruction:
    """Affine map recovered from pairs: image of identity and basis images."""

    n: int
    one_prime: np.ndarray
    f_primes: np.ndarray
    residual: float

    @property
    def k_mat(self) -> np.ndarray:
        return (self.one_prime - np.eye(self.n)) / self.n

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evolved state from the recovered basis images."""
        basis = build_basis(self.n)
        coeffs = np.einsum("aij,ji->a", basis.mats[1:], rho).real
        out = self.one_prime * np.trace(rho) / self.n
        out = out + np.einsum("a,aij->ij", coeffs, self.f_primes) / self.n
        return out


def reconstruct_map(probes: ProbeSet, fit_tol: float = 1e-8) -> MapReconstruction:
    """Solve the affine relation N rho_out = 1' + sum_alpha c_alpha F'_alpha.

    Uses the exact triangular structure for designed probes and a
    least-squares fit for arbitrary (over-determined) pair lists; raises if
    the residual exceeds ``fit_tol`` (the pairs are then not consistent
    with a single affine map).
    """
    if not probes.pairs:
        raise ValueError("probe set has no evaluated pairs; call evaluate_probes first")
    n = probes.n
    n_axes = n**2 - 1
    if len(probes.pairs) < n_axes + 1:
        raise ValueError(f"need at least {n_axes + 1} pairs, got {len(probes.pairs)}")
    design = np.array([np.concatenate([[1.0], c]) for c, _ in probes.pairs])
    targets = np.array([n * out.reshape(-1) for _, out in probes.pairs])
    sol, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = float(np.abs(design @ sol - targets).max())
    if residual > fit_tol:
        raise ValueError(
            f"pairs are inconsistent with one affine map (residual {residual:.3e})"
        )
    mats = sol.reshape(n_axes + 1, n, n)
    return MapReconstruction(n=n, one_prime=mats[0], f_primes=mats[1:], residual=residual)


@dataclass
class ValidationReport:
    max_dev_one_prime: float
    max_dev_f_primes: float
    max_dev_k: float
    tol: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_one_prime, self.max_dev_f_primes, self.max_dev_k)

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def to_dict(self) -> dict:
        return {
            "max_dev_one_prime": self.max_dev_one_prime,
            "max_dev_f_primes": self.max_dev_f_primes,
            "max_dev_k": self.max_dev_k,
            "max_dev": self.max_dev,
            "tol": self.tol,
            "passed": self.passed,
        }


def validate_reconstruction(
    recon: MapReconstruction, truth: AffineMap, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Entrywise deviations of a reconstruction from a ground-truth map."""
    if recon.n != truth.n:
        raise ValueError("dimension mismatch between reconstruction and truth")
    return ValidationReport(
        max_dev_one_prime=float(np.abs(recon.one_prime - truth.one_prime).max()),
        max_dev_f_primes=float(np.abs(recon.f_primes - truth.f_primes).max()),
        max_dev_k=float(np.abs(recon.k_mat - truth.k_mat).max()),
        tol=tol,
    )


def pairs_to_json(pairs: list[tuple[np.ndarray, np.ndarray]]) -> str:
    """JSON exchange format: [{"rho_in_coeffs": [...], "rho_out": [[[re, im], ...]]}]."""
    items = [
        {"rho_in_coeffs": np.asarray(coeffs, dtype=float).tolist(), "rho_out": to_pairs(out)}
        for coeffs, out in pairs
    ]
    return json.dumps(items)


def pairs_from_json(text: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parse pairs_to_json output: n^2 - 1 coefficients and an n x n rho_out per pair, n from the first."""
    items = json.loads(text)
    if not isinstance(items, list) or not items:
        raise ValueError("pairs must be a non-empty JSON list")
    pairs = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError("each pair must be a JSON object")
        coeffs = finite_array(item["rho_in_coeffs"], "rho_in_coeffs")
        out = from_pairs(item["rho_out"], "rho_out")
        n = len(pairs[0][1]) if pairs else int(np.sqrt(coeffs.size + 1))
        if coeffs.shape != (n * n - 1,):
            raise ValueError(f"rho_in_coeffs of pair {i} has shape {coeffs.shape}, expected n^2 - 1 = {n * n - 1} entries")
        if out.shape != (n, n):
            raise ValueError(f"rho_out of pair {i} has shape {out.shape}, expected {(n, n)}")
        pairs.append((coeffs, out))
    return pairs


def probe_set_from_pairs(n: int, pairs: list[tuple[np.ndarray, np.ndarray]]) -> ProbeSet:
    """Wrap externally produced pairs for reconstruction (no admissibility check)."""
    spec = JointStateCoeffs.blank(n, 2)
    base = pairs[0][0] if pairs else np.zeros(n**2 - 1)
    return ProbeSet(
        spec=spec,
        base=np.asarray(base, dtype=float),
        deltas=np.zeros(n**2 - 1),
        probes=np.array([c for c, _ in pairs]),
        pairs=[(np.asarray(c, dtype=float), o) for c, o in pairs],
    )
