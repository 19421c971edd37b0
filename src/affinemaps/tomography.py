"""Reconstruction of the affine map from input/output state pairs.

The map is affine in the state, so n^2 pairs with affinely independent
inputs determine it exactly.  A ``ProbeSet`` holds probe vectors
(k, n^2 - 1) and outputs (k, n, n) as arrays; the oracle evolves the
whole stack in one call, and one least-squares fit over the stack, which
must have full rank, recovers (1', F'_alpha).  ``design_probes`` keeps
its probes inside the compatibility domain of the declared coefficient
spec with one ``domains.compatibility`` call per step size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .basis import JointStateCoeffs, probe_state
from .domains import InfeasibleError, compatibility
from .linalg import DEFAULT_TOL, finite_array, from_pairs, require_unit_trace
from .maps import AffineMap, apply_L


@dataclass
class ProbeSet:
    """Probe vectors (k, n^2 - 1) and, once evaluated, their outputs (k, n, n).

    A designed set holds the base vector first, then one singly perturbed
    vector per axis, so ``probes[1:] - probes[0]`` holds the signed steps (to rounding).
    """

    probes: np.ndarray
    outputs: np.ndarray | None = None

    @property
    def n(self) -> int:
        return math.isqrt(self.probes.shape[1] + 1)


MAX_HALVINGS = 20
FIT_TOL = 1e-8  # largest residual of a fit that counts as one affine map


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
    if spec.n < 2:
        raise ValueError(f"probe design needs n >= 2 (n^2 - 1 >= 3 axes), got n = {spec.n}")
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
    return ProbeSet(probes=probes)


def evaluate_probes(probes: ProbeSet, evolve: Callable[[np.ndarray], np.ndarray]) -> ProbeSet:
    """Fill in ``outputs`` with one oracle call on the whole probe stack."""
    probes.outputs = np.asarray(evolve(probes.probes), dtype=complex)
    return probes


def map_oracle(amap: AffineMap) -> Callable[[np.ndarray], np.ndarray]:
    """Evolution oracle backed by a known affine map: probes (..., n^2 - 1) to outputs (..., n, n)."""

    def evolve(probes: np.ndarray) -> np.ndarray:
        return apply_L(amap, probe_state(probes, amap.n)) + amap.k_mat

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


def reconstruct_map(probes: ProbeSet) -> MapReconstruction:
    """Least-squares fit of N rho_out = 1' + sum_alpha c_alpha F'_alpha over the evaluated stack.

    Raises ValueError if the design [1, c] has rank below n^2 (some
    F'_alpha is then undetermined) or the residual exceeds FIT_TOL (the
    pairs are not consistent with one affine map).
    """
    if probes.outputs is None:
        raise ValueError("probe set has no outputs; call evaluate_probes first")
    n = probes.n
    design = np.hstack([np.ones((len(probes.probes), 1)), probes.probes])
    targets = n * probes.outputs.reshape(len(design), n * n)
    sol, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < n * n:
        raise ValueError(f"probe design has rank {rank}; {n * n} affinely independent inputs are needed")
    residual = float(np.abs(design @ sol - targets).max())
    if residual > FIT_TOL:
        raise ValueError(
            f"pairs are inconsistent with one affine map (residual {residual:.3e})"
        )
    mats = sol.reshape(n * n, n, n)
    return MapReconstruction(n=n, one_prime=mats[0], f_primes=mats[1:], residual=residual)


class ValidationReport(NamedTuple):
    """Deviations per part and overall, the tolerance and the verdict, in the order the CLI writes them."""

    max_dev_one_prime: float
    max_dev_f_primes: float
    max_dev_k: float
    max_dev: float
    tol: float
    passed: bool


def validate_reconstruction(
    recon: MapReconstruction, truth: AffineMap, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Entrywise deviations of a reconstruction from a ground-truth map."""
    if recon.n != truth.n:
        raise ValueError("dimension mismatch between reconstruction and truth")
    devs = (
        float(np.abs(recon.one_prime - truth.one_prime).max()),
        float(np.abs(recon.f_primes - truth.f_primes).max()),
        float(np.abs(recon.k_mat - truth.k_mat).max()),
    )
    max_dev = max(devs)
    return ValidationReport(*devs, max_dev, tol, max_dev <= tol)


def pairs_from_json(text: str, tol: float = DEFAULT_TOL) -> ProbeSet:
    """Evaluated set from a JSON list [{"rho_in_coeffs": [...], "rho_out": [[[re, im], ...]]}]; n from pair 0.

    Each output must be Hermitian to ``tol`` with unit trace (the rule of
    ``require_density``), but need not be positive: noisy outputs must load.
    """
    items = json.loads(text)
    if not isinstance(items, list) or not items:
        raise ValueError("pairs must be a non-empty JSON list")
    probes, outputs = [], []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError("each pair must be a JSON object")
        coeffs = finite_array(item["rho_in_coeffs"], "rho_in_coeffs")
        out = from_pairs(item["rho_out"], "rho_out")
        if i == 0:
            n = math.isqrt(coeffs.size + 1)
            if n < 2:
                raise ValueError(f"rho_in_coeffs of pair 0 has {coeffs.size} entries; n >= 2 needs n^2 - 1 >= 3")
        if coeffs.shape != (n * n - 1,):
            raise ValueError(f"rho_in_coeffs of pair {i} has shape {coeffs.shape}, expected n^2 - 1 = {n * n - 1} entries")
        if out.shape != (n, n):
            raise ValueError(f"rho_out of pair {i} has shape {out.shape}, expected {(n, n)}")
        require_unit_trace(out, tol, f"rho_out of pair {i}")
        probes.append(coeffs)
        outputs.append(out)
    return ProbeSet(probes=np.array(probes), outputs=np.array(outputs))
