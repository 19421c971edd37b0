from types import SimpleNamespace

import numpy as np
import pytest

from conftest import pairs_json

from affinemaps.basis import JointStateCoeffs, expand_state, probe_state, product_basis, traceless_operator
from affinemaps.domains import InfeasibleError, compatibility
from affinemaps.linalg import random_density, random_unitary
from affinemaps.maps import AffineMap, apply_affine, extract_map
from affinemaps.qubit2 import I2, SIGMA, IntHamParams, int_ham_map
from affinemaps.tomography import (
    MAX_HALVINGS,
    ProbeSet,
    design_probes,
    evaluate_probes,
    map_oracle,
    pairs_from_json,
    reconstruct_map,
    validate_reconstruction,
)

SQ3 = 1.0 / np.sqrt(3.0)


def two_coefficient_spec():
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[0, 1] = SQ3
    spec.coeff[3, 1] = SQ3
    return spec


def random_map(rng):
    pb = product_basis(2, 2)
    return extract_map(random_unitary(4, rng), random_density(4, rng), pb)


def test_design_probes_unconstrained_axes():
    spec = JointStateCoeffs.blank(2, 2)
    probes = design_probes(spec, np.zeros(3), eps=0.1)
    assert probes.probes.shape == (4, 3)
    np.testing.assert_allclose(probes.probes[0], 0.0)
    np.testing.assert_allclose(probes.deltas, [0.1, 0.1, 0.1])
    for alpha in range(3):
        expected = np.zeros(3)
        expected[alpha] = 0.1
        np.testing.assert_allclose(probes.probes[1 + alpha], expected)


def test_design_probes_rejects_outside_base():
    with pytest.raises(InfeasibleError):
        design_probes(two_coefficient_spec(), np.zeros(3), eps=0.05)


def test_design_probes_restricted_base_accepted():
    spec = two_coefficient_spec()
    probes = design_probes(spec, np.array([0.0, 0.0, SQ3]), eps=0.05)
    assert compatibility(spec, probes.probes)[0].all()


def test_design_probes_halves_step():
    # eps = 0.5 oversteps the small sphere along every axis; one halving fixes it
    spec = two_coefficient_spec()
    probes = design_probes(spec, np.array([0.0, 0.0, SQ3]), eps=0.5)
    np.testing.assert_allclose(np.abs(probes.deltas), 0.25)


def test_design_probes_validates_arguments():
    spec = JointStateCoeffs.blank(2, 2)
    with pytest.raises(ValueError):
        design_probes(spec, np.zeros(2))
    with pytest.raises(ValueError):
        design_probes(spec, np.zeros(3), eps=-1.0)


def sequential_design(spec, base, eps, tol=1e-9):
    """The probe-by-probe search: per axis +step, then -step, halving the step.

    Returns (probes, deltas), or None where design_probes must raise.
    """
    if not compatibility(spec, base, tol)[0]:
        return None
    probes, deltas = [base], np.zeros(len(base))
    for alpha in range(len(base)):
        step = eps
        for _ in range(MAX_HALVINGS + 1):
            for sign in (1.0, -1.0):
                cand = base.copy()
                cand[alpha] += sign * step
                if compatibility(spec, cand, tol)[0]:
                    probes.append(cand)
                    deltas[alpha] = sign * step
                    break
            else:
                step /= 2.0
                continue
            break
        else:
            return None
    return np.array(probes), deltas


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
@pytest.mark.parametrize("mixing", [1.0, 1e-3])
def test_design_probes_matches_sequential_search(dims, mixing):
    # mixing 1 draws full-rank states; 1e-3 mixes a pure state with that much
    # of one, which forces halvings; its odd draws jitter the base, mostly outside
    n, m = dims
    d = n * m
    rng = np.random.default_rng(d + int(mixing < 1))
    pb = product_basis(n, m)
    halved = raised = 0
    for i in range(12):
        pi = (1 - mixing) * random_density(d, rng, rank=1) + mixing * random_density(d, rng)
        spec = expand_state(pi, pb)
        base = spec.coeff[1:, 0] + (1 - mixing) * (i % 2) * rng.normal(scale=1e-3, size=n**2 - 1)
        expected = sequential_design(spec, base, eps=0.05)
        if expected is None:
            raised += 1
            with pytest.raises(InfeasibleError):
                design_probes(spec, base, eps=0.05)
            continue
        got = design_probes(spec, base, eps=0.05)
        np.testing.assert_array_equal(got.probes, expected[0])
        np.testing.assert_array_equal(got.deltas, expected[1])
        halved += bool((np.abs(got.deltas) < 0.05).any())
    if mixing < 1:
        assert halved > 0 and raised > 0


def test_reconstruct_identity_evolution():
    amap = AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=np.zeros((2, 2), dtype=complex))
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.1)
    evaluate_probes(probes, map_oracle(amap))
    recon = reconstruct_map(probes)
    np.testing.assert_allclose(recon.one_prime, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(recon.f_primes, SIGMA, atol=1e-12)
    np.testing.assert_allclose(recon.k_mat, 0.0, atol=1e-12)


def test_reconstruct_known_map(rng):
    truth = random_map(rng)
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.array([0.1, 0.0, -0.2]), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    recon = reconstruct_map(probes)
    report = validate_reconstruction(recon, truth, tol=1e-10)
    assert report.passed, report.to_dict()


def test_reconstruct_closed_form_family():
    corr = JointStateCoeffs.blank(2, 2)
    corr.coeff[0, 1] = 0.3
    corr.coeff[1, 3] = -0.4
    truth = int_ham_map(IntHamParams(gamma=(0.7, 1.9, 0.2)), corr)
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    recon = reconstruct_map(probes)
    assert validate_reconstruction(recon, truth, tol=1e-10).passed


def test_reconstruct_base_at_origin_reads_one_prime():
    amap = AffineMap(n=2, m=1, g_ops=np.array([I2]), k_mat=traceless_operator([0.0, 0.0, 0.3], 2))
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.1)
    evaluate_probes(probes, map_oracle(amap))
    recon = reconstruct_map(probes)
    # at zero base the identity image is just N rho_out
    base_out = probes.outputs[0]
    np.testing.assert_allclose(recon.one_prime, 2 * base_out, atol=1e-12)
    np.testing.assert_allclose(recon.one_prime, np.eye(2) + 2 * amap.k_mat, atol=1e-12)


def test_reconstruction_exact_for_random_maps(rng):
    for _ in range(20):
        truth = random_map(rng)
        probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
        evaluate_probes(probes, map_oracle(truth))
        recon = reconstruct_map(probes)
        assert validate_reconstruction(recon, truth, tol=1e-9).passed


def test_reconstruction_base_independent(rng):
    truth = random_map(rng)
    spec = JointStateCoeffs.blank(2, 2)
    recons = []
    for base in (np.zeros(3), np.array([0.2, -0.1, 0.3])):
        probes = design_probes(spec, base, eps=0.05)
        evaluate_probes(probes, map_oracle(truth))
        recons.append(reconstruct_map(probes))
    np.testing.assert_allclose(recons[0].one_prime, recons[1].one_prime, atol=1e-9)
    np.testing.assert_allclose(recons[0].f_primes, recons[1].f_primes, atol=1e-9)


def test_reconstruction_with_noise_reports_deviation(rng):
    truth = random_map(rng)
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    noisy = probes.outputs + 1e-6 * rng.normal(size=probes.outputs.shape)
    probes.outputs = 0.5 * (noisy + noisy.conj().swapaxes(-1, -2))
    recon = reconstruct_map(probes)
    report = validate_reconstruction(recon, truth, tol=1e-9)
    # deviation scales like noise / eps; just confirm it is reported, not tiny
    assert 1e-7 < report.max_dev < 1e-3


def test_reconstruct_requires_pairs():
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.1)
    with pytest.raises(ValueError):
        reconstruct_map(probes)


def test_reconstruct_overdetermined_consistent(rng):
    truth = random_map(rng)
    coeffs = rng.uniform(-0.4, 0.4, size=(12, 3))
    recon = reconstruct_map(evaluate_probes(ProbeSet(coeffs, np.zeros(3)), map_oracle(truth)))
    assert validate_reconstruction(recon, truth, tol=1e-9).passed
    assert recon.residual < 1e-10


def test_reconstruct_inconsistent_pairs_raise(rng):
    truth_a = random_map(rng)
    truth_b = random_map(rng)
    coeffs = rng.uniform(-0.4, 0.4, size=(12, 3))
    outputs = np.concatenate([map_oracle(truth_a)(coeffs[:6]), map_oracle(truth_b)(coeffs[6:])])
    with pytest.raises(ValueError, match="inconsistent"):
        reconstruct_map(ProbeSet(coeffs, np.zeros(3), outputs))


@pytest.mark.parametrize(
    "coeffs, rank",
    [
        ([[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]], 2),  # all on the a1 axis
        ([[0.1, 0.2, 0.3]] * 4, 1),  # one probe four times
        ([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0.1, 0.1, 0]] * 3, 3),  # over-determined but planar
    ],
)
def test_reconstruct_rank_deficient_design_raises(rng, coeffs, rank):
    # lstsq would return a minimum-norm fit with some F'_alpha set to zero
    probes = evaluate_probes(ProbeSet(np.array(coeffs, dtype=float), np.zeros(3)), map_oracle(random_map(rng)))
    with pytest.raises(ValueError, match=f"rank {rank};"):
        reconstruct_map(probes)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
def test_map_oracle_stack_matches_per_probe_apply_affine(rng, n, m):
    pb = product_basis(n, m)
    truth = extract_map(random_unitary(n * m, rng), random_density(n * m, rng), pb)
    probes = rng.uniform(-0.2, 0.2, size=(9, n * n - 1))
    stack = map_oracle(truth)(probes)
    assert stack.shape == (9, n, n)
    for probe, out in zip(probes, stack):
        np.testing.assert_array_equal(out, apply_affine(truth, probe_state(probe, n)))


def test_pairs_json_round_trip(rng):
    truth = random_map(rng)
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    back = pairs_from_json(pairs_json(probes))
    np.testing.assert_array_equal(back.probes, probes.probes)
    np.testing.assert_array_equal(back.outputs, probes.outputs)
    np.testing.assert_array_equal(back.deltas, 0.0)
    recon = reconstruct_map(back)
    assert validate_reconstruction(recon, truth, tol=1e-9).passed


def test_pairs_from_json_prints_a_real_trace():
    pairs = SimpleNamespace(probes=np.zeros((1, 3)), outputs=np.eye(2)[None] + 0j)
    with pytest.raises(ValueError) as exc:
        pairs_from_json(pairs_json(pairs))
    assert str(exc.value) == "rho_out of pair 0 has trace 2, expected 1"


def test_validate_self_comparison(rng):
    truth = random_map(rng)
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    recon = reconstruct_map(probes)
    report = validate_reconstruction(recon, truth)
    assert report.max_dev < 1e-10
    data = report.to_dict()
    assert data["passed"] is True


def test_probe_pairs_match_joint_evolution(pb22, rng):
    # oracle pairs agree with true joint-space evolution on the matching state
    from affinemaps.basis import reconstruct_state
    from affinemaps.linalg import dagger, partial_trace

    spec = expand_state(random_density(4, rng), pb22)
    u = random_unitary(4, rng)
    pi = reconstruct_state(spec, pb22)
    amap = extract_map(u, pi, pb22)
    probe = spec.coeff[1:, 0]
    out_map = map_oracle(amap)(probe)
    out_joint = partial_trace(u @ pi @ dagger(u), 2, 2)
    np.testing.assert_allclose(out_map, out_joint, atol=1e-12)
