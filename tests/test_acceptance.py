"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import int_ham_b_matrix, int_ham_closed_map, lorentz_closed_map

from affinemaps.basis import JointStateCoeffs, coefficients, expand_state, product_basis, reconstruct_state, traceless_operator
from affinemaps.cli import fig2_spec, main
from affinemaps.domains import compatibility, sample_domain
from affinemaps.linalg import dagger, partial_trace, random_density, random_unitary
from affinemaps.maps import (
    AffineMap,
    b_matrix,
    choi_and_cp,
    extract_G,
    extract_map,
    map_from_unitary,
    pm_decomposition,
)
from affinemaps.qubit2 import (
    GOLDEN_KAPPA_BOUND,
    I2,
    SIGMA,
    IntHamParams,
    LorentzParams,
    Rotation,
    int_ham_map,
    int_ham_unitary,
    kappa_search,
    lorentz_unitary,
)
from affinemaps.tomography import (
    design_probes,
    evaluate_probes,
    map_oracle,
    reconstruct_map,
    validate_reconstruction,
)

PB22 = product_basis(2, 2)
SQ3 = 1.0 / np.sqrt(3.0)


def report(num, label, detail, elapsed, budget):
    print(f"ACCEPTANCE {num} [{label}]: PASS ({detail}, {elapsed:.1f}s < {budget}s)")


def test_criterion_1_int_ham_closed_forms():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    max_lk = 0.0
    max_b = 0.0
    for _ in range(500):
        gamma = tuple(rng.uniform(0, 2 * np.pi, 3))
        pi = random_density(4, rng, shape=(1,))[0]
        corr = expand_state(pi, PB22)
        params = IntHamParams(gamma=gamma)
        closed = int_ham_closed_map(params, corr)
        numeric = extract_map(int_ham_unitary(params), pi, PB22)
        for amap in (numeric, int_ham_map(params, corr)):
            max_lk = max(
                max_lk,
                float(np.abs(closed.k_mat - amap.k_mat).max()),
                float(np.abs(closed.g_ops - amap.g_ops).max()),
            )
        b_closed = int_ham_b_matrix(params, coefficients(numeric.k_mat, 2)).b
        max_b = max(max_b, float(np.abs(b_matrix(numeric).b - b_closed).max()))
    elapsed = time.perf_counter() - t0
    assert max_lk <= 1e-10
    assert max_b <= 1e-12
    assert elapsed < 10.0
    report(1, "int-ham closed forms", f"500 draws, L/K dev {max_lk:.1e}, B dev {max_b:.1e}", elapsed, 10)


def test_criterion_2_lorentz_closed_forms():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    max_dev = 0.0
    for _ in range(500):
        axes = rng.normal(size=(2, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        params = LorentzParams(
            r1=Rotation(axis=tuple(axes[0]), angle=float(rng.uniform(0, 2 * np.pi))),
            r2=Rotation(axis=tuple(axes[1]), angle=float(rng.uniform(0, 2 * np.pi))),
        )
        pi = random_density(4, rng, shape=(1,))[0]
        corr = expand_state(pi, PB22)
        closed = lorentz_closed_map(params, corr)
        for amap in (extract_map(lorentz_unitary(params), pi, PB22), map_from_unitary(lorentz_unitary(params), corr)):
            max_dev = max(
                max_dev,
                float(np.abs(closed.k_mat - amap.k_mat).max()),
                float(np.abs(closed.g_ops - amap.g_ops).max()),
            )
    elapsed = time.perf_counter() - t0
    assert max_dev <= 1e-10
    assert elapsed < 10.0
    report(2, "two-momentum closed forms", f"500 draws, max dev {max_dev:.1e}", elapsed, 10)


def test_criterion_3_purity_theorem_both_directions():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    # K = 0: purity never increases; L acts on each unitary's states as one
    # 4x4 matrix S[il, jk] = sum_n G_n[ij] conj(G_n[lk]) on the flattened rho
    unitaries = random_unitary(4, rng, shape=(1000,))
    fr = PB22.basis_r
    g = np.einsum("uiajc,xca->uxij", unitaries.reshape(-1, 2, 2, 2, 2), fr) / 2
    superops = np.einsum("unij,unlk->uiljk", g, g.conj()).reshape(-1, 4, 4)
    worst = -np.inf
    for s in superops:
        rhos = random_density(2, rng, shape=(1000,))
        outs = (rhos.reshape(-1, 4) @ s.T).reshape(-1, 2, 2)
        delta = np.einsum("bij,bji->b", outs, outs).real - np.einsum("bij,bji->b", rhos, rhos).real
        worst = max(worst, float(delta.max()))
    assert worst <= 1e-10

    # K != 0: purity strictly increases at the maximally mixed state by sum lambda_n^2
    kept = 0
    max_rel = 0.0
    lifted = np.kron(SIGMA, I2)  # s_mu (x) 1
    while kept < 1000:
        count = 1200
        us = random_unitary(4, rng, shape=(count,))
        pis = random_density(4, rng, shape=(count,))
        diff = pis - np.kron(partial_trace(pis, 2, 2), I2 / 2)
        traces = np.trace(dagger(us)[:, None] @ lifted @ us[:, None] @ diff[:, None], axis1=-2, axis2=-1)
        k = np.zeros((count, 2, 2), dtype=complex)
        for mu in range(3):
            k += traces[:, mu, None, None] * SIGMA[mu] / 2
        kappa = np.einsum("jab,zba->zj", SIGMA, k).real
        # the first draws with |kappa| > 1e-3, up to 1000 in all
        idx = np.flatnonzero(np.linalg.norm(kappa, axis=1) > 1e-3)[: 1000 - kept]
        kept += idx.size
        h = 0.5 * (k[idx] + dagger(k[idx]))
        lam2 = (np.linalg.eigvalsh(h) ** 2).sum(-1)
        out = I2 / 2 + h
        delta = (np.trace(out @ out, axis1=-2, axis2=-1) - 0.5).real
        assert (delta > 0).all()
        max_rel = max(max_rel, float((np.abs(delta - lam2) / lam2).max()))
    assert max_rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        3, "purity theorem", f"1000 maps each way, worst delta {worst:.1e}, rel err {max_rel:.1e}",
        elapsed, 30,
    )


def test_criterion_4_g_operator_completeness():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        pb = product_basis(n, m)
        u = random_unitary(n * m, rng, shape=(1000,))
        g = np.einsum("biajc,xca->bxij", u.reshape(-1, n, m, n, m), pb.basis_r) / m
        left = np.einsum("bxji,bxjk->bik", g.conj(), g)
        right = np.einsum("bxij,bxkj->bik", g, g.conj())
        eye = np.eye(n)
        worst = max(worst, float(np.abs(left - eye).max()), float(np.abs(right - eye).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    report(4, "G completeness", f"3x1000 unitaries, max dev {worst:.1e}", elapsed, 60)


def test_criterion_5_two_sphere_geometry():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    spec = fig2_spec()
    probes = rng.uniform(-1.0, 1.0, size=(30000, 3))
    probes = probes[(probes**2).sum(axis=1) <= 1.0][:10000]
    assert len(probes) == 10000
    coeff = np.broadcast_to(spec.coeff, (len(probes), 4, 4)).copy()
    coeff[:, 1:, 0] = probes
    flat = PB22.mats.reshape(16, 4, 4)
    mats = np.einsum("bx,xij->bij", coeff.reshape(len(probes), 16), flat) / 4
    feasible = np.linalg.eigvalsh(mats)[:, 0] >= -1e-9
    plus = probes[:, 0] ** 2 + probes[:, 1] ** 2 + (probes[:, 2] + SQ3) ** 2 <= (1 + SQ3) ** 2
    minus = probes[:, 0] ** 2 + probes[:, 1] ** 2 + (probes[:, 2] - SQ3) ** 2 <= (1 - SQ3) ** 2
    disagreements = int((feasible != (plus & minus)).sum())
    assert disagreements == 0
    assert not compatibility(spec, np.zeros(3))[0]
    assert (probes[feasible, 2] > 0).all()
    plane = sample_domain(spec, section="p1p2", resolution=41)
    assert not (plane.compat == 1).any()
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(
        5, "two-sphere compatibility geometry",
        f"10000 probes, 0 disagreements, origin excluded, a3=0 slice empty", elapsed, 20,
    )


def test_criterion_6_kappa_bounds_and_search():
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    count = 10000
    us = random_unitary(4, rng, shape=(count,))
    pis = random_density(4, rng, shape=(count,))
    sig_joint = np.array([np.kron(SIGMA[j], I2) for j in range(3)])
    y = np.einsum("bqa,jqr,brc->bjac", us.conj(), sig_joint, us)
    rhos = np.einsum("bsrtr->bst", pis.reshape(count, 2, 2, 2, 2))
    prod = np.einsum("bst,ru->bsrtu", rhos, I2 / 2).reshape(count, 4, 4)
    diff = pis - prod
    kappa = np.einsum("bjac,bca->bj", y, diff).real
    # tie the batched extraction to the library path on a few samples
    for b in range(5):
        k_lib = coefficients(extract_map(us[b], pis[b], PB22).k_mat, 2)
        np.testing.assert_allclose(kappa[b], k_lib, atol=1e-12)
    kappa_norm = np.linalg.norm(kappa, axis=1)
    a_norm = np.linalg.norm(np.einsum("jst,bts->bj", SIGMA, rhos).real, axis=1)
    bound = np.minimum(np.sqrt(3.0 - a_norm**2), 1.0 + a_norm)
    violations = int((kappa_norm > bound + 1e-9).sum())
    assert violations == 0
    assert kappa_norm.max() <= GOLDEN_KAPPA_BOUND + 1e-9

    search = kappa_search("lorentz", trials=10000, seed=106)
    assert search.best_kappa_norm >= 0.99
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        6, "kappa bounds",
        f"10000 pairs, 0 violations, max |kappa| {kappa_norm.max():.3f}, "
        f"search best {search.best_kappa_norm:.4f}",
        elapsed, 60,
    )


def test_criterion_7_cp_detection():
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    us = random_unitary(4, rng, shape=(1000,))
    pis = random_density(4, rng, shape=(1000,))
    cp_count = 0
    for u, pi in zip(us, pis):
        amap = extract_map(u, pi, PB22)
        _, is_cp = choi_and_cp(amap, tol=1e-9)
        _, signs = pm_decomposition(amap, tol=1e-9)
        assert is_cp == all(s == 1 for s in signs)
        cp_count += is_cp
    # every K = 0 map is CP
    for u in random_unitary(4, rng, shape=(50,)):
        g = extract_G(u, PB22.basis_r)
        amap = AffineMap(n=2, m=2, g_ops=g, k_mat=np.zeros((2, 2), dtype=complex))
        _, is_cp = choi_and_cp(amap, tol=1e-9)
        assert is_cp
    flagged = AffineMap(
        n=2, m=1, g_ops=np.array([I2]), k_mat=traceless_operator([0.0, 0.0, 0.5], 2)
    )
    _, is_cp = choi_and_cp(flagged, tol=1e-9)
    assert not is_cp
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        7, "CP detection",
        f"1000 maps census-consistent ({cp_count} CP), K=0 maps CP, kappa=0.5 map flagged",
        elapsed, 60,
    )


def test_criterion_8_tomography_round_trip():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    blank = JointStateCoeffs.blank(2, 2)
    worst = 0.0
    for _ in range(100):
        truth = extract_map(random_unitary(4, rng), random_density(4, rng, shape=(1,))[0], PB22)
        probes = design_probes(blank, np.zeros(3), eps=0.05)
        evaluate_probes(probes, map_oracle(truth))
        recon = reconstruct_map(probes)
        rep = validate_reconstruction(recon, truth, tol=1e-9)
        assert rep.passed
        worst = max(worst, rep.max_dev)
    spec = fig2_spec()
    from affinemaps.domains import InfeasibleError

    joint = dataclasses.replace(spec)
    joint.coeff[1:, 0] = [0.0, 0.0, SQ3]
    truth = extract_map(random_unitary(4, rng), reconstruct_state(joint), PB22)
    with pytest.raises(InfeasibleError):
        design_probes(spec, np.zeros(3), eps=0.05)
    probes = design_probes(spec, np.array([0.0, 0.0, SQ3]), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    assert validate_reconstruction(reconstruct_map(probes), truth, tol=1e-9).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        8, "tomography round trip",
        f"100 maps recovered, worst dev {worst:.1e}, restricted base handled", elapsed, 60,
    )


def test_criterion_9_figure_presets(tmp_path):
    t0 = time.perf_counter()
    res = 21
    dirs = {}
    for name in ("fig1", "fig1a", "fig2"):
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            assert main(["preset", name, "--resolution", str(res), "--out", str(out)]) == 0
            dirs[(name, run)] = out
    # determinism: byte-identical emissions for identical inputs
    for name in ("fig1", "fig1a", "fig2"):
        a, b = dirs[(name, "a")], dirs[(name, "b")]
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)

    # fig1: the three coordinate sections are identical point sets under axis permutation
    def labels(path, axes):
        rows = path.read_text().strip().split("\n")[1:]
        return {(r.split(",")[axes[0]], r.split(",")[axes[1]]): r.split(",")[3] for r in rows}

    fig1 = dirs[("fig1", "a")]
    for series in ("partial", "full"):
        c12 = labels(fig1 / f"fig1_{series}_p1p2.csv", (0, 1))
        c13 = labels(fig1 / f"fig1_{series}_p1p3.csv", (0, 2))
        c23 = labels(fig1 / f"fig1_{series}_p2p3.csv", (1, 2))
        assert c12 == c23
        assert all(c13[(y, x)] == v for (x, y), v in c12.items())
    n_feasible = sum(1 for v in labels(fig1 / "fig1_partial_p1p2.csv", (0, 1)).values() if v == "1")
    assert n_feasible > 0

    # fig1a: mapped-unit-sphere curve data emitted and consistent with the map
    fig1a = dirs[("fig1a", "a")]
    circle = (fig1a / "fig1a_circle_p1p2.csv").read_text().strip().split("\n")
    assert circle[0] == "in1,in2,in3,out1,out2,out3"
    assert len(circle) == 361
    import json

    from affinemaps.maps import bloch_action, map_from_json_dict

    amap = map_from_json_dict(json.loads((fig1a / "fig1a_map.json").read_text()))
    t_mat, kappa = bloch_action(amap)
    for row in circle[1:10]:
        vals = np.array([float(x) for x in row.split(",")])
        np.testing.assert_allclose(t_mat @ vals[:3] + kappa, vals[3:], atol=1e-8)
    assert (fig1a / "fig1a_mapped_p1p2.csv").exists()

    # fig2: the emitted p1p2 section is empty of feasible points
    fig2 = dirs[("fig2", "a")]
    rows = (fig2 / "fig2_p1p2.csv").read_text().strip().split("\n")[1:]
    assert all(r.split(",")[3] == "0" for r in rows)
    elapsed = time.perf_counter() - t0
    report(
        9, "figure presets",
        f"deterministic emissions, fig1 sections permute, fig1a curve present, fig2 plane empty",
        elapsed, 120,
    )
