import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_ham_b_matrix, pairs_json

import affinemaps
from affinemaps import domains
from affinemaps.basis import JointStateCoeffs, coefficients, probe_state, product_basis, traceless_operator
from affinemaps.cli import build_parser, fig1_spec, fig1a_map, fig2_spec, main
from affinemaps.linalg import random_density, random_unitary, to_pairs
from affinemaps.maps import AffineMap, choi_matrix, extract_map, map_from_json_dict, map_to_json, map_to_json_dict
from affinemaps.qubit2 import SIGMA, IntHamParams, int_ham_unitary
from affinemaps.tomography import ProbeSet, evaluate_probes, map_oracle

SQ3 = 1.0 / np.sqrt(3.0)


def write_matrix(path, mat):
    mat = np.asarray(mat, dtype=complex)
    path.write_text(json.dumps({"matrix": np.stack([mat.real, mat.imag], axis=-1).tolist()}))
    return str(path)


def write_spec(path, spec):
    path.write_text(spec.to_json())
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_extract_zero_angles_gives_cp_identity(tmp_path):
    u_path = write_matrix(tmp_path / "u.json", np.eye(4))
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[1, 1] = 0.5
    s_path = write_spec(tmp_path / "state.json", spec)
    out = tmp_path / "map.json"
    assert main(["extract", "--unitary", u_path, "--state", s_path, "--out", str(out)]) == 0
    data = read_json(out)
    k = np.asarray(data["k"], dtype=float)
    assert np.abs(k).max() < 1e-12
    assert data["properties"]["is_cp"] is True
    assert data["properties"]["purity_theorem_side"] == "never_increases"
    assert abs(data["properties"]["trace_k"]) < 1e-12


def test_extract_interaction_parameters_match_closed_form_b(tmp_path):
    gamma = (2 * np.sqrt(5.0), 2 * np.sqrt(3.0), 2 * np.sqrt(2.0))
    u_path = write_matrix(tmp_path / "u.json", int_ham_unitary(IntHamParams(gamma=gamma)))
    # the all-quarters correlation spec is positive only at probe (1/4, 1/4, 1/4)
    state = fig1_spec(diagonals_free=False)
    state.coeff[1:, 0] = 0.25
    s_path = write_spec(tmp_path / "state.json", state)
    out = tmp_path / "map.json"
    assert main(["extract", "--unitary", u_path, "--state", s_path, "--out", str(out)]) == 0
    data = read_json(out)
    amap = map_from_json_dict(data)
    closed = int_ham_b_matrix(IntHamParams(gamma=gamma), coefficients(amap.k_mat, 2))
    b_arr = np.asarray(data["b_matrix"], dtype=float)
    np.testing.assert_allclose(b_arr[..., 0] + 1j * b_arr[..., 1], closed.b, atol=1e-12)


def test_example_lorentz_g_operators(tmp_path):
    out = tmp_path / "map.json"
    code = main(
        [
            "example", "lorentz",
            "--r1", '{"axis": [0, 0, 1], "angle": 0.0}',
            "--r2", '{"axis": [0, 0, 1], "angle": 3.141592653589793}',
            "--out", str(out),
        ]
    )
    assert code == 0
    amap = map_from_json_dict(read_json(out))
    # G(0) = (D1 + D2)/2, G(1) = (D1 - D2)/2 with D1 = 1, D2 = -i s3
    d2 = -1j * SIGMA[2]
    np.testing.assert_allclose(amap.g_ops[0], 0.5 * (np.eye(2) + d2), atol=1e-12)
    np.testing.assert_allclose(amap.g_ops[1], 0.5 * (np.eye(2) - d2), atol=1e-12)
    np.testing.assert_allclose(amap.g_ops[2:], 0.0, atol=1e-12)


def test_example_rejects_a_free_mean_value_that_enters_K(tmp_path, capsys):
    # the lorentz map reads <s1 x1>; a spec that leaves it free gives K no value
    spec = JointStateCoeffs.blank(2, 2)
    spec.free[1, 1] = True
    spec.coeff[1, 1] = 0.5
    s_path = write_spec(tmp_path / "spec.json", spec)
    rotations = ["--r1", '{"axis":[0,0,1],"angle":0}', "--r2", '{"axis":[0,0,1],"angle":1.0}']
    out = tmp_path / "map.json"
    assert main(["example", "lorentz", *rotations, "--spec", s_path, "--out", str(out)]) == 2
    assert "coeff[1, 1] is free" in capsys.readouterr().err
    assert not out.exists()
    # int_ham reads no diagonal correlation, so the fig1 spec may leave those free
    s_path = write_spec(tmp_path / "partial.json", fig1_spec(diagonals_free=True))
    assert main(["example", "int-ham", "--gamma", "0.4,0.9,1.7", "--spec", s_path, "--out", str(out)]) == 0


def test_example_int_ham_and_apply(tmp_path):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0.4,0.9,1.7", "--out", str(map_path)]) == 0
    out = tmp_path / "rho.json"
    assert main(["apply", "--map", str(map_path), "--probe", "0.3,0,0", "--out", str(out)]) == 0
    data = read_json(out)
    factor = np.cos(0.9) * np.cos(1.7)
    np.testing.assert_allclose(data["bloch_out"], [0.3 * factor, 0.0, 0.0], atol=1e-12)


def test_check_cp_flags_inhomogeneous_identity(tmp_path):
    # L = identity with kappa = (0, 0, 0.5) is not completely positive
    from affinemaps.maps import AffineMap, map_to_json_dict

    amap = AffineMap(n=2, m=1, g_ops=np.eye(2, dtype=complex)[None], k_mat=traceless_operator([0, 0, 0.5], 2))
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(map_to_json_dict(amap)))
    out = tmp_path / "cp.json"
    assert main(["check-cp", "--map", str(map_path), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["is_cp"] is False
    assert data["negative_ops"] == 2
    np.testing.assert_allclose(
        sorted(data["choi_eigenvalues"]),
        sorted([-0.25, 1 - np.sqrt(1.0625), 0.25, 1 + np.sqrt(1.0625)]),
        atol=1e-12,
    )


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_check_cp_prints_the_choi_spectrum(tmp_path, dims):
    # the printed spectrum is eigvalsh of the Choi array itself, computed once
    rng = np.random.default_rng(sum(dims))
    n, m = dims
    amap = extract_map(random_unitary(n * m, rng), random_density(n * m, rng), product_basis(n, m))
    map_path, out = tmp_path / "map.json", tmp_path / "cp.json"
    map_path.write_text(map_to_json(amap))
    assert main(["check-cp", "--map", str(map_path), "--out", str(out)]) == 0
    loaded = map_from_json_dict(read_json(map_path))
    assert read_json(out)["choi_eigenvalues"] == np.linalg.eigvalsh(choi_matrix(loaded)).tolist()


def test_purity_command(tmp_path):
    map_path = tmp_path / "map.json"
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[0, 3] = 0.6
    s_path = write_spec(tmp_path / "corr.json", spec)
    assert main(["example", "int-ham", "--gamma", "1.0,1.2,0.0", "--spec", s_path, "--out", str(map_path)]) == 0
    out = tmp_path / "purity.json"
    assert main(["purity", "--map", str(map_path), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["purity_delta"] > 0
    assert data["purity_theorem_side"] == "increases_at_maximally_mixed"
    np.testing.assert_allclose(data["purity_delta"], data["purity_delta_max_mixed"], atol=1e-12)


def test_domains_command_writes_csv_and_sidecar(tmp_path):
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    out = tmp_path / "section"
    code = main(
        ["domains", "--spec", s_path, "--section", "p1p3", "--resolution", "15", "--out", str(out)]
    )
    assert code == 0
    lines = (tmp_path / "section.csv").read_text().strip().split("\n")
    assert lines[0] == "a1,a2,a3,compat,pos"
    meta = read_json(tmp_path / "section.json")
    assert meta["map"] is None
    assert meta["resolution"] == 15 and meta["section"] == "p1p3"
    assert meta["spec"]["coeff"][0][1] == pytest.approx(SQ3)


def test_domains_sidecar_records_only_inputs_that_shaped_the_csv(tmp_path):
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    grid = ["domains", "--spec", s_path, "--section", "p1p2", "--resolution", "9"]
    assert main(grid + ["--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
    assert main(grid + ["--out", str(tmp_path / "plain")]) == 0
    assert (tmp_path / "seeded.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    meta = read_json(tmp_path / "seeded.json")
    assert meta["seed"] is None and meta["resolution"] == 9
    cloud = ["domains", "--spec", s_path, "--region", "random", "--count", "20", "--seed", "5"]
    assert main(cloud + ["--out", str(tmp_path / "cloud")]) == 0
    meta = read_json(tmp_path / "cloud.json")
    assert meta["seed"] == 5 and meta["resolution"] is None


def test_image_command(tmp_path):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0,0,0", "--out", str(map_path)]) == 0
    out = tmp_path / "circle"
    assert main(["image", "--map", str(map_path), "--section", "p1p2", "--resolution", "32", "--out", str(out)]) == 0
    lines = (tmp_path / "circle.csv").read_text().strip().split("\n")
    assert lines[0] == "in1,in2,in3,out1,out2,out3"
    assert len(lines) == 33
    first = [float(x) for x in lines[1].split(",")]
    np.testing.assert_allclose(first[:3], first[3:], atol=1e-12)


def test_tomography_round_trip(tmp_path):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0.7,0.1,1.3", "--out", str(map_path)]) == 0
    out = tmp_path / "recon.json"
    assert main(["tomography", "--map", str(map_path), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["validation"]["passed"] is True
    assert data["validation"]["max_dev"] < 1e-9


def test_tomography_infeasible_base_exit_code(tmp_path):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0.7,0.1,1.3", "--out", str(map_path)]) == 0
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    code = main(["tomography", "--map", str(map_path), "--spec", s_path, "--base", "0,0,0"])
    assert code == 3


def test_tomography_restricted_base_succeeds(tmp_path):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0.7,0.1,1.3", "--out", str(map_path)]) == 0
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    out = tmp_path / "recon.json"
    code = main(
        ["tomography", "--map", str(map_path), "--spec", s_path,
         "--base", f"0,0,{SQ3}", "--out", str(out)]
    )
    assert code == 0
    assert read_json(out)["validation"]["passed"] is True


def test_tomography_base_inside_partial_domain(tmp_path):
    # (0.3, 0, 0) is strictly inside: max lambda_min over the free diagonals is +1.48e-4
    map_path = tmp_path / "map.json"
    map_path.write_text(map_to_json(fig1a_map()))
    s_path = write_spec(tmp_path / "spec.json", fig1_spec(True))
    out = tmp_path / "recon.json"
    code = main(
        ["tomography", "--map", str(map_path), "--spec", s_path, "--base", "0.3,0,0", "--out", str(out)]
    )
    assert code == 0
    assert read_json(out)["validation"]["passed"] is True


@pytest.mark.parametrize("dims", [(3, 2), (3, 3)])
def test_tomography_defaults_follow_the_map_dims(tmp_path, dims):
    # without --spec and --base the design starts at the maximally mixed state of the map's own dims
    n, m = dims
    rng = np.random.default_rng(n * m)
    map_path, out = tmp_path / "map.json", tmp_path / "recon.json"
    map_path.write_text(map_to_json(extract_map(random_unitary(n * m, rng), random_density(n * m, rng), product_basis(n, m))))
    assert main(["tomography", "--map", str(map_path), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["n"] == n and data["validation"]["passed"] is True


def test_extract_closed_system_with_dims_2_1(tmp_path, rng):
    # m = 1: the environment basis is [[1]], so G(0) = U and K = 0
    u = random_unitary(2, rng)
    u_path = write_matrix(tmp_path / "u.json", u)
    s_path = write_matrix(tmp_path / "rho.json", np.diag([0.7, 0.3]))
    out = tmp_path / "map.json"
    assert main(["extract", "--unitary", u_path, "--state", s_path, "--dims", "2,1", "--out", str(out)]) == 0
    amap = map_from_json_dict(read_json(out))
    assert (amap.n, amap.m) == (2, 1)
    np.testing.assert_allclose(amap.g_ops, u[None], rtol=0, atol=1e-15)
    assert np.abs(amap.k_mat).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_tomography_runs_a_closed_system_map(tmp_path, rng, n):
    # the default blank spec of an (n, 1) map is built on the n = 1 environment basis
    amap = AffineMap(n=n, m=1, g_ops=random_unitary(n, rng)[None], k_mat=np.zeros((n, n), dtype=complex))
    map_path, out = tmp_path / "map.json", tmp_path / "recon.json"
    map_path.write_text(map_to_json(amap))
    assert main(["tomography", "--map", str(map_path), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["n"] == n and data["validation"]["passed"] is True


def test_tomography_external_pairs(tmp_path, rng):
    from affinemaps.maps import extract_map
    from affinemaps.basis import product_basis
    from affinemaps.linalg import random_density, random_unitary
    from affinemaps.tomography import design_probes, evaluate_probes, map_oracle

    truth = extract_map(random_unitary(4, rng), random_density(4, rng), product_basis(2, 2))
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(pairs_json(probes))
    out = tmp_path / "recon.json"
    assert main(["tomography", "--pairs", str(pairs_path), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["validation"] is None
    one_prime = np.asarray(data["one_prime"], dtype=float)
    np.testing.assert_allclose(
        one_prime[..., 0] + 1j * one_prime[..., 1], truth.one_prime, atol=1e-10
    )


def test_kappa_command(tmp_path):
    out = tmp_path / "kappa.json"
    assert main(["kappa", "--family", "lorentz", "--trials", "200", "--seed", "3", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["best_kappa_norm"] >= 0.99
    assert data["bounds"]["violations"] == 0
    assert data["best_kappa_norm"] <= data["global_bound"] + 1e-9


def test_preset_fig2_sections(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["preset", "fig2", "--resolution", "21", "--out", str(out_dir)]) == 0
    meta = read_json(out_dir / "fig2_meta.json")
    assert len(meta["files"]) == 3
    # the domain never touches the a3 = 0 plane
    p1p2 = (out_dir / "fig2_p1p2.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[3] == "0" for row in p1p2)
    p1p3 = (out_dir / "fig2_p1p3.csv").read_text().strip().split("\n")[1:]
    feas = [row for row in p1p3 if row.split(",")[3] == "1"]
    assert feas and all(float(row.split(",")[2]) > 0 for row in feas)


def test_preset_fig2_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["preset", "fig2", "--resolution", "15", "--out", str(d1)]) == 0
    assert main(["preset", "fig2", "--resolution", "15", "--out", str(d2)]) == 0
    for name in ("fig2_p1p2.csv", "fig2_p1p3.csv", "fig2_p2p3.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_preset_fig1_sections_permute(tmp_path):
    out_dir = tmp_path / "fig1"
    assert main(["preset", "fig1", "--resolution", "15", "--out", str(out_dir)]) == 0

    def labels(name, axes):
        rows = (out_dir / name).read_text().strip().split("\n")[1:]
        out = {}
        for row in rows:
            vals = row.split(",")
            out[(vals[axes[0]], vals[axes[1]])] = vals[3]
        return out

    for series in ("partial", "full"):
        c12 = labels(f"fig1_{series}_p1p2.csv", (0, 1))
        c13 = labels(f"fig1_{series}_p1p3.csv", (0, 2))
        c23 = labels(f"fig1_{series}_p2p3.csv", (1, 2))
        assert c12 == c23
        assert all(c13[(y, x)] == v for (x, y), v in c12.items())


def test_preset_fig1a_outputs(tmp_path, monkeypatch):
    out_dir = tmp_path / "fig1a"
    calls = []
    sample_domain = domains.sample_domain

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return sample_domain(*args, **kwargs)

    monkeypatch.setattr(domains, "sample_domain", counted)
    assert main(["preset", "fig1a", "--resolution", "15", "--out", str(out_dir)]) == 0
    # one sample per section: the mapped CSV reuses the fully fixed p1p2 section
    assert len(calls) == 2
    meta = read_json(out_dir / "fig1a_meta.json")
    names = {p.split("/")[-1] for p in meta["files"]}
    assert {"fig1a_map.json", "fig1a_mapped_p1p2.csv", "fig1a_circle_p1p2.csv"} <= names
    circle = (out_dir / "fig1a_circle_p1p2.csv").read_text().strip().split("\n")
    assert circle[0] == "in1,in2,in3,out1,out2,out3"
    assert len(circle) == 361
    mapped = (out_dir / "fig1a_mapped_p1p2.csv").read_text().strip().split("\n")
    assert mapped[0] == "in1,in2,in3,out1,out2,out3,compat,pos"
    full = (out_dir / "fig1a_full_p1p2.csv").read_text().strip().split("\n")[1:]
    # its inputs and labels are the fully fixed section's rows
    assert [row.split(",") for row in full] == [row.split(",")[:3] + row.split(",")[6:] for row in mapped[1:]]


PRESET_FILES = {
    "fig1": [f"fig1_{label}_{s}.csv" for s in ("p1p2", "p1p3", "p2p3") for label in ("partial", "full")],
    "fig1a": ["fig1a_map.json"] + [f"fig1a_{stem}_p1p2.csv" for stem in ("partial", "full", "mapped", "circle")],
    "fig2": [f"fig2_{s}.csv" for s in ("p1p2", "p1p3", "p2p3")],
}
PRESET_META_KEYS = {"fig1": ["spec_partial", "spec_full"], "fig1a": ["gamma"], "fig2": ["spec"]}


def test_preset_meta_lists_its_files_and_the_domains_sidecar_its_inputs(tmp_path):
    for name, files in PRESET_FILES.items():
        out_dir = tmp_path / name
        assert main(["preset", name, "--resolution", "21", "--out", str(out_dir)]) == 0
        meta = read_json(out_dir / f"{name}_meta.json")
        assert list(meta) == ["preset", "resolution", "files", *PRESET_META_KEYS[name]]
        assert meta["files"] == files  # in write order
        assert sorted(os.listdir(out_dir)) == sorted(files + [f"{name}_meta.json"])
    s_path = write_spec(tmp_path / "spec.json", fig1_spec(True))
    map_path = str(tmp_path / "fig1a" / "fig1a_map.json")
    grid = ["--section", "p1p2", "--resolution", "21", "--seed", "3"]
    cloud = ["--region", "random", "--count", "40", "--seed", "3"]
    for argv, seed, resolution, section, region in ((grid, None, 21, "p1p2", "grid"), (cloud, 3, None, None, "random")):
        out = tmp_path / region
        assert main(["domains", "--spec", s_path, "--map", map_path, *argv, "--out", str(out)]) == 0
        side = read_json(tmp_path / f"{region}.json")
        assert list(side) == ["spec", "map", "seed", "resolution", "section", "region"]
        assert side["spec"] == fig1_spec(True).to_json_dict() and side["map"] == map_path
        assert (side["seed"], side["resolution"], side["section"], side["region"]) == (seed, resolution, section, region)


@pytest.mark.parametrize("where", ["existing directory", "missing directory"])
@pytest.mark.parametrize("command", ["example", "domains"])
def test_bad_output_paths_exit_2(tmp_path, capsys, command, where):
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    argv = {"example": ["example", "int-ham"], "domains": ["domains", "--spec", s_path, "--section", "p1p2", "--resolution", "9"]}
    if where == "existing directory":  # named as the file that would be written
        out = tmp_path / ("x.csv" if command == "domains" else "x.json")
        out.mkdir()
    else:
        out = tmp_path / "missing" / "x"
    assert main(argv[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.is_dir() == (where == "existing directory") and not (tmp_path / "x.json").is_file()


def test_python_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(affinemaps.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "kappa.json"
    argv = [sys.executable, "-m", "affinemaps", "kappa", "--family", "int_ham", "--trials", "2", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_json(out)["trials"] == 2


def test_invalid_input_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["extract", "--unitary", str(bad), "--state", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check-cp", "--map", str(missing)]) == 2
    u_path = write_matrix(tmp_path / "u.json", np.eye(4) * 2.0)  # not unitary
    s_path = write_spec(tmp_path / "s.json", JointStateCoeffs.blank(2, 2))
    assert main(["extract", "--unitary", u_path, "--state", s_path]) == 2
    paths = malformed_files(tmp_path)
    raw_path = write_matrix(tmp_path / "raw.json", np.eye(2) / 2)  # a raw 2x2 state
    # n = 1: a map of a one-level system, whose probes have no axes, and its blank spec
    map_11 = tmp_path / "map_11.json"
    map_11.write_text(json.dumps(map_to_json_dict(AffineMap(n=1, m=2, g_ops=np.eye(4)[:, :1, None].astype(complex), k_mat=np.zeros((1, 1))))))
    spec_12 = write_spec(tmp_path / "s12.json", JointStateCoeffs.blank(1, 2))
    cases = [
        (["tomography", "--map", str(map_11)], "probe design needs n >= 2 (n^2 - 1 >= 3 axes), got n = 1"),
        (["tomography", "--map", str(map_11), "--spec", spec_12], "probe design needs n >= 2 (n^2 - 1 >= 3 axes), got n = 1"),
        # a one-point line holds only the corner (-1, -1), outside the unit disc
        (["domains", "--spec", s_path, "--section", "p1p2", "--resolution", "1"], "no probes generated"),
        (["domains", "--spec", write_spec(tmp_path / "s32.json", JointStateCoeffs.blank(3, 2))], "domain sampling is implemented for qubit subsystems"),
        (["extract", "--unitary", paths["unitary"], "--state", raw_path, "--dims", "2"], "--dims must be N,M"),
        (["extract", "--unitary", paths["unitary"], "--state", raw_path, "--dims", "2,2"], "state matrix has shape (2, 2), --dims (2, 2) needs (4, 4)"),
        (["apply", "--map", paths["map"], "--probe", "0.1,0.2"], "--probe must have 3 comma-separated values, got 2"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


ROT = '{"axis": [0, 0, 1], "angle": 0.5}'
HALF = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]  # the 2x2 maximally mixed state as [re, im] pairs
THIRD = [[[1 / 3 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]


def full_rank_pairs() -> list:
    """The origin and one 0.1 step per axis, with their images under the fig1a map."""
    probes = ProbeSet(np.vstack([np.zeros(3), 0.1 * np.eye(3)]))
    return json.loads(pairs_json(evaluate_probes(probes, map_oracle(fig1a_map()))))


def identity_pairs(offset) -> list:
    """The origin and one 0.1 step per axis, with their identity-map outputs plus ``offset``."""
    probes = ProbeSet(np.vstack([np.zeros(3), 0.1 * np.eye(3)]))
    evaluate_probes(probes, lambda p: probe_state(p, 2) + np.asarray(offset))
    return json.loads(pairs_json(probes))


FREE_MASK_ENTRIES_NOT_0_OR_1 = ["0", 0.5, "x", None, 2]


def malformed_files(tmp_path) -> dict:
    """Name -> path of one valid map and spec, and of files each broken in one field."""
    good_map = map_to_json_dict(fig1a_map())
    nan_spec = JointStateCoeffs.blank(2, 2).to_json_dict()
    nan_spec["coeff"][0][1] = float("nan")
    blank_spec = JointStateCoeffs.blank(2, 2).to_json_dict()
    contents = {
        "spec": blank_spec,
        "map": good_map,
        "unitary": {"matrix": to_pairs(np.eye(4))},
        "map_32": map_to_json_dict(AffineMap(n=3, m=2, g_ops=np.concatenate([np.eye(3)[None], np.zeros((3, 3, 3))]), k_mat=np.zeros((3, 3)))),
        "spec_33": JointStateCoeffs.blank(3, 3).to_json_dict(),
        "empty_list": [],
        "list_of_one": [1],
        "matrix_object": {"matrix": {"re": 1}},
        "matrix_scalar": {"matrix": 3},
        "map_g_ops_5": {**good_map, "g_ops": 5},
        "map_k_nan": {**good_map, "k": [[[float("nan"), 0], [0, 0]], [[0, 0], [0, 0]]]},
        "map_n_list": {**good_map, "n": [2]},
        "pairs_out_object": [{"rho_in_coeffs": [0, 0, 0], "rho_out": {"re": 1}}],
        "spec_nan": nan_spec,
        "spec_21": JointStateCoeffs.blank(2, 1).to_json_dict(),
        "spec_no_free_mask": {k: v for k, v in blank_spec.items() if k != "free_mask"},
        **{f"spec_free_{i}": {**blank_spec, "free_mask": [[0, 0, 0, 0], [0, entry, 0, 0], [0] * 4, [0] * 4]}
           for i, entry in enumerate(FREE_MASK_ENTRIES_NOT_0_OR_1)},
        "pairs_4_coeffs": [{"rho_in_coeffs": [0.0, 0.0, 0.0, 0.0], "rho_out": HALF}] * 4,
        "pairs_3x3_out": [{"rho_in_coeffs": [0.0, 0.0, 0.0], "rho_out": THIRD}] * 4,
        "pairs_no_coeffs": [{"rho_in_coeffs": [], "rho_out": [[[1.0, 0.0]]]}] * 4,
        "pairs_non_hermitian": identity_pairs([[0.0, 0.3], [0.0, 0.0]]),
        "pairs_trace_2": identity_pairs(np.eye(2) / 2),
        "full_rank_pairs": full_rank_pairs(),
        # four probes on the a1 axis with their identity-map outputs: rank 2, not 4
        "pairs_collinear": [
            {"rho_in_coeffs": [a, 0.0, 0.0], "rho_out": [[[0.5, 0.0], [a / 2, 0.0]], [[a / 2, 0.0], [0.5, 0.0]]]}
            for a in (0.0, 0.1, 0.2, 0.3)
        ],
    }
    paths = {}
    for name, value in contents.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    paths["missing"] = str(tmp_path / "missing.json")  # never written
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["tomography", "--pairs", "{empty_list}"],
        ["apply", "--map", "{empty_list}", "--probe", "0,0,0"],
        ["domains", "--spec", "{empty_list}"],
        ["example", "int-ham", "--gamma", "nan,0,0"],
        ["domains", "--spec", "{spec}", "--resolution", "0"],
        ["apply", "--map", "{map}", "--state", "{matrix_object}"],
        ["extract", "--unitary", "{matrix_scalar}", "--state", "{spec}"],
        # --dims is read for raw matrix states only; a coefficient file carries its dims
        ["extract", "--unitary", "{unitary}", "--state", "{spec}", "--dims", "3,3"],
        ["check-cp", "--map", "{map_g_ops_5}"],
        ["tomography", "--pairs", "{pairs_out_object}"],
        ["check-cp", "--map", "{map_k_nan}"],
        ["tomography", "--pairs", "{list_of_one}"],
        ["example", "lorentz", "--r1", "[1]", "--r2", ROT],
        ["example", "lorentz", "--r1", '{"axis": [[0, 0, 1]], "angle": 0}', "--r2", ROT],
        ["example", "lorentz", "--r1", '{"axis": [0, 0, 1], "angle": "nan"}', "--r2", ROT],
        ["check-cp", "--map", "{map_n_list}"],
        ["domains", "--spec", "{spec_nan}"],
        ["tomography", "--map", "{map}", "--eps", "nan"],
        # a spec must have the map's (n, m)
        ["tomography", "--map", "{map_32}", "--spec", "{spec_33}", "--base", "0,0,0,0,0,0,0,0"],
        ["domains", "--spec", "{spec}", "--tol", "nan"],
        ["domains", "--spec", "{spec}", "--tol", "-1"],
        ["image", "--map", "{map}", "--section", "p1p2", "--resolution", "0"],
        ["example", "int-ham", "--spec", "{spec_21}"],
        ["example", "lorentz", "--r1", ROT, "--r2", ROT, "--spec", "{spec_21}"],
        ["example", "lorentz", "--r1", ROT],
        ["domains", "--spec", "{spec}", "--region", "random", "--count", "5", "--section", "p1p2"],
        ["tomography", "--pairs", "{pairs_4_coeffs}"],
        ["tomography", "--pairs", "{pairs_3x3_out}"],
        ["tomography", "--pairs", "{pairs_no_coeffs}"],
        ["tomography", "--pairs", "{pairs_collinear}"],
        ["tomography", "--pairs", "{pairs_non_hermitian}"],
        ["tomography", "--pairs", "{pairs_trace_2}"],
        # probe (3, 0, 0) is no state: its eigenvalues are -1 and 2
        ["apply", "--map", "{map}", "--probe", "3,0,0"],
        ["purity", "--map", "{map}", "--probe", "3,0,0"],
        # options the run would not read: exclusive inputs, and options of another mode or family
        ["apply", "--map", "{map}", "--probe", "0,0,0", "--state", "{missing}"],
        ["tomography", "--pairs", "{full_rank_pairs}", "--map", "{missing}"],
        ["tomography", "--pairs", "{full_rank_pairs}", "--base", "9,9,9"],
        ["example", "lorentz", "--gamma", "9,9,9", "--r1", ROT, "--r2", ROT],
        ["example", "int-ham", "--r1", "not json"],
        ["domains", "--spec", "{spec}", "--section", "p1p2", "--count", "5"],
        ["domains", "--spec", "{spec}", "--region", "random", "--count", "5", "--resolution", "7"],
        ["preset", "fig2", "--seed", "9"],
        # a free_mask entry is 0, 1, false or true
        *[["domains", "--spec", f"{{spec_free_{i}}}"] for i in range(len(FREE_MASK_ENTRIES_NOT_0_OR_1))],
    ],
)
def test_malformed_input_exits_2(tmp_path, argv):
    paths = malformed_files(tmp_path)
    out = tmp_path / "out"
    assert main([paths.get(a.strip("{}"), a) for a in argv] + ["--out", str(out)]) == 2
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # arrays of 2 EiB and 711 PiB, beyond any address space: numpy fails at once, touching no memory
        ["domains", "--spec", "{spec}", "--region", "random", "--count", "100000000000000000"],
        ["image", "--map", "{map}", "--section", "p1p2", "--resolution", "100000000000000000"],
    ],
)
def test_failed_allocation_exits_2(tmp_path, capsys, argv):
    paths = malformed_files(tmp_path)
    assert main([paths.get(a.strip("{}"), a) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_infeasible_volume_grid_exits_2_before_any_work(tmp_path):
    # 25 000 000 shells of 10^8 points and the origin: the grid's (2500000000000001, 3) array is
    # allocated before the shells are built, so it fails at once.  The child's address space is
    # capped, so code that builds the shells first fails there too, not by exhausting the host
    src = os.path.dirname(os.path.dirname(affinemaps.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["OPENBLAS_NUM_THREADS"] = "1"  # BLAS buffers per thread would take the capped address space on a many-core host
    cap = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); from affinemaps.cli import main; sys.exit(main(sys.argv[1:]))"
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    argv = [sys.executable, "-c", cap, "domains", "--spec", s_path, "--resolution", "100000000", "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ") and "(2500000000000001, 3)" in proc.stderr, proc.stderr


@pytest.mark.parametrize("command", ["apply", "purity"])
def test_pure_probe_on_the_sphere_is_a_state(tmp_path, command):
    paths = malformed_files(tmp_path)
    assert main([command, "--map", paths["map"], "--probe", "1,0,0", "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["image", "--map", "{map}", "--section", "p1p2", "--tol", "1"],
        ["extract", "--unitary", "{map}", "--state", "{spec}", "--seed", "1"],
        ["apply", "--map", "{map}", "--probe", "0,0,0", "--seed", "1"],
        ["example", "int-ham", "--r1", ROT],
        ["example", "lorentz", "--gamma", "1,2,3", "--r1", ROT, "--r2", ROT],
    ],
)
def test_options_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    paths = malformed_files(tmp_path)
    assert main([paths.get(a.strip("{}"), a) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, field",
    [
        ("pairs_4_coeffs", "rho_in_coeffs"),
        ("pairs_3x3_out", "rho_out"),
        ("pairs_no_coeffs", "rho_in_coeffs"),
        ("pairs_non_hermitian", "rho_out"),
        ("pairs_trace_2", "rho_out"),
    ],
)
def test_tomography_pair_shape_error_names_the_field(tmp_path, capsys, name, field):
    assert main(["tomography", "--pairs", malformed_files(tmp_path)[name], "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} of pair 0 ")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["domains", "--spec", "{spec_no_free_mask}"], "free_mask"),
        (["example", "lorentz", "--r1", '{"axis": [0, 0, 1]}', "--r2", ROT], "angle"),
    ],
)
def test_missing_json_key_is_named(tmp_path, capsys, argv, key):
    paths = malformed_files(tmp_path)
    assert main([paths.get(a.strip("{}"), a) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: missing key '{key}'\n"


MAP_KEYS = ["n", "m", "g_ops", "k", "one_prime", "f_primes", "b_matrix", "properties"]
PROPERTY_KEYS = ["trace_k", "is_cp", "purity_theorem_side", "purity_delta_max_mixed"]
RECON_KEYS = ["n", "one_prime", "f_primes", "k", "residual", "validation"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["extract", "--unitary", "{unitary}", "--state", "{spec}"], MAP_KEYS),
        (["example", "int-ham"], MAP_KEYS),
        (["apply", "--map", "{map}", "--probe", "0,0,0"], ["rho_out", "bloch_out"]),
        (["check-cp", "--map", "{map}"], ["is_cp", "choi_eigenvalues", "num_ops", "negative_ops"]),
        (["purity", "--map", "{map}"], ["purity_delta", *PROPERTY_KEYS]),
        (["tomography", "--map", "{map}"], RECON_KEYS),
        (["tomography", "--pairs", "{full_rank_pairs}"], RECON_KEYS),
        (["kappa", "--family", "lorentz", "--trials", "2"],
         ["family", "trials", "seed", "best_kappa_norm", "witness", "bounds", "global_bound"]),
    ],
)
def test_json_payload_keys_in_order(tmp_path, argv, keys):
    # the payloads spread library records (ValidationReport, KappaSearchResult): a renamed field fails here
    paths = malformed_files(tmp_path)
    out = tmp_path / "out.json"
    assert main([paths.get(a.strip("{}"), a) for a in argv] + ["--out", str(out)]) == 0
    data = read_json(out)
    assert list(data) == keys
    if "properties" in data:
        assert list(data["properties"]) == PROPERTY_KEYS
    if argv[0] == "kappa":
        assert list(data["bounds"]) == ["checked", "ok", "violations", "max_kappa_norm", "min_margin"]
    if argv[:2] == ["tomography", "--map"]:
        assert list(data["validation"]) == ["max_dev_one_prime", "max_dev_f_primes", "max_dev_k", "max_dev", "tol", "passed"]
    elif argv[0] == "tomography":
        assert data["validation"] is None


def test_tomography_pairs_read_tol(tmp_path, capsys):
    # the second output is off-Hermitian by 1e-7: rejected at the default --tol, loaded at --tol 1e-6
    pairs = identity_pairs(np.zeros((2, 2)))
    pairs[1]["rho_out"][0][1][0] += 1e-7
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    assert main(["tomography", "--pairs", str(path), "--out", str(tmp_path / "a.json")]) == 2
    assert "rho_out of pair 1 is not Hermitian (deviation 1.000e-07 > tol 1.000e-09)" in capsys.readouterr().err
    assert main(["tomography", "--pairs", str(path), "--tol", "1e-6", "--out", str(tmp_path / "b.json")]) == 0


JSON_KEYS = ["n", "m", "coeff", "free_mask", "g_ops", "k", "matrix", "axis", "angle", "rho_in_coeffs", "rho_out"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=5),
    max_leaves=24,
)


@settings(max_examples=60)
@given(value=json_values, key=st.sampled_from(JSON_KEYS))
def test_fuzzed_json_inputs_keep_exit_contract(tmp_path_factory, value, key):
    # each input file is written twice: as the drawn value, and as a valid
    # object with the drawn key's field replaced by it
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = malformed_files(tmp)
    good_map = read_json(paths["map"])
    pairs = full_rank_pairs()
    rotation = json.loads(ROT)
    files = {
        "raw": value,
        "map": {**good_map, key: value},
        "spec": {**read_json(paths["spec"]), key: value},
        "pairs": [{**pairs[0], key: value}] + pairs[1:],
        "matrix": {"matrix": value},
    }
    for name, content in files.items():
        (tmp / f"{name}.json").write_text(json.dumps(content))
    f = {name: str(tmp / f"{name}.json") for name in files}
    runs = [
        ["apply", "--map", f["raw"], "--probe", "0,0,0"],
        ["check-cp", "--map", f["map"]],
        ["apply", "--map", paths["map"], "--state", f["matrix"]],
        ["extract", "--unitary", f["matrix"], "--state", paths["spec"]],
        ["extract", "--unitary", f["raw"], "--state", f["spec"]],
        ["domains", "--spec", f["spec"], "--resolution", "3"],
        ["tomography", "--pairs", f["pairs"]],
        ["tomography", "--pairs", f["raw"]],
        ["example", "int-ham", "--spec", f["spec"]],
        ["example", "lorentz", "--r1", json.dumps(value), "--r2", json.dumps({**rotation, key: value})],
    ]
    for argv in runs:
        assert main(argv + ["--out", str(tmp / "out")]) in (0, 2, 3, 4), argv


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_consecutive_main_calls_share_no_state(tmp_path):
    # the parser is built at the first main() of a process and reused: one call's subcommand and
    # options must not leak into the defaults of the next
    s_path = write_spec(tmp_path / "spec.json", fig2_spec())
    cloud = ["domains", "--spec", s_path, "--region", "random", "--count", "40"]
    build_parser.cache_clear()
    assert main(cloud + ["--out", str(tmp_path / "first")]) == 0
    assert build_parser.cache_info().currsize == 1
    tuned = ["domains", "--spec", s_path, "--region", "random", "--resolution", "5", "--seed", "7", "--tol", "0.2"]
    assert main(tuned + ["--out", str(tmp_path / "tuned")]) == 0
    assert main(["kappa", "--family", "lorentz", "--trials", "2", "--seed", "3", "--out", str(tmp_path / "k.json")]) == 0
    assert main(["frobnicate"]) == 2
    assert main(cloud + ["--out", str(tmp_path / "again")]) == 0
    assert build_parser.cache_info().misses == 1
    assert (tmp_path / "tuned.csv").read_bytes() != (tmp_path / "first.csv").read_bytes()
    for ext in (".csv", ".json"):
        assert (tmp_path / f"again{ext}").read_bytes() == (tmp_path / f"first{ext}").read_bytes()


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0.1,0.2,0.3", "--out", str(map_path)]) == 0

    import affinemaps.cli as cli_mod

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr(cli_mod.mp, "choi_and_cp", boom)
    assert main(["check-cp", "--map", str(map_path)]) == 4
