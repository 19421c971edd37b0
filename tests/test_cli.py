import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinemaps
from affinemaps import domains
from affinemaps.basis import JointStateCoeffs
from affinemaps.cli import fig1_spec, fig1a_map, fig2_spec, main
from affinemaps.maps import map_from_json_dict, map_to_json, map_to_json_dict
from affinemaps.qubit2 import SIGMA, IntHamParams, int_ham_b_matrix, int_ham_unitary, kappa_vector
from affinemaps.tomography import pairs_to_json

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
    state = fig1_spec(diagonals_free=False).with_probe(np.array([0.25, 0.25, 0.25]))
    s_path = write_spec(tmp_path / "state.json", state)
    out = tmp_path / "map.json"
    assert main(["extract", "--unitary", u_path, "--state", s_path, "--out", str(out)]) == 0
    data = read_json(out)
    amap = map_from_json_dict(data)
    closed = int_ham_b_matrix(IntHamParams(gamma=gamma), kappa_vector(amap.k_mat))
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
    from affinemaps.qubit2 import k_from_kappa

    amap = AffineMap(n=2, m=1, g_ops=np.eye(2, dtype=complex)[None], k_mat=k_from_kappa([0, 0, 0.5]))
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
    assert meta["section"] == "p1p3"
    assert meta["spec"]["coeff"][0][1] == pytest.approx(SQ3)


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


def test_tomography_external_pairs(tmp_path, rng):
    from affinemaps.maps import extract_map
    from affinemaps.basis import product_basis
    from affinemaps.linalg import random_density, random_unitary
    from affinemaps.tomography import design_probes, evaluate_probes, map_oracle

    truth = extract_map(random_unitary(4, rng), random_density(4, rng), product_basis(2, 2))
    probes = design_probes(JointStateCoeffs.blank(2, 2), np.zeros(3), eps=0.05)
    evaluate_probes(probes, map_oracle(truth))
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(pairs_to_json(probes.pairs))
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


def test_python_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(affinemaps.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "kappa.json"
    argv = [sys.executable, "-m", "affinemaps", "kappa", "--family", "int_ham", "--trials", "2", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_json(out)["trials"] == 2


def test_invalid_input_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["extract", "--unitary", str(bad), "--state", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check-cp", "--map", str(missing)]) == 2
    u_path = write_matrix(tmp_path / "u.json", np.eye(4) * 2.0)  # not unitary
    s_path = write_spec(tmp_path / "s.json", JointStateCoeffs.blank(2, 2))
    assert main(["extract", "--unitary", u_path, "--state", s_path]) == 2


ROT = '{"axis": [0, 0, 1], "angle": 0.5}'


def malformed_files(tmp_path) -> dict:
    """Name -> path of one valid map and spec, and of files each broken in one field."""
    good_map = map_to_json_dict(fig1a_map())
    nan_spec = JointStateCoeffs.blank(2, 2).to_json_dict()
    nan_spec["coeff"][0][1] = float("nan")
    contents = {
        "spec": JointStateCoeffs.blank(2, 2).to_json_dict(),
        "map": good_map,
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
    }
    paths = {}
    for name, value in contents.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
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
        ["domains", "--spec", "{spec}", "--tol", "nan"],
        ["domains", "--spec", "{spec}", "--tol", "-1"],
        ["image", "--map", "{map}", "--section", "p1p2", "--resolution", "0"],
        ["example", "int-ham", "--spec", "{spec_21}"],
        ["example", "lorentz", "--r1", ROT, "--r2", ROT, "--spec", "{spec_21}"],
    ],
)
def test_malformed_input_exits_2(tmp_path, argv):
    paths = malformed_files(tmp_path)
    out = tmp_path / "out"
    assert main([paths.get(a.strip("{}"), a) for a in argv] + ["--out", str(out)]) == 2
    assert not (tmp_path / "out.csv").exists()


JSON_KEYS = ["n", "m", "coeff", "free_mask", "g_ops", "k", "matrix", "axis", "angle", "rho_in_coeffs", "rho_out"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=5),
    max_leaves=24,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=json_values, key=st.sampled_from(JSON_KEYS))
def test_fuzzed_json_inputs_keep_exit_contract(tmp_path_factory, value, key):
    # each input file is written twice: as the drawn value, and as a valid
    # object with the drawn key's field replaced by it
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = malformed_files(tmp)
    good_map = read_json(paths["map"])
    pairs = json.loads(pairs_to_json([(np.zeros(3), np.eye(2) / 2)] * 4))
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


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    map_path = tmp_path / "map.json"
    assert main(["example", "int-ham", "--gamma", "0.1,0.2,0.3", "--out", str(map_path)]) == 0

    import affinemaps.cli as cli_mod

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr(cli_mod.mp, "choi_and_cp", boom)
    assert main(["check-cp", "--map", str(map_path)]) == 4
