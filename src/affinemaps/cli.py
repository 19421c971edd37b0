"""Command-line interface: build maps, check properties, sample domains,
run the example families, reconstruct maps, and emit figure data files.

Exit codes: 0 success, 2 validation error, 3 infeasibility, 4 numerical
failure.  All runs are reproducible byte-for-byte for fixed inputs and
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import domains as dom
from . import maps as mp
from . import qubit2 as q2
from . import tomography as tom
from .basis import JointStateCoeffs, product_basis, reconstruct_state
from .domains import InfeasibleError
from .linalg import DEFAULT_TOL, from_pairs, to_pairs


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return data


def _matrix(data: dict) -> np.ndarray:
    """The square complex matrix of a {"matrix": [[[re, im], ...], ...]} object."""
    mat = from_pairs(data["matrix"])
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    return mat


def _load_state(path: str, dims: tuple[int, int]):
    """Load a joint state file: coefficient JSON or raw matrix JSON."""
    data = _load_json(path)
    if "coeff" in data:
        coeffs = JointStateCoeffs.from_json_dict(data)
        pb = product_basis(coeffs.n, coeffs.m)
        return reconstruct_state(coeffs, pb), pb
    pi = _matrix(data)
    d = dims[0] * dims[1]
    if pi.shape != (d, d):  # checked before the product basis is built for these dims
        raise ValueError(f"state matrix has shape {pi.shape}, --dims {dims} needs {(d, d)}")
    return pi, product_basis(*dims)


def _load_map(path: str) -> mp.AffineMap:
    return mp.map_from_json_dict(_load_json(path))


def _load_spec(path: str) -> JointStateCoeffs:
    return JointStateCoeffs.from_json_dict(_load_json(path))


def _write_payload(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_vector(text: str, length: int, name: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != length:
        raise ValueError(f"{name} must have {length} comma-separated values, got {len(parts)}")
    vec = np.array([float(p) for p in parts])
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} values must be finite")
    return vec


def _parse_rotation(text: str) -> q2.Rotation:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError('a rotation must be a JSON object {"axis": [x, y, z], "angle": t}')
    return q2.Rotation(axis=data["axis"], angle=data["angle"])


def _map_properties(amap: mp.AffineMap, tol: float) -> dict:
    _, is_cp = mp.choi_and_cp(amap, tol)
    k_eigs = np.linalg.eigvalsh(amap.k_mat)
    k_zero = bool(np.abs(amap.k_mat).max() <= tol)
    return {
        "trace_k": float(np.trace(amap.k_mat).real),
        "is_cp": is_cp,
        "purity_theorem_side": "never_increases" if k_zero else "increases_at_maximally_mixed",
        "purity_delta_max_mixed": float((k_eigs**2).sum()),
    }


def _map_payload(amap: mp.AffineMap, tol: float) -> dict:
    payload = mp.map_to_json_dict(amap)
    payload["properties"] = _map_properties(amap, tol)
    return payload


def cmd_extract(args) -> int:
    dims = tuple(int(x) for x in args.dims.split(","))
    if len(dims) != 2:
        raise ValueError("--dims must be N,M")
    u = _matrix(_load_json(args.unitary))
    pi, pb = _load_state(args.state, dims)
    amap = mp.extract_map(u, pi, pb, args.tol)
    _write_payload(_map_payload(amap, args.tol), args.out)
    return 0


def cmd_apply(args) -> int:
    amap = _load_map(args.map)
    if args.probe is not None:
        rho = dom.probe_state(_parse_vector(args.probe, amap.n**2 - 1, "--probe"), amap.n)
    elif args.state:
        rho = _matrix(_load_json(args.state))
    else:
        raise ValueError("apply requires --probe or --state")
    out = mp.apply_affine(amap, rho, args.tol)
    payload = {"rho_out": to_pairs(out)}
    if amap.n == 2:
        payload["bloch_out"] = [float(np.trace(q2.SIGMA[j] @ out).real) for j in range(3)]
    _write_payload(payload, args.out)
    return 0


def cmd_check_cp(args) -> int:
    amap = _load_map(args.map)
    choi, is_cp = mp.choi_and_cp(amap, args.tol)
    ops, signs = mp.pm_decomposition(amap, tol=max(args.tol, 1e-10))
    payload = {
        "is_cp": is_cp,
        "choi_eigenvalues": [float(x) for x in choi.eigenvalues],
        "num_ops": len(ops),
        "negative_ops": int(sum(1 for s in signs if s < 0)),
    }
    _write_payload(payload, args.out)
    return 0


def cmd_purity(args) -> int:
    amap = _load_map(args.map)
    if args.probe is not None:
        rho = dom.probe_state(_parse_vector(args.probe, amap.n**2 - 1, "--probe"), amap.n)
    else:
        rho = np.eye(amap.n, dtype=complex) / amap.n
    payload = {
        "purity_delta": mp.purity_delta(amap, rho, args.tol),
        **_map_properties(amap, args.tol),
    }
    _write_payload(payload, args.out)
    return 0


def _csv_paths(out: str) -> tuple[str, str]:
    base = out[:-4] if out.endswith(".csv") else out
    return base + ".csv", base + ".json"


def cmd_domains(args) -> int:
    spec = _load_spec(args.spec)
    amap = _load_map(args.map) if args.map else None
    sample = dom.sample_domain(
        spec,
        amap=amap,
        region=args.region,
        section=args.section,
        resolution=args.resolution,
        count=args.count,
        seed=args.seed,
        tol=args.tol,
    )
    csv_path, meta_path = _csv_paths(args.out)
    sample.write_csv(csv_path)
    sample.write_sidecar(meta_path, spec, map_ref=args.map)
    return 0


def _write_pairs_csv(path: str, inputs: np.ndarray, outputs: np.ndarray, extra=None) -> None:
    header = "in1,in2,in3,out1,out2,out3"
    if extra:
        header += "," + ",".join(extra[0])
    lines = [header]
    for i, (a, b) in enumerate(zip(inputs, outputs)):
        row = ",".join(f"{x:.9g}" for x in a) + "," + ",".join(f"{x:.9g}" for x in b)
        if extra:
            row += "," + ",".join(str(int(v[i])) for v in extra[1])
        lines.append(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_image(args) -> int:
    amap = _load_map(args.map)
    inputs, outputs = dom.image_of_ball(amap, args.section, args.resolution)
    csv_path, _ = _csv_paths(args.out)
    _write_pairs_csv(csv_path, inputs, outputs)
    return 0


def cmd_tomography(args) -> int:
    spec = _load_spec(args.spec) if args.spec else JointStateCoeffs.blank(2, 2)
    truth = None
    if args.pairs:
        with open(args.pairs) as fh:
            pairs = tom.pairs_from_json(fh.read())
        n = int(round(np.sqrt(len(pairs[0][0]) + 1)))
        probes = tom.probe_set_from_pairs(n, pairs)
    elif args.map:
        truth = _load_map(args.map)
        base = _parse_vector(args.base, truth.n**2 - 1, "--base")
        probes = tom.design_probes(spec, base, eps=args.eps, tol=args.tol)
        tom.evaluate_probes(probes, tom.map_oracle(truth))
    else:
        raise ValueError("tomography requires --map or --pairs")
    recon = tom.reconstruct_map(probes)
    payload = {
        "n": recon.n,
        "one_prime": to_pairs(recon.one_prime),
        "f_primes": to_pairs(recon.f_primes),
        "k": to_pairs(recon.k_mat),
        "residual": recon.residual,
        "validation": tom.validate_reconstruction(recon, truth, args.tol).to_dict()
        if truth
        else None,
    }
    _write_payload(payload, args.out)
    return 0


def cmd_kappa(args) -> int:
    result = q2.kappa_search(args.family, args.trials, seed=args.seed)
    sweep = q2.bounds_sweep(args.family, args.trials, seed=args.seed + 1, tol=args.tol)
    payload = {
        "family": args.family,
        "trials": args.trials,
        "seed": args.seed,
        "best_kappa_norm": result.best_kappa_norm,
        "witness": result.witness,
        "bounds": {
            "checked": sweep.checked,
            "ok": sweep.ok,
            "violations": sweep.checked - sweep.ok,
            "max_kappa_norm": sweep.max_kappa_norm,
            "min_margin": sweep.min_margin,
        },
        "global_bound": q2.GOLDEN_KAPPA_BOUND,
    }
    _write_payload(payload, args.out)
    return 0


def cmd_example(args) -> int:
    spec = _load_spec(args.spec) if args.spec else JointStateCoeffs.blank(2, 2)
    if args.family == "int-ham":
        gamma = _parse_vector(args.gamma, 3, "--gamma")
        amap = q2.int_ham_map(q2.IntHamParams(gamma=tuple(gamma)), spec)
    else:
        if not (args.r1 and args.r2):
            raise ValueError("lorentz example requires --r1 and --r2")
        params = q2.LorentzParams(r1=_parse_rotation(args.r1), r2=_parse_rotation(args.r2))
        amap = q2.lorentz_map(params, spec)
    _write_payload(_map_payload(amap, args.tol), args.out)
    return 0


def fig1_spec(diagonals_free: bool = True) -> JointStateCoeffs:
    """Environment and cross-correlation coefficients all 1/4; diagonal
    correlations either free or pinned to zero."""
    spec = JointStateCoeffs.blank(2, 2)
    for k in (1, 2, 3):
        spec.coeff[0, k] = 0.25
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            if j != k:
                spec.coeff[j, k] = 0.25
            elif diagonals_free:
                spec.free[j, j] = True
    return spec


def fig2_spec() -> JointStateCoeffs:
    """<x1> and <s3 x1> equal to 1/sqrt(3), everything else zero."""
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[0, 1] = 1.0 / np.sqrt(3.0)
    spec.coeff[3, 1] = 1.0 / np.sqrt(3.0)
    return spec


FIG1A_GAMMA = (2 * np.sqrt(5.0), 2 * np.sqrt(3.0), 2 * np.sqrt(2.0))


def fig1a_map() -> mp.AffineMap:
    return q2.int_ham_map(q2.IntHamParams(gamma=FIG1A_GAMMA), fig1_spec(diagonals_free=False))


def _emit_section(spec, amap, section, resolution, seed, tol, out_dir, stem, files) -> dom.DomainSample:
    """Sample one grid section, write it as <stem>_<section>.csv and list the file in ``files``."""
    sample = dom.sample_domain(
        spec, amap=amap, region="grid", section=section, resolution=resolution, seed=seed, tol=tol
    )
    name = f"{stem}_{section}.csv"
    sample.write_csv(os.path.join(out_dir, name))
    files.append(name)
    return sample


def cmd_preset(args) -> int:
    out_dir = args.out or f"preset_{args.name}"
    os.makedirs(out_dir, exist_ok=True)
    res = args.resolution
    meta: dict = {"preset": args.name, "resolution": res, "seed": args.seed, "files": []}

    if args.name == "fig1":
        for section in ("p1p2", "p1p3", "p2p3"):
            for label, spec in (("partial", fig1_spec(True)), ("full", fig1_spec(False))):
                _emit_section(
                    spec, None, section, res, args.seed, args.tol, out_dir, f"fig1_{label}", meta["files"]
                )
        meta["spec_partial"] = fig1_spec(True).to_json_dict()
        meta["spec_full"] = fig1_spec(False).to_json_dict()

    elif args.name == "fig1a":
        amap = fig1a_map()
        _write_payload(_map_payload(amap, args.tol), os.path.join(out_dir, "fig1a_map.json"))
        meta["files"].append("fig1a_map.json")
        meta["gamma"] = list(FIG1A_GAMMA)
        _emit_section(
            fig1_spec(True), amap, "p1p2", res, args.seed, args.tol, out_dir, "fig1a_partial", meta["files"]
        )
        sample = _emit_section(
            fig1_spec(False), amap, "p1p2", res, args.seed, args.tol, out_dir, "fig1a_full", meta["files"]
        )
        t_mat, kappa = q2.bloch_action(amap)
        mapped = sample.probes @ t_mat.T + kappa
        _write_pairs_csv(
            os.path.join(out_dir, "fig1a_mapped_p1p2.csv"), sample.probes, mapped,
            extra=(["compat", "pos"], [sample.compat, sample.pos]),
        )
        meta["files"].append("fig1a_mapped_p1p2.csv")
        circle_in, circle_out = dom.image_of_ball(amap, "p1p2", resolution=360)
        _write_pairs_csv(os.path.join(out_dir, "fig1a_circle_p1p2.csv"), circle_in, circle_out)
        meta["files"].append("fig1a_circle_p1p2.csv")

    elif args.name == "fig2":
        spec = fig2_spec()
        for section in ("p1p2", "p1p3", "p2p3"):
            _emit_section(spec, None, section, res, args.seed, args.tol, out_dir, "fig2", meta["files"])
        meta["spec"] = spec.to_json_dict()

    else:
        raise ValueError(f"unknown preset {args.name!r}")

    with open(os.path.join(out_dir, f"{args.name}_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    return 0


def _positive(text: str) -> float:
    """argparse type: a positive finite float."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise ValueError(f"expected a positive finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinemaps",
        description="Affine maps of open-system dynamics: extraction, domains, tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_positive, default=DEFAULT_TOL)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("extract", help="extract (L, K) from a unitary and a joint state")
    p.add_argument("--unitary", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--dims", default="2,2", help="subsystem dims N,M for raw matrix states")
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("apply", help="apply a map to a subsystem state")
    p.add_argument("--map", required=True)
    p.add_argument("--probe", default=None, help="Bloch-type coefficients a1,a2,...")
    p.add_argument("--state", default=None, help="JSON matrix file")
    common(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("check-cp", help="Choi spectrum and complete positivity")
    p.add_argument("--map", required=True)
    common(p)
    p.set_defaults(func=cmd_check_cp)

    p = sub.add_parser("purity", help="purity change under the map")
    p.add_argument("--map", required=True)
    p.add_argument("--probe", default=None)
    common(p)
    p.set_defaults(func=cmd_purity)

    p = sub.add_parser("domains", help="sample compatibility/positivity domains")
    p.add_argument("--spec", required=True)
    p.add_argument("--map", default=None)
    p.add_argument("--section", choices=sorted(dom.SECTION_AXES), default=None)
    p.add_argument("--region", choices=["grid", "random"], default="grid")
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--count", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_domains)
    p.set_defaults(out="domain_section")

    p = sub.add_parser("image", help="map image of the unit circle in a section plane")
    p.add_argument("--map", required=True)
    p.add_argument("--section", choices=sorted(dom.SECTION_AXES), required=True)
    p.add_argument("--resolution", type=int, default=256)
    common(p)
    p.set_defaults(func=cmd_image, out="image_section")

    p = sub.add_parser("tomography", help="reconstruct a map from probe pairs")
    p.add_argument("--map", default=None, help="ground-truth map used as the oracle")
    p.add_argument("--pairs", default=None, help="externally produced pair file")
    p.add_argument("--spec", default=None)
    p.add_argument("--base", default="0,0,0")
    p.add_argument("--eps", type=_positive, default=0.05)
    common(p)
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("kappa", help="search for large |kappa| and check bounds")
    p.add_argument("--family", choices=list(q2.FAMILIES), required=True)
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("example", help="closed-form example families")
    p.add_argument("family", choices=["int-ham", "lorentz"])
    p.add_argument("--gamma", default="0,0,0", help="three angles in radians: a,b,c")
    p.add_argument("--r1", default=None, help='rotation JSON {"axis":[x,y,z],"angle":t}')
    p.add_argument("--r2", default=None)
    p.add_argument("--spec", default=None, help="correlation coefficients JSON file")
    common(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("preset", help="emit the bundled figure data sets")
    p.add_argument("name", choices=["fig1", "fig1a", "fig2"])
    p.add_argument("--resolution", type=int, default=101)
    common(p)
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
