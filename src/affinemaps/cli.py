"""Command-line interface: build maps, check properties, sample domains,
run the example families, reconstruct maps, and emit figure data files.

Each JSON subcommand returns its payload and ``main`` writes it to --out
(stdout without); ``domains``, ``image`` and ``preset`` write their own
files.  Exit codes: 0 success, 2 validation error, 3 infeasibility, 4 numerical
failure.  All runs are reproducible byte-for-byte for fixed inputs and
seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import domains as dom
from . import maps as mp
from . import qubit2 as q2
from . import tomography as tom
from .basis import JointStateCoeffs, coefficients, probe_state, product_basis, reconstruct_state
from .domains import InfeasibleError
from .linalg import DEFAULT_TOL, finite_array, from_pairs, to_pairs


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
    return finite_array([float(p) for p in parts], name)


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
    return {**mp.map_to_json_dict(amap), "properties": _map_properties(amap, tol)}


def _probe(args, amap: mp.AffineMap) -> np.ndarray:
    """The state of the --probe coefficients, which must be a density matrix."""
    return probe_state(_parse_vector(args.probe, amap.n**2 - 1, "--probe"), amap.n)


def cmd_extract(args) -> dict:
    u = _matrix(_load_json(args.unitary))
    data = _load_json(args.state)  # a coefficient file carries its dims, a raw matrix takes --dims
    if "coeff" in data:
        _reject(args, ("dims",), "a coefficient state file")
        coeffs = JointStateCoeffs.from_json_dict(data)
        pb = product_basis(coeffs.n, coeffs.m)
        pi = reconstruct_state(coeffs)
    else:
        dims = tuple(int(x) for x in (args.dims or "2,2").split(","))
        if len(dims) != 2:
            raise ValueError("--dims must be N,M")
        pi, d = _matrix(data), dims[0] * dims[1]
        if pi.shape != (d, d):  # checked before the product basis is built for these dims
            raise ValueError(f"state matrix has shape {pi.shape}, --dims {dims} needs {(d, d)}")
        pb = product_basis(*dims)
    return _map_payload(mp.extract_map(u, pi, pb, args.tol), args.tol)


def cmd_apply(args) -> dict:
    amap = _load_map(args.map)
    rho = _probe(args, amap) if args.state is None else _matrix(_load_json(args.state))
    out = mp.apply_affine(amap, rho, args.tol)
    payload = {"rho_out": to_pairs(out)}
    if amap.n == 2:
        payload["bloch_out"] = coefficients(out, 2).tolist()
    return payload


def cmd_check_cp(args) -> dict:
    amap = _load_map(args.map)
    eigenvalues, is_cp = mp.choi_and_cp(amap, args.tol)
    ops, signs = mp.pm_decomposition(amap, tol=max(args.tol, 1e-10))
    return {
        "is_cp": is_cp,
        "choi_eigenvalues": [float(x) for x in eigenvalues],
        "num_ops": len(ops),
        "negative_ops": int(sum(1 for s in signs if s < 0)),
    }


def cmd_purity(args) -> dict:
    amap = _load_map(args.map)
    rho = np.eye(amap.n, dtype=complex) / amap.n if args.probe is None else _probe(args, amap)
    return {"purity_delta": mp.purity_delta(amap, rho, args.tol), **_map_properties(amap, args.tol)}


def _csv_paths(out: str) -> tuple[str, str]:
    base = out[:-4] if out.endswith(".csv") else out
    return base + ".csv", base + ".json"


def cmd_domains(args) -> None:
    spec = _load_spec(args.spec)
    amap = _load_map(args.map) if args.map else None
    resolution = 101 if args.resolution is None else args.resolution
    sample = dom.sample_domain(spec, amap, args.region, args.section, resolution, args.count, args.seed, args.tol)
    csv_path, meta_path = _csv_paths(args.out)
    sample.write_csv(csv_path)
    sidecar = {
        "spec": spec.to_json_dict(),
        "map": args.map,
        "seed": args.seed if args.region == "random" else None,  # a grid draws no random numbers
        "resolution": None if args.count is not None else resolution,
        "section": args.section,
        "region": args.region,
    }
    _write_payload(sidecar, meta_path)


def _write_pairs_csv(path: str, inputs: np.ndarray, outputs: np.ndarray, labels: dict | None = None) -> None:
    labels = labels or {}
    header = ",".join(["in1,in2,in3,out1,out2,out3", *labels])
    dom.write_csv(path, header, np.hstack([inputs, outputs]), list(labels.values()))


def cmd_image(args) -> None:
    _write_pairs_csv(_csv_paths(args.out)[0], *dom.image_of_ball(_load_map(args.map), args.section, args.resolution))


def _reject(args, names: tuple, context: str) -> None:
    """ValueError naming every option of ``names`` that was given although ``context`` does not read it."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be used with {context}")


def cmd_tomography(args) -> dict:
    truth = None
    if args.pairs:
        _reject(args, ("spec", "base", "eps"), "--pairs")
        with open(args.pairs) as fh:
            probes = tom.pairs_from_json(fh.read(), args.tol)
    else:
        truth = _load_map(args.map)
        spec = _load_spec(args.spec) if args.spec else JointStateCoeffs.blank(truth.n, truth.m)
        if (spec.n, spec.m) != (truth.n, truth.m):
            raise ValueError(f"--spec has dims ({spec.n},{spec.m}), the map ({truth.n},{truth.m})")
        base = np.zeros(truth.n**2 - 1) if args.base is None else _parse_vector(args.base, truth.n**2 - 1, "--base")
        probes = tom.design_probes(spec, base, eps=args.eps or 0.05, tol=args.tol)
        tom.evaluate_probes(probes, tom.map_oracle(truth))
    recon = tom.reconstruct_map(probes)
    return {
        "n": recon.n,
        "one_prime": to_pairs(recon.one_prime),
        "f_primes": to_pairs(recon.f_primes),
        "k": to_pairs(recon.k_mat),
        "residual": recon.residual,
        "validation": None if truth is None else tom.validate_reconstruction(recon, truth, args.tol)._asdict(),
    }


def cmd_kappa(args) -> dict:
    result = q2.kappa_search(args.family, args.trials, seed=args.seed)
    sweep = q2.bounds_sweep(args.family, args.trials, seed=args.seed + 1, tol=args.tol)
    return {
        "family": args.family,
        "trials": args.trials,
        "seed": args.seed,
        **result._asdict(),
        "bounds": {
            "checked": sweep.checked,
            "ok": sweep.ok,
            "violations": sweep.checked - sweep.ok,
            "max_kappa_norm": sweep.max_kappa_norm,
            "min_margin": sweep.min_margin,
        },
        "global_bound": q2.GOLDEN_KAPPA_BOUND,
    }


def cmd_example(args) -> dict:
    spec = _load_spec(args.spec) if args.spec else JointStateCoeffs.blank(2, 2)
    if args.family == "int-ham":
        u = q2.int_ham_unitary(q2.IntHamParams(gamma=tuple(_parse_vector(args.gamma, 3, "--gamma"))))
    else:
        u = q2.lorentz_unitary(q2.LorentzParams(r1=_parse_rotation(args.r1), r2=_parse_rotation(args.r2)))
    return _map_payload(mp.map_from_unitary(u, spec, args.tol), args.tol)


def fig1_spec(diagonals_free: bool = True) -> JointStateCoeffs:
    """Environment and cross-correlation coefficients all 1/4; diagonal
    correlations either free or pinned to zero."""
    spec = JointStateCoeffs.blank(2, 2)
    spec.coeff[:, 1:] = 0.25
    spec.coeff[[1, 2, 3], [1, 2, 3]] = 0.0
    spec.free[[1, 2, 3], [1, 2, 3]] = diagonals_free
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


def cmd_preset(args) -> None:
    out_dir = args.out or f"preset_{args.name}"
    os.makedirs(out_dir, exist_ok=True)
    meta: dict = {"preset": args.name, "resolution": args.resolution, "files": []}

    def path(name: str) -> str:
        """The path of ``name`` in the output directory, listed in the meta's files."""
        meta["files"].append(name)
        return os.path.join(out_dir, name)

    def emit(spec: JointStateCoeffs, stem: str, section: str, amap=None) -> dom.DomainSample:
        """Sample one grid section and write it as <stem>_<section>.csv."""
        sample = dom.sample_domain(spec, amap=amap, section=section, resolution=args.resolution, tol=args.tol)
        sample.write_csv(path(f"{stem}_{section}.csv"))
        return sample

    if args.name == "fig1":
        for section in ("p1p2", "p1p3", "p2p3"):
            for label, spec in (("partial", fig1_spec(True)), ("full", fig1_spec(False))):
                emit(spec, f"fig1_{label}", section)
        meta["spec_partial"] = fig1_spec(True).to_json_dict()
        meta["spec_full"] = fig1_spec(False).to_json_dict()

    elif args.name == "fig1a":
        amap = fig1a_map()
        _write_payload(_map_payload(amap, args.tol), path("fig1a_map.json"))
        meta["gamma"] = list(FIG1A_GAMMA)
        emit(fig1_spec(True), "fig1a_partial", "p1p2", amap)
        sample = emit(fig1_spec(False), "fig1a_full", "p1p2", amap)
        t_mat, kappa = mp.bloch_action(amap)
        labels = {"compat": sample.compat, "pos": sample.pos}
        _write_pairs_csv(path("fig1a_mapped_p1p2.csv"), sample.probes, sample.probes @ t_mat.T + kappa, labels)
        _write_pairs_csv(path("fig1a_circle_p1p2.csv"), *dom.image_of_ball(amap, "p1p2", resolution=360))

    elif args.name == "fig2":
        spec = fig2_spec()
        for section in ("p1p2", "p1p3", "p2p3"):
            emit(spec, "fig2", section)
        meta["spec"] = spec.to_json_dict()

    _write_payload(meta, os.path.join(out_dir, f"{args.name}_meta.json"))


def _positive(text: str) -> float:
    """argparse type: a positive finite float."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise ValueError(f"expected a positive finite number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built at the first call and shared by later ones; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="affinemaps",
        description="Affine maps of open-system dynamics: extraction, domains, tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True, seed=False):  # only options the subcommand reads
        if tol:
            p.add_argument("--tol", type=_positive, default=DEFAULT_TOL)
        p.add_argument("--out", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("extract", help="extract (L, K) from a unitary and a joint state")
    p.add_argument("--unitary", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--dims", default=None, help="raw matrix states only: subsystem dims N,M (default 2,2)")
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("apply", help="apply a map to a subsystem state")
    p.add_argument("--map", required=True)
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--probe", default=None, help="Bloch-type coefficients a1,a2,...")
    given.add_argument("--state", default=None, help="JSON matrix file")
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
    size = p.add_mutually_exclusive_group()
    size.add_argument("--resolution", type=int, default=None, help="default 101")
    size.add_argument("--count", type=int, default=None, help="with --region random only")
    common(p, seed=True)
    p.set_defaults(func=cmd_domains, out="domain_section")

    p = sub.add_parser("image", help="map image of the unit circle in a section plane")
    p.add_argument("--map", required=True)
    p.add_argument("--section", choices=sorted(dom.SECTION_AXES), required=True)
    p.add_argument("--resolution", type=int, default=256)
    common(p, tol=False)
    p.set_defaults(func=cmd_image, out="image_section")

    p = sub.add_parser("tomography", help="reconstruct a map from probe pairs")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--map", default=None, help="ground-truth map used as the oracle")
    given.add_argument("--pairs", default=None, help="externally produced pair file")
    p.add_argument("--spec", default=None, help="with --map only (default: the map's dims, all coefficients 0)")
    p.add_argument("--base", default=None, help="with --map only (default: n^2 - 1 zeros)")
    p.add_argument("--eps", type=_positive, default=None, help="with --map only (default 0.05)")
    common(p)
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("kappa", help="search for large |kappa| and check bounds")
    p.add_argument("--family", choices=list(q2.FAMILIES), required=True)
    p.add_argument("--trials", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("example", help="maps of the two-qubit example families")
    families = p.add_subparsers(dest="family", required=True)
    ham = families.add_parser("int-ham", help="U = exp(-i/2 sum_j gamma_j s_j (x) x_j)")
    ham.add_argument("--gamma", default="0,0,0", help="three angles in radians a,b,c (default 0,0,0)")
    lorentz = families.add_parser("lorentz", help="U = D1 (x) (1 + x1)/2 + D2 (x) (1 - x1)/2")
    for name in ("--r1", "--r2"):
        lorentz.add_argument(name, required=True, help='rotation JSON {"axis":[x,y,z],"angle":t}')
    for p in (ham, lorentz):
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
        payload = args.func(args)
        if payload is not None:
            _write_payload(payload, args.out)
        return 0
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
