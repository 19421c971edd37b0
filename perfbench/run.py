"""Run one benchmark workload of affinemaps and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  The run sets itself up cold (imports, then input generation) and
does the same in six fresh interpreters; the median of these seven times is
the set-up time.  It then repeats whole rounds of the workload's calls until
S seconds have passed, and checks the outputs against the benchmark's own
reference computations.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with nothing
wrapped; with ``--trace 1`` the layers are wrapped and the metrics are the
``per_layer`` list of ``BENCHMARK.json``, per round, and the spans are
written to ``.perfbench_out/trace-<workload>-<seed>.json.gz``.  Every run
also writes its call times and check results to
``.perfbench_out/run-<workload>-<seed>-trace<0|1>.json``.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread per run: runs must not compete with themselves

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 7
NAMES = ("domain-partial", "domain-fixed", "kappa", "map-tomography")

def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import affinemaps from the checkout's src; return its layer modules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "affinemaps", "__init__.py")):
        print(f"perfbench: no affinemaps package under {src}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import affinemaps  # noqa: F401  (numpy comes in with it)
    from affinemaps import basis, cli, domains, linalg, maps, qubit2, tomography

    return types.SimpleNamespace(
        basis=basis, cli=cli, domains=domains, linalg=linalg, maps=maps, qubit2=qubit2, tomography=tomography
    )


def cold_setup(name: str, seed: int, workdir: str):
    """Import the package and build the workload's inputs in this process.

    Returns the workload and the seconds since this module started, so
    work the program does at import or while the inputs are built counts.
    """
    am = import_package()
    import workloads  # the script's directory is on sys.path

    workload = workloads.WORKLOADS[name](am, seed, workdir)
    return workload, time.perf_counter() - START


def child_setup_s(name: str, seed: int, workdir: str) -> float:
    """The same cold set-up in a fresh interpreter, timed from its import of this module."""
    os.makedirs(workdir, exist_ok=True)
    code = f"import sys; sys.path.insert(0, {HERE!r}); import run; print(run.cold_setup({name!r}, {seed}, {workdir!r})[1])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def tail_percentile(count: int):
    """Highest whole percentile with at least ten calls beyond it, or None."""
    if count < 40:
        return None
    return max(q for q in range(50, 100) if count * (100 - q) / 100 >= 10)


def main() -> None:
    args = parse_args()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> None:
    # Every set-up sample is cold: this process's own, then fresh
    # interpreters.  Caches the program fills while setting up are paid in
    # each sample, so work moved ahead of the calls shows in the median.
    workload, first_s = cold_setup(args.workload, args.seed, workdir)
    setup_times = [first_s] + [
        child_setup_s(args.workload, args.seed, os.path.join(workdir, f"setup-{i}")) for i in range(1, SETUP_REPS)
    ]
    setup_s = statistics.median(setup_times)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    durations, attempted, failed, rounds, errors = [], 0, 0, 0, []
    begin = time.perf_counter()
    while True:
        for index, (label, thunk, items) in enumerate(workload.calls):
            if tracer:
                tracer.begin_call(label)
            t0 = time.perf_counter()
            try:
                out = thunk()
            except Exception:
                out = None
                errors.append(traceback.format_exc(limit=3))
            durations.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_call()
            bad = items if out is None else workload.failed_items(index, out)
            attempted += items
            failed += bad
            if bad < items:
                workload.record(index, out)
        rounds += 1
        if time.perf_counter() - begin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    busy = sum(durations)
    throughput = (attempted - failed) / busy
    problems = list(workload.mismatch) + workload.check()
    for tb in errors[:3]:
        print(tb, file=sys.stderr)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    calls_ms = sorted(d * 1e3 for d in durations)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, {len(durations)} calls, "
          f"{attempted} {workload.item}s attempted, {failed} failed, {len(problems)} check failures")
    tail = tail_percentile(len(calls_ms))
    print(f"  call_ms min {calls_ms[0]:.1f} p50 {statistics.median(calls_ms):.1f} "
          + (f"p{tail} {percentile(calls_ms, tail):.1f}" if tail else "(fewer than 40 calls: no tail)")
          + f"; throughput {throughput:.4g} {workload.item}s/s" + (" (traced)" if tracer else ""))

    if tracer:
        metrics = layer_metrics(tracer, rounds)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json.gz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds}, begin)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput": (throughput, "1/s"),
            "call_ms.p50": (statistics.median(calls_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "setup_reps_s": setup_times, "call_ms": [d * 1e3 for d in durations],
        "call_ms_min": calls_ms[0], "checks_failed": problems, "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))


def layer_metrics(tracer, rounds: int) -> dict:
    """The per_layer metrics of BENCHMARK.json, per round of a traced run.

    Names ending in ``.calls``/``.self_ms`` are span totals,
    ``domains.decided_ratio`` is computed, the rest are the tracer's counters.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    calls, self_s = tracer.totals()
    counters = tracer.counters
    out = {}
    for metric in per_layer:
        name = metric["name"]
        span, field = name.rsplit(".", 1)
        if field == "calls":
            value = calls[span] / rounds
        elif field == "self_ms":
            value = self_s[span] * 1e3 / rounds
        elif name == "domains.decided_ratio":
            labelled = counters["domains.labelled"]
            value = 1.0 - counters["domains.undecided"] / labelled if labelled else 1.0
        else:
            value = counters[name] / rounds
        out[name] = (value, metric["unit"])
    return out


if __name__ == "__main__":
    main()
