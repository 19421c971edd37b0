"""Check that the benchmark gives the same figures twice.

    python3 perfbench/steady.py

For every workload of BENCHMARK.json this runs two independent sets of ten
runs of ``run.py`` of ``run_seconds`` each (set A on seeds 1..10, set B on
seeds 11..20), one process at a time with BLAS threads set to 1.  It prints, per end-to-end
metric and workload, each set's median and quartiles, the spread (distance
between the quartiles as a share of the median), and how much worse set B's
median is than set A's, next to the metric's bound from BENCHMARK.json.
A metric is steady when both spreads and the shift stay within the bound; the target is a third of the bound.  It also checks
that every run is correct, that the share of failed operations is exactly
the same in every run, and that no call is shorter than the noise floor:
a hundred times the timing jitter of identical 1 ms pieces of work, so the
jitter costs any call at most 1%.  The table also goes to
``.perfbench_out/steady-<time>.json``.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
RUNS = 10


def noise_floor_ms() -> float:
    """A hundred times the p10..p90 jitter of identical ~1 ms CPU work items."""
    times = []
    for _ in range(400):
        t0 = time.perf_counter()
        sum(range(25_000))
        times.append(time.perf_counter() - t0)
    deciles = statistics.quantiles(times, n=10)
    return 100 * (deciles[-1] - deciles[0]) * 1e3


def one_run(workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"run-{workload}-{seed}-trace0.json")) as fh:
        result["record"] = json.load(fh)
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)
    floor = noise_floor_ms()
    print(f"noise floor {floor:.2f} ms; {RUNS} runs per set, {seconds} s each")

    report, ok = {"noise_floor_ms": floor, "runs": RUNS, "seconds": seconds, "rows": []}, True
    header = f"{'metric':<13} {'workload':<15} {'bound':>5}  {'set A median [q1, q3]':<30} {'spread':>6}  {'set B median [q1, q3]':<30} {'spread':>6}  {'B worse':>7}  verdict"
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[one_run(workload, seed, seconds) for seed in range(first, first + RUNS)] for first in (1, 1 + RUNS)]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        shortest = min(r["record"]["call_ms_min"] for runs in sets for r in runs)
        correct = all(r["correct"] for runs in sets for r in runs)
        notes = []
        if len(shares) != 1:
            notes.append(f"failed share differs between runs: {sorted(shares)}")
        if shortest < floor:
            notes.append(f"shortest call {shortest:.2f} ms is below the noise floor")
        if not correct:
            notes.append("a run was not correct")
        ok &= not notes
        print(f"\n{workload}: failed share {sorted(shares)}, shortest call {shortest:.1f} ms, "
              f"all correct {correct}" + "".join(f"\n  PROBLEM: {n}" for n in notes))
        print(header)
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a, b = ([r["metrics"][name]["value"] for r in runs] for runs in sets)
            sa, sb = summary(a), summary(b)
            worse = (sb["median"] - sa["median"]) / sa["median"] * (1 if lower else -1)
            spreads = [sa["spread"], sb["spread"]]
            fits = all(s <= bound for s in spreads) and worse <= bound
            target = all(s <= bound / 3 for s in spreads)
            verdict = ("steady" if target else "within bound") if fits else "NOT STEADY"
            ok &= fits
            fmt = lambda s: f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
            print(f"{name:<13} {workload:<15} {bound:>5.2f}  {fmt(sa):<30} {sa['spread']:>6.1%}  "
                  f"{fmt(sb):<30} {sb['spread']:>6.1%}  {worse:>+7.1%}  {verdict}")
            report["rows"].append({"metric": name, "workload": workload, "bound": bound, "A": sa, "B": sb,
                                   "b_worse": worse, "verdict": verdict})
        report.setdefault("workloads", {})[workload] = {"failed_shares": sorted(shares), "shortest_call_ms": shortest,
                                                       "correct": correct, "notes": notes}
    path = os.path.join(OUT_DIR, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\n{'all steady within bounds' if ok else 'NOT STEADY'}; table in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
