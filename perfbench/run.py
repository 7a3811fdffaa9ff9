"""subfedsim benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload cufl-disjoint10 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced, then traced

Each repetition is one `run_experiment` in a fresh child process (perfbench/worker.py),
writing its run directory under .perfbench_out/ and removing it afterwards.
Repetitions start until the next one would end after --seconds (at least
MIN_REPS untraced, or one untraced/traced pair with --trace 1). The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from worker import WORKLOADS  # noqa: E402  (imports no simulator code)

MIN_REPS = 3
# On a 2-vCPU VM shared with other tenants, threaded OpenBLAS made a 6 s run take
# up to 16 s, against +-10% single-threaded; these matrices are too small to
# gain from threads. A value set by the caller is kept.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HARD_LIMIT_S = 165.0      # a run must exit within 180 s


def percentile(values: list, q: float) -> float:
    """Linearly interpolated q-th percentile (0..100) of the values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    if n < 20:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))


def run_child(workload: str, seed: int, trace: bool, rep: int, budget_s: float) -> dict:
    """One repetition in a fresh process; returns its result or {"error": ...}."""
    spans = os.path.join(OUT, "spans", f"{workload}-seed{seed}-rep{rep}.json")
    os.makedirs(os.path.dirname(spans) if trace else OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT)
    cmd = [sys.executable, WORKER, workload, str(seed), out_dir, "1" if trace else "0", spans]
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, budget_s))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "wall_s": time.perf_counter() - t0}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"],
                "stderr": proc.stderr, "wall_s": wall}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result line", "stderr": proc.stderr, "wall_s": wall}
    res["wall_s"] = wall
    res["traced"] = trace
    return res


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions until the time is spent; with trace, untraced/traced pairs."""
    start = time.perf_counter()
    pattern = (False, True) if trace else (False,)
    min_reps = len(pattern) if trace else MIN_REPS
    reps = []
    est = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + est * len(pattern) > seconds:
            break
        if reps and elapsed + est * len(pattern) > HARD_LIMIT_S:
            break
        for traced in pattern:
            budget = HARD_LIMIT_S - (time.perf_counter() - start)
            res = run_child(workload, seed, traced, len(reps), budget)
            est = max(est, res["wall_s"])
            reps.append(res)
            if "error" in res:
                print(f"repetition {len(reps) - 1} failed: {res['error']}", file=sys.stderr)
                if res.get("stderr"):
                    print(res["stderr"][-4000:], file=sys.stderr)
    return reps


def check_digests(reps: list) -> str | None:
    """Marks repetitions whose digest differs from the most common one as failed."""
    digests = collections.Counter(r["digest"] for r in reps if "error" not in r)
    if not digests:
        return None
    ref = digests.most_common(1)[0][0]
    for r in reps:
        if "error" not in r and r["digest"] != ref:
            r["error"] = f"artifact digest {r['digest']} differs from {ref}"
            print(f"repetition failed: {r['error']}", file=sys.stderr)
    return ref


def end_to_end(ok: list) -> dict:
    rounds = [x for r in ok for x in r["round_ms"]]
    med = lambda key: statistics.median(r[key] for r in ok)  # noqa: E731
    return {
        "run_s": med("run_s"),
        "setup_s": med("setup_s"),
        "rounds_s": med("rounds_s"),
        "round_ms_p50": percentile(rounds, 50),
        "round_ms_p90": percentile(rounds, 90),
        "peak_rss_mb": med("peak_rss_mb"),
        "artifact_mb": med("artifact_mb"),
        "test_acc_mean": med("test_acc_mean"),
    }


def per_layer(ok: list) -> dict:
    untraced = [r["run_s"] for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    out = {}
    for name in sorted({k for r in traced for k in r["layers"]}):
        vals = [r["layers"][name] for r in traced if name in r["layers"]]
        out[name] = statistics.median_low(vals)  # a measured value; counts stay whole
    if untraced and traced:
        base = statistics.median(untraced)
        out["trace.overhead_share"] = (
            statistics.median(r["run_s"] for r in traced) - base) / base
    return out


def describe(name: str, value: float, unit: str, samples: list | None = None) -> str:
    """One metric line; with samples, also the tail percentile and the sample count."""
    line = f"  {name:<44} {value:>14.6g} {unit}"
    if samples is not None:
        p = tail_percentile(len(samples))
        tail = (f"p{p} {percentile(samples, p):.6g} {unit}" if p
                else "no percentile with >=10 samples beyond it")
        line += f"   [{tail}; n={len(samples)}]"
    return line


def unit_of(name: str, spec_metrics: list) -> str:
    for m in spec_metrics:
        if m["name"] == name:
            return m["unit"]
    return "count" if name.endswith(".calls") else "s" if name.endswith("_s") else ""


def report(workload: str, seed: int, trace: bool, reps: list, spec: dict) -> dict:
    digest = check_digests(reps)
    ok = [r for r in reps if "error" not in r]
    failed = len(reps) - len(ok)
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"== {workload} seed {seed}: {kind}, {len(reps)} repetitions, {failed} failed, "
          f"failed_share {failed / len(reps):.4g} ({failed}/{len(reps)})")
    print(f"  artifact digest sha256 {digest}")
    metrics = {}
    if ok:
        print("  environment " + json.dumps(ok[0]["fingerprint"], sort_keys=True))
        untraced = [r for r in ok if not r["traced"]]
        if trace:
            values = per_layer(ok)
            wanted = spec["per_layer"]
            print("  per-layer: medians over traced repetitions (self_s excludes child spans)")
            for name in sorted(values):
                print(describe(name, values[name], unit_of(name, wanted)))
        else:
            values = end_to_end(untraced)
            wanted = spec["end_to_end"]
            rounds = [x for r in untraced for x in r["round_ms"]]
            samples = {k: [r[k] for r in untraced] for k in ("run_s", "setup_s", "rounds_s")}
            samples["round_ms_p50"] = rounds
            print("  end-to-end: medians over repetitions; round_ms pooled over them")
            print("  run_s by repetition: " + " ".join(f"{r['run_s']:.4g}" for r in untraced))
            for m in wanted:
                print(describe(m["name"], values[m["name"]], m["unit"],
                               samples.get(m["name"])))
        for m in wanted:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            else:
                print(f"  {m['name']:<44} absent: the function is not in this version")
    return {"correct": failed == 0 and bool(ok), "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "subfedsim", "experiment.py")):
        print(f"no simulator source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    results = {}
    for trace in modes:
        for w in workloads:
            reps = run_workload(w, args.seed, args.seconds, trace)
            results[(w, trace)] = report(w, args.seed, trace, reps, spec)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({f"{w}/{'traced' if t else 'untraced'}": r
                          for (w, t), r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
