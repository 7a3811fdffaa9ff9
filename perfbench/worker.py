"""One benchmark repetition: a single `run_experiment` in this (fresh) process.

Usage: python3 perfbench/worker.py WORKLOAD SEED OUT_DIR TRACE SPANS_PATH

Prints one JSON object on its last stdout line. The simulator is imported from
the `src/` directory of the checkout that holds this file, never from an
installed copy.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cufl_disjoint10(cfg):
    cfg.num_clients = 10
    cfg.rounds = 50
    cfg.fed.tau = 5.0


def _fedavg_disjoint10(cfg):
    cfg.method = "FedAvg"
    cfg.num_clients = 10
    cfg.rounds = 200


def _cufl_scale16(cfg):
    cfg.dataset.blocks = 4
    cfg.dataset.block_size = 1000
    cfg.dataset.p_in = 0.02
    cfg.dataset.p_cross = 0.0005
    cfg.num_clients = 16
    cfg.rounds = 10
    cfg.fed.tau = "adaptive"


# Every workload starts from the default config: CUFL on a 2-block, 400-node
# SBM, split into clients by recursive bisection, with a 500-node reference.
WORKLOADS = {
    "cufl-disjoint10": _cufl_disjoint10,
    "fedavg-disjoint10": _fedavg_disjoint10,
    "cufl-scale16": _cufl_scale16,
}

# Files the project README calls byte-stable; other files in a run directory
# (such as timing sidecars) are counted in the artifact size but not digested.
STABLE_PREFIXES = ("similarity_round_", "alpha_round_", "tau_round_", "mask_round_",
                   "refrecon_round_")
VOLATILE_MANIFEST_KEYS = ("timestamp", "out_dir")


def normalized_summary(raw: bytes) -> bytes:
    """summary.json without the fields that differ between identical runs."""
    summary = json.loads(raw)
    manifest = summary.get("manifest", {})
    for key in VOLATILE_MANIFEST_KEYS:
        manifest.pop(key, None)
    return json.dumps(summary, sort_keys=True, indent=2).encode()


def run_dir_digest(out_dir: str) -> str:
    """sha256 over the names and bytes of the byte-stable files of a run."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if not (name in ("metrics.csv", "summary.json") or name.startswith(STABLE_PREFIXES)):
            continue
        with open(os.path.join(out_dir, name), "rb") as f:
            data = f.read()
        if name == "summary.json":
            data = normalized_summary(data)
        h.update(name.encode() + b"\x00" + str(len(data)).encode() + b"\x00" + data)
    return h.hexdigest()


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def fingerprint(seed: int) -> dict:
    import networkx
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": threads,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _hook_round_starts(experiment, starts: list) -> None:
    """Record one timestamp when the first client of each round starts training."""
    fn = experiment.local_training_stage
    sig = inspect.signature(fn)

    def timed(*args, **kwargs):
        t = sig.bind(*args, **kwargs).arguments["t"]
        if not starts or starts[-1][0] != t:
            starts.append((t, time.perf_counter()))
        return fn(*args, **kwargs)

    experiment.local_training_stage = timed


def run_once(workload: str, seed: int, out_dir: str, trace: bool, spans_path: str) -> dict:
    sys.path.insert(0, SRC)
    import subfedsim
    if not os.path.abspath(subfedsim.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"subfedsim was imported from {subfedsim.__file__}, not {SRC}")
    from subfedsim import experiment
    from subfedsim.config import ExperimentConfig

    cfg = ExperimentConfig()
    WORKLOADS[workload](cfg)
    cfg.seed = seed

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(f"{workload}/seed{seed}/pid{os.getpid()}",
                        getattr(cfg.ies, "embeddings", "hidden"))
        tracer.install("subfedsim", out_dir)
    starts = []
    _hook_round_starts(experiment, starts)

    t0 = time.perf_counter()
    result = experiment.run_experiment(cfg, out_dir=out_dir)
    t1 = time.perf_counter()

    if len(starts) != cfg.rounds:
        raise RuntimeError(f"saw {len(starts)} round starts for {cfg.rounds} rounds")
    bounds = [s for _, s in starts] + [t1]
    final = result.summary["final"]
    accs = {k: final.get(k) for k in ("train_acc_mean", "val_acc_mean", "test_acc_mean")}
    for key, val in accs.items():
        if not isinstance(val, float) or not math.isfinite(val):
            raise RuntimeError(f"final {key} is not a finite number: {val!r}")
    with open(os.path.join(out_dir, "metrics.csv")) as f:
        rows = sum(1 for _ in f) - 1
    if rows != cfg.rounds * cfg.num_clients:
        raise RuntimeError(f"metrics.csv has {rows} rows, expected "
                           f"{cfg.rounds * cfg.num_clients}")

    out = {
        "run_s": t1 - t0,
        "setup_s": starts[0][1] - t0,
        "rounds_s": t1 - starts[0][1],
        "round_ms": [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_mb": dir_bytes(out_dir) / 1e6,
        "test_acc_mean": accs["test_acc_mean"],
        "digest": run_dir_digest(out_dir),
        "fingerprint": fingerprint(seed),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    return out


def main(argv: list) -> int:
    workload, seed, out_dir, trace, spans_path = argv
    out = run_once(workload, int(seed), out_dir, trace == "1", spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
