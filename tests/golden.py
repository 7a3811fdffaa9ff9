"""Golden digests: the sha256 of every file of 36 short runs, as written.

    python3 tests/golden.py        # rewrites tests/golden.json, lists what moved

The runs are the default config at 5 rounds for every method, the
`bisection`, `louvain` and `overlap` partitions, and seeds 0 and 1, plus six
runs whose overrides reach paths the defaults miss.
`test_golden.py` reruns them and compares each file with the recorded digest.
Regenerate the file only for a change that is meant to alter run artifacts,
and say why in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402

from subfedsim import config, experiment  # noqa: E402

GOLDEN_PATH = os.path.join(ROOT, "tests", "golden.json")
ROUNDS = 5
RUNS = [(method, partition, seed, ())
        for method in config.METHODS
        for partition in ("bisection", "louvain", "overlap")
        for seed in (0, 1)] + [
    # two epochs: the prox term away from its anchor, the mask refreshed each epoch
    ("CUFL", "bisection", 0, ("epochs=2",)),
    ("FedProx", "bisection", 0, ("epochs=2",)),
    ("FedAvgCL", "bisection", 0, ("epochs=2",)),
    # masks and indicators reconstructed from the logits
    ("CUFL", "bisection", 0, ("ies.embeddings=logits",)),
    # the server stage evaluates each aggregated model to step its tau; patience 0
    # lets every round's validation accuracy move tau within the five rounds
    ("CUFL", "bisection", 0, ("fed.tau=adaptive", "fed.tau_patience=0")),
    # mask step sizes 200x and 10,000x the defaults: client and reference-graph
    # weights reach 0 and 1, so the mask step's clip acts
    ("CUFL", "bisection", 0, ("ies.lr_train=0.1", "ies.lr_aggr=0.1")),
]


def run_name(method: str, partition: str, seed: int, overrides: tuple = ()) -> str:
    return "-".join((f"{method}-{partition}-seed{seed}", *overrides))


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose for this CPU, or "unknown".

    The golden bytes depend on it: the same versions give other digests under
    another kernel (e.g. `OPENBLAS_CORETYPE=Haswell` on an AVX-512 machine).
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def fingerprint() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_core": blas_core()}


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_digests(method: str, partition: str, seed: int, overrides: tuple,
                out_dir: str) -> dict:
    """Run one golden config, with `--set` style overrides, into out_dir; return
    {file name: sha256}."""
    cfg = config.ExperimentConfig(method=method, seed=seed, rounds=ROUNDS)
    cfg.partition.kind = partition
    cfg = config.apply_overrides(cfg, list(overrides))
    experiment.run_experiment(cfg, out_dir=out_dir)
    return {name: file_digest(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir))}


def moved_digests(old_runs: dict, new_runs: dict) -> tuple:
    """([(run, file, old digest, new digest)] of each entry that differs, with None
    on the side that lacks it; the number of entries equal on both sides)."""
    moved, same = [], 0
    for run in sorted(set(old_runs) | set(new_runs)):
        old, new = old_runs.get(run, {}), new_runs.get(run, {})
        for name in sorted(set(old) | set(new)):
            if old.get(name) == new.get(name):
                same += 1
            else:
                moved.append((run, name, old.get(name), new.get(name)))
    return moved, same


def main() -> int:
    try:
        with open(GOLDEN_PATH) as f:
            old_runs = json.load(f)["runs"]
    except FileNotFoundError:
        old_runs = {}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            name = run_name(*run)
            runs[name] = run_digests(*run, os.path.join(tmp, name))
    with open(GOLDEN_PATH, "w", newline="\n") as f:
        json.dump({"fingerprint": fingerprint(), "rounds": ROUNDS, "runs": runs}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    moved, same = moved_digests(old_runs, runs)
    for run, name, old, new in moved:
        print(f"{run} {name}: {(old or 'none')[:12]} -> {(new or 'none')[:12]}")
    print(f"wrote {len(runs)} runs to {GOLDEN_PATH}: {len(moved)} entries moved, "
          f"{same} unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
