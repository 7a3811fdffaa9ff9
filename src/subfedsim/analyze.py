"""Plot-ready CSV analyses derived from run artifacts."""

from __future__ import annotations

import json
import os

import numpy as np

from .config import dump_rounds_of
from .experiment import same_cluster_weight_proportion
from .graphs import _convert, _read_csv


class AnalysisError(ValueError):
    pass


def _require(path: str):
    if not os.path.isfile(path):
        raise AnalysisError(f"{path}: missing file")  # as graphs._read_csv says it
    return path


def _load_summary(run_dir: str) -> dict:
    path = _require(os.path.join(run_dir, "summary.json"))
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"{path}: {exc}") from exc


def _config_value(run_dir: str, summary: dict, key: str):
    """`summary["config"][key]`, or an error naming the key and the file."""
    try:
        return summary["config"][key]
    except (KeyError, TypeError):
        path = os.path.join(run_dir, "summary.json")
        raise AnalysisError(f"{path} has no config.{key}") from None


def _load_matrix(path: str) -> np.ndarray:
    _require(path)
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise AnalysisError(f"{path}: {exc}") from exc


def weight_proportion_csv(run_dir: str) -> str:
    """Per-round same-cluster similarity mass: `round,proportion`."""
    summary = _load_summary(run_dir)
    clusters = summary.get("clusters")
    if clusters is None:
        raise AnalysisError(f"run {run_dir} has no cluster ground truth in summary.json")
    rounds = _config_value(run_dir, summary, "rounds")
    lines = ["round,proportion"]
    for t in range(1, rounds + 1):
        sim = _load_matrix(os.path.join(run_dir, f"similarity_round_{t}.csv"))
        lines.append(f"{t},{float(same_cluster_weight_proportion(sim, clusters))!r}")
    return "\n".join(lines) + "\n"


def _load_recon(path: str) -> np.ndarray:
    return np.array([_convert(path, lineno, float, fields)[2]
                     for lineno, fields in _read_csv(path, "u,v,weight")])


def bin_match_ratio(ref_recon: np.ndarray, other_recon: np.ndarray,
                    num_bins: int = 5) -> np.ndarray:
    """Per-bin fraction of reference edges whose counterpart lands in the same bin.

    Bins are equal width over [-1, 1]; empty reference bins yield NaN.
    """
    ref_recon = np.asarray(ref_recon, dtype=np.float64)
    other_recon = np.asarray(other_recon, dtype=np.float64)
    if ref_recon.shape != other_recon.shape:
        raise ValueError("reconstructions must share the same edge list")
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")

    def binify(w):
        b = np.floor((w + 1.0) / 2.0 * num_bins).astype(int)
        return np.clip(b, 0, num_bins - 1)

    rb = binify(ref_recon)
    ob = binify(other_recon)
    out = np.full(num_bins, np.nan)
    for b in range(num_bins):
        in_bin = rb == b
        if in_bin.any():
            out[b] = float(np.mean(ob[in_bin] == b))
    return out


def bin_match_csv(run_dir: str, num_bins: int = 5) -> str:
    """Bin-match of each client's earliest vs latest dumped reference reconstruction."""
    summary = _load_summary(run_dir)
    rounds = _config_value(run_dir, summary, "rounds")
    K = _config_value(run_dir, summary, "num_clients")
    dump_rounds = dump_rounds_of(summary["config"].get("dump_rounds"), rounds)
    if len(set(dump_rounds)) < 2:
        path = os.path.join(run_dir, "summary.json")
        raise AnalysisError(f"{path}: config.dump_rounds gives the dump rounds "
                            f"{list(dump_rounds)}; bin-match needs two distinct rounds")
    t0, t1 = min(dump_rounds), max(dump_rounds)
    lines = ["bin,ratio,client"]
    for k in range(K):
        paths = [os.path.join(run_dir, f"refrecon_round_{t}_client_{k}.csv") for t in (t0, t1)]
        ref, other = map(_load_recon, paths)
        if ref.size != other.size:
            raise AnalysisError(f"{paths[0]} has {ref.size} edges but {paths[1]} has "
                                f"{other.size}; reconstructions must share the edge list")
        ratios = bin_match_ratio(ref, other, num_bins)
        for b, r in enumerate(ratios):
            lines.append(f"{b},{'' if np.isnan(r) else repr(float(r))},{k}")
    return "\n".join(lines) + "\n"


def learning_curve_csv(run_dir: str) -> str:
    """Per-round test accuracy per client, copied from metrics.csv."""
    lines = ["round,test_acc,client"]
    header = "round,client,train_loss,train_acc,val_acc,test_acc"
    for _, fields in _read_csv(os.path.join(run_dir, "metrics.csv"), header, exact=False):
        lines.append(f"{fields[0]},{fields[5]},{fields[1]}")
    return "\n".join(lines) + "\n"


ANALYSES = {
    "weight-proportion": weight_proportion_csv,
    "bin-match": bin_match_csv,
    "learning-curve": learning_curve_csv,
}
