"""Plot-ready CSV analyses derived from run artifacts."""

from __future__ import annotations

import json
import os

import numpy as np

from .config import check_dump_rounds, dump_rounds_of
from .experiment import reference_recon_header, same_cluster_weight_proportion
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
            summary = json.load(f)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"{path}: {exc}") from exc
    if not isinstance(summary, dict):
        raise AnalysisError(f"{path} must hold a JSON object, got {type(summary).__name__}")
    return summary


def _config_sizes(run_dir: str, summary: dict) -> tuple:
    """`config.rounds` and `config.num_clients` of a run's summary, or an error
    naming the file and the key that is missing or not an integer."""
    path = os.path.join(run_dir, "summary.json")
    sizes = []
    for key in ("rounds", "num_clients"):
        try:
            value = summary["config"][key]
        except (KeyError, TypeError):
            raise AnalysisError(f"{path} has no config.{key}") from None
        if type(value) is not int:  # not a bool, a float or a string
            raise AnalysisError(f"{path}: config.{key} must be an integer, got {value!r}")
        sizes.append(value)
    return tuple(sizes)


def _dump_rounds(run_dir: str, summary: dict, rounds: int) -> tuple:
    """The dump rounds of a run's summary, as `config.validate` admits them."""
    value = summary["config"].get("dump_rounds")
    try:
        check_dump_rounds(value, rounds)
    except ValueError as exc:
        raise AnalysisError(f"{os.path.join(run_dir, 'summary.json')}: "
                            f"config.dump_rounds {exc}") from None
    return dump_rounds_of(value, rounds)


def _load_matrix(path: str) -> np.ndarray:
    """The rows of a headerless CSV of floats, one per non-blank line. Through
    `graphs._read_csv`, a missing file, a ragged row or an unparsable field
    names the file, and a row also its line: `path:<line>`."""
    return np.array([_convert(path, lineno, float, fields)
                     for lineno, fields in _read_csv(path, None)])


def weight_proportion_csv(run_dir: str) -> str:
    """Per-round same-cluster similarity mass: `round,proportion`.

    `similarity_round_all.csv` is read once; rows (t-1)*K+1 to t*K hold round t.
    """
    summary = _load_summary(run_dir)
    summary_path = os.path.join(run_dir, "summary.json")
    clusters = summary.get("clusters")
    if clusters is None:
        raise AnalysisError(f"run {run_dir} has no cluster ground truth in summary.json")
    if not (isinstance(clusters, list) and all(type(c) is int for c in clusters)):
        raise AnalysisError(f"{summary_path}: clusters must be "
                            f"a list of integers, got {clusters!r}")
    rounds, K = _config_sizes(run_dir, summary)
    if len(clusters) != K:
        raise AnalysisError(f"{summary_path}: clusters has {len(clusters)} entries "
                            f"but config.num_clients is {K}")
    lines = ["round,proportion"]
    if rounds == 0:  # a run of no rounds writes no matrix
        return lines[0] + "\n"
    path = os.path.join(run_dir, "similarity_round_all.csv")
    sim = _load_matrix(path)
    if len(sim) != rounds * K:
        raise AnalysisError(f"{path}: {len(sim)} rows, but config.rounds * "
                            f"config.num_clients is {rounds * K}")
    for t in range(1, rounds + 1):
        try:
            prop = same_cluster_weight_proportion(sim[(t - 1) * K:t * K], clusters)
        except ValueError as exc:
            raise AnalysisError(f"{path}: round {t}: {exc}") from exc
        lines.append(f"{t},{float(prop)!r}")
    return "\n".join(lines) + "\n"


def _load_recon(path: str, K: int) -> np.ndarray:
    """The (E, K) reconstructions of a `refrecon_round_{t}.csv`, column k client k's."""
    rows = [_convert(path, lineno, float, fields)
            for lineno, fields in _read_csv(path, reference_recon_header(K))]
    return np.array(rows).reshape(-1, K + 2)[:, 2:]


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
    rounds, K = _config_sizes(run_dir, summary)
    dump_rounds = _dump_rounds(run_dir, summary, rounds)
    if len(set(dump_rounds)) < 2:
        path = os.path.join(run_dir, "summary.json")
        raise AnalysisError(f"{path}: config.dump_rounds gives the dump rounds "
                            f"{list(dump_rounds)}; bin-match needs two distinct rounds")
    paths = [os.path.join(run_dir, f"refrecon_round_{t}.csv")
             for t in (min(dump_rounds), max(dump_rounds))]
    ref, other = (_load_recon(path, K) for path in paths)
    if len(ref) != len(other):
        raise AnalysisError(f"{paths[0]} has {len(ref)} edges but {paths[1]} has "
                            f"{len(other)}; reconstructions must share the edge list")
    lines = ["bin,ratio,client"]
    for k in range(K):
        ratios = bin_match_ratio(ref[:, k], other[:, k], num_bins)
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
