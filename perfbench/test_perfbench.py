"""Self-tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from run import percentile, tail_percentile
from tracer import RepeatCounter, Tracer, self_times
from worker import ROOT, run_dir_digest


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),    # overlaps a: union is [1, 5]
        ("c", 9.0, 12.0, 0),   # clipped to [9, 10]
        ("a.x", 1.5, 2.5, 1),  # grandchild: billed to a, not to root
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_nested_wrapped_calls_record_parents_and_self_time():
    tr = Tracer("t")
    inner = tr._wrap("m.inner", lambda: sum(range(20000)))
    outer = tr._wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    names = [s[0] for s in tr.spans]
    assert names == ["m.outer", "m.inner", "m.inner", "m.inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0, 0]
    tr.wrapped = {"m.outer", "m.inner"}
    m = tr.layer_metrics()
    assert m["m.inner.calls"] == 3 and m["m.outer.calls"] == 1
    assert m["m.outer.self_s"] + m["m.inner.total_s"] == pytest.approx(m["m.outer.total_s"])


def test_repeat_share_counts_calls_equal_to_an_earlier_call():
    edges = np.array([[0, 1], [1, 2]])
    w1, w2 = np.array([0.5, 0.5]), np.array([0.5, 0.25])
    rc = RepeatCounter()
    for e, w, n in ((edges, w1, 3), (edges, w1, 3), (edges, w2, 3), (edges, w1, 4),
                    (edges, w2, 3)):
        rc.add(e, w, n)
    assert (rc.calls, rc.repeats) == (5, 2)
    assert rc.share == pytest.approx(0.4)
    assert RepeatCounter().share == 0.0


def _write_run(path, timestamp, metrics=b"round,client\n1,0\n"):
    os.makedirs(path)
    summary = {"manifest": {"timestamp": timestamp, "out_dir": str(path),
                            "tool_version": "0.1.0"}, "final": {"test_acc_mean": 0.9}}
    with open(os.path.join(path, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    with open(os.path.join(path, "metrics.csv"), "wb") as f:
        f.write(metrics)
    with open(os.path.join(path, "timings.json"), "w") as f:
        f.write(timestamp)


def test_digest_ignores_volatile_fields_but_not_artifact_bytes(tmp_path):
    _write_run(tmp_path / "a", "2026-01-01T00:00:00")
    _write_run(tmp_path / "b", "2026-01-02T11:11:11")
    _write_run(tmp_path / "c", "2026-01-01T00:00:00", b"round,client\n1,1\n")
    assert run_dir_digest(tmp_path / "a") == run_dir_digest(tmp_path / "b")
    assert run_dir_digest(tmp_path / "a") != run_dir_digest(tmp_path / "c")


def test_percentiles():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile([3.0], 90) == 3.0
    assert tail_percentile(250) == 96
    assert tail_percentile(100) == 90
    assert tail_percentile(19) is None


def test_missing_function_or_module_gives_absent_metrics(tmp_path, monkeypatch):
    pkg = tmp_path / "fakesim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "gcn.py").write_text(textwrap.dedent("""
        def forward_like(x):
            return x + 1
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    tr = Tracer("t")
    tr.install("fakesim", str(tmp_path))
    import fakesim.gcn
    assert fakesim.gcn.forward_like(1) == 2
    m = tr.layer_metrics()
    assert m["gcn.forward_like.calls"] == 1
    assert not any(k.startswith(("gcn.forward.", "server.", "ies.")) for k in m)


def test_traced_fedavg_run_counts_layers(tmp_path):
    """FedAvg never reaches ies or server, and re-normalizes the same adjacency."""
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {os.path.join(ROOT, 'src')!r})
        sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})
        from subfedsim import experiment
        from subfedsim.config import ExperimentConfig
        from tracer import Tracer
        cfg = ExperimentConfig(method="FedAvg", rounds=3, num_clients=2)
        tr = Tracer("test")
        tr.install("subfedsim", {str(tmp_path)!r})
        experiment.run_experiment(cfg, out_dir={str(tmp_path)!r})
        print(json.dumps(tr.layer_metrics()))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    m = json.loads(out.strip().splitlines()[-1])
    # 3 rounds x 2 clients of training plus evaluation, all on two fixed graphs
    assert m["gcn.normalize_masked_adjacency.calls"] == 12
    assert m["gcn.normalize_masked_adjacency.repeat_share"] == pytest.approx(10 / 12)
    assert m["gcn.forward.logits_unused_share"] == 0.0
    assert m["ies.reconstruct.calls"] == 0 and m["server.build_indicator.calls"] == 0
    assert m["experiment.evaluate.calls"] == 6
    assert m["experiment.artifacts.files"] == 0
