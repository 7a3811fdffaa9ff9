"""The benchmark's tracer and round hook still find what they read in the package.

perfbench/ is not collected here, so without this test a renamed function or
parameter that its hooks bind by name would fail every traced benchmark
repetition while tier-1 stayed green.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("method", ["CUFL", "FedAvg"])
def test_traced_run_reaches_every_hook(tmp_path, method):
    out = tmp_path / "run"
    # a subprocess, because the tracer replaces the package's module attributes
    code = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]
        import worker
        from subfedsim import experiment
        from subfedsim.config import ExperimentConfig
        from tracer import Tracer
        tr = Tracer("hooks")
        tr.install("subfedsim", {str(out)!r})
        starts = []
        worker._hook_round_starts(experiment, starts)
        experiment.run_experiment(ExperimentConfig(rounds=2, num_clients=2, method={method!r}),
                                  out_dir={str(out)!r})
        print(json.dumps({{"starts": len(starts), **tr.layer_metrics()}}))
    """)
    stdout = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, check=True).stdout
    m = json.loads(stdout.strip().splitlines()[-1])
    assert m["starts"] == 2
    assert m["gcn.forward.calls"] > 0
    if method == "CUFL":
        # 2 dump rounds x (2 masks + 1 refrecon), and the 2 stacked matrix files
        assert m["experiment.artifacts.files"] == 8
        assert m["ies.reconstruct.calls"] > 0
        assert m["server.similarity_matrix.pairs"] == 2  # one client pair in each of 2 rounds
        # the pinned functions are still called, not only still defined
        assert m["server.build_indicator.calls"] == 4  # 2 rounds x 2 clients
        assert m["server.aggregate.calls"] == 2  # one call per round mixes every client
        assert m["ies.warmup_mask.calls"] == 2  # once per client
    else:  # the path of the FedAvg workload: one Adam step per client and round
        assert m["gcn.adam_step.calls"] == 4
        assert m["server.similarity_matrix.pairs"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {entry["name"] for entry in json.load(f)["per_layer"]}
    # run.py computes the overhead share from a traced and an untraced run
    assert sorted(declared - {"trace.overhead_share"} - set(m)) == []
