"""Every file of 36 short runs matches the digest in golden.json."""

import json
import os
import platform
import subprocess
import sys

import pytest

import golden

with open(golden.GOLDEN_PATH) as _f:
    GOLDEN = json.load(_f)


def test_golden_covers_every_run():
    assert GOLDEN["rounds"] == golden.ROUNDS
    assert sorted(GOLDEN["runs"]) == sorted(golden.run_name(*r) for r in golden.RUNS)


def test_moved_digests_lists_each_changed_entry():
    old = {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"z.csv": "3"}}
    new = {"a": {"x.csv": "1", "y.csv": "4", "w.csv": "5"}, "c": {"z.csv": "3"}}
    assert golden.moved_digests(old, new) == ([
        ("a", "w.csv", None, "5"), ("a", "y.csv", "2", "4"),
        ("b", "z.csv", "3", None), ("c", "z.csv", None, "3")], 1)


@pytest.mark.parametrize("run", golden.RUNS, ids=[golden.run_name(*r) for r in golden.RUNS])
def test_run_matches_golden(tmp_path, run):
    name = golden.run_name(*run)
    want = GOLDEN["runs"][name]
    got = golden.run_digests(*run, str(tmp_path / name))
    env = golden.fingerprint()
    drift = {k: f"{GOLDEN['fingerprint'][k]} -> {v}"
             for k, v in env.items() if GOLDEN["fingerprint"][k] != v}
    note = (f"versions differ from golden.json: {drift}" if drift
            else "versions match golden.json")
    assert sorted(got) == sorted(want), \
        f"{name}: files {sorted(set(got) ^ set(want))} differ in presence; {note}"
    bad = [f for f in want if got[f] != want[f]]
    assert not bad, f"{name}: {bad} differ from golden.json; {note}"


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or golden.blas_core() == "unknown",
                    reason="needs numpy's bundled OpenBLAS on x86-64")
def test_fingerprint_reads_the_kernel_the_process_selected():
    # Nehalem (SSE4.2) runs on any x86-64 this test would meet
    code = "import golden; print(golden.fingerprint()['blas_core'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, cwd=os.path.dirname(golden.GOLDEN_PATH),
                         env=dict(os.environ, OPENBLAS_CORETYPE="Nehalem")).stdout
    assert out.strip() == "Nehalem"
