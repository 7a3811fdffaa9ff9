import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy
import pytest
import scipy

import subfedsim
from subfedsim import cli, gcn, graphs


SMALL_CFG = {
    "rounds": 2,
    "num_clients": 2,
    "dataset": {"blocks": 2, "block_size": 30, "p_in": 0.25, "p_cross": 0.05,
                "dx": 8},
    "model": {"hidden": 16, "lr": 0.01},
    "reference": {"blocks": 2, "block_size": 20, "p_in": 0.2},
    "warmup": {"rounds": 2, "steps": 5},
}


def write_cfg(tmp_path, **extra):
    data = dict(SMALL_CFG, **extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


class TestGenerate:
    def test_writes_loadable_dir(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("generate", "sbm", "--blocks", "2", "--block-size", "20",
                       "--p-in", "0.2", "--dx", "4", str(out)) == 0
        g = graphs.load_graph_dir(str(out))
        assert g.num_nodes == 40 and g.d_x == 4
        assert "40 nodes" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("generate", "er", "--n", "30", "--p", "0.1",
                    "--seed", "3", str(out))
        assert (a / "nodes.csv").read_bytes() == (b / "nodes.csv").read_bytes()
        assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()

    def test_er_p_zero_has_no_edges(self, tmp_path):
        out = tmp_path / "empty"
        run_cli("generate", "er", "--n", "10", "--p", "0.0", str(out))
        assert graphs.load_graph_dir(str(out)).num_edges == 0

    def test_refuses_nonempty_dir(self, tmp_path, capsys):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run_cli("generate", "ba", "--n", "10", str(out)) == 1
        assert "error:" in capsys.readouterr().err
        assert run_cli("generate", "ba", "--n", "10", "--force", str(out)) == 0

    @pytest.mark.parametrize("flag, value, low", [
        pytest.param("--dx", "0", 1, id="--dx"),
        pytest.param("--num-classes", "0", 1, id="--num-classes"),
        pytest.param("--seed", "-1", 0, id="--seed"),
    ])
    def test_rejects_nonpositive_width(self, tmp_path, capsys, flag, value, low):
        out = tmp_path / "g"
        assert run_cli("generate", "sbm", "--blocks", "2", "--block-size", "10",
                       flag, value, str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be >= {low}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sbm", "--blocks", "3", "--block-size", "15", "--p-in", "0.3", "--p-cross", "0.02",
         "--num-classes", "3", "--seed", "4"],
        ["er", "--n", "40", "--p", "0.1", "--dx", "5", "--seed", "2"],
        ["ba", "--n", "40", "--m", "3", "--num-classes", "4", "--seed", "1"],
    ])
    def test_bytes_match_per_kind_dispatch(self, tmp_path, argv):
        assert run_cli("generate", *argv, str(tmp_path / "new")) == 0
        # the per-kind dispatch `cmd_generate` used before `graphs.GENERATORS`
        a = cli.build_parser().parse_args(["generate", *argv, "unused"])
        if a.generator == "sbm":
            g = graphs.generate_sbm(a.blocks, a.block_size, a.p_in, a.p_cross,
                                    a.dx, a.num_classes, a.seed)
        elif a.generator == "er":
            g = graphs.generate_er(a.n, a.p, a.dx, a.num_classes, a.seed)
        else:
            g = graphs.generate_ba(a.n, a.m, a.dx, a.num_classes, a.seed)
        graphs.save_graph_dir(g, str(tmp_path / "ref"))
        for name in ("nodes.csv", "edges.csv"):
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes()


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert "run complete" in capsys.readouterr().out

    def test_summary_echo_roundtrip(self, tmp_path):
        from subfedsim import config
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        run_cli("run", "--config", cfg, "--out", str(out))
        data = json.loads((out / "summary.json").read_text())
        echoed = config.from_dict(data["config"])
        assert config.to_dict(echoed) == data["config"]
        assert data["manifest"]["config_path"] == cfg

    def test_summary_is_strict_json_when_a_split_is_empty(self, tmp_path):
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="assigning train-first"):
            assert run_cli("run", "--set", "num_clients=200", "--set", "rounds=1",
                           "--set", "method=FedAvg", "--set", "split_ratios=[1,0.2,4]",
                           "--out", str(out)) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        data = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        per_client = data["final"]["per_client"]
        assert len(per_client) == 200
        assert all(m["val_acc"] is None for m in per_client)
        # metrics.csv keeps the NaN of an empty split
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
        assert rows[0][4] == "val_acc" and {row[4] for row in rows[1:]} == {"nan"}

    def test_set_override_switches_method(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "fedavg"
        assert run_cli("run", "--config", cfg, "--set", "method=FedAvg",
                       "--out", str(out)) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["method"] == "FedAvg"
        assert not list(out.glob("similarity_round_*.csv"))

    def test_seed_flag_wins(self, tmp_path):
        cfg = write_cfg(tmp_path, seed=0)
        out = tmp_path / "seeded"
        run_cli("run", "--config", cfg, "--seed", "17", "--out", str(out))
        assert json.loads((out / "summary.json").read_text())["seed"] == 17

    def test_unknown_override_errors(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run_cli("run", "--config", cfg, "--set", "typo.key=1",
                       "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_dataset_dir_errors(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dataset={"kind": "dir",
                                           "path": str(tmp_path / "nope")})
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_refuses_nonempty_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "busy"
        out.mkdir()
        (out / "old.csv").write_text("x")
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 1
        assert "use --force" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("split_ratios=5", "split_ratios"),
        ("dump_rounds=3", "dump_rounds"),
        ("epochs=null", "epochs"),
        ("num_clients=2.5", "num_clients"),
        ("model.hidden=true", "model.hidden"),
        ("fed.tau=true", "fed.tau"),
        ("dump_rounds=[0]", "dump_rounds"),
        ("dump_rounds=[999]", "dump_rounds"),
        ("fed.tau=NaN", "fed.tau"),
        ("fed.tau=-Infinity", "fed.tau"),
        ("fed.tau=1e400", "fed.tau"),
        ("split_ratios=[2, NaN, 4]", "split_ratios"),
        ("ies.embeddings=logit", "ies.embeddings"),
        ("fed.tau_update_interval=0", "fed.tau_update_interval"),
        ("reference.kind=xyz", "reference.kind"),
        ("dataset.kind=xyz", "dataset.kind"),
        ("ies.steps=0", "ies.steps"),
        ("warmup.steps=-1", "warmup.steps"),
        ("warmup.rounds=-1", "warmup.rounds"),
        ("seed=-1", "seed"),
        ("model.hidden=0", "model.hidden"),
        ("dataset.dx=0", "dataset.dx"),
        ("dataset.num_classes=0", "dataset.num_classes"),
        ("dataset.blocks=0", "dataset.blocks"),
        ("dataset.block_size=0", "dataset.block_size"),
        ("dataset.n=0", "dataset.n"),
        ("dataset.m=0", "dataset.m"),
        ("reference.blocks=0", "reference.blocks"),
        ("reference.block_size=0", "reference.block_size"),
        ("reference.n=0", "reference.n"),
        ("reference.m=0", "reference.m"),
        ("partition.base_parts=0", "partition.base_parts"),
        ("partition.copies_per_part=0", "partition.copies_per_part"),
        ("partition.frac=0", "partition.frac"),
        ("partition.frac=1.5", "partition.frac"),
        ("ies.zeta=0", "ies.zeta"),
        ("ies.zeta=-1.5", "ies.zeta"),
        ("ies.init_value=3", "ies.init_value"),
        ("ies.init_value=-1", "ies.init_value"),
        ("dataset.p_in=1.5", "dataset.p_in"),
        ("dataset.p_cross=-0.1", "dataset.p_cross"),
        ("dataset.p=2", "dataset.p"),
        ("reference.p_in=2", "reference.p_in"),
        ("reference.p_cross=-1", "reference.p_cross"),
        ("reference.p=1.5", "reference.p"),
        ("split_ratios=[0,1,1]", "split_ratios"),
        ("split_ratios=[1,1]", "split_ratios"),
        ("split_ratios=[1,-1,1]", "split_ratios"),
        ("fed.beta=-5", "fed.beta"),
        ("ies.gamma=-1", "ies.gamma"),
        ("fed.tau=-5", "fed.tau"),
        ("fed.tau_init=-1", "fed.tau_init"),
        ("fed.tau_min=20", "fed.tau_min"),
        ("fed.tau_max=-1", "fed.tau_max"),
        ("fed.tau_rho=0", "fed.tau_rho"),
        ("fed.tau_patience=-1", "fed.tau_patience"),
        pytest.param(("fed.tau=adaptive", "fed.tau_init=50"), "fed.tau_init",
                     id="adaptive-tau_init=50-fed.tau_init"),
        pytest.param(("fed.tau=adaptive", "fed.tau_init=2"), "fed.tau_init",
                     id="adaptive-tau_init=2-fed.tau_init"),
        ("ies.lr_train=2000", "ies.lr_train"),
        ("ies.lr_aggr=2000", "ies.lr_aggr"),
        pytest.param("split_ratios=[1" + "0" * 400 + ",1,1]", "split_ratios",
                     id="split_ratios=[huge int,1,1]-split_ratios"),
        pytest.param("ies.lr_train=1" + "0" * 400, "ies.lr_train",
                     id="ies.lr_train=huge int-ies.lr_train"),
        ("partition.kind=overlap", "num_clients"),  # 2 clients, 2 x 2 overlap parts
        ("typo.key=1", "typo"),
        ("seed.x=1", "seed"),
        ("fed.tau.x=1", "fed.tau"),
    ])
    def test_wrong_typed_override_errors(self, tmp_path, capsys, override, key):
        cfg = write_cfg(tmp_path)
        overrides = override if isinstance(override, tuple) else (override,)
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli("run", "--config", cfg, *sets, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "x").exists()

    def test_tau_init_range_holds_only_for_adaptive_tau(self):
        from subfedsim import config
        base = config.ExperimentConfig()
        for tau_init in (3, 10):  # the range's ends are admitted
            cfg = config.apply_overrides(base, ["fed.tau=adaptive", f"fed.tau_init={tau_init}"])
            assert cfg.fed.tau_init == tau_init
        assert config.apply_overrides(base, ["fed.tau_init=50"]).fed.tau_init == 50
        with pytest.raises(config.ConfigError, match="'fed.tau_init'"):
            config.apply_overrides(base, ["fed.tau=adaptive", "fed.tau_min=6", "fed.tau_max=8"])

    def test_ies_steps_bound_follows_the_method(self):
        from subfedsim import config
        base = config.ExperimentConfig()
        for name in config.METHODS:
            overrides = [f"method={name}", "ies.steps=0"]
            if name in ("CUFL", "FedAvgCL"):  # the methods that call mask_step
                with pytest.raises(config.ConfigError, match="'ies.steps'"):
                    config.apply_overrides(base, overrides)
            else:
                assert config.apply_overrides(base, overrides).ies.steps == 0

    def test_lr_gamma_bounds_follow_the_method(self):
        from subfedsim import config
        base = config.ExperimentConfig()  # ies.gamma = 0.001
        rejected_by = {"ies.lr_train": ("CUFL", "FedAvgCL"),  # they learn a mask
                       "ies.lr_aggr": ("CUFL",)}  # it aggregates by similarity
        for key, methods in rejected_by.items():
            for name in config.METHODS:
                overrides = [f"method={name}", f"{key}=2000"]
                if name in methods:
                    with pytest.raises(config.ConfigError, match=f"'{key}'"):
                        config.apply_overrides(base, overrides)
                    assert config.apply_overrides(base, [f"method={name}", f"{key}=1000"])
                else:
                    cfg = config.apply_overrides(base, overrides)
                    assert getattr(cfg.ies, key.split(".")[1]) == 2000

    def test_overlap_client_count_names_its_keys(self):
        from subfedsim import config
        base = config.ExperimentConfig()
        with pytest.raises(config.ConfigError) as exc:
            config.apply_overrides(base, ["partition.kind=overlap", "num_clients=3"])
        for key in ("'num_clients'", "partition.base_parts", "partition.copies_per_part"):
            assert key in str(exc.value)
        cfg = config.apply_overrides(base, ["partition.kind=overlap", "num_clients=6",
                                            "partition.copies_per_part=3"])
        assert cfg.num_clients == 6

    @pytest.mark.parametrize("section", ["dataset", "reference"])
    def test_ba_needs_more_nodes_than_m(self, tmp_path, capsys, section):
        cfg = write_cfg(tmp_path)
        assert run_cli("run", "--config", cfg, "--set", f"{section}.kind=ba",
                       "--set", f"{section}.n=2", "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{section}.n'" in err and "ba" in err
        assert not (tmp_path / "x").exists()
        from subfedsim import config
        assert config.apply_overrides(config.ExperimentConfig(),
                                      [f"{section}.kind=ba", f"{section}.n=3"])

    def test_ba_reference_bound_follows_the_method(self):
        from subfedsim import config
        base = config.ExperimentConfig()
        for name in config.METHODS:
            overrides = [f"method={name}", "reference.kind=ba", "reference.n=2"]
            if name == "CUFL":  # the method that builds the reference graph
                with pytest.raises(config.ConfigError, match="'reference.n'"):
                    config.apply_overrides(base, overrides)
            else:
                assert config.apply_overrides(base, overrides).reference.n == 2

    def test_int_and_float_spellings_echo_alike(self):
        from subfedsim import config
        base = config.ExperimentConfig()
        as_int = config.apply_overrides(base, ["fed.tau=5", "model.lr=1", "ies.gamma=0"])
        as_float = config.apply_overrides(base, ["fed.tau=5.0", "model.lr=1.0",
                                                 "ies.gamma=0.0"])
        assert config.to_dict(as_int) == config.to_dict(as_float)
        assert json.dumps(config.to_dict(as_int)) == json.dumps(config.to_dict(as_float))
        assert isinstance(as_int.fed.tau, float) and isinstance(as_int.model.hidden, int)

    def test_apply_overrides_leaves_its_input_unchanged(self):
        from subfedsim import config
        base = config.ExperimentConfig()
        base.fed.tau = 7  # an int, as a config built in code may hold
        before = config.to_dict(base)
        cfg = config.apply_overrides(base, ["fed.beta=0.5", "model.hidden=8",
                                            "split_ratios=[1, 1, 1]"])
        assert (cfg.fed.beta, cfg.model.hidden, cfg.split_ratios) == (0.5, 8, (1.0, 1.0, 1.0))
        assert config.to_dict(base) == before and base.fed.tau == 7
        assert base.fed is not cfg.fed and base.model is not cfg.model

    @pytest.mark.parametrize("key", ["ies.lr_train", "split_ratios"])
    def test_validate_rejects_huge_int_built_in_code(self, key):
        from subfedsim import config
        cfg = config.ExperimentConfig()
        if key == "split_ratios":
            cfg.split_ratios = (10**400, 1, 1)
        else:
            cfg.ies.lr_train = 10**400
        with pytest.raises(config.ConfigError, match=f"'{key}' is too large for a float"):
            cfg.validate()

    def test_validate_does_not_convert(self):
        from subfedsim import config
        cfg = config.ExperimentConfig(split_ratios=[2, 4, 4])
        cfg.fed.tau = 5
        cfg.validate()
        assert cfg.split_ratios == [2, 4, 4] and cfg.fed.tau == 5 and type(cfg.fed.tau) is int

    def test_manifest_records_versions(self, tmp_path):
        out = tmp_path / "v"
        assert run_cli("run", "--config", write_cfg(tmp_path, rounds=0),
                       "--out", str(out)) == 0
        manifest = json.loads((out / "summary.json").read_text())["manifest"]
        assert manifest["tool_version"] == subfedsim.__version__
        assert manifest["versions"] == {"numpy": numpy.__version__,
                                        "scipy": scipy.__version__}

    def test_a_run_records_the_scipy_version_without_importing_scipy(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = str(tmp_path / "run")
        code = textwrap.dedent(f"""
            import json, sys
            sys.path.insert(0, {src!r})
            from subfedsim import cli
            assert cli.main(["run", "--set", "rounds=1", "--set", "num_clients=2",
                             "--out", {out!r}]) == 0
            with open({out!r} + "/summary.json") as f:
                versions = json.load(f)["manifest"]["versions"]
            print("scipy" in sys.modules, versions["scipy"])
        """)
        stdout = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120, check=True).stdout
        assert stdout.splitlines()[-1] == f"False {scipy.__version__}"

    def test_scipy_version_falls_back_to_the_package(self, monkeypatch):
        monkeypatch.setattr(gcn, "_scipy_file", lambda relpath: None)
        assert gcn.scipy_version() == scipy.__version__

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", "--config", str(bad),
                       "--out", str(tmp_path / "x")) == 1
        assert "invalid JSON" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    cfg = write_cfg(tmp)
    out = tmp / "run"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def fedavg_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze-fedavg")
    out = tmp / "run"
    assert run_cli("run", "--config", write_cfg(tmp, method="FedAvg"), "--out", str(out)) == 0
    return out


class TestAnalyze:
    @pytest.mark.parametrize("analysis, missing", [
        ("weight-proportion", "similarity_round_all.csv"),
        ("bin-match", "refrecon_round_1.csv"),
    ])
    def test_fedavg_run_names_the_missing_file_one_way(self, fedavg_run_dir, capsys,
                                                       analysis, missing):
        assert run_cli("analyze", analysis, str(fedavg_run_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{fedavg_run_dir / missing}: missing file" in err

    def test_learning_curve(self, run_dir, capsys):
        assert run_cli("analyze", "learning-curve", str(run_dir)) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "round,test_acc,client"
        assert len(lines) == 1 + 2 * 2  # rounds * clients

    def test_learning_curve_rejects_truncated_row(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "truncated"
        shutil.copytree(run_dir, bad)
        text = (bad / "metrics.csv").read_text()
        lineno = text.count("\n") + 2  # an empty line, which is skipped, then the row
        (bad / "metrics.csv").write_text(text + "\n1,1,0.5\n")
        assert run_cli("analyze", "learning-curve", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"metrics.csv:{lineno}: expected" in err

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace("\n", "\r\n").encode(),
        lambda text: b"\xef\xbb\xbf" + text.encode(),
    ], ids=["crlf", "bom"])
    def test_learning_curve_reads_crlf_and_bom_like_lf(self, run_dir, tmp_path, capsys,
                                                       encode):
        other = tmp_path / "other"
        shutil.copytree(run_dir, other)
        (other / "metrics.csv").write_bytes(encode((other / "metrics.csv").read_text()))
        assert run_cli("analyze", "learning-curve", str(run_dir)) == 0
        want = capsys.readouterr().out
        assert run_cli("analyze", "learning-curve", str(other)) == 0
        assert capsys.readouterr().out == want

    def test_bin_match_names_malformed_recon_line(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "bad-recon"
        shutil.copytree(run_dir, bad)
        (bad / "refrecon_round_1.csv").write_text("u,v,client_0,client_1\n0,1,0.5,abc\n")
        assert run_cli("analyze", "bin-match", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "refrecon_round_1.csv:2: " in err

    @pytest.mark.parametrize("header", ["u,v,weight", "u,v,client_0",
                                        "u,v,client_0,client_1,client_2",
                                        "u,v,client_1,client_0"])
    def test_bin_match_names_recon_header_of_other_clients(self, run_dir, tmp_path, capsys,
                                                           header):
        bad = tmp_path / "bad-header"
        shutil.copytree(run_dir, bad)
        path = bad / "refrecon_round_2.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header + "\n"] + lines[1:]))
        assert run_cli("analyze", "bin-match", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path}:1: expected header 'u,v,client_0,client_1'" in err

    def test_bin_match_names_malformed_summary(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "bad-summary"
        shutil.copytree(run_dir, bad)
        (bad / "summary.json").write_text("{\n")
        assert run_cli("analyze", "bin-match", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "summary.json: Expecting property name" in err

    @pytest.mark.parametrize("analysis", ["weight-proportion", "bin-match"])
    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"run"', "3"])
    def test_analyses_name_a_summary_that_is_not_an_object(self, run_dir, tmp_path, capsys,
                                                           analysis, text):
        bad = tmp_path / "not-an-object"
        shutil.copytree(run_dir, bad)
        (bad / "summary.json").write_text(text + "\n")
        assert run_cli("analyze", analysis, str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad / 'summary.json'} must hold a JSON object")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("value, message", [
        ("15", "must be null or a list of integers, got '15'"),
        (5, "must be null or a list of integers, got 5"),
        ([1.0, 2], "entries must be integers in 1..rounds=2, got [1.0]"),
        ([True, 2], "entries must be integers in 1..rounds=2, got [True]"),
        ([0, 2], "entries must be integers in 1..rounds=2, got [0]"),
        ([1, 3], "entries must be integers in 1..rounds=2, got [3]"),
    ], ids=["str", "int", "float-entry", "bool-entry", "round-0", "past-rounds"])
    def test_bin_match_names_bad_dump_rounds(self, run_dir, tmp_path, capsys, value,
                                             message):
        bad = tmp_path / "bad-dump-rounds"
        shutil.copytree(run_dir, bad)
        summary = json.loads((bad / "summary.json").read_text())
        summary["config"]["dump_rounds"] = value
        (bad / "summary.json").write_text(json.dumps(summary))
        assert run_cli("analyze", "bin-match", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad / 'summary.json'}: config.dump_rounds {message}\n"

    @pytest.mark.parametrize("key", ["rounds", "num_clients"])
    def test_bin_match_names_missing_config_key(self, run_dir, tmp_path, capsys, key):
        bad = tmp_path / "no-key"
        shutil.copytree(run_dir, bad)
        summary = json.loads((bad / "summary.json").read_text())
        del summary["config"][key]
        (bad / "summary.json").write_text(json.dumps(summary))
        assert run_cli("analyze", "bin-match", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"summary.json has no config.{key}" in err

    @pytest.mark.parametrize("value", ["2", 2.0, True], ids=["str", "float", "bool"])
    @pytest.mark.parametrize("key", ["rounds", "num_clients"])
    @pytest.mark.parametrize("analysis", ["weight-proportion", "bin-match"])
    def test_analyses_name_non_integer_config_key(self, run_dir, tmp_path, capsys,
                                                  analysis, key, value):
        bad = tmp_path / "non-integer"
        shutil.copytree(run_dir, bad)
        summary = json.loads((bad / "summary.json").read_text())
        summary["config"][key] = value
        (bad / "summary.json").write_text(json.dumps(summary))
        assert run_cli("analyze", analysis, str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad / 'summary.json'}: config.{key} must be an "
                                f"integer, got {value!r}\n")

    @pytest.mark.parametrize("value", [[[0, 1], [0, 1]], [0, "1"], [0.0, 1], [True, 0], "01"],
                             ids=["nested", "str-entry", "float-entry", "bool-entry", "str"])
    def test_weight_proportion_names_bad_clusters(self, run_dir, tmp_path, capsys, value):
        bad = tmp_path / "bad-clusters"
        shutil.copytree(run_dir, bad)
        summary = json.loads((bad / "summary.json").read_text())
        summary["clusters"] = value
        (bad / "summary.json").write_text(json.dumps(summary))
        assert run_cli("analyze", "weight-proportion", str(bad)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad / 'summary.json'}: clusters must be a list of "
                                f"integers, got {value!r}\n")

    def test_bin_match_names_both_recon_files_of_unequal_length(self, run_dir, tmp_path,
                                                                 capsys):
        bad = tmp_path / "short-recon"
        shutil.copytree(run_dir, bad)
        path = bad / "refrecon_round_2.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        assert run_cli("analyze", "bin-match", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "refrecon_round_1.csv has" in err
        assert "refrecon_round_2.csv has 2" in err

    def test_weight_proportion_names_ragged_matrix(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "ragged"
        shutil.copytree(run_dir, bad)
        (bad / "similarity_round_all.csv").write_text("1.0,0.5\n0.5,1.0\n1.0,0.5\n0.5\n")
        assert run_cli("analyze", "weight-proportion", str(bad)) == 1
        assert capsys.readouterr().err == (f"error: {bad / 'similarity_round_all.csv'}:4: "
                                           f"expected 2 fields, got 1\n")

    def test_weight_proportion_names_unparsable_field(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "unparsable"
        shutil.copytree(run_dir, bad)
        (bad / "similarity_round_all.csv").write_text("1.0,0.5\n0.5,1.0\n1.0,x\n0.5,1.0\n")
        assert run_cli("analyze", "weight-proportion", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad / 'similarity_round_all.csv'}:3: ")
        assert "'x'" in err

    # the run has 2 rounds of 2 clients: the stacked file holds two 2-row blocks
    @pytest.mark.parametrize("matrix, clusters, name, message", [
        ("1,0,0\n0,1,0\n0,0,1\n1,1,1\n", None, "similarity_round_all.csv",
         "round 1: a 2x3 matrix for 2 clustered clients"),
        ("1,0.5\n0.5,1\n" * 2, [0, 0, 1, 1], "summary.json",
         "clusters has 4 entries but config.num_clients is 2"),
        ("1,0\n0,1\n0,0\n0,0\n", None, "similarity_round_all.csv",
         "round 2: row 1 sums to 0.0"),
        ("1,0.5\n0.5,1\n" * 3, None, "similarity_round_all.csv",
         "6 rows, but config.rounds * config.num_clients is 4"),
        ("1,0.5\n0.5,1\n", None, "similarity_round_all.csv",
         "2 rows, but config.rounds * config.num_clients is 4"),
        ("", None, "similarity_round_all.csv",
         "0 rows, but config.rounds * config.num_clients is 4"),
    ], ids=["4x3", "2x2-for-4", "all-zero", "extra-round", "missing-round", "empty"])
    def test_weight_proportion_names_malformed_matrix(self, run_dir, tmp_path, capsys,
                                                      matrix, clusters, name, message):
        bad = tmp_path / "malformed"
        shutil.copytree(run_dir, bad)
        if clusters is not None:
            summary = json.loads((bad / "summary.json").read_text())
            summary["clusters"] = clusters
            (bad / "summary.json").write_text(json.dumps(summary))
        (bad / "similarity_round_all.csv").write_text(matrix)
        assert run_cli("analyze", "weight-proportion", str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{bad / name}: {message}" in err

    def test_weight_proportion_to_file(self, run_dir, tmp_path):
        dest = tmp_path / "prop.csv"
        assert run_cli("analyze", "weight-proportion", str(run_dir),
                       "--out", str(dest)) == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "round,proportion"
        assert len(lines) == 3
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[1]) <= 1.0

    def test_bin_match(self, run_dir, capsys):
        assert run_cli("analyze", "bin-match", str(run_dir)) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "bin,ratio,client"
        assert len(lines) == 1 + 5 * 2  # bins * clients

    def test_bin_match_uses_earliest_and_latest_dump_rounds(self, tmp_path, capsys):
        recon = {1: [-0.9, -0.9, 0.9], 2: [-0.9, 0.9, 0.9]}
        outputs = []
        for name, dump_rounds in (("sorted", [1, 2]), ("reversed", [2, 1])):
            run = tmp_path / name
            run.mkdir()
            (run / "summary.json").write_text(json.dumps(
                {"config": {"rounds": 2, "num_clients": 1, "dump_rounds": dump_rounds}}))
            for t, values in recon.items():
                rows = "".join(f"{i},{i + 1},{v!r}\n" for i, v in enumerate(values))
                (run / f"refrecon_round_{t}.csv").write_text("u,v,client_0\n" + rows)
            assert run_cli("analyze", "bin-match", str(run)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1:] == ["0,0.5,0", "1,,0", "2,,0", "3,,0", "4,1.0,0"]

    def test_bin_match_reads_column_k_for_client_k(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "summary.json").write_text(json.dumps(
            {"config": {"rounds": 2, "num_clients": 2, "dump_rounds": None}}))
        recon = {1: [(-0.9, 0.9), (-0.9, 0.9)], 2: [(-0.9, 0.9), (0.9, 0.9)]}
        for t, rows in recon.items():
            (run / f"refrecon_round_{t}.csv").write_text("u,v,client_0,client_1\n" + "".join(
                f"{i},{i + 1},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows)))
        assert run_cli("analyze", "bin-match", str(run)) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines == ["0,0.5,0", "1,,0", "2,,0", "3,,0", "4,,0",
                         "0,,1", "1,,1", "2,,1", "3,,1", "4,1.0,1"]

    @pytest.mark.parametrize("dump_rounds", [[], [2], [1, 1]], ids=["[]", "[2]", "[1,1]"])
    def test_bin_match_needs_two_distinct_dump_rounds(self, tmp_path, capsys, dump_rounds):
        run = tmp_path / "run"
        run.mkdir()
        (run / "summary.json").write_text(json.dumps(
            {"config": {"rounds": 2, "num_clients": 1, "dump_rounds": dump_rounds}}))
        for t in (1, 2):
            (run / f"refrecon_round_{t}.csv").write_text("u,v,client_0\n0,1,0.5\n")
        assert run_cli("analyze", "bin-match", str(run)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{run / 'summary.json'}: config.dump_rounds" in err

    def test_bin_match_on_a_run_without_dumps(self, tmp_path, capsys):
        out = tmp_path / "nodump"
        assert run_cli("run", "--config", write_cfg(tmp_path, dump_rounds=[]),
                       "--out", str(out)) == 0
        assert not list(out.glob("refrecon_*")) and not list(out.glob("mask_*"))
        assert run_cli("analyze", "bin-match", str(out)) == 1
        err = capsys.readouterr().err
        assert "config.dump_rounds" in err and "missing file" not in err

    def test_missing_artifact_errors(self, tmp_path, capsys):
        empty = tmp_path / "not-a-run"
        empty.mkdir()
        assert run_cli("analyze", "learning-curve", str(empty)) == 1
        assert "error:" in capsys.readouterr().err
