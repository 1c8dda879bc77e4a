"""Command-line interface round trips."""

import json
import re

import pytest

from jtscd import discovery
from jtscd.cli import main
from jtscd.graph import TimeSeriesGraph, dummy_deletion, target_graph
from jtscd.graph import GroundTruthGraph


def write_sim_config(path, **overrides):
    cfg = {"n_system": 3, "n_temporal_ctx": 1, "n_spatial_ctx": 1,
           "frac_observed": 1.0, "M": 4, "T": 40, "seed": 5, "max_lag": 2,
           "burn_in": 20}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestSimulate:
    def test_writes_datasets_and_ground_truth(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_sim_config(cfg_path)
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert (out / "meta.json").exists()
        assert (out / "data_000.csv").exists()
        assert (out / "ground_truth.txt").exists()
        GroundTruthGraph.from_text((out / "ground_truth.txt").read_text())

    def test_preset_mode(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "simplified", "M": 3,
                                        "T": 30, "burn_in": 10, "seed": 1}))
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_system"] == 2
        assert meta["observed_mask"] == [True, False, True, False]

    @pytest.mark.parametrize("extra, message", [
        ({"n_sytem": 3}, r"unknown config keys: \['n_sytem'\]"),
        ({"preset": "simplfied"}, "unknown preset 'simplfied'"),
        ({"max_lag": 0}, "a lagged model needs max_lag >= 1"),
        ({"n_spatial_ctx": -1}, "context counts must be non-negative"),
        ({"burn_in": -5}, "burn_in must be non-negative"),
        ({"M": 0}, "M=0 must be at least 1"),
        # value types are checked before any draw; a string is the whole config
        ({"M": "a"}, "M='a' must be an integer"),
        ({"M": True}, "M=True must be an integer"),
        ({"T": 2.5}, r"T=2\.5 must be an integer"),
        ({"n_system": 2.0}, r"n_system=2\.0 must be an integer"),
        ({"seed": 1.5}, r"seed=1\.5 must be a non-negative integer"),
        ({"seed": -1}, "seed=-1 must be a non-negative integer"),
        ({"data_seed": "x"}, "data_seed='x' must be a non-negative integer"),
        ({"frac_observed": "0.5"}, r"frac_observed='0\.5' must be a number"),
        ({"lag_free": "no", "n_temporal_ctx": 0}, "lag_free='no' must be true or false"),
        ('{"preset": "simplified", "n_system": 7}',
         r"model keys \['n_system'\] do not apply to a preset"),
        ("[1, 2]", "the config must be a JSON object of config keys"),
    ])
    def test_malformed_config_is_refused(self, tmp_path, capsys, extra, message):
        cfg_path = tmp_path / "cfg.json"
        if isinstance(extra, str):
            cfg_path.write_text(extra)
        else:
            write_sim_config(cfg_path, **extra)
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"jtscd simulate: error: {message}\n", err), err
        assert not out.exists()


class TestDiscover:
    def test_oracle_discovery_recovers_target(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_sim_config(cfg_path)
        data = tmp_path / "data"
        main(["simulate", "--config", str(cfg_path), "--out", str(data)])
        graph_out = tmp_path / "graph.txt"
        assert main(["discover", "--data", str(data), "--ci", "oracle",
                     "--tau-max", "2", "--out", str(graph_out)]) == 0
        est = TimeSeriesGraph.from_text(graph_out.read_text())
        truth = GroundTruthGraph.from_text(
            (data / "ground_truth.txt").read_text())
        tgt = target_graph(truth)
        est_adj = {(i, j, t) for (i, j, t, _) in dummy_deletion(est).edges()}
        tgt_adj = {(i, j, t) for (i, j, t, _) in tgt.edges()}
        assert est_adj == tgt_adj

    def test_dump_pooled_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_sim_config(cfg_path, M=2, T=20)
        data = tmp_path / "data"
        main(["simulate", "--config", str(cfg_path), "--out", str(data)])
        pooled_csv = tmp_path / "pooled.csv"
        main(["discover", "--data", str(data), "--ci", "oracle",
              "--dump-pooled", str(pooled_csv), "--out",
              str(tmp_path / "g.txt")])
        lines = pooled_csv.read_text().splitlines()
        assert lines[0].startswith("dataset,t,System0")
        assert len(lines) == 2 * (20 - 2) + 1

    @pytest.mark.parametrize("flags, n_rows", [
        ((), 3 * (20 - 2)),
        (("--tau-max", "0"), 3 * 20),
        (("--tau-max", "0", "--variant", "pcmci+"), 3 * 20),
        (("--variant", "pcmci+D"), 3 * (20 - 2)),
        # refused: a discovery at tau_max 10 asks lags up to 20, and T is 20
        (("--tau-max", "10"), None),
    ])
    def test_dump_pooled_writes_the_rows_discovery_tests_on(self, tmp_path, flags, n_rows):
        write_sim_config(tmp_path / "cfg.json", M=3, T=20)
        data = tmp_path / "data"
        main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(data)])
        pooled_csv = tmp_path / "pooled.csv"
        status = main(["discover", "--data", str(data), *flags, "--dump-pooled",
                       str(pooled_csv), "--out", str(tmp_path / "g.txt")])
        if n_rows is None:
            assert status == 2 and not pooled_csv.exists()
            return
        assert status == 0
        lines = pooled_csv.read_text().splitlines()
        assert len(lines) == n_rows + 1
        # the variants that see no contexts test on no context column
        sees_contexts = not {"pcmci+", "pcmci+D"} & set(flags)
        header = lines[0].split(",")
        assert any(c.startswith("TemporalContext") for c in header) == sees_contexts
        assert any(c.startswith("SpatialContext") for c in header) == sees_contexts
        # the dummies are the dataset and t labels, written once
        assert header[:2] == ["dataset", "t"] and not any("Dummy" in c for c in header)

    def test_stdout_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_sim_config(cfg_path, M=2, T=25)
        data = tmp_path / "data"
        main(["simulate", "--config", str(cfg_path), "--out", str(data)])
        capsys.readouterr()
        main(["discover", "--data", str(data), "--ci", "oracle"])
        out = capsys.readouterr().out
        assert out.startswith("graph ")

    @pytest.mark.parametrize("flags, message", [
        (("--alpha", "2"), r"alpha=2\.0 must lie in \[0, 1\]"),
        (("--alpha", "-0.5", "--tau-max", "0"), r"alpha=-0\.5 must lie in \[0, 1\]"),
        (("--alpha", "nan", "--variant", "pcmci+"), r"alpha=nan must lie in \[0, 1\]"),
    ])
    def test_malformed_request_is_refused(self, tmp_path, capsys, flags, message):
        write_sim_config(tmp_path / "cfg.json", M=2, T=25)
        data = tmp_path / "data"
        main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(data)])
        capsys.readouterr()
        out = tmp_path / "g.txt"
        assert main(["discover", "--data", str(data), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"jtscd discover: error: {message}\n", err), err
        assert not out.exists()

    def test_data_too_short_for_a_test_is_one_error_line(self, tmp_path, capsys):
        # T=5 passes ParCorr's T > 2 * tau_max, but the first lagged test has
        # 3 rows: the refusal that names it reaches the user, not a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_system": 4, "M": 1, "T": 5, "seed": 3, "max_lag": 2}))
        data, out = tmp_path / "data", tmp_path / "g.txt"
        main(["simulate", "--config", str(cfg), "--out", str(data)])
        capsys.readouterr()
        assert main(["discover", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("jtscd discover: error: too few samples: n=3 with 0 conditioning "
                       "columns (query x=(0, 1) y=(0, 0) z=())\n"), err
        assert not out.exists()

    def test_variant_switch(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_sim_config(cfg_path, M=3, T=30)
        data = tmp_path / "data"
        main(["simulate", "--config", str(cfg_path), "--out", str(data)])
        out = tmp_path / "g.txt"
        assert main(["discover", "--data", str(data), "--ci", "oracle",
                     "--variant", "pcmci+", "--out", str(out)]) == 0
        est = TimeSeriesGraph.from_text(out.read_text())
        assert all(r.value == "System" for r in est.roles)


class TestUnreadableInput:
    @pytest.mark.parametrize("command, meta, message", [
        ("discover", None, r"\[Errno 2\] No such file or directory: '.*missing/meta\.json'"),
        ("simulate", None, r"\[Errno 2\] No such file or directory: '.*missing'"),
        ("bench", None, r"\[Errno 2\] No such file or directory: '.*missing'"),
        ("discover", {"observed_mask": None}, r".*data/meta\.json has no 'observed_mask'"),
        ("discover", {"M": "a"}, r".*data/meta\.json: M='a' must be a non-negative integer"),
    ], ids=["discover", "simulate", "bench", "meta-key", "meta-count"])
    def test_is_one_error_line(self, tmp_path, capsys, command, meta, message):
        # a missing file or a malformed meta.json, not a traceback
        source, out = tmp_path / "missing", tmp_path / "out"
        if meta is not None:  # a simulated directory, meta.json edited (None drops a key)
            source = tmp_path / "data"
            write_sim_config(tmp_path / "cfg.json")
            main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(source)])
            fields = {**json.loads((source / "meta.json").read_text()), **meta}
            (source / "meta.json").write_text(
                json.dumps({k: v for k, v in fields.items() if v is not None}))
        flag = "--data" if command == "discover" else "--config"
        capsys.readouterr()
        assert main([command, flag, str(source), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"jtscd {command}: error: {message}\n", err), err
        assert not out.exists()

    def test_a_cell_that_is_not_a_number_is_named(self, tmp_path, capsys):
        # the file, the data row and the column header, not float()'s bare message
        data, out = tmp_path / "data", tmp_path / "g.txt"
        write_sim_config(tmp_path / "cfg.json")
        main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(data)])
        lines = (data / "data_001.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = "abc"
        lines[4] = ",".join(cells)
        (data / "data_001.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["discover", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("jtscd discover: error: data_001.csv data row 3, column 'X1': "
                       "'abc' is not a number\n")
        assert not out.exists()

    @pytest.mark.parametrize("mask", ["ab", ["yes", "no"], [1, 0], None],
                             ids=["string", "strings", "integers", "null"])
    def test_observed_mask_must_be_a_list_of_booleans(self, tmp_path, capsys, mask):
        data, out = tmp_path / "data", tmp_path / "g.txt"
        write_sim_config(tmp_path / "cfg.json")
        main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(data)])
        meta = json.loads((data / "meta.json").read_text())
        (data / "meta.json").write_text(json.dumps({**meta, "observed_mask": mask}))
        capsys.readouterr()
        assert main(["discover", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"jtscd discover: error: .*data/meta\.json: observed_mask=.* "
                            r"must be a list of true/false values\n", err), err
        assert not out.exists()


class TestBenchCLI:
    def bench_config(self, path, **overrides):
        cfg = {"t_values": [30], "m_values": [4],
               "frac_observed_values": [0.5],
               "variants": ["jpcmci+"], "n_realizations": 2, "n_system": 3,
               "n_temporal_ctx": 1, "n_spatial_ctx": 1, "tau_max": 2,
               "alpha": 0.05, "ci_test": "oracle", "max_model_lag": 2,
               "burn_in": 20, "master_seed": 3, **overrides}
        path.write_text(json.dumps(cfg))

    def test_bench_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        self.bench_config(cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(cfg_path),
                     "--out", str(out_a)]) == 0
        assert main(["bench", "--config", str(cfg_path),
                     "--out", str(out_b), "--workers", "2"]) == 0
        assert ((out_a / "results.csv").read_bytes()
                == (out_b / "results.csv").read_bytes())
        assert (out_a / "summary.md").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"t_values": 30}, r"t_values=30 must be a list of integers"),
        ({"m_values": ["a"]}, r"m_values=\['a'\] must be a list of integers"),
        ({"alpha": "x"}, r"alpha must lie in \(0, 1\)"),
        ({"n_realizations": 1.5}, r"n_realizations=1\.5 must be an integer"),
        ({"variants": ["pcmci+", "pcmci+"]},
         r"variants=\['pcmci\+', 'pcmci\+'\] repeat a value"),
        ({"t_values": [30, 30]}, r"t_values=\[30, 30\] repeat a value"),
        ({"m_values": [4, 2, 4]}, r"m_values=\[4, 2, 4\] repeat a value"),
        ({"frac_observed_values": [0.5, 0.5]},
         r"frac_observed_values=\[0\.5, 0\.5\] repeat a value"),
        (None, r"the config must be a JSON object of config keys"),
    ], ids=["t_values", "m_values", "alpha", "n_realizations", "variants", "repeated T",
            "repeated M", "repeated frac_observed", "array"])
    def test_malformed_config_value_is_named(self, tmp_path, capsys, overrides, message):
        cfg_path = tmp_path / "bench.json"
        if overrides is None:
            cfg_path.write_text("[1, 2]")
        else:
            self.bench_config(cfg_path, **overrides)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"jtscd bench: error: {message}\n", err), err
        assert not out.exists()

    def test_failed_realizations_exit_1_and_are_written(self, tmp_path, capsys,
                                                        monkeypatch):
        # a realization that raises is recorded and the sweep goes on
        def failing(*args, **kwargs):
            raise RuntimeError("discovery failed")

        monkeypatch.setattr(discovery, "estimate_graph", failing)
        cfg_path = tmp_path / "bench.json"
        self.bench_config(cfg_path)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "2 cell realizations failed (see failures.json)\n", err
        failures = json.loads((out / "failures.json").read_text())
        assert failures == [{"cell": [30, 4, 0.5], "realization": r,
                             "error": "discovery failed"} for r in range(2)]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_refused(self, tmp_path, capsys, workers):
        cfg_path = tmp_path / "bench.json"
        self.bench_config(cfg_path)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err == f"jtscd bench: error: --workers={workers} must be at least 1\n", err
        assert not out.exists()

    def test_malformed_config_is_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        self.bench_config(cfg_path, alpha=1.5)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("jtscd bench: error: alpha must lie in"), err
        assert err.count("\n") == 1
        assert not out.exists()
