"""Experiment harness: grids, determinism, outputs."""

import csv
import io
import json
from dataclasses import asdict

import pytest

from jtscd.bench import (ExperimentConfig, compare_variants, realization_seeds, rows_to_csv,
                         run_experiment)


def tiny_config(**overrides):
    base = dict(t_values=[30], m_values=[4], frac_observed_values=[0.5],
                variants=["jpcmci+", "pcmci+"], n_realizations=2,
                n_system=3, n_temporal_ctx=1, n_spatial_ctx=1,
                tau_max=2, alpha=0.05, ci_test="oracle", max_model_lag=2,
                burn_in=20, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_json(json.dumps(asdict(cfg)))
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(t_values=[]).validate()
        with pytest.raises(ValueError):
            tiny_config(t_values=[2]).validate()
        with pytest.raises(ValueError):
            tiny_config(variants=["bogus"]).validate()
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(json.dumps({"nope": 1}))

    @pytest.mark.parametrize("override, message", [
        (dict(alpha=1.5), "alpha must lie in"),
        (dict(alpha=0.0), "alpha must lie in"),
        (dict(n_realizations=0), "n_realizations must be positive"),
        (dict(ci_test="foo"), "unknown CI test 'foo'"),
        (dict(frac_observed_values=[0.5, 2.0]), "frac_observed values must lie in"),
        (dict(frac_observed_values=[-0.1]), "frac_observed values must lie in"),
        (dict(m_values=[4, 0]), "M values must be positive"),
        (dict(variants=[]), "need at least one variant"),
        (dict(tau_max=0), "tau_max must be at least 1"),
        (dict(max_model_lag=0), "max_model_lag must be at least 1"),
        (dict(burn_in=-5), "burn_in must be non-negative"),
        (dict(n_system=0), "n_system must be positive"),
        (dict(n_temporal_ctx=-1), "context counts must be non-negative"),
        (dict(n_spatial_ctx=-1), "context counts must be non-negative"),
    ])
    def test_out_of_range_values_are_refused(self, override, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**override).validate()
        text = json.dumps({**asdict(tiny_config()), **override})
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(text)

    def test_realization_seeds_depend_only_on_coordinates(self):
        a = realization_seeds(3, 2, 5)
        b = realization_seeds(3, 2, 5)
        assert a == b
        assert realization_seeds(3, 2, 6) != a
        assert realization_seeds(3, 1, 5) != a


class TestRunExperiment:
    def test_oracle_cell_is_perfect_for_jpcmci(self):
        rows, failures = run_experiment(tiny_config())
        assert not failures
        j_rows = {((r["class"], r["metric"])): r for r in rows
                  if r["variant"] == "jpcmci+"}
        assert j_rows[("SystemSystem", "tpr")]["mean"] == 1.0
        assert j_rows[("SystemSystem", "fpr")]["mean"] == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("results.csv", "summary.md"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        svgs_a = sorted(p.name for p in (tmp_path / "a").glob("*.svg"))
        svgs_b = sorted(p.name for p in (tmp_path / "b").glob("*.svg"))
        assert svgs_a == svgs_b
        for name in svgs_a:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = tiny_config(t_values=[20, 30])
        rows_serial, _ = run_experiment(cfg)
        rows_par, _ = run_experiment(cfg, workers=2)
        assert rows_serial == rows_par

    def test_csv_round_trip(self):
        rows, _ = run_experiment(tiny_config())
        text = rows_to_csv(rows)
        again = list(csv.DictReader(io.StringIO(text)))
        assert len(again) == len(rows)
        for a, b in zip(again, rows):
            assert a["variant"] == b["variant"]
            assert abs(float(a["mean"]) - b["mean"]) < 1e-9

    def test_compare_variants_table(self):
        rows, _ = run_experiment(tiny_config())
        md = compare_variants(rows)
        assert "# Variant comparison" in md
        assert "jpcmci+" in md and "pcmci+" in md
        assert "| SystemSystem | tpr" in md

    def test_heatmap_written_for_2d_grid(self, tmp_path):
        cfg = tiny_config(t_values=[20, 30], m_values=[3, 4],
                          variants=["jpcmci+"], n_realizations=1)
        run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "fpr_surface_jpcmciplus.svg").exists()

    def test_failures_recorded_not_raised(self, tmp_path):
        # T barely above tau_max starves the CI tests into QueryErrors
        cfg = tiny_config(ci_test="parcorr", t_values=[4], m_values=[1],
                          burn_in=5, n_realizations=1)
        rows, failures = run_experiment(cfg, out_dir=tmp_path)
        assert failures
        assert (tmp_path / "failures.json").exists()
