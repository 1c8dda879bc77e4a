"""Experiment harness: grids, determinism, outputs."""

import csv
import io
import json
import re
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
        (dict(frac_observed_values=[True]),
         r"frac_observed_values=\[True\] must be a list of numbers"),
        (dict(ci_test="parcorr", t_values=[30, 4]),
         r"T=4 is too short for tau_max=2: ParCorr needs T > 2 \* tau_max"),
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

    def test_plots_keep_grid_cells_apart(self, tmp_path):
        # T on the x axis: one curve per variant, M and frac_observed value,
        # and one heat map per variant and frac_observed value
        cfg = tiny_config(t_values=[20, 30], m_values=[3, 4],
                          frac_observed_values=[0.0, 1.0], n_realizations=1)
        run_experiment(cfg, out_dir=tmp_path)
        charts = [p for p in tmp_path.glob("*.svg") if not p.name.startswith("fpr_surface_")]
        for chart in charts:
            lines = re.findall(r'<polyline points="([^"]*)"', chart.read_text())
            assert lines and all(len(pts.split()) == len(cfg.t_values) for pts in lines)
        lines = re.findall("<polyline", (tmp_path / "SystemSystem_fpr.svg").read_text())
        assert len(lines) == 8
        surfaces = sorted(p.name for p in tmp_path.glob("fpr_surface_*.svg"))
        assert surfaces == [f"fpr_surface_{v}_frac{f}.svg"
                            for v in ("jpcmciplus", "pcmciplus") for f in (0, 1)]
        for name in surfaces:
            assert (tmp_path / name).read_text().count("<rect x=") == 4

    def test_frac_observed_on_the_x_axis_when_only_it_varies(self, tmp_path):
        # neither T nor M varies: one curve per variant over frac_observed,
        # with a point at every frac_observed value its class was scored at
        # (no context class at 0.0, where every context is latent)
        cfg = tiny_config(frac_observed_values=[0.0, 0.5, 1.0], n_realizations=1)
        rows, _ = run_experiment(cfg, out_dir=tmp_path)
        charts = list(tmp_path.glob("*.svg"))
        assert charts and not any(p.name.startswith("fpr_surface_") for p in charts)
        for chart in charts:
            cls = chart.name.split("_")[0]
            scored = {(r["variant"], r["frac_observed"]) for r in rows if r["class"] == cls}
            text = chart.read_text()
            lines = re.findall(r'<polyline points="([^"]*)"', text)
            assert sorted(len(pts.split()) for pts in lines) == sorted(
                sum(v == variant for v, _ in scored) for variant in {v for v, _ in scored})
            if cls == "SystemSystem":
                assert [len(pts.split()) for pts in lines] == [3] * len(cfg.variants)
            assert "fraction of contexts observed" in text

    def test_failures_recorded_not_raised(self, tmp_path):
        # T=5 passes ParCorr's T > 2 * tau_max, and the first lagged test,
        # on 3 rows, is refused by name
        cfg = tiny_config(ci_test="parcorr", t_values=[5], m_values=[1],
                          burn_in=5, n_realizations=1)
        rows, failures = run_experiment(cfg, out_dir=tmp_path)
        assert failures
        assert (tmp_path / "failures.json").exists()
