"""Model generation, simulation semantics, and the fixed preset."""

import numpy as np
import pytest

from jtscd.graph import VariableRole
from jtscd.scm import (DatasetCollection, GenerationError, LinearTerm,
                       NonFiniteDataError, SCMSpec, generate_random_model, simplified_preset, simulate,
                       spectral_radius)

R = VariableRole


class TestGenerateRandomModel:
    def test_seeded_determinism(self):
        a, ga = generate_random_model(seed=42)
        b, gb = generate_random_model(seed=42)
        assert a == b
        assert ga == gb

    def test_frac_observed_one_means_all_observed(self):
        spec, _ = generate_random_model(frac_observed=1.0, seed=0)
        assert all(spec.observed_mask)

    def test_frac_observed_rounds_up(self):
        spec, _ = generate_random_model(n_temporal_ctx=2, n_spatial_ctx=1,
                                        frac_observed=0.5, seed=1)
        assert sum(spec.observed_mask) == 2  # ceil(1.5)

    def test_at_most_one_context_parent_per_system_variable(self):
        for seed in range(20):
            spec, _ = generate_random_model(seed=seed)
            for terms in spec.terms:
                n_ctx_parents = sum(t.var >= spec.n_system for t in terms)
                assert n_ctx_parents <= 1

    def test_autocorrelation_range(self):
        spec, _ = generate_random_model(seed=3)
        assert all(0.3 <= a <= 0.8 for a in spec.autocorr)

    def test_coefficient_magnitude_range(self):
        for seed in range(10):
            spec, _ = generate_random_model(seed=seed)
            for terms in spec.terms:
                for t in terms:
                    assert 0.5 <= abs(t.coeff) <= 0.9

    def test_stability_enforced(self):
        for seed in range(20):
            spec, _ = generate_random_model(seed=seed)
            assert spectral_radius(spec) < 0.95

    def test_generation_error_when_impossible(self):
        with pytest.raises(GenerationError):
            generate_random_model(seed=0, stability_radius=1e-6, max_attempts=5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            generate_random_model(n_system=0)
        with pytest.raises(ValueError):
            generate_random_model(frac_observed=1.5)
        with pytest.raises(ValueError):
            generate_random_model(lag_free=True, n_temporal_ctx=1)

    def test_lag_free_models_have_no_lags(self):
        spec, g = generate_random_model(n_temporal_ctx=0, n_spatial_ctx=2,
                                        lag_free=True, seed=7)
        assert all(a == 0.0 for a in spec.autocorr)
        assert all(t.lag == 0 for terms in spec.terms for t in terms)
        assert all(tau == 0 for (_, _, tau) in g.directed_edges())

    def test_graph_round_trips_spec_structure(self):
        spec, g = generate_random_model(seed=9, max_lag=2)
        expected = set()
        for i in range(spec.n_system):
            if spec.autocorr[i] != 0.0:
                expected.add((i, i, 1))
            for t in spec.terms[i]:
                expected.add((t.var, i, t.lag))
        assert set(g.directed_edges()) == expected

    def test_contexts_are_exogenous(self):
        for seed in range(10):
            spec, g = generate_random_model(seed=seed)
            for (_, child, _) in g.directed_edges():
                assert g.roles[child].is_system


class TestSimulate:
    def test_seeded_reproducibility(self):
        spec, _ = generate_random_model(seed=4, max_lag=2)
        a = simulate(spec, M=3, T=40, seed=5)
        b = simulate(spec, M=3, T=40, seed=5)
        assert np.array_equal(a.system, b.system)
        assert np.array_equal(a.temporal_ctx, b.temporal_ctx)
        assert np.array_equal(a.spatial_ctx, b.spatial_ctx)

    def test_pooled_variance_is_one(self):
        spec, _ = generate_random_model(seed=6, max_lag=2)
        dc = simulate(spec, M=4, T=60, seed=7)
        pooled = dc.system.reshape(-1, dc.n_system)
        assert np.allclose(pooled.var(axis=0), 1.0, atol=1e-12)

    def test_white_noise_spec(self):
        spec = SCMSpec(n_system=2, n_temporal_ctx=0, n_spatial_ctx=0,
                       autocorr=(0.0, 0.0), terms=((), ()),
                       noise_std=(1.0, 1.0), observed_mask=())
        dc = simulate(spec, M=3, T=50, seed=1)
        pooled = dc.system.reshape(-1, 2)
        assert np.allclose(pooled.var(axis=0), 1.0, atol=1e-12)
        # the rescaled series is exactly the rescaled noise
        assert np.allclose(dc.system * dc.system_scale, dc.noise, atol=1e-12)

    def test_temporal_context_shared_and_spatial_constant(self):
        spec, _ = generate_random_model(seed=8, max_lag=2)
        dc = simulate(spec, M=5, T=30, seed=9)
        assert dc.temporal_ctx.shape == (30, spec.n_temporal_ctx)
        assert dc.spatial_ctx.shape == (5, spec.n_spatial_ctx)

    def test_preset_assignment_reconstructed_exactly(self):
        spec, _ = simplified_preset()
        dc = simulate(spec, M=2, T=30, burn_in=50, seed=13)
        raw_x = dc.system * dc.system_scale
        raw_ct = dc.temporal_ctx * dc.temporal_scale
        raw_cs = dc.spatial_ctx * dc.spatial_scale
        for m in range(2):
            for t in range(1, 30):
                x0 = (0.5 * raw_x[m, t, 1]
                      + 0.5 * raw_cs[m, 0] + 0.5 * raw_cs[m, 1]
                      + 0.5 * raw_ct[t - 1, 0] + 0.5 * raw_ct[t - 1, 1]
                      + dc.noise[m, t, 0])
                assert abs(raw_x[m, t, 0] - x0) < 1e-10
                x1 = (0.5 * raw_x[m, t - 1, 1]
                      + 0.5 * raw_cs[m, 0] + 0.5 * raw_cs[m, 1]
                      + 0.5 * raw_ct[t - 1, 0] + 0.5 * raw_ct[t - 1, 1]
                      + dc.noise[m, t, 1])
                assert abs(raw_x[m, t, 1] - x1) < 1e-10

    def test_preset_regression_recovers_coefficients(self):
        spec, _ = simplified_preset()
        dc = simulate(spec, M=50, T=200, seed=21)
        raw_x = dc.system * dc.system_scale
        raw_ct = dc.temporal_ctx * dc.temporal_scale
        raw_cs = dc.spatial_ctx * dc.spatial_scale
        rows = []
        y = []
        for m in range(50):
            for t in range(1, 200):
                rows.append([raw_x[m, t, 1], raw_cs[m, 0], raw_cs[m, 1],
                             raw_ct[t - 1, 0], raw_ct[t - 1, 1]])
                y.append(raw_x[m, t, 0])
        beta, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(y), rcond=None)
        assert np.all(np.abs(beta - 0.5) < 0.05)

    def test_too_short_series_rejected(self):
        spec, _ = generate_random_model(seed=1, max_lag=3)
        with pytest.raises(ValueError):
            simulate(spec, M=2, T=spec.max_lag, seed=0)


class TestSimplifiedPreset:
    def test_structure(self):
        spec, g = simplified_preset()
        assert spec.n_system == 2
        assert spec.observed_mask == (True, False, True, False)
        # temporal contexts enter both system variables at lag 1
        assert g.has_link(2, 0, 1) and g.has_link(2, 1, 1)
        assert g.has_link(3, 0, 1) and g.has_link(3, 1, 1)
        # X0 has the contemporaneous parent X1; X1 is autocorrelated
        assert g.mark(1, 0, 0) == "-->"
        assert g.has_link(1, 1, 1)
        assert spec.autocorr == (0.0, 0.5)

    def test_roles(self):
        spec, g = simplified_preset()
        assert g.roles == (R.SYSTEM, R.SYSTEM, R.TEMPORAL_CONTEXT,
                           R.LATENT_TEMPORAL_CONTEXT, R.SPATIAL_CONTEXT,
                           R.LATENT_SPATIAL_CONTEXT)


class TestSerialization:
    def test_spec_dict_round_trip(self):
        spec, _ = generate_random_model(seed=11)
        again = SCMSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_collection_dir_round_trip(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        dc = simulate(spec, M=3, T=25, seed=13)
        dc.to_dir(tmp_path / "out", spec=spec, seed=12)
        again = DatasetCollection.from_dir(tmp_path / "out")
        assert np.allclose(again.system, dc.system)
        assert np.allclose(again.temporal_ctx, dc.temporal_ctx)
        assert np.allclose(again.spatial_ctx, dc.spatial_ctx)
        assert again.observed_mask == dc.observed_mask

    def test_from_dir_rejects_non_finite_values(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        simulate(spec, M=2, T=10, seed=13).to_dir(tmp_path, spec=spec)
        path = tmp_path / "data_001.csv"
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = "nan"
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteDataError, match=r"system .*\(1, 3, 1\)"):
            DatasetCollection.from_dir(tmp_path)

    @staticmethod
    def _edit_cell(path, line, column, value):
        lines = path.read_text().splitlines()
        cells = lines[line].split(",")
        if value is None:
            del cells[column]
        else:
            cells[column] = value
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_from_dir_rejects_spatial_context_changing_within_a_dataset(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        dc = simulate(spec, M=2, T=10, seed=13)
        dc.to_dir(tmp_path, spec=spec)
        assert dc.n_spatial_ctx == 1  # the last column
        self._edit_cell(tmp_path / "data_001.csv", 6, -1, "0.25")
        with pytest.raises(ValueError, match="spatial context changes within dataset 1 at row 5"):
            DatasetCollection.from_dir(tmp_path)

    def test_from_dir_rejects_a_row_of_the_wrong_width(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        dc = simulate(spec, M=2, T=10, seed=13)
        dc.to_dir(tmp_path, spec=spec)
        width = dc.n_system + dc.n_temporal_ctx + dc.n_spatial_ctx
        self._edit_cell(tmp_path / "data_000.csv", 3, 2, None)
        with pytest.raises(ValueError, match=f"dataset 0 row 2 has {width - 1} values, "
                                             f"expected {width}"):
            DatasetCollection.from_dir(tmp_path)

    def test_mask_all_latent(self):
        spec, _ = generate_random_model(seed=14, frac_observed=1.0)
        dc = simulate(spec, M=2, T=20, seed=15)
        masked = dc.mask_all_latent()
        assert not any(masked.observed_mask)
        assert masked.observed_roles() == [R.SYSTEM] * spec.n_system
