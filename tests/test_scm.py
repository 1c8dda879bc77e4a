"""Model generation, simulation semantics, and the fixed preset.

``tests/data/model_specs.json`` holds a digest of ``generate_random_model``'s
spec for every model seed the benchmark, the golden test and the acceptance
tests draw.  The rejection sampler reads ``spectral_radius``, so a change to
it that moves one bit changes which draw is kept.  Re-record only when the
sampler changes on purpose::

    PYTHONPATH=src python tests/test_scm.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from jtscd import scm
from jtscd.graph import VariableRole
from jtscd.scm import (DatasetCollection, GenerationError, LinearTerm,
                       NonFiniteDataError, PanelShapeError, SCMSpec, SimulationError,
                       generate_random_model, simplified_preset, simulate,
                       spectral_radius)
from reference_simulate import reference_simulate
from test_acceptance import seed_for

R = VariableRole
SPEC_FIXTURE = Path(__file__).with_name("data") / "model_specs.json"


def _model_corpus():
    """``(name, generate_random_model kwargs)`` for every recorded model seed."""
    bench = dict(n_system=5, n_temporal_ctx=2, n_spatial_ctx=1, frac_observed=0.5,
                 max_lag=2)
    for seed in (3, 8, 12):
        yield f"panel-long/{seed}", dict(bench, seed=seed)
    for r in range(50):
        yield f"grid-small/{r}", dict(bench, seed=1000 + r)
    for seed in range(10):
        yield f"oracle-wide/{seed}", dict(bench, n_system=10, seed=seed)
    for seed in range(20):
        yield f"golden-oracle/{seed}", dict(
            n_system=3 + seed % 2, n_temporal_ctx=1, n_spatial_ctx=1,
            frac_observed=(0.0, 0.5, 1.0)[seed % 3], seed=seed, max_lag=2)
        yield f"golden-oracle/{seed}/lag-free", dict(
            n_system=3 + seed % 2, n_temporal_ctx=0, n_spatial_ctx=2,
            frac_observed=(0.0, 0.5, 1.0)[seed % 3], seed=seed, max_lag=2, lag_free=True)
    for seed in range(5):
        yield f"golden-parcorr/{seed}", dict(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                             frac_observed=0.5, seed=seed, max_lag=2)
    for k in range(100):
        frac = (0.0, 0.5, 1.0)[k % 3]
        yield f"c1/{k}", dict(n_system=3, n_temporal_ctx=1, n_spatial_ctx=1,
                              frac_observed=frac, seed=seed_for("c1", k), max_lag=2)
        yield f"c2/{k}", dict(n_system=3, n_temporal_ctx=0, n_spatial_ctx=2,
                              frac_observed=frac, seed=seed_for("c2", k), lag_free=True)
    for r in range(20):
        yield f"c4/{r}", dict(n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
                              frac_observed=1.0, seed=seed_for("c4-model", r), max_lag=2)
        yield f"c5/{r}", dict(n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
                              frac_observed=0.5, seed=seed_for("c5-model", r), max_lag=2)
    for r in range(50):
        yield f"c9/{r}", dict(n_system=4, n_temporal_ctx=0, n_spatial_ctx=0,
                              ctx_link_prob=0.0, seed=seed_for("c9-model", r), max_lag=2)
    # edge cases of the draw: one or two system variables (no earlier
    # variable, no other variable), the shortest and a longer lag range,
    # sparse context links, no contexts at all and lag-free models
    for n in (1, 2):
        for seed in range(4):
            for max_lag in (1, 3):
                for prob in (0.0, 0.5):
                    yield f"edge/N={n}/max_lag={max_lag}/p={prob}/{seed}", dict(
                        n_system=n, max_lag=max_lag, ctx_link_prob=prob, seed=seed)
            yield f"edge/N={n}/no-contexts/{seed}", dict(
                n_system=n, n_temporal_ctx=0, n_spatial_ctx=0, seed=seed)
            yield f"edge/N={n}/lag-free/{seed}", dict(
                n_system=n, n_temporal_ctx=0, n_spatial_ctx=2, ctx_link_prob=0.5,
                frac_observed=1.0, lag_free=True, seed=seed)


def _spec_digest(kwargs):
    spec, _ = generate_random_model(**kwargs)
    text = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _simulate_corpus():
    """``(name, spec, M, T, seed)`` cases for the reference comparison."""
    preset, _ = simplified_preset()
    yield "preset", preset, 10, 200, 1
    yield "preset/M=1", preset, 1, 150, 2
    for n in (3, 5, 10):
        for max_lag in (1, 2, 3):
            spec, _ = generate_random_model(n_system=n, max_lag=max_lag, seed=10 * n + max_lag)
            yield f"N={n}/max_lag={max_lag}", spec, 6, 80, n + max_lag
    for seed in range(3):
        spec, _ = generate_random_model(n_system=4, n_temporal_ctx=0, n_spatial_ctx=2,
                                        lag_free=True, seed=seed)
        yield f"lag-free/{seed}", spec, 5, 40, seed
        spec, _ = generate_random_model(n_system=4, n_temporal_ctx=0, n_spatial_ctx=0,
                                        seed=seed)
        yield f"no-contexts/{seed}", spec, 5, 60, seed
        spec, _ = generate_random_model(n_system=5, max_lag=3, seed=seed)
        yield f"M=1/{seed}", spec, 1, 100, seed


def _raw_values(spec, **kwargs):
    """The system, temporal and spatial values of ``simulate(spec, **kwargs)``
    before rescaling, and the noise it drew.  ``simulate`` keeps neither its
    scale factors nor its noise, so both come from the reference, which
    draws the same numbers in the same order."""
    dc = simulate(spec, **kwargs)
    ref = reference_simulate(spec, **kwargs)
    return (dc.system * ref.system_scale, dc.temporal_ctx * ref.temporal_scale,
            dc.spatial_ctx * ref.spatial_scale, ref.noise)


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

    def test_specs_match_the_recorded_digests(self):
        want = json.loads(SPEC_FIXTURE.read_text())
        got = {name: _spec_digest(kwargs) for name, kwargs in _model_corpus()}
        assert len(got) == 398 + 48
        assert got == want

    def test_generation_error_when_impossible(self, monkeypatch):
        monkeypatch.setattr(scm, "STABILITY_RADIUS", 1e-6)
        monkeypatch.setattr(scm, "MAX_ATTEMPTS", 5)
        with pytest.raises(GenerationError, match="in 5 attempts .*threshold 1e-06"):
            generate_random_model(seed=0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            generate_random_model(n_system=0)
        with pytest.raises(ValueError):
            generate_random_model(frac_observed=1.5)
        with pytest.raises(ValueError):
            generate_random_model(lag_free=True, n_temporal_ctx=1)
        with pytest.raises(ValueError, match="^a lagged model needs max_lag >= 1$"):
            generate_random_model(max_lag=0)
        for counts in (dict(n_temporal_ctx=-1), dict(n_spatial_ctx=-1)):
            with pytest.raises(ValueError, match="^context counts must be non-negative$"):
                generate_random_model(**counts)
        # a lag-free model draws no lag, so it needs none
        generate_random_model(n_temporal_ctx=0, lag_free=True, max_lag=0)

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
        # the series before rescaling is exactly the noise
        raw_x, _, _, noise = _raw_values(spec, M=3, T=50, seed=1)
        assert np.allclose(raw_x, noise, atol=1e-12)

    def test_temporal_context_shared_and_spatial_constant(self):
        spec, _ = generate_random_model(seed=8, max_lag=2)
        dc = simulate(spec, M=5, T=30, seed=9)
        assert dc.temporal_ctx.shape == (30, spec.n_temporal_ctx)
        assert dc.spatial_ctx.shape == (5, spec.n_spatial_ctx)

    def test_preset_assignment_reconstructed_exactly(self):
        spec, _ = simplified_preset()
        raw_x, raw_ct, raw_cs, noise = _raw_values(spec, M=2, T=30, burn_in=50, seed=13)
        for m in range(2):
            for t in range(1, 30):
                x0 = (0.5 * raw_x[m, t, 1]
                      + 0.5 * raw_cs[m, 0] + 0.5 * raw_cs[m, 1]
                      + 0.5 * raw_ct[t - 1, 0] + 0.5 * raw_ct[t - 1, 1]
                      + noise[m, t, 0])
                assert abs(raw_x[m, t, 0] - x0) < 1e-10
                x1 = (0.5 * raw_x[m, t - 1, 1]
                      + 0.5 * raw_cs[m, 0] + 0.5 * raw_cs[m, 1]
                      + 0.5 * raw_ct[t - 1, 0] + 0.5 * raw_ct[t - 1, 1]
                      + noise[m, t, 1])
                assert abs(raw_x[m, t, 1] - x1) < 1e-10

    def test_preset_regression_recovers_coefficients(self):
        spec, _ = simplified_preset()
        raw_x, raw_ct, raw_cs, _ = _raw_values(spec, M=50, T=200, seed=21)
        rows = []
        y = []
        for m in range(50):
            for t in range(1, 200):
                rows.append([raw_x[m, t, 1], raw_cs[m, 0], raw_cs[m, 1],
                             raw_ct[t - 1, 0], raw_ct[t - 1, 1]])
                y.append(raw_x[m, t, 0])
        beta, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(y), rcond=None)
        assert np.all(np.abs(beta - 0.5) < 0.05)

    def test_matches_the_per_term_reference(self):
        names = set()
        for name, spec, M, T, seed in _simulate_corpus():
            got = simulate(spec, M=M, T=T, seed=seed)
            want = reference_simulate(spec, M=M, T=T, seed=seed).collection
            names.add(name)
            # the same context draws, taken in the same order and rescaled alike
            for field in ("temporal_ctx", "spatial_ctx"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), name
            # sums taken in another order: equal up to rounding
            a, b = got.system, want.system
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
        assert len(names) == 20

    def test_explosive_spec_raises_simulation_error(self):
        spec = SCMSpec(n_system=1, n_temporal_ctx=0, n_spatial_ctx=0, autocorr=(1.5,),
                       terms=((),), noise_std=(1.0,), observed_mask=())
        with pytest.raises(SimulationError, match="non-finite"):
            simulate(spec, M=2, T=2000, seed=0)

    def test_too_short_series_rejected(self):
        spec, _ = generate_random_model(seed=1, max_lag=3)
        with pytest.raises(ValueError):
            simulate(spec, M=2, T=spec.max_lag, seed=0)

    def test_no_datasets_rejected(self):
        spec, _ = generate_random_model(seed=1, max_lag=3)
        with pytest.raises(ValueError, match="^M=0 must be at least 1$"):
            simulate(spec, M=0, T=30, seed=0)

    def test_negative_burn_in_rejected(self):
        spec, _ = generate_random_model(seed=1, max_lag=3)
        with pytest.raises(ValueError, match="^burn_in must be non-negative$"):
            simulate(spec, M=2, T=30, burn_in=-5, seed=0)


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
    def test_collection_dir_round_trip(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        dc = simulate(spec, M=3, T=25, seed=13)
        dc.to_dir(tmp_path / "out", spec=spec, seed=12)
        again = DatasetCollection.from_dir(tmp_path / "out")
        # one kind of collection: the same fields, holding the same values
        for f in dataclasses.fields(DatasetCollection):
            a, b = getattr(again, f.name), getattr(dc, f.name)
            if isinstance(b, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

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
        with pytest.raises(PanelShapeError, match=f"dataset 0 row 2 has {width - 1} values, "
                                                  f"expected {width}"):
            DatasetCollection.from_dir(tmp_path)

    def test_from_dir_rejects_a_dataset_of_another_length(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        simulate(spec, M=2, T=10, seed=13).to_dir(tmp_path, spec=spec)
        path = tmp_path / "data_001.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(PanelShapeError, match="dataset 1 has 9 rows, expected 10"):
            DatasetCollection.from_dir(tmp_path)

    def test_from_dir_rejects_temporal_context_differing_between_datasets(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        dc = simulate(spec, M=2, T=10, seed=13)
        dc.to_dir(tmp_path, spec=spec)
        assert dc.n_temporal_ctx == 2  # the columns after the system ones
        self._edit_cell(tmp_path / "data_001.csv", 4, 1 + dc.n_system, "0.25")
        with pytest.raises(ValueError, match="^temporal context differs across datasets$"):
            DatasetCollection.from_dir(tmp_path)

    def test_from_dir_reports_a_temporal_context_nan_as_non_finite(self, tmp_path):
        # the same NaN in every dataset is a shared value, just not a finite one
        spec, _ = generate_random_model(seed=12, max_lag=2)
        dc = simulate(spec, M=2, T=10, seed=13)
        dc.to_dir(tmp_path, spec=spec)
        for m in range(dc.M):
            self._edit_cell(tmp_path / f"data_{m:03d}.csv", 4, 1 + dc.n_system, "nan")
        with pytest.raises(NonFiniteDataError, match=r"^temporal_ctx .*\(3, 0\)$"):
            DatasetCollection.from_dir(tmp_path)

    def test_from_dir_rejects_a_header_naming_other_columns(self, tmp_path):
        # two system columns swapped in the header would be read as each other
        spec, _ = generate_random_model(seed=12, max_lag=2)
        simulate(spec, M=2, T=10, seed=13).to_dir(tmp_path, spec=spec)
        self._edit_cell(tmp_path / "data_000.csv", 0, 1, "X1")
        self._edit_cell(tmp_path / "data_000.csv", 0, 2, "X0")
        with pytest.raises(ValueError, match=r"^data_000\.csv: header 't,X1,X0,.*' must be "
                                             r"'t,X0,X1,"):
            DatasetCollection.from_dir(tmp_path)

    def test_from_dir_rejects_a_t_cell_that_is_not_its_row_number(self, tmp_path):
        spec, _ = generate_random_model(seed=12, max_lag=2)
        simulate(spec, M=2, T=10, seed=13).to_dir(tmp_path, spec=spec)
        self._edit_cell(tmp_path / "data_001.csv", 3, 0, "7")
        with pytest.raises(ValueError, match=r"^data_001\.csv data row 2: t='7' must be 2$"):
            DatasetCollection.from_dir(tmp_path)

    def test_mask_all_latent(self):
        spec, _ = generate_random_model(seed=14, frac_observed=1.0)
        dc = simulate(spec, M=2, T=20, seed=15)
        masked = dc.mask_all_latent()
        assert not any(masked.observed_mask)
        assert masked.observed_roles() == [R.SYSTEM] * spec.n_system


def _panel_arrays():
    """The arrays of a well-formed panel at M=4, T=40."""
    rng = np.random.default_rng(0)
    return dict(system=rng.standard_normal((4, 40, 3)),
                temporal_ctx=rng.standard_normal((40, 1)),
                spatial_ctx=rng.standard_normal((4, 1)), observed_mask=(True, True))


# replacements that break the panel of ``_panel_arrays``, and the message
# that must name the array and both shapes
MALFORMED_PANELS = {
    "long temporal_ctx": (dict(temporal_ctx=np.zeros((50, 1))),
                          r"temporal_ctx has shape \(50, 1\); system of shape \(4, 40, 3\)"),
    "short temporal_ctx": (dict(temporal_ctx=np.zeros((30, 1))),
                           r"temporal_ctx has shape \(30, 1\); .* needs \(T=40"),
    "short spatial_ctx": (dict(spatial_ctx=np.zeros((3, 1))),
                          r"spatial_ctx has shape \(3, 1\); .* needs \(M=4"),
    "short observed_mask": (dict(observed_mask=(True,)),
                            r"observed_mask has 1 entries; .* \(40, 1\) .* \(4, 1\) need 2"),
    "2-D system": (dict(system=np.zeros((40, 3))),
                   r"system has shape \(40, 3\); it must be 3-D"),
    "ragged datasets": (dict(system=[np.zeros((40, 3)), np.zeros((30, 3)),
                                     np.zeros((40, 3)), np.zeros((40, 3))]),
                        r"system datasets differ in shape: \(30, 3\) and \(40, 3\)"),
    "no datasets": (dict(system=np.zeros((0, 40, 3))),
                    r"system has shape \(0, 40, 3\); it needs at least one dataset and one "
                    r"time step"),
    "no time steps": (dict(system=np.zeros((4, 0, 3))),
                      r"system has shape \(4, 0, 3\); it needs at least one dataset and one "
                      r"time step"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PANELS))
def test_malformed_panel_is_refused(case):
    change, message = MALFORMED_PANELS[case]
    with pytest.raises(PanelShapeError, match=message):
        DatasetCollection(**{**_panel_arrays(), **change})


def _spec(**change):
    """A valid spec with two system variables, one temporal and one spatial
    context, with ``change`` applied."""
    fields = dict(n_system=2, n_temporal_ctx=1, n_spatial_ctx=1, autocorr=(0.5, 0.5),
                  terms=((LinearTerm(1, 1, 0.3),), ()), noise_std=(1.0, 1.0),
                  observed_mask=(True, True))
    return SCMSpec(**{**fields, **change})


# changes that make ``_spec()`` malformed, and the message ``validate`` gives
MALFORMED_SPECS = {
    "short autocorr": (dict(autocorr=(0.5,)),
                       "autocorr/terms must have one entry per system variable"),
    "long noise_std": (dict(noise_std=(1.0, 1.0, 1.0)),
                       "noise_std must have one entry per system variable"),
    "short observed_mask": (dict(observed_mask=(True,)),
                            "observed_mask must have one entry per context"),
    "zero coefficient": (dict(terms=((LinearTerm(1, 1, 0.0),), ())),
                         "zero-coefficient terms are not allowed"),
    "parent out of range": (dict(terms=((), (LinearTerm(4, 0, 0.3),))),
                            "term parent 4 out of range"),
    "lagged spatial parent": (dict(terms=((LinearTerm(3, 1, 0.3),), ())),
                              "spatial context parents must have lag 0"),
    "negative lag": (dict(terms=((LinearTerm(1, -1, 0.3),), ())),
                     "negative lags are not allowed"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_is_refused(case):
    change, message = MALFORMED_SPECS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _spec(**change).validate()


if __name__ == "__main__":
    SPEC_FIXTURE.parent.mkdir(exist_ok=True)
    digests = {name: _spec_digest(kwargs) for name, kwargs in _model_corpus()}
    SPEC_FIXTURE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {SPEC_FIXTURE}")
