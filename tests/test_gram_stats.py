"""``PooledData.gram_stats`` against the explicit-demeaning build it replaced.

The pooled data derives every row set and dummy mode from one raw pass of
cross-products and group sums (``PooledData._raw_pass``);
``reference_gram.reference_gram_stats`` fills, demeans and multiplies out
each row set on its own.  On seeded and ``hypothesis`` panels -- one
dataset, short series, collinear columns and columns constant within
datasets, time steps or everywhere -- every ``(start, mode)`` must agree:
Gram entries to 1e-9 relative to the geometric mean of their two diagonal
entries, group sums to 1e-9 relative to the column's norm times the square
root of the group size, and ranks and group norms exactly; both hold sums
and norms only for the dummies a query in the mode can test.  A column the
reference leaves below the cancellation floor -- at most ``_CANCEL_TOL`` of
its sum of squares about the series mean, or at the rounding level of its
values -- is exactly zero in the new statistics, in its row, column and
sums, and no other column is.  The statistics must not depend on the order
in which the keys are asked for, and the tests of a query must come out
the same on both sets of statistics.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from jtscd.citests import QueryError, parcorr_test
from jtscd.pooling import _CANCEL_TOL, DUMMY_MODES, SelectionError, pool_data
from jtscd.scm import DatasetCollection

from reference_gram import TESTABLE, reference_gram_stats
from reference_kernel import column_block, panel

EPS = np.finfo(float).eps
RTOL = 1e-9
# columns made constant within some groups, or collinear with others
SPECIALS = (None, "constant", "per-dataset", "per-step", "duplicate", "affine",
            "spatial-affine", "temporal-affine")


def build_panel(p):
    """Pooled panel from a parameter dict (see ``random_params``)."""
    rng = np.random.default_rng(p["seed"])
    M, T, n_sys = p["M"], p["T"], p["n_system"]
    offsets = p["offset"] * rng.standard_normal((M, 1, n_sys))
    system = offsets + p["scale"] * rng.standard_normal((M, T, n_sys)) + p["mean"]
    temporal = p["mean"] + rng.standard_normal((T, p["n_temporal"]))
    spatial = p["mean"] + rng.standard_normal((M, p["n_spatial"]))
    special = p["special"]
    if special == "constant":
        system[:, :, -1] = 2.5
    elif special == "per-dataset":
        system[:, :, -1] = rng.standard_normal((M, 1))
    elif special == "per-step":
        system[:, :, -1] = rng.standard_normal(T)
    elif special == "duplicate":
        system[:, :, -1] = system[:, :, 0]
    elif special == "affine":
        system[:, :, -1] = 2.0 * system[:, :, 0] - 1.5
    elif special == "spatial-affine" and p["n_spatial"] == 2:
        spatial[:, 1] = 3.0 * spatial[:, 0] + 0.5
    elif special == "temporal-affine" and p["n_temporal"] == 2:
        temporal[:, 1] = -0.5 * temporal[:, 0] + 4.0
    n_ctx = p["n_temporal"] + p["n_spatial"]
    dc = DatasetCollection(system=system, temporal_ctx=temporal, spatial_ctx=spatial,
                           observed_mask=p["mask"][:n_ctx])
    return pool_data(dc, p["tau_max"])


def random_params(rng):
    tau_max = int(rng.integers(0, 3))
    return dict(
        seed=int(rng.integers(2 ** 32)),
        M=int(rng.choice([1, 2, 3, 5])),
        T=int(rng.integers(tau_max + 1, 20)),
        tau_max=tau_max,
        n_system=int(rng.integers(1, 4)),
        n_temporal=int(rng.integers(0, 3)), n_spatial=int(rng.integers(0, 3)),
        mask=tuple(bool(b) for b in rng.random(4) < 0.75),
        mean=float(rng.choice([0.0, 5.0, -40.0])),
        scale=float(rng.choice([1.0, 3.0])),
        offset=float(rng.choice([0.0, 10.0])),
        special=SPECIALS[int(rng.integers(len(SPECIALS)))],
    )


@st.composite
def params(draw):
    tau_max = draw(st.integers(0, 2))
    return dict(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        M=draw(st.sampled_from([1, 2, 3, 5])),
        T=draw(st.integers(tau_max + 1, 19)),
        tau_max=tau_max,
        n_system=draw(st.integers(1, 3)),
        n_temporal=draw(st.integers(0, 2)), n_spatial=draw(st.integers(0, 2)),
        mask=tuple(draw(st.lists(st.booleans(), min_size=4, max_size=4))),
        mean=draw(st.sampled_from([0.0, 5.0, -40.0])),
        scale=draw(st.sampled_from([1.0, 3.0])),
        offset=draw(st.sampled_from([0.0, 10.0])),
        special=draw(st.sampled_from(SPECIALS)),
    )


def row_set_starts(data):
    return range(data.tau_max, min(2 * data.tau_max, data.T - 1) + 1)


def below_floor(data, start, diag):
    """Columns whose reference diagonal ``diag`` is cancellation noise.

    The floor is ``_CANCEL_TOL`` of the column's sum of squares about its
    series mean on the row set, or of the rounding level ``eps`` times its
    plain sum of squares, whichever is larger: a series shifted by its
    computed mean can be exactly zero where the reference's demeaning
    leaves rounding noise.
    """
    shifted, plain = [], []
    for var, lag in data.scalar_columns[:len(diag)]:
        mean = panel(data, var, 0, 0).mean()
        values = column_block(data, var, lag, start)
        shifted.append(float(((values - mean) ** 2).sum()))
        plain.append(float((values ** 2).sum()))
    floor = _CANCEL_TOL * np.maximum(shifted, EPS * np.array(plain))
    return np.asarray(diag) <= floor


def assert_matches_reference(data):
    """Every ``(start, mode)`` of ``data`` against the reference build; returns
    the number of columns found below the floor."""
    n_below = 0
    for start in row_set_starts(data):
        for mode in DUMMY_MODES:
            new, ref = data.gram_stats(start, mode), reference_gram_stats(data, start, mode)
            key = (start, mode)
            assert new.group_rank == ref.group_rank, key
            # a dummy the mode demeans by is never a query's endpoint: no sums
            assert new.group_sums.keys() == new.group_norms.keys() == TESTABLE[mode], key
            assert ref.group_sums.keys() == ref.group_norms.keys() == TESTABLE[mode], key
            for kind in TESTABLE[mode]:
                assert np.array_equal(new.group_norms[kind], ref.group_norms[kind]), key
                assert new.group_sums[kind].shape == ref.group_sums[kind].shape, key
            gram = new.gram
            assert gram.shape == ref.gram.shape, key
            assert np.array_equal(gram, gram.T), key

            below = below_floor(data, start, ref.gram.diagonal())
            n_below += int(below.sum())
            assert np.array_equal(gram.diagonal() == 0.0, below), key
            assert not gram[below].any() and not gram[:, below].any(), key
            ref_diag = np.where(below, 0.0, ref.gram.diagonal())
            scale = np.sqrt(np.outer(ref_diag, ref_diag))
            err = np.abs(gram - ref.gram)
            assert (err[~below][:, ~below] <= RTOL * scale[~below][:, ~below]).all(), key
            sizes = {"time": data.M, "space": data.T - start}
            for kind in TESTABLE[mode]:
                size = sizes[kind]
                sums, ref_sums = new.group_sums[kind], ref.group_sums[kind]
                assert not sums[:, below].any(), (key, kind)
                bound = RTOL * np.sqrt(ref_diag * size)
                err = np.abs(sums - ref_sums)[:, ~below]
                assert (err <= bound[~below]).all(), (key, kind)
    return n_below


def queries(data, rng, count=6):
    """Seeded queries of every shape on ``data``: scalar pairs and dummy
    endpoints, with scalar and dummy conditioning."""
    scalars = list(data.scalar_columns)
    dummies = [(data.time_dummy, 0), (data.space_dummy, 0)]
    for _ in range(count):
        picks = [scalars[i] for i in rng.permutation(len(scalars))]
        if len(picks) < 2:
            return
        x, y, z = picks[0], picks[1], picks[2:2 + int(rng.integers(0, 4))]
        endpoint = int(rng.integers(3))
        if endpoint < 2:
            x = dummies[endpoint]
        z += [d for d, keep in zip(dummies, rng.integers(0, 2, 2)) if keep and d != x]
        yield (x, y, tuple(z))


def outcome(query, data):
    try:
        return parcorr_test(query, data)
    except (QueryError, SelectionError) as exc:
        return type(exc)


def assert_same_tests(data, rng):
    """``parcorr_test`` on ``data`` and on a copy holding the reference
    statistics: the same errors, ``n``, ``df`` and degenerate flags, and the
    statistic and p-value to 1e-9 relative; where the statistic is within
    rounding of 1, the p-value's relative error is unbounded, and both
    must only be below any alpha."""
    ref_data = pool_data(data.dc, data.tau_max)
    for start in row_set_starts(data):
        for mode in DUMMY_MODES:
            ref_data._gram_stats[(start, mode)] = reference_gram_stats(data, start, mode)
    for query in queries(data, rng):
        new, ref = outcome(query, data), outcome(query, ref_data)
        if isinstance(ref, type):
            assert new is ref, query
            continue
        assert (new.n_effective, new.df, new.degenerate) == \
            (ref.n_effective, ref.df, ref.degenerate), query
        assert math.isclose(new.statistic, ref.statistic, rel_tol=RTOL, abs_tol=1e-12), query
        if min(new.statistic, ref.statistic) > 1.0 - 1e-9:
            # |r| within rounding of 1 (a column the dummy or z explains
            # exactly): the p-value is fixed only in that it is below any alpha
            assert max(new.p_value, ref.p_value) < 1e-6, query
        else:
            assert math.isclose(new.p_value, ref.p_value, rel_tol=RTOL), query


def test_seeded_panels_match_reference():
    rng = np.random.default_rng(20261019)
    seen = {"one dataset": 0, "short": 0, "below floor": 0}
    for _ in range(300):
        p = random_params(rng)
        data = build_panel(p)
        n_below = assert_matches_reference(data)
        assert_same_tests(data, rng)
        seen["one dataset"] += p["M"] == 1
        seen["short"] += p["T"] <= 2 * p["tau_max"] + 1
        seen["below floor"] += n_below > 0
    # the corpus reaches the cases the floor and the boundary rows handle
    assert seen["one dataset"] > 50 and seen["short"] > 20 and seen["below floor"] > 150


@settings(max_examples=150, deadline=None, derandomize=True)
@given(params())
def test_property_matches_reference(p):
    data = build_panel(p)
    assert_matches_reference(data)
    assert_same_tests(data, np.random.default_rng(p["seed"]))


class TestFloor:
    """Columns constant within the mode's groups are exactly zero."""

    def test_contexts_within_their_groups(self):
        p = dict(random_params(np.random.default_rng(1)), M=4, T=12, tau_max=2,
                 n_system=2, n_temporal=1, n_spatial=1, mask=(True,) * 4,
                 mean=5.0, special=None)
        data = build_panel(p)
        temporal, spatial = data.n_system, data.n_system + 1
        for start in row_set_starts(data):
            for mode in DUMMY_MODES:
                diag = data.gram_stats(start, mode).gram.diagonal()
                assert (diag[spatial] == 0.0) == (mode in ("space", "both")), mode
                assert (diag[temporal] == 0.0) == (mode in ("time", "both")), mode
                # the temporal context's lags are constant within time steps too
                lagged = [k for k, (v, lag) in enumerate(data.scalar_columns[:len(diag)])
                          if v == temporal]
                assert all((diag[k] == 0.0) == (mode in ("time", "both")) for k in lagged)

    def test_one_dataset(self):
        p = dict(random_params(np.random.default_rng(2)), M=1, T=15, tau_max=1,
                 n_system=2, n_temporal=1, n_spatial=1, mask=(True,) * 4, special=None)
        data = build_panel(p)
        spatial = data.n_system + 1
        for start in row_set_starts(data):
            for mode in DUMMY_MODES:
                stats = data.gram_stats(start, mode)
                # one dataset: the spatial context is constant, and every
                # column is constant within its time step
                assert stats.gram[spatial, spatial] == 0.0
                assert (not stats.gram.any()) == (mode in ("time", "both")), mode

    def test_small_within_group_variation_is_kept(self):
        # large dataset offsets over small noise: within datasets the column
        # keeps 1e-8 of its sum of squares about the mean, above the floor;
        # the subtraction costs digits there, not the column
        rng = np.random.default_rng(4)
        system = rng.standard_normal((4, 30, 2))
        system[:, :, 1] = 1e3 * rng.standard_normal((4, 1)) + 0.1 * system[:, :, 1]
        dc = DatasetCollection(system=system, temporal_ctx=np.zeros((30, 0)),
                               spatial_ctx=np.zeros((4, 0)), observed_mask=())
        data = pool_data(dc, 1)
        for start in row_set_starts(data):
            for mode in ("space", "both"):
                new = data.gram_stats(start, mode).gram.diagonal()
                ref = reference_gram_stats(data, start, mode).gram.diagonal()
                for k, (var, _) in enumerate(data.scalar_columns[:len(new)]):
                    if var == 1:
                        assert new[k] > 0.0 and math.isclose(new[k], ref[k], rel_tol=1e-6)

    def test_constant_system_column(self):
        p = dict(random_params(np.random.default_rng(3)), M=3, T=10, tau_max=2,
                 n_system=3, special="constant")
        data = build_panel(p)
        for start in row_set_starts(data):
            for mode in DUMMY_MODES:
                stats = data.gram_stats(start, mode)
                dead = [k for k, (v, _) in enumerate(data.scalar_columns[:len(stats.gram)])
                        if v == 2]
                assert not stats.gram[dead].any() and not stats.gram[:, dead].any()
                for sums in stats.group_sums.values():
                    assert not sums[:, dead].any()


def same_stats(a, b):
    kinds = a.group_sums.keys()
    arrays = [(a.gram, b.gram)] + [(a.group_sums[k], b.group_sums[k]) for k in kinds]
    arrays += [(a.group_norms[k], b.group_norms[k]) for k in kinds]
    return (a.group_rank == b.group_rank and a.n_rows == b.n_rows
            and kinds == b.group_sums.keys() == a.group_norms.keys() == b.group_norms.keys()
            and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in arrays))


def test_request_order_does_not_change_a_bit():
    rng = np.random.default_rng(20261020)
    for _ in range(12):
        p = dict(random_params(rng), tau_max=2, T=int(rng.integers(5, 20)))
        data = build_panel(p)
        keys = [(s, m) for s in row_set_starts(data) for m in DUMMY_MODES]
        first = {key: data.gram_stats(*key) for key in keys}
        for _ in range(4):
            fresh = pool_data(data.dc, data.tau_max)
            for i in rng.permutation(len(keys)):
                key = keys[i]
                assert same_stats(fresh.gram_stats(*key), first[key]), key
