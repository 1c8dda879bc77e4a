"""The Gram-statistics ParCorr kernel against the dense least-squares reference.

``parcorr_test`` works from cached cross-products; ``lstsq_parcorr_test``
(``reference_kernel.py``) residualizes the extracted columns of every test.
On random panels and queries both must raise the same error or agree on
``n_effective``, ``df`` and the degenerate flag exactly and on the statistic
and p-value to 1e-9 relative.  The statistic gets an absolute floor of
1e-12: a correlation near zero is a difference of cross-products of size
``n``, which neither kernel resolves below that.  A pooled dataset caches
its Gram statistics per row set and dummy mode; a test must give the same
result whatever ran on the dataset before it.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtscd import citests
from jtscd.citests import ParCorrCI, QueryError, parcorr_test
from jtscd.discovery import estimate_graph, j_pcmciplus
from jtscd.pooling import SelectionError, pool_data
from jtscd.scm import DatasetCollection, generate_random_model, simulate

from reference_kernel import lstsq_parcorr_test, per_query_parcorr_batch

COLLINEAR = (None, "duplicate", "affine", "spatial")


def build_case(p):
    """Pooled panel and query from a parameter dict (see ``random_params``)."""
    rng = np.random.default_rng(p["seed"])
    M, T, n_sys = p["M"], p["T"], p["n_system"]
    system = rng.standard_normal((M, T, n_sys))
    temporal = rng.standard_normal((T, p["n_temporal"]))
    spatial = rng.standard_normal((M, p["n_spatial"]))
    # exact or rounding-level rank deficiencies among the columns
    if p["collinear"] == "duplicate":
        system[:, :, -1] = system[:, :, 0]
    elif p["collinear"] == "affine":
        system[:, :, -1] = 2.0 * system[:, :, 0] - 1.5
    elif p["collinear"] == "spatial" and p["n_spatial"] == 2:
        spatial[:, 1] = 3.0 * spatial[:, 0] + 0.5
    dc = DatasetCollection(system=system, temporal_ctx=temporal,
                           spatial_ctx=spatial, observed_mask=p["mask"])
    data = pool_data(dc, p["tau_max"])
    return data, draw_query(data, p, rng)


def draw_query(data, p, rng):
    scalars = [(v, lag) for v in range(data.n_observed)
               for lag in (range(2 * data.tau_max + 1)
                           if data.var_roles[v].is_time_indexed else (0,))]
    picks = [scalars[i] for i in rng.permutation(len(scalars))]
    # kx and ky place z among the picks: one selector per side is tested
    kx = min(p["kx"], len(picks) - 1)
    ky = min(p["ky"], len(picks) - kx)
    x, y = picks[0], picks[kx]
    z = picks[kx + ky:kx + ky + p["kz"]]
    dummies = {"time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
    if p["endpoint"]:
        # the dummy takes the place of the x selector
        x = dummies[p["endpoint"]]
    z += [dummies[k] for k in p["z_dummies"] if k != p["endpoint"]]
    return (x, y, tuple(z))


def random_params(rng):
    tau_max = int(rng.integers(0, 3))
    n_temporal, n_spatial = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    return dict(
        seed=int(rng.integers(2 ** 32)),
        M=int(rng.choice([1, 2, 3, 5])),
        T=int(rng.integers(2 * tau_max + 6, 26)),
        tau_max=tau_max,
        n_system=int(rng.integers(2, 5)),
        n_temporal=n_temporal, n_spatial=n_spatial,
        mask=tuple(bool(b) for b in rng.integers(0, 2, n_temporal + n_spatial)),
        collinear=COLLINEAR[int(rng.integers(len(COLLINEAR)))],
        kx=int(rng.integers(1, 3)), ky=int(rng.integers(1, 3)),
        kz=int(rng.integers(0, 5)),
        endpoint=[None, None, "time", "space"][int(rng.integers(4))],
        z_dummies=[(), ("time",), ("space",), ("time", "space")][int(rng.integers(4))],
    )


@st.composite
def params(draw):
    tau_max = draw(st.integers(0, 2))
    n_temporal, n_spatial = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return dict(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        M=draw(st.sampled_from([1, 2, 3, 5])),
        T=draw(st.integers(2 * tau_max + 6, 25)),
        tau_max=tau_max,
        n_system=draw(st.integers(2, 4)),
        n_temporal=n_temporal, n_spatial=n_spatial,
        mask=tuple(draw(st.lists(st.booleans(), min_size=n_temporal + n_spatial,
                                 max_size=n_temporal + n_spatial))),
        collinear=draw(st.sampled_from(COLLINEAR)),
        kx=draw(st.integers(1, 2)), ky=draw(st.integers(1, 2)),
        kz=draw(st.integers(0, 4)),
        endpoint=draw(st.sampled_from([None, "time", "space"])),
        z_dummies=draw(st.sampled_from([(), ("time",), ("space",), ("time", "space")])),
    )


def outcome(kernel, query, data):
    try:
        return kernel(query, data)
    except (QueryError, SelectionError) as exc:
        return type(exc)


def assert_equivalent(data, query, new=None):
    """``new`` (by default ``parcorr_test`` on ``data``) against the reference."""
    if new is None:
        new = outcome(parcorr_test, query, data)
    ref = outcome(lstsq_parcorr_test, query, data)
    if isinstance(ref, type):
        assert new is ref, query
        return None
    assert (new.n_effective, new.df, new.degenerate) == \
        (ref.n_effective, ref.df, ref.degenerate), query
    assert math.isclose(new.statistic, ref.statistic, rel_tol=1e-9, abs_tol=1e-12), query
    assert math.isclose(new.p_value, ref.p_value, rel_tol=1e-9), query
    return ref


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params())
def test_property_matches_reference(p):
    data, query = build_case(p)
    assert_equivalent(data, query)


def scalar_pair(query, data):
    """The query with a dummy x replaced by the first scalar column that is
    neither y nor in z; a query with a scalar x is its own pair."""
    x, y, z = query
    if not data.var_roles[x[0]].is_dummy:
        return query
    return next(s for s in data.scalar_columns if s != y and s not in z), y, z


def test_seeded_corpus_matches_reference():
    rng = np.random.default_rng(20260418)
    kinds = {"tested": 0, "degenerate": 0, "error": 0, "endpoint": 0}
    pairs = {"tested": 0, "degenerate": 0, "error": 0}
    for _ in range(400):
        p = random_params(rng)
        data, query = build_case(p)
        ref = assert_equivalent(data, query)
        if ref is None:
            kinds["error"] += 1
        elif ref.degenerate:
            kinds["degenerate"] += 1
        else:
            kinds["tested"] += 1
            kinds["endpoint"] += p["endpoint"] is not None
        # the same panel and z with one scalar on each side: the pair path
        pair = scalar_pair(query, data)
        if pair is not query:
            ref = assert_equivalent(data, pair)
        pairs["error" if ref is None else
              "degenerate" if ref.degenerate else "tested"] += 1
    # the corpus exercises every outcome, not only the easy one
    assert kinds["tested"] > 150 and kinds["endpoint"] > 50
    assert kinds["degenerate"] > 20 and kinds["error"] > 5
    assert pairs["tested"] > 150 and pairs["degenerate"] > 20 and pairs["error"] > 5


def sibling_groups(data, rng):
    """Queries in groups that share one ``z``, as the tests of a discovery
    level do: per ``z``, dummy mode and row set, a few ``x`` against one
    ``y``, plus a dummy-endpoint query on the same ``z``.

    The same scalar ``z`` columns recur under every dummy mode and row set
    (an ``x`` at lag ``tau_max + k`` moves the rows to start ``tau_max +
    k``), and several ``z`` share each row set and mode.
    """
    tau = data.tau_max
    lagged = [v for v in range(data.n_observed) if data.var_roles[v].is_time_indexed]
    near = [(v, lag) for v in range(data.n_observed)
            for lag in (range(tau + 1) if v in lagged else (0,))]
    dummies = {"time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
    groups = []
    for _ in range(3):
        picks = [near[i] for i in rng.permutation(len(near))]
        z, y, others = picks[:int(rng.integers(1, 4))], picks[-1], picks[:-1]
        for z_dummies in ((), ("time",), ("space",), ("time", "space")):
            zz = tuple(z) + tuple(dummies[k] for k in z_dummies)
            for k in range(tau + 1):
                xs = [(v, tau + k) for v in lagged if (v, tau + k) not in zz + (y,)]
                xs += [s for s in others if s not in z][:2]
                group = [(x, y, zz) for x in xs]
                endpoint = dummies[("time", "space")[k % 2]]
                group.append((endpoint, y, tuple(s for s in zz if s != endpoint)))
                groups.append(group)
    return groups


def interleaved(groups, rng):
    """Shuffled groups, each followed by the first query of an earlier group:
    a run of one ``z``, then another ``z``, then the first again."""
    order = [groups[i] for i in rng.permutation(len(groups))]
    sequence = []
    for i, group in enumerate(order):
        sequence += [group[j] for j in rng.permutation(len(group))]
        sequence.append(order[int(rng.integers(i + 1))][0])
    return sequence


def test_shared_dataset_matches_cold_and_reference():
    # the seeded corpus's panels, each tested on one shared pooled dataset
    rng = np.random.default_rng(20261018)
    n_queries = n_tested = 0
    while n_tested < 2000:
        p = random_params(rng)
        if p["tau_max"] == 0 or p["M"] == 1:
            continue
        data, _ = build_case(p)
        for query in interleaved(sibling_groups(data, rng), rng):
            new = outcome(parcorr_test, query, data)
            cold = outcome(parcorr_test, query, pool_data(data.dc, data.tau_max))
            assert new == cold, query
            ref = assert_equivalent(data, query, new=new)
            n_queries += 1
            n_tested += ref is not None and not ref.degenerate
    assert n_queries < 2 * n_tested


@pytest.mark.parametrize("seed", range(4))
def test_discovery_matches_reference_kernel(seed, monkeypatch):
    # ParCorrCI reaches the kernel through the module global ``parcorr_batch``
    spec, _ = generate_random_model(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                    frac_observed=0.5, seed=seed, max_lag=2)
    dc = simulate(spec, M=4, T=40, seed=100 + seed)
    runs = [dict(variant=v, tau_max=tau_max)
            for v in ("jpcmci+", "pcmci+") for tau_max in (2, 0)]
    fast = [estimate_graph(dc, **run) for run in runs]
    used = []

    def reference(query, data):
        used.append(query)
        return lstsq_parcorr_test(query, data)

    monkeypatch.setattr(citests, "parcorr_batch",
                        lambda queries, data: [reference(q, data) for q in queries])
    for run, new in zip(runs, fast):
        used.clear()
        ref = estimate_graph(dc, **run)
        assert used, run
        assert new.graph.to_text() == ref.graph.to_text(), run
        assert [k for k, _ in new.sepsets.items()] == [k for k, _ in ref.sepsets.items()], run
        for (_, a), (_, b) in zip(new.sepsets.items(), ref.sepsets.items()):
            assert math.isclose(a.p_value, b.p_value, rel_tol=1e-9), run


def panel(M=4, T=20, tau_max=2, n_system=3, spatial=1, seed=0, system=None):
    """Pooled random panel; a given ``system`` array sets M, T and n_system."""
    rng = np.random.default_rng(seed)
    if system is None:
        system = rng.standard_normal((M, T, n_system))
    M, T, _ = system.shape
    dc = DatasetCollection(system=system,
                           temporal_ctx=rng.standard_normal((T, 1)),
                           spatial_ctx=rng.standard_normal((M, spatial)),
                           observed_mask=(True,) + (True,) * spatial)
    return pool_data(dc, tau_max)


class TestCoverage:
    """Named cases of the equivalence, one per query shape the corpus mixes."""

    @pytest.mark.parametrize("z_dummies", [(), ("time",), ("space",), ("time", "space")])
    def test_every_dummy_mode_with_dropped_rows(self, z_dummies):
        data = panel()
        dummies = {"time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
        z = ((0, 4), (2, 1)) + tuple(dummies[k] for k in z_dummies)
        ref = assert_equivalent(data, ((0, 1), (1, 0), z))
        assert ref.n_effective == 4 * (20 - 4)

    @pytest.mark.parametrize("endpoint,other", [("time", "space"), ("space", "time")])
    def test_dummy_endpoints(self, endpoint, other):
        data = panel()
        dummies = {"time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
        for z in (((2, 3),), ((2, 3), dummies[other]), ((4, 0), (1, 2))):
            assert_equivalent(data, (dummies[endpoint], (0, 0), z))
            assert_equivalent(data, ((0, 0), dummies[endpoint], z))

    def test_bonferroni_counts_empty_time_groups(self):
        # the lag-4 selector empties the first two of the 18 time groups
        data = panel()
        query = ((data.time_dummy, 0), (0, 0), ((1, 4),))
        raw = lstsq_parcorr_test(query, data, correction="none")
        combined = assert_equivalent(data, query)
        assert combined.p_value == pytest.approx(min(1.0, 18 * raw.p_value), rel=1e-12)

    def test_single_dataset_dummies(self):
        data = panel(M=1, T=40)
        for dummy in (data.time_dummy, data.space_dummy):
            ref = assert_equivalent(data, ((dummy, 0), (0, 0), ()))
            assert ref.degenerate
        # a single dataset's space dummy in z is an intercept; the spatial
        # context is then a constant column, absorbed into it
        ref = assert_equivalent(data, ((0, 1), (1, 0), ((4, 0), (data.space_dummy, 0))))
        assert ref.df == 38 - 1 - 1

    def test_spatial_context_zeroed_by_space_dummy(self):
        data = panel()
        ref = assert_equivalent(data, ((0, 1), (1, 0), ((4, 0), (data.space_dummy, 0))))
        assert ref.df == 4 * 18 - 4 - 1
        # the context tested given its own dummy is refused by both kernels
        # (``TestBatch.test_own_dummy_refused_unless_constant``)
        assert assert_equivalent(data, ((4, 0), (1, 0), ((data.space_dummy, 0),))) is None

    def test_rank_deficient_z(self):
        data = panel(spatial=2, M=2)
        # on two datasets, two spatial contexts and the intercept span the
        # two dataset indicators only: the second context adds no rank
        ref = assert_equivalent(data, ((0, 1), (1, 0), ((4, 0), (5, 0))))
        assert ref.df == 2 * 18 - 2 - 1


class TestScalarPair:
    """Each early return of the one-scalar-x, one-scalar-y path."""

    @pytest.mark.parametrize("copy", ["duplicate", "affine"])
    def test_x_in_span_of_z(self, copy):
        system = np.random.default_rng(3).standard_normal((4, 20, 3))
        system[:, :, 2] = system[:, :, 0] if copy == "duplicate" else 2.0 * system[:, :, 0] - 1.5
        data = panel(system=system)
        for z in (((2, 1),), ((2, 1), (data.time_dummy, 0)), ((3, 0), (2, 1))):
            ref = assert_equivalent(data, ((0, 1), (1, 0), z))
            assert ref.degenerate and ref.df > 0
            # the span guard trips on either side
            assert assert_equivalent(data, ((1, 0), (0, 1), z)).degenerate

    def test_constant_column(self):
        system = np.random.default_rng(4).standard_normal((4, 20, 3))
        system[:, :, 1] = 2.5
        data = panel(system=system)
        for z in ((), ((2, 1),), ((2, 1), (data.space_dummy, 0))):
            assert assert_equivalent(data, ((0, 1), (1, 0), z)).degenerate
            assert assert_equivalent(data, ((1, 2), (0, 0), z)).degenerate

    def test_df_floor(self):
        # df < 1 cannot reach the pair path: the sample check (n > z columns
        # + 3) leaves df >= 2, reached at n = z columns + 4 with a full-rank z
        z = ((2, 0), (3, 0), (4, 0))
        for T, df in ((7, 2), (8, 3)):
            system = np.random.default_rng(5).standard_normal((1, T, 5))
            data = panel(tau_max=0, spatial=0, system=system)
            ref = assert_equivalent(data, ((0, 0), (1, 0), z))
            assert ref.df == df and not ref.degenerate
        system = np.random.default_rng(5).standard_normal((1, 6, 5))
        data = panel(tau_max=0, spatial=0, system=system)
        with pytest.raises(QueryError, match="too few samples"):
            parcorr_test(((0, 0), (1, 0), z), data)


def error_type(kernel, query, data):
    try:
        kernel(query, data)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


# panel(): system 0-2, temporal context 3, spatial context 4, dummies 5 and 6
INVALID = {
    "var past the end in x": ((7, 0), (1, 0), ()),
    "var past the end in z": ((0, 0), (1, 0), ((9, 1),)),
    "negative var": ((0, 0), (-1, 0), ()),
    "negative var aliasing a lagged column": ((0, 0), (1, 0), ((-7, 3),)),
    "lag past 2 tau_max": ((0, 5), (1, 0), ()),
    "lag past 2 tau_max in z": ((0, 0), (1, 0), ((2, 5),)),
    "negative lag": ((0, -1), (1, 0), ()),
    "spatial context at a lag": ((4, 1), (1, 0), ()),
    "time dummy at a lag": ((0, 0), (1, 0), ((5, 1),)),
    "space dummy at a lag": ((6, 2), (1, 0), ()),
}


class TestErrorParity:
    """Selectors outside the table fail as the validating path always has."""

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_selector(self, case):
        data = panel()
        query = INVALID[case]
        expected = error_type(lstsq_parcorr_test, query, data)
        assert expected is not None
        assert error_type(parcorr_test, query, data) is expected

    @pytest.mark.parametrize("case", ["var past the end in x", "var past the end in z"])
    def test_variable_past_the_end_is_a_selection_error(self, case):
        # the range is checked before the role lookup, in both kernels
        for kernel in (parcorr_test, lstsq_parcorr_test):
            with pytest.raises(SelectionError, match="out of range"):
                kernel(INVALID[case], panel())

    def test_negative_endpoint_is_not_counted_from_the_end(self):
        # on one dataset, var -1 used to be read as the degenerate space dummy
        query = ((0, 0), (-1, 0), ())
        with pytest.raises(SelectionError, match="out of range"):
            parcorr_test(query, panel(M=1, T=20))

    def test_too_few_samples(self):
        data = panel(M=1, T=10)
        query = ((0, 0), (1, 0), ((2, 0), (3, 0), (0, 1), (1, 1), (2, 1)))
        assert error_type(lstsq_parcorr_test, query, data) is QueryError
        assert error_type(parcorr_test, query, data) is QueryError
        x, y, z = query
        named = re.escape(f" (query x={x} y={y} z={z})") + "$"
        with pytest.raises(QueryError, match="^too few samples.*" + named):
            ParCorrCI(data).batch([(x, y, list(z))])

    def test_dummy_on_both_sides(self):
        data = panel()
        with pytest.raises(QueryError, match="once only"):
            parcorr_test(((5, 0), (6, 0), ()), data)

    def test_degenerate_endpoint_does_not_hide_a_bad_query(self):
        # a single dataset's space dummy is degenerate; its verdict comes only
        # after every selector is found and one side at most is a dummy, so a
        # query refused on four datasets is refused on one
        single, data = panel(M=1, T=20), panel()
        for z in (((2, 5),), ((99, 0),), ((0, 7),)):
            query = ((6, 0), (1, 0), z)
            for kernel in (parcorr_test, lstsq_parcorr_test):
                with pytest.raises(SelectionError,
                                   match="^" + re.escape(f"selector {z[0]} out of range")):
                    kernel(query, single)
                assert error_type(kernel, query, data) is SelectionError
        both = ((6, 0), (5, 0), ())
        for pooled in (single, data):
            with pytest.raises(QueryError, match="once only"):
                parcorr_test(both, pooled)
        # a query the kernel can read still gets the degenerate verdict
        query = ((6, 0), (1, 0), ((2, 4),))
        assert parcorr_test(query, single) == lstsq_parcorr_test(query, single)
        assert parcorr_test(query, single).degenerate

    def test_invalid_selector_raises_on_every_use(self):
        data = panel()
        test = ParCorrCI(data)
        table = dict(data.selectors)
        for case in sorted(INVALID):
            expected = error_type(lstsq_parcorr_test, INVALID[case], data)
            for _ in range(2):
                with pytest.raises(expected):
                    test.batch([INVALID[case]])
                assert not test.batch([((0, 1), (1, 0), ((2, 1),))])[0].degenerate
        assert dict(data.selectors) == table


def batch_corpus(data, rng):
    """Queries of one panel for the batch path: the sibling groups (every
    dummy mode, dummy endpoints), pairs with an empty ``z`` or a spatial
    context zeroed by the space dummy, and, on a panel with a duplicated
    or affine system column, a ``z`` holding that column and its copy."""
    queries = [q for group in sibling_groups(data, rng) for q in group]
    n_sys = data.n_system
    queries += [((0, 1), (1, 0), ()), ((1, 0), (0, 2), ())]
    spatial = [v for v in range(data.n_observed) if not data.var_roles[v].is_time_indexed]
    for v in spatial:
        queries.append(((0, 1), (1, 0), ((v, 0), (2, 1), (data.space_dummy, 0))))
    queries.append(((1, 0), (2, 0), ((0, 1), (n_sys - 1, 1))))
    return queries


def seeded_batches():
    """The 20 seeded panels of the batch tests, each with the queries of its
    ``batch_corpus`` that a ``parcorr_test`` on a fresh pool answers, and
    those answers: a batch raises at its first failing query."""
    rng = np.random.default_rng(20261019)
    n_batches = 0
    while n_batches < 20:
        p = random_params(rng)
        if p["tau_max"] == 0 or p["M"] == 1 or p["n_system"] < 3:
            continue
        data, _ = build_case(p)
        corpus = batch_corpus(data, rng)
        alone = pool_data(data.dc, data.tau_max)
        answered = [(q, outcome(parcorr_test, q, alone)) for q in corpus]
        answered = [(q, s) for q, s in answered if not isinstance(s, type)]
        yield p, data, [q for q, _ in answered], [s for _, s in answered]
        n_batches += 1


def edge_batches():
    """Panels and queries of the named edge cases (``TestCoverage``,
    ``TestScalarPair``, ``TestBatch``): empty time groups, a single
    dataset, ``x`` in the span of ``z``, a collinear ``z`` (the eigh
    fallback), the df floor and a constant column."""
    out = []
    data = panel()  # the lag-4 selector empties the first two time groups
    out.append((data, [((data.time_dummy, 0), (0, 0), ((1, 4),))]))
    data = panel(M=1, T=40)
    out.append((data, [((data.time_dummy, 0), (0, 0), ()),
                       ((data.space_dummy, 0), (0, 0), ()),
                       ((0, 1), (1, 0), ((4, 0), (data.space_dummy, 0)))]))
    for copy in ("duplicate", "affine"):
        system = np.random.default_rng(3).standard_normal((4, 20, 3))
        system[:, :, 2] = system[:, :, 0] if copy == "duplicate" else 2.0 * system[:, :, 0] - 1.5
        data = panel(system=system)
        zs = (((2, 1),), ((2, 1), (data.time_dummy, 0)), ((3, 0), (2, 1)))
        out.append((data, [(x, y, z) for z in zs
                           for x, y in (((0, 1), (1, 0)), ((1, 0), (0, 1)))]))
        system = np.random.default_rng(6).standard_normal((4, 20, 4))
        system[:, :, 3] = system[:, :, 0] if copy == "duplicate" else 2.0 * system[:, :, 0] - 1.5
        data = panel(system=system)
        out.append((data, [(x, (2, 0), ((0, 1), (3, 1)))
                           for x in ((1, 0), (data.time_dummy, 0), (data.space_dummy, 0))]))
    for T in (7, 8):
        system = np.random.default_rng(5).standard_normal((1, T, 5))
        data = panel(tau_max=0, spatial=0, system=system)
        out.append((data, [((0, 0), (1, 0), ((2, 0), (3, 0), (4, 0)))]))
    system = np.random.default_rng(4).standard_normal((4, 20, 3))
    system[:, :, 1] = 2.5
    data = panel(system=system)
    out.append((data, [(x, y, z) for z in ((), ((2, 1),), ((2, 1), (data.space_dummy, 0)))
                       for x, y in (((0, 1), (1, 0)), ((1, 2), (0, 0)))]))
    return out


class TestBatch:
    """``parcorr_batch`` against one ``parcorr_test`` call per query."""

    def test_batch_is_bitwise_the_single_path_and_matches_reference(self):
        n_pairs = n_endpoints = n_collinear = 0
        for p, data, queries, expected in seeded_batches():
            batch = citests.parcorr_batch(queries, data)
            assert batch == expected
            for query, result in zip(queries, batch):
                assert_equivalent(data, query, new=result)
            endpoints = sum(data.var_roles[x[0]].is_dummy for x, _, _ in queries)
            n_endpoints += endpoints
            n_pairs += len(queries) - endpoints
            if p["collinear"] in ("duplicate", "affine"):
                # a z holding a column and its copy counts one of them
                n_sys = data.n_system
                result = dict(zip(queries, batch))[
                    ((1, 0), (2, 0), ((0, 1), (n_sys - 1, 1)))]
                assert result.df == result.n_effective - 3, p
                n_collinear += 1
        assert n_pairs > 500 and n_endpoints > 200 and n_collinear > 3

    def test_group_finishes_are_bitwise_the_per_query_finish(self, monkeypatch):
        # every result of the seeded corpus and of the edge cases, finished
        # per group, against the finish of one query at a time it replaced,
        # with z as a tuple and as the list a discovery asks
        eigh_sums, calls = citests._eigh_sums, []
        monkeypatch.setattr(citests, "_eigh_sums",
                            lambda case: calls.append(case) or eigh_sums(case))
        batches = [(data, queries) for _, data, queries, _ in seeded_batches()]
        results, fallbacks = [], []
        for data, queries in batches + edge_batches():
            expected = per_query_parcorr_batch(queries, data)
            del calls[:]
            batch = citests.parcorr_batch(queries, data)
            assert batch == expected
            results += batch
            fallbacks += calls
            assert citests.parcorr_batch([(x, y, list(z)) for x, y, z in queries],
                                         data) == expected
        assert sum(r.degenerate for r in results) > 200 and len(results) > 3000
        assert len(fallbacks) > 300 and sum(bool(case[0].dummy) for case in fallbacks) > 40

    def test_batch_hands_its_queries_to_the_kernel(self, monkeypatch):
        # ParCorrCI.batch passes the query objects it is given, not copies
        data, asked, batch = panel(), [], citests.parcorr_batch
        monkeypatch.setattr(citests, "parcorr_batch",
                            lambda queries, d: asked.extend(queries) or batch(queries, d))
        queries = [((0, 1), (1, 0), [(2, 3)]), ((data.time_dummy, 0), (1, 0), ((2, 3),))]
        ParCorrCI(data).batch(queries)
        assert len(asked) == 2 and all(a is q for a, q in zip(asked, queries))

    def test_own_dummy_checked_once_per_query(self, monkeypatch):
        # a discovery checks each query with a dummy in z for a context
        # conditioned on its own dummy once, and no query without one
        check, calls = citests._check_dummies, []
        monkeypatch.setattr(citests, "_check_dummies",
                            lambda *args: calls.append(args) or check(*args))
        asked, batch = [], citests.parcorr_batch
        monkeypatch.setattr(citests, "parcorr_batch",
                            lambda queries, d: asked.extend(queries) or batch(queries, d))
        spec, _ = generate_random_model(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                        frac_observed=0.5, seed=2, max_lag=2)
        test = ParCorrCI(pool_data(simulate(spec, M=4, T=40, seed=102), 2))
        j_pcmciplus(test, tau_max=2, alpha=0.05)
        dummies = {(test.data.time_dummy, 0), (test.data.space_dummy, 0)}
        with_dummy = [q for q in asked if not dummies.isdisjoint(q[2])]
        assert test.n_tests > 100 and len(with_dummy) > 5
        assert len(calls) == len(with_dummy)

    @pytest.mark.parametrize("copy, endpoint", [
        pytest.param("duplicate", None, id="duplicate"),
        pytest.param("affine", None, id="affine"),
        pytest.param("duplicate", "time", id="duplicate-time"),
        pytest.param("affine", "time", id="affine-time"),
        pytest.param("duplicate", "space", id="duplicate-space"),
        pytest.param("affine", "space", id="affine-space")])
    def test_collinear_z_falls_back_to_the_numerical_rank(self, copy, endpoint):
        system = np.random.default_rng(6).standard_normal((4, 20, 4))
        system[:, :, 3] = system[:, :, 0] if copy == "duplicate" else 2.0 * system[:, :, 0] - 1.5
        data = panel(system=system)
        x = {None: (1, 0), "time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
        query = (x[endpoint], (2, 0), ((0, 1), (3, 1)))
        result = citests.parcorr_batch([query], data)[0]
        assert result == parcorr_test(query, data)
        ref = assert_equivalent(data, query, new=result)
        # the pseudo-inverse counts one of the two z columns
        assert ref.df == 4 * 18 - 1 - 1 - 1 and not ref.degenerate

    def test_single_query_batch(self):
        data = panel()
        query = ((0, 1), (1, 0), ((2, 3), (data.time_dummy, 0)))
        assert citests.parcorr_batch([query], data) == [parcorr_test(query, data)]
        assert citests.parcorr_batch([], data) == []

    def test_batch_answers_every_query_itself(self, monkeypatch):
        # dummy endpoints included: a wrapper around parcorr_test and
        # parcorr_batch sees each query of a batch once
        data = panel()
        queries = [((data.time_dummy, 0), (1, 0), ((2, 3),)),
                   ((0, 1), (data.space_dummy, 0), ())]
        expected = [parcorr_test(query, data) for query in queries]
        monkeypatch.setattr(citests, "parcorr_test", None)
        assert citests.parcorr_batch(queries, data) == expected

    def test_batch_raises_the_single_path_error(self):
        # and names the query it refused, asked through ParCorrCI or not
        data = panel()
        fine = ((0, 1), (1, 0), ((2, 3),))
        for bad, error in ((((3, 0), (1, 0), ((data.time_dummy, 0),)),
                            QueryError),
                           (((0, 5), (1, 0), ()), SelectionError),
                           (((0, 1), (1, 0), ((2, 3), (9, 0))),
                            SelectionError),
                           (((5, 0), (6, 0), ()), QueryError)):
            assert error_type(parcorr_test, bad, data) is error
            named = re.escape(" (query x={} y={} z={})".format(*bad)) + "$"
            with pytest.raises(error, match=named):
                citests.parcorr_batch([fine, bad, fine], data)
            for z_form in (tuple, list):  # a discovery asks z as a list
                with pytest.raises(error, match=named):
                    ParCorrCI(data).batch([(x, y, z_form(z)) for x, y, z in (fine, bad, fine)])

    def test_own_dummy_refused_unless_constant(self):
        data = panel()
        # temporal context 3 given the time dummy, spatial context 4 given
        # the space dummy, on either side and beside other conditions
        for query in (((3, 0), (1, 0), ((data.time_dummy, 0),)),
                      ((1, 0), (3, 2), ((0, 1), (data.time_dummy, 0))),
                      ((data.time_dummy, 0), (4, 0), ((data.space_dummy, 0),))):
            with pytest.raises(QueryError, match="own kind"):
                parcorr_test(query, data)
            assert error_type(lstsq_parcorr_test, query, data) is QueryError
        # the other kind's dummy is a test like any other
        assert not parcorr_test(((3, 0), (1, 0), ((data.space_dummy, 0),)), data).degenerate
        # a single dataset's space dummy is a constant block: the spatial
        # context given it stays a degenerate test
        single = panel(M=1, T=20)
        query = ((4, 0), (1, 0), ((single.space_dummy, 0),))
        assert parcorr_test(query, single).degenerate
        assert citests.parcorr_batch([query], single) == [lstsq_parcorr_test(query, single)]
