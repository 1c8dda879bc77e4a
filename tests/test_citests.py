"""Partial-correlation test behaviour and the exact graph oracle."""

import copy
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import jtscd
from jtscd import citests
from jtscd.citests import (CIQuery, GraphOracle, ParCorrCI, QueryError, _t_tail,
                           _tail_polynomials, parcorr_test)
from jtscd.discovery import j_pcmciplus
from jtscd.graph import (GraphStructureError, GroundTruthGraph, TimeSeriesGraph,
                         VariableRole, d_separated)
from jtscd.pooling import SelectionError, build_space_dummy, build_time_dummy, pool_data
from jtscd.scm import DatasetCollection, generate_random_model, simplified_preset, simulate

from reference_kernel import centered_parcorr_test
from test_acceptance import criterion1_instances

R = VariableRole


def pooled_from_array(system, M=1, temporal=None, spatial=None, mask=(),
                      tau_max=0):
    """Wrap raw arrays (M, T, k) into a pooled view for direct testing."""
    system = np.asarray(system, dtype=float)
    T = system.shape[1]
    temporal = temporal if temporal is not None else np.zeros((T, 0))
    spatial = spatial if spatial is not None else np.zeros((system.shape[0], 0))
    dc = DatasetCollection(system=system, temporal_ctx=temporal,
                           spatial_ctx=spatial, observed_mask=tuple(mask))
    return pool_data(dc, tau_max)


# (x, y, z, QueryError message): x and y single selectors, () for an empty side
MALFORMED_QUERIES = (
    ((0, 0), (0, 0), (), "x and y overlap"),
    ((0, 0), (1, 0), ((0, 0),), "conditioning set overlaps the tested pair"),
    ((0, 0), (1, 0), ((2, 0), (1, 0)), "conditioning set overlaps the tested pair"),
    ([0, 0], (0, 0), (), "x and y overlap"),
    ((0, 0), [1, 0], ([2, 0], [0, 0]), "conditioning set overlaps the tested pair"),
    ((), (1, 0), (), "x and y must be non-empty"),
    ((0, 0), (), ((2, 0),), "x and y must be non-empty"),
)


# (x, y, z, ParCorr's SelectionError, the oracle's QueryError) for queries
# whose selectors are not valid (var, lag) pairs of a four-variable model
MALFORMED_SELECTORS = (
    ((0,), (1, 0), (), r"selector \(0,\) out of range",
     r"selector \(0,\) is not a \(var, lag\) pair"),
    ((0, 0, 0), (1, 0), (), r"selector \(0, 0, 0\) out of range",
     r"selector \(0, 0, 0\) is not a \(var, lag\) pair"),
    ((0, 0), (1, -1), (), r"selector \(1, -1\) out of range",
     "lag -1 outside the unrolled window 4"),
    ((0, 0), (1, 0), ((2,),), r"selector \(2,\) out of range",
     r"selector \(2,\) is not a \(var, lag\) pair"),
)


def named(x, y, z=()):
    """The pattern of the end of a message that refuses the single-selector
    query ``(x, y, z)``."""
    query = ((tuple(x),), (tuple(y),), tuple(map(tuple, z)))
    return re.escape(" (query x={} y={} z={})".format(*query))


def null_pool(seed, n=100, k=3):
    rng = np.random.default_rng(seed)
    return pooled_from_array(rng.standard_normal((1, n, k)))


class TestParCorr:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        pd = pooled_from_array(np.stack([x, x], axis=1)[None, :, :])
        res = parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),)), pd)
        assert res.statistic > 0.999
        assert res.p_value < 1e-30

    def test_null_calibration(self):
        rejections = 0
        n_trials = 1000
        for seed in range(n_trials):
            pd = null_pool(seed, n=60)
            res = parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0),)), pd)
            rejections += res.p_value <= 0.05
        rate = rejections / n_trials
        assert 0.03 <= rate <= 0.07

    def test_chain_conditioning(self):
        reject_given_mid = reject_marginal = 0
        n_seeds = 60
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed + 10_000)
            n = 2000
            x = rng.standard_normal(n)
            y = 0.8 * x + rng.standard_normal(n)
            z = 0.8 * y + rng.standard_normal(n)
            pd = pooled_from_array(np.stack([x, y, z], axis=1)[None, :, :])
            given_mid = parcorr_test(
                CIQuery(x=((0, 0),), y=((2, 0),), z=((1, 0),)), pd)
            marginal = parcorr_test(CIQuery(x=((0, 0),), y=((2, 0),)), pd)
            reject_given_mid += given_mid.p_value <= 0.05
            reject_marginal += marginal.p_value <= 0.05
        assert reject_given_mid / n_seeds < 0.10
        assert reject_marginal / n_seeds > 0.95

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((1, 200, 3))
        scaled = base * np.array([3.7, -0.2, 11.0]) + np.array([1.0, -4.0, 0.5])
        q = CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0),))
        a = parcorr_test(q, pooled_from_array(base))
        b = parcorr_test(q, pooled_from_array(scaled))
        assert abs(a.statistic - b.statistic) < 1e-10
        assert abs(a.p_value - b.p_value) < 1e-10

    def test_symmetry_in_x_and_y(self):
        pd = null_pool(17, n=80)
        a = parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0),)), pd)
        b = parcorr_test(CIQuery(x=((1, 0),), y=((0, 0),), z=((2, 0),)), pd)
        assert abs(a.statistic - b.statistic) < 1e-12
        assert abs(a.p_value - b.p_value) < 1e-12

    def test_pvalues_uniform_under_null(self):
        pvals = [parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),)),
                              null_pool(seed, n=40, k=2)).p_value
                 for seed in range(2000)]
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_zero_variance_is_degenerate_independence(self):
        arr = np.ones((1, 50, 2))
        arr[0, :, 1] = np.arange(50.0)
        pd = pooled_from_array(arr)
        res = parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),)), pd)
        assert res.degenerate and res.p_value == 1.0

    def test_degenerate_dummy_short_circuit(self):
        spec, _ = generate_random_model(n_system=2, seed=0, max_lag=2)
        dc = simulate(spec, M=1, T=30, seed=1)
        pd = pool_data(dc, 2)
        res = parcorr_test(
            CIQuery(x=((pd.space_dummy, 0),), y=((0, 0),)), pd)
        assert res.degenerate and res.p_value == 1.0

    def test_rank_deficient_conditioning_uses_effective_rank(self):
        # duplicated conditioning column must not change the p-value
        pd = null_pool(23, n=120, k=4)
        base = parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0),)), pd)
        rng = np.random.default_rng(23)
        raw = rng.standard_normal((1, 120, 4))
        dup = np.concatenate([raw, raw[:, :, 2:3]], axis=2)
        pd_dup = pooled_from_array(dup)
        two = parcorr_test(
            CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0), (4, 0))), pd_dup)
        assert abs(base.p_value - two.p_value) < 1e-9

    def test_small_sample_precondition(self):
        pd = null_pool(2, n=5, k=4)
        with pytest.raises(QueryError):
            parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),),
                                 z=((2, 0), (3, 0))), pd)

    def test_query_validation(self):
        # every malformed query fails in the one validating constructor,
        # built directly or by either CI test from single selectors; the
        # ParCorr kernel, which validates a plain query as it looks it up,
        # hands it to that constructor in any form it is asked in
        data = null_pool(0, k=4)
        parcorr = ParCorrCI(data)
        oracle = GraphOracle(GroundTruthGraph([R.SYSTEM] * 4, 1), 1)

        def asked(x, y, z):
            listed = ([list(x)], [list(y)], [list(s) for s in z])
            return (lambda: parcorr.batch([(x, y, z)]),
                    lambda: parcorr.batch([(x, y, iter(z))]),
                    lambda: parcorr.batch([(list(x), list(y), listed[2])]),
                    lambda: citests.parcorr_batch([((x,), (y,), list(z))], data),
                    lambda: citests.parcorr_batch([listed], data))

        # and each refusal ends by naming the query
        for x, y, z, message in MALFORMED_QUERIES:
            with pytest.raises(QueryError, match=f"^{message}{named(x, y, z)}$") as direct:
                CIQuery(x=(x,), y=(y,), z=z)
            for ask in asked(x, y, z) + (lambda: oracle.batch([(x, y, z)]),):
                with pytest.raises(QueryError) as called:
                    ask()
                assert str(called.value) == str(direct.value), (x, y, z)
        # a selector that is no valid (var, lag) pair is named by both tests
        for x, y, z, selection_message, query_message in MALFORMED_SELECTORS:
            for ask in asked(x, y, z):
                with pytest.raises(SelectionError,
                                   match=f"^{selection_message}{named(x, y, z)}$"):
                    ask()
            with pytest.raises(QueryError, match=f"^{query_message}{named(x, y, z)}$"):
                oracle.batch([(x, y, z)])

    def test_query_takes_one_selector_per_side(self):
        for x, y in ((((0, 0), (2, 0)), ((1, 0),)), (((0, 0),), ((1, 0), (2, 1)))):
            with pytest.raises(QueryError, match="x and y must be one selector each"):
                CIQuery(x=x, y=y, z=((3, 0),))

    def test_query_fields_are_tuples_and_frozen(self):
        q = CIQuery(x=([0, 0],), y=[(1, 0)], z=[[2, 0], (3, 0)])
        assert (q.x, q.y, q.z) == tuple(q) == (((0, 0),), ((1, 0),), ((2, 0), (3, 0)))
        assert q == CIQuery(((0, 0),), ((1, 0),), ((2, 0), (3, 0)))
        assert hash(q) == hash(CIQuery(((0, 0),), ((1, 0),), ((2, 0), (3, 0))))
        assert q != CIQuery(((0, 0),), ((1, 0),), ((2, 0),))
        with pytest.raises(AttributeError):
            q.z = ()
        assert pickle.loads(pickle.dumps(q)) == copy.deepcopy(q) == q
        pd = null_pool(4, k=4)
        assert parcorr_test(q, pd) == ParCorrCI(pd).batch([([0, 0], (1, 0), [[2, 0], (3, 0)])])[0]

    def test_query_error_excludes_tested_pair_lags(self):
        # deep-lag conditioning drops rows but keeps the test well defined
        spec, _ = generate_random_model(n_system=3, seed=5, max_lag=2)
        dc = simulate(spec, M=3, T=40, seed=6)
        pd = pool_data(dc, 2)
        res = parcorr_test(
            CIQuery(x=((0, 1),), y=((1, 0),), z=((2, 3),)), pd)
        assert res.n_effective == 3 * (40 - 3)


def test_discovery_does_not_import_scipy_linalg():
    # importing scipy.special costs more start-up time than most discoveries
    # and scipy.linalg about 6 MB of resident memory; with ``scipy`` blocked
    # in ``sys.modules`` every SciPy import fails, so the package, a lagged
    # J-PCMCI+ and a lag-free J-PC discovery with ParCorr must need none
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from jtscd import estimate_graph, generate_random_model, simulate\n"
        "spec, _ = generate_random_model(seed=0, max_lag=2)\n"
        "dc = simulate(spec, M=3, T=30, seed=1)\n"
        "estimate_graph(dc, variant='jpcmci+', tau_max=2)\n"
        "estimate_graph(dc, variant='jpcmci+', tau_max=0)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('scipy') and sys.modules[m] is not None))\n")
    src = str(Path(jtscd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


class TestStudentTail:
    """``_t_tail`` against ``scipy.special.stdtr``, the function it replaces."""

    DFS = (*range(1, 41), 49, 50, 51, 99, 100, 101, 220, 562, 1000, 9958,
           10 ** 5, 10 ** 6)

    @staticmethod
    def abscissae(df):
        """|t| grid: 0, a linspace to 10, a geomspace to 1e3 and the
        two-sided critical values of alpha = 0.05 / k."""
        critical = [stats.t.isf(0.05 / k / 2, df) for k in (1, 2, 10, 100, 1000)]
        grid = np.concatenate(([0.0], np.linspace(0, 10, 201),
                               np.geomspace(1e-3, 1e3, 301), critical))
        return sorted(set(grid.tolist()))

    @pytest.mark.parametrize("df", DFS)
    def test_matches_stdtr(self, df):
        n_normal = 0
        previous = 1.0
        for t in self.abscissae(df):
            p = _t_tail(t, df)
            expected = 2.0 * float(special.stdtr(float(df), -t))
            if expected == 0.0:
                assert p == 0.0, (t, p)
            elif expected >= sys.float_info.min:
                assert abs(p - expected) <= 1e-12 * expected, (t, p, expected)
                n_normal += 1
            # never subnormal: below the smallest normal float, where stdtr
            # turns to 0, an unflushed tail would give values like 4.5e-317
            assert p == 0.0 or p >= sys.float_info.min, (t, p)
            assert p <= previous, (t, p, previous)  # not increasing in |t|
            previous = p
        assert _t_tail(0.0, df) == 1.0
        assert n_normal > 100

    def test_cold_and_warm_cache_agree_bitwise(self):
        points = [(df, t) for df in (100, 220, 562, 9958, 10 ** 6)
                  for t in (0.5, 2.0, 5.8, 19.0, 0.2 * df ** 0.5)]
        _tail_polynomials.cache_clear()
        cold = []
        for df, t in points:
            cold.append(_t_tail(t, df))
            _tail_polynomials.cache_clear()
        warm = [_t_tail(t, df) for df, t in points]
        assert [p.hex() for p in cold] == [p.hex() for p in warm]

    @pytest.mark.parametrize("df", (1, 500, 9958))
    def test_overflowing_t_squared(self, df):
        # t * t overflows to inf: the tail is 0.0, as stdtr's
        for t in (1e155, 1e300, math.inf):
            for signed in (t, -t):
                assert _t_tail(signed, df) == 0.0, signed
                assert 2.0 * float(special.stdtr(float(df), -abs(signed))) == 0.0

    @pytest.mark.parametrize("df", (1, 500, 9958))
    def test_nan_t(self, df):
        with pytest.raises(ValueError, match="NaN"):
            _t_tail(math.nan, df)


class TestDummyConditioningEquivalence:
    def test_block_conditioning_equals_group_centering(self):
        spec, _ = simplified_preset()
        dc = simulate(spec, M=6, T=60, seed=3)
        pd = pool_data(dc, 2)
        rng = np.random.default_rng(7)
        n_checked = 0
        for _ in range(300):
            x = (int(rng.integers(2)), int(rng.integers(3)))
            y = (int(rng.integers(2)), 0)
            if x[0] == y[0] and x[1] == y[1]:
                continue
            blocked = parcorr_test(
                CIQuery(x=(x,), y=(y,), z=((pd.space_dummy, 0),)), pd)
            centered = centered_parcorr_test(x, y, pd, groups="dataset")
            assert abs(blocked.statistic - centered.statistic) < 1e-9
            assert abs(blocked.p_value - centered.p_value) < 1e-9
            assert (blocked.p_value <= 0.05) == (centered.p_value <= 0.05)
            n_checked += 1
        assert n_checked > 200

    def test_time_block_conditioning_equals_time_centering(self):
        spec, _ = simplified_preset()
        dc = simulate(spec, M=6, T=40, seed=9)
        pd = pool_data(dc, 2)
        blocked = parcorr_test(
            CIQuery(x=((0, 0),), y=((1, 0),), z=((pd.time_dummy, 0),)), pd)
        centered = centered_parcorr_test((0, 0), (1, 0), pd, groups="time")
        assert abs(blocked.p_value - centered.p_value) < 1e-9

    def test_two_way_blocks_on_dropped_rows_match_dense_lstsq(self):
        # a lag-2*tau_max conditioning selector drops the first rows of every
        # dataset, so some time-dummy columns are empty; the df must count
        # the rank of the design actually used, as dense least squares does
        spec, _ = simplified_preset()
        M, T, tau_max = 6, 40, 2
        pd = pool_data(simulate(spec, M=M, T=T, seed=12).mask_all_latent(),
                       tau_max)
        dummies = ((pd.time_dummy, 0), (pd.space_dummy, 0))
        for x, y, scalars in (((0, 1), (1, 0), ((1, 4),)),
                              ((1, 2), (1, 0), ((1, 1), (0, 4))),
                              ((0, 3), (0, 0), ((1, 4), (1, 1), (0, 2)))):
            res = parcorr_test(CIQuery(x=(x,), y=(y,), z=scalars + dummies),
                               pd)
            cols, rows = pd.extract_aligned([x, y] + list(scalars))
            n = len(rows)
            assert n == res.n_effective == M * (T - 2 * tau_max)
            design = np.hstack([
                np.ones((n, 1)),
                build_time_dummy(T, tau_max, pd.time_index[rows]),
                build_space_dummy(M, pd.dataset_index[rows]),
                cols[:, 2:]])
            rank = np.linalg.matrix_rank(design)
            assert rank == (T - 2 * tau_max) + (M - 1) + len(scalars)
            sol = np.linalg.lstsq(design, cols[:, :2], rcond=None)[0]
            resid = cols[:, :2] - design @ sol
            r = np.corrcoef(resid[:, 0], resid[:, 1])[0, 1]
            df = n - rank - 1
            p = 2.0 * stats.t.sf(abs(r) * np.sqrt(df / (1.0 - r ** 2)), df)
            assert abs(res.statistic - abs(r)) < 1e-9
            assert abs(res.p_value - p) < 1e-9


def _spatial_oracle(unroll_depth=None):
    """Oracle over two system variables, an observed spatial context (index
    2) and a latent one, with tau_max 1; unrolled 4 lags deep by default."""
    g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.SPATIAL_CONTEXT,
                          R.LATENT_SPATIAL_CONTEXT], 1)
    g.add_edge(2, 0, 0)
    g.add_edge(3, 1, 0)
    return GraphOracle(g, 1, unroll_depth=unroll_depth)


# (call, message) for each oracle construction or query the oracle refuses;
# a refused query is named at the end of the message
ORACLE_ERRORS = {
    "not a ground-truth graph": (
        lambda: GraphOracle(TimeSeriesGraph([R.SYSTEM] * 2, 1), 1),
        "the oracle needs a ground-truth graph"),
    "not an observed variable": (lambda: _spatial_oracle()((0, 0), (7, 0)),
                                 r"selector \(7, 0\) is not an observed variable"
                                 + named((0, 0), (7, 0))),
    "lagged spatial context": (lambda: _spatial_oracle()((0, 0), (1, 0), [(2, 1)]),
                               r"selector \(2, 1\) must have lag 0"
                               + named((0, 0), (1, 0), [(2, 1)])),
    "lag beyond the window": (lambda: _spatial_oracle()((0, 5), (1, 0)),
                              "lag 5 outside the unrolled window 4" + named((0, 5), (1, 0))),
    "unroll depth below tau_max": (lambda: _spatial_oracle(unroll_depth=0),
                                   "unroll_depth 0 is smaller than tau_max 1"),
    "unroll depth below twice tau_max": (
        lambda: _spatial_oracle(unroll_depth=1),
        r"unroll_depth 1 is smaller than 2 \* tau_max = 2: a discovery shifts "
        r"conditioning sets to lags up to 2 \* tau_max"),
    "negative spatial lag": (lambda: _spatial_oracle()((2, -1), (1, 0)),
                             r"selector \(2, -1\) must have lag 0" + named((2, -1), (1, 0))),
}


@pytest.mark.parametrize("case", sorted(ORACLE_ERRORS))
def test_malformed_oracle_query_is_refused(case):
    call, message = ORACLE_ERRORS[case]
    with pytest.raises(QueryError, match=f"^{message}$"):
        call()


def reference_dummy_endpoint(oracle, dummy, sel, z):
    """The dummy-endpoint answer as one ``d_separated`` call per latent
    context node of the dummy's kind and lag: independent iff every such
    node is d-separated from ``sel`` given ``z`` with each dummy in ``z``
    replaced by every context node of its kind in the window.  A query
    whose ``sel`` lies in that substituted ``z`` is refused, latent nodes
    or none."""
    g, depth = oracle.graph, oracle.depth

    def context_nodes(temporal):
        return {(v, lag) for v, r in enumerate(g.roles)
                if r.is_context and r.is_temporal_kind == temporal
                for lag in (range(depth + 1) if r.is_time_indexed else (0,))}

    zsub = set()
    for (v, lag) in z:
        if v in (oracle.time_dummy, oracle.space_dummy):
            zsub |= context_nodes(v == oracle.time_dummy)
        else:
            zsub.add((oracle.obs_map[v], lag))
    node = (oracle.obs_map[sel[0]], sel[1])
    if node in zsub:
        raise GraphStructureError("x and y must not be part of z")
    for latent in sorted(context_nodes(dummy == oracle.time_dummy)):
        if g.roles[latent[0]].is_latent and not d_separated(
                g, latent, node, zsub, unroll_depth=depth):
            return False
    return True


def _answer(call):
    """Whether a query found independence, or the message it raised."""
    try:
        return call()
    except GraphStructureError as exc:
        return str(exc)


class TestOracle:
    def latent_space_pair(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        return g

    def test_dummy_substitution_conditions_on_all_contexts_of_kind(self):
        g = self.latent_space_pair()
        o = GraphOracle(g, 1)
        dependent = o((0, 0), (1, 0), [])
        independent = o((0, 0), (1, 0), [(o.space_dummy, 0)])
        assert dependent.p_value == 0.0
        assert independent.p_value == 1.0

    def test_dummy_endpoint_with_no_latents_is_independent(self):
        spec, g = generate_random_model(frac_observed=1.0, seed=1, max_lag=2)
        o = GraphOracle(g, 2)
        for j in range(spec.n_system):
            parents = [(o.obs_map.index(v), lag) for (v, c, lag) in g.directed_edges()
                       if c == j and v in o.obs_map]
            assert o((j, 0), (o.space_dummy, 0), parents).p_value == 1.0
            assert o((j, 0), (o.time_dummy, 0), parents).p_value == 1.0

    def test_dummy_endpoint_in_the_substituted_z_is_refused(self):
        # the time dummy against an observed spatial context given the space
        # dummy, which stands for that context: refused whether or not the
        # graph has a latent temporal context
        _, preset = simplified_preset()
        no_latent = GroundTruthGraph([R.SYSTEM, R.TEMPORAL_CONTEXT, R.SPATIAL_CONTEXT], 1)
        no_latent.add_edge(1, 0, 1)
        no_latent.add_edge(2, 0, 0)
        for g in (preset, no_latent):
            o = GraphOracle(g, 1)
            spatial = o.var_roles.index(R.SPATIAL_CONTEXT)
            for x, y in (((o.time_dummy, 0), (spatial, 0)), ((spatial, 0), (o.time_dummy, 0))):
                z = [(o.space_dummy, 0)]
                with pytest.raises(GraphStructureError,
                                   match=f"^x and y must not be part of z{named(x, y, z)}$"):
                    o(x, y, z)
            # so is a scalar context endpoint given the dummy of its own kind
            x, y, z = (spatial, 0), (0, 0), [(o.space_dummy, 0)]
            with pytest.raises(GraphStructureError,
                               match=f"^x and y must not be part of z{named(x, y, z)}$"):
                o(x, y, z)

    def test_default_unroll_depth_is_deep_enough(self):
        # twice the default window (4 * tau_max = 8 lags) changes no graph
        for k, graph in itertools.islice(criterion1_instances(), 30):
            default = j_pcmciplus(GraphOracle(graph, 2), tau_max=2).graph
            deep = GraphOracle(graph, 2, unroll_depth=16)
            assert deep.depth == 2 * GraphOracle(graph, 2).depth
            assert j_pcmciplus(deep, tau_max=2).graph == default, k

    def test_preset_time_dummy_is_dependent(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        res = o((0, 0), (o.time_dummy, 0), [])
        assert res.p_value == 0.0
        assert o((o.time_dummy, 0), (0, 0), []).p_value == 0.0

    def test_dummy_on_both_sides_rejected(self):
        g = self.latent_space_pair()
        o = GraphOracle(g, 1)
        with pytest.raises(QueryError):
            o((o.time_dummy, 0), (o.space_dummy, 0), [])
        # a dummy is one node at lag 0, as in ParCorr's selector table
        with pytest.raises(QueryError, match=rf"selector \({o.time_dummy}, 3\) must have lag 0"):
            o((0, 0), (1, 0), [(o.time_dummy, 3)])
        with pytest.raises(QueryError, match=rf"selector \({o.space_dummy}, 2\) must have lag 0"):
            o((o.space_dummy, 2), (1, 0))

    def test_pass_through_matches_d_separated(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            _, g = generate_random_model(n_system=3, frac_observed=1.0,
                                         seed=seed, max_lag=2)
            o = GraphOracle(g, 2)
            n_obs = o.n_observed
            nodes = [(v, lag) for v in range(n_obs)
                     for lag in (range(3) if o.var_roles[v].is_time_indexed
                                 else (0,))]
            for _ in range(15):
                x, y = [nodes[i] for i in rng.choice(len(nodes), 2,
                                                     replace=False)]
                rest = [nd for nd in nodes if nd not in (x, y)]
                z = [rest[i] for i in
                     rng.choice(len(rest), int(rng.integers(0, 3)),
                                replace=False)]
                expected = d_separated(
                    g, (o.obs_map[x[0]], x[1]), (o.obs_map[y[0]], y[1]),
                    {(o.obs_map[v], lag) for (v, lag) in z},
                    unroll_depth=o.depth)
                got = o(x, y, z).p_value == 1.0
                assert got == expected

    def test_dummy_endpoint_matches_per_latent_node_reference(self):
        rng = np.random.default_rng(5)
        answers = {}
        for seed in range(12):
            _, g = generate_random_model(n_system=3, n_temporal_ctx=2, n_spatial_ctx=2,
                                         frac_observed=0.5, seed=seed, max_lag=2)
            o = GraphOracle(g, 2)
            nodes = [sel for sel in o.selectors if sel[0] < o.n_observed]
            for dummy, other in ((o.time_dummy, o.space_dummy),
                                 (o.space_dummy, o.time_dummy)):
                for _ in range(12):
                    sel = nodes[rng.integers(len(nodes))]
                    rest = [nd for nd in nodes if nd != sel]
                    z = [rest[i] for i in rng.choice(len(rest), int(rng.integers(0, 3)),
                                                     replace=False)]
                    if rng.random() < 0.5:
                        z.append((other, 0))
                    expected = _answer(lambda: reference_dummy_endpoint(o, dummy, sel, z))
                    for x, y in (((dummy, 0), sel), (sel, (dummy, 0))):
                        got = _answer(lambda: o(x, y, z).p_value == 1.0)
                        if isinstance(expected, bool):
                            assert got == expected, (seed, x, y, z)
                        else:  # the oracle's refusal names the query
                            assert isinstance(got, str) and re.fullmatch(
                                re.escape(expected) + named(x, y, z), got), (seed, x, y, z)
                    key = (dummy == o.time_dummy, (other, 0) in z, sel[1] > 2 * o.tau_max)
                    answers.setdefault(key, set()).add(expected)
        # both dummies, z with and without the other dummy, lags past
        # 2 * tau_max: each seen dependent and independent
        assert len(answers) == 8
        assert all({True, False} <= seen for seen in answers.values()), answers

    def test_dummy_endpoint_makes_no_d_separated_call(self, monkeypatch):
        # perfbench/tracing.py counts oracle d-separation through these
        # module globals
        import jtscd.citests as citests
        calls = {"d_separated": 0, "d_connected": 0}

        def counting(name):
            original = getattr(citests, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(citests, name, counting(name))
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        assert o((0, 0), (o.time_dummy, 0), []).p_value == 0.0
        assert o((o.space_dummy, 0), (1, 0), [(o.time_dummy, 0)]).p_value == 0.0
        assert calls == {"d_separated": 0, "d_connected": 2}
        o((0, 0), (1, 0), [(o.space_dummy, 0)])
        assert calls == {"d_separated": 1, "d_connected": 2}

    def test_explicit_unroll_depth_is_kept(self):
        # an unroll depth of 0 is a depth, not a request for the default
        lag_free = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 0)
        assert GraphOracle(lag_free, 0, unroll_depth=0).depth == 0
        assert GraphOracle(self.latent_space_pair(), 1, unroll_depth=2).depth == 2

    def test_n_tests_counts_every_query(self):
        g = self.latent_space_pair()
        o = GraphOracle(g, 1)
        o((0, 0), (1, 0), [])
        o((0, 0), (1, 0), [])
        o([0, 0], [1, 0], [(o.space_dummy, 0)])
        assert o.n_tests == 3

    def test_dummy_in_its_own_conditioning_set_rejected(self):
        o = GraphOracle(self.latent_space_pair(), 1)
        td = o.time_dummy
        with pytest.raises(QueryError, match="conditioning set overlaps the tested pair"):
            o((td, 0), (0, 0), [(td, 0)])
