"""The Gram-statistics ParCorr kernel against the dense least-squares reference.

``parcorr_test`` works from cached cross-products; ``lstsq_parcorr_test``
(``reference_kernel.py``) residualizes the extracted columns of every test.
On random panels and queries both must raise the same error or agree on
``n_effective``, ``df`` and the degenerate flag exactly and on the statistic
and p-value to 1e-9 relative.  The statistic gets an absolute floor of
1e-12: a correlation near zero is a difference of cross-products of size
``n``, which neither kernel resolves below that.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jtscd.citests import CIQuery, ParCorrCI, QueryError, parcorr_test
from jtscd.pooling import SelectionError, pool_data
from jtscd.scm import DatasetCollection

from reference_kernel import lstsq_parcorr_test

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
    kx = min(p["kx"], len(picks) - 1)
    ky = min(p["ky"], len(picks) - kx)
    x, y = picks[:kx], picks[kx:kx + ky]
    z = picks[kx + ky:kx + ky + p["kz"]]
    dummies = {"time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
    if p["endpoint"]:
        # the dummy takes the place of one x selector
        x = [dummies[p["endpoint"]]] + x[1:]
    z += [dummies[k] for k in p["z_dummies"] if k != p["endpoint"]]
    return CIQuery(x=tuple(x), y=tuple(y), z=tuple(z))


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


def outcome(kernel, query, data, correction):
    try:
        return kernel(query, data, correction=correction)
    except (QueryError, SelectionError) as exc:
        return type(exc)


def assert_equivalent(data, query, correction="bonferroni"):
    new = outcome(parcorr_test, query, data, correction)
    ref = outcome(lstsq_parcorr_test, query, data, correction)
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
    """The query cut to its first scalar x and first y, or None."""
    xs = [s for s in query.x if not data.var_roles[s[0]].is_dummy]
    if not xs:
        return None
    return CIQuery(x=xs[:1], y=query.y[:1], z=query.z)


def test_seeded_corpus_matches_reference():
    rng = np.random.default_rng(20260418)
    kinds = {"tested": 0, "degenerate": 0, "error": 0, "endpoint": 0}
    pairs = {"tested": 0, "degenerate": 0, "error": 0}
    for _ in range(400):
        p = random_params(rng)
        data, query = build_case(p)
        for correction in ("bonferroni", "none"):
            ref = assert_equivalent(data, query, correction)
        if ref is None:
            kinds["error"] += 1
        elif ref.degenerate:
            kinds["degenerate"] += 1
        else:
            kinds["tested"] += 1
            kinds["endpoint"] += p["endpoint"] is not None
        # the same panel and z with one scalar on each side: the pair path
        pair = scalar_pair(query, data)
        if pair is not None:
            for correction in ("bonferroni", "none"):
                ref = assert_equivalent(data, pair, correction)
            pairs["error" if ref is None else
                  "degenerate" if ref.degenerate else "tested"] += 1
    # the corpus exercises every outcome, not only the easy one
    assert kinds["tested"] > 150 and kinds["endpoint"] > 50
    assert kinds["degenerate"] > 20 and kinds["error"] > 5
    assert pairs["tested"] > 150 and pairs["degenerate"] > 20 and pairs["error"] > 5


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
        ref = assert_equivalent(data, CIQuery(x=((0, 1),), y=((1, 0),), z=z))
        assert ref.n_effective == 4 * (20 - 4)

    @pytest.mark.parametrize("endpoint,other", [("time", "space"), ("space", "time")])
    def test_dummy_endpoints(self, endpoint, other):
        data = panel()
        dummies = {"time": (data.time_dummy, 0), "space": (data.space_dummy, 0)}
        for z in (((2, 3),), ((2, 3), dummies[other]), ((4, 0), (1, 2))):
            assert_equivalent(data, CIQuery(x=(dummies[endpoint],), y=((0, 0),), z=z))
            assert_equivalent(data, CIQuery(x=((0, 0),), y=(dummies[endpoint],), z=z))

    def test_bonferroni_counts_empty_time_groups(self):
        # the lag-4 selector empties the first two of the 18 time groups
        data = panel()
        query = CIQuery(x=((data.time_dummy, 0),), y=((0, 0),), z=((1, 4),))
        raw = parcorr_test(query, data, correction="none")
        combined = assert_equivalent(data, query)
        assert combined.p_value == pytest.approx(min(1.0, 18 * raw.p_value), rel=1e-12)

    def test_single_dataset_dummies(self):
        data = panel(M=1, T=40)
        for dummy in (data.time_dummy, data.space_dummy):
            ref = assert_equivalent(data, CIQuery(x=((dummy, 0),), y=((0, 0),)))
            assert ref.degenerate
        # a single dataset's space dummy in z is an intercept; the spatial
        # context is then a constant column, absorbed into it
        ref = assert_equivalent(data, CIQuery(
            x=((0, 1),), y=((1, 0),), z=((4, 0), (data.space_dummy, 0))))
        assert ref.df == 38 - 1 - 1

    def test_spatial_context_zeroed_by_space_dummy(self):
        data = panel()
        ref = assert_equivalent(data, CIQuery(
            x=((0, 1),), y=((1, 0),), z=((4, 0), (data.space_dummy, 0))))
        assert ref.df == 4 * 18 - 4 - 1
        assert assert_equivalent(data, CIQuery(
            x=((4, 0),), y=((1, 0),), z=((data.space_dummy, 0),))).degenerate

    def test_rank_deficient_z(self):
        data = panel(spatial=2, M=2)
        # on two datasets, two spatial contexts and the intercept span the
        # two dataset indicators only: the second context adds no rank
        ref = assert_equivalent(data, CIQuery(
            x=((0, 1),), y=((1, 0),), z=((4, 0), (5, 0))))
        assert ref.df == 2 * 18 - 2 - 1

    def test_multi_selector_sides(self):
        data = panel()
        assert_equivalent(data, CIQuery(x=((0, 1), (2, 2)), y=((1, 0), (4, 1)),
                                        z=((3, 0), (data.time_dummy, 0))))
        assert_equivalent(data, CIQuery(x=((data.space_dummy, 0), (2, 2)),
                                        y=((1, 0),), z=((3, 0),)))


class TestScalarPair:
    """Each early return of the one-scalar-x, one-scalar-y path."""

    @pytest.mark.parametrize("copy", ["duplicate", "affine"])
    def test_x_in_span_of_z(self, copy):
        system = np.random.default_rng(3).standard_normal((4, 20, 3))
        system[:, :, 2] = system[:, :, 0] if copy == "duplicate" else 2.0 * system[:, :, 0] - 1.5
        data = panel(system=system)
        for z in (((2, 1),), ((2, 1), (data.time_dummy, 0)), ((3, 0), (2, 1))):
            ref = assert_equivalent(data, CIQuery(x=((0, 1),), y=((1, 0),), z=z))
            assert ref.degenerate and ref.df > 0
            # the span guard trips on either side
            assert assert_equivalent(data, CIQuery(x=((1, 0),), y=((0, 1),), z=z)).degenerate

    def test_constant_column(self):
        system = np.random.default_rng(4).standard_normal((4, 20, 3))
        system[:, :, 1] = 2.5
        data = panel(system=system)
        for z in ((), ((2, 1),), ((2, 1), (data.space_dummy, 0))):
            assert assert_equivalent(data, CIQuery(x=((0, 1),), y=((1, 0),), z=z)).degenerate
            assert assert_equivalent(data, CIQuery(x=((1, 2),), y=((0, 0),), z=z)).degenerate

    def test_df_floor(self):
        # df < 1 cannot reach the pair path: the sample check (n > z columns
        # + 3) leaves df >= 2, reached at n = z columns + 4 with a full-rank z
        z = ((2, 0), (3, 0), (4, 0))
        for T, df in ((7, 2), (8, 3)):
            system = np.random.default_rng(5).standard_normal((1, T, 5))
            data = panel(tau_max=0, spatial=0, system=system)
            ref = assert_equivalent(data, CIQuery(x=((0, 0),), y=((1, 0),), z=z))
            assert ref.df == df and not ref.degenerate
        system = np.random.default_rng(5).standard_normal((1, 6, 5))
        data = panel(tau_max=0, spatial=0, system=system)
        with pytest.raises(QueryError, match="too few samples"):
            parcorr_test(CIQuery(x=((0, 0),), y=((1, 0),), z=z), data)


def error_type(kernel, query, data):
    try:
        kernel(query, data)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


# panel(): system 0-2, temporal context 3, spatial context 4, dummies 5 and 6
INVALID = {
    "var past the end in x": (((7, 0),), ((1, 0),), ()),
    "var past the end in z": (((0, 0),), ((1, 0),), ((9, 1),)),
    "negative var": (((0, 0),), ((-1, 0),), ()),
    "negative var aliasing a lagged column": (((0, 0),), ((1, 0),), ((-7, 3),)),
    "lag past 2 tau_max": (((0, 5),), ((1, 0),), ()),
    "lag past 2 tau_max in z": (((0, 0),), ((1, 0),), ((2, 5),)),
    "negative lag": (((0, -1),), ((1, 0),), ()),
    "spatial context at a lag": (((4, 1),), ((1, 0),), ()),
    "time dummy at a lag": (((0, 0),), ((1, 0),), ((5, 1),)),
    "space dummy at a lag": (((6, 2),), ((1, 0),), ()),
}


class TestErrorParity:
    """Selectors outside the table fail as the validating path always has."""

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_selector(self, case):
        data = panel()
        x, y, z = INVALID[case]
        query = CIQuery(x=x, y=y, z=z)
        expected = error_type(lstsq_parcorr_test, query, data)
        assert expected is not None
        assert error_type(parcorr_test, query, data) is expected

    def test_too_few_samples(self):
        data = panel(M=1, T=10)
        query = CIQuery(x=((0, 0),), y=((1, 0),), z=((2, 0), (3, 0), (0, 1), (1, 1), (2, 1)))
        assert error_type(lstsq_parcorr_test, query, data) is QueryError
        assert error_type(parcorr_test, query, data) is QueryError

    def test_dummy_on_both_sides(self):
        data = panel()
        with pytest.raises(QueryError, match="once only"):
            parcorr_test(CIQuery(x=((5, 0),), y=((6, 0),)), data)

    def test_degenerate_endpoint_answers_before_a_bad_z(self):
        # a single dataset's space dummy is degenerate; the verdict comes
        # before z is validated, as it always has
        data = panel(M=1, T=20)
        query = CIQuery(x=((6, 0),), y=((1, 0),), z=((2, 5),))
        assert parcorr_test(query, data) == lstsq_parcorr_test(query, data)
        assert parcorr_test(query, data).degenerate

    def test_invalid_selector_raises_on_every_use(self):
        data = panel()
        test = ParCorrCI(data)
        table = dict(data.selectors)
        for case in sorted(INVALID):
            x, y, z = INVALID[case]
            expected = error_type(lstsq_parcorr_test, CIQuery(x=x, y=y, z=z), data)
            for _ in range(2):
                with pytest.raises(expected):
                    test(x[0], y[0], z)
                assert not test((0, 1), (1, 0), ((2, 1),)).degenerate
        assert dict(data.selectors) == table
