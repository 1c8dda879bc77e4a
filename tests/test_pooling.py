"""Pooled design matrices, dummy labels, lag-aware extraction."""

import numpy as np
import pytest

from jtscd.citests import parcorr_test
from jtscd.graph import VariableRole
from jtscd.pooling import DUMMY_MODES, SelectionError, pool_data
from jtscd.scm import DatasetCollection, NonFiniteDataError, generate_random_model, simulate

from reference_gram import TESTABLE

R = VariableRole


def small_collection(M=2, T=12, seed=0, frac_observed=1.0):
    spec, _ = generate_random_model(n_system=2, n_temporal_ctx=1,
                                    n_spatial_ctx=1, frac_observed=frac_observed,
                                    seed=seed, max_lag=2)
    return simulate(spec, M=M, T=T, seed=seed + 1)


# (call, error type, message) for each malformed pooling request
POOLING_ERRORS = {
    "T at most tau_max": (lambda: pool_data(small_collection(T=3), 3),
                          SelectionError, "T=3 must exceed tau_max=3"),
    "negative tau_max": (lambda: pool_data(small_collection(), -1),
                         SelectionError, "tau_max=-1 must be non-negative"),
    "unknown dummy mode": (lambda: pool_data(small_collection(), 2).gram_stats(2, "all"),
                           ValueError, r"mode must be one of \('none', 'time', 'space', 'both'\)"),
}


@pytest.mark.parametrize("case", sorted(POOLING_ERRORS))
def test_malformed_pooling_request_is_refused(case):
    call, error, message = POOLING_ERRORS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestDummyBlocks:
    """A dummy is its labels: ``dataset_index`` and ``time_index`` are the
    one-hot encodings of the space and time dummies, and no code builds a
    block of them."""

    @pytest.mark.parametrize("M, T, tau_max", [(3, 8, 2), (1, 5, 2), (2, 12, 0)])
    def test_blocks_are_one_hot_labels(self, M, T, tau_max):
        # the space dummy labels datasets (one label for M = 1), the time
        # dummy the T - tau_max usable time steps, rows dataset-major
        pd = pool_data(small_collection(M=M, T=T), tau_max)
        m, t = np.divmod(np.arange(M * (T - tau_max)), T - tau_max)
        assert np.array_equal(pd.dataset_index, m)
        assert np.array_equal(pd.time_index, t + tau_max)
        assert pd.selectors[(pd.space_dummy, 0)].n_components == M
        assert pd.selectors[(pd.time_dummy, 0)].n_components == T - tau_max

    def test_space_dummy_single_dataset_is_constant(self):
        pd = pool_data(small_collection(M=1, T=5), 2)
        assert np.array_equal(pd.dataset_index, np.zeros(3))
        assert pd.selectors[(pd.space_dummy, 0)].n_components == 1

    def test_time_dummy_column_count(self):
        pd = pool_data(small_collection(M=1, T=5), 2)
        assert np.array_equal(pd.time_index, [2, 3, 4])
        assert pd.selectors[(pd.time_dummy, 0)].n_components == 3

    def test_blocks_on_dropped_rows_keep_every_column(self):
        # a lag beyond tau_max drops the first time steps of every dataset:
        # the time dummy keeps its groups, those without rows empty
        pd = pool_data(small_collection(M=2, T=12), 2)
        rows = pd.extract_aligned([(0, 4)])[1]
        m, t = np.divmod(np.arange(2 * 8), 8)
        assert np.array_equal(rows, np.flatnonzero(pd.time_index >= 4))
        assert np.array_equal(pd.time_index[rows], t + 4)
        assert np.array_equal(pd.dataset_index[rows], m)
        assert pd.selectors[(pd.time_dummy, 0)].n_components == 10
        norms = pd.gram_stats(4, "none").group_norms["time"]
        assert len(norms) == 10 and not norms[:2].any() and norms[2:].all()

    def test_balanced_column_sums(self):
        pd = pool_data(small_collection(M=2, T=12), 2)
        assert np.array_equal(np.bincount(pd.dataset_index), np.full(2, 10))  # T - tau_max
        assert np.array_equal(np.bincount(pd.time_index - 2), np.full(10, 2))  # M

    def test_rows_sharing_t_share_the_one_hot_vector(self):
        dc = small_collection(M=3, T=8)
        pd = pool_data(dc, 2)
        per = pd.T - pd.tau_max
        for t in range(per):
            rows = [m * per + t for m in range(3)]
            assert np.all(pd.time_index[rows] == t + pd.tau_max)

    @pytest.mark.parametrize("kind", ["time", "space"])
    def test_dummy_selector_is_refused(self, kind):
        pd = pool_data(small_collection(M=3, T=9), 2)
        dummy = (pd.time_dummy if kind == "time" else pd.space_dummy, 0)
        for selectors in ([dummy], [(0, 0), dummy], [dummy, (0, 4)]):
            with pytest.raises(SelectionError, match=rf"^selector \({dummy[0]}, 0\) is the "
                                                     rf"{kind} dummy, which has no columns"):
                pd.extract_aligned(selectors)


class TestPoolData:
    def test_row_count(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        assert pd.n_rows == 2 * (12 - 2) == 20
        assert pd.selectors[(pd.space_dummy, 0)].n_components == 2

    def test_every_usable_sample_appears_once(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        col = pd.extract_aligned([(0, 0)])[0][:, 0]
        expected = np.concatenate([dc.system[m, 2:, 0] for m in range(2)])
        assert np.array_equal(col, expected)

    def test_spatial_column_repeats_dataset_value(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        sctx_var = pd.n_system + 1  # one observed temporal ctx comes first
        assert pd.var_roles[sctx_var] is R.SPATIAL_CONTEXT
        col = pd.extract_aligned([(sctx_var, 0)])[0][:, 0]
        per = pd.T - pd.tau_max
        assert np.all(col[:per] == dc.spatial_ctx[0, 0])
        assert np.all(col[per:] == dc.spatial_ctx[1, 0])

    def test_lagged_extraction_shifts_within_dataset(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        col = pd.extract_aligned([(0, 1)])[0][:, 0]
        expected = np.concatenate([dc.system[m, 1:-1, 0] for m in range(2)])
        assert np.array_equal(col, expected)

    def test_extract_round_trips_bit_exactly(self):
        dc = small_collection(M=3, T=10)
        pd = pool_data(dc, 2)
        again = pd.extract_aligned([(0, 0), (1, 0)])[0]
        pooled = np.concatenate([dc.system[m, 2:, :2] for m in range(3)])
        assert np.array_equal(again, pooled)

    def test_selector_errors(self):
        dc = small_collection()
        pd = pool_data(dc, 2)
        with pytest.raises(SelectionError):
            pd.extract_aligned([(0, 5)])
        with pytest.raises(SelectionError):
            pd.extract_aligned([(pd.space_dummy, 1)])
        sctx_var = pd.n_system + 1
        with pytest.raises(SelectionError):
            pd.extract_aligned([(sctx_var, 1)])
        with pytest.raises(SelectionError):
            pd.extract_aligned([(99, 0)])

    def test_extract_aligned_drops_short_history_rows(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        mat, rows = pd.extract_aligned([(0, 4)])
        assert len(rows) == 2 * (12 - 4)
        assert np.all(pd.time_index[rows] >= 4)
        expected = np.concatenate([dc.system[m, 0:-4, 0] for m in range(2)])
        assert np.array_equal(mat[:, 0], expected)
        with pytest.raises(SelectionError):
            pd.extract_aligned([(0, 5)])
        # a negative index must not alias a variable counted from the end
        with pytest.raises(SelectionError):
            pd.extract_aligned([(-len(pd.var_roles), 3)])

    @pytest.mark.parametrize("M, T, tau_max, time_degenerate, space_degenerate", [
        (3, 12, 2, False, False),
        (1, 12, 2, True, True),     # one dataset: both dummies constant
        (3, 12, 11, True, False),   # a single usable time step
    ])
    def test_selector_table_follows_variable_roles(self, M, T, tau_max,
                                                   time_degenerate, space_degenerate):
        pd = pool_data(small_collection(M=M, T=T), tau_max)
        expected = {}
        for var, role in enumerate(pd.var_roles):
            if role in (R.SYSTEM, R.TEMPORAL_CONTEXT):
                # up to the deepest lag that leaves a row: T - 1 below 2 * tau_max
                for lag in range(min(2 * tau_max, T - 1) + 1):
                    expected[(var, lag)] = (pd.scalar_columns.index((var, lag)), None,
                                            max(tau_max, lag), 1, False)
            elif role is R.SPATIAL_CONTEXT:
                expected[(var, 0)] = (pd.scalar_columns.index((var, 0)), None,
                                      tau_max, 1, False)
        expected[(pd.time_dummy, 0)] = (None, "time", tau_max, T - tau_max,
                                        time_degenerate)
        expected[(pd.space_dummy, 0)] = (None, "space", tau_max, M, space_degenerate)
        assert pd.selectors == expected
        with pytest.raises(TypeError):
            pd.selectors[(0, 0)] = None

        n_vars = len(pd.var_roles)
        for var in range(-n_vars, n_vars + 1):
            for lag in range(-1, 2 * tau_max + 2):
                entry = expected.get((var, lag))
                if entry is None:
                    with pytest.raises(SelectionError):
                        pd.extract_aligned([(0, 0), (var, lag)])
                    with pytest.raises(SelectionError):
                        pd.extract_aligned([(var, lag)])
                    continue
                if entry[1]:  # a dummy: its labels, no columns
                    with pytest.raises(SelectionError, match="dummy, which has no columns"):
                        pd.extract_aligned([(var, lag)])
                elif lag > tau_max:
                    # defined only from time step ``lag`` on, not on every row
                    rows = pd.extract_aligned([(0, 0), (var, lag)])[1]
                    assert np.array_equal(rows, np.flatnonzero(pd.time_index >= lag))
                else:
                    mat, rows = pd.extract_aligned([(var, lag)])
                    assert mat.shape == (pd.n_rows, entry[3])
                    assert np.array_equal(rows, np.arange(pd.n_rows))
        # a lag that leaves no rows is out of range in the CI test too
        for lag in range(T, 2 * tau_max + 1):
            with pytest.raises(SelectionError, match=rf"^selector \(0, {lag}\) out of range"):
                parcorr_test(((0, lag), (1, 0), ()), pd)

    def test_no_selectors_give_no_columns_on_every_row(self):
        # no selector moves the start past tau_max
        pd = pool_data(small_collection(M=2, T=12), 2)
        mat, rows = pd.extract_aligned([])
        assert mat.shape == (pd.n_rows, 0) and mat.dtype == float
        assert np.array_equal(rows, np.arange(pd.n_rows))

    def test_variable_outside_range_is_a_selection_error(self):
        pd = pool_data(small_collection(M=3, T=12), 2)
        # a negative index must not count from the end, and one past the end
        # must not surface as a bare IndexError
        n_vars = len(pd.var_roles)
        for var in [*range(-n_vars, 0), n_vars]:
            with pytest.raises(SelectionError, match="out of range"):
                pd.extract_aligned([(var, 0)])
            assert (var, 0) not in pd.selectors

    def test_rejects_non_finite_values(self):
        dc = small_collection()
        dc.temporal_ctx[3, 0] = np.inf
        with pytest.raises(NonFiniteDataError, match="temporal_ctx"):
            pool_data(dc, 2)

    @pytest.mark.parametrize("mode", DUMMY_MODES)
    def test_gram_stats_match_dense_demeaning(self, mode):
        dc = small_collection(M=3, T=12)
        pd = pool_data(dc, 2)
        for start in (2, 3, 4):
            stats = pd.gram_stats(start, mode)
            cols = pd.scalar_columns[:stats.gram.shape[0]]
            mat, rows = pd.extract_aligned(cols)
            assert np.array_equal(rows, np.flatnonzero(pd.time_index >= start))
            labels = {"time": pd.time_index[rows], "space": pd.dataset_index[rows]}
            if mode == "none":
                mat = mat - mat.mean(axis=0)
            for kind in ("time", "space"):
                if mode in (kind, "both"):
                    for g in np.unique(labels[kind]):
                        mat[labels[kind] == g] -= mat[labels[kind] == g].mean(axis=0)
            assert np.allclose(stats.gram, mat.T @ mat, rtol=0, atol=1e-10)
            # sums only of the dummies the mode does not demean by
            assert stats.group_sums.keys() == stats.group_norms.keys() == TESTABLE[mode]
            for kind in TESTABLE[mode]:
                offset = pd.tau_max if kind == "time" else 0
                dense = np.zeros_like(stats.group_sums[kind])
                np.add.at(dense, labels[kind] - offset, mat)
                assert np.allclose(stats.group_sums[kind], dense, rtol=0, atol=1e-10)
        assert pd.gram_stats(4, mode) is stats

    def test_degenerate_flags(self):
        dc1 = small_collection(M=1, T=12)
        pd1 = pool_data(dc1, 2)
        assert pd1.selectors[(pd1.space_dummy, 0)].degenerate
        assert pd1.selectors[(pd1.time_dummy, 0)].degenerate
        assert not pd1.selectors[(0, 0)].degenerate
        dc2 = small_collection(M=3, T=12)
        pd2 = pool_data(dc2, 2)
        assert not pd2.selectors[(pd2.space_dummy, 0)].degenerate
        assert not pd2.selectors[(pd2.time_dummy, 0)].degenerate
        pd3 = pool_data(dc2, 11)  # a single usable time step
        assert pd3.selectors[(pd3.time_dummy, 0)].degenerate

    def test_latent_contexts_not_exposed(self):
        dc = small_collection(frac_observed=0.0)
        pd = pool_data(dc, 2)
        assert pd.var_roles == [R.SYSTEM, R.SYSTEM, R.TIME_DUMMY, R.SPACE_DUMMY]

    def test_csv_dump_has_descriptor_header(self):
        dc = small_collection(M=2, T=6)
        pd = pool_data(dc, 2)
        text = pd.to_csv()
        header = text.splitlines()[0].split(",")
        # the dummies are the dataset and t labels, written once
        assert header == ["dataset", "t", "System0", "System1", "TemporalContext2",
                          "SpatialContext3"]
        body = np.array([[float(v) for v in line.split(",")]
                         for line in text.splitlines()[1:]])
        assert body.shape == (pd.n_rows, len(header))
        # every value as stored: dataset-major rows t = tau_max..T-1, then
        # the system, temporal and spatial columns
        m, t = np.divmod(np.arange(pd.n_rows), pd.T - pd.tau_max)
        t += pd.tau_max
        expected = np.column_stack([
            m, t, dc.system[m, t], dc.temporal_ctx[t], dc.spatial_ctx[m]])
        assert np.array_equal(body, expected)

    def test_csv_dump_of_a_hand_built_panel(self):
        # every byte of the dump: M=2, T=3, tau_max=1, one system variable
        # and one observed context of each kind
        dc = DatasetCollection(system=np.array([[[1.5], [2.5], [3.5]],
                                                [[-1.0], [0.25], [7.0]]]),
                               temporal_ctx=np.array([[10.0], [20.0], [0.1]]),
                               spatial_ctx=np.array([[5.0], [-6.0]]),
                               observed_mask=(True, True))
        assert pool_data(dc, 1).to_csv() == (
            "dataset,t,System0,TemporalContext1,SpatialContext2\n"
            "0,1,2.5,20,5\n"
            "0,2,3.5,0.10000000000000001,5\n"
            "1,1,0.25,20,-6\n"
            "1,2,7,0.10000000000000001,-6\n")
