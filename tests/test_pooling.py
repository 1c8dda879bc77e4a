"""Pooled design matrices, dummy blocks, lag-aware extraction."""

import numpy as np
import pytest

from jtscd.graph import VariableRole
from jtscd.pooling import (DUMMY_MODES, SelectionError, build_space_dummy,
                           build_time_dummy, pool_data)
from jtscd.scm import NonFiniteDataError, generate_random_model, simulate

R = VariableRole


def small_collection(M=2, T=12, seed=0, frac_observed=1.0):
    spec, _ = generate_random_model(n_system=2, n_temporal_ctx=1,
                                    n_spatial_ctx=1, frac_observed=frac_observed,
                                    seed=seed, max_lag=2)
    return simulate(spec, M=M, T=T, seed=seed + 1)


class TestDummyBlocks:
    def test_space_dummy_rows(self):
        block = build_space_dummy(3, np.array([0, 1, 1, 2]))
        assert block.shape == (4, 3)
        assert list(block[1]) == [0.0, 1.0, 0.0]

    def test_space_dummy_single_dataset_is_constant(self):
        block = build_space_dummy(1, np.zeros(5, dtype=int))
        assert np.all(block == 1.0)

    def test_time_dummy_column_count(self):
        block = build_time_dummy(5, 2)
        assert block.shape == (3, 3)
        assert np.array_equal(block, np.eye(3))

    def test_balanced_column_sums(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        space = pd.extract([(pd.space_dummy, 0)])
        time = pd.extract([(pd.time_dummy, 0)])
        assert np.array_equal(space.sum(axis=0), np.full(2, 10.0))  # T - tau_max
        assert np.array_equal(time.sum(axis=0), np.full(10, 2.0))   # M

    def test_rows_sharing_t_share_the_one_hot_vector(self):
        dc = small_collection(M=3, T=8)
        pd = pool_data(dc, 2)
        time = pd.extract([(pd.time_dummy, 0)])
        per = pd.T - pd.tau_max
        for t in range(per):
            rows = [m * per + t for m in range(3)]
            for r in rows[1:]:
                assert np.array_equal(time[rows[0]], time[r])

    def test_blocks_internally_orthogonal(self):
        dc = small_collection(M=3, T=9)
        pd = pool_data(dc, 2)
        for var in (pd.time_dummy, pd.space_dummy):
            block = pd.extract([(var, 0)])
            prod = block.T @ block
            assert np.all(prod[~np.eye(prod.shape[0], dtype=bool)] == 0.0)


class TestPoolData:
    def test_row_count(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        assert pd.n_rows == 2 * (12 - 2) == 20
        assert pd.n_components(pd.space_dummy) == 2

    def test_every_usable_sample_appears_once(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        col = pd.extract([(0, 0)])[:, 0]
        expected = np.concatenate([dc.system[m, 2:, 0] for m in range(2)])
        assert np.array_equal(col, expected)

    def test_spatial_column_repeats_dataset_value(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        sctx_var = pd.n_system + 1  # one observed temporal ctx comes first
        assert pd.var_roles[sctx_var] is R.SPATIAL_CONTEXT
        col = pd.extract([(sctx_var, 0)])[:, 0]
        per = pd.T - pd.tau_max
        assert np.all(col[:per] == dc.spatial_ctx[0, 0])
        assert np.all(col[per:] == dc.spatial_ctx[1, 0])

    def test_lagged_extraction_shifts_within_dataset(self):
        dc = small_collection(M=2, T=12)
        pd = pool_data(dc, 2)
        col = pd.extract([(0, 1)])[:, 0]
        expected = np.concatenate([dc.system[m, 1:-1, 0] for m in range(2)])
        assert np.array_equal(col, expected)

    def test_extract_round_trips_bit_exactly(self):
        dc = small_collection(M=3, T=10)
        pd = pool_data(dc, 2)
        again = pd.extract([(0, 0), (1, 0)])
        pooled = np.concatenate([dc.system[m, 2:, :2] for m in range(3)])
        assert np.array_equal(again, pooled)

    def test_selector_errors(self):
        dc = small_collection()
        pd = pool_data(dc, 2)
        with pytest.raises(SelectionError):
            pd.extract([(0, 3)])
        with pytest.raises(SelectionError):
            pd.extract([(pd.space_dummy, 1)])
        sctx_var = pd.n_system + 1
        with pytest.raises(SelectionError):
            pd.extract([(sctx_var, 1)])
        with pytest.raises(SelectionError):
            pd.extract([(99, 0)])

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
            pd.extract_aligned([(-pd.n_vars, 3)])

    def test_selector_table_is_what_aligned_start_accepts(self):
        dc = small_collection(M=3, T=12)
        pd = pool_data(dc, 2)
        accepted = set()
        for var in range(-pd.n_vars, pd.n_vars):
            for lag in range(-1, 2 * pd.tau_max + 2):
                try:
                    pd.aligned_start([(var, lag)])
                except SelectionError:
                    continue
                accepted.add((var, lag))
        assert set(pd.selectors) == accepted
        for sel, entry in pd.selectors.items():
            assert entry.start == pd.aligned_start([sel])
            assert entry.n_components == pd.n_components(sel[0])
            assert entry.degenerate == pd.is_degenerate(sel[0])
            dummy = entry.dummy is not None
            assert dummy == pd.var_roles[sel[0]].is_dummy
            assert entry.column == (None if dummy else pd.scalar_columns.index(sel))
        with pytest.raises(TypeError):
            pd.selectors[(0, 0)] = None

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
            assert pd.aligned_start(cols) == start
            mat, rows = pd.extract_aligned(cols)
            labels = {"time": pd.time_index[rows], "space": pd.dataset_index[rows]}
            if mode == "none":
                mat = mat - mat.mean(axis=0)
            for kind in ("time", "space"):
                if mode in (kind, "both"):
                    for g in np.unique(labels[kind]):
                        mat[labels[kind] == g] -= mat[labels[kind] == g].mean(axis=0)
            assert np.allclose(stats.gram, mat.T @ mat, rtol=0, atol=1e-10)
            for kind, offset in (("time", pd.tau_max), ("space", 0)):
                dense = np.zeros_like(stats.group_sums[kind])
                np.add.at(dense, labels[kind] - offset, mat)
                assert np.allclose(stats.group_sums[kind], dense, rtol=0, atol=1e-10)
        assert pd.gram_stats(4, mode) is stats

    def test_degenerate_flags(self):
        dc1 = small_collection(M=1, T=12)
        pd1 = pool_data(dc1, 2)
        assert pd1.is_degenerate(pd1.space_dummy)
        assert pd1.is_degenerate(pd1.time_dummy)
        assert not pd1.is_degenerate(0)
        dc2 = small_collection(M=3, T=12)
        pd2 = pool_data(dc2, 2)
        assert not pd2.is_degenerate(pd2.space_dummy)
        assert not pd2.is_degenerate(pd2.time_dummy)
        pd3 = pool_data(dc2, 11)  # a single usable time step
        assert pd3.is_degenerate(pd3.time_dummy)

    def test_latent_contexts_not_exposed(self):
        dc = small_collection(frac_observed=0.0)
        pd = pool_data(dc, 2)
        assert pd.var_roles == [R.SYSTEM, R.SYSTEM, R.TIME_DUMMY, R.SPACE_DUMMY]

    def test_csv_dump_has_descriptor_header(self):
        dc = small_collection(M=2, T=6)
        pd = pool_data(dc, 2)
        text = pd.to_csv()
        header = text.splitlines()[0].split(",")
        assert header[:3] == ["dataset", "t", "System0"]
        assert len(text.splitlines()) == pd.n_rows + 1
