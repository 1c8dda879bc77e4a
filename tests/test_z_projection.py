"""The ParCorr kernel's ``z`` factorizations against numpy's public functions.

``citests`` calls the gufuncs behind ``np.linalg.cholesky``,
``np.linalg.inv`` and ``np.linalg.eigh`` directly, without the wrappers'
argument checks and error-state context.  On stacks of conditioning blocks
of 1 to 40 columns, each must give the same bits as its public function;
a Cholesky factorization that fails must leave the whole factor NaN, which
is how the kernel finds a block to hand to ``_eigh``.  A numpy release that
changes a private gufunc fails here.
"""

import numpy as np
import pytest

from jtscd import citests
from jtscd.citests import CIQuery, parcorr_test
from jtscd.pooling import DUMMY_MODES, pool_data
from jtscd.scm import DatasetCollection

N_SYSTEM, M, T, TAU_MAX = 20, 3, 40, 1
DUPLICATE = (0, 19)   # system 19 is a copy of system 0
AFFINE = (1, 18)      # system 18 is 2 * system 1 - 1.5


def wide_panel():
    """60 scalar columns on row set 2: 20 system variables at lags 0..2."""
    rng = np.random.default_rng(20261018)
    system = rng.standard_normal((M, T, N_SYSTEM))
    system[:, :, DUPLICATE[1]] = system[:, :, DUPLICATE[0]]
    system[:, :, AFFINE[1]] = 2.0 * system[:, :, AFFINE[0]] - 1.5
    dc = DatasetCollection(system=system, temporal_ctx=np.zeros((T, 0)),
                           spatial_ctx=np.zeros((M, 0)), observed_mask=())
    return pool_data(dc, TAU_MAX)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def column_sets(data, start, rng):
    """Seeded conditioning blocks of k = 1..40 columns, some collinear."""
    index = {sel: k for k, sel in enumerate(data.scalar_columns)}
    n_cols = len(data.gram_stats(start, "none").gram)
    for k in range(1, 41):
        for pair in (None, DUPLICATE, AFFINE):
            cols = [int(c) for c in rng.permutation(n_cols)[:k]]
            if pair is not None and k >= 2:
                lag = int(rng.integers(start + 1))
                a, b = index[(pair[0], lag)], index[(pair[1], lag)]
                cols = [c for c in cols if c not in (a, b)][:k - 2] + [a, b]
                cols = [cols[i] for i in rng.permutation(len(cols))]
            yield tuple(cols)


def block_stacks(mode):
    """Gram blocks of ``column_sets`` on row set 2, stacked by width."""
    data = wide_panel()
    gram = data.gram_stats(2 * TAU_MAX, mode).gram
    rng = np.random.default_rng(DUMMY_MODES.index(mode))
    stacks = {}
    for cols in column_sets(data, 2 * TAU_MAX, rng):
        stacks.setdefault(len(cols), []).append(cols)
    return [gram[np.array(sets)[:, :, None], np.array(sets)[:, None, :]]
            for sets in stacks.values()]


@pytest.mark.parametrize("mode", DUMMY_MODES)
def test_cholesky_gufunc_is_the_one_numpy_uses(mode):
    n_factored = n_failed = 0
    for blocks in block_stacks(mode):
        with np.errstate(invalid="ignore"):
            factors = citests._cholesky_lo(blocks)
        for block, factor in zip(blocks, factors):
            if np.isnan(factor).any():
                # a failed factorization is NaN throughout, and numpy refuses it
                assert np.isnan(factor).all()
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(block)
                n_failed += 1
            else:
                assert same_bits(factor, np.linalg.cholesky(block))
                n_factored += 1
    assert n_factored >= 40 and n_failed >= 10


@pytest.mark.parametrize("mode", DUMMY_MODES)
def test_inv_gufunc_is_the_one_numpy_uses(mode):
    n_inverted = 0
    for blocks in block_stacks(mode):
        with np.errstate(invalid="ignore"):
            factors = citests._cholesky_lo(blocks)
        # the kernel inverts the leading k x k blocks of its factors
        factors = factors[~np.isnan(factors).any(axis=(1, 2)), :-1, :-1]
        if not factors.size:
            continue
        got = citests._inv(factors)
        assert same_bits(got, np.linalg.inv(factors))
        for factor, inverse in zip(factors, got):  # each on its own in the stack
            assert same_bits(inverse, np.linalg.inv(factor))
        n_inverted += len(factors)
    assert n_inverted >= 40


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_eigenvalues_raise(monkeypatch, bad):
    # np.linalg.eigh raises LinAlgError where LAPACK does not converge and
    # leaves non-finite values; the direct call must do the same
    data = wide_panel()

    def failing(block):
        k = len(block)
        lam = np.arange(1.0, k + 1.0)
        lam[0] = bad
        return lam, np.full((k, k), np.nan)

    monkeypatch.setattr(citests, "_eigh_lo", failing)
    # a z holding a column and its copy is a block the Cholesky factor rejects
    query = CIQuery(x=((2, 0),), y=((3, 0),), z=((DUPLICATE[0], 1), (DUPLICATE[1], 1)))
    with pytest.raises(np.linalg.LinAlgError):
        parcorr_test(query, data)
    with pytest.raises(np.linalg.LinAlgError):
        citests._eigh(np.eye(2), 10)


def test_eigh_gufunc_is_the_one_numpy_uses():
    block = wide_panel().gram_stats(2, "none").gram[:5, :5]
    lam, vecs, dropped = citests._eigh(block, 114)
    want_lam, want_vecs = np.linalg.eigh(block)
    assert same_bits(lam, want_lam) and same_bits(vecs, want_vecs)
    assert dropped == 0
