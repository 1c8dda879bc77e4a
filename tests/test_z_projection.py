"""``PooledData.z_projection`` against its ``np.linalg.eigh`` formulation.

The pooled kernel calls the gufunc behind ``np.linalg.eigh`` directly
(``pooling._eigh``) and counts the dropped eigenvalues on Python floats.
The whitening, rank, projected rows and residual cross-products must be
bitwise equal to those of ``reference_kernel.eigh_z_projection``, on
conditioning blocks of 1 to 40 columns with exact and affine collinearity.
A numpy release that changes the private gufunc fails here.
"""

import numpy as np
import pytest

from jtscd import pooling
from jtscd.pooling import DUMMY_MODES, pool_data
from jtscd.scm import DatasetCollection

from reference_kernel import eigh_z_projection

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


@pytest.mark.parametrize("mode", DUMMY_MODES)
def test_factorization_is_bitwise_the_eigh_one(mode):
    data = wide_panel()
    start = 2 * TAU_MAX
    n = data.M * (data.T - start)
    gram = data.gram_stats(start, mode).gram
    rng = np.random.default_rng(["none", "time", "space", "both"].index(mode))
    ranks = {"full": 0, "deficient": 0, "wide": 0}
    for cols in column_sets(data, start, rng):
        got = data.z_projection(start, mode, cols)
        want = eigh_z_projection(gram, cols, n)
        assert got.columns == cols
        assert got.rank == want.rank, cols
        for field in ("whiten", "proj", "resid"):
            assert same_bits(getattr(got, field), getattr(want, field)), (field, cols)
        ranks["full" if got.rank == len(cols) else "deficient"] += 1
        ranks["wide"] += len(cols) > 32
    # the corpus reaches past 32 columns and drops eigenvalues
    assert ranks["deficient"] >= 60 and ranks["full"] >= 15 and ranks["wide"] >= 20


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

    monkeypatch.setattr(pooling, "_eigh_lo", failing)
    with pytest.raises(np.linalg.LinAlgError):
        data.z_projection(2, "none", (0, 3, 5))
    with pytest.raises(np.linalg.LinAlgError):
        pooling._eigh(np.eye(2), 10)


def test_eigh_gufunc_is_the_one_numpy_uses():
    block = wide_panel().gram_stats(2, "none").gram[:5, :5]
    lam, vecs, dropped = pooling._eigh(block, 114)
    want_lam, want_vecs = np.linalg.eigh(block)
    assert same_bits(lam, want_lam) and same_bits(vecs, want_vecs)
    assert dropped == 0
