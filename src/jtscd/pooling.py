"""Row-pooled design matrices across datasets, with one-hot dummy blocks.

Rows are ordered dataset-major: all usable time steps ``t = tau_max..T-1``
of dataset 0, then of dataset 1, and so on.  Lagged columns never cross a
dataset boundary because each row only looks back within its own dataset.
Variables are indexed in discovery order: system, observed temporal
contexts, observed spatial contexts, then the time dummy and space dummy.

``PooledData.selectors`` is the one selector policy: built once per pooled
dataset, it maps every valid ``(var, lag)`` -- lags ``0..2*tau_max`` of the
time-indexed variables, lag 0 of the spatial contexts and dummies -- to
what a CI test needs of it: its Gram column, dummy kind, the first time
step of the rows it is defined on, its component count and whether it is
degenerate.  ``aligned_start``, ``n_components``, ``is_degenerate`` and
``extract_aligned`` read it, and a selector missing from it is a
``SelectionError``.  ``extract_aligned`` is the one accessor of pooled rows:
the CI tests never read them, and ``matrix``/``to_csv`` (``jtscd discover
--dump-pooled``) take the lag-0 design from it.

``PooledData.gram_stats`` keeps the sufficient statistics the partial
correlation test works from: per row set and dummy mode, the cross-products
and per-group sums of every scalar lagged column after demeaning.  Every
row set's columns are shifts of the same observed series, and demeaning by
dummies is a group-sum correction of raw cross-products (the shifted-sum
identity of sample autocovariances), so the first request takes one raw
pass over the panel and every row set and mode is derived from it in
closed form.  The pass shifts each series by its mean -- demeaning is
shift-invariant, and the shift keeps the raw sums near the size of the
demeaned ones -- and forms, over the rows from ``2 * tau_max`` on, the raw
cross-products of every column and their per-dataset and per-time-step
sums; each smaller start adds the ``M`` rows of one time step.  A mode's
Gram matrix is the raw one less ``n mu mu'`` (centring), ``S'S / M`` (time
steps) or ``D'D / (T - start)`` (datasets); for both dummies, less the
last two and plus ``n mu mu'``.  A column whose demeaned diagonal is at
most ``_CANCEL_TOL`` of its shifted raw diagonal is constant within the
mode's groups -- a spatial context within datasets, a temporal one within
time steps, any context on one dataset -- and what the subtraction leaves
of it is cancellation noise: its row, column and sums are set to exact
zero.  Every column of a row set is kept: the tests of a discovery use
most of them (in a J-PCMCI+ run at ``tau_max = 2``, M=20, T=500, about 20
of 20 columns at row set 2 and 24 of 32 at row set 4).

``PooledData.z_projection`` keeps, per row set and dummy mode, the last
factorization of a conditioning block: sibling tests of a discovery level
share one ``z`` and reuse it.  A factorization calls the gufunc behind
``np.linalg.eigh`` through ``_eigh``, without the wrapper's argument checks
and error-state context, which cost as much as the eigendecomposition of a
block of a few columns; the results are the same bits.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graph import VariableRole


class SelectionError(ValueError):
    """Raised for out-of-range or role-inconsistent column selectors."""


def build_space_dummy(M, dataset_index):
    """One-hot block labelling datasets: row for dataset m is e_m (M columns)."""
    if M < 1:
        raise SelectionError("M must be at least 1")
    return np.eye(M)[np.asarray(dataset_index)]


def build_time_dummy(T, tau_max, time_index=None):
    """One-hot block labelling usable time steps (T - tau_max columns).

    Rows that share the same ``t`` across datasets share the same one-hot
    vector; only pooled time indices ``tau_max..T-1`` get a column.
    """
    if T <= tau_max:
        raise SelectionError("T must exceed tau_max")
    if time_index is None:
        time_index = np.arange(tau_max, T)
    return np.eye(T - tau_max)[np.asarray(time_index) - tau_max]


@dataclass(frozen=True)
class GramStats:
    """Sufficient statistics of the scalar columns on one row set.

    The rows are those with ``time_index >= start``, the columns the first
    ``gram.shape[0]`` entries of ``PooledData.scalar_columns`` (the ones
    defined on those rows).  Columns are demeaned according to the dummy
    mode: centred (``none``), within time steps (``time``), within datasets
    (``space``) or both, time first.  ``gram`` holds their cross-products
    and ``group_sums["time"]`` / ``group_sums["space"]`` their sums per
    time-dummy / space-dummy component (zero for time steps without rows).
    ``group_norms`` holds the squared norms of those group indicators after
    centring or demeaning by the other dummy, which on a balanced panel are
    the same.  ``group_rank`` is the rank the mode's intercept and dummy
    blocks add to a conditioning design.  ``diag`` is the diagonal of
    ``gram`` as a tuple of Python floats, for the per-test lookups.

    The statistics are group-sum corrections of raw cross-products (see the
    module docstring).  A column constant within the mode's groups has an
    exactly zero row and column in ``gram`` and exactly zero sums.
    """
    group_rank: int
    gram: np.ndarray
    group_sums: dict
    group_norms: dict
    diag: tuple


DUMMY_MODES = ("none", "time", "space", "both")

# a demeaned Gram diagonal at or below this share of the column's raw
# diagonal (after the shift by the series mean) is what the group-sum
# corrections leave of a column constant within its demeaning groups
_CANCEL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# the gufunc behind ``np.linalg.eigh(a)`` (lower triangle), called without
# the wrapper's argument checks and error-state context; ``_eigh`` restores
# the wrapper's one failure check
_eigh_lo = np.linalg._umath_linalg.eigh_lo


def _eigh(block, n):
    """``np.linalg.eigh(block)`` and the number of eigenvalues to drop.

    ``block`` is a symmetric float64 Gram block of ``n`` rows.  The
    eigenvalues come in ascending order, so the dropped ones -- those at or
    below ``lstsq``'s ``rcond=None`` cutoff ``max(n, k) * eps * lam_max`` --
    lead; they are counted on Python floats.  As ``np.linalg.eigh`` does on
    non-convergence (where LAPACK leaves NaNs), a non-finite eigenvalue
    raises ``LinAlgError``.
    """
    lam, vecs = _eigh_lo(block)
    values = lam.tolist()
    if not all(map(math.isfinite, values)):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    dropped = bisect.bisect_right(values, max(n, len(values)) * _EPS * values[-1])
    return lam, vecs, dropped


class ZProjection(NamedTuple):
    """The scalar conditioning columns ``columns`` factorized on one row set.

    ``whiten`` (k x rank) maps the Gram block of ``columns`` to the identity
    on its numerical range; ``proj = whiten.T @ gram[columns]`` holds the
    projected rows of every column of the row set, and ``resid = gram -
    proj.T @ proj`` the cross-products of the columns' residuals after
    projecting ``columns`` out, so a test picks the entries of its tested
    variables.
    """
    columns: tuple
    whiten: np.ndarray
    rank: int
    proj: np.ndarray
    resid: np.ndarray


class _RowSetSums(NamedTuple):
    """Raw sums of the scalar columns defined on one row set.

    ``gram`` holds their cross-products, ``dataset_sums`` (column x dataset)
    and ``time_sums`` (column x time step, from the row set's start on)
    their group sums, all of the series shifted by their means.
    """
    gram: np.ndarray
    dataset_sums: np.ndarray
    time_sums: np.ndarray


class Selector(NamedTuple):
    """What a CI test needs of one valid ``(var, lag)`` selector.

    ``column`` is its position in ``PooledData.scalar_columns`` (``None`` for
    a dummy), ``dummy`` the dummy kind (``"time"``, ``"space"`` or ``None``),
    ``start`` the first time step of the rows it is defined on,
    ``n_components`` its column count and ``degenerate`` whether it is a
    dummy that carries no signal.
    """
    column: int | None
    dummy: str | None
    start: int
    n_components: int
    degenerate: bool


class PooledData:
    """Pooled view of a DatasetCollection for lag-aware column extraction.

    Spatial context values are repeated over the usable time steps of their
    dataset; dummy blocks are one-hot encodings of dataset and time labels.
    The space dummy is flagged degenerate for ``M == 1`` (constant block) and
    the time dummy whenever ``M == 1`` or only a single usable time step
    remains, since a constant or sample-identifying label carries no signal.
    """

    def __init__(self, dc, tau_max):
        dc.check_finite()
        if dc.T <= tau_max:
            raise SelectionError(f"T={dc.T} must exceed tau_max={tau_max}")
        self.dc = dc
        self.tau_max = tau_max
        self.M = dc.M
        self.T = dc.T
        per = self.T - tau_max
        self.n_rows = self.M * per
        self.dataset_index = np.repeat(np.arange(self.M), per)
        self.time_index = np.tile(np.arange(tau_max, self.T), self.M)

        self._temporal_idx = dc.observed_temporal_indices()
        self._spatial_idx = dc.observed_spatial_indices()
        self.n_system = dc.n_system
        roles = dc.observed_roles()
        self.n_observed = len(roles)
        roles += [VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY]
        self.var_roles = roles
        self.n_vars = len(roles)
        self.time_dummy = self.n_observed
        self.space_dummy = self.n_observed + 1

        # scalar columns lag-major: those defined on the rows from time step
        # ``start`` on are the first n_observed + start * len(lagged) entries
        lagged = [v for v in range(self.n_observed) if roles[v].is_time_indexed]
        self.scalar_columns = [(v, 0) for v in range(self.n_observed)]
        self.scalar_columns += [(v, lag) for lag in range(1, 2 * tau_max + 1)
                                for v in lagged]
        self._n_lagged = len(lagged)
        self._raw_sums = None
        self._gram_stats = {}
        self._z_projections = {}

        # every valid selector, resolved once: lags 0..2*tau_max of the
        # time-indexed columns, lag 0 of the spatial contexts and dummies
        table = {sel: Selector(k, None, max(tau_max, sel[1]), 1, False)
                 for k, sel in enumerate(self.scalar_columns)}
        table[(self.time_dummy, 0)] = Selector(None, "time", tau_max, per,
                                               self.M == 1 or per == 1)
        table[(self.space_dummy, 0)] = Selector(None, "space", tau_max, self.M,
                                                self.M == 1)
        self.selectors = MappingProxyType(table)

    def _selector(self, var, lag):
        """The ``selectors`` entry of ``(var, lag)``; ``SelectionError`` if none."""
        try:
            return self.selectors[(var, lag)]
        except KeyError:
            raise SelectionError(f"selector {(var, lag)} out of range") from None

    def n_components(self, var):
        return self._selector(var, 0).n_components

    def is_degenerate(self, var):
        return self._selector(var, 0).degenerate

    def _column_block(self, var, lag, start):
        """Block of ``(var, lag)`` on the rows from time step ``start`` on."""
        role = self.var_roles[var]
        if role.is_dummy:
            rows = self.time_index >= start
            if role is VariableRole.TIME_DUMMY:
                return build_time_dummy(self.T, self.tau_max, self.time_index[rows])
            return build_space_dummy(self.M, self.dataset_index[rows])
        # the rows are dataset-major, so the (M, T - start) panel flattens onto them
        panel = self._panel(var, lag, start)
        return np.broadcast_to(panel, (self.M, self.T - start)).reshape(-1, 1)

    def aligned_start(self, selectors):
        """First time step of the rows on which all ``selectors`` are defined.

        The largest ``start`` of their ``selectors`` entries, ``tau_max`` for
        none: a lag beyond ``tau_max`` (up to ``2 * tau_max``) moves the start
        past the dataset starts it would look back across.
        """
        return max((self._selector(var, lag).start for (var, lag) in selectors),
                   default=self.tau_max)

    def extract_aligned(self, selectors):
        """Column matrix of ``(var, lag)`` selectors on the rows all are defined on.

        Lags go up to ``2 * tau_max`` (lag 0 for dummy and spatial
        selectors); rows whose look-back would cross the start of a dataset
        are dropped (``aligned_start``), so conditioning sets shifted to the
        lagged endpoint of a test stay well defined.  Returns ``(matrix,
        row_indices)``, values bit-exactly as stored; selectors of lag at
        most ``tau_max`` keep every pooled row.  A lag that leaves no rows (a
        start at or past ``T``) is a ``SelectionError``.
        """
        start = self.aligned_start(selectors)
        if start >= self.T:
            lag = max(lag for (_, lag) in selectors)
            raise SelectionError(f"lag {lag} leaves no rows: T={self.T}")
        rows = np.flatnonzero(self.time_index >= start)
        blocks = [self._column_block(var, lag, start) for (var, lag) in selectors]
        return np.hstack(blocks), rows

    def gram_stats(self, start, mode):
        """``GramStats`` of the rows from time step ``start`` on, built once.

        ``start`` is an ``aligned_start`` value and ``mode`` one of
        ``DUMMY_MODES``.  The statistics cover every column defined on the
        rows, in a fixed order.  The first request takes the raw pass of
        every row set (``_raw_pass``), and each key is derived from its row
        set's raw sums alone, so no statistics depend on the queries that
        asked before.
        """
        key = (start, mode)
        stats = self._gram_stats.get(key)
        if stats is None:
            if mode not in DUMMY_MODES:
                raise ValueError(f"mode must be one of {DUMMY_MODES}")
            if self._raw_sums is None:
                self._raw_sums = self._raw_pass()
            stats = self._gram_stats.setdefault(key, self._derive_gram_stats(start, mode))
        return stats

    def z_projection(self, start, mode, columns):
        """``ZProjection`` of the scalar columns ``columns`` (a tuple of
        positions in ``scalar_columns``) in ``gram_stats(start, mode)``.

        The pseudo-inverse cutoff is ``lstsq``'s ``rcond=None`` rule applied
        to the block's own spectrum.  The last projection per row set and
        dummy mode is kept, so a run of tests that condition on the same
        columns factorizes them once; a hit returns the very arrays a cold
        build would compute.
        """
        key = (start, mode)
        last = self._z_projections.get(key)
        if last is not None and last.columns == columns:
            return last
        gram = self.gram_stats(start, mode).gram
        z_rows = gram.take(columns, axis=0)
        lam, vecs, dropped = _eigh(z_rows.take(columns, axis=1), self.M * (self.T - start))
        whiten = vecs[:, dropped:] / np.sqrt(lam[dropped:])
        proj = whiten.T @ z_rows
        last = ZProjection(columns, whiten, len(columns) - dropped, proj,
                           gram - proj.T @ proj)
        self._z_projections[key] = last
        return last

    def _panel(self, var, lag, start):
        """Values of a scalar column on the rows from ``start`` on, as (M, T - start)."""
        steps = slice(start - lag, self.T - lag)
        role = self.var_roles[var]
        if role is VariableRole.SYSTEM:
            return self.dc.system[:, steps, var]
        if role is VariableRole.TEMPORAL_CONTEXT:
            return self.dc.temporal_ctx[steps, self._temporal_idx[var - self.n_system]]
        k = self._spatial_idx[var - self.n_system - len(self._temporal_idx)]
        return self.dc.spatial_ctx[:, k][:, None]

    def _raw_pass(self):
        """``_RowSetSums`` of every row set, keyed by start, from one pass.

        Each observed series is shifted by its mean and laid out as a
        ``(time step, dataset)`` panel; the columns of lag ``a`` on the rows
        from time step ``s`` on are then the panels' time steps ``s - a ..
        T - 1 - a``, a view.  On the rows from the last start ``top = 2 *
        tau_max`` on, the lag-0 columns against those of each lag ``d`` are
        one product each; the block of lags ``(a, a + d)`` is that of ``(a -
        1, a - 1 + d)`` over a window one time step earlier, so it follows
        by adding the entering time step's rows and subtracting the leaving
        one's.  Each smaller start adds the ``M`` rows of its own time step.
        (``top`` is ``T - 1`` where that is smaller: no row set starts
        later.)
        """
        tau, M, T, n_system = self.tau_max, self.M, self.T, self.n_system
        top = min(2 * tau, T - 1)
        n_obs, n_lag = self.n_observed, self._n_lagged
        n_temporal = len(self._temporal_idx)
        series = np.empty((n_obs, T, M))
        series[:n_system] = self.dc.system.transpose(2, 1, 0)
        series[n_system:n_system + n_temporal] = \
            self.dc.temporal_ctx[:, self._temporal_idx].T[:, :, None]
        series[n_system + n_temporal:] = \
            self.dc.spatial_ctx[:, self._spatial_idx].T[:, None, :]
        series -= series.mean(axis=(1, 2), keepdims=True)
        # scalar columns are lag-major: every series at lag 0, then the
        # time-indexed ones -- the leading n_lag series -- at lags 1..top
        widths = [n_obs] + [n_lag] * top
        edges = np.cumsum([0] + widths)
        tail = [series[:widths[a], top - a:T - a] for a in range(top + 1)]
        gram = np.empty((edges[-1], edges[-1]))

        def put(a, b, block):
            gram[edges[a]:edges[a + 1], edges[b]:edges[b + 1]] = block
            gram[edges[b]:edges[b + 1], edges[a]:edges[a + 1]] = block.T

        lag0 = tail[0].reshape(n_obs, -1)
        blocks = [lag0 @ tail[d].reshape(widths[d], -1).T for d in range(top + 1)]
        for d, block in enumerate(blocks):
            put(0, d, block)
        lagged = series[:n_lag]
        for a in range(1, top + 1):
            enter, leave = lagged[:, top - a], lagged[:, T - a]
            for d in range(top + 1 - a):
                blocks[d] = (blocks[d][:n_lag, :n_lag] + enter @ lagged[:, top - a - d].T
                             - leave @ lagged[:, T - a - d].T)
                put(a, a + d, blocks[d])
        dataset_sums = np.concatenate([np.ones(T - top) @ t for t in tail])
        step_sums = series @ np.ones(M)
        time_sums = np.zeros((edges[-1], T - tau))
        for a in range(top + 1):
            first = max(a, tau)
            time_sums[edges[a]:edges[a + 1], first - tau:] = \
                step_sums[:widths[a], first - a:T - a]
        sums = {}
        for start in range(top, tau - 1, -1):
            k = edges[start + 1]
            if start < top:
                rows = np.concatenate([series[:widths[a], start - a]
                                       for a in range(start + 1)])
                gram = gram[:k, :k] + rows @ rows.T
                dataset_sums = dataset_sums[:k] + rows
            sums[start] = _RowSetSums(gram, dataset_sums, time_sums[:k, start - tau:])
        return sums

    def _derive_gram_stats(self, start, mode):
        """``GramStats`` of one row set and mode from its raw sums."""
        raw, dataset_sums, time_sums = self._raw_sums[start]
        M, width = self.M, self.T - start
        total = dataset_sums.sum(axis=1)
        if mode == "none":
            gram = raw - np.outer(total, total) / (M * width)
        elif mode == "time":
            gram = raw - time_sums @ time_sums.T / M
        elif mode == "space":
            gram = raw - dataset_sums @ dataset_sums.T / width
        else:
            gram = (raw - time_sums @ time_sums.T / M
                    - dataset_sums @ dataset_sums.T / width
                    + np.outer(total, total) / (M * width))
        # group sums of the demeaned columns: centred by the other dummy's
        # demeaning, zero by the mode's own
        n_steps = self.T - self.tau_max
        group_time = np.zeros((n_steps, len(raw)))
        if mode in ("none", "space"):
            group_time[start - self.tau_max:] = time_sums.T - total / width
        group_space = (dataset_sums.T - total / M if mode in ("none", "time")
                       else np.zeros((M, len(raw))))
        dead = gram.diagonal() <= _CANCEL_TOL * raw.diagonal()
        if dead.any():
            gram[dead] = 0.0
            gram[:, dead] = 0.0
            group_time[:, dead] = 0.0
            group_space[:, dead] = 0.0
        time_norms = np.zeros(n_steps)
        time_norms[start - self.tau_max:] = M * (1.0 - 1.0 / width)
        group_rank = {"none": 1, "time": width, "space": M,
                      "both": width + M - 1}[mode]
        return GramStats(
            group_rank=group_rank, gram=gram, diag=tuple(gram.diagonal().tolist()),
            group_sums={"time": group_time, "space": group_space},
            group_norms={"time": time_norms,
                         "space": np.full(M, width * (1.0 - 1.0 / M))})

    def matrix(self):
        """Full lag-0 design including dummy blocks, one row per pooled sample."""
        return self.extract_aligned([(v, 0) for v in range(self.n_vars)])[0]

    def to_csv(self):
        """CSV text of the lag-0 design with a descriptor header row."""
        names = []
        for var in range(self.n_vars):
            base = f"{self.var_roles[var].value}{var}"
            k = self.n_components(var)
            names += [base] if k == 1 else [f"{base}_{c}" for c in range(k)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["dataset", "t"] + names)
        mat = self.matrix()
        for r in range(self.n_rows):
            row = [str(self.dataset_index[r]), str(self.time_index[r])]
            row += [f"{v:.17g}" for v in mat[r]]
            writer.writerow(row)
        return buf.getvalue()


def pool_data(dc, tau_max):
    """Pool a DatasetCollection into a lag-aware design matrix view."""
    return PooledData(dc, tau_max)
