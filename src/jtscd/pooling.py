"""Row-pooled design matrices across datasets; a dummy is its labels.

Rows are ordered dataset-major: all usable time steps ``t = tau_max..T-1``
of dataset 0, then of dataset 1, and so on.  Lagged columns never cross a
dataset boundary because each row only looks back within its own dataset.
Variables are indexed in discovery order: system, observed temporal
contexts, observed spatial contexts, then the time dummy and space dummy,
whose only form is the row labels ``time_index`` and ``dataset_index``.

``PooledData`` alone knows a query's rows.  ``_series`` lays every observed
variable out as one ``(n_observed, T, M)`` array, a context repeated over
the axis it is constant on.  ``selectors`` is the one selector policy: built
once per pooled dataset, it maps every ``(var, lag)`` that has rows -- lags
up to ``min(2 * tau_max, T - 1)`` of the time-indexed variables, lag 0 of
the spatial contexts and dummies -- to what a CI test needs of it: its Gram
column, dummy kind, the first time step of the rows it is defined on, its
component count and whether it is degenerate.  A selector missing from it is
a ``SelectionError``.  ``extract_aligned`` is the one accessor of pooled
scalar rows: the CI tests never read them, and ``to_csv`` (``jtscd
discover --dump-pooled``) takes the lag-0 columns from it.

``gram_stats`` keeps the sufficient statistics the partial correlation test
works from, one ``GramStats`` per row set and dummy mode, row count included:
the cross-products of every scalar lagged column after demeaning and their
sums per group of each dummy a query can test.  Every row set's columns are
shifts of the same observed series, and demeaning by dummies is a group-sum
correction of raw cross-products (the shifted-sum identity of sample
autocovariances), so the first request takes one raw pass over the series
(``_raw_pass``) and every row set and mode is derived from it in closed form.
The pass shifts each series by its mean: demeaning is shift-invariant, and
the shift keeps the raw sums near the size of the demeaned ones.  A mode's
Gram matrix is the raw one less ``n mu mu'`` (centring), ``S'S / M`` (time
steps) or ``D'D / (T - start)`` (datasets); for both dummies, less the last
two and plus ``n mu mu'``.  A column whose demeaned diagonal is at most
``_CANCEL_TOL`` of its shifted raw diagonal is constant within the mode's
groups -- a spatial context within datasets, a temporal one within time
steps, any context on one dataset -- and what the subtraction leaves of it is
cancellation noise: its row, column and sums are set to exact zero.  Every
column of a row set is kept: the tests of a discovery use most of them (in a
J-PCMCI+ run at ``tau_max = 2``, M=20, T=500, about 20 of 20 columns at row
set 2 and 24 of 32 at row set 4).  ``pooling`` does no linear algebra: the CI
tests factorize what they read of the statistics.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graph import VariableRole, is_integer


class SelectionError(ValueError):
    """Raised for out-of-range or role-inconsistent column selectors."""


# a column whose demeaned norm is at or below this, times max(1, sqrt(n)),
# is zero: it adds nothing to a conditioning design of n rows
VARIANCE_EPS = 1e-12
# a residual sum of squares below this share of the column's sum of squares
# before the scalar conditioning is cancellation noise of the cross-product
# algebra: the column lies in the span of the conditioning columns
SPAN_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GramStats:
    """Sufficient statistics of the scalar columns on one row set.

    The rows are those with ``time_index >= start``, the columns the first
    ``gram.shape[0]`` entries of ``PooledData.scalar_columns`` (the ones
    defined on those rows).  Columns are demeaned according to the dummy
    mode: centred (``none``), within time steps (``time``), within datasets
    (``space``) or both, time first.  ``gram`` holds their cross-products.
    ``group_sums[kind]`` holds their sums per group of each dummy the mode
    does not demean by -- a dummy endpoint is never in its own ``z`` -- so
    both kinds in ``none`` and neither in ``both``; the time sums are zero
    for time steps without rows.  ``group_norms[kind]`` holds the squared
    norms of those group indicators after centring or demeaning by the
    other dummy, which on a balanced panel are the same.  ``group_rank`` is
    the rank the mode's intercept and dummy groups add to a conditioning
    design, and ``n_rows`` the row count.  Statistics compare by identity,
    as a CI batch groups its queries on them.

    The statistics are group-sum corrections of raw cross-products (see the
    module docstring).  A column constant within the mode's groups has an
    exactly zero row and column in ``gram`` and exactly zero sums.

    The per-column values a CI test reads on every query are derived once,
    on construction from the diagonal of ``gram``, as tuples of Python
    booleans and floats: ``live``, whether a column's norm exceeds
    ``VARIANCE_EPS * max(1, sqrt(n_rows))``, so that it counts in a
    conditioning set; and ``span``, ``SPAN_TOL`` times its diagonal, the
    residual sum of squares at or below which it lies in the span of the
    columns it is conditioned on.
    """
    group_rank: int
    gram: np.ndarray
    group_sums: dict
    group_norms: dict
    n_rows: int
    live: tuple = field(init=False)
    span: tuple = field(init=False)

    def __post_init__(self):
        diag = self.gram.diagonal().tolist()
        cutoff = VARIANCE_EPS * max(1.0, math.sqrt(self.n_rows))
        object.__setattr__(self, "live", tuple([math.sqrt(d) > cutoff for d in diag]))
        object.__setattr__(self, "span", tuple([SPAN_TOL * d for d in diag]))


DUMMY_MODES = ("none", "time", "space", "both")

# a demeaned Gram diagonal at or below this share of the column's raw
# diagonal (after the shift by the series mean) is what the group-sum
# corrections leave of a column constant within its demeaning groups
_CANCEL_TOL = 1e-10


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
    dataset.  The dummies are the row labels ``dataset_index`` and
    ``time_index``.  The space dummy is flagged degenerate for ``M == 1``
    (one label) and the time dummy whenever ``M == 1`` or only a single
    usable time step remains, since a constant or sample-identifying label
    carries no signal.
    """

    def __init__(self, dc, tau_max):
        dc.check_finite()
        if not is_integer(tau_max):
            raise SelectionError(f"tau_max={tau_max!r} must be an integer")
        if tau_max < 0:
            raise SelectionError(f"tau_max={tau_max} must be non-negative")
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

        self.n_system = dc.n_system
        roles = dc.observed_roles()
        self.n_observed = len(roles)
        roles += [VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY]
        self.var_roles = roles
        self.time_dummy = self.n_observed
        self.space_dummy = self.n_observed + 1

        # scalar columns lag-major: those defined on the rows from time step
        # ``start`` on are the first n_observed + start * len(lagged) entries,
        # up to the deepest lag that leaves rows
        lagged = [v for v in range(self.n_observed) if roles[v].is_time_indexed]
        self.scalar_columns = [(v, 0) for v in range(self.n_observed)]
        self._deepest = min(2 * tau_max, self.T - 1)
        self.scalar_columns += [(v, lag) for lag in range(1, self._deepest + 1)
                                for v in lagged]
        self._n_lagged = len(lagged)
        self._raw_sums = None
        self._gram_stats = {}

        # every valid selector, resolved once: the scalar columns, and lag 0
        # of the dummies
        table = {sel: Selector(k, None, max(tau_max, sel[1]), 1, False)
                 for k, sel in enumerate(self.scalar_columns)}
        table[(self.time_dummy, 0)] = Selector(None, "time", tau_max, per,
                                               self.M == 1 or per == 1)
        table[(self.space_dummy, 0)] = Selector(None, "space", tau_max, self.M,
                                                self.M == 1)
        self.selectors = MappingProxyType(table)

    def extract_aligned(self, selectors):
        """Column matrix of scalar ``(var, lag)`` selectors on the rows all
        are defined on, each column bit-exactly as stored.

        The rows start at the largest ``start`` of the selectors' entries in
        ``selectors``, ``tau_max`` for none: a lag beyond ``tau_max`` drops
        the rows whose look-back would cross the start of a dataset.  A
        selector missing from ``selectors`` is a ``SelectionError``, and so
        is a dummy, whose only form is its labels ``time_index`` /
        ``dataset_index``.  Returns ``(matrix, row_indices)``.
        """
        start = self.tau_max
        for var, lag in selectors:
            entry = self.selectors.get((var, lag))
            if entry is None:
                raise SelectionError(f"selector {(var, lag)} out of range")
            if entry.dummy:
                raise SelectionError(f"selector {(var, lag)} is the {entry.dummy} dummy, "
                                     f"which has no columns, only its row labels")
            start = max(start, entry.start)
        rows = np.flatnonzero(self.time_index >= start)
        series = self._series()
        mat = np.empty((len(rows), len(selectors)))
        for k, (var, lag) in enumerate(selectors):
            # the rows are dataset-major: the (M, T - start) panel flattens onto them
            mat[:, k] = series[var, start - lag:self.T - lag].T.ravel()
        return mat, rows

    def gram_stats(self, start, mode):
        """``GramStats`` of the rows from time step ``start`` on, built once.

        ``start`` is the largest ``Selector.start`` of a query and ``mode``
        one of ``DUMMY_MODES``.  The statistics cover every column defined
        on the rows, in a fixed order.  The first request takes the raw pass
        of every row set (``_raw_pass``), and each key is derived from its
        row set's raw sums alone, so no statistics depend on the queries
        that asked before.
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

    def _series(self):
        """Every observed variable as one fresh ``(n_observed, T, M)`` array:
        the values of ``(var, lag)`` on the rows from time step ``s`` on are
        ``series[var, s - lag:T - lag]``, dataset-major once transposed."""
        dc = self.dc
        temporal, spatial = dc.observed_temporal_indices(), dc.observed_spatial_indices()
        n_system, n_temporal = self.n_system, len(temporal)
        series = np.empty((self.n_observed, self.T, self.M))
        series[:n_system] = dc.system.transpose(2, 1, 0)
        series[n_system:n_system + n_temporal] = dc.temporal_ctx[:, temporal].T[:, :, None]
        series[n_system + n_temporal:] = dc.spatial_ctx[:, spatial].T[:, None, :]
        return series

    def _raw_pass(self):
        """Raw sums of every row set, keyed by start, from one pass.

        A row set's sums are ``(gram, dataset_sums, time_sums)``: the
        cross-products of its scalar columns and their sums per dataset and
        per time step (from its start on), of the series shifted by their
        means, in place.  The columns of lag ``a`` on the rows from time
        step ``s`` on are then the series' time steps ``s - a .. T - 1 -
        a``, a view.  On the rows from the last start ``top`` on -- the
        deepest lag of ``scalar_columns``, ``min(2 * tau_max, T - 1)`` --
        the lag-0 columns against those of each lag ``d`` are one product
        each; the block of lags ``(a, a + d)`` is that of ``(a - 1, a - 1 +
        d)`` over a window one time step earlier, so it follows by adding
        the entering time step's rows and subtracting the leaving one's.
        Each smaller start adds the ``M`` rows of its own time step.
        """
        tau, M, T, top = self.tau_max, self.M, self.T, self._deepest
        n_obs, n_lag = self.n_observed, self._n_lagged
        series = self._series()
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
            sums[start] = gram, dataset_sums, time_sums[:k, start - tau:]
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
        # group sums of the demeaned columns, centred by the other dummy's
        # demeaning, for the dummies a query in this mode can test: one the
        # mode demeans by is in the query's z, so never its endpoint
        sums, norms = {}, {}
        if mode in ("none", "space"):  # zero for the time steps before start
            skip = start - self.tau_max
            sums["time"] = np.zeros((self.T - self.tau_max, len(raw)))
            sums["time"][skip:] = time_sums.T - total / width
            norms["time"] = np.concatenate([np.zeros(skip), np.full(width, M * (1 - 1 / width))])
        if mode in ("none", "time"):
            sums["space"] = dataset_sums.T - total / M
            norms["space"] = np.full(M, width * (1.0 - 1.0 / M))
        dead = gram.diagonal() <= _CANCEL_TOL * raw.diagonal()
        if dead.any():
            gram[dead] = 0.0
            gram[:, dead] = 0.0
            for block in sums.values():
                block[:, dead] = 0.0
        group_rank = {"none": 1, "time": width, "space": M,
                      "both": width + M - 1}[mode]
        return GramStats(group_rank=group_rank, gram=gram, n_rows=M * width,
                         group_sums=sums, group_norms=norms)

    def to_csv(self):
        """CSV text of the pooled rows under a descriptor header: each row's
        labels ``dataset`` and ``t`` (the dummies), then its lag-0 columns."""
        observed = range(self.n_observed)
        names = ["dataset", "t"] + [f"{self.var_roles[v].value}{v}" for v in observed]
        mat = self.extract_aligned([(v, 0) for v in observed])[0]
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([self.dataset_index, self.time_index, mat]),
                   fmt=["%d", "%d"] + ["%.17g"] * len(observed), delimiter=",",
                   header=",".join(names), comments="")
        return buf.getvalue()


def pool_data(dc, tau_max):
    """Pool a DatasetCollection into a lag-aware design matrix view."""
    return PooledData(dc, tau_max)
