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
and per-group sums of every scalar lagged column after demeaning.  A build
fills one column-major ``(column, dataset, time)`` block, so each column is
written and demeaned contiguously and the Gram matrix is one ``flat @
flat.T``.  Every column of the row set is kept: the tests of a discovery
use most of them (in a J-PCMCI+ run at ``tau_max = 2``, M=20, T=500, about
20 of 20 columns at row set 2 and 24 of 32 at row set 4), so building only
the used ones would not pay.  ``PooledData.z_projection`` keeps, per row set and dummy
mode, the last factorization of a conditioning block: sibling tests of a
discovery level share one ``z`` and reuse it.  A factorization calls the
gufunc behind ``np.linalg.eigh`` through ``_eigh``, without the wrapper's
argument checks and error-state context, which cost as much as the
eigendecomposition of a block of a few columns; the results are the same
bits.
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


def build_space_dummy(M, dataset_index=None):
    """One-hot block labelling datasets: row for dataset m is e_m (M columns)."""
    if M < 1:
        raise SelectionError("M must be at least 1")
    if dataset_index is None:
        dataset_index = np.arange(M)
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
    """
    group_rank: int
    gram: np.ndarray
    group_sums: dict
    group_norms: dict
    diag: tuple


DUMMY_MODES = ("none", "time", "space", "both")

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
        if not blocks:
            return np.zeros((len(rows), 0)), rows
        return np.hstack(blocks), rows

    def gram_stats(self, start, mode):
        """``GramStats`` of the rows from time step ``start`` on, built once.

        ``start`` is an ``aligned_start`` value and ``mode`` one of
        ``DUMMY_MODES``.  The statistics cover every column defined on the
        rows, in a fixed order, so they do not depend on the query that
        first asks for them.
        """
        key = (start, mode)
        stats = self._gram_stats.get(key)
        if stats is None:
            stats = self._gram_stats.setdefault(key, self._build_gram_stats(start, mode))
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

    def _build_gram_stats(self, start, mode):
        if mode not in DUMMY_MODES:
            raise ValueError(f"mode must be one of {DUMMY_MODES}")
        width = self.T - start
        cols = self.scalar_columns[:self.n_observed + start * self._n_lagged]
        # rows are dataset-major over a balanced panel, so a column-major
        # (p, M, width) block holds each column as its (M, width) panel:
        # datasets along axis 1, time steps along axis 2
        block = np.empty((len(cols), self.M, width))
        for k, (var, lag) in enumerate(cols):
            block[k] = self._panel(var, lag, start)
        if mode == "none":
            block -= block.mean(axis=(1, 2), keepdims=True)
        if mode in ("time", "both"):
            block -= block.mean(axis=1, keepdims=True)
        if mode in ("space", "both"):
            block -= block.mean(axis=2, keepdims=True)
        flat = block.reshape(len(cols), -1)
        n_steps = self.T - self.tau_max
        time_sums = np.zeros((n_steps, len(cols)))
        time_sums[start - self.tau_max:] = block.sum(axis=1).T
        time_norms = np.zeros(n_steps)
        time_norms[start - self.tau_max:] = self.M * (1.0 - 1.0 / width)
        group_rank = {"none": 1, "time": width, "space": self.M,
                      "both": width + self.M - 1}[mode]
        gram = flat @ flat.T
        return GramStats(
            group_rank=group_rank, gram=gram, diag=tuple(gram.diagonal().tolist()),
            group_sums={"time": time_sums, "space": block.sum(axis=2).T},
            group_norms={"time": time_norms,
                         "space": np.full(self.M, width * (1.0 - 1.0 / self.M))})

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
