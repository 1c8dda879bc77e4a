"""Row-pooled design matrices across datasets, with one-hot dummy blocks.

Rows are ordered dataset-major: all usable time steps ``t = tau_max..T-1``
of dataset 0, then of dataset 1, and so on.  Lagged columns never cross a
dataset boundary because each row only looks back within its own dataset.
Variables are indexed in discovery order: system, observed temporal
contexts, observed spatial contexts, then the time dummy and space dummy.

``PooledData.gram_stats`` keeps the sufficient statistics the partial
correlation test works from: per row set and dummy mode, the cross-products
and per-group sums of every scalar lagged column after demeaning.
``PooledData.selectors`` resolves each valid ``(var, lag)`` selector to what
the test needs of it, once per pooled dataset.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graph import VariableRole


class SelectionError(ValueError):
    """Raised for out-of-range or role-inconsistent column selectors."""


@dataclass(frozen=True)
class ColumnInfo:
    """Descriptor of one pooled column: role, variable, block component."""
    role: VariableRole
    var: int
    component: int = 0


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
    blocks add to a conditioning design.
    """
    group_rank: int
    gram: np.ndarray
    group_sums: dict
    group_norms: dict


DUMMY_MODES = ("none", "time", "space", "both")


class Selector(NamedTuple):
    """What a CI test needs of one valid ``(var, lag)`` selector.

    ``column`` is its position in ``PooledData.scalar_columns`` (``None`` for
    a dummy), ``dummy`` the dummy kind (``"time"``, ``"space"`` or ``None``),
    ``start`` the ``aligned_start`` it forces on its own.
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
        roles = [VariableRole.SYSTEM] * self.n_system
        roles += [VariableRole.TEMPORAL_CONTEXT] * len(self._temporal_idx)
        roles += [VariableRole.SPATIAL_CONTEXT] * len(self._spatial_idx)
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

        # every valid selector, resolved once: lags 0..2*tau_max of the
        # time-indexed columns, lag 0 of the spatial contexts and dummies
        table = {sel: Selector(k, None, max(tau_max, sel[1]), 1, False)
                 for k, sel in enumerate(self.scalar_columns)}
        for var, kind in ((self.time_dummy, "time"), (self.space_dummy, "space")):
            table[(var, 0)] = Selector(None, kind, tau_max, self.n_components(var),
                                       self.is_degenerate(var))
        self.selectors = MappingProxyType(table)

    def n_components(self, var):
        role = self.var_roles[var]
        if role is VariableRole.TIME_DUMMY:
            return self.T - self.tau_max
        if role is VariableRole.SPACE_DUMMY:
            return self.M
        return 1

    def is_degenerate(self, var):
        role = self.var_roles[var]
        if role is VariableRole.SPACE_DUMMY:
            return self.M == 1
        if role is VariableRole.TIME_DUMMY:
            return self.M == 1 or self.T - self.tau_max == 1
        return False

    def _check_selector(self, var, lag):
        if not (0 <= var < self.n_vars):
            raise SelectionError(f"variable {var} out of range")
        role = self.var_roles[var]
        if not role.is_time_indexed:
            if lag != 0:
                raise SelectionError(
                    f"{role.value} columns only exist at lag 0, got lag {lag}")
        elif not (0 <= lag <= self.tau_max):
            raise SelectionError(f"lag {lag} outside [0, {self.tau_max}]")

    def _column_block(self, var, lag, rows=slice(None)):
        role = self.var_roles[var]
        ds = self.dataset_index[rows]
        ts = self.time_index[rows]
        if role is VariableRole.SYSTEM:
            return self.dc.system[ds, ts - lag, var][:, None]
        if role is VariableRole.TEMPORAL_CONTEXT:
            k = self._temporal_idx[var - self.n_system]
            return self.dc.temporal_ctx[ts - lag, k][:, None]
        if role is VariableRole.SPATIAL_CONTEXT:
            k = self._spatial_idx[var - self.n_system - len(self._temporal_idx)]
            return self.dc.spatial_ctx[ds, k][:, None]
        if role is VariableRole.TIME_DUMMY:
            return build_time_dummy(self.T, self.tau_max, ts)
        return build_space_dummy(self.M, ds)

    def extract(self, selectors):
        """Column matrix for ``(var, lag)`` selectors, aligned on provenance.

        Lags are limited to ``tau_max``; dummy and spatial selectors must use
        lag 0.  Values are returned bit-exactly as stored (no transformation).
        """
        blocks = []
        for (var, lag) in selectors:
            self._check_selector(var, lag)
            blocks.append(self._column_block(var, lag))
        if not blocks:
            return np.zeros((self.n_rows, 0))
        return np.hstack(blocks)

    def aligned_start(self, selectors):
        """First time step of the rows on which all ``selectors`` are defined.

        Lags up to ``2 * tau_max`` are admitted; a lag beyond ``tau_max``
        moves the start past the dataset starts it would look back across.
        """
        start = self.tau_max
        for (var, lag) in selectors:
            role = self.var_roles[var]
            if var >= 0 and role.is_time_indexed and lag > self.tau_max:
                if lag > 2 * self.tau_max:
                    raise SelectionError(f"lag {lag} exceeds 2*tau_max")
                start = max(start, lag)
            else:
                self._check_selector(var, lag)
        return start

    def extract_aligned(self, selectors):
        """Like ``extract`` but admits lags up to ``2 * tau_max``.

        Rows whose look-back would cross the start of a dataset are dropped,
        so conditioning sets shifted to the lagged endpoint of a test stay
        well defined; returns ``(matrix, row_indices)``.
        """
        rows = np.flatnonzero(self.time_index >= self.aligned_start(selectors))
        blocks = [self._column_block(var, lag, rows) for (var, lag) in selectors]
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
        # rows are dataset-major over a balanced panel, so a (M, width, p)
        # view groups them by dataset along axis 1 and by time along axis 0
        block = np.empty((self.M, width, len(cols)))
        for k, (var, lag) in enumerate(cols):
            block[:, :, k] = self._panel(var, lag, start)
        if mode == "none":
            block -= block.mean(axis=(0, 1))
        if mode in ("time", "both"):
            block -= block.mean(axis=0)
        if mode in ("space", "both"):
            block -= block.mean(axis=1, keepdims=True)
        flat = block.reshape(-1, len(cols))
        n_steps = self.T - self.tau_max
        time_sums = np.zeros((n_steps, len(cols)))
        time_sums[start - self.tau_max:] = block.sum(axis=0)
        time_norms = np.zeros(n_steps)
        time_norms[start - self.tau_max:] = self.M * (1.0 - 1.0 / width)
        group_rank = {"none": 1, "time": width, "space": self.M,
                      "both": width + self.M - 1}[mode]
        return GramStats(
            group_rank=group_rank, gram=flat.T @ flat,
            group_sums={"time": time_sums, "space": block.sum(axis=1)},
            group_norms={"time": time_norms,
                         "space": np.full(self.M, width * (1.0 - 1.0 / self.M))})

    def column_info(self):
        info = []
        for var in range(self.n_vars):
            for comp in range(self.n_components(var)):
                info.append(ColumnInfo(self.var_roles[var], var, comp))
        return info

    def matrix(self):
        """Full lag-0 design including dummy blocks, one row per pooled sample."""
        return self.extract([(v, 0) for v in range(self.n_vars)])

    def to_csv(self):
        """CSV text of the lag-0 design with a descriptor header row."""
        names = []
        for ci in self.column_info():
            base = f"{ci.role.value}{ci.var}"
            names.append(base if self.n_components(ci.var) == 1
                         else f"{base}_{ci.component}")
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
