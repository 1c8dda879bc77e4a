"""Conditional independence tests: pooled partial correlation and a graph oracle.

The partial-correlation test residualizes both sides on the conditioning
design (intercept included) and tests the residual Pearson correlation
against a Student-t law.  Multi-component variables (the one-hot dummy
blocks) are handled component-wise: the statistic is the maximum absolute
correlation over component pairs, and p-values are Bonferroni-combined.

No test touches the pooled rows.  Each works from sufficient statistics
cached on the ``PooledData`` per row set and dummy mode: the Gram matrix of
every scalar lagged column after centring or demeaning by the dummies in
``z``, and the per-time-step and per-dataset sums of those columns.  Scalar
``z`` columns are projected out of a Gram sub-block with a pseudo-inverse
whose numerical rank sets ``df``.  A dummy endpoint needs no one-hot
columns: with ``beta`` the ``z``-coefficients of ``y``, the residual
cross-product of group ``g`` is ``S_y[g] - S_z[g] beta`` and the residual
squared norm of its indicator is ``n_g - S_z[g] G_zz^+ S_z[g]'``, where
``n_g`` is the indicator's squared norm after demeaning by the other dummy.
A test thus costs O(G k + k^3) for G groups and k conditioning columns,
independent of the number of rows.  Selectors are looked up in the table
``PooledData.selectors`` built with the pooled data, and a test of one
scalar ``x`` against one scalar ``y`` -- most tests of a discovery --
finishes on Python floats instead of 1 x 1 arrays.

The oracle test answers the same queries exactly from a ground-truth graph:
a dummy inside the conditioning set stands for all context variables of its
kind (observed and latent), and a dummy as a tested endpoint is independent
of a system node iff every latent context of its kind is d-separated from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .graph import GroundTruthGraph, VariableRole, d_separated, observed_variables
from .pooling import SelectionError


class QueryError(ValueError):
    """Raised for malformed CI queries or violated sample-size preconditions."""


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    p_value: float
    n_effective: int
    degenerate: bool = False
    df: int | None = None


@dataclass(frozen=True)
class CIQuery:
    """A conditional independence query over ``(var, lag)`` column selectors."""
    x: tuple
    y: tuple
    z: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(tuple(s) for s in self.x))
        object.__setattr__(self, "y", tuple(tuple(s) for s in self.y))
        object.__setattr__(self, "z", tuple(tuple(s) for s in self.z))
        xs, ys, zs = set(self.x), set(self.y), set(self.z)
        if not self.x or not self.y:
            raise QueryError("x and y must be non-empty")
        if xs & ys:
            raise QueryError("x and y overlap")
        if (xs | ys) & zs:
            raise QueryError("conditioning set overlaps the tested pair")


_VARIANCE_EPS = 1e-12
# a residual sum of squares below this share of the column's sum of squares
# before the scalar conditioning is cancellation noise of the cross-product
# algebra: the column lies in the span of the conditioning columns
_SPAN_TOL = 1e-10
_EPS = np.finfo(float).eps


def _demean_by_groups(a, labels, n_groups):
    """Exact projection of columns of ``a`` onto group-mean complements."""
    sums = np.zeros((n_groups, a.shape[1]))
    np.add.at(sums, labels, a)
    counts = np.bincount(labels, minlength=n_groups).astype(float)
    occupied = counts > 0
    counts[~occupied] = 1.0
    means = sums / counts[:, None]
    return a - means[labels], int(occupied.sum())


def _t_pvalue(t, df):
    """Two-sided Student-t p-value of the statistics ``t``."""
    return 2.0 * special.stdtr(df, -np.abs(t))


def _unresolved(query, data):
    """A query with a selector outside ``data.selectors``: raise its error.

    Runs the selector validation of ``aligned_start`` after the degenerate
    endpoint check, in the order the kernel applies them to valid selectors.
    """
    if any(data.is_degenerate(var) for (var, _) in query.x + query.y):
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)
    data.aligned_start(query.x + query.y + query.z)
    raise SelectionError(f"no column for a selector of x={query.x} y={query.y} z={query.z}")


def parcorr_test(query, data, correction="bonferroni"):
    """Component-wise partial correlation test on pooled data.

    For every (x-component, y-component) pair the Pearson correlation ``r``
    of the conditioning residuals is transformed to
    ``t = r * sqrt(df / (1 - r^2))`` and tested two-sidedly against a
    Student-t law with ``df = n - rank(design) - 1`` degrees of freedom,
    where the design includes the intercept (numerical rank, not column
    count).  The reported statistic is ``max |r|``; the p-value is the
    Bonferroni-combined minimum (``correction="none"`` reports the raw
    minimum instead).

    Selectors are looked up in ``data.selectors``; one missing from it gets
    the error of ``PooledData.aligned_start``.  The residual cross-products
    come from ``data.gram_stats``: dummies in ``z`` select the demeaning of
    the cached Gram matrix, scalar ``z`` columns are projected out by a
    pseudo-inverse of their Gram block, and a dummy endpoint's components
    are the group sums of the residuals.  At most one dummy may be a tested
    endpoint.  A query of one scalar ``x`` and one scalar ``y`` finishes on
    Python floats, with the same arithmetic as the component arrays.

    Tested variables flagged degenerate (constant dummy blocks) or residuals
    with zero variance yield an independence verdict with ``p_value = 1`` and
    the degenerate flag set.
    """
    if correction not in ("bonferroni", "none"):
        raise ValueError("correction must be 'bonferroni' or 'none'")
    table = data.selectors
    try:
        x_sel = [table[s] for s in query.x]
        y_sel = [table[s] for s in query.y]
        z_sel = [table[s] for s in query.z]
    except (KeyError, TypeError):
        return _unresolved(query, data)
    if any(s.degenerate for s in x_sel) or any(s.degenerate for s in y_sel):
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)

    start = max(s.start for s in x_sel + y_sel + z_sel)
    n = data.M * (data.T - start)
    n_z_cols = sum(s.n_components for s in z_sel)
    if n <= n_z_cols + 3:
        raise QueryError(
            f"too few samples: n={n} with {n_z_cols} conditioning columns "
            f"(query x={query.x} y={query.y} z={query.z})")

    x_dummies = [s.dummy for s in x_sel if s.dummy]
    y_dummies = [s.dummy for s in y_sel if s.dummy]
    if len(x_dummies) + len(y_dummies) > 1:
        raise QueryError("a dummy may appear among the tested variables once only")
    xs = [s.column for s in x_sel if not s.dummy]
    ys = [s.column for s in y_sel if not s.dummy]
    if y_dummies:  # the test is symmetric in x and y: keep a dummy in x
        xs, x_dummies, ys = ys, y_dummies, xs
    z_dummies = {s.dummy for s in z_sel if s.dummy}
    mode = ("both" if len(z_dummies) == 2
            else z_dummies.pop() if z_dummies else "none")
    stats = data.gram_stats(start, mode)
    gram = stats.gram

    cutoff = _VARIANCE_EPS * max(1.0, math.sqrt(n))
    zs = [s.column for s in z_sel if not s.dummy]
    zs = [k for k in zs if math.sqrt(gram[k, k]) > cutoff]
    vs = xs + ys
    if zs:
        # pseudo-inverse of the z Gram block; the cutoff is lstsq's
        # rcond=None rule applied to that block's own spectrum
        z_rows = gram[zs]
        lam, vecs = np.linalg.eigh(z_rows[:, zs])
        kept = lam > max(n, len(zs)) * _EPS * lam[-1]
        whiten = vecs[:, kept] / np.sqrt(lam[kept])
        rank = int(np.count_nonzero(kept))
        proj = whiten.T @ z_rows[:, vs]
    else:
        whiten, rank, proj = np.zeros((0, 0)), 0, np.zeros((0, len(vs)))
    df = n - (stats.group_rank + rank) - 1
    if df < 1:
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)

    floor = n * _VARIANCE_EPS ** 2
    if len(vs) == 2 and not x_dummies:
        return _scalar_pair_tail(gram, vs, proj, n, df, floor)

    base = gram[vs, vs]
    cross = gram[np.ix_(vs, vs)] - proj.T @ proj
    ss = np.diag(cross)
    kx = len(xs)
    num = cross[:kx, kx:]
    ss_x, base_x, ss_y, base_y = ss[:kx], base[:kx], ss[kx:], base[kx:]
    if x_dummies:
        # one row per group indicator: its residual cross-products with y
        # and its residual squared norm, from the group sums alone
        sums, norms = stats.group_sums[x_dummies[0]], stats.group_norms[x_dummies[0]]
        group_proj = sums[:, zs] @ whiten
        num = np.vstack([num, sums[:, ys] - group_proj @ proj[:, kx:]])
        ss_x = np.concatenate([ss_x, norms - np.einsum("gr,gr->g", group_proj, group_proj)])
        base_x = np.concatenate([base_x, norms])

    ok_x = (ss_x > floor) & (ss_x > _SPAN_TOL * base_x)
    ok_y = (ss_y > floor) & (ss_y > _SPAN_TOL * base_y)
    if not ok_x.any() or not ok_y.any():
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)

    ok = np.outer(ok_x, ok_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = num / np.sqrt(np.outer(np.where(ok_x, ss_x, 1.0),
                                      np.where(ok_y, ss_y, 1.0)))
    corr = np.clip(np.where(ok, corr, 0.0), -1 + 1e-15, 1 - 1e-15)
    tvals = corr * np.sqrt(df / (1.0 - corr ** 2))
    pvals = np.where(ok, _t_pvalue(tvals, df), 1.0)

    statistic = float(np.max(np.abs(corr)))
    min_p = float(np.min(pvals))
    n_pairs = corr.size
    p_value = min(1.0, min_p * n_pairs) if correction == "bonferroni" else min_p
    return CITestResult(statistic, p_value, n, degenerate=False, df=df)


def _scalar_pair_tail(gram, vs, proj, n, df, floor):
    """The last steps of ``parcorr_test`` for one scalar x and one scalar y.

    The component-array arithmetic on Python floats, step for step, so the
    result is bit-identical.  With one pair the statistic is ``|r|`` and the
    p-value needs no Bonferroni factor (it is at most 1).
    """
    a, b = vs
    base_x, base_y = gram[a, a], gram[b, b]
    fitted = proj.T @ proj
    ss_x, ss_y = base_x - fitted[0, 0], base_y - fitted[1, 1]
    num = gram[a, b] - fitted[0, 1]
    if not (ss_x > floor and ss_x > _SPAN_TOL * base_x
            and ss_y > floor and ss_y > _SPAN_TOL * base_y):
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
    corr = float(num / math.sqrt(ss_x * ss_y))
    corr = min(max(corr, -1 + 1e-15), 1 - 1e-15)
    # corr * corr, not corr ** 2: numpy squares an array by multiplication,
    # and the power of a numpy scalar can differ in the last bit
    t = corr * math.sqrt(df / (1.0 - corr * corr))
    p_value = 2.0 * float(special.stdtr(float(df), -abs(t)))
    return CITestResult(abs(corr), p_value, n, degenerate=False, df=df)


def centered_parcorr_test(x, y, data, groups="dataset"):
    """Group-demeaned unconditional correlation test.

    Demeans both columns within each dataset (or time step) and correlates
    the residuals; degrees of freedom account for the absorbed group means
    (``n - M - 1``), which makes the decision identical to conditioning on
    the full one-hot dummy block.
    """
    x_col = data.extract([x])
    y_col = data.extract([y])
    if groups == "dataset":
        labels, n_groups = data.dataset_index, data.M
    elif groups == "time":
        labels, n_groups = data.time_index - data.tau_max, data.T - data.tau_max
    else:
        raise ValueError("groups must be 'dataset' or 'time'")
    n = data.n_rows
    rx, occ = _demean_by_groups(x_col, labels, n_groups)
    ry, _ = _demean_by_groups(y_col, labels, n_groups)
    df = n - occ - 1
    if rx.std() < _VARIANCE_EPS or ry.std() < _VARIANCE_EPS or df < 1:
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
    r = float(np.corrcoef(rx[:, 0], ry[:, 0])[0, 1])
    r = float(np.clip(r, -1 + 1e-15, 1 - 1e-15))
    t = r * np.sqrt(df / (1.0 - r ** 2))
    return CITestResult(abs(r), float(_t_pvalue(t, df)), n, df=df)


class ParCorrCI:
    """Callable CI test bound to a pooled dataset.

    Every test works from the dataset's cached Gram statistics
    (``PooledData.gram_stats``), built on first use for each row set and
    dummy mode and shared by all later tests on the same dataset.
    """

    def __init__(self, data, correction="bonferroni"):
        self.data = data
        self.correction = correction
        self.var_roles = list(data.var_roles)
        self.n_tests = 0

    def __call__(self, x, y, z=()):
        self.n_tests += 1
        query = CIQuery(x=(tuple(x),), y=(tuple(y),), z=tuple(z))
        return parcorr_test(query, self.data, correction=self.correction)


class GraphOracle:
    """Exact CI oracle over a ground-truth graph, in discovery index space.

    Queries use the observed-variable indexing (system, observed temporal
    contexts, observed spatial contexts) followed by the time and space
    dummy.  Conditioning on a dummy is realized by substituting all context
    nodes of its kind at every lag inside the unrolled window; testing a
    dummy against a system node quantifies d-separation over the latent
    contexts of its kind.
    """

    def __init__(self, graph, tau_max, unroll_depth=None):
        if not isinstance(graph, GroundTruthGraph):
            raise QueryError("the oracle needs a ground-truth graph")
        self.graph = graph
        self.tau_max = tau_max
        self.depth = unroll_depth or 4 * max(graph.tau_max, tau_max, 1)
        obs = observed_variables(graph)
        self.obs_map = obs
        self.n_observed = len(obs)
        self.time_dummy = self.n_observed
        self.space_dummy = self.n_observed + 1
        self.var_roles = [graph.roles[v] for v in obs]
        self.var_roles += [VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY]

        roles = graph.roles
        self._latent = {
            "time": [v for v, r in enumerate(roles)
                     if r is VariableRole.LATENT_TEMPORAL_CONTEXT],
            "space": [v for v, r in enumerate(roles)
                      if r is VariableRole.LATENT_SPATIAL_CONTEXT],
        }
        self._time_substitution = [
            (v, lag) for v, r in enumerate(roles) if r.is_context and r.is_temporal_kind
            for lag in range(self.depth + 1)]
        self._space_substitution = [
            (v, 0) for v, r in enumerate(roles) if r.is_context and r.is_spatial_kind]
        self._cache = {}
        self.n_tests = 0

    def _dummy_kind(self, var):
        if var == self.time_dummy:
            return "time"
        if var == self.space_dummy:
            return "space"
        return None

    def _to_graph_node(self, sel):
        var, lag = sel
        if not (0 <= var < self.n_observed):
            raise QueryError(f"selector {sel} is not an observed variable")
        gvar = self.obs_map[var]
        if not self.graph.roles[gvar].is_time_indexed and lag != 0:
            raise QueryError(f"selector {sel} must have lag 0")
        if lag > self.depth:
            raise QueryError(f"lag {lag} outside the unrolled window {self.depth}")
        return (gvar, lag)

    def _substituted_z(self, z):
        out = []
        for sel in z:
            kind = self._dummy_kind(sel[0])
            if kind == "time":
                out.extend(self._time_substitution)
            elif kind == "space":
                out.extend(self._space_substitution)
            else:
                out.append(self._to_graph_node(sel))
        return frozenset(out)

    def __call__(self, x, y, z=()):
        x, y = tuple(x), tuple(y)
        key = (x, y, frozenset(tuple(s) for s in z))
        if key in self._cache:
            return self._cache[key]
        self.n_tests += 1
        x_kind, y_kind = self._dummy_kind(x[0]), self._dummy_kind(y[0])
        if x_kind and y_kind:
            raise QueryError("a dummy may appear on one side of the query only")
        zsub = self._substituted_z(z)
        if x_kind or y_kind:
            kind = x_kind or y_kind
            node = self._to_graph_node(y if x_kind else x)
            independent = True
            for latent in self._latent[kind]:
                lags = (range(self.depth + 1)
                        if self.graph.roles[latent].is_time_indexed else (0,))
                for lag in lags:
                    if (latent, lag) == node or (latent, lag) in zsub:
                        continue
                    if not d_separated(self.graph, (latent, lag), node, zsub,
                                       unroll_depth=self.depth):
                        independent = False
                        break
                if not independent:
                    break
        else:
            gx, gy = self._to_graph_node(x), self._to_graph_node(y)
            independent = d_separated(self.graph, gx, gy, zsub,
                                      unroll_depth=self.depth)
        result = (CITestResult(0.0, 1.0, 0) if independent
                  else CITestResult(1.0, 0.0, 0))
        self._cache[key] = result
        return result


def oracle_test(graph, query, tau_max=None, unroll_depth=None):
    """One-shot oracle evaluation of a CIQuery (single-selector x and y)."""
    if len(query.x) != 1 or len(query.y) != 1:
        raise QueryError("oracle queries test single variables on each side")
    tau_max = tau_max if tau_max is not None else graph.tau_max
    oracle = GraphOracle(graph, tau_max, unroll_depth=unroll_depth)
    return oracle(query.x[0], query.y[0], query.z)
