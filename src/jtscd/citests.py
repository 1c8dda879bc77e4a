"""Conditional independence tests: pooled partial correlation and a graph oracle.

A query tests one node of the joint graph against another given a set, as
J-PCMCI+ asks: each side is one ``(var, lag)`` selector of a system
variable, a context or a dummy.  The partial-correlation test residualizes
both sides on the conditioning design (intercept included) and tests the
residual Pearson correlation against a Student-t law.  A dummy endpoint is
a one-hot block of G group indicators, each tested against the other side:
the statistic is the largest absolute correlation, and the p-value, that of
the largest |t|, is Bonferroni-combined over the G components.  A dummy
endpoint thus costs one Student-t evaluation, not one per component.

The two-sided Student-t p-value is the regularized incomplete beta function
``I_x(df/2, 1/2)`` at ``x = df / (df + t^2)``, computed here on Python
floats (``_t_tail``) rather than imported from SciPy, whose import would
cost more than most discoveries.  For ``df >= 100`` and moderate ``|t|`` it
is a large-``df`` expansion in incomplete gamma functions, folded into a
polynomial whose coefficients are cached per ``df``; otherwise it is the
continued fraction of Numerical Recipes.  It matches
``scipy.special.stdtr`` to 1e-12 relative wherever the p-value is a normal
float, and a p-value below the smallest normal float is 0.0.

No test touches the pooled rows.  Each works from sufficient statistics
cached on the ``PooledData`` per row set and dummy mode: the Gram matrix of
every scalar lagged column after centring or demeaning by the dummies in
``z``, and the per-time-step and per-dataset sums of those columns.  All of
them come from one raw pass over the panel, as group-sum corrections of
raw cross-products; a column constant within the mode's groups is exactly
zero there, so it drops out of ``z`` and leaves a tested side degenerate.
Scalar ``z`` columns are projected out of a Gram sub-block with a
pseudo-inverse whose numerical rank sets ``df``.  That factorization
(``PooledData.z_projection``) covers every column of the row set and is
kept per row set and dummy mode until a test conditions on other columns
there, so the tests of one discovery level that share a ``z`` -- in the
lagged phase, every candidate outside the top parents -- factorize it once
and then only look up entries.  A dummy endpoint needs no one-hot
columns: with ``beta`` the ``z``-coefficients of ``y``, the residual
cross-product of group ``g`` is ``S_y[g] - S_z[g] beta`` and the residual
squared norm of its indicator is ``n_g - S_z[g] G_zz^+ S_z[g]'``, where
``n_g`` is the indicator's squared norm after demeaning by the other dummy.
A test thus costs O(G k + k^3) for G groups and k conditioning columns,
independent of the number of rows.

A discovery runs hundreds of such tests, each small enough that Python and
numpy call overhead would dominate it, so the per-test path is kept lean.
``CIQuery`` validates a query once, in its constructor.  ``parcorr_test``
looks its selectors up in the table ``PooledData.selectors`` built with the
pooled data, reads the conditioning set in one pass, and takes the Gram
diagonal as Python floats (``GramStats.diag``).  A test of a scalar ``x``
against a scalar ``y`` -- most tests of a discovery -- works on Python
floats throughout; a dummy endpoint works on vectors of its G group rows
and finishes on Python floats too.

The oracle test answers the same queries exactly from a ground-truth graph:
a dummy inside the conditioning set stands for all context variables of its
kind (observed and latent), and a dummy as a tested endpoint is independent
of a system node iff every latent context of its kind is d-separated from it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .graph import GroundTruthGraph, VariableRole, d_separated, observed_variables
from .pooling import SelectionError
from .scm import ConstantColumnError


class QueryError(ValueError):
    """Raised for malformed CI queries or violated sample-size preconditions."""


class CITestResult(NamedTuple):
    statistic: float
    p_value: float
    n_effective: int
    degenerate: bool = False
    df: int | None = None


class _QueryFields(NamedTuple):
    x: tuple
    y: tuple
    z: tuple


class CIQuery(_QueryFields):
    """A conditional independence query over ``(var, lag)`` column selectors.

    ``x`` and ``y`` hold one selector each, ``z`` any number; each selector
    is stored as a tuple, so list-form selectors compare equal to their
    tuple form.  The constructor is the one validation of a query, also
    for ``_make`` and ``_replace``: each tested side is exactly one
    non-empty selector, the two differ, and neither is in ``z``.  Queries
    are immutable named tuples.
    """
    __slots__ = ()

    def __new__(cls, x, y, z=()):
        x, y, z = tuple(map(tuple, x)), tuple(map(tuple, y)), tuple(map(tuple, z))
        if not x or not y or () in x or () in y:
            raise QueryError("x and y must be non-empty")
        if len(x) > 1 or len(y) > 1:
            raise QueryError("x and y must be one selector each")
        if x == y:
            raise QueryError("x and y overlap")
        if z and (x[0] in z or y[0] in z):
            raise QueryError("conditioning set overlaps the tested pair")
        return tuple.__new__(cls, (x, y, z))

    @classmethod
    def _make(cls, iterable):
        # the named tuple's _make, which _replace calls, bypasses __new__
        return cls(*iterable)


_VARIANCE_EPS = 1e-12
# a residual sum of squares below this share of the column's sum of squares
# before the scalar conditioning is cancellation noise of the cross-product
# algebra: the column lies in the span of the conditioning columns
_SPAN_TOL = 1e-10


# Taylor coefficients c_k of sqrt(w / (1 - exp(-w))) = sum_k c_k w^k.  The
# series converges for |w| < 2 pi; its terms fall like (w / 2 pi)^k, so the
# first 10 reach double precision at w <= 1/4 and all 18 at w <= 1.
_TAIL_SERIES = (
    1.0, 0.25, 0.010416666666666666, -0.0026041666666666665,
    -9.765625e-05, 5.154079861111111e-05, 1.2756024718915344e-06,
    -1.110097087880291e-06, -1.9670584004181822e-08, 2.4836319884715677e-08,
    3.3966619960386745e-10, -5.690071833942187e-10, -6.3372301556671304e-12,
    1.3251315155878903e-11, 1.2468358960996804e-13, -3.1229993780631886e-13,
    -2.546988626356897e-15, 7.426702350918158e-15)
_SHORT_TERMS = 10
_TINY = sys.float_info.min


def _gamma_ratio(a):
    """``Gamma(a + 1/2) / (Gamma(a) sqrt(a))``.

    From ``math.lgamma`` below a = 25, where the difference of the two
    logarithms loses at most a few units in 1e-14; above, from the Stirling
    series of the logarithm, whose first omitted term is below 2e-3 / a^9.
    """
    if a < 25.0:
        return math.exp(math.lgamma(a + 0.5) - math.lgamma(a)) / math.sqrt(a)
    r = 1.0 / a
    r2 = r * r
    return math.exp(r * (-1 / 8 + r2 * (1 / 192 + r2 * (-1 / 640 + r2 * (17 / 14336)))))


@functools.lru_cache(maxsize=512)
def _tail_polynomials(df):
    """Coefficients of the large-df expansion of ``_t_tail``, highest first.

    With a = df / 2 and e^-u = x, ``I_x(a, 1/2)`` is the integral of
    ``e^(-a u) (1 - e^-u)^(-1/2)`` over u > log(1/x), divided by
    ``B(a, 1/2)``.  Writing ``(1 - e^-u)^(-1/2) = u^(-1/2) sum_k c_k u^k``
    turns it into ``R(a) sum_k d_k Gamma(k + 1/2, z) / Gamma(k + 1/2)``
    with ``z = a log(1/x)``, ``d_k = c_k Gamma(k + 1/2) / (sqrt(pi) a^k)``
    and ``R = _gamma_ratio(a)``.  The recurrence of the incomplete gamma
    function from ``Gamma(1/2, z) = sqrt(pi) erfc(sqrt z)`` folds the sum
    into ``erfc(sqrt z) + sqrt(z) e^-z Q(z)``: the weight of ``erfc`` is
    ``R sum_k d_k``, the tail at z = 0, which is exactly 1, and ``Q`` has
    the coefficients ``R (d_(j+1) + d_(j+2) + ...) / Gamma(j + 3/2)``.

    Returns ``Q`` folded from the first ``_SHORT_TERMS`` terms and from all
    of ``_TAIL_SERIES``.
    """
    a = 0.5 * df
    d, gamma_k, a_k = [], 1.0, 1.0  # Gamma(k + 1/2) / sqrt(pi) and a^k
    for k, c in enumerate(_TAIL_SERIES):
        d.append(c * gamma_k / a_k)
        gamma_k *= k + 0.5
        a_k *= a
    ratio = _gamma_ratio(a)
    weights, gamma_j = [], 0.5 * math.sqrt(math.pi)  # R / Gamma(j + 3/2)
    for j in range(len(d) - 1):
        weights.append(ratio / gamma_j)
        gamma_j *= j + 1.5

    def fold(n_terms):
        coefficients, tail = [], 0.0
        for j in range(n_terms - 2, -1, -1):  # suffix sums, smallest terms first
            tail += d[j + 1]
            coefficients.append(weights[j] * tail)
        return tuple(coefficients)

    return fold(_SHORT_TERMS), fold(len(d))


def _beta_cf(a, b, x):
    """Continued fraction of ``I_x(a, b)`` by the modified Lentz method.

    Numerical Recipes (3rd ed.), section 6.4; it converges fast for
    ``x < (a + 1) / (a + b + 2)``.
    """
    eps, tiny = sys.float_info.epsilon, _TINY / sys.float_info.epsilon
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
        if abs(d * c - 1.0) <= eps:
            return h
    raise ArithmeticError(f"Student-t tail did not converge: a={a}, b={b}, x={x}")


def _t_tail(t, df):
    """Two-sided Student-t p-value ``P(|T| >= |t|)`` with ``df`` degrees of freedom.

    This is ``I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``.  For ``df >= 100``
    and ``log1p(t^2 / df) <= 1`` it is the large-df expansion of
    ``_tail_polynomials`` (coefficients cached per ``df``); otherwise the
    continued fraction ``_beta_cf``, on ``I_(1-x)(1/2, df/2)`` when x is
    close to 1.  Both agree with ``scipy.special.stdtr`` to 1e-12 relative
    wherever the p-value is a normal float; a p-value below the smallest
    normal float is 0.0.  Where ``t^2`` overflows (``|t|`` above about
    1.3e154, or infinite) the tail is 0.0, as ``stdtr``'s; a NaN ``t`` is a
    ``ValueError``.
    """
    t2 = t * t
    if not t2 < math.inf:
        if t2 != t2:
            raise ValueError(f"Student-t tail of a NaN t (df={df})")
        return 0.0
    u = math.log1p(t2 / df)
    z = 0.5 * df * u  # -log(x^(df/2))
    if df >= 100 and u <= 1.0:
        short, full = _tail_polynomials(df)
        s = math.sqrt(z)
        acc = 0.0
        for q in (short if u <= 0.25 else full):
            acc = acc * z + q
        p = math.erfc(s) + s * math.exp(-z) * acc
    else:
        a = 0.5 * df
        x = df / (df + t2)
        # x^a (1 - x)^(1/2) / B(a, 1/2)
        front = (_gamma_ratio(a) * math.sqrt(a / math.pi) * math.exp(-z)
                 * math.sqrt(t2 / (df + t2)))
        if x < (a + 1.0) / (a + 2.5):
            p = front * _beta_cf(a, 0.5, x) / a
        else:
            p = 1.0 - 2.0 * front * _beta_cf(0.5, a, t2 / (df + t2))
    if p < _TINY:
        return 0.0
    return 1.0 if p > 1.0 else p


def _unresolved(query, data):
    """A query with a selector outside ``data.selectors``.

    A degenerate tested endpoint answers first, as in the kernel; otherwise
    the first missing selector raises ``SelectionError``.
    """
    if any(data.is_degenerate(var) for (var, _) in query.x + query.y):
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)
    missing = next(s for s in query.x + query.y + query.z if s not in data.selectors)
    raise SelectionError(f"selector {missing} out of range")


def parcorr_test(query, data):
    """Partial correlation test of one selector against another on pooled data.

    The Pearson correlation ``r`` of the conditioning residuals of ``x`` and
    ``y`` is transformed to ``t = r * sqrt(df / (1 - r^2))`` and tested
    two-sidedly against a Student-t law with ``df = n - rank(design) - 1``
    degrees of freedom, where the design includes the intercept (numerical
    rank, not column count).  The reported statistic is ``|r|``.  At most
    one side may be a dummy; it is tested component-wise, each of its G
    group indicators against the other side, and the result is the largest
    ``|r|`` with the p-value of the largest ``|t|``, Bonferroni-combined over
    the G components.

    Selectors are looked up in ``data.selectors``; one missing from it is a
    ``SelectionError``.  The residual cross-products come from
    ``data.gram_stats``: dummies in ``z`` select the demeaning of the cached
    Gram matrix, scalar ``z`` columns are projected out by a
    pseudo-inverse of their Gram block (``data.z_projection``, reused by
    consecutive tests on the same columns), and a dummy endpoint's components
    are the group sums of the residuals.  A scalar pair is read as three
    Python floats, a dummy endpoint as vectors over its G groups.

    Tested variables flagged degenerate (constant dummy blocks) or residuals
    with zero variance yield an independence verdict with ``p_value = 1`` and
    the degenerate flag set.
    """
    table = data.selectors
    try:
        x, y = table[query.x[0]], table[query.y[0]]
        # one pass over z: the start it forces, its column count, the
        # dummies that set the demeaning mode and its scalar columns
        start, n_z_cols, z_dummies, z_cols = 0, 0, set(), []
        for column, dummy, sel_start, n_components, _ in map(table.__getitem__, query.z):
            if sel_start > start:
                start = sel_start
            n_z_cols += n_components
            if dummy:
                z_dummies.add(dummy)
            else:
                z_cols.append(column)
    except (KeyError, TypeError):
        return _unresolved(query, data)
    if x.degenerate or y.degenerate:
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)
    start = max(start, x.start, y.start)

    n = data.M * (data.T - start)
    if n <= n_z_cols + 3:
        raise QueryError(
            f"too few samples: n={n} with {n_z_cols} conditioning columns "
            f"(query x={query.x} y={query.y} z={query.z})")
    if y.dummy:  # the test is symmetric in x and y: keep a dummy in x
        if x.dummy:
            raise QueryError("a dummy may appear among the tested variables once only")
        x, y = y, x
    mode = ("both" if len(z_dummies) == 2
            else z_dummies.pop() if z_dummies else "none")
    stats = data.gram_stats(start, mode)
    diag = stats.diag

    cutoff = _VARIANCE_EPS * max(1.0, math.sqrt(n))
    zs = tuple([c for c in z_cols if math.sqrt(diag[c]) > cutoff])
    if zs:
        # factorized once for the sibling tests that condition on the same
        # columns; ``resid`` holds the cross-products of every column's
        # residuals on them
        factor = data.z_projection(start, mode, zs)
        rank, resid = factor.rank, factor.resid
    else:
        factor, rank, resid = None, 0, stats.gram
    df = n - (stats.group_rank + rank) - 1
    if df < 1:
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)

    # a residual sum of squares at or below ``floor``, or in the span of z,
    # leaves nothing to correlate
    floor = n * _VARIANCE_EPS ** 2
    b = y.column
    ss_y = resid.item(b, b)
    if not (ss_y > floor and ss_y > _SPAN_TOL * diag[b]):
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
    if x.dummy:
        # one component per group indicator: its residual cross-product with
        # y and its residual squared norm, from the group sums alone
        sums, norms = stats.group_sums[x.dummy], stats.group_norms[x.dummy]
        num, ss = sums[:, b], norms
        if factor is not None:
            group_proj = sums.take(zs, axis=1) @ factor.whiten
            num = num - group_proj @ factor.proj[:, b]
            ss = norms - np.einsum("gr,gr->g", group_proj, group_proj)
        ok = (ss > floor) & (ss > _SPAN_TOL * norms)
        if not ok.any():
            return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
        # unusable components count as r = 0; |t| grows with |r|, also in
        # floating point, so the largest |r| gives the largest |t|
        r = float((abs(num[ok]) / np.sqrt(ss[ok] * ss_y)).max())
        n_components = len(norms)
    else:
        a = x.column
        ss_x = resid.item(a, a)
        if not (ss_x > floor and ss_x > _SPAN_TOL * diag[a]):
            return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
        r = abs(resid.item(a, b)) / math.sqrt(ss_x * ss_y)
        n_components = 1
    r = min(r, 1 - 1e-15)
    p_value = min(1.0, _t_tail(r * math.sqrt(df / (1.0 - r * r)), df) * n_components)
    return CITestResult(r, p_value, n, degenerate=False, df=df)


class ParCorrCI:
    """Callable CI test bound to a pooled dataset.

    Every test works from the dataset's cached Gram statistics
    (``PooledData.gram_stats``), built on first use for each row set and
    dummy mode and shared by all later tests on the same dataset.

    The data must have ``T > 2 * tau_max``: conditioning sets shifted to a
    lagged endpoint reach back ``2 * tau_max`` steps and would have no rows
    left to test on (``SelectionError``).  A system variable constant over
    every dataset and time step is refused (``ConstantColumnError``): the
    test could only ever find it independent of everything.
    """

    def __init__(self, data):
        if data.T <= 2 * data.tau_max:
            raise SelectionError(f"T={data.T} is too short for tau_max={data.tau_max}: "
                                 f"ParCorr needs T > 2 * tau_max")
        system = np.asarray(data.dc.system)
        for v in range(system.shape[2]):
            if np.all(system[:, :, v] == system[0, 0, v]):
                raise ConstantColumnError(
                    f"system variable {v} is constant over every dataset and "
                    f"time step: ParCorr cannot test it")
        self.data = data
        self.var_roles = list(data.var_roles)
        self.n_tests = 0

    def __call__(self, x, y, z=()):
        self.n_tests += 1
        return parcorr_test(CIQuery((x,), (y,), z), self.data)


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
        self._dummy_kinds = {self.time_dummy: "time", self.space_dummy: "space"}
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

    def _dummy_kind(self, sel):
        """``"time"`` or ``"space"`` for a dummy selector, else ``None``; a
        dummy is one node, so a dummy selector at a nonzero lag is refused."""
        kind = self._dummy_kinds.get(sel[0])
        if kind and sel[1] != 0:
            raise QueryError(f"selector {tuple(sel)} must have lag 0")
        return kind

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
            kind = self._dummy_kind(sel)
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
        x_kind, y_kind = self._dummy_kind(x), self._dummy_kind(y)
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

