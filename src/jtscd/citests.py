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
Every test is read from the lower Cholesky factor L of a Gram block, one
factorization policy for all of them.  A scalar ``x`` against a scalar
``y`` -- most tests of a discovery -- factorizes ``(z..., x, y)``: the
residual sums of squares are ``L_xx^2`` and ``L_yx^2 + L_yy^2``, and ``r =
|L_yx| / sqrt(L_yx^2 + L_yy^2)``.  A dummy endpoint needs no one-hot
columns: it factorizes ``(z..., y)`` and whitens the group sums ``S_z`` of
the ``z`` columns against ``L_zz``, ``W' = S_z L_zz^-T``; the residual
cross-product of group ``g`` with ``y`` is then ``S_y[g] - W'[g] . L_yz``
and the residual squared norm of its indicator ``n_g - |W'[g]|^2``,
where ``n_g`` is the indicator's squared norm after demeaning by the other
dummy.  A test thus costs O(G k^2 + k^3) for G groups and k conditioning
columns, independent of the number of rows.  The factor takes the scalar
``z`` columns to be of full rank; a block it rejects -- a ``z`` pivot in
the span of the others, or a factorization that fails, as for ``x`` equal
to ``y`` -- is whitened instead by the pseudo-inverse of the ``z`` block's
eigendecomposition (``_eigh``), whose numerical rank sets ``df``.

A discovery runs hundreds of such tests, each small enough that Python and
numpy call overhead would dominate it, so a CI test is asked in batches
only (``ParCorrCI.batch``, ``parcorr_batch``): the tests of one level do
not depend on each other's order.  A batch resolves each query once,
groups the queries by row set, dummy mode, ``z`` size and endpoint kind,
and gathers and factorizes each group's blocks in one call of the gufunc
behind ``np.linalg.cholesky`` (and inverts a group's ``L_zz`` blocks for
its dummy sums in one call of that behind ``np.linalg.inv``).  Each block
is factorized on its own inside the stack, so a query gets the same bits
in a batch of any size; ``parcorr_test`` is a batch of one.  A query is
read by position, in ``CIQuery``'s shape ``((x,), (y,), z)``, and resolved
in one pass: the kernel looks its selectors up as given in the table
``PooledData.selectors`` built with the pooled data and does ``CIQuery``'s
overlap checks on them, with no copy of the query.  A query that fails
anything is handed to ``CIQuery`` and the lookup of its selectors, which
raise the refusal.  The per-column thresholds -- whether a ``z`` column is
live, and the residual sum of squares at or below which a column lies in
the span of ``z`` -- are derived once per ``GramStats``, as tuples of
Python booleans and floats.
A group shares its row count and ``df``, so its results are finished on
those constants: scalar pairs inline on Python floats, with no call per
query, and dummy endpoints together, the usable components and largest
``|r|`` of every query in one pass over the group's stacked rows of G
group values.  A context endpoint conditioned on the dummy of its
own kind, which it is a function of, is a ``QueryError``.  Every refusal of
a query -- by ``CIQuery``, the kernel or the oracle -- ends by naming the
query, ``(query x=... y=... z=...)``, so a batch that raises says which of
its queries it refused.

The oracle test answers the same queries exactly from a ground-truth graph:
a dummy inside the conditioning set stands for all context variables of its
kind (observed and latent), and a dummy endpoint is independent of a node
iff one reachability pass from the node reaches no latent context of its kind.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graph import (GraphStructureError, GroundTruthGraph, VariableRole, d_connected,
                    d_separated, observed_variables)
from .pooling import SPAN_TOL, VARIANCE_EPS, SelectionError
from .scm import ConstantColumnError


class QueryError(ValueError):
    """Raised for malformed CI queries or violated sample-size preconditions."""


def _naming(x, y, z):
    """The end of the message that refuses the query ``(x, y, z)``."""
    return f" (query x={x} y={y} z={z})"


class CITestResult(NamedTuple):
    statistic: float
    p_value: float
    n_effective: int
    degenerate: bool = False
    df: int | None = None


class CIQuery(tuple):
    """A conditional independence query over ``(var, lag)`` column selectors.

    ``x`` and ``y`` hold one selector each, ``z`` any number; each selector
    is stored as a tuple, so list-form selectors compare equal to their
    tuple form.  The constructor validates a query: each tested side is
    exactly one non-empty selector, the two differ, and neither is in
    ``z``.  A query is the immutable tuple ``(x, y, z)`` with read-only
    ``x``, ``y`` and ``z``.  ParCorr's kernel also takes a plain tuple of
    this shape and does the same checks as it looks the selectors up
    (``_resolve``); a query that fails one is handed to this constructor,
    so its refusal is the same.
    """
    __slots__ = ()

    def __new__(cls, x, y, z=()):
        x, y, z = tuple(map(tuple, x)), tuple(map(tuple, y)), tuple(map(tuple, z))
        if not x or not y or () in x or () in y:
            raise QueryError("x and y must be non-empty" + _naming(x, y, z))
        if len(x) > 1 or len(y) > 1:
            raise QueryError("x and y must be one selector each" + _naming(x, y, z))
        if x == y:
            raise QueryError("x and y overlap" + _naming(x, y, z))
        if z and (x[0] in z or y[0] in z):
            raise QueryError("conditioning set overlaps the tested pair" + _naming(x, y, z))
        return tuple.__new__(cls, (x, y, z))

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return tuple(self)

    x = property(operator.itemgetter(0))
    y = property(operator.itemgetter(1))
    z = property(operator.itemgetter(2))


# the gufuncs behind ``np.linalg.cholesky``, ``np.linalg.inv`` and
# ``np.linalg.eigh`` (lower triangle) over stacks of blocks, called without
# the wrappers' argument checks and error-state context; a block that is
# not positive definite, or singular, comes back as NaNs and raises the
# ``invalid`` floating-point flag, and ``_eigh`` restores the one failure
# check of the eigh wrapper
_cholesky_lo = np.linalg._umath_linalg.cholesky_lo
_inv = np.linalg._umath_linalg.inv
_eigh_lo = np.linalg._umath_linalg.eigh_lo
_EPS = sys.float_info.epsilon


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


def _resolve(query, data):
    """Look a query's selectors up in ``data.selectors`` and check it.

    ``query`` is ``(x, y, z)`` in ``CIQuery``'s shape, read by position: a
    ``CIQuery`` or a plain tuple ``((x,), (y,), z)``.  The selectors are
    looked up as given, with no copy of the query; a ``CIQuery`` was
    checked by its constructor, and a plain query gets the same overlap
    checks here.  A plain query that would be refused -- its unpacking, a
    lookup or a check fails, or it has two dummy endpoints, too few samples
    or a context endpoint conditioned on its own dummy -- is handed to
    ``CIQuery(*query)`` and resolved again, which raises the refusal of the
    first check it fails, in order, naming the query in tuple form.  So is
    a query with a list-form selector, which is unhashable, or with a ``z``
    that is not a list or tuple; if the ``CIQuery`` holds, it is answered
    as its tuple form.

    Returns a ``CITestResult`` for a query answered before any statistic is
    read -- a degenerate tested endpoint, once every selector is found and
    one side at most is a dummy -- and otherwise the tuple ``(x, y, start,
    mode, n, stats, zs)``: the ``Selector`` entries of the tested sides, a
    dummy endpoint in ``x``; the row set and dummy mode the query works in,
    with its row count and ``GramStats``; and the positions of the scalar
    ``z`` columns that are not exactly zero there (``GramStats.live``).
    """
    table = data.selectors
    try:
        (x_sel,), (y_sel,), z = query
        if z.__class__ is not list and z.__class__ is not tuple:
            raise TypeError  # z is read twice: an iterator would be spent
        x, y = table[x_sel], table[y_sel]
        # one pass over z: the start it forces, its column count, the
        # dummies that set the demeaning mode and its scalar columns
        start, n_z_cols, z_dummies, z_cols = 0, 0, set(), []
        for column, dummy, sel_start, n_components, _ in map(table.__getitem__, z):
            if sel_start > start:
                start = sel_start
            n_z_cols += n_components
            if dummy:
                z_dummies.add(dummy)
            else:
                z_cols.append(column)
    except (KeyError, TypeError, ValueError):
        if not isinstance(query, CIQuery):
            return _resolve(CIQuery(*query), data)
        missing = next(s for s in query.x + query.y + query.z if s not in table)
        raise SelectionError(f"selector {missing} out of range" + _naming(*query)) from None
    start = max(start, x.start, y.start)
    n = data.M * (data.T - start)
    if not isinstance(query, CIQuery) and (
            x_sel == y_sel or x_sel in z or y_sel in z or x.dummy and y.dummy
            or n <= n_z_cols + 3 or z_dummies and _check_own_dummy(query, data)):
        return _resolve(CIQuery(*query), data)
    if x.dummy and y.dummy:
        raise QueryError("a dummy may appear among the tested variables once only"
                         + _naming(*query))
    if x.degenerate or y.degenerate:
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)
    if z_dummies:
        refusal = _check_own_dummy(query, data)
        if refusal:
            raise QueryError(refusal + _naming(*query))
    if n <= n_z_cols + 3:
        raise QueryError(f"too few samples: n={n} with {n_z_cols} conditioning columns"
                         + _naming(*query))
    if y.dummy:  # the test is symmetric in x and y: keep a dummy in x
        x, y = y, x
    mode = ("both" if len(z_dummies) == 2
            else z_dummies.pop() if z_dummies else "none")
    stats = data.gram_stats(start, mode)
    live = stats.live
    return x, y, start, mode, n, stats, tuple([c for c in z_cols if live[c]])


def _check_own_dummy(query, data):
    """The refusal of a context endpoint conditioned on the dummy of its
    own kind in the query ``(x, y, z)``, or ``None``.

    The context is a function of that dummy, so the test could only find
    its residual zero.  A constant dummy block in ``z`` (``degenerate`` in
    ``data.selectors``) carries no signal and is let through.
    """
    (x,), (y,), z = query
    for var, lag in (x, y):
        role = data.var_roles[var]
        if role.is_context:
            own = (data.time_dummy if role.is_temporal_kind else data.space_dummy, 0)
            if own in z and not data.selectors[own].degenerate:
                return f"context {(var, lag)} is conditioned on the dummy {own} of its own kind"
    return None


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


def _eigh_sums(case):
    """The residual sums of a resolved query whose Cholesky block is rejected.

    Returns ``(rank, ss_y, ss_x, along)`` as ``_results`` reads them off a
    Cholesky factor, ``ss_x`` and ``along`` arrays over the group
    indicators of a dummy ``x``.  The scalar ``z`` block is whitened by the
    pseudo-inverse of its eigendecomposition (``_eigh``), whose numerical
    rank sets ``df``.
    """
    x, y, _, _, n, stats, zs = case
    gram = stats.gram
    cols = (y.column,) if x.dummy else (x.column, y.column)
    resid, rank = gram[np.ix_(cols, cols)], 0
    if zs:
        lam, vecs, dropped = _eigh(gram[np.ix_(zs, zs)], n)
        whiten = vecs[:, dropped:] / np.sqrt(lam[dropped:])
        rank = len(zs) - dropped
        proj = whiten.T @ gram[np.ix_(zs, cols)]
        resid = resid - proj.T @ proj
    ss_y = resid.item(-1, -1)
    if not x.dummy:
        return rank, ss_y, resid.item(0, 0), float(resid[0, 1] / np.sqrt(resid[0, 0]))
    sums, ss = stats.group_sums[x.dummy], stats.group_norms[x.dummy]
    num = sums[:, y.column]
    if zs:
        group_proj = sums[:, zs] @ whiten
        num = num - group_proj @ proj[:, 0]
        ss = ss - np.einsum("gr,gr->g", group_proj, group_proj)
    return rank, ss_y, ss, num / np.sqrt(ss)


def _dummy_results(n, df, stats, dummy, ys, ss_xs, alongs):
    """The ``CITestResult`` of dummy-endpoint queries that share ``n``
    rows, ``df``, ``stats`` and the dummy ``x``.

    ``ys`` holds each query's ``(y column, ss_y)``; ``ss_xs`` and
    ``alongs`` stack, one row per query, the residual squared norms of the
    G group indicators and ``y``'s residual coordinates along them.  ``y``
    is checked as a scalar pair's sides are (``_results``).  A group
    indicator whose residual sum of squares is at or below ``n *
    VARIANCE_EPS^2`` or ``SPAN_TOL`` of its squared norm before the scalar
    ``z`` is unusable and counts as ``r = 0``; the mask, its ``any`` and the
    largest usable ``|along|`` of every query come from one array pass.
    The largest ``r`` -- ``|t|`` grows with ``|r|``, also in floating point,
    so it gives the largest ``|t|`` -- is tested against a Student-t law,
    Bonferroni-combined over the G components.
    """
    degenerate = CITestResult(0.0, 1.0, n, True, df)
    if df < 1:
        return [degenerate] * len(ys)
    norms = stats.group_norms[dummy]
    floor, span, n_components = n * VARIANCE_EPS ** 2, stats.span, len(norms)
    ok = (ss_xs > floor) & (ss_xs > SPAN_TOL * norms)
    usable = ok.any(axis=1).tolist()
    peaks = np.where(ok, np.abs(alongs), 0.0).max(axis=1).tolist()
    out = []
    for (y, ss_y), use, peak in zip(ys, usable, peaks):
        if use and ss_y > floor and ss_y > span[y]:
            r = min(peak / math.sqrt(ss_y), 1 - 1e-15)
            t = r * math.sqrt(df / (1.0 - r * r))
            out.append(CITestResult(r, min(1.0, _t_tail(t, df) * n_components), n, False, df))
        else:
            out.append(degenerate)
    return out


def _results(cases):
    """The ``CITestResult`` of each resolved query (``_resolve``), in one batch.

    The queries are grouped by row set, dummy mode, ``|zs|`` and endpoint
    kind, so a group shares its ``GramStats``, row count ``n`` and ``df =
    n - (group rank + |zs|) - 1``.  Each group gathers its Gram blocks --
    ``(zs..., x, y)`` for a scalar pair, ``(zs..., y)`` for a dummy
    endpoint -- and factorizes them in one stacked Cholesky call.

    With L the lower factor, a pair has the residual sums of squares ``ss_x
    = L_xx^2`` and ``ss_y = L_yx^2 + L_yy^2``, and ``y``'s residual
    coordinate along the unit residual of ``x`` is ``along = L_yx``.  A
    residual sum of squares at or below ``n * VARIANCE_EPS^2``, or at or
    below ``GramStats.span`` of its column (a side in the span of ``z``),
    leaves nothing to correlate; otherwise ``r = |along| / sqrt(ss_y)`` is
    tested against a Student-t law.  Pairs finish inline, on Python floats
    and the group's constants.

    A dummy endpoint has ``ss_y = L_yy^2``; the group sums ``S_z`` of its
    ``z`` columns are whitened against ``L_zz``, ``W' = S_z L_zz^-T``, so
    group g has the residual cross-product ``S_y[g] - W'[g] . L_yz`` and
    the residual squared norm ``n_g - |W'[g]|^2``.  The group's ``L_zz^-1``
    come from one stacked inverse of the k x k blocks and ``W'`` from one
    stacked product: a stacked solve against the G columns of ``S_z'``
    costs several times as much, as numpy's gufunc copies a right-hand side
    one column at a time.  ``_dummy_results`` finishes the group's queries
    together on the stacked rows.

    The factor takes ``zs`` to be of full rank: a block with a ``z`` pivot
    ``L_ii^2`` at or below ``GramStats.span`` of its column, or one the
    factorization rejects (the gufunc then fills the whole factor with
    NaN), is whitened by ``_eigh_sums`` instead and finished on its own
    rank.  Each block is factorized and whitened on its own inside the
    stack, so a query gets the same bits in any batch.  The caller sets the
    floating-point error state: NaN factors and components of zero residual
    norm are expected.
    """
    out = [None] * len(cases)
    groups = {}
    for k, case in enumerate(cases):
        groups.setdefault((case[2], case[3], len(case[6]), case[0].dummy), []).append(k)
    for (_, _, width, dummy), members in groups.items():
        _, _, _, _, n, stats, _ = cases[members[0]]
        df = n - (stats.group_rank + width) - 1
        span = stats.span
        index = np.array([cases[k][6] + ((cases[k][1].column,) if dummy else
                                         (cases[k][0].column, cases[k][1].column))
                          for k in members])
        factors = _cholesky_lo(stats.gram[index[:, :, None], index[:, None, :]])
        pivots = factors.diagonal(0, 1, 2).tolist()
        if not dummy:
            floor = n * VARIANCE_EPS ** 2
            for k, row, l_yx in zip(members, pivots, factors[:, -1, -2].tolist()):
                case = cases[k]
                x, y, _, _, _, _, zs = case
                if row[-1] == row[-1] and all(l * l > span[c] for l, c in zip(row, zs)):
                    l_xx, l_yy = row[-2:]
                    pair_df, ss_y, ss_x, along = df, l_yx * l_yx + l_yy * l_yy, l_xx * l_xx, l_yx
                else:
                    rank, ss_y, ss_x, along = _eigh_sums(case)
                    pair_df = n - (stats.group_rank + rank) - 1
                if (pair_df > 0 and ss_y > floor and ss_y > span[y.column]
                        and ss_x > floor and ss_x > span[x.column]):
                    r = min(abs(along) / math.sqrt(ss_y), 1 - 1e-15)
                    t = r * math.sqrt(pair_df / (1.0 - r * r))
                    out[k] = CITestResult(r, min(1.0, _t_tail(t, pair_df)), n, False, pair_df)
                else:
                    out[k] = CITestResult(0.0, 1.0, n, True, pair_df)
            continue
        # the group sums of (zs..., y): one G x (width + 1) block per query
        sums = stats.group_sums[dummy][:, index].transpose(1, 0, 2)
        num, ss = sums[:, :, -1], stats.group_norms[dummy]
        if width:
            whitened = np.matmul(sums[:, :, :-1], _inv(factors[:, :-1, :-1]).transpose(0, 2, 1))
            num = num - np.matmul(whitened, factors[:, -1, :-1, None])[:, :, 0]
            ss = ss - (whitened * whitened).sum(axis=2)
        kept, ys = [], []
        for i, (k, row) in enumerate(zip(members, pivots)):
            case = cases[k]
            if row[-1] == row[-1] and all(l * l > span[c] for l, c in zip(row, case[6])):
                kept.append(i)
                ys.append((case[1].column, row[-1] * row[-1]))
            else:
                rank, ss_y, ss_x, along = _eigh_sums(case)
                out[k] = _dummy_results(n, n - (stats.group_rank + rank) - 1, stats, dummy,
                                        [(case[1].column, ss_y)], ss_x[None], along[None])[0]
        ss_xs = np.broadcast_to(ss, num.shape)[kept]
        results = _dummy_results(n, df, stats, dummy, ys, ss_xs, (num / np.sqrt(ss))[kept])
        for i, result in zip(kept, results):
            out[members[i]] = result
    return out


def parcorr_batch(queries, data):
    """Partial correlation tests of ``queries`` on pooled data; returns the
    list of ``CITestResult``.  Each query is ``(x, y, z)`` in ``CIQuery``'s
    shape, read by position: a ``CIQuery`` or a plain tuple ``((x,), (y,),
    z)`` (``_resolve``).

    The Pearson correlation ``r`` of the conditioning residuals of ``x`` and
    ``y`` is transformed to ``t = r * sqrt(df / (1 - r^2))`` and tested
    two-sidedly against a Student-t law with ``df = n - rank(design) - 1``
    degrees of freedom, where the design includes the intercept (numerical
    rank, not column count).  The reported statistic is ``|r|``.  At most
    one side may be a dummy; it is tested component-wise, each of its G
    group indicators against the other side, and the result is the largest
    ``|r|`` with the p-value of the largest ``|t|``, Bonferroni-combined over
    the G components.  A degenerate tested variable (a constant dummy
    block) or a residual with zero variance yields ``p_value = 1`` and the
    degenerate flag.

    Each query is resolved once, in order, so the first one refused raises
    before any is tested, naming it, with the error ``CIQuery`` or the
    lookup of its selectors raises: a malformed query is a ``QueryError``, a
    selector missing from ``data.selectors`` a ``SelectionError``, a
    context endpoint conditioned on the (non-constant) dummy of its own
    kind a ``QueryError``.  ``_results`` then answers the rest from
    ``data.gram_stats``, whose demeaning the dummies in ``z`` select.
    """
    results, cases, at = [], [], []
    for query in queries:
        case = _resolve(query, data)
        if isinstance(case, CITestResult):
            results.append(case)
        else:
            at.append(len(results))
            cases.append(case)
            results.append(None)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, result in zip(at, _results(cases)):
            results[k] = result
    return results


def parcorr_test(query, data):
    """``parcorr_batch`` of the one query ``query``."""
    return parcorr_batch([query], data)[0]


class ParCorrCI:
    """CI test bound to a pooled dataset, asked in batches (``batch``).

    Every test works from the dataset's cached Gram statistics
    (``PooledData.gram_stats``), built on first use for each row set and
    dummy mode and shared by all later tests on the same dataset.
    ``selectors`` is the data's selector table.

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
        self.selectors = data.selectors
        self.n_tests = 0

    def batch(self, queries):
        """The results of ``(x, y, z)`` queries, asked as one
        ``parcorr_batch`` of the plain tuples ``((x,), (y,), z)``: the
        kernel validates them as it looks them up."""
        self.n_tests += len(queries)
        return parcorr_batch([((x,), (y,), z) for x, y, z in queries], self.data)


class GraphOracle:
    """Exact CI oracle over a ground-truth graph, in discovery index space.

    Queries use the observed-variable indexing (system, observed temporal
    contexts, observed spatial contexts) followed by the time and space
    dummy, and are validated by ``CIQuery`` as ParCorr's are.  The table
    ``selectors`` maps each valid ``(var, lag)`` to the ground-truth nodes
    it stands for: an observed variable at a lag in the unrolled window
    (lag 0 only for a single-node one), and a dummy at lag 0 to every
    context node of its kind in the window.  A dummy tested against a node
    is independent of it iff the ``d_connected`` pass from that node reaches
    no latent context node of its kind.  ``n_tests`` counts every query.

    The unrolled window must reach the graph's ``tau_max`` and ``2 *
    tau_max``, the deepest lag a discovery asks, as ``ParCorrCI`` needs
    ``T > 2 * tau_max``; a shallower ``unroll_depth`` is a ``QueryError``.
    """

    def __init__(self, graph, tau_max, unroll_depth=None):
        if not isinstance(graph, GroundTruthGraph):
            raise QueryError("the oracle needs a ground-truth graph")
        if unroll_depth is None:
            unroll_depth = 4 * max(graph.tau_max, tau_max, 1)
        if unroll_depth < graph.tau_max:
            raise QueryError(
                f"unroll_depth {unroll_depth} is smaller than tau_max {graph.tau_max}")
        if unroll_depth < 2 * tau_max:
            raise QueryError(
                f"unroll_depth {unroll_depth} is smaller than 2 * tau_max = {2 * tau_max}: "
                f"a discovery shifts conditioning sets to lags up to 2 * tau_max")
        self.graph, self.tau_max, self.depth = graph, tau_max, unroll_depth
        self.obs_map = obs = observed_variables(graph)
        self.n_observed = len(obs)
        self.time_dummy, self.space_dummy = self.n_observed, self.n_observed + 1
        roles = graph.roles
        self.var_roles = [roles[v] for v in obs]
        self.var_roles += [VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY]

        window = range(unroll_depth + 1)
        nodes = [[(v, lag) for lag in (window if r.is_time_indexed else (0,))]
                 for v, r in enumerate(roles)]
        table = {(k, n[1]): frozenset([n]) for k, v in enumerate(obs) for n in nodes[v]}
        for dummy, temporal in ((self.time_dummy, True), (self.space_dummy, False)):
            table[(dummy, 0)] = frozenset(
                n for v, r in enumerate(roles)
                if r.is_context and r.is_temporal_kind == temporal for n in nodes[v])
        self.selectors = MappingProxyType(table)
        # the latent context nodes a dummy selector stands for
        self._latent = {sel: frozenset(n for n in table[sel] if roles[n[0]].is_latent)
                        for sel in ((self.time_dummy, 0), (self.space_dummy, 0))}
        self.n_tests = 0

    def _refusal(self, sel, query):
        """The ``QueryError`` for a selector missing from ``selectors``."""
        if len(sel) != 2:
            message = f"selector {sel} is not a (var, lag) pair"
        elif (sel[0], 0) not in self.selectors:
            message = f"selector {sel} is not an observed variable"
        elif not self.var_roles[sel[0]].is_time_indexed:
            message = f"selector {sel} must have lag 0"
        else:
            message = f"lag {sel[1]} outside the unrolled window {self.depth}"
        return QueryError(message + _naming(*query))

    def __call__(self, x, y, z=()):
        self.n_tests += 1
        query = CIQuery((x,), (y,), z)
        (x,), (y,), z = query
        try:
            nx, ny = self.selectors[x], self.selectors[y]
            zsub = frozenset().union(*map(self.selectors.__getitem__, z))
        except KeyError as missing:
            raise self._refusal(missing.args[0], query) from None
        if y in self._latent:  # d-separation is symmetric: keep a dummy in x
            if x in self._latent:
                raise QueryError("a dummy may appear on one side of the query only"
                                 + _naming(*query))
            x, nx, ny = y, ny, nx
        (node,) = ny
        # an endpoint node in the substituted z is refused, as d_separated
        # refuses it; the context nodes a dummy x stands for may be in z
        if not zsub.isdisjoint(ny if x in self._latent else nx | ny):
            raise GraphStructureError("x and y must not be part of z" + _naming(*query))
        if x in self._latent:
            latent = self._latent[x]
            independent = not latent or latent.isdisjoint(
                d_connected(self.graph, node, zsub, self.depth))
        else:
            independent = d_separated(self.graph, *nx, node, zsub,
                                      unroll_depth=self.depth)
        return CITestResult(0.0, 1.0, 0) if independent else CITestResult(1.0, 0.0, 0)

    def batch(self, queries):
        """The results of ``(x, y, z)`` queries, one call each."""
        return [self(x, y, z) for x, y, z in queries]
