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
A scalar ``x`` against a scalar ``y`` -- most tests of a discovery -- is
read from the lower Cholesky factor L of the Gram block of ``(z..., x,
y)``: the residual sums of squares are ``L_xx^2`` and ``L_yx^2 + L_yy^2``,
and ``r = |L_yx| / sqrt(L_yx^2 + L_yy^2)``.  The factor takes the scalar
``z`` columns to be of full rank; where a ``z`` pivot, or a tested side,
says otherwise, the pair falls back to the path of a dummy endpoint, which
projects the ``z`` columns out of a Gram sub-block with a pseudo-inverse
whose numerical rank sets ``df``.  That factorization
(``PooledData.z_projection``) covers every column of the row set and is
kept per row set and dummy mode until a test conditions on other columns
there, so the tests that share a ``z`` factorize it once and then only
look up entries.  A dummy endpoint needs no one-hot columns: with ``beta``
the ``z``-coefficients of ``y``, the residual cross-product of group ``g``
is ``S_y[g] - S_z[g] beta`` and the residual squared norm of its indicator
is ``n_g - S_z[g] G_zz^+ S_z[g]'``, where ``n_g`` is the indicator's
squared norm after demeaning by the other dummy.
A test thus costs O(G k + k^3) for G groups and k conditioning columns,
independent of the number of rows.

A discovery runs hundreds of such tests, each small enough that Python and
numpy call overhead would dominate it, so a discovery asks them in batches
(``parcorr_batch``): the tests of one level do not depend on each other's
order.  A batch gathers the blocks of its scalar pairs per row set, dummy
mode and ``z`` size and factorizes each stack in one call of the gufunc
behind ``np.linalg.cholesky``; each block is factorized on its own inside
the stack, so a query gets the same bits in a batch of any size, and
``parcorr_test`` answers one query as a batch of one.  Dummy endpoints and
the pairs the factor cannot decide go through ``parcorr_test`` one at a
time.  ``CIQuery`` validates a query once, in its constructor; the kernel
looks its selectors up in the table ``PooledData.selectors`` built with the
pooled data, reads the conditioning set in one pass, and takes the Gram
diagonal as Python floats (``GramStats.diag``).  A scalar pair finishes on
Python floats; a dummy endpoint works on vectors of its G group rows and
finishes on Python floats too.  A context endpoint conditioned on the
dummy of its own kind, which it is a function of, is a ``QueryError``.

The oracle test answers the same queries exactly from a ground-truth graph:
a dummy inside the conditioning set stands for all context variables of its
kind (observed and latent), and a dummy endpoint is independent of a node
iff one reachability pass from the node reaches no latent context of its kind.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graph import (GraphStructureError, GroundTruthGraph, VariableRole, d_connected,
                    d_separated, observed_variables)
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


class CIQuery(tuple):
    """A conditional independence query over ``(var, lag)`` column selectors.

    ``x`` and ``y`` hold one selector each, ``z`` any number; each selector
    is stored as a tuple, so list-form selectors compare equal to their
    tuple form.  The constructor is the one validation of a query: each
    tested side is exactly one non-empty selector, the two differ, and
    neither is in ``z``.  A query is the immutable tuple ``(x, y, z)``
    with read-only ``x``, ``y`` and ``z``.
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

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return tuple(self)

    x = property(operator.itemgetter(0))
    y = property(operator.itemgetter(1))
    z = property(operator.itemgetter(2))


_VARIANCE_EPS = 1e-12
# a residual sum of squares below this share of the column's sum of squares
# before the scalar conditioning is cancellation noise of the cross-product
# algebra: the column lies in the span of the conditioning columns
_SPAN_TOL = 1e-10
# the gufunc behind ``np.linalg.cholesky`` over a stack of blocks, called
# without the wrapper's checks; a block that is not positive definite comes
# back as NaNs and raises the ``invalid`` floating-point flag
_cholesky_lo = np.linalg._umath_linalg.cholesky_lo


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
    the first missing selector, a malformed one included, raises
    ``SelectionError``.
    """
    if any(len(s) == 2 and data.is_degenerate(s[0]) for s in query.x + query.y):
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)
    missing = next(s for s in query.x + query.y + query.z if s not in data.selectors)
    raise SelectionError(f"selector {missing} out of range")


def _resolve(query, data):
    """Look a query's selectors up in ``data.selectors`` and check it.

    Returns a ``CITestResult`` for a query answered before any statistic is
    read -- a degenerate tested endpoint -- and otherwise the tuple ``(x,
    y, start, mode, n, stats, zs)``: the ``Selector`` entries of the tested
    sides, a dummy endpoint in ``x``; the row set and dummy mode the query
    works in, with its row count and ``GramStats``; and the positions of the
    scalar ``z`` columns that are not exactly zero there.
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
    if z_dummies:
        _check_own_dummy(query, data)
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
    return x, y, start, mode, n, stats, zs


def _check_own_dummy(query, data):
    """Refuse a context endpoint conditioned on the dummy of its own kind.

    The context is a function of that dummy, so the test could only find
    its residual zero.  A constant dummy block in ``z`` (``degenerate`` in
    ``data.selectors``) carries no signal and is let through.
    """
    for var, lag in query.x + query.y:
        role = data.var_roles[var]
        if role.is_context:
            own = (data.time_dummy if role.is_temporal_kind else data.space_dummy, 0)
            if own in query.z and not data.selectors[own].degenerate:
                raise QueryError(
                    f"context {(var, lag)} is conditioned on the dummy {own} of its "
                    f"own kind (query x={query.x} y={query.y} z={query.z})")


def _projected(case, data):
    """The test of a resolved query (``_resolve``) from its ``z`` projection.

    Scalar ``z`` columns are projected out by the pseudo-inverse of their
    Gram block (``data.z_projection``), whose numerical rank sets ``df``; a
    dummy endpoint's components are the group sums of the residuals.
    """
    x, y, start, mode, n, stats, zs = case
    diag = stats.diag
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


def _factored_pairs(cases):
    """Results of resolved scalar-pair queries, read from Cholesky factors.

    The queries are grouped by row set, dummy mode and ``|zs|``; each group
    gathers the ``(zs..., x, y)`` blocks of its Gram matrix and factorizes
    them in one stacked call.  With L the lower factor of a block, the
    residual sums of squares are ``ss_x = L_xx^2`` and ``ss_y = L_yx^2 +
    L_yy^2``, and ``r = |L_yx| / sqrt(ss_y)``.  The factor assumes ``zs`` of
    full rank: a query with a ``z`` pivot ``L_ii^2`` at or below
    ``_SPAN_TOL`` of its Gram diagonal, a non-finite factor (a block that is
    not positive definite) or a degenerate side gets ``None``, for
    ``_projected`` to decide on the numerical rank.  Each block is factorized
    on its own inside the stack, so a query gets the same bits in any batch.
    """
    results = [None] * len(cases)
    groups = {}
    for k, case in enumerate(cases):
        groups.setdefault((case[2], case[3], len(case[6])), []).append(k)
    stacks = []
    with np.errstate(invalid="ignore"):  # NaN factors of blocks not positive definite
        for members in groups.values():
            index = np.array([cases[k][6] + (cases[k][0].column, cases[k][1].column)
                              for k in members])
            gram = cases[members[0]][5].gram
            stacks.append((members, _cholesky_lo(gram[index[:, :, None], index[:, None, :]])))
    for members, factors in stacks:
        # the pivots L_ii of zs, x and y, and L_yx
        pivots, l_yxs = factors.diagonal(0, 1, 2).tolist(), factors[:, -1, -2].tolist()
        for k, row, l_yx in zip(members, pivots, l_yxs):
            x, y, _, _, n, stats, zs = cases[k]
            diag = stats.diag
            if not all(l * l > _SPAN_TOL * diag[c] for l, c in zip(row, zs)):
                continue  # a NaN pivot fails the comparison too
            l_xx, l_yy = row[-2:]
            ss_x, ss_y = l_xx * l_xx, l_yx * l_yx + l_yy * l_yy
            floor = n * _VARIANCE_EPS ** 2
            df = n - (stats.group_rank + len(zs)) - 1
            if (df < 1 or not (ss_x > floor and ss_x > _SPAN_TOL * diag[x.column]
                               and ss_y > floor and ss_y > _SPAN_TOL * diag[y.column])):
                continue
            r = min(abs(l_yx) / math.sqrt(ss_y), 1 - 1e-15)
            p_value = min(1.0, _t_tail(r * math.sqrt(df / (1.0 - r * r)), df))
            results[k] = CITestResult(r, p_value, n, degenerate=False, df=df)
    return results


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
    ``SelectionError``.  A context endpoint conditioned on the (non-constant)
    dummy of its own kind is a ``QueryError``.  The residual cross-products
    come from ``data.gram_stats``: dummies in ``z`` select the demeaning of
    the cached Gram matrix.  A scalar pair is answered as a batch of one
    (``parcorr_batch``), from the Cholesky factor of its ``(z, x, y)`` block;
    a dummy endpoint, and a pair whose factor cannot decide, from the
    pseudo-inverse projection of the scalar ``z`` columns
    (``data.z_projection``), whose components for a dummy endpoint are the
    group sums of the residuals.

    Tested variables flagged degenerate (constant dummy blocks) or residuals
    with zero variance yield an independence verdict with ``p_value = 1`` and
    the degenerate flag set.
    """
    case = _resolve(query, data)
    if isinstance(case, CITestResult):
        return case
    if not case[0].dummy:
        (result,) = _factored_pairs([case])
        if result is not None:
            return result
    return _projected(case, data)


def parcorr_batch(queries, data):
    """``parcorr_test`` of every query in ``queries``, a list of ``CIQuery``.

    Returns the list of ``CITestResult``, each the same bits as a
    ``parcorr_test`` call on its own.  The scalar pairs are answered
    together (``_factored_pairs``): one gather and one stacked Cholesky call
    per row set, dummy mode and ``z`` size.  Every other query -- a dummy
    endpoint, or a pair whose factor cannot decide -- goes to the module's
    ``parcorr_test``.  The queries are resolved in order, so the first
    malformed one raises before any is tested.
    """
    results, cases, at = [], [], []
    for query in queries:
        case = _resolve(query, data)
        if isinstance(case, CITestResult):
            results.append(case)
        elif case[0].dummy:
            results.append(None)
        else:
            at.append(len(results))
            cases.append(case)
            results.append(None)
    for k, result in zip(at, _factored_pairs(cases)):
        results[k] = result
    return [parcorr_test(query, data) if result is None else result
            for query, result in zip(queries, results)]


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

    def batch(self, queries):
        """The results of ``(x, y, z)`` queries, asked as one ``parcorr_batch``."""
        self.n_tests += len(queries)
        return parcorr_batch([CIQuery((x,), (y,), z) for x, y, z in queries], self.data)


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
    """

    def __init__(self, graph, tau_max, unroll_depth=None):
        if not isinstance(graph, GroundTruthGraph):
            raise QueryError("the oracle needs a ground-truth graph")
        if unroll_depth is None:
            unroll_depth = 4 * max(graph.tau_max, tau_max, 1)
        if unroll_depth < graph.tau_max:
            raise QueryError(
                f"unroll_depth {unroll_depth} is smaller than tau_max {graph.tau_max}")
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

    def _refusal(self, sel):
        """The ``QueryError`` for a selector missing from ``selectors``."""
        if len(sel) != 2:
            return QueryError(f"selector {sel} is not a (var, lag) pair")
        var, lag = sel
        if (var, 0) not in self.selectors:
            return QueryError(f"selector {sel} is not an observed variable")
        if not self.var_roles[var].is_time_indexed:
            return QueryError(f"selector {sel} must have lag 0")
        return QueryError(f"lag {lag} outside the unrolled window {self.depth}")

    def __call__(self, x, y, z=()):
        self.n_tests += 1
        (x,), (y,), z = CIQuery((x,), (y,), z)
        try:
            nx, ny = self.selectors[x], self.selectors[y]
            zsub = frozenset().union(*map(self.selectors.__getitem__, z))
        except KeyError as missing:
            raise self._refusal(missing.args[0]) from None
        if y in self._latent:  # d-separation is symmetric: keep a dummy in x
            if x in self._latent:
                raise QueryError("a dummy may appear on one side of the query only")
            x, nx, ny = y, ny, nx
        (node,) = ny
        if x in self._latent:
            latent = self._latent[x]
            if node in zsub:  # as d_separated refuses it
                raise GraphStructureError("x and y must not be part of z")
            independent = not latent or latent.isdisjoint(
                d_connected(self.graph, node, zsub, self.depth))
        else:
            independent = d_separated(self.graph, *nx, node, zsub,
                                      unroll_depth=self.depth)
        return CITestResult(0.0, 1.0, 0) if independent else CITestResult(1.0, 0.0, 0)

    def batch(self, queries):
        """The results of ``(x, y, z)`` queries, one call each."""
        return [self(x, y, z) for x, y, z in queries]
