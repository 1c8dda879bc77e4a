"""Reference kernels the fast ParCorr paths are held to.

``lstsq_parcorr_test`` is the per-test path that ``citests.parcorr_test``
replaced: extract the aligned columns, project dummy blocks out by group
demeaning, fit the scalar conditioning columns plus an intercept by
``lstsq`` and correlate the residuals.  ``centered_parcorr_test`` is the
dense group-demeaned correlation test that conditioning on a full dummy
block must equal.  Both are kept only for the equivalence tests.  Like the kernel, ``lstsq_parcorr_test`` refuses a
context endpoint conditioned on the non-constant dummy of its own kind.
Their p-values come from ``scipy.stats``, independent of the package's own
Student-t tail.

``per_query_parcorr_batch`` is the batch whose group finishes
``citests._results`` replaced: it factorizes the same stacked blocks, but
picks each query's conditioning columns against the live-column cutoff
and finishes each query on its own (``_per_query_finish``), on per-query
thresholds.  The batch must give the same bits.
"""

import math

import numpy as np
from scipy import stats

from jtscd import citests
from jtscd.citests import CITestResult, QueryError
from jtscd.graph import VariableRole
from jtscd.pooling import SPAN_TOL, VARIANCE_EPS

_VARIANCE_EPS = 1e-12


def _demean_by_groups(a, labels, n_groups):
    """Exact projection of columns of ``a`` onto group-mean complements."""
    sums = np.zeros((n_groups, a.shape[1]))
    np.add.at(sums, labels, a)
    counts = np.bincount(labels, minlength=n_groups).astype(float)
    occupied = counts > 0
    counts[~occupied] = 1.0
    means = sums / counts[:, None]
    return a - means[labels], int(occupied.sum())


def _z_column_count(z_selectors, data):
    return sum(data.n_components(var) for (var, lag) in z_selectors)


def _residualize(values, z_selectors, data, start):
    """Residuals of ``values`` w.r.t. the conditioning design, plus its rank."""
    n = values.shape[0]
    rows = data.time_index >= start
    group_blocks = []
    plain = []
    for (var, lag) in z_selectors:
        role = data.var_roles[var]
        if role is VariableRole.TIME_DUMMY:
            group_blocks.append((data.time_index[rows] - data.tau_max,
                                 data.T - data.tau_max))
        elif role is VariableRole.SPACE_DUMMY:
            group_blocks.append((data.dataset_index[rows], data.M))
        else:
            plain.append((var, lag))

    design_cols = [np.ones((n, 1))]
    if plain:
        design_cols.append(np.hstack(
            [data._column_block(var, lag, start) for (var, lag) in plain]))
    design = np.hstack(design_cols)

    work = np.hstack([values, design])
    rank = 0
    for k, (labels, n_groups) in enumerate(group_blocks):
        work, occupied = _demean_by_groups(work, labels, n_groups)
        rank += occupied if k == 0 else occupied - 1
    resid_values = work[:, :values.shape[1]]
    resid_design = work[:, values.shape[1]:]
    norms = np.linalg.norm(resid_design, axis=0)
    resid_design = resid_design[:, norms > _VARIANCE_EPS * max(1.0, np.sqrt(n))]
    if resid_design.shape[1]:
        sol, _, lstsq_rank, _ = np.linalg.lstsq(resid_design, resid_values, rcond=None)
        resid_values = resid_values - resid_design @ sol
        rank += lstsq_rank
    return resid_values, rank


def lstsq_parcorr_test(query, data, correction="bonferroni"):
    """``parcorr_test`` computed from the dense residuals of every test."""
    if correction not in ("bonferroni", "none"):
        raise ValueError("correction must be 'bonferroni' or 'none'")
    all_sel = list(query.x) + list(query.y) + list(query.z)
    start = data.aligned_start(all_sel)  # every selector checked first
    if any(data.selectors[sel].degenerate for sel in query.x + query.y):
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)
    for (var, _) in query.x + query.y:
        role = data.var_roles[var]
        own = (data.time_dummy if role.is_temporal_kind else data.space_dummy, 0)
        if role.is_context and own in query.z and not data.selectors[own].degenerate:
            raise QueryError(f"context {var} is conditioned on its own dummy {own}")
    n = int(np.count_nonzero(data.time_index >= start))
    n_z_cols = _z_column_count(query.z, data)
    if n <= n_z_cols + 3:
        raise QueryError(
            f"too few samples: n={n} with {n_z_cols} conditioning columns "
            f"(query x={query.x} y={query.y} z={query.z})")

    x_block = np.hstack([data._column_block(v, l, start) for (v, l) in query.x])
    y_block = np.hstack([data._column_block(v, l, start) for (v, l) in query.y])
    kx, ky = x_block.shape[1], y_block.shape[1]
    resid, rank = _residualize(np.hstack([x_block, y_block]), query.z, data, start)
    rx, ry = resid[:, :kx], resid[:, kx:]
    df = n - rank - 1
    if df < 1:
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)

    sx = rx.std(axis=0)
    sy = ry.std(axis=0)
    ok_x, ok_y = sx > _VARIANCE_EPS, sy > _VARIANCE_EPS
    if not ok_x.any() or not ok_y.any():
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)

    corr = (rx - rx.mean(axis=0)).T @ (ry - ry.mean(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = corr / np.outer(np.where(ok_x, sx, 1.0), np.where(ok_y, sy, 1.0))
    corr = np.where(np.outer(ok_x, ok_y), corr, 0.0)
    corr = np.clip(corr, -1 + 1e-15, 1 - 1e-15)

    tvals = corr * np.sqrt(df / (1.0 - corr ** 2))
    pvals = 2.0 * stats.t.sf(np.abs(tvals), df)
    pvals = np.where(np.outer(ok_x, ok_y), pvals, 1.0)

    statistic = float(np.max(np.abs(corr)))
    min_p = float(np.min(pvals))
    n_pairs = kx * ky
    p_value = min(1.0, min_p * n_pairs) if correction == "bonferroni" else min_p
    return CITestResult(statistic, p_value, n, degenerate=False, df=df)


def centered_parcorr_test(x, y, data, groups="dataset"):
    """Group-demeaned unconditional correlation test.

    Demeans both columns within each dataset (or time step) and correlates
    the residuals; degrees of freedom account for the absorbed group means
    (``n - M - 1``), which makes the decision identical to conditioning on
    the full one-hot dummy block.
    """
    cols, rows = data.extract_aligned([x, y])
    x_col, y_col = cols[:, :1], cols[:, 1:]
    if groups == "dataset":
        labels, n_groups = data.dataset_index[rows], data.M
    elif groups == "time":
        labels, n_groups = data.time_index[rows] - data.tau_max, data.T - data.tau_max
    else:
        raise ValueError("groups must be 'dataset' or 'time'")
    n = len(rows)
    rx, occ = _demean_by_groups(x_col, labels, n_groups)
    ry, _ = _demean_by_groups(y_col, labels, n_groups)
    df = n - occ - 1
    if rx.std() < _VARIANCE_EPS or ry.std() < _VARIANCE_EPS or df < 1:
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
    r = float(np.corrcoef(rx[:, 0], ry[:, 0])[0, 1])
    r = float(np.clip(r, -1 + 1e-15, 1 - 1e-15))
    t = r * np.sqrt(df / (1.0 - r ** 2))
    return CITestResult(abs(r), float(2.0 * stats.t.sf(abs(t), df)), n, df=df)


def _per_query_zs(query, data, case):
    """The scalar ``z`` columns of a resolved query not exactly zero on its
    rows, each checked against the cutoff of its query's row count."""
    n, diag = case[4], case[5].diag
    cutoff = VARIANCE_EPS * max(1.0, math.sqrt(n))
    table = data.selectors
    columns = [table[s].column for s in query[2] if not table[s].dummy]
    return tuple([c for c in columns if math.sqrt(diag[c]) > cutoff])


def _per_query_finish(case, rank, ss_y, ss_x, along):
    """The ``CITestResult`` of one resolved query from its residual sums;
    for a dummy ``x``, ``ss_x`` and ``along`` are arrays over its groups."""
    x, y, _, _, n, stats, _ = case
    diag = stats.diag
    df = n - (stats.group_rank + rank) - 1
    floor = n * VARIANCE_EPS ** 2
    if df < 1 or not (ss_y > floor and ss_y > SPAN_TOL * diag[y.column]):
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
    n_components = 1
    if x.dummy:
        norms = stats.group_norms[x.dummy]
        ok = (ss_x > floor) & (ss_x > SPAN_TOL * norms)
        if not ok.any():
            return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
        along, n_components = float(abs(along[ok]).max()), len(norms)
    elif not (ss_x > floor and ss_x > SPAN_TOL * diag[x.column]):
        return CITestResult(0.0, 1.0, n, degenerate=True, df=df)
    r = min(abs(along) / math.sqrt(ss_y), 1 - 1e-15)
    p_value = min(1.0, citests._t_tail(r * math.sqrt(df / (1.0 - r * r)), df) * n_components)
    return CITestResult(r, p_value, n, degenerate=False, df=df)


def _per_query_results(cases):
    """The results of resolved queries, grouped and factorized as the batch
    does, each finished by ``_per_query_finish``."""
    out = [None] * len(cases)
    groups = {}
    for k, case in enumerate(cases):
        groups.setdefault((case[2], case[3], len(case[6]), case[0].dummy), []).append(k)
    for (_, _, width, dummy), members in groups.items():
        stats = cases[members[0]][5]
        index = np.array([cases[k][6] + ((cases[k][1].column,) if dummy else
                                         (cases[k][0].column, cases[k][1].column))
                          for k in members])
        factors = citests._cholesky_lo(stats.gram[index[:, :, None], index[:, None, :]])
        pivots = factors.diagonal(0, 1, 2).tolist()
        if dummy:
            sums = stats.group_sums[dummy][:, index].transpose(1, 0, 2)
            num, ss = sums[:, :, -1], stats.group_norms[dummy]
            if width:
                whitened = np.matmul(sums[:, :, :-1],
                                     citests._inv(factors[:, :-1, :-1]).transpose(0, 2, 1))
                num = num - np.matmul(whitened, factors[:, -1, :-1, None])[:, :, 0]
                ss = ss - (whitened * whitened).sum(axis=2)
            ss_xs, alongs = np.broadcast_to(ss, num.shape), num / np.sqrt(ss)
        else:
            l_yxs = factors[:, -1, -2].tolist()
        for i, (k, row) in enumerate(zip(members, pivots)):
            case = cases[k]
            diag, zs = case[5].diag, case[6]
            if not (row[-1] == row[-1]
                    and all(l * l > SPAN_TOL * diag[c] for l, c in zip(row, zs))):
                out[k] = _per_query_finish(case, *citests._eigh_sums(case))
            elif dummy:
                out[k] = _per_query_finish(case, width, row[-1] * row[-1], ss_xs[i], alongs[i])
            else:
                l_xx, l_yy = row[-2:]
                l_yx = l_yxs[i]
                out[k] = _per_query_finish(case, width, l_yx * l_yx + l_yy * l_yy,
                                           l_xx * l_xx, l_yx)
    return out


def per_query_parcorr_batch(queries, data):
    """``citests.parcorr_batch`` with every query finished on its own; a
    query is read by position, as ``citests._resolve`` reads it."""
    results, cases, at = [], [], []
    for query in queries:
        case = citests._resolve(query, data)
        if isinstance(case, CITestResult):
            results.append(case)
            continue
        assert _per_query_zs(query, data, case) == case[6], query
        at.append(len(results))
        cases.append(case)
        results.append(None)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, result in zip(at, _per_query_results(cases)):
            results[k] = result
    return results
