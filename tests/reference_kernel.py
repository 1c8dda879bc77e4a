"""Dense least-squares partial correlation: the reference for the Gram kernel.

This is the per-test path that ``citests.parcorr_test`` replaced: extract the
aligned columns, project dummy blocks out by group demeaning, fit the scalar
conditioning columns plus an intercept by ``lstsq`` and correlate the
residuals.  It is kept only for the equivalence tests.
"""

import numpy as np
from scipy import stats

from jtscd.citests import CITestResult, QueryError, _demean_by_groups
from jtscd.graph import VariableRole

_VARIANCE_EPS = 1e-12


def _z_column_count(z_selectors, data):
    return sum(data.n_components(var) for (var, lag) in z_selectors)


def _residualize(values, z_selectors, data, rows):
    """Residuals of ``values`` w.r.t. the conditioning design, plus its rank."""
    n = values.shape[0]
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
            [data._column_block(var, lag, rows) for (var, lag) in plain]))
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
    if any(data.is_degenerate(var) for (var, _) in query.x + query.y):
        return CITestResult(0.0, 1.0, data.n_rows, degenerate=True)

    all_sel = list(query.x) + list(query.y) + list(query.z)
    _, rows = data.extract_aligned(all_sel)
    n = len(rows)
    n_z_cols = _z_column_count(query.z, data)
    if n <= n_z_cols + 3:
        raise QueryError(
            f"too few samples: n={n} with {n_z_cols} conditioning columns "
            f"(query x={query.x} y={query.y} z={query.z})")

    x_block = np.hstack([data._column_block(v, l, rows) for (v, l) in query.x])
    y_block = np.hstack([data._column_block(v, l, rows) for (v, l) in query.y])
    kx, ky = x_block.shape[1], y_block.shape[1]
    resid, rank = _residualize(np.hstack([x_block, y_block]), query.z, data, rows)
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
