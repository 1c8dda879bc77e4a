"""The explicit-demeaning Gram build that ``PooledData.gram_stats`` replaced.

``reference_gram_stats(data, start, mode)`` fills the lagged columns of one
row set into a ``(column, dataset, time)`` block, demeans it as the dummy
mode asks (centred, within time steps, within datasets, or both, time
first) and multiplies it out.  The pooled data now derives every row set
and dummy mode from one raw pass (``pooling.PooledData._raw_pass``); this
build is kept only for the equivalence tests.
"""

import numpy as np

from jtscd.pooling import DUMMY_MODES, GramStats


def reference_gram_stats(data, start, mode):
    """``GramStats`` of the rows of ``data`` from time step ``start`` on."""
    if mode not in DUMMY_MODES:
        raise ValueError(f"mode must be one of {DUMMY_MODES}")
    M, T, tau_max = data.M, data.T, data.tau_max
    width = T - start
    cols = data.scalar_columns[:data.n_observed + start * data._n_lagged]
    # rows are dataset-major over a balanced panel, so a (p, M, width) block
    # holds each column as its (M, width) panel
    block = np.empty((len(cols), M, width))
    for k, (var, lag) in enumerate(cols):
        block[k] = data._panel(var, lag, start)
    if mode == "none":
        block -= block.mean(axis=(1, 2), keepdims=True)
    if mode in ("time", "both"):
        block -= block.mean(axis=1, keepdims=True)
    if mode in ("space", "both"):
        block -= block.mean(axis=2, keepdims=True)
    flat = block.reshape(len(cols), -1)
    n_steps = T - tau_max
    time_sums = np.zeros((n_steps, len(cols)))
    time_sums[start - tau_max:] = block.sum(axis=1).T
    time_norms = np.zeros(n_steps)
    time_norms[start - tau_max:] = M * (1.0 - 1.0 / width)
    group_rank = {"none": 1, "time": width, "space": M,
                  "both": width + M - 1}[mode]
    gram = flat @ flat.T
    return GramStats(
        group_rank=group_rank, gram=gram, diag=tuple(gram.diagonal().tolist()),
        group_sums={"time": time_sums, "space": block.sum(axis=2).T},
        group_norms={"time": time_norms,
                     "space": np.full(M, width * (1.0 - 1.0 / M))})
