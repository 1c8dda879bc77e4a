"""Random joint SCMs, multi-dataset simulation, and pooling.

Draws a random linear model (five system variables, two temporal and one
spatial context, half observed), simulates ten datasets, and inspects the
pooled design matrix with its dummy labels.
"""

import numpy as np

from jtscd import generate_random_model, pool_data, simulate

spec, graph = generate_random_model(
    n_system=5, n_temporal_ctx=2, n_spatial_ctx=1, frac_observed=0.5, seed=8)

print("autocorrelations:", np.round(spec.autocorr, 3))
print("observed context mask:", spec.observed_mask)
print("ground-truth edges:")
for edge in graph.directed_edges():
    print("   ", edge)

dc = simulate(spec, M=10, T=150, seed=9)
pooled_block = dc.system.reshape(-1, dc.n_system)
print("\npooled variances (rescaled to one):",
      np.round(pooled_block.var(axis=0), 12))
print("temporal context shape (shared by all datasets):",
      dc.temporal_ctx.shape)
print("spatial context shape (one value per dataset):", dc.spatial_ctx.shape)

pooled = pool_data(dc, tau_max=2)
print(f"\npooled rows: {pooled.n_rows} = M (T - tau_max) = "
      f"{dc.M} * ({dc.T} - 2)")
print("variables in discovery order:",
      [r.value for r in pooled.var_roles])

# Lagged extraction respects dataset boundaries.
lagged, _ = pooled.extract_aligned([(0, 0), (0, 1)])
print("X0 at t and t-1, first rows:\n", np.round(lagged[:3], 3))

# A dummy is its labels: the space dummy is each row's dataset index.
print("rows per space dummy label (one label per dataset):",
      np.bincount(pooled.dataset_index))
