"""Per-term simulator: the reference for ``scm.simulate``.

This is the path that the lag-matrix simulator replaced: contemporaneous
assignments are evaluated in a topological order of the lag-0 links, and
every term of every system variable is added one at a time at each step.
It draws the same random arrays in the same order, so outputs agree up to
the order of floating-point summation.  Besides the collection it returns
the noise it drew and the factors it rescaled by, which ``simulate`` does
not keep, so that tests can rebuild the raw values of a simulation.  It is
kept only for the tests.
"""

from dataclasses import dataclass

import numpy as np

from jtscd.scm import DatasetCollection, SimulationError


@dataclass
class ReferenceRun:
    """A reference simulation: the collection, the noise of the kept steps
    (M, T, n_system), and the pooled standard deviations that system,
    temporal and spatial values were divided by."""
    collection: DatasetCollection
    noise: np.ndarray
    system_scale: np.ndarray
    temporal_scale: np.ndarray
    spatial_scale: np.ndarray


def _contemporaneous_order(spec):
    """Topological order of system variables w.r.t. lag-0 links."""
    children = {i: [] for i in range(spec.n_system)}
    indeg = {i: 0 for i in range(spec.n_system)}
    for i in range(spec.n_system):
        for t in spec.terms[i]:
            if t.lag == 0 and t.var < spec.n_system:
                children[t.var].append(i)
                indeg[i] += 1
    order = [i for i in range(spec.n_system) if indeg[i] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    if len(order) != spec.n_system:
        raise ValueError("contemporaneous assignments contain a cycle")
    return order


def reference_simulate(spec, M, T, burn_in=100, seed=0):
    """Simulate ``M`` datasets of length ``T`` from a linear SCM spec.

    Contexts and noises are standard normal; contemporaneous assignments are
    evaluated in topological order; the first ``burn_in`` steps are dropped.
    Afterwards every system variable is divided by its standard deviation
    pooled over all datasets (and, for comparability, context variables by
    theirs), so pooled variances are one.  Returns a ``ReferenceRun``.
    """
    spec.validate()
    if T <= spec.max_lag:
        raise ValueError(f"T={T} must exceed the maximum lag {spec.max_lag}")
    rng = np.random.default_rng(seed)
    N, Kt, Ks = spec.n_system, spec.n_temporal_ctx, spec.n_spatial_ctx
    total = T + burn_in
    ctx_t = rng.standard_normal((total, Kt)) if Kt else np.zeros((total, 0))
    ctx_s = rng.standard_normal((M, Ks)) if Ks else np.zeros((M, 0))
    noise = rng.standard_normal((M, total, N)) * np.asarray(spec.noise_std)

    order = _contemporaneous_order(spec)
    X = np.zeros((M, total, N))
    for t in range(total):
        for i in order:
            acc = noise[:, t, i].copy()
            if spec.autocorr[i] != 0.0 and t >= 1:
                acc += spec.autocorr[i] * X[:, t - 1, i]
            for term in spec.terms[i]:
                if term.var < N:
                    if t - term.lag >= 0:
                        acc += term.coeff * X[:, t - term.lag, term.var]
                elif term.var < N + Kt:
                    if t - term.lag >= 0:
                        acc += term.coeff * ctx_t[t - term.lag, term.var - N]
                else:
                    acc += term.coeff * ctx_s[:, term.var - N - Kt]
            X[:, t, i] = acc
    if not np.all(np.isfinite(X)):
        raise SimulationError("simulation produced non-finite values")

    system = X[:, burn_in:, :].copy()
    noise_kept = noise[:, burn_in:, :].copy()
    temporal = ctx_t[burn_in:, :].copy()
    spatial = ctx_s.copy()

    def pooled_std(a, axes):
        s = a.std(axis=axes) if a.size else np.ones(a.shape[-1])
        return np.where(s < 1e-12, 1.0, s)

    s_sys = pooled_std(system, (0, 1))
    s_t = pooled_std(temporal, (0,)) if Kt else np.ones(0)
    s_s = pooled_std(spatial, (0,)) if Ks and M > 1 else np.ones(Ks)
    system /= s_sys
    if Kt:
        temporal /= s_t
    if Ks:
        spatial /= s_s

    collection = DatasetCollection(system=system, temporal_ctx=temporal, spatial_ctx=spatial,
                                   observed_mask=tuple(spec.observed_mask))
    return ReferenceRun(collection, noise_kept, s_sys, s_t, s_s)
