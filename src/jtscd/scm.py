"""Random linear time-dependent SCMs over multiple datasets, and their simulation.

Variables are indexed as: system variables ``0..N-1``, then temporal
contexts, then spatial contexts.  Each system variable is a linear function
of an autoregressive term, lagged/contemporaneous system parents, temporal
context parents (possibly lagged) and spatial context parents (always
contemporaneous), plus unit-variance Gaussian noise.  Context variables are
exogenous: temporal contexts are i.i.d. over time and shared by all
datasets, spatial contexts are drawn once per dataset and constant in time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import GroundTruthGraph, VariableRole


class GenerationError(RuntimeError):
    """No stable coefficient draw found within the attempt budget."""


class SimulationError(RuntimeError):
    """Simulated values blew up (non-finite)."""


class NonFiniteDataError(ValueError):
    """A dataset holds NaN or infinite values."""


class PanelShapeError(ValueError):
    """The arrays of a DatasetCollection do not form one balanced panel."""


class ConstantColumnError(ValueError):
    """A system variable takes one value over every dataset and time step."""


@dataclass(frozen=True)
class LinearTerm:
    """One linear parent term: ``coeff * value(var, t - lag)``."""
    var: int
    lag: int
    coeff: float


@dataclass
class SCMSpec:
    """Structural specification of a linear joint SCM.

    ``autocorr[i]`` is the lag-1 self coefficient of system variable ``i``
    (0 disables it); ``terms[i]`` lists its remaining parents.  The context
    block of ``observed_mask`` follows variable order: temporal contexts
    first, then spatial contexts.
    """
    n_system: int
    n_temporal_ctx: int
    n_spatial_ctx: int
    autocorr: tuple
    terms: tuple
    noise_std: tuple
    observed_mask: tuple

    @property
    def n_contexts(self):
        return self.n_temporal_ctx + self.n_spatial_ctx

    @property
    def n_vars(self):
        return self.n_system + self.n_contexts

    def role_of(self, v):
        if v < self.n_system:
            return VariableRole.SYSTEM
        k = v - self.n_system
        observed = self.observed_mask[k]
        if k < self.n_temporal_ctx:
            return (VariableRole.TEMPORAL_CONTEXT if observed
                    else VariableRole.LATENT_TEMPORAL_CONTEXT)
        return (VariableRole.SPATIAL_CONTEXT if observed
                else VariableRole.LATENT_SPATIAL_CONTEXT)

    def roles(self):
        return [self.role_of(v) for v in range(self.n_vars)]

    @property
    def max_lag(self):
        lags = [1] if any(a != 0.0 for a in self.autocorr) else [0]
        lags += [t.lag for terms in self.terms for t in terms]
        return max(lags)

    def validate(self):
        if len(self.autocorr) != self.n_system or len(self.terms) != self.n_system:
            raise ValueError("autocorr/terms must have one entry per system variable")
        if len(self.noise_std) != self.n_system:
            raise ValueError("noise_std must have one entry per system variable")
        if len(self.observed_mask) != self.n_contexts:
            raise ValueError("observed_mask must have one entry per context")
        for i, terms in enumerate(self.terms):
            for t in terms:
                if t.coeff == 0.0:
                    raise ValueError("zero-coefficient terms are not allowed")
                if not (0 <= t.var < self.n_vars):
                    raise ValueError(f"term parent {t.var} out of range")
                single = (self.n_system + self.n_temporal_ctx <= t.var)
                if single and t.lag != 0:
                    raise ValueError("spatial context parents must have lag 0")
                if t.lag < 0:
                    raise ValueError("negative lags are not allowed")
        self.to_graph().validate()
        return self

    def to_graph(self):
        g = GroundTruthGraph(self.roles(), self.max_lag)
        for i in range(self.n_system):
            if self.autocorr[i] != 0.0:
                g.add_edge(i, i, 1)
            for t in self.terms[i]:
                g.add_edge(t.var, i, t.lag)
        return g

    def to_dict(self):
        return {
            "n_system": self.n_system,
            "n_temporal_ctx": self.n_temporal_ctx,
            "n_spatial_ctx": self.n_spatial_ctx,
            "autocorr": list(self.autocorr),
            "terms": [[[t.var, t.lag, t.coeff] for t in terms] for terms in self.terms],
            "noise_std": list(self.noise_std),
            "observed_mask": list(self.observed_mask),
        }


@dataclass
class DatasetCollection:
    """M datasets plus the shared and per-dataset context values.

    ``system`` has shape (M, T, n_system); ``temporal_ctx`` (T, n_temporal_ctx)
    is shared by every dataset; ``spatial_ctx`` (M, n_spatial_ctx) is constant
    over time within a dataset; ``observed_mask`` flags each context, temporal
    ones first.  A collection holds these four values only, whether
    ``simulate`` drew it or ``from_dir`` read it back.
    """
    system: np.ndarray
    temporal_ctx: np.ndarray
    spatial_ctx: np.ndarray
    observed_mask: tuple

    def __post_init__(self):
        self.check_shapes()
        self.check_finite()

    def check_shapes(self):
        """Raise ``PanelShapeError`` unless the arrays form one balanced panel.

        ``system`` must be (M, T, n_system) -- M datasets of one length T --
        ``temporal_ctx`` (T, n_temporal_ctx) and ``spatial_ctx``
        (M, n_spatial_ctx), with M >= 1 and T >= 1, and ``observed_mask``
        needs one entry per context.
        """
        try:
            system = np.shape(self.system)
        except ValueError:  # datasets of different shapes
            shapes = sorted({np.shape(d) for d in self.system})
            raise PanelShapeError(
                f"system datasets differ in shape: {shapes[0]} and {shapes[-1]}") from None
        if len(system) != 3:
            raise PanelShapeError(
                f"system has shape {system}; it must be 3-D (M, T, n_system)")
        M, T, _ = system
        if M < 1 or T < 1:
            raise PanelShapeError(
                f"system has shape {system}; it needs at least one dataset and one time step")
        temporal, spatial = np.shape(self.temporal_ctx), np.shape(self.spatial_ctx)
        for name, shape, axis, rows in (("temporal_ctx", temporal, "T", T),
                                        ("spatial_ctx", spatial, "M", M)):
            if len(shape) != 2 or shape[0] != rows:
                raise PanelShapeError(
                    f"{name} has shape {shape}; system of shape {system} "
                    f"needs ({axis}={rows}, n_{name})")
        n_contexts = temporal[1] + spatial[1]
        if len(self.observed_mask) != n_contexts:
            raise PanelShapeError(
                f"observed_mask has {len(self.observed_mask)} entries; temporal_ctx of "
                f"shape {temporal} and spatial_ctx of shape {spatial} need {n_contexts}")

    def check_finite(self):
        """Raise ``NonFiniteDataError`` if any data value is NaN or infinite."""
        for name in ("system", "temporal_ctx", "spatial_ctx"):
            values = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(values)):
                bad = np.argwhere(~np.isfinite(values))[0]
                raise NonFiniteDataError(
                    f"{name} holds a non-finite value at index {tuple(int(i) for i in bad)}")

    @property
    def M(self):
        return self.system.shape[0]

    @property
    def T(self):
        return self.system.shape[1]

    @property
    def n_system(self):
        return self.system.shape[2]

    @property
    def n_temporal_ctx(self):
        return self.temporal_ctx.shape[1]

    @property
    def n_spatial_ctx(self):
        return self.spatial_ctx.shape[1]

    def observed_temporal_indices(self):
        return [k for k in range(self.n_temporal_ctx) if self.observed_mask[k]]

    def observed_spatial_indices(self):
        return [k for k in range(self.n_spatial_ctx)
                if self.observed_mask[self.n_temporal_ctx + k]]

    def observed_roles(self):
        """Roles of the observed variables in discovery order (no dummies)."""
        roles = [VariableRole.SYSTEM] * self.n_system
        roles += [VariableRole.TEMPORAL_CONTEXT] * len(self.observed_temporal_indices())
        roles += [VariableRole.SPATIAL_CONTEXT] * len(self.observed_spatial_indices())
        return roles

    def mask_all_latent(self):
        """Same data with every context variable treated as unobserved."""
        return DatasetCollection(
            system=self.system, temporal_ctx=self.temporal_ctx,
            spatial_ctx=self.spatial_ctx,
            observed_mask=tuple(False for _ in self.observed_mask))

    # -- serialization -----------------------------------------------------

    def dataset_csv(self, m):
        """CSV text of dataset ``m`` with t, system, temporal and spatial columns."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_csv_header(self.n_system, self.n_temporal_ctx, self.n_spatial_ctx))
        for t in range(self.T):
            row = [str(t)]
            row += [f"{v:.17g}" for v in self.system[m, t]]
            row += [f"{v:.17g}" for v in self.temporal_ctx[t]]
            row += [f"{v:.17g}" for v in self.spatial_ctx[m]]
            writer.writerow(row)
        return buf.getvalue()

    def to_dir(self, path, spec=None, seed=None):
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        for m in range(self.M):
            (path / f"data_{m:03d}.csv").write_text(self.dataset_csv(m))
        meta = {
            "M": self.M, "T": self.T,
            "n_system": self.n_system,
            "n_temporal_ctx": self.n_temporal_ctx,
            "n_spatial_ctx": self.n_spatial_ctx,
            "observed_mask": list(self.observed_mask),
            "seed": seed,
            "spec": spec.to_dict() if spec is not None else None,
        }
        (path / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_dir(cls, path):
        """Read a ``to_dir`` directory; a malformed meta.json, a header other than
        ``dataset_csv``'s or a ``t`` cell other than its row number is a ``ValueError``."""
        path = Path(path)
        meta = json.loads((path / "meta.json").read_text())
        counts = ("M", "T", "n_system", "n_temporal_ctx", "n_spatial_ctx")
        for key in counts + ("observed_mask",):
            if not isinstance(meta, dict) or key not in meta:
                raise ValueError(f"{path / 'meta.json'} has no {key!r}")
            if key in counts and (type(meta[key]) is not int or meta[key] < 0):
                raise ValueError(f"{path / 'meta.json'}: {key}={meta[key]!r} must be a "
                                 f"non-negative integer")
        mask = meta["observed_mask"]
        if type(mask) is not list or any(type(b) is not bool for b in mask):
            raise ValueError(f"{path / 'meta.json'}: observed_mask={mask!r} must be a list "
                             f"of true/false values")
        M, T, n_sys, n_t, n_s = (meta[key] for key in counts)
        system = np.zeros((M, T, n_sys))
        temporal = np.zeros((T, n_t))
        spatial = np.zeros((M, n_s))
        header = _csv_header(n_sys, n_t, n_s)
        width = len(header) - 1
        for m in range(M):
            name = f"data_{m:03d}.csv"
            given, *body = list(csv.reader((path / name).read_text().splitlines())) or [[]]
            if given != header:
                raise ValueError(f"{name}: header {','.join(given)!r} must be "
                                 f"{','.join(header)!r}")
            if len(body) != T:
                raise PanelShapeError(f"dataset {m} has {len(body)} rows, expected {T}")
            for t, row in enumerate(body):
                vals = []
                for k, v in enumerate(row[1:], 1):
                    try:
                        vals.append(float(v))
                    except ValueError:
                        column = header[k] if k < len(header) else f"#{k}"
                        raise ValueError(f"{name} data row {t}, column {column!r}: "
                                         f"{v!r} is not a number") from None
                if len(vals) != width:
                    raise PanelShapeError(f"dataset {m} row {t} has {len(vals)} values, "
                                          f"expected {width}")
                if row[:1] != [str(t)]:
                    raise ValueError(f"{name} data row {t}: t={''.join(row[:1])!r} must be {t}")
                system[m, t] = vals[:n_sys]
                temporal_row = vals[n_sys:n_sys + n_t]
                if m == 0:
                    temporal[t] = temporal_row
                elif not np.array_equal(temporal[t], temporal_row, equal_nan=True):
                    raise ValueError("temporal context differs across datasets")
                spatial_row = vals[n_sys + n_t:]
                if t == 0:
                    spatial[m] = spatial_row
                elif not np.array_equal(spatial[m], spatial_row, equal_nan=True):
                    raise ValueError(f"spatial context changes within dataset {m} "
                                     f"at row {t}")
        return cls(system=system, temporal_ctx=temporal, spatial_ctx=spatial,
                   observed_mask=tuple(mask))


def _csv_header(n_system, n_temporal_ctx, n_spatial_ctx):
    """The columns of a dataset CSV file: ``t``, system, temporal and spatial contexts."""
    return (["t"] + [f"X{i}" for i in range(n_system)]
            + [f"Ctime{k}" for k in range(n_temporal_ctx)]
            + [f"Cspace{k}" for k in range(n_spatial_ctx)])


def _lag_matrices(spec):
    """Coefficients of ``spec`` as matrices over lags ``0..p``, ``p = max(max_lag, 1)``.

    Returns ``(A, C, S)``: ``A[k]`` (N x N) maps system values at lag ``k``,
    ``C[k]`` (N x n_temporal_ctx) temporal contexts at lag ``k`` and ``S``
    (N x n_spatial_ctx) spatial contexts to the system variables; row ``i``
    holds the coefficients of system variable ``i``.
    """
    N, Kt = spec.n_system, spec.n_temporal_ctx
    p = max(spec.max_lag, 1)
    A = np.zeros((p + 1, N, N))
    C = np.zeros((p + 1, N, Kt))
    S = np.zeros((N, spec.n_spatial_ctx))
    for i in range(N):
        A[1, i, i] += spec.autocorr[i]
        for t in spec.terms[i]:
            if t.var < N:
                A[t.lag, i, t.var] += t.coeff
            elif t.var < N + Kt:
                C[t.lag, i, t.var - N] += t.coeff
            else:
                S[i, t.var - N - Kt] += t.coeff
    return A, C, S


def spectral_radius(spec):
    """Spectral radius of the reduced-form VAR companion matrix."""
    A, _, _ = _lag_matrices(spec)
    p, N = len(A) - 1, spec.n_system
    lhs = np.eye(N) - A[0]
    reduced = [np.linalg.solve(lhs, A[k]) for k in range(1, p + 1)]
    companion = np.zeros((N * p, N * p))
    companion[:N, :] = np.hstack(reduced)
    if p > 1:
        companion[N:, :-N] = np.eye(N * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


# the shape every random model shares (see ``generate_random_model``)
CONTEMP_FRAC = 0.5
AUTOCORR_RANGE = (0.3, 0.8)
COEFF_RANGE = (0.5, 0.9)
STABILITY_RADIUS = 0.95
MAX_ATTEMPTS = 100


def generate_random_model(n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
                          frac_observed=0.5, seed=0, max_lag=3,
                          ctx_link_prob=1.0, lag_free=False):
    """Draw a random SCM spec together with its ground-truth graph.

    Each system variable gets an autocorrelation coefficient drawn from
    ``AUTOCORR_RANGE``, one system parent and at most one context parent,
    with coupling magnitudes drawn from ``COEFF_RANGE``.  With probability
    ``CONTEMP_FRAC`` the system parent is contemporaneous, an earlier
    variable of a random causal order; otherwise, and always for the first
    variable of the order, it is another variable at a lag drawn uniformly
    from ``1..max_lag``.  A lone system variable has no system parent, nor
    has the first of the order in a lag-free model.  The observed subset of
    contexts has size ``ceil(frac_observed * n_contexts)``.  Coefficient
    draws are rejected, at most ``MAX_ATTEMPTS`` times, until the
    reduced-form VAR companion matrix has spectral radius below
    ``STABILITY_RADIUS``.

    With ``lag_free=True`` all links are contemporaneous and autocorrelation
    is disabled (requires ``n_temporal_ctx == 0``): the i.i.d. multi-dataset
    setting.
    """
    if n_system < 1:
        raise ValueError("need at least one system variable")
    if not (0.0 <= frac_observed <= 1.0):
        raise ValueError("frac_observed must lie in [0, 1]")
    if n_temporal_ctx < 0 or n_spatial_ctx < 0:
        raise ValueError("context counts must be non-negative")
    if lag_free and n_temporal_ctx > 0:
        raise ValueError("lag-free models cannot have temporal contexts")
    if not lag_free and max_lag < 1:
        raise ValueError("a lagged model needs max_lag >= 1")
    n_ctx = n_temporal_ctx + n_spatial_ctx
    rng = np.random.default_rng(seed)

    for _ in range(MAX_ATTEMPTS):
        order = list(rng.permutation(n_system))
        pos = {v: k for k, v in enumerate(order)}
        autocorr = ([0.0] * n_system if lag_free
                    else list(rng.uniform(*AUTOCORR_RANGE, size=n_system)))
        terms = [[] for _ in range(n_system)]
        for i in range(n_system):
            earlier = [v for v in range(n_system) if pos[v] < pos[i]]
            others = [v for v in range(n_system) if v != i]
            contemp = lag_free or rng.random() < CONTEMP_FRAC
            if contemp and earlier:
                parent, lag = int(earlier[rng.integers(len(earlier))]), 0
            elif not lag_free and others:
                parent = int(others[rng.integers(len(others))])
                lag = int(rng.integers(1, max_lag + 1))
            else:
                parent = None
            if parent is not None:
                # random sign keeps the rejection sampler viable: all-positive
                # cross couplings on top of autocorrelation are almost surely
                # explosive
                sign = -1.0 if rng.random() < 0.5 else 1.0
                terms[i].append(LinearTerm(
                    parent, lag, sign * float(rng.uniform(*COEFF_RANGE))))
            if n_ctx > 0 and rng.random() < ctx_link_prob:
                c = int(rng.integers(n_ctx))
                if c < n_temporal_ctx:
                    var = n_system + c
                    lag = 0 if (lag_free or rng.random() < CONTEMP_FRAC) \
                        else int(rng.integers(1, max_lag + 1))
                else:
                    var = n_system + c
                    lag = 0
                terms[i].append(LinearTerm(var, lag, float(rng.uniform(*COEFF_RANGE))))
        n_observed = int(np.ceil(frac_observed * n_ctx)) if n_ctx else 0
        mask = [False] * n_ctx
        if n_observed:
            for k in rng.choice(n_ctx, size=n_observed, replace=False):
                mask[int(k)] = True
        spec = SCMSpec(
            n_system=n_system, n_temporal_ctx=n_temporal_ctx,
            n_spatial_ctx=n_spatial_ctx, autocorr=tuple(autocorr),
            terms=tuple(tuple(t) for t in terms),
            noise_std=tuple(1.0 for _ in range(n_system)),
            observed_mask=tuple(mask))
        if lag_free or spectral_radius(spec) < STABILITY_RADIUS:
            spec.validate()
            return spec, spec.to_graph()
    raise GenerationError(
        f"no stable model found in {MAX_ATTEMPTS} attempts "
        f"(radius threshold {STABILITY_RADIUS})")


def simplified_preset():
    """Fixed 2-system / 4-context model with one latent context of each kind.

    Both system variables share all four context parents with coefficient
    0.5 (spatial ones contemporaneous, temporal ones at lag 1); X0 also has
    the contemporaneous parent X1, and X1 has autocorrelation 0.5.  One
    spatial and one temporal context are unobserved.
    """
    x0, x1, ct0, ct1, cs0, cs1 = range(6)
    terms_x0 = (LinearTerm(x1, 0, 0.5),
                LinearTerm(ct0, 1, 0.5), LinearTerm(ct1, 1, 0.5),
                LinearTerm(cs0, 0, 0.5), LinearTerm(cs1, 0, 0.5))
    terms_x1 = (LinearTerm(ct0, 1, 0.5), LinearTerm(ct1, 1, 0.5),
                LinearTerm(cs0, 0, 0.5), LinearTerm(cs1, 0, 0.5))
    spec = SCMSpec(
        n_system=2, n_temporal_ctx=2, n_spatial_ctx=2,
        autocorr=(0.0, 0.5),
        terms=(terms_x0, terms_x1),
        noise_std=(1.0, 1.0),
        observed_mask=(True, False, True, False))
    spec.validate()
    return spec, spec.to_graph()


def simulate(spec, M, T, burn_in=100, seed=0):
    """Simulate ``M`` datasets of length ``T`` from a linear SCM spec.

    Contexts and noises are standard normal.  The spec is compiled once into
    lag matrices, the contemporaneous part is solved through the reduced form
    ``(I - A0)^-1``, and each step is one matrix product over the last
    ``max_lag`` steps (zero before the first); the first ``burn_in`` steps
    are dropped.  Afterwards every system variable is divided by its
    standard deviation pooled over all datasets (and, for comparability,
    context variables by theirs), so pooled variances are one.  The
    collection holds the rescaled values only; the noise and the scale
    factors are not kept.
    """
    spec.validate()
    if M < 1:
        raise ValueError(f"M={M} must be at least 1")
    if T <= spec.max_lag:
        raise ValueError(f"T={T} must exceed the maximum lag {spec.max_lag}")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    rng = np.random.default_rng(seed)
    N, Kt, Ks = spec.n_system, spec.n_temporal_ctx, spec.n_spatial_ctx
    total = T + burn_in
    ctx_t = rng.standard_normal((total, Kt)) if Kt else np.zeros((total, 0))
    ctx_s = rng.standard_normal((M, Ks)) if Ks else np.zeros((M, 0))
    noise = rng.standard_normal((M, total, N)) * np.asarray(spec.noise_std)

    # reduced form X_t = (I - A0)^-1 (sum_k A_k X_{t-k} + drive_t), exact
    # because validate() rejects lag-0 cycles; values before t = 0 are zero
    A, C, S = _lag_matrices(spec)
    p = len(A) - 1
    to_reduced = np.linalg.inv(np.eye(N) - A[0])
    ctx_t_past = np.concatenate([np.zeros((p, Kt)), ctx_t])
    with np.errstate(over="ignore", invalid="ignore"):
        # time-major (total, M, N), so that each step reads one contiguous block
        drive = noise.transpose(1, 0, 2) + ctx_s @ S.T
        for k in range(p + 1):
            drive += (ctx_t_past[p - k:p - k + total] @ C[k].T)[:, None, :]
        drive = drive @ to_reduced.T
        # row m of X holds X_{-p}, ..., X_{total-1} of dataset m side by side,
        # so X_{t-p}, ..., X_{t-1} is one slice to stack against A_p, ..., A_1
        W = (to_reduced @ np.hstack(A[:0:-1])).T
        X = np.zeros((M, (p + total) * N))
        for t in range(total):
            X[:, (p + t) * N:(p + t + 1) * N] = drive[t] + X[:, t * N:(t + p) * N] @ W
        X = X.reshape(M, p + total, N)
    del drive, noise  # released before the copies below, so they do not add to the peak
    if not np.all(np.isfinite(X)):
        raise SimulationError("simulation produced non-finite values")

    system = X[:, p + burn_in:, :].copy()
    temporal = ctx_t[burn_in:, :].copy()
    spatial = ctx_s.copy()

    def pooled_std(a, axes):
        s = a.std(axis=axes) if a.size else np.ones(a.shape[-1])
        return np.where(s < 1e-12, 1.0, s)

    system /= pooled_std(system, (0, 1))
    if Kt:
        temporal /= pooled_std(temporal, (0,))
    if Ks and M > 1:
        spatial /= pooled_std(spatial, (0,))

    return DatasetCollection(
        system=system, temporal_ctx=temporal, spatial_ctx=spatial,
        observed_mask=tuple(spec.observed_mask))
