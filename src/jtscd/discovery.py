"""Constraint-based causal discovery over pooled multi-dataset time series.

The time-series driver runs four phases: a lagged-adjacency phase that
shrinks candidate lagged drivers per variable, then three momentary-CI
skeleton sweeps over (1) context-system pairs while ignoring the dummies,
(2) dummy-system pairs given the found context parents, and (3) system-system
pairs given everything found so far; collider orientation and propagation
rules finish the graph.  Testing contexts before dummies avoids the spurious
independencies that deterministic dummy-context relations would otherwise
inject into the PC-style search.

All selectors are ``(var, lag)`` with non-negative lags; pair entries
``(i, tau, j)`` test variable ``i`` at ``t - tau`` against ``j`` at ``t``.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import (ABSENT, CONFLICT, DIRECTED, REVERSED, UNDIRECTED,
                    TimeSeriesGraph, VariableRole, mirror_mark)


class DiscoveryError(RuntimeError):
    """A CI test failed; the offending query is attached to the message."""


_CONTEXT_ROLES = (VariableRole.SYSTEM, VariableRole.TEMPORAL_CONTEXT,
                  VariableRole.SPATIAL_CONTEXT)
_SYSTEM_ONLY = (VariableRole.SYSTEM,)


@dataclass(frozen=True)
class SepSetEntry:
    """Separating set found when a link was removed.

    ``s`` is the contemporaneous subset chosen by the search (used by the
    collider rule); ``z`` is the full conditioning set of the accepting test
    and ``pair`` its ``(i, tau, j)`` anchor, so the decision can be replayed
    exactly.
    """
    s: tuple
    z: tuple
    p_value: float
    statistic: float
    pair: tuple = ()


class SepSetStore:
    """Separating sets keyed by link; contemporaneous pairs are unordered."""

    def __init__(self):
        self._entries = {}

    @staticmethod
    def _key(i, tau, j):
        if tau == 0:
            a, b = sorted((i, j))
            return (a, 0, b)
        return (i, tau, j)

    def store(self, i, tau, j, entry):
        self._entries[self._key(i, tau, j)] = entry

    def get(self, i, tau, j):
        return self._entries.get(self._key(i, tau, j))

    def items(self):
        return sorted(self._entries.items())

    def __len__(self):
        return len(self._entries)


@dataclass
class LaggedAdjacencies:
    """Surviving lagged drivers per variable, strongest first.

    ``sets[j]`` lists ``(var, lag)`` candidates ordered by the minimum
    absolute test statistic seen across iterations (descending, ties broken
    lexicographically); ``strengths[j]`` holds those minima.
    """
    sets: dict
    strengths: dict

    def system_only(self, roles):
        return {j: [(i, lag) for (i, lag) in self.sets.get(j, [])
                    if roles[i].is_system]
                for j in self.sets}


@dataclass
class DiscoveryResult:
    graph: TimeSeriesGraph
    sepsets: SepSetStore
    lagged: LaggedAdjacencies | None = None
    context_parents: dict = field(default_factory=dict)
    dummy_parents: dict = field(default_factory=dict)
    ambiguous_triples: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# mark-array helpers


def _blank_marks(n, tau_max):
    return np.full((n, n, tau_max + 1), "", dtype="<U3")


def _set_mark(marks, i, tau, j, mark):
    marks[i, j, tau] = mark
    if tau == 0:
        marks[j, i, 0] = mirror_mark(mark)


def _remove_mark(marks, i, tau, j):
    marks[i, j, tau] = ""
    if tau == 0:
        marks[j, i, 0] = ""


def _marks_to_graph(marks, roles, tau_max, n_out=None):
    n_out = n_out if n_out is not None else len(roles)
    g = TimeSeriesGraph(roles[:n_out], tau_max)
    for j in range(n_out):
        for i in range(n_out):
            for tau in range(tau_max + 1):
                mark = str(marks[i, j, tau])
                if mark == "" or (tau == 0 and i > j):
                    continue
                g.set_mark(i, j, tau, mark)
    return g


def _run_ci(ci, x, y, z):
    try:
        return ci(x, y, z)
    except Exception as exc:
        raise DiscoveryError(f"CI test failed for {x} vs {y} given {z}: {exc}") from exc


# ---------------------------------------------------------------------------
# lagged phase


def lagged_skeleton_pcmciplus(ci, roles=None, tau_max=2, alpha=0.05,
                              max_conds_dim=None, fixed_conditions=(),
                              sepsets=None, include_contexts=True):
    """Iterative lagged-adjacency search (one condition set per cardinality).

    For every system and observed temporal-context variable, candidate lagged
    drivers (lags ``1..tau_max``) are pruned by CI tests conditioned on the
    currently strongest remaining candidates, growing the conditioning
    cardinality until convergence.  The result always contains the true
    lagged parents under a consistent CI test.  Temporal contexts only admit
    temporal-context drivers (contexts are exogenous to the system); with
    ``include_contexts=False`` the search runs over system variables alone.
    """
    if tau_max < 1:
        raise ValueError("the lagged phase needs tau_max >= 1")
    roles = list(roles if roles is not None else ci.var_roles)
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles)
            if include_contexts and r is VariableRole.TEMPORAL_CONTEXT]
    sets, strengths = {}, {}
    max_dim = max_conds_dim if max_conds_dim is not None else np.inf

    for j in system + tctx:
        drivers = system + tctx if j in system else tctx
        current = sorted((i, lag) for i in drivers for lag in range(1, tau_max + 1))
        vals = {c: np.inf for c in current}
        dim = 0
        while dim <= max_dim and len(current) - 1 >= dim:
            removed = set()
            for cand in current:
                others = [c for c in current if c != cand][:dim]
                z = list(others) + list(fixed_conditions)
                res = _run_ci(ci, cand, (j, 0), z)
                vals[cand] = min(vals[cand], abs(res.statistic))
                if res.p_value > alpha:
                    removed.add(cand)
                    if sepsets is not None:
                        sepsets.store(cand[0], cand[1], j,
                                      SepSetEntry((), tuple(z), res.p_value,
                                                  res.statistic,
                                                  (cand[0], cand[1], j)))
            current = [c for c in current if c not in removed]
            current.sort(key=lambda c: (-vals[c], c))
            dim += 1
        sets[j] = list(current)
        strengths[j] = {c: vals[c] for c in current}
    for v in range(len(roles)):
        sets.setdefault(v, [])
        strengths.setdefault(v, {})
    return LaggedAdjacencies(sets=sets, strengths=strengths)


# ---------------------------------------------------------------------------
# skeleton sweep engine


def _condition_set(S, base_sets, i, tau, j, fixed, roles):
    """Full conditioning set: chosen subset, target-side base set minus the
    tested driver, driver-side base set shifted by ``tau`` (single-node
    variables keep pseudo-lag 0), plus any fixed conditions."""
    z = []
    seen = {(i, tau), (j, 0)}
    for sel in S:
        if sel not in seen:
            z.append(sel)
            seen.add(sel)
    for sel in base_sets.get(j, ()):
        if sel not in seen:
            z.append(sel)
            seen.add(sel)
    for (v, lag) in base_sets.get(i, ()):
        sel = (v, lag + tau) if roles[v].is_time_indexed else (v, lag)
        if sel not in seen:
            z.append(sel)
            seen.add(sel)
    for sel in fixed:
        if sel not in seen:
            z.append(sel)
            seen.add(sel)
    return z


def _contemp_adjacencies(marks, roles, allowed_roles, strengths):
    n = marks.shape[0]
    adj = {}
    for j in range(n):
        cands = [(i, 0) for i in range(n)
                 if i != j and marks[i, j, 0] != "" and roles[i] in allowed_roles]
        cands.sort(key=lambda s: (-strengths.get((s[0], 0, j), np.inf), s))
        adj[j] = cands
    return adj


def _skeleton_sweep(ci, marks, pairs, alpha, base_sets, allowed_s_roles, roles,
                    max_conds_dim=None, fixed_conditions=(), sepsets=None,
                    workers=None, forbid_dummy_z=False):
    """Remove links among ``pairs`` by CI tests with growing subsets ``S``.

    Within one cardinality level, candidate subsets are drawn from the
    adjacency sets frozen at level start, so decisions are independent of
    the schedule; tasks (one per unordered link) may therefore run on a
    thread pool, with removals committed in canonical order between levels.
    """
    sepsets = sepsets if sepsets is not None else SepSetStore()
    strengths = {}
    dummy_vars = {v for v, r in enumerate(roles) if r.is_dummy}
    max_dim = max_conds_dim if max_conds_dim is not None else np.inf
    p = 0
    while p <= max_dim:
        adj = _contemp_adjacencies(marks, roles, allowed_s_roles, strengths)
        order = []
        tasks = {}
        for (i, tau, j) in pairs:
            if marks[i, j, tau] == "":
                continue
            if len([a for a in adj[j] if a != (i, tau)]) < p:
                continue
            key = (min(i, j), max(i, j), 0) if tau == 0 else (i, j, tau)
            if key not in tasks:
                tasks[key] = []
                order.append(key)
            tasks[key].append((i, tau, j))
        if not order:
            break

        def run_task(key):
            updates = {}
            decision = None
            for (i, tau, j) in tasks[key]:
                if decision is not None:
                    break
                cands = [a for a in adj[j] if a != (i, tau)]
                if len(cands) < p:
                    continue
                for S in itertools.combinations(cands, p):
                    z = _condition_set(S, base_sets, i, tau, j,
                                       fixed_conditions, roles)
                    if forbid_dummy_z and any(v in dummy_vars for (v, _) in z):
                        raise DiscoveryError(
                            f"dummy column in a context-stage query: {z}")
                    res = _run_ci(ci, (i, tau), (j, 0), z)
                    link = (i, tau, j)
                    updates[link] = min(updates.get(link, np.inf),
                                        abs(res.statistic))
                    if res.p_value > alpha:
                        decision = (i, tau, j,
                                    SepSetEntry(tuple(S), tuple(z),
                                                res.p_value, res.statistic,
                                                (i, tau, j)))
                        break
            return updates, decision

        if workers and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_task, order))
        else:
            results = [run_task(key) for key in order]

        for updates, decision in results:
            for link, val in updates.items():
                strengths[link] = min(strengths.get(link, np.inf), val)
            if decision is not None:
                i, tau, j, entry = decision
                _remove_mark(marks, i, tau, j)
                sepsets.store(i, tau, j, entry)
        p += 1
    return sepsets, strengths


# ---------------------------------------------------------------------------
# orientation


def _unshielded_triples(marks, tau_max):
    """Triples ``(i, tau) *-> k o-o j`` with ``i`` and ``j`` non-adjacent."""
    n = marks.shape[0]
    triples = []
    for j in range(n):
        for k in range(n):
            if k == j or marks[k, j, 0] != UNDIRECTED:
                continue
            for i in range(n):
                for tau in range(tau_max + 1):
                    if (i, tau) in ((j, 0), (k, 0)):
                        continue
                    if (marks[i, k, tau] in (DIRECTED, UNDIRECTED)
                            and marks[i, j, tau] == ""):
                        triples.append(((i, tau), k, j))
    return triples


def _orient(marks, a, b, oriented, conflict_resolution):
    """Orient contemporaneous ``a --> b`` with conflict bookkeeping."""
    if (b, a) not in oriented and (a, b) not in oriented:
        _set_mark(marks, a, 0, b, DIRECTED)
        oriented.append((a, b))
        return True
    if conflict_resolution and (b, a) in oriented:
        marks[a, b, 0] = marks[b, a, 0] = CONFLICT
        return True
    return False


def collider_phase(marks, sepsets, roles, tau_max, conflict_resolution=True,
                   rule="none", ci=None, base_sets=None, alpha=None,
                   fixed_conditions=()):
    """Orient unshielded triples as colliders.

    With ``rule="none"`` the middle node is checked against the stored
    separating set of the outer pair; ``rule="majority"`` re-tests all
    subsets of the relevant neighbourhoods and requires the middle node in
    less than half of the separating subsets.  Conflicting orientations are
    marked ``x-x``.  Returns the list of ambiguous triples (majority only).
    """
    triples = sorted(_unshielded_triples(marks, tau_max))
    v_structures = []
    ambiguous = []
    if rule == "none":
        for ((i, tau), k, j) in triples:
            entry = sepsets.get(i, tau, j)
            s = entry.s if entry is not None else ()
            if (k, 0) not in s:
                v_structures.append(((i, tau), k, j))
    elif rule == "majority":
        if ci is None or alpha is None:
            raise ValueError("majority rule needs a CI test and alpha")
        base_sets = base_sets or {}
        non_dummy = {r for r in VariableRole if not r.is_dummy}
        adj = _contemp_adjacencies(marks, roles, non_dummy, {})
        for ((i, tau), k, j) in triples:
            pool = [a for a in adj[j] if a != (i, tau)]
            if tau == 0:
                pool += [a for a in adj[i] if a != (j, 0) and a not in pool]
            subsets = []
            for size in range(len(pool) + 1):
                subsets.extend(itertools.combinations(pool, size))
            separating = []
            for S in subsets:
                z = _condition_set(S, base_sets, i, tau, j, fixed_conditions, roles)
                res = _run_ci(ci, (i, tau), (j, 0), z)
                if res.p_value > alpha:
                    separating.append(S)
            if not separating:
                ambiguous.append(((i, tau), k, j))
                continue
            fraction = sum((k, 0) in S for S in separating) / len(separating)
            if fraction == 0.5:
                ambiguous.append(((i, tau), k, j))
            elif fraction < 0.5:
                v_structures.append(((i, tau), k, j))
    else:
        raise ValueError(f"unknown collider rule {rule!r}")

    oriented = []
    for ((i, tau), k, j) in v_structures:
        _orient(marks, j, k, oriented, conflict_resolution)
        if tau == 0:
            _orient(marks, i, k, oriented, conflict_resolution)
    return ambiguous


def rule_phase(marks, tau_max, ambiguous_triples=(), conflict_resolution=True):
    """Propagate orientations (acyclicity / no-new-collider rules) to fixpoint.

    Rule 1: ``(i, tau) --> k o-o j`` with ``i, j`` non-adjacent orients
    ``k --> j``; rule 2 closes directed two-chains over an undirected link;
    rule 3 orients the hub of two converging chains.  Conflicting
    orientations are marked and excluded from further matching.
    """
    n = marks.shape[0]
    ambiguous = set(ambiguous_triples)
    oriented = []

    def rule1():
        changed = False
        for j in range(n):
            for k in range(n):
                if k == j or marks[k, j, 0] != UNDIRECTED:
                    continue
                for i in range(n):
                    for tau in range(tau_max + 1):
                        if (i, tau) in ((j, 0), (k, 0)):
                            continue
                        if (marks[i, k, tau] == DIRECTED
                                and marks[i, j, tau] == ""
                                and ((i, tau), k, j) not in ambiguous):
                            if marks[k, j, 0] == UNDIRECTED:
                                changed |= _orient(marks, k, j, oriented,
                                                   conflict_resolution)
        return changed

    def rule2():
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or marks[i, j, 0] != UNDIRECTED:
                    continue
                for k in range(n):
                    if k in (i, j):
                        continue
                    if marks[i, k, 0] == DIRECTED and marks[k, j, 0] == DIRECTED:
                        if marks[i, j, 0] == UNDIRECTED:
                            changed |= _orient(marks, i, j, oriented,
                                               conflict_resolution)
        return changed

    def rule3():
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or marks[i, j, 0] != UNDIRECTED:
                    continue
                hubs = [k for k in range(n) if k not in (i, j)
                        and marks[i, k, 0] == UNDIRECTED
                        and marks[k, j, 0] == DIRECTED]
                for k, l in itertools.combinations(hubs, 2):
                    if marks[k, l, 0] == "" and marks[l, k, 0] == "":
                        if marks[i, j, 0] == UNDIRECTED:
                            changed |= _orient(marks, i, j, oriented,
                                               conflict_resolution)
        return changed

    while True:
        if not (rule1() or rule2() or rule3()):
            break
    return marks


# ---------------------------------------------------------------------------
# stage assembly


def _role_groups(roles):
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles) if r is VariableRole.TEMPORAL_CONTEXT]
    sctx = [v for v, r in enumerate(roles) if r is VariableRole.SPATIAL_CONTEXT]
    time_dummy = [v for v, r in enumerate(roles) if r is VariableRole.TIME_DUMMY]
    space_dummy = [v for v, r in enumerate(roles) if r is VariableRole.SPACE_DUMMY]
    return system, tctx, sctx, time_dummy, space_dummy


def _sorted_pairs(pairs):
    return sorted(set(pairs), key=lambda p: (p[2], p[1], p[0]))


def j_pcmciplus(ci, roles=None, tau_max=2, alpha=0.05, use_dummies=True,
                collider_rule="none", conflict_resolution=True,
                max_conds_dim=None, workers=None):
    """Four-phase joint discovery over system, context and dummy variables.

    Runs the lagged phase on system and temporal-context variables, then the
    context, dummy and system skeleton stages, then collider orientation and
    propagation rules.  Context- and dummy-system links are oriented with the
    context as parent (exogeneity); lagged links by time order.  Returns a
    DiscoveryResult whose graph spans the observed variables plus (if used)
    the two dummies.
    """
    roles = list(roles if roles is not None else ci.var_roles)
    n = len(roles)
    system, tctx, sctx, td, sd = _role_groups(roles)
    dummies = (td + sd) if use_dummies else []
    n_out = n if use_dummies else min(
        [v for v, r in enumerate(roles) if r.is_dummy], default=n)
    sepsets = SepSetStore()

    lagged = lagged_skeleton_pcmciplus(ci, roles, tau_max, alpha,
                                       max_conds_dim, sepsets=sepsets)

    # Stage C: context-system links, dummies excluded.
    ctx_parents = {v: [] for v in range(n)}
    marks = _blank_marks(n, tau_max)
    if tctx or sctx:
        for j in system:
            for (i, lag) in lagged.sets[j]:
                marks[i, j, lag] = DIRECTED
        for a, b in itertools.combinations(system, 2):
            _set_mark(marks, a, 0, b, UNDIRECTED)
        for c in tctx + sctx:
            for j in system:
                _set_mark(marks, c, 0, j, DIRECTED)
        pairs = []
        for j in system:
            for (i, lag) in lagged.sets[j]:
                if i in tctx and lag >= 1:
                    pairs.append((i, lag, j))
            for c in tctx + sctx:
                pairs.append((c, 0, j))
                pairs.append((j, 0, c))
        base = {v: list(lagged.sets.get(v, [])) for v in range(n)}
        _skeleton_sweep(ci, marks, _sorted_pairs(pairs), alpha, base,
                        set(_CONTEXT_ROLES), roles, max_conds_dim,
                        sepsets=sepsets, workers=workers, forbid_dummy_z=True)
        for j in system:
            for c in tctx + sctx:
                for lag in range(tau_max + 1):
                    if marks[c, j, lag] != "":
                        ctx_parents[j].append((c, lag))

    lagged_sys = lagged.system_only(roles)

    # Stage D: dummy-system links given the found context parents.
    dummy_parents = {v: [] for v in range(n)}
    if dummies:
        marks_d = _blank_marks(n, tau_max)
        for j in system:
            for (i, lag) in lagged_sys[j]:
                marks_d[i, j, lag] = DIRECTED
            for (c, lag) in ctx_parents[j]:
                if lag == 0:
                    _set_mark(marks_d, c, 0, j, DIRECTED)
                else:
                    marks_d[c, j, lag] = DIRECTED
        for a, b in itertools.combinations(system, 2):
            _set_mark(marks_d, a, 0, b, UNDIRECTED)
        for d in dummies:
            for j in system:
                _set_mark(marks_d, d, 0, j, DIRECTED)
        pairs = []
        for j in system:
            for d in dummies:
                pairs.append((d, 0, j))
                pairs.append((j, 0, d))
        base = {j: lagged_sys[j] + ctx_parents[j] for j in system}
        _skeleton_sweep(ci, marks_d, _sorted_pairs(pairs), alpha, base,
                        set(_SYSTEM_ONLY), roles, max_conds_dim,
                        sepsets=sepsets, workers=workers)
        for j in system:
            dummy_parents[j] = [(d, 0) for d in dummies if marks_d[d, j, 0] != ""]

    # Refinement: re-test surviving context links with the opposite-kind
    # dummy parents added to the conditioning set.  Latent contexts of the
    # other kind can keep a spurious context-system link d-connected through
    # the always-conditioned lagged adjacencies (conditioned collider
    # children open paths that only conditioning on all contexts of that
    # kind closes); the cross-kind dummy provides exactly that.  The
    # same-kind dummy is never used here since the tested context is a
    # deterministic function of it.
    if dummies and any(ctx_parents[j] for j in system):
        for ctx_kind, cross_kind in ((tctx, sd), (sctx, td)):
            cross = [d for d in cross_kind if d in dummies]
            if not ctx_kind or not cross:
                continue
            pairs = []
            refine_base = {v: list(lagged.sets.get(v, [])) for v in range(n)}
            for j in system:
                if not any(d in cross for (d, _) in dummy_parents[j]):
                    continue
                refine_base[j] = refine_base[j] + [
                    (d, 0) for (d, _) in dummy_parents[j] if d in cross]
                pairs.extend((c, lag, j) for (c, lag) in ctx_parents[j]
                             if c in ctx_kind)
            if not pairs:
                continue
            marks_r = _blank_marks(n, tau_max)
            for j in system:
                for (i, lag) in lagged.sets[j]:
                    if lag >= 1 and roles[i].is_system:
                        marks_r[i, j, lag] = DIRECTED
                for (c, lag) in ctx_parents[j]:
                    if lag == 0:
                        _set_mark(marks_r, c, 0, j, DIRECTED)
                    else:
                        marks_r[c, j, lag] = DIRECTED
            for a, b in itertools.combinations(system, 2):
                _set_mark(marks_r, a, 0, b, UNDIRECTED)
            _skeleton_sweep(ci, marks_r, _sorted_pairs(pairs), alpha,
                            refine_base, set(_CONTEXT_ROLES), roles,
                            max_conds_dim, sepsets=sepsets, workers=workers)
            for j in system:
                ctx_parents[j] = [
                    (c, lag) for (c, lag) in ctx_parents[j]
                    if c not in ctx_kind or marks_r[c, j, lag] != ""]

    # Stage S: system-system links given context and dummy parents.
    marks_s = _blank_marks(n, tau_max)
    pairs = []
    for j in system:
        for (i, lag) in lagged_sys[j]:
            marks_s[i, j, lag] = DIRECTED
            pairs.append((i, lag, j))
        for (c, lag) in ctx_parents[j]:
            if lag == 0:
                _set_mark(marks_s, c, 0, j, DIRECTED)
            else:
                marks_s[c, j, lag] = DIRECTED
        for (d, _) in dummy_parents[j]:
            _set_mark(marks_s, d, 0, j, DIRECTED)
    for a, b in itertools.combinations(system, 2):
        _set_mark(marks_s, a, 0, b, UNDIRECTED)
        pairs.append((a, 0, b))
        pairs.append((b, 0, a))
    base = {j: lagged_sys[j] + ctx_parents[j] + dummy_parents[j] for j in system}
    _skeleton_sweep(ci, marks_s, _sorted_pairs(pairs), alpha, base,
                    set(_SYSTEM_ONLY), roles, max_conds_dim,
                    sepsets=sepsets, workers=workers)

    ambiguous = collider_phase(marks_s, sepsets, roles, tau_max,
                               conflict_resolution, rule=collider_rule,
                               ci=ci, base_sets=base, alpha=alpha)
    rule_phase(marks_s, tau_max, ambiguous, conflict_resolution)

    graph = _marks_to_graph(marks_s, roles, tau_max, n_out)
    return DiscoveryResult(graph=graph, sepsets=sepsets, lagged=lagged,
                           context_parents={j: list(ctx_parents[j]) for j in system},
                           dummy_parents={j: list(dummy_parents[j]) for j in system},
                           ambiguous_triples=ambiguous)


def run_pcmciplus(ci, roles=None, tau_max=2, alpha=0.05, collider_rule="none",
                  conflict_resolution=True, max_conds_dim=None, workers=None,
                  fixed_conditions=()):
    """Plain lagged-plus-contemporaneous discovery over the system variables.

    Context and dummy variables known to the CI test are ignored as graph
    nodes; ``fixed_conditions`` selectors (for instance the dummy blocks) are
    appended to every conditioning set, which turns this into the
    always-conditioned baseline used in the convergence experiments.
    """
    roles = list(roles if roles is not None else ci.var_roles)
    system, *_ = _role_groups(roles)
    n = len(roles)
    n_out = len(system)
    if system != list(range(n_out)):
        raise ValueError("system variables must form a prefix of the index space")
    sepsets = SepSetStore()
    lagged = lagged_skeleton_pcmciplus(ci, roles, tau_max, alpha, max_conds_dim,
                                       fixed_conditions, sepsets=sepsets,
                                       include_contexts=False)

    marks = _blank_marks(n, tau_max)
    pairs = []
    for j in system:
        for (i, lag) in lagged.sets[j]:
            marks[i, j, lag] = DIRECTED
            pairs.append((i, lag, j))
    for a, b in itertools.combinations(system, 2):
        _set_mark(marks, a, 0, b, UNDIRECTED)
        pairs.append((a, 0, b))
        pairs.append((b, 0, a))
    base = {j: list(lagged.sets[j]) for j in system}
    _skeleton_sweep(ci, marks, _sorted_pairs(pairs), alpha, base,
                    set(_SYSTEM_ONLY), roles, max_conds_dim,
                    fixed_conditions, sepsets=sepsets, workers=workers)
    ambiguous = collider_phase(marks, sepsets, roles, tau_max,
                               conflict_resolution, rule=collider_rule,
                               ci=ci, base_sets=base, alpha=alpha,
                               fixed_conditions=fixed_conditions)
    rule_phase(marks, tau_max, ambiguous, conflict_resolution)
    graph = _marks_to_graph(marks, roles, tau_max, n_out)
    return DiscoveryResult(graph=graph, sepsets=sepsets, lagged=lagged)


def partial_skeleton_pc(ci, pairs, alpha, roles=None, knowledge=None,
                        allowed_s_roles=None, max_conds_dim=None,
                        workers=None, sepsets=None):
    """PC skeleton over the given pairs with fixed background-knowledge links.

    ``knowledge`` maps a target variable to parent selectors whose links are
    held fixed (never tested) and always added to the conditioning sets.
    Context- or dummy-driven pairs start out directed (exogeneity); system
    pairs start undirected.  Returns the skeleton graph and separating sets.
    """
    roles = list(roles if roles is not None else ci.var_roles)
    n = len(roles)
    knowledge = knowledge or {}
    marks = _blank_marks(n, 0)
    for j, sels in knowledge.items():
        for (v, _) in sels:
            _set_mark(marks, v, 0, j, DIRECTED)
    pairs = _sorted_pairs([(p[0], 0, p[-1]) for p in pairs])
    for (i, _, j) in pairs:
        if marks[i, j, 0] == "":
            init = DIRECTED if (roles[i].is_context or roles[i].is_dummy) \
                else UNDIRECTED
            _set_mark(marks, i, 0, j, init)
    allowed = set(allowed_s_roles) if allowed_s_roles is not None else {
        r for r in VariableRole if not r.is_dummy}
    base = {j: list(sels) for j, sels in knowledge.items()}
    sepsets, _ = _skeleton_sweep(ci, marks, pairs, alpha, base, allowed, roles,
                                 max_conds_dim, sepsets=sepsets, workers=workers)
    return _marks_to_graph(marks, roles, 0), sepsets


def j_pc(ci, roles=None, alpha=0.05, use_dummy=True, collider_rule="none",
         conflict_resolution=True, max_conds_dim=None, workers=None):
    """Staged PC for the lag-free multi-dataset setting (space dummy only).

    Phase C discovers context-system links while ignoring the dummy; phase D
    tests dataset-label (space dummy) links given the found context parents;
    phase S runs the system skeleton given all of them; colliders (including
    context- and dummy-anchored triples) and propagation rules orient the
    result.
    """
    roles = list(roles if roles is not None else ci.var_roles)
    n = len(roles)
    system, tctx, sctx, td, sd = _role_groups(roles)
    contexts = tctx + sctx
    dummies = sd if use_dummy else []
    sepsets = SepSetStore()

    # Phase C
    marks = _blank_marks(n, 0)
    for a, b in itertools.combinations(system, 2):
        _set_mark(marks, a, 0, b, UNDIRECTED)
    ctx_parents = {v: [] for v in range(n)}
    if contexts:
        for c in contexts:
            for j in system:
                _set_mark(marks, c, 0, j, DIRECTED)
        pairs = []
        for j in system:
            for c in contexts:
                pairs.append((c, 0, j))
                pairs.append((j, 0, c))
        _skeleton_sweep(ci, marks, _sorted_pairs(pairs), alpha, {},
                        set(_CONTEXT_ROLES), roles, max_conds_dim,
                        sepsets=sepsets, workers=workers, forbid_dummy_z=True)
        for j in system:
            ctx_parents[j] = [(c, 0) for c in contexts if marks[c, j, 0] != ""]

    # Phase D
    dummy_parents = {v: [] for v in range(n)}
    if dummies:
        marks_d = _blank_marks(n, 0)
        for a, b in itertools.combinations(system, 2):
            _set_mark(marks_d, a, 0, b, UNDIRECTED)
        for j in system:
            for (c, _) in ctx_parents[j]:
                _set_mark(marks_d, c, 0, j, DIRECTED)
        for d in dummies:
            for j in system:
                _set_mark(marks_d, d, 0, j, DIRECTED)
        pairs = []
        for j in system:
            for d in dummies:
                pairs.append((d, 0, j))
                pairs.append((j, 0, d))
        base = {j: list(ctx_parents[j]) for j in system}
        _skeleton_sweep(ci, marks_d, _sorted_pairs(pairs), alpha, base,
                        set(_SYSTEM_ONLY), roles, max_conds_dim,
                        sepsets=sepsets, workers=workers)
        for j in system:
            dummy_parents[j] = [(d, 0) for d in dummies if marks_d[d, j, 0] != ""]

    # Phase S
    marks_s = _blank_marks(n, 0)
    for j in system:
        for (c, _) in ctx_parents[j]:
            _set_mark(marks_s, c, 0, j, DIRECTED)
        for (d, _) in dummy_parents[j]:
            _set_mark(marks_s, d, 0, j, DIRECTED)
    pairs = []
    for a, b in itertools.combinations(system, 2):
        _set_mark(marks_s, a, 0, b, UNDIRECTED)
        pairs.append((a, 0, b))
        pairs.append((b, 0, a))
    base = {j: ctx_parents[j] + dummy_parents[j] for j in system}
    _skeleton_sweep(ci, marks_s, _sorted_pairs(pairs), alpha, base,
                    set(_SYSTEM_ONLY), roles, max_conds_dim,
                    sepsets=sepsets, workers=workers)

    ambiguous = collider_phase(marks_s, sepsets, roles, 0, conflict_resolution,
                               rule=collider_rule, ci=ci, base_sets=base,
                               alpha=alpha)
    rule_phase(marks_s, 0, ambiguous, conflict_resolution)
    graph = _marks_to_graph(marks_s, roles, 0)
    return DiscoveryResult(graph=graph, sepsets=sepsets,
                           context_parents={j: list(ctx_parents[j]) for j in system},
                           dummy_parents={j: list(dummy_parents[j]) for j in system},
                           ambiguous_triples=ambiguous)


# ---------------------------------------------------------------------------
# variant dispatch


VARIANTS = ("jpcmci+", "pcmci+C", "pcmci+D", "pcmci+")


def estimate_graph(dc, variant="jpcmci+", ci="parcorr", ground_truth=None,
                   tau_max=2, alpha=0.05, lag_free=False, collider_rule="none",
                   max_conds_dim=None, workers=None, correction="bonferroni"):
    """Run one discovery variant on a dataset collection.

    ``jpcmci+`` uses observed contexts and dummies, ``pcmci+C`` only observed
    contexts, ``pcmci+D`` only dummies (contexts masked latent), ``pcmci+``
    system data alone.  ``ci`` selects the pooled partial-correlation test or
    the exact graph oracle (which requires ``ground_truth``).  The
    partial-correlation test needs ``T > 2 * tau_max`` and raises
    ``SelectionError`` otherwise.
    """
    from .citests import GraphOracle, ParCorrCI
    from .graph import mask_contexts_latent
    from .pooling import SelectionError, pool_data

    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    mask_ctx = variant in ("pcmci+D", "pcmci+")
    data = dc.mask_all_latent() if mask_ctx else dc
    if ci == "parcorr":
        pool_tau = 0 if lag_free else tau_max
        if dc.T <= 2 * pool_tau:
            # conditioning sets shifted to a lagged endpoint reach back
            # 2 * tau_max steps and would have no rows left to test on
            raise SelectionError(f"T={dc.T} is too short for tau_max={pool_tau}: "
                                 f"ParCorr needs T > 2 * tau_max")
        test = ParCorrCI(pool_data(data, pool_tau), correction=correction)
    elif ci == "oracle":
        if ground_truth is None:
            raise ValueError("the oracle CI test needs the ground-truth graph")
        gt = mask_contexts_latent(ground_truth) if mask_ctx else ground_truth
        test = GraphOracle(gt, tau_max)
    else:
        raise ValueError(f"unknown CI test {ci!r}")

    kwargs = dict(alpha=alpha, collider_rule=collider_rule,
                  max_conds_dim=max_conds_dim, workers=workers)
    if variant == "pcmci+":
        if lag_free:
            return j_pc(test, use_dummy=False, **kwargs)
        return run_pcmciplus(test, tau_max=tau_max, **kwargs)
    if lag_free:
        return j_pc(test, use_dummy=(variant != "pcmci+C"), **kwargs)
    return j_pcmciplus(test, tau_max=tau_max,
                       use_dummies=(variant != "pcmci+C"), **kwargs)
