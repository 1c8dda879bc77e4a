"""Constraint-based causal discovery over pooled multi-dataset time series.

Every discovery here prunes one ``TimeSeriesGraph`` stage by stage
(``_discover``).  The graph starts with every candidate link: the lagged
drivers left by an optional lagged-adjacency phase and the context and dummy
links into the system variables, all directed (time order and exogeneity),
and the system clique, undirected.  Each stage is one ``_skeleton_sweep`` of
that graph, given the tested pairs, the roles the subsets S are drawn from,
the base conditioning sets, the fixed conditions and whether a dummy may
appear in a conditioning set.  A stage reads the links kept by earlier
stages straight from the graph.  The pruned graph is oriented in
place by the collider and propagation rules and returned; conflicting
collider orientations are marked ``x-x``.

J-PCMCI+ runs the stages C (context-system pairs, dummies excluded), D
(dummy-system pairs given the context parents), refinement (context links
re-tested given the opposite-kind dummy parents) and S (system-system pairs
given everything found so far).  Testing contexts before dummies avoids the
spurious independencies that deterministic dummy-context relations would
otherwise inject into the PC-style search.  J-PC is the same at tau_max = 0
with no lagged phase, hence no refinement, and the space dummy only; plain
PCMCI+ is the lagged phase over the system variables and stage S.

All selectors are ``(var, lag)`` with non-negative lags; pair entries
``(i, tau, j)`` test variable ``i`` at ``t - tau`` against ``j`` at ``t``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .graph import CONFLICT, DIRECTED, UNDIRECTED, TimeSeriesGraph, VariableRole


class DiscoveryError(RuntimeError):
    """A CI test failed; the offending query is attached to the message."""


_CONTEXT_ROLES = (VariableRole.SYSTEM, VariableRole.TEMPORAL_CONTEXT,
                  VariableRole.SPATIAL_CONTEXT)
_SYSTEM_ONLY = (VariableRole.SYSTEM,)
_DUMMY_ROLES = (VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY)


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


@dataclass
class DiscoveryResult:
    """The oriented graph of a discovery; ``lagged`` is the result of
    ``lagged_skeleton_pcmciplus``, ``None`` when no lagged phase ran."""
    graph: TimeSeriesGraph
    sepsets: SepSetStore
    lagged: dict | None = None
    context_parents: dict = field(default_factory=dict)
    dummy_parents: dict = field(default_factory=dict)
    ambiguous_triples: list = field(default_factory=list)


def _run_ci(ci, x, y, z):
    try:
        return ci(x, y, z)
    except Exception as exc:
        raise DiscoveryError(f"CI test failed for {x} vs {y} given {z}: {exc}") from exc


# ---------------------------------------------------------------------------
# lagged phase


def lagged_skeleton_pcmciplus(ci, tau_max=2, alpha=0.05, fixed_conditions=(),
                              sepsets=None, include_contexts=True):
    """Iterative lagged-adjacency search (one condition set per cardinality).

    For every system and observed temporal-context variable, candidate lagged
    drivers (lags ``1..tau_max``) are pruned by CI tests conditioned on the
    currently strongest remaining candidates, growing the conditioning
    cardinality until convergence.  The result always contains the true
    lagged parents under a consistent CI test.  Temporal contexts only admit
    temporal-context drivers (contexts are exogenous to the system); with
    ``include_contexts=False`` the search runs over system variables alone.

    Returns a dict mapping every variable to its surviving ``(var, lag)``
    drivers, ordered by the minimum absolute test statistic seen across
    iterations (descending, ties broken lexicographically).
    """
    if tau_max < 1:
        raise ValueError("the lagged phase needs tau_max >= 1")
    roles = ci.var_roles
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles)
            if include_contexts and r is VariableRole.TEMPORAL_CONTEXT]
    sets = {}

    for j in system + tctx:
        drivers = system + tctx if j in system else tctx
        current = sorted((i, lag) for i in drivers for lag in range(1, tau_max + 1))
        vals = {c: np.inf for c in current}
        dim = 0
        while len(current) - 1 >= dim:
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
    for v in range(len(roles)):
        sets.setdefault(v, [])
    return sets


# ---------------------------------------------------------------------------
# skeleton sweep engine


def _condition_set(S, base_sets, i, tau, j, fixed, roles):
    """Full conditioning set: chosen subset, target-side base set minus the
    tested driver, driver-side base set shifted by ``tau`` (single-node
    variables keep pseudo-lag 0), plus any fixed conditions; first
    occurrences only, without the tested endpoints."""
    shifted = [(v, lag + tau) if roles[v].is_time_indexed else (v, lag)
               for (v, lag) in base_sets.get(i, ())]
    ends = {(i, tau), (j, 0)}
    return [sel for sel in dict.fromkeys(itertools.chain(S, base_sets.get(j, ()),
                                                         shifted, fixed))
            if sel not in ends]


def _contemp_adjacencies(graph, allowed_roles, strengths):
    n, roles = graph.n_vars, graph.roles
    adj = {}
    for j in range(n):
        cands = [(i, 0) for i in range(n)
                 if i != j and roles[i] in allowed_roles and graph.has_link(i, j, 0)]
        cands.sort(key=lambda s: (-strengths.get((s[0], 0, j), np.inf), s))
        adj[j] = cands
    return adj


def _skeleton_sweep(ci, graph, alpha, sepsets, pairs, s_roles, base, fixed=(),
                    forbid_dummy_z=False):
    """Remove links of ``graph`` among ``pairs`` by CI tests with growing
    subsets ``S``, until no link has enough adjacencies left.

    ``S`` is drawn from the contemporaneous adjacencies with a role in
    ``s_roles``; ``base`` and ``fixed`` complete each conditioning set (see
    ``_condition_set``), and with ``forbid_dummy_z`` a dummy in it is a
    ``DiscoveryError``.  Within one cardinality level, candidate subsets are
    drawn from the adjacency sets frozen at level start, so decisions do not
    depend on the order in which the links are visited.  One unordered link
    is removed at its first separating test, in either direction.
    """
    pairs = sorted(set(pairs), key=lambda p: (p[2], p[1], p[0]))
    roles = ci.var_roles  # every variable the CI test knows, dummies included
    strengths = {}
    dummy_vars = {v for v, r in enumerate(roles) if r.is_dummy}
    p = 0
    while True:
        adj = _contemp_adjacencies(graph, s_roles, strengths)
        tasks = {}
        for (i, tau, j) in pairs:
            if (not graph.has_link(i, j, tau)
                    or len([a for a in adj[j] if a != (i, tau)]) < p):
                continue
            tasks.setdefault(SepSetStore._key(i, tau, j), []).append((i, tau, j))
        if not tasks:
            break
        for links in tasks.values():
            tests = ((i, tau, j, S) for (i, tau, j) in links
                     for S in itertools.combinations(
                         [a for a in adj[j] if a != (i, tau)], p))
            for (i, tau, j, S) in tests:
                z = _condition_set(S, base, i, tau, j, fixed, roles)
                if forbid_dummy_z and any(v in dummy_vars for (v, _) in z):
                    raise DiscoveryError(f"dummy column in a context-stage query: {z}")
                res = _run_ci(ci, (i, tau), (j, 0), z)
                link = (i, tau, j)
                strengths[link] = min(strengths.get(link, np.inf), abs(res.statistic))
                if res.p_value > alpha:
                    graph.remove_link(i, j, tau)
                    sepsets.store(i, tau, j, SepSetEntry(tuple(S), tuple(z),
                                                         res.p_value, res.statistic,
                                                         link))
                    break
        p += 1


# ---------------------------------------------------------------------------
# orientation


def _triples(graph, outer):
    """Triples ``((i, tau), k, j)`` with ``(i, tau) *-> k o-o j``, the ``*->``
    mark in ``outer``, and ``i``, ``j`` non-adjacent.  Lazy, so a caller that
    changes marks between two triples sees the change."""
    n = graph.n_vars
    for j in range(n):
        for k in range(n):
            if k == j or graph.mark(k, j, 0) != UNDIRECTED:
                continue
            for i in range(n):
                for tau in range(graph.tau_max + 1):
                    if ((i, tau) not in ((j, 0), (k, 0))
                            and graph.mark(i, k, tau) in outer
                            and not graph.has_link(i, j, tau)):
                        yield (i, tau), k, j


def _orient(graph, a, b, oriented):
    """Orient contemporaneous ``a --> b``; a link already oriented the other
    way becomes ``x-x``.  Returns whether the graph changed."""
    if (a, b) in oriented:
        return False
    if (b, a) in oriented:
        graph.set_mark(a, b, 0, CONFLICT)
    else:
        graph.set_mark(a, b, 0, DIRECTED)
        oriented.add((a, b))
    return True


def collider_phase(graph, sepsets, rule="none", ci=None, base_sets=None,
                   alpha=None, fixed_conditions=()):
    """Orient unshielded triples of ``graph`` as colliders, in place.

    With ``rule="none"`` the middle node is checked against the stored
    separating set of the outer pair; ``rule="majority"`` re-tests all
    subsets of the relevant neighbourhoods and requires the middle node in
    less than half of the separating subsets.  Conflicting orientations are
    marked ``x-x``.  Returns the list of ambiguous triples (majority only).
    """
    triples = sorted(_triples(graph, (DIRECTED, UNDIRECTED)))
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
        adj = _contemp_adjacencies(graph, non_dummy, {})
        for ((i, tau), k, j) in triples:
            pool = [a for a in adj[j] if a != (i, tau)]
            if tau == 0:
                pool += [a for a in adj[i] if a != (j, 0) and a not in pool]
            subsets = []
            for size in range(len(pool) + 1):
                subsets.extend(itertools.combinations(pool, size))
            separating = []
            for S in subsets:
                z = _condition_set(S, base_sets, i, tau, j, fixed_conditions,
                                   graph.roles)
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

    oriented = set()
    for ((i, tau), k, j) in v_structures:
        _orient(graph, j, k, oriented)
        if tau == 0:
            _orient(graph, i, k, oriented)
    return ambiguous


def rule_phase(graph, ambiguous_triples=()):
    """Propagate orientations of ``graph`` (acyclicity / no-new-collider
    rules) to fixpoint, in place.

    Rule 1: ``(i, tau) --> k o-o j`` with ``i, j`` non-adjacent orients
    ``k --> j``; rule 2 closes directed two-chains over an undirected link;
    rule 3 orients the hub of two converging chains.  A rule orients only an
    ``o-o`` link, so it never meets a link it oriented itself and makes no
    conflict; an ``x-x`` link of the collider phase matches no rule.
    """
    n, mark = graph.n_vars, graph.mark
    ambiguous = set(ambiguous_triples)

    def undirected():
        for i in range(n):
            for j in range(n):
                if i != j and mark(i, j, 0) == UNDIRECTED:
                    yield i, j

    def rule1():
        changed = False
        for ((i, tau), k, j) in _triples(graph, (DIRECTED,)):
            if ((i, tau), k, j) not in ambiguous and mark(k, j, 0) == UNDIRECTED:
                graph.set_mark(k, j, 0, DIRECTED)
                changed = True
        return changed

    def rule2():
        changed = False
        for i, j in undirected():
            for k in range(n):
                if (k not in (i, j) and mark(i, k, 0) == DIRECTED
                        and mark(k, j, 0) == DIRECTED and mark(i, j, 0) == UNDIRECTED):
                    graph.set_mark(i, j, 0, DIRECTED)
                    changed = True
        return changed

    def rule3():
        changed = False
        for i, j in undirected():
            hubs = [k for k in range(n) if k not in (i, j)
                    and mark(i, k, 0) == UNDIRECTED and mark(k, j, 0) == DIRECTED]
            for k, l in itertools.combinations(hubs, 2):
                if not graph.has_link(k, l, 0) and mark(i, j, 0) == UNDIRECTED:
                    graph.set_mark(i, j, 0, DIRECTED)
                    changed = True
        return changed

    while rule1() or rule2() or rule3():
        pass


# ---------------------------------------------------------------------------
# the driver


def _held(graph, variables, j):
    """The links ``(v, lag)`` into ``j`` from ``variables`` that ``graph``
    still holds, variable by variable, lags ascending."""
    return [(v, lag) for v in variables for lag in range(graph.tau_max + 1)
            if graph.has_link(v, j, lag)]


def _discover(ci, tau_max, alpha, collider_rule, lagged=True, joint=True,
              dummies=(), fixed=()):
    """Prune one graph stage by stage, then orient it (module docstring).

    ``lagged`` runs the lagged phase first (and, when ``joint``, the
    refinement after stage D); ``joint`` makes the observed contexts and
    the ``dummies`` graph nodes and runs stages C and D, otherwise the graph
    spans the system variables and only stage S runs.  ``fixed`` selectors
    are appended to every conditioning set of the lagged phase and stage S.
    ``alpha`` must lie in [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:  # NaN included
        raise ValueError(f"alpha={alpha} must lie in [0, 1]")
    roles = list(ci.var_roles)
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles) if joint and r is VariableRole.TEMPORAL_CONTEXT]
    sctx = [v for v, r in enumerate(roles) if joint and r is VariableRole.SPATIAL_CONTEXT]
    contexts = tctx + sctx
    nodes = (_CONTEXT_ROLES + (_DUMMY_ROLES if dummies else ())) if joint else _SYSTEM_ONLY
    n_out = next((v for v, r in enumerate(roles) if r not in nodes), len(roles))
    if any(r in nodes for r in roles[n_out:]):
        raise ValueError("graph variables must form a prefix of the index space")
    sepsets = SepSetStore()
    adjacencies = lagged_skeleton_pcmciplus(
        ci, tau_max, alpha, fixed_conditions=fixed, sepsets=sepsets,
        include_contexts=joint) if lagged else None
    lagged_sets = adjacencies if lagged else {v: [] for v in range(len(roles))}
    lagged_sys = {j: [(i, lag) for (i, lag) in lagged_sets[j] if roles[i].is_system]
                  for j in system}
    clique = [(a, 0, b) for a, b in itertools.combinations(system, 2)]

    # every candidate link: lagged drivers, contexts and dummies into the
    # system variables directed, the system clique undirected
    graph = TimeSeriesGraph(roles[:n_out], tau_max)
    for j in system:
        for (v, lag) in lagged_sets[j] + [(c, 0) for c in contexts + list(dummies)]:
            graph.set_mark(v, j, lag, DIRECTED)
    for (a, _, b) in clique:
        graph.set_mark(a, b, 0, UNDIRECTED)

    sweep = functools.partial(_skeleton_sweep, ci, graph, alpha, sepsets)

    if joint:
        # C: context-system pairs and lagged temporal-context links
        pairs = [(i, lag, j) for j in system for (i, lag) in lagged_sets[j] if i in tctx]
        pairs += [p for j in system for c in contexts for p in ((c, 0, j), (j, 0, c))]
        sweep(pairs, _CONTEXT_ROLES, dict(lagged_sets), forbid_dummy_z=True)
        # D: dummy-system pairs given the context parents
        sweep([p for j in system for d in dummies for p in ((d, 0, j), (j, 0, d))],
              _SYSTEM_ONLY, {j: lagged_sys[j] + _held(graph, contexts, j) for j in system})
        # Refinement: re-test context links given the opposite-kind dummy
        # parents.  Latent contexts of the other kind can keep a spurious
        # context-system link d-connected through conditioned collider
        # children among the lagged adjacencies, and only conditioning on all
        # contexts of that kind, the cross-kind dummy, closes it.  The
        # same-kind dummy is never used: the tested context is a
        # deterministic function of it.  It runs after a lagged phase only.
        refinements = ((tctx, VariableRole.SPACE_DUMMY), (sctx, VariableRole.TIME_DUMMY))
        for kind, cross_role in refinements if lagged else ():
            cross = [d for d in dummies if roles[d] is cross_role]
            base, pairs = dict(lagged_sets), []
            for j in system:
                held = _held(graph, cross, j)
                if held:
                    base[j] = base[j] + held
                    pairs += [(c, lag, j) for (c, lag) in _held(graph, kind, j)]
            sweep(pairs, _CONTEXT_ROLES, base)
    # S: system-system pairs given everything found so far
    base = {j: lagged_sys[j] + _held(graph, contexts, j) + _held(graph, dummies, j)
            for j in system}
    pairs = [(i, lag, j) for j in system for (i, lag) in lagged_sys[j]]
    sweep(pairs + clique + [(b, 0, a) for (a, _, b) in clique], _SYSTEM_ONLY, base,
          tuple(fixed))

    ambiguous = collider_phase(graph, sepsets, rule=collider_rule, ci=ci, base_sets=base,
                               alpha=alpha, fixed_conditions=tuple(fixed))
    rule_phase(graph, ambiguous)
    parents = {}
    if joint:
        parents = dict(context_parents={j: _held(graph, contexts, j) for j in system},
                       dummy_parents={j: _held(graph, dummies, j) for j in system})
    return DiscoveryResult(graph=graph, sepsets=sepsets, lagged=adjacencies,
                           ambiguous_triples=ambiguous, **parents)


def j_pcmciplus(ci, tau_max=2, alpha=0.05, use_dummies=True, collider_rule="none"):
    """J-PCMCI+: the lagged phase on system and temporal-context variables,
    stages C, D, refinement and S, then orientation.  Context- and
    dummy-system links keep the context as parent (exogeneity), lagged links
    follow time order.  The graph spans the observed variables plus, if
    used, the two dummies."""
    dummies = [v for v, r in enumerate(ci.var_roles) if r.is_dummy] if use_dummies else []
    return _discover(ci, tau_max, alpha, collider_rule, dummies=dummies)


def run_pcmciplus(ci, tau_max=2, alpha=0.05, collider_rule="none",
                  fixed_conditions=()):
    """Plain lagged-plus-contemporaneous discovery over the system variables.

    Context and dummy variables known to the CI test are ignored as graph
    nodes; ``fixed_conditions`` selectors (for instance the dummy blocks) are
    appended to every conditioning set, which turns this into the
    always-conditioned baseline used in the convergence experiments.
    """
    return _discover(ci, tau_max, alpha, collider_rule, joint=False,
                     fixed=fixed_conditions)


def j_pc(ci, alpha=0.05, use_dummy=True, collider_rule="none"):
    """J-PC for the lag-free setting: stages C, D (space dummy only) and S
    at tau_max = 0, then orientation, colliders at context- and
    dummy-anchored triples included.  The graph spans the observed
    variables plus, if used, the two dummies."""
    dummies = [v for v, r in enumerate(ci.var_roles)
               if r is VariableRole.SPACE_DUMMY] if use_dummy else []
    return _discover(ci, 0, alpha, collider_rule, lagged=False, dummies=dummies)


# ---------------------------------------------------------------------------
# variant dispatch


VARIANTS = ("jpcmci+", "pcmci+C", "pcmci+D", "pcmci+")
CI_TESTS = ("parcorr", "oracle")


def estimate_graph(dc, variant="jpcmci+", ci="parcorr", ground_truth=None,
                   tau_max=2, alpha=0.05, lag_free=False, collider_rule="none"):
    """Run one discovery variant on a dataset collection.

    ``jpcmci+`` uses observed contexts and dummies, ``pcmci+C`` only observed
    contexts, ``pcmci+D`` only dummies (contexts masked latent), ``pcmci+``
    system data alone.  ``ci`` selects the pooled partial-correlation test or
    the exact graph oracle (which requires ``ground_truth``).  The
    partial-correlation test refuses data it cannot test (see ``ParCorrCI``).
    """
    from .citests import GraphOracle, ParCorrCI
    from .graph import mask_contexts_latent
    from .pooling import pool_data

    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    mask_ctx = variant in ("pcmci+D", "pcmci+")
    data = dc.mask_all_latent() if mask_ctx else dc
    if ci == "parcorr":
        test = ParCorrCI(pool_data(data, 0 if lag_free else tau_max))
    elif ci == "oracle":
        if ground_truth is None:
            raise ValueError("the oracle CI test needs the ground-truth graph")
        gt = mask_contexts_latent(ground_truth) if mask_ctx else ground_truth
        test = GraphOracle(gt, tau_max)
    else:
        raise ValueError(f"unknown CI test {ci!r}")

    kwargs = dict(alpha=alpha, collider_rule=collider_rule)
    if variant == "pcmci+":
        if lag_free:
            return j_pc(test, use_dummy=False, **kwargs)
        return run_pcmciplus(test, tau_max=tau_max, **kwargs)
    if lag_free:
        return j_pc(test, use_dummy=(variant != "pcmci+C"), **kwargs)
    return j_pcmciplus(test, tau_max=tau_max,
                       use_dummies=(variant != "pcmci+C"), **kwargs)
