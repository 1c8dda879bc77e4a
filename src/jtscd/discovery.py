"""Constraint-based causal discovery over pooled multi-dataset time series.

Every discovery here is one ``j_pcmciplus`` run: it prunes one
``TimeSeriesGraph`` stage by stage.  The graph starts with every candidate
link: the lagged drivers left by an optional lagged-adjacency phase and the
context and dummy links into the system variables, all directed (time
order and exogeneity), and the system clique, undirected.  Each stage is
one ``_skeleton_sweep`` of that graph, given the tested pairs, the roles the
subsets S are drawn from and the base conditioning sets.  A stage reads
the links kept by earlier stages straight from the graph.  The pruned graph
is oriented in place by the collider and propagation rules and returned;
conflicting collider orientations are marked ``x-x``.

The tests of one level do not depend on each other's order (PC-stable), so
each level is one batch through ``ci.batch``, the only way a discovery asks
its CI test: a lagged-phase level across every target, a sweep level
across every link, and all subsets of the majority collider rule.  A sweep
level asks each distinct test of its links once -- both directions of a
lag-0 link at one conditioning set are one test -- and keeps each link's
first separating one, the test it falls at when asked one at a time.  A CI
test needs no more than ``var_roles``, ``selectors`` and ``batch``; a query
it refuses raises out of the discovery unwrapped, its error naming the
query.

J-PCMCI+ runs the stages C (context-system pairs, dummies excluded), D
(dummy-system pairs given the context parents), refinement (context links
re-tested given the opposite-kind dummy parents) and S (system-system pairs
given everything found so far).  Testing contexts before dummies avoids the
spurious independencies that deterministic dummy-context relations would
otherwise inject into the PC-style search.  ``tau_max`` is the only lag
setting: at 0 there is no lagged phase, hence no refinement, and J-PCMCI+
is J-PC (with the space dummy only).  On a CI test that knows no observed
context, run without dummies, stages C, D and refinement have no pairs and
J-PCMCI+ is plain PCMCI+ (PC at ``tau_max = 0``).  ``variant_view`` decides
what each comparison variant sees.

All selectors are ``(var, lag)`` with non-negative lags; pair entries
``(i, tau, j)`` test variable ``i`` at ``t - tau`` against ``j`` at ``t``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graph import (CONFLICT, DIRECTED, UNDIRECTED, TimeSeriesGraph, VariableRole, is_integer,
                    mask_contexts_latent)


_CONTEXT_ROLES = (VariableRole.SYSTEM, VariableRole.TEMPORAL_CONTEXT,
                  VariableRole.SPATIAL_CONTEXT)
_SYSTEM_ONLY = (VariableRole.SYSTEM,)
_DUMMY_ROLES = (VariableRole.TIME_DUMMY, VariableRole.SPACE_DUMMY)
# the dummy an observed context is a deterministic function of
_OWN_DUMMY = {VariableRole.TEMPORAL_CONTEXT: VariableRole.TIME_DUMMY,
              VariableRole.SPATIAL_CONTEXT: VariableRole.SPACE_DUMMY}
COLLIDER_RULES = ("none", "majority")


@dataclass(frozen=True)
class SepSetEntry:
    """Separating set found when a link was removed.

    ``s`` is the contemporaneous subset chosen by the search (used by the
    collider rule); ``z`` is the conditioning set the discovery asked in the
    accepting test and ``pair`` its ``(i, tau, j)`` anchor: replaying ``z``
    through the same CI test repeats the decision exactly.
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
    ``lagged_skeleton_pcmciplus``, ``None`` at tau_max = 0, where no lagged
    phase runs.  ``context_parents`` and ``dummy_parents`` map each system
    variable to its held links of that kind, an empty list when the graph
    holds no context or dummy."""
    graph: TimeSeriesGraph
    sepsets: SepSetStore
    lagged: dict | None
    context_parents: dict
    dummy_parents: dict
    ambiguous_triples: list


# ---------------------------------------------------------------------------
# lagged phase


def lagged_skeleton_pcmciplus(ci, tau_max=2, alpha=0.05, *, sepsets):
    """Iterative lagged-adjacency search (one condition set per cardinality).

    For every system and observed temporal-context variable the CI test
    knows, candidate lagged drivers (lags ``1..tau_max``) are pruned by CI
    tests conditioned on the currently strongest remaining candidates,
    growing the conditioning cardinality until convergence.  Each
    cardinality level is one batch of CI tests over every target still
    searching.  The result always contains the true lagged parents under a
    consistent CI test.  Temporal contexts only admit temporal-context
    drivers (contexts are exogenous to the system); on context-masked data
    the search runs over the system variables alone.

    Returns a dict mapping every variable to its surviving ``(var, lag)``
    drivers, ordered by the minimum absolute test statistic seen across
    iterations (descending, ties broken lexicographically).  Each removed
    driver's separating set goes into the ``SepSetStore`` ``sepsets``.
    """
    if tau_max < 1:
        raise ValueError("the lagged phase needs tau_max >= 1")
    roles = ci.var_roles
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles) if r is VariableRole.TEMPORAL_CONTEXT]
    current, vals = {}, {}
    for j in system + tctx:
        drivers = system + tctx if j in system else tctx
        current[j] = sorted((i, lag) for i in drivers for lag in range(1, tau_max + 1))
        vals[j] = {c: np.inf for c in current[j]}

    # level by level across every target, each level one batch: a target's
    # tests at a level depend only on its own earlier levels.  A candidate
    # outside the top ``dim`` is tested given them, the k-th inside given
    # the top ``dim + 1`` less itself
    dim = 0
    active = [j for j in current if len(current[j]) - 1 >= dim]
    while active:
        queries = []
        for j in active:
            cur, y, top = current[j], (j, 0), current[j][:dim]
            queries += [(cand, y, cur[:k] + cur[k + 1:dim + 1]) for k, cand in enumerate(top)]
            queries += [(cand, y, top) for cand in cur[dim:]]
        answers = zip(queries, ci.batch(queries))
        for j in active:  # each target's answers in turn
            v, kept = vals[j], []
            for (cand, _, z), res in itertools.islice(answers, len(current[j])):
                statistic, p_value = abs(res.statistic), res.p_value
                if statistic < v[cand]:
                    v[cand] = statistic
                if not p_value > alpha:
                    kept.append(cand)
                else:
                    sepsets.store(cand[0], cand[1], j, SepSetEntry(
                        (), tuple(z), p_value, res.statistic, (cand[0], cand[1], j)))
            current[j] = sorted(kept, key=lambda c: (-v[c], c))
        dim += 1
        active = [j for j in active if len(current[j]) - 1 >= dim]
    return {v: current.get(v, []) for v in range(len(roles))}


# ---------------------------------------------------------------------------
# skeleton sweep engine


def _base_part(base_sets, i, tau, j, roles):
    """The part of a conditioning set that does not depend on the subset:
    target-side base set, then the driver-side base set shifted by ``tau``
    (single-node variables keep pseudo-lag 0); first occurrences only,
    without the tested endpoints."""
    shifted = base_sets.get(i, ())
    if tau:
        shifted = [(v, lag + tau) if roles[v].is_time_indexed else (v, lag)
                   for (v, lag) in shifted]
    ends = {(i, tau), (j, 0)}
    return [sel for sel in dict.fromkeys(itertools.chain(base_sets.get(j, ()), shifted))
            if sel not in ends]


def _contemp_adjacencies(graph, allowed_roles, strengths):
    """Each variable's contemporaneous neighbours with a role in
    ``allowed_roles``, from one pass over the graph's lag-0 links, strongest
    first (the minimum |statistic| in ``strengths``), then by selector."""
    roles = graph.roles
    adj = {j: [] for j in range(graph.n_vars)}
    for (a, b) in graph.contemporaneous_pairs():
        if roles[a] in allowed_roles:
            adj[b].append((a, 0))
        if roles[b] in allowed_roles:
            adj[a].append((b, 0))
    for j, cands in adj.items():
        if len(cands) > 1:
            cands.sort(key=lambda s: (-strengths.get((s[0], 0, j), np.inf), s))
    return adj


def _skeleton_sweep(ci, graph, alpha, sepsets, pairs, s_roles, base):
    """Remove links of ``graph`` among ``pairs`` by CI tests with growing
    subsets ``S``, until no link has enough adjacencies left.

    ``S`` is drawn from the contemporaneous adjacencies with a role in
    ``s_roles``; ``base`` completes each conditioning set (``_base_part``),
    and a test asks ``[*S, *base part]``, the base part alone at ``|S| =
    0``.  Precondition: no base part holds a lag-0 selector of a role in
    ``s_roles``, so ``S`` never overlaps it.  Stages C and refinement draw
    ``S`` from the observed roles, and their base sets hold lagged links
    and dummies; stages D and S draw it from the system variables, and
    theirs hold lagged links, contexts and dummies.

    Each held link's state -- endpoints, unordered key, base part and its
    frozenset -- is built once per stage, and a live list drops a link for
    good once it is removed or has fewer than ``|S|`` adjacencies, which
    only shrink within a stage.  A level that draws subsets (``|S| >= 1``)
    draws them from the adjacency sets frozen at its start, so decisions do
    not depend on the order in which the links are visited, and a level is
    one batch of every test of every live link.  A test whose ``z`` set --
    the union of ``S`` with the base part's frozenset -- its unordered link
    already asked at the level, as the other direction of a lag-0 link or
    another subset that gives the same set, is not asked again: it reuses
    the first answer, for the removal and for ``strengths``.  One unordered
    link is removed at its first separating test, in either direction's
    subset order; the distinct tests after it are asked too (a CI test's
    ``n_tests`` counts them) and their results are dropped.
    """
    roles = ci.var_roles  # every variable the CI test knows, dummies included
    live = []
    for link in sorted(set(pairs), key=lambda p: (p[2], p[1], p[0])):
        i, tau, j = link
        if graph.has_link(i, j, tau):
            rest = _base_part(base, i, tau, j, roles)
            live.append((link, (i, tau), (j, 0), rest, frozenset(rest),
                         SepSetStore._key(i, tau, j)))
    if not live:  # a stage with nothing to test, such as C on masked data
        return
    strengths, gone, p = {}, set(), 0
    while True:
        adj = _contemp_adjacencies(graph, s_roles, strengths) if p else None
        tasks, kept = {}, []
        for state in live:
            (_, _, j), x, _, _, _, key = state
            cands = (adj[j] if x[1] else [a for a in adj[j] if a != x]) if p else ()
            if key not in gone and len(cands) >= p:  # else dropped for good
                kept.append(state)
                tasks.setdefault(key, []).append((state, cands))
        live = kept
        if not tasks:
            break
        # each distinct test once: a test of a link whose z set its
        # unordered link already asked, in either direction, reuses the
        # first answer
        tests, queries = [], []
        for links in tasks.values():
            first = {}
            for state, cands in links:
                _, x, y, rest, rest_set, _ = state
                for S in itertools.combinations(cands, p):
                    z = [*S, *rest]
                    at = first.setdefault(rest_set.union(S) if p else rest_set, len(queries))
                    if at == len(queries):
                        queries.append((x, y, z))
                    tests.append((state, S, z, at))
        results = ci.batch(queries)
        for (link, x, _, _, _, key), S, z, at in tests:
            if key in gone:
                continue
            res = results[at]
            statistic, p_value = abs(res.statistic), res.p_value
            if not x[1] and statistic < strengths.get(link, np.inf):  # read at lag 0 only
                strengths[link] = statistic
            if p_value > alpha:  # first to separate
                i, tau, j = link
                graph.remove_link(i, j, tau)
                sepsets.store(i, tau, j, SepSetEntry(tuple(S), tuple(z), p_value,
                                                     res.statistic, link))
                gone.add(key)
        p += 1


# ---------------------------------------------------------------------------
# orientation


def _check_collider_rule(rule):
    if rule not in COLLIDER_RULES:
        raise ValueError(f"unknown collider rule {rule!r}; choose from {COLLIDER_RULES}")


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


def collider_phase(graph, sepsets, rule="none", ci=None, base_sets=None, alpha=None):
    """Orient unshielded triples of ``graph`` as colliders, in place.

    With ``rule="none"`` the middle node is checked against the stored
    separating set of the outer pair; ``rule="majority"`` re-tests all
    subsets of the relevant neighbourhoods, all triples in one batch, and
    requires the middle node in less than half of the separating subsets.
    Its conditioning sets never hold the dummy of a context endpoint's own
    kind: the context is a function of it.  Conflicting orientations are
    marked ``x-x``.  Returns the list of ambiguous triples (majority only).
    """
    _check_collider_rule(rule)
    triples = sorted(_triples(graph, (DIRECTED, UNDIRECTED)))
    v_structures = []
    ambiguous = []
    if rule == "none":
        for ((i, tau), k, j) in triples:
            entry = sepsets.get(i, tau, j)
            s = entry.s if entry is not None else ()
            if (k, 0) not in s:
                v_structures.append(((i, tau), k, j))
    else:
        if ci is None or alpha is None:
            raise ValueError("majority rule needs a CI test and alpha")
        base_sets = base_sets or {}
        roles = ci.var_roles  # the dummies included, graph nodes or not
        non_dummy = {r for r in VariableRole if not r.is_dummy}
        adj = _contemp_adjacencies(graph, non_dummy, {})
        asked = []
        for ((i, tau), k, j) in triples:
            pool = [a for a in adj[j] if a != (i, tau)]
            if tau == 0:
                pool += [a for a in adj[i] if a != (j, 0) and a not in pool]
            rest = _base_part(base_sets, i, tau, j, graph.roles)
            own = {_OWN_DUMMY.get(roles[i]), _OWN_DUMMY.get(roles[j])}
            rest = [sel for sel in rest if roles[sel[0]] not in own]
            subsets = [S for size in range(len(pool) + 1)
                       for S in itertools.combinations(pool, size)]
            asked.append((((i, tau), k, j), subsets, rest))
        # ``S``, then the base part without it: a context in ``pool`` can be
        # in both
        queries = [((i, tau), (j, 0), [*S, *(sel for sel in rest if sel not in S)])
                   for ((i, tau), _, j), subsets, rest in asked for S in subsets]
        results = iter(ci.batch(queries))
        for triple, subsets, _ in asked:
            separating = [S for S in subsets if next(results).p_value > alpha]
            k = triple[1]
            if not separating:
                ambiguous.append(triple)
                continue
            fraction = sum((k, 0) in S for S in separating) / len(separating)
            if fraction == 0.5:
                ambiguous.append(triple)
            elif fraction < 0.5:
                v_structures.append(triple)

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


def j_pcmciplus(ci, tau_max=2, alpha=0.05, use_dummies=True, collider_rule="none"):
    """J-PCMCI+: prune one graph stage by stage, then orient it (module
    docstring), and return a ``DiscoveryResult``.

    The graph spans the observed variables the CI test knows (system
    variables, then observed contexts) plus, with ``use_dummies``, the dummy
    nodes; it uses both dummies above ``tau_max = 0`` and the space dummy
    only at 0.  A ``tau_max`` above 0 runs the lagged phase first and the
    refinement after stage D.  Context- and dummy-system links keep the
    context as parent (exogeneity), lagged links follow time order.
    Without ``use_dummies``, on a context-masked CI test that appends both
    dummies to every query, this is the always-conditioned baseline.
    ``alpha`` must lie in [0, 1] and ``tau_max`` be non-negative, with
    ``2 * tau_max``, the deepest lag a discovery asks, among the lags of
    ``ci.selectors``; the inputs are checked before any test.
    """
    if not 0.0 <= alpha <= 1.0:  # NaN included
        raise ValueError(f"alpha={alpha} must lie in [0, 1]")
    if not is_integer(tau_max):
        raise ValueError(f"tau_max={tau_max!r} must be an integer")
    window = max(lag for (_, lag) in ci.selectors)
    if not 0 <= tau_max <= window // 2:
        raise ValueError(f"tau_max={tau_max} must lie in [0, {window // 2}]: a discovery "
                         f"asks lags up to 2 * tau_max, and the CI test's selectors end "
                         f"at lag {window}")
    _check_collider_rule(collider_rule)
    roles = list(ci.var_roles)
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles) if r is VariableRole.TEMPORAL_CONTEXT]
    sctx = [v for v, r in enumerate(roles) if r is VariableRole.SPATIAL_CONTEXT]
    contexts = tctx + sctx
    kinds = _DUMMY_ROLES if tau_max > 0 else (VariableRole.SPACE_DUMMY,)
    dummies = [v for v, r in enumerate(roles) if r in kinds] if use_dummies else []
    nodes = _CONTEXT_ROLES + (_DUMMY_ROLES if dummies else ())
    n_out = next((v for v, r in enumerate(roles) if r not in nodes), len(roles))
    if any(r in nodes for r in roles[n_out:]):
        raise ValueError("graph variables must form a prefix of the index space")
    sepsets = SepSetStore()
    lagged = tau_max > 0
    adjacencies = (lagged_skeleton_pcmciplus(ci, tau_max, alpha, sepsets=sepsets)
                   if lagged else None)
    lagged_sets = adjacencies if lagged else {v: [] for v in range(len(roles))}
    lagged_sys = {j: [(i, lag) for (i, lag) in lagged_sets[j] if roles[i].is_system]
                  for j in system}
    clique = [(a, 0, b) for a, b in itertools.combinations(system, 2)]

    # every candidate link: lagged drivers, contexts and dummies into the
    # system variables directed, the system clique undirected
    graph = TimeSeriesGraph(roles[:n_out], tau_max)
    for j in system:
        for (v, lag) in lagged_sets[j] + [(c, 0) for c in contexts + dummies]:
            graph.set_mark(v, j, lag, DIRECTED)
    for (a, _, b) in clique:
        graph.set_mark(a, b, 0, UNDIRECTED)

    sweep = functools.partial(_skeleton_sweep, ci, graph, alpha, sepsets)

    # C: context-system pairs and lagged temporal-context links
    pairs = [(i, lag, j) for j in system for (i, lag) in lagged_sets[j] if i in tctx]
    pairs += [p for j in system for c in contexts for p in ((c, 0, j), (j, 0, c))]
    sweep(pairs, _CONTEXT_ROLES, dict(lagged_sets))
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
    sweep(pairs + clique + [(b, 0, a) for (a, _, b) in clique], _SYSTEM_ONLY, base)

    ambiguous = collider_phase(graph, sepsets, rule=collider_rule, ci=ci, base_sets=base,
                               alpha=alpha)
    rule_phase(graph, ambiguous)
    return DiscoveryResult(graph=graph, sepsets=sepsets, lagged=adjacencies,
                           context_parents={j: _held(graph, contexts, j) for j in system},
                           dummy_parents={j: _held(graph, dummies, j) for j in system},
                           ambiguous_triples=ambiguous)


# ---------------------------------------------------------------------------
# variant dispatch


# what each variant sees: (contexts masked latent, dummies used)
_VIEWS = {"jpcmci+": (False, True), "pcmci+C": (False, False),
          "pcmci+D": (True, True), "pcmci+": (True, False)}
VARIANTS = tuple(_VIEWS)
CI_TESTS = ("parcorr", "oracle")


def variant_view(variant, dc=None, ground_truth=None):
    """What ``variant`` sees: ``(dc, ground_truth, use_dummies)``, the first
    two with every context masked latent for ``pcmci+D`` and ``pcmci+`` (a
    ``None`` stays ``None``); ``jpcmci+`` and ``pcmci+D`` use the dummies."""
    if variant not in _VIEWS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    masked, use_dummies = _VIEWS[variant]
    if masked and dc is not None:
        dc = dc.mask_all_latent()
    if masked and ground_truth is not None:
        ground_truth = mask_contexts_latent(ground_truth)
    return dc, ground_truth, use_dummies


def estimate_graph(dc, variant="jpcmci+", ci="parcorr", ground_truth=None,
                   tau_max=2, alpha=0.05, collider_rule="none"):
    """Run ``j_pcmciplus`` on what ``variant`` sees of a dataset collection
    (``variant_view``): ``pcmci+`` is PCMCI+ on the system data alone.

    The data is pooled at ``tau_max``; ``tau_max = 0`` is the lag-free run
    (J-PC, and PC for ``pcmci+``).  ``ci`` selects the pooled
    partial-correlation test or the exact graph oracle (which requires
    ``ground_truth``).  The partial-correlation test refuses data it cannot
    test (see ``ParCorrCI``).
    """
    from .citests import GraphOracle, ParCorrCI
    from .pooling import pool_data

    data, truth, use_dummies = variant_view(variant, dc, ground_truth)
    if ci == "parcorr":
        test = ParCorrCI(pool_data(data, tau_max))
    elif ci == "oracle":
        if truth is None:
            raise ValueError("the oracle CI test needs the ground-truth graph")
        test = GraphOracle(truth, tau_max)
    else:
        raise ValueError(f"unknown CI test {ci!r}")
    return j_pcmciplus(test, tau_max, alpha, use_dummies, collider_rule)
