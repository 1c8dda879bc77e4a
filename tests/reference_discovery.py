"""The one-query-at-a-time lagged phase and skeleton sweep that the batched
ones in ``jtscd.discovery`` replaced.

``sequential_lagged_skeleton`` runs the lagged phase target by target, and
``sequential_skeleton_sweep`` visits the links of one level one after
another; both ask each CI test on its own, as a batch of one, and apply
a removal as soon as its test is seen.  Within one link's tests at a
level, both directions of a lag-0 link included, the sweep asks a ``z``
set once and reuses its answer, as the batched sweep does.  They take the same arguments
as ``discovery.lagged_skeleton_pcmciplus`` and ``discovery._skeleton_sweep``,
so a test can put them in their place and run a whole discovery on them.
They are kept only for the equivalence tests.
"""

import itertools

import numpy as np

from jtscd.discovery import SepSetEntry, SepSetStore
from jtscd.graph import VariableRole


def _run_ci(ci, x, y, z):
    return ci.batch([(x, y, z)])[0]


def sequential_lagged_skeleton(ci, tau_max=2, alpha=0.05, *, sepsets):
    if tau_max < 1:
        raise ValueError("the lagged phase needs tau_max >= 1")
    roles = ci.var_roles
    system = [v for v, r in enumerate(roles) if r.is_system]
    tctx = [v for v, r in enumerate(roles) if r is VariableRole.TEMPORAL_CONTEXT]
    sets = {}
    for j in system + tctx:
        drivers = system + tctx if j in system else tctx
        current = sorted((i, lag) for i in drivers for lag in range(1, tau_max + 1))
        vals = {c: np.inf for c in current}
        dim = 0
        while len(current) - 1 >= dim:
            removed = set()
            for cand in current:
                z = [c for c in current if c != cand][:dim]
                res = _run_ci(ci, cand, (j, 0), z)
                vals[cand] = min(vals[cand], abs(res.statistic))
                if res.p_value > alpha:
                    removed.add(cand)
                    sepsets.store(cand[0], cand[1], j,
                                  SepSetEntry((), tuple(z), res.p_value,
                                              res.statistic, (cand[0], cand[1], j)))
            current = [c for c in current if c not in removed]
            current.sort(key=lambda c: (-vals[c], c))
            dim += 1
        sets[j] = list(current)
    for v in range(len(roles)):
        sets.setdefault(v, [])
    return sets


def _condition_set(S, base_sets, i, tau, j, roles):
    shifted = [(v, lag + tau) if roles[v].is_time_indexed else (v, lag)
               for (v, lag) in base_sets.get(i, ())]
    ends = {(i, tau), (j, 0)}
    return [sel for sel in dict.fromkeys(itertools.chain(S, base_sets.get(j, ()), shifted))
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


def sequential_skeleton_sweep(ci, graph, alpha, sepsets, pairs, s_roles, base):
    pairs = sorted(set(pairs), key=lambda p: (p[2], p[1], p[0]))
    roles = ci.var_roles
    strengths = {}
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
            answers = {}  # a z set the task asked, in either direction
            for (i, tau, j, S) in tests:
                z = _condition_set(S, base, i, tau, j, roles)
                if frozenset(z) not in answers:
                    answers[frozenset(z)] = _run_ci(ci, (i, tau), (j, 0), z)
                res = answers[frozenset(z)]
                link = (i, tau, j)
                strengths[link] = min(strengths.get(link, np.inf), abs(res.statistic))
                if res.p_value > alpha:
                    graph.remove_link(i, j, tau)
                    sepsets.store(i, tau, j, SepSetEntry(tuple(S), tuple(z),
                                                         res.p_value, res.statistic,
                                                         link))
                    break
        p += 1
