"""Skeleton phases, orientation, drivers, and oracle consistency."""

import dataclasses
import itertools

import numpy as np
import pytest

from jtscd.citests import GraphOracle, ParCorrCI
from jtscd.discovery import (SepSetEntry, SepSetStore, collider_phase,
                             estimate_graph, j_pc, j_pcmciplus,
                             lagged_skeleton_pcmciplus, partial_skeleton_pc,
                             rule_phase, run_pcmciplus, _blank_marks,
                             _set_mark)
from jtscd.graph import (CONFLICT, DIRECTED, UNDIRECTED, GroundTruthGraph,
                         VariableRole, dummy_deletion, target_graph)
from jtscd.metrics import LinkClass, score
from jtscd.pooling import SelectionError, pool_data
from jtscd.scm import generate_random_model, simplified_preset, simulate

R = VariableRole


def adjacency_set(graph):
    return sorted((i, j, tau) for (i, j, tau, _) in graph.edges())


def orientation_sound(estimated, target):
    """Oriented estimated marks must match the target; no conflicts."""
    for (i, j, tau, mark) in estimated.edges():
        if mark == CONFLICT:
            return False
        if mark in ("-->", "<--") and mark != target.mark(i, j, tau):
            return False
    return True


def cpdag_by_enumeration(n, dag_edges):
    """Directed edges shared by every DAG Markov-equivalent to the input."""
    skeleton = [tuple(sorted(e)) for e in dag_edges]

    def v_structures(edges):
        eset = set(edges)
        adj = {frozenset(e) for e in edges}
        out = set()
        for (a, b) in eset:
            for (c, d) in eset:
                if d == b and c < a and frozenset((a, c)) not in adj:
                    out.add((c, a, b))
                elif d == b and c > a and frozenset((a, c)) not in adj:
                    out.add((a, c, b))
        return out

    def acyclic(edges):
        children = {}
        for (a, b) in edges:
            children.setdefault(a, []).append(b)
        seen, stack = set(), set()

        def dfs(v):
            if v in stack:
                return False
            if v in seen:
                return True
            seen.add(v)
            stack.add(v)
            ok = all(dfs(c) for c in children.get(v, []))
            stack.discard(v)
            return ok

        return all(dfs(v) for v in range(n))

    reference = v_structures(set(dag_edges))
    members = []
    for flips in itertools.product((False, True), repeat=len(skeleton)):
        edges = [(b, a) if f else (a, b)
                 for ((a, b), f) in zip(skeleton, flips)]
        if acyclic(edges) and v_structures(set(edges)) == reference:
            members.append(set(edges))
    directed = set.intersection(*[m for m in members]) if members else set()
    return directed, members


class TestPartialSkeletonPC:
    def oracle_for(self, edges, n=3, extra_roles=()):
        g = GroundTruthGraph([R.SYSTEM] * n + list(extra_roles), 1)
        for (i, j) in edges:
            g.add_edge(i, j, 0)
        return GraphOracle(g, 1)

    def test_direct_link_retained(self):
        o = self.oracle_for([(0, 1)], n=2)
        graph, _ = partial_skeleton_pc(o, [(0, 0, 1)], alpha=0.05,
                                       roles=[R.SYSTEM] * 2)
        assert graph.has_link(0, 1, 0)

    def test_chain_removed_with_middle_sepset(self):
        o = self.oracle_for([(0, 1), (1, 2)])
        pairs = [(a, 0, b) for a in range(3) for b in range(3) if a != b]
        graph, sepsets = partial_skeleton_pc(o, pairs, alpha=0.05,
                                             roles=[R.SYSTEM] * 3)
        assert not graph.has_link(0, 2, 0)
        assert graph.has_link(0, 1, 0) and graph.has_link(1, 2, 0)
        assert sepsets.get(0, 0, 2).s == ((1, 0),)

    def test_alpha_zero_removes_everything(self):
        spec, _ = generate_random_model(n_system=3, n_temporal_ctx=0,
                                        n_spatial_ctx=0, seed=0, lag_free=True)
        dc = simulate(spec, M=1, T=80, seed=1)
        ci = ParCorrCI(pool_data(dc, 0))
        pairs = [(a, 0, b) for a in range(3) for b in range(3) if a != b]
        graph, _ = partial_skeleton_pc(ci, pairs, alpha=0.0,
                                       roles=ci.var_roles)
        assert all(not graph.has_link(a, b, 0)
                   for a in range(3) for b in range(3) if a != b)

    def test_knowledge_links_survive_untested(self):
        o = self.oracle_for([(0, 1)], n=3)
        graph, _ = partial_skeleton_pc(
            o, [(0, 0, 1)], alpha=0.05, roles=[R.SYSTEM] * 3,
            knowledge={2: [(0, 0)]})
        assert graph.mark(0, 2, 0) == DIRECTED  # kept although not in truth


class TestLaggedSkeleton:
    def test_preset_superset_contains_autoregression(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        lagged = lagged_skeleton_pcmciplus(o, tau_max=2, alpha=0.05)
        assert (1, 1) in lagged.sets[1]

    def test_superset_property_under_oracle(self):
        for seed in range(15):
            spec, g = generate_random_model(n_system=3, n_temporal_ctx=1,
                                            n_spatial_ctx=1, frac_observed=1.0,
                                            seed=seed, max_lag=2)
            o = GraphOracle(g, 2)
            lagged = lagged_skeleton_pcmciplus(o, tau_max=2, alpha=0.05)
            for j in range(spec.n_system):
                true_lagged = {(o.obs_map.index(v), lag)
                               for (v, lag) in g.parents(j) if lag >= 1}
                assert true_lagged <= set(lagged.sets[j])

    def test_white_noise_retention_rate_is_alpha_like(self):
        retained = total = 0
        for seed in range(40):
            rng = np.random.default_rng(seed + 500)
            from jtscd.scm import DatasetCollection
            dc = DatasetCollection(
                system=rng.standard_normal((1, 400, 3)),
                temporal_ctx=np.zeros((400, 0)), spatial_ctx=np.zeros((1, 0)),
                observed_mask=())
            ci = ParCorrCI(pool_data(dc, 2))
            lagged = lagged_skeleton_pcmciplus(ci, tau_max=2, alpha=0.05)
            for j in range(3):
                retained += len(lagged.sets[j])
                total += 6
        assert retained / total < 0.08

    def test_context_targets_only_admit_context_drivers(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        lagged = lagged_skeleton_pcmciplus(o, tau_max=2, alpha=0.05)
        ctx_var = 2  # the observed temporal context in discovery space
        assert o.var_roles[ctx_var] is R.TEMPORAL_CONTEXT
        assert all(o.var_roles[i] is R.TEMPORAL_CONTEXT
                   for (i, _) in lagged.sets[ctx_var])


class TestColliderAndRules:
    def test_collider_oriented_when_middle_absent_from_sepset(self):
        marks = _blank_marks(3, 0)
        _set_mark(marks, 0, 0, 1, UNDIRECTED)
        _set_mark(marks, 2, 0, 1, UNDIRECTED)
        sepsets = SepSetStore()
        sepsets.store(0, 0, 2, SepSetEntry((), (), 1.0, 0.0))
        collider_phase(marks, sepsets, [R.SYSTEM] * 3, 0)
        assert marks[0, 1, 0] == DIRECTED and marks[2, 1, 0] == DIRECTED

    def test_no_collider_when_middle_in_sepset(self):
        marks = _blank_marks(3, 0)
        _set_mark(marks, 0, 0, 1, UNDIRECTED)
        _set_mark(marks, 2, 0, 1, UNDIRECTED)
        sepsets = SepSetStore()
        sepsets.store(0, 0, 2, SepSetEntry(((1, 0),), ((1, 0),), 1.0, 0.0))
        collider_phase(marks, sepsets, [R.SYSTEM] * 3, 0)
        assert marks[0, 1, 0] == UNDIRECTED

    def test_conflicting_triples_marked(self):
        # path 0 - 1 - 2 - 3 with sepset(0,2) = sepset(1,3) = {}
        marks = _blank_marks(4, 0)
        for (a, b) in ((0, 1), (1, 2), (2, 3)):
            _set_mark(marks, a, 0, b, UNDIRECTED)
        sepsets = SepSetStore()
        sepsets.store(0, 0, 2, SepSetEntry((), (), 1.0, 0.0))
        sepsets.store(1, 0, 3, SepSetEntry((), (), 1.0, 0.0))
        collider_phase(marks, sepsets, [R.SYSTEM] * 4, 0)
        assert marks[1, 2, 0] == CONFLICT and marks[2, 1, 0] == CONFLICT

    def test_rule1_orients_descendant(self):
        marks = _blank_marks(3, 0)
        _set_mark(marks, 0, 0, 1, DIRECTED)
        _set_mark(marks, 1, 0, 2, UNDIRECTED)
        rule_phase(marks, 0)
        assert marks[1, 2, 0] == DIRECTED

    def test_rule1_applies_to_lagged_antecedent(self):
        marks = _blank_marks(2, 2)
        marks[0, 0, 1] = DIRECTED        # autoregressive driver
        _set_mark(marks, 0, 0, 1, UNDIRECTED)
        rule_phase(marks, 2)
        assert marks[0, 1, 0] == DIRECTED

    def test_fully_oriented_graph_is_fixpoint(self):
        marks = _blank_marks(3, 0)
        _set_mark(marks, 0, 0, 1, DIRECTED)
        _set_mark(marks, 1, 0, 2, DIRECTED)
        before = marks.copy()
        rule_phase(marks, 0)
        assert np.array_equal(before, marks)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2)],                    # chain
        [(0, 1), (2, 1)],                    # collider
        [(0, 1), (0, 2), (1, 2)],            # shielded triangle
        [(0, 1), (1, 2), (1, 3)],            # star
        [(0, 2), (1, 2), (2, 3)],            # collider with tail
    ])
    def test_matches_cpdag_enumeration(self, edges):
        n = max(max(e) for e in edges) + 1
        g = GroundTruthGraph([R.SYSTEM] * n, 1)
        for (a, b) in edges:
            g.add_edge(a, b, 0)
        o = GraphOracle(g, 1)
        result = j_pcmciplus(o, tau_max=1, alpha=0.05, use_dummies=False)
        est = dummy_deletion(result.graph)
        directed, members = cpdag_by_enumeration(n, edges)
        assert members, "enumeration must find the true DAG itself"
        for (a, b) in [tuple(sorted(e)) for e in edges]:
            mark = est.mark(a, b, 0)
            if (a, b) in directed:
                assert mark == "-->", (edges, a, b, mark)
            elif (b, a) in directed:
                assert mark == "<--", (edges, a, b, mark)
            else:
                assert mark == UNDIRECTED, (edges, a, b, mark)


class TestJPC:
    def test_latent_confounder_resolved_via_space_dummy(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 0)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        o = GraphOracle(g, 0)
        res = j_pc(o, alpha=0.05)
        sd = o.space_dummy
        assert res.graph.has_link(sd, 0, 0) and res.graph.has_link(sd, 1, 0)
        assert not res.graph.has_link(0, 1, 0)
        assert dummy_deletion(res.graph) == target_graph(g)

    def test_observed_context_orients_chain(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(0, 1, 0)
        o = GraphOracle(g, 1)
        res = j_pc(o, alpha=0.05)
        # collider check on C -> X0 o-o X1 resolves the chain direction
        assert res.graph.mark(0, 1, 0) == "-->"
        assert res.graph.mark(2, 0, 0) == "-->"

    def test_reduces_to_plain_pc_without_contexts(self):
        for seed in range(5):
            spec, g = generate_random_model(
                n_system=4, n_temporal_ctx=0, n_spatial_ctx=0,
                ctx_link_prob=0.0, seed=seed, lag_free=True)
            dc = simulate(spec, M=1, T=400, seed=seed + 100)
            ci = ParCorrCI(pool_data(dc, 0))
            res = j_pc(ci, alpha=0.05)
            pairs = [(a, 0, b) for a in range(4) for b in range(4) if a != b]
            ci2 = ParCorrCI(pool_data(dc, 0))
            skel, seps = partial_skeleton_pc(ci2, pairs, alpha=0.05,
                                             roles=ci2.var_roles)
            marks = _blank_marks(len(ci2.var_roles), 0)
            for (i, j, tau, mark) in skel.edges():
                _set_mark(marks, i, tau, j, mark)
            amb = collider_phase(marks, seps, ci2.var_roles, 0)
            rule_phase(marks, 0, amb)
            assert dummy_deletion(res.graph).edges() == [
                (i, j, t, m) for (i, j, t, m) in
                sorted((i, j, t, str(marks[i, j, t]))
                       for j in range(4) for i in range(4) for t in (0,)
                       if marks[i, j, t] != "" and i < j)]

    def test_oracle_consistency_random_lag_free(self):
        hits = 0
        for seed in range(30):
            frac = [0.0, 0.5, 1.0][seed % 3]
            spec, g = generate_random_model(
                n_system=3, n_temporal_ctx=0, n_spatial_ctx=2,
                frac_observed=frac, seed=seed, lag_free=True)
            o = GraphOracle(g, 1)
            res = j_pc(o, alpha=0.05)
            dd = dummy_deletion(res.graph)
            tg = target_graph(g)
            assert adjacency_set(dd) == adjacency_set(tg), (seed, frac)
            assert orientation_sound(dd, tg), (seed, frac)
            hits += 1
        assert hits == 30


class TestJPCMCIPlus:
    def test_oracle_consistency_random_models(self):
        for seed in range(30):
            frac = [0.0, 0.5, 1.0][seed % 3]
            spec, g = generate_random_model(
                n_system=3, n_temporal_ctx=1, n_spatial_ctx=1,
                frac_observed=frac, seed=seed, max_lag=2)
            o = GraphOracle(g, 2)
            res = j_pcmciplus(o, tau_max=2, alpha=0.05)
            dd = dummy_deletion(res.graph)
            tg = target_graph(g)
            assert adjacency_set(dd) == adjacency_set(tg), (seed, frac)
            assert orientation_sound(dd, tg), (seed, frac)

    def test_stage_c_keeps_preset_context_links(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        res = j_pcmciplus(o, tau_max=2, alpha=0.05)
        assert res.context_parents[0] == [(2, 1), (3, 0)]
        assert res.context_parents[1] == [(2, 1), (3, 0)]

    def test_stage_d_finds_preset_dummies(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        res = j_pcmciplus(o, tau_max=2, alpha=0.05)
        td, sd = o.time_dummy, o.space_dummy
        assert set(res.dummy_parents[0]) == {(td, 0), (sd, 0)}
        assert set(res.dummy_parents[1]) == {(td, 0), (sd, 0)}

    def test_stage_d_vacuous_without_latents(self):
        spec, g = generate_random_model(frac_observed=1.0, seed=2, max_lag=2)
        o = GraphOracle(g, 2)
        res = j_pcmciplus(o, tau_max=2, alpha=0.05)
        assert all(not parents for parents in res.dummy_parents.values())

    def test_sepsets_replay_to_the_stored_pvalue(self):
        spec, g = generate_random_model(seed=3, max_lag=2)
        dc = simulate(spec, M=4, T=60, seed=4)
        ci = ParCorrCI(pool_data(dc, 2))
        res = j_pcmciplus(ci, tau_max=2, alpha=0.05)
        assert len(res.sepsets) > 0
        for _, entry in res.sepsets.items():
            i, tau, j = entry.pair
            replay = ci((i, tau), (j, 0), list(entry.z))
            assert replay.p_value == entry.p_value
            assert replay.p_value > 0.05

    def test_worker_schedules_do_not_change_the_result(self):
        spec, g = generate_random_model(seed=6, max_lag=2)
        dc = simulate(spec, M=5, T=80, seed=7)
        serial = j_pcmciplus(ParCorrCI(pool_data(dc, 2)), tau_max=2,
                             alpha=0.05)
        threaded = j_pcmciplus(ParCorrCI(pool_data(dc, 2)), tau_max=2,
                               alpha=0.05, workers=3)
        assert serial.graph == threaded.graph
        assert serial.sepsets.items() == threaded.sepsets.items()

    def test_reduction_to_plain_pcmciplus(self):
        for seed in range(5):
            spec, _ = generate_random_model(
                n_system=4, n_temporal_ctx=0, n_spatial_ctx=0,
                ctx_link_prob=0.0, seed=seed, max_lag=2)
            dc = simulate(spec, M=1, T=120, seed=seed + 50)
            joint = j_pcmciplus(ParCorrCI(pool_data(dc, 2)), tau_max=2,
                                alpha=0.05)
            plain = run_pcmciplus(ParCorrCI(pool_data(dc, 2)), tau_max=2,
                                  alpha=0.05)
            assert dummy_deletion(joint.graph) == plain.graph

    def test_preset_parcorr_deconfounds_majority_of_seeds(self):
        spec, g = simplified_preset()
        tg = target_graph(g)
        separated = 0
        fp = slots = 0
        n_seeds = 8
        for seed in range(n_seeds):
            dc = simulate(spec, M=20, T=500, seed=seed + 900)
            res = estimate_graph(dc, variant="jpcmci+", ci="parcorr",
                                 tau_max=2, alpha=0.05)
            dd = dummy_deletion(res.graph)
            rep = score(dd, tg)
            sc = rep.classes[LinkClass.SYSTEM_SYSTEM]
            fp += sc.fp
            slots += sc.fp + sc.tn
            # the latent-confounded contemporaneous pair must stay a single
            # direct link, not pick up spurious partners
            if dd.has_link(0, 1, 0):
                separated += 1
        assert separated / n_seeds > 0.5
        assert fp / slots <= 0.05 + 0.08

    def test_no_system_to_context_or_dummy_marks(self):
        for seed in range(6):
            spec, g = generate_random_model(seed=seed, frac_observed=0.5,
                                            max_lag=2)
            o = GraphOracle(g, 2)
            res = j_pcmciplus(o, tau_max=2, alpha=0.05)
            for (i, j, tau, mark) in res.graph.edges():
                ri, rj = res.graph.roles[i], res.graph.roles[j]
                if ri.is_context or ri.is_dummy:
                    assert mark == "-->"
                if rj.is_context or rj.is_dummy:
                    assert mark == "<--"


class TestAlwaysConditionedDummies:
    def test_dummies_remove_preset_contexts_exactly(self):
        # The preset's context terms add f(t) + g(m) to every system column,
        # lagged ones included; both dummies project that out exactly, so the
        # always-conditioned baseline sees the same residuals as on a twin
        # without context terms (same context counts, hence same draws).
        spec, _ = simplified_preset()
        twin = dataclasses.replace(spec, terms=tuple(
            tuple(t for t in terms if t.var < spec.n_system)
            for terms in spec.terms)).validate()
        for seed in range(4):
            results = []
            for s in (spec, twin):
                dc = simulate(s, M=10, T=50, seed=seed + 300)
                pooled = pool_data(dc.mask_all_latent(), 2)
                fixed = [(pooled.time_dummy, 0), (pooled.space_dummy, 0)]
                results.append(run_pcmciplus(ParCorrCI(pooled), tau_max=2,
                                             alpha=0.05,
                                             fixed_conditions=fixed))
            preset_res, twin_res = results
            assert preset_res.graph == twin_res.graph, seed
            preset_seps, twin_seps = (preset_res.sepsets.items(),
                                      twin_res.sepsets.items())
            assert [k for k, _ in preset_seps] == [k for k, _ in twin_seps]
            for (_, a), (_, b) in zip(preset_seps, twin_seps):
                assert a.z == b.z
                assert abs(a.p_value - b.p_value) < 1e-12


class TestEstimateGraph:
    def test_variant_graphs_have_expected_roles(self):
        spec, g = generate_random_model(seed=1, frac_observed=1.0, max_lag=2)
        dc = simulate(spec, M=4, T=60, seed=2)
        got = {}
        for variant in ("jpcmci+", "pcmci+C", "pcmci+D", "pcmci+"):
            res = estimate_graph(dc, variant=variant, ci="parcorr",
                                 tau_max=2, alpha=0.05)
            got[variant] = [r for r in res.graph.roles]
        n = spec.n_system
        assert got["pcmci+"] == [R.SYSTEM] * n
        assert got["pcmci+D"] == [R.SYSTEM] * n + [R.TIME_DUMMY, R.SPACE_DUMMY]
        assert R.TIME_DUMMY not in got["pcmci+C"]
        assert got["jpcmci+"][-2:] == [R.TIME_DUMMY, R.SPACE_DUMMY]

    def test_oracle_needs_ground_truth(self):
        spec, _ = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        with pytest.raises(ValueError):
            estimate_graph(dc, ci="oracle")

    def test_unknown_variant_rejected(self):
        spec, _ = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        with pytest.raises(ValueError):
            estimate_graph(dc, variant="nope")

    @pytest.mark.parametrize("variant", ["jpcmci+", "pcmci+"])
    def test_parcorr_rejects_t_up_to_twice_tau_max(self, variant):
        # lag-shifted conditioning reaches back 2 * tau_max steps, so a panel
        # no longer than that leaves no rows to test on
        spec, _ = generate_random_model(seed=0, n_system=3, n_temporal_ctx=1,
                                        n_spatial_ctx=1, frac_observed=1.0, max_lag=2)
        for T in (3, 4):
            with pytest.raises(SelectionError, match=f"T={T} .*tau_max=2"):
                estimate_graph(simulate(spec, M=4, T=T, seed=1), variant=variant, tau_max=2)
        res = estimate_graph(simulate(spec, M=4, T=5, seed=1), variant=variant, tau_max=2)
        assert res.graph.tau_max == 2
        # the lag-free run pools at tau_max 0 and needs no look-back
        estimate_graph(simulate(spec, M=4, T=4, seed=1), variant=variant, tau_max=2,
                       lag_free=True)
