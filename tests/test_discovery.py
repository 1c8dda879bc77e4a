"""Skeleton phases, orientation, drivers, and oracle consistency."""

import dataclasses
import itertools
import re
from collections import Counter

import numpy as np
import pytest

from jtscd import citests
from jtscd.citests import GraphOracle, ParCorrCI, QueryError
from jtscd.discovery import (CI_TESTS, VARIANTS, SepSetEntry, SepSetStore, collider_phase,
                             estimate_graph, j_pcmciplus, lagged_skeleton_pcmciplus,
                             rule_phase, variant_view)
from jtscd.graph import (CONFLICT, DIRECTED, UNDIRECTED, GroundTruthGraph,
                         TimeSeriesGraph, VariableRole, dummy_deletion,
                         mask_contexts_latent, target_graph)
from jtscd.metrics import LinkClass, score
from jtscd.pooling import SelectionError, pool_data
from jtscd.scm import (ConstantColumnError, generate_random_model,
                       simplified_preset, simulate)

from always_conditioned import AlwaysConditioned

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


class TestSkeletonSweep:
    """The system stage's sweep, run by ``j_pcmciplus`` at tau_max 0 without
    dummies on context-free graphs."""

    def oracle_for(self, edges, n=3):
        g = GroundTruthGraph([R.SYSTEM] * n, 1)
        for (i, j) in edges:
            g.add_edge(i, j, 0)
        return GraphOracle(g, 1)

    def test_direct_link_retained(self):
        o = self.oracle_for([(0, 1)], n=2)
        graph = j_pcmciplus(o, 0, use_dummies=False).graph
        assert graph.has_link(0, 1, 0)

    def test_chain_removed_with_middle_sepset(self):
        o = self.oracle_for([(0, 1), (1, 2)])
        res = j_pcmciplus(o, 0, use_dummies=False)
        assert not res.graph.has_link(0, 2, 0)
        assert res.graph.has_link(0, 1, 0) and res.graph.has_link(1, 2, 0)
        assert res.sepsets.get(0, 0, 2).s == ((1, 0),)

    def test_alpha_zero_removes_everything(self):
        spec, _ = generate_random_model(n_system=3, n_temporal_ctx=0,
                                        n_spatial_ctx=0, seed=0, lag_free=True)
        dc = simulate(spec, M=1, T=80, seed=1)
        graph = j_pcmciplus(ParCorrCI(pool_data(dc, 0)), 0, alpha=0.0,
                            use_dummies=False).graph
        assert graph.n_vars == 3
        assert all(not graph.has_link(a, b, 0)
                   for a in range(3) for b in range(3) if a != b)


class TestLaggedSkeleton:
    def test_preset_superset_contains_autoregression(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        lagged = lagged_skeleton_pcmciplus(o, tau_max=2, alpha=0.05, sepsets=SepSetStore())
        assert (1, 1) in lagged[1]

    def test_superset_property_under_oracle(self):
        for seed in range(15):
            spec, g = generate_random_model(n_system=3, n_temporal_ctx=1,
                                            n_spatial_ctx=1, frac_observed=1.0,
                                            seed=seed, max_lag=2)
            o = GraphOracle(g, 2)
            lagged = lagged_skeleton_pcmciplus(o, tau_max=2, alpha=0.05, sepsets=SepSetStore())
            for j in range(spec.n_system):
                true_lagged = {(o.obs_map.index(v), lag)
                               for (v, c, lag) in g.directed_edges() if c == j and lag >= 1}
                assert true_lagged <= set(lagged[j])

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
            lagged = lagged_skeleton_pcmciplus(ci, tau_max=2, alpha=0.05, sepsets=SepSetStore())
            for j in range(3):
                retained += len(lagged[j])
                total += 6
        assert retained / total < 0.08

    def test_context_targets_only_admit_context_drivers(self):
        _, g = simplified_preset()
        o = GraphOracle(g, 2)
        lagged = lagged_skeleton_pcmciplus(o, tau_max=2, alpha=0.05, sepsets=SepSetStore())
        ctx_var = 2  # the observed temporal context in discovery space
        assert o.var_roles[ctx_var] is R.TEMPORAL_CONTEXT
        assert all(o.var_roles[i] is R.TEMPORAL_CONTEXT
                   for (i, _) in lagged[ctx_var])


def system_graph(n, tau_max, links):
    """A system-only graph with ``(i, j, tau, mark)`` links."""
    g = TimeSeriesGraph([R.SYSTEM] * n, tau_max)
    for (i, j, tau, mark) in links:
        g.set_mark(i, j, tau, mark)
    return g


class TestColliderAndRules:
    def test_collider_oriented_when_middle_absent_from_sepset(self):
        g = system_graph(3, 0, [(0, 1, 0, UNDIRECTED), (2, 1, 0, UNDIRECTED)])
        sepsets = SepSetStore()
        sepsets.store(0, 0, 2, SepSetEntry((), (), 1.0, 0.0))
        collider_phase(g, sepsets)
        assert g.mark(0, 1, 0) == DIRECTED and g.mark(2, 1, 0) == DIRECTED

    def test_no_collider_when_middle_in_sepset(self):
        g = system_graph(3, 0, [(0, 1, 0, UNDIRECTED), (2, 1, 0, UNDIRECTED)])
        sepsets = SepSetStore()
        sepsets.store(0, 0, 2, SepSetEntry(((1, 0),), ((1, 0),), 1.0, 0.0))
        collider_phase(g, sepsets)
        assert g.mark(0, 1, 0) == UNDIRECTED

    def test_conflicting_triples_marked(self):
        # path 0 - 1 - 2 - 3 with sepset(0,2) = sepset(1,3) = {}
        g = system_graph(4, 0, [(a, b, 0, UNDIRECTED)
                                for (a, b) in ((0, 1), (1, 2), (2, 3))])
        sepsets = SepSetStore()
        sepsets.store(0, 0, 2, SepSetEntry((), (), 1.0, 0.0))
        sepsets.store(1, 0, 3, SepSetEntry((), (), 1.0, 0.0))
        collider_phase(g, sepsets)
        assert g.mark(1, 2, 0) == CONFLICT and g.mark(2, 1, 0) == CONFLICT

    def test_rule1_orients_descendant(self):
        g = system_graph(3, 0, [(0, 1, 0, DIRECTED), (1, 2, 0, UNDIRECTED)])
        rule_phase(g)
        assert g.mark(1, 2, 0) == DIRECTED

    def test_rule1_applies_to_lagged_antecedent(self):
        g = system_graph(2, 2, [(0, 0, 1, DIRECTED),      # autoregressive driver
                                (0, 1, 0, UNDIRECTED)])
        rule_phase(g)
        assert g.mark(0, 1, 0) == DIRECTED

    def test_fully_oriented_graph_is_fixpoint(self):
        g = system_graph(3, 0, [(0, 1, 0, DIRECTED), (1, 2, 0, DIRECTED)])
        before = g.copy()
        rule_phase(g)
        assert g == before

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

    def test_pcmciplus_reports_its_ambiguous_triples(self, monkeypatch):
        import jtscd.discovery as discovery
        found = []
        original = discovery.collider_phase

        def recording(*args, **kwargs):
            found.append(original(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(discovery, "collider_phase", recording)
        for seed in range(10):
            _, g = generate_random_model(n_system=4, seed=seed, max_lag=2)
            result = j_pcmciplus(GraphOracle(mask_contexts_latent(g), 2), tau_max=2,
                                 use_dummies=False, collider_rule="majority")
            assert result.ambiguous_triples == found[-1], seed
        assert sum(map(bool, found)) >= 5


class TestJPC:
    def test_latent_confounder_resolved_via_space_dummy(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 0)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        o = GraphOracle(g, 0)
        res = j_pcmciplus(o, 0, alpha=0.05)
        sd = o.space_dummy
        assert res.graph.has_link(sd, 0, 0) and res.graph.has_link(sd, 1, 0)
        assert not res.graph.has_link(0, 1, 0)
        assert dummy_deletion(res.graph) == target_graph(g)

    def test_observed_context_orients_chain(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(0, 1, 0)
        o = GraphOracle(g, 1)
        res = j_pcmciplus(o, 0, alpha=0.05)
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
            res = j_pcmciplus(ci, 0, alpha=0.05)
            # without contexts and dummies J-PC is plain PC over the system
            plain = j_pcmciplus(ParCorrCI(pool_data(dc, 0)), 0, alpha=0.05,
                                use_dummies=False)
            assert plain.graph.n_vars == 4
            assert dummy_deletion(res.graph) == dummy_deletion(plain.graph)

    def test_oracle_consistency_random_lag_free(self):
        hits = 0
        for seed in range(30):
            frac = [0.0, 0.5, 1.0][seed % 3]
            spec, g = generate_random_model(
                n_system=3, n_temporal_ctx=0, n_spatial_ctx=2,
                frac_observed=frac, seed=seed, lag_free=True)
            o = GraphOracle(g, 1)
            res = j_pcmciplus(o, 0, alpha=0.05)
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
        # every variant maps each system variable, held parents or none
        dc = simulate(spec, M=2, T=30, seed=3)
        system = list(range(spec.n_system))
        for variant, tau_max in itertools.product(VARIANTS, (2, 0)):
            res = estimate_graph(dc, variant=variant, ci="oracle", ground_truth=g,
                                 tau_max=tau_max)
            assert list(res.context_parents) == system, (variant, tau_max)
            assert list(res.dummy_parents) == system, (variant, tau_max)

    def test_stage_c_conditions_on_no_dummy(self, monkeypatch):
        # stage C, a joint discovery's first sweep, draws S from system and
        # context adjacencies and its base sets from the lagged phase's
        # system and temporal-context drivers: none of its z holds a dummy
        import jtscd.discovery as discovery
        original, sweeps = discovery._skeleton_sweep, []

        class Recording:
            def __init__(self, ci):
                self.ci, self.var_roles, self.asked = ci, ci.var_roles, []

            def batch(self, queries):
                self.asked += queries
                return self.ci.batch(queries)

        def recording(ci, *args, **kwargs):
            sweeps.append(Recording(ci))
            return original(sweeps[-1], *args, **kwargs)

        monkeypatch.setattr(discovery, "_skeleton_sweep", recording)
        runs = []
        for seed in range(4):
            spec, g = generate_random_model(n_system=3, n_temporal_ctx=1, n_spatial_ctx=1,
                                            frac_observed=(0.0, 0.5, 1.0)[seed % 3],
                                            seed=seed, max_lag=2)
            _, g0 = generate_random_model(n_system=3, n_temporal_ctx=0, n_spatial_ctx=2,
                                          seed=seed, lag_free=True)
            dc = simulate(spec, M=4, T=60, seed=seed + 50)
            runs += [lambda g=g: j_pcmciplus(GraphOracle(g, 2), tau_max=2),
                     lambda g0=g0: j_pcmciplus(GraphOracle(g0, 0), 0,
                                               collider_rule="majority"),
                     lambda dc=dc: estimate_graph(dc, tau_max=2, collider_rule="majority"),
                     lambda dc=dc: estimate_graph(dc, variant="pcmci+D", tau_max=2),
                     lambda dc=dc: estimate_graph(dc, tau_max=0)]
        n_context_z, n_later_dummy_z = 0, 0
        for k, run in enumerate(runs):
            sweeps.clear()
            run()
            dummies = {v for v, r in enumerate(sweeps[0].var_roles) if r.is_dummy}
            in_z = [[any(v in dummies for (v, _) in z) for _, _, z in sweep.asked]
                    for sweep in sweeps]
            assert not any(in_z[0]), k
            n_context_z += sum(bool(z) for _, _, z in sweeps[0].asked)
            n_later_dummy_z += sum(map(sum, in_z[1:]))
        # the check sees conditioning sets, and dummies in the later stages' ones
        assert n_context_z > 0 and n_later_dummy_z > 0

    def test_sepsets_replay_to_the_stored_pvalue(self):
        # a stored z is the set the discovery asked: the always-conditioned
        # baseline's CI test adds the dummies to its replay as it did to the query
        spec, g = generate_random_model(seed=3, max_lag=2)
        dc = simulate(spec, M=4, T=60, seed=4)
        masked = pool_data(dc.mask_all_latent(), 2)
        always = AlwaysConditioned(ParCorrCI(masked),
                                   [(masked.time_dummy, 0), (masked.space_dummy, 0)])
        for ci, use_dummies in ((ParCorrCI(pool_data(dc, 2)), True), (always, False)):
            res = j_pcmciplus(ci, tau_max=2, alpha=0.05, use_dummies=use_dummies)
            assert res.sepsets.items()
            for _, entry in res.sepsets.items():
                i, tau, j = entry.pair
                replay = ci.batch([((i, tau), (j, 0), list(entry.z))])[0]
                assert replay.p_value == entry.p_value
                assert replay.p_value > 0.05

    def test_reduction_to_plain_pcmciplus(self):
        for seed in range(5):
            spec, _ = generate_random_model(
                n_system=4, n_temporal_ctx=0, n_spatial_ctx=0,
                ctx_link_prob=0.0, seed=seed, max_lag=2)
            dc = simulate(spec, M=1, T=120, seed=seed + 50)
            joint = j_pcmciplus(ParCorrCI(pool_data(dc, 2)), tau_max=2,
                                alpha=0.05)
            plain = j_pcmciplus(ParCorrCI(pool_data(dc.mask_all_latent(), 2)), tau_max=2,
                                alpha=0.05, use_dummies=False)
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
                ci = AlwaysConditioned(ParCorrCI(pooled),
                                       [(pooled.time_dummy, 0), (pooled.space_dummy, 0)])
                results.append(j_pcmciplus(ci, tau_max=2, alpha=0.05, use_dummies=False))
            preset_res, twin_res = results
            assert preset_res.graph == twin_res.graph, seed
            preset_seps, twin_seps = (preset_res.sepsets.items(),
                                      twin_res.sepsets.items())
            assert [k for k, _ in preset_seps] == [k for k, _ in twin_seps]
            for (_, a), (_, b) in zip(preset_seps, twin_seps):
                assert a.z == b.z
                assert abs(a.p_value - b.p_value) < 1e-12

    def test_a_failing_batch_names_its_query(self):
        # the error a CI test raises leaves the discovery unwrapped and names
        # the query it refused.  The first lagged-phase batch asks (0, 1),
        # (0, 2), (1, 1), ... against (0, 0): conditioned on (1, 1), its
        # third query alone is malformed.
        spec, g = generate_random_model(seed=3, max_lag=2)
        masked = pool_data(simulate(spec, M=4, T=60, seed=4).mask_all_latent(), 2)
        # a selector the CI test does not know, refused alike by both
        message = r"selector \(99, 0\) out of range: no such variable"
        for ci in (ParCorrCI(masked), GraphOracle(mask_contexts_latent(g), 2)):
            with pytest.raises(QueryError, match=r"^conditioning set overlaps the tested pair "
                                                 r"\(query x=\(1, 1\) y=\(0, 0\) z=\(\(1, 1\),\)\)$"):
                j_pcmciplus(AlwaysConditioned(ci, [(1, 1)]), tau_max=2, use_dummies=False)
            with pytest.raises(SelectionError, match=rf"^{message} \(query x=\(0, 1\) "
                                                     r"y=\(0, 0\) z=\(\(99, 0\),\)\)$"):
                j_pcmciplus(AlwaysConditioned(ci, [(99, 0)]), tau_max=2, use_dummies=False)
            # asked directly, a batch [fine, bad, fine] names its bad query
            fine, bad = ((0, 1), (1, 0), [(2, 1)]), ((0, 1), (1, 0), [(99, 0)])
            with pytest.raises(SelectionError, match=rf"^{message} \(query x=\(0, 1\) "
                                                     r"y=\(1, 0\) z=\(\(99, 0\),\)\)$"):
                ci.batch([fine, bad, fine])


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

    @pytest.mark.parametrize("variant", ["jpcmci+", "pcmci+C", "pcmci+D", "pcmci+"])
    def test_lag_free_graph_has_the_lagged_graph_roles(self, variant):
        # a run that uses no dummies returns no dummy nodes, lagged or not
        spec, _ = generate_random_model(seed=3, max_lag=2)
        dc = simulate(spec, M=5, T=60, seed=4)
        lagged = estimate_graph(dc, variant=variant, tau_max=2)
        lag_free = estimate_graph(dc, variant=variant, tau_max=0)
        assert lag_free.graph.roles == lagged.graph.roles
        uses_dummies = variant in ("jpcmci+", "pcmci+D")
        assert (R.SPACE_DUMMY in lag_free.graph.roles) == uses_dummies

    def test_phase_trace_points_are_looked_up_at_call_time(self, monkeypatch):
        # perfbench/tracing.py times these phases by replacing the module
        # attributes, so the driver must call them through module globals
        import jtscd.discovery as discovery
        calls = {}

        def counting(name):
            original = getattr(discovery, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        names = ("lagged_skeleton_pcmciplus", "collider_phase", "rule_phase")
        for name in names:
            monkeypatch.setattr(discovery, name, counting(name))
        spec, _ = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=4, T=40, seed=2)
        for variant in discovery.VARIANTS:
            for tau_max in (2, 0):
                calls.clear()
                estimate_graph(dc, variant=variant, tau_max=tau_max)
                expected = {"collider_phase": 1, "rule_phase": 1}
                if tau_max:
                    expected["lagged_skeleton_pcmciplus"] = 1
                assert calls == expected, (variant, tau_max)

    def test_oracle_needs_ground_truth(self):
        spec, _ = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        with pytest.raises(ValueError):
            estimate_graph(dc, ci="oracle")

    def test_unknown_ci_test_rejected(self):
        spec, g = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        with pytest.raises(ValueError, match="^unknown CI test 'foo'$"):
            estimate_graph(dc, ci="foo", ground_truth=g)

    def test_unknown_variant_rejected(self):
        spec, _ = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        with pytest.raises(ValueError):
            estimate_graph(dc, variant="nope")

    def test_unknown_collider_rule_is_refused_before_any_test(self):
        spec, g = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        with pytest.raises(ValueError, match="unknown collider rule 'Majority'"):
            estimate_graph(dc, collider_rule="Majority")
        # J-PCMCI+, PCMCI+ on the context-masked oracle, and J-PC
        for truth, kwargs in ((g, {}), (mask_contexts_latent(g), dict(use_dummies=False)),
                              (g, dict(tau_max=0))):
            oracle = GraphOracle(truth, 2)
            with pytest.raises(ValueError, match="unknown collider rule"):
                j_pcmciplus(oracle, collider_rule="Majority", **kwargs)
            assert oracle.n_tests == 0

    @pytest.mark.parametrize("alpha", [2.0, -0.5, float("nan")])
    def test_alpha_outside_the_unit_interval_is_refused(self, alpha):
        # refused once, by the driver every variant and CI test runs through
        spec, g = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=2, T=30, seed=2)
        for variant, ci, tau_max in itertools.product(VARIANTS, CI_TESTS, (2, 0)):
            with pytest.raises(ValueError, match=rf"^alpha={alpha} must lie in \[0, 1\]$"):
                estimate_graph(dc, variant=variant, ci=ci, ground_truth=g, alpha=alpha,
                               tau_max=tau_max)

    @pytest.mark.parametrize("variant", [pytest.param("jpcmci+", id="j_pcmciplus"), "pcmci+"])
    def test_parcorr_refuses_a_tau_max_beyond_its_window(self, variant):
        # data pooled at tau_max 1 holds lags up to 2; a discovery at
        # tau_max 2 shifts conditioning sets to lag 4
        spec, _ = generate_random_model(seed=1, max_lag=2)
        dc, _, use_dummies = variant_view(variant, simulate(spec, M=4, T=40, seed=2))
        ci = ParCorrCI(pool_data(dc, 1))
        for tau_max in (2, -1):
            with pytest.raises(ValueError, match=rf"^tau_max={tau_max} must lie in \[0, 1\]: "
                               r"a discovery asks lags up to 2 \* tau_max, "
                               r"and the CI test's selectors end at lag 2$"):
                j_pcmciplus(ci, tau_max=tau_max, use_dummies=use_dummies)
        assert ci.n_tests == 0
        j_pcmciplus(ci, tau_max=1, use_dummies=use_dummies)

    @pytest.mark.parametrize("variant", [pytest.param("jpcmci+", id="j_pcmciplus"), "pcmci+"])
    def test_oracle_refuses_a_tau_max_beyond_its_window(self, variant):
        _, g = generate_random_model(seed=1, max_lag=2)
        _, truth, use_dummies = variant_view(variant, ground_truth=g)
        oracle = GraphOracle(truth, 1, unroll_depth=2)
        for tau_max in (2, -1):
            with pytest.raises(ValueError, match=rf"^tau_max={tau_max} must lie in \[0, 1\]: "
                               r"a discovery asks lags up to 2 \* tau_max, "
                               r"and the CI test's selectors end at lag 2$"):
                j_pcmciplus(oracle, tau_max=tau_max, use_dummies=use_dummies)
        assert oracle.n_tests == 0
        j_pcmciplus(oracle, tau_max=1, use_dummies=use_dummies)

    @pytest.mark.parametrize("tau_max", [1.0, True, "1", None])
    def test_tau_max_must_be_an_integer(self, tau_max):
        # each entry point refuses it before any test, with the error type
        # of its other tau_max refusals; a numpy integer is an integer
        spec, g = generate_random_model(seed=1, max_lag=2)
        dc = simulate(spec, M=3, T=30, seed=2)
        message = "^" + re.escape(f"tau_max={tau_max!r} must be an integer") + "$"
        oracle = GraphOracle(g, 1)
        for error, call in ((SelectionError, lambda: pool_data(dc, tau_max)),
                            (QueryError, lambda: GraphOracle(g, tau_max)),
                            (ValueError, lambda: j_pcmciplus(oracle, tau_max)),
                            (SelectionError, lambda: estimate_graph(dc, tau_max=tau_max)),
                            (QueryError, lambda: estimate_graph(
                                dc, ci="oracle", ground_truth=g, tau_max=tau_max))):
            with pytest.raises(error, match=message):
                call()
        assert oracle.n_tests == 0
        assert (estimate_graph(dc, tau_max=np.int64(1)).graph.to_text()
                == estimate_graph(dc, tau_max=1).graph.to_text())

    @staticmethod
    def parcorr_run(dc, entry, tau_max=2):
        """A ParCorr discovery at ``tau_max`` through ``estimate_graph`` with
        variant ``entry``, or through a ``ParCorrCI`` built on the pooled data
        (``entry="ParCorrCI"``, J-PC at tau_max 0)."""
        if entry != "ParCorrCI":
            return estimate_graph(dc, variant=entry, tau_max=tau_max)
        return j_pcmciplus(ParCorrCI(pool_data(dc, tau_max)), tau_max=tau_max)

    @pytest.mark.parametrize("entry", ["jpcmci+", "pcmci+", "ParCorrCI"])
    def test_parcorr_rejects_t_up_to_twice_tau_max(self, entry):
        # lag-shifted conditioning reaches back 2 * tau_max steps, so a panel
        # no longer than that leaves no rows to test on
        spec, _ = generate_random_model(seed=0, n_system=3, n_temporal_ctx=1,
                                        n_spatial_ctx=1, frac_observed=1.0, max_lag=2)
        for T in (3, 4):
            with pytest.raises(SelectionError, match=f"T={T} .*tau_max=2"):
                self.parcorr_run(simulate(spec, M=4, T=T, seed=1), entry)
        res = self.parcorr_run(simulate(spec, M=4, T=5, seed=1), entry)
        assert res.graph.tau_max == 2
        # the lag-free run pools at tau_max 0 and needs no look-back
        self.parcorr_run(simulate(spec, M=4, T=4, seed=1), entry, tau_max=0)

    @pytest.mark.parametrize("entry", ["jpcmci+", "pcmci+", "ParCorrCI"])
    def test_parcorr_rejects_a_constant_system_variable(self, entry):
        # a constant column is independent of everything: refused, not tested
        spec, g = generate_random_model(seed=0, n_system=3, n_temporal_ctx=1,
                                        n_spatial_ctx=1, frac_observed=1.0, max_lag=2)
        dc = simulate(spec, M=4, T=30, seed=1)
        dc.system[:, :, 1] = 2.5
        for tau_max in (2, 0):
            with pytest.raises(ConstantColumnError, match="system variable 1 "):
                self.parcorr_run(dc, entry, tau_max=tau_max)
        if entry != "ParCorrCI":
            # the oracle never reads the values
            estimate_graph(dc, variant=entry, ci="oracle", ground_truth=g, tau_max=2)
        # constant within each dataset but not across them is a column to test
        dc.system[:, :, 1] = np.arange(4.0)[:, None]
        self.parcorr_run(dc, entry)


class TestDatasetOrder:
    """A ParCorr discovery does not depend on the order of the datasets
    (ROADMAP item 10): the pooled rows are exchangeable across datasets."""

    # perfbench's model shape, at its grid-small panel sizes
    MODEL = dict(n_system=5, n_temporal_ctx=2, n_spatial_ctx=1,
                 frac_observed=0.5, max_lag=2)
    ALPHA = 0.05

    def test_permuted_datasets_give_the_same_discovery(self, monkeypatch):
        asked, batch = [], citests.parcorr_batch

        def recording(queries, data):
            results = batch(queries, data)
            asked[-1].update({(x, y, tuple(z)): res.p_value
                              for (x, y, z), res in zip(queries, results)})
            return results

        monkeypatch.setattr(citests, "parcorr_batch", recording)
        for r in range(20):
            spec, _ = generate_random_model(seed=r, **self.MODEL)
            dc = simulate(spec, M=10, T=(30, 60)[r % 2], seed=100 + r)
            perm = np.random.default_rng(r).permutation(dc.M)
            shuffled = dataclasses.replace(dc, system=dc.system[perm],
                                           spatial_ctx=dc.spatial_ctx[perm])
            for variant in ("jpcmci+", "pcmci+"):
                runs = []
                for data in (dc, shuffled):
                    asked.append({})
                    runs.append(estimate_graph(data, variant=variant, tau_max=2,
                                               alpha=self.ALPHA))
                p_a, p_b = asked[-2], asked[-1]
                near = {q for q, p in (*p_a.items(), *p_b.items())
                        if abs(p - self.ALPHA) <= 1e-9}
                assert all((p_a[q] > self.ALPHA) == (p_b[q] > self.ALPHA)
                           for q in p_a.keys() & p_b.keys() - near), (r, variant)
                if not near:  # equal decisions ask the same tests to the same end
                    assert p_a.keys() == p_b.keys(), (r, variant)
                    assert runs[0].graph.to_text() == runs[1].graph.to_text(), (r, variant)
                    assert (sorted(k for k, _ in runs[0].sepsets.items())
                            == sorted(k for k, _ in runs[1].sepsets.items())), (r, variant)


class TestContextOrder:
    """A ParCorr discovery does not depend on the order of the observed
    contexts within a kind (ROADMAP item 10): permuting the temporal and the
    spatial context columns relabels those variables and nothing else."""

    SHAPES = (dict(n_system=4, n_temporal_ctx=2, n_spatial_ctx=2),
              dict(n_system=5, n_temporal_ctx=3, n_spatial_ctx=2))
    ALPHA = 0.05

    def test_permuted_contexts_give_the_same_discovery(self, monkeypatch):
        asked, batch, back = [], citests.parcorr_batch, []

        def recording(queries, data):
            # keyed in the original labels; a test is symmetric in x and y
            # and reads z as a set
            results = batch(queries, data)
            asked[-1].update({(frozenset({(back[x[0]], x[1]), (back[y[0]], y[1])}),
                               frozenset((back[v], lag) for v, lag in z)): res.p_value
                              for (x, y, z), res in zip(queries, results)})
            return results

        monkeypatch.setattr(citests, "parcorr_batch", recording)
        for shape in self.SHAPES:
            for r in range(20):
                spec, _ = generate_random_model(seed=r, frac_observed=1.0, max_lag=2, **shape)
                dc = simulate(spec, M=10, T=(30, 60)[r % 2], seed=100 + r)
                rng = np.random.default_rng(r)
                perm_t = rng.permutation(dc.n_temporal_ctx)
                perm_s = rng.permutation(dc.n_spatial_ctx)
                shuffled = dataclasses.replace(dc, temporal_ctx=dc.temporal_ctx[:, perm_t],
                                               spatial_ctx=dc.spatial_ctx[:, perm_s])
                # variable v of the shuffled run is variable to_original[v]
                n_sys, n_t = dc.n_system, dc.n_temporal_ctx
                n_vars = n_sys + n_t + dc.n_spatial_ctx + 2
                to_original = [*range(n_sys), *(n_sys + perm_t), *(n_sys + n_t + perm_s),
                               n_vars - 2, n_vars - 1]
                for variant in ("jpcmci+", "pcmci+C"):
                    runs = []
                    for data, labels in ((dc, range(n_vars)), (shuffled, to_original)):
                        back[:] = labels
                        asked.append({})
                        runs.append(estimate_graph(data, variant=variant, tau_max=2,
                                                   alpha=self.ALPHA))
                    p_a, p_b = asked[-2], asked[-1]
                    near = {q for q, p in (*p_a.items(), *p_b.items())
                            if abs(p - self.ALPHA) <= 1e-9}
                    assert all((p_a[q] > self.ALPHA) == (p_b[q] > self.ALPHA)
                               for q in p_a.keys() & p_b.keys() - near), (shape, r, variant)
                    if near:
                        continue
                    # equal decisions ask the same tests to the same end
                    assert p_a.keys() == p_b.keys(), (shape, r, variant)
                    graph, mapped = runs[0].graph, TimeSeriesGraph(runs[0].graph.roles, 2)
                    for i, j, tau, mark in runs[1].graph.edges():
                        mapped.set_mark(to_original[i], to_original[j], tau, mark)
                    assert mapped.to_text() == graph.to_text(), (shape, r, variant)
                    keys = [k for k, _ in runs[0].sepsets.items()]
                    assert sorted(SepSetStore._key(to_original[i], tau, to_original[j])
                                  for (i, tau, j), _ in runs[1].sepsets.items()) == keys, \
                        (shape, r, variant)


class TestBatchedPhases:
    """The lagged phase and the sweep ask each level as one batch; the
    one-query-at-a-time versions they replaced (``reference_discovery.py``)
    must return the same graphs, separating sets and lagged sets."""

    @staticmethod
    def outputs(res):
        return (res.graph.to_text(), res.sepsets.items(), res.lagged,
                res.context_parents, res.dummy_parents, res.ambiguous_triples)

    @staticmethod
    def sequential(monkeypatch):
        import jtscd.discovery as discovery
        from reference_discovery import sequential_lagged_skeleton, sequential_skeleton_sweep
        monkeypatch.setattr(discovery, "lagged_skeleton_pcmciplus", sequential_lagged_skeleton)
        monkeypatch.setattr(discovery, "_skeleton_sweep", sequential_skeleton_sweep)

    @staticmethod
    def oracle_runs():
        runs = []
        for seed in range(6):
            _, g = generate_random_model(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                         frac_observed=(0.0, 0.5, 1.0)[seed % 3],
                                         seed=seed, max_lag=2)
            _, g0 = generate_random_model(n_system=4, n_temporal_ctx=0, n_spatial_ctx=2,
                                          seed=seed, lag_free=True)
            o, o0 = GraphOracle(g, 2), GraphOracle(g0, 0)
            masked = GraphOracle(mask_contexts_latent(g), 2)
            always = AlwaysConditioned(masked, [(masked.time_dummy, 0),
                                                (masked.space_dummy, 0)])
            runs += [lambda o=o: j_pcmciplus(o, tau_max=2),
                     lambda o=o: j_pcmciplus(o, tau_max=2, collider_rule="majority"),
                     lambda o0=o0: j_pcmciplus(o0, 0, collider_rule="majority"),
                     lambda a=always: j_pcmciplus(a, tau_max=2, use_dummies=False)]
        return runs

    @staticmethod
    def parcorr_runs():
        # every phase asks ``ci.batch``, and a query gets the same bits in a
        # batch of any size, so p-values agree exactly
        runs = []
        for seed in range(3):
            spec, _ = generate_random_model(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                            frac_observed=0.5, seed=seed, max_lag=2)
            dc = simulate(spec, M=5, T=60, seed=seed + 70)
            ci = ParCorrCI(pool_data(dc.mask_all_latent(), 2))
            always = AlwaysConditioned(ci, [(v, 0) for v, r in enumerate(ci.var_roles)
                                            if r.is_dummy])
            runs += [lambda dc=dc, v=v, t=t: estimate_graph(dc, variant=v, tau_max=t)
                     for v in VARIANTS for t in (2, 0)]
            runs += [lambda dc=dc: estimate_graph(dc, tau_max=2, collider_rule="majority"),
                     lambda a=always: j_pcmciplus(a, tau_max=2, use_dummies=False)]
        return runs

    def assert_same_as_sequential(self, runs, monkeypatch):
        batched = [self.outputs(run()) for run in runs]
        self.sequential(monkeypatch)
        for k, run in enumerate(runs):
            assert self.outputs(run()) == batched[k], k
        assert any(b[1] for b in batched)

    def test_oracle(self, monkeypatch):
        self.assert_same_as_sequential(self.oracle_runs(), monkeypatch)

    def test_parcorr(self, monkeypatch):
        self.assert_same_as_sequential(self.parcorr_runs(), monkeypatch)

    def test_a_sweep_level_asks_each_test_once(self, monkeypatch):
        # both directions of a lag-0 link at one z set are one test, and so
        # are two subsets that give one z set: a level asks it once
        import jtscd.discovery as discovery
        sweep, inside, batches = discovery._skeleton_sweep, [], []

        def recording_sweep(*args):
            inside.append(True)
            try:
                return sweep(*args)
            finally:
                inside.pop()

        def recording(batch):
            def recording_batch(ci, queries):
                if inside:
                    batches.append(list(queries))
                return batch(ci, queries)
            return recording_batch

        for test in (ParCorrCI, GraphOracle):
            monkeypatch.setattr(test, "batch", recording(test.batch))
        monkeypatch.setattr(discovery, "_skeleton_sweep", recording_sweep)
        for run in self.oracle_runs() + self.parcorr_runs():
            run()
        assert len(batches) > 100
        for queries in batches:
            tests = [(frozenset((tuple(x), tuple(y))), frozenset(map(tuple, z)))
                     for x, y, z in queries]
            assert len(set(tests)) == len(tests), queries

    def test_a_seeded_discovery_asks_fewer_tests(self):
        # the query stream is pinned: each batch's size, lagged levels first,
        # then the sweep levels stage by stage.  The sweep that asked both
        # directions of a link asked ParCorr 161 and the oracle 365 queries;
        # one that asked a removed link's tests again would ask more
        spec, g = generate_random_model(n_system=4, n_temporal_ctx=1, n_spatial_ctx=1,
                                        frac_observed=0.5, seed=0, max_lag=2)
        ci = ParCorrCI(pool_data(simulate(spec, M=5, T=60, seed=70), 2))
        oracle = GraphOracle(g, 2)
        expected = {ci: (134, [32, 22, 12, 4, 4, 9, 6, 2, 8, 3, 15, 15, 2]),
                    oracle: (329, [32] * 7 + [8, 4, 12, 9, 3, 8, 3, 3, 1, 35, 17, 2])}
        for test, (n_tests, sizes) in expected.items():
            asked, batch = [], test.batch
            test.batch = lambda queries, batch=batch: asked.append(len(queries)) or batch(queries)
            j_pcmciplus(test, tau_max=2)
            assert (test.n_tests, asked) == (n_tests, sizes)

    def test_a_sweep_level_is_one_batch(self, monkeypatch):
        # level 0 draws no subset and asks its batch before any freeze of
        # the adjacencies; each later level starts with one freeze, and the
        # last freeze of a sweep finds no link left to test.  The batched
        # discovery also asks the tests after a link's first separating one,
        # so its queries hold the sequential reference's, with the same
        # results.
        import jtscd.discovery as discovery
        sweep, adjacencies = discovery._skeleton_sweep, discovery._contemp_adjacencies
        inside, sweeps, asked = [], [], []

        def key(x, y, z):
            return tuple(x), tuple(y), tuple(map(tuple, z))

        def recording_sweep(*args):
            sweeps.append([0, []])  # levels started, the level of each batch
            inside.append(True)
            try:
                return sweep(*args)
            finally:
                inside.pop()

        def recording_adjacencies(*args):
            if inside:
                sweeps[-1][0] += 1
            return adjacencies(*args)

        def recording(batch):  # the reference asks its queries as batches of one
            def recording_batch(ci, queries):
                if inside:
                    sweeps[-1][1].append(sweeps[-1][0])
                results = batch(ci, queries)
                asked.extend(zip(itertools.starmap(key, queries), results))
                return results
            return recording_batch

        monkeypatch.setattr(discovery, "_contemp_adjacencies", recording_adjacencies)
        for test in (ParCorrCI, GraphOracle):
            monkeypatch.setattr(test, "batch", recording(test.batch))
        monkeypatch.setattr(discovery, "_skeleton_sweep", recording_sweep)
        runs = self.oracle_runs() + self.parcorr_runs()
        batched = []
        for run in runs:
            run()
            batched.append(asked[:])
            del asked[:]
        for levels, batches in sweeps:
            assert batches == list(range(levels)), (levels, batches)
        assert max(levels for levels, _ in sweeps) > 3
        self.sequential(monkeypatch)
        for k, run in enumerate(runs):
            run()
            results = dict(batched[k])
            assert not Counter(q for q, _ in asked) - Counter(q for q, _ in batched[k]), k
            assert all(results[q] == res for q, res in asked), k
            del asked[:]
