"""Graph model, projection/deletion/target operators, d-separation."""

import itertools

import numpy as np
import pytest

from jtscd.graph import (DIRECTED, MARKS, REVERSED, UNDIRECTED, CONFLICT,
                         GraphFormatError, GraphStructureError,
                         GroundTruthGraph, TimeSeriesGraph, VariableRole,
                         d_connected, d_separated, dummy_deletion, dummy_projection,
                         mask_contexts_latent, target_graph)
from jtscd.scm import generate_random_model, simplified_preset

R = VariableRole


def brute_force_d_separated(g, x, y, z, unroll_depth):
    """Path-enumeration oracle: every undirected path must be blocked."""
    parents, children = g._unrolled(unroll_depth)
    nodes = list(parents)
    neighbours = {n: set() for n in nodes}
    for n in nodes:
        for p in parents[n]:
            neighbours[n].add(p)
            neighbours[p].add(n)
    zset = set(z)

    descendants = {n: {n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            for c in children[n]:
                new = descendants[c] - descendants[n]
                if new:
                    descendants[n] |= new
                    changed = True

    def blocked(path):
        for k in range(1, len(path) - 1):
            prev, node, nxt = path[k - 1], path[k], path[k + 1]
            into_prev = prev in parents[node]
            into_next = nxt in parents[node]
            collider = into_prev and into_next
            if collider:
                if not (descendants[node] & zset):
                    return True
            elif node in zset:
                return True
        return False

    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        if node == y:
            if not blocked(path):
                return False
            continue
        for nb in neighbours[node]:
            if nb not in path:
                stack.append((nb, path + [nb]))
    return True


def catchment_graph():
    """Two system variables confounded by a latent temporal context, plus an
    observed spatial context driving the second one."""
    g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_TEMPORAL_CONTEXT,
                          R.SPATIAL_CONTEXT], 2)
    g.add_edge(0, 0, 1)
    g.add_edge(1, 1, 1)
    g.add_edge(2, 0, 1)
    g.add_edge(2, 1, 1)
    g.add_edge(3, 1, 0)
    return g


class TestTimeSeriesGraph:
    def test_contemporaneous_marks_are_mirror_consistent(self):
        g = TimeSeriesGraph([R.SYSTEM] * 3, 2)
        g.set_mark(2, 1, 0, DIRECTED)
        assert g.mark(2, 1, 0) == DIRECTED
        assert g.mark(1, 2, 0) == REVERSED
        g.set_mark(1, 2, 0, UNDIRECTED)
        assert g.mark(2, 1, 0) == UNDIRECTED

    @pytest.mark.parametrize("seed", range(5))
    def test_contemporaneous_pairs_are_the_lag_0_edges(self, seed):
        # seeded writes and removals over every slot, both orders of a lag-0
        # pair and x-x marks included; removing an absent link is a no-op
        rng = np.random.default_rng(seed)
        roles = [R.SYSTEM] * 4 + [R.TEMPORAL_CONTEXT, R.SPATIAL_CONTEXT, R.SPACE_DUMMY]
        g = TimeSeriesGraph(roles, 2)
        slots = [(i, j, tau) for i in range(7) for j in range(6) for tau in range(3)
                 if (i, tau) != (j, 0) and (tau == 0 or max(i, j) < 5)]
        for _ in range(200):
            i, j, tau = slots[rng.integers(len(slots))]
            if rng.random() < 0.3:
                g.remove_link(i, j, tau)
            else:
                marks = [DIRECTED] if i == 6 else [DIRECTED, UNDIRECTED, CONFLICT]
                g.set_mark(i, j, tau, marks[rng.integers(len(marks))])
            assert (sorted(g.contemporaneous_pairs())
                    == [(a, b) for (a, b, tau, _) in g.edges() if tau == 0])
        assert g.contemporaneous_pairs() and g.n_edges() > len(g.contemporaneous_pairs())
        assert CONFLICT in [mark for (_, _, tau, mark) in g.edges() if tau == 0]

    def test_lagged_head_tail_rejected(self):
        g = TimeSeriesGraph([R.SYSTEM] * 2, 2)
        with pytest.raises(GraphStructureError):
            g.set_mark(0, 1, 1, REVERSED)

    def test_single_node_roles_reject_lagged_links(self):
        g = TimeSeriesGraph([R.SYSTEM, R.SPATIAL_CONTEXT], 2)
        with pytest.raises(GraphStructureError):
            g.set_mark(1, 0, 1, DIRECTED)
        g.set_mark(1, 0, 0, DIRECTED)
        assert g.has_link(1, 0, 0)

    def test_dummy_cannot_be_target(self):
        g = TimeSeriesGraph([R.SYSTEM, R.SPACE_DUMMY], 1)
        with pytest.raises(GraphStructureError):
            g.set_mark(0, 1, 0, DIRECTED)
        g.set_mark(1, 0, 0, DIRECTED)

    def test_ground_truth_forbids_system_to_context(self):
        g = GroundTruthGraph([R.SYSTEM, R.TEMPORAL_CONTEXT], 1)
        with pytest.raises(GraphStructureError):
            g.add_edge(0, 1, 0)

    def test_ground_truth_forbids_dummy_roles(self):
        with pytest.raises(GraphStructureError):
            GroundTruthGraph([R.SYSTEM, R.TIME_DUMMY], 1)

    def test_validate_detects_contemporaneous_cycle(self):
        g = GroundTruthGraph([R.SYSTEM] * 3, 1)
        g.add_edge(0, 1, 0)
        g.add_edge(1, 2, 0)
        g.add_edge(2, 0, 0)
        with pytest.raises(GraphStructureError):
            g.validate()

    def test_two_cycle_not_representable(self):
        # one mark per unordered contemporaneous pair: the second write wins
        g = GroundTruthGraph([R.SYSTEM] * 2, 1)
        g.add_edge(0, 1, 0)
        g.add_edge(1, 0, 0)
        assert g.n_edges() == 1
        assert g.mark(1, 0, 0) == DIRECTED

    def test_serialization_round_trip_bit_exact(self):
        _, g = generate_random_model(seed=3, max_lag=2)
        text = g.to_text()
        again = GroundTruthGraph.from_text(text)
        assert again == g
        assert again.to_text() == text

    def test_serialization_round_trip_with_all_marks(self):
        g = TimeSeriesGraph([R.SYSTEM] * 3 + [R.TIME_DUMMY, R.SPACE_DUMMY], 2)
        g.set_mark(0, 1, 0, UNDIRECTED)
        g.set_mark(1, 2, 0, CONFLICT)
        g.set_mark(0, 2, 2, DIRECTED)
        g.set_mark(3, 0, 0, DIRECTED)
        g.set_mark(4, 1, 0, DIRECTED)
        text = g.to_text()
        assert TimeSeriesGraph.from_text(text).to_text() == text

    @pytest.mark.parametrize("mark", MARKS)
    def test_every_mark_round_trips_through_text(self, mark):
        g = TimeSeriesGraph([R.SYSTEM] * 3 + [R.TEMPORAL_CONTEXT, R.SPATIAL_CONTEXT], 2)
        slots = [(0, 1, 0), (2, 1, 0), (4, 0, 0), (3, 2, 0)]
        if mark != REVERSED:  # a lagged link cannot point into the past
            slots += [(0, 2, 2), (1, 1, 1), (3, 0, 1)]
        for slot in slots:
            g.set_mark(*slot, mark)
        text = g.to_text()
        again = TimeSeriesGraph.from_text(text)
        assert [again.mark(*slot) for slot in slots] == [mark] * len(slots)
        assert again == g
        assert again.to_text() == text

    def test_from_text_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            TimeSeriesGraph.from_text("not a graph\n")
        with pytest.raises(GraphFormatError):
            TimeSeriesGraph.from_text("graph 2 1\nroles System\n")


def _two_system_and_dummy():
    return TimeSeriesGraph([R.SYSTEM, R.SYSTEM, R.SPACE_DUMMY], 1)


def _circle_marked():
    """Two system variables joined at lag 0 by an ``o-o`` mark."""
    g = TimeSeriesGraph([R.SYSTEM, R.SYSTEM], 1)
    g.set_mark(0, 1, 0, UNDIRECTED)
    return g


# (call, error type, message) for each malformed construction or query
GRAPH_ERRORS = {
    "negative tau_max": (lambda: TimeSeriesGraph([R.SYSTEM], -1),
                         GraphStructureError, "tau_max must be non-negative"),
    # once written as the header 'graph 1 True' or 'graph 1 1.0', which
    # from_text refuses
    "bool tau_max": (lambda: TimeSeriesGraph([R.SYSTEM], True),
                     GraphStructureError, "tau_max=True must be an integer"),
    "float tau_max": (lambda: GroundTruthGraph([R.SYSTEM], 1.0),
                      GraphStructureError, r"tau_max=1\.0 must be an integer"),
    "variable out of range": (lambda: _two_system_and_dummy().set_mark(0, 3, 0, DIRECTED),
                              GraphStructureError, r"variable out of range: \(0, 3\)"),
    "lag outside the window": (lambda: _two_system_and_dummy().set_mark(0, 1, 2, DIRECTED),
                               GraphStructureError, r"lag 2 outside \[0, 1\]"),
    "lag-0 self-link": (lambda: _two_system_and_dummy().set_mark(1, 1, 0, UNDIRECTED),
                        GraphStructureError, "contemporaneous self-links are not allowed"),
    "invalid mark": (lambda: _two_system_and_dummy().set_mark(0, 1, 0, "<->"),
                     GraphStructureError, "invalid mark '<->'"),
    "undirected dummy link": (lambda: _two_system_and_dummy().set_mark(2, 0, 0, UNDIRECTED),
                              GraphStructureError, "dummy links are always directed"),
    "bad header": (lambda: TimeSeriesGraph.from_text("graph two 1\nroles System\n"),
                   GraphFormatError, "bad header line: 'graph two 1'"),
    "missing roles line": (lambda: TimeSeriesGraph.from_text("graph 1 0\nrole System\n"),
                           GraphFormatError, "missing roles line"),
    "unknown role": (lambda: TimeSeriesGraph.from_text("graph 1 0\nroles Sytem\n"),
                     GraphFormatError, "'Sytem' is not a valid VariableRole"),
    "bad edge line": (lambda: TimeSeriesGraph.from_text(
                          "graph 2 0\nroles System System\n0 1 -->\n"),
                      GraphFormatError, "bad edge line: '0 1 -->'"),
    "d-separation variable out of range": (
        lambda: d_separated(catchment_graph(), (0, 0), (4, 0), set()),
        GraphStructureError, "variable 4 out of range"),
    "d-separation lag beyond the unrolled window": (
        lambda: d_separated(catchment_graph(), (0, 9), (1, 0), set(), unroll_depth=8),
        GraphStructureError, "lag 9 of variable 0 outside window"),
    "d-separation lagged spatial context": (
        lambda: d_separated(catchment_graph(), (0, 0), (1, 0), {(3, 1)}),
        GraphStructureError, "lag 1 of variable 3 outside window"),
    "d-separation on an o-o mark": (
        lambda: d_separated(_circle_marked(), (0, 0), (1, 1), set()),
        GraphStructureError, "d-separation requires a fully directed graph; found mark 'o-o'"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_ERRORS))
def test_malformed_graph_input_is_refused(case):
    call, error, message = GRAPH_ERRORS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestDummyProjection:
    def test_latent_space_confounder_projects_to_space_dummy(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        g.add_edge(0, 1, 0)
        p = dummy_projection(g)
        assert [r for r in p.roles] == [R.SYSTEM, R.SYSTEM, R.TIME_DUMMY,
                                        R.SPACE_DUMMY]
        sd = 3
        assert p.mark(sd, 0, 0) == DIRECTED
        assert p.mark(sd, 1, 0) == DIRECTED
        assert p.mark(0, 1, 0) == DIRECTED
        assert p.n_edges() == 3

    def test_no_latents_yields_edgeless_dummies(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.TEMPORAL_CONTEXT], 1)
        g.add_edge(0, 1, 0)
        g.add_edge(2, 0, 1)
        p = dummy_projection(g)
        td, sd = 3, 4
        for j in range(2):
            assert not p.has_link(td, j, 0)
            assert not p.has_link(sd, j, 0)
        assert p.mark(2, 0, 1) == DIRECTED

    def test_kinds_route_to_their_own_dummy(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_TEMPORAL_CONTEXT,
                              R.LATENT_SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 1)
        g.add_edge(3, 1, 0)
        p = dummy_projection(g)
        td, sd = 2, 3
        assert p.has_link(td, 0, 0) and not p.has_link(td, 1, 0)
        assert p.has_link(sd, 1, 0) and not p.has_link(sd, 0, 0)

    def test_latent_to_context_edges_are_dropped(self):
        g = GroundTruthGraph([R.SYSTEM, R.TEMPORAL_CONTEXT,
                              R.LATENT_TEMPORAL_CONTEXT], 1)
        g.add_edge(2, 1, 0)   # latent -> observed context: not projected
        g.add_edge(1, 0, 0)
        p = dummy_projection(g)
        assert p.n_edges() == 1
        assert p.mark(1, 0, 0) == DIRECTED


class TestDummyDeletion:
    def test_round_trip_projection_then_deletion(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT,
                              R.SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        g.add_edge(0, 1, 0)
        g.add_edge(3, 0, 0)
        d = dummy_deletion(dummy_projection(g))
        assert d == target_graph(g)

    def test_identity_without_dummies(self):
        _, g = generate_random_model(seed=1)
        assert dummy_deletion(g) == g

    def test_isolated_dummies_removed(self):
        g = TimeSeriesGraph([R.SYSTEM, R.SYSTEM, R.TIME_DUMMY, R.SPACE_DUMMY], 1)
        g.set_mark(0, 1, 0, UNDIRECTED)
        d = dummy_deletion(g)
        assert d.n_vars == 2
        assert d.mark(0, 1, 0) == UNDIRECTED

    def test_conflict_marks_preserved(self):
        g = TimeSeriesGraph([R.SYSTEM, R.SYSTEM, R.SPACE_DUMMY], 1)
        g.set_mark(0, 1, 0, CONFLICT)
        g.set_mark(2, 0, 0, DIRECTED)
        assert dummy_deletion(g).mark(0, 1, 0) == CONFLICT


class TestTargetGraph:
    def test_context_context_edges_excluded(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.TEMPORAL_CONTEXT,
                              R.TEMPORAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(0, 1, 0)
        g.add_edge(2, 3, 0)  # context-context, not part of the target
        t = target_graph(g)
        assert t.n_vars == 4
        assert t.has_link(2, 0, 0) and t.has_link(0, 1, 0)
        assert not t.has_link(2, 3, 0)

    def test_system_only_graph_unchanged(self):
        spec, g = generate_random_model(n_temporal_ctx=0, n_spatial_ctx=0,
                                        ctx_link_prob=0.0, seed=5)
        t = target_graph(g)
        assert t.edges() == g.edges()

    def test_latent_only_edges_vanish(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        t = target_graph(g)
        assert t.n_vars == 2 and t.n_edges() == 0


class TestProjectionDeletionProperty:
    def test_matches_target_on_random_models(self):
        models = [dict(n_system=3, n_temporal_ctx=1, n_spatial_ctx=1,
                       frac_observed=[0.0, 0.5, 1.0][seed % 3], seed=seed, max_lag=2)
                  for seed in range(40)]
        # sizes, context counts and lags varied, lag-free models included
        models += [dict(n_system=2 + seed % 5, n_temporal_ctx=seed % 4,
                        n_spatial_ctx=seed % 3, frac_observed=[0.0, 0.5, 1.0][seed % 3],
                        seed=seed, max_lag=1 + seed % 3, lag_free=seed % 8 == 0)
                   for seed in range(60)]
        dummy_edges = 0
        for kwargs in models:
            _, g = generate_random_model(**kwargs)
            projected = dummy_projection(g)
            assert dummy_deletion(projected) == target_graph(g), kwargs
            dummy_edges += sum(projected.roles[i].is_dummy or projected.roles[j].is_dummy
                               for (i, j, _, _) in projected.edges())
        assert dummy_edges > 0

    def test_projection_dummy_edges_idempotent(self):
        for seed in range(10):
            _, g = generate_random_model(n_system=3, frac_observed=0.5,
                                         seed=seed)
            p1 = dummy_projection(g)
            p2 = dummy_projection(g)
            assert p1 == p2


class TestMaskContextsLatent:
    def test_masking_everything_empties_the_target_context_block(self):
        _, g = generate_random_model(seed=2, frac_observed=1.0)
        masked = mask_contexts_latent(g)
        assert all(not r.is_observed_context for r in masked.roles)
        t = target_graph(masked)
        assert all(r.is_system for r in t.roles)

    def test_masked_graph_keeps_edges(self):
        _, g = generate_random_model(seed=2, frac_observed=1.0)
        masked = mask_contexts_latent(g)
        assert masked.directed_edges() == g.directed_edges()


class TestDSeparation:
    def test_chain(self):
        g = GroundTruthGraph([R.SYSTEM] * 3, 1)
        g.add_edge(0, 1, 0)
        g.add_edge(1, 2, 0)
        assert d_separated(g, (0, 0), (2, 0), {(1, 0)})
        assert not d_separated(g, (0, 0), (2, 0), set())

    def test_collider(self):
        g = GroundTruthGraph([R.SYSTEM] * 3, 1)
        g.add_edge(0, 1, 0)
        g.add_edge(2, 1, 0)
        assert d_separated(g, (0, 0), (2, 0), set())
        assert not d_separated(g, (0, 0), (2, 0), {(1, 0)})

    def test_collider_opened_by_descendant(self):
        g = GroundTruthGraph([R.SYSTEM] * 4, 1)
        g.add_edge(0, 1, 0)
        g.add_edge(2, 1, 0)
        g.add_edge(1, 3, 0)
        assert not d_separated(g, (0, 0), (2, 0), {(3, 0)})

    def test_catchment_confounding(self):
        g = catchment_graph()
        # latent temporal context confounds the contemporaneous pair
        assert not d_separated(g, (0, 0), (1, 0), set())
        blocking = {(2, 1), (0, 1), (1, 1)}
        assert d_separated(g, (0, 0), (1, 0), blocking)
        # frozen from the brute-force enumerator
        assert not brute_force_d_separated(g, (0, 0), (1, 0), set(), 8)
        assert brute_force_d_separated(g, (0, 0), (1, 0), blocking, 8)

    def test_spatial_context_links_all_time_copies(self):
        g = GroundTruthGraph([R.SYSTEM, R.SYSTEM, R.SPATIAL_CONTEXT], 2)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        # confounds X0_t with X1_{t-2} through the single context node
        assert not d_separated(g, (0, 0), (1, 2), set())
        assert d_separated(g, (0, 0), (1, 2), {(2, 0)})

    def test_precondition_errors(self):
        g = catchment_graph()
        with pytest.raises(GraphStructureError):
            d_separated(g, (0, 0), (0, 0), set())
        with pytest.raises(GraphStructureError):
            d_separated(g, (0, 0), (1, 0), {(0, 0)})
        with pytest.raises(GraphStructureError):
            d_separated(g, (0, 0), (1, 0), set(), unroll_depth=1)

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            _, g = generate_random_model(n_system=3, n_temporal_ctx=1,
                                         n_spatial_ctx=1, seed=seed, max_lag=2)
            nodes = [(v, lag) for v in range(g.n_vars)
                     for lag in (range(3) if g.roles[v].is_time_indexed else (0,))]
            for _ in range(10):
                x, y = [nodes[i] for i in rng.choice(len(nodes), 2, replace=False)]
                rest = [n for n in nodes if n not in (x, y)]
                k = int(rng.integers(0, 3))
                z = {rest[i] for i in rng.choice(len(rest), k, replace=False)}
                assert d_separated(g, x, y, z) == d_separated(g, y, x, z)

    def test_agreement_with_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(1)
        checked = 0
        for seed in range(30):
            roles = [R.SYSTEM, R.SYSTEM,
                     [R.TEMPORAL_CONTEXT, R.LATENT_TEMPORAL_CONTEXT,
                      R.SPATIAL_CONTEXT][seed % 3]]
            g = GroundTruthGraph(roles, 1)
            for i in range(3):
                for j in range(2):
                    for tau in (0, 1):
                        if i == j and tau == 0:
                            continue
                        if tau == 1 and not (roles[i].is_time_indexed
                                             and roles[j].is_time_indexed):
                            continue
                        if rng.random() < 0.4:
                            if tau == 0 and i < j or tau == 1:
                                g.add_edge(i, j, tau)
            depth = 2
            nodes = [(v, lag) for v in range(3)
                     for lag in (range(depth + 1)
                                 if roles[v].is_time_indexed else (0,))]
            for _ in range(15):
                x, y = [nodes[i] for i in rng.choice(len(nodes), 2, replace=False)]
                rest = [nd for nd in nodes if nd not in (x, y)]
                k = int(rng.integers(0, 3))
                z = {rest[i] for i in rng.choice(len(rest), k, replace=False)}
                fast = d_separated(g, x, y, z, unroll_depth=depth)
                slow = brute_force_d_separated(g, x, y, z, depth)
                assert fast == slow, (g.edges(), x, y, z)
                connected = {n for n in nodes if n != x and n not in z
                             and not brute_force_d_separated(g, x, n, z, depth)}
                assert set(d_connected(g, x, z, depth)) == connected, (g.edges(), x, z)
                checked += 1
        assert checked > 300

    def test_preset_time_dummy_parent_paths(self):
        _, g = simplified_preset()
        # both latent contexts are parents of X0: no conditioning set over
        # observed variables alone separates X0 from the latent pair
        assert not d_separated(g, (3, 1), (0, 0), set())
        assert not d_separated(g, (5, 0), (0, 0), {(1, 0), (4, 0)})
