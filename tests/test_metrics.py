"""Scoring and aggregation."""

import math

import numpy as np
import pytest

from jtscd.graph import (CONFLICT, DIRECTED, UNDIRECTED, GroundTruthGraph,
                         TimeSeriesGraph, VariableRole, dummy_projection,
                         target_graph)
from jtscd.metrics import (LinkClass, ScoringError, aggregate, score)
from jtscd.scm import generate_random_model

R = VariableRole


def hand_graphs():
    """Three system variables and one context, tau_max = 2.

    Target: X0 --> X1 (contemporaneous), C --> X0.  Estimate: X0 o-o X1,
    C --> X0, plus a spurious oriented X0 --> X2.
    """
    roles = [R.SYSTEM, R.SYSTEM, R.SYSTEM, R.TEMPORAL_CONTEXT]
    target = TimeSeriesGraph(roles, 2)
    target.set_mark(0, 1, 0, DIRECTED)
    target.set_mark(3, 0, 0, DIRECTED)
    est = TimeSeriesGraph(roles, 2)
    est.set_mark(0, 1, 0, UNDIRECTED)
    est.set_mark(3, 0, 0, DIRECTED)
    est.set_mark(0, 2, 0, DIRECTED)
    return est, target


class TestScore:
    def test_identity_is_perfect(self):
        for seed in range(5):
            _, g = generate_random_model(seed=seed, max_lag=2)
            t = target_graph(g)
            rep = score(t, t)
            for cls in rep.classes.values():
                assert cls.fp == 0 and cls.fn == 0
                assert cls.tpr in (1.0,) or math.isnan(cls.tpr)
                assert cls.fpr == 0.0
                assert cls.recall in (1.0,) or math.isnan(cls.recall)

    def test_empty_estimate(self):
        _, g = generate_random_model(seed=1, max_lag=2)
        t = target_graph(g)
        empty = TimeSeriesGraph(t.roles, t.tau_max)
        rep = score(empty, t)
        sc = rep.classes[LinkClass.SYSTEM_SYSTEM]
        assert sc.tpr == 0.0 and sc.fpr == 0.0

    def test_hand_counted_example(self):
        est, target = hand_graphs()
        rep = score(est, target)
        sys = rep.classes[LinkClass.SYSTEM_SYSTEM]
        # system slots: 3*3*2 lagged + 3 contemporaneous = 21; one positive
        assert sys.tp == 1 and sys.fn == 0
        assert sys.tpr == 1.0
        assert sys.fp == 1 and sys.tn == 19
        assert sys.fpr == 1 / 20
        # the one true system link is estimated o-o: recall 0; the spurious
        # oriented link is the only orientation commitment: precision 0
        assert sys.recall == 0.0
        assert sys.precision == 0.0
        ctx = rep.classes[LinkClass.CONTEXT_SYSTEM]
        assert ctx.tpr == 1.0 and ctx.fpr == 0.0
        assert ctx.recall == 1.0 and ctx.precision == 1.0

    def test_conflict_counts_as_adjacency_but_wrong_orientation(self):
        est, target = hand_graphs()
        est.set_mark(0, 1, 0, CONFLICT)
        rep = score(est, target)
        sys = rep.classes[LinkClass.SYSTEM_SYSTEM]
        assert sys.tp == 1
        assert sys.recall == 0.0
        assert sys.n_oriented == 2 and sys.n_oriented_correct == 0

    def test_dummy_links_scored_against_projection(self):
        g = GroundTruthGraph(
            [R.SYSTEM, R.SYSTEM, R.LATENT_SPATIAL_CONTEXT], 1)
        g.add_edge(2, 0, 0)
        g.add_edge(2, 1, 0)
        proj = dummy_projection(g)
        rep = score(proj, proj)
        dummy = rep.classes[LinkClass.DUMMY_SYSTEM]
        assert dummy.tp == 2 and dummy.fp == 0
        assert dummy.tpr == 1.0

    def test_variable_mismatch_raises(self):
        est, target = hand_graphs()
        bad = TimeSeriesGraph([R.SYSTEM, R.SYSTEM], 2)
        with pytest.raises(ScoringError):
            score(bad, target)

    def test_target_with_latent_nodes_raises(self):
        # a ground-truth graph carries its latent contexts; the scorer takes
        # only the observed target, so neither side's links are dropped silently
        _, g = generate_random_model(seed=0, max_lag=2, frac_observed=0.0)
        assert any(r.is_latent for r in g.roles)
        for est in (g, TimeSeriesGraph(g.roles, g.tau_max)):
            with pytest.raises(ScoringError, match="latent nodes"):
                score(est, g)
        score(target_graph(g), target_graph(g))

    def test_permutation_invariance(self):
        est, target = hand_graphs()
        rep = score(est, target)
        perm = [2, 0, 1, 3]  # relabel the system block
        roles = [R.SYSTEM, R.SYSTEM, R.SYSTEM, R.TEMPORAL_CONTEXT]
        est_p = TimeSeriesGraph(roles, 2)
        target_p = TimeSeriesGraph(roles, 2)
        for src, dst in ((est, est_p), (target, target_p)):
            for (i, j, tau, mark) in src.edges():
                dst.set_mark(perm[i], perm[j], tau, mark)
        rep_p = score(est_p, target_p)
        for cls in LinkClass:
            for metric in ("tpr", "fpr", "precision", "recall"):
                a, b = rep.metric(cls, metric), rep_p.metric(cls, metric)
                assert (math.isnan(a) and math.isnan(b)) or a == b


class TestAggregate:
    def test_single_report_has_zero_std(self):
        est, target = hand_graphs()
        rep = score(est, target)
        agg = aggregate([rep])
        assert agg.std(LinkClass.SYSTEM_SYSTEM, "tpr") == 0.0
        assert agg.mean(LinkClass.SYSTEM_SYSTEM, "tpr") == 1.0

    def test_identical_reports_zero_std(self):
        est, target = hand_graphs()
        reps = [score(est, target) for _ in range(3)]
        agg = aggregate(reps)
        assert agg.std(LinkClass.SYSTEM_SYSTEM, "fpr") < 1e-12

    def test_binary_pair_sample_std(self):
        est, target = hand_graphs()
        perfect = score(target, target)
        empty = score(TimeSeriesGraph(target.roles, 2), target)
        agg = aggregate([perfect, empty])
        assert agg.mean(LinkClass.SYSTEM_SYSTEM, "tpr") == 0.5
        assert abs(agg.std(LinkClass.SYSTEM_SYSTEM, "tpr")
                   - math.sqrt(0.5)) < 1e-12

    def test_nan_metrics_skipped(self):
        roles = [R.SYSTEM, R.SYSTEM]
        empty_t = TimeSeriesGraph(roles, 1)
        rep = score(TimeSeriesGraph(roles, 1), empty_t)  # no positives
        agg = aggregate([rep])
        assert agg.n(LinkClass.SYSTEM_SYSTEM, "tpr") == 0
        assert agg.n(LinkClass.SYSTEM_SYSTEM, "fpr") == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
