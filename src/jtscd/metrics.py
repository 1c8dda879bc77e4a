"""Scoring of estimated graphs against target graphs.

Adjacency rates are computed over link slots, split by link class: one slot
per ordered ``(i, j, tau)`` for lagged links (self-links included), one per
unordered pair for contemporaneous system-system links, and one per ordered
context-to-system or dummy-to-system pair (direction is structurally known).
Edgemark recall counts exact mark matches among target links; edgemark
precision counts them among the oriented marks the estimate commits to
(``o-o`` predictions are not commitments, conflicts are wrong orientations).
Undefined rates (empty denominators) are reported as NaN and skipped when
aggregating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import CONFLICT, UNDIRECTED, VariableRole, dummy_deletion


class ScoringError(ValueError):
    """The two graphs do not share one variable set, or the target holds
    latent nodes."""


class LinkClass(Enum):
    SYSTEM_SYSTEM = "SystemSystem"
    CONTEXT_SYSTEM = "ContextSystem"
    DUMMY_SYSTEM = "DummySystem"


_METRICS = ("tpr", "fpr", "precision", "recall")


@dataclass
class ClassScores:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    n_correct_marks: int = 0
    n_target_links: int = 0
    n_oriented_correct: int = 0
    n_oriented: int = 0

    @property
    def tpr(self):
        pos = self.tp + self.fn
        return self.tp / pos if pos else math.nan

    @property
    def fpr(self):
        neg = self.fp + self.tn
        return self.fp / neg if neg else math.nan

    @property
    def recall(self):
        return (self.n_correct_marks / self.n_target_links
                if self.n_target_links else math.nan)

    @property
    def precision(self):
        return (self.n_oriented_correct / self.n_oriented
                if self.n_oriented else math.nan)

    def metric(self, name):
        return getattr(self, name)


@dataclass
class ScoreReport:
    classes: dict

    def metric(self, link_class, name):
        if link_class not in self.classes:
            return math.nan
        return self.classes[link_class].metric(name)


def _slot_class(roles, i):
    ri = roles[i]
    if ri.is_system:
        return LinkClass.SYSTEM_SYSTEM
    if ri.is_dummy:
        return LinkClass.DUMMY_SYSTEM
    return LinkClass.CONTEXT_SYSTEM


def _slots(roles, tau_max):
    """All scoreable ``(i, j, tau)`` slots with their link class."""
    n = len(roles)
    for j in range(n):
        if not roles[j].is_system:
            continue
        for i in range(n):
            cls = _slot_class(roles, i)
            if roles[i].is_time_indexed:
                lags = range(0, tau_max + 1) if i != j else range(1, tau_max + 1)
            else:
                lags = (0,)
            for tau in lags:
                if tau == 0 and cls is LinkClass.SYSTEM_SYSTEM and i > j:
                    continue  # contemporaneous system pairs count once
                yield (i, j, tau, cls)


def score(estimated, target):
    """Score an estimated graph against a target graph, split by link class.

    Dummy nodes in the estimate are deleted first when the target carries
    none (their links are scored only if the target has dummy nodes too,
    e.g. against a dummy projection).  A target that holds latent nodes is
    refused: score against its ``target_graph`` over the observed nodes.
    """
    if any(r.is_latent for r in target.roles):
        raise ScoringError("the target graph holds latent nodes: score against "
                           "its target_graph over the observed variables")
    est = estimated
    target_has_dummies = any(r.is_dummy for r in target.roles)
    if not target_has_dummies and any(r.is_dummy for r in est.roles):
        est = dummy_deletion(est)
    if est.roles != target.roles:
        raise ScoringError("estimated and target graphs must share the "
                           "same variable set")
    tau_max = max(est.tau_max, target.tau_max)
    classes = {}
    for (i, j, tau, cls) in _slots(target.roles, tau_max):
        sc = classes.setdefault(cls, ClassScores())
        est_mark = est.mark(i, j, tau)
        tgt_mark = target.mark(i, j, tau)
        est_adj = est_mark != ""
        tgt_adj = tgt_mark != ""
        if est_adj and tgt_adj:
            sc.tp += 1
        elif est_adj:
            sc.fp += 1
        elif tgt_adj:
            sc.fn += 1
        else:
            sc.tn += 1
        if tgt_adj:
            sc.n_target_links += 1
            if est_mark == tgt_mark:
                sc.n_correct_marks += 1
        if est_adj and est_mark not in (UNDIRECTED,):
            sc.n_oriented += 1
            if est_mark == tgt_mark and est_mark != CONFLICT:
                sc.n_oriented_correct += 1
    return ScoreReport(classes=classes)


@dataclass
class AggregateReport:
    """Mean and sample standard deviation of each metric over realizations."""
    stats: dict  # (LinkClass, metric) -> (mean, std, n)

    def mean(self, link_class, metric):
        return self.stats.get((link_class, metric), (math.nan, math.nan, 0))[0]

    def std(self, link_class, metric):
        return self.stats.get((link_class, metric), (math.nan, math.nan, 0))[1]

    def n(self, link_class, metric):
        return self.stats.get((link_class, metric), (math.nan, math.nan, 0))[2]


def aggregate(reports):
    """Elementwise mean and sample std over reports; NaN entries are skipped."""
    if not reports:
        raise ValueError("aggregate needs at least one report")
    stats = {}
    for cls in LinkClass:
        for metric in _METRICS:
            vals = [r.metric(cls, metric) for r in reports]
            vals = [v for v in vals if not math.isnan(v)]
            if not vals:
                continue
            mean = float(np.mean(vals))
            std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            stats[(cls, metric)] = (mean, std, len(vals))
    return AggregateReport(stats=stats)
