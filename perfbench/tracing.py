"""Span tracing around the public functions of each ``jtscd`` layer.

A ``Tracer`` replaces module and class attributes with timing wrappers while
it is active and restores them on exit, so untraced executions run the
original functions with no wrapper at all.  Each wrapper goes on the
attribute its caller looks up at call time: ``citests`` binds
``d_separated`` at import, so the wrapper goes on ``citests.d_separated``.

Spans stay in memory as tuples ``(id, parent, root, name, start, end,
attrs)`` and are written once, when the run ends.  ``layer_metrics`` turns
them into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time

from jtscd import citests, discovery, pooling, scm
from workloads import ALPHA


def _parcorr_attrs(args, kwargs, out, _before):
    query, data = args[0], args[1]
    ends = {v for (v, _) in query.x + query.y}
    if data.time_dummy in ends:
        kind = "time_endpoint"
    elif data.space_dummy in ends:
        kind = "space_endpoint"
    elif any(data.var_roles[v].is_dummy for (v, _) in query.z):
        kind = "dummy_z"
    else:
        kind = "scalar"
    z_cols = sum(data.n_components(v) for (v, _) in query.z)
    cols = z_cols + sum(data.n_components(v) for (v, _) in query.x + query.y)
    return {"kind": kind, "n": out.n_effective, "cols": cols, "z_cols": z_cols,
            "degenerate": out.degenerate, "p": out.p_value}


def _oracle_before(args, kwargs):
    return args[0].n_tests


def _oracle_attrs(args, kwargs, out, n_tests_before):
    # GraphOracle counts only the queries it did not answer from its cache
    return {"hit": args[0].n_tests == n_tests_before, "p": out.p_value}


def _extract_attrs(args, kwargs, out, _before):
    return {"n": len(out[1])}


# (owner, attribute, span name, before hook, attribute hook)
TRACE_POINTS = (
    (discovery, "estimate_graph", "discover", None, None),
    (scm, "generate_random_model", "generate", None, None),
    (scm, "simulate", "simulate", None, None),
    (pooling, "pool_data", "pool_data", None, None),
    (pooling.PooledData, "extract_aligned", "extract_aligned", None, _extract_attrs),
    (citests, "parcorr_test", "parcorr", None, _parcorr_attrs),
    (citests.GraphOracle, "__call__", "oracle", _oracle_before, _oracle_attrs),
    (citests, "d_separated", "d_separated", None, None),
    (discovery, "lagged_skeleton_pcmciplus", "lagged", None, None),
    (discovery, "collider_phase", "collider", None, None),
    (discovery, "rule_phase", "rules", None, None),
)


class Tracer:
    """Collects spans while active (``with tracer:``)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, before, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            root = stack[0] if stack else sid
            spans.append(None)
            stack.append(sid)
            state = before(args, kwargs) if before else None
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = attrs(args, kwargs, out, state) if attrs and out is not None else None
                spans[sid] = (sid, parent, root, name, t0, t1, info)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, name, before, attrs in TRACE_POINTS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, before, attrs))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics from finished spans; returns ``(metrics, absent)``.

    Counts are per discovery, ``*_us`` are medians per call, ``*_s`` are
    medians per discovery of the time spent in that layer (per call for
    ``scm.*`` and ``pooling.pool_data_s``).  A metric whose layer never ran
    in this workload reads 0 and is listed in ``absent`` with the reason.
    """
    spans = [s for s in spans if s is not None]
    by_name = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    dur = lambda s: s[5] - s[4]
    discovers = by_name.get("discover", [])
    n_disc = max(len(discovers), 1)

    def per_discovery(names):
        totals = {d[0]: 0.0 for d in discovers}
        for name in names:
            for s in by_name.get(name, []):
                if s[2] in totals:
                    totals[s[2]] += dur(s)
        return totals

    ci_spans = by_name.get("parcorr", []) + by_name.get("oracle", [])
    parcorr = [s for s in by_name.get("parcorr", []) if s[6]]
    oracle = [s for s in by_name.get("oracle", []) if s[6]]
    ci_time = per_discovery(("parcorr", "oracle"))
    pool_time = per_discovery(("pool_data",))
    total_discover = sum(dur(d) for d in discovers)

    m, absent = {}, {}

    def put(name, value, present, why):
        m[name] = float(value)
        if not present:
            absent[name] = why

    for layer, span_name in (("scm.generate_s", "generate"), ("scm.simulate_s", "simulate"),
                             ("pooling.pool_data_s", "pool_data")):
        calls = by_name.get(span_name, [])
        put(layer, _median([dur(s) for s in calls]), calls,
            f"no {span_name} call in this workload")

    extracts = by_name.get("extract_aligned", [])
    put("pooling.extract_aligned_calls", len(extracts) / n_disc, extracts,
        "no pooled column extraction (oracle CI test)")
    put("pooling.extract_aligned_us", _median([dur(s) * 1e6 for s in extracts]),
        extracts, "no pooled column extraction (oracle CI test)")
    no_parcorr = "no ParCorr test in this workload"
    put("pooling.rows_per_test", _median([s[6]["n"] for s in parcorr]), parcorr, no_parcorr)
    put("pooling.bytes_per_test",
        statistics.fmean([8 * s[6]["n"] * s[6]["cols"] for s in parcorr]) if parcorr else 0,
        parcorr, no_parcorr)

    for kind in ("scalar", "dummy_z", "time_endpoint", "space_endpoint"):
        calls = [s for s in parcorr if s[6]["kind"] == kind]
        why = f"no ParCorr test of kind {kind} in this workload"
        put(f"citests.{kind}_calls", len(calls) / n_disc, calls, why)
        put(f"citests.{kind}_us_p50", _median([dur(s) * 1e6 for s in calls]), calls, why)
    put("citests.busy_s", _median(list(ci_time.values())), ci_spans, "no CI test ran")
    put("citests.share", sum(ci_time.values()) / total_discover if total_discover else 0,
        ci_spans, "no CI test ran")
    put("citests.degenerate_calls", sum(s[6]["degenerate"] for s in parcorr) / n_disc,
        parcorr, no_parcorr)
    put("citests.max_z_cols", max((s[6]["z_cols"] for s in parcorr), default=0),
        parcorr, no_parcorr)
    no_oracle = "no oracle CI test in this workload"
    put("citests.oracle_calls", len(oracle) / n_disc, oracle, no_oracle)
    put("citests.oracle_hit_ratio",
        sum(s[6]["hit"] for s in oracle) / len(oracle) if oracle else 0, oracle, no_oracle)

    dseps = by_name.get("d_separated", [])
    no_dsep = "no d-separation query (ParCorr CI test)"
    put("graph.d_separated_calls", len(dseps) / n_disc, dseps, no_dsep)
    put("graph.d_separated_us", _median([dur(s) * 1e6 for s in dseps]), dseps, no_dsep)
    put("graph.d_separated_s", _median(list(per_discovery(("d_separated",)).values())),
        dseps, no_dsep)

    answered = [s for s in ci_spans if s[6]]
    put("discovery.ci_calls", len(ci_spans) / n_disc, ci_spans, "no CI test ran")
    put("discovery.removals_per_test",
        sum(s[6]["p"] > ALPHA for s in answered) / len(answered) if answered else 0,
        answered, "no CI test ran")
    lagged = by_name.get("lagged", [])
    put("discovery.lagged_s", _median(list(per_discovery(("lagged",)).values())),
        lagged, "no lagged phase ran")
    orient = by_name.get("collider", []) + by_name.get("rules", [])
    put("discovery.orient_s", _median(list(per_discovery(("collider", "rules")).values())),
        orient, "no orientation phase ran")
    put("discovery.self_s",
        _median([dur(d) - ci_time[d[0]] - pool_time[d[0]] for d in discovers]),
        discovers, "no discovery ran")
    return m, absent
