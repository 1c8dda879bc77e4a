"""Compare the ParCorr results of two source trees on the benchmark corpora.

    python tests/compare_kernels.py <src-A> <src-B> [--exact]

Each argument is a directory holding the ``jtscd`` package (the ``src``
directory of a checkout).  For each tree a child process imports that
package and ``perfbench/workloads.py`` of this checkout (read only), runs
one pass of the panel-long corpus and the 50 grid-small realizations in
corpus order, and records every query the discovery asks of the kernel:
each query of a ``citests.parcorr_batch`` call, where the tree has that
function, and each ``citests.parcorr_test`` call made outside a batch
(once, where it is itself a batch of one), with its result or the type
of the error it raised.  A batch that raises records nothing: in a tree
whose discovery still retries a failed batch one query at a time, those
calls are recorded; in one that does not, the error ends the discovery.
It also records each discovery's graph and the keys of its separating
sets.

Results are aligned by query, not by call position: per corpus entry (one
panel-long discovery, or the two discoveries of a grid-small realization),
the queries ``(x, y, z)`` of the two trees are matched as multisets, so two
trees that ask the same tests in another order compare test by test.  The
report gives

* per corpus entry, the queries that only one tree ran, each marked with
  whether the other tree asked the same test in that entry (the same
  unordered endpoints and ``z`` set, in another order), as a sweep that
  reuses a test's answer for its repeats does,
* how many aligned results differ, and the largest relative difference of
  the statistic and the p-value,
* the discoveries whose graph or separating-set keys differ,
* the decision flips (``p > alpha`` on one side only), and
* every p-value within 1e-6 of ``alpha`` on either side.

The exit status is 1 if the query multisets differ or a decision flips;
with ``--exact``, also if any aligned result differs in any bit.
Children run with BLAS pinned to one thread.  This file is a tool, not a
test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
NEAR_ALPHA = 1e-6
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _entry(query):
    return [[list(s) for s in query.x], [list(s) for s in query.y],
            [list(s) for s in query.z]]


def _outcome(res):
    return [res.statistic, res.p_value, res.n_effective, res.df, res.degenerate]


def record(out_path):
    """Child side: run the corpora and write one JSON line per discovery."""
    import workloads
    from jtscd import citests

    single, batch = citests.parcorr_test, getattr(citests, "parcorr_batch", None)
    calls, depth = [], [0]

    def recording_test(query, data, **options):  # older trees pass ``correction``
        if depth[0]:  # asked by a batch, which records its own queries
            return single(query, data, **options)
        n_calls = len(calls)
        try:
            res = single(query, data, **options)
        except Exception as exc:  # the error type is part of the record
            calls.append(_entry(query) + [type(exc).__name__])
            raise
        if len(calls) == n_calls:  # not recorded by the batch it is one of
            calls.append(_entry(query) + [_outcome(res)])
        return res

    def recording_batch(queries, data):
        depth[0] += 1
        try:
            results = batch(queries, data)
        finally:
            depth[0] -= 1
        calls.extend(_entry(q) + [_outcome(r)] for q, r in zip(queries, results))
        return results

    citests.parcorr_test = recording_test
    if batch is not None:
        citests.parcorr_batch = recording_batch
    with open(out_path, "w") as out:
        out.write(json.dumps({"alpha": workloads.ALPHA}) + "\n")
        for name in ("panel-long", "grid-small"):
            for inst in workloads.build_inputs(name, "full", with_reference=False):
                calls.clear()
                outcomes = workloads.run_op(name, inst, time.perf_counter)
                errors = [o.error for o, _ in outcomes if o.error]
                graphs = [[res.graph.to_text(), [list(k) for k, _ in res.sepsets.items()]]
                          for _, res in outcomes if res is not None]
                out.write(json.dumps({"op": f"{name}/{inst.key}", "calls": calls,
                                      "errors": errors, "graphs": graphs}) + "\n")


def run_child(src, out_path):
    src = Path(src).resolve()
    if not (src / "jtscd" / "__init__.py").exists():
        raise SystemExit(f"{src} holds no jtscd package")
    env = {**os.environ, **PINNED,
           "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    subprocess.run([sys.executable, __file__, "--record", str(out_path)],
                   env=env, check=True)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def _rel(a, b):
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _by_query(calls):
    """A discovery's results keyed by query, each key's results in order."""
    out = {}
    for call in calls:
        out.setdefault(json.dumps(call[:3]), []).append(call[3])
    return out


def _test(key):
    """The test a recorded query asks: its unordered endpoints and ``z`` set."""
    x, y, z = json.loads(key)
    return frozenset((tuple(map(tuple, x)), tuple(map(tuple, y)))), frozenset(map(tuple, z))


def compare(runs_a, runs_b, alpha):
    """Report lines, whether the two trees disagree on queries or decisions,
    and the number of aligned results that differ."""
    lines, bad = [], False
    n_calls = n_differ = n_graphs = n_discoveries = n_one_side = n_same_test = 0
    max_rel = {"statistic": 0.0, "p_value": 0.0}
    flips, near = [], []
    for ra, rb in zip(runs_a, runs_b, strict=True):
        op = ra["op"]
        n_discoveries += len(ra.get("graphs", ()))
        if ra["errors"] != rb["errors"]:
            lines.append(f"{op}: errors differ: {ra['errors']} vs {rb['errors']}")
            bad = True
        if ra.get("graphs") != rb.get("graphs"):
            n_graphs += 1
            lines.append(f"{op}: graph or separating-set keys differ")
        qa, qb = _by_query(ra["calls"]), _by_query(rb["calls"])
        count_a = Counter({k: len(v) for k, v in qa.items()})
        count_b = Counter({k: len(v) for k, v in qb.items()})
        tests = {"A": set(map(_test, qa)), "B": set(map(_test, qb))}
        for side, other, only in (("A", "B", count_a - count_b), ("B", "A", count_b - count_a)):
            for key, times in sorted(only.items()):
                same = _test(key) in tests[other]
                n_one_side += times
                n_same_test += times if same else 0
                lines.append(f"{op}: only {side} ran x, y, z = {key} ({times}x); {other} "
                             f"{'asked the same test' if same else 'did not ask this test'}")
                bad = True
        for key in sorted(qa.keys() & qb.keys()):
            x, y, z = json.loads(key)
            query = f"{op}: x={x} y={y} z={z}"
            for res_a, res_b in zip(qa[key], qb[key]):
                n_calls += 1
                n_differ += res_a != res_b
                if isinstance(res_a, str) or isinstance(res_b, str):
                    if res_a != res_b:
                        lines.append(f"{query}: {res_a} vs {res_b}")
                        bad = True
                    continue
                max_rel["statistic"] = max(max_rel["statistic"], _rel(res_a[0], res_b[0]))
                max_rel["p_value"] = max(max_rel["p_value"], _rel(res_a[1], res_b[1]))
                if res_a[2:] != res_b[2:]:
                    lines.append(f"{query}: n, df or degenerate differ: "
                                 f"{res_a[2:]} vs {res_b[2:]}")
                    bad = True
                if (res_a[1] > alpha) != (res_b[1] > alpha):
                    flips.append(f"{query}: p {res_a[1]!r} vs {res_b[1]!r}")
                if min(abs(res_a[1] - alpha), abs(res_b[1] - alpha)) <= NEAR_ALPHA:
                    near.append(f"{query}: p {res_a[1]!r} vs {res_b[1]!r}")
    lines += [f"discoveries: {n_discoveries} in {len(runs_a)} corpus entries; entries "
              f"with graph or separating-set key changes: {n_graphs}",
              f"one-side queries: {n_one_side}, {n_same_test} of them asked by the other "
              f"tree as the same test",
              f"aligned queries: {n_calls}",
              f"differing results: {n_differ}",
              f"largest relative difference: statistic {max_rel['statistic']:.3g}, "
              f"p-value {max_rel['p_value']:.3g}",
              f"decision flips at alpha={alpha}: {len(flips)}", *flips,
              f"p-values within {NEAR_ALPHA:g} of alpha: {len(near)}", *near]
    return lines, bad or bool(flips), n_differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", help="two directories holding jtscd")
    parser.add_argument("--exact", action="store_true",
                        help="exit 1 on any differing result, not only on "
                             "diverging queries or decision flips")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if len(args.src) != 2:
        parser.error("give two source directories")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"]
        for src, out in zip(args.src, outs):
            run_child(src, out)
        (head_a, *runs_a), (head_b, *runs_b) = (load(p) for p in outs)
    lines, bad, n_differ = compare(runs_a, runs_b, head_a["alpha"])
    print(f"A = {args.src[0]}\nB = {args.src[1]}")
    print("\n".join(lines))
    return 1 if bad or (args.exact and n_differ) else 0


if __name__ == "__main__":
    sys.exit(main())
