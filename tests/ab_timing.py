"""Interleaved A/B timing of two source trees on the benchmark corpora.

    python tests/ab_timing.py <src-A> <src-B> [--size full|tiny] [--seconds S]

Each argument is a directory holding the ``jtscd`` package (the ``src``
directory of a checkout).  Four child processes run with BLAS pinned to
one thread and one fixed string-hash seed, two per tree: A1 and A2 import
tree A, B1 and B2 tree B.  Each process has its own speed offset of about
0.5-2%, so each side of the A/B figure averages two of them.  Each child
imports ``perfbench/workloads.py`` of this checkout (read only), builds
the panel-long and grid-small corpora once, and times its own
``discovery.estimate_graph`` calls, wall and ``time.process_time``.

The parent drives the children in lockstep, one call at a time, so that
they never share the CPU.  Per workload, a warm-up pass runs every corpus
entry once in each child, untimed; then three segments run, A1 against B1,
A2 against B2 and A1 against A2, the A/A control, each of whole passes
over the corpus until ``--seconds`` are spent, at least one.  Per corpus
entry a segment runs a quad of four calls, ABBA, and the next entry's quad
BAAB, so that both sides hold every call position, and every gap since
their own last call, equally often: the first call on an entry is the
slowest, and a child that ran more recently runs faster.  A quad's ratio
is B's two calls over A's.  Only the two children of a segment run in it,
so the other children do not change how often either runs.

The report gives, per workload, the median quad ratio of A/B, over the
quads of both A/B segments, and of the A/A control, each with a 95%
bootstrap interval, wall and CPU.  An A/A interval that does not hold 1.0
says the run was too noisy to tell the A/B figure from zero.  Every
discovery is checked against ``perfbench/reference.json`` as perfbench
checks it; the exit status is 1 if one fails its check in either tree, 0
otherwise.  A child that does not answer within ``ANSWER_TIMEOUT_S`` --
its start-up, corpora built, or one corpus entry -- is killed, and the
tool names it and the entry and exits 1.  The last stdout line is the
result as JSON.  This file is a tool, not a test: pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
WORKLOADS = ("panel-long", "grid-small")
ORDERS = ("ABBA", "BAAB")
BOOTSTRAP = 2000
ANSWER_TIMEOUT_S = 60.0  # a child's start-up, or one corpus entry


def child(size):
    """Child side: build the corpora, then run one entry per stdin line
    ``<workload> <index>`` and answer it with one JSON line."""
    import workloads

    import jtscd
    from jtscd import discovery

    timed, estimate = [], discovery.estimate_graph

    def timed_estimate(*args, **kwargs):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return estimate(*args, **kwargs)
        finally:
            timed.append((time.perf_counter() - wall, time.process_time() - cpu))

    discovery.estimate_graph = timed_estimate
    corpora = {w: workloads.build_inputs(w, size) for w in WORKLOADS}
    print(json.dumps({"package": jtscd.__file__,
                      "entries": {w: len(c) for w, c in corpora.items()}}), flush=True)
    for line in sys.stdin:
        workload, index = line.split()
        del timed[:]
        outcomes = workloads.run_op(workload, corpora[workload][int(index)],
                                    time.perf_counter)
        failed = [f"{o.key}: {o.error or f'{len(o.flips)} links differ from the reference'}"
                  for o, _ in outcomes if not o.ok]
        print(json.dumps({"wall": sum(w for w, _ in timed), "cpu": sum(c for _, c in timed),
                          "failed": failed}), flush=True)


class Child:
    """One child process, named ``name`` in the report, importing ``jtscd``
    from ``src``."""

    def __init__(self, src, size, name):
        self.name, src = name, Path(src).resolve()
        if not (src / "jtscd" / "__init__.py").exists():
            raise SystemExit(f"{src} holds no jtscd package")
        env = {**os.environ, **PINNED,
               "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
        self.src = src
        self.proc = subprocess.Popen([sys.executable, __file__, "--child", size],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)
        ready = self._read("its start-up")
        if not Path(ready["package"]).resolve().is_relative_to(src):
            raise SystemExit(f"a child imported {ready['package']}, not the tree {src}")
        self.entries = ready["entries"]

    def _read(self, what):
        """The child's answer to ``what``; a child silent for
        ``ANSWER_TIMEOUT_S`` is killed."""
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            self.proc.kill()

        timer = threading.Timer(ANSWER_TIMEOUT_S, kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if timed_out.is_set():
            self.proc.wait()
            raise SystemExit(f"child {self.name} ({self.src}) did not answer {what} "
                             f"within {ANSWER_TIMEOUT_S:.0f} s and was killed")
        if not line:
            raise SystemExit(f"child {self.name} ({self.src}) exited with code "
                             f"{self.proc.wait()} on {what}")
        return json.loads(line)

    def run(self, workload, index):
        self.proc.stdin.write(f"{workload} {index}\n")
        self.proc.stdin.flush()
        return self._read(f"{workload} entry {index}")

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def median_interval(ratios, rng):
    """The median of ``ratios`` and a 95% bootstrap interval of it."""
    ratios = np.asarray(ratios)
    medians = np.median(rng.choice(ratios, (BOOTSTRAP, len(ratios))), axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def measure(first, second, workload, seconds, failed):
    """One segment: ``first`` against ``second`` in ABBA / BAAB quads over
    the corpus for ``seconds``, at least one whole pass.  Returns the quad
    ratios, second over first, ``{"wall" | "cpu": [...]}``, and each side's
    call times; a failed check is added to ``failed``."""
    sides = {"A": first, "B": second}
    ratios, calls = {"wall": [], "cpu": []}, {"A": [], "B": []}
    deadline, quads = time.monotonic() + seconds, 0
    while quads == 0 or time.monotonic() < deadline:
        for index in range(first.entries[workload]):
            res = {"A": [], "B": []}
            for label in ORDERS[quads % 2]:
                res[label].append(sides[label].run(workload, index))
                failed.extend(f"{workload}/{sides[label].name}: {f}"
                              for f in res[label][-1]["failed"])
            quads += 1
            for clock, values in ratios.items():
                total = {label: sum(r[clock] for r in rs) for label, rs in res.items()}
                values.append(total["B"] / total["A"])
            for label, rs in res.items():
                calls[label] += [r["wall"] for r in rs]
    return ratios, calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", help="two directories holding jtscd")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="timed seconds per workload, after the warm-up pass")
    parser.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if len(args.src) != 2:
        parser.error("give two source directories")
    rng = np.random.default_rng(args.seed)
    children = {name + k: Child(src, args.size, name + k) for k in "12"
                for src, name in ((args.src[0], "A"), (args.src[1], "B"))}
    print(f"A = {args.src[0]}\nB = {args.src[1]}")
    failed, result = [], {}
    try:
        for workload in WORKLOADS:
            for index in range(children["A1"].entries[workload]):  # warm-up, checks included
                for side in children.values():
                    failed.extend(f"{workload}/{side.name}: {f}"
                                  for f in side.run(workload, index)["failed"])
            ab, calls = {"wall": [], "cpu": []}, {"A": [], "B": []}
            for k in "12":
                ratios, segment_calls = measure(children["A" + k], children["B" + k],
                                                workload, args.seconds, failed)
                for part, whole in ((ratios, ab), (segment_calls, calls)):
                    for key, values in part.items():
                        whole[key] += values
            aa, _ = measure(children["A1"], children["A2"], workload, args.seconds, failed)
            out = {"quads": len(ab["wall"]) + len(aa["wall"]),
                   "A_ms_p50": float(np.median(calls["A"])) * 1e3,
                   "B_ms_p50": float(np.median(calls["B"])) * 1e3}
            for pair, ratios in (("A/B", ab), ("A/A", aa)):
                for clock, values in ratios.items():
                    out[f"{pair} {clock}"] = median_interval(values, rng)
            result[workload] = out
            print(f"{workload}: {out['quads']} quads; median entry A {out['A_ms_p50']:.3f} ms, "
                  f"B {out['B_ms_p50']:.3f} ms")
            for key in ("A/B wall", "A/A wall", "A/B cpu", "A/A cpu"):
                ratio, low, high = out[key]
                print(f"  {key:8s} median ratio {ratio:.4f}  95% interval "
                      f"[{low:.4f}, {high:.4f}]")
    finally:
        for side in children.values():
            side.close()
    for line in failed:
        print(f"FAILED {line}")
    print(json.dumps({"failed": len(failed), "workloads": result}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
