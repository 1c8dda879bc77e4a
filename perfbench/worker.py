"""One workload run in a child process; ``run.py`` starts it and reads its stdout.

The worker builds the workload's inputs (the set-up phase), then runs whole
passes over the corpus back to back, each in an order drawn from the seed --
one closed-loop caller -- until ``--seconds`` have elapsed.  Whole passes
keep every corpus entry equally often in a run, so the mix of cheap and
costly discoveries, and with it the per-discovery figures, does not depend
on where the time ran out.  Every finished discovery is printed at once as
one JSON line, so a parent that has to kill a runaway child still holds the
discoveries completed before it.

With ``--trace 1`` every operation runs twice, first plain and then traced,
so the tracing overhead is measured on identical work.
"""

import os

# BLAS threads are pinned before numpy is imported (run.py sets them too).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def emit(record):
    print(json.dumps(record), flush=True)


def provenance():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def git_sha():
    """HEAD of the repository the benchmark runs in, or None outside git."""
    try:
        # the ceiling keeps git from reporting an enclosing repository's HEAD
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256():
    """Hash of the package sources; identifies the code in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "jtscd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args()

    if not (SRC / "jtscd" / "__init__.py").is_file():
        sys.exit(f"no jtscd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jtscd
    if Path(jtscd.__file__).resolve().parent != SRC / "jtscd":
        sys.exit(f"imported jtscd from {jtscd.__file__}, not from {SRC}")

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer:
            inputs = workloads.build_inputs(args.workload, args.size)
    else:
        inputs = workloads.build_inputs(args.workload, args.size)
    emit({"type": "setup", "setup_s": time.monotonic() - args.spawned,
          "instances": len(inputs), "provenance": provenance()})
    if args.setup_only:
        return

    clock = time.perf_counter
    order = random.Random(args.seed)
    plain_op_s = traced_op_s = 0.0
    n_plain = 0
    cpu0, t0 = time.process_time(), clock()
    while clock() - t0 < args.seconds:
        plan = list(inputs)
        order.shuffle(plan)
        for inst in plan:
            start = clock()
            outcomes = workloads.run_op(args.workload, inst, clock)
            plain_op_s += clock() - start
            n_plain += len(outcomes)
            for outcome, _ in outcomes:
                emit({"type": "discovery", "traced": False, **outcome.record()})
            if tracer:
                start = clock()
                with tracer:
                    outcomes = workloads.run_op(args.workload, inst, clock)
                traced_op_s += clock() - start
                for outcome, _ in outcomes:
                    emit({"type": "discovery", "traced": True, **outcome.record()})
    wall, cpu = clock() - t0, time.process_time() - cpu0

    end = {"type": "end", "wall_s": wall, "cpu_s": cpu, "discoveries": n_plain,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        end["layers"], end["absent"] = tracing.layer_metrics(tracer.spans)
        end["layers"]["trace.overhead_ratio"] = traced_op_s / plain_op_s
        end["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    emit(end)


if __name__ == "__main__":
    main()
