"""jtscd benchmark: one workload, measured in child processes, one JSON result line.

    python3 perfbench/run.py --workload panel-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): panel-long, grid-small, oracle-wide.

The parent imports neither numpy nor jtscd.  It starts ``SETUP_SAMPLES - 1``
set-up-only children and then the measuring child, each with BLAS pinned to
one thread, an address-space limit and a wall timeout; a child that hits a
limit costs a failed operation instead of the machine's memory.  The last
line of stdout is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  Everything above it is the report.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("panel-long", "grid-small", "oracle-wide")
SETUP_SAMPLES = 7
MEMORY_LIMIT = 2 << 30          # bytes of address space per child
RUN_DEADLINE_S = 170.0          # the whole run, all children included
SETUP_TIMEOUT_S = 45.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

class ChildFailed(RuntimeError):
    """A child produced no usable set-up record: nothing can be measured."""


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def spawn(args, timeout, setup_only=False, spans=None):
    """Run one worker; returns ``(records, error)``, error None on a clean exit."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **PINNED}
    error = None
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=_limit_memory)
        stdout, stderr = proc.stdout, proc.stderr
        if proc.returncode != 0:
            error = f"worker exited with code {proc.returncode}"
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        stdout, stderr = exc.stdout or "", exc.stderr or ""
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
        stderr = stderr.decode() if isinstance(stderr, bytes) else stderr
        error = f"worker killed after the {timeout:.0f} s timeout"
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    if error and stderr.strip():
        print(stderr.strip()[-2000:], file=sys.stderr)
    if not any(r.get("type") == "setup" for r in records):
        raise ChildFailed(error or "worker printed no set-up record")
    return records, error


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small corpus")
    args = ap.parse_args()

    # metric names and units have one source: BENCHMARK.json
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {k: {m["name"]: m["unit"] for m in bench[k]} for k in ("end_to_end", "per_layer")}
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"spans-{args.workload}.jsonl.gz" if args.trace else None
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            records, error = spawn(args, SETUP_TIMEOUT_S, setup_only=True)
            if error:
                raise ChildFailed(error)
            setups.append(records[0]["setup_s"])
        records, error = spawn(args, deadline - time.monotonic(), spans=spans)
    except ChildFailed as exc:
        sys.exit(f"benchmark failed before measuring: {exc}")

    setup = next(r for r in records if r["type"] == "setup")
    setups.append(setup["setup_s"])
    end = next((r for r in records if r["type"] == "end"), None)
    found = [r for r in records if r["type"] == "discovery"]
    plain = [r for r in found if not r["traced"]]
    failed = [r for r in found if not r["ok"]]
    attempted, n_failed = len(found), len(failed)
    if error:  # the discovery in flight when the child died
        attempted, n_failed = attempted + 1, n_failed + 1
    if attempted == 0:
        sys.exit(f"benchmark failed: no discovery finished ({error})")

    walls = [r["wall_s"] for r in plain]
    e2e = {}
    if end and walls and not args.trace:
        e2e = {
            "discover_s_p50": statistics.median(walls),
            "discover_s_p90": percentile(walls, 90),
            "graphs_per_s": end["discoveries"] / end["wall_s"],
            "cpu_s_per_graph": end["cpu_s"] / end["discoveries"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": end["peak_rss_mb"],
        }
    layers = (end or {}).get("layers", {})
    # a child killed before its end record leaves the values at 0 (and correct false)
    values, section = (layers, "per_layer") if args.trace else (e2e, "end_to_end")
    metrics = {k: {"value": values[k] if values else 0.0, "unit": u}
               for k, u in units[section].items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "loop": "closed, 1 caller",
        "instances": setup["instances"], "provenance": setup["provenance"],
        "discoveries": {"measured": len(plain), "attempted": attempted,
                        "failed": n_failed,
                        "failed_ops_frac": n_failed / attempted},
        "setup_samples_s": setups,
        "discover_walls_s": [[r["key"], r["wall_s"]] for r in plain],
        "end_to_end": {k: {"value": v, "unit": units["end_to_end"][k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": v, "unit": units["per_layer"][k]} for k, v in layers.items()},
        "per_layer_absent": (end or {}).get("absent", {}),
        "failures": failed + ([{"error": error}] if error else []),
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))


def print_report(rep):
    p = rep["provenance"]
    print(f"# jtscd benchmark  workload={rep['workload']} seed={rep['seed']} "
          f"seconds={rep['seconds']} trace={rep['trace']} size={rep['size']} "
          f"loop={rep['loop']} corpus={rep['instances']}")
    print(f"# git={p['git_sha']} src_sha256={p['src_sha256']} python={p['python']} numpy={p['numpy']} "
          f"scipy={p['scipy']} blas={p['blas']} nproc={p['nproc']} "
          f"loadavg={' '.join(f'{x:.2f}' for x in p['loadavg'])}")
    d = rep["discoveries"]
    print(f"discoveries measured={d['measured']} attempted={d['attempted']} "
          f"failed={d['failed']} failed_ops_frac={d['failed_ops_frac']:.4f} ratio")
    for f in rep["failures"]:
        print(f"FAILED {json.dumps(f)}")
    for section in ("end_to_end", "per_layer"):
        for name, m in rep[section].items():
            absent = rep["per_layer_absent"].get(name)
            note = f"  (absent: {absent})" if absent else ""
            print(f"{name:32s} {m['value']:.6g} {m['unit']}{note}")


if __name__ == "__main__":
    main()
