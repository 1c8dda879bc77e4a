"""Self-test of the benchmark: tiny corpora, metric names and units, output checks.

    python3 perfbench/selftest.py

1. Runs every workload, oracle-wide included, on its tiny corpus, untraced
   and traced, and asserts that the result line names exactly the metrics
   of ``BENCHMARK.json`` with their units, that end-to-end values are
   positive, and that every output check passed.
2. Asserts that the output checks reject a graph with one link flipped.
3. Asserts that the benchmark fails, without a result line, in a directory
   holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run_bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc


def check_result_lines():
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, last, proc = run_bench(ROOT, workload, trace)
            assert code == 0, f"{workload} trace={trace}: exit {code}\n{proc.stderr}"
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in BENCH[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {got} != {expected}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                if section == "end_to_end":
                    assert m["value"] > 0, (workload, name, m)
            print(f"ok  {workload:12s} trace={trace} attempted={result['attempted']} "
                  f"metrics={len(got)}")


def check_flipped_links():
    (inst,) = workloads.build_inputs("panel-long", "tiny")
    ((outcome, result),) = workloads.run_op("panel-long", inst, time.perf_counter)
    assert outcome.ok, outcome.record()
    i, j, tau, mark = next(iter(result.graph.edges()))
    result.graph.remove_link(i, j, tau)
    flips = workloads.check_reference(result, inst.reference)
    assert [f[:5] for f in flips] == [[i, j, tau, mark, ""]], flips
    print(f"ok  reference check rejects removed link {flips}")

    inst = workloads.build_inputs("oracle-wide", "tiny")[0]
    ((outcome, result),) = workloads.run_op("oracle-wide", inst, time.perf_counter)
    assert outcome.ok, outcome.record()
    i, j, tau, mark = next((e for e in result.graph.edges() if e[2] == 0), None)
    flipped = {"-->": "<--", "<--": "-->"}.get(mark, "-->")
    result.graph.set_mark(i, j, tau, flipped)
    assert workloads.check_oracle(result, inst.ground_truth), "flipped mark not caught"
    print(f"ok  oracle check rejects link ({i}, {j}, {tau}) flipped {mark} -> {flipped}")


def check_fails_without_sources():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, last, proc = run_bench(bare, BENCH["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert code != 0, f"benchmark succeeded without sources: {proc.stdout}"
    assert not last.startswith("{"), last
    print(f"ok  no sources: exit {code}, no result line")


if __name__ == "__main__":
    os.chdir(ROOT)
    check_result_lines()
    check_flipped_links()
    check_fails_without_sources()
    print("selftest passed")
