"""Record the reference graphs that the ParCorr workloads are checked against.

    python3 perfbench/record.py

Runs every corpus entry of panel-long and grid-small (both sizes) once and
writes ``perfbench/reference.json``: each discovery's edges and the p-value
of the test that removed each absent link.  Re-record only when the
program's numerics change on purpose, and list the flips that causes.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    refs = {}
    for workload in ("panel-long", "grid-small"):
        for size in ("tiny", "full"):
            entries = refs.setdefault(workload, {}).setdefault(size, {})
            for inst in workloads.build_inputs(workload, size, with_reference=False):
                t0 = time.perf_counter()
                results = workloads.run_op(workload, inst, time.perf_counter)
                for outcome, result in results:
                    if outcome.error:
                        sys.exit(f"{workload}/{size}/{outcome.key}: {outcome.error}")
                entry = [workloads.reference_entry(result) for _, result in results]
                entries[inst.key] = (entry[0] if workload == "panel-long"
                                     else dict(zip(workloads.GRID_VARIANTS, entry)))
                print(f"{workload}/{size}/{inst.key}: {time.perf_counter() - t0:.2f} s",
                      flush=True)
    write(refs)


def write(refs):
    """One line per corpus entry, p-values to four significant digits."""
    lines = []
    for workload, sizes in sorted(refs.items()):
        blocks = []
        for size, entries in sorted(sizes.items()):
            rows = [f"{json.dumps(key)}: {json.dumps(_rounded(entry), separators=(',', ':'))}"
                    for key, entry in sorted(entries.items())]
            blocks.append(f"  {json.dumps(size)}: {{\n   " + ",\n   ".join(rows) + "\n  }")
        lines.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(blocks) + "\n }")
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _rounded(entry):
    if "edges" not in entry:
        return {variant: _rounded(e) for variant, e in entry.items()}
    return {"edges": entry["edges"],
            "p": {k: float(f"{p:.4g}") for k, p in entry["p"].items()}}


if __name__ == "__main__":
    main()
