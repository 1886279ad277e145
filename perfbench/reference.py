"""Stored reference results, and the per-run record files.

`reference.json` holds, for each reference seed and workload, the record of
every operation of one pass as produced by the code at the commit that
defined the benchmark.  A run at one of those seeds checks each unit of work
against it field by field (see workloads.mismatch).  Regenerate with

    python3 perfbench/reference.py --seeds 0-19

from the root of a checkout, only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"


def lookup(workload: str, seed: int):
    """Per-op lists of reference units for (workload, seed), or None."""
    with open(REFERENCE, encoding="utf-8") as handle:
        stored = json.load(handle)
    return stored["seeds"].get(str(seed), {}).get(workload)


def save_record(args, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate reference.json")
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-19")
    args = parser.parse_args(argv)
    from run import _limit_blas_threads
    _limit_blas_threads()
    sys.path.insert(0, str(HERE.parent / "src"))
    import modunfold
    from workloads import WORKLOADS

    stored = {"seeds": {}}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as handle:
            stored = json.load(handle)
    for seed in args.seeds:
        for name in WORKLOADS:
            workload = WORKLOADS[name](modunfold, seed)
            workload.setup()
            ops = [workload.record(i, workload.run(i)) for i in range(len(workload.ops))]
            for units in ops:
                for unit in units:
                    for field in workload.ungated:
                        unit.pop(field, None)
            stored["seeds"].setdefault(str(seed), {})[name] = ops
            print(f"seed {seed} {name}: {sum(len(u) for u in ops)} units", flush=True)
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=None, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
