"""Re-record bench/reference.json: summary.csv rows of each workload's
reference seeds, which every later benchmark run at those seeds must match.

    python3 bench/record_reference.py

The table pins the results of the commit it was recorded at and is what
makes the benchmark's check more than a format check: re-record it only in
a change that means to alter results, and say so in that change.
"""

import json
import os
import shutil
import sys

import run
import workloads

REFERENCE_SEEDS = (0, 1, 2)


def main():
    sys.path.insert(0, str(run.SRC))
    import check

    tmp = run.ROOT / ".bench_tmp" / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True)
    table = {}
    try:
        for workload in workloads.WORKLOADS:
            for seed in REFERENCE_SEEDS:
                bench = run.Bench(workload, seed, tmp)
                bench.reference = None
                rows = []
                bench.run([sys.executable, "-m", "obpb.cli", "run",
                           str(bench.scenario)],
                          inspect_tree=lambda d: rows.extend(
                              check.read_summary(d)))
                if bench.failed:
                    raise SystemExit(f"{workload} seed {seed} failed")
                table.setdefault(workload, {})[str(seed)] = rows
                print(f"{workload} seed {seed}: {len(rows)} rows")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
