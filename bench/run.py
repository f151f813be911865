"""Outside-in benchmark of `obpb run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; every path is taken relative to this
file.  The benchmark writes the seeded scenario of workload NAME (see
`workloads.py`), then runs `python -m obpb.cli run` on it in fresh child
processes, one per run, with BLAS/OpenMP pinned to one thread, and checks
each run's artifact tree (`check.py`).  Full runs repeat while another one
still fits in S seconds (at least one runs); short set-up probes, which stop
the child at its first progress line, top the set-up samples up to
MIN_SETUP_SAMPLES.

End-to-end metrics (--trace 0), medians over the runs:
  wall_s       child start to exit: the time to a complete artifact tree
  setup_s      child start to its first progress line (scenario parsed,
               joint profile built, SNR calibrated)
  peak_rss_mb  the child's max RSS, from os.wait4
With --trace 1 the same untraced runs are followed by one traced run
(`tracing.py`), and the per-layer metrics listed in BENCHMARK.json are
printed instead.  A run fails when its exit code is not 0 or its artifact
check finds a problem; `attempted` and `failed` count runs, probes excluded.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Output trees, generated scenarios
and traces live in .bench_tmp/ at the checkout root and are deleted at exit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


class ChildRun:
    """Outside measurements of one child process."""

    def __init__(self, code, wall_s, cpu_s, setup_s, peak_rss_mb, stderr):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.setup_s = setup_s
        self.peak_rss_mb = peak_rss_mb
        self.stderr = stderr


def run_child(cmd, env, stderr_path, probe=False):
    """Run `cmd` to completion (or, for a probe, to its first stdout line).

    Times are taken in this process: wall from just before the child is
    spawned to its reaping by os.wait4, set-up to the arrival of its first
    line of standard output.
    """
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start if first else None
            if probe:
                proc.kill()
            else:
                proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
                    setup_s, usage.ru_maxrss / 1024.0,
                    Path(stderr_path).read_text(encoding="utf-8")[-2000:])


class Bench:
    """One benchmark invocation: a workload at a seed in a scratch dir."""

    def __init__(self, workload, seed, tmp):
        self.tmp = tmp
        self.scenario = tmp / f"{workload}-{seed}.yaml"
        self.tree = workloads.write_scenario(workload, seed, self.scenario)
        refs = json.loads((BENCH / "reference.json").read_text())
        self.reference = refs.get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def env(self, out_root):
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, **THREAD_ENV, OBPB_OUTPUT_ROOT=str(out_root),
                    PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, cmd, probe=False, inspect_tree=None):
        """One child run in a fresh output root, checked unless a probe."""
        import check

        self._count += 1
        out_root = self.tmp / f"out-{self._count}"
        out_root.mkdir()
        try:
            child = run_child(cmd, self.env(out_root),
                              self.tmp / f"stderr-{self._count}.txt", probe)
            if probe:
                return child
            out_dir = out_root / self.tree["output_dir"]
            problems = [] if child.code == 0 else [
                f"exit code {child.code}: {child.stderr.strip()}"]
            if out_dir.is_dir():
                problems += check.check_tree(out_dir, self.tree,
                                             self.reference)
                if inspect_tree is not None:
                    inspect_tree(out_dir)
            else:
                problems.append(f"no output tree at {out_dir}")
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:20]:
                print(f"check failed: {problem}", file=sys.stderr)
        return child

    def measure(self, seconds):
        """Untraced full runs within `seconds`, then set-up probes."""
        cmd = [sys.executable, "-m", "obpb.cli", "run", str(self.scenario)]
        start = time.perf_counter()
        runs = [self.run(cmd)]
        while (time.perf_counter() - start
               + statistics.median(r.wall_s for r in runs) <= seconds):
            runs.append(self.run(cmd))
        setups = [r.setup_s for r in runs if r.setup_s is not None]
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = self.run(cmd, probe=True)
            if probe.setup_s is None:
                raise RuntimeError("set-up probe printed nothing: "
                                   + probe.stderr)
            setups.append(probe.setup_s)
        for i, r in enumerate(runs):
            print(f"run {i}: wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, setup "
                  f"{r.setup_s} s, peak rss {r.peak_rss_mb:.1f} MB, "
                  f"exit {r.code}")
        return {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }

    def trace(self, untraced_wall_s):
        """One traced run; the per-layer metrics it yields."""
        trace_path = self.tmp / "trace.json"
        tree_size = {}

        def inspect_tree(out_dir):
            sizes = [p.stat().st_size for p in out_dir.rglob("*")
                     if p.is_file()]
            tree_size.update(files=len(sizes), bytes=sum(sizes))

        child = self.run([sys.executable, str(BENCH / "tracing.py"),
                          str(self.scenario), str(trace_path)],
                         inspect_tree=inspect_tree)
        if child.code != 0 or not trace_path.is_file():
            raise RuntimeError("traced run failed: " + child.stderr)
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        sub_points = len(self.tree["n_ue"]) if "sub_array" in [
            m.partition(":")[0] for m in self.tree["methods"]] else 0
        metrics = tracing.layer_metrics(trace["spans"], trace["counters"],
                                        sub_points)
        metrics["scenario.artifact_files"] = tree_size.get("files", 0)
        metrics["scenario.artifact_bytes"] = tree_size.get("bytes", 0)
        metrics["trace.overhead_s"] = child.wall_s - untraced_wall_s
        return metrics


def _machine():
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return (f"{os.cpu_count()} cpus, {mem / 2**30:.1f} GiB, "
            f"python {platform.python_version()}, "
            + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "obpb" / "cli.py").is_file():
        print(f"error: no obpb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else \
        spec["run_seconds"]

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        print(f"workload {args.workload} seed {args.seed}: profile "
              + json.dumps(bench.tree.get("profile", {})))
        print(f"machine: {_machine()}")
        values = bench.measure(seconds)
        wanted = spec["end_to_end"]
        if args.trace:
            values = bench.trace(values["wall_s"])
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_frac = {bench.failed / bench.attempted} "
          f"({bench.failed} of {bench.attempted} runs)")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
