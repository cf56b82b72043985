"""Benchmark of the subtiling CLI: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload density --seed 1 --seconds 40 --trace 0

Untraced (--trace 0): runs the workload as a closed loop with one client,
each command a fresh `python -m subtiling` process with the default
--threads (serial), one at a time, and reports the end-to-end metrics.
Traced (--trace 1): runs pass 0 through the CLI once more, then replays
the same commands through the library, each in a fresh process, with
spans off and on, and reports the per-layer metrics.  The last stdout line is the JSON result;
a full record (environment, per-command outcomes, spans) is written to
.perfbench_runs/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from procs import Outcome, ReplayError, run_command, run_replay
from workloads import (WORKLOADS, SETUP_CONFIGS, load_strict_json, pass_commands,
                       setup_command)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 7
TRACE_SETUP_RUNS = 3
MIN_PASSES = 3
# Start no new pass after this many seconds, so a much slower program
# still ends well inside the three-minute limit of a run.
HARD_STOP_S = 100.0


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _git(root: str, *args: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_sha256(root: str) -> str:
    """Hash of the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "subtiling")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(root: str) -> dict:
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_sha256(root),
        "execution": "closed loop, one client: one command at a time, "
                     "each a fresh process with the default --threads (serial)",
    }


class Run:
    """Outcomes of one benchmark run and where their files go."""

    def __init__(self, root: str, workload: str, seed: int, trace: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".perfbench_runs",
                                 f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
            self.reference = json.load(f)
        self.outcomes: list[Outcome] = []
        self.failures: list[str] = []
        self.replays = 0  # library replays of commands, traced runs only

    def command(self, cmd, tag: str) -> Outcome:
        outcome = run_command(cmd, self.root, os.path.join(self.work, tag, cmd.cid),
                              self.reference)
        self.outcomes.append(outcome)
        if not outcome.ok:
            self.failures.append(f"{tag}/{cmd.cid}: " + "; ".join(outcome.problems))
        return outcome

    def setup_times(self, runs: int) -> list[float]:
        configs = SETUP_CONFIGS[self.workload]
        return [self.command(setup_command(configs[i % len(configs)]), f"setup{i}").wall_s
                for i in range(runs)]

    def cli_pass(self, index: int) -> list[Outcome]:
        return [self.command(cmd, f"pass{index}")
                for cmd in pass_commands(self.workload, self.seed, index)]

    def byte_identity(self) -> tuple[int, int]:
        """(commands compared, commands whose data files match the reference)."""
        known = self.reference["hashes"]
        compared = [o for o in self.outcomes if o.ok and o.key in known]
        return len(compared), sum(o.hashes == known[o.key] for o in compared)


def measure_untraced(run: Run, seconds: float) -> dict:
    t_start = time.perf_counter()
    setup = run.setup_times(SETUP_RUNS)
    passes: list[float] = []
    while True:
        passes.append(sum(o.wall_s for o in run.cli_pass(len(passes))))
        elapsed = time.perf_counter() - t_start
        if elapsed > HARD_STOP_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(passes) > seconds:
            break
    return {
        "metrics": {
            "wall_s": (statistics.median(passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(o.peak_rss_mb for o in run.outcomes), "MB"),
        },
        "samples": {"passes": passes, "setup": setup},
    }


def measure_traced(run: Run, seconds: float) -> dict:
    from replay import Tracer, headline_matches, layer_metrics

    t_start = time.perf_counter()
    setup_s = statistics.median(run.setup_times(TRACE_SETUP_RUNS))
    cli = {o.cid: o for o in run.cli_pass(0)}
    cmds = pass_commands(run.workload, run.seed, 0)
    per_replay: list[dict[str, float]] = []
    overhead: list[float] = []
    cli_overhead: list[float] = []
    spans: list[dict] = []
    while True:
        t_pair = time.perf_counter()
        records: dict[tuple[str, int], dict] = {}
        for trace in (0, 1):
            for position, cmd in enumerate(cmds):
                run.replays += 1
                try:
                    rec = run_replay(run.root, run.workload, run.seed, position, trace)
                except ReplayError as e:
                    run.failures.append(f"replay{trace}/{cmd.cid}: {e}")
                    continue
                records[cmd.cid, trace] = rec
                if cli[cmd.cid].ok:
                    stem = cmd.spec.command.replace("-", "_")
                    doc = load_strict_json(os.path.join(
                        run.work, "pass0", cmd.cid, "out", stem + ".json"))
                    if not headline_matches(cmd, rec["headline"], doc):
                        run.failures.append(
                            f"replay{trace}/{cmd.cid}: headline differs from the CLI run")
        if len(records) < 2 * len(cmds):
            break
        traced = [records[c.cid, 1] for c in cmds]
        tracer = Tracer.merged(traced)
        per_replay.append(layer_metrics(tracer))
        spans = tracer.dump()
        overhead.append(sum(r["library_s"] for r in traced)
                        - sum(records[c.cid, 0]["library_s"] for c in cmds))
        cli_overhead.append(statistics.fmean(
            cli[c.cid].wall_s - setup_s - records[c.cid, 1]["library_s"] for c in cmds))
        elapsed = time.perf_counter() - t_start
        pair = time.perf_counter() - t_pair
        if elapsed > HARD_STOP_S or elapsed + pair > seconds:
            break
    if not per_replay:
        return {"metrics": {}, "samples": {}}
    metrics = {name: (statistics.median(r[name] for r in per_replay), _unit(name))
               for name in per_replay[0]}
    metrics["cli.overhead_s"] = (statistics.median(cli_overhead), "s")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return {"metrics": metrics,
            "samples": {"tracing_overhead_s": overhead, "cli_overhead_s": cli_overhead,
                        "setup_s": setup_s},
            "spans": spans}


def _unit(name: str) -> str:
    if name.endswith(("pieces_mean", "radii_per_replica", "cells_weighted")):
        return "count"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith("paths_per_s"):
        return "1/s"
    return "s"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so a running child is killed and reaped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subtiling", "__init__.py")):
        print("perfbench: src/subtiling not found; run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.trace)
    env = environment(root)
    measure = measure_traced if args.trace else measure_untraced
    result = measure(run, args.seconds)
    attempted = len(run.outcomes) + run.replays
    failed = len(run.failures)
    compared, identical = run.byte_identity()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed, failed_ops_frac {failed / attempted:.4g}")
    for line in run.failures:
        print("  FAILED " + line)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:52s} {value:.6g} {unit}")
    print(f"  data files byte-identical to the reference: {identical} of {compared} "
          f"commands with a recorded reference (reported, not a failure)")
    for name, values in result["samples"].items():
        print(f"  samples {name}: {values}")
    print(json.dumps({"environment": env}))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "failures": run.failures,
              "byte_identity": {"compared": compared, "identical": identical},
              "outcomes": [vars(o) for o in run.outcomes], **result}
    os.makedirs(run.work, exist_ok=True)
    with open(os.path.join(run.work, "record.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
