"""Run one CLI command as a child process and measure it alone."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from workloads import Command, check_outputs, data_hashes

COMMAND_TIMEOUT_S = 150.0
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    cid: str
    key: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_command(cmd: Command, root: str, work_dir: str, reference: dict) -> Outcome:
    """Run `python -m subtiling <argv>` in a fresh process and check its outputs.

    The command writes into work_dir/out; its stdout and stderr go to
    files beside it.  Peak RSS comes from os.wait4 on this child alone;
    getrusage(RUSAGE_CHILDREN) would report the running maximum over all
    children.  A nonzero exit, a timeout, invalid JSON or a failed
    headline check mark the command failed; nothing here raises for a
    bad command.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    argv = [sys.executable, "-m", "subtiling", *cmd.argv(root, out_dir)]
    with open(os.path.join(work_dir, "stdout.txt"), "wb") as out_f, \
            open(os.path.join(work_dir, "stderr.txt"), "wb") as err_f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                                stdout=out_f, stderr=err_f)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # already reaped by wait4
    outcome = Outcome(cmd.cid, cmd.key(), wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, code)
    if code != 0:
        outcome.problems.append(f"exit code {code}")
        return outcome
    outcome.problems = check_outputs(cmd, out_dir, reference)
    outcome.hashes = data_hashes(out_dir)
    return outcome


class ReplayError(RuntimeError):
    """A replay worker exited nonzero, timed out or printed no record."""


def run_replay(root: str, workload: str, seed: int, position: int, trace: int) -> dict:
    """Replay one command of pass 0 through the library in a fresh process."""
    argv = [sys.executable, os.path.join(HERE, "replay.py"), "--workload", workload,
            "--seed", str(seed), "--position", str(position), "--trace", str(trace)]
    try:
        res = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                             text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ReplayError(f"timed out after {COMMAND_TIMEOUT_S} s") from None
    if res.returncode != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        raise ReplayError(f"exit code {res.returncode}: {tail[0]}")
    try:
        return json.loads(res.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ReplayError("no JSON record on stdout") from None
