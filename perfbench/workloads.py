"""The benchmark workloads: which CLI commands a pass runs, and how their
outputs are checked.

A workload is a fixed list of command specs.  One pass runs each spec
once as a fresh `python -m subtiling` process; the program seed of every
command is derived from the benchmark seed and the pass index, so the
program only ever sees generated argv.  The traced replay in
`replay.py` consumes the same specs, so both runs share configs, sizes
and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

FIXTURE_DIR = os.path.join("src", "subtiling", "fixtures")

# Literal densities passed as --c: the coupled c of cantor and carpet,
# rounded, so no command depends on the output of another.
C_CANTOR = "0.4720"
C_CARPET = "0.6357"


@dataclass(frozen=True)
class Spec:
    """One command of a workload, without its seed."""
    cid: str
    command: str
    config: str
    params: tuple  # ((name, value), ...) in argv order


@dataclass(frozen=True)
class Command:
    spec: Spec
    seed: int

    @property
    def cid(self) -> str:
        return self.spec.cid

    def param(self, name: str):
        return dict(self.spec.params)[name]

    def config_path(self, root: str) -> str:
        return os.path.join(root, FIXTURE_DIR, self.spec.config + ".json")

    def argv(self, root: str, out_dir: str) -> list[str]:
        args = [self.spec.command, "--config", self.config_path(root),
                "--seed", str(self.seed)]
        for name, value in self.spec.params:
            args += ["--" + name.replace("_", "-"), str(value)]
        return args + ["--out", out_dir]

    def key(self) -> str:
        """Identity of the run independent of paths: command, config, params, seed."""
        parts = [self.spec.command, self.spec.config, str(self.seed)]
        parts += [f"{n}={v}" for n, v in self.spec.params]
        return " ".join(parts)


def _spec(cid, command, config, **params) -> Spec:
    return Spec(cid, command, config, tuple(params.items()))


# Sizes: k, n, R and level are those of the layer profile the workloads
# were chosen from; replica counts are scaled down so that one pass takes
# roughly 4-9 s and a 40 s run holds at least three passes.
WORKLOADS: dict[str, list[Spec]] = {
    # gdifs bracket classification: cantor is the deep, narrow 1-d
    # refinement (depth 26), carpet the shallow, wide 2-d one (depth 7).
    "density": [
        _spec("density.cantor", "density", "cantor", k=40, replicas=2),
        _spec("density.carpet", "density", "carpet", k=20, replicas=1),
    ],
    # ergodic series sums plus the first-call supertile word build;
    # many short batched sampler paths, no brackets.
    "symbolic": [
        _spec("second_order.cantor", "second-order", "cantor",
              n=531441, c=C_CANTOR, replicas=64),
        _spec("frequency.cantor", "frequency", "cantor",
              b=1, n=531441, c=C_CANTOR, replicas=64),
        _spec("logfreq.cantor", "logfreq", "cantor", a=0, n=531441, replicas=64),
        _spec("distribution.cantor", "distribution", "cantor",
              levels=12, samples=20000),
        _spec("suspension.cantor", "second-order", "cantor",
              R=2187, c=C_CANTOR, replicas=16),
    ],
    # 2-d patch extraction and ball-weight scans; the only large-RSS workload.
    "grid2d": [
        _spec("grid.carpet", "second-order", "carpet",
              R=2187, level=9, c=C_CARPET, replicas=3),
    ],
}

# Configs whose `analyze` run measures the fixed per-process set-up cost.
SETUP_CONFIGS = {
    "density": ["cantor", "carpet"],
    "symbolic": ["cantor"],
    "grid2d": ["carpet"],
}


def command_seed(seed: int, pass_index: int, position: int) -> int:
    state = np.random.SeedSequence([seed, pass_index, position]).generate_state(1)
    return int(state[0] >> 1)


def pass_commands(workload: str, seed: int, pass_index: int) -> list[Command]:
    return [Command(spec, command_seed(seed, pass_index, i))
            for i, spec in enumerate(WORKLOADS[workload])]


def setup_command(config: str) -> Command:
    return Command(Spec("setup." + config, "analyze", config, ()), 0)


# ---- output checks ----

def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def load_strict_json(path: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=_reject_constant)


def output_files(out_dir: str) -> list[str]:
    return sorted(n for n in os.listdir(out_dir)
                  if os.path.isfile(os.path.join(out_dir, n)))


def data_hashes(out_dir: str) -> dict[str, str]:
    """sha256 of every data file; manifests carry wall time and paths."""
    out = {}
    for name in output_files(out_dir):
        if name.endswith("_manifest.json"):
            continue
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


# Relative budgets of the acceptance criteria for the series headlines:
# criterion 4 (symbolic second order) and 6 (frequency) allow 5%,
# criterion 5 (ball-count engine) 10%.
SERIES_BUDGET = {
    "second_order.cantor": 0.05,
    "frequency.cantor": 0.05,
    "logfreq.cantor": 0.05,
    "suspension.cantor": 0.10,
    "grid.carpet": 0.10,
}

# Monte-Carlo headlines may sit this many standard errors from the
# reference; checks run thousands of times, so a false alarm must be rare.
Z_TOL = 5.0

# Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2),
# so eps = DKW_C / sqrt(n) is exceeded with probability at most 1e-6.
DKW_C = math.sqrt(math.log(2.0 / 1e-6) / 2.0)


def _mc_tolerance(ref: dict, replicas: int) -> float:
    """Z_TOL standard errors of the difference of two replica means."""
    return Z_TOL * ref["per_replica_sd"] * math.sqrt(1.0 / replicas + 1.0 / ref["replicas"])


def check_outputs(cmd: Command, out_dir: str, reference: dict) -> list[str]:
    """Problems found in one command's outputs; empty when all checks hold."""
    problems = []
    docs = {}
    for name in output_files(out_dir):
        if name.endswith(".json"):
            try:
                docs[name] = load_strict_json(os.path.join(out_dir, name))
            except ValueError as e:
                problems.append(f"{name}: {e}")
    if problems:
        return problems
    command = cmd.spec.command
    try:
        if command == "analyze":
            if not docs["analyze.json"]["report"]["failures"] == []:
                problems.append("analyze: substitution reported inadmissible")
        elif command == "density":
            problems += _check_density(cmd, docs["density.json"], reference)
        elif command == "distribution":
            problems += _check_distribution(cmd, docs["distribution.json"], reference)
        else:
            stem = command.replace("-", "_")
            problems += _check_series(cmd, docs[stem + ".json"], reference)
    except KeyError as e:
        problems.append(f"missing output or field {e}")
    except (TypeError, ValueError, IndexError) as e:
        problems.append(f"malformed output: {e}")
    return problems


def _check_density(cmd: Command, doc: dict, reference: dict) -> list[str]:
    ref = reference["density"][cmd.spec.config]
    replicas = int(cmd.param("replicas"))
    problems = []
    for method in ("pointwise", "birkhoff"):
        est = doc[method]
        c_hat, bound = est["c_hat"], est["systematic_bound"]
        # Monte-Carlo tolerance from the per-replica spread recorded at
        # the reference, plus the run's own certified bracket width.
        tol = _mc_tolerance(ref, replicas) + bound
        if not abs(c_hat - ref["c"]) <= tol:
            problems.append(f"{method} c_hat {c_hat!r} outside {ref['c']!r} +- {tol:.4g}")
        # criterion 3 holds stderr below 0.01; a wider certified bracket
        # means the bracket refinement itself went wrong
        if not 0.0 <= bound < 0.01:
            problems.append(f"{method} systematic_bound {bound!r} out of range")
    return problems


def _check_series(cmd: Command, doc: dict, reference: dict) -> list[str]:
    ref = reference["series"][cmd.cid]
    got = doc["final_decade_partial"]
    tol = max(SERIES_BUDGET[cmd.cid] * abs(ref["value"]),
              _mc_tolerance(ref, int(cmd.param("replicas"))))
    if not abs(got - ref["value"]) <= tol:
        return [f"final_decade_partial {got!r} outside {ref['value']!r} +- {tol:.4g}"]
    return []


def _check_distribution(cmd: Command, doc: dict, reference: dict) -> list[str]:
    ref = reference["distribution"][cmd.cid]
    ks = np.asarray(doc["ks"], dtype=float)
    ref_ks = np.asarray(ref["ks"], dtype=float)
    if ks.shape != ref_ks.shape:
        return [f"ks has {ks.size} levels, reference {ref_ks.size}"]
    # |ks - ref_ks| <= sup |F_run - F| + sup |F_ref - F| for the common law F
    tol = DKW_C / math.sqrt(int(doc["samples"])) + DKW_C / math.sqrt(ref["samples"])
    dev = float(np.max(np.abs(ks - ref_ks)))
    if not dev <= tol:
        return [f"ks deviates from the reference by {dev:.4g} > {tol:.4g}"]
    return []
