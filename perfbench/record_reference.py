"""Record perfbench/reference.json: headline values and data-file hashes.

Run from the repository root at the commit the reference should
describe:

    python3 perfbench/record_reference.py

Headline references are replica means and per-replica standard
deviations from large library runs, made with the same per-replica code
the CLI runners use (replay.py): density from the Birkhoff estimator
(the pointwise one gives the same per-replica values), series from
`final_decade` of single replicas (the CLI's windowed value is linear in
the partials, so it averages), and the distribution table from one CLI
run with ten times the samples.  The hashes cover the data files of
every command of passes 0..HASH_PASSES-1 for the default and hold-out
seeds.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from procs import run_command
from replay import Tracer, context, load_library, series_replica
from workloads import WORKLOADS, Command, Spec, load_strict_json, pass_commands

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
HOLDOUT_SEED = 2
HASH_PASSES = 6
REFERENCE_SEED = 20261017
DENSITY_REPLICAS = {"cantor": 256, "carpet": 24}
SERIES_REPLICAS = {"second_order.cantor": 512, "frequency.cantor": 512,
                   "logfreq.cantor": 256, "suspension.cantor": 512, "grid.carpet": 48}
DISTRIBUTION_SAMPLES = 200000


def _specs(command: str) -> list[Spec]:
    return [s for specs in WORKLOADS.values() for s in specs if s.command == command]


def _density(lib, root: str) -> dict:
    out = {}
    for spec in _specs("density"):
        ctx = context(lib, Tracer(False), Command(spec, REFERENCE_SEED), root)
        k = int(dict(spec.params)["k"])
        replicas = DENSITY_REPLICAS[spec.config]
        est = lib.average_density_birkhoff(ctx.graph, ctx.mass, seed=REFERENCE_SEED,
                                           k=k, replicas=replicas)
        out[spec.config] = {"c": est.c_hat, "replicas": replicas,
                            "per_replica_sd": float(est.per_replica.std(ddof=1))}
        print(f"density {spec.config}: {out[spec.config]}", flush=True)
    return out


def _series(lib, root: str) -> dict:
    out = {}
    for cid, replicas in SERIES_REPLICAS.items():
        spec = next(s for specs in WORKLOADS.values() for s in specs if s.cid == cid)
        cmd = Command(spec, REFERENCE_SEED)
        tracer = Tracer(False)
        one = series_replica(lib, tracer, cmd, context(lib, tracer, cmd, root))
        values = np.array([one().final_decade(10.0) for _ in range(replicas)])
        out[cid] = {"value": float(values.mean()), "replicas": replicas,
                    "per_replica_sd": float(values.std(ddof=1))}
        print(f"series {cid}: {out[cid]}", flush=True)
    return out


def _distribution(root: str, work: str) -> dict:
    out = {}
    for spec in _specs("distribution"):
        big = Spec(spec.cid, spec.command, spec.config,
                   tuple((n, DISTRIBUTION_SAMPLES if n == "samples" else v)
                         for n, v in spec.params))
        o = run_command(Command(big, REFERENCE_SEED), root, os.path.join(work, spec.cid), {})
        if o.exit_code != 0:
            raise SystemExit(f"{spec.cid}: exit code {o.exit_code}")
        doc = load_strict_json(os.path.join(work, spec.cid, "out", "distribution.json"))
        out[spec.cid] = {"ks": doc["ks"], "samples": doc["samples"]}
    return out


def _hashes(root: str, work: str) -> dict:
    out = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            for index in range(HASH_PASSES):
                for cmd in pass_commands(workload, seed, index):
                    o = run_command(cmd, root, os.path.join(work, cmd.cid), {})
                    if o.exit_code != 0:
                        raise SystemExit(f"{cmd.key()}: exit code {o.exit_code}")
                    out[o.key] = o.hashes
            print(f"hashes {workload} seed {seed} done", flush=True)
    return out


def main() -> int:
    root = os.getcwd()
    lib = load_library(root)
    work = os.path.join(root, ".perfbench_runs", "record")
    reference = {
        "seeds": {"default": DEFAULT_SEED, "holdout": HOLDOUT_SEED},
        "density": _density(lib, root),
        "series": _series(lib, root),
        "distribution": _distribution(root, work),
        "hashes": _hashes(root, work),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
