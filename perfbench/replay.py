"""Traced replay: the library calls the CLI runners make, with spans around them.

Each replayed command mirrors its `subtiling.cli` runner call for call
(same config, sizes, seed and defaults), inside one top-level span per
command.  Probes, which exist only to split a layer's time further
(sampler paths and zoom descents on the estimator's own replica streams,
a second ball-weight scan on the same patch, one sampler batch of the
distribution's shape), run only when tracing is on.  Each probe block is
one span marked `probe`, left out of the command's library time; the
timed calls inside it are ordinary child spans.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from workloads import WORKLOADS, Command, pass_commands

# The CLI's --grid-density default, which every workload command keeps.
GRID_DENSITY = 8


def load_library(root: str):
    """Import the package under test from root/src."""
    sys.path.insert(0, os.path.join(root, "src"))
    return importlib.import_module("subtiling")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: str
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.command = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.command, probe))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start = start
            self.spans[idx].end = end

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    @classmethod
    def merged(cls, records: list[dict]) -> "Tracer":
        """One tracer holding the spans and counts of several worker records."""
        t = cls(True)
        for rec in records:
            base = len(t.spans)
            for d in rec["spans"]:
                parent = None if d["parent"] is None else d["parent"] + base
                t.spans.append(Span(**{**d, "parent": parent}))
            for name, value in rec["counts"].items():
                t.count(name, value)
        return t


# ---- per-command replays, one per CLI runner ----

def context(lib, t: Tracer, cmd: Command, root: str) -> SimpleNamespace:
    """The working set cli._Ctx builds, one span per library call."""
    with t.span("substitution.load_substitution"):
        sub = lib.load_substitution(cmd.config_path(root))
    with t.span("spectral.admissibility_report"):
        rep = lib.admissibility_report(sub)
    with t.span("gdifs.build_graph"):
        graph = lib.build_graph(sub)
    with t.span("ergodic.transverse_weights"):
        tw = lib.transverse_weights(sub)
    with t.span("gdifs.mass_vector"):
        mass = lib.mass_vector(graph, tw.xi_tr)
    with t.span("tiling.suspension_lengths"):
        xi_len = lib.suspension_lengths(sub) if sub.dim == 1 else None
    with t.span("ergodic.measure_normalization"):
        norm = lib.measure_normalization(sub, xi_len, tw, mass)
    with t.span("ergodic.TransversalSampler.init"):
        sampler = lib.TransversalSampler(sub, graph, mass, cmd.seed)
    return SimpleNamespace(sub=sub, alpha=float(rep.alpha), graph=graph, mass=mass,
                           xi_len=xi_len, norm=norm, sampler=sampler)


def _replay_density(lib, t: Tracer, cmd: Command, root: str) -> dict:
    ctx = context(lib, t, cmd, root)
    k = int(cmd.param("k"))
    replicas = int(cmd.param("replicas"))
    out = {}
    for method, seed in (("pointwise", cmd.seed), ("birkhoff", cmd.seed + 1)):
        fn = getattr(lib, "average_density_" + method)
        with t.span("gdifs.average_density_" + method):
            est = fn(ctx.graph, ctx.mass, seed=seed, k=k, replicas=replicas, threads=0)
        out[method] = est.c_hat
        t.count("gdifs.average_density_" + method + ".replicas", replicas)
        if t.enabled:
            with t.span("probe.zoom", probe=True):
                _probe_zoom(lib, t, ctx, fn, seed, k, replicas)
    return out


def _probe_zoom(lib, t: Tracer, ctx, fn, seed: int, k: int, replicas: int) -> None:
    """Sample and descend again on the estimator's own replica streams."""
    params = inspect.signature(fn).parameters
    terms = params["terms"].default
    per_unit = round(1.0 / params["step"].default)
    for stream in np.random.SeedSequence(seed).spawn(replicas):
        with t.span("gdifs.MarkovSampler.sample_path"):
            path = lib.MarkovSampler(ctx.graph, ctx.mass, stream).sample_path(k + terms + 1)
        pieces = 0
        with t.span("gdifs.ZoomCursor.descend"):
            cursor = lib.ZoomCursor(ctx.graph, path, terms=terms)
            pieces += len(cursor.vids)
            for _ in range(k - 1):
                cursor.descend()
                pieces += len(cursor.vids)
        t.count("gdifs.ZoomCursor.pieces", pieces)
        t.count("gdifs.ZoomCursor.levels", k)
        t.count("gdifs.ZoomCursor.descends", k - 1)
        t.count("gdifs.bracket.radii", k * per_unit + 1)


def series_replica(lib, t: Tracer, cmd: Command, ctx):
    """The CLI runner's per-replica `one()` for a series command."""
    params = dict(cmd.spec.params)
    f = lib.mass_observable(ctx.graph, ctx.mass, ctx.sub.n_letters)
    c = ctx.norm.coupled_c(float(params["c"])) if "c" in params else None
    command = cmd.spec.command
    if command == "frequency":
        b = ctx.sub.letter_id(str(params["b"]))
        n = int(params["n"])
        return _orbit_series(t, ctx, n, "ergodic.alpha_frequency", lambda x: lib.alpha_frequency(
            x, b, ctx.alpha, n, c=c, norm=ctx.norm, grid_density=GRID_DENSITY))
    if command == "logfreq":
        a = ctx.sub.letter_id(str(params["a"]))
        n = int(params["n"])
        return _orbit_series(t, ctx, n, "ergodic.log_frequency", lambda x: lib.log_frequency(
            x, a, n, grid_density=GRID_DENSITY))
    if "n" in params:
        n = int(params["n"])
        return _orbit_series(t, ctx, n, "ergodic.second_order_symbolic",
                             lambda x: lib.second_order_symbolic(
                                 x, f, ctx.alpha, c, n, norm=ctx.norm,
                                 grid_density=GRID_DENSITY))
    R = float(params["R"])
    if ctx.sub.dim == 1:
        n_tiles = int(np.ceil(R / ctx.xi_len.xi_len.min())) + 4

        def suspension():
            with t.span("ergodic.TransversalSampler.orbit"):
                x = ctx.sampler.orbit(n_tiles)
            with t.span("tiling.window_from_sequence"):
                win = lib.window_from_sequence(
                    lib.TwoSidedWord(np.empty(0, dtype=np.uint8), x), ctx.xi_len, 0, n_tiles)
            with t.span("ergodic.second_order_tiling"):
                return lib.second_order_tiling(win, f, ctx.alpha, c, R, norm=ctx.norm,
                                               grid_density=GRID_DENSITY)
        return suspension

    level = int(params["level"])
    radii = _log_radius_grid(R)

    def grid():
        with t.span("ergodic.TransversalSampler.patch"):
            patch = ctx.sampler.patch(level, R)
        with t.span("ergodic.second_order_tiling"):
            series = lib.second_order_tiling(patch, f, ctx.alpha, c, R, norm=ctx.norm,
                                             grid_density=GRID_DENSITY)
        if t.enabled:
            with t.span("probe.scan", probe=True):
                with t.span("tiling.ball_weight_scan"):
                    lib.ball_weight_scan(patch, radii, f.weights)
                weighted, nbytes = _scan_bytes(patch, f.weights)
            t.count("tiling.ball_weight_scan.cells_weighted", weighted)
            t.count("tiling.ball_weight_scan.bytes_computed", nbytes)
        return series
    return grid


def _orbit_series(t: Tracer, ctx, n: int, series_name: str, series):
    """One replica of the symbolic engine: an orbit, then one series over it."""
    def one():
        with t.span("ergodic.TransversalSampler.orbit"):
            x = ctx.sampler.orbit(n)
        with t.span(series_name):
            return series(x)
    return one


def _replay_series(lib, t: Tracer, cmd: Command, root: str) -> dict:
    """cli._mean_series: replica-average the partials, keep the final one."""
    one = series_replica(lib, t, cmd, context(lib, t, cmd, root))
    replicas = int(cmd.param("replicas"))
    acc = one().partials.copy()
    for _ in range(replicas - 1):
        acc += one().partials
    return {"final_partial": float((acc / replicas)[-1])}


def _log_radius_grid(R: float) -> np.ndarray:
    """The radii second_order_tiling hands to ball_weight_scan."""
    du_target = math.log(2.0) / (8.0 * GRID_DENSITY)
    u_max = math.log(R)
    steps = 8 * max(1, int(np.ceil(u_max / (8.0 * du_target) - 1e-12)))
    return np.exp(np.linspace(0.0, u_max, steps + 1))


def _scan_bytes(patch, weights: np.ndarray) -> tuple[int, int]:
    """(cells with nonzero weight, bytes the scan computes), from array sizes.

    Per cell: 1 B label read, 8 B weight gather, 1 B nonzero mask and 8 B
    squared distance; per weighted cell: the concatenated distances and
    weights, the argsort order, both permuted copies and the cumulative
    sum, 8 B each.  Computed, not measured: cache traffic is not counted.
    """
    cells = patch.labels.size
    weighted = int(np.count_nonzero(weights[patch.labels]))
    return weighted, 18 * cells + 6 * 8 * weighted


def _replay_distribution(lib, t: Tracer, cmd: Command, root: str) -> dict:
    ctx = context(lib, t, cmd, root)
    f = lib.mass_observable(ctx.graph, ctx.mass, ctx.sub.n_letters)
    levels = int(cmd.param("levels"))
    samples = int(cmd.param("samples"))
    with t.span("ergodic.distribution_experiment"):
        table = lib.distribution_experiment(ctx.sub, f, levels, samples, rng=cmd.seed)
    t.count("ergodic.distribution_experiment.samples", table.samples)
    t.count("ergodic.distribution_experiment.draws", table.samples + table.resampled)
    if t.enabled:
        # the same batch shape the experiment draws: `samples` paths of its depth
        with t.span("probe.paths", probe=True):
            span = round(ctx.graph.lam) ** levels + 1
            depth = ctx.sampler.addressed_batch(1, span)[2]
            sampler = lib.MarkovSampler(ctx.graph, ctx.mass, cmd.seed)
            with t.span("gdifs.MarkovSampler.sample_paths"):
                sampler.sample_paths(samples, depth)
        t.count("gdifs.MarkovSampler.sample_paths.paths", samples)
    return {"ks": [float(v) for v in table.ks]}


REPLAYS = {
    "density": _replay_density,
    "second-order": _replay_series,
    "frequency": _replay_series,
    "logfreq": _replay_series,
    "distribution": _replay_distribution,
}


def replay_command(lib, t: Tracer, cmd: Command, root: str) -> dict:
    """Replay one command with a fresh tracer; its headline values and library seconds.

    Library time excludes probe blocks, so traced and untraced replays
    time the same calls.
    """
    t.command = cmd.cid
    t0 = time.perf_counter()
    with t.span("command." + cmd.cid):
        headline = REPLAYS[cmd.spec.command](lib, t, cmd, root)
    wall = time.perf_counter() - t0
    if t.enabled:
        wall = t.spans[0].duration - sum(s.duration for s in t.spans if s.probe)
    return {"headline": headline, "library_s": wall,
            "spans": t.dump(), "counts": t.counts}


def headline_matches(cmd: Command, replayed: dict, cli_doc: dict) -> bool:
    """Whether the replay reproduced the CLI run's headline numbers exactly."""
    if cmd.spec.command == "density":
        return all(cli_doc[m]["c_hat"] == replayed[m] for m in ("pointwise", "birkhoff"))
    if cmd.spec.command == "distribution":
        return cli_doc["ks"] == replayed["ks"]
    return cli_doc["final_partial"] == replayed["final_partial"]


# ---- per-layer metrics from one traced replay ----

def _durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SETUP_SPANS = [
    "substitution.load_substitution",
    "spectral.admissibility_report",
    "gdifs.build_graph",
    "gdifs.mass_vector",
    "ergodic.transverse_weights",
    "ergodic.measure_normalization",
    "ergodic.TransversalSampler.init",
]

PER_CALL_SPANS = [
    "gdifs.MarkovSampler.sample_path",
    "ergodic.second_order_symbolic",
    "ergodic.alpha_frequency",
    "ergodic.log_frequency",
    "ergodic.distribution_experiment",
    "ergodic.TransversalSampler.patch",
    "ergodic.second_order_tiling",
    "tiling.ball_weight_scan",
]


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced replay; 0 where the layer has no call.

    Times are mean seconds per call unless the name says otherwise.
    Derived metrics (gdifs.bracket.s_per_replica, substitution.iterate.s)
    are differences of other spans, not timed directly.
    """
    spans, n = t.spans, t.counts
    m: dict[str, float] = {}
    for name in SETUP_SPANS + PER_CALL_SPANS:
        m[name + ".s"] = _mean(_durations(spans, name))

    est_time = est_reps = 0.0
    for method in ("pointwise", "birkhoff"):
        total = sum(_durations(spans, "gdifs.average_density_" + method))
        reps = n.get("gdifs.average_density_" + method + ".replicas", 0.0)
        m[f"gdifs.average_density_{method}.s_per_replica"] = _ratio(total, reps)
        est_time += total
        est_reps += reps
    sample = sum(_durations(spans, "gdifs.MarkovSampler.sample_path"))
    descend = sum(_durations(spans, "gdifs.ZoomCursor.descend"))
    m["gdifs.ZoomCursor.descend.s"] = _ratio(descend, n.get("gdifs.ZoomCursor.descends", 0.0))
    m["gdifs.ZoomCursor.pieces_mean"] = _ratio(n.get("gdifs.ZoomCursor.pieces", 0.0),
                                              n.get("gdifs.ZoomCursor.levels", 0.0))
    m["gdifs.bracket.s_per_replica"] = _ratio(est_time - sample - descend, est_reps)
    m["gdifs.bracket.radii_per_replica"] = _ratio(n.get("gdifs.bracket.radii", 0.0), est_reps)

    cold, warm, fill = [], [], []
    by_command: dict[str, list[float]] = {}
    for s in spans:
        if s.name == "ergodic.TransversalSampler.orbit":
            by_command.setdefault(s.command, []).append(s.duration)
    for durations in by_command.values():
        cold.append(durations[0])
        if len(durations) > 1:
            w = statistics.median(durations[1:])
            warm.append(w)
            fill.append(durations[0] - w)
    m["ergodic.TransversalSampler.orbit.cold_s"] = _mean(cold)
    m["ergodic.TransversalSampler.orbit.warm_s"] = _mean(warm)
    m["substitution.iterate.s"] = _mean(fill)
    m["ergodic.distribution_experiment.accept_ratio"] = _ratio(
        n.get("ergodic.distribution_experiment.samples", 0.0),
        n.get("ergodic.distribution_experiment.draws", 0.0))
    m["gdifs.MarkovSampler.sample_paths.paths_per_s"] = _ratio(
        n.get("gdifs.MarkovSampler.sample_paths.paths", 0.0),
        sum(_durations(spans, "gdifs.MarkovSampler.sample_paths")))
    scans = len(_durations(spans, "tiling.ball_weight_scan"))
    for name in ("cells_weighted", "bytes_computed"):
        m["tiling.ball_weight_scan." + name] = _ratio(
            n.get("tiling.ball_weight_scan." + name, 0.0), scans)
    return m


def main(argv=None) -> int:
    """Worker: replay one command of pass 0 in this fresh process.

    Run from the repository root; prints one JSON record on stdout.  A
    fresh process per command keeps the replay as cold as the CLI
    command it mirrors (imports, allocator state, caches).
    """
    ap = argparse.ArgumentParser(description="replay one benchmark command")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--position", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    root = os.getcwd()
    cmd = pass_commands(args.workload, args.seed, 0)[args.position]
    record = replay_command(load_library(root), Tracer(bool(args.trace)), cmd, root)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
