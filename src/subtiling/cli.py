"""Command-line front end: analyze, estimate, verify, export.

Every command reads a JSON config (substitution rules, or a bare
matrix with an external inflation factor for `analyze`), writes its
data products into --out, and records a manifest naming the command,
parameters, seed, output files and the sha256 of the config.
`rerun --manifest` replays a recorded run and reproduces the outputs
byte for byte; it refuses (exit 2) a config whose sha256 no longer
matches the recorded one.

Exit codes: 0 success, 2 invalid or inadmissible input (including a
word or patch that would exceed the length cap), 3 bracket precision
unattainable, 4 coverage shortfall.  Data goes to files and
standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .ergodic import (Observable, TransversalSampler, log_frequency,
                      alpha_frequency, distribution_experiment,
                      mass_observable, measure_normalization,
                      second_order_symbolic, second_order_tiling,
                      transverse_weights)
from .gdifs import (BracketPrecisionError, average_density_birkhoff,
                    average_density_pointwise, build_graph, mass_vector)
from .spectral import admissibility_report, load_matrix_config, matrix_report
from .substitution import (ConfigError, LengthCapError, Substitution, TwoSidedWord,
                           load_substitution)
from .tiling import (CoverageError, suspension_lengths, window_from_sequence)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BRACKET = 3
EXIT_COVERAGE = 4


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _json_text(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_text(out_dir: str, name: str, text: str, outputs: list[str]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    outputs.append(name)
    return path


def _load_config(path: str):
    """(kind, object): substitution rules or a bare matrix config."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "matrix" in doc and "rules" not in doc:
        return "matrix", load_matrix_config(path)
    return "substitution", load_substitution(path)


def _require_substitution(kind: str, obj) -> Substitution:
    if kind != "substitution":
        raise ConfigError("this command needs substitution rules, "
                          "not a matrix-only config")
    return obj


class _Ctx:
    """Admissible-substitution working set shared by the verify commands."""

    def __init__(self, sub: Substitution, seed: int) -> None:
        rep = admissibility_report(sub)
        if not rep.admissible:
            raise ConfigError("substitution is not admissible: "
                              + "; ".join(rep.failures))
        self.sub = sub
        self.rep = rep
        self.alpha = float(rep.alpha)
        self.graph = build_graph(sub)
        self.tw = transverse_weights(sub)
        self.mass = mass_vector(self.graph, self.tw.xi_tr)
        self.xi_len = suspension_lengths(sub) if sub.dim == 1 else None
        self.norm = measure_normalization(sub, self.xi_len, self.tw, self.mass)
        self.sampler = TransversalSampler(sub, self.graph, self.mass, seed)


def _parse_letter(token: str, sub: Substitution) -> int:
    try:
        return sub.letter_id(token)
    except ConfigError:
        pass
    try:
        v = int(token)
    except ValueError:
        raise ConfigError(f"unknown letter {token!r}") from None
    if not 0 <= v < sub.n_letters:
        raise ConfigError(f"letter id {v} out of range")
    return v


def _parse_observable(spec: Optional[str], ctx: _Ctx, formal: bool) -> Observable:
    """"letter:weight,..." pairs; default is the per-letter mass observable."""
    if spec is None:
        return mass_observable(ctx.graph, ctx.mass, ctx.sub.n_letters)
    w = np.zeros(ctx.sub.n_letters)
    for part in spec.split(","):
        if not part.strip():
            continue
        if ":" not in part:
            raise ConfigError(f"observable term {part!r} is not letter:weight")
        k, v = part.split(":", 1)
        w[_parse_letter(k.strip(), ctx.sub)] = float(v)
    return Observable(w, formal=formal)


def _parse_c(spec: str, ctx: _Ctx) -> tuple[float, str]:
    """A float, or a density-report JSON with a c_hat field; coupled via gamma."""
    try:
        c_hat = float(spec)
        source = "literal"
    except ValueError:
        with open(spec, encoding="utf-8") as f:
            doc = json.load(f)
        est = doc.get("estimate", doc) if isinstance(doc, dict) else None
        if not isinstance(est, dict) or "c_hat" not in est:
            raise ConfigError(f"{spec}: no c_hat field in density report")
        try:
            c_hat = float(est["c_hat"])
        except (TypeError, ValueError):
            raise ConfigError(f"{spec}: c_hat is not a number") from None
        source = spec
    if not (np.isfinite(c_hat) and c_hat > 0.0):
        raise ConfigError(f"c must be finite and positive, got {c_hat!r}")
    return ctx.norm.coupled_c(c_hat), source


def _config_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _manifest(out_dir: str, command: str, config: str, params: dict,
              seed: int, threads: int, outputs: list[str], t0: float) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": os.path.abspath(config),
        "config_sha256": _config_sha256(config),
        "parameters": params,
        "seed": seed,
        "threads": threads,
        "outputs": sorted(outputs),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "subtiling": __version__,
        },
        "wall_clock_s": round(time.time() - t0, 3),
    }
    name = command.replace("-", "_") + "_manifest.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as f:
        f.write(_json_text(doc))
    _diag(f"manifest: {os.path.join(out_dir, name)}")


# ---- command runners (shared by direct invocation and rerun) ----

def run_analyze(config: str, out_dir: str, seed: int, threads: int,
                params: dict) -> int:
    t0 = time.time()
    outputs: list[str] = []
    kind, obj = _load_config(config)
    if kind == "matrix":
        rep = matrix_report(obj)
        doc = {"schema_version": SCHEMA_VERSION, "kind": "matrix",
               "report": rep.as_dict(),
               "matrix": obj.matrix, "lambda": obj.lam}
    else:
        rep = admissibility_report(obj)
        doc = {"schema_version": SCHEMA_VERSION, "kind": "substitution",
               "letters": list(obj.letters), "dim": obj.dim,
               "report": rep.as_dict()}
        if rep.admissible:
            if obj.dim == 1:
                doc["xi_len"] = suspension_lengths(obj).xi_len
            tw = transverse_weights(obj)
            doc["xi_tr"] = tw.xi_tr
            doc["xi_tr_normalization"] = tw.normalization
    text = _json_text(doc)
    _write_text(out_dir, "analyze.json", text, outputs)
    sys.stdout.write(text)
    _manifest(out_dir, "analyze", config, params, seed, threads, outputs, t0)
    if not rep.admissible:
        _diag("inadmissible: " + "; ".join(rep.failures))
        return EXIT_INPUT
    return EXIT_OK


def run_density(config: str, out_dir: str, seed: int, threads: int,
                params: dict) -> int:
    t0 = time.time()
    outputs: list[str] = []
    kind, obj = _load_config(config)
    sub = _require_substitution(kind, obj)
    ctx = _Ctx(sub, seed)
    method = params["method"]
    kw = dict(k=params["k"], replicas=params["replicas"], threads=threads)
    doc: dict = {"schema_version": SCHEMA_VERSION, "alpha": ctx.alpha}
    if method in ("pointwise", "both"):
        est_pw = average_density_pointwise(ctx.graph, ctx.mass, seed=seed, **kw)
        doc["pointwise"] = est_pw.as_dict()
    if method in ("birkhoff", "both"):
        est_bk = average_density_birkhoff(ctx.graph, ctx.mass, seed=seed + 1, **kw)
        doc["birkhoff"] = est_bk.as_dict()
    if method == "both":
        delta = abs(est_pw.c_hat - est_bk.c_hat) / est_bk.c_hat
        doc["cross_check_delta"] = delta
        doc["estimate"] = doc["birkhoff"]
    else:
        doc["estimate"] = doc[method]
    text = _json_text(doc)
    _write_text(out_dir, "density.json", text, outputs)
    sys.stdout.write(text)
    _manifest(out_dir, "density", config, params, seed, threads, outputs, t0)
    return EXIT_OK


def _mean_series(build_one, replicas: int):
    """Replica-average a series op; grids are identical by construction."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    first = build_one()
    acc = first.partials.copy()
    for _ in range(replicas - 1):
        acc += build_one().partials
    return first, acc / replicas


def _series_doc(series, mean: np.ndarray, replicas: int, engine: str) -> dict:
    grid = series.grid
    lg = np.log(grid.astype(np.float64))
    m = int(np.argmin(np.abs(lg - (lg[-1] - np.log(10.0)))))
    windowed = float((mean[-1] * lg[-1] - mean[m] * lg[m]) / (lg[-1] - lg[m])) \
        if m < len(lg) - 1 else float(mean[-1])
    sel = lg >= lg[-1] - np.log(10.0) - 1e-12
    pts = mean[sel]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": engine,
        "replicas": replicas,
        "alpha": series.alpha,
        "target": series.target,
        "final_partial": float(mean[-1]),
        "final_decade_partial": windowed,
    }
    if getattr(series, "c_used", None) is not None:
        doc["c_used"] = series.c_used
    if series.target:
        doc["relative_error_final"] = float(mean[-1] / series.target - 1.0)
        doc["relative_error_final_decade"] = windowed / series.target - 1.0
        if pts.size >= 2:
            doc["oscillation_last_decade"] = \
                float((pts.max() - pts.min()) / abs(series.target))
    return doc


def _series_csv_text(series, mean: np.ndarray) -> str:
    lines = ["scale,partial,target,relative_error"]
    target = series.target
    for s, p in zip(series.grid.tolist(), mean.tolist()):
        sv = repr(float(s)) if isinstance(s, float) else str(s)
        if target:
            lines.append(f"{sv},{p!r},{target!r},{(p - target) / target!r}")
        elif target == 0.0:
            lines.append(f"{sv},{p!r},{target!r},")
        else:
            lines.append(f"{sv},{p!r},,")
    return "\n".join(lines) + "\n"


def _summary_line(doc: dict) -> str:
    parts = [f"final-decade partial {doc['final_decade_partial']!r}"]
    if doc.get("target") is not None:
        parts.append(f"target {doc['target']!r}")
    if "relative_error_final_decade" in doc:
        parts.append(f"relative error {doc['relative_error_final_decade']!r}")
    return "  ".join(parts)


def run_second_order(config: str, out_dir: str, seed: int, threads: int,
                     params: dict) -> int:
    t0 = time.time()
    outputs: list[str] = []
    kind, obj = _load_config(config)
    sub = _require_substitution(kind, obj)
    ctx = _Ctx(sub, seed)
    f = _parse_observable(params.get("f"), ctx, params.get("formal", False))
    c, c_source = _parse_c(params["c"], ctx)
    replicas = params["replicas"]
    n = params.get("n")
    R = params.get("R")
    if sub.dim == 2 and n is not None:
        raise ConfigError("2-d configs take --R, not --n")
    if n is not None:
        n = int(n)
        engine = "symbolic"

        def one():
            x = ctx.sampler.orbit(n)
            return second_order_symbolic(x, f, ctx.alpha, c, n, norm=ctx.norm,
                                         grid_density=params["grid_density"])
    elif R is None:
        raise ConfigError("pass --n (symbolic) or --R (tiling)")
    elif sub.dim == 1:
        R = float(R)
        engine = "suspension"
        xi = ctx.xi_len
        n_tiles = int(np.ceil(R / xi.xi_len.min())) + 4

        def one():
            x = ctx.sampler.orbit(n_tiles)
            win = window_from_sequence(
                TwoSidedWord(np.empty(0, dtype=np.uint8), x), xi, 0, n_tiles)
            return second_order_tiling(win, f, ctx.alpha, c, R, norm=ctx.norm,
                                       grid_density=params["grid_density"])
    else:
        R = float(R)
        engine = "grid"
        q = sub.q
        level = params.get("level")
        if level is None:
            level = 1
            while q ** level < 8 * (int(np.ceil(R)) + 2):
                level += 1

        def one():
            patch = ctx.sampler.patch(int(level), R)
            return second_order_tiling(patch, f, ctx.alpha, c, R, norm=ctx.norm,
                                       grid_density=params["grid_density"])

    series, mean = _mean_series(one, replicas)
    doc = _series_doc(series, mean, replicas, engine)
    doc["c_source"] = c_source
    _write_text(out_dir, "second_order.csv", _series_csv_text(series, mean), outputs)
    _write_text(out_dir, "second_order.json", _json_text(doc), outputs)
    sys.stdout.write(_summary_line(doc) + "\n")
    _manifest(out_dir, "second-order", config, params, seed, threads, outputs, t0)
    return EXIT_OK


def run_frequency(config: str, out_dir: str, seed: int, threads: int,
                  params: dict) -> int:
    t0 = time.time()
    outputs: list[str] = []
    kind, obj = _load_config(config)
    sub = _require_substitution(kind, obj)
    ctx = _Ctx(sub, seed)
    b = _parse_letter(params["b"], sub)
    c, c_source = _parse_c(params["c"], ctx)
    n = int(params["n"])
    replicas = params["replicas"]

    def one():
        x = ctx.sampler.orbit(n)
        return alpha_frequency(x, b, ctx.alpha, n, c=c, norm=ctx.norm,
                               grid_density=params["grid_density"])

    series, mean = _mean_series(one, replicas)
    doc = _series_doc(series, mean, replicas, "frequency")
    doc["letter"] = b
    doc["c_source"] = c_source
    _write_text(out_dir, "frequency.csv", _series_csv_text(series, mean), outputs)
    _write_text(out_dir, "frequency.json", _json_text(doc), outputs)
    sys.stdout.write(_summary_line(doc) + "\n")
    _manifest(out_dir, "frequency", config, params, seed, threads, outputs, t0)
    return EXIT_OK


def run_logfreq(config: str, out_dir: str, seed: int, threads: int,
                params: dict) -> int:
    t0 = time.time()
    outputs: list[str] = []
    kind, obj = _load_config(config)
    sub = _require_substitution(kind, obj)
    ctx = _Ctx(sub, seed)
    a = _parse_letter(params["a"], sub)
    n = int(params["n"])
    replicas = params["replicas"]

    def one():
        return log_frequency(ctx.sampler.orbit(n), a, n,
                             grid_density=params["grid_density"])

    series, mean = _mean_series(one, replicas)
    doc = _series_doc(series, mean, replicas, "logfreq")
    doc["letter"] = a
    _write_text(out_dir, "logfreq.csv", _series_csv_text(series, mean), outputs)
    _write_text(out_dir, "logfreq.json", _json_text(doc), outputs)
    sys.stdout.write(_summary_line(doc) + "\n")
    _manifest(out_dir, "logfreq", config, params, seed, threads, outputs, t0)
    return EXIT_OK


def run_distribution(config: str, out_dir: str, seed: int, threads: int,
                     params: dict) -> int:
    t0 = time.time()
    outputs: list[str] = []
    kind, obj = _load_config(config)
    sub = _require_substitution(kind, obj)
    ctx = _Ctx(sub, seed)
    f = _parse_observable(params.get("f"), ctx, params.get("formal", False))
    table = distribution_experiment(sub, f, int(params["levels"]),
                                    int(params["samples"]), rng=seed)
    doc = {"schema_version": SCHEMA_VERSION,
           "levels": table.levels, "ks": table.ks,
           "samples": table.samples, "resampled": table.resampled}
    _write_text(out_dir, "distribution.csv", table.csv(), outputs)
    _write_text(out_dir, "distribution.json", _json_text(doc), outputs)
    sys.stdout.write(_json_text(doc))
    _manifest(out_dir, "distribution", config, params, seed, threads, outputs, t0)
    return EXIT_OK


_RUNNERS = {
    "analyze": run_analyze,
    "density": run_density,
    "second-order": run_second_order,
    "frequency": run_frequency,
    "logfreq": run_logfreq,
    "distribution": run_distribution,
}


def run_rerun(manifest_path: str, out_dir: Optional[str]) -> int:
    with open(manifest_path, encoding="utf-8") as f:
        man = json.load(f)
    command = man["command"]
    if command not in _RUNNERS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    recorded = man.get("config_sha256")
    if recorded is not None and _config_sha256(man["config"]) != recorded:
        raise ConfigError(f"{man['config']}: config changed since the recorded "
                          "run (sha256 differs)")
    target = out_dir if out_dir is not None else os.path.dirname(
        os.path.abspath(manifest_path))
    return _RUNNERS[command](man["config"], target, int(man["seed"]),
                             int(man["threads"]), man["parameters"])


# ---- argument parsing ----

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subtiling",
        description="Substitution tilings: spectral analysis, density "
                    "estimation and second-order ergodic verification.")
    sp = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="substitution JSON config")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--threads", type=int, default=0,
                       help="worker threads for density replicas; 0 or 1 runs "
                            "serially (default 0); other commands ignore it")
        p.add_argument("--out", default=".", help="output directory (default .)")

    p = sp.add_parser("analyze", help="admissibility and spectral report")
    common(p)

    p = sp.add_parser("density", help="average density estimate")
    common(p)
    p.add_argument("--method", choices=["pointwise", "birkhoff", "both"],
                   default="both")
    p.add_argument("--k", type=int, default=40, help="zoom scales per replica")
    p.add_argument("--replicas", type=int, default=64)

    p = sp.add_parser("second-order", help="log-averaged second-order series")
    common(p)
    p.add_argument("--n", type=int, help="symbolic prefix length (1-d)")
    p.add_argument("--R", type=float, help="tiling radius (1-d window or 2-d ball)")
    p.add_argument("--c", required=True,
                   help="density: a number or a density.json path")
    p.add_argument("--f", help="observable letter:weight[,letter:weight...]; "
                               "default: per-letter mass")
    p.add_argument("--formal", action="store_true",
                   help="allow weights on expanding letters in targets")
    p.add_argument("--replicas", type=int, default=64)
    p.add_argument("--level", type=int, help="2-d supertile level (default auto)")
    p.add_argument("--grid-density", type=int, default=8, dest="grid_density")

    p = sp.add_parser("frequency", help="alpha-dimensional letter frequency")
    common(p)
    p.add_argument("--b", required=True, help="contracting letter")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--replicas", type=int, default=64)
    p.add_argument("--grid-density", type=int, default=8, dest="grid_density")

    p = sp.add_parser("logfreq", help="logarithmic letter frequency")
    common(p)
    p.add_argument("--a", required=True, help="letter")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, default=16)
    p.add_argument("--grid-density", type=int, default=8, dest="grid_density")

    p = sp.add_parser("distribution", help="renormalized-sum distribution table")
    common(p)
    p.add_argument("--f", help="observable letter:weight[,...]; default mass")
    p.add_argument("--formal", action="store_true")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--samples", type=int, default=10000)

    p = sp.add_parser("rerun", help="replay a recorded run byte for byte")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="output directory (default: manifest directory)")
    return ap


_PARAM_KEYS = {
    "analyze": [],
    "density": ["method", "k", "replicas"],
    "second-order": ["n", "R", "c", "f", "formal", "replicas", "level",
                     "grid_density"],
    "frequency": ["b", "n", "c", "replicas", "grid_density"],
    "logfreq": ["a", "n", "replicas", "grid_density"],
    "distribution": ["f", "formal", "levels", "samples"],
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            return run_rerun(args.manifest, args.out)
        params = {k: getattr(args, k) for k in _PARAM_KEYS[args.command]}
        return _RUNNERS[args.command](args.config, args.out, args.seed,
                                      args.threads, params)
    except (ConfigError, ValueError, FileNotFoundError, json.JSONDecodeError,
            LengthCapError) as e:
        _diag(f"error: {e}")
        return EXIT_INPUT
    except BracketPrecisionError as e:
        _diag(f"bracket precision: {e}")
        return EXIT_BRACKET
    except CoverageError as e:
        _diag(f"coverage: {e}")
        return EXIT_COVERAGE


if __name__ == "__main__":
    sys.exit(main())
