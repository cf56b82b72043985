"""Command-line front end: analyze, estimate, verify, export.

Every command reads a JSON config (substitution rules, or a bare
matrix with an external inflation factor for `analyze`), writes its
data products into --out, and records a manifest naming the command,
parameters, seed, output files and the sha256 of the config bytes read.

One driver, `_run`, does what every command shares: it reads the config
once, refuses a matrix-only config for every command but `analyze`,
builds the admissible working set `_Ctx`, writes the files and the
standard output that the command's body returns, and writes the
manifest.  A body maps (working set, parameters, seed, threads) to
(files, stdout text, exit code).  A manifest's parameters are the
command's own options as the parser declares them; only `density`
takes --threads, the number of worker processes its replicas run on
(0, the default, one per available CPU), and the other manifests
record 0.  `rerun --manifest` checks a recorded manifest against those
options and replays it through the same driver, reproducing the
outputs byte for byte; it refuses (exit 2) a malformed manifest, or
config bytes whose sha256 differs from the recorded one, before
decoding them.

Exit codes: 0 success, 2 invalid or inadmissible input (including a
word or patch that would exceed the length cap, an out-of-range
option, named in the error line, and a config, manifest or output
path that the operating system cannot read or write), 3
bracket precision unattainable, 4 coverage shortfall.  Data goes to
files and standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
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
from .gdifs import BracketPrecisionError, _run_density, build_graph, mass_vector
from .spectral import _matrix_config, admissibility_report, matrix_report
from .substitution import (ConfigError, LengthCapError, Substitution, TwoSidedWord,
                           _json_doc, parse_substitution)
from .tiling import (CoverageError, suspension_lengths, window_from_sequence)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BRACKET = 3
EXIT_COVERAGE = 4


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _numpy_json(obj):
    """What json cannot encode itself: numpy arrays and numpy scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=_numpy_json) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _load_config(path: str, recorded_sha256: Optional[str] = None):
    """(kind, object, bytes) of substitution rules or a bare matrix config, from
    one read; bytes whose sha256 differs from a rerun's recorded one are not decoded."""
    with open(path, "rb") as f:
        data = f.read()
    if recorded_sha256 is not None and hashlib.sha256(data).hexdigest() != recorded_sha256:
        raise ConfigError(f"{path}: config changed since the recorded "
                          "run (sha256 differs)")
    # decoded as open(path, encoding="utf-8") decodes, newlines included
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    doc = _json_doc(text, path)
    if isinstance(doc, dict) and "matrix" in doc and "rules" not in doc:
        return "matrix", _matrix_config(text, path), data
    return "substitution", parse_substitution(text, path), data


class _Ctx:
    """Admissible-substitution working set shared by the verify commands."""

    def __init__(self, sub: Substitution, seed: int) -> None:
        self.sub = sub
        self.graph = build_graph(sub)  # raises on an inadmissible substitution
        self.alpha = float(self.graph.alpha)
        self.xi_len = self.graph.lengths
        tw = transverse_weights(sub, self.xi_len)
        self.mass = mass_vector(self.graph, tw.xi_tr)
        self.norm = measure_normalization(sub, self.xi_len, tw, self.mass)
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


def _at_least(option: str, value, least: int):
    """`value` of `option`, refused by name below `least`."""
    if value < least:
        raise ConfigError(f"{option} must be at least {least}, got {value!r}")
    return value


def _parse_c(spec: str, ctx: _Ctx) -> tuple[float, str]:
    """A float, or a density-report JSON with a c_hat field; coupled via gamma."""
    try:
        c_hat = float(spec)
        source = "literal"
    except ValueError:
        with open(spec, encoding="utf-8") as f:
            doc = _json_doc(f.read(), spec)
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


def _manifest(out_dir: str, command: str, config: str, config_bytes: bytes,
              params: dict, seed: int, threads: int, outputs: list[str],
              t0: float) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": os.path.abspath(config),
        # hashed after the run: the first sha256 sets up OpenSSL (about
        # 0.2 MB), which would otherwise sit under the command's peak RSS
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
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
    path = os.path.join(out_dir, command.replace("-", "_") + "_manifest.json")
    _write_text(path, _json_text(doc))
    _diag(f"manifest: {path}")


# ---- command bodies: (ctx or loaded config, params, seed, threads)
#      -> ({file name: text}, stdout text, exit code) ----

def _analyze(loaded, params: dict, seed: int, threads: int):
    kind, obj = loaded
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
            lengths = None
            if obj.dim == 1:
                lengths = suspension_lengths(obj)
                doc["xi_len"] = lengths.xi_len
            tw = transverse_weights(obj, lengths)
            doc["xi_tr"] = tw.xi_tr
            doc["xi_tr_normalization"] = tw.normalization
    if not rep.admissible:
        _diag("inadmissible: " + "; ".join(rep.failures))
    text = _json_text(doc)
    return {"analyze.json": text}, text, EXIT_OK if rep.admissible else EXIT_INPUT


def _density(ctx: _Ctx, params: dict, seed: int, threads: int):
    method = params["method"]
    # with both, one pool runs the replicas of the two estimates
    runs = {"pointwise": [(seed, "pointwise")], "birkhoff": [(seed + 1, "birkhoff")],
            "both": [(seed, "pointwise"), (seed + 1, "birkhoff")]}[method]
    ests = _run_density(ctx.graph, ctx.mass, runs, params["k"], params["replicas"],
                        threads=threads)
    doc: dict = {"schema_version": SCHEMA_VERSION, "alpha": ctx.alpha}
    for est in ests:
        doc[est.method] = est.as_dict()
    if method == "both":
        est_pw, est_bk = ests
        doc["cross_check_delta"] = abs(est_pw.c_hat - est_bk.c_hat) / est_bk.c_hat
        doc["estimate"] = doc["birkhoff"]
    else:
        doc["estimate"] = doc[method]
    text = _json_text(doc)
    return {"density.json": text}, text, EXIT_OK


def _mean_series(build_one, replicas: int):
    """Replica-average a series op; grids are identical by construction."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    first = build_one()
    acc = first.partials.copy()
    for _ in range(replicas - 1):
        acc += build_one().partials
    return dataclasses.replace(first, partials=acc / replicas)


def _series_outputs(stem: str, build_one, replicas: int, **extra):
    """<stem>.csv, <stem>.json and the summary line of a replica-averaged series.

    A one-point grid (--n 2, --R 2) has no decade to difference over: it
    reports its final partial as the final-decade one and no oscillation.
    """
    mean = _mean_series(build_one, replicas)
    final = float(mean.partials[-1])
    one_point = mean.grid.size == 1
    windowed = final if one_point else mean.final_decade(10.0)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": mean.kind,
        "replicas": replicas,
        "alpha": mean.alpha,
        "target": mean.target,
        "final_partial": final,
        "final_decade_partial": windowed,
        **extra,
    }
    if mean.c_used is not None:
        doc["c_used"] = mean.c_used
    if mean.letter is not None:
        doc["letter"] = mean.letter
    summary = [f"final-decade partial {windowed!r}"]
    if mean.target is not None:
        summary.append(f"target {mean.target!r}")
    if mean.target:
        doc["relative_error_final"] = final / mean.target - 1.0
        doc["relative_error_final_decade"] = windowed / mean.target - 1.0
        summary.append(f"relative error {doc['relative_error_final_decade']!r}")
        if not one_point:
            doc["oscillation_last_decade"] = mean.last_decade_oscillation(10.0)
    files = {stem + ".csv": mean.csv(), stem + ".json": _json_text(doc)}
    return files, "  ".join(summary) + "\n", EXIT_OK


def _second_order(ctx: _Ctx, params: dict, seed: int, threads: int):
    sub = ctx.sub
    f = _parse_observable(params["f"], ctx, params["formal"])
    c, c_source = _parse_c(params["c"], ctx)
    grid_density = _at_least("--grid-density", params["grid_density"], 1)
    n = params["n"]
    R = params["R"]
    if sub.dim == 2 and n is not None:
        raise ConfigError("2-d configs take --R, not --n")
    # a manifest's R may be any JSON number; ints compare with floats exactly
    if R is not None and not abs(R) <= sys.float_info.max:
        raise ConfigError(f"--R must be a finite number, got {R!r}")
    if n is not None:
        n = _at_least("--n", int(n), 2)

        def one():
            x = ctx.sampler.orbit(n)
            return second_order_symbolic(x, f, ctx.alpha, c, n, norm=ctx.norm,
                                         grid_density=grid_density)
    elif R is None:
        raise ConfigError("pass --n (symbolic) or --R (tiling)")
    elif sub.dim == 1:
        R = _at_least("--R", float(R), 2)
        xi = ctx.xi_len
        n_tiles = int(np.ceil(R / xi.xi_len.min())) + 4

        def one():
            x = ctx.sampler.orbit(n_tiles)
            win = window_from_sequence(
                TwoSidedWord(np.empty(0, dtype=np.uint8), x), xi, 0, n_tiles)
            return second_order_tiling(win, f, ctx.alpha, c, R, norm=ctx.norm,
                                       grid_density=grid_density)
    else:
        R = _at_least("--R", float(R), 2)
        q = sub.q
        level = params["level"]
        if level is None:
            level = 1
            while q ** level < 8 * (int(np.ceil(R)) + 2):
                level += 1
        else:
            level = _at_least("--level", level, 1)

        def one():
            patch = ctx.sampler.patch(level, R)
            return second_order_tiling(patch, f, ctx.alpha, c, R, norm=ctx.norm,
                                       grid_density=grid_density)

    return _series_outputs("second_order", one, params["replicas"],
                           c_source=c_source)


def _frequency(ctx: _Ctx, params: dict, seed: int, threads: int):
    b = _parse_letter(params["b"], ctx.sub)
    c, c_source = _parse_c(params["c"], ctx)
    n = _at_least("--n", int(params["n"]), 2)
    grid_density = _at_least("--grid-density", params["grid_density"], 1)

    def one():
        x = ctx.sampler.orbit(n)
        return alpha_frequency(x, b, ctx.alpha, n, c=c, norm=ctx.norm,
                               grid_density=grid_density)

    return _series_outputs("frequency", one, params["replicas"], c_source=c_source)


def _logfreq(ctx: _Ctx, params: dict, seed: int, threads: int):
    a = _parse_letter(params["a"], ctx.sub)
    n = _at_least("--n", int(params["n"]), 2)
    grid_density = _at_least("--grid-density", params["grid_density"], 1)

    def one():
        return log_frequency(ctx.sampler.orbit(n), a, n,
                             grid_density=grid_density)

    return _series_outputs("logfreq", one, params["replicas"])


def _distribution(ctx: _Ctx, params: dict, seed: int, threads: int):
    f = _parse_observable(params["f"], ctx, params["formal"])
    levels = _at_least("--levels", int(params["levels"]), 0)
    samples = _at_least("--samples", int(params["samples"]), 1)
    table = distribution_experiment(ctx.sub, f, levels, samples, rng=seed)
    doc = {"schema_version": SCHEMA_VERSION,
           "levels": table.levels, "ks": table.ks,
           "samples": table.samples, "resampled": table.resampled}
    text = _json_text(doc)
    return {"distribution.csv": table.csv(), "distribution.json": text}, text, EXIT_OK


_COMMANDS = {
    "analyze": _analyze,
    "density": _density,
    "second-order": _second_order,
    "frequency": _frequency,
    "logfreq": _logfreq,
    "distribution": _distribution,
}

# the only command that runs replicas on worker processes
_THREADED = ("density",)


def _run(command: str, config: str, out_dir: str, seed: int, threads: int,
         params: dict, recorded_sha256: Optional[str] = None) -> int:
    """Run one command and record its manifest; shared by direct runs and rerun."""
    t0 = time.time()
    kind, obj, config_bytes = _load_config(config, recorded_sha256)
    if command == "analyze":
        source = (kind, obj)
    elif kind != "substitution":
        raise ConfigError("this command needs substitution rules, "
                          "not a matrix-only config")
    else:
        source = _Ctx(obj, seed)
    files, stdout, code = _COMMANDS[command](source, params, seed, threads)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        _write_text(os.path.join(out_dir, name), text)
    sys.stdout.write(stdout)
    _manifest(out_dir, command, config, config_bytes, params, seed, threads,
              list(files), t0)
    return code


def _recordable(option: argparse.Action, value) -> bool:
    """Whether `value` is one that parsing `option` could have produced."""
    if option.nargs == 0:  # a flag
        return isinstance(value, bool)
    if value is None:
        return option.default is None and not option.required
    if isinstance(value, bool):
        return False
    if option.choices is not None:
        return value in option.choices
    return isinstance(value, {int: int, float: (int, float)}.get(option.type, str))


def _rerun(manifest_path: str, out_dir: Optional[str],
           options: dict[str, list[argparse.Action]]) -> int:
    with open(manifest_path, encoding="utf-8") as f:
        man = _json_doc(f.read(), manifest_path)
    if not isinstance(man, dict):
        raise ConfigError(f"{manifest_path}: manifest must be a JSON object")
    for key in ("command", "config", "seed", "parameters"):
        if key not in man:
            raise ConfigError(f"{manifest_path}: manifest has no {key!r}")
    command, config, seed, params = (man["command"], man["config"], man["seed"],
                                     man["parameters"])
    if not (isinstance(command, str) and command in _COMMANDS):
        raise ConfigError(f"manifest names unknown command {command!r}")
    threads = man.get("threads", 0) if command in _THREADED else 0
    if not isinstance(config, str):
        raise ConfigError(f"{manifest_path}: manifest config must be a path")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (seed, threads)):
        raise ConfigError(f"{manifest_path}: manifest seed and threads must be integers")
    if not isinstance(params, dict):
        raise ConfigError(f"{manifest_path}: manifest parameters must be an object")
    expected = {o.dest: o for o in options[command]}
    for key in params:
        if key not in expected:
            raise ConfigError(f"{manifest_path}: {command} has no parameter {key!r}")
    for key, option in expected.items():
        if key not in params:
            raise ConfigError(f"{manifest_path}: {command} parameters lack {key!r}")
        if not _recordable(option, params[key]):
            raise ConfigError(f"{manifest_path}: {command} parameter {key!r} "
                              f"has an invalid value {params[key]!r}")
    target = out_dir if out_dir is not None else os.path.dirname(
        os.path.abspath(manifest_path))
    return _run(command, config, target, seed, threads, params,
                man.get("config_sha256"))


# ---- argument parsing ----

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, list[argparse.Action]]]:
    """The parser, and per command the options its manifest records as parameters."""
    ap = argparse.ArgumentParser(
        prog="subtiling",
        description="Substitution tilings: spectral analysis, density "
                    "estimation and second-order ergodic verification.")
    sp = ap.add_subparsers(dest="command", required=True)
    options: dict[str, list[argparse.Action]] = {}

    def command(name, help):
        p = sp.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="substitution JSON config")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if name in _THREADED:
            p.add_argument("--threads", type=int, default=0,
                           help="worker processes; 1 runs serially; 0 (default) "
                                "one per available CPU")
        p.add_argument("--out", default=".", help="output directory (default .)")
        recorded = options[name] = []
        return lambda *flags, **kw: recorded.append(p.add_argument(*flags, **kw))

    command("analyze", "admissibility and spectral report")

    opt = command("density", "average density estimate")
    opt("--method", choices=["pointwise", "birkhoff", "both"], default="both")
    opt("--k", type=int, default=40, help="zoom scales per replica")
    opt("--replicas", type=int, default=64)

    opt = command("second-order", "log-averaged second-order series")
    opt("--n", type=int, help="symbolic prefix length (1-d)")
    opt("--R", type=float, help="tiling radius (1-d window or 2-d ball)")
    opt("--c", required=True, help="density: a number or a density.json path")
    opt("--f", help="observable letter:weight[,letter:weight...]; "
                    "default: per-letter mass")
    opt("--formal", action="store_true",
        help="allow weights on expanding letters in targets")
    opt("--replicas", type=int, default=64)
    opt("--level", type=int, help="2-d supertile level (default auto)")
    opt("--grid-density", type=int, default=8, dest="grid_density")

    opt = command("frequency", "alpha-dimensional letter frequency")
    opt("--b", required=True, help="contracting letter")
    opt("--n", type=int, required=True)
    opt("--c", required=True)
    opt("--replicas", type=int, default=64)
    opt("--grid-density", type=int, default=8, dest="grid_density")

    opt = command("logfreq", "logarithmic letter frequency")
    opt("--a", required=True, help="letter")
    opt("--n", type=int, required=True)
    opt("--replicas", type=int, default=16)
    opt("--grid-density", type=int, default=8, dest="grid_density")

    opt = command("distribution", "renormalized-sum distribution table")
    opt("--f", help="observable letter:weight[,...]; default mass")
    opt("--formal", action="store_true")
    opt("--levels", type=int, default=8)
    opt("--samples", type=int, default=10000)

    p = sp.add_parser("rerun", help="replay a recorded run byte for byte")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="output directory (default: manifest directory)")
    return ap, options


def main(argv: Optional[list[str]] = None) -> int:
    parser, options = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return _rerun(args.manifest, args.out, options)
        params = {o.dest: getattr(args, o.dest) for o in options[args.command]}
        return _run(args.command, args.config, args.out, args.seed,
                    getattr(args, "threads", 0), params)
    except (ConfigError, ValueError, OSError, LengthCapError) as e:
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
