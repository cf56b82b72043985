import builtins
import hashlib
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subtiling
from subtiling import cli, fixture_path
from subtiling.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


# ---- analyze ----

def test_analyze_admissible(tmp_path):
    assert run("analyze", "--config", fixture_path("cantor"), "--out", tmp_path) == 0
    doc = read_json(tmp_path / "analyze.json")
    assert doc["kind"] == "substitution"
    assert doc["report"]["failures"] == []
    assert doc["report"]["alpha"] == pytest.approx(np.log(2) / np.log(3), rel=1e-12)
    assert doc["xi_len"] == [1.0, 1.0] and doc["xi_tr"] == [1.0]
    man = read_json(tmp_path / "analyze_manifest.json")
    assert man["command"] == "analyze" and man["schema_version"] == 1
    assert "analyze.json" in man["outputs"]


def test_analyze_inadmissible_still_writes(tmp_path):
    assert run("analyze", "--config", fixture_path("openq1"), "--out", tmp_path) == 2
    doc = read_json(tmp_path / "analyze.json")
    # block radii are plain floats, so no numpy repr leaks into the text
    assert doc["report"]["failures"][0].startswith(
        "A part not single-radius: minimal classes have radii [5.0, 4.0];")
    assert doc["report"]["rho_A"] == 5.0


def test_analyze_matrix_config(tmp_path):
    cfg = fixture_path("fractal73_matrix")
    assert run("analyze", "--config", cfg, "--out", tmp_path) == 0
    doc = read_json(tmp_path / "analyze.json")
    assert doc["kind"] == "matrix"
    assert abs(doc["report"]["alpha"] - 1.258) < 1e-3


@pytest.mark.parametrize("doc", [
    {"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}},
    {"alphabet": ["a"], "rules": {"a": "aa"}},
    {"matrix": [[1, 1], [1, 0]], "lambda": 1.618},
])
def test_analyze_single_class_still_writes(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run("analyze", "--config", cfg, "--out", tmp_path / "out") == 2
    report = read_json(tmp_path / "out" / "analyze.json")["report"]
    failure = "no block decomposition: a single communication class leaves no A part"
    assert report["failures"] == [failure]
    assert report["rho_A"] is None and report["rho_B"] is None
    assert capsys.readouterr().err.splitlines()[0] == "inadmissible: " + failure


def test_analyze_long_period_block(tmp_path, capsys):
    # one class, a 300-cycle with one entry 2: the shifted power iteration
    # cannot settle in its step budget, so the radius comes from eig
    n = 300
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[(i + 1) % n][i] = 1
    matrix[0][n - 1] = 2
    cfg = tmp_path / "cycle.json"
    cfg.write_text(json.dumps({"matrix": matrix, "lambda": 2.0}))
    assert run("analyze", "--config", cfg, "--out", tmp_path / "out") == 2
    report = read_json(tmp_path / "out" / "analyze.json")["report"]
    failure = "no block decomposition: a single communication class leaves no A part"
    assert report["failures"] == [failure]
    assert capsys.readouterr().err.splitlines()[0] == "inadmissible: " + failure


@pytest.mark.parametrize("kind", ["matrix", "substitution"])
def test_analyze_names_config_with_overlong_number(tmp_path, capsys, kind):
    digits = "1" * 5001
    cfg = tmp_path / "cfg.json"
    if kind == "matrix":
        cfg.write_text('{"matrix": [[2]], "lambda": ' + digits + "}")
    else:
        cfg.write_text('{"alphabet": ["a"], "dim": ' + digits + ', "rules": {"a": "aa"}}')
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: unreadable JSON: ")


@pytest.mark.parametrize("field, value", [
    ("lambda", None), ("lambda", "1.5"), ("lambda", "inf"), ("lambda", "nan"),
    ("lambda", float("inf")), ("lambda", float("nan")), ("lambda", True), ("lambda", 1.0),
    ("lambda", 10 ** 400),
    ("dim", None), ("dim", 7), ("dim", True),
    ("matrix", [[1, 1.5], [0, 2]]), ("matrix", [[1, "1"], [0, 2]]),
    ("matrix", [[1, True], [0, 2]]), ("matrix", [[1, -1], [0, 2]]),
    ("matrix", [[1, 2 ** 63], [0, 2]]), ("matrix", []), ("matrix", [[1, 1]]),
    ("matrix", [1, 2]), ("matrix", "12"),
])
def test_analyze_rejects_malformed_matrix_config(tmp_path, capsys, field, value):
    doc = read_json(Path(fixture_path("fractal73_matrix")))
    doc[field] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: ")


def test_analyze_interior_search_stops_at_the_cell_cap(tmp_path, capsys):
    # b's B cells never leave the top row, so no power has an interior B
    # cell; power 9 would hold 3^18 cells (and 3^20 about 3 GiB), so the
    # search reports level 8 instead of expanding further
    cfg = tmp_path / "top_row.json"
    cfg.write_text(json.dumps({"alphabet": ["a", "b"], "dim": 2, "rules": {
        "a": ["aaa", "aaa", "aaa"], "b": ["bab", "aaa", "aaa"]}}))
    assert run("analyze", "--config", cfg, "--out", tmp_path / "out") == 2
    report = read_json(tmp_path / "out" / "analyze.json")["report"]
    assert report["tec2"] == {"ok": False, "witness_k": None}
    assert report["failures"][-1] == (
        "no interior B cell in any power of the grid of 'b' for k <= 8; "
        "power 9 would exceed the cap 100000000")
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].startswith("inadmissible: ") and len(err) == 2


def test_analyze_missing_config(tmp_path):
    assert run("analyze", "--config", tmp_path / "nope.json", "--out", tmp_path) == 2


@pytest.mark.parametrize("case", ["config is a directory", "out below a file"])
def test_os_errors_exit_2(tmp_path, capsys, case):
    config, out = fixture_path("cantor"), tmp_path / "out"
    if case == "config is a directory":
        config = tmp_path
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
    assert run("analyze", "--config", config, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# ---- density ----

def test_density_repeatable_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("density", "--config", fixture_path("cantor"), "--seed", 11,
            "--k", 6, "--replicas", 4, "--method", "both")
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert (a / "density.json").read_bytes() == (b / "density.json").read_bytes()
    doc = read_json(a / "density.json")
    assert doc["estimate"]["method"] == "birkhoff"
    assert doc["cross_check_delta"] >= 0.0


@pytest.mark.parametrize("bad", [("--k", 0), ("--replicas", 0), ("--replicas", -1),
                                 ("--threads", -1), ("--threads", -3)])
def test_density_rejects_bad_counts(tmp_path, capsys, bad):
    code = run("density", "--config", fixture_path("cantor"), "--k", 4,
               "--replicas", 2, *bad, "--out", tmp_path)
    assert code == 2
    assert not (tmp_path / "density.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_json_text_rejects_nan():
    from subtiling.cli import _json_text
    with pytest.raises(ValueError):
        _json_text({"c_hat": float("nan")})


def _plain(obj):
    """The recursive converter `_json_text` once ran before json.dumps: the oracle."""
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


def test_json_text_matches_plain_oracle():
    tree = {
        "tuple": (1, 2.5, np.int64(3), (np.float64(0.1), "x")),
        "nested": {"grid": np.arange(6, dtype=np.int64).reshape(2, 3),
                   "ratio": np.float64(1.0) / 3.0,
                   "mixed": [np.bool_(True), np.float32(0.1), np.int32(-7),
                             np.uint8(255), None, False]},
        "floats": np.array([0.1, 1e-300, 2.0, -0.0, 1e16]),
        "bools": np.array([True, False]),
        "empty": np.empty((0, 2)),
        "scalar": np.array(4.5)[()],
    }
    expected = json.dumps(_plain(tree), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert cli._json_text(tree) == expected


def test_density_rejects_matrix_config(tmp_path):
    code = run("density", "--config", fixture_path("fractal73_matrix"),
               "--out", tmp_path, "--k", 4, "--replicas", 2)
    assert code == 2


# ---- second-order ----

def test_second_order_zero_observable(tmp_path):
    code = run("second-order", "--config", fixture_path("cantor"),
               "--n", 3 ** 5, "--c", 0.5, "--f", "0:0",
               "--replicas", 2, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "second_order.json")
    assert doc["final_partial"] == 0.0 and doc["final_decade_partial"] == 0.0
    lines = (tmp_path / "second_order.csv").read_text().splitlines()
    assert lines[0] == "scale,partial,target,relative_error"
    assert all(line.split(",")[1] == "0.0" for line in lines[1:])


def test_second_order_coverage_exit(tmp_path):
    code = run("second-order", "--config", fixture_path("carpet"),
               "--R", 81, "--c", 0.7, "--level", 3,
               "--replicas", 1, "--out", tmp_path)
    assert code == 4


def test_second_order_level_too_low_for_the_hole(tmp_path, capsys):
    # at level 6 every centre far enough from the edge for R 243 lies in
    # the carpet's central hole, so all draws are rejected
    code = run("second-order", "--config", fixture_path("carpet"),
               "--R", 243, "--level", 6, "--c", 0.6357,
               "--replicas", 1, "--out", tmp_path)
    assert code == 4
    assert not (tmp_path / "second_order.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("coverage: ")
    assert "--level" in err[0]


@pytest.mark.parametrize("size", [("--n", 2), ("--R", 2)])
def test_second_order_one_point_grid_summary(tmp_path, size):
    code = run("second-order", "--config", fixture_path("cantor"), *size,
               "--c", 0.47, "--replicas", 3, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "second_order.json")
    assert doc["final_decade_partial"] == doc["final_partial"]
    assert doc["relative_error_final_decade"] == doc["relative_error_final"]
    assert "oscillation_last_decade" not in doc
    assert len((tmp_path / "second_order.csv").read_text().splitlines()) == 2


def test_second_order_summary_of_a_longer_grid(tmp_path):
    code = run("second-order", "--config", fixture_path("cantor"), "--n", 3 ** 5,
               "--c", 0.47, "--replicas", 3, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "second_order.json")
    assert doc["final_decade_partial"] != doc["final_partial"]
    assert doc["oscillation_last_decade"] > 0.0
    assert doc["engine"] == "symbolic" and doc["c_used"] == 0.47


def test_second_order_2d_needs_R(tmp_path):
    code = run("second-order", "--config", fixture_path("carpet"),
               "--n", 100, "--c", 0.7, "--out", tmp_path)
    assert code == 2


@pytest.mark.parametrize("config", ["cantor", "carpet"])
@pytest.mark.parametrize("R", ["inf", "nan"])
def test_second_order_refuses_non_finite_R(tmp_path, capsys, config, R):
    code = run("second-order", "--config", fixture_path(config), "--R", R,
               "--c", 0.6, "--replicas", 1, "--out", tmp_path)
    assert code == 2
    assert not (tmp_path / "second_order.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"error: --R must be a finite number, got {float(R)!r}"


@pytest.mark.parametrize("argv, line", [
    (("second-order", "cantor", "--R", -5, "--c", 0.6), "--R must be at least 2, got -5.0"),
    (("second-order", "carpet", "--R", -5, "--c", 0.6), "--R must be at least 2, got -5.0"),
    (("second-order", "cantor", "--R", 1.5, "--c", 0.6), "--R must be at least 2, got 1.5"),
    (("second-order", "carpet", "--R", 1.5, "--c", 0.6), "--R must be at least 2, got 1.5"),
    (("second-order", "cantor", "--n", 1, "--c", 0.6), "--n must be at least 2, got 1"),
    (("frequency", "cantor", "--b", 1, "--n", 1, "--c", 0.48), "--n must be at least 2, got 1"),
    (("logfreq", "cantor", "--a", 0, "--n", 0), "--n must be at least 2, got 0"),
    (("logfreq", "cantor", "--a", 0, "--n", -3), "--n must be at least 2, got -3"),
], ids=["cantor-R-5", "carpet-R-5", "cantor-R1.5", "carpet-R1.5", "second-order-n1",
        "frequency-n1", "logfreq-n0", "logfreq-n-3"])
def test_series_refuse_n_and_R_below_2_by_the_option(tmp_path, capsys, argv, line):
    command, config, *rest = argv
    code = run(command, "--config", fixture_path(config), *rest, "--replicas", 1,
               "--out", tmp_path)
    assert code == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err.strip().splitlines() == ["error: " + line]


def test_second_order_length_cap_exit(tmp_path, capsys):
    code = run("second-order", "--config", fixture_path("cantor"),
               "--n", 10 ** 11, "--c", 0.47, "--replicas", 1, "--out", tmp_path)
    assert code == 2
    assert not (tmp_path / "second_order.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


SERIES_ARGS = {
    "second-order": ("--n", 3 ** 5, "--c", 0.5),
    "frequency": ("--b", 1, "--n", 3 ** 5, "--c", 0.48),
    "logfreq": ("--a", 0, "--n", 3 ** 5),
}


@pytest.mark.parametrize("replicas", [0, -1])
@pytest.mark.parametrize("command", sorted(SERIES_ARGS))
def test_series_rejects_bad_replicas(tmp_path, capsys, command, replicas):
    code = run(command, "--config", fixture_path("cantor"), *SERIES_ARGS[command],
               "--replicas", replicas, "--out", tmp_path)
    assert code == 2
    assert not tmp_path.exists() or not any(tmp_path.iterdir())
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_second_order_c_from_density(tmp_path):
    assert run("density", "--config", fixture_path("cantor"), "--seed", 5,
               "--k", 6, "--replicas", 4, "--out", tmp_path) == 0
    code = run("second-order", "--config", fixture_path("cantor"),
               "--n", 3 ** 5, "--c", tmp_path / "density.json",
               "--replicas", 2, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "second_order.json")
    est = read_json(tmp_path / "density.json")["estimate"]["c_hat"]
    assert doc["c_used"] == pytest.approx(est, rel=1e-12)


NONFINITE_C = {
    "second-order": ("--n", 1000, "--replicas", 2),
    "frequency": ("--b", 1, "--n", 1000, "--replicas", 2),
}


@pytest.mark.parametrize("c", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("command", sorted(NONFINITE_C))
def test_series_reject_nonfinite_c(tmp_path, capsys, command, c):
    out = tmp_path / "out"
    code = run(command, "--config", fixture_path("cantor"), *NONFINITE_C[command],
               f"--c={c}", "--out", out)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: c must be finite")


@pytest.mark.parametrize("report,message", [
    ('{"estimate": {"c_hat": Infinity}}', "c must be finite"),
    ('{"estimate": {"c_hat": NaN}}', "c must be finite"),
    ('{"estimate": {"c_hat": null}}', "c_hat is not a number"),
    ('[0.47]', "no c_hat field"),
])
def test_second_order_rejects_bad_c_hat(tmp_path, capsys, report, message):
    path = tmp_path / "density.json"
    path.write_text(report)
    out = tmp_path / "out"
    code = run("second-order", "--config", fixture_path("cantor"),
               "--n", 1000, "--c", path, "--replicas", 2, "--out", out)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


# ---- frequency / logfreq / distribution ----

def test_frequency_run(tmp_path):
    code = run("frequency", "--config", fixture_path("cantor"),
               "--b", 1, "--n", 3 ** 5, "--c", 0.48,
               "--replicas", 4, "--seed", 3, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "frequency.json")
    assert doc["target"] == pytest.approx(np.log(2) / np.log(3) * 0.48, rel=1e-12)
    assert (doc["engine"], doc["letter"]) == ("frequency", 1) and "c_used" not in doc
    assert (tmp_path / "frequency.csv").exists()


def test_frequency_rejects_a_letter(tmp_path):
    code = run("frequency", "--config", fixture_path("cantor"),
               "--b", 0, "--n", 100, "--c", 0.48, "--out", tmp_path)
    assert code == 2


def test_logfreq_run(tmp_path):
    code = run("logfreq", "--config", fixture_path("cantor"),
               "--a", "0", "--n", 3 ** 5, "--replicas", 2, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "logfreq.json")
    assert (doc["engine"], doc["letter"], doc["alpha"]) == ("logfreq", 0, 1.0)


def test_distribution_run(tmp_path):
    code = run("distribution", "--config", fixture_path("cantor"),
               "--levels", 3, "--samples", 200, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "distribution.json")
    assert doc["ks"][0] == 1.0
    assert (tmp_path / "distribution.csv").exists()


# ---- rerun ----

def test_rerun_byte_identity(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("second-order", "--config", fixture_path("cantor"),
               "--n", 3 ** 5, "--c", 0.5, "--seed", 9,
               "--replicas", 2, "--out", first) == 0
    assert run("rerun", "--manifest", first / "second_order_manifest.json",
               "--out", again) == 0
    for name in ("second_order.json", "second_order.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_rerun_preserves_seed(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("density", "--config", fixture_path("cantor"), "--seed", 33,
               "--k", 5, "--replicas", 3, "--out", first) == 0
    assert run("rerun", "--manifest", first / "density_manifest.json",
               "--out", again) == 0
    assert (first / "density.json").read_bytes() == (again / "density.json").read_bytes()
    assert read_json(again / "density_manifest.json")["seed"] == 33


def _copy_config(tmp_path):
    cfg = tmp_path / "cantor.json"
    cfg.write_bytes(open(fixture_path("cantor"), "rb").read())
    return cfg


def test_rerun_unchanged_config_copy(tmp_path):
    cfg = _copy_config(tmp_path)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("frequency", "--config", cfg, "--b", 1, "--n", 3 ** 5,
               "--c", 0.48, "--seed", 4, "--replicas", 2, "--out", first) == 0
    man = read_json(first / "frequency_manifest.json")
    assert len(man["config_sha256"]) == 64
    assert run("rerun", "--manifest", first / "frequency_manifest.json",
               "--out", again) == 0
    for name in man["outputs"]:
        assert (first / name).read_bytes() == (again / name).read_bytes()
    assert read_json(again / "frequency_manifest.json")["config_sha256"] == \
        man["config_sha256"]


def test_rerun_rejects_edited_config(tmp_path, capsys):
    cfg = _copy_config(tmp_path)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("second-order", "--config", cfg, "--n", 3 ** 5, "--c", 0.5,
               "--seed", 9, "--replicas", 2, "--out", first) == 0
    cfg.write_text(cfg.read_text().replace('"101"', '"111"'))
    capsys.readouterr()
    code = run("rerun", "--manifest", first / "second_order_manifest.json",
               "--out", again)
    assert code == 2
    assert not again.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "sha256" in err[0]


def test_rerun_refuses_non_finite_R(tmp_path, capsys):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("second-order", "--config", fixture_path("cantor"), "--R", 2,
               "--c", 0.47, "--replicas", 1, "--out", first) == 0
    path = first / "second_order_manifest.json"
    man = read_json(path)
    man["parameters"]["R"] = float("inf")
    path.write_text(json.dumps(man))   # writes the JSON extension Infinity
    capsys.readouterr()
    assert run("rerun", "--manifest", path, "--out", again) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --R must be a finite number, got inf"]


def test_rerun_refuses_R_below_2(tmp_path, capsys):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("second-order", "--config", fixture_path("cantor"), "--R", 2,
               "--c", 0.47, "--replicas", 1, "--out", first) == 0
    path = first / "second_order_manifest.json"
    man = read_json(path)
    man["parameters"]["R"] = 1
    path.write_text(json.dumps(man))
    capsys.readouterr()
    assert run("rerun", "--manifest", path, "--out", again) == 2
    assert not again.exists()
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: --R must be at least 2, got 1.0"]


@pytest.mark.parametrize("argv, line", [
    (("second-order", "carpet", "--R", 50, "--c", 0.6, "--level", 0, "--replicas", 1),
     "--level must be at least 1, got 0"),
    (("second-order", "carpet", "--R", 50, "--c", 0.6, "--level", -2, "--replicas", 1),
     "--level must be at least 1, got -2"),
    (("second-order", "cantor", "--n", 243, "--c", 0.6, "--grid-density", 0),
     "--grid-density must be at least 1, got 0"),
    (("frequency", "cantor", "--b", 1, "--n", 243, "--c", 0.48, "--grid-density", 0),
     "--grid-density must be at least 1, got 0"),
    (("logfreq", "cantor", "--a", 0, "--n", 243, "--grid-density", -1),
     "--grid-density must be at least 1, got -1"),
    (("distribution", "cantor", "--levels", -1), "--levels must be at least 0, got -1"),
    (("distribution", "cantor", "--samples", 0), "--samples must be at least 1, got 0"),
], ids=["level0", "level-2", "second-order-grid0", "frequency-grid0", "logfreq-grid-1",
        "levels-1", "samples0"])
def test_out_of_range_options_refused_by_name(tmp_path, capsys, argv, line):
    command, config, *rest = argv
    assert run(command, "--config", fixture_path(config), *rest, "--out", tmp_path) == 2
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err.strip().splitlines() == ["error: " + line]


@pytest.mark.parametrize("argv, key, value, line", [
    (("distribution", "--levels", 2, "--samples", 50), "samples", 0,
     "--samples must be at least 1, got 0"),
    (("logfreq", "--a", 0, "--n", 243, "--replicas", 1), "grid_density", 0,
     "--grid-density must be at least 1, got 0"),
], ids=["samples0", "grid0"])
def test_rerun_refuses_out_of_range_options_by_name(tmp_path, capsys, argv, key, value,
                                                     line):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(argv[0], "--config", fixture_path("cantor"), *argv[1:], "--out", first) == 0
    path = first / (argv[0] + "_manifest.json")
    man = read_json(path)
    man["parameters"][key] = value
    path.write_text(json.dumps(man))
    capsys.readouterr()
    assert run("rerun", "--manifest", path, "--out", again) == 2
    assert not again.exists()
    assert capsys.readouterr().err.strip().splitlines() == ["error: " + line]


def test_rerun_without_recorded_hash(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("logfreq", "--config", fixture_path("cantor"), "--a", 0,
               "--n", 3 ** 5, "--seed", 6, "--replicas", 2, "--out", first) == 0
    path = first / "logfreq_manifest.json"
    man = read_json(path)
    del man["config_sha256"]
    path.write_text(json.dumps(man))
    assert run("rerun", "--manifest", path, "--out", again) == 0
    for name in man["outputs"]:
        assert (first / name).read_bytes() == (again / name).read_bytes()


# ---- the driver: shared checks, --threads, malformed inputs ----

MIN_ARGS = {
    "analyze": (),
    "density": ("--k", 2, "--replicas", 1),
    "second-order": ("--n", 3 ** 5, "--c", 0.5),
    "frequency": ("--b", 1, "--n", 3 ** 5, "--c", 0.48),
    "logfreq": ("--a", 0, "--n", 3 ** 5),
    "distribution": ("--levels", 3, "--samples", 200),
}


@pytest.mark.parametrize("command", sorted(MIN_ARGS))
def test_each_run_opens_its_config_once(tmp_path, monkeypatch, command):
    cfg = _copy_config(tmp_path)
    first, again = tmp_path / "first", tmp_path / "again"
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == str(cfg):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run(command, "--config", cfg, *MIN_ARGS[command], "--out", first) == 0
    assert len(opens) == 1
    del opens[:]
    manifest = first / (command.replace("-", "_") + "_manifest.json")
    assert run("rerun", "--manifest", manifest, "--out", again) == 0
    assert len(opens) == 1


def test_manifest_hashes_the_bytes_the_run_read(tmp_path, monkeypatch, capsys):
    cfg = _copy_config(tmp_path)
    read = cfg.read_bytes()
    first, again = tmp_path / "first", tmp_path / "again"
    body = cli._COMMANDS["analyze"]

    def edit_mid_run(*args):
        with open(cfg, "a", encoding="utf-8") as f:
            f.write("\n")
        return body(*args)

    monkeypatch.setitem(cli._COMMANDS, "analyze", edit_mid_run)
    assert run("analyze", "--config", cfg, "--out", first) == 0
    man = read_json(first / "analyze_manifest.json")
    assert man["config_sha256"] == hashlib.sha256(read).hexdigest()
    assert cfg.read_bytes() == read + b"\n"
    capsys.readouterr()
    assert run("rerun", "--manifest", first / "analyze_manifest.json",
               "--out", again) == 2
    assert not again.exists()
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {cfg}: config changed since the recorded run (sha256 differs)"]


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"x"', '"matrix"'])
@pytest.mark.parametrize("command", sorted(MIN_ARGS))
def test_non_object_config(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(command, "--config", cfg, *MIN_ARGS[command], "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", sorted(set(MIN_ARGS) - {"density"}))
def test_threads_only_on_density(tmp_path, command):
    with pytest.raises(SystemExit) as e:
        run(command, "--config", fixture_path("cantor"), *MIN_ARGS[command],
            "--threads", 2, "--out", tmp_path)
    assert e.value.code == 2


def test_density_threads_match_serial(tmp_path):
    serial, threaded, again = tmp_path / "serial", tmp_path / "threaded", tmp_path / "again"
    args = ("density", "--config", fixture_path("cantor"), "--seed", 8,
            "--k", 4, "--replicas", 4)
    assert run(*args, "--threads", 1, "--out", serial) == 0
    assert run(*args, "--threads", 2, "--out", threaded) == 0
    assert (serial / "density.json").read_bytes() == (threaded / "density.json").read_bytes()
    manifest = threaded / "density_manifest.json"
    assert read_json(manifest)["threads"] == 2
    assert run("rerun", "--manifest", manifest, "--out", again) == 0
    assert read_json(again / "density_manifest.json")["threads"] == 2
    assert (serial / "density.json").read_bytes() == (again / "density.json").read_bytes()


@pytest.mark.parametrize("config, k, replicas", [("cantor", 4, 3), ("carpet", 2, 2)])
def test_density_bytes_do_not_depend_on_the_workers(tmp_path, config, k, replicas):
    args = ("density", "--config", fixture_path(config), "--seed", 4,
            "--k", k, "--replicas", replicas)
    texts = {}
    for threads in (1, 2, None):
        out = tmp_path / f"threads{threads}"
        assert run(*args, *(() if threads is None else ("--threads", threads)),
                   "--out", out) == 0
        assert multiprocessing.active_children() == []
        texts[threads] = (out / "density.json").read_bytes()
        if threads != 1:
            manifest = out / "density_manifest.json"
            assert read_json(manifest)["threads"] == (threads or 0)
            assert run("rerun", "--manifest", manifest, "--out", out / "again") == 0
            texts[threads, "rerun"] = (out / "again" / "density.json").read_bytes()
    assert len(set(texts.values())) == 1


SILVER = {"alphabet": ["a", "b", "x"], "dim": 1,
          "rules": {"a": "aab", "b": "a", "x": "xax"}}


def test_density_worker_bracket_error_exits_3_like_serial(tmp_path, capsys):
    # the silver ratio's inexact offsets drift past the zoom cursor's bound by k = 16
    cfg = tmp_path / "silver.json"
    cfg.write_text(json.dumps(SILVER))
    lines = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert run("density", "--config", cfg, "--k", 16, "--replicas", 2,
                   "--threads", threads, "--out", out) == 3
        assert multiprocessing.active_children() == []
        assert not out.exists()
        lines[threads] = capsys.readouterr().err.strip().splitlines()
    assert len(lines[1]) == 1 and lines[1][0].startswith("bracket precision: ")
    assert lines[2] == lines[1]


def test_cli_import_leaves_out_the_pool_modules():
    # the pool modules are imported only when density starts a pool
    code = ("import sys, subtiling.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                         check=True)
    assert res.stdout.strip() == "[]"


def test_manifest_parameters_are_the_command_options(tmp_path):
    for command, args in MIN_ARGS.items():
        out = tmp_path / command
        assert run(command, "--config", fixture_path("cantor"), *args, "--out", out) == 0
        man = read_json(out / (command.replace("-", "_") + "_manifest.json"))
        assert man["threads"] == 0
        assert not {"command", "config", "seed", "threads", "out"} & set(man["parameters"])
    assert read_json(tmp_path / "analyze" / "analyze_manifest.json")["parameters"] == {}
    assert set(read_json(tmp_path / "frequency" / "frequency_manifest.json")["parameters"]) \
        == {"b", "n", "c", "replicas", "grid_density"}


def test_rerun_ignores_recorded_threads_of_serial_commands(tmp_path):
    # manifests written when every command took --threads record it for all
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("frequency", "--config", fixture_path("cantor"), "--b", 1,
               "--n", 3 ** 5, "--c", 0.48, "--seed", 4, "--replicas", 2,
               "--out", first) == 0
    path = first / "frequency_manifest.json"
    man = read_json(path)
    man["threads"] = 3
    path.write_text(json.dumps(man))
    assert run("rerun", "--manifest", path, "--out", again) == 0
    assert read_json(again / "frequency_manifest.json")["threads"] == 0
    for name in man["outputs"]:
        assert (first / name).read_bytes() == (again / name).read_bytes()


def _drop(key):
    return lambda man: {k: v for k, v in man.items() if k != key}


def _with(**fields):
    return lambda man: man | fields


def _with_params(**params):
    return lambda man: man | {"parameters": man["parameters"] | params}


BAD_MANIFESTS = {
    "list": lambda man: [],
    "no_config": _drop("config"),
    "no_command": _drop("command"),
    "no_seed": _drop("seed"),
    "no_parameters": _drop("parameters"),
    "unknown_command": _with(command="transmogrify"),
    "list_command": _with(command=["frequency"]),
    "null_config": _with(config=None),
    "null_seed": _with(seed=None),
    "text_seed": _with(seed="4"),
    "list_parameters": _with(parameters=[1, 49]),
    "parameters_without_b": lambda man: man | {"parameters": _drop("b")(man["parameters"])},
    "unknown_parameter": _with_params(threads=2),
    "text_n": _with_params(n="243"),
    "null_replicas": _with_params(replicas=None),
    "bool_replicas": _with_params(replicas=True),
    "null_b": _with_params(b=None),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_rerun_rejects_malformed_manifest(tmp_path, capsys, case):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("frequency", "--config", fixture_path("cantor"), "--b", 1,
               "--n", 3 ** 5, "--c", 0.48, "--replicas", 2, "--out", first) == 0
    path = first / "frequency_manifest.json"
    path.write_text(json.dumps(BAD_MANIFESTS[case](read_json(path))))
    capsys.readouterr()
    assert run("rerun", "--manifest", path, "--out", again) == 2
    assert not again.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_rerun_rejects_bad_density_method(tmp_path, capsys):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("density", "--config", fixture_path("cantor"), "--k", 2,
               "--replicas", 1, "--out", first) == 0
    path = first / "density_manifest.json"
    path.write_text(json.dumps(_with_params(method="mean")(read_json(path))))
    capsys.readouterr()
    assert run("rerun", "--manifest", path, "--out", again) == 2
    assert not again.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'method'" in err[0]


# ---- the benchmark's traced replay ----

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, position", [("density", 0), ("density", 1),
                                                ("symbolic", 3)])
def test_traced_replay_matches_cli(tmp_path, monkeypatch, workload, position):
    """perfbench/replay.py calls the library as the CLI does; with tracing on
    its probes also read `ZoomCursor.vids`, `MarkovSampler.sample_path(s)`
    and the estimators' `terms` and `step` defaults.  Each replay must
    reproduce the headline of a CLI run of the same command."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    replay = importlib.import_module("replay")
    cmd = importlib.import_module("workloads").pass_commands(workload, 1, 0)[position]
    record = replay.replay_command(subtiling, replay.Tracer(True), cmd, str(ROOT))
    assert any(span["probe"] for span in record["spans"])
    assert run(*cmd.argv(str(ROOT), tmp_path)) == 0
    doc = read_json(tmp_path / (cmd.spec.command.replace("-", "_") + ".json"))
    assert replay.headline_matches(cmd, record["headline"], doc)
