import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtiling import (CoverageError, LengthCapError, MassVector, Observable,
                       SecondOrderSeries, TransversalSampler, TwoSidedWord,
                       admissibility_report, alpha_exponent, alpha_frequency,
                       birkhoff_prefix_sums, build_graph,
                       distribution_experiment, expand_grid, iterate,
                       log_frequency, mass_observable, mass_vector,
                       measure_normalization, orbit_generate, ratio_check,
                       second_order_symbolic, second_order_tiling,
                       sum_by_parts, suspension_lengths, transverse_weights,
                       window_from_sequence)
from subtiling import ergodic
from subtiling.ergodic import _report_grid, _window_labels

from conftest import ADMISSIBLE_1D, admissible_substitutions_1d, rng


@pytest.fixture(scope="module")
def cantor_orbit(cantor):
    return orbit_generate(cantor, (0, 1), 13)


def _ind(letter):
    return Observable.indicator(letter, 2)


# ---- transverse weights ----

def test_transverse_weights_values(cantor, cantor1001, carpet):
    tw = transverse_weights(cantor)
    assert tw.xi_tr.tolist() == [1.0]
    assert tw.normalization == "unit-length-pairing"
    assert tw.b_letters == [1] and tw.rho_B == 2.0
    tw1 = transverse_weights(cantor1001)
    assert tw1.xi_tr.tolist() == [0.5]
    tw2 = transverse_weights(carpet)
    assert tw2.normalization == "unit-sum"
    assert tw2.xi_tr.tolist() == [1.0] and tw2.rho_B == 8.0


def test_transverse_weights_pairing(subs):
    for name in ("cantor", "cantor1001", "sigma2", "sigma_k1"):
        sub = subs[name]
        xi = suspension_lengths(sub)
        tw = transverse_weights(sub, xi)
        assert float(xi.xi_len[tw.b_letters] @ tw.xi_tr) == pytest.approx(1.0, rel=1e-12)


def test_transverse_weights_rejects_inadmissible(subs):
    with pytest.raises(ValueError, match="not admissible"):
        transverse_weights(subs["openq1"])


# ---- measure normalization ----

def test_normalization_values(cantor_ws, cantor1001_ws, carpet_ws):
    for ws in (cantor_ws, carpet_ws):
        assert ws.norm.nu_cyl.tolist() == [1.0]
        assert ws.norm.gamma == 1.0 and ws.norm.c0 == 1.0
    n1 = cantor1001_ws.norm
    assert n1.nu_cyl.tolist() == [0.5] and n1.h.tolist() == [2.0]
    assert n1.gamma == 1.0 and n1.c0 == 2.0
    assert n1.nu_of(1) == 0.5
    with pytest.raises(ValueError, match="no finite cylinder measure"):
        n1.nu_of(0)


def test_normalization_scaling_invariance(cantor1001, cantor1001_ws):
    ws = cantor1001_ws
    scaled = measure_normalization(cantor1001, ws.xi_len, ws.tw,
                                   MassVector(h=2.0 * ws.mass.h))
    assert np.array_equal(scaled.nu_cyl, ws.norm.nu_cyl)
    assert scaled.gamma == pytest.approx(ws.norm.gamma / 2.0, rel=1e-12)
    assert scaled.coupled_c(2.0 * 0.37) == pytest.approx(
        ws.norm.coupled_c(0.37), rel=1e-12)


def test_mass_observable_unit_integral(cantor_ws, cantor1001_ws, carpet_ws):
    for ws in (cantor_ws, cantor1001_ws, carpet_ws):
        f = mass_observable(ws.graph, ws.mass, ws.sub.n_letters)
        assert ws.norm.integral(f) == pytest.approx(1.0, rel=1e-12)


# ---- observables ----

def test_observable_basics():
    f = Observable.indicator(1, 3)
    assert f.weights.tolist() == [0.0, 1.0, 0.0]
    both = f + Observable.indicator(0, 3)
    assert both.weights.tolist() == [1.0, 1.0, 0.0]
    zero = Observable(np.zeros(2))
    assert (zero + f).weights.tolist() == f.weights.tolist()


def test_observable_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        Observable(np.array([1.0, np.inf]))


def test_observable_a_weight_needs_formal(cantor_ws):
    norm = cantor_ws.norm
    with pytest.raises(ValueError, match="expanding letter"):
        norm.integral(Observable(np.array([1.0, 0.0])))
    assert norm.integral(Observable(np.array([1.0, 0.0]), formal=True)) == 0.0
    assert norm.integral(Observable(np.array([0.5, 2.0]), formal=True)) == 2.0


# ---- prefix sums ----

def test_prefix_sums_exact(cantor_orbit):
    ps = birkhoff_prefix_sums(cantor_orbit, _ind(1), 3 ** 10)
    assert ps.dtype == np.int64 and ps[0] == 0
    for m in range(11):
        assert ps[3 ** m] == 2 ** m


def test_prefix_sums_complement(cantor_orbit):
    n = 2000
    p1 = birkhoff_prefix_sums(cantor_orbit, _ind(1), n)
    p0 = birkhoff_prefix_sums(cantor_orbit, _ind(0), n)
    assert np.array_equal(p0 + p1, np.arange(n + 1))


def test_prefix_sums_zero_observable(cantor_orbit):
    ps = birkhoff_prefix_sums(cantor_orbit, Observable(np.zeros(2)), 100)
    assert not ps.any() and len(ps) == 101


def test_prefix_sums_rejects_short_orbit():
    with pytest.raises(ValueError, match="letters"):
        birkhoff_prefix_sums(np.array([0, 1, 0]), _ind(1), 10)


# ---- ratio check ----

def test_ratio_same_observable(cantor_orbit, cantor_ws):
    grid = np.array([10, 100, 1000, 10000])
    rt = ratio_check(cantor_orbit, _ind(1), _ind(1), grid, norm=cantor_ws.norm)
    assert (rt.ratios == 1.0).all() and rt.target == 1.0


def test_ratio_parity_split(cantor):
    w = iterate(cantor, 1, 12)
    ones = np.concatenate([[0], np.cumsum(w == 1)])
    odd1 = np.zeros_like(w)
    odd1[0::2] = (w[0::2] == 1)
    even1 = np.zeros_like(w)
    even1[1::2] = (w[1::2] == 1)
    grid = np.array([3 ** k for k in range(1, 13)])
    podd = np.concatenate([[0], np.cumsum(odd1)])
    peven = np.concatenate([[0], np.cumsum(even1)])
    r_even = ratio_check(w, peven, ones, grid)
    r_odd = ratio_check(w, podd, ones, grid)
    assert (r_even.ratios == 0.0).all()
    assert (r_odd.ratios == 1.0).all()


def test_ratio_a_weight_diverges(cantor_orbit, cantor_ws):
    grid = np.array([3 ** k for k in range(2, 12)])
    f_a = Observable(np.array([1.0, 0.0]), formal=True)
    rt = ratio_check(cantor_orbit, f_a, _ind(1), grid, norm=cantor_ws.norm)
    assert rt.target == 0.0
    assert (np.diff(rt.ratios) > 0).all()
    assert rt.ratios[-1] > 10 * rt.ratios[0]


def test_ratio_norm_target(cantor1001_ws):
    x = np.tile([1, 0], 600)
    rt = ratio_check(x, Observable(np.array([0.0, 3.0])), _ind(1),
                     [10, 1000], norm=cantor1001_ws.norm)
    assert rt.target == pytest.approx(3.0, rel=1e-12)


def test_ratio_zero_denominator(cantor_orbit):
    x = np.array([0] * 50 + [1] * 50)
    rt = ratio_check(x, _ind(0), _ind(1), [10, 80])
    assert np.isnan(rt.ratios[0]) and rt.ratios[1] == pytest.approx(50.0 / 30.0)
    with pytest.raises(ValueError, match="vanishes"):
        ratio_check(x, _ind(0), _ind(1), [10, 40])


# ---- summation by parts ----

def test_abel_identity_exact(cantor, cantor_orbit):
    alpha = alpha_exponent(cantor)
    n = 3 ** 8
    ps = birkhoff_prefix_sums(cantor_orbit, _ind(1), n + 2)
    k = np.arange(1, n + 1, dtype=np.float64)
    direct = float(np.sum((cantor_orbit.slice(0, n + 1)[1:] == 1) * k ** -alpha))
    assert sum_by_parts(ps, alpha, [n])[0] == pytest.approx(direct, rel=1e-12)


def test_abel_reconstructs_frequency(cantor, cantor_orbit):
    alpha = alpha_exponent(cantor)
    fs = alpha_frequency(cantor_orbit, 1, alpha, 3 ** 8)
    ps = birkhoff_prefix_sums(cantor_orbit, _ind(1), 3 ** 8 + 2)
    recon = sum_by_parts(ps, alpha, fs.grid) / np.log(fs.grid.astype(np.float64))
    assert np.allclose(fs.partials, recon, rtol=1e-9, atol=1e-12)


def test_abel_needs_full_prefix():
    with pytest.raises(ValueError, match="prefix sums"):
        sum_by_parts(np.zeros(10), 0.5, [9])


# ---- second-order series ----

def test_second_order_zero_observable(cantor_orbit, cantor):
    s = second_order_symbolic(cantor_orbit, Observable(np.zeros(2)),
                              alpha_exponent(cantor), 1.0, 3 ** 6)
    assert not s.partials.any() and s.kind == "symbolic"


def test_second_order_c_scaling(cantor_orbit, cantor):
    alpha = alpha_exponent(cantor)
    s1 = second_order_symbolic(cantor_orbit, _ind(1), alpha, 0.8, 3 ** 6)
    s2 = second_order_symbolic(cantor_orbit, _ind(1), alpha, 0.4, 3 ** 6)
    assert np.allclose(s2.partials, 2.0 * s1.partials, rtol=1e-12)
    assert s1.c_used == 0.8


def test_second_order_linearity(cantor_orbit, cantor):
    alpha = alpha_exponent(cantor)
    f_a = Observable(np.array([1.0, 0.0]), formal=True)
    f_b = _ind(1)
    f_sum = Observable(np.array([1.0, 1.0]), formal=True)
    kw = dict(alpha=alpha, c=1.0, n_max=3 ** 6)
    s_a = second_order_symbolic(cantor_orbit, f_a, **kw)
    s_b = second_order_symbolic(cantor_orbit, f_b, **kw)
    s_sum = second_order_symbolic(cantor_orbit, f_sum, **kw)
    assert np.allclose(s_sum.partials, s_a.partials + s_b.partials, rtol=1e-12)


def test_second_order_grid_shape(cantor_orbit, cantor):
    s = second_order_symbolic(cantor_orbit, _ind(1), alpha_exponent(cantor),
                              1.0, 3 ** 6, norm=None)
    assert int(s.grid[-1]) == 3 ** 6 and int(s.grid[0]) >= 2
    assert (np.diff(s.grid) > 0).all()
    assert s.target is None


def test_second_order_target_from_norm(cantor_orbit, cantor, cantor_ws):
    s = second_order_symbolic(cantor_orbit, _ind(1), alpha_exponent(cantor),
                              1.0, 3 ** 4, norm=cantor_ws.norm)
    assert s.target == 1.0


def test_second_order_a_envelope(cantor, cantor_orbit):
    alpha = alpha_exponent(cantor)
    c = 1.0
    f_a = Observable(np.array([1.0, 0.0]), formal=True)
    s = second_order_symbolic(cantor_orbit, f_a, alpha, c, 3 ** 10)
    g = s.grid.astype(np.float64)
    # S_k(f_a) <= k makes each partial at most sum of k^-alpha, hence this
    bound = (g ** (1.0 - alpha) / (1.0 - alpha) + 1.0) / (c * np.log(g))
    assert (s.partials <= bound).all()


def test_second_order_rejects_bad_params(cantor_orbit):
    with pytest.raises(ValueError, match="alpha"):
        second_order_symbolic(cantor_orbit, _ind(1), -0.5, 1.0, 100)
    with pytest.raises(ValueError, match="c must"):
        second_order_symbolic(cantor_orbit, _ind(1), 0.5, 0.0, 100)


def test_cross_engine_agreement(cantor, cantor_ws):
    alpha = alpha_exponent(cantor)
    x = orbit_generate(cantor, (0, 1), 11)
    n = 3 ** 11
    c = 0.482773
    sym = second_order_symbolic(x, _ind(1), alpha, c, n)
    win = window_from_sequence(TwoSidedWord(np.empty(0, dtype=np.uint8), x.right),
                               cantor_ws.xi_len)
    til = second_order_tiling(win, _ind(1), alpha, c, float(n - 1))
    assert til.kind == "suspension"
    assert sym.final_decade() == pytest.approx(til.final_decade(), rel=0.01)


def test_tiling_series_2d(carpet, carpet_ws):
    sampler = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, 8)
    patch = sampler.patch(6, 200.0)
    s = second_order_tiling(patch, Observable(np.array([0.0, 1.0])),
                            carpet_ws.alpha, 0.7, 200.0, norm=carpet_ws.norm)
    assert s.kind == "grid" and s.target == 1.0
    assert float(s.grid[-1]) <= 200.0 and (s.partials > 0).all()


def test_tiling_series_coverage_errors(cantor, cantor_ws, carpet, carpet_ws):
    x = orbit_generate(cantor, (0, 1), 5)
    win = window_from_sequence(x, cantor_ws.xi_len)
    with pytest.raises(CoverageError, match="window covers R <="):
        second_order_tiling(win, _ind(1), cantor_ws.alpha, 1.0, 1e6)
    sampler = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, 8)
    patch = sampler.patch(4, 10.0)
    with pytest.raises(CoverageError, match="patch covers R <="):
        second_order_tiling(patch, Observable(np.array([0.0, 1.0])),
                            carpet_ws.alpha, 1.0, 500.0)


def test_series_csv_and_oscillation(cantor_orbit, cantor, cantor_ws):
    s = second_order_symbolic(cantor_orbit, _ind(1), alpha_exponent(cantor),
                              0.482773, 3 ** 8, norm=cantor_ws.norm)
    lines = s.csv().splitlines()
    assert lines[0] == "scale,partial,target,relative_error"
    assert len(lines) == len(s.grid) + 1
    assert s.last_decade_oscillation() > 0.0
    with pytest.raises(ValueError, match="decade"):
        s.final_decade(width=1.0)


def test_series_summary_needs_two_points(cantor_orbit, cantor):
    s = second_order_symbolic(cantor_orbit, _ind(1), alpha_exponent(cantor), 0.5, 2)
    assert s.grid.tolist() == [2]
    with pytest.raises(ValueError, match="final decade"):
        s.final_decade()
    with pytest.raises(ValueError, match="oscillation"):
        s.last_decade_oscillation()


# ---- letter frequencies ----

def test_alpha_frequency_no_occurrence(cantor):
    x = np.zeros(3 ** 6 + 1, dtype=np.int64)
    fs = alpha_frequency(x, 1, alpha_exponent(cantor), 3 ** 6)
    assert not fs.partials.any()


def test_alpha_frequency_target(cantor, cantor_orbit, cantor_ws):
    alpha = alpha_exponent(cantor)
    fs = alpha_frequency(cantor_orbit, 1, alpha, 3 ** 6,
                         c=0.5, norm=cantor_ws.norm)
    assert fs.target == pytest.approx(alpha * 0.5, rel=1e-12)
    with pytest.raises(ValueError, match="no finite cylinder measure"):
        alpha_frequency(cantor_orbit, 0, alpha, 3 ** 6, c=0.5,
                        norm=cantor_ws.norm)


def test_every_engine_returns_one_series_type(cantor, cantor_orbit, cantor_ws):
    alpha = alpha_exponent(cantor)
    so = second_order_symbolic(cantor_orbit, _ind(1), alpha, 0.5, 3 ** 6)
    fs = alpha_frequency(cantor_orbit, 1, alpha, 3 ** 6, c=0.5, norm=cantor_ws.norm)
    lf = log_frequency(cantor_orbit, 0, 3 ** 6)
    for s in (so, fs, lf):
        assert type(s) is SecondOrderSeries
    assert (so.kind, so.c_used, so.letter) == ("symbolic", 0.5, None)
    # frequencies are not divided by c; it only enters their target
    assert (fs.kind, fs.c_used, fs.letter) == ("frequency", None, 1)
    assert (lf.kind, lf.c_used, lf.letter, lf.alpha) == ("logfreq", None, 0, 1.0)
    assert fs.grid.dtype == np.int64
    assert fs.csv().splitlines()[1].startswith(f"{fs.grid[0]},")
    bare = SecondOrderSeries(grid=[2, 4], partials=[1.0, 2.0], target=None, alpha=0.5)
    assert (bare.c_used, bare.kind, bare.letter) == (None, "", None)


def test_log_frequency_cantor_values(cantor_orbit):
    lf1 = log_frequency(cantor_orbit, 1, 3 ** 12)
    assert lf1.partials[-1] == pytest.approx(0.10103559914094337, rel=1e-9)
    lf0 = log_frequency(cantor_orbit, 0, 3 ** 12)
    assert lf0.partials[-1] == pytest.approx(0.942748167259427, rel=1e-9)
    n = 3 ** 12
    harm = float(np.sum(1.0 / np.arange(1, n + 1))) / math.log(n)
    assert lf0.partials[-1] + lf1.partials[-1] == pytest.approx(harm, rel=1e-12)


def test_log_frequency_decreasing_decades(cantor_orbit):
    vals = [log_frequency(cantor_orbit, 1, 3 ** m).partials[-1]
            for m in (10, 11, 12)]
    assert vals[0] == pytest.approx(0.12016873127771709, rel=1e-9)
    assert vals[0] > vals[1] > vals[2]


def test_log_frequency_constant_word():
    n = 1000
    x = np.zeros(n + 2, dtype=np.int64)
    lf = log_frequency(x, 0, n)
    harm = np.array([np.sum(1.0 / np.arange(1, g + 1)) for g in lf.grid])
    assert np.allclose(lf.partials, harm / np.log(lf.grid), rtol=1e-12)


# ---- series against dense oracles ----

_ORACLE_CHUNK = 1 << 21


def _second_order_oracle(x, w, alpha, c, n_max, grid_density=8,
                         chunk=_ORACLE_CHUNK):
    """Partials over every k, with k ** (alpha + 1) recomputed per chunk."""
    grid = _report_grid(n_max, grid_density)
    letters = np.asarray(x)[:int(grid[-1])].astype(np.int64)
    partials = np.empty(len(grid))
    total, s_run, prev = 0.0, 0.0, 0
    for gi, gval in enumerate(grid.tolist()):
        for lo in range(prev, gval, chunk):
            hi = min(lo + chunk, gval)
            s_chunk = s_run + np.cumsum(w[letters[lo:hi]])
            k = np.arange(lo + 1, hi + 1, dtype=np.float64)
            total += float(np.sum(s_chunk / (k ** (alpha + 1.0))))
            s_run = float(s_chunk[-1])
        prev = gval
        partials[gi] = total / (c * np.log(gval))
    return partials


def _frequency_oracle(x, letter, alpha, n_max, grid_density=8,
                      chunk=_ORACLE_CHUNK):
    """Frequency partials over every k, with k ** alpha recomputed per chunk."""
    grid = _report_grid(n_max, grid_density)
    letters = np.asarray(x)[:int(grid[-1]) + 1].astype(np.int64)
    partials = np.empty(len(grid))
    total, prev = 0.0, 0
    for gi, gval in enumerate(grid.tolist()):
        for lo in range(prev, gval, chunk):
            hi = min(lo + chunk, gval)
            k = np.arange(lo + 1, hi + 1, dtype=np.float64)
            hits = letters[lo + 1: hi + 1] == letter
            total += float(np.sum(hits / k ** alpha))
        prev = gval
        partials[gi] = total / np.log(gval)
    return partials


def _second_order_fsum(x, w, alpha, c, n_max, grid_density=8):
    """Partials from exactly accumulated S_k and math.fsum over k."""
    grid = _report_grid(n_max, grid_density)
    s, terms = Fraction(0), []
    for k, a in enumerate(np.asarray(x)[:int(grid[-1])].tolist(), start=1):
        s += Fraction(float(w[a]))
        terms.append(float(s) * k ** -(alpha + 1.0))
    return np.array([math.fsum(terms[:g]) / (c * math.log(g))
                     for g in grid.tolist()])


def _frequency_fsum(x, letter, alpha, n_max, grid_density=8):
    grid = _report_grid(n_max, grid_density)
    letters = np.asarray(x)[:int(grid[-1]) + 1].tolist()
    return np.array([math.fsum(k ** -alpha for k in range(1, g + 1)
                               if letters[k] == letter) / math.log(g)
                     for g in grid.tolist()])


def _assert_close(got, ref, absref, rel, what):
    err = np.abs(got - ref)
    assert (err <= rel * absref).all(), (what, float(np.max(err / np.maximum(absref, 1e-300))))


def _letter_blind(alpha, grid):
    """(1/log g) sum_{k<=g} k^-alpha: the frequency partial of every letter
    together, and the scale of the rounding in the complement path, which
    subtracts the other letters' visits from this sum."""
    grid = np.asarray(grid)
    k = np.arange(1, int(grid[-1]) + 1, dtype=np.float64)
    return np.cumsum(k ** -alpha)[grid - 1] / np.log(grid)


SERIES_WEIGHTS = [(0.0, 1.0), (2.0, -3.0), (0.3, 0.1), (1.0 / 3.0, 0.7)]


def _sampled_orbits(subs, n, count):
    for name, seed in (("cantor", 71), ("cantor1001", 72)):
        sub = subs[name]
        graph = build_graph(sub)
        mass = mass_vector(graph, transverse_weights(sub).xi_tr)
        sam = TransversalSampler(sub, graph, mass, seed)
        for _ in range(count):
            yield name, alpha_exponent(sub), sam.orbit(n + 1)


@pytest.mark.parametrize("chunk", [1000, 1 << 21])
def test_series_match_chunked_oracle(subs, chunk):
    """Occurrence sums agree with the dense chunk loops to 1e-11 of sum |terms|."""
    n = 3 ** 9
    for name, alpha, x in _sampled_orbits(subs, n, 2):
        for wts in SERIES_WEIGHTS:
            w = np.array(wts)
            f = Observable(w, formal=True)
            got = second_order_symbolic(x, f, alpha, 0.47, n, grid_density=5)
            ref = _second_order_oracle(x, w, alpha, 0.47, n, 5, chunk)
            absref = _second_order_oracle(x, np.abs(w), alpha, 0.47, n, 5, chunk)
            _assert_close(got.partials, ref, absref, 1e-11, (name, wts))
        for b in (0, 1):
            got = alpha_frequency(x, b, alpha, n)
            ref = _frequency_oracle(x, b, alpha, n, chunk=chunk)
            _assert_close(got.partials, ref, _letter_blind(alpha, got.grid),
                          1e-11, (name, b))
            got = log_frequency(x, b, n)
            ref = _frequency_oracle(x, b, 1.0, n, chunk=chunk)
            _assert_close(got.partials, ref, _letter_blind(1.0, got.grid),
                          1e-11, (name, "log", b))


def test_series_match_fsum_oracle(subs):
    n = 3 ** 7
    for name, alpha, x in _sampled_orbits(subs, n, 1):
        for wts in SERIES_WEIGHTS:
            w = np.array(wts)
            got = second_order_symbolic(x, Observable(w, formal=True), alpha,
                                        0.47, n).partials
            ref = _second_order_fsum(x, w, alpha, 0.47, n)
            absref = _second_order_fsum(x, np.abs(w), alpha, 0.47, n)
            _assert_close(got, ref, absref, 1e-11, (name, wts))
        for b in (0, 1):
            for p, series in ((alpha, lambda: alpha_frequency(x, b, alpha, n)),
                              (1.0, lambda: log_frequency(x, b, n))):
                got = series()
                ref = _frequency_fsum(x, b, p, n)
                _assert_close(got.partials, ref, _letter_blind(p, got.grid),
                              1e-11, (name, p, b))


@pytest.mark.parametrize("name", ADMISSIBLE_1D)
def test_mass_observable_series_relative_error(subs, name):
    """Mass-observable partials stay within 1e-13 relative of both oracles."""
    sub = subs[name]
    graph = build_graph(sub)
    mass = mass_vector(graph, transverse_weights(sub).xi_tr)
    f = mass_observable(graph, mass, sub.n_letters)
    alpha = graph.alpha
    n = 3 ** 8
    x = TransversalSampler(sub, graph, mass, 83).orbit(n + 1)
    got = second_order_symbolic(x, f, alpha, 0.5, n).partials
    assert got[-1] > 0.0
    for ref in (_second_order_oracle(x, f.weights, alpha, 0.5, n),
                _second_order_fsum(x, f.weights, alpha, 0.5, n)):
        _assert_close(got, ref, np.abs(ref), 1e-13, name)


def test_frequency_complement_path():
    """A letter filling most of the orbit is the prefix sum minus the others."""
    g = rng(5)
    n = 5000
    x = g.choice(3, size=n + 1, p=[0.7, 0.2, 0.1]).astype(np.uint8)
    assert 2 * np.count_nonzero(x[1:] == 0) > n
    grid = _report_grid(n)
    for alpha in (0.63, 1.0):
        got = alpha_frequency(x, 0, alpha, n).partials
        ref = _frequency_fsum(x, 0, alpha, n)
        _assert_close(got, ref, _letter_blind(alpha, grid), 1e-12, alpha)
        others = sum(alpha_frequency(x, b, alpha, n).partials for b in (1, 2))
        harm = np.array([math.fsum(k ** -alpha for k in range(1, m + 1))
                         for m in grid.tolist()])
        assert np.allclose(got + others, harm / np.log(grid),
                           rtol=1e-12, atol=0.0)
    full = log_frequency(np.zeros(n + 1, dtype=np.uint8), 0, n).partials
    ref = _frequency_fsum(np.zeros(n + 1, dtype=np.int64), 0, 1.0, n)
    _assert_close(full, ref, ref, 1e-12, "constant")


def test_series_letter_without_visits(cantor_orbit, cantor):
    alpha = alpha_exponent(cantor)
    n = 3 ** 6
    for b in (2, 7, 300):
        assert not alpha_frequency(cantor_orbit, b, alpha, n).partials.any()
        assert not log_frequency(cantor_orbit, b, n).partials.any()
    f = Observable(np.array([0.0, 0.0, 5.0]), formal=True)
    assert not second_order_symbolic(cantor_orbit, f, alpha, 1.0, n).partials.any()


def test_series_accept_uint8_and_int64_orbits(cantor_orbit, cantor):
    alpha = alpha_exponent(cantor)
    n = 3 ** 8
    x8 = cantor_orbit.slice(0, n + 1)
    assert x8.dtype == np.uint8
    x64 = x8.astype(np.int64)
    f = Observable(np.array([0.3, 1.0]), formal=True)
    for series in (lambda x: second_order_symbolic(x, f, alpha, 1.0, n),
                   lambda x: alpha_frequency(x, 1, alpha, n),
                   lambda x: log_frequency(x, 0, n)):
        assert np.array_equal(series(x8).partials, series(x64).partials)
        assert np.array_equal(series(x8).partials, series(cantor_orbit).partials)


def test_power_sum_tables_shared(cantor_orbit, cantor):
    alpha = alpha_exponent(cantor)
    n = 3 ** 7
    second_order_symbolic(cantor_orbit, _ind(1), alpha, 1.0, n)
    tab = ergodic._table_cache[("tail", n, alpha + 1.0)]
    second_order_symbolic(cantor_orbit, _ind(0), alpha, 2.0, n)
    assert ergodic._table_cache[("tail", n, alpha + 1.0)] is tab
    assert not tab.flags.writeable and len(tab) == n + 1 and tab[n] == 0.0
    k = np.arange(1, n + 1, dtype=np.float64)
    assert tab[0] == pytest.approx(math.fsum(k ** -(alpha + 1.0)), rel=1e-14)
    assert tab[n - 1] == n ** -(alpha + 1.0)
    log_frequency(cantor_orbit, 0, n)
    pre = ergodic._table_cache[("prefix", n, 1.0)]
    assert pre[0] == 0.0 and pre[n] == pytest.approx(math.fsum(1.0 / k), rel=1e-14)
    alpha_frequency(cantor_orbit, 1, alpha, n)
    log_frequency(cantor_orbit, 1, n)
    assert len(ergodic._table_cache) <= ergodic._TABLE_SLOTS
    assert ergodic._power_sums("prefix", n, 1.0) is pre


def test_occurrences_helper():
    x = np.array([0, 2, 1, 2, 0, 3], dtype=np.uint8)
    j, v = ergodic._occurrences(x, np.array([0.0, 0.5, -2.0, 0.0]))
    assert j.tolist() == [1, 2, 3] and v.tolist() == [-2.0, 0.5, -2.0]
    j, v = ergodic._occurrences(x, np.zeros(4))
    assert j.size == 0 and v.size == 0


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_series_reject_nonfinite_c(cantor_orbit, cantor, cantor_ws, c):
    alpha = alpha_exponent(cantor)
    with pytest.raises(ValueError, match="c must be finite"):
        second_order_symbolic(cantor_orbit, _ind(1), alpha, c, 100)
    with pytest.raises(ValueError, match="c must be finite"):
        alpha_frequency(cantor_orbit, 1, alpha, 100, c=c, norm=cantor_ws.norm)
    win = window_from_sequence(cantor_orbit, cantor_ws.xi_len, 0, 200)
    with pytest.raises(ValueError, match="c must be finite"):
        second_order_tiling(win, _ind(1), alpha, c, 50.0)


@settings(max_examples=60, deadline=None)
@given(sub=admissible_substitutions_1d(), seed=st.integers(0, 2 ** 16),
       n=st.integers(50, 3000), data=st.data())
def test_alpha_frequency_abel_identity(sub, seed, n, data):
    """Occurrence sums equal the by-parts sum of the dense prefix sums."""
    assume(admissibility_report(sub).admissible)
    graph = build_graph(sub)
    mass = mass_vector(graph, transverse_weights(sub).xi_tr)
    x = TransversalSampler(sub, graph, mass, seed).orbit(n + 1)
    b = data.draw(st.integers(0, sub.n_letters - 1))
    fs = alpha_frequency(x, b, graph.alpha, n)
    ps = birkhoff_prefix_sums(x, Observable.indicator(b, sub.n_letters), n + 1)
    ref = sum_by_parts(ps, graph.alpha, fs.grid) / np.log(fs.grid)
    # the by-parts sum cancels S_1 = f(x(0)) against its other terms
    absref = _letter_blind(graph.alpha, fs.grid) + 2.0 * float(ps[1]) / np.log(fs.grid)
    _assert_close(fs.partials, ref, absref, 1e-12, sub.images)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 0.0, -0.5])
def test_series_reject_bad_alpha(cantor_orbit, cantor_ws, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        second_order_symbolic(cantor_orbit, _ind(1), alpha, 1.0, 100)
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        alpha_frequency(cantor_orbit, 1, alpha, 100)
    win = window_from_sequence(cantor_orbit, cantor_ws.xi_len, 0, 200)
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        second_order_tiling(win, _ind(1), alpha, 1.0, 50.0)
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        sum_by_parts(np.zeros(102), alpha, [100])


def test_frequency_rejects_negative_letter(cantor_orbit, cantor):
    alpha = alpha_exponent(cantor)
    with pytest.raises(ValueError, match="nonnegative"):
        alpha_frequency(cantor_orbit, -1, alpha, 100)
    with pytest.raises(ValueError, match="nonnegative"):
        log_frequency(cantor_orbit, -1, 100)


# ---- transversal sampling ----

def test_transversal_orbit_deterministic(cantor, cantor_ws):
    a = TransversalSampler(cantor, cantor_ws.graph, cantor_ws.mass, 21).orbit(500)
    b = TransversalSampler(cantor, cantor_ws.graph, cantor_ws.mass, 21).orbit(500)
    assert np.array_equal(a, b) and len(a) == 501


def test_transversal_orbit_starts_on_b(cantor, cantor_ws):
    sampler = TransversalSampler(cantor, cantor_ws.graph, cantor_ws.mass, 4)
    for _ in range(20):
        x = sampler.orbit(50)
        assert int(x[0]) == 1
        assert len(x) == 51


def test_transversal_orbit_is_in_language(cantor, cantor_ws):
    from subtiling import in_language
    x = TransversalSampler(cantor, cantor_ws.graph, cantor_ws.mass, 9).orbit(200)
    ok, _ = in_language(cantor, x)
    assert ok


def test_transversal_orbit_length_cap(cantor, cantor_ws):
    sampler = TransversalSampler(cantor, cantor_ws.graph, cantor_ws.mass, 0)
    # 4 * (3^19 + 1) letters need level 21; level 17 already passes the cap
    with pytest.raises(LengthCapError,
                       match=rf"sigma\^17\(1\) has length {3 ** 17} > cap"):
        sampler.orbit(3 ** 19)
    # a span far beyond the cap stops at the same level, not at its own
    with pytest.raises(LengthCapError, match=r"sigma\^17\(1\)"):
        sampler.orbit(3 ** 10 ** 5)


def test_transversal_patch_addressed_cell(carpet, carpet_ws):
    sampler = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, 6)
    p = sampler.patch(5, 3.0)
    assert p.covered_radius >= 3.0
    assert int(p.labels[p.y_top - 1, -p.x_lo]) == 1
    q = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, 6).patch(5, 3.0)
    assert np.array_equal(p.labels, q.labels)


@pytest.mark.parametrize("level", [41, 45])
def test_transversal_patch_addressed_cell_past_int64(carpet, carpet_ws, level):
    # a cell address runs to 3^level, past int64 from level 40 on
    for seed in range(8):
        p = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, seed).patch(level, 3.0)
        assert int(p.labels[p.y_top - 1, -p.x_lo]) == 1


def test_transversal_patch_coverage_message(carpet, carpet_ws):
    sampler = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, 0)
    with pytest.raises(CoverageError, match="needs level >= 5"):
        sampler.patch(2, 81.0)


def test_transversal_patch_draws_exhausted(carpet, carpet_ws):
    # R 243 at level 6: the centres 244 cells clear of the edge all lie in
    # the carpet's central hole, so every draw is rejected
    sampler = TransversalSampler(carpet, carpet_ws.graph, carpet_ws.mass, 1)
    with pytest.raises(CoverageError, match=r"raise the level \(--level\)"):
        sampler.patch(6, 243.0)


def test_addressed_batch_draws_exhausted(cantor, cantor_ws, monkeypatch):
    sampler = TransversalSampler(cantor, cantor_ws.graph, cantor_ws.mass, 1)
    monkeypatch.setattr(sampler, "_MAX_DRAWS", 0)
    with pytest.raises(CoverageError, match="draw batches left 3 of 3"):
        sampler.addressed_batch(3, 10)


def test_sampler_prefix_populations(subs):
    """Per edge, the letter counts before its occurrence in the source image."""
    for name in ADMISSIBLE_1D:
        sub = subs[name]
        g = build_graph(sub)
        mass = mass_vector(g, transverse_weights(sub).xi_tr)
        sampler = TransversalSampler(sub, g, mass, 0)
        for e in range(g.n_edges):
            img = sub.image(g.letter_ids[int(g.edge_src[e])]).tolist()
            want = [img[:int(g.edge_pos[e])].count(a) for a in range(sub.n_letters)]
            assert sampler._pref[e].tolist() == want


def test_window_labels_match_full_expansion(carpet):
    full = np.array([[1]], dtype=np.uint8)
    for _ in range(4):
        full = expand_grid(carpet, full)
    g = rng(31)
    for _ in range(20):
        r0, c0 = g.integers(0, 70, size=2)
        r1 = int(r0 + g.integers(1, 12))
        c1 = int(c0 + g.integers(1, 12))
        got = _window_labels(carpet, 1, 4, int(r0), r1, int(c0), c1)
        assert np.array_equal(got, full[r0:r1, c0:c1])


# ---- distribution experiment ----

def test_distribution_deterministic(cantor):
    a = distribution_experiment(cantor, _ind(1), 4, 300, rng=0)
    b = distribution_experiment(cantor, _ind(1), 4, 300, rng=0)
    assert np.array_equal(a.values, b.values)
    assert a.samples == 300 and a.resampled >= 0


def test_distribution_level_zero(cantor):
    tab = distribution_experiment(cantor, _ind(1), 3, 500, rng=2)
    assert (tab.quantiles[0] == 1.0).all()
    assert tab.ks[0] == 1.0


def test_distribution_ks_decay(cantor):
    tab = distribution_experiment(cantor, _ind(1), 8, 10_000, rng=0)
    assert (np.diff(tab.ks) < 0).all()
    assert tab.ks[-1] < 0.05


def test_distribution_csv(cantor):
    tab = distribution_experiment(cantor, _ind(1), 2, 50, rng=1)
    lines = tab.csv().splitlines()
    assert lines[0].startswith("level,q0,q5,") and lines[0].endswith(",ks")
    assert len(lines) == 4


def _distribution_dense(sub, f, n_levels, samples, rng):
    """Renormalized sums from the dense prefix sum along each whole word."""
    rep = admissibility_report(sub)
    lam = int(round(rep.lam))
    graph = build_graph(sub)
    mass = mass_vector(graph, transverse_weights(sub).xi_tr)
    sampler = TransversalSampler(sub, graph, mass, rng)
    letters, pos, depth, _ = sampler.addressed_batch(samples, lam ** n_levels + 1)
    values = np.empty((n_levels + 1, samples))
    for letter in np.unique(letters).tolist():
        sel = letters == letter
        word = sampler._word(int(letter), depth)
        ps = np.concatenate([[0.0], np.cumsum(f.weights[word])])
        s = pos[sel]
        for i in range(n_levels + 1):
            values[i, sel] = (ps[s + lam ** i] - ps[s]) / rep.rho_B ** i
    return values


@pytest.mark.parametrize("name,levels", [("cantor", 7), ("cantor1001", 6)])
def test_distribution_matches_dense_prefix(subs, name, levels):
    sub = subs[name]
    for wts in ((0.0, 1.0), (0.3, 0.1), (1.0 / 3.0, -0.7)):
        f = Observable(np.array(wts), formal=True)
        tab = distribution_experiment(sub, f, levels, 400, rng=13)
        ref = _distribution_dense(sub, f, levels, 400, 13)
        assert tab.values.tobytes() == ref.tobytes(), (name, wts)


def test_distribution_rejects_2d(carpet):
    with pytest.raises(ValueError, match="1-d"):
        distribution_experiment(carpet, Observable(np.array([0.0, 1.0])), 2, 10)
