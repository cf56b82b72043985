import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtiling import (CoverageError, GridPatch, LengthCapError, LengthVector,
                       Tiling1DWindow, TransversalSampler, TwoSidedWord,
                       alpha_exponent, apply, ball_weight_scan,
                       btile_growth_scan, count_B_tiles_1d,
                       count_B_tiles_ball_2d, default_seed, grid_patch,
                       lemma_length_ratio, orbit_generate, patch_text,
                       prefix_radius, suspension_lengths, tiling_length,
                       window_from_sequence)
from subtiling import tiling
from subtiling.substitution import parse_substitution

from conftest import admissible_substitutions_2d, rng


@pytest.fixture(scope="module")
def cantor_window(cantor):
    x = orbit_generate(cantor, (0, 1), 10)
    return x, suspension_lengths(cantor)


# ---- tile lengths ----

def test_suspension_lengths(cantor, cantor1001, subs):
    xi = suspension_lengths(cantor)
    assert xi.xi_len.tolist() == [1.0, 1.0] and xi.rho == 3.0
    xi2 = suspension_lengths(cantor1001)
    assert xi2.xi_len.tolist() == [1.0, 2.0] and xi2.rho == 3.0
    xi9 = suspension_lengths(subs["sigma2"])
    assert xi9.xi_len.tolist() == [1.0, 1.0] and xi9.rho == 9.0


def test_suspension_lengths_exact_pair(subs):
    """exact holds the snapped rationals whose floats are xi_len and rho,
    and is None when no rational lengths satisfy the eigenvector identity."""
    for name in ("cantor", "cantor1001", "sigma2", "sigma_k0", "sigma_k1",
                 "sigma_k2", "sigma_k3"):
        xi = suspension_lengths(subs[name])
        lengths, rho = xi.exact
        assert np.array([float(f) for f in lengths]).tobytes() == xi.xi_len.tobytes()
        assert float(rho) == xi.rho
    assert suspension_lengths(subs["cantor1001"]).exact == ((1, 2), 3)
    silver = parse_substitution(json.dumps(
        {"alphabet": ["a", "b", "x"], "dim": 1,
         "rules": {"a": "aab", "b": "a", "x": "xax"}}))
    xi = suspension_lengths(silver)
    assert xi.exact is None
    assert xi.rho == pytest.approx(1 + math.sqrt(2), rel=1e-12)


def test_suspension_rejects_2d(carpet):
    with pytest.raises(ValueError, match="1-d"):
        suspension_lengths(carpet)


def test_tiling_length_basics(cantor1001):
    xi = suspension_lengths(cantor1001)
    assert tiling_length([], xi) == 0.0
    assert tiling_length([1, 0, 0, 1], xi) == 6.0
    assert tiling_length([1], xi) * 3 == tiling_length(apply(cantor1001, np.array([1])), xi)


def test_tiling_length_inflation_identity(subs):
    g = rng(11)
    for name in ("cantor", "cantor1001", "sigma_k2"):
        sub = subs[name]
        xi = suspension_lengths(sub)
        for _ in range(300):
            w = g.integers(0, sub.n_letters, size=g.integers(1, 40))
            lhs = tiling_length(apply(sub, w), xi)
            assert lhs == pytest.approx(xi.rho * tiling_length(w, xi), rel=1e-12)


def test_length_vector_validation():
    with pytest.raises(ValueError):
        LengthVector(np.array([1.0, 0.0]), 3.0)
    with pytest.raises(ValueError):
        tiling_length([0, 2], np.array([1.0, 1.0]))


# ---- 1-d windows ----

def test_window_central_tile(cantor, cantor1001):
    x = orbit_generate(cantor, (0, 1), 3)
    win = window_from_sequence(x, suspension_lengths(cantor))
    assert win.tile_support(0) == (-0.5, 0.5) and win.letter(0) == 1
    x2 = orbit_generate(cantor1001, (0, 1), 3)
    win2 = window_from_sequence(x2, suspension_lengths(cantor1001))
    assert win2.tile_support(0) == (-1.0, 1.0)
    assert win2.tile_support(1) == (1.0, 2.0) and win2.letter(1) == 0


def test_window_boundaries_monotone(cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi, lo=-100, hi=10_000)
    assert (np.diff(win.boundaries) > 0).all()
    assert win.lo == -100 and win.hi == 10_000
    assert win.boundaries[0] == pytest.approx(-100.5)


def test_window_matches_prefix_radius(cantor1001):
    x = orbit_generate(cantor1001, (0, 1), 8)
    xi = suspension_lengths(cantor1001)
    win = window_from_sequence(x, xi, lo=0, hi=2000)
    for k in rng(3).integers(0, 2000, size=50):
        assert win.tile_support(int(k))[1] == pytest.approx(
            prefix_radius(x, xi, int(k)), rel=1e-12)


def test_window_self_similarity(cantor1001):
    sub = cantor1001
    xi = suspension_lengths(sub)
    x = orbit_generate(sub, (0, 1), 6)
    w = x.slice(0, 40)
    sw = apply(sub, w)
    win = window_from_sequence(TwoSidedWord(np.empty(0, dtype=np.uint8), sw), xi)
    edges = np.concatenate([[0], np.cumsum(sub.rule_lengths[w])])
    spans = win.boundaries[edges[1:]] - win.boundaries[edges[:-1]]
    assert np.allclose(spans, xi.rho * xi.xi_len[w], rtol=1e-12)


def test_window_validation():
    with pytest.raises(ValueError, match="one more"):
        Tiling1DWindow(np.array([0, 1]), 0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="contain the index-0"):
        Tiling1DWindow(np.array([0, 1]), 1, np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ValueError, match="increasing"):
        Tiling1DWindow(np.array([0, 1]), 0, np.array([-0.5, -0.5, 1.0]))
    with pytest.raises(ValueError, match="origin"):
        Tiling1DWindow(np.array([0, 1]), 0, np.array([0.5, 1.5, 2.5]))


# ---- B-tile counting on the line ----

def test_count_decades(cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    for n in range(1, 9):
        assert count_B_tiles_1d(win, 3.0 ** n, [1]) == 2 ** n - 1


def test_count_small_t(cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi, lo=-2, hi=30)
    assert count_B_tiles_1d(win, 0.0, [1]) == 0
    assert count_B_tiles_1d(win, 1.4, [1]) == 0
    assert count_B_tiles_1d(win, 2.5, [1]) == 1


def test_count_brute_force(cantor1001):
    x = orbit_generate(cantor1001, (0, 1), 6)
    xi = suspension_lengths(cantor1001)
    win = window_from_sequence(x, xi, lo=-20, hi=500)
    g = rng(7)
    for _ in range(100):
        t = float(g.uniform(0.0, win.boundaries[-1]))
        want = 0
        for i in range(win.lo, win.hi + 1):
            a, b = win.tile_support(i)
            want += int(win.letter(i) == 1 and a >= 0.0 and b <= t)
        assert count_B_tiles_1d(win, t, [1]) == want


def test_count_monotone_in_t(cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    ts = np.sort(rng(13).uniform(0.0, 6000.0, size=60))
    counts = [count_B_tiles_1d(win, float(t), [1]) for t in ts]
    assert (np.diff(counts) >= 0).all()


def test_count_coverage_error(cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    with pytest.raises(CoverageError, match="window covers"):
        count_B_tiles_1d(win, float(win.boundaries[-1]) + 1.0, [1])


def test_count_rejects_bad_args(cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi, lo=-5, hi=5)
    with pytest.raises(ValueError):
        count_B_tiles_1d(win, -1.0, [1])
    with pytest.raises(ValueError):
        count_B_tiles_1d(win, 1.0, [])


# ---- growth scans ----

def test_growth_scan_closed_form(cantor, cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    alpha = alpha_exponent(cantor)
    t = np.array([3.0 ** k for k in range(1, 10)])
    scan = btile_growth_scan(win, alpha, t, [1])
    want = 1.0 - 2.0 ** -np.arange(1, 10)
    assert np.allclose(scan.ratios, want, rtol=1e-12)
    assert scan.k_hat == pytest.approx(1.0 - 2.0 ** -9, rel=1e-12)
    assert (np.diff(scan.running_max) >= 0).all()


def test_growth_scan_denser_grid(cantor, cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    alpha = alpha_exponent(cantor)
    coarse = np.array([3.0 ** k for k in range(1, 10)])
    fine = np.unique(np.concatenate([coarse, np.geomspace(3.0, 3.0 ** 9, 400)]))
    k_c = btile_growth_scan(win, alpha, coarse, [1]).k_hat
    k_f = btile_growth_scan(win, alpha, fine, [1]).k_hat
    assert k_c <= k_f <= k_c + 0.01


def test_growth_scan_all_A_window(cantor):
    x = orbit_generate(cantor, (0, 0), 6)
    win = window_from_sequence(x, suspension_lengths(cantor))
    scan = btile_growth_scan(win, alpha_exponent(cantor), [3.0, 9.0, 27.0], [1])
    assert scan.counts.tolist() == [0, 0, 0]
    assert scan.k_hat == 0.0


def test_growth_scan_csv(cantor, cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    scan = btile_growth_scan(win, alpha_exponent(cantor), [3.0, 9.0], [1])
    lines = scan.csv().splitlines()
    assert lines[0] == "t,count,ratio,running_max"
    assert lines[1] == "3.0,1,0.5,0.5"


def test_growth_scan_rejects_bad_grid(cantor, cantor_window):
    x, xi = cantor_window
    win = window_from_sequence(x, xi)
    a = alpha_exponent(cantor)
    with pytest.raises(ValueError):
        btile_growth_scan(win, a, [9.0, 3.0], [1])
    with pytest.raises(CoverageError):
        btile_growth_scan(win, a, [3.0 ** 12], [1])


# ---- tile-vs-letter length ratio ----

def test_length_ratio_unit_lengths(cantor):
    x = orbit_generate(cantor, (0, 1), 8)
    r = lemma_length_ratio(x, suspension_lengths(cantor), [1, 10, 100, 6000])
    assert (r == 1.0).all()


def test_length_ratio_1001(cantor1001):
    x = orbit_generate(cantor1001, (0, 1), 12)
    xi = suspension_lengths(cantor1001)
    grid = np.array([3 ** k for k in range(1, 13)])
    r = lemma_length_ratio(x, xi, grid)
    assert (np.diff(r[2:]) < 0).all()
    assert r[-1] == pytest.approx(1.0038517916382064, rel=1e-9)
    assert abs(r[-1] - 1.0) < 0.005
    assert lemma_length_ratio(x, xi, [1])[0] == xi[int(x.right[1])]


# ---- 2-d grid patches ----

def test_default_seed(carpet):
    seed = default_seed(carpet)
    assert seed.labels.tolist() == [[1, 1], [1, 1]]
    assert (seed.x_lo, seed.y_top, seed.level, seed.q) == (-1, 1, 0, 3)
    assert seed.covered_radius == 1.0
    assert seed.origin_cell == (0, 0)
    assert seed.cell_center(0, 0) == (-0.5, 0.5)


def test_default_seed_rejects(cantor, carpet):
    with pytest.raises(ValueError, match="2-d"):
        default_seed(cantor)
    with pytest.raises(ValueError, match="alphabet"):
        default_seed(carpet, 7)


def test_grid_patch_one_step(carpet):
    p = grid_patch(carpet, default_seed(carpet), 1)
    assert p.labels.shape == (6, 6)
    assert (p.x_lo, p.y_top, p.level) == (-3, 3, 1)
    assert np.argwhere(p.labels == 0).tolist() == [[1, 1], [1, 4], [4, 1], [4, 4]]


def test_grid_patch_ones_count(carpet):
    seed = default_seed(carpet)
    for n in range(5):
        p = grid_patch(carpet, seed, n)
        assert int((p.labels == 1).sum()) == 4 * 8 ** n


def test_grid_patch_composes(carpet):
    seed = default_seed(carpet)
    twice = grid_patch(carpet, grid_patch(carpet, seed, 1), 1)
    once = grid_patch(carpet, seed, 2)
    assert np.array_equal(twice.labels, once.labels)
    assert (twice.x_lo, twice.y_top, twice.level) == (once.x_lo, once.y_top, once.level)


def test_grid_patch_side_cap(carpet):
    with pytest.raises(LengthCapError, match="level 3"):
        grid_patch(carpet, default_seed(carpet), 3, side_cap=50)


def test_grid_patch_default_cap_is_the_length_cap(carpet, monkeypatch):
    # level 8 is 2 * 3^8 = 13,122 cells a side, past isqrt(LENGTH_CAP) = 10,000
    def expand(*args):
        raise AssertionError("grid_patch expanded a patch past its cap")
    monkeypatch.setattr(tiling, "expand_grid", expand)
    with pytest.raises(LengthCapError, match="patch side 13122 exceeds the cap 10000"):
        grid_patch(carpet, default_seed(carpet), 8)


def test_grid_patch_zero_steps(carpet):
    seed = default_seed(carpet)
    p = grid_patch(carpet, seed, 0)
    assert np.array_equal(p.labels, seed.labels) and p.level == 0


# ---- B-tile counting in balls ----

def test_ball_count_corner_radii(carpet):
    p = grid_patch(carpet, default_seed(carpet), 2)
    assert count_B_tiles_ball_2d(p, 0.49, [1]) == 0
    assert count_B_tiles_ball_2d(p, 1.41, [1]) == 0
    assert count_B_tiles_ball_2d(p, math.sqrt(2.0), [1]) == 4


def test_ball_count_solid_patch():
    m = 40
    p = GridPatch(np.ones((2 * m, 2 * m), dtype=np.uint8), x_lo=-m, y_top=m)
    for R in (5.0, 12.0, 30.0):
        n = count_B_tiles_ball_2d(p, R, [1])
        assert math.pi * (R - 2.0) ** 2 <= n <= math.pi * R ** 2


def test_ball_count_growth_rate(carpet):
    p = grid_patch(carpet, default_seed(carpet), 6)
    for R in (27.0, 81.0, 243.0):
        ratio = count_B_tiles_ball_2d(p, 3 * R, [1]) / count_B_tiles_ball_2d(p, R, [1])
        assert abs(ratio - 8.0) <= 0.8


def test_ball_count_coverage_error(carpet):
    p = grid_patch(carpet, default_seed(carpet), 2)
    with pytest.raises(CoverageError, match="inflate to level 4"):
        count_B_tiles_ball_2d(p, 30.0, [1])


def test_ball_weight_scan_matches_counts(carpet):
    p = grid_patch(carpet, default_seed(carpet), 2)
    radii = np.sort(rng(5).uniform(0.0, 9.0, size=50))
    scanned = ball_weight_scan(p, radii, np.array([0.0, 1.0]))
    direct = np.array([count_B_tiles_ball_2d(p, float(r), [1]) for r in radii])
    assert np.array_equal(scanned, direct.astype(float))


def test_ball_weight_scan_general_weights(carpet):
    p = grid_patch(carpet, default_seed(carpet), 2)
    radii = np.array([1.0, 4.0, 9.0])
    both = ball_weight_scan(p, radii, np.array([0.5, 2.0]))
    zeros_only = ball_weight_scan(p, radii, np.array([1.0, 0.0]))
    ones_only = ball_weight_scan(p, radii, np.array([0.0, 1.0]))
    assert np.allclose(both, 0.5 * zeros_only + 2.0 * ones_only, rtol=1e-12)


def _sort_scan(patch, radii, weights):
    """Reference scan: every weighted cell's scaled corner distance, sorted once.

    A cell centered at (cx, cy) lies in B_R exactly when
    (2|cx| + 1)^2 + (2|cy| + 1)^2 <= (2R)^2; a cumulative sum over the
    cells in order of that distance answers every radius.
    """
    i, j = np.nonzero(weights[patch.labels] != 0.0)
    ax = np.abs(2 * patch.x_lo + 2 * j + 1) + 1
    ay = np.abs(2 * patch.y_top - 2 * i - 1) + 1
    s = ax * ax + ay * ay
    order = np.argsort(s, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(weights[patch.labels[i, j]][order])])
    thr = (2.0 * np.asarray(radii)) ** 2 * (1.0 + 1e-12)
    return cum[np.searchsorted(s[order], thr, side="right")]


def _cell_counts(patch, radii, n_letters):
    """Per-cell brute force: N[a, r] = cells of letter a with all four corners in B_r."""
    counts = np.zeros((n_letters, len(radii)), dtype=np.int64)
    for i in range(patch.height):
        y_hi = patch.y_top - i
        for j in range(patch.width):
            x_lo = patch.x_lo + j
            far2 = max(x * x + y * y for x in (x_lo, x_lo + 1) for y in (y_hi - 1, y_hi))
            for k, r in enumerate(radii):
                if 4 * far2 <= (2.0 * r) ** 2 * (1.0 + 1e-12):
                    counts[patch.labels[i, j], k] += 1
    return counts


def _row_scan(patch, radii, letters):
    """Reference scan, row by row: N[a, r] from per-row prefix counts.

    A cell's scaled corner distance is ay2[i] + ax2[j]; within row i the
    cells inside B_r are the K column pairs around x = 0 with
    4 K^2 <= T - ay2[i], found by one searchsorted per (row, radius).
    """
    counts = np.zeros((len(letters), len(radii)), dtype=np.int64)
    thr = np.floor((2.0 * np.asarray(radii)) ** 2 * (1.0 + 1e-12)).astype(np.int64)
    j = np.arange(patch.width, dtype=np.int64)
    i = np.arange(patch.height, dtype=np.int64)
    ay2 = (np.abs(2 * patch.y_top - 2 * i - 1) + 1) ** 2
    c0 = -patch.x_lo
    pair_d2 = 4 * np.arange(1, max(c0, patch.width - c0) + 1, dtype=np.int64) ** 2
    pairs = np.searchsorted(pair_d2, thr[None, :] - ay2[:, None], side="right")
    lo = np.maximum(c0 - pairs, 0)
    hi = np.minimum(c0 + pairs, patch.width)
    pref = np.zeros((patch.height, patch.width + 1), dtype=np.int64)
    for n, a in enumerate(letters):
        np.cumsum(patch.labels == a, axis=1, out=pref[:, 1:])
        inside = np.take_along_axis(pref, hi, 1) - np.take_along_axis(pref, lo, 1)
        counts[n] = inside.sum(axis=0)
    return counts


def _random_patch(gen):
    """3-letter patch with the origin at an arbitrary lattice point inside it."""
    h, w = (int(v) for v in gen.integers(2, 24, size=2))
    labels = gen.integers(0, 3, size=(h, w)).astype(np.uint8)
    return GridPatch(labels, x_lo=-int(gen.integers(1, w)), y_top=int(gen.integers(1, h)))


def _oracle_radii(gen, patch):
    """0, the covered radius, random radii and every exact tie sqrt(m)/2 in range."""
    cov = patch.covered_radius
    ties = np.sqrt(np.arange(int(4 * cov * cov) + 1)) / 2.0
    return np.concatenate([[0.0, cov], gen.uniform(0.0, cov, size=8), ties[ties <= cov]])


def test_ball_weight_scan_matches_cell_oracle():
    gen = rng(41)
    for _ in range(40):
        p = _random_patch(gen)
        radii = _oracle_radii(gen, p)
        n_ar = _cell_counts(p, radii, 3)
        for w in (np.array([0.0, 1.0, 0.0]), np.array([2.0, 0.0, -3.0]),
                  np.array([1.0, 5.0, 7.0])):
            scanned = ball_weight_scan(p, radii, w)
            assert np.array_equal(scanned, (w @ n_ar).astype(float))
            assert np.array_equal(scanned, _sort_scan(p, radii, w))
        w = gen.uniform(0.1, 1.0, size=3) / 3.0
        scanned = ball_weight_scan(p, radii, w)
        exact = w @ n_ar
        assert np.allclose(scanned, exact, rtol=1e-12, atol=0.0)
        assert np.allclose(scanned, _sort_scan(p, radii, w), rtol=1e-12, atol=0.0)
        for k in (0, len(radii) // 2, len(radii) - 1):
            assert count_B_tiles_ball_2d(p, radii[k], [1, 2]) == n_ar[1:, k].sum()


@settings(max_examples=25, deadline=None)
@given(sub=admissible_substitutions_2d(), data=st.data())
def test_ball_weight_scan_matches_cell_oracle_on_generated_rules(sub, data):
    """Supertile patches of generated plane rules, seeded with a contracting
    letter and recentred on an interior lattice point: the scan equals the
    per-cell oracle at 0, the covered radius, random radii and every tie."""
    letter = data.draw(st.integers(1, sub.n_letters - 1))
    p = grid_patch(sub, default_seed(sub, letter), 2 if sub.q == 3 else 1)
    p = GridPatch(p.labels, x_lo=-data.draw(st.integers(1, p.width - 1)),
                  y_top=data.draw(st.integers(1, p.height - 1)))
    gen = rng(data.draw(st.integers(0, 2 ** 16)))
    radii = _oracle_radii(gen, p)
    n_ar = _cell_counts(p, radii, sub.n_letters)
    w = gen.integers(-3, 8, size=sub.n_letters).astype(float)
    assert np.array_equal(ball_weight_scan(p, radii, w), (w @ n_ar).astype(float))
    w = gen.uniform(0.1, 1.0, size=sub.n_letters) / 3.0
    assert np.allclose(ball_weight_scan(p, radii, w), w @ n_ar, rtol=1e-12, atol=0.0)


def test_ball_weight_scan_exact_ties():
    # around the origin the four cells have their farthest corner at distance
    # sqrt(2), the next eight at sqrt(5) and the next four at sqrt(8): a ball
    # whose radius equals one of those holds the cells exactly
    labels = rng(43).integers(0, 3, size=(7, 6)).astype(np.uint8)
    p = GridPatch(labels, x_lo=-3, y_top=3)
    radii = np.array([0.0, math.sqrt(2.0) - 1e-9, math.sqrt(2.0), math.sqrt(5.0) - 1e-9,
                      math.sqrt(5.0), math.sqrt(8.0), 3.0])
    n_ar = _cell_counts(p, radii, 3)
    assert n_ar.sum(axis=0).tolist() == [0, 0, 4, 4, 12, 16, 16]
    w = np.array([1.0, 10.0, 100.0])
    assert np.array_equal(ball_weight_scan(p, radii, w), (w @ n_ar).astype(float))
    assert np.array_equal(ball_weight_scan(p, radii, w), _sort_scan(p, radii, w))


def test_ball_weight_scan_matches_sort_scan_on_carpet(carpet):
    p = grid_patch(carpet, default_seed(carpet), 5)
    radii = np.exp(np.linspace(0.0, np.log(p.covered_radius), 41))
    w = np.array([0.0, 1.0])
    assert np.array_equal(ball_weight_scan(p, radii, w), _sort_scan(p, radii, w))
    # a float cumulative sum over 10^5 cells drifts by ~1e-11 relative, so the
    # non-dyadic reference is the rational sum of exact per-letter counts
    w = np.array([0.3, 1.0 / 3.0])
    n_ar = [_sort_scan(p, radii, np.eye(2)[a]) for a in range(2)]
    exact = np.array([float(Fraction(w[0]) * int(n0) + Fraction(w[1]) * int(n1))
                      for n0, n1 in zip(*n_ar)])
    assert np.allclose(ball_weight_scan(p, radii, w), exact, rtol=1e-15, atol=0.0)


def test_isqrt_exact_near_squares():
    # beyond 2^53 the float conversion rounds m^2 - 1 up to m^2 and m^2
    # itself down, so the float root is off by one both ways
    m = np.array([1, 2, 3, 1000, 2 ** 26 + 1, 2 ** 30 + 3, 3 ** 19, 2 ** 31 - 1],
                 dtype=np.int64)
    n = np.concatenate([m * m - 1, m * m, m * m + 1, [0, 2, 3]])
    want = [math.isqrt(int(v)) for v in n]
    assert tiling._isqrt(n).tolist() == want


def test_folded_scan_matches_oracles(monkeypatch):
    # odd and even sides, the origin at every lattice offset of the patch
    # (edges and corners included, where the ball leaves the patch), four
    # letters, and every tie radius sqrt(m)/2 up to beyond the far corner;
    # a chunk of 1 or 7 cells splits the folded rows at every edge
    gen = rng(47)
    for h, w in ((1, 1), (1, 4), (3, 2), (5, 6), (7, 7), (8, 5)):
        labels = gen.integers(0, 4, size=(h, w)).astype(np.uint8)
        reach = h * h + w * w
        radii = np.concatenate([np.sqrt(np.arange(4 * reach + 8)) / 2.0,
                                gen.uniform(0.0, math.sqrt(reach) + 1.0, size=6)])
        gen.shuffle(radii)
        weights = np.array([2.0, 0.0, -3.0, 5.0])
        for y_top in range(h + 1):
            for x_lo in range(-w, 1):
                p = GridPatch(labels, x_lo=x_lo, y_top=y_top)
                cells = _cell_counts(p, radii, 4)
                assert np.array_equal(cells, _row_scan(p, radii, [0, 1, 2, 3]))
                assert np.array_equal((weights @ cells).astype(float),
                                      _sort_scan(p, radii, weights))
                for chunk in (1, 7, 1 << 20):
                    monkeypatch.setattr(tiling, "_CHUNK_CELLS", chunk)
                    assert np.array_equal(
                        tiling._ball_letter_counts(p, radii, [0, 1, 2, 3]), cells)
                    assert np.array_equal(
                        tiling._ball_letter_counts(p, radii, [3, 1]), cells[[3, 1]])


def test_folded_scan_matches_row_scan_on_level_9_carpet(carpet_ws):
    # the second-order grid: 713 radii, evenly spaced in log R up to 2187
    R = 2187.0
    sampler = TransversalSampler(carpet_ws.sub, carpet_ws.graph, carpet_ws.mass, 3)
    p = sampler.patch(9, R)
    radii = np.exp(np.linspace(0.0, np.log(R), 713))
    assert np.array_equal(tiling._ball_letter_counts(p, radii, [0, 1]),
                          _row_scan(p, radii, [0, 1]))


def test_grid_patch_copies_caller_labels():
    labels = np.zeros((4, 6), dtype=np.int64)
    p = GridPatch(labels, x_lo=-3, y_top=2)
    labels[:] = 1
    view = np.zeros((4, 6), dtype=np.uint8)
    q = GridPatch(view[:, ::2], x_lo=-1, y_top=2)
    view[:] = 1
    for patch in (p, q):
        assert patch.labels.dtype == np.uint8 and not patch.labels.any()
        assert not patch.labels.flags.writeable
    with pytest.raises(ValueError):
        p.labels[0, 0] = 1


def test_library_patches_are_read_only(carpet, carpet_ws):
    built = grid_patch(carpet, default_seed(carpet), 2)
    sampled = TransversalSampler(carpet_ws.sub, carpet_ws.graph, carpet_ws.mass,
                                 5).patch(3, 4.0)
    for patch in (built, sampled):
        assert patch.labels.dtype == np.uint8 and not patch.labels.flags.writeable


def test_patch_text(carpet):
    txt = patch_text(grid_patch(carpet, default_seed(carpet), 1))
    lines = txt.splitlines()
    assert lines[0] == "6 6 level=1 x_lo=-3 y_top=3"
    assert lines[1] == "111111" and lines[2] == "101101"
    assert len(lines) == 7
