import json
import math
import multiprocessing
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subtiling import (BracketPrecisionError, MassVector, MarkovSampler,
                       PathPrefix, ZoomCursor, admissibility_report, alpha_exponent,
                       average_density_birkhoff, average_density_pointwise,
                       ball_measure_bracket, build_graph, cylinder_measure,
                       fixture_path, load_substitution, mass_vector,
                       suspension_lengths, transverse_weights)
from subtiling import gdifs
from subtiling.gdifs import (_default_depth, _measures_multiradius, _norm_factor,
                             _split)
from subtiling.spectral import perron_vectors, snap_rational_eigenpair
from subtiling.substitution import parse_substitution, substitution_matrix

from conftest import (ADMISSIBLE_1D, Workset, admissible_substitutions_1d,
                      admissible_substitutions_2d, rng)

# Two contracting letters with different masses and out-degrees; letter 1
# has children of both letters.  Every shipped 1-d fixture has one vertex.
TWO_VERTEX = {"alphabet": ["0", "1", "2"], "dim": 1,
              "rules": {"0": "00000", "1": "10202", "2": "10001"}}
# Two contracting letters whose tiles differ in length (2 and 1), so the
# vertices differ in half-extent too.
TWO_LENGTHS = {"alphabet": ["0", "1", "2"], "dim": 1,
               "rules": {"0": "000", "1": "1002", "2": "21"}}
# Two contracting letters of lengths 7/2 and 5 next to a unit expanding
# tile: unequal lengths whose child centres are still exact floats.
THREE_LENGTHS = {"alphabet": ["a", "x", "y"], "dim": 1,
                 "rules": {"a": "aaa", "x": "xaay", "y": "yxaaax"}}


@pytest.fixture(scope="module")
def two_vertex_ws(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "two_vertex.json"
    path.write_text(json.dumps(TWO_VERTEX))
    return Workset(load_substitution(str(path)))


def _group(graph, vids, taus):
    """Per-vertex (dim, n) centre arrays of the pieces (vids, taus), the
    layout the kernel and the zoom cursor take."""
    vids = np.asarray(vids, dtype=np.int64)
    taus = np.asarray(taus, dtype=float).reshape(len(vids), graph.dim)
    return [np.ascontiguousarray(taus[vids == v].T) for v in range(graph.n_vertices)]


# ---- per-radius oracle: one ball, cylinders classified level by level ----

def _classify(taus, halfs, x, r, side):
    """Certificate masks (inside, outside) for boxes against a closed ball.

    side "two": Euclidean ball B_r(x).  side "right": interval [x, x+r].
    `taus` holds the box centres as columns, shape (dim, n), and `halfs`
    the half-extents shared by all boxes, shape (dim, 1).
    """
    if side == "two":
        diff = np.abs(taus - x[:, None])
        near = np.maximum(diff - halfs, 0.0)
        far = diff + halfs
        near2 = np.einsum("ij,ij->j", near, near)
        far2 = np.einsum("ij,ij->j", far, far)
        inside = far2 <= r * r
        outside = near2 > r * r
    else:
        lo = taus[0] - halfs[0]
        hi = taus[0] + halfs[0]
        inside = (lo >= x[0]) & (hi <= x[0] + r)
        outside = (hi < x[0]) | (lo > x[0] + r)
    return inside, outside


def _bracket_core(graph, mass, groups, x, r, side, depth):
    """BFS over path cylinders for one ball around x; returns (lower, upper) mass."""
    groups = list(groups)
    lo_acc = 0.0
    rho = graph.rho_B
    for level in range(depth + 1):
        active = sum(t.shape[1] for t in groups)
        if active == 0:
            return lo_acc, lo_acc
        if active > gdifs._MAX_ACTIVE:
            raise BracketPrecisionError(f"bracket query exceeded {gdifs._MAX_ACTIVE} "
                                        f"active cylinders at depth {level}")
        scale = graph.lam ** (-level)
        undecided = 0.0
        for v, t in enumerate(groups):
            inside, outside = _classify(t, scale * graph.sup_half[v][:, None], x, r, side)
            keep = ~(inside | outside)
            m = mass.h[v] * rho ** (-level)
            lo_acc += m * np.count_nonzero(inside)
            undecided += m * np.count_nonzero(keep)
            groups[v] = np.compress(keep, t, axis=1)
        if undecided == 0.0 or level == depth:
            return lo_acc, lo_acc + undecided
        groups = _split(graph, groups, graph.lam ** (-(level + 1)) * graph.edge_u)
    return lo_acc, lo_acc


# ---- multiradius oracle: every level materialised ----

def _multiradius_oracle(graph, mass, groups, radii, side, depth):
    """`_measures_multiradius` with the children of every level built by
    `_split`; its two cumulative sums are returned as summed, unordered."""
    n_r = len(radii)
    thresholds = radii * radii if side == "two" else np.asarray(radii, dtype=float)
    below = np.concatenate([[-np.inf], thresholds])
    groups = list(groups)
    rho = graph.rho_B
    lower_bins = np.zeros(n_r + 1)
    upper_bins = np.zeros(n_r + 1)
    for level in range(depth + 1):
        active = sum(t.shape[1] for t in groups)
        if active == 0:
            break
        if active > gdifs._MAX_ACTIVE:
            raise BracketPrecisionError(f"bracket query exceeded {gdifs._MAX_ACTIVE} "
                                        f"active cylinders at depth {level}")
        for v, t in enumerate(groups):
            if t.shape[1] == 0:
                continue
            half = graph.lam ** (-level) * graph.sup_half[v][:, None]
            if side == "two":
                near = np.abs(t)
                far = near + half
                near -= half
                np.maximum(near, 0.0, out=near)
                key_out = np.einsum("ij,ij->j", near, near)
                key_in = np.einsum("ij,ij->j", far, far)
            else:
                lo = t[0] - half[0]
                hi = t[0] + half[0]
                key_out = np.where(hi < 0, np.inf, lo)
                key_in = np.where(lo >= 0, hi, np.inf)
            m = mass.h[v] * rho ** (-level)
            in_idx = np.searchsorted(thresholds, key_in)
            banded = below[in_idx] < key_out
            decided = m * np.bincount(in_idx[banded], minlength=n_r + 1)
            lower_bins += decided
            upper_bins += decided
            rest = ~banded
            if level == depth:
                out_idx = np.searchsorted(thresholds, key_out[rest])
                lower_bins += m * np.bincount(in_idx[rest], minlength=n_r + 1)
                upper_bins += m * np.bincount(out_idx, minlength=n_r + 1)
            else:
                groups[v] = np.compress(rest, t, axis=1)
        if level == depth:
            break
        groups = _split(graph, groups, graph.lam ** (-(level + 1)) * graph.edge_u)
    return np.cumsum(lower_bins)[:n_r], np.cumsum(upper_bins)[:n_r]


def _dyadic(x) -> bool:
    d = Fraction(float(x)).denominator
    return d & (d - 1) == 0


def _assert_matches_oracle(graph, mass, groups, radii, side, depth):
    """The kernel equals the oracle's sums in order: bit for bit where every
    cylinder mass h_v rho^-level is dyadic, within 1e-15 relative elsewhere."""
    got = _measures_multiradius(graph, mass, groups, radii, side, depth)
    raw = _multiradius_oracle(graph, mass, groups, radii, side, depth)
    want = np.minimum(*raw), np.maximum(*raw)
    rho = graph.rho_B
    exact = _dyadic(rho) and _dyadic(1.0 / rho) and all(map(_dyadic, mass.h))
    for a, b in zip(got, want):
        if exact:
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)
    return got


# ---- graph construction ----

def test_graph_cantor(cantor_ws):
    g = cantor_ws.graph
    assert g.n_vertices == 1 and g.n_edges == 2
    assert sorted(g.edge_u[:, 0].tolist()) == [-1.0, 1.0]
    assert not g.overlap


def test_graph_1001(cantor1001_ws):
    g = cantor1001_ws.graph
    assert sorted(g.edge_u[:, 0].tolist()) == [-2.0, 2.0]


def test_graph_carpet(carpet_ws):
    g = carpet_ws.graph
    assert g.n_vertices == 1 and g.n_edges == 8
    offsets = sorted(map(tuple, g.edge_u.tolist()))
    want = sorted((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                  if (dx, dy) != (0, 0))
    assert offsets == [(float(a), float(b)) for a, b in want]


def test_graph_edge_containment(cantor_ws, cantor1001_ws, carpet_ws):
    for ws in (cantor_ws, cantor1001_ws, carpet_ws):
        g = ws.graph
        for e in range(g.n_edges):
            s, d = int(g.edge_src[e]), int(g.edge_dst[e])
            hi = (g.edge_u[e] + g.sup_half[d]) / g.lam
            lo = (g.edge_u[e] - g.sup_half[d]) / g.lam
            assert (hi <= g.sup_half[s] + 1e-9).all()
            assert (lo >= -g.sup_half[s] - 1e-9).all()


def test_graph_edge_pos_is_the_image_layout(subs):
    """edge_pos lists, per source vertex, where its B letters sit in the image."""
    for name in ADMISSIBLE_1D + ["carpet"]:
        sub = subs[name]
        g = build_graph(sub)
        for v, letter in enumerate(g.letter_ids):
            img = sub.image(letter) if sub.dim == 1 else sub.grid(letter).ravel()
            pos = g.edge_pos[g.out_edges[v]]
            assert pos.tolist() == np.flatnonzero(np.isin(img, g.letter_ids)).tolist()
            dst = np.asarray(g.letter_ids)[g.edge_dst[g.out_edges[v]]]
            assert img[pos].tolist() == dst.tolist()
    carpet = build_graph(subs["carpet"])
    rows, cols = np.divmod(carpet.edge_pos, 3)
    # u = (col + 1/2 - q/2, q/2 - row - 1/2)
    assert (carpet.edge_u[:, 0] == cols - 1.0).all()
    assert (carpet.edge_u[:, 1] == 1.0 - rows).all()


# ---- 1-d geometry against an independent oracle ----

# Variable-length rules: the silver ratio (lambda = 1 + sqrt 2, no
# rational lengths) and one whose lengths 1, 2, 7/3 snap to Q but are
# not all floats.
SILVER = {"a": "aab", "b": "a", "x": "xax"}
THIRDS = {"a": "aaaa", "x": "yayy", "y": "xaaaxy"}


def _rule_1d(rules):
    return parse_substitution(json.dumps(
        {"alphabet": list(rules), "dim": 1, "rules": rules}))


def _geometry_oracle(sub):
    """The 1-d graph fields computed without `suspension_lengths`.

    Tile lengths are the left Perron vector of M with smallest entry 1,
    snapped to rationals with lambda when the eigenvector identity holds
    over Q.  Child centres come from exact sums when snapped and from a
    float cumsum otherwise; edges are listed per source in image order.
    """
    rep = admissibility_report(sub)
    b = rep.b_letters
    M = substitution_matrix(sub)
    xi = perron_vectors(M, side="left", normalization="min").vec
    lam = rep.lam
    snapped = snap_rational_eigenpair(M, xi, lam)
    exact = snapped is not None
    if exact:
        xi_fr, lam_fr = snapped
        xi = np.array([float(f) for f in xi_fr])
        lam = float(lam_fr)
    src, dst, us = [], [], []
    B = np.zeros((len(b), len(b)), dtype=np.int64)
    for s, gs in enumerate(b):
        img = sub.image(gs).tolist()
        if snapped is not None:
            ends = np.cumsum(np.array([xi_fr[g] for g in img], dtype=object))
            assert ends[-1] == lam_fr * xi_fr[gs]
            centres_fr = [e - xi_fr[g] / 2 - lam_fr * xi_fr[gs] / 2
                          for e, g in zip(ends, img)]
            centres = [float(c) for c in centres_fr]
            exact = exact and all(Fraction(c) == cf for c, cf in zip(centres, centres_fr))
        else:
            sizes = xi[img]
            assert abs(sizes.sum() - lam * xi[gs]) <= 1e-9 * max(1.0, lam * xi[gs])
            centres = list(np.cumsum(sizes) - sizes / 2.0 - lam * xi[gs] / 2.0)
        for pos, g in enumerate(img):
            if g in b:
                src.append(s)
                dst.append(b.index(g))
                us.append([centres[pos]])
                B[b.index(g), s] += 1
    sup_half = np.array([[xi[g] / 2.0] for g in b])
    edge_u = np.array(us, dtype=float)
    overlap = False
    for s in range(len(b)):
        for e1 in range(len(src)):
            for e2 in range(e1 + 1, len(src)):
                if src[e1] == src[e2] == s:
                    reach = sup_half[dst[e1], 0] + sup_half[dst[e2], 0] - gdifs._GEOM_TOL
                    overlap |= bool(abs(edge_u[e1, 0] - edge_u[e2, 0]) < reach)
    return dict(lam=lam, sup_half=sup_half, edge_u=edge_u,
                edge_src=np.array(src, dtype=np.int64),
                edge_dst=np.array(dst, dtype=np.int64), B=B,
                exact_geometry=exact, overlap=overlap)


def _assert_geometry_matches_oracle(sub):
    graph = build_graph(sub)
    for name, want in _geometry_oracle(sub).items():
        got = getattr(graph, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert type(got) is type(want) and got == want, name


@pytest.mark.parametrize("name", ADMISSIBLE_1D)
def test_graph_geometry_matches_oracle_on_fixtures(subs, name):
    _assert_geometry_matches_oracle(subs[name])


@pytest.mark.parametrize("rules", [SILVER, THIRDS, TWO_VERTEX["rules"],
                                   TWO_LENGTHS["rules"],
                                   {"a": "aaaa", "b": "aaaa", "x": "xaxx"}])
def test_graph_geometry_matches_oracle_on_variable_rules(rules):
    _assert_geometry_matches_oracle(_rule_1d(rules))


@settings(max_examples=60, deadline=None)
@given(sub=st.one_of(admissible_substitutions_1d(), admissible_substitutions_1d(min_b=2)))
def test_graph_geometry_matches_oracle_on_generated_rules(sub):
    """build_graph reads suspension_lengths for its geometry; every field
    stays bit for bit what the graph's own Perron, snap and cumsum gave."""
    assume(admissibility_report(sub).admissible)
    _assert_geometry_matches_oracle(sub)


def test_graph_keeps_the_suspension_lengths(subs):
    """A 1-d graph carries the LengthVector its tiles are laid out on;
    exact_geometry needs exact lengths, and exact lengths whose centres
    are not floats (THIRDS) leave it False."""
    for sub in [subs[name] for name in ADMISSIBLE_1D] + [_rule_1d(SILVER), _rule_1d(THIRDS)]:
        graph = build_graph(sub)
        lengths = graph.lengths
        assert lengths.xi_len.tobytes() == suspension_lengths(sub).xi_len.tobytes()
        if lengths.exact is None:
            assert not graph.exact_geometry
        else:
            assert graph.lam == lengths.rho
    assert build_graph(_rule_1d(SILVER)).lengths.exact is None
    thirds = build_graph(_rule_1d(THIRDS))
    assert thirds.lengths.exact[0] == (1, 2, Fraction(7, 3))
    assert not thirds.exact_geometry
    three = build_graph(_rule_1d(THREE_LENGTHS["rules"]))
    assert three.lengths.exact[0] == (1, Fraction(7, 2), 5) and three.exact_geometry
    assert build_graph(subs["carpet"]).lengths is None


def test_graph_edge_multiplicity(cantor1001_ws):
    g = cantor1001_ws.graph
    assert g.B.tolist() == [[2]]
    assert len(set(map(tuple, g.edge_u.tolist()))) == g.n_edges


def test_dimension_matches_alpha(cantor_ws, carpet_ws, cantor, carpet):
    assert cantor_ws.graph.alpha == alpha_exponent(cantor)
    assert carpet_ws.graph.alpha == alpha_exponent(carpet)
    for ws in (cantor_ws, carpet_ws):
        assert ws.graph.lam ** ws.graph.alpha == pytest.approx(ws.graph.rho_B, rel=1e-12)


# ---- cylinder measures ----

def test_cylinder_measure_cantor(cantor_ws):
    g, mass = cantor_ws.graph, cantor_ws.mass
    assert mass.h.tolist() == [1.0]
    samp = MarkovSampler(g, mass, seed=1)
    for k in (1, 3, 6):
        assert cylinder_measure(g, mass, samp.sample_path(k)) == \
            pytest.approx(2.0 ** -k, rel=1e-15)


def test_cylinder_measure_carpet(carpet_ws):
    samp = MarkovSampler(carpet_ws.graph, carpet_ws.mass, seed=1)
    for k in (1, 2, 4):
        assert cylinder_measure(carpet_ws.graph, carpet_ws.mass, samp.sample_path(k)) == \
            pytest.approx(8.0 ** -k, rel=1e-15)


def test_cylinder_consistency(cantor_ws, carpet_ws):
    for ws in (cantor_ws, carpet_ws):
        g, mass = ws.graph, ws.mass
        samp = MarkovSampler(g, mass, seed=9)
        for _ in range(20):
            p = samp.sample_path(4)
            last = int(g.edge_dst[p.edges[-1]])
            kids = [PathPrefix(p.start, np.append(p.edges, e))
                    for e in g.out_edges[last]]
            total = sum(cylinder_measure(g, mass, kid) for kid in kids)
            assert total == pytest.approx(cylinder_measure(g, mass, p), rel=1e-12)


def test_cylinder_rejects_broken_path(cantor_ws):
    with pytest.raises(ValueError):
        cylinder_measure(cantor_ws.graph, cantor_ws.mass,
                         PathPrefix(0, np.array([5], dtype=np.int64)))


# ---- Markov sampling ----

def test_sampler_deterministic(cantor_ws):
    a = MarkovSampler(cantor_ws.graph, cantor_ws.mass, seed=42).sample_path(30)
    b = MarkovSampler(cantor_ws.graph, cantor_ws.mass, seed=42).sample_path(30)
    assert a.start == b.start and np.array_equal(a.edges, b.edges)


def test_sampler_cylinder_frequencies(cantor_ws):
    n = 100_000
    _, edges = MarkovSampler(cantor_ws.graph, cantor_ws.mass, seed=17) \
        .sample_paths(n, 3)
    bits = (cantor_ws.graph.edge_u[edges, 0] > 0).astype(np.int64)
    code = bits @ np.array([4, 2, 1])
    counts = np.bincount(code, minlength=8)
    p = 1.0 / 8.0
    se = math.sqrt(p * (1 - p) / n)
    assert (np.abs(counts / n - p) <= 3 * se).all()


def _mask_loop_paths(graph, mass, rng_, count, length):
    """`MarkovSampler.sample_paths` as a loop over the vertices: each step
    masks the paths at each vertex and searches that vertex's cumulative
    edge probabilities."""
    cums = []
    for v, ids in enumerate(graph.out_edges):
        p = mass.h[graph.edge_dst[ids]] / (graph.rho_B * mass.h[v])
        cums.append(np.cumsum(p / p.sum()))
    start_cum = np.cumsum(mass.h / mass.h.sum())
    starts = np.searchsorted(start_cum, rng_.random(count), side="right")
    starts = np.minimum(starts, graph.n_vertices - 1)
    edges = np.empty((count, length), dtype=np.int64)
    state = starts
    for step in range(length):
        draw = rng_.random(count)
        for v, ids in enumerate(graph.out_edges):
            sel = state == v
            pick = np.searchsorted(cums[v], draw[sel], side="right")
            edges[sel, step] = ids[np.minimum(pick, len(ids) - 1)]
        state = graph.edge_dst[edges[:, step]]
    return starts, edges


def _assert_sampler_matches_mask_loop(graph, mass, seed, count, length):
    starts, edges = MarkovSampler(graph, mass, seed).sample_paths(count, length)
    want_starts, want_edges = _mask_loop_paths(
        graph, mass, np.random.Generator(np.random.Philox(seed)), count, length)
    assert np.array_equal(starts, want_starts) and np.array_equal(edges, want_edges)


@pytest.mark.parametrize("name", ADMISSIBLE_1D + ["carpet", "two_vertex", "two_lengths"])
def test_sample_paths_match_mask_loop(name, worksets):
    ws = worksets(name)
    for seed in (1, 2):
        _assert_sampler_matches_mask_loop(ws.graph, ws.mass, seed, 500, 20)


class _Ones:
    """A generator stub whose draws are all 1.0, past every cumulative probability."""

    def random(self, count):
        return np.ones(count)


def test_sampler_draw_past_the_last_edge_takes_it(two_vertex_ws):
    ws = two_vertex_ws
    sampler = MarkovSampler(ws.graph, ws.mass, seed=1)
    sampler._rng = _Ones()
    starts, edges = sampler.sample_paths(3, 4)
    want = _mask_loop_paths(ws.graph, ws.mass, _Ones(), 3, 4)
    assert np.array_equal(starts, want[0]) and np.array_equal(edges, want[1])
    last = [int(ids[-1]) for ids in ws.graph.out_edges]
    states = [starts[0], *ws.graph.edge_dst[edges[0, :-1]]]
    assert edges[0].tolist() == [last[v] for v in states]


def _generated_graph(sub):
    graph = build_graph(sub)
    return graph, mass_vector(graph, transverse_weights(sub).xi_tr)


@settings(max_examples=30, deadline=None)
@given(sub=admissible_substitutions_1d(min_b=2), seed=st.integers(0, 2 ** 16))
def test_sampler_and_cylinders_on_generated_multi_vertex_rules(sub, seed):
    """On generated rules with several vertices, the edge-table sampler
    draws the mask loop's paths, and every cylinder's measure is the sum
    of its children's."""
    assume(admissibility_report(sub).admissible)
    graph, mass = _generated_graph(sub)
    assume(graph.n_vertices > 1)
    _check_sampler_and_cylinders(graph, mass, seed)


@settings(max_examples=30, deadline=None)
@given(sub=admissible_substitutions_2d(), seed=st.integers(0, 2 ** 16))
def test_sampler_and_cylinders_on_generated_plane_rules(sub, seed):
    """The same checks on generated plane rules with two or three vertices."""
    graph, mass = _generated_graph(sub)
    assert graph.n_vertices > 1
    _check_sampler_and_cylinders(graph, mass, seed)


def _check_sampler_and_cylinders(graph, mass, seed):
    _assert_sampler_matches_mask_loop(graph, mass, seed, 200, 12)
    starts, edges = MarkovSampler(graph, mass, seed).sample_paths(20, 3)
    for start, path in zip(starts.tolist(), edges):
        for n in range(4):
            last = start if n == 0 else int(graph.edge_dst[path[n - 1]])
            kids = [PathPrefix(start, np.append(path[:n], e)) for e in graph.out_edges[last]]
            total = sum(cylinder_measure(graph, mass, kid) for kid in kids)
            want = cylinder_measure(graph, mass, PathPrefix(start, path[:n]))
            assert total == pytest.approx(want, rel=1e-12)


# ---- ball-measure brackets ----

def test_bracket_exact_gap_radii(cantor_ws):
    g, mass = cantor_ws.graph, cantor_ws.mass
    for m in range(1, 9):
        r = 1.5 * 3.0 ** -m
        lo, hi = ball_measure_bracket(g, mass, 0, -0.5, r, depth=m + 2)
        assert lo == pytest.approx(2.0 ** -m, rel=1e-12)
        assert hi == pytest.approx(2.0 ** -m, rel=1e-12)


def test_bracket_whole_attractor(cantor_ws):
    lo, hi = ball_measure_bracket(cantor_ws.graph, cantor_ws.mass, 0, 0.0, 2.0, depth=4)
    assert lo == 1.0 and hi == 1.0


def test_bracket_zero_radius(cantor_ws):
    lo10, hi10 = ball_measure_bracket(cantor_ws.graph, cantor_ws.mass, 0, -0.5, 0.0, depth=10)
    lo20, hi20 = ball_measure_bracket(cantor_ws.graph, cantor_ws.mass, 0, -0.5, 0.0, depth=20)
    assert lo10 == lo20 == 0.0
    assert hi20 <= hi10 and hi20 < 1e-4


def test_bracket_soundness_random(cantor_ws, carpet_ws):
    g = rng(23)
    for ws, d1, d2 in ((cantor_ws, 6, 12), (carpet_ws, 4, 7)):
        span = float(ws.graph.sup_half.max())
        for _ in range(150):
            x = g.uniform(-1.5 * span, 1.5 * span, size=ws.graph.dim)
            r = float(np.exp(g.uniform(np.log(1e-4), np.log(3.0))))
            lo1, hi1 = ball_measure_bracket(ws.graph, ws.mass, 0, x, r, depth=d1)
            lo2, hi2 = ball_measure_bracket(ws.graph, ws.mass, 0, x, r, depth=d2)
            assert lo1 <= hi1 and lo2 <= hi2
            assert lo1 <= lo2 + 1e-15 and hi2 <= hi1 + 1e-15


def test_bracket_one_sided(cantor_ws):
    lo, hi = ball_measure_bracket(cantor_ws.graph, cantor_ws.mass, 0, -0.5,
                                  1.5 / 27.0, depth=6, side="right")
    assert lo == pytest.approx(0.125, rel=1e-12) and hi == pytest.approx(0.125, rel=1e-12)


@pytest.mark.parametrize("name, x, r, side, message", [
    ("cantor", 0.0, 1.0, "left", "side must be"),
    ("carpet", [0.0, 0.0], 1.0, "right", "one-dimensional"),
    ("cantor", 0.0, -1.0, "two", "nonnegative"),
    ("cantor", 0.0, float("nan"), "two", "nonnegative"),
    ("carpet", 0.0, 1.0, "two", "shape")])
def test_bracket_rejects_bad_query(name, x, r, side, message, request):
    ws = request.getfixturevalue(name + "_ws")
    with pytest.raises(ValueError, match=message):
        ball_measure_bracket(ws.graph, ws.mass, 0, x, r, depth=4, side=side)


@pytest.mark.parametrize("vertex", [1, 5, -1])
def test_bracket_rejects_vertex_out_of_range(cantor_ws, vertex):
    with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
        ball_measure_bracket(cantor_ws.graph, cantor_ws.mass, vertex, 0.0, 1.0, depth=4)


BRACKET_CASES = [("cantor", "right", 12), ("cantor", "two", 12),
                 ("cantor1001", "right", 12), ("cantor1001", "two", 12),
                 ("carpet", "two", 5), ("two_vertex", "right", 10)]


@pytest.mark.parametrize("name, side, depth", BRACKET_CASES)
def test_bracket_matches_per_radius_oracle(name, side, depth, request):
    ws = request.getfixturevalue(name + "_ws")
    g = rng(47)
    dim, span = ws.graph.dim, float(ws.graph.sup_half.max())
    root = np.zeros((1, dim))
    for v in range(ws.graph.n_vertices):
        for _ in range(60):
            x = g.uniform(-1.5 * span, 1.5 * span, size=dim)
            r = float(np.exp(g.uniform(np.log(1e-4), np.log(3.0))))
            lo, hi = ball_measure_bracket(ws.graph, ws.mass, v, x, r, depth=depth,
                                          side=side)
            want = _bracket_core(ws.graph, ws.mass, _group(ws.graph, [v], root), x, r,
                                 side, depth)
            assert lo == pytest.approx(want[0], rel=1e-12, abs=0.0)
            assert hi == pytest.approx(want[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name, side, depth", BRACKET_CASES)
def test_bracket_overlaps_oracle_at_ties(name, side, depth, request):
    # points and radii on the cylinder grid: distances equal radii exactly,
    # where the kernel's offsets -x + u may round apart from the oracle's u - x
    ws = request.getfixturevalue(name + "_ws")
    dim, span, lam = ws.graph.dim, float(ws.graph.sup_half.max()), ws.graph.lam
    root = np.zeros((1, dim))
    step = 2.0 * span * lam ** -3
    for i in range(-2, round(2.0 * span / step) + 3):
        x = np.full(dim, -span + i * step)
        for m in range(1, 9):
            for r in (1.5 * lam ** -m, 2.0 * span * lam ** -m):
                lo, hi = ball_measure_bracket(ws.graph, ws.mass, 0, x, r,
                                              depth=depth, side=side)
                want = _bracket_core(ws.graph, ws.mass, _group(ws.graph, [0], root), x, r,
                                     side, depth)
                assert max(lo, want[0]) <= min(hi, want[1]) * (1 + 1e-12), (x, r)


# ---- density estimators ----

def test_density_deterministic(cantor_ws):
    kw = dict(seed=5, k=6, replicas=4)
    a = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass, **kw)
    b = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass, **kw)
    assert a.c_hat == b.c_hat
    assert np.array_equal(a.per_replica, b.per_replica)


def test_density_mass_linearity(cantor_ws):
    base = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass,
                                    seed=77, k=8, replicas=16)
    doubled = average_density_birkhoff(cantor_ws.graph,
                                       MassVector(h=2 * cantor_ws.mass.h),
                                       seed=77, k=8, replicas=16)
    assert doubled.c_hat == pytest.approx(2 * base.c_hat, rel=1e-12)


def test_density_horizon_stability(cantor_ws):
    e1 = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass,
                                  seed=77, k=8, replicas=16)
    e2 = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass,
                                  seed=77, k=16, replicas=16)
    assert abs(e1.c_hat - e2.c_hat) <= e1.stderr + e2.stderr


def test_density_methods_positive(cantor_ws):
    est = average_density_pointwise(cantor_ws.graph, cantor_ws.mass,
                                    seed=3, k=6, replicas=4)
    assert est.c_hat > 0 and est.stderr >= 0
    assert est.systematic_bound < 1e-6
    assert est.method == "pointwise" and est.per_replica.shape == (4,)


def test_density_threads_match_serial(cantor_ws):
    kw = dict(seed=5, k=6, replicas=8)
    serial = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass, threads=1, **kw)
    threaded = average_density_birkhoff(cantor_ws.graph, cantor_ws.mass,
                                        threads=4, **kw)
    assert np.array_equal(serial.per_replica, threaded.per_replica)


def test_density_pool_matches_serial_and_leaves_no_worker(carpet_ws):
    kw = dict(seed=9, k=2, replicas=3)
    serial = average_density_pointwise(carpet_ws.graph, carpet_ws.mass, threads=1, **kw)
    for threads in (0, 2, 5):
        pooled = average_density_pointwise(carpet_ws.graph, carpet_ws.mass,
                                           threads=threads, **kw)
        assert pooled.as_dict() == serial.as_dict()
        assert multiprocessing.active_children() == []


def test_run_density_pools_several_runs(cantor_ws):
    """Two labelled runs on one pool give the estimates of two serial calls."""
    kw = dict(k=4, replicas=3)
    pw, bk = gdifs._run_density(cantor_ws.graph, cantor_ws.mass,
                                [(6, "pointwise"), (7, "birkhoff")], threads=2, **kw)
    for est, fn, seed in ((pw, average_density_pointwise, 6),
                          (bk, average_density_birkhoff, 7)):
        want = fn(cantor_ws.graph, cantor_ws.mass, seed=seed, threads=1, **kw)
        assert est.as_dict() == want.as_dict()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_density_worker_error_reraised(threads):
    # the silver ratio's inexact offsets drift past the cursor's bound by k = 16
    graph, mass = _generated_graph(_rule_1d(SILVER))
    with pytest.raises(BracketPrecisionError, match="offset recursion drift"):
        average_density_birkhoff(graph, mass, seed=1, k=16, replicas=3, threads=threads)
    assert multiprocessing.active_children() == []


def test_density_pool_cancels_pending_replicas_on_error(cantor_ws, tmp_path, monkeypatch):
    # forked workers inherit the patched replica: the first raises at once, the
    # others leave a mark and take a while, so only tasks already started run
    def replica(graph, mass, stream, *rest):
        if stream.spawn_key[-1] == 0:
            raise BracketPrecisionError("first replica")
        (tmp_path / str(stream.spawn_key[-1])).touch()
        time.sleep(0.02)
        return 0.0, 0.0

    monkeypatch.setattr(gdifs, "_replica", replica)
    with pytest.raises(BracketPrecisionError, match="first replica"):
        average_density_birkhoff(cantor_ws.graph, cantor_ws.mass, seed=1, k=1,
                                 replicas=40, threads=2)
    assert multiprocessing.active_children() == []
    assert len(list(tmp_path.iterdir())) < 20


def test_density_workers_sized_to_the_cpus(monkeypatch):
    monkeypatch.setattr(gdifs.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [gdifs._density_workers(0, n) for n in (1, 2, 3, 8)] == [1, 2, 3, 3]
    assert [gdifs._density_workers(t, 4) for t in (1, 2, 6)] == [1, 2, 4]


def test_density_labels_share_one_estimator(carpet_ws):
    kw = dict(seed=12, k=2, replicas=2)
    pw = average_density_pointwise(carpet_ws.graph, carpet_ws.mass, **kw)
    bk = average_density_birkhoff(carpet_ws.graph, carpet_ws.mass, **kw)
    assert np.array_equal(pw.per_replica, bk.per_replica)
    assert (pw.method, bk.method) == ("pointwise", "birkhoff")


@pytest.mark.parametrize("bad", [dict(k=0), dict(replicas=0), dict(replicas=-1),
                                 dict(side="left"), dict(threads=-1)])
def test_density_rejects_bad_input(cantor_ws, bad):
    kw = dict(seed=1, k=2, replicas=2) | bad
    with pytest.raises(ValueError):
        average_density_pointwise(cantor_ws.graph, cantor_ws.mass, **kw)


# ---- the multiradius kernel against per-radius oracles ----

def _cursor_states(ws, k, seed, terms=60):
    """Per-vertex offsets of the zoom cursor at levels 0 .. k-1 of one path."""
    path = MarkovSampler(ws.graph, ws.mass, seed).sample_path(k + terms + 1)
    cursor = ZoomCursor(ws.graph, path, terms=terms)
    for m in range(k):
        yield cursor.deltas()
        if m < k - 1:
            cursor.descend()


def _flat_cursor_states(graph, path, k, terms=60):
    """(vids, offsets) at levels 0 .. k-1 of a zoom cursor that keeps its
    pieces in one flat array and walks the vertices with masks."""
    lam = graph.lam
    tail_w = lam ** (-np.arange(1, terms + 1, dtype=float))
    vids, D = np.array([path.start]), np.zeros((1, graph.dim))
    for level in range(k):
        if level:
            em_u = graph.edge_u[path.edges[level - 1]]
            parts_v, parts_d = [], []
            for v in range(graph.n_vertices):
                sel = vids == v
                if not sel.any():
                    continue
                ids = graph.out_edges[v]
                d = lam * D[sel][:, None, :] + (graph.edge_u[ids] - em_u)[None, :, :]
                parts_d.append(d.reshape(-1, graph.dim))
                parts_v.append(np.tile(graph.edge_dst[ids], int(sel.sum())))
            vids, D = np.concatenate(parts_v), np.concatenate(parts_d)
        ids = path.edges[level : level + terms]
        delta = D - tail_w[: len(ids)] @ graph.edge_u[ids]
        if level:
            near = np.maximum(np.abs(delta) - graph.sup_half[vids], 0.0)
            keep = np.einsum("ij,ij->i", near, near) <= (1.0 + gdifs._PRUNE_SLACK) ** 2
            vids, D, delta = vids[keep], D[keep], delta[keep]
        yield vids, delta


def _assert_cursor_matches_flat(graph, mass, seed, k):
    path = MarkovSampler(graph, mass, seed).sample_path(k + 61)
    cursor = ZoomCursor(graph, path, terms=60)
    for m, (vids, delta) in enumerate(_flat_cursor_states(graph, path, k)):
        assert np.array_equal(cursor.vids, np.sort(vids))
        for got, want in zip(cursor.deltas(), _group(graph, vids, delta)):
            assert np.array_equal(got, want)
        if m < k - 1:
            cursor.descend()


@pytest.mark.parametrize("name", ["cantor", "carpet", "two_vertex", "two_lengths"])
def test_cursor_matches_flat_descend(name, worksets):
    ws = worksets(name)
    k = 4 if name == "carpet" else 12
    for seed in (1, 2, 3):
        _assert_cursor_matches_flat(ws.graph, ws.mass, seed, k)


@settings(max_examples=30, deadline=None)
@given(sub=admissible_substitutions_1d(min_b=2), seed=st.integers(0, 2 ** 16))
def test_cursor_matches_flat_descend_on_generated_multi_vertex_rules(sub, seed):
    assume(admissibility_report(sub).admissible)
    graph, mass = _generated_graph(sub)
    assume(graph.n_vertices > 1)
    _assert_cursor_matches_flat(graph, mass, seed, 8)


@pytest.mark.parametrize("name, side, depth", [
    ("cantor", "right", 26), ("cantor", "two", 26), ("carpet", "two", 5),
    ("two_vertex", "right", 20), ("two_vertex", "two", 20)])
def test_multiradius_matches_per_radius_brackets(name, side, depth, request):
    ws = request.getfixturevalue(name + "_ws")
    g, J = ws.graph, 32
    radii = g.lam ** (-np.arange(J, -1, -1, dtype=float) / J)
    x0 = np.zeros(g.dim)
    for delta in _cursor_states(ws, k=3, seed=21):
        lower, upper = _measures_multiradius(g, ws.mass, delta, radii, side, depth)
        for i, r in enumerate(radii):
            lo, hi = _bracket_core(g, ws.mass, delta, x0, r, side, depth)
            assert lower[i] == pytest.approx(lo, rel=1e-12, abs=0.0)
            assert upper[i] == pytest.approx(hi, rel=1e-12, abs=0.0)
    # Unit boxes whose near or far distance is exactly the radius 1: the
    # kernel may classify their children again, so its bracket contains
    # the per-radius one instead of equalling it.
    assert (g.sup_half == 0.5).all()
    ties = np.zeros((3, g.dim))
    ties[:, 0] = (0.5, 1.5, -1.5)
    ties = _group(g, np.zeros(3, dtype=np.int64), ties)
    lower, upper = _measures_multiradius(g, ws.mass, ties, radii, side, depth)
    lo, hi = _bracket_core(g, ws.mass, ties, x0, 1.0, side, depth)
    assert lower[-1] <= lo * (1 + 1e-12) and hi <= upper[-1] * (1 + 1e-12)
    assert lower[-1] > 0 and hi > lo


KERNEL_CASES = ([(name, side) for name in ADMISSIBLE_1D for side in ("right", "two")]
                + [("carpet", "two"), ("two_vertex", "right"), ("two_vertex", "two"),
                   ("two_lengths", "right"), ("two_lengths", "two"),
                   ("three_lengths", "right"), ("three_lengths", "two"),
                   ("plane_two_vertex", "two")])


@pytest.fixture(scope="module")
def worksets(subs, carpet_ws, two_vertex_ws):
    cache = {"carpet": carpet_ws, "two_vertex": two_vertex_ws,
             "two_lengths": Workset(parse_substitution(json.dumps(TWO_LENGTHS))),
             "three_lengths": Workset(parse_substitution(json.dumps(THREE_LENGTHS))),
             "plane_two_vertex": Workset(load_substitution(fixture_path("plane_two_vertex")))}

    def get(name):
        if name not in cache:
            cache[name] = Workset(subs[name])
        return cache[name]
    return get


# count_min 1 counts the children of every group, however small
@pytest.mark.parametrize("count_min", [gdifs._COUNT_MIN, 1])
@pytest.mark.parametrize("name, side", KERNEL_CASES)
def test_kernel_matches_materialised_oracle(name, side, count_min, worksets, monkeypatch):
    monkeypatch.setattr(gdifs, "_COUNT_MIN", count_min)
    ws = worksets(name)
    g, J = ws.graph, 32
    depth = _default_depth(g) if g.dim == 1 else 5
    grid = g.lam ** (-np.arange(J, -1, -1, dtype=float) / J)
    for seed in (21, 22):
        for delta in _cursor_states(ws, k=3, seed=seed):
            _assert_matches_oracle(g, ws.mass, delta, grid, side, depth)
    # exact ties: points and radii on the cylinder grid, as in
    # test_bracket_overlaps_oracle_at_ties, all radii in one query
    span, lam = float(g.sup_half.max()), g.lam
    step = 2.0 * span * lam ** -3
    radii = np.unique([f * lam ** -m for m in range(1, 9) for f in (1.5, 2.0 * span)])
    for v in range(g.n_vertices):
        for i in range(-2, round(2.0 * span / step) + 3):
            x = np.full(g.dim, -span + i * step)
            _assert_matches_oracle(g, ws.mass, _group(g, [v], -x[None, :]), radii, side,
                                   depth)


@pytest.mark.parametrize("name, side, depth, r0", [
    ("carpet", "two", 3, 0.5), ("two_vertex", "right", 6, 0.2),
    ("two_vertex", "two", 4, 0.5)])
def test_kernel_fallback_when_band_holds_several_radii(name, side, depth, r0, worksets,
                                                       monkeypatch):
    # radii 0.2% apart: at a small depth a cylinder's band holds several, so
    # some parents of the deepest level have their children built
    ws = worksets(name)
    monkeypatch.setattr(gdifs, "_COUNT_MIN", 1)
    count = gdifs._count_children
    calls = []

    def spy(graph, v, t, *args):
        split = count(graph, v, t, *args)
        calls.append((t.shape[1], int(np.count_nonzero(split))))
        return split
    monkeypatch.setattr(gdifs, "_count_children", spy)
    radii = r0 + 0.001 * np.arange(60)
    for seed in (8, 9):
        for delta in _cursor_states(ws, k=3, seed=seed):
            _assert_matches_oracle(ws.graph, ws.mass, delta, radii, side, depth)
    parents = sum(n for n, _ in calls)
    split = sum(s for _, s in calls)
    assert 0 < split < parents


def test_kernel_budget_counts_unbuilt_children(carpet_ws, monkeypatch):
    ws, depth = carpet_ws, 4
    monkeypatch.setattr(gdifs, "_COUNT_MIN", 1)
    g, J = ws.graph, 32
    radii = g.lam ** (-np.arange(J, -1, -1, dtype=float) / J)
    taus = next(_cursor_states(ws, k=1, seed=5))
    split = _split
    built = []

    def spy(graph, groups, offsets):
        out = split(graph, groups, offsets)
        built.append(sum(t.shape[1] for t in out))
        return out
    monkeypatch.setitem(globals(), "_split", spy)
    want = _multiradius_oracle(g, ws.mass, taus, radii, "two", depth)
    deepest = built[-1]
    monkeypatch.setattr(gdifs, "_split", spy)
    built.clear()
    monkeypatch.setattr(gdifs, "_MAX_ACTIVE", deepest)
    got = _measures_multiradius(g, ws.mass, taus, radii, "two", depth)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert built[-1] < deepest  # most of the deepest level is never built
    monkeypatch.setattr(gdifs, "_MAX_ACTIVE", deepest - 1)
    with pytest.raises(BracketPrecisionError, match=f"at depth {depth}"):
        _measures_multiradius(g, ws.mass, taus, radii, "two", depth)
    with pytest.raises(BracketPrecisionError, match=f"at depth {depth}"):
        _multiradius_oracle(g, ws.mass, taus, radii, "two", depth)


@settings(max_examples=40, deadline=None)
@given(sub=admissible_substitutions_1d(), side=st.sampled_from(["right", "two"]),
       seed=st.integers(0, 2 ** 16), n_pieces=st.integers(1, 4),
       n_radii=st.integers(1, 8), count_min=st.sampled_from([gdifs._COUNT_MIN, 1]))
def test_kernel_oracle_and_depth_nesting_on_generated_rules(sub, side, seed, n_pieces,
                                                            n_radii, count_min):
    """Kernel equals oracle on generated admissible rules, and deeper
    brackets nest: lower never falls and upper never rises."""
    assume(admissibility_report(sub).admissible)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdifs, "_COUNT_MIN", count_min)
        _check_generated(sub, side, seed, n_pieces, n_radii, max_depth=6)


@settings(max_examples=30, deadline=None)
@given(sub=admissible_substitutions_2d(), seed=st.integers(0, 2 ** 16),
       n_pieces=st.integers(1, 4), n_radii=st.integers(1, 8),
       count_min=st.sampled_from([gdifs._COUNT_MIN, 1]))
def test_kernel_oracle_and_depth_nesting_on_generated_plane_rules(sub, seed, n_pieces,
                                                                  n_radii, count_min):
    """The same on generated plane rules, to depth 4: a q^-depth grid of
    cylinders along each ball's edge."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdifs, "_COUNT_MIN", count_min)
        _check_generated(sub, "two", seed, n_pieces, n_radii, max_depth=4)


def _check_generated(sub, side, seed, n_pieces, n_radii, max_depth):
    graph, mass = _generated_graph(sub)
    g = rng(seed)
    span = float(graph.sup_half.max())
    vids = g.integers(0, graph.n_vertices, n_pieces)
    taus = _group(graph, vids, g.uniform(-1.5 * span, 1.5 * span,
                                         size=(n_pieces, graph.dim)))
    radii = np.sort(g.uniform(0.0, 2.0 * span, size=n_radii))
    # masses are summed in different orders, so comparisons allow rounding
    tol = 1e-12 * float(mass.h.max()) * n_pieces
    prev = None
    for depth in range(max_depth + 1):
        lower, upper = _assert_matches_oracle(graph, mass, taus, radii, side, depth)
        assert (lower <= upper).all()
        if prev is not None:
            assert (prev[0] <= lower + tol).all() and (upper <= prev[1] + tol).all()
        prev = lower, upper


def test_kernel_orders_sums_that_round_across():
    """Where a bracket closes, the lower and upper sums can round across
    each other: on this rule (rho 3, lam 4) some of the oracle's raw
    pairs cross by an ulp or two, and the kernel returns every pair in
    order."""
    graph, mass = _generated_graph(parse_substitution(json.dumps(
        {"alphabet": ["a", "b", "x"], "dim": 1,
         "rules": {"a": "aaaa", "b": "aaaa", "x": "xaxx"}})))
    g = rng(1)
    span = float(graph.sup_half.max())
    crossed = 0
    for _ in range(100):
        taus = _group(graph, g.integers(0, graph.n_vertices, 1),
                      g.uniform(-1.5 * span, 1.5 * span, size=(1, 1)))
        radii = np.sort(g.uniform(0.0, 2.0 * span, size=8))
        for depth in (2, 3, 4):
            lower, upper = _measures_multiradius(graph, mass, taus, radii, "right", depth)
            raw = _multiradius_oracle(graph, mass, taus, radii, "right", depth)
            crossed += int(np.count_nonzero(raw[0] > raw[1]))
            assert (lower <= upper).all()
            assert np.array_equal(lower, np.minimum(*raw))
            assert np.array_equal(upper, np.maximum(*raw))
    assert crossed > 0


def _per_radius_trapezoid(graph, mass, seed, k, J, depth, side, terms):
    """Reference replica: a fresh single-radius bracket at every grid scale."""
    path = MarkovSampler(graph, mass, seed).sample_path(k + terms + 1)
    cursor = ZoomCursor(graph, path, terms=terms)
    lam, alpha = graph.lam, graph.alpha
    x0 = np.zeros(graph.dim)
    total = 0.0
    syst = 0.0
    n_pts = k * J + 1
    for m in range(k):
        delta = cursor.deltas()
        last = J if m == k - 1 else J - 1
        for j in range(last + 1):
            s = lam ** (-j / J)
            glob = m * J + j
            w = 0.5 if glob in (0, n_pts - 1) else 1.0
            lo, hi = _bracket_core(graph, mass, delta, x0, s, side, depth)
            norm = _norm_factor(s, alpha, side)
            total += w * 0.5 * (lo + hi) / norm
            syst += w * 0.5 * (hi - lo) / norm
        if m < k - 1:
            cursor.descend()
    return total / (J * k), syst / (J * k)


# two_vertex has lam = 5: at depth 26 its cylinders are narrower than the
# float spacing of their offsets, so it runs at 18, its default depth.
@pytest.mark.parametrize("name, k, depth", [
    ("cantor", 6, None), ("carpet", 2, None), ("two_vertex", 5, 18)])
def test_pointwise_matches_per_radius_trapezoid(name, k, depth, request):
    ws = request.getfixturevalue(name + "_ws")
    seed, replicas = 31, 3
    est = average_density_pointwise(ws.graph, ws.mass, seed=seed, k=k,
                                    replicas=replicas, depth=depth)
    J = round(1.0 / est.step)
    streams = np.random.SeedSequence(seed).spawn(replicas)
    for value, stream in zip(est.per_replica, streams):
        ref, bound = _per_radius_trapezoid(ws.graph, ws.mass, stream, k, J,
                                           est.depth, est.side, 60)
        assert abs(value - ref) <= bound


def test_default_depth_follows_lam(subs, carpet_ws):
    depths = {name: _default_depth(build_graph(subs[name]))
              for name in ("cantor", "cantor1001", "sigma2", "sigma_k1")}
    assert depths == {"cantor": 26, "cantor1001": 26, "sigma2": 13, "sigma_k1": 13}
    assert _default_depth(carpet_ws.graph) == 7


@pytest.mark.parametrize("name", ["sigma2", "sigma_k1"])
def test_lam9_default_bracket_holds_deeper_value(name, subs):
    # past float resolution (depth 26 at lam 9) the bracket closes to width
    # 0; at the default depth it must stay open and hold the value one
    # level deeper
    ws = Workset(subs[name])
    for seed in (3, 4):
        est = average_density_pointwise(ws.graph, ws.mass, seed=seed, k=4, replicas=1)
        deeper = average_density_pointwise(ws.graph, ws.mass, seed=seed, k=4,
                                           replicas=1, depth=est.depth + 1)
        assert est.depth == 13 and est.systematic_bound > 0.0
        assert abs(est.c_hat - deeper.c_hat) <= est.systematic_bound


def test_multiradius_active_set_guard(carpet_ws, monkeypatch):
    monkeypatch.setattr(gdifs, "_MAX_ACTIVE", 500)
    with pytest.raises(BracketPrecisionError, match="500 active cylinders"):
        average_density_pointwise(carpet_ws.graph, carpet_ws.mass, seed=1, k=2, replicas=1)
