import heapq
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtiling import (MassVector, Observable, admissibility_report,
                       alpha_exponent, build_graph, distribution_experiment,
                       fixture_path, is_primitive, load_matrix_config,
                       matrix_report, measure_normalization, normal_form,
                       perron_vectors, require_admissible,
                       snap_rational_eigenpair, substitution_matrix,
                       suspension_lengths, transverse_weights)
from subtiling.spectral import _PERRON_STEPS
from subtiling.substitution import ConfigError, parse_substitution

from conftest import ADMISSIBLE_1D, FIXTURES, rng

GOLDEN = (1 + math.sqrt(5)) / 2


# ---- normal form ----

def test_normal_form_cantor(cantor):
    ns = normal_form(substitution_matrix(cantor))
    assert ns.blocks == [[0], [1]]
    assert ns.kinds == ["primitive", "primitive"]
    assert ns.radii == [3.0, 2.0]


def test_normal_form_single_block():
    ns = normal_form(np.array([[1, 1], [1, 1]]))
    assert len(ns.blocks) == 1 and ns.kinds == ["primitive"]


def test_normal_form_triangularizes():
    g = rng(11)
    for _ in range(200):
        n = int(g.integers(1, 7))
        M = (g.random((n, n)) < 0.4) * g.integers(1, 4, (n, n))
        ns = normal_form(M)
        P = ns.permuted(M)
        pos = 0
        for blk in ns.blocks:
            below = P[pos + len(blk):, pos:pos + len(blk)]
            assert not below.any()
            pos += len(blk)


def _tarjan_sccs(adj):
    """Iterative Tarjan; components returned with vertices sorted."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack, comps, counter = [], [], 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def _normal_form_oracle(M):
    """Tarjan components of the graph b -> a (M[a, b] > 0), ordered by a
    heap over the condensation keyed by each class's smallest letter."""
    n = M.shape[0]
    adj = [[int(a) for a in np.nonzero(M[:, b])[0]] for b in range(n)]
    comps = _tarjan_sccs(adj)
    cid = {v: i for i, comp in enumerate(comps) for v in comp}
    out = [{cid[a] for b in comp for a in adj[b]} - {c} for c, comp in enumerate(comps)]
    preds = [{c for c in range(len(comps)) if t in out[c]} for t in range(len(comps))]
    outdeg = [len(s) for s in out]
    heap = [(comps[c][0], c) for c in range(len(comps)) if outdeg[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        for p in preds[c]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                heapq.heappush(heap, (comps[p][0], p))
    blocks = [comps[c] for c in order]
    kinds, radii = [], []
    for blk in blocks:
        D = M[np.ix_(blk, blk)]
        if not D.any():
            kinds.append("zero")
            radii.append(0.0)
        else:
            kinds.append("primitive" if is_primitive(D) else "imprimitive")
            radii.append(float(perron_vectors(D, side="right").rho))
    block_of = np.empty(n, dtype=np.int64)
    for i, blk in enumerate(blocks):
        block_of[blk] = i
    return blocks, kinds, radii, [not out[c] for c in order], block_of


def _assert_matches_oracle(M):
    blocks, kinds, radii, minimal, block_of = _normal_form_oracle(M)
    ns = normal_form(M)
    assert ns.blocks == blocks
    assert ns.kinds == kinds and ns.radii == radii and ns.minimal == minimal
    assert np.array_equal(ns.block_of, block_of)


@st.composite
def _class_matrices(draw):
    """Sparse non-negative n x n matrices, n = 1..12, with an added cycle
    (periodic unless it closes on one letter), self-loops and zero rows."""
    n = draw(st.integers(1, 12))
    M = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 0, 0, 1, 2]),
                               min_size=n * n, max_size=n * n))).reshape(n, n)
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        M[v, u] = 1
    for i in draw(st.sets(st.integers(0, n - 1))):
        M[i, i] = draw(st.integers(1, 3))
    for i in draw(st.sets(st.integers(0, n - 1))):
        M[i, :] = 0
    return M


@settings(max_examples=300, deadline=None)
@given(M=_class_matrices())
def test_normal_form_matches_tarjan_oracle(M):
    _assert_matches_oracle(M)


@pytest.mark.parametrize("seed", range(3))
def test_normal_form_matches_tarjan_oracle_wide(seed):
    # 150 letters: packed reachability rows span 19 bytes, and most
    # letters are their own class, so the placement order is long
    rng = np.random.default_rng(seed)
    M = (rng.random((150, 150)) < 1.5 / 150).astype(np.int64) * 2
    _assert_matches_oracle(M)


@pytest.mark.parametrize("name", FIXTURES + ["fractal73_matrix", "rauzy_ext_matrix"])
def test_normal_form_matches_tarjan_oracle_on_fixtures(subs, name):
    M = (load_matrix_config(fixture_path(name)).matrix if name.endswith("_matrix")
         else substitution_matrix(subs[name]))
    _assert_matches_oracle(M)


def test_normal_form_rauzy_blocks():
    cfg = load_matrix_config(fixture_path("rauzy_ext_matrix"))
    ns = normal_form(cfg.matrix)
    b = ns.blocks[-1]
    a = [v for blk in ns.blocks[:-1] for v in blk]
    assert len(b) == 2 and len(a) == 3
    assert cfg.matrix[np.ix_(a, b)].any()


# ---- primitivity ----

def test_is_primitive_basics():
    assert is_primitive(np.array([[8]]))
    assert not is_primitive(np.array([[0, 1], [1, 0]]))
    assert is_primitive(np.array([[0, 1, 0], [1, 0, 1], [1, 1, 0]]))


def _primitive_brute(M: np.ndarray) -> bool:
    n = len(M)
    A = M > 0
    P = A.copy()
    for _ in range(2 * n * n):
        if P.all():
            return True
        P = (P.astype(int) @ A.astype(int)) > 0
    return bool(P.all())


def test_is_primitive_matches_brute_force():
    for bits in range(3 ** 4):
        e, rest = bits % 3, bits // 3
        M = np.empty((2, 2), dtype=np.int64)
        for k in range(4):
            M.flat[k] = (bits // 3 ** k) % 3
        assert is_primitive(M) == _primitive_brute(M)
    g = rng(5)
    for _ in range(300):
        n = int(g.integers(3, 5))
        M = g.integers(0, 3, (n, n))
        assert is_primitive(M) == _primitive_brute(M)


# ---- spectral radius: the largest radius of the normal form's classes ----

def spectral_radius(M):
    return max(normal_form(np.asarray(M)).radii)


def test_spectral_radius_triangular(cantor):
    assert spectral_radius(substitution_matrix(cantor)) == pytest.approx(3.0, rel=1e-12)
    g = rng(3)
    for _ in range(50):
        n = int(g.integers(2, 6))
        M = np.triu(g.integers(0, 5, (n, n)))
        assert spectral_radius(M) == pytest.approx(M.diagonal().max(), abs=1e-9)


def test_spectral_radius_golden():
    assert spectral_radius(np.array([[1, 1], [1, 0]])) == pytest.approx(GOLDEN, rel=1e-9)
    assert spectral_radius(np.array([[0, 1, 0], [1, 0, 1], [1, 1, 0]])) == \
        pytest.approx(GOLDEN, rel=1e-9)


def test_spectral_radius_imprimitive():
    assert spectral_radius(np.array([[0, 2], [2, 0]])) == pytest.approx(2.0, rel=1e-9)


def test_spectral_radius_power_identity():
    g = rng(13)
    for _ in range(30):
        M = g.integers(0, 3, (3, 3))
        r = spectral_radius(M)
        if r < 1e-9:
            continue
        for k in range(2, 5):
            assert spectral_radius(np.linalg.matrix_power(M, k)) == \
                pytest.approx(r ** k, rel=1e-9)


# ---- Perron vectors ----

def test_perron_left_cantor(cantor):
    pd = perron_vectors(substitution_matrix(cantor), side="left",
                        normalization="min")
    assert pd.rho == pytest.approx(3.0, rel=1e-12)
    assert np.allclose(pd.vec, [1.0, 1.0], atol=1e-10)


def test_perron_left_1001(cantor1001):
    pd = perron_vectors(substitution_matrix(cantor1001), side="left",
                        normalization="min")
    assert np.allclose(pd.vec, [1.0, 2.0], atol=1e-9)


def test_perron_right_scalar():
    pd = perron_vectors(np.array([[2]]), side="right")
    assert pd.vec.tolist() == [1.0] and pd.rho == 2.0


def test_perron_residuals(subs):
    for name in ADMISSIBLE_1D:
        M = substitution_matrix(subs[name])
        pd = perron_vectors(M, side="left", normalization="sum")
        assert pd.residual <= 1e-10
        assert pd.vec.min() > 0
        rep = admissibility_report(subs[name])
        B = M[np.ix_(rep.b_letters, rep.b_letters)]
        pr = perron_vectors(B, side="right", normalization="sum")
        assert pr.residual <= 1e-10 and pr.vec.min() > 0


def test_perron_shifted_iteration_handles_period_two():
    pd = perron_vectors(np.array([[0, 1], [1, 0]]))
    assert pd.rho == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pd.vec, [0.5, 0.5])


def _long_cycle(p):
    """A p-cycle of letters with one entry 2: irreducible of period p, root 2^(1/p)."""
    M = np.zeros((p, p), dtype=np.int64)
    M[(np.arange(p) + 1) % p, np.arange(p)] = 1
    M[0, p - 1] = 2
    return M


@pytest.mark.parametrize("side", ["left", "right"])
def test_perron_falls_back_to_eig_on_long_period(side):
    # the shifted iteration contracts by about cos(pi / 60) per step here and
    # would settle only after 13,931 steps
    pd = perron_vectors(_long_cycle(60), side=side, normalization="min")
    assert pd.iterations == _PERRON_STEPS
    assert pd.rho == pytest.approx(2.0 ** (1.0 / 60), rel=1e-14)
    assert pd.vec.min() == 1.0 and pd.residual <= 1e-13
    assert pd.vec.max() == pytest.approx(2.0 ** (59 / 60), rel=1e-12)


def test_perron_rejects_nonpositive_eigenvector(cantor):
    with pytest.raises(ValueError, match="strictly positive"):
        perron_vectors(substitution_matrix(cantor), side="right")


def test_snap_rational_eigenpair(cantor1001):
    M = substitution_matrix(cantor1001)
    pd = perron_vectors(M, side="left", normalization="min")
    snapped = snap_rational_eigenpair(M, pd.vec, pd.rho)
    assert snapped is not None
    vec, rho = snapped
    assert [float(f) for f in vec] == [1.0, 2.0] and float(rho) == 3.0


# ---- alpha ----

def test_alpha_values(subs):
    assert alpha_exponent(subs["cantor"]) == \
        pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert alpha_exponent(subs["carpet"]) == \
        pytest.approx(math.log(8) / math.log(3), abs=1e-12)
    for k in range(4):
        assert alpha_exponent(subs[f"sigma_k{k}"]) == pytest.approx(0.5, abs=1e-12)


def test_alpha_identity(subs):
    for name in ADMISSIBLE_1D + ["carpet"]:
        rep = admissibility_report(subs[name])
        assert rep.lam ** rep.alpha == pytest.approx(rep.rho_B, rel=1e-12)


# ---- admissibility ----

def test_admissibility_cantor(cantor):
    rep = admissibility_report(cantor)
    assert rep.admissible and rep.failures == []
    assert rep.tec1_ok and rep.tec2_ok and rep.tec2_witness_k == 2
    assert rep.a_letters == [0] and rep.b_letters == [1]


def test_admissibility_1001(cantor1001):
    rep = admissibility_report(cantor1001)
    assert rep.admissible and rep.tec2_witness_k == 2


def test_admissibility_openq1(subs):
    rep = admissibility_report(subs["openq1"])
    assert not rep.admissible
    assert rep.alpha is None
    assert any("left eigenvector" in f for f in rep.failures)


def _rule(rules, dim=1):
    return parse_substitution(json.dumps(
        {"alphabet": sorted(rules), "dim": dim, "rules": rules}))


@pytest.mark.parametrize("rules, dim, max_k, failures", [
    ({"a": "aaa", "x": "axy", "y": "yxa"}, 1, 12,
     ["image of 'x' does not start and end with B letters",
      "image of 'y' does not start and end with B letters"]),
    ({"a": "aaa", "x": "xax"}, 1, 1,
     ["no interior B letter in any sigma^k('x') for k <= 1"]),
    ({"0": ["00", "00"], "1": ["11", "01"]}, 2, 1,
     ["grid border of '1' contains A letters",
      "no interior B cell in any power of the grid of '1' for k <= 1"]),
])
def test_letter_condition_failures(rules, dim, max_k, failures):
    """Boundary failures come before interior failures, in letter order."""
    rep = admissibility_report(_rule(rules, dim), tec2_max_k=max_k)
    assert rep.shape_ok and rep.rho_order_ok
    assert rep.failures == failures


def test_report_dict_round(cantor):
    d = admissibility_report(cantor).as_dict()
    assert d["alpha"] == pytest.approx(math.log(2) / math.log(3))
    assert d["tec2"] == {"ok": True, "witness_k": 2}


# ---- matrix-only configs ----

def test_matrix_fixture_fractal73():
    rep = matrix_report(load_matrix_config(fixture_path("fractal73_matrix")))
    assert abs(rep.alpha - 1.258) < 1e-3
    assert abs(rep.rho_B - 1.618) < 1e-3
    assert rep.tec1_ok is None and rep.tec2_ok is None


def test_matrix_fixture_rauzy():
    cfg = load_matrix_config(fixture_path("rauzy_ext_matrix"))
    rep = matrix_report(cfg)
    assert abs(rep.alpha - 1.57935) < 5e-5
    assert abs(cfg.lam - 1.3562) < 5e-4


def test_matrix_config_requires_keys(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"matrix": [[2]]}')
    with pytest.raises(ValueError, match="lambda"):
        load_matrix_config(str(p))


def test_matrix_config_names_file_with_overlong_number(tmp_path):
    # json reads a 5001-digit integer only up to sys.get_int_max_str_digits()
    p = tmp_path / "m.json"
    p.write_text('{"matrix": [[2]], "lambda": ' + "1" * 5001 + "}")
    with pytest.raises(ConfigError, match=re.escape(f"{p}: unreadable JSON: Exceeds")):
        load_matrix_config(str(p))


# ---- the admissibility gate ----

_BORDER_A_2D = parse_substitution(
    '{"alphabet": ["0", "1"], "dim": 2, "rules": {"0": ["000", "000", "000"], '
    '"1": ["111", "101", "110"]}}')


def test_require_admissible_returns_the_report(cantor):
    rep = require_admissible(cantor)
    assert rep.admissible and rep.alpha == admissibility_report(cantor).alpha


def test_one_admissibility_message(subs):
    """Every entry point that needs admissibility raises the gate's one line."""
    openq1, dummy = subs["openq1"], np.ones(1)
    calls = [
        (openq1, lambda: require_admissible(openq1)),
        (openq1, lambda: alpha_exponent(openq1)),
        (openq1, lambda: build_graph(openq1)),
        (openq1, lambda: transverse_weights(openq1)),
        (openq1, lambda: measure_normalization(openq1, None, dummy, MassVector(dummy))),
        (openq1, lambda: suspension_lengths(openq1)),
        (openq1, lambda: distribution_experiment(openq1, Observable(np.ones(3)), 1, 1)),
        (_BORDER_A_2D, lambda: build_graph(_BORDER_A_2D)),
    ]
    for sub, call in calls:
        failures = admissibility_report(sub).failures
        assert failures
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "substitution is not admissible: " + "; ".join(failures)
