import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subtiling import (ConfigError, LengthCapError, apply, expand_grid,
                       fixture_path, iterate, load_substitution, orbit_generate,
                       population_vector, power, substitution_matrix,
                       supertile_lengths)
from subtiling.substitution import (LENGTH_CAP, _as_word, _length_by_squaring,
                                    _lengths_cache, parse_substitution)

from conftest import (admissible_substitutions_1d, admissible_substitutions_2d,
                      in_language, rng, word_from_str, word_to_str)

CANTOR_M = np.array([[3, 1], [0, 2]])


# ---- parsing ----

def test_load_cantor(cantor):
    assert cantor.letters == ("0", "1")
    assert cantor.dim == 1
    assert word_to_str(cantor, cantor.image(0)) == "000"
    assert word_to_str(cantor, cantor.image(1)) == "101"


@pytest.mark.parametrize("text, reason", [
    # json reads an integer only up to sys.get_int_max_str_digits() digits
    ('{"alphabet": ["a"], "dim": ' + "1" * 5001 + ', "rules": {"a": "aa"}}', "Exceeds"),
    # and nests arrays only as deep as the recursion limit
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
])
def test_load_names_file_with_unreadable_json(tmp_path, text, reason):
    p = tmp_path / "s.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{p}: unreadable JSON: {reason}")):
        load_substitution(str(p))


def test_parse_rejects_empty_image():
    with pytest.raises(ConfigError):
        parse_substitution('{"alphabet": ["a"], "dim": 1, "rules": {"a": ""}}')


def test_parse_rejects_unknown_letter_in_rule():
    with pytest.raises(ConfigError):
        parse_substitution('{"alphabet": ["a"], "dim": 1, "rules": {"a": "ab"}}')


def test_word_roundtrip(cantor):
    w = word_from_str(cantor, "101000101")
    assert word_to_str(cantor, w) == "101000101"


# ---- apply / iterate ----

def test_apply_concatenates(cantor):
    out = apply(cantor, word_from_str(cantor, "10"))
    assert word_to_str(cantor, out) == "101000"


def test_apply_empty(cantor):
    assert len(apply(cantor, word_from_str(cantor, ""))) == 0


def test_iterate_square(cantor):
    assert word_to_str(cantor, iterate(cantor, 1, 2)) == "101000101"


def test_iterate_identity(cantor):
    assert word_to_str(cantor, iterate(cantor, 0, 0)) == "0"


def test_iterate_counts(cantor):
    w = iterate(cantor, 1, 10)
    assert len(w) == 3 ** 10
    assert int((w == 1).sum()) == 2 ** 10


def test_iterate_cap_reports_predicted_length(cantor):
    with pytest.raises(LengthCapError, match=f"length {3 ** 20} > cap"):
        iterate(cantor, 0, 20)


def test_iterate_cap_reports_length_beyond_int64_exactly(cantor):
    # 3^45 > 2^63: the reported length is exact, not a wrapped int64
    with pytest.raises(LengthCapError, match=f"length {3 ** 45} > cap"):
        iterate(cantor, 0, 45)


def test_iterate_cap_names_lengths_beyond_str_limit(cantor):
    # 3^10000 has 4772 digits, more than str() converts by default
    with pytest.raises(LengthCapError, match=r"length about 10\^4771 > cap"):
        iterate(cantor, 0, 10000)


def test_failing_cap_check_stops_at_first_level_past_cap():
    # a fresh instance, so no other test's rows are cached
    cantor = load_substitution(fixture_path("cantor"))
    with pytest.raises(LengthCapError, match=r"sigma\^20000\(0\) has length about"):
        iterate(cantor, 0, 20_000)
    rows = _lengths_cache[cantor]
    assert len(rows) == 18 and rows[-1][0] == 3 ** 17 > LENGTH_CAP >= rows[-2][0]


@settings(max_examples=40, deadline=None)
@given(sub=st.one_of(admissible_substitutions_1d(), admissible_substitutions_2d()),
       n=st.integers(0, 60), data=st.data())
def test_length_by_squaring_matches_supertile_lengths(sub, n, data):
    # the exact size the cap message reports, past int64 too
    a = data.draw(st.integers(0, sub.n_letters - 1))
    assert _length_by_squaring(sub, a, n) == supertile_lengths(sub, n)[n][a]


def test_supertile_lengths_exact_beyond_int64(cantor1001):
    rows = supertile_lengths(cantor1001, 60)
    assert rows[0] == (1, 1) and rows[2] == (9, 14)
    assert rows[60][0] == 3 ** 60 > 2 ** 63
    # |sigma^k(1)| = 2 * 3^k - 2^k: two ones seed 2^k copies of the 1001 pattern
    assert rows[60][1] == 2 * 3 ** 60 - 2 ** 60


@settings(max_examples=60, deadline=None)
@given(sub=admissible_substitutions_1d(), k=st.integers(1, 4), data=st.data())
def test_supertile_lengths_power_and_language(sub, k, data):
    """Exact lengths, the power homomorphism and subword witnesses agree
    with the words that iterate builds."""
    rows = supertile_lengths(sub, k)
    M = substitution_matrix(sub)
    assert np.array_equal(substitution_matrix(power(sub, k)),
                          np.linalg.matrix_power(M, k))
    for a in range(sub.n_letters):
        w = iterate(sub, a, k)
        assert rows[k][a] == len(w)
        i = data.draw(st.integers(0, len(w) - 1))
        j = data.draw(st.integers(i + 1, len(w)))
        ok, witness = in_language(sub, w[i:j], max_depth=k)
        assert ok and witness[1] <= k


def test_power_2d_checks_cap_first(carpet):
    with pytest.raises(LengthCapError, match="cell count 729 > cap 100"):
        power(carpet, 3, cap=100)
    assert power(carpet, 3, cap=729).q == 27


def _expand_grid_oracle(sub, labels):
    """One grid step by gathering a (h, w, q, q) block stack and transposing it."""
    q = sub.q
    h, w = labels.shape
    return np.stack(sub.grids)[labels].transpose(0, 2, 1, 3).reshape(h * q, w * q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_expand_grid_matches_gather_oracle(q):
    gen = rng(60 + q)
    letters = "abcde"
    rules = {a: ["".join(gen.choice(list(letters), size=q)) for _ in range(q)]
             for a in letters}
    sub = parse_substitution(json.dumps({"alphabet": list(letters), "dim": 2,
                                         "rules": rules}))
    # a single cell, odd and even sides, and 300 x 250 cells, which the
    # 64K-cell row blocks split
    for h, w in ((1, 1), (1, 7), (6, 1), (5, 8), (300, 250)):
        labels = gen.integers(0, len(letters), size=(h, w)).astype(np.uint8)
        got = expand_grid(sub, labels)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, _expand_grid_oracle(sub, labels))
        # a strided view, as the patch window descent passes it
        view = labels[::-1, ::2]
        assert np.array_equal(expand_grid(sub, view), _expand_grid_oracle(sub, view))


# ---- apply / iterate against the list-concatenation oracle ----

def _apply_oracle(sub, w):
    """One step by concatenating one rule image per letter."""
    if len(w) == 0:
        return _as_word([])
    return np.concatenate([sub.images[int(a)] for a in w])


def _iterate_oracle(sub, a, n):
    w = _as_word([a])
    for _ in range(n):
        w = _apply_oracle(sub, w)
    return w


@st.composite
def substitutions_1d(draw):
    """1-d rules on 2-5 letters with images of length 1-5.

    Half of the draws give every image the same length (the plain
    gather), the other half lengths drawn per letter (the masked one).
    """
    n = draw(st.integers(2, 5))
    letters = "abcde"[:n]
    if draw(st.booleans()):
        lens = [draw(st.integers(1, 5))] * n
    else:
        lens = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    rules = {a: "".join(draw(st.lists(st.sampled_from(letters),
                                      min_size=m, max_size=m)))
             for a, m in zip(letters, lens)}
    return parse_substitution(json.dumps(
        {"alphabet": list(letters), "dim": 1, "rules": rules}))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sub=substitutions_1d(),
       dtype=st.sampled_from([np.uint8, np.int64]))
def test_apply_matches_oracle(data, sub, dtype):
    ids = data.draw(st.lists(st.integers(0, sub.n_letters - 1), max_size=40))
    w = np.asarray(ids, dtype=dtype)
    out = apply(sub, w)
    ref = _apply_oracle(sub, w)
    assert out.dtype == np.uint8 and out.shape == ref.shape
    assert out.tobytes() == ref.astype(np.uint8).tobytes()
    assert not out.flags.writeable


@settings(max_examples=100, deadline=None)
@given(sub=substitutions_1d(), a=st.integers(0, 4), n=st.integers(0, 6))
def test_iterate_matches_oracle(sub, a, n):
    a %= sub.n_letters
    w = iterate(sub, a, n)
    ref = _iterate_oracle(sub, a, n)
    assert w.dtype == np.uint8 and w.tobytes() == ref.tobytes()
    assert np.array_equal(population_vector(sub, w),
                          np.linalg.matrix_power(substitution_matrix(sub), n)[:, a])


def test_apply_fixture_words_match_oracle(cantor, cantor1001):
    for sub, n in ((cantor, 9), (cantor1001, 8)):
        for a in range(sub.n_letters):
            assert iterate(sub, a, n).tobytes() == _iterate_oracle(sub, a, n).tobytes()


# ---- population vectors and the matrix ----

def test_population_vector(cantor):
    ell = population_vector(cantor, word_from_str(cantor, "101000101"))
    assert ell.tolist() == [5, 4]
    assert population_vector(cantor, word_from_str(cantor, "")).tolist() == [0, 0]


def test_population_transport(cantor):
    M = substitution_matrix(cantor)
    g = rng(61)
    for _ in range(1000):
        w = g.integers(0, 2, size=g.integers(1, 40)).astype(np.uint8)
        lhs = population_vector(cantor, apply(cantor, w))
        assert np.array_equal(lhs, M @ population_vector(cantor, w))


def test_substitution_matrices(subs):
    assert np.array_equal(substitution_matrix(subs["cantor"]), CANTOR_M)
    assert np.array_equal(substitution_matrix(subs["carpet"]),
                          [[9, 1], [0, 8]])
    assert np.array_equal(substitution_matrix(subs["sigma2"]),
                          [[9, 1], [0, 8]])


def test_matrix_power_homomorphism(subs):
    for sub in subs.values():
        M = substitution_matrix(sub)
        for k in range(1, 6):
            assert np.array_equal(substitution_matrix(power(sub, k)),
                                  np.linalg.matrix_power(M, k))


@settings(max_examples=30, deadline=None)
@given(sub=admissible_substitutions_2d(), k=st.integers(1, 3))
def test_matrix_power_homomorphism_on_generated_plane_rules(sub, k):
    assert np.array_equal(substitution_matrix(power(sub, k)),
                          np.linalg.matrix_power(substitution_matrix(sub), k))


# ---- language membership: the oracle that iterate and the sampled
# orbits are checked against ----

def test_in_language_no_double_one(cantor):
    ok, witness = in_language(cantor, word_from_str(cantor, "11"), max_depth=8)
    assert not ok and witness is None


def test_in_language_short_witness(cantor):
    ok, witness = in_language(cantor, word_from_str(cantor, "10"))
    assert ok and witness == (1, 1)


def test_in_language_000101(cantor):
    ok, witness = in_language(cantor, word_from_str(cantor, "000101"))
    assert ok and witness == (1, 2)


def test_in_language_monotone_and_subword_closed(cantor):
    w = word_from_str(cantor, "000101")
    ok2, _ = in_language(cantor, w, max_depth=2)
    ok8, _ = in_language(cantor, w, max_depth=8)
    assert ok2 and ok8
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            ok, _ = in_language(cantor, w[i:j], max_depth=2)
            assert ok


# ---- orbits ----

def test_orbit_right_block(cantor):
    x = orbit_generate(cantor, (0, 1), 2)
    assert word_to_str(cantor, x.right) == "101000101"
    assert x[0] == 1 and x[-1] == 0


def test_orbit_nesting(cantor):
    prev = orbit_generate(cantor, (0, 1), 0)
    for n in range(1, 11):
        cur = orbit_generate(cantor, (0, 1), n)
        assert np.array_equal(cur.right[: len(prev.right)], prev.right)
        assert np.array_equal(cur.left[-len(prev.left):], prev.left)
        assert int((cur.right == 1).sum()) == 2 ** n
        prev = cur


def test_two_sided_slice(cantor):
    x = orbit_generate(cantor, (0, 1), 2)
    assert word_to_str(cantor, x.slice(-2, 3)) == "00101"
    with pytest.raises(ValueError):
        x.slice(1, 4)
