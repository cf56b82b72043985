import json

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from subtiling import (GridPatch, Substitution, admissibility_report, apply,
                       expand_grid, fixture_path, load_substitution,
                       require_admissible)
from subtiling.ergodic import _WorkingSet as Workset
from subtiling.substitution import _as_word, parse_substitution

FIXTURES = ["cantor", "cantor1001", "sigma2", "sigma_k0", "sigma_k1",
            "sigma_k2", "sigma_k3", "carpet", "openq1"]
ADMISSIBLE_1D = ["cantor", "cantor1001", "sigma2", "sigma_k0", "sigma_k1",
                 "sigma_k2", "sigma_k3"]


@pytest.fixture(scope="session")
def subs() -> dict[str, Substitution]:
    return {name: load_substitution(fixture_path(name)) for name in FIXTURES}


@pytest.fixture(scope="session")
def cantor(subs) -> Substitution:
    return subs["cantor"]


@pytest.fixture(scope="session")
def cantor1001(subs) -> Substitution:
    return subs["cantor1001"]


@pytest.fixture(scope="session")
def carpet(subs) -> Substitution:
    return subs["carpet"]


@pytest.fixture(scope="session")
def cantor_ws(cantor) -> Workset:
    return Workset(cantor)


@pytest.fixture(scope="session")
def cantor1001_ws(cantor1001) -> Workset:
    return Workset(cantor1001)


@pytest.fixture(scope="session")
def carpet_ws(carpet) -> Workset:
    return Workset(carpet)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@st.composite
def admissible_substitutions_1d(draw, min_b=1):
    """1-d rules on one or two expanding letters, whose images share one
    length of 3-5 expanding letters, and `min_b` to two contracting
    letters, whose images start and end with contracting letters around
    1-5 letters drawn per image, so that tile lengths differ.  Draws that
    are not admissible are discarded by the test."""
    n_a, n_b = draw(st.integers(1, 2)), draw(st.integers(min_b, 2))
    length = draw(st.integers(3, 5))
    a_letters, b_letters = "ab"[:n_a], "xy"[:n_b]
    letters = a_letters + b_letters

    def word(alphabet, m):
        return "".join(draw(st.lists(st.sampled_from(alphabet),
                                     min_size=m, max_size=m)))

    rules = {a: word(a_letters, length) for a in a_letters}
    rules.update({b: word(b_letters, 1) + word(letters, draw(st.integers(1, 5)))
                  + word(b_letters, 1) for b in b_letters})
    return parse_substitution(json.dumps(
        {"alphabet": list(letters), "dim": 1, "rules": rules}))



@st.composite
def admissible_substitutions_2d(draw):
    """Admissible q x q plane rules, q in {3, 4}: one expanding letter whose
    image is all expanding, and two or three contracting letters whose
    images are framed by contracting letters.  q = 2 is left out: its
    images are all frame, so no contracting image holds the expanding
    letter and the coupling block is zero.  Only draws with an interior
    witness by the third power are kept, so no draw expands toward the
    length cap."""
    b_letters = "xyz"[:draw(st.integers(2, 3))]
    letters = "a" + b_letters
    q = draw(st.integers(3, 4))

    def cell(row, col):
        framed = row in (0, q - 1) or col in (0, q - 1)
        return draw(st.sampled_from(b_letters if framed else letters))

    rules = {"a": ["a" * q] * q}
    rules.update({b: ["".join(cell(r, c) for c in range(q)) for r in range(q)]
                  for b in b_letters})
    sub = parse_substitution(json.dumps(
        {"alphabet": list(letters), "dim": 2, "rules": rules}))
    assume(admissibility_report(sub, tec2_max_k=3).admissible)
    return sub


# ---- reference helpers: word spelling, deterministic patches, oracles ----

def word_from_str(sub: Substitution, s: str) -> np.ndarray:
    return _as_word(sub.letter_id(ch) for ch in s)


def word_to_str(sub: Substitution, w) -> str:
    return "".join(sub.letters[int(a)] for a in w)


def in_language(sub: Substitution, w, max_depth: int = 8):
    """Breadth-first witness search: is w a subword of some sigma^n(a)?

    Scans n = 1..max_depth, letters in alphabet order; returns
    (True, (letter, depth)) for the first witness, else (False, None).
    """
    if len(w) == 0:
        return True, None
    target = np.asarray(w, dtype=np.uint8).tobytes()
    level = [_as_word([a]) for a in range(sub.n_letters)]
    for n in range(1, max_depth + 1):
        level = [apply(sub, v) for v in level]
        for a, v in enumerate(level):
            if target in v.tobytes():
                return True, (a, n)
    return False, None


def tiling_length(w, xi) -> float:
    """<ell(w), xi>: total length of the tile run spelled by w."""
    counts = np.bincount(np.asarray(w, dtype=np.int64), minlength=len(xi.xi_len))
    return float(counts @ xi.xi_len)


def prefix_radius(x, xi, k: int) -> float:
    """R_k = |x[1, k]|_T + xi_{x(0)}/2, the right edge of tile k."""
    w = x.slice(0, k + 1)
    return float(xi.xi_len[w[1:]].sum() + xi.xi_len[w[0]] / 2.0)


def default_seed(sub: Substitution, letter=None) -> GridPatch:
    """2 x 2 block of `letter`, by default the B letter, centred at the origin."""
    if letter is None:
        letter = require_admissible(sub).b_letters[0]
    return GridPatch(np.full((2, 2), letter, dtype=np.uint8), x_lo=-1, y_top=1, q=sub.q)


def grid_patch(sub: Substitution, seed: GridPatch, n: int) -> GridPatch:
    """n-fold grid inflation of a seed patch, which keeps it around the origin."""
    labels = seed.labels
    for _ in range(n):
        labels = expand_grid(sub, labels)
    scale = sub.q ** n
    return GridPatch(labels, seed.x_lo * scale, seed.y_top * scale, seed.level + n, sub.q)
