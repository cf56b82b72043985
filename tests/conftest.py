import json

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from subtiling import (GdifsGraph, MassVector, Substitution, admissibility_report,
                       build_graph, fixture_path, load_substitution, mass_vector,
                       measure_normalization, suspension_lengths,
                       transverse_weights)
from subtiling.substitution import parse_substitution

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


class Workset:
    """Graph, weights, masses and normalization of one admissible fixture."""

    def __init__(self, sub: Substitution) -> None:
        self.sub = sub
        self.graph: GdifsGraph = build_graph(sub)
        self.tw = transverse_weights(sub)
        self.mass: MassVector = mass_vector(self.graph, self.tw.xi_tr)
        self.xi_len = suspension_lengths(sub) if sub.dim == 1 else None
        self.norm = measure_normalization(sub, self.xi_len, self.tw, self.mass)
        self.alpha = self.graph.alpha


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
    """Constant-length 1-d rules on one or two expanding letters (images
    made of expanding letters) and `min_b` to two contracting letters
    (images that start and end with contracting letters).  Draws that are
    not admissible are discarded by the test."""
    n_a, n_b = draw(st.integers(1, 2)), draw(st.integers(min_b, 2))
    length = draw(st.integers(3, 5))
    a_letters, b_letters = "ab"[:n_a], "xy"[:n_b]
    letters = a_letters + b_letters

    def word(alphabet, m):
        return "".join(draw(st.lists(st.sampled_from(alphabet),
                                     min_size=m, max_size=m)))

    rules = {a: word(a_letters, length) for a in a_letters}
    rules.update({b: word(b_letters, 1) + word(letters, length - 2)
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
