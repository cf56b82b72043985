"""Substitution rules on finite alphabets and the words they generate.

Letters are stored as integer ids (position in the alphabet); display
strings are single codepoints.  Words are numpy uint8 arrays so that
subword search can go through ``bytes.find`` and population counts
through ``bincount``.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "ConfigError",
    "LengthCapError",
    "Substitution",
    "TwoSidedWord",
    "parse_substitution",
    "load_substitution",
    "apply",
    "iterate",
    "power",
    "supertile_lengths",
    "population_vector",
    "substitution_matrix",
    "expand_grid",
    "orbit_generate",
]

LENGTH_CAP = 10**8


class ConfigError(ValueError):
    """Raised when a substitution config is malformed."""


class LengthCapError(RuntimeError):
    """Raised when an iterated word would exceed the length cap."""


# ---- substitution type and parsing ----

@dataclass(frozen=True, eq=False)
class Substitution:
    letters: tuple[str, ...]
    dim: int
    images: tuple[np.ndarray, ...]          # dim=1: 1-d uint8 arrays
    grids: tuple[np.ndarray, ...] = ()      # dim=2: q x q uint8 arrays, rows top to bottom
    q: int = 0
    source: str = ""

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    def letter_id(self, s: str) -> int:
        try:
            return self.letters.index(s)
        except ValueError:
            raise ConfigError(f"unknown letter {s!r}") from None

    def image(self, a: int) -> np.ndarray:
        return self.images[a]

    def grid(self, a: int) -> np.ndarray:
        return self.grids[a]

    @property
    def rule_lengths(self) -> np.ndarray:
        return np.array([len(im) for im in self.images], dtype=np.int64)


def _as_word(ids: Iterable[int]) -> np.ndarray:
    w = np.asarray(list(ids), dtype=np.uint8)
    w.flags.writeable = False
    return w


def _json_doc(text: str, source: str):
    """json.loads, with every decoding failure a one-line ConfigError naming the source."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{source}: JSON syntax error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except (ValueError, RecursionError) as e:
        # an integer literal longer than sys.get_int_max_str_digits(), or
        # arrays nested deeper than the interpreter's recursion limit
        raise ConfigError(f"{source}: unreadable JSON: {e}") from None


def parse_substitution(text: str, source: str = "<string>") -> Substitution:
    """Parse a JSON substitution config.

    Schema: ``{"alphabet": [letter...], "dim": 1|2, "rules": {letter: image}}``
    where an image is a string (dim 1) or an array of q strings of length q,
    rows listed top to bottom (dim 2).  ``dim`` defaults to 1.
    """
    doc = _json_doc(text, source)
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    if "alphabet" not in doc or "rules" not in doc:
        raise ConfigError(f"{source}: required keys: alphabet, rules")
    alphabet = doc["alphabet"]
    if (not isinstance(alphabet, list) or not alphabet
            or not all(isinstance(a, str) for a in alphabet)):
        raise ConfigError(f"{source}: alphabet must be a non-empty list of strings")
    for a in alphabet:
        if len(a) != 1:
            raise ConfigError(f"{source}: letters must be single codepoints, got {a!r}")
    if len(set(alphabet)) != len(alphabet):
        raise ConfigError(f"{source}: duplicate letters in alphabet")
    if len(alphabet) > 64:
        raise ConfigError(f"{source}: at most 64 letters supported")
    dim = doc.get("dim", 1)
    if dim not in (1, 2):
        raise ConfigError(f"{source}: dim must be 1 or 2, got {dim!r}")
    rules = doc["rules"]
    if not isinstance(rules, dict):
        raise ConfigError(f"{source}: rules must be an object")
    missing = [a for a in alphabet if a not in rules]
    if missing:
        raise ConfigError(f"{source}: missing rules for letters {missing}")
    extra = [a for a in rules if a not in alphabet]
    if extra:
        raise ConfigError(f"{source}: rules for letters not in alphabet: {extra}")
    index = {a: i for i, a in enumerate(alphabet)}

    def encode(s: str, where: str) -> list[int]:
        ids = []
        for ch in s:
            if ch not in index:
                raise ConfigError(f"{source}: {where}: letter {ch!r} not in alphabet")
            ids.append(index[ch])
        return ids

    if dim == 1:
        images = []
        for a in alphabet:
            img = rules[a]
            if not isinstance(img, str) or not img:
                raise ConfigError(f"{source}: rule for {a!r} must be a non-empty string")
            images.append(_as_word(encode(img, f"rule for {a!r}")))
        return Substitution(tuple(alphabet), 1, tuple(images), source=source)

    # dim == 2: every rule is a q x q grid, same q for all letters
    q = None
    grids = []
    images = []
    for a in alphabet:
        rows = rules[a]
        if not isinstance(rows, list) or not rows or not all(isinstance(r, str) for r in rows):
            raise ConfigError(f"{source}: rule for {a!r} must be a list of strings")
        if q is None:
            q = len(rows)
            if q < 2:
                raise ConfigError(f"{source}: grid side must be at least 2")
        if len(rows) != q or any(len(r) != q for r in rows):
            raise ConfigError(f"{source}: rule for {a!r} must be {q} rows of length {q}")
        g = np.array([encode(r, f"rule for {a!r}") for r in rows], dtype=np.uint8)
        g.flags.writeable = False
        grids.append(g)
        images.append(_as_word(g.ravel()))
    return Substitution(tuple(alphabet), 2, tuple(images), tuple(grids), q=q, source=source)


def load_substitution(path: str) -> Substitution:
    with open(path, encoding="utf-8") as f:
        return parse_substitution(f.read(), source=path)


# ---- applying and iterating ----

_tables_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _image_table(sub: Substitution) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Rule images padded into one uint8 table, one row per letter.

    Rows are as wide as the longest image.  The mask marks the real
    letters of each row; it is None when every image has the same
    length, so that rows need no trimming.
    """
    got = _tables_cache.get(sub)
    if got is None:
        lens = sub.rule_lengths
        width = int(lens.max())
        mask = np.arange(width) < lens[:, None]
        tab = np.zeros((sub.n_letters, width), dtype=np.uint8)
        tab[mask] = np.concatenate(sub.images)
        got = (tab, None if (lens == width).all() else mask)
        _tables_cache[sub] = got
    return got


def apply(sub: Substitution, w: np.ndarray) -> np.ndarray:
    """One substitution step on a word (dim 1).

    One gather from the padded image table.  Its working memory is one
    intp index per letter of w plus len(w) bytes per letter of the
    longest image; the word builders check the exact length of the word
    they are about to build, read from supertile_lengths, against the
    length cap.
    Row-major boolean selection keeps the letter order when images have
    unequal lengths.
    """
    if sub.dim != 1:
        raise ValueError("apply works on 1-d words; use expand_grid for dim 2")
    if len(w) == 0:
        return _as_word([])
    tab, mask = _image_table(sub)
    idx = np.asarray(w, dtype=np.intp)
    out = tab[idx].ravel() if mask is None else tab[idx][mask[idx]]
    out.flags.writeable = False
    return out


_lengths_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def supertile_lengths(sub: Substitution, n: int) -> list[tuple[int, ...]]:
    """Exact supertile sizes |sigma^k(a)| as Python ints, rows k = 0..n.

    Row k has one entry per letter and row k+1 = row k . M, since
    sigma^(k+1)(a) is the concatenation of sigma^k(b) over the letters b
    of sigma(a).  In dim 2 an entry counts the cells of the level-k grid.
    Rows are cached per substitution instance; the cache is replaced,
    never extended in place, so concurrent callers read whole tables.
    """
    return list(_length_rows(sub, n)[:n + 1])


def _length_rows(sub: Substitution, n: int, a: int = 0,
                 cap: float = math.inf) -> tuple[tuple[int, ...], ...]:
    """The cached rows, extended to row n or to the first row whose entry
    for letter a passes cap, whichever comes first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rows = _lengths_cache.get(sub, ((1,) * sub.n_letters,))
    if len(rows) <= n and rows[-1][a] <= cap:
        rows = list(rows)
        cols = substitution_matrix(sub).T.tolist()
        while len(rows) <= n and rows[-1][a] <= cap:
            prev = rows[-1]
            rows.append(tuple(sum(m * p for m, p in zip(col, prev)) for col in cols))
        rows = _lengths_cache[sub] = tuple(rows)
    return rows


def _length_by_squaring(sub: Substitution, a: int, n: int) -> int:
    """|sigma^n(a)| = (1 . M^n)[a], M^n by repeated squaring in Python ints."""
    P = np.linalg.matrix_power(substitution_matrix(sub).astype(object), n)
    return int(P[:, a].sum())


def _check_cap(sub: Substitution, a: int, n: int, cap: int) -> None:
    # lengths never shrink (images are non-empty), so a row past the cap
    # before level n decides; the exact level-n size is only for the message
    rows = _length_rows(sub, n, a, cap)
    size = rows[n][a] if n < len(rows) else _length_by_squaring(sub, a, n)
    if size > cap:
        unit = "length" if sub.dim == 1 else "cell count"
        # str() refuses ints beyond 4300 digits
        shown = (str(size) if size.bit_length() <= 1000
                 else f"about 10^{int(size.bit_length() * math.log10(2))}")
        raise LengthCapError(
            f"sigma^{n}({sub.letters[a]}) has {unit} {shown} > cap {cap}")


def iterate(sub: Substitution, a: int, n: int, cap: int = LENGTH_CAP) -> np.ndarray:
    """sigma^n(a) as a word (dim 1).  Raises LengthCapError beyond ``cap``."""
    if sub.dim != 1:
        raise ValueError("iterate works on 1-d words")
    _check_cap(sub, a, n, cap)
    w = _as_word([a])
    for _ in range(n):
        w = apply(sub, w)
    return w


def power(sub: Substitution, k: int, cap: int = LENGTH_CAP) -> Substitution:
    """The substitution sigma^k (rule images iterated k times).

    Raises LengthCapError when an image would hold more than ``cap``
    letters (dim 1) or cells (dim 2).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if sub.dim == 1:
        images = tuple(iterate(sub, a, k, cap=cap) for a in range(sub.n_letters))
        return Substitution(sub.letters, 1, images, source=sub.source)
    _check_cap(sub, 0, k, cap)
    grids = []
    for a in range(sub.n_letters):
        g = sub.grids[a]
        for _ in range(k - 1):
            g = expand_grid(sub, g)
        g = g.copy()
        g.flags.writeable = False
        grids.append(g)
    images = tuple(_as_word(g.ravel()) for g in grids)
    return Substitution(sub.letters, 2, images, tuple(grids), q=sub.q ** k,
                        source=sub.source)


def expand_grid(sub: Substitution, labels: np.ndarray) -> np.ndarray:
    """Replace every cell of a label grid by its q x q rule image."""
    if sub.dim != 2:
        raise ValueError("expand_grid needs a 2-d substitution")
    q = sub.q
    stack = np.stack(sub.grids)              # (N, q, q)
    h, w = labels.shape
    # cell (i, j) becomes rows i*q + di, columns j*q + dj: one strided
    # plane of the (h, q, w, q) output per (di, dj), written in place.
    # Row blocks of about 64K cells cast the labels to an index once for
    # all q^2 planes while keeping that index small.
    out = np.empty((h, q, w, q), dtype=stack.dtype)
    step = max(1, (1 << 16) // max(w, 1))
    for r0 in range(0, h, step):
        idx = labels[r0:r0 + step].astype(np.intp)
        block = out[r0:r0 + step]
        for di in range(q):
            for dj in range(q):
                block[:, di, :, dj] = stack[:, di, dj][idx]
    return out.reshape(h * q, w * q)


# ---- counting ----

def population_vector(sub: Substitution, w: np.ndarray) -> np.ndarray:
    """Letter counts ell(w) as exact int64."""
    return np.bincount(np.asarray(w, dtype=np.int64).ravel(),
                       minlength=sub.n_letters)


def substitution_matrix(sub: Substitution) -> np.ndarray:
    """M[a, b] = number of occurrences of a in the image of b (int64)."""
    n = sub.n_letters
    M = np.zeros((n, n), dtype=np.int64)
    for b in range(n):
        M[:, b] = population_vector(sub, sub.images[b])
    return M


# ---- orbits ----

@dataclass(frozen=True, eq=False)
class TwoSidedWord:
    """A window of a two-sided fixed point: x(-len(left)) ... x(-1) . x(0) x(1) ...

    ``left`` is stored in natural reading order, so x(-1) = left[-1].
    """
    left: np.ndarray
    right: np.ndarray

    def __getitem__(self, i: int) -> int:
        if i >= 0:
            return int(self.right[i])
        return int(self.left[len(self.left) + i])

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Letters x(lo) ... x(hi-1) as one array; requires lo <= 0 <= hi."""
        if lo > 0 or hi < 0:
            raise ValueError("slice must straddle the origin")
        if -lo > len(self.left) or hi > len(self.right):
            raise IndexError("window exceeds generated orbit")
        parts = []
        if lo < 0:
            parts.append(self.left[len(self.left) + lo:])
        parts.append(self.right[:hi])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


def orbit_generate(sub: Substitution, seed: tuple[int, int], n: int) -> TwoSidedWord:
    """Two-sided orbit blocks (sigma^n(a), sigma^n(b)) for a seed (a, b)."""
    a, b = seed
    return TwoSidedWord(iterate(sub, a, n), iterate(sub, b, n))
