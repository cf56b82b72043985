"""Suspension tilings of the line and grid patches of the plane.

A one-dimensional substitution suspends to a tiling of the real line:
every letter ``a`` gets a closed interval prototile of length ``xi_a``
(the left Perron eigenvector of the substitution matrix, computed only
by ``suspension_lengths``: ``gdifs`` and ``ergodic`` read its result), a
two-sided symbolic sequence lays those prototiles end to end with the
index-0 tile centered at the origin, and inflation by the Perron radius
maps the tiling of ``x`` onto the tiling of ``sigma(x)``.  A
two-dimensional grid substitution instead grows square patches of unit
cells by repeated q x q subdivision of a seed block around the origin.

Counting routines report the number (or any per-letter weighting) of
B-tiles completely contained in ``[0, t]`` respectively in the closed
Euclidean ball of radius ``R``; containment of closed tiles in closed
regions is used throughout, which pins every boundary case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .spectral import perron_vectors, require_admissible, snap_rational_eigenpair
from .substitution import (
    LENGTH_CAP,
    LengthCapError,
    Substitution,
    TwoSidedWord,
    expand_grid,
    substitution_matrix,
)

__all__ = [
    "CoverageError",
    "LengthVector",
    "suspension_lengths",
    "tiling_length",
    "Tiling1DWindow",
    "window_from_sequence",
    "prefix_radius",
    "count_B_tiles_1d",
    "GrowthScan",
    "btile_growth_scan",
    "lemma_length_ratio",
    "GridPatch",
    "default_seed",
    "grid_patch",
    "count_B_tiles_ball_2d",
    "ball_weight_scan",
    "patch_text",
]


class CoverageError(RuntimeError):
    """The generated window or patch does not cover the requested region."""


# ---- tile lengths ----

@dataclass(frozen=True, eq=False)
class LengthVector:
    """Per-letter prototile lengths: left Perron eigenvector of M, min entry 1."""
    xi_len: np.ndarray
    rho: float
    # (lengths, rho) over Q when they snap with the identity exact, else None
    exact: Optional[tuple[tuple[Fraction, ...], Fraction]] = None

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi_len, dtype=np.float64)
        if xi.ndim != 1 or xi.size == 0 or not (xi > 0).all():
            raise ValueError("tile lengths must form a strictly positive vector")
        object.__setattr__(self, "xi_len", xi)

    def __len__(self) -> int:
        return len(self.xi_len)

    def __getitem__(self, a: int) -> float:
        return float(self.xi_len[a])


def _as_lengths(xi: Union[LengthVector, np.ndarray, Sequence[float]]) -> np.ndarray:
    if isinstance(xi, LengthVector):
        return xi.xi_len
    arr = np.asarray(xi, dtype=np.float64)
    if arr.ndim != 1 or not (arr > 0).all():
        raise ValueError("tile lengths must form a strictly positive vector")
    return arr


def suspension_lengths(sub: Substitution) -> LengthVector:
    """Tile lengths for the suspension of an admissible 1-d substitution.

    xi is the left Perron eigenvector of the substitution matrix,
    normalized so the smallest entry is 1, then snapped to exact
    rationals when the eigenvector identity survives exact arithmetic.
    The inflation identity rho * xi_v = sum_w M[w, v] xi_w is enforced
    to 1e-9 relative.
    """
    if sub.dim != 1:
        raise ValueError("the suspension tiling is built from 1-d substitutions")
    require_admissible(sub)
    M = substitution_matrix(sub)
    pd = perron_vectors(M, side="left", normalization="min")
    xi, rho = pd.vec, pd.rho
    exact = snap_rational_eigenpair(M, xi, rho)
    if exact is not None:
        xi = np.array([float(f) for f in exact[0]])
        rho = float(exact[1])
    resid = float(np.abs(xi @ M - rho * xi).max())
    if resid > 1e-9 * max(1.0, rho * float(xi.max())):
        raise ValueError(f"inflation identity fails: residual {resid:g}")
    return LengthVector(xi, rho, exact)


def tiling_length(w: Union[np.ndarray, Sequence[int]],
                  xi: Union[LengthVector, np.ndarray]) -> float:
    """<ell(w), xi>: total length of the tile run spelled by w."""
    xi_arr = _as_lengths(xi)
    w = np.asarray(w, dtype=np.int64)
    if w.size == 0:
        return 0.0
    if w.min() < 0 or w.max() >= len(xi_arr):
        raise ValueError("letter id outside the length vector")
    counts = np.bincount(w, minlength=len(xi_arr))
    return float(counts @ xi_arr)


# ---- 1-d windows ----

@dataclass(frozen=True, eq=False)
class Tiling1DWindow:
    """Tiles x(lo) .. x(hi) of a suspension tiling, tile 0 centered at 0.

    Tile i is the closed interval [boundaries[i - lo], boundaries[i - lo + 1]].
    """
    letters: np.ndarray
    lo: int
    boundaries: np.ndarray

    def __post_init__(self) -> None:
        letters = np.asarray(self.letters, dtype=np.uint8)
        bounds = np.asarray(self.boundaries, dtype=np.float64)
        if letters.ndim != 1 or letters.size == 0:
            raise ValueError("window needs at least one tile")
        if bounds.shape != (letters.size + 1,):
            raise ValueError("boundaries must have one more entry than letters")
        if not (np.diff(bounds) > 0).all():
            raise ValueError("boundaries must be strictly increasing")
        if self.lo > 0 or self.lo + letters.size - 1 < 0:
            raise ValueError("window must contain the index-0 tile")
        p0 = -self.lo
        if not (bounds[p0] <= 0.0 <= bounds[p0 + 1]):
            raise ValueError("origin must lie in the closed central tile")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "boundaries", bounds)

    @property
    def hi(self) -> int:
        return self.lo + len(self.letters) - 1

    def letter(self, i: int) -> int:
        p = i - self.lo
        if not 0 <= p < len(self.letters):
            raise IndexError(f"tile {i} outside window [{self.lo}, {self.hi}]")
        return int(self.letters[p])

    def tile_support(self, i: int) -> tuple[float, float]:
        p = i - self.lo
        if not 0 <= p < len(self.letters):
            raise IndexError(f"tile {i} outside window [{self.lo}, {self.hi}]")
        return float(self.boundaries[p]), float(self.boundaries[p + 1])


def window_from_sequence(x: TwoSidedWord, xi: Union[LengthVector, np.ndarray],
                         lo: Optional[int] = None,
                         hi: Optional[int] = None) -> Tiling1DWindow:
    """Lay out tiles x(lo) .. x(hi) with tile 0 centered at the origin.

    Defaults use the whole generated orbit.  Raises IndexError when the
    orbit does not cover the requested index range.
    """
    xi_arr = _as_lengths(xi)
    if lo is None:
        lo = -len(x.left)
    if hi is None:
        hi = len(x.right) - 1
    if lo > 0 or hi < 0:
        raise ValueError("window must contain index 0")
    letters = x.slice(lo, hi + 1)
    if letters.max() >= len(xi_arr):
        raise ValueError("letter id outside the length vector")
    lengths = xi_arr[letters]
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    p0 = -lo
    bounds = cum - (cum[p0] + lengths[p0] / 2.0)
    return Tiling1DWindow(letters, lo, bounds)


def prefix_radius(x: TwoSidedWord, xi: Union[LengthVector, np.ndarray], k: int) -> float:
    """R_k = |x[1, k]|_T + xi_{x(0)}/2, the right edge of tile k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    xi_arr = _as_lengths(xi)
    w = x.slice(0, k + 1)
    return float(xi_arr[w[1:]].sum() + xi_arr[w[0]] / 2.0)


def _counts_up_to(win: Tiling1DWindow, t: np.ndarray,
                  b_letters: Iterable[int]) -> np.ndarray:
    """B-labeled tiles with support inside [0, t], for every scale in t."""
    b_arr = np.asarray(sorted(set(int(b) for b in b_letters)), dtype=np.int64)
    if b_arr.size == 0:
        raise ValueError("b_letters must be nonempty")
    pref = np.concatenate([[0], np.cumsum(np.isin(win.letters.astype(np.int64), b_arr))])
    n = len(win.letters)
    p0 = -win.lo
    # largest boundary index with boundaries[idx] <= t; tile p qualifies iff p+1 <= idx
    idx = np.searchsorted(win.boundaries, t, side="right") - 1
    upper = np.minimum(idx, n)
    lower = p0 + 1
    return np.where(upper > lower, pref[np.maximum(upper, lower)] - pref[lower], 0)


def count_B_tiles_1d(win: Tiling1DWindow, t: float, b_letters: Iterable[int]) -> int:
    """Number of B-labeled tiles whose closed support lies in [0, t]."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if win.boundaries[-1] < t:
        raise CoverageError(
            f"window covers [0, {win.boundaries[-1]:g}] but t={t:g} was requested")
    return int(_counts_up_to(win, np.asarray([t], dtype=np.float64), b_letters)[0])


@dataclass(frozen=True, eq=False)
class GrowthScan:
    """N(t) over a grid of scales with the normalized ratio N(t)/t^alpha."""
    t: np.ndarray
    counts: np.ndarray
    ratios: np.ndarray
    running_max: np.ndarray
    alpha: float

    @property
    def k_hat(self) -> float:
        return float(self.running_max[-1])

    def csv(self) -> str:
        lines = ["t,count,ratio,running_max"]
        for ti, ci, ri, mi in zip(self.t, self.counts, self.ratios, self.running_max):
            lines.append(f"{float(ti)!r},{int(ci)},{float(ri)!r},{float(mi)!r}")
        return "\n".join(lines) + "\n"


def btile_growth_scan(win: Tiling1DWindow, alpha: float,
                      t_grid: Union[np.ndarray, Sequence[float]],
                      b_letters: Iterable[int]) -> GrowthScan:
    """Scan N(t)/t^alpha over t_grid and track its running maximum."""
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.size == 0 or (t <= 0).any():
        raise ValueError("t_grid must be a nonempty vector of positive scales")
    if not (np.diff(t) > 0).all():
        raise ValueError("t_grid must be strictly increasing")
    if win.boundaries[-1] < t[-1]:
        raise CoverageError(
            f"window covers [0, {win.boundaries[-1]:g}] but t={t[-1]:g} was requested")
    counts = _counts_up_to(win, t, b_letters).astype(np.int64)
    ratios = counts / t ** alpha
    return GrowthScan(t, counts, ratios, np.maximum.accumulate(ratios), float(alpha))


def lemma_length_ratio(x: TwoSidedWord, xi: Union[LengthVector, np.ndarray],
                       n_grid: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """|x[1, n]|_T / n for every n in n_grid."""
    xi_arr = _as_lengths(xi)
    n_grid = np.asarray(n_grid, dtype=np.int64)
    if n_grid.ndim != 1 or n_grid.size == 0 or (n_grid < 1).any():
        raise ValueError("n_grid must be a nonempty vector of positive lengths")
    w = x.slice(0, int(n_grid.max()) + 1)[1:]
    cum = np.concatenate([[0.0], np.cumsum(xi_arr[w])])
    return cum[n_grid] / n_grid


# ---- 2-d grid patches ----

class _OwnedLabels:
    """A label grid the library just built and holds no other reference to.

    Wrapping it hands it to ``GridPatch`` without the defensive copy that
    a caller's array gets; the patch makes it read-only.
    """
    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = arr


@dataclass(frozen=True, eq=False)
class GridPatch:
    """A rectangle of unit cells: cell (i, j) covers
    [x_lo + j, x_lo + j + 1] x [y_top - i - 1, y_top - i].

    Row 0 is the top row.  ``q`` records the inflation side factor when
    known (0 otherwise) so coverage errors can report the level needed.
    ``labels`` is copied into a read-only uint8 array, so later changes
    to the caller's array do not reach the patch.
    """
    labels: np.ndarray
    x_lo: int
    y_top: int
    level: int = 0
    q: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.labels, _OwnedLabels):
            arr = np.asarray(self.labels.arr, dtype=np.uint8)
        else:
            arr = np.array(self.labels, dtype=np.uint8, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("labels must be a nonempty 2-d array")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def covered_radius(self) -> float:
        """Largest R with B_R inside the patch rectangle."""
        return float(min(-self.x_lo, self.x_lo + self.width,
                         self.y_top, self.height - self.y_top))

    @property
    def origin_cell(self) -> tuple[int, int]:
        """Cell whose center is nearest the origin; ties pick the smaller index."""
        i = min(max(self.y_top - 1, 0), self.height - 1)
        j = min(max(-self.x_lo - 1, 0), self.width - 1)
        return i, j

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return self.x_lo + j + 0.5, self.y_top - i - 0.5


def default_seed(sub: Substitution, letter: Union[int, str, None] = None) -> GridPatch:
    """2 x 2 block of the B letter centered at the origin."""
    if sub.dim != 2:
        raise ValueError("grid patches need a 2-d substitution")
    if letter is None:
        rep = require_admissible(sub)
        if len(rep.b_letters) != 1:
            raise ValueError("several B letters; pass the seed letter explicitly")
        letter = rep.b_letters[0]
    elif isinstance(letter, str):
        letter = sub.letter_id(letter)
    if not 0 <= int(letter) < sub.n_letters:
        raise ValueError(f"letter id {letter} outside the alphabet")
    labels = np.full((2, 2), int(letter), dtype=np.uint8)
    return GridPatch(labels, x_lo=-1, y_top=1, level=0, q=sub.q)


def grid_patch(sub: Substitution, seed: GridPatch, n: int,
               side_cap: int = math.isqrt(LENGTH_CAP)) -> GridPatch:
    """n-fold grid inflation of a seed patch.

    Each step replaces every cell by its q x q rule image and multiplies
    the patch offsets by q, so the patch keeps covering a q-times larger
    neighborhood of the origin.  Sides are capped at ``side_cap`` cells,
    by default the side of a square of LENGTH_CAP cells; the cap is
    checked before any expansion.
    """
    if sub.dim != 2:
        raise ValueError("grid patches need a 2-d substitution")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if seed.labels.max() >= sub.n_letters:
        raise ValueError("seed labels outside the alphabet")
    q = sub.q
    side = max(seed.height, seed.width) * q ** n
    if side > side_cap:
        raise LengthCapError(
            f"patch side {side} exceeds the cap {side_cap} at level {seed.level + n}")
    labels = seed.labels
    for _ in range(n):
        labels = expand_grid(sub, labels)
    scale = q ** n
    # fresh from expand_grid, or the seed's own read-only labels when n is 0
    return GridPatch(_OwnedLabels(labels), seed.x_lo * scale, seed.y_top * scale,
                     seed.level + n, q)


def _coverage_gate(patch: GridPatch, R: float) -> None:
    covered = patch.covered_radius
    if R <= covered:
        return
    msg = f"patch covers radius {covered:g} but R={R:g} was requested"
    if patch.q >= 2 and covered > 0:
        need = patch.level + math.ceil(math.log(R / covered) / math.log(patch.q))
        msg += f"; inflate to level {need}"
    raise CoverageError(msg)


# Cells per folded row chunk of the ball scan; tests shrink it to cross chunk edges.
_CHUNK_CELLS = 1 << 20


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for nonnegative int64 n below 2^62, exact.

    The float square root is off by at most one there (n itself rounds
    to a float above 2^53); one integer step each way corrects it.
    """
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _fold_spans(origin: int, n: int, k0: int, k1: int) -> list[tuple[slice, slice]]:
    """(folded slice, patch slice) pairs for pair indices k0 <= k < k1 along one axis.

    ``origin`` cells of the axis lie before the origin.  Pair index k >= 1
    names the k-th cell out from the origin on either side: patch index
    origin - k before it (a reversed slice) and origin + k - 1 after it.
    """
    spans = []
    a, b = max(k0, origin - n + 1), min(k1, origin + 1)
    if a < b:
        stop = origin - b
        spans.append((slice(a - k0, b - k0),
                      slice(origin - a, stop if stop >= 0 else None, -1)))
    a, b = max(k0, 1 - origin), min(k1, n - origin + 1)
    if a < b:
        spans.append((slice(a - k0, b - k0), slice(origin + a - 1, origin + b - 1)))
    return spans


def _ball_letter_counts(patch: GridPatch, radii: np.ndarray,
                        letters: Sequence[int]) -> np.ndarray:
    """N_a(R): cells of letter a whose closed square lies in B_R, per (a, R).

    Number the cells out from the origin by pair indices: cell (i, j) is
    the ky-th row and the kx-th column out on its side (ky, kx >= 1), so
    its farthest corner sits at (kx, ky) up to signs and it lies in B_R
    exactly when 4 ky^2 + 4 kx^2 <= (2R)^2 (1 + 1e-12), that is, when
    that exact integer is at most the threshold's floor T.  The up to
    four cells sharing (ky, kx) are therefore folded into one uint8
    count per letter (reversed slices of the patch, no gather), and a
    ball holds, in each folded row ky <= isqrt((T - 4) / 4), the prefix
    of kx <= isqrt((T - 4 ky^2) / 4).  Per-row int32 prefix counts of
    the fold then give N_a(R) from only the (row, radius) pairs that the
    ball reaches.  Folded rows are scanned in chunks of about
    ``_CHUNK_CELLS`` cells, so memory stays bounded by one chunk.
    """
    counts = np.zeros((len(letters), radii.size), dtype=np.int64)
    thr = np.floor((2.0 * radii) ** 2 * (1.0 + 1e-12)).astype(np.int64)
    # the ball reaches folded row ky when its nearest cell, kx = 1, is inside
    reach = _isqrt(np.maximum(thr - 4, 0) // 4)
    k_max = int(reach.max())
    # pair indices the patch holds on its longer side of the origin
    n_ky = min(k_max, max(patch.y_top, patch.height - patch.y_top))
    n_kx = min(k_max, max(-patch.x_lo, patch.width + patch.x_lo))
    if n_ky < 1 or n_kx < 1:
        return counts
    reach = np.minimum(reach, n_ky)
    col_spans = _fold_spans(-patch.x_lo, patch.width, 1, n_kx + 1)
    chunk = max(1, _CHUNK_CELLS // (n_kx + 1))
    fold = np.empty((min(chunk, n_ky), n_kx), dtype=np.uint8)
    pref = np.zeros((min(chunk, n_ky), n_kx + 1), dtype=np.int32)
    for k0 in range(1, n_ky + 1, chunk):
        k1 = min(k0 + chunk, n_ky + 1)
        # radius sel[m] visits folded rows k0 .. k0 + n_rows[m] - 1 of this chunk
        sel = np.flatnonzero(reach >= k0)
        n_rows = np.minimum(reach[sel], k1 - 1) - k0 + 1
        starts = np.cumsum(n_rows) - n_rows
        r_of = np.repeat(sel, n_rows)
        ky = np.arange(int(n_rows.sum()), dtype=np.int64) - np.repeat(starts, n_rows) + k0
        kx = np.minimum(_isqrt((thr[r_of] - 4 * ky * ky) // 4), n_kx)
        at = (ky - k0) * (n_kx + 1) + kx
        row_spans = _fold_spans(patch.y_top, patch.height, k0, k1)
        f, p = fold[:k1 - k0], pref[:k1 - k0]
        for n, a in enumerate(letters):
            f.fill(0)
            for fr, lr in row_spans:
                for fc, lc in col_spans:
                    f[fr, fc] += patch.labels[lr, lc] == a
            np.cumsum(f, axis=1, dtype=np.int32, out=p[:, 1:])
            counts[n, sel] += np.add.reduceat(p.ravel()[at], starts)
    return counts


def count_B_tiles_ball_2d(patch: GridPatch, R: float,
                          b_letters: Iterable[int]) -> int:
    """Number of B cells whose closed unit square lies in the closed ball B_R."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    _coverage_gate(patch, R)
    b = sorted({int(x) for x in b_letters})
    if not b:
        raise ValueError("b_letters must be nonempty")
    return int(_ball_letter_counts(patch, np.array([float(R)]), b).sum())


def ball_weight_scan(patch: GridPatch, radii: Union[np.ndarray, Sequence[float]],
                     weights: Union[np.ndarray, Sequence[float]]) -> np.ndarray:
    """Sum of per-letter weights over cells inside B_R, for each R in radii.

    Counts the cells of every nonzero-weight letter inside each ball in
    exact integers, by the quadrant-folded scan of `_ball_letter_counts`,
    and returns sum_a w_a N_a(R).  With integer weights every sum is
    exact.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or radii.size == 0 or (radii < 0).any():
        raise ValueError("radii must be a nonempty vector of nonnegative scales")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or len(weights) <= int(patch.labels.max()):
        raise ValueError("weights must cover every letter appearing in the patch")
    _coverage_gate(patch, float(radii.max()))
    letters = np.flatnonzero(weights)
    out = np.zeros_like(radii)
    for w, n_a in zip(weights[letters], _ball_letter_counts(patch, radii, letters)):
        out += w * n_a
    return out


_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"


def patch_text(patch: GridPatch) -> str:
    """Plain-text rendering, one glyph per cell, top row first.

    The header line records the patch geometry so a dump can be read
    back unambiguously.
    """
    if int(patch.labels.max()) >= len(_GLYPHS):
        raise ValueError("patch_text supports at most 36 letters")
    lut = np.frombuffer(_GLYPHS.encode(), dtype=np.uint8)
    rows = lut[patch.labels]
    body = "\n".join(r.tobytes().decode() for r in rows)
    head = (f"{patch.width} {patch.height} level={patch.level} "
            f"x_lo={patch.x_lo} y_top={patch.y_top}")
    return head + "\n" + body + "\n"
