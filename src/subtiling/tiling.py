"""Suspension tilings of the line and grid patches of the plane.

A one-dimensional substitution suspends to a tiling of the real line:
every letter ``a`` gets a closed interval prototile of length ``xi_a``
(the left Perron eigenvector of the substitution matrix), a two-sided
symbolic sequence lays those prototiles end to end with the index-0 tile
centered at the origin, and inflation by the Perron radius maps the
tiling of ``x`` onto the tiling of ``sigma(x)``.  A two-dimensional grid
substitution instead grows square patches of unit cells by repeated
q x q subdivision of a seed block around the origin.

Counting routines report the number (or any per-letter weighting) of
B-tiles completely contained in ``[0, t]`` respectively in the closed
Euclidean ball of radius ``R``; containment of closed tiles in closed
regions is used throughout, which pins every boundary case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .spectral import perron_vectors, require_admissible, snap_rational_eigenpair
from .substitution import (
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
    normalization: str = "min"

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
    snapped = snap_rational_eigenpair(M, xi, rho)
    if snapped is not None:
        xi_fr, rho_fr = snapped
        xi = np.array([float(f) for f in xi_fr])
        rho = float(rho_fr)
    resid = float(np.abs(xi @ M - rho * xi).max())
    if resid > 1e-9 * max(1.0, rho * float(xi.max())):
        raise ValueError(f"inflation identity fails: residual {resid:g}")
    return LengthVector(xi, rho)


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

@dataclass(frozen=True, eq=False)
class GridPatch:
    """A rectangle of unit cells: cell (i, j) covers
    [x_lo + j, x_lo + j + 1] x [y_top - i - 1, y_top - i].

    Row 0 is the top row.  ``q`` records the inflation side factor when
    known (0 otherwise) so coverage errors can report the level needed.
    """
    labels: np.ndarray
    x_lo: int
    y_top: int
    level: int = 0
    q: int = 0

    def __post_init__(self) -> None:
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
               side_cap: int = 3 ** 10) -> GridPatch:
    """n-fold grid inflation of a seed patch.

    Each step replaces every cell by its q x q rule image and multiplies
    the patch offsets by q, so the patch keeps covering a q-times larger
    neighborhood of the origin.  Sides are capped at ``side_cap`` cells;
    memory makes ~3^8 cells per side the practical ceiling (about 43M
    cells at one byte each before counting buffers).
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
    return GridPatch(labels, seed.x_lo * scale, seed.y_top * scale,
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


def _scaled_row_col_dist2(patch: GridPatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-row / per-column squared farthest-corner offsets, times 4.

    A cell centered at (cx, cy) lies in the closed ball B_R exactly when
    (2|cx|+1)^2 + (2|cy|+1)^2 <= (2R)^2; both summands are exact even
    integers here because cell centers sit on the half-integer grid.
    """
    j = np.arange(patch.width, dtype=np.int64)
    i = np.arange(patch.height, dtype=np.int64)
    ax = np.abs(2 * patch.x_lo + 2 * j + 1) + 1
    ay = np.abs(2 * patch.y_top - 2 * i - 1) + 1
    return ay * ay, ax * ax


def _ball_letter_counts(patch: GridPatch, radii: np.ndarray,
                        letters: Sequence[int]) -> np.ndarray:
    """N_a(R): cells of letter a whose closed square lies in B_R, per (a, R).

    The scaled corner distance of cell (i, j) is ay2[i] + ax2[j], a sum
    of exact integers, so it is <= (2R)^2 (1 + 1e-12) exactly when it is
    <= that threshold's floor T.  Within row i the cells inside B_R are
    then the columns with ax2[j] <= T - ay2[i]: the k-th column pair out
    from x = 0 (k = 1, 2, ...) has ax2 = (2k)^2, so one searchsorted over
    those squares gives the number K of column pairs inside, and the
    columns [c0 - K, c0 + K) around the first column c0 right of x = 0.
    Per-row int32 prefix counts of each letter turn that run into a
    count.  Rows are scanned in chunks of about 1M cells inside the
    bounding box of the largest ball, so memory stays bounded by one
    chunk.
    """
    counts = np.zeros((len(letters), radii.size), dtype=np.int64)
    thr = np.floor((2.0 * radii) ** 2 * (1.0 + 1e-12)).astype(np.int64)
    ay2, ax2 = _scaled_row_col_dist2(patch)
    # the nearest cell of a row or column adds at least 2^2 for the other axis
    rows = np.flatnonzero(ay2 + 4 <= thr.max())
    cols = np.flatnonzero(ax2 + 4 <= thr.max())
    if rows.size == 0 or cols.size == 0:
        return counts
    j0, j1 = int(cols[0]), int(cols[-1]) + 1
    width = j1 - j0
    c0 = -patch.x_lo - j0
    k = np.arange(1, max(c0, width - c0) + 1, dtype=np.int64)
    pair_d2 = 4 * k * k
    chunk = max(1, (1 << 20) // width)
    for i0 in range(int(rows[0]), int(rows[-1]) + 1, chunk):
        i1 = min(i0 + chunk, int(rows[-1]) + 1)
        lab = patch.labels[i0:i1, j0:j1]
        pairs = np.searchsorted(pair_d2, thr[None, :] - ay2[i0:i1, None], side="right")
        lo = np.maximum(c0 - pairs, 0)
        hi = np.minimum(c0 + pairs, width)
        pref = np.zeros((i1 - i0, width + 1), dtype=np.int32)
        for n, a in enumerate(letters):
            np.cumsum(lab == int(a), axis=1, dtype=np.int32, out=pref[:, 1:])
            inside = np.take_along_axis(pref, hi, 1) - np.take_along_axis(pref, lo, 1)
            counts[n] += inside.sum(axis=0, dtype=np.int64)
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
    exact integers (`_ball_letter_counts`) and returns sum_a w_a N_a(R).
    With integer weights every sum is exact.
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
