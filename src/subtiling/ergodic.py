"""Measure normalization and log-averaged statistics of substitution orbits.

The shift-invariant measure of a non-primitive admissible substitution
is infinite, so plain Birkhoff averages of cylinder functions vanish.
What converges instead is the log-average of prefix sums rescaled by
k^alpha, and its value couples three normalizations: the transverse
weights xi_tr (right Perron vector of the contracting block), the
cylinder measure nu scaled against tile lengths, and the mass vector
of the attractor pieces.  This module keeps that bookkeeping in one
place and provides the series engines on top of it: symbolic prefix
sums, one-sided window integrals over 1-d suspension tilings, ball
averages over 2-d grid patches, alpha-dimensional and logarithmic
letter frequencies, and a sampling experiment for the distribution of
renormalized sums over transversal-random starting points.

Conventions.  An orbit is the letter array x(0), x(1), ...; prefix
sums count from position 0, S_k f = f(x(0)) + ... + f(x(k-1)); the
frequency sums run over positions k = 1..n.  Series report exact
cumulative values on a geometric grid of scales (the grid only picks
report points, never subsamples the sum).  Limits hold for nu-typical
orbits; orbits of that kind come out of TransversalSampler, never from
the canonical fixed point, whose zoom trajectory is self-similar and
sits in the measure-zero exceptional set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .gdifs import GdifsGraph, MarkovSampler, MassVector, build_graph, mass_vector
from .spectral import perron_vectors, require_admissible
from .substitution import (LENGTH_CAP, LengthCapError, Substitution,
                           TwoSidedWord, expand_grid, iterate,
                           substitution_matrix, supertile_lengths)
from .tiling import (CoverageError, GridPatch, LengthVector, Tiling1DWindow,
                     _as_lengths, _OwnedLabels, ball_weight_scan,
                     suspension_lengths)

__all__ = [
    "TransverseWeights",
    "transverse_weights",
    "MeasureNormalization",
    "measure_normalization",
    "Observable",
    "mass_observable",
    "birkhoff_prefix_sums",
    "SecondOrderSeries",
    "second_order_symbolic",
    "second_order_tiling",
    "alpha_frequency",
    "log_frequency",
    "sum_by_parts",
    "TransversalSampler",
    "DistributionTable",
    "distribution_experiment",
    "CoverageError",
]

def _running_sums(v: np.ndarray) -> np.ndarray:
    """0, v[0], v[0] + v[1], ... accumulated in np.longdouble.

    Extended precision keeps the rounding of a long running sum below
    one float64 ulp where the platform has it; elsewhere it is float64.
    """
    acc = np.zeros(v.size + 1, dtype=np.longdouble)
    acc[1:] = v
    return np.cumsum(acc, out=acc)


# (kind, n, p) -> read-only power-sum table over k = 1..n: "tail" holds
# sum_{i=j+1..n} i^-p at index j, "prefix" sum_{i=1..j} i^-p.  A series
# command asks for one table and every replica reads it, so two entries
# cover a command plus a caller that alternates between two exponents.
@functools.lru_cache(maxsize=2)
def _power_sums(kind: str, n: int, p: float) -> np.ndarray:
    """Length n + 1 tail or prefix sums of k^-p, computed once and shared.

    The terms k^-p are built in place in the table and then overwritten
    by their running sums, so the build holds one float64 and one
    longdouble array of length n + 1.
    """
    tab = np.arange(n + 1, dtype=np.float64)
    np.power(tab[1:], -p, out=tab[1:])
    if kind == "tail":
        tab[:] = _running_sums(tab[:0:-1])[::-1]
    else:
        tab[:] = _running_sums(tab[1:])
    tab.flags.writeable = False
    return tab


def _occurrences(letters: np.ndarray, w: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Positions j with w[letters[j]] != 0, and those weights.

    w must cover every letter id.  The mask compares the letters with
    each weighted letter in place of a gather through w, which keeps the
    uint8 orbit from being widened and costs one byte compare per
    weighted letter and position.
    """
    hit = np.zeros(letters.shape, dtype=bool)
    eq = np.empty(letters.shape, dtype=bool)
    for a in np.flatnonzero(w).tolist():
        np.equal(letters, a, out=eq)
        hit |= eq
    j = np.flatnonzero(hit)
    return j, w[letters[j]]


def _check_alpha(alpha: float) -> None:
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")


def _check_c(c: float) -> None:
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c!r}")


# ---- normalizations ----

@dataclass(frozen=True, eq=False)
class TransverseWeights:
    """Right Perron eigenvector of the contracting block, per B letter.

    xi_tr[i] weighs the cylinder of b_letters[i].  normalization is
    "unit-length-pairing" (sum of xi_len * xi_tr over B letters is 1,
    the 1-d convention) or "unit-sum" (entries sum to 1, 2-d).
    """
    xi_tr: np.ndarray
    normalization: str
    b_letters: list[int]
    rho_B: float

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi_tr, dtype=np.float64)
        if xi.ndim != 1 or xi.size != len(self.b_letters):
            raise ValueError("one weight per contracting letter required")
        if not np.isfinite(xi).all() or not (xi > 0).all():
            raise ValueError("transverse weights must be strictly positive")
        object.__setattr__(self, "xi_tr", xi)


def transverse_weights(sub: Substitution,
                       xi_len: Union[LengthVector, np.ndarray, None] = None
                       ) -> TransverseWeights:
    """Transverse cylinder weights of an admissible substitution.

    The right Perron eigenvector of the contracting block B, rescaled
    to the convention the series targets assume: for dim 1 the pairing
    with tile lengths over B letters is 1 (xi_len defaults to the
    suspension lengths), for dim 2 the entries sum to 1.
    """
    rep = require_admissible(sub)
    b = rep.b_letters
    M = substitution_matrix(sub)
    B = M[np.ix_(b, b)].astype(np.float64)
    pd = perron_vectors(B, side="right", normalization="sum")
    if pd.residual > 1e-9:
        raise ValueError(f"eigenvector residual {pd.residual:g} too large")
    xi = pd.vec
    if sub.dim == 1:
        xi = _unit_length_pairing(sub, xi_len, b, xi)
        tag = "unit-length-pairing"
    else:
        tag = "unit-sum"
    return TransverseWeights(xi, tag, list(b), float(pd.rho))


def _unit_length_pairing(sub: Substitution, xi_len, b: list[int],
                         xi: np.ndarray) -> np.ndarray:
    """xi / sum(xi_len[b] * xi); xi_len defaults to the suspension lengths."""
    lengths = _as_lengths(suspension_lengths(sub) if xi_len is None else xi_len)
    if len(lengths) < max(b) + 1:
        raise ValueError("tile lengths must cover every contracting letter")
    return xi / float(lengths[b] @ xi)


@dataclass(frozen=True, eq=False)
class MeasureNormalization:
    """Cylinder measure nu on B letters plus the coupling constants.

    nu_cyl is scaled so the series targets need no further factors
    (dim 1: sum of xi_len * nu over B letters is 1; dim 2: nu sums
    to 1).  gamma converts a raw density estimate into the coupled
    constant of the second-order limit: gamma = 1 exactly when the
    mass vector satisfies sum(xi_tr * h) = 1, and in general
    coupled_c compensates any joint rescaling of mass and measure.
    """
    nu_cyl: np.ndarray
    gamma: float
    c0: float
    b_letters: list[int]
    a_letters: list[int]
    h: np.ndarray

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu_cyl, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        if nu.shape != (len(self.b_letters),) or h.shape != nu.shape:
            raise ValueError("nu and h need one entry per contracting letter")
        if not (np.isfinite(nu).all() and (nu > 0).all()):
            raise ValueError("cylinder measures must be strictly positive")
        object.__setattr__(self, "nu_cyl", nu)
        object.__setattr__(self, "h", h)

    def nu_of(self, b: int) -> float:
        if b not in self.b_letters:
            raise ValueError(f"letter {b} has no finite cylinder measure")
        return float(self.nu_cyl[self.b_letters.index(b)])

    def integral(self, f: "Observable") -> float:
        """Integral of a letter-cylinder observable against nu."""
        w = _full_weights(f, self.b_letters, self.a_letters)
        return float(w[self.b_letters] @ self.nu_cyl)

    def coupled_c(self, c_hat: float) -> float:
        return self.gamma * float(c_hat)


def measure_normalization(sub: Substitution,
                          xi_len: Union[LengthVector, np.ndarray, None],
                          xi_tr: Union[TransverseWeights, np.ndarray],
                          mass: MassVector) -> MeasureNormalization:
    """Couple transverse weights, tile lengths and attractor masses.

    Whatever scaling the inputs carry, nu comes out in the module
    normalization and gamma absorbs the mass-side scale, so every
    reported target is invariant under rescaling mass by s and the
    measure by 1/s.
    """
    rep = require_admissible(sub)
    b = rep.b_letters
    xi = xi_tr.xi_tr if isinstance(xi_tr, TransverseWeights) else \
        np.asarray(xi_tr, dtype=np.float64)
    if xi.ndim != 1 or xi.size != len(b):
        raise ValueError("one transverse weight per contracting letter required")
    if not (np.isfinite(xi).all() and (xi > 0).all()):
        raise ValueError("degenerate transverse weight vector")
    h = np.asarray(mass.h, dtype=np.float64)
    if h.shape != xi.shape or not (np.isfinite(h).all() and (h > 0).all()):
        raise ValueError("degenerate mass vector")
    if sub.dim == 1:
        nu = _unit_length_pairing(sub, xi_len, b, xi)
    else:
        nu = xi / float(xi.sum())
    gamma = 1.0 / float(nu @ h)
    return MeasureNormalization(nu, gamma, float(mass.c0), list(b),
                                list(rep.a_letters), h)


# ---- observables ----

@dataclass(frozen=True, eq=False)
class Observable:
    """Letter-cylinder function: weights[a] is the value on letter a.

    Integrals against the cylinder measure only see B letters, so a
    weight on an expanding letter makes the integral ill-defined; such
    observables are rejected wherever a target is computed unless
    formal=True, which opts into treating those weights as zero there
    while the series engines still sum them literally.
    """
    weights: np.ndarray
    formal: bool = False

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def indicator(cls, letter: int, n_letters: int) -> "Observable":
        w = np.zeros(n_letters)
        w[letter] = 1.0
        return cls(w)


def mass_observable(graph: GdifsGraph, mass: MassVector,
                    n_letters: Optional[int] = None) -> Observable:
    """Observable whose value on a contracting letter is its piece mass.

    This is the density comparison function of the ball-average
    theorem: weight h_Q per cell or per unit tile length of type Q,
    zero on expanding letters; its integral under the canonical
    coupling is 1.
    """
    n = int(n_letters) if n_letters is not None else int(max(graph.letter_ids)) + 1
    w = np.zeros(n)
    w[np.asarray(graph.letter_ids, dtype=np.int64)] = mass.h
    return Observable(w)


def _full_weights(f: Observable, b_letters: Sequence[int],
                  a_letters: Sequence[int]) -> np.ndarray:
    n = max(list(b_letters) + list(a_letters)) + 1
    w = np.zeros(n)
    m = min(n, len(f.weights))
    w[:m] = f.weights[:m]
    if not f.formal:
        off = np.setdiff1d(np.arange(len(f.weights)), np.asarray(b_letters))
        if off.size and (f.weights[off] != 0.0).any():
            raise ValueError(
                "observable carries weight on an expanding letter; its "
                "cylinder integral is not defined (pass formal=True to "
                "treat those weights as zero in targets)")
    return w


# ---- prefix sums ----

def _orbit_letters(x: Union[TwoSidedWord, np.ndarray, Sequence[int]],
                   need: int) -> np.ndarray:
    """The first `need` letters as an integer array, a view when possible."""
    if isinstance(x, TwoSidedWord):
        if len(x.right) < need:
            raise ValueError(f"orbit provides {len(x.right)} letters, {need} needed")
        arr = x.slice(0, need)
    else:
        arr = np.asarray(x)
        if arr.ndim != 1:
            raise ValueError("orbit must be a one-dimensional letter array")
        if arr.size < need:
            raise ValueError(f"orbit provides {arr.size} letters, {need} needed")
        arr = arr[:need]
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    if arr.dtype.kind == "i" and arr.size and arr.min() < 0:
        raise ValueError("letter ids must be nonnegative")
    return arr


def birkhoff_prefix_sums(x: Union[TwoSidedWord, np.ndarray, Sequence[int]],
                         f: Observable, n: int) -> np.ndarray:
    """Prefix sums S_k f = f(x(0)) + ... + f(x(k-1)) for k = 0..n.

    Exact int64 accumulation when the weights are integers.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    letters = _orbit_letters(x, n)
    w = f.weights
    if letters.size and letters.max() >= len(w):
        raise ValueError("letter id outside the observable")
    wi = np.rint(w)
    if np.array_equal(wi, w) and np.abs(wi).max(initial=0.0) < 2 ** 31:
        vals = wi.astype(np.int64)[letters]
        out = np.empty(n + 1, dtype=np.int64)
    else:
        vals = w[letters]
        out = np.empty(n + 1, dtype=np.float64)
    out[0] = 0
    np.cumsum(vals, out=out[1:])
    return out


# ---- report grids ----

def _report_grid(n_max: int, grid_density: int = 8) -> np.ndarray:
    """Geometric report scales with ratio 2**(1/grid_density), up to n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if grid_density < 1:
        raise ValueError("grid_density must be positive")
    r = np.log(2.0) / grid_density
    j_max = int(np.floor(np.log(n_max / 2.0) / r + 1e-12))
    vals = np.rint(n_max * np.exp(-r * np.arange(j_max + 1, dtype=np.float64)))
    vals = np.unique(np.maximum(vals.astype(np.int64), 2))
    return vals


def _as_grid(n_grid) -> np.ndarray:
    if np.isscalar(n_grid):
        return _report_grid(int(n_grid))
    g = np.asarray(n_grid, dtype=np.int64)
    if g.ndim != 1 or g.size == 0 or g[0] < 1 or (np.diff(g) <= 0).any():
        raise ValueError("grid must be strictly increasing positive integers")
    return g


# ---- second-order series ----

@dataclass(frozen=True, eq=False)
class SecondOrderSeries:
    """Log-averaged partials on a geometric scale grid, and their summary.

    partials[i] is the exact cumulative log-average at grid[i]; the
    limit for nu-typical input is target.  Every series engine returns
    one: the second-order sums (c_used is the density they divide by)
    and the letter frequencies (letter is the counted letter).  kind
    names the engine.  final_decade removes the scale-free truncation
    bias by differencing two report points a decade apart, which is the
    quantity tolerances apply to.
    """
    grid: np.ndarray
    partials: np.ndarray
    target: Optional[float]
    alpha: float
    c_used: Optional[float] = None
    kind: str = ""
    letter: Optional[int] = None

    def __post_init__(self) -> None:
        g = np.asarray(self.grid)
        p = np.asarray(self.partials, dtype=np.float64)
        if g.ndim != 1 or g.size == 0 or p.shape != g.shape:
            raise ValueError("grid and partials must be vectors of equal length")
        if (np.diff(g.astype(np.float64)) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        if not np.isfinite(p).all():
            raise ValueError("partials must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "partials", p)

    def final_decade(self, width: float = 10.0) -> float:
        """Difference quotient of log-weighted partials over the last `width`."""
        if width <= 1.0:
            raise ValueError("decade width must exceed 1")
        lg = np.log(self.grid.astype(np.float64))
        m = int(np.argmin(np.abs(lg - (lg[-1] - np.log(width)))))
        if m == len(lg) - 1:
            raise ValueError("grid too short to isolate a final decade")
        p = self.partials
        return float((p[-1] * lg[-1] - p[m] * lg[m]) / (lg[-1] - lg[m]))

    def last_decade_oscillation(self, width: float = 10.0) -> float:
        """Spread of the partials over the last `width`, over |target| (else |mean|)."""
        lg = np.log(self.grid.astype(np.float64))
        pts = self.partials[lg >= lg[-1] - np.log(width) - 1e-12]
        if pts.size < 2:
            raise ValueError("grid too short to measure oscillation")
        denom = abs(self.target) if self.target else abs(float(pts.mean()))
        if denom == 0.0:
            raise ValueError("oscillation undefined against a zero reference")
        return float((pts.max() - pts.min()) / denom)

    def csv(self) -> str:
        """scale,partial,target,relative_error rows; empty cells where undefined."""
        target = self.target
        lines = ["scale,partial,target,relative_error"]
        for s, p in zip(self.grid.tolist(), self.partials.tolist()):
            sv = repr(float(s)) if isinstance(s, float) else str(s)
            if target:
                rel = (p - target) / target
                lines.append(f"{sv},{p!r},{target!r},{rel!r}")
            elif target == 0.0:
                lines.append(f"{sv},{p!r},{target!r},")
            else:
                lines.append(f"{sv},{p!r},,")
        return "\n".join(lines) + "\n"


def second_order_symbolic(x, f: Observable, alpha: float, c: float, n_max: int,
                          *, grid_density: int = 8,
                          norm: Optional[MeasureNormalization] = None) -> SecondOrderSeries:
    """(1/log n) * sum_{k<=n} S_k f / (c k^(alpha+1)), reported on a grid.

    Every k up to the report point enters the sum; the limit for a
    nu-typical orbit is the cylinder integral of f, provided c is the
    coupled average density.  The target column is the cylinder
    integral of f under norm, or empty without norm.

    S_k is constant between visits to weighted letters, so the sum runs
    over those visits j alone: sum_{k<=g} S_k k^-(alpha+1) =
    sum_{j<g} w(x(j)) (T[j] - T[g]) with the shared tail sums
    T[j] = sum_{i=j+1..n} i^-(alpha+1).
    """
    _check_alpha(alpha)
    _check_c(c)
    grid = _report_grid(int(n_max), grid_density)
    n = int(grid[-1])
    letters = _orbit_letters(x, n)
    w = f.weights
    if letters.max(initial=0) >= len(w):
        raise ValueError("letter id outside the observable")
    target = None if norm is None else norm.integral(f)
    j, v = _occurrences(letters, w)
    tail = _power_sums("tail", n, alpha + 1.0)
    m = np.searchsorted(j, grid)
    total = _running_sums(v * tail[j])[m] - tail[grid] * _running_sums(v)[m]
    partials = total / (c * np.log(grid))
    return SecondOrderSeries(grid, partials, target, float(alpha), float(c),
                             kind="symbolic")


def second_order_tiling(win_or_patch, g: Observable, alpha: float, c: float,
                        R_max: float, *, grid_density: int = 8,
                        norm: Optional[MeasureNormalization] = None) -> SecondOrderSeries:
    """(1/log t) * outer dR/R average of window or ball integrals of g.

    dim 1 (suspension window): the inner integral over [0, R] of the
    tile-normalized weight g/xi is evaluated exactly as a piecewise
    linear function of R and divided by c R^alpha.  dim 2 (grid
    patch): the inner integral is the weight of the cells inside the
    ball of radius R, divided by c (2R)^alpha.  The outer integral
    runs from R = 1 to R_max itself on a uniform log grid with trapezoid
    weights; every 8th node is a report point, starting at t = 2.
    """
    _check_alpha(alpha)
    _check_c(c)
    if grid_density < 1:
        raise ValueError("grid_density must be positive")
    if R_max < 2.0:
        raise ValueError("R_max must be at least 2 to produce a report point")
    target = None if norm is None else norm.integral(g)
    if isinstance(win_or_patch, Tiling1DWindow):
        radii, volume, kind = _window_volume(win_or_patch, g, float(R_max))
        scale = 1.0
    elif isinstance(win_or_patch, GridPatch):
        if R_max > win_or_patch.covered_radius:
            raise CoverageError(
                f"patch covers R <= {win_or_patch.covered_radius!r}, "
                f"requested {float(R_max)!r}")
        radii, volume, kind = None, None, "grid"
        scale = 2.0 ** alpha
    else:
        raise TypeError("expected a Tiling1DWindow or a GridPatch")

    du_target = np.log(2.0) / (8.0 * grid_density)
    u_max = float(np.log(R_max))
    steps = 8 * max(1, int(np.ceil(u_max / (8.0 * du_target) - 1e-12)))
    us = np.linspace(0.0, u_max, steps + 1)
    rs = np.exp(us)
    rs[-1] = R_max
    if kind == "grid":
        v = ball_weight_scan(win_or_patch, rs, g.weights)
    else:
        v = np.interp(rs, radii, volume)
    integrand = v * np.exp(-alpha * us) / (c * scale)
    du = us[1] - us[0]
    cums = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * du)])
    idx = np.arange(8, steps + 1, 8)
    keep = rs[idx] >= 2.0 * (1.0 - 1e-12)
    idx = idx[keep]
    if idx.size == 0:
        raise ValueError("no report points at or beyond t = 2")
    grid = rs[idx]
    partials = cums[idx] / us[idx]
    return SecondOrderSeries(grid, partials, target, float(alpha), float(c),
                             kind=kind)


def _window_volume(win: Tiling1DWindow, g: Observable, R_max: float
                   ) -> tuple[np.ndarray, np.ndarray, str]:
    """Nodes and values of R -> integral over [0, R] of g/xi, one-sided."""
    b = win.boundaries
    p0 = -win.lo
    if b[-1] < R_max:
        raise CoverageError(
            f"window covers R <= {float(b[-1])!r}, requested {float(R_max)!r}")
    letters = win.letters[p0:].astype(np.int64)
    if letters.max(initial=0) >= len(g.weights):
        raise ValueError("letter id outside the observable")
    edges = np.concatenate([[0.0], b[p0 + 1:]])
    full = np.diff(b[p0:])
    # the k-th segment is a full tile except segment 0, the right half
    # of the central tile; slopes always use the full tile length
    slopes = g.weights[letters] / full
    vols = np.concatenate([[0.0], np.cumsum(slopes * np.diff(edges))])
    keep = np.concatenate([[True], np.diff(edges) > 0])
    return edges[keep], vols[keep], "suspension"


# ---- frequencies ----

def _check_letter(letter: int) -> None:
    if letter < 0:
        raise ValueError(f"letter ids must be nonnegative, got {letter}")


def _frequency_series(x, letter: int, alpha: float, n_max: int,
                      grid_density: int, target: Optional[float], kind: str
                      ) -> SecondOrderSeries:
    """Sum k^-alpha over the visits k <= g to the letter.

    A letter that fills more than half the orbit is summed as the
    shared prefix sum_{k<=g} k^-alpha minus the visits to the others.
    """
    grid = _report_grid(int(n_max), grid_density)
    n = int(grid[-1])
    hit = _orbit_letters(x, n + 1)[1:] == letter
    complement = 2 * int(np.count_nonzero(hit)) > n
    j = np.flatnonzero(~hit if complement else hit)
    m = np.searchsorted(j, grid)
    total = _running_sums((j + 1.0) ** -alpha)[m]
    if complement:
        total = _power_sums("prefix", n, alpha)[grid] - total
    partials = total / np.log(grid)
    return SecondOrderSeries(grid, partials, target, float(alpha), kind=kind,
                             letter=int(letter))


def alpha_frequency(x, b: int, alpha: float, n_max: int, *,
                    c: Optional[float] = None,
                    norm: Optional[MeasureNormalization] = None,
                    grid_density: int = 8) -> SecondOrderSeries:
    """alpha-dimensional letter frequency series of a contracting letter.

    Partials of (1/log n) sum over k <= n with x_k = b of k^(-alpha);
    for a nu-typical orbit the limit is alpha * c * nu([b]), which is
    filled in as the target when both c and norm are given.
    """
    _check_alpha(alpha)
    _check_letter(b)
    if c is not None:
        _check_c(c)
    target = None
    if norm is not None:
        nu_b = norm.nu_of(int(b))
        if c is not None:
            target = float(alpha) * float(c) * nu_b
    return _frequency_series(x, int(b), float(alpha), n_max, grid_density, target,
                             "frequency")


def log_frequency(x, a: int, n_max: int, grid_density: int = 8) -> SecondOrderSeries:
    """Logarithmic letter frequency: (1/log n) sum_{k<=n, x_k=a} 1/k.

    Converges to the ordinary frequency when that exists; it is 1 for
    the density-one expanding letter and 0 for every contracting
    letter, so no target is attached.
    """
    _check_letter(a)
    return _frequency_series(x, int(a), 1.0, n_max, grid_density, None, "logfreq")


def sum_by_parts(ps: np.ndarray, alpha: float, n_grid) -> np.ndarray:
    """sum_{k<=n} f(x(k)) k^(-alpha) evaluated from prefix sums alone.

    Abel summation: S_{n+1} n^(-alpha) - S_1 + sum_{k=2..n} S_k
    ((k-1)^(-alpha) - k^(-alpha)); ps must cover k = 0..n+1.  Used to
    reconstruct frequency partials from second-order data exactly.
    """
    _check_alpha(alpha)
    grid = _as_grid(n_grid)
    n_max = int(grid[-1])
    ps = np.asarray(ps, dtype=np.float64)
    if ps.ndim != 1 or ps.size < n_max + 2:
        raise ValueError(f"prefix sums must cover k = 0..{n_max + 1}")
    k = np.arange(2, n_max + 1, dtype=np.float64)
    terms = ps[2:n_max + 1] * ((k - 1.0) ** -alpha - k ** -alpha)
    out = np.empty(len(grid))
    total = 0.0
    prev = 2
    for gi, gval in enumerate(grid.tolist()):
        total += float(np.sum(terms[prev - 2:gval - 1]))
        prev = gval + 1
        out[gi] = ps[gval + 1] * float(gval) ** -alpha - ps[1] + total
    return out


# ---- transversal sampling ----

class TransversalSampler:
    """Orbits and patches whose origin is distributed like nu.

    A depth-N path of the mass-weighted Markov chain addresses one
    occurrence of a contracting letter inside the level-N supertile;
    starting the orbit there (or recentering the patch on that cell)
    realizes the transversal measure.  Realized supertile words are
    cached per letter, so replica loops stay cheap.  All randomness
    flows through one counter-based stream: runs are reproducible
    from (graph, mass, seed).
    """

    _MARGIN = 4
    _MAX_DRAWS = 4096

    def __init__(self, sub: Substitution, graph: GdifsGraph, mass: MassVector,
                 seed) -> None:
        if sub.dim != graph.dim:
            raise ValueError("graph was built for a different dimension")
        self.sub = sub
        self.graph = graph
        self.mass = mass
        self._sampler = MarkovSampler(graph, mass, seed)
        self._letters = np.asarray(graph.letter_ids, dtype=np.int64)
        if sub.dim == 1:
            # per edge, the letter counts before its occurrence in the image
            self._pref = np.stack([
                np.bincount(sub.image(int(self._letters[v]))[:pos],
                            minlength=sub.n_letters)
                for v, pos in zip(graph.edge_src.tolist(), graph.edge_pos.tolist())])
        else:
            self._erow, self._ecol = np.divmod(graph.edge_pos, sub.q)
        self._words: dict[tuple[int, int], np.ndarray] = {}

    # -- 1-d addressing --

    def _depth_for(self, span: int) -> tuple[int, list[tuple[int, ...]]]:
        """Least level whose B-letter supertiles all hold _MARGIN * span
        letters, with the supertile lengths of levels 0..depth.

        Lengths never shrink with the level, so the search stops at the
        first level whose longest B-letter supertile exceeds the cap.
        """
        level = 1
        while True:
            rows = supertile_lengths(self.sub, level)
            ln = {a: rows[level][a] for a in self._letters.tolist()}
            a = max(ln, key=ln.get)
            if ln[a] > LENGTH_CAP:
                raise LengthCapError(
                    "supertiles pass the cap before they are long enough for "
                    f"the span: sigma^{level}({self.sub.letters[a]}) has "
                    f"length {ln[a]} > cap {LENGTH_CAP}")
            if min(ln.values()) >= self._MARGIN * span:
                return level, rows
            level += 1

    def _word(self, letter: int, level: int) -> np.ndarray:
        key = (letter, level)
        if key not in self._words:
            self._words[key] = iterate(self.sub, letter, level)
        return self._words[key]

    def addressed_batch(self, count: int, span: int
                        ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """(start letters, positions, depth, resampled) for `count` draws.

        Each position s satisfies s + span <= len of the realized
        supertile word of its start letter, resampling rejected draws;
        CoverageError when _MAX_DRAWS batches leave some draw unfilled.
        """
        if self.sub.dim != 1:
            raise ValueError("symbolic addressing needs a 1-d substitution")
        if span < 1:
            raise ValueError("span must be positive")
        depth, rows = self._depth_for(span)
        # exact products: A-letter lengths can outgrow int64, but every
        # offset is a position inside a level-depth B supertile
        off = (self._pref @ np.array(rows[depth - 1::-1], dtype=object).T
               ).astype(np.int64)
        lens = np.array([rows[depth][a] for a in self._letters.tolist()],
                        dtype=np.int64)
        out_letter = np.empty(count, dtype=np.int64)
        out_pos = np.empty(count, dtype=np.int64)
        filled = 0
        resampled = 0
        for _ in range(self._MAX_DRAWS):
            if filled >= count:
                break
            want = count - filled
            starts, edges = self._sampler.sample_paths(want, depth)
            pos = off[edges, np.arange(depth)].sum(axis=1)
            letters = self._letters[starts]
            ok = pos + span <= lens[starts]
            n_ok = int(ok.sum())
            resampled += want - n_ok
            out_letter[filled: filled + n_ok] = letters[ok]
            out_pos[filled: filled + n_ok] = pos[ok]
            filled += n_ok
        if filled < count:
            raise CoverageError(
                f"{self._MAX_DRAWS} draw batches left {count - filled} of {count} "
                f"addresses without room for {span} letters in their "
                f"level-{depth} supertile")
        return out_letter, out_pos, depth, resampled

    def orbit(self, n: int) -> np.ndarray:
        """Letters x(0) .. x(n) of a transversal-random orbit."""
        if n < 1:
            raise ValueError("n must be positive")
        letters, pos, depth, _ = self.addressed_batch(1, n + 1)
        w = self._word(int(letters[0]), depth)
        s = int(pos[0])
        return w[s: s + n + 1].copy()

    # -- 2-d addressing --

    def patch(self, level: int, R: float) -> GridPatch:
        """Patch of the level-`level` supertile recentered on a random cell.

        The addressed cell covers [0,1]^2 and the patch extends R+1
        cells each way, enough for ball scans up to radius R.  Draws
        closer than that to the supertile's edge are rejected, and
        CoverageError is raised when all _MAX_DRAWS of them are: the
        level is too low for R wherever the mass sits (on the carpet at
        level 6 and R 243, every centre far enough from the edge lies in
        the central hole).
        """
        if self.sub.dim != 2:
            raise ValueError("patches need a 2-d substitution")
        if level < 1 or R < 1:
            raise ValueError("level and R must be positive")
        q = self.sub.q
        rpad = int(np.ceil(R)) + 1
        side = 2 * rpad + 1
        total = q ** level
        if total < 2 * rpad + 1:
            need = int(np.ceil(np.log(2 * rpad + 1) / np.log(q)))
            raise CoverageError(
                f"level {level} covers a {total} cell square; "
                f"radius {float(R)!r} needs level >= {need}")
        if side * side > LENGTH_CAP:
            raise LengthCapError("patch would exceed the cell cap")
        for _ in range(self._MAX_DRAWS):
            starts, edges = self._sampler.sample_paths(1, level)
            # base-q digits in Python ints: q^level outgrows int64 (3^40 > 2^63)
            i = j = 0
            for r, c in zip(self._erow[edges[0]].tolist(), self._ecol[edges[0]].tolist()):
                i, j = i * q + r, j * q + c
            if rpad <= i <= total - rpad - 1 and rpad <= j <= total - rpad - 1:
                letter = int(self._letters[int(starts[0])])
                labels = _window_labels(self.sub, letter, level,
                                        i - rpad, i + rpad + 1,
                                        j - rpad, j + rpad + 1)
                return GridPatch(_OwnedLabels(labels), x_lo=-rpad, y_top=rpad + 1,
                                 level=level, q=q)
        raise CoverageError(
            f"none of {self._MAX_DRAWS} draws addressed a cell {rpad} cells "
            f"inside the level-{level} supertile; raise the level (--level) "
            f"for radius {float(R)!r}")


class _WorkingSet:
    """Graph, weights, masses, normalization and sampler of one admissible
    substitution: the one recipe the commands and the experiments share."""

    def __init__(self, sub: Substitution, seed=0) -> None:
        self.sub = sub
        self.graph = build_graph(sub)  # raises on an inadmissible substitution
        self.alpha = float(self.graph.alpha)
        self.xi_len = self.graph.lengths
        self.tw = transverse_weights(sub, self.xi_len)
        self.mass = mass_vector(self.graph, self.tw.xi_tr)
        self.norm = measure_normalization(sub, self.xi_len, self.tw, self.mass)
        self.sampler = TransversalSampler(sub, self.graph, self.mass, seed)


def _window_labels(sub: Substitution, letter: int, level: int,
                   r_lo: int, r_hi: int, c_lo: int, c_hi: int) -> np.ndarray:
    """Rows [r_lo, r_hi) x cols [c_lo, c_hi) of the level-N expansion.

    Descends one inflation level at a time, keeping only the cells
    above the requested window, so memory stays near the window size
    instead of the q^(2 level) full grid.  The result is a view into the
    last expansion, which holds at most q - 1 cells more on each side.
    """
    q = sub.q
    total = q ** level
    if not (0 <= r_lo < r_hi <= total and 0 <= c_lo < c_hi <= total):
        raise ValueError("window outside the supertile")
    arr = np.array([[letter]], dtype=np.uint8)
    row0 = col0 = 0
    for d in range(1, level + 1):
        scale = q ** (level - d)
        nr_lo, nr_hi = r_lo // scale, (r_hi - 1) // scale
        nc_lo, nc_hi = c_lo // scale, (c_hi - 1) // scale
        pr, pc = nr_lo // q, nc_lo // q
        arr = arr[pr - row0: nr_hi // q - row0 + 1,
                  pc - col0: nc_hi // q - col0 + 1]
        arr = expand_grid(sub, arr)
        row0, col0 = pr * q, pc * q
        arr = arr[nr_lo - row0: nr_hi - row0 + 1,
                  nc_lo - col0: nc_hi - col0 + 1]
        row0, col0 = nr_lo, nc_lo
    return arr


# ---- distribution of renormalized sums ----

@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Empirical distribution of S_{lambda^i} f / rho(B)^i per level.

    values[i] holds the renormalized sums of level i over all sampled
    starting points; ks[i] is the Kolmogorov-Smirnov distance to the
    uniform distribution on [0, 1].  Reporting only: nothing here is
    an assertion about the limit law.
    """
    levels: np.ndarray
    ks: np.ndarray
    quantiles: np.ndarray
    values: np.ndarray
    samples: int
    resampled: int

    def __post_init__(self) -> None:
        lv = np.asarray(self.levels, dtype=np.int64)
        ks = np.asarray(self.ks, dtype=np.float64)
        qs = np.asarray(self.quantiles, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if lv.ndim != 1 or ks.shape != lv.shape:
            raise ValueError("levels and ks must be vectors of equal length")
        if qs.shape != (lv.size, 21) or vals.shape[0] != lv.size:
            raise ValueError("quantiles must be a levels x 21 table")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "quantiles", qs)
        object.__setattr__(self, "values", vals)

    def csv(self) -> str:
        head = ",".join(f"q{5 * i}" for i in range(21))
        lines = [f"level,{head},ks"]
        for i, lvl in enumerate(self.levels.tolist()):
            qs = ",".join(repr(float(v)) for v in self.quantiles[i])
            lines.append(f"{lvl},{qs},{float(self.ks[i])!r}")
        return "\n".join(lines) + "\n"


def _ks_uniform(sample: np.ndarray) -> float:
    xs = np.sort(np.clip(sample, 0.0, 1.0))
    n = xs.size
    up = np.arange(1, n + 1, dtype=np.float64) / n
    lo = np.arange(0, n, dtype=np.float64) / n
    return float(max(np.max(up - xs), np.max(xs - lo)))


def distribution_experiment(sub: Substitution, f: Observable, n_levels: int,
                            samples: int, rng=0) -> DistributionTable:
    """Renormalized prefix sums over transversal-random starting points.

    For each sampled starting point and each level i <= n_levels the
    statistic S_{lambda^i} f / rho(B)^i is recorded; the table reports
    21 quantiles and the KS distance to uniform per level.  Requires
    dim 1 and an integer inflation factor; deterministic in rng.
    """
    return _renormalized_sums(_WorkingSet(sub, rng), f, n_levels, samples)


def _renormalized_sums(ws: _WorkingSet, f: Observable, n_levels: int,
                       samples: int) -> DistributionTable:
    """distribution_experiment on a working set; draws from its sampler."""
    if ws.sub.dim != 1:
        raise ValueError("the experiment renormalizes 1-d prefix sums")
    if n_levels < 0 or samples < 1:
        raise ValueError("need n_levels >= 0 and samples >= 1")
    graph = ws.graph
    lam = int(round(graph.lam))
    if abs(graph.lam - lam) > 1e-9 * graph.lam:
        raise ValueError("renormalized sums need an integer inflation factor")
    rho = graph.rho_B
    sampler = ws.sampler
    span = lam ** n_levels + 1
    letters, pos, depth, resampled = sampler.addressed_batch(samples, span)
    w = f.weights
    levels = np.arange(n_levels + 1, dtype=np.int64)
    values = np.empty((n_levels + 1, samples))
    for letter in np.unique(letters).tolist():
        sel = letters == letter
        word = sampler._word(int(letter), depth)
        if int(word.max()) >= len(w):
            raise ValueError("letter id outside the observable")
        # prefix sums over the weighted positions h only: adding the
        # zero weights in between is exact, so every value is the same
        # as from the dense prefix sum
        h, v = _occurrences(word, w)
        q = np.concatenate([[0.0], np.cumsum(v)])
        s = pos[sel]
        start = q[np.searchsorted(h, s)]
        for i in range(n_levels + 1):
            step = lam ** i
            values[i, sel] = (q[np.searchsorted(h, s + step)] - start) / rho ** i
    quantiles = np.stack([np.quantile(values[i], np.linspace(0.0, 1.0, 21))
                          for i in range(n_levels + 1)])
    ks = np.array([_ks_uniform(values[i]) for i in range(n_levels + 1)])
    return DistributionTable(levels, ks, quantiles, values, samples, resampled)
