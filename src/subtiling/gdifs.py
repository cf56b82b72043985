"""Graph-directed IFS built from an admissible substitution.

Vertices are the letters of the primitive bottom block, edges are the
occurrences of those letters inside the inflated prototiles, and every
map is the contraction x -> (x + u_e) / lambda.  On top of the graph:
a Markov path sampler, rigorous ball-measure brackets, and the
average-density estimator on one multiradius bracket kernel (exposed
under two labels, pointwise and Birkhoff).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .spectral import perron_vectors, require_admissible, snap_rational_eigenpair
from .substitution import Substitution, substitution_matrix

__all__ = [
    "Edge",
    "GdifsGraph",
    "MassVector",
    "PathPrefix",
    "MarkovSampler",
    "DensityEstimate",
    "BracketPrecisionError",
    "build_graph",
    "dimension",
    "mass_vector",
    "natural_projection",
    "cylinder_measure",
    "ball_measure_bracket",
    "ZoomCursor",
    "average_density_pointwise",
    "average_density_birkhoff",
]

_GEOM_TOL = 1e-9


class BracketPrecisionError(RuntimeError):
    """Raised when a bracket query exceeds its active-set budget."""


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    u: np.ndarray  # displacement in the inflated tile, shape (dim,)


@dataclass(eq=False)
class GdifsGraph:
    dim: int
    lam: float
    rho_B: float
    alpha: float
    letter_ids: tuple[int, ...]      # global letter id per vertex
    letter_names: tuple[str, ...]
    sup_half: np.ndarray             # (m, dim) half-extents of the prototile supports
    edges: list[Edge]
    edge_src: np.ndarray             # (E,)
    edge_dst: np.ndarray             # (E,)
    edge_u: np.ndarray               # (E, dim)
    edge_pos: np.ndarray             # (E,) position in the source image, row-major in 2-d
    out_edges: list[np.ndarray]      # per-vertex global edge ids, occurrence order
    B: np.ndarray                    # restriction of the substitution matrix
    overlap: bool
    exact_geometry: bool = False     # lambda and displacements exact in float64
    xi: np.ndarray | None = None     # full tile-length vector (dim 1 only)

    @property
    def n_vertices(self) -> int:
        return len(self.letter_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_of_letter(self, letter: int) -> int:
        return self.letter_ids.index(letter)

    @property
    def u_max(self) -> float:
        return float(np.abs(self.edge_u).max())

    @cached_property
    def fan(self) -> list[list[tuple[int, np.ndarray]]]:
        """Out-edges of each vertex grouped by target: [(target, edge ids), ...]."""
        out = []
        for ids in self.out_edges:
            dst = self.edge_dst[ids]
            out.append([(int(w), ids[dst == w]) for w in np.unique(dst)])
        return out


def build_graph(sub: Substitution, xi: np.ndarray | None = None) -> GdifsGraph:
    """Construct the contraction graph of an admissible substitution.

    Raises ValueError when the admissibility report has failures or when
    the child tiles do not fit the inflated prototile within 1e-9.
    Displacements are computed in exact rational arithmetic whenever the
    tile lengths snap to rationals satisfying the eigenvector identity;
    exact_geometry records whether they are also exact as float64.
    """
    rep = require_admissible(sub)
    b_letters = rep.b_letters
    local = {g: i for i, g in enumerate(b_letters)}
    m = len(b_letters)
    lam = rep.lam
    M = np.zeros((m, m), dtype=np.int64)

    xi_fr = None
    if sub.dim == 1:
        if xi is None:
            xi = perron_vectors(substitution_matrix(sub), side="left", normalization="min").vec
        xi = np.asarray(xi, dtype=float)
        snapped = snap_rational_eigenpair(substitution_matrix(sub), xi, lam)
        if snapped is not None:
            xi_fr, lam_fr = snapped
            xi = np.array([float(f) for f in xi_fr])
            lam = float(lam_fr)
        sup_half = np.array([[xi[g] / 2.0] for g in b_letters])
    else:
        xi = None
        sup_half = np.full((m, 2), 0.5)

    exact = sub.dim == 2 or xi_fr is not None
    edges: list[Edge] = []
    edge_pos: list[int] = []
    out_edges: list[list[int]] = [[] for _ in range(m)]
    for s_local, gs in enumerate(b_letters):
        if sub.dim == 1:
            img = sub.image(gs)
            if xi_fr is not None:
                run = Fraction(0)
                centers_fr = []
                for g in img:
                    centers_fr.append(run + xi_fr[g] / 2 - lam_fr * xi_fr[gs] / 2)
                    run += xi_fr[g]
                if run != lam_fr * xi_fr[gs]:
                    raise ValueError(
                        f"tile lengths for letter {sub.letters[gs]!r} sum to {run}, "
                        f"expected {lam_fr * xi_fr[gs]}"
                    )
                centers = [float(c) for c in centers_fr]
                exact = exact and all(
                    Fraction(c) == cf for c, cf in zip(centers, centers_fr)
                )
            else:
                lengths = xi[img]
                total = float(lengths.sum())
                if abs(total - lam * xi[gs]) > _GEOM_TOL * max(1.0, lam * xi[gs]):
                    raise ValueError(
                        f"tile lengths for letter {sub.letters[gs]!r} sum to {total}, "
                        f"expected {lam * xi[gs]}"
                    )
                centers = list(np.cumsum(lengths) - lengths / 2.0 - lam * xi[gs] / 2.0)
            for pos, g in enumerate(img):
                if int(g) in local:
                    r_local = local[int(g)]
                    u = np.array([centers[pos]])
                    if abs(u[0]) + xi[g] / 2.0 > lam * xi[gs] / 2.0 + _GEOM_TOL:
                        raise ValueError("child tile leaves the inflated prototile")
                    eid = len(edges)
                    edges.append(Edge(s_local, r_local, u))
                    edge_pos.append(pos)
                    out_edges[s_local].append(eid)
                    M[r_local, s_local] += 1
        else:
            grid = sub.grid(gs)
            q = sub.q
            for i in range(q):
                for j in range(q):
                    g = int(grid[i, j])
                    if g in local:
                        r_local = local[g]
                        u = np.array([j + 0.5 - q / 2.0, q / 2.0 - i - 0.5])
                        eid = len(edges)
                        edges.append(Edge(s_local, r_local, u))
                        edge_pos.append(i * q + j)
                        out_edges[s_local].append(eid)
                        M[r_local, s_local] += 1

    edge_src = np.array([e.src for e in edges], dtype=np.int64)
    edge_dst = np.array([e.dst for e in edges], dtype=np.int64)
    edge_u = np.stack([e.u for e in edges]).astype(float)

    overlap = False
    for v in range(m):
        ids = out_edges[v]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                ea, eb = edges[ids[a]], edges[ids[b]]
                ha = sup_half[ea.dst]
                hb = sup_half[eb.dst]
                if np.all(np.abs(ea.u - eb.u) < ha + hb - _GEOM_TOL):
                    overlap = True

    return GdifsGraph(
        dim=sub.dim,
        lam=lam,
        rho_B=rep.rho_B,
        alpha=rep.alpha,
        letter_ids=tuple(int(g) for g in b_letters),
        letter_names=tuple(sub.letters[g] for g in b_letters),
        sup_half=sup_half,
        edges=edges,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_u=edge_u,
        edge_pos=np.array(edge_pos, dtype=np.int64),
        out_edges=[np.array(ids, dtype=np.int64) for ids in out_edges],
        B=M,
        overlap=overlap,
        exact_geometry=exact,
        xi=xi,
    )


def dimension(graph: GdifsGraph) -> float:
    """Similarity dimension log(rho_B) / log(lambda) of the attractor family."""
    if graph.rho_B <= 1.0 + 1e-12:
        warnings.warn("graph spectral radius is 1; attractor is a point set of dimension 0")
        return 0.0
    return math.log(graph.rho_B) / math.log(graph.lam)


# ---------------------------------------------------------------------------
# masses and cylinder measures


@dataclass(frozen=True)
class MassVector:
    """Per-vertex masses h with the coupling sum(xi_tr * h) = 1."""

    h: np.ndarray

    @property
    def c0(self) -> float:
        return float(self.h.sum())


def mass_vector(graph: GdifsGraph, xi_tr: np.ndarray) -> MassVector:
    """Left Perron mass vector of B, scaled so sum(xi_tr * h) = 1."""
    xi_tr = np.asarray(xi_tr, dtype=float)
    if xi_tr.shape != (graph.n_vertices,) or np.any(xi_tr <= 0):
        raise ValueError("xi_tr must be a positive vector, one entry per vertex")
    raw = perron_vectors(graph.B, side="left", normalization="sum").vec
    return MassVector(h=raw / float(xi_tr @ raw))


@dataclass(frozen=True)
class PathPrefix:
    start: int
    edges: np.ndarray  # global edge ids, shape (L,)

    def __len__(self) -> int:
        return len(self.edges)


def _validate_path(graph: GdifsGraph, path: PathPrefix) -> None:
    if not 0 <= path.start < graph.n_vertices:
        raise ValueError(f"start vertex {path.start} out of range")
    if len(path.edges) == 0:
        return
    ids = np.asarray(path.edges)
    if ids.min() < 0 or ids.max() >= graph.n_edges:
        raise ValueError("edge id out of range")
    srcs = graph.edge_src[ids]
    if srcs[0] != path.start:
        raise ValueError("first edge does not start at the path's start vertex")
    if len(ids) > 1 and np.any(graph.edge_dst[ids[:-1]] != srcs[1:]):
        raise ValueError("edges do not compose")


def cylinder_measure(graph: GdifsGraph, mass: MassVector, path: PathPrefix) -> float:
    """Measure of the path cylinder: h at the final vertex over c0 * rho^len."""
    _validate_path(graph, path)
    n = len(path.edges)
    last = path.start if n == 0 else int(graph.edge_dst[path.edges[-1]])
    return float(mass.h[last]) / (mass.c0 * graph.rho_B**n)


def natural_projection(
    graph: GdifsGraph, path: PathPrefix, terms: int | None = None
) -> tuple[np.ndarray, float]:
    """Point of the attractor addressed by a path, plus a truncation bound.

    Sums lambda^-(n+1) * u_{e_n} over the first `terms` edges; the bound
    covers every infinite continuation of the truncated prefix.
    """
    _validate_path(graph, path)
    ids = np.asarray(path.edges, dtype=np.int64)
    if terms is not None:
        ids = ids[:terms]
    used = len(ids)
    weights = graph.lam ** (-np.arange(1, used + 1, dtype=float))
    point = weights @ graph.edge_u[ids] if used else np.zeros(graph.dim)
    bound = graph.lam ** (-used) * graph.u_max / (graph.lam - 1.0)
    return point, bound


# ---------------------------------------------------------------------------
# Markov sampling


class MarkovSampler:
    """Stationary-increment path sampler on the contraction graph.

    Start distribution h / sum(h); an edge s -> r is taken with
    probability h_r / (rho_B * h_s), which makes every path prefix of
    length n carry probability h_last / (c0 * rho^n).
    """

    def __init__(self, graph: GdifsGraph, mass: MassVector, seed) -> None:
        self.graph = graph
        self.mass = mass
        self.w = mass.h / mass.h.sum()
        self._rng = np.random.Generator(np.random.Philox(seed))
        self._start_cum = np.cumsum(self.w)
        self._edge_cum = []
        for v in range(graph.n_vertices):
            ids = graph.out_edges[v]
            p = mass.h[graph.edge_dst[ids]] / (graph.rho_B * mass.h[v])
            total = p.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"edge probabilities at vertex {v} sum to {total}")
            self._edge_cum.append(np.cumsum(p / total))

    def sample_paths(self, count: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        starts = np.searchsorted(self._start_cum, self._rng.random(count), side="right")
        starts = np.minimum(starts, self.graph.n_vertices - 1).astype(np.int64)
        edges = np.empty((count, length), dtype=np.int64)
        state = starts.copy()
        for step in range(length):
            draw = self._rng.random(count)
            for v in range(self.graph.n_vertices):
                sel = state == v
                if not sel.any():
                    continue
                ids = self.graph.out_edges[v]
                pick = np.searchsorted(self._edge_cum[v], draw[sel], side="right")
                pick = np.minimum(pick, len(ids) - 1)
                edges[sel, step] = ids[pick]
            state = self.graph.edge_dst[edges[:, step]]
        return starts, edges

    def sample_path(self, length: int) -> PathPrefix:
        starts, edges = self.sample_paths(1, length)
        return PathPrefix(start=int(starts[0]), edges=edges[0])


# ---------------------------------------------------------------------------
# ball-measure brackets

_MAX_ACTIVE = 2_000_000
# Children are counted from their parents (`_count_children`) in groups of
# at least this many parents.  A counting call has a fixed cost of about
# 0.3 ms, which outweighs the build and search it saves below 500 to 1000
# carpet parents, so the children of smaller groups are built and searched.
_COUNT_MIN = 1024


# Pieces are kept grouped by vertex, one (dim, n) array of centres each:
# the pieces of one vertex at one level share their half-extent and their
# mass, so nothing is gathered per piece, and every array operation runs
# along the long axis.

def _group(graph, vids, taus):
    """Per-vertex (dim, n) centre arrays of the pieces (vids, taus)."""
    vids = np.asarray(vids, dtype=np.int64)
    taus = np.asarray(taus, dtype=float).reshape(len(vids), graph.dim)
    return [np.ascontiguousarray(taus[vids == v].T) for v in range(graph.n_vertices)]


def _split(graph, groups, scale_next):
    """Replace every piece by its children, one level deeper."""
    parts = [[] for _ in range(graph.n_vertices)]
    for v, taus in enumerate(groups):
        if taus.shape[1]:
            for w, ids in graph.fan[v]:
                # siblings stay adjacent: searchsorted runs fastest on nearby keys
                child = taus[:, :, None] + scale_next * graph.edge_u[ids].T[:, None, :]
                parts[w].append(child.reshape(graph.dim, -1))
    joined = []
    for p in parts:
        if not p:
            p = [np.empty((graph.dim, 0))]
        joined.append(p[0] if len(p) == 1 else np.concatenate(p, axis=1))
    return joined


def ball_measure_bracket(
    graph: GdifsGraph,
    mass: MassVector,
    vertex: int,
    x,
    r: float,
    depth: int = 30,
    side: str = "two",
) -> tuple[float, float]:
    """Rigorous two-sided bracket for the vertex measure of a closed ball.

    side "two": Euclidean ball B_r(x).  side "right": interval [x, x+r].
    The lower bound sums cylinders certified inside, the upper bound adds
    all cylinders still undecided at the stopping level.  Masses are in
    the h scale of `mass` (divide by c0 for the probability version).
    This is the one-radius case of `_measures_multiradius`, with the
    vertex's attractor placed at -x so that the ball is centred at 0.
    """
    if side not in ("two", "right"):
        raise ValueError("side must be 'two' or 'right'")
    if side == "right" and graph.dim != 1:
        raise ValueError("one-sided intervals need a one-dimensional graph")
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (graph.dim,):
        raise ValueError(f"query point must have shape ({graph.dim},)")
    lower, upper = _measures_multiradius(
        graph, mass, np.array([vertex], dtype=np.int64), -x[None, :],
        np.array([float(r)]), side, depth)
    return float(lower[0]), float(upper[0])


# ---------------------------------------------------------------------------
# zoom cursor: renormalized neighborhoods along a sampled path

_PRUNE_SLACK = 1e-6


class ZoomCursor:
    """Tracks the depth-m cylinders near the point addressed by a path.

    Offsets are kept as D = lam^m * tau - b_m with b_m the inflated
    partial projection.  When the graph geometry is exact in float64
    (integer inflation, dyadic displacements) the recursion
    D' = lam * D + u_e - u_{path[m]} is roundoff free at any depth; the
    offset of a piece relative to the point is D minus the freshly
    summed tail projection, so rounding stays at a single truncated sum
    per level.  For inexact geometries the recursion amplifies float
    error by lam per level, so the cursor tracks a drift bound and
    raises BracketPrecisionError once it could affect classifications.
    """

    def __init__(self, graph: GdifsGraph, path: PathPrefix, terms: int = 60) -> None:
        if len(path.edges) < terms:
            raise ValueError("path too short for the requested tail length")
        self.graph = graph
        self.path = path
        self.terms = terms
        self.level = 0
        self.vids = np.array([path.start], dtype=np.int64)
        self.D = np.zeros((1, graph.dim))
        self._tail_w = graph.lam ** (-np.arange(1, terms + 1, dtype=float))
        self._drift = 0.0

    def _tail(self) -> np.ndarray:
        ids = self.path.edges[self.level : self.level + self.terms]
        return self._tail_w[: len(ids)] @ self.graph.edge_u[ids]

    def deltas(self) -> np.ndarray:
        """Piece offsets relative to the path's point, at the current scale."""
        return self.D - self._tail()

    def descend(self) -> None:
        if self.level + self.terms >= len(self.path.edges):
            raise ValueError("path exhausted; sample a longer one")
        em_u = self.graph.edge_u[self.path.edges[self.level]]
        lam = self.graph.lam
        parts_v, parts_d = [], []
        for v in range(self.graph.n_vertices):
            sel = self.vids == v
            if not sel.any():
                continue
            ids = self.graph.out_edges[v]
            d = lam * self.D[sel][:, None, :] + (self.graph.edge_u[ids] - em_u)[None, :, :]
            parts_d.append(d.reshape(-1, self.graph.dim))
            parts_v.append(np.tile(self.graph.edge_dst[ids], int(sel.sum())))
        self.vids = np.concatenate(parts_v)
        self.D = np.concatenate(parts_d)
        self.level += 1
        # drop pieces that no ball of radius <= 1 around the point can reach
        delta = self.deltas()
        halfs = self.graph.sup_half[self.vids]
        near = np.maximum(np.abs(delta) - halfs, 0.0)
        keep = np.einsum("ij,ij->i", near, near) <= (1.0 + _PRUNE_SLACK) ** 2
        self.vids = self.vids[keep]
        self.D = self.D[keep]
        if len(self.vids) > 200_000:
            raise BracketPrecisionError("zoom cursor piece set exceeded 200000")
        if not self.graph.exact_geometry:
            span = float(np.abs(self.D).max()) if len(self.D) else 1.0
            self._drift = lam * self._drift + 8.0 * np.finfo(float).eps * (span + self.graph.u_max)
            if self._drift > 1e-9:
                raise BracketPrecisionError(
                    "offset recursion drift exceeds 1e-9 for this inexact geometry; "
                    "reduce k or use a substitution with rational tile lengths"
                )


# ---------------------------------------------------------------------------
# average density estimators


@dataclass(frozen=True)
class DensityEstimate:
    method: str
    c_hat: float
    stderr: float
    systematic_bound: float
    alpha: float
    k: int
    replicas: int
    step: float
    depth: int
    side: str
    seed: int
    per_replica: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "alpha": float(self.alpha),
            "c_hat": float(self.c_hat),
            "stderr": float(self.stderr),
            "systematic_bound": float(self.systematic_bound),
            "k": self.k,
            "replicas": self.replicas,
            "step": float(self.step),
            "depth": self.depth,
            "side": self.side,
            "seed": self.seed,
            "per_replica": self.per_replica.tolist(),
        }


def _norm_factor(s: float, alpha: float, side: str) -> float:
    return (2.0 * s) ** alpha if side == "two" else s**alpha


def _default_side(graph: GdifsGraph) -> str:
    return "right" if graph.dim == 1 else "two"


def _default_depth(graph: GdifsGraph) -> int:
    """Refinement depth: 7 in the plane; in 1-d at most 26, with lam^-depth >= 2^-44.

    A 1-d cylinder at depth d is lam^-d wide around an offset of order 1.
    Keeping that width above 2^-44 leaves 9 of float64's 53 bits between
    it and the rounding of the offset, which would otherwise decide the
    cylinders at a ball's edge and close the bracket to zero width.
    """
    if graph.dim != 1:
        return 7
    return min(26, math.floor(44 / math.log2(graph.lam)))


def _axis_keys(c, h):
    """Squared near and far distances from 0 along one axis of the intervals c +- h."""
    near = np.abs(c)
    far = near + h
    near -= h
    np.maximum(near, 0.0, out=near)
    near *= near
    far *= far
    return near, far


def _keys(cols, half, side, axis_keys=_axis_keys):
    """(key_out, key_in) of boxes with per-axis centres `cols` and half-extents `half`.

    A box is outside the ball of threshold T iff T < key_out and inside
    iff key_in <= T; thresholds are squared radii for side "two", whose
    keys add the `axis_keys` terms in axis order.
    """
    if side == "two":
        terms = [axis_keys(c, h) for c, h in zip(cols, half)]
        key_out, key_in = terms[0]
        for near, far in terms[1:]:
            key_out = key_out + near
            key_in = key_in + far
        return key_out, key_in
    key_out = cols[0] - half[0]
    key_in = cols[0] + half[0]
    past = key_in < 0
    key_in[key_out < 0] = np.inf
    key_out[past] = np.inf
    return key_out, key_in


def _count_children(graph, v, t, lo, thresholds, below, above, side, level, counts, kept):
    """Classify the children of the undecided pieces `t` of vertex v at `level`.

    Each parent carries `lo`, the index of the largest threshold in its
    band.  A child whose keys lie in (T[lo - 1], T[lo + 1]] is decided by
    T[lo] alone: inside (bin lo), outside that ball (bin lo + 1), or
    still undecided between the two, with the same `lo`.  Decided
    children are only counted, into counts[w] = (decided, lower, upper),
    the per-bin child counts of vertex w.  Undecided children are built
    into kept[w] as (centres, lo), or, at the last level (`kept` None),
    counted into lower and upper.  A parent with any child outside its
    window is returned in a mask: the caller builds its children and
    searches their thresholds.  Child centres and keys take the float
    steps of `_split` and `_keys`, so every count equals that of the
    built child.
    """
    scale = graph.lam ** (-level)
    T, floor, ceil = thresholds[lo], below[lo], above[lo + 1]
    least_out = np.full(len(lo), np.inf)  # smallest key_out of each parent's children
    most_in = np.full(len(lo), -np.inf)  # largest key_in
    terms = {}  # siblings share axis terms: the carpet's 8 children have 3 shifts per axis

    def axis_keys(col, h):
        a, shift = col
        if (a, shift, h) not in terms:
            terms[a, shift, h] = _axis_keys(t[a] + shift, h)
        return terms[a, shift, h]

    tallies, undecided = [], []
    for w, ids in graph.fan[v]:
        half = scale * graph.sup_half[w]
        n_in = np.zeros(len(lo), dtype=np.min_scalar_type(len(ids)))
        n_out = np.zeros(len(lo), dtype=n_in.dtype)
        for shift in scale * graph.edge_u[ids]:
            if side == "two":
                key_out, key_in = _keys(enumerate(shift), half, side, axis_keys)
            else:
                key_out, key_in = _keys([t[0] + shift[0]], half, side)
            np.minimum(least_out, key_out, out=least_out)
            np.maximum(most_in, key_in, out=most_in)
            inside = key_in <= T
            outside = key_out > T
            n_in += inside
            n_out += outside
            if kept is not None:
                undecided.append((w, shift, ~(inside | outside)))
        tallies.append((w, len(ids), n_in, n_out))
    fits = (least_out > floor) & (most_in <= ceil)
    lo_fit = lo[fits]
    n_bins = len(below)
    for w, fan_size, n_in, n_out in tallies:
        n_in, n_out = n_in[fits], n_out[fits]
        decided, lower, upper = counts[w]
        decided += np.bincount(lo_fit, n_in, n_bins) + np.bincount(lo_fit + 1, n_out, n_bins)
        if kept is None:
            rest = fan_size - n_in - n_out
            lower += np.bincount(lo_fit + 1, rest, n_bins)
            upper += np.bincount(lo_fit, rest, n_bins)
    for w, shift, mask in undecided:
        mask &= fits
        kept[w].append((t[:, mask] + shift[:, None], lo[mask]))
    return ~fits


def _measures_multiradius(graph, mass, vids, taus, radii, side, depth):
    """Measure brackets of the balls around 0 of every radius, in one refinement.

    `radii` must be ascending; side "right" balls are the intervals
    [0, r].  A cylinder is inside the ball of radius r once its far
    distance is <= r and outside once its near distance is > r;
    distances are compared squared for side "two".  A cylinder is split
    only while some radius falls in its band [near, far).  Decided
    cylinders are counted by the index of the smallest radius whose ball
    holds them, and one cumulative sum turns the counts into per-radius
    masses.  Returns (lower, upper) arrays: the mass certified inside
    each ball, and that plus the mass still undecided at `depth`.  With
    one radius this is `ball_measure_bracket`.  With several, each
    radius gets the one-radius bracket to the same depth, unless a
    distance ties a radius to within rounding: a cylinder decided for
    that radius but split for another is classified again through its
    children, which can stay undecided, so the bracket can come out
    wider.

    Below the root level, a vertex's children are mostly counted from
    their parents by `_count_children`, against the one threshold of
    the parent's band: decided children are never built, undecided ones
    are built with that threshold's index, and only the children of
    parents whose band the children leave, or of groups smaller than
    `_COUNT_MIN`, are built by `_split` and searched.  The active-set
    budget counts every child either way.
    """
    n_r = len(radii)
    thresholds = radii * radii if side == "two" else np.asarray(radii, dtype=float)
    below = np.concatenate([[-np.inf], thresholds])  # below[i]: largest threshold under index i
    above = np.concatenate([thresholds, [np.inf]])   # above[i]: smallest threshold from index i
    n_v = graph.n_vertices
    rho = graph.rho_B
    lower_bins = np.zeros(n_r + 1)  # bin n_r: outside every ball
    upper_bins = np.zeros(n_r + 1)
    parents = None  # per vertex (centres, lo): the undecided pieces one level up
    for level in range(depth + 1):
        if parents is None:
            active = len(vids)
        else:
            active = sum(len(lo) * len(graph.out_edges[v]) for v, (_, lo) in enumerate(parents))
        if active == 0:
            break
        if active > _MAX_ACTIVE:
            raise BracketPrecisionError(
                f"bracket query exceeded {_MAX_ACTIVE} active cylinders at depth {level}"
            )
        last = level == depth
        counts = [tuple(np.zeros(n_r + 1) for _ in range(3)) for _ in range(n_v)]
        kept = [[] for _ in range(n_v)]
        if parents is None:
            groups = _group(graph, vids, taus)
        else:
            split = []
            for v, (t, lo) in enumerate(parents):
                if len(lo) >= _COUNT_MIN:
                    fallback = _count_children(graph, v, t, lo, thresholds, below, above,
                                               side, level, counts, None if last else kept)
                    t = np.compress(fallback, t, axis=1)
                split.append(t)
            groups = _split(graph, split, graph.lam ** (-level))
        for w, t in enumerate(groups):
            dec, lower, upper = counts[w]
            if t.shape[1]:
                half = graph.lam ** (-level) * graph.sup_half[w]
                key_out, key_in = _keys(t, half, side)
                # inside for radius i iff thresholds[i] >= key_in; outside iff < key_out
                in_idx = np.searchsorted(thresholds, key_in)
                decided = below[in_idx] < key_out
                dec += np.bincount(in_idx[decided], minlength=n_r + 1)
                rest = ~decided
                if last:
                    out_idx = np.searchsorted(thresholds, key_out[rest])
                    lower += np.bincount(in_idx[rest], minlength=n_r + 1)
                    upper += np.bincount(out_idx, minlength=n_r + 1)
                else:
                    kept[w].append((np.compress(rest, t, axis=1), in_idx[rest] - 1))
            m = mass.h[w] * rho ** (-level)
            lower_bins += m * dec
            upper_bins += m * dec
            if last:
                lower_bins += m * lower
                upper_bins += m * upper
        parents = [_join(graph, k) for k in kept]
    return np.cumsum(lower_bins)[:n_r], np.cumsum(upper_bins)[:n_r]


def _join(graph, parts):
    """One (centres, lo) pair from a list of them."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.empty((graph.dim, 0)), np.empty(0, dtype=np.intp)
    return (np.concatenate([c for c, _ in parts], axis=1),
            np.concatenate([lo for _, lo in parts]))


def _replica(graph, mass, seed, k, J, depth, side, terms):
    """Trapezoid log-average of the renormalized ball mass along one sampled path.

    Each unit of log-scale t in [m, m + 1] brackets its J + 1 grid radii
    lam^(-j/J) around the cursor's point at once; the end points of a unit
    take weight 1/2, so an interior integer t is shared by two units.
    Returns (value, systematic bound): the midpoint average and the
    average bracket half-width.
    """
    sampler = MarkovSampler(graph, mass, seed)
    path = sampler.sample_path(k + terms + 1)
    cursor = ZoomCursor(graph, path, terms=terms)
    lam, alpha = graph.lam, graph.alpha
    radii = lam ** (-np.arange(J, -1, -1, dtype=float) / J)  # ascending 1/lam .. 1
    norms = np.array([_norm_factor(s, alpha, side) for s in radii])
    weights = np.ones(J + 1)
    weights[[0, J]] = 0.5
    total = 0.0
    syst = 0.0
    for m in range(k):
        lower, upper = _measures_multiradius(
            graph, mass, cursor.vids, cursor.deltas(), radii, side, depth
        )
        mids = weights * (0.5 * (lower + upper)) / norms
        halves = weights * (0.5 * (upper - lower)) / norms
        for j in range(J, -1, -1):  # in order of increasing t
            total += mids[j]
            syst += halves[j]
        if m < k - 1:
            cursor.descend()
    return total / (J * k), syst / (J * k)


def _run_density(graph, mass, seed, k, replicas, step, depth, side, terms, threads, name):
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    if threads < 0:
        raise ValueError(f"threads must be nonnegative, got {threads}")
    if side is None:
        side = _default_side(graph)
    if side not in ("two", "right"):
        raise ValueError("side must be 'two' or 'right'")
    if side == "right" and graph.dim != 1:
        raise ValueError("one-sided densities need a one-dimensional graph")
    if depth is None:
        depth = _default_depth(graph)
    J = round(1.0 / step)
    if abs(J * step - 1.0) > 1e-12 or J < 1:
        raise ValueError("step must divide 1 exactly")
    streams = np.random.SeedSequence(seed).spawn(replicas)
    args = [(graph, mass, streams[r], k, J, depth, side, terms) for r in range(replicas)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda a: _replica(*a), args))
    else:
        results = [_replica(*a) for a in args]
    vals = np.array([v for v, _ in results])
    systs = np.array([s for _, s in results])
    c_hat = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return DensityEstimate(
        method=name,
        c_hat=c_hat,
        stderr=stderr,
        systematic_bound=float(systs.mean()),
        alpha=graph.alpha,
        k=k,
        replicas=replicas,
        step=step,
        depth=depth,
        side=side,
        seed=seed,
        per_replica=vals,
    )


def average_density_pointwise(
    graph: GdifsGraph,
    mass: MassVector,
    seed: int,
    k: int = 40,
    replicas: int = 64,
    step: float = 1.0 / 32.0,
    depth: int | None = None,
    side: str | None = None,
    terms: int = 60,
    threads: int = 0,
) -> DensityEstimate:
    """Log-averaged average density c, labelled "pointwise".

    Integrates the renormalized ball mass mu(B(x, lam^-t)) / (2 lam^-t)^alpha
    (one-sided: mu([x, x + lam^-t]) / lam^(-t alpha)) over t in [0, k] by
    the trapezoid rule with spacing `step`, at `replicas` independently
    sampled typical points x.  The ball masses come from the shared
    multiradius kernel, which brackets all grid radii of one unit of t in
    a single cylinder refinement `depth` levels deep; `systematic_bound`
    is the mean bracket half-width.  The same computation as
    `average_density_birkhoff`: the two differ only in the seed a caller
    passes and in the `method` label, so two seeds give two independent
    estimates to cross-check.
    """
    return _run_density(
        graph, mass, seed, k, replicas, step, depth, side, terms, threads, "pointwise"
    )


def average_density_birkhoff(
    graph: GdifsGraph,
    mass: MassVector,
    seed: int,
    k: int = 40,
    replicas: int = 64,
    step: float = 1.0 / 32.0,
    depth: int | None = None,
    side: str | None = None,
    terms: int = 60,
    threads: int = 0,
) -> DensityEstimate:
    """Log-averaged average density c, labelled "birkhoff".

    The same estimator as `average_density_pointwise`, on the same
    multiradius kernel; only the `method` label differs.
    """
    return _run_density(
        graph, mass, seed, k, replicas, step, depth, side, terms, threads, "birkhoff"
    )
