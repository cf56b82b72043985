"""Spectral analysis of substitution matrices.

Block-triangular normal form over strongly connected components,
primitivity via the Wielandt bound, Perron data via shifted power
iteration, and the admissibility checks that gate the geometric
pipeline (reduced form (A C; 0 B), rho(A) > rho(B) > 1, boundary
conditions on the B letters).
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .substitution import Substitution, expand_grid, substitution_matrix
from .substitution import apply as sub_apply

__all__ = [
    "BlockStructure",
    "PerronData",
    "AdmissibilityReport",
    "MatrixConfig",
    "normal_form",
    "is_primitive",
    "spectral_radius",
    "perron_vectors",
    "alpha_exponent",
    "admissibility_report",
    "require_admissible",
    "matrix_report",
    "length_asymptotics_check",
    "load_matrix_config",
]

_RTOL = 1e-9


# ---- strongly connected components ----

def _tarjan_sccs(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components returned with vertices sorted."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
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


@dataclass
class BlockStructure:
    """Triangular order of communication classes.

    blocks[i] lists letter ids; the permuted matrix is block upper
    triangular, minimal classes (no image letters outside themselves)
    first and the candidate B part last.
    """
    blocks: list[list[int]]
    kinds: list[str]                  # "zero" | "primitive" | "imprimitive"
    radii: list[float]
    minimal: list[bool]
    block_of: np.ndarray

    @property
    def permutation(self) -> np.ndarray:
        return np.concatenate([np.array(b, dtype=np.int64) for b in self.blocks])

    def permuted(self, M: np.ndarray) -> np.ndarray:
        p = self.permutation
        return M[np.ix_(p, p)]

    def diagonal_block(self, M: np.ndarray, i: int) -> np.ndarray:
        b = np.array(self.blocks[i], dtype=np.int64)
        return M[np.ix_(b, b)]


def normal_form(M: np.ndarray, tol: float = 1e-12) -> BlockStructure:
    """Order communication classes so M becomes block upper triangular.

    Edge b -> a whenever M[a, b] > 0 (a occurs in the image of b); the
    order puts edge targets before sources, ties broken by the smallest
    letter id in the class, so minimal classes come first and the
    candidate B part last.
    """
    M = np.asarray(M)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    adj = [list(np.nonzero(M[:, b])[0]) for b in range(n)]
    comps = _tarjan_sccs(adj)
    cid = np.empty(n, dtype=np.int64)
    for i, comp in enumerate(comps):
        for v in comp:
            cid[v] = i
    # condensation out-edges: class of b -> class of a
    out: list[set[int]] = [set() for _ in comps]
    for b in range(n):
        for a in adj[b]:
            if cid[a] != cid[b]:
                out[cid[b]].add(int(cid[a]))
    preds: list[set[int]] = [set() for _ in comps]
    for c, targets in enumerate(out):
        for t in targets:
            preds[t].add(c)
    outdeg = [len(s) for s in out]
    heap = [(comps[c][0], c) for c in range(len(comps)) if outdeg[c] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        for p in preds[c]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                heapq.heappush(heap, (comps[p][0], p))
    blocks = [comps[c] for c in order]
    kinds, radii, minimal = [], [], []
    for rank, c in enumerate(order):
        b = np.array(comps[c], dtype=np.int64)
        D = M[np.ix_(b, b)]
        if not D.any():
            kinds.append("zero")
            radii.append(0.0)
        else:
            kinds.append("primitive" if is_primitive(D) else "imprimitive")
            radii.append(_power_radius(D, tol))
        minimal.append(len(out[c]) == 0)
    block_of = np.empty(n, dtype=np.int64)
    for i, blk in enumerate(blocks):
        for v in blk:
            block_of[v] = i
    return BlockStructure(blocks, kinds, radii, minimal, block_of)


# ---- primitivity ----

def is_primitive(M: np.ndarray) -> bool:
    """Some power of M is strictly positive (Wielandt bound n^2 - 2n + 2)."""
    M = np.asarray(M)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return False
    k = n * n - 2 * n + 2
    base = M > 0
    acc = np.eye(n, dtype=bool)
    while k:
        if k & 1:
            acc = (acc @ base) > 0
        base = (base @ base) > 0
        k >>= 1
    return bool(acc.all())


# ---- power iteration ----

def _polish_pair(A: np.ndarray, rho: float, v: np.ndarray,
                 iters: int = 4) -> tuple[float, np.ndarray, float]:
    """Bordered Newton refinement of an approximate eigenpair.

    Quadratically convergent near a simple eigenvalue; keeps the best
    residual seen, so a degenerate or ill-conditioned pair falls back to
    the input untouched.
    """
    n = A.shape[0]
    i = int(np.argmax(np.abs(v)))
    x = v / v[i]

    def _res(r: float, y: np.ndarray) -> float:
        return float(np.abs(A @ y - r * y).max() / np.abs(y).max())

    best = (rho, x.copy(), _res(rho, x))
    for _ in range(iters):
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = A - rho * np.eye(n)
        J[:n, n] = -x
        J[n, i] = 1.0
        rhs = np.zeros(n + 1)
        rhs[:n] = rho * x - A @ x
        try:
            sol = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(sol).all():
            break
        x = x + sol[:n]
        rho = float(rho + sol[n])
        r = _res(rho, x)
        if r < best[2]:
            best = (rho, x.copy(), r)
        if r <= 1e-15:
            break
    return best


def _power_radius(B: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000) -> float:
    """Spectral radius of an irreducible nonnegative block via (I + B) iteration."""
    B = np.asarray(B, dtype=np.float64)
    n = B.shape[0]
    if n == 1:
        return float(B[0, 0])
    if not B.any():
        return 0.0
    P = B + np.eye(n)
    v = np.ones(n)
    prev = 0.0
    for it in range(max_iter):
        w = P @ v
        cur = w.sum() / v.sum()
        v = w / w.sum()
        if it and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return _polish_pair(B, cur - 1.0, v)[0]
        prev = cur
    raise RuntimeError(
        f"power iteration did not converge in {max_iter} steps; "
        f"last estimates {prev - 1.0!r}, {cur - 1.0!r}")


def snap_rational_eigenpair(M: np.ndarray, xi: np.ndarray, lam: float):
    """Exact rational (xi, lambda) verifying xi^T M = lambda xi^T, or None.

    Snaps the floating eigendata to nearby small rationals and keeps the
    snap only when the eigenvector identity holds exactly over Q.
    """
    lam_fr = Fraction(float(lam)).limit_denominator(10**6)
    if abs(float(lam_fr) - lam) > 1e-9 * max(1.0, lam):
        return None
    xi_fr = [Fraction(float(x)).limit_denominator(10**6) for x in xi]
    if any(abs(float(f) - float(x)) > 1e-9 * max(1.0, float(x)) for f, x in zip(xi_fr, xi)):
        return None
    n = len(xi_fr)
    for j in range(n):
        if sum(xi_fr[i] * int(M[i, j]) for i in range(n)) != lam_fr * xi_fr[j]:
            return None
    return xi_fr, lam_fr


def spectral_radius(M: np.ndarray, tol: float = 1e-12) -> float:
    """max over diagonal blocks of the per-block Perron radius."""
    ns = normal_form(np.asarray(M), tol)
    return max(ns.radii) if ns.radii else 0.0


@dataclass
class PerronData:
    rho: float
    vec: np.ndarray
    side: str
    normalization: str
    residual: float
    iterations: int


def perron_vectors(M: np.ndarray, side: str = "left", normalization: str = "sum",
                   tol: float = 1e-12, max_iter: int = 100_000) -> PerronData:
    """Dominant eigenvector by shifted power iteration.

    Works on primitive blocks and on reducible matrices whose dominant
    eigenvalue carries a strictly positive eigenvector on the requested
    side; raises otherwise.  normalization: "sum" (entries sum to 1),
    "min" (smallest entry 1) or "first" (first entry 1).
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    A = M.T if side == "left" else M
    P = A + np.eye(n)
    v = np.ones(n) / n
    prev = 0.0
    cur = 0.0
    for it in range(1, max_iter + 1):
        w = P @ v
        s = w.sum()
        if s <= 0:
            raise ValueError("matrix has a zero column on the requested side")
        cur = s / v.sum()
        w = w / s
        # the Rayleigh quotient can stall while the vector is still moving
        # (equal column sums make it constant), so both must settle
        dv = float(np.abs(w - v).max())
        v = w
        if it > 1 and abs(cur - prev) <= tol * max(1.0, abs(cur)) and dv <= tol:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"power iteration did not converge in {max_iter} steps; "
            f"last estimates {prev - 1.0!r}, {cur - 1.0!r}")
    rho = cur - 1.0
    rho_p, v_p, _ = _polish_pair(A, rho, v)
    if (v_p > 0).all():
        rho, v = rho_p, v_p
    # entries that converged to zero only look positive through float dust
    if not (v > 1e-9 * v.max()).all():
        raise ValueError("no strictly positive eigenvector on the requested side")
    if normalization == "sum":
        v = v / v.sum()
    elif normalization == "min":
        v = v / v.min()
    elif normalization == "first":
        v = v / v[0]
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    residual = float(np.abs(A @ v - rho * v).max() / np.abs(v).max())
    return PerronData(rho, v, side, normalization, residual, it)


# ---- admissibility ----

@dataclass
class AdmissibilityReport:
    dim: int
    shape_ok: bool
    rho_order_ok: bool
    tec1_ok: Optional[bool]
    tec2_ok: Optional[bool]
    tec2_witness_k: Optional[int]
    rho_A: Optional[float]
    rho_B: Optional[float]
    lam: Optional[float]
    alpha: Optional[float]
    a_letters: list[int] = field(default_factory=list)
    b_letters: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def admissible(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "shape_ok": self.shape_ok,
            "rho_order_ok": self.rho_order_ok,
            "rho_A": self.rho_A,
            "rho_B": self.rho_B,
            "lambda": self.lam,
            "alpha": self.alpha,
            "tec1": self.tec1_ok,
            "tec2": {"ok": self.tec2_ok, "witness_k": self.tec2_witness_k},
            "a_letters": self.a_letters,
            "b_letters": self.b_letters,
            "failures": list(self.failures),
        }


def _shape_checks(M: np.ndarray, ns: BlockStructure) -> tuple[bool, bool, float, float,
                                                              list[int], list[int], list[str]]:
    """Reduced-form shape and spectral-order diagnostics shared by both inputs."""
    failures: list[str] = []
    nb = len(ns.blocks)
    if nb < 2:
        failures.append("no block decomposition: a single communication class "
                        "leaves no A part")
        return False, False, float("nan"), float("nan"), [], [], failures
    b_letters = [int(v) for v in ns.blocks[-1]]
    a_letters = [int(v) for blk in ns.blocks[:-1] for v in blk]
    shape_ok = True
    if ns.kinds[-1] != "primitive":
        shape_ok = False
        failures.append(f"final block {b_letters} is {ns.kinds[-1]}, not primitive")
    C_nonzero = any(M[a, b] > 0 for b in b_letters for a in a_letters)
    if not C_nonzero:
        shape_ok = False
        failures.append("coupling block C is zero: B letters never produce A letters")
    rho_B = ns.radii[-1]
    rho_all = max(ns.radii)
    minimal_radii = [r for r, m in zip(ns.radii, ns.minimal) if m]
    rho_order_ok = True
    if any(abs(r - rho_all) > _RTOL * max(1.0, rho_all) for r in minimal_radii):
        rho_order_ok = False
        failures.append(
            "A part not single-radius: minimal classes have radii "
            f"{sorted(set(round(r, 9) for r in minimal_radii), reverse=True)}; "
            "no strictly positive left eigenvector")
    others = [ns.radii[i] for i in range(nb) if not ns.minimal[i] and i != nb - 1]
    if any(r >= rho_all - _RTOL * max(1.0, rho_all) for r in others):
        rho_order_ok = False
        failures.append("a non-minimal class matches the maximal radius; "
                        "no strictly positive left eigenvector")
    rho_A = rho_all
    if rho_B >= rho_A - _RTOL * max(1.0, rho_A):
        rho_order_ok = False
        failures.append(f"rho(A) = {rho_A:.9g} does not exceed rho(B) = {rho_B:.9g}")
    if rho_B <= 1.0 + _RTOL:
        rho_order_ok = False
        failures.append(f"rho(B) = {rho_B:.9g} is not > 1")
    return shape_ok, rho_order_ok, rho_A, rho_B, a_letters, b_letters, failures


def admissibility_report(sub: Substitution, tec2_max_k: int = 12) -> AdmissibilityReport:
    """Full admissibility: reduced 2x2 form, spectral order and, in dim 1,
    the boundary/interior letter conditions (grid border condition in dim 2)."""
    M = substitution_matrix(sub)
    ns = normal_form(M)
    shape_ok, rho_order_ok, rho_A, rho_B, a_letters, b_letters, failures = \
        _shape_checks(M, ns)
    tec1_ok: Optional[bool] = None
    tec2_ok: Optional[bool] = None
    witness: Optional[int] = None
    if shape_ok and rho_order_ok:
        b_set = set(b_letters)
        if sub.dim == 1:
            tec1_ok = True
            for b in b_letters:
                img = sub.images[b]
                if int(img[0]) not in b_set or int(img[-1]) not in b_set:
                    tec1_ok = False
                    failures.append(
                        f"image of {sub.letters[b]!r} does not start and end "
                        "with B letters")
            tec2_ok = True
            witness = 0
            for b in b_letters:
                w = sub.images[b]
                k_b = None
                for k in range(1, tec2_max_k + 1):
                    interior = w[1:-1]
                    if len(interior) and np.isin(interior, list(b_set)).any():
                        k_b = k
                        break
                    w = sub_apply(sub, w)
                if k_b is None:
                    tec2_ok = False
                    failures.append(
                        f"no interior B letter in any sigma^k({sub.letters[b]!r}) "
                        f"for k <= {tec2_max_k}")
                else:
                    witness = max(witness, k_b)
            if not tec2_ok:
                witness = None
        else:
            # dim 2: border condition plays the boundary role, an interior
            # B cell in some power plays the interior role
            tec1_ok = True
            for b in b_letters:
                g = sub.grids[b]
                border = np.concatenate([g[0], g[-1], g[1:-1, 0], g[1:-1, -1]])
                if not np.isin(border, list(b_set)).all():
                    tec1_ok = False
                    failures.append(
                        f"grid border of {sub.letters[b]!r} contains A letters")
            tec2_ok = True
            witness = 0
            for b in b_letters:
                g = sub.grids[b]
                k_b = None
                for k in range(1, tec2_max_k + 1):
                    inner = g[1:-1, 1:-1]
                    if inner.size and np.isin(inner, list(b_set)).any():
                        k_b = k
                        break
                    g = expand_grid(sub, g)
                if k_b is None:
                    tec2_ok = False
                    failures.append(
                        f"no interior B cell in any power of the grid of "
                        f"{sub.letters[b]!r} for k <= {tec2_max_k}")
                else:
                    witness = max(witness, k_b)
            if not tec2_ok:
                witness = None
    lam = None
    alpha = None
    if not failures:
        lam = float(sub.q) if sub.dim == 2 else rho_A
        alpha = math.log(rho_B) / math.log(lam)
    return AdmissibilityReport(sub.dim, shape_ok, rho_order_ok, tec1_ok, tec2_ok,
                               witness, rho_A, rho_B, lam, alpha,
                               a_letters, b_letters, failures)


def require_admissible(sub: Substitution) -> AdmissibilityReport:
    """The admissibility report of `sub`; ValueError naming its failures if any."""
    rep = admissibility_report(sub)
    if not rep.admissible:
        raise ValueError("substitution is not admissible: " + "; ".join(rep.failures))
    return rep


def alpha_exponent(sub: Substitution) -> float:
    """alpha = log rho(B) / log lambda for an admissible substitution."""
    return require_admissible(sub).alpha


# ---- matrix-only fixtures ----

@dataclass
class MatrixConfig:
    matrix: np.ndarray
    lam: float
    dim: int
    source: str = ""


def load_matrix_config(path: str) -> MatrixConfig:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: JSON syntax error at line {e.lineno} "
                             f"column {e.colno}: {e.msg}") from None
    if "matrix" not in doc or "lambda" not in doc:
        raise ValueError(f"{path}: matrix config needs keys 'matrix' and 'lambda'")
    M = np.array(doc["matrix"], dtype=np.int64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{path}: matrix must be square")
    if (M < 0).any():
        raise ValueError(f"{path}: matrix entries must be nonnegative")
    lam = float(doc["lambda"])
    if lam <= 1.0:
        raise ValueError(f"{path}: lambda must exceed 1")
    return MatrixConfig(M, lam, int(doc.get("dim", 1)), source=path)


def matrix_report(cfg: MatrixConfig) -> AdmissibilityReport:
    """Shape and spectral-order checks for a bare matrix with external lambda.

    Letter-level conditions cannot be checked without rules and are
    reported as None.
    """
    ns = normal_form(cfg.matrix)
    shape_ok, rho_order_ok, rho_A, rho_B, a_letters, b_letters, failures = \
        _shape_checks(cfg.matrix, ns)
    alpha = None
    if shape_ok and rho_order_ok:
        alpha = math.log(rho_B) / math.log(cfg.lam)
    return AdmissibilityReport(cfg.dim, shape_ok, rho_order_ok, None, None, None,
                               rho_A, rho_B, cfg.lam, alpha,
                               a_letters, b_letters, failures)


# ---- length asymptotics ----

@dataclass
class LengthAsymptotics:
    k_values: np.ndarray
    ratios: np.ndarray            # shape (n_letters, len(k_values))
    xi: np.ndarray
    rho_A: float

    @property
    def final_deviation(self) -> float:
        return float(np.abs(self.ratios[:, -1] - 1.0).max())


def length_asymptotics_check(sub: Substitution, k_max: int = 12) -> LengthAsymptotics:
    """Table of |sigma^k(i)| / (xi_i rho(A)^k) for k = 0..k_max (exact lengths)."""
    if sub.dim != 1:
        raise ValueError("length asymptotics are 1-d")
    M = substitution_matrix(sub)
    pd = perron_vectors(M, side="left", normalization="min")
    n = sub.n_letters
    Mint = [[int(M[i, j]) for j in range(n)] for i in range(n)]
    counts = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # counts[j] = ell(sigma^0(j))
    ratios = np.empty((n, k_max + 1))
    for k in range(k_max + 1):
        for j in range(n):
            ratios[j, k] = float(sum(counts[j])) / (pd.vec[j] * pd.rho ** k)
        counts = [[sum(Mint[i][t] * counts[j][t] for t in range(n)) for i in range(n)]
                  for j in range(n)]
    return LengthAsymptotics(np.arange(k_max + 1), ratios, pd.vec.copy(), pd.rho)
