"""Spectral analysis of substitution matrices.

Block-triangular normal form over communication classes read off one
boolean reachability matrix, primitivity via the Wielandt bound, Perron
data via shifted power iteration, and the admissibility checks that gate
the geometric pipeline (reduced form (A C; 0 B), rho(A) > rho(B) > 1,
boundary and interior conditions on the B tiles in either dimension).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .substitution import (LENGTH_CAP, ConfigError, Substitution, _json_doc,
                           expand_grid, substitution_matrix, supertile_lengths)
from .substitution import apply as sub_apply

__all__ = [
    "BlockStructure",
    "PerronData",
    "AdmissibilityReport",
    "MatrixConfig",
    "normal_form",
    "is_primitive",
    "perron_vectors",
    "snap_rational_eigenpair",
    "alpha_exponent",
    "admissibility_report",
    "require_admissible",
    "matrix_report",
    "load_matrix_config",
]

_RTOL = 1e-9
_PERRON_TOL = 1e-12  # power iteration stops when quotient and vector settle to this
# shifted power steps before the eig fallback: shipped and random admissible
# rules settle in about a hundred; a 50-cycle class needs 9,858
_PERRON_STEPS = 10_000


# ---- communication classes ----

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


def normal_form(M: np.ndarray) -> BlockStructure:
    """Order communication classes so M becomes block upper triangular.

    reach[b, a] says that a occurs in some sigma^k(b), k >= 0: the
    closure of (M.T > 0) | I by Warshall's algorithm on bit-packed rows.
    A class is reach & reach.T.  Each step places the smallest remaining
    letter whose reached letters outside its class are all placed
    (pending counts the unplaced ones), together with its class, so
    minimal classes come first and the candidate B part last.
    """
    M = np.asarray(M)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    bits = np.packbits((M.T > 0) | np.eye(n, dtype=bool), axis=1)
    for k in range(n):
        bits[bits[:, k >> 3] & (0x80 >> (k & 7)) > 0] |= bits[k]
    reach = np.unpackbits(bits, axis=1, count=n).view(bool)
    same = reach & reach.T
    outside = reach & ~same
    pending = outside.sum(axis=1)
    placed = np.zeros(n, dtype=bool)
    blocks: list[list[int]] = []
    kinds, radii, minimal = [], [], []
    block_of = np.empty(n, dtype=np.int64)
    while not placed.all():
        v = int(np.argmax(~placed & (pending == 0)))
        b = np.flatnonzero(same[v])
        placed[b] = True
        pending -= outside[:, b].sum(axis=1)
        block_of[b] = len(blocks)
        blocks.append(b.tolist())
        D = M[np.ix_(b, b)]
        if not D.any():
            kinds.append("zero")
            radii.append(0.0)
        else:
            kinds.append("primitive" if is_primitive(D) else "imprimitive")
            radii.append(float(perron_vectors(D, side="right").rho))
        minimal.append(not outside[v].any())
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
    return bool(np.linalg.matrix_power(M > 0, n * n - 2 * n + 2).all())


# ---- power iteration ----

def _polish_pair(A: np.ndarray, rho: float,
                 v: np.ndarray) -> tuple[float, np.ndarray, float]:
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
    for _ in range(4):
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
    return tuple(xi_fr), lam_fr


@dataclass
class PerronData:
    rho: float
    vec: np.ndarray
    side: str
    normalization: str
    residual: float
    iterations: int


def perron_vectors(M: np.ndarray, side: str = "left",
                   normalization: str = "sum") -> PerronData:
    """Dominant eigenvector by shifted power iteration.

    Works on primitive blocks and on reducible matrices whose dominant
    eigenvalue carries a strictly positive eigenvector on the requested
    side; raises ValueError otherwise.  normalization: "sum" (entries
    sum to 1) or "min" (smallest entry 1).

    The shift by I contracts the other eigen-directions of an
    irreducible block of period p only by about cos(2 pi / p) per step,
    so beyond a period of about 50 the iteration exhausts its
    ``_PERRON_STEPS`` steps.  It then falls back to ``np.linalg.eig``:
    the eigenvalue of largest real part (the Perron root of a
    nonnegative matrix) and its real eigenvector, polished like the
    iterate.
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
    for it in range(1, _PERRON_STEPS + 1):
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
        if (it > 1 and abs(cur - prev) <= _PERRON_TOL * max(1.0, abs(cur))
                and dv <= _PERRON_TOL):
            rho = cur - 1.0
            break
        prev = cur
    else:
        vals, vecs = np.linalg.eig(A)
        k = int(np.argmax(vals.real))
        rho = float(vals[k].real)
        v = vecs[:, k].real
        v = v / v[np.argmax(np.abs(v))]
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


def _shape_checks(M: np.ndarray, ns: BlockStructure) -> tuple[
        bool, bool, Optional[float], Optional[float], list[int], list[int], list[str]]:
    """Reduced-form shape and spectral-order diagnostics shared by both inputs."""
    failures: list[str] = []
    nb = len(ns.blocks)
    if nb < 2:
        failures.append("no block decomposition: a single communication class "
                        "leaves no A part")
        return False, False, None, None, [], [], failures
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


# per dimension: the boundary failure and the interior failure
_LETTER_FAILURES = {
    1: ("image of {!r} does not start and end with B letters",
        "no interior B letter in any sigma^k({!r}) for k <= {}"),
    2: ("grid border of {!r} contains A letters",
        "no interior B cell in any power of the grid of {!r} for k <= {}"),
}


def admissibility_report(sub: Substitution, tec2_max_k: int = 12) -> AdmissibilityReport:
    """Full admissibility: reduced 2x2 form, spectral order and the
    boundary/interior letter conditions on the B tiles.

    A B tile is the image word of a B letter (dim 1) or its rule grid
    (dim 2).  Boundary: its frame, the two end letters or the grid
    border, holds only B letters.  Interior: off that frame, some power
    of the tile up to tec2_max_k holds a B letter; the search stops
    early, and fails, before a power would pass LENGTH_CAP letters or
    cells.
    """
    M = substitution_matrix(sub)
    ns = normal_form(M)
    shape_ok, rho_order_ok, rho_A, rho_B, a_letters, b_letters, failures = \
        _shape_checks(M, ns)
    tec1_ok: Optional[bool] = None
    tec2_ok: Optional[bool] = None
    witness: Optional[int] = None
    if shape_ok and rho_order_ok:
        in_b = np.isin(np.arange(sub.n_letters), b_letters)
        inner = (slice(1, -1),) * sub.dim
        tiles, step = (sub.images, sub_apply) if sub.dim == 1 else (sub.grids, expand_grid)
        border_msg, interior_msg = _LETTER_FAILURES[sub.dim]
        tec1_ok = True
        for b in b_letters:
            framed = in_b[tiles[b]]
            framed[inner] = True
            if not framed.all():
                tec1_ok = False
                failures.append(border_msg.format(sub.letters[b]))
        tec2_ok = True
        witness = 0
        sizes = supertile_lengths(sub, max(tec2_max_k, 0))
        for b in b_letters:
            t, k = tiles[b], 1
            found = tec2_max_k >= 1 and in_b[t[inner]].any()
            while not found and k < tec2_max_k and sizes[k + 1][b] <= LENGTH_CAP:
                t, k = step(sub, t), k + 1
                found = in_b[t[inner]].any()
            if found:
                witness = max(witness, k)
            else:
                tec2_ok = False
                capped = f"; power {k + 1} would exceed the cap {LENGTH_CAP}"
                failures.append(interior_msg.format(sub.letters[b], min(k, tec2_max_k))
                                + (capped if k < tec2_max_k else ""))
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
        return _matrix_config(f.read(), path)


def _matrix_config(text: str, path: str) -> MatrixConfig:
    doc = _json_doc(text, path)
    if not isinstance(doc, dict) or "matrix" not in doc or "lambda" not in doc:
        raise ConfigError(f"{path}: matrix config needs keys 'matrix' and 'lambda'")
    rows, lam, dim = doc["matrix"], doc["lambda"], doc.get("dim", 1)
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
        raise ConfigError(f"{path}: matrix must be a non-empty square list of rows")
    # bool is an int subclass; entries must also fit int64
    if not all(type(x) is int and 0 <= x < 2**63 for r in rows for x in r):
        raise ConfigError(f"{path}: matrix entries must be nonnegative integers")
    # an int compares with inf exactly, so the bound is the largest float
    if type(lam) not in (int, float) or not 1.0 < lam <= sys.float_info.max:
        raise ConfigError(f"{path}: lambda must be a finite number > 1, got {lam!r}")
    if type(dim) is not int or dim not in (1, 2):
        raise ConfigError(f"{path}: dim must be 1 or 2, got {dim!r}")
    return MatrixConfig(np.array(rows, dtype=np.int64), float(lam), dim, source=path)


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
