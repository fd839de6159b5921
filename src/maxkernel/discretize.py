"""Galerkin discretization of the phi(max(x, y)) kernel and spectral estimates.

The basis is normalized cell indicators on a grid of [lo, hi].  Because the
kernel is constant in one variable on each side of the diagonal, every matrix
entry reduces to one of two 1-D integrals per cell,

    m_i = int_{cell i} phi,        w_i = int_{cell i} (x - a_i) phi(x) dx,

both exact piece by piece: by Gauss-Legendre about the cell's left node
wherever antiderivative differences would cancel (see _exact_moments).
Off-diagonal entries couple cells only through m: entry (i, j) of the lower
factor is u_i v_j below the diagonal, with u = m / sqrt(h) and v = sqrt(h),
and w_i / h_i on it.  The full matrix is lower + lower^T, order-1
semiseparable plus diagonal, and the triangular (masked) matrix is the lower
factor itself.  A GalerkinMatrix holds these generators, applies itself to a
vector with two cumulative sums, and builds the dense n x n array only when
asked.

spectrum() doubles the grid of _piecewise.aligned_cells, whose nodes hold
every breakpoint, and solves each level by Lanczos for the top K values.  A
step symbol's Galerkin matrix on its breakpoint grid is the operator itself,
which step_exact_spectrum builds in closed form.  triangular_limit
extrapolates the triangular part in the grid size.  Dense solves of real
symbols read one lower triangle filled from the generators (_dense_lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._piecewise import (aligned_cells, derivative_terms, eval_terms,
                         integrate_terms_nodes, mul_terms)
from ._scipy import LinearOperator, eigsh, eigvalsh, svdvals
from .classify import canonical_step, is_nonincreasing, is_nonnegative, \
    l1_norm, tail_functional
from .symbols import Interval, Symbol, is_real_symbol, support, to_pieces

__all__ = [
    "GalerkinMatrix", "SpectrumEstimate", "SchattenReport", "TriangularLimit",
    "galerkin_matrix", "singular_values", "spectrum", "step_exact_spectrum",
    "schatten", "triangular_limit", "richardson", "factor_residual",
    "truncation_point",
]

MAX_DENSE = 4096  # dense solves above this are refused, steps' included


@dataclass(frozen=True)
class GalerkinMatrix:
    """Galerkin matrix held as its generators: the cell integrals m and w
    on the cells between the nodes.

    matvec and rmatvec apply the matrix and its transpose in O(n); entries
    is the dense array, built on first access.
    """
    interval: Interval
    n: int
    nodes: np.ndarray
    m: np.ndarray
    w: np.ndarray
    mask: str  # "full" | "lower"

    @cached_property
    def _uvd(self):
        """u = m / sqrt(h) and v = sqrt(h), the lower factor's off-diagonal
        generators, and its diagonal d = w / h."""
        h = np.diff(self.nodes)
        rh = np.sqrt(h)
        return self.m / rh, rh, self.w / h

    @cached_property
    def _prefix(self) -> np.ndarray:
        """S_j = sum_{k<j} v_k^2, the exclusive prefix sums of v^2."""
        v2 = self._uvd[1] ** 2
        return np.concatenate(([0.0], np.cumsum(v2[:-1])))

    @cached_property
    def entries(self) -> np.ndarray:
        u, v, d = self._uvd
        lower = np.tril(np.outer(u, v), -1)
        np.fill_diagonal(lower, d)
        return lower if self.mask == "lower" else lower + lower.T

    def frobenius_norm(self) -> float:
        """Frobenius norm of entries in O(n): the strictly lower part
        contributes sum_i |u_i|^2 S_i, and the full matrix holds it twice
        with diagonal 2d."""
        u, _, d = self._uvd
        below = float(np.sum(np.abs(u) ** 2 * self._prefix))
        diag = float(np.sum(np.abs(d) ** 2))
        if self.mask == "full":
            below, diag = 2.0 * below, 4.0 * diag
        return math.sqrt(below + diag)

    def _below(self, x):
        """Strictly lower part applied to x: u_i sum_{j<i} v_j x_j."""
        u, v, _ = self._uvd
        vx = v * x
        return u * np.concatenate(([0.0], np.cumsum(vx[:-1])))

    def _above(self, x):
        """Strictly upper part of the lower factor's transpose applied to x:
        v_j sum_{i>j} u_i x_i."""
        u, v, _ = self._uvd
        ux = (u * x)[::-1]
        return v * np.concatenate((np.cumsum(ux[:-1])[::-1], [0.0]))

    def matvec(self, x) -> np.ndarray:
        """entries @ x in O(n)."""
        _, _, d = self._uvd
        if self.mask == "lower":
            return self._below(x) + d * x
        return self._below(x) + self._above(x) + 2.0 * d * x

    def rmatvec(self, x) -> np.ndarray:
        """x @ entries, i.e. entries.T @ x (no conjugation), in O(n)."""
        if self.mask == "full":
            return self.matvec(x)
        return self._above(x) + self._uvd[2] * x


@dataclass(frozen=True)
class SpectrumEstimate:
    """Singular values (descending) plus how they were obtained."""
    svals: np.ndarray
    method: str
    n: int
    interval: Interval
    eigs: Optional[np.ndarray] = None
    refinement_history: tuple = ()
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SchattenReport:
    p: float
    norm: float
    weak_norm: float
    truncation_tail_bound: float


@dataclass(frozen=True)
class TriangularLimit:
    plateau: float
    predicted: float
    window: tuple[int, int]
    levels: tuple[int, ...]
    per_index: np.ndarray  # extrapolated s_n over the window
    fit_slope: float


def _cell_moments(s: Symbol, nodes: np.ndarray, moments):
    """(m_i, w_i) per cell: the sums of moments(terms, pts, base) over the
    pieces of s split at the grid nodes, (pts[k], pts[k+1]) lying in the
    cell whose left node is base[k]."""
    m, w = np.zeros((2, len(nodes) - 1), dtype=complex)
    for a, b, terms in to_pieces(s):
        lo, hi = max(a, nodes[0]), min(b, nodes[-1])
        if hi <= lo:
            continue
        pts = np.concatenate([[lo], nodes[(nodes > lo) & (nodes < hi)], [hi]])
        # by left ends: a midpoint can overflow to inf near the float limit
        idx = np.searchsorted(nodes, pts[:-1], side="right") - 1
        mm, wm = moments(terms, pts, nodes[idx])
        np.add.at(m, idx, mm)
        np.add.at(w, idx, wm)
    return m, w


def _gauss_moments(f, lo: np.ndarray, hi: np.ndarray, base: np.ndarray,
                   q: int):
    """int f and int (x - base_k) f over each [lo_k, hi_k] by q-point
    Gauss-Legendre, x - base_k taken from lo_k - base_k, which is exact
    when base_k is lo_k: no antiderivative far from 0 cancels."""
    gx, gw = np.polynomial.legendre.leggauss(q)
    half = 0.5 * (hi - lo)
    off = half[:, None] * (1.0 + gx)
    vals = f(lo[:, None] + off)
    t = (lo - base)[:, None] + off
    return half * (vals @ gw), half * ((t * vals) @ gw)


def _exact_moments(terms, pts: np.ndarray, base: np.ndarray):
    """Exact moments of one piece: polynomial terms by Gauss-Legendre with
    enough points for x phi, Laurent and oscillating ones too on cells of
    width h <= a/8 (a the distance from 0, if a power is negative) and
    h |freq| <= 1, where differences of antiderivatives would lose about
    eps (a/h)^2 and eps / (h |freq|), and by those differences elsewhere."""
    poly = tuple(t for t in terms if t[1] >= 0 and t[2] == 0.0)
    rest = tuple(t for t in terms if t[1] < 0 or t[2] != 0.0)
    deg = max((p for _, p, _ in poly), default=0)
    lo, hi = pts[:-1], pts[1:]
    m, w = _gauss_moments(lambda x: eval_terms(poly, x), lo, hi, base,
                          (deg + 1) // 2 + 1)
    if rest:
        mm = integrate_terms_nodes(rest, pts)
        wm = integrate_terms_nodes(mul_terms(rest, ((1.0, 1, 0.0),)),
                                   pts) - base * mm
        near = ((hi - lo) * max(abs(t[2]) for t in rest) <= 1.0) & (
            (8.0 * (hi - lo) <= lo) | all(t[1] >= 0 for t in rest))
        mm[near], wm[near] = _gauss_moments(
            lambda x: eval_terms(rest, x), lo[near], hi[near], base[near],
            8 + max(abs(t[1]) for t in rest) // 2)
        m, w = m + mm, w + wm
    return m, w


def _bounded(interval) -> Interval:
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    if not interval.bounded:
        raise ValueError("discretization needs a bounded interval; "
                         "truncate first (see truncation_point)")
    return interval


def galerkin_matrix(s: Symbol, interval=None, n: int = 256,
                    grid: str = "uniform", mask: str = "full") -> GalerkinMatrix:
    """Galerkin matrix of the kernel on normalized cell indicators.

    mask "full" uses the symmetric kernel phi(max(x, y)); "lower" keeps only
    the y <= x half, i.e. the Volterra-type operator phi(x) int_0^x f.
    The full matrix is exactly lower + lower^T, bit for bit.

    grid is "uniform" (n cells on interval, by default [0, end of the
    support]) or an explicit strictly increasing node array, which then
    sets n and interval.
    """
    if mask not in ("full", "lower"):
        raise ValueError(f"unknown mask {mask!r}")
    if isinstance(grid, str):
        if grid != "uniform":
            raise ValueError(f"unknown grid {grid!r}")
        interval = _bounded(Interval(0.0, support(s).hi) if interval is None
                            else interval)
        grid = np.linspace(interval.lo, interval.hi, n + 1)
    nodes = np.asarray(grid, dtype=float)
    if len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
        raise ValueError("explicit nodes must be strictly increasing")
    m, w = _cell_moments(s, nodes, _exact_moments)
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(w))):
        raise ValueError("non-finite cell integral: the symbol overflows "
                         "or is not integrable on the grid")
    if is_real_symbol(s):
        m, w = m.real, w.real
    return GalerkinMatrix(Interval(float(nodes[0]), float(nodes[-1])),
                          len(nodes) - 1, nodes, m, w, mask)


def _uses_lanczos(gm: GalerkinMatrix, k: Optional[int]) -> bool:
    """Whether singular_values(gm, k) runs Lanczos: only k < n - 1, since
    ARPACK cannot return every eigenvalue of an operator."""
    return k is not None and k < gm.n - 1


def _top_eigs(matvec, n: int, k: int, dtype) -> np.ndarray:
    """k eigenvalues of largest modulus of a Hermitian operator by ARPACK
    Lanczos.  The start vector is fixed, so repeated calls agree bit for
    bit (random rather than constant, which can miss an eigenvector)."""
    op = LinearOperator((n, n), matvec=matvec, dtype=dtype)
    v0 = np.random.default_rng(0).standard_normal(n).astype(dtype)
    return eigsh(op, k, which="LM", v0=v0, return_eigenvectors=False)


def _dense_lower(gm: GalerkinMatrix) -> np.ndarray:
    """n x n array whose lower triangle is the real symmetric matrix the
    dense route solves: entries itself for the full mask, the Gram matrix
    L L^T for the lower mask L.  The upper triangle is left unset.

    L L^T is order-1 semiseparable plus diagonal: entry (i, j) for i > j is
    u_i p_j with p = u S + v d, and its diagonal is u^2 S + d^2, so no n^3
    product is formed.
    """
    u, v, d = gm._uvd
    if gm.mask == "full":
        a = np.outer(u, v)
        np.fill_diagonal(a, 2.0 * d)
        return a
    S = gm._prefix
    a = np.outer(u, u * S + v * d)
    np.fill_diagonal(a, u * u * S + d * d)
    return a


def singular_values(gm: GalerkinMatrix, k: Optional[int] = None):
    """Descending singular values; eigenvalues too when the matrix is
    symmetric real (full mask, real symbol).

    With k None, every value by a dense solve, refused above MAX_DENSE.
    With k given, the k largest by Lanczos on the O(n) operator, with no
    size cap: on the matrix itself when it is symmetric real, otherwise on
    its Gram operator A^H A, whose eigenvalues are the squared singular
    values.  Grids with n <= k + 1 go dense.
    """
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    n = gm.n
    if _uses_lanczos(gm, k):
        if gm.mask == "full" and not np.iscomplexobj(gm.m):
            eigs = _top_eigs(gm.matvec, n, k, float)
            order = np.argsort(-np.abs(eigs))
            return np.abs(eigs)[order], eigs[order]
        sq = _top_eigs(lambda x: np.conj(gm.rmatvec(np.conj(gm.matvec(x)))),
                       n, k, gm.m.dtype)
        return np.sqrt(np.maximum(np.sort(sq)[::-1], 0.0)), None
    if n > MAX_DENSE:
        raise ValueError(f"dense solve capped at n = {MAX_DENSE}")
    if np.iscomplexobj(gm.m):
        sv, eigs = svdvals(gm.entries), None
    else:
        lam = eigvalsh(_dense_lower(gm), lower=True, overwrite_a=True)
        if gm.mask == "full":
            order = np.argsort(-np.abs(lam))
            sv, eigs = np.abs(lam)[order], lam[order]
        else:
            sv, eigs = np.sqrt(np.maximum(lam, 0.0))[::-1], None
    if k is None:
        return sv, eigs
    return sv[:k], None if eigs is None else eigs[:k]


def truncation_point(s: Symbol, eps: float = 1e-6) -> float:
    """Right endpoint X with x * int_x^inf |phi|^2 <= eps^2 at x = X."""
    sup = support(s)
    if sup.bounded:
        return sup.hi
    X = max([1.0] + [b if math.isfinite(b) else a
                     for a, b, _ in to_pieces(s)])
    for _ in range(200):
        if tail_functional(s, X) <= eps * eps:
            return X
        X *= 2.0
    raise ValueError("tail functional does not decay; operator is unbounded")


def _graded_nodes(s: Symbol, X: float, n: int) -> np.ndarray:
    """n cells on [0, X] for a truncated tail symbol.

    When the symbol vanishes on (0, a], a single cell there is exact (the
    kernel couples that block through a function constant in x), so all
    remaining cells grade geometrically over [a, X].  Otherwise half the
    cells resolve [0, 1] uniformly and half grade up to X.
    """
    lo_nz = min((a for a, _, terms in to_pieces(s) if terms), default=0.0)
    if lo_nz > 0.0:
        return np.concatenate([[0.0], np.geomspace(lo_nz, X, n)])
    m = n // 2
    return np.concatenate([np.linspace(0.0, 1.0, m + 1),
                           np.geomspace(1.0, X, n - m + 1)[1:]])


def spectrum(s: Symbol, interval=None, n0: int = 256, tol: float = 1e-6,
             K: int = 16, max_doublings: int = 6) -> SpectrumEstimate:
    """Grid-doubling Galerkin spectrum, stopping when the first K singular
    values have settled to tol relative to s_0.

    Level l has the nodes of aligned_cells(pieces, lo, hi, n0, l), so
    every breakpoint is a node, and solves for the top K values only
    (singular_values(gm, K)); method names the route of the last level,
    "galerkin-lanczos" or "galerkin-dense" (grids with n <= K + 1).  Raises
    RuntimeError("no-convergence") when the doubling budget runs out first.

    Unbounded supports are truncated where the tail functional falls below
    (0.1 tol)^2; past a cut at 4 the cells are graded (geometric toward the
    cut) so the truncation does not starve resolution near the origin.
    """
    meta, graded = {}, False
    if interval is None:
        sup = support(s)
        if sup.bounded:
            interval = Interval(0.0, sup.hi)
        else:
            X = truncation_point(s, eps=0.1 * tol)
            interval = Interval(0.0, X)
            meta["truncated_at"] = X
            graded = X > 4.0
    else:
        interval = _bounded(interval)
    history, prev = [], None
    for level in range(max_doublings + 1):
        if graded:
            nodes = _graded_nodes(s, interval.hi, n0 * 2 ** level)
        else:
            cells = aligned_cells(to_pieces(s), interval.lo, interval.hi,
                                  n0, level)
            nodes = np.concatenate([x[:-1] for _, x in cells]
                                   + [[interval.hi]])
        gm = galerkin_matrix(s, grid=nodes)
        svals, eigs = singular_values(gm, K)
        history.append((gm.n, svals))
        if prev is not None:
            k = min(len(prev), len(svals))
            scale = max(float(svals[0]), 1e-300)
            if np.all(np.abs(svals[:k] - prev[:k]) <= tol * scale):
                method = ("galerkin-lanczos" if _uses_lanczos(gm, K)
                          else "galerkin-dense")
                return SpectrumEstimate(
                    svals, method, gm.n, interval, eigs=eigs,
                    refinement_history=tuple(history), meta=meta)
        prev = svals
    raise RuntimeError(
        f"no-convergence: tracked singular values still moving at n = {gm.n}")


def step_exact_spectrum(s: Symbol) -> SpectrumEstimate:
    """Exact singular values of a step symbol, and eigenvalues when real.

    With canonical values v_k on (x_(k-1), x_k] the range lies in the span
    of the indicators of (0, x_k], so the Galerkin matrix on [0, x_1, ...,
    x_N], sqrt(h_k h_l) v_max(k,l), is the operator itself; it is built in
    closed form, apart from galerkin_matrix, and solved densely."""
    st = canonical_step(s)
    if st is None:
        raise ValueError("symbol is not a step function")
    x = np.asarray(st.breakpoints, dtype=float)
    if len(x) > MAX_DENSE:
        raise ValueError(f"step_exact is capped at {MAX_DENSE} breakpoints, "
                         f"this step has {len(x)}: use --method galerkin")
    rh, v = np.sqrt(np.diff(x, prepend=0.0)), np.asarray(st.values)
    # the lower triangle of outer(rh v, rh) is the matrix's
    if is_real_symbol(st):
        lam = eigvalsh(np.outer(rh * v.real, rh), lower=True, overwrite_a=True)
        lam = lam[np.argsort(-np.abs(lam))]
        sv = np.abs(lam)
    else:
        a = np.outer(rh * v, rh)
        sv, lam = svdvals(np.tril(a) + np.tril(a, -1).T), None
    return SpectrumEstimate(sv, "step_exact", len(x),
                            Interval(0.0, float(x[-1])), eigs=lam)


def schatten(est: SpectrumEstimate, p: float) -> SchattenReport:
    """Schatten-p norm, weak-p quasinorm sup s_n (1+n)^(1/p), and a crude
    tail bound read off the refinement history.

    Sums run over the values the estimate holds: the K values spectrum()
    certified, so the norm omits the tail past s_{K-1}."""
    if p <= 0:
        raise ValueError("p must be positive")
    sv = np.asarray(est.svals, dtype=float)
    if math.isinf(p):
        norm = float(sv[0]) if len(sv) else 0.0
        weak = norm
    else:
        norm = float(np.sum(sv ** p) ** (1.0 / p))
        weak = float(np.max(sv * (1.0 + np.arange(len(sv))) ** (1.0 / p))) \
            if len(sv) else 0.0
    hist = est.refinement_history
    if len(hist) >= 2 and not math.isinf(p):
        norms = [float(np.sum(np.asarray(sv_i) ** p) ** (1.0 / p))
                 for _, sv_i in hist]
        d = abs(norms[-1] - norms[-2])
        if len(norms) >= 3 and abs(norms[-2] - norms[-3]) > 0:
            r = d / abs(norms[-2] - norms[-3])
            bound = d * r / (1.0 - r) if r <= 0.9 else d
        else:
            bound = d
    else:
        bound = math.inf
    return SchattenReport(p, norm, weak, bound)


def richardson(s1, s2, s3):
    """Two Richardson rounds over values on three doubled grids whose error
    runs c2 h^2 + c4 h^4 + ...: r12 = (4 s2 - s1) / 3 and r23 = (4 s3 - s2)
    / 3 remove the h^2 term, best = (16 r23 - r12) / 15 the h^4 term too.
    Returns (r12, r23, best)."""
    r12 = (4.0 * s2 - s1) / 3.0
    r23 = (4.0 * s3 - s2) / 3.0
    return r12, r23, (16.0 * r23 - r12) / 15.0


def triangular_limit(s: Symbol, interval=None,
                     levels: tuple[int, ...] = (1024, 2048, 4096),
                     window: tuple[int, int] = (100, 400)) -> TriangularLimit:
    """Limit of n * s_n for the triangular part via Richardson extrapolation.

    The uniform-grid error of each masked singular value is O(h^2) with a
    smooth leading coefficient, so two rounds of Richardson across three
    doubled grids leave O(h^6)-ish residue, flat over the index window.
    The plateau constant comes from a least-squares fit of
    n * s_n = a + b / (n + 1/2), exact for the indicator symbol, and is
    compared with the predicted limit (1/pi) int |phi|.
    """
    if len(levels) != 3 or sorted(levels) != list(levels) \
            or levels[1] != 2 * levels[0] or levels[2] != 2 * levels[1]:
        raise ValueError("levels must be three successive doublings")
    lo_n, hi_n = window
    if hi_n * 2 > levels[0]:
        raise ValueError("window extends past half the coarsest grid")
    tri = []
    for n in levels:
        gm = galerkin_matrix(s, interval, n, mask="lower")
        svals, _ = singular_values(gm)
        tri.append(svals[: hi_n + 1])
    _, _, best = richardson(*tri)
    idx = np.arange(lo_n, hi_n + 1)
    vals = idx * best[lo_n: hi_n + 1]
    # fit n*s_n = a + b/(n + 1/2) over the window
    A = np.stack([np.ones_like(idx, dtype=float), 1.0 / (idx + 0.5)], axis=1)
    (a, b), *_ = np.linalg.lstsq(A, vals, rcond=None)
    predicted = l1_norm(s) / math.pi
    return TriangularLimit(float(a), predicted, window, tuple(levels),
                           best[lo_n: hi_n + 1], float(b))


def _sqrt_slope_moments(terms, pts: np.ndarray, base: np.ndarray):
    """Moments of psi = sqrt(max(-phi', 0)) by 24-point Gauss-Legendre."""
    dt = derivative_terms(terms)
    return _gauss_moments(
        lambda x: np.sqrt(np.maximum(-eval_terms(dt, x).real, 0.0)),
        pts[:-1], pts[1:], base, 24)


def factor_residual(s: Symbol, n: int = 2048, interval=None) -> float:
    """Relative operator-norm defect of the square-root factorization.

    For real nonincreasing nonnegative phi with bounded support the operator
    factors through the triangular part of psi = (-phi')^(1/2), so
    M - V^T V -> 0 under refinement, where M is the full Galerkin matrix of
    phi and V the lower one of psi.  Returns ||M - V^T V||_2 / ||M||_2, both
    norms by Lanczos on the O(n) operators.
    """
    if not is_real_symbol(s):
        raise ValueError("factorization needs a real symbol")
    if not is_nonnegative(s) or not is_nonincreasing(s):
        raise ValueError("factorization needs a nonincreasing nonnegative symbol")
    if not support(s).bounded:
        raise ValueError("bounded support required")
    M = galerkin_matrix(s, interval, n, mask="full")
    m, w = _cell_moments(s, M.nodes, _sqrt_slope_moments)
    V = GalerkinMatrix(M.interval, M.n, M.nodes, m.real, w.real, "lower")
    den = float(singular_values(M, 1)[0][0])
    if den == 0.0:
        return 0.0
    num = abs(float(_top_eigs(lambda x: M.matvec(x) - V.rmatvec(V.matvec(x)),
                              M.n, 1, float)[0]))
    return num / den
