"""Eigenvalues of the max-kernel operator through a Sturm-Liouville shooting
method.

For real nonincreasing phi on (0, b] with phi(b) = 0, the eigenvalue problem
lambda f = phi(x) int_0^x f + int_x^b phi f differentiates into the system

    G' = g,    g' = omega^2 phi'(x) G,    omega = lambda^(-1/2),

with f = g, G(0) = 0 and g(b) = 0.  In Prufer form the angle obeys

    theta' = omega * (cos^2 theta - phi'(x) sin^2 theta),    theta(0) = 0,

and theta(b) is strictly increasing in omega, so the n-th eigenvalue is the
root of theta(b; omega) = (n + 1/2) pi.  The angle and the (G, g) flow serve
three roles:

* eigenvalues: on cells where phi is linear the flow has a closed form, and
  one vectorized sweep over the cells gives theta(b) for all frequencies.
  A piecewise-linear phi is swept on its own segments, exactly
  ("closed-form").  Any other phi is replaced by its piecewise-linear
  interpolant on nested cells aligned to its breakpoints, each level is
  solved exactly, and two Richardson rounds over three levels remove the
  h^2 and h^4 terms of the interpolation error (Pruess, SIAM J. Numer.
  Anal. 10, 1973) ("pruess").  One root finder, the Illinois variant of
  regula falsi (Dowell & Jarratt, BIT 11, 1971), solves for all K
  frequencies at once, each component in its own bracket.
* prufer_theta, the one-frequency probe: the closed-form sweep for
  piecewise-linear phi, DOP853 on the angle ODE otherwise.
* the boundary residual of each eigenvalue and shoot(): the (G, g) flow of
  the true phi, in closed form or by DOP853, breakpoints taken as
  mandatory nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import polygamma

from ._piecewise import (_laurent_roots, _piece_value_range, _real_w0_terms,
                         _right_value, aligned_cells, coef_scale, cut_values,
                         derivative_terms, end_power, eval_pieces, eval_terms,
                         with_gaps)
from .classify import canonical_step
from .discretize import richardson
from .symbols import Symbol, evaluate, is_real_symbol, support, to_pieces

__all__ = [
    "PruferRun", "EigenResult", "prufer_theta", "eigenvalues", "shoot",
    "asymptotic_constant", "sl_residual", "sum_with_tail",
]

_RTOL, _ATOL = 1e-12, 1e-13
# The angle grows like omega * b, so a root of the DOP853 angle is only as
# good as its local error relative to theta_end; the angle ODE gets tighter
# tolerances than the (G, g) flow for that reason.
_RTOL_ANGLE, _ATOL_ANGLE = 1e-13, 1e-14
# Angle residual that ends the root search: at theta = pi/2 it leaves
# omega about 1e-12 relative.  A bracket narrowed to rounding ends it too.
_THETA_TOL = 1e-12
# Interpolant cells over the support at the first level, the largest level,
# and the agreement of successive one-round extrapolants that ends the
# refinement.
_FIRST_CELLS = 256
_MAX_LEVEL = 9
_RICHARDSON_RTOL = 1e-8
# Largest (cells x frequencies) array one sweep holds.
_BLOCK_FLOATS = 1 << 20


@dataclass(frozen=True)
class PruferRun:
    omega: float
    theta_end: float
    method: str  # "closed-form" | "dop853"
    segments: int


@dataclass(frozen=True)
class EigenResult:
    """One eigenvalue.  method names the route that made it: "closed-form"
    (phi piecewise linear, solved exactly) or "pruess" (the interpolants
    extrapolated); error_estimate is the estimated relative error of omega.
    Neither is part of to_json."""
    n: int
    omega: float
    lam: float
    boundary_residual: float
    method: str
    error_estimate: float

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "omega": self.omega,
                           "lambda": self.lam,
                           "residual": self.boundary_residual})


class _Problem:
    """Validated shooting problem: the pieces of phi tiling (0, b], with
    -phi' per piece when every piece is linear."""

    def __init__(self, b, pieces):
        self.b = b
        self.pieces = pieces
        self.segments = [(x0, x1, derivative_terms(terms))
                         for x0, x1, terms in pieces]
        self.slopes: Optional[list[float]] = None  # -phi' per segment
        self.dfuns = [_scalar_slope(dt) for _, _, dt in self.segments]

    @property
    def closed_form(self) -> bool:
        return self.slopes is not None

    def cells(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Widths h and slopes c = -phi' >= 0 of the cells on which phi is
        linear or interpolated linearly.  A piecewise-linear phi has its
        segments as cells at every level.  Otherwise the cells are
        aligned_cells(pieces, 0, b, 256, level); c is the secant slope
        (phi_k - phi_(k+1)) / h_k, and each piece is evaluated from its own
        terms, which at x = 0 gives the right limit."""
        if self.closed_form:
            h = np.array([x1 - x0 for x0, x1, _ in self.pieces])
            return h, np.maximum(np.array(self.slopes), 0.0)
        hs, cs = [], []
        for terms, nodes in aligned_cells(self.pieces, 0.0, self.b,
                                          _FIRST_CELLS, level):
            phi = np.real(eval_terms(terms, nodes))
            h = np.diff(nodes)
            hs.append(h)
            cs.append(np.maximum((phi[:-1] - phi[1:]) / h, 0.0))
        return np.concatenate(hs), np.concatenate(cs)


def _scalar_slope(dt):
    """Fast scalar phi'(x) for one segment; None when phi is flat there."""
    if not dt:
        return None
    w0 = _real_w0_terms(dt)
    if w0 is not None and all(p >= 0 for _, p in w0):
        coef = [0.0] * (max(p for _, p in w0) + 1)
        for c, p in w0:
            coef[p] += c

        def dp(x, coef=tuple(reversed(coef))):
            r = 0.0
            for c in coef:
                r = r * x + c
            return r

        return dp
    return lambda x: float(np.real(eval_terms(dt, np.array([x]))[0]))


def _validate(s: Symbol, need_root_at_b: bool) -> _Problem:
    if not is_real_symbol(s):
        raise ValueError("shooting needs a real symbol")
    sup = support(s)
    if not sup.bounded:
        raise ValueError("shooting needs bounded support")
    b = sup.hi
    pieces = to_pieces(s)
    scale = coef_scale(pieces)
    if scale == 0.0:
        raise ValueError("symbol vanishes identically")
    slack = 1e-9 * max(scale, 1.0)
    # phi(0+) finite, and continuity at every cut inside the support
    if not math.isfinite(_right_value(pieces, 0.0).real):
        raise ValueError("not-smooth-enough: phi blows up at 0")
    for c, left, right in cut_values(pieces):
        if c < b and abs(left.real - right.real) > slack:
            raise ValueError(f"not-smooth-enough: jump at x = {c}")
    if need_root_at_b and abs(float(evaluate(s, b))) > 1e-12 * scale:
        raise ValueError(
            "phi must vanish at the right end of its support; subtract the "
            "terminal value first (symbols.subtract_terminal)")
    prob = _Problem(b, with_gaps(pieces))
    slopes: Optional[list[float]] = []
    for x0, x1, dt in prob.segments:
        if not dt:
            if slopes is not None:
                slopes.append(0.0)
            continue
        mn, mx = _piece_value_range(dt, x0, x1)
        if not (math.isfinite(mn) and math.isfinite(mx)):
            raise ValueError("not-smooth-enough: unbounded slope")
        if mx > slack:
            raise ValueError(
                f"positive-derivative-detected on ({x0}, {x1})")
        w0 = _real_w0_terms(dt)
        if slopes is not None and w0 is not None and \
                all(p == 0 for _, p in w0):
            slopes.append(-sum(c for c, _ in w0))
        else:
            slopes = None
    prob.slopes = slopes
    return prob


# ---------------------------------------------------------------------------
# angle transfer


def _advance_flat(theta: np.ndarray, wdx: np.ndarray) -> np.ndarray:
    """theta' = w cos^2 theta over a segment: tan advances linearly."""
    k = np.floor((theta + 0.5 * math.pi) / math.pi)
    tf = theta - k * math.pi
    c, sn = np.cos(tf), np.sin(tf)
    out = k * math.pi + np.arctan2(sn + wdx * c, c)
    return np.where(np.abs(c) < 1e-300, theta, out)


def _sweep(h: np.ndarray, c: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """theta(b; omega) of the piecewise-linear phi with cell widths h and
    slopes -phi' = c >= 0, exact for that phi.

    In the scaled coordinates (omega G, g) a cell is the 2x2 flow
    [[cos t, S], [-c S, cos t]] with t = omega h sqrt(c) and
    S = sin(t) / sqrt(c) = omega h sinc(t), so flat cells need no special
    case.  On a cell the stretched angle psi = atan2(sqrt(c) omega G, g)
    advances by exactly t, and eps = theta - psi is pi-periodic, so the
    cell lifts theta by t + eps(theta_end) - eps(theta_start), which needs
    only the directions at the cell ends.  (On a flat cell psi = 0 and
    theta never crosses a zero of g, so the same holds.)  Summed over the
    cells, the theta parts of eps telescope: theta(b) = omega int sqrt(c)
    + red(theta(b)) + sum_k [psi_k(start) - psi_k(end)], with red the angle
    reduced to [-pi/2, pi/2].  Frequencies go in blocks of at most
    _BLOCK_FLOATS (cells x frequencies).
    """
    n = len(h)
    size = math.isqrt(n - 1) + 1           # cells per block, about sqrt(n)
    blocks = -(-n // size)
    pad = np.zeros(blocks * size - n)      # identity cells
    hb = np.concatenate([h, pad]).reshape(blocks, size).T
    cb = np.concatenate([c, pad]).reshape(blocks, size).T
    length = float(np.dot(np.sqrt(c), h))
    step = max(1, _BLOCK_FLOATS // (blocks * size))
    out = np.empty(len(omegas))
    for i in range(0, len(omegas), step):
        w = omegas[i:i + step]
        out[i:i + step] = w * length + _psi_sum(hb, cb, w)
    return out


def _reduced_psi(rc, u, g):
    """atan(rc u / g) in [-pi/2, pi/2], at g = 0 too."""
    return np.arctan2(rc * (u * np.copysign(1.0, g)), np.abs(g))


def _psi_sum(hb, cb, w):
    """red(theta(b)) + sum_k [psi_k(start) - psi_k(end)] for cells laid out
    as (position in block, block), frequencies w."""
    size, blocks = hb.shape
    rcb = np.sqrt(cb)
    cos = np.empty((size, blocks, len(w)))
    sin = np.empty_like(cos)
    # transfer [[a, b], [c, d]] of every block: the product over its cells
    a, b = np.ones((blocks, len(w))), np.zeros((blocks, len(w)))
    c, d = b.copy(), a.copy()
    for j in range(size):
        wh = hb[j][:, None] * w
        t = wh * rcb[j][:, None]
        cos[j] = np.cos(t)
        sin[j] = wh * np.sinc(t / math.pi)
        cs = cb[j][:, None] * sin[j]
        a, b, c, d = (cos[j] * a + sin[j] * c, cos[j] * b + sin[j] * d,
                      cos[j] * c - cs * a, cos[j] * d - cs * b)
    # state at every block start, carried across the blocks from (0, 1)
    u0, g0 = np.empty_like(a), np.empty_like(a)
    u, g = np.zeros(len(w)), np.ones(len(w))
    for k in range(blocks):
        u0[k], g0[k] = u, g
        u, g = a[k] * u + b[k] * g, c[k] * u + d[k] * g
        r = np.hypot(u, g)
        u, g = u / r, g / r
    # every block again from its start state, adding up the psi terms
    u, g = u0, g0
    total = np.zeros_like(u0)
    for j in range(size):
        rc = rcb[j][:, None]
        total += _reduced_psi(rc, u, g)
        u, g = (cos[j] * u + sin[j] * g,
                cos[j] * g - (cb[j][:, None] * sin[j]) * u)
        total -= _reduced_psi(rc, u, g)
    return total.sum(axis=0) + _reduced_psi(1.0, u[-1], g[-1])


def _theta_end(prob: _Problem, omegas: np.ndarray) -> np.ndarray:
    if prob.closed_form:
        return _sweep(*prob.cells(0), omegas)
    th = np.zeros_like(omegas)
    for (x0, x1, _), dp in zip(prob.segments, prob.dfuns):
        if dp is None:
            th = _advance_flat(th, omegas * (x1 - x0))
            continue

        def rhs(x, y, dp=dp):
            d = dp(x)
            c2 = np.cos(y) ** 2
            return omegas * (c2 - d * (1.0 - c2))

        sol = solve_ivp(rhs, (x0, x1), th, method="DOP853",
                        rtol=_RTOL_ANGLE, atol=_ATOL_ANGLE)
        if not sol.success:
            raise RuntimeError(f"angle integration failed: {sol.message}")
        th = sol.y[:, -1]
    return th


def prufer_theta(s: Symbol, omega: float) -> PruferRun:
    """Terminal Prufer angle theta(b; omega) with theta(0) = 0."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    prob = _validate(s, need_root_at_b=False)
    th = _theta_end(prob, np.array([float(omega)]))
    method = "closed-form" if prob.closed_form else "dop853"
    return PruferRun(float(omega), float(th[0]), method, len(prob.segments))


# ---------------------------------------------------------------------------
# (G, g) flow, for boundary residuals and callers that want eigenfunctions


def _flow_samples(prob: _Problem, omegas: np.ndarray, xs: np.ndarray):
    """G and g at sample points xs in [0, b], shape (len(xs), len(omegas))."""
    m = len(omegas)
    G = np.zeros((len(xs), m))
    g = np.zeros((len(xs), m))
    G0 = np.zeros(m)
    g0 = np.ones(m)
    if prob.closed_form:
        for (x0, x1, _), c in zip(prob.segments, prob.slopes):
            sel = (xs > x0) & (xs <= x1) if x0 > 0 else (xs >= 0) & (xs <= x1)
            # the segment end rides along as the last row: it seeds the next
            d = np.append(xs[sel], x1)[:, None] - x0
            if c <= 0.0:
                Gs = G0 + g0 * d
                gs = np.broadcast_to(g0, Gs.shape)
            else:
                mu = math.sqrt(c) * omegas
                cs, sn = np.cos(mu * d), np.sin(mu * d)
                Gs = G0 * cs + (g0 / mu) * sn
                gs = -G0 * mu * sn + g0 * cs
            G[sel], g[sel] = Gs[:-1], gs[:-1]
            G0, g0 = Gs[-1], gs[-1]
        return G, g
    y = np.concatenate([G0, g0])
    w2 = omegas ** 2
    for (x0, x1, _), dp in zip(prob.segments, prob.dfuns):

        def rhs(x, y, dp=dp):
            d = dp(x) if dp is not None else 0.0
            return np.concatenate([y[m:], (w2 * d) * y[:m]])

        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853",
                        rtol=_RTOL, atol=_ATOL, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"flow integration failed: {sol.message}")
        sel = (xs > x0) & (xs <= x1) if x0 > 0 else (xs >= 0) & (xs <= x1)
        if sel.any():
            vals = sol.sol(xs[sel])
            G[sel] = vals[:m].T
            g[sel] = vals[m:].T
        y = sol.y[:, -1]
    return G, g


def shoot(s: Symbol, omega: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """Sample the shooting solution (G, g) with G(0) = 0, g(0) = 1 at xs."""
    prob = _validate(s, need_root_at_b=False)
    xs = np.asarray(xs, dtype=float)
    G, g = _flow_samples(prob, np.array([float(omega)]), xs)
    return G[:, 0], g[:, 0]


def _boundary_residuals(s: Symbol, prob: _Problem, omegas: np.ndarray
                        ) -> np.ndarray:
    """max over x in {0, b/2, b} of
    |phi(x) G(x) + int_x^b phi g - lambda g(x)| / (lambda max|g|)."""
    b = prob.b
    cuts = sorted({x0 for x0, _, _ in prob.segments}
                  | {x1 for _, x1, _ in prob.segments} | {0.0, 0.5 * b, b})
    panels = max(64, int(math.ceil(2.0 * float(np.max(omegas)) * b / math.pi)))
    bounds = np.unique(np.concatenate([np.asarray(cuts),
                                       np.linspace(0.0, b, panels + 1)]))
    gx, gw = np.polynomial.legendre.leggauss(12)
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    half = 0.5 * np.diff(bounds)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    n = len(nodes)
    xs = np.concatenate([nodes, [0.0, 0.5 * b, b]])
    G, g = _flow_samples(prob, omegas, xs)
    phi = np.real(np.asarray(evaluate(s, xs), dtype=complex))
    seg_int = ((phi[:n, None] * g[:n]).reshape(len(mid), 12, -1)
               * (half[:, None] * gw[None, :])[..., None]).sum(axis=1)
    # suffix sums give int_{bounds[i]}^b phi g
    suffix = np.vstack([np.cumsum(seg_int[::-1], axis=0)[::-1],
                        np.zeros((1, len(omegas)))])
    idx = np.searchsorted(bounds, xs[n:])
    lam = omegas ** -2.0
    gmax = np.maximum(np.max(np.abs(g[:n]), axis=0), 1e-300)
    resid = np.abs(phi[n:, None] * G[n:] + suffix[idx] - lam[None, :] * g[n:])
    return np.max(resid, axis=0) / (lam * gmax)


# ---------------------------------------------------------------------------
# eigenvalues


def _root_slope_integral(dt, a: float, b: float) -> float:
    """int_a^b |phi'|^(1/2) over one piece with derivative terms dt."""

    def f(x):
        return math.sqrt(abs(float(np.real(eval_terms(dt, np.array([x]))[0]))))

    if math.isinf(b):
        return quad(f, a, np.inf, limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    w0 = _real_w0_terms(dt)
    pts = _laurent_roots(w0, a, b) if w0 else None
    return quad(f, a, b, points=pts, limit=200, epsabs=1e-13,
                epsrel=1e-12)[0]


def _slope_length(prob: _Problem) -> float:
    """int_0^b |phi'|^(1/2), the WKB phase length."""
    if prob.closed_form:
        return sum(math.sqrt(c) * (x1 - x0)
                   for (x0, x1, _), c in zip(prob.segments, prob.slopes)
                   if c > 0.0)
    return sum(_root_slope_integral(dt, x0, x1)
               for x0, x1, dt in prob.segments if dt)


def _roots_secant(theta, targets: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Illinois regula falsi on the angle theta(omegas), one target per
    component, from the brackets [lo, hi] widened until they hold the root.

    When the same bracket end moves twice running, the function value kept
    at the other end is halved; plain regula falsi would otherwise creep
    towards the root from one side only.  Returns the roots and the
    relative error that the last angle residual leaves, read through the
    bracket's secant slope."""
    K = len(targets)
    lo, hi = lo.copy(), hi.copy()
    flo = theta(lo) - targets
    for _ in range(80):
        bad = flo > 0
        if not bad.any():
            break
        lo[bad] = np.maximum(lo - 2.0 * (hi - lo), 0.5 * lo)[bad]
        flo[bad] = theta(lo[bad]) - targets[bad]
    else:
        raise RuntimeError("could not bracket from below")
    fhi = theta(hi) - targets
    for _ in range(80):
        bad = fhi < 0
        if not bad.any():
            break
        hi[bad] = np.minimum(hi + 2.0 * (hi - lo), 2.0 * hi)[bad]
        fhi[bad] = theta(hi[bad]) - targets[bad]
    else:
        raise RuntimeError("could not bracket from above")
    active = np.ones(K, dtype=bool)
    moved = np.zeros(K)  # -1: lo moved last, +1: hi moved last
    root = 0.5 * (lo + hi)
    err = np.zeros(K)
    for _ in range(200):
        mid = hi - fhi * (hi - lo) / (fhi - flo)
        stuck = ~np.isfinite(mid) | (mid <= lo) | (mid >= hi)
        mid[stuck] = 0.5 * (lo + hi)[stuck]
        fmid = np.full(K, np.nan)
        fmid[active] = theta(mid[active]) - targets[active]
        root[active] = mid[active]
        done = active & ((np.abs(fmid) < _THETA_TOL)
                         | (hi - lo <= 4e-16 * mid))
        err[done] = (np.abs(fmid) * (hi - lo) / (fhi - flo) / mid)[done]
        active &= ~done
        if not active.any():
            return root, err
        up = active & (fmid < 0)
        dn = active & (fmid >= 0)
        fhi[up & (moved < 0)] *= 0.5
        flo[dn & (moved > 0)] *= 0.5
        lo[up], flo[up] = mid[up], fmid[up]
        hi[dn], fhi[dn] = mid[dn], fmid[dn]
        moved[up], moved[dn] = -1.0, 1.0
    raise RuntimeError("angle root search did not converge")


def _pruess_roots(prob: _Problem, targets: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots for the interpolants on successively doubled cells,
    extrapolated over the last three levels until the two one-round
    extrapolants agree to _RICHARDSON_RTOL.  Each level's search starts
    from a bracket around the root that the previous levels predict; the
    error estimate is |R23 - R12| / R23."""
    levels: list[np.ndarray] = []
    for level in range(_MAX_LEVEL + 1):
        h, c = prob.cells(level)
        root, _ = _roots_secant(lambda om: _sweep(h, c, om), targets, lo, hi)
        levels.append(root)
        if len(levels) >= 3:
            r12, r23, best = richardson(*levels[-3:])
            err = np.abs(r23 - r12) / r23
            if np.max(err) <= _RICHARDSON_RTOL:
                return best, err
        if len(levels) == 1:
            center, half = root, 1e-4 * root
        else:
            # the interpolation error falls by 4 per level
            shift = (root - levels[-2]) / 4.0
            center, half = root + shift, np.abs(shift) + 1e-12 * root
        lo, hi = center - half, center + half
    raise RuntimeError("shooting extrapolation did not converge")


def eigenvalues(s: Symbol, K: int) -> list[EigenResult]:
    """First K eigenvalues by monotone shooting on the Prufer angle.

    Each omega_n solves theta(b; omega) = (n + 1/2) pi to absolute accuracy
    1e-12 in the angle, for phi itself when it is piecewise linear and
    otherwise for its extrapolated interpolants; lambda_n = omega_n^(-2).
    The reported residual checks the original integral equation at
    x in {0, b/2, b}.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    prob = _validate(s, need_root_at_b=True)
    targets = (np.arange(K) + 0.5) * math.pi
    length = _slope_length(prob)
    if length <= 0.0:
        raise ValueError("phi has no decreasing part; spectrum is degenerate")
    guess = targets / length
    if prob.closed_form:
        method = "closed-form"
        root, err = _roots_secant(lambda om: _theta_end(prob, om), targets,
                                  0.5 * guess, 1.5 * guess)
    else:
        method = "pruess"
        root, err = _pruess_roots(prob, targets, 0.5 * guess, 1.5 * guess)
    resid = _boundary_residuals(s, prob, root)
    return [EigenResult(n, float(root[n]), float(root[n] ** -2.0),
                        float(resid[n]), method, float(err[n]))
            for n in range(K)]


def asymptotic_constant(s: Symbol) -> float:
    """Limit of n^2 lambda_n: pi^(-2) (int |phi'|^(1/2))^2; 0 for steps."""
    if canonical_step(s) is not None or not to_pieces(s):
        return 0.0
    if not is_real_symbol(s):
        raise ValueError("asymptotics need a real symbol")
    total = 0.0
    for a, b, terms in to_pieces(s):
        dt = derivative_terms(terms)
        if not dt:
            continue
        if a == 0.0 and end_power(dt, "lo")[0] <= -2:
            raise ValueError("slope is not square-root integrable at 0")
        if math.isinf(b) and end_power(dt, "hi")[0] >= -2:
            raise ValueError("slope is not square-root integrable at inf")
        total += _root_slope_integral(dt, a, b)
    return (total / math.pi) ** 2


def sl_residual(s: Symbol, lam: float, xs, Gs) -> float:
    """Differencing check of lambda G'' = phi' G on sampled data.

    Uses centered 3-point second differences on a uniform grid, skipping
    points within one cell of a breakpoint of phi.
    """
    xs = np.asarray(xs, dtype=float)
    Gs = np.asarray(Gs, dtype=float)
    if len(xs) < 5 or len(xs) != len(Gs):
        raise ValueError("need at least five matched samples")
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=1e-9, atol=0.0):
        raise ValueError("samples must be uniformly spaced")
    gmax = float(np.max(np.abs(Gs)))
    if gmax == 0.0:
        raise ValueError("degenerate sample: G vanishes identically")
    pieces = to_pieces(s)
    cuts = sorted({c for a, b, _ in pieces for c in (a, b)
                   if math.isfinite(c)})
    d2 = (Gs[2:] - 2.0 * Gs[1:-1] + Gs[:-2]) / (h * h)
    xin = xs[1:-1]
    keep = np.ones(len(xin), dtype=bool)
    for c in cuts:
        keep &= np.abs(xin - c) > 1.5 * h
    if not keep.any():
        raise ValueError("no interior points clear of breakpoints")
    dphi = np.real(eval_pieces(
        [(a, b, derivative_terms(t)) for a, b, t in pieces], xin))
    resid = np.abs(lam * d2 - dphi * Gs[1:-1])[keep]
    scale = max(abs(lam) / (h * h), float(np.max(np.abs(dphi)))) * gmax
    return float(np.max(resid) / scale)


def sum_with_tail(s: Symbol, K: int = 200, fit_block: int = 50,
                  precomputed=None) -> tuple[float, dict]:
    """sum_n lambda_n estimated from K computed eigenvalues plus a fitted
    polygamma tail; converges to the trace int phi for nonincreasing phi.

    The tail fits lambda_n = A u^2 + B u^3 with u = 1/(n + 1/2) on the last
    fit_block indices, then sums both powers in closed form.  precomputed
    accepts an EigenResult list from an earlier eigenvalues() call (at least
    K entries) to avoid re-solving.
    """
    res = list(precomputed)[:K] if precomputed is not None \
        else eigenvalues(s, K)
    if len(res) < K:
        raise ValueError(f"need {K} precomputed eigenvalues, got {len(res)}")
    lam = np.array([r.lam for r in res])
    n = np.arange(K)
    u = 1.0 / (n + 0.5)
    blk = slice(K - fit_block, K)
    A_mat = np.stack([u[blk] ** 2, u[blk] ** 3], axis=1)
    (A, B), *_ = np.linalg.lstsq(A_mat, lam[blk], rcond=None)
    tail = A * float(polygamma(1, K + 0.5)) \
        - 0.5 * B * float(polygamma(2, K + 0.5))
    return float(lam.sum() + tail), {
        "partial_sum": float(lam.sum()), "tail": float(tail),
        "A": float(A), "B": float(B),
        "max_boundary_residual": max(r.boundary_residual for r in res)}
