"""Symbol descriptions for kernels of the form phi(max(x, y)).

A symbol is an immutable, closed-form description of phi on (0, inf) in
one of four shapes: step function, piecewise (Laurent) polynomial,
trigonometric polynomial on a period, or a sampled grid interpreted as
piecewise-constant or piecewise-linear.  Everything downstream (profiles,
Galerkin sections, shooting, matrix representations) consumes symbols
through the exact piece lowering in this module, never through ad-hoc
callables, so cell integrals stay exact.

Conventions:
  * Step pieces are left-open right-closed: (0, x1], (x1, x2], ..., zero
    beyond the last breakpoint.
  * Jumps at a breakpoint count |c_i - c_{i+1}|; the terminal jump counts
    |c_N - 0|.
  * Sampled "pc" places value v_i on (x_i, x_{i+1}] with v_0 on the first
    cell unreachable (support starts at the first grid point); "pl"
    interpolates linearly inside [x_0, x_m] and is zero outside.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._piecewise import (Piece, _terms_at, abs2_terms, eval_pieces,
                         integrate_terms, merge_terms, shift_terms, variation)
from ._scipy import quad

__all__ = [
    "Interval", "Step", "PiecewisePoly", "TrigPoly", "Sampled", "Symbol",
    "evaluate", "scale", "support", "is_real_symbol", "to_pieces",
    "variation_tail", "modulus", "subtract_terminal",
    "symbol_to_json", "symbol_from_json",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the half-line; hi may be inf."""
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)


def _as_tuple(xs) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


def _as_ctuple(xs) -> tuple[complex, ...]:
    return tuple(complex(x) for x in xs)


def _check_finite(what: str, xs) -> None:
    # NaN fails every ordering test, so it must be caught before them
    if not all(cmath.isfinite(x) for x in xs):
        raise ValueError(f"{what} must be finite")


def _as_powers(what: str, ps) -> tuple[int, ...]:
    # int() would silently truncate x^-2.5 to x^-2
    if not all(float(k).is_integer() for k in ps):
        raise ValueError(f"{what} must be integers")
    return tuple(int(k) for k in ps)


@dataclass(frozen=True)
class Step:
    """Step function: value values[i] on (x_{i-1}, x_i], zero beyond."""
    breakpoints: tuple[float, ...]
    values: tuple[complex, ...]

    def __init__(self, breakpoints, values):
        object.__setattr__(self, "breakpoints", _as_tuple(breakpoints))
        object.__setattr__(self, "values", _as_ctuple(values))
        bp = self.breakpoints
        _check_finite("breakpoints", bp)
        _check_finite("values", self.values)
        if len(bp) != len(self.values):
            raise ValueError("breakpoints and values must have equal length")
        if len(bp) == 0 or bp[0] <= 0 or any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing and positive")
        object.__setattr__(self, "_pieces", tuple(_lower(self)))


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial (optionally Laurent) with compact or power tail.

    pieces[i] holds ascending coefficients starting at power lowest[i] on
    (x_{i-1}, x_i].  With ``tail`` given, the function continues beyond the
    last breakpoint as a Laurent polynomial whose powers must all be <= -1
    (so that the tail is square integrable); otherwise it is zero there.
    """
    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[complex, ...], ...]
    lowest: tuple[int, ...]
    tail: tuple[tuple[complex, int], ...]  # (coef, power) pairs, powers <= -1

    def __init__(self, breakpoints, pieces, lowest=None, tail=()):
        object.__setattr__(self, "breakpoints", _as_tuple(breakpoints))
        object.__setattr__(self, "pieces", tuple(_as_ctuple(p) for p in pieces))
        if lowest is None:
            lowest = (0,) * len(self.pieces)
        lowest, tail = tuple(lowest), tuple(tail)
        _check_finite("breakpoints", self.breakpoints)
        _check_finite("coefficients", [c for p in self.pieces for c in p])
        _check_finite("lowest powers", lowest)
        _check_finite("tail", [v for pair in tail for v in pair])
        object.__setattr__(self, "lowest", _as_powers("lowest powers", lowest))
        coefs = [complex(c) for c, _ in tail]
        powers = _as_powers("tail powers", [p for _, p in tail])
        object.__setattr__(self, "tail", tuple(zip(coefs, powers)))
        bp = self.breakpoints
        if len(bp) != len(self.pieces) or len(bp) != len(self.lowest):
            raise ValueError("need one coefficient list and lowest power per piece")
        if len(bp) == 0 or bp[0] <= 0 or any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing and positive")
        if any(p > -1 for _, p in self.tail):
            raise ValueError("tail powers must be <= -1 for an integrable tail")
        object.__setattr__(self, "_pieces", tuple(_lower(self)))


@dataclass(frozen=True)
class TrigPoly:
    """sum_{|n|<=M} a_n exp(2*pi*i*n*x/period) on (0, period], or periodized."""
    period: float
    coeffs: tuple[complex, ...]  # length 2M+1, index n = -M..M
    periodic: bool = False

    def __init__(self, period, coeffs, periodic=False):
        object.__setattr__(self, "period", float(period))
        object.__setattr__(self, "coeffs", _as_ctuple(coeffs))
        object.__setattr__(self, "periodic", bool(periodic))
        _check_finite("period", [self.period])
        _check_finite("coeffs", self.coeffs)
        if self.period <= 0:
            raise ValueError("period must be positive")
        if len(self.coeffs) % 2 != 1:
            raise ValueError("coeffs must have odd length 2M+1")
        object.__setattr__(self, "_pieces", tuple(_lower(self)))

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2


@dataclass(frozen=True)
class Sampled:
    """Samples on a strictly increasing positive grid, pc or pl interpolation."""
    grid: tuple[float, ...]
    values: tuple[complex, ...]
    interpolation: str = "pl"

    def __init__(self, grid, values, interpolation="pl"):
        object.__setattr__(self, "grid", _as_tuple(grid))
        object.__setattr__(self, "values", _as_ctuple(values))
        object.__setattr__(self, "interpolation", str(interpolation))
        g = self.grid
        _check_finite("grid", g)
        _check_finite("values", self.values)
        if len(g) < 2 or len(g) != len(self.values):
            raise ValueError("need at least two samples and matching values")
        if g[0] <= 0 or any(a >= b for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing and positive")
        if self.interpolation not in ("pc", "pl"):
            raise ValueError("interpolation must be 'pc' or 'pl'")
        object.__setattr__(self, "_pieces", tuple(_lower(self)))


Symbol = Union[Step, PiecewisePoly, TrigPoly, Sampled]


# ---------------------------------------------------------------------------
# canonical lowering


def to_pieces(s: Symbol) -> tuple[Piece, ...]:
    """The exact (a, b, terms) pieces covering the support of s.

    Each constructor lowers its symbol once and keeps the pieces in a
    non-field attribute, so dataclass eq, hash and repr ignore them.
    """
    if not isinstance(s, (Step, PiecewisePoly, TrigPoly, Sampled)):
        raise TypeError(f"not a symbol: {s!r}")
    return s._pieces


def _lower(s: Symbol) -> list[Piece]:
    """The pieces of s, by kind; each constructor calls this once."""
    if isinstance(s, Step):
        prev = 0.0
        out: list[Piece] = []
        for x, v in zip(s.breakpoints, s.values):
            if v != 0:
                out.append((prev, x, ((complex(v), 0, 0.0),)))
            prev = x
        return out
    if isinstance(s, PiecewisePoly):
        prev = 0.0
        out = []
        for x, coeffs, k0 in zip(s.breakpoints, s.pieces, s.lowest):
            terms = merge_terms((c, k0 + j, 0.0) for j, c in enumerate(coeffs))
            if terms:
                out.append((prev, x, terms))
            prev = x
        if s.tail:
            terms = merge_terms((c, p, 0.0) for c, p in s.tail)
            if terms:
                out.append((prev, math.inf, terms))
        return out
    if isinstance(s, TrigPoly):
        M = s.order
        base = 2.0 * math.pi / s.period
        terms = merge_terms((a, 0, base * n)
                            for n, a in zip(range(-M, M + 1), s.coeffs))
        if not terms:
            return []
        if s.periodic:
            return [(0.0, math.inf, terms)]
        return [(0.0, s.period, terms)]
    # Sampled: a pl grid whose slopes overflow is refused here
    return _sampled_to_poly(s)._pieces


def _sampled_to_poly(s: Sampled) -> Union[Step, PiecewisePoly]:
    g, v = s.grid, s.values
    if s.interpolation == "pc":
        # zero on (0, g0], then v_{i+1} on (g_i, g_{i+1}]
        return Step(g, (0.0,) + v[1:])
    pieces = [(0.0,)]
    lows = [0]
    for (x0, x1, y0, y1) in zip(g[:-1], g[1:], v[:-1], v[1:]):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append((y0 - slope * x0, slope))
        lows.append(0)
    return PiecewisePoly(g, pieces, lows)


def evaluate(s: Symbol, x):
    """Evaluate phi at x (scalar or array), honoring the piece conventions."""
    arr = np.asarray(x, dtype=float)
    out = eval_pieces(to_pieces(s), arr)
    if is_real_symbol(s):
        out = out.real
    if np.isscalar(x) or arr.ndim == 0:
        return out.item() if arr.ndim == 0 else out
    return out


def support(s: Symbol) -> Interval:
    pieces = to_pieces(s)
    if not pieces:
        return Interval(0.0, math.inf) if isinstance(s, TrigPoly) and s.periodic \
            else Interval(0.0, 1.0)
    return Interval(0.0, pieces[-1][1]) if pieces[0][0] == 0.0 else \
        Interval(pieces[0][0], pieces[-1][1])


def is_real_symbol(s: Symbol) -> bool:
    if isinstance(s, Step):
        return all(v.imag == 0 for v in s.values)
    if isinstance(s, PiecewisePoly):
        return all(c.imag == 0 for p in s.pieces for c in p) and \
            all(c.imag == 0 for c, _ in s.tail)
    if isinstance(s, TrigPoly):
        M = s.order
        return all(abs(s.coeffs[M + n] - np.conj(s.coeffs[M - n])) == 0
                   for n in range(M + 1))
    if isinstance(s, Sampled):
        return all(v.imag == 0 for v in s.values)
    raise TypeError(f"not a symbol: {s!r}")


# ---------------------------------------------------------------------------
# scaling phi_t(x) = t * phi(t x)


def scale(s: Symbol, t: float) -> Symbol:
    """Return the symbol of t*phi(t*x); spectra are invariant under it."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
    if isinstance(s, Step):
        return Step([x / t for x in s.breakpoints], [t * v for v in s.values])
    if isinstance(s, PiecewisePoly):
        pieces = []
        for coeffs, k0 in zip(s.pieces, s.lowest):
            pieces.append(tuple(c * t ** (k0 + j + 1) for j, c in enumerate(coeffs)))
        tail = tuple((c * t ** (p + 1), p) for c, p in s.tail)
        return PiecewisePoly([x / t for x in s.breakpoints], pieces, s.lowest, tail)
    if isinstance(s, TrigPoly):
        return TrigPoly(s.period / t, [t * a for a in s.coeffs], s.periodic)
    if isinstance(s, Sampled):
        return Sampled([x / t for x in s.grid], [t * v for v in s.values],
                       s.interpolation)
    raise TypeError(f"not a symbol: {s!r}")


# ---------------------------------------------------------------------------
# variation


def variation_tail(s: Symbol, x: float) -> float:
    """Total variation of phi over [x, inf), counting jump magnitudes.

    A jump exactly at x is included.  Periodically extended trigonometric
    symbols are rejected: their variation tail is never finite.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if isinstance(s, TrigPoly) and s.periodic:
        raise ValueError(
            "variation is not defined for periodically extended symbols")
    return variation(to_pieces(s), x, math.inf)


# ---------------------------------------------------------------------------
# continuity moduli


def modulus(s: Symbol, interval: Interval, h: float, p: float = 2,
            shifts: int = 64) -> float:
    """Continuity modulus of phi on an interval.

    p = inf: sup of |phi(x) - phi(y)| over |x - y| <= h (dense-grid
    lower-bound estimator with breakpoints included).
    p = 2: sup over 0 <= shift <= h of the L2 shift-difference norm on
    I cap (I - shift), each shift integral exact; the sup is taken over a
    geometric grid of ``shifts`` values plus the endpoint h.
    """
    if not interval.bounded:
        raise ValueError("modulus needs a bounded interval")
    if h <= 0:
        raise ValueError("h must be positive")
    a, b = interval.lo, interval.hi
    if p == math.inf:
        pieces = to_pieces(s)
        cuts = [c for aa, bb, _ in pieces for c in (aa, bb)
                if math.isfinite(c) and a <= c <= b]
        grid = np.unique(np.concatenate([np.linspace(a, b, 4097),
                                         np.asarray(cuts, dtype=float)]))
        # pieces are left-open, so phi is undefined at 0 itself; keeping the
        # point would fake a jump against phi(0+)
        grid = grid[grid > 0.0]
        vals = eval_pieces(pieces, grid)
        best = 0.0
        j0 = 0
        for i in range(len(grid)):
            while grid[i] - grid[j0] > h:
                j0 += 1
            window = vals[j0:i + 1]
            if len(window) > 1:
                best = max(best, float(np.max(np.abs(window - vals[i]))))
        return best
    if p != 2:
        raise ValueError("only p = 2 and p = inf moduli are implemented")
    svals = np.concatenate([h * 0.5 ** np.arange(shifts - 1, 0, -1), [h]])
    best = 0.0
    for sh in svals:
        best = max(best, math.sqrt(max(_shift_diff_sq(s, a, b, sh), 0.0)))
    return best


def _shift_diff_sq(s: Symbol, a: float, b: float, sh: float) -> float:
    """int_{[a, b-sh]} |phi(x+sh) - phi(x)|^2 dx, exact where possible."""
    hi = b - sh
    if hi <= a:
        return 0.0
    pieces = to_pieces(s)
    try:
        shifted = [(max(aa - sh, 0.0), bb - sh, shift_terms(t, sh))
                   for aa, bb, t in pieces if bb - sh > 0]
    except ValueError:
        val, _ = quad(lambda u: abs(eval_pieces(pieces, np.atleast_1d(u + sh))[0]
                                    - eval_pieces(pieces, np.atleast_1d(u))[0]) ** 2,
                      a, hi, limit=400, epsabs=1e-13)
        return val
    cuts = sorted({c for aa, bb, _ in (*pieces, *shifted) for c in (aa, bb)
                   if math.isfinite(c) and a < c < hi} | {a, hi})
    total = 0.0
    for lo, up in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + up)
        t1 = _terms_at(shifted, mid)
        t0 = _terms_at(pieces, mid)
        diff = merge_terms(list(t1) + [(-c, pp, w) for c, pp, w in t0])
        if diff:
            total += integrate_terms(abs2_terms(diff), lo, up).real
    return total


# ---------------------------------------------------------------------------
# helpers for the Sturm-Liouville module


def subtract_terminal(s: Symbol, interval: Interval) -> tuple[Symbol, complex]:
    """Subtract phi(hi) * chi_(0, hi] so the result vanishes at the right end.

    Returns (shifted symbol, subtracted constant).  The rank-one
    perturbation shifts each singular value index by at most one.
    """
    c = complex(np.asarray(evaluate(s, interval.hi)))
    if c == 0:
        return s, 0.0
    hi = interval.hi
    if isinstance(s, Step):
        bp = list(s.breakpoints)
        vals = list(s.values)
        if hi not in bp:
            if hi > bp[-1]:
                bp.append(hi)
                vals.append(0.0)
            else:
                i = next(i for i, x in enumerate(bp) if x > hi)
                bp.insert(i, hi)
                vals.insert(i, vals[i])
        return Step(bp, [v - c if x <= hi else v
                         for x, v in zip(bp, vals)]), c
    if isinstance(s, PiecewisePoly):
        bp = list(s.breakpoints)
        pieces = [list(p) for p in s.pieces]
        lows = list(s.lowest)
        if hi > bp[-1]:
            raise ValueError("interval end beyond compact support")
        if hi not in bp:
            i = next(i for i, x in enumerate(bp) if x > hi)
            bp.insert(i, hi)
            pieces.insert(i, pieces[i][:])
            lows.insert(i, lows[i])
        out_pieces = []
        out_lows = []
        for x, coeffs, k0 in zip(bp, pieces, lows):
            if x <= hi:
                cs = list(coeffs)
                if k0 > 0:
                    cs = [0.0] * k0 + cs
                    k0 = 0
                idx = -k0
                while len(cs) <= idx:
                    cs.append(0.0)
                cs[idx] = cs[idx] - c
                out_pieces.append(tuple(cs))
            else:
                out_pieces.append(tuple(coeffs))
            out_lows.append(k0)
        return PiecewisePoly(bp, out_pieces, out_lows, s.tail), c
    if isinstance(s, TrigPoly) and not s.periodic and s.period == hi:
        M = s.order
        coeffs = list(s.coeffs)
        coeffs[M] = coeffs[M] - c
        return TrigPoly(s.period, coeffs, False), c
    if isinstance(s, Sampled):
        return subtract_terminal(_sampled_to_poly(s), interval)
    raise ValueError("cannot subtract terminal value for this symbol shape")


# ---------------------------------------------------------------------------
# JSON round trip


def _cplx_out(v: complex):
    return v.real if v.imag == 0 else [v.real, v.imag]


def _cplx_in(v) -> complex:
    """A JSON number or exactly [re, im]; complex() alone would take a
    string, and indexing would take a list of any length."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in parts):
        raise ValueError(f"expected a number or [re, im], got {v!r}")
    return complex(*parts)


def _real_in(v):
    """A JSON number; float() and int() alone would take a string or a
    bool."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValueError(f"expected a real number, got {v!r}")
    return v


def symbol_to_json(s: Symbol) -> str:
    if isinstance(s, Step):
        d = {"kind": "step", "breakpoints": list(s.breakpoints),
             "values": [_cplx_out(v) for v in s.values]}
    elif isinstance(s, PiecewisePoly):
        d = {"kind": "ppoly", "breakpoints": list(s.breakpoints),
             "pieces": [[_cplx_out(c) for c in p] for p in s.pieces]}
        if any(k != 0 for k in s.lowest):
            d["lowest"] = list(s.lowest)
        if s.tail:
            d["tail"] = [[_cplx_out(c), p] for c, p in s.tail]
    elif isinstance(s, TrigPoly):
        d = {"kind": "trig", "period": s.period,
             "coeffs": [_cplx_out(c) for c in s.coeffs],
             "periodic": s.periodic}
    elif isinstance(s, Sampled):
        d = {"kind": "sampled", "grid": list(s.grid),
             "values": [_cplx_out(v) for v in s.values],
             "interpolation": s.interpolation}
    else:
        raise TypeError(f"not a symbol: {s!r}")
    d["real"] = is_real_symbol(s)
    return json.dumps(d)


def symbol_from_json(text: str) -> Symbol:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"symbol JSON must be an object, not "
                         f"{type(d).__name__}")
    kind = d.get("kind")
    if kind == "step":
        return Step([_real_in(x) for x in d["breakpoints"]],
                    [_cplx_in(v) for v in d["values"]])
    if kind == "ppoly":
        lowest = d.get("lowest")
        return PiecewisePoly(
            [_real_in(x) for x in d["breakpoints"]],
            [[_cplx_in(c) for c in p] for p in d["pieces"]],
            None if lowest is None else [_real_in(k) for k in lowest],
            [(_cplx_in(c), _real_in(p)) for c, p in d.get("tail", [])])
    if kind == "trig":
        periodic = d.get("periodic", False)
        if not isinstance(periodic, bool):
            raise ValueError(f"periodic must be true or false, not "
                             f"{periodic!r}")
        return TrigPoly(_real_in(d["period"]),
                        [_cplx_in(c) for c in d["coeffs"]], periodic)
    if kind == "sampled":
        return Sampled([_real_in(x) for x in d["grid"]],
                       [_cplx_in(v) for v in d["values"]],
                       d.get("interpolation", "pl"))
    raise ValueError(
        f"unknown symbol kind {kind!r} (expected step, ppoly, trig or sampled)")
