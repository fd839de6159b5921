"""Norms and membership verdicts for the symbol spaces behind phi(max(x, y)).

Boundedness, compactness, and Schatten-class membership of the operator are
all read off the symbol, so this module works entirely on the symbol side:
the tail-integral X_p norms, the tail functional x * int_x^inf |phi|^2,
weighted variation norms, the monotone-symbol profile integral, and an
assembled decision procedure that names the criterion it used.

Verdicts are three-valued on purpose.  For 1/2 < p <= 1 the known
sufficient conditions (variation, modulus of continuity) do not meet the
known necessary ones, and no numerical test should pretend otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._piecewise import (Term, _piece_value_range, abs2_terms, abs_integral,
                         coef_scale, cut_values, derivative_terms, end_power,
                         eval_pieces, integrate_terms, mul_terms,
                         not_integrable, variation, with_gaps)
from ._scipy import quad
from .symbols import Interval, Step, Symbol, modulus, support, to_pieces

__all__ = [
    "Verdict", "x_p_integral", "s2_norm", "l1_norm", "tail_functional",
    "tail_functional_limits", "is_bounded",
    "is_compact", "y_p_norm", "monotone_profile_norm", "dini_integral",
    "classify_schatten", "is_positive_operator", "is_nonincreasing",
    "is_nonnegative", "trace_value", "canonical_step", "detect_step",
    "kronecker_det",
]

IN, OUT, UNKNOWN = "in", "out", "unknown"


@dataclass(frozen=True)
class Verdict:
    """Three-valued decision plus the single criterion that produced it."""
    verdict: str
    criterion: str
    norms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (IN, OUT, UNKNOWN):
            raise ValueError(f"bad verdict {self.verdict!r}")

    @property
    def definitely_in(self) -> bool:
        return self.verdict == IN

    @property
    def definitely_out(self) -> bool:
        return self.verdict == OUT

    def to_json(self) -> str:
        return json.dumps({"verdict": self.verdict,
                           "criterion": self.criterion,
                           "norms": dict(self.norms)})


def tail_functional_limits(s: Symbol) -> tuple[float, float]:
    """Limits of x * int_x^inf |phi|^2 at x -> 0 and x -> inf.

    Both limits exist for every representable symbol and are read off the
    end power (k, c) of phi (end_power), not of |phi|^2, whose terms can
    underflow: k = -1 gives |c|^2, a stronger power inf, a weaker one 0.
    They decide boundedness (finite) and compactness (zero).
    """
    pieces = to_pieces(s)
    at0 = atinf = 0.0
    if pieces and pieces[0][0] == 0.0:
        k, c = end_power(pieces[0][2], "lo") or (0, 0.0)
        if k <= -1:
            at0 = math.inf if k < -1 else abs(complex(c)) ** 2
    if pieces and math.isinf(pieces[-1][1]):
        k, c = end_power(pieces[-1][2], "hi") or (0, 0.0)
        if k >= -1:
            atinf = math.inf if k > -1 else abs(complex(c)) ** 2
    return at0, atinf


def is_bounded(s: Symbol) -> Verdict:
    """Operator bounded iff the tail functional has finite end limits."""
    at0, atinf = tail_functional_limits(s)
    ok = math.isfinite(at0) and math.isfinite(atinf)
    return Verdict(IN if ok else OUT, "tail-functional-limits",
                   {"origin_limit": at0, "tail_limit": atinf})


def is_compact(s: Symbol) -> Verdict:
    """Operator compact iff both end limits of the tail functional are 0."""
    at0, atinf = tail_functional_limits(s)
    ok = at0 == 0.0 and atinf == 0.0
    return Verdict(IN if ok else OUT, "tail-functional-limits",
                   {"origin_limit": at0, "tail_limit": atinf})


# ---------------------------------------------------------------------------
# the X_p norms


def x_p_integral(s: Symbol, p: float) -> float:
    """Tail-integral form of the X_p norm.

    (int_0^inf x^(p/2-1) T(x)^(p/2) dx)^(1/p) with T(x) = int_x^inf |phi|^2.
    For p = 2 the integral collapses to int_0^inf y |phi(y)|^2 dy and is
    evaluated in closed form.  Divergence at either end is detected from the
    leading powers, so +inf answers are exact, not overflow artifacts.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if p == math.inf:
        raise ValueError("p must be finite")
    pieces = to_pieces(s)
    if not pieces:
        return 0.0
    at0, atinf = tail_functional_limits(s)
    if at0 != 0.0 or atinf != 0.0:
        return math.inf
    if p == 2:
        total = 0.0
        x_term: tuple[Term, ...] = ((1.0, 1, 0.0),)
        for a, b, terms in pieces:
            t2 = mul_terms(x_term, abs2_terms(terms))
            total += float(np.real(integrate_terms(t2, a, b)))
        return math.sqrt(max(total, 0.0))

    # generic p: numeric quadrature of the tail-mass profile
    masses = [float(np.real(integrate_terms(abs2_terms(terms), a, b)))
              for a, b, terms in pieces]
    suffix = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])

    def T(x: float) -> float:
        for i, (a, b, terms) in enumerate(pieces):
            if x < a:
                return float(suffix[i])
            if x <= b:
                rest = float(np.real(
                    integrate_terms(abs2_terms(terms), max(x, a), b)))
                return rest + float(suffix[i + 1])
        return 0.0

    def f(x: float) -> float:
        return x ** (p / 2.0 - 1.0) * max(T(x), 0.0) ** (p / 2.0)

    return _quad_over_pieces(f, pieces) ** (1.0 / p)


def _quad_over_pieces(f, pieces) -> float:
    """int_0^inf f by quad between consecutive piece ends (f vanishes past a
    bounded support)."""
    cuts = sorted({0.0} | {a for a, _, _ in pieces}
                  | {b for _, b, _ in pieces if math.isfinite(b)})
    if math.isinf(pieces[-1][1]):
        cuts.append(np.inf)
    total = 0.0
    for u, v in zip(cuts[:-1], cuts[1:]):
        total += quad(f, u, v, limit=200, epsabs=1e-13, epsrel=1e-11)[0]
    return total


def s2_norm(s: Symbol) -> float:
    """Hilbert-Schmidt norm of the full operator: (2 int x |phi|^2 dx)^(1/2)."""
    x2 = x_p_integral(s, 2)
    if math.isinf(x2):
        return math.inf
    return math.sqrt(2.0) * x2


def tail_functional(s: Symbol, x: float) -> float:
    """Pointwise tail functional x * int_x^inf |phi(y)|^2 dy."""
    if x < 0:
        raise ValueError("x must be >= 0")
    total = 0.0
    for a, b, terms in to_pieces(s):
        if b <= x:
            continue
        try:
            total += float(np.real(
                integrate_terms(abs2_terms(terms), max(a, x), b)))
        except ValueError:
            return math.inf
    return x * total


def l1_norm(s: Symbol) -> float:
    """int_0^inf |phi|; exact except for trigonometric pieces (quadrature).

    Raises when phi is not absolutely integrable.
    """
    pieces = to_pieces(s)
    where = not_integrable(pieces)
    if where:
        raise ValueError(f"symbol is not integrable {where}")
    return sum(abs_integral(terms, a, b) for a, b, terms in pieces)


# ---------------------------------------------------------------------------
# variation norm


# bands per variation call in y_p_norm: the sum of a symbol whose slope
# stays bounded at 0 stops within about 40 bands below its top one
_BAND_CHUNK = 64


def y_p_norm(s: Symbol, p: float) -> float:
    """Weighted dyadic variation norm (sum_n 2^(np) v_n^p)^(1/p).

    v_n is the variation of phi over [2^n, 2^(n+1)), jumps at the left edge
    included, integrated over that band alone.  Every representable symbol
    other than a periodized trigonometric one tends to 0 at infinity, so
    the vanishing-at-infinity precondition is automatic; periodized symbols
    are not integrable and get inf.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    pieces = to_pieces(s)
    if not pieces:
        return 0.0
    if not_integrable(pieces):
        return math.inf

    # the last finite cut: the end of a bounded support or the start of a
    # tail (an integrable tail never starts at 0)
    a, b, _ = pieces[-1]
    bounded = math.isfinite(b)
    n_top = math.floor(math.log2(b if bounded else a))

    def weighted(ns):
        """(n, (2^n v_n)^p) for n in ns, _BAND_CHUNK bands per variation
        call."""
        for i in range(0, len(ns), _BAND_CHUNK):
            part = ns[i:i + _BAND_CHUNK]
            lo = np.array([2.0 ** n for n in part])
            with np.errstate(over="ignore"):  # band 1023 runs to inf
                hi = 2.0 * lo
            for n, v in zip(part, variation(pieces, lo, hi)):
                yield n, (2.0 ** n * float(v)) ** p

    total = 0.0
    # upward sweep: past band n_top only on a tail, and below 2^1023
    up = range(n_top, n_top + 1 if bounded else min(n_top + 201, 1023))
    for n, term in weighted(up):
        total += term
        if bounded or (term < 1e-18 * max(total, 1e-300) and n > n_top + 4):
            break
    # downward sweep
    small = 0
    for n, term in weighted(range(n_top - 1, n_top - 201, -1)):
        total += term
        small = small + 1 if term < 1e-18 * max(total, 1e-300) else 0
        if small >= 3:
            break
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# pointwise structure: sign, monotonicity, slopes


def _is_real_piece(terms, slack: float) -> bool:
    """True if the terms sum to a real function: half the gap between the
    coefficient at (p, w) and the conjugate of the one at (p, -w) is at
    most slack (for w = 0, |Im c| <= slack)."""
    coef = {(p, w): complex(c) for c, p, w in terms}
    return all(abs(c - coef.get((p, -w), 0j).conjugate()) <= 2.0 * slack
               for (p, w), c in coef.items())


def is_nonnegative(s: Symbol, tol: float = 1e-12) -> bool:
    pieces = to_pieces(s)
    slack = tol * max(coef_scale(pieces), 1.0)
    for a, b, terms in pieces:
        if not _is_real_piece(terms, slack):
            return False
        mn, _ = _piece_value_range(terms, a, b)
        if mn < -slack:
            return False
    return True


def is_nonincreasing(s: Symbol, tol: float = 1e-12) -> bool:
    """True if phi is a.e. nonincreasing on (0, inf), jumps included."""
    pieces = to_pieces(s)
    slack = tol * max(coef_scale(pieces), 1.0)
    for a, b, terms in pieces:
        if not _is_real_piece(terms, slack):
            return False
        d = derivative_terms(terms)
        if d:
            _, mx = _piece_value_range(d, a, b)
            if mx > slack:
                return False
    # no upward jump at any cut, the end of the support (down to 0) included
    return not any(right.real > left.real + slack
                   for _, left, right in cut_values(pieces))


def is_positive_operator(s: Symbol) -> Verdict:
    """The operator is nonnegative iff phi is real, >= 0, and nonincreasing."""
    ok = is_nonnegative(s) and is_nonincreasing(s)
    return Verdict(IN if ok else OUT, "monotone-nonnegative", {})


# ---------------------------------------------------------------------------
# monotone-symbol profile integral


def monotone_profile_norm(s: Symbol, p: float) -> float:
    """(int_0^inf (x phi(x))^p dx/x)^(1/p) for real nonincreasing phi >= 0.

    This functional decides Schatten membership exactly for monotone
    nonnegative symbols when p > 1/2.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    pieces = to_pieces(s)
    if not pieces:
        return 0.0
    if not_integrable(pieces):
        return math.inf
    if all(q == 0 and w == 0.0 for _, _, t in pieces for _, q, w in t):
        # constant pieces v: the sum of v^p (b^p - a^p) / p
        return sum(max(float(np.real(sum(c for c, _, _ in t))), 0.0) ** p
                   * (b ** p - a ** p) / p for a, b, t in pieces) ** (1.0 / p)

    def f(x: float) -> float:
        v = float(np.real(eval_pieces(pieces, x)))
        return x ** (p - 1.0) * max(v, 0.0) ** p

    return _quad_over_pieces(f, pieces) ** (1.0 / p)


# ---------------------------------------------------------------------------
# modulus-of-continuity sufficiency


def dini_integral(s: Symbol, levels: int = 22, shifts: int = 16) -> float:
    """Geometric-grid estimate of int_0^|I| w2(t) dt/t on the support.

    Returns +inf when the level sums do not visibly converge; finite values
    certify the trace-class sufficiency route for compactly supported
    symbols.  This is a numeric certificate, not a proof.
    """
    sup = support(s)
    if not sup.bounded:
        raise ValueError("the modulus test applies to compact support only")
    I = Interval(0.0, sup.hi)
    terms = []
    for k in range(1, levels + 1):
        h = sup.hi * 2.0 ** (-k)
        terms.append(modulus(s, I, h, p=2, shifts=shifts) * math.log(2.0))
    total = sum(terms)
    if total == 0.0:
        return 0.0
    tail = [t for t in terms[-6:] if t > 0.0]
    if len(tail) >= 2:
        ratios = [b / a for a, b in zip(tail[:-1], tail[1:])]
        r = max(ratios)
        if r <= 0.92:
            return total + tail[-1] * r / (1.0 - r)
    if terms[-1] < 1e-14 * total:
        return total
    return math.inf


# ---------------------------------------------------------------------------
# step detection, trace, determinant identity


def canonical_step(s: Symbol) -> Optional[Step]:
    """Return s as a canonical Step (adjacent equal values merged, trailing
    zero pieces dropped), or None if s is not a.e. a compactly supported
    step function.  The zero symbol maps to None; detect_step reports 0."""
    pieces = with_gaps(to_pieces(s))
    if not pieces or math.isinf(pieces[-1][1]):
        return None
    bp, vals = [], []
    for _, b, terms in pieces:
        if any(p != 0 or w != 0.0 for _, p, w in terms):
            return None
        v = terms[0][0] if terms else 0.0
        if vals and v == vals[-1]:
            bp[-1] = b
        else:
            bp.append(b)
            vals.append(v)
    return Step(bp, vals)


def detect_step(s: Symbol) -> Optional[int]:
    """Minimal number of steps if s is a.e. a step function, else None."""
    st = canonical_step(s)
    if st is not None:
        return len(st.values)
    # the zero symbol is a step function of 0 steps
    return 0 if not to_pieces(s) else None


def trace_value(s: Symbol) -> complex:
    """Exact int_0^inf phi(x) dx; raises when phi is not integrable."""
    pieces = to_pieces(s)
    where = not_integrable(pieces)
    if where:
        raise ValueError(f"symbol is not integrable {where}")
    total = 0.0 + 0.0j
    for a, b, terms in pieces:
        total += integrate_terms(terms, a, b)
    return total


def kronecker_det(a) -> complex:
    """det of the matrix {a_max(i,j)} via the telescoping product a_n *
    prod (a_i - a_(i+1))."""
    vals = [complex(v) for v in a]
    n = len(vals)
    if n < 1:
        raise ValueError("need at least one value")
    out = vals[-1]
    for u, v in zip(vals[:-1], vals[1:]):
        out *= (u - v)
    return out


# ---------------------------------------------------------------------------
# assembled decision procedure


def _decisive(name: str, value: float) -> float:
    """value itself; a NaN norm decides nothing, so it raises instead of
    falling on one side of an isfinite or isinf test."""
    if math.isnan(value):
        raise ValueError(f"{name} norm is NaN (the symbol overflows)")
    return value


def classify_schatten(s: Symbol, p: float) -> Verdict:
    """Three-valued Schatten-class verdict at exponent p.

    p > 1: exact, via the tail-integral X_p norm.
    1/2 < p <= 1: exact for real nonincreasing nonnegative symbols via the
    profile integral; otherwise out if the operator is not compact, in if
    the weighted variation norm is finite (or, at p = 1 with compact
    support, if the modulus integral converges), out if the X_p norm
    diverges, else unknown -- the gap is genuine.
    p <= 1/2: in for step symbols (finite rank), out for symbols with a
    nonvanishing derivative on positive measure or a non-compact operator,
    else unknown.
    """
    if not (p > 0) or math.isinf(p):
        raise ValueError("p must be a positive finite exponent")
    if p > 1:
        xp = _decisive("x_p", x_p_integral(s, p))
        return Verdict(IN if math.isfinite(xp) else OUT, "xp-norm",
                       {"x_p": xp, "form": "integral"})
    # S_p holds only compact operators, whatever the numeric criteria say
    not_compact = None
    if tail_functional_limits(s) != (0.0, 0.0):
        not_compact = Verdict(OUT, "xp-divergence", {"x_p": math.inf})
    if p > 0.5:
        if is_nonnegative(s) and is_nonincreasing(s):
            m = _decisive("profile", monotone_profile_norm(s, p))
            return Verdict(IN if math.isfinite(m) else OUT,
                           "monotone-profile", {"profile_integral": m})
        if not_compact:
            return not_compact
        try:
            yp = y_p_norm(s, p)
        except ValueError:
            yp = None
        if yp is not None and math.isfinite(_decisive("y_p", yp)):
            return Verdict(IN, "yp-variation", {"y_p": yp})
        if p == 1 and support(s).bounded:
            dini = _decisive("dini", dini_integral(s))
            if math.isfinite(dini):
                return Verdict(IN, "dini-l2-modulus", {"dini": dini})
        xp = _decisive("x_p", x_p_integral(s, p))
        if math.isinf(xp):
            return Verdict(OUT, "xp-divergence", {"x_p": xp})
        norms = {"x_p": xp}
        if yp is not None:
            norms["y_p"] = yp
        return Verdict(UNKNOWN, "undecided-gap", norms)
    # p <= 1/2
    n = detect_step(s)
    if n is not None:
        return Verdict(IN, "finite-rank-step", {"steps": n})
    # phi' != 0 on a set of positive measure
    if any(derivative_terms(terms) for _, _, terms in to_pieces(s)):
        return Verdict(OUT, "smooth-slope-exclusion", {})
    return not_compact or Verdict(UNKNOWN, "undecided-gap", {})
