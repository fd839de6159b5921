"""Closed-form piece algebra shared by the public modules.

Every symbol lowers to a list of pieces ``(a, b, terms)`` covering its
support.  A term is a triple ``(coef, power, freq)`` representing
``coef * x**power * exp(1j*freq*x)`` with integer ``power`` (negative
allowed) and real ``freq``.  This family is closed under products and
conjugation, which is what makes exact L2 cell integrals, tail integrals
and Fourier coefficients possible for all four symbol variants.

This module owns the piece conventions, so no caller re-implements them:
  * pieces are left-open, right-closed, and support gaps count as 0:
    ``eval_pieces`` evaluates, ``cut_values`` gives the left and right
    value at every cut, and ``with_gaps`` tiles (0, end] with the gaps
    filled by pieces that have no terms;
  * ``aligned_cells`` is the one grid rule: nested equal cells per piece;
  * the last piece may run to b = inf: ``integrate_terms`` and
    ``abs_integral`` (the integral of |f|) take b = inf and raise
    ValueError on a divergent tail;
  * ``abs_integrals`` integrates |f| over many intervals of one piece at
    once: exactly between the roots of a real Laurent piece, by adaptive
    Gauss-Legendre panels otherwise, with quad only for an interval that
    overruns its panel budget; ``abs_integral`` is its one-interval case;
  * ``variation`` is the variation over bands [lo, hi): the integral of
    |f'| on every piece plus the jump at each cut c with lo <= c < hi,
    for one band or an array of them;
  * ``coef_scale`` is the largest coefficient modulus, the scale that
    tolerances on piece values are taken relative to.

Antiderivatives:
  * freq == 0: power rule (log at power == -1)
  * freq != 0, power >= 0: repeated integration by parts
  * freq != 0, power < 0: no elementary antiderivative; callers fall back
    to adaptive quadrature (only reachable through Fourier coefficients of
    Laurent pieces, which none of the standard constructions produce).

Real Laurent pieces (real coefficients, freq == 0) get exact roots, end
limits and value ranges; ``end_power`` is the one reader of leading powers.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

Term = tuple[complex, int, float]
Piece = tuple[float, float, tuple[Term, ...]]

_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-12, limit=400)


def conj_terms(terms: Sequence[Term]) -> tuple[Term, ...]:
    return tuple((np.conj(c), p, -w) for c, p, w in terms)


def merge_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Collect coefficients of identical (power, freq) monomials."""
    acc: dict[tuple[int, float], complex] = {}
    for c, p, w in terms:
        key = (p, w)
        acc[key] = acc.get(key, 0.0) + c
    return tuple((c, p, w) for (p, w), c in sorted(acc.items()) if c != 0)


def mul_terms(t1: Sequence[Term], t2: Sequence[Term]) -> tuple[Term, ...]:
    out = []
    for c1, p1, w1 in t1:
        for c2, p2, w2 in t2:
            out.append((c1 * c2, p1 + p2, w1 + w2))
    return merge_terms(out)


def abs2_terms(terms: Sequence[Term]) -> tuple[Term, ...]:
    return mul_terms(terms, conj_terms(terms))


def add_freq(terms: Sequence[Term], freq: float) -> tuple[Term, ...]:
    return tuple((c, p, w + freq) for c, p, w in terms)


def shift_terms(terms: Sequence[Term], s: float) -> tuple[Term, ...]:
    """Terms of x -> f(x + s).  Requires all powers >= 0."""
    out = []
    for c, p, w in terms:
        if p < 0:
            raise ValueError("cannot shift negative powers in closed form")
        phase = c * np.exp(1j * w * s) if w != 0.0 else c
        for j in range(p + 1):
            out.append((phase * math.comb(p, j) * s ** (p - j), j, w))
    return merge_terms(out)


def derivative_terms(terms: Sequence[Term]) -> tuple[Term, ...]:
    """Termwise derivative d/dx of sum c x^p e^{iwx}."""
    out = []
    for c, p, w in terms:
        if p != 0:
            out.append((c * p, p - 1, w))
        if w != 0.0:
            out.append((c * 1j * w, p, w))
    return merge_terms(out)


def eval_terms(terms: Sequence[Term], x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for c, p, w in terms:
        v = c * x.astype(complex) ** p
        if w != 0.0:
            v = v * np.exp(1j * w * x)
        out += v
    return out


def _antideriv_term(c: complex, p: int, w: float, x):
    """Antiderivative of c x^p e^{iwx} evaluated at array x."""
    x = np.asarray(x, dtype=float)
    if w == 0.0:
        if p == -1:
            return c * np.log(x).astype(complex)
        return c * x.astype(complex) ** (p + 1) / (p + 1)
    if p < 0:
        raise _NoElementary()
    # integration by parts: int x^p e^{iwx} = e^{iwx} sum_j (-1)^j p!/(p-j)! x^{p-j} / (iw)^{j+1}
    iw = 1j * w
    coef = c / iw
    acc = np.full(x.shape, coef, dtype=complex) * x ** p
    for j in range(1, p + 1):
        coef = -coef * (p - j + 1) / iw
        acc += coef * x ** (p - j)
    return acc * np.exp(1j * w * x)


class _NoElementary(Exception):
    pass


def integrate_terms(terms: Sequence[Term], a: float, b: float) -> complex:
    """Exact integral over [a, b], quad fallback; b = inf is the tail
    integral of integrate_terms_to_inf."""
    if math.isinf(b):
        return integrate_terms_to_inf(terms, a)
    if a == b:
        return 0.0
    try:
        tot = 0.0 + 0.0j
        for c, p, w in terms:
            fa, fb = _antideriv_term(c, p, w, np.array([a, b]))
            tot += fb - fa
        return complex(tot)
    except _NoElementary:
        re = quad(lambda x: eval_terms(terms, x).real, a, b, **_QUAD_KW)[0]
        im = quad(lambda x: eval_terms(terms, x).imag, a, b, **_QUAD_KW)[0]
        return complex(re, im)


def integrate_terms_nodes(terms: Sequence[Term], nodes: np.ndarray) -> np.ndarray:
    """Integrals over consecutive [nodes[i], nodes[i+1]] cells, vectorized.

    All nodes must lie inside one piece.  Falls back to per-cell quadrature
    only for the Laurent-times-exponential corner.
    """
    try:
        acc = np.zeros(len(nodes), dtype=complex)
        for c, p, w in terms:
            acc += _antideriv_term(c, p, w, nodes)
        return np.diff(acc)
    except _NoElementary:
        return np.array([integrate_terms(terms, a, b)
                         for a, b in zip(nodes[:-1], nodes[1:])])


def integrate_terms_to_inf(terms: Sequence[Term], a: float) -> complex:
    """Exact tail integral on [a, inf); requires pure decaying Laurent terms.

    Raises ValueError when any term fails power <= -2 with freq == 0 (the
    only shape the symbol constructors allow on unbounded pieces after
    squaring; freq != 0 or power >= -1 tails are non-integrable).
    """
    tot = 0.0 + 0.0j
    for c, p, w in terms:
        if c == 0:
            continue
        if w != 0.0 or p >= -1:
            raise ValueError("non-integrable tail on unbounded piece")
        tot += -c * a ** (p + 1) / (p + 1)
    return complex(tot)


def _terms_at(pieces: Sequence[Piece], x: float) -> tuple[Term, ...]:
    for a, b, t in pieces:
        if a < x <= b or (a < x and math.isinf(b)):
            return t
    return ()


def eval_pieces(pieces: Sequence[Piece], x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for a, b, terms in pieces:
        m = (x > a) & (x <= b) if math.isfinite(b) else (x > a)
        if np.any(m):
            out[m] = eval_terms(terms, x[m])
    return out


def _right_value(pieces: Sequence[Piece], c: float) -> complex:
    """Right limit of piecewise terms at a cut point (0 in support gaps)."""
    for a, b, terms in pieces:
        if a <= c < b:
            return complex(eval_terms(terms, np.array([c]))[0])
    return 0j


def cut_values(pieces: Sequence[Piece]) -> list[tuple[float, complex, complex]]:
    """(c, phi(c), phi(c+)) at every finite cut c > 0, ascending.

    Gaps count as 0, so the end of a bounded support is a cut (its right
    value is 0) and so is each edge of a gap; 0 itself is not a cut.
    """
    cuts = sorted({c for a, b, _ in pieces for c in (a, b)
                   if 0.0 < c < math.inf})
    left = eval_pieces(pieces, np.array(cuts))
    return [(c, complex(v), _right_value(pieces, c))
            for c, v in zip(cuts, left)]


def with_gaps(pieces: Sequence[Piece]) -> list[Piece]:
    """The pieces tiling (0, end]: each gap before or between them is
    filled by a piece with no terms."""
    out: list[Piece] = []
    prev = 0.0
    for a, b, terms in pieces:
        if a > prev:
            out.append((prev, a, ()))
        out.append((a, b, terms))
        prev = b
    return out


def aligned_cells(pieces: Sequence[Piece], lo: float, hi: float,
                  first: int, level: int) -> list:
    """(terms, nodes) per piece of with_gaps(pieces) on [lo, hi], with a
    stretch past the last piece as a piece of no terms: max(1, round(first
    len / (hi - lo))) << level equal cells, so the levels nest; a piece
    stops splitting before its cells fall below 8 ulps, lest nodes merge."""
    out = []
    # the empty piece at hi makes with_gaps fill the stretch up to hi
    for a, b, terms in with_gaps([*pieces, (hi, hi, ())]):
        x0, x1 = max(a, lo), min(b, hi)
        if x0 < x1:
            count = max(1, round(first * ((x1 - x0) / (hi - lo))))
            fit = int((x1 - x0) / (8.0 * math.ulp(x1))) // count
            count <<= min(level, max(0, fit.bit_length() - 1))
            out.append((terms, np.linspace(x0, x1, count + 1)))
    return out


def coef_scale(pieces: Sequence[Piece]) -> float:
    """Largest coefficient modulus over all pieces, 0 with no pieces."""
    return max((abs(complex(c)) for _, _, t in pieces for c, _, _ in t),
               default=0.0)


def end_power(terms: Sequence[Term], end: str
              ) -> Optional[tuple[int, complex]]:
    """Leading behaviour (k, c) of merged terms at 0+ ('lo') or +inf ('hi').

    k is the lowest ('lo') or highest ('hi') power among the nonzero
    terms, an oscillating term counting as power 0; c is the coefficient of
    x^k among the non-oscillating terms (0 when only oscillation sits
    there).  None when no nonzero term is left.  Raises ValueError for an
    oscillating term with a negative power, which the symbol algebra never
    produces and whose end behaviour this reading would get wrong.
    """
    k = None
    for c, p, w in terms:
        if w != 0.0 and p < 0:
            raise ValueError("oscillatory term with negative power")
        q = p if w == 0.0 else 0
        if c != 0 and (k is None or (q < k if end == "lo" else q > k)):
            k = q
    if k is None:
        return None
    return k, sum(c for c, p, w in terms if p == k and w == 0.0)


def not_integrable(pieces: Sequence[Piece]) -> Optional[str]:
    """Where phi fails to be integrable by its end powers ("near the
    origin" or "at infinity"), None if it is integrable."""
    if pieces and pieces[0][0] == 0.0 and \
            end_power(pieces[0][2], "lo")[0] <= -1:
        return "near the origin"
    if pieces and math.isinf(pieces[-1][1]) and \
            end_power(pieces[-1][2], "hi")[0] >= -1:
        return "at infinity"
    return None


# ---------------------------------------------------------------------------
# real Laurent pieces: roots, end limits and value ranges


def _real_w0_terms(terms: Sequence[Term]) -> Optional[list[tuple[float, int]]]:
    """(coef, power) pairs of a real Laurent piece; None if any term is
    oscillatory or complex."""
    out = []
    for c, p, w in terms:
        if c == 0:
            continue
        if w != 0.0 or abs(complex(c).imag) > 0:
            return None
        out.append((float(np.real(c)), p))
    return out


def _laurent_roots(w0: list[tuple[float, int]], a: float, b: float
                   ) -> list[float]:
    """Real roots of a real Laurent polynomial inside (a, b), b may be inf."""
    if len(w0) <= 1:
        return []
    qmin = min(p for _, p in w0)
    arr = [0.0] * (max(p for _, p in w0) - qmin + 1)
    for c, p in w0:
        arr[p - qmin] += c
    hi = b if math.isfinite(b) else max(a, 1.0) * 2.0 ** 80
    out = []
    for r in np.atleast_1d(np.polynomial.Polynomial(arr).roots()):
        if abs(np.imag(r)) < 1e-10:
            rr = float(np.real(r))
            if a < rr < hi:
                out.append(rr)
    return sorted(out)


def _laurent_end_limit(terms: Sequence[Term], end: str) -> float:
    """Limit of a real Laurent piece at 0+ ('lo') or +inf ('hi')."""
    k, ck = end_power(terms, end)
    ck = float(np.real(ck))
    if (k < 0) if end == "lo" else (k > 0):
        return math.copysign(math.inf, ck)
    return ck if k == 0 else 0.0


def _piece_value_range(terms: Sequence[Term], a: float, b: float
                       ) -> tuple[float, float]:
    """(min, max) of a real piece over (a, b); dense sampling for trig."""
    w0 = _real_w0_terms(terms)
    if w0 is not None:
        if not w0:
            return 0.0, 0.0
        pts = _laurent_roots(_real_w0_terms(derivative_terms(terms)), a, b)
        lims = []
        if a > 0.0:
            pts.append(a)
        else:
            lims.append(_laurent_end_limit(terms, "lo"))
        if math.isfinite(b):
            pts.append(b)
        else:
            lims.append(_laurent_end_limit(terms, "hi"))
        mn = min(lims, default=math.inf)
        mx = max(lims, default=-math.inf)
        if pts:
            xs = np.array(sorted({x for x in pts if x > 0.0}))
            vals = np.real(eval_terms(tuple((c, p, 0.0) for c, p in w0), xs))
            mn = min(mn, float(vals.min()))
            mx = max(mx, float(vals.max()))
        return mn, mx
    hi = b if math.isfinite(b) else max(a * 2.0 ** 20, 1e6)
    xs = np.linspace(max(a, hi * 1e-12), hi, 8193)
    vals = np.real(eval_terms(terms, xs))
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------------------
# |f| integrals and variation


def abs_integrals(terms: Sequence[Term], a, b) -> np.ndarray:
    """int |f| over each interval [a_i, b_i] of one piece; b_i may be inf.

    A real Laurent piece is integrated exactly between its roots.  Any
    other piece gets adaptive Gauss-Legendre panels, all intervals in one
    pass per refinement; an interval still unsettled after _PANEL_BUDGET
    panels falls back to quad.  An unbounded interval gives inf when the
    tail diverges or the piece is not a real Laurent piece.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    w0 = _real_w0_terms(terms)
    if w0 is not None:
        return _laurent_abs_integrals(terms, w0, a, b)
    out = np.full(a.shape, math.inf)
    fin = np.isfinite(b)
    out[fin] = _gauss_abs_integrals(terms, a[fin], b[fin])
    return out


def abs_integral(terms: Sequence[Term], a: float, b: float) -> float:
    """int_a^b |f| over one piece, b may be inf: abs_integrals on one
    interval.  Raises ValueError on a divergent tail and on an unbounded
    piece that is not a real Laurent piece.
    """
    val = float(abs_integrals(terms, a, b)[0])
    if math.isinf(val) and math.isinf(b):
        raise ValueError("|f| is not integrable to infinity on this piece")
    return val


def _laurent_abs_integrals(terms, w0, a: np.ndarray, b: np.ndarray
                           ) -> np.ndarray:
    """Sum of |int f| between the roots of a real Laurent piece inside each
    [a_i, b_i], summed in ascending order."""
    with np.errstate(over="ignore"):  # past 2^943 every root counts
        hi = np.where(np.isfinite(b), b, np.maximum(a, 1.0) * 2.0 ** 80)
    roots = np.array(_laurent_roots(w0, float(a.min()), float(hi.max())))
    # roots outside an interval collapse onto its ends: empty segments
    inside = (roots > a[:, None]) & (roots < hi[:, None])
    mid = np.where(inside, roots,
                   np.where(roots <= a[:, None], a[:, None], b[:, None]))
    edges = np.column_stack([a, mid, b])
    lo, up = edges[:, :-1], edges[:, 1:]
    seg = np.zeros(lo.shape, dtype=complex)
    body = (lo < up) & np.isfinite(up)
    for c, p, w in terms:
        seg[body] += (_antideriv_term(c, p, w, up[body])
                      - _antideriv_term(c, p, w, lo[body]))
    for i, j in zip(*np.nonzero((lo < up) & np.isinf(up))):
        try:
            seg[i, j] = integrate_terms_to_inf(terms, lo[i, j])
        except ValueError:
            seg[i, j] = math.inf
    out = np.zeros(len(a))
    for col in np.abs(seg.real).T:
        out += col
    return out


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)
_PANEL_BUDGET = 2000  # panels one interval may use before quad takes over


def _gauss_abs(terms: Sequence[Term], u: np.ndarray, v: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre int |f| over each panel [u_k, v_k], and a
    bound on what the rule misses next to the panel's ends.

    |f| has a kink where f passes through 0.  A kink between an end and
    the nearest node is invisible to the rule, but f turns by more than a
    right angle between those two samples; the miss is then at most twice
    the gap times |f| at the end.
    """
    half = 0.5 * (v - u)
    x = (0.5 * (u + v))[:, None] + half[:, None] * _GAUSS_X
    f = eval_terms(terms, np.column_stack([u, x, v]))
    total = half * (np.abs(f[:, 1:-1]) * _GAUSS_W).sum(axis=1)
    gap = half * (1.0 - _GAUSS_X[-1])
    miss = np.zeros(len(u))
    for end, node in ((0, 1), (-1, -2)):
        turned = np.real(f[:, end] * np.conj(f[:, node])) < 0
        miss += np.where(turned, 2.0 * gap * np.abs(f[:, end]), 0.0)
    return total, miss


def _gauss_abs_integrals(terms: Sequence[Term], a: np.ndarray,
                         b: np.ndarray) -> np.ndarray:
    """Adaptive Gauss-Legendre int |f| over each finite [a_i, b_i].

    Each interval starts with one panel per half period of the fastest
    term.  A panel is bisected while its halves, plus what they may miss
    at their ends, differ from it by more than the quad tolerances (1e-12
    relative, 1e-13 * coef scale per unit length); all live panels are
    evaluated in one eval_terms call.
    """
    n = a.size
    wmax = max((abs(w) for _, _, w in terms), default=0.0)
    tol_abs = _QUAD_KW["epsabs"] * max(
        (abs(complex(c)) for c, _, _ in terms), default=0.0)
    k = np.clip(np.ceil(wmax * (b - a) / math.pi), 1, _PANEL_BUDGET + 1
                ).astype(np.int64)
    fallback = k > _PANEL_BUDGET
    k[fallback] = 0
    used = k.copy()
    owner = np.repeat(np.arange(n), k)
    j = np.arange(owner.size) - np.repeat(np.cumsum(k) - k, k)
    kj, aj, wj = k[owner], a[owner], (b - a)[owner]
    u = aj + wj * (j / kj)
    v = np.where(j + 1 == kj, b[owner], aj + wj * ((j + 1) / kj))
    whole = _gauss_abs(terms, u, v)[0]
    out = np.zeros(n)
    while owner.size:
        mid = 0.5 * (u + v)
        halves, miss = _gauss_abs(terms, np.concatenate([u, mid]),
                                  np.concatenate([mid, v]))
        left, right = halves[:owner.size], halves[owner.size:]
        est = left + right
        err = np.abs(est - whole) + miss[:owner.size] + miss[owner.size:]
        ok = err <= np.maximum(_QUAD_KW["epsrel"] * est, tol_abs * (v - u))
        out += np.bincount(owner[ok], est[ok], minlength=n)
        used += 2 * np.bincount(owner[~ok], minlength=n)
        spent = used > _PANEL_BUDGET
        fallback |= spent
        split = ~ok & ~spent[owner]
        owner = np.concatenate([owner[split], owner[split]])
        u, v = (np.concatenate([u[split], mid[split]]),
                np.concatenate([mid[split], v[split]]))
        whole = np.concatenate([left[split], right[split]])
    for i in np.flatnonzero(fallback):
        out[i] = quad(lambda x: abs(complex(eval_terms(terms, x))),
                      a[i], b[i], **_QUAD_KW)[0]
    return out


def variation(pieces: Sequence[Piece], lo, hi):
    """Total variation over each band [lo_i, hi_i), hi may be inf: the
    integral of |f'| plus |jump| at every cut c with lo <= c < hi; inf when
    the slope part diverges.  Scalar lo and hi mean one band and give a
    float; arrays give an array from one abs_integrals call per piece.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    total = np.zeros(lo.shape)
    for a, b, terms in pieces:
        u, v = np.maximum(lo, a), np.minimum(hi, b)
        hit = u < v
        if hit.any():
            total[hit] += abs_integrals(derivative_terms(terms), u[hit],
                                        v[hit])
    for c, left, right in cut_values(pieces):
        total[(lo <= c) & (c < hi)] += abs(left - right)
    return float(total[0]) if scalar else total
