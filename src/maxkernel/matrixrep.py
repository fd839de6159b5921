"""Periodic-symbol matrix representations and the exact exponential spectrum.

Two objects live here.  First, the weighted Hankel-type matrix built from
Fourier coefficients of a periodic symbol,

    b_{m,n} = a_{m+n+1} * (1/(m+1/2) + 1/(n+1/2)),      m, n in [-M, M],

whose Schatten properties track those of the operator on one doubled period.
Second, the exact singular values of the periodized operator attached to the
oscillating symbol phi_N = e^{2 pi i N x} on (0, 1]:

    |g_N^(k)| = 1 at k = +-N,  4N / (pi |N^2 - k^2|) when k and N have
    opposite parity, and 0 otherwise,

together with the index-shift bounds s_n(Q) <= s_n(T') and
s_{4n}(T') <= 4 s_n(Q) that carry them over to the half-line operator.
Schatten sums of that sequence are evaluated exactly: a finite block
directly, the rest by the binomial expansion of (k^2 - N^2)^(-p) summed
with Hurwitz zeta functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import svdvals
from scipy.special import zeta

from ._piecewise import add_freq, integrate_terms, not_integrable
from .discretize import SpectrumEstimate
from .symbols import Interval, Symbol, TrigPoly, support, to_pieces

__all__ = [
    "FourierCoefficients", "HankelWindow", "fourier_coeffs", "hankel_window",
    "hankel_svals", "circle_kernel_coeffs", "exp_symbol_svals",
    "exp_schatten_norm", "exp_parseval", "exp_symbol_growth",
]


@dataclass(frozen=True)
class FourierCoefficients:
    period: float
    values: np.ndarray  # length 2M+1, index n = -M..M

    @property
    def order(self) -> int:
        return (len(self.values) - 1) // 2

    def __getitem__(self, n: int) -> complex:
        M = self.order
        if -M <= n <= M:
            return complex(self.values[n + M])
        return 0.0

    def conjugate_defect(self) -> float:
        """max |a_{-n} - conj(a_n)|; zero iff the symbol is real a.e."""
        v = self.values
        return float(np.max(np.abs(v[::-1] - np.conj(v))))


@dataclass(frozen=True)
class HankelWindow:
    order: int
    entries: np.ndarray  # (2M+1) x (2M+1), index m, n = -M..M
    coverage: float      # fraction of coefficient energy reachable


def fourier_coeffs(s: Symbol, M: int, period: float = None
                   ) -> FourierCoefficients:
    """a_n = (1/b) int_0^b phi(t) e^(-2 pi i n t / b) dt for |n| <= M.

    Closed form piece by piece; a TrigPoly at its own period passes through
    exactly.  The integration window is one period [0, b] regardless of how
    far the support extends.  phi not integrable at 0 raises ValueError.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    if period is None:
        period = s.period if isinstance(s, TrigPoly) else support(s).hi
    b = float(period)
    if not (b > 0 and math.isfinite(b)):
        raise ValueError("need a positive finite period")
    if isinstance(s, TrigPoly) and s.period == b:
        out = np.zeros(2 * M + 1, dtype=complex)
        Ms = s.order
        for n in range(-min(M, Ms), min(M, Ms) + 1):
            out[n + M] = s.coeffs[n + Ms]
        return FourierCoefficients(b, out)
    if not_integrable(to_pieces(s)) == "near the origin":
        raise ValueError("phi is not integrable near the origin")
    pieces = [(a, min(bb, b), t) for a, bb, t in to_pieces(s) if a < b]
    out = np.zeros(2 * M + 1, dtype=complex)
    base = -2.0 * math.pi / b
    for n in range(-M, M + 1):
        acc = 0.0 + 0.0j
        for a, bb, terms in pieces:
            shifted = add_freq(terms, base * n)
            try:
                acc += integrate_terms(shifted, a, bb)
            except ValueError as e:
                raise ValueError(f"quadrature-failure: {e}") from e
        out[n + M] = acc / b
    return FourierCoefficients(b, out)


def _default_window(c: FourierCoefficients) -> int:
    """4x the coefficient support."""
    v = np.abs(np.asarray(c.values)) ** 2
    M = c.order
    nz = np.flatnonzero(v > 0.0)
    if len(nz) == 0:
        return 1
    return max(1, 4 * int(max(abs(nz.min() - M), abs(nz.max() - M))))


def hankel_window(c: FourierCoefficients, M: int = None) -> HankelWindow:
    """Weighted coefficient matrix b_{m,n} on the index window [-M, M]^2.

    Coefficients a_{m+n+1} outside the known window count as zero; the
    coverage field reports which fraction of the coefficient energy the
    window can reach (index m+n+1 spans [-2M+1, 2M+1]).
    """
    if M is None:
        M = _default_window(c)
    if M < 1:
        raise ValueError("M must be >= 1")
    idx = np.arange(-M, M + 1)
    wgt = 1.0 / (idx + 0.5)
    a = np.array([c[k] for k in range(-2 * M + 1, 2 * M + 2)])
    ent = a[idx[:, None] + idx[None, :] + 2 * M] \
        * (wgt[:, None] + wgt[None, :])
    v = np.abs(np.asarray(c.values)) ** 2
    total = float(v.sum())
    Mc = c.order
    reach = [k for k in range(-2 * M + 1, 2 * M + 2) if -Mc <= k <= Mc]
    got = float(sum(v[k + Mc] for k in reach))
    coverage = 1.0 if total == 0.0 else got / total
    if math.isnan(coverage):
        raise ValueError("window coverage is NaN: the coefficient energy "
                         "overflows")
    return HankelWindow(M, ent, coverage)


def hankel_svals(hw: HankelWindow) -> np.ndarray:
    return svdvals(hw.entries)


def circle_kernel_coeffs(c: FourierCoefficients, m: int, n: int) -> complex:
    """Double Fourier coefficient of the circle kernel at (m, n).

    Defined for period 2 (the circle of circumference 2): a_0 at the origin,
    half coefficients on the axes at even index, the weighted odd-odd body,
    and 0 wherever the parity conditions fail.
    """
    if abs(c.period - 2.0) > 1e-12:
        raise ValueError("circle kernel coefficients need period 2")
    if m == 0 and n == 0:
        return c[0]
    if n == 0:
        return 0.5 * c[m // 2] if m % 2 == 0 else 0.0
    if m == 0:
        return 0.5 * c[n // 2] if n % 2 == 0 else 0.0
    if m % 2 == 1 and n % 2 == 1:
        return (1j / math.pi) * (1.0 / m + 1.0 / n) * c[(m + n) // 2]
    return 0.0


# ---------------------------------------------------------------------------
# the oscillating exponential symbol


def _exp_seq_values(N: int, kmax: int) -> np.ndarray:
    """|g_N^(k)| for k = -kmax..kmax (index k + kmax)."""
    k = np.arange(-kmax, kmax + 1)
    vals = np.zeros(len(k))
    opp = (np.abs(k) % 2) != (N % 2)
    with np.errstate(divide="ignore"):
        vals[opp] = 4.0 * N / (math.pi * np.abs(N * N - k[opp] ** 2))
    vals[np.abs(k) == N] = 1.0
    return vals


def exp_symbol_svals(N: int, K: int) -> SpectrumEstimate:
    """First K singular values of the periodized exponential-symbol operator.

    The sequence is exact; the estimate's meta carries the transfer bounds
    onto the half-line operator: "upper" dominates s_n(Q) index by index,
    "lower" is s_{4n}(T')/4 <= s_n(Q).
    """
    if N < 1 or K < 1:
        raise ValueError("need N >= 1 and K >= 1")
    kmax = N + 2 * (4 * K + 64)
    sv = np.sort(_exp_seq_values(N, kmax))[::-1]
    upper = sv[:K]
    lower = 0.25 * sv[4 * np.arange(K)]
    return SpectrumEstimate(upper, "exp_exact", K, Interval(0.0, 1.0),
                            meta={"N": N, "upper": upper, "lower": lower})


def _parity_zeta(s_exp: float, k0: int, parity: int) -> float:
    """sum over k >= k0 with k % 2 == parity of k^(-s); k0 even."""
    assert k0 % 2 == 0
    total = float(zeta(s_exp, k0))
    even = 2.0 ** (-s_exp) * float(zeta(s_exp, k0 // 2))
    return even if parity == 0 else total - even


def _tail_sum(N: int, p: float, k0: int, parity: int) -> float:
    """sum over k >= k0, k % 2 == parity of (k^2 - N^2)^(-p), exact via the
    binomial expansion in (N/k)^2; requires k0 > 2N for fast convergence."""
    total = 0.0
    coef = 1.0
    for j in range(400):
        term = coef * float(N) ** (2 * j) \
            * _parity_zeta(2.0 * p + 2.0 * j, k0, parity)
        total += term
        if term <= 1e-18 * total:
            return total
        coef *= (p + j) / (j + 1.0)
    raise RuntimeError("binomial tail did not converge")


def exp_schatten_norm(N: int, p: float) -> float:
    """Exact Schatten-p norm of the periodized exponential-symbol sequence.

    Infinite for p <= 1/2 (the sequence decays exactly like k^-2).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if p <= 0.5:
        return math.inf
    parity = (N + 1) % 2
    k0 = 4 * N + 64
    if k0 % 2 == 1:
        k0 += 1
    body = 2.0  # k = +-N contribute 1^p each
    amp = (4.0 * N / math.pi) ** p
    for k in range(-k0 + 1, k0):
        if abs(k) == N or abs(k) % 2 != parity:
            continue
        body += amp / abs(N * N - k * k) ** p
    tail = 2.0 * amp * _tail_sum(N, p, k0, parity)
    return (body + tail) ** (1.0 / p)


def exp_parseval(N: int) -> tuple[float, float]:
    """(sum_k |g_N^(k)|^2, 2 * int_{-1}^{1} |g_N|^2 by quadrature)."""
    seq = exp_schatten_norm(N, 2.0) ** 2
    mass, _ = quad(lambda x: abs(np.exp(2j * math.pi * N * abs(x))) ** 2,
                   -1.0, 1.0, limit=200, epsabs=1e-14)
    return seq, 2.0 * mass


def exp_symbol_growth(N_list, ps=(1.0, 0.75)) -> list[dict]:
    """Growth table of exact Schatten norms against the predicted rates
    log(N+1) for p = 1 and N^((1-p)/p) otherwise."""
    rows = []
    for N in N_list:
        for p in ps:
            norm = exp_schatten_norm(N, p)
            ref = math.log(N + 1.0) if p == 1.0 else float(N) ** ((1 - p) / p)
            rows.append({"N": int(N), "p": float(p), "norm": norm,
                         "reference": ref, "ratio": norm / ref})
    return rows
