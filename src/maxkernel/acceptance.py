"""End-to-end acceptance checks: the runnable contract of this package.

Each check pins one advertised capability to a concrete tolerance against an
independent reference (closed-form spectra, exact integrals, dense linear
algebra, or a calibration recorded when the suite was first brought up).
The same functions back both the test suite and ``maxkernel verify``.

Checks accept an optional ``tol`` override; when given it replaces the
check's primary tolerance and is echoed in the result detail.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import classify, discretize, matrixrep, sturm
from ._scipy import eigh, svdvals
from .symbols import (Interval, PiecewisePoly, Sampled, Step, Symbol,
                      TrigPoly, support)

__all__ = ["CheckResult", "CHECKS", "FAMILIES", "run_checks"]

_SEED = 20260815


@dataclass(frozen=True)
class CheckResult:
    name: str
    family: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: {self.detail} [{self.elapsed:.2f}s]"


# family -> check, in the order `maxkernel verify` runs them
CHECKS: dict = {}


def _check(name: str, family: str):
    """Register a check under its family, the one place either is named.

    The check returns (passed, detail); the registered function times it
    and wraps the pair in a CheckResult; the body is read from __wrapped__
    at each call, so it can be stubbed."""
    def register(fn):
        @functools.wraps(fn)
        def run(tol=None) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = run.__wrapped__(tol)
            return CheckResult(name, family, passed, detail,
                               time.perf_counter() - t0)
        CHECKS[family] = run
        return run
    return register


# fixed reference symbols used across several checks
_AFFINE = PiecewisePoly([1.0], [[1.0, -1.0]])            # 1 - x
_SQUARE = PiecewisePoly([1.0], [[1.0, -2.0, 1.0]])       # (1 - x)^2
_TENT = PiecewisePoly([0.5, 1.0], [[1.0], [2.0, -2.0]])  # min(1, 2(1-x))
_INDICATOR = Step([1.0], [1.0])

# shared eigenvalue solves (the sturm runs for the square symbol dominate
# the suite's cost; trace and asymptotics reuse one solve per symbol)
_EIG_K = 201
_eig_cache: dict = {}


def _eigs(s: Symbol, key: str):
    if key not in _eig_cache:
        _eig_cache[key] = sturm.eigenvalues(s, _EIG_K)
    return _eig_cache[key]


@_check("exact-spectrum", "sturm")
def check_exact_spectrum(tol=None):
    """Shooting eigenvalues of the affine symbol hit the closed form
    pi^-2 (n+1/2)^-2, and the Galerkin discretization reproduces them."""
    rtol = 1e-8 if tol is None else tol
    t0 = time.perf_counter()
    res = _eigs(_AFFINE, "affine")[:21]
    solve_t = time.perf_counter() - t0
    lam = np.array([r.lam for r in res])
    n = np.arange(21)
    exact = 1.0 / (np.pi * (n + 0.5)) ** 2
    dev = float(np.max(np.abs(lam / exact - 1.0)))
    gm = discretize.galerkin_matrix(_AFFINE, n=4096)
    sv, _ = discretize.singular_values(gm, 21)
    dev_g = float(np.max(np.abs(sv[:21] / exact - 1.0)))
    ok = dev < rtol and solve_t < 5.0 and dev_g < 1e-3
    return ok, (
        f"n<=20 vs closed form rel {dev:.2e} (tol {rtol:.0e}) in "
        f"{solve_t:.2f}s; n=4096 discretization rel {dev_g:.2e} (tol 1e-03)")


@_check("trace-identity", "trace")
def check_trace_identity(tol=None):
    """Eigenvalue sums with fitted tails reproduce int phi for the three
    reference shapes."""
    rtol = 1e-4 if tol is None else tol
    worst, parts = 0.0, []
    for key, s in (("affine", _AFFINE), ("square", _SQUARE),
                   ("tent", _TENT)):
        total, info = sturm.sum_with_tail(s, K=200,
                                          precomputed=_eigs(s, key))
        target = classify.trace_value(s).real
        rel = abs(total - target) / abs(target)
        worst = max(worst, rel)
        parts.append(f"{key} {rel:.2e}")
    return worst < rtol, (
        f"sum+tail vs int phi rel: {', '.join(parts)} (tol {rtol:.0e})")


def _hs_corpus():
    return [
        ("affine", _AFFINE), ("square", _SQUARE), ("tent", _TENT),
        ("indicator", _INDICATOR),
        ("two-step", Step([1.0, 2.0], [2.0, 1.0])),
        ("three-step", Step([0.5, 1.5, 2.5], [3.0, 2.0, 1.0])),
        ("inv-square-tail", PiecewisePoly([1.0], [()], tail=[(1.0, -2)])),
        ("hat", Sampled((0.25, 0.5, 1.0), (0.0, 1.0, 0.0), "pl")),
        ("cosine", TrigPoly(1.0, [0.5, 0.0, 0.5])),
        ("wave", TrigPoly(1.0, [0.0, 0.0, 1.0])),
    ]


@_check("hs-norm", "s2")
def check_hs_norm(tol=None):
    """Frobenius norms of the Galerkin compression (from its generators,
    in O(n)) converge to the Hilbert-Schmidt closed form
    (2 int x |phi|^2)^(1/2) on a 10-symbol corpus; 1 percent at the finest
    level."""
    rtol = 1e-2 if tol is None else tol
    worst, worst_name = 0.0, ""
    for name, s in _hs_corpus():
        target = classify.s2_norm(s)
        sup = support(s)
        hi = sup.hi if math.isfinite(sup.hi) \
            else discretize.truncation_point(s, 1e-2)
        errs = []
        for n in (512, 1024, 2048):
            gm = discretize.galerkin_matrix(s, interval=Interval(0.0, hi),
                                            n=n)
            frob = gm.frobenius_norm()
            errs.append(abs(frob - target) / target)
        if errs[-1] > worst:
            worst, worst_name = errs[-1], name
    return worst < rtol, (
        f"10 symbols, finest-level Frobenius vs closed form: worst rel "
        f"{worst:.2e} ({worst_name}) (tol {rtol:.0e})")


@_check("asymptotics", "asymptotics")
def check_asymptotics(tol=None):
    """n^2 lambda_n approaches the squared quarter-wave action for smooth
    shapes; step spectra collapse to numerical zero instead."""
    band = 0.05 if tol is None else tol
    worst, parts = 0.0, []
    for key, s in (("affine", _AFFINE), ("square", _SQUARE),
                   ("tent", _TENT)):
        C = sturm.asymptotic_constant(s)
        res = _eigs(s, key)
        lam = np.array([r.lam for r in res])
        n = np.arange(50, 201)
        dev = float(np.max(np.abs(n ** 2 * lam[n] / C - 1.0)))
        worst = max(worst, dev)
        parts.append(f"{key} {dev:.3f}")
    gm = discretize.galerkin_matrix(Step([1.0, 2.0], [2.0, 1.0]), n=512)
    sv, _ = discretize.singular_values(gm)
    step_ok = 100.0 ** 2 * sv[100] < 0.01 * sv[0]
    return worst < band and step_ok, (
        f"max |n^2 lam_n / C - 1| on [50,200]: {', '.join(parts)} "
        f"(band {band}); step n^2 s_100 / s_0 = "
        f"{100.0 ** 2 * sv[100] / sv[0]:.1e} (< 0.01)")


@_check("volterra-limit", "volterra")
def check_volterra_limit(tol=None):
    """Triangular truncations of the indicator have n s_n -> 1/pi, and the
    extrapolated values match (pi (n+1/2))^-1 index by index."""
    ptol = 1e-3 if tol is None else tol
    tl = discretize.triangular_limit(_INDICATOR)
    plateau_dev = abs(tl.plateau - 1.0 / math.pi)
    lo, hi = tl.window
    n = np.arange(lo, hi + 1)
    exact = 1.0 / (math.pi * (n + 0.5))
    idx_dev = float(np.max(np.abs(tl.per_index / exact - 1.0)))
    ok = plateau_dev < ptol and idx_dev < 1e-4
    return ok, (
        f"plateau |n s_n - 1/pi| = {plateau_dev:.2e} (tol {ptol:.0e}); "
        f"per-index vs (pi(n+1/2))^-1 rel {idx_dev:.2e} (tol 1e-04) "
        f"on [{lo},{hi}]")


# calibration recorded at first build: singular values of the oscillating
# symbol against the envelope min(1/(n+1), N/(n+1)^2), N in {1,...,256}
_EXP_SHAPE_BAND = (0.99, 10.7)
_EXP_NS = (1, 4, 16, 64, 256)


@_check("exp-growth", "exp")
def check_exp_growth(tol=None):
    """Pure-oscillation symbols: singular values track the two-sided
    envelope, trace norms grow like log N, and the squared Schatten-2 norm
    equals the Parseval integral."""
    ptol = 1e-12 if tol is None else tol
    lo_band, hi_band = _EXP_SHAPE_BAND
    shape_lo, shape_hi = math.inf, 0.0
    ratios = []
    parseval_dev = 0.0
    for N in _EXP_NS:
        est = matrixrep.exp_symbol_svals(N, 600)
        n = np.arange(len(est.svals))
        env = np.minimum(1.0 / (n + 1.0), N / (n + 1.0) ** 2)
        q = est.svals / env
        shape_lo, shape_hi = min(shape_lo, q.min()), max(shape_hi, q.max())
        ratios.append(matrixrep.exp_schatten_norm(N, 1.0)
                      / math.log(N + 1.0))
        series, integral = matrixrep.exp_parseval(N)
        parseval_dev = max(parseval_dev,
                           abs(series - integral) / abs(integral))
    bracket = max(ratios) / min(ratios)
    ok = (lo_band <= shape_lo and shape_hi <= hi_band
          and bracket < 4.0 and parseval_dev < ptol)
    return ok, (
        f"shape band [{shape_lo:.2f}, {shape_hi:.2f}] within "
        f"[{lo_band}, {hi_band}]; S1/log(N+1) bracket {bracket:.3f} (< 4); "
        f"Parseval rel dev {parseval_dev:.1e} (tol {ptol:.0e})")


def _random_step(rng) -> Step:
    n = int(rng.integers(1, 13))
    cuts = np.cumsum(rng.uniform(0.1, 1.0, size=n))
    vals = np.empty(n)
    for i in range(n):
        while True:
            v = float(rng.uniform(-2.0, 2.0))
            prev = vals[i - 1] if i else None
            if abs(v) > 0.05 and (prev is None or abs(v - prev) > 0.05):
                vals[i] = v
                break
    return Step(cuts, vals)


def _step_gram_svals(s: Step) -> np.ndarray:
    """A step's singular values apart from the Galerkin route: those of
    G^(1/2) diag(c) G^(1/2), c the jumps v_i - v_(i+1) at the canonical
    breakpoints x_i (v_(N+1) = 0) and G_ij = min(x_i, x_j)."""
    st = classify.canonical_step(s)
    x, v = np.asarray(st.breakpoints), np.asarray(st.values)
    c = v - np.concatenate([v[1:], [0.0]])
    lam, U = eigh(np.minimum.outer(x, x))
    root = (U * np.sqrt(np.maximum(lam, 0.0))) @ U.T
    return svdvals((root * c) @ root)


@_check("step-rank", "steps")
def check_step_rank(tol=None):
    """Random step symbols: the step spectrum has exactly rank-many values,
    and it and a refined breakpoint-conforming grid match the Gram oracle."""
    rtol = 1e-8 if tol is None else tol
    rng = np.random.default_rng(_SEED)
    worst, count_ok = 0.0, True
    for _ in range(50):
        s = _random_step(rng)
        exact = _step_gram_svals(s)
        est = discretize.step_exact_spectrum(s).svals
        rank = len(s.values)
        if np.sum(est > 1e-12 * est[0]) != rank:
            count_ok = False
        # conforming grid: union of breakpoints and a uniform refinement
        b = s.breakpoints[-1]
        nodes = np.unique(np.concatenate(
            [np.linspace(0.0, b, 257), [0.0], s.breakpoints]))
        gm = discretize.galerkin_matrix(s, grid=nodes)
        sv, _ = discretize.singular_values(gm)
        worst = max(worst, float(np.max(np.abs(est / exact - 1.0))),
                    float(np.max(np.abs(sv[:rank] / exact - 1.0))))
    return count_ok and worst < rtol, (
        f"50 random steps: rank counts {'exact' if count_ok else 'WRONG'} "
        f"above 1e-12 s_0; breakpoint and refined grids vs Gram oracle rel "
        f"{worst:.2e} (tol {rtol:.0e})")


@_check("kronecker-det", "kronecker")
def check_kronecker_det(tol=None):
    """Telescoping determinant of {a_max(i,j)} against dense LU."""
    rtol = 1e-12 if tol is None else tol
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        fast = classify.kronecker_det(a)
        idx = np.arange(n)
        dense = complex(np.linalg.det(
            a[np.maximum(idx[:, None], idx[None, :])]))
        scale = max(abs(fast), abs(dense))
        worst = max(worst, abs(fast - dense) / scale)
    return worst < rtol, (
        f"1000 random complex vectors, n<=8: rel dev {worst:.2e} "
        f"(tol {rtol:.0e})")


def _random_decreasing_pl(rng) -> PiecewisePoly:
    k = int(rng.integers(2, 7))
    cuts = np.cumsum(rng.uniform(0.2, 1.0, size=k))
    vals = np.sort(rng.uniform(0.0, 3.0, size=k))[::-1]
    vals = np.append(vals, 0.0)  # reach zero at the right end
    xs = np.concatenate([[0.0], cuts])
    pieces = []
    for i in range(k):
        m = (vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i])
        pieces.append([vals[i] - m * xs[i], m])
    return PiecewisePoly(cuts, pieces)


@_check("positivity", "positivity")
def check_positivity(tol=None):
    """Nonincreasing nonnegative symbols give positive semidefinite
    compressions up to roundoff."""
    slack = 1e-10 if tol is None else tol
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(20):
        s = _random_decreasing_pl(rng)
        gm = discretize.galerkin_matrix(s, n=512)
        _, eigs = discretize.singular_values(gm)
        worst = max(worst, -float(eigs.min()) / float(np.abs(eigs).max()))
    return worst < slack, (
        f"20 random nonincreasing shapes: min eig > -{worst:.1e} s_0 "
        f"(tol {slack:.0e})")


@_check("factorization", "factorization")
def check_factorization(tol=None):
    """The square-root factor of the kernel reproduces the compression:
    residual small and decreasing under refinement."""
    rtol = 1e-3 if tol is None else tol
    ok, parts = True, []
    for key, s in (("affine", _AFFINE), ("square", _SQUARE)):
        resid = [discretize.factor_residual(s, n=n)
                 for n in (512, 1024, 2048)]
        if resid[-1] >= rtol or not (resid[0] > resid[1] > resid[2]):
            ok = False
        parts.append(f"{key} {resid[0]:.1e}->{resid[1]:.1e}->{resid[2]:.1e}")
    return ok, (
        f"residual at n=512/1024/2048: {', '.join(parts)} "
        f"(tol {rtol:.0e} at finest, decreasing)")


@_check("schatten-verdicts", "classify")
def check_schatten_verdicts(tol=None):
    """Classifier verdicts agree with computed spectra: in-verdicts have
    bounded weak norms, and the divergent reference symbol shows monotone
    non-summable partial sums."""
    pairs = [("affine", _AFFINE, 1.0), ("square", _SQUARE, 1.0),
             ("tent", _TENT, 1.0), ("indicator", _INDICATOR, 0.4),
             ("inv-square-tail",
              PiecewisePoly([1.0], [()], tail=[(1.0, -2)]), 1.0)]
    in_ok, bounded_ok = True, True
    for name, s, p in pairs:
        v = classify.classify_schatten(s, p)
        if not v.definitely_in:
            in_ok = False
            continue
        sup = support(s)
        hi = sup.hi if math.isfinite(sup.hi) \
            else discretize.truncation_point(s, 1e-2)
        gm = discretize.galerkin_matrix(s, interval=Interval(0.0, hi),
                                        n=1024)
        sv, _ = discretize.singular_values(gm)
        w = sv * (1.0 + np.arange(len(sv))) ** (1.0 / p)
        m = len(w) // 2
        if w[m:].max() > w[:m].max():
            bounded_ok = False
    diverger = PiecewisePoly([1.0], [()], tail=[(1.0, -1)])
    out_ok = classify.classify_schatten(diverger, 1.0).definitely_out
    sums = []
    for X in (8.0, 32.0, 128.0, 512.0):
        nodes = np.concatenate([[0.0], np.geomspace(1.0, X, 513)])
        gm = discretize.galerkin_matrix(diverger, grid=nodes)
        sv, _ = discretize.singular_values(gm)
        sums.append(float(sv.sum()))
    inc = np.diff(sums)
    diverging = bool(np.all(inc > 0) and inc[-1] > 0.8 * inc[0])
    ok = in_ok and bounded_ok and out_ok and diverging
    return ok, (
        f"5 in-verdicts with bounded weak norms: "
        f"{in_ok and bounded_ok}; divergent tail symbol: verdict out "
        f"{out_ok}, partial sums {', '.join(f'{v:.2f}' for v in sums)} "
        f"monotone non-summable {diverging}")


# calibration recorded at first build: periodic cosine on a two-period
# window, count threshold 0.08 s_0 and per-index ratio band of the matrix
# representation against the dense compression
_CROSS_TAU = 0.08
_CROSS_COUNTS = (8, 5)
_CROSS_BAND = (0.5, 6.0)


@_check("cross-representation", "hankel")
def check_cross_representation(tol=None):
    """The Fourier-side window and the dense compression see the same
    spectrum for a periodic symbol, up to the recorded calibration."""
    s = TrigPoly(1.0, [0.5, 0.0, 0.5], periodic=True)
    est = discretize.spectrum(s, interval=(0.0, 2.0), n0=512, tol=5e-6,
                              K=32)
    sg = est.svals
    c = matrixrep.fourier_coeffs(s, 64, period=2.0)
    hw = matrixrep.hankel_window(c)
    sh = matrixrep.hankel_svals(hw)
    thr = _CROSS_TAU * sg[0]
    ch, cg = int(np.sum(sh > thr)), int(np.sum(sg > thr))
    k = min(ch, cg)
    r = sh[:k] / sg[:k]
    lo, hi = _CROSS_BAND
    ok = ((ch, cg) == _CROSS_COUNTS and hw.coverage > 0.999
          and bool(np.all((r >= lo) & (r <= hi))))
    return ok, (
        f"counts above {_CROSS_TAU} s_0: window {ch}, dense {cg} "
        f"(recorded {_CROSS_COUNTS}); ratio range [{r.min():.2f}, "
        f"{r.max():.2f}] within [{lo}, {hi}]; coverage {hw.coverage:.3f}")


FAMILIES = tuple(CHECKS)


def run_checks(only=None, tol=None) -> list[CheckResult]:
    """Run the acceptance checks, optionally restricted to some families.

    only is a family name or a comma-separated list of them.  tol, when
    given, overrides the primary tolerance of every check run (meant for
    exploratory use with only=; the defaults are the contract).
    """
    wanted = None
    if only is not None:
        wanted = {f.strip() for f in only.split(",") if f.strip()}
        unknown = sorted(wanted - set(FAMILIES))
        if unknown or not wanted:
            bad = ", ".join(repr(u) for u in unknown) or repr(only)
            raise ValueError(f"unknown family {bad}; choose from "
                             + ", ".join(FAMILIES))
    return [check(tol=tol) for family, check in CHECKS.items()
            if wanted is None or family in wanted]
