import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxkernel import classify
from maxkernel.symbols import PiecewisePoly, Sampled, Step, TrigPoly, \
    to_pieces


def test_s2_norm_closed_forms(affine, square, tent, indicator, two_step,
                              inv_square_tail):
    # (2 int x phi^2)^(1/2), all integrals done by hand
    assert classify.s2_norm(affine) == pytest.approx(math.sqrt(1 / 6))
    assert classify.s2_norm(square) == pytest.approx(math.sqrt(1 / 15))
    assert classify.s2_norm(tent) == pytest.approx(math.sqrt(11 / 24))
    assert classify.s2_norm(indicator) == pytest.approx(1.0)
    assert classify.s2_norm(two_step) == pytest.approx(math.sqrt(7.0))
    assert classify.s2_norm(inv_square_tail) == pytest.approx(1.0)


def test_l1_norm(affine, two_step, inv_square_tail, cosine):
    assert classify.l1_norm(affine) == pytest.approx(0.5)
    assert classify.l1_norm(two_step) == pytest.approx(3.0)
    assert classify.l1_norm(inv_square_tail) == pytest.approx(1.0)
    # int_0^1 |cos 2 pi t| = 2/pi, handled by sign-split quadrature
    assert classify.l1_norm(cosine) == pytest.approx(2 / math.pi, rel=1e-9)


def test_l1_norm_divergent(inv_tail):
    with pytest.raises(ValueError):
        classify.l1_norm(inv_tail)


@pytest.mark.parametrize("p", [1.0, 0.75, 0.6])
def test_y_p_norm_closed_forms(p, affine, indicator, inv_square_tail):
    # 1 - x: v_n = 2^n for n <= -1, so sum_k 4^(-kp) = 1 / (4^p - 1)
    assert classify.y_p_norm(affine, p) == \
        pytest.approx((4.0 ** p - 1.0) ** (-1.0 / p), rel=1e-13)
    # one unit jump at 1, in band 0
    assert classify.y_p_norm(indicator, p) == pytest.approx(1.0, rel=1e-15)
    # x^-2 on (1, inf): jump 1 plus slope 3/4 in band 0, then
    # 2^n (4^-n - 4^-(n+1)) = 0.75 * 2^-n in band n >= 1
    closed = (1.75 ** p + 0.75 ** p / (2.0 ** p - 1.0)) ** (1.0 / p)
    assert classify.y_p_norm(inv_square_tail, p) == \
        pytest.approx(closed, rel=1e-13)


def test_y_p_norm_top_band_runs_to_infinity():
    # a unit drop at 1e308, past 2^1023: its band [2^1023, 2^1024) has an
    # upper edge beyond the floats, so it runs to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify.y_p_norm(Step([1e308], [-1.0]), 1.0) == 2.0 ** 1023


@pytest.mark.parametrize("p", [1.0, 0.75, 0.6])
def test_y_p_norm_cosine_band_series(p, cosine):
    # cos 2 pi x on (0, 1]: the unit jump to 0 at 1 in band 0, variation 2
    # on [1/2, 1), and cos(2 pi 2^n) - cos(2 pi 2^(n+1))
    # = 2 sin(3 pi 2^n) sin(pi 2^n) on every band n <= -2
    series = 1.0 + (0.5 * 2.0) ** p + math.fsum(
        (2.0 ** n * 2.0 * math.sin(3 * math.pi * 2.0 ** n)
         * math.sin(math.pi * 2.0 ** n)) ** p for n in range(-2, -80, -1))
    assert classify.y_p_norm(cosine, p) == \
        pytest.approx(series ** (1.0 / p), rel=1e-12)


def test_trace_value(affine, tent, inv_square_tail, inv_tail):
    assert classify.trace_value(affine).real == pytest.approx(0.5)
    assert classify.trace_value(tent).real == pytest.approx(0.75)
    assert classify.trace_value(inv_square_tail).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        classify.trace_value(inv_tail)


def test_tail_functional(inv_square_tail, affine):
    # x * int_x^inf t^-4 dt = x^-2 / 3
    assert classify.tail_functional(inv_square_tail, 2.0) == \
        pytest.approx(1 / 12)
    assert classify.tail_functional(affine, 1.0) == 0.0
    with pytest.raises(ValueError):
        classify.tail_functional(affine, -1.0)


def test_bounded_compact_verdicts(inv_tail, inv_square_tail, affine):
    assert classify.is_bounded(inv_tail).definitely_in
    assert classify.is_compact(inv_tail).definitely_out
    assert classify.is_compact(inv_square_tail).definitely_in
    assert classify.is_bounded(affine).definitely_in


def test_schatten_verdicts(affine, indicator, inv_tail, inv_square_tail):
    assert classify.classify_schatten(affine, 2.0).definitely_in
    assert classify.classify_schatten(affine, 1.0).definitely_in
    v = classify.classify_schatten(affine, 0.4)
    assert v.definitely_out and v.criterion == "smooth-slope-exclusion"
    v = classify.classify_schatten(indicator, 0.3)
    assert v.definitely_in and v.criterion == "finite-rank-step"
    v = classify.classify_schatten(inv_tail, 1.0)
    assert v.definitely_out and v.criterion == "xp-divergence"
    assert classify.classify_schatten(inv_square_tail, 1.0).definitely_in


@pytest.mark.parametrize("s, p", [
    (TrigPoly(1.0, [2.0], periodic=True), 0.4),
    (PiecewisePoly([1.0], [[-1.0, 3.0]], lowest=[-1]), 1.0),
    (PiecewisePoly([1.0, 2.0], [[1.0], [-1.0]], lowest=[-1, 0]), 1.0),
], ids=["constant-periodic", "laurent-origin", "laurent-origin-two-pieces"])
def test_non_compact_is_out_before_numeric_criteria(monkeypatch, s, p):
    calls, dini = [], classify.dini_integral

    def counted(*args, **kw):
        calls.append(args)
        return dini(*args, **kw)

    monkeypatch.setattr(classify, "dini_integral", counted)
    assert classify.is_compact(s).definitely_out
    v = classify.classify_schatten(s, p)
    assert (v.verdict, v.criterion) == ("out", "xp-divergence")
    assert v.norms == {"x_p": math.inf}
    assert calls == []


def test_tail_limits_from_phi_end_power():
    # |phi|^2 = 1e-400 x^-4 underflows to no term; phi's own power decides
    tiny = PiecewisePoly([1.0], [()], tail=[(1e-200, -2)])
    assert classify.tail_functional_limits(tiny) == (0.0, 0.0)
    assert classify.is_bounded(tiny).definitely_in
    assert classify.classify_schatten(tiny, 2.0).definitely_in
    # x^-1 ends give |c|^2
    assert classify.tail_functional_limits(
        PiecewisePoly([1.0], [()], tail=[(3.0, -1)])) == (0.0, 9.0)
    assert classify.tail_functional_limits(
        PiecewisePoly([1.0], [[2.0, 1.0]], lowest=[-1])) == (4.0, 0.0)
    assert classify.tail_functional_limits(
        PiecewisePoly([1.0], [[1.0]], lowest=[-2])) == (math.inf, 0.0)


def test_real_trig_pieces():
    lifted_sine = TrigPoly(1.0, [0.5j, 1.0, -0.5j])  # 1 + sin(2 pi x)
    assert classify.is_nonnegative(lifted_sine)
    assert not classify.is_nonincreasing(lifted_sine)
    assert classify.is_nonincreasing(TrigPoly(1.0, [2.0]))
    assert not classify.is_nonnegative(TrigPoly(1.0, [0.5j, 0.0, -0.5j]))
    # 1 + i cos(2 pi x) is not real
    assert not classify.is_nonnegative(TrigPoly(1.0, [0.5j, 1.0, 0.5j]))


def test_schatten_rejects_bad_exponent(affine):
    for p in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            classify.classify_schatten(affine, p)


def test_xp_integral_divergence(inv_tail, inv_square_tail):
    assert math.isinf(classify.x_p_integral(inv_tail, 1.0))
    assert math.isfinite(classify.x_p_integral(inv_square_tail, 1.0))


def test_monotone_profile_matches_xp_at_p1(affine):
    # both routes are exact for a nonincreasing symbol at p = 1
    m = classify.monotone_profile_norm(affine, 1.0)
    assert math.isfinite(m)


@pytest.mark.parametrize("p", [1.0, 0.75, 0.6, 0.51])
def test_monotone_profile_of_constant_pieces_is_closed_form(monkeypatch, p):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(classify, "quad", counted)
    rng = np.random.default_rng(11)
    symbols = [PiecewisePoly([0.5, 2.0, 2.5], [[3.0], [1.5], [0.25]])]
    for _ in range(20):
        n = int(rng.integers(1, 13))
        symbols.append(Step(np.cumsum(rng.uniform(0.1, 1.0, size=n)),
                            np.sort(rng.uniform(0.1, 2.0, size=n))[::-1]))
    for s in symbols:
        got = classify.monotone_profile_norm(s, p)
        # the quadrature every other monotone symbol takes, piece by piece
        want = sum(quad(lambda x: x ** (p - 1.0) * v.real ** p, a, b,
                        limit=200, epsabs=1e-13, epsrel=1e-11)[0]
                   for a, b, ((v, _, _),) in to_pieces(s))
        assert got == pytest.approx(want ** (1.0 / p), rel=1e-13, abs=0.0)
    assert calls == []


def test_positive_operator(affine, tent, indicator):
    for s in (affine, tent, indicator):
        assert classify.is_positive_operator(s).definitely_in


def test_dini_integral_smooth(affine):
    assert math.isfinite(classify.dini_integral(affine))


def test_canonical_step_merges():
    s = Step([1.0, 2.0, 3.0], [2.0, 2.0, 1.0])
    c = classify.canonical_step(s)
    assert c.breakpoints == (2.0, 3.0)
    assert c.values == (2.0, 1.0)
    assert classify.detect_step(s) == 2


def test_detect_step_on_other_kinds(affine):
    assert classify.detect_step(affine) is None
    pc = Sampled((0.5, 1.0), (1.0, 1.0), "pc")
    # zero on (0, 0.5] then 1 on (0.5, 1]: two pieces in canonical form
    assert classify.detect_step(pc) == 2
    c = classify.canonical_step(pc)
    assert c.values == (0.0, 1.0)
    cases = [
        # constant pl: zero up to the first sample, then one value
        (Sampled((0.5, 1.0, 2.0), (3.0, 3.0, 3.0), "pl"), (0.5, 2.0),
         (0.0, 3.0)),
        (TrigPoly(2.0, [0.0, 1.5, 0.0]), (2.0,), (1.5,)),
        # constants written with lowest powers -1 and 2
        (PiecewisePoly([1.0, 2.0, 3.0], [[0.0, 2.0], [1.0], [0.0]],
                       [-1, 0, 2]), (1.0, 2.0), (2.0, 1.0)),
        # a zero step in the middle stays; a trailing one is dropped
        (Step([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 2.0, 0.0]), (1.0, 2.0, 3.0),
         (1.0, 0.0, 2.0)),
        # a tail with zero coefficients is zero past the last breakpoint
        (PiecewisePoly([1.0], [[2.0]], tail=[(0.0, -2)]), (1.0,), (2.0,)),
    ]
    for s, bp, vals in cases:
        c = classify.canonical_step(s)
        assert (c.breakpoints, c.values) == (bp, vals)
        assert classify.detect_step(s) == len(vals)
    for s in (TrigPoly(2.0, [0.0, 1.5, 0.0], periodic=True),
              TrigPoly(2.0, [0.5, 1.5, 0.5]),
              Sampled((0.5, 1.0, 2.0), (3.0, 3.0, 1.0), "pl"),
              PiecewisePoly([1.0], [[0.0, 2.0]], [-1], tail=[(1.0, -2)]),
              PiecewisePoly([1.0], [[1.0, 2.0]], [-1])):
        assert classify.canonical_step(s) is None
        assert classify.detect_step(s) is None
    for s in (Step([1.0, 2.0], [0.0, 0.0]), TrigPoly(1.0, [0.0]),
              Sampled((0.5, 1.0), (0.0, 0.0), "pl")):
        assert classify.canonical_step(s) is None
        assert classify.detect_step(s) == 0


def test_kronecker_det_known():
    # {a_max(i,j)} for a = (3, 2, 1): det = 1 * (3-2) * (2-1)
    assert classify.kronecker_det([3.0, 2.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        classify.kronecker_det([])


def _dense_det(vals):
    """det of {a_max(i,j)} by partial-pivot elimination at the current
    mpmath precision.  mpmath.det is not used: it returns 0 once a pivot
    falls below eps times the matrix norm, as subnormal entries do."""
    n = len(vals)
    A = [[mpmath.mpc(vals[max(i, j)]) for j in range(n)] for i in range(n)]
    det = mpmath.mpc(1)
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(A[r][k]))
        if A[piv][k] == 0:
            return mpmath.mpc(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for r in range(k + 1, n):
            f = A[r][k] / A[k][k]
            for c in range(k + 1, n):
                A[r][c] -= f * A[k][c]
    return det


@given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=12))
@example([0j, 1.1e-308])  # np.linalg.det returns nan+nanj here
# at 50 digits the elimination lost the 2e-275 entry against 1.5 + 1j
@example([0j, 2.124552158018483e-275, 1.5 + 1j, 1.0])
@settings(max_examples=80, deadline=None)
def test_kronecker_det_matches_dense(vals):
    got = classify.kronecker_det(vals)
    # elimination subtracts entries as far apart as 3 and 5e-324, so the
    # working precision must span the whole double range
    with mpmath.workdps(400):
        want = _dense_det(vals)
        # the telescoping product keeps only absolute accuracy once it
        # underflows into subnormals, hence the floor
        assert abs(mpmath.mpc(got) - want) <= 1e-12 * abs(want) + 1e-300


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.6, 3.0))
@settings(max_examples=25, deadline=None)
def test_scaling_keeps_verdicts(seed, scale):
    # phi -> c * phi is a positive scalar multiple of the operator, so the
    # membership verdict must be scale invariant
    rng = np.random.default_rng(seed)
    from conftest import random_step
    s = random_step(rng, max_steps=5)
    t = Step(s.breakpoints, [scale * v for v in s.values])
    for p in (0.4, 1.0, 2.0):
        assert classify.classify_schatten(s, p).verdict == \
            classify.classify_schatten(t, p).verdict


_HUGE = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def _extreme_symbols(draw):
    n = draw(st.integers(1, 3))
    cuts = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=n,
                                   max_size=n)))
    if draw(st.booleans()):
        return Step(cuts, draw(st.lists(_HUGE, min_size=n, max_size=n)))
    return PiecewisePoly(cuts, [draw(st.lists(_HUGE, min_size=1, max_size=3))
                                for _ in range(n)])


@given(_extreme_symbols(), st.sampled_from((2.0, 1.0, 0.75, 0.4)))
@example(PiecewisePoly([1.0], [[1e300, 1e300]]), 2.0)  # x_p overflows to NaN
@settings(max_examples=80, deadline=None)
def test_no_verdict_from_nan(s, p):
    try:
        v = classify.classify_schatten(s, p)
    except ValueError:
        return
    assert not any(math.isnan(x) for x in v.norms.values()
                   if isinstance(x, float))
