import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxkernel.symbols import (Interval, PiecewisePoly, Sampled, Step,
                               TrigPoly, evaluate, is_real_symbol, modulus,
                               subtract_terminal, support, symbol_from_json,
                               symbol_to_json, to_pieces, variation_tail)

from conftest import random_step


def test_step_piece_convention(two_step):
    # value holds on the left-open right-closed piece
    assert evaluate(two_step, 0.5) == 2.0
    assert evaluate(two_step, 1.0) == 2.0
    assert evaluate(two_step, 1.5) == 1.0
    assert evaluate(two_step, 2.0) == 1.0
    assert evaluate(two_step, 2.5) == 0.0


def test_affine_values(affine):
    x = np.array([0.25, 0.5, 1.0, 2.0])
    assert np.allclose(evaluate(affine, x), [0.75, 0.5, 0.0, 0.0])
    assert support(affine) == Interval(0.0, 1.0)


def test_tail_piece_evaluation(inv_tail):
    assert evaluate(inv_tail, 0.5) == 0.0
    assert evaluate(inv_tail, 2.0) == 0.5
    assert evaluate(inv_tail, 8.0) == 0.125
    assert not support(inv_tail).bounded


def test_trig_restricted_vs_periodic():
    c = [0.5, 0.0, 0.5]
    one = TrigPoly(1.0, c)
    per = TrigPoly(1.0, c, periodic=True)
    assert evaluate(one, 0.25) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(one, 1.5) == 0.0        # outside the single period
    assert evaluate(per, 1.5) == pytest.approx(-1.0)
    assert is_real_symbol(per)


def test_sampled_pl_is_piecewise_linear(hat):
    assert evaluate(hat, 0.375) == pytest.approx(0.5)
    assert evaluate(hat, 0.75) == pytest.approx(0.5)
    assert evaluate(hat, 0.1) == 0.0


def test_pieces_are_disjoint_and_sorted(tent, inv_square_tail):
    for s in (tent, inv_square_tail):
        ps = to_pieces(s)
        for (a1, b1, _), (a2, b2, _) in zip(ps[:-1], ps[1:]):
            assert a1 < b1 <= a2 < b2


def test_symbols_lower_once(tent):
    pieces = to_pieces(tent)
    assert isinstance(pieces, tuple) and to_pieces(tent) is pieces
    # the stored pieces are not a field: eq, hash and repr ignore them
    twin = PiecewisePoly([0.5, 1.0], [[1.0], [2.0, -2.0]])
    assert twin == tent and hash(twin) == hash(tent)
    assert repr(twin) == repr(tent) and "_pieces" not in repr(tent)
    with pytest.raises(TypeError):
        to_pieces((0.0, 1.0))


def test_variation_tail_affine(affine):
    # slope 1 over (x, 1], no terminal jump since phi(1-) = 0
    assert variation_tail(affine, 0.0) == pytest.approx(1.0)
    assert variation_tail(affine, 0.5) == pytest.approx(0.5)
    assert variation_tail(affine, 1.5) == 0.0


def test_variation_tail_counts_jumps(two_step):
    # |2-1| at x=1 plus |1-0| at x=2; the origin itself carries no jump
    assert variation_tail(two_step, 0.0) == pytest.approx(2.0)
    assert variation_tail(two_step, 1.0) == pytest.approx(2.0)
    assert variation_tail(two_step, 1.5) == pytest.approx(1.0)


def test_modulus_sup_norm(affine, indicator):
    box = Interval(0.0, 1.0)
    assert modulus(affine, box, 0.125, p=math.inf) == pytest.approx(0.125)
    # indicator has no interior jump inside (0,1], so the sup modulus is 0
    assert modulus(indicator, box, 0.125, p=math.inf) == 0.0


def test_modulus_l2_affine(affine):
    box = Interval(0.0, 1.0)
    # |phi(x+h)-phi(x)| = h on the overlap of length 1-h
    for h in (0.25, 0.0625):
        want = h * math.sqrt(1.0 - h)
        assert modulus(affine, box, h, p=2) == pytest.approx(want, rel=1e-12)


def test_modulus_l2_subadditive_in_h(tent):
    box = Interval(0.0, 1.0)
    w2 = modulus(tent, box, 0.2, p=2)
    w1 = modulus(tent, box, 0.1, p=2)
    assert w2 <= 2.0 * w1 + 1e-12


def test_modulus_bounded_by_sup(square):
    box = Interval(0.0, 1.0)
    h = 0.1
    wi = modulus(square, box, h, p=math.inf)
    w2 = modulus(square, box, h, p=2)
    assert w2 <= math.sqrt(box.hi - box.lo) * wi + 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_random_steps(seed):
    s = random_step(np.random.default_rng(seed))
    t = symbol_from_json(symbol_to_json(s))
    assert isinstance(t, Step)
    assert t.breakpoints == s.breakpoints
    assert t.values == s.values


def test_json_roundtrip_tail(inv_tail):
    t = symbol_from_json(symbol_to_json(inv_tail))
    x = np.array([0.5, 1.5, 3.0, 100.0])
    assert np.allclose(evaluate(t, x), evaluate(inv_tail, x))


def test_constructor_rejections():
    with pytest.raises(ValueError):
        Step([1.0, 0.5], [1.0, 2.0])      # not increasing
    with pytest.raises(ValueError):
        Step([-1.0], [1.0])               # nonpositive breakpoint
    with pytest.raises(ValueError):
        PiecewisePoly([1.0], [[1.0]], tail=[(1.0, 0)])  # tail must decay
    with pytest.raises(ValueError, match="integers"):
        PiecewisePoly([1.0], [()], tail=[(1.0, -2.5)])  # not truncated to -2
    with pytest.raises(ValueError, match="integers"):
        PiecewisePoly([1.0], [[1.0]], lowest=[0.5])     # not truncated to 0
    with pytest.raises(ValueError):
        Sampled((0.0, 1.0), (1.0, 2.0), "pl")  # grid must be positive
    with pytest.raises(ValueError):
        TrigPoly(1.0, [1.0, 2.0])         # even length, no center


NON_FINITE = {
    "step-breakpoint": lambda: Step([math.nan], [1.0]),
    "step-value": lambda: Step([1.0], [math.inf]),
    "step-value-imag": lambda: Step([1.0], [complex(1.0, math.nan)]),
    "ppoly-breakpoint": lambda: PiecewisePoly([math.inf], [[1.0]]),
    "ppoly-coefficient": lambda: PiecewisePoly([1.0], [[1.0, math.nan]]),
    "ppoly-lowest": lambda: PiecewisePoly([1.0], [[1.0]], lowest=[math.inf]),
    "ppoly-tail-coef": lambda: PiecewisePoly([1.0], [()],
                                             tail=[(math.inf, -2)]),
    "ppoly-tail-power": lambda: PiecewisePoly([1.0], [()],
                                              tail=[(1.0, -math.inf)]),
    "trig-period": lambda: TrigPoly(math.inf, [1.0]),
    "trig-coeff": lambda: TrigPoly(1.0, [0.5, math.nan, 0.5]),
    "sampled-grid": lambda: Sampled((0.5, math.nan), (1.0, 2.0)),
    "sampled-value": lambda: Sampled((0.5, 1.0), (1.0, -math.inf), "pc"),
    # the pl slope (-2e308) / 1e-15 overflows when the symbol is lowered
    "sampled-slope": lambda: Sampled((1.0, 1.000000000000001),
                                     (1e308, -1e308)),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE))
def test_constructors_reject_non_finite(field):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE[field]()


@pytest.mark.parametrize("s, hi", [
    (Step([1.0, 2.0], [2.0, 1.0]), 1.5),
    (Step([1.0, 2.0], [2.0, 1.0]), 2.0),
    (PiecewisePoly([0.5, 1.0], [[1.0], [2.0, -1.0]]), 0.75),
    (TrigPoly(1.0, [0.5, 0.2, 0.5]), 1.0),
    (Sampled((0.25, 0.5, 1.0), (0.0, 1.0, 0.5), "pl"), 1.0),
], ids=["step-inside", "step-at-breakpoint", "ppoly", "trig", "sampled"])
def test_subtract_terminal(s, hi):
    shifted, c = subtract_terminal(s, Interval(0.0, hi))
    assert c != 0
    assert evaluate(shifted, hi) == pytest.approx(0.0, abs=1e-14)
    xs = np.linspace(0.0, hi, 41)[1:]
    assert np.allclose(evaluate(shifted, xs), evaluate(s, xs) - c,
                       rtol=0.0, atol=1e-14)
