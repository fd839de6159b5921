import math

import pytest

from maxkernel._piecewise import (abs_integral, coef_scale, cut_values,
                                  integrate_terms, integrate_terms_to_inf,
                                  variation, with_gaps)
from maxkernel.symbols import (PiecewisePoly, Sampled, Step, TrigPoly,
                               to_pieces, variation_tail)


def test_cut_values_count_gaps_as_zero():
    # 1 on (0, 1], a zero step on (1, 2], 2 on (2, 3]
    pieces = to_pieces(Step([1.0, 2.0, 3.0], [1.0, 0.0, 2.0]))
    assert cut_values(pieces) == [(1.0, 1.0, 0.0), (2.0, 0.0, 2.0),
                                  (3.0, 2.0, 0.0)]
    # support starting past 0: its start is a cut, 0 is not
    pieces = to_pieces(Sampled((0.5, 1.0), (1.0, 1.0), "pc"))
    assert [c for c, _, _ in cut_values(pieces)] == [0.5, 1.0]
    # a tail to infinity: only the finite cut
    pieces = to_pieces(PiecewisePoly([1.0], [[2.0]], tail=[(1.0, -2)]))
    assert cut_values(pieces) == [(1.0, 2.0, 1.0)]
    assert cut_values([]) == []


def test_with_gaps_tiles_from_zero():
    pieces = to_pieces(Step([1.0, 2.0, 3.0], [0.0, 5.0, 0.0]))
    assert with_gaps(pieces) == [(0.0, 1.0, ()), (1.0, 2.0, ((5.0, 0, 0.0),))]
    pieces = to_pieces(Step([1.0, 2.0, 3.0], [1.0, 0.0, -4.0]))
    tiles = with_gaps(pieces)
    assert [(a, b) for a, b, _ in tiles] == [(0.0, 1.0), (1.0, 2.0),
                                            (2.0, 3.0)]
    assert tiles[1][2] == () and coef_scale(tiles) == 4.0
    assert with_gaps([]) == [] and coef_scale([]) == 0.0


def test_integrate_terms_to_infinity():
    terms = ((2.0, -2, 0.0), (-1.0, -3, 0.0))
    a = 1.5
    got = integrate_terms(terms, a, math.inf)
    assert got == integrate_terms_to_inf(terms, a)
    assert got == pytest.approx(2.0 / a - 0.5 / a ** 2, rel=1e-15)
    for divergent in (((1.0, -1, 0.0),), ((1.0, -2, 0.0), (1.0, 0, 0.0)),
                      ((1.0, -2, 3.0),)):
        with pytest.raises(ValueError):
            integrate_terms(divergent, a, math.inf)


def test_abs_integral():
    # |1 - x| on [0, 2], split exactly at the root
    assert abs_integral(((1.0, 0, 0.0), (-1.0, 1, 0.0)), 0.0, 2.0) == 1.0
    assert abs_integral((), 0.5, 3.0) == 0.0
    assert abs_integral((), 1.0, math.inf) == 0.0
    # |cos 2 pi x| over one period by quad
    cos = ((0.5, 0, -2 * math.pi), (0.5, 0, 2 * math.pi))
    assert abs_integral(cos, 0.0, 1.0) == pytest.approx(2 / math.pi,
                                                        rel=1e-12)
    # x^-2 - x^-3 changes sign at 1 on a tail to infinity
    tail = ((1.0, -2, 0.0), (-1.0, -3, 0.0))
    assert abs_integral(tail, 0.5, math.inf) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        abs_integral(cos, 1.0, math.inf)
    with pytest.raises(ValueError):
        abs_integral(((1.0, -1, 0.0),), 1.0, math.inf)


def test_variation_over_bands():
    pieces = to_pieces(Step([1.0, 2.0], [2.0, 1.0]))
    # the jump at lo counts, the one at hi does not
    assert variation(pieces, 1.0, 2.0) == 1.0
    assert variation(pieces, 0.5, 1.0) == 0.0
    assert variation(pieces, 2.0, 3.0) == 1.0
    symbols = [PiecewisePoly([0.5, 1.0], [[1.0], [2.0, -2.0]]),
               PiecewisePoly([1.0, 2.0], [[1.0, -3.0], [0.5, 0.1]],
                             tail=[(3.0, -2), (-5.0, -3)]),
               TrigPoly(1.0, [0.3 - 0.2j, 0.8, 0.2 - 0.6j]),
               Sampled((0.5, 1.0, 1.7), (1.0, -1.0, 2.0), "pc")]
    for s in symbols:
        pieces = to_pieces(s)
        for lo, m, hi in ((0.0, 0.3, 1.0), (0.25, 1.0, 2.5), (0.5, 1.7, 4.0)):
            assert variation(pieces, lo, m) + variation(pieces, m, hi) == \
                pytest.approx(variation(pieces, lo, hi), rel=1e-14, abs=1e-14)
        for x in (0.0, 0.3, 1.0, 2.5):
            assert variation(pieces, x, math.inf) == variation_tail(s, x)
    # x^-1 on (1, inf): the unit jump at 1 plus an integrable slope of 1;
    # a periodic trig piece's slope is not integrable
    assert variation(to_pieces(PiecewisePoly([1.0], [()], tail=[(1.0, -1)])),
                     1.0, math.inf) == pytest.approx(2.0, rel=1e-15)
    periodic = to_pieces(TrigPoly(1.0, [0.5, 0.0, 0.5], periodic=True))
    assert variation(periodic, 0.0, math.inf) == math.inf
