import math

import pytest

from maxkernel._piecewise import (coef_scale, cut_values, integrate_terms,
                                  integrate_terms_to_inf, with_gaps)
from maxkernel.symbols import PiecewisePoly, Sampled, Step, to_pieces


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
