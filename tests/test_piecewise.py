import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from maxkernel import _piecewise
from maxkernel._piecewise import (abs_integral, abs_integrals, aligned_cells,
                                  coef_scale,
                                  cut_values, end_power, eval_terms,
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


def test_aligned_levels_nest():
    # a gap (0, 0.3], pieces up to 1.7, then a stretch with no terms to 2.5
    pieces = to_pieces(Step([0.3, 1.0 / 3.0, 1.7], [0.0, 1.0, 2.0]))
    for lo, counts in ((0.0, [2, 1, 9, 5]), (0.31, [1, 10, 6])):
        levels = [aligned_cells(pieces, lo, 2.5, 16, level)
                  for level in range(4)]
        # round(16 len / (2.5 - lo)), at least 1, per piece
        assert [len(x) - 1 for _, x in levels[0]] == counts
        nodes = [np.concatenate([x[:-1] for _, x in cells] + [[2.5]])
                 for cells in levels]
        for k, (coarse, fine) in enumerate(zip(nodes, nodes[1:])):
            assert len(fine) - 1 == sum(counts) << (k + 1)
            assert np.all(np.diff(fine) > 0)
            assert np.array_equal(fine[::2], coarse)
        cuts = [c for c in (0.3, 1.0 / 3.0, 1.7) if c > lo]
        for cells in levels:
            assert [x[0] for _, x in cells] == [lo] + cuts
            assert cells[-1][0] == () and cells[-1][1][-1] == 2.5


def test_aligned_cells_stop_above_ulps():
    # a piece one ulp wide stays one cell: its nodes cannot round together
    x1 = math.nextafter(1.0, 2.0)
    pieces = to_pieces(Step([1.0, x1, 2.0], [2.0, 1.0, 3.0]))
    levels = [aligned_cells(pieces, 0.0, 2.0, 8, level) for level in range(3)]
    assert [len(x) - 1 for _, x in levels[2]] == [16, 1, 16]
    nodes = [np.concatenate([x[:-1] for _, x in cells] + [[2.0]])
             for cells in levels]
    for coarse, fine in zip(nodes, nodes[1:]):
        assert np.all(np.diff(fine) > 0)
        assert np.all(np.isin(coarse, fine))


def test_end_power():
    laurent = ((3.0, -2, 0.0), (1.0, 0, 0.0), (2.0, 1, 0.0))
    assert end_power(laurent, "lo") == (-2, 3.0)
    assert end_power(laurent, "hi") == (1, 2.0)
    # an oscillating term counts as power 0 with no coefficient of its own
    mixed = ((1.0, -1, 0.0), (0.5, 0, 2.0), (0.5, 0, -2.0))
    assert end_power(mixed, "lo") == (-1, 1.0)
    assert end_power(mixed, "hi") == (0, 0.0)
    assert end_power(mixed + ((4.0, 0, 0.0),), "hi") == (0, 4.0)
    assert end_power((), "lo") is None
    assert end_power(((0.0, 1, 0.0),), "hi") is None
    with pytest.raises(ValueError, match="negative power"):
        end_power(((1.0, -1, 2.0),), "lo")


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


def _abs_oracle(terms, a, b):
    """quad of |f| over [a, b], split at the sign changes of Re f, where
    |f| has a kink when f is real."""
    re = lambda x: float(eval_terms(terms, x).real)
    xs = np.linspace(a, b, 2049)
    ys = eval_terms(terms, xs).real
    pts = [brentq(re, xs[i], xs[i + 1], xtol=1e-15 * b)
           for i in np.flatnonzero(ys[:-1] * ys[1:] < 0)]
    return quad(lambda x: abs(complex(eval_terms(terms, x))), a, b,
                points=pts or None, epsabs=0.0, epsrel=1e-13, limit=1000)[0]


def _random_piece(rng, kind):
    """Terms of a real trig, complex trig or sum of x^p e^{iwx} piece on
    (0, 1]."""
    if kind == "power-exp":
        n = int(rng.integers(1, 4))
        return tuple((complex(rng.normal(), rng.normal()),
                      int(rng.integers(0, 4)), float(rng.uniform(-20, 20)))
                     for _ in range(n))
    M = int(rng.integers(1, 4))
    c = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
    if kind == "real-trig":  # conjugate-symmetric: f is real
        c = 0.5 * (c + c[::-1].conj())
    base = 2 * math.pi / rng.uniform(0.3, 1.0)
    return tuple((complex(v), 0, base * n)
                 for n, v in zip(range(-M, M + 1), c))


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("real-trig", "complex-trig", "power-exp")))
# f changes sign 2.9e-4 before the end of the band [1/4, 1/2], between the
# last Gauss node and the end: without the end check the rule (and quad)
# missed 1.3e-5 of it
@example(5, "real-trig")
@settings(max_examples=30, deadline=None)
def test_abs_integrals_match_quad(seed, kind):
    rng = np.random.default_rng(seed)
    terms = _random_piece(rng, kind)
    u, v = np.sort(rng.uniform(0.0, 1.0, 2))
    # one random interval and the dyadic bands [2^-n, 2^(1-n)) of (0, 1]
    n = np.arange(1, 41)
    a = np.concatenate([[u], 2.0 ** -n])
    b = np.concatenate([[v], 2.0 ** (1 - n)])
    got = abs_integrals(terms, a, b)
    want = np.array([_abs_oracle(terms, x, y) for x, y in zip(a, b)])
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)
    if kind == "real-trig":
        # the random interval may hold no sign change; the whole piece will
        assert abs_integral(terms, 0.0, 1.0) == pytest.approx(
            _abs_oracle(terms, 0.0, 1.0), rel=1e-11, abs=0.0)


def test_abs_integrals_quad_fallback(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(_piecewise, "quad", counted)
    cos = ((0.5, 0, -2 * math.pi), (0.5, 0, 2 * math.pi))
    a, b = np.array([0.0, 0.1, 0.3]), np.array([1.0, 0.2, 2.5])
    want = abs_integrals(cos, a, b)
    assert calls == [] and want[0] == pytest.approx(2 / math.pi, rel=1e-12)
    # |cos| has kinks in (0, 1) and (0.3, 2.5): those two overrun a budget
    # of 3 panels and go to quad
    monkeypatch.setattr(_piecewise, "_PANEL_BUDGET", 3)
    got = abs_integrals(cos, a, b)
    assert calls == [(0.0, 1.0), (0.3, 2.5)]
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def test_variation_bands_match_single_calls():
    # panels are refined per interval, so a band computed among many gives
    # exactly what it gives alone
    lo = 2.0 ** np.arange(-40, 2)
    for s in (TrigPoly(1.3, [0.2 - 0.1j, 0.4 + 0.3j, 0.7, 0.4 - 0.3j,
                             0.2 + 0.1j]),
              TrigPoly(1.0, [0.3 - 0.2j, 0.8, 0.2 - 0.6j]),
              PiecewisePoly([1.0, 2.0], [[1.0, -3.0], [0.5, 0.1]],
                            tail=[(3.0, -2), (-5.0, -3)]),
              Sampled((0.5, 1.0, 1.7), (1.0, -1.0, 2.0), "pc")):
        pieces = to_pieces(s)
        for hi in (2.0 * lo, np.full(lo.shape, math.inf)):
            got = variation(pieces, lo, hi)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [variation(pieces, float(x), float(y))
                                    for x, y in zip(lo, hi)]
