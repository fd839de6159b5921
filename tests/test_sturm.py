import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import airy

from maxkernel import sturm
from maxkernel.symbols import (Interval, PiecewisePoly, Step,
                               subtract_terminal)


def test_affine_eigenvalues_closed_form(affine):
    res = sturm.eigenvalues(affine, 21)
    lam = np.array([r.lam for r in res])
    n = np.arange(21)
    exact = 1.0 / (np.pi * (n + 0.5)) ** 2
    assert np.max(np.abs(lam / exact - 1.0)) < 1e-12
    assert all(r.boundary_residual < 1e-10 for r in res)


def test_subtract_terminal_gives_affine():
    s = PiecewisePoly([1.0], [[2.0, -1.0]])     # 2 - x, phi(1) = 1
    with pytest.raises(ValueError, match="subtract_terminal"):
        sturm.eigenvalues(s, 1)
    shifted, c = subtract_terminal(s, Interval(0.0, 1.0))
    assert c == 1.0
    lam = np.array([r.lam for r in sturm.eigenvalues(shifted, 21)])
    n = np.arange(21)
    exact = 1.0 / (np.pi * (n + 0.5)) ** 2
    assert np.max(np.abs(lam / exact - 1.0)) < 1e-12


def test_affine_flow_is_trigonometric(affine):
    # for this shape the flow solves G'' = -omega^2 G from (0, 1), so
    # G = sin(omega x)/omega and g = cos(omega x)
    omega = 2.3
    xs = np.linspace(0.0, 1.0, 9)
    G, g = sturm.shoot(affine, omega, xs)
    assert np.allclose(G, np.sin(omega * xs) / omega, atol=1e-12)
    assert np.allclose(g, np.cos(omega * xs), atol=1e-12)


def test_prufer_theta_known_value(affine):
    run = sturm.prufer_theta(affine, math.pi / 2)
    # omega = pi/2 is the ground state: theta(1) = pi/2
    assert run.theta_end == pytest.approx(math.pi / 2, abs=1e-12)


@given(st.floats(0.5, 40.0), st.floats(1.05, 2.0))
@settings(max_examples=30, deadline=None)
def test_theta_end_increases_with_omega(omega, factor):
    tent = PiecewisePoly([0.5, 1.0], [[1.0], [2.0, -2.0]])
    a = sturm.prufer_theta(tent, omega).theta_end
    b = sturm.prufer_theta(tent, omega * factor).theta_end
    assert b > a


def test_ode_route_square(square):
    res = sturm.eigenvalues(square, 12)
    lam = np.array([r.lam for r in res])
    assert np.all(np.diff(lam) < 0)
    assert all(r.boundary_residual < 1e-7 for r in res)
    # WKB envelope: lambda_n (n+1/2)^2 approaches (int sqrt(2(1-x)) / pi)^2
    C = sturm.asymptotic_constant(square)
    assert lam[11] * 11.5 ** 2 == pytest.approx(C, rel=0.05)


def test_ode_route_matches_airy_roots(square):
    # phi = (1 - x)^2 turns G'' = 2 omega^2 (x - 1) G into Airy's equation
    # in z = -k (1 - x), k = (2 omega^2)^(1/3); G(0) = 0 and g(1) = 0 make
    # the eigenfrequencies the roots of Ai(-k) Bi'(0) - Bi(-k) Ai'(0)
    _, aip0, _, bip0 = airy(0.0)

    def det(k):
        ai, _, bi, _ = airy(-k)
        return ai * bip0 - bi * aip0

    ks = np.arange(0.5, 35.0, 0.01)
    vals = det(ks)
    sign = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[:40]
    k = np.array([brentq(det, ks[i], ks[i + 1], xtol=1e-15, rtol=1e-15)
                  for i in sign])
    want = np.sqrt(k ** 3 / 2.0)
    assert len(want) == 40
    res = sturm.eigenvalues(square, 40)
    assert sturm.prufer_theta(square, 1.0).method == "dop853"
    got = np.array([r.omega for r in res])
    assert np.max(np.abs(got / want - 1.0)) < 1e-9


def test_root_search_does_not_stall(monkeypatch):
    # plain regula falsi keeps one bracket end fixed here and needs 161
    # angle sweeps; Illinois halving bounds the count
    x = np.linspace(0.0, 1.0, 257)
    y = (1.0 - x) ** 2
    slope = np.diff(y) / np.diff(x)
    s = PiecewisePoly(x[1:], [(y0 - m * x0, m)
                              for x0, y0, m in zip(x, y, slope)])
    assert sturm.prufer_theta(s, 1.0).method == "closed-form"
    calls = []
    theta_end = sturm._theta_end
    monkeypatch.setattr(sturm, "_theta_end",
                        lambda prob, om: calls.append(1) or
                        theta_end(prob, om))
    res = sturm.eigenvalues(s, 201)
    assert len(calls) <= 30
    assert all(r.boundary_residual < 1e-9 for r in res)


def test_asymptotic_constants(affine, square, tent):
    assert sturm.asymptotic_constant(affine) == \
        pytest.approx(1.0 / math.pi ** 2, rel=1e-12)
    # int_0^1 sqrt(2(1-x)) = 2 sqrt(2) / 3
    assert sturm.asymptotic_constant(square) == \
        pytest.approx((2.0 * math.sqrt(2.0) / 3.0 / math.pi) ** 2,
                      rel=1e-10)
    # slope -2 on (1/2, 1] only: int = sqrt(2)/2
    assert sturm.asymptotic_constant(tent) == \
        pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-10)


def test_asymptotic_constant_steps_vanish(two_step):
    assert sturm.asymptotic_constant(two_step) == 0.0


def test_sum_with_tail_exact_family(affine):
    total, info = sturm.sum_with_tail(affine, K=60)
    assert total == pytest.approx(0.5, rel=1e-10)
    assert info["tail"] > 0
    assert info["max_boundary_residual"] < 1e-10


def test_sum_with_tail_precomputed(affine):
    eigs = sturm.eigenvalues(affine, 70)
    a, _ = sturm.sum_with_tail(affine, K=60, precomputed=eigs)
    b, _ = sturm.sum_with_tail(affine, K=60)
    assert a == b
    with pytest.raises(ValueError):
        sturm.sum_with_tail(affine, K=80, precomputed=eigs)


def test_rejects_positive_slope():
    peaked = PiecewisePoly([0.5, 1.0], [[0.0, 2.0], [2.0, -2.0]])
    with pytest.raises(ValueError, match="positive-derivative"):
        sturm.eigenvalues(peaked, 3)


def test_rejects_jumps(two_step):
    with pytest.raises(ValueError, match="not-smooth-enough"):
        sturm.eigenvalues(two_step, 3)


def test_rejects_nonvanishing_terminal():
    const = PiecewisePoly([1.0], [[1.0]])
    with pytest.raises(ValueError, match="vanish"):
        sturm.eigenvalues(const, 3)


def test_rejects_unbounded_support(inv_square_tail):
    with pytest.raises(ValueError):
        sturm.eigenvalues(inv_square_tail, 3)


def test_eigenresult_json(affine):
    r = sturm.eigenvalues(affine, 1)[0]
    import json
    d = json.loads(r.to_json())
    assert set(d) == {"n", "omega", "lambda", "residual"}
    assert d["n"] == 0


def test_sl_residual_small(affine):
    res = sturm.eigenvalues(affine, 2)
    xs = np.linspace(0.0, 1.0, 201)
    for r in res:
        G, _ = sturm.shoot(affine, r.omega, xs)
        assert sturm.sl_residual(affine, r.lam, xs, G) < 1e-6
