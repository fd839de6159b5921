import math

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import airy

from maxkernel import sturm
from maxkernel.symbols import (Interval, PiecewisePoly, Step, TrigPoly,
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
    assert {r.method for r in res} == {"pruess"}
    got = np.array([r.omega for r in res])
    assert np.max(np.abs(got / want - 1.0)) < 1e-9


def test_closed_form_route_matches_tent_oracle(tent):
    # G = x on the plateau (0, 1/2]; on (1/2, 1] G'' = -2 omega^2 G from
    # G = 1/2, g = 1, so g(1) = 0 reads tan(mu/2) = 2/mu with
    # mu = sqrt(2) omega: z = mu/2 solves z sin z = cos z on
    # (n pi, n pi + pi/2)
    res = sturm.eigenvalues(tent, 40)
    assert {r.method for r in res} == {"closed-form"}
    with mpmath.workdps(30):
        for r in res:
            lo = r.n * mpmath.pi
            z = mpmath.findroot(lambda z: z * mpmath.sin(z) - mpmath.cos(z),
                                (lo, lo + mpmath.pi / 2), solver="anderson")
            want = float(mpmath.sqrt(2) * z)
            assert r.omega == pytest.approx(want, rel=1e-12, abs=0.0)


def _quadratic_pieces(knots, d):
    """phi with phi(knots[-1]) = 0 whose slope -phi' runs linearly between
    the values d at the knots."""
    vals = np.zeros(len(knots))
    for i in range(len(knots) - 2, -1, -1):
        vals[i] = vals[i + 1] + 0.5 * (d[i] + d[i + 1]) * \
            (knots[i + 1] - knots[i])
    coeffs = []
    for i in range(len(knots) - 1):
        a = knots[i]
        s = (d[i + 1] - d[i]) / (knots[i + 1] - a)
        # phi(x) = vals[i] - d[i] (x - a) - s (x - a)^2 / 2
        coeffs.append((vals[i] + d[i] * a - 0.5 * s * a * a,
                       -d[i] + s * a, -0.5 * s))
    return PiecewisePoly(list(knots[1:]), coeffs)


@st.composite
def quadratic_symbols(draw):
    pieces = draw(st.integers(1, 3))
    widths = draw(st.lists(st.floats(0.2, 1.0), min_size=pieces,
                           max_size=pieces))
    # -phi' changes by a factor 0.6-0.9 or 1.1-1.6 over each piece, so no
    # piece is linear
    ratios = draw(st.lists(st.one_of(st.floats(0.6, 0.9),
                                     st.floats(1.1, 1.6)),
                           min_size=pieces, max_size=pieces))
    slopes = draw(st.floats(0.5, 1.5)) * np.cumprod([1.0] + ratios)
    b = draw(st.floats(0.5, 2.0))
    knots = np.concatenate([[0.0], np.cumsum(widths)])
    return _quadratic_pieces(knots * (b / knots[-1]), slopes)


@given(quadratic_symbols())
@settings(max_examples=4, deadline=None)
def test_pruess_route_matches_dop853_angle(s):
    calls = []
    solve_ivp, residuals = sturm.solve_ivp, sturm._boundary_residuals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sturm, "solve_ivp",
                   lambda *a, **k: calls.append("ivp") or solve_ivp(*a, **k))
        mp.setattr(sturm, "_boundary_residuals",
                   lambda *a: calls.append("residual") or residuals(*a))
        res = sturm.eigenvalues(s, 32)
    # the root search sweeps in closed form; DOP853 runs only for the
    # residual flow of the true phi, after it
    assert calls[0] == "residual"
    assert {r.method for r in res} == {"pruess"}
    assert max(r.boundary_residual for r in res) <= 1e-8
    for n in (0, 15, 31):
        w = res[n].omega

        def angle(om, n=n):
            return sturm.prufer_theta(s, om).theta_end - (n + 0.5) * math.pi

        want = brentq(angle, w * (1.0 - 1e-9), w * (1.0 + 1e-9),
                      xtol=1e-13 * w, rtol=1e-13)
        assert w == pytest.approx(want, rel=1e-10, abs=0.0)


def _theta_per_cell(h, c, omegas):
    """Reference for the sweep: the angle advanced cell by cell, tan theta
    moving linearly on a flat cell and the stretched angle
    atan2(sqrt(c) sin theta, cos theta) by sqrt(c) omega h on a sloped one."""
    th = np.zeros_like(omegas)
    for dx, ck in zip(h, c):
        if ck == 0.0:
            th = sturm._advance_flat(th, omegas * dx)
            continue
        rc = math.sqrt(ck)
        k = np.floor(th / math.pi)
        tf = th - k * math.pi
        psi = k * math.pi + np.arctan2(rc * np.sin(tf), np.cos(tf)) \
            + rc * omegas * dx
        k2 = np.floor(psi / math.pi)
        pf = psi - k2 * math.pi
        th = k2 * math.pi + np.arctan2(np.sin(pf), rc * np.cos(pf))
    return th


@pytest.mark.parametrize("seed", range(6))
def test_sweep_matches_per_cell_advance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    h = rng.uniform(1e-3, 0.1, n)
    c = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-4, 1, n))
    om = np.sort(rng.uniform(0.1, 500.0, 25))
    want = _theta_per_cell(h, c, om)
    np.testing.assert_allclose(sturm._sweep(h, c, om), want, rtol=1e-12,
                               atol=1e-12)


def test_sweep_frequency_blocks_agree(monkeypatch, square):
    h, c = sturm._validate(square, True).cells(2)
    om = np.linspace(0.5, 300.0, 37)
    whole = sturm._sweep(h, c, om)
    monkeypatch.setattr(sturm, "_BLOCK_FLOATS", 5 * len(h))
    np.testing.assert_allclose(sturm._sweep(h, c, om), whole,
                               rtol=1e-15, atol=0.0)


def test_error_estimates(affine, square):
    exact = 1.0 / (np.pi * (np.arange(21) + 0.5))
    for r in sturm.eigenvalues(affine, 21):
        assert r.method == "closed-form"
        assert abs(r.omega * exact[r.n] - 1.0) <= r.error_estimate + 1e-15
    est = [r.error_estimate for r in sturm.eigenvalues(square, 32)]
    assert 0.0 < max(est) <= 1e-8


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


def test_asymptotic_constant_periodic_slope_diverges(cosine):
    # the slope of a periodized symbol never decays, so there is no
    # quadrature to run
    with pytest.raises(ValueError, match="at inf"):
        sturm.asymptotic_constant(TrigPoly(1.0, [0.5, 0.0, 0.5],
                                           periodic=True))
    assert sturm.asymptotic_constant(cosine) > 0


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
