import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigvalsh, svdvals

from maxkernel import acceptance, discretize
from maxkernel.symbols import (Interval, PiecewisePoly, Step, TrigPoly,
                               evaluate)

from conftest import random_step


def test_indicator_2x2_is_exact(indicator):
    gm = discretize.galerkin_matrix(indicator, n=2)
    assert np.array_equal(gm.entries, np.full((2, 2), 0.5))


def test_full_equals_lower_plus_transpose(affine):
    lo = discretize.galerkin_matrix(affine, n=64, mask="lower")
    fu = discretize.galerkin_matrix(affine, n=64, mask="full")
    assert np.array_equal(fu.entries, lo.entries + lo.entries.T)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_full_equals_lower_plus_transpose_steps(seed):
    s = random_step(np.random.default_rng(seed))
    lo = discretize.galerkin_matrix(s, n=48, mask="lower")
    fu = discretize.galerkin_matrix(s, n=48, mask="full")
    assert np.array_equal(fu.entries, lo.entries + lo.entries.T)


def test_step_exact_spectrum_two_step(two_step):
    est = discretize.step_exact_spectrum(two_step)
    want = np.array([(3 + math.sqrt(5)) / 2, (3 - math.sqrt(5)) / 2])
    assert np.allclose(est.svals, want, rtol=1e-14)


def test_galerkin_matches_exact_eigs(affine):
    gm = discretize.galerkin_matrix(affine, n=512)
    sv, eigs = discretize.singular_values(gm)
    n = np.arange(8)
    exact = 1.0 / (np.pi * (n + 0.5)) ** 2
    # discretization error scales like (omega h)^2/12, about 1.8e-4 at n=7
    assert np.max(np.abs(sv[:8] / exact - 1.0)) < 5e-4
    assert eigs is not None and np.all(eigs[:8] > 0)


def test_masked_volterra_svals(indicator):
    gm = discretize.galerkin_matrix(indicator, n=512, mask="lower")
    sv, _ = discretize.singular_values(gm)
    n = np.arange(10)
    exact = 1.0 / (np.pi * (n + 0.5))
    # same (omega h)^2 error scaling as the symmetric case
    assert np.max(np.abs(sv[:10] / exact - 1.0)) < 5e-4


def test_spectrum_converges(affine):
    est = discretize.spectrum(affine, n0=128, tol=1e-6, K=8)
    n = np.arange(8)
    exact = 1.0 / (np.pi * (n + 0.5)) ** 2
    assert len(est.svals) == 8 and est.method == "galerkin-lanczos"
    assert np.max(np.abs(est.svals / exact - 1.0)) < 1e-4
    assert len(est.refinement_history) >= 2


def test_spectrum_refines_past_dense_cap(affine):
    # the top values move by 3.7e-8 s_0 from n = 2048 to 4096 and by
    # 9.2e-9 s_0 from 4096 to 8192
    est = discretize.spectrum(affine, n0=256, tol=1e-8, K=4)
    assert est.n == 8192
    exact = 1.0 / (np.pi * (np.arange(4) + 0.5)) ** 2
    assert np.max(np.abs(est.svals / exact - 1.0)) < 1e-6


def test_spectrum_small_grid_is_dense(affine):
    est = discretize.spectrum(affine, n0=4, tol=1e-2, K=8)
    assert est.method == "galerkin-dense" and est.n <= 9


def test_spectrum_budget_exhaustion(affine):
    with pytest.raises(RuntimeError, match="no-convergence"):
        discretize.spectrum(affine, n0=64, tol=1e-14, max_doublings=1)


def test_spectrum_truncates_unbounded(inv_square_tail):
    est = discretize.spectrum(inv_square_tail, n0=256, tol=1e-4, K=4)
    assert "truncated_at" in est.meta
    assert est.meta["truncated_at"] >= 16.0


def test_truncation_point(inv_square_tail, affine, inv_tail):
    X = discretize.truncation_point(inv_square_tail, 1e-2)
    # tail functional x^-2/3 <= 1e-4 needs x >= 57.7; doubling gives 64
    assert X == 64.0
    assert discretize.truncation_point(affine) == 1.0
    with pytest.raises(ValueError):
        discretize.truncation_point(inv_tail)


def test_schatten_report(affine):
    # schatten sums the values spectrum certifies; the S1 tail past K = 200
    # is about 5e-4, inside the tolerance below
    est = discretize.spectrum(affine, n0=256, tol=1e-6, K=200)
    r1 = discretize.schatten(est, 1.0)
    # S1 = trace = 1/2 for this shape
    assert r1.norm == pytest.approx(0.5, rel=2e-3)
    r2 = discretize.schatten(est, 2.0)
    assert r2.norm == pytest.approx(math.sqrt(1 / 6), rel=1e-4)
    assert r2.weak_norm > 0
    rinf = discretize.schatten(est, math.inf)
    assert rinf.norm == pytest.approx(est.svals[0])


def test_triangular_limit_small_window(indicator):
    tl = discretize.triangular_limit(indicator, levels=(256, 512, 1024),
                                     window=(20, 80))
    assert abs(tl.plateau - 1 / math.pi) < 1e-4
    n = np.arange(20, 81)
    exact = 1.0 / (np.pi * (n + 0.5))
    assert np.max(np.abs(tl.per_index / exact - 1.0)) < 1e-5
    assert tl.predicted == pytest.approx(1 / math.pi)


def test_richardson_removes_h2_and_h4():
    # values 1 + 3 h^2 - 5 h^4 + 7 h^6 on h = 1/8, 1/16, 1/32
    h = np.array([1 / 8, 1 / 16, 1 / 32])
    s = 1.0 + 3.0 * h ** 2 - 5.0 * h ** 4 + 7.0 * h ** 6
    r12, r23, best = discretize.richardson(*s)
    # one round leaves 5 h^4 / 4 - 35 h^6 / 16 of each pair's coarse h,
    # the second 7 h^6 / 64 of the coarsest
    for r, hc in ((r12, h[0]), (r23, h[1])):
        assert r - 1.0 == pytest.approx(5 * hc ** 4 / 4 - 35 * hc ** 6 / 16,
                                        rel=1e-9)
    assert best - 1.0 == pytest.approx(7 * h[0] ** 6 / 64, rel=1e-6)


def test_triangular_limit_validates_levels(indicator):
    with pytest.raises(ValueError):
        discretize.triangular_limit(indicator, levels=(256, 512, 768))
    with pytest.raises(ValueError):
        discretize.triangular_limit(indicator, levels=(256, 512, 1024),
                                    window=(100, 400))


def test_factor_residual_small(affine):
    assert discretize.factor_residual(affine, n=512) < 1e-5


def test_factor_residual_needs_monotone():
    rising = PiecewisePoly([1.0], [[0.0, 1.0]])  # phi = x, increasing
    with pytest.raises(ValueError):
        discretize.factor_residual(rising, n=64)


def test_explicit_nodes_match_uniform(affine):
    nodes = np.linspace(0.0, 1.0, 65)
    a = discretize.galerkin_matrix(affine, grid=nodes)
    b = discretize.galerkin_matrix(affine, n=64, grid="uniform")
    assert np.array_equal(a.entries, b.entries)
    assert a.n == 64 and a.interval == Interval(0.0, 1.0)


def test_explicit_nodes_reject_disorder(affine):
    with pytest.raises(ValueError):
        discretize.galerkin_matrix(affine, grid=[0.0, 0.5, 0.25])


def test_dense_cap(affine):
    gm = discretize.galerkin_matrix(affine, n=discretize.MAX_DENSE + 1)
    with pytest.raises(ValueError):
        discretize.singular_values(gm)
    sv, _ = discretize.singular_values(gm, 4)
    assert len(sv) == 4


def test_spectrum_off_grid_step_converges():
    s = Step([0.3333333333333333, 1.0], [2.0, 1.0])
    est = discretize.spectrum(s, K=2)
    exact = discretize.step_exact_spectrum(s).svals
    assert len(est.refinement_history) == 2
    assert np.max(np.abs(est.svals - exact)) <= 1e-12 * exact[0]


def test_spectrum_step_with_ulp_wide_piece():
    s = Step([1.0, math.nextafter(1.0, 2.0)], [2.0, 1.0])
    est = discretize.spectrum(s, K=2)
    exact = discretize.step_exact_spectrum(s).svals
    assert np.max(np.abs(est.svals - exact[:2])) <= 1e-12 * exact[0]


def test_conforming_grid_is_exact_for_steps():
    s = Step([0.3, 1.1, 2.0], [3.0, 2.0, 0.5])
    exact = discretize.step_exact_spectrum(s).svals
    nodes = np.unique(np.concatenate([np.linspace(0, 2.0, 101),
                                      [0.3, 1.1]]))
    gm = discretize.galerkin_matrix(s, grid=nodes)
    sv, _ = discretize.singular_values(gm)
    assert np.max(np.abs(sv[:3] / exact - 1.0)) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_step_exact_matches_gram_oracle(seed):
    # up to 100 breakpoints, cells from 1e-6 to 1: narrow cells far from 0
    # cost digits when cell moments are differences of antiderivatives
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 101))
    cuts = np.cumsum(10.0 ** rng.uniform(-6.0, 0.0, size=n))
    vals = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    s = Step(cuts, vals)
    got = discretize.step_exact_spectrum(s)
    want = acceptance._step_gram_svals(s)
    assert got.method == "step_exact" and got.n == n
    assert np.max(np.abs(got.svals - want)) <= 1e-12 * want[0]
    assert np.sum(got.eigs) == pytest.approx(np.dot(vals, np.diff(
        np.concatenate([[0.0], cuts]))), rel=1e-12)


def test_step_exact_is_capped():
    n = discretize.MAX_DENSE + 1  # alternating values: no two merge
    s = Step(np.arange(1.0, n + 1), np.resize([1.0, 2.0], n))
    with pytest.raises(ValueError, match="capped"):
        discretize.step_exact_spectrum(s)


# breakpoints 0.37, 1.0 and 1.1 split cells; [0.7, 0.700001] is a narrow
# cell far from 0, where the moments are taken from its node, as they are
# on [1.3, 1.300001] on the Laurent tail
_SPLIT_NODES = np.array([0.0, 0.2, 0.5, 0.7, 0.700001, 0.9, 1.05, 1.3, 1.6])
_PPOLY = PiecewisePoly([0.37, 1.0], [[1.0, 2.0, -3.0], [0.5, -0.5, 0.25, 0.1]],
                       tail=[(2.0, -2), (-1.0, -3)])
_TRIG = TrigPoly(1.1, [0.2, 0.5, 1.0, 0.5, 0.2])


@pytest.mark.parametrize("s, nodes", [
    (_PPOLY, _SPLIT_NODES),
    (_TRIG, np.delete(_SPLIT_NODES, 4)),
    (_TRIG, _SPLIT_NODES),
    (_PPOLY, np.insert(_SPLIT_NODES, 8, 1.300001)),
], ids=["ppoly-laurent-tail", "trig", "trig-narrow", "laurent-tail-narrow"])
def test_cell_moments_match_quad(s, nodes):
    gm = discretize.galerkin_matrix(s, grid=nodes)

    def phi(x):
        return float(np.real(evaluate(s, x)))

    for i, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
        # in t = x - a, so the weight t carries no rounding of x
        pts = [c - a for c in (0.37, 1.0, 1.1) if a < c < b] or None
        m = quad(lambda t: phi(a + t), 0.0, b - a, points=pts, epsabs=0,
                 epsrel=1e-13)[0]
        w = quad(lambda t: t * phi(a + t), 0.0, b - a, points=pts,
                 epsabs=0, epsrel=1e-13)[0]
        assert gm.m[i] == pytest.approx(m, rel=1e-12, abs=0.0)
        assert gm.w[i] == pytest.approx(w, rel=1e-12, abs=0.0)


def _random_symbol(rng, kind):
    if kind == "step":
        return random_step(rng)
    if kind == "trig":
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        return TrigPoly(float(rng.uniform(0.5, 2.0)), c)
    n = int(rng.integers(1, 5))
    cuts = np.cumsum(rng.uniform(0.1, 1.0, size=n))
    pieces = [rng.standard_normal(int(rng.integers(1, 4))) for _ in range(n)]
    if kind == "complex":
        pieces = [p + 1j * rng.standard_normal(len(p)) for p in pieces]
    return PiecewisePoly(cuts, pieces)


def _random_matrix(seed, kind, mask, grid, n):
    rng = np.random.default_rng(seed)
    s = _random_symbol(rng, kind)
    hi = discretize.support(s).hi
    if grid == "geometric":
        return discretize.galerkin_matrix(
            s, grid=np.geomspace(0.05 * hi, hi, n + 1), mask=mask)
    if grid == "explicit":
        nodes = np.sort(rng.uniform(0.0, hi, size=n + 1))
        return discretize.galerkin_matrix(s, grid=nodes, mask=mask)
    return discretize.galerkin_matrix(s, n=n, mask=mask)


KINDS = ("step", "ppoly", "complex", "trig")


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KINDS),
       st.sampled_from(("full", "lower")),
       st.sampled_from(("uniform", "geometric", "explicit")),
       st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_structured_matvec_matches_dense(seed, kind, mask, grid, n):
    gm = _random_matrix(seed, kind, mask, grid, n)
    A = gm.entries
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(gm.n) + 1j * rng.standard_normal(gm.n)
    scale = np.linalg.norm(A, 2) * np.linalg.norm(x) + 1e-300
    assert np.linalg.norm(gm.matvec(x) - A @ x) <= 1e-13 * scale
    assert np.linalg.norm(gm.rmatvec(x) - A.T @ x) <= 1e-13 * scale
    assert np.linalg.norm(gm.matvec(x.real) - A @ x.real) <= 1e-13 * scale
    assert gm.frobenius_norm() == pytest.approx(np.linalg.norm(A), rel=1e-13)


REAL_KINDS = ("step", "ppoly")


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(REAL_KINDS),
       st.sampled_from(("full", "lower")),
       st.sampled_from(("uniform", "geometric", "explicit")),
       st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_dense_route_lower_triangle(seed, kind, mask, grid, n):
    gm = _random_matrix(seed, kind, mask, grid, n)
    A = gm.entries
    got = np.tril(discretize._dense_lower(gm))
    if mask == "full":
        assert np.array_equal(got, np.tril(A))
        _, eigs = discretize.singular_values(gm)
        assert np.array_equal(np.sort(eigs), eigvalsh(A))
    else:
        want = np.tril(A @ A.T)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(REAL_KINDS),
       st.sampled_from(("uniform", "geometric", "explicit")),
       st.integers(1, 512))
@settings(max_examples=30, deadline=None)
def test_dense_lower_mask_matches_svd(seed, kind, grid, n):
    gm = _random_matrix(seed, kind, "lower", grid, n)
    sv, _ = discretize.singular_values(gm)
    want = svdvals(gm.entries)
    # the Gram solve moves each s_k^2 by about eps s_0^2 (Weyl), so s_k
    # itself by eps s_0^2 / s_k: bound the squares, which holds however
    # small the least values are (1e-9 s_0 for x^2 at n = 512)
    assert np.max(np.abs(sv ** 2 - want ** 2)) <= 1e-13 * want[0] ** 2


@pytest.mark.parametrize("mask", ["full", "lower"])
@pytest.mark.parametrize("kind", KINDS)
def test_lanczos_matches_dense(kind, mask):
    gm = _random_matrix(7, kind, mask, "uniform", 1024)
    sv, eigs = discretize.singular_values(gm)
    top, top_eigs = discretize.singular_values(gm, 16)
    assert len(top) == 16
    assert np.max(np.abs(top - sv[:16])) <= 1e-12 * sv[0]
    if eigs is None:
        assert top_eigs is None
    else:
        assert np.max(np.abs(top_eigs - eigs[:16])) <= 1e-12 * sv[0]


def test_signed_eigs_match_dense():
    # a sign-changing step: the full matrix has eigenvalues of both signs
    gm = discretize.galerkin_matrix(Step([0.4, 1.0], [2.0, -1.5]), n=512)
    _, eigs = discretize.singular_values(gm)
    _, top = discretize.singular_values(gm, 12)
    assert np.any(top < 0) and np.any(top > 0)
    assert np.max(np.abs(top - eigs[:12])) <= 1e-12 * abs(eigs[0])


@pytest.mark.parametrize("kind", ["ppoly", "complex"])
def test_lanczos_small_grid_goes_dense(kind):
    gm = _random_matrix(3, kind, "lower", "uniform", 9)
    sv, _ = discretize.singular_values(gm)
    for k in (8, 9, 20):
        top, _ = discretize.singular_values(gm, k)
        assert np.array_equal(top, sv[:k])


def test_lanczos_is_deterministic():
    for kind, mask in (("ppoly", "full"), ("complex", "lower")):
        gm = _random_matrix(11, kind, mask, "uniform", 600)
        a, ea = discretize.singular_values(gm, 10)
        b, eb = discretize.singular_values(gm, 10)
        assert np.array_equal(a, b)
        assert (ea is None and eb is None) or np.array_equal(ea, eb)


def test_lanczos_far_past_dense_cap(affine):
    n = 100_000
    sv, eigs = discretize.singular_values(
        discretize.galerkin_matrix(affine, n=n), 8)
    exact = 1.0 / (np.pi * (np.arange(8) + 0.5)) ** 2
    assert np.max(np.abs(sv / exact - 1.0)) < 1e-6
    assert np.all(eigs > 0)


def test_singular_values_rejects_k_below_one(affine):
    with pytest.raises(ValueError):
        discretize.singular_values(discretize.galerkin_matrix(affine, n=8), 0)
