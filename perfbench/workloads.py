"""Seeded inputs, timed jobs and reference checks for the three workloads.

A workload is an endless sequence of blocks.  Each block has a fixed
composition of job kinds, shuffled by the seed, so every complete block
holds the same share of each job-time mode and the reported percentiles
land in the same mode on every seed (``GALERKIN_BLOCK``, ``SHOOT_TEMPLATES``
and ``CLI_KINDS``).
Block ``i`` is generated from ``(seed, workload, i)`` alone, so the same
seed gives the same symbols however many blocks a run completes.

Every job has three steps: ``prepare`` builds its independent reference
outside the timed region, ``run`` is the timed call into the library, and
``check`` compares the output with the reference and returns ``None`` or
the reason the job failed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

# maxkernel first: its import turns MAXKERNEL_THREADS into the BLAS thread
# variables, which OpenBLAS reads only when numpy or scipy first loads it
import maxkernel  # noqa: F401  isort: skip
import numpy as np
from scipy.linalg import eigvalsh

from maxkernel import classify, cli, discretize, sturm
from maxkernel.symbols import (PiecewisePoly, Sampled, Step, TrigPoly,
                               symbol_to_json)

WORKLOADS = ("galerkin", "shooting", "symbol-cli")

# kinks of the galerkin and shooting symbols sit on multiples of b / KNOT_GRID,
# which is a node of every grid spectrum() visits (n0 = 256, doubling), so the
# O(h^2) error decays cleanly and each family converges at one grid size
KNOT_GRID = 256
SPECTRUM_K = 16
LOWER_N = 1024
STEP_GRID = 512
SHOOT_K = 32
CLI_P = "2,1,0.75,0.4"
HANKEL_K = 32

# reference tolerances, each well above the largest deviation measured
SPECTRUM_ATOL = 1e-5     # |s_k - ref_k| / ref_0; measured at most 3.4e-7
LOWER_HS_RTOL = 5e-3     # lower-mask sum s_n^2 against s2^2 / 2; at most 1.4e-3
STEP_ATOL = 1e-9         # galerkin vs step_exact, relative to s_0
STEP_TRACE_RTOL = 1e-9   # sum of step_exact eigenvalues against int phi
AFFINE_SHOOT_RTOL = 1e-8
# boundary_residual is limited by the (G, g) flow that evaluates it
# (rtol 1e-12): on the DOP853 route it reaches 9e-10 at n = 31, and drops
# to 6e-11 with the flow at 1e-13, the eigenvalue unchanged.  A relative
# error e in omega_n adds about 1.5 e to the residual at n = 0 and 90 e at
# n = 31, so the bound still catches e of 1e-8 at n = 0.
RESIDUAL_MAX = 1e-8


def block_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def yardstick(workload: str):
    """Fixed work, independent of the library, timed around every job.

    This host's speed drifts by up to a factor of two over tens of seconds,
    and interpreted Python and threaded dense LAPACK drift differently.  So
    each workload gets a yardstick of the character of its cost: a 384 x 384
    ``eigvalsh`` (about 15 ms) for galerkin, a pure-Python loop (about 10 ms)
    for the others.  A job's time over the yardstick's holds still where its
    wall time does not.
    """
    if workload == "galerkin":
        a = np.random.default_rng(0).random((384, 384))
        a = a + a.T
        return lambda: eigvalsh(a)
    return python_loop


def python_loop():
    """The pure-Python yardstick; it also scales the set-up probes."""
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return s


# ---------------------------------------------------------------------------
# symbol families


def _linear_pieces(knots, vals) -> PiecewisePoly:
    """Continuous piecewise-linear symbol through (knots[i], vals[i]),
    knots[0] = 0, zero beyond knots[-1]."""
    pieces = []
    for x0, x1, y0, y1 in zip(knots[:-1], knots[1:], vals[:-1], vals[1:]):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append((y0 - slope * x0, slope))
    return PiecewisePoly([float(x) for x in knots[1:]], pieces)


def _scale(rng):
    """Height c and support end b; spectra scale by c * b and the grid
    levels of spectrum() do not depend on either."""
    return float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 3.0))


def affine(rng) -> PiecewisePoly:
    c, b = _scale(rng)
    return PiecewisePoly([b], [[c, -c / b]])


def kinked(rng, width: int, drop_lo: float, drop_hi: float) -> PiecewisePoly:
    """Continuous nonincreasing three-segment line with phi(b) = 0.

    The first segment falls by a fraction in [drop_lo, drop_hi] over about
    ``width`` knot cells; the wider the drop over fewer cells, the finer the
    grid spectrum() needs.  The two later slopes differ by a seeded ratio.
    """
    c, b = _scale(rng)
    w = (width + int(rng.integers(-2, 3))) / KNOT_GRID
    f = rng.uniform(drop_lo, drop_hi)
    k2 = int(rng.integers(int(round(w * KNOT_GRID)) + 16, KNOT_GRID - 16)) \
        / KNOT_GRID
    r = rng.uniform(0.8, 1.25)  # slope of the last segment over the middle one
    v2 = r * (1 - f) / (k2 - w) / (1 / (1 - k2) + r / (k2 - w))
    knots = np.array([0.0, w, k2, 1.0]) * b
    vals = np.array([1.0, 1.0 - f, v2, 0.0]) * c
    return _linear_pieces(knots, vals)


def curved(rng, pieces: int) -> PiecewisePoly:
    """Continuous nonincreasing piecewise quadratic with phi(b) = 0.

    -phi' is piecewise linear and positive, with seeded values in [0.5, 1.5]
    (times c / b) at knots on the b / KNOT_GRID grid.
    """
    c, b = _scale(rng)
    inner = np.sort(rng.choice(np.arange(8, KNOT_GRID - 8), pieces - 1,
                               replace=False))
    knots = np.concatenate([[0.0], inner / KNOT_GRID, [1.0]])
    return _quadratic_pieces(knots * b, rng.uniform(0.5, 1.5, pieces + 1) * c / b)


# Shapes of -phi' for the shooting workload: (inner knots, values at knots)
# on support [0, 1].  The DOP853 step count depends on the slope profile
# (the Prufer angle turns at rates between omega and omega * (-phi')) and not
# on a joint stretch a * g(x / a), so each block takes every template once,
# jittered, with a seeded stretch: the cost mix is the same on every seed.
# The last template, with slopes well below 1, costs about 1.6 times the others:
# with the closed-form job at the bottom, p50 sits in the middle of the three
# and p90 on the slow one.
SHOOT_TEMPLATES = (((), (0.8, 1.2)),
                   ((), (1.2, 0.8)),
                   ((0.5,), (1.0, 0.8, 1.2)),
                   ((), (0.5, 0.6)))


def curved_template(rng, template) -> PiecewisePoly:
    inner, d = template
    a = float(rng.uniform(0.5, 3.0))
    knots = [0.0] + [x + int(rng.integers(-4, 5)) / KNOT_GRID for x in inner] + [1.0]
    d = np.asarray(d) * rng.uniform(0.98, 1.02, len(d))
    return _quadratic_pieces(np.asarray(knots) * a, d)


def _quadratic_pieces(knots, d) -> PiecewisePoly:
    """phi with phi(knots[-1]) = 0 and -phi' linear between the values d
    at the knots."""
    pieces = len(knots) - 1
    vals = np.zeros(pieces + 1)
    for i in range(pieces - 1, -1, -1):
        vals[i] = vals[i + 1] + 0.5 * (d[i] + d[i + 1]) * (knots[i + 1] - knots[i])
    coeffs = []
    for i in range(pieces):
        a = knots[i]
        s = (d[i + 1] - d[i]) / (knots[i + 1] - a)
        # phi(x) = vals[i] - int_a^x (d[i] + s (t - a)) dt
        coeffs.append((vals[i] + (d[i] - s * a) * a + 0.5 * s * a * a,
                       -(d[i] - s * a), -0.5 * s))
    return PiecewisePoly([float(x) for x in knots[1:]], coeffs)


def grid_step(rng):
    """Nonincreasing positive step with breakpoints on a uniform grid.

    Returns the symbol and the grid; the Galerkin space on that grid
    contains the operator's range, so its spectrum is exact.
    """
    c, b = _scale(rng)
    nodes = np.linspace(0.0, b, STEP_GRID + 1)
    r = int(rng.integers(2, 7))
    idx = np.sort(rng.choice(np.arange(1, STEP_GRID), r - 1, replace=False))
    idx = np.concatenate([idx, [STEP_GRID]])
    vals = np.cumsum(rng.uniform(0.2, 1.0, r)[::-1])[::-1] * c
    return Step(nodes[idx], vals), nodes


# ---------------------------------------------------------------------------
# jobs


class Job:
    kind = ""

    def prepare(self):
        """Build the reference; runs outside the timed region."""

    def run(self):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError


def _max_dev(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if len(got) < len(ref):
        return math.inf
    return float(np.max(np.abs(got[:len(ref)] - ref)) / ref[0])


class SpectrumJob(Job):
    """spectrum() of a smooth symbol, then the lower mask at LOWER_N."""

    def __init__(self, kind, s, closed_form=None):
        self.kind, self.s, self.closed_form = kind, s, closed_form

    def prepare(self):
        if self.closed_form is not None:
            self.ref = self.closed_form
        else:
            self.ref = np.array([r.lam for r in
                                 sturm.eigenvalues(self.s, SPECTRUM_K)])
        self.hs = classify.s2_norm(self.s) ** 2 / 2.0

    def run(self):
        est = discretize.spectrum(self.s, n0=256, K=SPECTRUM_K, tol=1e-6)
        low, _ = discretize.singular_values(
            discretize.galerkin_matrix(self.s, n=LOWER_N, mask="lower"))
        return est, low

    def check(self, out):
        est, low = out
        dev = _max_dev(est.svals, self.ref)
        if not dev <= SPECTRUM_ATOL:
            return f"spectrum deviates {dev:.3g} from reference"
        hs = abs(float(np.sum(low ** 2)) / self.hs - 1.0)
        if not hs <= LOWER_HS_RTOL:
            return f"lower-mask sum s_n^2 deviates {hs:.3g} from s2^2/2"
        return None


class StepJob(Job):
    """Exact step spectrum and the Galerkin matrix on a grid through the
    breakpoints."""
    kind = "step"

    def __init__(self, s, nodes):
        self.s, self.nodes = s, nodes

    def prepare(self):
        self.trace = classify.trace_value(self.s).real

    def run(self):
        exact = discretize.step_exact_spectrum(self.s)
        sv, _ = discretize.singular_values(
            discretize.galerkin_matrix(self.s, grid=self.nodes))
        return exact, sv

    def check(self, out):
        exact, sv = out
        tr = float(np.sum(exact.eigs))
        if not abs(tr / self.trace - 1.0) <= STEP_TRACE_RTOL:
            return f"step_exact trace {tr!r} against int phi {self.trace!r}"
        r = len(exact.svals)
        dev = _max_dev(sv[:r], exact.svals)
        rest = float(np.max(sv[r:], initial=0.0)) / exact.svals[0]
        if not (dev <= STEP_ATOL and rest <= STEP_ATOL):
            return f"galerkin deviates {max(dev, rest):.3g} from step_exact"
        return None


def _affine_closed_form(s: PiecewisePoly, K: int) -> np.ndarray:
    c = s.pieces[0][0].real
    b = s.breakpoints[0]
    n = np.arange(K)
    return c * b / (math.pi ** 2 * (n + 0.5) ** 2)


# galerkin: per block, one step (tiny), 11 jobs that converge at n = 1024,
# 7 at 2048 and 1 at 4096, so p50 sits inside the 1024 mode and p90 inside
# the 2048 mode for any number of complete blocks
GALERKIN_BLOCK = (("step", 1), ("affine", 8), ("curved", 3),
                  ("kinked", 7), ("kinked-sharp", 1))


def galerkin_block(rng) -> list[Job]:
    jobs: list[Job] = []
    for kind, count in GALERKIN_BLOCK:
        for _ in range(count):
            if kind == "step":
                jobs.append(StepJob(*grid_step(rng)))
            elif kind == "affine":
                s = affine(rng)
                jobs.append(SpectrumJob(kind, s,
                                        _affine_closed_form(s, SPECTRUM_K)))
            elif kind == "curved":
                jobs.append(SpectrumJob(kind, curved(rng, int(rng.integers(1, 4)))))
            elif kind == "kinked":
                jobs.append(SpectrumJob(kind, kinked(rng, 32, 0.45, 0.55)))
            else:
                jobs.append(SpectrumJob(kind, kinked(rng, 16, 0.57, 0.63)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# shooting


class ShootJob(Job):
    def __init__(self, kind, s, closed_form=None):
        self.kind, self.s, self.closed_form = kind, s, closed_form

    def run(self):
        return sturm.eigenvalues(self.s, SHOOT_K)

    def check(self, out):
        lam = np.array([r.lam for r in out])
        if len(lam) != SHOOT_K:
            return f"got {len(lam)} eigenvalues"
        if self.closed_form is not None:
            dev = float(np.max(np.abs(lam / self.closed_form - 1.0)))
            if not dev <= AFFINE_SHOOT_RTOL:
                return f"affine eigenvalues deviate {dev:.3g}"
        res = max(r.boundary_residual for r in out)
        if not res <= RESIDUAL_MAX:
            return f"boundary residual {res:.3g}"
        if not (np.all(lam > 0) and np.all(np.diff(lam) < 0)):
            return "eigenvalues not positive and strictly decreasing"
        return None


def shooting_block(rng, index: int) -> list[Job]:
    """One curved symbol per template (DOP853 route) and one piecewise linear
    symbol (closed-form route), affine on even blocks."""
    jobs: list[Job] = [ShootJob("curved", curved_template(rng, t))
                       for t in SHOOT_TEMPLATES]
    if index % 2 == 0:
        s = affine(rng)
        jobs.append(ShootJob("affine", s, _affine_closed_form(s, SHOOT_K)))
    else:
        jobs.append(ShootJob("kinked", kinked(rng, 32, 0.45, 0.55)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# symbol-cli


def _cplx(rng, n, complex_values):
    re = rng.uniform(-1.0, 1.0, n)
    if not complex_values:
        return [float(v) for v in re]
    return [complex(a, b) for a, b in zip(re, rng.uniform(-1.0, 1.0, n))]


def _points(rng, n, hi=3.0):
    return [float(x) for x in np.sort(rng.choice(
        np.arange(1, 301), n, replace=False)) * hi / 300]


def _real_trig_coeffs(rng, M):
    """2M+1 conjugate-symmetric coefficients: a real trig polynomial."""
    pos = _cplx(rng, M, True)
    return [c.conjugate() for c in pos[::-1]] + [float(rng.uniform(-1, 1))] + pos


def cli_symbol(rng, kind: str):
    if kind in ("step", "step-complex"):
        n = int(rng.integers(2, 6))
        return Step(_points(rng, n), _cplx(rng, n, kind == "step-complex"))
    if kind in ("sampled-pc", "sampled-pl"):
        n = int(rng.integers(4, 9))
        return Sampled(_points(rng, n), _cplx(rng, n, False), kind[-2:])
    if kind.startswith("ppoly"):
        n = int(rng.integers(2, 4))
        pieces = [_cplx(rng, 3, False) for _ in range(n)]
        tail = ()
        if kind == "ppoly-tail1":
            tail = [(float(rng.uniform(0.5, 1.5)), -1),
                    (float(rng.uniform(-1, 1)), -2)]
        elif kind == "ppoly-tail2":
            tail = [(float(rng.uniform(0.5, 1.5)), -2),
                    (float(rng.uniform(-1, 1)), -3)]
        return PiecewisePoly(_points(rng, n), pieces, tail=tail)
    if kind == "trig-periodic":
        return TrigPoly(float(rng.uniform(0.5, 2.0)), _real_trig_coeffs(rng, 2),
                        periodic=True)
    # the one-period template under a seeded global phase, maybe conjugated:
    # |phi'| is the same on every seed; the adaptive quad work still moves
    # by up to 1.8x with the phase
    coeffs = np.array(TRIG_TEMPLATE) * np.exp(2j * np.pi * rng.uniform())
    if rng.uniform() < 0.5:
        coeffs = coeffs[::-1].conj()
    return TrigPoly(1.0, [complex(c) for c in coeffs])


# Coefficients of the complex one-period trig symbols.  Adaptive quad inside
# variation_tail takes about 0.7 s on this symbol; that time moves by a factor
# of two between random coefficient draws, and by 15% under a 2% jitter, so
# the coefficients are fixed.
TRIG_TEMPLATE = (0.3 - 0.2j, -0.5 + 0.4j, 0.8 + 0.1j, 0.2 - 0.6j, -0.4 - 0.3j)


# Per block, by job time: 4 tiny (periodic trig and x^-1 tails, whose
# variation norm is infinite at once, ~3 ms), 6 steps (~25 ms), 3 others
# (~40 ms) and 3 one-period trig symbols (~0.7 s), the top 3/16.  So p50 sits
# in the middle of the step group and p90 in the middle of the trig group.
CLI_KINDS = ("trig-periodic", "trig-periodic", "ppoly-tail1", "ppoly-tail1",
             "step", "step", "step-complex", "step-complex", "sampled-pc",
             "sampled-pc", "sampled-pl", "ppoly", "ppoly-tail2", "trig",
             "trig", "trig")
STEP_KINDS = ("step", "step-complex", "sampled-pc")
UNBOUNDED_KINDS = ("ppoly-tail1", "ppoly-tail2", "trig-periodic")


class CliJob(Job):
    def __init__(self, kind, text, out_dir: Path, tag: str):
        self.kind, self.text = kind, text
        self.classify_out = out_dir / f"classify-{tag}.json"
        self.hankel_out = out_dir / f"hankel-{tag}.json"

    def prepare(self):
        # so check() sees only what this job's run() wrote
        self.classify_out.unlink(missing_ok=True)
        self.hankel_out.unlink(missing_ok=True)

    def run(self):
        codes = [cli.main(["classify", "--symbol", self.text, "--p", CLI_P,
                           "--format", "json",
                           "--out", str(self.classify_out)])]
        if self.kind not in UNBOUNDED_KINDS:
            codes.append(cli.main(["hankel", "--symbol", self.text,
                                   "--K", str(HANKEL_K), "--format", "json",
                                   "--out", str(self.hankel_out)]))
        return codes

    def check(self, codes):
        if any(c != 0 for c in codes):
            return f"exit codes {codes}"
        doc = json.loads(self.classify_out.read_text())["results"]
        verdicts = {r["p"]: r["verdict"] for r in doc["schatten"]}
        if sorted(verdicts) != sorted(float(p) for p in CLI_P.split(",")):
            return f"verdicts for p = {sorted(verdicts)}"
        if any(p > 1 and v == "unknown" for p, v in verdicts.items()):
            return f"unknown verdict above p = 1: {verdicts}"
        if self.kind in STEP_KINDS:
            if any(v != "in" for v in verdicts.values()):
                return f"step not in every S_p: {verdicts}"
        elif verdicts[0.4] != "out":
            return f"smooth slope not out of S_0.4: {verdicts}"
        if self.kind == "ppoly-tail1" and verdicts[1.0] != "out":
            return f"x^-1 tail not out of S_1: {verdicts}"
        if self.kind not in UNBOUNDED_KINDS:
            if doc["operator"] != {"bounded": "in", "compact": "in"}:
                return f"bounded support not compact: {doc['operator']}"
            hw = json.loads(self.hankel_out.read_text())["results"]
            sv = np.asarray(hw["svals"], dtype=float)
            # coverage is a ratio of two float sums and may exceed 1 by an ulp
            if len(sv) != 2 * hw["order"] + 1 or \
                    not 0.0 <= hw["coverage"] <= 1.0 + 1e-12:
                return f"hankel window of order {hw['order']} has {len(sv)} values"
            if not (np.all(np.isfinite(sv)) and np.all(sv >= 0)
                    and np.all(np.diff(sv) <= 0)):
                return "hankel singular values not finite, >= 0, descending"
        return None


def cli_block(rng, out_dir: Path, index: int) -> list[Job]:
    jobs: list[Job] = [
        CliJob(kind, symbol_to_json(cli_symbol(rng, kind)), out_dir,
               f"{index}-{j}") for j, kind in enumerate(CLI_KINDS)]
    rng.shuffle(jobs)
    return jobs


def block(workload: str, seed: int, index: int, out_dir: Path) -> list[Job]:
    rng = block_rng(seed, workload, index)
    if workload == "galerkin":
        return galerkin_block(rng)
    if workload == "shooting":
        return shooting_block(rng, index)
    return cli_block(rng, out_dir, index)


def warm_up(workload: str, out_dir: Path):
    """Tiny calls that load what the first job of ``workload`` needs."""
    unit = PiecewisePoly([1.0], [[1.0, -1.0]])
    if workload == "galerkin":
        discretize.spectrum(unit, n0=32, K=4, tol=1e-3)
        discretize.singular_values(
            discretize.galerkin_matrix(unit, n=64, mask="lower"))
        steps = Step([0.5, 1.0], [2.0, 1.0])
        discretize.step_exact_spectrum(steps)
        discretize.singular_values(discretize.galerkin_matrix(steps, n=8))
    elif workload == "shooting":
        sturm.eigenvalues(unit, 2)
        sturm.eigenvalues(PiecewisePoly([1.0], [[1.0, -2.0, 1.0]]), 2)
    else:
        text = symbol_to_json(Step([0.5, 1.0], [2.0, 1.0]))
        cli.main(["classify", "--symbol", text, "--p", "2,0.4", "--format",
                  "json", "--out", str(out_dir / "warm-classify.json")])
        cli.main(["hankel", "--symbol", text, "--K", "4", "--format", "json",
                  "--out", str(out_dir / "warm-hankel.json")])
