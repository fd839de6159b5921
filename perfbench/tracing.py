"""Spans around calls into the library's modules, for the traced run.

The tracer replaces module attributes with timing wrappers and puts the
originals back in ``restore``; no library source is touched.  Each wrapped
call records one span (name, start, end, parent span, job id).  Spans stay
in memory until the run ends.  A span's self time is its duration minus
the part of its interval covered by its child spans.
"""
from __future__ import annotations

import importlib
import math
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module under maxkernel, attribute, span name).  A name bound in several
# modules by ``from x import name`` is wrapped in each of them, so calls
# from every caller are seen; bindings that do not exist are skipped.
BINDINGS = [
    ("symbols", "to_pieces", "symbols.to_pieces"),
    ("classify", "to_pieces", "symbols.to_pieces"),
    ("discretize", "to_pieces", "symbols.to_pieces"),
    ("sturm", "to_pieces", "symbols.to_pieces"),
    ("matrixrep", "to_pieces", "symbols.to_pieces"),
    ("symbols", "symbol_from_json", "symbols.symbol_from_json"),
    ("cli", "symbol_from_json", "symbols.symbol_from_json"),
    ("symbols", "quad", "quad"),
    ("classify", "quad", "quad"),
    ("sturm", "quad", "quad"),
    ("matrixrep", "quad", "quad"),
    ("_piecewise", "quad", "quad"),
    ("classify", "classify_schatten", "classify.classify_schatten"),
    ("classify", "is_bounded", "classify.is_bounded"),
    ("classify", "is_compact", "classify.is_compact"),
    ("discretize", "spectrum", "discretize.spectrum"),
    ("discretize", "galerkin_matrix", "discretize.galerkin_matrix"),
    ("discretize", "singular_values", "discretize.singular_values"),
    ("discretize", "step_exact_spectrum", "discretize.step_exact_spectrum"),
    ("sturm", "eigenvalues", "sturm.eigenvalues"),
    ("sturm", "solve_ivp", "solve_ivp"),
    ("matrixrep", "fourier_coeffs", "matrixrep.fourier_coeffs"),
    ("matrixrep", "hankel_window", "matrixrep.hankel_window"),
    ("matrixrep", "hankel_svals", "matrixrep.hankel_svals"),
    ("cli", "main", "cli.main"),
]

CRITERIA = ("xp-norm", "monotone-profile", "yp-variation", "dini-l2-modulus",
            "xp-divergence", "undecided-gap", "finite-rank-step",
            "smooth-slope-exclusion")

# per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    "symbols.to_pieces.calls": "calls/job",
    "symbols.to_pieces.self_s": "s/job",
    "symbols.symbol_from_json.self_s": "s/job",
    "quad.calls": "calls/job",
    "quad.self_s": "s/job",
    "classify.classify_schatten.calls": "calls/job",
    "classify.classify_schatten.self_s": "s/job",
    **{f"classify.criterion.{c}.count": "1/job" for c in CRITERIA},
    "discretize.galerkin_matrix.self_s": "s/job",
    "discretize.singular_values.self_s": "s/job",
    "discretize.singular_values.calls": "calls/job",
    "discretize.spectrum.levels_per_call": "levels",
    "discretize.dense_bytes": "B/job",
    "sturm.eigenvalues.closed_form.self_s": "s/job",
    "sturm.eigenvalues.dop853.self_s": "s/job",
    "solve_ivp.calls": "calls/job",
    "solve_ivp.self_s": "s/job",
    "solve_ivp.nfev": "1/job",
    "sturm.boundary_residual.max": "rel",
    "matrixrep.fourier_coeffs.self_s": "s/job",
    "matrixrep.hankel_window.self_s": "s/job",
    "matrixrep.hankel_svals.self_s": "s/job",
    "cli.main.self_s": "s/job",
    "trace.job_cal.p50": "cal",
    "trace.overhead_ratio": "ratio",
}


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    out = end - start
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], reach), min(end[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Calls made inside pass through unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, orig, name: str, on_result=None, name_of=None):
        tracer = self
        fixed = self.name_id(name)

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return orig(*args, **kwargs)
            nid = fixed if name_of is None else tracer.name_id(name_of(*args))
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.end.append(math.nan)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = orig
        wrapper.perfbench_span = name
        return wrapper

    def install(self):
        """Wrap every binding in BINDINGS that exists."""
        from maxkernel import sturm
        hooks = {
            "classify.classify_schatten": self._on_verdict,
            "discretize.spectrum": self._on_spectrum,
            "discretize.galerkin_matrix": self._on_galerkin,
            "sturm.eigenvalues": self._on_eigenvalues,
            "solve_ivp": self._on_ivp,
        }

        def route(s, *_):
            # read the route outside the span, with tracing paused so the
            # probe's own calls are not counted; a symbol the probe rejects
            # is left for the wrapped call to reject with its own error
            with self.paused():
                try:
                    method = sturm.prufer_theta(s, 1.0).method
                except (ValueError, RuntimeError):
                    method = "rejected"
            return ("sturm.eigenvalues.closed_form" if method == "closed-form"
                    else f"sturm.eigenvalues.{method}")

        for mod_name, attr, name in BINDINGS:
            module = importlib.import_module(f"maxkernel.{mod_name}")
            if not hasattr(module, attr):
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name, hooks.get(name),
                                 route if name == "sturm.eigenvalues" else None)
            setattr(module, attr, wrapped)
            self._patches.append((module, attr, orig))

    def restore(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _on_verdict(self, v):
        self.counts[f"criterion.{v.criterion}"] += 1

    def _on_spectrum(self, est):
        self.counts["spectrum.calls"] += 1
        self.counts["spectrum.levels"] += len(est.refinement_history)

    def _on_galerkin(self, gm):
        self.counts["dense_bytes"] += gm.entries.nbytes

    def _on_eigenvalues(self, res):
        self.residual_max = max([self.residual_max]
                                + [r.boundary_residual for r in res])

    def _on_ivp(self, sol):
        self.counts["nfev"] += sol.nfev

    def per_name(self):
        """{span name: (calls, total self time)}."""
        names = np.frombuffer(self.name, dtype=np.int32)
        selfs = self_times(self.start, self.end, self.parent)
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=selfs, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i]))
                for i, n in enumerate(self.names)}

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics over ``jobs`` traced jobs (the trace.* pair is
        filled in by the caller)."""
        spans = self.per_name()

        def calls(name):
            return spans.get(name, (0, 0.0))[0] / jobs

        def self_s(name):
            return spans.get(name, (0, 0.0))[1] / jobs

        c = self.counts
        out = {
            "symbols.to_pieces.calls": calls("symbols.to_pieces"),
            "symbols.to_pieces.self_s": self_s("symbols.to_pieces"),
            "symbols.symbol_from_json.self_s": self_s("symbols.symbol_from_json"),
            "quad.calls": calls("quad"),
            "quad.self_s": self_s("quad"),
            "classify.classify_schatten.calls": calls("classify.classify_schatten"),
            "classify.classify_schatten.self_s": self_s("classify.classify_schatten"),
            **{f"classify.criterion.{k}.count": c[f"criterion.{k}"] / jobs
               for k in CRITERIA},
            "discretize.galerkin_matrix.self_s": self_s("discretize.galerkin_matrix"),
            "discretize.singular_values.self_s": self_s("discretize.singular_values"),
            "discretize.singular_values.calls": calls("discretize.singular_values"),
            "discretize.spectrum.levels_per_call":
                c["spectrum.levels"] / c["spectrum.calls"] if c["spectrum.calls"] else 0.0,
            "discretize.dense_bytes": c["dense_bytes"] / jobs,
            "sturm.eigenvalues.closed_form.self_s": self_s("sturm.eigenvalues.closed_form"),
            "sturm.eigenvalues.dop853.self_s": self_s("sturm.eigenvalues.dop853"),
            "solve_ivp.calls": calls("solve_ivp"),
            "solve_ivp.self_s": self_s("solve_ivp"),
            "solve_ivp.nfev": c["nfev"] / jobs,
            "sturm.boundary_residual.max": self.residual_max,
            "matrixrep.fourier_coeffs.self_s": self_s("matrixrep.fourier_coeffs"),
            "matrixrep.hankel_window.self_s": self_s("matrixrep.hankel_window"),
            "matrixrep.hankel_svals.self_s": self_s("matrixrep.hankel_svals"),
            "cli.main.self_s": self_s("cli.main"),
        }
        return out

    def save(self, path):
        """Write the spans as arrays (np.load gives them back)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32))
