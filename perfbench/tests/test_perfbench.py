"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests -q
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def symbol_texts(workload, seed, out_dir):
    """JSON of every symbol in the first two blocks, in job order."""
    return [job.text if isinstance(job, workloads.CliJob)
            else workloads.symbol_to_json(job.s)
            for i in range(2) for job in workloads.block(workload, seed, i, out_dir)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_symbols(workload, tmp_path):
    first = symbol_texts(workload, 7, tmp_path)
    again = symbol_texts(workload, 7, tmp_path)
    other = symbol_texts(workload, 8, tmp_path)
    assert "\n".join(first).encode() == "\n".join(again).encode()
    assert first != other


def test_self_time_on_hand_built_tree():
    #  0 root [0, 10]
    #  1   a [1, 4]          2 a.child [2, 3]
    #  3   b [3, 6]          overlaps a: the union [1, 6] counts once
    #  4   c [8, 12]         clipped to the root's end
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10 - 5 - 2, 3 - 1, 1, 3, 4])


def _bindings():
    out = {}
    for mod, attr, _ in tracing.BINDINGS:
        module = importlib.import_module(f"maxkernel.{mod}")
        if hasattr(module, attr):
            out[(mod, attr)] = getattr(module, attr)
    return out


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    assert len(before) == len(tracing.BINDINGS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _bindings()
        assert all(wrapped[k] is not before[k] for k in before)
        for workload in workloads.WORKLOADS:
            workloads.warm_up(workload, tmp_path)
    finally:
        tracer.restore()
    calls = {name: n for name, (n, _) in tracer.per_name().items()}
    for name in ("cli.main", "classify.classify_schatten", "quad",
                 "symbols.to_pieces", "discretize.spectrum", "solve_ivp",
                 "sturm.eigenvalues.closed_form", "sturm.eigenvalues.dop853"):
        assert calls.get(name, 0) > 0, name
    assert _bindings() == before
    for mod in {m for m, _, _ in tracing.BINDINGS}:
        module = importlib.import_module(f"maxkernel.{mod}")
        assert not any(hasattr(v, "perfbench_span")
                       for v in vars(module).values())


def test_refuses_to_run_without_library_source(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for f in BENCH.glob("*.py"):
        (bare / f.name).write_text(f.read_text())
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "galerkin", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": ""})
    assert r.returncode == 2
    assert r.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    import json
    import run
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_cli_job_checks_only_its_own_output(tmp_path):
    job = workloads.block("symbol-cli", 1, 0, tmp_path)[0]
    job.classify_out.write_text("{}")
    job.hankel_out.write_text("{}")
    job.prepare()
    assert not job.classify_out.exists() and not job.hankel_out.exists()


def test_importing_workloads_pins_every_blas_pool():
    code = ("import run, workloads; "
            "print(sorted({b['threads'] for b in run.blas_info()}))")
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60,
                       env={**env, "MAXKERNEL_THREADS": "1",
                            "PYTHONPATH": f"{BENCH.parent / 'src'}:{BENCH}"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[1]"
