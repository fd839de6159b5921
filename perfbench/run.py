"""maxkernel benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload galerkin --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/maxkernel``; no
install or build step).  Jobs run one at a time: each job's reference is
built untimed, the call into the library is timed, and its output is then
checked.  Jobs come in blocks of fixed composition (see workloads.py) and
the run stops at the block boundary that brings the timed total closest to
``--seconds``.

Job times are reported in ``cal`` units: the job's wall time over the time
of the workload's yardstick (``workloads.yardstick``), a fixed piece of work
timed just before and just after the job.  Wall-clock figures are printed
and recorded beside them.  ``setup_s`` is the median set-up time of fresh
interpreters (``setup_probe.py``), scaled the same way to a host on which
the pure-Python yardstick takes ``PYTHON_LOOP_REF_S``.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` first runs about half the time with every library binding in
tracing.BINDINGS wrapped, restores the bindings, reruns the same blocks
untraced, and reports the per-layer metrics plus the tracing overhead
(traced over untraced job_cal.p50).

Human-readable lines come first; the last line of stdout is the JSON result.
The run also writes the result, with its environment, and (traced runs) the
spans under ``.perfbench_out/``.  Exit code 1 when any job raised or missed
its reference, 2 when the library source is missing, 3 when a BLAS pool
runs more threads than pinned.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# probes run half before and half after the measured jobs: the host's speed
# drifts over tens of seconds, and a median over both ends of the run moves
# less from run to run than one taken at a single moment
SETUP_PROBES = 6
# setup_s is given in seconds of a host on which workloads.python_loop takes
# this long: each probe's wall time is scaled by this over the loop's time
# just before and just after the probe.  Over minutes this host's speed moves
# by 40%, which raw seconds would carry into the set-up figure.
PYTHON_LOOP_REF_S = 0.010
WARM_UP_S = 1.0
# no block is started after this much wall time, so a pathologically slow
# program still ends the run well inside the 180 s limit
WALL_LIMIT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "job_cal.p50": "cal", "job_cal.p90": "cal",
             "jobs_per_cal": "1/cal", "peak_rss_mb": "MB"}


def pin_threads() -> int:
    """Pin the BLAS pool through MAXKERNEL_THREADS, to at most 2 and at most
    the CPUs this process may use; the library applies it at import."""
    n = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    os.environ["MAXKERNEL_THREADS"] = str(n)
    return n


def blas_info() -> list[dict]:
    """Thread count and version of every OpenBLAS loaded (numpy and scipy
    each ship their own)."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        paths = set()
    out = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
            nth = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if cfg is not None and nth is not None:
                cfg.restype = ctypes.c_char_p
                nth.restype = ctypes.c_int
                out.append({"lib": Path(path).name, "threads": int(nth()),
                            "version": cfg().decode()})
                break
    return out


def git_commit() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def environment(seed: int, pinned: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "maxkernel_threads": pinned, "blas": blas_info(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "commit": git_commit()}


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def setup_seconds(workload: str, probes: int) -> list[tuple[float, float]]:
    """Wall time from spawning a fresh interpreter to its "ready" line and
    the mean time of the pure-Python yardstick around it, once per probe,
    one probe at a time."""
    from workloads import python_loop
    out = []
    before = timed(python_loop)
    for _ in range(probes):
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                              workload], stdout=subprocess.PIPE, text=True)
        try:
            line = p.stdout.readline()
            dt = time.perf_counter() - t0
            p.stdout.read()
        finally:
            p.stdout.close()
            code = p.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        after = timed(python_loop)
        out.append((dt, 0.5 * (before + after)))
        before = after
    return out


def percentile(xs, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(xs, dtype=float), q))


class Phase:
    """Outcome of running whole blocks: job times and failures."""

    def __init__(self):
        self.times: list[float] = []
        self.cal: list[float] = []  # job time over the yardstick around it
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.blocks = 0
        self.busy = 0.0


def measure(workload, seed, seconds, t_start, blocks=None, tracer=None):
    """Run blocks 0, 1, ... until the timed total is closest to ``seconds``
    (or exactly ``blocks`` blocks)."""
    import workloads
    ph = Phase()
    # references and checks call the library too; only the job is traced
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    yardstick = workloads.yardstick(workload)

    before = timed(yardstick)
    while True:
        jobs = workloads.block(workload, seed, ph.blocks, OUT)
        for job in jobs:
            with untraced():
                job.prepare()
            if tracer is not None:
                tracer.job_id = len(ph.times)
            t0 = time.perf_counter()
            try:
                out = job.run()
                err = None
            except Exception as e:  # a failed job is counted, not fatal
                err = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if err is None:
                with untraced():
                    err = job.check(out)
            after = timed(yardstick)
            ph.cal.append(2.0 * dt / (before + after))
            before = after
            ph.times.append(dt)
            ph.kinds.append(job.kind)
            ph.busy += dt
            if err is not None:
                ph.failures.append(f"block {ph.blocks} {job.kind}: {err}")
        ph.blocks += 1
        if blocks is not None:
            if ph.blocks >= blocks:
                return ph
        elif ph.busy + 0.5 * ph.busy / ph.blocks >= seconds:
            return ph
        if time.perf_counter() - t_start > WALL_LIMIT_S:
            return ph


def warm_up(workload, seed):
    """Untimed: the tiny calls, then the first jobs of block 0."""
    import workloads
    workloads.warm_up(workload, OUT)
    t0 = time.perf_counter()
    for job in workloads.block(workload, seed, 0, OUT):
        if job.kind == "kinked-sharp":
            continue
        job.run()
        if time.perf_counter() - t0 > WARM_UP_S:
            break


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("galerkin", "shooting", "symbol-cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "maxkernel" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'maxkernel'}; run from a "
              f"maxkernel checkout", file=sys.stderr)
        return 2
    pinned = pin_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import workloads  # noqa: F401  (imports maxkernel, pinning the pool)
    env = environment(args.seed, pinned)
    unpinned = [b for b in env["blas"] if b["threads"] > pinned]
    if unpinned:
        print(f"error: BLAS pool not pinned to {pinned} threads: {unpinned}",
              file=sys.stderr)
        return 3
    setup = [] if args.trace else setup_seconds(args.workload,
                                                SETUP_PROBES // 2)
    warm_up(args.workload, args.seed)

    if args.trace:
        from tracing import LAYER_UNITS, Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(args.workload, args.seed, 0.5 * args.seconds,
                             t_start, tracer=tracer)
        finally:
            tracer.restore()
        plain = measure(args.workload, args.seed, 0, t_start,
                        blocks=traced.blocks)
        metrics = tracer.layer_metrics(len(traced.times))
        metrics["trace.job_cal.p50"] = percentile(traced.cal, 50)
        metrics["trace.overhead_ratio"] = \
            metrics["trace.job_cal.p50"] / percentile(plain.cal, 50)
        units = LAYER_UNITS
        phases = [traced, plain]
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        run = measure(args.workload, args.seed, args.seconds, t_start)
        setup += setup_seconds(args.workload, SETUP_PROBES - len(setup))
        metrics = {
            "setup_s": statistics.median(
                wall * PYTHON_LOOP_REF_S / loop for wall, loop in setup),
            "job_cal.p50": percentile(run.cal, 50),
            "job_cal.p90": percentile(run.cal, 90),
            "jobs_per_cal": len(run.cal) / sum(run.cal),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        phases = [run]

    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    # wall-clock figures, reported beside the host-normalized ones
    wall = {"job_s.p50": percentile(phases[-1].times, 50),
            "job_s.p90": percentile(phases[-1].times, 90),
            "jobs_per_s": len(phases[-1].times) / phases[-1].busy,
            "failed_frac": len(failures) / attempted}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "blocks": [p.blocks for p in phases],
              "timed_s": [p.busy for p in phases], "wall": wall,
              "setup_probes": [{"wall_s": w, "python_loop_s": y}
                               for w, y in setup],
              "failures": failures,
              "jobs": [list(zip(p.kinds, p.times, p.cal)) for p in phases],
              **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blocks {record['blocks']}  timed {sum(record['timed_s']):.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"jobs {attempted} attempted, {len(failures)} failed")
    for k, unit in units.items():
        print(f"{k:42s} {metrics[k]:.6g} {unit}")
    untraced = " (untraced phase)" if args.trace else ""
    for k, unit in (("job_s.p50", "s"), ("job_s.p90", "s"),
                    ("jobs_per_s", "1/s"), ("failed_frac", "1")):
        print(f"{k:42s} {wall[k]:.6g} {unit}  wall clock{untraced}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
