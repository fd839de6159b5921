"""Run the benchmark on several seeds per workload and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--trace 0]
        [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one run at a time, from the
checkout root, with the workloads and ``run_seconds`` of BENCHMARK.json.
For every metric it reports the median over seeds and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Exits 1
when any run failed or missed a reference.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
           "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        metrics: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        walls, jobs = [], []
        for seed in args.seeds:
            t0 = time.perf_counter()
            r = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            lines = r.stdout.strip().splitlines()
            env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
            if env and "env" not in doc:
                doc["env"] = {k: v for k, v in env[0].items() if k != "seed"}
            res = json.loads(lines[-1]) if lines else {}
            if r.returncode != 0 or not res.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {r.returncode}\n"
                      f"{r.stderr[-2000:]}", file=sys.stderr)
                continue
            jobs.append(res["attempted"])
            for k, v in res["metrics"].items():
                metrics.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            print(f"{workload} seed {seed}: {res['attempted']} jobs, "
                  f"{walls[-1]:.1f} s wall", flush=True)
        doc["workloads"][workload] = {
            "jobs": jobs, "wall_s": walls,
            "metrics": {k: {"unit": units[k], **summary(v)}
                        for k, v in metrics.items()}}
        for k, v in doc["workloads"][workload]["metrics"].items():
            spread = "-" if v["spread"] is None else f"{v['spread']:.3f}"
            print(f"  {k:42s} median {v['median']:.6g} {v['unit']:9s} "
                  f"spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
