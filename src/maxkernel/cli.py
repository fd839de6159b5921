"""Command line front end.

Subcommands: classify, spectrum, sturm, hankel, expdemo, verify.  Every
output embeds the fully resolved job configuration, as a "config" object in
JSON or as a leading comment line in CSV, so a result file identifies the
run that made it.

CSV numbers are written with repr (shortest round-trip form) and all
reductions run in a fixed order, so re-running a job byte-identically
reproduces the file.  Exit codes: 2 for unparseable or out-of-range input,
3 for numeric failure inside a solve (running out of memory included), 1 for
acceptance-check failures under ``verify``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import acceptance, classify, discretize, matrixrep, sturm
from .symbols import Symbol, symbol_from_json

__all__ = ["main", "JobConfig"]


@dataclass(frozen=True)
class JobConfig:
    """Resolved parameters of one CLI invocation, echoed into the output."""
    command: str
    symbol: Optional[str] = None
    p: Optional[tuple] = None
    n: Optional[int] = None
    tol: Optional[float] = None
    K: Optional[int] = None
    N: Optional[tuple] = None
    method: Optional[str] = None
    only: Optional[str] = None
    format: str = "csv"

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return repr(x)
    return repr(float(x))


def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(cfg: JobConfig, header: list[str], rows: list[list]) -> str:
    lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(cfg: JobConfig, results) -> str:
    return json.dumps({"config": cfg.to_dict(), "results": results},
                      indent=2, sort_keys=True) + "\n"


def _load_symbol(arg: str) -> Symbol:
    """Accept a path to a symbol file or an inline JSON object."""
    text = arg
    p = Path(arg)
    try:
        if p.exists():
            text = p.read_text()
    except OSError:
        pass
    try:
        return symbol_from_json(text)
    except (ValueError, KeyError, TypeError, OverflowError,
            RecursionError) as e:
        raise SystemExit(
            f"cannot parse symbol (inline JSON or a readable path "
            f"expected): {e}") from e


def _parse_exponents(text: str) -> tuple:
    try:
        ps = tuple(float(v) for v in text.split(","))
    except ValueError as e:
        raise SystemExit(f"bad numeric list {text!r}: {e}") from e
    if not all(0.0 < p < math.inf for p in ps):
        raise SystemExit(f"exponents must be positive and finite: {text!r}")
    return ps


def _positive_int(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def _positive_float(text: str) -> float:
    x = float(text)
    if not 0.0 < x < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {x}")
    return x


def _parse_ints(text: str) -> tuple:
    return tuple(_positive_int(v) for v in text.split(","))


def cmd_classify(args) -> int:
    s = _load_symbol(args.symbol)
    ps = _parse_exponents(args.p)
    cfg = JobConfig("classify", symbol=args.symbol, p=ps,
                    format=args.format)
    results = []
    for p in ps:
        v = classify.classify_schatten(s, p)
        results.append({"p": p, "verdict": v.verdict,
                        "criterion": v.criterion,
                        "norms": {k: repr(val) for k, val in
                                  sorted(v.norms.items())}})
    base = {"bounded": classify.is_bounded(s).verdict,
            "compact": classify.is_compact(s).verdict}
    if args.format == "json":
        _emit(_json_doc(cfg, {"operator": base, "schatten": results}),
              args.out)
    else:
        rows = [[_fmt(r["p"]), r["verdict"], r["criterion"]]
                for r in results]
        _emit(_csv(cfg, ["p", "verdict", "criterion"], rows), args.out)
    return 0


def _spectrum_by_method(args, cfg: JobConfig):
    if args.method == "exp":
        if not args.N:
            raise SystemExit("--method exp needs --N")
        est = matrixrep.exp_symbol_svals(int(args.N[0]), args.K)
        return est.svals
    s = _load_symbol(args.symbol)
    if args.method == "sturm":
        res = sturm.eigenvalues(s, args.K)
        return np.array([r.lam for r in res])
    if args.method == "step_exact":
        return discretize.step_exact_spectrum(s).svals
    est = discretize.spectrum(s, n0=args.n, tol=args.tol, K=args.K)
    return est.svals


def cmd_spectrum(args) -> int:
    cfg = JobConfig("spectrum", symbol=args.symbol, n=args.n, tol=args.tol,
                    K=args.K, N=args.N, method=args.method,
                    format=args.format)
    if args.compare:
        s = _load_symbol(args.symbol)
        res = sturm.eigenvalues(s, args.K)
        lam = np.array([r.lam for r in res])
        est = discretize.spectrum(s, n0=args.n, tol=args.tol, K=args.K)
        sv = est.svals[:args.K]
        rel = np.abs(sv / lam - 1.0)
        worst = float(rel.max())
        if args.format == "json":
            doc = {"sturm": [float(v) for v in lam],
                   "galerkin": [float(v) for v in sv],
                   "max_rel_deviation": worst}
            _emit(_json_doc(cfg, doc), args.out)
        else:
            rows = [[i, lam[i], sv[i], rel[i]] for i in range(args.K)]
            rows.append(["max_rel_deviation", "", "", worst])
            _emit(_csv(cfg, ["n", "sturm", "galerkin", "rel_dev"], rows),
                  args.out)
        return 0
    sv = _spectrum_by_method(args, cfg)
    if args.format == "json":
        _emit(_json_doc(cfg, {"svals": [float(v) for v in sv]}), args.out)
    else:
        rows = [[i, v] for i, v in enumerate(sv)]
        _emit(_csv(cfg, ["n", "s_n"], rows), args.out)
    return 0


def cmd_sturm(args) -> int:
    s = _load_symbol(args.symbol)
    cfg = JobConfig("sturm", symbol=args.symbol, K=args.K,
                    format=args.format)
    res = sturm.eigenvalues(s, args.K)
    if args.format == "json":
        _emit(_json_doc(cfg, [json.loads(r.to_json()) for r in res]),
              args.out)
    else:
        rows = [[r.n, r.omega, r.lam, r.boundary_residual] for r in res]
        _emit(_csv(cfg, ["n", "omega", "lambda", "residual"], rows),
              args.out)
    return 0


def cmd_hankel(args) -> int:
    s = _load_symbol(args.symbol)
    cfg = JobConfig("hankel", symbol=args.symbol, K=args.K, n=args.n,
                    format=args.format)
    c = matrixrep.fourier_coeffs(s, args.K)
    hw = matrixrep.hankel_window(c, args.n)
    sv = matrixrep.hankel_svals(hw)
    if args.format == "json":
        _emit(_json_doc(cfg, {"order": hw.order,
                              "coverage": hw.coverage,
                              "svals": [float(v) for v in sv]}), args.out)
    else:
        rows = [[i, v] for i, v in enumerate(sv)]
        out = _csv(cfg, ["n", "s_n"], rows)
        out += (f"# order: {hw.order}\n"
                f"# coverage: {_fmt(hw.coverage)}\n")
        _emit(out, args.out)
    return 0


def cmd_expdemo(args) -> int:
    Ns = args.N or (1, 4, 16, 64, 256)
    ps = _parse_exponents(args.p)
    cfg = JobConfig("expdemo", N=tuple(Ns), p=ps, format=args.format)
    table = matrixrep.exp_symbol_growth(Ns, ps)
    if args.format == "json":
        _emit(_json_doc(cfg, table), args.out)
    else:
        rows = [[r["N"], r["p"], r["norm"], r["reference"], r["ratio"]]
                for r in table]
        _emit(_csv(cfg, ["N", "p", "norm", "reference", "ratio"], rows),
              args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = JobConfig("verify", only=args.only, tol=args.tol,
                    format=args.format)
    try:
        results = acceptance.run_checks(only=args.only, tol=args.tol)
    except ValueError as e:
        raise SystemExit(str(e)) from e
    if args.format == "json":
        _emit(_json_doc(cfg, [asdict(r) for r in results]), args.out)
    else:
        lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True)]
        lines += [r.line() for r in results]
        n_fail = sum(not r.passed for r in results)
        lines.append(f"{len(results) - n_fail}/{len(results)} checks "
                     f"passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if any(not r.passed for r in results) else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="maxkernel",
        description="spectral analysis of kernels phi(max(x, y))")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, symbol=True):
        if symbol:
            p.add_argument("--symbol", required=True,
                           help="symbol JSON, inline or a file path")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("classify", help="operator class verdicts")
    common(p)
    p.add_argument("--p", default="1.0",
                   help="comma-separated Schatten exponents")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("spectrum", help="singular values by any method")
    common(p)
    p.add_argument("--method", default="galerkin",
                   choices=("galerkin", "sturm", "step_exact", "exp"))
    p.add_argument("--n", type=_positive_int, default=256,
                   help="first-level galerkin cells, shared by the pieces")
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    p.add_argument("--K", type=_positive_int, default=16,
                   help="values to resolve / track")
    p.add_argument("--N", type=_parse_ints, default=None,
                   help="oscillation frequency for --method exp")
    p.add_argument("--compare", action="store_true",
                   help="side-by-side shooting vs galerkin spectrum")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("sturm", help="shooting eigenvalue table")
    common(p)
    p.add_argument("--K", type=_positive_int, default=20)
    p.set_defaults(fn=cmd_sturm)

    p = sub.add_parser("hankel", help="Fourier-side window spectrum")
    common(p)
    p.add_argument("--K", type=_positive_int, default=64,
                   help="Fourier coefficients per side")
    p.add_argument("--n", type=_positive_int, default=None,
                   help="window half-order (default: automatic)")
    p.set_defaults(fn=cmd_hankel)

    p = sub.add_parser("expdemo", help="growth table for pure oscillations")
    common(p, symbol=False)
    p.add_argument("--N", type=_parse_ints, default=None,
                   help="comma-separated frequencies")
    p.add_argument("--p", default="1.0,0.75",
                   help="comma-separated Schatten exponents")
    p.set_defaults(fn=cmd_expdemo)

    p = sub.add_parser("verify", help="run the acceptance checks")
    common(p, symbol=False)
    p.add_argument("--only", default=None,
                   help="comma-separated families to run: "
                        + ", ".join(acceptance.FAMILIES))
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="override the primary tolerance of each check")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage error
        return e.code
    try:
        return args.fn(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(f"error: {e.code}", file=sys.stderr)
            return 2
        raise
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"numeric failure: out of memory: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
