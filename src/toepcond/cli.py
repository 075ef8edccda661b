"""Command-line front end.

Subcommands:
  verify    sweep the bracket check over an (n, r) grid; exit 0 iff all pass
  extremal  print one constructed matrix with its norms (triangular or model)
  search    report the extremal constant 1/r^n and its symbol (or a grid scan)
  bound     print the 1/r^n bound and the bracket endpoints

Exit codes: 0 success / all pass, 1 verification or computation failure,
2 usage or domain error. Report files are written atomically; repeated
runs with identical flags produce byte-identical files. The search
options --seed, --restarts and --iters are still accepted and echoed in
the report but have no effect: search returns the proven optimum, not
the result of a search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BoundsRecord,
    SearchConfig,
    SearchResult,
    bracket_endpoints,
    build_T_r,
    estimate_t_a,
    grid_sweep,
    kronecker_bound,
    theorem_check,
)
from .errors import ToepcondError
from .model import verify_extremality

CSV_HEADER = "n,r,norm_T,inv_norm,scaled,lower,upper,pass"

DEFAULT_N_MAX = 12
DEFAULT_R_GRID = "0.05:0.95:0.05"
MAX_GRID_POINTS = 1000


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def parse_r_grid(spec: str) -> list[float]:
    """Parse "start:stop:step" into grid values, endpoints strictly in (0,1).

    The values are start + k*step, at most MAX_GRID_POINTS of them.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid spec has non-numeric parts: {spec!r}") from None
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    if not (0.0 < start < 1.0 and 0.0 < stop < 1.0):
        raise ValueError("grid endpoints must lie strictly between 0 and 1")
    if stop < start:
        raise ValueError("grid stop must not precede start")
    values = []
    k = 0
    while (v := start + k * step) <= stop + 1e-12:
        if k == MAX_GRID_POINTS:
            raise ValueError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
        values.append(v)
        k += 1
    return values


def _parse_float_list(spec: str) -> list[float]:
    return [float(p) for p in spec.split(",") if p.strip()]


def _parse_int_list(spec: str) -> list[int]:
    return [int(p) for p in spec.split(",") if p.strip()]


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".toepcond-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _record_row(rec: BoundsRecord) -> str:
    floats = (rec.r, rec.norm_T, rec.inv_norm, rec.scaled, rec.lower, rec.upper)
    return ",".join([str(rec.n), *map(_fmt, floats), _fmt_bool(rec.passed)])


def _record_dict(rec: BoundsRecord) -> dict:
    # the CSV columns, with "pass" read from the field `passed`
    return {key: getattr(rec, "passed" if key == "pass" else key) for key in CSV_HEADER.split(",")}


def _coeff_pairs(coeffs: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    records = grid_sweep(args.n_max, parse_r_grid(args.r_grid))
    failures = [rec for rec in records if not rec.passed]
    if args.format == "json":
        payload = {
            "config": {"command": "verify", "n_max": args.n_max, "r_grid": args.r_grid},
            "records": [_record_dict(rec) for rec in records],
        }
        text = _json_text(payload)
    else:
        lines = [CSV_HEADER] + [_record_row(rec) for rec in records]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    summary = f"verify: {len(records)} points, {len(failures)} failures"
    passed = [rec for rec in records if rec.passed]
    if passed:
        # the closed form r^n ||T_r^{-1}|| = 1 makes every deviation roundoff
        worst = max(passed, key=lambda rec: abs(rec.scaled - 1.0))
        summary += f"; worst |scaled - 1| = {abs(worst.scaled - 1.0):.3g} at n={worst.n} r={worst.r:g}"
    print(summary, file=sys.stderr)
    for rec in failures:
        print(
            f"FAIL n={rec.n} r={_fmt(rec.r)} scaled={_fmt(rec.scaled)} "
            f"bracket=[{_fmt(rec.lower)}, {_fmt(rec.upper)}]"
            + (f" error={rec.error}" if rec.error else ""),
            file=sys.stderr,
        )
    return 0 if not failures else 1


def _matrix_lines(M: np.ndarray) -> list[str]:
    lines = []
    for row in M:
        lines.append("  [" + ", ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in row) + "]")
    return lines


def cmd_extremal(args: argparse.Namespace) -> int:
    n, r = args.n, args.r
    lower, upper = bracket_endpoints(n, r)
    kron = kronecker_bound(n, r)
    if args.model:
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        report = verify_extremality(r, zeros)
        matrix = report.matrix
        norm_T, inv_norm = report.norm, report.inv_norm
        print(f"model operator, zeros r*(roots of unity), n={n} r={_fmt(r)}")
        print("\n".join(_matrix_lines(matrix)))
        print(f"norm = {_fmt(norm_T)}")
        print(f"inverse norm = {_fmt(inv_norm)} (bound 1/r^n = {_fmt(kron)}, relative gap {_fmt(report.rel_gap)})")
        print(f"defect rank = {report.defect_rank}")
    else:
        rec = theorem_check(n, r)
        T = build_T_r(n, r)
        matrix = T.matrix
        norm_T, inv_norm = rec.norm_T, rec.inv_norm
        print(f"triangular Toeplitz T_r, n={n} r={_fmt(r)}")
        print(f"first column: ({', '.join(_fmt(c.real) for c in T.first_column)})")
        print("\n".join(_matrix_lines(matrix)))
        print(f"norm = {_fmt(norm_T)}")
        print(f"inverse norm = {_fmt(inv_norm)} (bound 1/r^n = {_fmt(kron)})")
    scaled = (r**n) * inv_norm
    print(f"scaled inverse norm r^n * inv = {_fmt(scaled)}, bracket [{_fmt(lower)}, {_fmt(upper)}]")
    if args.output is not None:
        rec_like = BoundsRecord(
            n=n, r=r, norm_T=norm_T, inv_norm=inv_norm, scaled=scaled,
            lower=lower, upper=upper,
            passed=(lower - 1e-8 <= scaled <= upper + 1e-8),
        )
        if args.format == "json":
            text = _json_text({
                "config": {"command": "extremal", "n": n, "r": r, "model": args.model},
                "record": _record_dict(rec_like),
            })
        else:
            text = CSV_HEADER + "\n" + _record_row(rec_like) + "\n"
        _write_output(text, args.output)
    return 0


def _search_result_dict(res: SearchResult) -> dict:
    return {
        "n": res.n,
        "r": res.r,
        "best_value": res.best_value,
        "scaled_value": res.scaled_value,
        "kronecker_gap": res.kronecker_gap,
        "restarts_used": res.restarts_used,
        "seed": res.seed,
        "best_coeffs": _coeff_pairs(res.best_coeffs.coeffs),
    }


def _search_csv(results: Sequence[SearchResult]) -> str:
    header = "n,r,best_value,scaled_value,kronecker_gap,restarts_used,seed,best_coeffs"
    lines = [header]
    for res in results:
        coeffs = ";".join(f"{_fmt(c.real)}{'+' if c.imag >= 0 else '-'}{_fmt(abs(c.imag))}j"
                          for c in res.best_coeffs.coeffs)
        lines.append(",".join([
            str(res.n), _fmt(res.r), _fmt(res.best_value), _fmt(res.scaled_value),
            _fmt(res.kronecker_gap), str(res.restarts_used), str(res.seed), coeffs,
        ]))
    return "\n".join(lines) + "\n"


def _write_search(args: argparse.Namespace, results: Sequence[SearchResult], payload: dict) -> None:
    """Write a search report when --output or --format json asks for one."""
    if args.output is None and args.format != "json":
        return
    text = _json_text(payload) if args.format == "json" else _search_csv(results)
    _write_output(text, args.output)


def cmd_search(args: argparse.Namespace) -> int:
    search_cfg = SearchConfig(seed=args.seed, restarts=args.restarts, iters=args.iters)
    echo = {"command": "search", "seed": args.seed, "restarts": args.restarts, "iters": args.iters}
    if args.n_list or args.r_list:
        if not (args.n_list and args.r_list):
            raise ValueError("scan mode needs both --n-list and --r-list")
        ns = _parse_int_list(args.n_list)
        rs = _parse_float_list(args.r_list)
        results = [estimate_t_a(n, r, search_cfg) for n in ns for r in rs]
        for res in results:
            print(
                f"n={res.n} r={_fmt(res.r)} estimate={_fmt(res.best_value)} "
                f"scaled={_fmt(res.scaled_value)} gap={_fmt(res.kronecker_gap)}"
            )
        _write_search(args, results, {
            "config": {**echo, "n_list": ns, "r_list": rs},
            "results": [_search_result_dict(res) for res in results],
        })
        return 0
    if args.n is None or args.r is None:
        raise ValueError("search requires --n and --r (or --n-list/--r-list)")
    res = estimate_t_a(args.n, args.r, search_cfg)
    print(
        f"n={res.n} r={_fmt(res.r)} estimate={_fmt(res.best_value)} "
        f"scaled={_fmt(res.scaled_value)} gap={_fmt(res.kronecker_gap)} "
        f"restarts={res.restarts_used} seed={res.seed}"
    )
    _write_search(args, [res], {
        "config": {**echo, "n": res.n, "r": res.r},
        "result": _search_result_dict(res),
    })
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    kron = kronecker_bound(args.n, args.r)
    lower, upper = bracket_endpoints(args.n, args.r)
    print(f"kronecker={_fmt(kron)} lower={_fmt(lower)} upper={_fmt(upper)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepcond",
        description="Condition-number brackets for triangular Toeplitz contractions",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", allow_abbrev=False, help="sweep the bracket check over an (n, r) grid")
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--r-grid", type=str, default=DEFAULT_R_GRID,
                          help="grid as start:stop:step, endpoints strictly inside (0,1)")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--output", type=str, default=None)

    p_ext = sub.add_parser("extremal", allow_abbrev=False, help="construct one extremal-candidate matrix")
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--r", type=float, required=True)
    p_ext.add_argument("--model", action="store_true",
                       help="use the model operator with zeros r*(n-th roots of unity)")
    p_ext.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ext.add_argument("--output", type=str, default=None)

    p_search = sub.add_parser("search", allow_abbrev=False, help="report the extremal constant and its symbol")
    p_search.add_argument("--n", type=int)
    p_search.add_argument("--r", type=float)
    p_search.add_argument("--seed", type=int, default=42)
    p_search.add_argument("--restarts", type=int, default=32)
    p_search.add_argument("--iters", type=int, default=2000)
    p_search.add_argument("--n-list", type=str, default=None,
                          help="comma-separated n values: run a scan instead of one point")
    p_search.add_argument("--r-list", type=str, default=None,
                          help="comma-separated r values for the scan")
    p_search.add_argument("--format", choices=("csv", "json"), default="csv")
    p_search.add_argument("--output", type=str, default=None)

    p_bound = sub.add_parser("bound", allow_abbrev=False, help="print the 1/r^n bound and bracket endpoints")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--r", type=float, required=True)
    return parser


COMMANDS = {"verify": cmd_verify, "extremal": cmd_extremal, "search": cmd_search, "bound": cmd_bound}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToepcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
