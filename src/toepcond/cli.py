"""Command-line front end.

Subcommands:
  verify    sweep the bracket check over an (n, r) grid; exit 0 iff all pass
  extremal  print one constructed matrix with its norms (triangular or model)
  search    run the extremal-constant estimator (or a grid scan of it)
  bound     print the 1/r^n bound and the bracket endpoints

Exit codes: 0 success / all pass, 1 verification or computation failure,
2 usage or domain error. Report files are written atomically; repeated
runs with identical flags produce byte-identical files. The environment
variable TCN_THREADS (default 1) caps the worker count for grid sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
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
    remark_scan,
    scaled_trends,
    theorem_check,
)
from .errors import ToepcondError
from .model import verify_extremality

CSV_HEADER = "n,r,norm_T,inv_norm,scaled,lower,upper,pass"

DEFAULT_N_MAX = 12
DEFAULT_R_GRID = "0.05:0.95:0.05"


@dataclass(eq=False)
class RunConfig:
    command: str
    n: Optional[int] = None
    n_max: Optional[int] = None
    r: Optional[float] = None
    r_grid: Optional[str] = None
    seed: int = 42
    restarts: int = 32
    iters: int = 2000
    output_path: Optional[str] = None
    format: str = "csv"
    model: bool = False
    n_list: Optional[str] = None
    r_list: Optional[str] = None


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def parse_r_grid(spec: str) -> list[float]:
    """Parse "start:stop:step" into grid values, endpoints strictly in (0,1)."""
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
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
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
    return ",".join([
        str(rec.n),
        _fmt(rec.r),
        _fmt(rec.norm_T),
        _fmt(rec.inv_norm),
        _fmt(rec.scaled),
        _fmt(rec.lower),
        _fmt(rec.upper),
        _fmt_bool(rec.passed),
    ])


def _record_dict(rec: BoundsRecord) -> dict:
    return {
        "n": rec.n,
        "r": rec.r,
        "norm_T": rec.norm_T,
        "inv_norm": rec.inv_norm,
        "scaled": rec.scaled,
        "lower": rec.lower,
        "upper": rec.upper,
        "pass": rec.passed,
    }


def _coeff_pairs(coeffs: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _workers_from_env() -> int:
    raw = os.environ.get("TCN_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"TCN_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError("TCN_THREADS must be at least 1")
    return workers


def cmd_verify(config: RunConfig) -> int:
    n_max = config.n_max if config.n_max is not None else DEFAULT_N_MAX
    grid = parse_r_grid(config.r_grid or DEFAULT_R_GRID)
    records = grid_sweep(n_max, grid, max_workers=_workers_from_env())
    failures = [rec for rec in records if not rec.passed]
    if config.format == "json":
        payload = {
            "config": {
                "command": "verify",
                "n_max": n_max,
                "r_grid": config.r_grid or DEFAULT_R_GRID,
                "seed": config.seed,
                "restarts": config.restarts,
                "iters": config.iters,
            },
            "records": [_record_dict(rec) for rec in records],
        }
        text = _json_text(payload)
    else:
        lines = [CSV_HEADER] + [_record_row(rec) for rec in records]
        text = "\n".join(lines) + "\n"
    _write_output(text, config.output_path)
    trends = scaled_trends(records)
    print(
        f"verify: {len(records)} points, {len(failures)} failures; "
        f"scaled trend in n: { {f'{r:g}': t for r, t in sorted(trends['in_n_for_fixed_r'].items())} }",
        file=sys.stderr,
    )
    for rec in failures:
        print(
            f"FAIL n={rec.n} r={_fmt(rec.r)} scaled={_fmt(rec.scaled)} "
            f"bracket=[{_fmt(rec.lower)}, {_fmt(rec.upper)}]",
            file=sys.stderr,
        )
    return 0 if not failures else 1


def _matrix_lines(M: np.ndarray) -> list[str]:
    lines = []
    for row in M:
        lines.append("  [" + ", ".join(f"{c.real:+.6f}{c.imag:+.6f}j" for c in row) + "]")
    return lines


def cmd_extremal(config: RunConfig) -> int:
    if config.n is None or config.r is None:
        raise ValueError("extremal requires --n and --r")
    n, r = int(config.n), float(config.r)
    lower, upper = bracket_endpoints(n, r)
    kron = kronecker_bound(n, r)
    if config.model:
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
    if config.output_path is not None:
        rec_like = BoundsRecord(
            n=n, r=r, norm_T=norm_T, inv_norm=inv_norm, scaled=scaled,
            lower=lower, upper=upper,
            passed=(lower - 1e-8 <= scaled <= upper + 1e-8),
        )
        if config.format == "json":
            payload = {
                "config": {"command": "extremal", "n": n, "r": r, "model": config.model},
                "record": _record_dict(rec_like),
            }
            text = _json_text(payload)
        else:
            text = CSV_HEADER + "\n" + _record_row(rec_like) + "\n"
        _write_output(text, config.output_path)
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


def cmd_search(config: RunConfig) -> int:
    search_cfg = SearchConfig(seed=config.seed, restarts=config.restarts, iters=config.iters)
    echo = {
        "command": "search",
        "seed": config.seed,
        "restarts": config.restarts,
        "iters": config.iters,
    }
    if config.n_list or config.r_list:
        if not (config.n_list and config.r_list):
            raise ValueError("scan mode needs both --n-list and --r-list")
        ns = _parse_int_list(config.n_list)
        rs = _parse_float_list(config.r_list)
        report = remark_scan(ns, rs, search_cfg)
        for res in report.results:
            print(
                f"n={res.n} r={_fmt(res.r)} estimate={_fmt(res.best_value)} "
                f"scaled={_fmt(res.scaled_value)} gap={_fmt(res.kronecker_gap)}"
            )
        for r, v in sorted(report.inf_over_n.items()):
            print(f"inf over n at r={_fmt(r)}: {_fmt(v)}", file=sys.stderr)
        for n, v in sorted(report.inf_over_r.items()):
            print(f"inf over r at n={n}: {_fmt(v)}", file=sys.stderr)
        if config.output_path is not None or config.format == "json":
            if config.format == "json":
                payload = {
                    "config": {**echo, "n_list": ns, "r_list": rs},
                    "results": [_search_result_dict(res) for res in report.results],
                    "inf_over_n": {_fmt(r): v for r, v in sorted(report.inf_over_n.items())},
                    "inf_over_r": {str(n): v for n, v in sorted(report.inf_over_r.items())},
                }
                text = _json_text(payload)
            else:
                text = _search_csv(report.results)
            _write_output(text, config.output_path)
        return 0
    if config.n is None or config.r is None:
        raise ValueError("search requires --n and --r (or --n-list/--r-list)")
    res = estimate_t_a(int(config.n), float(config.r), search_cfg)
    print(
        f"n={res.n} r={_fmt(res.r)} estimate={_fmt(res.best_value)} "
        f"scaled={_fmt(res.scaled_value)} gap={_fmt(res.kronecker_gap)} "
        f"restarts={res.restarts_used} seed={res.seed}"
    )
    if config.output_path is not None or config.format == "json":
        if config.format == "json":
            payload = {
                "config": {**echo, "n": res.n, "r": res.r},
                "result": _search_result_dict(res),
            }
            text = _json_text(payload)
        else:
            text = _search_csv([res])
        _write_output(text, config.output_path)
    return 0


def cmd_bound(n: int, r: float) -> int:
    kron = kronecker_bound(n, r)
    lower, upper = bracket_endpoints(n, r)
    print(f"kronecker={_fmt(kron)} lower={_fmt(lower)} upper={_fmt(upper)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepcond",
        description="Condition-number brackets for triangular Toeplitz contractions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep the bracket check over an (n, r) grid")
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--r-grid", type=str, default=DEFAULT_R_GRID,
                          help="grid as start:stop:step, endpoints strictly inside (0,1)")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("--output", type=str, default=None)

    p_ext = sub.add_parser("extremal", help="construct one extremal-candidate matrix")
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--r", type=float, required=True)
    p_ext.add_argument("--model", action="store_true",
                       help="use the model operator with zeros r*(n-th roots of unity)")
    p_ext.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ext.add_argument("--output", type=str, default=None)

    p_search = sub.add_parser("search", help="estimate the extremal constant from below")
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

    p_bound = sub.add_parser("bound", help="print the 1/r^n bound and bracket endpoints")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--r", type=float, required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        n_max=getattr(args, "n_max", None),
        r=getattr(args, "r", None),
        r_grid=getattr(args, "r_grid", None),
        seed=getattr(args, "seed", 42),
        restarts=getattr(args, "restarts", 32),
        iters=getattr(args, "iters", 2000),
        output_path=getattr(args, "output", None),
        format=getattr(args, "format", "csv"),
        model=getattr(args, "model", False),
        n_list=getattr(args, "n_list", None),
        r_list=getattr(args, "r_list", None),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    config = _config_from_args(args)
    try:
        if config.command == "verify":
            return cmd_verify(config)
        if config.command == "extremal":
            return cmd_extremal(config)
        if config.command == "search":
            return cmd_search(config)
        if config.command == "bound":
            return cmd_bound(int(config.n), float(config.r))
        raise ValueError(f"unknown command {config.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToepcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
