"""Command-line front end.

Subcommands:
  verify    sweep the bracket check over an (n, r) grid; exit 0 iff all pass
  extremal  print one constructed matrix with its norms (triangular or model),
            n in 1..64
  search    report the extremal constant 1/r^n and its symbol (or a grid scan)
  bound     print the 1/r^n bound and the bracket endpoints

Exit codes: 0 success / all pass, 1 verification or computation failure
(a verify point or search scan pair fails on a FAIL line and the rest go on),
2 usage or domain error. r lies in (0, 1] for bound, as 1/r^n is defined at
r = 1, and in (0, 1) for the rest, as b_r degenerates there. main builds
its parser once per process, on the first call, and extremal formats a
matrix one row at a time. Every CSV and JSON report comes from one writer,
_report, fed one tuple per row in header order; a BoundsRecord comes only
from bounds.bracket_record. --output and every (n, r) of a search scan are
checked before any work; --output is written atomically, and repeated runs
with identical flags give byte-identical files.
The search options --seed, --restarts and --iters are still accepted and
echoed in the report but have no effect: search returns the proven
optimum, not the result of a search.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import tempfile
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import (
    BoundsRecord,
    SearchConfig,
    SearchResult,
    bracket_endpoints,
    build_T_r,
    check_search_point,
    estimate_t_a,
    grid_sweep,
    kronecker_bound,
    theorem_check,
)
from .errors import ToepcondError
from .model import verify_extremality

CSV_HEADER = "n,r,norm_T,inv_norm,scaled,lower,upper,pass"
SEARCH_HEADER = "n,r,best_value,scaled_value,kronecker_gap,restarts_used,seed,best_coeffs"

DEFAULT_N_MAX = 12
DEFAULT_R_GRID = "0.05:0.95:0.05"
MAX_GRID_POINTS = 1000


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


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
    if not 0.0 < step < np.inf:
        raise ValueError("grid step must be finite and positive")
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


def _parse_list(spec: str, kind: type, option: str) -> list:
    try:
        return [kind(p) for p in spec.split(",")]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{option} must be comma-separated {noun}, got {spec!r}") from None


def _output_error(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write --output {path}: {exc.strerror or exc}")


def _check_output(path: Optional[str]) -> None:
    """Refuse an unwritable --output before any work, with the error the
    write would meet: the target names a file that is no directory, and its
    directory takes an unnamed file, which leaves none behind."""
    if path is None:
        return
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.path.basename(path):  # "" or a trailing separator
            code = errno.ENOTDIR if path else errno.ENOENT
            raise OSError(code, os.strerror(code))
        tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
    except OSError as exc:
        raise _output_error(path, exc) from None


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".toepcond-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _output_error(path, exc) from None


def _cell(value) -> str:
    """One CSV cell: a %.17g float, true/false, a plain int, or the
    ;-joined re+imj form of an array of complex coefficients."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return ";".join(f"{_fmt(c.real)}{'+' if c.imag >= 0 else '-'}{_fmt(abs(c.imag))}j" for c in value)


def _report(fmt: str, header: str, rows: Iterable[tuple], config: Optional[dict] = None, key: str = "") -> str:
    """The text of a CSV or JSON report; each row holds the header's columns in order.

    JSON puts the rows under `key` next to the run config, each as an
    object keyed by the header's names: a list under a plural key
    ("records", "results"), the one row itself under a singular key
    ("record", "result"). CSV has no config. A non-finite float, which
    strict JSON cannot hold, is null in JSON and nan or inf in CSV.
    """
    if fmt == "csv":
        return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)]) + "\n"
    fields = header.split(",")
    objects = [{f: None if isinstance(v, float) and not np.isfinite(v) else v for f, v in zip(fields, row)}
               for row in rows]
    payload = {"config": config, key: objects if key.endswith("s") else objects[0]}
    # coefficient arrays, the one value json cannot take, become [re, im] pairs
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda a: [[c.real, c.imag] for c in a.tolist()]) + "\n"


def _wants_report(args: argparse.Namespace) -> bool:
    """extremal and search write a report when --output or --format json asks for one."""
    return args.output is not None or args.format == "json"


def _bounds_row(rec: BoundsRecord) -> tuple:
    return (rec.n, rec.r, rec.norm_T, rec.inv_norm, rec.scaled, rec.lower, rec.upper, rec.passed)


def _search_row(res: SearchResult) -> tuple:
    return (res.n, res.r, res.best_value, res.scaled_value, res.kronecker_gap,
            res.restarts_used, res.seed, res.best_coeffs.coeffs)


def cmd_verify(args: argparse.Namespace) -> int:
    records = grid_sweep(args.n_max, parse_r_grid(args.r_grid))
    failures = [rec for rec in records if not rec.passed]
    config = {"command": "verify", "n_max": args.n_max, "r_grid": args.r_grid}
    _write_output(_report(args.format, CSV_HEADER, map(_bounds_row, records), config, "records"), args.output)
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
    # each row's interleaved (re, im) floats go through one format string
    rows = np.ascontiguousarray(M, np.complex128).view(np.float64).tolist()
    line = "  [" + ", ".join(["%+.6f%+.6fj"] * M.shape[1]) + "]"
    return [line % tuple(row) for row in rows]


def cmd_extremal(args: argparse.Namespace) -> int:
    n, r = args.n, args.r
    if not 1 <= n <= 64:
        raise ValueError("n must lie in 1..64")
    kron = kronecker_bound(n, r)
    if args.model:
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        report = verify_extremality(r, zeros)
        rec = report.record
        print(f"model operator, zeros r*(roots of unity), n={n} r={_fmt(r)}")
        print("\n".join(_matrix_lines(report.matrix)))
        print(f"norm = {_fmt(rec.norm_T)}")
        print(f"inverse norm = {_fmt(rec.inv_norm)} (bound 1/r^n = {_fmt(kron)}, "
              f"relative gap {_fmt(report.rel_gap)})")
        print(f"defect rank = {report.defect_rank}")
    else:
        rec = theorem_check(n, r)
        T = build_T_r(n, r)
        print(f"triangular Toeplitz T_r, n={n} r={_fmt(r)}")
        print(f"first column: ({', '.join(_fmt(c.real) for c in T.first_column)})")
        print("\n".join(_matrix_lines(T.matrix)))
        print(f"norm = {_fmt(rec.norm_T)}")
        print(f"inverse norm = {_fmt(rec.inv_norm)} (bound 1/r^n = {_fmt(kron)})")
    print(f"scaled inverse norm r^n * inv = {_fmt(rec.scaled)}, bracket [{_fmt(rec.lower)}, {_fmt(rec.upper)}]")
    if _wants_report(args):
        config = {"command": "extremal", "n": n, "r": r, "model": args.model}
        _write_output(_report(args.format, CSV_HEADER, [_bounds_row(rec)], config, "record"), args.output)
    return 0


def _search_csv(results: Sequence[SearchResult]) -> str:
    return _report("csv", SEARCH_HEADER, map(_search_row, results))


def cmd_search(args: argparse.Namespace) -> int:
    search_cfg = SearchConfig(seed=args.seed, restarts=args.restarts, iters=args.iters)
    config = {"command": "search", "seed": args.seed, "restarts": args.restarts, "iters": args.iters}
    scan = bool(args.n_list or args.r_list)
    if scan:
        if not (args.n_list and args.r_list):
            raise ValueError("scan mode needs both --n-list and --r-list")
        ns = _parse_list(args.n_list, int, "--n-list")
        rs = _parse_list(args.r_list, float, "--r-list")
        config.update(n_list=ns, r_list=rs)
    else:
        if args.n is None or args.r is None:
            raise ValueError("search requires --n and --r (or --n-list/--r-list)")
        ns, rs = [args.n], [args.r]
        config.update(n=args.n, r=args.r)
    # every pair is in the domain before the first one is computed
    for n in ns:
        for r in rs:
            check_search_point(n, r)
    results, failures = [], []
    for n in ns:
        for r in rs:
            try:
                results.append(estimate_t_a(n, r, search_cfg))
            except ToepcondError as exc:
                if not scan:
                    raise
                failures.append(f"FAIL n={n} r={_fmt(r)} error={type(exc).__name__}: {exc}")
    for res in results:
        print(
            f"n={res.n} r={_fmt(res.r)} estimate={_fmt(res.best_value)} "
            f"scaled={_fmt(res.scaled_value)} gap={_fmt(res.kronecker_gap)}"
            + ("" if scan else f" restarts={res.restarts_used} seed={res.seed}")
        )
    if _wants_report(args):
        key = "results" if scan else "result"
        text = _report(args.format, SEARCH_HEADER, map(_search_row, results), config, key)
        _write_output(text, args.output)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


def cmd_bound(args: argparse.Namespace) -> int:
    kron = kronecker_bound(args.n, args.r)
    lower, upper = bracket_endpoints(args.n, args.r)
    print(f"kronecker={_fmt(kron)} lower={_fmt(lower)} upper={_fmt(upper)}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepcond",
        description="Condition-number brackets for triangular Toeplitz contractions",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_opts = argparse.ArgumentParser(add_help=False)
    report_opts.add_argument("--format", choices=("csv", "json"), default="csv")
    report_opts.add_argument("--output", type=str, default=None)

    p_verify = sub.add_parser("verify", parents=[report_opts], allow_abbrev=False,
                              help="sweep the bracket check over an (n, r) grid")
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--r-grid", type=str, default=DEFAULT_R_GRID,
                          help="grid as start:stop:step, endpoints strictly inside (0,1)")

    p_ext = sub.add_parser("extremal", parents=[report_opts], allow_abbrev=False,
                           help="construct one extremal-candidate matrix")
    p_ext.add_argument("--n", type=int, required=True, help="matrix size, 1..64")
    p_ext.add_argument("--r", type=float, required=True)
    p_ext.add_argument("--model", action="store_true",
                       help="use the model operator with zeros r*(n-th roots of unity)")

    p_search = sub.add_parser("search", parents=[report_opts], allow_abbrev=False,
                              help="report the extremal constant and its symbol")
    p_search.add_argument("--n", type=int)
    p_search.add_argument("--r", type=float)
    p_search.add_argument("--seed", type=int, default=42)
    p_search.add_argument("--restarts", type=int, default=32)
    p_search.add_argument("--iters", type=int, default=2000)
    p_search.add_argument("--n-list", type=str, default=None,
                          help="comma-separated n values: run a scan instead of one point")
    p_search.add_argument("--r-list", type=str, default=None,
                          help="comma-separated r values for the scan")

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
        _check_output(getattr(args, "output", None))
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToepcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
