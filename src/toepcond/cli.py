"""Command-line front end.

Subcommands:
  verify    sweep the bracket check over an (n, r) grid; exit 0 iff all pass
  extremal  print one constructed matrix with its norms (triangular or model),
            n in 1..64
  search    report the extremal constant 1/r^n and its symbol (or a grid scan)
  bound     print the 1/r^n bound and the bracket endpoints

Exit codes: 0 success / all pass, 1 verification or computation failure (a
verify point or search scan pair fails on a FAIL line and the rest go on) or
a stdout that cannot be written, 2 usage or domain error. r lies in (0, 1]
for bound, as 1/r^n is defined at r = 1, and in (0, 1) for the rest, as b_r
degenerates there. --output and every (n, r) of a search scan are checked
before any work; --output writes a regular file atomically and any other
target, such as a FIFO, in place, and repeated runs with identical flags
give byte-identical files. The search options --seed, --restarts and --iters
are still accepted and echoed in the report but have no effect: search
returns the proven optimum, not the result of a search. A call of one
subcommand with its own `--option value` words, each once, is read from the
table _OPTIONS; argparse parses the rest: help, usage errors and spellings
such as --n=3.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import json
import os
import stat
import sys
import tempfile
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import (BoundsRecord, SearchConfig, SearchResult, _sweep_columns, bracket_endpoints, build_T_r,
                     check_search_point, estimate_t_a, kronecker_bound, theorem_check)
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
    # the slack keeps a stop that k * step misses by roundoff, but not past 1
    while (v := start + k * step) <= stop + 1e-12 and v < 1.0:
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


def _output_target(path: str) -> tuple[str, Optional[os.stat_result]]:
    """The file --output names, its symlinks resolved, and its status, or
    None where it does not exist yet."""
    target = os.path.realpath(path)
    try:
        return target, os.stat(target)
    except FileNotFoundError:
        return target, None


def _check_output(path: Optional[str]) -> None:
    """Refuse an unwritable --output before any work, with the error the
    write would meet: the target names a file that is no directory, and
    either it exists and is not a regular file, and takes a write in place,
    or its directory takes an unnamed file, which leaves none behind."""
    if path is None:
        return
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.path.basename(path):  # "" or a trailing separator
            code = errno.ENOTDIR if path else errno.ENOENT
            raise OSError(code, os.strerror(code))
        target, status = _output_target(path)
        if status is None or stat.S_ISREG(status.st_mode):
            tempfile.TemporaryFile(dir=os.path.dirname(target)).close()
        elif not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise _output_error(path, exc) from None


def _write_output(text: str, path: Optional[str]) -> None:
    """Write a report to stdout, or to --output: a regular file, new or not,
    atomically by a rename over it, with the mode open(path, "w") gives a new
    file or the mode the file had; any other target, such as a FIFO, in
    place. Symlinks are resolved first, so their targets are written."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        target, status = _output_target(path)
        if status is not None and not stat.S_ISREG(status.st_mode):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        if status is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            mode = stat.S_IMODE(status.st_mode)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".toepcond-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fh.fileno(), mode)
                fh.write(text)
            os.replace(tmp, target)
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

    A CSV_HEADER row's r, norm_T, scaled and upper repeat down a sweep: each
    nonzero value is formatted once per report, but a zero every time, as
    0.0 and -0.0 are one dict key and two cells. inv_norm and lower are not.
    """
    if fmt == "csv":
        if header == CSV_HEADER:
            cells = {}
            get = cells.get

            def cell(x) -> str:
                text = "%.17g" % x
                if x:
                    cells[x] = text
                return text

            lines = ["%d,%s,%s,%.17g,%s,%.17g,%s,%s" % (n, get(r) or cell(r), get(norm) or cell(norm), inv,
                     get(scaled) or cell(scaled), lower, get(upper) or cell(upper), "true" if passed else "false")
                     for n, r, norm, inv, scaled, lower, upper, passed in rows]
        else:
            lines = [",".join(map(_cell, row)) for row in rows]
        # the header and the final newline's "" join the lines' own list, so the text is built in one join
        lines.insert(0, header)
        lines.append("")
        return "\n".join(lines)
    fields = header.split(",")
    objects = [{f: None if isinstance(v, float) and not np.isfinite(v) else v for f, v in zip(fields, row)}
               for row in rows]
    payload = {"config": config, key: objects if key.endswith("s") else objects[0]}
    # coefficient arrays, the one value json cannot take, become [re, im] pairs
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda a: [[c.real, c.imag] for c in a.tolist()]) + "\n"


def _wants_report(args: SimpleNamespace) -> bool:
    """extremal and search write a report when --output or --format json asks for one."""
    return args.output is not None or args.format == "json"


def _bounds_row(rec: BoundsRecord) -> tuple:
    return (rec.n, rec.r, rec.norm_T, rec.inv_norm, rec.scaled, rec.lower, rec.upper, rec.passed)


def _search_row(res: SearchResult) -> tuple:
    return (res.n, res.r, res.best_value, res.scaled_value, res.kronecker_gap,
            res.restarts_used, res.seed, res.best_coeffs.coeffs)


def cmd_verify(args: SimpleNamespace) -> int:
    """Report the grid from the sweep's columns, with no record of a passing point; exit 1 iff one fails."""
    columns = _sweep_columns(args.n_max, parse_r_grid(args.r_grid))
    ns, rs, _, _, scaled, lower, upper, passed, errors = columns
    failures = [j for j, ok in enumerate(passed) if not ok]
    config = {"command": "verify", "n_max": args.n_max, "r_grid": args.r_grid}
    _write_output(_report(args.format, CSV_HEADER, zip(*columns[:8]), config, "records"), args.output)
    summary = f"verify: {len(ns)} points, {len(failures)} failures"
    if len(failures) < len(ns):
        # the closed form r^n ||T_r^{-1}|| = 1 makes every deviation roundoff; argmax takes the first largest
        j = int(np.where(np.fromiter(passed, bool), np.abs(np.fromiter(scaled, float) - 1.0), -1.0).argmax())
        summary += f"; worst |scaled - 1| = {abs(scaled[j] - 1.0):.3g} at n={ns[j]} r={_fmt(rs[j])}"
    _to_stderr(summary, *(f"FAIL n={ns[j]} r={_fmt(rs[j])} scaled={_fmt(scaled[j])} bracket=[{_fmt(lower[j])}, "
                          f"{_fmt(upper[j])}]" + (f" error={errors[j]}" if errors[j] else "") for j in failures))
    return 0 if not failures else 1


# every 3-byte group a printed matrix is made of: "000" to "999" at 0..999,
# "+0." to "+9." at _LEAD, "-0." to "-9." at _LEAD + 10, then "  [", "j, " and "j]\n";
# built from bytes, as numpy arithmetic at import costs more resident memory
_DIGITS = b"0123456789"
_GROUPS = np.frombuffer(bytes(itertools.chain.from_iterable(itertools.product(_DIGITS, repeat=3)))
                        + b"".join(b"%c%c." % (s, d) for s in b"+-" for d in _DIGITS) + b"  [j, j]\n", "V3")
_LEAD, _OPEN, _SEP, _CLOSE = 1000, 1020, 1021, 1022


def _row_lines(P: np.ndarray) -> str:
    """The text of the (m, 2k) interleaved (re, im) parts: per row, one %+.6f format string's line."""
    line = "  [" + ", ".join(["%+.6f%+.6fj"] * (P.shape[1] // 2)) + "]\n"
    return "".join(line % tuple(row) for row in P.tolist())


def _matrix_lines(M: np.ndarray) -> str:
    """The rows of M as one text of "  [+a.bbbbbb+c.ddddddj, ...]" lines, each
    ending in a newline: the text that %+.6f gives each real and imaginary part.

    One numpy pass looks the digits up in _GROUPS. With y = |x| * 1e6 and
    q = rint(y) for every part x, it runs where each part has |y - q| < 1/2
    and y < 9999999.5; NaN fails. 1e6 is exact and k + 1/2 is a float, and
    rounding is monotonic, so y < k + 1/2 gives |x| * 10^6 < k + 1/2 and
    y > k - 1/2 gives |x| * 10^6 > k - 1/2: q is the one integer nearest the
    exact |x| * 10^6, the digits %+.6f rounds to, and a single digit leads.
    The sign is the sign bit, so -0.0 and a tiny negative part give
    "-0.000000" as %+.6f does. A matrix with any other part (inf, NaN,
    |x| >= 9.9999995, or a y that is a tie, such as T_r(0.5)'s 0.0234375,
    where y alone cannot tell which way the exact value rounds) is
    formatted whole by _row_lines, the exact route.
    """
    P = np.ascontiguousarray(M, np.complex128).view(np.float64)
    a = np.abs(P)
    # NaN, inf and |x| >= 10 leave before the arithmetic, where a signaling NaN would warn
    if not (P.size and a.max() < 10.0):
        return _row_lines(P)
    y = a * 1e6
    q = np.rint(y)
    if not (np.abs(y - q).max() < 0.5 and y.max() < 9999999.5):
        return _row_lines(P)
    thousands, low = np.divmod(q.astype(np.intp), 1000)
    lead, mid = np.divmod(thousands, 1000)
    lead += np.where(np.signbit(P), _LEAD + 10, _LEAD)
    m, k = P.shape[0], P.shape[1] // 2
    # per row: "  [", then per entry the real and imaginary groups and "j, ", the last one "j]\n"
    groups = np.empty((m, 7 * k + 1), np.intp)
    groups[:, 0] = _OPEN
    cells = groups[:, 1:].reshape(m, k, 7)
    for j, part in enumerate((lead, mid, low)):
        cells[..., j:6:3] = part.reshape(m, k, 2)
    cells[..., 6] = _SEP
    cells[:, -1, 6] = _CLOSE
    return _GROUPS.take(groups).tobytes().decode("ascii")


def cmd_extremal(args: SimpleNamespace) -> int:
    n, r = args.n, args.r
    if not 1 <= n <= 64:
        raise ValueError("n must lie in 1..64")
    # before the zeros r * (roots of unity), which an infinite r makes NaN
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    if args.model:
        zeros = tuple(r * np.exp(2j * np.pi * k / n) for k in range(n))
        report = verify_extremality(r, zeros)
        rec = report.record
        print(f"model operator, zeros r*(roots of unity), n={n} r={_fmt(r)}")
        sys.stdout.write(_matrix_lines(report.matrix))
        print(f"norm = {_fmt(rec.norm_T)}")
        print(f"inverse norm = {_fmt(rec.inv_norm)} (bound 1/r^n = {_fmt(report.kronecker)}, "
              f"relative gap {_fmt(report.rel_gap)})")
        print(f"defect rank = {report.defect_rank}")
    else:
        rec = theorem_check(n, r)
        T = build_T_r(n, r)
        print(f"triangular Toeplitz T_r, n={n} r={_fmt(r)}")
        print(f"first column: ({', '.join(_fmt(c.real) for c in T.first_column)})")
        sys.stdout.write(_matrix_lines(T.matrix))
        print(f"norm = {_fmt(rec.norm_T)}")
        print(f"inverse norm = {_fmt(rec.inv_norm)} (bound 1/r^n = {_fmt(kronecker_bound(n, r))})")
    print(f"scaled inverse norm r^n * inv = {_fmt(rec.scaled)}, bracket [{_fmt(rec.lower)}, {_fmt(rec.upper)}]")
    if _wants_report(args):
        config = {"command": "extremal", "n": n, "r": r, "model": args.model}
        _write_output(_report(args.format, CSV_HEADER, [_bounds_row(rec)], config, "record"), args.output)
    return 0


def _search_csv(results: Sequence[SearchResult]) -> str:
    return _report("csv", SEARCH_HEADER, map(_search_row, results))


def cmd_search(args: SimpleNamespace) -> int:
    search_cfg = SearchConfig(seed=args.seed, restarts=args.restarts, iters=args.iters)
    config = {"command": "search", "seed": args.seed, "restarts": args.restarts, "iters": args.iters}
    scan = bool(args.n_list or args.r_list)
    if scan:
        if args.n is not None or args.r is not None:
            raise ValueError("--n/--r and --n-list/--r-list cannot be combined")
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
    _to_stderr(*failures)
    return 1 if failures else 0


def cmd_bound(args: SimpleNamespace) -> int:
    kron = kronecker_bound(args.n, args.r)
    lower, upper = bracket_endpoints(args.n, args.r)
    print(f"kronecker={_fmt(kron)} lower={_fmt(lower)} upper={_fmt(upper)}")
    return 0


# each subcommand's summary and options, as argparse keyword arguments
_REPORTING = {"--format": {"choices": ("csv", "json"), "default": "csv"}, "--output": {"type": str}}
_OPTIONS = {
    "verify": ("sweep the bracket check over an (n, r) grid", {
        **_REPORTING, "--n-max": {"type": int, "default": DEFAULT_N_MAX},
        "--r-grid": {"type": str, "default": DEFAULT_R_GRID,
                     "help": "grid as start:stop:step, endpoints strictly inside (0,1)"}}),
    "extremal": ("construct one extremal-candidate matrix", {
        **_REPORTING, "--n": {"type": int, "required": True, "help": "matrix size, 1..64"},
        "--r": {"type": float, "required": True},
        "--model": {"action": "store_true", "default": False,
                    "help": "use the model operator with zeros r*(n-th roots of unity)"}}),
    "search": ("report the extremal constant and its symbol", {
        **_REPORTING, "--n": {"type": int}, "--r": {"type": float}, "--seed": {"type": int, "default": 42},
        "--restarts": {"type": int, "default": 32}, "--iters": {"type": int, "default": 2000},
        "--n-list": {"type": str, "help": "comma-separated n values: run a scan instead of one point"},
        "--r-list": {"type": str, "help": "comma-separated r values for the scan"}}),
    "bound": ("print the 1/r^n bound and bracket endpoints",
              {"--n": {"type": int, "required": True}, "--r": {"type": float, "required": True}}),
}


def _plain_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a well-formed call, or None for any other:
    a subcommand, then its own options, each at most once, as a flag or as
    `--option value` with a value of the option's type and choices that does
    not start with "-", and every required option."""
    if not argv or argv[0] not in _OPTIONS:
        return None
    options, given, words = _OPTIONS[argv[0]][1], {}, iter(argv[1:])
    for word in words:
        spec = options.get(word)
        if spec is None or word in given:
            return None
        if "action" in spec:
            given[word] = True
            continue
        value = next(words, "-")
        try:
            given[word] = spec.get("type", str)(value)
        except ValueError:
            return None
        if value.startswith("-") or given[word] not in spec.get("choices", [given[word]]):
            return None
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    return SimpleNamespace(command=argv[0], **{flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
                                                for flag, spec in options.items()})


@functools.cache
def _build_parser():
    """The argparse parser of all four subcommands, built from _OPTIONS, for
    what _plain_args leaves to it: help, usage errors and spellings such as
    --n=3."""
    import argparse

    parser = argparse.ArgumentParser(prog="toepcond", allow_abbrev=False,
                                     description="Condition-number brackets for triangular Toeplitz contractions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _OPTIONS.items():
        p = sub.add_parser(name, allow_abbrev=False, help=summary)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
    return parser


COMMANDS = {"verify": cmd_verify, "extremal": cmd_extremal, "search": cmd_search, "bound": cmd_bound}


class _ClosedStdout:
    """sys.stdout for a process started with stdout closed, which Python
    sets to None: every write fails as on a closed descriptor, so a call
    that prints ends in the one stdout error, not in an AttributeError."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


def _to_devnull(stream) -> None:
    """Send a stream that failed a write, and what it still buffers, to devnull, not to a second error at exit."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _to_stderr(*lines: str) -> None:
    """Write the lines to stderr and flush it, the one way anything reaches
    it; a stderr that is closed or cannot take them is dropped."""
    if sys.stderr is not None:
        try:
            sys.stderr.write("".join(line + "\n" for line in lines))
            sys.stderr.flush()
        except OSError:
            _to_devnull(sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        except SystemExit as exc:
            _to_stderr()  # flush what argparse wrote
            return int(exc.code) if exc.code is not None else 2
    stdout = sys.stdout
    try:
        _check_output(getattr(args, "output", None))
        with contextlib.redirect_stdout(stdout or _ClosedStdout()):
            code = COMMANDS[args.command](args)
            sys.stdout.flush()
        return code
    except ValueError as exc:
        message, code = str(exc), 2
    except ToepcondError as exc:
        message, code = str(exc), 1
    except OSError as exc:  # from stdout: stderr never raises, --output errors are ValueErrors
        if stdout is not None:
            _to_devnull(stdout)
        message, code = f"cannot write to stdout: {exc.strerror or exc}", 1
    _to_stderr(f"error: {message}")
    return code


if __name__ == "__main__":
    sys.exit(main())
