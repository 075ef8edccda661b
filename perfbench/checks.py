"""Oracles for each workload's output, checked outside the program.

Every check returns `(ops, problems)`. `ops` holds one `(op_id, cause)`
pair per operation the workload attempted, with `cause` None when the
output met its oracle. `problems` lists what makes a sample impossible to
judge (an unexpected exit code, a missing or unparsable report); the
harness reports those as incorrect output, never as timings.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# the search's feasibility may be off by rounding in the last bits only
ULPS = 4

VERIFY_HEADER = "n,r,norm_T,inv_norm,scaled,lower,upper,pass"
# r^n ||T_r^{-1}|| = 1 exactly (T_r is the model operator of b_r^n up to a
# diagonal sign change), so every row must be 1 to the CLI's pass tolerance
SCALED_TOL = 1e-8
MODEL_TOL = 1e-6


def verify_grid(n_max: int, start: float, stop: float, step: float) -> list[tuple[int, float]]:
    """The (n, r) points of `verify --n-max n_max --r-grid start:stop:step`."""
    rs = []
    k = 0
    while start + k * step <= stop + 1e-12:
        rs.append(start + k * step)
        k += 1
    return [(n, r) for n in range(1, n_max + 1) for r in rs]


def check_verify(call: dict, csv_text: str | None, grid: list) -> tuple[list, list]:
    """Each row must pass and have |scaled - 1| <= SCALED_TOL."""
    rows: dict = {}
    lines = (csv_text or "").splitlines()
    problems = []
    if not lines or lines[0] != VERIFY_HEADER:
        problems.append(f"no CSV report (exit {call['rc']}): {_last_line(call['stderr'])}")
        lines = []
    for line in lines[1:]:
        fields = line.split(",")
        scaled = float(fields[4])
        causes = []
        if fields[7] != "true":
            causes.append("pass=false")
        if not abs(scaled - 1.0) <= SCALED_TOL:  # also catches NaN
            causes.append(f"scaled={fields[4]}, |scaled-1|={abs(scaled - 1.0):.3g}")
        rows[(int(fields[0]), float(fields[1]))] = "; ".join(causes) or None
    ops = [(f"n={n} r={r:g}", rows.get((n, r), "row missing")) for n, r in grid]
    if lines and len(rows) != len(grid):
        problems.append(f"report has {len(rows)} rows for a grid of {len(grid)} points")
    expected_rc = 1 if any(cause for _, cause in ops) else 0
    if call["rc"] != expected_rc:
        problems.append(f"exit {call['rc']}, expected {expected_rc}: {_last_line(call['stderr'])}")
    return ops, problems


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    return np.where(idx >= 0, coeffs[np.clip(idx, 0, n - 1)], 0.0)


def check_search(call: dict, json_text: str | None, n: int, r: float, seed: int) -> tuple[list, list]:
    """The reported symbol must be feasible and the gap to 1/r^n nonnegative.

    Feasibility is judged by the exact singular values of f(M_n), not by
    the program's own power iteration: ||f(M_n)|| <= 1 and |f(0)| >= r,
    each to ULPS units in the last place.
    """
    op_id = f"search n={n} r={r:g} seed={seed}"
    if call["rc"] != 0 or not json_text:
        return [(op_id, "no result")], [f"exit {call['rc']}: {_last_line(call['stderr'])}"]
    result = json.loads(json_text)["result"]
    problems = []
    if (result["n"], result["r"], result["seed"]) != (n, r, seed):
        problems.append(f"report is for n={result['n']} r={result['r']} seed={result['seed']}")
    coeffs = np.array([complex(re_, im) for re_, im in result["best_coeffs"]])
    norm = float(np.linalg.svd(_toeplitz(coeffs), compute_uv=False)[0])
    causes = []
    if result["kronecker_gap"] < 0.0:
        causes.append(f"kronecker_gap={result['kronecker_gap']:.3g} < 0")
    if norm > 1.0 + ULPS * EPS:
        causes.append(f"exact ||f(M_n)|| = 1{norm - 1.0:+.3g} > 1")
    if abs(coeffs[0]) < r - ULPS * math.ulp(r):
        causes.append(f"|f(0)| = r{abs(coeffs[0]) - r:+.3g} < r")
    return [(op_id, "; ".join(causes) or None)], problems


_NORM = re.compile(r"^norm = (\S+)$", re.M)
_GAP = re.compile(r"relative gap (\S+)\)$", re.M)
_RANK = re.compile(r"^defect rank = (\d+)$", re.M)


def check_model(call: dict, n: int, r: float) -> tuple[list, list]:
    """`extremal --model` must exit 0 with norm 1, relative gap <= 1e-6, defect rank 1."""
    op_id = f"model n={n} r={r:g}"
    if call["rc"] != 0:
        return [(op_id, f"exit {call['rc']}: {_last_line(call['stderr'])}")], []
    norm, gap, rank = (p.search(call["stdout"]) for p in (_NORM, _GAP, _RANK))
    if not (norm and gap and rank):
        return [(op_id, "report incomplete")], ["extremal output lacks norm, gap or defect rank"]
    causes = []
    if not abs(float(norm[1]) - 1.0) <= MODEL_TOL:
        causes.append(f"norm = {norm[1]}")
    if not float(gap[1]) <= MODEL_TOL:
        causes.append(f"relative gap {gap[1]}")
    if rank[1] != "1":
        causes.append(f"defect rank {rank[1]}")
    return [(op_id, "; ".join(causes) or None)], []


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no stderr)"
