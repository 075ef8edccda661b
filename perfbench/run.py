"""End-to-end benchmark of the toepcond CLI, with an optional per-layer trace.

    python3 perfbench/run.py --workload verify_n64 --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. One client runs a closed loop: each sample
starts a fresh interpreter (perfbench/worker.py), which times
`import toepcond.cli` and then calls `toepcond.cli.main(argv)` in-process
for the workload's argument lists. This process checks every output
against its oracle (perfbench/checks.py). Samples repeat until `--seconds`
have passed. With `--trace 1` every other sample runs with the layer
functions wrapped (perfbench/tracing.py); the untraced ones give the
tracing overhead.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics of BENCHMARK.json with
`--trace 0` and its per-layer metrics with `--trace 1`. `--workload all`
runs every workload in turn. Exit code 2 means the benchmark could not
run (no `src/toepcond` here); no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# import-only interpreters per sample, on top of the sample's own, so that
# setup_s and ref_s have twice as many values as there are samples
SETUP_PROBES = 1
WORKER_TIMEOUT_S = 170
# setup_s is reported at a fixed machine speed: each interpreter's import
# time is scaled by REF_NOMINAL_S over the time of the reference kernel it
# ran right after, so the fast and slow spells of a shared machine cancel
REF_NOMINAL_S = 0.05
WORKER_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREAD_VARS = (
    "TCN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class Workload:
    # argument lists for one sample, from the sample's seed and temp dir
    calls: Callable[[int, Path], list]
    # (ops, problems) from the sample's calls and the files they wrote
    check: Callable[[list, dict, list], tuple]
    # operations that fail at the baseline for a reason listed in ROADMAP.md
    known: Callable[[str], bool]


VERIFY_GRID = checks.verify_grid(64, 0.05, 0.95, 0.05)
MODEL_POINTS = [(n, r) for n in (2, 8, 32) for r in (0.5, 0.9, 0.99, 0.999, 0.9999)]


def _verify_calls(seed: int, tmp: Path) -> list:
    # the grid is the workload; the seed changes nothing here
    return [["verify", "--n-max", "64", "--output", str(tmp / "verify.csv")]]


def _search_calls(seed: int, tmp: Path) -> list:
    # the acceptance-test budget, not the CLI default (32 restarts, 2000
    # iterations): a default search takes 5-10 s and its cost varies by
    # +-12% with the seed, so a run would average too few seeds to be steady
    return [["search", "--n", "3", "--r", "0.5", "--seed", str(seed), "--restarts", "8",
             "--iters", "250", "--format", "json", "--output", str(tmp / "search.json")]]


def _model_calls(seed: int, tmp: Path) -> list:
    points = MODEL_POINTS[:]
    random.Random(seed).shuffle(points)
    return [["extremal", "--model", "--n", str(n), "--r", repr(r)] for n, r in points]


def _check_verify(results: list, files: dict, argvs: list) -> tuple:
    return checks.check_verify(results[0], files.get("verify.csv"), VERIFY_GRID)


def _check_search(results: list, files: dict, argvs: list) -> tuple:
    seed = int(argvs[0][argvs[0].index("--seed") + 1])
    return checks.check_search(results[0], files.get("search.json"), 3, 0.5, seed)


def _check_model(results: list, files: dict, argvs: list) -> tuple:
    ops, problems = [], []
    for res, argv in zip(results, argvs):
        o, p = checks.check_model(res, int(argv[3]), float(argv[5]))
        ops += o
        problems += p
    return ops, problems


WORKLOADS = {
    "verify_n64": Workload(
        calls=_verify_calls,
        check=_check_verify,
        # overflow in spectral_norm of the series inverse (entries near 20^60)
        known=lambda op: op in {f"n={n} r=0.05" for n in range(60, 65)},
    ),
    "search_n3": Workload(
        calls=_search_calls,
        check=_check_search,
        # the capped power iteration underestimates norms, so the winner can be infeasible
        known=lambda op: True,
    ),
    "model_sweep": Workload(
        calls=_model_calls,
        check=_check_model,
        # spectral_norm stops at sigma_2 = 0.9998 instead of sigma_1 = 1
        known=lambda op: op == "model n=2 r=0.9999",
    ),
}


@dataclass
class Sample:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    ops: list
    problems: list
    warnings: list
    warnings_raised: int
    bytes_out: int
    trace: dict | None = None


@dataclass
class Run:
    workload: str
    setup_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    samples: list = field(default_factory=list)


def _worker_env() -> dict:
    env = dict(os.environ)
    # one sweep worker, and the warning filters a user gets by default
    env.pop("TCN_THREADS", None)
    env.pop("PYTHONWARNINGS", None)
    # one BLAS thread: on small matrices a second one only spins, and it
    # competes with whatever else shares the machine
    env.update(WORKER_THREADS)
    return env


def _spawn(calls: list, traced: bool) -> dict:
    job = json.dumps({"src": str(ROOT / "src"), "calls": calls, "trace": traced})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), job],
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _sample(wl: Workload, seed: int, tmp: Path, traced: bool) -> tuple[Sample, dict]:
    argvs = wl.calls(seed, tmp)
    out = _spawn(argvs, traced)
    files = {}
    for path in tmp.iterdir():
        files[path.name] = path.read_text()
        path.unlink()
    results = out["calls"]
    ops, problems = wl.check(results, files, argvs)
    sample = Sample(
        traced=traced,
        wall_s=sum(res["wall_s"] for res in results),
        peak_rss_mb=out["peak_rss_mb"],
        ops=ops,
        problems=problems,
        warnings=[w for res in results for w in res["runtime_warnings"]],
        warnings_raised=sum(res["runtime_warnings_raised"] for res in results),
        bytes_out=sum(len(res["stdout"].encode()) for res in results)
        + sum(len(text.encode()) for text in files.values()),
        trace=out.get("trace"),
    )
    return sample, out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    wl = WORKLOADS[name]
    # the first sample runs on the benchmark's seed, later ones on seeds drawn from it
    rng = random.Random(seed)
    run = Run(name)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        _spawn([], False)  # warm-up: bytecode compiled, files cached
        start = time.monotonic()
        while True:
            # import-only probes spread over the run, so that setup_s and
            # ref_s see the same machine as the samples
            workers = [_spawn([], False) for _ in range(SETUP_PROBES)]
            traced = trace and len(run.samples) % 2 == 1
            sample_seed = seed if not run.samples else rng.randrange(2**31)
            began = time.monotonic()
            sample, out = _sample(wl, sample_seed, tmp, traced)
            run.samples.append(sample)
            run.setup_s += [w["setup_s"] for w in workers + [out]]
            run.ref_s += [w["ref_s"] for w in workers + [out]]
            # stop at the sample boundary nearest the deadline
            now = time.monotonic()
            kinds = {s.traced for s in run.samples}
            if now + (now - began) / 2 >= start + seconds and len(kinds) == (2 if trace else 1):
                return run
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _scaled_setup(run: Run) -> list:
    return [s * REF_NOMINAL_S / r for s, r in zip(run.setup_s, run.ref_s)]


def end_to_end(run: Run) -> dict:
    plain = [s for s in run.samples if not s.traced]
    return {
        # means, not medians: the machine's slow spells come in bursts
        # shorter than a sample, so a sample's time grows with the share of
        # time the machine is slow, and the mean reference time tracks that
        # share where the median flips between the fast and the slow mode
        "wall_norm": statistics.mean([s.wall_s for s in plain]) / statistics.mean(run.ref_s),
        "setup_s": statistics.median(_scaled_setup(run)),
        "peak_rss_mb": statistics.median([s.peak_rss_mb for s in plain]),
    }


def per_layer(run: Run, spec: dict) -> dict:
    plain = [s for s in run.samples if not s.traced]
    traced = [s for s in run.samples if s.traced]
    attempted, failed = _op_counts(run)
    sample_level = {
        "trace.overhead_s": statistics.median([s.wall_s for s in traced]) - statistics.median([s.wall_s for s in plain]),
        "cli.bytes_out": statistics.median([s.bytes_out for s in traced]),
        "fail_frac": failed / attempted,
        "runtime_warnings": statistics.median([len(s.warnings) for s in run.samples]),
    }
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in sample_level:
            metrics[name] = sample_level[name]
        else:
            metrics[name] = statistics.median([tracing.layer_value(name, s.trace) for s in traced])
    return metrics


def _op_counts(run: Run) -> tuple[int, int]:
    ops = [op for s in run.samples for op in s.ops]
    return len(ops), sum(1 for _, cause in ops if cause)


def _unexpected(run: Run) -> list:
    wl = WORKLOADS[run.workload]
    found = [p for s in run.samples for p in s.problems]
    found += [f"{op}: {cause}" for s in run.samples for op, cause in s.ops if cause and not wl.known(op)]
    return found


def result_line(run: Run, trace: bool, spec: dict) -> dict:
    attempted, failed = _op_counts(run)
    values = per_layer(run, spec) if trace else end_to_end(run)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "correct": not _unexpected(run),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report(run: Run, trace: bool, spec: dict) -> list:
    """Human-readable lines: every metric with its unit and sample count, and each failure's cause."""
    plain = [s for s in run.samples if not s.traced]
    attempted, failed = _op_counts(run)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    walls = sorted(s.wall_s for s in plain)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    lines = [
        f"== {run.workload}: {why[run.workload]}",
        f"wall_s = {statistics.median(walls):.6g} s (median of {len(walls)} samples, min {walls[0]:.6g}, max {walls[-1]:.6g})",
        f"ref_s = {statistics.mean(run.ref_s):.6g} s (mean of {len(run.ref_s)} reference-kernel runs)",
        f"wall_norm = {end_to_end(run)['wall_norm']:.6g} ref (mean of the {len(walls)} sample times / ref_s)",
        f"setup_s = {statistics.median(_scaled_setup(run)):.6g} s (median of {len(run.setup_s)} imports,"
        f" each scaled to a {REF_NOMINAL_S} s reference kernel; raw median {statistics.median(run.setup_s):.6g} s)",
        f"peak_rss_mb = {statistics.median([s.peak_rss_mb for s in plain]):.6g} MB (median of {len(plain)} samples)",
        f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops failed)",
        f"runtime_warnings = {statistics.median([len(s.warnings) for s in run.samples]):g} shown per sample"
        f" ({statistics.median([s.warnings_raised for s in run.samples]):g} raised; median of {len(run.samples)})",
    ]
    if trace:
        n_traced = sum(1 for s in run.samples if s.traced)
        lines.append(f"-- per layer, median of {n_traced} traced samples")
        lines += [f"{name} = {value:.6g} {units[name]}" for name, value in per_layer(run, spec).items()]
    wl = WORKLOADS[run.workload]
    by_cause: dict = {}
    for s in run.samples:
        for op, cause in s.ops:
            if cause:
                by_cause.setdefault((not wl.known(op), cause), []).append(op)
    for (unexpected, cause), ops in sorted(by_cause.items()):
        names = list(dict.fromkeys(ops))
        shown = ", ".join(names[:5]) + (f" and {len(names) - 5} more" if len(names) > 5 else "")
        tag = "UNEXPECTED" if unexpected else "known defect"
        lines.append(f"FAILED [{tag}] {cause}: {len(ops)} ops ({shown})")
    lines += [f"PROBLEM {p}" for p in dict.fromkeys(p for s in run.samples for p in s.problems)]
    for w in dict.fromkeys(w for s in run.samples for w in s.warnings):
        lines.append(f"WARNING {w}")
    return lines


def metadata() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]  # numpy >= 1.25
        blas = {k: {f: deps[k].get(f) for f in ("name", "version")} for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "worker_thread_env": WORKER_THREADS,
        "commit": _git_commit(),
        "src_lines": src_lines,
        "clock": "wall clock (time.perf_counter), CPUs not pinned, machine may be shared",
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the worker,
    # and through run_workload's cleanup of its temp directory
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toepcond" / "cli.py").is_file():
        print(f"perfbench: no toepcond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("meta " + json.dumps(metadata(), sort_keys=True))
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report(run, bool(args.trace), spec)))
        results[name] = result_line(run, bool(args.trace), spec)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
