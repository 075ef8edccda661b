"""One benchmark sample, run in a fresh interpreter.

    python3 worker.py '<job as JSON>'

The job names the source directory, the CLI argument lists to run and
whether to trace. The worker times `import toepcond.cli`, then calls
`toepcond.cli.main(argv)` in-process for each argument list with stdout
and stderr captured. It records the RuntimeWarnings raised and the ones a
user would see under the default warning filters. Last it times a fixed
reference kernel. It prints one JSON line with the captured output, the
timings, the trace if any, and its own peak resident memory.
"""

import contextlib
import io
import json
import resource
import sys
import time
import warnings


def _run_call(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = []
    with warnings.catch_warnings():
        # record every RuntimeWarning; the ones a user sees under the default
        # filters are the first at each (message, category, location)
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = lambda message, category, filename, lineno, *rest, **kw: raised.append(
            f"{category.__name__}: {message} ({filename}:{lineno})"
        )
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # what a user would see as a traceback
                rc = 1
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            wall = time.perf_counter() - start
    runtime = [w for w in raised if w.startswith("RuntimeWarning")]
    return {
        "argv": argv,
        "rc": rc,
        "wall_s": wall,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "runtime_warnings": list(dict.fromkeys(runtime)),
        "runtime_warnings_raised": len(runtime),
    }


def reference_kernel() -> float:
    """Seconds for a fixed computation that does not touch toepcond.

    Power iteration on a 3x3 matrix and an LU factorization in a Python
    loop: the two kinds of work the package spends its time on. On a shared
    machine its time follows how fast the machine runs at the moment, so
    workload times divided by it drift much less than the raw times.
    """
    import numpy as np

    start = time.perf_counter()
    A = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=np.complex128)
    v = np.ones(3, dtype=np.complex128)
    for _ in range(8000):
        w = A @ v
        v = w / np.linalg.norm(w)
    M0 = 4.0 * np.eye(24, dtype=np.complex128) + np.tri(24, k=-1)
    for _ in range(80):
        M = M0.copy()
        for k in range(24):
            M[k + 1 :, k] /= M[k, k]
            M[k + 1 :, k + 1 :] -= np.outer(M[k + 1 :, k], M[k, k + 1 :])
    return time.perf_counter() - start


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import toepcond.cli

    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if job["calls"]:
        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.attach(tracer)
        result["calls"] = [_run_call(toepcond.cli, argv) for argv in job["calls"]]
        if tracer is not None:
            result["trace"] = {
                "stats": tracer.stats,
                "counts": dict(tracer.counts),
                "sizes": [[name, n, durations] for (name, n), durations in tracer.sizes.items()],
            }
    result["ref_s"] = reference_kernel()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
