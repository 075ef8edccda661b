"""The benchmark's correctness rules, applied to the program's own outputs.

perfbench/run.py calls an output incorrect when its oracles
(perfbench/checks.py) fail an op. These tests run the harness's self-test,
then each workload's argument lists through the harness's own in-process
runner (perfbench/worker.py) and check the outputs with the workload's
own check, so a change that moves output digits learns here whether the
benchmark would still accept them.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import toepcond.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    # run.py and worker.py import their siblings by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_harness_selftest_passes():
    proc = subprocess.run([sys.executable, "selftest.py"], cwd=PERFBENCH, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name, attempted", [("verify_n64", 64 * 19), ("search_n3", 1), ("model_sweep", 15)])
def test_workload_outputs_meet_the_benchmark_oracles(harness, tmp_path, name, attempted):
    run, worker = harness
    workload = run.WORKLOADS[name]
    argvs = workload.calls(42, tmp_path)
    results = [worker._run_call(cli, argv) for argv in argvs]
    files = {path.name: path.read_text() for path in tmp_path.iterdir()}
    ops, problems = workload.check(results, files, argvs)
    assert problems == []
    assert len(ops) == attempted
    assert [(op, cause) for op, cause in ops if cause] == []
    assert [res["runtime_warnings"] for res in results] == [[]] * len(argvs)
