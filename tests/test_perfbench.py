"""One benchmark worker round per workload, run as the harness runs it.

`perfbench/worker.py` calls the library outside its per-op error handling,
in set-up and in its correctness gate, so a moved name or a wrong verdict
there ends the worker with a non-zero exit.  Each workload runs slice 0 once
here, with seed 1 and no 10-vertex sample, so such a fault fails the suite
instead of a benchmark run.  The workload table is read from
`perfbench/run.py`; nothing under `perfbench/` is written.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def harness_workloads() -> dict:
    """run.py's workload -> (slices per cycle, extra round spec) table."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


WORKLOADS = harness_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_worker_round_passes(workload):
    slices, extra = WORKLOADS[workload]
    spec = dict(extra, workload=workload, seed=1, slice=0, slices=slices, trace=False,
                setup_only=False, sample=[])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
