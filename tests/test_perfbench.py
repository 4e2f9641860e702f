"""One benchmark worker round per workload, run as the harness runs it.

`perfbench/worker.py` calls the library outside its per-op error handling,
in set-up and in its correctness gate, so a moved name or a wrong verdict
there ends the worker with a non-zero exit.  Each workload runs slice 0 once
here, with seed 1, so such a fault fails the suite instead of a benchmark
run.  The `sweep` round also gets 40 10-vertex graphs from the harness's
own `sample10` generator, at seed 7, so its 10-vertex paths run too.
The workload table is read from `perfbench/run.py` and the generator from
`perfbench/inputs.py`; nothing under `perfbench/` is written.
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


SWEEP_SAMPLE = (7, 40)  # sample10 seed and count for the sweep round


def harness_module(name: str):
    """A module of perfbench/, loaded from its file without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# run.py's workload -> (slices per cycle, extra round spec) table
WORKLOADS = harness_module("run").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_worker_round_passes(workload):
    slices, extra = WORKLOADS[workload]
    sample = harness_module("inputs").sample10(*SWEEP_SAMPLE) if workload == "sweep" else []
    spec = dict(extra, workload=workload, seed=1, slice=0, slices=slices, trace=False,
                setup_only=False, sample=sample)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > len(sample)
    assert result["failed"] == 0, result["errors"]
