"""Benchmark driver for the tightcuts library.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each round runs in a fresh interpreter (perfbench/worker.py), one at a time,
with a pinned PYTHONHASHSEED, so no memo or enumeration cache survives from
one round to the next.  A workload's inputs are split into slices, one per
round; the driver cycles through the slices until --seconds is used up
(at least one round per slice) and reports, per slice, the median round.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics from traced rounds, each slice also
run untraced so that the tracing overhead is measured.  The exit code is 0
only if every op passed its correctness check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEED = "0"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every child is stopped before the run passes this

# workload -> (slices per cycle, extra round spec)
WORKLOADS = {
    "enum8": (1, {}),
    "sweep": (4, {}),
    "decomp-exh": (2, {"strategy": "exhaustive"}),
    "decomp-elp": (4, {"strategy": "elp-first"}),
}
SAMPLE10_COUNT = 500  # 10-vertex graphs per sweep cycle

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
)
# Printed for reading but not reported: on a shared 2-CPU host their run-to-run
# spread exceeds any usable regression bound.
TAIL_PERCENTILES = (90, 99)
# per-layer metric -> span whose self time it is
LAYER_TIMES = {
    "corpus.enum_s": "corpus.enum",
    "matching.mc_filter_s": "matching.mc_filter",
    "matching.tight_cuts_s": "matching.tight_cuts",
    "matching.is_tight_s": "matching.is_tight",
    "matching.is_matching_covered_s": "matching.is_matching_covered",
    "gscut.is_gs_cut_s": "gscut.is_gs_cut",
    "gscut.classify_s": "gscut.classify",
    "gscut.cert_s": "gscut.cert",
    "gscut.validate_s": "gscut.validate",
    "elp.barriers_s": "elp.barriers",
    "elp.two_separations_s": "elp.two_separations",
    "elp.elp_set_s": "elp.elp_set",
    "graphcore.contract_s": "graphcore.contract",
    "formats.parse_s": "formats.parse",
    "formats.write_s": "formats.write",
    "decomp.decompose_s": "decomp.decompose",
}
LAYER_COUNTS = (
    "matching.shores_tested", "gscut.verdict.barrier-cut", "gscut.verdict.essential-gs-cut",
    "gscut.verdict.unclassified", "gscut.certs_validated", "elp.elp_members",
    "decomp.nodes", "decomp.bricks", "decomp.braces",
)
# per-layer ratio -> (numerator count, denominator count)
LAYER_RATIOS = {
    "corpus.classes_per_candidate": ("corpus.classes", "corpus.candidates"),
    "matching.mc_pass_ratio": ("matching.mc_passed", "matching.mc_checked"),
    "matching.tight_ratio": ("matching.tight_cuts", "matching.shores_tested"),
    "gscut.gs_hit_ratio": ("gscut.gs_hits", "matching.shores_tested"),
}


class RoundFailed(Exception):
    pass


def run_round(spec, env, deadline):
    """Run one worker to completion; returns its parsed result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise RoundFailed(f"round {spec} did not finish in time") from None
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_slice_median(rounds, slices, value):
    """Sum over slices of the median of value(round) over that slice's rounds."""
    return sum(statistics.median(value(r) for r in rounds if r["slice"] == s)
               for s in range(slices))


def layer_metrics(traced, untraced, slices):
    out = {}
    for name, span in LAYER_TIMES.items():
        out[name] = (per_slice_median(traced, slices, lambda r: r["self_s"].get(span, 0.0)), "s")
    counts = {}
    names = set(LAYER_COUNTS) | {c for pair in LAYER_RATIOS.values() for c in pair}
    for name in names:
        counts[name] = per_slice_median(traced, slices, lambda r: r["counts"].get(name, 0))
    for name in LAYER_COUNTS:
        out[name] = (counts[name], "count")
    for name, (num, den) in LAYER_RATIOS.items():
        out[name] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")
    wall = lambda r: r["wall_s"]
    out["trace.overhead_ratio"] = (per_slice_median(traced, slices, wall)
                                   / per_slice_median(untraced, slices, wall), "ratio")
    return out


def end_to_end_metrics(rounds, setups, slices):
    wall_s = per_slice_median(rounds, slices, lambda r: r["wall_s"])
    ops = per_slice_median(rounds, slices, lambda r: r["attempted"])
    op_ms = [t for r in rounds for t in r["op_ms"]]
    rss = max(statistics.median(r["rss_mb"] for r in rounds if r["slice"] == s)
              for s in range(slices))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "op_ms_p50": percentile(op_ms, 50),
        "peak_rss_mb": rss,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def self_time_report(traced):
    totals = {}
    for r in traced:
        for name, s in r["self_s"].items():
            totals[name] = totals.get(name, 0.0) + s
    whole = sum(totals.values()) or 1.0
    lines = ["self time over all traced rounds:"]
    for name, s in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:34s} {s:10.4f} s {100 * s / whole:6.2f} %")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tightcuts", "__init__.py")):
        print("error: src/tightcuts not found; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))

    slices, extra = WORKLOADS[args.workload]
    samples = [[] for _ in range(slices)]
    if args.workload == "sweep":
        sys.path.insert(0, HERE)
        from inputs import sample10

        drawn = sample10(args.seed, SAMPLE10_COUNT)
        samples = [drawn[s::slices] for s in range(slices)]

    def spec(s, trace, setup_only=False):
        return dict(extra, workload=args.workload, seed=args.seed, slice=s, slices=slices,
                    trace=trace, setup_only=setup_only, sample=samples[s])

    modes = (False, True) if args.trace else (False,)
    untraced, traced, setups = [], [], []
    try:
        k = 0
        rounds_start = time.monotonic()
        while True:
            for trace in modes:
                res = run_round(spec(k % slices, trace), env, deadline)
                res["slice"] = k % slices
                (traced if trace else untraced).append(res)
                setups.append(res["setup_s"])
            k += 1
            round_s = (time.monotonic() - rounds_start) / k
            if k >= slices and time.monotonic() + round_s > start + args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_round(spec(len(setups) % slices, False, True),
                                    env, deadline)["setup_s"])
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for err in r["errors"]:
            print(f"failed op (slice {r['slice']}): {err}", file=sys.stderr)
    env_info = {"python": platform.python_version(), "networkx": metadata.version("networkx"),
                "nproc": os.cpu_count(), "PYTHONHASHSEED": HASH_SEED,
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "rounds": len(rounds), "setup_samples": len(setups)}
    print(json.dumps({"env": env_info}))
    if args.trace:
        metrics = layer_metrics(traced, untraced, slices)
        print("\n".join(self_time_report(traced)))
    else:
        metrics = end_to_end_metrics(untraced, setups, slices)
        op_ms = [t for r in untraced for t in r["op_ms"]]
        for q in TAIL_PERCENTILES:
            print(f"info: op_ms_p{q} {percentile(op_ms, q):.6f} ms over {len(op_ms)} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
