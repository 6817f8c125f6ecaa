"""Benchmark spreadlab on one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; spreadlab is imported from its
``src/``.  The run sets up (import plus cache warm-up), then runs whole
rounds of the workload's operations while another round still fits in S
seconds, checking every output.  A fixed pure-Python loop is timed just
before and just after each operation and each set-up, and every time is
scaled by REFERENCE_LOOP_S over that loop time: it is given at the host
speed where the loop takes REFERENCE_LOOP_S.  Each operation's time is the
median of its scaled repeats; set-up time is the median of five scaled
set-ups.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
spans around each call into spreadlab are kept in memory, written to
``perfbench/traces/<workload>-seed<N>.json`` at the end, and summed into
the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread: BLAS must not spread the numpy kernels over the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
# set-up is timed in this process and in this many fresh ones
SETUP_CHILDREN = 4
# iterations of the calibration loop, and the loop's fastest time on the
# 2-core machine that set the bounds (its median there was 0.0110 s)
CALIBRATION_LOOPS = 200_000
REFERENCE_LOOP_S = 0.0072

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "max_case_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "gf.tables_s": "s",
    "linalg.enumerate_s": "s",
    "linalg.subspaces": "count",
    "construct.build_s": "s",
    "construct.members": "count",
    "construct.serialize_s": "s",
    "construct.verify_s": "s",
    "construct.verify_members_per_s": "1/s",
    "partition.fill_s": "s",
    "partition.holes": "count",
    "partition.profile_s": "s",
    "partition.incidences": "count",
    "partition.incidences_per_s": "1/s",
    "search.exact_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.prep_s": "s",
    "search.greedy_s": "s",
    "search.candidates": "count",
}
# spans named after the per-layer times, except set-up's gf.tables
SPAN_TIMES = [
    name[:-2] for name, unit in PER_LAYER.items()
    if unit == "s" and name != "gf.tables_s"
]
RATES = {
    "construct.verify_members_per_s": ("construct.members", "construct.verify_s"),
    "partition.incidences_per_s": ("partition.incidences", "partition.profile_s"),
    "search.nodes_per_s": ("search.nodes", "search.exact_s"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, and print the set-up time",
    )
    return p.parse_args(argv)


def _calibrate() -> float:
    """Time a fixed loop of the benchmark's own: the host's current speed.

    Other load on a shared host slows everything in this process alike for
    stretches of seconds, so an operation's time divided by the loop time
    around it no longer depends on that load.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return time.perf_counter() - start


def _run_round(ops, tracer, index):
    """Run every operation once; return their times, the mean calibration
    time before and after each, and failures."""
    tracer.round = index
    times, calibrations, counts = [], [], {}
    failed = check_failed = 0
    for op in ops:
        gc.collect()  # every operation starts from the same heap state
        before = _calibrate()
        tracer.case = op.label
        tracer.busy = 0.0
        start = time.perf_counter()
        if tracer.record:
            tracer.parent = tracer.add("case", start, start, None)
        try:
            errors, got = op.run(tracer)
        except Exception:  # one failing call must not stop the run
            traceback.print_exc()
            failed += 1
            got = {}
        else:
            if errors:
                failed += 1
                check_failed += 1
                for e in errors:
                    print(f"check failed: {op.label}: {e}", file=sys.stderr)
        if tracer.record:
            tracer.spans[tracer.parent]["end"] = time.perf_counter()
            tracer.parent = None
        times.append(tracer.busy)
        calibrations.append((before + _calibrate()) / 2)
        for key, val in got.items():
            counts[key] = counts.get(key, 0) + val
    return {"times": times, "calibrations": calibrations, "counts": counts,
            "failed": failed, "check_failed": check_failed}


def _setup_samples(workload):
    """(set-up time, calibration time) of fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", "0",
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["calibration_s"]))
    return samples


def _layer_metrics(tracer, rounds, scale):
    """scale maps (round, case) to the factor that brings that operation's
    times to the reference host speed; (None, "setup") is set-up's."""
    # scaled span time per (operation, layer) in each round; keep the median
    per_op: dict[tuple[str, str], dict[int, float]] = {}
    for span in tracer.spans:
        if span["round"] is not None and span["name"] in SPAN_TIMES:
            by_round = per_op.setdefault((span["case"], span["name"]), {})
            by_round[span["round"]] = by_round.get(span["round"], 0.0) + (
                span["end"] - span["start"]
            ) * scale[span["round"], span["case"]]
    out = {
        "gf.tables_s": scale[None, "setup"] * sum(
            s["end"] - s["start"] for s in tracer.spans if s["name"] == "gf.tables"
        )
    }
    for name in SPAN_TIMES:
        out[name + "_s"] = sum(
            statistics.median(by_round.values())
            for (_, layer), by_round in per_op.items() if layer == name
        )
    for name, unit in PER_LAYER.items():
        if unit == "count":
            out[name] = rounds[0]["counts"].get(name, 0)
    for name, (count, seconds) in RATES.items():
        out[name] = out[count] / out[seconds] if out[seconds] else 0.0
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spreadlab" / "__init__.py").is_file():
        print(f"no spreadlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    before = _calibrate()
    start = time.perf_counter()
    import workloads  # imports spreadlab

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if Path(workloads.sl.__file__).resolve().parent != SRC / "spreadlab":
        print(f"spreadlab imported from {workloads.sl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = workloads.Tracer(record=bool(args.trace))
    workloads.setup(args.workload, tracer)
    setup_s = time.perf_counter() - start
    setup_calibration = (before + _calibrate()) / 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "calibration_s": setup_calibration}))
        return 0

    ops = workloads.operations(args.workload, args.seed)
    rounds = []
    began = time.perf_counter()
    while True:
        rounds.append(_run_round(ops, tracer, len(rounds)))
        elapsed = time.perf_counter() - began
        if elapsed / len(rounds) * (len(rounds) + 1) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every time is brought to the reference host speed, then each
    # operation's repeats are summarised by their median
    scale = {
        (k, op.label): REFERENCE_LOOP_S / r["calibrations"][i]
        for k, r in enumerate(rounds) for i, op in enumerate(ops)
    }
    scale[None, "setup"] = REFERENCE_LOOP_S / setup_calibration
    cost = [
        statistics.median(
            r["times"][i] * scale[k, op.label] for k, r in enumerate(rounds)
        )
        for i, op in enumerate(ops)
    ]
    if args.trace:
        metrics = _layer_metrics(tracer, rounds, scale)
        TRACE_DIR.mkdir(exist_ok=True)
        dump = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "run_s": sum(cost),
            "operations": [op.label for op in ops],
            "calibrations_s": [r["calibrations"] for r in rounds],
            "spans": tracer.spans,
        }))
    else:
        setups = [(setup_s, setup_calibration), *_setup_samples(args.workload)]
        values = {
            "setup_s": statistics.median(t * REFERENCE_LOOP_S / c for t, c in setups),
            "run_s": sum(cost),
            "max_case_s": max(cost),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    print(json.dumps({
        "correct": not any(r["check_failed"] for r in rounds),
        "attempted": len(ops) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
