"""Run the benchmark in pairs, parent against change, and write BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--seeds 10] [--trace WORKLOAD ...]

DIR is the root of a source checkout of each side.  For every workload and
every seed 1..k, ``perfbench/run.py`` runs once in each checkout, one after
the other; the parent runs first on odd seeds, the change on even ones, so
that a drift of the host's speed does not favour one side.  The workloads,
the run length, the metrics, their directions and regression bounds come
from the change side's ``BENCHMARK.json``.  With ``--trace W`` three traced
runs per side (seeds 1-3, paired and alternated the same way) record the
median of each of W's per-layer metrics as well.  A side's commit is
recorded only when its checkout is a clean git work tree.

For each workload and end-to-end metric the output gives every run, the
medians and quartiles of each side, the change against the parent in
percent, the pairs the change won and a verdict:

  * ``gain``: the change won at least 9 of every 10 pairs, its median
    beats the parent's by more than the parent's interquartile range, every
    change run was correct and no more of its operations failed than of
    the parent's;
  * ``within_bound``: the change's median is not worse than the parent's
    by more than the metric's bound (a fraction of the parent's median);
  * ``unresolved``: the parent's interquartile range is wider than the
    bound times the parent's median, so its runs spread too widely to
    tell, unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# a gain needs this share of the pairs won
PAIR_SHARE = 0.9
# decimal places kept in medians, quartiles and interquartile ranges
DIGITS = 4
# seeds of the traced runs behind the per-layer medians
TRACE_SEEDS = [1, 2, 3]
# environment variables that move setup_s (no bytecode written) and
# peak_rss_mib (the allocator); the runs inherit them, and the output holds
# each value, null when unset
ENV_RECORDED = ("PYTHONDONTWRITEBYTECODE", "PYTHONMALLOC")


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _won(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(parent_runs, change_runs, metrics) -> dict:
    """Compare paired runs of one workload.

    ``parent_runs[i]`` and ``change_runs[i]`` are the final JSON documents of
    ``perfbench/run.py`` for the same seed, reduced to
    ``{metric: value, "correct": c, "attempted": a, "failed": f}``;
    ``metrics`` lists ``{"name", "better", "bound"}`` as BENCHMARK.json's
    ``end_to_end`` does.
    """
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need at least two pairs of runs")
    out = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        out[side] = {
            "median": {
                m["name"]: round(statistics.median(r[m["name"]] for r in runs), DIGITS)
                for m in metrics
            },
            "quartiles": {
                m["name"]: [
                    round(v, DIGITS) for v in _quartiles([r[m["name"]] for r in runs])
                ]
                for m in metrics
            },
            "runs": [dict(r) for r in runs],
        }
    failed = {
        side: sum(r["failed"] for r in runs)
        for side, runs in (("parent", parent_runs), ("change", change_runs))
    }
    attempted = {
        side: sum(r["attempted"] for r in runs)
        for side, runs in (("parent", parent_runs), ("change", change_runs))
    }
    sound = (
        all(r["correct"] for r in change_runs)
        and failed["change"] <= failed["parent"]
    )
    pct, won, iqr, verdict = {}, {}, {}, {}
    pairs = len(parent_runs)
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        parent_values = [r[name] for r in parent_runs]
        change_values = [r[name] for r in change_runs]
        before = statistics.median(parent_values)
        after = statistics.median(change_values)
        q1, q3 = _quartiles(parent_values)
        pct[name] = round(100 * (after - before) / before, 1) if before else 0.0
        won[name] = sum(
            _won(c[name], p[name], better) for p, c in zip(parent_runs, change_runs)
        )
        iqr[name] = round(q3 - q1, DIGITS)
        gap = before - after if better == "lower" else after - before
        if better == "lower":
            apart = max(change_values) < min(parent_values)
        else:
            apart = min(change_values) > max(parent_values)
        verdict[name] = {
            "gain": sound and won[name] >= PAIR_SHARE * pairs and gap > q3 - q1,
            "within_bound": -gap <= bound * abs(before),
            "unresolved": q3 - q1 > bound * abs(before) and not apart,
        }
    out.update({
        "change_vs_parent_pct": pct,
        "pairs_won_by_change": won,
        "parent_iqr": iqr,
        "attempted": attempted,
        "failed": failed,
        "verdict": verdict,
    })
    return out


def layer_medians(runs) -> dict:
    """The median of every metric over one side's traced runs, reduced as
    ``_run`` returns them; correctness and operation counts are left out."""
    return {
        k: round(statistics.median(r[k] for r in runs), DIGITS)
        for k in runs[0] if k not in ("correct", "attempted", "failed")
    }


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    return {
        **values,
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
    }


def _paired_runs(sides: dict, workload: str, seeds, seconds: float, trace: int) -> dict:
    """One run per side and seed; the parent runs first on odd seeds."""
    runs = {"parent": [], "change": []}
    for seed in seeds:
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            runs[side].append(_run(sides[side], workload, seed, seconds, trace))
            print(f"{workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
    return runs


def _commit(checkout: Path):
    """HEAD of a clean git work tree at ``checkout``, else None: a tree with
    uncommitted edits was not measured at any commit."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True,
        )

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    if head.returncode or status.returncode or status.stdout.strip():
        return None
    return head.stdout.strip()


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        **{name: os.environ.get(name) for name in ENV_RECORDED},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = list(range(1, args.seeds + 1))
    doc = {
        "description": (
            f"Parent -> change of `python3 perfbench/run.py --workload W --seed N "
            f"--seconds {seconds:g}` (end-to-end metrics, tracing off) over "
            f"seeds 1-{args.seeds}, alternating which side runs first (parent "
            f"first on odd seeds)"
            + (f", and the per-layer medians of three traced runs per side "
               f"(--trace 1, seeds 1-3, alternating the same way) of "
               f"{', '.join(args.trace)}." if args.trace else ".")
        ),
        "parent_commit": _commit(sides["parent"]),
        "change_commit": _commit(sides["change"]),
        **_machine(),
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = _paired_runs(sides, workload, seeds, seconds, trace=0)
        doc["workloads"][workload] = {
            "seeds": seeds,
            **summarize(runs["parent"], runs["change"], spec["end_to_end"]),
        }
    for workload in args.trace:
        traced = _paired_runs(sides, workload, TRACE_SEEDS, seconds, trace=1)
        doc[f"trace_{workload}"] = {
            "seeds": TRACE_SEEDS,
            **{side: layer_medians(runs) for side, runs in traced.items()},
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
