#!/usr/bin/env python3
"""Exhaustive search on small cases, warm and cold, checked against the tables.

Runs the branch-and-bound search on each case twice, warm-started from the
packing-bound construction and cold, prints the certified maximum next to
the tabulated lower and best upper bound with the nodes cut by each prune,
and flags any disagreement.  The default case list finishes in a few
seconds.  (2,6,2) is the stretch case behind --stretch; its warm start
already meets the point-count prune, so the warm search closes at the root
after one node, while the cold one walks its tree.

Exit status is 1 if any search result contradicts the tables, or if the
warm and the cold search of a case disagree: both EXACT with different
sizes, or one EXACT below what the other found.
"""

import argparse
import sys
import time

from spreadlab.bounds import SpreadParams, best_known
from spreadlab.search import max_partial_spread

DEFAULT_CASES = "2,4,2 2,5,2 2,5,3 2,6,3 3,4,2"
STRETCH_CASES = "2,6,2"


def parse_cases(text):
    cases = []
    for chunk in text.split():
        q, n, t = (int(s) for s in chunk.split(","))
        cases.append(SpreadParams(q, n, t))
    return cases


def disagree(results):
    """True when the searches of one case contradict each other."""
    exact = {res.best_size for res in results if res.status == "EXACT"}
    return bool(exact) and (
        len(exact) > 1 or max(res.best_size for res in results) > min(exact)
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", default=DEFAULT_CASES,
                    help="space separated q,n,t triples")
    ap.add_argument("--stretch", action="store_true",
                    help=f"also run {STRETCH_CASES}")
    ap.add_argument("--budget", type=int, default=None, help="node budget")
    args = ap.parse_args(argv)

    cases = parse_cases(args.cases)
    if args.stretch:
        cases += parse_cases(STRETCH_CASES)

    bad = 0
    print(f"{'case':>12} {'start':>5} {'found':>6} {'status':>18} {'nodes':>10} "
          f"{'secs':>7} {'table':>12}  prunes")
    for params in cases:
        rep = best_known(params)
        table = (f"= {rep.exact.value}" if rep.exact
                 else f"[{rep.lower}, {rep.best_upper}]")
        label = f"({params.q},{params.n},{params.t})"
        results = []
        for warm in (True, False):
            t0 = time.perf_counter()
            res = max_partial_spread(params, max_nodes=args.budget, warm_start=warm)
            secs = time.perf_counter() - t0
            results.append(res)
            start = "warm" if warm else "cold"
            prunes = " ".join(f"{k}={v}" for k, v in res.prunes.items())
            print(f"{label:>12} {start:>5} {res.best_size:>6} {res.status:>18} "
                  f"{res.nodes_explored:>10} {secs:>7.2f} {table:>12}  {prunes}")

            ok = rep.lower <= res.best_size <= rep.best_upper
            if res.status == "EXACT" and rep.exact:
                ok = ok and res.best_size == rep.exact.value
            if not ok:
                print(f"  MISMATCH at {label} {start}", file=sys.stderr)
                bad += 1
        if disagree(results):
            print(f"  DISAGREE at {label}: warm {results[0].best_size} "
                  f"{results[0].status}, cold {results[1].best_size} "
                  f"{results[1].status}", file=sys.stderr)
            bad += 1

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
