"""Workloads of the spreadlab benchmark and the operations they run.

Each operation is one call a user waits for: the construct -> analyze
pipeline on one (q, n, t), one exact search, one greedy pass, or one
subspace enumeration.  Operations call only names in ``spreadlab.__all__``
and time those calls through a Tracer; the output checks in ``checks`` run
outside the timed spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import random
import time
from typing import Callable

import spreadlab as sl

import checks

# Every workload also runs a small case of the layers it does not stress
# (PROBE_*), so each per-layer span appears in every traced run.
PROBE_PIPELINE = [(2, 7, 3)]
PROBE_SEARCH = [(2, 4, 2)]
PROBE_GREEDY = (2, 4, 2)

# The full (2, 5, 2) proof walks 4.94 M nodes in 7-9 s, too long to time
# steadily on a shared host (README, "What was left out").  It is searched
# under this node budget instead, warm and cold.  A search whose tree fits
# in the budget ends EXACT sooner, so a smaller tree still shows in the time.
SEARCH_BUDGET = 500_000

# "warm" triples get enumerate, prep and a warm-started exact search;
# "cold" triples an exact search without warm start; "budgeted" triples
# enumerate, prep and a warm and a cold search under SEARCH_BUDGET nodes;
# the "greedy" triple one greedy pass with a seed drawn from the run's seed.
WORKLOADS = {
    "pipeline": {
        # prime q, more than 300 members, then at most 300 (the pairwise
        # verify path); then the same over GF(4)
        "pipelines": [
            (5, 7, 3), (2, 13, 4), (3, 7, 3), (2, 11, 4), (2, 10, 3),
            (4, 7, 2), (4, 6, 3),
        ],
        "warm": PROBE_SEARCH,
        "cold": PROBE_SEARCH,
        "budgeted": [],
        "greedy": PROBE_GREEDY,
    },
    "search": {
        "pipelines": PROBE_PIPELINE,
        # acceptance criterion 6 golden cases, then (2, 6, 2)
        "warm": [(2, 4, 2), (2, 5, 3), (2, 6, 3), (3, 4, 2), (2, 6, 2)],
        "cold": [(2, 4, 2), (2, 5, 3), (2, 6, 3), (3, 4, 2), (2, 6, 2)],
        "budgeted": [(2, 5, 2)],
        "greedy": (2, 8, 3),
    },
}


class Tracer:
    """Times calls into spreadlab; keeps spans in memory when recording.

    ``busy`` accumulates the time spent inside spans since the caller last
    reset it, which is how an operation's own time is measured.
    """

    def __init__(self, record: bool):
        self.record = record
        self.spans: list[dict] = []
        self.busy = 0.0
        self.parent: int | None = None
        self.case = "setup"
        self.round: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.busy += end - start
            if self.record:
                self.add(name, start, end, self.parent)

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "case": self.case,
            "round": self.round,
        })
        return len(self.spans) - 1


@dataclasses.dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[Tracer], tuple[list[str], dict[str, int]]]


def setup(workload: str, tracer: Tracer) -> None:
    """Fill the per-process caches the workload's cases use: field and
    tower tables, then the point tables that covering points builds."""
    spec = WORKLOADS[workload]
    triples = [
        *spec["pipelines"], *spec["warm"], *spec["cold"], *spec["budgeted"],
        spec["greedy"],
    ]
    with tracer.span("gf.tables"):
        for q, n, t in triples:
            field = sl.field_for_order(q)
            # the towers GF(q^m) the packing construction walks through
            for m in range(n - t, t - 1, -t):
                sl.ext_field(field, m)
    with tracer.span("setup.points"):
        for q in sorted({q for q, _, _ in triples}):
            spread = sl.build_lower_bound_spread(sl.SpreadParams(q, 4, 2))
            sl.partition_from_spread(spread)


def _rows(spread) -> list:
    return [[list(r) for r in s.rows] for s in spread.members]


def _pipeline(q: int, n: int, t: int, seed: int) -> Operation:
    """spreadlab construct | spreadlab analyze - --hyperplanes; on its way
    between the two the spread document is rewritten, by the seed, with its
    members shuffled and each given another basis of the same subspace."""
    params = sl.SpreadParams(q, n, t)

    def run(tr: Tracer):
        with tr.span("construct.build"):
            spread = sl.build_lower_bound_spread(params)
        with tr.span("construct.serialize"):
            built = spread.to_dict()
        errors = checks.check_spread_doc(built, q, n, t)
        moved = checks.rebase_spread_doc(built, random.Random(f"{seed}/{q},{n},{t}"))
        with tr.span("construct.serialize"):
            spread = sl.spread_from_dict(json.loads(json.dumps(moved)))
        with tr.span("construct.verify"):
            res = sl.verify_partial_spread(spread)
        if not res.ok:
            return errors + [f"verify rejected a valid spread: {res.reason}"], {}
        with tr.span("partition.fill"):
            part = sl.partition_from_spread(dataclasses.replace(spread, verified=True))
            dim_counts = part.dim_counts
        with tr.span("partition.profile"):
            text = json.dumps(sl.hyperplane_profile(part).to_dict())
        profile = json.loads(text)
        size = len(spread.members)
        errors += checks.check_partition(
            q, n, t, size, [[list(r) for r in p.rows] for p in part.parts]
        )
        errors += checks.check_profile(profile, q, n, t, size)
        incidences = sum(
            c * checks.theta(n - d, q) for d, c in dim_counts.items()
        )
        return errors, {
            "construct.members": size,
            "partition.holes": dim_counts.get(1, 0),
            "partition.incidences": incidences,
        }

    return Operation(f"pipeline{q, n, t}", run)


def _enumerate(q: int, n: int, t: int) -> Operation:
    def run(tr: Tracer):
        with tr.span("linalg.enumerate"):
            subs = list(sl.enumerate_subspaces(n, t, sl.field_for_order(q)))
        errors = []
        want = checks.gaussian_binomial(n, t, q)
        if len(subs) != want:
            errors.append(f"{len(subs)} subspaces, [{n} {t}]_{q} = {want}")
        if any(len(s.rows) != t for s in subs):
            errors.append(f"a subspace is not {t}-dimensional")
        return errors, {"linalg.subspaces": len(subs)}

    return Operation(f"enumerate{q, n, t}", run)


def _budgeted(q: int, n: int, t: int, budget: int, warm: bool) -> Operation:
    """A search stopped after budget nodes.  With budget 1 this is the prep
    of the warm-started search: candidates, adjacency and the warm start."""
    span = "search.prep" if budget == 1 else "search.exact"

    def run(tr: Tracer):
        with tr.span(span):
            res = sl.max_partial_spread(
                sl.SpreadParams(q, n, t), max_nodes=budget, warm_start=warm
            )
        errors = checks.check_budgeted(
            q, n, t, budget, res.status, res.nodes_explored, res.best_size,
            _rows(res.witness),
        )
        return errors, {} if budget == 1 else {"search.nodes": res.nodes_explored}

    if budget == 1:
        return Operation(f"prep{q, n, t}", run)
    return Operation(f"{'warm' if warm else 'cold'}{q, n, t}/{budget} nodes", run)


def _exact(q: int, n: int, t: int, warm: bool) -> Operation:
    def run(tr: Tracer):
        with tr.span("search.exact"):
            res = sl.max_partial_spread(sl.SpreadParams(q, n, t), warm_start=warm)
        errors = checks.check_exact(
            q, n, t, res.status, res.best_size, _rows(res.witness)
        )
        return errors, {"search.nodes": res.nodes_explored}

    return Operation(f"{'warm' if warm else 'cold'}{q, n, t}", run)


def _greedy(q: int, n: int, t: int, seed: int) -> Operation:
    def run(tr: Tracer):
        with tr.span("search.greedy"):
            spread = sl.greedy_spread(sl.SpreadParams(q, n, t), seed=seed)
        errors = []
        if spread.size < 1:
            errors.append("greedy returned no member")
        errors += checks.check_witness(q, n, t, spread.size, _rows(spread))
        return errors, {"search.candidates": checks.gaussian_binomial(n, t, q)}

    return Operation(f"greedy{q, n, t}/seed {seed}", run)


def operations(workload: str, seed: int) -> list[Operation]:
    """The operations of one round, the same in every round of a run."""
    spec = WORKLOADS[workload]
    ops = [_pipeline(q, n, t, seed) for q, n, t in spec["pipelines"]]
    prepped = [*spec["warm"], *spec["budgeted"]]
    for q, n, t in prepped:
        ops += [_enumerate(q, n, t), _budgeted(q, n, t, 1, warm=True)]
    ops += [_exact(q, n, t, warm=True) for q, n, t in spec["warm"]]
    ops += [_exact(q, n, t, warm=False) for q, n, t in spec["cold"]]
    for q, n, t in spec["budgeted"]:
        ops += [_budgeted(q, n, t, SEARCH_BUDGET, warm) for warm in (True, False)]
    q, n, t = spec["greedy"]
    if (q, n, t) not in prepped:
        ops.append(_enumerate(q, n, t))
    ops.append(_greedy(q, n, t, random.Random(seed).randrange(1 << 31)))
    return ops
