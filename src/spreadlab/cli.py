"""Command line interface.

Subcommands:
  bounds     best known bounds for one (q, n, t)
  table      bounds swept over ranges (A..B) of q, n, t
  construct  build the packing-bound partial spread as JSON
  verify     check a spread JSON for pairwise disjointness
  analyze    extend a spread to a partition; optional hyperplane profile
  certify    emit or check a descent certificate
  search     exact or greedy search for the maximum partial spread size

Exit codes: 0 success / verified; 1 a checked object is invalid (overlap,
identity violation, tampered certificate); 2 usage errors, malformed input,
out-of-regime parameters, or resource caps.

Every command writes to stdout or --out; '-' means stdout (or stdin for
file arguments).  bounds and table support --format text|json|csv; all
other commands emit JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import partition as pt
from . import search as srch
from .bounds import SpreadParams, best_known
from .construct import (
    build_lower_bound_spread,
    spread_from_dict,
    verify_partial_spread,
)
from .errors import (
    ConstructionSizeMismatchError,
    IdentityViolationError,
    InvalidParamsError,
    SpreadLabError,
    UnverifiedSpreadError,
)

# every other SpreadLabError is a usage error
VIOLATION_ERRORS = (
    IdentityViolationError,
    UnverifiedSpreadError,
    ConstructionSizeMismatchError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
        if b < a:
            raise _UsageError(f"empty range {text}")
        return list(range(a, b + 1))
    return [int(text)]


def _build_parser() -> _Parser:
    p = _Parser(prog="spreadlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_qnt(sp, ranged=False):
        kind = str if ranged else int
        sp.add_argument("--q", required=True, type=kind)
        sp.add_argument("--n", required=True, type=kind)
        sp.add_argument("--t", required=True, type=kind)

    def add_out(sp):
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")

    sp = sub.add_parser("bounds", help="bounds for one parameter triple")
    add_qnt(sp)
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_out(sp)

    sp = sub.add_parser("table", help="bounds over ranges, e.g. --n 6..14")
    add_qnt(sp, ranged=True)
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_out(sp)

    sp = sub.add_parser("construct", help="build the packing-bound spread")
    add_qnt(sp)
    add_out(sp)

    sp = sub.add_parser("verify", help="check a spread JSON for overlaps")
    sp.add_argument("spread", nargs="?", default="-", help="file or '-'")
    add_out(sp)

    sp = sub.add_parser("analyze", help="partition a spread, profile its tail")
    sp.add_argument("spread", nargs="?", default="-", help="file or '-'")
    sp.add_argument(
        "--hyperplanes", action="store_true", help="add the hyperplane profile"
    )
    add_out(sp)

    sp = sub.add_parser("certify", help="emit or check a descent certificate")
    sp.add_argument("--q", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--x", type=int, default=None)
    sp.add_argument("--check", default=None, help="certificate JSON to check")
    add_out(sp)

    sp = sub.add_parser("search", help="exact or greedy maximum search")
    add_qnt(sp)
    sp.add_argument("--budget", type=int, default=None, help="node budget")
    sp.add_argument("--greedy", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    add_out(sp)

    return p


def _read_input(path: str, stdin) -> str:
    if path == "-":
        return stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str, stdin) -> dict:
    try:
        doc = json.loads(_read_input(path, stdin))
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read JSON from {path}: {exc}")
    if not isinstance(doc, dict):
        raise _UsageError(f"expected a JSON object in {path}")
    return doc


class _Out:
    def __init__(self, path: str, stdout):
        self.path = path
        self.stdout = stdout

    def write(self, text: str):
        if not text.endswith("\n"):
            text += "\n"
        if self.path == "-":
            self.stdout.write(text)
        else:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def write_json(self, doc):
        self.write(_printed(lambda: json.dumps(doc, indent=2), doc))


_TABLE_FIELDS = [
    "q", "n", "t", "r", "lower", "best_upper", "exact_value", "exact_source",
    "sources",
]


def _report_row(rep) -> dict:
    return {
        "q": rep.params.q,
        "n": rep.params.n,
        "t": rep.params.t,
        "r": rep.params.r,
        "lower": rep.lower,
        "best_upper": rep.best_upper,
        "exact_value": rep.exact.value if rep.exact else "",
        "exact_source": rep.exact.source if rep.exact else "",
        "sources": " ".join(f"{u.source}={u.value}" for u in rep.uppers),
    }


def _largest(x) -> int:
    """The largest absolute value of an integer in a document, 0 if none."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return max(map(_largest, x), default=0)
    return abs(x) if isinstance(x, int) else 0


def _check_printable(doc) -> None:
    """A usage error that names the size of doc's longest integer when that
    is too long for Python to print (sys.get_int_max_str_digits)."""
    largest, limit = _largest(doc), sys.get_int_max_str_digits()
    # about the decimal digits of largest and never fewer, so most documents
    # are cleared without computing 10 ** limit
    digits = int(largest.bit_length() * math.log10(2)) + 1
    if limit and digits > limit and largest >= 10 ** limit:
        raise _UsageError(
            f"output too large: it holds an integer of about {digits} decimal "
            f"digits, and at most {limit} can be printed"
        )


def _printed(make, doc) -> str:
    """make(), the text of doc; _check_printable(doc) when that fails."""
    try:
        return make()
    except ValueError:
        _check_printable(doc)
        raise


def _format_reports(reports, fmt: str) -> str:
    if fmt == "json":
        docs = [r.to_dict() for r in reports]
        return json.dumps(docs[0] if len(docs) == 1 else docs, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_TABLE_FIELDS)
        w.writeheader()
        for rep in reports:
            w.writerow(_report_row(rep))
        return buf.getvalue()
    lines = []
    for rep in reports:
        row = _report_row(rep)
        head = f"mu_{row['q']}({row['n']}, {row['t']})"
        if rep.exact:
            lines.append(f"{head} = {rep.exact.value} [{rep.exact.source}]")
        else:
            lines.append(f"{head} in [{rep.lower}, {rep.best_upper}]")
        lines.append(f"  sources: {row['sources']}")
    return "\n".join(lines)


def _cmd_bounds(args, out, stdin):
    rep = best_known(SpreadParams(args.q, args.n, args.t))
    out.write(_printed(lambda: _format_reports([rep], args.format), rep.to_dict()))
    return 0


def _cmd_table(args, out, stdin):
    reports = []
    for q in _parse_range(args.q):
        for n in _parse_range(args.n):
            for t in _parse_range(args.t):
                try:
                    rep = best_known(SpreadParams(q, n, t))
                except InvalidParamsError:
                    continue  # sweep cells like n <= t are just skipped
                _check_printable(rep.to_dict())  # stop at a cell too long to print
                reports.append(rep)
    out.write(_format_reports(reports, args.format))
    return 0


def _cmd_construct(args, out, stdin):
    spread = build_lower_bound_spread(SpreadParams(args.q, args.n, args.t))
    out.write_json(spread.to_dict())
    return 0


def _cmd_verify(args, out, stdin):
    spread = spread_from_dict(_load_json(args.spread, stdin))
    res = verify_partial_spread(spread)
    out.write_json(res.to_dict())
    return 0 if res.ok else 1


def _cmd_analyze(args, out, stdin):
    spread = spread_from_dict(_load_json(args.spread, stdin))
    res = verify_partial_spread(spread)
    if not res.ok:
        out.write_json({"verified": False, "verify_result": res.to_dict()})
        return 1
    spread = dataclasses.replace(spread, verified=True)
    part = pt.partition_from_spread(spread)
    doc = {
        "q": spread.params.q,
        "n": spread.params.n,
        "t": spread.params.t,
        "spread_size": spread.size,
        "verified": True,
        "dim_counts": {str(d): c for d, c in part.dim_counts.items()},
        "profile": None,
    }
    if args.hyperplanes:
        doc["profile"] = pt.hyperplane_profile(part).to_dict()
    out.write_json(doc)
    return 0


def _cmd_certify(args, out, stdin):
    if args.check is not None:
        cert = pt.certificate_from_dict(_load_json(args.check, stdin))
        res = pt.check_certificate(cert)
        out.write_json(res.to_dict())
        return 0 if res.ok else 1
    if args.q is None or args.n is None or args.t is None:
        raise _UsageError("certify needs --q --n --t (or --check FILE)")
    cert = pt.descent_certificate(args.q, args.n, args.t, args.x)
    out.write_json(cert.to_dict())
    return 0


def _cmd_search(args, out, stdin):
    params = SpreadParams(args.q, args.n, args.t)
    if args.greedy:
        res = srch.greedy_result(params, seed=args.seed)
    else:
        res = srch.max_partial_spread(params, max_nodes=args.budget)
    out.write_json(res.to_dict())
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "certify": _cmd_certify,
    "search": _cmd_search,
}


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = _Out(getattr(args, "out", "-"), stdout)
        return _COMMANDS[args.command](args, out, stdin)
    except VIOLATION_ERRORS as exc:
        print(f"invalid: {exc}", file=stderr)
        return 1
    except (_UsageError, SpreadLabError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except KeyError as exc:
        print(f"error: malformed input: missing key {exc}", file=stderr)
        return 2
    except (TypeError, ValueError) as exc:
        print(f"error: malformed input: {exc}", file=stderr)
        return 2


def main() -> None:
    sys.exit(run())
