"""Golden CLI output: sha256 digests of construct, verify and analyze.

The digests pin every byte the commands print, so a change to how spreads
and partitions are held inside the package can be checked to print exactly
what it printed before.  A re-based document (members shuffled, each given
another basis) describes the same spread, so it verifies and analyzes to
the same bytes as the document it came from.
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from spreadlab.cli import run
from spreadlab.gf import field_for_order

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402

# the output of verify on a partial spread: {"ok": true, ...}
VERIFIED = "22c97701be5fa0f5bf5446fc7f22a44fa9d021827866c2c9d5f6f8a05f7139ed"

# (q, n, t): digests of construct and of analyze --hyperplanes on its output
GOLDEN = {
    (2, 7, 3): (
        "3b6b860b327277f88be6104b2facb1ede4295165538554fe8176390e22078045",
        "647f47565c82dd0b8b951ba560c894412839c653f944a6b5e48b420ba934112c",
    ),
    (3, 5, 2): (
        "4ccdaa1f2727a752b8c71d5d194151a4d8cb6527d1ff2dc9e75c2d486c26aa58",
        "4dff427d5dbb825e57b0fdbd861bd7a33f152b26eec967cd2326d4a12e1e36ce",
    ),
    (4, 6, 3): (
        "ab5bb9a6f0d589acf15c3564dc6e44437fce63704d0076708d7d30e6a43ce921",
        "883a8129d052c2652c2d9390e0617affcba1777347135a16fbdfb4c9f3124304",
    ),
    (2, 10, 3): (
        "11129dc43bdcdb9612094b95ac5ba313ccfbdd08f2f41a26ba8a093aad5aa38b",
        "9fa1e9bd1d612982cff4107a73974212d816cce45e09bf7215cbe4cc35ce1197",
    ),
    (5, 5, 2): (
        "a204460c4283ea7e8deb3c38b6ada79a8eff4ad824abd9503bb6dca2de8d0fa6",
        "6287e60ec35d1929ce7af481273506b81b07dadd4aa2066118a2dc252d098603",
    ),
}

# one re-based document per q, from the first triple above with that q
REBASED = [(2, 7, 3), (3, 5, 2), (4, 6, 3), (5, 5, 2)]

# documents in V(n, q) with q^n >= 2^63, whose point encodings do not fit an
# int64: (q, n, t, members, planted) -> exit code and digest of verify.  The
# members are random t x n matrices over GF(q); planted (a, s) appends one
# more member whose first row is s times the first row of member a.
HUGE = {
    (2, 64, 2, 2, None): (0, VERIFIED),
    (2, 70, 3, 3, (0, 1)): (
        1, "39037852bfd231c3425b69c3d9a63215d72ed47abc53102229e1f6011b55eb99",
    ),
    (3, 41, 2, 4, (1, 2)): (
        1, "0ef1655b5a8b8b8645e8c9316d01b5a5651bd3e213fcb511529f2b4bf9187a0b",
    ),
    (4, 32, 2, 4, (2, 2)): (
        1, "afda29d5e627587aa894b34491561a4dc6d2aa80678995c0c7a2efce8a94436d",
    ),
}


def go(argv, inp=""):
    out, err = io.StringIO(), io.StringIO()
    rc = run(argv, stdin=io.StringIO(inp), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def construct(q, n, t) -> str:
    rc, out, err = go(["construct", "--q", str(q), "--n", str(n), "--t", str(t)])
    assert (rc, err) == (0, "")
    return out


@pytest.mark.parametrize("q,n,t", list(GOLDEN))
def test_construct_verify_analyze(q, n, t):
    doc = construct(q, n, t)
    built, analyzed = GOLDEN[q, n, t]
    assert digest(doc) == built
    rc, out, _ = go(["verify"], doc)
    assert (rc, digest(out)) == (0, VERIFIED)
    rc, out, _ = go(["analyze", "--hyperplanes"], doc)
    assert (rc, digest(out)) == (0, analyzed)


@pytest.mark.parametrize("q,n,t", REBASED)
def test_rebased_document_prints_the_same(q, n, t):
    doc = json.loads(construct(q, n, t))
    moved = json.dumps(checks.rebase_spread_doc(doc, random.Random(q)))
    rc, out, _ = go(["verify"], moved)
    assert (rc, digest(out)) == (0, VERIFIED)
    rc, out, _ = go(["analyze", "--hyperplanes"], moved)
    assert (rc, digest(out)) == (0, GOLDEN[q, n, t][1])


def huge_doc(q, n, t, members, planted) -> str:
    rng = random.Random(q * n)
    bases = [
        [[rng.randrange(q) for _ in range(n)] for _ in range(t)]
        for _ in range(members)
    ]
    if planted is not None:
        a, s = planted
        field = field_for_order(q)
        first = [field.mul(s, x) for x in bases[a][0]]
        bases.append([first] + [[rng.randrange(q) for _ in range(n)]
                                for _ in range(t - 1)])
    docs = [{"q": q, "n": n, "dim": t, "rows": rows} for rows in bases]
    return json.dumps({"q": q, "n": n, "t": t, "members": docs})


@pytest.mark.parametrize("case", list(HUGE))
def test_verify_beyond_int64_encodings(case):
    q, n = case[:2]
    assert q ** n >= 1 << 63
    rc, out, _ = go(["verify"], huge_doc(*case))
    assert (rc, digest(out)) == HUGE[case]


def test_overlap_reason_and_exit_code():
    doc = json.loads(construct(2, 7, 3))
    doc["members"].insert(9, doc["members"][4])
    rc, out, err = go(["verify"], json.dumps(doc))
    assert (rc, err) == (1, "")
    assert json.loads(out) == {
        "ok": False,
        "clash": [4, 9],
        "reason": "members 4 and 9 share a nonzero vector",
    }
