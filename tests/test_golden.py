"""Golden CLI output: sha256 digests of construct, verify, analyze and certify.

The digests pin every byte the commands print, so a change to how spreads,
partitions and certificates are held inside the package can be checked to
print exactly what it printed before.  A re-based document (members
shuffled, each given another basis) describes the same spread, so it
verifies and analyzes to the same bytes as the document it came from.
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from spreadlab import bounds, partition
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

# (q, n, t): digest of certify, whose document certify --check prints as
# CERTIFIED
CERTIFICATES = {
    (2, 8, 3): "8533c06558dd9fb6e4cb248196b838fd6282245f27ae4aec011c50da7cd0b4e5",
    (3, 10, 4): "3737edee021369423012f6cb225b8c54769bc684e21d5e096a3b675e31f01848",
    (9, 14, 4): "bd986b94d704b7eb47362b2826e6f5ed0373e89df21074d7d9d6e3d28c0a45c5",
    (5, 12, 5): "7d4e101526500c42d76c756fa603c076ed255f676c40aa07f97985a2aa6b1b13",
}
CERTIFIED = '{\n  "ok": true,\n  "mismatch": null\n}\n'

# edits to the (2,8,3) certificate, each with the field certify --check reports
TAMPERED = [
    (lambda d: d["final"].update(delta2=3), "final.delta2"),
    (lambda d: d.update(claimed_bound=35, n_t=36), "claimed_bound"),
    (lambda d: d.update(q=2 ** 89 - 1), "params"),
]

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


def certify(q, n, t) -> str:
    rc, out, err = go(["certify", "--q", str(q), "--n", str(n), "--t", str(t)])
    assert (rc, err) == (0, "")
    return out


@pytest.mark.parametrize("q,n,t", list(CERTIFICATES))
def test_certify_and_check(q, n, t):
    doc = certify(q, n, t)
    assert digest(doc) == CERTIFICATES[q, n, t]
    assert go(["certify", "--check", "-"], doc) == (0, CERTIFIED, "")


def test_check_runs_no_producer_code(monkeypatch):
    # certify --check must read and replay a document without the code that
    # wrote it: every function and class of partition.py and bounds.py is
    # made to raise, under each name any spreadlab module holds it by
    docs = [certify(*qnt) for qnt in CERTIFICATES]
    tampered = []
    for edit, at in TAMPERED:
        doc = json.loads(docs[0])
        edit(doc)
        tampered.append((json.dumps(doc), at))

    def producer(*args, **kwargs):
        raise AssertionError("certify --check ran producer code")

    producers = [
        value
        for module in (partition, bounds)
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    ]
    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "spreadlab":
            continue
        for attr, value in list(vars(module).items()):
            if any(value is p for p in producers):
                monkeypatch.setattr(module, attr, producer)
                patched += 1
    assert "descent_certificate" in {p.__name__ for p in producers}
    assert patched > len(producers)  # cli and the package hold some too

    for doc in docs:
        assert go(["certify", "--check", "-"], doc) == (0, CERTIFIED, "")
    for doc, at in tampered:
        rc, out, err = go(["certify", "--check", "-"], doc)
        assert (rc, json.loads(out), err) == (1, {"ok": False, "mismatch": at}, "")
    with pytest.raises(AssertionError, match="producer code"):
        go(["certify", "--q", "2", "--n", "8", "--t", "3"])
