"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed sequence of kyoung CLI invocations.  Each is chosen so
that one layer does most of the work and another layer next to nothing:

structure      ``verify structure``: BFS ``lattice.leq`` and the
               ``partitions.contains`` calls inside it do most of the work,
               ``ideals`` meet/join/complement the rest; ``qpoly`` is idle.
qseries-large  ``verify conjecture-u`` then ``rankgen``: few, long
               polynomials through the schoolbook ``QPoly.__mul__`` and the
               unbounded q-Pascal ``gaussian`` memo; ``lattice`` is idle.
qseries-small  ``verify sieved`` then ``verify conjecture-gen``: many short
               polynomials added and divided by cyclotomics, and many
               skipped cells tallied one at a time in ``verify``.
ideal-export   ``ideal`` written as JSON and as DOT: the only workload that
               runs ``lattice.build_ideal`` (down-covers, the ``k_skew``
               cache) and the write path.

The seed picks the ``rankgen`` rectangle of qseries-large and the rectangle
of ideal-export from the bands below, whose members cost about the same; the
sweep grids are fixed.  Every output is checked from outside the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

# rankgen --m k//2 --n k-k//2+1 --k k; the Gaussian memo peaks near 300 MB.
RANKGEN_K = (136, 137)
# (m, n, k) one row apart, count_Lk 13,741 and 14,105: cost and peak RSS
# differ by about 3 %.  Rectangles of unlike shape and equal count_Lk were
# tried and differ in cost by 10 % or more.
IDEAL_RECTANGLES = ((4, 45, 14), (4, 46, 14))


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments without ``--out``, and what it writes.

    kind is "report" (verify JSON), "rankgen" (coefficient list on stdout),
    "ideal-json" or "ideal-dot"; mnk is the rectangle for the last three.
    """

    args: tuple[str, ...]
    kind: str
    output: str | None = None
    mnk: tuple[int, int, int] | None = None

    @property
    def key(self) -> str:
        return " ".join(self.args)


def count_Lk(m: int, n: int, k: int) -> int:
    """Size of the ideal below (m^n) at level k, from its binomial formula."""
    return math.comb(k + 1, m) + (n - k + m - 1) * math.comb(k, m - 1)


def _rect_args(m: int, n: int, k: int) -> tuple[str, ...]:
    return ("--m", str(m), "--n", str(n), "--k", str(k))


def structure(seed: int) -> list[Invocation]:
    return [Invocation(("verify", "structure", "--n-max", "5"), "report", "structure.json")]


def qseries_large(seed: int) -> list[Invocation]:
    k = random.Random(seed).choice(RANKGEN_K)
    m = k // 2
    mnk = (m, k - m + 1, k)
    return [
        Invocation(
            ("verify", "conjecture-u", "--m", "2,3,5,7", "--k", "1:50", "--n", "1:60"),
            "report",
            "conjecture-u.json",
        ),
        Invocation(("rankgen", *_rect_args(*mnk)), "rankgen", mnk=mnk),
    ]


def qseries_small(seed: int) -> list[Invocation]:
    return [
        Invocation(
            ("verify", "sieved", "--m", "2:14", "--a", "2:32", "--b", "3:33", "--k", "3:55"),
            "report",
            "sieved.json",
        ),
        Invocation(
            ("verify", "conjecture-gen", "--m", "2:14", "--a", "2:26", "--b", "3:27", "--n", "1:26"),
            "report",
            "conjecture-gen.json",
        ),
    ]


def ideal_export(seed: int) -> list[Invocation]:
    mnk = random.Random(seed).choice(IDEAL_RECTANGLES)
    args = ("ideal", *_rect_args(*mnk))
    return [
        Invocation(args, "ideal-json", "ideal.json", mnk),
        Invocation((*args, "--dot"), "ideal-dot", "ideal.dot", mnk),
    ]


WORKLOADS = {
    "structure": structure,
    "qseries-large": qseries_large,
    "qseries-small": qseries_small,
    "ideal-export": ideal_export,
}


def every_invocation() -> list[Invocation]:
    """Each invocation some seed can produce, for recording digests."""
    seen: dict[str, Invocation] = {}
    for build in WORKLOADS.values():
        for seed in range(64):
            for inv in build(seed):
                seen.setdefault(inv.key, inv)
    return list(seen.values())


def canonical(inv: Invocation, data: bytes) -> tuple[bytes, int, list[str]]:
    """Digest input, checked cells and problems found in one output.

    Reports lose ``elapsed_ms``, the one field allowed to differ between
    runs; the other outputs are taken byte for byte.  Cells are evaluated
    report cells, or the vertices an ideal export wrote.
    """
    problems: list[str] = []
    cells = 0
    if inv.kind == "report":
        reports = json.loads(data)
        if isinstance(reports, dict):
            reports = [reports]
        for rep in reports:
            if rep["status"] == "theorem" and rep["fail"] != 0:
                problems.append(f"{rep['check']}: {rep['fail']} theorem failures")
            cells += rep["grid"]
            del rep["elapsed_ms"]
        return json.dumps(reports, sort_keys=True).encode(), cells, problems

    expected = count_Lk(*inv.mnk)
    if inv.kind == "rankgen":
        total = sum(json.loads(data))
        if total != expected:
            problems.append(f"coefficients sum to {total}, count_Lk is {expected}")
    elif inv.kind == "ideal-json":
        counts = [len(rank) for rank in json.loads(data)["ranks"]]
        cells = sum(counts)
        if cells != expected:
            problems.append(f"{cells} vertices, count_Lk is {expected}")
        if counts != counts[::-1]:
            problems.append("rank vector is not palindromic")
    elif inv.kind == "ideal-dot":
        cells = data.count(b' [label="')
        if cells != expected:
            problems.append(f"{cells} DOT vertices, count_Lk is {expected}")
    else:
        raise ValueError(f"unknown output kind {inv.kind!r}")
    return data, cells, problems


def check(inv: Invocation, data: bytes, digests: dict[str, str]) -> tuple[int, list[str]]:
    """Checked cells and every problem, the digest comparison included."""
    body, cells, problems = canonical(inv, data)
    digest = hashlib.sha256(body).hexdigest()
    recorded = digests.get(inv.key)
    if recorded is None:
        problems.append("no recorded digest")
    elif digest != recorded:
        problems.append(f"digest {digest[:12]} differs from recorded {recorded[:12]}")
    return cells, [f"{inv.key}: {p}" for p in problems]
