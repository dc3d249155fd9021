"""Seeded request lists for the benchmark workloads.

Each builder draws its documents from the workload seed with the standard
library's `random`, writes them into a work directory and returns the requests
of one pass.  The program under test only ever sees the documents.  Alongside
each request the builder records what the output check needs, computed here
with plain value tuples and without the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LABELS = "abcdefghijkl"


@dataclass(frozen=True)
class Request:
    """One CLI call: `python -m mvtop.cli *argv`, run in the work directory."""

    kind: str  # gen, check, continuity, product, mincover, subcover or verify
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)
    save_as: str | None = None  # work-directory file that receives stdout


@dataclass
class Workload:
    name: str
    requests: list[Request]
    vectors: list[tuple[int, tuple[int, ...]]]  # (n, values) samples for core micro-loops
    over_limit: list[Request] = field(default_factory=list)  # known-defect requests, run apart


# -- plain-tuple algebra: sizes workloads and checks outputs ------------------------------


def closure(start, ops, cap: int):
    """Least superset of start closed under the binary ops, or None past cap members.

    Semi-naive order: each new member is combined only with members already
    taken from the queue, itself included.
    """
    seen = set(start)
    queue = list(seen)
    done = 0
    while done < len(queue):
        x = queue[done]
        done += 1
        for j in range(done):
            y = queue[j]
            for op in ops:
                z = op(x, y)
                if z not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(z)
                    queue.append(z)
    return seen


def base_ops(n: int):
    def oplus(a, b):
        return tuple(x + y if x + y < n else n for x, y in zip(a, b))

    def odot(a, b):
        return tuple(x + y - n if x + y > n else 0 for x, y in zip(a, b))

    def meet(a, b):
        return tuple(map(min, a, b))

    return oplus, odot, meet


def join(a, b):
    return tuple(map(max, a, b))


def generated_opens(subbase, k: int, n: int, cap: int):
    """Opens of the topology a subbase generates, as a set of tuples, or None past cap."""
    base = closure(subbase, base_ops(n), cap)
    if base is None:
        return None
    return closure(base | {(0,) * k, (n,) * k}, (join,), cap)


def chain_values(values, n: int) -> set[int]:
    """Values one coordinate takes in the generated topology, 0 and n included."""
    ops = (lambda a, b: min(a + b, n), lambda a, b: max(a + b - n, 0), min, max)
    return closure({0, n, *values}, ops, n + 2)


def is_hausdorff(opens, k: int, n: int) -> bool:
    """Closed form: U_x, the meet of the opens with the top value at x, is open;
    the space is Hausdorff iff the supports of the U_x are pairwise disjoint."""
    supports = []
    for x in range(k):
        u = (n,) * k
        for o in opens:
            if o[x] == n:
                u = tuple(map(min, u, o))
        supports.append({i for i, v in enumerate(u) if v})
    return all(not (supports[x] & supports[y]) for x in range(k) for y in range(x + 1, k))


def zerodim_witness(opens, k: int, n: int):
    """First open, in canonical order, that is not the join of the clopens below it."""
    present = set(opens)
    clopens = [o for o in opens if tuple(n - v for v in o) in present]
    for o in sorted(opens):
        acc = (0,) * k
        for c in clopens:
            if all(a <= b for a, b in zip(c, o)):
                acc = join(acc, c)
        if acc != o:
            return o
    return None


def continuity_witness(opens, images):
    """First open, in canonical order, whose preimage under the self-map is not open."""
    present = set(opens)
    for o in sorted(opens):
        if tuple(o[i] for i in images) not in present:
            return o
    return None


# -- documents ------------------------------------------------------------------------


def _write(workdir: Path, name: str, obj: dict) -> str:
    (workdir / name).write_text(json.dumps(obj), encoding="utf-8")
    return name


def _space(k: int, n: int, key: str, vectors) -> dict:
    return {"chain": n, "points": list(LABELS[:k]), key: [list(v) for v in sorted(vectors)]}


def _vector(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, n) for _ in range(k))


# -- spaces -----------------------------------------------------------------------------

# Random subbases, as (points, chain resolution), are drawn until their
# topology lands in this band of opens.
RANDOM_SPACES = ((6, 2), (5, 4))
RANDOM_BAND = (120, 150)
# Subbases seeded with the crisp one-point sets generate the product of the value
# sets each coordinate reaches, so their opens count is known before any closure;
# each entry is (points, chain resolution, opens).
CRISP_SPACES = ((5, 3, 128), (5, 2, 162))
PRODUCT_BAND = (200, 250)
# A pass draws every space above, and a product, this many times: one pass
# fills most of a run, so a run averages over distinct documents rather than
# repeating the same few.
DRAWS = 2
CHECK_KINDS = ("topology", "hausdorff", "zerodim", "stone")


def _random_subbase(rng: random.Random, k: int, n: int):
    while True:
        members = {_vector(rng, k, n) for _ in range(rng.randint(3, 5))}
        opens = generated_opens(members, k, n, RANDOM_BAND[1])
        if opens is not None and len(opens) >= RANDOM_BAND[0]:
            return members, opens


def _crisp_subbase(rng: random.Random, k: int, n: int, size: int):
    singletons = {tuple(n if i == x else 0 for i in range(k)) for x in range(k)}
    while True:
        members = {_vector(rng, k, n) for _ in range(rng.randint(3, 5))}
        reached = 1
        for x in range(k):
            reached *= len(chain_values({m[x] for m in members}, n))
        if reached == size:
            subbase = singletons | members
            return subbase, generated_opens(subbase, k, n, size)


def _product_factors(rng: random.Random):
    """Two 3-point topologies over the 3-chain whose product lands in PRODUCT_BAND."""
    k, n = 3, 3
    coords = [(i, j) for i in range(k) for j in range(k)]
    while True:
        factors = []
        for _ in range(2):
            members = {_vector(rng, k, n) for _ in range(rng.randint(1, 2))}
            factors.append(generated_opens(members, k, n, 64))
        if None in factors:
            continue
        left, right = factors
        subbase = {tuple(a[i] for i, _ in coords) for a in left}
        subbase |= {tuple(b[j] for _, j in coords) for b in right}
        opens = generated_opens(subbase, k * k, n, PRODUCT_BAND[1])
        if opens is not None and len(opens) >= PRODUCT_BAND[0]:
            labels = [f"({LABELS[i]},{LABELS[j]})" for i, j in coords]
            return left, right, {"chain": n, "points": labels, "opens": [list(o) for o in sorted(opens)]}


def spaces(seed: int, workdir: Path) -> Workload:
    """`gen` on subbase documents, then four checks and a continuity test on each
    output, plus products: closure and full validation do the work."""
    rng = random.Random(f"spaces:{seed}")
    drawn = [(k, n, *_random_subbase(rng, k, n)) for _ in range(DRAWS) for k, n in RANDOM_SPACES]
    for _ in range(DRAWS):
        for k, n, size in CRISP_SPACES:
            drawn.append((k, n, *_crisp_subbase(rng, k, n, size)))
    groups, vectors = [], []
    for d, (k, n, subbase, opens) in enumerate(drawn):
        vectors += [(n, v) for v in subbase]
        requests = []
        sub = _write(workdir, f"s{d}.sub.json", _space(k, n, "subbase", subbase))
        out = f"s{d}.opens.json"
        requests.append(
            Request(
                "gen",
                ("gen", sub),
                {"doc": _space(k, n, "opens", opens), "subbase": sorted(subbase)},
                save_as=out,
            )
        )
        hausdorff = is_hausdorff(opens, k, n)
        zerodim = zerodim_witness(opens, k, n)
        reports = {
            "topology": {"verdict": True},
            "zerodim": {"verdict": zerodim is None}
            | ({} if zerodim is None else {"witness": list(zerodim)}),
            "stone": {
                "verdict": hausdorff and zerodim is None,
                "compact": True,
                "hausdorff": hausdorff,
                "zerodim": zerodim is None,
            },
        }
        for kind in CHECK_KINDS:
            argv = ("check", kind, out)
            if kind == "hausdorff":
                # witnesses are checked for validity, not compared with fixed ones
                expect = {"verdict": hausdorff, "opens": opens, "n": n}
            else:
                expect = {"doc": {"check": kind, **reports[kind]}}
            requests.append(Request("check", argv, expect))
        images = [rng.randrange(k) for _ in range(k)]
        witness = continuity_witness(opens, images)
        mapdoc = _write(workdir, f"s{d}.map.json", {"domain": out, "codomain": out, "map": images})
        report = {"check": "continuity", "verdict": witness is None}
        if witness is not None:
            report["witness"] = list(witness)
        requests.append(Request("continuity", ("continuity", mapdoc), {"doc": report}))
        groups.append(requests)
    for p in range(DRAWS):
        left, right, expected = _product_factors(rng)
        a = _write(workdir, f"p{p}.left.json", _space(3, 3, "opens", left))
        b = _write(workdir, f"p{p}.right.json", _space(3, 3, "opens", right))
        groups.append([Request("product", ("product", a, b), {"doc": expected})])
    # a subbase's checks read the output of its `gen`, so whole groups are shuffled:
    # kinds and sizes spread over the pass, and so does any drift of the host's speed
    rng.shuffle(groups)
    return Workload("spaces", [r for group in groups for r in group], vectors)


# -- covers -------------------------------------------------------------------------------

# One pass: 112 family sizes spread geometrically from 40 to 880 members, the
# range both solvers finish today, each family solved by one of the two
# solvers in turn; points and resolution cycle so that every seed gets the
# same mix.  One request per family doubles the independent draws a pass
# averages over, at the same cost.
FAMILY_SIZES = tuple(round(40 * 22 ** (i / 111)) for i in range(112))
ZERO_SHARE = 1 / 3
# Every covers request carries this node cap, and exit 3 with its one-line
# error is a correct outcome.  Solver effort varies tenfold between families
# of one size, so without a cap a few hard draws would set a seed's figures;
# at this cap about a third of the requests stop there, and they measure the
# cost per node.  The cap sits well above the ~1000-node depth where the
# over-limit families crash today, and low enough that a non-recursive solver
# finishes them or exits 3 in about the time of the other requests.
MAX_NODES = 4_000
# Small families, as (points, chain resolution, members), on which the checks
# also run the exhaustive cover oracles: (n+1)^members stays within their
# work limit.  Each is solved by both solvers and drawn until every point sees
# the top value in some member, so both oracles have an optimum to compare.
SMALL_FAMILIES = ((8, 2, 8), (9, 3, 7), (10, 4, 6))
# Known defect: both solvers recurse once per member, so families above about
# 1000 members raise RecursionError.  They run after the timed passes and are
# reported apart, so the workload's own requests all succeed.
OVER_LIMIT_SIZE = 1201
OVER_LIMIT_FAMILIES = 2


def _family(rng: random.Random, size: int, k: int, n: int) -> set[tuple[int, ...]]:
    members: set[tuple[int, ...]] = set()
    while len(members) < size:
        members.add(tuple(0 if rng.random() < ZERO_SHARE else rng.randint(1, n) for _ in range(k)))
    return members


def _cover_requests(workdir: Path, name: str, k: int, n: int, family, kinds) -> list[Request]:
    doc = _write(workdir, name, {"chain": n, "points": [f"p{i}" for i in range(k)], "family": [list(v) for v in sorted(family)]})
    expect = {"n": n, "family": sorted(family)}
    cap = ("--max-nodes", str(MAX_NODES))
    return [Request(kind, (kind, doc, *cap), expect) for kind in kinds]


def covers(seed: int, workdir: Path) -> Workload:
    """`mincover` or `subcover`, in turn, on bare families, and both on three small
    families: the solvers and the parsing of large documents do the work, with
    no closure and no validation."""
    rng = random.Random(f"covers:{seed}")
    requests, vectors, over_limit = [], [], []
    for i, size in enumerate(FAMILY_SIZES):
        k, n = 8 + i % 5, 2 + i % 3
        family = _family(rng, size, k, n)
        vectors += [(n, v) for v in sorted(family)[:12]]
        kind = ("mincover", "subcover")[i % 2]
        requests += _cover_requests(workdir, f"c{i}.family.json", k, n, family, (kind,))
    for i, (k, n, size) in enumerate(SMALL_FAMILIES):
        family = _family(rng, size, k, n)
        while not all(any(v[x] == n for v in family) for x in range(k)):
            family = _family(rng, size, k, n)
        requests += _cover_requests(workdir, f"t{i}.family.json", k, n, family, ("mincover", "subcover"))
    for i in range(OVER_LIMIT_FAMILIES):
        k, n = 10 + i, 2 + i
        family = _family(rng, OVER_LIMIT_SIZE, k, n)
        over_limit += _cover_requests(workdir, f"o{i}.family.json", k, n, family, ("mincover", "subcover"))
    # sizes ascend with the index: shuffled, the largest families, which make the
    # tail, are spread over the pass, and so is any drift of the host's speed
    rng.shuffle(requests)
    return Workload("covers", requests, vectors, over_limit)


# -- suites ---------------------------------------------------------------------------------

# Cases per request, sized so that each suite computes for about 0.1 s.  The
# brute-force compactness oracle carries three quarters of tychonoff's time,
# in few cases: of 400 cases, half took at most 2 ms, one in forty 0.45-0.7 s,
# and one in two hundred about 4 s and 40 MB (twice the usual peak RSS).  So
# tychonoff gets one case per request: a 4 s case enters about one seed in
# twenty, too few to set the spread of a set of runs.
SUITE_CASES = {
    "algebra": 1600,
    "alexander-claims": 330,
    "continuity": 220,
    "generation": 45,
    "hausdorff-product": 30,
    "lemma1": 400,
    "stone-product": 30,
    "tychonoff": 1,
    "zerodim-product": 200,
}
# As for spaces: one pass fills most of a run.
SUITE_REPEATS = 9


def suites(seed: int, workdir: Path) -> Workload:
    """`verify` over all nine suites with seeds derived from the workload seed:
    generators and oracles do the work, with closure on thousands of tiny inputs."""
    rng = random.Random(f"suites:{seed}")
    requests = []
    for _ in range(SUITE_REPEATS):
        for suite, cases in SUITE_CASES.items():
            s = str(rng.randrange(1_000_000))
            requests.append(
                Request("verify", ("verify", suite, "--seed", s, "--cases", str(cases)), {"suite": suite, "seed": s, "cases": cases})
            )
    vectors = []
    for _ in range(64):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        vectors.append((n, _vector(rng, k, n)))
    return Workload("suites", requests, vectors)


WORKLOADS = {"spaces": spaces, "covers": covers, "suites": suites}
