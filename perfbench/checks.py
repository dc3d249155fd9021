"""Output checks for benchmark requests, run outside the timed region.

`check` returns None for a correct outcome or a short reason.  A request fails
when a traceback reaches stderr, when its exit code disagrees with the
verdict, `feasible` or `result` in its stdout, or when its output fails the
check of its kind.  Exit 3 counts as correct for a solver request that sets
an explicit node cap, when stderr is the one-line node-cap error for that cap.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from math import comb

from workloads import Request

# Work limits under which a result is also compared with the brute-force oracles.
# The naive closure takes about 0.5-2 s per space here, so it runs on the
# smaller half of the spaces: about 3 s a run.
NAIVE_GEN_MAX_OPENS = 135
ORACLE_MAX_CANDIDATES = 20_000


@dataclass
class Outcome:
    request: Request
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int = 0
    reason: str | None = None  # None when the outcome is correct


def check_outcomes(outcomes: list[Outcome], per_pass: int) -> None:
    """Fill in each outcome's reason.  Later passes must repeat the first byte
    for byte: exit code, stdout and stderr."""
    for i, o in enumerate(outcomes):
        if o.reason is not None:
            continue
        if i >= per_pass:
            first = outcomes[i % per_pass]
            same = (o.exit_code, o.stdout, o.stderr) == (first.exit_code, first.stdout, first.stderr)
            o.reason = first.reason if same else "output differs from the first pass"
            continue
        o.reason = check(o.request, o.exit_code, o.stdout, o.stderr) or oracle_check(o.request)


def failure_counts(outcomes: list[Outcome]) -> Counter[str]:
    return Counter(o.reason for o in outcomes if o.reason is not None)


def digest(outcomes: list[Outcome]) -> str:
    """sha256 of each request's exit code, stdout and stderr, in request order.

    A request that newly stops at a node cap changes it, as does any change
    to the printed results.
    """
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.exit_code} {len(o.stdout)} {len(o.stderr)}\n".encode())
        h.update(o.stdout)
        h.update(o.stderr)
    return h.hexdigest()


def node_cap(request: Request) -> int | None:
    """The `--max-nodes` value a solver request sets, if any."""
    argv = request.argv
    return int(argv[argv.index("--max-nodes") + 1]) if "--max-nodes" in argv else None


def check(request: Request, exit_code: int, stdout: bytes, stderr: bytes) -> str | None:
    err = stderr.decode("utf-8", "replace").strip()
    if "Traceback" in err:
        return "traceback " + err.splitlines()[-1].split(":")[0]
    cap = node_cap(request)
    if exit_code == 3 and cap is not None:
        # the solver stops on the first node past the cap, and says so
        message = rf"error: [\w -]+ search exceeded the node cap \(cap {cap}, reached {cap + 1}\)"
        if stdout or not re.fullmatch(message, err):
            return "exit 3 without the node-cap error"
        return None
    if exit_code not in (0, 1):
        return f"exit {exit_code}"
    text = stdout.decode("utf-8", "replace")
    if request.kind == "verify":
        return _verify(request.expect, exit_code, text)
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return "stdout does not parse"
    if not isinstance(out, dict):
        return "stdout is not an object"
    flag = {"gen": None, "product": None, "mincover": "feasible", "subcover": "feasible"}.get(
        request.kind, "verdict"
    )
    expected_exit = 0 if flag is None or out.get(flag) is True else 1
    if exit_code != expected_exit:
        return f"exit {exit_code} disagrees with the output"
    if "doc" in request.expect:
        return None if out == request.expect["doc"] else "output differs from the expected document"
    return {"check": _hausdorff, "mincover": _mincover, "subcover": _subcover}[request.kind](
        request.expect, out
    )


def oracle_check(request: Request) -> str | None:
    """Compare the expected result with a brute-force oracle where that is cheap.

    The expected documents are computed by the benchmark, so this guards the
    benchmark's own reference; `check` then ties the program's output to it.
    """
    if request.kind != "gen" or len(request.expect["doc"]["opens"]) > NAIVE_GEN_MAX_OPENS:
        return None
    from mvtop.core import Carrier, Chain, FuzzyFamily, FuzzySet
    from mvtop.oracles import naive_generate_opens

    doc = request.expect["doc"]
    carrier, chain = Carrier(tuple(doc["points"])), Chain(doc["chain"])
    subbase = FuzzyFamily.of(
        carrier, chain, (FuzzySet(carrier, chain, v) for v in request.expect["subbase"])
    )
    opens = [list(m.values) for m in naive_generate_opens(subbase).members]
    return None if opens == doc["opens"] else "the naive closure oracle disagrees"


def _verify(expect: dict, exit_code: int, text: str) -> str | None:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    want = {
        "suite": expect["suite"],
        "seed": expect["seed"],
        "cases": str(expect["cases"]),
        "passed": str(expect["cases"]),
        "failed": "0",
        "result": "PASS",
    }
    if exit_code != (0 if fields.get("result") == "PASS" else 1):
        return f"exit {exit_code} disagrees with the output"
    if fields != want:
        return "suite report differs from an all-pass report"
    return None


def _hausdorff(expect: dict, out: dict) -> str | None:
    if out.get("verdict") != expect["verdict"]:
        return "wrong Hausdorff verdict"
    n, opens = expect["n"], expect["opens"]
    if not expect["verdict"]:
        return None if set(out.get("witness", {})) == {"pair"} else "malformed Hausdorff witness"
    witnesses = out.get("witnesses", [])
    k = len(next(iter(opens)))
    if len(witnesses) != k * (k - 1) // 2:
        return "a point pair lacks a Hausdorff witness"
    for w in witnesses:
        first, second = tuple(w["first"]), tuple(w["second"])
        x, y = (ord(label) - ord("a") for label in w["pair"])
        if first not in opens or second not in opens or first[x] != n or second[y] != n:
            return "a Hausdorff witness is not an open with the top value at its point"
        if any(min(a, b) for a, b in zip(first, second)):
            return "a Hausdorff witness pair is not disjoint"
    return None


def _mincover(expect: dict, out: dict) -> str | None:
    n, family = expect["n"], expect["family"]
    if not out["feasible"]:
        covered = all(any(v[x] for v in family) for x in range(len(family[0])))
        return "feasible family reported infeasible" if covered else None
    entries = [(tuple(e["vector"]), e["multiplicity"]) for e in out["entries"]]
    members = set(family)
    if any(v not in members or not 1 <= m <= n for v, m in entries):
        return "certificate entry outside the family or the multiplicity range"
    if sum(m for _, m in entries) != out["total"]:
        return "certificate total is not the sum of its multiplicities"

    def covers(chosen) -> bool:
        return all(sum(m * v[x] for v, m in chosen) >= n for x in range(len(family[0])))

    if not covers(entries):
        return "certificate does not reach the top value everywhere"
    for i, (v, m) in enumerate(entries):
        if covers(entries[:i] + [(v, m - 1)] + entries[i + 1 :]):
            return "certificate total can be lowered"
    if (n + 1) ** len(family) <= ORACLE_MAX_CANDIDATES:
        from mvtop.oracles import exhaustive_minimal_additive_cover

        total, vector = exhaustive_minimal_additive_cover(_family(expect))
        best = [(family[i], m) for i, m in enumerate(vector) if m]
        if (out["total"], entries) != (total, best):
            return "the exhaustive additive-cover oracle disagrees"
    return None


def _subcover(expect: dict, out: dict) -> str | None:
    n, family = expect["n"], expect["family"]
    k = len(family[0])
    if not out["feasible"]:
        covered = all(any(v[x] == n for v in family) for x in range(k))
        return "feasible family reported infeasible" if covered else None
    chosen = [tuple(v) for v in out["family"]]
    if out["size"] != len(chosen) or not set(chosen) <= set(family):
        return "subcover size or members are wrong"

    def covers(sets) -> bool:
        return all(any(v[x] == n for v in sets) for x in range(k))

    if not covers(chosen):
        return "subcover does not reach the top value everywhere"
    if any(covers(chosen[:i] + chosen[i + 1 :]) for i in range(len(chosen))):
        return "subcover has a redundant member"
    if sum(comb(len(family), c) for c in range(len(chosen) + 1)) <= ORACLE_MAX_CANDIDATES:
        from mvtop.oracles import exhaustive_minimal_subcover

        indices = exhaustive_minimal_subcover(_family(expect))
        if sorted(chosen) != [family[i] for i in indices]:
            return "the exhaustive subcover oracle disagrees"
    return None


def _family(expect: dict):
    from mvtop.core import Carrier, Chain, FuzzyFamily, FuzzySet

    family = expect["family"]
    carrier = Carrier(tuple(f"p{i}" for i in range(len(family[0]))))
    chain = Chain(expect["n"])
    return FuzzyFamily.of(carrier, chain, (FuzzySet(carrier, chain, v) for v in family))

