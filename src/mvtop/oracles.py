"""Independent brute-force reference implementations.

These deliberately avoid the shortcuts used by the main code paths: topology
generation alternates one-pass closures instead of closing the base first,
and the cover oracles enumerate multiplicity vectors or subfamilies outright.
The Hausdorff oracle searches every pair of opens per pair of points.  They
back the verification suites, the CLI oracle mode, and the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import FuzzyFamily, FuzzySet
from .covers import CoverCertificate
from .errors import ResourceLimitError
from .topology import SeparationReport, Topology

DEFAULT_ORACLE_OPENS = 15


def _subset_joins(members: set[FuzzySet], zero: FuzzySet) -> set[FuzzySet]:
    """All joins of subfamilies, the empty join included."""
    joins = {zero}
    for m in sorted(members, key=lambda s: s.values):
        joins |= {j.join(m) for j in joins}
    return joins


def naive_generate_opens(subbase: FuzzyFamily) -> FuzzyFamily:
    """Alternate one pass of binary-op closure with all subset joins until stable."""
    carrier, chain = subbase.carrier, subbase.chain
    zero = FuzzySet.zero(carrier, chain)
    one = FuzzySet.one(carrier, chain)
    family = set(subbase.members) | {zero, one}
    while True:
        once = set(family)
        for a in family:
            for b in family:
                once.add(a.oplus(b))
                once.add(a.odot(b))
                once.add(a.meet(b))
        joined = _subset_joins(once, zero) | once
        if joined == family:
            return FuzzyFamily.of(carrier, chain, family)
        family = joined


def naive_check_hausdorff(topology: Topology) -> SeparationReport:
    """Search, per pair of distinct points, a pair of opens with full value at
    the respective point and pointwise-disjoint; the first witness pair in
    canonical order is reported."""
    n = topology.chain.n
    opens = topology.opens.members
    witnesses = []
    for x in range(topology.carrier.size):
        for y in range(x + 1, topology.carrier.size):
            found = None
            for ox in opens:
                if ox.values[x] != n:
                    continue
                for oy in opens:
                    if oy.values[y] != n:
                        continue
                    if ox.meet(oy).is_zero:
                        found = (ox, oy)
                        break
                if found:
                    break
            if found is None:
                return SeparationReport(False, tuple(witnesses), (x, y))
            witnesses.append(((x, y), found))
    return SeparationReport(True, tuple(witnesses), None)


def _sum_reaches_top(
    multiplicities: Iterable[tuple[int, int]], members: Sequence[FuzzySet], size: int, n: int
) -> bool:
    """True iff the pointwise sum of members[i] times m, over the (i, m) pairs,
    reaches n at every one of the size points."""
    acc = [0] * size
    for i, m in multiplicities:
        if m:
            for x, v in enumerate(members[i].values):
                acc[x] += m * v
    return all(a >= n for a in acc)


def exhaustive_additive_subcover_exists(family: FuzzyFamily) -> bool:
    """Scan every multiplicity vector with entries in 0..n for a valid sum."""
    n = family.chain.n
    members = family.members
    size = family.carrier.size
    for vector in itertools.product(range(n + 1), repeat=len(members)):
        if _sum_reaches_top(enumerate(vector), members, size, n):
            return True
    return False


def exhaustive_minimal_additive_cover(
    family: FuzzyFamily,
) -> tuple[int, tuple[int, ...]] | None:
    """Least total multiplicity and, among optima, the lexicographically least vector."""
    n = family.chain.n
    members = family.members
    size = family.carrier.size
    best: tuple[int, tuple[int, ...]] | None = None
    for vector in itertools.product(range(n + 1), repeat=len(members)):
        if _sum_reaches_top(enumerate(vector), members, size, n):
            total = sum(vector)
            if best is None or total < best[0]:
                best = (total, vector)
    return best


def exhaustive_minimal_subcover(family: FuzzyFamily) -> tuple[int, ...] | None:
    """Smallest covering subfamily; first index tuple in combination order."""
    members = family.members
    one = FuzzySet.one(family.carrier, family.chain)
    for count in range(0, len(members) + 1):
        for combo in itertools.combinations(range(len(members)), count):
            acc = FuzzySet.zero(family.carrier, family.chain)
            for i in combo:
                acc = acc.join(members[i])
            if acc == one:
                return combo
    return None


def exhaustive_certificate_for_cover(
    members: list[FuzzySet], chain
) -> CoverCertificate | None:
    """First certificate by increasing total multiplicity, entries capped at n."""
    if not members:
        return None
    n = chain.n
    size = members[0].carrier.size
    for total in range(1, n * len(members) + 1):
        for combo in itertools.combinations_with_replacement(range(len(members)), total):
            counts: dict[int, int] = {}
            for i in combo:
                counts[i] = counts.get(i, 0) + 1
            if any(c > n for c in counts.values()):
                continue
            if _sum_reaches_top(counts.items(), members, size, n):
                return CoverCertificate(
                    tuple((members[i], c) for i, c in sorted(counts.items()))
                )
    return None


@dataclass(frozen=True)
class CompactnessOracleReport:
    """Outcome of enumerating every open cover and searching its certificates."""

    compact: bool
    covers_checked: int
    certificates: tuple[tuple[tuple[int, ...], CoverCertificate], ...]
    counterexample: tuple[FuzzySet, ...] | None = None


def _open_covers(topology: Topology, max_opens: int):
    """Every subfamily of the opens whose join is the unit set, as index lists
    in bitmask order."""
    opens = topology.opens.members
    if len(opens) > max_opens:
        raise ResourceLimitError(
            "compactness oracle refuses a topology this large",
            limit=max_opens,
            reached=len(opens),
        )
    n = topology.chain.n
    size = topology.carrier.size
    for mask in range(1, 1 << len(opens)):
        chosen = [i for i in range(len(opens)) if mask >> i & 1]
        joined = [0] * size
        for i in chosen:
            for x, v in enumerate(opens[i].values):
                if v > joined[x]:
                    joined[x] = v
        if all(v == n for v in joined):
            yield chosen


def brute_force_compactness(
    topology: Topology, *, max_opens: int = DEFAULT_ORACLE_OPENS
) -> CompactnessOracleReport:
    """Enumerate all open covers; each must contain an additive cover."""
    opens = topology.opens.members
    covers_checked = 0
    certificates = []
    for chosen in _open_covers(topology, max_opens):
        covers_checked += 1
        certificate = exhaustive_certificate_for_cover([opens[i] for i in chosen], topology.chain)
        if certificate is None:
            return CompactnessOracleReport(
                False, covers_checked, tuple(certificates), tuple(opens[i] for i in chosen)
            )
        certificates.append((tuple(chosen), certificate))
    return CompactnessOracleReport(True, covers_checked, tuple(certificates), None)


def brute_force_strong_compactness(
    topology: Topology, *, max_opens: int = DEFAULT_ORACLE_OPENS
) -> CompactnessOracleReport:
    """Enumerate all open covers; each must contain a finite covering subfamily."""
    opens = topology.opens.members
    covers_checked = 0
    for chosen in _open_covers(topology, max_opens):
        covers_checked += 1
        # every enumerated cover is finite, so it is its own finite subcover;
        # re-check the covering condition to execute the definition honestly
        subfamily = FuzzyFamily.of(
            topology.carrier, topology.chain, (opens[i] for i in chosen)
        )
        if not subfamily.join().is_one:
            return CompactnessOracleReport(
                False, covers_checked, (), tuple(opens[i] for i in chosen)
            )
    return CompactnessOracleReport(True, covers_checked, (), None)


def term_witness_exists(args, point: int, family: FuzzyFamily) -> int | None:
    """First argument index that is in the family and positive at the point."""
    for j, a in enumerate(args):
        if a in family and a.values[point] > 0:
            return j
    return None
