"""Planted mutants of the closure, validation, lane and predicate fast paths
and of the cover solvers.

Each mutant is the real function recompiled from its source with one edit.  It
replaces the function wherever a module binds it by name, and only the gate
that names it is run against it: the gate must fail, by a failed assertion.
"""

import sys

import pytest

import test_acceptance
import test_cli
import test_covers
import test_lanes
import test_topology
from mvtop import core, covers, topology
from test_families import planted


def plant(monkeypatch, owner, name, old, new):
    """Bind the mutant of owner.name in its owner and in every mvtop or test
    module that imported the original by name."""
    original = getattr(owner, name)
    mutant = planted(original, old, new)
    monkeypatch.setattr(owner, name, mutant)
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "mvtop" or module_name.startswith("test_"):
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, mutant)


def lane_ops_at_the_edges():
    for k, n in test_lanes.EDGE_SHAPES:
        test_lanes.test_lane_ops_match_chain_ops_at_the_edges(k, n)


SEEDED_GENERATION = test_topology.test_generation_matches_naive_oracle_on_samples
BROKEN_FAMILIES = test_lanes.test_violation_on_broken_families_matches_reference_scan
SEEDED_HAUSDORFF = test_lanes.test_closed_form_hausdorff_matches_the_pair_search_on_seeded_topologies
SOLVER_MINIMA = test_covers.test_solvers_match_exhaustive_minima
SMALL_SCOPE = test_covers.test_both_solvers_match_their_oracles_on_every_small_family

# (id, owner, name, old, new, gate)
MUTANTS = [
    # closure: base_from_subbase loses one of its operations
    ("closure-oplus", topology, "base_from_subbase", "lanes.oplus(x, y), ", "", SEEDED_GENERATION),
    ("closure-odot", topology, "base_from_subbase", "lanes.odot(x, y), ", "", SEEDED_GENERATION),
    # both seeded generation gates miss this one: only the pinned subbase has a
    # meet that oplus, odot and join never reach
    (
        "closure-meet", topology, "base_from_subbase", ", lanes.meet(x, y)", "",
        test_topology.test_generation_reaches_a_meet_that_no_other_operation_reaches,
    ),
    # generation never joins the last base member into the opens
    (
        "closure-last-join", topology, "generate_from_subbase",
        "for b in base.packed:", "for b in base.packed[:-1]:", SEEDED_GENERATION,
    ),
    # validation: topology_violation skips one of its tests
    (
        "violation-join", topology, "topology_violation",
        '("join", lanes.join, members),', "", BROKEN_FAMILIES,
    ),
    (
        "violation-oplus", topology, "topology_violation",
        '("oplus", lanes.oplus, irreducible),', "", BROKEN_FAMILIES,
    ),
    (
        "violation-odot", topology, "topology_violation",
        '("odot", lanes.odot, irreducible),', "", BROKEN_FAMILIES,
    ),
    (
        "violation-zero", topology, "topology_violation",
        "if 0 not in present:", "if False:", BROKEN_FAMILIES,
    ),
    (
        "violation-unit", topology, "topology_violation",
        "if lanes.top not in present:", "if False:", BROKEN_FAMILIES,
    ),
    # predicates
    (
        "hausdorff-adjacent", topology, "check_hausdorff",
        "range(x + 1, size)", "range(x + 2, size)", SEEDED_HAUSDORFF,
    ),
    (
        "base-witness-candidates", topology, "base_witness", "if m not in opens:", "if False:",
        test_lanes.test_base_witness_reports_a_candidate_that_is_not_open,
    ),
    (
        "base-witness-last-open", topology, "base_witness",
        "for x in opens.packed:", "for x in opens.packed[:-1]:",
        test_lanes.test_base_witness_matches_reference_scan,
    ),
    # the unit set, last in canonical order, is always clopen
    (
        "clopens-drop", topology, "clopens",
        "for o in opens if", "for o in opens.members[:-1] if", SEEDED_HAUSDORFF,
    ),
    (
        "large-subbase-short", topology, "large_subbase_witness",
        "range(2, family.chain.n + 1)", "range(2, family.chain.n)", test_cli.test_check_large_subbase,
    ),
    # the lane kernel: a select mask that is not widened from its guard bit
    (
        "lanes-meet", core.Lanes, "meet",
        "(a ^ b) & (g - (g >> self.shift))", "(a ^ b) & g", lane_ops_at_the_edges,
    ),
    (
        "lanes-oplus", core.Lanes, "oplus",
        "(s ^ self.top) & (g - (g >> self.shift))", "(s ^ self.top) & g", lane_ops_at_the_edges,
    ),
    # the solvers' bounds one too large: they prune the optimum
    (
        "mincover-bound-up", covers, "minimal_additive_cover_search",
        "times(later, min(room - 1, n))",
        "room > 1 and times(later, min(room - 2, n))", SOLVER_MINIMA,
    ),
    # too small only enters children that lead nowhere: the answers stay, the node counts move
    (
        "mincover-bound-down", covers, "minimal_additive_cover_search",
        "times(later, min(room - 1, n))", "times(later, min(room, n))",
        test_covers.test_search_results_nodes_and_cap_errors_are_pinned,
    ),
    # a multiple of a suffix join that adds the join again instead of doubling it
    (
        "mincover-multiple", covers, "minimal_additive_cover_search",
        "s, t = lanes.oplus(s, s), t >> 1", "t >>= 1", SMALL_SCOPE,
    ),
    # the residual of a multiple taken as a meet, not as a truncated difference
    (
        "mincover-residual", covers, "minimal_additive_cover_search",
        "lanes.odot(residual, complement)", "lanes.meet(residual, complement)", SMALL_SCOPE,
    ),
    (
        "subcover-bound-up", covers, "minimal_subcover_search",
        "lb = -(-missing.bit_count() // suffix_best[idx])",
        "lb = -(-missing.bit_count() // suffix_best[idx]) + 1", SOLVER_MINIMA,
    ),
    # the tie-break order: exclude-first subcover search, descending multiplicities
    (
        "subcover-exclude-first", covers, "minimal_subcover_search",
        "stack.append((idx + 1, chosen, missing))\n"
        "        stack.append((idx + 1, chosen + (idx,), missing & ~full[idx]))",
        "stack.append((idx + 1, chosen + (idx,), missing & ~full[idx]))\n"
        "        stack.append((idx + 1, chosen, missing))",
        test_covers.test_search_results_nodes_and_cap_errors_are_pinned,
    ),
    (
        "mincover-descending", covers, "minimal_additive_cover_search",
        "for m in range(n + 1):", "for m in range(n, -1, -1):",
        test_acceptance.test_criterion_09_solver_optimality,
    ),
    # the node count: a child pruned with its larger siblings counts one sibling short
    (
        "mincover-batch-short", covers, "minimal_additive_cover_search",
        "nodes += 1 if room > 0 else n + 1 - m", "nodes += 1 if room > 0 else n - m",
        test_covers.test_every_cap_below_the_node_count_stops_the_search_at_the_cap,
    ),
]


@pytest.mark.parametrize("mutant, owner, name, old, new, gate", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_a_planted_mutant_fails_its_gate(monkeypatch, mutant, owner, name, old, new, gate):
    plant(monkeypatch, owner, name, old, new)
    with pytest.raises(AssertionError):
        gate()
