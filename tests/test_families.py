"""Families hold their members packed: construction, the lane helpers, the one
owner of the packing, and planted mutants of the packed representation.

Each mutant is the real function recompiled from its source with one edit, and
only the gate that names it is run against it.
"""

import __future__
import inspect
import itertools
import textwrap
from pathlib import Path

import pytest

import mvtop
import test_core
import test_golden
import test_values_once
from mvtop import Carrier, Chain, FuzzyFamily, FuzzySet, InputError
from mvtop import maps
from mvtop.core import Lanes

AB, CH2 = Carrier(("a", "b")), Chain(2)


def planted(function, old, new):
    """The function recompiled from its source with `old` replaced by `new`,
    in its own module's globals."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    flags = __future__.annotations.compiler_flag  # core's annotations stay unevaluated
    scope = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec", flags=flags), function.__globals__, scope)
    return scope[function.__name__]


def test_a_generator_of_members_gives_the_family_of_the_list():
    a, b = FuzzySet(AB, CH2, (1, 2)), FuzzySet(AB, CH2, (2, 0))
    family = FuzzyFamily(AB, CH2, (s for s in [a, b]))
    assert family == FuzzyFamily(AB, CH2, [a, b]) and family.members == (a, b)
    foreign = FuzzySet(Carrier(("a", "c")), CH2, (2, 0))
    with pytest.raises(InputError, match="family member lives on a different carrier or chain"):
        FuzzyFamily(AB, CH2, (s for s in [a, foreign]))


def test_members_are_built_from_the_ints_on_first_use():
    family = FuzzyFamily(AB, CH2, [FuzzySet(AB, CH2, v) for v in ((2, 0), (0, 1), (2, 0))])
    rebuilt = FuzzyFamily._from_packed(AB, CH2, family.lanes, reversed(family.packed))
    assert rebuilt._members is None and len(rebuilt) == 2
    assert rebuilt.packed == family.packed and rebuilt.present == family.present
    assert rebuilt.members == family.members and rebuilt._members is rebuilt.members
    assert [family.set_of(x) for x in family.packed] == list(family.members)


def test_at_top_names_the_lanes_holding_n():
    for k, n in itertools.product(range(1, 4), range(1, 5)):
        lanes = Lanes(k, n)
        for v in itertools.product(range(n + 1), repeat=k):
            assert lanes.at_top(lanes.pack(v)) == [i for i, x in enumerate(v) if x == n], (k, n, v)


def test_only_core_packs_or_unpacks_lanes():
    package = Path(mvtop.__file__).parent
    offenders = [
        (path.name, token)
        for path in sorted(package.glob("*.py"))
        if path.name != "core.py"
        for token in ("Lanes(", ".pack(", ".unpack(")
        if token in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


# -- planted mutants: each named gate fails -------------------------------------


def test_membership_gate_catches_a_check_that_skips_the_space(monkeypatch):
    # values packed by the family's own lanes, on any carrier or chain
    monkeypatch.setattr(
        FuzzyFamily, "__contains__", lambda self, item: self.lanes.pack(item.values) in self.present
    )
    with pytest.raises(AssertionError):
        test_core.test_family_membership_matches_the_member_set()


@pytest.fixture
def unsorted_ints(monkeypatch):
    """Both constructors keep the ints in the order given: the sort they share is gone."""
    fill = planted(FuzzyFamily._fill, "packed = tuple(sorted(packed))", "packed = tuple(packed)")
    monkeypatch.setattr(FuzzyFamily, "_fill", fill)


def test_lane_family_gate_catches_unsorted_ints(unsorted_ints):
    with pytest.raises(AssertionError):
        test_values_once.test_a_family_from_lanes_equals_the_checked_family()


def test_golden_gen_catches_unsorted_ints(unsorted_ints, tmp_path, monkeypatch):
    with pytest.raises(AssertionError):
        test_golden.test_golden_output("gen", tmp_path, monkeypatch)


def test_ideal_and_filter_cross_check_catches_a_mirrored_lane_unit(monkeypatch):
    # the value is read from the lane at bit s, but the move goes to its mirror
    mirrored = planted(
        maps._order_and_op_closed,
        "x + (step << s)",
        "x + (step << lanes.width * (lanes.size - 1) - s)",
    )
    monkeypatch.setattr(maps, "_order_and_op_closed", mirrored)
    mismatches, _ = test_core.ideal_and_filter_mismatches(41, 150)
    assert mismatches
