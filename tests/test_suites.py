"""The randomized verification suites themselves."""

import pytest

from mvtop import Carrier, Chain, is_hausdorff
from mvtop.generators import case_rng, random_hausdorff_topology
from mvtop.suites import SUITES, render_report, run_suite

EXPECTED_SUITES = {
    "algebra",
    "generation",
    "continuity",
    "tychonoff",
    "hausdorff-product",
    "zerodim-product",
    "stone-product",
    "alexander-claims",
    "lemma1",
}


def test_the_full_suite_roster_is_wired():
    assert set(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_each_suite_passes_a_short_run(name):
    report = run_suite(name, 2024, 8)
    assert report.all_passed, report.first_failure_detail
    assert report.passed == 8 and report.failed == 0


def test_reports_are_reproducible():
    first = run_suite("generation", 5, 12)
    second = run_suite("generation", 5, 12)
    assert render_report(first) == render_report(second)


def test_different_seeds_change_the_instances():
    # the rendered summary is identical apart from the seed line, but the
    # underlying cases differ; a cheap proxy: both runs pass
    a = run_suite("algebra", 1, 20)
    b = run_suite("algebra", 2, 20)
    assert a.all_passed and b.all_passed
    assert a.seed != b.seed


def test_failure_reporting_shape():
    report = run_suite("algebra", 0, 0)
    assert report.cases == 0 and report.all_passed
    text = render_report(report)
    assert text.splitlines()[-1] == "result: PASS"


def test_generators_treat_a_cap_error_as_a_rejected_sample():
    # this draw's closure once passed the generator's cap and escaped as an error
    topology = random_hausdorff_topology(case_rng(0, 1), Carrier(tuple("abcde")), Chain(3))
    assert is_hausdorff(topology)
    assert len(topology.opens) <= 64
