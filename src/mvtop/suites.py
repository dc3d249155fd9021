"""Randomized, seeded verification suites behind the CLI verify command.

Each suite runs independent cases derived from (seed, case index), so a rerun
with the same parameters reproduces the same report byte for byte.  A case
returns None on success or a failure description; the runner keeps the first
failure as the case found it, unshrunk, and describes an instance only once a
case fails.

This module is the runner.  `SUITES` names each suite's case as
"module:function", and `run_suite` imports that module only when it runs the
suite, so a `verify` request compiles one suite: `suite_algebra`,
`suite_generation`, `suite_continuity`, `suite_alexander`, or `suite_products`,
which holds `tychonoff`, `lemma1` and the three product-property suites.  A
case imports the solvers, maps and oracles it uses.

A run builds its instances through the instance memo of `generators`
(`one_run`, `once`): the sampled closures and acceptance verdicts, the products
of factors, the coordinate ideals, and continuity's codomain, base and
pulled-back topologies.  The property a case checks is computed every time.
"""

from __future__ import annotations

import importlib

from .core import FuzzyFamily, Record
from .generators import case_rng, one_run


class SuiteReport(Record):
    __slots__ = (
        "suite", "seed", "cases", "passed", "failed", "first_failure_case", "first_failure_detail"
    )
    suite: str
    seed: int
    cases: int
    passed: int
    failed: int
    first_failure_case: int | None
    first_failure_detail: str | None

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def render_report(report: SuiteReport) -> str:
    lines = [
        f"suite: {report.suite}",
        f"seed: {report.seed}",
        f"cases: {report.cases}",
        f"passed: {report.passed}",
        f"failed: {report.failed}",
    ]
    if report.failed:
        lines.append(f"first failure: case {report.first_failure_case}")
        lines.append(f"detail: {report.first_failure_detail}")
    lines.append(f"result: {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _vectors(family: FuzzyFamily) -> list[tuple[int, ...]]:
    return [m.values for m in family.members]


SUITES = {
    "algebra": "suite_algebra:case_algebra",
    "generation": "suite_generation:case_generation",
    "continuity": "suite_continuity:case_continuity",
    "tychonoff": "suite_products:case_tychonoff",
    "hausdorff-product": "suite_products:case_hausdorff_product",
    "zerodim-product": "suite_products:case_zerodim_product",
    "stone-product": "suite_products:case_stone_product",
    "alexander-claims": "suite_alexander:case_alexander_claims",
    "lemma1": "suite_products:case_lemma1",
}


def run_suite(name: str, seed: int, cases: int) -> SuiteReport:
    """Run the cases of one suite; the instances they build are memoized for this run only."""
    module, _, function = SUITES[name].partition(":")
    case = getattr(importlib.import_module(f"{__package__}.{module}"), function)
    passed = failed = 0
    first_case = None
    first_detail = None
    with one_run():
        for index in range(cases):
            try:
                detail = case(case_rng(seed, index))
            except Exception as exc:  # a crash is a failed case, not a dead report
                detail = f"unhandled {type(exc).__name__}: {exc}"
            if detail is None:
                passed += 1
            else:
                failed += 1
                if first_case is None:
                    first_case = index
                    first_detail = detail
    return SuiteReport(name, seed, cases, passed, failed, first_case, first_detail)
