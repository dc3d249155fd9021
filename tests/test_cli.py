"""CLI subcommands: verdicts, exit codes, and deterministic output."""

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvtop import cli
from mvtop.cli import main
from mvtop.suites import SUITES


def run_cli(args, stdin_text=None):
    out = io.StringIO()
    err = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def doc(obj):
    return json.dumps(obj)


HALF = {"chain": 2, "points": ["x"], "subbase": [[1]]}
DISCRETE = {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [0, 1], [1, 0], [1, 1]]}
INDISCRETE = {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [1, 1]]}


# -- gen ---------------------------------------------------------------------------


def test_gen_generates_opens():
    code, out, _ = run_cli(["gen", "-"], doc(HALF))
    assert code == 0
    assert json.loads(out) == {"chain": 2, "points": ["x"], "opens": [[0], [1], [2]]}


def test_gen_empty_subbase_gives_indiscrete():
    code, out, _ = run_cli(["gen", "-"], doc({"chain": 2, "points": ["a", "b"], "subbase": []}))
    assert code == 0
    assert json.loads(out)["opens"] == [[0, 0], [2, 2]]


def test_gen_is_idempotent_on_its_own_output():
    code, out, _ = run_cli(["gen", "-"], doc(HALF))
    regenerated = json.loads(out)
    regenerated["subbase"] = regenerated.pop("opens")
    code2, out2, _ = run_cli(["gen", "-"], doc(regenerated))
    assert code2 == 0
    assert out2 == out


def test_gen_malformed_input_exits_2():
    code, _, err = run_cli(["gen", "-"], "{broken")
    assert code == 2
    assert "error：" not in err  # plain ascii message
    assert "error:" in err


def test_gen_cap_breach_exits_3():
    code, _, err = run_cli(["gen", "--max-opens", "2", "-"], doc(HALF))
    assert code == 3
    assert "cap" in err
    # the seeded 0 and 1 count against the cap like every other open
    crisp = {"chain": 1, "points": ["a", "b"], "subbase": [[1, 0]]}
    code, out, err = run_cli(["gen", "--max-opens", "1", "-"], doc(crisp))
    assert (code, out) == (3, "")
    assert err.endswith("(cap 1, reached 2)\n")


# -- check -------------------------------------------------------------------------


def test_check_stone_on_discrete_space():
    code, out, _ = run_cli(["check", "stone", "-"], doc(DISCRETE))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["compact"] and report["hausdorff"] and report["zerodim"]


def test_check_hausdorff_failure_gives_pair_witness():
    code, out, _ = run_cli(["check", "hausdorff", "-"], doc(INDISCRETE))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["witness"]["pair"] == ["a", "b"]


FUZZY_HAUSDORFF = {
    "chain": 2,
    "points": ["a", "b", "c"],
    "opens": [
        [0, 0, 0], [0, 0, 2], [0, 2, 0], [0, 2, 2], [1, 0, 0], [1, 0, 2],
        [1, 2, 0], [1, 2, 2], [2, 0, 0], [2, 0, 2], [2, 2, 0], [2, 2, 2],
    ],
}


def test_check_hausdorff_witnesses_on_a_fuzzy_space_are_byte_exact():
    code, out, _ = run_cli(["check", "hausdorff", "-"], doc(FUZZY_HAUSDORFF))
    assert code == 0
    witnesses = [
        (["a", "b"], [2, 0, 0], [0, 2, 0]),
        (["a", "c"], [2, 0, 0], [0, 0, 2]),
        (["b", "c"], [0, 2, 0], [0, 0, 2]),
    ]
    expected = {
        "check": "hausdorff",
        "verdict": True,
        "witnesses": [
            {"pair": pair, "first": first, "second": second}
            for pair, first, second in witnesses
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_check_compact_with_and_without_oracle_agree():
    for space in (DISCRETE, INDISCRETE):
        plain_code, plain_out, _ = run_cli(["check", "compact", "-"], doc(space))
        oracle_code, oracle_out, _ = run_cli(
            ["check", "compact", "--oracle", "-"], doc(space)
        )
        assert plain_code == oracle_code == 0
        assert json.loads(plain_out)["verdict"] == json.loads(oracle_out)["verdict"] is True


def test_check_strong_compact_oracle():
    code, out, _ = run_cli(["check", "strong-compact", "--oracle", "-"], doc(DISCRETE))
    assert code == 0
    assert json.loads(out)["verdict"] is True


@pytest.mark.parametrize(
    "args, message",
    [
        (["hausdorff", "--max-opens", "1"], "--max-opens bounds the brute-force oracle"),
        (["hausdorff", "--oracle"], "--oracle applies to compact and strong-compact"),
    ],
    ids=["max-opens without oracle", "oracle on hausdorff"],
)
def test_check_refuses_flags_it_would_ignore(tmp_path, args, message):
    (tmp_path / "space.json").write_text(doc(DISCRETE), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "mvtop.cli", "check", *args, "space.json"],
        capture_output=True, cwd=tmp_path, env=env, timeout=60, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_check_topology_detects_violations():
    bad = {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [0, 1], [1, 0]]}
    code, out, _ = run_cli(["check", "topology", "-"], doc(bad))
    assert code == 1
    assert "witness" in json.loads(out)


def test_check_zerodim_reports_first_open_not_joined_by_clopens():
    space = {"chain": 2, "points": ["a", "b"], "opens": [[0, 0], [0, 2], [2, 2]]}
    code, out, _ = run_cli(["check", "zerodim", "-"], doc(space))
    assert code == 1
    assert out == (
        '{\n  "check": "zerodim",\n  "verdict": false,\n  "witness": [\n    0,\n    2\n  ]\n}\n'
    )
    code, out, _ = run_cli(["check", "zerodim", "-"], doc(DISCRETE))
    assert code == 0
    assert json.loads(out) == {"check": "zerodim", "verdict": True}


def test_check_large_subbase():
    code, out, _ = run_cli(
        ["check", "large-subbase", "-"], doc({"chain": 2, "points": ["x"], "subbase": [[1]]})
    )
    assert code == 1
    assert json.loads(out)["witness"]["missing"] == [2]
    code2, _, _ = run_cli(
        ["check", "large-subbase", "-"],
        doc({"chain": 2, "points": ["x"], "subbase": [[1], [2]]}),
    )
    assert code2 == 0
    # the witness is the first member, then the least multiplicity, whose multiple is missing
    space = {"chain": 4, "points": ["x", "y"], "subbase": [[1, 0], [2, 0], [4, 0]]}
    code3, out3, _ = run_cli(["check", "large-subbase", "-"], doc(space))
    assert code3 == 1
    assert out3 == (
        '{\n  "check": "large-subbase",\n  "verdict": false,\n  "witness": {\n'
        '    "member": [\n      1,\n      0\n    ],\n    "multiplicity": 3,\n'
        '    "missing": [\n      3,\n      0\n    ]\n  }\n}\n'
    )


def test_check_requires_opens_for_topology_checks():
    code, _, err = run_cli(["check", "compact", "-"], doc(HALF))
    assert code == 2
    assert "opens" in err


def test_check_unknown_kind_exits_2():
    code, _, _ = run_cli(["check", "banana", "-"], doc(DISCRETE))
    assert code == 2


# -- product -----------------------------------------------------------------------


def test_product_of_two_discrete_spaces(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(doc(DISCRETE), encoding="utf-8")
    code, out, _ = run_cli(["product", str(path), str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["points"] == ["(a,a)", "(a,b)", "(b,a)", "(b,b)"]
    assert len(report["opens"]) == 16


def test_product_subbase_only(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(doc(DISCRETE), encoding="utf-8")
    code, out, _ = run_cli(["product", "--subbase-only", str(path), str(path)])
    assert code == 0
    report = json.loads(out)
    assert "subbase" in report and "opens" not in report
    # preimages of factor opens along both projections, deduplicated
    assert [0, 0, 0, 0] in report["subbase"]
    assert [1, 1, 1, 1] in report["subbase"]
    assert [1, 1, 0, 0] in report["subbase"]
    assert [1, 0, 1, 0] in report["subbase"]


def test_product_single_factor_is_identity_modulo_relabeling(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(doc(DISCRETE), encoding="utf-8")
    code, out, _ = run_cli(["product", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["points"] == ["(a)", "(b)"]
    assert report["opens"] == DISCRETE["opens"]


def test_product_cap_error_reports_one_past_the_cap(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(doc(DISCRETE), encoding="utf-8")
    code, out, err = run_cli(["product", "--max-opens", "1", str(path), str(path)])
    assert (code, out) == (3, "")
    assert err == "error: base closure exceeded the size cap (cap 1, reached 2)\n"


def test_product_chain_mismatch_exits_2(tmp_path):
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    p1.write_text(doc(DISCRETE), encoding="utf-8")
    p2.write_text(doc({"chain": 2, "points": ["x"], "opens": [[0], [2]]}), encoding="utf-8")
    code, _, err = run_cli(["product", str(p1), str(p2)])
    assert code == 2
    assert "chain" in err


# -- cover solvers -----------------------------------------------------------------


def test_mincover_reports_entries_and_total():
    fam = {"chain": 2, "points": ["a", "b"], "family": [[1, 1], [2, 0]]}
    code, out, _ = run_cli(["mincover", "-"], doc(fam))
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] is True
    assert report["entries"] == [{"vector": [1, 1], "multiplicity": 2}]
    assert report["total"] == 2


def test_mincover_unit_family():
    fam = {"chain": 2, "points": ["a", "b"], "family": [[2, 2]]}
    code, out, _ = run_cli(["mincover", "-"], doc(fam))
    assert code == 0
    assert json.loads(out)["total"] == 1


def test_mincover_infeasible_exits_1():
    fam = {"chain": 2, "points": ["a", "b"], "family": [[0, 2]]}
    code, out, _ = run_cli(["mincover", "-"], doc(fam))
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_subcover_picks_smallest_family():
    fam = {"chain": 1, "points": ["a", "b"], "family": [[1, 0], [0, 1], [1, 1]]}
    code, out, _ = run_cli(["subcover", "-"], doc(fam))
    assert code == 0
    report = json.loads(out)
    assert report["family"] == [[1, 1]]
    assert report["size"] == 1


def test_subcover_infeasible_exits_1():
    fam = {"chain": 2, "points": ["a", "b"], "family": [[1, 2]]}
    code, out, _ = run_cli(["subcover", "-"], doc(fam))
    assert code == 1


@pytest.mark.parametrize("cap", [[], ["--max-nodes", "4000"]])
def test_subcover_on_a_deep_family_exits_cleanly(tmp_path, cap):
    # 1201 members: deeper than the interpreter's recursion limit, so a
    # search that recursed once per member crashed with a traceback here
    rng = random.Random(1)
    vectors = set()
    while len(vectors) < 1201:
        vectors.add(tuple(0 if rng.random() < 0.3 else rng.randint(1, 2) for _ in range(10)))
    path = tmp_path / "deep.family.json"
    path.write_text(doc({"chain": 2, "points": [f"p{i}" for i in range(10)], "family": sorted(vectors)}))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "mvtop.cli", "subcover", *cap, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode in (0, 3)
    assert "Traceback" not in proc.stderr


NOT_UTF8 = b"\xff\xfe{}"


HUGE_CHAIN = '{"chain": ' + "9" * 5000 + ', "points": ["a"], "subbase": []}'


SPACE = doc({"chain": 1, "points": ["a"], "opens": [[0], [1]]})
REF = "domain space reference"
INTEGER = "has an integer literal with too many digits"
NESTING = "is not valid JSON: maximum recursion depth"
SYNTAX = "is not valid JSON: Expecting value"


# (argv, stdin, start of the one stderr line after "error: "): a file, stdin
# and a space reference go through one reader and fail the same way
READ_FAILURES = {
    "file": (["check", "topology", "bad.json"], None, "cannot read 'bad.json': 'utf-8' codec"),
    "space reference": (["continuity", "bad.map.json"], None, f"cannot read {REF} 'bad.json': 'utf-8'"),
    "stdin": (["check", "topology", "-"], NOT_UTF8, "cannot read '-': 'utf-8' codec"),
    "deep nesting": (["subcover", "deep.json"], None, f"'deep.json' {NESTING}"),
    "deep nesting stdin": (["subcover", "-"], b"[" * 100000, f"'-' {NESTING}"),
    "deep nesting reference": (["continuity", "deep.map.json"], None, f"{REF} 'deep.json' {NESTING}"),
    "huge integer": (["gen", "huge.json"], None, f"'huge.json' {INTEGER}"),
    "huge integer stdin": (["gen", "-"], HUGE_CHAIN.encode(), f"'-' {INTEGER}"),
    "huge integer reference": (["continuity", "huge.map.json"], None, f"{REF} 'huge.json' {INTEGER}"),
    "missing file": (["gen", "missing.json"], None, "cannot read 'missing.json': [Errno 2]"),
    "missing reference": (["continuity", "missing.map.json"], None, f"cannot read {REF} 'missing.json': [Errno 2]"),
    "bad JSON": (["gen", "broken.json"], None, f"'broken.json' {SYNTAX}"),
    "bad JSON stdin": (["gen", "-"], b'{"chain": ', f"'-' {SYNTAX}"),
    "bad JSON reference": (["continuity", "broken.map.json"], None, f"{REF} 'broken.json' {SYNTAX}"),
    "NUL reference": (["continuity", "nul.map.json"], None, f"cannot read {REF} 'a\\x00b': embedded null byte"),
    # a reference named - is a file name: stdin holds a valid space and stays unread
    "dash reference": (["continuity", "dash.map.json"], SPACE.encode(), f"cannot read {REF} '-': [Errno 2]"),
}


@pytest.mark.parametrize("case", list(READ_FAILURES))
def test_undecodable_and_deeply_nested_input_exits_2(tmp_path, case):
    (tmp_path / "bad.json").write_bytes(NOT_UTF8)
    (tmp_path / "deep.json").write_text("[" * 100000)
    (tmp_path / "huge.json").write_text(HUGE_CHAIN)
    (tmp_path / "broken.json").write_text('{"chain": ')
    for ref in ("bad.json", "deep.json", "huge.json", "missing.json", "broken.json", "-", "a\0b"):
        map_doc = {"domain": ref, "codomain": ref, "map": [0]}
        stem = {"-": "dash", "a\0b": "nul"}.get(ref, ref.removesuffix(".json"))
        (tmp_path / f"{stem}.map.json").write_text(doc(map_doc))
    args, stdin, message = READ_FAILURES[case]
    env = {
        **os.environ,
        "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
        "PYTHONIOENCODING": "utf-8:strict",  # stdin decodes strictly, as under a UTF-8 locale
    }
    proc = subprocess.run(
        [sys.executable, "-m", "mvtop.cli", *args],
        input=stdin, capture_output=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert "set_int_max_str_digits" not in lines[0]


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (
            ["subcover", "-"],
            {"chain": 2, "points": ["a"], "family": [[1.5]]},
            "1.5 is not an element of the chain 0..2",
        ),
        (
            ["check", "topology", "-"],
            {"chain": 1, "points": ["a"], "opens": [[0], [True]]},
            "True is not an element of the chain 0..1",
        ),
        (
            ["continuity", "-"],
            {"domain": INDISCRETE, "codomain": INDISCRETE, "map": [0, "x"]},
            "'x' is not a valid codomain index",
        ),
        (
            ["gen", "-"],
            {"chain": "2", "points": ["a"], "subbase": []},
            "chain resolution must be an integer >= 1, got '2'",
        ),
        (
            ["subcover", "-"],
            {"chain": 1, "points": ["a", 7], "family": []},
            "carrier points must be strings",
        ),
        (
            ["gen", "-"],
            {"chain": 1, "points": "ab", "subbase": []},
            "space document points must be a list of strings",
        ),
    ],
    ids=["fraction", "bool", "map index", "chain", "point", "points string"],
)
def test_bad_values_and_map_indices_name_the_constructor_check(argv, document, message):
    code, out, err = run_cli(argv, doc(document))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# -- metric ------------------------------------------------------------------------


METRIC = {"chain": 2, "points": ["a", "b"], "dist": [[0, 1], [1, 0]]}


def test_metric_generates_topology():
    code, out, _ = run_cli(["metric", "-"], doc(METRIC))
    assert code == 0
    report = json.loads(out)
    assert "opens" in report
    assert [2, 0] in report["opens"] and [0, 2] in report["opens"]


def test_metric_subbase_only_lists_balls():
    code, out, _ = run_cli(["metric", "--subbase-only", "-"], doc(METRIC))
    assert code == 0
    report = json.loads(out)
    assert [1, 0] in report["subbase"]
    assert [2, 2] in report["subbase"]


def test_metric_rejects_invalid_matrix():
    bad = {"chain": 2, "points": ["a", "b"], "dist": [[0, 1], [2, 0]]}
    code, _, err = run_cli(["metric", "-"], doc(bad))
    assert code == 2
    assert "symmetric" in err


# -- continuity ---------------------------------------------------------------------


def test_continuity_verdicts():
    cont = {
        "domain": INDISCRETE,
        "codomain": INDISCRETE,
        "map": [0, 0],
    }
    code, out, _ = run_cli(["continuity", "-"], doc(cont))
    assert code == 0
    assert json.loads(out)["verdict"] is True

    broken = {
        "domain": INDISCRETE,
        "codomain": DISCRETE,
        "map": [0, 1],
    }
    code2, out2, _ = run_cli(["continuity", "-"], doc(broken))
    assert code2 == 1
    assert json.loads(out2)["witness"] == [0, 1]


# -- verify -------------------------------------------------------------------------


def test_verify_is_deterministic_and_passes():
    code, out, _ = run_cli(["verify", "algebra", "--seed", "42", "--cases", "1000"])
    assert code == 0
    assert "passed: 1000" in out
    assert "result: PASS" in out
    code2, out2, _ = run_cli(["verify", "algebra", "--seed", "42", "--cases", "1000"])
    assert out2 == out


def test_verify_unknown_suite_exits_2():
    code, out, err = run_cli(["verify", "nonsense"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown suite 'nonsense'; choose from ")
    assert all(name in lines[0] for name in SUITES)


def test_importing_the_cli_leaves_the_verification_stack_unloaded():
    # only verify and check --oracle need the suites, generators and oracles
    probe = (
        "import sys, mvtop.cli; "
        "print([m for m in ('mvtop.suites', 'mvtop.generators', 'mvtop.oracles') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--max-opens", "0", "-"],
        ["gen", "--max-opens", "-1", "-"],
        ["product", "--max-opens", "0", "-"],
        ["metric", "--max-opens", "-5", "-"],
        ["check", "compact", "--oracle", "--max-opens", "0", "-"],
        ["mincover", "--max-nodes", "0", "-"],
        ["subcover", "--max-nodes", "-1", "-"],
        ["verify", "algebra", "--cases", "0"],
        ["verify", "algebra", "--cases", "-3"],
    ],
)
def test_nonpositive_caps_and_case_counts_are_usage_errors(args):
    code, out, err = run_cli(args, doc(HALF))
    assert code == 2
    assert out == ""
    flag = next(a for a in args if a.startswith("--max") or a == "--cases")
    value = args[args.index(flag) + 1]
    expected = f"error: argument {flag}: must be an integer >= 1, got {value!r}"
    assert err.splitlines()[-1].endswith(expected)


def test_usage_error_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_document_caps_reject_max_nodes():
    space = {"chain": 2, "points": ["x"], "subbase": [[1]], "caps": {"max_nodes": 5}}
    code, out, err = run_cli(["gen", "-"], doc(space))
    assert code == 2
    assert out == ""
    assert err == "error: caps has unknown fields: max_nodes\n"


# -- fuzzing ------------------------------------------------------------------------

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.sampled_from([1.5, "1/2", "p0", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
FAULTS = ["none", "none", "none", "drop", "add", "junk", "value", "flag", "cut"]


def labels(k):
    return [f"p{i}" for i in range(k)]


@st.composite
def vectors(draw, n, k):
    return draw(st.lists(st.lists(st.integers(0, n), min_size=k, max_size=k), max_size=8))


@st.composite
def space_objects(draw):
    """A space on at most 4 points with at most 8 vectors; opens are often a real topology."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    members = draw(vectors(n, k))
    kind = draw(st.sampled_from(["opens", "subbase"]))
    if kind == "opens":
        subbase = {"chain": n, "points": labels(k), "subbase": members[: draw(st.integers(0, 2))]}
        code, out, _ = run_cli(["gen", "--max-opens", "8", "-"], doc(subbase))
        if code == 0 and draw(st.booleans()):
            members = json.loads(out)["opens"]
        else:
            members = [[0] * k, [n] * k] + members[:6]
    return {"chain": n, "points": labels(k), kind: members}


COMMANDS = ["gen", *(f"check {kind}" for kind in cli.CHECK_KINDS), "product", "mincover"]
COMMANDS += ["subcover", "metric", "continuity", "verify"]


@st.composite
def cli_calls(draw, command):
    """An argv naming files, the texts of those files, and at most one fault:
    a field dropped, added or replaced by junk, a value off its range, a bad
    flag, or the main document cut short."""
    fault = draw(st.sampled_from(FAULTS))
    bad = fault == "value"
    space = draw(space_objects())
    if bad and draw(st.booleans()):  # a value off the chain, or a vector of the wrong length
        kind = "opens" if "opens" in space else "subbase"
        space[kind] = space[kind][:7] + [draw(st.lists(st.integers(-1, 4), max_size=5))]
    files = {"space.json": space}
    cap = draw(st.sampled_from(["0", "x", "-3"] if fault == "flag" else ["1", "2", "8", "64"]))
    if command == "gen":
        argv = ["gen", "space.json", "--max-opens", cap]
    elif command.startswith("check"):
        kind = "bogus" if fault == "flag" and draw(st.booleans()) else command.split()[1]
        argv = ["check", kind, "space.json"]
        if kind in ("compact", "strong-compact") or fault == "flag":
            argv += draw(st.sampled_from([[], ["--oracle"], ["--oracle", "--max-opens", "4"]]))
    elif command == "product":
        files["other.json"] = draw(space_objects())
        argv = ["product", "space.json", "other.json", "--max-opens", cap]
        argv += draw(st.sampled_from([[], ["--subbase-only"]]))
    elif command in ("mincover", "subcover"):
        n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        members = draw(vectors(n, k))
        if bad:
            members = members[:7] + [[n + 1] * k]
        files["family.json"] = {"chain": n, "points": labels(k), "family": members}
        argv = [command, "family.json", "--max-nodes", "-3" if fault == "flag" else "50"]
    elif command == "metric":
        k = draw(st.integers(1, 4))
        distance = st.integers(0, 3) | st.sampled_from(["1/2", "3/2"])
        if bad:
            distance |= st.sampled_from(["1/0", -1, "x"])
        rows = draw(st.lists(st.lists(distance, min_size=k, max_size=k), min_size=k, max_size=k))
        rows = [[0 if i == j else d for j, d in enumerate(row)] for i, row in enumerate(rows)]
        if not bad:
            rows = [[max(d, rows[j][i], key=Fraction) for j, d in enumerate(row)] for i, row in enumerate(rows)]
        obj = {"chain": draw(st.integers(1, 3)), "points": labels(k), "dist": rows}
        if draw(st.booleans()):
            obj["radii"] = draw(st.lists(distance.filter(lambda d: d != 0), max_size=3))
        files["metric.json"] = obj
        argv = ["metric", "metric.json", "--max-opens", cap]
        argv += draw(st.sampled_from([[], ["--subbase-only"]]))
    elif command == "continuity":
        side = st.sampled_from(["space.json", "missing.json" if bad else "space.json"]) | space_objects()
        domain, codomain = draw(side), draw(side)
        points, size = (len((space if isinstance(s, str) else s)["points"]) for s in (domain, codomain))
        images = st.integers(-1, size) if bad else st.integers(0, size - 1)
        map_size = points + draw(st.integers(-1, 1)) if bad else points
        images = draw(st.lists(images, min_size=map_size, max_size=map_size))
        files["map.json"] = {"domain": domain, "codomain": codomain, "map": images}
        argv = ["continuity", "map.json"]
    else:
        suite = draw(st.sampled_from(sorted(SUITES) + (["bogus"] if bad else [])))
        argv = ["verify", suite, "--seed", str(draw(st.integers(-5, 10**6))), "--cases", cap]
    target = next((a for a in reversed(argv) if a in files), "space.json")
    if fault in ("drop", "add", "junk"):
        obj = dict(files[target])
        key = draw(st.sampled_from(sorted(obj)))
        if fault == "drop":
            del obj[key]
        elif fault == "add":
            obj["extra"] = draw(JUNK)
        else:
            obj[key] = draw(JUNK)
        files[target] = obj
    texts = {name: doc(obj) for name, obj in files.items()}
    if fault == "cut":
        texts[target] = texts[target][: draw(st.integers(0, len(texts[target]) - 1))]
    return argv, texts


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_keeps_the_exit_code_contract_on_drawn_documents(command):
    """Each subcommand and check kind, on drawn malformed and near-valid
    documents (at most 4 points and 8 vectors), returns 0-3, lets no exception
    escape and repeats its exact output on a rerun.

    Outside this range a known defect remains: `mincover` on a family of more
    than about 1000 members still raises RecursionError.
    """

    @settings(deadline=None)
    @given(cli_calls(command))
    @example((["gen", "space.json"], {"space.json": HUGE_CHAIN}))  # a 5000-digit literal
    def contract_holds(call):
        argv, files = call
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            argv = [str(Path(tmp, a)) if a in files else a for a in argv]
            first = run_cli(argv)
            assert first[0] in (0, 1, 2, 3)
            assert run_cli(argv) == first

    contract_holds()
