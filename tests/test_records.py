"""The value classes keep one contract: fields by position, value semantics.

A `Record` takes every field by position and nothing else.  One instance of
each class, built afresh, must keep its repr, equal a rebuilt twin, differ
from a changed twin, keep its hash, survive copies and pickles, and refuse
assignment.  The figures were recorded while the classes were still built by
`dataclasses`, and the records still match them, except Topology's, recorded
again when it came to hold its opens alone, SpaceDocument's and MapDocument's,
recorded again when a space document came to hold its chain and points only in
its family, and ProductSpace's, recorded when it became a record and again
when it stopped storing its points' coordinates beside its projections.
Hashes go through a fresh interpreter with PYTHONHASHSEED=0, so that string
hashes repeat; Python 3.11 changed the string hash from SipHash-2-4 to SipHash-1-3, so
each hash is recorded twice, under 3.11.7 and under 3.10.13, and compared with
the one for the running interpreter.  A Term's hash involves hash(None), which
differs between runs before Python 3.12, so for a Term only its agreement with
the twin's is recorded.
"""

import copy
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mvtop
from mvtop import (
    Carrier,
    Chain,
    CoverCertificate,
    FuzzyFamily,
    FuzzyPoint,
    FuzzySet,
    MetricInstance,
    PointMap,
    ProductSubcover,
    Term,
    Topology,
)
from mvtop.core import Record
from mvtop.covers import AdditiveCoverSearch, SubcoverSearch
from mvtop.documents import MapDocument, SpaceDocument
from mvtop.metric import MetricDocument
from mvtop.oracles import CompactnessOracleReport
from mvtop.product import UniversalPropertyReport, product
from mvtop.suites import SuiteReport
from mvtop.topology import SeparationReport


def carrier(*points):
    return Carrier(points or ("a", "b"))


def fs(*values):
    return FuzzySet(carrier(), Chain(2), values)


def family(*vectors):
    return FuzzyFamily(carrier(), Chain(2), tuple(fs(*v) for v in vectors))


def space(name="s", caps=None):
    return SpaceDocument("opens", family((0, 0), (2, 2)), name, caps or {})


def metric(d=Fraction(1, 2)):
    return MetricInstance(carrier(), Chain(2), ((Fraction(0), d), (d, Fraction(0))))


def cert(k=1):
    return CoverCertificate(((fs(2, 2), k), (fs(1, 0), 1)))


def swap():
    return PointMap(carrier(), carrier(), (1, 0))


# class name -> (build an instance, build a changed twin)
CASES = {
    "Chain": (lambda: Chain(3), lambda: Chain(4)),
    "Carrier": (lambda: carrier(), lambda: carrier("a", "c")),
    "FuzzySet": (lambda: fs(1, 2), lambda: fs(2, 1)),
    "PointMap": (swap, lambda: PointMap(carrier(), carrier(), (0, 0))),
    "FuzzyFamily": (lambda: family((2, 2), (0, 1), (0, 1)), lambda: family((2, 2))),
    "Topology": (
        lambda: Topology(family((0, 0), (2, 2))),
        lambda: Topology(family((0, 0), (0, 2), (2, 2))),
    ),
    "SeparationReport": (
        lambda: SeparationReport(False, (((0, 1), (fs(2, 0), fs(0, 2))),), (1, 2)),
        lambda: SeparationReport(True, (((0, 1), (fs(2, 0), fs(0, 2))),), None),
    ),
    "FuzzyPoint": (lambda: FuzzyPoint(1, 2), lambda: FuzzyPoint(0, 2)),
    "MetricInstance": (metric, lambda: metric(Fraction(1))),
    "SpaceDocument": (space, lambda: space(caps={"max_opens": 4})),
    "MapDocument": (
        lambda: MapDocument(swap(), space(), space("t"), None),
        lambda: MapDocument(swap(), space(), space("t"), "m"),
    ),
    "MetricDocument": (
        lambda: MetricDocument(metric(), (FuzzyPoint(0, 1),), (Fraction(3, 2),), "d"),
        lambda: MetricDocument(metric(), None, None, None),
    ),
    "CoverCertificate": (cert, lambda: cert(2)),
    "AdditiveCoverSearch": (lambda: AdditiveCoverSearch(cert(), 7), lambda: AdditiveCoverSearch(None, 7)),
    "SubcoverSearch": (lambda: SubcoverSearch(family((2, 2)), 3), lambda: SubcoverSearch(family((2, 2)), 4)),
    "ProductSubcover": (lambda: ProductSubcover(0, cert()), lambda: ProductSubcover(1, cert())),
    "Term": (
        lambda: Term.meet(Term.oplus(Term.var(0), Term.var(1)), Term.var(0)),
        lambda: Term.meet(Term.odot(Term.var(0), Term.var(1)), Term.var(0)),
    ),
    "ProductSpace": (
        lambda: product([Topology(family((0, 0), (2, 2)))]),
        lambda: product([Topology(family((0, 0), (0, 2), (2, 2)))]),
    ),
    "UniversalPropertyReport": (
        lambda: UniversalPropertyReport(swap(), True, True, False),
        lambda: UniversalPropertyReport(swap(), True, True, True),
    ),
    "CompactnessOracleReport": (
        lambda: CompactnessOracleReport(False, 2, (((0, 1), cert()),), (fs(0, 1),)),
        lambda: CompactnessOracleReport(True, 2, (((0, 1), cert()),), None),
    ),
    "SuiteReport": (
        lambda: SuiteReport("algebra", 1, 5, 4, 1, 3, "detail"),
        lambda: SuiteReport("algebra", 1, 5, 5, 0, None, None),
    ),
}

# class name -> (repr, repr of the changed twin, hash on 3.11 and later, hash on 3.10)
RECORDED = {
    "Chain": (
        "Chain(n=3)",
        "Chain(n=4)",
        -5029647727744300836,
        -5029647727744300836,
    ),
    "Carrier": (
        "Carrier(points=('a', 'b'))",
        "Carrier(points=('a', 'c'))",
        4390508398689642242,
        -6647324582403854936,
    ),
    "FuzzySet": (
        "FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(1, 2))",
        "FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 1))",
        -5416813045254117863,
        -3253245757144517271,
    ),
    "PointMap": (
        (
            "PointMap(domain=Carrier(points=('a', 'b')), codomain=Carrier(points=('a', 'b')), ima"
            "ges=(1, 0))"
        ),
        (
            "PointMap(domain=Carrier(points=('a', 'b')), codomain=Carrier(points=('a', 'b')), ima"
            "ges=(0, 0))"
        ),
        8365076247894319245,
        4823682197842182963,
    ),
    "FuzzyFamily": (
        (
            "FuzzyFamily(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), members=(FuzzySet("
            "carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(0, 1)), FuzzySet(carri"
            "er=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 2))))"
        ),
        (
            "FuzzyFamily(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), members=(FuzzySet("
            "carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 2)),))"
        ),
        -36587216574922527,
        -7622957907233169708,
    ),
    "Topology": (
        (
            "Topology(opens=FuzzyFamily(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), memb"
            "ers=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(0, 0)), F"
            "uzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 2)))))"
        ),
        (
            "Topology(opens=FuzzyFamily(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), memb"
            "ers=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(0, 0)), F"
            "uzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(0, 2)), FuzzySe"
            "t(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 2)))))"
        ),
        6487662459049188688,
        -7306959677952521800,
    ),
    "SeparationReport": (
        (
            "SeparationReport(hausdorff=False, witnesses=(((0, 1), (FuzzySet(carrier=Carrier(poin"
            "ts=('a', 'b')), chain=Chain(n=2), values=(2, 0)), FuzzySet(carrier=Carrier(points=('"
            "a', 'b')), chain=Chain(n=2), values=(0, 2)))),), failing_pair=(1, 2))"
        ),
        (
            "SeparationReport(hausdorff=True, witnesses=(((0, 1), (FuzzySet(carrier=Carrier(point"
            "s=('a', 'b')), chain=Chain(n=2), values=(2, 0)), FuzzySet(carrier=Carrier(points=('a"
            "', 'b')), chain=Chain(n=2), values=(0, 2)))),), failing_pair=None)"
        ),
        852950916441498812,
        -8006116749475671117,
    ),
    "FuzzyPoint": (
        "FuzzyPoint(support=1, value=2)",
        "FuzzyPoint(support=0, value=2)",
        -3550055125485641917,
        -3550055125485641917,
    ),
    "MetricInstance": (
        (
            "MetricInstance(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), dist=((Fraction"
            "(0, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0, 1))))"
        ),
        (
            "MetricInstance(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), dist=((Fraction"
            "(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))"
        ),
        5823444818781168158,
        7987012106890768750,
    ),
    "SpaceDocument": (
        (
            "SpaceDocument(kind='opens', family=FuzzyFamily(carrier=Carrier(points=('a', 'b')), c"
            "hain=Chain(n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n"
            "=2), values=(0, 0)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), "
            "values=(2, 2)))), name='s', caps={})"
        ),
        (
            "SpaceDocument(kind='opens', family=FuzzyFamily(carrier=Carrier(points=('a', 'b')), c"
            "hain=Chain(n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n"
            "=2), values=(0, 0)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), "
            "values=(2, 2)))), name='s', caps={'max_opens': 4})"
        ),
        "TypeError: unhashable type: 'dict'",
        "TypeError: unhashable type: 'dict'",
    ),
    "MapDocument": (
        (
            "MapDocument(map=PointMap(domain=Carrier(points=('a', 'b')), codomain=Carrier(points="
            "('a', 'b')), images=(1, 0)), domain=SpaceDocument(kind='opens', family=FuzzyFamily(c"
            "arrier=Carrier(points=('a', 'b')), chain=Chain(n=2), members=(FuzzySet(carrier=Carri"
            "er(points=('a', 'b')), chain=Chain(n=2), values=(0, 0)), FuzzySet(carrier=Carrier(po"
            "ints=('a', 'b')), chain=Chain(n=2), values=(2, 2)))), name='s', caps={}), codomain=S"
            "paceDocument(kind='opens', family=FuzzyFamily(carrier=Carrier(points=('a', 'b')), ch"
            "ain=Chain(n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n="
            "2), values=(0, 0)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), v"
            "alues=(2, 2)))), name='t', caps={}), name=None)"
        ),
        (
            "MapDocument(map=PointMap(domain=Carrier(points=('a', 'b')), codomain=Carrier(points="
            "('a', 'b')), images=(1, 0)), domain=SpaceDocument(kind='opens', family=FuzzyFamily(c"
            "arrier=Carrier(points=('a', 'b')), chain=Chain(n=2), members=(FuzzySet(carrier=Carri"
            "er(points=('a', 'b')), chain=Chain(n=2), values=(0, 0)), FuzzySet(carrier=Carrier(po"
            "ints=('a', 'b')), chain=Chain(n=2), values=(2, 2)))), name='s', caps={}), codomain=S"
            "paceDocument(kind='opens', family=FuzzyFamily(carrier=Carrier(points=('a', 'b')), ch"
            "ain=Chain(n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n="
            "2), values=(0, 0)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), v"
            "alues=(2, 2)))), name='t', caps={}), name='m')"
        ),
        "TypeError: unhashable type: 'dict'",
        "TypeError: unhashable type: 'dict'",
    ),
    "MetricDocument": (
        (
            "MetricDocument(metric=MetricInstance(carrier=Carrier(points=('a', 'b')), chain=Chain"
            "(n=2), dist=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0, 1)))), c"
            "enters=(FuzzyPoint(support=0, value=1),), radii=(Fraction(3, 2),), name='d')"
        ),
        (
            "MetricDocument(metric=MetricInstance(carrier=Carrier(points=('a', 'b')), chain=Chain"
            "(n=2), dist=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0, 1)))), c"
            "enters=None, radii=None, name=None)"
        ),
        -7781997880167058943,
        -3944529571551231844,
    ),
    "CoverCertificate": (
        (
            "CoverCertificate(entries=((FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain("
            "n=2), values=(1, 0)), 1), (FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain("
            "n=2), values=(2, 2)), 1)))"
        ),
        (
            "CoverCertificate(entries=((FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain("
            "n=2), values=(1, 0)), 1), (FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain("
            "n=2), values=(2, 2)), 2)))"
        ),
        3874308286122499035,
        -6244056792539015670,
    ),
    "AdditiveCoverSearch": (
        (
            "AdditiveCoverSearch(certificate=CoverCertificate(entries=((FuzzySet(carrier=Carrier("
            "points=('a', 'b')), chain=Chain(n=2), values=(1, 0)), 1), (FuzzySet(carrier=Carrier("
            "points=('a', 'b')), chain=Chain(n=2), values=(2, 2)), 1))), nodes=7)"
        ),
        "AdditiveCoverSearch(certificate=None, nodes=7)",
        7848164972004747704,
        -8756440283811419084,
    ),
    "SubcoverSearch": (
        (
            "SubcoverSearch(subcover=FuzzyFamily(carrier=Carrier(points=('a', 'b')), chain=Chain("
            "n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values"
            "=(2, 2)),)), nodes=3)"
        ),
        (
            "SubcoverSearch(subcover=FuzzyFamily(carrier=Carrier(points=('a', 'b')), chain=Chain("
            "n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values"
            "=(2, 2)),)), nodes=4)"
        ),
        1286269917439560974,
        -7830271391940329608,
    ),
    "ProductSubcover": (
        (
            "ProductSubcover(factor_index=0, certificate=CoverCertificate(entries=((FuzzySet(carr"
            "ier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(1, 0)), 1), (FuzzySet(carr"
            "ier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 2)), 1))))"
        ),
        (
            "ProductSubcover(factor_index=1, certificate=CoverCertificate(entries=((FuzzySet(carr"
            "ier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(1, 0)), 1), (FuzzySet(carr"
            "ier=Carrier(points=('a', 'b')), chain=Chain(n=2), values=(2, 2)), 1))))"
        ),
        -4039840647387304311,
        -4095339570367053774,
    ),
    "Term": (
        "Term(x0 x1 oplus x0 meet)",
        "Term(x0 x1 odot x0 meet)",
        True,
        True,
    ),
    "ProductSpace": (
        (
            "ProductSpace(factors=(Topology(opens=FuzzyFamily(carrier=Carrier(points=('a', 'b')), "
            "chain=Chain(n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n"
            "=2), values=(0, 0)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), v"
            "alues=(2, 2))))),), carrier=Carrier(points=('(a)', '(b)')), projections=(PointMap(dom"
            "ain=Carrier(points=('(a)', '(b)')), codomain=Carrier(points=('a', 'b')), images=(0, 1"
            ")),), subbase=FuzzyFamily(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), m"
            "embers=(FuzzySet(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), values=(0,"
            " 0)), FuzzySet(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), values=(2, 2"
            ")))))"
        ),
        (
            "ProductSpace(factors=(Topology(opens=FuzzyFamily(carrier=Carrier(points=('a', 'b')), "
            "chain=Chain(n=2), members=(FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n"
            "=2), values=(0, 0)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), v"
            "alues=(0, 2)), FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2), values="
            "(2, 2))))),), carrier=Carrier(points=('(a)', '(b)')), projections=(PointMap(domain=Ca"
            "rrier(points=('(a)', '(b)')), codomain=Carrier(points=('a', 'b')), images=(0, 1)),), "
            "subbase=FuzzyFamily(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), members"
            "=(FuzzySet(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), values=(0, 0)), "
            "FuzzySet(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), values=(0, 2)), Fu"
            "zzySet(carrier=Carrier(points=('(a)', '(b)')), chain=Chain(n=2), values=(2, 2)))))"
        ),
        407371954234175991,
        -6112179184387186600,
    ),
    "UniversalPropertyReport": (
        (
            "UniversalPropertyReport(tupling_map=PointMap(domain=Carrier(points=('a', 'b')), codo"
            "main=Carrier(points=('a', 'b')), images=(1, 0)), tupling_continuous=True, projection"
            "s_commute=True, unique=False)"
        ),
        (
            "UniversalPropertyReport(tupling_map=PointMap(domain=Carrier(points=('a', 'b')), codo"
            "main=Carrier(points=('a', 'b')), images=(1, 0)), tupling_continuous=True, projection"
            "s_commute=True, unique=True)"
        ),
        5356103355495533526,
        -7824202154416220679,
    ),
    "CompactnessOracleReport": (
        (
            "CompactnessOracleReport(compact=False, covers_checked=2, certificates=(((0, 1), Cove"
            "rCertificate(entries=((FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2)"
            ", values=(1, 0)), 1), (FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2)"
            ", values=(2, 2)), 1)))),), counterexample=(FuzzySet(carrier=Carrier(points=('a', 'b'"
            ")), chain=Chain(n=2), values=(0, 1)),))"
        ),
        (
            "CompactnessOracleReport(compact=True, covers_checked=2, certificates=(((0, 1), Cover"
            "Certificate(entries=((FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2),"
            " values=(1, 0)), 1), (FuzzySet(carrier=Carrier(points=('a', 'b')), chain=Chain(n=2),"
            " values=(2, 2)), 1)))),), counterexample=None)"
        ),
        2311527675917678044,
        1481581133205577764,
    ),
    "SuiteReport": (
        (
            "SuiteReport(suite='algebra', seed=1, cases=5, passed=4, failed=1, first_failure_case"
            "=3, first_failure_detail='detail')"
        ),
        (
            "SuiteReport(suite='algebra', seed=1, cases=5, passed=5, failed=0, first_failure_case"
            "=None, first_failure_detail=None)"
        ),
        4036118832516516704,
        5459518414242177039,
    ),
}


def records() -> dict:
    """Each case's repr, repr of the changed twin and hash, as recorded."""
    out = {}
    for name, (make, changed) in CASES.items():
        x = make()
        try:
            h = hash(x) if not isinstance(x, Term) else hash(x) == hash(make())
        except TypeError as exc:
            h = f"TypeError: {exc}"
        out[name] = [repr(x), repr(changed()), h]
    return out


def test_every_value_class_has_a_case():
    assert len(CASES) == len(RECORDED) == 21
    assert [type(make()).__name__ for make, _ in CASES.values()] == list(CASES)


def test_reprs_and_hashes_are_as_recorded():
    here = Path(__file__).resolve().parent
    # src first, then the path this process was given, where pytest may live
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
    code = "import json, test_records; print(json.dumps(test_records.records()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=here, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    column = 2 if sys.version_info >= (3, 11) else 3
    assert json.loads(proc.stdout) == {name: [*r[:2], r[column]] for name, r in RECORDED.items()}


@pytest.mark.parametrize("name", list(CASES))
def test_equality_goes_by_the_fields_within_one_class(name):
    make, changed = CASES[name]
    x = make()
    assert x == make() and not x != make()
    assert x != changed() and not x == changed()
    # a Term compares by its post-order and answers False, not NotImplemented
    assert (x.__eq__(object()) is NotImplemented) == (name != "Term")


@pytest.mark.parametrize("name", list(CASES))
def test_copies_and_pickles_equal_the_original(name):
    x = CASES[name][0]()
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)


@pytest.mark.parametrize("name", list(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    x = CASES[name][0]()
    field = x.__slots__[0]
    value = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, value)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert getattr(x, field) is value


def test_a_record_takes_every_field_by_position_and_nothing_else():
    assert SeparationReport(True, (), None).failing_pair is None
    with pytest.raises(TypeError, match=r"^SuiteReport\(\) takes 7 arguments, got 2$"):
        SuiteReport("algebra", 1)
    with pytest.raises(TypeError, match=r"^SeparationReport\(\) takes 3 arguments, got 4$"):
        SeparationReport(True, (), None, None)
    for build in (
        lambda: SeparationReport(True),
        lambda: SeparationReport(True, (), failing_pair=None),
        lambda: SeparationReport(hausdorff=True, witnesses=(), failing_pair=None),
        lambda: SuiteReport(suite="a", seed=1, cases=2, passed=2, failed=0),
        lambda: FuzzyPoint(support=0, value=1),
        lambda: ProductSubcover(0, certificate=cert()),
        lambda: Term("var", index=0),
        lambda: FuzzyFamily(carrier(), Chain(2)),
        lambda: Topology(carrier(), Chain(2), family((0, 0), (2, 2))),
    ):
        with pytest.raises(TypeError):
            build()


def test_no_record_spells_out_a_keyword_only_or_defaulted_parameter():
    for module in pkgutil.iter_modules(mvtop.__path__):
        importlib.import_module(f"mvtop.{module.name}")
    classes, stack = [], [Record]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack += cls.__subclasses__()
    assert {"Chain", "Term", "Topology", "FuzzyFamily", "SuiteReport"} <= {cls.__name__ for cls in classes}
    for cls in classes[1:]:
        if "__init__" in vars(cls):
            for p in list(inspect.signature(cls.__init__).parameters.values())[1:]:
                assert p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD), (cls, p)
                assert p.default is p.empty, (cls, p)


def test_every_exported_name_resolves():
    assert "ProductSpace" in mvtop.__all__ and "FuzzyPoint" in mvtop.__all__
    for name in mvtop.__all__:
        assert getattr(mvtop, name) is not None
    assert set(mvtop.__all__) <= set(dir(mvtop))
    with pytest.raises(AttributeError):
        mvtop.no_such_name


def test_product_is_the_submodule_and_its_function_stays_in_it():
    from mvtop import product

    assert "product" not in mvtop.__all__
    assert product is sys.modules["mvtop.product"] is mvtop.product
    assert callable(product.product) and product.product.__module__ == "mvtop.product"


def test_fuzzy_set_keeps_its_traced_methods_in_its_own_class():
    # the benchmark's tracer wraps these, by name, in the class dict
    ops = ("oplus", "odot", "meet", "join", "complement", "scaled", "leq")
    assert {"__post_init__", *ops} <= set(FuzzySet.__dict__)
