import dataclasses
from fractions import Fraction

import pytest

from helpers import frozen_dataclass_reference

from conefan._simplex import solve_standard
from conefan._value import Frozen
from conefan.errors import InputError
from conefan.graded import (
    GradedSystem,
    MonomialIdeal,
    asymptotic_limit_check,
    stabilizing_exponent,
    verify_closure_identity,
)
from conefan.linalg import linear_solve
from conefan.lp import (
    LpInstance,
    duality_check,
    representation_cost,
    simplex_solve,
)
from conefan.polyhedra import (
    HPolyhedron,
    decompose_weyl,
    dual_description,
    minimize_linear,
)

MI = MonomialIdeal.from_exponents


def _instances() -> dict:
    """Two or more instances of every value class, made by the library."""
    worked = GradedSystem.create(
        2,
        2,
        [(1, 0), (0, 1), (1, 1)],
        [MI(2, [(1, 0)]), MI(2, [(0, 1)]), MI(2, [(1, 1), (2, 0)])],
    )
    halfstep = GradedSystem.create(
        1, 2, [(1,), (2,)], [MI(2, [(2, 0), (0, 2)]), MI(2, [(1, 0), (0, 1)])]
    )
    systems = (worked, halfstep)
    reports = [verify_closure_identity(s, power_bound=2, power_checks=2) for s in systems]
    square = HPolyhedron.from_rows(
        [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
    )
    wedge = HPolyhedron.from_rows([((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)])
    lps = [
        LpInstance.make([1, 2], [[1, 1]], [1]),
        LpInstance.make([1, 1], [[1, -1]], [-1]),
    ]
    gens, costs = [[1, 0], [0, 1], [1, 1]], [1, 1, 1]
    out = {
        "GradedSystem": systems,
        "MonomialIdeal": worked.ideals,
        "VerificationReport": reports,
        "VerificationConfig": [r.config for r in reports],
        "Fan": [r.fan for r in reports],
        "Cone": reports[0].fan.maximal_cones,
        "ConeCheck": reports[0].cones,
        "TupleCheck": reports[0].cones[0].checks,
        "ExponentCertificate": [
            stabilizing_exponent(s, r.fan, power_checks=2)
            for s, r in zip(systems, reports)
        ],
        "LimitCheck": [
            asymptotic_limit_check(worked, (1, 1), (1, 1), 2),
            asymptotic_limit_check(halfstep, (1, 0), (1,), 2),
        ],
        "HPolyhedron": [square, wedge, HPolyhedron.make_empty(2)],
        "VRepresentation": [dual_description(P) for P in (square, wedge)],
        "WeylDecomposition": [decompose_weyl(P) for P in (square, wedge)],
        "MinimizeResult": [minimize_linear(P, (1, 1)) for P in (square, wedge)],
        "LpInstance": lps,
        "LpOutcome": [simplex_solve(inst) for inst in lps],
        "StandardResult": [
            solve_standard(inst.cost, inst.matrix, inst.rhs) for inst in lps
        ],
        "CostOptimum": [
            representation_cost(gens, costs, t) for t in ([1, 1], [2, 1])
        ],
        "DualityCheck": [duality_check(gens, costs, t) for t in ([1, 1], [2, 1])],
        "LinearSolution": [
            linear_solve(((Fraction(1), Fraction(1)),), (Fraction(2),)),
            linear_solve(((Fraction(1), Fraction(0)),), (Fraction(3),)),
        ],
    }
    return out


INSTANCES = _instances()
VALUE_CLASSES = sorted(Frozen.__subclasses__(), key=lambda c: c.__qualname__)


def _outcome(make):
    try:
        return "value", make()
    except Exception as exc:  # the two sides must fail alike
        return "raises", type(exc)


def _values(obj, names):
    return [getattr(obj, n) for n in names]


def test_every_value_class_has_instances():
    assert len(VALUE_CLASSES) == 20
    assert sorted(INSTANCES) == [c.__qualname__ for c in VALUE_CLASSES]
    for cls in VALUE_CLASSES:
        assert len(INSTANCES[cls.__qualname__]) >= 2, cls
        assert all(type(x) is cls for x in INSTANCES[cls.__qualname__]), cls


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
def test_value_class_matches_frozen_dataclass(cls):
    ref = frozen_dataclass_reference(cls)
    names = [f.name for f in dataclasses.fields(ref)]
    required = [f.name for f in dataclasses.fields(ref) if f.default is dataclasses.MISSING]
    samples = [_values(x, names) for x in INSTANCES[cls.__qualname__]]
    # every sample, and every sample with one field taken from another
    cases = list(samples)
    for a in samples:
        for b in samples:
            for k in range(len(names)):
                if a[k] != b[k]:
                    cases.append(a[:k] + [b[k]] + a[k + 1 :])
    built = []
    for args in cases:
        mine = _outcome(lambda: cls(*args))
        theirs = _outcome(lambda: ref(*args))
        if mine[0] == "raises":
            assert mine == theirs, args
            continue
        assert theirs[0] == "value", (args, theirs)
        m, r = mine[1], theirs[1]
        assert _values(m, names) == _values(r, names) == args
        assert repr(m) == repr(r)
        assert _outcome(lambda: hash(m)) == _outcome(lambda: hash(r))
        by_keyword = cls(**dict(zip(names, args)))
        assert _values(by_keyword, names) == args and by_keyword == m
        short = args[: len(required)]
        by_default = _outcome(lambda: cls(*short))
        ref_default = _outcome(lambda: ref(*short))
        assert by_default[0] == ref_default[0]
        if by_default[0] == "value":
            assert _values(by_default[1], names) == _values(ref_default[1], names)
        built.append((m, r))
    for m1, r1 in built:
        for m2, r2 in built:
            assert (m1 == m2) == (r1 == r2)
            assert (m1 != m2) == (r1 != r2)
        # another class never compares equal, in either direction
        assert cls.__eq__(m1, r1) is NotImplemented
        assert m1 != r1 and r1 != m1
        for name in names + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(m1, name, None)
            with pytest.raises(AttributeError):
                delattr(m1, name)
        assert _values(m1, names) == _values(r1, names)
        for k, name in enumerate(names):
            for args in samples:
                mine = _outcome(lambda: m1._replace(**{name: args[k]}))
                theirs = _outcome(lambda: dataclasses.replace(r1, **{name: args[k]}))
                assert mine[0] == theirs[0]
                if mine[0] == "value":
                    assert _values(mine[1], names) == _values(theirs[1], names)
                else:
                    assert mine == theirs
        with pytest.raises(TypeError):
            m1._replace(not_a_field=1)


def test_replace_runs_post_init():
    # a Fraction row is refused by HPolyhedron.__post_init__, also when
    # it comes in through _replace
    P = INSTANCES["HPolyhedron"][0]
    assert P._replace(equalities=(((1, 1), 1),)) == HPolyhedron(
        P.inequalities, (((1, 1), 1),), 2
    )
    with pytest.raises(InputError):
        P._replace(inequalities=(((Fraction(1), 0), 1),))
    with pytest.raises(InputError):
        P._replace(ambient_dim=3)


def test_cached_properties_work_on_frozen_values():
    cone = INSTANCES["Cone"][0]
    assert cone.lattice_det == cone.lattice_det
    assert "lattice_det" in vars(cone)
    P = INSTANCES["HPolyhedron"][0]
    assert dual_description(P) is dual_description(P)
