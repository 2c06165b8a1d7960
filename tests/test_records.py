"""The value classes keep the behaviour of the dataclasses they replaced.

Each golden repr was printed by the dataclass versions of these classes.
"""

import pickle
from fractions import Fraction

import pytest

from csdlab.degrees import LowerBounds
from csdlab.expr import Family, Perm, Product, parse
from csdlab.groups import Permutation
from csdlab.reports import RunReport

HALF, THREE_QUARTERS = Fraction(1, 2), Fraction(3, 4)


def full_report(**changes):
    fields = dict(
        group="D(8)", order=8, l1=7, csd=Fraction(41, 49), d=Fraction(5, 8), lattice=10,
        sd=Fraction(23, 25), ndeg=Fraction(3, 5), cdeg=Fraction(7, 10),
        csd_star=Fraction(41, 49), is_iwasawa=False, wall_ms=1.5,
    )
    fields.update(changes)
    return RunReport(**fields)


@pytest.mark.parametrize(
    "value, golden",
    [
        (Permutation((1, 0, 2)), "Permutation(images=(1, 0, 2))"),
        (
            LowerBounds(HALF, THREE_QUARTERS, Fraction(1)),
            "LowerBounds(normal_cyclic=Fraction(1, 2), pair_floor=Fraction(3, 4), "
            "abelian_subgroup=Fraction(1, 1))",
        ),
        (
            RunReport("D(8)", 8, 7, Fraction(41, 49), Fraction(5, 8)),
            "RunReport(group='D(8)', order=8, l1=7, csd=Fraction(41, 49), d=Fraction(5, 8), "
            "lattice=None, sd=None, ndeg=None, cdeg=None, csd_star=None, is_iwasawa=None, "
            "wall_ms=None)",
        ),
        (
            full_report(),
            "RunReport(group='D(8)', order=8, l1=7, csd=Fraction(41, 49), d=Fraction(5, 8), "
            "lattice=10, sd=Fraction(23, 25), ndeg=Fraction(3, 5), cdeg=Fraction(7, 10), "
            "csd_star=Fraction(41, 49), is_iwasawa=False, wall_ms=1.5)",
        ),
        (Family("D", (8,)), "Family(name='D', params=(8,), span=(0, 0))"),
        (Perm(3, ()), "Perm(degree=3, gens=(), span=(0, 0))"),
        (
            parse("D(8) x Perm(4; (0 1)(2 3), (0 1 2)) x Z(3)"),
            "Product(left=Product(left=Family(name='D', params=(8,), span=(0, 4)), "
            "right=Perm(degree=4, gens=(((0, 1), (2, 3)), ((0, 1, 2),)), span=(7, 35)), "
            "span=(0, 35)), right=Family(name='Z', params=(3,), span=(38, 42)), span=(0, 42))",
        ),
    ],
)
def test_repr_matches_the_dataclass(value, golden):
    assert repr(value) == golden


@pytest.mark.parametrize(
    "make, other, field",
    [
        (lambda: Permutation((1, 0, 2)), Permutation((0, 2, 1)), "images"),
        (lambda: Permutation(images=(1, 0)), Permutation((0, 1)), "images"),
        (
            lambda: LowerBounds(HALF, THREE_QUARTERS, HALF),
            LowerBounds(HALF, HALF, HALF),
            "pair_floor",
        ),
        (
            lambda: LowerBounds(normal_cyclic=HALF, pair_floor=HALF, abelian_subgroup=HALF),
            LowerBounds(HALF, HALF, THREE_QUARTERS),
            "abelian_subgroup",
        ),
        (lambda: Family("D", (8,), (0, 4)), Family("D", (16,)), "params"),
        (lambda: Perm(3, (((0, 1),),), (2, 9)), Perm(3, (((0, 2),),)), "span"),
        (lambda: parse("Z(2) x Z(3)"), parse("Z(3) x Z(2)"), "left"),
    ],
)
def test_frozen_classes_compare_hash_refuse_assignment_and_pickle(make, other, field):
    value, twin = make(), make()
    assert value == twin and hash(value) == hash(twin)
    assert value != other
    assert value != repr(value)  # another class never compares equal
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and repr(copy) == repr(value)


def test_expression_nodes_ignore_span():
    assert Family("D", (8,), (0, 4)) == Family("D", (8,))
    assert hash(Family("D", (8,), (0, 4))) == hash(Family("D", (8,)))
    assert parse("Z(2)x Z(3)") == Product(Family("Z", (2,)), Family("Z", (3,)))
    assert Perm(degree=3, gens=(), span=(1, 5)) == Perm(3, ())
    assert Family("D", (8,)) != Perm(8, ())
    assert pickle.loads(pickle.dumps(Family("D", (8,), (0, 4)))).span == (0, 4)


def test_permutation_rejects_a_non_bijection():
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.1: \(0, 0\)$"):
        Permutation((0, 0))


def test_run_report_compares_by_fields_is_unhashable_and_assignable():
    report = full_report(wall_ms=None)
    assert report == full_report(wall_ms=None)
    assert report != full_report(wall_ms=2.0)
    with pytest.raises(TypeError):
        hash(report)
    report.wall_ms = 2.0
    assert report == full_report(wall_ms=2.0)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and repr(copy) == repr(report)


def test_long_product_chain_compares_hashes_prints_and_pickles_without_recursion():
    count = 2000
    text = "x".join(["Z(1)"] * count)
    chain, twin = parse(text), parse(text)
    assert chain == twin and hash(chain) == hash(twin)
    assert chain != parse(text + "xZ(2)")
    expected = "Family(name='Z', params=(1,), span=(0, 4))"
    for k in range(1, count):
        start = 5 * k
        right = f"Family(name='Z', params=(1,), span=({start}, {start + 4}))"
        expected = f"Product(left={expected}, right={right}, span=(0, {start + 4}))"
    assert repr(chain) == expected
    copy = pickle.loads(pickle.dumps(chain))
    assert copy == chain and repr(copy) == expected
