"""``record`` against the frozen dataclass it stands in for.

Each shape of value class that fincat uses is defined twice from the same
body, once under ``record`` and once under ``dataclasses.dataclass(frozen=True)``,
and every observable the two could differ in is compared: signature, repr,
equality (also across classes with the same fields), hash, the instance
dict, ``__match_args__``, and the errors of assignment, deletion and bad
calls.  The runtime never imports ``dataclasses``; this test does, as the
oracle.
"""

import dataclasses
import inspect
from functools import cached_property

import pytest

import reference_core as ref
from fincat import cli
from fincat.builders import FinSetCategory, NamedFiniteSet, build_finset, poset_as_category
from fincat.core import FiniteCategory, Violation, opposite
from fincat.errors import FrozenInstanceError, record
from fincat.formulas import Atom, Not
from fincat.galois import FinitePoset
from fincat.universal import Cone, find_products


def frozen_dataclass(cls=None, /, **options):
    if cls is None:
        return lambda cls: dataclasses.dataclass(cls, frozen=True, **options)
    return dataclasses.dataclass(cls, frozen=True)


def shapes(frozen) -> dict[str, type]:
    """One class per shape, each made by the decorator ``frozen``."""

    @frozen
    class Plain:
        name: str
        size: int

    @frozen
    class SameFields:
        name: str
        size: int

    @frozen
    class Single:
        body: object

    @frozen
    class Defaults:
        name: str
        args: tuple = ()
        flag: bool = False

    @frozen
    class PostInit:
        name: str
        elements: tuple

        def __post_init__(self):
            if not self.name:
                raise ValueError("set name must be nonempty")
            vars(self)["positions"] = {x: i for i, x in enumerate(self.elements)}

    @frozen(init=False)
    class Rows:
        dom: str
        rows: tuple

        def __init__(self, dom: str, pairs):
            vars(self).update(dom=dom, rows=tuple(sorted(pairs)))

    @frozen(init=False)
    class Function(Rows):
        def __init__(self, dom: str, graph: dict):
            vars(self).update(dom=dom, rows=tuple(sorted(graph.items())))

    @frozen
    class Table:
        objects: tuple
        arrows: tuple

        def __eq__(self, other):
            if not isinstance(other, Table):
                return NotImplemented
            return (self.objects, self.arrows) == (other.objects, other.arrows)

    @frozen
    class HashedTable:
        objects: tuple
        arrows: tuple

        def __eq__(self, other):
            if not isinstance(other, HashedTable):
                return NotImplemented
            return (self.objects, self.arrows) == (other.objects, other.arrows)

        def __hash__(self):
            return hash((self.objects, len(self.arrows)))

    @frozen(eq=False)
    class NamedTable(Table):
        sets: tuple

        @cached_property
        def size(self) -> int:
            return len(self.sets)

    return {cls.__name__: cls for cls in (
        Plain, SameFields, Single, Defaults, PostInit, Rows, Function, Table, HashedTable,
        NamedTable,
    )}


RECORDS, DATACLASSES = shapes(record), shapes(frozen_dataclass)

#: Instances of every shape, as (class name, args, kwargs).
SAMPLES = [
    ("Plain", ("a", 1), {}), ("Plain", ("a", 2), {}), ("Plain", (), {"size": 1, "name": "a"}),
    ("SameFields", ("a", 1), {}),
    ("Single", (1,), {}), ("Single", ("x",), {}), ("Single", ((1, 2),), {}),
    ("Defaults", ("p",), {}), ("Defaults", ("p", (1,)), {}), ("Defaults", ("p",), {"flag": True}),
    ("PostInit", ("S", ("a", "b")), {}), ("PostInit", ("S", ()), {}),
    ("Rows", ("X", [(1, 2), (0, 1)]), {}), ("Rows", ("X", [(0, 1)]), {}),
    ("Function", ("X", {0: 1}), {}), ("Function", ("X", {}), {}),
    ("Table", (("A",), ("f",)), {}), ("Table", (("A",), ()), {}),
    ("HashedTable", (("A",), ("f",)), {}), ("HashedTable", (("A",), ("g",)), {}),
    ("NamedTable", (("A",), ("f",), ("S",)), {}), ("NamedTable", (("A",), ("f",), ()), {}),
]


def build(classes: dict, sample):
    name, args, kwargs = sample
    return classes[name](*args, **kwargs)


def twins(sample):
    return build(RECORDS, sample), build(DATACLASSES, sample)


def raised(call) -> tuple[str, str, bool] | None:
    """The name, message and AttributeError-ness of the exception ``call``
    raises, or None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, str(exc), isinstance(exc, AttributeError)
    return None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_class_surface_matches_the_dataclass(name):
    r, d = RECORDS[name], DATACLASSES[name]
    assert inspect.signature(r) == inspect.signature(d)
    assert r.__match_args__ == d.__match_args__
    assert r.__init__.__qualname__ == d.__init__.__qualname__
    assert (r.__hash__ is None) == (d.__hash__ is None)
    for args in ((), ("a",) * 4, ("a", "b", "c")):
        assert raised(lambda: r(*args)) == raised(lambda: d(*args))
    assert raised(lambda: r("a", b=1)) == raised(lambda: d("a", b=1))


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: f"{s[0]}{s[1]}")
def test_instance_matches_the_dataclass(sample):
    r, d = twins(sample)
    assert repr(r) == repr(d)
    assert hash(r) == hash(d)
    assert list(vars(r).items()) == list(vars(d).items())
    for field in (*type(r).__match_args__, "other"):
        assert raised(lambda: setattr(r, field, 0)) == raised(lambda: setattr(d, field, 0))
        assert raised(lambda: delattr(r, field)) == raised(lambda: delattr(d, field))
    assert r != d and not r == d


def test_equality_matches_the_dataclass_across_every_pair():
    for left in SAMPLES:
        for right in SAMPLES:
            (r1, d1), (r2, d2) = twins(left), twins(right)
            assert ((r1 == r2), (r1 != r2)) == ((d1 == d2), (d1 != d2)), (left, right)


def test_post_init_runs_after_the_fields_and_may_refuse():
    assert raised(lambda: RECORDS["PostInit"]("", ())) == raised(lambda: DATACLASSES["PostInit"]("", ()))
    assert vars(RECORDS["PostInit"]("S", ("a",)))["positions"] == {"a": 0}


def test_an_eq_false_subclass_inherits_eq_and_hash_and_lists_base_fields_first():
    Table, NamedTable = RECORDS["Table"], RECORDS["NamedTable"]
    assert NamedTable.__match_args__ == ("objects", "arrows", "sets")
    assert NamedTable.__eq__ is Table.__eq__ and NamedTable.__hash__ is Table.__hash__
    t = NamedTable(("A",), ("f",), ("S", "T"))
    assert t.size == 2 and vars(t)["size"] == 2
    assert t == Table(("A",), ("f",)) and hash(t) == hash(Table(("A",), ("f",)))


def test_a_one_field_record_hashes_a_one_tuple():
    assert hash(RECORDS["Single"](5)) == hash((5,)) != hash(5)


def test_public_values_keep_their_repr_and_hash():
    assert repr(Atom("p")) == "Atom(name='p', args=())"
    assert hash(Atom("p")) == hash(("p", ()))
    assert repr(Not(Atom("p"))) == "Not(body=Atom(name='p', args=()))"
    assert hash(Not(Atom("p"))) == hash((Atom("p"),))
    cone = Cone("P", "p1", "p2")
    assert repr(cone) == "Cone(apex='P', left='p1', right='p2')"
    assert hash(cone) == hash(("P", "p1", "p2"))
    assert str(inspect.signature(Cone)) == "(apex: 'ObjectId', left: 'ArrowId', right: 'ArrowId') -> None"
    assert str(inspect.signature(Violation)) == (
        "(law: 'str', witnesses: 'tuple[ArrowId, ...]', detail: 'str' = '') -> None"
    )


def test_a_product_certificate_reads_as_its_eager_form():
    C = build_finset([NamedFiniteSet("One", ("*",)), NamedFiniteSet("Two", ("0", "1"))])
    (cert,), (eager,) = find_products(C, "One", "One"), ref.find_products(C, "One", "One")
    assert repr(cert) == repr(eager) == (
        "ProductCertificate(cone=Cone(apex='One', left='One->One{*:*}', right='One->One{*:*}'), "
        "mediators={Cone(apex='One', left='One->One{*:*}', right='One->One{*:*}'): 'One->One{*:*}', "
        "Cone(apex='Two', left='Two->One{0:*,1:*}', right='Two->One{0:*,1:*}'): 'Two->One{0:*,1:*}'})"
    )


def test_builder_categories_are_records_over_the_kernel_fields_then_their_own():
    C = build_finset([NamedFiniteSet("One", ("*",))])
    assert FinSetCategory.__match_args__ == ("objects", "arrows", "identities", "composition", "sets")
    assert FinSetCategory.__eq__ is FiniteCategory.__eq__
    assert FinSetCategory.__hash__ is FiniteCategory.__hash__
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'sets'"):
        C.sets = {}


@pytest.mark.parametrize("make", [
    lambda: build_finset([NamedFiniteSet("One", ("*",)), NamedFiniteSet("Two", ("0", "1"))]),
    lambda: poset_as_category(FinitePoset.chain(["a", "b", "c"])),
], ids=["finset", "poset"])
def test_equal_categories_hash_equal(make):
    C = make()
    copy = FiniteCategory(C.objects, tuple(C.arrows), dict(C.identities), dict(C.composition))
    assert C == opposite(opposite(C)) == copy
    assert hash(C) == hash(opposite(opposite(C))) == hash(copy)
    assert len({C, opposite(opposite(C)), copy}) == 1


def test_a_cli_report_is_frozen():
    report = cli.Report("ok", "validate", {"ok": True}, [])
    with pytest.raises(AttributeError, match="cannot assign to field 'status'"):
        report.status = "fail"
    assert issubclass(FrozenInstanceError, AttributeError)
    assert report == cli.Report("ok", "validate", {"ok": True}, [])
