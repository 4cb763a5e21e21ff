"""Exception hierarchy shared by every module of the engine, and the
:func:`record` decorator that makes its frozen value classes.

A record behaves as a frozen dataclass of its annotated fields, but only
its ``__init__`` is compiled; equality, hash, repr and the refusal to assign
or delete are closures over the field names, so importing records costs
one ``exec`` per class.
"""

from operator import attrgetter


class FincatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FincatError):
    """An input file or argument is syntactically or schematically invalid."""

    def __init__(self, message: str, *, source: str | None = None, field: str | None = None):
        self.source = source
        self.field = field
        prefix = ""
        if source is not None:
            prefix += f"{source}: "
        if field is not None:
            prefix += f"field {field!r}: "
        super().__init__(prefix + message)


class WitnessedError(FincatError):
    """A law fails at a specific tuple of elements, kept as ``witness``."""

    def __init__(self, message: str, witness: tuple = ()):
        self.witness = witness
        super().__init__(message)


class MalformedTable(FincatError):
    """A category table references a dangling id or misses a composable pair."""


class UnknownObject(FincatError):
    """An object id is not part of the category."""


class UnknownArrow(FincatError):
    """An arrow id is not part of the category."""


class EnumerationBudgetExceeded(FincatError):
    """An exhaustive search would enumerate more arrows than the budget allows."""


class InvalidMonoid(WitnessedError):
    """A multiplication table breaks associativity or the unit laws."""


class InvalidPoset(FincatError):
    """A relation is not reflexive, transitive and antisymmetric."""


class NotTerminal(FincatError):
    """An object claimed terminal is not."""


class NotAProduct(FincatError):
    """A certificate does not describe a product of the requested pair."""


class MalformedMap(FincatError):
    """A functor's object or arrow table is not total or references unknown ids."""


class SourceTargetMismatch(FincatError):
    """Functor composition applied to non-composable functors."""


class NotAFunctor(FincatError):
    """An operation requiring functoriality was handed a non-functor."""


class NotMonotone(WitnessedError):
    """A map between posets breaks order preservation."""


class NotAHomomorphism(WitnessedError):
    """A map between monoids breaks multiplication or unit preservation."""


class UnknownElement(FincatError):
    """An element is not part of the poset or universe at hand."""


class AdjunctionFails(WitnessedError):
    """The adjunction equivalence is violated at some pair."""


class UniverseMismatch(FincatError):
    """Subsets or relations over different universes were combined."""


class UnknownAtom(FincatError):
    """A formula mentions an atom the model does not interpret."""


class NotDownClosed(FincatError):
    """A subset handed to the Heyting operations is not a down-set."""


class ContextOverflow(FincatError):
    """A formula uses a variable index beyond its declared context."""


class ContextMismatch(FincatError):
    """Assignment sets of incompatible context sizes were combined."""


class BoundExceeded(FincatError):
    """A numeral index lies outside the bounded system."""


class UnknownDemo(FincatError):
    """The demo registry has no entry under the requested name."""


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def record(cls=None, /, *, init: bool = True, eq: bool = True):
    """Make ``cls`` a record, as ``dataclass(frozen=True, init=init, eq=eq)`` would:
    its fields, in ``__match_args__``, are the base record's and then its own
    annotations; an ``__eq__`` or ``__hash__`` it defines is kept (a body that defines
    ``__eq__`` alone has ``__hash__ = None``, which is not), and with ``eq=False`` it
    inherits both; assigning or deleting raises :class:`FrozenInstanceError`."""
    if cls is None:
        return lambda cls: record(cls, init=init, eq=eq)
    base, own = getattr(cls, "__match_args__", ()), cls.__dict__
    names = (*base, *(n for n in own.get("__annotations__", {}) if n not in base))
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    if init:
        cls.__init__ = _init(cls, names)
    if eq:
        cls.__eq__ = own.get("__eq__", __eq__)
        if not callable(own.get("__hash__")):
            cls.__hash__ = __hash__
    cls.__repr__, cls.__match_args__ = __repr__, names
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _frozen(self, name, *value):
    """A frozen record's ``__setattr__`` and ``__delattr__``."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _init(cls: type, names: tuple[str, ...]):
    """Compile a record's ``__init__``: each field a parameter, defaulting to
    its class attribute, set in order, then ``__post_init__``."""
    types = {n: t for b in reversed(cls.__mro__) for n, t in vars(b).get("__annotations__", {}).items()}
    defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
    params = "".join(f", {n}=_dflt[{n!r}]" if n in defaults else f", {n}" for n in names)
    body = "".join(f"\n _setattr(self, {n!r}, {n})" for n in names)
    body += "\n self.__post_init__()" * hasattr(cls, "__post_init__")
    namespace = {"_setattr": object.__setattr__, "_dflt": defaults}
    exec(f"def __init__(self{params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{n: types[n] for n in names}, "return": None}
    return init
