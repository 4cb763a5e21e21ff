"""Exception hierarchy shared by every module of the engine."""


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
