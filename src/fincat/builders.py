"""Construction of the stock example categories as explicit instances.

Covers: all functions between named finite sets, all relations, a poset as
a thin category, a monoid as a one-object category, and matrices over a
prime field as a lazily enumerated view.  Arrow names are canonical and
deterministic (graphs serialized in element order) so fixtures reproduce
byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from .core import (
    Arrow,
    ArrowId,
    CategoryView,
    DEFAULT_BUDGET,
    FiniteCategory,
    ObjectId,
)
from .errors import (
    EnumerationBudgetExceeded,
    InvalidMonoid,
    UnknownArrow,
    UnknownObject,
)
from .galois import FinitePoset


@dataclass(frozen=True)
class NamedFiniteSet:
    """A finite set of distinct labels under a name."""

    name: str
    elements: tuple[Hashable, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("set name must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"set {self.name!r} has duplicate elements")

    def __contains__(self, x) -> bool:
        return x in set(self.elements)

    def index(self, x) -> int:
        return self.elements.index(x)


def subset_label(subset: frozenset, universe: NamedFiniteSet) -> str:
    """Canonical label of a subset: elements in universe order inside braces."""
    members = [str(x) for x in universe.elements if x in subset]
    return "{" + ",".join(members) + "}"


@dataclass(frozen=True)
class FiniteFunction:
    """A total function between named finite sets, given by its graph."""

    dom: NamedFiniteSet
    cod: NamedFiniteSet
    graph: Mapping[Hashable, Hashable]

    def __post_init__(self):
        cod_set = set(self.cod.elements)
        for x in self.dom.elements:
            if x not in self.graph:
                raise ValueError(f"function undefined on {x!r}")
            if self.graph[x] not in cod_set:
                raise ValueError(f"function sends {x!r} outside {self.cod.name!r}")
        for extra in set(self.graph) - set(self.dom.elements):
            raise ValueError(f"function defined on unknown element {extra!r}")

    def __call__(self, x):
        return self.graph[x]

    def is_injective(self) -> bool:
        images = [self.graph[x] for x in self.dom.elements]
        return len(set(images)) == len(images)

    def is_surjective(self) -> bool:
        return set(self.graph[x] for x in self.dom.elements) == set(self.cod.elements)

    @classmethod
    def identity(cls, s: NamedFiniteSet) -> "FiniteFunction":
        return cls(s, s, {x: x for x in s.elements})


def compose_functions(g: FiniteFunction, f: FiniteFunction) -> FiniteFunction:
    """The composite "f then g"."""
    if f.cod != g.dom:
        raise ValueError("functions are not composable")
    return FiniteFunction(f.dom, g.cod, {x: g(f(x)) for x in f.dom.elements})


@dataclass(frozen=True)
class FiniteRelation:
    """A relation between named finite sets: a set of (source, target) pairs."""

    dom: NamedFiniteSet
    cod: NamedFiniteSet
    pairs: frozenset

    def __post_init__(self):
        dom_set = set(self.dom.elements)
        cod_set = set(self.cod.elements)
        for x, y in self.pairs:
            if x not in dom_set or y not in cod_set:
                raise ValueError(f"pair ({x!r}, {y!r}) falls outside the universes")

    @classmethod
    def diagonal(cls, s: NamedFiniteSet) -> "FiniteRelation":
        return cls(s, s, frozenset((x, x) for x in s.elements))


def compose_relations(s: FiniteRelation, r: FiniteRelation) -> FiniteRelation:
    """Relational composite "r then s": pairs (x, z) with some y related both ways."""
    if r.cod != s.dom:
        raise ValueError("relations are not composable")
    mid: dict[Hashable, set] = {}
    for y, z in s.pairs:
        mid.setdefault(y, set()).add(z)
    pairs = frozenset(
        (x, z) for x, y in r.pairs for z in mid.get(y, ())
    )
    return FiniteRelation(r.dom, s.cod, pairs)


@dataclass(frozen=True)
class FiniteMonoid:
    """Elements with a total binary table and a unit; laws checked on demand."""

    elements: tuple[str, ...]
    unit: str
    mult: Mapping[tuple[str, str], str]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate monoid elements")
        if self.unit not in set(self.elements):
            raise ValueError(f"unit {self.unit!r} is not an element")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.mult:
                    raise ValueError(f"multiplication undefined on ({a!r}, {b!r})")
                if self.mult[(a, b)] not in set(self.elements):
                    raise ValueError(f"product of ({a!r}, {b!r}) is not an element")

    def law_violation(self) -> tuple | None:
        """First witness breaking associativity or a unit law, or None."""
        for a in self.elements:
            if self.mult[(self.unit, a)] != a:
                return ("left-unit", a)
            if self.mult[(a, self.unit)] != a:
                return ("right-unit", a)
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    left = self.mult[(self.mult[(a, b)], c)]
                    right = self.mult[(a, self.mult[(b, c)])]
                    if left != right:
                        return ("associativity", a, b, c)
        return None

    @classmethod
    def cyclic(cls, n: int) -> "FiniteMonoid":
        """Addition mod n on elements "0".."n-1"."""
        elems = tuple(str(i) for i in range(n))
        mult = {
            (str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)
        }
        return cls(elems, "0", mult)


@dataclass(frozen=True)
class MatrixOverZp:
    """A rows x cols matrix with entries reduced mod the prime p."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            for e in row:
                if not 0 <= e < self.p:
                    raise ValueError(f"entry {e} not reduced mod {self.p}")

    @classmethod
    def identity(cls, p: int, n: int) -> "MatrixOverZp":
        return cls(
            p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def multiply(self, other: "MatrixOverZp") -> "MatrixOverZp":
        """Ordinary matrix product self · other (self.cols must equal other.rows)."""
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("matrices are not multiplicable")
        entries = tuple(
            tuple(
                sum(self.entries[i][t] * other.entries[t][j] for t in range(self.cols))
                % self.p
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return MatrixOverZp(self.p, self.rows, other.cols, entries)


def _function_arrow_name(fn: FiniteFunction) -> str:
    body = ",".join(f"{x}:{fn.graph[x]}" for x in fn.dom.elements)
    return f"{fn.dom.name}->{fn.cod.name}{{{body}}}"


def _relation_arrow_name(rel: FiniteRelation) -> str:
    order = {x: i for i, x in enumerate(rel.dom.elements)}
    corder = {y: i for i, y in enumerate(rel.cod.elements)}
    pairs = sorted(rel.pairs, key=lambda xy: (order[xy[0]], corder[xy[1]]))
    body = ",".join(f"({x},{y})" for x, y in pairs)
    return f"{rel.dom.name}->{rel.cod.name}{{{body}}}"


def _matrix_name(m: MatrixOverZp) -> str:
    body = ";".join(",".join(str(e) for e in row) for row in m.entries)
    return f"{m.rows}x{m.cols}[{body}]"


class _WrappedCategory(CategoryView):
    """Delegating view over a materialized FiniteCategory."""

    category: FiniteCategory

    @property
    def objects(self) -> tuple[ObjectId, ...]:
        return self.category.objects

    def hom(self, a, b):
        return self.category.hom(a, b)

    def dom(self, f):
        return self.category.dom(f)

    def cod(self, f):
        return self.category.cod(f)

    def compose(self, g, f):
        return self.category.compose(g, f)

    def identity(self, a):
        return self.category.identity(a)

    def all_arrows(self):
        return self.category.all_arrows()


@dataclass(frozen=True)
class FinSetCategory(_WrappedCategory):
    """All functions between the given sets, with element-level access."""

    category: FiniteCategory
    sets: Mapping[str, NamedFiniteSet]
    functions: Mapping[ArrowId, FiniteFunction]

    def function(self, f: ArrowId) -> FiniteFunction:
        try:
            return self.functions[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None


@dataclass(frozen=True)
class FinRelCategory(_WrappedCategory):
    """All relations between the given sets, with pair-level access."""

    category: FiniteCategory
    sets: Mapping[str, NamedFiniteSet]
    relations: Mapping[ArrowId, FiniteRelation]

    def relation(self, f: ArrowId) -> FiniteRelation:
        try:
            return self.relations[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None


def build_finset(
    sets: Iterable[NamedFiniteSet], cap: int = 4, budget: int = DEFAULT_BUDGET
) -> FinSetCategory:
    """Category with the given sets as objects and ALL functions as arrows.

    Hom-set sizes grow as |Y| ** |X|, so each set is capped (default 4) and
    the total arrow count must stay within the budget.
    """
    sets = tuple(sets)
    if len(set(s.name for s in sets)) != len(sets):
        raise ValueError("duplicate set names")
    for s in sets:
        if len(s.elements) > cap:
            raise EnumerationBudgetExceeded(
                f"set {s.name!r} has {len(s.elements)} elements, cap is {cap}"
            )
    total = sum(
        len(cod.elements) ** len(dom.elements) for dom in sets for cod in sets
    )
    if total > budget:
        raise EnumerationBudgetExceeded(
            f"{total} functions exceed the budget of {budget}"
        )

    functions: dict[ArrowId, FiniteFunction] = {}
    arrows: list[Arrow] = []
    for dom in sets:
        for cod in sets:
            for images in itertools.product(cod.elements, repeat=len(dom.elements)):
                fn = FiniteFunction(dom, cod, dict(zip(dom.elements, images)))
                name = _function_arrow_name(fn)
                functions[name] = fn
                arrows.append(Arrow(name, dom.name, cod.name))
    identities = {
        s.name: _function_arrow_name(FiniteFunction.identity(s)) for s in sets
    }
    composition: dict[tuple[ArrowId, ArrowId], ArrowId] = {}
    for f_name, f in functions.items():
        for g_name, g in functions.items():
            if f.cod == g.dom:
                composition[(g_name, f_name)] = _function_arrow_name(
                    compose_functions(g, f)
                )
    category = FiniteCategory(
        tuple(s.name for s in sets), tuple(arrows), identities, composition
    )
    return FinSetCategory(category, {s.name: s for s in sets}, functions)


def build_finrel(
    sets: Iterable[NamedFiniteSet], cap: int = 2, budget: int = DEFAULT_BUDGET
) -> FinRelCategory:
    """Category of ALL relations between the given sets.

    A hom-set has 2 ** (|X|·|Y|) relations, so the default cap is tight.
    Composition is the usual relational composite; identities are diagonals.
    """
    sets = tuple(sets)
    if len(set(s.name for s in sets)) != len(sets):
        raise ValueError("duplicate set names")
    for s in sets:
        if len(s.elements) > cap:
            raise EnumerationBudgetExceeded(
                f"set {s.name!r} has {len(s.elements)} elements, cap is {cap}"
            )
    total = sum(
        2 ** (len(dom.elements) * len(cod.elements)) for dom in sets for cod in sets
    )
    if total > budget:
        raise EnumerationBudgetExceeded(
            f"{total} relations exceed the budget of {budget}"
        )

    relations: dict[ArrowId, FiniteRelation] = {}
    arrows: list[Arrow] = []
    for dom in sets:
        for cod in sets:
            all_pairs = [(x, y) for x in dom.elements for y in cod.elements]
            for mask in range(2 ** len(all_pairs)):
                chosen = frozenset(
                    p for i, p in enumerate(all_pairs) if mask & (1 << i)
                )
                rel = FiniteRelation(dom, cod, chosen)
                name = _relation_arrow_name(rel)
                relations[name] = rel
                arrows.append(Arrow(name, dom.name, cod.name))
    identities = {
        s.name: _relation_arrow_name(FiniteRelation.diagonal(s)) for s in sets
    }
    composition: dict[tuple[ArrowId, ArrowId], ArrowId] = {}
    for r_name, r in relations.items():
        for s_name, s in relations.items():
            if r.cod == s.dom:
                composition[(s_name, r_name)] = _relation_arrow_name(
                    compose_relations(s, r)
                )
    category = FiniteCategory(
        tuple(s.name for s in sets), tuple(arrows), identities, composition
    )
    return FinRelCategory(category, {s.name: s for s in sets}, relations)


def poset_arrow_name(a: str, b: str) -> str:
    return f"{a}<={b}"


def poset_as_category(P: FinitePoset) -> FiniteCategory:
    """Thin category: exactly one arrow a -> b when a <= b.

    Identities come from reflexivity, composition from transitivity.
    """
    arrows = [
        Arrow(poset_arrow_name(a, b), a, b)
        for a in P.elements
        for b in P.elements
        if P.le(a, b)
    ]
    identities = {a: poset_arrow_name(a, a) for a in P.elements}
    composition = {}
    for f in arrows:
        for g in arrows:
            if f.cod == g.dom:
                composition[(g.name, f.name)] = poset_arrow_name(f.dom, g.cod)
    return FiniteCategory(tuple(P.elements), tuple(arrows), identities, composition)


def poset_from_category(C: FiniteCategory) -> FinitePoset:
    """Read a thin category back as the poset of its nonempty hom-sets."""
    leq = frozenset(
        (a, b) for a in C.objects for b in C.objects if C.hom(a, b)
    )
    return FinitePoset(C.objects, leq)


def monoid_as_category(M: FiniteMonoid, object_name: str = "*") -> FiniteCategory:
    """One-object category whose arrows are the monoid elements.

    ``compose(g, f)`` is the product g·f; the identity arrow is the unit.
    Raises InvalidMonoid (with a witness) if the table breaks the laws.
    """
    witness = M.law_violation()
    if witness is not None:
        raise InvalidMonoid(f"monoid law broken: {witness!r}", witness=witness)
    arrows = tuple(Arrow(e, object_name, object_name) for e in M.elements)
    composition = {
        (g, f): M.mult[(g, f)] for g in M.elements for f in M.elements
    }
    return FiniteCategory((object_name,), arrows, {object_name: M.unit}, composition)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class MatCategory(CategoryView):
    """Matrices over Z_p, hom-sets enumerated on demand.

    Objects are the dimensions 0..max_dim (as strings); hom(n, m) lists every
    n x m matrix mod p in lexicographic entry order.  The composite of
    M : n -> m followed by N : m -> k is the n x k matrix product M·N.
    """

    p: int
    max_dim: int

    @property
    def objects(self) -> tuple[ObjectId, ...]:
        return tuple(str(n) for n in range(self.max_dim + 1))

    def _dim(self, a: ObjectId) -> int:
        try:
            n = int(a)
        except ValueError:
            raise UnknownObject(f"unknown object {a!r}") from None
        if not 0 <= n <= self.max_dim:
            raise UnknownObject(f"unknown object {a!r}")
        return n

    def matrix(self, f: ArrowId) -> MatrixOverZp:
        """Parse an arrow name back into its matrix."""
        try:
            dims, rest = f.split("[", 1)
            rows_s, cols_s = dims.split("x")
            rows, cols = int(rows_s), int(cols_s)
            body = rest[:-1] if rest.endswith("]") else None
            if body is None:
                raise ValueError
            if rows == 0 or cols == 0:
                entries: tuple[tuple[int, ...], ...] = tuple(
                    () for _ in range(rows)
                )
                if body != ";".join("" for _ in range(rows)):
                    raise ValueError
            else:
                entries = tuple(
                    tuple(int(e) for e in row.split(",")) for row in body.split(";")
                )
            m = MatrixOverZp(self.p, rows, cols, entries)
        except (ValueError, IndexError):
            raise UnknownArrow(f"unknown arrow {f!r}") from None
        if rows > self.max_dim or cols > self.max_dim:
            raise UnknownArrow(f"arrow {f!r} exceeds dimension {self.max_dim}")
        return m

    def hom(self, a: ObjectId, b: ObjectId) -> tuple[ArrowId, ...]:
        n, m = self._dim(a), self._dim(b)
        names = []
        for flat in itertools.product(range(self.p), repeat=n * m):
            entries = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
            names.append(_matrix_name(MatrixOverZp(self.p, n, m, entries)))
        return tuple(names)

    def dom(self, f: ArrowId) -> ObjectId:
        return str(self.matrix(f).rows)

    def cod(self, f: ArrowId) -> ObjectId:
        return str(self.matrix(f).cols)

    def compose(self, g: ArrowId, f: ArrowId) -> ArrowId:
        mf = self.matrix(f)
        mg = self.matrix(g)
        if mf.cols != mg.rows:
            raise ValueError(f"arrows not composable: {f!r} then {g!r}")
        return _matrix_name(mf.multiply(mg))

    def identity(self, a: ObjectId) -> ArrowId:
        return _matrix_name(MatrixOverZp.identity(self.p, self._dim(a)))


def build_mat(p: int, max_dim: int, budget: int = DEFAULT_BUDGET) -> MatCategory:
    """Lazily enumerated category of matrices over the prime field Z_p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if p ** (max_dim * max_dim) > budget:
        raise EnumerationBudgetExceeded(
            f"hom({max_dim}, {max_dim}) holds {p ** (max_dim * max_dim)} matrices, "
            f"budget is {budget}"
        )
    return MatCategory(p, max_dim)
