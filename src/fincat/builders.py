"""Construction of the stock example categories as explicit instances.

Covers: all functions between named finite sets, all relations, a poset as
a thin category, a monoid as a one-object category, and matrices over a
prime field, whose composites are made by id as the deciders read them.
Arrow names are canonical and deterministic (graphs serialized in element
order) so fixtures reproduce byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from .core import (
    Arrow,
    ArrowId,
    DEFAULT_BUDGET,
    FiniteCategory,
    Lazy,
    take,
)
from .errors import (
    EnumerationBudgetExceeded,
    InvalidMonoid,
    UnknownArrow,
)
from .galois import FinitePoset, bits


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
        columns = list(zip(*other.entries)) if other.rows else [()] * other.cols
        entries = tuple(
            tuple(sum(map(operator.mul, row, column)) % self.p for column in columns)
            for row in self.entries
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


@dataclass(frozen=True, eq=False)
class FinSetCategory(FiniteCategory):
    """All functions between the given sets, with element-level access."""

    sets: Mapping[str, NamedFiniteSet]
    functions: Mapping[ArrowId, FiniteFunction]

    def function(self, f: ArrowId) -> FiniteFunction:
        try:
            return self.functions[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None


@dataclass(frozen=True, eq=False)
class FinRelCategory(FiniteCategory):
    """All relations between the given sets, with pair-level access."""

    sets: Mapping[str, NamedFiniteSet]
    relations: Mapping[ArrowId, FiniteRelation]

    def relation(self, f: ArrowId) -> FiniteRelation:
        try:
            return self.relations[f]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {f!r}") from None


def _all_arrows(
    cls: type[FiniteCategory],
    sets: Iterable[NamedFiniteSet],
    cap: int,
    budget: int,
    kind: str,
    count: Callable[[int, int], int],
    hom: Callable[[NamedFiniteSet, NamedFiniteSet], dict],
    identity: Callable[[NamedFiniteSet], Hashable],
    after: Callable[[Hashable], Callable[[Hashable], Hashable]],
    **fields,
) -> FiniteCategory:
    """The ``cls`` category with the given sets as objects and every arrow
    of a kind; its ``sets`` field maps each name to its set, and ``fields``
    are its other extra fields.

    ``count(|X|, |Y|)`` is the size of hom(X, Y), checked against the budget
    before anything is built; ``hom(X, Y)`` maps the key of each arrow X -> Y
    to its name, in hom order; ``identity(S)`` is the key of the identity of
    S; and ``after(f)(g)`` is the key of "f then g", which lands in the hom
    from dom f to cod g.  Each name is rendered once, by ``hom``, and each
    composite is looked up once, by id, into the row of g.
    """
    sets = tuple(sets)
    if len(set(s.name for s in sets)) != len(sets):
        raise ValueError("duplicate set names")
    for s in sets:
        if len(s.elements) > cap:
            raise EnumerationBudgetExceeded(
                f"set {s.name!r} has {len(s.elements)} elements, cap is {cap}"
            )
    total = sum(count(len(x.elements), len(y.elements)) for x in sets for y in sets)
    if total > budget:
        raise EnumerationBudgetExceeded(f"{total} {kind} exceed the budget of {budget}")

    arrows: list[Arrow] = []
    keys = []
    ids = [[{} for _ in sets] for _ in sets]  # ids[i][j]: key -> id of the arrow
    spans = [[range(0) for _ in sets] for _ in sets]  # spans[i][j]: ids of the hom
    for i, x in enumerate(sets):
        for j, y in enumerate(sets):
            start = len(arrows)
            for key, name in hom(x, y).items():
                ids[i][j][key] = len(arrows)
                arrows.append(Arrow(name, x.name, y.name))
                keys.append(key)
            spans[i][j] = range(start, len(arrows))
    afters = [after(key) for key in keys]
    rows = []
    for j in range(len(sets)):
        for k in range(len(sets)):
            for g in spans[j][k]:
                key = keys[g]
                row: list[int] = []
                for i in range(len(sets)):
                    into_k = ids[i][k]
                    row.extend([into_k[afters[f](key)] for f in spans[i][j]])
                rows.append(tuple(row))
    identity_ids = [ids[i][i][identity(s)] for i, s in enumerate(sets)]
    names = tuple(s.name for s in sets)
    return cls.from_rows(
        names, tuple(arrows), identity_ids, rows, sets=dict(zip(names, sets)), **fields
    )


def build_finset(
    sets: Iterable[NamedFiniteSet], cap: int = 4, budget: int = DEFAULT_BUDGET
) -> FinSetCategory:
    """Category with the given sets as objects and ALL functions as arrows.

    Hom-set sizes grow as |Y| ** |X|, so each set is capped (default 4) and
    the total arrow count must stay within the budget.  A function is keyed
    by its tuple of image positions, so a composite is a tuple lookup.
    """
    functions: dict[ArrowId, FiniteFunction] = {}

    def hom(dom: NamedFiniteSet, cod: NamedFiniteSet) -> dict:
        names = {}
        for images in itertools.product(range(len(cod.elements)), repeat=len(dom.elements)):
            graph = {x: cod.elements[i] for x, i in zip(dom.elements, images)}
            fn = FiniteFunction(dom, cod, graph)
            names[images] = _function_arrow_name(fn)
            functions[names[images]] = fn
        return names

    return _all_arrows(
        FinSetCategory, sets, cap, budget, "functions", lambda x, y: y ** x, hom,
        lambda s: tuple(range(len(s.elements))), take, functions=functions,
    )


def build_finrel(
    sets: Iterable[NamedFiniteSet], cap: int = 2, budget: int = DEFAULT_BUDGET
) -> FinRelCategory:
    """Category of ALL relations between the given sets.

    A hom-set has 2 ** (|X|·|Y|) relations, so the default cap is tight.
    Composition is the usual relational composite; identities are diagonals.
    A relation X -> Y is keyed by its rows, one mask of related elements of
    Y per element of X, and hom(X, Y) lists them in the order of the mask
    whose bit ``i·|Y| + j`` relates the i-th element of X to the j-th of Y.
    """
    relations: dict[ArrowId, FiniteRelation] = {}

    def hom(dom: NamedFiniteSet, cod: NamedFiniteSet) -> dict:
        names = {}
        width = len(cod.elements)
        all_pairs = [(x, y) for x in dom.elements for y in cod.elements]
        for mask in range(2 ** len(all_pairs)):
            rel = FiniteRelation(dom, cod, frozenset(p for i, p in enumerate(all_pairs) if mask >> i & 1))
            rows = tuple(mask >> (i * width) & ((1 << width) - 1) for i in range(len(dom.elements)))
            names[rows] = _relation_arrow_name(rel)
            relations[names[rows]] = rel
        return names

    def after(r_rows: tuple[int, ...]):
        # row i of "r then s" is the union of the rows of s that row i of r picks
        return lambda s_rows: tuple(
            functools.reduce(operator.or_, map(s_rows.__getitem__, bits(row)), 0) for row in r_rows
        )

    return _all_arrows(
        FinRelCategory, sets, cap, budget, "relations", lambda x, y: 2 ** (x * y), hom,
        lambda s: tuple(1 << i for i in range(len(s.elements))), after, relations=relations,
    )


def poset_arrow_name(a: str, b: str) -> str:
    return f"{a}<={b}"


def poset_as_category(P: FinitePoset) -> FiniteCategory:
    """Thin category: exactly one arrow a -> b when a <= b.

    Identities come from reflexivity, composition from transitivity: the
    composite of a <= b and b <= c is the arrow a <= c.  Arrows are listed
    by domain, then codomain, in element order, so the row of b <= c lists
    the arrows x <= c for every x <= b.
    """
    elements = tuple(P.elements)
    arrows = []
    ends = []
    into_id = [[0] * len(elements) for _ in elements]  # into_id[b][a]: id of a <= b
    for a, ups in enumerate(P.ups):
        for b in bits(ups):
            into_id[b][a] = len(arrows)
            arrows.append(Arrow(poset_arrow_name(elements[a], elements[b]), elements[a], elements[b]))
            ends.append((a, b))
    below = [take(list(bits(downs))) for downs in P.downs]
    rows = [below[b](into_id[c]) for b, c in ends]
    identity = [into_id[a][a] for a in range(len(elements))]
    return FiniteCategory.from_rows(elements, tuple(arrows), identity, rows)


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
    ids = {e: i for i, e in enumerate(M.elements)}
    rows = [tuple(ids[M.mult[(g, f)]] for f in M.elements) for g in M.elements]
    return FiniteCategory.from_rows((object_name,), arrows, [ids[M.unit]], rows)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, eq=False)
class MatCategory(FiniteCategory):
    """Matrices over Z_p between the dimensions 0..max_dim, as strings.

    hom(n, m) lists every n x m matrix mod p in lexicographic entry order,
    so the id of an arrow is the offset of its hom plus the base-p code of
    its entries, and its name renders the entries row by row.
    """

    p: int
    max_dim: int

    def matrix(self, f: ArrowId) -> MatrixOverZp:
        """The matrix an arrow name renders."""
        K = self.kernel()
        i = K.arrow_id(f)
        n, m = K.dom[i], K.cod[i]
        flat = _digits(i - K.homs[n][m][0], self.p, n * m)
        return MatrixOverZp(self.p, n, m, tuple(flat[r * m : (r + 1) * m] for r in range(n)))


def _digits(code: int, base: int, count: int) -> tuple[int, ...]:
    """The ``count`` base-``base`` digits of ``code``, most significant first."""
    return tuple(code // base ** i % base for i in reversed(range(count)))


def build_mat(p: int, max_dim: int, budget: int = DEFAULT_BUDGET) -> MatCategory:
    """Category of matrices over the prime field Z_p, dimensions 0..max_dim.

    The composite of M : n -> m followed by N : m -> k is the n x k matrix
    product M·N, whose i-th row is the i-th row of M times N.  Every arrow
    is listed when the category is built, once their total count, the sum
    of p^(n·m) over all pairs of dimensions, is within the budget; no
    composite is.  The row and the column of an arrow are made by id the
    first time a decider reads them, from the action of each arrow's matrix
    N on row vectors (the code of v to the code of v·N), so a question about
    one arrow computes only the composites it reads.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    dims = range(max_dim + 1)
    total = sum(p ** (n * m) for n in dims for m in dims)
    if total > budget:
        raise EnumerationBudgetExceeded(f"{total} matrices exceed the budget of {budget}")
    objects = tuple(map(str, dims))
    arrows: list[Arrow] = []
    offset = [[0 for _ in dims] for _ in dims]  # offset[n][m]: id of the zero n x m matrix
    for n in dims:
        for m in dims:
            offset[n][m] = len(arrows)
            texts = [",".join(map(str, v)) for v in itertools.product(range(p), repeat=m)]
            for rows in itertools.product(texts, repeat=n):
                arrows.append(Arrow(f"{n}x{m}[{';'.join(rows)}]", objects[n], objects[m]))

    def action(g: int) -> list[int]:
        m, k = int(arrows[g].dom), int(arrows[g].cod)
        flat = _digits(g - offset[m][k], p, m * k)
        columns = [flat[c::k] for c in range(k)]
        images = []
        for v in itertools.product(range(p), repeat=m):
            code = 0
            for column in columns:
                code = code * p + sum(map(operator.mul, v, column)) % p
            images.append(code)
        return images

    actions = Lazy(action)

    def row(g: int) -> tuple[int, ...]:
        # As the matrices of hom(n, dom g) run through their codes, the rows
        # of their products with g are the images of their rows, so each n
        # adds one comprehension over the codes of n - 1.
        k = int(arrows[g].cod)
        images, width = actions[g], p ** k
        composites: list[int] = []
        codes = [0]
        for n in dims:
            if n:
                codes = [code * width + image for code in codes for image in images]
            start = offset[n][k]
            composites.extend([start + code for code in codes])
        return tuple(composites)

    def column(f: int) -> tuple[int, ...]:
        n, m = int(arrows[f].dom), int(arrows[f].cod)
        rows = _digits(f - offset[n][m], p ** m, n)
        composites = []
        for k in dims:
            start, width = offset[n][k], p ** k
            for g in range(offset[m][k], offset[m][k] + p ** (m * k)):
                images, code = actions[g], 0
                for r in rows:
                    code = code * width + images[r]
                composites.append(start + code)
        return tuple(composites)

    # the identity on n has the row code p^j in row n - 1 - j
    identity = [offset[n][n] + sum(p ** ((n + 1) * j) for j in range(n)) for n in dims]
    return MatCategory.from_rows(
        objects, tuple(arrows), identity, Lazy(row), column, p=p, max_dim=max_dim
    )
