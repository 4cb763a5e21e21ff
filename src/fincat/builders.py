"""Construction of the stock example categories as explicit instances.

Covers: all functions between named finite sets, all relations, a poset as
a thin category, a monoid as a one-object category, and matrices over a
prime field, whose composites are made by id as the deciders read them.
Arrow names are canonical and deterministic (graphs serialized in element
order) so fixtures reproduce byte for byte.  These categories keep only
their kernel; a function or relation, kept as its rows of target masks, or
a matrix is made on read from the offset of its arrow in its hom-set.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping

from .core import (
    ArrowId,
    DEFAULT_BUDGET,
    FiniteCategory,
    Lazy,
    take,
    validate,
)
from .errors import EnumerationBudgetExceeded, InvalidMonoid, record
from .galois import FinitePoset, bits, select


@record
class NamedFiniteSet:
    """A finite set of distinct labels under a name.  ``positions``, each
    element's index, is derived and not a field: equality ignores it."""

    name: str
    elements: tuple[Hashable, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("set name must be nonempty")
        vars(self)["positions"] = {x: i for i, x in enumerate(self.elements)}
        if len(self.positions) != len(self.elements):
            raise ValueError(f"set {self.name!r} has duplicate elements")

    def __contains__(self, x) -> bool:
        return x in self.positions

    def index(self, x) -> int:
        if x not in self.positions:
            raise ValueError(f"{x!r} is not in set {self.name!r}")
        return self.positions[x]


def subset_label(subset: frozenset, universe: NamedFiniteSet) -> str:
    """Canonical label of a subset: elements in universe order inside braces."""
    members = [str(x) for x in universe.elements if x in subset]
    return "{" + ",".join(members) + "}"


@record(init=False)
class FiniteRelation:
    """A relation between named finite sets, given by its (source, target) pairs;
    ``rows[i]`` is the mask of the ``cod`` elements related to ``dom.elements[i]``."""

    dom: NamedFiniteSet
    cod: NamedFiniteSet
    rows: tuple[int, ...]

    def __init__(self, dom: NamedFiniteSet, cod: NamedFiniteSet, pairs: Iterable[tuple]):
        rows, at, to = [0] * len(dom.elements), dom.positions, cod.positions
        try:
            for x, y in pairs:
                rows[at[x]] |= 1 << to[y]
        except KeyError:
            raise ValueError(f"pair ({x!r}, {y!r}) falls outside the universes") from None
        vars(self).update(dom=dom, cod=cod, rows=tuple(rows))

    @classmethod
    def _from_rows(cls, dom: NamedFiniteSet, cod: NamedFiniteSet, rows: tuple[int, ...]):
        arrow = cls.__new__(cls)
        vars(arrow).update(dom=dom, cod=cod, rows=rows)
        return arrow

    @property
    def pairs(self) -> frozenset:
        """The related pairs, made from the rows on each read."""
        targets = self.cod.elements
        return frozenset((x, y) for x, row in zip(self.dom.elements, self.rows) for y in select(targets, row))

    @classmethod
    def diagonal(cls, s: NamedFiniteSet) -> "FiniteRelation":
        return cls._from_rows(s, s, tuple(1 << i for i in range(len(s.elements))))


@record(init=False)
class FiniteFunction(FiniteRelation):
    """A total function between named finite sets: a relation with one-bit rows."""

    def __init__(self, dom: NamedFiniteSet, cod: NamedFiniteSet, graph: Mapping[Hashable, Hashable]):
        at = cod.positions
        for x in dom.elements:
            if x not in graph:
                raise ValueError(f"function undefined on {x!r}")
            if graph[x] not in at:
                raise ValueError(f"function sends {x!r} outside {cod.name!r}")
        for extra in (x for x in graph if x not in dom.positions):
            raise ValueError(f"function defined on unknown element {extra!r}")
        vars(self).update(dom=dom, cod=cod, rows=tuple([1 << at[graph[x]] for x in dom.elements]))

    @property
    def graph(self) -> dict[Hashable, Hashable]:
        """The function by name, in domain element order, made on each read."""
        return {x: self.cod.elements[row.bit_length() - 1] for x, row in zip(self.dom.elements, self.rows)}

    def __call__(self, x):
        return self.cod.elements[self.rows[self.dom.positions[x]].bit_length() - 1]

    def is_injective(self) -> bool:
        return len(set(self.rows)) == len(self.rows)

    def is_surjective(self) -> bool:
        return len(set(self.rows)) == len(self.cod.elements)

    #: The identity on a set, its diagonal read as a function.
    identity = classmethod(FiniteRelation.diagonal.__func__)


@record
class FiniteMonoid:
    """Elements with a total binary table and a unit; laws checked on demand."""

    elements: tuple[str, ...]
    unit: str
    mult: Mapping[tuple[str, str], str]

    def __post_init__(self):
        elements = set(self.elements)
        if len(elements) != len(self.elements):
            raise ValueError("duplicate monoid elements")
        if self.unit not in elements:
            raise ValueError(f"unit {self.unit!r} is not an element")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.mult:
                    raise ValueError(f"multiplication undefined on ({a!r}, {b!r})")
                if self.mult[(a, b)] not in elements:
                    raise ValueError(f"product of ({a!r}, {b!r}) is not an element")

    def law_violation(self) -> tuple | None:
        """First witness breaking a unit law or associativity, or None: the
        unit laws element by element, then the triples (a, b, c) with
        (a·b)·c ≠ a·(b·c) in element order, as :func:`monoid_as_category`
        reads them off :func:`validate`."""
        try:
            monoid_as_category(self)
        except InvalidMonoid as exc:
            return exc.witness
        return None

    @classmethod
    def cyclic(cls, n: int) -> "FiniteMonoid":
        """Addition mod n on elements "0".."n-1"."""
        elems = tuple(str(i) for i in range(n))
        mult = {
            (str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)
        }
        return cls(elems, "0", mult)


@record
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


def _function_arrow_name(dom: NamedFiniteSet, cod: NamedFiniteSet, images: Iterable) -> str:
    """The name of the function sending the elements of ``dom`` to ``images``."""
    body = ",".join(f"{x}:{y}" for x, y in zip(dom.elements, images))
    return f"{dom.name}->{cod.name}{{{body}}}"


def _hom_code(C: FiniteCategory, f: ArrowId) -> tuple[int, int, int]:
    """The dom and cod ids of the arrow ``f``, and its offset in their hom-set."""
    K = C.kernel()
    i = K.arrow_id(f)
    a, b = K.dom[i], K.cod[i]
    return a, b, i - K.homs[a][b][0]


@record(eq=False)
class FinSetCategory(FiniteCategory):
    """All functions between the given sets; each is made on read from its id."""

    sets: Mapping[str, NamedFiniteSet]

    def function(self, f: ArrowId) -> FiniteFunction:
        """The function an arrow name renders."""
        a, b, code = _hom_code(self, f)
        X, Y = self.sets[self.objects[a]], self.sets[self.objects[b]]
        images = _digits(code, len(Y.elements), len(X.elements))
        return FiniteFunction._from_rows(X, Y, tuple([1 << j for j in images]))

    @cached_property
    def functions(self) -> dict[ArrowId, FiniteFunction]:
        """Every arrow's function, in arrow order; made on first read and kept."""
        return {f: self.function(f) for f in self.all_arrows()}


@record(eq=False)
class FinRelCategory(FiniteCategory):
    """All relations between the given sets; each is made on read from its id."""

    sets: Mapping[str, NamedFiniteSet]

    def relation(self, f: ArrowId) -> FiniteRelation:
        """The relation an arrow name renders."""
        a, b, code = _hom_code(self, f)
        X, Y = self.sets[self.objects[a]], self.sets[self.objects[b]]
        return FiniteRelation._from_rows(X, Y, _digits(code, 1 << len(Y.elements), len(X.elements))[::-1])

    @cached_property
    def relations(self) -> dict[ArrowId, FiniteRelation]:
        """Every arrow's relation, in arrow order; made on first read and kept."""
        return {f: self.relation(f) for f in self.all_arrows()}


def _all_arrows(
    cls: type[FiniteCategory], sets: Iterable[NamedFiniteSet], cap: int, budget: int,
    kind: str, count: Callable[[int, int], int],
    hom: Callable[[NamedFiniteSet, NamedFiniteSet], dict],
    identity: Callable[[NamedFiniteSet], tuple], table: Callable[[tuple], list | tuple],
) -> FiniteCategory:
    """The ``cls`` category with the given sets as objects and every arrow
    of a kind; its ``sets`` field maps each name to its set.

    ``count(|X|, |Y|)`` is the size of hom(X, Y); the non-empty homs, then
    the arrows, are checked against the budget before anything is built.
    ``hom(X, Y)`` maps the key of each arrow X -> Y to its name, in hom
    order; ``identity(S)`` is the key of the identity of S; and the key of
    "f then g", which lands in the hom from dom f to cod g, is ``table(g)``
    read at the positions that the key of f lists.  Each name is rendered
    once, by ``hom``, from its key, each table is made once per g, and each
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
    # only a hom from a non-empty set into an empty one can be empty
    empty = sum(not s.elements for s in sets)
    homs = len(sets) ** 2 - (0 if count(1, 0) else empty * (len(sets) - empty))
    _require_arrows(homs, kind, budget, "at least ")
    _require_arrows(sum(count(len(x.elements), len(y.elements)) for x in sets for y in sets),
                    kind, budget)

    names: list[ArrowId] = []
    keys: list[tuple] = []
    dom, cod = [], []
    ids = [[{} for _ in sets] for _ in sets]  # ids[i][j]: key -> id of the arrow
    spans = [[range(0) for _ in sets] for _ in sets]  # spans[i][j]: ids of the hom
    for i, x in enumerate(sets):
        for j, y in enumerate(sets):
            arrows = hom(x, y)
            spans[i][j] = range(len(names), len(names) + len(arrows))
            ids[i][j] = dict(zip(arrows, spans[i][j]))
            names += arrows.values()
            keys += arrows
            dom += [i] * len(arrows)
            cod += [j] * len(arrows)
    pickers = [take(key) for key in keys]
    rows = []
    for j in range(len(sets)):
        for k in range(len(sets)):
            for g in spans[j][k]:
                entries = table(keys[g])
                row: list[int] = []
                for i in range(len(sets)):
                    into_k = ids[i][k]
                    row.extend([into_k[pickers[f](entries)] for f in spans[i][j]])
                rows.append(tuple(row))
    identity_ids = [ids[i][i][identity(s)] for i, s in enumerate(sets)]
    objects = tuple(s.name for s in sets)
    return cls.from_rows(objects, names, dom, cod, identity_ids, rows, sets=dict(zip(objects, sets)))


def _require_arrows(total: int, kind: str, budget: int, bound: str = "") -> None:
    """Raise unless ``total`` items of a kind fit, ``bound`` naming a lower
    bound; a total too long to print is named by the power of 2 below it."""
    if total > budget:
        try:
            count = f"{bound}{total}"
        except ValueError:  # past the int -> str digit limit
            count = f"at least 2^{total.bit_length() - 1}"
        raise EnumerationBudgetExceeded(f"{count} {kind} exceed the budget of {budget}")


def build_finset(
    sets: Iterable[NamedFiniteSet], cap: int = 4, budget: int = DEFAULT_BUDGET
) -> FinSetCategory:
    """Category with the given sets as objects and ALL functions as arrows.

    Hom-set sizes grow as |Y| ** |X|, so each set is capped (default 4) and
    the total arrow count must stay within the budget.  A function is keyed
    by its tuple of image positions, so a composite is a tuple lookup, and
    its offset in its hom-set is the base-|Y| code of that tuple.
    """

    def hom(dom: NamedFiniteSet, cod: NamedFiniteSet) -> dict:
        keys = itertools.product(range(len(cod.elements)), repeat=len(dom.elements))
        return {images: _function_arrow_name(dom, cod, map(cod.elements.__getitem__, images))
                for images in keys}

    return _all_arrows(
        FinSetCategory, sets, cap, budget, "functions", lambda x, y: y ** x, hom,
        lambda s: tuple(range(len(s.elements))), lambda images: images,
    )


def build_finrel(
    sets: Iterable[NamedFiniteSet], cap: int = 2, budget: int = DEFAULT_BUDGET
) -> FinRelCategory:
    """Category of ALL relations between the given sets.

    A hom-set has 2 ** (|X|·|Y|) relations, so the default cap is tight.
    Composition is the usual relational composite; identities are diagonals.
    A relation X -> Y is keyed by its rows, one mask of related elements of
    Y per element of X, and hom(X, Y) lists them in the order of the mask
    whose bit ``i·|Y| + j`` relates the i-th element of X to the j-th of Y,
    so its offset in its hom-set is that mask.
    """

    def hom(dom: NamedFiniteSet, cod: NamedFiniteSet) -> dict:
        # texts[i][row]: the pairs that the mask ``row`` relates element i to;
        # the last element's row is the most significant digit of the mask
        masks = range(1 << len(cod.elements))
        texts = [[",".join(f"({x},{y})" for y in select(cod.elements, row)) for row in masks]
                 for x in dom.elements]
        codes = itertools.product(masks, repeat=len(dom.elements))
        head = f"{dom.name}->{cod.name}{{"
        return {rows: head + ",".join(filter(None, map(list.__getitem__, texts, rows))) + "}"
                for rows in (code[::-1] for code in codes)}

    def unions(s_rows: tuple[int, ...]) -> list[int]:
        # entry m is the union of the rows of s that the mask m picks, so row i
        # of "r then s" is the entry at row i of r
        table = [0]
        for row in s_rows:
            table += [union | row for union in table]
        return table

    return _all_arrows(
        FinRelCategory, sets, cap, budget, "relations", lambda x, y: 2 ** (x * y), hom,
        lambda s: tuple(1 << i for i in range(len(s.elements))), unions,
    )


def poset_as_category(P: FinitePoset) -> FiniteCategory:
    """Thin category: exactly one arrow a -> b, named ``a<=b``, when a <= b.

    Identities come from reflexivity, composition from transitivity: the
    composite of a <= b and b <= c is the arrow a <= c.  Arrows are listed
    by domain, then codomain, in element order, so the row of b <= c lists
    the arrows x <= c for every x <= b.  The category is made once per
    poset and kept on it.
    """
    if "_category" in P.__dict__:
        return P._category
    elements = P.elements
    names, dom, cod = [], [], []
    into_id = [[0] * len(elements) for _ in elements]  # into_id[b][a]: id of a <= b
    lower: list[list[int]] = [[] for _ in elements]  # lower[b]: the a <= b, in order
    for a, (x, ups) in enumerate(zip(elements, P.ups)):
        for b in bits(ups):
            into_id[b][a] = len(names)
            lower[b].append(a)
            names.append(f"{x}<={elements[b]}")
            dom.append(a)
            cod.append(b)
    below = list(map(take, lower))
    rows = [below[b](into_id[c]) for b, c in zip(dom, cod)]
    identity = [into_id[a][a] for a in range(len(elements))]
    C = FiniteCategory.from_rows(elements, names, dom, cod, identity, rows)
    object.__setattr__(P, "_category", C)
    return C


def poset_from_category(C: FiniteCategory) -> FinitePoset:
    """Read a thin category back as the poset of its nonempty hom-sets."""
    objects, homs = C.objects, C.kernel().homs
    ups = (sum(1 << b for b, hom in enumerate(row) if hom) for row in homs)
    return FinitePoset._from_ups(objects, ups)


def monoid_as_category(M: FiniteMonoid, object_name: str = "*") -> FiniteCategory:
    """One-object category whose arrows are the monoid elements.

    ``compose(g, f)`` is the product g·f; the identity arrow is the unit.
    Raises InvalidMonoid (with a witness) if the table breaks the laws.
    """
    names = M.elements
    ids = dict(zip(names, range(len(names))))
    rows = [tuple([ids[M.mult[(g, f)]] for f in names]) for g in names]
    ends = [0] * len(names)
    C = FiniteCategory.from_rows((object_name,), names, ends, ends, [ids[M.unit]], rows)
    report = validate(C)
    if not report.ok:
        # The unit laws come first in the report, element by element; the
        # associativity witnesses (h, g, f) are those of h·(g·f) ≠ (h·g)·f.
        first = report.violations[0]
        if first.law == "associativity":
            first = min(report.violations, key=lambda v: [ids[w] for w in v.witnesses])
        witness = (first.law, *first.witnesses)
        raise InvalidMonoid(f"monoid law broken: {witness!r}", witness=witness)
    return C


def _require_prime(p: int, budget: int) -> None:
    """Raise unless ``p`` is prime, by trial division; the isqrt(p) - 1
    divisions of a prime are charged to the budget, and a composite is
    refused as soon as the first ``budget`` of them find a divisor."""
    divisors = range(2, math.isqrt(p) + 1) if p > 1 else None
    if divisors is None or not all(p % d for d in divisors[:budget]):
        raise ValueError(f"{p} is not prime")
    _require_arrows(len(divisors), "trial divisions of p", budget)


@record(eq=False)
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
        n, m, code = _hom_code(self, f)
        flat = _digits(code, self.p, n * m)
        return MatrixOverZp(self.p, n, m, tuple(flat[r * m : (r + 1) * m] for r in range(n)))


def _digits(code: int, base: int, count: int) -> tuple[int, ...]:
    """The ``count`` base-``base`` digits of ``code``, most significant first."""
    return tuple(code // base ** i % base for i in reversed(range(count)))


def build_mat(p: int, max_dim: int, budget: int = DEFAULT_BUDGET) -> MatCategory:
    """Category of matrices over the prime field Z_p, dimensions 0..max_dim.

    The composite of M : n -> m followed by N : m -> k is the n x k matrix
    product M·N, whose i-th row is the i-th row of M times N.  Every arrow
    is listed when the category is built, once the (max_dim + 1)² hom-sets
    and then their total count, the sum of p^(n·m) over all pairs of
    dimensions, are within the budget, and p is found prime by trial
    divisions that fit it too; no composite is.  The row and the
    column of an arrow are made by id the first time a decider reads them,
    from the action of each arrow's matrix N on row vectors (the code of v
    to the code of v·N), so a question about one arrow computes only the
    composites it reads.  Each image is made when first read and kept: a
    row reads the whole action of its N, and a column under each N only the
    images of its own rows, until a second column that misses finds the
    action of N partly made and makes the rest.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    dims = range(max_dim + 1)
    # every hom-set holds at least the zero matrix
    _require_arrows(len(dims) ** 2, "matrices", budget, "at least ")
    _require_arrows(sum(p ** (n * m) for n in dims for m in dims), "matrices", budget)
    _require_prime(p, budget)
    objects = tuple(map(str, dims))
    names: list[ArrowId] = []
    dom, cod = [], []
    offset = [[0 for _ in dims] for _ in dims]  # offset[n][m]: id of the zero n x m matrix
    for n in dims:
        for m in dims:
            offset[n][m] = len(names)
            texts = [",".join(map(str, v)) for v in itertools.product(range(p), repeat=m)]
            for rows in itertools.product(texts, repeat=n):
                names.append(f"{n}x{m}[{';'.join(rows)}]")
            dom.extend([n] * (len(names) - offset[n][m]))
            cod.extend([m] * (len(names) - offset[n][m]))

    vectors = Lazy(lambda m: list(itertools.product(range(p), repeat=m)))  # by code
    # actions[g][r]: the code of v·N, for v the row vector of code r and N
    # the matrix of g, made when first read
    actions = Lazy(lambda g: [None] * p ** dom[g])

    def act(g: int, codes) -> list[int | None]:
        """The action of g with the images of ``codes`` made, or all of
        them once some are: a second read of g finds the rest made."""
        images, m, k = actions[g], dom[g], cod[g]
        if images.count(None) < len(images):
            codes = range(len(images))
        flat = _digits(g - offset[m][k], p, m * k)
        columns, vs = [flat[c::k] for c in range(k)], vectors[m]
        for r in codes:
            if images[r] is None:
                code = 0
                for column in columns:
                    code = code * p + sum(map(operator.mul, vs[r], column)) % p
                images[r] = code
        return images

    def row(g: int) -> tuple[int, ...]:
        # As the matrices of hom(n, dom g) run through their codes, the rows
        # of their products with g are the images of their rows, so each n
        # adds one comprehension over the codes of n - 1.
        k, images = cod[g], actions[g]
        if None in images:
            act(g, range(len(images)))
        width = p ** k
        composites: list[int] = []
        codes = [0]
        for n in dims:
            if n:
                codes = [code * width + image for code in codes for image in images]
            start = offset[n][k]
            composites.extend([start + code for code in codes])
        return tuple(composites)

    def column(f: int) -> tuple[int, ...]:
        # g∘f reads only the images under g of the n rows of f
        n, m = dom[f], cod[f]
        rows = _digits(f - offset[n][m], p ** m, n)
        composites = []
        for k in dims:
            start, width = offset[n][k], p ** k
            for g in range(offset[m][k], offset[m][k] + p ** (m * k)):
                images, code = actions[g], 0
                for r in rows:
                    image = images[r]
                    if image is None:
                        image = act(g, rows)[r]
                    code = code * width + image
                composites.append(start + code)
        return tuple(composites)

    # the identity on n has the row code p^j in row n - 1 - j
    identity = [offset[n][n] + sum(p ** ((n + 1) * j) for j in range(n)) for n in dims]
    return MatCategory.from_rows(
        objects, names, dom, cod, identity, Lazy(row), column, p=p, max_dim=max_dim
    )
