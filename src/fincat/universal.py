"""Universal constructions found by exhaustive search: terminal objects,
binary and finite products, and uniqueness-up-to-unique-isomorphism
certificates.  Initial objects and coproducts are the terminal objects and
products of the opposite category.

The searches read the kernel by id and make names only for what they
return.  A product certificate records the apex with its projections and
the full mediator table (one entry per cone), so the uniqueness claims can
be replayed literally instead of trusted.  The table keeps mediator ids and
makes a name only when an entry is read.  The equational characterization
of products is a test oracle, ``is_equational_product`` in the tests.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache

from .core import ArrowId, FiniteCategory, Kernel, ObjectId, opposite
from .errors import NotAProduct, NotTerminal, record


@record
class Cone:
    """A span apex <- left / right -> over a fixed pair of objects."""

    apex: ObjectId
    left: ArrowId
    right: ArrowId


@record
class ProductCertificate:
    """An apex-with-projections plus the mediator of every cone over (A, B).

    A search hands over a read-only mediator table, named on read: a cone is
    looked up in an index that all certificates of the pair share, and only
    the mediator read is named.  ``dict(cert.mediators)`` is a plain copy."""

    cone: Cone
    mediators: Mapping[Cone, ArrowId]

    @property
    def apex(self) -> ObjectId:
        return self.cone.apex

    @property
    def pi1(self) -> ArrowId:
        return self.cone.left

    @property
    def pi2(self) -> ArrowId:
        return self.cone.right


@record
class IsoCertificate:
    """Two mutually inverse arrows with the equations that were verified."""

    forward: ArrowId
    backward: ArrowId
    commuting_checks: tuple[str, ...]


def find_terminals(C: FiniteCategory) -> list[ObjectId]:
    """All objects T with exactly one arrow into T from every object."""
    K = C.kernel()
    span = range(len(K.objects))
    return [K.objects[t] for t in span if all(len(K.homs[a][t]) == 1 for a in span)]


def find_initials(C: FiniteCategory) -> list[ObjectId]:
    """All objects I with exactly one arrow out of I to every object."""
    return find_terminals(opposite(C))


def terminal_iso_certificate(
    C: FiniteCategory, t: ObjectId, t_prime: ObjectId
) -> IsoCertificate:
    """The unique isomorphism between two terminal objects.

    Constructed from the unique arrows each way; their composites land in
    singleton hom-sets that already contain the identities, and the
    certificate records both equations after checking them literally.
    """
    terminals = set(find_terminals(C))
    for obj in (t, t_prime):
        if obj not in terminals:
            raise NotTerminal(f"object {obj!r} is not terminal")
    K = C.kernel()
    t, t_prime = K.object_ids[t], K.object_ids[t_prime]
    (forward,), (backward,) = K.homs[t][t_prime], K.homs[t_prime][t]
    names, checks = K.names, []
    for g, f, end in ((backward, forward, t), (forward, backward, t_prime)):
        round_trip, identity = K.compose(g, f), K.identity[end]
        if round_trip != identity:
            raise NotTerminal(f"composite {names[round_trip]!r} is not the identity of {K.objects[end]!r}")
        checks.append(f"{names[g]}∘{names[f]} = {names[identity]}")
    return IsoCertificate(names[forward], names[backward], tuple(checks))


class _MediatorTable(Mapping):
    """Mediator ids in cone order over the ``{Cone: position}`` index that
    ``index()`` makes once for the pair; each read makes one name."""

    __slots__ = ("_index", "_ids", "_names")

    def __init__(self, index, ids: list[int], names: tuple[ArrowId, ...]):
        self._index, self._ids, self._names = index, ids, names

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._index())

    def __getitem__(self, cone: Cone) -> ArrowId:
        return self._names[self._ids[self._index()[cone]]]

    def __repr__(self) -> str:
        return repr(dict(self))


def _universal_mediators(
    K: Kernel, a: int, b: int, apex: int, p1: int, p2: int
) -> list[int] | None:
    """The mediator ids of the candidate (apex, p1, p2), in cone order, or
    None if any cone has anything but exactly one mediating arrow.

    Each h into the apex is filed under (p1∘h, p2∘h), read off the rows of
    the projections as the number (p1∘h) * |arrows| + p2∘h; a key filed
    twice has two mediators.  No name is made."""
    n, pos, row1, row2 = len(K.names), K.pos, K.rows[p1], K.rows[p2]
    table = []
    for homs in K.homs:
        found: dict[int, int | None] = {}
        for h in homs[apex]:
            at = pos[h]
            key = row1[at] * n + row2[at]
            found[key] = None if key in found else h
        for f in homs[a]:
            f *= n
            for g in homs[b]:
                h = found.get(f + g)
                if h is None:
                    return None
                table.append(h)
    return table


def find_products(C: FiniteCategory, a: ObjectId, b: ObjectId) -> list[ProductCertificate]:
    """Every apex-with-projections satisfying the universal property for (a, b).

    All witnesses are returned, each with its full mediator table; the list
    is empty when no product exists.  Mediator search is pure enumeration of
    hom-sets, in hom order, so results are deterministic.

    An apex is skipped when, for some z, hom(z, apex) and the cones over
    (a, b) from z differ in size: a product makes h |-> (p1∘h, p2∘h) a
    bijection from the one onto the other, whatever the projections.
    """
    K = C.kernel()
    a, b = K.object_id(a), K.object_id(b)  # an unknown name raises, though C may have no apex
    homs, objects, names, certificates, cones = K.homs, K.objects, K.names, [], None

    @cache
    def index() -> dict[Cone, int]:  # made on the first read of any table, once for all
        keys = ((z, f, g) for z, row in enumerate(homs) for f in row[a] for g in row[b])
        return {Cone(objects[z], names[f], names[g]): n for n, (z, f, g) in enumerate(keys)}

    for apex, out in enumerate(homs):
        p1s = out[a]
        p2s = out[b] if p1s else ()
        if p2s:
            if cones is None:
                cones = [len(row[a]) * len(row[b]) for row in homs]
            if any(len(row[apex]) != n for row, n in zip(homs, cones)):
                continue
        for p1 in p1s:
            for p2 in p2s:
                ids = _universal_mediators(K, a, b, apex, p1, p2)
                if ids is not None:
                    cone = Cone(objects[apex], names[p1], names[p2])
                    certificates.append(ProductCertificate(cone, _MediatorTable(index, ids, names)))
    return certificates


def find_coproducts(C: FiniteCategory, a: ObjectId, b: ObjectId) -> list[ProductCertificate]:
    """The products of (a, b) in the opposite category: each cone is a
    cocone, ``pi1`` and ``pi2`` are the injections a -> apex and b -> apex,
    and each mediator goes out of the apex, keyed by the cocone it factors."""
    return find_products(opposite(C), a, b)


def verify_equational_product(C: FiniteCategory, cert: ProductCertificate) -> bool:
    """Check h = <pi1∘h, pi2∘h> for every arrow h into the certificate's apex.

    Expects the projection equations of the mediator table to hold already;
    returns False as soon as some h differs from the recorded mediator of its
    own cone (or that cone is missing from the table).
    """
    K = C.kernel()
    names, p1, p2, apex = K.names, K.arrow_id(cert.pi1), K.arrow_id(cert.pi2), K.object_id(cert.apex)
    for z, homs in zip(K.objects, K.homs):
        for h in homs[apex]:
            cone = Cone(z, names[_after(C, p1, h)], names[_after(C, p2, h)])
            if cert.mediators.get(cone) != names[h]:
                return False
    return True


def _after(C: FiniteCategory, g: int, f: int) -> int:
    """The id of g∘f; a pair that does not compose raises as ``C.compose`` does."""
    K = C.kernel()
    return K.rows[g][K.pos[f]] if K.cod[f] == K.dom[g] else C.compose(K.names[g], K.names[f])


def product_iso_certificate(
    C: FiniteCategory, cert1: ProductCertificate, cert2: ProductCertificate
) -> IsoCertificate:
    """The unique projection-respecting isomorphism between two product apexes.

    Both certificates must concern the same object pair; the mediators of
    each cone in the other certificate compose to identities, and exactly
    one arrow between the apexes commutes with both projection pairs.
    """
    pair1 = (C.cod(cert1.pi1), C.cod(cert1.pi2))
    pair2 = (C.cod(cert2.pi1), C.cod(cert2.pi2))
    if pair1 != pair2:
        raise NotAProduct(f"certificates concern different pairs {pair1!r} and {pair2!r}")
    forward = cert2.mediators.get(cert1.cone)
    backward = cert1.mediators.get(cert2.cone)
    if forward is None or backward is None:
        raise NotAProduct("mediator tables do not cover the other certificate's cone")
    checks = []
    for g, f, apex in ((backward, forward, cert1.apex), (forward, backward, cert2.apex)):
        if C.compose(g, f) != C.identity(apex):
            raise NotAProduct(f"{g!r}∘{f!r} is not the identity")
        checks.append(f"{g}∘{f} = {C.identity(apex)}")
    K = C.kernel()
    p1, p2, q1, q2 = map(K.arrow_id, (cert1.pi1, cert1.pi2, cert2.pi1, cert2.pi2))
    respecting = [
        K.names[w] for w in K.homs[K.object_id(cert1.apex)][K.object_id(cert2.apex)]
        if _after(C, q1, w) == p1 and _after(C, q2, w) == p2
    ]
    if respecting != [forward]:
        raise NotAProduct(f"expected exactly one projection-respecting arrow, found {respecting!r}")
    checks.append(f"unique projection-respecting arrow: {forward}")
    return IsoCertificate(forward, backward, tuple(checks))


@record
class FiniteProductCertificate:
    """Apex and projections of an n-ary product built by folding binary ones."""

    factors: tuple[ObjectId, ...]
    apex: ObjectId
    projections: tuple[ArrowId, ...]


def finite_product(
    C: FiniteCategory, objects: list[ObjectId]
) -> FiniteProductCertificate | None:
    """Product of a finite family: terminal object when empty, the object
    itself when a singleton, else a left fold of binary products.

    Folding picks the first certificate at each stage (deterministic); any
    other choice differs by a certified unique isomorphism.  Returns None
    as soon as some stage has no product.
    """
    if not objects:
        terminals = find_terminals(C)
        if not terminals:
            return None
        return FiniteProductCertificate((), terminals[0], ())
    if len(objects) == 1:
        only = objects[0]
        return FiniteProductCertificate(
            (only,), only, (C.identity(only),)
        )
    apex = objects[0]
    projections: list[ArrowId] = [C.identity(objects[0])]
    for nxt in objects[1:]:
        certs = find_products(C, apex, nxt)
        if not certs:
            return None
        cert = certs[0]
        projections = [C.compose(p, cert.pi1) for p in projections]
        projections.append(cert.pi2)
        apex = cert.apex
    return FiniteProductCertificate(tuple(objects), apex, tuple(projections))
