"""Universal constructions found by exhaustive search: terminal objects,
binary and finite products, and uniqueness-up-to-unique-isomorphism
certificates.

A product certificate records the apex with its projections and the full
mediator table (one entry per cone), so the uniqueness claims can be
replayed literally instead of trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import ArrowId, FiniteCategory, Kernel, ObjectId
from .errors import NotAProduct, NotTerminal


@dataclass(frozen=True)
class Cone:
    """A span apex <- left / right -> over a fixed pair of objects."""

    apex: ObjectId
    left: ArrowId
    right: ArrowId


@dataclass(frozen=True)
class ProductCertificate:
    """An apex-with-projections plus the mediator of every cone over (A, B)."""

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


@dataclass(frozen=True)
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
    (forward,) = C.hom(t, t_prime)
    (backward,) = C.hom(t_prime, t)
    checks = []
    round_trip = C.compose(backward, forward)
    if round_trip != C.identity(t):
        raise NotTerminal(f"composite {round_trip!r} is not the identity of {t!r}")
    checks.append(f"{backward}∘{forward} = {C.identity(t)}")
    round_trip = C.compose(forward, backward)
    if round_trip != C.identity(t_prime):
        raise NotTerminal(f"composite {round_trip!r} is not the identity of {t_prime!r}")
    checks.append(f"{forward}∘{backward} = {C.identity(t_prime)}")
    return IsoCertificate(forward, backward, tuple(checks))


def _universal_mediators(
    K: Kernel, a: ObjectId, b: ObjectId, apex: ObjectId, p1: int, p2: int
) -> dict[Cone, ArrowId] | None:
    """Mediator table for the candidate (apex, p1, p2), or None if any cone
    has anything but exactly one mediating arrow.

    Each h into the apex is filed under (p1∘h, p2∘h), read off the rows of
    the projections; a key filed twice has two mediators."""
    names, pos = K.names, K.pos
    row1, row2 = K.rows[p1], K.rows[p2]
    mediators: dict[Cone, ArrowId] = {}
    for z in K.objects:
        found: dict[tuple[int, int], int | None] = {}
        for h in K.hom(z, apex):
            key = (row1[pos[h]], row2[pos[h]])
            found[key] = None if key in found else h
        for f in K.hom(z, a):
            for g in K.hom(z, b):
                h = found.get((f, g))
                if h is None:
                    return None
                mediators[Cone(z, names[f], names[g])] = names[h]
    return mediators


def find_products(C: FiniteCategory, a: ObjectId, b: ObjectId) -> list[ProductCertificate]:
    """Every apex-with-projections satisfying the universal property for (a, b).

    All witnesses are returned, each with its full mediator table; the list
    is empty when no product exists.  Mediator search is pure enumeration of
    hom-sets, in hom order, so results are deterministic.

    An apex is skipped when, for some z, hom(z, apex) has fewer arrows than
    there are cones over (a, b) from z: each cone needs a mediator of its
    own, so some cone would lack one whatever the projections.
    """
    K = C.kernel()
    certificates = []
    cones = None
    for apex in C.objects:
        p1s = K.hom(apex, a)
        p2s = K.hom(apex, b) if p1s else ()
        if p2s:
            if cones is None:
                cones = [len(K.hom(z, a)) * len(K.hom(z, b)) for z in C.objects]
            if any(len(K.hom(z, apex)) < n for z, n in zip(C.objects, cones)):
                continue
        for p1 in p1s:
            for p2 in p2s:
                mediators = _universal_mediators(K, a, b, apex, p1, p2)
                if mediators is not None:
                    cone = Cone(apex, K.names[p1], K.names[p2])
                    certificates.append(ProductCertificate(cone, mediators))
    return certificates


def is_equational_product(
    C: FiniteCategory, a: ObjectId, b: ObjectId, apex: ObjectId, p1: ArrowId, p2: ArrowId
) -> bool:
    """The purely equational product characterization, checked standalone.

    Requires (i) every cone over (a, b) admits at least one arrow commuting
    with the projections, and (ii) distinct arrows into the apex never share
    both projection composites, so each h equals the pairing of its own
    components.  Agrees with the universal-property search on every category.
    """
    for z in C.objects:
        into_apex = C.hom(z, apex)
        seen: dict[tuple[ArrowId, ArrowId], ArrowId] = {}
        for h in into_apex:
            key = (C.compose(p1, h), C.compose(p2, h))
            if key in seen:
                return False
            seen[key] = h
        for f in C.hom(z, a):
            for g in C.hom(z, b):
                if (f, g) not in seen:
                    return False
    return True


def verify_equational_product(C: FiniteCategory, cert: ProductCertificate) -> bool:
    """Check h = <pi1∘h, pi2∘h> for every arrow h into the certificate's apex.

    Expects the projection equations of the mediator table to hold already;
    returns False as soon as some h differs from the recorded mediator of its
    own cone (or that cone is missing from the table).
    """
    apex = cert.apex
    for z in C.objects:
        for h in C.hom(z, apex):
            cone = Cone(z, C.compose(cert.pi1, h), C.compose(cert.pi2, h))
            if cert.mediators.get(cone) != h:
                return False
    return True


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
        raise NotAProduct(
            f"certificates concern different pairs {pair1!r} and {pair2!r}"
        )
    forward = cert2.mediators.get(cert1.cone)
    backward = cert1.mediators.get(cert2.cone)
    if forward is None or backward is None:
        raise NotAProduct("mediator tables do not cover the other certificate's cone")
    checks = []
    composite = C.compose(backward, forward)
    if composite != C.identity(cert1.apex):
        raise NotAProduct(f"{backward!r}∘{forward!r} is not the identity")
    checks.append(f"{backward}∘{forward} = {C.identity(cert1.apex)}")
    composite = C.compose(forward, backward)
    if composite != C.identity(cert2.apex):
        raise NotAProduct(f"{forward!r}∘{backward!r} is not the identity")
    checks.append(f"{forward}∘{backward} = {C.identity(cert2.apex)}")
    respecting = [
        w
        for w in C.hom(cert1.apex, cert2.apex)
        if C.compose(cert2.pi1, w) == cert1.pi1 and C.compose(cert2.pi2, w) == cert1.pi2
    ]
    if respecting != [forward]:
        raise NotAProduct(
            f"expected exactly one projection-respecting arrow, found {respecting!r}"
        )
    checks.append(f"unique projection-respecting arrow: {forward}")
    return IsoCertificate(forward, backward, tuple(checks))


@dataclass(frozen=True)
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
