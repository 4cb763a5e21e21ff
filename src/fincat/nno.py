"""Natural-numbers structure at desk scale: bounded numerals, iteration as
primitive recursion, mediation checking against the recursion square, and
exhaustive search for natural-numbers objects inside finite categories.

A finite category cannot contain the natural numbers; what can be decided
exhaustively is (a) the mediation equations on a bounded prefix and (b)
whether any object of a given finite category satisfies the universal
property relative to everything the category itself contains.
"""

from __future__ import annotations

from typing import Mapping

from .builders import NamedFiniteSet
from .core import ArrowId, FiniteCategory, Kernel, ObjectId
from .errors import BoundExceeded, record
from .universal import find_terminals


@record
class BoundedNaturalSystem:
    """Numerals 0..bound with an explicit successor table.

    The successor of the top numeral is intentionally undefined; every
    property is checked on the bounded prefix only.  The table is free-form
    so broken systems can be built and refuted.
    """

    bound: int
    labels: tuple[str, ...]
    succ: Mapping[str, str]

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be at least 1")
        if len(self.labels) != self.bound + 1:
            raise ValueError("need exactly bound + 1 numeral labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("numeral labels must be distinct")
        known = set(self.labels)
        for i in range(self.bound):
            if self.labels[i] not in self.succ:
                raise ValueError(f"successor undefined on {self.labels[i]!r}")
        for key, value in self.succ.items():
            if key not in known or value not in known:
                raise ValueError("successor table mentions unknown numerals")
        if self.labels[self.bound] in self.succ:
            raise ValueError("successor of the top numeral must stay undefined")

    @property
    def zero(self) -> str:
        return self.labels[0]

    @classmethod
    def standard(cls, bound: int) -> "BoundedNaturalSystem":
        labels = tuple(str(i) for i in range(bound + 1))
        succ = {str(i): str(i + 1) for i in range(bound)}
        return cls(bound, labels, succ)


def numeral(sys: BoundedNaturalSystem, n: int) -> str:
    """The composite description of the n-th numeral: z, s ∘ z, s ∘ s ∘ z, ..."""
    if not 0 <= n <= sys.bound:
        raise BoundExceeded(f"numeral {n} outside [0, {sys.bound}]")
    return " ∘ ".join(["s"] * n + ["z"])


@record
class RecursionData:
    """A carrier with a start element and a total self-map: one recursion."""

    carrier: NamedFiniteSet
    start: str
    step: Mapping[str, str]

    def __post_init__(self):
        if self.start not in self.carrier:
            raise ValueError(f"start element {self.start!r} is not in the carrier")
        for x in self.carrier.elements:
            if x not in self.step:
                raise ValueError(f"step undefined on {x!r}")
            if self.step[x] not in self.carrier:
                raise ValueError(f"step leaves the carrier at {x!r}")


def primrec_eval(data: RecursionData, n: int) -> str:
    """Apply the step n times to the start element."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    value = data.start
    for _ in range(n):
        value = data.step[value]
    return value


@record
class MediationReport:
    """Outcome of checking the recursion square on a bounded prefix."""

    checked_up_to: int
    equations_hold: bool
    witness: int | None


def check_mediation(
    data: RecursionData, h: Mapping[int, str], up_to: int
) -> MediationReport:
    """Verify h(0) = start and h(n+1) = step(h(n)) for n < up_to.

    The witness is the smallest index at which the square breaks; with the
    base equation counted at index 0, that is the first index where h
    departs from the iteration trace.
    """
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    for i in range(up_to + 1):
        if i not in h:
            raise ValueError(f"mediator undefined at {i}")
    if h[0] != data.start:
        return MediationReport(up_to, False, 0)
    for n in range(up_to):
        if h[n + 1] != data.step[h[n]]:
            return MediationReport(up_to, False, n + 1)
    return MediationReport(up_to, True, None)


@record
class NnoSearchResult:
    """All (N, z, s) triples satisfying the universal property, plus a note
    when the search could not even start."""

    triples: tuple[tuple[ObjectId, ArrowId, ArrowId], ...]
    note: str | None = None


def nno_search(C: FiniteCategory) -> NnoSearchResult:
    """Exhaustively test every candidate (N, z, s) against every (A, c, f).

    A candidate qualifies when for each object A, each point c : 1 -> A and
    each self-map f : A -> A there is exactly one h : N -> A with h∘z = c
    and h∘s = f∘h.  The quantification ranges over the finite category
    itself, which is exactly why tiny categories can admit degenerate
    winners while any category with a two-element object refutes them all.
    """
    K = C.kernel()
    terminals = find_terminals(C)
    if not terminals:
        return NnoSearchResult((), note="no terminal object")
    homs, points = K.homs, K.homs[K.object_ids[terminals[0]]]
    recursion_data = [(a, c, f) for a, maps in enumerate(homs) for c in points[a] for f in maps[a]]
    winners = []
    for n, maps in enumerate(homs):
        for z in points[n]:
            for s in maps[n]:
                if _mediates_uniquely(K, n, z, s, recursion_data):
                    winners.append((K.objects[n], K.names[z], K.names[s]))
    return NnoSearchResult(tuple(winners))


def _mediates_uniquely(K: Kernel, n: int, z: int, s: int, recursion_data) -> bool:
    """Exactly one h : n -> a with h∘z = c and h∘s = f∘h, for every (a, c, f)."""
    rows, pos, out = K.rows, K.pos, K.homs[n]
    at_z, at_s = pos[z], pos[s]
    for a, c, f in recursion_data:
        row_f = rows[f]
        count = 0
        for h in out[a]:
            row_h = rows[h]
            if row_h[at_z] == c and row_h[at_s] == row_f[pos[h]]:
                count += 1
                if count > 1:
                    return False
        if count != 1:
            return False
    return True


@record
class DedekindReport:
    """Successor injectivity and image on the bounded prefix.

    The top numeral has no successor, so surjectivity onto the nonzero
    numerals is only meaningful on the prefix; the boundary note records
    that exemption.
    """

    ok: bool
    witness: str | None
    boundary_note: str

    def __bool__(self) -> bool:
        return self.ok


def dedekind_prefix_check(sys: BoundedNaturalSystem) -> DedekindReport:
    """Check that the successor is injective and its image avoids exactly zero."""
    prefix = sys.labels[: sys.bound]
    note = (
        f"successor of {sys.labels[sys.bound]!r} is undefined beyond the bound; "
        "image checked on the prefix only"
    )
    seen: dict[str, str] = {}
    for x in prefix:
        y = sys.succ[x]
        if y in seen:
            return DedekindReport(
                False, f"successor repeats {y!r} (from {seen[y]!r} and {x!r})", note
            )
        seen[y] = x
    if sys.zero in seen:
        return DedekindReport(
            False, f"zero numeral {sys.zero!r} lies in the successor image", note
        )
    missing = set(sys.labels) - {sys.zero} - set(seen)
    if missing:
        return DedekindReport(
            False, f"nonzero numerals {sorted(missing)!r} miss the successor image", note
        )
    return DedekindReport(True, None, note)
