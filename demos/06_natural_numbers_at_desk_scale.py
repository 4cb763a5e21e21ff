"""What survives of the natural numbers inside finite categories.

A start element and a self-map determine an iteration trace; the mediation
equations pin that trace uniquely on any bounded prefix.  Searching a finite
category for an object with the full universal property refutes every
candidate as soon as a two-element set is around.
"""

from fincat import (
    BoundedNaturalSystem,
    NamedFiniteSet,
    RecursionData,
    build_finset,
    check_mediation,
    dedekind_prefix_check,
    nno_search,
    numeral,
    primrec_eval,
)

system = BoundedNaturalSystem.standard(5)
print("numerals:", [numeral(system, n) for n in range(4)])
print("successor prefix check:", dedekind_prefix_check(system).ok)
print()

# Iterating +1 mod 3 from 0: the unique mediator realizes counting mod 3.
data = RecursionData(
    NamedFiniteSet("Z3", ("0", "1", "2")), "0", {"0": "1", "1": "2", "2": "0"}
)
trace = {n: primrec_eval(data, n) for n in range(8)}
print("iteration trace:", [trace[n] for n in range(8)])
print("mediation equations hold:", check_mediation(data, trace, 7).equations_hold)

perturbed = dict(trace)
perturbed[4] = "0"
report = check_mediation(data, perturbed, 7)
print("perturbed trace fails at index:", report.witness)
print()

# The one-object category admits a degenerate winner (it contains nothing
# that could refute it); adding a two-element set refutes every candidate.
tiny = build_finset([NamedFiniteSet("One", ("*",))])
print("one-object category:", nno_search(tiny).triples)
bigger = build_finset(
    [NamedFiniteSet("One", ("*",)), NamedFiniteSet("Two", ("0", "1"))]
)
print("with a two-element set:", nno_search(bigger).triples)
