"""Quantifiers computed two ways: by their satisfaction clauses and as
adjoints of inverse image along a projection.

Implication gets the same treatment on subsets (Boolean) and on down-sets
of a poset (intuitionistic), where it is the right adjoint of meet.
"""

from fincat import (
    FinitePoset,
    FiniteFunction,
    NamedFiniteSet,
    SubsetOf,
    boolean_implication,
    check_implication_adjunction,
    check_quantifier_adjunctions,
    direct_image,
    heyting_implication,
    inverse_image,
    universal_image,
)
from fincat.demos import run_demo
from fincat.logic import down_sets

# The three images of a single function form an adjoint triple.
ab = NamedFiniteSet("AB", ("a", "b"))
zero = NamedFiniteSet("Zero", ("0",))
collapse = FiniteFunction(ab, zero, {"a": "0", "b": "0"})
s = SubsetOf.of(ab, ["a"])
print("direct image of {a}:   ", direct_image(collapse, s).sorted_members())
print("universal image of {a}:", universal_image(collapse, s).sorted_members())
print("inverse image of {0}:  ", inverse_image(collapse, SubsetOf.of(zero, ["0"])).sorted_members())
print("triple adjunction over all subset pairs:", check_quantifier_adjunctions(collapse).ok)
print()

# The packaged walkthrough: Tarskian denotations against pointwise evaluation.
print("\n".join(run_demo("quantifiers")))
print()

# Implication as an adjoint of intersection, Boolean and Heyting.
x = SubsetOf.of(ab, ["a"])
y = SubsetOf.of(ab, ["b"])
print("{a} => {b} =", boolean_implication(x, y).sorted_members())
print("adjunction over all triples:", check_implication_adjunction(ab).ok)

chain = FinitePoset.chain(["bot", "top"])
result = heyting_implication(chain, frozenset({"bot", "top"}), frozenset({"bot"}))
print("down-sets of the 2-chain:", [sorted(d) for d in down_sets(chain)])
print("({bot,top} => {bot}) in the down-set lattice:", sorted(result))
