"""One operator, two readings: the weakest precondition of a
nondeterministic program and necessity over Kripke frames.

[R]T collects the points whose R-successors all land in T.  It is the right
adjoint of the relational post-image, and that adjunction is checked over
every subset pair.
"""

from fincat import (
    FiniteRelation,
    KripkeFrame,
    NamedFiniteSet,
    SubsetOf,
    eval_modal,
    parse_formula,
)
from fincat.demos import run_demo

# The packaged walkthrough: [R]T and its left adjoint on two states.
print("\n".join(run_demo("wp")))
print()

# The same operator drives the usual possible-worlds semantics.
states = NamedFiniteSet("states", ("1", "2", "3"))
program = FiniteRelation(
    states, states, frozenset({("1", "2"), ("2", "2"), ("3", "1"), ("3", "3")})
)
frame = KripkeFrame(
    states,
    program,
    {"p": SubsetOf.of(states, ["2"]), "q": SubsetOf.of(states, ["1", "3"])},
)
print("accessibility:", sorted(program.pairs))
for text in ("box p", "dia p", "box (p | q)", "q -> box p"):
    value = eval_modal(frame, parse_formula(text))
    print(f"worlds satisfying {text!r}:", value.sorted_members())
