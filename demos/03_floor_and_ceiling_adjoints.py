"""Adjoints on posets, computed from best approximations.

The inclusion of the integers into a grid of halves has adjoints on both
sides: the right adjoint is the floor, the left adjoint is the ceiling.
A map can also fail to have an adjoint, for a reason worth seeing.
"""

from fincat import (
    FinitePoset,
    MonotoneMap,
    best_approximation,
    left_adjoint,
    right_adjoint,
    verify_adjunction,
)
from fincat.demos import run_demo
from fincat.galois import approximation_report, integer_grid_inclusion

# The packaged walkthrough: both adjoints, checked against arithmetic.
print("\n".join(run_demo("floor-ceiling")))
print()

# The defining equivalence holds on every (integer, grid point) pair; the
# certificate also re-checks the derived laws such as f.g.f = f.
inclusion = integer_grid_inclusion(5, 2)
cert = verify_adjunction(left_adjoint(inclusion), inclusion)
print("ceiling -| inclusion verified on", cert.verified_on, "pairs")
cert = verify_adjunction(inclusion, right_adjoint(inclusion))
print("inclusion -| floor verified on", cert.verified_on, "pairs")
print()

# Surjectivity is not enough for an adjoint: map an antichain onto a point
# and the approximants of that point have no least member.
g = MonotoneMap(
    FinitePoset.antichain(["y1", "y2"]),
    FinitePoset.chain(["x"]),
    {"y1": "x", "y2": "x"},
)
status = approximation_report(g, "x")
print("approximants of x:", status.approximants)
print("best approximation:", best_approximation(g, "x"), f"({status.status})")
print("left adjoint of g:", left_adjoint(g))
