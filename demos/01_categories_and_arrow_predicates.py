"""A first tour: build small categories and decide arrow-level predicates.

Everything is an explicit table, so each answer below is obtained by
enumerating arrows, never by a formula about elements.
"""

from fincat import (
    FiniteMonoid,
    NamedFiniteSet,
    build_finset,
    find_inverse,
    is_epic,
    is_groupoid,
    is_monic,
    monoid_as_category,
    validate,
)

# All functions between a one-point set and a two-point set.
dot = NamedFiniteSet("Dot", ("*",))
two = NamedFiniteSet("Two", ("0", "1"))
fs = build_finset([dot, two])

print("objects:", fs.objects)
print("arrow count:", len(fs.arrows))
print("axioms hold:", validate(fs).ok)
print()

# Left-cancellable agrees with injective, right-cancellable with surjective,
# checked arrow by arrow against the element-level facts.
for name in fs.all_arrows():
    fn = fs.function(name)
    print(
        f"{name:22}  monic={is_monic(fs, name)!s:5}  injective={fn.is_injective()!s:5}"
        f"  epic={is_epic(fs, name)!s:5}  surjective={fn.is_surjective()!s:5}"
    )
print()

# The swap on Two is its own two-sided inverse; a constant map has none.
swap = "Two->Two{0:1,1:0}"
collapse = "Two->Two{0:0,1:0}"
print("inverse of swap:     ", find_inverse(fs, swap))
print("inverse of collapse: ", find_inverse(fs, collapse))
print()

# A group is a one-object category where every arrow has an inverse.
z2 = monoid_as_category(FiniteMonoid.cyclic(2))
print("Z_2 as a one-object category is a groupoid:", is_groupoid(z2))
