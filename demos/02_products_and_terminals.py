"""Universal constructions found by search: terminal objects and products.

The point of a universal property is uniqueness up to unique isomorphism,
so the finders return *every* witness together with certificates connecting
them.
"""

from fincat import (
    FinitePoset,
    NamedFiniteSet,
    build_finset,
    find_products,
    find_terminals,
    finite_product,
    poset_as_category,
    product_iso_certificate,
    terminal_iso_certificate,
)

# Two different singleton sets are both terminal; the connecting iso is
# forced, and its composites are literally the identities.
fs = build_finset(
    [NamedFiniteSet("P", ("p",)), NamedFiniteSet("Q", ("q",)), NamedFiniteSet("Two", ("0", "1"))]
)
terminals = find_terminals(fs)
print("terminal objects:", terminals)
cert = terminal_iso_certificate(fs, terminals[0], terminals[1])
for check in cert.commuting_checks:
    print("  verified:", check)
print()

# In a divisibility order, a product is a greatest common divisor.
divisibility = FinitePoset.from_relation(
    ["1", "2", "3", "6", "12"],
    [("1", "2"), ("1", "3"), ("2", "6"), ("3", "6"), ("6", "12")],
)
C = poset_as_category(divisibility)
for a, b in [("2", "3"), ("6", "12"), ("2", "12")]:
    certs = find_products(C, a, b)
    print(f"product of {a} and {b}: apex {certs[0].apex} (glb = {divisibility.glb(a, b)})")
print()

# A cartesian product in sets: every 4-element apex with suitable projections
# qualifies, and any two witnesses are joined by exactly one projection-
# respecting isomorphism.
fs4 = build_finset(
    [
        NamedFiniteSet("One", ("*",)),
        NamedFiniteSet("Two", ("0", "1")),
        NamedFiniteSet("Four", ("00", "01", "10", "11")),
    ]
)
certs = find_products(fs4, "Two", "Two")
print(f"witnesses for Two x Two: {len(certs)}, all with apex", certs[0].apex)
iso = product_iso_certificate(fs4, certs[0], certs[1])
print("unique iso between the first two witnesses:", iso.forward)
print()

# Finite families fold through binary products; the empty family is a
# terminal object.
family = finite_product(C, ["2", "3", "6"])
print("product of the family [2, 3, 6]:", family.apex)
empty = finite_product(fs, [])
print("empty product (a terminal object):", empty.apex)
