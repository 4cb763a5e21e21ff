"""Finite category theory and categorical logic, decided by exhaustive
verification over explicit finite instances.

The package loads nothing up front.  A name below resolves on first access
by importing its home module (PEP 562), so ``import fincat.core`` costs only
``core`` and ``errors``.  ``from fincat import *`` still loads every module.
Resolved names are not kept in this namespace: each access reads the home
module, so a name rebound there is seen here too.
"""

from importlib import import_module

#: Each module of the namespace with the names it exports.
_EXPORTS = {
    "builders": (
        "FinRelCategory", "FinSetCategory", "FiniteFunction", "FiniteMonoid",
        "FiniteRelation", "MatCategory", "MatrixOverZp", "NamedFiniteSet",
        "build_finrel", "build_finset", "build_mat", "monoid_as_category",
        "poset_as_category", "poset_from_category",
    ),
    "core": (
        "Arrow", "AxiomReport", "DEFAULT_BUDGET", "FiniteCategory", "find_inverse",
        "is_epic", "is_groupoid", "is_isomorphism", "is_monic", "materialize",
        "opposite", "validate",
    ),
    "errors": (),
    "firstorder": (
        "AssignmentSet", "FORelation", "FOStructure", "projection_adjoints",
        "satisfies", "tarski_denotation", "verify_generalization_rule",
    ),
    "formulas": ("parse_formula",),
    "functors": (
        "Functor", "MonoidHom", "check_functoriality", "check_iso_preservation",
        "compose_functors", "monoid_hom_as_functor", "monotone_as_functor",
        "powerset_functor",
    ),
    "galois": (
        "AdjunctionCertificate", "FinitePoset", "MonotoneMap", "best_approximation",
        "floor_ceiling_demo", "left_adjoint", "right_adjoint", "verify_adjunction",
    ),
    "logic": (
        "KripkeFrame", "SubsetOf", "Universe", "boolean_implication", "box",
        "check_box_adjunction", "check_implication_adjunction",
        "check_quantifier_adjunctions", "direct_image", "eval_modal",
        "heyting_implication", "inverse_image", "relation_post_image",
        "universal_image", "wp",
    ),
    "nno": (
        "BoundedNaturalSystem", "MediationReport", "RecursionData", "check_mediation",
        "dedekind_prefix_check", "nno_search", "numeral", "primrec_eval",
    ),
    "universal": (
        "Cone", "IsoCertificate", "ProductCertificate", "find_coproducts",
        "find_initials", "find_products", "find_terminals", "finite_product",
        "product_iso_certificate", "terminal_iso_certificate",
        "verify_equational_product",
    ),
}

#: Every exported name, a module's own name among them, to its home module.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
