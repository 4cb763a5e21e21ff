"""Finite category theory and categorical logic, decided by exhaustive
verification over explicit finite instances."""

from .builders import (
    FinRelCategory,
    FinSetCategory,
    FiniteFunction,
    FiniteMonoid,
    FiniteRelation,
    MatCategory,
    MatrixOverZp,
    NamedFiniteSet,
    build_finrel,
    build_finset,
    build_mat,
    monoid_as_category,
    poset_as_category,
    poset_from_category,
)
from .core import (
    Arrow,
    AxiomReport,
    DEFAULT_BUDGET,
    FiniteCategory,
    find_inverse,
    is_epic,
    is_groupoid,
    is_isomorphism,
    is_monic,
    materialize,
    opposite,
    validate,
)
from .firstorder import (
    AssignmentSet,
    FORelation,
    FOStructure,
    projection_adjoints,
    satisfies,
    tarski_denotation,
    verify_generalization_rule,
)
from .formulas import parse_formula
from .functors import (
    Functor,
    MonoidHom,
    check_functoriality,
    check_iso_preservation,
    compose_functors,
    monoid_hom_as_functor,
    monotone_as_functor,
    powerset_functor,
)
from .galois import (
    AdjunctionCertificate,
    FinitePoset,
    MonotoneMap,
    best_approximation,
    floor_ceiling_demo,
    left_adjoint,
    right_adjoint,
    verify_adjunction,
)
from .logic import (
    KripkeFrame,
    SubsetOf,
    Universe,
    boolean_implication,
    box,
    check_box_adjunction,
    check_implication_adjunction,
    check_quantifier_adjunctions,
    direct_image,
    eval_modal,
    heyting_implication,
    inverse_image,
    relation_post_image,
    universal_image,
    wp,
)
from .nno import (
    BoundedNaturalSystem,
    MediationReport,
    RecursionData,
    check_mediation,
    dedekind_prefix_check,
    nno_search,
    numeral,
    primrec_eval,
)
from .universal import (
    Cone,
    IsoCertificate,
    ProductCertificate,
    find_coproducts,
    find_initials,
    find_products,
    find_terminals,
    finite_product,
    product_iso_certificate,
    terminal_iso_certificate,
    verify_equational_product,
)

__version__ = "0.1.0"
