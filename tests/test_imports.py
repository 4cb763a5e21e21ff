"""What importing fincat costs and provides.

fincat needs only the standard library at runtime: every import in
`src/fincat` names the package itself or a standard-library module.  An
installed third-party package would let a stray import pass every other
test, so that check reads the sources instead of importing them.

The package namespace is lazy: a name resolves to its home module's object
on first access, and a session loads only the modules it uses, never
``dataclasses`` or ``inspect``.  The module sets are checked in a fresh
interpreter, as this process has loaded them all.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fincat

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "fincat").glob("*.py"))

#: The public namespace, each name under its home module, as the eager
#: import block of the package exported it.
EXPORTS = {
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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [
        name for name in imported
        if name.split(".")[0] != "fincat" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, f"{path.name} imports {outside}"


def test_star_import_exports_the_same_names():
    namespace = {}
    exec("from fincat import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 94
    assert namespace.keys() == {*EXPORTS, *(name for names in EXPORTS.values() for name in names)}


@pytest.mark.parametrize("home", sorted(EXPORTS))
def test_every_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"fincat.{home}")
    assert getattr(fincat, home) is module
    for name in EXPORTS[home]:
        assert getattr(fincat, name) is getattr(module, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fincat.no_such_name
    assert not hasattr(fincat, "validate_all")


def test_a_name_rebound_in_its_home_module_is_read_from_there(monkeypatch):
    # a wrapper installed in the home module, as a tracer installs one, must
    # not outlive its removal in the package namespace
    monkeypatch.setattr(fincat.core, "validate", "rebound")
    assert fincat.validate == "rebound"
    monkeypatch.undo()
    assert fincat.validate is fincat.core.validate


def loaded_modules(code: str, prefix: str = "fincat") -> set[str]:
    """The modules named ``prefix``... that a fresh interpreter has loaded after ``code``."""
    report = f"import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


VALIDATE = (
    "import contextlib, io\n"
    "from fincat import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.run(['validate', 'fixtures/twochain.json']) == 0"
)


def test_import_core_loads_only_core_and_errors():
    assert loaded_modules("import fincat.core") == {"fincat", "fincat.core", "fincat.errors"}


def test_validate_on_a_category_file_loads_only_the_category_modules():
    assert loaded_modules(VALIDATE) == {"fincat", "fincat.cli", "fincat.formats", "fincat.core", "fincat.errors"}


@pytest.mark.parametrize("code", ["from fincat import *", VALIDATE], ids=["star_import", "cli_validate"])
def test_no_session_loads_dataclasses_or_inspect(code):
    # records compile only their __init__; neither module is needed at run time
    assert not loaded_modules(code, prefix="") & {"dataclasses", "inspect"}


ADJOINTS = (
    "import contextlib, io\n"
    "from fincat import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.run(['adjoints', 'fixtures/inclusion.json']) == 0"
)


@pytest.mark.parametrize("code", ["import fincat.galois", ADJOINTS], ids=["galois", "cli_adjoints"])
def test_orders_load_neither_fractions_nor_decimal(code):
    # grid labels, floors and ceilings are integer arithmetic
    assert not loaded_modules(code, prefix="") & {"fractions", "decimal"}


def test_star_import_loads_every_namespace_module():
    loaded = loaded_modules("from fincat import *")
    assert loaded == {"fincat", *(f"fincat.{home}" for home in EXPORTS)}
