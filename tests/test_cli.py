import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fincat.cli import run
from fincat.formats import parse_category

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def invoke(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([str(a) for a in argv])
    return code, out.getvalue()


class TestExitCodes:
    def test_ok_fail_error_triple_for_validate(self):
        assert invoke("validate", FIXTURES / "twochain.json")[0] == 0
        assert invoke("validate", FIXTURES / "twochain_broken.json")[0] == 1
        assert invoke("validate", FIXTURES / "twochain_malformed.json")[0] == 2

    def test_adjoints_fail_on_the_no_best_approximation_fixture(self):
        code, out = invoke("adjoints", FIXTURES / "gmap.json")
        assert code == 1
        assert "x has no best approximation" in out

    def test_adjoints_ok_on_the_inclusion_fixture(self):
        code, _ = invoke("adjoints", FIXTURES / "inclusion.json")
        assert code == 0

    def test_missing_file_is_an_error(self):
        code, out = invoke("validate", FIXTURES / "does_not_exist.json")
        assert code == 2

    def test_terminal_on_a_partial_compose_table_is_an_error(self, tmp_path):
        doc = json.loads((FIXTURES / "twochain.json").read_text())
        doc["compose"] = [{"after": "id_top", "then": "u", "is": "u"}]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("terminal", path)
        assert code == 2
        assert "compose table is partial: missing entry for ('id_bot', 'id_bot')" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("nno-demo", FIXTURES / "recursion.json", "--n", "-1"),
            ("fo-eval", FIXTURES / "structure.json", "--formula", "E(v1,v2)", "--context", "-1"),
        ],
        ids=["nno-demo", "fo-eval"],
    )
    def test_negative_counts_are_errors(self, argv):
        code, out = invoke(*argv)
        assert code == 2
        assert out == f"error: {argv[-2]} must be nonnegative, got -1\n"

    def test_unreadable_files_are_errors(self, tmp_path):
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff{}")
        null_path = tmp_path / "null_path.json"
        null_path.write_text(json.dumps({"dom": "\x00", "cod": "\x00", "graph": {}}))
        for argv in (("validate", not_utf8), ("adjoints", null_path)):
            code, out = invoke(*argv)
            assert code == 2
            assert "cannot read file" in out

    def test_fail_reports_carry_witnesses(self):
        code, out = invoke("--json", "validate", FIXTURES / "twochain_broken.json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert doc["witnesses"]


class TestVerbs:
    def test_predicates_single_arrow(self):
        code, out = invoke("predicates", FIXTURES / "twochain.json", "--arrow", "u")
        assert code == 0
        assert "u: monic, epic, not iso" in out

    def test_products_json_matches_module_output(self):
        code, out = invoke(
            "--json", "products", FIXTURES / "poset_divisibility.json", "--pair", "2", "3"
        )
        assert code == 0
        doc = json.loads(out)
        certs = doc["payload"]["certificates"]
        assert [c["apex"] for c in certs] == ["1"]
        assert certs[0]["pi1"] == "1<=2"
        assert certs[0]["mediators"]

    def test_products_fail_when_absent(self):
        code, out = invoke(
            "products", FIXTURES / "finset.json", "--pair", "Two", "Two"
        )
        assert code == 1
        assert "no product" in out

    def test_terminal_lists_isos(self):
        code, out = invoke("terminal", FIXTURES / "finset.json")
        assert code == 0
        assert "One" in out

    def test_functor_check(self):
        code, out = invoke("functor-check", FIXTURES / "functor_identity.json")
        assert code == 0
        assert "isomorphism preservation: True" in out

    def test_functor_check_between_different_categories(self):
        code, out = invoke("functor-check", FIXTURES / "functor_chain.json")
        assert code == 0

    def test_functor_check_reports_broken_typing(self):
        code, out = invoke("functor-check", FIXTURES / "functor_broken.json")
        assert code == 1
        assert "arrow-typing" in out

    def test_wp(self):
        code, out = invoke("wp", FIXTURES / "frame.json", "--target", "p")
        assert code == 0
        assert "[R]T = {1,2}" in out

    def test_modal_eval(self):
        code, out = invoke(
            "modal-eval", FIXTURES / "frame.json", "--formula", "dia p"
        )
        assert code == 0
        assert "{1,2}" in out

    def test_fo_eval(self):
        code, out = invoke(
            "fo-eval",
            FIXTURES / "structure.json",
            "--formula",
            "exists v2. E(v1,v2)",
            "--context",
            "1",
        )
        assert code == 0
        assert "{(a)}" in out

    def test_nno_demo_prints_the_trace(self):
        code, out = invoke("nno-demo", FIXTURES / "recursion.json", "--n", "4")
        assert code == 0
        assert "h(4) = 1" in out

    def test_nno_demo_trace_is_the_iteration(self):
        from fincat.formats import load_recursion_data
        from fincat.nno import primrec_eval

        data = load_recursion_data(FIXTURES / "recursion.json")
        for n in (0, 1, 7):
            code, out = invoke("--json", "nno-demo", FIXTURES / "recursion.json", "--n", n)
            assert code == 0
            trace = json.loads(out)["payload"]["trace"]
            assert trace == {str(i): primrec_eval(data, i) for i in range(n + 1)}

    def test_builders_dump_reparses_to_the_same_category(self):
        code, out = invoke("--json", "builders", FIXTURES / "monoid_z2.json")
        assert code == 0
        payload = json.loads(out)["payload"]
        reparsed = parse_category(payload)
        code2, out2 = invoke("--json", "builders", FIXTURES / "monoid_z2.json")
        assert parse_category(json.loads(out2)["payload"]) == reparsed

    def test_unknown_demo_is_an_error(self):
        code, out = invoke("demo", "mystery")
        assert code == 2
        assert "unknown demo" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", FIXTURES / "twochain.json"),
            ("--json", "predicates", FIXTURES / "twochain.json"),
            ("--json", "products", FIXTURES / "diamond.json", "--pair", "a", "b"),
            ("wp", FIXTURES / "frame.json", "--target", "p"),
        ],
        ids=["validate", "predicates", "products", "wp"],
    )
    def test_output_is_byte_stable(self, argv):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second

    def test_invalid_poset_witness_ignores_the_hash_seed(self, tmp_path):
        cyclic = {
            "elements": ["a", "b", "c", "d", "e"],
            "leq": [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "d"]],
        }
        gmap = {
            "dom": cyclic,
            "cod": {"elements": ["x"], "leq": []},
            "graph": {x: "x" for x in cyclic["elements"]},
        }
        path = tmp_path / "cyclic_gmap.json"
        path.write_text(json.dumps(gmap))
        src = str(Path(__file__).parent.parent / "src")
        runs = []
        for seed in ("1", "4"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            runs.append(subprocess.run(
                [sys.executable, "-m", "fincat.cli", "adjoints", str(path)],
                capture_output=True, env=env, check=False,
            ))
        assert [r.returncode for r in runs] == [2, 2]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
        assert b"not antisymmetric on 'a', 'b'" in runs[0].stdout


class TestGoldenDemos:
    @pytest.mark.parametrize("name", ["floor-ceiling", "wp", "quantifiers"])
    def test_demo_output_matches_the_committed_golden_file(self, name):
        code, out = invoke("demo", name)
        assert code == 0
        golden = (GOLDEN / f"demo_{name.replace('-', '_')}.txt").read_text()
        assert out == golden


class TestRoundTrips:
    def test_category_fixtures_survive_dump_parse(self):
        from fincat.formats import dump_category, load_category

        for name in ("twochain.json", "twochain_broken.json"):
            category = load_category(FIXTURES / name)
            assert parse_category(dump_category(category)) == category
