import json

from pcsos.algebra import RATIONAL, eqset, parse_poly
from pcsos.cli import main
from pcsos.lkr import node_to_json
from pcsos.proofcheck import (
    Add,
    Axiom,
    Derivation,
    Radical,
    derivation_to_json,
    dump_json,
    eqset_to_json,
    load_json,
    sos_from_json,
    check_sos,
)


def P(text):
    return parse_poly(text, RATIONAL)


def write(tmp_path, name, obj):
    path = tmp_path / name
    dump_json(obj, path)
    return str(path)


def valid_pc_rad_proof():
    axioms = eqset(RATIONAL, [P("x1^2")])
    return Derivation(
        "pc_rad",
        RATIONAL,
        False,
        axioms,
        ((P("x1^2"), Axiom(0)), (P("x1"), Radical(0))),
    )


def refutation_proof():
    axioms = eqset(RATIONAL, [P("x1"), P("1 - x1")])
    return Derivation(
        "pc_plus",
        RATIONAL,
        False,
        axioms,
        (
            (P("x1"), Axiom(0)),
            (P("1 - x1"), Axiom(1)),
            (P("1"), Add(0, 1, 1, 1)),
        ),
    )


class TestCheckCommands:
    def test_check_valid(self, tmp_path, capsys):
        path = write(tmp_path, "proof.json", derivation_to_json(valid_pc_rad_proof()))
        assert main(["check", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["degree"] == 2

    def test_check_invalid_exit_one(self, tmp_path):
        obj = derivation_to_json(valid_pc_rad_proof())
        obj["lines"][1]["poly"] = "x1 + 1"
        path = write(tmp_path, "bad.json", obj)
        assert main(["check", path]) == 1

    def test_check_malformed_exit_two(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 2

    def test_check_sos_roundtrip(self, tmp_path):
        cert = {
            "boolean": False,
            "axioms": ["x0 - 1", "x1 - 1", "x0*x1"],
            "target": "-1",
            "multipliers": [
                {"axiom": 2, "poly": "-1"},
                {"axiom": 0, "poly": "x1"},
                {"axiom": 1, "poly": "1"},
            ],
            "bool_multipliers": [],
            "squares": [],
            "constant": "0",
        }
        path = write(tmp_path, "cert.json", cert)
        assert main(["check-sos", path]) == 0

    def test_check_ns(self, tmp_path):
        cert = {
            "axioms": ["x1", "1 - x1"],
            "target": "1",
            "multipliers": [{"axiom": 0, "poly": "1"}, {"axiom": 1, "poly": "1"}],
        }
        path = write(tmp_path, "ns.json", cert)
        assert main(["check-ns", path]) == 0

    def test_non_integer_index_exit_two(self, tmp_path, capsys):
        # fractional and boolean indices must not be truncated to a valid index
        for line, key, value in [(2, "i", "a"), (0, "index", 0.7), (0, "index", True)]:
            obj = derivation_to_json(refutation_proof())
            obj["lines"][line]["rule"][key] = value
            assert main(["check", write(tmp_path, "proof.json", obj)]) == 2
        for index in ["a", 0.9]:
            cert = {"axioms": ["x1"], "target": "x1", "multipliers": [{"axiom": index, "poly": "1"}]}
            assert main(["check-ns", write(tmp_path, "ns.json", cert)]) == 2
        cert = {"axioms": ["x1"], "target": "x1", "multipliers": [{"axiom": 0.9, "poly": "1"}]}
        assert main(["check-sos", write(tmp_path, "sos.json", cert)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(":")[0] for line in err.splitlines()] == ["error"] * 6

    def test_bad_ring_descriptor_exit_two(self, tmp_path, capsys):
        # a non-integer GF modulus must not be truncated or raise a bare ValueError
        for ring in [{"kind": "gf", "p": "abc"}, {"kind": "gf", "p": 7.5}, ["gf", 7]]:
            obj = derivation_to_json(refutation_proof())
            obj["ring"] = ring
            assert main(["check", write(tmp_path, "proof.json", obj)]) == 2
            cert = {"ring": ring, "axioms": ["x1"], "target": "x1", "multipliers": []}
            assert main(["check-ns", write(tmp_path, "ns.json", cert)]) == 2
            eqs = write(tmp_path, "eqs.json", {"ring": ring, "equations": ["x1"]})
            assert main(["search", "closure", eqs, "--degree", "1", "--query", "1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(":")[0] for line in err.splitlines()] == ["error"] * 9


def assert_format_errors(capsys, count):
    """Each of count commands exited 2 with a single error: line."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines()] == ["error"] * count


class TestMalformedFiles:
    def test_unicode_digits_exit_two(self, tmp_path, capsys):
        # "²" passes str.isdigit but not int(); it is not a digit of the grammar
        proof = derivation_to_json(refutation_proof())
        proof["axioms"][0] = "x²"
        assert main(["check", write(tmp_path, "proof.json", proof)]) == 2
        sos = {"axioms": ["x²"], "target": "1", "squares": []}
        assert main(["check-sos", write(tmp_path, "sos.json", sos)]) == 2
        ns = {"axioms": ["x1"], "target": "x1^²", "multipliers": []}
        assert main(["check-ns", write(tmp_path, "ns.json", ns)]) == 2
        eqs = write(tmp_path, "eqs.json", {"equations": ["²"]})
        assert main(["search", "closure", eqs, "--degree", "1", "--query", "1"]) == 2
        eqs = write(tmp_path, "eqs.json", {"equations": ["x1"]})
        assert main(["search", "closure", eqs, "--degree", "2", "--query", "x1^²"]) == 2
        assert_format_errors(capsys, 5)

    def test_unicode_digits_outside_polynomials_exit_two(self, tmp_path, capsys):
        proof = derivation_to_json(refutation_proof())
        proof["lines"].append({"poly": "x1^2 - x1", "rule": {"kind": "bool", "var": "x²"}})
        assert main(["check", write(tmp_path, "proof.json", proof)]) == 2
        formula = "(forall i n (= (X i) (rat 0)))"
        assert main(["fol", "translate", "--formula", formula, "--assign", "n=²"]) == 2
        assert main(["fol", "classify", "--formula", "(= (X ²) (rat 1))"]) == 2
        assert_format_errors(capsys, 3)

    def test_non_ascii_bytes_exit_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        path = str(path)
        assert main(["check", path]) == 2
        assert main(["check-sos", path]) == 2
        assert main(["check-ns", path]) == 2
        assert main(["search", "closure", path, "--degree", "1", "--query", "1"]) == 2
        assert main(["lkr", "check", path]) == 2
        assert main(["fol", "classify", "--formula-file", path]) == 2
        assert_format_errors(capsys, 6)

    def test_deeply_nested_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["check", str(path)]) == 2
        assert_format_errors(capsys, 1)

    def test_top_level_array_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "array.json", [])
        assert main(["check", path]) == 2
        assert main(["check-sos", path]) == 2
        assert main(["check-ns", path]) == 2
        assert main(["search", "closure", path, "--degree", "1", "--query", "1"]) == 2
        assert_format_errors(capsys, 4)

    def test_malformed_fol_side_files_exit_two(self, tmp_path, capsys):
        formula = "(= (X 0) (rat 1))"
        registry = write(tmp_path, "registry.json", [])
        assert main(["fol", "classify", "--formula", formula, "--registry", registry]) == 2
        for oracle in [5, ["abc"]]:
            path = write(tmp_path, "oracle.json", oracle)
            assert main(["fol", "eval", "--formula", formula, "--oracle", path]) == 2
        assert main(["fol", "eval", "--formula", formula]) == 2
        assert_format_errors(capsys, 4)


class TestTranslate:
    def test_pcplus_to_sos_pipeline(self, tmp_path, capsys):
        proof = write(tmp_path, "proof.json", derivation_to_json(refutation_proof()))
        cert_path = str(tmp_path / "cert.json")
        assert main(["translate", "pcplus-to-sos", "--eps", "1/2", proof, "-o", cert_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["degree"] <= 2
        cert = sos_from_json(load_json(cert_path))
        assert check_sos(cert).valid

    def test_refutation_translation_default(self, tmp_path):
        proof = write(tmp_path, "proof.json", derivation_to_json(refutation_proof()))
        out = str(tmp_path / "cert.json")
        assert main(["translate", "pcplus-to-sos", proof, "-o", out]) == 0
        cert = sos_from_json(load_json(out))
        report = check_sos(cert)
        assert report.valid and report.refutation

    def test_sos_to_pcplus(self, tmp_path):
        proof = write(tmp_path, "proof.json", derivation_to_json(refutation_proof()))
        cert_path = str(tmp_path / "cert.json")
        main(["translate", "pcplus-to-sos", proof, "-o", cert_path])
        back = str(tmp_path / "back.json")
        assert main(["translate", "sos-to-pcplus", cert_path, "-o", back]) == 0
        assert main(["check", back]) == 0

    def test_elim_radical_requires_gf(self, tmp_path):
        proof = write(tmp_path, "proof.json", derivation_to_json(valid_pc_rad_proof()))
        assert main(["translate", "elim-radical", proof]) == 3

    def test_elim_radical_gf3(self, tmp_path):
        obj = {
            "system": "pc_rad",
            "ring": {"kind": "gf", "p": 3},
            "boolean_axioms": True,
            "axioms": ["x1^2"],
            "lines": [
                {"poly": "x1^2", "rule": {"kind": "axiom", "index": 0}},
                {"poly": "x1", "rule": {"kind": "radical", "i": 0}},
            ],
        }
        proof = write(tmp_path, "proof.json", obj)
        out = str(tmp_path / "flat.json")
        assert main(["translate", "elim-radical", proof, "-o", out]) == 0
        flat = load_json(out)
        assert all(line["rule"]["kind"] != "radical" for line in flat["lines"])


class TestGen:
    def test_gen_fphp_with_cert(self, tmp_path):
        out = str(tmp_path / "fphp.json")
        assert main(["gen", "fphp", "--pigeons", "3", "--holes", "2", "--with-cert", "-o", out]) == 0
        instance = load_json(out)
        assert len(instance["equations"]) == 3 + 2 * 3
        cert_path = str(tmp_path / "fphp.cert.json")
        assert main(["check-sos", cert_path, "--json"]) == 0

    def test_gen_chain_cert_compiles(self, tmp_path):
        out = str(tmp_path / "chain.json")
        assert main(["gen", "chain", "--n", "3", "--with-cert", "-o", out]) == 0
        cert_path = str(tmp_path / "chain.cert.json")
        assert main(["lkr", "check", cert_path]) == 0
        compiled = str(tmp_path / "chain.proof.json")
        assert main(["lkr", "compile", cert_path, "--assign", "n=3", "-o", compiled]) == 0
        assert main(["check", compiled]) == 0

    def test_gen_subset_sum(self, tmp_path):
        out = str(tmp_path / "ss.json")
        assert main(["gen", "subset-sum", "--n", "3", "--with-cert", "-o", out]) == 0
        assert main(["check", str(tmp_path / "ss.cert.json")]) == 0

    def test_gen_bphp_graph(self, tmp_path):
        graph = write(
            tmp_path,
            "graph.json",
            {"pigeons": 2, "holes": 2, "h": [[0], [1]], "p": [[0], [1]]},
        )
        out = str(tmp_path / "bphp.json")
        assert main(["gen", "bphp-graph", "--graph", graph, "-o", out]) == 0


class TestFolAndSearch:
    def test_fol_classify(self):
        assert main(["fol", "classify", "--formula", "(= (X 0) (rat 1))"]) == 0
        assert main(["fol", "classify", "--formula", "(not (= (X 0) (rat 1)))"]) == 1

    def test_fol_translate(self, tmp_path):
        out = str(tmp_path / "eqs.json")
        formula = "(forall i 3 (= (X i) (rat 0)))"
        assert main(["fol", "translate", "--formula", formula, "-o", out]) == 0
        eqs = load_json(out)
        assert eqs["equations"] == ["x0", "x1", "x2"]

    def test_fol_eval(self, tmp_path):
        oracle = write(tmp_path, "oracle.json", {"0": 1, "1": 0})
        formula = "(= (X 0) (rat 1))"
        assert main(["fol", "eval", "--formula", formula, "--oracle", oracle]) == 0
        formula = "(= (X 1) (rat 1))"
        assert main(["fol", "eval", "--formula", formula, "--oracle", oracle]) == 1

    def test_search_closure(self, tmp_path, capsys):
        eqs = write(tmp_path, "eqs.json", eqset_to_json(eqset(RATIONAL, [P("x1"), P("1 - x1")])))
        out = str(tmp_path / "derivation.json")
        assert main(["search", "closure", eqs, "--degree", "1", "--query", "1", "-o", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["derivable"] and payload["valid"]
        assert main(["check", out]) == 0

    def test_search_not_derivable(self, tmp_path):
        eqs = write(tmp_path, "eqs.json", eqset_to_json(eqset(RATIONAL, [P("x1^2")])))
        assert main(["search", "closure", eqs, "--degree", "2", "--query", "x1"]) == 1

    def test_search_bad_degree_exit_two(self, tmp_path, capsys):
        eqs = write(tmp_path, "eqs.json", eqset_to_json(eqset(RATIONAL, [P("x1^2")])))
        assert main(["search", "closure", eqs, "--degree", "2", "--query", "x1^5"]) == 2
        assert main(["search", "closure", eqs, "--degree", "-1", "--query", "1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(":")[0] for line in err.splitlines()] == ["error", "error"]


class TestUnsupported:
    def test_sos_node_under_pc_rad_target(self, tmp_path):
        from pcsos.fol import FunctionRegistry
        from pcsos.lkr import LkrNode, Sequent
        from pcsos.fol import parse_formula

        reg = FunctionRegistry.standard()
        eq = parse_formula("(= (* (X 0) (- (rat 1) (X 0))) (rat 0))", reg)
        node = LkrNode("boolean-axiom", Sequent((), (eq,)))
        path = write(tmp_path, "proof.json", node_to_json(node))
        assert main(["lkr", "compile", path, "--target", "pc_rad"]) == 3
        assert main(["lkr", "compile", path, "--target", "pc_plus"]) == 0
