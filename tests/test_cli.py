import json
import os
import subprocess
import sys
import time

import pytest

import pcsos
from pcsos import families, fol
from pcsos.algebra import GF, RATIONAL, Ring, eqset, parse_poly
from pcsos.cli import main
from pcsos.families import gen_chain, gen_fphp_sos, gen_subset_sum
from pcsos.lkr import MAX_PROOF_DEPTH, node_to_json
from pcsos.proofcheck import (
    Add,
    Axiom,
    Derivation,
    Radical,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    dump_json,
    eqset_to_json,
    load_json,
    sos_from_json,
    sos_to_json,
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
        axioms,
        ((P("x1^2"), Axiom(0)), (P("x1"), Radical(0))),
    )


def refutation_proof():
    axioms = eqset(RATIONAL, [P("x1"), P("1 - x1")])
    return Derivation(
        "pc_plus",
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


def weighted_certificate():
    # -(x1^2 + 3*x2^2 + 1) + 1/4*(2*x1)^2 + 3*x2^2 == -1
    return {
        "axioms": ["x1^2 + 3*x2^2 + 1"],
        "target": "-1",
        "multipliers": [{"axiom": 0, "poly": "-1"}],
        "squares": ["2*x1", "x2"],
        "weights": ["1/4", 3],
    }


class TestSharedPolynomialTexts:
    def test_one_changed_copy_of_a_repeated_multiplier_is_rejected(self, tmp_path):
        # fPHP(5, 4) repeats the multiplier text "-2" forty times; the file
        # decode parses it once, and a changed copy must not share that parse
        obj = sos_to_json(gen_fphp_sos(5, 4))
        repeated = [k for k, m in enumerate(obj["multipliers"]) if m["poly"] == "-2"]
        assert len(repeated) == 40
        assert main(["check-sos", write(tmp_path, "valid.json", obj)]) == 0
        for k in (repeated[0], repeated[17], repeated[-1]):
            mutant = json.loads(json.dumps(obj))
            mutant["multipliers"][k]["poly"] = "-3"
            assert main(["check-sos", write(tmp_path, f"mutant{k}.json", mutant)]) == 1


class TestFailureReport:
    def test_valid_summary_unchanged(self, tmp_path, capsys):
        path = write(tmp_path, "proof.json", derivation_to_json(valid_pc_rad_proof()))
        assert main(["check", path, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"degree": 2, "refutation": false, "uses_radical": true, "uses_sos_rule": false, "valid": true}\n'
        )

    def test_altered_line_reports_line_and_rule(self, tmp_path, capsys):
        for proof, line, text, rule in [
            (refutation_proof(), 2, "2", "add"),
            (valid_pc_rad_proof(), 1, "x1 + 1", "radical"),
        ]:
            obj = derivation_to_json(proof)
            obj["lines"][line]["poly"] = text
            assert main(["check", write(tmp_path, "bad.json", obj), "--json"]) == 1
            failure = json.loads(capsys.readouterr().out)["failure"]
            assert (failure["line"], failure["rule"]) == (line, rule)
            expected = check_derivation(derivation_from_json(obj)).failure
            assert expected[0] == line and P(failure["mismatch"]) == expected[1]

    def test_altered_certificate_reports_mismatch(self, tmp_path, capsys):
        cert = {
            "axioms": ["x0 - 1", "x1 - 1", "x0*x1"],
            "target": "-1",
            "multipliers": [
                {"axiom": 2, "poly": "-1"},
                {"axiom": 0, "poly": "x1"},
                {"axiom": 1, "poly": "2"},
            ],
            "squares": ["x0 - x1"],
        }
        assert main(["check-sos", write(tmp_path, "cert.json", cert), "--json"]) == 1
        failure = json.loads(capsys.readouterr().out)["failure"]
        assert failure["line"] is None and failure["rule"] is None
        expected = check_sos(sos_from_json(cert)).failure[1]
        assert not expected.is_zero and P(failure["mismatch"]) == expected
        ns = {"axioms": ["x1", "1 - x1"], "target": "1", "multipliers": [{"axiom": 0, "poly": "x1"}]}
        assert main(["check-ns", write(tmp_path, "ns.json", ns), "--json"]) == 1
        failure = json.loads(capsys.readouterr().out)["failure"]
        assert failure == {"line": None, "rule": None, "mismatch": "x1^2 - 1"}


class TestWeightedCertificates:
    def test_weighted_file_checks(self, tmp_path, capsys):
        path = write(tmp_path, "cert.json", weighted_certificate())
        assert main(["check-sos", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["refutation"]

    def test_malformed_weights_exit_two(self, tmp_path, capsys):
        bad = [["1/4"], ["1/4", 3, 1], [0, 3], ["-1/2", 3], [True, 3], [None, 3], ["abc", 3], ["1/0", 3], "1/4"]
        for weights in bad:
            cert = dict(weighted_certificate(), weights=weights)
            assert main(["check-sos", write(tmp_path, "cert.json", cert)]) == 2, weights
        cert = dict(weighted_certificate(), constant="1/0")
        assert main(["check-sos", write(tmp_path, "cert.json", cert)]) == 2
        assert_format_errors(capsys, len(bad) + 1)

    def test_changed_weight_is_invalid(self, tmp_path, capsys):
        cert = dict(weighted_certificate(), weights=["1/4", 2])
        assert main(["check-sos", write(tmp_path, "cert.json", cert), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["valid"] is False

    def test_weighted_file_to_pcplus(self, tmp_path):
        path = write(tmp_path, "cert.json", weighted_certificate())
        out = str(tmp_path / "proof.json")
        assert main(["translate", "sos-to-pcplus", path, "-o", out]) == 0
        assert check_derivation(derivation_from_json(load_json(out))).valid

    def test_large_weight_translates_at_once(self, tmp_path):
        # a weight on which splitting into plain squares once searched for seconds
        w = "2305843009213693951/1000000007"
        cert = {
            "axioms": [f"{w}*x1^2 + 1"],
            "target": "-1",
            "multipliers": [{"axiom": 0, "poly": "-1"}],
            "squares": ["x1"],
            "weights": [w],
        }
        path = write(tmp_path, "cert.json", cert)
        out = str(tmp_path / "proof.json")
        t0 = time.perf_counter()
        assert main(["translate", "sos-to-pcplus", path, "-o", out]) == 0
        assert time.perf_counter() - t0 < 1.0
        rep = check_derivation(derivation_from_json(load_json(out)))
        assert rep.valid and rep.refutation


# 1 from x1 - 2 over GF(7): (3*x1 + 3)(x1 - 2) + 4*(x1^2 - x1) = 7*x1^2 - 7*x1 - 6
GF7_NS_CERT = {
    "ring": {"kind": "gf", "p": 7},
    "boolean": True,
    "axioms": ["x1 - 2"],
    "multipliers": [{"axiom": 0, "poly": "3*x1 + 3"}],
    "bool_multipliers": [{"var": "x1", "poly": "4"}],
    "target": "1",
}

# a false identity once its squares, constant and bool multipliers count:
# check-ns must refuse those keys, not drop them
STRAY_KEYS_NS_CERT = {
    "axioms": ["x1 - 1", "x1"],
    "target": "1",
    "multipliers": [{"axiom": 1, "poly": "1"}, {"axiom": 0, "poly": "-1"}],
    "boolean": True,
    "bool_multipliers": [{"var": "x1", "poly": "5"}],
    "squares": ["x1"],
    "constant": "3",
}


class TestStaticCertificateFiles:
    """check-ns and check-sos read one certificate form, with its ring."""

    def check(self, tmp_path, capsys, command, obj):
        code = main([command, write(tmp_path, "cert.json", obj), "--json"])
        out, err = capsys.readouterr()
        return code, json.loads(out) if out else None, err

    @pytest.mark.parametrize(
        "keys, named",
        [
            ({}, "squares, constant"),
            ({"constant": "0", "weights": ["2"]}, "squares, weights"),
        ],
        ids=["squares-constant", "squares-weights"],
    )
    def test_check_ns_refuses_squares_weights_and_constant(self, tmp_path, capsys, keys, named):
        code, payload, err = self.check(tmp_path, capsys, "check-ns", {**STRAY_KEYS_NS_CERT, **keys})
        assert (code, payload) == (1, None)
        assert err == f"invalid: Nullstellensatz certificates admit no {named}\n"

    def test_weights_without_squares_exit_two(self, tmp_path, capsys):
        obj = {**STRAY_KEYS_NS_CERT, "squares": [], "constant": "0", "weights": ["2"]}
        code, payload, err = self.check(tmp_path, capsys, "check-ns", obj)
        assert (code, payload) == (2, None) and err.startswith("error:") and len(err.splitlines()) == 1

    def test_gf7_boolean_ns_certificate(self, tmp_path, capsys):
        code, payload, _ = self.check(tmp_path, capsys, "check-ns", GF7_NS_CERT)
        assert code == 0 and payload["refutation"] and payload["degree"] == 2
        # the constant is read in GF(7) too: 7 is 0 there, and 1/7 has no value
        code, payload, _ = self.check(tmp_path, capsys, "check-ns", {**GF7_NS_CERT, "constant": "7"})
        assert code == 0 and payload["refutation"]
        assert self.check(tmp_path, capsys, "check-ns", {**GF7_NS_CERT, "constant": "1/7"})[0] == 2
        code, payload, err = self.check(tmp_path, capsys, "check-ns", {**GF7_NS_CERT, "boolean": False})
        assert (code, payload) == (1, None)
        assert err == "invalid: bool multipliers present but boolean flag is false\n"
        code, payload, err = self.check(tmp_path, capsys, "check-sos", GF7_NS_CERT)
        assert (code, payload) == (1, None)
        assert err == "invalid: sum-of-squares certificates require the rational ring\n"

    @pytest.mark.parametrize(
        "obj",
        [
            GF7_NS_CERT,
            {"ring": {"kind": "gf", "p": 5}, "axioms": ["x1"], "multipliers": [{"axiom": 0, "poly": "2"}],
             "target": "2*x1"},
        ],
        ids=["gf7-boolean", "gf5"],
    )
    def test_round_trip(self, obj):
        cert = sos_from_json(obj)
        assert cert.axioms.ring == Ring.from_json(obj["ring"])
        assert sos_to_json(cert)["ring"] == obj["ring"]
        assert sos_from_json(sos_to_json(cert)) == cert


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

    def test_malformed_proof_lines_exit_two(self, tmp_path, capsys):
        # one error naming the line, not a message about string indices, and
        # a string of lines is not read character by character
        proof = derivation_to_json(refutation_proof())
        cases = [
            ({"a": 1}, "expected a list of proof lines"),
            ("abc", "expected a list of proof lines"),
            (proof["lines"][:1] + [5], "line 1: expected an object with 'poly' and an object 'rule'"),
            (proof["lines"][:1] + [{"rule": {"kind": "zero"}}], "line 1: expected an object"),
            ([{"poly": "0", "rule": "zero"}], "line 0: expected an object"),
            ([{"poly": "0", "rule": ["kind", "zero"]}], "line 0: expected an object"),
        ]
        for lines, message in cases:
            assert main(["check", write(tmp_path, "proof.json", {**proof, "lines": lines})]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err and "Traceback" not in err
            assert len(err.splitlines()) == 1

    def test_index_comparison_arity_exit_two(self, capsys):
        assert main(["fol", "classify", "--formula", "(i= 1)"]) == 2
        assert main(["fol", "classify", "--formula", "(i< 1 2 3)"]) == 2
        assert_format_errors(capsys, 2)

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

    def test_boolean_flag_is_a_json_boolean(self, tmp_path, capsys):
        # bool("false") is True: read loosely, "false" would admit the bool line
        proof = {
            "system": "pc",
            "ring": {"kind": "rational"},
            "axioms": [],
            "lines": [{"poly": "x1^2 - x1", "rule": {"kind": "bool", "var": "x1"}}],
        }
        sos = {"axioms": [], "target": "x1^2 - x1", "bool_multipliers": [{"var": "x1", "poly": "1"}]}
        eqs = {"equations": ["x2"]}
        for flag in ["false", "true", 0, 1, None, []]:
            proof["boolean_axioms"], sos["boolean"], eqs["boolean_axioms"] = flag, flag, flag
            assert main(["check", write(tmp_path, "proof.json", proof)]) == 2
            assert main(["check-sos", write(tmp_path, "sos.json", sos)]) == 2
            path = write(tmp_path, "eqs.json", eqs)
            assert main(["search", "closure", path, "--degree", "2", "--query", "x1^2 - x1"]) == 2
        assert_format_errors(capsys, 18)
        for flag, code in [(True, 0), (False, 1)]:
            proof["boolean_axioms"], sos["boolean"], eqs["boolean_axioms"] = flag, flag, flag
            assert main(["check", write(tmp_path, "proof.json", proof)]) == code
            assert main(["check-sos", write(tmp_path, "sos.json", sos)]) == code
            path = write(tmp_path, "eqs.json", eqs)
            assert main(["search", "closure", path, "--degree", "2", "--query", "x1^2 - x1"]) == code

    def test_polynomial_lists_are_json_lists(self, tmp_path, capsys):
        # iterated loosely, "x1" would read as the characters "x", "1" and
        # {"a": 1} as its key "a"
        sos_line = {
            "poly": "1", "rule": {"kind": "sos", "i": 0, "p": "1", "squares": ["x1"]},
        }
        for bad in ["x1", {"a": 1}, 1, None]:
            cert = sos_to_json(gen_fphp_sos(3, 2))
            cert["squares"] = bad
            assert main(["check-sos", write(tmp_path, "sos.json", cert)]) == 2
            cert = sos_to_json(gen_fphp_sos(3, 2))
            cert["axioms"] = bad
            assert main(["check-sos", write(tmp_path, "sos.json", cert)]) == 2
            proof = derivation_to_json(refutation_proof())
            proof["axioms"] = bad
            assert main(["check", write(tmp_path, "proof.json", proof)]) == 2
            proof = derivation_to_json(refutation_proof())
            proof["system"] = "pc_plus"
            proof["lines"] = [proof["lines"][0], dict(sos_line, rule=dict(sos_line["rule"], squares=bad))]
            assert main(["check", write(tmp_path, "proof.json", proof)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 16
        assert all("expected a list of polynomial texts" in line for line in lines), lines

    def test_unknown_system_exit_two(self, tmp_path, capsys):
        for system in ["pcx", "PC", 1, None]:
            proof = derivation_to_json(refutation_proof())
            proof["system"] = system
            assert main(["check", write(tmp_path, "proof.json", proof)]) == 2
        assert_format_errors(capsys, 4)

    def test_top_level_array_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "array.json", [])
        assert main(["check", path]) == 2
        assert main(["check-sos", path]) == 2
        assert main(["check-ns", path]) == 2
        assert main(["search", "closure", path, "--degree", "1", "--query", "1"]) == 2
        assert_format_errors(capsys, 4)

    def test_malformed_fol_side_files_exit_two(self, tmp_path, capsys):
        formula = "(= (X 0) (rat 1))"
        registries = [[]]
        for key in ("index_tables", "ring_tables"):
            registries += [{key: bad} for bad in ([0], None, 5, "s", True)]
        registries += [{"ring_tables": {"r": 5}}, {"index_tables": {"f": []}}]
        for obj in registries:
            registry = write(tmp_path, "registry.json", obj)
            assert main(["fol", "classify", "--formula", formula, "--registry", registry]) == 2
        for oracle in [5, ["abc"]]:
            path = write(tmp_path, "oracle.json", oracle)
            assert main(["fol", "eval", "--formula", formula, "--oracle", path]) == 2
        assert main(["fol", "eval", "--formula", formula]) == 2
        assert_format_errors(capsys, len(registries) + 3)

    def test_registry_entries_shape(self, tmp_path, capsys):
        # each entry is [[arg, ...], value] with as many args as the table's
        # arity; any other shape exits 2, an object or a string is not read
        # as a list of character pairs, and no entry is kept that never matches
        formula = "(= (X (fn f 1)) (rat 0))"
        out = tmp_path / "eqs.json"
        bad = [{"12": 0}, [["1", 2]], "12", [[[1], 2, 3]], [[1]], [5], [[[1, 2], 3]], [[[], 3]]]
        for entries in bad:
            registry = write(tmp_path, "registry.json", {"index_tables": {"f": {"arity": 1, "entries": entries}}})
            assert main(["fol", "translate", "--formula", formula, "--registry", registry, "-o", str(out)]) == 2
        assert not out.exists()
        assert_format_errors(capsys, len(bad))
        registry = write(tmp_path, "registry.json", {"index_tables": {"f": {"arity": 1, "entries": [[[1], 2]]}}})
        assert main(["fol", "translate", "--formula", formula, "--registry", registry, "-o", str(out)]) == 0
        assert load_json(out)["equations"] == ["x2"]

    @pytest.mark.parametrize(
        "rule, key, value",
        [
            ("cut", "params", "x"),
            ("forall-idx-l", "term", [1]),
            ("equality", "multipliers", {"a": 1}),
            ("cut", "conclusion", "x"),
            ("induction", "var", 5),
        ],
    )
    def test_malformed_sequent_file_exit_two(self, tmp_path, capsys, rule, key, value):
        proof = node_to_json(gen_chain(1).certificate)
        node = _first_node(proof, rule)
        (node if key in ("params", "conclusion") else node["params"])[key] = value
        path = write(tmp_path, "proof.json", proof)
        assert main(["lkr", "check", path]) == 2
        assert main(["lkr", "compile", path, "--assign", "n=2"]) == 2
        assert_format_errors(capsys, 2)


def _first_node(node, rule):
    """The first node of a JSON sequent proof with the given rule, depth first."""
    if node["rule"] == rule:
        return node
    return next(filter(None, (_first_node(p, rule) for p in node["premises"])), None)


def _nested(kind, levels):
    """A formula whose parentheses nest levels + 2 deep."""
    atom = "(= (X 0) (rat 0))"
    if kind == "ring":
        return "(= " + "(+ " * levels + "(X 0)" + " (rat 1))" * levels + " (rat 0))"
    return f"({kind} " * levels + atom + ")" * levels


class TestFormulaNesting:
    def run_all(self, tmp_path, text):
        path = tmp_path / "formula.txt"
        path.write_text(text)
        path, oracle = str(path), write(tmp_path, "oracle.json", {"0": 0})
        return [
            main(["fol", "classify", "--formula-file", path]),
            main(["fol", "translate", "--formula-file", path, "-o", str(tmp_path / "eqs.json")]),
            main(["fol", "eval", "--formula-file", path, "--oracle", oracle]),
        ]

    def test_formula_at_the_limit_runs(self, tmp_path, capsys):
        levels = fol.MAX_SEXP_DEPTH - 2
        # classify, translate, eval: a negation over the oracle is outside
        # the translatable class; x0 + levels = 0 fails at x0 = 0
        assert self.run_all(tmp_path, _nested("not", levels)) == [1, 3, 0]
        assert self.run_all(tmp_path, _nested("and", levels)) == [0, 0, 0]
        assert self.run_all(tmp_path, _nested("ring", levels)) == [0, 0, 1]
        assert "Traceback" not in capsys.readouterr().err

    def test_formula_past_the_limit_exit_two(self, tmp_path, capsys):
        for kind in ("not", "and", "ring"):
            assert self.run_all(tmp_path, _nested(kind, fol.MAX_SEXP_DEPTH - 1)) == [2, 2, 2]
        assert self.run_all(tmp_path, _nested("not", 3000)) == [2, 2, 2]
        assert_format_errors(capsys, 12)



class TestInstanceLimit:
    # each named a huge bound in a few bytes and ran until it was killed
    HUGE = [
        ("translate", "(forall i 100000000 (= (X i) (rat 0)))"),
        ("translate", "(= (sum j 100000000 (X j)) (rat 0))"),
        ("eval", "(forall i 100000000 (= (X 0) (rat 0)))"),
    ]

    @pytest.mark.parametrize("action, formula", HUGE)
    def test_huge_bound_exits_two_within_a_second(self, tmp_path, capsys, action, formula):
        oracle, out = write(tmp_path, "oracle.json", [0]), tmp_path / "eqs.json"
        t0 = time.perf_counter()
        assert main(["fol", action, "--formula", formula, "--oracle", oracle, "-o", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        message = f"more than {fol.MAX_INSTANCES} quantifier and sum instances"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_lkr_compile_at_a_huge_assignment_exits_two(self, tmp_path, capsys):
        # the chain proof's hypothesis (forall i n ...) is translated first
        assert main(["gen", "chain", "--n", "3", "--with-cert", "-o", str(tmp_path / "chain.json")]) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        t0 = time.perf_counter()
        args = ["lkr", "compile", str(tmp_path / "chain.cert.json"), "--assign", "n=100000000", "-o", str(out)]
        assert main(args) == 2
        assert time.perf_counter() - t0 < 3.0  # it checks the proof first
        assert_format_errors(capsys, 1)
        assert not out.exists()

    def test_an_early_exit_is_charged_for_what_it_visits(self, tmp_path):
        oracle = write(tmp_path, "oracle.json", [0])
        cases = [("(exists i 100000000 (= (X 0) (rat 0)))", 0), ("(forall i 100000000 (= (X 0) (rat 1)))", 1)]
        for formula, code in cases:
            assert main(["fol", "eval", "--formula", formula, "--oracle", oracle]) == code


class TestGenLimit:
    # each named a huge family in a few bytes, and ran until it was killed
    # or ended in a MemoryError traceback
    HUGE = [
        (["chain", "--n", "100000000"], "chain", 200000003),
        (["subset-sum", "--n", "100000000"], "subset sum", 5000000350000001),
        (["fphp", "--pigeons", "100000", "--holes", "99999"], "fphp", 500000000050000),
    ]

    @pytest.mark.parametrize("args, family, terms", HUGE)
    def test_huge_family_exits_two_within_two_seconds(self, tmp_path, capsys, args, family, terms):
        out = tmp_path / "huge.json"
        t0 = time.perf_counter()
        assert main(["gen", *args, "--with-cert", "-o", str(out)]) == 2
        assert time.perf_counter() - t0 < 2.0
        message = f"{family} would have up to {terms} terms, more than {families.MAX_TERMS}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestTranslate:
    def test_pcplus_to_sos_pipeline(self, tmp_path, capsys):
        proof = write(tmp_path, "proof.json", derivation_to_json(refutation_proof()))
        cert_path = str(tmp_path / "cert.json")
        assert main(["translate", "pcplus-to-sos", "--eps", "1/2", proof, "-o", cert_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["degree"] <= 2
        cert = sos_from_json(load_json(cert_path))
        assert check_sos(cert).valid

    def test_pcplus_to_sos_normalize(self, tmp_path, capsys):
        # the eps-translation ends at target -eps; --normalize rescales it to -1
        proof = write(tmp_path, "proof.json", derivation_to_json(refutation_proof()))
        out = str(tmp_path / "cert.json")
        assert main(["translate", "pcplus-to-sos", proof, "--eps", "1/2", "-o", out]) == 0
        assert load_json(out)["target"] == "-1/2"
        assert main(["translate", "pcplus-to-sos", proof, "--eps", "1/2", "--normalize", "-o", out]) == 0
        assert load_json(out)["target"] == "-1"
        capsys.readouterr()
        assert main(["check-sos", out, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["refutation"]

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

    def test_subset_sum_radical_refutation_to_sos(self, tmp_path, capsys):
        # the eps-recursion squares its budget at each radical step; with
        # squares split four ways per scaling this ran for minutes
        instance = str(tmp_path / "ss.json")
        assert main(["gen", "subset-sum", "--n", "3", "--with-cert", "-o", instance]) == 0
        capsys.readouterr()
        out = str(tmp_path / "ss.sos.json")
        t0 = time.perf_counter()
        code = main(["translate", "pcplus-to-sos", str(tmp_path / "ss.cert.json"), "-o", out, "--json"])
        elapsed = time.perf_counter() - t0
        assert code == 0 and json.loads(capsys.readouterr().out)["refutation"]
        report = check_sos(sos_from_json(load_json(out)))
        assert report.valid and report.refutation
        assert elapsed < 10.0, f"{elapsed:.1f}s"

    def test_elim_radical_requires_gf(self, tmp_path):
        proof = write(tmp_path, "proof.json", derivation_to_json(valid_pc_rad_proof()))
        assert main(["translate", "elim-radical", proof]) == 3

    def test_pcplus_to_sos_requires_rationals(self, tmp_path, capsys):
        obj = derivation_to_json(refutation_proof())
        obj["ring"] = {"kind": "gf", "p": 7}
        proof = write(tmp_path, "proof.json", obj)
        assert main(["check", proof]) == 0
        capsys.readouterr()
        for extra in ([], ["--eps", "1/2"]):
            assert main(["translate", "pcplus-to-sos", proof, *extra]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(":")[0] for line in err.splitlines()] == ["unsupported"] * 2

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

    def test_gen_chain_without_cert_builds_no_proofs(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the chain proof is built only for --with-cert")

        with_cert = tmp_path / "with.json"
        assert main(["gen", "chain", "--n", "5", "--with-cert", "-o", str(with_cert)]) == 0
        monkeypatch.setattr(families, "_chain_lkr_proof", refuse)
        without = tmp_path / "without.json"
        assert main(["gen", "chain", "--n", "5", "-o", str(without)]) == 0
        assert without.read_bytes() == with_cert.read_bytes()
        assert not (tmp_path / "without.cert.json").exists()

    def test_lkr_compile_without_assignment_exit_two(self, tmp_path, capsys):
        out = str(tmp_path / "chain.json")
        assert main(["gen", "chain", "--n", "3", "--with-cert", "-o", out]) == 0
        cert_path = str(tmp_path / "chain.cert.json")
        assert main(["lkr", "check", cert_path]) == 0
        capsys.readouterr()
        assert main(["lkr", "compile", cert_path]) == 2
        assert_format_errors(capsys, 1)

    def test_gen_subset_sum(self, tmp_path, capsys):
        out = str(tmp_path / "ss.json")
        assert main(["gen", "subset-sum", "--n", "3", "--with-cert", "-o", out]) == 0
        assert main(["check", str(tmp_path / "ss.cert.json")]) == 0
        # past the cap there is no refutation to write, and no file is written
        past = tmp_path / "past" / "ss.json"
        past.parent.mkdir()
        capsys.readouterr()
        assert main(["gen", "subset-sum", "--n", "13", "--with-cert", "-o", str(past)]) == 3
        assert capsys.readouterr().err == "unsupported: subset-sum refutations are emitted only for n <= 12\n"
        assert list(past.parent.iterdir()) == []

    def test_gen_subset_sum_without_cert_builds_no_refutation(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the subset-sum refutation is built only for --with-cert")

        with_cert = tmp_path / "with.json"
        assert main(["gen", "subset-sum", "--n", "5", "--with-cert", "-o", str(with_cert)]) == 0
        monkeypatch.setattr(families, "subset_sum_refutation", refuse)
        without = tmp_path / "without.json"
        assert main(["gen", "subset-sum", "--n", "5", "-o", str(without)]) == 0
        assert without.read_bytes() == with_cert.read_bytes()
        assert not (tmp_path / "without.cert.json").exists()

    def test_gen_bphp_graph(self, tmp_path):
        graph = write(
            tmp_path,
            "graph.json",
            {"pigeons": 2, "holes": 2, "h": [[0], [1]], "p": [[0], [1]]},
        )
        out = str(tmp_path / "bphp.json")
        assert main(["gen", "bphp-graph", "--graph", graph, "-o", out]) == 0

    def test_gen_bphp_graph_bad_numbers_exit_two(self, tmp_path, capsys):
        good = {"pigeons": 2, "holes": 2, "h": [[0], [1]], "p": [[0], [1]]}
        bad = [{"pigeons": "a"}, {"pigeons": 2.7}, {"holes": True}, {"h": [["a"], [1]]}, {"p": [[0], 1]}, {"h": 3}]
        bad += [{"h": [[2], [1]]}, {"p": [[0], [-1]]}]  # outside 0..holes-1 and 0..pigeons-1
        bad += [{"h": ["0", [1]]}, {"p": {"0": [0]}}, {"holes": "1_0"}, {"p": [[0], [" 1"]]}]
        out = str(tmp_path / "bphp.json")
        for change in bad:
            graph = write(tmp_path, "graph.json", dict(good, **change))
            assert main(["gen", "bphp-graph", "--graph", graph, "-o", out]) == 2, change
        assert_format_errors(capsys, len(bad))


    def test_gen_bphp_graph_reads_digit_strings(self, tmp_path):
        # every number of a graph file is read by parse_natural, as elsewhere
        as_ints = {"pigeons": 2, "holes": 2, "h": [[0], [1]], "p": [[0], [1]]}
        as_text = {"pigeons": "2", "holes": "2", "h": [["0"], ["1"]], "p": [[0], ["1"]]}
        written = []
        for k, spec in enumerate((as_ints, as_text)):
            out = tmp_path / f"bphp{k}.json"
            graph = write(tmp_path, f"graph{k}.json", spec)
            assert main(["gen", "bphp-graph", "--graph", graph, "-o", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


def test_python_m_pcsos_help():
    src = os.path.dirname(os.path.dirname(pcsos.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "pcsos", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "check-sos" in done.stdout


def test_elim_radical_output_ignores_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(pcsos.__file__))
    proof = tmp_path / "ss5.json"
    dump_json(derivation_to_json(gen_subset_sum(5, GF(11)).certificate), proof)
    written = []
    for seed in ("1", "2"):
        out = tmp_path / f"flat{seed}.json"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        argv = [sys.executable, "-m", "pcsos", "translate", "elim-radical", str(proof), "-o", str(out)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


class TestFolAndSearch:
    def test_fol_classify(self, capsys):
        assert main(["fol", "classify", "--formula", "(= (X 0) (rat 1))"]) == 0
        assert main(["fol", "classify", "--formula", "(not (= (X 0) (rat 1)))"]) == 1
        # a conjunct's reason is the conjunction's
        formula = "(and (= (X 0) (rat 0)) (not (= (X 1) (rat 0))))"
        capsys.readouterr()
        assert main(["fol", "classify", "--formula", formula, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"valid": False, "reason": "Not over an oracle-mentioning subformula"}

    def test_fol_ring_option(self, tmp_path, capsys):
        formula = "(= (X 0) (rat 3))"
        out = str(tmp_path / "eqs.json")
        assert main(["fol", "translate", "--formula", formula, "--ring", "rational", "-o", out]) == 0
        assert load_json(out)["equations"] == ["x0 - 3"]
        assert main(["fol", "translate", "--formula", formula, "--ring", "gf:7", "-o", out]) == 0
        assert load_json(out)["equations"] == ["x0 + 4"]
        capsys.readouterr()
        # 4 and 1022117 = 1009 * 1013 are composite
        reasons = {
            "gf:4": "gf modulus must be a prime <= 2**31, got 4",
            "gf:1022117": "gf modulus must be a prime <= 2**31, got 1022117",
            "bogus": "bad ring 'bogus'; expected rational or gf:P",
        }
        for ring, reason in reasons.items():
            assert main(["fol", "translate", "--formula", formula, "--ring", ring]) == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == f"pcsos fol: error: argument --ring: {reason}"

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

    def test_search_closure_replays_a_deep_chain(self, tmp_path):
        # the replayed rows depend on each other 302 deep here, too deep for
        # a replay that recurses through a few stack frames per row
        instance, out = str(tmp_path / "chain.json"), str(tmp_path / "derivation.json")
        assert main(["gen", "chain", "--n", "600", "-o", instance]) == 0
        assert main(["search", "closure", instance, "--degree", "2", "--query", "1", "-o", out]) == 0
        report = check_derivation(derivation_from_json(load_json(out)))
        assert report.valid and report.refutation and report.degree == 2

    def test_search_not_derivable(self, tmp_path):
        eqs = write(tmp_path, "eqs.json", eqset_to_json(eqset(RATIONAL, [P("x1^2")])))
        assert main(["search", "closure", eqs, "--degree", "2", "--query", "x1"]) == 1

    def test_search_multiplies_by_query_variables(self, tmp_path, capsys):
        # x2 occurs in the query only; x1*x2 is one multiplication of the axiom x1
        eqs = write(tmp_path, "eqs.json", eqset_to_json(eqset(RATIONAL, [P("x1")])))
        out = str(tmp_path / "derivation.json")
        args = ["search", "closure", eqs, "--degree", "2", "--query", "x1*x2", "-o", out, "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["derivable"] and payload["valid"]
        derivation = derivation_from_json(load_json(out))
        assert check_derivation(derivation).valid
        assert derivation.final_polynomial() == P("x1*x2")
        assert main(["check", out]) == 0

    def test_search_fractional_query(self, tmp_path, capsys):
        # x2 = 2 and x1*x2 = -3 give x1 = -3/2, at degree 2
        eqs = write(tmp_path, "eqs.json", eqset_to_json(eqset(RATIONAL, [P("1/2*x1*x2 + 3/2"), P("x2 - 2")])))
        out = str(tmp_path / "derivation.json")
        args = ["search", "closure", eqs, "--degree", "2", "--query", "1/2 + 1/3*x1", "-o", out, "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["derivable"] and payload["valid"]
        derivation = derivation_from_json(load_json(out))
        assert check_derivation(derivation).valid
        assert derivation.lines[-1][0] == P("1/2 + 1/3*x1")

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


def _proof_chain(depth) -> str:
    """The JSON text of a valid sequent proof `depth` nodes deep: weakenings
    and contractions on the left over one logical axiom.  It is built flat,
    since json's own writer recurses once per level."""
    phi, psi = "(= (X 0) (rat 0))", "(= (X 1) (rat 0))"
    opened = []
    for k in range(depth - 1, 0, -1):
        rule = "weakening-l" if k == 1 or k % 2 == 0 else "contraction-l"
        node = {"rule": rule, "conclusion": {"ante": [phi] + [psi] * (1 if k % 2 else 2), "succ": [phi]}}
        opened.append(json.dumps(node)[:-1] + ', "premises": [')
    leaf = {"rule": "logical-axiom", "conclusion": {"ante": [phi], "succ": [phi]}, "premises": []}
    return "".join(opened) + json.dumps(leaf) + "]}" * (depth - 1)


class TestProofNesting:
    def test_proof_at_the_limit_runs(self, tmp_path, capsys):
        path = tmp_path / "proof.json"
        path.write_text(_proof_chain(MAX_PROOF_DEPTH))
        assert main(["lkr", "check", str(path)]) == 0
        assert main(["lkr", "compile", str(path)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_proof_past_the_limit_exit_two(self, tmp_path):
        # 490 levels: shallower than json's own limit, about 494, in a fresh process
        path = tmp_path / "proof.json"
        path.write_text(_proof_chain(490))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pcsos.__file__)))
        for action in ("check", "compile"):
            argv = [sys.executable, "-m", "pcsos", "lkr", action, str(path)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            message = f"error: proof nested deeper than {MAX_PROOF_DEPTH} levels\n"
            assert (done.returncode, done.stderr) == (2, message)
