import ast
import hashlib
import json
import random
import re
import typing
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import pcsos
from pcsos import degsearch, families, fol, lkr, simulate
from pcsos.algebra import GF, MINUS_INF, RATIONAL, Polynomial, eqset, parse_poly
from pcsos.cli import main
from pcsos.proofcheck import (
    Add,
    Axiom,
    BoolAxiom,
    Derivation,
    DerivationBuilder,
    Justification,
    Mul,
    RULES,
    ProofFormatError,
    ProofStructureError,
    Radical,
    Sos,
    SosCertificate,
    ZeroIntro,
    check_derivation,
    check_nullstellensatz,
    check_sos,
    derivation_from_json,
    derivation_to_json,
    dump_json,
    eqset_from_json,
    eqset_to_json,
    normalize_refutation,
    scale_certificate,
    _bool_poly,
    sos_from_json,
    sos_to_json,
)


def P(text, ring=RATIONAL):
    return parse_poly(text, ring)


def lines_derivation(system, axioms, lines, ring=RATIONAL, boolean=False):
    return Derivation(system, eqset(ring, axioms, boolean), tuple(lines))


class TestCheckDerivation:
    def test_single_multiplication(self):
        d = lines_derivation(
            "pc",
            [P("x1")],
            [(P("x1"), Axiom(0)), (P("x1^2"), Mul(0, 1))],
        )
        rep = check_derivation(d)
        assert rep.valid and rep.degree == 2 and not rep.refutation

    def test_radical_needs_pc_rad(self):
        lines = [(P("x1^2"), Axiom(0)), (P("x1"), Radical(0))]
        ok = check_derivation(lines_derivation("pc_rad", [P("x1^2")], lines))
        assert ok.valid and ok.uses_radical and ok.degree == 2
        bad = check_derivation(lines_derivation("pc", [P("x1^2")], lines))
        assert not bad.valid and bad.failure[0] == 1

    def test_sos_rule_needs_pc_plus(self):
        lines = [
            (P("x1^2 + x2^2"), Axiom(0)),
            (P("x1^2"), Sos(0, P("x1"), (P("x2"),))),
        ]
        ok = check_derivation(lines_derivation("pc_plus", [P("x1^2 + x2^2")], lines))
        assert ok.valid and ok.uses_sos_rule
        for system in ("pc", "pc_rad"):
            bad = check_derivation(lines_derivation(system, [P("x1^2 + x2^2")], lines))
            assert not bad.valid
        # the witness and squares must recompose the cited line
        lines[1] = (P("x1^2"), Sos(0, P("x1"), ()))
        bad = check_derivation(lines_derivation("pc_plus", [P("x1^2 + x2^2")], lines))
        assert bad.failure == (1, P("x2^2"))
        b = DerivationBuilder("pc_plus", eqset(RATIONAL, [P("x1^2 + x2^2")]))
        with pytest.raises(ProofStructureError):
            b.sos_step(b.axiom(0), P("x1"), ())

    def test_bool_requires_flag(self):
        lines = [(P("x1^2 - x1"), BoolAxiom(1))]
        ok = check_derivation(lines_derivation("pc", [], lines, boolean=True))
        assert ok.valid
        bad = check_derivation(lines_derivation("pc", [], lines, boolean=False))
        assert not bad.valid

    def test_add_with_ring_coefficients(self):
        d = lines_derivation(
            "pc",
            [P("x1"), P("1 - x1")],
            [
                (P("x1"), Axiom(0)),
                (P("1 - x1"), Axiom(1)),
                (P("1"), Add(0, 1, 1, 1)),
            ],
        )
        rep = check_derivation(d)
        assert rep.valid and rep.refutation and rep.degree == 1

    def test_zero_line(self):
        d = lines_derivation("pc", [], [(P("0"), ZeroIntro())])
        assert check_derivation(d).valid

    def test_bad_identity_reports_line_and_mismatch(self):
        d = lines_derivation(
            "pc",
            [P("x1")],
            [(P("x1"), Axiom(0)), (P("x1^2 + 1"), Mul(0, 1))],
        )
        rep = check_derivation(d)
        assert not rep.valid
        assert rep.failure == (1, P("1"))

    def test_forward_reference_rejected(self):
        d = lines_derivation("pc", [P("x1")], [(P("x1^2"), Mul(0, 1))])
        with pytest.raises(ProofStructureError):
            check_derivation(d)

    def test_axiom_index_out_of_range(self):
        d = lines_derivation("pc", [P("x1")], [(P("x2"), Axiom(3))])
        with pytest.raises(ProofStructureError):
            check_derivation(d)

    def test_gf_derivation(self):
        g = GF(3)
        d = lines_derivation(
            "pc",
            [P("x1 + 1", g)],
            [(P("x1 + 1", g), Axiom(0)), (P("2*x1 + 2", g), Add(0, 0, 1, 1))],
            ring=g,
        )
        assert check_derivation(d).valid


class TestCheckSos:
    def fphp21(self):
        axioms = eqset(RATIONAL, [P("x0 - 1"), P("x1 - 1"), P("x0*x1")], boolean_axioms=False)
        return SosCertificate(
            axioms=axioms,
            multipliers=((2, P("-1")), (0, P("x1")), (1, P("1"))),
            squares=(),
            target=P("-1"),
        )

    def test_fphp_two_one_refutation(self):
        rep = check_sos(self.fphp21())
        assert rep.valid and rep.refutation and rep.degree == 2

    def test_square_of_one(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, []),
            multipliers=(),
            squares=(P("1"),),
            target=P("1"),
        )
        rep = check_sos(cert)
        assert rep.valid and rep.degree == 0 and not rep.refutation

    def test_identity_mismatch_reported(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1")]),
            multipliers=((0, P("1")),),
            squares=(),
            target=P("-1"),
        )
        rep = check_sos(cert)
        assert not rep.valid
        assert rep.failure[1] == P("x1 + 1")

    def test_bool_multiplier_gate(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, []),
            multipliers=(),
            bool_multipliers=((1, P("1")),),
            squares=(),
            target=P("x1^2 - x1"),
        )
        with pytest.raises(ProofStructureError):
            check_sos(cert)

    def test_negative_constant_rejected(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, []),
            multipliers=(),
            squares=(),
            constant=Fraction(-1),
            target=P("-1"),
        )
        with pytest.raises(ProofStructureError):
            check_sos(cert)

    def test_normalization_preserves_degree(self):
        # -3 target: multipliers, constant and square weights scaled by 1/3
        axioms = eqset(RATIONAL, [P("x1 - 1")], boolean_axioms=True)
        cert = SosCertificate(
            axioms=axioms,
            multipliers=((0, P("3")),),
            bool_multipliers=((1, P("-3")),),
            squares=(P("x1 - 1"), P("x1 - 1")),
            constant=Fraction(1),
            target=P("-x1^2 + 2*x1"),
        )
        rep = check_sos(cert)
        assert rep.valid and rep.degree == 2 and not rep.refutation
        # refutation of {x1 + 1} over the Booleans, scaled to target -3
        const_cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1 + 1")], boolean_axioms=True),
            multipliers=((0, P("3/2*x1 - 3")), (0, P("-x1 - 1"))),
            bool_multipliers=((1, P("-3/2")),),
            squares=(P("x1 + 1"),),
            constant=Fraction(0),
            target=P("-3"),
        )
        assert check_sos(const_cert).refutation
        norm = normalize_refutation(const_cert)
        nrep = check_sos(norm)
        assert nrep.valid and nrep.refutation
        assert norm.target == P("-1")
        assert nrep.degree == check_sos(const_cert).degree


def weighted_refutation():
    # -(x1^2 + 3*x2^2 + 1) + 1/4*(2*x1)^2 + 3*x2^2 == -1
    return SosCertificate(
        axioms=eqset(RATIONAL, [P("x1^2 + 3*x2^2 + 1")]),
        multipliers=((0, P("-1")),),
        squares=(P("2*x1"), P("x2")),
        target=P("-1"),
        weights=(Fraction(1, 4), Fraction(3)),
    )


class TestWeightedSquares:
    def test_identity_counts_each_weight(self):
        cert = weighted_refutation()
        rep = check_sos(cert)
        assert rep.valid and rep.refutation and rep.degree == 2
        for weights in [(), (Fraction(1, 4), 2), (Fraction(1, 2), 3)]:
            assert not check_sos(replace(cert, weights=weights)).valid

    def test_non_positive_or_misaligned_weights_rejected(self):
        cert = weighted_refutation()
        for weights in [(0, 3), (Fraction(-1, 2), 3), (Fraction(1, 4),), (1, 1, 1)]:
            with pytest.raises(ProofStructureError):
                check_sos(replace(cert, weights=weights))

    def test_json_round_trip(self):
        cert = weighted_refutation()
        obj = sos_to_json(cert)
        assert obj["weights"] == ["1/4", "3"]
        again = sos_from_json(obj)
        assert again == cert
        assert check_sos(again).valid

    def test_unit_weights_are_not_written(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1^2 + x2^2 + 1")]),
            multipliers=((0, P("-1")),),
            squares=(P("x1"), P("x2")),
            target=P("-1"),
        )
        obj = sos_to_json(cert)
        assert "weights" not in obj
        assert sos_to_json(replace(cert, weights=(Fraction(1), 1))) == obj

    def test_normalization_rescales_weights(self):
        cert = replace(weighted_refutation(), multipliers=((0, P("-3")),), target=P("-3"), weights=(Fraction(3, 4), 9))
        assert check_sos(cert).refutation
        norm = normalize_refutation(cert)
        assert norm.squares == cert.squares
        assert norm.weights == (Fraction(1, 4), 3)
        assert norm.multipliers == ((0, P("-1")),)
        rep = check_sos(norm)
        assert rep.valid and rep.refutation and norm.target == P("-1")


def weighted_step():
    # x1^2 + 3*x2^2 + x3^2 is x1^2 plus the weights 3 and 1 on x2^2 and x3^2
    axiom = P("x1^2 + 3*x2^2 + x3^2")
    return lines_derivation(
        "pc_plus", [axiom], [(axiom, Axiom(0)), (P("x1^2"), Sos(0, P("x1"), (P("x2"), P("x3")), (3, 1)))]
    )


def run_check(tmp_path, capsys, command, obj):
    """Exit code, --json payload (None on an error exit) and stderr of one CLI check."""
    path = tmp_path / "input.json"
    dump_json(obj, path)
    code = main([command, str(path), "--json"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


class TestWeightedSosStep:
    def test_weights_recompose_and_round_trip(self, tmp_path):
        d = weighted_step()
        rep = check_derivation(d)
        assert rep.valid and rep.uses_sos_rule and rep.degree == 2
        obj = derivation_to_json(d)
        assert obj["lines"][1]["rule"] == {
            "kind": "sos", "i": 0, "p": "x1", "squares": ["x2", "x3"], "weights": ["3", "1"]
        }
        assert derivation_from_json(obj) == d
        # all-one weights are not written, and a file without them reads as all one
        axiom = P("x1^2 + x2^2")
        lines = [(axiom, Axiom(0)), (P("x1^2"), Sos(0, P("x1"), (P("x2"),), (1,)))]
        unit = lines_derivation("pc_plus", [axiom], lines)
        assert check_derivation(unit).valid
        obj = derivation_to_json(unit)
        assert "weights" not in obj["lines"][1]["rule"]
        dump_json(obj, tmp_path / "a.json")
        dump_json(derivation_to_json(derivation_from_json(obj)), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("weights", [(0, 1), (-3, 1), (3, Fraction(-1, 2)), (3,), (3, 1, 1)])
    def test_bad_weights_fail_the_line(self, tmp_path, capsys, weights):
        d = weighted_step()
        poly, just = d.lines[1]
        bad = replace(d, lines=(d.lines[0], (poly, replace(just, weights=weights))))
        rep = check_derivation(bad)
        assert not rep.valid and rep.failure[0] == 1
        b = DerivationBuilder("pc_plus", d.axioms)
        with pytest.raises(ProofStructureError):
            b.sos_step(b.axiom(0), P("x1"), (P("x2"), P("x3")), weights)
        code, payload, _ = run_check(tmp_path, capsys, "check", derivation_to_json(bad))
        assert code == 1 and (payload["failure"]["line"], payload["failure"]["rule"]) == (1, "sos")

    @pytest.mark.parametrize("weights", ["3", 3, {"0": 3}, None, ["abc"], ["1/0"], [True]])
    def test_malformed_weights_exit_two(self, tmp_path, capsys, weights):
        obj = derivation_to_json(weighted_step())
        obj["lines"][1]["rule"]["weights"] = weights
        with pytest.raises(ProofFormatError):
            derivation_from_json(obj)
        code, payload, err = run_check(tmp_path, capsys, "check", obj)
        assert (code, payload) == (2, None) and err.startswith("error:") and "Traceback" not in err

    def test_not_admitted_over_gf(self, tmp_path, capsys):
        # 1^2 + 2^2 = 0 mod 5, yet 1 = 0 does not follow from no axioms
        obj = {
            "axioms": [],
            "boolean_axioms": False,
            "lines": [
                {"poly": "0", "rule": {"kind": "zero"}},
                {"poly": "1", "rule": {"i": 0, "kind": "sos", "p": "1", "squares": ["2"]}},
            ],
            "ring": {"kind": "gf", "p": 5},
            "system": "pc_plus",
        }
        rep = check_derivation(derivation_from_json(obj))
        assert not rep.valid and not rep.refutation and rep.failure == (1, P("1", GF(5)))
        code, payload, _ = run_check(tmp_path, capsys, "check", obj)
        assert code == 1 and not payload["refutation"]
        assert (payload["failure"]["line"], payload["failure"]["rule"]) == (1, "sos")


class TestCertificateRefusals:
    def test_check_sos_needs_the_rationals(self, tmp_path, capsys):
        g = GF(5)
        cert = SosCertificate(
            axioms=eqset(g, []), multipliers=(), squares=(P("1", g), P("2", g)), target=P("0", g)
        )
        with pytest.raises(ProofStructureError, match="rational ring"):
            check_sos(cert)
        # the file's ring is honoured, and over GF(5) 1 + 4 is 0: refused before any check
        obj = {"axioms": [], "target": "0", "squares": ["1", "2"], "ring": {"kind": "gf", "p": 5}}
        code, payload, err = run_check(tmp_path, capsys, "check-sos", obj)
        assert (code, payload) == (1, None)
        assert err == "invalid: sum-of-squares certificates require the rational ring\n"

    def test_multiplier_axiom_out_of_range(self, tmp_path, capsys):
        cert = replace(TestCheckSos().fphp21(), multipliers=((3, P("1")),))
        with pytest.raises(ProofStructureError, match="out of range"):
            check_sos(cert)
        for axiom in (3, -1):
            obj = dict(sos_to_json(cert), multipliers=[{"axiom": axiom, "poly": "1"}])
            code, payload, err = run_check(tmp_path, capsys, "check-sos", obj)
            assert (code, payload) == (1, None) and err.startswith("invalid: multiplier cites axiom")

    def test_non_positive_scale(self, tmp_path, capsys):
        cert = TestCheckSos().fphp21()
        for scale in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ProofStructureError, match="positive"):
                scale_certificate(cert, scale, P("1"))
        # --normalize scales by 1/c only for a valid target -c, c > 0, so
        # a certificate of +1 is refused before any scale is taken
        obj = {"axioms": [], "target": "1", "squares": ["1"]}
        path = tmp_path / "one.json"
        dump_json(obj, path)
        assert main(["check-sos", str(path), "--normalize"]) == 1
        assert "requires a valid refutation" in capsys.readouterr().err


class TestStaticReportsPinned:
    """Failure pairs of wrong certificates, pinned from the checkers as they
    were before both came to share one expansion of their identity."""

    def test_wrong_sos_certificate(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1*x2 - 1"), P("x1 + x2 - 1")], boolean_axioms=True),
            multipliers=((0, P("1/2*x1 - x2 + 1")), (1, P("2*x2^2 - 1/3"))),
            bool_multipliers=((1, P("x2 - 1/2")),),
            squares=(P("x1*x2 - x2"), P("1/2*x1 + 1/3")),
            weights=(2, Fraction(3, 4)),
            constant=Fraction(5, 3),
            target=P("-1"),
        )
        rep = check_sos(cert)
        mismatch = P("2*x1^2*x2^2 + 3/2*x1^2*x2 - 3*x1*x2^2 + 2*x2^3 - 5/16*x1^2 - 1/12*x1 + 2/3*x2 + 25/12")
        assert (rep.valid, rep.degree, rep.refutation, rep.failure) == (False, 4, False, (-1, mismatch))

    @pytest.mark.parametrize(
        "ring, mismatch",
        [
            (RATIONAL, "4*x1^2*x2 - x1*x2^2 + 2*x1^2 + x1*x2 + 3*x2^2 - 3*x1 + 7*x2 - 2"),
            (GF(7), "4*x1^2*x2 + 6*x1*x2^2 + 2*x1^2 + x1*x2 + 3*x2^2 + 4*x1 + 5"),
        ],
    )
    def test_wrong_ns_certificate(self, ring, mismatch):
        cert = SosCertificate(
            axioms=eqset(ring, [P("x1^2 + 3*x2", ring), P("x1*x2 - 1", ring)]),
            multipliers=((0, P("x2 + 2", ring)), (1, P("3*x1 - x2 + 1", ring))),
            target=P("1", ring),
        )
        rep = check_nullstellensatz(cert)
        assert (rep.valid, rep.degree, rep.refutation) == (False, 3, False)
        assert rep.failure == (-1, P(mismatch, ring))

    def test_ns_multiplier_axiom_out_of_range(self, tmp_path, capsys):
        cert = SosCertificate(axioms=eqset(RATIONAL, [P("x1")]), multipliers=((1, P("1")),), target=P("x1"))
        with pytest.raises(ProofStructureError, match="out of range"):
            check_nullstellensatz(cert)
        for axiom in (1, -1):
            obj = dict(sos_to_json(cert), multipliers=[{"axiom": axiom, "poly": "1"}])
            code, payload, err = run_check(tmp_path, capsys, "check-ns", obj)
            assert (code, payload) == (1, None) and err.startswith("invalid: multiplier cites axiom")


class TestFphpCertificateFiles:
    """The certify path on fPHP(n+1, n): the bytes it writes, and the
    failure pairs of files damaged in one place, pinned from the reader
    and checker that sent every polynomial through the multi-term code."""

    def test_written_bytes_are_pinned(self, tmp_path):
        digest, size = hashlib.sha256(), 0
        for n in range(1, 25):
            path = tmp_path / f"fphp-{n + 1}-{n}.json"
            dump_json(sos_to_json(families.gen_fphp_sos(n + 1, n)), path)
            data = path.read_bytes()
            digest.update(data)
            size += len(data)
        assert size == 2_023_274
        assert digest.hexdigest() == "5c1756c40b19f5cd4d8643ae2acdba8a58010f6e40744e5348dcdc61643e373c"

    @pytest.mark.parametrize(
        "key, position, field, text, mismatch",
        [
            ("multipliers", 5, "poly", "-1", "x0*x3"),  # a constant multiplier
            ("bool_multipliers", 2, "poly", "1", "2*x5^2 - 2*x5"),
            ("axioms", 4, None, "2*x0*x1", "-2*x0*x1"),  # an injectivity axiom
            ("constant", None, None, "1/2", "1/2"),
        ],
    )
    def test_damaged_file_is_rejected(self, tmp_path, capsys, key, position, field, text, mismatch):
        obj = sos_to_json(families.gen_fphp_sos(4, 3))
        assert run_check(tmp_path, capsys, "check-sos", obj)[0] == 0
        if position is None:
            obj[key] = text
        elif field is None:
            obj[key][position] = text
        else:
            obj[key][position][field] = text
        code, payload, _ = run_check(tmp_path, capsys, "check-sos", obj)
        assert (code, payload["failure"]) == (1, {"line": None, "rule": None, "mismatch": mismatch})

    @pytest.mark.parametrize("ring", [RATIONAL, GF(2), GF(7), GF(2**31 - 1)])
    def test_bool_poly_is_the_product_form(self, ring):
        for v in (0, 1, 17, 10**6):
            x = Polynomial.variable(ring, v)
            want = x * x - x
            got = _bool_poly(ring, v)
            assert list(got.terms.items()) == list(want.terms.items())
            assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


class TestCheckNullstellensatz:
    def test_basic_refutation(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1"), P("1 - x1")]),
            multipliers=((0, P("1")), (1, P("1"))),
            target=P("1"),
        )
        rep = check_nullstellensatz(cert)
        assert rep.valid and rep.degree == 1 and rep.refutation

    def test_x_not_in_ideal_of_x_squared(self):
        # no multiplier choice can work; a submitted one is invalid
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1^2")]),
            multipliers=((0, P("1")),),
            target=P("x1"),
        )
        assert not check_nullstellensatz(cert).valid

    def test_empty_certificate_for_zero(self):
        cert = SosCertificate(axioms=eqset(RATIONAL, []), multipliers=(), target=P("0"))
        rep = check_nullstellensatz(cert)
        assert rep.valid and rep.degree == MINUS_INF

    # over GF(5) the two multiplied axioms sum to 5*x1 + 1: its x1 term
    # vanishes only once the accumulated identity is reduced mod 5
    GF5_CERT = {
        "ring": {"kind": "gf", "p": 5},
        "axioms": ["x1 + 1", "4*x1"],
        "multipliers": [{"axiom": 0, "poly": "1"}, {"axiom": 1, "poly": "1"}],
        "target": "1",
    }

    def test_gf_sums_reduce_mod_p(self):
        rep = check_nullstellensatz(sos_from_json(self.GF5_CERT))
        assert rep.valid and rep.refutation and rep.degree == 1
        rep = check_nullstellensatz(sos_from_json({**self.GF5_CERT, "target": "2"}))
        assert not rep.valid and rep.failure == (-1, P("4", GF(5)))

    def test_gf_sums_reduce_mod_p_in_the_cli(self, tmp_path, capsys):
        path = tmp_path / "ns.json"
        dump_json(self.GF5_CERT, path)
        assert main(["check-ns", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["refutation"] and out["degree"] == 1
        dump_json({**self.GF5_CERT, "target": "2"}, path)
        assert main(["check-ns", str(path), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["failure"] == {"line": None, "mismatch": "4", "rule": None}


def _package_imports(module: str) -> set[str]:
    """The modules of the package that pcsos/<module>.py imports."""
    tree = ast.parse((Path(pcsos.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pcsos")):
            base = (node.module or "").removeprefix("pcsos").lstrip(".")
            found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.split(".")[0] == "pcsos"}
    return found


class TestKernelBoundary:
    def test_the_kernel_imports_only_algebra(self):
        # the trusted kernel: algebra stands alone and proofcheck builds on it only
        assert _package_imports("algebra") == set()
        assert _package_imports("proofcheck") == {"algebra"}
        assert _package_imports("simulate") >= {"algebra", "proofcheck"}  # the walker sees imports


class TestNoGlobalState:
    def test_no_module_level_cache_or_global_statement(self):
        # a memo that outlives its call would make repeated work look faster
        # than one call is; memos belong to the object of one call
        found = []
        for path in sorted(Path(pcsos.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    found.append((path.name, node.lineno, "global"))
                elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                    found += [(path.name, node.lineno, a.name) for a in node.names if a.name in ("cache", "lru_cache")]
                elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                    if isinstance(node.value, ast.Name) and node.value.id == "functools":
                        found.append((path.name, node.lineno, node.attr))
        assert found == []


class TestBuilder:
    def test_mul_poly_and_combination(self):
        axioms = eqset(RATIONAL, [P("x1 + 1")])
        b = DerivationBuilder("pc", axioms)
        base = b.axiom(0)
        prod = b.mul_poly(base, P("2*x2^2 - 3"))
        assert b.poly(prod) == P("x1 + 1") * P("2*x2^2 - 3")
        combo = b.combination([(base, Fraction(2)), (prod, Fraction(-1))])
        assert b.poly(combo) == P("x1 + 1").scale(2) - P("x1 + 1") * P("2*x2^2 - 3")
        assert check_derivation(b.build()).valid

    def test_radical_of_validates_root(self):
        axioms = eqset(RATIONAL, [P("x1^2")])
        b = DerivationBuilder("pc_rad", axioms)
        i = b.axiom(0)
        j = b.radical_of(i, P("x1"))
        assert b.poly(j) == P("x1")
        with pytest.raises(ProofStructureError):
            b.radical_of(i, P("x1 + 1"))
        assert check_derivation(b.build()).valid

    def test_line_cache_dedups(self):
        axioms = eqset(RATIONAL, [P("x1")])
        b = DerivationBuilder("pc", axioms)
        a1 = b.axiom(0)
        a2 = b.axiom(0)
        m1 = b.mul_var(a1, 2)
        m2 = b.mul_var(a2, 2)
        assert a1 == a2 and m1 == m2 and len(b) == 2

    def test_ensure_last_restates_a_cached_line(self):
        # add returns the cached earlier line, so ensure_last restates it
        b = DerivationBuilder("pc", eqset(RATIONAL, [P("x1"), P("x2")]))
        s = b.add(b.axiom(0), b.axiom(1), 1, 1)
        b.mul_var(s, 1)
        again = b.add(0, 1, 1, 1)
        assert again == s and b.ensure_last(len(b) - 1) == len(b) - 1
        last = b.ensure_last(again)
        assert last == len(b) - 1 == 4 and b.poly(last) == P("x1 + x2")
        d = b.build()
        assert d.final_polynomial() == P("x1 + x2") and d.lines[last][1] == Add(s, s, 1, 0)
        assert check_derivation(d).valid

    def test_boolean_reduce_and_the_flag_it_turns_on(self):
        axioms = eqset(RATIONAL, [P("x1^3*x2^2 + x2")])
        b = DerivationBuilder("pc", axioms)
        line = b.boolean_reduce(b.axiom(0), P("x1*x2 + x2"))
        assert b.poly(line) == P("x1*x2 + x2")
        with pytest.raises(ProofStructureError):
            b.boolean_reduce(b.axiom(0), P("x1 + x2"))
        d = b.build()
        assert d.axioms.boolean_axioms and not axioms.boolean_axioms
        assert d.axioms.members == axioms.members and d.ring == RATIONAL
        assert check_derivation(d).valid


class TestRuleTable:
    def test_one_entry_per_justification(self):
        members = typing.get_args(Justification)
        assert len(members) == len(RULES) and set(members) == set(RULES)
        assert all(rule.cls is cls for cls, rule in RULES.items())
        assert len({rule.kind for rule in RULES.values()}) == len(RULES)

    def test_readme_lists_the_table_kinds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme.split("Rule kinds")[1].split("\n\n")[0]
        assert set(re.findall(r"`([a-z_]+)`", paragraph)) == {r.kind for r in RULES.values()}


class TestJsonRoundTrips:
    def test_derivation_round_trip(self):
        # every rule kind, Boolean axioms and fractional coefficients; the
        # expected file form is pinned literally
        axioms = [P("x1^2 + x2^2"), P("x1 - 1")]
        d = lines_derivation(
            "pc_plus",
            axioms,
            [
                (P("x1^2 + x2^2"), Axiom(0)),
                (P("x1^2"), Sos(0, P("x1"), (P("x2"),))),
                (P("x1"), Radical(1)),
                (P("x1^2"), Mul(2, 1)),
                (P("x1^2 - x1"), BoolAxiom(1)),
                (P("0"), ZeroIntro()),
                (P("x1 - 1"), Axiom(1)),
                (P("x1"), Add(3, 4, 1, -1)),
                (P("1/2"), Add(7, 6, Fraction(1, 2), Fraction(-1, 2))),
                (P("1"), Add(8, 5, 2, 1)),
            ],
            boolean=True,
        )
        assert {type(j) for _, j in d.lines} == set(RULES)
        assert check_derivation(d).refutation
        obj = derivation_to_json(d)
        assert obj == {
            "system": "pc_plus",
            "ring": {"kind": "rational"},
            "boolean_axioms": True,
            "axioms": ["x1^2 + x2^2", "x1 - 1"],
            "lines": [
                {"poly": "x1^2 + x2^2", "rule": {"kind": "axiom", "index": 0}},
                {"poly": "x1^2", "rule": {"kind": "sos", "i": 0, "p": "x1", "squares": ["x2"]}},
                {"poly": "x1", "rule": {"kind": "radical", "i": 1}},
                {"poly": "x1^2", "rule": {"kind": "mul", "i": 2, "var": "x1"}},
                {"poly": "x1^2 - x1", "rule": {"kind": "bool", "var": "x1"}},
                {"poly": "0", "rule": {"kind": "zero"}},
                {"poly": "x1 - 1", "rule": {"kind": "axiom", "index": 1}},
                {"poly": "x1", "rule": {"kind": "add", "i": 3, "j": 4, "a": "1", "b": "-1"}},
                {"poly": "1/2", "rule": {"kind": "add", "i": 7, "j": 6, "a": "1/2", "b": "-1/2"}},
                {"poly": "1", "rule": {"kind": "add", "i": 8, "j": 5, "a": "2", "b": "1"}},
            ],
        }
        again = derivation_from_json(obj)
        assert again == d

    def test_sos_round_trip(self):
        cert = TestCheckSos().fphp21()
        again = sos_from_json(sos_to_json(cert))
        assert again == cert


def _polys_of(cert: SosCertificate) -> list:
    return [*cert.axioms, cert.target, *(r for _, r in cert.multipliers),
            *(r for _, r in cert.bool_multipliers), *cert.squares]


class TestFileCodecMemos:
    """Each file decode parses each distinct text once and shares the result;
    each encode formats each polynomial object once.  Neither may change
    what is read or written."""

    def test_equal_texts_in_one_file_share_one_polynomial(self):
        obj = sos_to_json(families.gen_fphp_sos(5, 4))
        cert = sos_from_json(obj)
        by_text: dict = {}
        for p in _polys_of(cert):
            assert by_text.setdefault(p.format(), p) is p
        assert len({id(r) for _, r in cert.multipliers}) == 2  # "1" and "-2"
        d = derivation_from_json(derivation_to_json(simulate.sos_to_pcplus(cert)))
        polys = [*d.axioms, *(poly for poly, _ in d.lines)]
        by_text = {}
        for p in polys:
            assert by_text.setdefault(p.format(), p) is p
        assert len(by_text) < len(polys)  # each axiom line repeats its axiom

    @staticmethod
    def written_derivation(d):
        """(polynomial, text) for each polynomial derivation_to_json writes."""
        obj = derivation_to_json(d)
        pairs = list(zip(d.axioms, obj["axioms"]))
        for (poly, just), line in zip(d.lines, obj["lines"], strict=True):
            pairs.append((poly, line["poly"]))
            if isinstance(just, Sos):
                pairs.append((just.witness, line["rule"]["p"]))
                pairs += zip(just.squares, line["rule"]["squares"], strict=True)
        return d.ring, pairs

    @staticmethod
    def written_certificate(c):
        """(polynomial, text) for each polynomial sos_to_json writes."""
        obj = sos_to_json(c)
        pairs = list(zip(c.axioms, obj["axioms"])) + [(c.target, obj["target"])]
        for key, pieces in (("multipliers", c.multipliers), ("bool_multipliers", c.bool_multipliers)):
            pairs += [(r, entry["poly"]) for (_, r), entry in zip(pieces, obj[key], strict=True)]
        pairs += zip(c.squares, obj["squares"], strict=True)
        return RATIONAL, pairs

    def test_written_texts_are_the_polynomials_own(self):
        # a writer shares one monomial table across a file, and no text changes
        one = Polynomial.const(RATIONAL, 1)
        written = []
        for eqs, d in (
            (families.gen_chain(12, with_proofs=False).equations, 2),
            (families.gen_fphp(3, 2).equations, 2),
            (families.gen_fphp(4, 3).equations, 3),
        ):
            written.append(self.written_derivation(degsearch.extract_derivation(degsearch.pc_closure(eqs, d), one)))
        for m, n in ((4, 3), (5, 4)):
            there = simulate.sos_to_pcplus(families.gen_fphp_sos(m, n))
            written += [self.written_derivation(there)]
            written += [self.written_certificate(simulate.pcplus_refutation_to_sos(there))]
        for ring, seed in ((RATIONAL, 1), (GF(7), 2), (GF(2**31 - 1), 3)):
            rng = random.Random(seed)
            written += [self.written_derivation(_random_derivation(rng, ring)) for _ in range(20)]
        for ring, pairs in written:
            assert pairs
            for poly, text in pairs:
                assert text == poly.format()
                assert parse_poly(text, ring) == poly

    def test_one_monomial_with_many_coefficients(self):
        # x1*x2^2 alone first, then among other terms, with both signs
        texts = [
            "x1*x2^2", "-x1*x2^2", "2*x1*x2^2 - 1", "x1^4 - 1/3*x1*x2^2",
            "x1^4 - 5/2*x1*x2^2 + x3", "-7*x1*x2^2", "-x1*x2^2 + x3", "-x1*x2^2 - x3 + 1/2",
        ]
        polys = [P(t) for t in texts]
        d = Derivation("pc", eqset(RATIONAL, polys), tuple((p, Axiom(k)) for k, p in enumerate(polys)))
        obj = derivation_to_json(d)
        assert obj["axioms"] == [line["poly"] for line in obj["lines"]] == texts
        cert = SosCertificate(
            axioms=eqset(RATIONAL, polys[:2]),
            multipliers=((0, polys[2]), (1, polys[3])),
            squares=tuple(polys[5:]),
            target=polys[4],
        )
        obj = sos_to_json(cert)
        assert obj["axioms"] + [m["poly"] for m in obj["multipliers"]] == texts[:4]
        assert [obj["target"]] + obj["squares"] == texts[4:]

    def test_separate_decodes_share_nothing(self):
        obj = sos_to_json(families.gen_fphp_sos(4, 3))
        first, second = sos_from_json(obj), sos_from_json(obj)
        assert first == second
        assert not {id(p) for p in _polys_of(first)} & {id(p) for p in _polys_of(second)}

    def test_sos_round_trips(self):
        eps = simulate.pcplus_refutation_to_sos(
            simulate.sos_to_pcplus(families.gen_fphp_sos(5, 4))
        )
        assert any(w != 1 for w in eps.weights)
        for cert in (families.gen_fphp_sos(6, 5), weighted_refutation(), eps):
            assert sos_from_json(sos_to_json(cert)) == cert

    def test_compile_outputs_round_trip(self):
        # the derivations and equation sets the compilers emit
        reg = fol.FunctionRegistry.standard()
        chain = families.gen_chain(1).certificate
        derivations = [simulate.sos_to_pcplus(families.gen_fphp_sos(5, 4))]
        derivations += [
            simulate.eliminate_radical_char_p(families.gen_subset_sum(5, GF(p)).certificate)
            for p in (7, 11)
        ]
        derivations += [
            lkr.compile_lkr(chain, {"n": n}, target, reg)
            for n, target in ((160, "pc_rad"), (320, "pc_plus"))
        ]
        for d in derivations:
            assert derivation_from_json(derivation_to_json(d)) == d
        holes_of, pigeons_of, m, n = families.shift_graph(4)
        graph = families.gen_bphp_graph(holes_of, pigeons_of, m, n)
        eqs = fol.translate_formula(graph.formula, {}, graph.registry)
        assert eqset_from_json(eqset_to_json(eqs)) == eqs


def _random_derivation(rng: random.Random, ring) -> Derivation:
    """A derivation of a few random lines from random axioms; it need not
    refute anything, only be written."""

    def poly():
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exps = {rng.randrange(4): rng.randrange(1, 3) for _ in range(rng.randrange(0, 3))}
            terms[tuple(sorted(exps.items()))] = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
        return Polynomial(ring, terms)

    axioms = [p for p in (poly() for _ in range(3)) if not p.is_zero] or [Polynomial.const(ring, 1)]
    builder = DerivationBuilder("pc", eqset(ring, axioms))
    last = builder.axiom(0)
    for _ in range(rng.randrange(2, 8)):
        op = rng.randrange(3)
        if op == 0:
            last = builder.mul_var(last, rng.randrange(4))
        elif op == 1:
            other = builder.axiom(rng.randrange(len(axioms)))
            last = builder.add(last, other, rng.choice([1, -1, Fraction(1, 3)]), rng.choice([1, -2, Fraction(3, 2)]))
        else:
            last = builder.mul_poly(last, poly())
    return builder.build()


_TEXT = "ab\"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u4e2d\U0001f600"


def _random_json(rng: random.Random, depth: int):
    kind = rng.randrange(10 if depth < 5 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(2**256), 2**64)
    if kind == 2:
        return rng.choice([0.0, -0.0, 1e-300, -1.5e300, float("inf"), float("-inf"), float("nan"), rng.random()])
    if kind == 3:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind == 5:
        return rng.randrange(-3, 3)
    children = [_random_json(rng, depth + 1) for _ in range(rng.randrange(1, 5))]
    if kind < 8:
        return children if kind == 6 else tuple(children)
    return {"".join(rng.choice(_TEXT) for _ in range(rng.randrange(4))): c for c in children}


def _json_dump_bytes(obj) -> bytes:
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode("ascii")


class TestDumpJson:
    """dump_json writes exactly what json.dumps(obj, separators=(",", ":"),
    sort_keys=True) and a newline would."""

    def test_random_values(self, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "out.json"
        for _ in range(300):
            obj = {"value": _random_json(rng, 0), "list": [_random_json(rng, 0)]}
            dump_json(obj, path)
            assert path.read_bytes() == _json_dump_bytes(obj)

    def test_nesting_as_deep_as_json_dump(self, tmp_path):
        def nest(levels):
            value = 0
            for _ in range(levels):
                value = [{"k": value}]
            return value

        lo, hi = 1, 1000  # json.dumps encodes a list-of-dict nest of lo levels from here, not of hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _json_dump_bytes(nest(mid))
                lo = mid
            except RecursionError:
                hi = mid
        assert lo > 400
        levels = lo
        # dump_json reaches the encoder a few frames further down the stack
        levels -= 3
        path = tmp_path / "deep.json"
        dump_json(nest(levels), path)
        assert path.read_bytes() == _json_dump_bytes(nest(levels))


class TestDegreeRecomputation:
    def test_derivation_degree_is_max_over_lines(self):
        axioms = eqset(RATIONAL, [P("x1^2 + x2^2"), P("x1 - 1")])
        d = Derivation(
            "pc_plus",
            axioms,
            (
                (P("x1^2 + x2^2"), Axiom(0)),
                (P("x1^2"), Sos(0, P("x1"), (P("x2"),))),
                (P("x1"), Radical(1)),
                (P("x1 - 1"), Axiom(1)),
                (P("1"), Add(2, 3, 1, -1)),
            ),
        )
        rep = check_derivation(d)
        assert rep.degree == max(poly.degree for poly, _ in d.lines)

    def test_sos_degree_is_max_over_summands(self):
        cert = TestCheckSos().fphp21()
        rep = check_sos(cert)
        independent = max(
            [(r * cert.axioms[k]).degree for k, r in cert.multipliers]
            + [(s * s).degree for s in cert.squares]
        )
        assert rep.degree == independent

    def test_sos_degree_is_twice_the_largest_square(self):
        # the degree of each nonzero square, whatever the multipliers' degree
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1 + 1")]),
            multipliers=((0, P("1")),),
            squares=(P("x1*x2"), P("0"), P("1/2*x3 - 1/2*x1"), P("1/2*x3 + 1/2*x1")),
            target=P("x1^2*x2^2 + x1 + 1 + 1/2*x3^2 + 1/2*x1^2"),
            weights=(1, 7, 1, 1),
        )
        rep = check_sos(cert)
        assert rep.valid and rep.degree == 4
        round_trip = simulate.pcplus_refutation_to_sos(simulate.sos_to_pcplus(families.gen_fphp_sos(4, 3)))
        rep = check_sos(round_trip)
        assert rep.valid and rep.degree == 4 == max(2 * s.degree for s in round_trip.squares if not s.is_zero)


class TestSoundnessAndMutation:
    def boolean_fixture(self):
        axioms = [P("x1*x2 - 1")]
        b = DerivationBuilder("pc_rad", eqset(RATIONAL, axioms, True))
        ax = b.axiom(0)
        b1 = b.bool_axiom(1)
        t = b.mul_var(ax, 1)  # x1^2 x2 - x1
        u = b.mul_poly(b1, P("x2"))  # (x1^2-x1) x2
        b.add(t, u, 1, -1)  # x1 x2 - x1
        return b.build()

    def test_boolean_grid_soundness(self):
        d = self.boolean_fixture()
        rep = check_derivation(d)
        assert rep.valid
        nvars = sorted(set().union(*[p.variables() for p, _ in d.lines]))
        for bits in range(2 ** len(nvars)):
            point = {v: (bits >> k) & 1 for k, v in enumerate(nvars)}
            if not d.axioms.vanishes_at(point):
                continue
            for poly, _ in d.lines:
                assert poly.evaluate(point) == 0

    def test_mutations_rejected(self):
        d = self.boolean_fixture()
        assert check_derivation(d).valid
        rng = random.Random(99)
        rejected = 0
        attempts = 0
        while rejected < 100 and attempts < 1000:
            attempts += 1
            mutated = _mutate_derivation(d, rng)
            if mutated is None:
                continue
            if not check_derivation(mutated).valid:
                rejected += 1
            else:
                raise AssertionError("mutation survived the checker")
        assert rejected >= 100


def _mutate_derivation(d, rng):
    idx = rng.randrange(len(d.lines))
    poly, just = d.lines[idx]
    if poly.is_zero:
        mutated_poly = Polynomial.const(d.ring, 1)
    else:
        terms = poly.terms
        mono = rng.choice(list(terms))
        delta = d.ring.coerce(rng.choice([1, -1, 2]))
        terms[mono] = terms[mono] + delta
        mutated_poly = Polynomial(d.ring, terms)
        if mutated_poly == poly:
            return None
    lines = list(d.lines)
    lines[idx] = (mutated_poly, just)
    return Derivation(d.system, d.axioms, tuple(lines))
