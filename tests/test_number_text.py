"""Number text: algebra's one rational reader, natural reader and writer,
and every place a number enters the CLI."""

import json
import random
import time
from fractions import Fraction

import pytest

from pcsos.algebra import AlgebraError, format_rational, parse_natural, parse_rational
from pcsos.cli import main
from pcsos.families import gen_fphp_sos
from pcsos.proofcheck import derivation_to_json, dump_json, sos_to_json

from test_cli import refutation_proof

BAD_TEXT = ["1e2000000", "-1e-2000000", "9" * 5000, "١", "+1", " 1", "1_0", "nan", "1/0"]
BAD_JSON = [1.5, True, None]
# In an s-expression whitespace separates atoms, so " 1" is the atom "1".
SEXP_TEXT = [t for t in BAD_TEXT if t != " 1"]
HUGE_JSON_INT = object()  # a JSON integer token past the interpreter's digit limit


class TestReaders:
    def test_grammar(self):
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("-0.5") == Fraction(-1, 2)
        assert parse_rational(3) == 3 and type(parse_rational(3)) is Fraction
        assert parse_rational("007") == 7
        assert parse_natural("12") == 12 and parse_natural(0) == 0
        assert parse_natural("007") == 7 and type(parse_natural("007")) is int

    def test_natural_past_the_digit_limit(self):
        # the same refusal as parse_rational's, which read every natural once
        with pytest.raises(AlgebraError) as err:
            parse_natural("1" * 5000)
        assert str(err.value) == (
            "bad rational '" + "1" * 59 + "; expected -?D, -?D/D or -?D.D within the digit limit"
        )

    @pytest.mark.parametrize("value", BAD_TEXT + BAD_JSON + [".5", "5.", "1/-2", "1.5/2", "1e5"])
    def test_rational_refusals(self, value):
        t0 = time.perf_counter()
        with pytest.raises(AlgebraError):
            parse_rational(value)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("value", BAD_TEXT + BAD_JSON + ["-1", -1, "1/2", "0.0", "²"])
    def test_natural_refusals(self, value):
        with pytest.raises(AlgebraError):
            parse_natural(value)


class TestWriter:
    def test_seeded_round_trip(self):
        rng = random.Random(11)
        for _ in range(500):
            bits = rng.choice([4, 64, 1000, 14000])
            num = rng.randrange(-(2**bits), 2**bits)
            q = Fraction(num, rng.randrange(1, 2 ** rng.choice([1, 8, 64, 14000])))
            text = format_rational(q)
            assert parse_rational(text) == q
            assert text == str(q)  # within the digit limit the writer is str()

    def test_past_the_digit_limit(self):
        # str() refuses these; the writer builds the same digits in pieces
        a = int("9876543210" * 400)  # 4,000 digits
        n, digits = a * 10**4000 + a, "9876543210" * 800
        assert format_rational(n) == digits
        assert format_rational(-n) == "-" + digits
        assert format_rational(Fraction(-7, n)) == "-7/" + digits
        assert format_rational(10**9000 + 7) == "1" + "0" * 8999 + "7"


def _json_text(obj, value) -> str:
    """JSON text of obj with the placeholder string replaced by value, which
    is either any JSON value or a raw integer token."""
    text = json.dumps(obj)
    raw = "9" * 5000 if value is HUGE_JSON_INT else json.dumps(value)
    return text.replace('"@"', raw)


def _file(tmp_path, obj, value) -> str:
    path = tmp_path / "input.json"
    path.write_text(_json_text(obj, value))
    return str(path)


def _proof_with_coefficient(a="@"):
    obj = derivation_to_json(refutation_proof())
    obj["lines"][2]["rule"]["a"] = a
    return obj


def _proof(tmp_path):
    return _file(tmp_path, _proof_with_coefficient(1), None)


def _certificate(key):
    obj = sos_to_json(gen_fphp_sos(2, 1))
    obj[key] = "@" if key == "constant" else ["@"] * len(obj["squares"])
    return obj


def _registry(kind, where):
    # with no entries, any arity read is one the entries agree with
    spec = {"arity": 1, "entries": [] if where == "arity" else [[[0], 1]], "default": 0}
    if where == "entry":
        spec["entries"][0][1] = "@"
    elif where == "args":
        spec["entries"][0][0] = ["@"]
    else:
        spec[where] = "@"
    return {kind: {"t": spec}}


FORMULA = "(forall i n (= (X i) (rat 0)))"
CLOSED = "(= (X 0) (rat 0))"


def _gen(tmp_path, *argv):
    return ["gen", *argv, "-o", str(tmp_path / "instance.json")]


def _search(tmp_path, *argv, ring=None, value=None):
    eqs = _file(tmp_path, {"ring": ring or {"kind": "rational"}, "equations": ["x1"]}, value)
    return ["search", "closure", eqs, "--query", "1", *argv]

# site -> (argv for a value, and how the value arrives: as an s-expression
# atom, as the text of an option or a JSON string, or as any JSON value)
SITES = {
    "rat": (lambda tmp, v: ["fol", "classify", "--formula", f"(= (X 0) (rat {v}))"], "sexp"),
    "index": (lambda tmp, v: ["fol", "classify", "--formula", f"(= (X {v}) (rat 0))"], "sexp"),
    "eps": (lambda tmp, v: ["translate", "pcplus-to-sos", _proof(tmp), f"--eps={v}"], "text"),
    "assign": (lambda tmp, v: ["fol", "translate", "--formula", FORMULA, f"--assign=n={v}"], "text"),
    "ring": (lambda tmp, v: ["fol", "classify", "--formula", CLOSED, f"--ring=gf:{v}"], "text"),
    "oracle-key": (
        lambda tmp, v: ["fol", "eval", "--formula", CLOSED, "--oracle", _file(tmp, {v: 0, "0": 0}, 0)],
        "text",
    ),
    "oracle-value": (
        lambda tmp, v: ["fol", "eval", "--formula", CLOSED, "--oracle", _file(tmp, ["@"], v)],
        "json",
    ),
    "pigeons": (lambda tmp, v: _gen(tmp, "fphp", f"--pigeons={v}"), "text"),
    "holes": (lambda tmp, v: _gen(tmp, "fphp", "--pigeons=8", f"--holes={v}"), "text"),
    "n": (lambda tmp, v: _gen(tmp, "chain", f"--n={v}"), "text"),
    "degree": (lambda tmp, v: _search(tmp, f"--degree={v}"), "text"),
    "cap": (lambda tmp, v: _search(tmp, "--degree=1", f"--cap={v}"), "text"),
    "ring-p": (lambda tmp, v: _search(tmp, "--degree=1", ring={"kind": "gf", "p": "@"}, value=v), "json"),
    "add-coefficient": (lambda tmp, v: ["check", _file(tmp, _proof_with_coefficient(), v)], "json"),
    "sos-constant": (lambda tmp, v: ["check-sos", _file(tmp, _certificate("constant"), v)], "json"),
    "sos-weights": (lambda tmp, v: ["check-sos", _file(tmp, _certificate("weights"), v)], "json"),
    **{
        f"registry-{kind}-{where}": (
            lambda tmp, v, kind=kind, where=where: [
                "fol", "classify", "--formula", CLOSED, "--registry", _file(tmp, _registry(kind, where), v)
            ],
            "json",
        )
        for kind in ("index_tables", "ring_tables")
        for where in ("arity", "entry", "args", "default")
    },
}


def _cases():
    for name, (argv, kind) in SITES.items():
        values = SEXP_TEXT if kind == "sexp" else BAD_TEXT
        if kind == "json":
            values = values + BAD_JSON + [HUGE_JSON_INT]
        for value in values:
            label = "json-int-5000" if value is HUGE_JSON_INT else repr(value)[:12]
            yield pytest.param(name, value, id=f"{name}-{label}")


@pytest.mark.parametrize("site, value", list(_cases()))
def test_every_site_refuses_bad_numbers(tmp_path, capsys, site, value):
    argv = SITES[site][0](tmp_path, value)
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert elapsed < 0.5


RATIONAL_SITES = {"rat", "eps", "oracle-value", "add-coefficient", "sos-constant"}
RATIONAL_SITES |= {"registry-ring_tables-entry", "registry-ring_tables-default"}


@pytest.mark.parametrize("site", list(SITES))
def test_every_site_reads_good_numbers(tmp_path, site):
    # exit 1 is a certificate the number makes wrong, not a refusal
    argv, kind = SITES[site]
    values = ["7"] + ([7] if kind == "json" else [])
    if site in RATIONAL_SITES:
        # --eps takes positive rationals only (see test_eps_must_be_positive)
        values += ["1/2" if site == "eps" else "-1/2", "0.25"] + ([3] if kind == "json" else [])
    for value in values:
        assert main(argv(tmp_path, value)) in (0, 1), value


@pytest.mark.parametrize("value", ["0", "-1/2"])
def test_eps_must_be_positive(tmp_path, capsys, value):
    # a bad option value is a format error, not an invalid proof
    assert main(SITES["eps"][0](tmp_path, value)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: --eps must be positive, got {value}"]


def test_huge_square_mismatch_is_reported(tmp_path, capsys):
    # the reader takes the 3,000-digit coefficient; its square has 6,000
    # digits, past what str() writes, and the mismatch must still print
    obj = sos_to_json(gen_fphp_sos(2, 1))
    obj["squares"].append("3" * 3000 + "*x1")
    path = tmp_path / "cert.json"
    dump_json(obj, path)
    t0 = time.perf_counter()
    assert main(["check-sos", str(path), "--json"]) == 1
    assert time.perf_counter() - t0 < 0.5
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    failure = json.loads(out)["failure"]
    assert failure["line"] is None
    assert failure["mismatch"] == "1" * 2999 + "0" + "8" * 2999 + "9*x1^2"  # 33^2 = 1089
