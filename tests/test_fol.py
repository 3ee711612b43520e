import dataclasses
import hashlib
import random
import re
import time
import typing
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from pcsos.algebra import RATIONAL, Polynomial, format_poly, parse_poly
from pcsos import fol
from pcsos.cli import main
from pcsos.fol import (
    FN,
    FORMULA,
    GRAMMAR,
    INDEX,
    RAT,
    RING,
    VAR,
    And,
    BigSum,
    ClassificationError,
    ExistsIdx,
    FolError,
    FolParseError,
    ForallIdx,
    Formula,
    FunctionRegistry,
    IdxApp,
    IdxEq,
    IdxLit,
    IdxLt,
    IdxVar,
    IndexTerm,
    Model,
    Not,
    OracleAt,
    Or,
    PolyModel,
    RingApp,
    RingConst,
    RingEq,
    RingOp,
    RingTerm,
    classify_indpc,
    eval_formula,
    eval_index,
    format_formula,
    free_index_vars,
    member_products,
    parse_formula,
    parse_index_term,
    parse_ring_term,
    ring_value,
    substitute_index,
    translate_formula,
)

REG = FunctionRegistry.standard()
REG.register_ring_table("zero", 1, {})


def P(text):
    return parse_poly(text, RATIONAL)


def F(text, reg=REG):
    return parse_formula(text, reg)


class TestParsing:
    def test_atomic_oracle_equation(self):
        phi = F("(= (X 0) (rat 0))")
        assert isinstance(phi, RingEq)

    def test_bounded_forall_over_disjunction(self):
        phi = F("(forall i 3 (or (= (X i) (rat 0)) (= (X i) (rat 1))))")
        assert isinstance(phi, ForallIdx) and isinstance(phi.body, Or)

    def test_big_sum_term(self):
        phi = parse_formula("(= (sum i n (X i)) (rat 2))", REG, scope={"n"})
        assert isinstance(phi.left, BigSum)

    def test_scoping_enforced(self):
        for text in ["(= (X i) (rat 0))", "(forall i i (= (X i) (rat 0)))"]:
            with pytest.raises(FolParseError):
                F(text)  # i unbound; a bound variable is not in scope in its own bound
        F("(forall i 3 (= (X i) (rat 0)))")

    def test_unknown_function_rejected(self):
        with pytest.raises(FolParseError):
            F("(= (X (fn nosuch 1)) (rat 0))")

    def test_format_round_trip(self):
        texts = [
            "(= (X (fn pair i j)) (rat 1/2))",
            "(forall i n (or (= (X i) (rat 0)) (i< i n)))",
            "(and (i= 0 1) (not (i< 1 0)))",
            "(= (sum k n (* (X k) (X k))) (rat 0))",
            "(forall i i (exists i (fn pair i j) (i< i (monus n i))))",
            "(or (not (i= (* i 2) j)) (= (- (rfn zero i) (sum i n (rat -1/3))) (X i)))",
        ]
        for text in texts:
            phi = parse_formula(text, REG, scope={"i", "j", "n"})
            again = parse_formula(format_formula(phi), REG, scope={"i", "j", "n"})
            assert again == phi

    def test_nullary_functions_print_canonically(self):
        reg = FunctionRegistry.standard()
        reg.register_index_table("f", 0, {(): 2})
        reg.register_ring_table("g", 0, {(): "1/2"})
        for text in ["(i= (fn f) 2)", "(= (rfn g) (X (fn f)))"]:
            phi = parse_formula(text, reg)
            assert format_formula(phi) == text
            assert parse_formula(format_formula(phi), reg) == phi


class TestClassification:
    def test_disjunction_of_atoms(self):
        phi = parse_formula("(or (= (X i) (rat 0)) (= (X j) (rat 0)))", REG, scope={"i", "j"})
        assert classify_indpc(phi)[0]

    def test_negated_oracle_atom_rejected(self):
        phi = Not(parse_formula("(= (X i) (rat 0))", REG, scope={"i"}))
        ok, why = classify_indpc(phi)
        assert not ok and "Not" in why

    def test_index_only_negation_allowed(self):
        phi = parse_formula("(not (i= i j))", REG, scope={"i", "j"})
        assert classify_indpc(phi)[0]

    def test_exists_only_oracle_free(self):
        good = F("(exists i 5 (i= i 3))")
        assert classify_indpc(good)[0]
        bad = F("(exists i 5 (= (X i) (rat 1)))")
        assert not classify_indpc(bad)[0]


class TestIndexEvaluation:
    def test_builtins(self):
        alpha = {"i": 4, "j": 7}
        assert eval_index(parse_formula("(i= (+ i j) 11)", REG, {"i", "j"}).left, alpha, REG) == 11
        assert eval_index(parse_formula("(i= (monus i j) 0)", REG, {"i", "j"}).left, alpha, REG) == 0

    def test_cantor_pairing(self):
        pair = REG.index_fns["pair"][1]
        assert pair(1, 0) == 1
        seen = set()
        for a in range(20):
            for b in range(20):
                v = pair(a, b)
                assert v not in seen
                seen.add(v)
                assert REG.index_fns["fst"][1](v) == a
                assert REG.index_fns["snd"][1](v) == b

    def test_unpairing_huge_argument(self):
        # unpairing is closed-form, so a 41-digit argument returns at once
        pair, fst, snd = (REG.index_fns[name][1] for name in ("pair", "fst", "snd"))
        n = 10**40
        t0 = time.perf_counter()
        a, b = fst(n), snd(n)
        assert time.perf_counter() - t0 < 0.5
        assert a >= 0 and b >= 0 and pair(a, b) == n
        assert (fst(pair(n, 7)), snd(pair(n, 7))) == (n, 7)

    def test_tables_are_total(self):
        reg = FunctionRegistry.standard()
        reg.register_index_table("h", 1, {(0,): 5, (1,): 6}, default=0)
        assert reg.index_apply("h", (1,)) == 6
        assert reg.index_apply("h", (99,)) == 0


class TestTermTranslation:
    def test_big_sum_of_oracle(self):
        term = parse_formula("(= (sum i 3 (X i)) (rat 0))", REG).left
        assert ring_value(term, {}, PolyModel(REG)) == P("x0 + x1 + x2")

    def test_pairing_variable(self):
        term = parse_formula("(= (X (fn pair i j)) (rat 0))", REG, {"i", "j"}).left
        assert ring_value(term, {"i": 1, "j": 0}, PolyModel(REG)) == P("x1")

    def test_ring_constant_function(self):
        reg = FunctionRegistry.standard()
        reg.register_ring_table("c", 1, {}, default=5)
        term = parse_formula("(= (rfn c i) (rat 0))", reg, {"i"}).left
        assert ring_value(term, {"i": 7}, PolyModel(reg)) == P("5")

    def test_sum_of_ones_is_length(self):
        term = parse_formula("(= (sum j n (rat 1)) (rat 0))", REG, {"n"}).left
        for n in range(6):
            assert ring_value(term, {"n": n}, PolyModel(REG)) == Polynomial.const(RATIONAL, n)

    def test_degree_depends_only_on_multiplication_nesting(self):
        term = parse_formula(
            "(= (sum i n (* (X i) (* (X (+ i 1)) (X (+ i 2))))) (rat 0))", REG, {"n"}
        ).left
        degrees = {ring_value(term, {"n": n}, PolyModel(REG)).degree for n in range(2, 12)}
        assert degrees == {3}


class TestFormulaTranslation:
    def test_disjunction_becomes_product(self):
        phi = F("(or (= (X 0) (rat 0)) (= (X 1) (rat 0)))")
        assert list(translate_formula(phi, {}, REG)) == [P("x0*x1")]

    def test_conjunction_becomes_union(self):
        phi = F("(and (= (X 0) (rat 0)) (= (X 1) (rat 1)))")
        assert list(translate_formula(phi, {}, REG)) == [P("x0"), P("x1 - 1")]

    def test_false_index_sentence(self):
        phi = F("(i= 1 2)")
        assert list(translate_formula(phi, {}, REG)) == [P("1")]
        assert list(translate_formula(F("(i= 2 2)"), {}, REG)) == [P("0")]

    def test_bounded_forall_unions_instances(self):
        phi = F("(forall i 3 (= (X i) (rat 0)))")
        assert list(translate_formula(phi, {}, REG)) == [P("x0"), P("x1"), P("x2")]

    def test_unclassified_formula_rejected(self):
        phi = Not(F("(= (X 0) (rat 0))"))
        with pytest.raises(ClassificationError):
            translate_formula(phi, {}, REG)

    def test_compositionality(self):
        a = F("(= (X 0) (rat 0))")
        b = F("(forall i 2 (= (X i) (rat 1)))")
        left, right = translate_formula(a, {}, REG).members, translate_formula(b, {}, REG).members
        assert translate_formula(And((a, b)), {}, REG).members == left + right
        assert translate_formula(Or((a, b)), {}, REG).members == member_products([left, right], RATIONAL)


class TestSemanticsAgreement:
    def test_eval_basics(self):
        assert eval_formula(F("(= (X 0) (rat 0))"), {}, {0: 0}, REG)
        assert not eval_formula(F("(i= 1 2)"), {}, {}, REG)

    def test_translation_captures_semantics(self):
        rng = random.Random(31)
        phi = F(
            "(and (= (X 0) (rat 1))"
            " (forall i 4 (or (= (X i) (rat 0)) (= (X (+ i 1)) (rat 1)))))"
        )
        eqs = translate_formula(phi, {}, REG)
        variables = sorted(eqs.variables())
        for _ in range(100):
            oracle = {v: rng.randint(0, 1) for v in variables}
            truth = eval_formula(phi, {}, oracle, REG)
            assert truth == eqs.vanishes_at(oracle)

    def test_sum_agrees_with_translation_on_every_point(self):
        phi = F("(= (sum i 3 (X i)) (rat 2))")
        eqs = translate_formula(phi, {}, REG)
        seen = set()
        for bits in range(8):
            oracle = {v: (bits >> v) & 1 for v in range(3)}
            truth = eval_formula(phi, {}, oracle, REG)
            assert truth == eqs.vanishes_at(oracle)
            seen.add(truth)
        assert seen == {True, False}

    def test_exists_ranges_below_its_bound(self):
        assert eval_formula(F("(exists i 3 (i= i 2))"), {}, {}, REG)
        assert not eval_formula(F("(exists i 2 (i= i 2))"), {}, {}, REG)

    def test_oracle_gap_reported(self):
        with pytest.raises(FolError):
            eval_formula(F("(= (X 5) (rat 0))"), {}, {0: 1}, REG)


class TestSubstitutionAndFreeVars:
    def test_free_vars(self):
        phi = parse_formula("(forall i n (= (X i) (X j)))", REG, {"n", "j"})
        assert free_index_vars(phi) == {"n", "j"}

    def test_substitute_free_only(self):
        phi = parse_formula("(forall i n (= (X i) (X j)))", REG, {"n", "j"})
        sub = substitute_index(phi, "j", IdxVar("k"))
        assert free_index_vars(sub) == {"n", "k"}
        same = substitute_index(phi, "i", IdxVar("k"))
        assert same == phi

    def test_substitute_into_and_or(self):
        phi = parse_formula("(and (= (X j) (rat 0)) (or (i< j 2) (= (X (+ j 1)) (rat 1))))", REG, {"j"})
        sub = substitute_index(phi, "j", IdxApp("+", (IdxVar("k"), IdxLit(1))))
        assert format_formula(sub) == (
            "(and (= (X (+ k 1)) (rat 0)) (or (i< (+ k 1) 2) (= (X (+ (+ k 1) 1)) (rat 1))))"
        )
        assert translate_formula(sub, {"k": 2}, REG).members == (P("x3"), P("x4 - 1"))

    def test_substitution_refuses_a_capture_inside_one_part(self):
        # the first part takes the replacement; the second would bind its k
        phi = parse_formula("(or (= (X j) (rat 0)) (forall k 2 (= (X (+ j k)) (rat 0))))", REG, {"j"})
        with pytest.raises(FolError, match=r"^substitution would capture 'k'$"):
            substitute_index(phi, "j", IdxVar("k"))
        with pytest.raises(FolError, match=r"^substitution would capture 'k'$"):
            substitute_index(And((RingEq(OracleAt(IdxVar("j")), RingConst(0)), phi)), "j", IdxVar("k"))


# -- the grammar table -----------------------------------------------------

GREG = FunctionRegistry.standard()
GREG.register_index_table("f0", 0, {(): 3})
GREG.register_index_table("f1", 1, {(0,): 1})
GREG.register_ring_table("g0", 0, {(): "1/2"})
GREG.register_ring_table("g1", 1, {(0,): 2})
PARSERS = {INDEX: parse_index_term, RING: parse_ring_term, FORMULA: parse_formula}
NODE_CLASSES = {form.cls for forms in GRAMMAR.values() for form in forms.values()} | {IdxLit, IdxVar}


def _sample_args(sort, slot) -> list[str]:
    """The text of valid arguments for one slot of a head of `sort`."""
    if isinstance(slot, tuple):
        return [t for s in slot if s is not ... for t in _sample_args(sort, s)]
    if slot == FN:
        return ["f1" if sort == INDEX else "g1", "1"]
    return {INDEX: ["1"], RING: ["(rat 1)"], FORMULA: ["(i= 0 0)"], VAR: ["i"], RAT: ["1/2"]}[slot]


def _heads():
    return [(sort, head) for sort, forms in GRAMMAR.items() for head in forms]


@pytest.mark.parametrize("sort, head", _heads())
def test_each_head_checks_its_arity(sort, head, capsys):
    args = [t for slot in GRAMMAR[sort][head].slots for t in _sample_args(sort, slot)]
    PARSERS[sort](f"({head} {' '.join(args)})", GREG)
    bad = [f"({head} {' '.join(args[:-1])})"]
    if GRAMMAR[sort][head].slots[-1][-1:] != (...,):  # and / or take one or more
        bad.append(f"({head} {' '.join(args + args[-1:])})")
    for text in bad:
        with pytest.raises(FolParseError):
            PARSERS[sort](text, GREG)
        if sort == FORMULA:
            assert main(["fol", "classify", "--formula", text]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _index(rng, scope, depth):
    roll = rng.randrange(4 if depth > 0 else 2)
    if roll == 1 and scope:
        return IdxVar(rng.choice(sorted(scope)))
    if roll < 2:
        return IdxLit(rng.randrange(12))
    if roll == 2:
        return IdxApp(rng.choice(["+", "*", "monus"]), (_index(rng, scope, 0), _index(rng, scope, 0)))
    name = rng.choice(["f0", "f1", "pair", "fst"])
    return IdxApp(name, tuple(_index(rng, scope, depth - 1) for _ in range(GREG.index_fns[name][0])))


def _binder(rng, cls, body, scope, depth):
    var = rng.choice("ijk")  # often shadows an enclosing binder
    return cls(var, _index(rng, scope, 1), body(rng, scope | {var}, depth - 1))


def _ring(rng, scope, depth):
    roll = rng.randrange(5 if depth > 0 else 3)
    if roll == 0:
        return RingConst(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
    if roll == 1:
        return OracleAt(_index(rng, scope, 1))
    if roll == 2:
        name = rng.choice(["g0", "g1"])
        return RingApp(name, tuple(_index(rng, scope, 1) for _ in range(GREG.ring_fns[name][0])))
    if roll == 3:
        return RingOp(rng.choice("+-*"), _ring(rng, scope, depth - 1), _ring(rng, scope, depth - 1))
    return _binder(rng, BigSum, _ring, scope, depth)


def _formula(rng, scope, depth):
    roll = rng.randrange(8 if depth > 0 else 3)
    if roll == 0:
        return RingEq(_ring(rng, scope, depth - 1), _ring(rng, scope, depth - 1))
    if roll in (1, 2):
        return (IdxEq, IdxLt)[roll - 1](_index(rng, scope, 1), _index(rng, scope, 1))
    if roll in (3, 4):
        parts = tuple(_formula(rng, scope, depth - 1) for _ in range(rng.randrange(1, 4)))
        return (And, Or)[roll - 3](parts)
    if roll == 5:
        return Not(_formula(rng, scope, depth - 1))
    return _binder(rng, (ForallIdx, ExistsIdx)[roll - 6], _formula, scope, depth)


def _classes(node) -> set:
    if isinstance(node, tuple):
        return set().union(*map(_classes, node))
    if not dataclasses.is_dataclass(node):
        return set()
    return {type(node)}.union(*(_classes(getattr(node, f.name)) for f in dataclasses.fields(node)))


class TestGrammarTable:
    def test_random_trees_round_trip(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(400):
            phi = _formula(rng, {"n"}, 4)
            text = format_formula(phi)
            assert parse_formula(text, GREG, {"n"}) == phi, text
            assert format_formula(parse_formula(text, GREG, {"n"})) == text
            seen |= _classes(phi)
        assert seen == NODE_CLASSES

    def test_readme_names_exactly_the_table_heads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Formula s-expressions:") :].split("\n\n")[0]
        formulas, rest = paragraph.split("ring terms are")
        rings, indexes = rest.split("index terms are")
        for sort, text in ((FORMULA, formulas), (RING, rings), (INDEX, indexes)):
            assert set(re.findall(r"`\(([^\s`]+)", text)) == set(GRAMMAR[sort]), sort


# -- the interpreter ---------------------------------------------------------

EREG = FunctionRegistry.standard()
EREG.register_ring_table("zero", 1, {})
EREG.index_fns["neg"] = (1, lambda n: -1)  # a registry function that breaks its contract
X0 = OracleAt(IdxLit(0))
ZERO = RingConst(Fraction(0))


def _error(call) -> str:
    with pytest.raises(FolError) as exc:
        call()
    return str(exc.value)


# (what, the failing call, its message), pinned from the pattern-matching interpreter
INTERPRETER_ERRORS = [
    ("unknown index function", lambda: eval_index(IdxApp("nope", (IdxLit(1),)), {}, EREG),
     "unknown index function 'nope'"),
    ("unknown index function in translation",
     lambda: translate_formula(RingEq(OracleAt(IdxApp("nope", ())), ZERO), {}, EREG),
     "unknown index function 'nope'"),
    ("unknown ring function", lambda: ring_value(RingApp("nope", (IdxLit(1),)), {}, Model(EREG)),
     "unknown ring function 'nope'"),
    ("unknown ring function in translation",
     lambda: translate_formula(RingEq(X0, RingApp("nope", ())), {}, EREG),
     "unknown ring function 'nope'"),
    ("index arity", lambda: eval_index(IdxApp("+", (IdxLit(1),)), {}, EREG),
     "index function '+' expects 2 arguments, got 1"),
    ("ring arity", lambda: ring_value(RingApp("zero", ()), {}, PolyModel(EREG)),
     "ring function 'zero' expects 1 arguments, got 0"),
    ("non-natural", lambda: eval_formula(IdxLt(IdxApp("neg", (IdxLit(1),)), IdxLit(0)), {}, {}, EREG),
     "index function 'neg' returned a non-natural -1"),
    ("unbound variable", lambda: eval_index(IdxVar("k"), {"n": 1}, EREG),
     "assignment does not cover index variable 'k'"),
    ("unbound variable in translation",
     lambda: translate_formula(RingEq(OracleAt(IdxVar("k")), ZERO), {"n": 1}, EREG),
     "assignment does not cover index variable 'k'"),
    ("oracle gap", lambda: eval_formula(F("(= (sum i 4 (X i)) (rat 0))"), {}, {0: 1, 1: 0, 2: 1}, EREG),
     "oracle gap at index 3"),
    ("foreign index term", lambda: eval_index("junk", {}, EREG), "bad index term 'junk'"),
    ("foreign index term in a formula", lambda: eval_formula(IdxEq(IdxLit(0), "junk"), {}, {}, EREG),
     "bad index term 'junk'"),
    ("foreign ring term", lambda: ring_value("junk", {}, Model(EREG)), "bad ring term 'junk'"),
    ("foreign ring term in translation", lambda: translate_formula(RingEq(X0, "junk"), {}, EREG),
     "bad ring term 'junk'"),
    ("foreign formula", lambda: eval_formula("junk", {}, {}, EREG), "bad formula 'junk'"),
    ("foreign formula part", lambda: eval_formula(Or((IdxLt(IdxLit(1), IdxLit(0)), 7)), {}, {}, EREG),
     "bad formula 7"),
    ("foreign formula in translation", lambda: translate_formula("junk", {}, EREG), "bad formula 'junk'"),
    ("foreign formula part in translation",
     lambda: translate_formula(And((RingEq(X0, ZERO), "junk")), {}, EREG), "bad formula 'junk'"),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in INTERPRETER_ERRORS], ids=[c[0] for c in INTERPRETER_ERRORS]
)
def test_interpreter_error_messages(call, message):
    assert _error(call) == message


# one node of each class; the formulas that mention X are the translatable ones
NODE_SAMPLES = {
    IdxLit: [IdxLit(2)],
    IdxVar: [IdxVar("n")],
    IdxApp: [IdxApp("+", (IdxLit(1), IdxVar("n")))],
    RingConst: [RingConst(Fraction(1, 2))],
    OracleAt: [OracleAt(IdxVar("n"))],
    RingOp: [RingOp("*", X0, RingConst(Fraction(2)))],
    BigSum: [BigSum("i", IdxVar("n"), OracleAt(IdxVar("i")))],
    RingApp: [RingApp("zero", (IdxLit(0),))],
    RingEq: [RingEq(X0, ZERO), RingEq(ZERO, ZERO)],
    IdxEq: [IdxEq(IdxVar("n"), IdxLit(2))],
    IdxLt: [IdxLt(IdxVar("n"), IdxLit(2))],
    And: [And((RingEq(X0, ZERO), IdxEq(IdxLit(0), IdxLit(0)))), And((IdxLt(IdxLit(0), IdxLit(1)),))],
    Or: [Or((RingEq(X0, ZERO), RingEq(OracleAt(IdxLit(1)), ZERO))), Or((IdxLt(IdxLit(1), IdxLit(0)),))],
    Not: [Not(IdxLt(IdxVar("n"), IdxLit(2)))],
    ForallIdx: [ForallIdx("i", IdxVar("n"), RingEq(OracleAt(IdxVar("i")), ZERO)),
                ForallIdx("i", IdxVar("n"), IdxLt(IdxVar("i"), IdxVar("n")))],
    ExistsIdx: [ExistsIdx("i", IdxVar("n"), IdxEq(IdxVar("i"), IdxLit(1)))],
}


def test_every_node_class_reaches_a_handled_branch():
    # a node kind added to the language but not to an interpreter would
    # fall through to its "bad ..." error
    sorts = (IndexTerm, RingTerm, Formula)
    assert set(NODE_SAMPLES) == {cls for sort in sorts for cls in typing.get_args(sort)}
    alpha, oracle = {"n": 3}, {0: 1, 1: 0, 2: 1, 3: 0}
    for cls, samples in NODE_SAMPLES.items():
        for node in samples:
            if cls in typing.get_args(IndexTerm):
                assert eval_index(node, alpha, EREG) in (2, 3, 4)
            elif cls in typing.get_args(RingTerm):
                value = ring_value(node, alpha, Model(EREG, oracle=oracle))
                assert ring_value(node, alpha, PolyModel(EREG)).evaluate(oracle) == value
            else:
                eqs = translate_formula(node, alpha, EREG)
                assert eqs.vanishes_at(oracle) == eval_formula(node, alpha, oracle, EREG)



class TestInstanceLimit:
    def test_the_limit_counts_nested_instances(self):
        limit = fol.MAX_INSTANCES
        assert eval_formula(F(f"(forall i {limit} (i< i {limit}))"), {}, {}, REG)
        with pytest.raises(FolError, match=rf"^more than {limit} quantifier and sum instances$"):
            eval_formula(F(f"(forall i {limit + 1} (i< i {limit + 1}))"), {}, {}, REG)
        n = isqrt(limit)  # n + n * n instances
        with pytest.raises(FolError, match="quantifier and sum instances"):
            eval_formula(F(f"(forall i {n} (forall j {n} (i< j {n})))"), {}, {}, REG)
        with pytest.raises(FolError, match="quantifier and sum instances"):
            translate_formula(F(f"(= (sum i {n} (sum j {n} (X j))) (rat 0))"), {}, REG)

    def test_the_count_starts_afresh_with_each_translation(self):
        model, half = PolyModel(REG), fol.MAX_INSTANCES // 2 + 1
        phi = F(f"(= (sum i {half} (X 0)) (rat 0))")
        assert model.translate(phi, {}) == model.translate(phi, {}) == (P(f"{half}*x0"),)

# -- a seeded translation corpus ------------------------------------------------

CREG = FunctionRegistry.standard()
CREG.register_index_table("t", 1, {(0,): 2, (1,): 0}, 1)
CREG.register_ring_table("r", 1, {(0,): "1/2", (2,): "-3"}, 1)


class _Bits(dict):
    """A 0/1 oracle defined everywhere: X(j) outside the keys is 0, so the
    evaluator may read an index whose variable the translation cancelled."""

    def __contains__(self, j):
        return True

    def __missing__(self, j):
        return 0


def _c_index(rng, scope, depth):
    """Values stay below 7: literals and variables below 4, one operator."""
    roll = rng.randrange(4 if depth else 2)
    if roll == 0 or not scope:
        return IdxLit(rng.randrange(4))
    if roll == 1:
        return IdxVar(rng.choice(sorted(scope)))
    if roll == 2:
        return IdxApp(rng.choice(["+", "monus"]), (_c_index(rng, scope, 0), _c_index(rng, scope, 0)))
    if rng.random() < 0.5:
        return IdxApp("t", (_c_index(rng, scope, 0),))
    return IdxApp("lt", (_c_index(rng, scope, 0), _c_index(rng, scope, 0)))


def _c_ring(rng, scope, depth, oracle):
    roll = rng.randrange(6 if depth else 3)
    if roll == 0 or (roll in (1, 5) and not oracle):
        return RingConst(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
    if roll in (1, 5):
        return OracleAt(_c_index(rng, scope, 1))
    if roll == 2:
        return RingApp("r", (_c_index(rng, scope, 1),))
    if roll == 3:
        op = rng.choice("+-*")
        return RingOp(op, _c_ring(rng, scope, depth - 1, oracle), _c_ring(rng, scope, depth - 1, oracle))
    var = rng.choice("ij")
    return BigSum(var, _c_index(rng, scope, 0), _c_ring(rng, scope | {var}, depth - 1, oracle))


def _c_formula(rng, scope, depth, oracle=True):
    """A translatable formula: negation and existentials stay oracle-free."""
    roll = rng.randrange(9 if depth else 3)
    if roll in (0, 8):
        return RingEq(_c_ring(rng, scope, 2, oracle), _c_ring(rng, scope, 2, oracle))
    if roll in (1, 2):
        return (IdxEq, IdxLt)[roll - 1](_c_index(rng, scope, 1), _c_index(rng, scope, 1))
    if roll in (3, 4):
        parts = tuple(_c_formula(rng, scope, depth - 1, oracle) for _ in range(rng.randrange(1, 4)))
        return (And, Or)[roll - 3](parts)
    if roll == 5:
        return Not(_c_formula(rng, scope, depth - 1, False))
    var = rng.choice("ij")
    cls, oracle = (ForallIdx, oracle) if roll == 6 else (ExistsIdx, False)
    return cls(var, _c_index(rng, scope, 0), _c_formula(rng, scope | {var}, depth - 1, oracle))


class TestTranslationCorpus:
    # sha256 of one line per formula, its text and its translated members,
    # pinned from the pattern-matching interpreter
    DIGEST = "1728745b7ade9f6b3d624500ccd0834703668fc42c5463487c1ac2caf383d757"

    def corpus(self):
        rng = random.Random(26)
        return [_c_formula(rng, {"n"}, 3) for _ in range(500)]

    def test_corpus_covers_every_node_class(self):
        seen = set().union(*map(_classes, self.corpus()))
        assert seen == NODE_CLASSES

    def test_members_are_pinned(self):
        lines = []
        for phi in self.corpus():
            members = translate_formula(phi, {"n": 3}, CREG).members
            lines.append(f"{format_formula(phi)} -> {', '.join(format_poly(m, {}) for m in members)}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST

    def test_evaluation_agrees_with_vanishing(self):
        rng = random.Random(27)
        for phi in self.corpus():
            eqs = translate_formula(phi, {"n": 3}, CREG)
            for _ in range(4):
                oracle = _Bits({v: rng.randint(0, 1) for v in eqs.variables()})
                truth = eval_formula(phi, {"n": 3}, oracle, CREG)
                assert truth == eqs.vanishes_at(oracle), format_formula(phi)
