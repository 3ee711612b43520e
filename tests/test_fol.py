import dataclasses
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pcsos.algebra import RATIONAL, Polynomial, parse_poly
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
    FunctionRegistry,
    IdxApp,
    IdxEq,
    IdxLit,
    IdxLt,
    IdxVar,
    Not,
    OracleAt,
    Or,
    PolyModel,
    RingApp,
    RingConst,
    RingEq,
    RingOp,
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
