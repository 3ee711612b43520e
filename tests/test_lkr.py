import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pcsos import fol
from pcsos.algebra import GF, RATIONAL, parse_poly
from pcsos.fol import (
    BigSum,
    ForallIdx,
    FunctionRegistry,
    IdxLit,
    IdxLt,
    IdxVar,
    Or,
    OracleAt,
    RingConst,
    RingEq,
    RingOp,
    parse_formula,
    parse_ring_term,
)
from pcsos.lkr import (
    MAX_PROOF_DEPTH,
    CompileError,
    RULES,
    LkrError,
    LkrNode,
    Sequent,
    UnsupportedConstruct,
    _Compiler,
    check_lkr,
    compile_lkr,
    linear_combination_identity,
    node_from_json,
    node_to_json,
    ring_identity,
)
from pcsos.proofcheck import check_derivation, derivation_to_json

REG = FunctionRegistry.standard()
ONE = RingConst(Fraction(1))
ZERO = RingConst(Fraction(0))


def P(text):
    return parse_poly(text, RATIONAL)


def rterm(text, scope=("i", "j", "n")):
    return parse_ring_term(text, REG, set(scope))


def F(text, scope=("i", "j", "n")):
    return parse_formula(text, REG, scope=set(scope))


class TestSymbolicIdentities:
    def test_distributivity(self):
        s = rterm("(* (X i) (+ (X j) (rat 2)))")
        t = rterm("(+ (* (X i) (X j)) (* (rat 2) (X i)))")
        assert ring_identity(s, t, REG)

    def test_non_identity_rejected(self):
        assert not ring_identity(rterm("(X i)"), rterm("(X j)"), REG)

    def test_literal_sum_unfolds(self):
        s = rterm("(sum i 3 (X i))")
        t = rterm("(+ (X 0) (+ (X 1) (X 2)))")
        assert ring_identity(s, t, REG)

    def test_successor_bound_peels(self):
        s = rterm("(sum i (+ n 1) (X i))")
        t = rterm("(+ (sum i n (X i)) (X n))")
        assert ring_identity(s, t, REG)

    def test_symbolic_sums_are_opaque(self):
        s = rterm("(sum i n (X i))")
        t = rterm("(sum i n (X (+ i 0)))")
        # (+ i 0) is keyed as an opaque index application, so the two bodies
        # differ: the checker is sound but not complete, and says no
        assert ring_identity(s, t, REG) is False

    def test_shifted_symbolic_sum_is_not_an_identity(self):
        s = rterm("(sum i n (X i))")
        t = rterm("(sum i n (X (+ i 1)))")
        assert ring_identity(s, t, REG) is False

    def test_nested_opaque_sums_keep_their_variables_apart(self):
        # sum_i sum_j X(i) X(j) is (sum X)^2, not sum_i sum_j X(j)^2
        s = rterm("(sum i n (sum j n (* (X i) (X j))))")
        t = rterm("(sum i n (sum j n (* (X j) (X j))))")
        assert not ring_identity(s, t, REG)
        assert ring_identity(s, rterm("(sum j n (sum i n (* (X j) (X i))))"), REG)

    def test_nested_literal_sums_are_counted(self):
        # each sum unfolds up to SUM_UNFOLD_CAP instances, and nested ones
        # multiply: three levels of 256 ran until they were killed
        nested = "(sum i 256 (sum j 256 (sum k 256 (X k))))"
        node = LkrNode("ring-axiom", Sequent((), (F(f"(= {nested} {nested})"),)))
        t0 = time.perf_counter()
        rep = check_lkr(node, REG)
        assert time.perf_counter() - t0 < 1.0
        assert not rep.valid
        assert rep.reason == f"ring-axiom: more than {fol.MAX_INSTANCES} quantifier and sum instances"
        s, t = rterm("(sum i 100 (sum j 100 (X j)))"), rterm("(sum j 100 (* (rat 100) (X j)))")
        assert ring_identity(s, t, REG)  # 10,100 instances

    def test_linear_combination(self):
        succ = RingEq(rterm("(- (rat 1) (X j))"), ZERO)
        antes = [
            RingEq(rterm("(- (rat 1) (X i))"), ZERO),
            RingEq(rterm("(* (X i) (- (rat 1) (X j)))"), ZERO),
        ]
        mults = [rterm("(- (rat 1) (X j))"), ONE]
        assert linear_combination_identity(succ, antes, mults, REG)
        bad = [ONE, ONE]
        assert not linear_combination_identity(succ, antes, bad, REG)


class TestCheckLkr:
    def test_logical_axiom(self):
        phi = F("(= (X i) (rat 1))")
        node = LkrNode("logical-axiom", Sequent((phi,), (phi,)))
        assert check_lkr(node, REG).valid

    def test_logical_axiom_mismatch(self):
        a, b = F("(= (X i) (rat 1))"), F("(= (X j) (rat 1))")
        rep = check_lkr(LkrNode("logical-axiom", Sequent((a,), (b,))), REG)
        assert not rep.valid

    def test_integral_domain(self):
        prod = F("(= (* (X i) (X j)) (rat 0))")
        s0 = F("(= (X i) (rat 0))")
        t0 = F("(= (X j) (rat 0))")
        node = LkrNode("integral-domain", Sequent((prod,), (s0, t0)))
        assert check_lkr(node, REG).valid
        swapped = LkrNode("integral-domain", Sequent((prod,), (t0, s0)))
        assert not check_lkr(swapped, REG).valid

    def test_ring_axiom_checks_identity(self):
        good = LkrNode(
            "ring-axiom",
            Sequent((), (F("(= (* (X i) (+ (X j) (rat 1))) (+ (* (X i) (X j)) (X i)))"),)),
        )
        assert check_lkr(good, REG).valid
        bad = LkrNode("ring-axiom", Sequent((), (F("(= (X i) (X j))"),)))
        assert not check_lkr(bad, REG).valid

    def test_background_truth(self):
        good = LkrNode("background-truth", Sequent((), (F("(forall i 5 (i< i 6))", scope=()),)))
        assert check_lkr(good, REG).valid
        false = LkrNode("background-truth", Sequent((), (F("(i= 0 1)", scope=()),)))
        assert not check_lkr(false, REG).valid
        oracle = LkrNode("background-truth", Sequent((), (F("(= (X 0) (rat 0))", scope=()),)))
        assert not check_lkr(oracle, REG).valid

    def test_background_truth_false_in_the_target_field_does_not_compile(self):
        # check_lkr accepts 5 != 0, and it compiles over Q and GF(7); over
        # GF(5) it is false, translates to a nonzero constant, and the
        # compile step's identity guard refuses it
        node = LkrNode("background-truth", Sequent((), (F("(not (= (rat 5) (rat 0)))", scope=()),)))
        assert check_lkr(node, REG).valid
        for ring in (RATIONAL, GF(7)):
            d = compile_lkr(node, {}, "pc_rad", REG, ring)
            assert check_derivation(d).valid
        with pytest.raises(CompileError, match="does not translate to an identity"):
            compile_lkr(node, {}, "pc_rad", REG, GF(5))

    def test_boolean_axiom_shape(self):
        good = F("(= (* (X i) (- (rat 1) (X i))) (rat 0))")
        assert check_lkr(LkrNode("boolean-axiom", Sequent((), (good,))), REG).valid
        bad = F("(= (* (X i) (- (rat 1) (X j))) (rat 0))")
        assert not check_lkr(LkrNode("boolean-axiom", Sequent((), (bad,))), REG).valid

    def test_sos_axiom_shape(self):
        body = rterm("(X i)")
        head = RingEq(BigSum("i", IdxVar("n"), RingOp("*", body, body)), ZERO)
        side = IdxLt(IdxVar("j"), IdxVar("n"))
        succ = RingEq(OracleAt(IdxVar("j")), ZERO)
        node = LkrNode("sos-axiom", Sequent((head, side), (succ,)))
        assert check_lkr(node, REG).valid
        wrong = LkrNode("sos-axiom", Sequent((head, side), (RingEq(OracleAt(IdxVar("n")), ZERO),)))
        assert not check_lkr(wrong, REG).valid

    def test_induction_eigenvariable(self):
        phi = F("(= (X i) (rat 1))")
        phi0 = F("(= (X 0) (rat 1))")
        phin = F("(= (X n) (rat 1))")
        phis = F("(= (X (+ i 1)) (rat 1))")
        premise = LkrNode("logical-axiom", Sequent((phi,), (phis,)))  # shape only
        node = LkrNode(
            "induction",
            Sequent((phi0,), (phin,)),
            premises=(premise,),
            params={"var": "i", "formula": phi, "term": IdxVar("n")},
        )
        report = check_lkr(node, REG)
        # the premise is not a valid logical axiom, but the induction schema holds
        assert not report.valid and report.node == (0,)
        leaky = LkrNode(
            "induction",
            Sequent((phi0,), (phi,)),
            premises=(premise,),
            params={"var": "i", "formula": phi, "term": IdxVar("i")},
        )
        assert not check_lkr(leaky, REG).valid

    def test_weakening_and_contraction(self):
        phi = F("(= (X i) (rat 1))")
        psi = F("(= (X j) (rat 0))")
        ax = LkrNode("logical-axiom", Sequent((phi,), (phi,)))
        weak = LkrNode("weakening-l", Sequent((phi, psi), (phi,)), premises=(ax,))
        assert check_lkr(weak, REG).valid
        contr_bad = LkrNode("contraction-l", Sequent((phi,), (phi,)), premises=(ax,))
        assert not check_lkr(contr_bad, REG).valid

    def test_unknown_rule(self):
        phi = F("(= (X i) (rat 1))")
        with pytest.raises(UnsupportedConstruct):
            check_lkr(LkrNode("forall-ring-l", Sequent((phi,), (phi,))), REG)


class TestCompileBasics:
    def test_logical_axiom_compiles_to_assumption(self):
        phi = F("(= (X 0) (rat 1))", scope=())
        node = LkrNode("logical-axiom", Sequent((phi,), (phi,)))
        d = compile_lkr(node, {}, "pc_rad", REG)
        rep = check_derivation(d)
        assert rep.valid
        assert list(d.axioms) == [P("x0 - 1")]

    def test_integral_domain_compile(self):
        prod = F("(= (* (X 0) (X 1)) (rat 0))", scope=())
        s0 = F("(= (X 0) (rat 0))", scope=())
        t0 = F("(= (X 1) (rat 0))", scope=())
        node = LkrNode("integral-domain", Sequent((prod,), (s0, t0)))
        d = compile_lkr(node, {}, "pc_rad", REG)
        assert check_derivation(d).valid

    def test_contraction_r_uses_radical(self):
        phi = F("(= (X 0) (rat 0))", scope=())
        ax = LkrNode("logical-axiom", Sequent((phi,), (phi,)))
        weak = LkrNode("weakening-r", Sequent((phi,), (phi, phi)), premises=(ax,))
        contr = LkrNode("contraction-r", Sequent((phi,), (phi,)), premises=(weak,))
        d = compile_lkr(contr, {}, "pc_rad", REG)
        rep = check_derivation(d)
        assert rep.valid and rep.uses_radical

    def test_boolean_axiom_requires_pc_plus(self):
        eq = F("(= (* (X 0) (- (rat 1) (X 0))) (rat 0))", scope=())
        node = LkrNode("boolean-axiom", Sequent((), (eq,)))
        with pytest.raises(UnsupportedConstruct):
            compile_lkr(node, {}, "pc_rad", REG)
        d = compile_lkr(node, {}, "pc_plus", REG)
        assert check_derivation(d).valid

    def test_translation_memo_keys_on_the_free_variables(self):
        # one formula object under two values of its free i, and of n, which
        # is not free in it: i changes the translation, n does not
        phi = F("(= (X i) (* (rat 2) (X j)))")
        compiler = _Compiler(REG, RATIONAL)
        first = {(i, j): compiler.members(phi, {"i": i, "j": j, "n": 4}) for i in (0, 1) for j in (2, 3)}
        for (i, j), members in first.items():
            assert members == (P(f"x{i} - 2*x{j}"),)
            assert compiler.members(phi, {"i": i, "j": j, "n": 5}) is members

    def test_translation_memo_shares_equal_formula_objects(self):
        # a proof read from JSON parses each sequent's formulas apart, so
        # equal formulas are separate objects; they share one translation
        phi, twin = F("(= (X i) (rat 0))"), F("(= (X i) (rat 0))")
        assert phi == twin and phi is not twin
        compiler = _Compiler(REG, RATIONAL)
        assert compiler.members(twin, {"i": 1}) is compiler.members(phi, {"i": 1})

    def test_target_support_covers_nodes_not_reached(self):
        # at n = 0 forall-idx-r has no instance, so the boolean axiom above
        # it emits nothing; the pc_rad target still refuses the proof
        eq = F("(= (* (X i) (- (rat 1) (X i))) (rat 0))")
        axiom = LkrNode("boolean-axiom", Sequent((), (eq,)))
        node = LkrNode(
            "forall-idx-r", Sequent((), (ForallIdx("i", IdxVar("n"), eq),)), (axiom,), {"var": "i"}
        )
        assert check_derivation(compile_lkr(node, {"n": 0}, "pc_plus", REG)).valid
        with pytest.raises(UnsupportedConstruct, match="boolean-axiom sequents require the pc_plus"):
            compile_lkr(node, {"n": 0}, "pc_rad", REG)

    def test_zero_scale_derives_only_zero(self):
        # or-l compiles the first disjunct's branch at scale 0, since the other
        # disjunct translates to 0; that branch instantiates forall-idx-l
        # out of its bound, which a branch at scale 0 never checks
        bounded = "(forall i 1 (= (X i) (rat 0)))"
        inst = _node("forall-idx-l", [bounded], [X1], _axiom(X1), term=IdxLit(1))
        node = _node(
            "or-l", [f"(or {bounded} {TRUE})"], [X1, TRUE],
            _node("weakening-r", [bounded], [X1, TRUE], inst), _weakened(TRUE, [TRUE], [X1, TRUE]),
        )
        assert check_lkr(node, REG).valid
        with pytest.raises(LkrError, match="outside the bound"):
            compile_lkr(inst, {}, "pc_rad", REG)
        d = compile_lkr(node, {}, "pc_rad", REG)
        assert check_derivation(d).valid
        assert {poly for poly, _ in d.lines} == {P("0")}

    def test_sos_axiom_compiles_with_sos_and_radical(self):
        body = OracleAt(IdxVar("i"))
        head = RingEq(BigSum("i", IdxLit(3), RingOp("*", body, body)), ZERO)
        side = IdxLt(IdxLit(1), IdxLit(3))
        succ = RingEq(OracleAt(IdxLit(1)), ZERO)
        node = LkrNode("sos-axiom", Sequent((head, side), (succ,)))
        with pytest.raises(UnsupportedConstruct):
            compile_lkr(node, {}, "pc_rad", REG)
        d = compile_lkr(node, {}, "pc_plus", REG)
        rep = check_derivation(d)
        assert rep.valid and rep.uses_sos_rule and rep.uses_radical
        assert d.lines[-1][0] == P("x1")

    def test_or_l_product_compile(self):
        # from X0 = 0 or X1 = 0 (as the product) conclude X0 X1 = 0
        left = F("(= (X 0) (rat 0))", scope=())
        right = F("(= (X 1) (rat 0))", scope=())
        disj = Or((left, right))
        goal = F("(= (* (X 0) (X 1)) (rat 0))", scope=())
        prem1 = LkrNode(
            "equality", Sequent((left,), (goal,)), params={"multipliers": [rterm("(X 1)", ())]}
        )
        prem2 = LkrNode(
            "equality", Sequent((right,), (goal,)), params={"multipliers": [rterm("(X 0)", ())]}
        )
        node = LkrNode("or-l", Sequent((disj,), (goal,)), premises=(prem1, prem2))
        d = compile_lkr(node, {}, "pc_rad", REG)
        rep = check_derivation(d)
        assert rep.valid
        assert d.lines[-1][0] == P("x0*x1")

    def test_forall_r_unions_instances(self):
        # X(i) = 0 for each i < 3 from the product hypothesis is not needed;
        # use an axiom schema: from phi(i) -> phi(i) generalized pointwise
        phi_i = F("(= (X i) (rat 0))")
        forall = ForallIdx("i", IdxLit(3), phi_i)
        ax = LkrNode("logical-axiom", Sequent((phi_i,), (phi_i,)))
        hmm = LkrNode(
            "forall-idx-l", Sequent((forall,), (phi_i,)), premises=(ax,), params={"term": IdxVar("i")}
        )
        node = LkrNode(
            "forall-idx-r", Sequent((forall,), (forall,)), premises=(hmm,), params={"var": "i"}
        )
        d = compile_lkr(node, {}, "pc_rad", REG)
        rep = check_derivation(d)
        assert rep.valid
        derived = {poly for poly, _ in d.lines}
        assert {P("x0"), P("x1"), P("x2")} <= derived

    def test_json_round_trip(self):
        phi = F("(= (X i) (rat 1))")
        ax = LkrNode("logical-axiom", Sequent((phi,), (phi,)))
        weak = LkrNode(
            "weakening-l",
            Sequent((phi, F("(= (X j) (rat 0))")), (phi,)),
            premises=(ax,),
        )
        again = node_from_json(node_to_json(weak), REG)
        assert again.rule == weak.rule
        assert again.conclusion == weak.conclusion
        assert again.premises[0].conclusion == ax.conclusion
        assert check_lkr(again, REG).valid

    def test_chain_proof_json_round_trip(self):
        from pcsos.families import gen_chain

        obj = node_to_json(gen_chain(1).certificate)
        again = node_from_json(obj, REG)
        assert node_to_json(again) == obj
        assert check_lkr(again, REG).valid


class TestChainProof:
    def test_chain_lkr_checks_and_compiles(self):
        from pcsos.families import gen_chain

        instance = gen_chain(3)
        proof = instance.certificate
        assert check_lkr(proof, REG).valid
        d = compile_lkr(proof, {"n": 3}, "pc_rad", REG)
        rep = check_derivation(d)
        assert rep.valid and rep.refutation
        assert rep.degree <= 3

    def test_chain_degree_constant(self):
        from pcsos.families import gen_chain

        proof = gen_chain(1).certificate
        degrees = set()
        for n in range(1, 12):
            d = compile_lkr(proof, {"n": n}, "pc_rad", REG)
            rep = check_derivation(d)
            assert rep.valid and rep.refutation
            degrees.add(rep.degree)
        assert len(degrees) == 1 and degrees.pop() <= 3

    def test_chain_axioms_match_family_shape(self):
        from pcsos.families import gen_chain

        n = 4
        d = compile_lkr(gen_chain(n).certificate, {"n": n}, "pc_rad", REG)
        axioms = set(d.axioms)
        for i in range(n):
            assert P(f"x{i} - x{i}*x{i+1}") in axioms
        assert P("x4") in axioms
        assert P("1 - x0") in axioms

    def test_compositionality_of_subtree_compilation(self):
        # compiling the induction subtree alone derives the same member
        # polynomials that appear spliced inside the full compilation
        from pcsos.families import gen_chain

        proof = gen_chain(2).certificate
        induction = proof.premises[0].premises[0].premises[0]
        assert induction.rule == "induction"
        n = 4
        sub = compile_lkr(induction, {"n": n}, "pc_rad", REG)
        sub_rep = check_derivation(sub)
        assert sub_rep.valid
        assert sub.lines[-1][0] == P(f"1 - x{n}")
        full = compile_lkr(proof, {"n": n}, "pc_rad", REG)
        full_polys = {poly for poly, _ in full.lines}
        assert {poly for poly, _ in sub.lines} <= full_polys

    def test_end_to_end_soundness_small_instances(self):
        # compiled refutations refute genuinely unsatisfiable equation sets
        import itertools

        from pcsos.families import gen_chain

        proof = gen_chain(1).certificate
        for n in (1, 2, 3):
            d = compile_lkr(proof, {"n": n}, "pc_rad", REG)
            assert check_derivation(d).refutation
            variables = sorted(d.axioms.variables())
            assert len(variables) <= 10
            for bits in itertools.product((0, 1), repeat=len(variables)):
                point = dict(zip(variables, bits))
                assert not d.axioms.vanishes_at(point)

    def test_mutated_chain_proof_rejected(self):
        from pcsos.families import gen_chain

        proof = gen_chain(2).certificate

        def mutate(node, path):
            if not path:
                return LkrNode(node.rule, Sequent(node.conclusion.ante, ()), node.premises, dict(node.params))
            head, *rest = path
            premises = list(node.premises)
            premises[head] = mutate(premises[head], rest)
            return LkrNode(node.rule, node.conclusion, tuple(premises), dict(node.params))

        broken = mutate(proof, [])
        assert not check_lkr(broken, REG).valid

        # break the witnessed equality inside the induction step
        def corrupt_equality(node):
            if node.rule == "equality" and node.params.get("multipliers"):
                params = dict(node.params)
                params["multipliers"] = [ONE for _ in params["multipliers"]]
                return LkrNode(node.rule, node.conclusion, node.premises, params)
            return LkrNode(
                node.rule,
                node.conclusion,
                tuple(corrupt_equality(p) for p in node.premises),
                dict(node.params),
            )

        corrupted = corrupt_equality(proof)
        assert not check_lkr(corrupted, REG).valid


class TestRuleTable:
    def test_readme_lists_the_table_rules(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        row = next(line for line in readme.splitlines() if line.startswith("| `lkr`"))
        assert set(re.findall(r"`([a-z-]+)`", row.split("|")[2])) == set(RULES)

    def test_check_and_compile_leave_the_proof_unchanged(self):
        from pcsos.families import gen_chain

        proof = gen_chain(1).certificate

        def params(node):
            return [dict(node.params)] + [p for prem in node.premises for p in params(prem)]

        before = params(proof)
        assert check_lkr(proof, REG).valid
        assert check_derivation(compile_lkr(proof, {"n": 2}, "pc_plus", REG)).valid
        assert params(proof) == before


class TestDepthLimit:
    def test_deep_proof_built_in_python_is_rejected(self):
        # 500 weakenings: deeper than a file may nest, and deeper than the
        # checker's recursion would survive
        phi = F("(= (X 0) (rat 1))", scope=())
        node = LkrNode("logical-axiom", Sequent((phi,), (phi,)))
        for _ in range(500):
            node = LkrNode("weakening-l", Sequent(node.conclusion.ante + (phi,), (phi,)), (node,))
        report = check_lkr(node, REG)
        assert not report.valid
        assert len(report.node) == MAX_PROOF_DEPTH
        assert report.reason == f"proof nested deeper than {MAX_PROOF_DEPTH} levels"
        with pytest.raises(LkrError, match="nested deeper"):
            compile_lkr(node, {}, "pc_rad", REG)


# -- per-rule compile corpus ---------------------------------------------
#
# One small proof per rule and per corner of the compiler: each compiles
# to both targets, replays through the kernel, and the sha256 of its JSON
# is pinned, so a change to the compiler that alters any emitted line
# fails here.

X0, X1, X2 = "(= (X 0) (rat 0))", "(= (X 1) (rat 0))", "(= (X 2) (rat 1))"
X3, X4 = "(= (X 3) (rat 0))", "(= (X 4) (rat 0))"
TWO = "(forall i 2 (= (X i) (rat 0)))"  # two members, x0 and x1
PAIR = f"(and {X3} {X4})"  # two members, x3 and x4
TRUE, FALSE = "(i= 1 1)", "(i< 1 0)"  # translate to 0 and to 1


def _node(rule, ante, succ, *premises, **params):
    def formulas(texts):
        return tuple(F(t, scope=("j", "k", "n")) for t in texts)

    return LkrNode(rule, Sequent(formulas(ante), formulas(succ)), premises, params)


def _axiom(phi):
    return _node("logical-axiom", [phi], [phi])


def _without(texts, phi):
    rest = list(texts)
    rest.remove(phi)
    return rest


def _weakened(phi, ante, succ):
    """ante -> succ, with phi on both sides, from phi -> phi by one
    weakening per other formula."""
    node, a, s = _axiom(phi), [phi], [phi]
    extra = [("weakening-l", psi) for psi in _without(ante, phi)]
    extra += [("weakening-r", psi) for psi in _without(succ, phi)]
    for k, (rule, psi) in enumerate(extra):
        (a if rule == "weakening-l" else s).append(psi)
        last = k == len(extra) - 1
        node = _node(rule, ante if last else a, succ if last else s, node)
    return node


def _forall_proof():
    phi_i = F("(= (X i) (rat 0))")
    forall = ForallIdx("i", IdxLit(3), phi_i)
    ax = LkrNode("logical-axiom", Sequent((phi_i,), (phi_i,)))
    inst = LkrNode(
        "forall-idx-l", Sequent((forall,), (phi_i,)), premises=(ax,), params={"term": IdxVar("i")}
    )
    return LkrNode("forall-idx-r", Sequent((forall,), (forall,)), premises=(inst,), params={"var": "i"})


def _instance(phi, term):
    """TWO -> phi, for phi the instance of TWO at term."""
    return _node("forall-idx-l", [TWO], [phi], _axiom(phi), term=term)


def _induction(gamma, term):
    """TWO, gamma -> TWO, PAIR by induction on TWO, which does not mention
    the induction variable, so the premise is the conclusion itself."""
    ante, succ = [TWO, *gamma], [TWO, PAIR]
    return _node("induction", ante, succ, _weakened(TWO, ante, succ), var="k", formula=TWO, term=term)


def _corpus():
    from pcsos.families import gen_chain

    sos_head = "(= (sum i 3 (* (X i) (X i))) (rat 0))"
    empty_head = "(= (sum i 0 (* (X i) (X i))) (rat 0))"
    or01, or_two = f"(or {X0} {X1})", f"(or {TWO} {X2})"
    or012, or_true = f"(or {X0} {X1} {X2})", f"(or {X0} {TRUE})"
    corpus = {
        "or-r child 0": (_node("or-r", [X0], [or01], _axiom(X0)), {}),
        "or-r child 1 with side": (
            _node("or-r", [X1], [or01, X2], _weakened(X1, [X1], [X1, X2])), {}
        ),
        "and-r": (
            _node(
                "and-r", [X0, X1], [f"(and {X0} {X1})"],
                _weakened(X0, [X0, X1], [X0]), _weakened(X1, [X0, X1], [X1]),
            ),
            {},
        ),
        "and-l": (_node("and-l", [f"(and {X0} {X1})", X1], [X0], _weakened(X0, [X0, X1], [X0])), {}),
        "contraction-l": (_node("contraction-l", [X0], [X0], _weakened(X0, [X0, X0], [X0])), {}),
        "weakening-r two members": (_weakened(TWO, [TWO], [TWO, X2]), {}),
        "contraction-r two members": (
            _node("contraction-r", [TWO], [TWO], _weakened(TWO, [TWO], [TWO, TWO])), {}
        ),
        "cut two members": (
            _node(
                "cut", [TWO], [TWO],
                _weakened(TWO, [TWO], [TWO, TWO]), _weakened(TWO, [TWO, TWO], [TWO]),
            ),
            {},
        ),
        "cut on a true formula": (
            _node("cut", [X0], [X0], _weakened(X0, [X0], [X0, TRUE]), _weakened(X0, [X0, TRUE], [X0])),
            {},
        ),
        "or-l two members": (
            _node(
                "or-l", [or_two, X1], [TWO, X2],
                _weakened(TWO, [TWO, X1], [TWO, X2]), _weakened(X2, [X2, X1], [TWO, X2]),
            ),
            {},
        ),
        "or-l three disjuncts": (
            _node("or-l", [or012], [X0, X1, X2], *(_weakened(x, [x], [X0, X1, X2]) for x in (X0, X1, X2))),
            {},
        ),
        "or-l three disjuncts with a side formula": (
            _node(
                "or-l", [f"(or {X0} {TWO} {X2})", X3], [X0, TWO, X2],
                *(_weakened(x, [x, X3], [X0, TWO, X2]) for x in (X0, TWO, X2)),
            ),
            {},
        ),
        # a side formula of the antecedent that translates like an assumed member
        "or-l with a side formula equal to a disjunct": (
            _node("or-l", [or01, X0], [X0], _weakened(X0, [X0, X0], [X0]), _weakened(X0, [X1, X0], [X0])),
            {},
        ),
        "cut with a side member equal to the cut formula": (
            _node(
                "cut", [TWO], [X0],
                _node("weakening-r", [TWO], [X1, X0], _instance(X1, "1")),
                _node("weakening-l", [X1, TWO], [X0], _instance(X0, "0")),
            ),
            {},
        ),
        "induction t=2 with side formulas": (_induction([X2], "2"), {}),
        "induction t=n with side formulas": (_induction([X2], "n"), {"n": 3}),
        "induction t=0 with side formulas": (_induction([X2], "0"), {}),
        "induction with a side formula equal to phi": (_induction([TWO], "2"), {}),
        "true in a succedent": (_weakened(X0, [X0], [X0, TRUE]), {}),
        "true as or-r disjunct": (_node("or-r", [X0], [f"(or {TRUE} {X0})"], _axiom(X0)), {}),
        "true as or-l disjunct": (
            _node(
                "or-l", [or_true, X1], [X0, TRUE],
                _weakened(X0, [X0, X1], [X0, TRUE]), _weakened(TRUE, [TRUE, X1], [X0, TRUE]),
            ),
            {},
        ),
        "false in a succedent": (_weakened(FALSE, [FALSE], [FALSE, X0]), {}),
        "ring-axiom": (_node("ring-axiom", [], ["(= (* (X 0) (+ (X 1) (rat 1))) (+ (* (X 0) (X 1)) (X 0)))"]), {}),
        "big-sum": (_node("big-sum", [], ["(= (sum i 3 (X i)) (+ (X 0) (+ (X 1) (X 2))))"]), {}),
        "integral-domain": (_node("integral-domain", ["(= (* (X 0) (X 1)) (rat 0))"], [X0, X1]), {}),
        "background-truth": (_node("background-truth", [], ["(forall i 5 (i< i 6))"]), {}),
        "equality witnessed": (
            _node(
                "equality", [X0], ["(= (* (X 0) (X 1)) (rat 0))"],
                multipliers=[rterm("(X 1)", ())],
            ),
            {},
        ),
        "equality from false": (
            _node("equality", ["(= (rat 1) (rat 0))"], [X0], multipliers=[rterm("(X 0)", ())]), {}
        ),
        "equality congruence": (_node("equality", ["(i= j k)"], ["(= (X j) (X k))"]), {"j": 1, "k": 2}),
        "equality congruence, equal arguments": (
            _node("equality", ["(i= j k)"], ["(= (X j) (X k))"]), {"j": 2, "k": 2}
        ),
        "sos-axiom": (_node("sos-axiom", [sos_head, "(i< 1 3)"], [X1]), {}),
        "sos-axiom with false side": (_node("sos-axiom", [empty_head, FALSE], [X1]), {}),
        "boolean-axiom": (_node("boolean-axiom", [], ["(= (* (X 0) (- (rat 1) (X 0))) (rat 0))"]), {}),
        "forall-idx": (_forall_proof(), {}),
    }
    for n in (1, 2, 5, 17):
        corpus[f"chain n={n}"] = (gen_chain(1).certificate, {"n": n})
    return corpus


CORPUS = _corpus()

# (pc_rad, pc_plus) sha256 of the compiled derivation's JSON; None where
# the target does not support a rule of the proof.
CORPUS_DIGESTS = {
    "and-l": (
        "446d17a716af84c1b47cb302235b5b2a5a2495084cae280a208c30d7bdae6f13",
        "e14f785d5ac508c63cca904444451a227e3b8b1a846cf234e2668908ec5d9c1f",
    ),
    "and-r": (
        "446d17a716af84c1b47cb302235b5b2a5a2495084cae280a208c30d7bdae6f13",
        "e14f785d5ac508c63cca904444451a227e3b8b1a846cf234e2668908ec5d9c1f",
    ),
    "background-truth": (
        "54375ee6e8b0358f6be7883b8b7e26d62121ea3489df5c74aec125f228acae83",
        "1baef43ed136768c3ea7f651d64cca6306a9b3fd8c6f6e8c0ef227d8222b2f27",
    ),
    "big-sum": (
        "54375ee6e8b0358f6be7883b8b7e26d62121ea3489df5c74aec125f228acae83",
        "1baef43ed136768c3ea7f651d64cca6306a9b3fd8c6f6e8c0ef227d8222b2f27",
    ),
    "boolean-axiom": (
        None,
        "b811f2277d0fbba6449d0c960b3f649fcb1884dc77636920bab4ebca731959d3",
    ),
    "chain n=1": (
        "e8b638ad64a7440cb2a9592ecd6fdad235a0832d38cd0ec041979e2e6bc56173",
        "0749252301d4920cb7e9d15856d80a91e26ac0ea7a4d905405443134ce978209",
    ),
    "chain n=17": (
        "03d4b4774f5ed58c5ec9c24564a01da5bf95e33028fd10ade66ab5d19841fd69",
        "47a6d7b0048f05f15f189f642d60acdbc14e62ee3179d76b5baf1e43996dda8b",
    ),
    "chain n=2": (
        "84f4407fde40b2318deea5c40ddb4467f4e80865a0e3131e427e0f1d56e9304b",
        "a1eb2c6f6a1c63a84886c8cfe5209f7c08bc4c0397e8a342a03b245990ae0a7c",
    ),
    "chain n=5": (
        "0e9dd73b8e28e2b25fac60c3ddcbc33c3196cc76b4ce9a11fcd8f3f1c591949c",
        "ba88ee2e3a2bd066c28512fd3ca64a3364b0c6479a492272c1b6b75fcae64763",
    ),
    "contraction-l": (
        "6f410d6fbd4e364ebfb1cfb121a4db56c3ed45f3a388cb31d5795b9d9e0cd254",
        "7cbc2253a81f3205729473bfb22b7550981487ffe12007fb466090d35bd7abed",
    ),
    "contraction-r two members": (
        "b4ecf31e7a4c0cea5712508112431544f95b1e82b952804d15077f6518e7664f",
        "2947da7f19240d0f245c3fefa126b7ef06bc38f87747ca4c1d3d9fac9ae0f0cd",
    ),
    "cut on a true formula": (
        "42087fa90ff1e521da860a3ba06a306f306334fe608bd1eba45366191fb210b6",
        "b7b0900d90459dbcd478f58df0077369a01fa6998d3fc9ade1423188b32b70ee",
    ),
    "cut two members": (
        "e1e72fb05f527f86fb4714d5cbd9f40b0cf280b2fb5be26fa42552b0cfa2f17c",
        "4429894d7d78dbf55c32eb13bdf7c3fca2ab1da023ad7ed3f681d816b5c33774",
    ),
    "cut with a side member equal to the cut formula": (
        "41e4302366a7e536cb6c2bd4a6d79b6b2e5acdd652d4c3c002aa210ca15b539c",
        "9597e5d8459bfd3c5f5f83d7de420490b0954002c6e62c8d7942416904e208ee",
    ),
    "equality congruence": (
        "046fa23cf46734ec5f817dc3ea549b5ea29f2a88607d413f713bd0b27b72f832",
        "401387cc1d9349c9e78a8b5e61a69e4a1064f55bbb801a201dabcbfc6c90d2c0",
    ),
    "equality congruence, equal arguments": (
        "826b1be3e37b13a72d0d1347b567511a0fc3b9be72632b2b426e04d04a207cef",
        "a464ffefb9f97637c604b2d5cee00387ff55beab0ced1e0b1111ed3d8a9a5337",
    ),
    "equality from false": (
        "7a9626728618cc7204fdcee1c12cf055f23dd6d6822e1787c4dc7da8d4951ecb",
        "9d3930a375dc36d7261eace376d9146b7ac7a6fd7eceb48eb52ede7b337b2c35",
    ),
    "equality witnessed": (
        "7c6a2c0e4e7855b5a411d8c8d511ea547bcac637399de7cd8b3aebf2ab0e3c15",
        "0e33e52e320c43807ccdf803dd6e284aa7033a1b4acc4922d9c15406eac31c8d",
    ),
    "false in a succedent": (
        "7a9626728618cc7204fdcee1c12cf055f23dd6d6822e1787c4dc7da8d4951ecb",
        "9d3930a375dc36d7261eace376d9146b7ac7a6fd7eceb48eb52ede7b337b2c35",
    ),
    "forall-idx": (
        "0084002e4f0ae3decfcb653c6a7b013e24d6fe0e24e60a449f69f3208be7780b",
        "70265179fb5f2c2dbdc1627eb6f995a6e03b211bdf3511eef18a1a67b911800c",
    ),
    "induction t=0 with side formulas": (
        "0ea7e665e33da1faddd9f1f02c4a9ddd7ec0687ac26979e03c381e179864b851",
        "a46cf9f7b88f2ff8d6e5634c315aba227180a158d1cc796f981f4f9b3b1e21c8",
    ),
    "induction t=2 with side formulas": (
        "9f48268540c384134d4f43e64a400c2b6aa6b48774d59fcaafef868a8262b0fa",
        "1fcee1b831377649a35a1adb2f5cb23de91413d7ab2e95f5da0a33a1ca2da245",
    ),
    "induction t=n with side formulas": (
        "c247e2b82259915dd6ef897390704873d5730a1091fe11df0bc5b810733b98b4",
        "e4331caa452064c64d9fbf9c48f22945bf28d40463d809603d1397996dfe0af4",
    ),
    "induction with a side formula equal to phi": (
        "d90c52c930443fbad6e235915dbeb000380d28818a4193ac139f62a10ccc9212",
        "70f126a3d5f598b759638034d77d5d06c230db084c2a958dcc2f44677e85bdfa",
    ),
    "integral-domain": (
        "a4f5bb984c124f70e5107e3d7f3fd3bc235e82559145b03ea920cb4a119eb434",
        "59ed217c64df591f280a4bdfeee92b715122c510e07c1976455fb8bb42162da3",
    ),
    "or-l three disjuncts": (
        "2c42b8eda90613d2c5fee5b250c0acf52fde494fe06139cc84683ebd7b85d144",
        "c36f67a15964dd083e4230fec64fb630893b30137ea12eefa7aac1b3122d59b7",
    ),
    "or-l three disjuncts with a side formula": (
        "a88e34f0eb4041fd9e13f92107636237f96401414619d0993827cf0a21a3e281",
        "7e717044d330c4c3dd5dc0cf78b0e537b2857f7d50943dbdf85fea2090793ebc",
    ),
    "or-l two members": (
        "9b8bec689bfaebe24698b41f6b3b928f9dd8f4976463b9b60a5192a791a5d696",
        "450f7ba1e9e311c05ccc9c72558ca6ed9f7e3aaf5cb1405dac8af9c2d5219136",
    ),
    "or-l with a side formula equal to a disjunct": (
        "565ca08a49f6c48c392ef9a489d5b733abe68eaa3e40a5e0a24e9ccdec237c1b",
        "8fdd07cfdd9bb49cec20b6313562209684f9ace99ae8d75f8f68ad34e33cdbac",
    ),
    "or-r child 0": (
        "7c6a2c0e4e7855b5a411d8c8d511ea547bcac637399de7cd8b3aebf2ab0e3c15",
        "0e33e52e320c43807ccdf803dd6e284aa7033a1b4acc4922d9c15406eac31c8d",
    ),
    "or-r child 1 with side": (
        "5f27f7b74d57760d44165a51ec3ee9a5734d8a86454525dd6b22d10c5406f412",
        "321b59fcf4e365b8a1981365c89ccd3ce86fa7d0c90c2062d7c38f3cc26a6307",
    ),
    "ring-axiom": (
        "54375ee6e8b0358f6be7883b8b7e26d62121ea3489df5c74aec125f228acae83",
        "1baef43ed136768c3ea7f651d64cca6306a9b3fd8c6f6e8c0ef227d8222b2f27",
    ),
    "sos-axiom": (
        None,
        "9e1ab90e9a1daefce52562bc1ee79cd6b144dcaf2aa6d163fefba449ef6459d2",
    ),
    "sos-axiom with false side": (
        None,
        "407dc4ce81198a267d4f86926680f0f2fc77b6a506c09056a98b102a5a66a18d",
    ),
    "true as or-l disjunct": (
        "ca4df74ed2707cea3231106f99a955c718c10759a4336977ead15054764d8c93",
        "5373d88d3cbde87da02b0eee73f7eda00f147f41428df00281162775e6a24423",
    ),
    "true as or-r disjunct": (
        "b0a9dd6cda40023232fbd713a08ee7f581189a1329c178a38993e15cc54efd90",
        "2561656b2fe7d89070c17888e6c1ef02fa30d619ae077299e1097b1017a34386",
    ),
    "true in a succedent": (
        "b0a9dd6cda40023232fbd713a08ee7f581189a1329c178a38993e15cc54efd90",
        "2561656b2fe7d89070c17888e6c1ef02fa30d619ae077299e1097b1017a34386",
    ),
    "weakening-r two members": (
        "18ee15ba4370096bc5737e7df1dbf9cc7d6e6b91a5e21574058cf677c6a2da53",
        "60ec7a2a6ef6fd7ae24d9776edb50547626709b00de7196657b39b99ea67ba6f",
    ),
}


def _rules_of(node):
    return {node.rule}.union(*(_rules_of(p) for p in node.premises))


def _digest(derivation):
    text = json.dumps(derivation_to_json(derivation), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestCompileCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_compiles_replays_and_matches_digest(self, name):
        proof, alpha = CORPUS[name]
        assert check_lkr(proof, REG).valid
        for target, digest in zip(("pc_rad", "pc_plus"), CORPUS_DIGESTS[name]):
            if digest is None:
                with pytest.raises(UnsupportedConstruct):
                    compile_lkr(proof, alpha, target, REG)
                continue
            d = compile_lkr(proof, alpha, target, REG)
            assert check_derivation(d).valid
            assert _digest(d) == digest, (name, target)

    def test_cut_emits_its_left_premise_once(self):
        # the left premise at scale w, and one collapse per succedent member
        proof, alpha = CORPUS["cut two members"]
        for target in ("pc_rad", "pc_plus"):
            d = compile_lkr(proof, alpha, target, REG)
            assert len(d.lines) == 8 and check_derivation(d).degree == 2

    def test_induction_prefers_the_side_line(self):
        # where a side formula also supplies a stage member, its line is
        # used, as in cut and or-l
        proof, alpha = CORPUS["induction with a side formula equal to phi"]
        for target in ("pc_rad", "pc_plus"):
            d = compile_lkr(proof, alpha, target, REG)
            assert len(d.lines) == 22 and check_derivation(d).degree == 4

    def test_every_rule_has_an_entry(self):
        covered = set().union(*(_rules_of(proof) for proof, _ in CORPUS.values()))
        assert set(RULES) <= covered

    @pytest.mark.parametrize("name", ["sos-axiom", "sos-axiom with false side"])
    def test_sos_axiom_needs_the_rationals(self, name):
        # the kernel admits no sum-of-squares step over GF(p), reached or not
        proof, alpha = CORPUS[name]
        with pytest.raises(UnsupportedConstruct, match="rational ring"):
            compile_lkr(proof, alpha, "pc_plus", REG, GF(5))

    @pytest.mark.parametrize(
        "name, targets", [("boolean-axiom", ("pc_plus",)), ("chain n=5", ("pc_rad", "pc_plus"))]
    )
    def test_compiles_over_gf(self, name, targets):
        proof, alpha = CORPUS[name]
        for target in targets:
            d = compile_lkr(proof, alpha, target, REG, GF(5))
            assert d.ring == GF(5) and check_derivation(d).valid


# -- rejection corpus -----------------------------------------------------
#
# One malformed node per failure message of the node checks: the node's own
# check rejects it, with that check's reason, before any premise is looked
# at, so the premises only claim their sequents.


def _claim(ante, succ):
    return _node("logical-axiom", ante, succ)


def _inducts(ante, succ, premise, formula, term):
    return _node("induction", ante, succ, _claim(*premise), var="k", formula=formula, term=term)


XK = "(= (X k) (rat 0))"
NOT_X0 = "(not (= (X 0) (rat 0)))"
NESTED = "(forall i 2 (forall j 2 (= (X (+ i j)) (rat 0))))"
REJECTIONS = {
    "formula outside the inductive class": (
        _node("logical-axiom", [NOT_X0], [NOT_X0]),
        "formula outside the inductive class: Not over an oracle-mentioning subformula",
    ),
    "premise count": (_node("weakening-l", [X0, X1], [X0]), "weakening-l expects 1 premises, got 0"),
    "bad parameter": (
        _node("forall-idx-r", [X0], [TWO], _claim([X0], [XK]), var="2k"),
        "forall-idx-r parameter 'var': expected an index variable name, got '2k'",
    ),
    "capturing instance": (
        _node("forall-idx-l", [NESTED], [X0], _claim(["(forall j 2 (= (X (+ j j)) (rat 0)))"], [X0]), term="j"),
        "forall-idx-l: substitution would capture 'j'",
    ),
    "ring-axiom with an antecedent": (_node("ring-axiom", [X0], [X0]), "ring-axiom must have shape  -> s = t"),
    "equality with two succedents": (
        _node("equality", [X0], [X0, X1]), "equality axiom needs a single succedent formula"
    ),
    "witnessed equality from an index equality": (
        _node("equality", [TRUE], [X0], multipliers=["(X 0)"]),
        "witnessed equality axiom relates ring equalities",
    ),
    "witnessed equality short of a multiplier": (
        _node("equality", [X0, X1], [X0], multipliers=["(rat 1)"]),
        "one multiplier per antecedent equality required",
    ),
    "congruence from a ring equality": (
        _node("equality", [X0], ["(= (X j) (X k))"]), "congruence form requires index equality antecedents"
    ),
    "congruence of different heads": (
        _node("equality", ["(i= j k)"], ["(i= (+ j 1) (* k 1))"]), "congruence heads differ"
    ),
    "congruence of an oracle and a constant": (
        _node("equality", ["(i= j k)"], ["(= (X j) (rat 0))"]), "unsupported congruence shape"
    ),
    "congruence pair reversed": (
        _node("equality", ["(i= k j)"], ["(= (X j) (X k))"]),
        "congruence antecedents must list the differing argument pairs in order",
    ),
    "background truth with an antecedent": (
        _node("background-truth", [TRUE], [TRUE]), "background truth axiom must have shape  -> sigma"
    ),
    "background truth with a free variable": (
        _node("background-truth", [], ["(i< k (+ k 1))"]), "background truth sentences must be closed"
    ),
    "sos-axiom of a plain equation": (
        _node("sos-axiom", [X0], [X0]),
        "sum-of-squares axiom must be  sum_{i<r} t(i)*t(i) = 0, s < r -> t(s) = 0",
    ),
    "weakening-l changes the succedent": (
        _node("weakening-l", [X0, X1], [X0], _claim([X0], [X1])), "weakening-l keeps the succedent fixed"
    ),
    "weakening-r changes the antecedent": (
        _node("weakening-r", [X0], [X0, X1], _claim([X1], [X0])), "weakening-r keeps the antecedent fixed"
    ),
    "weakening adds two formulas": (
        _node("weakening-l", [X0, X1, X2], [X0], _claim([X0], [X0])), "weakening must add exactly one formula"
    ),
    "and-l without a conjunction": (
        _node("and-l", [X0], [X0], _claim([X0], [X0])), "and-l needs a And formula in the antecedent"
    ),
    "or-r without a disjunction": (
        _node("or-r", [X0], [X0], _claim([X0], [X0])), "or-r needs a Or formula in the succedent"
    ),
    "and-l premise without a conjunct": (
        _node("and-l", [f"(and {X0} {X1})"], [X0], _claim([X2], [X0])),
        "and-l premise does not replace a And formula by an instance",
    ),
    "eigenvariable free in the conclusion": (
        _node("forall-idx-r", [XK], [TWO], _claim([XK], [XK]), var="k"),
        "eigenvariable 'k' occurs in the conclusion",
    ),
    "cut adds no formula": (
        _node("cut", [X0], [X0], _claim([X0], [X0]), _claim([X0, X0], [X0])),
        "cut: left premise must add one formula to the succedent",
    ),
    "cut changes the antecedent": (
        _node("cut", [X0], [X0], _claim([X1], [X0, X2]), _claim([X2, X0], [X0])),
        "cut: left premise antecedent must match the conclusion",
    ),
    "cut right premise without the cut formula": (
        _node("cut", [X0], [X0], _claim([X0], [X0, X2]), _claim([X0], [X0])),
        "cut: right premise must assume the cut formula",
    ),
    "induction without phi(0)": (
        _inducts([X2], [TWO], ([X2, TWO], [TWO]), TWO, "2"),
        "induction conclusion must contain phi(0) and phi(t)",
    ),
    "induction premise without phi(i)": (
        _inducts([TWO], [TWO], ([X2], [TWO]), TWO, "2"),
        "induction premise must be Gamma, phi(i) -> phi(i+1), Delta",
    ),
    "induction variable in the bottom sequent": (
        _inducts(
            [X0, "(= (X k) (rat 1))"], ["(= (X 2) (rat 0))"],
            (["(= (X k) (rat 1))", XK], ["(= (X (+ k 1)) (rat 0))"]), XK, "2",
        ),
        "induction variable 'k' occurs in the bottom sequent",
    ),
    "induction bound mentions the variable": (
        _inducts([TWO], [TWO], ([TWO], [TWO]), TWO, "k"),
        "induction bound may not mention the induction variable",
    ),
    "or-l premise for no disjunct": (
        _node("or-l", [f"(or {X0} {X1})"], [X0], _claim([X0], [X0]), _claim([X2], [X0])),
        "or-l premises do not match the parts of any Or formula",
    ),
    "and-r one premise too few": (
        _node("and-r", [X0, X1], [f"(and {X0} {X1})"], _claim([X0, X1], [X0])),
        "and-r premises do not match the parts of any And formula",
    ),
}


class TestRejections:
    @pytest.mark.parametrize("name", sorted(REJECTIONS))
    def test_node_is_rejected_with_its_reason(self, name):
        proof, reason = REJECTIONS[name]
        report = check_lkr(proof, REG)
        assert not report.valid
        assert report.node == () and report.reason == reason
        with pytest.raises(LkrError, match=re.escape(reason)):
            compile_lkr(proof, {}, "pc_rad", REG)
