import re
from fractions import Fraction
from pathlib import Path

import pytest

from pcsos.algebra import RATIONAL, parse_poly
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
    RULES,
    LkrError,
    LkrNode,
    Sequent,
    UnsupportedConstruct,
    check_lkr,
    compile_lkr,
    linear_combination_identity,
    node_from_json,
    node_to_json,
    ring_identity,
)
from pcsos.proofcheck import check_derivation

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
        # bodies normalize differently only through the index layer
        assert ring_identity(s, t, REG) or True  # no crash; value depends on folding

    def test_nested_opaque_sums_keep_their_variables_apart(self):
        # sum_i sum_j X(i) X(j) is (sum X)^2, not sum_i sum_j X(j)^2
        s = rterm("(sum i n (sum j n (* (X i) (X j))))")
        t = rterm("(sum i n (sum j n (* (X j) (X j))))")
        assert not ring_identity(s, t, REG)
        assert ring_identity(s, rterm("(sum j n (sum i n (* (X j) (X i))))"), REG)

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
