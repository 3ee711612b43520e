import hashlib
import itertools
import json

import pytest

from pcsos.algebra import GF, RATIONAL, parse_poly
from pcsos.families import (
    MAX_TERMS,
    FamilyError,
    chain_pc_refutation,
    gen_bphp_graph,
    gen_chain,
    gen_fphp,
    gen_fphp_sos,
    gen_subset_sum,
    shift_graph,
    subset_sum_refutation,
)
from pcsos.fol import FunctionRegistry, eval_formula, translate_formula
from pcsos.lkr import check_lkr, compile_lkr
from pcsos.proofcheck import DerivationBuilder, check_derivation, check_sos

REG = FunctionRegistry.standard()


def P(text):
    return parse_poly(text, RATIONAL)


def exhaustive_01_satisfiable(eqs):
    variables = sorted(eqs.variables())
    assert len(variables) <= 12
    for bits in itertools.product((0, 1), repeat=len(variables)):
        point = dict(zip(variables, bits))
        if eqs.vanishes_at(point):
            if not eqs.boolean_axioms:
                return True
            return True
    return False


class TestFphp:
    def test_two_pigeons_one_hole(self):
        inst = gen_fphp(2, 1)
        assert list(inst.equations) == [P("x0 - 1"), P("x1 - 1"), P("x0*x1")]
        assert inst.equations.boolean_axioms

    def test_one_one_satisfiable(self):
        assert exhaustive_01_satisfiable(gen_fphp(1, 1).equations)

    def test_three_two_counts(self):
        inst = gen_fphp(3, 2)
        # 3 totality + 2 holes * C(3,2) injectivity
        assert len(inst.equations) == 3 + 2 * 3

    def test_unsat_iff_more_pigeons(self):
        assert not exhaustive_01_satisfiable(gen_fphp(3, 2).equations)
        assert exhaustive_01_satisfiable(gen_fphp(2, 2).equations)

    def test_zero_parameters_rejected(self):
        with pytest.raises(FamilyError):
            gen_fphp(0, 1)

    def test_equations_are_pinned(self):
        # terms, their order and coefficient types for every m <= 8 and n < m
        rows = [
            [repr(list(p.terms.items())) for p in gen_fphp(m, n).equations]
            for m in range(1, 9)
            for n in range(1, m)
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "2e8d93006d0a7eabe4d91b400ade6c4decdbacc15dbbe0b013a3a79641bd8eee"


class TestSizeLimit:
    def test_fphp_at_and_past_the_limit(self):
        # one pigeon: one equation of n + 1 terms
        assert len(gen_fphp(1, MAX_TERMS - 1).equations[0].terms) == MAX_TERMS
        with pytest.raises(FamilyError, match=f"fphp would have up to {MAX_TERMS + 1} terms"):
            gen_fphp(1, MAX_TERMS)

    def test_chain_and_subset_sum_count_their_terms(self):
        assert sum(len(p.terms) for p in gen_chain(5).equations) == 2 * 5 + 3
        assert sum(len(p.terms) for p in gen_subset_sum(5).equations) == 2 * 5 + 6 * 7 // 2
        with pytest.raises(FamilyError, match="chain would have"):
            gen_chain(MAX_TERMS // 2)
        with pytest.raises(FamilyError, match="subset sum would have"):
            gen_subset_sum(1000)


class TestFphpSos:
    def test_two_one_certificate(self):
        cert = gen_fphp_sos(2, 1)
        rep = check_sos(cert)
        assert rep.valid and rep.refutation and rep.degree == 2
        assert cert.target == P("-1")
        assert cert.squares == (P("x0 + x1 - 1"),)

    def test_degree_two_sweep(self):
        for n in (1, 2, 3, 7, 15):
            rep = check_sos(gen_fphp_sos(n + 1, n))
            assert rep.valid and rep.refutation and rep.degree == 2

    def test_wide_gap(self):
        rep = check_sos(gen_fphp_sos(5, 2))
        assert rep.valid and rep.refutation and rep.degree == 2

    def test_equal_sizes_rejected(self):
        with pytest.raises(FamilyError):
            gen_fphp_sos(1, 1)


class TestBphpGraph:
    def test_perfect_matching_satisfiable(self):
        inst = gen_bphp_graph([[0], [1]], [[0], [1]], 2, 2)
        assert inst.formula is not None
        assert exhaustive_01_satisfiable(inst.equations)

    def test_crowded_graph_unsatisfiable(self):
        holes_of, pigeons_of, m, n = shift_graph(2)
        inst = gen_bphp_graph(holes_of, pigeons_of, m, n)
        assert not exhaustive_01_satisfiable(inst.equations)

    def test_translation_matches_equations(self):
        for n in (2, 3, 4):
            holes_of, pigeons_of, m, _ = shift_graph(n)
            inst = gen_bphp_graph(holes_of, pigeons_of, m, n)
            again = translate_formula(inst.formula, {}, inst.registry)
            assert list(again) == list(inst.equations)

    def test_semantics_agreement(self):
        import random

        rng = random.Random(5)
        holes_of, pigeons_of, m, n = shift_graph(3)
        inst = gen_bphp_graph(holes_of, pigeons_of, m, n)
        variables = sorted(inst.equations.variables())
        for _ in range(100):
            oracle = {v: rng.randint(0, 1) for v in variables}
            truth = eval_formula(inst.formula, {}, oracle, inst.registry)
            assert truth == inst.equations.vanishes_at(oracle)

    def test_degree_constant_over_n(self):
        degrees = set()
        for n in range(2, 12):
            holes_of, pigeons_of, m, _ = shift_graph(n)
            inst = gen_bphp_graph(holes_of, pigeons_of, m, n)
            degrees.add(max(int(p.degree) for p in inst.equations if not p.is_zero))
        assert len(degrees) == 1

    def test_malformed_adjacency(self):
        with pytest.raises(FamilyError):
            gen_bphp_graph([[0], [0, 1]], [[0], [1]], 2, 2)


class TestSubsetSum:
    def test_equations_shape(self):
        inst = gen_subset_sum(2)
        assert list(inst.equations) == [
            P("x1^2 - x1"),
            P("x2^2 - x2"),
            P("x1 + x2 + 1") * P("x1 + x2 + 1"),
        ]

    def test_target_derivation(self):
        inst = gen_subset_sum(6, refutation_cap=0)
        builder = DerivationBuilder("pc_rad", inst.equations)
        builder.radical_of(builder.axiom(6), P("x1 + x2 + x3 + x4 + x5 + x6 + 1"))
        d = builder.build()
        rep = check_derivation(d)
        assert rep.valid and rep.uses_radical and rep.degree == 2
        assert d.final_polynomial() == P("x1 + x2 + x3 + x4 + x5 + x6 + 1")

    def test_refutation_small(self):
        for n in (1, 2, 4):
            d = subset_sum_refutation(n)
            rep = check_derivation(d)
            assert rep.valid and rep.refutation and rep.uses_radical
            assert rep.degree <= n + 2

    def test_refutation_cap(self):
        assert gen_subset_sum(4).certificate is not None
        assert gen_subset_sum(13).certificate is None

    def test_unsatisfiable(self):
        assert not exhaustive_01_satisfiable(gen_subset_sum(3).equations)

    def test_small_fields_are_satisfiable(self):
        # over GF(p) with p <= n + 1, p - 1 ones make 1 + x1 + ... + xn vanish
        for n, p in ((3, 3), (4, 3), (5, 5), (6, 7)):
            inst = gen_subset_sum(n, GF(p))
            assert inst.certificate is None
            root = {v: int(v < p) for v in range(1, n + 1)}
            assert inst.equations.vanishes_at(root)
            with pytest.raises(FamilyError, match="satisfiable"):
                subset_sum_refutation(n, GF(p))
        rep = check_derivation(gen_subset_sum(5, GF(7)).certificate)
        assert rep.valid and rep.refutation


class TestChain:
    def test_equations_shape(self):
        inst = gen_chain(1, with_proofs=False)
        assert list(inst.equations) == [P("x0 - 1"), P("x0 - x0*x1"), P("x1")]

    def test_pc_refutation(self):
        for n in (1, 2, 5, 9):
            d = chain_pc_refutation(n)
            rep = check_derivation(d)
            assert rep.valid and rep.refutation and rep.degree == 2

    def test_formula_translation_equals_equations(self):
        for n in (1, 2, 5):
            inst = gen_chain(n, with_proofs=False)
            translated = translate_formula(inst.formula, {}, REG)
            assert list(translated) == list(inst.equations)

    def test_lkr_certificate(self):
        inst = gen_chain(2)
        assert check_lkr(inst.certificate, REG).valid
        d = compile_lkr(inst.certificate, {"n": 2}, "pc_rad", REG)
        rep = check_derivation(d)
        assert rep.valid and rep.refutation and rep.degree <= 3

    def test_unsatisfiable(self):
        for n in (1, 2, 4):
            assert not exhaustive_01_satisfiable(gen_chain(n, with_proofs=False).equations)
