"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values marked as derived were computed once with the independent
checkers and frozen here; degree bounds and runtime budgets are asserted
exactly as stated.
"""

import gc
import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

from pcsos.algebra import GF, RATIONAL, Polynomial, eqset, parse_poly
from pcsos.degsearch import pc_closure
from pcsos.families import (
    gen_bphp_graph,
    gen_chain,
    gen_fphp_sos,
    gen_subset_sum,
    shift_graph,
)
from pcsos.fol import FunctionRegistry, eval_formula, translate_formula
from pcsos.lkr import LkrNode, Sequent, check_lkr, compile_lkr
from pcsos.proofcheck import (
    Add,
    Axiom,
    BoolAxiom,
    Derivation,
    Mul,
    Radical,
    Sos,
    SosCertificate,
    check_derivation,
    check_sos,
    scale_certificate,
)
from pcsos.simulate import (
    eliminate_radical_char_p,
    pcplus_refutation_to_sos,
    pcplus_to_sos_eps,
    sos_to_pcplus,
)

REG = FunctionRegistry.standard()


def P(text, ring=RATIONAL):
    return parse_poly(text, ring)


def report(number, detail):
    print(f"[criterion {number:2d}] PASS  {detail}")


# -- shared fixtures ---------------------------------------------------------


def mixed_rule_refutation():
    """Degree-2 pc_plus refutation using the sum-of-squares and radical rules."""
    axioms = eqset(RATIONAL, [P("x1^2 + x2^2"), P("x1 - 1")])
    return Derivation(
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


def product_refutation(k):
    """Degree-k pc_plus refutation of {x1...xk - 1, x1...xk}."""
    mono = "*".join(f"x{i}" for i in range(1, k + 1))
    axioms = eqset(RATIONAL, [P(f"{mono} - 1"), P(mono)])
    return Derivation(
        "pc_plus",
        axioms,
        (
            (P(f"{mono} - 1"), Axiom(0)),
            (P(mono), Axiom(1)),
            (P("1"), Add(1, 0, 1, -1)),
        ),
    )


def certificate_fixtures():
    """Valid SoS refutation certificates of assorted shapes."""
    fixtures = [gen_fphp_sos(n + 1, n) for n in range(1, 6)]
    fixtures.append(
        SosCertificate(
            axioms=eqset(RATIONAL, [P("-1")]),
            multipliers=((0, P("1")),),
            squares=(),
            target=P("-1"),
        )
    )
    fixtures.append(
        SosCertificate(
            axioms=eqset(RATIONAL, [P("x1 + 1")], boolean_axioms=True),
            multipliers=((0, P("1/2*x1 - 1")),),
            bool_multipliers=((1, P("-1/2")),),
            squares=(),
            target=P("-1"),
        )
    )
    fixtures.append(
        SosCertificate(
            axioms=eqset(RATIONAL, [P("x1 + 1")], boolean_axioms=True),
            multipliers=((0, P("3/2*x1 - 3")), (0, P("-x1 - 1"))),
            bool_multipliers=((1, P("-3/2")),),
            squares=(P("x1 + 1"),),
            target=P("-3"),
        )
    )
    # weighted squares that share monomials: the eps round trips of fPHP,
    # and one of them rescaled so that some weights are not integral
    round_trips = [pcplus_refutation_to_sos(sos_to_pcplus(gen_fphp_sos(n + 1, n))) for n in (3, 4)]
    fixtures.extend(round_trips)
    fixtures.append(scale_certificate(round_trips[0], Fraction(2, 3), P("-2/3")))
    return fixtures


def radical_fixtures():
    out = []
    for p in (3, 5):
        g = GF(p)

        def poly(text):
            return parse_poly(text, g)

        one_step = Derivation(
            "pc_rad",
            eqset(g, [poly("x1^2")], boolean_axioms=True),
            ((poly("x1^2"), Axiom(0)), (poly("x1"), Radical(0))),
        )
        f = poly("x1 + x2")
        f2 = f * f
        two_step = Derivation(
            "pc_rad",
            eqset(g, [f2 * f2], boolean_axioms=True),
            ((f2 * f2, Axiom(0)), (f2, Radical(0)), (f, Radical(1))),
        )
        h = poly("x1 + 2*x2")
        h2, h4 = h * h, (h * h) * (h * h)
        h8 = h4 * h4
        three_step = Derivation(
            "pc_rad",
            eqset(g, [h8], boolean_axioms=True),
            (
                (h8, Axiom(0)),
                (h4, Radical(0)),
                (h2, Radical(1)),
                (h, Radical(2)),
                (h * Polynomial.variable(g, 3), Mul(3, 3)),
            ),
        )
        out.extend([(p, one_step), (p, two_step), (p, three_step)])
    # a 9-variable root, where a dense expansion of f^p takes seconds
    out.append((11, gen_subset_sum(8, GF(11)).certificate))
    return out


# -- criteria ----------------------------------------------------------------


def test_criterion_01_fphp_certificates_degree_two():
    # timed with the collector paused, as timeit does for allocation-heavy runs
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        results = [check_sos(gen_fphp_sos(n + 1, n)) for n in range(1, 51)]
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    for n, rep in enumerate(results, start=1):
        assert rep.valid and rep.refutation, n
        assert rep.degree == 2, n
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds the 10s budget"
    report(1, f"fPHP(n+1, n) certificates verify at degree 2 for n in [1, 50] in {elapsed:.2f}s")


def test_criterion_02_simulation_degree_doubling():
    # frozen output degrees computed by check_sos: exactly 2d per fixture
    fixtures = [
        (mixed_rule_refutation(), 2, 4),
        (product_refutation(3), 3, 6),
        (product_refutation(4), 4, 8),
    ]
    for derivation, in_degree, frozen_out in fixtures:
        rep = check_derivation(derivation)
        assert rep.valid and rep.refutation and rep.degree == in_degree
        cert = pcplus_refutation_to_sos(derivation)
        crep = check_sos(cert)
        assert crep.valid and crep.refutation
        assert crep.degree <= 2 * in_degree
        assert crep.degree == frozen_out
    report(2, "pc_plus refutations of degree 2, 3, 4 map to certificates of degree 4, 6, 8")


def test_criterion_03_reverse_simulation_degree_preserving():
    for cert in certificate_fixtures():
        crep = check_sos(cert)
        assert crep.valid and crep.refutation
        derivation = sos_to_pcplus(cert)
        drep = check_derivation(derivation)
        assert drep.valid and drep.refutation
        assert drep.degree == crep.degree
        assert not drep.uses_radical
        assert sum(isinstance(j, Sos) for _, j in derivation.lines) == 1
    report(3, "sos_to_pcplus preserves degree exactly and emits no radical steps")


def test_criterion_04_eps_independence():
    derivation = mixed_rule_refutation()
    degrees = set()
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(1, 100)):
        out = pcplus_to_sos_eps(derivation, eps)
        rep = check_sos(out.certificate)
        assert rep.valid
        assert out.certificate.target == Polynomial.const(RATIONAL, eps - 1)
        degrees.add(rep.degree)
    assert len(degrees) == 1
    report(4, f"certificate degree {degrees.pop()} is identical for eps in {{1, 1/2, 1/7, 1/100}}")


def test_criterion_05_radical_elimination():
    for p, derivation in radical_fixtures():
        in_rep = check_derivation(derivation)
        assert in_rep.valid and in_rep.uses_radical
        t0 = time.perf_counter()
        out = eliminate_radical_char_p(derivation)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        rep = check_derivation(out)
        assert rep.valid and not rep.uses_radical
        assert out.final_polynomial() == derivation.final_polynomial()
        assert rep.degree <= p * in_rep.degree + 2
    report(5, "radical elimination over GF(3), GF(5) and GF(11) verifies within degree p*d + 2")


def test_criterion_06_subset_sum_lower_bound_property():
    t0 = time.perf_counter()
    for n in (4, 6, 8):
        instance = gen_subset_sum(n, refutation_cap=0)
        target = Polynomial.sum(
            RATIONAL,
            [Polynomial.const(RATIONAL, 1)]
            + [Polynomial.variable(RATIONAL, v) for v in range(1, n + 1)],
        )
        for d in range(0, n // 2):
            basis = pc_closure(instance.equations, d)
            assert not basis.contains(target), (n, d)
        witness = instance.attachments["target_derivation"]
        rep = check_derivation(witness)
        assert rep.valid and rep.uses_radical
        assert witness.final_polynomial() == target
        assert rep.degree <= n + 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"linear form stays outside every closure of degree <= n/2 - 1 ({elapsed:.2f}s)")


def test_criterion_07_translation_semantics_and_degree():
    rng = random.Random(2024)
    # semantics agreement on 100 random oracles per instance, n <= 6
    for n in range(2, 7):
        holes_of, pigeons_of, m, _ = shift_graph(n)
        graph = gen_bphp_graph(holes_of, pigeons_of, m, n)
        chain = gen_chain(n, with_proofs=False)
        for inst, reg in ((graph, graph.registry), (chain, REG)):
            eqs = translate_formula(inst.formula, {}, reg)
            variables = sorted(eqs.variables())
            for _ in range(100):
                oracle = {v: rng.randint(0, 1) for v in variables}
                assert eval_formula(inst.formula, {}, oracle, reg) == eqs.vanishes_at(oracle)
    # translated degree is one constant over n in [2, 20]
    graph_degrees, chain_degrees = set(), set()
    for n in range(2, 21):
        holes_of, pigeons_of, m, _ = shift_graph(n)
        graph = gen_bphp_graph(holes_of, pigeons_of, m, n)
        graph_degrees.add(max(int(p.degree) for p in graph.equations if not p.is_zero))
        chain = gen_chain(n, with_proofs=False)
        eqs = translate_formula(chain.formula, {}, REG)
        chain_degrees.add(max(int(p.degree) for p in eqs if not p.is_zero))
    assert len(graph_degrees) == 1 and len(chain_degrees) == 1
    report(7, "formula evaluation matches equation vanishing; translated degrees are constant")


def test_criterion_08_chain_lkr_compilation():
    proof = gen_chain(1).certificate
    assert check_lkr(proof, REG).valid
    degrees = set()
    for n in range(1, 31):
        derivation = compile_lkr(proof, {"n": n}, "pc_rad", REG)
        rep = check_derivation(derivation)
        assert rep.valid and rep.refutation, n
        degrees.add(rep.degree)
    assert len(degrees) == 1
    constant = degrees.pop()
    assert constant <= 3

    # structural mutations must be caught by check_lkr or by the line checker
    def swap_cut_premises(node):
        if node.rule == "cut":
            return LkrNode(node.rule, node.conclusion, node.premises[::-1], dict(node.params))
        return LkrNode(
            node.rule,
            node.conclusion,
            tuple(swap_cut_premises(p) for p in node.premises),
            dict(node.params),
        )

    def drop_succedent(node):
        return LkrNode(node.rule, Sequent(node.conclusion.ante, ()), node.premises, dict(node.params))

    def corrupt_witness(node):
        if node.rule == "equality" and node.params.get("multipliers"):
            params = dict(node.params)
            params["multipliers"] = list(params["multipliers"][::-1])
            return LkrNode(node.rule, node.conclusion, node.premises, params)
        return LkrNode(
            node.rule,
            node.conclusion,
            tuple(corrupt_witness(p) for p in node.premises),
            dict(node.params),
        )

    def stretch_induction(node):
        if node.rule == "induction":
            params = dict(node.params)
            params["term"] = "(+ n 1)"
            return LkrNode(node.rule, node.conclusion, node.premises, params)
        return LkrNode(
            node.rule,
            node.conclusion,
            tuple(stretch_induction(p) for p in node.premises),
            dict(node.params),
        )

    for mutate in (swap_cut_premises, drop_succedent, corrupt_witness, stretch_induction):
        assert not check_lkr(mutate(proof), REG).valid, mutate.__name__
    report(8, f"chain proofs compile at one constant degree {constant} for n in [1, 30]")


def test_criterion_09_round_trip():
    for n in range(1, 11):
        cert = gen_fphp_sos(n + 1, n)
        derivation = sos_to_pcplus(cert)
        back = pcplus_refutation_to_sos(derivation)
        rep = check_sos(back)
        assert rep.valid and rep.refutation
        assert rep.degree <= 4, (n, rep.degree)
    report(9, "fPHP certificate -> pc_plus -> certificate round trip stays within degree 4")


def test_criterion_10_checker_integrity():
    rng = random.Random(404)

    derivation_fixtures = [
        mixed_rule_refutation(),
        product_refutation(3),
        gen_subset_sum(3).certificate,
        gen_chain(3).attachments["pc_refutation"],
        compile_lkr(gen_chain(2).certificate, {"n": 2}, "pc_rad", REG),
        _boolean_flag_fixture(),
    ]
    for fixture in derivation_fixtures:
        assert check_derivation(fixture).valid
        rejected = 0
        attempts = 0
        while rejected < 100:
            attempts += 1
            assert attempts < 3000, "mutation generator stalled"
            mutant = _mutate_derivation(fixture, rng)
            if mutant is None:
                continue
            assert not check_derivation(mutant).valid, "a coefficient mutation survived"
            rejected += 1

    certificate_mutants = 0
    for cert in certificate_fixtures():
        for _ in range(100):
            mutant = _mutate_certificate(cert, rng)
            if mutant is None:
                continue
            assert not check_sos(mutant).valid
            certificate_mutants += 1
    assert certificate_mutants >= 100 * len(certificate_fixtures()) * 0.9

    # exhaustive 0/1 soundness for accepted Boolean-flagged proofs
    checked = 0
    for fixture in derivation_fixtures:
        if not fixture.axioms.boolean_axioms:
            continue
        variables = sorted(
            set().union(*[poly.variables() for poly, _ in fixture.lines]) | fixture.axioms.variables()
        )
        if len(variables) > 10:
            continue
        for bits in itertools.product((0, 1), repeat=len(variables)):
            point = dict(zip(variables, bits))
            if not fixture.axioms.vanishes_at(point):
                continue
            for poly, _ in fixture.lines:
                assert poly.evaluate(point) == 0
        checked += 1
    assert checked >= 2
    report(10, "all single-coefficient mutations rejected; Boolean-grid soundness holds")


def _boolean_flag_fixture():
    axioms = eqset(RATIONAL, [P("x1*x2 - 1")], boolean_axioms=True)
    lines = (
        (P("x1*x2 - 1"), Axiom(0)),
        (P("x1^2 - x1"), BoolAxiom(1)),
        (P("x1^2*x2 - x1"), Mul(0, 1)),
        (P("x1^2*x2 - x1*x2"), Mul(1, 2)),
        (P("x1*x2 - x1"), Add(2, 3, 1, -1)),
    )
    return Derivation("pc_rad", axioms, lines)


def _mutate_derivation(d, rng):
    idx = rng.randrange(len(d.lines))
    poly, just = d.lines[idx]
    if poly.is_zero:
        mutated = Polynomial.const(d.ring, 1)
    else:
        terms = poly.terms
        mono = rng.choice(list(terms))
        delta = d.ring.coerce(rng.choice([1, -1, 2, 5]))
        terms[mono] = terms[mono] + delta
        mutated = Polynomial(d.ring, terms)
        if mutated == poly:
            return None
    lines = list(d.lines)
    lines[idx] = (mutated, just)
    return Derivation(d.system, d.axioms, tuple(lines))


def _mutate_certificate(cert, rng):
    kind = rng.choice(["multiplier", "square", "weight", "target", "constant"])
    if kind == "multiplier" and cert.multipliers:
        pos = rng.randrange(len(cert.multipliers))
        k, r = cert.multipliers[pos]
        if cert.axioms[k].is_zero:
            return None
        bumped = r + Polynomial.const(RATIONAL, rng.choice([1, -1, 3]))
        multipliers = list(cert.multipliers)
        multipliers[pos] = (k, bumped)
        return replace(cert, multipliers=tuple(multipliers))
    if kind == "square" and cert.squares:
        pos = rng.randrange(len(cert.squares))
        squares = list(cert.squares)
        squares[pos] = squares[pos] + Polynomial.variable(RATIONAL, 7)
        return replace(cert, squares=tuple(squares))
    if kind == "weight" and cert.squares:
        pos = rng.randrange(len(cert.squares))
        if cert.squares[pos].is_zero:
            return None
        weights = [w for _, w in cert.weighted_squares()]
        weights[pos] = weights[pos] * rng.choice([2, 3]) + rng.choice([0, Fraction(1, 2)])
        return replace(cert, weights=tuple(weights))
    if kind == "target":
        return replace(cert, target=cert.target + Polynomial.const(RATIONAL, rng.choice([1, -2])))
    if kind == "constant":
        return replace(cert, constant=cert.constant + 1)
    return None
