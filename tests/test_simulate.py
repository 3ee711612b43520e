import random
from fractions import Fraction

import pytest

from pcsos.algebra import GF, RATIONAL, Polynomial, eqset, parse_poly
from pcsos.families import gen_fphp_sos, gen_subset_sum
from pcsos.proofcheck import (
    Add,
    Axiom,
    Derivation,
    Mul,
    Radical,
    Sos,
    SosCertificate,
    ZeroIntro,
    check_derivation,
    check_sos,
)
from pcsos.errors import UnsupportedConstruct
from pcsos.simulate import (
    SimulationError,
    eliminate_radical_char_p,
    pcplus_refutation_to_sos,
    pcplus_to_sos_eps,
    sos_to_pcplus,
)


def P(text, ring=RATIONAL):
    return parse_poly(text, ring)


def fphp21_certificate():
    axioms = eqset(RATIONAL, [P("x0 - 1"), P("x1 - 1"), P("x0*x1")])
    return SosCertificate(
        axioms=axioms,
        multipliers=((2, P("-1")), (0, P("x1")), (1, P("1"))),
        squares=(),
        target=P("-1"),
    )


def radical_sos_refutation():
    # pc_plus refutation of {x1^2 + x2^2, x1 - 1} using both extra rules
    axioms = eqset(RATIONAL, [P("x1^2 + x2^2"), P("x1 - 1")])
    lines = (
        (P("x1^2 + x2^2"), Axiom(0)),
        (P("x1^2"), Sos(0, P("x1"), (P("x2"),))),
        (P("x1"), Radical(1)),
        (P("x1 - 1"), Axiom(1)),
        (P("1"), Add(2, 3, 1, -1)),
    )
    return Derivation("pc_plus", axioms, lines)


def weighted_certificate():
    return SosCertificate(
        axioms=eqset(RATIONAL, [P("x1^2 + 3*x2^2 + 1")]),
        multipliers=((0, P("-1")),),
        squares=(P("2*x1"), P("x2")),
        target=P("-1"),
        weights=(Fraction(1, 4), Fraction(3)),
    )


class TestSosToPcplus:
    def test_fphp_two_one(self):
        out = sos_to_pcplus(fphp21_certificate())
        rep = check_derivation(out)
        assert rep.valid and rep.refutation
        assert rep.degree == 2
        assert not rep.uses_radical
        assert sum(isinstance(j, Sos) for _, j in out.lines) == 1

    def test_trivial_negative_axiom(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("-1")]),
            multipliers=((0, P("1")),),
            squares=(),
            target=P("-1"),
        )
        out = sos_to_pcplus(cert)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and rep.degree == 0
        final_just = out.lines[-1][1]
        prev_just = out.lines[-2][1]
        assert isinstance(final_just, Sos) or isinstance(prev_just, Sos)

    def test_degree_preserved_with_squares_and_bools(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1 + 1")], boolean_axioms=True),
            multipliers=((0, P("1/2*x1 - 1")),),
            bool_multipliers=((1, P("-1/2")),),
            squares=(),
            target=P("-1"),
        )
        in_rep = check_sos(cert)
        assert in_rep.valid and in_rep.refutation and in_rep.degree == 2
        out = sos_to_pcplus(cert)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and rep.degree == 2 and not rep.uses_radical

    def test_scaled_target_accepted_without_normalization(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, [P("x1 + 1")], boolean_axioms=True),
            multipliers=((0, P("3/2*x1 - 3")), (0, P("-x1 - 1"))),
            bool_multipliers=((1, P("-3/2")),),
            squares=(P("x1 + 1"),),
            target=P("-3"),
        )
        out = sos_to_pcplus(cert)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and rep.degree == 2

    def test_weighted_squares_enter_the_step_as_they_are(self):
        # -(x1^2 + 3*x2^2 + 1) + 1/4*(2*x1)^2 + 3*x2^2 == -1, so c + kappa = 1
        cert = weighted_certificate()
        out = sos_to_pcplus(cert)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and rep.degree == 2 and not rep.uses_radical
        (sos_step,) = [j for _, j in out.lines if isinstance(j, Sos)]
        assert sos_step.witness == P("1")
        assert sos_step.squares == cert.squares and sos_step.weights == cert.weights

    def test_target_scale_divides_the_weights(self):
        # target -4: the line u = 4 + sum of squares is scaled by 1/4 first,
        # and the closing step, the last line, carries the weights 1/4
        cert = gen_fphp_sos(5, 1)
        assert cert.target == P("-4") and not cert.weights
        out = sos_to_pcplus(cert)
        (poly, sos_step), (u_poly, scale) = out.lines[-1], out.lines[-2]
        assert isinstance(sos_step, Sos) and poly == P("1") and sos_step.witness == P("1")
        assert scale == Add(len(out.lines) - 3, len(out.lines) - 3, Fraction(1, 4), 0)
        assert sos_step.i == len(out.lines) - 2
        assert sos_step.weights == (Fraction(1, 4),) * len(cert.squares)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and rep.degree == 2

    @pytest.mark.parametrize(
        "cert",
        [weighted_certificate(), gen_fphp_sos(5, 1), gen_fphp_sos(6, 3)],
        ids=["weighted", "fphp-5-1", "fphp-6-3"],
    )
    def test_one_step_at_the_certificate_degree_and_back(self, cert):
        degree = check_sos(cert).degree
        out = sos_to_pcplus(cert)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and not rep.uses_radical and rep.degree == degree
        (sos_step,) = [j for _, j in out.lines if isinstance(j, Sos)]
        assert sos_step.witness == P("1")
        back = check_sos(pcplus_refutation_to_sos(out))
        assert back.valid and back.refutation and back.degree <= 2 * degree

    def test_rejects_non_refutation(self):
        cert = SosCertificate(
            axioms=eqset(RATIONAL, []),
            multipliers=(),
            squares=(P("1"),),
            target=P("1"),
        )
        with pytest.raises(SimulationError):
            sos_to_pcplus(cert)


class TestPcplusToSosEps:
    def test_multiplication_case_identity(self):
        # axiom x2 = 0, then multiply by x1; eps = 1
        axioms = eqset(RATIONAL, [P("x2")])
        d = Derivation(
            "pc_plus",
            axioms,
            ((P("x2"), Axiom(0)), (P("x1*x2"), Mul(0, 1))),
        )
        cert = pcplus_to_sos_eps(d, 1)
        rep = check_sos(cert)
        assert rep.valid
        assert cert.target == P("1 - x1^2*x2^2")
        assert P("x2 - x1*x2") in cert.squares
        bools = dict(cert.bool_multipliers)
        assert bools[1] == P("-2*x2^2")
        assert rep.degree == 4

    def test_base_case(self):
        axioms = eqset(RATIONAL, [P("x1 + x2")])
        d = Derivation("pc_plus", axioms, ((P("x1 + x2"), Axiom(0)),))
        cert = pcplus_to_sos_eps(d, 1)
        assert dict(cert.multipliers)[0] == P("-x1 - x2")
        assert cert.constant == 1
        assert check_sos(cert).valid

    def test_addition_case(self):
        axioms = eqset(RATIONAL, [P("x1"), P("x2")])
        d = Derivation(
            "pc_plus",
            axioms,
            ((P("x1"), Axiom(0)), (P("x2"), Axiom(1)), (P("x1 + x2"), Add(0, 1, 1, 1))),
        )
        cert = pcplus_to_sos_eps(d, 1)
        assert check_sos(cert).valid
        assert cert.target == P("1 - x1^2 - 2*x1*x2 - x2^2")
        assert P("x1 - x2") in cert.squares

    def test_one_sided_addition(self):
        axioms = eqset(RATIONAL, [P("x1")])
        d = Derivation(
            "pc_plus",
            axioms,
            ((P("x1"), Axiom(0)), (P("3*x1"), Add(0, 0, 3, 0))),
        )
        cert = pcplus_to_sos_eps(d, Fraction(1, 2))
        assert check_sos(cert).valid
        assert cert.target == P("1/2 - 9*x1^2")

    def test_zero_line_and_zero_coefficient_additions(self):
        axioms = eqset(RATIONAL, [P("x1"), P("x2")])
        lines = ((P("x1"), Axiom(0)), (P("x2"), Axiom(1)))
        for last in [
            (P("0"), ZeroIntro()),
            (P("-2*x2"), Add(0, 1, 0, -2)),
            (P("0"), Add(0, 1, 0, 0)),
        ]:
            d = Derivation("pc_plus", axioms, lines + (last,))
            for eps in (1, Fraction(1, 3)):
                cert = pcplus_to_sos_eps(d, eps)
                assert check_sos(cert).valid
                assert cert.target == Polynomial.const(RATIONAL, eps) - last[0] * last[0]

    def test_radical_and_sos_cases(self):
        d = radical_sos_refutation()
        for eps in (1, Fraction(1, 2), Fraction(1, 7)):
            cert = pcplus_to_sos_eps(d, eps)
            rep = check_sos(cert)
            assert rep.valid
            assert cert.target == Polynomial.const(RATIONAL, Fraction(eps) - 1)

    def test_degree_independent_of_eps_and_at_most_doubled(self):
        d = radical_sos_refutation()
        in_degree = check_derivation(d).degree
        degrees = set()
        for eps in (1, Fraction(1, 2), Fraction(1, 7), Fraction(1, 100)):
            rep = check_sos(pcplus_to_sos_eps(d, eps))
            assert rep.valid
            degrees.add(rep.degree)
        assert len(degrees) == 1
        assert degrees.pop() <= 2 * in_degree

    def test_squares_distinct_up_to_scale(self):
        # the sum-of-squares step emits 2 (p*q)^2 as one square of weight 2
        for d in (radical_sos_refutation(), sos_to_pcplus(gen_fphp_sos(4, 3))):
            for eps in (Fraction(1, 2), Fraction(1, 7)):
                cert = pcplus_to_sos_eps(d, eps)
                assert check_sos(cert).valid
                assert len(cert.weights) == len(cert.squares)
                assert all(w > 0 for w in cert.weights)
                monic = {s.scale(1 / Fraction(s.sorted_terms()[0][1])) for s in cert.squares}
                assert len(monic) == len(cert.squares)

    def test_weights_deterministic(self):
        d = sos_to_pcplus(gen_fphp_sos(4, 3))
        assert pcplus_refutation_to_sos(d) == pcplus_refutation_to_sos(d)

    def test_rejects_bad_eps(self):
        d = radical_sos_refutation()
        with pytest.raises(SimulationError):
            pcplus_to_sos_eps(d, 0)


class TestRefutationToSos:
    def test_axiom_one(self):
        axioms = eqset(RATIONAL, [P("1")])
        d = Derivation("pc_plus", axioms, ((P("1"), Axiom(0)),))
        cert = pcplus_refutation_to_sos(d)
        assert dict(cert.multipliers)[0] == P("-2")
        assert cert.constant == 1
        rep = check_sos(cert)
        assert rep.valid and rep.refutation

    def test_degree_at_most_doubles(self):
        d = radical_sos_refutation()
        cert = pcplus_refutation_to_sos(d)
        rep = check_sos(cert)
        assert rep.valid and rep.refutation
        assert rep.degree <= 2 * check_derivation(d).degree

    def test_rejects_non_refutation(self):
        axioms = eqset(RATIONAL, [P("x1")])
        d = Derivation("pc_plus", axioms, ((P("x1"), Axiom(0)),))
        with pytest.raises(SimulationError):
            pcplus_refutation_to_sos(d)

    def test_invalid_refutation_is_rejected_by_the_replay(self):
        axioms = eqset(RATIONAL, [P("x1")])
        d = Derivation("pc_plus", axioms, ((P("1"), Axiom(0)),))
        with pytest.raises(SimulationError, match="does not verify"):
            pcplus_refutation_to_sos(d)

    def test_prime_field_is_unsupported(self):
        g = GF(7)
        axioms = eqset(g, [P("1", g)])
        d = Derivation("pc_plus", axioms, ((P("1", g), Axiom(0)),))
        for simulate in (pcplus_refutation_to_sos, lambda d: pcplus_to_sos_eps(d, 1)):
            with pytest.raises(UnsupportedConstruct):
                simulate(d)


def random_root(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        variables = sorted(rng.sample(range(1, 5), rng.randint(0, 3)))
        terms[tuple((v, rng.randint(1, 2)) for v in variables)] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


def radical_chain(ring, f, depth):
    """Derivation from the axiom f^(2^depth) down to f by depth radical steps."""
    powers = [f]
    for _ in range(depth):
        powers.append(powers[-1] * powers[-1])
    lines = [(powers[-1], Axiom(0))]
    lines += [(root, Radical(k)) for k, root in enumerate(reversed(powers[:-1]))]
    axioms = eqset(ring, [powers[-1]], boolean_axioms=True)
    return Derivation("pc_rad", axioms, tuple(lines)), powers[:-1]


def expansion_bound(root):
    return 2 * root.degree + len(root.variables())


class TestEliminateRadical:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_roots(self, p):
        g = GF(p)
        rng = random.Random(p)
        roots = [P(t, g) for t in ("x1^2 + x2", "2", "x1^2 - x1", "x1 + x2 + x3 + x4 + 1")]
        roots += [random_root(rng, g) for _ in range(12)]
        for k, f in enumerate(roots):
            d, radical_roots = radical_chain(g, f, 1 + k % 2)
            in_degree = check_derivation(d).degree
            out = eliminate_radical_char_p(d)
            rep = check_derivation(out)
            assert rep.valid and not rep.uses_radical, f.format()
            assert out.final_polynomial() == f
            assert rep.degree <= p * in_degree + 2
            # the axiom line aside, every line comes from one expansion
            assert rep.degree <= max([in_degree] + [expansion_bound(r) for r in radical_roots])

    @pytest.mark.parametrize(("p", "lines", "terms"), [(7, 673, 7179), (11, 670, 7137)])
    def test_subset_sum_output_size(self, p, lines, terms):
        out = eliminate_radical_char_p(gen_subset_sum(5, GF(p)).certificate)
        assert check_derivation(out).valid
        assert len(out.lines) == lines
        assert sum(len(poly.terms) for poly, _ in out.lines) == terms

    def test_largest_modulus(self):
        # h = ml(f^(p-2)) by square-and-multiply: 31 squarings, not 2^31 products
        out = eliminate_radical_char_p(gen_subset_sum(5, GF(2**31 - 1)).certificate)
        rep = check_derivation(out)
        assert rep.valid and rep.refutation and not rep.uses_radical

    def test_single_variable_gf3(self):
        g = GF(3)
        axioms = eqset(g, [P("x1^2", g)], boolean_axioms=True)
        d = Derivation(
            "pc_rad", axioms, ((P("x1^2", g), Axiom(0)), (P("x1", g), Radical(0)))
        )
        out = eliminate_radical_char_p(d)
        rep = check_derivation(out)
        assert rep.valid and not rep.uses_radical
        assert out.system == "pc"
        assert out.final_polynomial() == P("x1", g)
        assert rep.degree <= 3 * 2 + 2

    def test_two_monomials_gf3(self):
        g = GF(3)
        f = P("x1 + x2", g)
        axioms = eqset(g, [f * f], boolean_axioms=True)
        d = Derivation("pc_rad", axioms, ((f * f, Axiom(0)), (f, Radical(0))))
        out = eliminate_radical_char_p(d)
        rep = check_derivation(out)
        assert rep.valid and not rep.uses_radical
        assert out.final_polynomial() == f

    def test_nested_radicals_gf5(self):
        g = GF(5)
        f = P("x1 + 2*x2", g)
        f2 = f * f
        axioms = eqset(g, [f2 * f2], boolean_axioms=True)
        d = Derivation(
            "pc_rad",
            axioms,
            ((f2 * f2, Axiom(0)), (f2, Radical(0)), (f, Radical(1))),
        )
        in_degree = check_derivation(d).degree
        out = eliminate_radical_char_p(d)
        rep = check_derivation(out)
        assert rep.valid and not rep.uses_radical
        assert out.final_polynomial() == f
        assert rep.degree <= 5 * in_degree + 2

    def test_no_radicals_passthrough(self):
        g = GF(3)
        axioms = eqset(g, [P("x1", g)], boolean_axioms=True)
        d = Derivation(
            "pc_rad", axioms, ((P("x1", g), Axiom(0)), (P("x1^2", g), Mul(0, 1)))
        )
        out = eliminate_radical_char_p(d)
        assert [line for line, _ in out.lines] == [line for line, _ in d.lines]

    def test_requires_gf_and_booleans(self):
        axioms = eqset(RATIONAL, [P("x1^2")], boolean_axioms=True)
        d = Derivation(
            "pc_rad", axioms, ((P("x1^2"), Axiom(0)), (P("x1"), Radical(0)))
        )
        with pytest.raises(UnsupportedConstruct):
            eliminate_radical_char_p(d)
        g = GF(3)
        axioms = eqset(g, [P("x1^2", g)])
        d = Derivation(
            "pc_rad", axioms, ((P("x1^2", g), Axiom(0)), (P("x1", g), Radical(0)))
        )
        with pytest.raises(UnsupportedConstruct):
            eliminate_radical_char_p(d)

    def test_radical_of_zero_line(self):
        g = GF(3)
        axioms = eqset(g, [P("0", g)], boolean_axioms=True)
        d = Derivation(
            "pc_rad", axioms, ((P("0", g), Axiom(0)), (P("0", g), Radical(0)))
        )
        out = eliminate_radical_char_p(d)
        assert check_derivation(out).valid


class TestRoundTrip:
    def test_sos_pcplus_sos(self):
        cert = fphp21_certificate()
        d = sos_to_pcplus(cert)
        back = pcplus_refutation_to_sos(d)
        rep = check_sos(back)
        assert rep.valid and rep.refutation
        assert rep.degree <= 4
