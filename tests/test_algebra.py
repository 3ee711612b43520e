import random
from fractions import Fraction

import pytest

from pcsos.algebra import (
    GF,
    MINUS_INF,
    RATIONAL,
    AlgebraError,
    Monomial,
    PolyParseError,
    Polynomial,
    eqset,
    four_square,
    parse_poly,
)


def P(text, ring=RATIONAL):
    return parse_poly(text, ring)


# (text, ring, str(error), error.position) for malformed polynomial text,
# pinned from the character-at-a-time reader this one replaced
MALFORMED = [
    ("", RATIONAL, "expected a term (at position 0)", 0),
    ("   ", RATIONAL, "expected a term (at position 3)", 3),
    ("-", RATIONAL, "expected a term (at position 1)", 1),
    ("x1 - ", RATIONAL, "expected a term (at position 5)", 5),
    ("x", RATIONAL, "expected a number (at position 1)", 1),
    ("x1*x", RATIONAL, "expected a number (at position 4)", 4),
    ("x1 ^ ", RATIONAL, "expected a number (at position 5)", 5),
    ("2*x1^y", RATIONAL, "expected a number (at position 5)", 5),
    ("1/", RATIONAL, "expected a number (at position 2)", 2),
    ("3/x1", RATIONAL, "expected a number (at position 2)", 2),
    ("1/0", RATIONAL, "zero denominator (at position 0)", 0),
    ("x1 + 2 / 0 * x2", RATIONAL, "zero denominator (at position 5)", 5),
    ("1/3", GF(3), "1/3 has no inverse modulo 3 (at position 0)", 0),
    ("x1 + 6/9*x2", GF(3), "2/3 has no inverse modulo 3 (at position 5)", 5),
    ("x1 @ x2", RATIONAL, "unexpected character '@' (at position 3)", 3),
    ("1 22", RATIONAL, "unexpected character '2' (at position 2)", 2),
    ("x1 x2", RATIONAL, "unexpected character 'x' (at position 3)", 3),
    ("x1^2^3", RATIONAL, "unexpected character '^' (at position 4)", 4),
    ("x1 ²", RATIONAL, "unexpected character '²' (at position 3)", 3),
    ("y1", RATIONAL, "expected a variable like x1 (at position 0)", 0),
    ("--x1", RATIONAL, "expected a variable like x1 (at position 1)", 1),
    ("x1 + - x2", RATIONAL, "expected a variable like x1 (at position 5)", 5),
    ("+x1", RATIONAL, "expected a variable like x1 (at position 0)", 0),
    ("x1*", RATIONAL, "expected a variable like x1 (at position 3)", 3),
    ("2*", RATIONAL, "expected a variable like x1 (at position 2)", 2),
    ("x1 * ", RATIONAL, "expected a variable like x1 (at position 5)", 5),
    ("1*2", RATIONAL, "expected a variable like x1 (at position 2)", 2),
    ("x1 +\t@", RATIONAL, "expected a variable like x1 (at position 5)", 5),
]


class TestParsing:
    def test_direct_reading(self):
        p = P("x1^2 - x1")
        assert p.terms == {Monomial({1: 2}): Fraction(1), Monomial({1: 1}): Fraction(-1)}

    def test_characteristic_three_cancellation(self):
        assert P("2*x1 + x1", GF(3)).is_zero

    def test_non_invertible_denominator(self):
        with pytest.raises(PolyParseError):
            P("1/3*x1", GF(3))

    def test_positions_in_errors(self):
        with pytest.raises(PolyParseError) as err:
            P("x1 + @")
        assert err.value.position == 5

    @pytest.mark.parametrize("text, ring, message, position", MALFORMED)
    def test_malformed_message_and_position(self, text, ring, message, position):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, ring)
        assert (str(err.value), err.value.position) == (message, position)

    def test_digits_are_ascii(self):
        # "²" and "٣" pass str.isdigit; neither is a digit of the grammar
        for text, position in [("x²", 1), ("x1^²", 3), ("²", 0), ("x٣", 1), ("1/²", 2)]:
            with pytest.raises(PolyParseError) as err:
                P(text)
            assert err.value.position == position

    def test_number_past_digit_limit(self):
        with pytest.raises(PolyParseError) as err:
            P("x1 + x" + "1" * 5000)
        assert err.value.position == 6

    def test_whitespace_between_any_two_tokens(self):
        assert P("x 1") == P("x1")
        assert P(" 1 / 2 * x3 ") == P("1/2*x3")
        assert P("-\tx1 ^ 2\n+ x2 * x1") == P("-x1^2 + x1*x2")
        assert P("x1\u00a0+\u2003x2") == P("x1 + x2")

    def test_cancelled_terms_drop(self):
        assert P("x1 - x1").is_zero
        assert P("x1 + x2 - x1") == P("x2")
        assert P("1/2*x1 + 1/2*x1 - x1 + 3") == P("3")
        assert P("x1 + x1 + x1", GF(3)).is_zero
        assert P("0*x1 + 0") == Polynomial.zero(RATIONAL)

    def test_fuzz_parse_or_parse_error(self):
        # any string is a polynomial or a PolyParseError, and accepted text
        # round-trips through format()
        rng = random.Random(2024)
        alphabet = "x0123456789+-*/^ \t@²"
        accepted = 0
        for ring in (RATIONAL, GF(3)):
            for _ in range(4000):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(14)))
                try:
                    p = parse_poly(text, ring)
                except PolyParseError:
                    continue
                accepted += 1
                assert isinstance(p, Polynomial)
                assert parse_poly(p.format(), ring) == p
        assert accepted > 200

    def test_repeated_factor_merges(self):
        assert P("x1*x1") == P("x1^2")

    def test_gf_coefficients_reduced(self):
        assert P("5*x1", GF(3)) == P("2*x1", GF(3))
        assert P("1/2", GF(5)) == P("3", GF(5))

    def test_format_parse_round_trip(self):
        rng = random.Random(7)
        for ring in (RATIONAL, GF(5)):
            for _ in range(200):
                p = _random_poly(rng, ring)
                assert parse_poly(p.format(), ring) == p

    def test_zero_formats_as_zero(self):
        assert Polynomial.zero(RATIONAL).format() == "0"
        assert P("0") == Polynomial.zero(RATIONAL)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("x1 + 1") * P("x1 - 1") == P("x1^2 - 1")

    def test_characteristic_addition(self):
        assert (P("2*x1", GF(3)) + P("x1", GF(3))).is_zero

    def test_inverse_scaling(self):
        assert P("1/2*x1").scale(2) == P("x1")

    def test_ring_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            P("x1") + P("x1", GF(3))

    def test_ring_laws_sampled(self):
        # commutativity / associativity / distributivity, >= 1000 triples per ring
        for ring, seed in ((RATIONAL, 1), (GF(7), 2)):
            rng = random.Random(seed)
            for _ in range(1000):
                a, b, c = (_random_poly(rng, ring, max_terms=3) for _ in range(3))
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_integral_domain_degree_law(self):
        for ring, seed in ((RATIONAL, 3), (GF(13), 4)):
            rng = random.Random(seed)
            for _ in range(300):
                p, q = _random_poly(rng, ring), _random_poly(rng, ring)
                if p.is_zero or q.is_zero:
                    continue
                assert (p * q).degree == p.degree + q.degree

    def test_zero_degree_sentinel(self):
        assert Polynomial.zero(RATIONAL).degree == MINUS_INF
        assert Polynomial.zero(RATIONAL).degree < 0


class TestEvaluation:
    def test_boolean_root(self):
        assert P("x1^2 - x1").evaluate({1: 1}) == 0

    def test_affine(self):
        assert P("x1 + x2 + 1").evaluate({1: 0, 2: 0}) == 1

    def test_square_of_two(self):
        p = P("x1 + x2 + 1")
        assert (p * p).evaluate({1: 1, 2: 0}) == 4

    def test_missing_variable(self):
        with pytest.raises(AlgebraError):
            P("x1 + x2").evaluate({1: 0})


class TestMultilinearize:
    def test_exponent_collapse(self):
        assert P("x1^2*x2").multilinearize() == P("x1*x2")

    def test_already_multilinear(self):
        assert P("x1 + 1").multilinearize() == P("x1 + 1")

    def test_merge_after_collapse(self):
        assert P("x1^3 + x1^2").multilinearize() == P("2*x1")

    def test_idempotent_and_value_preserving(self):
        rng = random.Random(11)
        for _ in range(50):
            p = _random_poly(rng, RATIONAL, max_var=4, max_exp=3)
            ml = p.multilinearize()
            assert ml.multilinearize() == ml
            for bits in range(16):
                point = {v: (bits >> v) & 1 for v in range(4)}
                assert ml.evaluate(point) == p.evaluate(point)


class TestEquationSets:
    def test_singleton_product(self):
        prod = eqset(RATIONAL, [P("x1")]).product(eqset(RATIONAL, [P("x2")]))
        assert list(prod) == [P("x1*x2")]

    def test_product_distributes_over_union(self):
        Pset = eqset(RATIONAL, [P("x1")])
        Q = eqset(RATIONAL, [P("x2")])
        S = eqset(RATIONAL, [P("x3")])
        left = Pset.product(Q.union(S))
        right = Pset.product(Q).union(Pset.product(S))
        assert list(left) == [P("x1*x2"), P("x1*x3")] == list(right)

    def test_empty_left_factor(self):
        assert len(eqset(RATIONAL, []).product(eqset(RATIONAL, [P("x1")]))) == 0

    def test_product_satisfaction_semantics(self):
        rng = random.Random(23)
        for _ in range(30):
            nvars = 4
            A = eqset(RATIONAL, [_random_poly(rng, RATIONAL, max_var=nvars) for _ in range(2)])
            B = eqset(RATIONAL, [_random_poly(rng, RATIONAL, max_var=nvars) for _ in range(2)])
            prod = A.product(B)
            for bits in range(2**nvars):
                point = {v: (bits >> v) & 1 for v in range(nvars)}
                want = A.vanishes_at(point) or B.vanishes_at(point)
                assert prod.vanishes_at(point) == want

    def test_canonical_dedup(self):
        s = eqset(RATIONAL, [P("x1"), P("x1"), P("x2")])
        assert list(s.canonical()) == [P("x1"), P("x2")]


class TestFourSquare:
    def test_one(self):
        assert four_square(1) == (1, 0, 0, 0)

    def test_seven(self):
        assert four_square(7) == (2, 1, 1, 1)

    def test_half(self):
        assert four_square(Fraction(1, 2)) == (Fraction(1, 2), Fraction(1, 2), 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(AlgebraError):
            four_square(-1)

    def test_exact_sum(self):
        rng = random.Random(5)
        for _ in range(200):
            q = Fraction(rng.randrange(0, 500), rng.randrange(1, 40))
            parts = four_square(q)
            assert sum(a * a for a in parts) == q


def _random_poly(rng, ring, max_terms=4, max_var=3, max_exp=2):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = Monomial(
            {rng.randrange(max_var): rng.randrange(1, max_exp + 1) for _ in range(rng.randrange(0, 3))}
        )
        if ring.is_rational:
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        else:
            coeff = rng.randrange(ring.p)
        terms[mono] = coeff
    return Polynomial(ring, terms)
