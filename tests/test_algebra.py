import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from pcsos.algebra import (
    GF,
    MINUS_INF,
    RATIONAL,
    AlgebraError,
    PolyParseError,
    Polynomial,
    eqset,
    expand,
    merge_exps,
    parse_poly,
)
from pcsos.fol import member_products


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
        assert p.terms == {((1, 2),): Fraction(1), ((1, 1),): Fraction(-1)}

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

    def test_malformed_corpus_is_pinned(self):
        # (message, position) of 2,000 one-character edits of formatted
        # text, pinned from the tokenizer that read x and its index apart
        corpus = _malformed_corpus()
        assert len(corpus) == 2000
        digest = hashlib.sha256(json.dumps(corpus).encode()).hexdigest()
        assert digest == "a0d9ff9e0aa630525f77e3ce4b52d37938ea9d43330d156c0b57c19c61c922bb"

    def test_round_trip_with_whitespace_between_tokens(self):
        rng = random.Random(28)
        spaces = ("", "", " ", "\t", "\n ", "\u00a0")
        for ring in (RATIONAL, GF(7)):
            for _ in range(500):
                p = _corpus_poly(rng, ring)
                # x and its index are two tokens here, so "x 12" is tried too
                tokens = re.findall(r"[0-9]+|\S", p.format())
                text = "".join(rng.choice(spaces) + t for t in tokens) + rng.choice(spaces)
                assert parse_poly(text, ring) == p, text

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
        with pytest.raises(AlgebraError, match=r"^assignment missing variables \[2\]$"):
            P("x1 + x2").evaluate({1: 0})
        with pytest.raises(AlgebraError, match=r"^assignment missing variables \[1, 3\]$"):
            P("x3^2*x1 + x2 + 1").evaluate({2: 0, 4: 1})


class TestMultilinearize:
    def test_exponent_collapse(self):
        assert P("x1^2*x2").multilinearize() == P("x1*x2")

    def test_already_multilinear(self):
        assert P("x1 + 1").multilinearize() == P("x1 + 1")

    def test_merge_after_collapse(self):
        assert P("x1^3 + x1^2").multilinearize() == P("2*x1")

    def test_merged_integral_coefficient_is_an_int(self):
        (coeff,) = P("1/2*x1^2 + 1/2*x1").multilinearize().terms.values()
        assert coeff == 1 and type(coeff) is int

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
    # the product translation of member lists, as fol.member_products builds it
    def test_singleton_product(self):
        assert member_products([[P("x1")], [P("x2")]], RATIONAL) == (P("x1*x2"),)

    def test_product_distributes_over_union(self):
        p, q, s = [P("x1")], [P("x2")], [P("x3")]
        left = member_products([p, q + s], RATIONAL)
        right = member_products([p, q], RATIONAL) + member_products([p, s], RATIONAL)
        assert list(left) == [P("x1*x2"), P("x1*x3")] == list(right)

    def test_empty_left_factor(self):
        assert len(member_products([[], [P("x1")]], RATIONAL)) == 0

    def test_product_satisfaction_semantics(self):
        rng = random.Random(23)
        for _ in range(30):
            nvars = 4
            A = eqset(RATIONAL, [_random_poly(rng, RATIONAL, max_var=nvars) for _ in range(2)])
            B = eqset(RATIONAL, [_random_poly(rng, RATIONAL, max_var=nvars) for _ in range(2)])
            prod = eqset(RATIONAL, member_products([A.members, B.members], RATIONAL))
            for bits in range(2**nvars):
                point = {v: (bits >> v) & 1 for v in range(nvars)}
                want = A.vanishes_at(point) or B.vanishes_at(point)
                assert prod.vanishes_at(point) == want


class TestExpand:
    """expand against a naive reference that multiplies every product and
    every weighted square out term by term with its own dict loop, not with
    *, since Polynomial.__mul__ calls expand."""

    WEIGHTS = (1, 2, 5, Fraction(6, 2), Fraction(1, 3), Fraction(7, 4))

    @staticmethod
    def naive(ring, products, squares):
        acc = {}
        for a, b, w in [(a, b, 1) for a, b in products] + [(s, s, w) for s, w in squares]:
            for m1, c1 in a.terms.items():
                for m2, c2 in b.terms.items():
                    exps = dict(m1)
                    for v, e in m2:
                        exps[v] = exps.get(v, 0) + e
                    m = tuple(sorted(exps.items()))
                    acc[m] = acc.get(m, 0) + Fraction(w) * c1 * c2
        return Polynomial(ring, acc)

    @staticmethod
    def canonical(ring, poly):
        if ring.is_rational:
            return all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in poly.terms.values())
        return all(type(c) is int and 0 < c < ring.p for c in poly.terms.values())

    def random_squares(self, rng, ring):
        """Squares drawn from a small pool, so that they repeat, share
        monomials, and come negated, zero and constant."""
        pool = [_random_poly(rng, ring, max_terms=5) for _ in range(3)]
        weighted = []
        for _ in range(rng.randrange(0, 7)):
            s = rng.choice(pool)
            kind = rng.randrange(5)
            if kind == 1:
                s = -s
            elif kind == 2:
                s = s + rng.choice(pool)
            elif kind == 3:
                s = Polynomial.const(ring, rng.choice([0, 1, -2, Fraction(5, 2)]))
            elif kind == 4:
                s = s.scale(Fraction(rng.randrange(1, 5), rng.randrange(1, 5)))
            weighted.append((s, rng.choice(self.WEIGHTS)))
        return weighted

    @staticmethod
    def random_factor(rng, ring):
        """A zero, constant, single-term or multi-term factor."""
        kind = rng.randrange(4)
        if kind == 0:
            return Polynomial.zero(ring)
        if kind == 1:
            return Polynomial.const(ring, rng.choice([1, -1, 3, Fraction(-5, 2)]))
        if kind == 2:
            return Polynomial(ring, {((rng.randrange(4), rng.randrange(1, 3)),): rng.choice([1, -2, Fraction(3, 4)])})
        return _random_poly(rng, ring, max_terms=6, max_var=4)

    def test_matches_the_plain_sum(self):
        for ring, seed in ((RATIONAL, 5), (GF(7), 6), (GF(2**31 - 1), 7)):
            rng = random.Random(seed)
            for _ in range(400):
                products = [
                    (self.random_factor(rng, ring), self.random_factor(rng, ring))
                    for _ in range(rng.randrange(0, 5))
                ]
                squares = self.random_squares(rng, ring)
                got = expand(ring, products, squares)
                assert got == self.naive(ring, products, squares), (products, squares)
                assert self.canonical(ring, got)

    def test_fixed_cases(self):
        x1, x2 = P("x1"), P("x2")
        zero, one = Polynomial.zero(RATIONAL), Polynomial.const(RATIONAL, 1)
        cases = [
            ([], [], zero),
            ([], [(zero, 3)], zero),
            ([], [(one, Fraction(1, 2)), (P("-2"), 1)], P("9/2")),
            ([], [(x1 + x2, Fraction(1, 2)), (x1 - x2, Fraction(1, 2))], P("x1^2 + x2^2")),
            ([], [(x1 + x2, 1), (-x1 - x2, 1)], P("2*x1^2 + 4*x1*x2 + 2*x2^2")),
            ([], [(P("1/2*x1 + 1/3"), 36)], P("9*x1^2 + 12*x1 + 4")),
            ([(x1 + x2, x1 - x2), (zero, x1)], [], P("x1^2 - x2^2")),
            ([(P("2/3"), P("3/2*x1 + 3"))], [], P("x1 + 2")),
            ([(x1 + x2, P("-1/2*x1")), (P("-1"), P("1/2*x2^2"))], [(P("x1 + x2"), Fraction(1, 2))], P("1/2*x1*x2")),
        ]
        for products, squares, want in cases:
            got = expand(RATIONAL, products, squares)
            assert got == want == self.naive(RATIONAL, products, squares)
            assert self.canonical(RATIONAL, got)

    def test_ring_mismatch_rejected(self):
        g = P("x1", GF(3))
        for products, squares in (([(g, P("x1"))], []), ([(P("x1"), g)], []), ([], [(g, 1)])):
            with pytest.raises(AlgebraError, match="ring mismatch"):
                expand(RATIONAL, products, squares)


class TestArithmeticAgainstDictLoops:
    """+, -, unary -, scale and the single-term branch of * against a plain
    dict loop handed to the constructor: the same terms in the same order,
    with the same coefficient types (an integral Fraction equals its int,
    so the types are compared apart)."""

    RINGS = ((RATIONAL, 41), (GF(7), 42), (GF(2**31 - 1), 43))
    FACTORS = (0, 1, -1, 6, 2**31 + 5, Fraction(2, 3), Fraction(-8, 4))

    @staticmethod
    def same(got, want):
        assert list(got.terms.items()) == list(want.terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]

    @staticmethod
    def merged(m1, m2):
        exps = dict(m1)
        for v, e in m2:
            exps[v] = exps.get(v, 0) + e
        return tuple(sorted(exps.items()))

    def random_single_term(self, rng, ring):
        mono = rng.choice([(), ((1, 1),), ((0, 2), (3, 1))])
        return Polynomial(ring, {mono: rng.choice([1, -1, 3, Fraction(1, 2), Fraction(-5, 3)])})

    def test_matches_the_dict_loops(self):
        for ring, seed in self.RINGS:
            rng = random.Random(seed)
            for _ in range(300):
                a, b = (_random_poly(rng, ring, max_terms=8) for _ in range(2))
                if rng.randrange(3) == 0:  # shared monomials, some of which cancel
                    b = b + a.scale(rng.choice([-1, Fraction(-1, 2), 3]))
                for op, sign in ((a + b, 1), (a - b, -1)):
                    acc = dict(a.terms)
                    for m, c in b.terms.items():
                        acc[m] = acc.get(m, 0) + sign * c
                    self.same(op, Polynomial(ring, acc))
                self.same(-a, Polynomial(ring, {m: -c for m, c in a.terms.items()}))
                for f in self.FACTORS:
                    self.same(a.scale(f), Polynomial(ring, {m: c * f for m, c in a.terms.items()}))
                t = self.random_single_term(rng, ring)
                ((m1, c1),) = t.terms.items()
                want = Polynomial(ring, {self.merged(m1, m): c1 * c for m, c in a.terms.items()})
                for product in (t * a, a * t):
                    self.same(product, want)

    def random_factor(self, rng, ring, constant_term):
        """A constant, or a polynomial with or without a constant term."""
        if rng.randrange(4) == 0:
            return Polynomial.const(ring, rng.choice([1, -1, 2, Fraction(-5, 2)]))
        p = _random_poly(rng, ring, max_terms=6, max_var=4)
        return p + Polynomial.const(ring, rng.choice([1, -3, Fraction(2, 3)])) if constant_term else p

    def test_expand_products_match_the_dict_loop(self):
        # a factor's constant term, on either side, scales the other factor
        # without a merge; the terms, their order and types do not change
        for ring, seed in self.RINGS:
            rng = random.Random(seed + 100)
            for _ in range(300):
                products = [
                    (self.random_factor(rng, ring, rng.randrange(2)), self.random_factor(rng, ring, rng.randrange(2)))
                    for _ in range(rng.randrange(1, 4))
                ]
                acc = {}
                for a, b in products:
                    for m1, c1 in a.terms.items():
                        for m2, c2 in b.terms.items():
                            m = merge_exps(m1, m2)
                            acc[m] = acc.get(m, 0) + c1 * c2
                self.same(expand(ring, products), Polynomial(ring, acc))

    def test_scale_by_one_is_the_polynomial(self):
        for ring, _ in self.RINGS:
            p = P("x1 + 2*x2", ring)
            assert p.scale(1) is p
            assert p.scale(Fraction(3, 3)) is p
            assert Polynomial.const(ring, 1) * p is p


def _random_poly(rng, ring, max_terms=4, max_var=3, max_exp=2):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = {rng.randrange(max_var): rng.randrange(1, max_exp + 1) for _ in range(rng.randrange(0, 3))}
        mono = tuple(sorted(exps.items()))
        if ring.is_rational:
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        else:
            coeff = rng.randrange(ring.p)
        terms[mono] = coeff
    return Polynomial(ring, terms)


EDIT_ALPHABET = "x0123456789+-*/^ \t@²"


def _corpus_poly(rng, ring):
    """Up to four terms over variables below 400, exponents 1, 2 or 13."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        variables = sorted(rng.sample(range(400), rng.randint(0, 3)))
        terms[tuple((v, rng.choice((1, 1, 2, 13))) for v in variables)] = Fraction(
            rng.randint(-150, 150), rng.choice((1, 1, 2, 3, 10))
        )
    return Polynomial(ring, terms)


def _one_edit(rng, text):
    """text with one character of EDIT_ALPHABET inserted, one character
    deleted, or one replaced by a character of EDIT_ALPHABET."""
    kind, c = rng.randrange(3), rng.choice(EDIT_ALPHABET)
    if kind == 0:
        k = rng.randint(0, len(text))
        return text[:k] + c + text[k:]
    k = rng.randrange(len(text))
    return text[:k] + ("" if kind == 1 else c) + text[k + 1 :]


def _malformed_corpus():
    """[str(error), position] of the first 1,000 edits that fail to parse,
    over Q and then over GF(7)."""
    rng = random.Random(27)
    out = []
    for ring in (RATIONAL, GF(7)):
        found = 0
        while found < 1000:
            text = _one_edit(rng, _corpus_poly(rng, ring).format())
            try:
                parse_poly(text, ring)
            except PolyParseError as exc:
                out.append([str(exc), exc.position])
                found += 1
    return out
