import hashlib
import json
import random
from collections import deque
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from pcsos.algebra import GF, RATIONAL, Polynomial, eqset, graded_lex_key, merge_exps, parse_poly
from pcsos.degsearch import ClosureTooLarge, extract_derivation, pc_closure
from pcsos.families import gen_chain, gen_fphp, gen_subset_sum
from pcsos.proofcheck import DerivationBuilder, check_derivation, derivation_to_json


def P(text, ring=RATIONAL):
    return parse_poly(text, ring)


def sum_plus_one(n, ring=RATIONAL):
    poly = Polynomial.const(ring, 1)
    for v in range(1, n + 1):
        poly = poly + Polynomial.variable(ring, v)
    return poly


def bool_plus_square(n):
    members = [P(f"x{v}^2 - x{v}") for v in range(1, n + 1)]
    ell = sum_plus_one(n)
    return eqset(RATIONAL, members + [ell * ell])


class TestClosure:
    def test_refutable_at_degree_one(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1"), P("1 - x1")]), 1)
        assert basis.contains(P("1"))

    def test_x_not_in_ideal_of_x_squared(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1^2")]), 2)
        assert not basis.contains(P("x1"))
        assert basis.contains(P("x1^2")) and basis.contains(P("x1^3 - x1^2")) is False

    def test_chain_two_refutable_at_degree_two(self):
        # chain equations x_i (1 - x_{i+1})
        eqs = eqset(RATIONAL, [P("x0 - 1"), P("x0 - x0*x1"), P("x1 - x1*x2"), P("x2")])
        basis = pc_closure(eqs, 2)
        assert basis.contains(P("1"))

    def test_fixpoint_idempotent(self):
        eqs = eqset(RATIONAL, [P("x1 + x2"), P("x1*x2 - 1")])
        basis = pc_closure(eqs, 3)
        again = pc_closure(eqset(RATIONAL, [row.poly for row in basis.rows]), 3)
        assert again.span_dimension() == basis.span_dimension()
        for row in basis.rows:
            assert again.contains(row.poly)
        for row in again.rows:
            assert basis.contains(row.poly)

    def test_soundness_at_known_solution(self):
        # satisfiable: x1=1, x2=0
        eqs = eqset(RATIONAL, [P("x1 - 1"), P("x2"), P("x1*x2")], boolean_axioms=True)
        basis = pc_closure(eqs, 3)
        for row in basis.rows:
            assert row.poly.evaluate({1: 1, 2: 0}) == 0

    def test_gf_closure(self):
        g = GF(3)
        basis = pc_closure(eqset(g, [P("x1 + 1", g), P("x1 + 2", g)]), 1)
        assert basis.contains(P("1", g))

    def test_subset_sum_eleven_at_degree_five(self):
        # integer rows stay small: the growth bound observed at larger scale is 16 bits
        basis = pc_closure(gen_subset_sum(11, refutation_cap=0).equations, 5)
        assert (basis.span_dimension(), len(basis.rows)) == (3576, 232)
        assert not basis.contains(sum_plus_one(11))
        _assert_normalised(basis)
        assert max(abs(c).bit_length() for row in basis.rows for c in row.vec.values()) <= 16

    def test_memory_guard(self):
        eqs = eqset(RATIONAL, [sum_plus_one(40)])
        with pytest.raises(ClosureTooLarge):
            pc_closure(eqs, 10, monomial_cap=1000)


class TestSpanDimension:
    """Dimensions of the benchmark families' closures, pinned so that any
    change to how rows are stored must leave the span itself unchanged."""

    @pytest.mark.parametrize(
        "n, dim", [(10, 78), (20, 253), (30, 528), (40, 903), (50, 1378), (60, 1953)]
    )
    def test_chain(self, n, dim):
        eqs = gen_chain(n, with_proofs=False).equations
        assert pc_closure(eqs, 2).span_dimension() == dim

    @pytest.mark.parametrize("m, n, d, dim", [(3, 2, 2, 28), (4, 3, 3, 455)])
    def test_fphp(self, m, n, d, dim):
        assert pc_closure(gen_fphp(m, n).equations, d).span_dimension() == dim

    @pytest.mark.parametrize(
        "n, d, dim", [(10, 4, 671), (10, 3, 121), (12, 3, 169), (14, 3, 225), (20, 3, 441)]
    )
    def test_subset_sum(self, n, d, dim):
        eqs = gen_subset_sum(n, refutation_cap=0).equations
        assert pc_closure(eqs, d).span_dimension() == dim


def _fractional_system(boolean_axioms):
    texts = ["1/2*x1 - 1/3", "2/3*x1*x2 - 1/5*x2 + 1/7", "3/4*x2*x3 - 2/9*x3", "5/6*x3 - 1/2"]
    return eqset(RATIONAL, [P(t) for t in texts], boolean_axioms)


class TestExtractionBytes:
    """sha256 of the compact JSON of extract_derivation(pc_closure(eqs, d), 1),
    with the closure's row count and dimension, captured while rows were
    still kept over the coefficient field: how rows are scaled must not
    reach a single extracted byte."""

    CASES = [
        pytest.param(partial(gen_chain, n, with_proofs=False), 2, rows, rows, digest, id=f"chain-{n}")
        for n, rows, digest in (
            (10, 78, "31f58e5f7390cc20c21820abd7c1c234b0b9ea2351af358bc42b84b2142c7f20"),
            (20, 253, "8a9d2b803c8aedbf4305afe8b38ff2263724c6c9b103813c3f0b165bddb1d743"),
            (30, 528, "c63120b0991f35bba50e07ddef222efb18efbf071ca0e6df75093ff2134f7c88"),
            (40, 903, "2bb7d90abeb1190e5d33b785f4a13f9512abbf161e265f6a147585667d6dcf72"),
            (50, 1378, "286b4d3a2fa7c802bda3006639366f192edf1925f5a616b4d35a5e6b4b6b0c23"),
            (60, 1953, "7810bf9140cad1448490eba395818c78739a202006f76b6e15733e3c7818e438"),
        )
    ] + [
        pytest.param(family, d, rows, dim, digest, id=name)
        for name, family, d, rows, dim, digest in (
            ("fphp-3-2", partial(gen_fphp, 3, 2), 2, 22, 28,
             "32e85762ec5923817f2b5a4b879f61808ef6c2deb7ada2adf6e69a5f8a060602"),
            ("fphp-4-3", partial(gen_fphp, 4, 3), 3, 299, 455,
             "3b5607c74d71d2ac27a020249798273f4d0f84b5c3588f19ad87395b724a9ac0"),
            ("fphp-4-3-gf101", partial(gen_fphp, 4, 3, GF(101)), 3, 299, 455,
             "cd828d784b8d82ad175cc40cf8da1493af3a7870cc2fa98a2a0e2cfac3c34c66"),
            ("fractional", partial(_fractional_system, False), 2, 10, 10,
             "5200ab836bd396d72b3fe1df6226b40047f6788a8ecd8084c275faaeea2f0833"),
            ("fractional-boolean", partial(_fractional_system, True), 3, 8, 20,
             "fd28c34c036c5b10ca22b197cbdc922d628ade34942c26a9acf90f52ac2d7512"),
        )
    ]

    @pytest.mark.parametrize("system, d, rows, dim, digest", CASES)
    def test_refutation_bytes(self, system, d, rows, dim, digest):
        instance = system()
        eqs = getattr(instance, "equations", instance)
        basis = pc_closure(eqs, d)
        assert (len(basis.rows), basis.span_dimension()) == (rows, dim)
        derivation = extract_derivation(basis, Polynomial.const(eqs.ring, 1))
        assert check_derivation(derivation).refutation
        text = json.dumps(derivation_to_json(derivation), separators=(",", ":"), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class DenseClosure:
    """Reference degree-d closure over every monomial of degree <= d, with
    the Boolean axioms as rows: an echelon basis of {monomial: coeff} rows
    keyed by lead monomial, built apart from pc_closure's columns, shift
    tables and normal forms."""

    def __init__(self, eqs, d):
        ring = self.ring = eqs.ring
        variables = sorted(eqs.variables())
        monomials = {()}
        for _ in range(d):
            monomials |= {merge_exps(m, ((v, 1),)) for m in monomials for v in variables}
        self.rank = {m: r for r, m in enumerate(sorted(monomials, key=graded_lex_key))}
        self.pivots = {}  # lead monomial -> row
        queue = deque(dict(p.terms) for p in eqs if not p.is_zero and p.degree <= d)
        if eqs.boolean_axioms and d >= 2:
            queue += [{((v, 2),): 1, ((v, 1),): ring.coerce(-1)} for v in variables]
        while queue:
            row = self._reduce(queue.popleft())
            if row:
                lead = min(row, key=self.rank.__getitem__)
                self.pivots[lead] = row
                if sum(e for _, e in lead) < d:
                    queue += [{merge_exps(m, ((v, 1),)): c for m, c in row.items()} for v in variables]

    def _reduce(self, vec):
        ring = self.ring
        while vec:
            lead = min(vec, key=self.rank.__getitem__)
            row = self.pivots.get(lead)
            if row is None:
                break
            factor = ring.coerce(vec[lead] * ring.inv(row[lead]))
            for m, c in row.items():
                value = ring.coerce(vec.get(m, 0) - factor * c)
                if value:
                    vec[m] = value
                else:
                    del vec[m]
        return vec

    def contains(self, p):
        return all(m in self.rank for m in p.terms) and not self._reduce(dict(p.terms))

    def rows(self):
        return [Polynomial(self.ring, row) for row in self.pivots.values()]


def _queries(eqs, d):
    """Members, the linear form 1 + x1 + ... + xn and products of it, with
    squares and cubes mixed in; every query has degree <= d + 1."""
    ring = eqs.ring
    variables = sorted(eqs.variables())
    one = Polynomial.const(ring, 1)
    ell = Polynomial.sum(ring, [one] + [Polynomial.variable(ring, v) for v in variables])
    x, y = (Polynomial.variable(ring, v) for v in variables[:2])
    out = [one, ell, ell * ell, ell * x, ell * x * x, x * x, x * x - x, x * x * x - x]
    out += [x * x * y - x * y + one]
    out += [x * x * y + y * y - x, ell * (x * x - y), ell * x * y - x * y * y]
    out += [p * x for p in eqs] + [p * x * x - p * y for p in eqs] + list(eqs)
    return [q for q in out if q.degree <= d + 1]


CROSS_CHECK = [
    pytest.param(partial(gen_subset_sum, n, refutation_cap=0), d, id=f"subset-sum-{n}-d{d}")
    for n in (4, 6, 8)
    for d in range(n // 2 + 2)
] + [
    pytest.param(partial(gen_fphp, m, n), d, id=f"fphp-{m}-{n}-d{d}")
    for m, n in ((3, 2), (4, 3))
    for d in (2, 3)
]


class TestMultilinearColumns:
    """Under Boolean axioms the closure runs over multilinear columns; it
    must decide membership and count dimension as the dense closure does."""

    @pytest.mark.parametrize("family, d", CROSS_CHECK)
    def test_agrees_with_dense_closure(self, family, d):
        eqs = family().equations
        basis, dense = pc_closure(eqs, d), DenseClosure(eqs, d)
        assert basis.span_dimension() == len(dense.pivots)
        for q in _queries(eqs, d) + dense.rows():
            assert basis.contains(q) == dense.contains(q), q
        for row in basis.rows:
            assert dense.contains(row.poly)

    def test_columns_are_multilinear(self):
        # 386 multilinear monomials of degree <= 4 over 10 variables, of 1,001
        basis = pc_closure(gen_subset_sum(10, refutation_cap=0).equations, 4)
        assert len(basis.columns) == 386
        assert list(basis.columns) == sorted(basis.columns, key=graded_lex_key)
        assert all(e == 1 for m in basis.columns for _, e in m)
        assert basis.span_dimension() == len(basis.rows) + 1001 - 386 == 671

    def test_cap_counts_built_columns(self):
        eqs = gen_subset_sum(10, refutation_cap=0).equations
        pc_closure(eqs, 4, monomial_cap=386)
        with pytest.raises(ClosureTooLarge, match="386 multilinear monomials"):
            pc_closure(eqs, 4, monomial_cap=385)

    def test_non_multilinear_target_extraction(self):
        basis = pc_closure(gen_fphp(3, 2).equations, 2)
        target = P("1 + x0^2 - x0")
        d = extract_derivation(basis, target)
        rep = check_derivation(d)
        assert rep.valid and rep.degree <= 2
        assert d.final_polynomial() == target

    def test_degree_above_bound_is_outside(self):
        # ml(x1^3 - x1) is 0, but the polynomial is not in the degree-2 closure
        basis = pc_closure(gen_subset_sum(4, refutation_cap=0).equations, 2)
        assert basis.contains(P("x1^2 - x1"))
        assert not basis.contains(P("x1^3 - x1"))
        assert basis.reduce(P("x1^3 - x1"))[0] == P("x1^3 - x1")

    def test_rows_replay_in_multilinear_form(self):
        # the axiom's line x1^2 + 1 stands for the row x1 + 1; multiplied by
        # x1 before its square is reduced, it would reach degree 3
        basis = pc_closure(eqset(RATIONAL, [P("x1^2 + 1")], boolean_axioms=True), 2)
        for row in basis.rows:
            rep = check_derivation(extract_derivation(basis, row.poly))
            assert rep.valid and rep.degree <= 2

    def test_extraction_replays_squares(self):
        # raw rows and targets with squares and cubes, replayed at degree 3
        basis = pc_closure(bool_plus_square(4), 3)
        ell = sum_plus_one(4)
        targets = [P("x1^2*x2 + x3^3 - x1*x2 - x3"), ell * ell * P("x1"), ell * ell * P("x1") + P("x2^2 - x2")]
        for target in targets:
            d = extract_derivation(basis, target)
            rep = check_derivation(d)
            assert rep.valid and rep.degree <= 3 and d.final_polynomial() == target


FRACTIONS = tuple(Fraction(a, b) for a, b in ((1, 2), (-1, 2), (2, 3), (-2, 3), (3, 1), (-3, 1)))


class TestClosureInvariants:
    def test_random_systems(self):
        _check_random_systems(random.Random(29), range(-3, 4))

    def test_random_fractional_systems(self):
        # axioms with denominators, cleared when a row is first built
        _check_random_systems(random.Random(31), FRACTIONS)

    def test_degree_zero(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1 + 1"), P("2")]), 0)
        assert basis.span_dimension() == 1
        assert basis.contains(P("1")) and not basis.contains(P("x1 + 1"))
        assert check_derivation(extract_derivation(basis, P("1"))).refutation

    def test_columns_in_graded_lex_order(self):
        basis = pc_closure(eqset(RATIONAL, [P("x0*x3 - x5")]), 3)
        assert len(basis.columns) == 20
        assert list(basis.columns) == sorted(basis.columns, key=graded_lex_key)


def _check_random_systems(rng, coefficients):
    for trial in range(60):
        ring = GF(5) if trial % 3 == 0 else RATIONAL
        polys = [_random_poly(rng, ring, coefficients) for _ in range(rng.randrange(1, 4))]
        polys = [p for p in polys if not p.is_zero] or [Polynomial.variable(ring, 1)]
        eqs = eqset(ring, polys, boolean_axioms=trial % 2 == 1)
        d = rng.randrange(0, 4)
        basis = pc_closure(eqs, d)
        _assert_closed(basis, eqs, d)
        for row in basis.rows:
            rep = check_derivation(extract_derivation(basis, row.poly))
            assert rep.valid and rep.degree <= d


def _assert_normalised(basis):
    """Rows over Q are primitive integer vectors with a positive lead; rows
    over GF(p) are monic, with entries in 1..p-1."""
    for row in basis.rows:
        values = list(row.vec.values())
        assert all(type(c) is int for c in values)
        lead = row.vec[row.lead_column]
        if basis.ring.is_rational:
            assert gcd(*values) == 1 and lead > 0
        else:
            assert lead == 1 and all(0 < c < basis.ring.p for c in values)


def _assert_closed(basis, eqs, d):
    ring = basis.ring
    _assert_normalised(basis)
    leads = [row.lead for row in basis.rows]
    assert len(set(leads)) == len(leads)
    for row in basis.rows:
        assert row.lead == min(row.poly.terms, key=graded_lex_key)
        if row.poly.degree < d:
            for v in basis.variables:
                assert basis.contains(row.poly * Polynomial.variable(ring, v))
    for p in eqs:
        if p.degree <= d:
            assert basis.contains(p)
    absent = Polynomial.variable(ring, max(basis.variables, default=0) + 1)
    assert not basis.contains(absent)
    assert basis.reduce(absent)[0] == absent


class TestExtraction:
    def test_three_line_refutation(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1"), P("1 - x1")]), 1)
        d = extract_derivation(basis, P("1"))
        rep = check_derivation(d)
        assert rep.valid and rep.refutation and rep.degree <= 1

    def test_chain_two_extraction(self):
        eqs = eqset(RATIONAL, [P("x0 - 1"), P("x0 - x0*x1"), P("x1 - x1*x2"), P("x2")])
        basis = pc_closure(eqs, 2)
        d = extract_derivation(basis, P("1"))
        rep = check_derivation(d)
        assert rep.valid and rep.refutation and rep.degree == 2

    def test_not_derivable(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1^2")]), 4)
        assert extract_derivation(basis, P("x1")) is None

    def test_degree_bound_enforced(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1")]), 1)
        with pytest.raises(ValueError):
            extract_derivation(basis, P("x1^2"))

    def test_zero_target(self):
        basis = pc_closure(eqset(RATIONAL, [P("x1")]), 1)
        d = extract_derivation(basis, Polynomial.zero(RATIONAL))
        assert check_derivation(d).valid

    def test_extracted_degrees_within_bound(self):
        eqs = bool_plus_square(3)
        basis = pc_closure(eqs, 4)
        target = sum_plus_one(3)
        d = extract_derivation(basis, target)
        if d is not None:
            rep = check_derivation(d)
            assert rep.valid and rep.degree <= 4
            assert d.lines[-1][0] == target


class TestCompletenessAgainstChecker:
    def test_random_pc_proof_final_lines_in_span(self):
        rng = random.Random(17)
        for _ in range(40):
            axioms = [_random_poly(rng) for _ in range(3)]
            eqs = eqset(RATIONAL, [p for p in axioms if not p.is_zero] or [P("x1")])
            builder = DerivationBuilder("pc", eqs)
            last = builder.axiom(rng.randrange(len(eqs)))
            for _ in range(rng.randrange(1, 6)):
                op = rng.choice(["mul", "add", "axiom"])
                if op == "mul":
                    last = builder.mul_var(last, rng.randrange(3))
                elif op == "add":
                    other = builder.axiom(rng.randrange(len(eqs)))
                    last = builder.add(last, other, rng.choice([1, 2, -1]), rng.choice([1, -2]))
                else:
                    last = builder.axiom(rng.randrange(len(eqs)))
            d = builder.build()
            rep = check_derivation(d)
            assert rep.valid
            if rep.degree < 0:
                continue
            proof_vars = set().union(*[p.variables() for p, _ in d.lines])
            basis = pc_closure(eqs, int(rep.degree), extra_variables=proof_vars)
            assert basis.contains(d.final_polynomial())


class TestSubsetSumLowerBoundProperty:
    def test_small_n_non_derivability_and_radical_witness(self):
        # desk-scale stand-in: the linear form stays out of low-degree closures
        for n in (4, 6):
            eqs = bool_plus_square(n)
            target = sum_plus_one(n)
            for d in range(0, n // 2):
                basis = pc_closure(eqs, d)
                assert not basis.contains(target), (n, d)
            square_index = len(eqs) - 1
            builder = DerivationBuilder("pc_rad", eqs)
            sq = builder.axiom(square_index)
            builder.radical_of(sq, target)
            rep = check_derivation(builder.build())
            assert rep.valid and rep.uses_radical and rep.degree <= n + 2


def _random_poly(rng, ring=RATIONAL, coefficients=range(-3, 4)):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        mono = tuple(sorted({rng.randrange(3): rng.randrange(1, 3) for _ in range(rng.randrange(0, 2))}.items()))
        terms[mono] = rng.choice(coefficients)
    return Polynomial(ring, terms)
