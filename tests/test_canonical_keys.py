"""Polynomials built without the reader have canonical terms.

A term key is an exponent tuple ((var, exp), ...) with strictly increasing
variables and positive exponents.  Generators, the closure and the
compilers build such keys by hand; a key in any other form would make
equal polynomials compare unequal, so every polynomial they produce must
have canonical keys and read back equal from its own text.

A coefficient is canonical too: over Q a nonzero int, or a Fraction that
is not integral; over GF(p) an int in [1, p).  Arithmetic makes it so, and
so does every path that builds a polynomial from computed coefficients.
"""

from fractions import Fraction

import pytest

from pcsos.algebra import GF, RATIONAL, parse_poly
from pcsos.degsearch import pc_closure
from pcsos.families import (
    chain_pc_refutation,
    gen_bphp_graph,
    gen_chain,
    gen_fphp,
    gen_fphp_sos,
    gen_subset_sum,
    shift_graph,
)
from pcsos.fol import FunctionRegistry
from pcsos.lkr import compile_lkr
from pcsos.simulate import (
    eliminate_radical_char_p,
    pcplus_refutation_to_sos,
    pcplus_to_sos_eps,
    sos_to_pcplus,
)


def _canonical_coefficient(c, ring):
    if ring.is_rational:
        return type(c) is int and c != 0 or type(c) is Fraction and c.denominator != 1
    return type(c) is int and 0 < c < ring.p


def assert_canonical(polys, ring):
    count = 0
    for p in polys:
        for key, c in p.terms.items():
            assert type(key) is tuple, key
            for pair in key:
                assert type(pair) is tuple and len(pair) == 2, key
                assert type(pair[0]) is int and type(pair[1]) is int and pair[1] > 0, key
            variables = [v for v, _ in key]
            assert all(a < b for a, b in zip(variables, variables[1:])), key
            assert _canonical_coefficient(c, ring), (p.format(), key, repr(c))
        assert parse_poly(p.format(), ring) == p, p.format()
        count += 1
    assert count


def derivation_polys(d):
    return list(d.axioms) + [poly for poly, _ in d.lines]


def certificate_polys(cert):
    polys = [r for _, r in cert.multipliers] + [r for _, r in cert.bool_multipliers]
    return list(cert.axioms) + polys + list(cert.squares) + [cert.target]


@pytest.mark.parametrize("m, n", [(2, 1), (4, 3), (6, 5)])
def test_fphp_members_and_certificate(m, n):
    assert_canonical(gen_fphp(m, n).equations, RATIONAL)
    assert_canonical(gen_fphp(m, n, GF(7)).equations, GF(7))
    assert_canonical(certificate_polys(gen_fphp_sos(m, n)), RATIONAL)


@pytest.mark.parametrize("n", [2, 5])
def test_bphp_graph(n):
    holes_of, pigeons_of, m, _ = shift_graph(n)
    assert_canonical(gen_bphp_graph(holes_of, pigeons_of, m, n).equations, RATIONAL)


@pytest.mark.parametrize("ring", [RATIONAL, GF(7)])
def test_subset_sum_with_certificate(ring):
    instance = gen_subset_sum(4, ring)
    assert_canonical(instance.equations, ring)
    assert_canonical(derivation_polys(instance.certificate), ring)


def test_chain_and_its_compiled_refutation():
    instance = gen_chain(4)
    assert_canonical(instance.equations, RATIONAL)
    assert_canonical(derivation_polys(chain_pc_refutation(4)), RATIONAL)
    compiled = compile_lkr(instance.certificate, {"n": 4}, "pc_plus", FunctionRegistry.standard())
    assert_canonical(derivation_polys(compiled), RATIONAL)


@pytest.mark.parametrize("ring", [RATIONAL, GF(101)])
def test_closure_rows(ring):
    for eqs, d in [
        (gen_fphp(3, 2, ring).equations, 2),
        (gen_chain(6, ring, with_proofs=False).equations, 2),
        (gen_subset_sum(5, ring, refutation_cap=0).equations, 3),
    ]:
        basis = pc_closure(eqs, d)
        assert_canonical([row.poly for row in basis.rows], ring)


@pytest.mark.parametrize("p", [5, 7])
def test_radical_elimination_lines(p):
    ring = GF(p)
    out = eliminate_radical_char_p(gen_subset_sum(3, ring).certificate)
    assert_canonical(derivation_polys(out), ring)


@pytest.mark.parametrize("ring", [RATIONAL, GF(7)])
def test_arithmetic(ring):
    P = lambda text: parse_poly(text, ring)
    q = P("1/2*x1")
    two = P("2")
    outputs = [P("2*x1 + 4").scale(Fraction(1, 2)), q + q, q * two, two * q, q - P("-1/2*x1")]
    outputs += [-q, P("1/2*x1^2 + 1/2*x1").multilinearize(), q.scale(2), q.scale(Fraction(3))]
    assert_canonical(outputs, ring)
    assert all(p == P("x1") for p in outputs[1:5])


def test_simulation_outputs():
    cert = gen_fphp_sos(6, 3)
    d = sos_to_pcplus(cert)
    assert_canonical(derivation_polys(d), RATIONAL)
    assert_canonical(certificate_polys(pcplus_refutation_to_sos(d)), RATIONAL)
    assert_canonical(certificate_polys(pcplus_to_sos_eps(d, Fraction(1, 3))), RATIONAL)
