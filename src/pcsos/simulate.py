"""Compilers between the dynamic and static proof systems.

Three translations, each verified by replaying its output through the
corresponding checker:

* sos_to_pcplus: a sum-of-squares refutation becomes a PC+ refutation of
  the same axioms and the same degree, with no radical steps and exactly
  one sum-of-squares step whose witness is 1.
* pcplus_to_sos_eps / pcplus_refutation_to_sos: a PC+ derivation of r = 0
  becomes, for any rational eps > 0, an SoS+Bool certificate of
  eps - r^2 >= 0 by structural recursion over the lines; the degree at
  most doubles and is independent of eps.  Setting eps = 1/2 and doubling
  turns a refutation into a target -1 certificate.
* eliminate_radical_char_p: over GF(p) with the Boolean axioms, every
  radical step f^2 = 0 |- f = 0 unfolds into a multiplication of f^2 by
  the multilinear form h of f^(p-2), which agrees with f^p and so with f
  on the 0/1 cube, followed by Boolean multiples that take f^2 h to f,
  leaving a radical-free PC derivation.

Squares are kept in the weighted form sum_j w_j s_j^2 with rational
w_j > 0 (the Gram form), so scaling a certificate scales weights and
repeated squares merge into one.  The PC+ sum-of-squares step takes the
same weighted form, so a certificate's squares enter it as they are.
It is sound because over the reals w^2 + sum_j c_j q_j^2 = 0 with every
c_j > 0 forces w = 0.  Wherever such a sum is expanded (the eps case of a
sum-of-squares step here, the kernel's check of a certificate and of that
step), algebra.expand does it through the Gram matrix over the squares'
distinct monomials, forming each monomial product once.

Radical elimination replays every other line through the kernel's rule
table (proofcheck.RULES), so it branches only on the radical rule.  The
eps-recursion keeps its own case analysis over the rule kinds: each case
is that rule's translation into certificate parts, which is the simulation
itself, and giving the kernel's table a per-rule hook for it would make the
kernel branch on one of its callers.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .algebra import EquationSet, Polynomial, expand
from .errors import UnsupportedConstruct
from .proofcheck import (
    PC,
    PC_PLUS,
    Add,
    Axiom,
    BoolAxiom,
    Derivation,
    DerivationBuilder,
    Mul,
    Radical,
    Sos,
    SosCertificate,
    ZeroIntro,
    check_derivation,
    check_sos,
    relabel,
    rule_of,
    scale_certificate,
)


class SimulationError(ValueError):
    pass


# -- internal certificate accumulator ----------------------------------


class _Parts:
    """Summands of an SoS+Bool identity, with the squares in weighted form.

    A square t*s that is a nonzero rational multiple of a square s already
    held adds t^2 w to the weight of s instead of becoming a new square, so
    s and -s merge too.  The first square seen stays the representative.
    """

    def __init__(self, ring):
        self.ring = ring
        self.multipliers: dict[int, list[Polynomial]] = {}
        self.bool_multipliers: dict[int, list[Polynomial]] = {}
        # monic form -> [first square s, its leading coefficient, weight of s^2]
        self.squares: dict[Polynomial, list] = {}
        self.constant = Fraction(0)

    def add_multiplier(self, axiom: int, poly: Polynomial):
        self.multipliers.setdefault(axiom, []).append(poly)

    def add_bool(self, var: int, poly: Polynomial):
        self.bool_multipliers.setdefault(var, []).append(poly)

    def add_square(self, s: Polynomial, weight: Fraction):
        if s.is_zero:
            return
        lead = Fraction(s.sorted_terms()[0][1])
        entry = self.squares.setdefault(s.scale(1 / lead), [s, lead, Fraction(0)])
        entry[2] += weight * (lead / entry[1]) ** 2

    def certificate(self, axioms: EquationSet, target: Polynomial) -> SosCertificate:
        def summed(polys: dict[int, list[Polynomial]]):
            sums = ((k, Polynomial.sum(self.ring, ps)) for k, ps in sorted(polys.items()))
            return tuple((k, r) for k, r in sums if not r.is_zero)

        return SosCertificate(
            axioms=replace(axioms, boolean_axioms=True),
            multipliers=summed(self.multipliers),
            bool_multipliers=summed(self.bool_multipliers),
            squares=tuple(s for s, _, _ in self.squares.values()),
            weights=tuple(w for _, _, w in self.squares.values()),
            constant=self.constant,
            target=target,
        )


# -- SoS -> PC+ ---------------------------------------------------------


def sos_to_pcplus(cert: SosCertificate) -> Derivation:
    """Degree-preserving compilation of an SoS refutation into PC+.

    Derives u := -(sum of multiplier terms), which by the certificate
    identity equals c + kappa + sum_j w_j s_j^2, scales it by 1/(c + kappa)
    and closes with one sum-of-squares step: witness 1, the nonzero squares
    s_j and weights w_j/(c + kappa).
    """
    report = check_sos(cert)
    if not report.valid:
        raise SimulationError("input certificate does not verify")
    if not report.refutation:
        raise SimulationError("input certificate is not a refutation (target must be -c, c > 0)")
    c = -Fraction(cert.target.constant_value())

    ring = cert.axioms.ring
    builder = DerivationBuilder(PC_PLUS, cert.axioms)
    cited = [(builder.axiom, k, r) for k, r in cert.multipliers]
    cited += [(builder.bool_axiom, v, r) for v, r in cert.bool_multipliers]
    parts = [(builder.mul_poly(cite(k), -r), Fraction(1)) for cite, k, r in cited if not r.is_zero]
    total = c + cert.constant
    u = builder.scale_line(builder.combination(parts), 1 / total)

    squares = [(s, w / total) for s, w in cert.weighted_squares() if not s.is_zero]
    # the step checks that u recomposes
    builder.sos_step(u, Polynomial.const(ring, 1), [s for s, _ in squares], [w for _, w in squares])
    return builder.build()


# -- PC+ -> SoS+Bool ----------------------------------------------------


def pcplus_to_sos_eps(d: Derivation, epsilon) -> SosCertificate:
    """Approximate simulation: from a derivation of r = 0, a certificate
    with target eps - r^2 at degree at most twice the derivation degree.

    Follows the structural recursion case by case; the eps budget is split
    as eps/4a^2 and eps/4b^2 at additions and becomes eps^2 at radicals,
    all in exact rational arithmetic.  The certificate of a line at budget
    eps is its own summands plus positive multiples of the certificates of
    the lines it cites, so the whole certificate is the sum of every
    (line, eps) node's own summands times its factor: the sum over the
    recursion's paths to the node of the products of the multiples on them.
    Lines cite only earlier lines, so one pass from the last line down
    settles each node's factor before the node is expanded, once.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise SimulationError("epsilon must be positive")
    if not d.ring.is_rational:
        raise UnsupportedConstruct("the simulation targets certificates over the rationals")
    report = check_derivation(d)
    if not report.valid:
        raise SimulationError("input derivation does not verify")
    if not d.lines:
        raise SimulationError("empty derivation")

    ring = d.ring
    out = _Parts(ring)
    last = len(d.lines) - 1
    factors: list[dict[Fraction, Fraction]] = [{} for _ in d.lines]  # per line: eps -> factor
    factors[last][epsilon] = Fraction(1)

    def cite(i: int, eps: Fraction, factor: Fraction):
        pending = factors[i]
        pending[eps] = pending.get(eps, 0) + factor

    for idx in range(last, -1, -1):
        poly, just = d.lines[idx]
        for eps, f in factors[idx].items():  # this node's summands, times f
            if isinstance(just, (Axiom, BoolAxiom, ZeroIntro)):  # eps - r^2 = eps + (-r) r
                if isinstance(just, Axiom):
                    out.add_multiplier(just.index, poly.scale(-f))
                elif isinstance(just, BoolAxiom):
                    out.add_bool(just.var, poly.scale(-f))
                out.constant += f * eps
            elif isinstance(just, Mul):
                src = d.lines[just.i][0]
                cite(just.i, eps, f)
                x = Polynomial.variable(ring, just.var)
                out.add_square(src - x * src, f)
                out.add_bool(just.var, (src * src).scale(-2 * f))
            elif isinstance(just, Add):
                a, b = Fraction(just.a), Fraction(just.b)
                for k, c in ((just.i, a), (just.j, b)):
                    if c:
                        cite(k, eps / (4 * c * c), f * 2 * c * c)
                    else:
                        out.constant += f * eps / 2
                ri, rj = d.lines[just.i][0].scale(a), d.lines[just.j][0].scale(b)
                out.add_square(ri - rj if a else rj, f)  # b*r_j, not -b*r_j, when a = 0
            elif isinstance(just, Radical):
                src = d.lines[just.i][0]  # src == poly^2
                g = f / (2 * eps)
                cite(just.i, eps * eps, g)
                out.add_square(Polynomial.const(ring, eps) - src, g)
            elif isinstance(just, Sos):
                cite(just.i, eps, f)
                p = just.witness
                for q, c in just.weighted_squares():
                    out.add_square(p * q, 2 * f * c)
                out.add_square(expand(ring, squares=just.weighted_squares()), f)
            else:
                raise SimulationError(f"line {idx}: unsupported justification {just!r}")

    r = d.lines[last][0]
    return out.certificate(d.axioms, Polynomial.const(ring, epsilon) - r * r)


def pcplus_refutation_to_sos(d: Derivation) -> SosCertificate:
    """SoS+Bool refutation of the same axioms, degree at most doubled.

    Runs the eps-recursion at eps = 1/2 on the final line 1 = 0, giving a
    certificate of -1/2 >= 0, then doubles every multiplier, the constant
    and every square weight.
    """
    if not d.lines or d.final_polynomial() != Polynomial.const(d.ring, 1):
        raise SimulationError("input is not a refutation (final line must be 1)")
    approx = pcplus_to_sos_eps(d, Fraction(1, 2))
    return scale_certificate(approx, Fraction(2), Polynomial.const(d.ring, -1))


# -- radical elimination in positive characteristic ---------------------


def eliminate_radical_char_p(d: Derivation) -> Derivation:
    """Replace every radical step by an explicit PC derivation over GF(p).

    From the line f^2 = 0, multiplication by h, the multilinear form of
    f^(p-2), gives f^2 h.  On every 0/1 point f^2 h equals f^p, which is f
    by Fermat's little theorem, so f^2 h - f = sum_v (x_v^2 - x_v) q_v and
    subtracting those Boolean multiples lands on f.  A step has degree at
    most 2 deg(f) + min((p-2) deg(f), |vars(f)|) <= p deg(f), and h has at
    most 2^|vars(f)| terms.  As ml is a ring homomorphism modulo the Boolean
    ideal, h comes from square-and-multiply, multilinearizing each product.
    """
    ring = d.ring
    if ring.is_rational:
        raise UnsupportedConstruct("radical elimination requires a prime field GF(p)")
    if not d.axioms.boolean_axioms:
        raise UnsupportedConstruct("radical elimination needs the Boolean axioms")
    for _, just in d.lines:
        rule = rule_of(just)
        if PC not in rule.systems and rule.cls is not Radical:
            raise UnsupportedConstruct(f"{rule.kind} steps are not supported here")
    report = check_derivation(d)
    if not report.valid:
        raise SimulationError("input derivation does not verify")

    builder = DerivationBuilder(PC, d.axioms)
    remap: dict[int, int] = {}

    for idx, (poly, just) in enumerate(d.lines):
        if isinstance(just, Radical):
            remap[idx] = _expand_radical(builder, remap[just.i], poly)
        else:
            remap[idx] = builder.derive(relabel(just, ring, remap.__getitem__))
        assert builder.poly(remap[idx]) == poly, f"line {idx} replay mismatch"
    return builder.build()


def _expand_radical(builder: DerivationBuilder, square_line: int, f: Polynomial) -> int:
    if f.is_zero:
        return builder.zero()
    h = Polynomial.const(builder.ring, 1)  # becomes ml(f^(p-2)), one bit of p-2 at a time
    for bit in bin(builder.ring.p - 2)[2:]:
        h = (h * h).multilinearize()
        if bit == "1":
            h = (h * f).multilinearize()
    return builder.boolean_reduce(builder.mul_poly(square_line, h), f)
