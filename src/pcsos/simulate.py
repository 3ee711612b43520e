"""Compilers between the dynamic and static proof systems.

Three translations, each verified by replaying its output through the
corresponding checker:

* sos_to_pcplus: a sum-of-squares refutation becomes a PC+ refutation of
  the same axioms and the same degree, with no radical steps and exactly
  one sum-of-squares step whose witness is a constant.
* pcplus_to_sos_eps / pcplus_refutation_to_sos: a PC+ derivation of r = 0
  becomes, for any rational eps > 0, an SoS+Bool certificate of
  eps - r^2 >= 0 by structural recursion over the lines; the degree at
  most doubles and is independent of eps.  Setting eps = 1/2 and doubling
  turns a refutation into a target -1 certificate.
* eliminate_radical_char_p: over GF(p) with the Boolean axioms, every
  radical step f^2 = 0 |- f = 0 unfolds into multiplications reaching f^p
  followed by explicit Boolean reductions of each x^(dp) back to x^d,
  leaving a radical-free PC derivation.

Scaling a rational certificate by a positive non-square splits each
square via the four-square identity, so scaled objects stay certificates
over the rationals at unchanged degree.

Radical elimination replays every other line through the kernel's rule
table (proofcheck.RULES), so it branches only on the radical rule.  The
eps-recursion keeps its own case analysis over the rule kinds: each case
is that rule's translation into certificate parts, which is the simulation
itself, and giving the kernel's table a per-rule hook for it would make the
kernel branch on one of its callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import EquationSet, Monomial, Polynomial, four_square
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
)


class SimulationError(ValueError):
    pass


# -- internal certificate accumulator ----------------------------------


@dataclass
class _Parts:
    """Mutable summands of an SoS+Bool identity, combined and scaled freely."""

    multipliers: dict[int, Polynomial]
    bool_multipliers: dict[int, Polynomial]
    squares: list[Polynomial]
    constant: Fraction

    @staticmethod
    def empty() -> "_Parts":
        return _Parts({}, {}, [], Fraction(0))

    def copy(self) -> "_Parts":
        return _Parts(
            dict(self.multipliers),
            dict(self.bool_multipliers),
            list(self.squares),
            self.constant,
        )

    def add_multiplier(self, axiom: int, poly: Polynomial):
        prev = self.multipliers.get(axiom)
        self.multipliers[axiom] = poly if prev is None else prev + poly

    def add_bool(self, var: int, poly: Polynomial):
        prev = self.bool_multipliers.get(var)
        self.bool_multipliers[var] = poly if prev is None else prev + poly

    def merge(self, other: "_Parts"):
        for k, r in other.multipliers.items():
            self.add_multiplier(k, r)
        for v, r in other.bool_multipliers.items():
            self.add_bool(v, r)
        self.squares.extend(other.squares)
        self.constant += other.constant

    def scaled(self, factor: Fraction) -> "_Parts":
        if factor <= 0:
            raise SimulationError("certificate scale must be positive")
        squares: list[Polynomial] = []
        weights = [a for a in four_square(factor) if a != 0]
        for s in self.squares:
            squares.extend(s.scale(a) for a in weights)
        return _Parts(
            {k: r.scale(factor) for k, r in self.multipliers.items()},
            {v: r.scale(factor) for v, r in self.bool_multipliers.items()},
            squares,
            self.constant * factor,
        )

    def certificate(self, axioms: EquationSet, target: Polynomial) -> SosCertificate:
        return SosCertificate(
            axioms=axioms,
            boolean=True,
            multipliers=tuple(
                (k, r) for k, r in sorted(self.multipliers.items()) if not r.is_zero
            ),
            bool_multipliers=tuple(
                (v, r) for v, r in sorted(self.bool_multipliers.items()) if not r.is_zero
            ),
            squares=tuple(s for s in self.squares if not s.is_zero),
            constant=self.constant,
            target=target,
        )


@dataclass(frozen=True)
class EpsDerivation:
    epsilon: Fraction
    target: Polynomial  # the final derived polynomial r
    certificate: SosCertificate  # proves eps - r^2 >= 0


# -- SoS -> PC+ ---------------------------------------------------------


def sos_to_pcplus(cert: SosCertificate) -> Derivation:
    """Degree-preserving compilation of an SoS refutation into PC+.

    Derives u := -(sum of multiplier terms), which by the certificate
    identity equals c + kappa + (sum of squares), then closes with one
    sum-of-squares step on a constant witness and a final rescale to 1.
    """
    report = check_sos(cert)
    if not report.valid:
        raise SimulationError("input certificate does not verify")
    if not report.refutation:
        raise SimulationError("input certificate is not a refutation (target must be -c, c > 0)")
    c = -Fraction(cert.target.constant_value())

    ring = cert.axioms.ring
    builder = DerivationBuilder(
        PC_PLUS,
        ring,
        cert.axioms,
        boolean_axioms=cert.boolean or bool(cert.bool_multipliers),
    )
    parts: list[tuple[int, Fraction]] = []
    for k, r in cert.multipliers:
        if r.is_zero:
            continue
        line = builder.mul_poly(builder.axiom(k), -r)
        parts.append((line, Fraction(1)))
    for v, r in cert.bool_multipliers:
        if r.is_zero:
            continue
        line = builder.mul_poly(builder.bool_axiom(v), -r)
        parts.append((line, Fraction(1)))
    u = builder.combination(parts)

    witness_parts = [a for a in four_square(c + cert.constant) if a != 0]
    witness = Polynomial.const(ring, witness_parts[0])
    squares = tuple(Polynomial.const(ring, a) for a in witness_parts[1:]) + tuple(
        s for s in cert.squares if not s.is_zero
    )
    closing = builder.sos_step(u, witness, squares)  # checks that u recomposes
    if builder.poly(closing) != Polynomial.const(ring, 1):
        builder.scale_line(closing, Fraction(1) / (witness_parts[0] ** 2))
    return builder.build()


# -- PC+ -> SoS+Bool ----------------------------------------------------


def pcplus_to_sos_eps(d: Derivation, epsilon) -> EpsDerivation:
    """Approximate simulation: from a derivation of r = 0, a certificate of
    eps - r^2 >= 0 at degree at most twice the derivation degree.

    Mirrors the structural recursion case by case; the eps budget is split
    as eps/4a^2 and eps/4b^2 at additions and becomes eps^2 at radicals,
    all in exact rational arithmetic.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise SimulationError("epsilon must be positive")
    if not d.ring.is_rational:
        raise SimulationError("the simulation targets certificates over the rationals")
    report = check_derivation(d)
    if not report.valid:
        raise SimulationError("input derivation does not verify")
    if not d.lines:
        raise SimulationError("empty derivation")

    ring = d.ring
    memo: dict[tuple[int, Fraction], _Parts] = {}

    def certify(idx: int, eps: Fraction) -> _Parts:
        """Parts summing exactly to eps - r_idx^2."""
        key = (idx, eps)
        if key in memo:
            return memo[key].copy()
        poly, just = d.lines[idx]
        out = _Parts.empty()
        if isinstance(just, Axiom):
            out.add_multiplier(just.index, -poly)
            out.constant = eps
        elif isinstance(just, ZeroIntro):
            out.constant = eps
        elif isinstance(just, BoolAxiom):
            out.add_bool(just.var, -poly)
            out.constant = eps
        elif isinstance(just, Mul):
            src = d.lines[just.i][0]
            out = certify(just.i, eps)
            x = Polynomial.variable(ring, just.var)
            out.squares.append(src - x * src)
            out.add_bool(just.var, (src * src).scale(-2))
        elif isinstance(just, Add):
            a, b = Fraction(just.a), Fraction(just.b)
            ri = d.lines[just.i][0]
            rj = d.lines[just.j][0]
            if a == 0 and b == 0:
                out.constant = eps
            elif b == 0:
                out = certify(just.i, eps / (4 * a * a)).scaled(2 * a * a)
                out.squares.append(ri.scale(a))
                out.constant += eps / 2
            elif a == 0:
                out = certify(just.j, eps / (4 * b * b)).scaled(2 * b * b)
                out.squares.append(rj.scale(b))
                out.constant += eps / 2
            else:
                out = certify(just.i, eps / (4 * a * a)).scaled(2 * a * a)
                out.merge(certify(just.j, eps / (4 * b * b)).scaled(2 * b * b))
                out.squares.append(ri.scale(a) - rj.scale(b))
        elif isinstance(just, Radical):
            src = d.lines[just.i][0]  # src == poly^2
            out = certify(just.i, eps * eps)
            out.squares.append(Polynomial.const(ring, eps) - src)
            out = out.scaled(Fraction(1, 2) / eps)
        elif isinstance(just, Sos):
            out = certify(just.i, eps)
            p = just.witness
            sum_squares = Polynomial.zero(ring)
            for q in just.squares:
                out.squares.extend((p * q, p * q))  # 2 p^2 q^2 split as two squares
                sum_squares = sum_squares + q * q
            out.squares.append(sum_squares)
        else:
            raise SimulationError(f"line {idx}: unsupported justification {just!r}")
        memo[key] = out
        return out.copy()

    last = len(d.lines) - 1
    r = d.lines[last][0]
    parts = certify(last, epsilon)
    target = Polynomial.const(ring, epsilon) - r * r
    cert = parts.certificate(d.axioms, target)
    return EpsDerivation(epsilon, r, cert)


def pcplus_refutation_to_sos(d: Derivation) -> SosCertificate:
    """SoS+Bool refutation of the same axioms, degree at most doubled.

    Runs the eps-recursion at eps = 1/2 on the final line 1 = 0, giving a
    certificate of -1/2 >= 0, then doubles every component.
    """
    report = check_derivation(d)
    if not report.valid or not report.refutation:
        raise SimulationError("input is not a valid refutation (final line must be 1)")
    eps = Fraction(1, 2)
    approx = pcplus_to_sos_eps(d, eps)
    parts = _Parts(
        dict(approx.certificate.multipliers),
        dict(approx.certificate.bool_multipliers),
        list(approx.certificate.squares),
        approx.certificate.constant,
    )
    doubled = parts.scaled(Fraction(2))
    target = Polynomial.const(d.ring, -1)
    return doubled.certificate(d.axioms, target)


# -- radical elimination in positive characteristic ---------------------


def eliminate_radical_char_p(d: Derivation, max_p: int = 31) -> Derivation:
    """Replace every radical step by an explicit PC derivation over GF(p).

    From the line f^2 = 0, multiplication by the monomials of f^(p-2)
    reaches f^p, which by the freshman's dream equals f with every
    exponent scaled by p; Boolean reductions then walk each x^(dp) back
    down to x^d.  Output degree is at most p * deg(f) + 2 per step.
    """
    ring = d.ring
    if ring.is_rational:
        raise UnsupportedConstruct("radical elimination requires a prime field GF(p)")
    if ring.p > max_p:
        raise UnsupportedConstruct(f"p = {ring.p} exceeds the configured cap {max_p}")
    if not d.boolean_axioms:
        raise UnsupportedConstruct("radical elimination needs the Boolean axioms")
    for _, just in d.lines:
        rule = rule_of(just)
        if PC not in rule.systems and rule.cls is not Radical:
            raise UnsupportedConstruct(f"{rule.kind} steps are not supported here")
    report = check_derivation(d)
    if not report.valid:
        raise SimulationError("input derivation does not verify")

    builder = DerivationBuilder(PC, ring, d.axioms, boolean_axioms=True)
    remap: dict[int, int] = {}

    for idx, (poly, just) in enumerate(d.lines):
        if isinstance(just, Radical):
            remap[idx] = _expand_radical(builder, remap[just.i], poly)
        else:
            remap[idx] = builder.derive(relabel(just, ring, remap.__getitem__))
        assert builder.poly(remap[idx]) == poly, f"line {idx} replay mismatch"
    return builder.build()


def _expand_radical(builder: DerivationBuilder, square_line: int, f: Polynomial) -> int:
    ring = builder.ring
    p = ring.p
    if f.is_zero:
        return builder.zero()

    # f^(p-2) * f^2 = f^p, built monomial by monomial from the square line
    power = f ** (p - 2)
    parts = [
        (builder.mul_monomial(square_line, mono), coeff) for mono, coeff in power.sorted_terms()
    ]
    line = builder.combination(parts)
    assert builder.poly(line) == f**p

    # freshman's dream: f^p = sum_j c_j m_j^p; reduce x^(p e) back to x^e
    for mono, coeff in f.sorted_terms():
        for var, exp in mono.exps:
            # telescoping cofactor: (x^2 - x) * sum_{k=e-1}^{pe-2} x^k = x^(pe) - x^e
            rest = {v: (e if v < var else p * e) for v, e in mono.exps if v != var}
            bool_line = builder.bool_axiom(var)
            for k in range(p * exp - 2, exp - 2, -1):
                step = dict(rest)
                if k:
                    step[var] = k
                correction = builder.mul_monomial(bool_line, Monomial(step))
                line = builder.add(line, correction, 1, ring.neg(coeff))
    assert builder.poly(line) == f
    return line
