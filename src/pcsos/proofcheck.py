"""Verifiers for PC / PC-rad / PC+ derivations and static certificates.

A derivation is a line sequence; every line carries a justification and the
checker replays each rule as an exact polynomial identity.  Static objects
(sum-of-squares and Nullstellensatz certificates) are verified as one big
symbolic identity.  Degree accounting is exact: the degree of a derivation
is the maximum degree of any line, and the degree of a certificate is the
maximum degree of any summand.

The three systems share one line format and differ only in the rules they
admit, so each justification kind is defined once, in RULES, for the
checker, the builder, the JSON codecs and the replays in degsearch and
radical elimination.  The eps-simulation keeps its own case analysis: its
cases are the simulation itself, and a per-rule hook for them here would
make the kernel branch on one of its callers.

Structural defects (bad indices, wrong ring, malformed witnesses) raise
ProofStructureError; proofs that are well-formed but wrong yield an invalid
CheckReport with the offending line and mismatch polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import (
    MINUS_INF,
    RATIONAL,
    AlgebraError,
    EquationSet,
    Monomial,
    Polynomial,
    Ring,
    four_square,
    merge_exps,
    parse_poly,
)

PC = "pc"
PC_RAD = "pc_rad"
PC_PLUS = "pc_plus"
SYSTEMS = (PC, PC_RAD, PC_PLUS)


class ProofStructureError(ValueError):
    pass


class ProofFormatError(ValueError):
    """Malformed proof or certificate file."""


# -- justifications ----------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    index: int


@dataclass(frozen=True)
class ZeroIntro:
    pass


@dataclass(frozen=True)
class BoolAxiom:
    var: int


@dataclass(frozen=True)
class Add:
    i: int
    j: int
    a: Fraction | int
    b: Fraction | int


@dataclass(frozen=True)
class Mul:
    i: int
    var: int


@dataclass(frozen=True)
class Radical:
    i: int


@dataclass(frozen=True)
class Sos:
    i: int
    witness: Polynomial
    squares: tuple[Polynomial, ...]


Justification = Axiom | ZeroIntro | BoolAxiom | Add | Mul | Radical | Sos


# -- the rule table ----------------------------------------------------


def _index_from_json(value) -> int:
    if type(value) is not int:  # bool is an int subclass, and not an index
        raise ProofFormatError(f"bad line or axiom index {value!r}, expected an integer")
    return value


def _var_from_json(name) -> int:
    if isinstance(name, str) and name.startswith("x") and name[1:].isascii() and name[1:].isdigit():
        return int(name[1:])
    raise ProofFormatError(f"bad variable name {name!r}, expected like 'x3'")


def _coeff_from_json(ring: Ring, value):
    if isinstance(value, (int, str)):
        try:
            return ring.coerce(Fraction(str(value)))
        except (ValueError, ZeroDivisionError, AlgebraError) as exc:
            raise ProofFormatError(f"bad coefficient {value!r}: {exc}") from exc
    raise ProofFormatError(f"bad coefficient {value!r}")


def _poly_from_json(text, ring: Ring) -> Polynomial:
    if not isinstance(text, str):
        raise ProofFormatError(f"expected polynomial text, got {text!r}")
    try:
        return parse_poly(text, ring)
    except AlgebraError as exc:
        raise ProofFormatError(str(exc)) from exc


def _cite_line(lines, axioms: EquationSet, idx: int, ref: int) -> Polynomial:
    if not (0 <= ref < idx):
        raise ProofStructureError(f"line {idx} cites line {ref}, which is not earlier")
    return lines[ref][0]


def _cite_axiom(lines, axioms: EquationSet, idx: int, ref: int) -> Polynomial:
    if not (0 <= ref < len(axioms)):
        raise ProofStructureError(f"line {idx} cites axiom {ref} out of range")
    return axioms[ref]


@dataclass(frozen=True)
class _Codec:
    """One kind of justification field: its JSON form and what it cites."""

    to_json: Callable  # value -> JSON value
    from_json: Callable  # (ring, JSON value) -> value, or ProofFormatError
    cite: Callable | None = None  # (lines, axioms, line index, value) -> cited polynomial
    # (ring, line renumbering, value) -> the value in a derivation so renumbered
    relabel: Callable = lambda ring, line_of, value: value


LINE = _Codec(
    int, lambda ring, v: _index_from_json(v), _cite_line, lambda ring, line_of, i: line_of(i)
)
AXIOM = _Codec(int, lambda ring, v: _index_from_json(v), _cite_axiom)
VAR = _Codec(lambda v: f"x{v}", lambda ring, v: _var_from_json(v))
COEFF = _Codec(str, _coeff_from_json, relabel=lambda ring, line_of, c: ring.coerce(c))
POLY = _Codec(Polynomial.format, lambda ring, t: _poly_from_json(t, ring))
POLYS = _Codec(
    lambda ps: [p.format() for p in ps],
    lambda ring, ts: tuple(_poly_from_json(t, ring) for t in ts),
)


@dataclass(frozen=True)
class _Field:
    key: str  # JSON key
    codec: _Codec
    attr: str = ""  # justification attribute, when it differs from key
    default: object = None  # JSON value read when the key is absent; None: required

    @property
    def name(self) -> str:
        return self.attr or self.key


@dataclass(frozen=True)
class Rule:
    """One justification kind, defined once for the checker, the builder and
    the file format.

    conclude(ring, just, premises, claimed) is the polynomial the rule
    licenses from the polynomials its fields cite; claimed is the line's
    own polynomial (for a radical step, the root it claims).  side(just,
    premises, conclusion) returns a mismatch polynomial when a further
    condition on the premises fails, else None.
    """

    kind: str  # JSON name
    cls: type
    fields: tuple[_Field, ...]
    systems: tuple[str, ...]  # the systems that admit the rule
    conclude: Callable
    side: Callable | None = None
    boolean: bool = False  # admitted only with the Boolean axioms


def _bool_poly(ring: Ring, var: int) -> Polynomial:
    x = Polynomial.variable(ring, var)
    return x * x - x


def _diff(a: Polynomial, b: Polynomial) -> Polynomial | None:
    delta = a - b
    return None if delta.is_zero else delta


def _add_conclusion(ring: Ring, just: Add, premises, claimed) -> Polynomial:
    p, q = premises
    return p.scale(ring.coerce(just.a)) + q.scale(ring.coerce(just.b))


def _sos_recomposition(just: Sos, premises, witness_square: Polynomial) -> Polynomial | None:
    recomposed = witness_square
    for q in just.squares:
        recomposed = recomposed + q * q
    return _diff(premises[0], recomposed)


_I = _Field("i", LINE)

RULES: dict[type, Rule] = {
    rule.cls: rule
    for rule in (
        Rule("axiom", Axiom, (_Field("index", AXIOM),), SYSTEMS, lambda ring, just, ps, _: ps[0]),
        Rule("zero", ZeroIntro, (), SYSTEMS, lambda ring, just, ps, _: Polynomial.zero(ring)),
        Rule(
            "bool", BoolAxiom, (_Field("var", VAR),), SYSTEMS,
            lambda ring, just, ps, _: _bool_poly(ring, just.var), boolean=True,
        ),
        Rule(
            "add", Add, (_I, _Field("j", LINE), _Field("a", COEFF), _Field("b", COEFF)),
            SYSTEMS, _add_conclusion,
        ),
        Rule(
            "mul", Mul, (_I, _Field("var", VAR)), SYSTEMS,
            lambda ring, just, ps, _: ps[0] * Polynomial.variable(ring, just.var),
        ),
        Rule(
            "radical", Radical, (_I,), (PC_RAD, PC_PLUS), lambda ring, just, ps, root: root,
            side=lambda just, ps, root: _diff(ps[0], root * root),
        ),
        Rule(
            "sos", Sos, (_I, _Field("p", POLY, "witness"), _Field("squares", POLYS, default=[])),
            (PC_PLUS,), lambda ring, just, ps, _: just.witness * just.witness,
            side=_sos_recomposition,
        ),
    )
}
_RULE_OF_KIND = {rule.kind: rule for rule in RULES.values()}


def rule_of(just: Justification) -> Rule:
    rule = RULES.get(type(just))
    if rule is None:
        raise ProofStructureError(f"unknown justification {just!r}")
    return rule


def _premises(rule: Rule, just, lines, axioms: EquationSet, idx: int) -> list[Polynomial]:
    return [
        f.codec.cite(lines, axioms, idx, getattr(just, f.name)) for f in rule.fields if f.codec.cite
    ]


def relabel(just: Justification, ring: Ring, line_of: Callable[[int], int]) -> Justification:
    """just with every cited line k renumbered line_of(k) and every
    coefficient in canonical form for ring."""
    rule = rule_of(just)
    return rule.cls(
        **{f.name: f.codec.relabel(ring, line_of, getattr(just, f.name)) for f in rule.fields}
    )


@dataclass(frozen=True)
class Derivation:
    system: str
    ring: Ring
    boolean_axioms: bool
    axioms: EquationSet
    lines: tuple[tuple[Polynomial, Justification], ...]

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ProofStructureError(f"unknown system {self.system!r}")

    def final_polynomial(self) -> Polynomial:
        if not self.lines:
            raise ProofStructureError("empty derivation")
        return self.lines[-1][0]


@dataclass(frozen=True)
class SosCertificate:
    """Static witness for  sum_i r_i p_i + sum_v b_v (x_v^2-x_v) + sum_j s_j^2 + const == target."""

    axioms: EquationSet
    boolean: bool
    multipliers: tuple[tuple[int, Polynomial], ...]
    squares: tuple[Polynomial, ...]
    target: Polynomial
    bool_multipliers: tuple[tuple[int, Polynomial], ...] = ()
    constant: Fraction = Fraction(0)


@dataclass(frozen=True)
class NsCertificate:
    axioms: EquationSet
    multipliers: tuple[tuple[int, Polynomial], ...]
    target: Polynomial


@dataclass
class CheckReport:
    valid: bool
    degree: float | int
    uses_radical: bool = False
    uses_sos_rule: bool = False
    refutation: bool = False
    failure: tuple[int, Polynomial] | None = None

    def degree_or_none(self):
        return None if self.degree == MINUS_INF else self.degree


# The static checkers accumulate the big identity keyed by raw exponent
# tuples, so no Monomial objects are allocated for terms that cancel.  Over
# GF(p) the sums are reduced once, in _accumulated_poly.


def _accumulate_product(acc: dict, r: Polynomial, p: Polynomial):
    """Add r*p into the exponent-tuple accumulator; returns the summand's
    exact degree (deg r + deg p over an integral domain, or the sentinel)."""
    if not r._terms or not p._terms:
        return MINUS_INF
    d1 = r._degree
    if d1 is None:
        d1 = r.degree
    d2 = p._degree
    if d2 is None:
        d2 = p.degree
    r_terms = r._terms
    if len(r_terms) == 1:
        ((m1, c1),) = r_terms.items()
        if not m1.exps:  # constant multiplier
            for m2, c2 in p._terms.items():
                e = m2.exps
                acc[e] = acc.get(e, 0) + c1 * c2
            return d1 + d2
    for m1, c1 in r_terms.items():
        e1 = m1.exps
        for m2, c2 in p._terms.items():
            e = merge_exps(e1, m2.exps)
            acc[e] = acc.get(e, 0) + c1 * c2
    return d1 + d2


def _accumulate_square(acc: dict, s: Polynomial):
    """Add s^2 into the accumulator using the symmetry of the square."""
    if s.is_zero:
        return MINUS_INF
    items = [(m.exps, c) for m, c in s._terms.items()]
    for idx, (e1, c1) in enumerate(items):
        e = merge_exps(e1, e1)
        acc[e] = acc.get(e, 0) + c1 * c1
        for k in range(idx + 1, len(items)):
            e2, c2 = items[k]
            e = merge_exps(e1, e2)
            acc[e] = acc.get(e, 0) + 2 * c1 * c2
    return 2 * s.degree


def _accumulated_poly(ring: Ring, acc: dict) -> Polynomial:
    q = ring.p
    terms = {}
    for exps, c in acc.items():
        if q is not None:
            c %= q
        if c != 0:
            terms[Monomial._make(exps, sum(e for _, e in exps))] = c
    return Polynomial._raw(ring, terms)


def _is_negative_constant(p: Polynomial) -> bool:
    return p.ring.is_rational and p.is_constant and not p.is_zero and p.constant_value() < 0


# -- dynamic checker ---------------------------------------------------


def check_derivation(d: Derivation) -> CheckReport:
    """Replay every line of a PC / PC-rad / PC+ derivation exactly."""
    ring = d.ring
    if d.axioms.ring != ring:
        raise ProofStructureError("axioms ring differs from derivation ring")
    uses_radical = any(isinstance(j, Radical) for _, j in d.lines)
    uses_sos = any(isinstance(j, Sos) for _, j in d.lines)
    degree = MINUS_INF
    failure = None

    for idx, (poly, just) in enumerate(d.lines):
        if poly.ring != ring:
            raise ProofStructureError(f"line {idx} ring differs from derivation ring")
        degree = max(degree, poly.degree)
        if failure is not None:
            continue
        problem = _check_line(d, idx, poly, just)
        if problem is not None:
            failure = (idx, problem)

    valid = failure is None
    refutation = valid and bool(d.lines) and d.final_polynomial() == Polynomial.const(ring, 1)
    return CheckReport(valid, degree, uses_radical, uses_sos, refutation, failure)


def _check_line(d: Derivation, idx: int, poly: Polynomial, just) -> Polynomial | None:
    """Return the mismatch polynomial if the line fails, else None."""
    rule = rule_of(just)
    premises = _premises(rule, just, d.lines, d.axioms, idx)
    if d.system not in rule.systems or (rule.boolean and not d.boolean_axioms):
        return poly  # the rule is not available in this derivation
    conclusion = rule.conclude(d.ring, just, premises, poly)
    mismatch = rule.side(just, premises, conclusion) if rule.side else None
    return mismatch if mismatch is not None else _diff(poly, conclusion)


# -- static checkers ---------------------------------------------------


def check_sos(c: SosCertificate) -> CheckReport:
    if not c.axioms.ring.is_rational:
        raise ProofStructureError("sum-of-squares certificates require the rational ring")
    if c.bool_multipliers and not c.boolean:
        raise ProofStructureError("bool multipliers present but boolean flag is false")
    if c.constant < 0:
        raise ProofStructureError(f"negative certificate constant {c.constant}")
    ring = c.axioms.ring
    acc: dict = {(): ring.coerce(c.constant)} if c.constant else {}
    degree = MINUS_INF if c.constant == 0 else 0
    for k, r in c.multipliers:
        if not (0 <= k < len(c.axioms)):
            raise ProofStructureError(f"multiplier cites axiom {k} out of range")
        degree = max(degree, _accumulate_product(acc, r, c.axioms[k]))
    for v, r in c.bool_multipliers:
        degree = max(degree, _accumulate_product(acc, r, _bool_poly(ring, v)))
    for s in c.squares:
        degree = max(degree, _accumulate_square(acc, s))
    mismatch = _diff(_accumulated_poly(ring, acc), c.target)
    valid = mismatch is None
    refutation = valid and _is_negative_constant(c.target)
    report = CheckReport(valid, degree, refutation=refutation)
    if not valid:
        report.failure = (-1, mismatch)
    return report


def check_nullstellensatz(c: NsCertificate) -> CheckReport:
    ring = c.axioms.ring
    acc: dict = {}
    degree = MINUS_INF
    for k, r in c.multipliers:
        if not (0 <= k < len(c.axioms)):
            raise ProofStructureError(f"multiplier cites axiom {k} out of range")
        degree = max(degree, _accumulate_product(acc, r, c.axioms[k]))
    mismatch = _diff(_accumulated_poly(ring, acc), c.target)
    valid = mismatch is None
    refutation = valid and c.target == Polynomial.const(ring, 1)
    report = CheckReport(valid, degree, refutation=refutation)
    if not valid:
        report.failure = (-1, mismatch)
    return report


def normalize_refutation(c: SosCertificate) -> SosCertificate:
    """Rescale a target -c refutation (c > 0) to the standard target -1.

    Every component is multiplied by 1/c; each scaled square (1/c) s^2 is
    split into at most four rational squares via the four-square identity,
    so the certificate degree is unchanged.
    """
    report = check_sos(c)
    if not report.valid or not report.refutation:
        raise ProofStructureError("normalization requires a valid refutation certificate")
    scale = -Fraction(1) / Fraction(c.target.constant_value())
    ring = c.axioms.ring
    return scale_certificate(c, scale, Polynomial.const(ring, -1))


def scale_certificate(c: SosCertificate, scale: Fraction, target: Polynomial) -> SosCertificate:
    if scale <= 0:
        raise ProofStructureError("certificate scale must be positive")
    squares: list[Polynomial] = []
    for s in c.squares:
        for a in four_square(scale):
            if a != 0:
                squares.append(s.scale(a))
    return SosCertificate(
        axioms=c.axioms,
        boolean=c.boolean,
        multipliers=tuple((k, r.scale(scale)) for k, r in c.multipliers),
        bool_multipliers=tuple((v, r.scale(scale)) for v, r in c.bool_multipliers),
        squares=tuple(squares),
        constant=c.constant * scale,
        target=target,
    )


# -- derivation builder ------------------------------------------------


class DerivationBuilder:
    """Incrementally assembles a valid derivation, caching duplicate lines.

    Every emit method returns the index of a line whose polynomial is known,
    so compilers can build on intermediate results without re-deriving them.
    Each line's polynomial is the conclusion its rule licenses, computed by
    the same table entry the checker replays.
    """

    def __init__(self, system: str, ring: Ring, axioms: EquationSet, boolean_axioms: bool = False):
        self.system = system
        self.ring = ring
        self.axioms = axioms
        self.boolean_axioms = boolean_axioms
        self._lines: list[tuple[Polynomial, Justification]] = []
        self._by_key: dict = {}

    def __len__(self):
        return len(self._lines)

    def poly(self, idx: int) -> Polynomial:
        return self._lines[idx][0]

    def _emit(self, poly: Polynomial, just: Justification) -> int:
        self._lines.append((poly, just))
        return len(self._lines) - 1

    def derive(self, just: Justification, root: Polynomial | None = None) -> int:
        """Index of a line concluded by just, emitted unless an equal step is
        already there.  A radical step also names its root, since both roots
        of the cited square qualify."""
        key = just if root is None else (just, root)
        idx = self._by_key.get(key)
        if idx is None:
            rule = rule_of(just)
            premises = _premises(rule, just, self._lines, self.axioms, len(self._lines))
            poly = rule.conclude(self.ring, just, premises, root)
            if rule.side is not None and rule.side(just, premises, poly) is not None:
                raise ProofStructureError(f"{rule.kind} step: its side condition fails")
            idx = self._by_key[key] = self._emit(poly, just)
        return idx

    def axiom(self, index: int) -> int:
        return self.derive(Axiom(index))

    def zero(self) -> int:
        return self.derive(ZeroIntro())

    def bool_axiom(self, var: int) -> int:
        return self.derive(BoolAxiom(var))

    def add(self, i: int, j: int, a, b) -> int:
        return self.derive(Add(i, j, self.ring.coerce(a), self.ring.coerce(b)))

    def scale_line(self, i: int, a) -> int:
        a = self.ring.coerce(a)
        if a == self.ring.one:
            return i
        return self.add(i, i, a, 0)

    def mul_var(self, i: int, var: int) -> int:
        return self.derive(Mul(i, var))

    def radical_of(self, i: int, root: Polynomial) -> int:
        return self.derive(Radical(i), root)

    def sos_step(self, i: int, witness: Polynomial, squares: tuple[Polynomial, ...]) -> int:
        return self.derive(Sos(i, witness, squares))

    def ensure_last(self, i: int) -> int:
        """Restate line i at the end of the derivation if it is not already there."""
        if i == len(self._lines) - 1:
            return i
        return self._emit(self.poly(i), Add(i, i, self.ring.one, self.ring.zero))

    def mul_monomial(self, i: int, mono: Monomial) -> int:
        for var, exp in mono.exps:
            for _ in range(exp):
                i = self.mul_var(i, var)
        return i

    def mul_poly(self, i: int, p: Polynomial) -> int:
        """Line with polynomial poly(i) * p, via monomial chains and adds."""
        if p.is_zero or self.poly(i).is_zero:
            return self.zero()
        parts = []
        for mono, coeff in p.sorted_terms():
            parts.append((self.mul_monomial(i, mono), coeff))
        return self.combination(parts)

    def combination(self, parts: list[tuple[int, object]]) -> int:
        """Balanced tree of additions computing sum of coeff * line."""
        if not parts:
            return self.zero()
        layer = list(parts)
        while len(layer) > 1:
            nxt = []
            for k in range(0, len(layer) - 1, 2):
                (i, a), (j, b) = layer[k], layer[k + 1]
                nxt.append((self.add(i, j, a, b), self.ring.one))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        idx, coeff = layer[0]
        return self.scale_line(idx, coeff)

    def build(self) -> Derivation:
        return Derivation(
            system=self.system,
            ring=self.ring,
            boolean_axioms=self.boolean_axioms or any(rule_of(j).boolean for _, j in self._lines),
            axioms=self.axioms,
            lines=tuple(self._lines),
        )


# -- JSON file formats -------------------------------------------------


def derivation_to_json(d: Derivation) -> dict:
    lines = []
    for poly, just in d.lines:
        rule = rule_of(just)
        entry = {"kind": rule.kind}
        for f in rule.fields:
            entry[f.key] = f.codec.to_json(getattr(just, f.name))
        lines.append({"poly": poly.format(), "rule": entry})
    return {
        "system": d.system,
        "ring": d.ring.to_json(),
        "boolean_axioms": d.boolean_axioms,
        "axioms": [p.format() for p in d.axioms],
        "lines": lines,
    }


def _require_object(obj, what: str) -> None:
    """Reject a file whose top level is not a JSON object."""
    if not isinstance(obj, dict):
        raise ProofFormatError(f"malformed {what} file: expected a JSON object, got {type(obj).__name__}")


def derivation_from_json(obj: dict) -> Derivation:
    _require_object(obj, "proof")
    try:
        ring = Ring.from_json(obj["ring"])
        system = obj["system"]
        axioms = EquationSet(
            ring,
            tuple(_poly_from_json(t, ring) for t in obj["axioms"]),
            bool(obj.get("boolean_axioms", False)),
        )
        lines = []
        for entry in obj["lines"]:
            poly = _poly_from_json(entry["poly"], ring)
            spec = entry["rule"]
            rule = _RULE_OF_KIND.get(spec["kind"])
            if rule is None:
                raise ProofFormatError(f"unknown rule kind {spec['kind']!r}")
            values = {
                f.name: f.codec.from_json(
                    ring, spec[f.key] if f.default is None else spec.get(f.key, f.default)
                )
                for f in rule.fields
            }
            lines.append((poly, rule.cls(**values)))
        derivation = Derivation(system, ring, axioms.boolean_axioms, axioms, tuple(lines))
    except (KeyError, TypeError, AlgebraError) as exc:
        raise ProofFormatError(f"malformed proof file: {exc}") from exc
    return derivation


def sos_to_json(c: SosCertificate) -> dict:
    return {
        "boolean": c.boolean,
        "axioms": [p.format() for p in c.axioms],
        "target": c.target.format(),
        "multipliers": [{"axiom": k, "poly": r.format()} for k, r in c.multipliers],
        "bool_multipliers": [{"var": f"x{v}", "poly": r.format()} for v, r in c.bool_multipliers],
        "squares": [s.format() for s in c.squares],
        "constant": str(c.constant),
    }


def sos_from_json(obj: dict) -> SosCertificate:
    _require_object(obj, "certificate")
    ring = RATIONAL
    try:
        axioms = EquationSet(
            ring,
            tuple(_poly_from_json(t, ring) for t in obj["axioms"]),
            bool(obj.get("boolean", False)),
        )
        constant = Fraction(str(obj.get("constant", 0)))
        cert = SosCertificate(
            axioms=axioms,
            boolean=bool(obj.get("boolean", False)),
            multipliers=tuple(
                (AXIOM.from_json(ring, m["axiom"]), _poly_from_json(m["poly"], ring))
                for m in obj.get("multipliers", [])
            ),
            bool_multipliers=tuple(
                (_var_from_json(m["var"]), _poly_from_json(m["poly"], ring))
                for m in obj.get("bool_multipliers", [])
            ),
            squares=tuple(_poly_from_json(t, ring) for t in obj.get("squares", [])),
            constant=constant,
            target=_poly_from_json(obj["target"], ring),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProofFormatError(f"malformed certificate file: {exc}") from exc
    return cert


def ns_to_json(c: NsCertificate) -> dict:
    return {
        "ring": c.axioms.ring.to_json(),
        "axioms": [p.format() for p in c.axioms],
        "target": c.target.format(),
        "multipliers": [{"axiom": k, "poly": r.format()} for k, r in c.multipliers],
    }


def ns_from_json(obj: dict) -> NsCertificate:
    _require_object(obj, "certificate")
    try:
        ring = Ring.from_json(obj.get("ring", {"kind": "rational"}))
        axioms = EquationSet(ring, tuple(_poly_from_json(t, ring) for t in obj["axioms"]))
        cert = NsCertificate(
            axioms=axioms,
            multipliers=tuple(
                (AXIOM.from_json(ring, m["axiom"]), _poly_from_json(m["poly"], ring))
                for m in obj.get("multipliers", [])
            ),
            target=_poly_from_json(obj["target"], ring),
        )
    except (KeyError, TypeError, AlgebraError) as exc:
        raise ProofFormatError(f"malformed certificate file: {exc}") from exc
    return cert


def eqset_to_json(eqs: EquationSet) -> dict:
    return {
        "ring": eqs.ring.to_json(),
        "boolean_axioms": eqs.boolean_axioms,
        "equations": [p.format() for p in eqs],
    }


def eqset_from_json(obj: dict) -> EquationSet:
    _require_object(obj, "equation set")
    try:
        ring = Ring.from_json(obj.get("ring", {"kind": "rational"}))
        return EquationSet(
            ring,
            tuple(_poly_from_json(t, ring) for t in obj["equations"]),
            bool(obj.get("boolean_axioms", False)),
        )
    except (KeyError, TypeError, AlgebraError) as exc:
        raise ProofFormatError(f"malformed equation set file: {exc}") from exc


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProofFormatError(f"cannot read {path}: {exc}") from exc


def dump_json(obj: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
