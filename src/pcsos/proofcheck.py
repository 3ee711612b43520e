"""Verifiers for PC / PC-rad / PC+ derivations and static certificates.

A derivation is a line sequence; every line carries a justification and the
checker replays each rule as an exact polynomial identity.  Static objects
(sum-of-squares and Nullstellensatz certificates) are verified as one big
symbolic identity.  Degree accounting is exact: the degree of a derivation
is the maximum degree of any line, and the degree of a certificate is the
maximum degree of any summand.

Structural defects (bad indices, wrong ring, malformed witnesses) raise
ProofStructureError; proofs that are well-formed but wrong yield an invalid
CheckReport with the offending line and mismatch polynomial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    MINUS_INF,
    RATIONAL,
    AlgebraError,
    EquationSet,
    Monomial,
    Polynomial,
    Ring,
    four_square,
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


def _bool_poly(ring: Ring, var: int) -> Polynomial:
    x = Polynomial.variable(ring, var)
    return x * x - x


# The static checkers accumulate the big identity keyed by raw exponent
# tuples, so no Monomial objects are allocated for terms that cancel.


def _merge_exps(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (va, ea), (vb, eb) = a[0], b[0]
        if va == vb:
            return ((va, ea + eb),)
        return (a[0], b[0]) if va < vb else (b[0], a[0])
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _accumulate_const(acc: dict, ring: Ring, value) -> None:
    if value != 0:
        acc[()] = acc.get((), 0) + ring.coerce(value)


def _accumulate_product(acc: dict, ring: Ring, r: Polynomial, p: Polynomial):
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
    rational = ring.p is None
    r_terms = r._terms
    if len(r_terms) == 1:
        ((m1, c1),) = r_terms.items()
        if not m1.exps:  # constant multiplier
            if rational:
                for m2, c2 in p._terms.items():
                    e = m2.exps
                    acc[e] = acc.get(e, 0) + c1 * c2
            else:
                q = ring.p
                for m2, c2 in p._terms.items():
                    e = m2.exps
                    acc[e] = (acc.get(e, 0) + c1 * c2) % q
            return d1 + d2
    if rational:
        for m1, c1 in r_terms.items():
            e1 = m1.exps
            for m2, c2 in p._terms.items():
                e = _merge_exps(e1, m2.exps)
                acc[e] = acc.get(e, 0) + c1 * c2
    else:
        q = ring.p
        for m1, c1 in r_terms.items():
            e1 = m1.exps
            for m2, c2 in p._terms.items():
                e = _merge_exps(e1, m2.exps)
                acc[e] = (acc.get(e, 0) + c1 * c2) % q
    return d1 + d2


def _accumulate_square(acc: dict, ring: Ring, s: Polynomial):
    """Add s^2 into the accumulator using the symmetry of the square."""
    if s.is_zero:
        return MINUS_INF
    items = [(m.exps, c) for m, c in s._terms.items()]
    if ring.p is None:
        for idx, (e1, c1) in enumerate(items):
            e = _merge_exps(e1, e1)
            acc[e] = acc.get(e, 0) + c1 * c1
            for k in range(idx + 1, len(items)):
                e2, c2 = items[k]
                e = _merge_exps(e1, e2)
                acc[e] = acc.get(e, 0) + 2 * c1 * c2
    else:
        q = ring.p
        for idx, (e1, c1) in enumerate(items):
            e = _merge_exps(e1, e1)
            acc[e] = (acc.get(e, 0) + c1 * c1) % q
            for k in range(idx + 1, len(items)):
                e2, c2 = items[k]
                e = _merge_exps(e1, e2)
                acc[e] = (acc.get(e, 0) + 2 * c1 * c2) % q
    return 2 * s.degree


def _accumulated_poly(ring: Ring, acc: dict) -> Polynomial:
    terms = {}
    for exps, c in acc.items():
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


def _earlier(d: Derivation, idx: int, ref: int) -> Polynomial:
    if not (0 <= ref < idx):
        raise ProofStructureError(f"line {idx} cites line {ref}, which is not earlier")
    return d.lines[ref][0]


def _check_line(d: Derivation, idx: int, poly: Polynomial, just) -> Polynomial | None:
    """Return the mismatch polynomial if the line fails, else None."""
    ring = d.ring
    if isinstance(just, Axiom):
        if not (0 <= just.index < len(d.axioms)):
            raise ProofStructureError(f"line {idx} cites axiom {just.index} out of range")
        return _diff(poly, d.axioms[just.index])
    if isinstance(just, ZeroIntro):
        return None if poly.is_zero else poly
    if isinstance(just, BoolAxiom):
        if not d.boolean_axioms:
            return poly  # boolean axioms not available in this derivation
        return _diff(poly, _bool_poly(ring, just.var))
    if isinstance(just, Add):
        p = _earlier(d, idx, just.i)
        q = _earlier(d, idx, just.j)
        combo = p.scale(ring.coerce(just.a)) + q.scale(ring.coerce(just.b))
        return _diff(poly, combo)
    if isinstance(just, Mul):
        p = _earlier(d, idx, just.i)
        return _diff(poly, p * Polynomial.variable(ring, just.var))
    if isinstance(just, Radical):
        if d.system not in (PC_RAD, PC_PLUS):
            return poly
        src = _earlier(d, idx, just.i)
        return _diff(src, poly * poly)
    if isinstance(just, Sos):
        if d.system != PC_PLUS:
            return poly
        src = _earlier(d, idx, just.i)
        recomposed = just.witness * just.witness
        for q in just.squares:
            recomposed = recomposed + q * q
        mismatch = _diff(src, recomposed)
        if mismatch is not None:
            return mismatch
        return _diff(poly, just.witness * just.witness)
    raise ProofStructureError(f"line {idx}: unknown justification {just!r}")


def _diff(a: Polynomial, b: Polynomial) -> Polynomial | None:
    delta = a - b
    return None if delta.is_zero else delta


# -- static checkers ---------------------------------------------------


def check_sos(c: SosCertificate) -> CheckReport:
    if not c.axioms.ring.is_rational:
        raise ProofStructureError("sum-of-squares certificates require the rational ring")
    if c.bool_multipliers and not c.boolean:
        raise ProofStructureError("bool multipliers present but boolean flag is false")
    if c.constant < 0:
        raise ProofStructureError(f"negative certificate constant {c.constant}")
    ring = c.axioms.ring
    acc: dict = {}
    _accumulate_const(acc, ring, c.constant)
    degree = MINUS_INF if c.constant == 0 else 0
    for k, r in c.multipliers:
        if not (0 <= k < len(c.axioms)):
            raise ProofStructureError(f"multiplier cites axiom {k} out of range")
        degree = max(degree, _accumulate_product(acc, ring, r, c.axioms[k]))
    for v, r in c.bool_multipliers:
        degree = max(degree, _accumulate_product(acc, ring, r, _bool_poly(ring, v)))
    for s in c.squares:
        degree = max(degree, _accumulate_square(acc, ring, s))
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
        degree = max(degree, _accumulate_product(acc, ring, r, c.axioms[k]))
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
    """

    def __init__(self, system: str, ring: Ring, axioms: EquationSet, boolean_axioms: bool = False):
        self.system = system
        self.ring = ring
        self.axioms = axioms
        self.boolean_axioms = boolean_axioms
        self._lines: list[tuple[Polynomial, Justification]] = []
        self._by_key: dict = {}
        self.used_bool = False

    def __len__(self):
        return len(self._lines)

    def poly(self, idx: int) -> Polynomial:
        return self._lines[idx][0]

    def _emit(self, poly: Polynomial, just: Justification, cache_key=None) -> int:
        idx = len(self._lines)
        self._lines.append((poly, just))
        if cache_key is not None:
            self._by_key[cache_key] = idx
        return idx

    def axiom(self, index: int) -> int:
        key = ("ax", index)
        if key in self._by_key:
            return self._by_key[key]
        return self._emit(self.axioms[index], Axiom(index), key)

    def zero(self) -> int:
        key = ("zero",)
        if key in self._by_key:
            return self._by_key[key]
        return self._emit(Polynomial.zero(self.ring), ZeroIntro(), key)

    def bool_axiom(self, var: int) -> int:
        key = ("bool", var)
        if key in self._by_key:
            return self._by_key[key]
        self.used_bool = True
        return self._emit(_bool_poly(self.ring, var), BoolAxiom(var), key)

    def add(self, i: int, j: int, a, b) -> int:
        a = self.ring.coerce(a)
        b = self.ring.coerce(b)
        key = ("add", i, j, a, b)
        if key in self._by_key:
            return self._by_key[key]
        poly = self.poly(i).scale(a) + self.poly(j).scale(b)
        return self._emit(poly, Add(i, j, a, b), key)

    def scale_line(self, i: int, a) -> int:
        a = self.ring.coerce(a)
        if a == self.ring.one:
            return i
        return self.add(i, i, a, 0)

    def mul_var(self, i: int, var: int) -> int:
        key = ("mul", i, var)
        if key in self._by_key:
            return self._by_key[key]
        poly = self.poly(i) * Polynomial.variable(self.ring, var)
        return self._emit(poly, Mul(i, var), key)

    def radical_of(self, i: int, root: Polynomial) -> int:
        key = ("rad", i, root)
        if key in self._by_key:
            return self._by_key[key]
        if self.poly(i) != root * root:
            raise ProofStructureError("radical_of: cited line is not the square of the root")
        return self._emit(root, Radical(i), key)

    def sos_step(self, i: int, witness: Polynomial, squares: tuple[Polynomial, ...]) -> int:
        key = ("sos", i, witness, squares)
        if key in self._by_key:
            return self._by_key[key]
        return self._emit(witness * witness, Sos(i, witness, squares), key)

    def ensure_last(self, i: int) -> int:
        """Restate line i at the end of the derivation if it is not already there."""
        if i == len(self._lines) - 1:
            return i
        poly = self.poly(i)
        return self._emit(poly, Add(i, i, self.ring.one, self.ring.zero))

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
            boolean_axioms=self.boolean_axioms or self.used_bool,
            axioms=self.axioms,
            lines=tuple(self._lines),
        )


# -- JSON file formats -------------------------------------------------


def _coeff_to_json(ring: Ring, c):
    return str(c)


def _coeff_from_json(ring: Ring, value):
    if isinstance(value, (int, str)):
        try:
            return ring.coerce(Fraction(str(value)))
        except (ValueError, ZeroDivisionError, AlgebraError) as exc:
            raise ProofFormatError(f"bad coefficient {value!r}: {exc}") from exc
    raise ProofFormatError(f"bad coefficient {value!r}")


def _index_from_json(value) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ProofFormatError(f"bad line or axiom index {value!r}, expected an integer") from exc


def _var_from_json(name) -> int:
    if isinstance(name, str) and name.startswith("x") and name[1:].isdigit():
        return int(name[1:])
    raise ProofFormatError(f"bad variable name {name!r}, expected like 'x3'")


def _poly_from_json(text, ring: Ring) -> Polynomial:
    if not isinstance(text, str):
        raise ProofFormatError(f"expected polynomial text, got {text!r}")
    try:
        return parse_poly(text, ring)
    except AlgebraError as exc:
        raise ProofFormatError(str(exc)) from exc


def derivation_to_json(d: Derivation) -> dict:
    lines = []
    for poly, just in d.lines:
        rule: dict
        if isinstance(just, Axiom):
            rule = {"kind": "axiom", "index": just.index}
        elif isinstance(just, ZeroIntro):
            rule = {"kind": "zero"}
        elif isinstance(just, BoolAxiom):
            rule = {"kind": "bool", "var": f"x{just.var}"}
        elif isinstance(just, Add):
            rule = {
                "kind": "add",
                "i": just.i,
                "j": just.j,
                "a": _coeff_to_json(d.ring, just.a),
                "b": _coeff_to_json(d.ring, just.b),
            }
        elif isinstance(just, Mul):
            rule = {"kind": "mul", "i": just.i, "var": f"x{just.var}"}
        elif isinstance(just, Radical):
            rule = {"kind": "radical", "i": just.i}
        elif isinstance(just, Sos):
            rule = {
                "kind": "sos",
                "i": just.i,
                "p": just.witness.format(),
                "squares": [q.format() for q in just.squares],
            }
        else:
            raise ProofStructureError(f"unknown justification {just!r}")
        lines.append({"poly": poly.format(), "rule": rule})
    return {
        "system": d.system,
        "ring": d.ring.to_json(),
        "boolean_axioms": d.boolean_axioms,
        "axioms": [p.format() for p in d.axioms],
        "lines": lines,
    }


def derivation_from_json(obj: dict) -> Derivation:
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
            rule = entry["rule"]
            kind = rule["kind"]
            if kind == "axiom":
                just: Justification = Axiom(_index_from_json(rule["index"]))
            elif kind == "zero":
                just = ZeroIntro()
            elif kind == "bool":
                just = BoolAxiom(_var_from_json(rule["var"]))
            elif kind == "add":
                just = Add(
                    _index_from_json(rule["i"]),
                    _index_from_json(rule["j"]),
                    _coeff_from_json(ring, rule["a"]),
                    _coeff_from_json(ring, rule["b"]),
                )
            elif kind == "mul":
                just = Mul(_index_from_json(rule["i"]), _var_from_json(rule["var"]))
            elif kind == "radical":
                just = Radical(_index_from_json(rule["i"]))
            elif kind == "sos":
                just = Sos(
                    _index_from_json(rule["i"]),
                    _poly_from_json(rule["p"], ring),
                    tuple(_poly_from_json(t, ring) for t in rule.get("squares", [])),
                )
            else:
                raise ProofFormatError(f"unknown rule kind {kind!r}")
            lines.append((poly, just))
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
                (int(m["axiom"]), _poly_from_json(m["poly"], ring)) for m in obj.get("multipliers", [])
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
    try:
        ring = Ring.from_json(obj.get("ring", {"kind": "rational"}))
        axioms = EquationSet(ring, tuple(_poly_from_json(t, ring) for t in obj["axioms"]))
        cert = NsCertificate(
            axioms=axioms,
            multipliers=tuple(
                (_index_from_json(m["axiom"]), _poly_from_json(m["poly"], ring))
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ProofFormatError(f"cannot read {path}: {exc}") from exc


def dump_json(obj: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
