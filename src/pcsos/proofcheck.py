"""Verifiers for PC / PC-rad / PC+ derivations and static certificates.

A derivation is a line sequence; every line carries a justification and the
checker replays each rule as an exact polynomial identity.  Static objects
(sum-of-squares and Nullstellensatz certificates) are verified as one big
symbolic identity, expanded by one algebra.expand call, as is the
recomposition that a PC+ sum-of-squares step checks.  Degree accounting is
exact: the degree of a derivation is the maximum degree of any line, and
the degree of a certificate is the maximum degree of any summand.

Both static systems share one certificate type, SosCertificate, with one
file form read under the file's ring.  A Nullstellensatz certificate is one
without squares, weights or a constant, over any ring; check_sos admits
only the rationals.

The three systems share one line format and differ only in the rules they
admit, so each justification kind is defined once, in RULES, for the
checker, the builder, the JSON codecs and the replays in degsearch and
radical elimination.  The eps-simulation keeps its own case analysis: its
cases are the simulation itself, and a per-rule hook for them here would
make the kernel branch on one of its callers.

The PC+ sum-of-squares step concludes w^2 = 0 from p = w^2 + sum_j c_j q_j^2
with rationals c_j > 0.  It is sound because over the reals such a sum
vanishes only where every summand does.  Over GF(p) a sum of nonzero
squares can vanish (1^2 + 2^2 = 0 mod 5), so it is admitted only over Q.

Structural defects (bad indices, wrong ring, malformed witnesses) raise
ProofStructureError; proofs that are well-formed but wrong yield an invalid
CheckReport with the offending line and mismatch polynomial.

The JSON codecs do each piece of work once per file.  A decode parses each
distinct polynomial text once, and equal texts in one file share that one
immutable Polynomial; an encode formats each polynomial object once, and
each monomial of its multi-term polynomials once.  The memos belong to one
codec call, so nothing is kept between files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Callable

from .algebra import (
    MINUS_INF,
    AlgebraError,
    EquationSet,
    Polynomial,
    Ring,
    expand,
    format_poly,
    format_rational,
    parse_natural,
    parse_poly,
    parse_rational,
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


class _WeightedSquares:
    """Squares, each with a positive rational weight; an empty weights
    tuple means every weight is 1."""

    def weighted_squares(self):
        """(square, weight) pairs."""
        return zip(self.squares, self.weights or repeat(1))


@dataclass(frozen=True)
class Sos(_WeightedSquares):
    i: int
    witness: Polynomial
    squares: tuple[Polynomial, ...]
    weights: tuple[Fraction | int, ...] = ()


Justification = Axiom | ZeroIntro | BoolAxiom | Add | Mul | Radical | Sos


# -- the rule table ----------------------------------------------------


def _index_from_json(value) -> int:
    if type(value) is not int:  # bool is an int subclass, and not an index
        raise ProofFormatError(f"bad line or axiom index {value!r}, expected an integer")
    return value


def _var_from_json(name) -> int:
    try:
        return parse_natural(name[1:] if isinstance(name, str) and name.startswith("x") else None)
    except AlgebraError:
        raise ProofFormatError(f"bad variable name {name!r:.60}, expected like 'x3'") from None


class _Reader:
    """The polynomial decoder of one file: each distinct text is parsed
    once, and its copies share that Polynomial (and its cached degree)."""

    def __init__(self, ring: Ring):
        self.ring = ring
        self._polys: dict[str, Polynomial] = {}

    def poly(self, text) -> Polynomial:
        if not isinstance(text, str):
            raise ProofFormatError(f"expected polynomial text, got {text!r}")
        poly = self._polys.get(text)
        if poly is None:
            try:
                poly = self._polys[text] = parse_poly(text, self.ring)
            except AlgebraError as exc:
                raise ProofFormatError(str(exc)) from exc
        return poly

    def polys(self, texts) -> tuple[Polynomial, ...]:
        # a string or an object would iterate as characters or keys
        if not isinstance(texts, list):
            raise ProofFormatError(f"expected a list of polynomial texts, got {texts!r:.60}")
        return tuple(map(self.poly, texts))


class _Writer:
    """The polynomial encoder of one object: each polynomial object is
    formatted once, and the monomials of its multi-term polynomials get
    their text and sort key once for the whole object.  The polynomial memo
    is keyed by id(), which is sound because the object being written keeps
    every polynomial in it alive for the call."""

    def __init__(self):
        self._texts: dict[int, str] = {}
        self._monos: dict = {}  # the monomial table of format_poly

    def poly(self, p: Polynomial) -> str:
        text = self._texts.get(id(p))
        if text is None:
            text = self._texts[id(p)] = format_poly(p, self._monos)
        return text

    def polys(self, ps) -> list[str]:
        return list(map(self.poly, ps))


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

    to_json: Callable  # (_Writer, value) -> JSON value
    from_json: Callable  # (_Reader, JSON value) -> value, or ProofFormatError
    cite: Callable | None = None  # (lines, axioms, line index, value) -> cited polynomial
    # (ring, line renumbering, value) -> the value in a derivation so renumbered
    relabel: Callable = lambda ring, line_of, value: value


LINE = _Codec(
    lambda out, i: int(i), lambda src, v: _index_from_json(v), _cite_line,
    lambda ring, line_of, i: line_of(i),
)
AXIOM = _Codec(lambda out, i: int(i), lambda src, v: _index_from_json(v), _cite_axiom)
VAR = _Codec(lambda out, v: f"x{v}", lambda src, v: _var_from_json(v))
COEFF = _Codec(
    lambda out, c: format_rational(c), lambda src, v: src.ring.coerce(parse_rational(v)),
    relabel=lambda ring, line_of, c: ring.coerce(c),
)
POLY = _Codec(_Writer.poly, _Reader.poly)
POLYS = _Codec(_Writer.polys, _Reader.polys)


def _weights_to_json(out, weights) -> list[str] | None:
    """None, so the key is left out as files without weights have it, when every weight is 1."""
    return list(map(format_rational, weights)) if any(w != 1 for w in weights) else None


def _weights_from_json(src, values) -> tuple[Fraction, ...]:
    if not isinstance(values, list):
        raise ProofFormatError(f"weights must be a list of rationals, got {values!r:.60}")
    return tuple(map(parse_rational, values))


WEIGHTS = _Codec(_weights_to_json, _weights_from_json)


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
    rational: bool = False  # admitted only over the rationals


def _bool_poly(ring: Ring, var: int) -> Polynomial:
    """x^2 - x, its terms in the order x * x - x gives them."""
    return Polynomial._raw(ring, {((var, 2),): 1, ((var, 1),): ring.coerce(-1)})


def _diff(a: Polynomial, b: Polynomial) -> Polynomial | None:
    # canonical terms: equal dicts exactly when the difference is zero
    return None if a == b else a - b


def _add_conclusion(ring: Ring, just: Add, premises, claimed) -> Polynomial:
    p, q = premises
    return p.scale(just.a) + q.scale(just.b)


def _sos_recomposition(just: Sos, premises, conclusion: Polynomial) -> Polynomial | None:
    """The cited line must be witness^2 + sum_j c_j q_j^2 with one weight
    c_j > 0 per square; else the cited line is the mismatch."""
    if just.weights and len(just.weights) != len(just.squares) or any(c <= 0 for c in just.weights):
        return premises[0]
    squares = ((just.witness, 1), *just.weighted_squares())
    return _diff(premises[0], expand(premises[0].ring, squares=squares))


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
            "sos", Sos,
            (
                _I, _Field("p", POLY, "witness"), _Field("squares", POLYS, default=[]),
                _Field("weights", WEIGHTS, default=[]),
            ),
            (PC_PLUS,), lambda ring, just, ps, _: just.witness * just.witness,
            side=_sos_recomposition, rational=True,
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
    """A line sequence over an axiom set, which holds its ring and Boolean axioms."""

    system: str
    axioms: EquationSet
    lines: tuple[tuple[Polynomial, Justification], ...]

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ProofStructureError(f"unknown system {self.system!r}")

    @property
    def ring(self) -> Ring:
        return self.axioms.ring

    def final_polynomial(self) -> Polynomial:
        if not self.lines:
            raise ProofStructureError("empty derivation")
        return self.lines[-1][0]


@dataclass(frozen=True)
class SosCertificate(_WeightedSquares):
    """Static witness for  sum_i r_i p_i + sum_v b_v (x_v^2-x_v) + sum_j w_j s_j^2 + const == target.

    The weighted squares sum_j w_j s_j^2 are the weighted form of a Gram
    matrix.  A Nullstellensatz certificate is one without squares, weights
    or a constant: SosCertificate(axioms, multipliers, target).
    """

    axioms: EquationSet  # its ring, and its boolean_axioms admits the bool multipliers
    multipliers: tuple[tuple[int, Polynomial], ...]
    target: Polynomial
    squares: tuple[Polynomial, ...] = ()
    bool_multipliers: tuple[tuple[int, Polynomial], ...] = ()
    constant: Fraction | int = 0
    weights: tuple[Fraction, ...] = ()


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


# -- dynamic checker ---------------------------------------------------


def check_derivation(d: Derivation) -> CheckReport:
    """Replay every line of a PC / PC-rad / PC+ derivation exactly."""
    ring = d.ring
    uses_radical = any(isinstance(j, Radical) for _, j in d.lines)
    uses_sos = any(isinstance(j, Sos) for _, j in d.lines)
    degree = MINUS_INF
    failure = None

    for idx, (poly, just) in enumerate(d.lines):
        if poly.ring is not ring and poly.ring != ring:
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
    if d.system not in rule.systems or (rule.boolean and not d.axioms.boolean_axioms) or (
        rule.rational and not d.ring.is_rational
    ):
        return poly  # the rule is not available in this derivation
    conclusion = rule.conclude(d.ring, just, premises, poly)
    mismatch = rule.side(just, premises, conclusion) if rule.side else None
    return mismatch if mismatch is not None else _diff(poly, conclusion)


# -- static checkers ---------------------------------------------------


# Both static checkers refuse what their system does not admit and then
# check one identity in _check_static: the multipliers times their axioms,
# the Boolean multipliers times x^2 - x, the weighted squares, the constant
# and minus the target go to one algebra.expand call, whose result is the
# mismatch.  A certificate's degree is the largest degree of its
# summands (2 deg s for each nonzero square), not read off the expansion.


def check_sos(c: SosCertificate) -> CheckReport:
    if not c.axioms.ring.is_rational:
        raise ProofStructureError("sum-of-squares certificates require the rational ring")
    if c.constant < 0:
        raise ProofStructureError(f"negative certificate constant {c.constant}")
    if c.weights and len(c.weights) != len(c.squares):
        raise ProofStructureError(f"{len(c.weights)} weights for {len(c.squares)} squares")
    for w in c.weights:
        if w <= 0:
            raise ProofStructureError(f"non-positive square weight {w}")
    return _check_static(c, c.target.is_constant and c.target.constant_value() < 0)


def check_nullstellensatz(c: SosCertificate) -> CheckReport:
    extra = [key for key in ("squares", "weights", "constant") if getattr(c, key)]
    if extra:
        raise ProofStructureError(f"Nullstellensatz certificates admit no {', '.join(extra)}")
    return _check_static(c, c.target == Polynomial.const(c.axioms.ring, 1))


def _check_static(c: SosCertificate, refutes: bool) -> CheckReport:
    """Report on c's identity; valid means it sums to c.target."""
    ring = c.axioms.ring
    if c.bool_multipliers and not c.axioms.boolean_axioms:
        raise ProofStructureError("bool multipliers present but boolean flag is false")
    products = [(r, _bool_poly(ring, v)) for v, r in c.bool_multipliers]
    for k, r in c.multipliers:
        if not (0 <= k < len(c.axioms)):
            raise ProofStructureError(f"multiplier cites axiom {k} out of range")
        products.append((r, c.axioms[k]))
    squares = tuple(c.weighted_squares())
    degree = max(
        [0 if c.constant else MINUS_INF]
        + [2 * s.degree for s, _ in squares]
        + [r.degree + p.degree for r, p in products]
    )
    one = Polynomial.const(ring, 1)
    products += [(Polynomial.const(ring, c.constant), one), (Polynomial.const(ring, -1), c.target)]
    mismatch = expand(ring, products, squares)
    if mismatch.is_zero:
        return CheckReport(True, degree, refutation=refutes)
    return CheckReport(False, degree, failure=(-1, mismatch))


def normalize_refutation(c: SosCertificate) -> SosCertificate:
    """Rescale a target -c refutation (c > 0) to the standard target -1.

    Every multiplier, the constant and every square weight is multiplied
    by 1/c; the squares themselves, and so the degree, are unchanged.
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
    return SosCertificate(
        axioms=c.axioms,
        multipliers=tuple((k, r.scale(scale)) for k, r in c.multipliers),
        bool_multipliers=tuple((v, r.scale(scale)) for v, r in c.bool_multipliers),
        squares=c.squares,
        constant=c.constant * scale,
        target=target,
        weights=tuple(w * scale for _, w in c.weighted_squares()),
    )


# -- derivation builder ------------------------------------------------


def _boolean_cofactors(g: Polynomial) -> dict[int, Polynomial]:
    """Cofactors q_v with g - ml(g) = sum_v (x_v^2 - x_v) q_v.

    Each monomial is walked down one variable at a time: with the monomial
    r * x^e and e >= 2, r x^e - r x = (x^2 - x) r (1 + x + ... + x^(e-2)).
    """
    ring = g.ring
    acc: dict[int, dict] = {}
    for mono, coeff in g.terms.items():
        for k, (var, exp) in enumerate(mono):
            if exp < 2:
                continue
            head = tuple((v, 1) for v, _ in mono[:k])  # already walked down
            tail = mono[k + 1 :]
            terms = acc.setdefault(var, {})
            for j in range(exp - 1):
                m = head + ((var, j),) + tail if j else head + tail
                terms[m] = terms.get(m, 0) + coeff
    return {var: Polynomial(ring, terms) for var, terms in acc.items()}


class DerivationBuilder:
    """Incrementally assembles a valid derivation, caching duplicate lines.

    Every emit method returns the index of a line whose polynomial is known,
    so compilers can build on intermediate results without re-deriving them.
    Each line's polynomial is the conclusion its rule licenses, computed by
    the same table entry the checker replays.
    """

    def __init__(self, system: str, axioms: EquationSet):
        self.system = system
        self.axioms = axioms
        self._lines: list[tuple[Polynomial, Justification]] = []
        self._by_key: dict = {}

    def __len__(self):
        return len(self._lines)

    @property
    def ring(self) -> Ring:
        return self.axioms.ring

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
        if a == 1:
            return i
        return self.add(i, i, a, 0)

    def mul_var(self, i: int, var: int) -> int:
        return self.derive(Mul(i, var))

    def radical_of(self, i: int, root: Polynomial) -> int:
        return self.derive(Radical(i), root)

    def sos_step(self, i: int, witness: Polynomial, squares: tuple[Polynomial, ...], weights=()) -> int:
        """All-one weights are stored as (), the form a file without weights reads as."""
        weights = tuple(weights) if any(c != 1 for c in weights) else ()
        return self.derive(Sos(i, witness, tuple(squares), weights))

    def ensure_last(self, i: int) -> int:
        """Restate line i at the end of the derivation if it is not already there."""
        if i == len(self._lines) - 1:
            return i
        return self._emit(self.poly(i), Add(i, i, 1, 0))

    def mul_monomial(self, i: int, mono: tuple) -> int:
        for var, exp in mono:
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
                nxt.append((self.add(i, j, a, b), 1))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        idx, coeff = layer[0]
        return self.scale_line(idx, coeff)

    def boolean_reduce(self, i: int, target: Polynomial) -> int:
        """Line with polynomial target, from line i whose polynomial has the
        same multilinear form: subtracts the Boolean-axiom multiples
        sum_v (x_v^2 - x_v) q_v that make up poly(i) - target."""
        parts = [(i, 1)]
        for var, q in sorted(_boolean_cofactors(self.poly(i) - target).items()):
            parts.append((self.mul_poly(self.bool_axiom(var), q), -1))
        line = self.combination(parts)
        if self.poly(line) != target:
            raise ProofStructureError("boolean reduction: the multilinear forms differ")
        return line

    def build(self) -> Derivation:
        """The derivation so far; a bool line turns the Boolean axioms on."""
        axioms = self.axioms
        if not axioms.boolean_axioms and any(rule_of(j).boolean for _, j in self._lines):
            axioms = replace(axioms, boolean_axioms=True)
        return Derivation(self.system, axioms, tuple(self._lines))


# -- JSON file formats -------------------------------------------------


def derivation_to_json(d: Derivation) -> dict:
    out = _Writer()
    lines = []
    for poly, just in d.lines:
        rule = rule_of(just)
        entry = {"kind": rule.kind}
        for f in rule.fields:
            value = f.codec.to_json(out, getattr(just, f.name))
            if value is not None:  # None: a default the file leaves out
                entry[f.key] = value
        lines.append({"poly": out.poly(poly), "rule": entry})
    return {
        "system": d.system,
        "ring": d.ring.to_json(),
        "boolean_axioms": d.axioms.boolean_axioms,
        "axioms": out.polys(d.axioms),
        "lines": lines,
    }


def _require_object(obj, what: str) -> None:
    """Reject a file whose top level is not a JSON object."""
    if not isinstance(obj, dict):
        raise ProofFormatError(f"malformed {what} file: expected a JSON object, got {type(obj).__name__}")


def _flag_from_json(obj: dict, key: str) -> bool:
    """An optional JSON boolean, false when absent; any other value is malformed."""
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise ProofFormatError(f"{key!r} must be true or false, got {value!r:.60}")
    return value


def derivation_from_json(obj: dict) -> Derivation:
    _require_object(obj, "proof")
    try:
        ring = Ring.from_json(obj["ring"])
        src = _Reader(ring)
        system = obj["system"]
        if system not in SYSTEMS:
            raise ProofFormatError(f"unknown system {system!r:.60}")
        axioms = EquationSet(ring, src.polys(obj["axioms"]), _flag_from_json(obj, "boolean_axioms"))
        entries = obj["lines"]
        # a string or an object would iterate as characters or keys
        if not isinstance(entries, list):
            raise ProofFormatError(f"expected a list of proof lines, got {entries!r:.60}")
        lines = []
        for k, entry in enumerate(entries):
            if not (isinstance(entry, dict) and "poly" in entry and isinstance(entry.get("rule"), dict)):
                raise ProofFormatError(
                    f"line {k}: expected an object with 'poly' and an object 'rule', got {entry!r:.60}"
                )
            poly = src.poly(entry["poly"])
            spec = entry["rule"]
            rule = _RULE_OF_KIND.get(spec["kind"])
            if rule is None:
                raise ProofFormatError(f"unknown rule kind {spec['kind']!r}")
            values = {
                f.name: f.codec.from_json(
                    src, spec[f.key] if f.default is None else spec.get(f.key, f.default)
                )
                for f in rule.fields
            }
            lines.append((poly, rule.cls(**values)))
        return Derivation(system, axioms, tuple(lines))
    except (KeyError, TypeError, AlgebraError) as exc:
        raise ProofFormatError(f"malformed proof file: {exc}") from exc


def sos_to_json(c: SosCertificate) -> dict:
    """The ring is written only when it is not Q, as weights only when not all one."""
    out = _Writer()
    obj = {
        "boolean": c.axioms.boolean_axioms,
        "axioms": out.polys(c.axioms),
        "target": out.poly(c.target),
        "multipliers": [{"axiom": k, "poly": out.poly(r)} for k, r in c.multipliers],
        "bool_multipliers": [{"var": f"x{v}", "poly": out.poly(r)} for v, r in c.bool_multipliers],
        "squares": out.polys(c.squares),
        "constant": format_rational(c.constant),
    }
    if not c.axioms.ring.is_rational:
        obj["ring"] = c.axioms.ring.to_json()
    weights = _weights_to_json(out, c.weights)
    if weights is not None:
        obj["weights"] = weights
    return obj


def _certificate_weights(obj: dict, squares: int) -> tuple[Fraction, ...]:
    if "weights" not in obj:
        return ()
    weights = _weights_from_json(None, obj["weights"])
    if len(weights) != squares or any(w <= 0 for w in weights):
        raise ProofFormatError(f"weights must be a list of {squares} positive rationals, one per square")
    return weights


def sos_from_json(obj: dict) -> SosCertificate:
    """An SoS or Nullstellensatz certificate, every key read under its ring (Q when absent)."""
    _require_object(obj, "certificate")
    try:
        ring = Ring.from_json(obj.get("ring", {"kind": "rational"}))
        src = _Reader(ring)
        axioms = EquationSet(ring, src.polys(obj["axioms"]), _flag_from_json(obj, "boolean"))
        constant = ring.coerce(parse_rational(obj.get("constant", 0)))
        squares = src.polys(obj.get("squares", []))
        return SosCertificate(
            axioms=axioms,
            multipliers=tuple(
                (_index_from_json(m["axiom"]), src.poly(m["poly"]))
                for m in obj.get("multipliers", [])
            ),
            bool_multipliers=tuple(
                (_var_from_json(m["var"]), src.poly(m["poly"]))
                for m in obj.get("bool_multipliers", [])
            ),
            squares=squares,
            constant=constant,
            target=src.poly(obj["target"]),
            weights=_certificate_weights(obj, len(squares)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProofFormatError(f"malformed certificate file: {exc}") from exc


def eqset_to_json(eqs: EquationSet) -> dict:
    return {
        "ring": eqs.ring.to_json(),
        "boolean_axioms": eqs.boolean_axioms,
        "equations": _Writer().polys(eqs),
    }


def eqset_from_json(obj: dict) -> EquationSet:
    _require_object(obj, "equation set")
    try:
        ring = Ring.from_json(obj.get("ring", {"kind": "rational"}))
        equations = _Reader(ring).polys(obj["equations"])
        return EquationSet(ring, equations, _flag_from_json(obj, "boolean_axioms"))
    except (KeyError, TypeError, AlgebraError) as exc:
        raise ProofFormatError(f"malformed equation set file: {exc}") from exc


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    # ValueError: malformed JSON, a non-ASCII byte, or an integer past the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ProofFormatError(f"cannot read {path}: {exc}") from exc


def dump_json(obj: dict, path) -> None:
    """Write obj as compact, key-sorted ASCII JSON on one line and a newline,
    in one write.  Without indent json.dumps runs CPython's C encoder."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
