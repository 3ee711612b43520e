"""Sequent calculus kernel and its compiler into line-style derivations.

A proof is a tree of inference nodes, each carrying its conclusion
sequent, so checking is local: every node must instantiate its rule
schema, every formula must lie in the translatable inductive class, and
eigenvariable side conditions must hold.  Theory axioms about the ring
are verified symbolically: the ring-term interpreter of `fol` lands terms
in polynomials over opaque atoms (oracle applications, registry ring
functions, irreducible big sums), literal big sums unfold, and
successor-shaped bounds peel once, so an accepted axiom instance
translates to a polynomial identity under every assignment.

Compilation is the rule-by-rule translation into a derivation of the
succedent's product translation (`fol.member_products`) from the
antecedent's union translation.  Antecedent-side rules are pass-throughs;
right contraction squares and applies the radical rule; a bounded
universal on the right takes the union of its instances.  Cut, induction
and or-l emit each premise through one step, at the scale times a factor
and with the side antecedents' lines winning over the assumed ones; with
a succedent member q as the factor, the radical rule collapses the
derived q^2 back to q.  Induction takes one stage per value below the
bound; or-l cuts away one disjunct at a time, as cut does.
Sum-of-squares and Boolean axiom sequents compile through the
sum-of-squares and radical rules and therefore require the pc_plus
target; the sum-of-squares axiom also requires the rational ring, as the
kernel's sum-of-squares step does.

Each rule is defined once, in RULES, keyed by its name: its premise
count, the codecs of its parameters (for the JSON reader and writer and
for values given through the Python API), its schema check, its compile
step, the compile targets that admit it and whether it needs the
rationals.  A check returns what it resolves (the principal formula, the
chosen part, the induction contexts) and the compile step receives it;
neither writes into the proof.  compile_lkr reads target and ring
support from RULES for every node of the checked proof before it emits a
line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .algebra import RATIONAL, EquationSet, Polynomial, Ring
from .errors import UnsupportedConstruct
from .proofcheck import PC_PLUS, PC_RAD, Derivation, DerivationBuilder
from . import fol
from .fol import (
    And,
    BigSum,
    ClassificationError,
    ForallIdx,
    Formula,
    FunctionRegistry,
    IdxApp,
    IdxEq,
    IdxLit,
    IdxLt,
    IdxVar,
    IndexTerm,
    Or,
    OracleAt,
    PolyModel,
    RingConst,
    RingEq,
    RingOp,
    RingTerm,
    classify_indpc,
    eval_formula,
    eval_index,
    format_formula,
    free_index_vars,
    member_products,
    mentions_oracle,
    parse_formula,
    parse_index_term,
    parse_ring_term,
    ring_value,
    substitute_index,
)

SUM_UNFOLD_CAP = 256
# Deepest proof read, in nodes from the root to a leaf.  Reading, checking
# and compiling recurse a few Python frames per level, so a proof at this
# depth stays inside the interpreter's default limit of 1000 frames.
MAX_PROOF_DEPTH = 200
_ZERO = RingConst(Fraction(0))


class LkrError(ValueError):
    pass


class CompileError(LkrError):
    pass


@dataclass(frozen=True)
class Sequent:
    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]


@dataclass(frozen=True)
class LkrNode:
    rule: str
    conclusion: Sequent
    premises: tuple["LkrNode", ...] = ()
    params: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass
class LkrReport:
    valid: bool
    node: tuple[int, ...] | None = None
    reason: str = ""


# -- multiset helpers ---------------------------------------------------


def _same(a, b) -> bool:
    """a and b are equal as multisets."""
    return len(a) == len(b) and _minus(a, b) == ()


def _minus(larger: tuple, smaller: tuple) -> tuple | None:
    """larger with one occurrence of each item of smaller removed, in order;
    None when smaller is not a sub-multiset."""
    rest = list(larger)
    for x in smaller:
        try:
            rest.remove(x)
        except ValueError:
            return None
    return tuple(rest)


def _names(text: str) -> set[str]:
    return {tok for tok in text.replace("(", " ").replace(")", " ").split() if tok.isidentifier()}


# -- symbolic ring identities -------------------------------------------


class _AtomModel(PolyModel):
    """Ring terms as rational polynomials over interned opaque atoms.

    An index term denotes a key: ("lit", n) when it evaluates, else a
    structural key, and alpha maps bound names to keys.  The body of a sum
    that stays opaque is keyed with its variable named by the nesting depth
    of opaque sums, so nested sums over different variables stay apart.
    """

    def __init__(self, reg: FunctionRegistry):
        super().__init__(reg, RATIONAL)
        self.atoms: dict = {}
        self.depth = 0

    def _atom(self, key) -> Polynomial:
        return Polynomial.variable(RATIONAL, self.atoms.setdefault(key, len(self.atoms)))

    def key(self, term: IndexTerm, alpha):
        match term:
            case IdxLit(v):
                return ("lit", v)
            case IdxVar(name):
                return alpha.get(name, ("var", name))
            case IdxApp(fn, args):
                keys = tuple(self.key(a, alpha) for a in args)
                if all(k[0] == "lit" for k in keys):
                    return ("lit", self.reg.index_apply(fn, tuple(k[1] for k in keys)))
                return ("app", fn) + keys
        raise fol.FolError(f"bad index term {term!r}")

    def at(self, index, alpha) -> Polynomial:
        return self._atom(("X", self.key(index, alpha)))

    def apply(self, fn: str, args: tuple, alpha) -> Polynomial:
        keys = tuple(self.key(a, alpha) for a in args)
        if all(k[0] == "lit" for k in keys):
            return self.const(self.reg.ring_apply(fn, tuple(k[1] for k in keys)))
        return self._atom(("rfn", fn) + keys)

    def big_sum(self, var, bound, body, alpha) -> Polynomial:
        return self._sum(var, self.key(bound, alpha), body, alpha)

    def _sum(self, var, bkey, body, alpha) -> Polynomial:
        if bkey[0] == "lit" and bkey[1] <= SUM_UNFOLD_CAP:
            n = bkey[1]
            return self.total(ring_value(body, {**alpha, var: ("lit", j)}, self) for j in self.instances(n))
        if bkey[:2] == ("app", "+") and bkey[3:] == (("lit", 1),):
            # peel one step: sum_{i<b+1} t(i) = sum_{i<b} t(i) + t(b)
            base = bkey[2]
            return self._sum(var, base, body, alpha) + ring_value(body, {**alpha, var: base}, self)
        self.depth += 1
        inner = ring_value(body, {**alpha, var: ("bound", self.depth)}, self)
        self.depth -= 1
        return self._atom(("sum", bkey, tuple(sorted(inner.terms.items()))))


def ring_identity(s: RingTerm, t: RingTerm, reg: FunctionRegistry) -> bool:
    """True when both terms normalize to the same polynomial over atoms,
    hence translate identically under every assignment."""
    return linear_combination_identity(RingEq(s, t), (), (), reg)


def linear_combination_identity(
    succ: RingEq, antes, multipliers, reg: FunctionRegistry
) -> bool:
    """True when succ is the sum of multipliers[k] times antes[k], as
    polynomials over atoms."""
    model = _AtomModel(reg)

    def poly(term):
        return ring_value(term, {}, model)

    delta = poly(succ.left) - poly(succ.right)
    for eq, h in zip(antes, multipliers):
        delta = delta - poly(h) * (poly(eq.left) - poly(eq.right))
    return delta.is_zero


# -- node parameters ------------------------------------------------------


@dataclass(frozen=True)
class _Codec:
    """One node parameter: s-expression text in JSON; from the Python API
    also the AST itself.  Decoding yields the AST, encoding the text."""

    kind: object  # the AST type taken as is
    parse: Callable  # (text, reg, scope) -> AST, or FolError / LkrError
    many: bool = False  # a list of such values
    required: bool = True

    def decode(self, value, reg: FunctionRegistry):
        if not self.many:
            return self._one(value, reg)
        if not isinstance(value, (list, tuple)):
            raise LkrError(f"expected a list, got {value!r}")
        return tuple(self._one(v, reg) for v in value)

    def _one(self, value, reg):
        if isinstance(value, str):
            return self.parse(value, reg, _names(value))
        if isinstance(value, self.kind):
            return value
        raise LkrError(f"expected an s-expression string, got {value!r}")

    def encode(self, value):
        return [self._text(v) for v in value] if self.many else self._text(value)

    @staticmethod
    def _text(value) -> str:
        return value if isinstance(value, str) else format_formula(value)


def _parse_var(text, reg, scope) -> str:
    if not text.strip().isidentifier():
        raise LkrError(f"expected an index variable name, got {text!r}")
    return text.strip()


_TERM = _Codec(IndexTerm, parse_index_term)
_FORMULA = _Codec(Formula, parse_formula)
_FORMULAS = _Codec(Formula, parse_formula, many=True)
_VAR = _Codec(str, _parse_var)
_MULTIPLIERS = _Codec(RingTerm, parse_ring_term, many=True, required=False)


def _decode(rule: str, params, reg) -> dict:
    """The parameters of a rule-node as ASTs; absent optional ones are left out."""
    codecs = RULES[rule].params
    if not isinstance(params, dict):
        raise LkrError(f"{rule} parameters must be an object, got {params!r}")
    unknown = sorted(set(params) - set(codecs))
    if unknown:
        raise LkrError(f"{rule} takes no parameter {unknown[0]!r}")
    out = {}
    for key, codec in codecs.items():
        value = params.get(key)
        if value is not None:
            try:
                out[key] = codec.decode(value, reg)
            except (LkrError, fol.FolError) as exc:
                raise LkrError(f"{rule} parameter {key!r}: {exc}") from exc
        elif codec.required:
            raise LkrError(f"{rule} requires the {key!r} parameter")
    return out


# -- structural checking -------------------------------------------------


class _CheckFailure(Exception):
    def __init__(self, path, reason):
        super().__init__(reason)
        self.path = path
        self.reason = reason


def _fail(path, reason):
    raise _CheckFailure(path, reason)


@dataclass(frozen=True)
class _Step:
    """A checked node: its rule, decoded parameters, what the schema check
    resolved, and its checked premises."""

    node: LkrNode
    rule: "Rule"
    args: dict
    found: object
    premises: tuple["_Step", ...]


def check_lkr(proof: LkrNode, reg: FunctionRegistry) -> LkrReport:
    try:
        _check(proof, reg, ())
    except _CheckFailure as fail:
        return LkrReport(False, fail.path, fail.reason)
    return LkrReport(True)


def _check(node: LkrNode, reg: FunctionRegistry, path) -> _Step:
    if len(path) == MAX_PROOF_DEPTH:  # a proof built in Python, not read from a file
        _fail(path, f"proof nested deeper than {MAX_PROOF_DEPTH} levels")
    rule = RULES.get(node.rule)
    if rule is None:
        raise UnsupportedConstruct(f"unknown rule {node.rule!r}")
    for phi in node.conclusion.ante + node.conclusion.succ:
        ok, why = classify_indpc(phi)
        if not ok:
            _fail(path, f"formula outside the inductive class: {why}")
    if rule.premises is not None and len(node.premises) != rule.premises:
        _fail(path, f"{node.rule} expects {rule.premises} premises, got {len(node.premises)}")
    try:
        args = _decode(node.rule, node.params, reg)
    except LkrError as exc:
        _fail(path, str(exc))
    try:
        found = rule.check(node, args, reg, path)
    except fol.FolError as exc:
        _fail(path, f"{node.rule}: {exc}")
    premises = tuple(_check(p, reg, path + (k,)) for k, p in enumerate(node.premises))
    return _Step(node, rule, args, found, premises)


def _check_logical_axiom(node, args, reg, path):
    match node.conclusion:
        case Sequent((phi,), (psi,)) if phi == psi:
            return
    _fail(path, "logical axiom must be  phi -> phi")


def _check_ring_axiom(node, args, reg, path):
    match node.conclusion:
        case Sequent((), (RingEq(s, t),)):
            if not ring_identity(s, t, reg):
                _fail(path, f"{node.rule} sides do not normalize to the same polynomial")
        case _:
            _fail(path, f"{node.rule} must have shape  -> s = t")


def _check_integral_domain(node, args, reg, path):
    match node.conclusion:
        case Sequent((RingEq(RingOp("*", s, t), RingConst(0)),), succ) if succ == (
            RingEq(s, _ZERO),
            RingEq(t, _ZERO),
        ):
            return
    _fail(path, "integral domain axiom must be  s*t = 0 -> s = 0, t = 0")


def _check_equality(node, args, reg, path):
    conc = node.conclusion
    if len(conc.succ) != 1:
        _fail(path, "equality axiom needs a single succedent formula")
    succ = conc.succ[0]
    multipliers = args.get("multipliers")
    if multipliers is not None:
        if not isinstance(succ, RingEq) or not all(isinstance(a, RingEq) for a in conc.ante):
            _fail(path, "witnessed equality axiom relates ring equalities")
        if len(multipliers) != len(conc.ante):
            _fail(path, "one multiplier per antecedent equality required")
        if not linear_combination_identity(succ, conc.ante, multipliers, reg):
            _fail(path, "equality witness does not combine to the succedent")
        return
    # congruence form for the oracle and index functions
    if not all(isinstance(a, IdxEq) for a in conc.ante):
        _fail(path, "congruence form requires index equality antecedents")
    if isinstance(succ, RingEq) and isinstance(succ.left, OracleAt) and isinstance(succ.right, OracleAt):
        pairs = [(succ.left.index, succ.right.index)]
    elif isinstance(succ, IdxEq) and isinstance(succ.left, IdxApp) and isinstance(succ.right, IdxApp):
        if succ.left.fn != succ.right.fn or len(succ.left.args) != len(succ.right.args):
            _fail(path, "congruence heads differ")
        pairs = list(zip(succ.left.args, succ.right.args))
    else:
        _fail(path, "unsupported congruence shape")
    needed = [(l, r) for l, r in pairs if l != r]
    given = [(a.left, a.right) for a in conc.ante]
    if needed != given:
        _fail(path, "congruence antecedents must list the differing argument pairs in order")


def _check_background_truth(node, args, reg, path):
    if node.conclusion.ante or len(node.conclusion.succ) != 1:
        _fail(path, "background truth axiom must have shape  -> sigma")
    sigma = node.conclusion.succ[0]
    if mentions_oracle(sigma):
        _fail(path, "background truth sentences cannot mention the oracle")
    if free_index_vars(sigma):
        _fail(path, "background truth sentences must be closed")
    if not eval_formula(sigma, {}, {}, reg):
        _fail(path, "background truth sentence evaluates to false")


def _check_sos_axiom(node, args, reg, path):
    match node.conclusion:
        case Sequent(
            (RingEq(BigSum(var, bound, RingOp("*", body, other)), RingConst(0)), IdxLt(k, limit)),
            (succ,),
        ) if other == body and limit == bound:
            if succ != RingEq(substitute_index(body, var, k), _ZERO):
                _fail(path, "succedent must be the instantiated summand equated to 0")
            return
    _fail(path, "sum-of-squares axiom must be  sum_{i<r} t(i)*t(i) = 0, s < r -> t(s) = 0")


def _check_boolean_axiom(node, args, reg, path):
    match node.conclusion:
        case Sequent(
            (), (RingEq(RingOp("*", OracleAt() as x, RingOp("-", RingConst(1), y)), RingConst(0)),)
        ) if y == x:
            return
    _fail(path, "boolean axiom must be  -> X(r)(1 - X(r)) = 0")


def _sides(rule: str) -> tuple[str, str]:
    """The cedent a one-sided rule acts on (by its -l / -r suffix), and the other."""
    return ("ante", "succ") if rule.endswith("-l") else ("succ", "ante")


_CEDENT = {"ante": "antecedent", "succ": "succedent"}


def _one_sided(node, path):
    """Premise and conclusion sequents, and the acted-on side, of a
    one-premise rule that keeps the other cedent fixed."""
    side, other = _sides(node.rule)
    prem, conc = node.premises[0].conclusion, node.conclusion
    if getattr(prem, other) != getattr(conc, other):
        _fail(path, f"{node.rule} keeps the {_CEDENT[other]} fixed")
    return prem, conc, side


def _check_weakening(node, args, reg, path):
    prem, conc, side = _one_sided(node, path)
    extra = _minus(getattr(conc, side), getattr(prem, side))
    if extra is None or len(extra) != 1:
        _fail(path, "weakening must add exactly one formula")
    return extra[0]


def _check_contraction(node, args, reg, path):
    prem, conc, side = _one_sided(node, path)
    extra = _minus(getattr(prem, side), getattr(conc, side))
    if extra is None or len(extra) != 1 or extra[0] not in getattr(conc, side):
        _fail(path, "contraction must remove one duplicate occurrence")
    return extra[0]


def _principals(node, cls, side, path) -> list:
    candidates = [phi for phi in getattr(node.conclusion, side) if isinstance(phi, cls)]
    if not candidates:
        _fail(path, f"{node.rule} needs a {cls.__name__} formula in the {_CEDENT[side]}")
    return candidates


def _replaces(cls, instances: Callable):
    """Check for one premise that replaces one principal cls formula of the
    acted-on cedent by one of instances(formula, args); it resolves the
    principal formula and the instance."""

    def check(node, args, reg, path):
        prem, conc, side = _one_sided(node, path)
        for target in _principals(node, cls, side, path):
            rest = _minus(getattr(conc, side), (target,))
            for instance in instances(target, args):
                if _same(getattr(prem, side), rest + (instance,)):
                    return target, instance
        _fail(path, f"{node.rule} premise does not replace a {cls.__name__} formula by an instance")

    return check


def _per_part(cls):
    """Check for one premise per part of a principal cls formula, each
    replacing it by that part; it resolves the principal formula."""

    def check(node, args, reg, path):
        side, other = _sides(node.rule)
        conc = node.conclusion
        for target in _principals(node, cls, side, path):
            rest = _minus(getattr(conc, side), (target,))
            if len(node.premises) == len(target.parts) and all(
                getattr(prem.conclusion, other) == getattr(conc, other)
                and _same(getattr(prem.conclusion, side), rest + (part,))
                for prem, part in zip(node.premises, target.parts)
            ):
                return target
        _fail(path, f"{node.rule} premises do not match the parts of any {cls.__name__} formula")

    return check


_check_forall_l = _replaces(
    ForallIdx, lambda t, args: (substitute_index(t.body, t.var, args["term"]),)
)
_generalizes = _replaces(
    ForallIdx, lambda t, args: (substitute_index(t.body, t.var, IdxVar(args["var"])),)
)


def _check_forall_r(node, args, reg, path):
    eigen = args["var"]
    for phi in node.conclusion.ante + node.conclusion.succ:
        if eigen in free_index_vars(phi):
            _fail(path, f"eigenvariable {eigen!r} occurs in the conclusion")
    return _generalizes(node, args, reg, path)


def _check_induction(node, args, reg, path):
    var, template, term = args["var"], args["formula"], args["term"]
    prem, conc = node.premises[0].conclusion, node.conclusion
    phi_0 = substitute_index(template, var, IdxLit(0))
    phi_succ = substitute_index(template, var, IdxApp("+", (IdxVar(var), IdxLit(1))))
    phi_t = substitute_index(template, var, term)
    gamma = _minus(conc.ante, (phi_0,))
    delta = _minus(conc.succ, (phi_t,))
    if gamma is None or delta is None:
        _fail(path, "induction conclusion must contain phi(0) and phi(t)")
    if not _same(prem.ante, gamma + (template,)) or not _same(prem.succ, (phi_succ,) + delta):
        _fail(path, "induction premise must be Gamma, phi(i) -> phi(i+1), Delta")
    for phi in conc.ante + conc.succ:
        if var in free_index_vars(phi):
            _fail(path, f"induction variable {var!r} occurs in the bottom sequent")
    if var in free_index_vars(term):
        _fail(path, "induction bound may not mention the induction variable")
    return gamma, delta


def _check_cut(node, args, reg, path):
    p1, p2 = (p.conclusion for p in node.premises)
    conc = node.conclusion
    phi_candidates = _minus(p1.succ, conc.succ)
    if phi_candidates is None or len(phi_candidates) != 1:
        _fail(path, "cut: left premise must add one formula to the succedent")
    phi = phi_candidates[0]
    if not _same(p1.ante, conc.ante):
        _fail(path, "cut: left premise antecedent must match the conclusion")
    if not _same(p2.ante, (phi,) + conc.ante) or not _same(p2.succ, conc.succ):
        _fail(path, "cut: right premise must assume the cut formula")
    return phi


# -- compilation ---------------------------------------------------------


class _Compiler:
    """Recursive emitter.

    emit(step, alpha, w, asm) returns a map from each member polynomial m
    of the node's succedent translation to a line whose polynomial is m*w;
    asm maps each member g of the antecedent translation to a line with
    polynomial g*w.  The scale w threads products through or-l, induction
    and cut without replaying sub-derivations after the fact.

    A zero scale derives only 0 = 0, so emit answers it with the zero line
    for every member and never calls a compile step: every step sees a
    nonzero w.  Over Q and GF(p) a product is zero exactly when a factor
    is, so a step tests its own factors, never a product with w, and
    mul_poly and _collapse return the zero line for a zero product.  The
    compile steps of RULES are the methods below the helpers.
    """

    builder: DerivationBuilder

    def __init__(self, reg, ring):
        self.reg = reg
        self.ring = ring
        self.model = PolyModel(reg, ring)
        self.one = Polynomial.const(ring, 1)
        # formula -> (its free index variables, {their values: its members});
        # equal formulas share an entry, also when read apart from a file
        self._translations: dict = {}
        # id(formula) -> (the formula, its entry above): spares hashing the
        # tree on every lookup; holding the formula keeps its id from reuse
        self._by_id: dict[int, tuple] = {}

    def emit(self, step: _Step, alpha: dict, w: Polynomial, asm: dict) -> dict:
        if w.is_zero:
            return {m: self.builder.zero() for m in self.right(step.node.conclusion.succ, alpha)}
        return step.rule.compile(self, step, alpha, w, asm)

    # ---- helpers

    def members(self, phi, alpha) -> tuple[Polynomial, ...]:
        """phi's translation under alpha, classified when phi first appears
        and made once per value of the index variables free in phi: the
        others do not change it.  Each formula object is hashed once."""
        hit = self._by_id.get(id(phi))
        if hit is None:
            entry = self._translations.get(phi)
            if entry is None:
                ok, why = classify_indpc(phi)
                if not ok:
                    raise ClassificationError(f"formula is not translatable: {why}")
                entry = self._translations[phi] = (sorted(free_index_vars(phi)), {})
            hit = self._by_id[id(phi)] = (phi, entry)
        free, by_value = hit[1]
        values = tuple([alpha.get(v) for v in free])
        out = by_value.get(values)
        if out is None:
            out = by_value[values] = self.model.translate(phi, alpha)
        return out

    def left(self, formulas, alpha) -> list[Polynomial]:
        """Union translation: the concatenation of the member lists."""
        return [m for phi in formulas for m in self.members(phi, alpha)]

    def right(self, formulas, alpha) -> tuple[Polynomial, ...]:
        """Product translation; the empty succedent yields the unit (1,)."""
        return member_products([self.members(phi, alpha) for phi in formulas], self.ring)

    def _rescaled(self, members, factor: Polynomial, asm: dict) -> dict:
        """Lines for m*(w*factor), for each m of members, from asm's lines at scale w."""
        if factor == self.one:
            return {m: asm[m] for m in members}
        return {m: self.builder.mul_poly(asm[m], factor) for m in members}

    def _premise(self, premise, alpha, w, factor, gamma: dict, assumed: dict) -> dict:
        """The member lines of a premise of cut, induction or or-l, emitted at
        scale w*factor from the lines at that scale of the side antecedents
        (gamma) and of the formulas the rule assumes; a side line wins."""
        return self.emit(premise, alpha, w * factor, {**assumed, **gamma})

    def _collapse(self, line: int, target_poly: Polynomial, square_factor: Polynomial) -> int:
        """From a line with poly target*square_factor, reach target via
        (target*...)^2 and the radical rule, unless already there."""
        if self.builder.poly(line) == target_poly:
            return line
        if target_poly.is_zero:
            return self.builder.zero()
        squared = self.builder.mul_poly(line, square_factor)
        if self.builder.poly(squared) != target_poly * target_poly:
            raise CompileError("internal: square collapse shape mismatch")
        return self.builder.radical_of(squared, target_poly)

    # ---- axiom leaves

    def assumed(self, s, alpha, w, asm):
        """Every succedent member is an antecedent member."""
        return {m: asm[m] for m in self.right(s.node.conclusion.succ, alpha)}

    def identity(self, s, alpha, w, asm):
        """Every succedent member translates to 0."""
        out = {}
        for m in self.right(s.node.conclusion.succ, alpha):
            if not m.is_zero:
                raise CompileError(
                    f"{s.node.rule} instance does not translate to an identity at this assignment"
                )
            out[m] = self.builder.zero()
        return out

    def equality(self, s, alpha, w, asm):
        conc = s.node.conclusion
        target = self.right(conc.succ, alpha)[0]
        antes = self.left(conc.ante, alpha)  # one member per antecedent equality
        if target.is_zero:
            return {target: self.builder.zero()}
        if self.one in antes:
            return {target: self.builder.mul_poly(asm[self.one], target)}
        if "multipliers" not in s.args:
            raise CompileError("congruence instance should translate to 0 = 0")
        parts = []
        for member, h in zip(antes, s.args["multipliers"]):
            h_poly = ring_value(h, alpha, self.model)
            if not (member.is_zero or h_poly.is_zero):
                parts.append((self.builder.mul_poly(asm[member], h_poly), 1))
        line = self.builder.combination(parts)
        if self.builder.poly(line) != target * w:
            raise CompileError("equality witness does not reproduce the succedent translation")
        return {target: line}

    def boolean_axiom(self, s, alpha, w, asm):
        succ = s.node.conclusion.succ
        var = eval_index(succ[0].left.left.index, alpha, self.reg)
        line = self.builder.mul_poly(self.builder.bool_axiom(var), w)
        return {self.right(succ, alpha)[0]: self.builder.scale_line(line, -1)}

    def sos_axiom(self, s, alpha, w, asm):
        head, side = s.node.conclusion.ante
        member = self.right(s.node.conclusion.succ, alpha)[0]
        if member.is_zero:
            return {member: self.builder.zero()}
        if not eval_formula(side, alpha, {}, self.reg, self.ring):
            # vacuous instance: the index bound fails, so 1 is an assumption
            return {member: self.builder.mul_poly(asm[self.one], member)}
        total = self.members(head, alpha)[0]
        big = head.left
        n = eval_index(big.bound, alpha, self.reg)
        k = eval_index(side.left, alpha, self.reg)
        summands = [ring_value(big.body.left, {**alpha, big.var: j}, self.model) for j in range(n)]
        src = asm[total]  # poly total*w
        scaled = self.builder.mul_poly(src, w)  # total*w^2 == sum over j of (T_j w)^2
        witness = summands[k] * w
        squares = tuple(t * w for j, t in enumerate(summands) if j != k and not t.is_zero)
        step = self.builder.sos_step(scaled, witness, squares)
        return {member: self.builder.radical_of(step, witness)}

    # ---- antecedent-side pass-throughs

    def premise(self, s, alpha, w, asm):
        return self.emit(s.premises[0], alpha, w, asm)

    def forall_l(self, s, alpha, w, asm):
        target, _ = s.found
        value = eval_index(s.args["term"], alpha, self.reg)
        bound = eval_index(target.bound, alpha, self.reg)
        if value >= bound:
            raise CompileError(
                f"forall-idx-l instantiates {value}, outside the bound {bound}, at this assignment"
            )
        return self.emit(s.premises[0], alpha, w, asm)

    # ---- succedent-side rules

    def weakening_r(self, s, alpha, w, asm):
        inner = self.emit(s.premises[0], alpha, w, asm)
        extra_members = self.members(s.found, alpha)
        out = {}
        for q, line in inner.items():
            for p in extra_members:
                m = q * p
                if m not in out:
                    out[m] = self.builder.mul_poly(line, p)
        return out

    def contraction_r(self, s, alpha, w, asm):
        phi = s.found
        inner = self.emit(s.premises[0], alpha, w, asm)
        delta_members = self.right(_minus(s.node.conclusion.succ, (phi,)), alpha)
        phi_members = self.members(phi, alpha)
        out = {}
        for q in delta_members:
            for p in phi_members:
                m = q * p
                if m not in out:  # inner[m p] has poly q p^2 w
                    out[m] = self._collapse(inner[m * p], m * w, q * w)
        return out

    def and_r(self, s, alpha, w, asm):
        out = {}
        for prem in s.premises:
            out.update(self.emit(prem, alpha, w, asm))
        return out

    def or_r(self, s, alpha, w, asm):
        target, child = s.found
        k = target.parts.index(child)
        inner = self.emit(s.premises[0], alpha, w, asm)
        parts = [self.members(c, alpha) for c in target.parts]
        # each product member is x*c*y: x from the parts before the child,
        # c from the child and y from the parts after it, left-major
        before, after = member_products(parts[:k], self.ring), member_products(parts[k + 1 :], self.ring)
        out = {}
        for q in self.right(_minus(s.node.conclusion.succ, (target,)), alpha):
            for x, c, y in itertools.product(before, parts[k], after):
                m = q * x * c * y
                if m not in out:
                    base, others = inner[q * c], x * y
                    out[m] = base if others == self.one else self.builder.mul_poly(base, others)
        return out

    def or_l(self, s, alpha, w, asm):
        target, conc = s.found, s.node.conclusion
        gamma = self.left(_minus(conc.ante, (target,)), alpha)
        parts = [self.members(c, alpha) for c in target.parts]
        targets = self.right(conc.succ, alpha)
        # asm holds the lines of the disjunction's members at scale w too
        return self._or_l(s.premises, parts, alpha, w, self.one, gamma, asm, asm, targets)

    def _or_l(self, premises, parts, alpha, w, prefix, gamma, asm, assumed, targets):
        """Lines for q*prefix*w, for each q of targets, from one premise per
        disjunct, or all member lines of the last premise alone.  assumed
        maps each member of the product of parts to a line at scale
        prefix*w, and asm each Gamma member g to a line for g*w.  The first
        disjunct is cut away as cut does: its premise, once per member b of
        the other disjuncts' product, gives q*b at scale prefix*w, which is
        b at the other disjunction's scale prefix*w*q."""
        rest = dict.fromkeys(member_products(parts[1:], self.ring))
        first = {}
        for b in rest:
            gamma_lines = self._rescaled(gamma, prefix * b, asm)
            cut_away = {a: assumed[a * b] for a in parts[0]}
            first[b] = self._premise(premises[0], alpha, w, prefix * b, gamma_lines, cut_away)
        if len(premises) == 1:
            return first[self.one]
        out = {}
        for q in targets:
            if q not in out:
                lines = {b: first[b][q] for b in rest}  # poly q*b*prefix*w
                inner = self._or_l(premises[1:], parts[1:], alpha, w, prefix * q, gamma, asm, lines, [q])
                out[q] = self._collapse(inner[q], q * prefix * w, prefix * w)
        return out

    def forall_r(self, s, alpha, w, asm):
        target, _ = s.found
        eigen = s.args["var"]
        out = {}
        for n in range(eval_index(target.bound, alpha, self.reg)):
            out.update(self.emit(s.premises[0], {**alpha, eigen: n}, w, asm))
        return out

    def induction(self, s, alpha, w, asm):
        gamma, delta = s.found
        var, template = s.args["var"], s.args["formula"]
        steps = eval_index(s.args["term"], alpha, self.reg)
        gamma_members = self.left(gamma, alpha)
        deltas = tuple(dict.fromkeys(self.right(delta, alpha)))

        # stage[q][r] is the line for r*q*w, r a member of phi(n); phi(0)'s
        # lines are rescaled member by member
        now = self.members(template, {**alpha, var: 0})
        stage: dict[Polynomial, dict] = {q: {} for q in deltas}
        for r in now:
            for q in deltas:
                stage[q] |= self._rescaled((r,), q, asm)

        # the Gamma lines at scale w*q are the same at every step: built on first use
        gamma_at: dict[Polynomial, dict] = {}
        for n in range(steps):
            after = self.members(template, {**alpha, var: n + 1})
            for q in deltas:
                if q not in gamma_at:
                    gamma_at[q] = self._rescaled(gamma_members, q, asm)
                result = self._premise(s.premises[0], {**alpha, var: n}, w, q, gamma_at[q], stage[q])
                # result[r*q] has poly r*q^2*w
                stage[q] = {r: self._collapse(result[r * q], r * q * w, r * w) for r in after}
            now = after

        return {r * q: stage[q][r] for r in now for q in deltas}

    def cut(self, s, alpha, w, asm):
        phi_members = self.members(s.found, alpha)
        gamma = self.left(s.node.conclusion.ante, alpha)
        # the left premise once, at scale w, where asm holds the Gamma lines:
        # its line for q*a has poly q*a*w, which is a at the right premise's
        # scale w*q; it gives only 0 = 0 when every member of phi is 0
        nonzero = any(not a.is_zero for a in phi_members)
        left = self._premise(s.premises[0], alpha, w, self.one, asm, {}) if nonzero else None
        out = {}
        for q in self.right(s.node.conclusion.succ, alpha):
            if q not in out:
                assumed = {a: left[q * a] if left else self.builder.zero() for a in phi_members}
                right = self._premise(s.premises[1], alpha, w, q, self._rescaled(gamma, q, asm), assumed)
                out[q] = self._collapse(right[q], q * w, w)  # right[q] has poly q^2*w
        return out


# -- the rule table -------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One sequent rule, defined once for the checker, the compiler and the
    file format.

    check(node, args, reg, path) fails through _fail or returns what it
    resolved; compile(compiler, step, alpha, w, asm) gets it as step.found
    and returns the member lines described on _Compiler.
    """

    premises: int | None  # None: one per part of the principal formula
    check: Callable
    compile: Callable
    params: dict = field(default_factory=dict)  # parameter name -> _Codec
    targets: tuple[str, ...] = (PC_RAD, PC_PLUS)  # the compile targets that admit the rule
    rational: bool = False  # compiled only over the rationals


RULES: dict[str, Rule] = {
    "logical-axiom": Rule(0, _check_logical_axiom, _Compiler.assumed),
    "ring-axiom": Rule(0, _check_ring_axiom, _Compiler.identity),
    "big-sum": Rule(0, _check_ring_axiom, _Compiler.identity),
    "integral-domain": Rule(0, _check_integral_domain, _Compiler.assumed),
    "equality": Rule(0, _check_equality, _Compiler.equality, {"multipliers": _MULTIPLIERS}),
    "background-truth": Rule(0, _check_background_truth, _Compiler.identity),
    "sos-axiom": Rule(0, _check_sos_axiom, _Compiler.sos_axiom, targets=(PC_PLUS,), rational=True),
    "boolean-axiom": Rule(0, _check_boolean_axiom, _Compiler.boolean_axiom, targets=(PC_PLUS,)),
    "weakening-l": Rule(1, _check_weakening, _Compiler.premise),
    "weakening-r": Rule(1, _check_weakening, _Compiler.weakening_r),
    "contraction-l": Rule(1, _check_contraction, _Compiler.premise),
    "contraction-r": Rule(1, _check_contraction, _Compiler.contraction_r),
    "and-l": Rule(1, _replaces(And, lambda t, args: t.parts), _Compiler.premise),
    "and-r": Rule(None, _per_part(And), _Compiler.and_r),
    "or-l": Rule(None, _per_part(Or), _Compiler.or_l),
    "or-r": Rule(1, _replaces(Or, lambda t, args: t.parts), _Compiler.or_r),
    "forall-idx-l": Rule(1, _check_forall_l, _Compiler.forall_l, {"term": _TERM}),
    "forall-idx-r": Rule(1, _check_forall_r, _Compiler.forall_r, {"var": _VAR}),
    "induction": Rule(
        1, _check_induction, _Compiler.induction,
        {"var": _VAR, "formula": _FORMULA, "term": _TERM},
    ),
    "cut": Rule(2, _check_cut, _Compiler.cut),
}


def compile_lkr(
    proof: LkrNode,
    alpha: dict[str, int],
    target: str,
    reg: FunctionRegistry,
    ring: Ring = RATIONAL,
) -> Derivation:
    """Compile a checked proof of Gamma -> Delta, under an index assignment,
    into a derivation of every member of the succedent's product translation
    from the antecedent's union translation.

    When some derived member is a nonzero constant, the derivation is closed
    off with a final rescale to 1, so refutation sequents compile directly
    to refutations.
    """
    if target not in (PC_RAD, PC_PLUS):
        raise UnsupportedConstruct(f"unsupported compile target {target!r}")
    try:
        root = _check(proof, reg, ())
    except _CheckFailure as fail:
        raise LkrError(f"proof rejected at node {fail.path}: {fail.reason}") from None
    steps = [root]
    for step in steps:  # every node, reached at this assignment or not
        if target not in step.rule.targets:
            raise UnsupportedConstruct(
                f"{step.node.rule} sequents require the {' or '.join(step.rule.targets)} target"
            )
        if step.rule.rational and not ring.is_rational:
            raise UnsupportedConstruct(f"{step.node.rule} sequents require the rational ring")
        steps.extend(step.premises)
    missing: set[str] = set()
    for phi in proof.conclusion.ante + proof.conclusion.succ:
        missing |= free_index_vars(phi) - set(alpha)
    if missing:
        raise fol.FolError(f"assignment does not cover index variables {sorted(missing)}")

    compiler = _Compiler(reg, ring)
    gamma_members = compiler.left(proof.conclusion.ante, alpha)
    axioms = EquationSet(ring, tuple(dict.fromkeys(gamma_members)), False)
    builder = compiler.builder = DerivationBuilder(target, axioms)

    index_of = {p: k for k, p in enumerate(axioms.members)}
    asm = {}
    for g in gamma_members:
        asm[g] = builder.zero() if g.is_zero else builder.axiom(index_of[g])

    members = compiler.emit(root, dict(alpha), compiler.one, asm)

    for m, line in members.items():
        if m.is_constant and not m.is_zero:
            unit = builder.add(line, line, ring.inv(m.constant_value()), 0)
            builder.ensure_last(unit)
            break
    return builder.build()


# -- JSON ------------------------------------------------------------------


def sequent_to_json(seq: Sequent) -> dict:
    return {"ante": _FORMULAS.encode(seq.ante), "succ": _FORMULAS.encode(seq.succ)}


def node_to_json(node: LkrNode) -> dict:
    codecs = RULES[node.rule].params
    return {
        "rule": node.rule,
        "conclusion": sequent_to_json(node.conclusion),
        "params": {k: codecs[k].encode(v) for k, v in node.params.items() if v is not None},
        "premises": [node_to_json(p) for p in node.premises],
    }


def sequent_from_json(obj: dict, reg: FunctionRegistry) -> Sequent:
    if not isinstance(obj, dict):
        raise LkrError(f"malformed sequent: expected an object, got {obj!r}")
    try:
        ante, succ = (_FORMULAS.decode(obj.get(key, []), reg) for key in ("ante", "succ"))
    except (LkrError, fol.FolError) as exc:
        raise LkrError(f"malformed sequent: {exc}") from exc
    return Sequent(ante, succ)


def node_from_json(obj: dict, reg: FunctionRegistry, depth: int = 1) -> LkrNode:
    """Read a proof node at `depth` below the root's parent; its parameters
    are decoded to ASTs, so a malformed one fails here with LkrError."""
    if depth > MAX_PROOF_DEPTH:
        raise LkrError(f"proof nested deeper than {MAX_PROOF_DEPTH} levels")
    if not isinstance(obj, dict) or not isinstance(obj.get("rule"), str):
        raise LkrError("malformed proof node: expected an object with a string 'rule'")
    if obj["rule"] not in RULES:
        raise UnsupportedConstruct(f"unknown rule {obj['rule']!r}")
    premises = obj.get("premises", [])
    if not isinstance(premises, list):
        raise LkrError("malformed proof node: 'premises' must be a list")
    premises = tuple(node_from_json(p, reg, depth + 1) for p in premises)
    conclusion = sequent_from_json(obj.get("conclusion"), reg)
    params = _decode(obj["rule"], obj.get("params", {}), reg)
    return LkrNode(obj["rule"], conclusion, premises, params)
