"""Sequent calculus kernel and its compiler into line-style derivations.

A proof is a tree of inference nodes, each carrying its conclusion
sequent, so checking is local: every node must instantiate its rule
schema, every formula must lie in the translatable inductive class, and
eigenvariable side conditions must hold.  Theory axioms about the ring
are verified symbolically: terms normalize into polynomials over opaque
atoms (oracle applications, registry ring functions, irreducible big
sums), literal big sums unfold, and successor-shaped bounds peel once,
so an accepted axiom instance translates to a polynomial identity under
every assignment.

Compilation is the rule-by-rule translation into a derivation of the
succedent's product translation from the antecedent's union translation.
Antecedent-side rules are pass-throughs; right contraction squares and
applies the radical rule; disjunction on the left multiplies whole
sub-derivations through by the other factors; a bounded universal on the
right takes the union of its instances; induction concatenates one stage
per value below the bound; cut behaves like induction with two stages.
Sum-of-squares and Boolean axiom sequents compile through the
sum-of-squares and radical rules and therefore require the pc_plus
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import RATIONAL, EquationSet, Polynomial, Ring
from .errors import UnsupportedConstruct
from .proofcheck import PC_PLUS, PC_RAD, Derivation, DerivationBuilder
from . import fol
from .fol import (
    And,
    BigSum,
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
    RingApp,
    RingConst,
    RingEq,
    RingOp,
    RingTerm,
    classify_indpc,
    eval_formula,
    eval_index,
    format_formula,
    free_index_vars,
    mentions_oracle,
    parse_formula,
    parse_index_term,
    parse_ring_term,
    substitute_index,
    translate_formula,
    translate_ring_term,
)

SUM_UNFOLD_CAP = 256


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


THEORY_AXIOMS = (
    "ring-axiom",
    "big-sum",
    "integral-domain",
    "equality",
    "background-truth",
    "sos-axiom",
    "boolean-axiom",
)
RULES = THEORY_AXIOMS + (
    "logical-axiom",
    "weakening-l",
    "weakening-r",
    "contraction-l",
    "contraction-r",
    "and-l",
    "and-r",
    "or-l",
    "or-r",
    "forall-idx-l",
    "forall-idx-r",
    "induction",
    "cut",
)


# -- multiset helpers ---------------------------------------------------


def _multiset(items) -> dict:
    out: dict = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def _multiset_eq(a, b) -> bool:
    return _multiset(a) == _multiset(b)


def _without(items: tuple, item) -> tuple | None:
    out = list(items)
    try:
        out.remove(item)
    except ValueError:
        return None
    return tuple(out)


def _minus_multiset(larger: tuple, smaller: tuple) -> tuple | None:
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


class _SymbolicContext:
    """Normalizes ring terms into polynomials over interned opaque atoms."""

    def __init__(self, reg: FunctionRegistry):
        self.reg = reg
        self._atoms: dict = {}

    def _atom_var(self, key) -> int:
        if key not in self._atoms:
            self._atoms[key] = len(self._atoms)
        return self._atoms[key]

    def index_key(self, term: IndexTerm):
        match term:
            case IdxLit(v):
                return ("lit", v)
            case IdxVar(name):
                return ("var", name)
            case IdxApp(fn, args):
                keys = tuple(self.index_key(a) for a in args)
                if all(k[0] == "lit" for k in keys):
                    return ("lit", self.reg.index_apply(fn, tuple(k[1] for k in keys)))
                return ("app", fn) + keys
        raise LkrError(f"bad index term {term!r}")

    def poly(self, term: RingTerm) -> Polynomial:
        match term:
            case RingConst(v):
                return Polynomial.const(RATIONAL, v)
            case RingOp(op, l, r):
                a, b = self.poly(l), self.poly(r)
                return a + b if op == "+" else a - b if op == "-" else a * b
            case OracleAt(i):
                return Polynomial.variable(RATIONAL, self._atom_var(("X", self.index_key(i))))
            case RingApp(fn, args):
                keys = tuple(self.index_key(a) for a in args)
                if all(k[0] == "lit" for k in keys):
                    value = self.reg.ring_apply(fn, tuple(k[1] for k in keys))
                    return Polynomial.const(RATIONAL, value)
                return Polynomial.variable(RATIONAL, self._atom_var(("rfn", fn) + keys))
            case BigSum(var, bound, body):
                bkey = self.index_key(bound)
                if bkey[0] == "lit" and bkey[1] <= SUM_UNFOLD_CAP:
                    total = Polynomial.zero(RATIONAL)
                    for j in range(bkey[1]):
                        total = total + self.poly(substitute_index(body, var, IdxLit(j)))
                    return total
                if (
                    bkey[0] == "app"
                    and bkey[1] == "+"
                    and len(bkey) == 4
                    and bkey[3] == ("lit", 1)
                    and isinstance(bound, IdxApp)
                ):
                    # peel one step: sum_{i<b+1} t(i) = sum_{i<b} t(i) + t(b)
                    base = bound.args[0]
                    return self.poly(BigSum(var, base, body)) + self.poly(
                        substitute_index(body, var, base)
                    )
                body_key = self._body_key(var, body)
                return Polynomial.variable(RATIONAL, self._atom_var(("sum", bkey, body_key)))
        raise LkrError(f"bad ring term {term!r}")

    def _body_key(self, var: str, body: RingTerm):
        canonical = substitute_index(body, var, IdxVar("#bound"))
        poly = self.poly(canonical)
        return tuple(sorted(poly.terms.items()))


def ring_identity(s: RingTerm, t: RingTerm, reg: FunctionRegistry) -> bool:
    """True when both terms normalize to the same polynomial over atoms,
    hence translate identically under every assignment."""
    ctx = _SymbolicContext(reg)
    return (ctx.poly(s) - ctx.poly(t)).is_zero


def linear_combination_identity(
    succ: RingEq, antes, multipliers, reg: FunctionRegistry
) -> bool:
    ctx = _SymbolicContext(reg)
    delta = ctx.poly(succ.left) - ctx.poly(succ.right)
    for eq, h in zip(antes, multipliers):
        delta = delta - ctx.poly(h) * (ctx.poly(eq.left) - ctx.poly(eq.right))
    return delta.is_zero


# -- structural checking -------------------------------------------------


class _CheckFailure(Exception):
    def __init__(self, path, reason):
        super().__init__(reason)
        self.path = path
        self.reason = reason


def _fail(path, reason):
    raise _CheckFailure(path, reason)


def check_lkr(proof: LkrNode, reg: FunctionRegistry) -> LkrReport:
    try:
        _check_node(proof, reg, ())
    except _CheckFailure as fail:
        return LkrReport(False, fail.path, fail.reason)
    return LkrReport(True)


def _check_node(node: LkrNode, reg: FunctionRegistry, path):
    if node.rule not in RULES:
        raise UnsupportedConstruct(f"unknown rule {node.rule!r}")
    for phi in node.conclusion.ante + node.conclusion.succ:
        ok, why = classify_indpc(phi)
        if not ok:
            _fail(path, f"formula outside the inductive class: {why}")
    _SCHEMA_CHECKS[node.rule](node, reg, path)
    for k, premise in enumerate(node.premises):
        _check_node(premise, reg, path + (k,))


def _expect_premises(node, count, path):
    if len(node.premises) != count:
        _fail(path, f"{node.rule} expects {count} premises, got {len(node.premises)}")


def _check_logical_axiom(node, reg, path):
    _expect_premises(node, 0, path)
    if len(node.conclusion.ante) != 1 or len(node.conclusion.succ) != 1:
        _fail(path, "logical axiom must be phi -> phi")
    if node.conclusion.ante[0] != node.conclusion.succ[0]:
        _fail(path, "logical axiom sides differ")


def _check_ring_axiom(node, reg, path):
    _expect_premises(node, 0, path)
    if node.conclusion.ante or len(node.conclusion.succ) != 1:
        _fail(path, f"{node.rule} must have shape  -> s = t")
    eq = node.conclusion.succ[0]
    if not isinstance(eq, RingEq):
        _fail(path, f"{node.rule} succedent must be a ring equality")
    try:
        if not ring_identity(eq.left, eq.right, reg):
            _fail(path, f"{node.rule} sides do not normalize to the same polynomial")
    except fol.FolError as exc:
        _fail(path, str(exc))


def _check_integral_domain(node, reg, path):
    _expect_premises(node, 0, path)
    conc = node.conclusion
    zero = RingConst(Fraction(0))
    if len(conc.ante) != 1 or len(conc.succ) != 2:
        _fail(path, "integral domain axiom must be  s*t = 0 -> s = 0, t = 0")
    prem = conc.ante[0]
    if not (
        isinstance(prem, RingEq)
        and isinstance(prem.left, RingOp)
        and prem.left.op == "*"
        and prem.right == zero
    ):
        _fail(path, "integral domain antecedent must be a product equated to 0")
    s, t = prem.left.left, prem.left.right
    if conc.succ != (RingEq(s, zero), RingEq(t, zero)):
        _fail(path, "integral domain succedents must equate the two factors to 0")


def _check_equality(node, reg, path):
    _expect_premises(node, 0, path)
    conc = node.conclusion
    if len(conc.succ) != 1:
        _fail(path, "equality axiom needs a single succedent formula")
    succ = conc.succ[0]
    if node.params.get("multipliers") is not None:
        if not isinstance(succ, RingEq) or not all(isinstance(a, RingEq) for a in conc.ante):
            _fail(path, "witnessed equality axiom relates ring equalities")
        if len(node.params["multipliers"]) != len(conc.ante):
            _fail(path, "one multiplier per antecedent equality required")
        try:
            multipliers = [
                _param_ring_term(node, "multipliers", k, reg) for k in range(len(conc.ante))
            ]
            if not linear_combination_identity(succ, list(conc.ante), multipliers, reg):
                _fail(path, "equality witness does not combine to the succedent")
        except (fol.FolError, LkrError) as exc:
            _fail(path, str(exc))
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


def _check_background_truth(node, reg, path):
    _expect_premises(node, 0, path)
    if node.conclusion.ante or len(node.conclusion.succ) != 1:
        _fail(path, "background truth axiom must have shape  -> sigma")
    sigma = node.conclusion.succ[0]
    if mentions_oracle(sigma):
        _fail(path, "background truth sentences cannot mention the oracle")
    if free_index_vars(sigma):
        _fail(path, "background truth sentences must be closed")
    try:
        if not eval_formula(sigma, {}, {}, reg):
            _fail(path, "background truth sentence evaluates to false")
    except fol.FolError as exc:
        _fail(path, f"background truth sentence not evaluable: {exc}")


def _check_sos_axiom(node, reg, path):
    _expect_premises(node, 0, path)
    conc = node.conclusion
    zero = RingConst(Fraction(0))
    if len(conc.ante) != 2 or len(conc.succ) != 1:
        _fail(path, "sum-of-squares axiom must be  sum = 0, s < r -> instance = 0")
    head, side = conc.ante
    if not (
        isinstance(head, RingEq)
        and isinstance(head.left, BigSum)
        and head.right == zero
        and isinstance(head.left.body, RingOp)
        and head.left.body.op == "*"
        and head.left.body.left == head.left.body.right
    ):
        _fail(path, "first antecedent must equate a sum of squares to 0")
    if not (isinstance(side, IdxLt) and side.right == head.left.bound):
        _fail(path, "second antecedent must bound the instance below the sum bound")
    body = head.left.body.left
    expected = RingEq(substitute_index(body, head.left.var, side.left), zero)
    if conc.succ[0] != expected:
        _fail(path, "succedent must be the instantiated summand equated to 0")


def _check_boolean_axiom(node, reg, path):
    _expect_premises(node, 0, path)
    if node.conclusion.ante or len(node.conclusion.succ) != 1:
        _fail(path, "boolean axiom must have shape  -> X(r)(1 - X(r)) = 0")
    eq = node.conclusion.succ[0]
    good = (
        isinstance(eq, RingEq)
        and eq.right == RingConst(Fraction(0))
        and isinstance(eq.left, RingOp)
        and eq.left.op == "*"
        and isinstance(eq.left.left, OracleAt)
        and eq.left.right == RingOp("-", RingConst(Fraction(1)), eq.left.left)
    )
    if not good:
        _fail(path, "boolean axiom succedent has the wrong shape")


def _check_weakening(node, reg, path):
    _expect_premises(node, 1, path)
    prem, conc = node.premises[0].conclusion, node.conclusion
    kept, other = ("ante", "succ") if node.rule == "weakening-l" else ("succ", "ante")
    if getattr(prem, other) != getattr(conc, other):
        _fail(path, f"weakening must keep the {other}cedent fixed")
    extra = _minus_multiset(getattr(conc, kept), getattr(prem, kept))
    if extra is None or len(extra) != 1:
        _fail(path, "weakening must add exactly one formula")


def _check_contraction(node, reg, path):
    _expect_premises(node, 1, path)
    prem, conc = node.premises[0].conclusion, node.conclusion
    side, other = ("ante", "succ") if node.rule == "contraction-l" else ("succ", "ante")
    if getattr(prem, other) != getattr(conc, other):
        _fail(path, f"contraction must keep the {other}cedent fixed")
    extra = _minus_multiset(getattr(prem, side), getattr(conc, side))
    if extra is None or len(extra) != 1 or extra[0] not in getattr(conc, side):
        _fail(path, "contraction must remove one duplicate occurrence")


def _find_connective(node, cls, side, path):
    candidates = [phi for phi in getattr(node.conclusion, side) if isinstance(phi, cls)]
    if not candidates:
        _fail(path, f"{node.rule} needs a {cls.__name__} formula in the {side}cedent")
    return candidates


def _check_and_l(node, reg, path):
    _expect_premises(node, 1, path)
    prem, conc = node.premises[0].conclusion, node.conclusion
    if prem.succ != conc.succ:
        _fail(path, "and-l keeps the succedent fixed")
    for target in _find_connective(node, And, "ante", path):
        rest = _without(conc.ante, target)
        for child in target.parts:
            if rest is not None and _multiset_eq(prem.ante, rest + (child,)):
                node.params["_formula"] = target
                node.params["_child"] = child
                return
    _fail(path, "and-l premise does not match any conjunct")


def _check_and_r(node, reg, path):
    for target in _find_connective(node, And, "succ", path):
        rest = _without(node.conclusion.succ, target)
        if rest is None or len(node.premises) != len(target.parts):
            continue
        if all(
            prem.conclusion.ante == node.conclusion.ante
            and _multiset_eq(prem.conclusion.succ, rest + (child,))
            for prem, child in zip(node.premises, target.parts)
        ):
            node.params["_formula"] = target
            return
    _fail(path, "and-r premises do not match the conjuncts")


def _check_or_l(node, reg, path):
    for target in _find_connective(node, Or, "ante", path):
        rest = _without(node.conclusion.ante, target)
        if rest is None or len(node.premises) != len(target.parts):
            continue
        if all(
            prem.conclusion.succ == node.conclusion.succ
            and _multiset_eq(prem.conclusion.ante, rest + (child,))
            for prem, child in zip(node.premises, target.parts)
        ):
            node.params["_formula"] = target
            return
    _fail(path, "or-l premises do not match the disjuncts")


def _check_or_r(node, reg, path):
    _expect_premises(node, 1, path)
    prem = node.premises[0].conclusion
    if prem.ante != node.conclusion.ante:
        _fail(path, "or-r keeps the antecedent fixed")
    for target in _find_connective(node, Or, "succ", path):
        rest = _without(node.conclusion.succ, target)
        for child in target.parts:
            if rest is not None and _multiset_eq(prem.succ, rest + (child,)):
                node.params["_formula"] = target
                node.params["_child"] = child
                return
    _fail(path, "or-r premise does not match any disjunct")


def _check_forall_l(node, reg, path):
    _expect_premises(node, 1, path)
    prem, conc = node.premises[0].conclusion, node.conclusion
    if prem.succ != conc.succ:
        _fail(path, "forall-idx-l keeps the succedent fixed")
    try:
        term = _param_index_term(node, "term", reg)
    except (LkrError, fol.FolParseError) as exc:
        _fail(path, str(exc))
    for target in _find_connective(node, ForallIdx, "ante", path):
        rest = _without(conc.ante, target)
        instance = substitute_index(target.body, target.var, term)
        if rest is not None and _multiset_eq(prem.ante, rest + (instance,)):
            node.params["_formula"] = target
            return
    _fail(path, "forall-idx-l premise is not an instance of any universal antecedent")


def _check_forall_r(node, reg, path):
    _expect_premises(node, 1, path)
    prem, conc = node.premises[0].conclusion, node.conclusion
    if prem.ante != conc.ante:
        _fail(path, "forall-idx-r keeps the antecedent fixed")
    eigen = node.params.get("var")
    if not isinstance(eigen, str):
        _fail(path, "forall-idx-r requires the eigenvariable parameter 'var'")
    for phi in conc.ante + conc.succ:
        if eigen in free_index_vars(phi):
            _fail(path, f"eigenvariable {eigen!r} occurs in the conclusion")
    for target in _find_connective(node, ForallIdx, "succ", path):
        rest = _without(conc.succ, target)
        instance = substitute_index(target.body, target.var, IdxVar(eigen))
        if rest is not None and _multiset_eq(prem.succ, rest + (instance,)):
            node.params["_formula"] = target
            return
    _fail(path, "forall-idx-r premise does not generalize any universal succedent")


def _check_induction(node, reg, path):
    _expect_premises(node, 1, path)
    prem, conc = node.premises[0].conclusion, node.conclusion
    try:
        var = node.params["var"]
        template = _param_formula(node, "formula", reg)
        term = _param_index_term(node, "term", reg)
    except (KeyError, LkrError, fol.FolParseError) as exc:
        _fail(path, f"induction parameters: {exc}")
    phi_0 = substitute_index(template, var, IdxLit(0))
    phi_succ = substitute_index(template, var, IdxApp("+", (IdxVar(var), IdxLit(1))))
    phi_t = substitute_index(template, var, term)
    gamma = _minus_multiset(conc.ante, (phi_0,))
    delta = _minus_multiset(conc.succ, (phi_t,))
    if gamma is None or delta is None:
        _fail(path, "induction conclusion must contain phi(0) and phi(t)")
    if not _multiset_eq(prem.ante, gamma + (template,)) or not _multiset_eq(
        prem.succ, (phi_succ,) + delta
    ):
        _fail(path, "induction premise must be Gamma, phi(i) -> phi(i+1), Delta")
    for phi in conc.ante + conc.succ:
        if var in free_index_vars(phi):
            _fail(path, f"induction variable {var!r} occurs in the bottom sequent")
    if var in free_index_vars(term):
        _fail(path, "induction bound may not mention the induction variable")
    node.params["_pieces"] = (var, template, term, gamma, delta)


def _check_cut(node, reg, path):
    _expect_premises(node, 2, path)
    p1, p2 = (p.conclusion for p in node.premises)
    conc = node.conclusion
    phi_candidates = _minus_multiset(p1.succ, conc.succ)
    if phi_candidates is None or len(phi_candidates) != 1:
        _fail(path, "cut: left premise must add one formula to the succedent")
    phi = phi_candidates[0]
    if not _multiset_eq(p1.ante, conc.ante):
        _fail(path, "cut: left premise antecedent must match the conclusion")
    if not _multiset_eq(p2.ante, (phi,) + conc.ante) or not _multiset_eq(p2.succ, conc.succ):
        _fail(path, "cut: right premise must assume the cut formula")
    node.params["_formula"] = phi


_SCHEMA_CHECKS = {
    "logical-axiom": _check_logical_axiom,
    "ring-axiom": _check_ring_axiom,
    "big-sum": _check_ring_axiom,
    "integral-domain": _check_integral_domain,
    "equality": _check_equality,
    "background-truth": _check_background_truth,
    "sos-axiom": _check_sos_axiom,
    "boolean-axiom": _check_boolean_axiom,
    "weakening-l": _check_weakening,
    "weakening-r": _check_weakening,
    "contraction-l": _check_contraction,
    "contraction-r": _check_contraction,
    "and-l": _check_and_l,
    "and-r": _check_and_r,
    "or-l": _check_or_l,
    "or-r": _check_or_r,
    "forall-idx-l": _check_forall_l,
    "forall-idx-r": _check_forall_r,
    "induction": _check_induction,
    "cut": _check_cut,
}


# -- node parameters ------------------------------------------------------


def _param_index_term(node, key, reg) -> IndexTerm:
    value = node.params.get(key)
    if value is None:
        raise LkrError(f"{node.rule} requires the {key!r} parameter")
    if isinstance(value, str):
        return parse_index_term(fol._read_sexp(value), reg, _names(value))
    return value


def _param_ring_term(node, key, position, reg) -> RingTerm:
    value = node.params[key][position]
    if isinstance(value, str):
        return parse_ring_term(fol._read_sexp(value), reg, _names(value))
    return value


def _param_formula(node, key, reg) -> Formula:
    value = node.params.get(key)
    if value is None:
        raise LkrError(f"{node.rule} requires the {key!r} parameter")
    if isinstance(value, str):
        return parse_formula(value, reg, scope=_names(value))
    return value


# -- translation of cedents ---------------------------------------------


def cedent_left(formulas, alpha, reg, ring) -> list[Polynomial]:
    """Union translation: the concatenation of the member lists."""
    out: list[Polynomial] = []
    for phi in formulas:
        out.extend(translate_formula(phi, alpha, reg, ring).members)
    return out


def cedent_right(formulas, alpha, reg, ring) -> list[Polynomial]:
    """Product translation; the empty succedent yields the unit {1}."""
    members = [Polynomial.const(ring, 1)]
    for phi in formulas:
        parts = translate_formula(phi, alpha, reg, ring).members
        members = [q * p for q in members for p in parts]
    return members


def _product_members(parts_by_child, ring):
    combos = [((), Polynomial.const(ring, 1))]
    for parts in parts_by_child:
        combos = [(combo + (p,), factor * p) for combo, factor in combos for p in parts]
    return combos


# -- compilation ---------------------------------------------------------


class _Compiler:
    """Recursive emitter.

    emit(node, alpha, w, asm) returns a map from each member polynomial m
    of the node's succedent translation to a line whose polynomial is m*w;
    asm maps each member g of the antecedent translation to a line with
    polynomial g*w.  The scale w threads products through or-l, induction
    and cut without replaying sub-derivations after the fact.
    """

    def __init__(self, builder: DerivationBuilder, reg, ring, target):
        self.builder = builder
        self.reg = reg
        self.ring = ring
        self.target = target
        self.one = Polynomial.const(ring, 1)

    def emit(self, node: LkrNode, alpha: dict, w: Polynomial, asm: dict) -> dict:
        handler = getattr(self, "_emit_" + node.rule.replace("-", "_"))
        return handler(node, alpha, w, asm)

    # ---- helpers

    def _assumption(self, member: Polynomial, w: Polynomial, asm: dict) -> int:
        if (member * w).is_zero:
            return self.builder.zero()
        return asm[member]

    def _rescaled(self, member: Polynomial, factor: Polynomial, w, asm) -> int:
        """Line for member*(w*factor) given asm lines at scale w."""
        if (member * factor * w).is_zero:
            return self.builder.zero()
        if factor == self.one:
            return asm[member]
        return self.builder.mul_poly(asm[member], factor)

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

    def _emit_logical_axiom(self, node, alpha, w, asm):
        members = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)
        return {m: self._assumption(m, w, asm) for m in members}

    def _translation_zero_axiom(self, node, alpha, w, asm):
        out = {}
        for m in cedent_right(node.conclusion.succ, alpha, self.reg, self.ring):
            if not m.is_zero:
                raise CompileError(
                    f"{node.rule} instance does not translate to an identity at this assignment"
                )
            out[m] = self.builder.zero()
        return out

    _emit_ring_axiom = _translation_zero_axiom
    _emit_big_sum = _translation_zero_axiom
    _emit_background_truth = _translation_zero_axiom

    def _emit_integral_domain(self, node, alpha, w, asm):
        members = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)
        return {m: self._assumption(m, w, asm) for m in members}

    def _emit_equality(self, node, alpha, w, asm):
        target = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)[0]
        if target.is_zero or (target * w).is_zero:
            return {target: self.builder.zero()}
        ante_members = cedent_left(node.conclusion.ante, alpha, self.reg, self.ring)
        if self.one in ante_members:
            return {target: self.builder.mul_poly(asm[self.one], target)}
        if node.params.get("multipliers") is None:
            raise CompileError("congruence instance should translate to 0 = 0")
        parts = []
        for k, eq in enumerate(node.conclusion.ante):
            h = _param_ring_term(node, "multipliers", k, self.reg)
            h_poly = translate_ring_term(h, alpha, self.reg, self.ring)
            member = translate_formula(eq, alpha, self.reg, self.ring).members[0]
            if member.is_zero or h_poly.is_zero:
                continue
            parts.append((self.builder.mul_poly(asm[member], h_poly), 1))
        line = self.builder.combination(parts)
        if self.builder.poly(line) != target * w:
            raise CompileError("equality witness does not reproduce the succedent translation")
        return {target: line}

    def _emit_boolean_axiom(self, node, alpha, w, asm):
        if self.target != PC_PLUS:
            raise UnsupportedConstruct("boolean axiom sequents require the pc_plus target")
        member = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)[0]
        if (member * w).is_zero:
            return {member: self.builder.zero()}
        var = eval_index(node.conclusion.succ[0].left.left.index, alpha, self.reg)
        line = self.builder.bool_axiom(var)
        line = self.builder.mul_poly(line, w)
        line = self.builder.scale_line(line, self.ring.coerce(-1))
        return {member: line}

    def _emit_sos_axiom(self, node, alpha, w, asm):
        if self.target != PC_PLUS:
            raise UnsupportedConstruct("sum-of-squares axiom sequents require the pc_plus target")
        head, side = node.conclusion.ante
        member = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)[0]
        if (member * w).is_zero:
            return {member: self.builder.zero()}
        if not eval_formula(side, alpha, {}, self.reg, self.ring):
            # vacuous instance: the index bound fails, so 1 is an assumption
            return {member: self.builder.mul_poly(asm[self.one], member)}
        total = translate_formula(head, alpha, self.reg, self.ring).members[0]
        big = head.left
        n = eval_index(big.bound, alpha, self.reg)
        k = eval_index(side.left, alpha, self.reg)
        summands = [
            translate_ring_term(
                substitute_index(big.body.left, big.var, IdxLit(j)), alpha, self.reg, self.ring
            )
            for j in range(n)
        ]
        src = asm[total]  # poly total*w
        scaled = self.builder.mul_poly(src, w)  # total*w^2 == sum over j of (T_j w)^2
        witness = summands[k] * w
        squares = tuple(
            t * w for j, t in enumerate(summands) if j != k and not (t * w).is_zero
        )
        step = self.builder.sos_step(scaled, witness, squares)
        return {member: self.builder.radical_of(step, witness)}

    # ---- antecedent-side pass-throughs

    def _emit_weakening_l(self, node, alpha, w, asm):
        return self.emit(node.premises[0], alpha, w, asm)

    _emit_contraction_l = _emit_weakening_l
    _emit_and_l = _emit_weakening_l

    def _emit_forall_idx_l(self, node, alpha, w, asm):
        target = node.params["_formula"]
        term = _param_index_term(node, "term", self.reg)
        value = eval_index(term, alpha, self.reg)
        bound = eval_index(target.bound, alpha, self.reg)
        if value >= bound:
            raise CompileError(
                f"forall-idx-l instantiates {value}, outside the bound {bound}, at this assignment"
            )
        return self.emit(node.premises[0], alpha, w, asm)

    # ---- succedent-side rules

    def _emit_weakening_r(self, node, alpha, w, asm):
        prem = node.premises[0]
        extra = _minus_multiset(node.conclusion.succ, prem.conclusion.succ)[0]
        inner = self.emit(prem, alpha, w, asm)
        extra_members = translate_formula(extra, alpha, self.reg, self.ring).members
        out = {}
        for q, line in inner.items():
            for p in extra_members:
                m = q * p
                if m in out:
                    continue
                if (m * w).is_zero:
                    out[m] = self.builder.zero()
                else:
                    out[m] = self.builder.mul_poly(line, p)
        return out

    def _emit_contraction_r(self, node, alpha, w, asm):
        prem = node.premises[0]
        phi = _minus_multiset(prem.conclusion.succ, node.conclusion.succ)[0]
        inner = self.emit(prem, alpha, w, asm)
        delta = _minus_multiset(node.conclusion.succ, (phi,))
        delta_members = cedent_right(delta, alpha, self.reg, self.ring)
        phi_members = translate_formula(phi, alpha, self.reg, self.ring).members
        out = {}
        for q in delta_members:
            for p in phi_members:
                m = q * p
                if m in out:
                    continue
                if (m * w).is_zero:
                    out[m] = self.builder.zero()
                    continue
                diag = inner[q * p * p]  # poly q p^2 w
                out[m] = self._collapse(diag, m * w, q * w)
        return out

    def _emit_and_r(self, node, alpha, w, asm):
        out = {}
        for prem in node.premises:
            out.update(self.emit(prem, alpha, w, asm))
        return out

    def _emit_or_r(self, node, alpha, w, asm):
        target = node.params["_formula"]
        child = node.params["_child"]
        child_index = target.parts.index(child)
        inner = self.emit(node.premises[0], alpha, w, asm)
        rest = _without(node.conclusion.succ, target)
        delta_members = cedent_right(rest, alpha, self.reg, self.ring)
        parts_by_child = [
            translate_formula(c, alpha, self.reg, self.ring).members for c in target.parts
        ]
        out = {}
        for q in delta_members:
            for combo, factor in _product_members(parts_by_child, self.ring):
                m = q * factor
                if m in out:
                    continue
                if (m * w).is_zero:
                    out[m] = self.builder.zero()
                    continue
                others = self.one
                for j, p in enumerate(combo):
                    if j != child_index:
                        others = others * p
                base = inner[q * combo[child_index]]
                out[m] = base if others == self.one else self.builder.mul_poly(base, others)
        return out

    def _emit_or_l(self, node, alpha, w, asm):
        target = node.params["_formula"]
        rest = _without(node.conclusion.ante, target)
        gamma_members = cedent_left(rest, alpha, self.reg, self.ring)
        delta_members = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)
        parts_by_child = [
            translate_formula(c, alpha, self.reg, self.ring).members for c in target.parts
        ]
        product_asm = {
            factor: self._assumption(factor, w, asm)
            for _, factor in _product_members(parts_by_child, self.ring)
        }
        gamma = lambda g, factor: self._rescaled(g, factor, w, asm)
        return self._or_l(
            list(node.premises), parts_by_child, alpha, w, self.one,
            gamma_members, gamma, product_asm, delta_members,
        )

    def _or_l(
        self, premises, parts_by_child, alpha, w, prefix,
        gamma_members, gamma, product_asm, delta_members,
    ):
        """Derive q*prefix*w for each q from lines for the product members.

        product_asm maps each member of the remaining disjuncts' product to
        a line with polynomial member*prefix*w; prefix accumulates the
        factors already cut away by outer recursion levels.
        """
        first_members = parts_by_child[0]
        if len(premises) == 1:
            sub_asm = dict(product_asm)
            for g in gamma_members:
                sub_asm[g] = gamma(g, prefix)
            return self.emit(premises[0], alpha, w * prefix, sub_asm)

        rest_parts = parts_by_child[1:]
        rest_products = dict(_product_members(rest_parts, self.ring))
        rest_members = list(dict.fromkeys(rest_products.values()))

        # step A: the first premise, once per member b of the remaining product
        a_outputs = {}
        for b in rest_members:
            sub_asm = {}
            for a in first_members:
                sub_asm[a] = self._lookup_product(product_asm, a * b, prefix, w)
            for g in gamma_members:
                sub_asm[g] = gamma(g, prefix * b)
            a_outputs[b] = self.emit(premises[0], alpha, w * prefix * b, sub_asm)

        # step B: the remaining disjunction, against each requested member q
        out = {}
        for q in delta_members:
            if q in out:
                continue
            if (q * prefix * w).is_zero:
                out[q] = self.builder.zero()
                continue
            inner_asm = {b: a_outputs[b][q] for b in rest_members}  # poly q*b*prefix*w
            inner = self._or_l(
                premises[1:], rest_parts, alpha, w, prefix * q,
                gamma_members, gamma, inner_asm, [q],
            )
            out[q] = self._collapse(inner[q], q * prefix * w, prefix * w)
        return out

    def _lookup_product(self, product_asm, member, prefix, w):
        if (member * prefix * w).is_zero:
            return self.builder.zero()
        return product_asm[member]

    def _emit_forall_idx_r(self, node, alpha, w, asm):
        target = node.params["_formula"]
        eigen = node.params["var"]
        bound = eval_index(target.bound, alpha, self.reg)
        out = {}
        for n in range(bound):
            out.update(self.emit(node.premises[0], {**alpha, eigen: n}, w, asm))
        return out

    def _emit_induction(self, node, alpha, w, asm):
        var, template, term, gamma, delta = node.params["_pieces"]
        steps = eval_index(term, alpha, self.reg)
        gamma_members = cedent_left(gamma, alpha, self.reg, self.ring)
        delta_members = cedent_right(delta, alpha, self.reg, self.ring)

        def phi_at(n):
            return translate_formula(template, {**alpha, var: n}, self.reg, self.ring).members

        stage: dict[tuple[Polynomial, Polynomial], int] = {}
        for r in phi_at(0):
            for q in delta_members:
                if (r * q * w).is_zero:
                    stage[(r, q)] = self.builder.zero()
                else:
                    stage[(r, q)] = self._rescaled(r, q, w, asm)

        for n in range(steps):
            nxt: dict[tuple[Polynomial, Polynomial], int] = {}
            sub_alpha = {**alpha, var: n}
            for q in delta_members:
                sub_asm = {g: self._rescaled(g, q, w, asm) for g in gamma_members}
                for r in phi_at(n):
                    sub_asm[r] = stage[(r, q)]
                result = self.emit(node.premises[0], sub_alpha, w * q, sub_asm)
                for r_next in phi_at(n + 1):
                    line = result[r_next * q]  # poly r_next*q^2*w
                    nxt[(r_next, q)] = self._collapse(line, r_next * q * w, r_next * w)
            stage = nxt

        return {r * q: stage[(r, q)] for r in phi_at(steps) for q in delta_members}

    def _emit_cut(self, node, alpha, w, asm):
        phi = node.params["_formula"]
        phi_members = translate_formula(phi, alpha, self.reg, self.ring).members
        gamma_members = cedent_left(node.conclusion.ante, alpha, self.reg, self.ring)
        delta_members = cedent_right(node.conclusion.succ, alpha, self.reg, self.ring)
        out = {}
        for q in delta_members:
            if q in out:
                continue
            if (q * w).is_zero:
                out[q] = self.builder.zero()
                continue
            diag_lines: dict[Polynomial, int] = {}
            if any(not (a * q * q * w).is_zero for a in phi_members):
                sub_asm = {g: self._rescaled(g, q, w, asm) for g in gamma_members}
                left = self.emit(node.premises[0], alpha, w * q, sub_asm)
                for a in phi_members:
                    diag_lines[a] = left[q * a]  # poly q*a*q*w
            sub_asm2 = {}
            for a in phi_members:
                if (a * q * q * w).is_zero:
                    sub_asm2[a] = self.builder.zero()
                else:
                    sub_asm2[a] = diag_lines[a]
            for g in gamma_members:
                sub_asm2[g] = self._rescaled(g, q * q, w, asm)
            right = self.emit(node.premises[1], alpha, w * q * q, sub_asm2)
            line = right[q]  # poly q^3*w
            mid = self._collapse(line, q * q * w, q * w)
            out[q] = self._collapse(mid, q * w, w)
        return out


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
    report = check_lkr(proof, reg)
    if not report.valid:
        raise LkrError(f"proof rejected at node {report.node}: {report.reason}")
    missing: set[str] = set()
    for phi in proof.conclusion.ante + proof.conclusion.succ:
        missing |= free_index_vars(phi) - set(alpha)
    if missing:
        raise CompileError(f"assignment does not cover index variables {sorted(missing)}")

    gamma_members = cedent_left(proof.conclusion.ante, alpha, reg, ring)
    axioms = EquationSet(ring, tuple(dict.fromkeys(gamma_members)), False)
    builder = DerivationBuilder(target, ring, axioms)
    compiler = _Compiler(builder, reg, ring, target)

    index_of = {p: k for k, p in enumerate(axioms.members)}
    asm = {}
    for g in gamma_members:
        asm[g] = builder.zero() if g.is_zero else builder.axiom(index_of[g])

    one = Polynomial.const(ring, 1)
    members = compiler.emit(proof, dict(alpha), one, asm)

    for m, line in members.items():
        if m.is_constant and not m.is_zero:
            unit = builder.add(line, line, ring.inv(m.constant_value()), 0)
            builder.ensure_last(unit)
            break
    return builder.build()


# -- JSON ------------------------------------------------------------------


def sequent_to_json(seq: Sequent) -> dict:
    return {
        "ante": [format_formula(phi) for phi in seq.ante],
        "succ": [format_formula(phi) for phi in seq.succ],
    }


def _param_to_json(value):
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, list):
        return [_param_to_json(v) for v in value]
    return fol._fmt(value)  # AST node: index term, ring term, or formula


def node_to_json(node: LkrNode) -> dict:
    params = {
        k: _param_to_json(v) for k, v in node.params.items() if not k.startswith("_")
    }
    return {
        "rule": node.rule,
        "conclusion": sequent_to_json(node.conclusion),
        "params": params,
        "premises": [node_to_json(p) for p in node.premises],
    }


def sequent_from_json(obj: dict, reg: FunctionRegistry) -> Sequent:
    def side(items):
        return tuple(parse_formula(t, reg, scope=_names(t)) for t in items)

    return Sequent(side(obj.get("ante", [])), side(obj.get("succ", [])))


def node_from_json(obj: dict, reg: FunctionRegistry) -> LkrNode:
    try:
        rule = obj["rule"]
        conclusion = sequent_from_json(obj["conclusion"], reg)
        premises = tuple(node_from_json(p, reg) for p in obj.get("premises", []))
        params = dict(obj.get("params", {}))
    except (KeyError, TypeError, fol.FolParseError) as exc:
        raise LkrError(f"malformed proof node: {exc}") from exc
    return LkrNode(rule, conclusion, premises, params)
