"""Restricted two-sorted first-order language over an oracle sequence X.

Index terms evaluate to naturals; ring terms translate, under an
assignment of naturals to the free index variables, into polynomials in
the variables x0, x1, ... where x_j stands for X(j).  Formulas built from
ring equalities, index comparisons, and/or, and bounded index quantifiers
translate into finite member lists, each member read as p = 0:
conjunction and a bounded universal concatenate the lists of their parts
or instances, disjunction takes their product (`member_products`, which
the sequent compiler shares), and an oracle-free subformula collapses to
{0 = 0} or {1 = 0} by evaluation.

The concrete syntax is written once, in GRAMMAR: per sort and head, the
node class and its argument slots.  The one reader and the one writer
(`format_formula`) work from it.

Ring terms have one interpreter, `ring_value`, parameterised by the model
it lands in: `Model` gives ring values under an oracle (evaluation),
`PolyModel` polynomials over the oracle variables (translation), and the
sequent checker's subclass polynomials over opaque atoms.

Function symbols live in a finite registry of total computable functions
(built-ins plus user tables with a default), standing in for the paper-
style "every function" signature, which no tool can materialize.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Callable, NamedTuple

from .algebra import RATIONAL, AlgebraError, EquationSet, Polynomial, Ring
from .algebra import format_rational, parse_natural, parse_rational


class FolError(ValueError):
    pass


class FolParseError(FolError):
    pass


class ClassificationError(FolError):
    """Raised when an operation requires a formula outside the inductive class."""


# -- function registry --------------------------------------------------


def _pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2  # largest w with w(w+1)/2 <= n
    b = n - w * (w + 1) // 2
    return w - b, b


def _table_fn(table: dict, default, read: Callable) -> Callable:
    entries = {k if isinstance(k, tuple) else (k,): read(v) for k, v in table.items()}
    default = read(default)
    return lambda *args: entries.get(args, default)


@dataclass
class FunctionRegistry:
    """Named total functions on naturals: index-valued and ring-valued."""

    index_fns: dict[str, tuple[int, Callable]] = field(default_factory=dict)
    ring_fns: dict[str, tuple[int, Callable]] = field(default_factory=dict)

    @staticmethod
    def standard() -> "FunctionRegistry":
        reg = FunctionRegistry()
        reg.index_fns.update(
            {
                "+": (2, lambda a, b: a + b),
                "*": (2, lambda a, b: a * b),
                "monus": (2, lambda a, b: max(a - b, 0)),
                "pair": (2, _pair),
                "fst": (1, lambda n: _unpair(n)[0]),
                "snd": (1, lambda n: _unpair(n)[1]),
                "lt": (2, lambda a, b: int(a < b)),
                "le": (2, lambda a, b: int(a <= b)),
                "eq": (2, lambda a, b: int(a == b)),
            }
        )
        return reg

    # A table's values, and its default for the arguments it omits, are
    # JSON integers or text, read by algebra.parse_natural / parse_rational.
    def register_index_table(self, name: str, arity: int, table: dict, default=0):
        self.index_fns[name] = (arity, _table_fn(table, default, parse_natural))

    def register_ring_table(self, name: str, arity: int, table: dict, default=0):
        self.ring_fns[name] = (arity, _table_fn(table, default, parse_rational))

    def index_apply(self, name: str, args: tuple[int, ...]) -> int:
        entry = self.index_fns.get(name)
        if entry is None:
            raise FolError(f"unknown index function {name!r}")
        arity, fn = entry
        if len(args) != arity:
            raise FolError(f"index function {name!r} expects {arity} arguments, got {len(args)}")
        value = fn(*args)
        if not isinstance(value, int) or value < 0:
            raise FolError(f"index function {name!r} returned a non-natural {value!r}")
        return value

    def ring_apply(self, name: str, args: tuple[int, ...]):
        entry = self.ring_fns.get(name)
        if entry is None:
            raise FolError(f"unknown ring function {name!r}")
        arity, fn = entry
        if len(args) != arity:
            raise FolError(f"ring function {name!r} expects {arity} arguments, got {len(args)}")
        return fn(*args)


# -- abstract syntax ----------------------------------------------------


@dataclass(frozen=True)
class IdxLit:
    value: int


@dataclass(frozen=True)
class IdxVar:
    name: str


@dataclass(frozen=True)
class IdxApp:
    fn: str
    args: tuple


IndexTerm = IdxLit | IdxVar | IdxApp


@dataclass(frozen=True)
class RingConst:
    value: Fraction


@dataclass(frozen=True)
class OracleAt:
    index: IndexTerm


@dataclass(frozen=True)
class RingOp:
    op: str  # "+", "-", "*"
    left: "RingTerm"
    right: "RingTerm"


@dataclass(frozen=True)
class BigSum:
    var: str
    bound: IndexTerm
    body: "RingTerm"


@dataclass(frozen=True)
class RingApp:
    fn: str
    args: tuple  # index terms


RingTerm = RingConst | OracleAt | RingOp | BigSum | RingApp


@dataclass(frozen=True)
class RingEq:
    left: RingTerm
    right: RingTerm


@dataclass(frozen=True)
class IdxEq:
    left: IndexTerm
    right: IndexTerm


@dataclass(frozen=True)
class IdxLt:
    left: IndexTerm
    right: IndexTerm


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class ForallIdx:
    var: str
    bound: IndexTerm
    body: "Formula"


@dataclass(frozen=True)
class ExistsIdx:
    var: str
    bound: IndexTerm
    body: "Formula"


Formula = RingEq | IdxEq | IdxLt | And | Or | Not | ForallIdx | ExistsIdx


# -- grammar ---------------------------------------------------------------

# The sorts of the language, named as in the usage messages.
INDEX, RING, FORMULA = "index-term", "ring-term", "formula"
# Argument slots besides a sort: a variable name, bound in the last slot only;
# a rational; and a registry function name followed by as many index terms
# as its arity.  A tuple of one sort fills one tuple field, and (sort, ...)
# one or more terms of that sort.  A tuple or FN slot comes last.
VAR, RAT, FN = "var", "q", "NAME index-term..."


class Form(NamedTuple):
    """One head of the grammar: the node class it builds, the argument slots
    that fill the node's fields, and whether the node keeps the head itself
    as its first field (an operator)."""

    cls: type
    slots: tuple
    keeps_head: bool = False


_PAIR = ((INDEX, INDEX),)

GRAMMAR: dict[str, dict[str, Form]] = {
    INDEX: {
        "+": Form(IdxApp, _PAIR, True),
        "*": Form(IdxApp, _PAIR, True),
        "monus": Form(IdxApp, _PAIR, True),
        "fn": Form(IdxApp, (FN,)),
    },
    RING: {
        "rat": Form(RingConst, (RAT,)),
        "X": Form(OracleAt, (INDEX,)),
        "+": Form(RingOp, (RING, RING), True),
        "-": Form(RingOp, (RING, RING), True),
        "*": Form(RingOp, (RING, RING), True),
        "sum": Form(BigSum, (VAR, INDEX, RING)),
        "rfn": Form(RingApp, (FN,)),
    },
    FORMULA: {
        "=": Form(RingEq, (RING, RING)),
        "i=": Form(IdxEq, (INDEX, INDEX)),
        "i<": Form(IdxLt, (INDEX, INDEX)),
        "and": Form(And, ((FORMULA, ...),)),
        "or": Form(Or, ((FORMULA, ...),)),
        "not": Form(Not, (FORMULA,)),
        "forall": Form(ForallIdx, (VAR, INDEX, FORMULA)),
        "exists": Form(ExistsIdx, (VAR, INDEX, FORMULA)),
    },
}

# The head of each class that does not keep it, and the index operators.
_HEAD = {f.cls: h for forms in GRAMMAR.values() for h, f in forms.items() if not f.keeps_head}
_INDEX_OPS = frozenset(h for h, f in GRAMMAR[INDEX].items() if f.keeps_head)

# Deepest parenthesis nesting read.  The parser, classifier, translator and
# evaluator recurse up to three Python frames per level (an and/or level:
# the call plus its generator), so a formula at this depth stays well
# inside the interpreter's default limit of 1000 frames.
MAX_SEXP_DEPTH = 200
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _read_sexp(text: str):
    """Nested lists of atoms; one expression, at most MAX_SEXP_DEPTH deep."""
    stack: list[list] = []
    items: list = []
    for tok in _TOKEN.findall(text):
        if not stack and items:
            raise FolParseError("trailing input after expression")
        if tok == "(":
            if len(stack) == MAX_SEXP_DEPTH:
                raise FolParseError(f"expression nested deeper than {MAX_SEXP_DEPTH} levels")
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                raise FolParseError("unexpected closing parenthesis")
            done, items = items, stack.pop()
            items.append(done)
        else:
            items.append(tok)
    if stack:
        raise FolParseError("missing closing parenthesis")
    if not items:
        raise FolParseError("unexpected end of expression")
    return items[0]


def _parse(source, sort: str, reg: FunctionRegistry, scope):
    sexp = _read_sexp(source) if isinstance(source, str) else source
    return _read(sexp, sort, reg, scope or set())


# Each reads s-expression text, or its nested lists of atoms; the names in
# scope may occur free as index variables.
def parse_index_term(source, reg: FunctionRegistry, scope: set[str] | None = None) -> IndexTerm:
    return _parse(source, INDEX, reg, scope)


def parse_ring_term(source, reg: FunctionRegistry, scope: set[str] | None = None) -> RingTerm:
    return _parse(source, RING, reg, scope)


def parse_formula(source, reg: FunctionRegistry, scope: set[str] | None = None) -> Formula:
    return _parse(source, FORMULA, reg, scope)


def _usage(head: str, form: Form) -> str:
    words = [w for s in form.slots for w in (s if isinstance(s, tuple) else (s,))]
    return f"({head} {' '.join('...' if w is ... else w for w in words)}) expected"


def _read(sexp, sort: str, reg: FunctionRegistry, scope: set[str]):
    """The node of `sort`, or the VAR or RAT atom, that an s-expression
    denotes, read by GRAMMAR; the index variables in scope are the free and
    enclosing bound ones."""
    if isinstance(sexp, str):
        if sort == VAR:
            return sexp
        if sort == INDEX and sexp in scope:
            return IdxVar(sexp)
        if sort not in (INDEX, RAT):
            raise FolParseError(f"bad {sort} {sexp!r}")
        try:
            return parse_rational(sexp) if sort == RAT else IdxLit(parse_natural(sexp))
        except AlgebraError as exc:
            what = f"{sexp!r:.60} is neither a natural number nor an index variable in scope"
            raise FolParseError(str(exc) if sort == RAT else what) from None
    if not sexp or sort not in GRAMMAR:
        raise FolParseError(f"bad {sort} {sexp!r}")
    head, end = sexp[0], len(sexp)
    form = GRAMMAR[sort].get(head) if isinstance(head, str) else None
    if form is None:
        raise FolParseError(f"bad {sort} head {head!r}")
    cls, slots, keeps_head = form
    if end - 1 < len(slots):  # every slot takes at least one argument
        raise FolParseError(_usage(head, form))
    fields = [head] if keeps_head else []
    body_scope, last, i = scope, len(slots) - 1, 1
    for k, slot in enumerate(slots):
        if isinstance(slot, tuple):  # one tuple field of terms of one sort
            n = end - i if slot[-1] is ... else len(slot)
            fields.append(tuple([_read(a, slot[0], reg, scope) for a in sexp[i : i + n]]))
            i += n
        elif slot == FN:  # the name, then its arguments
            name, fns = sexp[i], reg.index_fns if sort == INDEX else reg.ring_fns
            if not isinstance(name, str) or name not in fns:
                raise FolParseError(f"unknown {sort} function {name!r}")
            if end - i - 1 != fns[name][0]:
                raise FolParseError(f"{sort} function {name!r} takes {fns[name][0]} arguments")
            fields += [name, tuple([_read(a, INDEX, reg, scope) for a in sexp[i + 1 :]])]
            i = end
        else:
            fields.append(_read(sexp[i], slot, reg, body_scope if k == last else scope))
            if slot == VAR:
                body_scope = scope | {sexp[i]}
            i += 1
    if i != end:
        raise FolParseError(_usage(head, form))
    return cls(*fields)


def format_formula(node) -> str:
    """The s-expression of a formula, or of any term; each head is GRAMMAR's."""
    match node:
        case IdxVar(name):
            return name
        case IdxApp(fn, args):
            head = fn if fn in _INDEX_OPS else f"{_HEAD[IdxApp]} {fn}"
            return f"({head}{_tail(args)})"
        case IdxLit(value):
            return format_rational(value)
        case OracleAt(x) | Not(x):
            return f"({_HEAD[type(node)]} {format_formula(x)})"
        case RingConst(value):
            return f"({_HEAD[RingConst]} {format_rational(value)})"
        case RingEq(left, right) | IdxEq(left, right) | IdxLt(left, right):
            return f"({_HEAD[type(node)]} {format_formula(left)} {format_formula(right)})"
        case RingOp(op, left, right):
            return f"({op} {format_formula(left)} {format_formula(right)})"
        case RingApp(fn, args):
            return f"({_HEAD[RingApp]} {fn}{_tail(args)})"
        case And(parts) | Or(parts):
            return f"({_HEAD[type(node)]}{_tail(parts)})"
        case BigSum(var, bound, body) | ForallIdx(var, bound, body) | ExistsIdx(var, bound, body):
            return f"({_HEAD[type(node)]} {var} {format_formula(bound)} {format_formula(body)})"
    raise FolError(f"unknown node {node!r}")


def _tail(nodes) -> str:
    return "".join([" " + format_formula(x) for x in nodes])


# -- mentions, free variables, substitution ------------------------------


def mentions_oracle(node) -> bool:
    match node:
        case OracleAt():
            return True
        case RingOp(_, l, r) | RingEq(l, r):
            return mentions_oracle(l) or mentions_oracle(r)
        case And(parts) | Or(parts):
            return any(mentions_oracle(p) for p in parts)
        case BigSum(_, _, body) | Not(body) | ForallIdx(_, _, body) | ExistsIdx(_, _, body):
            return mentions_oracle(body)
    return False


def free_index_vars(node) -> set[str]:
    match node:
        case IdxVar(name):
            return {name}
        case IdxApp(_, args) | RingApp(_, args) | And(args) | Or(args):
            return set().union(*map(free_index_vars, args))
        case OracleAt(i) | Not(i):
            return free_index_vars(i)
        case RingOp(_, l, r) | RingEq(l, r) | IdxEq(l, r) | IdxLt(l, r):
            return free_index_vars(l) | free_index_vars(r)
        case BigSum(var, b, body) | ForallIdx(var, b, body) | ExistsIdx(var, b, body):
            return free_index_vars(b) | (free_index_vars(body) - {var})
    return set()


def substitute_index(node, name: str, replacement: IndexTerm):
    """Capture-avoiding substitution of an index term for a free variable."""

    def sub(child):
        return substitute_index(child, name, replacement)

    match node:
        case IdxVar(n):
            return replacement if n == name else node
        case IdxLit() | RingConst():
            return node
        case IdxApp(fn, args) | RingApp(fn, args):
            return type(node)(fn, tuple(map(sub, args)))
        case OracleAt(i) | Not(i):
            return type(node)(sub(i))
        case RingOp(op, l, r):
            return RingOp(op, sub(l), sub(r))
        case RingEq(l, r) | IdxEq(l, r) | IdxLt(l, r):
            return type(node)(sub(l), sub(r))
        case And(parts) | Or(parts):
            return type(node)(tuple(map(sub, parts)))
        case BigSum(var, b, body) | ForallIdx(var, b, body) | ExistsIdx(var, b, body):
            if var == name:
                return type(node)(var, sub(b), body)
            if var in free_index_vars(replacement):
                raise FolError(f"substitution would capture {var!r}")
            return type(node)(var, sub(b), sub(body))
    raise FolError(f"cannot substitute into {node!r}")


# -- classification ------------------------------------------------------


def classify_indpc(phi: Formula) -> tuple[bool, str]:
    """Membership in the inductive translatable class.

    Atomic formulas qualify; oracle-free formulas of any shape qualify;
    and the class is closed under and/or and universal index quantifiers.
    Negation and existentials only appear inside oracle-free subformulas.
    """
    if not mentions_oracle(phi):
        return True, "oracle-free"
    match phi:
        case RingEq():
            return True, "atomic"
        case And(parts) | Or(parts):
            for p in parts:
                ok, why = classify_indpc(p)
                if not ok:
                    return False, why
            return True, "closure under and/or"
        case ForallIdx(_, _, body):
            return classify_indpc(body)
        case Not() | ExistsIdx():
            return False, f"{type(phi).__name__} over an oracle-mentioning subformula"
        case _:
            return False, f"unsupported node {type(phi).__name__}"


# -- evaluation and translation -------------------------------------------

# The interpreters below dispatch on the exact class of a node (no node
# class has a subclass) and read its fields, most frequent class first.

# Most quantifier and bounded-sum instances one translation or evaluation
# visits, nested instances each counted.  The most any call in the tests or
# the benchmark visits is 320, translating the chain proof's hypothesis
# (forall i n ...) at n = 320.
MAX_INSTANCES = 1 << 15


def eval_index(term: IndexTerm, alpha: dict[str, int], reg: FunctionRegistry) -> int:
    cls = type(term)
    if cls is IdxVar:
        try:
            value = alpha[term.name]
        except KeyError:
            raise FolError(f"assignment does not cover index variable {term.name!r}") from None
        return int(value)
    if cls is IdxApp:
        return reg.index_apply(term.fn, tuple([eval_index(a, alpha, reg) for a in term.args]))
    if cls is IdxLit:
        return term.value
    raise FolError(f"bad index term {term!r}")


class Model:
    """Where the ring-term interpreter lands: ring values in the standard
    model with oracle X.  A subclass changes what a constant, an oracle
    application, a ring function and a bounded sum denote (the last three
    under the index assignment alpha); `PolyModel` gives polynomials over
    the oracle variables, and the sequent checker gives polynomials over
    opaque atoms.

    A model counts the quantifier and sum instances it visits (`instances`)
    and refuses to visit more than MAX_INSTANCES."""

    def __init__(self, reg: FunctionRegistry, ring: Ring = RATIONAL, oracle=None):
        self.reg = reg
        self.ring = ring
        self.oracle = oracle
        self.visited = 0

    @cached_property
    def ops(self) -> dict:
        c = self.ring.coerce
        return {"+": lambda a, b: c(a + b), "-": lambda a, b: c(a - b), "*": lambda a, b: c(a * b)}

    def instances(self, n: int):
        """The values 0, ..., n - 1 of a bound variable, each counted as it
        is reached, so a quantifier that stops early is charged only for
        the instances it visited."""
        for j in range(n):
            self.visited += 1
            if self.visited > MAX_INSTANCES:
                raise FolError(f"more than {MAX_INSTANCES} quantifier and sum instances")
            yield j

    def const(self, value):
        return self.ring.coerce(value)

    def at(self, index: IndexTerm, alpha):
        j = eval_index(index, alpha, self.reg)
        if j not in self.oracle:
            raise FolError(f"oracle gap at index {j}")
        return self.ring.coerce(self.oracle[j])

    def apply(self, fn: str, args: tuple, alpha):
        values = tuple([eval_index(a, alpha, self.reg) for a in args])
        return self.const(self.reg.ring_apply(fn, values))

    def big_sum(self, var: str, bound: IndexTerm, body: RingTerm, alpha):
        n = eval_index(bound, alpha, self.reg)
        return self.total(ring_value(body, {**alpha, var: j}, self) for j in self.instances(n))

    def total(self, values):
        return self.ring.coerce(sum(values, 0))


class PolyModel(Model):
    """Ring terms as polynomials in x0, x1, ... with x_j standing for X(j),
    and formulas as their member lists (`translate`).

    The model remembers which nodes mention the oracle, keyed by node
    identity; an entry holds its node, so the identity is not reused while
    the entry lives.  One model serves one `translate_formula` call or one
    sequent compile, so the memo lasts that long."""

    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul}

    def __init__(self, reg: FunctionRegistry, ring: Ring = RATIONAL):
        super().__init__(reg, ring)
        self._mentions: dict[int, tuple[object, bool]] = {}

    def const(self, value) -> Polynomial:
        return Polynomial.const(self.ring, value)

    def at(self, index: IndexTerm, alpha) -> Polynomial:
        return Polynomial.variable(self.ring, eval_index(index, alpha, self.reg))

    def total(self, values) -> Polynomial:
        return Polynomial.sum(self.ring, values)

    def mentions(self, node) -> bool:
        """mentions_oracle(node), walked once per node."""
        entry = self._mentions.get(id(node))
        if entry is None:
            entry = self._mentions[id(node)] = (node, mentions_oracle(node))
        return entry[1]

    def translate(self, phi: Formula, alpha: dict[str, int]) -> tuple[Polynomial, ...]:
        """The members of phi's translation under alpha, for phi in the
        class `classify_indpc` accepts; the instance count starts afresh."""
        self.visited = 0
        return _translate(phi, alpha, self)


def ring_value(term: RingTerm, alpha: dict, model: Model):
    """The ring-term interpreter: what `term` denotes in `model` when the
    free index variables take their values from alpha."""
    cls = type(term)
    if cls is OracleAt:
        return model.at(term.index, alpha)
    if cls is RingOp:
        return model.ops[term.op](ring_value(term.left, alpha, model), ring_value(term.right, alpha, model))
    if cls is RingConst:
        return model.const(term.value)
    if cls is BigSum:
        return model.big_sum(term.var, term.bound, term.body, alpha)
    if cls is RingApp:
        return model.apply(term.fn, term.args, alpha)
    raise FolError(f"bad ring term {term!r}")


def eval_formula(
    phi: Formula, alpha: dict[str, int], oracle, reg: FunctionRegistry, ring: Ring = RATIONAL
) -> bool:
    """Truth of a formula in the standard model with oracle X."""
    return _holds(phi, alpha, Model(reg, ring, oracle))


def _holds(phi: Formula, alpha, model: Model) -> bool:
    """Truth under alpha, with ring terms compared in a model whose index
    terms evaluate to naturals."""
    cls = type(phi)
    if cls is RingEq:
        return ring_value(phi.left, alpha, model) == ring_value(phi.right, alpha, model)
    if cls is And:
        return all(_holds(p, alpha, model) for p in phi.parts)
    if cls is Or:
        return any(_holds(p, alpha, model) for p in phi.parts)
    if cls is IdxEq:
        return eval_index(phi.left, alpha, model.reg) == eval_index(phi.right, alpha, model.reg)
    if cls is IdxLt:
        return eval_index(phi.left, alpha, model.reg) < eval_index(phi.right, alpha, model.reg)
    if cls is ForallIdx or cls is ExistsIdx:
        n, var, body = eval_index(phi.bound, alpha, model.reg), phi.var, phi.body
        holds = (_holds(body, {**alpha, var: j}, model) for j in model.instances(n))
        return all(holds) if cls is ForallIdx else any(holds)
    if cls is Not:
        return not _holds(phi.body, alpha, model)
    raise FolError(f"bad formula {phi!r}")


def member_products(parts, ring: Ring) -> tuple[Polynomial, ...]:
    """The product translation of a list of member lists: one product per
    choice of a member from each list, left-major, so it holds exactly
    when some list holds.  The empty list gives the unit (1,)."""
    out = tuple(parts[0]) if parts else (Polynomial.const(ring, 1),)
    for part in parts[1:]:
        out = tuple([p * q for p in out for q in part])
    return out


def translate_formula(
    phi: Formula, alpha: dict[str, int], reg: FunctionRegistry, ring: Ring = RATIONAL
) -> EquationSet:
    """Equation-set translation; defined exactly on the classified class."""
    ok, why = classify_indpc(phi)
    if not ok:
        raise ClassificationError(f"formula is not translatable: {why}")
    return EquationSet(ring, PolyModel(reg, ring).translate(phi, alpha))


def _translate(phi, alpha, model: PolyModel) -> tuple[Polynomial, ...]:
    """The members of phi's translation under alpha."""
    if not model.mentions(phi):
        # evaluation in the polynomial model: oracle-free terms are constants
        return (Polynomial.const(model.ring, 0 if _holds(phi, alpha, model) else 1),)
    cls = type(phi)
    if cls is RingEq:
        return (ring_value(phi.left, alpha, model) - ring_value(phi.right, alpha, model),)
    if cls is Or:
        return member_products([_translate(p, alpha, model) for p in phi.parts], model.ring)
    if cls is And:
        return tuple([m for p in phi.parts for m in _translate(p, alpha, model)])
    if cls is ForallIdx:
        n, var, body = eval_index(phi.bound, alpha, model.reg), phi.var, phi.body
        return tuple([m for j in model.instances(n) for m in _translate(body, {**alpha, var: j}, model)])
    raise FolError(f"untranslatable formula {phi!r}")
