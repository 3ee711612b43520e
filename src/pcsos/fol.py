"""Restricted two-sorted first-order language over an oracle sequence X.

Index terms evaluate to naturals; ring terms translate, under an
assignment of naturals to the free index variables, into polynomials in
the variables x0, x1, ... where x_j stands for X(j).  Formulas built from
ring equalities, index comparisons, and/or, and bounded index quantifiers
translate into finite equation sets: conjunction becomes set union,
disjunction becomes the set product, a bounded universal becomes the
union of its instances, and an oracle-free subformula collapses to
{0 = 0} or {1 = 0} by evaluation.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Callable

from .algebra import RATIONAL, EquationSet, Polynomial, Ring


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

    def register_index_table(self, name: str, arity: int, table: dict, default: int = 0):
        entries = {tuple(k) if isinstance(k, (tuple, list)) else (k,): int(v) for k, v in table.items()}
        if any(v < 0 for v in entries.values()) or default < 0:
            raise FolError(f"index table {name!r} must be natural-valued")

        def fn(*args):
            return entries.get(args, default)

        self.index_fns[name] = (arity, fn)

    def register_ring_table(self, name: str, arity: int, table: dict, default=0):
        entries = {
            tuple(k) if isinstance(k, (tuple, list)) else (k,): Fraction(v) for k, v in table.items()
        }
        default = Fraction(default)

        def fn(*args):
            return entries.get(args, default)

        self.ring_fns[name] = (arity, fn)

    def index_apply(self, name: str, args: tuple[int, ...]) -> int:
        if name not in self.index_fns:
            raise FolError(f"unknown index function {name!r}")
        arity, fn = self.index_fns[name]
        if len(args) != arity:
            raise FolError(f"index function {name!r} expects {arity} arguments, got {len(args)}")
        value = fn(*args)
        if not isinstance(value, int) or value < 0:
            raise FolError(f"index function {name!r} returned a non-natural {value!r}")
        return value

    def ring_apply(self, name: str, args: tuple[int, ...]):
        if name not in self.ring_fns:
            raise FolError(f"unknown ring function {name!r}")
        arity, fn = self.ring_fns[name]
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


# -- s-expression parser -------------------------------------------------


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(text[i:j])
            i = j
    return out


# Deepest parenthesis nesting read.  The parser, classifier, translator and
# evaluator recurse up to three Python frames per level (an and/or level:
# the call plus its generator), so a formula at this depth stays well
# inside the interpreter's default limit of 1000 frames.
MAX_SEXP_DEPTH = 200


class _SexpReader:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def read(self, depth: int = 0):
        if self.pos >= len(self.tokens):
            raise FolParseError("unexpected end of expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            if depth == MAX_SEXP_DEPTH:
                raise FolParseError(f"expression nested deeper than {MAX_SEXP_DEPTH} levels")
            items = []
            while True:
                if self.pos >= len(self.tokens):
                    raise FolParseError("missing closing parenthesis")
                if self.tokens[self.pos] == ")":
                    self.pos += 1
                    return items
                items.append(self.read(depth + 1))
        if tok == ")":
            raise FolParseError("unexpected closing parenthesis")
        return tok

    def finished(self) -> bool:
        return self.pos == len(self.tokens)


def _read_sexp(text: str):
    reader = _SexpReader(_tokenize(text))
    sexp = reader.read()
    if not reader.finished():
        raise FolParseError("trailing input after expression")
    return sexp


_RATS = "rat"
_IOPS = ("+", "*", "monus")


def parse_index_term(sexp, reg: FunctionRegistry, scope: set[str]) -> IndexTerm:
    if isinstance(sexp, str):
        if sexp.isascii() and sexp.isdigit():
            return IdxLit(int(sexp))
        if sexp in scope:
            return IdxVar(sexp)
        raise FolParseError(f"unbound index variable {sexp!r}")
    if not sexp:
        raise FolParseError("empty index term")
    head = sexp[0]
    if head in _IOPS:
        args = tuple(parse_index_term(a, reg, scope) for a in sexp[1:])
        if len(args) != 2:
            raise FolParseError(f"{head!r} takes two index arguments")
        return IdxApp(head, args)
    if head == "fn":
        if len(sexp) < 2 or not isinstance(sexp[1], str):
            raise FolParseError("(fn NAME args...) expected")
        name = sexp[1]
        if name not in reg.index_fns:
            raise FolParseError(f"unknown index function {name!r}")
        args = tuple(parse_index_term(a, reg, scope) for a in sexp[2:])
        if len(args) != reg.index_fns[name][0]:
            raise FolParseError(f"index function {name!r} arity mismatch")
        return IdxApp(name, args)
    raise FolParseError(f"bad index term head {head!r}")


def parse_ring_term(sexp, reg: FunctionRegistry, scope: set[str]) -> RingTerm:
    if isinstance(sexp, str) or not sexp:
        raise FolParseError(f"bad ring term {sexp!r}")
    head = sexp[0]
    if head == _RATS:
        if len(sexp) != 2 or not isinstance(sexp[1], str):
            raise FolParseError("(rat q) expected")
        try:
            return RingConst(Fraction(sexp[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise FolParseError(f"bad rational {sexp[1]!r}") from exc
    if head == "X":
        if len(sexp) != 2:
            raise FolParseError("(X index-term) expected")
        return OracleAt(parse_index_term(sexp[1], reg, scope))
    if head in ("+", "-", "*"):
        if len(sexp) != 3:
            raise FolParseError(f"ring {head!r} takes two arguments")
        return RingOp(
            head, parse_ring_term(sexp[1], reg, scope), parse_ring_term(sexp[2], reg, scope)
        )
    if head == "sum":
        if len(sexp) != 4 or not isinstance(sexp[1], str):
            raise FolParseError("(sum var bound body) expected")
        var = sexp[1]
        bound = parse_index_term(sexp[2], reg, scope)
        body = parse_ring_term(sexp[3], reg, scope | {var})
        return BigSum(var, bound, body)
    if head == "rfn":
        if len(sexp) < 2 or not isinstance(sexp[1], str):
            raise FolParseError("(rfn NAME args...) expected")
        name = sexp[1]
        if name not in reg.ring_fns:
            raise FolParseError(f"unknown ring function {name!r}")
        args = tuple(parse_index_term(a, reg, scope) for a in sexp[2:])
        if len(args) != reg.ring_fns[name][0]:
            raise FolParseError(f"ring function {name!r} arity mismatch")
        return RingApp(name, args)
    raise FolParseError(f"bad ring term head {head!r}")


def parse_formula(text_or_sexp, reg: FunctionRegistry, scope: set[str] | None = None) -> Formula:
    sexp = _read_sexp(text_or_sexp) if isinstance(text_or_sexp, str) else text_or_sexp
    return _parse_formula(sexp, reg, scope or set())


def _parse_formula(sexp, reg: FunctionRegistry, scope: set[str]) -> Formula:
    if isinstance(sexp, str) or not sexp:
        raise FolParseError(f"bad formula {sexp!r}")
    head = sexp[0]
    if head == "=":
        if len(sexp) != 3:
            raise FolParseError("(= ring-term ring-term) expected")
        return RingEq(parse_ring_term(sexp[1], reg, scope), parse_ring_term(sexp[2], reg, scope))
    if head in ("i=", "i<"):
        if len(sexp) != 3:
            raise FolParseError(f"({head} index-term index-term) expected")
        cls = IdxEq if head == "i=" else IdxLt
        return cls(parse_index_term(sexp[1], reg, scope), parse_index_term(sexp[2], reg, scope))
    if head in ("and", "or"):
        parts = tuple(_parse_formula(s, reg, scope) for s in sexp[1:])
        if not parts:
            raise FolParseError(f"{head!r} needs at least one subformula")
        return And(parts) if head == "and" else Or(parts)
    if head == "not":
        if len(sexp) != 2:
            raise FolParseError("(not formula) expected")
        return Not(_parse_formula(sexp[1], reg, scope))
    if head in ("forall", "exists"):
        if len(sexp) != 4 or not isinstance(sexp[1], str):
            raise FolParseError(f"({head} var bound formula) expected")
        var = sexp[1]
        bound = parse_index_term(sexp[2], reg, scope)
        body = _parse_formula(sexp[3], reg, scope | {var})
        cls = ForallIdx if head == "forall" else ExistsIdx
        return cls(var, bound, body)
    raise FolParseError(f"bad formula head {head!r}")


def format_formula(phi: Formula) -> str:
    return _fmt(phi)


def _fmt(node) -> str:
    match node:
        case IdxLit(v):
            return str(v)
        case IdxVar(n):
            return n
        case IdxApp(fn, args):
            inner = "".join(" " + _fmt(a) for a in args)
            return f"({fn}{inner})" if fn in _IOPS else f"(fn {fn}{inner})"
        case RingConst(v):
            return f"(rat {v})"
        case OracleAt(i):
            return f"(X {_fmt(i)})"
        case RingOp(op, l, r):
            return f"({op} {_fmt(l)} {_fmt(r)})"
        case BigSum(var, bound, body):
            return f"(sum {var} {_fmt(bound)} {_fmt(body)})"
        case RingApp(fn, args):
            inner = "".join(" " + _fmt(a) for a in args)
            return f"(rfn {fn}{inner})"
        case RingEq(l, r):
            return f"(= {_fmt(l)} {_fmt(r)})"
        case IdxEq(l, r):
            return f"(i= {_fmt(l)} {_fmt(r)})"
        case IdxLt(l, r):
            return f"(i< {_fmt(l)} {_fmt(r)})"
        case And(parts):
            return "(and " + " ".join(_fmt(p) for p in parts) + ")"
        case Or(parts):
            return "(or " + " ".join(_fmt(p) for p in parts) + ")"
        case Not(body):
            return f"(not {_fmt(body)})"
        case ForallIdx(var, bound, body):
            return f"(forall {var} {_fmt(bound)} {_fmt(body)})"
        case ExistsIdx(var, bound, body):
            return f"(exists {var} {_fmt(bound)} {_fmt(body)})"
    raise FolError(f"unknown node {node!r}")


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


def eval_index(term: IndexTerm, alpha: dict[str, int], reg: FunctionRegistry) -> int:
    match term:
        case IdxLit(v):
            return v
        case IdxVar(name):
            if name not in alpha:
                raise FolError(f"assignment does not cover index variable {name!r}")
            return int(alpha[name])
        case IdxApp(fn, args):
            return reg.index_apply(fn, tuple(eval_index(a, alpha, reg) for a in args))
    raise FolError(f"bad index term {term!r}")


class Model:
    """Where the ring-term interpreter lands: ring values in the standard
    model with oracle X.  A subclass changes what a constant, an oracle
    application, a ring function and a bounded sum denote (the last three
    under the index assignment alpha); `PolyModel` gives polynomials over
    the oracle variables, and the sequent checker gives polynomials over
    opaque atoms."""

    def __init__(self, reg: FunctionRegistry, ring: Ring = RATIONAL, oracle=None):
        self.reg = reg
        self.ring = ring
        self.oracle = oracle

    @cached_property
    def ops(self) -> dict:
        return {"+": self.ring.add, "-": self.ring.sub, "*": self.ring.mul}

    def const(self, value):
        return self.ring.coerce(value)

    def at(self, index: IndexTerm, alpha):
        j = eval_index(index, alpha, self.reg)
        if j not in self.oracle:
            raise FolError(f"oracle gap at index {j}")
        return self.ring.coerce(self.oracle[j])

    def apply(self, fn: str, args: tuple, alpha):
        values = tuple(eval_index(a, alpha, self.reg) for a in args)
        return self.const(self.reg.ring_apply(fn, values))

    def big_sum(self, var: str, bound: IndexTerm, body: RingTerm, alpha):
        n = eval_index(bound, alpha, self.reg)
        return self.total(ring_value(body, {**alpha, var: j}, self) for j in range(n))

    def total(self, values):
        out = 0
        for v in values:
            out = self.ring.add(out, v)
        return out


class PolyModel(Model):
    """Ring terms as polynomials in x0, x1, ... with x_j standing for X(j)."""

    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul}

    def const(self, value) -> Polynomial:
        return Polynomial.const(self.ring, self.ring.coerce(value))

    def at(self, index: IndexTerm, alpha) -> Polynomial:
        return Polynomial.variable(self.ring, eval_index(index, alpha, self.reg))

    def total(self, values) -> Polynomial:
        return Polynomial.sum(self.ring, values)


def ring_value(term: RingTerm, alpha: dict, model: Model):
    """The ring-term interpreter: what `term` denotes in `model` when the
    free index variables take their values from alpha."""
    match term:
        case OracleAt(i):
            return model.at(i, alpha)
        case RingConst(v):
            return model.const(v)
        case RingOp(op, l, r):
            return model.ops[op](ring_value(l, alpha, model), ring_value(r, alpha, model))
        case RingApp(fn, args):
            return model.apply(fn, args, alpha)
        case BigSum(var, bound, body):
            return model.big_sum(var, bound, body, alpha)
    raise FolError(f"bad ring term {term!r}")


def translate_ring_term(
    term: RingTerm, alpha: dict[str, int], reg: FunctionRegistry, ring: Ring = RATIONAL
) -> Polynomial:
    return ring_value(term, alpha, PolyModel(reg, ring))


def eval_formula(
    phi: Formula, alpha: dict[str, int], oracle, reg: FunctionRegistry, ring: Ring = RATIONAL
) -> bool:
    """Truth of a formula in the standard model with oracle X."""
    return _holds(phi, alpha, Model(reg, ring, oracle))


def _holds(phi: Formula, alpha, model: Model) -> bool:
    """Truth under alpha, with ring terms compared in a model whose index
    terms evaluate to naturals."""
    match phi:
        case RingEq(l, r):
            return ring_value(l, alpha, model) == ring_value(r, alpha, model)
        case IdxEq(l, r):
            return eval_index(l, alpha, model.reg) == eval_index(r, alpha, model.reg)
        case IdxLt(l, r):
            return eval_index(l, alpha, model.reg) < eval_index(r, alpha, model.reg)
        case And(parts):
            return all(_holds(p, alpha, model) for p in parts)
        case Or(parts):
            return any(_holds(p, alpha, model) for p in parts)
        case Not(body):
            return not _holds(body, alpha, model)
        case ForallIdx(var, bound, body):
            n = eval_index(bound, alpha, model.reg)
            return all(_holds(body, {**alpha, var: j}, model) for j in range(n))
        case ExistsIdx(var, bound, body):
            n = eval_index(bound, alpha, model.reg)
            return any(_holds(body, {**alpha, var: j}, model) for j in range(n))
    raise FolError(f"bad formula {phi!r}")


def translate_formula(
    phi: Formula, alpha: dict[str, int], reg: FunctionRegistry, ring: Ring = RATIONAL
) -> EquationSet:
    """Equation-set translation; defined exactly on the classified class."""
    ok, why = classify_indpc(phi)
    if not ok:
        raise ClassificationError(f"formula is not translatable: {why}")
    return _translate(phi, alpha, PolyModel(reg, ring))


def _translate(phi, alpha, model: PolyModel) -> EquationSet:
    ring = model.ring
    if not mentions_oracle(phi):
        # evaluation in the polynomial model: oracle-free terms are constants
        truth = _holds(phi, alpha, model)
        value = Polynomial.zero(ring) if truth else Polynomial.const(ring, 1)
        return EquationSet(ring, (value,))
    match phi:
        case RingEq(l, r):
            return EquationSet(ring, (ring_value(l, alpha, model) - ring_value(r, alpha, model),))
        case And(parts):
            out = _translate(parts[0], alpha, model)
            for p in parts[1:]:
                out = out.union(_translate(p, alpha, model))
            return out
        case Or(parts):
            out = _translate(parts[0], alpha, model)
            for p in parts[1:]:
                out = out.product(_translate(p, alpha, model))
            return out
        case ForallIdx(var, bound, body):
            members: tuple[Polynomial, ...] = ()
            for j in range(eval_index(bound, alpha, model.reg)):
                members += _translate(body, {**alpha, var: j}, model).members
            return EquationSet(ring, members)
    raise FolError(f"untranslatable formula {phi!r}")
