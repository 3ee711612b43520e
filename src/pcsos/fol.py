"""Restricted two-sorted first-order language over an oracle sequence X.

Index terms evaluate to naturals; ring terms translate, under an
assignment of naturals to the free index variables, into polynomials in
the variables x0, x1, ... where x_j stands for X(j).  Formulas built from
ring equalities, index comparisons, and/or, and bounded index quantifiers
translate into finite equation sets: conjunction becomes set union,
disjunction becomes the set product, a bounded universal becomes the
union of its instances, and an oracle-free subformula collapses to
{0 = 0} or {1 = 0} by evaluation.

Function symbols live in a finite registry of total computable functions
(built-ins plus user tables with a default), standing in for the paper-
style "every function" signature, which no tool can materialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


class _SexpReader:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def read(self):
        if self.pos >= len(self.tokens):
            raise FolParseError("unexpected end of expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            items = []
            while True:
                if self.pos >= len(self.tokens):
                    raise FolParseError("missing closing parenthesis")
                if self.tokens[self.pos] == ")":
                    self.pos += 1
                    return items
                items.append(self.read())
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
    if head == "i=":
        return IdxEq(parse_index_term(sexp[1], reg, scope), parse_index_term(sexp[2], reg, scope))
    if head == "i<":
        return IdxLt(parse_index_term(sexp[1], reg, scope), parse_index_term(sexp[2], reg, scope))
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
            inner = " ".join(_fmt(a) for a in args)
            return f"({fn} {inner})" if fn in _IOPS else f"(fn {fn} {inner})".rstrip()
        case RingConst(v):
            return f"(rat {v})"
        case OracleAt(i):
            return f"(X {_fmt(i)})"
        case RingOp(op, l, r):
            return f"({op} {_fmt(l)} {_fmt(r)})"
        case BigSum(var, bound, body):
            return f"(sum {var} {_fmt(bound)} {_fmt(body)})"
        case RingApp(fn, args):
            inner = " ".join(_fmt(a) for a in args)
            return f"(rfn {fn} {inner})" if args else f"(rfn {fn})"
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
        case RingOp(_, l, r):
            return mentions_oracle(l) or mentions_oracle(r)
        case BigSum(_, _, body):
            return mentions_oracle(body)
        case RingEq(l, r):
            return mentions_oracle(l) or mentions_oracle(r)
        case And(parts) | Or(parts):
            return any(mentions_oracle(p) for p in parts)
        case Not(body):
            return mentions_oracle(body)
        case ForallIdx(_, _, body) | ExistsIdx(_, _, body):
            return mentions_oracle(body)
        case _:
            return False


def free_index_vars(node, bound: frozenset[str] = frozenset()) -> set[str]:
    match node:
        case IdxVar(name):
            return set() if name in bound else {name}
        case IdxLit() | RingConst():
            return set()
        case IdxApp(_, args) | RingApp(_, args):
            out: set[str] = set()
            for a in args:
                out |= free_index_vars(a, bound)
            return out
        case OracleAt(i):
            return free_index_vars(i, bound)
        case RingOp(_, l, r) | RingEq(l, r) | IdxEq(l, r) | IdxLt(l, r):
            return free_index_vars(l, bound) | free_index_vars(r, bound)
        case BigSum(var, b, body) | ForallIdx(var, b, body) | ExistsIdx(var, b, body):
            return free_index_vars(b, bound) | free_index_vars(body, bound | {var})
        case And(parts) | Or(parts):
            out = set()
            for p in parts:
                out |= free_index_vars(p, bound)
            return out
        case Not(body):
            return free_index_vars(body, bound)
        case _:
            return set()


def substitute_index(node, name: str, replacement: IndexTerm):
    """Capture-avoiding substitution of an index term for a free variable."""
    match node:
        case IdxVar(n):
            return replacement if n == name else node
        case IdxLit() | RingConst():
            return node
        case IdxApp(fn, args):
            return IdxApp(fn, tuple(substitute_index(a, name, replacement) for a in args))
        case RingApp(fn, args):
            return RingApp(fn, tuple(substitute_index(a, name, replacement) for a in args))
        case OracleAt(i):
            return OracleAt(substitute_index(i, name, replacement))
        case RingOp(op, l, r):
            return RingOp(op, substitute_index(l, name, replacement), substitute_index(r, name, replacement))
        case BigSum(var, b, body):
            b2 = substitute_index(b, name, replacement)
            if var == name:
                return BigSum(var, b2, body)
            if var in free_index_vars(replacement):
                raise FolError(f"substitution would capture {var!r}")
            return BigSum(var, b2, substitute_index(body, name, replacement))
        case RingEq(l, r):
            return RingEq(substitute_index(l, name, replacement), substitute_index(r, name, replacement))
        case IdxEq(l, r):
            return IdxEq(substitute_index(l, name, replacement), substitute_index(r, name, replacement))
        case IdxLt(l, r):
            return IdxLt(substitute_index(l, name, replacement), substitute_index(r, name, replacement))
        case And(parts):
            return And(tuple(substitute_index(p, name, replacement) for p in parts))
        case Or(parts):
            return Or(tuple(substitute_index(p, name, replacement) for p in parts))
        case Not(body):
            return Not(substitute_index(body, name, replacement))
        case ForallIdx(var, b, body) | ExistsIdx(var, b, body):
            cls = type(node)
            b2 = substitute_index(b, name, replacement)
            if var == name:
                return cls(var, b2, body)
            if var in free_index_vars(replacement):
                raise FolError(f"substitution would capture {var!r}")
            return cls(var, b2, substitute_index(body, name, replacement))
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


def translate_ring_term(
    term: RingTerm, alpha: dict[str, int], reg: FunctionRegistry, ring: Ring = RATIONAL
) -> Polynomial:
    match term:
        case RingConst(v):
            return Polynomial.const(ring, ring.coerce(v))
        case OracleAt(i):
            return Polynomial.variable(ring, eval_index(i, alpha, reg))
        case RingOp(op, l, r):
            a = translate_ring_term(l, alpha, reg, ring)
            b = translate_ring_term(r, alpha, reg, ring)
            return a + b if op == "+" else a - b if op == "-" else a * b
        case BigSum(var, bound, body):
            n = eval_index(bound, alpha, reg)
            return Polynomial.sum(
                ring,
                (translate_ring_term(body, {**alpha, var: j}, reg, ring) for j in range(n)),
            )
        case RingApp(fn, args):
            value = reg.ring_apply(fn, tuple(eval_index(a, alpha, reg) for a in args))
            return Polynomial.const(ring, ring.coerce(value))
    raise FolError(f"bad ring term {term!r}")


def eval_ring_term(term: RingTerm, alpha, oracle, reg: FunctionRegistry, ring: Ring = RATIONAL):
    """Value of a ring term in the standard model with oracle X."""
    match term:
        case RingConst(v):
            return ring.coerce(v)
        case OracleAt(i):
            j = eval_index(i, alpha, reg)
            if j not in oracle:
                raise FolError(f"oracle gap at index {j}")
            return ring.coerce(oracle[j])
        case RingOp(op, l, r):
            a = eval_ring_term(l, alpha, oracle, reg, ring)
            b = eval_ring_term(r, alpha, oracle, reg, ring)
            return ring.add(a, b) if op == "+" else ring.sub(a, b) if op == "-" else ring.mul(a, b)
        case BigSum(var, bound, body):
            n = eval_index(bound, alpha, reg)
            total = ring.zero
            for j in range(n):
                total = ring.add(total, eval_ring_term(body, {**alpha, var: j}, oracle, reg, ring))
            return total
        case RingApp(fn, args):
            return ring.coerce(reg.ring_apply(fn, tuple(eval_index(a, alpha, reg) for a in args)))
    raise FolError(f"bad ring term {term!r}")


def eval_formula(
    phi: Formula, alpha: dict[str, int], oracle, reg: FunctionRegistry, ring: Ring = RATIONAL
) -> bool:
    match phi:
        case RingEq(l, r):
            return eval_ring_term(l, alpha, oracle, reg, ring) == eval_ring_term(
                r, alpha, oracle, reg, ring
            )
        case IdxEq(l, r):
            return eval_index(l, alpha, reg) == eval_index(r, alpha, reg)
        case IdxLt(l, r):
            return eval_index(l, alpha, reg) < eval_index(r, alpha, reg)
        case And(parts):
            return all(eval_formula(p, alpha, oracle, reg, ring) for p in parts)
        case Or(parts):
            return any(eval_formula(p, alpha, oracle, reg, ring) for p in parts)
        case Not(body):
            return not eval_formula(body, alpha, oracle, reg, ring)
        case ForallIdx(var, bound, body):
            n = eval_index(bound, alpha, reg)
            return all(eval_formula(body, {**alpha, var: j}, oracle, reg, ring) for j in range(n))
        case ExistsIdx(var, bound, body):
            n = eval_index(bound, alpha, reg)
            return any(eval_formula(body, {**alpha, var: j}, oracle, reg, ring) for j in range(n))
    raise FolError(f"bad formula {phi!r}")


def translate_formula(
    phi: Formula, alpha: dict[str, int], reg: FunctionRegistry, ring: Ring = RATIONAL
) -> EquationSet:
    """Equation-set translation; defined exactly on the classified class."""
    ok, why = classify_indpc(phi)
    if not ok:
        raise ClassificationError(f"formula is not translatable: {why}")
    return _translate(phi, alpha, reg, ring)


def _translate(phi, alpha, reg, ring) -> EquationSet:
    if not mentions_oracle(phi):
        truth = eval_formula(phi, alpha, {}, reg, ring)
        value = Polynomial.zero(ring) if truth else Polynomial.const(ring, 1)
        return EquationSet(ring, (value,))
    match phi:
        case RingEq(l, r):
            poly = translate_ring_term(l, alpha, reg, ring) - translate_ring_term(r, alpha, reg, ring)
            return EquationSet(ring, (poly,))
        case And(parts):
            out = _translate(parts[0], alpha, reg, ring)
            for p in parts[1:]:
                out = out.union(_translate(p, alpha, reg, ring))
            return out
        case Or(parts):
            out = _translate(parts[0], alpha, reg, ring)
            for p in parts[1:]:
                out = out.product(_translate(p, alpha, reg, ring))
            return out
        case ForallIdx(var, bound, body):
            n = eval_index(bound, alpha, reg)
            members: tuple[Polynomial, ...] = ()
            for j in range(n):
                members += _translate(body, {**alpha, var: j}, reg, ring).members
            return EquationSet(ring, members)
    raise FolError(f"untranslatable formula {phi!r}")
