"""Exact coefficient rings, sparse multivariate polynomials and equation sets.

Coefficients are either arbitrary-precision rationals (fractions.Fraction)
or residues of a prime field GF(p).  Polynomials are immutable sparse maps
from monomials to nonzero coefficients; all arithmetic is exact.  The degree
of the zero polynomial is the sentinel MINUS_INF, never 0, so degree caps
treat it as always admissible.

Monomials are ordered graded-lexicographically (higher total degree first,
then lexicographic with x0 heaviest).  The order is used only for canonical
printing and for indexing in linear algebra, never semantically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

MINUS_INF = float("-inf")

_F0 = Fraction(0)
_F1 = Fraction(1)

# terminator for lexicographic monomial keys; larger than any variable index
_VAR_SENTINEL = 1 << 62


class AlgebraError(ValueError):
    pass


class PolyParseError(AlgebraError):
    """Syntax or coefficient error in polynomial text, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Ring:
    """Either the rationals or GF(p) for a prime p <= 2**31."""

    kind: str  # "rational" | "gf"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None:
                raise AlgebraError("rational ring takes no modulus")
        elif self.kind == "gf":
            if type(self.p) is not int or self.p > 2**31 or not _is_prime(self.p):
                raise AlgebraError(f"gf modulus must be a prime <= 2**31, got {self.p!r}")
        else:
            raise AlgebraError(f"unknown ring kind {self.kind!r}")

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, value):
        """Normalize an int/Fraction into a canonical coefficient of this ring.

        Rational coefficients are plain ints whenever integral (Python
        hashes and compares mixed int/Fraction values consistently), which
        keeps the common integer-coefficient paths on fast machine
        arithmetic.
        """
        if self.p is None:
            if type(value) is int:
                return value
            value = value if type(value) is Fraction else Fraction(value)
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise AlgebraError(f"{value} has no inverse modulo {self.p}")
            return value.numerator * pow(value.denominator, self.p - 2, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise AlgebraError("division by zero")
            return self.coerce(Fraction(1) / Fraction(a))
        if a % self.p == 0:
            raise AlgebraError(f"0 has no inverse modulo {self.p}")
        return pow(a, self.p - 2, self.p)

    def parse_coeff(self, text: str):
        """Parse a signed 'int' or 'int/posnat' coefficient literal."""
        text = text.strip()
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad coefficient {text!r}: {exc}") from exc

    def format_coeff(self, c) -> str:
        return str(c)

    def to_json(self) -> dict:
        return {"kind": "rational"} if self.is_rational else {"kind": "gf", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "Ring":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "rational":
            return RATIONAL
        if kind == "gf":
            return Ring("gf", obj["p"])
        raise AlgebraError(f"bad ring descriptor {obj!r}")


RATIONAL = Ring("rational")


def GF(p: int) -> Ring:
    return Ring("gf", p)


def merge_exps(a: tuple, b: tuple) -> tuple:
    """Exponent tuple of the product of two monomials' sorted exponent tuples."""
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (va, ea), (vb, eb) = a[0], b[0]
        if va == vb:
            return ((va, ea + eb),)
        return (a[0], b[0]) if va < vb else (b[0], a[0])
    # two-pointer merge of the sorted exponent tuples
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


class Monomial:
    """Product of variable powers, stored as a sorted tuple of (var, exp>0)."""

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps=()):
        items = tuple(sorted((int(v), int(e)) for v, e in dict(exps).items() if e))
        for v, e in items:
            if v < 0 or e < 0:
                raise AlgebraError(f"bad monomial entry ({v}, {e})")
        object.__setattr__(self, "exps", items)
        object.__setattr__(self, "degree", sum(e for _, e in items))
        object.__setattr__(self, "_hash", hash(items))

    @staticmethod
    def _make(items: tuple, degree: int) -> "Monomial":
        # internal: items already sorted with positive exponents
        mono = Monomial.__new__(Monomial)
        object.__setattr__(mono, "exps", items)
        object.__setattr__(mono, "degree", degree)
        object.__setattr__(mono, "_hash", hash(items))
        return mono

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return self is other or (isinstance(other, Monomial) and self.exps == other.exps)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.exps!r})"

    @property
    def is_constant(self) -> bool:
        return not self.exps

    def variables(self) -> set[int]:
        return {v for v, _ in self.exps}

    def exponent(self, var: int) -> int:
        return dict(self.exps).get(var, 0)

    def mul(self, other: "Monomial") -> "Monomial":
        if not other.exps:
            return self
        if not self.exps:
            return other
        return Monomial._make(merge_exps(self.exps, other.exps), self.degree + other.degree)

    def sort_key(self):
        """Ascending-sort key that realizes descending graded-lex order."""
        return (-self.degree, tuple((v, -e) for v, e in self.exps) + ((_VAR_SENTINEL, 0),))


ONE_MONOMIAL = Monomial()


def monomial(*pairs) -> Monomial:
    return Monomial(pairs)


@lru_cache(maxsize=65536)
def _variable_cached(ring: Ring, var: int):
    return Polynomial(ring, {Monomial({var: 1}): ring.one})


class Polynomial:
    """Immutable sparse polynomial; terms maps Monomial -> nonzero coefficient."""

    __slots__ = ("ring", "_terms", "_hash", "_degree")

    def __init__(self, ring: Ring, terms=None):
        canon = {}
        for m, c in (terms or {}).items():
            c = ring.coerce(c)
            if c != ring.zero:
                canon[m] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", canon)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_degree", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _make(ring: Ring, terms: dict) -> "Polynomial":
        # internal: coefficients already canonical; drop zeros only
        zero = ring.zero
        return Polynomial._raw(ring, {m: c for m, c in terms.items() if c != zero})

    @staticmethod
    def _raw(ring: Ring, terms: dict) -> "Polynomial":
        # internal: takes ownership of a dict known to be zero-free
        poly = Polynomial.__new__(Polynomial)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        object.__setattr__(poly, "_degree", None)
        return poly

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring)

    @staticmethod
    def const(ring: Ring, value) -> "Polynomial":
        return Polynomial(ring, {ONE_MONOMIAL: value})

    @staticmethod
    def variable(ring: Ring, var: int) -> "Polynomial":
        return _variable_cached(ring, var)

    @staticmethod
    def sum(ring: Ring, polys) -> "Polynomial":
        """Sum many polynomials in one pass (avoids quadratic rebuilds)."""
        acc: dict = {}
        add = ring.add
        for p in polys:
            if p.ring != ring:
                raise AlgebraError("ring mismatch")
            for m, c in p._terms.items():
                prev = acc.get(m)
                acc[m] = c if prev is None else add(prev, c)
        return Polynomial._make(ring, acc)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(m.is_constant for m in self._terms)

    def constant_value(self):
        if not self.is_constant:
            raise AlgebraError("not a constant polynomial")
        return self._terms.get(ONE_MONOMIAL, self.ring.zero)

    @property
    def degree(self):
        d = self._degree
        if d is None:
            d = max(m.degree for m in self._terms) if self._terms else MINUS_INF
            object.__setattr__(self, "_degree", d)
        return d

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self._terms:
            out |= m.variables()
        return out

    def coefficient(self, m: Monomial):
        return self._terms.get(m, self.ring.zero)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"<{self.format()} over {self.ring.kind}>"

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise AlgebraError("ring mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self._terms)
        zero = self.ring.zero
        add = self.ring.add
        for m, c in other._terms.items():
            out[m] = add(out.get(m, zero), c)
        return Polynomial._make(self.ring, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ring.neg
        return Polynomial._raw(self.ring, {m: neg(c) for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self._terms)
        zero = self.ring.zero
        sub = self.ring.sub
        for m, c in other._terms.items():
            out[m] = sub(out.get(m, zero), c)
        return Polynomial._make(self.ring, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        mul = self.ring.mul
        if len(a) == 1:
            # single-term factor over a field: injective shift, no new zeros
            ((m1, c1),) = a.items()
            if not m1.exps:
                return Polynomial._raw(self.ring, {m: mul(c1, c) for m, c in b.items()})
            return Polynomial._raw(self.ring, {m1.mul(m): mul(c1, c) for m, c in b.items()})
        out: dict = {}
        add = self.ring.add
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1.mul(m2)
                c = mul(c1, c2)
                prev = out.get(m)
                out[m] = c if prev is None else add(prev, c)
        return Polynomial._make(self.ring, out)

    def scale(self, c) -> "Polynomial":
        c = self.ring.coerce(c)
        if c == self.ring.zero:
            return Polynomial.zero(self.ring)
        mul = self.ring.mul
        return Polynomial._raw(self.ring, {m: mul(v, c) for m, v in self._terms.items()})

    def mul_monomial(self, mono: Monomial) -> "Polynomial":
        return Polynomial._raw(self.ring, {m.mul(mono): c for m, c in self._terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = Polynomial.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, assignment: dict):
        """Exact evaluation; assignment must cover every variable."""
        missing = self.variables() - set(assignment)
        if missing:
            raise AlgebraError(f"assignment missing variables {sorted(missing)}")
        total = self.ring.zero
        for m, c in self._terms.items():
            val = c
            for v, e in m.exps:
                base = self.ring.coerce(assignment[v])
                for _ in range(e):
                    val = self.ring.mul(val, base)
            total = self.ring.add(total, val)
        return total

    def multilinearize(self) -> "Polynomial":
        """Collapse every exponent >= 1 to 1; agrees on all 0/1 points."""
        out: dict = {}
        for m, c in self._terms.items():
            flat = Monomial._make(tuple((v, 1) for v, _ in m.exps), len(m.exps))
            prev = out.get(flat)
            out[flat] = c if prev is None else self.ring.add(prev, c)
        return Polynomial._make(self.ring, out)

    # -- canonical text -----------------------------------------------

    def format(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            sign = ""
            if self.ring.is_rational and c < 0:
                sign, c = "-", -c
            body = _format_term(self.ring, m, c)
            if i == 0:
                parts.append(f"-{body}" if sign else body)
            else:
                parts.append(f"- {body}" if sign else f"+ {body}")
        return " ".join(parts)


def _format_term(ring: Ring, m: Monomial, c) -> str:
    factors = []
    for v, e in m.exps:
        factors.append(f"x{v}" if e == 1 else f"x{v}^{e}")
    if not factors:
        return ring.format_coeff(c)
    if c == ring.one:
        return "*".join(factors)
    return "*".join([ring.format_coeff(c)] + factors)


# -- parsing ----------------------------------------------------------


# one token: an ASCII number or any single non-space character
_TOKEN = re.compile(r"\s*([0-9]+|\S)")
_DIGITS = frozenset("0123456789")


def _parse_error(text: str, message: str, k: int) -> PolyParseError:
    """Error at the k-th token of text, or at its end if there is none."""
    for n, match in enumerate(_TOKEN.finditer(text)):
        if n == k:
            return PolyParseError(message, match.start(1))
    return PolyParseError(message, len(text))


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse polynomial text per the grammar:

    poly    := ['-'] term (('+'|'-') term)*
    term    := coeff ['*' factors] | factors
    factors := factor ('*' factor)*
    factor  := var ['^' nat]         var := 'x' nat
    coeff   := int | int '/' posnat  (reduced mod p over gf(p))

    Numbers are ASCII digits; whitespace may separate any two tokens.
    """
    toks = _TOKEN.findall(text)
    end = len(toks)
    add, neg = ring.add, ring.neg
    acc: dict = {}  # exponent tuple -> nonzero coefficient, in order of appearance
    degrees: dict = {}
    negate = end > 0 and toks[0] == "-"
    k = 1 if negate else 0
    try:
        while True:
            if k == end:
                raise _parse_error(text, "expected a term", k)
            coeff, more = 1, True
            if toks[k][0] in _DIGITS:
                start = k
                coeff = int(toks[k])
                k += 1
                if k < end and toks[k] == "/":
                    k += 1
                    if k == end or toks[k][0] not in _DIGITS:
                        raise _parse_error(text, "expected a number", k)
                    den = int(toks[k])
                    if not den:
                        raise _parse_error(text, "zero denominator", start)
                    k += 1
                    coeff = Fraction(coeff, den)
                try:
                    coeff = ring.coerce(coeff)
                except AlgebraError as exc:
                    raise _parse_error(text, str(exc), start) from exc
                more = k < end and toks[k] == "*"
                if more:
                    k += 1
            key: tuple = ()  # sorted (var, exp > 0) pairs
            degree = 0
            while more:
                if k == end or toks[k] != "x":
                    raise _parse_error(text, "expected a variable like x1", k)
                k += 1
                if k == end or toks[k][0] not in _DIGITS:
                    raise _parse_error(text, "expected a number", k)
                var = int(toks[k])
                k += 1
                exp = 1
                if k < end and toks[k] == "^":
                    k += 1
                    if k == end or toks[k][0] not in _DIGITS:
                        raise _parse_error(text, "expected a number", k)
                    exp = int(toks[k])
                    k += 1
                if exp:
                    key = merge_exps(key, ((var, exp),))
                    degree += exp
                if k == end or toks[k] != "*":
                    break
                k += 1
            if coeff:
                if negate:
                    coeff = neg(coeff)
                prev = acc.get(key)
                if prev is not None:
                    coeff = add(prev, coeff)
                degrees[key] = degree
                if coeff:
                    acc[key] = coeff
                else:  # a cancelled term leaves, and goes to the end if it returns
                    del acc[key]
            if k == end:
                break
            if toks[k] == "+":
                negate = False
            elif toks[k] == "-":
                negate = True
            else:
                raise _parse_error(text, f"unexpected character {toks[k][0]!r}", k)
            k += 1
    except PolyParseError:
        raise
    except ValueError as exc:  # int() refuses numbers past the interpreter's digit limit
        raise _parse_error(text, "number too long", k) from exc
    # constant terms share ONE_MONOMIAL, as in Polynomial.const
    terms = {Monomial._make(key, degrees[key]) if key else ONE_MONOMIAL: c for key, c in acc.items()}
    return Polynomial._raw(ring, terms)


# -- equation sets ----------------------------------------------------


@dataclass(frozen=True)
class EquationSet:
    """Finite ordered list of polynomials, each read as p = 0.

    boolean_axioms means the equations x_i^2 - x_i = 0 are additionally
    available for every variable.
    """

    ring: Ring
    members: tuple[Polynomial, ...]
    boolean_axioms: bool = False

    def __post_init__(self):
        ring = self.ring
        for p in self.members:
            if p.ring is not ring and p.ring != ring:
                raise AlgebraError("equation ring mismatch")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Polynomial:
        return self.members[i]

    def union(self, other: "EquationSet") -> "EquationSet":
        if self.ring != other.ring:
            raise AlgebraError("ring mismatch")
        return EquationSet(
            self.ring,
            self.members + other.members,
            self.boolean_axioms or other.boolean_axioms,
        )

    def product(self, other: "EquationSet") -> "EquationSet":
        """All pairwise products, left-major: satisfied iff self or other is."""
        if self.ring != other.ring:
            raise AlgebraError("ring mismatch")
        members = tuple(p * q for p in self.members for q in other.members)
        return EquationSet(self.ring, members, self.boolean_axioms or other.boolean_axioms)

    def canonical(self) -> "EquationSet":
        seen, out = set(), []
        for p in self.members:
            if p not in seen:
                seen.add(p)
                out.append(p)
        return EquationSet(self.ring, tuple(out), self.boolean_axioms)

    def variables(self) -> set[int]:
        out: set[int] = set()
        for p in self.members:
            out |= p.variables()
        return out

    def vanishes_at(self, assignment: dict) -> bool:
        return all(p.evaluate(assignment) == self.ring.zero for p in self.members)


def eqset(ring: Ring, polys, boolean_axioms: bool = False) -> EquationSet:
    return EquationSet(ring, tuple(polys), boolean_axioms)


# -- four-square decomposition ----------------------------------------


@lru_cache(maxsize=4096)
def _four_square_int(n: int) -> tuple[int, int, int, int]:
    # Lagrange guarantees a solution; descending DFS finds the canonical one.
    def rec(remaining: int, bound: int, depth: int):
        if depth == 4:
            return () if remaining == 0 else None
        hi = min(bound, isqrt(remaining))
        for a in range(hi, -1, -1):
            rest = rec(remaining - a * a, a, depth + 1)
            if rest is not None:
                return (a,) + rest
        return None

    out = rec(n, isqrt(n), 0)
    assert out is not None
    return out


def four_square(q) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Four rationals whose squares sum exactly to q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise AlgebraError(f"four_square needs a nonnegative input, got {q}")
    num, den = q.numerator, q.denominator
    ints = _four_square_int(num * den)
    return tuple(Fraction(a, den) for a in ints)
