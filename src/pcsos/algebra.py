"""Exact coefficient rings, sparse multivariate polynomials and equation sets.

Coefficients are either arbitrary-precision rationals (fractions.Fraction)
or residues of a prime field GF(p).  Polynomials are immutable sparse maps
from monomials to nonzero coefficients; all arithmetic is exact.  The degree
of the zero polynomial is the sentinel MINUS_INF, never 0, so degree caps
treat it as always admissible.

Every coefficient is canonical: over Q an int when integral, else a
Fraction; over GF(p) an int in [1, p).  _put is the one place that makes
it so: it coerces int/Fraction values and drops zeros.  The constructor
Polynomial(ring, terms) sends every value through it; arithmetic starts
from its operands' canonical dicts and sends through it only the
coefficients it computes.  Only _raw trusts its caller (the parser,
generators and closure rows).

A monomial is its exponent tuple ((var, exp), ...): the variables strictly
increasing, every exponent positive, and () for the constant monomial.  A
tuple is hashable and compared by value, so it keys a polynomial's term
dict directly, and merge_exps multiplies two of them.  Callers that build
term dicts by hand must keep this canonical form, or equal polynomials
compare unequal.

Monomials are ordered graded-lexicographically (higher total degree first,
then lexicographic with x0 heaviest); graded_lex_key realizes the order.
It is used only for canonical printing and for indexing in linear algebra,
never semantically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

MINUS_INF = float("-inf")


class AlgebraError(ValueError):
    pass


class PolyParseError(AlgebraError):
    """Syntax or coefficient error in polynomial text, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- number text: every number read from outside or written out -------


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases above; exact below 3.3e24."""
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
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


_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:([/.])([0-9]+))?")


def parse_rational(value) -> Fraction:
    """A JSON integer (not a bool), or ASCII text -?D, -?D/D or -?D.D with D
    digits 0-9.  AlgebraError refuses all else: exponents, '+', whitespace,
    '_', other digits, floats, bools, null, a zero denominator, and more
    digits than the interpreter converts."""
    if type(value) is int:
        return Fraction(value)
    match = _RATIONAL_TEXT.fullmatch(value) if type(value) is str else None
    try:
        head, sep, tail = match.groups()
        if sep == ".":
            return Fraction(int(head + tail), 10 ** len(tail))
        return Fraction(int(head), int(tail or 1))
    except (AttributeError, ValueError, ZeroDivisionError):  # no match, too long, n/0
        raise _bad_rational(value) from None


def _bad_rational(value) -> AlgebraError:
    return AlgebraError(f"bad rational {value!r:.60}; expected -?D, -?D/D or -?D.D within the digit limit")


def parse_natural(value) -> int:
    """A nonnegative JSON integer (not a bool) or ASCII digits D, read by
    int(); past the digit limit, refused as parse_rational refuses it."""
    if type(value) is int and value >= 0:
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:
            raise _bad_rational(value) from None
    raise AlgebraError(f"bad natural number {value!r:.60}; expected digits 0-9")


def format_rational(q) -> str:
    """str(q) of an int or Fraction, which parse_rational reads back; past
    the interpreter's digit limit, the same text joined from halves."""
    try:
        return str(q)
    except ValueError:
        num, den = q.numerator, q.denominator
    if den != 1:
        return f"{format_rational(num)}/{format_rational(den)}"
    half = num.bit_length() * 3 // 20  # about half the digits: log10(2) ~ 3/10
    high, low = divmod(abs(num), 10**half)
    return "-" * (num < 0) + format_rational(high) + format_rational(low).zfill(half)


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
            if type(self.p) is not int or self.p > 2**31 or not _probable_prime(self.p):
                raise AlgebraError(f"gf modulus must be a prime <= 2**31, got {self.p!r}")
        else:
            raise AlgebraError(f"unknown ring kind {self.kind!r}")

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

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

    def inv(self, a):
        if self.p is None:
            if type(a) is int and (a == 1 or a == -1):
                return a  # a unit of the integers is its own inverse
            if a == 0:
                raise AlgebraError("division by zero")
            return self.coerce(Fraction(1) / Fraction(a))
        if a % self.p == 0:
            raise AlgebraError(f"0 has no inverse modulo {self.p}")
        return pow(a, self.p - 2, self.p)

    def to_json(self) -> dict:
        return {"kind": "rational"} if self.is_rational else {"kind": "gf", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "Ring":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "rational":
            return RATIONAL
        if kind == "gf":
            return Ring("gf", parse_natural(obj["p"]))
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


def graded_lex_key(m: tuple):
    """Ascending-sort key of an exponent tuple that realizes descending
    graded-lex order.  Two monomials of one degree differ at a position
    that both reach, so the lexicographic part needs no terminator."""
    return (-sum([e for _, e in m]), [(v, -e) for v, e in m])


class Polynomial:
    """Immutable sparse polynomial; terms maps exponent tuple -> nonzero coefficient."""

    __slots__ = ("ring", "_terms", "_hash", "_degree")

    def __init__(self, ring: Ring, terms=None):
        _set_ring(self, ring)
        _set_terms(self, _put(ring, {}, terms.items()) if terms else {})
        _set_hash(self, None)
        _set_degree(self, None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _raw(ring: Ring, terms: dict) -> "Polynomial":
        # internal: takes ownership of a dict of canonical nonzero coefficients
        poly = _new_object(Polynomial)
        _set_ring(poly, ring)
        _set_terms(poly, terms)
        _set_hash(poly, None)
        _set_degree(poly, None)
        return poly

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring)

    @staticmethod
    def const(ring: Ring, value) -> "Polynomial":
        return Polynomial(ring, {(): value})

    @staticmethod
    def variable(ring: Ring, var: int) -> "Polynomial":
        return Polynomial._raw(ring, {((var, 1),): 1})

    @staticmethod
    def sum(ring: Ring, polys) -> "Polynomial":
        """Sum many polynomials in one pass (avoids quadratic rebuilds)."""
        acc: dict = {}
        for p in polys:
            if p.ring != ring:
                raise AlgebraError("ring mismatch")
            for m, c in p._terms.items():
                prev = acc.get(m)
                acc[m] = c if prev is None else prev + c
        return Polynomial(ring, acc)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self) -> list:
        items = list(self._terms.items())
        if len(items) > 1:
            items.sort(key=lambda mc: graded_lex_key(mc[0]))
        return items

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return self._terms.keys() <= {()}

    def constant_value(self):
        if not self.is_constant:
            raise AlgebraError("not a constant polynomial")
        return self._terms.get((), 0)

    @property
    def degree(self):
        d = self._degree
        if d is None:
            d = MINUS_INF
            for m in self._terms:
                k = 0
                for _, e in m:
                    k += e
                if k > d:
                    d = k
            _set_degree(self, d)
        return d

    def variables(self) -> set[int]:
        return {v for m in self._terms for v, _ in m}

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and (self.ring is other.ring or self.ring == other.ring)
            and self._terms == other._terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"<{self.format()} over {self.ring.kind}>"

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise AlgebraError("ring mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self._terms)
        get = out.get
        pairs = [(m, get(m, 0) + c) for m, c in other._terms.items()]
        return Polynomial._raw(self.ring, _put(self.ring, out, pairs))

    def __neg__(self) -> "Polynomial":
        pairs = [(m, -c) for m, c in self._terms.items()]
        return Polynomial._raw(self.ring, _put(self.ring, {}, pairs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self._terms)
        get = out.get
        pairs = [(m, get(m, 0) - c) for m, c in other._terms.items()]
        return Polynomial._raw(self.ring, _put(self.ring, out, pairs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        a, b = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        if len(a._terms) == 1:
            # single-term factor: an injective shift, no terms merge
            ((m1, c1),) = a._terms.items()
            if not m1:
                return b.scale(c1)
            pairs = [(merge_exps(m1, m), c1 * c) for m, c in b._terms.items()]
            return Polynomial._raw(self.ring, _put(self.ring, {}, pairs))
        return expand(self.ring, ((a, b),))

    def scale(self, c) -> "Polynomial":
        c = self.ring.coerce(c)
        if c == 1:
            return self
        pairs = [(m, v * c) for m, v in self._terms.items()] if c else ()
        return Polynomial._raw(self.ring, _put(self.ring, {}, pairs))

    def evaluate(self, assignment: dict):
        """Exact evaluation; assignment must cover every variable."""
        coerce = self.ring.coerce
        total = 0
        try:
            for m, c in self._terms.items():
                for v, e in m:
                    c = coerce(c * coerce(assignment[v]) ** e)
                total += c
        except KeyError:
            missing = self.variables() - set(assignment)
            raise AlgebraError(f"assignment missing variables {sorted(missing)}") from None
        return coerce(total)

    def multilinearize(self) -> "Polynomial":
        """Collapse every exponent >= 1 to 1; agrees on all 0/1 points."""
        out: dict = {}
        for m, c in self._terms.items():
            flat = tuple((v, 1) for v, _ in m)
            prev = out.get(flat)
            out[flat] = c if prev is None else prev + c
        return Polynomial(self.ring, out)

    # -- canonical text -----------------------------------------------

    def format(self) -> str:
        return format_poly(self, {})


# The slot setters past the immutability guard.  Calling a slot's descriptor
# directly skips the attribute lookup of object.__setattr__, which halves the
# cost of building a polynomial (0.6 to 0.3 us on CPython 3.11).
_new_object = object.__new__
_set_ring, _set_terms, _set_hash, _set_degree = (
    Polynomial.__dict__[name].__set__ for name in Polynomial.__slots__
)


def _put(ring: Ring, out: dict, pairs) -> dict:
    """Store each (monomial, int/Fraction value) pair in out as the ring's
    canonical coefficient, or remove the monomial when the value is 0.
    An int, the common case, is reduced inline."""
    q, coerce = ring.p, ring.coerce
    for m, c in pairs:
        if type(c) is not int:
            c = coerce(c)
        elif q is not None:
            c %= q
        if c:
            out[m] = c
        elif m in out:
            del out[m]
    return out


def format_poly(p: Polynomial, monos: dict) -> str:
    """The canonical text of p, terms in graded-lex order.  monos maps each
    monomial of a polynomial of two or more terms, which has terms to sort,
    to its graded_lex_key and text.  A writer passes one table for all the
    polynomials of a file, Polynomial.format a fresh one.  A single term
    skips the table: within one file its monomial seldom recurs."""
    terms = p._terms
    if len(terms) == 1:
        ((m, c),) = terms.items()
        return ("-" if c < 0 else "") + _term_text(abs(c), _monomial_text(m))
    if not terms:
        return "0"
    get = monos.get
    rows = []
    for m, c in terms.items():
        entry = get(m)
        if entry is None:
            entry = monos[m] = (graded_lex_key(m), _monomial_text(m))
        rows.append((entry, c))
    rows.sort()  # by the keys alone: the monomials of one polynomial differ
    line = "".join([(" - " if c < 0 else " + ") + _term_text(abs(c), text) for (_, text), c in rows])
    return line[3:] if line[1] == "+" else "-" + line[3:]


def _monomial_text(m: tuple) -> str:
    return "*".join([f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in m])


def _term_text(c, text: str) -> str:
    """A term from its positive coefficient and its monomial's text; a
    coefficient over GF(p) is never negative."""
    if c == 1 and text:
        return text
    if text:
        return f"{format_rational(c)}*{text}"
    return format_rational(c)


# -- the one expansion of products and weighted squares ----------------


def expand(ring: Ring, products=(), squares=()) -> Polynomial:
    """sum a*b over the (a, b) pairs plus sum w*s^2 over the (square,
    weight) pairs, summed in one accumulator and normalised once.  It is
    the one loop over the terms of two multi-term polynomials: products
    and the kernel's identities all come here.  The constant term of a
    product's first factor adds a scaled copy of the second factor, with
    no monomial merge per term; a certificate's constant multipliers take
    only that path.

    The squares go through a Gram matrix: the distinct monomials of all the
    squares are numbered once, and the entry G[i, j] += w c_i c_j (doubled
    for i < j) is accumulated in row i's dict under the int j, so each
    product of two monomials is merged once however many squares share
    it.  The denominators of each square and of the weights are cleared
    into one common denominator first, so the entries stay on int
    arithmetic and are divided once per monomial of the squares' sum.
    """
    rows = []  # per nonzero square: its monomials, integral coefficients and weight
    den = 1
    for s, w in squares:
        if s.ring != ring:
            raise AlgebraError("ring mismatch")
        if not s._terms:
            continue
        w = ring.coerce(w)
        coeffs = list(s._terms.values())
        d = lcm(*[c.denominator for c in coeffs])
        if d != 1:  # w s^2 = (w / d^2) (d s)^2, and d s is integral
            coeffs = [(c * d).numerator for c in coeffs]
            w = Fraction(w, d * d)
        den = lcm(den, w.denominator)
        rows.append((s._terms, coeffs, w))
    index: dict = {}  # monomial -> its number i
    monos: list = []  # i -> monomial
    gram: list = []  # i -> {j: G[i, j]} for j >= i
    for terms, coeffs, w in rows:
        w = w.numerator * (den // w.denominator)
        row = []
        for m, c in zip(terms, coeffs):
            i = index.get(m)
            if i is None:
                i = index[m] = len(monos)
                monos.append(m)
                gram.append({})
            row.append((i, c))
        row.sort()
        for a, (i, c) in enumerate(row):
            g = gram[i]
            get = g.get
            wc = w * c
            g[i] = get(i, 0) + wc * c
            wc += wc
            for j, c2 in row[a + 1 :]:
                g[j] = get(j, 0) + wc * c2
    acc: dict = {}
    get = acc.get
    for mi, g in zip(monos, gram):
        for j, v in g.items():
            if v:
                m = merge_exps(mi, monos[j])
                acc[m] = get(m, 0) + v
    if den != 1:
        for m, v in acc.items():
            acc[m] = Fraction(v, den)
    for a, b in products:
        # identity first: comparing two Ring dataclasses costs more than a small product
        if not (a.ring is ring is b.ring or a.ring == ring == b.ring):
            raise AlgebraError("ring mismatch")
        for m1, c1 in a._terms.items():
            if not m1:  # the constant term adds c1 times b, monomials as they are
                for m, c2 in b._terms.items():
                    prev = get(m)
                    acc[m] = c1 * c2 if prev is None else prev + c1 * c2
                continue
            for m2, c2 in b._terms.items():
                m = merge_exps(m1, m2)
                prev = get(m)
                acc[m] = c1 * c2 if prev is None else prev + c1 * c2
    return Polynomial(ring, acc)


# -- parsing ----------------------------------------------------------


# one token: x and its index, an ASCII number, or any single non-space character
_TOKEN = re.compile(r"\s*(x\s*[0-9]+|[0-9]+|\S)")
_DIGITS = frozenset("0123456789")


def _parse_error(text: str, message: str, k: int, at_number: bool = False) -> PolyParseError:
    """Error at the k-th token of text, or at its end if there is none.
    With at_number, the error is at the token's number, which for a
    variable follows its x."""
    for n, match in enumerate(_TOKEN.finditer(text)):
        if n == k:
            token = match[1]
            if at_number and token[0] == "x":
                return PolyParseError(message, match.end(1) - len(token[1:].lstrip()))
            return PolyParseError(message, match.start(1))
    return PolyParseError(message, len(text))


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse polynomial text per the grammar:

    poly    := ['-'] term (('+'|'-') term)*
    term    := coeff ['*' factors] | factors
    factors := factor ('*' factor)*
    factor  := var ['^' nat]         var := 'x' nat
    coeff   := int | int '/' posnat  (reduced mod p over gf(p))

    Numbers are ASCII digits; whitespace may separate any two tokens.  A
    variable is one token, x and its index with any whitespace between,
    so x12*x345 reads as three tokens; error positions are those of the
    characters, whatever the tokens.
    """
    toks = _TOKEN.findall(text)
    end = len(toks)
    acc: dict = {}  # exponent tuple -> canonical nonzero coefficient, in order of appearance
    negate = end > 0 and toks[0] == "-"
    k = 1 if negate else 0
    try:
        while True:
            if k == end:
                raise _parse_error(text, "expected a term", k)
            tok = toks[k]
            if tok[0] in _DIGITS:
                start = k
                coeff = -int(tok) if negate else int(tok)
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
            else:  # a bare monomial
                coeff, more = ring.coerce(-1) if negate else 1, True
            key: tuple = ()  # sorted (var, exp > 0) pairs
            while more:
                if k == end or toks[k][0] != "x":
                    raise _parse_error(text, "expected a variable like x1", k)
                tok = toks[k]
                if len(tok) == 1:  # no number follows the x
                    raise _parse_error(text, "expected a number", k + 1)
                var = int(tok[1:].lstrip())  # int() refuses some whitespace that \s takes
                k += 1
                exp = 1
                if k < end and toks[k] == "^":
                    k += 1
                    if k == end or toks[k][0] not in _DIGITS:
                        raise _parse_error(text, "expected a number", k)
                    exp = int(toks[k])
                    k += 1
                if exp:
                    if not key or var > key[-1][0]:  # factors in order: append
                        key += ((var, exp),)
                    else:
                        key = merge_exps(key, ((var, exp),))
                if k == end or toks[k] != "*":
                    break
                k += 1
            if coeff:
                prev = acc.get(key)
                if prev is not None:
                    coeff = ring.coerce(prev + coeff)
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
        raise _parse_error(text, "number too long", k, at_number=True) from exc
    return Polynomial._raw(ring, acc)


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

    def variables(self) -> set[int]:
        out: set[int] = set()
        for p in self.members:
            out |= p.variables()
        return out

    def vanishes_at(self, assignment: dict) -> bool:
        return all(p.evaluate(assignment) == 0 for p in self.members)


def eqset(ring: Ring, polys, boolean_axioms: bool = False) -> EquationSet:
    return EquationSet(ring, tuple(polys), boolean_axioms)

