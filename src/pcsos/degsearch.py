"""Degree-d PC derivability oracle by iterated exact linear algebra.

The degree-d closure of an equation set is the vector space spanned by
everything PC can derive without any line exceeding degree d: seed with
the axioms of degree <= d, then close under linear combination and under
multiplication by single variables while the product stays within d.
Membership in the span is equivalent to degree-d PC derivability, and
each basis row carries a provenance record so a membership witness can
be replayed into an explicit derivation that the checker accepts.

This is the Macaulay-matrix view of degree-bounded PC (Clegg, Edmonds and
Impagliazzo, STOC 1996) with F4-style sparse rows (Faugere, JPAA 1999).
The columns are the monomials of degree <= d over the closure's
variables, numbered once in graded-lex order, so the lead of a row is its
smallest column.  Each row is a sparse {column: coeff} dict of integers:
over Q a primitive vector (content 1, positive lead), over GF(p) a monic
one.  One pivot map {lead column: row id} grows as rows are appended, and
multiplying a row by a variable is a table lookup per term.  Candidates
are inserted breadth-first and top-reduced against the rows before them,
fraction-free (Bareiss, Math. Comp. 1968): with pivot lead p and current
lead v, g = gcd(p, v), the vector becomes (p/g) vec - (v/g) row.  Over
GF(p), and for the +-1 leads of chain and fPHP, p/g is 1 and only the
pivot row's entries are touched.  The content (over GF(p), the lead) is
divided out once, when a row is appended; rows are never back-substituted.

Scaling never changes a support, so each integer row is a nonzero
rational multiple of the row that elimination with field division would
give, with the same leads in the same order.  The provenance records only
which rows reduced a row; replay recomputes each field factor from the
lines it has built (the current line's coefficient at the pivot's lead
over the pivot line's), so each extracted line is the field row itself.

With Boolean axioms and d >= 2 the columns are the multilinear monomials
only, and ml(p) (every exponent cut to 1) stands for p.  Two facts make
this sound.  First, p - ml(p) is a sum of Boolean multiples
(x^2 - x) * r of degree <= deg p: each term r * x^e with e >= 2 walks
down to r * x one factor at a time.  Second, for a multilinear m with x
in m, x * m - m = (x^2 - x) * (m / x), one multiple of degree deg m + 1.
Both multiples lie in the degree-d closure, since x^2 - x does and d >= 2.
So the closure is {p of degree <= d : ml(p) in M}, where M is the span of
ml(axiom) for the axioms of degree <= d, closed under q -> ml(x * q) for
q of degree < d; the closure loop builds M over the multilinear columns,
inserting ml(axiom) and never the Boolean axioms themselves.  The map p ->
ml(p) sends the closure onto M with the monomials m - ml(m) spanning its
kernel, so the closure's dimension is dim M plus the count of
non-multilinear monomials of degree <= d.  A p of degree above d is
outside the closure whatever ml(p) is.  Replay turns each row's raw line,
which may hold squares, into its multilinear form with those multiples
(DerivationBuilder.boolean_reduce), and turns the last line back into a
non-multilinear target the same way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .algebra import EquationSet, Polynomial, Ring
from .proofcheck import Axiom, Derivation, DerivationBuilder, Justification, Mul, relabel

DEFAULT_MONOMIAL_CAP = 200_000


class ClosureTooLarge(ValueError):
    pass


@dataclass
class BasisRow:
    """One closure row, kept once as its sparse {column: coeff} vector;
    poly and lead are rebuilt from the basis's columns on each access."""

    basis: "ClosureBasis" = field(repr=False, compare=False)
    vec: dict  # {column: int coeff}: primitive with positive lead over Q, monic over GF(p)
    lead_column: int
    source: Justification  # how the raw row arose; a Mul cites its parent's row id
    # the ids of the rows that top-reduced raw (ml(raw) under multilinear
    # columns), in order; the factors are recomputed on replay
    reductions: tuple[int, ...]

    @property
    def poly(self) -> Polynomial:
        """The row as a polynomial: a nonzero scalar multiple of the line replay emits for it."""
        return self.basis._polynomial(self.vec)

    @property
    def lead(self) -> tuple:
        return self.basis.columns[self.lead_column]


def _multilinear(axioms: EquationSet, degree_bound: int) -> bool:
    """Whether the closure's columns are the multilinear monomials: the
    Boolean axioms are on and within the degree bound."""
    return axioms.boolean_axioms and degree_bound >= 2


def _times_variable(m: tuple, v: int, multilinear: bool) -> tuple:
    """The exponent tuple of v * m, or of ml(v * m) when multilinear (m is then multilinear)."""
    i = bisect_left(m, (v, 0))
    if i < len(m) and m[i][0] == v:
        return m if multilinear else m[:i] + ((v, m[i][1] + 1),) + m[i + 1 :]
    return m[:i] + ((v, 1),) + m[i:]


def _graded_lex_monomials(variables: tuple[int, ...], degree_bound: int, multilinear: bool) -> list[tuple]:
    """All monomials (multilinear ones only, if asked) of degree <=
    degree_bound over sorted variables, in graded-lex order (graded_lex_key
    ascending).  Each degree extends the one below in order: a monomial m
    whose last variable is variables[i - 1] first raises that exponent
    (unless multilinear), then appends each later variable's shared (v, 1)
    pair, so within a degree the monomials come out lexicographically."""
    n = len(variables)
    ones = [(v, 1) for v in variables]
    layers = [[()]]
    nexts = [0]  # nexts[k]: the index of the first variable after those of layers[-1][k]
    for _ in range(degree_bound):
        layer, after = [], []
        for m, i in zip(layers[-1], nexts):
            if m and not multilinear:
                v, e = m[-1]
                layer.append(m[:-1] + ((v, e + 1),))
                after.append(i)
            layer += [m + (pair,) for pair in ones[i:]]
            after += range(i + 1, n + 1)
        layers.append(layer)
        nexts = after
    return [m for layer in reversed(layers) for m in layer]


@dataclass
class ClosureBasis:
    degree_bound: int
    variables: tuple[int, ...]
    axioms: EquationSet
    columns: tuple[tuple, ...]  # graded-lex; a row's lead is its smallest column
    rows: list[BasisRow] = field(default_factory=list)
    _column_of: dict = field(init=False, repr=False)
    _pivots: dict = field(default_factory=dict, repr=False)  # lead column -> row id

    def __post_init__(self):
        self._column_of = {m: c for c, m in enumerate(self.columns)}

    @property
    def ring(self) -> Ring:
        return self.axioms.ring

    @property
    def multilinear(self) -> bool:
        return _multilinear(self.axioms, self.degree_bound)

    def span_dimension(self) -> int:
        """Dimension of the degree-d closure: the rows, plus one element
        m - ml(m) for each monomial m of degree <= d missing from the columns."""
        full = comb(len(self.variables) + self.degree_bound, self.degree_bound)
        return len(self.rows) + full - len(self.columns)

    def _vector(self, p: Polynomial) -> dict | None:
        """p (ml(p) under multilinear columns), its denominators cleared, as
        {column: int coeff}, or None if a monomial lies outside the columns."""
        if self.multilinear:
            p = p.multilinearize()
        column_of = self._column_of
        terms = p._terms
        denominators = [c.denominator for c in terms.values() if type(c) is Fraction]
        scale = lcm(*denominators) if denominators else 1
        vec = {}
        for m, c in terms.items():
            col = column_of.get(m)
            if col is None:
                return None
            vec[col] = c * scale if type(c) is int else c.numerator * (scale // c.denominator)
        return vec

    def _eliminate(self, vec: dict) -> list[int]:
        """Top-reduce vec in place, fraction-free, so that it ends as a
        nonzero multiple of its field remainder; return the ids of the rows used."""
        pivots, rows, mod = self._pivots, self.rows, self.ring.p
        used = []
        while vec:
            lead = min(vec)
            rid = pivots.get(lead)
            if rid is None:
                break
            row = rows[rid].vec
            p, v = row[lead], vec[lead]
            g = gcd(p, v)
            if p != g:  # never over GF(p), where p is 1
                s = p // g
                for col in vec:
                    vec[col] *= s
            factor = v // g
            get = vec.get
            for col, coeff in row.items():
                value = get(col, 0) - factor * coeff
                if mod is not None:
                    value %= mod
                if value:
                    vec[col] = value
                else:
                    del vec[col]
            used.append(rid)
        return used

    def _polynomial(self, vec: dict) -> Polynomial:
        columns = self.columns
        return Polynomial._raw(self.ring, {columns[c]: v for c, v in vec.items()})

    def _append(self, vec: dict, source: Justification, used: list) -> None:
        """Append vec as a row: divided by its signed content over Q, made monic over GF(p)."""
        lead = min(vec)
        mod = self.ring.p
        if mod is None:
            content = gcd(*vec.values())
            if vec[lead] < 0:
                content = -content
            if content != 1:
                vec = {c: v // content for c, v in vec.items()}
        elif vec[lead] != 1:
            inverse = pow(vec[lead], -1, mod)
            vec = {c: v * inverse % mod for c, v in vec.items()}
        self._pivots[lead] = len(self.rows)
        self.rows.append(BasisRow(self, vec, lead, source, tuple(used)))

    def reduce(self, p: Polynomial):
        """Reduce p against the basis; returns (remainder, ids of the rows
        used).  The remainder is exact up to a nonzero scalar: zero exactly
        when p is in the closure.  Under multilinear columns it is that of
        ml(p).  A p of degree above d, or with a variable outside the
        closure, is returned unreduced."""
        vec = self._vector(p) if p.degree <= self.degree_bound else None
        if vec is None:
            return p, ()
        used = self._eliminate(vec)
        return self._polynomial(vec), tuple(used)

    def contains(self, p: Polynomial) -> bool:
        remainder, _ = self.reduce(p)
        return remainder.is_zero


def pc_closure(
    axioms: EquationSet,
    degree_bound: int,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
    extra_variables=(),
) -> ClosureBasis:
    """Fixpoint of linear span plus degree-capped variable multiplication.

    Multiplication ranges over the variables occurring in the axioms plus
    any caller-supplied extras (a derivation may introduce fresh ones).
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be nonnegative, got {degree_bound}")
    mod = axioms.ring.p
    variables = tuple(sorted(axioms.variables() | set(extra_variables)))
    multilinear = _multilinear(axioms, degree_bound)
    n = len(variables)
    if multilinear:
        count = sum(comb(n, k) for k in range(degree_bound + 1))
        low = comb(n, degree_bound)
    else:
        count = comb(n + degree_bound, degree_bound)
        low = comb(n + degree_bound - 1, degree_bound) if degree_bound else count
    kind = "multilinear monomials" if multilinear else "monomials"
    if count > monomial_cap:
        raise ClosureTooLarge(f"{count} {kind} of degree <= {degree_bound} exceeds the cap {monomial_cap}")
    columns = _graded_lex_monomials(variables, degree_bound, multilinear)
    basis = ClosureBasis(degree_bound, variables, axioms, tuple(columns))
    column_of = basis._column_of

    # shift[k][c - low] is the column of the normal form of variables[k] *
    # columns[c], defined for the columns of degree < d, which form the
    # suffix starting at low
    shift = [[column_of[_times_variable(m, v, multilinear)] for m in columns[low:]] for v in variables]

    def insert(vec: dict, source: Justification) -> None:
        used = basis._eliminate(vec)
        if vec:
            basis._append(vec, source, used)

    for k, p in enumerate(axioms):
        if not p.is_zero and p.degree <= degree_bound:
            insert(basis._vector(p), Axiom(k))

    # every appended row is queued, so the queue is the row list itself
    rid = 0
    while rid < len(basis.rows):
        row = basis.rows[rid]
        if row.lead_column >= low:  # lead of degree < d
            vec = row.vec
            for k, v in enumerate(variables):
                table = shift[k]
                product = {}
                for c, coeff in vec.items():
                    t = table[c - low]
                    if t in product:  # x*m and x*(m/x) share a multilinear column
                        coeff += product[t]
                        if mod is not None:
                            coeff %= mod
                        if not coeff:
                            del product[t]
                            continue
                    product[t] = coeff
                insert(product, Mul(rid, v))
        rid += 1
    return basis


def extract_derivation(basis: ClosureBasis, target: Polynomial) -> Derivation | None:
    """Replay provenance into an explicit PC derivation of target, or None.

    The output cites the closure's original axioms, uses only degree-bound
    admissible lines, and verifies under check_derivation.
    """
    if target.degree > basis.degree_bound:
        raise ValueError(
            f"target degree {target.degree} exceeds the closure bound {basis.degree_bound}"
        )
    remainder, used = basis.reduce(target)
    if not remainder.is_zero:
        return None

    ring = basis.ring
    builder = DerivationBuilder("pc", basis.axioms)
    emitted: dict[int, int] = {}

    def normal(line: int) -> int:
        """line turned into its multilinear form under multilinear columns."""
        if not basis.multilinear:
            return line
        return builder.boolean_reduce(line, builder.poly(line).multilinearize())

    def factor(current: Polynomial, rid: int):
        """The field factor that cancels current's term at row rid's lead
        against rid's line; the builder coerces it."""
        lead = basis.rows[rid].lead
        return current._terms[lead] * ring.inv(builder.poly(emitted[rid])._terms[lead])

    def emit_row(rid: int) -> int:
        if rid in emitted:
            return emitted[rid]
        row = basis.rows[rid]
        line = normal(builder.derive(relabel(row.source, ring, emit_row)))
        for other in row.reductions:
            pivot = emit_row(other)
            line = builder.add(line, pivot, 1, -factor(builder.poly(line), other))
        emitted[rid] = line
        return line

    if target.is_zero:
        builder.zero()
    else:
        rest = target.multilinearize() if basis.multilinear else target
        parts = []
        for rid in used:
            pivot = emit_row(rid)
            coeff = factor(rest, rid)
            rest = rest - builder.poly(pivot).scale(coeff)
            parts.append((pivot, coeff))
        final = builder.combination(parts)
        if builder.poly(final) != target:  # a non-multilinear target
            final = builder.boolean_reduce(final, target)
        assert builder.poly(final) == target
    return builder.build()
