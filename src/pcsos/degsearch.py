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
smallest column.  Each row is a sparse {column: coeff} dict over the
exact coefficient field (rationals or GF(p)), one pivot map {lead column:
row id} grows as rows are appended, and multiplying a row by a variable
is a table lookup per term.  Candidates are inserted breadth-first and
reduced against the rows before them; rows are never normalised or
back-substituted.

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
from itertools import combinations, combinations_with_replacement, groupby
from math import comb

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
    vec: dict  # {column: coeff}
    lead_column: int
    source: Justification  # how the raw row arose; a Mul cites its parent's row id
    # poly = raw - sum coeff*rows[i].poly, with ml(raw) for raw under multilinear columns
    reductions: tuple[tuple[object, int], ...]

    @property
    def poly(self) -> Polynomial:
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
    ascending).  Within one degree, the sorted variable multisets from
    combinations_with_replacement, and the sets from combinations, come out
    in exactly that lexicographic order."""
    pick = combinations if multilinear else combinations_with_replacement
    out = []
    for d in range(degree_bound, -1, -1):
        for combo in pick(variables, d):
            out.append(tuple((v, len(tuple(g))) for v, g in groupby(combo)))
    return out


@dataclass
class ClosureBasis:
    degree_bound: int
    variables: tuple[int, ...]
    axioms: EquationSet
    columns: tuple[tuple, ...]  # graded-lex; a row's lead is its smallest column
    rows: list[BasisRow] = field(default_factory=list)
    _column_of: dict = field(init=False, repr=False)
    _lead_inverses: list = field(default_factory=list, repr=False)
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
        """p (ml(p) under multilinear columns) as {column: coeff}, or None
        if a monomial lies outside the columns."""
        if self.multilinear:
            p = p.multilinearize()
        column_of = self._column_of
        vec = {}
        for m, c in p._terms.items():
            col = column_of.get(m)
            if col is None:
                return None
            vec[col] = c
        return vec

    def _eliminate(self, vec: dict) -> list[tuple[object, int]]:
        """Top-reduce vec in place; return the (factor, row id) steps."""
        pivots, rows, inverses = self._pivots, self.rows, self._lead_inverses
        mod = self.ring.p
        coerce = self.ring.coerce
        used = []
        while vec:
            lead = min(vec)
            rid = pivots.get(lead)
            if rid is None:
                break
            factor = coerce(vec[lead] * inverses[rid])
            get = vec.get
            for col, coeff in rows[rid].vec.items():
                value = get(col, 0) - factor * coeff
                if mod is not None:
                    value %= mod
                elif type(value) is Fraction and value.denominator == 1:
                    value = value.numerator  # integral entries stay on int arithmetic
                if value:
                    vec[col] = value
                else:
                    del vec[col]
            used.append((factor, rid))
        return used

    def _polynomial(self, vec: dict) -> Polynomial:
        columns = self.columns
        return Polynomial._raw(self.ring, {columns[c]: v for c, v in vec.items()})

    def _append(self, vec: dict, source: Justification, used: list) -> None:
        lead = min(vec)
        self._pivots[lead] = len(self.rows)
        self._lead_inverses.append(self.ring.inv(vec[lead]))
        self.rows.append(BasisRow(self, vec, lead, source, tuple(used)))

    def reduce(self, p: Polynomial):
        """Reduce p against the basis; returns (remainder, eliminations).
        Under multilinear columns the remainder is that of ml(p).  A p of
        degree above d, or with a variable outside the closure, is
        returned unreduced."""
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
    coerce = axioms.ring.coerce
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
                        coeff = coerce(product[t] + coeff)
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

    def emit_row(rid: int) -> int:
        if rid in emitted:
            return emitted[rid]
        row = basis.rows[rid]
        line = normal(builder.derive(relabel(row.source, ring, emit_row)))
        for coeff, other in row.reductions:
            line = builder.add(line, emit_row(other), 1, -coeff)
        emitted[rid] = line
        return line

    if target.is_zero:
        builder.zero()
    else:
        final = builder.combination([(emit_row(rid), coeff) for coeff, rid in used])
        if builder.poly(final) != target:  # a non-multilinear target
            final = builder.boolean_reduce(final, target)
        assert builder.poly(final) == target
    return builder.build()
