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
The monomials of degree <= d over the closure's variables are numbered
once, in graded-lex order, so column 0 is the leading monomial of the
whole space and the lead of a row is its smallest column.  Each row is a
sparse {column: coeff} dict over the exact coefficient field (rationals
or GF(p)), and one pivot map {lead column: row id} grows as rows are
appended.  A top-reduction step is therefore one min() over the vector
and one dict lookup, and multiplying a row by a variable is a table
lookup per term.  Candidates are inserted breadth-first and reduced
against the rows before them; rows are never normalised or
back-substituted.  The cost is one sparse row update per elimination
step, dominated by coefficient arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from math import comb

from .algebra import EquationSet, Polynomial, Ring, merge_exps
from .proofcheck import Axiom, BoolAxiom, Derivation, DerivationBuilder, Justification, Mul, relabel

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
    reductions: tuple[tuple[object, int], ...]  # poly = raw - sum coeff*rows[i].poly

    @property
    def poly(self) -> Polynomial:
        return self.basis._polynomial(self.vec)

    @property
    def lead(self) -> tuple:
        return self.basis.columns[self.lead_column]


def _graded_lex_monomials(variables: tuple[int, ...], degree_bound: int) -> list[tuple]:
    """All monomials of degree <= degree_bound over sorted variables, in
    graded-lex order (graded_lex_key ascending).  Within one degree,
    the sorted variable multisets from combinations_with_replacement come
    out in exactly that lexicographic order."""
    out = []
    for d in range(degree_bound, -1, -1):
        for combo in combinations_with_replacement(variables, d):
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

    def span_dimension(self) -> int:
        return len(self.rows)

    def _vector(self, p: Polynomial) -> dict | None:
        """p as {column: coeff}, or None if a monomial lies outside the columns."""
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
        """Reduce p against the basis; returns (remainder, eliminations)."""
        vec = self._vector(p)
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
    ring = axioms.ring
    variables = tuple(sorted(axioms.variables() | set(extra_variables)))
    count = comb(len(variables) + degree_bound, degree_bound) if variables else 1
    if count > monomial_cap:
        raise ClosureTooLarge(
            f"{count} monomials of degree <= {degree_bound} exceeds the cap {monomial_cap}"
        )
    columns = _graded_lex_monomials(variables, degree_bound)
    basis = ClosureBasis(degree_bound, variables, axioms, tuple(columns))
    column_of = basis._column_of

    # shift[k][c - low] is the column of variables[k] * columns[c], defined
    # for the columns of degree < d, which form the suffix starting at low
    low = comb(len(variables) + degree_bound - 1, degree_bound) if degree_bound else count
    var_monos = [((v, 1),) for v in variables]
    shift = [[column_of[merge_exps(m, x)] for m in columns[low:]] for x in var_monos]

    def insert(vec: dict, source: Justification) -> None:
        used = basis._eliminate(vec)
        if vec:
            basis._append(vec, source, used)

    for k, p in enumerate(axioms):
        if not p.is_zero and p.degree <= degree_bound:
            insert(basis._vector(p), Axiom(k))
    if axioms.boolean_axioms and degree_bound >= 2:
        for k, v in enumerate(variables):
            x = column_of[var_monos[k]]
            insert({shift[k][x - low]: 1, x: ring.neg(1)}, BoolAxiom(v))

    # every appended row is queued, so the queue is the row list itself
    rid = 0
    while rid < len(basis.rows):
        row = basis.rows[rid]
        if row.lead_column >= low:  # lead of degree < d
            vec = row.vec
            for k, v in enumerate(variables):
                table = shift[k]
                product = {table[c - low]: coeff for c, coeff in vec.items()}
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

    builder = DerivationBuilder("pc", basis.axioms)
    emitted: dict[int, int] = {}

    def emit_row(rid: int) -> int:
        if rid in emitted:
            return emitted[rid]
        row = basis.rows[rid]
        line = builder.derive(relabel(row.source, basis.ring, emit_row))
        for coeff, other in row.reductions:
            line = builder.add(line, emit_row(other), 1, basis.ring.neg(coeff))
        emitted[rid] = line
        return line

    if target.is_zero:
        builder.zero()
    else:
        parts = [(emit_row(rid), coeff) for coeff, rid in used]
        final = builder.combination(parts)
        assert builder.poly(final) == target
    return builder.build()
