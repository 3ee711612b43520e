"""Benchmark equation families with first-order formulations and certificates.

Where a constructive argument exists it is turned into an explicit
certificate: the functional pigeonhole family carries a degree-2 SoS+Bool
refutation read off the hole-counting identity

    (sum_i x_ij - 1)^2 = 1 - sum_i x_ij + sum_i (x_ij^2 - x_ij)
                           + 2 sum_{i<i'} x_ij x_i'j,

the chain family carries a sequent proof whose single induction node
compiles to a constant-degree refutation for every instance size (a
direct degree-2 refutation comes from chain_pc_refutation), and the
subset-sum family carries a radical-using refutation built by
multiplying the falling product (l - 1)(l - 2)...(l - n - 1) out one
factor at a time, Boolean-reducing along the way.

Variables are addressed through the registry's pairing function, so the
oracle can be read as a two-place table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import RATIONAL, EquationSet, Polynomial, Ring
from .fol import (
    And,
    ForallIdx,
    Formula,
    FunctionRegistry,
    IdxApp,
    IdxEq,
    IdxLit,
    IdxVar,
    Or,
    OracleAt,
    RingConst,
    RingEq,
    RingOp,
    _pair,
    translate_formula,
)
from .lkr import LkrNode, Sequent
from .proofcheck import Derivation, DerivationBuilder, SosCertificate


class FamilyError(ValueError):
    pass


# Most terms a generated equation set may hold; a larger family is refused
# before any of it is built.  The largest the tests and the benchmark
# generate is fPHP(51, 50), 66,351 terms, in acceptance criterion 4.
MAX_TERMS = 1 << 18


def _check_size(family: str, terms: int) -> None:
    if terms > MAX_TERMS:
        raise FamilyError(f"{family} would have up to {terms} terms, more than {MAX_TERMS}")


@dataclass
class FamilyInstance:
    name: str
    params: dict
    equations: EquationSet
    formula: Formula | None = None
    certificate: object | None = None
    registry: FunctionRegistry | None = None


def _x(ring: Ring, v: int) -> Polynomial:
    return Polynomial.variable(ring, v)


def _const(ring: Ring, c) -> Polynomial:
    return Polynomial.const(ring, c)


# -- functional pigeonhole ------------------------------------------------


def gen_fphp(m: int, n: int, ring: Ring = RATIONAL) -> FamilyInstance:
    """Totality and injectivity equations for m pigeons and n holes.

    Unsatisfiable over 0/1 exactly when m > n; variables are x_pair(i,j).
    """
    if m < 1 or n < 1:
        raise FamilyError("fphp needs at least one pigeon and one hole")
    _check_size("fphp", m * (n + 1) + n * m * (m - 1) // 2)
    # factor[i][j] is the one (x_pair(i,j), 1) tuple every key shares
    factor = [[(_pair(i, j), 1) for j in range(n)] for i in range(m)]
    minus_one = ring.coerce(-1)
    members = []
    for row in factor:
        terms = {(f,): 1 for f in row}
        terms[()] = minus_one
        members.append(Polynomial._raw(ring, terms))
    for j in range(n):
        for i1 in range(m):
            f1 = factor[i1][j]
            # _pair(i, j) increases with i, so the key is sorted as built
            members.extend([Polynomial._raw(ring, {(f1, factor[i2][j]): 1}) for i2 in range(i1 + 1, m)])
    return FamilyInstance(
        name="fphp",
        params={"pigeons": m, "holes": n},
        equations=EquationSet(ring, tuple(members), boolean_axioms=True),
    )


def gen_fphp_sos(m: int, n: int) -> SosCertificate:
    """Degree-2 SoS+Bool refutation with target -(m - n).

    Multiplier +1 on each pigeon equation, -2 on each injectivity
    equation, -1 on each Boolean axiom, and one square per hole.
    """
    if m <= n:
        raise FamilyError("the pigeonhole certificate requires more pigeons than holes")
    instance = gen_fphp(m, n)
    ring = instance.equations.ring
    plus_one = _const(ring, 1)
    minus_one = _const(ring, -1)
    minus_two = _const(ring, -2)
    multipliers = []
    index = 0
    for _ in range(m):
        multipliers.append((index, plus_one))
        index += 1
    for _ in range(n):
        for _ in range(m * (m - 1) // 2):
            multipliers.append((index, minus_two))
            index += 1
    bool_multipliers = tuple((_pair(i, j), minus_one) for i in range(m) for j in range(n))
    squares = []
    for j in range(n):
        terms = {((_pair(i, j), 1),): 1 for i in range(m)}
        terms[()] = ring.coerce(-1)
        squares.append(Polynomial._raw(ring, terms))
    return SosCertificate(
        axioms=instance.equations,
        multipliers=tuple(multipliers),
        bool_multipliers=bool_multipliers,
        squares=tuple(squares),
        target=_const(ring, -(m - n)),
    )


# -- graph bijective pigeonhole -------------------------------------------


def graph_registry(holes_of, pigeons_of, m: int, n: int) -> FunctionRegistry:
    reg = FunctionRegistry.standard()
    d = len(holes_of[0]) if holes_of else 1
    for k in range(d):
        reg.register_index_table(f"h{k}", 1, {(i,): holes_of[i][k] for i in range(m)})
        reg.register_index_table(f"p{k}", 1, {(j,): pigeons_of[j][k] for j in range(n)})
    return reg


def gen_bphp_graph(holes_of, pigeons_of, m: int, n: int, ring: Ring = RATIONAL) -> FamilyInstance:
    """Bijective graph pigeonhole: matching constraints along a bounded-degree
    bipartite graph, as both a formula and its equation translation.

    holes_of[i] lists the d holes adjacent to pigeon i; pigeons_of[j] lists
    the d pigeons adjacent to hole j (repetitions allowed).
    """
    if len(holes_of) != m or len(pigeons_of) != n:
        raise FamilyError("adjacency lists must cover every pigeon and hole")
    degrees = {len(row) for row in list(holes_of) + list(pigeons_of)}
    if len(degrees) != 1 or 0 in degrees:
        raise FamilyError("adjacency lists must all have the same positive length")
    if any(not 0 <= hole < n for row in holes_of for hole in row) or any(
        not 0 <= pigeon < m for row in pigeons_of for pigeon in row
    ):
        raise FamilyError(f"h must list holes in 0..{n - 1} and p pigeons in 0..{m - 1}")
    d = degrees.pop()
    reg = graph_registry(holes_of, pigeons_of, m, n)

    i, j = IdxVar("i"), IdxVar("j")
    one, zero = RingConst(Fraction(1)), RingConst(Fraction(0))

    def X_at(pigeon, hole):
        return OracleAt(IdxApp("pair", (pigeon, hole)))

    def h(k, arg):
        return IdxApp(f"h{k}", (arg,))

    def p(k, arg):
        return IdxApp(f"p{k}", (arg,))

    item1 = ForallIdx("i", IdxLit(m), Or(tuple(RingEq(X_at(i, h(k, i)), one) for k in range(d))))
    item2_parts = []
    for k1 in range(d):
        for k2 in range(k1 + 1, d):
            clause = Or(
                (
                    IdxEq(h(k1, i), h(k2, i)),
                    RingEq(X_at(i, h(k1, i)), zero),
                    RingEq(X_at(i, h(k2, i)), zero),
                )
            )
            item2_parts.append(ForallIdx("i", IdxLit(m), clause))
    item3 = ForallIdx("j", IdxLit(n), Or(tuple(RingEq(X_at(p(k, j), j), one) for k in range(d))))
    item4_parts = []
    for k1 in range(d):
        for k2 in range(k1 + 1, d):
            clause = Or(
                (
                    IdxEq(p(k1, j), p(k2, j)),
                    RingEq(X_at(p(k1, j), j), zero),
                    RingEq(X_at(p(k2, j), j), zero),
                )
            )
            item4_parts.append(ForallIdx("j", IdxLit(n), clause))
    formula = And(tuple([item1] + item2_parts + [item3] + item4_parts))

    equations = translate_formula(formula, {}, reg, ring)
    equations = EquationSet(ring, equations.members, boolean_axioms=True)
    return FamilyInstance(
        name="bphp_graph",
        params={"pigeons": m, "holes": n, "degree": d},
        equations=equations,
        formula=formula,
        registry=reg,
    )


def shift_graph(n: int):
    """m = n + 1 pigeons over n holes; pigeon i sees holes i mod n and
    (i+1) mod n, so the matching is unsatisfiable."""
    m = n + 1
    holes_of = [[i % n, (i + 1) % n] for i in range(m)]
    pigeons_of = [[] for _ in range(n)]
    for i, holes in enumerate(holes_of):
        for hole in holes:
            pigeons_of[hole].append(i)
    degree = max(len(row) for row in pigeons_of)
    for row in pigeons_of:
        while len(row) < degree:
            row.append(row[-1])
        del row[degree:]
    # pad pigeon side to the same degree by repeating the last neighbour
    for row in holes_of:
        while len(row) < degree:
            row.append(row[-1])
    return holes_of, pigeons_of, m, n


# -- subset sum -------------------------------------------------------------


def _subset_sum_equations(n: int, ring: Ring) -> tuple[EquationSet, Polynomial]:
    """The Boolean axioms x_v^2 - x_v and the square of l = 1 + x1 + ... + xn,
    with l."""
    ell = _const(ring, 1)
    for v in range(1, n + 1):
        ell = ell + _x(ring, v)
    members = [_x(ring, v) * _x(ring, v) - _x(ring, v) for v in range(1, n + 1)]
    return EquationSet(ring, tuple(members) + (ell * ell,), boolean_axioms=True), ell


def gen_subset_sum(n: int, ring: Ring = RATIONAL, refutation_cap: int = 12) -> FamilyInstance:
    """Boolean axioms plus the squared shifted sum (x1+...+xn+1)^2.

    Bundles a radical-using refutation for n up to the cap.  Over GF(p)
    with p <= n + 1 the instance is satisfiable and comes without a
    refutation.
    """
    if n < 1:
        raise FamilyError("subset sum needs n >= 1")
    _check_size("subset sum", 2 * n + (n + 1) * (n + 2) // 2)
    equations, _ = _subset_sum_equations(n, ring)
    refutable = n <= refutation_cap and _subset_sum_unsatisfiable(n, ring)
    certificate = subset_sum_refutation(n, ring) if refutable else None
    return FamilyInstance(
        name="subset_sum",
        params={"n": n},
        equations=equations,
        certificate=certificate,
    )


def _subset_sum_unsatisfiable(n: int, ring: Ring) -> bool:
    """Whether 1 + x1 + ... + xn = 0 has no 0/1 root.  Over GF(p) with
    p <= n + 1, setting p - 1 variables to 1 is a root."""
    return ring.is_rational or ring.p > n + 1


def subset_sum_refutation(n: int, ring: Ring = RATIONAL) -> Derivation:
    """Radical step to the linear form, then the falling product collapse.

    Maintains A_v = ml((l-1)...(l-v)) - c_v with c_v = (-1)^v v!; each step
    multiplies by every variable, Boolean-reduces the squares immediately,
    and recombines.  A_{n+1} is the constant -c_{n+1}, nonzero whenever the
    instance is unsatisfiable, which rescales to 1.  Every line stays within
    degree n + 1.
    """
    if not _subset_sum_unsatisfiable(n, ring):
        raise FamilyError(
            f"subset sum n = {n} is satisfiable over GF({ring.p}): "
            f"{ring.p - 1} variables set to 1 are a root"
        )
    equations, ell = _subset_sum_equations(n, ring)
    builder = DerivationBuilder("pc_rad", equations)

    square = builder.axiom(n)
    ell_line = builder.radical_of(square, ell)

    a_line = ell_line  # A_1 = ml(l - 1) - c_1 = l
    c_v = Fraction(-1)
    for v in range(1, n + 1):
        reduced_lines = []
        for var in range(1, n + 1):
            line = builder.mul_var(a_line, var)
            reduced_lines.append(builder.boolean_reduce(line, builder.poly(line).multilinearize()))
        parts = [(line, 1) for line in reduced_lines]
        parts.append((a_line, ring.coerce(-v)))
        parts.append((ell_line, ring.coerce(c_v)))
        a_line = builder.combination(parts)
        c_v = c_v * Fraction(-(v + 1))

    final = builder.poly(a_line)
    assert final == _const(ring, -c_v), "falling product did not collapse to a constant"
    builder.scale_line(a_line, ring.inv(final.constant_value()))
    return builder.build()


# -- chain induction family -------------------------------------------------


def _chain_formula(n: int) -> Formula:
    """X(0)=1, every X(i) passes to X(i+1), X(n)=0; translates to exactly
    the chain equations."""
    one, zero = RingConst(Fraction(1)), RingConst(Fraction(0))
    i = IdxVar("i")
    base = RingEq(OracleAt(IdxLit(0)), one)
    # member (0 - x_i)(x_{i+1} - 1) = x_i (1 - x_{i+1}), matching the equations
    step = ForallIdx(
        "i",
        IdxLit(n),
        Or(
            (
                RingEq(zero, OracleAt(i)),
                RingEq(OracleAt(IdxApp("+", (i, IdxLit(1)))), one),
            )
        ),
    )
    last = RingEq(OracleAt(IdxLit(n)), zero)
    return And((base, step, last))


def _chain_lkr_proof() -> LkrNode:
    """Sequent refutation of the chain hypotheses with one induction node.

    phi(i) is "1 - X(i) = 0"; the step from the product hypothesis
    X(i)(1 - X(i+1)) = 0 is one witnessed equality axiom, so the whole
    proof compiles at constant degree for every value of n.
    """
    one, zero = RingConst(Fraction(1)), RingConst(Fraction(0))
    i, n = IdxVar("i"), IdxVar("n")

    def phi(term):  # 1 - X(term) = 0
        return RingEq(RingOp("-", one, OracleAt(term)), zero)

    def hypo(term):  # X(term) * (1 - X(term+1)) = 0
        succ = IdxApp("+", (term, IdxLit(1)))
        return RingEq(RingOp("*", OracleAt(term), RingOp("-", one, OracleAt(succ))), zero)

    phi_i = phi(i)
    phi_0 = phi(IdxLit(0))
    phi_succ = phi(IdxApp("+", (i, IdxLit(1))))
    phi_n = phi(n)
    chain_all = ForallIdx("i", n, hypo(i))
    psi_n = RingEq(OracleAt(n), zero)
    falsum = RingEq(one, zero)
    w1 = RingOp("-", one, OracleAt(IdxApp("+", (i, IdxLit(1)))))

    step_core = LkrNode(
        "equality",
        Sequent((phi_i, hypo(i)), (phi_succ,)),
        params={"multipliers": [w1, RingConst(Fraction(1))]},
    )
    step = LkrNode(
        "forall-idx-l",
        Sequent((chain_all, phi_i), (phi_succ,)),
        premises=(step_core,),
        params={"term": i},
    )
    induction = LkrNode(
        "induction",
        Sequent((chain_all, phi_0), (phi_n,)),
        premises=(step,),
        params={"var": "i", "formula": phi_i, "term": n},
    )
    weak_l = LkrNode(
        "weakening-l",
        Sequent((chain_all, phi_0, psi_n), (phi_n,)),
        premises=(induction,),
    )
    left_premise = LkrNode(
        "weakening-r",
        Sequent((chain_all, phi_0, psi_n), (phi_n, falsum)),
        premises=(weak_l,),
    )
    clash = LkrNode(
        "equality",
        Sequent((phi_n, psi_n), (falsum,)),
        params={"multipliers": [RingConst(Fraction(1)), RingConst(Fraction(1))]},
    )
    clash_w1 = LkrNode(
        "weakening-l",
        Sequent((phi_n, psi_n, chain_all), (falsum,)),
        premises=(clash,),
    )
    right_premise = LkrNode(
        "weakening-l",
        Sequent((phi_n, psi_n, chain_all, phi_0), (falsum,)),
        premises=(clash_w1,),
    )
    return LkrNode(
        "cut",
        Sequent((chain_all, phi_0, psi_n), (falsum,)),
        premises=(left_premise, right_premise),
    )


def chain_pc_refutation(n: int, ring: Ring = RATIONAL) -> Derivation:
    """Direct degree-2 refutation: walk 1 - x_i down the chain."""
    instance = gen_chain(n, ring, with_proofs=False)
    builder = DerivationBuilder("pc", instance.equations)
    head = builder.axiom(0)  # x0 - 1
    carried = builder.scale_line(head, ring.coerce(-1))  # 1 - x0
    for i in range(n):
        link = builder.axiom(1 + i)  # x_i (1 - x_{i+1})
        product = builder.mul_poly(carried, _const(ring, 1) - _x(ring, i + 1))
        carried = builder.add(product, link, 1, 1)  # 1 - x_{i+1}
    last = builder.axiom(n + 1)  # x_n
    builder.add(carried, last, 1, 1)  # 1
    return builder.build()


def gen_chain(n: int, ring: Ring = RATIONAL, with_proofs: bool = True) -> FamilyInstance:
    """Equations {x0 - 1} + {x_i (1 - x_{i+1})} + {x_n}, with the
    induction-rule sequent proof attached when asked for."""
    if n < 1:
        raise FamilyError("chain needs n >= 1")
    _check_size("chain", 2 * n + 3)
    members = [_x(ring, 0) - _const(ring, 1)]
    for i in range(n):
        members.append(_x(ring, i) * (_const(ring, 1) - _x(ring, i + 1)))
    members.append(_x(ring, n))
    instance = FamilyInstance(
        name="chain",
        params={"n": n},
        equations=EquationSet(ring, tuple(members)),
        formula=_chain_formula(n),
    )
    if with_proofs:
        instance.certificate = _chain_lkr_proof()
    return instance
