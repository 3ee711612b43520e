"""The benchmark's workloads, its known-answer gate, and its size counters.

Each workload is a list of items built from the seed during set-up.  An
item is one user-level task: it calls the package's public functions
through `Ctx.call` (so a traced run gets one span per call), replays every
positive output through the kernel, and compares every negative answer or
exit code with its frozen value.  A mismatch raises `GateFailure`; the
runner counts it as a failed item, never as a fast one.

Objects an item hands to `Ctx.keep` are counted by `tally` after the item's
clock has stopped, so counting costs no measured time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

CERTIFY_SIZES = range(1, 25)  # fPHP(n+1, n)
CLI_VALID_SIZE = 12
SUBSET_SUM_N = 5  # radical elimination input; needs p > n + 1
FOL_SIZES = (4, 8, 12, 24)
ORACLES = 40
ORACLE_BITS = 64  # enough for every variable of the largest fol instance


class GateFailure(Exception):
    """An output the kernel rejects, or an answer that differs from the frozen one."""


@dataclass
class Item:
    name: str
    run: Callable  # run(ctx) -> None


class Ctx:
    """What an item sees: the package, the recorder, a scratch directory,
    the gate, and the objects it keeps for counting."""

    def __init__(self, api, rec, tmp, corrupt=False):
        self.api = api
        self.rec = rec
        self.tmp = tmp
        self.corrupt = corrupt  # self-test: damage every output before the gate sees it
        self.item = ""
        self.saved = 0
        self.kept = []

    def start(self, item):
        self.item, self.saved, self.kept = item, 0, []

    def call(self, fn, *args, **kwargs):
        return self.rec.call(fn, *args, **kwargs)

    def keep(self, tag, obj):
        self.kept.append((tag, obj))

    def save(self, obj, to_json):
        """Serialise an output the way the CLI's -o does, and keep its size."""
        self.saved += 1
        path = os.path.join(self.tmp, f"{self.item}-{self.saved}.json")
        self.call(self.api.proofcheck.dump_json, self.call(to_json, obj), path)
        self.keep("out", obj)
        self.keep("out_file", path)
        return path

    # -- the gate ----------------------------------------------------

    def replay_derivation(self, d, degree=None, max_degree=None, radical=None):
        if d is None:
            raise GateFailure("no derivation was returned")
        if self.corrupt:
            d = _corrupt_derivation(self.api, d)
        rep = self.call(self.api.proofcheck.check_derivation, d)
        self.keep("lines_checked", d)
        _expect_report(rep, degree, max_degree)
        if radical is not None and rep.uses_radical != radical:
            raise GateFailure(f"uses_radical is {rep.uses_radical}, expected {radical}")

    def replay_certificate(self, c, degree=None, max_degree=None):
        if self.corrupt:
            c = dataclasses.replace(c, constant=c.constant + 1)
        rep = self.call(self.api.proofcheck.check_sos, c)
        self.keep("sos_checked", c)
        _expect_report(rep, degree, max_degree)

    def expect(self, actual, frozen, what):
        if self.corrupt:
            actual = not actual if isinstance(actual, bool) else actual + 1
        if actual != frozen:
            raise GateFailure(f"{what}: got {actual!r}, frozen answer {frozen!r}")


def _expect_report(rep, degree, max_degree):
    if not (rep.valid and rep.refutation):
        raise GateFailure(f"kernel verdict valid={rep.valid} refutation={rep.refutation}")
    if degree is not None and rep.degree != degree:
        raise GateFailure(f"degree {rep.degree}, expected {degree}")
    if max_degree is not None and rep.degree > max_degree:
        raise GateFailure(f"degree {rep.degree} exceeds {max_degree}")


def _corrupt_derivation(api, d):
    """Add 1 to the last line, so its rule no longer yields it."""
    poly, just = d.lines[-1]
    bumped = poly + api.algebra.Polynomial.const(d.ring, 1)
    return dataclasses.replace(d, lines=d.lines[:-1] + ((bumped, just),))


# -- certify: many small certificates through the file format --------------


def build_certify(api, seed, tmp):
    """fPHP(n+1, n) for n = 1..24 through gen, JSON and check_sos.  Every
    third size also gets a single-coefficient mutant, and one size a valid
    copy, sent through the CLI.  The seed picks each mutation's kind and
    place; which sizes get one is fixed, so a pass's work does not depend
    on the seed."""
    rng = random.Random(f"certify:{seed}")
    pc, fam = api.proofcheck, api.families
    items = [Item(f"fphp-{n + 1}-{n}", partial(_certify, n)) for n in CERTIFY_SIZES]
    for n in CERTIFY_SIZES[2::3]:
        path = os.path.join(tmp, f"mutant-{n + 1}-{n}.json")
        pc.dump_json(pc.sos_to_json(_mutate_certificate(api, fam.gen_fphp_sos(n + 1, n), rng)), path)
        items.append(Item(f"mutant-{n + 1}-{n}", partial(_check_sos_cli, path, 1)))
    n = CLI_VALID_SIZE
    path = os.path.join(tmp, f"valid-{n + 1}-{n}.json")
    pc.dump_json(pc.sos_to_json(fam.gen_fphp_sos(n + 1, n)), path)
    items.append(Item(f"valid-{n + 1}-{n}", partial(_check_sos_cli, path, 0)))
    return items


def _certify(n, ctx):
    fam, pc = ctx.api.families, ctx.api.proofcheck
    cert = ctx.call(fam.gen_fphp_sos, n + 1, n)
    ctx.keep("family_out", cert)
    path = ctx.save(cert, pc.sos_to_json)
    back = ctx.call(pc.sos_from_json, ctx.call(pc.load_json, path))
    ctx.keep("parsed_file", path)
    ctx.keep("in", back)
    ctx.replay_certificate(back, degree=2)


def _check_sos_cli(path, exit_code, ctx):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ctx.call(ctx.api.cli.main, ["check-sos", path, "--json"])
    ctx.keep("cli_exit_ok", code == exit_code)
    ctx.expect(code, exit_code, "check-sos exit code")
    ctx.expect(json.loads(out.getvalue())["valid"], exit_code == 0, "check-sos verdict")


def _mutate_certificate(api, cert, rng):
    """One single-coefficient change of the kinds acceptance criterion 10 uses."""
    alg = api.algebra
    bump = partial(alg.Polynomial.const, alg.RATIONAL)
    kind = rng.choice(["multiplier", "square", "target", "constant"])
    if kind == "multiplier":
        pos = rng.randrange(len(cert.multipliers))
        k, r = cert.multipliers[pos]
        multipliers = list(cert.multipliers)
        multipliers[pos] = (k, r + bump(rng.choice([1, -1, 3])))
        return dataclasses.replace(cert, multipliers=tuple(multipliers))
    if kind == "square":
        pos = rng.randrange(len(cert.squares))
        squares = list(cert.squares)
        squares[pos] = squares[pos] + alg.Polynomial.variable(alg.RATIONAL, 7)
        return dataclasses.replace(cert, squares=tuple(squares))
    if kind == "target":
        return dataclasses.replace(cert, target=cert.target + bump(rng.choice([1, -2])))
    return dataclasses.replace(cert, constant=cert.constant + 1)


# -- compile: every compiler, each output replayed through the kernel ------


def build_compile(api, seed, tmp):
    """Eps round trips, radical elimination, sequent compilation and formula
    translation.  The seed picks the 0/1 oracles of the formula items."""
    rng = random.Random(f"compile:{seed}")
    fam, alg = api.families, api.algebra
    items = []
    for m, n in ((5, 4), (6, 5), (7, 6)):
        items.append(Item(f"eps-{m}-{n}", partial(_eps_round_trip, fam.gen_fphp_sos(m, n))))
    for p in (7, 11):
        refutation = fam.gen_subset_sum(SUBSET_SUM_N, alg.GF(p)).certificate
        # the bundled refutation has degree n + 1; criterion 5 bounds the output by p*d + 2
        bound = p * (SUBSET_SUM_N + 1) + 2
        items.append(Item(f"elim-gf{p}", partial(_eliminate, refutation, bound)))
    proof = fam.gen_chain(1).certificate
    reg = api.fol.FunctionRegistry.standard()
    for n, target in ((160, "pc_rad"), (320, "pc_plus")):
        items.append(Item(f"lkr-{n}-{target}", partial(_compile_lkr, proof, reg, n, target)))
    for n in FOL_SIZES:
        holes_of, pigeons_of, m, _ = fam.shift_graph(n)
        graph = fam.gen_bphp_graph(holes_of, pigeons_of, m, n)
        chain = fam.gen_chain(n, with_proofs=False)
        for label, inst, r in (("graph", graph, graph.registry), ("chain", chain, reg)):
            oracles = [[rng.randint(0, 1) for _ in range(ORACLE_BITS)] for _ in range(ORACLES)]
            items.append(Item(f"fol-{label}-{n}", partial(_formula, inst.formula, r, oracles)))
    return items


def _eps_round_trip(cert, ctx):
    sim, pc = ctx.api.simulate, ctx.api.proofcheck
    ctx.keep("in", cert)
    derivation = ctx.call(sim.sos_to_pcplus, cert)
    ctx.replay_derivation(derivation, degree=2, radical=False)  # criterion 3
    back = ctx.call(sim.pcplus_refutation_to_sos, derivation)
    ctx.replay_certificate(back, max_degree=4)  # criterion 9
    ctx.keep("squares_out", back)
    ctx.save(derivation, pc.derivation_to_json)
    ctx.save(back, pc.sos_to_json)


def _eliminate(refutation, bound, ctx):
    ctx.keep("in", refutation)
    out = ctx.call(ctx.api.simulate.eliminate_radical_char_p, refutation)
    ctx.replay_derivation(out, max_degree=bound, radical=False)  # criterion 5
    ctx.save(out, ctx.api.proofcheck.derivation_to_json)


def _compile_lkr(proof, reg, n, target, ctx):
    lkr = ctx.api.lkr
    ctx.expect(ctx.call(lkr.check_lkr, proof, reg).valid, True, "check_lkr verdict")
    derivation = ctx.call(lkr.compile_lkr, proof, {"n": n}, target, reg)
    ctx.keep("lkr_out", derivation)
    ctx.replay_derivation(derivation, degree=2)  # criterion 8
    ctx.save(derivation, ctx.api.proofcheck.derivation_to_json)


def _formula(phi, reg, oracles, ctx):
    fol = ctx.api.fol
    parsed = ctx.call(fol.parse_formula, ctx.call(fol.format_formula, phi), reg)
    ctx.expect(parsed == phi, True, "parse_formula(format_formula(phi)) == phi")
    eqs = ctx.call(fol.translate_formula, parsed, {}, reg)
    variables = sorted(eqs.variables())
    if len(variables) > ORACLE_BITS:
        raise ValueError(f"{len(variables)} variables exceed the {ORACLE_BITS} oracle bits")
    for bits in oracles:  # criterion 7
        oracle = dict(zip(variables, bits))
        truth = ctx.call(fol.eval_formula, parsed, {}, oracle, reg)
        ctx.expect(truth, ctx.call(eqs.vanishes_at, oracle), "eval_formula against vanishing")
    ctx.save(eqs, ctx.api.proofcheck.eqset_to_json)


# -- closure: degree-d oracle queries ------------------------------------


def build_closure(api, seed, tmp):
    """Positive queries (a refutation must be extracted and replayed) on
    chains and small pigeonhole instances; negative queries (the linear
    form must stay outside, criterion 6) on subset sum below n/2."""
    fam, alg = api.families, api.algebra
    Q = alg.RATIONAL
    one = alg.Polynomial.const(Q, 1)
    items = []
    for n in range(10, 61, 10):
        eqs = fam.gen_chain(n, with_proofs=False).equations
        items.append(Item(f"chain-{n}-d2", partial(_closure_refutes, eqs, 2, one)))
    for m, n, d in ((3, 2, 2), (4, 3, 3)):
        eqs = fam.gen_fphp(m, n).equations
        items.append(Item(f"fphp-{m}-{n}-d{d}", partial(_closure_refutes, eqs, d, one)))
    for n, d in ((10, 4), (10, 3), (12, 3), (14, 3), (20, 3)):
        eqs = fam.gen_subset_sum(n, refutation_cap=0).equations
        linear = alg.Polynomial.sum(Q, [one] + [alg.Polynomial.variable(Q, v) for v in range(1, n + 1)])
        items.append(Item(f"subset-sum-{n}-d{d}", partial(_closure_excludes, eqs, d, linear)))
    return items


def _closure_refutes(eqs, d, one, ctx):
    ds = ctx.api.degsearch
    ctx.keep("in", eqs)
    basis = ctx.call(ds.pc_closure, eqs, d)
    ctx.keep("closure", basis)
    proof = ctx.call(ds.extract_derivation, basis, one)
    ctx.replay_derivation(proof, max_degree=d)
    ctx.save(proof, ctx.api.proofcheck.derivation_to_json)


def _closure_excludes(eqs, d, linear, ctx):
    ctx.keep("in", eqs)
    basis = ctx.call(ctx.api.degsearch.pc_closure, eqs, d)
    ctx.keep("closure", basis)
    ctx.expect(ctx.call(basis.contains, linear), False, "1 + x1 + ... + xn in the closure")


WORKLOADS = {"certify": build_certify, "compile": build_compile, "closure": build_closure}


# -- counting, after the clock has stopped ---------------------------------


def _coeff_bits(c):
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _poly_size(p):
    terms = p.terms
    return len(terms), max(map(_coeff_bits, terms.values()), default=0)


def _polys(obj):
    """(record count, polynomials) of a derivation, certificate or equation set."""
    if hasattr(obj, "lines"):
        polys = []
        for poly, just in obj.lines:
            polys.append(poly)
            polys.extend(getattr(just, "squares", ()))
        return len(obj.lines), polys
    if hasattr(obj, "squares"):
        entries = [r for _, r in obj.multipliers] + [b for _, b in obj.bool_multipliers]
        entries += list(obj.squares)
        return len(entries), entries + [obj.target]
    members = list(obj)
    return len(members), members


def _size(obj):
    records, polys = _polys(obj)
    sizes = [_poly_size(p) for p in polys]
    return records, sum(t for t, _ in sizes), max((b for _, b in sizes), default=0)


def _distinct_up_to_scale(squares):
    seen = set()
    for s in squares:
        terms = s.terms
        ref = terms[min(terms, key=hash)]
        seen.add(frozenset((m, c / ref) for m, c in terms.items()))
    return len(seen)


def _check_sos_products(cert):
    """Term products a checker forms: |r|*|p| per multiplier, |s|(|s|+1)/2 per square."""
    axioms = cert.axioms
    total = sum(len(r.terms) * len(axioms[k].terms) for k, r in cert.multipliers)
    total += sum(2 * len(b.terms) for _, b in cert.bool_multipliers)
    for s in cert.squares:
        n = len(s.terms)
        total += n * (n + 1) // 2
    return total


def tally(kept, c):
    """Add the counters of kept objects into c.  All are exact, so the
    totals of a pass must repeat across passes."""
    for tag, obj in kept:
        if tag == "out":
            records, terms, bits = _size(obj)
            c["out_lines"] += records
            c["out_terms"] += terms
            c["out_coeff_bits"] = max(c["out_coeff_bits"], bits)
            c["algebra.coeff_bits_max"] = max(c["algebra.coeff_bits_max"], bits)
        elif tag == "out_file":
            c["out_bytes"] += os.path.getsize(obj)
        elif tag == "in":
            _, terms, bits = _size(obj)
            c["algebra.terms_in"] += terms
            c["algebra.coeff_bits_max"] = max(c["algebra.coeff_bits_max"], bits)
        elif tag == "parsed_file":
            c["proofcheck.parsed_bytes"] += os.path.getsize(obj)
        elif tag == "sos_checked":
            c["proofcheck.check_sos_products"] += _check_sos_products(obj)
        elif tag == "lines_checked":
            c["proofcheck.lines_checked"] += len(obj.lines)
        elif tag == "squares_out":
            c["simulate.squares_out"] += len(obj.squares)
            c["simulate.squares_distinct"] += _distinct_up_to_scale(obj.squares)
        elif tag == "lkr_out":
            c["lkr.lines_out"] += len(obj.lines)
        elif tag == "closure":
            rows = obj.rows
            width = len(obj.variables)
            candidates = len(obj.axioms) + (width if obj.axioms.boolean_axioms else 0)
            candidates += width * sum(1 for row in rows if row.poly.degree < obj.degree_bound)
            c["degsearch.rows"] += len(rows)
            c["degsearch.candidates"] += candidates
            bits = max((_poly_size(row.poly)[1] for row in rows), default=0)
            c["degsearch.coeff_bits_max"] = max(c["degsearch.coeff_bits_max"], bits)
        elif tag == "family_out":
            c["families.terms_out"] += _size(obj)[1]
        elif tag == "cli_exit_ok":
            c["cli.calls"] += 1
            c["cli.exit_ok"] += int(obj)


COUNTERS = (
    "out_lines",
    "out_terms",
    "out_coeff_bits",
    "out_bytes",
    "algebra.terms_in",
    "algebra.coeff_bits_max",
    "proofcheck.parsed_bytes",
    "proofcheck.check_sos_products",
    "proofcheck.lines_checked",
    "simulate.squares_out",
    "simulate.squares_distinct",
    "lkr.lines_out",
    "degsearch.rows",
    "degsearch.candidates",
    "degsearch.coeff_bits_max",
    "families.terms_out",
    "cli.calls",
    "cli.exit_ok",
)
