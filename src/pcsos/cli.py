"""Command-line front end.

One operation per invocation, machine-readable output, stable exit codes:

    0  success / proof or certificate valid
    1  proof or certificate invalid (checker mismatch)
    2  parse or format error
    3  unsupported construct

With --json every command prints a single-line summary such as
{"valid": true, "degree": 2} on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import AlgebraError, RATIONAL, Ring, parse_poly
from .degsearch import ClosureTooLarge, extract_derivation, pc_closure
from .errors import UnsupportedConstruct
from .families import (
    FamilyError,
    gen_bphp_graph,
    gen_chain,
    gen_fphp,
    gen_fphp_sos,
    gen_subset_sum,
)
from . import fol
from .fol import ClassificationError, FolError, FunctionRegistry
from .lkr import CompileError, LkrError, check_lkr, compile_lkr, node_from_json, node_to_json
from .proofcheck import (
    CheckReport,
    ProofFormatError,
    ProofStructureError,
    check_derivation,
    check_nullstellensatz,
    check_sos,
    derivation_from_json,
    derivation_to_json,
    dump_json,
    eqset_from_json,
    eqset_to_json,
    load_json,
    normalize_refutation,
    ns_from_json,
    sos_from_json,
    sos_to_json,
)
from .simulate import (
    SimulationError,
    eliminate_radical_char_p,
    pcplus_refutation_to_sos,
    pcplus_to_sos_eps,
    sos_to_pcplus,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FORMAT = 2
EXIT_UNSUPPORTED = 3


class CliFormatError(ValueError):
    pass


def _ring_arg(text: str) -> Ring:
    if text == "rational":
        return RATIONAL
    if text.startswith("gf:"):
        try:
            return Ring("gf", int(text[3:]))
        except (ValueError, AlgebraError) as exc:
            raise CliFormatError(f"bad ring {text!r}: {exc}") from exc
    raise CliFormatError(f"bad ring {text!r}; expected rational or gf:P")


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliFormatError(f"bad rational {text!r}") from exc


def _assignment(pairs) -> dict[str, int]:
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not (value.isascii() and value.isdigit()):
            raise CliFormatError(f"bad assignment {pair!r}; expected name=nat")
        out[name] = int(value)
    return out


def _registry(path) -> FunctionRegistry:
    reg = FunctionRegistry.standard()
    if path is None:
        return reg
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise CliFormatError("malformed registry file: expected a JSON object")
    try:
        for name, spec in obj.get("index_tables", {}).items():
            table = {tuple(args): value for args, value in spec.get("entries", [])}
            reg.register_index_table(name, int(spec["arity"]), table, int(spec.get("default", 0)))
        for name, spec in obj.get("ring_tables", {}).items():
            table = {tuple(args): Fraction(str(value)) for args, value in spec.get("entries", [])}
            reg.register_ring_table(name, int(spec["arity"]), table, Fraction(str(spec.get("default", 0))))
    except (KeyError, TypeError, ValueError, FolError) as exc:
        raise CliFormatError(f"malformed registry file: {exc}") from exc
    return reg


def _summary(args, payload: dict):
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        parts = [f"{k}={v}" for k, v in sorted(payload.items())]
        sys.stdout.write(" ".join(parts) + "\n")


def _report_payload(report: CheckReport) -> dict:
    return {
        "valid": report.valid,
        "degree": report.degree_or_none(),
        "refutation": report.refutation,
        "uses_radical": report.uses_radical,
        "uses_sos_rule": report.uses_sos_rule,
    }


# -- command handlers ------------------------------------------------------


def _cmd_check(args) -> int:
    derivation = derivation_from_json(load_json(args.input))
    report = check_derivation(derivation)
    _summary(args, _report_payload(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_check_sos(args) -> int:
    cert = sos_from_json(load_json(args.input))
    if args.normalize:
        cert = normalize_refutation(cert)
        if args.output:
            dump_json(sos_to_json(cert), args.output)
    report = check_sos(cert)
    _summary(args, _report_payload(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_check_ns(args) -> int:
    report = check_nullstellensatz(ns_from_json(load_json(args.input)))
    _summary(args, _report_payload(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_translate(args) -> int:
    if args.direction == "pcplus-to-sos":
        derivation = derivation_from_json(load_json(args.input))
        if args.eps is not None:
            cert = pcplus_to_sos_eps(derivation, args.eps).certificate
        else:
            cert = pcplus_refutation_to_sos(derivation)
        if args.normalize:
            cert = normalize_refutation(cert)
        report = check_sos(cert)
        if args.output:
            dump_json(sos_to_json(cert), args.output)
        _summary(args, _report_payload(report))
        return EXIT_OK if report.valid else EXIT_INVALID
    if args.direction == "sos-to-pcplus":
        cert = sos_from_json(load_json(args.input))
        derivation = sos_to_pcplus(cert)
        report = check_derivation(derivation)
        if args.output:
            dump_json(derivation_to_json(derivation), args.output)
        _summary(args, _report_payload(report))
        return EXIT_OK if report.valid else EXIT_INVALID
    derivation = derivation_from_json(load_json(args.input))
    out = eliminate_radical_char_p(derivation, max_p=args.max_p)
    report = check_derivation(out)
    if args.output:
        dump_json(derivation_to_json(out), args.output)
    _summary(args, _report_payload(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def _instance_payload(instance) -> dict:
    payload = {
        "family": instance.name,
        "params": {k: v for k, v in instance.params.items() if not isinstance(v, list)},
    }
    payload.update(eqset_to_json(instance.equations))
    if instance.formula is not None:
        payload["formula"] = fol.format_formula(instance.formula)
    return payload


def _cert_path(base: str) -> str:
    return base[:-5] + ".cert.json" if base.endswith(".json") else base + ".cert.json"


def _cmd_gen(args) -> int:
    certificate_obj = None
    if args.family == "fphp":
        instance = gen_fphp(args.pigeons, args.holes)
        if args.with_cert:
            cert = gen_fphp_sos(args.pigeons, args.holes)
            if args.normalize:
                cert = normalize_refutation(cert)
            certificate_obj = sos_to_json(cert)
    elif args.family == "bphp-graph":
        graph = load_json(args.graph)
        try:
            instance = gen_bphp_graph(
                graph["h"], graph["p"], int(graph["pigeons"]), int(graph["holes"])
            )
        except (KeyError, TypeError) as exc:
            raise CliFormatError(f"malformed graph file: {exc}") from exc
    elif args.family == "subset-sum":
        instance = gen_subset_sum(args.n)
        if args.with_cert:
            if instance.certificate is None:
                raise UnsupportedConstruct(
                    "subset-sum refutations are emitted only for n <= 12"
                )
            certificate_obj = derivation_to_json(instance.certificate)
    else:
        instance = gen_chain(args.n)
        if args.with_cert:
            certificate_obj = node_to_json(instance.certificate)

    dump_json(_instance_payload(instance), args.output)
    written = {"instance": args.output}
    if certificate_obj is not None:
        cert_path = _cert_path(args.output)
        dump_json(certificate_obj, cert_path)
        written["certificate"] = cert_path
    _summary(args, {"valid": True, "degree": None, **written})
    return EXIT_OK


def _load_formula(args, reg):
    text = args.formula
    if text is None:
        if args.formula_file is None:
            raise CliFormatError("provide --formula or --formula-file")
        try:
            with open(args.formula_file, "r", encoding="ascii") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise CliFormatError(f"cannot read {args.formula_file}: {exc}") from exc
    return fol.parse_formula(text, reg, scope=set(_assignment(args.assign)))


def _oracle(path, ring: Ring) -> dict:
    """Variable values from a JSON list, or an object keyed by variable index."""
    if path is None:
        raise CliFormatError("fol eval needs --oracle")
    raw = load_json(path)
    if isinstance(raw, list):
        items = enumerate(raw)
    elif isinstance(raw, dict):
        items = raw.items()
    else:
        raise CliFormatError("malformed oracle file: expected a JSON list or object")
    try:
        return {int(k): ring.coerce(Fraction(str(v))) for k, v in items}
    except (ValueError, ZeroDivisionError) as exc:
        raise CliFormatError(f"malformed oracle file: {exc}") from exc


def _cmd_fol(args) -> int:
    reg = _registry(args.registry)
    phi = _load_formula(args, reg)
    if args.action == "classify":
        ok, why = fol.classify_indpc(phi)
        _summary(args, {"valid": ok, "reason": why})
        return EXIT_OK if ok else EXIT_INVALID
    alpha = _assignment(args.assign)
    if args.action == "translate":
        eqs = fol.translate_formula(phi, alpha, reg, args.ring)
        if args.output:
            dump_json(eqset_to_json(eqs), args.output)
        _summary(args, {"valid": True, "equations": len(eqs)})
        return EXIT_OK
    truth = fol.eval_formula(phi, alpha, _oracle(args.oracle, args.ring), reg, args.ring)
    _summary(args, {"valid": bool(truth)})
    return EXIT_OK if truth else EXIT_INVALID


def _cmd_lkr(args) -> int:
    reg = _registry(args.registry)
    try:
        proof = node_from_json(load_json(args.input), reg)
    except LkrError as exc:
        raise ProofFormatError(str(exc)) from exc
    if args.action == "check":
        report = check_lkr(proof, reg)
        _summary(args, {"valid": report.valid, "node": list(report.node or ()), "reason": report.reason})
        return EXIT_OK if report.valid else EXIT_INVALID
    derivation = compile_lkr(proof, _assignment(args.assign), args.target, reg)
    report = check_derivation(derivation)
    if args.output:
        dump_json(derivation_to_json(derivation), args.output)
    _summary(args, _report_payload(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_search(args) -> int:
    eqs = eqset_from_json(load_json(args.input))
    try:
        query = parse_poly(args.query, eqs.ring)
    except AlgebraError as exc:
        raise CliFormatError(str(exc)) from exc
    if args.degree < 0:
        raise CliFormatError(f"--degree must be nonnegative, got {args.degree}")
    if query.degree > args.degree:
        raise CliFormatError(f"query degree {query.degree} exceeds --degree {args.degree}")
    basis = pc_closure(eqs, args.degree, monomial_cap=args.cap)
    derivation = extract_derivation(basis, query)
    if derivation is None:
        _summary(args, {"valid": False, "degree": None, "derivable": False})
        return EXIT_INVALID
    report = check_derivation(derivation)
    if args.output:
        dump_json(derivation_to_json(derivation), args.output)
    _summary(
        args,
        {**_report_payload(report), "derivable": True, "dimension": basis.span_dimension()},
    )
    return EXIT_OK if report.valid else EXIT_INVALID


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcsos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--json", action="store_true", help="single-line JSON summary")
        if output:
            p.add_argument("-o", "--output", help="output file path")

    p = sub.add_parser("check", help="check a PC / PC-rad / PC+ proof file")
    p.add_argument("input")
    common(p, output=False)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("check-sos", help="check a sum-of-squares certificate file")
    p.add_argument("input")
    p.add_argument("--normalize", action="store_true", help="rescale a -c refutation to target -1")
    common(p)
    p.set_defaults(fn=_cmd_check_sos)

    p = sub.add_parser("check-ns", help="check a Nullstellensatz certificate file")
    p.add_argument("input")
    common(p, output=False)
    p.set_defaults(fn=_cmd_check_ns)

    p = sub.add_parser("translate", help="compile proofs between systems")
    p.add_argument("direction", choices=["pcplus-to-sos", "sos-to-pcplus", "elim-radical"])
    p.add_argument("input")
    p.add_argument("--eps", type=_fraction_arg, default=None, help="approximation budget")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--max-p", type=int, default=31, help="characteristic cap for elim-radical")
    common(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("gen", help="generate benchmark families")
    p.add_argument("family", choices=["fphp", "bphp-graph", "subset-sum", "chain"])
    p.add_argument("--pigeons", type=int, default=3)
    p.add_argument("--holes", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--graph", help="graph spec JSON for bphp-graph")
    p.add_argument("--with-cert", action="store_true")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("fol", help="first-order formula operations")
    p.add_argument("action", choices=["translate", "eval", "classify"])
    p.add_argument("--formula", help="formula s-expression")
    p.add_argument("--formula-file")
    p.add_argument("--assign", action="append", metavar="name=N")
    p.add_argument("--oracle", help="oracle JSON file for eval")
    p.add_argument("--registry", help="function registry JSON file")
    p.add_argument("--ring", type=_ring_arg, default=RATIONAL)
    common(p)
    p.set_defaults(fn=_cmd_fol)

    p = sub.add_parser("lkr", help="sequent proof operations")
    p.add_argument("action", choices=["check", "compile"])
    p.add_argument("input")
    p.add_argument("--assign", action="append", metavar="name=N")
    p.add_argument("--target", choices=["pc_rad", "pc_plus"], default="pc_rad")
    p.add_argument("--registry")
    common(p)
    p.set_defaults(fn=_cmd_lkr)

    p = sub.add_parser("search", help="degree-bounded derivability search")
    p.add_argument("mode", choices=["closure"])
    p.add_argument("input", help="equation set JSON file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--query", required=True, help="polynomial text to test")
    p.add_argument("--cap", type=int, default=200_000)
    common(p)
    p.set_defaults(fn=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FORMAT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UnsupportedConstruct as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ClassificationError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SimulationError, CompileError, ProofStructureError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LkrError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (
        ProofFormatError,
        CliFormatError,
        AlgebraError,
        FolError,
        FamilyError,
        ClosureTooLarge,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
