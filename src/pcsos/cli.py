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

from .algebra import AlgebraError, RATIONAL, Ring, parse_natural, parse_poly, parse_rational
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
from .lkr import LkrError, check_lkr, compile_lkr, node_from_json, node_to_json
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
    rule_of,
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
    """An argparse type: its error exits 2, with the reason."""
    if text == "rational":
        return RATIONAL
    if not text.startswith("gf:"):
        raise argparse.ArgumentTypeError(f"bad ring {text!r}; expected rational or gf:P")
    try:
        return Ring("gf", parse_natural(text[3:]))
    except AlgebraError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _assignment(pairs) -> dict[str, int]:
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        out[name] = parse_natural(value)
    return out


def _registry_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {value!r:.60}")
    return value


def _registry_entries(value, name: str, arity: int) -> dict:
    """A table's entries: a list of [[arg, ...], value] pairs, arity args each."""
    if not isinstance(value, list) or not all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], list) for e in value
    ):
        raise TypeError(f"entries of table {name!r} must be a list of [[arg, ...], value] pairs, got {value!r:.60}")
    for args, _ in value:
        if len(args) != arity:
            raise ValueError(f"an entry of table {name!r} has {len(args)} arguments, not its arity {arity}")
    return {tuple(map(parse_natural, args)): v for args, v in value}


def _registry(path) -> FunctionRegistry:
    reg = FunctionRegistry.standard()
    if path is None:
        return reg
    obj = load_json(path)
    tables = (("index_tables", reg.register_index_table), ("ring_tables", reg.register_ring_table))
    try:
        obj = _registry_object(obj, "the file")
        for key, register in tables:
            for name, spec in _registry_object(obj.get(key, {}), key).items():
                spec = _registry_object(spec, f"table {name!r}")
                arity = parse_natural(spec["arity"])
                table = _registry_entries(spec.get("entries", []), name, arity)
                register(name, arity, table, spec.get("default", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliFormatError(f"malformed registry file: {exc}") from exc
    return reg


def _summary(args, payload: dict):
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        parts = [f"{k}={v}" for k, v in sorted(payload.items())]
        sys.stdout.write(" ".join(parts) + "\n")


def _report_payload(report: CheckReport, derivation=None) -> dict:
    """Summary of a kernel verdict.  A rejected proof also says where and
    why: the failing line and its rule kind (null for a static
    certificate) and the mismatch polynomial."""
    payload = {
        "valid": report.valid,
        "degree": report.degree_or_none(),
        "refutation": report.refutation,
        "uses_radical": report.uses_radical,
        "uses_sos_rule": report.uses_sos_rule,
    }
    if not report.valid and report.failure is not None:
        line, mismatch = report.failure
        static = derivation is None or line < 0
        payload["failure"] = {
            "line": None if static else line,
            "rule": None if static else rule_of(derivation.lines[line][1]).kind,
            "mismatch": mismatch.format(),
        }
    return payload


def _verdict(args, report: CheckReport, derivation=None, cert=None, **extra) -> int:
    """Print the summary of a kernel verdict, plus extra fields, and return
    its exit code.  With --output, first write the certificate when given,
    else the derivation."""
    if getattr(args, "output", None):
        if cert is not None:
            dump_json(sos_to_json(cert), args.output)
        elif derivation is not None:
            dump_json(derivation_to_json(derivation), args.output)
    _summary(args, {**_report_payload(report, derivation), **extra})
    return EXIT_OK if report.valid else EXIT_INVALID


# -- command handlers ------------------------------------------------------


def _cmd_check(args) -> int:
    derivation = derivation_from_json(load_json(args.input))
    return _verdict(args, check_derivation(derivation), derivation)


def _cmd_check_sos(args) -> int:
    cert = sos_from_json(load_json(args.input))
    if args.normalize:
        cert = normalize_refutation(cert)
    return _verdict(args, check_sos(cert), cert=cert if args.normalize else None)


def _cmd_check_ns(args) -> int:
    return _verdict(args, check_nullstellensatz(sos_from_json(load_json(args.input))))


def _cmd_translate(args) -> int:
    if args.direction == "pcplus-to-sos":
        derivation = derivation_from_json(load_json(args.input))
        if args.eps is not None:
            if args.eps <= 0:
                raise CliFormatError(f"--eps must be positive, got {args.eps}")
            cert = pcplus_to_sos_eps(derivation, args.eps)
        else:
            cert = pcplus_refutation_to_sos(derivation)
        if args.normalize:
            cert = normalize_refutation(cert)
        return _verdict(args, check_sos(cert), cert=cert)
    if args.direction == "sos-to-pcplus":
        derivation = sos_to_pcplus(sos_from_json(load_json(args.input)))
    else:
        derivation = derivation_from_json(load_json(args.input))
        derivation = eliminate_radical_char_p(derivation)
    return _verdict(args, check_derivation(derivation), derivation)


def _instance_payload(instance) -> dict:
    payload = {
        "family": instance.name,
        "params": instance.params,
    }
    payload.update(eqset_to_json(instance.equations))
    if instance.formula is not None:
        payload["formula"] = fol.format_formula(instance.formula)
    return payload


def _cert_path(base: str) -> str:
    return base[:-5] + ".cert.json" if base.endswith(".json") else base + ".cert.json"


def _graph_spec(graph) -> tuple[list, list, int, int]:
    """(h, p, pigeons, holes) of a bphp-graph file: h and p are lists of
    lists, and every number is read by parse_natural."""
    if not isinstance(graph, dict):
        raise CliFormatError("malformed graph file: expected a JSON object")

    def listed(value):
        if not isinstance(value, list):
            raise CliFormatError(f"malformed graph file: expected a list, got {value!r:.60}")
        return value

    try:
        h, p = ([[parse_natural(v) for v in listed(row)] for row in listed(graph[k])] for k in ("h", "p"))
        return h, p, parse_natural(graph["pigeons"]), parse_natural(graph["holes"])
    except KeyError as exc:
        raise CliFormatError(f"malformed graph file: missing {exc}") from exc
    except AlgebraError as exc:
        raise CliFormatError(f"malformed graph file: {exc}") from exc


def _cmd_gen(args) -> int:
    certificate_obj = None
    n, pigeons, holes = (parse_natural(v) for v in (args.n, args.pigeons, args.holes))
    if args.family == "fphp":
        instance = gen_fphp(pigeons, holes)
        if args.with_cert:
            cert = gen_fphp_sos(pigeons, holes)
            if args.normalize:
                cert = normalize_refutation(cert)
            certificate_obj = sos_to_json(cert)
    elif args.family == "bphp-graph":
        instance = gen_bphp_graph(*_graph_spec(load_json(args.graph)))
    elif args.family == "subset-sum":
        instance = gen_subset_sum(n) if args.with_cert else gen_subset_sum(n, refutation_cap=0)
        if args.with_cert:
            if instance.certificate is None:
                raise UnsupportedConstruct(
                    "subset-sum refutations are emitted only for n <= 12"
                )
            certificate_obj = derivation_to_json(instance.certificate)
    else:
        instance = gen_chain(n, with_proofs=args.with_cert)
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
        return {parse_natural(k): ring.coerce(parse_rational(v)) for k, v in items}
    except ValueError as exc:
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
    return _verdict(args, check_derivation(derivation), derivation)


def _cmd_search(args) -> int:
    eqs = eqset_from_json(load_json(args.input))
    query = parse_poly(args.query, eqs.ring)
    degree = parse_natural(args.degree)
    if query.degree > degree:
        raise CliFormatError(f"query degree {query.degree} exceeds --degree {degree}")
    # the query's own variables are multipliers too: x1 derives x1*x2 in one step
    basis = pc_closure(
        eqs, degree, monomial_cap=parse_natural(args.cap), extra_variables=query.variables()
    )
    derivation = extract_derivation(basis, query)
    if derivation is None:
        _summary(args, {"valid": False, "degree": None, "derivable": False})
        return EXIT_INVALID
    return _verdict(
        args, check_derivation(derivation), derivation, derivable=True, dimension=basis.span_dimension()
    )


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
    p.add_argument("--eps", type=parse_rational, default=None, help="approximation budget")
    p.add_argument("--normalize", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("gen", help="generate benchmark families")
    p.add_argument("family", choices=["fphp", "bphp-graph", "subset-sum", "chain"])
    p.add_argument("--pigeons", default=3)
    p.add_argument("--holes", default=2)
    p.add_argument("--n", default=3)
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
    p.add_argument("--degree", required=True)
    p.add_argument("--query", required=True, help="polynomial text to test")
    p.add_argument("--cap", default=200_000)
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
    except (UnsupportedConstruct, ClassificationError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SimulationError, LkrError, ProofStructureError) as exc:
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
