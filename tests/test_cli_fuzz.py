"""Seeded fuzz test of the CLI's exit-code contract.

Files written by ``gen`` and ``translate`` (among them a PC+ derivation
whose sum-of-squares step carries weights), two Nullstellensatz
certificates (one over GF(7) with a Boolean multiplier) and the formula,
registry and oracle files of ``fol`` are damaged at random (a byte
replaced, the tail cut, a span deleted or duplicated) and fed to every
command that reads that kind of file.  Each case must exit 0, 1, 2 or 3,
print no traceback and stay within a CPU-time limit.
"""

import random
import time

from pcsos.algebra import GF, RATIONAL, eqset, parse_poly
from pcsos.cli import main
from pcsos.proofcheck import SosCertificate, dump_json, sos_to_json

SEED = 20261019
FILES = 300
CPU_LIMIT_S = 1.0
PRINTABLE = bytes(range(32, 127))

# "{d}" is the directory of the written files, "{f}" the damaged file
WRITE = [
    ["gen", "fphp", "--pigeons", "3", "--holes", "2", "--with-cert", "-o", "{d}/fphp.json"],
    ["translate", "sos-to-pcplus", "{d}/fphp.cert.json", "-o", "{d}/fphp.pcplus.json"],
    # target -4, so the closing sum-of-squares step has weights 1/4
    ["gen", "fphp", "--pigeons", "5", "--holes", "1", "--with-cert", "-o", "{d}/fphp51.json"],
    ["translate", "sos-to-pcplus", "{d}/fphp51.cert.json", "-o", "{d}/weighted.pcplus.json"],
    ["gen", "chain", "--n", "2", "--with-cert", "-o", "{d}/chain.json"],
]
READERS = {
    "fphp.cert.json": [["check-sos", "{f}"], ["translate", "sos-to-pcplus", "{f}"]],
    "fphp.pcplus.json": [
        ["check", "{f}"],
        ["translate", "pcplus-to-sos", "{f}"],
        ["translate", "elim-radical", "{f}"],
    ],
    "weighted.pcplus.json": [["check", "{f}"], ["translate", "pcplus-to-sos", "{f}"]],
    "fphp.json": [["search", "closure", "{f}", "--degree", "2", "--query", "1"]],
    "chain.cert.json": [["lkr", "check", "{f}"], ["lkr", "compile", "{f}", "--assign", "n=2"]],
    "ns.json": [["check-ns", "{f}"]],
    "ns7.json": [["check-ns", "{f}"], ["check-sos", "{f}"]],
    "formula.txt": [
        ["fol", "translate", "--formula-file", "{f}", "--assign", "n=3"],
        ["fol", "classify", "--formula-file", "{f}", "--assign", "n=3"],
    ],
    "registry.json": [
        ["fol", "translate", "--formula", "(= (X (fn f 1)) (rfn r 0 1))", "--registry", "{f}"],
        ["fol", "classify", "--formula", "(= (X (fn f 1)) (rfn r 0 1))", "--registry", "{f}"],
    ],
    "oracle.json": [
        ["fol", "eval", "--formula", "(and (= (X 0) (rat 1/2)) (= (X 2) (rat 3)))", "--oracle", "{f}"]
    ],
}

# the exit codes of each reader of the files write_inputs makes, before the
# damage: check-sos refuses the GF(7) certificate, whose ring is not Q
UNDAMAGED = {
    "ns.json": [0],
    "ns7.json": [0, 1],
    "formula.txt": [0, 0],
    "registry.json": [0, 0],
    "oracle.json": [0],
}

FORMULA = (
    "(forall i n (or (= (* (X i) (- (rat 1) (X i))) (rat 0))"
    " (= (sum j (+ i 1) (* (rat 1/2) (X j))) (rat 1))))"
)


def write_inputs(d) -> None:
    """The files no CLI command writes: an NS certificate of 1 from
    x1 - 1, x1*x2, x2 - 1, one over GF(7) from x1 - 2 and x1^2 - x1, a
    formula, a registry and an oracle."""
    one, x2 = (parse_poly(text, RATIONAL) for text in ("1", "x2"))
    axioms = eqset(RATIONAL, [parse_poly(text, RATIONAL) for text in ("x1 - 1", "x1*x2", "x2 - 1")])
    dump_json(sos_to_json(SosCertificate(axioms, ((1, one), (0, -x2), (2, -one)), one)), d / "ns.json")
    axiom, multiplier, one, four = (parse_poly(text, GF(7)) for text in ("x1 - 2", "3*x1 + 3", "1", "4"))
    axioms = eqset(GF(7), [axiom], boolean_axioms=True)
    cert = SosCertificate(axioms, ((0, multiplier),), one, bool_multipliers=((1, four),))
    dump_json(sos_to_json(cert), d / "ns7.json")
    tables = {
        "index_tables": {"f": {"arity": 1, "entries": [[[1], 2]], "default": 0}},
        "ring_tables": {"r": {"arity": 2, "entries": [[[0, 1], "1/2"]], "default": "-3"}},
    }
    dump_json(tables, d / "registry.json")
    dump_json(["1/2", 0, 3], d / "oracle.json")
    (d / "formula.txt").write_text(FORMULA, encoding="ascii")


def damage(rng: random.Random, data: bytes) -> bytes:
    i = rng.randrange(len(data))
    kind = rng.randrange(4)
    if kind == 0:
        return data[:i] + bytes([rng.choice(PRINTABLE)]) + data[i + 1 :]
    if kind == 1:
        return data[:i]
    j = min(len(data), i + rng.randrange(1, 9))
    return data[:i] + data[j:] if kind == 2 else data[:j] + data[i:j] + data[j:]


def test_damaged_files_keep_the_exit_code_contract(tmp_path, capsys):
    for argv in WRITE:
        assert main([a.format(d=tmp_path) for a in argv]) == 0, argv
    write_inputs(tmp_path)
    for name, codes in UNDAMAGED.items():
        assert [main([a.format(f=tmp_path / name) for a in argv]) for argv in READERS[name]] == codes, name
    capsys.readouterr()
    sources = {name: (tmp_path / name).read_bytes() for name in READERS}
    rng = random.Random(SEED)
    bad = tmp_path / "damaged.json"
    violations, codes = [], set()
    for _ in range(FILES):
        name = rng.choice(sorted(READERS))
        data = damage(rng, sources[name])
        bad.write_bytes(data)
        for argv in READERS[name]:
            argv = [a.format(f=bad) for a in argv]
            start = time.process_time()
            try:
                code = main(argv)
            except BaseException as exc:  # a traceback the CLI would print
                code = repr(exc)
            elapsed = time.process_time() - start
            err = capsys.readouterr().err
            codes.add(code)
            if code not in (0, 1, 2, 3) or "Traceback" in err or elapsed > CPU_LIMIT_S:
                violations.append((argv[:2], code, f"{elapsed:.2f} s", data))
    assert not violations, violations[:3]
    assert {1, 2} <= codes  # the damage reaches both the parsers and the checkers
