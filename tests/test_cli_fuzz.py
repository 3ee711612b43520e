"""Seeded fuzz test of the CLI's exit-code contract.

Files written by ``gen`` and ``translate`` are damaged at random (a byte
replaced, the tail cut, a span deleted or duplicated) and fed to every
command that reads that kind of file.  Each case must exit 0, 1, 2 or 3,
print no traceback and stay within a CPU-time limit.
"""

import random
import time

from pcsos.cli import main

SEED = 20261019
FILES = 300
CPU_LIMIT_S = 1.0
PRINTABLE = bytes(range(32, 127))

# "{d}" is the directory of the written files, "{f}" the damaged file
WRITE = [
    ["gen", "fphp", "--pigeons", "3", "--holes", "2", "--with-cert", "-o", "{d}/fphp.json"],
    ["translate", "sos-to-pcplus", "{d}/fphp.cert.json", "-o", "{d}/fphp.pcplus.json"],
    ["gen", "chain", "--n", "2", "--with-cert", "-o", "{d}/chain.json"],
]
READERS = {
    "fphp.cert.json": [["check-sos", "{f}"], ["translate", "sos-to-pcplus", "{f}"]],
    "fphp.pcplus.json": [
        ["check", "{f}"],
        ["translate", "pcplus-to-sos", "{f}"],
        ["translate", "elim-radical", "{f}"],
    ],
    "fphp.json": [["search", "closure", "{f}", "--degree", "2", "--query", "1"]],
    "chain.cert.json": [["lkr", "check", "{f}"], ["lkr", "compile", "{f}", "--assign", "n=2"]],
}


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
