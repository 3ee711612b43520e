"""Byte-for-byte pins of the files the CLI writes.

Every file below is written through ``cli.main`` on a small instance, and
its sha256 is compared with a frozen digest.  A change that alters any
written byte fails here; a deliberate format change must update the
digests and say so in CHANGES.md.

Files are written compact (no whitespace between tokens), but readers take
any JSON whitespace: each pinned file, re-indented as files were once
written, still reads back to the same bytes and still checks.
"""

import hashlib
import json

import pytest

from pcsos.algebra import GF
from pcsos.cli import main
from pcsos.families import gen_subset_sum
from pcsos.proofcheck import derivation_to_json, dump_json, load_json

# "{d}" is the output directory; later commands read files written by
# earlier ones.
COMMANDS = [
    ["gen", "fphp", "--pigeons", "4", "--holes", "3", "--with-cert", "-o", "{d}/fphp.json"],
    ["gen", "fphp", "--pigeons", "4", "--holes", "3", "--with-cert", "--normalize", "-o", "{d}/fphpn.json"],
    ["gen", "subset-sum", "--n", "3", "--with-cert", "-o", "{d}/ss.json"],
    ["gen", "chain", "--n", "3", "--with-cert", "-o", "{d}/chain.json"],
    ["translate", "sos-to-pcplus", "{d}/fphp.cert.json", "-o", "{d}/fphp.pcplus.json"],
    ["translate", "pcplus-to-sos", "{d}/fphp.pcplus.json", "-o", "{d}/fphp.sos.json"],
    ["translate", "pcplus-to-sos", "{d}/fphp.pcplus.json", "--eps", "1/3", "-o", "{d}/fphp.eps.json"],
    ["check-sos", "{d}/fphp.eps.json", "--normalize", "-o", "{d}/fphp.eps.norm.json"],
    ["translate", "pcplus-to-sos", "{d}/ss.cert.json", "-o", "{d}/ss.sos.json"],
    ["translate", "elim-radical", "{d}/ss7.json", "-o", "{d}/ss7.flat.json"],
    ["lkr", "compile", "{d}/chain.cert.json", "--assign", "n=3", "-o", "{d}/chain.rad.json"],
    ["lkr", "compile", "{d}/chain.cert.json", "--assign", "n=3", "--target", "pc_plus", "-o", "{d}/chain.plus.json"],
    ["search", "closure", "{d}/fphp32.json", "--degree", "2", "--query", "1", "-o", "{d}/fphp32.closure.json"],
    [
        "fol", "translate", "--assign", "n=3", "-o", "{d}/fol.eqs.json", "--formula",
        "(forall i n (or (= (* (X i) (- (rat 1) (X i))) (rat 0))"
        " (= (sum j (+ i 1) (* (rat 1/2) (X j))) (rat 1))))",
    ],
]

DIGESTS = {
    "chain.cert.json": "9df10e58a1569b348421785b1a090707ea5c097fe6a4254bf537ad3d6d460525",
    "chain.json": "6fc7071b930e32ff3ef54b9eaac0dfd4001e7d63f0a1726e83981118d15449ed",
    "chain.plus.json": "830862a34c00868600eaf788f25fe28a49da1a38432d0b04998406e662f10ae6",
    "chain.rad.json": "257a899c373e65f44b9ad49415e76ee423864dad9113f47b281ab45dfb890afb",
    "fol.eqs.json": "48e0ca2e8ea093bbbe7e93919e9dca59f198be12b6fa8660cf481e6f492cbd05",
    "fphp.cert.json": "5a4db513ad2f45ae552ee263277b52a0c954390eb7fd97612c5cd88a875002ec",
    "fphp.eps.json": "d80b150672d28a557476af47ccb35f66906b74981001eae1001eb5e5959d9419",
    "fphp.eps.norm.json": "4943043d48d2f9c473c637e17a0b2ab61661fb45c6b97229927aef3f64cdeb88",
    "fphp.json": "7f18e2b8a0086f8caf733ea1b12a2326364546f46036d3a9bb25d3b21903d903",
    "fphp.pcplus.json": "6c5ad35e05ac5af87aea7fbd50bc74c13dd60950f26eb4679c35ba1f2a24629e",
    "fphp.sos.json": "54bee2bfab224fc7600f9c93e7ec58db300c951d9c2d8384fb1a42a6de5932d8",
    "fphp32.closure.json": "58132db13d0c31912f780858e759a15702ea3fca2970f2aace751f871dd1291a",
    "fphpn.cert.json": "5a4db513ad2f45ae552ee263277b52a0c954390eb7fd97612c5cd88a875002ec",
    "fphpn.json": "7f18e2b8a0086f8caf733ea1b12a2326364546f46036d3a9bb25d3b21903d903",
    "ss.cert.json": "ac0eb733cad625bcdb40466d163b903e9cb1e55b50a3841e4ff75bc818089f61",
    "ss.json": "7fe14a7ef079c8ce4aa172a4a48f0590f6d8e3f7f954cc6a2f7d08b3bf9cf8e5",
    "ss.sos.json": "d9445d3e6ef9784e61884823d06552706cf4783948387613c1375b2cec5868c5",
    "ss7.flat.json": "73d9ae110b4b13942d5213fe78df3ed16f6bc9c5641866c34b11a0516f3233fa",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    # unpinned inputs: a GF(7) radical refutation (gen writes only over Q)
    # and the fPHP(3, 2) instance for the closure search
    dump_json(derivation_to_json(gen_subset_sum(3, GF(7)).certificate), d / "ss7.json")
    assert main(["gen", "fphp", "--pigeons", "3", "--holes", "2", "-o", str(d / "fphp32.json")]) == 0
    for argv in COMMANDS:
        assert main([a.format(d=d) for a in argv]) == 0, argv
    return d


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_output(written, name):
    digest = hashlib.sha256((written / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name], name


def test_every_written_file_is_pinned(written):
    made = {p.name for p in written.iterdir()} - {"ss7.json", "fphp32.json"}
    assert made == set(DIGESTS)


def _indented(written, tmp_path, name):
    """A copy of a written file in the older indent-1 layout."""
    path = tmp_path / name
    path.write_text(json.dumps(json.loads((written / name).read_text()), indent=1, sort_keys=True) + "\n")
    return path


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_indented_file_reads_back_to_the_pinned_bytes(written, tmp_path, name):
    indented = _indented(written, tmp_path, name)
    assert indented.read_bytes() != (written / name).read_bytes()
    dump_json(load_json(indented), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (written / name).read_bytes()


def test_indented_files_still_check(written, tmp_path):
    assert main(["check-sos", str(_indented(written, tmp_path, "fphp.cert.json"))]) == 0
    assert main(["check", str(_indented(written, tmp_path, "fphp.pcplus.json"))]) == 0
