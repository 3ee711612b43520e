"""Byte-for-byte pins of the files the CLI writes.

Every file below is written through ``cli.main`` on a small instance, and
its sha256 is compared with a frozen digest.  A change that alters any
written byte fails here; a deliberate format change must update the
digests and say so in CHANGES.md.
"""

import hashlib

import pytest

from pcsos.algebra import GF
from pcsos.cli import main
from pcsos.families import gen_subset_sum
from pcsos.proofcheck import derivation_to_json, dump_json

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
    "chain.cert.json": "73bb25cef743ccbf838b785649ca8cb1e069bb3b6797c99bfd19e47929b608f7",
    "chain.json": "e348e1256c5ab6c3e921695a818283ae0ad5f38cdacb1d9a27016a1c94b3976b",
    "chain.plus.json": "023592cb763682002da66bae3eec8f5d064c2825e24c7549f9a3896d12dc623c",
    "chain.rad.json": "a8727799e3edd6124220dcbe45242f6761a1d06a58e1ab54f1072e25eeebecfb",
    "fol.eqs.json": "e03fef0b85bd63cf27fa3be77312e2f65081be995b98eff9416972ea12c9b5be",
    "fphp.cert.json": "cfdb8b9729df942cc1a489f3612e35109910830ce89c7dafc1c135a024c8059c",
    "fphp.eps.json": "cc96e03fda0177d43a855bc732d63915a4c730725f5529d54042a12c833cee12",
    "fphp.eps.norm.json": "1a88f262acb2eebff9673f2efa4d1aa3d73a7306410f1360cbf63b52a8f1f442",
    "fphp.json": "296f8b106ba43959ce9355240c8b394fef62d4d8f53696607ced5031bdd0a167",
    "fphp.pcplus.json": "55e3cdd3d91f3581834b4ed24a4d872e0c0976eb7a4804f1e5fe8fb13ecb1fef",
    "fphp.sos.json": "3dbcebc03493032ac6e034e59b7d5b1377ed7d1385b585dbfdd6dccaa9632c85",
    "fphp32.closure.json": "0eecc95a851d57ffe435b4fdc34c54f50796d5cee6b549fe26161ee56660d533",
    "fphpn.cert.json": "cfdb8b9729df942cc1a489f3612e35109910830ce89c7dafc1c135a024c8059c",
    "fphpn.json": "296f8b106ba43959ce9355240c8b394fef62d4d8f53696607ced5031bdd0a167",
    "ss.cert.json": "e2ba3e78e3f7c60c267d24c41dbb8868cc09f70d41fb558f4e9d353bada01a2a",
    "ss.json": "86763ee02488d47c4cf879996f1248888191d93bc527d4c6759f90e44479eba7",
    "ss.sos.json": "2e679406967a450d07325f5201712ac6460d9b9aa52182177cc7e05e7da79311",
    "ss7.flat.json": "e9cd4f15d18fffea4dfa58ee9d9c62f19e9a19828146d33aa579aad0d371d1f6",
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
