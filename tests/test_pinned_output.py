"""Byte-identity pins for documents and reports.

Reports and written documents are part of the CLI contract: a change to how
results are computed must leave these bytes unchanged.  The digests were
recorded before the (co)limit assembly moved behind `values.py`.  Record new
ones only for a deliberate change of output, and say so in the change log.
"""

import hashlib
import random
from pathlib import Path

import pytest

from finsite import io
from finsite.cli import main
from finsite.cosheaf import constant_precosheaf, cosheafify
from finsite.randsuite import random_presheaf, random_site
from finsite.spaces import (converging_sequence_site, demo_by_name, h0_precosheaf,
                            open_site, pi0_precosheaf, pseudocircle, site_points)
from finsite.values import finset, free_ab

DEPTH = 4
DATA = Path(__file__).resolve().parent / "data"


def _pi0():
    space = pseudocircle()
    return pi0_precosheaf(open_site(space), space, DEPTH)


def _h0():
    space = pseudocircle()
    return h0_precosheaf(open_site(space), space, free_ab(1), DEPTH)


def _constant(g):
    spec = converging_sequence_site(8)
    return constant_precosheaf(spec, g, DEPTH, site_points(spec))


COSHEAFIFY_DIGESTS = {
    "pi0-pseudocircle": (_pi0, "71db421bd30318ea5f22836e014387ba23b7c0637baa966b265af09945d4c7da"),
    "h0-pseudocircle": (_h0, "78a0969eabd5dcb221ebef346a13c21e8aae198a84df585fc39abe0591dca592"),
    "pt-converging8": (lambda: _constant(finset("*")),
                       "913faa2a45c3d52cc53e24e1a692d88c53410bec8f93cf22c8dac9b49a237810"),
    "Z-converging8": (lambda: _constant(free_ab(1)),
                      "faadda1fe020ac3d161a05f7b980ce7f69ecad919fd5183f9326483272c14ba3"),
    # a depth-3 document whose plus reindexes (phi = (0, 2, 2, 3)); recorded
    # when level morphisms still carried a shift field
    "lagging-chain-point": (lambda: io.load(DATA / "lagging_chain_point.json"),
                            "da29e24e1344e24c7b689663ada8ebda8bd714465483e3e4674eccf7ca64a7ec"),
}

ORACLE_SUITE_SEED0 = "f3ce4429afd6cb33f451cf33e7a0ad3a5ab0da7fde49076bd9063aa7db4922d2"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(COSHEAFIFY_DIGESTS))
def test_cosheafify_document_bytes_pinned(tmp_path, name):
    make, digest = COSHEAFIFY_DIGESTS[name]
    path = tmp_path / f"{name}.json"
    io.save(cosheafify(make(), DEPTH).precosheaf, path)
    assert _sha256(path.read_bytes()) == digest


def test_oracle_suite_report_bytes_pinned(capsys):
    assert main(["oracle-suite", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == ORACLE_SUITE_SEED0


def _random_presheaf():
    rng = random.Random(1)
    spec = random_site(rng)  # an open-set site, {} among its objects
    return random_presheaf(spec, rng)


# The sheafified documents label the element of the terminal value at {} "*".
SHEAFIFY_DIGESTS = {
    "constant-presheaf-sheafify": (lambda: demo_by_name("constant-presheaf-sheafify").make(None)[1],
                                   "eec71aac6d34436dc4a8dc4fd5b1943a0344da09242f9affc7fc04ffe119a8a1"),
    "random-presheaf-seed1": (_random_presheaf,
                              "36af35a36abd58db26b6645f834866c9d60d2b8e49f184680700dfabb096da4d"),
}


@pytest.mark.parametrize("name", sorted(SHEAFIFY_DIGESTS))
def test_sheafify_out_document_bytes_pinned(tmp_path, capsys, name):
    make, digest = SHEAFIFY_DIGESTS[name]
    src, out = tmp_path / "presheaf.json", tmp_path / "sheafified.json"
    io.save(make(), src)
    assert main(["sheafify", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == digest
