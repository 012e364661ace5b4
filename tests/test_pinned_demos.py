"""Byte-identity pins for the five `finsite demo` reports.

Each demo's report, at the default depth, is part of the CLI contract: a
change to how results are computed must leave these bytes unchanged.  The
digests were recorded before tower levels that repeat the level below began
to share their work.  Record new ones only for a deliberate change of output,
and say so in the change log.
"""

import hashlib

import pytest

from finsite.cli import main
from finsite.spaces import builtin_demos

DEMO_DIGESTS = {
    "pi0-pseudocircle": "56d34903ea210b082bbf63051f2a515c145245d5d244a196319ebbf1aee0305b",
    "pt-finite-space-smooth": "a47e146ceec2a1b3e84aa19afecaf6be3dcc4cba1fe26dcef6de7f5245fdefe5",
    "pt-converging": "28bbd428c33bff1605218d4b228a87787aa0f159e10fba663dacafecfbb22f4c",
    "Z-converging": "787e12817856e755e51a4994187d380f2aae3dd0cfa146e557c6fa84faf98866",
    "constant-presheaf-sheafify": "f6ea1b81f7ba83a06a8f6c1d7129ef97d7522303d6bc869d87801789eddb7dd7",
}


def test_every_demo_is_pinned():
    assert sorted(d.name for d in builtin_demos()) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_report_bytes_pinned(capsys, name):
    assert main(["demo", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEMO_DIGESTS[name]
