"""Exit code 3: an unexpected exception from the engine is reported as an
internal error, never as a FAIL verdict (1) or an input error (2)."""

import json
import sys

import pytest

from finsite import cli, randsuite


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("owner, name, argv", [
    (randsuite, "oracle_suite", ["oracle-suite"]),
    (cli, "check_cosheaf", ["demo", "pi0-pseudocircle"]),
])
def test_unexpected_exception_exits_three_with_a_report(monkeypatch, capsys, owner, name, argv):
    monkeypatch.setattr(owner, name, _boom)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report == {"kind": "report", "verdict": "INTERNAL-ERROR",
                      "witnesses": ["RuntimeError: boom"], "trace": []}
    assert "Traceback" in captured.err
    assert "RuntimeError: boom" in captured.err


def test_console_script_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(randsuite, "oracle_suite", _boom)
    monkeypatch.setattr(sys, "argv", ["finsite", "oracle-suite"])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "INTERNAL-ERROR"
