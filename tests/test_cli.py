"""Tests for the command line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table7" in out and "figure3" in out

    def test_run_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Pentium Pro" in out
        assert "[table1 in" in out

    def test_scale_flag_parsed(self, capsys):
        assert main(["table1", "--scale", "0.5"]) == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_json_to_stdout(self, capsys):
        assert main(["table1", "--json", "-"]) == 0
        out = capsys.readouterr().out
        import json
        payload = json.loads(out[out.index("{"):])
        assert payload["experiment"] == "table1"
        assert payload["headers"] == ["processor", "multiplication", "division"]

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(["table1", "--json", str(target)]) == 0
        import json
        payload = json.loads(target.read_text())
        assert len(payload["rows"]) == 6
        assert "div_to_mul_ratio" in payload["extras"]


def test_cli_import_leaves_scipy_unloaded():
    """scipy is only needed by the Figure 2 line fit; importing the CLI
    (every ``repro`` command, every ``repro submit``) must not pay for it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = "import repro.cli, sys; print('scipy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "False"
