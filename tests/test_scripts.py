"""The scripts under ``scripts/`` run against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    proc = run(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_case_table():
    lines = run_script("case_table.py", "--n", "1")
    case5 = next(line.split() for line in lines if line.split()[:1] == ["5"])
    assert case5[-2:] == ["18", "18"]
    family = [line for line in lines if line.strip().startswith("family:")]
    assert len(family) == 1
    assert re.findall(r"\(d=(\d+), n=(-?\d+)\)", family[0]) == [("18", "1"), ("10", "-1")]


@pytest.mark.parametrize("script, flag", [("case_table.py", "--n")])
@pytest.mark.parametrize("token", [" 1_0", "+1", "1.0"])
def test_integer_options_are_strict(script, flag, token):
    proc = run(script, f"{flag}={token}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"expected an integer, got {token!r}" in proc.stderr


@pytest.mark.parametrize(
    "script, args, code, message",
    [
        ("case_table.py", ["--n", "0"], 1, "error: parameter n = 0 is degenerate: |4n - 1| = 1 < 3"),
    ],
)
def test_refusals_are_one_stderr_line(script, args, code, message):
    """As the command line refuses: no traceback, and no empty audit with status 0."""
    proc = run(script, *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")

