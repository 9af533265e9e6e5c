"""The scripts under ``scripts/`` run against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from prismvol import prism_verify

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


def test_verify_family():
    lines = run_script("verify_family.py", "--from", "-5", "--to", "25")
    candidates = [line for line in lines if line.startswith("candidate n =")]
    assert candidates == [
        "candidate n = -1: horizontal fiber degrees [10]",
        "candidate n = 1: horizontal fiber degrees [18]",
    ]


def test_verify_family_counts_match_prism_verify():
    lines = run_script("verify_family.py", "--from", "-40", "--to", "40")
    assert lines[0] == "parameters audited: 81 (n from -40 to 40)"
    expected = {"conditional": [], "candidate-exceptional": [], "excluded": []}
    for row in prism_verify(-40, 40)["reports"]:
        expected[row["status"]].append(row["n"])
    shown = {}
    for line in lines[2:5]:
        status, count, listed = line.split(maxsplit=2)
        shown[status] = (int(count), listed)
    assert shown == {
        status: (len(values), ", ".join(map(str, values)) or "none")
        for status, values in expected.items()
    }


@pytest.mark.parametrize(
    "script, flag",
    [("case_table.py", "--n"), ("verify_family.py", "--from"), ("verify_family.py", "--to")],
)
@pytest.mark.parametrize("token", [" 1_0", "+1", "1.0"])
def test_integer_options_are_strict(script, flag, token):
    proc = run(script, f"{flag}={token}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"expected an integer, got {token!r}" in proc.stderr
