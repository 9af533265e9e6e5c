"""The scripts under ``scripts/`` run against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
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
