"""Tests of the benchmark itself: seeded inputs and the output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Correct outputs come from the program in ``src/``; every check must accept
them and reject a planted wrong answer.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prismvol import cli  # noqa: E402


def execute(argv) -> wl.Outcome:
    return tracing.call(cli, argv, 60.0)


def stdout_of(argv) -> bytes:
    out = execute(argv)
    assert out.exit_code == 0, out.stderr
    return out.stdout()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    requests = wl.WORKLOADS[name].requests
    assert [r.argv for r in requests(7, 0)] == [r.argv for r in requests(7, 0)]
    assert [r.argv for r in requests(7, 0)] != [r.argv for r in requests(8, 0)]


def test_audit_window_holds_the_degenerate_and_candidate_parameters():
    for seed in range(50):
        (req,) = wl.audit_range(seed, 0)
        n_from, n_to = int(req.argv[3]), int(req.argv[5])
        assert n_to - n_from + 1 == wl.AUDIT_WIDTH
        assert n_from <= -1 and n_to >= 1


def test_audit_check_rejects_planted_errors():
    check = wl.audit_check(-3, 3)
    good = stdout_of(("prism", "verify", "--from", "-3", "--to", "3", "--json"))
    assert check(good) is None

    def planted(edit) -> bytes:
        report = json.loads(good)
        edit(report)
        return json.dumps(report, indent=2).encode() + b"\n"

    assert check(planted(lambda r: r["reports"].pop())) is not None
    assert check(planted(lambda r: r["candidate_exceptional"].remove(-1))) is not None
    assert check(planted(lambda r: r["reports"][3].update(status="conditional"))) is not None
    assert check(planted(lambda r: r["reports"][4].update(status="conditional"))) is not None
    assert check(planted(lambda r: r["reports"][0].update(upper_bound_value=7.3277))) is not None
    assert check(b"not json") is not None


def test_candidates_follow_the_divisor_argument():
    assert wl.candidate_exceptional(-2000, 2000) == [-1, 1]


def _brute_counts(relator, degree):
    """Plain and transitive homomorphism counts of <x, y | relator> into S_d."""
    perms = list(itertools.permutations(range(degree)))
    inverse = {p: tuple(sorted(range(degree), key=p.__getitem__)) for p in perms}
    plain = transitive = 0
    for x, y in itertools.product(perms, repeat=2):
        images = {1: x, -1: inverse[x], 2: y, -2: inverse[y]}
        point_images = list(range(degree))
        for letter in relator:
            point_images = [images[letter][i] for i in point_images]
        if point_images != list(range(degree)):
            continue
        plain += 1
        orbit, frontier = {0}, [0]
        while frontier:
            i = frontier.pop()
            for j in (x[i], y[i]):
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        transitive += len(orbit) == degree
    return plain, transitive


def test_frozen_counts_match_brute_force():
    trefoil = [1, 2, 1, -2, -1, -2]
    hopf = [1, 2, -1, -2]
    for degree in range(1, 5):
        plain, trans = _brute_counts(trefoil, degree)
        assert (plain, trans) == (wl.TREFOIL_COUNTS[False][degree - 1],
                                  wl.TREFOIL_COUNTS[True][degree - 1])
        assert _brute_counts(hopf, degree) == (wl.hopf_counts(False, degree),
                                              wl.hopf_counts(True, degree))
    assert not wl.hall_violations(list(wl.TREFOIL_COUNTS[False]), list(wl.TREFOIL_COUNTS[True]))


def test_cover_checks_reject_planted_errors():
    requests = [r for r in wl.cover_count(3, 0) if r.group and r.group[2] <= 4]
    stdouts = [stdout_of(r.argv) for r in requests]
    assert all(r.check(out) is None for r, out in zip(requests, stdouts))
    assert wl.cover_group_errors(requests, stdouts) == {}

    random0 = [i for i, r in enumerate(requests) if r.group[:2] == ("random0", False)]
    wrong = list(stdouts)
    i = max(random0, key=lambda i: requests[i].group[2])
    wrong[i] = b"%d\n" % (int(stdouts[i]) + 1)
    errors = wl.cover_group_errors(requests, wrong)
    assert i in errors and all(requests[j].group[0] == "random0" for j in errors)

    frozen = next(r for r in requests if r.group == ("trefoil", True, 3))
    assert frozen.check(b"8\n") is None
    assert frozen.check(b"9\n") is not None
    assert frozen.check(b"8 \n") is not None


def test_homology_check_rejects_planted_errors():
    for req in wl.homology(5, 0):
        if len(json.loads(req.argv[2])["fibers"]) <= 6:
            break
    good = stdout_of(req.argv)
    assert req.check(good) is None
    data = json.loads(good)
    data["divisors"][0] *= 2
    assert req.check(json.dumps(data).encode()) is not None
    data["divisors"] = [1] + json.loads(good)["divisors"]
    assert req.check(json.dumps(data).encode()) is not None


def test_homology_check_needs_divisibility():
    # (Oo, 0; 1/2, 1/2, 1/2, 1/2): |det| = 4 * 2^3 = 32 and H_1 = Z/2 + Z/2 + Z/8
    fibers = [[1, 2], [1, 2], [1, 2], [1, 2]]
    check = wl.homology_check(0, fibers)
    symbol = json.dumps({"class": "Oo", "genus": 0, "fibers": fibers})
    assert json.loads(stdout_of(("seifert", "h1", symbol, "--json")))["divisors"] == [2, 2, 8]
    assert check(b'{"divisors": [2, 2, 8], "order": 32}') is None
    assert check(b'{"divisors": [2, 8, 2], "order": 32}') is not None
    assert check(b'{"divisors": [32], "order": 32}') is None
    assert check(b'{"divisors": [2, 16], "order": 32}') is None
    assert check(b'{"divisors": [2, 2, 4], "order": 16}') is not None
    assert wl.homology_check(1, fibers)(b'{"divisors": [2, 2, 8], "order": null}') is not None
    assert wl.homology_check(1, fibers)(b'{"divisors": [2, 2, 8, 0, 0], "order": null}') is None


@pytest.mark.parametrize("seed", range(3))
def test_cli_session_outputs_and_refusals(seed):
    requests = wl.cli_session(seed, 0)
    assert len(requests) == len(wl.CLI_SESSION_BUILDERS)
    for req in requests:
        out = execute(req.argv)
        assert wl.request_error(req, out) is None, req.argv
        if req.check is not None:
            wrong = wl.Outcome(False, 0, b"", "", lambda: out.stdout() + b"x")
            assert wl.request_error(req, wrong) is not None
        else:
            two_lines = wl.Outcome(False, 1, b"error: a\nerror: b\n", "", lambda: b"")
            assert wl.request_error(req, two_lines) is not None
            accepted = wl.Outcome(False, 0, b"", "", lambda: b"")
            assert wl.request_error(req, accepted) is not None


def test_tail_has_ten_values_beyond_it():
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100 / 11)
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
    with pytest.raises(wl.BenchError):
        run.tail([1.0] * 10)


def test_self_times_add_up_to_the_root():
    spans = [
        ["covers.prism_verify", -1, 0, 100, None],
        ["orbifolds.case_analysis_report", 0, 10, 60, None],
        ["orbifolds.chi_orb", 1, 20, 30, None],
        ["slopes.enumerate_constrained_slopes", 0, 70, 90, None],
    ]
    layers = tracing.layer_self_ms(spans, "covers.prism_verify")
    assert layers == {"covers": 30e-6, "orbifolds": 50e-6, "slopes": 20e-6}
    assert sum(layers.values()) == pytest.approx(100e-6)
    stats = tracing.summarize(spans)
    assert stats["orbifolds.case_analysis_report"]["self"] == 40


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: value[:2] for name, value in tracing.PER_LAYER.items()
    }
