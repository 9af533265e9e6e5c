import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismvol import (
    link_from_json,
    normalize,
    prism_header,
    prism_row_stream,
    prism_verify,
    symbol_from_json,
    word_from_json,
)
from prismvol import Orbifold2D, audit, cli, orbifolds, slopes
from prismvol.cli import build_parser, main
from support import prism_table_oracle, symbols_st

# every group and command name: ``build_parser(EVERY_NAME)`` builds every parser
EVERY_NAME = [*cli._COMMANDS, *(name for _, names in cli._COMMANDS.values() for name in names)]
NUM_RE = re.compile(r"-?\d+/\d+|-?\d+(?:\.\d+)?")
SURFACE = Path(__file__).with_name("cli_surface.txt")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestHeadlineExamples:
    def test_moebius_chi(self):
        code, out, _ = run_cli(
            ["orbifold", "chi", "--orientable", "false", "--genus", "1", "--boundary", "1"]
        )
        assert code == 0
        assert out.strip() == "0/1"

    def test_basis_delta(self):
        code, out, _ = run_cli(["slopes", "delta", "1,0", "0,1"])
        assert code == 0
        assert out.strip() == "1"

    def test_verify_window_json(self):
        code, out, _ = run_cli(
            ["prism", "verify", "--from", "2", "--to", "10", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 9
        assert all(r["status"] == "conditional" for r in payload["reports"])
        assert payload["candidate_exceptional"] == []

    def test_twisted_torus_braid_artin(self):
        code, out, _ = run_cli(["braid", "ttk", "5", "1", "2", "1"])
        assert code == 0
        assert out.strip() == "s1 s2 s3 s4 s1 s1"


class TestExitCodes:
    def test_success_is_zero(self):
        code, _, err = run_cli(["montesinos", "ln", "1"])
        assert code == 0
        assert err == ""

    def test_unknown_command_is_usage_error(self):
        code, _, _ = run_cli(["bogus"])
        assert code == 2

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli(["slopes", "delta", "1,0", "0,1", "--strict"])
        assert code == 2

    def test_missing_subcommand_is_usage_error(self):
        code, _, _ = run_cli(["seifert"])
        assert code == 2

    def test_missing_required_flag_is_usage_error(self):
        code, _, _ = run_cli(["covers", "count", "@unknot"])
        assert code == 2

    def test_bad_bool_is_usage_error(self):
        code, _, _ = run_cli(
            ["orbifold", "chi", "--orientable", "maybe", "--genus", "0", "--boundary", "1"]
        )
        assert code == 2

    def test_fiber_orientable_is_usage_error(self):
        fiber = ["--fiber-genus", "2", "--fiber-boundary", "1", "--fiber-orientable", "false"]
        base = ["--orientable", "true", "--genus", "0", "--boundary", "1", "--cones", "2,3"]
        code, out, err = run_cli(["orbifold", "solve", *fiber, *base])
        assert code == 2
        assert out == ""
        assert "--fiber-orientable" in err

    def test_conflicting_formats_is_usage_error(self):
        code, _, _ = run_cli(["montesinos", "ln", "1", "--json", "--table"])
        assert code == 2

    def test_reversed_range_is_usage_error(self):
        code, out, err = run_cli(["prism", "verify", "--from", "5", "--to", "2"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "--from 5" in err and "--to 2" in err

    @pytest.mark.parametrize("module", ["prismvol", "prismvol.cli"])
    def test_reversed_range_is_usage_error_run_as_a_module(self, module):
        """``python -m prismvol.cli`` runs ``cli.py`` as ``__main__``, beside the
        package's ``prismvol.cli``; its ``main`` answers the ``UsageError`` of
        its own handlers with exit status 2 and one line."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", module, "prism", "verify", "--from", "3", "--to", "1"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path])),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: --from 3 is greater than --to 1; the range is empty\n"

    def test_domain_error_names_missing_field(self):
        code, out, err = run_cli(["seifert", "euler", '{"class": "Oo", "genus": 0}'])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: symbol: missing field 'fibers'")

    def test_domain_error_on_malformed_json(self):
        code, _, err = run_cli(["seifert", "euler", "{not json"])
        assert code == 1
        assert err.startswith("error: invalid JSON input")

    def test_domain_error_on_nonprimitive_slope(self):
        code, _, err = run_cli(["slopes", "delta", "2,4", "1,0"])
        assert code == 1
        assert err.startswith("error:")

    def test_domain_error_on_degenerate_degree_equation(self):
        code, _, err = run_cli(
            [
                "orbifold", "solve",
                "--fiber-genus", "0", "--fiber-boundary", "2",
                "--orientable", "true", "--genus", "0", "--boundary", "1",
                "--cones", "2,2",
            ]
        )
        assert code == 1
        assert "every degree" in err

    def test_domain_error_on_enumeration_guard(self):
        code, _, err = run_cli(
            ["covers", "count", '{"generators": 3, "relators": []}', "--degree", "10"]
        )
        assert code == 1
        assert "limit" in err

    def test_oversized_degree_names_the_limit(self):
        code, out, err = run_cli(["covers", "count", "@trefoil", "--degree", "300000"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.endswith("has 1200000 cells, over the limit of 512\n")

    def test_wirtinger_trefoil_at_degree_seven(self):
        """(7!)^3 is over 10^14 candidate tuples, but the search takes 595
        nodes: the count is answered."""
        pres = '{"generators": 3, "relators": [[1, 2, -3, -2], [2, 3, -1, -3]]}'
        argv = ["covers", "count", pres, "--degree", "7", "--transitive"]
        assert run_cli(argv) == (0, "30960\n", "")

    def test_domain_error_on_crosscap_homology(self):
        code, _, err = run_cli(["seifert", "h1", "@m1_on"])
        assert code == 1
        assert "orientable base" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["seifert", "h1", '{"class":"Oo","genus":1000000000000000000,"fibers":[]}'],
             "the result is too large to build"),
            (["seifert", "h1", '{"class":"Oo","genus":10000000000000000000,"fibers":[]}'],
             "cannot fit 'int' into an index-sized integer"),
            (["braid", "ttk", "3", "1000000000000000000", "2", "1"],
             "the result is too large to build"),
            (["braid", "ttk", "3", "10000000000000000000", "2", "1"],
             "cannot fit 'int' into an index-sized integer"),
        ],
    )
    def test_result_too_large_to_build_is_one_line(self, argv, message):
        """A list of 2 * 10^18 entries fails Python's size check with a
        MemoryError, and a length past the index range with an OverflowError,
        both before anything is allocated."""
        assert run_cli(argv) == (1, "", f"error: {message}\n")


class TestOutputFormats:
    def test_json_flag_without_env(self):
        code, out, _ = run_cli(["seifert", "euler", "@m1_on", "--json"])
        assert code == 0
        assert json.loads(out) == {"euler": "-3/2"}


class TestFixtureResolution:
    def test_packaged_presentation_fixtures(self):
        code, out, _ = run_cli(["covers", "count", "@unknot", "--degree", "3"])
        assert code == 0 and out.strip() == "6"
        code, out, _ = run_cli(
            ["covers", "count", "@trefoil", "--degree", "3", "--transitive"]
        )
        assert code == 0 and out.strip() == "8"
        code, out, _ = run_cli(["covers", "count", "@hopf", "--degree", "2"])
        assert code == 0 and out.strip() == "4"

    def test_packaged_symbol_fixture(self):
        code, out, _ = run_cli(["seifert", "normalize", "@m1_oo"])
        assert code == 0
        assert out.strip() == "(Oo, 0; 1/2, 1/2, 1/3, -2/1)"

    def test_packaged_fixture_miss(self):
        assert run_cli(["covers", "count", "@ghost", "--degree", "2"]) == (
            1, "", "error: no packaged fixture named 'ghost.json'\n"
        )

    @pytest.mark.parametrize("where", ["absolute", "relative", "into the fixtures"])
    def test_path_that_names_no_file_is_refused(self, tmp_path, where):
        """A ref with a directory part is a path: where it names no file, the
        command reads neither its ``.json`` sibling nor a fixture, and names
        the ref as given."""
        (tmp_path / "group.json").write_text(json.dumps({"generators": 1, "relators": []}))
        ref = {
            "absolute": str(tmp_path / "group"),
            "relative": os.path.relpath(tmp_path / "group", Path(cli.__file__).parent / "fixtures"),
            "into the fixtures": "../fixtures/trefoil",
        }[where]
        assert run_cli(["covers", "count", f"@{ref}", "--degree", "2"]) == (
            1, "", f"error: no file named {ref!r}\n"
        )

    def test_direct_file_path_reference(self, tmp_path):
        path = tmp_path / "word.json"
        path.write_text(json.dumps({"strands": 2, "letters": [1, 1, 1]}))
        code, out, _ = run_cli(["braid", "components", f"@{path}"])
        assert code == 0
        assert out.strip() == "1"


class TestNegativePairTokens:
    def test_delta_with_leading_negative(self):
        code, out, _ = run_cli(["slopes", "delta", "-2,1", "1,0"])
        assert code == 0
        assert out.strip() == "1"

    def test_delta_with_both_entries_negative(self):
        code, out, _ = run_cli(["slopes", "delta", "-3,-2", "1,0"])
        assert code == 0
        assert out.strip() == "2"

    def test_enumerate_with_negative_fiber(self):
        code, out, _ = run_cli(["slopes", "enumerate", "-2,1", "1,0", "--json"])
        assert code == 0
        assert json.loads(out)["slopes"]


class TestSubcommandSurfaces:
    def test_seifert_h1_table(self):
        code, out, _ = run_cli(["seifert", "h1", "@m1_oo"])
        assert code == 0
        assert out.splitlines() == ["divisors: 8", "order: 8"]

    def test_seifert_h1_json(self):
        code, out, _ = run_cli(["seifert", "h1", "@m1_oo", "--json"])
        assert code == 0
        assert json.loads(out) == {"divisors": [8], "order": 8}

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["--json", "table"])
    def test_seifert_h1_is_one_write(self, fmt):
        """Unbuffered, each write to stdout is a system call, and ``print``
        writes the text and its newline apart."""
        sink = _CountingSink()
        with contextlib.redirect_stdout(sink):
            assert main(["seifert", "h1", "@m1_oo", *fmt]) == 0
        assert sink.writes == 1

    def test_seifert_base(self):
        code, out, _ = run_cli(["seifert", "base", "@m1_oo"])
        assert code == 0
        assert out.strip() == "orientable genus 0, boundary 0, cones 2, 2, 3"

    def test_orbifold_cover_fiber_surface(self):
        code, out, _ = run_cli(
            [
                "orbifold", "cover", "--genus", "0", "--boundary", "1",
                "--degree", "2",
            ]
            + ["--branch", "2"] * 5
        )
        assert code == 0
        assert out.strip() == "orientable genus 2, boundary 1, euler -3"

    def test_orbifold_solve_finds_18(self):
        code, out, _ = run_cli(
            [
                "orbifold", "solve",
                "--fiber-genus", "2", "--fiber-boundary", "1",
                "--orientable", "true", "--genus", "0", "--boundary", "1",
                "--cones", "2,3", "--json",
            ]
        )
        assert code == 0
        assert json.loads(out) == {"degrees": [18], "chi_only_degrees": [18]}

    @pytest.mark.parametrize(
        "base",
        [
            ["--orientable", "true", "--genus", "0", "--boundary", "1", "--cones", "2,3"],
            ["--orientable", "false", "--genus", "1", "--boundary", "1", "--cones", "2"],
        ],
        ids=["orientable", "non-orientable"],
    )
    def test_orbifold_solve_solves_once(self, base, monkeypatch):
        """Both degree lists come from one solve of the degree equation."""
        calls = []
        original = orbifolds._degree_solutions

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(orbifolds, "_degree_solutions", counting)
        fiber = ["--fiber-genus", "2", "--fiber-boundary", "1"]
        code, _, _ = run_cli(["orbifold", "solve", *fiber, *base])
        assert code == 0
        assert len(calls) == 1

    def test_orbifold_solve_nonorientable_near_miss(self):
        code, out, _ = run_cli(
            [
                "orbifold", "solve",
                "--fiber-genus", "2", "--fiber-boundary", "1",
                "--orientable", "false", "--genus", "1", "--boundary", "1",
                "--cones", "2",
            ]
        )
        assert code == 0
        assert out.splitlines() == ["degrees: none", "chi-only degrees: 6"]

    def test_montesinos_cover_inline(self):
        code, out, _ = run_cli(
            [
                "montesinos", "cover",
                '{"genus": 0, "tangles": [[1, 2], [-1, 2], [-2, 3]]}',
            ]
        )
        assert code == 0
        assert out.strip() == "(Oo, 0; 1/2, 1/2, 1/3, -2/1)"

    def test_braid_chi_knot_reports_genus(self):
        code, out, _ = run_cli(
            ["braid", "chi", '{"strands": 5, "letters": [1, 2, 3, 4, 1, 1]}']
        )
        assert code == 0
        assert out.splitlines() == ["chi: -1", "genus: 1"]

    def test_braid_chi_multi_component_omits_genus(self):
        code, out, _ = run_cli(
            ["braid", "chi", '{"strands": 4, "letters": [1, 2, 3, 1, 2, 3]}', "--json"]
        )
        assert code == 0
        assert json.loads(out) == {"chi": -2}

    def test_enumerate_table_matches_json_length(self):
        argv = ["slopes", "enumerate", "1,0", "0,1"]
        _, table_out, _ = run_cli(argv)
        _, json_out, _ = run_cli(argv + ["--json"])
        listed = json.loads(json_out)["slopes"]
        assert len(table_out.splitlines()) == len(listed) == 5
        assert table_out.splitlines()[0] == "-2,1"


class TestVerifyTable:
    def test_conditional_window(self):
        code, out, _ = run_cli(["prism", "verify", "--from", "2", "--to", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("upper bound 2*V0 = 7.327724753418")
        assert lines[-1] == "candidate exceptional: none"
        assert sum("conditional" in line for line in lines) == 3

    def test_exceptional_window(self):
        code, out, _ = run_cli(["prism", "verify", "--from", "-1", "--to", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "candidate exceptional: -1, 1"
        assert any("degenerate" in line for line in lines)
        assert sum("candidate-exceptional" in line for line in lines) == 2


class TestJsonRoundTrips:
    def test_normalize_reparses_as_symbol(self):
        code, out, _ = run_cli(["seifert", "normalize", "@m1_oo", "--json"])
        assert code == 0
        assert symbol_from_json(json.loads(out)).base_class == "Oo"

    def test_base_reparses_as_orbifold(self):
        code, out, _ = run_cli(["seifert", "base", "@m1_on", "--json"])
        assert code == 0
        assert json.loads(out) == Orbifold2D(False, 1, 0, (2,)).to_json()

    def test_ln_reparses_as_links(self):
        code, out, _ = run_cli(["montesinos", "ln", "-1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert link_from_json(payload["spherical"]).genus == 0
        assert link_from_json(payload["crosscap"]).genus == 1

    def test_ttk_reparses_as_word(self):
        code, out, _ = run_cli(["braid", "ttk", "5", "6", "2", "1", "--json"])
        assert code == 0
        assert len(word_from_json(json.loads(out)).letters) == 26

    @given(symbols_st())
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_normalize_round_trip(self, s):
        code, out, _ = run_cli(
            ["seifert", "normalize", json.dumps(s.to_json()), "--json"]
        )
        assert code == 0
        assert symbol_from_json(json.loads(out)) == normalize(s)


def _collect_json_tokens(value) -> list[str]:
    tokens: list[str] = []

    def walk(v):
        if isinstance(v, bool):
            return
        if isinstance(v, (int, float)):
            tokens.append(str(v))
        elif isinstance(v, str):
            tokens.extend(NUM_RE.findall(v))
        elif isinstance(v, list):
            for item in v:
                walk(item)
        elif isinstance(v, dict):
            for item in v.values():
                walk(item)

    walk(value)
    return tokens


def _random_primitive_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
            return p, q


def _random_invocation(rng: random.Random) -> list[str]:
    kind = rng.randrange(4)
    if kind == 0:
        a, b = _random_primitive_pair(rng), _random_primitive_pair(rng)
        return ["slopes", "delta", f"{a[0]},{a[1]}", f"{b[0]},{b[1]}"]
    if kind == 1:
        orientable = rng.choice([True, False])
        genus = rng.randint(1 if not orientable else 0, 3)
        cones = [rng.randint(2, 9) for _ in range(rng.randint(0, 3))]
        argv = [
            "orbifold", "chi",
            "--orientable", str(orientable).lower(),
            "--genus", str(genus),
            "--boundary", str(rng.randint(0, 2)),
        ]
        if cones:
            argv += ["--cones", ",".join(map(str, cones))]
        return argv
    if kind == 2:
        fibers = []
        for _ in range(rng.randint(1, 4)):
            while True:
                beta, alpha = rng.randint(-9, 9), rng.randint(1, 9)
                if math.gcd(beta, alpha) == 1:
                    fibers.append([beta, alpha])
                    break
        symbol = {"class": "Oo", "genus": rng.randint(0, 2), "fibers": fibers}
        return ["seifert", "euler", json.dumps(symbol)]
    strands = rng.randint(2, 6)
    letters = [
        rng.choice([1, -1]) * rng.randint(1, strands - 1)
        for _ in range(rng.randint(0, 8))
    ]
    word = {"strands": strands, "letters": letters}
    return ["braid", "components", json.dumps(word)]


class TestFormatAgreement:
    def test_json_and_table_agree_numerically_on_random_invocations(self):
        rng = random.Random(20260816)
        for _ in range(50):
            argv = _random_invocation(rng)
            code_json, out_json, err_json = run_cli(argv + ["--json"])
            code_table, out_table, err_table = run_cli(argv)
            assert code_json == 0, (argv, err_json)
            assert code_table == 0, (argv, err_table)
            json_tokens = sorted(_collect_json_tokens(json.loads(out_json)))
            table_tokens = sorted(NUM_RE.findall(out_table))
            assert json_tokens == table_tokens, argv


SYMBOL = {"class": "Oo", "genus": 0, "fibers": [[1, 2], [-1, 2], [-2, 3]]}
CLI_JSON_INPUTS = [
    (["seifert", "normalize"], SYMBOL, []),
    (["seifert", "euler"], SYMBOL, []),
    (["seifert", "h1"], {"class": "Oo", "genus": 1, "fibers": [[1, 2], [3, 1]]}, []),
    (["seifert", "base"], SYMBOL, []),
    (["montesinos", "cover"], {"genus": 0, "tangles": [[1, 2], [1, 3], [-2, 5]]}, []),
    (["braid", "components"], {"strands": 3, "letters": [1, -2, 1]}, []),
    (["braid", "chi"], {"strands": 3, "letters": [1, 2, 1]}, []),
    (["covers", "count"], {"generators": 2, "relators": [[1, 2, -1, -2]]}, ["--degree", "3"]),
]

JSON_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(-3, 3), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2)
)
# a list holding null fits no field, so it breaks list-valued fields too
BROKEN_LISTS = st.lists(st.integers(-3, 3), max_size=2).map(lambda xs: xs + [None])


def _paths(value, prefix=()):
    """Every field and array element below ``value``, as key paths."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _object_text(pairs) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


class TestStrictJsonInput:
    @pytest.mark.parametrize("prefix, valid, suffix", CLI_JSON_INPUTS)
    def test_unbroken_inputs_run(self, prefix, valid, suffix):
        code, _, err = run_cli(prefix + [json.dumps(valid)] + suffix)
        assert code == 0, err

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_broken_field_is_refused(self, data):
        prefix, valid, suffix = data.draw(st.sampled_from(CLI_JSON_INPUTS))
        how = data.draw(st.sampled_from(["swap", "unknown key", "duplicate key"]))
        if how == "swap":
            path = data.draw(st.sampled_from(list(_paths(valid))))
            broken = copy.deepcopy(valid)
            parent = broken
            for key in path[:-1]:
                parent = parent[key]
            old = parent[path[-1]]
            parent[path[-1]] = data.draw(
                BROKEN_LISTS | JSON_VALUES.filter(lambda v: type(v) is not type(old))
            )
            text = json.dumps(broken)
        elif how == "unknown key":
            key = data.draw(st.text(max_size=6).filter(lambda k: k not in valid))
            text = _object_text([*valid.items(), (key, data.draw(JSON_VALUES))])
        else:
            key = data.draw(st.sampled_from(sorted(valid)))
            pairs = [*valid.items(), (key, data.draw(JSON_VALUES | st.just(valid[key])))]
            text = _object_text(data.draw(st.permutations(pairs)))
        code, out, err = run_cli(prefix + [text] + suffix)
        assert (code, out) == (1, ""), (text, err)
        assert err.count("\n") == 1 and err.startswith("error:"), (text, err)

    def test_misspelled_field_is_named(self):
        text = '{"class": "Oo", "genuss": 0, "fibers": [[1, 2]]}'
        code, out, err = run_cli(["seifert", "normalize", text])
        assert (code, out, err) == (1, "", "error: symbol: unknown field 'genuss'\n")

    def test_duplicate_field_is_named(self):
        text = '{"class": "Oo", "genus": 0, "genus": 1, "fibers": [[1, 2]]}'
        code, out, err = run_cli(["seifert", "normalize", text])
        assert (code, out) == (1, "")
        assert err == "error: invalid JSON input: duplicate key 'genus'\n"

    def test_deep_nesting_is_refused(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run_cli(["seifert", "h1", f"@{deep}"])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: invalid JSON input")


def _actions(parser: argparse.ArgumentParser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


class TestStrictIntegers:
    def test_no_argument_uses_builtin_int(self):
        assert [a.dest for a in _actions(build_parser(EVERY_NAME)) if a.type is int] == []

    @pytest.mark.parametrize("token", ["1_0", " 1", "1 ", "+1", "\u0661", "1.0", "0x1", ""])
    def test_flag_refused(self, token):
        code, out, _ = run_cli(
            ["orbifold", "chi", "--orientable", "true", "--genus", token, "--boundary", "1"]
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["montesinos", "ln", "1_0"],
            ["braid", "ttk", "5", "1", "2", "1_0"],
            ["covers", "count", "@trefoil", "--degree", "\u0663"],
            ["orbifold", "chi", "--orientable", "true", "--genus", "0",
             "--boundary", "1", "--cones", "2, 3"],
        ],
    )
    def test_argument_refused(self, argv):
        code, out, _ = run_cli(argv)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["slopes", "delta", "1_0,1", "1,0"],
            ["slopes", "delta", "1, 0", "0,1"],
            ["slopes", "delta", "1,0,1", "1,0"],
            ["slopes", "enumerate", "1,\u0660", "0,1"],
            ["orbifold", "cover", "--genus", "0", "--boundary", "1", "--degree", "2",
             "--branch", "1_1"],
        ],
    )
    def test_pair_and_list_refused(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_negative_integers_still_parse(self):
        assert run_cli(["slopes", "delta", "-2,1", "1,0"])[:2] == (0, "1\n")
        assert run_cli(["montesinos", "ln", "-1", "--json"])[0] == 0


class TestDegreeOneCount:
    def test_many_generators(self):
        for extra in ([], ["--transitive"]):
            argv = ["covers", "count", '{"generators": 2000, "relators": []}', "--degree", "1"]
            assert run_cli(argv + extra) == (0, "1\n", "")


class TestStrictFlags:
    @pytest.mark.parametrize("token", ["yes", "1", " true", "True", "FALSE", "no", "0"])
    def test_only_true_or_false(self, token):
        code, out, err = run_cli(
            ["orbifold", "chi", "--orientable", token, "--genus", "1", "--boundary", "1"]
        )
        assert (code, out) == (2, "")
        assert f"argument --orientable: expected true or false, got {token!r}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["orbifold", "chi", "--orientable", "true", "--genus", "1_0", "--boundary", "1"],
             "argument --genus: expected an integer, got '1_0'"),
            (["orbifold", "chi", "--orientable", "true", "--genus", "0", "--boundary", "1",
              "--cones", "2, 3"],
             "argument --cones: expected an integer, got ' 3'"),
            (["montesinos", "ln", "x"], "argument n: expected an integer, got 'x'"),
        ],
    )
    def test_message_names_the_argument_not_the_parser(self, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert message in err
        assert "invalid" not in err and "_int" not in err and "_parse" not in err


class _NullSink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class _CountingSink(_NullSink):
    writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)


class TestStreamedVerify:
    """``prism verify`` writes the rows as they are made, a few hundred at a
    time, byte for byte what printing the whole report at once gives."""

    # the table as printed when the whole report was built before printing
    TABLE_MINUS_ONE_TO_ONE = (
        "upper bound 2*V0 = 7.327724753418 (degree-2 certificate)\n"
        "    n  status                  horizontal d    twist-knot excluded  max degree\n"
        "   -1  candidate-exceptional   10              yes                  3\n"
        "    0  excluded                degenerate parameter: |4n - 1| = 1 < 3\n"
        "    1  candidate-exceptional   18              yes                  3\n"
        "candidate exceptional: -1, 1\n"
    )
    # (bytes, sha256) of that table on wider ranges
    TABLE_DIGESTS = {
        (2, 50): (
            3594,
            "faf459d08a42a8ef73355ac31657d8b93c078e69a27a9f6311f9e88071a20e4b",
        ),
        (-60, 60): (
            8635,
            "39274a94a60e0ec280b6555a779d8a65f589b8deb89e6081fce34c739e9c5c56",
        ),
    }
    # (bytes, sha256) of the JSON report on wider ranges: unlike the
    # comparison with ``prism_verify``, these show a change to the rows
    JSON_DIGESTS = {
        (2, 50): (
            7685,
            "5dc5490db0ebc3e5365698084a90b793123c26fc6a2f928abc27b22493efd6c7",
        ),
        (-60, 60): (
            16831,
            "912a19f79b006f31e00c3ecfdbd4a39615098990239dd96869c67c8099006e7f",
        ),
        (-1000, 1000): (
            242916,
            "d12d6d33af838d5e85b3fe1a47015cccdef3d9a54e0c13acc01f641a100d8d4c",
        ),
    }

    # with every window [n_from, n_from + 48] that the benchmark's cli-session draws
    @pytest.mark.parametrize(
        "n_from, n_to",
        [(0, 0), (2, 10), (-1, 1), (-60, 60)] + [(n, n + 48) for n in range(-60, 11)],
    )
    def test_json_equals_the_whole_report(self, n_from, n_to):
        code, out, err = run_cli(
            ["prism", "verify", "--from", str(n_from), "--to", str(n_to), "--json"]
        )
        assert (code, err) == (0, "")
        assert out == json.dumps(prism_verify(n_from, n_to), indent=2) + "\n"

    @pytest.mark.parametrize(
        "n_from, n_to",
        [
            # all conditional
            (2, 60),
            (-60, -2),
            # single rows
            (0, 0),
            (1, 1),
            (-1, -1),
            (2, 2),
            (-2, -2),
            # starting or ending on n = -1, 0 or 1
            (-1, 6),
            (-6, -1),
            (0, 6),
            (-6, 0),
            (1, 6),
            (-6, 1),
            (-1, 1),
            # far from the candidates
            (10**6 - 4, 10**6 + 4),
            (-(10**6) - 4, -(10**6) + 4),
        ],
    )
    def test_written_rows_equal_the_whole_dump(self, n_from, n_to):
        out = "".join(audit.prism_json(n_from, n_to))
        assert out == json.dumps(prism_verify(n_from, n_to), indent=2) + "\n"

    def test_empty_range_json(self):
        # the command line refuses an empty range, so call the emitter
        out = "".join(audit.prism_json(1, 0))
        assert out == json.dumps(prism_verify(1, 0), indent=2) + "\n"
        header = json.dumps(prism_header(), indent=2).replace("\n", "\n  ")
        assert out == (
            f'{{\n  "header": {header},\n  "reports": [],\n  "candidate_exceptional": []\n}}\n'
        )

    def test_json_is_small(self):
        """One header per call and one short record per parameter: below 300 000
        bytes at +-1000, where a whole row per parameter wrote 6 197 107."""
        code, out, err = run_cli(["prism", "verify", "--from", "-1000", "--to", "1000", "--json"])
        assert (code, err) == (0, "")
        assert len(out.encode()) < 300_000

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["--json", "table"])
    def test_writes_in_batches(self, fmt):
        """Unbuffered, each write to stdout is a system call: the 2 001 rows at
        +-1000 go out in at most 16 writes."""
        sink = _CountingSink()
        with contextlib.redirect_stdout(sink):
            assert main(["prism", "verify", "--from", "-1000", "--to", "1000", *fmt]) == 0
        assert 0 < sink.writes <= 16

    # every window [n_from, n_from + 48] that the benchmark's cli-session draws
    @pytest.mark.parametrize("n_from", range(-60, 11))
    def test_session_window_table(self, n_from):
        argv = ["prism", "verify", "--from", str(n_from), "--to", str(n_from + 48)]
        assert run_cli(argv) == (0, prism_table_oracle(n_from, n_from + 48), "")

    def test_table_small_ranges(self):
        assert run_cli(["prism", "verify", "--from", "-1", "--to", "1"]) == (
            0, self.TABLE_MINUS_ONE_TO_ONE, ""
        )
        lines = self.TABLE_MINUS_ONE_TO_ONE.splitlines()
        zero = "\n".join(lines[:2] + lines[3:4] + ["candidate exceptional: none", ""])
        assert run_cli(["prism", "verify", "--from", "0", "--to", "0"]) == (0, zero, "")
        empty = list(audit.prism_table(1, 0))
        assert empty == [line + "\n" for line in lines[:2] + ["candidate exceptional: none"]]

    @pytest.mark.parametrize("n_from, n_to", sorted(TABLE_DIGESTS))
    def test_table_wide_ranges(self, n_from, n_to):
        code, out, err = run_cli(["prism", "verify", "--from", str(n_from), "--to", str(n_to)])
        assert (code, err) == (0, "")
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.TABLE_DIGESTS[n_from, n_to]

    @pytest.mark.parametrize("n_from, n_to", sorted(JSON_DIGESTS))
    def test_json_wide_ranges(self, n_from, n_to):
        argv = ["prism", "verify", "--from", str(n_from), "--to", str(n_to), "--json"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.JSON_DIGESTS[n_from, n_to]

    def test_json_leaves_no_cyclic_garbage(self):
        """The stdlib's indenting encoder leaves a reference cycle per call, for
        the cyclic collector; the writer leaves the same garbage at +-50 as
        at +-500, so none per row."""

        def garbage(n):
            list(prism_row_stream(-n, n))  # the records' own first solves
            gc.collect()
            for _ in audit.prism_json(-n, n):
                pass
            return gc.collect()

        assert garbage(50) == garbage(500)

    def test_json_dumps_at_most_once_per_row(self, monkeypatch):
        """``json.dumps`` writes the header, the records that are not
        conditional and the candidate list, as often at +-500 as at +-50."""
        expected = {n: json.dumps(prism_verify(-n, n), indent=2) + "\n" for n in (50, 500)}
        calls = []
        original = json.dumps

        def counting(value, **kwargs):
            calls.append(value)
            return original(value, **kwargs)

        monkeypatch.setattr(audit.json, "dumps", counting)
        counts = []
        for n, text in expected.items():
            calls.clear()
            assert "".join(audit.prism_json(-n, n)) == text
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 101

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["--json", "table"])
    def test_audit_makes_no_row_whole(self, monkeypatch, fmt):
        """Of the 2 000 non-degenerate rows at +-1000, none runs a case
        analysis, since each record is decided by the divisor argument of
        ``orbifolds.disk_case_divisors``, and the header runs no slope
        enumeration."""
        calls = Counter()
        targets = [(orbifolds, "case_analysis_report"), (slopes, "enumerate_constrained_slopes")]
        for layer, name in targets:
            def counting(*args, _original=getattr(layer, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(layer, name, counting)
        argv = ["prism", "verify", "--from", "-1000", "--to", "1000", *fmt]
        with contextlib.redirect_stdout(_NullSink()):
            assert main(argv) == 0
        assert calls["case_analysis_report"] == 0
        assert calls["enumerate_constrained_slopes"] == 0

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["--json", "table"])
    def test_audit_solves_only_where_the_divisors_leave_a_case(self, monkeypatch, fmt):
        """``orbifolds.prism_case_analysis`` runs at mu = 3 and 5 alone, n = 1
        and -1: every other record is conditional by the divisor argument."""
        solved = []
        original = orbifolds.prism_case_analysis

        def counting(n):
            solved.append(n)
            return original(n)

        monkeypatch.setattr(orbifolds, "prism_case_analysis", counting)
        argv = ["prism", "verify", "--from", "-1000", "--to", "1000", *fmt]
        with contextlib.redirect_stdout(_NullSink()):
            assert main(argv) == 0
        assert solved == [-1, 1]

    @staticmethod
    def _peak_bytes(n_from, n_to, fmt):
        argv = ["prism", "verify", "--from", str(n_from), "--to", str(n_to), *fmt]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_NullSink()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Neither format leaves cyclic garbage per row (``json.dumps`` writes a
    # fixed number of values per audit, and a conditional record is one
    # f-string), so each peak is what a few rows hold at once.  Cyclic
    # garbage would be freed in batches, at points that depend on the
    # collector's state when the run starts, and the peaks would vary.
    @pytest.mark.parametrize(
        "fmt, small", [(["--json"], 1000), ([], 100)], ids=["--json-1000", "table-100"]
    )
    def test_memory_does_not_grow_with_the_range(self, fmt, small):
        small_peak = self._peak_bytes(-small, small, fmt)
        large_peak = self._peak_bytes(-10000, 10000, fmt)
        assert large_peak < 2 * small_peak, (small_peak, large_peak)


# one --json invocation per subcommand but ``prism verify``, whose streamed
# rows ``TestStreamedVerify`` compares with ``json.dumps`` itself
ONE_JSON_INVOCATION = {
    ("seifert", "normalize"): ["@m1_oo"],
    ("seifert", "euler"): ["@m1_on"],
    ("seifert", "h1"): ['{"class": "Oo", "genus": 1, "fibers": []}'],
    ("seifert", "base"): ["@m1_oo"],
    ("orbifold", "chi"): ["--orientable", "true", "--genus", "0", "--boundary", "1"],
    ("orbifold", "cover"): ["--genus", "0", "--boundary", "1", "--degree", "2"]
    + ["--branch", "2"] * 5,
    ("orbifold", "solve"): [
        "--fiber-genus", "2", "--fiber-boundary", "1",
        "--orientable", "false", "--genus", "1", "--boundary", "1", "--cones", "2",
    ],
    ("montesinos", "cover"): ['{"genus": 1, "tangles": [[3, 2]]}'],
    ("montesinos", "ln"): ["-3"],
    ("slopes", "delta"): ["-2,1", "1,0"],
    ("slopes", "enumerate"): ["1,0", "0,1"],
    ("braid", "ttk"): ["5", "1", "2", "1"],
    ("braid", "components"): ['{"strands": 3, "letters": []}'],
    ("braid", "chi"): ['{"strands": 5, "letters": [1, 2, 3, 4, 1, 1]}'],
    ("covers", "count"): ["@trefoil", "--degree", "3", "--transitive"],
}


def test_one_json_invocation_per_subcommand():
    whole = build_parser(EVERY_NAME)
    top = next(a for a in whole._actions if isinstance(a, argparse._SubParsersAction))
    subcommands = {
        (command, name)
        for command, parser in top.choices.items()
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }
    assert set(ONE_JSON_INVOCATION) == subcommands - {("prism", "verify")}


@pytest.mark.parametrize("command", sorted(ONE_JSON_INVOCATION), ids=" ".join)
def test_json_output_is_json_dumps_indent_2(command):
    code, out, err = run_cli([*command, *ONE_JSON_INVOCATION[command], "--json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


JSON_ARGV = [[*command, *rest, "--json"] for command, rest in sorted(ONE_JSON_INVOCATION.items())]


@pytest.mark.parametrize(
    "argv", [*JSON_ARGV, ["prism", "verify", "--from", "-2", "--to", "2", "--json"]], ids=shlex.join
)
def test_every_parsed_argument_is_read(argv):
    """A command accepts only options its handler reads: run on a namespace
    that notes each attribute read, the handler reads every destination the
    parser filled but the routing ones."""
    args = build_parser(argv).parse_args(argv)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    with contextlib.redirect_stdout(io.StringIO()):
        args.func(Recording(**vars(args)))
    assert set(vars(args)) - {"command", "subcommand", "func", "parser"} - read == set()


@pytest.mark.parametrize("defect", [IndexError, ZeroDivisionError])
def test_main_lets_a_defect_raise(defect, monkeypatch):
    """``main`` refuses bad input with exit status 1; no command raises
    these on any input, so one that does is a defect and is not turned into
    a one-line refusal."""
    def broken(args):
        raise defect("defect")

    commands = cli._COMMANDS["slopes"][1]
    monkeypatch.setitem(commands, "delta", (broken, *commands["delta"][1:]))
    with pytest.raises(defect):
        main(["slopes", "delta", "1,0", "0,1"])


def _parsed(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """What ``parser`` makes of ``argv``: the namespace but its parser and
    handler, the leftovers and the chosen command's help; or the exit status
    and output of a refusal or ``--help``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, extras = parser.parse_known_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    fields = {k: v for k, v in vars(args).items() if k not in ("parser", "func")}
    return fields, extras, args.parser.format_help()


# every argv that cli_surface.txt pins, one --json invocation per command, and
# group names where argparse does not read them as groups
EQUIVALENCE_ARGV = [
    *(
        shlex.split(header.rsplit(" -> ", 1)[0])
        for header in re.findall(r"^### (.*)$", SURFACE.read_text(), flags=re.M)
    ),
    *JSON_ARGV,
    ["seifert", "h1", "covers"],
    ["braid", "ttk", "3", "2", "2", "1", "prism"],
    ["--json", "covers", "count", "@trefoil", "--degree", "3"],
    ["--", "covers", "count", "@trefoil", "--degree", "3"],
    ["cover", "count"],
    ["prism", "verify", "--from", "-2", "--to", "2", "--json"],
    ["slopes", "enumerate", "1,0", "0,1", "--k2", "3"],
    ["seifert", "h1"],
    ["seifert", "--json"],
    ["seifert", "h1", "@m1_oo", "euler"],
    ["orbifold", "cover", "--genus", "0", "--boundary", "1", "--degree", "2", "chi"],
    ["montesinos", "ln", "cover"],
    ["braid", "components", "ttk"],
    ["covers", "count", "count", "--degree", "3"],
]


@pytest.mark.parametrize("argv", EQUIVALENCE_ARGV, ids=shlex.join)
def test_the_named_groups_parse_as_the_whole_parser(argv, monkeypatch):
    """``build_parser(argv)`` leaves out the command parsers of every group
    that ``argv`` does not name, and the arguments of every command it does not
    name; argparse never enters those groups or commands."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _parsed(build_parser(argv), argv) == _parsed(build_parser(EVERY_NAME), argv)


def test_build_parser_reads_sys_argv_by_default(monkeypatch):
    def built(parser):
        """Each group with command parsers, and the commands that take arguments."""
        top = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {
            group: [name for name, command in action.choices.items() if command.get_default("func")]
            for group, sub in top.choices.items()
            for action in sub._actions
            if isinstance(action, argparse._SubParsersAction) and action.choices
        }

    monkeypatch.setattr(sys, "argv", ["prismvol", "slopes", "delta", "1,0", "0,1"])
    assert built(build_parser()) == {"slopes": ["delta"]}
    assert built(build_parser([])) == {}
    assert built(build_parser(["braid"])) == {"braid": []}
    assert built(build_parser(EVERY_NAME)) == {
        group: list(commands) for group, (_, commands) in cli._COMMANDS.items()
    }
