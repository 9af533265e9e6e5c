"""The README's command examples give the output they show.

In a ``sh`` block of README.md, a ``prismvol ...`` line (joined over ``\\``
continuations, its trailing ``# comment`` dropped) that is followed at once by
``# `` lines shows its output: each such line is one line of stdout, and a
``# ...`` line stands for any number of lines left out.  Each example runs
through ``cli.main`` in process.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from prismvol.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples(text: str) -> list[tuple[list[str], list[str]]]:
    """Each shown example as (argv after ``prismvol``, output lines)."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        lines = iter(block.splitlines())
        output = None  # the lines of the example being read, if any
        for line in lines:
            if output is not None and line.startswith("# "):
                output.append(line[2:])
                continue
            output = None
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["prismvol"]:
                output = []
                examples.append((argv[1:], output))
    return [(argv, output) for argv, output in examples if output]


EXAMPLES = _examples(README.read_text())


def test_the_readme_shows_the_route():
    """The paper's route and the headline examples are all checked."""
    commands = [" ".join(argv[:2]) for argv, _ in EXAMPLES]
    assert commands.count("orbifold solve") == 6
    assert commands.count("prism verify") == 2
    shown = {"seifert normalize", "seifert h1", "orbifold chi", "orbifold cover", "slopes delta",
             "braid ttk", "covers count"}
    assert shown <= set(commands)


@pytest.mark.parametrize("argv, output", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(argv, output):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    if "..." not in output:
        assert out.getvalue() == "".join(line + "\n" for line in output)
    else:
        gap = r"(?:.*\n)*?"
        pattern = "".join(gap if line == "..." else re.escape(line) + "\n" for line in output)
        assert re.fullmatch(pattern, out.getvalue()), out.getvalue()
