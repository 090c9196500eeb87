"""Every ``repro.bench`` command the docs show parses with today's CLI.

The command lines in README.md, DESIGN.md, EXPERIMENTS.md, ``docs/*.md``,
``examples/README.md`` and the ``repro.bench.cli`` docstring — in fenced
code blocks and in inline code — go through ``build_parser().parse_args``
without running anything, so a removed subcommand or flag fails here
until the docs stop showing it.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.bench import cli

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        ROOT / "examples" / "README.md",
        *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
INLINE = re.compile(r"`([^`\n]+(?:\n[^`\n]+)*)`")
#: ``python -m repro.bench``, also under ``-m cProfile``, or the console
#: script; group 1 is the argument list.
COMMAND = re.compile(
    r"^(?:python3? (?:-m cProfile (?:-s \w+ )?)?-m repro\.bench|repro-bench)(?:\s+(.*))?$"
)
#: Shell syntax that ends the command's own arguments (a ``<name>``
#: placeholder is an argument).
STOP = re.compile(r"^(?:\||&&|;|\d?>.*)$")


def commands(text: str) -> list[str]:
    """The ``repro.bench`` command lines in ``text``'s code."""
    blocks = FENCE.findall(text)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    lines += [span.replace("\n", " ") for span in INLINE.findall(FENCE.sub("", text))]
    found = []
    for line in lines:
        line = re.sub(r"^(?:\$ )?(?:[A-Z_][A-Z0-9_]*=\S+\s+)*", "", line.strip())
        if COMMAND.match(line):
            found.append(line)
    return found


def argv(line: str) -> list[str]:
    """The argument list ``line`` hands to the CLI."""
    rest = COMMAND.match(line).group(1) or ""
    words = shlex.split(rest, comments=True)
    for index, word in enumerate(words):
        if STOP.match(word):
            return words[:index]
    return words


SOURCES = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
           for path in DOCS}
SOURCES["src/repro/bench/cli.py"] = "```\n" + cli.__doc__ + "```\n"
CASES = [(name, line) for name, text in SOURCES.items() for line in commands(text)]


def test_the_docs_show_commands():
    assert len(CASES) > 20
    assert {name for name, _ in CASES} >= {"README.md", "src/repro/bench/cli.py"}


@pytest.mark.parametrize("source, line", CASES)
def test_documented_command_parses(source, line):
    args = argv(line)
    if not args:
        return  # the bare command prints the listing; main() handles it
    try:
        cli.build_parser().parse_args(args)
    except SystemExit as exc:
        pytest.fail(f"{source}: `{line}` does not parse (exit {exc.code})")

