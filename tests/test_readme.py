"""The README's CLI walkthrough runs as written, and its flag lists match the parser.

The walkthrough is the fenced block under "## CLI walkthrough": every `renov ...`
line of it (with `\\` continuations joined) runs through `cli.main` with only the
substitutions of RUN_AS.  The list under "## Flags per command" names, for each
leaf command, exactly the flags its parser takes.
"""

import json
import re
import shlex
from pathlib import Path

from renov.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# the only differences between the walkthrough and what this test runs: (README text, run as)
RUN_AS = [
    ("/tmp/", "{tmp}/"),  # every path lands in the test's directory
    ("--res 64x64", "--res 48x48"),
    (" probe train ", " probe train --steps 5 "),  # the commands that train
    (" robustness ", " robustness --steps 5 "),
]


def section(title: str) -> str:
    """The README text under `## title`, up to the next `## ` heading."""
    body = README.read_text().split(f"\n## {title}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def walkthrough() -> list[str]:
    """The `renov ...` command lines of the first fenced block under "## CLI walkthrough"."""
    block = section("CLI walkthrough").split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("renov ")]


def flag_lists() -> dict[str, set[str]]:
    """The flags "## Flags per command" lists, by leaf command."""
    items = re.findall(r"^- `([a-z -]+)`(.*(?:\n  .*)*)", section("Flags per command"),
                       flags=re.MULTILINE)
    return {leaf: set(re.findall(r"`(--[a-z][a-z-]*)`", rest)) for leaf, rest in items}


def test_the_walkthrough_runs(tmp_path, capsys, monkeypatch):
    """Each command exits 0; the parser takes no prefix of a flag, so each is written in full."""
    monkeypatch.chdir(tmp_path)
    commands = walkthrough()
    assert len(commands) == 12
    for text, run_as in RUN_AS:  # each substitution applies, so none outlives its README text
        assert any(text in f"{command} " for command in commands), text
    for command in commands:
        for text, run_as in RUN_AS:
            command = f"{command} ".replace(text, run_as.format(tmp=tmp_path)).strip()
        argv = shlex.split(command)[1:]
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, (command, out.err)
        [line] = out.out.splitlines()
        assert isinstance(json.loads(line), dict), command


def test_each_leaf_lists_exactly_its_flags(cli_leaves):
    listed = flag_lists()
    assert set(listed) == set(cli_leaves)
    for leaf, parser in cli_leaves.items():
        takes = {s for s in parser._option_string_actions if s.startswith("--") and s != "--help"}
        assert listed[leaf] == takes, (leaf, sorted(listed[leaf] ^ takes))
