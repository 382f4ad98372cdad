"""The README's command lines and Python example stay in step with the code."""

import re
import shlex
from pathlib import Path

from conjalg import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    """The first ```language block after the given heading line."""
    section = README[README.index(heading):]
    return re.search(r"```%s\n(.*?)```" % language, section, re.S).group(1)


def test_every_documented_command_parses():
    lines = [line.split("#")[0].strip() for line in fenced_block("## Command line", "sh").splitlines()]
    commands = [shlex.split(line) for line in lines if line]
    assert commands and all(words[0] == "conj" for words in commands)
    parser = cli.build_parser()
    for words in commands:
        args = parser.parse_args(words[1:])  # parses only: SystemExit on an unknown flag
        assert callable(args.fn)


def test_python_example_runs():
    namespace = {}
    exec(fenced_block("Example:", "python"), namespace)
    assert namespace["w"].bijection == (1, 0, 2)
