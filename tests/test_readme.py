"""README's library example runs as written, and its command lines
parse."""

import re
import shlex
from pathlib import Path

import pytest

from cpsfds import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    U, log = namespace["U"], namespace["log"]
    assert U.shape == (3, 200) and log.steps > 0
    assert log.t == pytest.approx(0.01)


def _readme_command_lines():
    """Every cpsfds command line in the README's sh blocks, as the
    arguments after the program name, shell comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    lines = []
    for block in blocks:
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if "cpsfds" in words:
                lines.append(words[words.index("cpsfds") + 1:])
    return lines


def test_readme_command_lines_parse():
    """Each README command parses, and each run line passes the checks
    that main makes before a solve, so that a renamed flag or case shows
    here."""
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == {"run", "list-cases", "verify"}
    parser = cli.build_parser()
    for argv in lines:
        args = parser.parse_args(argv)
        if args.command == "run":
            if args.grid is not None:
                args.grid = cli._parse_grid(args.grid)
            cli._check_run_config(args)
