"""The README's Python examples and command-line flags match the package as it stands."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qdilate.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
FLAG = r"--[a-z][a-z-]*[a-z]"


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def subcommand_flags() -> dict:
    """Each subcommand of ``build_parser()`` and its long options, without --help."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in p._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_flags_are_the_parsers_flags():
    # Flags in the "## Command line" section, and in inline code spans that
    # start with a subcommand, against the parser, in both directions; each
    # span's flags must belong to its own subcommand.
    flags = subcommand_flags()
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    spans = [s for s in re.findall(r"`([^`\n]+)`", text) if s.split()[0] in flags]
    for span in spans:
        assert set(re.findall(FLAG, span)) <= flags[span.split()[0]], span
    documented = set(re.findall(FLAG, " ".join([section, *spans])))
    assert documented == set().union(*flags.values())
