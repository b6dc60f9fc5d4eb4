"""README.md stays in step with the code: its quickstart runs, and it names every report field
and every CLI flag, so a new field or flag fails here until it is documented."""

import argparse
import dataclasses
import re
from pathlib import Path

from vdfourier.cli import build_parser
from vdfourier.solvers import SolverReport

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_library_quickstart_runs():
    # its one ```python block runs as written, so a change to a documented signature fails
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1, f"README.md has {len(blocks)} python blocks, expected 1"
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_readme_names_every_solver_report_field():
    missing = [f.name for f in dataclasses.fields(SolverReport) if f"`{f.name}`" not in README]
    assert not missing, f"README.md does not name the SolverReport fields {missing}"


def test_readme_names_every_cli_flag():
    # one direction only: README also names pip's flags
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sp in commands.choices.values() for a in sp._actions
             if not isinstance(a, argparse._HelpAction) for flag in a.option_strings}
    missing = sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", README))
    assert not missing, f"README.md does not name the CLI flags {missing}"
