"""The README's Python examples run as written, and its lists of settings,
CSV columns and command options are the code's, so none can drift from the
API."""

import re
from dataclasses import fields
from pathlib import Path

from qnbench.bench import RUNS_HEADER, TRACE_HEADER
from qnbench.cli import main, parse_noise
from qnbench.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    # The quick start prints status, iterations and call counts of a run
    # that converges.
    assert capsys.readouterr().out.startswith("converged ")


def test_readme_lists_the_solver_settings_and_csv_headers():
    text = README.read_text()
    (settings,) = re.findall(r"`SolverConfig` holds the per-run settings \(([^)]*)\)", text)
    assert re.findall(r"`(\w+)`", settings) == [f.name for f in fields(SolverConfig)]
    assert re.findall(r"`(problem,[\w,]*)`", text) == [",".join(RUNS_HEADER)]
    assert re.findall(r"`(k,[\w,]*)`", text) == [",".join(TRACE_HEADER)]


def test_readme_names_exactly_the_command_options():
    # A removed option cannot linger in the docs, nor a new one go unnamed.
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text()))
    options = {opt for command in ("run", "profile") for param in main.commands[command].params for opt in param.opts}
    assert named == options


def test_readme_noise_specs_parse():
    # A refused spec, such as a removed cast width, cannot linger in the docs.
    # A spec with a placeholder in capitals (uniform:LEVEL) is a template.
    text = README.read_text()
    specs = [s for s in re.findall(r"--noise\s+([^\s`]+)", text) if s == s.lower()]
    casts = re.findall(r"\bcast:\d+", text)
    assert specs and casts
    for spec in specs + casts:
        parse_noise(spec)
