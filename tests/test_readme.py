"""The README's Python examples run as written, and its lists of settings,
CSV columns and command options are the code's, so none can drift from the
API."""

import re
from dataclasses import fields
from pathlib import Path

from qnbench.bench import RUNS_HEADER, TRACE_HEADER
from qnbench.cli import main, parse_noise
from qnbench.noise import KINDS
from qnbench.solver import VARIANTS, SolverConfig, Variant

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


def test_readme_variant_table_is_the_variants_table():
    # A column per Variant field, named as the field with its underscore a
    # space and mu written μ, and a row per VARIANTS name, in table order.
    (table,) = re.findall(r"^(\| variant \|.*\|\n\|[-|]+\|\n(?:\|.*\|\n)+)", README.read_text(), re.M)
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    names = [f.name for f in fields(Variant)]
    assert header == ["variant", *[re.sub("^mu_", "μ_", name).replace("_", " ") for name in names]]
    shown = {True: "yes", False: "no"}
    expected = [[f"`{variant}`", *[shown.get(getattr(row, name), getattr(row, name)) for name in names]]
                for variant, row in VARIANTS.items()]
    assert rows == expected


def test_readme_lists_the_settings_each_noise_kind_reads():
    (sentence,) = re.findall(r"lists the settings each kind reads besides `kind`:\s(.*?)\.\s", README.read_text(), re.S)
    listed = [re.findall(r"`(\w+)`", part) for part in sentence.split(";")]
    assert [(kind, tuple(read)) for kind, *read in listed] == list(KINDS.items())


def test_readme_names_exactly_the_command_options():
    # A removed option cannot linger in the docs, nor a new one go unnamed.
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text()))
    options = {opt for command in ("run", "profile") for param in main.commands[command].params for opt in param.opts}
    assert named == options


def test_readme_solver_names_are_variant_rows():
    # A renamed or removed solver cannot linger in a --solver list or as a
    # table row, and each regime table shows the rows of one --solver list.
    text = README.read_text()
    lists = [names.split(",") for names in re.findall(r"--solver\s+([\w,]+)", text)]
    tables = re.findall(r"^\| ([^|`]*?) \|.*\n\|[-|]+\|\n((?:\| `.*\n)+)", text, re.M)
    rows = {title: re.findall(r"^\| `([^`]*)` \|", body, re.M) for title, body in tables}
    assert lists and len(rows) > 1
    for name in [name for names in lists for name in names] + [row for labels in rows.values() for row in labels]:
        assert name in VARIANTS
    assert all(labels in lists for title, labels in rows.items() if title != "variant")


def test_readme_noise_specs_parse():
    # A refused spec, such as a removed cast width, cannot linger in the docs.
    # A spec with a placeholder in capitals (uniform:LEVEL) is a template.
    text = README.read_text()
    specs = [s for s in re.findall(r"--noise\s+([^\s`]+)", text) if s == s.lower()]
    casts = re.findall(r"\bcast:\d+", text)
    assert specs and casts
    for spec in specs + casts:
        parse_noise(spec)
