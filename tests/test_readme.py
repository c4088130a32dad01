"""README.md is the user contract, and these tests run it: every `granulex`
line of its fenced sh blocks goes through `cli.main` and returns 0, its
python quick start runs, and every backticked dotted name of a granulex
module resolves and names no private part, so internals stay in the module
docstrings and a renamed or deleted name fails here."""

import csv
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import granulex
from granulex import cli
from granulex.datasets import bundled_path

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
MODULES = {m.name for m in pkgutil.iter_modules(granulex.__path__)}
COMMANDS = {"train", "predict", "evaluate", "alpha-curve"}
# Flags whose value is a file the command reads.
INPUT_FLAGS = ("--data", "--model", "--config")
# A dotted name ending in one of these names a file (`report.json`), not
# an attribute.
FILE_SUFFIXES = {"json", "csv", "txt"}


def _rings_features() -> str:
    """The bundled rings data without its label column."""
    rows = csv.reader(io.StringIO(bundled_path("rings.csv").read_text(encoding="utf-8")))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:3] for row in rows)
    return out.getvalue()


# The files README's commands read, by the placeholder name they use there.
PLACEHOLDERS = {
    "train.csv": lambda: bundled_path("rings.csv").read_text(encoding="utf-8"),
    "new.csv": _rings_features,
    "exp.json": lambda: bundled_path("toy_config.json").read_text(encoding="utf-8"),
}


def _blocks(language: str) -> list[str]:
    return [body for lang, body in FENCE.findall(TEXT) if lang == language]


def _command_lines() -> list[list[str]]:
    """Every line of the sh blocks that starts with `granulex`, with its
    backslash continuations joined, split as the shell splits it."""
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("granulex"):
                lines.append(shlex.split(line, comments=True))
    return lines


def _option_names(command: str, capsys) -> set[str]:
    """The flags the command's help lists, each by its full name."""
    assert cli.main([command, "--help"]) == 0
    return set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out))


def test_readme_documents_every_command():
    assert {argv[1] for argv in _command_lines()} == COMMANDS


def test_every_documented_command_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, make in PLACEHOLDERS.items():
        Path(name).write_text(make(), encoding="utf-8")
    for argv in _command_lines():
        line = shlex.join(argv)
        # argparse would take an abbreviation; README writes each flag whole.
        flags = {arg.split("=")[0] for arg in argv if arg.startswith("--")}
        unknown = flags - _option_names(argv[1], capsys)
        assert not unknown, f"{line}: {sorted(unknown)} not a flag of {argv[1]}"
        assert not any(Path(arg).is_absolute() for arg in argv), line
        values = dict(zip(argv, argv[1:]))
        for flag in INPUT_FLAGS:
            if flag in values:
                assert Path(values[flag]).exists(), (
                    f"{line}: {values[flag]} is neither in PLACEHOLDERS nor "
                    f"written by an earlier line")
        code = cli.main(argv[1:])
        assert code == 0, f"{line} exited {code}: {capsys.readouterr().err}"
        config = Path(values.get("--config", ""))
        if argv[1] == "evaluate" and config.name == "report.json":
            # the echo round trip: the same three report files
            for file in ("report.json", "per_run.csv", "report.txt"):
                assert (config.parent / file).read_bytes() == (
                    Path(values["--output"]) / file).read_bytes()


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def _dotted_names() -> list[str]:
    """The dotted names in README's inline code whose first part is the
    package or one of its modules, files such as `report.json` left out."""
    prose = FENCE.sub("", TEXT)
    names = []
    for span in re.findall(r"`([^`]+)`", prose):
        for name in re.findall(r"(?<![\w./-])[A-Za-z_]\w*(?:\.\w+)+", span):
            parts = name.split(".")
            if ((parts[0] == "granulex" or parts[0] in MODULES)
                    and not (parts[0] in MODULES and parts[-1] in FILE_SUFFIXES)):
                names.append(name)
    return names


def test_readme_names_some_package_names():
    names = _dotted_names()
    assert "training.predict_batch" in names and "cli.MAX_GRID_POINTS" in names


@pytest.mark.parametrize("name", sorted(set(_dotted_names())))
def test_dotted_name_is_public_and_resolves(name):
    parts = name.split(".")
    assert not any(part.startswith("_") for part in parts), (
        f"{name} is private: say it in its module's docstring, not in README")
    if parts[0] == "granulex" and len(parts) > 1 and parts[1] in MODULES:
        parts = parts[1:]
    obj = (granulex if parts[0] == "granulex"
           else importlib.import_module(f"granulex.{parts[0]}"))
    for part in parts[1:]:
        obj = getattr(obj, part)
