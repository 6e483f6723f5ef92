"""Conventions the package source keeps."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spcontrol"


def test_package_lines_fit_in_110_columns():
    long = [f"{path.name}:{k}" for path in sorted(SRC.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 110]
    assert not long, f"lines over 110 characters: {long}"
