"""Golden CLI corpus: current text, JSON and SVG output against frozen files.

Each case below has a frozen output under ``tests/golden/<name>.<ext>``.
The solver's ``iterations`` count is masked on both sides, because it
counts the solver's work rather than a certified value; every other byte
must match.  To rewrite the corpus from the code on ``PYTHONPATH``:

    python tests/test_golden.py
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mesolabe.cli import main

GOLDEN = Path(__file__).parent / "golden"

MEANS = ("means", "--a", "1.75", "--b", "9.5", "--method", "both")
CHORDS = ("solve-chords", "--diameter", "3.7")
CUBE = ("duplicate-cube", "--edge", "1.5")

#: name -> argv; text and JSON are both frozen unless the name is a figure.
CASES = {
    "means-both-d20": MEANS + ("--digits", "20"),
    "means-both-d300": MEANS + ("--digits", "300"),
    "solve-chords-d20": CHORDS + ("--digits", "20"),
    "solve-chords-d300": CHORDS + ("--digits", "300"),
    "duplicate-cube-d20": CUBE + ("--digits", "20"),
    "duplicate-cube-d300": CUBE + ("--digits", "300"),
    "verify-table": ("verify-table",),
    "figure-6": ("figure", "--id", "6"),
    "figure-7": ("figure", "--id", "7"),
}

_ITERATIONS = re.compile(r'(iterations"?:\s*)\d+')


def _variants():
    for name, argv in CASES.items():
        if argv[0] == "figure":
            yield f"{name}.svg", argv
        else:
            yield f"{name}.txt", argv
            yield f"{name}.json", argv + ("--json",)


VARIANTS = dict(_variants())


def _run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def _mask(text: str) -> str:
    return _ITERATIONS.sub(r"\1#", text)


@pytest.mark.parametrize("filename", VARIANTS)
def test_output_matches_golden(filename):
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert _mask(_run(VARIANTS[filename])) == _mask(expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, argv in VARIANTS.items():
        (GOLDEN / filename).write_text(_run(argv), encoding="utf-8")
