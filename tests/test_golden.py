"""Golden corpus: CLI output and Euclid checker results against frozen files.

Each CLI case below has a frozen output under ``tests/golden/<name>.<ext>``,
and every byte must match.  That includes the solvers' ``iterations``, the
residual sign evaluations a solve took, so the corpus also pins how much
work the seeded search needs.

``tests/golden/euclid-residuals.json`` holds explicit Fraction instances for
every public checker in :mod:`mesolabe.euclid`, valid and perturbed ones,
with the exact residual, truth value, volume triple or ``ValueError`` each
gave.  The instances were drawn from the Fraction generators that preceded
the integer-lattice ones, so they also pin the checkers on Fraction input.

To rewrite the corpus (CLI outputs, and the results of the frozen
instances) from the code on ``PYTHONPATH``:

    python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from mesolabe import euclid
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
    "check-props-s42-n200": ("check-props", "--seed", "42", "--instances", "200"),
    "check-props-s7-n40": ("check-props", "--seed", "7", "--instances", "40"),
    "pyramid-right": ("pyramid", "--edges", "3", "4", "12"),
    "pyramid-oblique": ("pyramid", "--edges", "1", "1", "1", "--cosines", "1/2", "1/2", "1/2"),
    "four-proportionals-planar": ("four-proportionals", "--ac", "2", "--t", "1/2"),
    "four-proportionals-sphere": ("four-proportionals", "--ac", "2", "--t", "1/2", "--sphere"),
    "figure-1": ("figure", "--id", "1"),
    "figure-2": ("figure", "--id", "2"),
    "figure-3": ("figure", "--id", "3"),
    "figure-4": ("figure", "--id", "4"),
    "figure-5": ("figure", "--id", "5"),
    "figure-5-ac3-t1_3": ("figure", "--id", "5", "--ac", "3", "--t", "1/3"),
    "figure-6": ("figure", "--id", "6"),
    "figure-6-a2-b2": ("figure", "--id", "6", "--a", "2", "--b", "2"),
    "figure-7": ("figure", "--id", "7"),
    "figure-7-a2-b2": ("figure", "--id", "7", "--a", "2", "--b", "2"),
}


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


@pytest.mark.parametrize("filename", VARIANTS)
def test_output_matches_golden(filename):
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert _run(VARIANTS[filename]) == expected


RESIDUALS = GOLDEN / "euclid-residuals.json"


def _decode(value):
    """JSON argument -> Fraction, or a point, triangle or face: a tuple of those."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, dict):
        value = value["triangle"]
    return tuple(_decode(v) for v in value)


def _outcome(case):
    """What the checker gives on the case, in the file's encoding."""
    fn = getattr(euclid, case["checker"])
    try:
        result = fn(*(_decode(a) for a in case["args"]))
    except ValueError:
        return {"raises": "ValueError"}
    if isinstance(result, bool):
        return result
    if isinstance(result, tuple):
        return [_exact(v) for v in result]
    return _exact(result)


def _exact(value) -> str:
    assert isinstance(value, (int, Fraction)) and not isinstance(value, bool), repr(value)
    return str(Fraction(value))


def _residual_cases():
    return json.loads(RESIDUALS.read_text(encoding="utf-8"))["cases"]


def test_euclid_residuals_match_golden():
    cases = _residual_cases()
    assert {c["checker"] for c in cases} >= {
        "check_47_1", "check_pappus", "check_12_2", "check_13_2", "check_3_3",
        "check_clavius_31_3", "check_8_6_corollary", "check_31_6", "check_19_7",
        "check_20_7", "check_4_11", "check_7_12",
    }
    mismatches = [(c, got) for c in cases if (got := _outcome(c)) != c["result"]]
    assert not mismatches, mismatches[:3]


def _write_residuals(cases) -> None:
    for case in cases:
        case["result"] = _outcome(case)
    body = ",\n".join("  " + json.dumps(c) for c in cases)
    RESIDUALS.write_text('{\n "cases": [\n' + body + "\n ]\n}\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, argv in VARIANTS.items():
        (GOLDEN / filename).write_text(_run(argv), encoding="utf-8")
    _write_residuals(_residual_cases())
