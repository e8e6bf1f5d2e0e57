"""Output checks for every benchmark op, written without importing ``mesolabe``.

Each check takes the op and the text the CLI printed and returns ``None``
when the output is right, or a short reason when it is not.  Values are
decided in exact integer or ``Fraction`` arithmetic straight from the
printed decimal strings, so a check never trusts the code it is checking.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction

from workloads import DEFAULT_GUARD, Op


def _decimal(text: str) -> tuple[int, int]:
    """A plain decimal string as (unscaled integer, fractional digits)."""
    neg = text.startswith("-")
    whole, _, frac = text.lstrip("+-").partition(".")
    n = int(whole + frac)
    return (-n if neg else n), len(frac)


def _frac(text: str) -> Fraction:
    """Exact value of a plain decimal or a ``p/q`` string."""
    if "/" in text:
        return Fraction(text)
    n, scale = _decimal(text)
    return Fraction(n, 10**scale)


def _arg(op: Op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def _cube_within_ulp(value: str, num: int, den: int) -> bool:
    """|value - (num/den)^(1/3)| <= one ulp of ``value``, by integer comparison.

    Cubing is increasing, so the claim is (M-1)^3 <= (num/den) 10^(3n) <= (M+1)^3
    for value = M / 10^n; both sides are multiplied out by ``den``.
    """
    m, n = _decimal(value)
    target = num * 10 ** (3 * n)
    return (m - 1) ** 3 * den <= target <= (m + 1) ** 3 * den


def _square_within_ulp(value: str, target: Fraction) -> bool:
    x = _frac(value)
    ulp = Fraction(1, 10 ** _decimal(value)[1])
    return max(x - ulp, 0) ** 2 <= target <= (x + ulp) ** 2


def _near(value: str, exact: Fraction) -> bool:
    return abs(_frac(value) - exact) <= Fraction(1, 10 ** _decimal(value)[1])


def _check_means(op: Op, out: dict) -> str | None:
    a, sa = _decimal(_arg(op, "--a"))
    b, sb = _decimal(_arg(op, "--b"))
    if out.get("parameters_agree") is not True:
        return "instrument and compass parameters disagree"
    for method in ("instrument", "compass"):
        res = out[method]
        if _decimal(res["m1"])[1] != op.digits or _decimal(res["m2"])[1] != op.digits:
            return f"{method}: means not printed at {op.digits} digits"
        # m1^3 = a^2 b and m2^3 = a b^2
        if not _cube_within_ulp(res["m1"], a * a * b, 10 ** (2 * sa + sb)):
            return f"{method}: m1 is not within one ulp of a^(2/3) b^(1/3)"
        if not _cube_within_ulp(res["m2"], a * b * b, 10 ** (sa + 2 * sb)):
            return f"{method}: m2 is not within one ulp of a^(1/3) b^(2/3)"
    return None


def _chord_bracketed(x: Fraction, ulp: Fraction, d: Fraction) -> bool:
    """The root of the decreasing (d - x)^3 - d^2 x lies strictly within one ulp of x."""

    def f(y: Fraction) -> Fraction:
        return (d - y) ** 3 - d * d * y

    return f(x - ulp) > 0 > f(x + ulp)


def _check_solve_chords(op: Op, out: dict) -> str | None:
    d = _frac(_arg(op, "--diameter"))
    chords = out["chords"]
    if out.get("verified") is not True:
        return "continued proportion not verified"
    if out.get("work_digits") != op.digits + DEFAULT_GUARD:
        return "unexpected work digits"
    ab = chords["AB"]["value"]
    if _decimal(ab)[1] != op.digits:
        return f"AB not printed at {op.digits} digits"
    if not _chord_bracketed(_frac(ab), Fraction(1, 10**op.digits), d):
        return "AB does not bracket the root of (d - x)^3 - d^2 x"
    full = chords["AB"]["full"]
    if not _chord_bracketed(_frac(full), Fraction(1, 10 ** _decimal(full)[1]), d):
        return "full-precision AB does not bracket the root"
    if _frac(chords["AB"]["value"]) + _frac(chords["BD"]["value"]) != _frac(chords["AD"]["value"]):
        return "AB + BD != AD"
    return None


def _check_duplicate_cube(op: Op, out: dict) -> str | None:
    e, se = _decimal(_arg(op, "--edge"))
    if not _cube_within_ulp(out["doubled_edge"], 2 * e**3, 10 ** (3 * se)):
        return "doubled edge is not within one ulp of the cube root of 2 e^3"
    return None


def _check_verify_table(op: Op, out: dict) -> str | None:
    if out.get("verified") is not True:
        return "table not verified"
    misprints = {p["label"] for p in out["products"] if p["misprint"]}
    if misprints != {"DAB", "CBD", "BD^2"}:
        return f"misprint set {sorted(misprints)}"
    return None


def _check_pyramid(op: Op, out: dict) -> str | None:
    i = op.argv.index("--edges")
    a, b, c = (_frac(e) for e in op.argv[i + 1: i + 4])
    expected = a * a + b * b + c * c
    if "--cosines" in op.argv:
        j = op.argv.index("--cosines")
        p, q, r = (Fraction(x) for x in op.argv[j + 1: j + 4])
        expected += 2 * (a * b * p + b * c * q + c * a * r)
        if Fraction(out["diagonal_sq"]) != expected:
            return "oblique squared diagonal is wrong"
    else:
        if _frac(out["diagonal_sq"]) != expected:
            return "squared diagonal is not the sum of the squared edges"
        if _frac(out["circumsphere_diameter_sq"]) != expected:
            return "circumsphere diameter squared differs from the diagonal"
        if out.get("prism_check") is not True:
            return "prism check failed"
    if not _square_within_ulp(out["diagonal"], expected):
        return "diagonal is not within one ulp of the square root"
    return None


def _check_four_proportionals(op: Op, out: dict) -> str | None:
    ac = _frac(_arg(op, "--ac"))
    t = Fraction(_arg(op, "--t"))
    k = (1 - t * t) / (1 + t * t)
    if out.get("verified") is not True:
        return "continued proportion not verified"
    if out["construction"] != ("sphere" if "--sphere" in op.argv else "planar"):
        return "wrong construction"
    exact = {"AF": ac * k**3, "AE": ac * k**2, "AD": ac * k, "AC": ac}
    for label, value in exact.items():
        if not _near(out["quad"][label], value):
            return f"{label} is not within one ulp of AC k^n"
    return None


def _check_props(op: Op, out: dict) -> str | None:
    n = int(_arg(op, "--instances"))
    if out.get("all_hold") is not True:
        return "not all propositions hold"
    if out["instances"] != n or out["seed"] != int(_arg(op, "--seed")) or not out["propositions"]:
        return "suite echoes the wrong request"
    for row in out["propositions"]:
        if row["valid_total"] != n or row["perturbed_total"] != max(1, n // 10):
            return f"{row['name']}: totals differ from the requested counts"
        if row["valid_ok"] != row["valid_total"] or row["perturbed_detected"] != row["perturbed_total"]:
            return f"{row['name']}: not every instance was decided correctly"
    return None


_JSON_CHECKS = {
    "means": _check_means,
    "solve-chords": _check_solve_chords,
    "duplicate-cube": _check_duplicate_cube,
    "verify-table": _check_verify_table,
    "pyramid": _check_pyramid,
    "four-proportionals": _check_four_proportionals,
    "check-props": _check_props,
}


def checker_instances(text: str) -> int:
    """Checker instances, valid plus perturbed, that a ``check-props`` output reports."""
    rows = json.loads(text)["propositions"]
    return sum(r["valid_total"] + r["perturbed_total"] for r in rows)


class OutputChecker:
    """Checks op outputs; remembers figure digests so repeats must match bytes."""

    def __init__(self):
        self._figures: dict[tuple[str, ...], str] = {}

    def check(self, op: Op, rc: int, text: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if op.kind == "figure":
            return self._check_figure(op, text)
        try:
            return _JSON_CHECKS[op.kind](op, json.loads(text))
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            return f"malformed output: {exc!r}"

    def _check_figure(self, op: Op, text: str) -> str | None:
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            return f"figure is not well-formed XML: {exc}"
        if not root.tag.endswith("svg"):
            return f"figure root is <{root.tag}>, not <svg>"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self._figures.setdefault(op.argv, digest) != digest:
            return "figure bytes differ from an earlier run of the same argv"
        return None
