import argparse
import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mesolabe import cli, delian, euclid, proportio
from mesolabe.cli import (
    COMMON_ARGUMENTS,
    INT_PART_ROOM,
    SUBCOMMANDS,
    _residual_bound,
    main,
    max_work_digits,
)
from mesolabe.scalar import DecimalScalar, PrecisionContext, _decimal_digits, format_grouped

from oracles import chord_lengths, in_continued_proportion, proportion_defect, rounded, rounded_cbrt

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
#: The 10-digit chord table for diameter 2 as printed in 1682.
PRINTED_CHORDS = {"AD": "2 00000 00000", "AB": "63534 43923", "BC": "93114 24637",
                  "BD": "1 36465 56077"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _run_quiet(*argv):
    """Exit code and stdout of one in-process call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _decimal(n: int, places: int) -> str:
    """n / 10^places as a plain decimal literal."""
    whole, frac = divmod(n, 10**places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


@st.composite
def _positive_decimals(draw) -> str:
    """A positive plain decimal of 1 to 15 significant digits from 10^-45 to 10^45."""
    size = draw(st.integers(min_value=1, max_value=15))
    n = draw(st.integers(min_value=10 ** (size - 1), max_value=10**size - 1))
    exp = draw(st.integers(min_value=-45, max_value=45 - size))
    return str(n * 10**exp) if exp >= 0 else _decimal(n, -exp)


def _precision(digits: int, guard: int) -> list[str]:
    return ["--digits", str(digits), "--guard", str(guard), "--json"]


class TestSolveChords:
    def test_text_layout_matches_the_print(self, capsys):
        code, out = run(capsys, "solve-chords", "--diameter", "2", "--digits", "10")
        assert code == 0
        assert "63534 43923" in out
        assert "93114 24637" in out
        assert "1 36465 56077" in out
        assert "2 00000 00000" in out
        assert "verified: ok" in out

    def test_json_carries_same_digits(self, capsys):
        code, out = run(capsys, "solve-chords", "--diameter", "2", "--digits", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chords"]["AB"]["grouped"] == "63534 43923"
        assert payload["chords"]["AB"]["value"] == "0.6353443923"
        assert payload["verified"] is True

    def test_bad_diameter_is_usage_error(self, capsys):
        assert main(["solve-chords", "--diameter", "-2"]) == 2

    def test_one_conversion_per_printed_number(self, capsys):
        # the diameter and the four full values: each table value is read off its full one
        with mock.patch.object(DecimalScalar, "__str__", autospec=True,
                               side_effect=DecimalScalar.__str__) as converted:
            code, _ = run(capsys, "solve-chords", "--diameter", "2", "--digits", "300", "--json")
        assert code == 0 and converted.call_count == 5

    @pytest.mark.parametrize("diameter, guard, grouped, value", [
        ("48275.8500000000001", "9", "048275 9", "48275.9"),
        ("0.250000000000001", "10", "0 3", "0.3"),
    ])
    def test_ad_is_the_diameter_rounded_once(self, capsys, diameter, guard, grouped, value):
        # rounded at the work digits, each diameter lands on a midpoint at one digit
        argv = ("solve-chords", "--diameter", diameter, "--digits", "1", "--guard", guard)
        code, out = run(capsys, *argv)
        assert code == 0 and f"  AD   {grouped}\n" in out
        chords = json.loads(run(capsys, *argv, "--json")[1])["chords"]
        assert chords["AD"]["value"] == value and chords["AD"]["grouped"] == grouped
        assert Fraction(chords["BD"]["value"]) == Fraction(value) - Fraction(chords["AB"]["value"])

    @pytest.mark.parametrize("diameter", [
        "30000000000", "0.00000000000000000000000000000000001", "70000"])
    def test_verdict_holds_at_any_scale(self, capsys, diameter):
        code, out = run(capsys, "solve-chords", "--diameter", diameter)
        assert code == 0
        assert out.endswith("continued proportion verified: ok\n")

    @settings(max_examples=60, deadline=None)
    @given(_positive_decimals(), st.integers(min_value=1, max_value=40),
           st.integers(min_value=5, max_value=14))
    @example("0.000004", 1, 5)  # AD = 4 work units
    @example("0.0000004", 1, 5)  # every term rounds to 0
    def test_printed_chords_keep_the_verdict(self, diameter, digits, guard):
        # the verdict is printed, not checked: the full chords keep every
        # defect within 32 M 10^-w, which tests/oracles.py proves
        code, out = _run_quiet("solve-chords", "--diameter", diameter, *_precision(digits, guard))
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        terms = [Fraction(payload["chords"][k]["full"]) for k in ("AB", "BC", "BD", "AD")]
        assert proportion_defect(terms) <= 32 * max(terms) / 10 ** (digits + guard)
        assert in_continued_proportion(terms, digits)


class TestVerifyTable:
    def test_misprints_annotated(self, capsys):
        code, out = run(capsys, "verify-table")
        assert code == 0
        assert out.count("MISPRINT") == 3
        assert "printed as 1 17068 87846 00000 00000" in out
        assert "table verification: ok" in out

    def test_json_carries_both_channels(self, capsys):
        code, out = run(capsys, "verify-table", "--json")
        payload = json.loads(out)
        by_label = {row["label"]: row for row in payload["products"]}
        assert by_label["BD^2"]["as_printed"] == "1 86288 49276 27056 29929"
        assert by_label["BD^2"]["as_computed"] == "1 86228 49276 27056 29929"
        assert by_label["BD^2"]["misprint"] is True
        assert by_label["ADBC"]["misprint"] is False


    def test_chords_match_the_print(self, capsys):
        code, out = run(capsys, "verify-table", "--json")
        assert code == 0
        chords = json.loads(out)["chords"]
        assert {row["label"]: row["as_printed"] for row in chords} == PRINTED_CHORDS
        assert all(row["as_computed"] == row["as_printed"] for row in chords)

    def test_a_solver_off_the_print_fails_the_verdict(self, capsys, monkeypatch):
        # the verdict checks the solver against the print: chords solved for
        # diameter 3 match no printed row, so no product is flagged either
        solve = proportio.solve_continued_chords
        monkeypatch.setattr(proportio, "solve_continued_chords", lambda d, *ctx: solve(3, *ctx))
        code, out = run(capsys, "verify-table")
        assert code == 1
        assert "table verification: FAILED" in out
        assert "MISPRINT" not in out
        code, out = run(capsys, "verify-table", "--json")
        payload = json.loads(out)
        assert code == 1 and payload["verified"] is False
        assert not any(row["misprint"] for row in payload["products"])

    def test_every_precision_prints_the_golden_table(self):
        # the tables print fixed digits, so --digits and --guard change no byte;
        # 10/10 printed BC^2 and ADBC one unit low when the solve took the run's precision
        golden = [(GOLDEN / f"verify-table.{ext}").read_text(encoding="utf-8")
                  for ext in ("txt", "json")]
        for digits in range(1, 31):
            for guard in range(5, 20):
                argv = ("verify-table", "--digits", str(digits), "--guard", str(guard))
                assert [_run_quiet(*argv), _run_quiet(*argv, "--json")] == [
                    (0, text) for text in golden], argv

    @pytest.mark.parametrize("precision", [(), ("--digits", "10", "--guard", "10")])
    def test_contrast_rows_are_the_exact_products_rounded_once(self, capsys, precision):
        ab, bc, bd = chord_lengths(Fraction(2), 60)
        products = {"DAB": 2 * ab, "CBD": bc * bd, "BC^2": bc * bc,
                    "ABD": ab * bd, "BD^2": bd * bd, "ADBC": 2 * bc}
        expected = {label: format_grouped(DecimalScalar.from_fraction(rounded(v, 20), 20))
                    for label, v in products.items()}
        code, out = run(capsys, "verify-table", *precision, "--json")
        rows = json.loads(out)["unrounded_products"]
        assert {row["label"]: row["as_computed"] for row in rows} == expected
        # BC^2 = AB BD and BD^2 = AD BC exactly
        assert expected["BC^2"] == expected["ABD"] == "86702 62878 05005 20285"
        assert expected["BD^2"].endswith("10663") and expected["ADBC"].endswith("10663")

    @pytest.mark.parametrize("diameter", ["2", "2.0", "2.000000000000000"])
    def test_solved_chords_match_the_print_at_any_diameter_scale(self, capsys, diameter):
        # the table is matched field by field at its 10 digits, which the
        # scale of the given diameter does not reach
        code, out = run(capsys, "solve-chords", "--diameter", diameter, "--digits", "10")
        assert code == 0
        shown = dict(line.split(None, 1) for line in out.splitlines()[2:6])
        assert shown == PRINTED_CHORDS
        full = proportio.solve_continued_chords(DecimalScalar.from_str(diameter),
                                                PrecisionContext(10))
        table = proportio.chord_table(full.table_values(10))
        assert all(r.printed == r.grouped for r in table.rows)


class TestPyramid:
    def test_right_case(self, capsys):
        code, out = run(capsys, "pyramid", "--edges", "3", "4", "12", "--digits", "10")
        assert code == 0
        assert "squared diagonal: 169" in out
        assert "diagonal: 13.0000000000" in out

    def test_oblique_case(self, capsys):
        code, out = run(
            capsys, "pyramid", "--edges", "1", "1", "1",
            "--cosines", "1/2", "1/2", "1/2", "--digits", "10",
        )
        assert code == 0
        assert "squared diagonal (exact): 6" in out

    def test_oblique_root_of_a_right_frame_is_the_right_root(self, capsys):
        # the diagonal is 1.000000000000000000015 + 2.5e-41, above the
        # midpoint of ...01 and ...02, so it rounds to ...02 on both paths
        edges = ["1.000000000000000000015", "0.00000000000000000001", "0.00000000000000000001"]
        for extra in ([], ["--cosines", "0", "0", "0"]):
            code, out = run(capsys, "pyramid", "--edges", *edges, *extra)
            assert code == 0
            assert "diagonal: 1.00000000000000000002\n" in out

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.builds(_decimal, st.integers(min_value=1, max_value=10**35),
                              st.integers(min_value=0, max_value=30)),
                    min_size=3, max_size=3),
           st.sampled_from([1, 20]))
    @example(["1.000000000000000000015", "0.00000000000000000001", "0.00000000000000000001"], 20)
    def test_oblique_path_with_zero_cosines_prints_the_right_diagonal(self, edges, digits):
        # both paths round the root of the exact squared diagonal once
        argv = ["pyramid", "--edges", *edges, "--digits", str(digits)]
        _, right = _run_quiet(*argv)
        _, oblique = _run_quiet(*argv, "--cosines", "0", "0", "0")
        diagonal = [line for line in right.splitlines() if line.startswith("diagonal: ")]
        assert len(diagonal) == 1 and diagonal[0] in oblique.splitlines()

    def test_a_negative_ratio_cosine_reaches_the_handler(self, capsys):
        argv = ["pyramid", "--edges", "1", "1", "1", "--cosines", "-1/3", "1/2", "1/2"]
        code, out = run(capsys, *argv)
        assert code == 0 and "\nsquared diagonal (exact): 13/3\n" in out
        code, out = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["diagonal_sq"] == "13/3"

    def test_a_negative_zero_denominator_is_usage_error(self, capsys):
        assert main(["pyramid", "--edges", "1", "1", "1", "--cosines", "-1/0", "1/2", "1/2"]) == 2
        assert capsys.readouterr().err == "error: zero denominator: '-1/0'\n"

    def test_infeasible_cosines_usage_error(self, capsys):
        code = main(["pyramid", "--edges", "1", "1", "1", "--cosines", "1", "1", "-1"])
        assert code == 2

    def test_a_diagonal_beside_a_midpoint_is_rounded_once(self, capsys):
        # the diagonal is 0.25 + 4 10^-18, which the work digits alone would floor to 0.25
        argv = ["pyramid", "--edges", "0.25", "0.000000001", "0.000000001", "--digits", "1"]
        code, out = run(capsys, *argv)
        assert code == 0 and "\ndiagonal: 0.3\n" in out
        code, out = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["diagonal"] == "0.3"


class TestMeans:
    def test_json_m1(self, capsys):
        code, out = run(capsys, "means", "--a", "1", "--b", "2", "--digits", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["m1"] == "1.2599210499"
        assert payload["m2"] == "1.5874010520"

    def test_both_methods_agree(self, capsys):
        code, out = run(capsys, "means", "--a", "1", "--b", "2", "--method", "both")
        assert code == 0
        assert "solver parameters agree: ok" in out

    def test_text_and_json_share_numbers(self, capsys):
        _, text = run(capsys, "means", "--a", "2", "--b", "5", "--digits", "12")
        _, blob = run(capsys, "means", "--a", "2", "--b", "5", "--digits", "12", "--json")
        payload = json.loads(blob)
        assert f"m1 = {payload['m1']}" in text
        assert f"m2 = {payload['m2']}" in text
        assert f"t = {payload['theta']}" in text

    def test_inverted_inputs_usage_error(self, capsys):
        assert main(["means", "--a", "3", "--b", "2"]) == 2

    @pytest.mark.parametrize("b, m1", [
        ("1", "1"), ("8", "2"),
        # m1 = 10^13 exactly, which read off the arc parameter printed as
        # 10000000000000.00009999999990001000 with a residual below 1e+23
        ("1" + "0" * 39, "10000000000000"),
    ])
    def test_exact_zero_residual_is_stated_as_zero(self, capsys, b, m1):
        code, text = run(capsys, "means", "--a", "1", "--b", b)
        assert code == 0
        assert f"\nm1 = {m1}.{'0' * 20}\n" in text
        assert "continued-proportion residual = 0" in text
        assert "residual <" not in text
        _, blob = run(capsys, "means", "--a", "1", "--b", b, "--json")
        assert json.loads(blob)["residual_bound"] == "0"

    @pytest.mark.parametrize("digits, m1, m2", [("1", "1.2", "1.6"), ("3", "1.250", "1.562")])
    def test_ties_go_to_even(self, capsys, digits, m1, m2):
        # b = 1.953125 = (5/4)^3: m1 = 1.25 and m2 = 1.5625 exactly
        code, text = run(capsys, "means", "--a", "1", "--b", "1.953125", "--digits", digits,
                         "--guard", "5")
        assert code == 0 and f"\nm1 = {m1}\nm2 = {m2}\n" in text

    def test_a_mean_beside_a_midpoint_is_rounded_once(self, capsys):
        # b = (1.25 + 10^-35)^3, so m1 = 1.25 + 10^-35, which rounds up
        m1 = Fraction(5, 4) + Fraction(1, 10**35)
        whole, frac = divmod((m1**3 * 10**105).numerator, 10**105)
        code, text = run(capsys, "means", "--a", "1", "--b", f"{whole}.{frac:0105d}",
                         "--digits", "1")
        assert code == 0 and "\nm1 = 1.3\n" in text

    def test_a_shown_mean_carries_into_the_integer_part(self, capsys):
        # m2 = 7.99966665... rounds up past every fractional digit at 3 digits
        code, text = run(capsys, "means", "--a", "7.999", "--b", "8", "--digits", "3")
        assert code == 0 and "\nm1 = 7.999\nm2 = 8.000\n" in text
        _, blob = run(capsys, "means", "--a", "7.999", "--b", "8", "--digits", "3", "--json")
        payload = json.loads(blob)
        assert (payload["m2"], payload["m2_full"]) == ("8.000", "7.9996666527768")
        assert (payload["m1"], payload["m1_full"]) == ("7.999", "7.9993333194437")

    def test_a_shown_mean_carries_through_trailing_nines(self, capsys):
        # m1 = cbrt(2.69^2 7) = 3.69999269... rounds up through three nines at 4
        # digits, and the integer part stays (found with oracles.rounded_cbrt)
        assert rounded(Fraction("3.69999269538368"), 4) == rounded_cbrt(Fraction("2.69") ** 2 * 7, 4)
        code, text = run(capsys, "means", "--a", "2.69", "--b", "7", "--digits", "4")
        assert code == 0 and "\nm1 = 3.7000\nm2 = 5.0892\n" in text
        _, blob = run(capsys, "means", "--a", "2.69", "--b", "7", "--digits", "4", "--json")
        payload = json.loads(blob)
        assert (payload["m1"], payload["m1_full"]) == ("3.7000", "3.69999269538368")
        assert (payload["m2"], payload["m2_full"]) == ("5.0892", "5.08919923639130")

    @pytest.mark.parametrize("argv, conversions", [
        # the two full means and the arc parameter
        (("--a", "1", "--b", "2", "--digits", "300"), 3),
        (("--a", "2.69", "--b", "7", "--digits", "4"), 3),
        # a carry into m2's integer part, 7.999 to 8.000, is read off the full text too
        (("--a", "7.999", "--b", "8", "--digits", "3"), 3),
        # a carry through every digit, 9.999 to 10.000, converts the shown m2 apart
        (("--a", "9.999", "--b", "10", "--digits", "3"), 4),
    ])
    def test_one_conversion_per_printed_number(self, capsys, argv, conversions):
        with mock.patch.object(DecimalScalar, "__str__", autospec=True,
                               side_effect=DecimalScalar.__str__) as converted:
            code, _ = run(capsys, "means", *argv, "--method", "both")
        assert code == 0 and converted.call_count == conversions

    def test_certification_failure_is_one_line_exit_1(self, capsys, monkeypatch):
        # a bracket that puts every grid point above the root, t = 0 too: no grid
        # point has the compass's below-root sign, so t's cell step finds no cell
        monkeypatch.setattr(delian, "_seed", lambda c, z, w: (-1, -1))
        code = main(["means", "--a", "1", "--b", "2", "--method", "compass"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


decimals = st.builds(_decimal, st.integers(min_value=1, max_value=10**6),
                     st.integers(min_value=0, max_value=4))
#: (a, b) operands: a < b, a == b, and pairs whose arc parameter lies on the grid
#: (k = 3/5 gives t = 1/2, k = 15/17 gives t = 1/4).
means_operands = st.one_of(
    st.tuples(decimals, decimals).filter(lambda p: Fraction(p[0]) != Fraction(p[1])).map(
        lambda p: tuple(sorted(p, key=Fraction))),
    decimals.map(lambda a: (a, a)),
    st.sampled_from([("27", "125"), ("0.216", "1"), ("2.7", "12.5"), ("3375", "4913")]),
)


class TestMeansBothEqualsEachMethod:
    """Each section of ``--method both`` is the output of that method run alone."""

    @settings(max_examples=40, deadline=None)
    @given(means_operands, st.integers(min_value=1, max_value=60))
    @example(("27", "125"), 300)
    @example(("27", "125"), 1)
    @example(("0.216", "1"), 1)
    @example(("3.5", "3.5"), 20)
    def test_sections_are_the_single_method_outputs(self, operands, digits):
        a, b = operands
        argv = ["means", "--a", a, "--b", b, "--digits", str(digits)]
        code, text = _run_quiet(*argv, "--method", "both")
        assert code == 0
        instrument, compass, verdict = text.split("\n\n")
        assert verdict == "solver parameters agree: ok\n"
        assert _run_quiet(*argv, "--method", "instrument") == (0, instrument + "\n")
        assert _run_quiet(*argv, "--method", "compass") == (0, compass + "\n")

        _, blob = _run_quiet(*argv, "--method", "both", "--json")
        both = json.loads(blob, object_pairs_hook=list)
        assert [key for key, _ in both] == ["instrument", "compass", "parameters_agree"]
        for method, section in both[:2]:
            _, single = _run_quiet(*argv, "--method", method, "--json")
            assert json.loads(single, object_pairs_hook=list) == section


class TestDuplicateCube:
    def test_reports_doubled_edge(self, capsys):
        code, out = run(capsys, "duplicate-cube", "--edge", "1", "--digits", "10")
        assert code == 0
        assert "1.2599210499" in out

    @pytest.mark.parametrize("edge, digits, shown, bound", [
        # the doubled edge is 1.2500000000000004..., which rounds up
        ("0.992125657480125", "1", "1.3", "1e-14"),
        # 30 work digits on the instrument's arc parameter could not certify it
        ("10000000000", "20", "12599210498.94873164767210607278", "1e-9"),
    ])
    def test_an_edge_is_its_root_rounded_once(self, capsys, edge, digits, shown, bound):
        code, out = run(capsys, "duplicate-cube", "--edge", edge, "--digits", digits)
        assert code == 0
        assert out == f"edge {edge} -> doubled-volume edge {shown}\ncube residual < {bound}\n"

    @pytest.mark.parametrize("edge, digits, exponent", [
        ("100000000000000000000", 1, 35), ("1000000000000", 1, 19),
    ])
    def test_bound_of_a_residual_above_one(self, capsys, edge, digits, exponent):
        # at 6 work digits the volume residual of a large edge exceeds 1; the
        # bound printed is well formed and true
        argv = ["duplicate-cube", "--edge", edge, "--digits", str(digits), "--guard", "5"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1] == f"cube residual < 1e+{exponent}"
        assert main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["volume_residual_bound"] == f"1e+{exponent}"
        side = DecimalScalar.from_str(edge)
        doubled, _ = delian.duplicate_cube(side, PrecisionContext(digits, 5))
        s = max(doubled.scale, side.scale)
        r, e = doubled.unscaled * 10 ** (s - doubled.scale), side.unscaled * 10 ** (s - side.scale)
        residual = Fraction(abs(r**3 - 2 * e**3), 10 ** (3 * s))
        assert Fraction(10) ** (exponent - 1) <= residual < Fraction(10) ** exponent

    @pytest.mark.parametrize("edge", [
        "1000000", "1000000000", "10000000000", "1000000000000", "1", "1.5", "0.000000001",
        "0.0000000000000000000000000000001", "3280387013", "6669465877",
    ])
    def test_every_edge_exits_0_within_a_unit(self, capsys, edge):
        # 2 edge^3 lies strictly between (r - u)^3 and (r + u)^3 for u = 10^-digits,
        # both for the full edge r and the printed one; 10^10, 10^12 and 6669465877
        # exited 1 when the edge was read off the instrument's arc parameter
        argv = ["duplicate-cube", "--edge", edge, "--digits", "20", "--json"]
        code, out = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        u, volume = Fraction(1, 10**20), 2 * Fraction(edge) ** 3
        for key in ("doubled_edge_full", "doubled_edge"):
            r = Fraction(payload[key])
            assert (r - u) ** 3 < volume < (r + u) ** 3

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=10**15 - 1), st.integers(min_value=-45, max_value=15),
           st.integers(min_value=1, max_value=60), st.integers(min_value=5, max_value=14))
    @example(1, 10, 20, 10)  # 10^10, which exited 1 when its edge was read off t
    @example(1, -30, 1, 5)  # r = 0.000000: the whole volume is the residual
    def test_the_volume_residual_needs_no_check(self, unscaled, exponent, digits, guard):
        # the deleted verdict |r^3 - 2e^3| < (r^2 + r e + e^2) 10^-digits holds for
        # every edge from about 10^-30 to 10^30: r lies within half a work unit of
        # r* = cbrt(2) e, and r^2 + r r* + r*^2 < 1.59 (r^2 + r e + e^2)
        e = Fraction(unscaled) * Fraction(10) ** exponent
        full, _ = delian.duplicate_cube(e, PrecisionContext(digits, guard))
        r = full.as_fraction()
        assert abs(r**3 - 2 * e**3) < (r * r + r * e + e * e) / 10**digits

    @given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=0, max_value=40))
    def test_residual_bound_is_the_next_power_of_ten(self, unscaled, scale):
        bound = _residual_bound(DecimalScalar(unscaled, scale))
        value = Fraction(unscaled, 10**scale)
        if unscaled == 0:
            assert bound == "0"
            return
        exponent = int(bound[2:])
        assert bound == (f"1e+{exponent}" if exponent > 0 else f"1e-{-exponent}")
        assert Fraction(10) ** (exponent - 1) <= value < Fraction(10) ** exponent
        if value < 1:  # the form printed below 1 since the bound was introduced
            assert bound == f"1e-{scale - _decimal_digits(unscaled)}"


class TestRatioOperands:
    """``means --a/--b`` and ``four-proportionals --ac`` read n/d as ``--t`` does."""

    @pytest.mark.parametrize("ratio, decimal", [
        (("means", "--a", "1/4", "--b", "2", "--method", "both"),
         ("means", "--a", "0.25", "--b", "2", "--method", "both")),
        (("means", "--a", "1", "--b", "9/4", "--digits", "30"),
         ("means", "--a", "1", "--b", "2.25", "--digits", "30")),
        (("four-proportionals", "--ac", "5/4", "--t", "1/3", "--sphere"),
         ("four-proportionals", "--ac", "1.25", "--t", "1/3", "--sphere")),
    ])
    def test_a_ratio_prints_as_its_decimal(self, capsys, ratio, decimal):
        for extra in ((), ("--json",)):
            code, out = run(capsys, *ratio, *extra)
            assert code == 0
            assert (code, out) == run(capsys, *decimal, *extra)

    @pytest.mark.parametrize("argv", [
        ("means", "--a", "1/2/3", "--b", "2"),
        ("means", "--a", "1", "--b", "x/2"),
        ("four-proportionals", "--ac", "1.5/2", "--t", "1/2"),
        # underscores are refused, as in a decimal operand ("--a 1_000")
        ("means", "--a", "1_000/1", "--b", "2000"),
        ("four-proportionals", "--ac", "2", "--t", "1/1_0"),
        ("figure", "--id", "1", "--edges", "3", "4_0/10", "12", "--out", "-"),
    ])
    def test_a_malformed_ratio_is_one_error_line(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        operand = next(a for a in argv if "/" in a)
        assert captured.err == f"error: not a ratio n/d of two integers: {operand!r}\n"


class TestFourProportionals:
    def test_planar(self, capsys):
        code, out = run(capsys, "four-proportionals", "--ac", "2", "--t", "1/2",
                        "--digits", "10")
        assert code == 0
        assert "AD = 1.2000000000" in out
        assert "verified: ok" in out

    def test_sphere_matches_planar_values(self, capsys):
        _, planar = run(capsys, "four-proportionals", "--ac", "2", "--t", "1/3",
                        "--digits", "10", "--json")
        _, spherical = run(capsys, "four-proportionals", "--ac", "2", "--t", "1/3",
                           "--digits", "10", "--sphere", "--json")
        assert json.loads(planar)["quad"] == json.loads(spherical)["quad"]

    def test_a_term_beside_a_midpoint_is_rounded_once(self, capsys):
        # AD is 0.25 + 10^-15, which the work digits alone would round to 0.25
        argv = ["four-proportionals", "--ac", "0.3125000000000012500", "--t", "1/3", "--digits", "1"]
        code, out = run(capsys, *argv)
        assert code == 0 and "\n  AD = 0.3\n" in out
        code, out = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["quad"]["AD"] == "0.3"
        assert payload["quad_full"]["AD"] == "0.25000000000"

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=20),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from(("AD", "AE")),
        st.booleans(),
    )
    @example(2, 1, 14, 1, "AD", False)  # the 0.25 + 10^-15 above
    def test_terms_beside_midpoints_match_the_oracle(self, m, digits, gap, side, label, sphere):
        # at t = 1/3, k = 4/5, so AC = x (5/4)^power is a decimal whenever x is,
        # and AD (power 1) or AE (power 2) is x exactly
        x = Fraction(2 * m + 1, 2 * 10**digits) + side * Fraction(1, 10 ** (digits + gap + 1))
        ac = x * Fraction(5, 4) ** (1 if label == "AD" else 2)
        places = digits + gap + 6
        assert (ac * 10**places).denominator == 1
        argv = ["four-proportionals", "--ac", _decimal(int(ac * 10**places), places), "--t", "1/3",
                "--digits", str(digits), "--json"] + ["--sphere"] * sphere
        code, out = _run_quiet(*argv)
        assert code == 0
        payload = json.loads(out)
        shown = Fraction(payload["quad"][label]) * 10**digits
        assert shown == (m + (m % 2) if side == 0 else m + (side > 0))
        k = Fraction(4, 5)
        for name, term in zip(("AF", "AE", "AD", "AC"), (ac * k**3, ac * k**2, ac * k, ac)):
            for key, scale in (("quad", digits), ("quad_full", digits + 10)):
                text = payload[key][name]
                assert len(text.partition(".")[2]) == scale
                assert Fraction(text) == rounded(term, scale)

    @pytest.mark.parametrize("ac, shown", [
        ("0.9999996", "1.000"),  # the carry reaches the integer part
        ("2.0015", "2.002"),  # a tie, whose half-even rounding carries into the last digit
    ])
    def test_a_carry_is_read_off_the_full_term(self, capsys, ac, shown):
        argv = ["four-proportionals", "--ac", ac, "--t", "1/2", "--digits", "3"]
        code, out = run(capsys, *argv)
        assert code == 0 and f"\n  AC = {shown}\n" in out
        code, out = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["quad"]["AC"] == shown
        assert payload["quad_full"]["AC"] == ac + "0" * (13 - len(ac.partition(".")[2]))

    @pytest.mark.parametrize("sphere", [False, True])
    def test_one_conversion_per_term(self, capsys, sphere):
        # each shown term is read off its full one
        argv = ["four-proportionals", "--ac", "2", "--t", "1/3", "--digits", "300"]
        with mock.patch.object(DecimalScalar, "__str__", autospec=True,
                               side_effect=DecimalScalar.__str__) as converted:
            code, _ = run(capsys, *argv, *["--sphere"] * sphere, "--json")
        assert code == 0 and converted.call_count == 4

    def test_verdict_holds_at_a_large_diameter(self, capsys):
        code, out = run(capsys, "four-proportionals", "--ac", "10000000000", "--t", "2/5")
        assert code == 0
        assert out.endswith("continued proportion verified: ok\n")

    @settings(max_examples=60, deadline=None)
    @given(_positive_decimals(),
           st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda t: 0 < t < 1),
           st.integers(min_value=1, max_value=40), st.integers(min_value=5, max_value=14),
           st.booleans())
    @example("0.000004", Fraction(1, 3), 1, 5, False)  # AC = 4 work units, AF = 2
    @example("0.0000004", Fraction(1, 3), 1, 5, True)  # every term rounds to 0
    def test_printed_quad_keeps_the_verdict(self, ac, t, digits, guard, sphere):
        # the verdict is printed, not checked: each full term is its exact
        # value rounded once, so every defect is within 3.5 M 10^-w
        argv = ["four-proportionals", "--ac", ac, "--t", str(t), *_precision(digits, guard)]
        code, out = _run_quiet(*argv, *["--sphere"] * sphere)
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        terms = [Fraction(payload["quad_full"][k]) for k in ("AF", "AE", "AD", "AC")]
        assert proportion_defect(terms) <= Fraction(7, 2) * max(terms) / 10 ** (digits + guard)
        assert in_continued_proportion(terms, digits)

    def test_degenerate_position_usage_error(self, capsys):
        for argv in (
            ["four-proportionals", "--ac", "2", "--t", "1"],
            ["four-proportionals", "--ac", "2", "--t", "0"],
            ["four-proportionals", "--ac", "2", "--t", "0", "--sphere"],
            ["figure", "--id", "5", "--t", "0"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: parameter must lie strictly between 0 and 1 (D between A and C)\n"
            )

    def test_a_negative_ratio_parameter_is_one_error_line(self, capsys):
        assert main(["four-proportionals", "--ac", "2", "--t", "-1/3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: parameter must lie strictly between 0 and 1 (D between A and C)\n"
        )

    @pytest.mark.parametrize("argv", [
        ("figure", "--id", "5", "--ac", "0"),
        ("figure", "--id", "5", "--ac", "-2"),
        ("four-proportionals", "--ac", "0", "--t", "1/2", "--sphere"),
    ])
    def test_non_positive_diameter_usage_error(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: diameter must be positive\n"


class TestCheckProps:
    def test_small_run_reports_all_hold(self, capsys):
        code, out = run(capsys, "check-props", "--seed", "42", "--instances", "30")
        assert code == 0
        assert "all propositions hold" in out
        assert "seed 42" in out

    def test_seed_changes_nothing_about_the_verdict(self, capsys):
        code, out = run(capsys, "check-props", "--seed", "9", "--instances", "20", "--json")
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert payload["seed"] == 9

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_non_positive_instances_is_usage_error(self, capsys, count):
        code = main(["check-props", "--instances", count])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --instances must be at least 1\n"

    def test_lying_checker_fails_its_row(self, capsys, monkeypatch):
        # a checker that errs shows as a FAILED row and exit 1, not as an error
        volumes = iter(range(10**6))
        monkeypatch.setattr(euclid, "_six_volume", lambda *points: next(volumes))
        code = main(["check-props", "--instances", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        rows = [" ".join(line.split()) for line in captured.out.splitlines()]
        assert [row for row in rows if row.endswith("FAILED")] == [
            "7.12 0/3 valid, 1/1 perturbed detected FAILED", "some propositions FAILED"
        ]
        assert captured.out.endswith("\nsome propositions FAILED\n")


class TestFigureCommand:
    def test_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "fig1.svg"
        code, out = run(capsys, "figure", "--id", "1", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("<svg")
        assert "written to" in out

    def test_stdout_mode(self, capsys):
        code, out = run(capsys, "figure", "--id", "4", "--out", "-")
        assert code == 0
        assert out.startswith("<svg")

    @pytest.mark.parametrize("edges", [("0", "0", "0"), ("-1", "2", "3")])
    def test_non_positive_edges_usage_error(self, capsys, edges):
        assert main(["figure", "--id", "1", "--edges", *edges]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pyramid edges must be positive\n"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "fig1.svg"
        assert main(["figure", "--id", "1", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(target) in captured.err
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv", [
        ("four-proportionals", "--ac", "2", "--t", "1/0"),
        ("four-proportionals", "--ac", "3/0", "--t", "1/2"),
        ("means", "--a", "1/0", "--b", "2"),
        ("means", "--a", "1", "--b", "2/0"),
        ("figure", "--id", "1", "--edges", "1/0", "1", "1", "--out", "-"),
        ("pyramid", "--edges", "1", "1", "1", "--cosines", "1/2", "1/2", "0/0"),
    ])
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = next(a for a in argv if a.endswith("/0"))
        assert captured.err == f"error: zero denominator: {bad!r}\n"

    def test_diameter_takes_a_ratio(self, capsys):
        halves = [run(capsys, "figure", "--id", "4", "--diameter", d, "--out", "-")
                  for d in ("1/2", "0.5", "0.50", "2/4")]
        assert halves[0][0] == 0 and halves[0][1].startswith("<svg")
        assert halves.count(halves[0]) == 4
        assert run(capsys, "figure", "--id", "4", "--diameter", "2/1") == run(capsys, "figure", "--id", "4")

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from((4, 6, 7)), st.integers(min_value=1, max_value=40),
           st.integers(min_value=5, max_value=19))
    @example(data=None, figure_id=6, digits=1, guard=9)  # x2="313.79" if solved at 10 digits
    @example(data=None, figure_id=4, digits=1, guard=5)  # B at x1="160.71" if solved at 6
    def test_every_precision_draws_the_same_figure(self, data, figure_id, digits, guard):
        # a drawing at SVG hundredths prints none of the run's digits
        line = None
        if data is None:  # each with a line a solve at the run's precision drew one hundredth off
            operands, line = {
                4: (("--diameter", "0.79158"),
                    '<line x1="160.72" y1="320.00" x2="160.72" y2="143.08"/>'),
                6: (("--a", "4394/997", "--b", "7861/997"),
                    '<line x1="204.24" y1="121.19" x2="313.78" y2="280.35"/>'),
            }[figure_id]
        elif figure_id == 4:
            operands = ("--diameter", data.draw(_positive_decimals()))
        else:
            a, b = sorted((data.draw(_positive_decimals()), data.draw(_positive_decimals())),
                          key=Fraction)
            operands = ("--a", a, "--b", b)
        argv = ("figure", "--id", str(figure_id), *operands)
        code, svg = _run_quiet(*argv)
        assert code == 0 and svg.startswith("<svg")
        assert line is None or f"\n    {line}\n" in svg
        assert _run_quiet(*argv, "--digits", str(digits), "--guard", str(guard)) == (code, svg)

    def test_svg_is_text_under_json(self, capsys, tmp_path):
        assert run(capsys, "figure", "--id", "4", "--json") == run(capsys, "figure", "--id", "4")
        target = tmp_path / "fig4.svg"
        code, out = run(capsys, "figure", "--id", "4", "--out", str(target), "--json")
        assert (code, out) == (0, f"figure 4 written to {target}\n")


class TestDeterminismAndConfig:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-chords", "--diameter", "2", "--digits", "10"],
            ["solve-chords", "--diameter", "2", "--digits", "10", "--json"],
            ["check-props", "--seed", "5", "--instances", "25"],
            ["figure", "--id", "6", "--out", "-"],
            ["verify-table", "--json"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_env_var_sets_default_digits(self, capsys, monkeypatch):
        monkeypatch.setenv("MESOLABE_DIGITS", "10")
        _, out = run(capsys, "means", "--a", "1", "--b", "2", "--json")
        assert json.loads(out)["m1"] == "1.2599210499"

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MESOLABE_DIGITS", "5")
        _, out = run(capsys, "means", "--a", "1", "--b", "2", "--digits", "10", "--json")
        assert json.loads(out)["m1"] == "1.2599210499"

    @pytest.mark.parametrize("env, value, argv", [
        ("MESOLABE_DIGITS", "abc", ("means", "--a", "1", "--b", "2")),
        ("MESOLABE_GUARD", " ", ("check-props", "--instances", "2")),
    ])
    def test_bad_environment_value_is_usage_error(self, capsys, monkeypatch, env, value, argv):
        monkeypatch.setenv(env, value)
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ${env} must be an integer, not {value!r}\n"

    def test_check_props_checks_the_guard(self, capsys):
        assert main(["check-props", "--instances", "2", "--guard", "3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: guard_digits must be at least 5\n")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["florp"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["means", "--a", "1", "--b", "2", "--frobnicate"]) == 2


def test_only_main_writes_to_stdout():
    """Handlers return a record; ``main`` is the one writer of stdout."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "stdout"
                    or isinstance(node, ast.Name) and node.id in ("print", "stdout")):
                writers.add(getattr(top, "name", f"line {node.lineno}"))
    assert writers == {"main"}


#: A usage error, help, a subcommand's help and ops of several kinds, run in one process.
MIXED_CALLS = [
    ("means", "--a", "1"),
    ("--help",),
    ("means", "--help"),
    ("figure", "--id", "1", "--edges", "1", "2", "3", "--out", "-"),
    ("pyramid", "--edges", "3", "4", "12"),
    ("pyramid", "--edges", "1", "1", "1", "--cosines", "1/2", "1/2", "1/2"),
    ("means", "--a", "1", "--b", "2", "--method", "both", "--json"),
    ("check-props", "--seed", "5", "--instances", "3"),
]


class TestRepeatedCalls:
    """A call in a long-lived process behaves as the first call of a new one."""

    @staticmethod
    def first_call(argv):
        """Exit code, stdout and stderr of ``argv`` as the first call of a new interpreter."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MESOLABE_")}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from mesolabe.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        )
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_lists_its_options(self, capsys, name):
        assert main([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: mesolabe {name} [-h]")
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  -")}
        assert listed == {"-h,"} | {flag for flag, _ in COMMON_ARGUMENTS + SUBCOMMANDS[name][2]}

    def test_mixed_calls_match_first_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help at
        monkeypatch.delenv("MESOLABE_DIGITS", raising=False)
        monkeypatch.delenv("MESOLABE_GUARD", raising=False)
        fresh = [self.first_call(argv) for argv in MIXED_CALLS]
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0, 0, 0, 0]
        for _ in range(2):
            for argv, expected in zip(MIXED_CALLS, fresh):
                code = main(list(argv))
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == expected, argv
        # the environment is read per call, not at import
        monkeypatch.setenv("MESOLABE_DIGITS", "7")
        _, out = run(capsys, "means", "--a", "1", "--b", "2", "--json")
        assert json.loads(out)["m1"] == "1.2599210"
        monkeypatch.setenv("MESOLABE_GUARD", "3")
        assert main(["means", "--a", "1", "--b", "2"]) == 2
        assert capsys.readouterr().err == "error: guard_digits must be at least 5\n"


@pytest.fixture(params=[4300, 1000], ids=["default-limit", "lowered-limit"])
def str_digits_limit(request):
    """The interpreter's int-to-str digit limit, set for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield request.param
    finally:
        sys.set_int_max_str_digits(saved)


class TestDigitCap:
    """Work digits are capped below the interpreter's int-to-str limit."""

    def test_cap_follows_the_interpreter_limit(self, str_digits_limit):
        assert max_work_digits() == str_digits_limit - INT_PART_ROOM

    def test_no_cap_without_a_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert max_work_digits() is None
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("argv", [
        ("means", "--a", "1", "--b", "2", "--method", "both"),
        ("duplicate-cube", "--edge", "1.5"),
        ("solve-chords", "--diameter", "2"),
    ])
    def test_just_below_and_just_above_the_cap(self, capsys, str_digits_limit, argv):
        cap = max_work_digits()
        code, out = run(capsys, *argv, "--digits", str(cap - 10), "--json")
        assert code == 0
        payload = json.loads(out)
        if argv[0] == "means":
            # 1e-4200 at the default limit, 1e-899 at the lowered one: the bound
            # is the next power of ten above the exact defect of the full means
            section = payload["instrument"]
            m1, m2 = Fraction(section["m1_full"]), Fraction(section["m2_full"])
            defect = max(abs(m2 - m1 * m1), abs(2 * m1 - m2 * m2), abs(2 - m1 * m2))
            bound = {4300: "1e-4200", 1000: "1e-899"}[str_digits_limit]
            assert section["residual_bound"] == bound
            assert Fraction(bound) / 10 <= defect < Fraction(bound)
        code = main([*argv, "--digits", str(cap - 9)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --digits + --guard must not exceed {cap} work digits\n"

    @staticmethod
    def printed(text: str) -> Fraction:
        """Value of a printed decimal, read part by part as it was printed."""
        whole, _, frac = text.partition(".")
        return int(whole) + Fraction(int(frac), 10 ** len(frac))

    def test_integer_parts_do_not_reach_the_limit(self, capsys, str_digits_limit):
        # 201 integer digits on top of the work digits: the whole digit string
        # of a printed value is over the limit, each of its parts is not
        one, big = DecimalScalar(1), DecimalScalar(10**200)
        digits = max_work_digits() - 10
        code, out = run(capsys, "means", "--a", "1", "--b", str(big), "--digits", str(digits))
        assert code == 0
        shown = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        solved = delian.two_means_instrument(one, big, PrecisionContext(digits))
        assert self.printed(shown["m1"]) == solved.m1_shown.as_fraction()
        assert self.printed(shown["m2"]) == solved.m2_shown.as_fraction()

        digits = max_work_digits() - 100
        code = main(["duplicate-cube", "--edge", str(big), "--digits", str(digits)])
        captured = capsys.readouterr()
        assert code != 2 and captured.err == ""
        doubled = captured.out.split("doubled-volume edge ")[1].split()[0]
        _, solved = delian.duplicate_cube(big, PrecisionContext(digits))
        assert self.printed(doubled) == solved.as_fraction()

    @pytest.mark.parametrize("argv", [
        ("means", "--a", "1", "--b", "{long}"),
        ("means", "--a", "1/{long}", "--b", "2"),
        ("duplicate-cube", "--edge", "1.{long}"),
        ("four-proportionals", "--ac", "{long}/3", "--t", "1/2"),
        ("four-proportionals", "--ac", "2", "--t", "1/{long}"),
        ("figure", "--id", "1", "--edges", "1", "{long}/3", "1", "--out", "-"),
    ])
    def test_over_long_operand_is_usage_error(self, capsys, str_digits_limit, argv):
        # through DecimalScalar.from_str and through cli._parse_rational, an
        # operand one digit over the limit is refused before int() sees it
        long = "1" + "0" * str_digits_limit
        digits = str_digits_limit + (2 if argv[0] == "duplicate-cube" else 1)
        assert main([a.format(long=long) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: operand of {digits} digits exceeds "
                                f"the limit of {str_digits_limit} digits\n")

    @pytest.mark.parametrize("argv, part", [
        (("duplicate-cube", "--edge", "{nines}", "--digits", "1"), "integer"),
        (("pyramid", "--edges", "{half}", "1", "1"), "integer"),
        (("pyramid", "--edges", "{half}", "1", "1", "--cosines", "0", "0", "0"), "integer"),
        (("pyramid", "--edges", "0.{half}", "1", "1"), "fractional"),
    ])
    def test_result_past_the_limit_is_usage_error(self, capsys, str_digits_limit, argv, part):
        # operands within the limit whose result is not: the doubled edge of
        # limit nines has one integer digit more, and the squared diagonal of
        # half the limit and 50 nines has twice their integer or fractional digits
        nines, half = "9" * str_digits_limit, "9" * (str_digits_limit // 2 + 50)
        digits = str_digits_limit + 1 if argv[0] == "duplicate-cube" else 2 * len(half)
        assert main([a.format(nines=nines, half=half) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a result of {digits} {part} digits exceeds "
                                f"the limit of {str_digits_limit} digits\n")

    def test_operand_at_the_limit_is_read(self, str_digits_limit):
        long = "7" * str_digits_limit
        assert DecimalScalar.from_str(long).unscaled == int(long)
        assert DecimalScalar.from_str("1." + long[1:]).scale == str_digits_limit - 1
        assert cli._parse_rational(f"-{long}/{long}") == -1

    def test_guard_digits_count_against_the_cap(self, capsys):
        cap = max_work_digits()
        assert main(["check-props", "--digits", str(cap - 20), "--guard", "21"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_decimal_digits_beside_powers_of_ten(self):
        for k in [*range(1, 400), *range(400, 9000, 11)]:
            assert (_decimal_digits(10**k - 1), _decimal_digits(10**k)) == (k, k + 1)

    @given(st.integers(min_value=1, max_value=10**4000))
    def test_decimal_digits_match_str(self, n):
        assert _decimal_digits(n) == len(str(n))


#: Argvs whose parse must not depend on which parser ``main`` takes: help, no
#: arguments, top-level options, unknown and missing options, abbreviations,
#: ``--``, negative numbers, extra positionals and bad option values.
PARITY_ARGVS = [
    (),
    ("--help",),
    ("-h",),
    ("--guard", "3"),
    ("--digits", "5", "means", "--a", "1", "--b", "2"),
    ("florp",),
    ("mean", "--a", "1", "--b", "2"),
    *((name, "--help") for name in SUBCOMMANDS),
    *((name,) for name in SUBCOMMANDS),
    *((name, "--guard", "3") for name in SUBCOMMANDS),
    ("means", "--a", "1", "--b", "2"),
    ("means", "--a", "1", "--b", "2", "--bogus"),
    ("means", "--a", "1", "--b", "2", "extra"),
    ("means", "means", "--a", "1", "--b", "2"),
    ("means", "--a", "1", "--b", "2", "--", "x"),
    ("means", "--", "--a", "1", "--b", "2"),
    ("means", "--a", "1", "--b", "2", "--meth", "both", "--j"),
    ("means", "--a=-1", "--b", "-2.5", "--digits", "-3"),
    ("means", "--a", "1", "--b", "2", "--method", "bogus"),
    ("means", "--a", "1", "--b", "2", "--digits", "x"),
    ("means", "--a", "1"),
    ("means", "--a", "1", "--b", "2", "-h"),
    ("means", "--a", "1", "--b", "2", "--a", "3", "--json"),
    ("means", "--a", "1", "--b", "2", "-x"),
    ("solve-chords", "--di", "2"),
    ("solve-chords", "--diam", "2", "--dig", "5"),
    ("pyramid", "--edges", "3", "4"),
    ("pyramid", "--edges", "3", "4", "12", "13"),
    ("pyramid", "--edges", "3", "4", "12", "--cosines", "-1/2", "1/2", "1/2"),
    ("figure", "--id", "x"),
    ("figure", "--id", "4", "--diameter", "3", "--out", "-", "--json"),
    ("check-props", "--instances", "2", "--seed", "-3"),
    ("four-proportionals", "--ac", "2", "--t", "1/2", "--sphere", "--sphere"),
    ("four-proportionals", "--ac", "2", "--t", "-1/3"),
    ("verify-table", "extra"),
    ("duplicate-cube", "--edge"),
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_parser_parses_as_the_tree(capsys, monkeypatch, argv):
    """The subcommand's own parser gives the tree's namespace, or its exit and text."""
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, capsys.readouterr()
        namespace.pop("subcommand", None)
        return namespace, capsys.readouterr()

    assert outcome(cli._parse) == outcome(cli._build_parser().parse_args)


def test_a_valid_call_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["means", "--a", "1", "--b", "2"]) == 0
    assert built == ["mesolabe means"]
