import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import mesolabe
from mesolabe import figures
from mesolabe.delian import InstrumentState
from mesolabe.proportio import ChordConfig, reproduce_table, solve_continued_chords
from mesolabe.pyramid import Point3, RightPyramid
from mesolabe.scalar import (
    CertificationError,
    DecimalScalar,
    PrecisionContext,
    _half_even,
    _icbrt,
    cbrt,
    format_grouped,
    grouped_text,
    pair_texts,
    round_to,
    sqrt,
    window_floor,
)

from oracles import grouped_digits, long_multiply, newton_sqrt, rounded_cbrt, rounded_sqrt

D = DecimalScalar.from_str

#: Every digit string printed in the 1682 tables.
PAPER_STRINGS = [
    "2 00000 00000",
    "63534 43923",
    "93114 24637",
    "1 36465 56077",
    "1 17068 87846 00000 00000",
    "1 17068 87846 55798 69049",
    "86702 62877 05305 81769",
    "86702 62877 72943 70071",
    "1 86288 49276 27056 29929",
    "1 86228 49274 00000 00000",
]


def scalars(max_scale=12):
    return st.builds(
        DecimalScalar,
        st.integers(min_value=-(10**18), max_value=10**18),
        st.integers(min_value=0, max_value=max_scale),
    )


def _text(sign: str, int_part: str, frac: str) -> str:
    """The text of a value with these parts, as ``str`` of a DecimalScalar writes it."""
    return f"{sign}{int_part}.{frac}" if frac else sign + int_part


def parse_grouped(text: str) -> DecimalScalar:
    """Inverse of :func:`format_grouped` on its own output and the paper's tables."""
    text = text.strip()
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:].strip()
    tokens = text.split(" ")
    if not all(t.isdigit() for t in tokens):
        raise ValueError(f"not a grouped decimal: {text!r}")
    if len(tokens[0]) == 5:
        int_part, frac_tokens = "0", tokens
    else:
        int_part, frac_tokens = tokens[0], tokens[1:]
    if any(len(t) != 5 for t in frac_tokens[:-1]) or (frac_tokens and len(frac_tokens[-1]) > 5):
        raise ValueError(f"malformed fractional groups: {text!r}")
    frac = "".join(frac_tokens)
    return DecimalScalar(sign * int(int_part + frac), len(frac))


class TestConstruction:
    def test_from_str_round_trip(self):
        for text in ("0", "2", "-1.25", "0.6353443923", "13.000"):
            assert str(D(text)) == text

    def test_rejects_garbage(self):
        for text in ("", "1.2.3", "1e5", "--2", ". 5"):
            with pytest.raises(ValueError):
                D(text)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            DecimalScalar(1, -1)

    def test_equality_is_by_fields(self):
        # a print record: the same value at another scale prints otherwise
        assert DecimalScalar(20, 1) != DecimalScalar(2, 0)
        assert D("2.0") == DecimalScalar(20, 1) and hash(D("2.0")) == hash(DecimalScalar(20, 1))
        assert DecimalScalar(2, 0) != 2 and DecimalScalar(0, 3) != DecimalScalar(0, 0)

    def test_fraction_round_trip(self):
        x = D("-12.345")
        assert DecimalScalar.from_fraction(x.as_fraction(), 3) == x

    @given(scalars(max_scale=40))
    def test_text_is_the_zero_padded_digit_string(self, x):
        digits = str(abs(x.unscaled)).zfill(x.scale + 1)
        cut = len(digits) - x.scale
        sign = "-" if x.unscaled < 0 else ""
        expected = sign + digits[:cut] + ("." + digits[cut:] if x.scale else "")
        assert str(x) == expected
        assert D(str(x)) == x

    def test_prints_past_the_int_to_str_limit_part_by_part(self):
        scale = (sys.get_int_max_str_digits() or 4300) - 100
        x = DecimalScalar(10 ** (scale + 200) + 7, scale)  # 201 + scale digits in all
        text = str(x)
        assert len(text) == 201 + 1 + scale
        assert text.startswith("1" + "0" * 200 + ".") and text.endswith("07")
        assert format_grouped(x).startswith("1" + "0" * 200 + " 00000 ")


class TestGroupedFormat:
    def test_paper_strings_round_trip(self):
        for text in PAPER_STRINGS:
            assert format_grouped(parse_grouped(text)) == text

    def test_examples(self):
        assert format_grouped(D("2.0000000000")) == "2 00000 00000"
        assert format_grouped(D("0.6353443923")) == "63534 43923"
        assert format_grouped(D("1.3646556077")) == "1 36465 56077"

    def test_zero_and_integers(self):
        assert format_grouped(D("0")) == "0"
        assert format_grouped(D("13")) == "13"
        assert format_grouped(D("-0.50000")) == "-50000"

    #: Integer parts of every kind: zero, 1-4 digits, exactly 5 (which gets a
    #: leading zero) and 6-7 digits.
    INT_PARTS = st.one_of(st.just("0"), st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.integers(min_value=10 ** (n - 1), max_value=10**n - 1).map(str)))

    @settings(max_examples=300)
    @given(st.sampled_from(["", "-"]), INT_PARTS, st.integers(min_value=0, max_value=2000),
           st.randoms(use_true_random=False))
    @example("", "0", 5, random.Random(0))
    @example("-", "12345", 0, random.Random(0))
    def test_grouping_is_the_regex_grouping(self, sign, int_part, length, rng):
        frac = str(rng.randrange(10**length)).zfill(length) if length else ""
        assert grouped_text(_text(sign, int_part, frac)) == grouped_digits(sign, int_part, frac)

    def test_every_short_length_is_the_regex_grouping(self):
        # one code path for every length: each group boundary up to 12 groups
        for length in range(60):
            frac = "".join(str((7 * i + length) % 10) for i in range(length))
            for sign in ("", "-"):
                for int_part in ("0", "7", "1234", "12345", "123456", "1234567"):
                    text = _text(sign, int_part, frac)
                    assert grouped_text(text) == grouped_digits(sign, int_part, frac)

    def test_ambiguous_integer_part_rejected(self):
        # the ambiguous form is never printed: a five-digit integer part gets
        # one leading zero, and six characters read as an integer part
        assert format_grouped(D("12345.1")) == "012345 1"
        assert format_grouped(D("-70000.000001")) == "-070000 00000 1"
        assert parse_grouped("012345 1") == D("12345.1")
        # a leading five-digit token always reads as a fractional group
        assert parse_grouped("12345 67890") == D("0.1234567890")

    def test_zero_integer_part_kept_below_one_group(self):
        assert format_grouped(D("0.7")) == "0 7"
        assert format_grouped(D("-0.993")) == "-0 993"
        assert parse_grouped("0 7") == D("0.7")

    def test_leading_five_digit_token_with_short_tail(self):
        assert parse_grouped("12345 67") == D("0.1234567")
        assert parse_grouped("00000 12") == D("0.0000012")
        assert format_grouped(D("0.0000012")) == "00000 12"

    @given(st.integers(min_value=-99999, max_value=99999), st.integers(min_value=0, max_value=25))
    def test_round_trip_on_representable_values(self, int_part, scale):
        value = DecimalScalar(int_part * 10**scale + (7 if scale else 0), scale)
        assert parse_grouped(format_grouped(value)) == value


#: (low, high, unit) windows that break the contract of window_floor.
LIARS = {
    "a unit wide": (40, 50, 10),
    "wider than a unit": (0, 25, 10),
    "empty": (42, 42, 10),
    "inverted": (47, 43, 10),
}


def _below(n: int, m: int):
    """The exact test of window_floor for x = n/m, counting its calls."""
    calls = []

    def at_or_below(g: int) -> bool:
        calls.append(g)
        return g * m <= n
    return at_or_below, calls


class TestPairTexts:
    """A value's text read off the text of a value at more fractional digits."""

    @settings(max_examples=400)
    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=25), st.integers(min_value=1, max_value=25),
           st.integers(min_value=0, max_value=10**25), st.integers(min_value=-8, max_value=8),
           st.sampled_from([1, -1]), st.sampled_from([1, -1]))
    @example(7, 3, 3, 10, 0, 1, 1, 1)  # 7.999 + 1 unit carries into the integer part
    @example(36, 3, 4, 10, 0, 1, 1, 1)  # 3.6999 + 1 unit carries through three nines
    @example(0, 3, 2, 10, 0, 1, 1, 1)  # 9.99 + 1 unit carries through every digit
    @example(0, 0, 0, 2, 99, 0, -1, 1)  # -0.99 shown at 0 digits as 0
    def test_is_the_shown_values_text(self, head, nines, scale, extra, rest, step, sign, shown_sign):
        # q ends in ``nines`` nines; the full value is q 10^extra + r at scale + extra
        q = head * 10**nines + 10**nines - 1
        unit = 10**extra
        full = DecimalScalar(sign * (q * unit + rest % unit), scale + extra)
        shown = DecimalScalar(shown_sign * max(q + step, 0), scale)
        assert pair_texts(full, shown) == (str(shown), str(full))

    def test_a_carry_reads_no_more_digits(self):
        full = D("3.69999269538368")
        assert pair_texts(full, D("3.7000")) == ("3.7000", "3.69999269538368")
        assert pair_texts(full, D("3.6999")) == ("3.6999", "3.69999269538368")
        assert pair_texts(D("-12.3456"), D("-12.35")) == ("-12.35", "-12.3456")
        with mock.patch.object(DecimalScalar, "__str__", autospec=True,
                               side_effect=DecimalScalar.__str__) as converted:
            # a carry into the integer part is read off too, one through every digit is not
            assert pair_texts(D("7.9996"), D("8.000")) == ("8.000", "7.9996")
            assert converted.call_count == 1
            assert pair_texts(D("9.9996"), D("10.000")) == ("10.000", "9.9996")
            assert converted.call_count == 3


class TestWindowFloor:
    @settings(max_examples=200)
    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=50),
           st.integers(min_value=2, max_value=10**4), st.sampled_from([0, 1, 5]), st.data())
    @example(85, 2, 10, 0, None)  # x = 42.5
    @example(84, 2, 10, 0, None)  # x = 42, an integer: the window's lower end or inside it
    @example(85, 2, 3, 2, None)  # the unit 12 as 3 shifted by 2
    def test_finds_the_floor_anywhere_in_the_window(self, n, m, unit, shift, data):
        # every window [low/u, high/u), u = unit 2^shift, narrower than a unit that
        # holds x = n/m gives floor(x), with one exact test at most, made only on an
        # integer inside it
        x, whole = Fraction(n, m), unit << shift
        top = math.floor(x * whole)  # low/u <= x < high/u for low <= top < high
        if data is None:
            windows = [(top - k, top + j) for k in range(whole) for j in range(1, whole - k)]
        else:
            low = data.draw(st.integers(min_value=top - whole + 2, max_value=top))
            windows = [(low, data.draw(st.integers(min_value=top + 1, max_value=low + whole - 1)))]
        for low, high in windows:
            assert Fraction(low, whole) <= x < Fraction(high, whole)
            at_or_below, calls = _below(n, m)
            assert window_floor(low, high, unit, at_or_below, shift) == math.floor(x)
            inside = [g for g in range(low // whole, high // whole + 2)
                      if Fraction(low, whole) < g < Fraction(high, whole)]
            assert calls == inside

    def test_a_window_without_an_integer_makes_no_test(self):
        at_or_below, calls = _below(85, 2)
        assert window_floor(421, 428, 10, at_or_below) == 42 and calls == []
        assert window_floor(85, 86, 2, at_or_below) == 42 and calls == []
        assert window_floor(85, 86, 1, at_or_below, 1) == 42 and calls == []

    @pytest.mark.parametrize("liar", LIARS)
    def test_lying_sign_is_refused(self, liar):
        # the window's premise is checked before its floor is taken
        at_or_below, calls = _below(85, 2)
        with pytest.raises(CertificationError, match="narrower than a unit"):
            window_floor(*LIARS[liar], at_or_below)
        low, high, unit = LIARS[liar]
        with pytest.raises(CertificationError, match="narrower than a unit"):
            window_floor(4 * low, 4 * high, unit, at_or_below, 2)
        assert calls == []

    def test_lying_sign_is_refused_without_asserts(self):
        # python -O strips assert statements; the certificate must not need them
        code = (
            "from mesolabe.scalar import CertificationError, window_floor\n"
            "print('debug', __debug__)\n"
            f"for window in {list(LIARS.values())!r}:\n"
            "    try:\n"
            "        window_floor(*window, lambda g: True)\n"
            "        print('accepted')\n"
            "    except CertificationError:\n"
            "        print('refused')\n"
        )
        src = str(Path(mesolabe.__file__).parent.parent)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.split("\n") == ["debug False", *["refused"] * len(LIARS), ""]


def ten_digit_values():
    return st.integers(min_value=-(10**12), max_value=10**12).map(lambda n: DecimalScalar(n, 10))


def _product_rows(config: ChordConfig) -> dict:
    return {r.label: r for r in reproduce_table(config).rows}


class TestMulExact:
    # the products of the table are exact: the integers multiplied, the scales added
    def test_paper_row_cbd(self):
        chords = ChordConfig(D("0.6353443923"), D("0.9311424637"), D("1.3646556077"),
                             D("2.0000000000"))
        product = _product_rows(chords)["CBD"].value
        assert product.scale == 20
        assert str(product) == "1.27068878465579869049"
        assert format_grouped(product).endswith("55798 69049")

    def test_identity(self):
        # AD = 1 makes the DAB row AB itself, widened to 20 digits
        x = D("0.9311424637")
        one = DecimalScalar(10**10, 10)
        assert _product_rows(ChordConfig(x, x, x, one))["DAB"].value == round_to(x, 20)

    def test_paper_row_abd_against_long_multiplication(self):
        a, b = "0.6353443923", "1.3646556077"
        chords = ChordConfig(D(a), D("0.9311424637"), D(b), D("2.0000000000"))
        product = _product_rows(chords)["ABD"].value
        assert str(product) == long_multiply(a, b)
        assert format_grouped(product) == "86702 62877 72943 70071"

    @given(ten_digit_values(), ten_digit_values(), ten_digit_values(), ten_digit_values())
    def test_matches_digit_array_multiplication(self, ab, bc, bd, ad):
        rows = _product_rows(ChordConfig(ab, bc, bd, ad))
        pairs = {"DAB": (ad, ab), "CBD": (bc, bd), "BC^2": (bc, bc), "ABD": (ab, bd),
                 "BD^2": (bd, bd), "ADBC": (ad, bc)}
        for label, (x, y) in pairs.items():
            assert str(rows[label].value) == long_multiply(str(x), str(y))
            assert rows[label].grouped == format_grouped(rows[label].value)


class TestRounding:
    def test_half_even(self):
        assert round_to(D("1.25"), 1) == D("1.2")
        assert round_to(D("1.35"), 1) == D("1.4")
        assert round_to(D("-1.25"), 1) == D("-1.2")

    def test_true_chord_root_rounds_to_table_value(self):
        root = DecimalScalar.from_fraction(
            Fraction(6353443923439613452610325205779, 10**31), 30
        )
        assert round_to(root, 10) == D("0.6353443923")

    def test_widening_is_exact(self):
        assert round_to(D("1.2"), 4) == DecimalScalar(12000, 4)

    def test_truncation_differs_from_rounding_on_bc(self):
        # the printed BC shows the 1682 root extraction truncated: the true
        # half-chord starts 0.93114246375..., which rounds up but floors down
        full = solve_continued_chords(D("2"), PrecisionContext(18))
        bc_true = D("0.9311424637535360533134624504")
        assert full.bc == bc_true
        assert full.table_values(10).bc == D("0.9311424637")
        assert round_to(bc_true, 10) == D("0.9311424638")

    @given(scalars(), st.integers(min_value=0, max_value=10))
    def test_round_never_moves_more_than_half_ulp(self, a, digits):
        r = round_to(a, digits)
        assert abs(r.as_fraction() - a.as_fraction()) <= Fraction(1, 2 * 10**digits)


class TestSqrt:
    def test_paper_square_root(self):
        # the BC^2 table entry is an exact square of the printed BC
        assert sqrt(D("0.86702628770530581769"), 10) == D("0.9311424637")

    def test_zero(self):
        assert sqrt(D("0"), 20) == DecimalScalar(0, 20)

    def test_sqrt_two_against_newton_oracle(self):
        expected = DecimalScalar.from_fraction(newton_sqrt(Fraction(2), 30), 10)
        for two in (D("2"), 2, Fraction(2)):
            assert sqrt(two, 10) == expected == D("1.4142135624")

    def test_negative_rejected(self):
        for negative in (D("-1"), D("-0.000001"), -1, Fraction(-1, 3)):
            with pytest.raises(ValueError):
                sqrt(negative, 5)

    def test_true_ties_go_to_even(self):
        # sqrt(0.0625) = 0.25 and sqrt(0.1225) = 0.35 are midpoints at one digit
        assert sqrt(D("0.0625"), 1) == D("0.2")
        assert sqrt(D("0.1225"), 1) == D("0.4")
        assert sqrt(Fraction(1, 16), 1) == D("0.2")

    def test_a_root_beside_a_midpoint_is_rounded_once(self):
        # 0.25 + 4 10^-18: a floor at 11 digits lands on the midpoint 0.25
        assert sqrt(D("0.062500000000000002"), 1) == D("0.3")
        assert sqrt(D("0.062499999999999998"), 1) == D("0.2")

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=30),
        st.sampled_from((-1, 0, 1)),
        st.booleans(),
    )
    @example(2, 1, 1, 0, True)  # sqrt(0.0625)
    def test_roots_beside_midpoints_match_the_oracle(self, m, digits, gap, side, as_decimal):
        # root = (m + 1/2 + side 10^-gap) 10^-digits, so its square is exact
        # at 2 (digits + gap) + 2 fractional digits
        root = Fraction(2 * m + 1, 2 * 10**digits) + side * Fraction(1, 10 ** (digits + gap))
        value = root * root
        if as_decimal:
            value = DecimalScalar.from_fraction(value, 2 * (digits + gap) + 2)
            assert value.as_fraction() == root * root
        expected = rounded_sqrt(root * root, digits)
        assert expected * 10**digits == (m + (m % 2) if side == 0 else m + (side > 0))
        result = sqrt(value, digits)
        assert result.scale == digits and result.as_fraction() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=6),
        st.sampled_from((-1, 0, 1)),
    )
    @example(0, 1, 0, 0)  # sqrt(0.0025) = 0.05, a tie that goes down to 0.0
    @example(1, 1, 3, 0)  # sqrt(0.0225) = 0.15, a tie that goes up to 0.2
    def test_half_unit_ties_in_every_form_match_the_oracle(self, h, digits, zeros, nudge):
        # the root of ((2h + 1)^2 + nudge) / (4 10^(2 digits)) is (h + 1/2) 10^-digits
        # when nudge is 0; the decimal form carries ``zeros`` trailing zeros, so
        # its n/d is not reduced and 4n/d is the odd square only after dividing
        value = Fraction((2 * h + 1) ** 2 + nudge, 4 * 10 ** (2 * digits))
        decimal = DecimalScalar.from_fraction(value, 2 * digits + 2 + zeros)
        assert decimal.as_fraction() == value
        expected = rounded_sqrt(value, digits)
        if nudge == 0:
            assert expected * 10**digits == h + h % 2
        for form in (value, decimal):
            result = sqrt(form, digits)
            assert result.scale == digits and result.as_fraction() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=10**12, max_denominator=10**12),
        st.integers(min_value=0, max_value=40),
    )
    def test_any_rational_matches_the_oracle(self, value, digits):
        assert sqrt(value, digits).as_fraction() == rounded_sqrt(value, digits)

    def test_residual_bound_random(self):
        # the half-even rounding of the root keeps |r^2 - a| below one ulp
        # for a <= 1 and below (2 sqrt(a) + 1) ulp in general
        rng = random.Random(1682)
        tol = Fraction(1, 10**20)
        for _ in range(1000):
            a = DecimalScalar(rng.randint(0, 10**8), 4)  # [0, 10^4]
            r = sqrt(a, 20)
            residual = abs(r.as_fraction() ** 2 - a.as_fraction())
            bound = tol * (2 * math.isqrt(int(a.as_fraction())) + 3)
            assert residual < bound
            if a.as_fraction() <= 1:
                assert residual < tol


class TestHalfEven:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
           st.integers(min_value=1, max_value=10**4))
    @example(Fraction(5, 2), 1)  # ties: 2.5 to 2, 3.5 to 4, -2.5 to -2
    @example(Fraction(7, 2), 3)
    @example(Fraction(-5, 2), 2)
    def test_rounds_from_the_floor_and_asks_only_at_a_tie_to_go_down(self, x, n):
        asked = []

        def tie():
            asked.append(x)
            return (2 * n * x).denominator == 1
        f = math.floor(2 * n * x)
        assert _half_even(f, n, tie) == round(x)  # round is half-even
        # asked only when f / n is an integer g = 1 (mod 4)
        assert bool(asked) == (f % n == 0 and f // n % 4 == 1)
        # a quotient p/q is its own floor at f = 2p, n = q, so it needs no tie test
        assert _half_even(2 * x.numerator, x.denominator) == round(x)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**9, 10**9), st.integers(1, 10**4), st.integers(0, 6),
           st.integers(0, 6), st.booleans())
    @example(2, 1, 2, 1, True)  # 0.025 to 0.02 at 2 digits, 0.25 to 0.2 at 1
    @example(1, 1, 2, 1, True)  # 0.015 to 0.02, 0.15 to 0.2
    @example(-1, 1, 2, 1, True)  # -0.005 to 0.00, -0.05 to 0.0
    def test_every_rounding_is_pythons_round(self, k, q, scale, digits, tie):
        # from_fraction, round_to and the figures' coordinates all round by
        # _half_even; round is half-even on the exact value, ties included
        p = 2 * k + 1 if tie else k
        if tie:  # p/q halfway between two values at scale
            q = 2 * 10**scale
        x = Fraction(p, q)
        value = DecimalScalar.from_fraction(x, scale)
        assert value == DecimalScalar(round(x * 10**scale), scale)
        if tie and digits < scale:  # a value halfway between two at digits
            value = DecimalScalar(p * 5 * 10 ** (scale - digits - 1), scale)
        assert round_to(value, digits) == DecimalScalar(
            round(value.as_fraction() * 10**digits), digits)
        assert figures._fmt((p, q)) == str(DecimalScalar(round(x * 100), 2))


class TestCubeRoot:
    def test_exact_roots_and_their_ties(self):
        # cbrt(125/64) = 1.25 and cbrt(15625/4096) = 1.5625: ties to even
        assert cbrt(Fraction(125, 64), 6, 1) == (D("1.250000"), D("1.2"))
        assert cbrt(Fraction(15625, 4096), 8, 3) == (D("1.56250000"), D("1.562"))
        assert cbrt(Fraction(3375, 512), 6, 2) == (D("1.875000"), D("1.88"))
        assert cbrt(8, 5, 1) == (D("2.00000"), D("2.0"))
        assert cbrt(0, 5, 1) == (D("0.00000"), D("0.0"))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cbrt(Fraction(-1, 8), 5, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**20),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=30),
        st.sampled_from((-1, 0, 1)),
    )
    @example(2, 1, 5, 1, 0)  # cbrt(0.015625) = 0.25: a tie down to 0.2
    def test_roots_beside_midpoints_match_the_oracle(self, m, digits, guard, gap, side):
        # root = (m + 1/2 + side 10^-gap) 10^-digits: on or beside a midpoint at ``digits``
        root = Fraction(2 * m + 1, 2 * 10**digits) + side * Fraction(1, 10 ** (digits + gap))
        value = root**3
        full, shown = cbrt(value, digits + guard, digits)
        assert shown.scale == digits and shown.as_fraction() == rounded_cbrt(value, digits)
        assert full.scale == digits + guard
        assert full.as_fraction() == rounded_cbrt(value, digits + guard)
        if side == 0:
            assert shown.unscaled == m + m % 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=10**12, max_denominator=10**12),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=20),
    )
    def test_any_rational_matches_the_oracle(self, value, digits, guard):
        full, shown = cbrt(value, digits + guard, digits)
        assert shown.as_fraction() == rounded_cbrt(value, digits)
        assert full.as_fraction() == rounded_cbrt(value, digits + guard)


def sized_integers(max_bits: int):
    """Integers of every bit length up to ``max_bits``, not just the long ones."""
    return st.integers(min_value=0, max_value=max_bits).flatmap(
        lambda bits: st.integers(min_value=0, max_value=2**bits)
    )


class TestIntegerCubeRoot:
    # up to about 10^4000, so the recursive start above 192 bits runs at every depth
    @settings(max_examples=200, deadline=None)
    @given(sized_integers(13300))
    @example(10**4000)
    @example(2**192 - 1)  # the last radicand of the plain Newton loop
    @example(2**192)  # the first of the one-step start
    @example(2**192 + 1)
    @example(2**193 - 1)
    def test_floor_cube_root(self, n):
        r = _icbrt(n)
        assert r**3 <= n < (r + 1) ** 3

    # r^3 for r near 2^64 straddles the 192-bit switch
    @settings(max_examples=200, deadline=None)
    @given(sized_integers(4430).map(lambda n: n + 1))
    @example(2**64 - 1)
    @example(2**64)
    @example(2**64 + 1)
    @example(2**64 + 2)
    def test_floor_cube_root_beside_exact_cubes(self, r):
        assert (_icbrt(r**3 - 1), _icbrt(r**3), _icbrt(r**3 + 1)) == (r - 1, r, r)


class TestRationalExactness:
    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6),
    )
    def test_recombination_and_lowest_terms(self, a, b):
        total = a + b
        assert total - b == a
        assert math.gcd(total.numerator, total.denominator) == 1
        assert total.denominator > 0


#: Per record class: how many small ints make one, and a one-to-one maker.
RECORD_MAKERS = {
    "Point3": (3, Point3),
    "DecimalScalar": (2, DecimalScalar),
    "ChordConfig": (2, lambda d, w: solve_continued_chords(d + 1, PrecisionContext(w + 1))),
}


class TestValueRecord:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RECORD_MAKERS)), st.data())
    def test_records_are_equal_exactly_when_their_fields_are(self, name, data):
        arity, make = RECORD_MAKERS[name]
        fields = st.tuples(*[st.integers(0, 1)] * arity)
        u, v = data.draw(fields), data.draw(fields)
        a, b = make(*u), make(*v)
        assert a is not b
        assert (a == b) == (u == v) == (a.as_dict() == b.as_dict()) != (a != b)
        if a == b:
            assert hash(a) == hash(b) and len({a, b}) == 1

    @given(st.fractions(), st.integers(0, 5))
    def test_records_of_two_classes_with_the_same_fields_are_unequal(self, x, n):
        y = abs(x) + 1
        for a, b in ((DecimalScalar(1, 5), PrecisionContext(1, 5)),
                     (PrecisionContext(n + 1, n + 5), DecimalScalar(n + 1, n + 5)),
                     (Point3(y, y, y), RightPyramid(y, y, y))):
            assert tuple(a.as_dict().values()) == tuple(b.as_dict().values())
            assert a != b and b != a and not a == b

    def test_records_compare_hash_and_print_by_value(self):
        ctx = PrecisionContext(30, 10)
        same = PrecisionContext(30, 10)
        assert ctx is not same and ctx == same and hash(ctx) == hash(same)
        assert ctx != PrecisionContext(31, 10) and ctx != (30, 10)
        assert ctx.as_dict() == {"output_digits": 30, "guard_digits": 10}
        assert repr(ctx) == "PrecisionContext(output_digits=30, guard_digits=10)"
        state = InstrumentState(Fraction(1), Fraction(2), Fraction(1, 3))
        assert state == InstrumentState(1, 2, Fraction(1, 3)) != ctx
        assert hash(state) == hash(InstrumentState(1, 2, Fraction(1, 3)))
        assert repr(state) == (
            "InstrumentState(a=Fraction(1, 1), b=Fraction(2, 1), t=Fraction(1, 3))")

    def test_fields_are_given_in_order(self):
        config = ChordConfig(1, 2, 3, 4)
        assert (config.ab, config.bc, config.bd, config.ad, config.roots) == (1, 2, 3, 4, None)
        assert ChordConfig(1, 2, 3, 4, 5).roots == 5
        for values in ((1, 2, 3), (1, 2, 3, 4, 5, 6)):
            with pytest.raises(TypeError, match="ChordConfig"):
                ChordConfig(*values)

    def test_slots_only(self):
        for record in (PrecisionContext(), DecimalScalar(1), InstrumentState(1, 2, 0)):
            assert not hasattr(record, "__dict__")


class TestPrecisionContext:
    def test_default(self):
        ctx = PrecisionContext()
        assert (ctx.work_digits, ctx.output_digits, ctx.guard_digits) == (30, 20, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(0, 10)
        with pytest.raises(ValueError):
            PrecisionContext(20, 4)

    def test_for_output(self):
        ctx = PrecisionContext(20)
        assert ctx.work_digits == 30
        assert PrecisionContext.for_output(20) == ctx  # the older trees' name

    def test_work_digits_are_output_plus_guard(self):
        ctx = PrecisionContext(7, 5)
        assert ctx.work_digits == 12 and ctx == PrecisionContext(output_digits=7, guard_digits=5)
