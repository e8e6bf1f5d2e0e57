from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mesolabe import proportio
from mesolabe.euclid import check_19_7, check_20_7
from mesolabe.proportio import (
    ChordConfig,
    arc_points,
    chord_table,
    four_proportionals_planar,
    four_proportionals_sphere,
    quad_exact,
    reproduce_table,
    solve_continued_chords,
    sphere_construction,
    true_product_rows,
)
from mesolabe.pyramid import Point3
from mesolabe.cli import main
from mesolabe.scalar import (
    CertificationError,
    DecimalScalar,
    PrecisionContext,
    sqrt,
    unit_circle_ints,
)

from oracles import (
    CHORD_RATIO,
    _cross3,
    _dot,
    _on_unit_circle,
    _sub,
    chord_digits,
    chord_lengths,
    in_continued_proportion,
    proportion_defect,
    rounded,
    small_chord_terms,
)

D = DecimalScalar.from_str
F = Fraction

CTX10 = PrecisionContext(10)
CTX20 = PrecisionContext(20)


@pytest.fixture(scope="module")
def solved():
    return solve_continued_chords(D("2"), CTX20)


class TestChordSolver:
    def test_matches_ratio_oracle_at_30_digits(self, solved):
        ab, bc, bd = chord_lengths(F(2), 40)
        assert solved.ab == DecimalScalar.from_fraction(ab, 30)
        assert solved.bc == DecimalScalar.from_fraction(bc, 30)
        assert solved.bd == DecimalScalar.from_fraction(bd, 30)

    def test_table_values_reproduce_the_print(self, solved):
        t = solved.table_values(10)
        assert str(t.ab) == "0.6353443923"
        assert str(t.bc) == "0.9311424637"
        assert str(t.bd) == "1.3646556077"
        assert str(t.ad) == "2.0000000000"

    def test_table_values_refuse_digits_past_the_work_digits(self):
        # 6 work digits: the floor at 6 digits padded with zeros is not the floor at 7
        full = solve_continued_chords(D("2"), PrecisionContext(1, 5))
        assert str(full.table_values(6).ab) == "0.635344"
        for digits in (7, 10):
            with pytest.raises(ValueError, match="exceed the 6 work digits"):
                full.table_values(digits)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=35),
    )
    @example(31478911659571980921, 20, 1, 1)  # AB = 0.09999975..., its full value 0.100000
    @example(2, 0, 1, 6)  # table digits at the 6 work digits
    @example(129996, 5, 1, 4)  # AD = 1.3000, read off 1.299960 through its nines
    @example(99996, 5, 1, 4)  # AD = 1.0000, whose carry reaches the integer part
    def test_table_values_floor_the_roots(self, unscaled, scale, digits, table_digits):
        # table digits up to the 6 to 35 work digits: AB and BC are the exact roots floored
        assume(table_digits <= digits + 5)
        d = DecimalScalar(unscaled, scale)
        full = solve_continued_chords(d, PrecisionContext(digits, 5))
        df = d.as_fraction()
        t = full.table_values(table_digits)
        assert all(v.scale == table_digits for v in t.terms())
        for floored, power in ((t.ab, 3), (t.bc, 2)):
            assert floored.as_fraction() == chord_digits(df, power, table_digits)[0]
        assert t.ad.as_fraction() == rounded(df, table_digits)
        assert t.bd.as_fraction() == t.ad.as_fraction() - t.ab.as_fraction()
        # chord_texts converts them once: the table's and the full values' texts
        texts = proportio.chord_texts(full, table_digits)
        assert list(texts) == ["AD", "AB", "BC", "BD"]
        for label, shown, value in (("AD", t.ad, full.ad), ("AB", t.ab, full.ab),
                                    ("BC", t.bc, full.bc), ("BD", t.bd, full.bd)):
            assert texts[label] == (str(shown), str(value))

    def test_complement_is_exact(self, solved):
        ab, bd, ad = (v.as_fraction() for v in (solved.ab, solved.bd, solved.ad))
        assert ab + bd == ad
        table = solved.table_values(10)
        assert table.ab.as_fraction() + table.bd.as_fraction() == 2

    def test_cubic_residual_below_output_ulp(self, solved):
        x, d = solved.ab.as_fraction(), solved.ad.as_fraction()
        assert abs((d - x) ** 3 - d * d * x) < F(1, 10**20)

    def test_continued_proportion_invariants(self, solved):
        assert in_continued_proportion([v.as_fraction() for v in solved.terms()], 20)

    def test_uniqueness_bracketing(self, solved):
        # the cubic is strictly decreasing, so the root is the only sign change
        d, x = solved.ad.as_fraction(), solved.ab.as_fraction()
        step = F(1, 100)
        below = (d - (x - step)) * (d - (x - step)) * (d - (x - step)) - d * d * (x - step)
        above = (d - (x + step)) * (d - (x + step)) * (d - (x + step)) - d * d * (x + step)
        assert below > 0 > above

    def test_half_diameter_scales_solution(self, solved):
        half = solve_continued_chords(D("1"), CTX20)
        ab_half, _, _ = chord_lengths(F(1), 40)
        assert half.ab == DecimalScalar.from_fraction(ab_half, 30)
        two_x = 2 * half.ab.as_fraction()
        assert abs(two_x - solved.ab.as_fraction()) <= F(2, 10**30)

    def test_rejects_nonpositive_diameter(self):
        with pytest.raises(ValueError):
            solve_continued_chords(D("0"), CTX10)
        with pytest.raises(ValueError):
            solve_continued_chords(D("-2"), CTX10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9999))
    def test_random_diameters_pass_checks(self, hundredths):
        d = DecimalScalar(hundredths, 2)
        cfg = solve_continued_chords(d, CTX10)
        assert in_continued_proportion([v.as_fraction() for v in cfg.terms()], 10)
        assert cfg.ab.as_fraction() + cfg.bd.as_fraction() == cfg.ad.as_fraction()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=60),
    )
    def test_ab_is_the_correctly_rounded_root(self, unscaled, scale, digits):
        d = DecimalScalar(unscaled, scale)
        ctx = PrecisionContext(digits)
        w = ctx.work_digits
        # the oracle's error is far below 10^-(w + 20); the root is irrational,
        # so it never sits that close to a rounding midpoint
        ab, _, _ = chord_lengths(d.as_fraction(), w + 20)
        assert solve_continued_chords(d, ctx).ab == DecimalScalar.from_fraction(ab, w)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**40),
        st.integers(min_value=0, max_value=45),
        st.integers(min_value=1, max_value=30),
    )
    @example(125, 12, 1)  # ties at the 11 work digits, one down and one up
    @example(135, 12, 1)
    def test_decimal_and_fraction_diameters_agree(self, unscaled, scale, digits):
        # AD is the diameter rounded half-even to the work grid, whether the
        # diameter comes as a DecimalScalar or as its Fraction, and whether
        # its scale lies below or above the work digits
        d = DecimalScalar(unscaled, scale)
        ctx = PrecisionContext(digits)
        assert solve_continued_chords(d, ctx) == solve_continued_chords(d.as_fraction(), ctx)

    @pytest.mark.parametrize("digits", [300, 1000])
    def test_sign_evaluations_per_solve_are_few(self, digits, monkeypatch):
        # two windows per solve, AB's and BC's, and at most one exact test each
        windows, tests = _counted_windows(monkeypatch)
        for d in ("2", "7.31", "19.999", "0.001"):
            solve_continued_chords(D(d), PrecisionContext(digits))
        assert len(windows) == 8
        assert len(tests) <= 8



def _unit_f(v: int, bits: int) -> int:
    """2^(3 bits) (x^3 - 3x^2 + 4x - 1) at x = v / 2^bits: increasing, zero at u."""
    s = 1 << bits
    return v**3 - 3 * v * v * s + 4 * v * s * s - s**3


def _chords_by_cubic_signs(d: DecimalScalar, ctx: PrecisionContext) -> ChordConfig:
    """The solver's configuration, with floor(2 10^w AB) and floor(2 10^w BC) bisected
    on exact signs alone: the chord cubic for AB, and for BC = (d - AB)^2 / d the
    test X (X + d)^2 <= d^3 of X <= BC."""
    df = d.as_fraction()
    p, q, w = df.numerator, df.denominator, ctx.work_digits
    m = 2 * 10**w  # x/m = X on the half-grid

    def below_ab(x: int) -> bool:  # (d - X)^3 > d^2 X: X below AB
        return (p * m - x * q) ** 3 > p * p * q * m * m * x

    def below_bc(x: int) -> bool:  # X (X + d)^2 <= d^3, cleared of m and q
        return x * q * (x * q + p * m) ** 2 <= (p * m) ** 3

    def floor(below) -> int:
        lo, hi = 0, p * m // q + 1  # X = 0 lies below AB and BC, X > d above them
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return lo

    twice_ab, twice_bc = floor(below_ab), floor(below_bc)
    ab, bc = (twice_ab + 1) // 2, (twice_bc + 1) // 2
    ad = DecimalScalar.from_fraction(df, w)
    return ChordConfig(DecimalScalar(ab, w), DecimalScalar(bc, w),
                       DecimalScalar(ad.unscaled - ab, w), ad, (df, twice_ab, twice_bc))


def _counted_windows(monkeypatch):
    """Lists of the windows ``proportio.window_floor`` takes and of the exact tests it
    makes, each test as (the index of its window, the integer tested)."""
    windows, tests = [], []
    real = proportio.window_floor

    def counted(low, high, unit, at_or_below, shift=0):
        windows.append((low, high, unit, shift))
        k = len(windows) - 1
        return real(low, high, unit, lambda g: tests.append((k, g)) or at_or_below(g), shift)
    monkeypatch.setattr(proportio, "window_floor", counted)
    return windows, tests


def _diameter(unscaled: int, exponent: int) -> DecimalScalar:
    """unscaled 10^exponent as a DecimalScalar."""
    if exponent >= 0:
        return DecimalScalar(unscaled * 10**exponent, 0)
    return DecimalScalar(unscaled, -exponent)


#: (diameter, digits, guard) whose AB lies within 10^-20 of a work-grid point
#: (the first and third) or of a cell midpoint (the others): d = N / (u 10^w),
#: to 40 digits past the work digits, for N an integer or an odd half.
#: The bracket on u cannot decide the sign there, so the chord cubic runs.
BESIDE_A_CELL_EDGE = (
    ("1.9999999989172444129330742989553794893227249204131888403923562216799637", 20, 10),
    ("1.9999999989172444129330742989569534388405773140902019478748217153624221", 20, 10),
    ("99999999945862220646653714947768974466136246."
     "0206594420196178110839981838670075378461049650155012880", 5, 10),
    ("0.0000000000000000000000000000299999999837586677679456323367243693529483562716915150643",
     40, 5),
    ("7.0000003991414320154785413616993437237959199308", 1, 5),
)


def _beside_an_edge(digits: int, guard: int, size: F, half: bool, side: int,
                    chord: int = 0) -> str:
    """A diameter near ``size`` whose AB (``chord`` 0) or BC (``chord`` 1) lies
    10^-25 grid units to ``side`` of an edge.

    The edge is the grid point (or, with ``half``, the midpoint above it)
    nearest to size c 10^w, for c = u = AB / AD or c = (1 - u)^2 = BC / AD;
    d = (edge + side 10^-25) / (c 10^w), to 45 digits past the work digits,
    with c from the oracle's ratio-form bisection.
    """
    w = digits + guard
    c = chord_lengths(F(1), w + 90)[chord]
    ratio = (CHORD_RATIO, (1 - CHORD_RATIO) ** 2)[chord]
    edge = round(size * ratio * 10**w) + F(half, 2)
    unscaled = round((edge + F(side, 10**25)) / (c * 10**w) * 10 ** (w + 45))
    return str(DecimalScalar(unscaled, w + 45))


#: More diameters beside an edge: a grid point and a midpoint, below and above
#: AB, at four precisions and diameters from 10^-29 to 10^44.
BESIDE_AN_EDGE = tuple(
    (_beside_an_edge(digits, guard, size, half, side), digits, guard)
    for digits, guard, size in ((1, 5, F(7)), (20, 10, F(2)), (5, 10, F(10**44)),
                                (40, 5, F(3, 10**29)))
    for half in (False, True) for side in (-1, 1))
#: The same for BC, whose window then holds the edge, so its exact test runs.
BC_BESIDE_AN_EDGE = tuple(
    (_beside_an_edge(digits, guard, size, half, side, 1), digits, guard)
    for digits, guard, size in ((1, 5, F(7)), (20, 10, F(2)), (5, 10, F(10**44)),
                                (40, 5, F(3, 10**29)))
    for half in (False, True) for side in (-1, 1))


def _cubic(d: F, x: F) -> F:
    """The chord residual (d - x)^3 - d^2 x: positive below AB, negative above."""
    return (d - x) ** 3 - d * d * x


def _beside_a_cell_edge(test):
    """``test`` with an ``@example`` (unscaled, exponent, digits, guard) per diameter
    of :data:`BESIDE_A_CELL_EDGE`."""
    for diameter, digits, guard in BESIDE_A_CELL_EDGE:
        d = D(diameter)
        test = example(d.unscaled, -d.scale, digits, guard)(test)
    return test


class TestUnitBracket:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=14_000))
    @example(1)
    @example(3)
    @example(4)
    @example(14_000)
    def test_unit_ratio_brackets_the_root(self, bits):
        u = proportio._unit_ratio(bits)
        assert _unit_f(u - 1, bits) < 0 < _unit_f(u + 1, bits)

    def test_the_machine_word_is_the_floor_of_u(self):
        # F(U) < 0 < F(U + 1) at 64 bits, by direct cubes: U = floor(u 2^64), and
        # each shorter U, shifted down from it, is the floor at its own bits
        assert _unit_f(proportio._UNIT_64, 64) < 0 < _unit_f(proportio._UNIT_64 + 1, 64)
        for bits in range(65):
            u = proportio._unit_ratio(bits)
            assert _unit_f(u, bits) < 0 < _unit_f(u + 1, bits)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**15 - 1),
        st.integers(min_value=-45, max_value=30),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=5, max_value=14),
    )
    @_beside_a_cell_edge
    def test_solver_equals_cubic_signs_only(self, unscaled, exponent, digits, guard):
        # diameters from 10^-45 to under 10^45
        d = _diameter(unscaled, exponent)
        ctx = PrecisionContext(digits, guard)
        assert solve_continued_chords(d, ctx) == _chords_by_cubic_signs(d, ctx)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=-2, max_value=2**64 + 2))
    @example(2, 0)
    @example(2, 1)
    @example(5, 11)
    def test_the_taylor_bracket_is_the_direct_one(self, bits, v):
        v %= (1 << bits) + 3  # 0 to S + 2, where S = 2^bits
        expected = _unit_f(v - 1, bits) < 0 < _unit_f(v + 1, bits)
        assert proportio._brackets_unit(v, bits) == expected
        u = proportio._unit_ratio(bits)
        assert [proportio._brackets_unit(u + e, bits) for e in (-2, -1, 0, 1, 2)] == [
            _unit_f(u + e - 1, bits) < 0 < _unit_f(u + e + 1, bits) for e in (-2, -1, 0, 1, 2)]

    @pytest.mark.parametrize("diameter, digits, guard", BESIDE_A_CELL_EDGE + BESIDE_AN_EDGE)
    def test_a_root_beside_a_cell_edge_runs_the_cubic(self, diameter, digits, guard, monkeypatch):
        d, ctx = D(diameter), PrecisionContext(digits, guard)
        df, grid, near = d.as_fraction(), 10 ** ctx.work_digits, F(1, 10**20)
        # the nearest grid point or midpoint to AB, and by exact signs within 10^-20 of it
        edge = F(round(2 * chord_lengths(df, ctx.work_digits + 65)[0] * grid), 2)
        assert _cubic(df, (edge - near) / grid) > 0 > _cubic(df, (edge + near) / grid)
        expected = _chords_by_cubic_signs(d, ctx)
        windows, tests = _counted_windows(monkeypatch)
        assert solve_continued_chords(d, ctx) == expected
        assert [k for k, _ in tests] == [0]  # AB's window holds the edge
        # U is mostly just above u 2^B; U - 1 then brackets u too, from below, and
        # U + 1 fails the check: every U the check lets through must serve, and
        # one it refuses raises
        unit_ratio = proportio._unit_ratio
        for off in (-1, 1):
            given = []  # (bits, U) per call, the solver's own call last

            def shifted(bits):
                given.append((bits, unit_ratio(bits) + off))
                return given[-1][1]
            monkeypatch.setattr(proportio, "_unit_ratio", shifted)
            try:
                assert solve_continued_chords(d, ctx) == expected
            except CertificationError:
                bits, u = given[-1]
                assert not proportio._brackets_unit(u, bits)

    @pytest.mark.parametrize("diameter, digits, guard", BC_BESIDE_AN_EDGE)
    def test_a_bc_beside_a_cell_edge_runs_its_test(self, diameter, digits, guard, monkeypatch):
        d, ctx = D(diameter), PrecisionContext(digits, guard)
        df, grid, near = d.as_fraction(), 10 ** ctx.work_digits, F(1, 10**20)
        # BC within 10^-20 of the edge, by the signs of X (X + d)^2 - d^3, rising in X
        edge = F(round(2 * chord_lengths(df, ctx.work_digits + 65)[1] * grid), 2)
        low, high = (edge - near) / grid, (edge + near) / grid
        assert low * (low + df) ** 2 < df**3 < high * (high + df) ** 2
        windows, tests = _counted_windows(monkeypatch)
        assert solve_continued_chords(d, ctx) == _chords_by_cubic_signs(d, ctx)
        assert [k for k, _ in tests] == [1]  # BC's window holds the edge, AB's does not

    @pytest.mark.parametrize("off", [-2, 2, 10**6])
    @pytest.mark.parametrize("diameter, digits", [("2", 20), ("7.31", 300), ("0.001", 5)])
    def test_a_failed_bracket_raises(self, diameter, digits, off, monkeypatch, capsys):
        # a U two units or more off u 2^B fails its check: no chord is printed,
        # and the CLI reports a failed certification in one line, exit 1
        real = proportio._unit_ratio
        monkeypatch.setattr(proportio, "_unit_ratio", lambda bits: real(bits) + off)
        windows, _ = _counted_windows(monkeypatch)
        with pytest.raises(CertificationError, match="not bracketed"):
            solve_continued_chords(D(diameter), PrecisionContext(digits))
        assert not windows
        assert main(["solve-chords", "--diameter", diameter, "--digits", str(digits)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("digits", [20, 300, 1000])
    def test_the_bracket_decides_ordinary_signs(self, digits, monkeypatch):
        # two windows per solve and no exact test
        windows, tests = _counted_windows(monkeypatch)
        for d in ("2", "7.31", "19.999", "0.001", "1" + "0" * 40):
            solve_continued_chords(D(d), PrecisionContext(digits))
        assert len(windows) == 10 and not tests


class TestPaperTable:
    def test_chord_rows_annotated(self, solved):
        table = chord_table(solved.table_values(10))
        printed = {r.label: r.printed for r in table.rows}
        assert printed == {
            "AD": "2 00000 00000",
            "AB": "63534 43923",
            "BC": "93114 24637",
            "BD": "1 36465 56077",
        }
        assert all(r.grouped == r.printed for r in table.rows)

    def test_products_are_exact_twenty_digit_values(self, solved):
        rows = {r.label: r for r in reproduce_table(solved.table_values(10)).rows}
        assert str(rows["DAB"].value) == "1.27068878460000000000"
        assert str(rows["CBD"].value) == "1.27068878465579869049"
        assert str(rows["BC^2"].value) == "0.86702628770530581769"
        assert str(rows["ABD"].value) == "0.86702628777294370071"
        assert str(rows["BD^2"].value) == "1.86228492762705629929"
        assert str(rows["ADBC"].value) == "1.86228492740000000000"
        assert all(r.value.scale == 20 for r in rows.values())

    def test_misprints_flagged_not_matched(self, solved):
        rows = {r.label: r for r in reproduce_table(solved.table_values(10)).rows}
        assert {label for label, r in rows.items() if r.is_misprint} == {"DAB", "CBD", "BD^2"}
        assert rows["DAB"].printed == "1 17068 87846 00000 00000"
        assert rows["DAB"].grouped == "1 27068 87846 00000 00000"
        assert rows["BD^2"].printed == "1 86288 49276 27056 29929"
        assert rows["BD^2"].grouped == "1 86228 49276 27056 29929"
        assert rows["ADBC"].grouped == rows["ADBC"].printed

    def test_product_tails_match_print(self, solved):
        rows = {r.label: r for r in reproduce_table(solved.table_values(10)).rows}
        assert rows["CBD"].grouped.endswith("55798 69049")
        assert rows["BD^2"].grouped.endswith("27056 29929")
        assert rows["BC^2"].grouped.endswith("05305 81769")
        assert rows["ABD"].grouped.endswith("72943 70071")

    def test_non_ten_digit_inputs_rejected(self, solved):
        with pytest.raises(ValueError):
            reproduce_table(solved)

    def test_non_canonical_values_carry_no_printed_column(self):
        cfg = solve_continued_chords(D("3"), CTX10).table_values(10)
        assert all(r.printed is None for r in reproduce_table(cfg).rows)

    def test_true_product_contrast_rows(self, solved):
        rows = {r.label: r for r in true_product_rows(solved).rows}
        # the unrounded BC^2 and ABD agree to all twenty digits, unlike the
        # rounded products, which is the whole point of the contrast table
        assert rows["BC^2"].value == rows["ABD"].value


class TestQuadExact:
    def test_parameter_one_half(self):
        af, ae, ad, ac = quad_exact(F(2), F(1, 2))
        assert (af, ae, ad, ac) == (F(54, 125), F(18, 25), F(6, 5), F(2))
        assert check_19_7(af, ae, ad, ac)
        assert af * ac == ae * ad
        assert check_20_7(af, ae, ad)
        assert check_20_7(ae, ad, ac)

    def test_out_of_range_parameter(self):
        for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError):
                quad_exact(F(2), bad)

    @given(st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50))
    def test_rational_quads_pass_euclid_checks(self, t):
        af, ae, ad, ac = quad_exact(F(2), t)
        assert check_19_7(af, ae, ad, ac)
        assert check_20_7(af, ae, ad)
        assert check_20_7(ae, ad, ac)


def _divided_out(ac: Fraction, t: Fraction) -> dict:
    """The points of :func:`arc_points` as Fraction points."""
    points, den = arc_points(ac, t)
    return {name: Point3(*(F(c, den) for c in p)) for name, p in points.items()}


class TestPlanarConstruction:
    @given(st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40))
    def test_feet_are_exact_perpendicular_projections(self, t):
        pts = _divided_out(F(2), t)
        a, c, d, e, f = pts["A"], pts["C"], pts["D"], pts["E"], pts["F"]
        # D on the circle with diameter AC
        center = type(a)(F(1), F(0), F(0))
        assert (d - center).norm_sq() == 1
        # E under D on AC, F on AD with EF perpendicular to AD
        assert e.y == 0 and e.x == d.x
        assert (f - e).dot(d - a) == 0
        assert f.cross(d).norm_sq() == 0  # F lies on the line AD

    def test_scene_is_exact(self):
        b, t = F(2), F(1, 3)
        pts = _divided_out(b, t)
        a, c, d, e, f = pts["A"], pts["C"], pts["D"], pts["E"], pts["F"]
        assert (a, c) == (Point3(F(0), F(0), F(0)), Point3(b, F(0), F(0)))
        # D on the semicircle over AC
        assert (d + d - (a + c)).norm_sq() == b * b and d.y > 0
        # E under D, EF perpendicular to the ruler AD, F on the ruler
        assert e.x == d.x and e.y == 0
        assert (f - e).dot(d) == 0
        assert f.cross(d).norm_sq() == 0
        x, _, w = unit_circle_ints(t.numerator, t.denominator)
        assert f.norm_sq() == (b * F(x, w) ** 3) ** 2

    def test_af_strictly_decreasing_along_arc(self):
        values = [_divided_out(F(2), F(i, 20))["F"].norm_sq() for i in range(0, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_arc_ends_are_in_range(self):
        assert _divided_out(F(2), F(0))["D"] == Point3(F(2), F(0), F(0))
        assert _divided_out(F(2), F(1))["D"] == Point3(F(0), F(0), F(0))
        for bad in (F(-1, 2), F(3, 2), F(-1, 10**9), 1 + F(1, 10**9)):
            with pytest.raises(ValueError, match=r"^arc parameter must lie in \[0, 1\]$"):
                _divided_out(F(2), bad)
        for bad in (F(0), F(1)):
            with pytest.raises(ValueError):
                sphere_construction(F(2), bad)

    def test_forty_five_degree_case(self):
        # t = tan(22.5 deg) = sqrt(2) - 1, taken from the root extraction
        t = sqrt(D("2"), 30).as_fraction() - 1
        quad = four_proportionals_planar(D("2"), t)
        rounded = [DecimalScalar.from_fraction(v, 10) for v in quad]
        assert [str(v) for v in rounded] == [
            "0.7071067812",
            "1.0000000000",
            "1.4142135624",
            "2.0000000000",
        ]

    def test_limit_toward_c_is_monotone(self):
        previous = None
        for t in (F(1, 10), F(1, 100), F(1, 1000)):
            quad = four_proportionals_planar(D("2"), t)
            if previous is not None:
                pairs = zip(previous[:3], quad[:3])
                assert all(small < big for small, big in pairs)
            assert quad[3] == 2
            previous = quad
        assert all(v <= 2 for v in previous)

    def test_quad_is_exact(self):
        quad = four_proportionals_planar(D("2.5"), F(1, 3))
        assert quad == quad_exact(F(5, 2), F(1, 3)) == (F(32, 25), F(8, 5), F(2), F(5, 2))

    def test_quad_invariants_at_output_tolerance(self):
        quad = four_proportionals_planar(D("2"), F(2, 7))
        terms = [DecimalScalar.from_fraction(v, CTX20.work_digits).as_fraction()
                 for v in quad]
        assert in_continued_proportion(terms, 20)


def _oracle_sphere_points(ac: Fraction, t: Fraction) -> dict:
    """A, C, D, E, F, G as tuples, from the chain AD = AC k, AF = AC k^3, FG = AC k^2 s."""
    k, s = _on_unit_circle(t)
    ad, af = ac * k, ac * k**3
    return {
        "A": (0, 0, 0),
        "D": (ad * k, ad * s, 0),
        "E": (ad * k, 0, 0),
        "F": (af * k, af * s, 0),
        "G": (af * k, af * s, ac * k * k * s),
        "C": (ac, 0, 0),
    }


positive_fractions = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
interior_parameters = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda t: 0 < t < 1
)


class TestSphereConstruction:
    @given(st.fractions(min_value=F(1, 30), max_value=F(29, 30), max_denominator=30))
    def test_quad_matches_planar_exactly(self, t):
        planar = four_proportionals_planar(D("2"), t)
        spherical = four_proportionals_sphere(D("2"), t)
        assert planar == spherical

    @given(st.fractions(min_value=F(1, 30), max_value=F(29, 30), max_denominator=30))
    def test_planes_exactly_perpendicular(self, t):
        pts = sphere_construction(F(2), t)
        a, d, g, e = pts["A"], pts["D"], pts["G"], pts["E"]
        n_base = (d - a).cross(e - a)
        n_lift = (d - a).cross(g - a)
        assert n_base.dot(n_lift) == 0
        assert g.z > 0

    def test_lifted_point_reproduces_second_proportional(self):
        t = F(1, 3)
        pts = sphere_construction(F(2), t)
        _, ae, _, _ = quad_exact(F(2), t)
        assert pts["G"].norm_sq() == ae * ae

    @settings(max_examples=60, deadline=None)
    @given(positive_fractions, interior_parameters)
    def test_points_match_the_oracle_construction(self, ac, t):
        assert sphere_construction(ac, t) == {
            name: Point3(*p) for name, p in _oracle_sphere_points(ac, t).items()
        }

    @settings(max_examples=60, deadline=None)
    @given(positive_fractions, st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    @example(F(2), F(0))  # D at C
    @example(F(7, 3), F(1))  # D at A
    def test_arc_points_match_the_oracle_construction_on_the_closed_arc(self, ac, t):
        points, den = arc_points(ac, t)
        assert den > 0 and all(type(c) is int for p in points.values() for c in p)
        assert {name: tuple(F(c, den) for c in p) for name, p in points.items()} == (
            _oracle_sphere_points(ac, t))

    @settings(max_examples=60, deadline=None)
    @given(positive_fractions, interior_parameters)
    def test_oracle_lift_is_perpendicular_and_reproduces_ae(self, ac, t):
        # the identities the construction relies on, checked on points that
        # share no code with it
        pts = _oracle_sphere_points(ac, t)
        a, d, e, f, g = (pts[name] for name in "ADEFG")
        assert _cross3(_sub(d, a), _sub(g, a))[2] == 0
        assert _dot(_sub(g, a), _sub(g, a)) == _dot(_sub(e, a), _sub(e, a))
        # G on the semicircle over AD: FG^2 = AF * FD, both sides squared
        fg_sq, af_sq, fd_sq = (_dot(_sub(p, q), _sub(p, q)) for p, q in ((g, f), (f, a), (d, f)))
        assert fg_sq**2 == af_sq * fd_sq


class TestContinuedProportionRule:
    """The rule of ``tests/oracles.py`` behind the printed verdict, and its proof."""

    def test_accepts_true_chain(self):
        assert in_continued_proportion([F(1), F(2), F(4), F(8)], 40)

    def test_rejects_broken_chain(self):
        assert not in_continued_proportion([F(1), F(2), F(4), F(9)], 2)

    def test_extremes_identity_checked_for_quads(self):
        # the adjacent defects 100 and 0 sit inside 1020100 * 10^-3, the
        # extremes' defect 10100 does not, so only the quad-specific identity
        # can reject
        chain = [1, 100, 10100, 1020100]
        adjacent = [chain[i] * chain[i + 2] - chain[i + 1] ** 2 for i in (0, 1)]
        assert adjacent == [100, 0] and 10**3 * 100 <= chain[3]
        assert not in_continued_proportion([F(x) for x in chain], 3)

    def test_short_lists_rejected(self):
        with pytest.raises(ValueError):
            in_continued_proportion([F(1), F(2)], 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
        st.sampled_from([3, 4]),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=14),
    )
    @example(F(1), F(2), 4, -60, 20, 10)  # all terms round to 0
    @example(F(3), F(1, 7), 4, 60, 1, 2)
    @example(F(5), F(17, 16), 4, 0, 1, 2)  # a defect of 1.66 M 10^-w
    def test_scale_free(self, first, ratio, count, k, digits, guard):
        # an exact continued proportion at any scale, rounded at w digits,
        # keeps every defect within 3.5 M 10^-w and passes at digits = w - guard;
        # moving the term at the far end from the largest by two output units
        # breaks the defect that pairs it with the largest, and the rule sees it
        w = digits + guard
        terms = [rounded(first * ratio**i * F(10) ** k, w) for i in range(count)]
        largest = max(terms)
        assert proportion_defect(terms) <= F(7, 2) * largest / 10**w
        assert in_continued_proportion(terms, digits)
        two_units = F(2, 10**digits)
        if largest < two_units:
            return
        far = 0 if terms[-1] == largest else count - 1
        terms[far] -= two_units
        assert max(map(abs, terms)) == largest
        assert not in_continued_proportion(terms, digits)

    def test_chord_ratio_brackets_the_root(self):
        # small_chord_terms widens the ratio by 10^-8 on each side: u lies
        # inside, by the signs of the increasing x^3 - 3x^2 + 4x - 1
        def f(x):
            return x**3 - 3 * x * x + 4 * x - 1
        assert f(CHORD_RATIO - F(1, 10**8)) < 0 < f(CHORD_RATIO + F(1, 10**8))

    @pytest.mark.parametrize("units", range(15))
    def test_small_chord_configurations_keep_the_bound(self, units):
        # below c* = 6.25 units every configuration the CLI can print is listed
        configurations = list(small_chord_terms(units))
        assert configurations
        for terms in configurations:
            assert proportion_defect(terms) <= 32 * max(terms)

    @pytest.mark.parametrize("quarters", range(1, 59))
    def test_small_diameters_print_a_listed_configuration(self, quarters):
        # diameters of 1/4 to 14.5 work units, and the CLI's own solver
        ctx = PrecisionContext(1, 5)
        cfg = solve_continued_chords(F(quarters, 4 * 10**6), ctx)
        terms = tuple(v.unscaled for v in cfg.terms())
        assert terms in set(small_chord_terms(terms[3]))
