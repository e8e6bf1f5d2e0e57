from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mesolabe.figures import FigureSpec, _Canvas, _fmt, render
from mesolabe.scalar import DecimalScalar

F = Fraction


class TestDeterminism:
    @pytest.mark.parametrize("figure_id", range(1, 8))
    def test_same_spec_same_bytes(self, figure_id):
        spec = FigureSpec(figure_id)
        assert render(spec) == render(spec)

    def test_distinct_parameters_change_output(self):
        assert render(FigureSpec(1)) != render(FigureSpec(1, {"da": 2}))


class TestStructure:
    @pytest.mark.parametrize("figure_id", range(1, 8))
    def test_well_formed_svg(self, figure_id):
        doc = render(FigureSpec(figure_id))
        assert doc.startswith("<svg xmlns=")
        assert doc.endswith("</svg>\n")

    def test_solid_figures_show_the_diagonal_labels(self):
        doc = render(FigureSpec(1))
        for letter in "ABCDEFG":
            assert f">{letter}</text>" in doc
        assert "stroke-dasharray" in doc  # the diagonal AE is dashed

    def test_invalid_id_rejected(self):
        with pytest.raises(ValueError):
            FigureSpec(8)


def hundredth_ties():
    """Pairs n/d = (2k + 1)/200 exactly, unreduced by a common factor."""
    return st.builds(
        lambda k, m: ((2 * k + 1) * m, 200 * m),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    )


#: Model coordinates: Fractions, and the ints some figures place points at.
rationals = st.one_of(
    st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)


class TestCanvas:
    @given(st.one_of(
        st.tuples(st.integers(min_value=-(10**12), max_value=10**12),
                  st.integers(min_value=1, max_value=10**9)),
        hundredth_ties(),
    ))
    def test_pair_rounds_as_from_fraction(self, pair):
        n, d = pair
        assert _fmt(pair) == str(DecimalScalar.from_fraction(Fraction(n, d), 2))

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6))
    def test_map_is_the_affine_map(self, points):
        xs, ys = [x for x, _ in points], [y for _, y in points]
        cv = _Canvas(xs, ys)
        for x, y in points:
            mx, my = cv.map((x, y))
            assert Fraction(*mx) == 40 + (x - min(xs)) * cv.scale
            assert Fraction(*my) == 360 - 40 - (y - min(ys)) * cv.scale
            assert mx[1] > 0 and my[1] > 0


class TestChordFigure:
    def test_point_b_sits_at_the_solved_abscissa(self):
        doc = render(FigureSpec(4))
        # canvas: margin 40, diameter 2 spans 380 units, so the solved
        # AB = 0.6353443923 of the table lands at these exact hundredths
        ab = DecimalScalar.from_str("0.6353443923").as_fraction()
        expected_x = 40 + ab * 190
        expected = str(DecimalScalar.from_fraction(expected_x, 2))
        assert f'<circle cx="{expected}" cy="320.00" r="2" fill="black"/>' in doc
        assert ">B</text>" in doc

    def test_other_diameters_render_the_similar_figure(self):
        # the construction is scale-invariant, so a different diameter yields
        # the same normalized drawing, deterministically
        doc = render(FigureSpec(4, {"diameter": "3"}))
        assert doc == render(FigureSpec(4, {"diameter": "3"}))
        assert "<path" in doc


class TestInstrumentFigures:
    def test_plumbline_letters(self):
        doc = render(FigureSpec(6))
        for letter in ("A", "B", "C", "D", "E", "F", "S", "X", "Y", "Z"):
            assert f">{letter}</text>" in doc

    def test_compass_letters(self):
        doc = render(FigureSpec(7))
        for letter in ("A", "C", "D", "E", "F", "K", "L", "M", "N", "O", "Y", "Z"):
            assert f">{letter}</text>" in doc

    def test_sphere_figure_has_cap_polyline(self):
        doc = render(FigureSpec(5))
        assert "<polyline" in doc
        for letter in ("A", "C", "D", "E", "F", "G", "H"):
            assert f">{letter}</text>" in doc
