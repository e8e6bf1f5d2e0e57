from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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


#: Cleared coordinates: ints over a figure's common denominator.
lattice = st.integers(min_value=-(10**12), max_value=10**12)


class TestCanvas:
    @given(st.one_of(
        st.tuples(st.integers(min_value=-(10**12), max_value=10**12),
                  st.integers(min_value=1, max_value=10**9)),
        hundredth_ties(),
    ))
    def test_pair_rounds_as_from_fraction(self, pair):
        n, d = pair
        assert _fmt(pair) == str(DecimalScalar.from_fraction(Fraction(n, d), 2))

    @given(st.lists(st.tuples(lattice, lattice), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=10**9))
    @example([(7, -3)], 5)  # a single point: both extents zero
    @example([(0, 5), (12, 5)], 4)  # a zero y extent: 1 SVG unit per model unit fits
    @example([(4, 0), (4, 8)], 16)  # a zero x extent: 1 per model unit fits
    def test_map_is_the_affine_map(self, points, den):
        xs, ys = [x for x, _ in points], [y for _, y in points]
        cv = _Canvas(xs, ys, den)
        # the model points p / den, fitted and mapped in Fractions
        xmin, ymin = F(min(xs), den), F(min(ys), den)
        spans = F(max(xs), den) - xmin, F(max(ys), den) - ymin
        scale = min(F(room) / span if span else F(1) for room, span in zip((380, 280), spans))
        for x, y in points:
            mx, my = cv.map((x, y))
            assert F(*mx) == 40 + (F(x, den) - xmin) * scale
            assert F(*my) == 360 - 40 - (F(y, den) - ymin) * scale
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
