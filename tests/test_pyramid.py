import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mesolabe.pyramid import (
    ObliqueVertexFrame,
    RightPyramid,
    diagonal_sq,
    oblique_diagonal_sq,
    prism_diagonal_check,
)

from oracles import circumcenter, realized_frame

F = Fraction


def positive_fractions():
    return st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)


class TestDiagonal:
    def test_cube(self):
        assert diagonal_sq(RightPyramid(1, 1, 1)) == 3

    def test_isosceles_over_square_base(self):
        assert diagonal_sq(RightPyramid(1, 1, 2)) == 6

    def test_3_4_12(self):
        assert diagonal_sq(RightPyramid(3, 4, 12)) == 169

    def test_positive_edges_required(self):
        with pytest.raises(ValueError):
            RightPyramid(1, 0, 1)

    @given(positive_fractions(), positive_fractions(), positive_fractions())
    def test_permutation_invariance(self, a, b, c):
        base = diagonal_sq(RightPyramid(a, b, c))
        assert base == diagonal_sq(RightPyramid(b, c, a))
        assert base == diagonal_sq(RightPyramid(c, a, b))

    @given(positive_fractions(), positive_fractions(), positive_fractions(),
           st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    def test_exact_quadratic_scaling(self, a, b, c, k):
        assert diagonal_sq(RightPyramid(k * a, k * b, k * c)) == k * k * diagonal_sq(
            RightPyramid(a, b, c)
        )

    def test_diagonal_equals_coordinate_distance(self):
        rng = random.Random(2026)
        for _ in range(300):
            p = RightPyramid(
                F(rng.randint(1, 60), rng.randint(1, 12)),
                F(rng.randint(1, 60), rng.randint(1, 12)),
                F(rng.randint(1, 60), rng.randint(1, 12)),
            )
            _, a, b, c = p.vertices()
            opposite = type(a)(F(0), b.y, c.z)  # the corner E across from A
            assert (a - opposite).norm_sq() == diagonal_sq(p)


class TestCircumsphere:
    def test_examples(self):
        assert diagonal_sq(RightPyramid(1, 1, 1)) == 3
        assert diagonal_sq(RightPyramid(2, 3, 6)) == 49

    def test_against_circumcenter_oracle(self):
        rng = random.Random(404)
        for _ in range(300):
            p = RightPyramid(
                F(rng.randint(1, 40), rng.randint(1, 9)),
                F(rng.randint(1, 40), rng.randint(1, 9)),
                F(rng.randint(1, 40), rng.randint(1, 9)),
            )
            d, a, b, c = ((q.x, q.y, q.z) for q in p.vertices())
            center = circumcenter(d, a, b, c)
            radius_sq = sum((center[i] - d[i]) ** 2 for i in range(3))
            assert 4 * radius_sq == diagonal_sq(p)


class TestPrismCorollary:
    def test_rectangle_diagonal_matches_solid(self):
        assert prism_diagonal_check(RightPyramid(3, 4, 12))

    @given(positive_fractions(), positive_fractions(), positive_fractions())
    def test_holds_for_all_boxes(self, a, b, c):
        assert prism_diagonal_check(RightPyramid(a, b, c))


class TestObliqueFrames:
    def test_zero_cosines_reduce_to_right_case(self):
        frame = ObliqueVertexFrame(3, 4, 12, F(0), F(0), F(0))
        assert oblique_diagonal_sq(frame) == 169

    def test_sixty_degree_frame(self):
        # |u+v+w|^2 with all pairwise angles 60 degrees and unit edges
        frame = ObliqueVertexFrame(1, 1, 1, F(1, 2), F(1, 2), F(1, 2))
        assert oblique_diagonal_sq(frame) == 6

    def test_shallow_obtuse_frame(self):
        frame = ObliqueVertexFrame(1, 1, 1, F(-1, 4), F(-1, 4), F(-1, 4))
        assert oblique_diagonal_sq(frame) == F(3, 2)

    def test_infeasible_cosines_rejected(self):
        with pytest.raises(ValueError):
            ObliqueVertexFrame(1, 1, 1, F(1), F(1), F(-1))
        with pytest.raises(ValueError):
            ObliqueVertexFrame(1, 1, 1, F(2), F(0), F(0))

    def test_vector_sum_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            lengths, cosines, vecs = realized_frame(rng)
            frame = ObliqueVertexFrame(*lengths, *cosines)
            total = tuple(sum(v[i] for v in vecs) for i in range(3))
            assert oblique_diagonal_sq(frame) == sum(x * x for x in total)
