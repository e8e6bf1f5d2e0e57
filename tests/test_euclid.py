import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import mesolabe
from mesolabe import euclid
from mesolabe.euclid import (
    check_3_3,
    check_4_11,
    check_7_12,
    check_8_6_corollary,
    check_12_2,
    check_13_2,
    check_19_7,
    check_20_7,
    check_31_6,
    check_47_1,
    check_clavius_31_3,
    check_pappus,
    rand_chord_setup,
    rand_classified_triangle,
    rand_pappus_offsets,
    rand_prism,
    rand_proportional_quad,
    rand_right_triangle,
    run_proposition_suite,
)
from mesolabe.pyramid import Point3
from mesolabe.scalar import unit_circle_ints

from oracles import _add, _cross2, _cross3, _dot, _mul, _sub

F = Fraction


def pt(x, y):
    return F(x), F(y)


def pt3(x, y, z):
    return F(x), F(y), F(z)


class TestPythagoras:
    def test_3_4_5(self):
        assert check_47_1((pt(0, 0), pt(3, 0), pt(0, 4))) == 0

    def test_unit_legs(self):
        assert check_47_1((pt(0, 0), pt(1, 0), pt(0, 1))) == 0

    def test_rejects_non_right(self):
        # the residual is -2 AB . AC = -2 * 2
        assert check_47_1((pt(0, 0), pt(2, 0), pt(1, 3))) == -4

    def test_generated_right_triangles(self):
        rng = random.Random(47)
        for _ in range(200):
            assert check_47_1(rand_right_triangle(rng)) == 0


class TestObtuseAcute:
    def test_obtuse_example(self):
        assert check_12_2((pt(0, 0), pt(2, 0), pt(-1, 1))) == 0

    def test_acute_example(self):
        assert check_13_2((pt(0, 0), pt(2, 0), pt(1, 2))) == 0

    def test_wrong_class_rejected(self):
        # the wrong checker gives -4 AB . AC, here with AB . AC = 2 and -2
        assert check_12_2((pt(0, 0), pt(2, 0), pt(1, 2))) == -8
        assert check_13_2((pt(0, 0), pt(2, 0), pt(-1, 1))) == 8

    def test_500_random_classified_dispatch(self):
        rng = random.Random(1213)
        for _ in range(500):
            t, kind = rand_classified_triangle(rng)
            residual = check_13_2(t) if kind > 0 else check_12_2(t)
            assert residual == 0


class TestCircle:
    def test_diameter_bisects_iff_perpendicular(self):
        center = pt(0, 0)
        assert check_3_3(center, (pt(3, 4), pt(3, -4)))
        assert check_3_3(center, (pt(5, 0), pt(3, 4)))

    def test_central_chord_rejected(self):
        with pytest.raises(ValueError):
            check_3_3(pt(0, 0), (pt(1, 0), pt(-1, 0)))

    def test_generated_chords(self):
        rng = random.Random(33)
        for _ in range(200):
            assert check_3_3(*rand_chord_setup(rng))

    def test_clavius_semicircle(self):
        assert check_clavius_31_3(pt(-1, 0), pt(1, 0), pt(0, 1))
        off_circle = pt(0, F(3, 2))
        assert not check_clavius_31_3(pt(-1, 0), pt(1, 0), off_circle)


class TestMeanProportional:
    def test_3_4_5_altitude(self):
        # altitude 12/5 over segments 9/5 and 16/5 of the hypotenuse
        t = (pt(0, 0), pt(3, 0), pt(0, 4))
        assert check_8_6_corollary(t) == 0
        assert F(12, 5) ** 2 == F(9, 5) * F(16, 5)

    def test_isosceles_right(self):
        t = (pt(0, 0), pt(1, 0), pt(0, 1))
        assert check_8_6_corollary(t) == 0

    def test_random_right_triangles(self):
        rng = random.Random(86)
        for _ in range(200):
            assert check_8_6_corollary(rand_right_triangle(rng)) == 0


class TestSimilarFigures:
    def test_rectangles_on_3_4_5(self):
        t = (pt(0, 0), pt(3, 0), pt(0, 4))
        assert check_31_6(t, F(2, 3)) == 0

    def test_aspect_must_be_positive(self):
        with pytest.raises(ValueError):
            check_31_6((pt(0, 0), pt(3, 0), pt(0, 4)), F(0))


class TestNumberProportions:
    def test_examples(self):
        assert check_19_7(F(2), F(4), F(6), F(12))
        assert check_19_7(F(1), F(1), F(1), F(1))
        assert check_20_7(F(2), F(4), F(8))

    def test_constructed_and_perturbed(self):
        rng = random.Random(197)
        for _ in range(200):
            a, b, c, d = rand_proportional_quad(rng)
            assert check_19_7(a, b, c, d)
            assert not check_19_7(a, b, c, d + F(1, 101))

    def test_zero_consequent_rejected(self):
        with pytest.raises(ValueError):
            check_19_7(F(1), F(0), F(1), F(1))


class TestPlanePerpendicular:
    def test_cross_product_direction(self):
        u, v = pt3(1, 2, 0), pt3(0, 1, 3)
        n = _cross3(u, v)
        assert check_4_11(n, u, v)
        assert not check_4_11(_add(n, u), u, v)

    def test_parallel_rejected(self):
        with pytest.raises(ValueError):
            check_4_11(pt3(0, 0, 1), pt3(1, 0, 0), pt3(2, 0, 0))


class TestPrism:
    def test_unit_prism(self):
        base = (pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0))
        top = tuple(_add(p, pt3(0, 0, 1)) for p in base)
        assert check_7_12(base, top) == 0

    def test_degenerate_zero_height(self):
        base = (pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0))
        assert check_7_12(base, base) == 0

    def test_random_oblique_prisms(self):
        rng = random.Random(712)
        for _ in range(200):
            base, offset = rand_prism(rng)
            assert check_7_12(base, tuple(_add(p, offset) for p in base)) == 0

    def test_claimed_top_that_is_no_translate_fails(self):
        # the top vertex over c is lifted twice as high: the split volumes
        # are 2/6, 1/6 and 1/6
        base = (pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0))
        top = (pt3(0, 0, 1), pt3(1, 0, 1), pt3(0, 1, 2))
        assert check_7_12(base, top) == F(1, 6)


class TestPappus:
    def test_squares_reduce_to_pythagoras(self):
        t = (pt(0, 0), pt(1, 0), pt(0, 1))
        residual = check_pappus(t, pt(0, -1), pt(-1, 0))
        assert residual == 0

    def test_random_outward_parallelograms(self):
        rng = random.Random(471)
        for _ in range(200):
            t, _ = rand_classified_triangle(rng)
            u, v = rand_pappus_offsets(rng, t)
            assert check_pappus(t, u, v) == 0

    def test_inward_orientation_detected(self):
        t = (pt(0, 0), pt(1, 0), pt(0, 1))
        assert check_pappus(t, pt(0, 1), pt(-1, 0)) != 0

    def test_random_offsets_point_away_from_the_opposite_vertex(self):
        # u and C lie on opposite sides of AB, v and B on opposite sides of
        # AC; the pair erected inward instead balances too
        rng = random.Random(47)
        for _ in range(200):
            t, _ = rand_classified_triangle(rng)
            u, v = rand_pappus_offsets(rng, t)
            a, b, c = t
            ab, ac = _sub(b, a), _sub(c, a)
            assert _cross2(ab, u) * _cross2(ab, ac) < 0
            assert _cross2(ac, v) * _cross2(ac, ab) < 0
            assert check_pappus(t, _mul(u, -1), _mul(v, -1)) == 0


class TestRationalParametrizations:
    @given(st.fractions(max_denominator=200))
    def test_circle_points_on_unit_circle(self, t):
        x, y, w = unit_circle_ints(t.numerator, t.denominator)
        assert x * x + y * y == w * w
        assert w > 0


class TestValueSemantics:
    """The points are plain values: equal coordinates make equal, interchangeable objects."""

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_equal_coordinates_give_equal_objects(self, x, y, z):
        # an integral Fraction equals, and hashes as, the int it stands for
        same = [(Point3(x, y, z), Point3(F(x), F(y), F(z)))]
        if x.denominator == y.denominator == z.denominator == 1:
            same += [(Point3(x, y, z), Point3(int(x), int(y), int(z)))]
        for p, q in same:
            assert p is not q and p == q and hash(p) == hash(q)
            assert len({p, q}) == 1 and {p: 1}[q] == 1
        assert Point3(x, y, z) != Point3(x, y, z + 1)

    def test_points_as_set_members_and_dict_keys(self):
        assert {Point3(1, 2, 3), Point3(F(1), 2, 3)} == {Point3(1, 2, 3)}

    def test_repr(self):
        assert repr(Point3(F(1, 2), -3, 0)) == "Point3(x=Fraction(1, 2), y=-3, z=0)"

    def test_different_classes_are_unequal(self):
        assert Point3(1, 2, 0) != (1, 2, 0)


#: Every (lo, hi) the suite draws from, then n = 1 and n a power of two.
DRAW_RANGES = [(-8, 8), (1, 9), (1, 8), (1, 7), (89, 127), (4, 4), (-1, 0), (0, 2**16 - 1)]

SEEDS = st.integers(min_value=0, max_value=2**64)


def _replay_draw(rng):
    return rng.randint(-8, 8), rng.randint(1, 9)


def _replay_draw_nonzero(rng):
    n, d = rng.randint(1, 8), rng.randint(1, 9)
    return (-n if rng.random() < 0.5 else n), d


def _replay_nudge(rng):
    return rng.randint(1, 7), rng.randint(89, 127)


class TestDraws:
    """The suite's draws equal ``randint``'s, value for value and state for state."""

    @given(SEEDS, st.sampled_from(DRAW_RANGES), st.integers(min_value=1, max_value=60))
    def test_randint_helper_is_randint(self, seed, bounds, calls):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [euclid._randint(ours, *bounds) for _ in range(calls)] == [
            theirs.randint(*bounds) for _ in range(calls)
        ]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("draw, replay", [
        (euclid._draw, _replay_draw),
        (euclid._draw_nonzero, _replay_draw_nonzero),
        (euclid._nudge, _replay_nudge),
    ])
    @given(seed=SEEDS, calls=st.integers(min_value=1, max_value=60))
    def test_draws_replay_randint(self, draw, replay, seed, calls):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [draw(ours) for _ in range(calls)] == [replay(theirs) for _ in range(calls)]
        assert ours.getstate() == theirs.getstate()


class TestSuiteRunner:
    def test_small_seeded_run_passes(self):
        rows = run_proposition_suite(seed=7, instances=50)
        assert len(rows) == 11
        assert all(r.passed for r in rows)

    def test_deterministic(self):
        a = run_proposition_suite(seed=3, instances=20)
        b = run_proposition_suite(seed=3, instances=20)
        assert a == b

    @pytest.mark.parametrize("name, perturbed", [(n, p) for n, _, p in euclid.PROPOSITION_SUITE])
    def test_perturbations_are_detected_by_residuals(self, name, perturbed):
        # a perturbation that fell outside a checker's domain would raise
        # ValueError here instead of counting as detected
        for seed in range(5):
            rng = random.Random(f"{seed}:{name}")
            assert all(perturbed(rng) for _ in range(20))

    def test_precondition_rejection_is_not_a_detection(self):
        flat = (pt(0, 0), pt(1, 0), pt(2, 0))
        with pytest.raises(ValueError):
            euclid._detects(check_47_1(flat))


RATIONALS = st.fractions(min_value=-60, max_value=60, max_denominator=60)
NONZERO = RATIONALS.filter(bool)
PLANE = st.tuples(RATIONALS, RATIONALS)
SPACE = st.tuples(RATIONALS, RATIONALS, RATIONALS)


def _six_volume(p0, p1, p2, p3):
    return abs(_dot(_cross3(_sub(p1, p0), _sub(p2, p0)), _sub(p3, p0)))


class TestSecondEvaluationsAgree:
    """Each evaluation a checker dropped is its claim again, for every input.

    The dropped side is computed here on tuples of Fractions.
    """

    @given(PLANE, PLANE, PLANE)
    def test_clavius_incidence_is_the_right_angle(self, p, q, r):
        # |2r - p - q|^2 - |q - p|^2 = 4 (r - p) . (r - q)
        twice_off = _sub(_mul(r, 2), _add(p, q))
        power = _dot(twice_off, twice_off) - _dot(_sub(q, p), _sub(q, p))
        assert power == 4 * _dot(_sub(r, p), _sub(r, q))
        if p != q:
            assert check_clavius_31_3(p, q, r) is (power == 0)

    @given(PLANE, PLANE, PLANE, PLANE, st.booleans())
    def test_3_3_foot_of_perpendicular_is_the_bisection(self, center, p, other, mirror, on_circle):
        q = other
        if on_circle and any(mirror):
            # p reflected in the line through the centre along ``mirror``
            v = _sub(p, center)
            q = _add(center, _sub(_mul(mirror, 2 * _dot(v, mirror) / _dot(mirror, mirror)), v))
        along = _sub(q, p)
        if p == q or _cross2(along, _sub(center, p)) == 0:
            return
        # the foot p + s*along, s = num/den, is the midpoint (p + q)/2
        s = Fraction(_dot(_sub(center, p), along), _dot(along, along))
        foot_is_midpoint = all(a + s * d == (a + b) / 2 for a, b, d in zip(p, q, along))
        assert check_3_3(center, (p, q)) is foot_is_midpoint
        if on_circle and any(mirror):
            assert foot_is_midpoint

    @given(RATIONALS, NONZERO, RATIONALS, NONZERO, NONZERO, st.booleans())
    def test_19_7_ratios_are_cross_products(self, a, b, c, d, k, proportional):
        if proportional:
            c, d = a * k, b * k
        ratios_equal = Fraction(a, b) == Fraction(c, d)
        assert ratios_equal is (a * d == b * c) is check_19_7(a, b, c, d)
        assert ratios_equal or not proportional

    @given(RATIONALS, NONZERO, NONZERO, NONZERO, st.booleans())
    def test_20_7_ratios_are_cross_products(self, a, b, c, k, proportional):
        if proportional:
            b, c = a * k, a * k * k
            if b == 0:
                return
        ratios_equal = Fraction(a, b) == Fraction(b, c)
        assert ratios_equal is (a * c == b * b) is check_20_7(a, b, c)
        assert ratios_equal or not proportional

    @given(SPACE, SPACE, SPACE, SPACE)
    def test_translated_top_splits_into_equal_volumes(self, a, b, c, offset):
        a2, b2, c2 = (_add(p, offset) for p in (a, b, c))
        six_volumes = {_six_volume(a, b, c, c2), _six_volume(a, b, b2, c2), _six_volume(a, a2, b2, c2)}
        assert six_volumes == {_six_volume(a, b, c, _add(a, offset))}
        assert check_7_12((a, b, c), (a2, b2, c2)) == 0


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _uncleared(residual, k):
    return Fraction(residual, k) if residual else residual


def _sq(v):
    return _dot(v, v)


def _vector_47_1(a, b, c):
    u, v = _sub(b, a), _sub(c, a)
    _require(_cross2(u, v) != 0, "degenerate triangle")
    return _sq(_sub(c, b)) - _sq(u) - _sq(v)


def _vector_12_2(a, b, c):
    u, v = _sub(b, a), _sub(c, a)
    return _sq(_sub(c, b)) - (_sq(u) + _sq(v) + 2 * abs(_dot(u, v)))


def _vector_13_2(a, b, c):
    u, v = _sub(b, a), _sub(c, a)
    return _sq(_sub(c, b)) - (_sq(u) + _sq(v) - 2 * abs(_dot(u, v)))


def _vector_8_6(a, b, c):
    _require(_cross2(_sub(b, a), _sub(c, a)) != 0, "degenerate triangle")
    base, ba = _sub(c, b), _sub(a, b)
    num, den = _dot(ba, base), _sq(base)
    altitude_sq = _sq(_sub(_mul(ba, den), _mul(base, num)))
    return _uncleared(altitude_sq - num * (den - num) * den, den * den)


def _vector_31_6(a, b, c, aspect):
    _require(aspect > 0, "aspect ratio must be positive")
    u, v = _sub(b, a), _sub(c, a)
    return aspect * _sq(_sub(c, b)) - aspect * _sq(u) - aspect * _sq(v)


def _vector_pappus(a, b, c, offset_ab, offset_ac):
    ab, ac = _sub(b, a), _sub(c, a)
    den = _cross2(ab, ac)
    _require(den != 0, "degenerate triangle")
    _require(_cross2(ab, offset_ab) != 0, "parallelogram on AB is flat")
    _require(_cross2(ac, offset_ac) != 0, "parallelogram on AC is flat")
    num = _cross2(_sub(offset_ac, offset_ab), ac)
    ha = _add(_mul(offset_ab, den), _mul(ab, num))
    areas = abs(_cross2(ab, offset_ab)) + abs(_cross2(ac, offset_ac))
    return _uncleared(areas * abs(den) - abs(_cross2(_sub(c, b), ha)), abs(den))


def _vector_3_3(center, p, q):
    _require(p != q, "degenerate chord")
    along = _sub(q, p)
    _require(_cross2(along, _sub(center, p)) != 0, "chord passes through the centre")
    return _dot(_sub(_add(p, q), _mul(center, 2)), along) == 0


def _vector_clavius(p, q, r):
    _require(p != q, "degenerate diameter")
    return _dot(_sub(r, p), _sub(r, q)) == 0


def _vector_4_11(line_dir, u, v):
    _require(_sq(_cross3(u, v)) != 0, "u and v are parallel")
    return _dot(line_dir, u) == 0 and _dot(line_dir, v) == 0


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its result with the result's type, or the ValueError text."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)
    if isinstance(result, tuple):
        return [(type(r), r) for r in result]
    return type(result), result


INTS = st.integers(min_value=-60, max_value=60)


def _points(*dims):
    """Points of the given dimensions, their coordinates all ints or all Fractions."""
    return st.one_of(*(st.tuples(*(st.tuples(*[c] * d) for d in dims)) for c in (INTS, RATIONALS)))


FLAT = ((0, 0), (2, 1), (-4, -2))
FLAT_F = tuple((F(x, 3), F(y, 3)) for x, y in FLAT)


class TestCoordinateFormsAgree:
    """Each checker equals its residual in vector form, computed on tuples.

    The same value of the same type comes out, or the same ValueError text:
    int coordinates give an int residual, Fraction ones a Fraction, and a
    residual cleared by a denominator is a Fraction unless it is 0.
    """

    @pytest.mark.parametrize("checker, vector", [
        (check_47_1, _vector_47_1), (check_12_2, _vector_12_2), (check_13_2, _vector_13_2),
        (check_8_6_corollary, _vector_8_6),
    ])
    @given(tri=_points(2, 2, 2))
    @example(tri=FLAT)
    @example(tri=FLAT_F)
    @example(tri=((0, 0), (3, 0), (0, 4)))
    def test_triangle_checkers(self, checker, vector, tri):
        assert _outcome(checker, tri) == _outcome(vector, *tri)

    @given(tri=_points(2, 2, 2), aspect=st.one_of(INTS, RATIONALS))
    @example(tri=((0, 0), (3, 0), (0, 4)), aspect=0)
    @example(tri=FLAT_F, aspect=F(-1, 2))
    def test_31_6(self, tri, aspect):
        expected = _outcome(_vector_31_6, *tri, aspect)
        assert _outcome(check_31_6, tri, aspect) == expected

    @given(pts=_points(2, 2, 2, 2, 2))
    @example(pts=(*FLAT, (0, 1), (1, 0)))
    @example(pts=((0, 0), (1, 0), (0, 1), (3, 0), (-1, 0)))  # the one on AB is flat
    @example(pts=((0, 0), (1, 0), (0, 1), (0, -1), (0, 2)))  # the one on AC is flat
    @example(pts=((0, 0), (1, 0), (0, 1), (0, -1), (-1, 0)))  # squares on the legs
    def test_pappus(self, pts):
        a, b, c, u, v = pts
        assert _outcome(check_pappus, (a, b, c), u, v) == _outcome(_vector_pappus, a, b, c, u, v)

    @given(pts=_points(2, 2, 2))
    @example(pts=((0, 0), (3, 4), (3, 4)))  # p == q
    @example(pts=((0, 0), (1, 0), (-1, 0)))  # a central chord
    @example(pts=((0, 0), (3, 4), (3, -4)))
    @example(pts=((F(0), F(0)), (F(3), F(4)), (F(117, 25), F(44, 25))))  # along is (3, -4) times 14/25
    def test_3_3(self, pts):
        center, p, q = pts
        assert _outcome(check_3_3, center, (p, q)) == _outcome(_vector_3_3, center, p, q)

    @given(pts=_points(2, 2, 2))
    @example(pts=((F(1, 2), F(0)), (F(1, 2), F(0)), (F(0), F(1))))  # p == q
    @example(pts=((-1, 0), (1, 0), (0, 1)))
    def test_clavius_31_3(self, pts):
        assert _outcome(check_clavius_31_3, *pts) == _outcome(_vector_clavius, *pts)

    @given(pts=_points(3, 3, 3), on_normal=st.booleans())
    @example(pts=((0, 0, 1), (1, 0, 0), (2, 0, 0)), on_normal=False)  # u and v parallel
    @example(pts=((F(0),) * 3, (F(1, 3), F(1), F(2)), (F(2, 3), F(2), F(4))), on_normal=False)
    def test_4_11(self, pts, on_normal):
        line_dir, u, v = pts
        if on_normal:
            line_dir = _cross3(u, v)
        expected = _outcome(_vector_4_11, line_dir, u, v)
        assert _outcome(check_4_11, line_dir, u, v) == expected

    @given(pts=_points(3, 3, 3, 3, 3, 3))
    @example(pts=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 2)))
    def test_prism_volumes(self, pts):
        a, b, c, a2, b2, c2 = pts
        six = _six_volume(a, b, c, c2), _six_volume(a, b, b2, c2), _six_volume(a, a2, b2, c2)
        expected = _outcome(lambda: _uncleared(max(six) - min(six), 6))
        assert _outcome(check_7_12, pts[:3], pts[3:]) == expected


class TestLyingChecker:
    """A checker that errs fails its proposition; it raises nothing."""

    def test_lie_is_a_non_zero_residual(self, monkeypatch):
        volumes = itertools.count()
        monkeypatch.setattr(euclid, "_six_volume", lambda *points: next(volumes))
        base = (pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0))
        top = tuple(_add(p, pt3(0, 0, 1)) for p in base)
        assert check_7_12(base, top) != 0
        assert euclid._detects(check_7_12(base, top))

    def test_lie_fails_the_row_without_asserts(self):
        # python -O strips assert statements; the verdict must not need them
        code = (
            "import itertools\n"
            "from mesolabe import cli, euclid\n"
            "volumes = itertools.count()\n"
            "euclid._six_volume = lambda *points: next(volumes)\n"
            "code = cli.main(['check-props', '--instances', '3'])\n"
            "print('debug', __debug__, 'exit', code)\n"
        )
        src = str(Path(mesolabe.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        *report, last = done.stdout.splitlines()
        assert last == "debug False exit 1"
        rows = [" ".join(line.split()) for line in report]
        assert [row for row in rows if row.endswith("FAILED")] == [
            "7.12 0/3 valid, 1/1 perturbed detected FAILED", "some propositions FAILED"
        ]
        assert rows[-1] == "some propositions FAILED"
        assert done.stderr == ""
