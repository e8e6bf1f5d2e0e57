import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mesolabe
from mesolabe import euclid
from mesolabe.scalar import CertificationError
from mesolabe.euclid import (
    Point2,
    Point3,
    Triangle,
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
    prism_split_volumes,
    rand_chord_setup,
    rand_classified_triangle,
    rand_pappus_offsets,
    rand_proportional_quad,
    rand_right_triangle,
    run_proposition_suite,
    unit_circle_point,
)

F = Fraction


def pt(x, y):
    return Point2(F(x), F(y))


def pt3(x, y, z):
    return Point3(F(x), F(y), F(z))


class TestPythagoras:
    def test_3_4_5(self):
        assert check_47_1(Triangle(pt(0, 0), pt(3, 0), pt(0, 4))) == 0

    def test_unit_legs(self):
        assert check_47_1(Triangle(pt(0, 0), pt(1, 0), pt(0, 1))) == 0

    def test_rejects_non_right(self):
        # the residual is -2 AB . AC = -2 * 2
        assert check_47_1(Triangle(pt(0, 0), pt(2, 0), pt(1, 3))) == -4

    def test_generated_right_triangles(self):
        rng = random.Random(47)
        for _ in range(200):
            assert check_47_1(rand_right_triangle(rng)) == 0


class TestObtuseAcute:
    def test_obtuse_example(self):
        assert check_12_2(Triangle(pt(0, 0), pt(2, 0), pt(-1, 1))) == 0

    def test_acute_example(self):
        assert check_13_2(Triangle(pt(0, 0), pt(2, 0), pt(1, 2))) == 0

    def test_wrong_class_rejected(self):
        # the wrong checker gives -4 AB . AC, here with AB . AC = 2 and -2
        assert check_12_2(Triangle(pt(0, 0), pt(2, 0), pt(1, 2))) == -8
        assert check_13_2(Triangle(pt(0, 0), pt(2, 0), pt(-1, 1))) == 8

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
        t = Triangle(pt(0, 0), pt(3, 0), pt(0, 4))
        assert check_8_6_corollary(t) == 0
        assert F(12, 5) ** 2 == F(9, 5) * F(16, 5)

    def test_isosceles_right(self):
        t = Triangle(pt(0, 0), pt(1, 0), pt(0, 1))
        assert check_8_6_corollary(t) == 0

    def test_random_right_triangles(self):
        rng = random.Random(86)
        for _ in range(200):
            assert check_8_6_corollary(rand_right_triangle(rng)) == 0


class TestSimilarFigures:
    def test_rectangles_on_3_4_5(self):
        t = Triangle(pt(0, 0), pt(3, 0), pt(0, 4))
        assert check_31_6(t, F(2, 3)) == 0

    def test_aspect_must_be_positive(self):
        with pytest.raises(ValueError):
            check_31_6(Triangle(pt(0, 0), pt(3, 0), pt(0, 4)), F(0))


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
        n = u.cross(v)
        assert check_4_11(n, u, v)
        assert not check_4_11(n + u, u, v)

    def test_parallel_rejected(self):
        with pytest.raises(ValueError):
            check_4_11(pt3(0, 0, 1), pt3(1, 0, 0), pt3(2, 0, 0))


class TestPrism:
    def test_unit_prism(self):
        base = (pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0))
        offset = pt3(0, 0, 1)
        assert check_7_12(base, offset) == 0
        top = tuple(p + offset for p in base)
        assert prism_split_volumes(base, top) == (F(1, 6), F(1, 6), F(1, 6))

    def test_degenerate_zero_height(self):
        base = (pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0))
        assert check_7_12(base, pt3(0, 0, 0)) == 0

    def test_random_oblique_prisms(self):
        rng = random.Random(712)
        from mesolabe.euclid import rand_prism

        for _ in range(200):
            assert check_7_12(*rand_prism(rng)) == 0


class TestPappus:
    def test_squares_reduce_to_pythagoras(self):
        t = Triangle(pt(0, 0), pt(1, 0), pt(0, 1))
        residual = check_pappus(t, pt(0, -1), pt(-1, 0))
        assert residual == 0

    def test_random_outward_parallelograms(self):
        rng = random.Random(471)
        for _ in range(200):
            t, _ = rand_classified_triangle(rng)
            u, v = rand_pappus_offsets(rng, t)
            assert check_pappus(t, u, v) == 0

    def test_inward_orientation_detected(self):
        t = Triangle(pt(0, 0), pt(1, 0), pt(0, 1))
        assert check_pappus(t, pt(0, 1), pt(-1, 0)) != 0


class TestRationalParametrizations:
    @given(st.fractions(max_denominator=200))
    def test_circle_points_on_unit_circle(self, t):
        p = unit_circle_point(t)
        assert p.x * p.x + p.y * p.y == 1


class TestValueSemantics:
    """The points are plain values: equal coordinates make equal, interchangeable objects."""

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_equal_coordinates_give_equal_objects(self, x, y, z):
        # an integral Fraction equals, and hashes as, the int it stands for
        same = [(Point2(x, y), Point2(F(x), F(y))), (Point3(x, y, z), Point3(F(x), F(y), F(z)))]
        if x.denominator == y.denominator == z.denominator == 1:
            same += [(Point2(x, y), Point2(int(x), int(y))),
                     (Point3(x, y, z), Point3(int(x), int(y), int(z)))]
        for p, q in same:
            assert p is not q and p == q and hash(p) == hash(q)
            assert len({p, q}) == 1 and {p: 1}[q] == 1
        assert Point2(x, y) != Point2(x, y + 1) and Point3(x, y, z) != Point3(x, y, z + 1)

    def test_points_as_set_members_and_dict_keys(self):
        points = [Point2(i % 3, i % 2) for i in range(12)]
        assert len(set(points)) == 6
        seen = {}
        for p in points:
            seen[p] = seen.get(p, 0) + 1
        assert seen[Point2(F(2), F(0))] == 2 and Point2(1, 1) in seen
        assert {Point3(1, 2, 3), Point3(F(1), 2, 3)} == {Point3(1, 2, 3)}

    def test_repr(self):
        assert repr(Point2(1, 2)) == "Point2(x=1, y=2)"
        assert repr(Point3(F(1, 2), -3, 0)) == "Point3(x=Fraction(1, 2), y=-3, z=0)"
        assert repr(Triangle(Point2(0, 0), Point2(1, 0), Point2(0, 1))) == (
            "Triangle(a=Point2(x=0, y=0), b=Point2(x=1, y=0), c=Point2(x=0, y=1))"
        )

    def test_different_classes_are_unequal(self):
        assert Point2(1, 2) != Point3(1, 2, 0)
        assert Point2(1, 2) != (1, 2) and Point3(1, 2, 0) != (1, 2, 0)

    def test_triangle_of_equal_points_equals_the_original(self):
        t = rand_right_triangle(random.Random(5))
        copy = Triangle(*(Point2(F(p.x), F(p.y)) for p in (t.a, t.b, t.c)))
        assert copy is not t and copy == t and hash(copy) == hash(t)
        assert copy != Triangle(t.a, t.c, t.b)


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
        flat = Triangle(pt(0, 0), pt(1, 0), pt(2, 0))
        with pytest.raises(ValueError):
            euclid._detects(lambda: check_47_1(flat))


_VOLUMES = itertools.count()

#: checker -> (attribute patched to lie, the lie, a call the lie must break)
LIARS = {
    "check_clavius_31_3": ("Point2.norm_sq", lambda self: 0,
                           lambda: check_clavius_31_3(pt(-1, 0), pt(1, 0), pt(0, 2))),
    "check_19_7": ("Fraction", lambda a, b: 0, lambda: check_19_7(1, 2, 3, 5)),
    "check_20_7": ("Fraction", lambda a, b: 0, lambda: check_20_7(1, 2, 3)),
    "check_7_12": ("_six_volume", lambda *points: next(_VOLUMES),
                   lambda: check_7_12((pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0)), pt3(0, 0, 1))),
}


class TestCertification:
    """Two exact evaluations that disagree raise, and are never a detection."""

    @pytest.mark.parametrize("checker", LIARS)
    def test_disagreement_raises(self, checker, monkeypatch):
        attribute, lie, call = LIARS[checker]
        monkeypatch.setattr(f"mesolabe.euclid.{attribute}", lie)
        with pytest.raises(CertificationError):
            call()
        with pytest.raises(CertificationError):
            euclid._detects(call)

    def test_disagreement_raises_without_asserts(self):
        # python -O strips assert statements; the checks must not need them
        code = (
            "import itertools\n"
            "from mesolabe import cli, euclid\n"
            "from mesolabe.euclid import Point2, Point3\n"
            "from mesolabe.scalar import CertificationError\n"
            "print('debug', __debug__)\n"
            "counter = itertools.count()\n"
            "Point2.norm_sq = lambda self: 0\n"
            "euclid.Fraction = lambda a, b: 0\n"
            "euclid._six_volume = lambda *points: next(counter)\n"
            "p3 = Point3\n"
            "for call in (lambda: euclid.check_clavius_31_3(Point2(-1, 0), Point2(1, 0), Point2(0, 2)),\n"
            "             lambda: euclid.check_19_7(1, 2, 3, 5),\n"
            "             lambda: euclid.check_20_7(1, 2, 3),\n"
            "             lambda: euclid.check_7_12((p3(0, 0, 0), p3(1, 0, 0), p3(0, 1, 0)), p3(0, 0, 1))):\n"
            "    try:\n"
            "        call()\n"
            "        print('accepted')\n"
            "    except CertificationError:\n"
            "        print('refused')\n"
            "print('exit', cli.main(['check-props', '--instances', '3']))\n"
        )
        src = str(Path(mesolabe.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.split("\n") == ["debug False"] + ["refused"] * 4 + ["exit 1", ""]
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
