"""Executable checkers for the Elements propositions the construction relies on.

Every predicate here is exact over ``int`` or :class:`~fractions.Fraction`
coordinates; a checker returns a residual (the claim holds iff it is 0) or a
bool for incidence claims, and never a float.  No coordinate is ever
divided: midpoints, feet of perpendiculars, intersection points and volumes
are compared in homogeneous form, multiplied through by their denominators,
and a cleared residual is turned back into its plain value by one exact
division at the end, only when it is non-zero.  Each claim is a homogeneous
polynomial identity, so its verdict is unchanged when the instance is scaled
by a positive integer.  The seeded suite behind ``check-props`` relies on
that: it builds every instance on the integer lattice, as the rational
instance times its common denominator, and runs on ``int`` throughout.
Each checker reads its points' coordinates once and evaluates its residual
as one polynomial in them, literal to the proposition, with no intermediate
point or vector record.  There are no epsilon comparisons in this module,
which is what lets the rest of the package use these checkers as its oracle
layer.

Conventions: a plane point is a tuple ``(x, y)`` and a space point a tuple
``(x, y, z)``; a triangle is a tuple ``(a, b, c)`` of plane points with its
designated vertex first, so a "right angle at the designated vertex" means
the angle at ``a``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .scalar import ValueRecord, unit_circle_ints


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _uncleared(residual: Fraction, k: Fraction) -> Fraction:
    """``residual / k`` for a residual multiplied through by ``k > 0``."""
    return Fraction(residual, k) if residual else residual


# -- book I ------------------------------------------------------------------


def check_47_1(t: tuple) -> Fraction:
    """Square on the hypotenuse minus the squares on the legs, angle at a.

    The residual is -2 AB . AC, so it is 0 exactly when the angle at a is
    right.
    """
    (ax, ay), (bx, by), (cx, cy) = t
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    _require(ux * vy - uy * vx != 0, "degenerate triangle")
    return wx * wx + wy * wy - (ux * ux + uy * uy) - (vx * vx + vy * vy)


def check_pappus(t: tuple, offset_ab: tuple, offset_ac: tuple) -> Fraction:
    """Pappus' parallelogram generalization of 47.1.

    ``offset_ab``/``offset_ac`` are the side vectors of the parallelograms
    erected on AB and AC.  Their outer sides are extended to meet at H; the
    parallelogram on BC with side equal and parallel to HA then matches the
    other two in combined area.  Returns
    area(on AB) + area(on AC) - area(on BC), exact.  It is zero for the
    outward configuration the proposition describes, and also when both
    parallelograms are erected inward, since negating both offsets leaves
    it unchanged.  The residual is homogeneous of degree one in the
    triangle and of degree one in the two offsets.
    """
    (ax, ay), (bx, by), (cx, cy) = t
    (ux, uy), (vx, vy) = offset_ab, offset_ac
    abx, aby, acx, acy = bx - ax, by - ay, cx - ax, cy - ay
    den = abx * acy - aby * acx
    _require(den != 0, "degenerate triangle")
    on_ab, on_ac = abx * uy - aby * ux, acx * vy - acy * vx
    _require(on_ab != 0, "parallelogram on AB is flat")
    _require(on_ac != 0, "parallelogram on AC is flat")
    # H = A + offset_ab + s*AB with s = num/den solves
    # A + offset_ab + s*AB = A + offset_ac + r*AC; (hx, hy) is den * (H - A).
    num = (vx - ux) * acy - (vy - uy) * acx
    hx, hy = ux * den + abx * num, uy * den + aby * num
    k = abs(den)
    areas = abs(on_ab) + abs(on_ac)
    return _uncleared(areas * k - abs((cx - bx) * hy - (cy - by) * hx), k)


# -- book II -----------------------------------------------------------------


def check_12_2(t: tuple) -> Fraction:
    """Obtuse case: BC^2 - (AB^2 + AC^2 + 2 * rectangle) with the angle at a.

    The rectangle is one side about the obtuse angle times the stretch cut
    off outside by the perpendicular, which over rationals is exactly
    ``|AB . AC|`` without extracting any root.  The residual is
    -2 (AB . AC + |AB . AC|): 0 unless the angle at a is acute.
    """
    (ax, ay), (bx, by), (cx, cy) = t
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    return wx * wx + wy * wy - (ux * ux + uy * uy + vx * vx + vy * vy + 2 * abs(ux * vx + uy * vy))


def check_13_2(t: tuple) -> Fraction:
    """Acute case: BC^2 - (AB^2 + AC^2 - 2 * rectangle) with the angle at a.

    The residual is 2 (|AB . AC| - AB . AC): 0 unless the angle at a is
    obtuse.
    """
    (ax, ay), (bx, by), (cx, cy) = t
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    return wx * wx + wy * wy - (ux * ux + uy * uy + vx * vx + vy * vy - 2 * abs(ux * vx + uy * vy))


# -- book III ----------------------------------------------------------------


def check_3_3(center: tuple, chord: tuple) -> bool:
    """A diameter bisects a non-central chord iff it meets it at right angles.

    The diameter through the chord's midpoint is perpendicular to the chord
    exactly when the foot of the perpendicular from the centre is that
    midpoint: both directions reduce to one polynomial,
    ``(p + q - 2 * center) . (q - p) = 0``, which is evaluated once.  With
    the ends at unequal distances from the centre it is False.
    """
    (cx, cy), ((px, py), (qx, qy)) = center, chord
    _require(px != qx or py != qy, "degenerate chord")
    alx, aly = qx - px, qy - py
    _require(alx * (cy - py) - aly * (cx - px) != 0, "chord passes through the centre")
    return (px + qx - cx * 2) * alx + (py + qy - cy * 2) * aly == 0


def check_clavius_31_3(p: tuple, q: tuple, r: tuple) -> bool:
    """Clavius' scholium: the arc holding a right angle is a semicircle.

    True iff the angle at ``r`` is right, which is exactly when the circle
    on ``pq`` as diameter passes through ``r``:
    |2r - p - q|^2 - |q - p|^2 = 4 (r - p) . (r - q).
    """
    (px, py), (qx, qy), (rx, ry) = p, q, r
    _require(px != qx or py != qy, "degenerate diameter")
    return (rx - px) * (rx - qx) + (ry - py) * (ry - qy) == 0


# -- book VI -----------------------------------------------------------------


def check_8_6_corollary(t: tuple) -> Fraction:
    """Altitude from the right angle squared minus the base-segment rectangle.

    Right angle at ``a``; the altitude foot divides BC into segments whose
    product is computed exactly from the projection parameter ``num/den``,
    so no length ever leaves the rationals.  Both terms are evaluated times
    ``den^2``.  The residual is AB . AC, so it is 0 exactly when the angle
    at a is right.
    """
    (ax, ay), (bx, by), (cx, cy) = t
    _require((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0, "degenerate triangle")
    wx, wy, bax, bay = cx - bx, cy - by, ax - bx, ay - by  # BC and BA
    num, den = bax * wx + bay * wy, wx * wx + wy * wy
    hx, hy = bax * den - wx * num, bay * den - wy * num
    altitude_sq = hx * hx + hy * hy
    segments_product = num * (den - num) * den
    return _uncleared(altitude_sq - segments_product, den * den)


def check_31_6(t: tuple, aspect: Fraction) -> Fraction:
    """Similar figures on the sides of a right triangle (rectangles of one aspect).

    Similar-figure areas scale with the squares of the sides, so rectangles
    of a fixed rational aspect ratio keep the check exact: the figure on the
    hypotenuse equals the two on the legs combined.  The residual is
    -2 aspect AB . AC, linear in ``aspect`` and 0 exactly when the angle at
    a is right.
    """
    _require(aspect > 0, "aspect ratio must be positive")
    (ax, ay), (bx, by), (cx, cy) = t
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    return aspect * (wx * wx + wy * wy) - aspect * (ux * ux + uy * uy) - aspect * (vx * vx + vy * vy)


# -- book VII ----------------------------------------------------------------


def check_19_7(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> bool:
    """Four terms are proportional iff the outer product equals the inner one.

    With non-zero consequents ``a:b = c:d`` holds exactly when
    ``a*d = b*c``, so the products decide it without reducing either ratio.
    """
    _require(b != 0 and d != 0, "zero consequent in a ratio")
    return a * d == b * c


def check_20_7(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Three terms are proportional iff the extremes' product is the mean's square."""
    _require(b != 0 and c != 0, "zero consequent in a ratio")
    return a * c == b * b


# -- book XI -----------------------------------------------------------------


def check_4_11(line_dir: tuple, u: tuple, v: tuple) -> bool:
    """A line orthogonal to two crossing lines is orthogonal to their plane.

    Checking ``u`` and ``v`` is conclusive: by bilinearity
    ``line_dir . (alpha*u + beta*v) = alpha*(line_dir . u) + beta*(line_dir . v)``.
    """
    (lx, ly, lz), (ux, uy, uz), (vx, vy, vz) = line_dir, u, v
    _require(uy * vz != uz * vy or uz * vx != ux * vz or ux * vy != uy * vx, "u and v are parallel")
    return lx * ux + ly * uy + lz * uz == 0 and lx * vx + ly * vy + lz * vz == 0


# -- book XII ----------------------------------------------------------------


def _six_volume(p0: tuple, p1: tuple, p2: tuple, p3: tuple) -> Fraction:
    """Six times the volume of the tetrahedron: its absolute triple product."""
    (x, y, z), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = p0, p1, p2, p3
    ux, uy, uz, vx, vy, vz = x1 - x, y1 - y, z1 - z, x2 - x, y2 - y, z2 - z
    wx, wy, wz = x3 - x, y3 - y, z3 - z
    return abs((uy * vz - uz * vy) * wx + (uz * vx - ux * vz) * wy + (ux * vy - uy * vx) * wz)


def check_7_12(base: tuple, top: tuple) -> Fraction:
    """A triangular prism splits into three equal tetrahedra.

    ``top`` is the claimed top face, vertex for vertex over ``base``.
    Returns the largest minus the smallest volume of the three tetrahedra
    of the canonical split, 0 exactly when they are equal, as they are when
    ``top`` is ``base`` translated.  The volumes are compared as six times
    the volume, scalar triple products.
    """
    (a, b, c), (a2, b2, c2) = base, top
    six_volumes = _six_volume(a, b, c, c2), _six_volume(a, b, b2, c2), _six_volume(a, a2, b2, c2)
    return _uncleared(max(six_volumes) - min(six_volumes), 6)


# -- constructive generators ---------------------------------------------------
#
# Everything below builds *exact* witnesses for the checkers: rational points
# on circles and spheres, right angles by construction, proportional tuples
# by construction.  The seeded random.Random instance keeps the CLI's
# property runs reproducible.  Each suite generator draws the numerators and
# denominators of small random fractions (numerators in [-8, 8], or [1, 8]
# with a random sign, over denominators in [1, 9]) and returns the rational
# instance they define times the product of its denominators, a positive
# integer, so its coordinates are ints.  The private lattice helpers work on
# plain int tuples, a point's coordinates followed by its scale, and combine
# scales on ints; every rejection test runs on those ints, and a generator
# returns its points as coordinate tuples, as the checkers take them.


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: the same value, leaving ``rng`` in the same state.

    It draws as ``randint`` does, ``n.bit_length()`` bits of ``getrandbits``
    until they fall below n = hi - lo + 1, without the argument checks and
    the two calls ``randint`` makes on the way to that loop.
    """
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _draw(rng: random.Random) -> tuple[int, int]:
    """Numerator in [-8, 8] and denominator in [1, 9] of a random fraction.

    :func:`_randint` inlined for the suite's hottest draw: 17 values take
    5 bits and 9 values take 4.
    """
    bits = rng.getrandbits
    n = bits(5)
    while n >= 17:
        n = bits(5)
    d = bits(4)
    while d >= 9:
        d = bits(4)
    return n - 8, d + 1


def _draw_nonzero(rng: random.Random) -> tuple[int, int]:
    """Numerator in +-[1, 8] and denominator in [1, 9], drawn as :func:`_draw` draws."""
    bits = rng.getrandbits
    n = bits(4)
    while n >= 8:
        n = bits(4)
    d = bits(4)
    while d >= 9:
        d = bits(4)
    return (-n - 1 if rng.random() < 0.5 else n + 1), d + 1


def _lattice_point2(rng: random.Random) -> tuple[int, int, int]:
    """``(x, y, k)``: a random point times the positive scale k, on the integer lattice.

    Each coordinate is drawn as :func:`_draw` draws it, inlined: the suite
    takes most of its draws here and in :func:`_lattice_point3`.
    """
    bits = rng.getrandbits
    x = bits(5)
    while x >= 17:
        x = bits(5)
    dx = bits(4)
    while dx >= 9:
        dx = bits(4)
    y = bits(5)
    while y >= 17:
        y = bits(5)
    dy = bits(4)
    while dy >= 9:
        dy = bits(4)
    dx, dy = dx + 1, dy + 1
    return (x - 8) * dy, (y - 8) * dx, dx * dy


def _lattice_point3(rng: random.Random) -> tuple[int, int, int, int]:
    """``(x, y, z, k)``, drawn as :func:`_lattice_point2` draws."""
    bits = rng.getrandbits
    x = bits(5)
    while x >= 17:
        x = bits(5)
    dx = bits(4)
    while dx >= 9:
        dx = bits(4)
    y = bits(5)
    while y >= 17:
        y = bits(5)
    dy = bits(4)
    while dy >= 9:
        dy = bits(4)
    z = bits(5)
    while z >= 17:
        z = bits(5)
    dz = bits(4)
    while dz >= 9:
        dz = bits(4)
    dx, dy, dz = dx + 1, dy + 1, dz + 1
    return (x - 8) * dy * dz, (y - 8) * dx * dz, (z - 8) * dx * dy, dx * dy * dz


def _circle_vector(rng: random.Random, radius: int) -> tuple[int, int, int]:
    """``(x, y, k)``: ``radius`` times the point of :func:`unit_circle_ints` of a random
    fraction, times its scale k."""
    x, y, k = unit_circle_ints(*_draw(rng))
    return x * radius, y * radius, k


def _two_on_circle(rng: random.Random) -> tuple[int, int, int, int, int]:
    """``(ux, uy, vx, vy, k)``: two random points of a random circle about the origin, times k."""
    r, dr = _draw_nonzero(rng)
    (ux, uy, ku), (vx, vy, kv) = _circle_vector(rng, abs(r)), _circle_vector(rng, abs(r))
    return ux * kv, uy * kv, vx * ku, vy * ku, dr * ku * kv


def _circle_setup(rng: random.Random) -> tuple[int, int, int, int, int, int]:
    """``(cx, cy, px, py, qx, qy)``: a centre and two points of a circle about it, one lattice."""
    cx, cy, kc = _lattice_point2(rng)
    ux, uy, vx, vy, k = _two_on_circle(rng)
    cx, cy = cx * k, cy * k
    return cx, cy, cx + ux * kc, cy + uy * kc, cx + vx * kc, cy + vy * kc


def rand_right_triangle(rng: random.Random) -> tuple:
    """Right angle at the designated vertex, rational by a rotated frame.

    The legs are non-zero multiples of two perpendicular unit vectors, so
    the triangle is never degenerate.
    """
    ux, uy, ku = _circle_vector(rng, 1)
    (p, dp), (q, dq) = _draw_nonzero(rng), _draw_nonzero(rng)
    ax, ay, ka = _lattice_point2(rng)
    ax, ay = ax * ku * dp * dq, ay * ku * dp * dq
    p, q = p * dq * ka, q * dp * ka
    return (ax, ay), (ax + ux * p, ay + uy * p), (ax - uy * q, ay + ux * q)


def rand_classified_triangle(rng: random.Random) -> tuple[tuple, int]:
    """Random non-degenerate triangle with the sign of the angle dot at ``a``."""
    while True:
        (ax, ay, ka), (bx, by, kb), (cx, cy, kc) = (_lattice_point2(rng) for _ in "abc")
        ax, ay, bx, by = ax * kb * kc, ay * kb * kc, bx * ka * kc, by * ka * kc
        cx, cy = cx * ka * kb, cy * ka * kb
        ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
        d = ux * vx + uy * vy
        if d and ux * vy != uy * vx:
            return ((ax, ay), (bx, by), (cx, cy)), (1 if d > 0 else -1)


def rand_proportional_quad(rng: random.Random) -> tuple[int, int, int, int]:
    """``(p, p*k, q, q*k)`` for random non-zero fractions p, q, k."""
    (p, dp), (q, dq), (k, dk) = _draw_nonzero(rng), _draw_nonzero(rng), _draw_nonzero(rng)
    return p * dq * dk, p * k * dq, q * dp * dk, q * k * dp


def rand_proportional_triple(rng: random.Random) -> tuple[int, int, int]:
    """``(p, p*k, p*k*k)`` for random non-zero fractions p, k."""
    (p, dp), (k, dk) = _draw_nonzero(rng), _draw_nonzero(rng)
    return p * dk * dk, p * k * dk, p * k * k


def rand_prism(rng: random.Random) -> tuple[tuple, tuple]:
    while True:
        points = [_lattice_point3(rng) for _ in range(4)]
        total = math.prod(k for *_, k in points)
        (ax, ay, az), (bx, by, bz), (cx, cy, cz), (ox, oy, oz) = (
            (x * s, y * s, z * s) for x, y, z, k in points for s in (total // k,)
        )
        ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
        if (uy * vz - uz * vy) * ox + (uz * vx - ux * vz) * oy + (ux * vy - uy * vx) * oz:
            return ((ax, ay, az), (bx, by, bz), (cx, cy, cz)), (ox, oy, oz)


def rand_chord_setup(rng: random.Random) -> tuple[tuple, tuple]:
    """Centre plus a non-central chord with both ends on a rational circle."""
    while True:
        cx, cy, px, py, qx, qy = _circle_setup(rng)
        if (qx - px) * (cy - py) != (qy - py) * (cx - px):  # also rejects p == q
            return (cx, cy), ((px, py), (qx, qy))


def rand_pappus_offsets(rng: random.Random, t: tuple) -> tuple[tuple, tuple]:
    """Outward parallelogram side vectors for :func:`check_pappus`.

    The two offsets share one integer lattice of their own; the triangle
    keeps its scale, which changes no verdict, because the Pappus residual
    is homogeneous in the triangle and in the offsets separately.  Each
    offset's side is tested before the lattice, whose positive scale keeps
    every sign.
    """
    (ax, ay), (bx, by), (cx, cy) = t
    abx, aby, acx, acy = bx - ax, by - ay, cx - ax, cy - ay
    orientation = abx * acy - aby * acx
    while True:
        (ux, uy, ku), (vx, vy, kv) = _lattice_point2(rng), _lattice_point2(rng)
        if (abx * uy - aby * ux) * orientation < 0 and (acx * vy - acy * vx) * orientation > 0:
            return (ux * kv, uy * kv), (vx * ku, vy * ku)


# -- runnable proposition suite -------------------------------------------------
#
# One entry per cited proposition: a constructor of valid instances that must
# check clean, and a perturbation that must be detected: a non-zero
# residual, or False for an incidence claim.  A precondition rejection is
# never a detection; no perturbation leaves a checker's domain.  The CLI's
# check-props subcommand and the acceptance suite both run this table.  A
# perturbation by a small fraction n/m multiplies the lattice instance by m,
# so it stays on the integer lattice.


def _nudge(rng: random.Random) -> tuple[int, int]:
    """Numerator and denominator of a small positive fraction n/m."""
    return _randint(rng, 1, 7), _randint(rng, 89, 127)


def _detects(result) -> bool:
    """Whether a checker's result on a perturbed instance reports the defect."""
    if result is True:
        return False
    if result is False:
        return True
    return result != 0


def _pert_right(rng: random.Random, vertex: int, leg: int) -> tuple:
    """A right triangle times m, with one vertex moved by n times one leg, for the nudge n/m.

    ``vertex`` 0, 1 or 2 is a, b or c, and ``leg`` 0 or 1 is AB or AC.  The
    triangle is drawn before the nudge.
    """
    t = rand_right_triangle(rng)
    n, m = _nudge(rng)
    (ax, ay), (ex, ey) = t[0], t[leg + 1]
    moved = [(x * m, y * m) for x, y in t]
    x, y = moved[vertex]
    moved[vertex] = x + (ex - ax) * n, y + (ey - ay) * n
    return tuple(moved)


def _valid_47_1(rng):
    return check_47_1(rand_right_triangle(rng)) == 0


def _pert_47_1(rng):
    return _detects(check_47_1(_pert_right(rng, 2, 0)))  # C moved along AB breaks the right angle


def _valid_12_13_2(rng):
    t, kind = rand_classified_triangle(rng)
    residual = check_13_2(t) if kind > 0 else check_12_2(t)
    return residual == 0


def _pert_12_13_2(rng):
    t, kind = rand_classified_triangle(rng)
    wrong = check_12_2 if kind > 0 else check_13_2
    return _detects(wrong(t))


def _valid_3_3(rng):
    return check_3_3(*rand_chord_setup(rng))


def _pert_3_3(rng):
    (cx, cy), ((px, py), (qx, qy)) = rand_chord_setup(rng)
    n, m = _nudge(rng)
    # q moved radially off the circle: the centre plus (m + n) times its radius
    off = cx * m + (qx - cx) * (m + n), cy * m + (qy - cy) * (m + n)
    return _detects(check_3_3((cx * m, cy * m), ((px * m, py * m), off)))


def _valid_8_6(rng):
    return check_8_6_corollary(rand_right_triangle(rng)) == 0


def _pert_8_6(rng):
    return _detects(check_8_6_corollary(_pert_right(rng, 0, 0)))


def _valid_31_6(rng):
    # the aspect num/den times den; the residual is linear in the aspect, so
    # den is drawn only to keep the seeded stream
    num, den = _randint(rng, 1, 9), _randint(rng, 1, 9)
    return check_31_6(rand_right_triangle(rng), num) == 0


def _pert_31_6(rng):
    return _detects(check_31_6(_pert_right(rng, 1, 1), 2))  # the aspect 2/3, times 3


# 19.7 and 20.7: moving the last term by any non-zero amount breaks the
# product identity, because the first term is never zero.  The quad or triple
# is multiplied by m and its last term moved by n, which cannot reach zero
# since 0 < n < m.


def _valid_19_7(rng):
    return check_19_7(*rand_proportional_quad(rng))


def _pert_19_7(rng):
    a, b, c, d = rand_proportional_quad(rng)
    n, m = _nudge(rng)
    return _detects(check_19_7(a * m, b * m, c * m, d * m + n))


def _valid_20_7(rng):
    return check_20_7(*rand_proportional_triple(rng))


def _pert_20_7(rng):
    a, b, c = rand_proportional_triple(rng)
    n, m = _nudge(rng)
    return _detects(check_20_7(a * m, b * m, c * m + n))


def _uv_pair(rng):
    while True:  # parallel or not before the lattice, whose positive scales keep it
        (ux, uy, uz, ku), (vx, vy, vz, kv) = _lattice_point3(rng), _lattice_point3(rng)
        if uy * vz != uz * vy or uz * vx != ux * vz or ux * vy != uy * vx:
            return (ux * kv, uy * kv, uz * kv), (vx * ku, vy * ku, vz * ku)


def _cross(u: tuple, v: tuple) -> tuple:
    """The cross product u x v of two space vectors."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def _valid_4_11(rng):
    u, v = _uv_pair(rng)
    return check_4_11(_cross(u, v), u, v)


def _pert_4_11(rng):
    u, v = _uv_pair(rng)
    (nx, ny, nz), (ux, uy, uz) = _cross(u, v), u
    return _detects(check_4_11((nx + ux, ny + uy, nz + uz), u, v))


def _valid_7_12(rng):
    base, (ox, oy, oz) = rand_prism(rng)
    return check_7_12(base, tuple((x + ox, y + oy, z + oz) for x, y, z in base)) == 0


def _pert_7_12(rng):
    base, (ox, oy, oz) = rand_prism(rng)
    n, m = _nudge(rng)
    moved = tuple((x * m, y * m, z * m) for x, y, z in base)
    # stretching one lateral edge turns the prism into a frustum-like solid:
    # a and b move by m times the offset, c by m + n times it
    top = tuple((x + ox * s, y + oy * s, z + oz * s) for (x, y, z), s in zip(moved, (m, m, m + n)))
    return _detects(check_7_12(moved, top))


def _valid_pappus(rng):
    t, _ = rand_classified_triangle(rng)
    u, v = rand_pappus_offsets(rng, t)
    return check_pappus(t, u, v) == 0


def _pert_pappus(rng):
    t, _ = rand_classified_triangle(rng)
    (ux, uy), v = rand_pappus_offsets(rng, t)
    return _detects(check_pappus(t, (-ux, -uy), v))


def _clavius_instance(rng: random.Random) -> tuple[tuple, tuple, tuple]:
    """Ends ``p, q`` of a diameter and a third point ``r`` of the same circle."""
    while True:
        cx, cy, px, py, rx, ry = _circle_setup(rng)
        qx, qy = 2 * cx - px, 2 * cy - py
        if (rx, ry) != (px, py) and (rx, ry) != (qx, qy):
            return (px, py), (qx, qy), (rx, ry)


def _valid_clavius(rng):
    return check_clavius_31_3(*_clavius_instance(rng))


def _pert_clavius(rng):
    vx, vy, rx, ry, _ = _two_on_circle(rng)  # about the origin
    n, m = _nudge(rng)
    bad = rx * (m + n), ry * (m + n)  # radially off the circle
    return _detects(check_clavius_31_3((vx * m, vy * m), (-vx * m, -vy * m), bad))


PROPOSITION_SUITE: tuple[tuple[str, object, object], ...] = (
    ("47.1", _valid_47_1, _pert_47_1),
    ("12.2/13.2", _valid_12_13_2, _pert_12_13_2),
    ("3.3", _valid_3_3, _pert_3_3),
    ("coroll. 8.6", _valid_8_6, _pert_8_6),
    ("31.6", _valid_31_6, _pert_31_6),
    ("19.7", _valid_19_7, _pert_19_7),
    ("20.7", _valid_20_7, _pert_20_7),
    ("4.11", _valid_4_11, _pert_4_11),
    ("7.12", _valid_7_12, _pert_7_12),
    ("Pappus on 47.1", _valid_pappus, _pert_pappus),
    ("Clavius on 31.3", _valid_clavius, _pert_clavius),
)


class SuiteRow(ValueRecord):
    """Valid instances held and perturbed ones detected; immutable by convention."""

    __slots__ = ("name", "valid_ok", "valid_total", "perturbed_detected", "perturbed_total")

    @property
    def passed(self) -> bool:
        return self.valid_ok == self.valid_total and self.perturbed_detected == self.perturbed_total


def run_proposition_suite(seed: int, instances: int) -> list[SuiteRow]:
    """Run every checker on seeded constructive and perturbed instances."""
    rows = []
    perturbed_total = max(1, instances // 10)
    for name, valid, perturbed in PROPOSITION_SUITE:
        rng = random.Random(f"{seed}:{name}")
        valid_ok = sum(1 for _ in range(instances) if valid(rng))
        detected = sum(1 for _ in range(perturbed_total) if perturbed(rng))
        rows.append(SuiteRow(name, valid_ok, instances, detected, perturbed_total))
    return rows
