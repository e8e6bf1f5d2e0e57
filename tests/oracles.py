"""Independent oracles for the test suite.

Every expected value frozen in the tests is computed by one of these
routes, which deliberately avoid the code paths they are used to check:
schoolbook digit-array multiplication, float-seeded Newton iterations over
Fractions, bisection of the chord problem in a different variable, a
Cramer-rule circumcenter, explicit vector realizations of edge frames, and
Fraction builders of the proposition suite's instances.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction


def long_multiply(a: str, b: str) -> str:
    """Schoolbook product of two plain decimal strings, digit by digit."""

    def split(s: str):
        neg = s.startswith("-")
        s = s.lstrip("+-")
        int_part, _, frac_part = s.partition(".")
        return neg, [int(c) for c in int_part + frac_part], len(frac_part)

    neg_a, da, fa = split(a)
    neg_b, db, fb = split(b)
    out = [0] * (len(da) + len(db))
    for i, x in enumerate(reversed(da)):
        carry = 0
        for j, y in enumerate(reversed(db)):
            cur = out[i + j] + x * y + carry
            out[i + j] = cur % 10
            carry = cur // 10
        pos = i + len(db)
        while carry:
            cur = out[pos] + carry
            out[pos] = cur % 10
            carry = cur // 10
            pos += 1
    digits = "".join(str(d) for d in reversed(out))
    frac = fa + fb
    digits = digits.rjust(frac + 1, "0")
    if frac:
        text = (digits[:-frac].lstrip("0") or "0") + "." + digits[-frac:]
    else:
        text = digits.lstrip("0") or "0"
    sign = "-" if (neg_a != neg_b) and any(out) else ""
    return sign + text


def grouped_digits(sign: str, int_part: str, frac: str) -> str:
    """Paper-table typography by regular expression: the fractional digits in
    groups of five, one string per group.

    An integer part of exactly five digits gets one leading zero, and a zero
    integer part is left out when a full five-digit group follows.
    """
    if len(int_part) == 5:
        int_part = "0" + int_part
    groups = re.findall(r"\d{1,5}", frac)
    if int_part == "0" and len(frac) >= 5:
        return sign + " ".join(groups)
    return sign + " ".join([int_part] + groups)


def newton_sqrt(value: Fraction, digits: int) -> Fraction:
    """Float-seeded Newton square root, truncated to bounded denominators."""
    if value < 0:
        raise ValueError("negative")
    if value == 0:
        return Fraction(0)
    p = 10 ** (digits + 10)
    x = Fraction(math.sqrt(float(value)))
    for _ in range(12):
        x = (x + value / x) / 2
        x = Fraction(int(x * p), p)
    assert abs(x * x - value) < Fraction(1, 10**digits)
    return x


def rounded(value: Fraction, digits: int) -> Fraction:
    """``value`` rounded half-even to ``digits`` fractional digits, by the built-in ``round``."""
    return Fraction(round(value * 10**digits), 10**digits)


def rounded_sqrt(value: Fraction, digits: int) -> Fraction:
    """sqrt(value) rounded half-even to ``digits`` fractional digits, exactly.

    ``lo`` is the floor of the root on the grid 10^-digits, from ``math.isqrt``
    of the floored scaled value; the root lies beyond the midpoint
    lo + 10^-digits / 2 exactly when ``value`` exceeds that midpoint squared,
    and on it exactly when ``value`` equals it, a tie that goes to the even
    neighbour.
    """
    if value < 0:
        raise ValueError("negative")
    unit = Fraction(1, 10**digits)
    lo = math.isqrt(math.floor(value / (unit * unit)))
    mid = (lo + Fraction(1, 2)) * unit
    if value > mid * mid or (value == mid * mid and lo % 2 == 1):
        lo += 1
    return lo * unit


def rounded_cbrt(value: Fraction, digits: int) -> Fraction:
    """cbrt(value) rounded half-even to ``digits`` fractional digits, exactly.

    ``lo`` is the floor of the root on the grid 10^-digits, by bisection on
    exact cubes; the root lies beyond the midpoint lo + 10^-digits / 2
    exactly when ``value`` exceeds that midpoint cubed, and on it exactly
    when ``value`` equals it, a tie that goes to the even neighbour.
    """
    if value < 0:
        raise ValueError("negative")
    unit = Fraction(1, 10**digits)
    scaled = value / unit**3
    lo, hi = 0, 1
    while hi**3 <= scaled:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**3 <= scaled:
            lo = mid
        else:
            hi = mid
    mid = (lo + Fraction(1, 2)) * unit
    if value > mid**3 or (value == mid**3 and lo % 2 == 1):
        lo += 1
    return lo * unit


def newton_cbrt(value: Fraction, digits: int) -> Fraction:
    """Float-seeded Newton cube root (sign passes through)."""
    if value == 0:
        return Fraction(0)
    sign = 1 if value > 0 else -1
    v = abs(value)
    p = 10 ** (digits + 10)
    x = Fraction(float(v) ** (1.0 / 3.0))
    for _ in range(12):
        x = (2 * x + v / (x * x)) / 3
        x = Fraction(int(x * p), p)
    assert abs(x**3 - v) < Fraction(1, 10**digits)
    return sign * x


def chord_lengths(d: Fraction, digits: int) -> tuple[Fraction, Fraction, Fraction]:
    """(AB, BC, BD) by bisecting for the common ratio, not for AB itself.

    With r = BD/AD the continued proportion forces BD = d*r, BC = d*r^2,
    AB = d*r^3 and the complement condition becomes r^3 + r = 1, a strictly
    increasing cubic; this is a genuinely different equation from the
    (d - x)^3 = d^2 x the implementation solves.
    """
    grid = 10 ** (digits + 5)
    lo, hi = 0, grid
    f = lambda r: r**3 + r - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(Fraction(mid, grid)) < 0:
            lo = mid
        else:
            hi = mid
    r = Fraction(lo + hi, 2 * grid)
    return d * r**3, d * r**2, d * r


def chord_digits(d: Fraction, power: int, digits: int) -> tuple[Fraction, Fraction]:
    """(floor, nearest) of d r^power at ``digits`` fractional digits, r = BD/AD the
    root of r^3 + r = 1: AB for power 3, BC for 2 and BD for 1.

    r is bracketed by bisection on the sign of r^3 + r - 1 over a grid of
    10^-n, with n grown until d r^power 10^digits at both ends of the bracket
    has the same floor and the same nearest integer.  d r^power is
    irrational for d > 0 (r is a cubic irrational, and so are r^2 and r^3),
    so that happens, and the nearest integer is never a tie.
    """
    scale = 10**digits
    n = digits + 10
    while True:
        grid = 10**n
        lo, hi = 0, grid
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid**3 + mid * grid * grid < grid**3:
                lo = mid
            else:
                hi = mid
        low, high = (d * Fraction(x, grid) ** power * scale for x in (lo, hi))
        if math.floor(low) == math.floor(high) and round(low) == round(high):
            return Fraction(math.floor(low), scale), Fraction(round(low), scale)
        n *= 2


def proportion_defect(terms) -> Fraction:
    """Largest defect of ``terms`` as a continued proportion x_0 : x_1 = x_1 : x_2 = ...

    The adjacent defects |x_i x_(i+2) - x_(i+1)^2|, and for four terms the
    extremes' defect |x_0 x_3 - x_1 x_2| too; an exact continued proportion
    has every defect 0.
    """
    n = len(terms)
    if n < 3:
        raise ValueError("need at least three terms")
    defects = [terms[i] * terms[i + 2] - terms[i + 1] ** 2 for i in range(n - 2)]
    if n == 4:
        defects.append(terms[0] * terms[3] - terms[1] * terms[2])
    return max(map(abs, defects))


def in_continued_proportion(terms, digits: int) -> bool:
    """Whether ``terms`` run in continued proportion to ``digits`` fractional digits.

    The rule behind the CLI's ``continued proportion verified: ok``: every
    defect of :func:`proportion_defect` is at most M 10^-digits, M the
    largest |x_i|, so it holds at any scale; all-zero terms pass.

    The CLI prints that line without checking it, because it is a theorem.
    Let the terms lie on the grid u = 10^-w, w = digits + guard with guard
    at least 5, each within c u of an exact continued proportion y_i.  Then
    x_i x_(i+2) - x_(i+1)^2 = y_i e_(i+2) + e_i y_(i+2) + e_i e_(i+2)
    - 2 y_(i+1) e_(i+1) - e_(i+1)^2, and the extremes' defect alike, with
    |e| <= c u and |y| <= M + c u, so every defect is at most 4 c u M + 6 c^2 u^2 <= (4c + 6c^2) M u, a
    non-zero M being at least u.  That is 32 M u for c <= 2, below
    M 10^-digits = M u 10^guard.

    - The four proportionals are each rounded once at w: c = 1/2, so every
      defect is at most 3.5 M u.
    - The chords: AB, BC and AD are each their exact value rounded once
      (error 1/2) and BD = AD - AB (error 1), so c = 1 and every defect is
      at most 10 M u.  :func:`small_chord_terms` lists, for AD of a few
      units, every configuration a diameter can print, to check the bound
      where the terms are smallest.
    """
    return proportion_defect(terms) <= max(map(abs, terms)) / 10**digits


#: The ratio AB / AD of the chord problem, the root of (1 - u)^3 = u, to 9 digits.
CHORD_RATIO = Fraction(317672196, 10**9)


def small_chord_terms(units: int):
    """Every (AB, BC, BD, AD), in grid units, that a diameter rounding to ``units`` can print.

    AD = ``units``, so the diameter d lies within half a unit of it.  AB is
    the rounding of u d and BC of (1 - u)^2 d, for u = 0.3177... the ratio
    AB / AD, each taken between its factor (from the ratio widened by 10^-8)
    times units -+ 1/2, and BD = AD - AB.  Every pair of the two ranges is
    listed, so the list holds more configurations than a diameter prints.
    """
    slack, half = Fraction(1, 10**8), Fraction(1, 2)

    def rounded_range(low: Fraction, high: Fraction) -> range:
        lo = math.ceil(low * (units - half) - half)
        return range(max(lo, 0), math.floor(high * (units + half) + half) + 1)

    low, high = CHORD_RATIO - slack, CHORD_RATIO + slack
    for ab in rounded_range(low, high):
        for bc in rounded_range((1 - high) ** 2, (1 - low) ** 2):
            yield ab, bc, units - ab, units


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def circumcenter(p0, p1, p2, p3) -> tuple[Fraction, Fraction, Fraction]:
    """Centre equidistant from four points, by Cramer's rule over Fractions."""
    rows = []
    rhs = []
    for p in (p1, p2, p3):
        rows.append([2 * (p[i] - p0[i]) for i in range(3)])
        rhs.append(sum(p[i] ** 2 - p0[i] ** 2 for i in range(3)))
    det = _det3(rows)
    if det == 0:
        raise ValueError("coplanar points")
    coords = []
    for col in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][col] = rhs[i]
        coords.append(_det3(m) / det)
    return tuple(coords)


def rational_unit_vector(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Exact unit vector from the stereographic parametrization of the sphere."""
    m = Fraction(rng.randint(-6, 6), rng.randint(1, 7))
    n = Fraction(rng.randint(-6, 6), rng.randint(1, 7))
    d = 1 + m * m + n * n
    return (2 * m / d, 2 * n / d, (m * m + n * n - 1) / d)


def realized_frame(rng: random.Random):
    """Edge lengths, cosines, and the explicit vectors that realize them."""
    dirs = [rational_unit_vector(rng) for _ in range(3)]
    lengths = [Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(3)]
    vecs = [tuple(l * c for c in d) for l, d in zip(lengths, dirs)]
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    cos_ab = dot(dirs[0], dirs[1])
    cos_bc = dot(dirs[1], dirs[2])
    cos_ca = dot(dirs[2], dirs[0])
    return lengths, (cos_ab, cos_bc, cos_ca), vecs


# -- Fraction builders of the proposition suite's instances ---------------------
#
# Written from the rational formulas the suite's instances are defined by:
# every coordinate is a Fraction, points are tuples, and each builder makes
# the same ``rng`` draws in the same order as the suite entry it mirrors.
# ``SUITE_INSTANCES`` maps a suite row name to two builders, for the valid
# and the perturbed instance, each returning the checker's argument list.


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 9))


def _nonzero_frac(rng: random.Random) -> Fraction:
    f = Fraction(rng.randint(1, 8), rng.randint(1, 9))
    return -f if rng.random() < 0.5 else f


def _nudge(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 7), rng.randint(89, 127))


def _pt2(rng):
    return (_frac(rng), _frac(rng))


def _pt3(rng):
    return (_frac(rng), _frac(rng), _frac(rng))


def _add(p, q):
    return tuple(x + y for x, y in zip(p, q))


def _sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def _mul(p, k):
    return tuple(x * k for x in p)


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


def _cross2(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _cross3(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _on_unit_circle(t: Fraction):
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def right_triangle(rng: random.Random):
    """Right angle at the first vertex: legs along a rotated rational frame."""
    while True:
        u = _on_unit_circle(_frac(rng))
        v = (-u[1], u[0])
        p, q = _nonzero_frac(rng), _nonzero_frac(rng)
        a = _pt2(rng)
        tri = (a, _add(a, _mul(u, p)), _add(a, _mul(v, q)))
        if _cross2(_sub(tri[1], a), _sub(tri[2], a)) != 0:
            return tri


def classified_triangle(rng: random.Random):
    """Non-degenerate triangle and the sign of the angle dot at its first vertex."""
    while True:
        tri = (_pt2(rng), _pt2(rng), _pt2(rng))
        u, v = _sub(tri[1], tri[0]), _sub(tri[2], tri[0])
        if _cross2(u, v) == 0:
            continue
        d = _dot(u, v)
        if d != 0:
            return tri, (1 if d > 0 else -1)


def proportional_quad(rng: random.Random):
    p, q, k = _nonzero_frac(rng), _nonzero_frac(rng), _nonzero_frac(rng)
    return p, p * k, q, q * k


def proportional_triple(rng: random.Random):
    p, k = _nonzero_frac(rng), _nonzero_frac(rng)
    return p, p * k, p * k * k


def prism(rng: random.Random):
    while True:
        base = (_pt3(rng), _pt3(rng), _pt3(rng))
        offset = _pt3(rng)
        edge1, edge2 = _sub(base[1], base[0]), _sub(base[2], base[0])
        if _dot(_cross3(edge1, edge2), offset) != 0:
            return base, offset


def chord_setup(rng: random.Random):
    """Centre and a chord not through it, both ends on a circle about it."""
    while True:
        center = _pt2(rng)
        r = abs(_nonzero_frac(rng))
        p = _add(center, _mul(_on_unit_circle(_frac(rng)), r))
        q = _add(center, _mul(_on_unit_circle(_frac(rng)), r))
        if p != q and _cross2(_sub(q, p), _sub(center, p)) != 0:
            return center, (p, q)


def pappus_offsets(rng: random.Random, tri):
    """Side vectors of parallelograms erected outward on AB and AC."""
    ab, ac = _sub(tri[1], tri[0]), _sub(tri[2], tri[0])
    orientation = _cross2(ab, ac)
    while True:
        u, v = _pt2(rng), _pt2(rng)
        if _cross2(ab, u) * orientation < 0 and _cross2(ac, v) * orientation > 0:
            return u, v


def uv_pair(rng: random.Random):
    """Two non-parallel space vectors."""
    while True:
        u, v = _pt3(rng), _pt3(rng)
        if _dot(_cross3(u, v), _cross3(u, v)) != 0:
            return u, v


def clavius_instance(rng: random.Random):
    """Ends of a diameter of a circle and a third point on it."""
    while True:
        center = _pt2(rng)
        radius = abs(_nonzero_frac(rng))
        v = _mul(_on_unit_circle(_frac(rng)), radius)
        r = _add(center, _mul(_on_unit_circle(_frac(rng)), radius))
        p, q = _add(center, v), _sub(center, v)
        if r != p and r != q:
            return p, q, r


def _pert_right(rng, vertex: int, leg: int):
    """Right triangle with one vertex moved by a nudge times one leg."""
    tri = list(right_triangle(rng))
    legs = (_sub(tri[1], tri[0]), _sub(tri[2], tri[0]))
    tri[vertex] = _add(tri[vertex], _mul(legs[leg], _nudge(rng)))
    return tuple(tri)


def _pert_3_3(rng):
    center, (p, q) = chord_setup(rng)
    return [center, (p, _add(center, _mul(_sub(q, center), 1 + _nudge(rng))))]


def _pert_19_7(rng):
    a, b, c, d = proportional_quad(rng)
    d = d + _nudge(rng)
    return [a, b, c, d if d != 0 else d + 1]


def _pert_20_7(rng):
    a, b, c = proportional_triple(rng)
    c = c + _nudge(rng)
    return [a, b, c if c != 0 else c + 1]


def _valid_7_12(rng):
    base, offset = prism(rng)
    return [base, tuple(_add(p, offset) for p in base)]


def _pert_7_12(rng):
    (a, b, c), offset = prism(rng)
    top = (_add(a, offset), _add(b, offset), _add(c, _mul(offset, 1 + _nudge(rng))))
    return [(a, b, c), top]


def _valid_31_6(rng):
    aspect = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return [right_triangle(rng), aspect]


def _valid_pappus(rng):
    tri, _ = classified_triangle(rng)
    return [tri, *pappus_offsets(rng, tri)]


def _pert_pappus(rng):
    tri, u, v = _valid_pappus(rng)
    return [tri, _mul(u, -1), v]


def _pert_clavius(rng):
    radius = abs(_nonzero_frac(rng))
    v = _mul(_on_unit_circle(_frac(rng)), radius)
    r = _mul(_on_unit_circle(_frac(rng)), radius)
    return [v, _mul(v, -1), _mul(r, 1 + _nudge(rng))]


def _valid_4_11(rng):
    u, v = uv_pair(rng)
    return [_cross3(u, v), u, v]


def _pert_4_11(rng):
    u, v = uv_pair(rng)
    return [_add(_cross3(u, v), u), u, v]


def _classified(rng):
    return [classified_triangle(rng)[0]]


SUITE_INSTANCES = {
    "47.1": (lambda rng: [right_triangle(rng)], lambda rng: [_pert_right(rng, 2, 0)]),
    "12.2/13.2": (_classified, _classified),
    "3.3": (lambda rng: list(chord_setup(rng)), _pert_3_3),
    "coroll. 8.6": (lambda rng: [right_triangle(rng)], lambda rng: [_pert_right(rng, 0, 0)]),
    "31.6": (_valid_31_6, lambda rng: [_pert_right(rng, 1, 1), Fraction(2, 3)]),
    "19.7": (lambda rng: list(proportional_quad(rng)), _pert_19_7),
    "20.7": (lambda rng: list(proportional_triple(rng)), _pert_20_7),
    "4.11": (_valid_4_11, _pert_4_11),
    "7.12": (_valid_7_12, _pert_7_12),
    "Pappus on 47.1": (_valid_pappus, _pert_pappus),
    "Clavius on 31.3": (lambda rng: list(clavius_instance(rng)), _pert_clavius),
}
