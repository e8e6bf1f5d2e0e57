"""Continued proportions in a semicircle: the numeric chord problem and the
four-proportionals construction, planar and spherical.

The chord problem places B on the diameter AD of a semicircle ACD so that
AB, BC, BD, DA run in continued proportion (BC the half-chord at B).  That
pins AB = x as the unique root of (d - x)^3 = d^2 x in (0, d).  The 1682
tables for d = 2 are reproduced digit for digit, including an annotation
channel for the original's misprints.

Positions on the semicircle are parametrized by t = tan(half the inscribed
angle at A), so every construction has an exact rational witness and no
trigonometric function is ever evaluated.
"""

from __future__ import annotations

from fractions import Fraction

from .euclid import Point3, unit_circle_point
from .scalar import (
    DEFAULT_CONTEXT,
    DecimalScalar,
    PrecisionContext,
    ValueRecord,
    as_rational,
    certify_bracket,
    format_grouped,
    round_to,
    sqrt,
)


class ChordConfig(ValueRecord):
    """The collinear/chordal lengths AB, BC, BD, AD with AB + BD = AD; immutable by convention."""

    __slots__ = ("ab", "bc", "bd", "ad")

    def terms(self) -> tuple[DecimalScalar, DecimalScalar, DecimalScalar, DecimalScalar]:
        return self.ab, self.bc, self.bd, self.ad

    def table_values(self, digits: int) -> "ChordConfig":
        """The values as the 1682 computation reported them.

        AB and BC keep their first ``digits`` fractional digits, padded with
        zeros past their own: longhand root extraction yields floor digits
        (the printed BC proves the original truncated, since round-to-nearest
        would end ...4638), and neither is negative, so the floor drops the
        rest.  BD is the exact complement AD - AB, which reproduces the
        printed ...56077.
        """
        def floor(v: DecimalScalar) -> DecimalScalar:
            if digits > v.scale:
                return DecimalScalar(v.unscaled * 10 ** (digits - v.scale), digits)
            return DecimalScalar(v.unscaled // 10 ** (v.scale - digits), digits)
        ab, ad = floor(self.ab), round_to(self.ad, digits)
        return ChordConfig(ab, floor(self.bc), DecimalScalar(ad.unscaled - ab.unscaled, digits), ad)


class TableRow(ValueRecord):
    """One labelled value of a table, with its printed text if any; immutable by convention."""

    __slots__ = ("label", "value", "grouped", "printed", "note")

    @property
    def is_misprint(self) -> bool:
        return self.printed is not None and self.printed != self.grouped


class PaperTable(ValueRecord):
    """A titled tuple of :class:`TableRow`; immutable by convention."""

    __slots__ = ("title", "rows")


#: The printed 10-digit chord table for diameter 2.
PRINTED_CHORDS = {
    "AD": "2 00000 00000",
    "AB": "63534 43923",
    "BC": "93114 24637",
    "BD": "1 36465 56077",
}

#: The printed chords AB, BC, BD, AD, at their 10 fractional digits.
_PRINTED_CONFIG = ChordConfig(*(DecimalScalar(n, 10)
                                for n in (6353443923, 9311424637, 13646556077, 20000000000)))

#: The printed 20-digit product tables, verbatim, misprints included.
PRINTED_PRODUCTS = {
    "DAB": "1 17068 87846 00000 00000",
    "CBD": "1 17068 87846 55798 69049",
    "BC^2": "86702 62877 05305 81769",
    "ABD": "86702 62877 72943 70071",
    "BD^2": "1 86288 49276 27056 29929",
    "ADBC": "1 86228 49274 00000 00000",
}

#: Fractional digits of the products of the unrounded root, as printed.
PRODUCT_DIGITS = 20

_PRODUCT_NOTES = {
    "DAB": "product AD*AB",
    "CBD": "product BC*BD",
    "BC^2": "square of BC",
    "ABD": "label ABD denotes the product AB*BD",
    "BD^2": "square of BD",
    "ADBC": "product AD*BC",
}


def _unit_ratio(digits: int) -> int:
    """10^digits * u, to a few units, for the root u of (1 - u)^3 = u (integer Newton).

    u^3 - 3u^2 + 4u - 1 is increasing (its derivative has no real zero), so
    Newton from u = 1/3 converges; the last step leaves an error of a few
    units, which is all a seed needs.  With s = 10^digits the cubic and its
    derivative are taken in Horner's form, ((u - 3s) u + 4s^2) u - s^3 and
    (3u - 6s) u + 4s^2, with the powers of s formed once.  Above 40 digits
    Newton starts from the root at half the digits, found the same way, so
    about two full-precision steps finish it.
    """
    s = 10**digits
    if digits <= 40:
        u = s // 3
    else:
        half = digits // 2
        u = _unit_ratio(half) * 10 ** (digits - half)
    four_s2, s3 = 4 * s * s, s**3
    while True:
        f = ((u - 3 * s) * u + four_s2) * u - s3
        step = f // ((3 * u - 6 * s) * u + four_s2)
        u -= step
        if abs(step) <= 1:
            return u


def solve_continued_chords(
    d: DecimalScalar, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> ChordConfig:
    """Chord configuration with AB : BC : BD : AD in continued proportion.

    AB = d u with u the root of (1 - u)^3 = u, whose integer Newton value
    seeds :func:`~mesolabe.scalar.certify_bracket`.  The cubic residual
    (d - x)^3 - d^2 x is strictly decreasing on [0, d], so exact signs
    certify the grid cell at 10^-w that holds the root, and one more sign
    at the cell midpoint rounds AB correctly.  The root is irrational
    (u^3 - 3u^2 + 4u - 1 has no rational root), so the midpoint is never
    a tie.
    """
    df = as_rational(d)
    if not df > 0:
        raise ValueError("diameter must be positive")
    w = ctx.work_digits
    p, q = df.numerator, df.denominator

    def sign(n: int, m: int) -> int:
        """Sign of the cubic residual at x = n/m, cleared of denominators."""
        r = (p * m - n * q) ** 3 - p * p * q * m * m * n
        return (r > 0) - (r < 0)

    grid = 10**w
    seed = p * _unit_ratio(w + 5) // (q * 10**5)
    hi = p * grid // q + 1
    lo, exact, _ = certify_bracket(lambda g: sign(g, grid), seed, 0, hi, 1)
    if not exact and sign(2 * lo + 1, 2 * grid) > 0:
        lo += 1

    ad = DecimalScalar.from_fraction(df, w)
    bd = ad.unscaled - lo
    bc = sqrt(DecimalScalar(lo * bd, 2 * w), w)
    return ChordConfig(DecimalScalar(lo, w), bc, DecimalScalar(bd, w), ad)


def chord_table(c: ChordConfig) -> PaperTable:
    """The chord lengths as a grouped table, matched to the printed one when it applies."""
    canonical = c == _PRINTED_CONFIG
    rows = []
    for label, value in (("AD", c.ad), ("AB", c.ab), ("BC", c.bc), ("BD", c.bd)):
        printed = PRINTED_CHORDS[label] if canonical else None
        rows.append(TableRow(label, value, format_grouped(value), printed, None))
    return PaperTable("successive lines in the semicircle", tuple(rows))


def _products(c: ChordConfig) -> tuple[tuple[str, DecimalScalar], ...]:
    """The six rectangles and squares of the printed tables, under their printed labels.

    Each product is exact: x y has the integer x.unscaled * y.unscaled at
    the sum of the two scales.
    """
    pairs = (
        ("DAB", c.ad, c.ab),
        ("CBD", c.bc, c.bd),
        ("BC^2", c.bc, c.bc),
        ("ABD", c.ab, c.bd),
        ("BD^2", c.bd, c.bd),
        ("ADBC", c.ad, c.bc),
    )
    return tuple((label, DecimalScalar(x.unscaled * y.unscaled, x.scale + y.scale))
                 for label, x, y in pairs)


def reproduce_table(c: ChordConfig) -> PaperTable:
    """Exact products of the rounded chord values, annotated against the print.

    Every product of two 10-digit inputs is carried at its exact 20-digit
    scale; where the original tables disagree with exact arithmetic (the
    leading "1 17068" of both rectangle rows, the "86288" in the BD^2 row)
    the printed string is kept alongside and flagged, never silently fixed.
    """
    if any(v.scale != 10 for v in c.terms()):
        raise ValueError("table inputs must carry exactly 10 fractional digits")
    canonical = c == _PRINTED_CONFIG
    rows = []
    for label, value in _products(c):
        printed = PRINTED_PRODUCTS[label] if canonical else None
        grouped = format_grouped(value)
        note = _PRODUCT_NOTES[label]
        if printed is not None and printed != grouped:
            note += "; printed table is a misprint, exact arithmetic gives the value shown"
        rows.append(TableRow(label, value, grouped, printed, note))
    return PaperTable("rectangles and squares of the means", tuple(rows))


def true_product_rows(full: ChordConfig) -> PaperTable:
    """The same six products taken from the unrounded root, for contrast."""
    rounded = [(label, round_to(value, PRODUCT_DIGITS)) for label, value in _products(full)]
    rows = tuple(TableRow(label, v, format_grouped(v), None, None) for label, v in rounded)
    return PaperTable(f"products of the unrounded root, {PRODUCT_DIGITS} digits", rows)


# -- four continued proportionals ---------------------------------------------


def _require_interior(ac: Fraction, t: Fraction) -> None:
    """Reject a position off the open arc or a non-positive diameter."""
    if not 0 < t < 1:
        raise ValueError("parameter must lie strictly between 0 and 1 (D between A and C)")
    if not ac > 0:
        raise ValueError("diameter must be positive")


def quad_exact(ac: Fraction, t: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact (AF, AE, AD, AC) for diameter ``ac`` and parameter ``t``.

    With k = cos of the inscribed angle at A, the chain is AD = AC*k,
    AE = AC*k^2, AF = AC*k^3; t = tan(angle/2) makes k the rational x of
    :func:`~mesolabe.euclid.unit_circle_point`, so the whole quad is rational.
    """
    _require_interior(ac, t)
    k = unit_circle_point(t).x
    return ac * k**3, ac * k**2, ac * k, ac


def planar_construction(ac: Fraction, t: Fraction) -> dict[str, Point3]:
    """Exact coordinates of A, C, D, E, F in the great-circle plane z = 0.

    D = AC k (k, s) for (k, s) = :func:`~mesolabe.euclid.unit_circle_point`
    of ``t``, E is its foot on AC and F the foot of the perpendicular from
    E on AD.  ``t`` may be 0 (D at C) or 1 (D at A).
    """
    if not 0 <= t <= 1:
        raise ValueError("arc parameter must lie in [0, 1]")
    u = unit_circle_point(t)
    k, s = u.x, u.y
    zero = Fraction(0)
    return {
        "A": Point3(zero, zero, zero),
        "C": Point3(ac, zero, zero),
        "D": Point3(ac * k * k, ac * k * s, zero),
        "E": Point3(ac * k * k, zero, zero),
        "F": Point3(ac * k**4, ac * k**3 * s, zero),
    }


def sphere_construction(ac: Fraction, t: Fraction) -> dict[str, Point3]:
    """Planar points plus G lifted into the plane through AD perpendicular to z = 0.

    G sits on the semicircle with diameter AD in that perpendicular plane,
    above the foot F, so FG^2 = AF * FD and AG doubles AE as the second
    proportional.  That plane is perpendicular to z = 0 and AG = AE for
    every ``t``: both are identities of the parametrization, so nothing is
    left here to check at run time.
    """
    _require_interior(ac, t)
    pts = planar_construction(ac, t)
    f = pts["F"]
    pts["G"] = Point3(f.x, f.y, pts["E"].x * unit_circle_point(t).y)  # FG = AC k^2 s
    return pts


def four_proportionals_planar(ac, t) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The exact quad (AF, AE, AD, AC) of :func:`quad_exact` for a position ``t``.

    ``ac`` and ``t`` may be Fractions, ints or DecimalScalars; a caller
    rounds each term once to the digits it prints.
    """
    return quad_exact(as_rational(ac), as_rational(t))


def four_proportionals_sphere(ac, t) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Same quad read off the spherical-cap construction.

    :func:`sphere_construction` realizes AE as the out-of-plane chord AG,
    and AF, AD as the chords of the planar route, so the lengths are
    exactly those of :func:`quad_exact` and are taken from it.
    """
    return quad_exact(as_rational(ac), as_rational(t))

