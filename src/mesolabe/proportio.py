"""Continued proportions in a semicircle: the numeric chord problem and the
four-proportionals construction, planar and spherical.

The chord problem places B on the diameter AD of a semicircle ACD so that
AB, BC, BD, DA run in continued proportion (BC the half-chord at B).  That
pins AB = x as the unique root of (d - x)^3 = d^2 x in (0, d).  The 1682
tables for d = 2 are reproduced digit for digit, including an annotation
channel for the original's misprints.

AB = d u for the one constant u in (0, 1) with (1 - u)^3 = u, the root of
f(x) = x^3 - 3x^2 + 4x - 1.  On [0, 1), f' = 3(1 - x)^2 + 1 >= 1 and
f'' = 6x - 6 lies in [-6, 0), so f is increasing and concave there: u is
its only root, and a Newton step never overshoots it.  u is found in
binary fixed point, U ~ u 2^B, and certified by the exact signs of
F(U -+ 1), which Taylor's formula gives from one exact F(U) and F'(U)
because F is a monic cubic.  BD = d (1 - u) and BC = sqrt(AB BD) =
d (1 - u)^2, as v = 1 - u solves v^3 + v = 1, so that one bracket puts AB
and BC each in a window far narrower than a grid unit, and every chord is
its exact value rounded or floored once.

Positions on the semicircle are parametrized by t = tan(half the inscribed
angle at A), so every construction has an exact rational witness and no
trigonometric function is ever evaluated.
"""

from __future__ import annotations

from fractions import Fraction

from .pyramid import Point3
from .scalar import (
    DEFAULT_CONTEXT,
    CertificationError,
    DecimalScalar,
    PrecisionContext,
    ValueRecord,
    _decimal_digits,
    as_rational,
    format_grouped,
    pair_texts,
    round_to,
    unit_circle_ints,
    window_floor,
)


class ChordConfig(ValueRecord):
    """The collinear/chordal lengths AB, BC, BD, AD with AB + BD = AD; immutable by convention.

    A solved configuration keeps ``roots``: its exact diameter d and
    f = floor(2 10^w x) for x = AB and for x = BC at its w work digits, the
    floors that its values and its :meth:`table_values` round or floor
    once.  Values given as they are have none.
    """

    __slots__ = ("ab", "bc", "bd", "ad", "roots")

    def __init__(self, ab, bc, bd, ad, roots=None):
        self.ab, self.bc, self.bd, self.ad, self.roots = ab, bc, bd, ad, roots

    def terms(self) -> tuple[DecimalScalar, DecimalScalar, DecimalScalar, DecimalScalar]:
        return self.ab, self.bc, self.bd, self.ad

    def table_values(self, digits: int) -> "ChordConfig":
        """The values as the 1682 computation reported them, from a solved configuration.

        AB and BC are the floors of the exact roots at ``digits``: longhand
        root extraction yields floor digits (the printed BC proves the
        original truncated, since round-to-nearest would end ...4638).  As
        floor(floor(y) / N) = floor(y / N), each is its floor f divided by
        2 10^(w - digits).  AD is the exact diameter rounded half-even once
        at ``digits``, and BD the exact complement AD - AB, which reproduces
        the printed ...56077.  ``digits`` above the w work digits raise
        ValueError: the floor at w padded with zeros is not the floor there.
        """
        d, twice_ab, twice_bc = self.roots
        w = self.ab.scale
        if digits > w:
            raise ValueError(f"table digits {digits} exceed the {w} work digits solved")

        def floor(f: int) -> DecimalScalar:
            return DecimalScalar(f // (2 * 10 ** (w - digits)), digits)
        ab, ad = floor(twice_ab), DecimalScalar.from_fraction(d, digits)
        return ChordConfig(ab, floor(twice_bc), DecimalScalar(ad.unscaled - ab.unscaled, digits), ad)


class TableRow(ValueRecord):
    """One labelled value of a table, with its printed text if any; immutable by convention."""

    __slots__ = ("label", "value", "grouped", "printed", "note")

    @property
    def is_misprint(self) -> bool:
        return self.printed is not None and self.printed != self.grouped


class PaperTable(ValueRecord):
    """A titled tuple of :class:`TableRow`; immutable by convention."""

    __slots__ = ("title", "rows")


#: The printed 10-digit chord table for diameter 2: AB, BC, BD, AD, whose
#: :func:`format_grouped` texts are the print byte for byte.
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


def _unit_cubic(v: int, bits: int) -> tuple[int, int]:
    """F(v) and F'(v) for F(v) = S^3 f(v / S), f(x) = x^3 - 3x^2 + 4x - 1, S = 2^bits.

    F(v) = (v^2 - 3Sv + 4S^2) v - S^3 and F'(v) = 3v^2 - 6Sv + 4S^2, from
    one square and one product; every power of S is a shift.
    """
    square = v * v
    f = (square - (3 * v << bits) + (4 << 2 * bits)) * v - (1 << 3 * bits)
    return f, 3 * square - (6 * v << bits) + (4 << 2 * bits)


#: floor(u 2^64) for the root u of (1 - u)^3 = u.
_UNIT_64 = 0x5152F70D683B3435


def _unit_ratio(bits: int) -> int:
    """U with |U - u 2^bits| < 1, for the root u of (1 - u)^3 = u (binary Newton).

    Up to 64 bits U is floor(u 2^bits), the word :data:`_UNIT_64` shifted
    down, as floor(floor(u 2^64) / 2^k) = floor(u 2^(64 - k)).  Above,
    f is increasing and concave on [0, 1), with f' >= 1 and f'' >= -6 (see
    the module docstring).  A Newton step from v therefore lands at
    x1 = v - f(v) / f'(v) <= u, and u - x1 = |f''(xi)| (v - u)^2 / (2 f'(v))
    <= 3 (v - u)^2.  At ``bits`` B, U is found at h = (B + 3) // 2 bits, so
    2h >= B + 2, shifted up by k = B - h and given one integer Newton step
    U = V - floor(F(V) / F'(V)), which is ceil(x1 2^B).  From |V - u 2^B| <
    2^k, u 2^B - x1 2^B < 3 2^(B - 2h) <= 3/4, so U lies in
    [x1 2^B, x1 2^B + 1) within one unit of u 2^B again.  F(V) and F'(V) are
    F(U_h) 2^(3k) and F'(U_h) 2^(2k) at h bits, so the step is taken there.
    """
    if bits <= 64:
        return _UNIT_64 >> (64 - bits)
    h = (bits + 3) // 2
    v = _unit_ratio(h)
    f, slope = _unit_cubic(v, h)
    k = bits - h
    return (v << k) - ((f << k) // slope)


def _brackets_unit(v: int, bits: int) -> bool:
    """Whether F(v - 1) < 0 < F(v + 1), that is (v - 1) / 2^bits < u < (v + 1) / 2^bits.

    F is a cubic with leading coefficient 1, so Taylor's formula
    F(v + e) = F(v) + e F'(v) + e^2 (3v - 3S) + e^3 is exact, and one exact
    F(v), F'(v) (:func:`_unit_cubic`) gives both signs.  F is increasing,
    so they bracket its one root u 2^bits.
    """
    f, slope = _unit_cubic(v, bits)
    bend = 3 * v - (3 << bits)
    return f - slope + bend - 1 < 0 < f + slope + bend + 1


def solve_continued_chords(
    d: DecimalScalar, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> ChordConfig:
    """Chord configuration with AB : BC : BD : AD in continued proportion.

    AB = d u with u the root of (1 - u)^3 = u, and BC = d (1 - u)^2.  U =
    :func:`_unit_ratio` at B bits is checked by :func:`_brackets_unit`,
    whose F(U - 1) < 0 < F(U + 1), from one exact F(U) and F'(U) by
    Taylor's formula, proves (U - 1) / S < u < (U + 1) / S for S = 2^B; a
    failed check raises :class:`~mesolabe.scalar.CertificationError`.  With
    d = p/q, T = 2p 10^w and V = S - U, that puts

        T (U - 1) / (q S) < 2 10^w AB < T (U + 1) / (q S),
        T (V - 1)^2 / (q S^2) < 2 10^w BC < T (V + 1)^2 / (q S^2),

    windows of width 2T / (q S) and 4T V / (q S^2) < 4T / (q S).  B = 3.322 D
    + 42 bits, D the decimal digits of floor(d 10^w) + 1, makes S exceed
    2^41 d 10^w, so both are under 2^-38 units, and
    :func:`~mesolabe.scalar.window_floor` takes each floor, its powers of
    two as shifts, with at most one exact test of X = x / (2 10^w), N = x q:

    - X <= AB exactly when the chord residual (d - X)^3 - d^2 X, strictly
      decreasing, is positive: (T - N)^3 > T^2 N;
    - X <= BC exactly when y = X / d has y (y + 1)^2 <= 1, since
      s = (1 - u)^2 solves s (s + 1)^2 = 1: N (N + T)^2 <= T^3.

    u is irrational (f has no rational root), and so are AB and BC, so no
    test is ever an equality and no value a tie: each full value is its
    floor rounded half up, the exact root rounded half-even once.  AD is
    the diameter rounded once and BD = AD - AB, the 1682 complement.
    """
    df = as_rational(d)
    if not df > 0:
        raise ValueError("diameter must be positive")
    w = ctx.work_digits
    p, q = df.numerator, df.denominator
    twice = 2 * p * 10**w
    bits = _decimal_digits(twice // (2 * q) + 1) * 3322 // 1000 + 42
    u = _unit_ratio(bits)
    if not _brackets_unit(u, bits):
        raise CertificationError(f"the ratio of AB to AD is not bracketed at {bits} bits")
    at_u = twice * u
    twice_v = (twice << bits) - at_u  # T V
    twice_vv = twice_v * ((1 << bits) - u)
    twice_ab = window_floor(at_u - twice, at_u + twice, q,
                            lambda x: (twice - x * q) ** 3 > twice * twice * x * q, bits)
    twice_bc = window_floor(twice_vv - 2 * twice_v + twice, twice_vv + 2 * twice_v + twice, q,
                            lambda x: x * q * (x * q + twice) ** 2 <= twice**3, 2 * bits)
    ab, bc = (twice_ab + 1) // 2, (twice_bc + 1) // 2
    ad = DecimalScalar.from_fraction(df, w)
    return ChordConfig(DecimalScalar(ab, w), DecimalScalar(bc, w),
                       DecimalScalar(ad.unscaled - ab, w), ad, (df, twice_ab, twice_bc))


def chord_table(c: ChordConfig) -> PaperTable:
    """The chord lengths as a grouped table.

    When ``c`` is the printed configuration, each row's printed text is its
    grouped text, which is the print; for any other, it is None.
    """
    canonical = c == _PRINTED_CONFIG
    rows = []
    for label, value in (("AD", c.ad), ("AB", c.ab), ("BC", c.bc), ("BD", c.bd)):
        grouped = format_grouped(value)
        rows.append(TableRow(label, value, grouped, grouped if canonical else None, None))
    return PaperTable("successive lines in the semicircle", tuple(rows))


def chord_texts(full: ChordConfig, digits: int) -> dict[str, tuple[str, str]]:
    """Per chord, in table order, the text of its table value and of its full value.

    The table values are ``full.table_values(digits)``, so ``digits`` is at
    most the work digits, and each full value is converted to text once;
    each table value is read off it (:func:`~mesolabe.scalar.pair_texts`).
    For that a table value's integer S lies within 2 of q = floor(F / N), for
    the full value's integer F = qN + r and N = 10^(w - digits), since
    S - q = (S N - F + r) / N with 0 <= r < N.  AB's and BC's full values
    round the root x that their table values floor, so S N - F lies in
    (-N - 1/2, 1/2] and S is q - 1 or q; AD's both round d, so S N - F lies
    within N/2 + 1/2 of 0 and S is q or q + 1; and BD is AD - AB at both
    scales, so S N - F lies in [-N/2 - 1, 3N/2 + 1) and S is q, q + 1 or q + 2.
    """
    table = full.table_values(digits)
    return {label: pair_texts(getattr(full, label.lower()), getattr(table, label.lower()))
            for label in ("AD", "AB", "BC", "BD")}


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
    AE = AC*k^2, AF = AC*k^3; t = tan(angle/2) makes k the rational x/w of
    :func:`~mesolabe.scalar.unit_circle_ints`, so the whole quad is rational.
    """
    _require_interior(ac, t)
    x, _, w = unit_circle_ints(t.numerator, t.denominator)
    k = Fraction(x, w)
    return ac * k**3, ac * k**2, ac * k, ac


def arc_points(ac: Fraction, t: Fraction) -> tuple[dict[str, tuple[int, int, int]], int]:
    """A, C, D, E, F and G as int triples, and their one positive denominator.

    With (x, y, w) = :func:`~mesolabe.scalar.unit_circle_ints` of ``t``,
    k = x/w and s = y/w, D = AC k (k, s) lies on the semicircle over AC in
    the great-circle plane z = 0, E is its foot on AC and F = AC k^3 (k, s)
    the foot of the perpendicular from E on AD.  G lies above F, in the
    plane through AD perpendicular to z = 0, at FG = AC k^2 s.  For
    ``ac`` = p/q the denominator is q w^4, so every coordinate is an int.
    ``t`` may be 0 (D at C) or 1 (D at A).
    """
    if not 0 <= t <= 1:
        raise ValueError("arc parameter must lie in [0, 1]")
    x, y, w = unit_circle_ints(t.numerator, t.denominator)
    p, ww = ac.numerator, w * w
    d, f = (p * x * x * ww, p * x * y * ww, 0), (p * x**4, p * x**3 * y, 0)
    return {"A": (0, 0, 0), "C": (p * ww * ww, 0, 0), "D": d, "E": (d[0], 0, 0), "F": f,
            "G": (f[0], f[1], p * x * x * y * w)}, ac.denominator * ww * ww


def sphere_construction(ac: Fraction, t: Fraction) -> dict[str, Point3]:
    """The points of :func:`arc_points` as Fractions, for ``t`` strictly inside the arc.

    G sits on the semicircle with diameter AD in the plane through AD
    perpendicular to z = 0, above the foot F, so FG^2 = AF * FD and AG
    doubles AE as the second proportional.  That plane is perpendicular to
    z = 0 and AG = AE for every ``t``: both are identities of the
    parametrization, so nothing is left here to check at run time.
    """
    _require_interior(ac, t)
    points, den = arc_points(ac, t)
    return {name: Point3(*(Fraction(c, den) for c in p)) for name, p in points.items()}


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

