"""Two mean proportionals between given lengths, by simulated instrument.

Both mechanisms share one geometric scene: a semicircle over AC = b, a
ruler through A and the moving arc point D, a cursor fixed at distance
AF = a along the ruler and perpendicular to it, and the perpendicular to
AC through D with foot E.  Where they differ is the coincidence that stops
the motion, so each solver certifies its root with its own residual:

* finger-and-plumbline: the perpendicular foot E and the point where the
  cursor line crosses AC must coincide, measured along AC;
* single compass aperture: the cursor crossing of the sliding
  perpendicular must land on AC, measured along the ruler.

Both residuals vanish exactly when AF = b k^3 equals a (k the cosine of
the inscribed angle at A), which interposes AE = b k^2 and AD = b k
between a and b.  The closed form k = cbrt(a/b) seeds the arc parameter,
and :func:`~mesolabe.scalar.certify_bracket` then finds the grid cell at
10^-w where the mechanism's residual changes sign.  Arc positions use the
rational tangent-half-angle parameter t = n/m, so k = (m^2 - n^2)/(m^2 + n^2)
and every residual, multiplied by a positive factor that clears its
denominators, is an exact integer: the certified cell can never be lost
to rounding, and the seed only decides how many signs that takes.

Most signs need no residual.  Both residuals change sign only at the root
t*, where (1 - t*^2)/(1 + t*^2) = cbrt(a/b), so a sign is known as soon as
t is known to lie on one side of t*.  For any integer s > 0 and
X(u) = s^2 (s - u)/(s + u), decreasing in u, the root satisfies
(s t*)^2 = X(s cbrt(a/b)).  The seed computes c = floor(s cbrt(a/b)) and
q = floor(X(c)) exactly; as c <= s cbrt(a/b) < c + 1 and
X(c) - X(c + 1) = 2 s^3/((s + c)(s + c + 1)) < 2s,

    q - 2s < X(c + 1) < (s t*)^2 <= X(c) < q + 1.

So x = (s t)^2 > q puts t above the root and x <= q - 2s puts it below.
The seed takes s = 10^(w + 5 + z), with z the decimal digits of
floor(b/(b - a)) and at most 2w, so x = g^2 10^(10 + 2z) at a grid point
t = g/10^w, and one w-digit square decides the sign.  z counts the digits
that 1 - cbrt(a/b) loses when b/a is near 1: below its cap, (t*)^2 is
at least (b - a)/6b > 10^-z/6, so the window of width 2s spans about
10^-(5 + z)/t* < 10^-4 grid units around t*.  Only a grid point that falls
in it evaluates the mechanism's residual: an arc parameter on the grid, as
for a : b = 27 : 125.  At the cap, where b/a lies within about 10^-2w of 1,
the root lies in the first grid cells and the window can reach t = 0, so
the grid point 0 may evaluate its residual too.  The decided signs are the
residuals' own, so the search visits the same grid points and the same
cell either way.

The means are not read off t.  m1 = cbrt(a^2 b) and m2 = cbrt(a b^2) are
each :func:`~mesolabe.scalar.cbrt` of their radicand, so every printed
mean is its exact root rounded half-even once, at the work digits and at
the output digits alike.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import (
    DEFAULT_CONTEXT,
    DecimalScalar,
    PrecisionContext,
    ValueRecord,
    _decimal_digits,
    _icbrt,
    as_rational,
    cbrt,
    certify_bracket,
)


def _cleared_k(t: Fraction) -> tuple[int, int]:
    """(K, S) = (m^2 - n^2, m^2 + n^2) for t = n/m, so that k = K/S.

    k is the x of :func:`~mesolabe.euclid.unit_circle_point` at ``t``.
    """
    n, m = t.numerator, t.denominator
    return m * m - n * n, m * m + n * n


class InstrumentState(ValueRecord):
    """Arc parameter ``t`` with target AF = a against diameter AC = b.

    It carries only the stopping residuals; the scene's points come from
    :func:`~mesolabe.proportio.planar_construction`.  Immutable by convention.
    """

    __slots__ = ("a", "b", "t")

    def __init__(self, a: Fraction, b: Fraction, t: Fraction):
        if not 0 <= t <= 1:
            raise ValueError("arc parameter must lie in [0, 1]")
        self.a, self.b, self.t = a, b, t

    def residual_instrument(self) -> int:
        """Foot of the plumbline minus the cursor's crossing of AC, cleared.

        The cursor line (perpendicular to the ruler at AF = a) meets AC at
        distance a/k from A; at the stopping position that is exactly the
        perpendicular foot E.  The residual b k^2 - a/k is decreasing in t
        and positive at t = 0 for a < b.  With a = pa/qa, b = pb/qb and
        k = K/S, this returns it times the positive factor qa qb K S^2:
        pb qa K^3 - pa qb S^3, an int with the residual's exact sign.
        """
        big_k, big_s = _cleared_k(self.t)
        if big_k == 0:
            raise ZeroDivisionError("cursor line is parallel to AC at t = 1")
        return (self.b.numerator * self.a.denominator * big_k**3
                - self.a.numerator * self.b.denominator * big_s**3)

    def residual_compass(self) -> int:
        """Target AF minus the ruler distance cut off by the sliding square, cleared.

        Along the ruler, the perpendicular through D cuts off b k^3 from A;
        the compass stops when the cursor at a sits exactly there.  The
        residual a - b k^3 is increasing in t and negative at t = 0 for
        a < b.  This returns it times the positive factor qa qb S^3:
        pa qb S^3 - pb qa K^3, an int with the residual's exact sign.
        """
        big_k, big_s = _cleared_k(self.t)
        return (self.a.numerator * self.b.denominator * big_s**3
                - self.b.numerator * self.a.denominator * big_k**3)


class MeansResult(ValueRecord):
    """Solved means with the arc parameter and an exact residual bound.

    ``m1`` and ``m2`` are cbrt(a^2 b) and cbrt(a b^2) rounded half-even at
    the work digits, ``m1_shown`` and ``m2_shown`` the same roots rounded at
    the output digits.  ``iterations`` counts the grid points whose exact
    sign certified the arc parameter, decided by the seed's bracket or by
    the residual (0 when a == b needs none).  Immutable by convention.
    """

    __slots__ = ("m1", "m1_shown", "m2", "m2_shown", "theta_param", "iterations", "residual",
                 "method")


def _validate(a: Fraction, b: Fraction) -> None:
    if not a > 0:
        raise ValueError("the smaller given length must be positive")
    if a > b:
        raise ValueError("the target AF must not exceed the diameter AC")


def _result(a: Fraction, b: Fraction, m1: int, m2: int, w: int) -> DecimalScalar:
    """Ceiling at scale 3w of the largest continued-proportion defect of
    a, m1 / 10^w, m2 / 10^w, b.

    Every quantity is an integer over a known denominator, so nothing is
    reduced: the three defects share the denominator qa qb 10^2w.
    """
    scale = 10**w
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    defect = max(
        qb * abs(pa * m2 * scale - qa * m1 * m1),
        qa * abs(pb * m1 * scale - qb * m2 * m2),
        abs(pa * pb * scale * scale - qa * qb * m1 * m2),
    )
    return DecimalScalar(-(-defect * scale // (qa * qb)), 3 * w)


def _seed(a: Fraction, b: Fraction, w: int) -> tuple[int, int, int]:
    """Grid index at 10^-w just below the closed-form arc parameter, and the
    root's bracket ``(low, high)`` on g^2 for the grid points t = g/10^w.

    With z the decimal digits of floor(b/(b - a)), at most 2w, and
    s = 10^(w + 5 + z), k = cbrt(a/b) and t = sqrt((1 - k)/(1 + k)) are
    taken as floors at w + 5 + z digits: c = floor(s k) and
    q = floor(s^2 (s - c)/(s + c)), so t's floor is isqrt(q).  The index only
    steers the certified search.  Every x = (s t)^2 <= q - 2s lies below
    (s t*)^2 and every x > q above it, as the module docstring proves; with
    x = g^2 u for u = 10^(10 + 2z), that is g^2 <= (q - 2s) // u and
    g^2 > q // u.
    """
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    z = min(_decimal_digits(pb * qa // (pb * qa - pa * qb)), 2 * w)
    scale, unit = 10 ** (w + 5 + z), 10 ** (5 + z)
    c = _icbrt(pa * qb * scale**3 // (qa * pb))
    q = (scale - c) * (scale * scale) // (scale + c)
    return math.isqrt(q) // unit, (q - 2 * scale) // (unit * unit), q // (unit * unit)


def _solve(a, b, ctx: PrecisionContext, method: str) -> MeansResult:
    """Certify t with ``method``'s own residual signs; the means come from their radicands.

    A sign that the seed's bracket decides is the residual's sign without
    the residual; only a grid point inside the bracket evaluates it.  m1 and
    m2 are the cube roots of a^2 b and a b^2.
    """
    af, bf = as_rational(a), as_rational(b)
    _validate(af, bf)
    w, digits = ctx.work_digits, ctx.output_digits
    m1, m2 = cbrt(af**2 * bf, w, digits), cbrt(af * bf**2, w, digits)  # a power takes no gcd
    if af == bf:
        t, evaluations = Fraction(0), 0
    else:
        grid = 10**w
        seed, low, high = _seed(af, bf, w)
        instrument = method == "instrument"
        want_low = 1 if instrument else -1  # the sign below the root

        def sign_at(g: int) -> int:
            if g == grid and instrument:
                return -1  # cursor crossing runs off to infinity with D at A
            if g * g > high:
                return -want_low
            if g * g <= low:
                return want_low
            state = InstrumentState(af, bf, Fraction(g, grid))
            r = state.residual_instrument() if instrument else state.residual_compass()
            return (r > 0) - (r < 0)
        g, exact, evaluations = certify_bracket(sign_at, seed, 0, grid, want_low)
        t = Fraction(g, grid) if exact else Fraction(2 * g + 1, 2 * grid)
    residual = _result(af, bf, m1[0].unscaled, m2[0].unscaled, w)
    return MeansResult(*m1, *m2, t, evaluations, residual, method)


def two_means_instrument(a, b, ctx: PrecisionContext = DEFAULT_CONTEXT) -> MeansResult:
    """Prop-III mechanism: slide the stylus until plumbline and cursor meet on AC."""
    return _solve(a, b, ctx, "instrument")


def two_means_compass(a, b, ctx: PrecisionContext = DEFAULT_CONTEXT) -> MeansResult:
    """Prop-IV mechanism: one compass aperture b/2 from the midpoint of AC.

    The compass only re-expresses how D is held to the arc (its distance
    from the midpoint stays b/2, which the rational arc parameter makes
    exact), while the stopping coincidence is measured along the ruler.
    """
    return _solve(a, b, ctx, "compass")


def duplicate_cube(edge, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple[DecimalScalar, ...]:
    """Edge cbrt(2 e^3) of the cube of doubled volume, the first mean between e and 2e,
    rounded half-even at the work digits and at the output digits.

    It takes the root of the volume directly and runs no instrument, whose
    arc parameter the doubled cube does not print.
    """
    e = as_rational(edge)
    if not e > 0:
        raise ValueError("edge must be positive")
    return cbrt(2 * e**3, ctx.work_digits, ctx.output_digits)
