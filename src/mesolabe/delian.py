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
between a and b.  Arc positions use the rational tangent-half-angle
parameter t = n/m, so k = (m^2 - n^2)/(m^2 + n^2) and every residual,
multiplied by a positive factor that clears its denominators, is an exact
integer.  The solver certifies the grid cell at 10^-w where the
mechanism's residual changes sign, and the closed form k = cbrt(a/b)
decides all but at most one of the grid points' signs.

Both residuals change sign only at the root t*, where
(1 - t*^2)/(1 + t*^2) = cbrt(a/b), so a sign is known as soon as t is
known to lie on one side of t*.  For any integer s > 0 and
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
10^-(5 + z)/t* < 10^-4 grid units around t*.  At the cap, where b/a lies
within about 10^-2w of 1, the window on g^2 is 2s/10^(10 + 2z) < 1 wide,
so it too holds at most one square, and it can reach t = 0.  So t's cell
is the largest g whose g^2 the window puts below the root, unless the one
grid point the window leaves open evaluates the mechanism's residual and
lies below it too: an arc parameter on the grid, as for a : b = 27 : 125,
is such a point.  The cell's two ends are checked against their signs,
decided or evaluated, so a failed premise raises instead of printing.

The means are not read off t: they come from the seed's root, the only
cube root a solve takes.  It is C = floor(S k) at S = 10^e s, with e the
decimal digits of ceil(b), and the seed's c is C // 10^e, exactly
floor(s k) since floor(floor(y) / N) = floor(y / N).  With b = pb/qb,
S = 10^w v for v = 10^(5 + z + e), m2 = b k and m1 = b k^2, the bounds
C <= S k < C + 1 give

    2 pb C / (qb v) <= 2 10^w m2 < 2 pb (C + 1) / (qb v),
    2 pb C^2 / (qb 10^w v^2) <= 2 10^w m1 < 2 pb (C + 1)^2 / (qb 10^w v^2).

As b <= ceil(b) < 10^e, the first window is 2b/v < 2 10^-(5 + z) wide,
and as C <= S (a <= b) the second is 2b (2C + 1)/(10^w v^2) <= 6b/v
< 6 10^-(5 + z): both are narrower than 10^-4.  So floor(2 10^w m) is the
floor g of the window's lower end, unless g + 1 lies below its upper end;
then one exact cube decides, (g + 1)^3 d <= n for the radicand
(2 10^w m)^3 = n/d, 8 10^(3w) a^2 b or 8 10^(3w) a b^2.  That floor rounds
half-even once, at the work digits and at the output digits alike, as
:func:`~mesolabe.scalar.cbrt` rounds the doubled cube's edge, so every
printed mean is its exact root rounded once.  e follows b's size, not the
length of its numerator, so a long operand does not widen the root.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from fractions import Fraction

from .scalar import (
    DEFAULT_CONTEXT,
    CertificationError,
    DecimalScalar,
    PrecisionContext,
    ValueRecord,
    _decimal_digits,
    _icbrt,
    _rounded_cbrt,
    as_rational,
    cbrt,
    unit_circle_ints,
    window_floor,
)


class InstrumentState(ValueRecord):
    """Arc parameter ``t`` with target AF = a against diameter AC = b.

    It carries only the stopping residuals; the scene's points come from
    :func:`~mesolabe.proportio.arc_points`.  Immutable by convention.
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
        k = K/S, the x of :func:`~mesolabe.scalar.unit_circle_ints` (K, _, S)
        at t, this returns it times the positive factor qa qb K S^2:
        pb qa K^3 - pa qb S^3, an int with the residual's exact sign.
        """
        big_k, _, big_s = unit_circle_ints(self.t.numerator, self.t.denominator)
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
        big_k, _, big_s = unit_circle_ints(self.t.numerator, self.t.denominator)
        return (self.a.numerator * self.b.denominator * big_s**3
                - self.b.numerator * self.a.denominator * big_k**3)


class MeansResult(ValueRecord):
    """Solved means with the arc parameter and an exact residual bound.

    ``m1`` and ``m2`` are b k^2 = cbrt(a^2 b) and b k = cbrt(a b^2), from
    the seed's root C = floor(S k), rounded half-even at the w work digits,
    and ``m1_shown`` and ``m2_shown`` the same roots rounded at the output
    digits.  Both round one root, so a shown mean's text is read off its
    full one (:func:`~mesolabe.scalar.pair_texts`).  ``theta`` is the
    certified arc parameter, exact at w + 1 fractional digits: 10 g + 5 for
    the cell (g, g + 1) on the grid 10^-w, 10 g on an exact hit and 0 when
    a == b.
    ``iterations`` counts the grid points whose exact sign certified it,
    decided by the seed's bracket or by the residual (0 when a == b needs
    none).  Immutable by convention.
    """

    __slots__ = ("m1", "m1_shown", "m2", "m2_shown", "theta", "iterations", "residual", "method")

    @property
    def theta_param(self) -> Fraction:
        """The arc parameter as a Fraction: the cell's midpoint (2g + 1) / (2 10^w), or g / 10^w."""
        return self.theta.as_fraction()


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


def _root(a: Fraction, b: Fraction, w: int) -> tuple[int, int, int]:
    """(C, z, e): the solve's one cube root C = floor(S cbrt(a/b)) at
    S = 10^(w + 5 + z + e).

    z is the decimal digits of floor(b/(b - a)), at most 2w, and 0 when
    a == b needs no seed; e is the decimal digits of ceil(b).
    """
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    z = min(_decimal_digits(pb * qa // (pb * qa - pa * qb)), 2 * w) if a != b else 0
    e = _decimal_digits(-(-pb // qb))
    scale = 10 ** (w + 5 + z + e)
    return _icbrt(pa * qb * scale**3 // (qa * pb)), z, e


def _seed(c: int, z: int, w: int) -> tuple[int, int]:
    """The root's bracket ``(low, high)`` on g^2 for the grid points t = g/10^w.

    With s = 10^(w + 5 + z) and c = floor(s k), k = cbrt(a/b), the arc
    parameter t = sqrt((1 - k)/(1 + k)) is taken as a floor at w + 5 + z
    digits: q = floor(s^2 (s - c)/(s + c)).  Every x = (s t)^2 <= q - 2s
    lies below (s t*)^2 and every x > q above it, as the module docstring
    proves; with x = g^2 u for u = 10^(10 + 2z), that is
    g^2 <= (q - 2s) // u and g^2 > q // u.
    """
    scale, unit = 10 ** (w + 5 + z), 10 ** (10 + 2 * z)
    q = (scale - c) * (scale * scale) // (scale + c)
    return (q - 2 * scale) // unit, q // unit


def _cell(low: int, high: int, grid: int, sign: Callable[[int], int], want_low: int
          ) -> tuple[int, bool]:
    """(g, exact): t's cell on the grid 1/``grid`` from the bracket ``(low, high)``
    on g^2, with ``sign(g)`` the residual's exact sign at t = g/grid.

    The residual's sign is ``want_low`` below the root and -``want_low``
    above it.  Grid points with g^2 <= low lie below the root, and those
    with g^2 > high or g >= grid (t = 1, as the root is below 1) above it,
    so the cell is g = isqrt(low) unless g + 1, the one point the bracket
    leaves open, evaluates ``sign``: 0 is an exact hit, returned as
    ``(g + 1, True)``, and ``want_low`` moves the cell up to it.  The result
    satisfies sign(g) = want_low and sign(g + 1) = -want_low, or
    sign(g) = 0 if exact, by decided or evaluated signs; otherwise it
    raises :class:`CertificationError`.
    """
    def open_point(g: int) -> bool:
        return g < grid and g * g <= high

    g = math.isqrt(low) if low >= 0 else -1
    if open_point(g + 1):
        r = sign(g + 1)
        if r == 0:
            return g + 1, True
        if r == want_low and not open_point(g + 2):
            g += 1
        elif r != -want_low:
            raise CertificationError(f"the signs at grid point {g + 1} do not bracket the root")
    if g < 0:
        raise CertificationError("no grid point lies below the root")
    return g, False


def _mean(low: int, high: int, unit: int, radicand, w: int, digits: int, shift: int
          ) -> tuple[DecimalScalar, DecimalScalar]:
    """A mean m rounded half-even at ``w`` and at ``digits`` fractional digits,
    where low/n <= 2 10^w m < high/n for n = unit 2^shift and ``radicand()``
    is (n, d) with (2 10^w m)^3 = n/d.

    floor(2 10^w m) is the :func:`~mesolabe.scalar.window_floor` of that
    window, whose one exact test is (g + 1)^3 d <= n.  n and d are formed at
    most once, and only for that test or a tie.
    """
    radicand = functools.cache(radicand)

    def at_or_below(g: int) -> bool:
        n, d = radicand()
        return g**3 * d <= n
    return _rounded_cbrt(window_floor(low, high, unit, at_or_below, shift), radicand, w, digits)


def _theta(a, b, w: int, big_c: int, z: int, e: int, method: str) -> tuple[int, int]:
    """(theta, evaluations): t certified with ``method``'s own residual signs, as
    10 g + 5 for the cell (g, g + 1) on the grid 10^-w, 10 g on an exact hit and 0
    when a == b, from the root (C, z, e) of :func:`_root`.

    The seed's bracket decides every grid point's sign but at most one, and
    only that one evaluates the residual (:func:`_cell`).
    """
    if a == b:
        return 0, 0
    grid = 10**w
    instrument = method == "instrument"

    def sign(g: int) -> int:
        state = InstrumentState(a, b, Fraction(g, grid))
        r = state.residual_instrument() if instrument else state.residual_compass()
        return (r > 0) - (r < 0)
    # the sign below the root is 1 for the instrument and -1 for the compass
    g, exact = _cell(*_seed(big_c // 10**e, z, w), grid, sign, 1 if instrument else -1)
    return (10 * g, 1) if exact else (10 * g + 5, 2)


def _solve(a, b, ctx: PrecisionContext, method: str) -> MeansResult:
    """Certify t with ``method``'s own residual signs (:func:`_theta`); the means come
    from the seed's root."""
    af, bf = as_rational(a), as_rational(b)
    _validate(af, bf)
    w, digits = ctx.work_digits, ctx.output_digits
    big_c, z, e = _root(af, bf, w)
    pa, qa, pb, qb = af.numerator, af.denominator, bf.numerator, bf.denominator
    # the units qb v = qb 10^k and qb 10^w v^2 = qb 10^(w + 2k), k = 5 + z + e, as
    # qb 5^k and qb 5^(w + 2k) shifted, since 10^k = 5^k 2^k
    k, m2_low = 5 + z + e, 2 * pb * big_c
    m1_low = m2_low * big_c
    m1 = _mean(m1_low, m1_low + 2 * m2_low + 2 * pb, qb * 5 ** (w + 2 * k),
               lambda: (8 * 10 ** (3 * w) * pa * pa * pb, qa * qa * qb), w, digits, w + 2 * k)
    m2 = _mean(m2_low, m2_low + 2 * pb, qb * 5**k,
               lambda: (8 * 10 ** (3 * w) * pa * pb * pb, qa * qb * qb), w, digits, k)
    theta, evaluations = _theta(af, bf, w, big_c, z, e, method)
    residual = _result(af, bf, m1[0].unscaled, m2[0].unscaled, w)
    return MeansResult(*m1, *m2, DecimalScalar(theta, w + 1), evaluations, residual, method)


def arc_parameter(a, b) -> Fraction:
    """The certified arc parameter t of :func:`two_means_instrument` and
    :func:`two_means_compass` at the default context, without the means.

    It equals either solve's ``theta_param``: the same root and the same cell,
    with no mean rounded and no residual bound taken.  The compass residual is
    the instrument residual negated, so both certify the same t.
    """
    af, bf = as_rational(a), as_rational(b)
    _validate(af, bf)
    w = DEFAULT_CONTEXT.work_digits
    theta, _ = _theta(af, bf, w, *_root(af, bf, w), "instrument")
    return Fraction(theta, 10 ** (w + 1))


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
