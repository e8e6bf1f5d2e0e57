"""Exact integer kernels, fixed-point decimal records and grouped table formatting.

A :class:`DecimalScalar` is a signed integer times a negative power of
ten, kept only to be printed: every computation runs on ``int`` at a known
scale or on :class:`~fractions.Fraction`.  Rounding to a scale, square
roots and cube roots round half-even once, from the exact value, to the
digits asked for, by one rule, :func:`_half_even`: from a floor and a test
of whether that floor is exact.
Everything is built on Python's arbitrary-precision ``int``, so there is no
hidden binary floating point anywhere.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections.abc import Callable
from fractions import Fraction

_PLAIN_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d+))?$")


def _half_even(f: int, n: int, tie: Callable[[], bool] | None = None) -> int:
    """x rounded to the nearest integer, ties to even, from f = floor(2n x) (n > 0).

    floor(f / n) = floor(2x) =: g, and floor((g + 1) / 2) rounds x half up.
    That differs from half-even only at a tie 2x = g with g = 2k + 1 and k
    even, so ``tie()``, which says whether 2n x is exactly f, is called only
    when n divides f and g = 1 (mod 4); the result is then k.  A missing
    ``tie`` means 2n x is exactly f: a quotient p/q rounds as
    ``_half_even(2 p, q)``.  As floor(floor(y) / N) = floor(y / N) for an
    integer N > 0, one floor serves several scales: f = floor(2n x) is also
    floor(2 (n N) (x / N)).
    """
    g, r = divmod(f, n)
    if not r and g % 4 == 1 and (tie is None or tie()):
        return g // 2
    return (g + 1) // 2


def _decimal_digits(n: int) -> int:
    """Decimal digits of a positive int, counted without ``str``."""
    d = max(1, int((n.bit_length() - 1) * math.log10(2)))  # never above the count
    while n >= 10**d:
        d += 1
    return d


def _icbrt(n: int) -> int:
    """Floor cube root of a non-negative integer.

    Up to 192 bits, Newton iteration from the upper bound 2^ceil(bits/3);
    integer division makes each step land at or above the true root, so it
    stops at the first step that does not decrease.  Above, the start is the
    floor cube root of the top half of the bits, found the same way, plus
    one and shifted back: an upper bound that holds half the root's digits,
    so one full-precision Newton step leaves it a few units from the root.
    Either way x is then corrected by differences, down by
    (x - 1)^3 = x^3 - 3x(x - 1) - 1 while x^3 > n and up by
    (x + 1)^3 = x^3 + 3x(x + 1) + 1 while that is <= n, so
    x^3 <= n < (x + 1)^3 holds on return by construction.  A Newton step
    never lands below the floor root (the mean of x, x, n/x^2 is at least
    cbrt(n)), so the upward pass only confirms (x + 1)^3 > n.
    """
    if n < 0:
        raise ValueError("negative argument")
    if n == 0:
        return 0
    if n.bit_length() <= 192:
        x = 1 << -(-n.bit_length() // 3)  # 2^ceil(bits/3) >= cbrt(n)
        while (y := (2 * x + n // (x * x)) // 3) < x:
            x = y
    else:
        shift = n.bit_length() // 6
        x = (_icbrt(n >> 3 * shift) + 1) << shift
        x = (2 * x + n // (x * x)) // 3
    cube = x * x * x
    while cube > n:
        x, cube = x - 1, cube - 3 * x * (x - 1) - 1
    while (above := cube + 3 * x * (x + 1) + 1) <= n:
        x, cube = x + 1, above
    return x


def unit_circle_ints(n: int, d: int) -> tuple[int, int, int]:
    """``(d^2 - n^2, 2nd, d^2 + n^2)``: the unit-circle point of t = n/d times d^2 + n^2.

    The point is ((1-t^2)/(1+t^2), 2t/(1+t^2)), so the scale is positive
    for d != 0.
    """
    return d * d - n * n, 2 * n * d, d * d + n * n


def parse_int(literal: str) -> int:
    """``int(literal)``, or a one-line error past the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and len(literal) > limit:  # else it cannot hold more digits than the limit
        digits = sum(c.isdigit() for c in literal)
        if digits > limit:
            raise ValueError(f"operand of {digits} digits exceeds the limit of {limit} digits")
    return int(literal)


class ValueRecord:
    """A record whose fields are its ``__slots__``, compared, hashed and printed by value.

    Immutable by convention: nothing assigns to a field after construction.
    Each subclass keeps ``_fields``, one ``operator.attrgetter`` of its
    ``__slots__``: two records are equal when they are of one class and their
    fields are equal, and a record hashes as its fields.  Records built per
    op write ``__init__`` out.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def as_dict(self) -> dict:
        """The fields by name, in ``__slots__`` order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        return self._fields(self) == self._fields(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class CertificationError(ArithmeticError):
    """A solver could not certify its root.

    Raised by :func:`window_floor` when a window is not narrower than a
    unit, by :mod:`~mesolabe.proportio` when the bracket on its constant u
    fails its check, and by :mod:`~mesolabe.delian` when the exact signs at
    the ends of the arc parameter's cell do not bracket the root; a Euclid
    checker reports a failed claim as a non-zero residual or False instead.
    It is not a ``ValueError``, so the CLI reports it as a failed
    verification (exit 1), never as a usage error; it is raised explicitly,
    so ``python -O`` keeps it.
    """


def window_floor(low: int, high: int, unit: int, at_or_below: Callable[[int], bool],
                 shift: int = 0) -> int:
    """floor(x) for a value x known to lie in [low/n, high/n), n = unit 2^shift
    (unit > 0), a window narrower than a unit.

    The floor is g = low // n, or g + 1 when g + 1 lies inside the window and
    ``at_or_below(g + 1)``, an exact test of g + 1 <= x, says so; no other
    test is made.  g is taken as (low >> shift) // unit, since
    floor(floor(y) / N) = floor(y / N), so a power of two in n costs a shift
    instead of a long division.  A window that is empty or not narrower than
    a unit raises :class:`CertificationError`.
    """
    if not 0 < high - low < unit << shift:
        raise CertificationError("the window of a root is not narrower than a unit")
    g = (low >> shift) // unit
    if (g + 1) * unit << shift < high and at_or_below(g + 1):
        g += 1
    return g


class PrecisionContext(ValueRecord):
    """Reported and guard fractional digits of a run; immutable by convention.

    ``output_digits`` are reported, and ``guard_digits`` more are carried
    during iteration: ``work_digits`` is their sum.
    """

    __slots__ = ("output_digits", "guard_digits")

    def __init__(self, output_digits: int = 20, guard_digits: int = 10):
        if guard_digits < 5:
            raise ValueError("guard_digits must be at least 5")
        if output_digits < 1:
            raise ValueError("output_digits must be at least 1")
        super().__init__(output_digits, guard_digits)

    @property
    def work_digits(self) -> int:
        return self.output_digits + self.guard_digits

    @classmethod
    def for_output(cls, output_digits: int) -> "PrecisionContext":
        """The constructor at the default guard digits, under the name it had when
        ``__init__`` took the work digits first; it stays because the frozen
        acceptance criteria call it."""
        return cls(output_digits)


#: The constructor's defaults, which the CLI's are too: paper tables carry 20
#: fractional digits, and 10 guard digits go on top.
DEFAULT_CONTEXT = PrecisionContext()


class DecimalScalar(ValueRecord):
    """Signed fixed-point decimal ``unscaled * 10**-scale``: a record to print.

    ``scale`` counts fractional digits and is never negative.  It has no
    arithmetic and no ordering: callers compute on ``int`` at a known scale
    or on :class:`~fractions.Fraction`, and wrap the result to print it.  It
    compares and hashes by its fields, so ``DecimalScalar(20, 1)`` and
    ``DecimalScalar(2, 0)`` differ.  Immutable by convention.
    """

    __slots__ = ("unscaled", "scale")

    def __init__(self, unscaled: int, scale: int = 0):
        if scale < 0:
            raise ValueError("scale must be non-negative")
        self.unscaled, self.scale = unscaled, scale

    @classmethod
    def from_str(cls, text: str) -> "DecimalScalar":
        m = _PLAIN_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a plain decimal literal: {text!r}")
        sign, int_part, frac_part = m.groups()
        frac_part = frac_part or ""
        unscaled = parse_int(int_part + frac_part)
        if sign == "-":
            unscaled = -unscaled
        return cls(unscaled, len(frac_part))

    @classmethod
    def from_fraction(cls, value: Fraction, scale: int) -> "DecimalScalar":
        """Nearest fixed-point value at ``scale`` fractional digits, ties to even."""
        return cls(_half_even(2 * value.numerator * 10**scale, value.denominator), scale)

    def as_fraction(self) -> Fraction:
        return Fraction(self.unscaled, 10**self.scale)

    def __str__(self) -> str:
        """The value's text, ``-12.5``: the one conversion to text.

        The integer part and the ``scale`` fractional digits are converted
        apart, so that a value prints while each part, rather than the whole
        digit string, stays within the interpreter's limit on int-to-str
        conversion; a part past it raises a one-line ``ValueError``.  A
        caller that prints a value two ways converts it once and passes the
        text to :func:`grouped_text` or :func:`pair_texts`.
        """
        whole, frac = divmod(abs(self.unscaled), 10**self.scale)
        sign = "-" if self.unscaled < 0 else ""
        try:
            return f"{sign}{whole}.{str(frac).zfill(self.scale)}" if self.scale else sign + str(whole)
        except ValueError:  # in parse_int's words, naming the part past the limit
            digits, part = _decimal_digits(whole), "integer"
            if digits <= sys.get_int_max_str_digits():
                digits, part = self.scale, "fractional"
            raise ValueError(f"a result of {digits} {part} digits exceeds the limit of "
                             f"{sys.get_int_max_str_digits()} digits") from None

    def __repr__(self) -> str:
        return f"DecimalScalar('{self}')"


def as_rational(value) -> Fraction:
    """Exact Fraction view of a DecimalScalar, int, or Fraction."""
    if isinstance(value, DecimalScalar):
        return value.as_fraction()
    return Fraction(value)


def round_to(a: DecimalScalar, digits: int) -> DecimalScalar:
    """Round half-even to ``digits`` fractional digits (exact when widening)."""
    return DecimalScalar(_half_even(2 * a.unscaled * 10**digits, 10**a.scale), digits)


def sqrt(value, digits: int) -> DecimalScalar:
    """Square root of an exact Fraction, int or DecimalScalar, rounded half-even to ``digits``.

    With value 10^(2 digits) = n/d (:func:`as_rational`) and r its root,
    f = isqrt(4n // d) is the floor of 2r, and 2r is exactly f when d
    divides 4n and f^2 = 4n/d.  A negative value raises ``ValueError`` from
    ``math.isqrt``.
    """
    value = as_rational(value)
    n, d = value.numerator * 10 ** (2 * digits), value.denominator
    q, r = divmod(4 * n, d)
    f = math.isqrt(q)
    return DecimalScalar(_half_even(f, 1, lambda: not r and f * f == q), digits)


def _rounded_cbrt(
    f: int, radicand: Callable[[], tuple[int, int]], work: int, digits: int
) -> tuple[DecimalScalar, DecimalScalar]:
    """A cube root r rounded half-even at ``work`` and at ``digits`` <= ``work``
    fractional digits, from f = floor(2 10^work r).

    ``radicand()`` is (n, d) with (2 10^work r)^3 = n/d, so 2 10^work r is
    exactly f when f^3 d = n; it is called only for that tie test.  Both
    values round from the one floor (:func:`_half_even`), so neither is
    rounded from the other.
    """
    def tie() -> bool:
        n, d = radicand()
        return f * f * f * d == n

    return (DecimalScalar(_half_even(f, 1, tie), work),
            DecimalScalar(_half_even(f, 10 ** (work - digits), tie), digits))


def cbrt(value, work: int, digits: int) -> tuple[DecimalScalar, DecimalScalar]:
    """Cube root of an exact non-negative Fraction or int, rounded half-even at ``work``
    and at ``digits`` <= ``work`` fractional digits.

    f = floor(cbrt(8 value 10^(3 work))) = floor(2 10^work r) for the root r,
    and :func:`_rounded_cbrt` rounds both values from it.  A negative value
    raises ``ValueError`` from :func:`_icbrt`.
    """
    n, d = 8 * value.numerator * 10 ** (3 * work), value.denominator
    return _rounded_cbrt(_icbrt(n // d), lambda: (n, d), work, digits)


def fraction_text(value: Fraction) -> str:
    """``str(value)``, ``n/d`` or ``n``, each integer converted as a DecimalScalar is, so
    that one past the interpreter's int-to-str limit raises its one-line error."""
    text = str(DecimalScalar(value.numerator))
    return text if value.denominator == 1 else f"{text}/{DecimalScalar(value.denominator)}"


def pair_texts(full: DecimalScalar, shown: DecimalScalar) -> tuple[str, str]:
    """``(str(shown), str(full))``, with ``full`` converted once and ``shown`` read off it.

    ``full`` has n >= ``shown.scale`` fractional digits.  With
    N = 10^(n - ``shown.scale``), ``full``'s text up to its
    ``shown.scale``-th fractional digit spells q = floor(|F| / N), for
    ``full``'s integer F.  When both round one value x to nearest, as the
    means, the doubled edge and the quad do, ``shown``'s integer S has
    |S| = q or q + 1: |F| and |S| N lie within 1/2 and N/2 of 10^n |x|, so
    with |F| = qN + r, 0 <= r < N, |S| N - qN lies between -N/2 - 1/2 and
    3N/2 - 1/2, strictly between -N and 2N.  For any |S| - q in [-8, 8],
    |S| - q is 0 or 1 exactly when it is so mod 10, which |S| mod 10 and
    q's last digit give.  At 0 ``shown``'s text is that prefix, and at 1 the
    prefix with a carry, the nines it passes turned to zeros; a carry
    through every digit, and any other S, is converted apart.
    """
    text = str(full)
    head = text[:len(text) - full.scale + shown.scale].rstrip(".").lstrip("-")
    step = (abs(shown.unscaled) - int(head[-1])) % 10
    sign = "-" if shown.unscaled < 0 else ""
    if step == 0:
        return sign + head, text
    kept = head.rstrip("9.")
    if step == 1 and kept:
        return sign + kept[:-1] + str(int(kept[-1]) + 1) + head[len(kept):].replace("9", "0"), text
    return str(shown), text


def format_grouped(a: DecimalScalar) -> str:
    """Paper-table typography of ``a``: :func:`grouped_text` of its text."""
    return grouped_text(str(a))


def grouped_text(text: str) -> str:
    """Paper-table typography: fractional digits in groups of five.

    ``2.0000000000`` renders as ``"2 00000 00000"``, and a zero integer
    part is elided when a full five-digit group follows, so
    ``0.6353443923`` renders as ``"63534 43923"``; with fewer than five
    fractional digits it stays, so ``0.7`` renders as ``"0 7"``.  A
    five-digit leading token therefore always means a fractional group, and
    an integer part of exactly five digits gets one leading zero:
    ``70000.5`` renders as ``"070000 5"``.  ``text`` is a value's
    ``str``, so digits already converted are only regrouped, with no
    object per group: the j-th digit of every group is every fifth digit
    from the j-th, and one slice assignment per j puts them at every sixth
    byte of a buffer of spaces, one space before each group.
    """
    sign = "-" if text.startswith("-") else ""
    int_part, _, frac = text[len(sign):].partition(".")
    if len(int_part) == 5:
        int_part = "0" + int_part
    spaced = bytearray(b" " * (len(frac) + (len(frac) + 4) // 5))
    digits = frac.encode()
    for j in range(5):
        spaced[j + 1::6] = digits[j::5]
    if int_part == "0" and len(frac) >= 5:
        return sign + spaced[1:].decode()
    return sign + int_part + spaced.decode()
