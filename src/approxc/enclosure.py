"""Arbitrary-precision dyadic interval arithmetic.

The computable stand-in for exact real evaluation: every operation
returns an enclosure guaranteed to contain the mathematical result for
any point selection from its argument enclosures.

An enclosure is two integer numerators over one shared positive
denominator, with the precision it was made at.  Every enclosure the
oracle returns at p bits lies on the 2^-p grid, its denominator 2^p:
each operation rounds its exact result outward onto that grid, as one
floor and one ceiling shift, or division where the exact denominator is
not a power of two.  Operands at another precision, and enclosures built
from arbitrary rationals, are rescaled to a common denominator first.
An enclosure built from rationals gets denominator 2^p when both ends
lie on the 2^-p grid and the least common denominator of its ends
otherwise, so equal endpoints and precision give equal fields, and
enclosures compare and hash by value.  The endpoints read as Fractions
at the edge (`lo`, `hi`, `width`).

Sine reduces its argument against a fixed 5376-bit enclosure of pi to
|m| <= 3.3, sums the Taylor series in fixed point (integers scaled by
2^(p+16), each term rounded outward) and adds a full-tail remainder
bound.  The whole path runs on integers: pi is held as numerators over
2^5376, the reduced interval as numerators over one common denominator,
the remainder, clamp and final rounding as one floor or ceiling division
each, and the scan for extrema at (2k+1)*pi/2 as cross-multiplied
comparisons; every endpoint equals what the same steps on Fractions give.
Before it is rounded to p bits, each endpoint is either +-1 or
at least 2^-(p+16) outside the sine it encloses, since the first term
left out is rounded outward to a nonzero grid value and the remainder
counts it twice; so an enclosure at a higher precision that is narrower
than this margin nests inside the coarser one.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from typing import List, Optional, Tuple

DEFAULT_MAX_PRECISION = 4096

# pi is cached once at a precision high enough for argument reduction of
# any binary64 magnitude at the maximum supported working precision
_PI_BITS = 5376


class PrecisionOverflow(Exception):
    pass


class DivisorStraddlesZero(Exception):
    pass


class Tern(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class RealEnclosure(namedtuple("_Numerators", "lo_num hi_num den precision_bits")):
    """The interval [lo_num/den, hi_num/den], made at precision_bits.

    Built from two rationals lo <= hi; see the module docstring for the
    denominator an enclosure gets.  A tuple, so immutable, and equal and
    hashed by its fields, which is by value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, precision_bits: int):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted enclosure [{lo}, {hi}]")
        den = 1 << precision_bits
        if den % lo.denominator or den % hi.denominator:
            den = math.lcm(lo.denominator, hi.denominator)
        return _new(cls, (lo.numerator * (den // lo.denominator),
                          hi.numerator * (den // hi.denominator),
                          den, precision_bits))

    def __getnewargs__(self):
        return self.lo, self.hi, self.precision_bits

    def __repr__(self):
        return (f"RealEnclosure(lo={self.lo!r}, hi={self.hi!r}, "
                f"precision_bits={self.precision_bits!r})")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, self.den)

    def contains(self, q: Fraction) -> bool:
        n, d = q.numerator * self.den, q.denominator
        return self.lo_num * d <= n <= self.hi_num * d


_new = tuple.__new__


def _grid(lo: int, hi: int, p: int) -> RealEnclosure:
    """The enclosure [lo, hi] * 2^-p, made at p bits."""
    return _new(RealEnclosure, (lo, hi, 1 << p, p))


def _rounded(lo: int, hi: int, d: int, p: int) -> RealEnclosure:
    """[lo/d, hi/d], for d > 0, rounded outward onto the 2^-p grid: a
    directed shift where d is a power of two, else a directed division."""
    one = 1 << p
    if d != one:
        if d & (d - 1):
            lo, hi = (lo << p) // d, -((-hi << p) // d)
        else:
            s = d.bit_length() - 1 - p
            lo, hi = (lo >> s, -(-hi >> s)) if s > 0 else (lo << -s, hi << -s)
    return _new(RealEnclosure, (lo, hi, one, p))


def _common(x: RealEnclosure, y: RealEnclosure) -> Tuple[int, int, int, int, int]:
    """x's and y's numerators over one denominator, and that denominator."""
    xd, yd = x.den, y.den
    if xd == yd:
        return x.lo_num, x.hi_num, y.lo_num, y.hi_num, xd
    return (x.lo_num * yd, x.hi_num * yd, y.lo_num * xd, y.hi_num * xd,
            xd * yd)


def from_rational(q: Fraction, p: int) -> RealEnclosure:
    """q, a Fraction or an int, rounded outward onto the 2^-p grid."""
    n = q.numerator
    return _rounded(n, n, q.denominator, p)


def compare_leq(a: RealEnclosure, b: RealEnclosure) -> Tern:
    """Is a <= b?  Unknown when the enclosures overlap."""
    al, ah, bl, bh, _ = _common(a, b)
    if ah <= bl:
        return Tern.YES
    if bh < al:
        return Tern.NO
    return Tern.UNKNOWN


# ---------------------------------------------------------------------------
# pi via Machin's formula, computed once with integer arithmetic

_pi_cache: Optional[Tuple[int, int]] = None


def _atan_inv_scaled(m: int, bits: int) -> Tuple[int, int]:
    """Integer bounds on 2^bits * atan(1/m) for integer m >= 2."""
    lo = 0
    hi = 0
    k = 0
    mpow = m
    m2 = m * m
    one = 1 << bits
    while True:
        denom = (2 * k + 1) * mpow
        t_f = one // denom
        if t_f == 0:
            # alternating remainder is below one scaled ulp
            return lo - 1, hi + 1
        t_c = -((-one) // denom)
        if k % 2 == 0:
            lo += t_f
            hi += t_c
        else:
            lo -= t_c
            hi -= t_f
        k += 1
        mpow *= m2


def _pi_scaled() -> Tuple[int, int]:
    """Integer bounds on 2^5376 * pi, computed once."""
    global _pi_cache
    if _pi_cache is None:
        a5_lo, a5_hi = _atan_inv_scaled(5, _PI_BITS)
        a239_lo, a239_hi = _atan_inv_scaled(239, _PI_BITS)
        _pi_cache = (16 * a5_lo - 4 * a239_hi, 16 * a5_hi - 4 * a239_lo)
    return _pi_cache


def pi_bounds() -> Tuple[Fraction, Fraction]:
    """A fixed enclosure of pi, independent of the working precision."""
    lo, hi = _pi_scaled()
    return Fraction(lo, 1 << _PI_BITS), Fraction(hi, 1 << _PI_BITS)


# ---------------------------------------------------------------------------
# sine

# reduce whenever |arg| exceeds 33/10
_CAP_NUM, _CAP_DEN = 33, 10


def _sin_taylor_interval(lo: int, hi: int, den: int, p: int) -> Tuple[int, int]:
    """Taylor sum of sin over [lo/den, hi/den], a narrow interval within
    +-3.3, for integers lo <= hi and den > 0 (not necessarily reduced),
    as numerators over 2^p.

    Rounds every intermediate outward to the 2^-w grid, w = p+16, and
    finishes with a geometric full-tail remainder, which keeps results
    at higher precision nested inside lower-precision ones.  The series
    runs on integers scaled by 2^w: sums of grid values are exact and a
    product of two lies on the 2^-2w grid, so each rounding is an
    integer floor or ceiling division.
    """
    w = p + 16
    # M = m * 2^w, rounded outward
    m_lo = (lo << w) // den
    m_hi = -((-hi << w) // den)
    cands = (m_lo * m_lo, m_lo * m_hi, m_hi * m_hi)
    m2_lo = max(0, min(cands)) >> w
    m2_hi = -(-max(cands) >> w)
    t_lo, t_hi = m_lo, m_hi
    s_lo = s_hi = 0
    j = 0
    while True:
        s_lo += t_lo
        s_hi += t_hi
        prods = (t_lo * m2_lo, t_lo * m2_hi, t_hi * m2_lo, t_hi * m2_hi)
        # next term is -T_j * M2 / c, rounded outward to the 2^-w grid
        d = (2 * j + 2) * (2 * j + 3) << w
        t_lo = -max(prods) // d
        t_hi = -(min(prods) // d)
        j += 1
        # stop once the term is at most 2^-(p+8), that is 2^8 grid units
        if max(abs(t_lo), abs(t_hi)) <= 256:
            break
        if j > 10000:
            raise PrecisionOverflow("sine series failed to converge")
    # later terms shrink by at most rho = M2 / (c * 2^w); e = (1-rho) c 2^w
    c = (2 * j + 2) * (2 * j + 3)
    e = (c << w) - m2_hi
    if e <= 0:
        raise PrecisionOverflow("sine argument too large after reduction")
    # the remainder 2|T_J| / (1-rho) is tail / (e * 2^w); the sums move by
    # it and are clamped to [-1, 1] on the 2^-p grid, one division each
    tail = 2 * c * max(abs(t_lo), abs(t_hi)) << w
    q = e << (w - p)
    one = 1 << p
    lo_p = max(-one, (s_lo * e - tail) // q)
    hi_p = min(one, -((-s_hi * e - tail) // q))
    return lo_p, hi_p


def _reduce_arg(a: int, b: int, p: int) -> Tuple[int, int, int]:
    """Exact interval for r - n*2pi, r = a/b with b > 0, with n chosen so
    |result| <= 3.3, as numerators lo, hi over the common denominator
    b * 2^5376."""
    pi_lo, pi_hi = _pi_scaled()
    x = a << _PI_BITS
    # nearest integer to r / 2pi, using the midpoint of the pi bounds:
    # floor(q + 1/2) for q = x / m
    m = b * (pi_lo + pi_hi)
    n = (2 * x + m) // (2 * m)
    if n.bit_length() + p + 16 > _PI_BITS:
        raise PrecisionOverflow(
            f"argument too large for sine reduction at {p} bits")
    den = b << _PI_BITS
    tpi_lo, tpi_hi = 2 * b * pi_lo, 2 * b * pi_hi
    cap = _CAP_NUM * den
    for _ in range(8):
        if n >= 0:
            lo, hi = x - n * tpi_hi, x - n * tpi_lo
        else:
            lo, hi = x - n * tpi_lo, x - n * tpi_hi
        if _CAP_DEN * hi > cap:
            n += 1
        elif _CAP_DEN * lo < -cap:
            n -= 1
        else:
            return lo, hi, den
    raise PrecisionOverflow("sine argument reduction failed")


def sin_point(r: Fraction, p: int, den: int = 1) -> RealEnclosure:
    """Rigorous enclosure of sin(r / den) for an exact rational r, a
    Fraction or an int, and an integer den > 0; r / den need not be in
    lowest terms.  The result lies on the 2^-p grid."""
    a, b = r.numerator, r.denominator * den
    if a == 0:
        return _grid(0, 0, p)
    if _CAP_DEN * abs(a) <= _CAP_NUM * b:
        lo, hi = _sin_taylor_interval(a, a, b, p)
    else:
        lo, hi = _sin_taylor_interval(*_reduce_arg(a, b, p), p)
    return _grid(lo, hi, p)


def _sin_enclosure(x: RealEnclosure, p: int) -> RealEnclosure:
    # x is [a/b, c/b]; the sines of its ends are taken at p + 2 bits, as
    # numerators over 2^(p+2), and the result rounded to p bits
    a, c, b = x.lo_num, x.hi_num, x.den
    if c - a >= 7 * b:  # wider than a full period
        return _grid(-1 << p, 1 << p, p)
    s1 = sin_point(a, p + 2, b)
    s2 = s1 if a == c else sin_point(c, p + 2, b)
    one = 1 << (p + 2)
    lo = min(s1.lo_num, s2.lo_num)
    hi = max(s1.hi_num, s2.hi_num)
    # account for interior extrema at (2k+1) * pi/2, comparing every value
    # scaled by 2^5377 * b
    pi_lo, pi_hi = _pi_scaled()
    xa, xc = a << (_PI_BITS + 1), c << (_PI_BITS + 1)
    # floor((2x/pi - 1) / 2) at each end, pi_hi at x.lo and pi_lo at x.hi.
    # That at x.lo is at most the first k the test admits: the quotients
    # differ by less than 1 for any x sin_point reduces.  At x.hi < 0 the
    # test uses m * pi_hi, which the floor at pi_lo can miss by one.
    k_min = (xa - b * pi_hi) // (2 * b * pi_hi)
    k_max = (xc - b * pi_lo) // (2 * b * pi_lo) + 1
    for k in range(k_min, k_max + 1):
        m = 2 * k + 1
        if m >= 0:
            c_lo, c_hi = m * pi_lo, m * pi_hi
        else:
            c_lo, c_hi = m * pi_hi, m * pi_lo
        if c_hi * b >= xa and c_lo * b <= xc:  # extremum possibly inside
            if k % 2 == 0:
                hi = one
            else:
                lo = -one
    return _rounded(max(lo, -one), min(hi, one), one, p)


# ---------------------------------------------------------------------------
# operation dispatch

def _abs(lo: int, hi: int) -> Tuple[int, int]:
    """The range of |v| for v in [lo, hi]."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _quotient(x: RealEnclosure, y: RealEnclosure, p: int) -> RealEnclosure:
    """x / y for y excluding zero.  The sign cases pick the corner each
    end of the range sits at, so each end is one directed division:
    x_i / y_j is x_i * y.den / (y_j * x.den)."""
    xl, xh, yl, yh = x.lo_num, x.hi_num, y.lo_num, y.hi_num
    if yl > 0:  # increasing in x
        n_lo, d_lo = xl, (yh if xl >= 0 else yl)
        n_hi, d_hi = xh, (yl if xh >= 0 else yh)
    else:  # decreasing in x
        n_lo, d_lo = xh, (yh if xh >= 0 else yl)
        n_hi, d_hi = xl, (yl if xl >= 0 else yh)
    if x.den != y.den:
        n_lo, n_hi = n_lo * y.den, n_hi * y.den
        d_lo, d_hi = d_lo * x.den, d_hi * x.den
    # floor division by a negative divisor still floors
    return _grid((n_lo << p) // d_lo, -((-n_hi << p) // d_hi), p)


def enclose_op(op: str, args: List[RealEnclosure], precision_bits: int,
               max_bits: int = DEFAULT_MAX_PRECISION) -> RealEnclosure:
    """Apply a real builtin to enclosures, rounding outward.

    The result contains the exact mathematical value for every point
    selection from the arguments, and lies on the 2^-p grid for p =
    precision_bits.
    """
    p = precision_bits
    if p > max_bits:
        raise PrecisionOverflow(f"{p} bits exceeds the configured cap {max_bits}")
    if op == "+r":
        xl, xh, yl, yh, d = _common(*args)
        return _rounded(xl + yl, xh + yh, d, p)
    if op == "-r":
        xl, xh, yl, yh, d = _common(*args)
        return _rounded(xl - yh, xh - yl, d, p)
    if op == "*r":
        x, y = args
        xl, xh, yl, yh = x.lo_num, x.hi_num, y.lo_num, y.hi_num
        cs = (xl * yl, xl * yh, xh * yl, xh * yh)
        return _rounded(min(cs), max(cs), x.den * y.den, p)
    if op == "/r":
        x, y = args
        if y.lo_num <= 0 <= y.hi_num:
            raise DivisorStraddlesZero(f"divisor enclosure [{y.lo}, {y.hi}]")
        return _quotient(x, y, p)
    if op == "absr":
        (x,) = args
        return _rounded(*_abs(x.lo_num, x.hi_num), x.den, p)
    if op == "dr":
        xl, xh, yl, yh, d = _common(*args)
        return _rounded(*_abs(xl - yh, xh - yl), d, p)
    if op == "sinr":
        (x,) = args
        return _sin_enclosure(x, p)
    raise ValueError(f"not an enclosure operation: {op}")
