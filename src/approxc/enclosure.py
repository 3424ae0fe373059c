"""Arbitrary-precision dyadic interval arithmetic.

The computable stand-in for exact real evaluation: every operation
returns an enclosure guaranteed to contain the mathematical result for
any point selection from its argument enclosures.  Endpoints are dyadic
rationals, rounded outward at the requested precision.

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
from dataclasses import dataclass
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


def _on_grid(x: Fraction, p: int) -> bool:
    """Is x a multiple of 2^-p, so that rounding at p bits keeps it?"""
    d = x.denominator
    return d & (d - 1) == 0 and d.bit_length() <= p + 1


def rd_down(x: Fraction, p: int) -> Fraction:
    if _on_grid(x, p):
        return x
    s = x * (1 << p)
    return Fraction(s.numerator // s.denominator, 1 << p)


def rd_up(x: Fraction, p: int) -> Fraction:
    if _on_grid(x, p):
        return x
    s = x * (1 << p)
    return Fraction(-((-s.numerator) // s.denominator), 1 << p)


@dataclass(frozen=True)
class RealEnclosure:
    lo: Fraction
    hi: Fraction
    precision_bits: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi


def from_rational(q: Fraction, p: int) -> RealEnclosure:
    return RealEnclosure(rd_down(q, p), rd_up(q, p), p)


def compare_leq(a: RealEnclosure, b: RealEnclosure) -> Tern:
    """Is a <= b?  Unknown when the enclosures overlap."""
    if a.hi <= b.lo:
        return Tern.YES
    if b.hi < a.lo:
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


def _sin_taylor_interval(lo: int, hi: int, den: int, p: int) -> Tuple[Fraction, Fraction]:
    """Taylor sum of sin over [lo/den, hi/den], a narrow interval within
    +-3.3, for integers lo <= hi and den > 0 (not necessarily reduced).

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
    return Fraction(lo_p, one), Fraction(hi_p, one)


def _reduce_arg(r: Fraction, p: int) -> Tuple[int, int, int]:
    """Exact interval for r - n*2pi with n chosen so |result| <= 3.3, as
    numerators lo, hi over the common denominator b * 2^5376, r = a/b."""
    pi_lo, pi_hi = _pi_scaled()
    a, b = r.numerator, r.denominator
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


def sin_point(r: Fraction, p: int) -> RealEnclosure:
    """Rigorous enclosure of sin(r) for an exact rational r."""
    if r == 0:
        return RealEnclosure(Fraction(0), Fraction(0), p)
    a, b = r.numerator, r.denominator
    if _CAP_DEN * abs(a) <= _CAP_NUM * b:
        lo, hi = _sin_taylor_interval(a, a, b, p)
    else:
        lo, hi = _sin_taylor_interval(*_reduce_arg(r, p), p)
    return RealEnclosure(lo, hi, p)


def _sin_enclosure(x: RealEnclosure, p: int) -> RealEnclosure:
    if x.width >= 7:  # wider than a full period
        return RealEnclosure(Fraction(-1), Fraction(1), p)
    s1 = sin_point(x.lo, p + 2)
    s2 = s1 if x.lo == x.hi else sin_point(x.hi, p + 2)
    lo = min(s1.lo, s2.lo)
    hi = max(s1.hi, s2.hi)
    # account for interior extrema at (2k+1) * pi/2, comparing every value
    # scaled by 2^5377 * b (x.lo = a/b) or 2^5377 * d (x.hi = c/d)
    pi_lo, pi_hi = _pi_scaled()
    a, b = x.lo.numerator, x.lo.denominator
    c, d = x.hi.numerator, x.hi.denominator
    xa, xc = a << (_PI_BITS + 1), c << (_PI_BITS + 1)
    # floor((2x/pi - 1) / 2) at each end, pi_hi at x.lo and pi_lo at x.hi.
    # That at x.lo is at most the first k the test admits: the quotients
    # differ by less than 1 for any x sin_point reduces.  At x.hi < 0 the
    # test uses m * pi_hi, which the floor at pi_lo can miss by one.
    k_min = (xa - b * pi_hi) // (2 * b * pi_hi)
    k_max = (xc - d * pi_lo) // (2 * d * pi_lo) + 1
    for k in range(k_min, k_max + 1):
        m = 2 * k + 1
        if m >= 0:
            c_lo, c_hi = m * pi_lo, m * pi_hi
        else:
            c_lo, c_hi = m * pi_hi, m * pi_lo
        if c_hi * b >= xa and c_lo * d <= xc:  # extremum possibly inside
            if k % 2 == 0:
                hi = Fraction(1)
            else:
                lo = Fraction(-1)
    lo = max(lo, Fraction(-1))
    hi = min(hi, Fraction(1))
    return RealEnclosure(rd_down(lo, p), rd_up(hi, p), p)


# ---------------------------------------------------------------------------
# operation dispatch

def enclose_op(op: str, args: List[RealEnclosure], precision_bits: int,
               max_bits: int = DEFAULT_MAX_PRECISION) -> RealEnclosure:
    """Apply a real builtin to enclosures, rounding outward.

    The result contains the exact mathematical value for every point
    selection from the arguments.
    """
    p = precision_bits
    if p > max_bits:
        raise PrecisionOverflow(f"{p} bits exceeds the configured cap {max_bits}")
    if op == "+r":
        x, y = args
        return RealEnclosure(rd_down(x.lo + y.lo, p), rd_up(x.hi + y.hi, p), p)
    if op == "-r":
        x, y = args
        return RealEnclosure(rd_down(x.lo - y.hi, p), rd_up(x.hi - y.lo, p), p)
    if op == "*r":
        x, y = args
        cs = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
        return RealEnclosure(rd_down(min(cs), p), rd_up(max(cs), p), p)
    if op == "/r":
        x, y = args
        if y.lo <= 0 <= y.hi:
            raise DivisorStraddlesZero(f"divisor enclosure [{y.lo}, {y.hi}]")
        cs = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
        return RealEnclosure(rd_down(min(cs), p), rd_up(max(cs), p), p)
    if op == "absr":
        (x,) = args
        if x.lo >= 0:
            lo, hi = x.lo, x.hi
        elif x.hi <= 0:
            lo, hi = -x.hi, -x.lo
        else:
            lo, hi = Fraction(0), max(-x.lo, x.hi)
        return RealEnclosure(rd_down(lo, p), rd_up(hi, p), p)
    if op == "dr":
        x, y = args
        d_lo, d_hi = x.lo - y.hi, x.hi - y.lo
        if d_lo >= 0:
            lo, hi = d_lo, d_hi
        elif d_hi <= 0:
            lo, hi = -d_hi, -d_lo
        else:
            lo, hi = Fraction(0), max(-d_lo, d_hi)
        return RealEnclosure(rd_down(lo, p), rd_up(hi, p), p)
    if op == "sinr":
        (x,) = args
        return _sin_enclosure(x, p)
    raise ValueError(f"not an enclosure operation: {op}")
