"""Exact binary64 helpers: conversions, directed rounding, interval
rounding-error bounds for the lowered float ops, and a vendored
correctly-rounded sine.

Everything here is exact arithmetic over ints and Fractions, so results
are identical across platforms; the machine's libm is never consulted.
Rounding to binary64 is CPython's int true division and int-to-float
conversion, both correctly rounded to nearest-even, and the rounding-error
bound runs on integer numerators: it reads the enclosures' and the input
errors' numerators as they are, and returns its bound as numerators too.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Optional, Tuple

from .enclosure import PrecisionOverflow, RealEnclosure, sin_point

#: largest finite binary64 magnitude, 2^1024 - 2^971
MAXFLOAT_FRAC = Fraction((1 << 1024) - (1 << 971))
MAXFLOAT = float.fromhex("0x1.fffffffffffffp+1023")


def float_bits(x: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", x))[0]


def to_fraction(x: float) -> Fraction:
    """The exact rational denoted by a finite binary64."""
    if not math.isfinite(x):
        raise ValueError(f"not finite: {x}")
    return Fraction(x)


def nearest_float(q: Fraction) -> float:
    """Round an arbitrary rational to binary64, ties to even."""
    return _nearest(q.numerator, q.denominator)


def _nearest(n: int, d: int) -> float:
    # CPython's int true division is correctly rounded, ties to even and
    # subnormals included; it raises where the rounded value overflows
    try:
        return n / d
    except OverflowError:
        return -math.inf if n < 0 else math.inf


def round_down_float(q: Fraction) -> float:
    """Largest float <= q (toward -inf)."""
    return _round_down(q.numerator, q.denominator)


def round_up_float(q: Fraction) -> float:
    """Smallest float >= q (toward +inf)."""
    return _round_up(q.numerator, q.denominator)


def _round_down(n: int, d: int) -> float:
    # largest float <= n/d, for d > 0
    f = _nearest(n, d)
    if math.isinf(f):
        return MAXFLOAT if f > 0 else f
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, -math.inf) if fn * d > n * fd else f


def _round_up(n: int, d: int) -> float:
    # smallest float >= n/d, for d > 0
    f = _nearest(n, d)
    if math.isinf(f):
        return -MAXFLOAT if f < 0 else f
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if fn * d < n * fd else f


def ieee_div(x: float, y: float) -> float:
    """Binary64 division with IEEE zero/inf semantics (Python raises)."""
    if math.isnan(x) or math.isnan(y):
        return math.nan
    if y == 0.0:
        if x == 0.0:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)
    if math.isinf(x) and math.isinf(y):
        return math.nan
    try:
        return x / y
    except OverflowError:
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


# ---------------------------------------------------------------------------
# correctly rounded sine

_SIN_START_BITS = 80
_SIN_MAX_BITS = 2048


def sin_f64(x: float) -> float:
    """sin on binary64, correctly rounded to nearest-even.

    Evaluates a rigorous enclosure of sin at the exact rational value of
    x and widens the precision until both endpoints round to the same
    float.  sin of a nonzero rational is irrational, so the loop
    terminates; in practice well under 200 bits suffice.
    """
    if math.isnan(x) or math.isinf(x):
        return math.nan
    if x == 0.0:
        return x  # preserves the sign of zero
    q = Fraction(x)
    p = _SIN_START_BITS
    while p <= _SIN_MAX_BITS:
        try:
            enc = sin_point(q, p)
        except PrecisionOverflow:
            break
        lo_f = nearest_float(enc.lo)
        hi_f = nearest_float(enc.hi)
        if lo_f == hi_f:
            return lo_f
        p *= 2
    raise PrecisionOverflow(f"could not round sin({x}) correctly")


# ---------------------------------------------------------------------------
# interval rounding-error bound for the lowered binary64 ops

# [lo/den, hi/den] as (lo, hi, den), hi None for infinity; an interp.VErr
ErrIv = Tuple[Optional[int], Optional[int], int]

_UNBOUNDED: ErrIv = (0, None, 1)


def _op_interval(op: str, xlo: int, xhi: int, ylo: int,
                 yhi: int, den: int) -> Tuple[int, int, int]:
    """op over [xlo, xhi] x [ylo, yhi], all numerators over den > 0, as
    (lo, hi, d): numerators over one positive denominator d.  For "/" the
    y interval must exclude zero."""
    if op == "+":
        return xlo + ylo, xhi + yhi, den
    if op == "-":
        return xlo - yhi, xhi - ylo, den
    if op == "*":
        cs = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
        return min(cs), max(cs), den * den
    if op == "/":
        # x/ylo = x*yhi/(ylo*yhi), and ylo*yhi > 0 as ylo, yhi share a sign
        cs = (xlo * yhi, xlo * ylo, xhi * yhi, xhi * ylo)
        return min(cs), max(cs), ylo * yhi
    raise ValueError(op)


def float_interval_op_err(op: str, xe: RealEnclosure, xq: ErrIv,
                          ye: RealEnclosure, yq: ErrIv) -> ErrIv:
    """Bound on |exact op - any rounded float op inside the error box|.

    Builds the exact interval of op over [xe-xq, xe+xq] x [ye-yq, ye+yq],
    rounds it outward to binary64, and measures the worst distance from
    the rounded endpoints to the exact result.  Overflow at or beyond
    MAXFLOAT, and division by an interval containing zero, give the
    infinite bound, (0, None, 1).  Inputs are enclosures, so the result is
    itself an interval containing the true bound value.

    The rule runs on integers: the enclosures' and the errors' numerators
    are read over their least common denominator, and the bound is
    returned as numerators over one positive denominator, not in lowest
    terms.
    """
    xq_lo, xq_hi, xq_d = xq
    yq_lo, yq_hi, yq_d = yq
    if xq_hi is None or yq_hi is None:
        return _UNBOUNDED
    # the errors' denominators are usually small and the enclosures' one
    # power of two, so each lcm is taken only where it changes the result
    xd, yd = xe.den, ye.den
    den = xd if xd == yd else math.lcm(xd, yd)
    q_den = xq_d if xq_d == yq_d else math.lcm(xq_d, yq_d)
    if den % q_den:
        den = math.lcm(den, q_den)
    xs, ys = den // xq_d, den // yq_d
    xq_lo, xq_hi, yq_lo, yq_hi = xq_lo * xs, xq_hi * xs, yq_lo * ys, yq_hi * ys
    xs, ys = den // xd, den // yd
    xl, xh = xe.lo_num * xs, xe.hi_num * xs
    yl, yh = ye.lo_num * ys, ye.hi_num * ys

    # widest input box (outer) and the exact-result enclosure
    oxl, oxh, oyl, oyh = xl - xq_hi, xh + xq_hi, yl - yq_hi, yh + yq_hi
    if op == "/" and oyl <= 0 <= oyh:
        return _UNBOUNDED
    i_lo, i_hi, i_den = _op_interval(op, oxl, oxh, oyl, oyh, den)
    r_lo, r_hi, r_den = _op_interval(op, xl, xh, yl, yh, den)

    # outward rounding of the interval endpoints to binary64
    a = _round_down(i_lo, i_den)
    b = _round_up(i_hi, i_den)
    if (math.isinf(a) or math.isinf(b)
            or abs(a) >= MAXFLOAT or abs(b) >= MAXFLOAT):
        return _UNBOUNDED

    # narrowest input box (inner), for the lower end of the bound value;
    # [c, d] is the span every realized rounded interval must cover.  The
    # inner box lies in the outer one, so c == a and d == b exactly when
    # the inner interval rounds to the same floats, as it does when the
    # inner box is the outer one (point enclosures with point errors)
    nxl, nxh, nyl, nyh = xh - xq_lo, xl + xq_lo, yh - yq_lo, yl + yq_lo
    # an inner divisor box lies in the outer one, already checked for zero
    inner_ok = nxl <= nxh and nyl <= nyh
    c, d = a, b
    if inner_ok and (nxl, nxh, nyl, nyh) != (oxl, oxh, oyl, oyh):
        j_lo, j_hi, j_den = _op_interval(op, nxl, nxh, nyl, nyh, den)
        c = max(_round_down(j_lo, j_den), a)
        d = min(_round_up(j_hi, j_den), b)

    # a, b, c, d and the exact result as numerators over s, with s even
    # so that the half-widths below are exact
    fs = [f.as_integer_ratio() for f in (a, b, c, d)]
    f_den = max(fd for _, fd in fs)  # all powers of two
    s = 2 * r_den * f_den
    a, b, c, d = [fn * (s // fd) for fn, fd in fs]
    r_lo, r_hi = 2 * f_den * r_lo, 2 * f_den * r_hi

    hi = max(r_hi - a, b - r_lo)
    if not inner_ok:
        lo = 0
    elif c == a and d == b:
        # the rounded interval is determinate; the bound value only
        # varies with the exact-result enclosure
        if 2 * r_lo <= a + b <= 2 * r_hi:
            lo = (b - a) // 2
        else:
            lo = min(max(r_lo - a, b - r_lo), max(r_hi - a, b - r_hi))
    else:
        # indeterminate rounding: any realized rounded interval still
        # spans the inner floats, giving a half-width floor
        lo = (d - c) // 2 if c <= d else 0
    return max(0, min(lo, hi)), hi, s
