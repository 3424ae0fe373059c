"""Exact binary64 helpers: conversions, directed rounding, interval
rounding-error bounds for the lowered float ops, and a vendored
correctly-rounded sine.

Everything here is arithmetic over ints and Fractions plus IEEE
round-to-nearest-even reconstruction, so results are identical across
platforms; the machine's libm is never consulted.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Optional, Tuple

from .enclosure import PrecisionOverflow, sin_point

#: largest finite binary64 magnitude, 2^1024 - 2^971
MAXFLOAT_FRAC = Fraction((1 << 1024) - (1 << 971))
MAXFLOAT = float.fromhex("0x1.fffffffffffffp+1023")

_MIN_SUBNORMAL_EXP = -1074
_OVERFLOW_THRESHOLD = Fraction(1 << 1024) - Fraction(1 << 970)  # RNE rounds to inf from here


def float_bits(x: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", x))[0]


def to_fraction(x: float) -> Fraction:
    """The exact rational denoted by a finite binary64."""
    if not math.isfinite(x):
        raise ValueError(f"not finite: {x}")
    return Fraction(x)


def nearest_float(q: Fraction) -> float:
    """Round an arbitrary rational to binary64, ties to even."""
    if q == 0:
        return 0.0
    sign = -1.0 if q < 0 else 1.0
    a = -q if q < 0 else q
    if a >= _OVERFLOW_THRESHOLD:
        return sign * math.inf
    n, d = a.numerator, a.denominator
    # bit lengths give 2^(e-1) <= a < 2^(e+1); settle which binade
    e = n.bit_length() - d.bit_length()
    below = n < (d << e) if e >= 0 else (n << -e) < d
    if below:
        e -= 1
    # grid exponent: normals use e-52, subnormals bottom out at 2^-1074
    g = e - 52 if e - 52 > _MIN_SUBNORMAL_EXP else _MIN_SUBNORMAL_EXP
    if g >= 0:
        num, den = n, d << g
    else:
        num, den = n << -g, d
    m, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and m % 2 == 1):
        m += 1
    try:
        out = math.ldexp(float(m), g)
    except OverflowError:
        return sign * math.inf
    return sign * out


def round_down_float(q: Fraction) -> float:
    """Largest float <= q (toward -inf)."""
    f = nearest_float(q)
    if f == math.inf:
        return MAXFLOAT if q < math.inf else math.inf
    if f == -math.inf:
        return -math.inf
    if Fraction(f) > q:
        return math.nextafter(f, -math.inf)
    return f


def round_up_float(q: Fraction) -> float:
    """Smallest float >= q (toward +inf)."""
    f = nearest_float(q)
    if f == -math.inf:
        return -MAXFLOAT
    if f == math.inf:
        return math.inf
    if Fraction(f) < q:
        return math.nextafter(f, math.inf)
    return f


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

ErrIv = Tuple[Fraction, Optional[Fraction]]  # (lo, hi); hi None means infinity

_INF: ErrIv = (Fraction(0), None)


def _op_interval(op: str, xlo: Fraction, xhi: Fraction,
                 ylo: Fraction, yhi: Fraction) -> Tuple[Fraction, Fraction]:
    if op == "+":
        return xlo + ylo, xhi + yhi
    if op == "-":
        return xlo - yhi, xhi - ylo
    if op == "*":
        cs = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
        return min(cs), max(cs)
    if op == "/":
        cs = (xlo / ylo, xlo / yhi, xhi / ylo, xhi / yhi)
        return min(cs), max(cs)
    raise ValueError(op)


def float_interval_op_err(op: str,
                          xe: Tuple[Fraction, Fraction], xq: ErrIv,
                          ye: Tuple[Fraction, Fraction], yq: ErrIv) -> ErrIv:
    """Bound on |exact op - any rounded float op inside the error box|.

    Builds the exact interval of op over [xe-xq, xe+xq] x [ye-yq, ye+yq],
    rounds it outward to binary64, and measures the worst distance from
    the rounded endpoints to the exact result.  Overflow at or beyond
    MAXFLOAT, and division by an interval containing zero, give the
    infinite bound.  Inputs are enclosures, so the result is itself an
    interval containing the true bound value.
    """
    if xq[1] is None or yq[1] is None:
        return _INF
    xq_lo, xq_hi = xq[0], xq[1]
    yq_lo, yq_hi = yq[0], yq[1]

    # widest input box (outer) and the exact-result enclosure
    oxl, oxh = xe[0] - xq_hi, xe[1] + xq_hi
    oyl, oyh = ye[0] - yq_hi, ye[1] + yq_hi
    if op == "/" and oyl <= 0 <= oyh:
        return _INF
    i_lo, i_hi = _op_interval(op, oxl, oxh, oyl, oyh)
    r_lo, r_hi = _op_interval(op, xe[0], xe[1], ye[0], ye[1])

    # narrowest input box (inner), for the lower end of the bound value
    nxl, nxh = xe[1] - xq_lo, xe[0] + xq_lo
    nyl, nyh = ye[1] - yq_lo, ye[0] + yq_lo
    inner_ok = nxl <= nxh and nyl <= nyh and not (op == "/" and nyl <= 0 <= nyh)
    if inner_ok:
        j_lo, j_hi = _op_interval(op, nxl, nxh, nyl, nyh)

    # outward rounding of the interval endpoints to binary64
    out_lo_f = round_down_float(i_lo)
    out_hi_f = round_up_float(i_hi)
    if (math.isinf(out_lo_f) or math.isinf(out_hi_f)
            or abs(out_lo_f) >= MAXFLOAT or abs(out_hi_f) >= MAXFLOAT):
        return _INF

    a, b = Fraction(out_lo_f), Fraction(out_hi_f)
    hi = max(r_hi - a, b - r_lo)

    if inner_ok:
        in_lo_f = round_down_float(j_lo)
        in_hi_f = round_up_float(j_hi)
        if in_lo_f == out_lo_f and in_hi_f == out_hi_f:
            # the rounded interval is determinate; the bound value only
            # varies with the exact-result enclosure
            mid = (a + b) / 2
            if r_lo <= mid <= r_hi:
                lo = (b - a) / 2
            else:
                lo = min(max(r_lo - a, b - r_lo), max(r_hi - a, b - r_hi))
            return (max(Fraction(0), min(lo, hi)), hi)
        # indeterminate rounding: any realized rounded interval still
        # spans the inner floats, giving a half-width floor
        c, d = Fraction(max(in_lo_f, out_lo_f)), Fraction(min(in_hi_f, out_hi_f))
        lo = (d - c) / 2 if c <= d else Fraction(0)
        return (max(Fraction(0), min(lo, hi)), hi)
    return (Fraction(0), hi)
