import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from approxc.enclosure import RealEnclosure
from approxc.floats import (
    MAXFLOAT, MAXFLOAT_FRAC, float_bits, float_interval_op_err, ieee_div,
    nearest_float, round_down_float, round_up_float, sin_f64, to_fraction,
)
from approxc.interp import VErr
from approxc.sampling import trial_rng


def _op_err(op, xe, xq, ye, yq):
    """float_interval_op_err on enclosures and errors given as (lo, hi)
    pairs of Fractions, its integer bound read back as such a pair."""
    lo, hi, s = float_interval_op_err(op, RealEnclosure(*xe, 53), VErr(*xq),
                                      RealEnclosure(*ye, 53), VErr(*yq))
    assert all(type(v) is int for v in (lo, hi, s) if v is not None)
    return Fraction(lo, s), None if hi is None else Fraction(hi, s)


def test_nearest_float_matches_division():
    # CPython's int/int division is correctly rounded; use it as the oracle
    rng = trial_rng(3, 0)
    for _ in range(2000):
        n = rng.randint(-10**15, 10**15)
        d = rng.randint(1, 10**15)
        assert nearest_float(Fraction(n, d)) == n / d


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_nearest_float_round_trip(x):
    assert nearest_float(Fraction(x)) == x


def test_known_values():
    f = nearest_float(Fraction(1, 3))
    assert float_bits(f) == 0x3FD5555555555555
    assert Fraction(1, 3) - to_fraction(f) == Fraction(1, 3 * 2**54)


def test_point_one_plus_point_two():
    got = nearest_float(Fraction(1, 10)) + nearest_float(Fraction(2, 10))
    assert float_bits(got) == 0x3FD3333333333334
    assert got == 0.30000000000000004


def test_overflow_thresholds():
    assert nearest_float(MAXFLOAT_FRAC) == MAXFLOAT
    assert nearest_float(Fraction(2**1024)) == math.inf
    assert nearest_float(-Fraction(2**1024)) == -math.inf
    # below the rounding midpoint it stays finite
    assert nearest_float(Fraction(2**1024 - 2**970) - 1) == MAXFLOAT


def test_subnormals():
    tiny = Fraction(1, 2**1074)
    assert nearest_float(tiny) == math.ldexp(1, -1074)
    assert nearest_float(tiny / 3) == 0.0


def test_directed_rounding():
    q = Fraction(1, 3)
    lo, hi = round_down_float(q), round_up_float(q)
    assert to_fraction(lo) <= q <= to_fraction(hi)
    assert math.nextafter(lo, math.inf) == hi
    # exact dyadics round to themselves both ways
    assert round_down_float(Fraction(3, 4)) == round_up_float(Fraction(3, 4)) == 0.75


def test_ieee_div():
    assert ieee_div(1.0, 0.0) == math.inf
    assert ieee_div(-1.0, 0.0) == -math.inf
    assert math.isnan(ieee_div(0.0, 0.0))
    assert ieee_div(1.0, 2.0) == 0.5


def test_sin_f64_correctly_rounded():
    rng = trial_rng(5, 0)
    xs = [rng.uniform(-10, 10) for _ in range(150)]
    xs += [0.1, -0.1, 1.0, 3.141592653589793, 1e10, -1e10, 1e300, 0.2]
    for x in xs:
        with mpmath.workprec(1200):
            ref = float(mpmath.sin(mpmath.mpf(x)))
        assert sin_f64(x) == ref, x


def test_sin_f64_special_values():
    assert sin_f64(0.0) == 0.0
    assert math.copysign(1.0, sin_f64(-0.0)) == -1.0
    assert math.isnan(sin_f64(math.nan))
    assert math.isnan(sin_f64(math.inf))


def test_interval_op_err_point_cases():
    one = (Fraction(1), Fraction(1))
    two = (Fraction(2), Fraction(2))
    z = (Fraction(0), Fraction(0))
    h = (Fraction(1, 2), Fraction(1, 2))
    # 1 + 2 with no input error: 3.0 exact, bound 0
    lo, hi = _op_err("+", one, z, two, z)
    assert lo == hi == 0
    # widen both by 1/2: interval [2, 4], all representable, max distance 1
    lo, hi = _op_err("+", one, h, two, h)
    assert lo == hi == 1


def test_interval_op_err_overflow_and_zero_divisor():
    big = (MAXFLOAT_FRAC, MAXFLOAT_FRAC)
    z = (Fraction(0), Fraction(0))
    lo, hi = _op_err("*", big, z, big, z)
    assert hi is None
    lo, hi = _op_err("/", (Fraction(1), Fraction(1)), z,
                     (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
    assert hi is None  # divisor interval [-1, 3] contains zero


# ---------------------------------------------------------------------------
# the integer rounding and error rule against the Fraction code they
# replaced, kept verbatim as references

_MIN_SUBNORMAL_EXP = -1074
_OVERFLOW_THRESHOLD = Fraction(1 << 1024) - Fraction(1 << 970)  # RNE rounds to inf from here


def _fraction_nearest_float(q: Fraction) -> float:
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


def _fraction_round_down_float(q: Fraction) -> float:
    """Largest float <= q (toward -inf)."""
    f = _fraction_nearest_float(q)
    if f == math.inf:
        return MAXFLOAT if q < math.inf else math.inf
    if f == -math.inf:
        return -math.inf
    if Fraction(f) > q:
        return math.nextafter(f, -math.inf)
    return f


def _fraction_round_up_float(q: Fraction) -> float:
    """Smallest float >= q (toward +inf)."""
    f = _fraction_nearest_float(q)
    if f == -math.inf:
        return -MAXFLOAT
    if f == math.inf:
        return math.inf
    if Fraction(f) < q:
        return math.nextafter(f, math.inf)
    return f


def _fraction_op_interval(op, xlo, xhi, ylo, yhi):
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


def _fraction_float_interval_op_err(op, xe, xq, ye, yq):
    """float_interval_op_err on Fractions, as it was."""
    if xq[1] is None or yq[1] is None:
        return (Fraction(0), None)
    xq_lo, xq_hi = xq[0], xq[1]
    yq_lo, yq_hi = yq[0], yq[1]

    # widest input box (outer) and the exact-result enclosure
    oxl, oxh = xe[0] - xq_hi, xe[1] + xq_hi
    oyl, oyh = ye[0] - yq_hi, ye[1] + yq_hi
    if op == "/" and oyl <= 0 <= oyh:
        return (Fraction(0), None)
    i_lo, i_hi = _fraction_op_interval(op, oxl, oxh, oyl, oyh)
    r_lo, r_hi = _fraction_op_interval(op, xe[0], xe[1], ye[0], ye[1])

    # narrowest input box (inner), for the lower end of the bound value
    nxl, nxh = xe[1] - xq_lo, xe[0] + xq_lo
    nyl, nyh = ye[1] - yq_lo, ye[0] + yq_lo
    inner_ok = nxl <= nxh and nyl <= nyh and not (op == "/" and nyl <= 0 <= nyh)
    if inner_ok:
        j_lo, j_hi = _fraction_op_interval(op, nxl, nxh, nyl, nyh)

    # outward rounding of the interval endpoints to binary64
    out_lo_f = _fraction_round_down_float(i_lo)
    out_hi_f = _fraction_round_up_float(i_hi)
    if (math.isinf(out_lo_f) or math.isinf(out_hi_f)
            or abs(out_lo_f) >= MAXFLOAT or abs(out_hi_f) >= MAXFLOAT):
        return (Fraction(0), None)

    a, b = Fraction(out_lo_f), Fraction(out_hi_f)
    hi = max(r_hi - a, b - r_lo)

    if inner_ok:
        in_lo_f = _fraction_round_down_float(j_lo)
        in_hi_f = _fraction_round_up_float(j_hi)
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


_RNE_TIE = Fraction(2**1024 - 2**970)  # the first value that rounds to inf


@st.composite
def _rationals(draw):
    """Dyadic, non-dyadic, binary64-valued, near-overflow and
    near-underflow rationals of either sign."""
    kind = draw(st.sampled_from(
        ["small", "dyadic", "float", "huge", "tiny", "wide"]))
    if kind == "small":
        q = Fraction(draw(st.integers(0, 1000)),
                     draw(st.sampled_from([1, 2, 3, 7, 10, 1024])))
    elif kind == "dyadic":
        q = Fraction(draw(st.integers(0, 2**70)), 2**draw(st.integers(0, 140)))
    elif kind == "float":
        q = Fraction(draw(st.floats(0, allow_infinity=False)))
    elif kind == "huge":
        q = _RNE_TIE + Fraction(draw(st.integers(-3, 3)), draw(
            st.sampled_from([1, 3, 2**969, 2**970, 2**971])))
        q = min(q, Fraction(2**1024))
    elif kind == "tiny":
        q = Fraction(draw(st.integers(0, 9)), draw(st.sampled_from(
            [2**1074, 2**1075, 3 * 2**1074, 10**324])))
    else:
        q = Fraction(draw(st.integers(0, 2**200)),
                     draw(st.integers(1, 2**200)))
    return -q if draw(st.booleans()) else q


@st.composite
def _enclosures(draw):
    """A point or a wide enclosure."""
    lo = draw(_rationals())
    if draw(st.booleans()):
        return (lo, lo)
    return (lo, lo + abs(draw(_rationals())))


@st.composite
def _errors(draw):
    """An error interval: zero, a point, a range, or unbounded above."""
    lo = abs(draw(_rationals())) if draw(st.booleans()) else Fraction(0)
    shape = draw(st.sampled_from(["point", "point", "range", "range",
                                  "range", "none"]))
    if shape == "none":
        return (lo, None)
    if shape == "point":
        return (lo, lo)
    return (lo, lo + abs(draw(_rationals())))


@st.composite
def _divisors(draw):
    """Divisor enclosures and errors whose outer box straddles zero, or
    that sit near zero without straddling it."""
    c = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 3, 8])))
    ye = (c, c + Fraction(draw(st.integers(0, 3)), 16))
    q = Fraction(draw(st.integers(0, 40)), 32)
    return ye, (q * Fraction(draw(st.integers(0, 2)), 2), q)


def _bits(f):
    return (f, math.copysign(1.0, f))


@settings(max_examples=500, deadline=None)
@given(_rationals())
def test_integer_rounding_matches_fraction_rounding(q):
    assert _bits(nearest_float(q)) == _bits(_fraction_nearest_float(q))
    assert _bits(round_down_float(q)) == _bits(_fraction_round_down_float(q))
    assert _bits(round_up_float(q)) == _bits(_fraction_round_up_float(q))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from("+-*/"), _enclosures(), _errors(),
       _enclosures(), _errors(), st.none() | _divisors())
def test_integer_op_err_matches_fraction_op_err(op, xe, xq, ye, yq, near0):
    if near0 is not None:
        ye, yq = near0
    got = _op_err(op, xe, xq, ye, yq)
    want = _fraction_float_interval_op_err(op, xe, xq, ye, yq)
    assert got == want
    assert all(type(v) is Fraction for v in got if v is not None)
