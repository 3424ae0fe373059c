import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from approxc.enclosure import (
    _PI_BITS, DivisorStraddlesZero, PrecisionOverflow, RealEnclosure, Tern,
    _pi_scaled, _reduce_arg, _sin_taylor_interval, compare_leq, enclose_op,
    from_rational, pi_bounds, sin_point,
)
from approxc.sampling import sample_real_fraction, trial_rng


def _pt(q, p=64):
    return from_rational(Fraction(q), p)


# ---------------------------------------------------------------------------
# the Fraction enclosure code the integer enclosures replaced, kept
# verbatim as the reference they must reproduce

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


def _fraction_from_rational(q: Fraction, p: int) -> RealEnclosure:
    return RealEnclosure(rd_down(q, p), rd_up(q, p), p)


def _fraction_enclose_op(op, args, precision_bits, max_bits=4096):
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
    raise ValueError(f"not an enclosure operation: {op}")


def _fraction_compare_leq(a, b):
    if a.hi <= b.lo:
        return Tern.YES
    if b.hi < a.lo:
        return Tern.NO
    return Tern.UNKNOWN


def test_outward_rounding():
    q = Fraction(1, 3)
    out = from_rational(q, 8)
    assert out.lo <= q <= out.hi
    assert out.width <= Fraction(1, 256)
    out = from_rational(Fraction(1, 4), 8)
    assert out.lo == out.hi == Fraction(1, 4)


@given(st.sampled_from([1, 53, 128, 4096]), st.booleans(),
       st.integers(-2**300, 2**300),
       st.integers(-2, 2) | st.integers(-4096, 100), st.integers(1, 2**80))
def test_rounding_matches_floor_and_ceil(p, dyadic, n, shift, den):
    # a dyadic with denominator 2^(p + shift), or any rational; values
    # already on the 2^-p grid come back unchanged, the value the floor and
    # ceiling formula gives
    q = (Fraction(2 * n + 1, 1 << max(0, p + shift)) if dyadic
         else Fraction(n, den))
    scale = 1 << p
    out = from_rational(q, p)
    assert out.lo == Fraction(math.floor(q * scale), scale)
    assert out.hi == Fraction(math.ceil(q * scale), scale)
    assert out == _fraction_from_rational(q, p)


def test_exact_integer_addition():
    out = enclose_op("+r", [_pt(1, 53), _pt(2, 53)], 53)
    assert out.lo == out.hi == 3


def test_sin_of_zero_is_zero():
    out = enclose_op("sinr", [_pt(0)], 64)
    assert out.lo == out.hi == 0


def test_sin_point_width_contract():
    out = sin_point(Fraction(1, 10), 80)
    assert out.width <= Fraction(1, 2**80)
    # Taylor reference with explicit remainder, computed independently
    x = Fraction(1, 10)
    s = x - x**3 / 6 + x**5 / 120 - x**7 / 5040
    rem = x**9 / 362880
    assert s - rem <= out.lo <= out.hi <= s + rem


def test_compare_leq():
    assert compare_leq(_pt(1), _pt(2)) is Tern.YES
    assert compare_leq(_pt(2), _pt(1)) is Tern.NO
    a = RealEnclosure(Fraction(0), Fraction(1, 2), 8)
    b = RealEnclosure(Fraction(1, 4), Fraction(3, 4), 8)
    assert compare_leq(a, b) is Tern.UNKNOWN


def test_divisor_straddles_zero():
    with pytest.raises(DivisorStraddlesZero):
        enclose_op("/r", [_pt(1), RealEnclosure(Fraction(-1), Fraction(1), 64)], 64)


def test_precision_cap():
    with pytest.raises(PrecisionOverflow):
        enclose_op("+r", [_pt(1), _pt(2)], 8192, max_bits=4096)


def test_rational_brute_force_soundness():
    """For ops closed on rationals the exact result lies inside."""
    grid = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    for x in grid:
        for y in grid:
            ex, ey = _pt(x, 48), _pt(y, 48)
            for op, f in (("+r", lambda a, b: a + b),
                          ("-r", lambda a, b: a - b),
                          ("*r", lambda a, b: a * b)):
                out = enclose_op(op, [ex, ey], 48)
                assert out.lo <= f(x, y) <= out.hi, (op, x, y)
            if y != 0:
                out = enclose_op("/r", [ex, ey], 48)
                assert out.lo <= x / y <= out.hi
            out = enclose_op("dr", [ex, ey], 48)
            assert out.lo <= abs(x - y) <= out.hi


def test_sin_against_reference_on_samples():
    """1000 sampled points against an independent 200-bit evaluation."""
    rng = trial_rng(7, 0)
    with mpmath.workprec(200):
        for i in range(1000):
            x = sample_real_fraction(rng)
            out = sin_point(x, 96)
            ref = mpmath.sin(mpmath.mpf(x.numerator) / x.denominator)
            lo = mpmath.mpf(out.lo.numerator) / out.lo.denominator
            hi = mpmath.mpf(out.hi.numerator) / out.hi.denominator
            assert lo <= ref <= hi, x


def test_nesting_property():
    rng = trial_rng(9, 0)
    for _ in range(60):
        x = sample_real_fraction(rng)
        y = sample_real_fraction(rng)
        ex, ey = _pt(x, 64), _pt(y, 64)
        for op, args in (("+r", [ex, ey]), ("*r", [ex, ey]),
                         ("sinr", [ex]), ("absr", [ex]), ("dr", [ex, ey])):
            lo_p = enclose_op(op, args, 64)
            hi_p = enclose_op(op, args, 128)
            assert lo_p.lo <= hi_p.lo and hi_p.hi <= lo_p.hi, (op, x, y)


def test_sin_interval_covers_extrema():
    # [1, 2] contains pi/2, so the enclosure must reach 1
    out = enclose_op("sinr", [RealEnclosure(Fraction(1), Fraction(2), 64)], 64)
    assert out.hi >= 1
    assert out.lo <= Fraction(8415, 10000)  # sin(1) = 0.84147...
    # [3, 5] contains 3pi/2 where sine is -1
    out = enclose_op("sinr", [RealEnclosure(Fraction(3), Fraction(5), 64)], 64)
    assert out.lo <= -1


def test_pi_bounds_tight_and_correct():
    lo, hi = pi_bounds()
    with mpmath.workprec(5600):
        p = +mpmath.pi
        sign, man, exp, _ = p._mpf_
        pi_ref = Fraction(-man if sign else man) * Fraction(2) ** exp
    assert lo < pi_ref < hi
    assert hi - lo < Fraction(1, 2**5300)


def test_monotone_width_shrink():
    x = from_rational(Fraction(1, 7), 40)
    w_prev = None
    for p in (40, 80, 160, 320):
        out = enclose_op("sinr", [from_rational(Fraction(1, 7), p)], p)
        if w_prev is not None:
            assert out.width <= w_prev
        w_prev = out.width


# ---------------------------------------------------------------------------
# the integer enclosure ops against the Fraction ops they replaced

_OP_PRECISIONS = [1, 53, 128, 4096]
_values = (st.integers(-2**300, 2**300).map(Fraction)
           | st.builds(Fraction, st.integers(-10**6, 10**6),
                       st.sampled_from([1, 3, 10, 1 << 60, 3 << 200]))
           | st.builds(lambda n, k: Fraction(n, 1 << k),
                       st.integers(-2**80, 2**80), st.integers(0, 4200)))


@st.composite
def _operands(draw, p):
    """An enclosure as the oracle makes it, at p or at another precision,
    or one built from arbitrary rationals: off its grid or non-dyadic; a
    point or an interval."""
    px = draw(st.sampled_from([p] + _OP_PRECISIONS))
    lo = draw(_values)
    hi = lo if draw(st.booleans()) else lo + abs(draw(_values))
    if draw(st.booleans()):
        return RealEnclosure(rd_down(lo, px), rd_up(hi, px), px)
    return RealEnclosure(lo, hi, px)


def _result(fn, *args):
    try:
        return fn(*args)
    except (DivisorStraddlesZero, PrecisionOverflow) as ex:
        return type(ex).__name__, str(ex)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_OP_PRECISIONS),
       st.sampled_from(["+r", "-r", "*r", "/r", "absr", "dr"]), st.data())
def test_integer_ops_match_fraction_ops(p, op, data):
    x, y = data.draw(_operands(p)), data.draw(_operands(p))
    args = [x] if op == "absr" else [x, y]
    got = _result(enclose_op, op, args, p)
    assert got == _result(_fraction_enclose_op, op, args, p)
    assert compare_leq(x, y) is _fraction_compare_leq(x, y)
    q = x.lo
    assert from_rational(q, p) == _fraction_from_rational(q, p)
    # every enclosure the oracle returns lies on its 2^-p grid
    for out in (got, from_rational(q, p)):
        assert type(out) is tuple or out.den == 1 << p


def test_enclosures_are_equal_and_hashed_by_value():
    a = from_rational(Fraction(1, 3), 64)
    b = RealEnclosure(a.lo, a.hi, 64)
    assert a == b and hash(a) == hash(b)
    # one value made at two precisions, or off the grid, is two enclosures
    assert from_rational(Fraction(1, 4), 64) != from_rational(Fraction(1, 4), 128)
    c = RealEnclosure(Fraction(1, 3), Fraction(1, 2), 64)
    assert c.den == 6 and c == RealEnclosure(Fraction(2, 6), Fraction(1, 2), 64)
    assert repr(c) == ("RealEnclosure(lo=Fraction(1, 3), hi=Fraction(1, 2), "
                       "precision_bits=64)")
    with pytest.raises(ValueError):
        RealEnclosure(Fraction(1), Fraction(0), 64)


# ---------------------------------------------------------------------------
# the integer Taylor kernel against the Fraction kernel it replaced

def _fraction_sin_taylor_interval(mlo, mhi, p):
    """The Fraction implementation of _sin_taylor_interval, kept verbatim
    as the reference the integer kernel must reproduce bit for bit."""
    w = p + 16
    mlo, mhi = rd_down(mlo, w), rd_up(mhi, w)
    cands = (mlo * mlo, mlo * mhi, mhi * mhi)
    m2lo = rd_down(max(Fraction(0), min(cands)), w)
    m2hi = rd_up(max(cands), w)
    t_lo, t_hi = mlo, mhi
    s_lo = s_hi = Fraction(0)
    thresh = Fraction(1, 1 << (p + 8))
    j = 0
    while True:
        s_lo = rd_down(s_lo + t_lo, w)
        s_hi = rd_up(s_hi + t_hi, w)
        c = (2 * j + 2) * (2 * j + 3)
        prods = (t_lo * m2lo, t_lo * m2hi, t_hi * m2lo, t_hi * m2hi)
        n_lo, n_hi = min(prods), max(prods)
        # next term is -T_j * M2 / c
        t_lo = rd_down(-n_hi / c, w)
        t_hi = rd_up(-n_lo / c, w)
        j += 1
        if max(abs(t_lo), abs(t_hi)) <= thresh:
            break
        if j > 10000:
            raise PrecisionOverflow("sine series failed to converge")
    rho = m2hi / Fraction((2 * j + 2) * (2 * j + 3))
    if rho >= 1:
        raise PrecisionOverflow("sine argument too large after reduction")
    tail = 2 * max(abs(t_lo), abs(t_hi)) / (1 - rho)
    lo = max(Fraction(-1), s_lo - tail)
    hi = min(Fraction(1), s_hi + tail)
    return rd_down(lo, p), rd_up(hi, p)


_CAP = Fraction(33, 10)
_in_cap = (st.fractions(-_CAP, _CAP, max_denominator=10**40)
           | st.integers(0, 4200).flatmap(
               lambda k: st.integers(-(33 << k) // 10, (33 << k) // 10).map(
                   lambda n: Fraction(n, 1 << k))))
_widths = (st.integers(1, 4200).map(lambda k: Fraction(1, 1 << k))
           | st.fractions(Fraction(0), Fraction(1, 100), max_denominator=10**12))


@st.composite
def _kernel_args(draw):
    """(lo, hi, den, p), where [lo/den, hi/den] is what sin_point hands
    the kernel: a point, a narrow interval, or the reduction of a
    binary64-sized argument; the numerators need not be reduced."""
    kind = draw(st.sampled_from(["point", "interval", "reduced"]))
    p = draw(st.sampled_from([1, 2, 53, 80, 96, 128, 130, 256, 1024, 4096]))
    if kind == "point":
        m = draw(_in_cap)
        return m.numerator, m.numerator, m.denominator, p
    if kind == "interval":
        w = draw(_widths)
        lo = min(draw(_in_cap), _CAP - w)
        hi = lo + w
        return (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                lo.denominator * hi.denominator, p)
    x = Fraction(draw(st.integers(1, 1 << 53))) * Fraction(2) ** draw(
        st.integers(-50, 970))
    x = x if draw(st.booleans()) else -x
    assume(abs(x) > _CAP)
    return (*_reduce_arg(x.numerator, x.denominator, p), p)


def _taylor_fractions(lo, hi, den, p):
    """_sin_taylor_interval's numerators over 2^p, as Fractions."""
    return tuple(Fraction(n, 1 << p) for n in _sin_taylor_interval(lo, hi, den, p))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionOverflow as ex:
        return str(ex)


@settings(max_examples=200, deadline=None)
@given(_kernel_args())
def test_integer_kernel_matches_fraction_kernel(args):
    lo, hi, den, p = args
    assert (_outcome(_taylor_fractions, lo, hi, den, p)
            == _outcome(_fraction_sin_taylor_interval,
                        Fraction(lo, den), Fraction(hi, den), p))


# ---------------------------------------------------------------------------
# the integer reduction, finish and extremum scan against the Fraction
# code they replaced

def _fraction_reduce_arg(r, p):
    """The Fraction implementation of _reduce_arg, kept verbatim."""
    pi_lo, pi_hi = pi_bounds()
    tpi_lo, tpi_hi = 2 * pi_lo, 2 * pi_hi
    # nearest integer to r / 2pi, using the midpoint of the pi bounds
    q = r / ((tpi_lo + tpi_hi) / 2)
    n = (q.numerator * 2 + q.denominator) // (2 * q.denominator)
    if n.bit_length() + p + 16 > _PI_BITS:
        raise PrecisionOverflow(
            f"argument too large for sine reduction at {p} bits")
    for _ in range(8):
        if n >= 0:
            lo, hi = r - n * tpi_hi, r - n * tpi_lo
        else:
            lo, hi = r - n * tpi_lo, r - n * tpi_hi
        if hi > _CAP:
            n += 1
        elif lo < -_CAP:
            n -= 1
        else:
            return lo, hi
    raise PrecisionOverflow("sine argument reduction failed")


def _fraction_finish_sin_taylor_interval(mlo, mhi, p):
    """_sin_taylor_interval as it was with its remainder, clamp and final
    rounding on Fractions, kept verbatim.  It runs the same integer series
    as the kernel, so unlike _fraction_sin_taylor_interval it is fast
    enough at 4096 bits for an end-to-end reference."""
    w = p + 16
    # M = m * 2^w, rounded outward
    m_lo = (mlo.numerator << w) // mlo.denominator
    m_hi = -((-mhi.numerator << w) // mhi.denominator)
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
    one = 1 << w
    rho = Fraction(m2_hi, one) / Fraction((2 * j + 2) * (2 * j + 3))
    if rho >= 1:
        raise PrecisionOverflow("sine argument too large after reduction")
    tail = 2 * Fraction(max(abs(t_lo), abs(t_hi)), one) / (1 - rho)
    lo = max(Fraction(-1), Fraction(s_lo, one) - tail)
    hi = min(Fraction(1), Fraction(s_hi, one) + tail)
    return rd_down(lo, p), rd_up(hi, p)


def _fraction_sin_point(r, p):
    """sin_point as it was on the Fraction reduction and finish."""
    if r == 0:
        return RealEnclosure(Fraction(0), Fraction(0), p)
    if abs(r) <= _CAP:
        lo, hi = _fraction_finish_sin_taylor_interval(r, r, p)
    else:
        a, b = _fraction_reduce_arg(r, p)
        lo, hi = _fraction_finish_sin_taylor_interval(a, b, p)
    return RealEnclosure(lo, hi, p)


def _fraction_sin_enclosure(x, p):
    """The Fraction implementation of _sin_enclosure, kept verbatim."""
    if x.width >= 7:  # wider than a full period
        return RealEnclosure(Fraction(-1), Fraction(1), p)
    s1 = _fraction_sin_point(x.lo, p + 2)
    s2 = s1 if x.lo == x.hi else _fraction_sin_point(x.hi, p + 2)
    lo = min(s1.lo, s2.lo)
    hi = max(s1.hi, s2.hi)
    # account for interior extrema at (2k+1) * pi/2
    pi_lo, pi_hi = pi_bounds()
    k_min = math.floor((2 * x.lo / pi_hi - 1) / 2) - 1
    k_max = math.floor((2 * x.hi / pi_lo - 1) / 2) + 1
    for k in range(k_min, k_max + 1):
        m = 2 * k + 1
        if m >= 0:
            c_lo, c_hi = m * pi_lo / 2, m * pi_hi / 2
        else:
            c_lo, c_hi = m * pi_hi / 2, m * pi_lo / 2
        if c_hi >= x.lo and c_lo <= x.hi:  # extremum possibly inside
            if k % 2 == 0:
                hi = Fraction(1)
            else:
                lo = Fraction(-1)
    lo = max(lo, Fraction(-1))
    hi = min(hi, Fraction(1))
    return RealEnclosure(rd_down(lo, p), rd_up(hi, p), p)


@st.composite
def _sine_args(draw):
    """(lo, hi, p): a point or an interval within +-3.3, a non-dyadic
    rational, a binary64-sized value up to 2^1023 or one too large to
    reduce at 4096 bits, or an interval with an end at, or within 2^-60
    or 2^-5300 of, an enclosure end of (2k+1)*pi/2; the interval may span
    more than a period."""
    kind = draw(st.sampled_from(
        ["cap", "rational", "binary64", "huge", "extremum"]))
    p = draw(st.sampled_from([1, 2, 53, 128, 130, 256, 4096]))
    w = draw(st.just(Fraction(0)) | _widths
             | st.fractions(Fraction(0), Fraction(8), max_denominator=1000))
    if kind == "cap":
        x = draw(_in_cap)
    elif kind == "rational":
        x = draw(st.fractions(-10**6, 10**6, max_denominator=10**30))
    elif kind in ("binary64", "huge"):
        e = (st.integers(-50, 970) if kind == "binary64"
             else st.integers(1270, 1400))
        x = draw(st.sampled_from([-1, 1])) * Fraction(
            draw(st.integers(1, 1 << 53))) * Fraction(2) ** draw(e)
    else:
        m = 2 * draw(st.integers(-40, 40)) + 1
        x = m * draw(st.sampled_from(pi_bounds())) / 2 + draw(
            st.sampled_from([0, 1, -1])) * draw(
                st.sampled_from([Fraction(1, 1 << 60), Fraction(1, 1 << 5300)]))
        if draw(st.booleans()):  # the upper end lies there instead
            x -= w
    return x, x + w, p


@settings(max_examples=200, deadline=None)
@given(_sine_args())
def test_integer_sine_matches_fraction_sine(args):
    lo, hi, p = args
    point = _outcome(sin_point, lo, p)
    assert point == _outcome(_fraction_sin_point, lo, p)
    x = RealEnclosure(lo, hi, p)
    out = _outcome(enclose_op, "sinr", [x], p)
    assert out == _outcome(_fraction_sin_enclosure, x, p)
    # both lie on the 2^-p grid
    assert all(type(e) is str or e.den == 1 << p for e in (point, out))


def _margin_sin_enclosure(x, p):
    """_sin_enclosure as it was with a candidate of margin below k_min,
    kept verbatim."""
    if x.width >= 7:  # wider than a full period
        return RealEnclosure(Fraction(-1), Fraction(1), p)
    s1 = sin_point(x.lo, p + 2)
    s2 = s1 if x.lo == x.hi else sin_point(x.hi, p + 2)
    lo = min(s1.lo, s2.lo)
    hi = max(s1.hi, s2.hi)
    pi_lo, pi_hi = _pi_scaled()
    a, b = x.lo.numerator, x.lo.denominator
    c, d = x.hi.numerator, x.hi.denominator
    xa, xc = a << (_PI_BITS + 1), c << (_PI_BITS + 1)
    k_min = (xa - b * pi_hi) // (2 * b * pi_hi) - 1
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


@st.composite
def _near_extrema(draw):
    """(lo, hi, p): an interval with one end or both within 2^-60 of an
    enclosure end of (2k+1)*pi/2, for k from -40 to 40."""
    def near(k):
        m = 2 * k + 1
        return m * draw(st.sampled_from(pi_bounds())) / 2 + draw(
            st.integers(-4, 4)) * Fraction(1, 1 << 62)
    k = draw(st.integers(-40, 40))
    lo = near(k)
    hi = draw(st.one_of(st.just(lo), _widths.map(lambda w: lo + w),
                        st.integers(0, 2).map(lambda dk: near(k + dk))))
    if draw(st.booleans()):  # the upper end lies there instead
        lo, hi = 2 * lo - hi, lo
    lo, hi = min(lo, hi), max(lo, hi)
    return lo, hi, draw(st.sampled_from([2, 53, 128, 1024]))


@settings(max_examples=200, deadline=None)
@given(_near_extrema())
def test_sine_scan_needs_no_margin_below_k_min(args):
    lo, hi, p = args
    x = RealEnclosure(lo, hi, p)
    assert (_outcome(enclose_op, "sinr", [x], p)
            == _outcome(_margin_sin_enclosure, x, p))
