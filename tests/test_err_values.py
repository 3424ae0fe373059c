"""Error values as integer numerators, against the Fraction code they
replaced.

The `_f_*` functions below are verbatim copies of the Fraction-valued
`VErr` and error rules as they were before error values became integer
numerators over one denominator (only their names differ, and `_f_sinerr`
and `_f_n2rerr` take the operand values themselves).  Each integer rule
must give the same interval, read back as Fractions at the edge.
"""
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from approxc import families
from approxc.compiler import compile_program
from approxc.enclosure import RealEnclosure
from approxc.interp import (
    ERR_INF, EvalConfig, VErr, VNat, _n2rerr, _nat_float, _sinerr, err_add,
    err_max, err_mul, err_over, eval_error, float_op_err,
)
from approxc.parser import parse
from approxc.quant import (
    LeqVerdict, _shrink_scalar, _value_source, scalar_err_leq,
)
from approxc.syntax import (
    ERRREAL, App, Arrow, Builtin, ErrLit, Fix, FloatLit, Lam, NatLit,
    RealLit, Var,
)
from test_floats import (
    _divisors, _enclosures, _errors, _fraction_float_interval_op_err,
)

REPO = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# the Fraction code, as it was

@dataclass(frozen=True)
class _FVErr:
    """An evaluated error bound: an interval of nonnegative rationals,
    with None endpoints meaning infinity.  Point bounds have lo == hi;
    width appears when a bound expression embeds irrational reals."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def __post_init__(self):
        if self.lo is None and self.hi is not None:
            raise ValueError("infinite lower endpoint with finite upper")
        if self.lo is not None and self.lo < 0:
            raise ValueError("negative error")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("inverted error interval")

    @staticmethod
    def point(q: Optional[Fraction]) -> "_FVErr":
        return _FVErr(q, q)

    @property
    def is_infinite(self) -> bool:
        return self.lo is None


_F_ERR_INF = _FVErr(None, None)


def _f_err_add(a, b):
    if a.is_infinite or b.is_infinite:
        return _F_ERR_INF
    hi = None if (a.hi is None or b.hi is None) else a.hi + b.hi
    return _FVErr(a.lo + b.lo, hi)


def _f_err_max(a, b):
    if a.is_infinite or b.is_infinite:
        return _F_ERR_INF
    hi = None if (a.hi is None or b.hi is None) else max(a.hi, b.hi)
    return _FVErr(max(a.lo, b.lo), hi)


def _f_float_op_err(op, xe, xq, ye, yq):
    lo, hi = _fraction_float_interval_op_err(op, xe, (xq.lo, xq.hi), ye,
                                             (yq.lo, yq.hi))
    if hi is None and lo == 0:
        return _F_ERR_INF
    return _FVErr(lo, hi)


def _f_err_mul(a, b):
    # infinity absorbs, including 0 * inf: the top is always sound
    if a.is_infinite or b.is_infinite:
        return _F_ERR_INF
    hi = None if (a.hi is None or b.hi is None) else a.hi * b.hi
    return _FVErr(a.lo * b.lo, hi)


def _f_sinerr(q):
    if q.is_infinite:
        return _F_ERR_INF
    # |sin e - sin a| <= min(|e-a|, 2); the vendored sine is correctly
    # rounded, adding at most 2^-53
    ulp = Fraction(1, 1 << 53)
    lo = min(q.lo, Fraction(2)) + ulp
    hi = None if q.hi is None else min(q.hi, Fraction(2)) + ulp
    return _FVErr(lo, hi)


def _f_n2rerr(n, k):
    # worst |n - real(nat2float m)| over naturals m with |m - n| <= k;
    # float conversion is monotone, so the extremes sit at the ends
    worst = 0
    for i in (max(0, n - k), n + k):
        f = _nat_float(i)
        if math.isinf(f):
            return _F_ERR_INF
        worst = max(worst, abs(n - int(f)))
    return _FVErr.point(Fraction(worst))


def _f_scalar_err_leq(a, b):
    if b.is_infinite:
        return LeqVerdict.YES
    if a.is_infinite:
        return LeqVerdict.NO
    if a.hi is not None and b.lo is not None and a.hi <= b.lo:
        return LeqVerdict.YES
    if b.hi is not None and (a.hi is None or a.lo > b.hi):
        return LeqVerdict.NO
    return LeqVerdict.YES_ON_SAMPLES


def _ref(v: VErr) -> _FVErr:
    """The integer value read at the edge, as the reference type."""
    return _FVErr(v.lo, v.hi)


# ---------------------------------------------------------------------------
# drawn error values

_GRID_BITS = (53, 128, 4096)


def _dr(x: Fraction, y: Fraction, p: int) -> VErr:
    """The error value the dr rule gives for x and y at p bits."""
    cfg = EvalConfig(precision_bits=p, max_precision_bits=4096)
    return eval_error(Builtin("dr", (RealLit(x), RealLit(y))), cfg=cfg)


@st.composite
def _rationals(draw):
    """Nonnegative rationals over small, non-dyadic, dyadic and wide
    denominators."""
    kind = draw(st.sampled_from(["small", "third", "tenth", "dyadic", "wide"]))
    if kind == "small":
        return Fraction(draw(st.integers(0, 12)))
    if kind == "third":
        return Fraction(draw(st.integers(0, 30)), 3)
    if kind == "tenth":
        return Fraction(draw(st.integers(0, 30)), 10)
    if kind == "dyadic":
        return Fraction(draw(st.integers(0, 2**60)),
                        2**draw(st.sampled_from([0, 1, 53, 128, 4096])))
    return Fraction(draw(st.integers(0, 2**100)), draw(st.integers(1, 2**100)))


@st.composite
def _err_values(draw):
    """Infinite bounds, infinite upper ends, points, intervals with
    lo < hi, and dr results on the 2^-p grid."""
    kind = draw(st.sampled_from(["inf", "open", "point", "point", "range",
                                 "range", "dr", "dr"]))
    if kind == "inf":
        return VErr(None, None)
    if kind == "dr":
        x = draw(_rationals()) * (-1 if draw(st.booleans()) else 1)
        return _dr(x, draw(_rationals()), draw(st.sampled_from(_GRID_BITS)))
    lo = draw(_rationals())
    if kind == "open":
        return VErr(lo, None)
    if kind == "point":
        return VErr.point(lo)
    return VErr(lo, lo + draw(_rationals().filter(bool)))


@settings(max_examples=300, deadline=None)
@given(_err_values(), _err_values())
def test_error_rules_match_the_fraction_rules(a, b):
    fa, fb = _ref(a), _ref(b)
    assert _ref(err_add(a, b)) == _f_err_add(fa, fb)
    assert _ref(err_max(a, b)) == _f_err_max(fa, fb)
    assert _ref(err_mul(a, b)) == _f_err_mul(fa, fb)
    assert scalar_err_leq(a, b) is _f_scalar_err_leq(fa, fb)
    assert _ref(_sinerr(None, None, a)) == _f_sinerr(fa)


@settings(max_examples=200, deadline=None)
@given(_err_values(), _err_values())
def test_results_are_in_lowest_terms(a, b):
    for v in (a, b, err_add(a, b), err_max(a, b), err_mul(a, b),
              _sinerr(None, None, a)):
        lo, hi, den = v
        assert den > 0
        if lo is not None:
            assert math.gcd(lo, den if hi is None else math.gcd(hi, den)) == 1
        # equal values are equal tuples, so they hash alike
        assert VErr(v.lo, v.hi) == v and hash(VErr(v.lo, v.hi)) == hash(v)


# the error values above, and the (lo, hi) pairs test_floats draws
_op_errors = st.one_of(_err_values(), _errors().map(lambda q: VErr(*q)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from("+-*/"), _enclosures(), _op_errors, _enclosures(),
       _op_errors, st.none() | _divisors())
def test_float_op_err_matches_the_fraction_rule(op, xe, xq, ye, yq, near0):
    if near0 is not None:
        ye, (lo, hi) = near0
        yq = VErr(lo, hi)
    got = float_op_err(op, RealEnclosure(*xe, 53), xq, RealEnclosure(*ye, 53), yq)
    assert _ref(got) == _f_float_op_err(op, xe, _ref(xq), ye, _ref(yq))


_NAT_OVERFLOW = 2**1024 - 2**970


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 5, 2**53 - 3, 2**53, 2**53 + 1, 2**60 + 7,
                        _NAT_OVERFLOW - 3, _NAT_OVERFLOW]),
       st.integers(-4, 4), st.integers(0, 5))
def test_n2rerr_matches_the_fraction_rule(base, shift, k):
    n = max(0, base + shift)
    assert _ref(_n2rerr(None, VNat(n), VNat(k))) == _f_n2rerr(n, k)


def test_edge_constructor_validates_as_before():
    for lo, hi in [(None, Fraction(1)), (Fraction(-1), Fraction(1)),
                   (Fraction(2), Fraction(1))]:
        with pytest.raises(ValueError):
            _FVErr(lo, hi)
        with pytest.raises(ValueError):
            VErr(lo, hi)
    with pytest.raises(ValueError):
        VErr.point(Fraction(-1, 3))
    v = VErr(Fraction(1, 3), Fraction(1, 2))
    assert (v.lo, v.hi, v.is_infinite) == (Fraction(1, 3), Fraction(1, 2), False)
    assert tuple(v) == (2, 3, 6)
    assert VErr(None, None) == ERR_INF and ERR_INF.is_infinite


def test_equal_values_built_two_ways_are_one_key():
    half = VErr.point(Fraction(1, 2))
    assert err_over(2, 2, 4) == half and hash(err_over(2, 2, 4)) == hash(half)
    quarter = VErr.point(Fraction(1, 4))
    assert err_add(quarter, quarter) == half
    # a dr result on the 2^-128 grid and a literal
    dr = _dr(Fraction(3, 4), Fraction(1, 4), 128)
    lit = eval_error(ErrLit(Fraction(1, 2)))
    assert dr == lit == half and hash(dr) == hash(lit) == hash(half)


def test_a_repeated_fix_call_on_an_equal_error_hits_the_table():
    # (fix (lam (f (-> ErrReal ErrReal)) (lam (q ErrReal) (+q q q))))
    rec = Fix(Lam("f", Arrow(ERRREAL, ERRREAL),
                  Lam("q", ERRREAL, Builtin("+q", (Var("q"), Var("q"))))))
    calls = {}
    assert eval_error(App(rec, ErrLit(Fraction(1, 2))), calls=calls) \
        == VErr.point(Fraction(1))
    (key, (fn, _)), = calls.items()
    # mark the stored result: an equal argument built another way (a dr
    # on the oracle's grid) must be answered with it
    marker = VErr.point(Fraction(7))
    calls[key] = (fn, marker)
    arg = Builtin("dr", (RealLit(Fraction(3, 4)), RealLit(Fraction(1, 4))))
    assert eval_error(App(rec, arg), calls=calls) == marker
    assert len(calls) == 1


def test_error_path_builds_no_fraction(monkeypatch):
    # fix_sum's error at n = 32: every n2rerr, +err and dr runs on
    # integers, once its nodes are staged
    err = compile_program(parse((REPO / "corpus" / "fix_sum.ax").read_text())).err
    prog = App(App(err, NatLit(32)), NatLit(0))
    want = eval_error(prog)
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kw):
        built.append(args)
        return real_new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = eval_error(prog, calls={})
    monkeypatch.undo()
    assert got == want and not got.is_infinite
    assert built == []


# ---------------------------------------------------------------------------
# the reports, pinned

TRIAL_RECORDS = REPO / "tests" / "golden" / "trial_records.jsonl"
_RECORD_PROGRAMS = ("sin_lower", "sin_plus", "sin_subst", "fix_sum", "third",
                    "div3", "if_step", "pi")


def _trial_records() -> str:
    """Six membership trials of each claim, and of each function claim
    with its float program moved 2^64 away, one JSON line per trial."""
    lines = []
    for name in _RECORD_PROGRAMS:
        e = parse((REPO / "corpus" / f"{name}.ax").read_text())
        r = compile_program(e)
        claims = [("", r.approx)]
        if isinstance(r.family, families.Pi):
            shifted = Builtin("+f", (App(r.approx, Var("x")), FloatLit.of(2.0**64)))
            claims.append(("shifted", Lam("x", families.approx_ty(r.family.fam),
                                          shifted)))
        for tag, approx in claims:
            for o in families.member_trials(r.family, r.err, approx, e, 6, 7,
                                            EvalConfig()):
                lines.append(json.dumps([name, tag, o.status, o.record],
                                        sort_keys=True))
    return "\n".join(lines) + "\n"


def test_trial_record_bytes_are_pinned():
    # every bound, measured, slack, tight and excess string that the
    # membership check formats from numerators, as the Fraction code did
    assert _trial_records() == TRIAL_RECORDS.read_text()


AXIOMS_REPORT = REPO / "tests" / "golden" / "axioms_report.txt"


def test_axiom_report_bytes_are_pinned():
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_axioms.py"),
         "--trials", "200", "--seed", "42"],
        capture_output=True, text=True, check=True)
    assert out.stdout == AXIOMS_REPORT.read_text()


@pytest.mark.parametrize("v, want", [
    (VErr.point(Fraction(1, 3)), "(err 1/3)"),
    (VErr(Fraction(1, 4), Fraction(1, 2)), "(err-interval 1/4 1/2)"),
    (ERR_INF, "inf"),
])
def test_value_source_of_error_values(v, want):
    assert _value_source(v) == want


def test_shrink_scalar_halves_the_lower_end():
    still_fails = lambda w: w.lo > Fraction(1, 10)
    v = VErr(Fraction(3, 4), Fraction(5, 4))
    assert _shrink_scalar(v, still_fails) == VErr.point(Fraction(3, 16))
    assert _shrink_scalar(v, lambda w: True) == VErr.point(Fraction(0))
    assert _shrink_scalar(ERR_INF, still_fails) is ERR_INF
