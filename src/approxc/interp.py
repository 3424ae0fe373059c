"""Fuel-bounded big-step evaluation over three value domains.

One call-by-value core serves the exact evaluator (reals as dyadic
enclosures), the approximate evaluator (bit-exact binary64), and the
error evaluator (intervals of nonnegative rationals with infinity, as
integer numerators over one denominator in lowest terms, like the
enclosures'); the builtin namespaces of the three worlds are disjoint,
so one table, `_DELTA`, holds one rule per builtin for all of them.
Error expressions may embed exact-real subterms, whose evaluation
delegates to the enclosure oracle.

Values are tuples with namedtuple field getters, so building one in
the inner loop is a `tuple.__new__`; the shared Bool values are TRUE and
FALSE.  Their equality is class-aware: a VNat and a VBool over the same
payload differ, as the call table's keys need.

Evaluation runs generated code: each lambda body, and each node evaluated
as a root, becomes one Python function whose statements evaluate the
body's nodes in order into locals, generated when first needed and cached
on the node.  It reads the machine (fuel, precision, call table) only
through its arguments.  Literals and lambdas are lifted out of the source,
so fresh trees of one shape share one compiled factory.  Fuel is spent by
application, fix, type application and builtin rules.  A run out of fuel,
or of the host frames `syntax.with_stack_limit` allows it above its
caller's, diverges.

Every call of a fix on a keyed argument is memoized in a call table, the
top-level call included, and so is every application of a closure such a
call returned, so a curried recursion's whole argument spine is keyed.
`fix` of a lambda returns its self-reference; the machine unrolls it once,
on its first call, and keeps the closure.  A closed lambda is one value
per node, so a closed fix that two programs embed keys the same entries
in both.  The same table holds every sine taken, keyed by the argument
enclosure and the precision, under the same size cap.  A check passes one
table to the error, exact and equality programs it evaluates at one
precision, so the error program's calls of the exact recursion answer the
exact program's, and each sine of one argument is taken once.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Dict, Optional, Tuple, Union

from . import enclosure as enc
from .enclosure import RealEnclosure, Tern, compare_leq, from_rational
from .floats import (
    float_interval_op_err, ieee_div, sin_f64,
)
from .syntax import (
    BUILTINS, ERRREAL, FLOAT64, NAT, REAL,
    App, BoolLit, Builtin, ErrLit, Expr, Fix, FloatLit,
    If, Lam, NatLit, RealLit, RedSeq, TyApp, TyLam, Var, builtin_arity,
    children, with_stack_limit,
)


class EvalError(Exception):
    pass


class OracleInconclusive(EvalError):
    """A comparison stayed undecided at the working precision."""


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation budget: fuel bounds beta/delta steps, precision_bits
    drives the exact oracle.  Float rounding is fixed to
    round-to-nearest-even; there is no mode to configure."""

    fuel: int = 1_000_000
    precision_bits: int = 128
    max_precision_bits: int = 4096

    def __post_init__(self):
        if self.fuel < 1:
            raise ValueError("fuel must be >= 1")
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        # this budget at each precision a check steps to, built once; kept
        # outside the fields, so equality, hashing and repr ignore it
        object.__setattr__(self, "_steps", {})

    def at_precision(self, p: int) -> "EvalConfig":
        cfg = self._steps.get(p)
        if cfg is None:
            cfg = self._steps[p] = EvalConfig(self.fuel, p, self.max_precision_bits)
        return cfg


# ---------------------------------------------------------------------------
# Values

class _Value(tuple):
    """An evaluated value: a tuple whose equality holds within one class
    only.  As plain tuples VNat(1), VBool(True) and VFloat(1.0) would be
    equal, and a call table would answer one with another's result."""

    __slots__ = ()

    def __eq__(a, b):
        return type(a) is type(b) and tuple.__eq__(a, b)

    def __ne__(a, b):
        return type(a) is not type(b) or tuple.__ne__(a, b)

    __hash__ = tuple.__hash__


def _value_class(name: str, fields: str, **kw) -> type:
    return type(name, (_Value, namedtuple(name, fields, **kw)),
                {"__slots__": ()})


VReal = _value_class("VReal", "enc")
VFloat = _value_class("VFloat", "value")
VNat = _value_class("VNat", "value")


class VBool(_Value, namedtuple("VBool", "value")):
    """One of the two shared values TRUE and FALSE."""

    __slots__ = ()

    def __new__(cls, value: bool):
        return TRUE if value else FALSE


class VErr(_Value, namedtuple("VErr", "lo_num hi_num den")):
    """An evaluated error bound: the interval [lo_num/den, hi_num/den] of
    nonnegative rationals, den > 0; lo_num None is the infinite bound and
    hi_num None alone an infinite upper end.  Kept in lowest terms, so
    values compare and hash by value.  Fractions are built and read only
    at the edge: `VErr(lo, hi)`, `VErr.point(q)`, `lo` and `hi`."""

    __slots__ = ()

    def __new__(cls, lo: Optional[Fraction], hi: Optional[Fraction]):
        if lo is None:
            if hi is not None:
                raise ValueError("infinite lower endpoint with finite upper")
            return ERR_INF
        if lo < 0 or (hi is not None and lo > hi):
            raise ValueError(f"not an error interval: [{lo}, {hi}]")
        a, b = Fraction(lo), Fraction(0 if hi is None else hi)
        return err_over(a.numerator * b.denominator,
                        None if hi is None else b.numerator * a.denominator,
                        a.denominator * b.denominator)

    def __getnewargs__(self):
        return self.lo, self.hi

    @staticmethod
    def point(q: Optional[Fraction]) -> "VErr":
        """The point bound q, a Fraction or an int, or None for infinity."""
        if q is None:
            return ERR_INF
        n = q.numerator
        if n < 0:
            raise ValueError("negative error")
        return _tuple(VErr, (n, n, q.denominator))

    @property
    def lo(self) -> Optional[Fraction]:
        return None if self.lo_num is None else Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Optional[Fraction]:
        return None if self.hi_num is None else Fraction(self.hi_num, self.den)

    @property
    def is_infinite(self) -> bool:
        return self.lo_num is None


_tuple = tuple.__new__
TRUE, FALSE = _tuple(VBool, (True,)), _tuple(VBool, (False,))
ERR_INF = _tuple(VErr, (None, None, 1))
ERR_ZERO = _tuple(VErr, (0, 0, 1))


def err_over(lo: int, hi: Optional[int], den: int) -> VErr:
    """[lo/den, hi/den] in lowest terms, for 0 <= lo <= hi and den > 0;
    hi None is an infinite upper end."""
    g = math.gcd(lo, den) if hi is None else math.gcd(lo, hi, den)
    if g == 1:
        return _tuple(VErr, (lo, hi, den))
    return _tuple(VErr, (lo // g, None if hi is None else hi // g, den // g))


VClosure = _value_class("VClosure", "binder body env")
VTyClosure = _value_class("VTyClosure", "tyvar body env")
VBuiltin = _value_class("VBuiltin", "op args", defaults=((),))


class VFix(_Value, namedtuple("VFix", "fn")):
    """The self-reference that `fix fn` passes to fn: applying it to an
    argument applies `fix fn` to that argument."""

    __slots__ = ()


Value = Union[VReal, VFloat, VNat, VBool, VErr, VClosure, VTyClosure,
              VBuiltin, VFix]

# arguments whose equality implies equal results, so a recursive call on
# them may be answered from the machine's call table; VFloat is left out
# because 0.0 == -0.0 although (/f 1.0 x) tells them apart
_KEYED_ARGS = (VNat, VBool, VErr, VReal)


class Diverged:
    """Result marker for fuel exhaustion or reaching bottom."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "Diverged"


DIVERGED = Diverged()


class _Diverge(Exception):
    pass


Env = Dict[str, Value]


# ---------------------------------------------------------------------------
# error-interval arithmetic

def _endwise(f, a: VErr, b: VErr) -> VErr:
    """f, monotone in both arguments, on the lower ends of a and b and on
    their upper ends, read over the product of the denominators; an
    infinite end absorbs."""
    al, ah, ad = a
    bl, bh, bd = b
    if al is None or bl is None:
        return ERR_INF
    hi = None if ah is None or bh is None else f(ah * bd, bh * ad)
    return err_over(f(al * bd, bl * ad), hi, ad * bd)


err_add = partial(_endwise, operator.add)
err_max = partial(_endwise, max)


def float_op_err(op: str, xe: RealEnclosure, xq: VErr,
                 ye: RealEnclosure, yq: VErr) -> VErr:
    """Worst-case distance between the exact op and its rounded float
    counterpart over the input error box; infinity on overflow or on a
    divisor interval containing zero."""
    lo, hi, s = float_interval_op_err(op, xe, xq, ye, yq)
    return ERR_INF if hi is None else err_over(lo, hi, s)


def err_mul(a: VErr, b: VErr) -> VErr:
    # infinity absorbs, including 0 * inf: the top is always sound
    al, ah, ad = a
    bl, bh, bd = b
    if al is None or bl is None:
        return ERR_INF
    return err_over(al * bl, None if ah is None or bh is None else ah * bh,
                    ad * bd)


def err_of_value(v: Value) -> VErr:
    """Coerce an evaluated Nat- or ErrReal-typed bound to an error value."""
    if isinstance(v, VErr):
        return v
    if isinstance(v, VNat):
        return err_over(v.value, v.value, 1)
    raise EvalError(f"not an error value: {v!r}")


# ---------------------------------------------------------------------------
# evaluation core

# a fix call's entry maps (id(fn), arg) to (fn, result), a sine's maps
# ("sinr", argument enclosure, precision) to its VReal
CallTable = Dict[tuple, Union[Tuple[Value, Value], VReal]]


class _Machine:
    def __init__(self, cfg: EvalConfig, calls: Optional[CallTable] = None):
        self.cfg = cfg
        self.fuel = cfg.fuel
        # (id(fn), arg) -> (fn, result) for every completed call of a fix on
        # a keyed argument, holding fn to keep its id live, and every sine
        # taken.  A result depends on the precision alone, not on fuel, so
        # the evaluations of one precision step may share the table
        self.calls: CallTable = {} if calls is None else calls
        # id -> each closure a keyed call returned: its calls on keyed
        # arguments go through the table too, keyed (id, arg, VClosure)
        # apart from fix calls, so a curried recursion's spine is memoized
        self.spine: Dict[int, VClosure] = {}
        # id(fn) -> (fn, binder, code, env) of the closure that fn unrolls
        # to under fix
        self.unrolled: Dict[int, tuple] = {}

    def _tick(self):
        self.fuel -= 1
        if self.fuel <= 0:
            raise _Diverge()

    def apply(self, fn: Value, arg: Value) -> Value:
        self.fuel -= 1
        if self.fuel <= 0:
            raise _Diverge()
        t = type(fn)
        key = None
        if (t is VFix or t is VClosure and id(fn) in self.spine) and \
                isinstance(arg, _KEYED_ARGS):
            # a fix call, or a call of a closure that a keyed call returned
            key = (id(fn.fn), arg) if t is VFix else (id(fn), arg, VClosure)
            hit = self.calls.get(key)
            if hit is not None:
                v = hit[1]
                if type(v) is VClosure:
                    self.spine[id(v)] = v
                return v
        if t is VClosure:
            binder, body, env = fn
            env = dict(env)
            env[binder] = arg
            try:
                # generated when the body was first applied
                code = body.__dict__[_CODE]
            except KeyError:
                code = _code(body)
            v = code(self, env)
        elif t is VFix:
            v = self._fix_call(fn.fn, arg)
        elif t is VBuiltin:
            args = fn.args + (arg,)
            if len(args) < builtin_arity(fn.op):
                return _tuple(VBuiltin, (fn.op, args))
            # the saturating application, then the rule's own tick
            self._tick()
            return _DELTA[fn.op](self, *args)
        else:
            raise EvalError(f"application of a non-function value: {fn!r}")
        if key is None:
            return v
        # the entry holds fn, whose id the key holds
        if len(self.calls) < _CALL_TABLE_MAX:
            self.calls[key] = (fn, v)
        if type(v) is VClosure:
            self.spine[id(v)] = v
        return v

    def _fix_call(self, fn: Value, arg: Value) -> Value:
        """(fix fn) applied to arg, after the application's tick."""
        if type(fn) is not VClosure or type(fn.body) is not Lam:
            return self.apply(self._unroll(fn), arg)
        # fn's unrolling is the lambda fn returns, one closure kept for
        # the run with its body's code: the unrolling's two ticks, and the
        # tick of entering it, are spent without building it again
        self.fuel -= 3
        if self.fuel <= 0:
            raise _Diverge()
        u = self.unrolled.get(id(fn))
        if u is None:
            env = dict(fn.env)
            env[fn.binder] = _tuple(VFix, (fn,))
            lam = fn.body
            u = self.unrolled[id(fn)] = (fn, lam.binder, _code(lam.body),
                                         tuple(env.items()))
        _, binder, code, env = u
        env = dict(env)
        env[binder] = arg
        # entered here, not through a nested apply, so a recursive call
        # costs one host frame fewer than a call of a closure
        return code(self, env)

    def tyapply(self, fn: Value) -> Value:
        if type(fn) is not VTyClosure:
            raise EvalError("type application of a non-polymorphic value")
        self._tick()
        return _code(fn.body)(self, dict(fn.env))

    def apply_input(self, fn: Value, a: Expr) -> Value:
        """fn applied to a closed program, or to a literal, whose value is
        read at this machine's precision without generating code."""
        lit = _LITERALS.get(type(a))
        return self.apply(fn, lit(a.value, self.cfg.precision_bits)
                          if lit else _code(a)(self, {}))

    def fix(self, fn: Value) -> Value:
        # call-by-value fix: fn receives a self-reference, VFix(fn).  A
        # lambda returning a lambda only builds a closure when unrolled, so
        # the unrolling waits for the first call, which the table memoizes
        if not isinstance(fn, (VClosure, VBuiltin, VFix)):
            raise EvalError("fix of a non-function value")
        if type(fn) is VClosure and type(fn.body) is Lam:
            self._tick()
            return _tuple(VFix, (fn,))
        return self._unroll(fn)

    def _unroll(self, fn: Value) -> Value:
        self._tick()
        return self.apply(fn, _tuple(VFix, (fn,)))

    def redseq(self, f: Value, n: Value, g: Value) -> Value:
        """Fold g(0) .. g(n-1) with f from the zero of the element carrier.
        A builtin combiner's result type in syntax.BUILTINS names the
        carrier, so an empty fold evaluates no element.  A closure carries
        no type: its carrier is read off g(0), which is evaluated even when
        n is 0."""
        if not isinstance(n, VNat):
            raise EvalError("redseq count did not evaluate to a natural")
        first = None if type(f) is VBuiltin else self.apply(g, VNat(0))
        carrier = BUILTINS[f.op][1] if first is None else \
            _CARRIERS.get(type(first))
        if carrier == REAL:
            acc = VReal(from_rational(0, self.cfg.precision_bits))
        elif carrier in _ZEROS:
            acc = _ZEROS[carrier]
        else:
            raise EvalError("redseq over a carrier without a zero: "
                            f"{first if carrier is None else carrier!r}")
        for i in range(n.value):
            elem = first if i == 0 and first is not None else \
                self.apply(g, _tuple(VNat, (i,)))
            acc = self.apply(self.apply(f, elem), acc)
        return acc


# a reduction's carrier, by its first element's value class, and the zero
# it folds from (a real's, at the machine's precision, is built per fold)
_CARRIERS = {VReal: REAL, VFloat: FLOAT64, VNat: NAT, VErr: ERRREAL}
_ZEROS = {FLOAT64: VFloat(0.0), NAT: VNat(0), ERRREAL: ERR_ZERO}


def _nat_float(m: int) -> float:
    # CPython's int-to-float conversion rounds to nearest-even and raises
    # exactly where the rounded value overflows
    try:
        return float(m)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# builtin rules: one function per op, taking the machine and the operands
# positionally.  Kernels are named through module globals at call time, so
# rebinding one (as a tracer does) reaches all generated code

def _real2(op: str, box=None):
    # box(enclosure) is the result; a VReal without one
    def rule(m, x, y):
        if type(x) is not VReal:
            raise EvalError(f"{op} applied to {x!r}")
        if type(y) is not VReal:
            raise EvalError(f"{op} applied to {y!r}")
        try:
            out = enc.enclose_op(op, [x.enc, y.enc], m.cfg.precision_bits,
                                 m.cfg.max_precision_bits)
        except enc.DivisorStraddlesZero as ex:
            raise OracleInconclusive(str(ex))
        return _tuple(VReal, (out,)) if box is None else box(out)
    return rule


def _real1(op: str):
    def rule(m, x):
        if type(x) is not VReal:
            raise EvalError(f"{op} applied to {x!r}")
        return _tuple(VReal, (enc.enclose_op(
            op, [x.enc], m.cfg.precision_bits, m.cfg.max_precision_bits),))
    return rule


def _sinr(m, x):
    if type(x) is not VReal:
        raise EvalError(f"sinr applied to {x!r}")
    # a check's error and exact programs take the sine of the same
    # argument, so the step's call table answers the repeats
    p = m.cfg.precision_bits
    key = ("sinr", x.enc, p)
    v = m.calls.get(key)
    if v is None:
        v = _tuple(VReal, (enc.enclose_op("sinr", [x.enc], p,
                                          m.cfg.max_precision_bits),))
        if len(m.calls) < _CALL_TABLE_MAX:
            m.calls[key] = v
    return v


def _leqr(m, x, y):
    if type(x) is not VReal:
        raise EvalError(f"leqr applied to {x!r}")
    if type(y) is not VReal:
        raise EvalError(f"leqr applied to {y!r}")
    r = compare_leq(x.enc, y.enc)
    if r is Tern.UNKNOWN:
        raise OracleInconclusive(
            f"comparison undecided at {m.cfg.precision_bits} bits")
    return TRUE if r is Tern.YES else FALSE


def _binary(op: str, t: type, what: str, f, box):
    # f on the values of two operands of type t, boxed in class box
    def rule(m, x, y):
        if not (type(x) is t and type(y) is t):
            raise EvalError(f"{op} applied to non-{what}")
        r = f(x.value, y.value)
        if box is VBool:
            return TRUE if r else FALSE
        return _tuple(box, (r,))
    return rule


def _float2(op: str, f, box=VFloat):
    return _binary(op, VFloat, "floats", f, box)


def _nat2(op: str, f, box=VNat):
    return _binary(op, VNat, "naturals", f, box)


def _nat1(op: str, f):
    # f(m, value) on a natural operand
    def rule(m, n):
        if type(n) is not VNat:
            raise EvalError(f"{op} applied to {n!r}")
        return f(m, n.value)
    return rule


def _sinf(m, x):
    if type(x) is not VFloat:
        raise EvalError(f"sinf applied to {x!r}")
    return _tuple(VFloat, (sin_f64(x.value),))


def _modulus(op: str, f):
    def g(a, b):
        if b == 0:
            raise EvalError(f"{op} with zero modulus")
        return f(a, b)
    return _nat2(op, g)


def _float_err(op: str):
    return lambda m, xe, xq, ye, yq: float_op_err(
        op, xe.enc, err_of_value(xq), ye.enc, err_of_value(yq))


def _sinerr(m, xe, xq):
    lo, hi, d = err_of_value(xq)
    if lo is None:
        return ERR_INF
    # |sin e - sin a| <= min(|e-a|, 2); the vendored sine is correctly
    # rounded, adding at most 2^-53
    two = 2 * d
    return err_over((min(lo, two) << 53) + d,
                    None if hi is None else (min(hi, two) << 53) + d, d << 53)


def _n2rerr(m, n, k) -> VErr:
    # worst |n - real(nat2float m)| over naturals m with |m - n| <= k;
    # float conversion is monotone, so the extremes sit at the ends
    if not (type(n) is VNat and type(k) is VNat):
        raise EvalError("n2rerr applied to non-naturals")
    n, k = n.value, k.value
    worst = 0
    for i in (max(0, n - k), n + k):
        f = _nat_float(i)
        if math.isinf(f):
            return ERR_INF
        worst = max(worst, abs(n - int(f)))
    return err_over(worst, worst, 1) if worst else ERR_ZERO


_DELTA = {
    "+r": _real2("+r"),
    "-r": _real2("-r"),
    "*r": _real2("*r"),
    "/r": _real2("/r"),
    "dr": _real2("dr", lambda out: err_over(out.lo_num, out.hi_num, out.den)),
    "sinr": _sinr,
    "absr": _real1("absr"),
    "leqr": _leqr,
    "nat2real": _nat1("nat2real", lambda m, n: _tuple(VReal, (
        from_rational(n, m.cfg.precision_bits),))),
    "+f": _float2("+f", operator.add),
    "-f": _float2("-f", operator.sub),
    "*f": _float2("*f", operator.mul),
    "/f": _float2("/f", lambda a, b: ieee_div(a, b)),
    "sinf": _sinf,
    "leqf": _float2("leqf", operator.le, VBool),
    "nat2float": _nat1("nat2float",
                       lambda m, n: _tuple(VFloat, (_nat_float(n),))),
    "+n": _nat2("+n", operator.add),
    "-n": _nat2("-n", lambda a, b: max(0, a - b)),
    "*n": _nat2("*n", operator.mul),
    "dn": _nat2("dn", lambda a, b: abs(a - b)),
    "leqn": _nat2("leqn", operator.le, VBool),
    "floorK": _modulus("floorK", lambda a, b: b * (a // b)),
    "ceilK": _modulus("ceilK", lambda a, b: b * ((a + b - 1) // b)),
    "nat2err": _nat1("nat2err", lambda m, n: err_over(n, n, 1)),
    "+q": lambda m, x, y: err_add(err_of_value(x), err_of_value(y)),
    "maxq": lambda m, x, y: err_max(err_of_value(x), err_of_value(y)),
    "*q": lambda m, x, y: err_mul(err_of_value(x), err_of_value(y)),
    "+err": _float_err("+"),
    "-err": _float_err("-"),
    "*err": _float_err("*"),
    "/err": _float_err("/"),
    "sinerr": _sinerr,
    "n2rerr": _n2rerr,
}


# ---------------------------------------------------------------------------
# generated evaluation.  A body's shape is its structure with literals and
# lambdas left out: those are the arguments of a factory, make(k0, ...),
# compiled once per shape, which returns the body's function run(m, env).
# A lambda inside is a closure value, whose body is generated when applied

_CODE = "_code"      # the instance-dict key of a node's function
_CLOSED = "_closed"  # the instance-dict key of a lambda's closed closure
# shape -> factory; past the cap a new shape is compiled afresh, and the
# table keeps answering the shapes it holds.  A factory whose source is
# longer than _SHAPE_SOURCE_MAX characters is never kept: a body that
# large, a deeply nested program's, is compiled afresh for each new node
# of its shape and freed with its nodes
_SHAPES: Dict[tuple, object] = {}
_SHAPES_MAX = 1 << 10
_SHAPE_SOURCE_MAX = 1 << 16
# ifs nested deeper than this in one function spill into a helper:
# CPython refuses more than 100 levels of indentation
_IF_NEST = 64


def _code(e: Expr):
    """The function evaluating e, generated on first use and cached on e."""
    try:
        return e.__dict__[_CODE]
    except (KeyError, AttributeError):
        pass
    key, consts, seen, shared = _shape(e)
    make = _SHAPES.get(key)
    if make is None:
        scope: dict = {}
        src = _source(e, seen, shared)
        exec(compile(src, "<approxc>", "exec"), globals(), scope)
        make = scope["make"]
        if len(_SHAPES) < _SHAPES_MAX and len(src) <= _SHAPE_SOURCE_MAX:
            _SHAPES[key] = make
    # a node is immutable, so its function never goes stale; the instance
    # dict is written directly, as functools.cached_property does, since
    # frozen dataclasses refuse setattr
    run = e.__dict__[_CODE] = make(*consts)
    return run


# a literal's value at a precision, which only a RealLit reads
_LITERALS = {RealLit: lambda q, p: _tuple(VReal, (from_rational(q, p),)),
             NatLit: lambda n, p: VNat(n), BoolLit: lambda b, p: VBool(b),
             FloatLit: lambda x, p: VFloat(x),
             ErrLit: lambda q, p: VErr.point(q)}
# a leaf's constant, the factory's argument for it.  A closed lambda is one
# value per node: a closed fix keys the same call-table entries in every
# program and run that evaluates it
_LEAVES = {RealLit: lambda e: e.value, TyLam: lambda e: (e.tyvar, e.body),
           Lam: lambda e: e.__dict__.setdefault(
               _CLOSED, _tuple(VClosure, (e.binder, e.body, ()))),
           **{t: lambda e: _LITERALS[type(e)](e.value, None)
              for t in (NatLit, BoolLit, FloatLit, ErrLit)}}
# a leaf's code, given its constant's or its variable's name; a RealLit
# reads the precision at run time, as escalation runs it at several
_LEAF_CODE = {
    Var: "env[{0}]",
    RealLit: "_tuple(VReal, (from_rational({0}, m.cfg.precision_bits),))",
    Lam: "_tuple(VClosure, ({0}[0], {0}[1], tuple(env.items())))"
         " if env else {0}",
    TyLam: "_tuple(VTyClosure, {0} + (tuple(env.items()),))"}
# the machine's method each compound node calls, but for if and builtins
_CALLS = {App: "apply", TyApp: "tyapply", Fix: "fix", RedSeq: "redseq",
          Builtin: None, If: None}


def _shape(root: Expr):
    """root's shape, its constants in walk order, the walk's serial number
    of each node, and the ids of the nodes it met again, which appear in
    the shape as their serials."""
    shape, consts, seen, shared, stack = [], [], {}, set(), [root]
    while stack:
        n = stack.pop()
        s = seen.get(id(n))
        if s is not None:
            shape.append(s)
            shared.add(id(n))
            continue
        seen[id(n)] = len(seen)
        t = type(n)
        shape.append(t)
        if t is Var:
            shape.append(n.name)
        elif t in _LEAVES:
            consts.append(_LEAVES[t](n))
        elif t is Builtin:
            shape += (n.op, len(n.args))
            stack.extend(reversed(n.args))
        elif t in _CALLS:
            stack.extend(reversed(children(n)))
        else:
            raise EvalError(f"cannot evaluate {n!r}")
    return tuple(shape), consts, seen, shared


def _unbound(ex: KeyError):
    # a KeyError raised in the generated function's own frame is its
    # environment lookup; one from a callee passes through unchanged
    if ex.__traceback__.tb_next is None:
        raise EvalError(f"unbound variable at runtime: {ex.args[0]}") from None
    raise ex


def _source(root: Expr, seen: dict, shared: set) -> str:
    """The factory's source: statements in evaluation order, one local for
    each value.  A compound node the walk met twice, or an if nested past
    _IF_NEST, becomes a helper function called where it occurs, so the
    source is linear in the body's distinct nodes."""
    params, rules, helpers, vals = set(), {}, {}, []
    fresh = (f"t{i}" for i in itertools.count())
    body: list = []
    funcs = [("run", body)]
    # tasks, done last in first out: (kind, node or text, lines, depth); a
    # node leaves its value on vals, and a "pop" task formats it into a line
    work = [("pop", "return {}", body, 0), ("root", root, body, 0)]
    while work:
        kind, n, lines, d = work.pop()
        if kind == "line":
            lines.append((d, n))
        elif kind == "push":
            vals.append(n)
        elif kind == "pop":
            lines.append((d, n.format(vals.pop())))
        elif kind == "if":
            c, r = vals.pop(), next(fresh)
            lines.append((d, f"if {c} is TRUE:"))
            work += [("push", r, lines, d), ("line", "else: raise EvalError("
                      "'if condition did not evaluate to a boolean')", lines, d),
                     ("pop", r + " = {}", lines, d + 1),
                     ("node", n.else_e, lines, d + 1),
                     ("line", f"elif {c} is FALSE:", lines, d),
                     ("pop", r + " = {}", lines, d + 1),
                     ("node", n.then_e, lines, d + 1)]
        elif kind == "call":
            cut = len(vals) - len(children(n))
            args = ", ".join(vals[cut:])
            del vals[cut:]
            r = next(fresh)
            vals.append(r)
            if type(n) is not Builtin:
                lines.append((d, f"{r} = m.{_CALLS[type(n)]}({args})"))
            elif len(n.args) < builtin_arity(n.op):
                lines.append((d, f"{r} = _tuple(VBuiltin, ({n.op!r}, "
                                 f"({args + ',' if args else ''})))"))
            else:
                rule = rules.setdefault(n.op, f"d{len(rules)}")
                # the operands are evaluated, then the one tick, the rule
                lines += [(d, "m.fuel -= 1"),
                          (d, "if m.fuel <= 0: raise _Diverge()"),
                          (d, f"{r} = {rule}(m, {args})")]
        elif type(n) not in _CALLS:
            if type(n) is Var:
                k = repr(n.name)
            else:
                params.add(seen[id(n)])
                k = f"k{seen[id(n)]}"
            code = _LEAF_CODE.get(type(n))
            if code is None:
                vals.append(k)
            else:
                vals.append(next(fresh))
                lines.append((d, f"{vals[-1]} = " + code.format(k)))
        elif kind == "node" and (id(n) in shared or (
                type(n) is If and d >= _IF_NEST)):
            h = helpers.get(id(n))
            if h is None:
                h = helpers[id(n)] = f"h{len(helpers)}"
                funcs.append((h, []))
                work += [("pop", "return {}", funcs[-1][1], 0),
                         ("root", n, funcs[-1][1], 0)]
            vals.append(next(fresh))
            lines.append((d, f"{vals[-1]} = {h}(m, env)"))
        elif type(n) is If:
            work += [("if", n, lines, d), ("node", n.cond, lines, d)]
        else:
            work.append(("call", n, lines, d))
            work += (("node", c, lines, d) for c in reversed(children(n)))
    out = [f"def make({', '.join(f'k{i}' for i in sorted(params))}):"]
    out += [f"    {rule} = _DELTA[{op!r}]" for op, rule in rules.items()]
    for name, lines in funcs:
        out += [f"    def {name}(m, env):", "        try:"]
        out += ["            " + "    " * d + text for d, text in lines]
        out += ["        except KeyError as ex:", "            _unbound(ex)"]
    out.append("    return run")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# public entry points

# host frames an evaluation may add to its caller's stack; kept modest:
# each call level spans several host frames, and the limit must trip
# before the C stack is exhausted
_EVAL_STACK_LIMIT = 2500
# completed fix calls and sines a table remembers, together; past it, both
# are evaluated afresh and existing entries keep answering, so memory stays
# bounded
_CALL_TABLE_MAX = 1 << 14


def _guarded(run) -> Union[Value, Diverged]:
    # deep fix unrollings recurse through the host stack; exhausting it
    # counts as divergence (the fuel budget usually bites first).  The
    # limit sits a fixed number of frames above the caller's depth, so
    # whether a program diverges does not depend on who evaluates it
    try:
        return with_stack_limit(_EVAL_STACK_LIMIT, run)
    except (_Diverge, RecursionError):
        return DIVERGED


def _run(e: Expr, env: Optional[Env], cfg: EvalConfig,
         calls: Optional[CallTable], inputs: tuple) -> Union[Value, Diverged]:
    m = _Machine(cfg, calls)
    return _guarded(lambda: reduce(m.apply_input, inputs,
                                   _code(e)(m, dict(env or {}))))


# each entry point takes an optional call table, which evaluations at the
# same precision may share; without one a run starts from an empty table.
# e's value is then applied to each input in turn, on the same machine

def eval_exact(e: Expr, env: Optional[Env] = None,
               cfg: EvalConfig = EvalConfig(),
               calls: Optional[CallTable] = None,
               inputs: tuple = ()) -> Union[Value, Diverged]:
    """Evaluate over exact reals realized as dyadic enclosures."""
    return _run(e, env, cfg, calls, inputs)


def eval_approx(e: Expr, env: Optional[Env] = None,
                cfg: EvalConfig = EvalConfig(),
                inputs: tuple = ()) -> Union[Value, Diverged]:
    """Evaluate over binary64 with round-to-nearest-even, bit exactly."""
    return _run(e, env, cfg, None, inputs)


def eval_error(e: Expr, env: Optional[Env] = None,
               cfg: EvalConfig = EvalConfig(),
               calls: Optional[CallTable] = None,
               inputs: tuple = ()) -> Union[Value, Diverged]:
    """Evaluate an error expression; divergence is reported to callers,
    who treat it as the infinite bound."""
    return _run(e, env, cfg, calls, inputs)


def bound_of(result: Union[Value, Diverged]) -> VErr:
    """Coerce an error-evaluation outcome to a bound; divergence is the
    infinite bound, which is always sound."""
    if result is DIVERGED:
        return ERR_INF
    return err_of_value(result)


def apply_value(fn: Value, args, cfg: EvalConfig) -> Union[Value, Diverged]:
    """Apply an evaluated function value to evaluated arguments."""
    return _guarded(lambda: reduce(_Machine(cfg).apply, args, fn))
