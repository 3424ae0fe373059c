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

Evaluation is staged: each node is turned once into a closure over its
children's closures, cached on the node, and runs read the machine (fuel,
precision, call table) only through the arguments the closure is given.
A builtin node's rule is picked when the node is staged, so a run neither
dispatches on the op nor collects the operands.  Fuel is spent by
application, fix, type application and builtin rules.  A run out of fuel,
or of the host frames `syntax.with_stack_limit` allows it above its
caller's, diverges.

Every call of a fix on a keyed argument is memoized in a call table,
the top-level call included: `fix` of a lambda returns its
self-reference, so it unrolls on its first call.  A closed lambda is one
value per node, so a closed fix that two programs embed keys the same
entries in both.  The same table holds every sine taken, keyed by the
argument enclosure and the precision, under the same size cap.  A check
passes one table to the error, exact and equality programs it evaluates
at one precision, so the error program's calls of the exact recursion
answer the exact program's, and each sine of one argument is taken once.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Dict, Optional, Tuple, Union, get_args

from . import enclosure as enc
from .enclosure import RealEnclosure, Tern, compare_leq, from_rational
from .floats import (
    float_interval_op_err, ieee_div, sin_f64,
)
from .syntax import (
    App, BoolLit, Builtin, ErrLit, Expr, Fix, FloatLit,
    If, Lam, NatLit, RealLit, RedSeq, Ty, TyApp, TyLam, Var, builtin_arity,
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

    def _tick(self):
        self.fuel -= 1
        if self.fuel <= 0:
            raise _Diverge()

    def apply(self, fn: Value, arg: Value) -> Value:
        self.fuel -= 1
        if self.fuel <= 0:
            raise _Diverge()
        t = type(fn)
        if t is VClosure:
            binder, body, env = fn
            env = dict(env)
            env[binder] = arg
            try:
                # staged with its lambda, unless built outside the evaluator
                code = body.__dict__[_CODE]
            except KeyError:
                code = _code(body)
            return code(self, env)
        if t is VBuiltin:
            args = fn.args + (arg,)
            if len(args) < builtin_arity(fn.op):
                return _tuple(VBuiltin, (fn.op, args))
            # the saturating application, then the rule's own tick
            self._tick()
            return _DELTA[fn.op](self, *args)
        if t is VFix:
            key = (id(fn.fn), arg) if isinstance(arg, _KEYED_ARGS) else None
            if key is not None:
                hit = self.calls.get(key)
                if hit is not None:
                    return hit[1]
            f = self._unroll(fn.fn)
            if type(f) is VClosure:
                # entered here, not through a nested apply, so a recursive
                # call costs one host frame fewer than a call of a closure
                self._tick()
                env = dict(f.env)
                env[f.binder] = arg
                v = _code(f.body)(self, env)
            else:
                v = self.apply(f, arg)
            if key is not None and len(self.calls) < _CALL_TABLE_MAX:
                self.calls[key] = (fn.fn, v)
            return v
        raise EvalError(f"application of a non-function value: {fn!r}")

    def tyapply(self, fn: Value) -> Value:
        if type(fn) is not VTyClosure:
            raise EvalError("type application of a non-polymorphic value")
        self._tick()
        return _code(fn.body)(self, dict(fn.env))

    def apply_input(self, fn: Value, a) -> Value:
        """fn applied to a type, a closed program or a literal, whose value
        is read at this machine's precision without staging the node."""
        if isinstance(a, get_args(Ty)):
            return self.tyapply(fn)
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

    def redseq(self, f, n, g, env: Env) -> Value:
        # the operands are evaluated here rather than by the caller, so a
        # nested operand costs two host frames, like any other call nesting
        f, n, g = f(self, env), n(self, env), g(self, env)
        if not isinstance(n, VNat):
            raise EvalError("redseq count did not evaluate to a natural")
        # fold from the zero of the element carrier; the carrier is read
        # off the first generated element
        first = self.apply(g, VNat(0))
        acc = self._zero_like(first)
        for i in range(n.value):
            elem = first if i == 0 else self.apply(g, _tuple(VNat, (i,)))
            acc = self.apply(self.apply(f, elem), acc)
        return acc

    def _zero_like(self, v: Value) -> Value:
        if isinstance(v, VReal):
            return VReal(from_rational(0, self.cfg.precision_bits))
        if isinstance(v, VFloat):
            return VFloat(0.0)
        if isinstance(v, VNat):
            return VNat(0)
        if isinstance(v, VErr):
            return ERR_ZERO
        raise EvalError(f"redseq over a carrier without a zero: {v!r}")


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
# rebinding one (as a tracer does) reaches every staged node

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
# staged evaluation: each node is compiled once into a closure run(m, env)
# that evaluates it on machine m; the closure is built from its children's
# closures and cached on the node, so it captures neither a machine nor a
# precision and serves every later run over the same tree

_CODE = "_code"  # the instance-dict key of a node's closure


def _code(e: Expr):
    """The closure evaluating e, staged on first use and cached on e."""
    try:
        return e.__dict__[_CODE]
    except (KeyError, AttributeError):
        pass
    # stage in post-order with an explicit stack, so a deep tree costs no
    # host recursion and a shared subtree is staged once; every stager
    # finds its children's closures cached
    stack = [(e, False)]
    while stack:
        n, expanded = stack.pop()
        stage = _STAGERS.get(type(n))
        if stage is None:
            raise EvalError(f"cannot evaluate {n!r}")
        if _CODE in n.__dict__:
            continue
        if not expanded:
            stack.append((n, True))
            stack.extend((c, False) for c in children(n))
            continue
        # a node is immutable, so its closure never goes stale; the
        # instance dict is written directly, as functools.cached_property
        # does, since frozen dataclasses refuse setattr
        n.__dict__[_CODE] = stage(n)
    return e.__dict__[_CODE]


def _stage_var(e: Var):
    name = e.name

    def run(m, env):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable at runtime: {name}") from None
    return run


def _stage_lam(e: Lam):
    binder, body = e.binder, e.body
    # a closed lambda is one value per node: a closed fix keys the same
    # call-table entries in every program and run that evaluates it
    closed = _tuple(VClosure, (binder, body, ()))
    return lambda m, env: _tuple(
        VClosure, (binder, body, tuple(env.items()))) if env else closed


def _stage_tylam(e: TyLam):
    tyvar, body = e.tyvar, e.body
    return lambda m, env: _tuple(VTyClosure,
                                 (tyvar, body, tuple(env.items())))


def _stage_app(e: App):
    fn, arg = _code(e.fn), _code(e.arg)
    return lambda m, env: m.apply(fn(m, env), arg(m, env))


def _stage_tyapp(e: TyApp):
    expr = _code(e.expr)
    return lambda m, env: m.tyapply(expr(m, env))


def _stage_fix(e: Fix):
    expr = _code(e.expr)
    return lambda m, env: m.fix(expr(m, env))


def _stage_if(e: If):
    cond, then_e, else_e = _code(e.cond), _code(e.then_e), _code(e.else_e)

    def run(m, env):
        c = cond(m, env)
        if c is TRUE:
            return then_e(m, env)
        if c is FALSE:
            return else_e(m, env)
        raise EvalError("if condition did not evaluate to a boolean")
    return run


def _stage_real(e: RealLit):
    # the precision is read at run time: escalation evaluates one node at
    # several precisions
    q = e.value
    return lambda m, env: _tuple(VReal, (
        from_rational(q, m.cfg.precision_bits),))


# a literal's value at a precision, which only a RealLit reads
_LITERALS = {RealLit: lambda q, p: _tuple(VReal, (from_rational(q, p),)),
             NatLit: lambda n, p: VNat(n), BoolLit: lambda b, p: VBool(b),
             FloatLit: lambda x, p: VFloat(x),
             ErrLit: lambda q, p: VErr.point(q)}


def _constant(e):
    v = _LITERALS[type(e)](e.value, None)
    return lambda m, env: v


def _stage_builtin(e: Builtin):
    op = e.op
    args = tuple(_code(a) for a in e.args)
    if len(args) < builtin_arity(op):
        return lambda m, env: _tuple(
            VBuiltin, (op, tuple(a(m, env) for a in args)))
    # the rule is picked here, once per node; the closure evaluates the
    # operands, spends the one tick and calls it, so a nested builtin costs
    # the host stack one frame, like a level of an if chain
    rule = _DELTA[op]
    if len(args) == 1:
        (a,) = args

        def run(m, env):
            x = a(m, env)
            m.fuel -= 1
            if m.fuel <= 0:
                raise _Diverge()
            return rule(m, x)
    elif len(args) == 2:
        a, b = args

        def run(m, env):
            x, y = a(m, env), b(m, env)
            m.fuel -= 1
            if m.fuel <= 0:
                raise _Diverge()
            return rule(m, x, y)
    else:
        a, b, c, d = args

        def run(m, env):
            x, y, z, w = a(m, env), b(m, env), c(m, env), d(m, env)
            m.fuel -= 1
            if m.fuel <= 0:
                raise _Diverge()
            return rule(m, x, y, z, w)
    return run


def _stage_redseq(e: RedSeq):
    f, n, g = _code(e.combiner), _code(e.count), _code(e.generator)
    return lambda m, env: m.redseq(f, n, g, env)


_STAGERS = {
    Var: _stage_var,
    Lam: _stage_lam,
    TyLam: _stage_tylam,
    App: _stage_app,
    TyApp: _stage_tyapp,
    Fix: _stage_fix,
    If: _stage_if,
    RealLit: _stage_real,
    **dict.fromkeys((NatLit, BoolLit, FloatLit, ErrLit), _constant),
    Builtin: _stage_builtin,
    RedSeq: _stage_redseq,
}


# ---------------------------------------------------------------------------
# public entry points

# host frames an evaluation may add to its caller's stack; kept modest:
# each interpreter level spans several host frames, and the limit must trip
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
