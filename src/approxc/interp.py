"""Fuel-bounded big-step evaluation over three value domains.

One call-by-value core serves the exact evaluator (reals as dyadic
enclosures), the approximate evaluator (bit-exact binary64), and the
error evaluator (nonnegative rationals with infinity); the builtin
namespaces of the three worlds are disjoint, so a single dispatch table
covers all of them.  Error expressions may embed exact-real subterms,
whose evaluation delegates to the enclosure oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, Optional, Tuple, Union

from . import enclosure as enc
from .enclosure import RealEnclosure, Tern, compare_leq, from_rational
from .floats import (
    float_interval_op_err, ieee_div, nearest_float, sin_f64, to_fraction,
)
from .syntax import (
    App, BoolLit, Bottom, Builtin, ErrLit, Expr, Fix, FloatLit,
    If, Lam, NatLit, RealLit, RedSeq, TyApp, TyLam, Var, builtin_arity,
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

    def at_precision(self, p: int) -> "EvalConfig":
        return EvalConfig(self.fuel, p, self.max_precision_bits)


# ---------------------------------------------------------------------------
# Values

@dataclass(frozen=True)
class VReal:
    enc: RealEnclosure


@dataclass(frozen=True)
class VFloat:
    value: float


@dataclass(frozen=True)
class VNat:
    value: int


@dataclass(frozen=True)
class VBool:
    value: bool


@dataclass(frozen=True)
class VErr:
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
    def point(q: Optional[Fraction]) -> "VErr":
        return VErr(q, q)

    @property
    def is_infinite(self) -> bool:
        return self.lo is None


ERR_INF = VErr(None, None)


@dataclass(frozen=True)
class VClosure:
    binder: str
    body: Expr
    env: Tuple[Tuple[str, "Value"], ...]


@dataclass(frozen=True)
class VTyClosure:
    tyvar: str
    body: Expr
    env: Tuple[Tuple[str, "Value"], ...]


@dataclass(frozen=True)
class VBuiltin:
    op: str
    args: Tuple["Value", ...] = ()


@dataclass(frozen=True)
class VFix:
    """The self-reference that `fix fn` passes to fn: applying it to an
    argument applies `fix fn` to that argument."""

    fn: "Value"


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


def _env_tuple(env: Env) -> Tuple[Tuple[str, Value], ...]:
    return tuple(env.items())


# ---------------------------------------------------------------------------
# error-interval arithmetic

def err_add(a: VErr, b: VErr) -> VErr:
    if a.is_infinite or b.is_infinite:
        return ERR_INF
    hi = None if (a.hi is None or b.hi is None) else a.hi + b.hi
    return VErr(a.lo + b.lo, hi)


def float_op_err(op: str, xe: RealEnclosure, xq: VErr,
                 ye: RealEnclosure, yq: VErr) -> VErr:
    """Worst-case distance between the exact op and its rounded float
    counterpart over the input error box; infinity on overflow or on a
    divisor interval containing zero."""
    lo, hi = float_interval_op_err(op, (xe.lo, xe.hi), (xq.lo, xq.hi),
                                   (ye.lo, ye.hi), (yq.lo, yq.hi))
    if hi is None and lo == 0:
        return ERR_INF
    return VErr(lo, hi)


def err_mul(a: VErr, b: VErr) -> VErr:
    # infinity absorbs, including 0 * inf: the top is always sound
    if a.is_infinite or b.is_infinite:
        return ERR_INF
    hi = None if (a.hi is None or b.hi is None) else a.hi * b.hi
    return VErr(a.lo * b.lo, hi)


def err_of_value(v: Value) -> VErr:
    """Coerce an evaluated Nat- or ErrReal-typed bound to an error value."""
    if isinstance(v, VErr):
        return v
    if isinstance(v, VNat):
        return VErr.point(Fraction(v.value))
    raise EvalError(f"not an error value: {v!r}")


# ---------------------------------------------------------------------------
# evaluation core

class _Machine:
    def __init__(self, cfg: EvalConfig):
        self.cfg = cfg
        self.fuel = cfg.fuel
        # (id(fn), arg) -> (fn, result) for every completed call of a fix
        # self-reference on a keyed argument; holding fn keeps its id live
        self.calls: Dict[Tuple[int, Value], Tuple[Value, Value]] = {}

    def _tick(self):
        self.fuel -= 1
        if self.fuel <= 0:
            raise _Diverge()

    def eval(self, e: Expr, env: Env) -> Value:
        if isinstance(e, Var):
            if e.name not in env:
                raise EvalError(f"unbound variable at runtime: {e.name}")
            return env[e.name]
        if isinstance(e, Lam):
            return VClosure(e.binder, e.body, _env_tuple(env))
        if isinstance(e, TyLam):
            return VTyClosure(e.tyvar, e.body, _env_tuple(env))
        if isinstance(e, App):
            fn = self.eval(e.fn, env)
            arg = self.eval(e.arg, env)
            return self.apply(fn, arg)
        if isinstance(e, TyApp):
            fn = self.eval(e.expr, env)
            if isinstance(fn, VTyClosure):
                self._tick()
                return self.eval(fn.body, dict(fn.env))
            raise EvalError("type application of a non-polymorphic value")
        if isinstance(e, Fix):
            fn = self.eval(e.expr, env)
            return self.fix(fn)
        if isinstance(e, If):
            c = self.eval(e.cond, env)
            if not isinstance(c, VBool):
                raise EvalError("if condition did not evaluate to a boolean")
            return self.eval(e.then_e if c.value else e.else_e, env)
        if isinstance(e, RealLit):
            return VReal(from_rational(e.value, self.cfg.precision_bits))
        if isinstance(e, NatLit):
            return VNat(e.value)
        if isinstance(e, BoolLit):
            return VBool(e.value)
        if isinstance(e, FloatLit):
            return VFloat(e.value)
        if isinstance(e, ErrLit):
            return VErr.point(e.value)
        if isinstance(e, Builtin):
            args = tuple(self.eval(a, env) for a in e.args)
            if len(args) < builtin_arity(e.op):
                return VBuiltin(e.op, args)
            return self.delta(e.op, args)
        if isinstance(e, RedSeq):
            return self.redseq(e, env)
        if isinstance(e, Bottom):
            raise _Diverge()
        raise EvalError(f"cannot evaluate {e!r}")

    def apply(self, fn: Value, arg: Value) -> Value:
        self._tick()
        if isinstance(fn, VClosure):
            env = dict(fn.env)
            env[fn.binder] = arg
            return self.eval(fn.body, env)
        if isinstance(fn, VBuiltin):
            args = fn.args + (arg,)
            if len(args) < builtin_arity(fn.op):
                return VBuiltin(fn.op, args)
            return self.delta(fn.op, args)
        if isinstance(fn, VFix):
            if not isinstance(arg, _KEYED_ARGS):
                return self.apply(self.fix(fn.fn), arg)
            key = (id(fn.fn), arg)
            if key not in self.calls:
                self.calls[key] = (fn.fn, self.apply(self.fix(fn.fn), arg))
            return self.calls[key][1]
        raise EvalError(f"application of a non-function value: {fn!r}")

    def fix(self, fn: Value) -> Value:
        # call-by-value fix: fn receives a self-reference, VFix(fn)
        if not isinstance(fn, (VClosure, VBuiltin, VFix)):
            raise EvalError("fix of a non-function value")
        self._tick()
        return self.apply(fn, VFix(fn))

    def redseq(self, e: RedSeq, env: Env) -> Value:
        f = self.eval(e.combiner, env)
        n = self.eval(e.count, env)
        g = self.eval(e.generator, env)
        if not isinstance(n, VNat):
            raise EvalError("redseq count did not evaluate to a natural")
        # fold from the zero of the element carrier; the carrier is read
        # off the first generated element
        first = self.apply(g, VNat(0))
        acc = self._zero_like(first)
        for i in range(n.value):
            elem = first if i == 0 else self.apply(g, VNat(i))
            acc = self.apply(self.apply(f, elem), acc)
        return acc

    def _zero_like(self, v: Value) -> Value:
        if isinstance(v, VReal):
            return VReal(from_rational(Fraction(0), self.cfg.precision_bits))
        if isinstance(v, VFloat):
            return VFloat(0.0)
        if isinstance(v, VNat):
            return VNat(0)
        if isinstance(v, VErr):
            return VErr.point(Fraction(0))
        raise EvalError(f"redseq over a carrier without a zero: {v!r}")

    # -- builtin delta rules ------------------------------------------------

    def delta(self, op: str, args: Tuple[Value, ...]) -> Value:
        self._tick()
        p = self.cfg.precision_bits
        if op in ("+r", "-r", "*r", "/r", "sinr", "absr", "dr"):
            encs = []
            for a in args:
                if not isinstance(a, VReal):
                    raise EvalError(f"{op} applied to {a!r}")
                encs.append(a.enc)
            try:
                out = enc.enclose_op(op, encs, p, self.cfg.max_precision_bits)
            except enc.DivisorStraddlesZero as ex:
                raise OracleInconclusive(str(ex))
            if op == "dr":
                return VErr(out.lo, out.hi)
            return VReal(out)
        if op == "leqr":
            x, y = args
            r = compare_leq(x.enc, y.enc)
            if r is Tern.UNKNOWN:
                raise OracleInconclusive(
                    f"comparison undecided at {p} bits")
            return VBool(r is Tern.YES)
        if op == "nat2real":
            (n,) = args
            return VReal(from_rational(Fraction(n.value), p))
        if op in ("+f", "-f", "*f", "/f"):
            x, y = args
            if not (isinstance(x, VFloat) and isinstance(y, VFloat)):
                raise EvalError(f"{op} applied to non-floats")
            if op == "+f":
                return VFloat(x.value + y.value)
            if op == "-f":
                return VFloat(x.value - y.value)
            if op == "*f":
                return VFloat(x.value * y.value)
            return VFloat(ieee_div(x.value, y.value))
        if op == "sinf":
            (x,) = args
            return VFloat(sin_f64(x.value))
        if op == "leqf":
            x, y = args
            return VBool(x.value <= y.value)
        if op == "nat2float":
            (n,) = args
            return VFloat(nearest_float(Fraction(n.value)))
        if op in ("+n", "-n", "*n", "dn", "leqn", "floorK", "ceilK"):
            x, y = args
            a, b = x.value, y.value
            if op == "+n":
                return VNat(a + b)
            if op == "-n":
                return VNat(max(0, a - b))
            if op == "*n":
                return VNat(a * b)
            if op == "dn":
                return VNat(abs(a - b))
            if op == "leqn":
                return VBool(a <= b)
            if b == 0:
                raise EvalError(f"{op} with zero modulus")
            if op == "floorK":
                return VNat(b * (a // b))
            return VNat(b * ((a + b - 1) // b))
        if op == "nat2err":
            (n,) = args
            return VErr.point(Fraction(n.value))
        if op == "+q":
            return err_add(err_of_value(args[0]), err_of_value(args[1]))
        if op == "*q":
            return err_mul(err_of_value(args[0]), err_of_value(args[1]))
        if op in ("+err", "-err", "*err", "/err"):
            xe, xq, ye, yq = args
            return float_op_err(op[0], xe.enc, err_of_value(xq),
                                ye.enc, err_of_value(yq))
        if op == "sinerr":
            xe, xq = args
            q = err_of_value(xq)
            if q.is_infinite:
                return ERR_INF
            # |sin e - sin a| <= min(|e-a|, 2); the vendored sine is
            # correctly rounded, adding at most 2^-53
            ulp = Fraction(1, 1 << 53)
            lo = min(q.lo, Fraction(2)) + ulp
            hi = None if q.hi is None else min(q.hi, Fraction(2)) + ulp
            return VErr(lo, hi)
        if op == "n2rerr":
            n, k = args
            return self._n2rerr(n.value, k.value)
        raise EvalError(f"no evaluation rule for builtin {op}")

    def _n2rerr(self, n: int, k: int) -> VErr:
        # worst |n - real(nat2float m)| over naturals m with |m - n| <= k;
        # float conversion is monotone, so the extremes sit at the ends
        cands = [max(0, n - k), n + k]
        worst = Fraction(0)
        for m in cands:
            f = nearest_float(Fraction(m))
            if math.isinf(f):
                return ERR_INF
            worst = max(worst, abs(Fraction(n) - to_fraction(f)))
        return VErr.point(worst)


# ---------------------------------------------------------------------------
# public entry points

# kept modest: each interpreter level spans several host frames, and the
# limit must trip before the C stack is exhausted
_EVAL_STACK_LIMIT = 2500


def _guarded(run) -> Union[Value, Diverged]:
    # deep fix unrollings recurse through the host stack; exhausting it
    # counts as divergence (the fuel budget usually bites first)
    old = sys.getrecursionlimit()
    if old < _EVAL_STACK_LIMIT:
        sys.setrecursionlimit(_EVAL_STACK_LIMIT)
    try:
        return run()
    except (_Diverge, RecursionError):
        return DIVERGED
    finally:
        if old < _EVAL_STACK_LIMIT:
            sys.setrecursionlimit(old)


def _run(e: Expr, env: Optional[Env], cfg: EvalConfig) -> Union[Value, Diverged]:
    return _guarded(lambda: _Machine(cfg).eval(e, dict(env or {})))


def eval_exact(e: Expr, env: Optional[Env] = None,
               cfg: EvalConfig = EvalConfig()) -> Union[Value, Diverged]:
    """Evaluate over exact reals realized as dyadic enclosures."""
    return _run(e, env, cfg)


def eval_approx(e: Expr, env: Optional[Env] = None,
                cfg: EvalConfig = EvalConfig()) -> Union[Value, Diverged]:
    """Evaluate over binary64 with round-to-nearest-even, bit exactly."""
    return _run(e, env, cfg)


def eval_error(e: Expr, env: Optional[Env] = None,
               cfg: EvalConfig = EvalConfig()) -> Union[Value, Diverged]:
    """Evaluate an error expression; divergence is reported to callers,
    who treat it as the infinite bound."""
    return _run(e, env, cfg)


def bound_of(result: Union[Value, Diverged]) -> VErr:
    """Coerce an error-evaluation outcome to a bound; divergence is the
    infinite bound, which is always sound."""
    if result is DIVERGED:
        return ERR_INF
    return err_of_value(result)


def apply_value(fn: Value, args, cfg: EvalConfig) -> Union[Value, Diverged]:
    """Apply an evaluated function value to evaluated arguments."""
    return _guarded(lambda: reduce(_Machine(cfg).apply, args, fn))
