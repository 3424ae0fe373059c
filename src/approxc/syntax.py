"""AST shared by exact programs, their float approximations, and error bounds.

A single expression type serves all three worlds: binders, application,
fix, conditionals and reductions are common, and the worlds differ only
in which literals and builtin operators they use.  Everything here is
immutable and safe to share across threads.

An expression node that has been evaluated also carries, in its instance
dict, the closure the evaluator staged for it (``interp._code``).  The
cache is outside the dataclass fields, so equality, hashing, repr and
printing ignore it; it never goes stale because the node cannot change.
Two threads staging one node at once build equal closures, and either may
win.  A closure is a local function, so a node that carries one does not
pickle.  Beside it, the compiler's constant folder caches the node's folded
error form (``compiler.fold_err``, key ``_fold``; None when the node folds
to itself), so each error node is folded once however many errors share it.

Parsing, compiling, printing and evaluating walk a program on the host
stack.  One guard, `with_stack_limit`, bounds them all: a walk may use a
fixed number of frames above its caller's depth, so how deeply a program
may nest does not depend on who parses, compiles or evaluates it.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

T = TypeVar("T")

# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class RealT:
    def __str__(self) -> str:
        return "Real"


@dataclass(frozen=True)
class Float64T:
    def __str__(self) -> str:
        return "Float64"


@dataclass(frozen=True)
class NatT:
    def __str__(self) -> str:
        return "Nat"


@dataclass(frozen=True)
class BoolT:
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class UnitT:
    def __str__(self) -> str:
        return "Unit"


@dataclass(frozen=True)
class ErrRealT:
    """Nonnegative reals extended with infinity; the error carrier."""

    def __str__(self) -> str:
        return "ErrReal"


@dataclass(frozen=True)
class Arrow:
    dom: "Ty"
    cod: "Ty"

    def __str__(self) -> str:
        return f"(-> {self.dom} {self.cod})"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Ty"

    def __str__(self) -> str:
        return f"(forall {self.var} {self.body})"


@dataclass(frozen=True)
class TyVar:
    name: str

    def __str__(self) -> str:
        return self.name


Ty = Union[RealT, Float64T, NatT, BoolT, UnitT, ErrRealT, Arrow, Forall, TyVar]

REAL = RealT()
FLOAT64 = Float64T()
NAT = NatT()
BOOL = BoolT()
UNIT = UnitT()
ERRREAL = ErrRealT()


def free_tyvars(t: Ty, bound: frozenset = frozenset()) -> set:
    if isinstance(t, TyVar):
        return set() if t.name in bound else {t.name}
    if isinstance(t, Arrow):
        return free_tyvars(t.dom, bound) | free_tyvars(t.cod, bound)
    if isinstance(t, Forall):
        return free_tyvars(t.body, bound | {t.var})
    return set()


def subst_ty(t: Ty, name: str, repl: Ty) -> Ty:
    """Capture-avoiding substitution of a type for a type variable."""
    if isinstance(t, TyVar):
        return repl if t.name == name else t
    if isinstance(t, Arrow):
        return Arrow(subst_ty(t.dom, name, repl), subst_ty(t.cod, name, repl))
    if isinstance(t, Forall):
        if t.var == name:
            return t
        if t.var in free_tyvars(repl):
            fresh = t.var
            avoid = free_tyvars(repl) | free_tyvars(t.body)
            while fresh in avoid:
                fresh = fresh + "'"
            renamed = subst_ty(t.body, t.var, TyVar(fresh))
            return Forall(fresh, subst_ty(renamed, name, repl))
        return Forall(t.var, subst_ty(t.body, name, repl))
    return t


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    binder: str
    annot: Ty
    body: "Expr"


@dataclass(frozen=True)
class App:
    fn: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class TyLam:
    tyvar: str
    body: "Expr"


@dataclass(frozen=True)
class TyApp:
    expr: "Expr"
    ty: Ty


@dataclass(frozen=True)
class Fix:
    expr: "Expr"


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then_e: "Expr"
    else_e: "Expr"


@dataclass(frozen=True)
class RealLit:
    """Exact rational real literal; never a binary64."""

    value: Fraction


@dataclass(frozen=True)
class NatLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class FloatLit:
    """Binary64 literal, stored as the exact bit pattern."""

    bits: int

    @staticmethod
    def of(x: float) -> "FloatLit":
        return FloatLit(struct.unpack(">Q", struct.pack(">d", x))[0])

    @property
    def value(self) -> float:
        return struct.unpack(">d", struct.pack(">Q", self.bits))[0]


@dataclass(frozen=True)
class ErrLit:
    """Nonnegative rational error literal; None means infinity."""

    value: Optional[Fraction]

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise ValueError("error literals are nonnegative")


@dataclass(frozen=True)
class Builtin:
    """Builtin operator application; fewer args than the arity is a
    partial application and is a first-class value."""

    op: str
    args: Tuple["Expr", ...] = ()


@dataclass(frozen=True)
class RedSeq:
    """redseq f n g folds g(0) .. g(n-1) with f, starting from the
    zero of the element carrier (0, 0.0, or the empty error)."""

    combiner: "Expr"
    count: "Expr"
    generator: "Expr"


Expr = Union[
    Var, Lam, App, TyLam, TyApp, Fix, If,
    RealLit, NatLit, BoolLit, FloatLit, ErrLit,
    Builtin, RedSeq,
]


# ---------------------------------------------------------------------------
# Builtin registry

def _sig(*tys: Ty) -> Tuple[Tuple[Ty, ...], Ty]:
    return tuple(tys[:-1]), tys[-1]


#: op name -> (argument types, result type)
BUILTINS = {
    # exact reals
    "+r": _sig(REAL, REAL, REAL),
    "-r": _sig(REAL, REAL, REAL),
    "*r": _sig(REAL, REAL, REAL),
    "/r": _sig(REAL, REAL, REAL),
    "sinr": _sig(REAL, REAL),
    "absr": _sig(REAL, REAL),
    "leqr": _sig(REAL, REAL, BOOL),
    "dr": _sig(REAL, REAL, ERRREAL),
    "nat2real": _sig(NAT, REAL),
    # binary64
    "+f": _sig(FLOAT64, FLOAT64, FLOAT64),
    "-f": _sig(FLOAT64, FLOAT64, FLOAT64),
    "*f": _sig(FLOAT64, FLOAT64, FLOAT64),
    "/f": _sig(FLOAT64, FLOAT64, FLOAT64),
    "sinf": _sig(FLOAT64, FLOAT64),
    "leqf": _sig(FLOAT64, FLOAT64, BOOL),
    "nat2float": _sig(NAT, FLOAT64),
    # naturals
    "+n": _sig(NAT, NAT, NAT),
    "-n": _sig(NAT, NAT, NAT),          # truncated subtraction
    "*n": _sig(NAT, NAT, NAT),
    "dn": _sig(NAT, NAT, NAT),          # absolute difference
    "leqn": _sig(NAT, NAT, BOOL),
    "floorK": _sig(NAT, NAT, NAT),      # (floorK x k) = k * (x div k)
    "ceilK": _sig(NAT, NAT, NAT),
    "nat2err": _sig(NAT, ERRREAL),
    # error-level arithmetic
    "+q": _sig(ERRREAL, ERRREAL, ERRREAL),
    "*q": _sig(ERRREAL, ERRREAL, ERRREAL),
    "maxq": _sig(ERRREAL, ERRREAL, ERRREAL),
    # interval rounding-error bounds for the lowered float ops
    "+err": _sig(REAL, ERRREAL, REAL, ERRREAL, ERRREAL),
    "-err": _sig(REAL, ERRREAL, REAL, ERRREAL, ERRREAL),
    "*err": _sig(REAL, ERRREAL, REAL, ERRREAL, ERRREAL),
    "/err": _sig(REAL, ERRREAL, REAL, ERRREAL, ERRREAL),
    "sinerr": _sig(REAL, ERRREAL, ERRREAL),
    "n2rerr": _sig(NAT, NAT, ERRREAL),
}


def builtin_arity(op: str) -> int:
    return len(BUILTINS[op][0])


# ---------------------------------------------------------------------------
# Child table: the one place that knows each node's subexpressions

def children(e: Expr) -> Tuple[Expr, ...]:
    """The direct subexpressions of a node, in source order."""
    t = type(e)
    if t is App:
        return (e.fn, e.arg)
    if t is Lam or t is TyLam:
        return (e.body,)
    if t is TyApp or t is Fix:
        return (e.expr,)
    if t is If:
        return (e.cond, e.then_e, e.else_e)
    if t is Builtin:
        return e.args
    if t is RedSeq:
        return (e.combiner, e.count, e.generator)
    return ()


def map_children(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """The node rebuilt with f applied to each direct subexpression, or e
    itself when f returns every child unchanged, so sharing survives."""
    t = type(e)
    if t is App:
        fn, arg = f(e.fn), f(e.arg)
        return e if fn is e.fn and arg is e.arg else App(fn, arg)
    if t is Lam:
        body = f(e.body)
        return e if body is e.body else Lam(e.binder, e.annot, body)
    if t is TyLam:
        body = f(e.body)
        return e if body is e.body else TyLam(e.tyvar, body)
    if t is TyApp:
        inner = f(e.expr)
        return e if inner is e.expr else TyApp(inner, e.ty)
    if t is Fix:
        inner = f(e.expr)
        return e if inner is e.expr else Fix(inner)
    if t is If:
        c, a, b = f(e.cond), f(e.then_e), f(e.else_e)
        if c is e.cond and a is e.then_e and b is e.else_e:
            return e
        return If(c, a, b)
    if t is Builtin:
        args = tuple([f(a) for a in e.args])
        if all(a is b for a, b in zip(args, e.args)):
            return e
        return Builtin(e.op, args)
    if t is RedSeq:
        c, n, g = f(e.combiner), f(e.count), f(e.generator)
        if c is e.combiner and n is e.count and g is e.generator:
            return e
        return RedSeq(c, n, g)
    return e


# ---------------------------------------------------------------------------
# Host stack for the recursive walks over a program

#: host frames that parsing, compiling and printing a program may use; they
#: recurse one to a few frames per level of nesting, so a right-nested
#: chain of +r compiles to about 750 levels and parses to about 1,500
NESTING_STACK_LIMIT = 1500

_depth_hint = 0


def _stack_depth() -> int:
    """The number of host frames under this one.  Walks mostly start at
    about the depth of the last one, so the count starts there when the
    stack is that deep."""
    global _depth_hint
    try:
        f, n = sys._getframe(_depth_hint), _depth_hint
    except ValueError:
        f, n = sys._getframe(), 0
    while f.f_back is not None:
        f, n = f.f_back, n + 1
    _depth_hint = n
    return n


def with_stack_limit(frames: int, run: Callable[[], T]) -> T:
    """run() with the host recursion limit set `frames` frames above the
    caller's depth.  The caller turns the RecursionError of a walk that
    still runs out into its own typed outcome."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + frames)
    try:
        return run()
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Free variables and substitution

def free_vars(e: Expr) -> set:
    if type(e) is Var:
        return {e.name}
    out = set()
    for c in children(e):
        out |= free_vars(c)
    if type(e) is Lam:
        out.discard(e.binder)
    return out


_FRESH_SEP = "%"


def unshared(e: Expr) -> Expr:
    """A copy of e whose every node is a new object."""
    return map_children(e, unshared) if children(e) else replace(e)


def fresh_name(base: str, avoid: set) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{_FRESH_SEP}{i}" in avoid:
        i += 1
    return f"{base}{_FRESH_SEP}{i}"


def subst(e: Expr, name: str, repl: Expr) -> Expr:
    """Capture-avoiding substitution of an expression for a variable."""
    if type(e) is Var:
        return repl if e.name == name else e
    if type(e) is Lam:
        if e.binder == name:
            return e
        if e.binder in free_vars(repl):
            nb = fresh_name(e.binder, free_vars(repl) | free_vars(e.body) | {name})
            body = subst(e.body, e.binder, Var(nb))
            return Lam(nb, e.annot, subst(body, name, repl))
    return map_children(e, lambda c: subst(c, name, repl))


# ---------------------------------------------------------------------------
# Printing back to surface syntax

def _frac_to_source(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def to_source(e: Expr, memo: Optional[Dict[int, str]] = None) -> str:
    """Render an expression in the s-expression surface grammar.

    Rational literals print as p/q so they re-parse exactly.  Float
    literals print as the shortest round-trip decimal; errors print as
    (err p/q) or inf.

    Each node object is printed once per memo, which maps its id to its
    text.  A caller that prints one document of several expressions passes
    one memo and keeps every printed node alive while the memo is in use,
    so no id is reused.  The walk takes one host frame per nesting level.
    """
    t = type(e)
    if t is Var:
        return e.name
    if memo is None:
        memo = {}
    s = memo.get(id(e))
    if s is not None:
        return s
    if t is Builtin:
        parts = [e.op]
        for a in e.args:
            parts.append(to_source(a, memo))
        s = f"({' '.join(parts)})" if e.args else e.op
    elif t is RealLit:
        s = _frac_to_source(e.value)
    elif t is Lam:
        s = f"(lam ({e.binder} {e.annot}) {to_source(e.body, memo)})"
    elif t is App:
        s = f"(app {to_source(e.fn, memo)} {to_source(e.arg, memo)})"
    elif t is FloatLit:
        s = repr(e.value)
    elif t is ErrLit:
        s = "inf" if e.value is None else f"(err {_frac_to_source(e.value)})"
    elif t is NatLit:
        s = str(e.value)
    elif t is RedSeq:
        s = (f"(redseq {to_source(e.combiner, memo)} {to_source(e.count, memo)} "
             f"{to_source(e.generator, memo)})")
    elif t is If:
        s = (f"(if {to_source(e.cond, memo)} {to_source(e.then_e, memo)} "
             f"{to_source(e.else_e, memo)})")
    elif t is Fix:
        s = f"(fix {to_source(e.expr, memo)})"
    elif t is TyLam:
        s = f"(tlam {e.tyvar} {to_source(e.body, memo)})"
    elif t is TyApp:
        s = f"(tyapp {to_source(e.expr, memo)} {e.ty})"
    elif t is BoolLit:
        s = "true" if e.value else "false"
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[id(e)] = s
    return s
