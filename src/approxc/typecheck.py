"""Kinding and typing for the explicitly-annotated calculus.

Binder annotations keep the judgment syntax-directed, so no unification
is needed; the result type of a well-typed term is unique.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .syntax import (
    BOOL, BUILTINS, ERRREAL, FLOAT64, NAT, REAL,
    App, Arrow, BoolLit, Builtin, ErrLit, Expr, Fix, FloatLit,
    Forall, If, Lam, NatLit, RealLit, RedSeq, Ty, TyApp, TyLam, TyVar,
    Var, subst_ty,
)


class TypeError_(Exception):
    pass


class UnboundVariable(TypeError_):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class UnboundTypeVariable(TypeError_):
    def __init__(self, name: str):
        super().__init__(f"unbound type variable: {name}")
        self.name = name


class KindError(TypeError_):
    pass


class TypeMismatch(TypeError_):
    def __init__(self, expected, found, location: str = ""):
        where = f" in {location}" if location else ""
        super().__init__(f"expected {expected}, found {found}{where}")
        self.expected = expected
        self.found = found
        self.location = location


class SharedNode(TypeError_):
    """One node object at two places of different types."""


@dataclass(frozen=True)
class TyCtx:
    """Ordered bindings; lookup respects shadowing by the latest binding."""

    vars: Tuple[Tuple[str, Ty], ...] = ()
    tyvars: Tuple[str, ...] = ()

    def bind(self, name: str, ty: Ty) -> "TyCtx":
        return TyCtx(self.vars + ((name, ty),), self.tyvars)

    def bind_tyvar(self, name: str) -> "TyCtx":
        return TyCtx(self.vars, self.tyvars + (name,))

    def lookup(self, name: str) -> Optional[Ty]:
        for n, t in reversed(self.vars):
            if n == name:
                return t
        return None

    def has_tyvar(self, name: str) -> bool:
        return name in self.tyvars


def kind_check(ctx: TyCtx, t: Ty) -> None:
    """Well-formedness: every type variable must be in scope."""
    if isinstance(t, TyVar):
        if not ctx.has_tyvar(t.name):
            raise UnboundTypeVariable(t.name)
        return
    if isinstance(t, Arrow):
        kind_check(ctx, t.dom)
        kind_check(ctx, t.cod)
        return
    if isinstance(t, Forall):
        kind_check(ctx.bind_tyvar(t.var), t.body)
        return
    # base types are always well-kinded


def infer_type(ctx: TyCtx, e: Expr,
               types: Optional[Dict[int, Ty]] = None) -> Ty:
    """The type of e under ctx; given a table, the type of e and of each
    of its subterms is recorded in it too, keyed by id(node).  A node
    object that two places of different types share raises SharedNode."""
    if isinstance(e, Var):
        t = ctx.lookup(e.name)
        if t is None:
            raise UnboundVariable(e.name)
    elif isinstance(e, Lam):
        kind_check(ctx, e.annot)
        t = Arrow(e.annot, infer_type(ctx.bind(e.binder, e.annot), e.body, types))
    elif isinstance(e, App):
        fn_t = infer_type(ctx, e.fn, types)
        arg_t = infer_type(ctx, e.arg, types)
        if not isinstance(fn_t, Arrow):
            raise TypeMismatch("a function type", fn_t, "application head")
        if fn_t.dom != arg_t:
            raise TypeMismatch(fn_t.dom, arg_t, "application argument")
        t = fn_t.cod
    elif isinstance(e, TyLam):
        t = Forall(e.tyvar, infer_type(ctx.bind_tyvar(e.tyvar), e.body, types))
    elif isinstance(e, TyApp):
        fn_t = infer_type(ctx, e.expr, types)
        if not isinstance(fn_t, Forall):
            raise KindError(f"type application of non-universal type {fn_t}")
        kind_check(ctx, e.ty)
        t = subst_ty(fn_t.body, fn_t.var, e.ty)
    elif isinstance(e, Fix):
        t = infer_type(ctx, e.expr, types)
        if not isinstance(t, Arrow) or t.dom != t.cod:
            raise TypeMismatch("a type of shape (-> t t)", t, "fix")
        t = t.dom
    elif isinstance(e, If):
        ct = infer_type(ctx, e.cond, types)
        if ct != BOOL:
            raise TypeMismatch(BOOL, ct, "if condition")
        t = infer_type(ctx, e.then_e, types)
        ft = infer_type(ctx, e.else_e, types)
        if t != ft:
            raise TypeMismatch(t, ft, "if branches")
    elif isinstance(e, RealLit):
        t = REAL
    elif isinstance(e, NatLit):
        t = NAT
    elif isinstance(e, BoolLit):
        t = BOOL
    elif isinstance(e, FloatLit):
        t = FLOAT64
    elif isinstance(e, ErrLit):
        t = ERRREAL
    elif isinstance(e, Builtin):
        if e.op not in BUILTINS:
            raise TypeError_(f"unregistered builtin: {e.op}")
        arg_tys, res = BUILTINS[e.op]
        if len(e.args) > len(arg_tys):
            raise TypeMismatch(f"at most {len(arg_tys)} arguments", len(e.args), e.op)
        for i, a in enumerate(e.args):
            at = infer_type(ctx, a, types)
            if at != arg_tys[i]:
                raise TypeMismatch(arg_tys[i], at, f"argument {i + 1} of {e.op}")
        t = res
        for rest in reversed(arg_tys[len(e.args):]):
            t = Arrow(rest, t)
    elif isinstance(e, RedSeq):
        nt = infer_type(ctx, e.count, types)
        if nt != NAT:
            raise TypeMismatch(NAT, nt, "redseq count")
        gt = infer_type(ctx, e.generator, types)
        if not isinstance(gt, Arrow) or gt.dom != NAT:
            raise TypeMismatch("(-> Nat t)", gt, "redseq generator")
        t = gt.cod
        ft = infer_type(ctx, e.combiner, types)
        if ft != Arrow(t, Arrow(t, t)):
            raise TypeMismatch(Arrow(t, Arrow(t, t)), ft, "redseq combiner")
    else:
        raise TypeError_(f"not an expression: {e!r}")
    if types is not None:
        u = types.setdefault(id(e), t)
        if u is not t and u != t:
            raise SharedNode(f"one {type(e).__name__} node typed {u} and {t}")
    return t
