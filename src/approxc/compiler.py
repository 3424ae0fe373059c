"""Approximate compilation: syntax-directed transformation of exact
programs into float programs together with a machine-evaluable error
expression and a derivation trace.

Each structural construct is approximated by itself while its error is
synthesized compositionally; the leaf transformations are real-to-float
lowering of literals and builtins, the optional sine-by-identity
substitution, and loop perforation on reductions.  Side conditions that
the rules require are validated by seeded sampling and recorded on the
derivation, never assumed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import enclosure as enc
from .enclosure import from_rational
from .families import (
    BOOL_A, FL, NAT_A, ApproxCtx, ApproxTy, BoolBase, Constraint, FlBase,
    NatBase, Pi, PiTy, TyTriple, ValTriple, VarBase, Verdict, approx_ty,
    ctx_exact, err_ty, exact_ty, family_from_type,
    family_source, instantiate_poly, plus_apply, plus_lambda,
    sample_member_triple, same_family, zero_expr,
)
from .floats import nearest_float, to_fraction
from .interp import (
    DIVERGED, EvalConfig, VBool, VFloat, Value,
    bound_of, eval_approx, eval_error, eval_exact, err_of_value,
    float_op_err,  # re-exported: part of this module's public surface
)
from .quant import LeqVerdict, scalar_err_leq
from .sampling import trial_rng
from .syntax import (
    ERRREAL, FLOAT64, NAT, REAL,
    App, Arrow, BoolLit, Bottom, Builtin, ErrLit, Expr, Fix, FloatLit,
    Forall, If, Lam, NatLit, RealLit, RedSeq, Ty, TyApp, TyLam, TyVar,
    Var, children, free_vars, map_children, to_source,
)
from .typecheck import TyCtx, TypeMismatch, infer_type


class CompileError(Exception):
    pass


class NoRuleApplies(CompileError):
    def __init__(self, msg: str, at: str = ""):
        super().__init__(f"{msg}" + (f" at {at}" if at else ""))


class SideConditionFailed(CompileError):
    def __init__(self, description: str, counterexample: Optional[dict] = None):
        super().__init__(description)
        self.description = description
        self.counterexample = counterexample


class Unsupported(CompileError):
    pass


@dataclass(frozen=True)
class CompileOpts:
    enable_sin_subst: bool = False
    perforation: Mapping[str, int] = field(default_factory=dict)
    weaken_to: Optional[Expr] = None
    sample_budget_for_side_conditions: int = 32
    seed: int = 42
    cfg: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        for site, k in self.perforation.items():
            if k < 1:
                raise ValueError(f"perforation factor at {site} must be >= 1")


@dataclass
class SideCondition:
    description: str
    verdict: Verdict


@dataclass
class Derivation:
    rule: str
    exact: Expr
    approx: Expr
    err: Expr
    family: ApproxTy
    premises: List["Derivation"] = field(default_factory=list)
    side_conditions: List[SideCondition] = field(default_factory=list)
    site: Optional[str] = None

    def to_doc(self) -> dict:
        doc = {
            "rule": self.rule,
            "exact": _src(self.exact),
            "approx": _src(self.approx),
            "err": _src(self.err),
            "family": family_source(self.family),
            "premises": [p.to_doc() for p in self.premises],
        }
        if self.site is not None:
            doc["site"] = self.site
        if self.side_conditions:
            doc["side_conditions"] = [
                {"description": sc.description,
                 "verdict": json.loads(sc.verdict.to_json())}
                for sc in self.side_conditions]
        return doc


def _src(e: Expr) -> str:
    try:
        return to_source(e)
    except ValueError:
        return "<bottom>"


@dataclass
class CompileResult:
    approx: Expr
    err: Expr
    family: ApproxTy
    derivation: Derivation

    def derivation_json(self) -> str:
        return json.dumps({"schema": "derivation/v1",
                           "derivation": self.derivation.to_doc()},
                          sort_keys=True)


# ---------------------------------------------------------------------------
# small constant folder for error expressions

def fold_err(e: Expr) -> Expr:
    e = map_children(e, fold_err)
    if type(e) is Builtin and len(e.args) == 2:
        a, b = e.args
        if e.op == "+n":
            if isinstance(a, NatLit) and isinstance(b, NatLit):
                return NatLit(a.value + b.value)
            if isinstance(a, NatLit) and a.value == 0:
                return b
            if isinstance(b, NatLit) and b.value == 0:
                return a
        if e.op == "*n":
            if isinstance(a, NatLit) and isinstance(b, NatLit):
                return NatLit(a.value * b.value)
            if (isinstance(a, NatLit) and a.value == 0) or \
               (isinstance(b, NatLit) and b.value == 0):
                return NatLit(0)
            if isinstance(a, NatLit) and a.value == 1:
                return b
            if isinstance(b, NatLit) and b.value == 1:
                return a
        if e.op == "+q":
            if isinstance(a, ErrLit) and isinstance(b, ErrLit):
                if a.value is None or b.value is None:
                    return ErrLit(None)
                return ErrLit(a.value + b.value)
            if isinstance(a, ErrLit) and a.value == 0:
                return b
            if isinstance(b, ErrLit) and b.value == 0:
                return a
        if e.op == "*q":
            if isinstance(a, ErrLit) and a.value == 1:
                return b
    return e


def _is_zero_err(e: Expr) -> bool:
    e = fold_err(e)
    return (isinstance(e, NatLit) and e.value == 0) or \
        (isinstance(e, ErrLit) and e.value == 0)


# ---------------------------------------------------------------------------
# builtin leaf table

_OP_LOWER = {"+r": "+f", "-r": "-f", "*r": "*f", "/r": "/f"}
_OP_ERR = {"+r": "+err", "-r": "-err", "*r": "*err", "/r": "/err"}


def _binary_real_leaf(op: str) -> Tuple[ApproxTy, Expr, Expr]:
    fam = Pi("xe", "xa", "xq", FL, Pi("ye", "ya", "yq", FL, FL))
    approx = Builtin(_OP_LOWER[op], ())
    err = Lam("xe", REAL, Lam("xq", ERRREAL, Lam("ye", REAL, Lam(
        "yq", ERRREAL,
        Builtin(_OP_ERR[op], (Var("xe"), Var("xq"), Var("ye"), Var("yq")))))))
    return fam, approx, err


def _sin_leaf(subst: bool) -> Tuple[ApproxTy, Expr, Expr, str]:
    fam = Pi("xe", "xa", "xq", FL, FL)
    if subst:
        approx: Expr = Lam("x", FLOAT64, Var("x"))
        err = Lam("xe", REAL, Lam("xq", ERRREAL, Builtin("+q", (
            Var("xq"), Builtin("dr", (Var("xe"), Builtin("sinr", (Var("xe"),))))))))
        return fam, approx, err, "R-SinSubst"
    approx = Builtin("sinf", ())
    err = Lam("xe", REAL, Lam("xq", ERRREAL,
                              Builtin("sinerr", (Var("xe"), Var("xq")))))
    return fam, approx, err, "R-Op"


def _nat2real_leaf() -> Tuple[ApproxTy, Expr, Expr]:
    fam = Pi("ne", "na", "nq", NAT_A, FL)
    approx = Builtin("nat2float", ())
    err = Lam("ne", NAT, Lam("nq", NAT,
                             Builtin("n2rerr", (Var("ne"), Var("nq")))))
    return fam, approx, err


def _nat_op_leaf(op: str) -> Tuple[ApproxTy, Expr, Expr]:
    fam = Pi("ne", "na", "nq", NAT_A, Pi("me", "ma", "mq", NAT_A, NAT_A))
    if op in ("+n", "-n"):
        body: Expr = Builtin("+n", (Var("nq"), Var("mq")))
    elif op == "*n":
        # |a*b - a'*b'| <= b*k + (a+k)*j for |a-a'| <= k, |b-b'| <= j
        body = Builtin("+n", (
            Builtin("*n", (Var("nq"), Var("me"))),
            Builtin("*n", (Var("mq"), Builtin("+n", (Var("ne"), Var("nq")))))))
    else:
        raise NoRuleApplies(f"no float lowering for {op}")
    err = Lam("ne", NAT, Lam("nq", NAT, Lam("me", NAT, Lam("mq", NAT, body))))
    return fam, Builtin(op, ()), err


# ---------------------------------------------------------------------------
# the compiler

class Compiler:
    def __init__(self, opts: CompileOpts):
        self.opts = opts
        self.cfg = opts.cfg
        self._site_counter = 0
        self._sample_counter = 0
        self._fresh_counter = 0

    # -- naming ------------------------------------------------------------

    def _names_for(self, base: str, ctx: ApproxCtx, *extra_avoid) -> Tuple[str, str]:
        avoid = ctx.names()
        for s in extra_avoid:
            avoid |= s
        xa, xq = base + "_a", base + "_q"
        while xa in avoid or xq in avoid:
            self._fresh_counter += 1
            xa = f"{base}_a{self._fresh_counter}"
            xq = f"{base}_q{self._fresh_counter}"
        return xa, xq

    def _next_site(self) -> str:
        label = f"L{self._site_counter}"
        self._site_counter += 1
        return label

    def _rng(self):
        self._sample_counter += 1
        return trial_rng(self.opts.seed, self._sample_counter)

    # -- satisfying substitutions -------------------------------------------

    def _sample_envs(self, ctx: ApproxCtx):
        """One sampled substitution satisfying the context, as value
        environments for the exact, approximate, and error worlds.
        Returns None when some entry cannot be sampled or evaluated."""
        rng = self._rng()
        env_e: Dict[str, Value] = {}
        env_a: Dict[str, Value] = {}
        env_q: Dict[str, Value] = {}
        tymap: Dict[str, ApproxTy] = {}

        def resolve(famly: ApproxTy) -> ApproxTy:
            if isinstance(famly, VarBase) and famly.xe in tymap:
                return tymap[famly.xe]
            if isinstance(famly, Pi):
                return Pi(famly.xe, famly.xa, famly.xq,
                          resolve(famly.fam), resolve(famly.body))
            return famly

        for en in ctx.entries:
            if isinstance(en, TyTriple):
                base: ApproxTy = FL if rng.randrange(2) == 0 else NAT_A
                tymap[en.xe] = base
                z0 = eval_error(zero_expr(base), cfg=self.cfg)
                zp = eval_error(plus_lambda(base), cfg=self.cfg)
                if z0 is DIVERGED or zp is DIVERGED:
                    return None
                env_q[en.z0] = z0
                env_q[en.zp] = zp
                continue
            if isinstance(en, Constraint):
                continue
            fam = resolve(en.family)
            if en.pinned is not None:
                pe, pa, pq = en.pinned
                if pe is None:
                    return None
                ve = eval_exact(pe, dict(env_e), self.cfg)
                if ve is DIVERGED:
                    return None
                env_e[en.xe] = ve
                if pa is not None:
                    va = eval_approx(pa, dict(env_a), self.cfg)
                    if va is DIVERGED:
                        return None
                    env_a[en.xa] = va
                if pq is not None:
                    vq = eval_error(pq, dict(env_q) | dict(env_e), self.cfg)
                    if vq is DIVERGED:
                        return None
                    env_q[en.xq] = vq
                continue
            trip = sample_member_triple(fam, rng)
            if trip is None:
                return None
            ee, ea, eq = trip
            ve = eval_exact(ee, {}, self.cfg)
            va = eval_approx(ea, {}, self.cfg)
            vq = eval_error(eq, {}, self.cfg)
            if ve is DIVERGED or va is DIVERGED or vq is DIVERGED:
                return None
            env_e[en.xe] = ve
            env_a[en.xa] = va
            env_q[en.xq] = vq
        # error expressions reference exact variables too
        env_q = dict(env_q) | dict(env_e)
        return env_e, env_a, env_q

    # -- entry point ---------------------------------------------------------

    def compile(self, ctx: ApproxCtx, e: Expr, target: ApproxTy) -> CompileResult:
        if isinstance(e, Var):
            return self._var(ctx, e, target)
        if isinstance(e, Lam):
            return self._lam(ctx, e, target)
        if isinstance(e, App):
            return self._app(ctx, e, target)
        if isinstance(e, TyLam):
            return self._tylam(ctx, e, target)
        if isinstance(e, TyApp):
            return self._tyapp(ctx, e, target)
        if isinstance(e, Fix):
            return self._fix(ctx, e, target)
        if isinstance(e, If):
            return self._if(ctx, e, target)
        if isinstance(e, RealLit):
            return self._real_lit(ctx, e, target)
        if isinstance(e, NatLit):
            return self._scalar_lit(ctx, e, target, NAT_A)
        if isinstance(e, BoolLit):
            return self._scalar_lit(ctx, e, target, BOOL_A)
        if isinstance(e, Builtin):
            return self._builtin(ctx, e, target)
        if isinstance(e, RedSeq):
            return self._redseq(ctx, e, target)
        if isinstance(e, Bottom):
            d = Derivation("R-Lit", e, Bottom(approx_ty(target)),
                           zero_expr(target), target)
            return CompileResult(d.approx, d.err, target, d)
        raise NoRuleApplies(f"no rule for {type(e).__name__}", _src(e))

    # -- structural rules -----------------------------------------------------

    def _var(self, ctx: ApproxCtx, e: Var, target: ApproxTy) -> CompileResult:
        trip = ctx.lookup(e.name)
        if trip is None:
            raise NoRuleApplies(f"variable {e.name} has no approximation triple")
        if not same_family(trip.family, target):
            raise TypeMismatch(family_source(target), family_source(trip.family),
                               f"variable {e.name}")
        d = Derivation("A-Var", e, Var(trip.xa), Var(trip.xq), target)
        return CompileResult(d.approx, d.err, target, d)

    def _lam(self, ctx: ApproxCtx, e: Lam, target: ApproxTy,
             pin: Optional[Tuple[Optional[Expr], Optional[Expr], Optional[Expr]]] = None
             ) -> CompileResult:
        if not isinstance(target, Pi):
            raise TypeMismatch("a function family", family_source(target), _src(e))
        xa, xq = self._names_for(e.binder, ctx, free_vars(e.body))
        trip = ValTriple(e.binder, xa, xq, target.fam, pinned=pin)
        inner = self.compile(ctx.extend(trip), e.body, target.body)
        approx = Lam(xa, approx_ty(target.fam), inner.approx)
        err = Lam(e.binder, exact_ty(target.fam),
                  Lam(xq, err_ty(target.fam), inner.err))
        fam = Pi(e.binder, xa, xq, target.fam, target.body)
        d = Derivation("A-Lam", e, approx, err, fam, premises=[inner.derivation])
        return CompileResult(approx, err, fam, d)

    def _arg_family(self, ctx: ApproxCtx, arg: Expr) -> ApproxTy:
        return family_from_type(infer_type(ctx_exact(ctx), arg),
                                self._tymap(ctx))

    def _app(self, ctx: ApproxCtx, e: App, target: ApproxTy) -> CompileResult:
        arg_fam = self._arg_family(ctx, e.arg)
        fn_target = Pi("x", "x_a", "x_q", arg_fam, target)
        r1 = self.compile(ctx, e.fn, fn_target)
        r2 = self.compile(ctx, e.arg, arg_fam)
        approx = App(r1.approx, r2.approx)
        err = fold_err(App(App(r1.err, e.arg), r2.err))
        d = Derivation("A-App", e, approx, err, target,
                       premises=[r1.derivation, r2.derivation])
        return CompileResult(approx, err, target, d)

    def _tylam(self, ctx: ApproxCtx, e: TyLam, target: ApproxTy) -> CompileResult:
        if not isinstance(target, PiTy) or target.xe != e.tyvar:
            raise TypeMismatch("a polymorphic family matching the binder",
                               family_source(target), _src(e))
        entry = TyTriple(target.xe, target.xa, target.xq, target.z0, target.zp)
        inner = self.compile(ctx.extend(entry), e.body, target.body)
        approx = TyLam(target.xa, inner.approx)
        qv = TyVar(target.xq)
        err = TyLam(target.xe, TyLam(target.xq, Lam(
            target.z0, qv, Lam(target.zp, Arrow(qv, Arrow(qv, qv)), inner.err))))
        d = Derivation("A-TLam", e, approx, err, target,
                       premises=[inner.derivation])
        return CompileResult(approx, err, target, d)

    def _tyapp(self, ctx: ApproxCtx, e: TyApp, target: ApproxTy) -> CompileResult:
        fam = self._concrete_family(e.ty)
        fn_ty = infer_type(ctx_exact(ctx), e.expr)
        if not isinstance(fn_ty, Forall):
            raise TypeMismatch("a universal type", fn_ty, _src(e))
        xa, xq = fn_ty.var + "_a", fn_ty.var + "_q"
        z0, zp = "z0_" + fn_ty.var, "zp_" + fn_ty.var
        vb = VarBase(fn_ty.var, xa, xq, z0, zp)
        body_fam = family_from_type(fn_ty.body, self._tymap(ctx) | {fn_ty.var: vb})
        pt = PiTy(fn_ty.var, xa, xq, z0, zp, body_fam)
        r1 = self.compile(ctx, e.expr, pt)
        out_fam = instantiate_poly(pt, fam)
        if not same_family(out_fam, target):
            raise TypeMismatch(family_source(target), family_source(out_fam),
                               _src(e))
        approx = TyApp(r1.approx, approx_ty(fam))
        err = App(App(TyApp(TyApp(r1.err, exact_ty(fam)), err_ty(fam)),
                      zero_expr(fam)), plus_lambda(fam))
        d = Derivation("A-TApp", e, approx, err, target,
                       premises=[r1.derivation])
        return CompileResult(approx, err, target, d)

    def _tymap(self, ctx: ApproxCtx) -> Dict[str, VarBase]:
        out: Dict[str, VarBase] = {}
        for en in ctx.entries:
            if isinstance(en, TyTriple):
                out[en.xe] = VarBase(en.xe, en.xa, en.xq, en.z0, en.zp)
        return out

    def _concrete_family(self, ty: Ty) -> ApproxTy:
        try:
            return family_from_type(ty)
        except TypeError:
            raise NoRuleApplies(f"type application at {ty} is not the exact "
                                "type of a known family")

    def _fix(self, ctx: ApproxCtx, e: Fix, target: ApproxTy) -> CompileResult:
        # the premise compiles under the assumption that the bound
        # variable equals the fixpoint being built
        if not isinstance(e.expr, Lam):
            raise Unsupported("fix is supported on literal lambdas")
        pin = (e, None, None)  # exact side is known up front
        inner = self._lam(ctx, e.expr, Pi("x", "x_a", "x_q", target, target),
                          pin=pin)
        approx = Fix(inner.approx)
        err = Fix(App(inner.err, e))
        d = Derivation("A-Fix", e, approx, err, target,
                       premises=[inner.derivation])
        d.side_conditions.append(SideCondition(
            "fix premise compiled under the fixpoint-equality assumption",
            Verdict(status="pass", reason="recorded assumption")))
        return CompileResult(approx, err, target, d)

    # -- conditionals ----------------------------------------------------------

    def _if(self, ctx: ApproxCtx, e: If, target: ApproxTy) -> CompileResult:
        rc = self.compile(ctx, e.cond, BOOL_A)
        rt = self.compile(ctx, e.then_e, target)
        rf = self.compile(ctx, e.else_e, target)
        approx = If(rc.approx, rt.approx, rf.approx)
        budget = self.opts.sample_budget_for_side_conditions

        agree, agree_rec = self._sample_condition_agreement(ctx, e.cond, rc, budget)

        side: List[SideCondition] = []
        if agree and agree_rec["samples"] > 0:
            # both sides take the same branch, so the error can follow
            # the exact condition; this also gives recursive errors the
            # same base case as the value recursion
            q = fold_err(If(e.cond, rt.err, rf.err))
            side.append(SideCondition(
                "condition error evaluates to zero and exact/approximate "
                "conditions agree on sampled substitutions",
                Verdict(status="pass", trials=agree_rec["samples"],
                        passes=agree_rec["samples"], on_samples=True)))
        else:
            if not isinstance(target, (FlBase, NatBase, BoolBase)):
                raise Unsupported(
                    "cross-branch error estimation needs a scalar family")
            q_cross, est_rec = self._estimate_cross_error(
                ctx, e, rc, rt, rf, target, budget)
            side.append(SideCondition(
                "cross-branch error estimated from sampled disagreeing "
                "substitutions and validated on fresh samples",
                Verdict(status="pass", trials=est_rec["samples"],
                        passes=est_rec["samples"], on_samples=True,
                        reason=est_rec["note"])))
            q = plus_apply(target, rt.err, rf.err)
            if not _is_zero_err(q_cross):
                q = plus_apply(target, q, q_cross)
            q = fold_err(q)
        d = Derivation("A-If", e, approx, q, target,
                       premises=[rc.derivation, rt.derivation, rf.derivation],
                       side_conditions=side)
        return CompileResult(approx, q, target, d)

    def _sample_condition_agreement(self, ctx: ApproxCtx, cond: Expr,
                                    rc: CompileResult, budget: int):
        from .interp import EvalError
        samples = 0
        for _ in range(budget):
            envs = self._sample_envs(ctx)
            if envs is None:
                continue
            try:
                env_e, env_a, env_q = envs
                ve = eval_exact(cond, env_e, self.cfg)
                va = eval_approx(rc.approx, env_a, self.cfg)
                vq = eval_error(rc.err, env_q, self.cfg)
            except EvalError:
                continue  # sample not evaluable (e.g. unresolved fix pin)
            if ve is DIVERGED or va is DIVERGED or vq is DIVERGED:
                return False, {"samples": samples}
            if not isinstance(ve, VBool) or not isinstance(va, VBool):
                return False, {"samples": samples}
            qv = err_of_value(vq)
            if ve.value != va.value or (qv.hi or Fraction(0)) != 0:
                return False, {"samples": samples}
            samples += 1
        return True, {"samples": samples}

    def _estimate_cross_error(self, ctx: ApproxCtx, e: If, rc, rt, rf,
                              target: ApproxTy, budget: int):
        from .interp import EvalError
        worst = Fraction(0)
        observed = 0
        usable = 0
        for _ in range(budget):
            envs = self._sample_envs(ctx)
            if envs is None:
                continue
            try:
                env_e, env_a, env_q = envs
                ve = eval_exact(e.cond, env_e, self.cfg)
                va = eval_approx(rc.approx, env_a, self.cfg)
                if not isinstance(ve, VBool) or not isinstance(va, VBool):
                    continue
                usable += 1
                if ve.value == va.value:
                    continue
                observed += 1
                evb = eval_exact(e.then_e if ve.value else e.else_e,
                                 env_e, self.cfg)
                avb = eval_approx(rt.approx if va.value else rf.approx,
                                  env_a, self.cfg)
            except EvalError:
                continue
            d = self._measure_distance(target, evb, avb)
            if d is None:
                return ErrLit(None), {"samples": budget,
                                      "note": "cross distance unbounded"}
            worst = max(worst, d)
        if usable == 0:
            raise Unsupported("cannot sample the condition for cross-branch "
                              "estimation under this context")
        q_cross = ErrLit(worst) if isinstance(target, FlBase) else \
            NatLit(math.ceil(worst))
        # validate the full conclusion error on fresh samples
        validated = 0
        for _ in range(budget):
            envs = self._sample_envs(ctx)
            if envs is None:
                continue
            try:
                env_e, env_a, env_q = envs
                ev = eval_exact(e, env_e, self.cfg)
                av = eval_approx(If(rc.approx, rt.approx, rf.approx),
                                 env_a, self.cfg)
                total = plus_apply(target, plus_apply(target, rt.err, rf.err),
                                   q_cross)
                qv = bound_of(eval_error(total, env_q, self.cfg))
            except EvalError:
                continue
            d = self._measure_distance(target, ev, av)
            if d is None:
                continue
            if qv.hi is not None and d > qv.hi:
                raise SideConditionFailed(
                    "sampled conditional exceeded the estimated cross-branch "
                    "bound", {"measured": str(d), "bound": str(qv.hi)})
            validated += 1
        return q_cross, {"samples": validated,
                         "note": f"{observed} disagreeing samples, "
                                 f"worst distance {worst}"}

    def _measure_distance(self, target: ApproxTy, ev, av) -> Optional[Fraction]:
        if ev is DIVERGED or av is DIVERGED:
            return None
        if isinstance(target, FlBase):
            if not isinstance(av, VFloat) or not math.isfinite(av.value):
                return None
            d = enc.enclose_op("dr", [ev.enc, from_rational(
                to_fraction(av.value), self.cfg.precision_bits)],
                self.cfg.precision_bits, self.cfg.max_precision_bits)
            return d.hi
        if isinstance(target, NatBase):
            return Fraction(abs(ev.value - av.value))
        if isinstance(target, BoolBase):
            return Fraction(0 if ev.value == av.value else 1)
        return None

    # -- literals and builtins ---------------------------------------------------

    def _real_lit(self, ctx: ApproxCtx, e: RealLit, target: ApproxTy) -> CompileResult:
        if not isinstance(target, FlBase):
            raise TypeMismatch("Fl", family_source(target), _src(e))
        a = nearest_float(e.value)
        if math.isinf(a):
            raise Unsupported(f"real literal {e.value} overflows binary64")
        q = ErrLit(abs(e.value - to_fraction(a)))
        d = Derivation("R-Lit", e, FloatLit.of(a), q, target)
        return CompileResult(d.approx, d.err, target, d)

    def _scalar_lit(self, ctx: ApproxCtx, e: Expr, target: ApproxTy,
                    fam: ApproxTy) -> CompileResult:
        if not same_family(target, fam):
            raise TypeMismatch(family_source(fam), family_source(target), _src(e))
        d = Derivation("R-Lit", e, e, NatLit(0), target)
        return CompileResult(e, NatLit(0), target, d)

    def _leaf(self, op: str) -> Tuple[ApproxTy, Expr, Expr, str]:
        if op in _OP_LOWER:
            fam, a, q = _binary_real_leaf(op)
            return fam, a, q, "R-Op"
        if op == "sinr":
            return _sin_leaf(self.opts.enable_sin_subst)
        if op == "nat2real":
            fam, a, q = _nat2real_leaf()
            return fam, a, q, "R-Op"
        if op in ("+n", "-n", "*n"):
            fam, a, q = _nat_op_leaf(op)
            return fam, a, q, "R-Op"
        raise NoRuleApplies(f"builtin {op} has no approximation rule")

    def _builtin(self, ctx: ApproxCtx, e: Builtin, target: ApproxTy) -> CompileResult:
        if e.op in ("leqr", "leqn") and len(e.args) == 2:
            return self._compare(ctx, e, target)
        fam, leaf_a, leaf_q, rule = self._leaf(e.op)
        # the leaf followed by one application per argument
        cur = CompileResult(leaf_a, leaf_q, fam,
                            Derivation(rule, Builtin(e.op, ()), leaf_a, leaf_q, fam))
        for arg in e.args:
            if not isinstance(cur.family, Pi):
                raise NoRuleApplies(f"too many arguments for {e.op}")
            r2 = self.compile(ctx, arg, cur.family.fam)
            approx = self._apply_approx(cur.approx, r2.approx)
            err = fold_err(App(App(cur.err, arg), r2.err))
            d = Derivation("A-App", e, approx, err, cur.family.body,
                           premises=[cur.derivation, r2.derivation])
            cur = CompileResult(approx, err, cur.family.body, d)
        if not same_family(cur.family, target):
            raise TypeMismatch(family_source(target), family_source(cur.family),
                               _src(e))
        return cur

    def _apply_approx(self, fn: Expr, arg: Expr) -> Expr:
        if isinstance(fn, Builtin):
            return Builtin(fn.op, fn.args + (arg,))
        return App(fn, arg)

    def _compare(self, ctx: ApproxCtx, e: Builtin, target: ApproxTy) -> CompileResult:
        if not isinstance(target, BoolBase):
            raise TypeMismatch("Bool", family_source(target), _src(e))
        arg_fam = FL if e.op == "leqr" else NAT_A
        lower = "leqf" if e.op == "leqr" else "leqn"
        r1 = self.compile(ctx, e.args[0], arg_fam)
        r2 = self.compile(ctx, e.args[1], arg_fam)
        approx = Builtin(lower, (r1.approx, r2.approx))
        # with exactly approximated operands the lowered comparison
        # agrees with the exact one; otherwise it may differ
        if e.op == "leqn":
            q: Expr = fold_err(Builtin("+n", (r1.err, r2.err)))
        else:
            q = NatLit(0) if (_is_zero_err(r1.err) and _is_zero_err(r2.err)) \
                else NatLit(1)
        d = Derivation("R-Op", e, approx, q, target,
                       premises=[r1.derivation, r2.derivation])
        return CompileResult(approx, q, target, d)

    # -- reductions ----------------------------------------------------------------

    def _redseq(self, ctx: ApproxCtx, e: RedSeq, target: ApproxTy) -> CompileResult:
        site = self._next_site()
        k = self.opts.perforation.get(site, 1)
        return self.perforate(ctx, e, k, target, site)

    def perforate(self, ctx: ApproxCtx, e: RedSeq, k: int,
                  target: ApproxTy, site: Optional[str] = None) -> CompileResult:
        """Perforated lowering of a reduction; k = 1 is the plain
        float lowering of the loop."""
        if site is None:
            site = self._next_site()
        if not isinstance(target, FlBase):
            raise Unsupported("perforation targets scalar real reductions")
        if not (isinstance(e.combiner, Builtin) and e.combiner.op == "+r"
                and not e.combiner.args):
            raise Unsupported(
                "reduction lowering requires the addition combiner: the "
                "synthesized bound sums per-element errors, which is only "
                "sound for an additively exact fold")
        comb_res = self._builtin(ctx, Builtin("+r", ()),
                                 Pi("xe", "xa", "xq", FL,
                                    Pi("ye", "ya", "yq", FL, FL)))
        count_res = self.compile(ctx, e.count, NAT_A)
        if not _is_zero_err(count_res.err):
            raise Unsupported("the iteration count must be exactly "
                              "approximated (zero error)")
        gen_fam = Pi("i", "i_a", "i_q", NAT_A, FL)
        gen_res = self.compile(ctx, e.generator, gen_fam)

        count_lit = e.count if isinstance(e.count, NatLit) else None

        # per-element drift bound q(x) >= d(gen x, gen floor_k(x))
        q_elem, q_elem_side = self._perforation_elem_bound(ctx, e, k, count_lit)
        # remainder bound q' for counts that are not multiples of k
        q_rem, q_rem_side = self._perforation_remainder(ctx, e, k, count_lit)

        approx = self._perforated_approx(e, gen_res.approx, comb_res.approx, k)
        x = "px"
        avoid = free_vars(e.generator) | free_vars(q_elem) | ctx.names()
        while x in avoid:
            x += "'"
        per_item = Builtin("+q", (
            App(App(gen_res.err, Builtin("floorK", (Var(x), NatLit(k)))), NatLit(0)),
            App(q_elem, Var(x))))
        err = Builtin("+q", (
            RedSeq(plus_lambda(FL), e.count,
                   Lam(x, NAT, fold_err(per_item))),
            q_rem))
        err = fold_err(err)

        side = [q_elem_side, q_rem_side]
        side.append(self._validate_redseq_site(ctx, e, approx, err))
        d = Derivation("R-Perforate", e, approx, err, target,
                       premises=[comb_res.derivation, count_res.derivation,
                                 gen_res.derivation],
                       side_conditions=side, site=site)
        return CompileResult(approx, err, target, d)

    def _perforated_approx(self, e: RedSeq, a3: Expr, a1: Expr, k: int) -> Expr:
        if k == 1:
            return RedSeq(a1, e.count, a3)
        if not isinstance(e.count, NatLit):
            raise Unsupported("perforation needs a literal iteration count")
        m = -(-e.count.value // k)  # ceil
        x, acc = "i", "acc"
        # each kept element is combined k times
        body: Expr = Var(acc)
        for _ in range(k):
            body = self._apply_approx(self._apply_approx(a1, Var(x)), body)
        comb = Lam(x, FLOAT64, Lam(acc, FLOAT64, body))
        gen = Lam("j", NAT, self._apply_approx(a3, Builtin("*n", (Var("j"), NatLit(k)))))
        return RedSeq(comb, NatLit(m), gen)

    def _affine_generator(self, gen: Expr) -> Optional[Fraction]:
        """Slope of generators of shape (lam (i Nat) (nat2real <affine i>))."""
        if not isinstance(gen, Lam):
            return None
        body = gen.body
        if isinstance(body, RealLit):
            return Fraction(0)
        if not (isinstance(body, Builtin) and body.op == "nat2real"
                and len(body.args) == 1):
            return None

        def lin(t: Expr) -> Optional[Tuple[int, int]]:
            if isinstance(t, NatLit):
                return (0, t.value)
            if isinstance(t, Var):
                return (1, 0) if t.name == gen.binder else None
            if isinstance(t, Builtin) and t.op == "+n" and len(t.args) == 2:
                l1, l2 = lin(t.args[0]), lin(t.args[1])
                if l1 is None or l2 is None:
                    return None
                return (l1[0] + l2[0], l1[1] + l2[1])
            if isinstance(t, Builtin) and t.op == "*n" and len(t.args) == 2:
                l1, l2 = lin(t.args[0]), lin(t.args[1])
                if l1 is None or l2 is None:
                    return None
                if l1[0] == 0:
                    return (l1[1] * l2[0], l1[1] * l2[1])
                if l2[0] == 0:
                    return (l1[0] * l2[1], l1[1] * l2[1])
                return None
            return None

        l = lin(body.args[0])
        return Fraction(l[0]) if l is not None else None

    def _perforation_elem_bound(self, ctx: ApproxCtx, e: RedSeq, k: int,
                                count_lit: Optional[NatLit]):
        x = "dx"
        if k == 1:
            return (Lam(x, NAT, ErrLit(Fraction(0))),
                    SideCondition("per-element drift is zero at k = 1",
                                  Verdict(status="pass")))
        slope = self._affine_generator(e.generator)
        if slope is not None:
            dist = Builtin("nat2err",
                           (Builtin("dn", (Var(x), Builtin(
                               "floorK", (Var(x), NatLit(k))))),))
            body = dist if slope == 1 else Builtin(
                "*q", (ErrLit(abs(slope)), dist))
            return (Lam(x, NAT, body),
                    SideCondition(
                        f"per-element drift from the generator slope {slope}",
                        Verdict(status="pass", reason="affine generator")))
        if count_lit is None:
            raise Unsupported("perforation of a non-affine generator needs a "
                              "literal iteration count")
        if free_vars(e.generator) & ctx.names():
            raise Unsupported("perforation of an open non-affine generator "
                              "is not supported")
        n_up = -(-count_lit.value // k) * k
        worst = Fraction(0)
        for xv in range(n_up):
            d = self._drift_at(e.generator, xv, k)
            if d is None:
                return (Lam(x, NAT, ErrLit(None)),
                        SideCondition("per-element drift unbounded",
                                      Verdict(status="pass", reason="infinite")))
            worst = max(worst, d)
        return (Lam(x, NAT, ErrLit(worst)),
                SideCondition(
                    f"per-element drift enumerated exactly over all {n_up} "
                    "iterations",
                    Verdict(status="pass", trials=n_up, passes=n_up)))

    def _drift_at(self, gen: Expr, xv: int, k: int) -> Optional[Fraction]:
        lo = (xv // k) * k
        v1 = eval_exact(App(gen, NatLit(xv)), {}, self.cfg)
        v2 = eval_exact(App(gen, NatLit(lo)), {}, self.cfg)
        if v1 is DIVERGED or v2 is DIVERGED:
            return None
        d = enc.enclose_op("dr", [v1.enc, v2.enc], self.cfg.precision_bits,
                           self.cfg.max_precision_bits)
        return d.hi

    def _perforation_remainder(self, ctx: ApproxCtx, e: RedSeq, k: int,
                               count_lit: Optional[NatLit]):
        if count_lit is not None and count_lit.value % k == 0:
            return (ErrLit(Fraction(0)),
                    SideCondition(
                        "iteration count is a multiple of the perforation "
                        "factor", Verdict(status="pass")))
        if count_lit is None:
            raise Unsupported("perforation with a remainder needs a literal "
                              "iteration count")
        n = count_lit.value
        n_up = -(-n // k) * k
        if not free_vars(e) & ctx.names():
            v1 = eval_exact(e, {}, self.cfg)
            v2 = eval_exact(RedSeq(e.combiner, NatLit(n_up), e.generator),
                            {}, self.cfg)
            if v1 is DIVERGED or v2 is DIVERGED:
                return (ErrLit(None), SideCondition(
                    "remainder distance diverged", Verdict(status="pass")))
            d = enc.enclose_op("dr", [v1.enc, v2.enc],
                               self.cfg.precision_bits,
                               self.cfg.max_precision_bits)
            q = enc.rd_up(d.hi, self.cfg.precision_bits)
            return (ErrLit(q), SideCondition(
                f"remainder bound computed by the oracle: |{n}-fold - "
                f"{n_up}-fold| = {float(d.hi):.6g}",
                Verdict(status="pass")))
        # open term: sampled maximisation with a safety factor, then validated
        budget = self.opts.sample_budget_for_side_conditions
        worst = Fraction(0)
        used = 0
        for _ in range(budget):
            envs = self._sample_envs(ctx)
            if envs is None:
                continue
            env_e, _, _ = envs
            v1 = eval_exact(e, env_e, self.cfg)
            v2 = eval_exact(RedSeq(e.combiner, NatLit(n_up), e.generator),
                            env_e, self.cfg)
            if v1 is DIVERGED or v2 is DIVERGED:
                return (ErrLit(None), SideCondition(
                    "remainder distance diverged while sampling",
                    Verdict(status="pass")))
            d = enc.enclose_op("dr", [v1.enc, v2.enc],
                               self.cfg.precision_bits,
                               self.cfg.max_precision_bits)
            worst = max(worst, d.hi)
            used += 1
        q = enc.rd_up(worst * 2, self.cfg.precision_bits)
        return (ErrLit(q), SideCondition(
            f"remainder bound estimated from {used} samples with a factor-2 "
            "margin", Verdict(status="pass", trials=used, passes=used,
                              on_samples=True)))

    def _validate_redseq_site(self, ctx: ApproxCtx, e: RedSeq,
                              approx: Expr, err: Expr) -> SideCondition:
        """End-to-end sampled validation of the lowered reduction; this
        also guards the additively-exact-fold restriction, since float
        rounding inside the fold would surface as a bound violation."""
        budget = max(1, self.opts.sample_budget_for_side_conditions // 4)
        closed = not (free_vars(e) & ctx.names())
        if closed:
            budget = 1
        checked = 0
        for _ in range(budget):
            if closed:
                env_e, env_a, env_q = {}, {}, {}
            else:
                envs = self._sample_envs(ctx)
                if envs is None:
                    continue
                env_e, env_a, env_q = envs
            ev = eval_exact(e, env_e, self.cfg)
            av = eval_approx(approx, env_a, self.cfg)
            qv = bound_of(eval_error(err, env_q, self.cfg))
            if qv.lo is None:
                checked += 1
                continue
            if ev is DIVERGED or av is DIVERGED:
                raise SideConditionFailed(
                    "reduction diverged under a finite synthesized bound")
            if not isinstance(av, VFloat) or not math.isfinite(av.value):
                raise SideConditionFailed(
                    "lowered reduction produced a non-finite float under a "
                    "finite synthesized bound")
            d = enc.enclose_op("dr", [ev.enc, from_rational(
                to_fraction(av.value), self.cfg.precision_bits)],
                self.cfg.precision_bits, self.cfg.max_precision_bits)
            if qv.hi is not None and d.lo > qv.hi:
                raise SideConditionFailed(
                    "sampled reduction exceeded the synthesized bound",
                    {"measured": str(d.lo), "bound": str(qv.hi)})
            checked += 1
        return SideCondition(
            "lowered reduction validated against the synthesized bound on "
            "sampled substitutions",
            Verdict(status="pass", trials=checked, passes=checked,
                    on_samples=not closed))


# ---------------------------------------------------------------------------
# site labeling (for perforation targeting from the command line)

def label_sites(e: Expr) -> List[Tuple[str, str]]:
    """Reduction sites in pre-order: (label, source) pairs."""
    out: List[Tuple[str, str]] = []

    def walk(t: Expr):
        if type(t) is RedSeq:
            out.append((f"L{len(out)}", to_source(t)))
        for c in children(t):
            walk(c)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# entry points

def perforate(ctx: ApproxCtx, e: RedSeq, k: int,
              opts: CompileOpts = CompileOpts()) -> CompileResult:
    """Perforated lowering of a reduction outside the main compile flow."""
    return Compiler(opts).perforate(ctx, e, k, FL)


def compile_expr(ctx: ApproxCtx, e: Expr, target: ApproxTy,
                 opts: CompileOpts = CompileOpts()) -> CompileResult:
    """Compile under an approximation context toward a target family."""
    got = infer_type(ctx_exact(ctx), e)
    want = exact_ty(target)
    if got != want:
        raise TypeMismatch(want, got, "program")
    result = Compiler(opts).compile(ctx, e, target)
    if opts.weaken_to is not None:
        result = weaken(result, opts.weaken_to, opts)
    return result


def compile_program(e: Expr, opts: CompileOpts = CompileOpts()) -> CompileResult:
    """Compile a closed program; the target family is derived from its
    exact type."""
    ty = infer_type(TyCtx(), e)
    target = _target_from_type(ty)
    return compile_expr(ApproxCtx(), e, target, opts)


def _target_from_type(ty: Ty) -> ApproxTy:
    if isinstance(ty, Forall):
        xa, xq = ty.var + "_a", ty.var + "_q"
        z0, zp = "z0_" + ty.var, "zp_" + ty.var
        vb = VarBase(ty.var, xa, xq, z0, zp)
        return PiTy(ty.var, xa, xq, z0, zp,
                    family_from_type(ty.body, {ty.var: vb}))
    return family_from_type(ty)


def weaken(result: CompileResult, q_weak: Expr, opts: CompileOpts) -> CompileResult:
    """Final weakening to a caller-supplied error, with the ordering
    side condition checked (sampled for function carriers)."""
    want = err_ty(result.family)
    got = infer_type(TyCtx(), q_weak)
    if got != want:
        raise TypeMismatch(want, got, "weakening target")
    verdict = _err_leq_verdict(result.family, result.err, q_weak, opts)
    if verdict.status == "fail":
        raise SideConditionFailed(
            "weakening target is not an upper bound of the synthesized error",
            verdict.counterexample)
    d = Derivation("A-Weak", result.derivation.exact, result.approx, q_weak,
                   result.family, premises=[result.derivation],
                   side_conditions=[SideCondition(
                       "synthesized error is below the weakening target",
                       verdict)])
    return CompileResult(result.approx, q_weak, result.family, d)


def _err_leq_verdict(fam: ApproxTy, q1: Expr, q2: Expr,
                     opts: CompileOpts) -> Verdict:
    cfg = opts.cfg
    if isinstance(fam, (FlBase, NatBase, BoolBase)):
        v1 = bound_of(eval_error(q1, cfg=cfg))
        v2 = bound_of(eval_error(q2, cfg=cfg))
        r = scalar_err_leq(v1, v2)
        if r is LeqVerdict.NO:
            return Verdict(status="fail",
                           counterexample={"lhs": str(v1.lo), "rhs": str(v2.hi)})
        return Verdict(status="pass", trials=1, passes=1,
                       on_samples=r is LeqVerdict.YES_ON_SAMPLES)
    if isinstance(fam, Pi):
        budget = opts.sample_budget_for_side_conditions
        passes = 0
        for t in range(budget):
            rng = trial_rng(opts.seed, 7919 + t)
            trip = sample_member_triple(fam.fam, rng)
            if trip is None:
                continue
            ee, _, eq = trip
            inner = _err_leq_verdict(fam.body, App(App(q1, ee), eq),
                                     App(App(q2, ee), eq), opts)
            if inner.status == "fail":
                inner.counterexample = dict(inner.counterexample or {})
                inner.counterexample["input"] = to_source(ee)
                return inner
            passes += 1
        return Verdict(status="pass", trials=passes, passes=passes,
                       on_samples=True)
    return Verdict(status="inconclusive",
                   reason="no ordering check for this family")
