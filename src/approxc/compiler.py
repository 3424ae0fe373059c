"""Approximate compilation: syntax-directed transformation of exact
programs into float programs together with a machine-evaluable error
expression and a derivation trace.

A compile types the program once, recording every node's exact type; a
rule picks a subterm's approximation family from its recorded type, a type
argument's from the type itself, and returns its derivation, whose
premises are its subterms' derivations.  The entry points wrap the root's
derivation in one CompileResult.  Families come from that typing pass,
or from builtin leaves that match BUILTINS, and are not checked again.
Polymorphism is outermost-forall only: a universal type elsewhere, or a
type argument with no family, is refused with Unsupported.

Each structural construct is approximated by itself while its error is
synthesized compositionally; the leaf transformations are real-to-float
lowering of literals and builtins, the optional sine-by-identity
substitution, and loop perforation on reductions.  Every bound is an
error expression built from the premises' errors and exact subterms, so
it is sound by construction: a conditional whose condition may disagree
adds the exact distance between its branches, and a reduction chains the
rounding error of each float addition and adds the exact drift of a
perforated loop.  Compilation samples nothing.  It evaluates nothing
either, except that weakening to a caller-supplied bound at a base family
compares the two evaluated bounds; at a function family, and where that
comparison stays undecided at the precision cap, the emitted error is the
pointwise join of the synthesized error and the bound.  Bounds the oracle
cannot evaluate even at the cap refuse the weakening with
OrderingUndecidable.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    TypeVar,
)

from .families import (
    BOOL_A, FL, NAT_A, ApproxCtx, ApproxTy, BoolBase, CtxEntry, FlBase,
    NatBase, Pi, PiTy, ValTriple, VarBase, Verdict, approx_ty,
    ctx_exact, err_ty, exact_ty, family_from_type,
    family_source, join_apply, monomorphize, plus_apply, precisions,
)
from .floats import nearest_float, to_fraction
from .interp import (
    EvalConfig, OracleInconclusive, bound_of, eval_error,
    float_op_err,  # re-exported: part of this module's public surface
)
from .quant import LeqVerdict, scalar_err_leq
from .syntax import (
    ERRREAL, FLOAT64, NAT, NESTING_STACK_LIMIT, REAL,
    App, Arrow, BoolLit, Builtin, ErrLit, Expr, Fix, FloatLit,
    Forall, If, Lam, NatLit, RealLit, RedSeq, Ty, TyApp, TyLam, TyVar,
    Var, children, free_vars, fresh_name, map_children, to_source, unshared,
    with_stack_limit,
)
from .typecheck import SharedNode, TyCtx, TypeMismatch, infer_type

T = TypeVar("T")


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


class OrderingUndecidable(CompileError):
    """A weakening check whose bounds the oracle cannot evaluate, even at
    the precision cap: a comparison or a divisor inside them stays
    undecided."""


class BinderCollision(CompileError):
    """A binder reusing a name of an enclosing binder, or one generated for
    it: the error program would capture it."""


def _bind(ctx: ApproxCtx, binder: str, entry: CtxEntry) -> ApproxCtx:
    try:
        return ctx.extend(entry)
    except ValueError:
        raise BinderCollision(f"binder {binder} reuses a name bound by or "
                              f"for an enclosing binder; rename it") from None


class NestingTooDeep(CompileError):
    def __init__(self):
        super().__init__(f"program nests too deeply to compile within "
                         f"{NESTING_STACK_LIMIT} stack frames")


def nesting_guarded(run: Callable[[], T]) -> T:
    """run(), a walk over a program that recurses a few host frames per
    level of nesting, under the nesting stack limit; a program nested
    deeper than that allows raises NestingTooDeep."""
    try:
        return with_stack_limit(NESTING_STACK_LIMIT, run)
    except RecursionError:
        raise NestingTooDeep() from None


@dataclass(frozen=True)
class CompileOpts:
    enable_sin_subst: bool = False
    perforation: Mapping[str, int] = field(default_factory=dict)
    weaken_to: Optional[Expr] = None
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

    def to_doc(self, memo: Dict[int, str]) -> dict:
        """The derivation as a JSON document, its expressions printed
        through memo (see to_source)."""
        doc = {
            "rule": self.rule,
            "exact": to_source(self.exact, memo),
            "approx": to_source(self.approx, memo),
            "err": to_source(self.err, memo),
            "family": family_source(self.family),
            "premises": [p.to_doc(memo) for p in self.premises],
        }
        if self.site is not None:
            doc["site"] = self.site
        if self.side_conditions:
            doc["side_conditions"] = [
                {"description": sc.description,
                 "verdict": sc.verdict.to_doc()}
                for sc in self.side_conditions]
        return doc


@dataclass
class CompileResult:
    approx: Expr
    err: Expr
    family: ApproxTy
    derivation: Derivation

    def derivation_json(self, memo: Optional[Dict[int, str]] = None) -> str:
        """derivation.json's text; memo is to_source's, shared with the
        other texts printed from this result."""
        doc = self.derivation.to_doc({} if memo is None else memo)
        return json.dumps({"schema": "derivation/v1", "derivation": doc},
                          sort_keys=True)


# ---------------------------------------------------------------------------
# small constant folder for error expressions
#
# Each node is folded once: its folded form is cached in its instance dict,
# beside interp._code's function, and a fold result is marked as folded too.
# A rule's error is built from its premises' folded errors and the exact
# subterms, both already folded, so folding it walks only its new nodes, and
# a subterm shared by several errors is walked once.

_FOLD = "_fold"  # the instance-dict key of a node's folded form; None: itself


def fold_err(e: Expr) -> Expr:
    memo = e.__dict__
    try:
        done = memo[_FOLD]
    except KeyError:
        pass
    else:
        return e if done is None else done
    out = _fold_node(map_children(e, fold_err))
    # a node is immutable, so its folded form never goes stale; the marker
    # None rather than a self-reference keeps the node free of cycles
    memo[_FOLD] = None if out is e else out
    out.__dict__[_FOLD] = None  # a fold result folds to itself
    return out


def _fold_node(e: Expr) -> Expr:
    """One folding step at the root of e, whose children are folded."""
    if type(e) is If and isinstance(e.cond, BoolLit):
        return e.then_e if e.cond.value else e.else_e
    if type(e) is Builtin and len(e.args) == 2:
        a, b = e.args
        if e.op == "leqn" and isinstance(a, NatLit) and isinstance(b, NatLit):
            return BoolLit(a.value <= b.value)
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
            # 0 * b drops b, so b must be a value: a fold evaluates the
            # same subterms as the node it replaces (see _saturate)
            if (isinstance(a, NatLit) and a.value == 0 and type(b) in _VALUES) or \
               (isinstance(b, NatLit) and b.value == 0 and type(a) in _VALUES):
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
        if e.op == "maxq":
            if isinstance(a, ErrLit) and isinstance(b, ErrLit):
                if a.value is None or b.value is None:
                    return ErrLit(None)
                return ErrLit(max(a.value, b.value))
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
#
# A leaf is a builtin's float lowering and its error: a curried lambda over
# the exact value and the error of each argument in turn, whose body is a
# tree of builtins over those parameters.  A builtin applied to all of its
# arguments gets that body with the actuals in place of the parameters, not
# one application of the lambda per actual: see _saturate.

_OP_LOWER = {"+r": "+f", "-r": "-f", "*r": "*f", "/r": "/f"}
_OP_ERR = {"+r": "+err", "-r": "-err", "*r": "*err", "/r": "/err"}


class _Leaf(NamedTuple):
    fam: ApproxTy
    approx: Expr
    err: Expr              # the body under one Lam per parameter
    rule: str
    params: Tuple[str, ...]  # in application order
    body: Expr
    uses: Tuple[str, ...]  # the body's variable occurrences, left to right


def _var_uses(e: Expr) -> Tuple[str, ...]:
    if type(e) is Var:
        return (e.name,)
    return tuple(u for c in children(e) for u in _var_uses(c))


def _make_leaf(fam: ApproxTy, approx: Expr, params: Tuple[Tuple[str, Ty], ...],
               body: Expr, rule: str = "R-Op") -> _Leaf:
    err = body
    for name, ty in reversed(params):
        err = Lam(name, ty, err)
    return _Leaf(fam, approx, err, rule, tuple(n for n, _ in params), body,
                 _var_uses(body))


# each op's leaf, with its parameter list and occurrence order, is built
# once and shared by every compile, so its error is folded, and its
# closures staged, once per process


@functools.cache
def _binary_real_leaf(op: str) -> _Leaf:
    fam = Pi("xe", "xa", "xq", FL, Pi("ye", "ya", "yq", FL, FL))
    body = Builtin(_OP_ERR[op], (Var("xe"), Var("xq"), Var("ye"), Var("yq")))
    return _make_leaf(fam, Builtin(_OP_LOWER[op], ()), (
        ("xe", REAL), ("xq", ERRREAL), ("ye", REAL), ("yq", ERRREAL)), body)


@functools.cache
def _sin_leaf(subst: bool) -> _Leaf:
    fam = Pi("xe", "xa", "xq", FL, FL)
    params = (("xe", REAL), ("xq", ERRREAL))
    if subst:
        body = Builtin("+q", (Var("xq"), Builtin("dr", (
            Var("xe"), Builtin("sinr", (Var("xe"),))))))
        return _make_leaf(fam, Lam("x", FLOAT64, Var("x")), params, body,
                          "R-SinSubst")
    return _make_leaf(fam, Builtin("sinf", ()), params,
                      Builtin("sinerr", (Var("xe"), Var("xq"))))


@functools.cache
def _nat2real_leaf() -> _Leaf:
    fam = Pi("ne", "na", "nq", NAT_A, FL)
    return _make_leaf(fam, Builtin("nat2float", ()), (("ne", NAT), ("nq", NAT)),
                      Builtin("n2rerr", (Var("ne"), Var("nq"))))


@functools.cache
def _nat_op_leaf(op: str) -> _Leaf:
    fam = Pi("ne", "na", "nq", NAT_A, Pi("me", "ma", "mq", NAT_A, NAT_A))
    body: Expr = Builtin("+n", (Var("nq"), Var("mq")))  # +n and -n
    if op == "*n":
        # |a*b - a'*b'| <= b*k + (a+k)*j for |a-a'| <= k, |b-b'| <= j
        body = Builtin("+n", (
            Builtin("*n", (Var("nq"), Var("me"))),
            Builtin("*n", (Var("mq"), Builtin("+n", (Var("ne"), Var("nq")))))))
    return _make_leaf(fam, Builtin(op, ()), (
        ("ne", NAT), ("nq", NAT), ("me", NAT), ("mq", NAT)), body)


# the node types whose evaluation cannot diverge, spend fuel or be
# inconclusive: variables and literals
_VALUES = frozenset({Var, NatLit, RealLit, ErrLit, BoolLit, FloatLit})


def _saturate(leaf: _Leaf, actuals: Sequence[Expr]) -> Optional[Expr]:
    """The leaf's body with the folded actuals in place of its parameters,
    or None when that could evaluate differently from applying the leaf.

    Applying the leaf evaluates each actual once, in order, before the
    body; the body's builtins evaluate their operands left to right.  So
    the body is substituted only when every actual that is not a value
    occurs in it exactly once, in application order: then the same
    subterms are evaluated in the same order, and a dropped or duplicated
    actual can be only a variable or a literal, whose evaluation cannot
    diverge, spend fuel or be inconclusive.  A partial application keeps
    the redex.  Leaf bodies bind nothing, so the simultaneous substitution
    captures nothing, and an actual that mentions a parameter's name is
    not substituted into again."""
    if len(actuals) != len(leaf.params):
        return None
    moving = [p for p, a in zip(leaf.params, actuals) if type(a) not in _VALUES]
    if [u for u in leaf.uses if u in moving] != moving:
        return None
    return _substitute(leaf.body, dict(zip(leaf.params, actuals)))


def _substitute(t: Expr, env: Dict[str, Expr]) -> Expr:
    # a leaf body holds only builtins and variables; a module-level
    # function, as a recursive closure would leave a cycle per call for
    # the collector
    if type(t) is Var:
        return env[t.name]
    return Builtin(t.op, tuple([_substitute(a, env) for a in t.args]))


def _leaf_err(leaf: _Leaf, actuals: Sequence[Expr]) -> Expr:
    """The folded error of the leaf applied to actuals: the saturated body,
    or else the leaf's lambda applied to each actual in turn."""
    actuals = [fold_err(a) for a in actuals]
    err = _saturate(leaf, actuals)
    if err is None:
        err = leaf.err
        for a in actuals:
            err = App(err, a)
    return fold_err(err)


# ---------------------------------------------------------------------------
# the compiler

class Compiler:
    def __init__(self, opts: CompileOpts, types: Dict[int, Ty],
                 sites: Dict[int, str]):
        self.opts = opts
        self.types = types  # id(node): exact type, from the one typing pass
        self.sites = sites  # id(reduction node): its label_sites label
        self._fresh_counter = 0

    # -- naming ------------------------------------------------------------

    def _names_for(self, base: str, ctx: ApproxCtx, avoid: set) -> Tuple[str, str]:
        avoid = ctx.names() | avoid
        xa, xq = base + "_a", base + "_q"
        while xa in avoid or xq in avoid:
            self._fresh_counter += 1
            xa = f"{base}_a{self._fresh_counter}"
            xq = f"{base}_q{self._fresh_counter}"
        return xa, xq

    # -- entry point ---------------------------------------------------------

    def compile(self, ctx: ApproxCtx, e: Expr, target: ApproxTy) -> Derivation:
        rule = _RULES.get(type(e))
        if rule is None:
            raise NoRuleApplies(f"no rule for {type(e).__name__}", to_source(e))
        return rule(self, ctx, e, target)

    # -- structural rules -----------------------------------------------------

    def _var(self, ctx: ApproxCtx, e: Var, target: ApproxTy) -> Derivation:
        trip = ctx.lookup(e.name)
        return Derivation("A-Var", e, Var(trip.xa), Var(trip.xq), target)

    def _lam(self, ctx: ApproxCtx, e: Lam, target: ApproxTy) -> Derivation:
        xa, xq = self._names_for(e.binder, ctx, free_vars(e.body))
        trip = ValTriple(e.binder, xa, xq, target.fam)
        inner = self.compile(_bind(ctx, e.binder, trip), e.body, target.body)
        approx = Lam(xa, approx_ty(target.fam), inner.approx)
        err = Lam(e.binder, exact_ty(target.fam),
                  Lam(xq, err_ty(target.fam), inner.err))
        return Derivation("A-Lam", e, approx, err,
                          Pi(e.binder, xa, xq, target.fam, target.body), [inner])

    def _app(self, ctx: ApproxCtx, e: App, target: ApproxTy) -> Derivation:
        # a universal type, alone or inside an arrow, has no family here
        arg_fam = _family(self.types[id(e.arg)], _tymap(ctx),
                          "an argument of type")
        fn_target = Pi("x", "x_a", "x_q", arg_fam, target)
        r1 = self.compile(ctx, e.fn, fn_target)
        r2 = self.compile(ctx, e.arg, arg_fam)
        return Derivation("A-App", e, App(r1.approx, r2.approx),
                          fold_err(App(App(r1.err, e.arg), r2.err)), target,
                          [r1, r2])

    def _tylam(self, ctx: ApproxCtx, e: TyLam, target: ApproxTy) -> Derivation:
        entry = VarBase(target.xe, target.xa, target.xq, target.z0, target.zp)
        inner = self.compile(_bind(ctx, e.tyvar, entry), e.body, target.body)
        qv = TyVar(target.xq)
        err = TyLam(target.xe, TyLam(target.xq, Lam(
            target.z0, qv, Lam(target.zp, Arrow(qv, Arrow(qv, qv)), inner.err))))
        return Derivation("A-TLam", e, TyLam(target.xa, inner.approx), err,
                          target, [inner])

    def _tyapp(self, ctx: ApproxCtx, e: TyApp, target: ApproxTy) -> Derivation:
        fam = _family(e.ty, {}, "a type argument")
        # the typing pass refused a type application of a non-universal type
        pt = _family_of(self.types[id(e.expr)], _tymap(ctx))
        r1 = self.compile(ctx, e.expr, pt)
        _, approx, err, _ = monomorphize(pt, fam, e.expr, r1.approx, r1.err)
        return Derivation("A-TApp", e, approx, err, target, [r1])

    def _fix(self, ctx: ApproxCtx, e: Fix, target: ApproxTy) -> Derivation:
        # the premise compiles under the assumption that the bound
        # variable equals the fixpoint being built
        if not isinstance(e.expr, Lam):
            raise Unsupported("fix is supported on literal lambdas")
        inner = self._lam(ctx, e.expr, Pi("x", "x_a", "x_q", target, target))
        assumed = SideCondition(
            "fix premise compiled under the fixpoint-equality assumption",
            Verdict(status="pass", reason="recorded assumption"))
        return Derivation("A-Fix", e, Fix(inner.approx), Fix(App(inner.err, e)),
                          target, [inner], [assumed])

    # -- conditionals ----------------------------------------------------------

    def _if(self, ctx: ApproxCtx, e: If, target: ApproxTy) -> Derivation:
        rc = self.compile(ctx, e.cond, BOOL_A)
        rt = self.compile(ctx, e.then_e, target)
        rf = self.compile(ctx, e.else_e, target)
        # a condition error of 0 means both sides take the same branch, so
        # the error follows the exact condition; this also gives recursive
        # errors the same base case as the value recursion
        q: Expr = If(e.cond, rt.err, rf.err)
        if not _is_zero_err(rc.err):
            # the sides may take different branches, and
            # |e_t - a_f| <= |e_t - e_f| + q_f (symmetrically for e_f)
            if isinstance(target, (FlBase, NatBase)):
                dist = "dr" if isinstance(target, FlBase) else "dn"
                cross: Expr = plus_apply(target, plus_apply(
                    target, rt.err, rf.err), Builtin(dist, (e.then_e, e.else_e)))
            elif isinstance(target, BoolBase):
                cross = NatLit(1)
            else:
                raise Unsupported("a condition that may disagree needs a "
                                  "scalar family")
            q = If(Builtin("leqn", (rc.err, NatLit(0))), q, cross)
        return Derivation("A-If", e, If(rc.approx, rt.approx, rf.approx),
                          fold_err(q), target, [rc, rt, rf])

    # -- literals and builtins ---------------------------------------------------

    def _real_lit(self, ctx: ApproxCtx, e: RealLit, target: ApproxTy) -> Derivation:
        a = nearest_float(e.value)
        if math.isinf(a):
            raise Unsupported(f"real literal {e.value} overflows binary64")
        return Derivation("R-Lit", e, FloatLit.of(a),
                          ErrLit(abs(e.value - to_fraction(a))), target)

    def _scalar_lit(self, ctx: ApproxCtx, e: Expr, target: ApproxTy) -> Derivation:
        return Derivation("R-Lit", e, e, NatLit(0), target)

    def _leaf(self, op: str) -> _Leaf:
        if op in _OP_LOWER:
            return _binary_real_leaf(op)
        if op == "sinr":
            return _sin_leaf(self.opts.enable_sin_subst)
        if op == "nat2real":
            return _nat2real_leaf()
        if op in ("+n", "-n", "*n"):
            return _nat_op_leaf(op)
        raise NoRuleApplies(f"builtin {op} has no approximation rule")

    def _builtin(self, ctx: ApproxCtx, e: Builtin, target: ApproxTy) -> Derivation:
        if e.op in ("leqr", "leqn") and len(e.args) == 2:
            return self._compare(ctx, e, target)
        leaf = self._leaf(e.op)
        fam, approx = leaf.fam, leaf.approx
        premises: List[Derivation] = []
        actuals: List[Expr] = []
        for arg in e.args:
            r = self.compile(ctx, arg, fam.fam)
            approx = self._apply_approx(approx, r.approx)
            premises.append(r)
            actuals += (arg, r.err)
            fam = fam.body
        # one derivation for the leaf and the applications to its arguments
        return Derivation(leaf.rule, e, approx, _leaf_err(leaf, actuals), fam,
                          premises)

    def _apply_approx(self, fn: Expr, arg: Expr) -> Expr:
        if isinstance(fn, Builtin):
            return Builtin(fn.op, fn.args + (arg,))
        return App(fn, arg)

    def _compare(self, ctx: ApproxCtx, e: Builtin, target: ApproxTy) -> Derivation:
        arg_fam = FL if e.op == "leqr" else NAT_A
        lower = "leqf" if e.op == "leqr" else "leqn"
        r1 = self.compile(ctx, e.args[0], arg_fam)
        r2 = self.compile(ctx, e.args[1], arg_fam)
        # with exactly approximated operands the lowered comparison
        # agrees with the exact one; otherwise it may differ
        if e.op == "leqn":
            q: Expr = fold_err(Builtin("+n", (r1.err, r2.err)))
        else:
            q = NatLit(0) if (_is_zero_err(r1.err) and _is_zero_err(r2.err)) \
                else NatLit(1)
        return Derivation("R-Op", e, Builtin(lower, (r1.approx, r2.approx)), q,
                          target, [r1, r2])

    # -- reductions ----------------------------------------------------------------

    def _redseq(self, ctx: ApproxCtx, e: RedSeq, target: ApproxTy) -> Derivation:
        """The float lowering of a reduction, perforated by the factor k
        given for its site; k = 1 is the plain loop."""
        site = self.sites[id(e)]
        k = self.opts.perforation.get(site, 1)
        if not isinstance(target, FlBase):
            raise Unsupported("perforation targets scalar real reductions")
        if not (isinstance(e.combiner, Builtin) and e.combiner.op == "+r"
                and not e.combiner.args):
            raise Unsupported(
                "reduction lowering requires the addition combiner: the "
                "synthesized bound chains the rounding error of +r")
        comb_res = self._builtin(ctx, e.combiner, _binary_real_leaf("+r").fam)
        count_res = self.compile(ctx, e.count, NAT_A)
        if not _is_zero_err(count_res.err):
            raise Unsupported("the iteration count must be exactly "
                              "approximated (zero error)")
        gen_res = self.compile(ctx, e.generator, Pi("i", "i_a", "i_q", NAT_A, FL))

        approx = self._perforated_approx(e, gen_res.approx, comb_res.approx, k)

        # the float fold adds the kept elements N times: element
        # g(floorK s k) at step s, N = n at k = 1 and ceil(n/k)*k otherwise
        avoid = free_vars(e) | free_vars(gen_res.err) | ctx.names()
        acc_q, s, t = (fresh_name(v, avoid) for v in ("acc_q", "s", "t"))
        n_up = e.count if k == 1 else NatLit(-(-e.count.value // k) * k)
        kept = e.generator if k == 1 else Lam(t, NAT, App(
            e.generator, Builtin("floorK", (Var(t), NatLit(k)))))
        # the bound after s additions: the +r leaf's error applied to the
        # element, its error, the exact prefix sum and the previous bound
        prev = Builtin("-n", (Var(s), NatLit(1)))
        idx = prev if k == 1 else Builtin("floorK", (prev, NatLit(k)))
        step = _leaf_err(_binary_real_leaf("+r"), (
            App(e.generator, idx), App(App(gen_res.err, idx), NatLit(0)),
            RedSeq(Builtin("+r", ()), prev, kept), App(Var(acc_q), prev)))
        err: Expr = App(Fix(Lam(acc_q, Arrow(NAT, ERRREAL), Lam(s, NAT, If(
            Builtin("leqn", (Var(s), NatLit(0))), ErrLit(Fraction(0)), step)))),
            n_up)
        side: List[SideCondition] = []
        if k > 1:
            # drift and remainder: the exact sum against the exact sum of
            # the elements the float fold adds
            err = Builtin("+q", (
                Builtin("dr", (e, RedSeq(Builtin("+r", ()), n_up, kept))), err))
            side.append(SideCondition(
                f"drift and remainder bounded by the exact distance between "
                f"the {to_source(e.count)}-fold and the perforated "
                f"{to_source(n_up)}-fold",
                Verdict(status="pass", reason="synthesized")))
        return Derivation("R-Perforate", e, approx, fold_err(err), target,
                          [comb_res, count_res, gen_res], side, site)

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


# the rule for each node type; FloatLit and ErrLit have none, since exact
# programs do not contain them
_RULES = {
    Var: Compiler._var,
    Lam: Compiler._lam,
    App: Compiler._app,
    TyLam: Compiler._tylam,
    TyApp: Compiler._tyapp,
    Fix: Compiler._fix,
    If: Compiler._if,
    RealLit: Compiler._real_lit,
    NatLit: Compiler._scalar_lit,
    BoolLit: Compiler._scalar_lit,
    Builtin: Compiler._builtin,
    RedSeq: Compiler._redseq,
}


# ---------------------------------------------------------------------------
# site labeling (for perforation targeting from the command line)

def label_sites(e: Expr) -> List[Tuple[str, str]]:
    """Reduction sites in pre-order: (label, source) pairs.  A site nested
    in another is printed once, through one memo."""
    memo: Dict[int, str] = {}
    return [(f"L{i}", to_source(t, memo))
            for i, t in enumerate(_reductions(e, []))]


def _site_labels(e: Expr) -> Dict[int, str]:
    """Each reduction node's label_sites label, keyed by node identity; a
    node that stands at two sites raises SharedNode."""
    nodes = _reductions(e, [])
    labels = {id(t): f"L{i}" for i, t in enumerate(nodes)}
    if len(labels) < len(nodes):
        raise SharedNode("one redseq node at two sites")
    return labels


# a module-level walk: a nested recursive function would leave one
# reference cycle per compile for the collector
def _reductions(t: Expr, out: List[RedSeq]) -> List[RedSeq]:
    """The reduction nodes under t, in pre-order, appended to out."""
    if type(t) is RedSeq:
        out.append(t)
    for c in children(t):
        _reductions(c, out)
    return out


# ---------------------------------------------------------------------------
# entry points

def compile_program(e: Expr, opts: CompileOpts = CompileOpts()) -> CompileResult:
    """Compile a closed program."""
    return compile_expr(ApproxCtx(), e, opts)


def compile_expr(ctx: ApproxCtx, e: Expr,
                 opts: CompileOpts = CompileOpts()) -> CompileResult:
    """Compile under an approximation context, toward the family of e's
    exact type, whose type variables are the context's family variables."""
    d = nesting_guarded(lambda: _compile_typed(ctx, e, opts))
    result = CompileResult(d.approx, d.err, d.family, d)
    if opts.weaken_to is not None:
        result = weaken(result, opts.weaken_to, opts)
    return result


def _compile_typed(ctx: ApproxCtx, e: Expr, opts: CompileOpts) -> Derivation:
    # the one typing pass: the rules read each node's recorded type.  The
    # table tells nodes apart by identity, so a program that shares a node
    # object between places of different types is compiled from a fresh copy
    types: Dict[int, Ty] = {}
    try:
        got = infer_type(ctx_exact(ctx), e, types)
        sites = _site_labels(e)
    except SharedNode:
        e, types = unshared(e), {}
        got = infer_type(ctx_exact(ctx), e, types)
        sites = _site_labels(e)
    unknown = sorted(set(opts.perforation) - set(sites.values()))
    if unknown:
        raise CompileError(
            f"unknown perforation site {', '.join(unknown)}; the program's "
            f"reduction sites are: {', '.join(sites.values()) or 'none'}")
    return Compiler(opts, types, sites).compile(ctx, e, _family_of(got, _tymap(ctx)))


def _tymap(ctx: ApproxCtx) -> Dict[str, VarBase]:
    return {en.xe: en for en in ctx.entries if isinstance(en, VarBase)}


def _family_of(ty: Ty, tymap: Dict[str, VarBase]) -> ApproxTy:
    """The family of an exact type whose type variables tymap maps; a
    universal type gets the polymorphic family named after its variable."""
    if not isinstance(ty, Forall):
        return _family(ty, tymap)
    xa, xq = ty.var + "_a", ty.var + "_q"
    z0, zp = "z0_" + ty.var, "zp_" + ty.var
    vb = VarBase(ty.var, xa, xq, z0, zp)
    return PiTy(ty.var, xa, xq, z0, zp,
                _family(ty.body, tymap | {ty.var: vb}))


def _family(ty: Ty, tymap: Dict[str, VarBase], what: str = "type") -> ApproxTy:
    """family_from_type, refusing with Unsupported a type that has none:
    Unit, Float64, ErrReal, or a universal type under an arrow."""
    try:
        return family_from_type(ty, tymap)
    except TypeError:
        raise Unsupported(f"{what} {ty} has no approximation family") from None


def weaken(result: CompileResult, q_weak: Expr, opts: CompileOpts) -> CompileResult:
    """Final weakening to a caller-supplied error.  At a base family the
    ordering side condition is decided on the evaluated bounds, escalating
    the precision: a target provably above is emitted, and one provably
    below is refused.  At a function family, and at a base family still
    undecided at the precision cap, the emitted error is the pointwise join
    of the synthesized error and the target, which is sound whatever the
    ordering and equals the target wherever the ordering holds."""
    fam = result.family
    want = err_ty(fam)
    got = infer_type(TyCtx(), q_weak)
    if got != want:
        raise TypeMismatch(want, got, "weakening target")
    if isinstance(fam, PiTy):
        raise Unsupported("weakening at a polymorphic family: its error "
                          "carrier has no expressible join")
    # a free type variable in the family would have failed the typing above
    if isinstance(fam, Pi):
        undecided = "the ordering is not checked at a function family"
    else:
        r, p, bounds = _base_err_leq(result.err, q_weak, opts.cfg)
        if r is LeqVerdict.NO:
            raise SideConditionFailed("weakening target is not an upper "
                                      "bound of the synthesized error", bounds)
        undecided = None if r is LeqVerdict.YES else \
            f"comparison undecided at {p} bits"
    if undecided is None:
        err, verdict = q_weak, Verdict(status="pass", trials=1, passes=1)
    else:
        err = fold_err(join_apply(fam, result.err, q_weak))
        verdict = Verdict(status="pass",
                          reason=f"pointwise join emitted: {undecided}")
    below = SideCondition("synthesized error is below the weakening target",
                          verdict)
    d = Derivation("A-Weak", result.derivation.exact, result.approx, err, fam,
                   [result.derivation], [below])
    return CompileResult(d.approx, d.err, fam, d)


def _base_err_leq(q1: Expr, q2: Expr,
                  cfg: EvalConfig) -> Tuple[LeqVerdict, int, dict]:
    """Whether base-family error q1 is below q2, the precision at which the
    comparison stopped, and the two bounds compared there.  Bounds that
    embed irrational reals are enclosures, which may overlap at one
    precision and separate at a higher one; each step evaluates both on one
    call table.  A step whose evaluation meets an undecided comparison is
    undecided too; undecided at the cap, it raises OrderingUndecidable."""
    for p in precisions(cfg):
        cfgp, calls = cfg.at_precision(p), {}
        try:
            v1 = bound_of(eval_error(q1, cfg=cfgp, calls=calls))
            v2 = bound_of(eval_error(q2, cfg=cfgp, calls=calls))
        except OracleInconclusive as ex:
            undecided = ex
            continue
        undecided = None
        r = scalar_err_leq(v1, v2)
        if r is not LeqVerdict.YES_ON_SAMPLES:
            break
    if undecided is not None:
        raise OrderingUndecidable(
            f"the weakening check cannot evaluate its bounds at the "
            f"{p}-bit cap: {undecided}")
    return r, p, {"lhs": str(v1.lo), "rhs": str(v2.hi)}
