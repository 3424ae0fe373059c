"""Typed random programs: every small well-typed program either compiles to
an approximate program and an error expression that re-typecheck at the
family's approximate and error types and pass the soundness check, or is
refused with a CompileError.

Programs are built directly as syntax.py trees, well typed by
construction, from the constructs whose rules synthesize error terms for
each other: real arithmetic, sinr, conditionals with conditions that may
disagree (also at Nat and Bool), reductions over open generators with
perforation, a fix recursion of bounded depth, and a type abstraction
under a lambda, applied at Real.  Binders are drawn from enclosing
binders' names and from names the compiler generates, so programs shadow
binders and clash with generated names.
"""
from fractions import Fraction

from hypothesis import given, strategies as st

from approxc.checker import check_soundness
from approxc.compiler import (
    CompileError, CompileOpts, compile_program, label_sites,
)
from approxc.families import approx_ty, err_ty
from approxc.interp import EvalConfig
from approxc.syntax import (
    NAT, REAL, App, Arrow, BoolLit, Builtin, Expr, Fix, If, Lam, NatLit,
    RealLit, RedSeq, TyApp, TyLam, TyVar, Var, to_source,
)
from approxc.typecheck import TyCtx, infer_type

CFG = EvalConfig(fuel=200_000, precision_bits=128)
# dyadic literals are exact in binary64, the others carry an error
LITS = [Fraction(1, 2), Fraction(2), Fraction(5, 4), Fraction(1, 3),
        Fraction(1, 10), Fraction(7, 3)]


# binder names: x, i and names the compiler generates, for a binder
# (x_a, x_q, i_q), a reduction (s, t, acc_q) or a type variable q (z0_q)
NAMES = ["x", "i", "s", "t", "x_a", "x_q", "i_q", "acc_q", "z0_q"]
# type variable names, term names too; a lambda z0 or zp around a type
# abstraction over q would take the names that it binds, z0_q and zp_q
TYVARS = ["q", "x"]


def _binder(draw, scope, taken=()) -> str:
    """A binder name: an enclosing binder's or one of NAMES, not in taken."""
    pool = sorted(({n for n, _ in scope} | set(NAMES)) - set(taken))
    return draw(st.sampled_from(pool))


def _bind(scope, name, ty):
    """scope under a binder of name: the entry it shadows is dropped, so
    every variable drawn from scope names its own binder."""
    return [(n, t) for n, t in scope if n != name] + [(name, ty)]


def _real_lit(draw) -> Expr:
    return RealLit(draw(st.sampled_from(LITS)))


def _vars(scope, ty):
    return [Var(n) for n, t in scope if t == ty]


@st.composite
def nat_expr(draw, scope, depth):
    leaves = [NatLit(draw(st.integers(0, 3)))] + _vars(scope, NAT)
    kind = draw(st.sampled_from(["leaf", "leaf", "op", "if"] if depth > 0
                                else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    if kind == "op":
        op = draw(st.sampled_from(["+n", "-n", "*n"]))
        return Builtin(op, (draw(nat_expr(scope, depth - 1)),
                            draw(nat_expr(scope, depth - 1))))
    return If(draw(bool_expr(scope, depth - 1)),
              draw(nat_expr(scope, depth - 1)), draw(nat_expr(scope, depth - 1)))


@st.composite
def bool_expr(draw, scope, depth):
    kind = draw(st.sampled_from(["leqr", "leqn", "lit", "if"] if depth > 0
                                else ["leqr", "leqn", "lit"]))
    sub = max(0, depth - 1)
    if kind == "leqr":
        return Builtin("leqr", (draw(real_expr(scope, sub)),
                                draw(real_expr(scope, sub))))
    if kind == "leqn":
        return Builtin("leqn", (draw(nat_expr(scope, sub)),
                                draw(nat_expr(scope, sub))))
    if kind == "lit":
        return BoolLit(draw(st.booleans()))
    return If(draw(bool_expr(scope, sub)), draw(bool_expr(scope, sub)),
              draw(bool_expr(scope, sub)))


@st.composite
def real_expr(draw, scope, depth):
    leaves = ["lit", "nat2real"] + (["var"] * 2 if _vars(scope, REAL) else [])
    kind = draw(st.sampled_from(
        leaves + (["arith"] * 3 + ["div", "sinr", "if", "if", "redseq", "fix",
                                   "poly"] if depth > 0 else [])))
    sub = depth - 1
    if kind == "lit":
        return _real_lit(draw)
    if kind == "var":
        return draw(st.sampled_from(_vars(scope, REAL)))
    if kind == "nat2real":
        return Builtin("nat2real", (draw(nat_expr(scope, max(0, sub))),))
    if kind == "arith":
        op = draw(st.sampled_from(["+r", "-r", "*r"]))
        return Builtin(op, (draw(real_expr(scope, sub)),
                            draw(real_expr(scope, sub))))
    if kind == "div":
        return Builtin("/r", (draw(real_expr(scope, sub)), _real_lit(draw)))
    if kind == "sinr":
        return Builtin("sinr", (draw(real_expr(scope, sub)),))
    if kind == "if":
        return If(draw(bool_expr(scope, sub)), draw(real_expr(scope, sub)),
                  draw(real_expr(scope, sub)))
    if kind == "redseq":
        i = _binder(draw, scope)
        body = draw(real_expr(_bind(scope, i, NAT), sub))
        return RedSeq(Builtin("+r", ()), NatLit(draw(st.integers(0, 4))),
                      Lam(i, NAT, body))
    if kind == "poly":
        # (app (tyapp (app (lam (z Real) (tlam X (lam (y X) (+r z c)))) a)
        # Real) b): the family's names, picked at the type application, are
        # bound under z, whose error the body's error reads.  X is in no
        # type in scope, as typing refuses that shadowing
        z = draw(st.sampled_from(["z0", "zp", _binder(draw, scope)]))
        y = _binder(draw, scope, taken=(z,))
        busy = {t.name for _, t in scope if isinstance(t, TyVar)}
        tv = draw(st.sampled_from([v for v in TYVARS if v not in busy]))
        c = draw(real_expr(_bind(_bind(scope, z, REAL), y, TyVar(tv)), sub))
        fn = Lam(z, REAL, TyLam(tv, Lam(y, TyVar(tv),
                                         Builtin("+r", (Var(z), c)))))
        return App(TyApp(App(fn, draw(real_expr(scope, sub))), REAL),
                   draw(real_expr(scope, sub)))
    # a recursion of bounded depth: f n = base if n <= 0, else step + f (n-1)
    f = _binder(draw, scope)
    n = _binder(draw, scope, taken=(f,))
    inner = _bind(_bind(scope, f, Arrow(NAT, REAL)), n, NAT)
    base = draw(real_expr(inner, sub))
    step = draw(real_expr(inner, sub))
    rec = Builtin("+r", (step, App(Var(f), Builtin("-n", (Var(n), NatLit(1))))))
    fn = Fix(Lam(f, Arrow(NAT, REAL), Lam(n, NAT, If(
        Builtin("leqn", (Var(n), NatLit(0))), base, rec))))
    return App(fn, NatLit(draw(st.integers(0, 3))))


@st.composite
def programs(draw):
    """A closed real program or a real function of x, with options."""
    if draw(st.booleans()):
        x = _binder(draw, [])
        e = Lam(x, REAL, draw(real_expr([(x, REAL)], 3)))
    else:
        e = draw(real_expr([], 3))
    sites = [label for label, _ in label_sites(e)]
    perforation = {s: draw(st.integers(1, 3)) for s in sites
                   if draw(st.booleans())}
    opts = CompileOpts(enable_sin_subst=draw(st.booleans()),
                       perforation=perforation, cfg=CFG)
    return e, opts


@given(programs())
def test_random_program_compiles_soundly_or_is_refused(case):
    e, opts = case
    assert infer_type(TyCtx(), e) in (REAL, Arrow(REAL, REAL)), to_source(e)
    try:
        r = compile_program(e, opts)
    except CompileError:
        return
    assert infer_type(TyCtx(), r.approx) == approx_ty(r.family)
    assert infer_type(TyCtx(), r.err) == err_ty(r.family)
    rep = check_soundness(e, r, trials=20, seed=7, cfg=CFG)
    assert not rep.failures, (to_source(e), opts.perforation, rep.failures)
