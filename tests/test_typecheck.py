from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from approxc.parser import parse
from approxc.syntax import (
    BOOL, ERRREAL, FLOAT64, NAT, REAL,
    App, Arrow, BoolLit, Builtin, ErrLit, Forall, Lam, NatLit, RealLit,
    TyVar, Var, subst,
)
from approxc.typecheck import (
    KindError, SharedNode, TyCtx, TypeMismatch, UnboundTypeVariable,
    UnboundVariable, infer_type, kind_check,
)


def _ty(src: str):
    return infer_type(TyCtx(), parse(src))


def test_identity_types():
    assert _ty("(lam (x Real) x)") == Arrow(REAL, REAL)


def test_bare_builtin_is_first_class():
    assert _ty("sinr") == Arrow(REAL, REAL)
    assert _ty("+r") == Arrow(REAL, Arrow(REAL, REAL))
    assert _ty("(+r 1/2)") == Arrow(REAL, REAL)


def test_polymorphic_identity():
    assert _ty("(tlam X (lam (x X) x))") == Forall("X", Arrow(TyVar("X"), TyVar("X")))


def test_type_application_substitutes():
    assert _ty("(tyapp (tlam X (lam (x X) x)) Nat)") == Arrow(NAT, NAT)


def test_redseq_type():
    assert _ty("(redseq +r 8 (lam (i Nat) (nat2real i)))") == REAL


def test_fix_type():
    src = ("(fix (lam (rec (-> Nat Real)) (lam (n Nat) "
           "(if (leqn n 0) 0/1 (+r (nat2real n) (app rec (-n n 1)))))))")
    assert _ty(src) == Arrow(NAT, REAL)


def test_literals():
    assert _ty("1/3") == REAL
    assert _ty("7") == NAT
    assert _ty("true") == BOOL
    assert _ty("(err 1/4)") == ERRREAL
    assert _ty("inf") == ERRREAL


def test_errors():
    with pytest.raises(UnboundVariable):
        _ty("nosuch")
    with pytest.raises(TypeMismatch):
        _ty("(app (lam (x Real) x) 7)")  # Nat where Real expected
    with pytest.raises(TypeMismatch):
        _ty("(if true 1/2 7)")
    with pytest.raises(KindError):
        _ty("(tyapp (lam (x Real) x) Nat)")


def test_kind_check():
    kind_check(TyCtx(), REAL)
    kind_check(TyCtx(), Forall("X", Arrow(TyVar("X"), TyVar("X"))))
    with pytest.raises(UnboundTypeVariable):
        kind_check(TyCtx(), TyVar("X"))
    with pytest.raises(UnboundTypeVariable):
        kind_check(TyCtx(), Arrow(REAL, TyVar("Y")))


def test_determinism():
    src = "(lam (f (-> Real Real)) (app f (sinr 1/2)))"
    assert _ty(src) == _ty(src)


# -- substitution lemma, property-tested over generated typed terms ------------

@st.composite
def typed_terms(draw, env=(), ty=None, depth=2):
    """A well-typed term of the requested type, by construction."""
    if ty is None:
        ty = draw(st.sampled_from([REAL, NAT, BOOL]))
    matching = [n for n, t in env if t == ty]
    options = []
    if matching:
        options.append("var")
    if ty in (REAL, NAT, BOOL):
        options.append("lit")
    if isinstance(ty, Arrow):
        options.append("lam")
    if depth > 0:
        options.append("app")
    choice = draw(st.sampled_from(options))
    if choice == "var":
        return Var(draw(st.sampled_from(matching)))
    if choice == "lit":
        if ty == REAL:
            return RealLit(draw(st.fractions(min_value=-9, max_value=9)))
        if ty == NAT:
            return NatLit(draw(st.integers(min_value=0, max_value=9)))
        return BoolLit(draw(st.booleans()))
    if choice == "lam":
        name = draw(st.sampled_from(["a", "b", "c"]))
        body = draw(typed_terms(env=env + ((name, ty.dom),), ty=ty.cod,
                                depth=max(0, depth - 1)))
        return Lam(name, ty.dom, body)
    # application at a synthesized argument type
    arg_ty = draw(st.sampled_from([REAL, NAT]))
    fn = draw(typed_terms(env=env, ty=Arrow(arg_ty, ty), depth=depth - 1))
    arg = draw(typed_terms(env=env, ty=arg_ty, depth=depth - 1))
    return App(fn, arg)


@given(st.data())
def test_substitution_lemma(data):
    ty1 = data.draw(st.sampled_from([REAL, NAT]))
    ty2 = data.draw(st.sampled_from([REAL, NAT, BOOL]))
    e = data.draw(typed_terms(env=(("hole", ty1),), ty=ty2, depth=2))
    v = data.draw(typed_terms(env=(), ty=ty1, depth=1))
    ctx = TyCtx().bind("hole", ty1)
    assert infer_type(ctx, e) == ty2
    assert infer_type(TyCtx(), v) == ty1
    assert infer_type(TyCtx(), subst(e, "hole", v)) == ty2


def test_a_node_shared_under_binders_of_different_types_compiles():
    from approxc.compiler import compile_program
    from approxc.syntax import to_source

    src = ("(+r (app (lam (y Real) (app (lam (z Real) z) y)) 1/1) "
           "(nat2real (app (lam (y Nat) (app (lam (z Nat) z) y)) 1)))")
    # the same program with one Var("y") object under both binders
    y = Var("y")
    shared = Builtin("+r", (
        App(Lam("y", REAL, App(Lam("z", REAL, Var("z")), y)),
            RealLit(Fraction(1))),
        Builtin("nat2real", (
            App(Lam("y", NAT, App(Lam("z", NAT, Var("z")), y)), NatLit(1)),)),
    ))
    assert shared == parse(src)
    want, got = compile_program(parse(src)), compile_program(shared)
    assert to_source(got.approx) == to_source(want.approx)
    assert to_source(got.err) == to_source(want.err)
    # the table records the shared node's two types only as a conflict
    with pytest.raises(SharedNode):
        infer_type(TyCtx(), shared, {})
