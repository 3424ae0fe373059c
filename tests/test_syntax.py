from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from approxc.parser import ParseError, UnknownBuiltin, parse, parse_ty
from approxc.syntax import (
    BOOL, BUILTINS, ERRREAL, FLOAT64, NAT, REAL, UNIT,
    App, Arrow, BoolLit, Builtin, ErrLit, Fix, Forall, If, Lam, NatLit,
    RealLit, RedSeq, TyApp, TyLam, TyVar, Var, children, free_vars,
    map_children, subst, to_source,
)


def test_parse_lambda_identity():
    e = parse("(lam (x Real) x)")
    assert e == Lam("x", REAL, Var("x"))


def test_parse_builtin_application_through_app():
    e = parse("(app sinr 1/2)")
    assert e == Builtin("sinr", (RealLit(Fraction(1, 2)),))


def test_parse_redseq():
    e = parse("(redseq +r 8 (lam (i Nat) (nat2real i)))")
    assert isinstance(e, RedSeq)
    assert e.combiner == Builtin("+r", ())
    assert e.count == NatLit(8)
    assert e.generator == Lam("i", NAT, Builtin("nat2real", (Var("i"),)))


def test_parse_decimals_are_exact_rationals():
    e = parse("0.1")
    assert e == RealLit(Fraction(1, 10))
    e = parse("3.14159265358979323846")
    assert e.value == Fraction("3.14159265358979323846")


def test_parse_negative_and_slash_rationals():
    assert parse("-3") == RealLit(Fraction(-3))
    assert parse("-3/4") == RealLit(Fraction(-3, 4))
    assert parse("7") == NatLit(7)


def test_parse_err_literals():
    assert parse("(err 1/2)") == ErrLit(Fraction(1, 2))
    assert parse("inf") == ErrLit(None)


def test_parse_types():
    assert parse_ty("(-> Real Float64)") == Arrow(REAL, FLOAT64)
    assert parse_ty("(forall X (-> X X))") == Forall("X", Arrow(TyVar("X"), TyVar("X")))


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse("(lam (x Real)\n  (app x")
    assert ei.value.line >= 1
    with pytest.raises(UnknownBuiltin):
        parse("(frobnicate 1 2)")


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse("1/2 1/3")


def test_comments_are_ignored():
    e = parse("; leading comment\n(lam (x Real) x) ; trailing")
    assert isinstance(e, Lam)


# -- round trip ---------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "f", "g", "acc"])
_tynames = st.sampled_from(["X", "Y", "Z"])
_base_tys = st.sampled_from([REAL, FLOAT64, NAT, BOOL, UNIT, ERRREAL])


def _tys(depth=2):
    if depth == 0:
        return st.one_of(_base_tys, _tynames.map(TyVar))
    sub = _tys(depth - 1)
    return st.one_of(
        _base_tys,
        _tynames.map(TyVar),
        st.tuples(sub, sub).map(lambda p: Arrow(*p)),
        st.tuples(_tynames, sub).map(lambda p: Forall(*p)),
    )


_rationals = st.fractions(min_value=-1000, max_value=1000)


def _exprs(depth=3):
    leaf = st.one_of(
        _names.map(Var),
        _rationals.map(RealLit),
        st.integers(min_value=0, max_value=99).map(NatLit),
        st.booleans().map(BoolLit),
        st.one_of(st.none(), st.fractions(min_value=0, max_value=9)).map(ErrLit),
        st.sampled_from(["+r", "sinr", "+q", "leqn"]).map(lambda op: Builtin(op, ())),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(_names, _tys(1), sub).map(lambda p: Lam(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
        st.tuples(_tynames, sub).map(lambda p: TyLam(*p)),
        st.tuples(sub, _tys(1)).map(lambda p: TyApp(*p)),
        sub.map(Fix),
        st.tuples(sub, sub, sub).map(lambda p: If(*p)),
        st.tuples(sub, sub, sub).map(lambda p: RedSeq(*p)),
        st.tuples(sub, sub).map(lambda p: Builtin("+r", p)),
        sub.map(lambda a: Builtin("sinr", (a,))),
    )


@given(_exprs())
def test_parse_print_round_trip(e):
    # App over a partial builtin folds into the builtin node, which is
    # the parse of what the printer emits for it, so normalize once
    normalized = parse(to_source(e))
    assert parse(to_source(normalized)) == normalized


@given(_exprs(2))
def test_substitution_eliminates_the_variable(e):
    out = subst(e, "x", Var("y"))
    assert "x" not in free_vars(out)
    if "x" in free_vars(e):
        assert "y" in free_vars(out)


# -- child table -----------------------------------------------------------------

@given(_exprs())
def test_map_children_identity_rebuilds_the_node(e):
    assert map_children(e, lambda c: c) == e


@given(_exprs())
def test_children_cover_every_printed_subexpression(e):
    # print each node with its children replaced by holes: the holes must
    # be all the printed subexpressions, in order, and filling them back
    # in with the children's sources must give the node's source
    todo = [e]
    while todo:
        node = todo.pop()
        kids = children(node)
        parts = to_source(map_children(node, lambda c: Var("#"))).split("#")
        assert len(parts) == len(kids) + 1
        filled = "".join(p + to_source(k) for p, k in zip(parts, kids))
        assert filled + parts[-1] == to_source(node)
        todo.extend(kids)
