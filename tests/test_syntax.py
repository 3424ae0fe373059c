from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import approxc.compiler
from approxc.checker import load_sidecar_opts
from approxc.compiler import CompileOpts, compile_program
from approxc.parser import ParseError, UnknownBuiltin, parse, parse_ty
from approxc.syntax import (
    BOOL, BUILTINS, ERRREAL, FLOAT64, NAT, REAL, UNIT,
    App, Arrow, BoolLit, Builtin, ErrLit, Fix, FloatLit, Forall, If, Lam, NatLit,
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


# -- printing each node once ---------------------------------------------------------

def _to_source_reference(e):
    """The printer as it was before it kept each node's text: an isinstance
    chain that prints every occurrence of a shared node again."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lam):
        return f"(lam ({e.binder} {e.annot}) {_to_source_reference(e.body)})"
    if isinstance(e, App):
        return f"(app {_to_source_reference(e.fn)} {_to_source_reference(e.arg)})"
    if isinstance(e, TyLam):
        return f"(tlam {e.tyvar} {_to_source_reference(e.body)})"
    if isinstance(e, TyApp):
        return f"(tyapp {_to_source_reference(e.expr)} {e.ty})"
    if isinstance(e, Fix):
        return f"(fix {_to_source_reference(e.expr)})"
    if isinstance(e, If):
        return (f"(if {_to_source_reference(e.cond)} {_to_source_reference(e.then_e)} "
                f"{_to_source_reference(e.else_e)})")
    if isinstance(e, RealLit):
        return f"{e.value.numerator}/{e.value.denominator}"
    if isinstance(e, NatLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, ErrLit):
        if e.value is None:
            return "inf"
        return f"(err {e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Builtin):
        if not e.args:
            return e.op
        return "(" + " ".join([e.op] + [_to_source_reference(a) for a in e.args]) + ")"
    if isinstance(e, RedSeq):
        return (f"(redseq {_to_source_reference(e.combiner)} {_to_source_reference(e.count)} "
                f"{_to_source_reference(e.generator)})")
    raise TypeError(f"not an expression: {e!r}")


def _shared_exprs(depth=3):
    """_exprs in which one drawn node may stand at several places."""
    if depth == 0:
        return _exprs(0)
    sub = _shared_exprs(depth - 1)
    return st.one_of(
        _exprs(depth),
        st.floats(allow_nan=False).map(FloatLit.of),
        sub.map(lambda a: App(a, a)),
        st.tuples(sub, sub).map(lambda p: If(p[0], p[1], p[1])),
        st.tuples(sub, sub).map(lambda p: Builtin("+r", (p[0], App(p[1], p[0])))),
        st.tuples(_names, sub).map(lambda p: Lam(p[0], REAL, RedSeq(p[1], p[1], p[1]))),
    )


def _node_ids(e, seen):
    """The id of every node under e but the variables, added to seen."""
    if type(e) is not Var:
        seen.add(id(e))
    for c in children(e):
        _node_ids(c, seen)
    return seen


@given(st.lists(_shared_exprs(), min_size=1, max_size=3))
def test_printing_matches_the_reference(es):
    es = es + [App(es[0], es[-1])]  # a document whose expressions share nodes
    want = [_to_source_reference(e) for e in es]
    assert [to_source(e) for e in es] == want
    memo = {}
    assert [to_source(e, memo) for e in es] == want
    # one memo entry per distinct node: a shared node is printed once
    seen = set()
    for e in es:
        _node_ids(e, seen)
    assert set(memo) == seen


def test_corpus_texts_match_the_reference(corpus_dir, monkeypatch):
    for path in sorted(corpus_dir.glob("*.ax")):
        r = compile_program(parse(path.read_text()),
                            load_sidecar_opts(path, CompileOpts()))
        got = to_source(r.approx), to_source(r.err), r.derivation_json()
        with monkeypatch.context() as mp:
            mp.setattr(approxc.compiler, "to_source",
                       lambda e, memo: _to_source_reference(e))
            want = (_to_source_reference(r.approx),
                    _to_source_reference(r.err), r.derivation_json())
        assert got == want, path.name


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
