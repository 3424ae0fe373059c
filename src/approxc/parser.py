"""Parser for the s-expression surface syntax.

One top-level expression per source file (extension .ax).  Comments run
from ';' to end of line.  Errors carry 1-based line/column positions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .syntax import (
    BOOL, BUILTINS, ERRREAL, FLOAT64, NAT, NESTING_STACK_LIMIT, REAL, UNIT,
    App, Arrow, BoolLit, Builtin, ErrLit, Expr, Fix, Forall, If, Lam,
    NatLit, RealLit, RedSeq, Ty, TyApp, TyLam, TyVar, Var, with_stack_limit,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class UnknownBuiltin(ParseError):
    pass


_KEYWORDS = {"lam", "app", "tlam", "tyapp", "fix", "if", "redseq", "err"}
_TY_NAMES = {"Real": REAL, "Float64": FLOAT64, "Nat": NAT, "Bool": BOOL,
             "Unit": UNIT, "ErrReal": ERRREAL}

_NAT_RE = re.compile(r"^[0-9]+$")
_RAT_RE = re.compile(r"^-?[0-9]+/[0-9]+$")
_DEC_RE = re.compile(r"^-?[0-9]+\.[0-9]+$")
_NEG_INT_RE = re.compile(r"^-[0-9]+$")


@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if c in "()":
            toks.append(_Tok(c, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();":
            j += 1
        toks.append(_Tok(text[i:j], line, col))
        col += j - i
        i = j
    return toks


class _Parser:
    def __init__(self, toks: List[_Tok]):
        self.toks = toks
        self.pos = 0

    def _peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self) -> _Tok:
        t = self._peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def _expect(self, text: str) -> _Tok:
        t = self._next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    # -- types ------------------------------------------------------------

    def parse_ty(self) -> Ty:
        t = self._next()
        if t.text == "(":
            head = self._next()
            if head.text == "->":
                dom = self.parse_ty()
                cod = self.parse_ty()
                self._expect(")")
                return Arrow(dom, cod)
            if head.text == "forall":
                var = self._name(self._next())
                body = self.parse_ty()
                self._expect(")")
                return Forall(var, body)
            raise ParseError(f"unknown type form {head.text!r}", head.line, head.col)
        if t.text in _TY_NAMES:
            return _TY_NAMES[t.text]
        if t.text == ")":
            raise ParseError("unexpected ')'", t.line, t.col)
        return TyVar(self._name(t))

    def _name(self, t: _Tok) -> str:
        if t.text in ("(", ")") or not t.text:
            raise ParseError("expected a name", t.line, t.col)
        return t.text

    # -- expressions ------------------------------------------------------

    def parse_expr(self) -> Expr:
        t = self._next()
        if t.text != "(":
            return self._atom(t)
        head = self._next()
        h = head.text
        if h == "lam":
            self._expect("(")
            binder = self._name(self._next())
            annot = self.parse_ty()
            self._expect(")")
            body = self.parse_expr()
            self._expect(")")
            return Lam(binder, annot, body)
        if h == "app":
            fn = self.parse_expr()
            arg = self.parse_expr()
            self._expect(")")
            # application of a (partial) builtin folds into the builtin node
            if isinstance(fn, Builtin) and len(fn.args) < len(BUILTINS[fn.op][0]):
                return Builtin(fn.op, fn.args + (arg,))
            return App(fn, arg)
        if h == "tlam":
            var = self._name(self._next())
            body = self.parse_expr()
            self._expect(")")
            return TyLam(var, body)
        if h == "tyapp":
            e = self.parse_expr()
            ty = self.parse_ty()
            self._expect(")")
            return TyApp(e, ty)
        if h == "fix":
            e = self.parse_expr()
            self._expect(")")
            return Fix(e)
        if h == "if":
            c = self.parse_expr()
            a = self.parse_expr()
            b = self.parse_expr()
            self._expect(")")
            return If(c, a, b)
        if h == "redseq":
            f = self.parse_expr()
            n = self.parse_expr()
            g = self.parse_expr()
            self._expect(")")
            return RedSeq(f, n, g)
        if h == "err":
            v = self._next()
            q = self._rational(v)
            if q is None or q < 0:
                raise ParseError("err takes a nonnegative rational", v.line, v.col)
            self._expect(")")
            return ErrLit(q)
        if h in BUILTINS:
            args = []
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise ParseError("unexpected end of input", head.line, head.col)
                if nxt.text == ")":
                    self._next()
                    break
                args.append(self.parse_expr())
            if len(args) > len(BUILTINS[h][0]):
                raise ParseError(f"too many arguments for {h}", head.line, head.col)
            return Builtin(h, tuple(args))
        if h == "(" or h == ")":
            raise ParseError("expected an operator name", head.line, head.col)
        raise UnknownBuiltin(f"unknown operator {h!r}", head.line, head.col)

    def _rational(self, t: _Tok) -> Optional[Fraction]:
        s = t.text
        if _RAT_RE.match(s):
            num, den = s.split("/")
            if int(den) == 0:
                raise ParseError("zero denominator", t.line, t.col)
            return Fraction(int(num), int(den))
        if _DEC_RE.match(s):
            return Fraction(s)
        if _NEG_INT_RE.match(s):
            return Fraction(int(s))
        return None

    def _atom(self, t: _Tok) -> Expr:
        s = t.text
        if s == ")":
            raise ParseError("unexpected ')'", t.line, t.col)
        if s == "true":
            return BoolLit(True)
        if s == "false":
            return BoolLit(False)
        if s == "inf":
            return ErrLit(None)
        if _NAT_RE.match(s):
            return NatLit(int(s))
        q = self._rational(t)
        if q is not None:
            return RealLit(q)
        if s in BUILTINS:
            return Builtin(s, ())
        if s in _KEYWORDS:
            raise ParseError(f"{s!r} is a keyword", t.line, t.col)
        return Var(s)


def parse(text: str) -> Expr:
    """Parse one top-level expression; raises ParseError with position."""
    return _parse_all(text, _Parser.parse_expr)


def parse_ty(text: str) -> Ty:
    return _parse_all(text, _Parser.parse_ty)


def _parse_all(text: str, parse_one):
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input", 1, 1)
    p = _Parser(toks)
    try:
        out = with_stack_limit(NESTING_STACK_LIMIT, lambda: parse_one(p))
    except RecursionError:
        # the parser recurses once per nested form
        t = p.toks[p.pos - 1]
        raise ParseError(f"nesting too deep to parse within "
                         f"{NESTING_STACK_LIMIT} stack frames",
                         t.line, t.col) from None
    rest = p._peek()
    if rest is not None:
        raise ParseError(f"trailing input {rest.text!r}", rest.line, rest.col)
    return out
