"""Approximation descriptors, and membership and approximate equality
checked by one sampling-based distance check.

A descriptor ties together an exact type, an approximate type, an error
carrier with its zero and addition, and the membership relation "e is
approximated by a within q".  Base descriptors cover reals-by-floats,
naturals, and booleans; function descriptors quantify over member
inputs; polymorphic descriptors abstract a whole base family.

Membership at function descriptors is checked by sampling input triples
that are members by construction, so a passing verdict there means
pass-on-samples, never proof.  A trial applies the programs' values to
its drawn inputs, so each program is staged once, not once per trial; a
base family draws nothing and seeds no generator.  Records are formatted
when read.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from . import enclosure as enc
from .enclosure import from_rational
from .floats import nearest_float, to_fraction
from .interp import (
    DIVERGED, EvalConfig, OracleInconclusive, VFloat,
    bound_of, eval_approx, eval_error, eval_exact,
)
from .parser import parse
from .quant import AxiomReport, AxiomResult
from .sampling import (
    sample_err_fraction, sample_finite_err_fraction, sample_nat,
    sample_real_fraction, trial_rng,
)
from .syntax import (
    BOOL, ERRREAL, FLOAT64, NAT, REAL,
    App, Arrow, BoolLit, Builtin, ErrLit, Expr, FloatLit, Forall, Lam,
    NatLit, RealLit, Ty, TyApp, TyLam, TyVar, Var, free_vars, fresh_name,
    map_children, subst, to_source,
)

# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class FlBase:
    """Reals approximated by binary64, error = real distance."""


@dataclass(frozen=True)
class NatBase:
    """Naturals approximated by naturals, error = absolute difference."""


@dataclass(frozen=True)
class BoolBase:
    """Booleans approximated by booleans; the error counts possible
    disagreement (0 = always equal, >= 1 = may differ)."""


@dataclass(frozen=True)
class VarBase:
    """A family variable bound by an enclosing polymorphic descriptor."""

    xe: str
    xa: str
    xq: str
    z0: str
    zp: str


@dataclass(frozen=True)
class Pi:
    """Function approximation: inputs range over members of `fam`, and
    the error maps an exact input and its input error to an output
    error."""

    xe: str
    xa: str
    xq: str
    fam: "ApproxTy"
    body: "ApproxTy"


@dataclass(frozen=True)
class PiTy:
    """Polymorphic approximation: abstracts the exact/approximate/error
    types of a base family together with its error zero and addition."""

    xe: str
    xa: str
    xq: str
    z0: str
    zp: str
    body: "ApproxTy"


ApproxTy = Union[FlBase, NatBase, BoolBase, VarBase, Pi, PiTy]

FL = FlBase()
NAT_A = NatBase()
BOOL_A = BoolBase()


def fn_family(*fams: ApproxTy) -> ApproxTy:
    """Non-dependent function descriptor chain, right associated."""
    out = fams[-1]
    for i, f in reversed(list(enumerate(fams[:-1]))):
        out = Pi(f"x{i}", f"x{i}_a", f"x{i}_q", f, out)
    return out


def exact_ty(a: ApproxTy) -> Ty:
    if isinstance(a, FlBase):
        return REAL
    if isinstance(a, NatBase):
        return NAT
    if isinstance(a, BoolBase):
        return BOOL
    if isinstance(a, VarBase):
        return TyVar(a.xe)
    if isinstance(a, Pi):
        return Arrow(exact_ty(a.fam), exact_ty(a.body))
    if isinstance(a, PiTy):
        return Forall(a.xe, exact_ty(a.body))
    raise TypeError(a)


def approx_ty(a: ApproxTy) -> Ty:
    if isinstance(a, FlBase):
        return FLOAT64
    if isinstance(a, NatBase):
        return NAT
    if isinstance(a, BoolBase):
        return BOOL
    if isinstance(a, VarBase):
        return TyVar(a.xa)
    if isinstance(a, Pi):
        return Arrow(approx_ty(a.fam), approx_ty(a.body))
    if isinstance(a, PiTy):
        return Forall(a.xa, approx_ty(a.body))
    raise TypeError(a)


def err_ty(a: ApproxTy) -> Ty:
    if isinstance(a, FlBase):
        return ERRREAL
    if isinstance(a, (NatBase, BoolBase)):
        return NAT
    if isinstance(a, VarBase):
        return TyVar(a.xq)
    if isinstance(a, Pi):
        return Arrow(exact_ty(a.fam), Arrow(err_ty(a.fam), err_ty(a.body)))
    if isinstance(a, PiTy):
        q = TyVar(a.xq)
        return Forall(a.xe, Forall(a.xq, Arrow(q, Arrow(
            Arrow(q, Arrow(q, q)), err_ty(a.body)))))
    raise TypeError(a)


def zero_expr(a: ApproxTy) -> Expr:
    if isinstance(a, FlBase):
        return ErrLit(Fraction(0))
    if isinstance(a, (NatBase, BoolBase)):
        return NatLit(0)
    if isinstance(a, VarBase):
        return Var(a.z0)
    if isinstance(a, Pi):
        return Lam(a.xe, exact_ty(a.fam), Lam(a.xq, err_ty(a.fam),
                                              zero_expr(a.body)))
    if isinstance(a, PiTy):
        q = TyVar(a.xq)
        return TyLam(a.xe, TyLam(a.xq, Lam(
            a.z0, q, Lam(a.zp, Arrow(q, Arrow(q, q)), zero_expr(a.body)))))
    raise TypeError(a)


def _pointwise(a: ApproxTy, q1: Expr, q2: Expr, at_base) -> Expr:
    """at_base(b, q1', q2') lifted through a's function spine: q1' and q2'
    are q1 and q2 applied to the same exact input and input error."""
    if not isinstance(a, Pi):
        return at_base(a, q1, q2)
    xe, xq = a.xe, a.xq
    avoid = free_vars(q1) | free_vars(q2)
    while xe in avoid or xq in avoid or xe == xq:
        xe += "'"
        xq += "'"
    return Lam(xe, exact_ty(a.fam), Lam(xq, err_ty(a.fam), _pointwise(
        a.body, _apply2(q1, xe, xq), _apply2(q2, xe, xq), at_base)))


def _apply2(q: Expr, xe: str, xq: str) -> Expr:
    """q applied to the variables xe and xq.  A literal two-level lambda
    gets them substituted instead: variables are values, so the same
    subterms are evaluated, without the two applications."""
    if type(q) is Lam and type(q.body) is Lam:
        inner = subst(q.body, q.binder, Var(xe))
        return subst(inner.body, inner.binder, Var(xq))
    return App(App(q, Var(xe)), Var(xq))


def _plus_base(a: ApproxTy, q1: Expr, q2: Expr) -> Expr:
    if isinstance(a, FlBase):
        return Builtin("+q", (q1, q2))
    if isinstance(a, (NatBase, BoolBase)):
        return Builtin("+n", (q1, q2))
    if isinstance(a, VarBase):
        return App(App(Var(a.zp), q1), q2)
    raise TypeError(f"no expressible addition for {a!r}")


def _join_base(a: ApproxTy, q1: Expr, q2: Expr) -> Expr:
    if isinstance(a, FlBase):
        return Builtin("maxq", (q1, q2))
    if isinstance(a, (NatBase, BoolBase)):
        # v + (q2 - v), with truncated subtraction, is max(v, q2); q1 is
        # bound to v, so it is evaluated once
        v = Var(fresh_name("j", free_vars(q2)))
        return App(Lam(v.name, NAT, Builtin("+n", (v, Builtin("-n", (q2, v))))),
                   q1)
    raise TypeError(f"no expressible join for {a!r}")


def plus_apply(a: ApproxTy, q1: Expr, q2: Expr) -> Expr:
    """The family's error addition applied to two error expressions."""
    return _pointwise(a, q1, q2, _plus_base)


def join_apply(a: ApproxTy, q1: Expr, q2: Expr) -> Expr:
    """The pointwise maximum of two error expressions: at least each of
    them, and equal to q2 wherever q1 is below q2."""
    return _pointwise(a, q1, q2, _join_base)


def plus_lambda(a: ApproxTy) -> Expr:
    t = err_ty(a)
    return Lam("%qa", t, Lam("%qb", t, plus_apply(a, Var("%qa"), Var("%qb"))))


def _canon(a: ApproxTy, ren: Dict[str, str], counter: List[int]):
    """Structure of a descriptor with binders renamed canonically."""
    if isinstance(a, (FlBase, NatBase, BoolBase)):
        return type(a).__name__
    if isinstance(a, VarBase):
        return ("var", ren.get(a.xe, a.xe))
    if isinstance(a, Pi):
        return ("pi", _canon(a.fam, ren, counter), _canon(a.body, ren, counter))
    if isinstance(a, PiTy):
        counter[0] += 1
        nm = f"X{counter[0]}"
        ren2 = dict(ren)
        ren2[a.xe] = nm
        return ("pity", nm, _canon(a.body, ren2, counter))
    raise TypeError(a)


def same_family(a: ApproxTy, b: ApproxTy) -> bool:
    return _canon(a, {}, [0]) == _canon(b, {}, [0])


def family_source(a: ApproxTy) -> str:
    if isinstance(a, FlBase):
        return "Fl"
    if isinstance(a, NatBase):
        return "Nat"
    if isinstance(a, BoolBase):
        return "Bool"
    if isinstance(a, VarBase):
        return a.xe
    if isinstance(a, Pi):
        left = family_source(a.fam)
        if isinstance(a.fam, (Pi, PiTy)):
            left = f"({left})"
        return f"{left} => {family_source(a.body)}"
    if isinstance(a, PiTy):
        return f"forall {a.xe}. {family_source(a.body)}"
    raise TypeError(a)


def family_from_type(t: Ty, tymap: Optional[Dict[str, VarBase]] = None) -> ApproxTy:
    """The canonical descriptor for an exact type."""
    tymap = tymap or {}
    if t == REAL:
        return FL
    if t == NAT:
        return NAT_A
    if t == BOOL:
        return BOOL_A
    if isinstance(t, TyVar) and t.name in tymap:
        return tymap[t.name]
    if isinstance(t, Arrow):
        return fn_family(family_from_type(t.dom, tymap),
                         family_from_type(t.cod, tymap))
    raise TypeError(f"no known approximation family for type {t}")


def instantiate_poly(pt: PiTy, fam: ApproxTy) -> ApproxTy:
    """Substitute a concrete family for the abstracted one."""

    def go(a: ApproxTy) -> ApproxTy:
        if isinstance(a, VarBase):
            return fam if a.xe == pt.xe else a
        if isinstance(a, Pi):
            return Pi(a.xe, a.xa, a.xq, go(a.fam), go(a.body))
        if isinstance(a, PiTy):
            if a.xe == pt.xe:  # shadowed
                return a
            return PiTy(a.xe, a.xa, a.xq, a.z0, a.zp, go(a.body))
        return a

    return go(pt.body)


def monomorphize(pt: PiTy, fam: ApproxTy, e: Expr, a: Expr, q: Expr
                 ) -> Tuple[Expr, Expr, Expr, ApproxTy]:
    """Apply a polymorphic triple at a concrete base family."""
    me = TyApp(e, exact_ty(fam))
    ma = TyApp(a, approx_ty(fam))
    mq = App(App(TyApp(TyApp(q, exact_ty(fam)), err_ty(fam)),
                 zero_expr(fam)), plus_lambda(fam))
    return me, ma, mq, instantiate_poly(pt, fam)


# ---------------------------------------------------------------------------
# approximation contexts

@dataclass(frozen=True)
class ValTriple:
    xe: str
    xa: str
    xq: str
    family: ApproxTy


# a type variable's entry is the family variable that a polymorphic
# descriptor binds for it
CtxEntry = Union[ValTriple, VarBase]


@dataclass(frozen=True)
class ApproxCtx:
    entries: Tuple[CtxEntry, ...] = ()

    def extend(self, entry: CtxEntry) -> "ApproxCtx":
        clash = self.names() & _entry_names(entry)
        if clash:
            raise ValueError(f"context names collide: {clash}")
        return ApproxCtx(self.entries + (entry,))

    def names(self) -> set:
        out = set()
        for en in self.entries:
            out |= _entry_names(en)
        return out

    def lookup(self, xe: str) -> Optional[ValTriple]:
        for en in reversed(self.entries):
            if isinstance(en, ValTriple) and en.xe == xe:
                return en
        return None


def _entry_names(en: CtxEntry) -> set:
    if isinstance(en, ValTriple):
        return {en.xe, en.xa, en.xq}
    return {en.xe, en.xa, en.xq, en.z0, en.zp}


def ctx_exact(ctx: ApproxCtx):
    """|ctx| projected to the exact world as a typing context."""
    from .typecheck import TyCtx
    t = TyCtx()
    for en in ctx.entries:
        if isinstance(en, ValTriple):
            t = t.bind(en.xe, exact_ty(en.family))
        else:
            t = t.bind_tyvar(en.xe)
    return t


# ---------------------------------------------------------------------------
# verdicts

@dataclass
class Verdict:
    status: str  # "pass" | "fail" | "inconclusive"
    reason: str = ""
    counterexample: Optional[dict] = None
    trials: int = 0
    passes: int = 0
    inconclusive: int = 0
    on_samples: bool = False  # true when the verdict rests on sampling

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_doc(self) -> dict:
        doc = {"schema": "verdict/v1", "status": self.status,
               "trials": self.trials, "passes": self.passes,
               "inconclusive": self.inconclusive,
               "on_samples": self.on_samples}
        if self.reason:
            doc["reason"] = self.reason
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)


@dataclass
class TrialOutcome:
    """A trial's status, and its record, formatted when first read."""

    index: int
    status: str  # "pass" | "fail" | "inconclusive"
    raw: dict

    @cached_property
    def record(self) -> dict:
        return {k: _formatted(v) for k, v in self.raw.items()}


def _formatted(v):
    """A raw record value as reported: a ratio (num, den) as a fraction, a
    float by repr, an input node as source text, a list elementwise."""
    if isinstance(v, (str, int)):
        return v
    if type(v) is tuple:
        return str(Fraction(*v))
    if type(v) is list:
        return [_formatted(x) for x in v]
    return repr(v) if type(v) is float else to_source(v)


def precisions(cfg: EvalConfig):
    """The precision steps of an escalation: the configured precision,
    doubled up to the cap, the cap last."""
    p = cfg.precision_bits
    while True:
        yield min(p, cfg.max_precision_bits)
        if p >= cfg.max_precision_bits:
            return
        p *= 2


# ---------------------------------------------------------------------------
# the distance check: membership and approximate equality
#
# Both claims read "other is within q of e".  Membership (approx=True)
# takes other from the approximate world: a float program, evaluated
# once.  Approximate equality (approx=False) takes a second exact
# program, evaluated at each precision like e.

_BASES = (FlBase, NatBase, BoolBase)
_TIGHT_CUTOFF_BITS = 48


def _diverged(fam: ApproxTy, ev, ov, approx: bool) -> Tuple[str, dict]:
    """The verdict when a side diverges under a finite bound."""
    if not approx:
        return ("inconclusive", {"note": "divergence in equality operands"})
    if ev is DIVERGED and ov is DIVERGED:
        return ("pass", {"note": "both sides diverge"})
    if not isinstance(fam, FlBase):
        return ("fail", {"note": "one side diverges under a finite bound"})
    if ev is DIVERGED:
        return ("fail", {"note": "exact diverges, approximation does not"})
    return ("fail", {"note": "approximation diverges under a finite bound"})


def _base_check(fam: ApproxTy, q: Expr, e: Expr, other: Expr, approx: bool,
                cfg: EvalConfig, q_in=(), e_in=(), o_in=()) -> Tuple[str, dict]:
    """Decide distance <= bound at a base family, for q, e and other applied
    to the inputs q_in, e_in and o_in (see interp.eval_exact).

    Each precision step evaluates q, e and (for equality) other once, on
    one call table, and takes the infinite-bound and divergence shortcuts
    on those values before it measures.  Nat and Bool distances are exact.
    An Fl distance that stays undecided cannot provably exceed the bound,
    so it passes with the combined enclosure width reported as slack;
    escalation stops once the enclosures agree to 48 bits beyond the
    starting precision (a tight bound met exactly) or at the precision
    cap.  An undecided comparison inside any of the programs makes the
    trial inconclusive.  The record holds numbers, formatted when read.
    """
    if not approx and e == other and e_in == o_in:
        return ("pass", {"note": "identical expressions"})
    cutoff_bits = cfg.precision_bits + _TIGHT_CUTOFF_BITS
    try:
        av = eval_approx(other, cfg=cfg, inputs=o_in) if approx else None
        for p in precisions(cfg):
            cfgp, calls = cfg.at_precision(p), {}
            qv = bound_of(eval_error(q, cfg=cfgp, calls=calls, inputs=q_in))
            ql, qh, qd = qv
            if ql is None:
                return ("pass", {"bound": ["inf", "inf"]})
            ev = eval_exact(e, cfg=cfgp, calls=calls, inputs=e_in)
            ov = av if approx else eval_exact(other, cfg=cfgp, calls=calls,
                                              inputs=o_in)
            if ev is DIVERGED or ov is DIVERGED:
                return _diverged(fam, ev, ov, approx)
            rec = {"bound": [(ql, qd), "inf" if qh is None else (qh, qd)]}
            if not isinstance(fam, FlBase):
                d = abs(ev.value - ov.value)
                rec["measured"] = [(d, 1), (d, 1)]
                return ("pass" if qh is None or d * qd <= qh else "fail", rec)
            if approx:
                if not isinstance(ov, VFloat) or not math.isfinite(ov.value):
                    return ("fail", {"note": f"approximate value {ov!r} has no "
                                             "finite real reading under a finite bound"})
                rec["approx"] = ov.value
                oenc = from_rational(to_fraction(ov.value), p)
            else:
                oenc = ov.enc
            # the distance [dl, dh] / dd against the bound [ql, qh] / qd, on
            # cross-multiplied numerators
            dl, dh, dd, _ = enc.enclose_op("dr", [ev.enc, oenc], p,
                                           cfg.max_precision_bits)
            rec["measured"] = [(dl, dd), (dh, dd)]
            if qh is None:
                # bound might be infinite; cannot be refuted
                return ("pass", {**rec, "slack": (dh - dl, dd)})
            if dh * qd <= ql * dd:
                return ("pass", {**rec, "slack": "0",
                                 "tight": (2 * dh - dl) * qd >= ql * dd})
            if dl * qd > qh * dd:
                return ("fail", {**rec, "excess": (dl * qd - qh * dd, dd * qd)})
            # the combined width against 2^-cutoff_bits * max(1, bound)
            slack = (dh - dl) * qd + (qh - ql) * dd
            if slack << cutoff_bits <= max(qd, qh) * dd:
                break
    except OracleInconclusive as ex:
        return ("inconclusive", {"note": str(ex)})
    return ("pass", {**rec, "slack": (slack, dd * qd), "tight": True})


# what monomorphize applies q, e and a to at each base family, built once
_POLY_INPUTS = {b: ((exact_ty(b), err_ty(b), zero_expr(b), plus_lambda(b)),
                    (exact_ty(b),), (approx_ty(b),)) for b in (FL, NAT_A)}


def _check_once(fam: ApproxTy, q: Expr, e: Expr, other: Expr, approx: bool,
                rng: Optional[random.Random], cfg: EvalConfig, inputs: list,
                q_in=(), e_in=(), o_in=()) -> Tuple[str, dict]:
    """One trial: draw inputs down the Pi/PiTy spine, then check the base.

    q_in, e_in and o_in collect what q, e and other are applied to, and
    inputs what the record reports.  Membership feeds both sides a member
    triple; equality feeds both the exact input, with an arbitrary error
    for a real input."""
    if isinstance(fam, _BASES):
        return _base_check(fam, q, e, other, approx, cfg, q_in, e_in, o_in)
    if isinstance(fam, Pi):
        trip = sample_member_triple(fam.fam, rng)
        if trip is None:
            return ("inconclusive",
                    {"note": f"no input sampler for family "
                             f"{family_source(fam.fam)}"})
        x, xa, xq = trip
        if not approx:
            xa = x
            if isinstance(fam.fam, FlBase):
                xq = ErrLit(sample_err_fraction(rng))
        inputs.append(x)
        return _check_once(fam.body, q, e, other, approx, rng, cfg, inputs,
                           q_in + (x, xq), e_in + (x,), o_in + (xa,))
    if isinstance(fam, PiTy):
        base: ApproxTy = FL if rng.randrange(2) == 0 else NAT_A
        tq, te, ta = _POLY_INPUTS[base]
        inputs.append(f"@{family_source(base)}")
        return _check_once(instantiate_poly(fam, base), q, e, other, approx,
                           rng, cfg, inputs, q_in + tq, e_in + te,
                           o_in + (ta if approx else te))
    return ("inconclusive", {"note": "free family variable"})


def _trial(fam: ApproxTy, q: Expr, e: Expr, other: Expr, approx: bool,
           t: int, seed: int, cfg: EvalConfig) -> TrialOutcome:
    """Trial t: inputs drawn on its own generator trial_rng(seed, t), which
    a base family, drawing none, never seeds."""
    inputs: list = []
    rng = None if isinstance(fam, _BASES) else trial_rng(seed, t)
    status, rec = _check_once(fam, q, e, other, approx, rng, cfg, inputs)
    return TrialOutcome(t, status, {"seed": seed, "trial": t,
                                    "inputs": inputs, **rec})


def _outcomes(fam: ApproxTy, q: Expr, e: Expr, other: Expr, approx: bool,
              trials: int, seed: int, cfg: EvalConfig) -> List[TrialOutcome]:
    """Per-trial outcomes.  Base families take no samples: one check runs,
    and membership copies it into every requested trial."""
    n = max(1, trials)
    if not isinstance(fam, _BASES):
        return [_trial(fam, q, e, other, approx, t, seed, cfg)
                for t in range(n)]
    first = _trial(fam, q, e, other, approx, 0, seed, cfg)
    return [first] + [TrialOutcome(t, first.status, {**first.raw, "trial": t,
                                                     "inputs": []})
                      for t in range(1, n) if approx]


def _verdict(fam: ApproxTy, outcomes: List[TrialOutcome]) -> Verdict:
    passes = sum(1 for o in outcomes if o.status == "pass")
    inconc = sum(1 for o in outcomes if o.status == "inconclusive")
    first_fail = next((o for o in outcomes if o.status == "fail"), None)
    v = Verdict(status="pass", trials=len(outcomes), passes=passes,
                inconclusive=inconc, on_samples=not isinstance(fam, _BASES))
    if first_fail is not None:
        v.status = "fail"
        v.counterexample = first_fail.record
    elif inconc == len(outcomes):
        v.status = "inconclusive"
        v.reason = outcomes[0].record.get("note", "")
    return v


def member_trials(fam: ApproxTy, q: Expr, a: Expr, e: Expr,
                  trials: int, seed: int, cfg: EvalConfig) -> List[TrialOutcome]:
    """Per-trial membership outcomes of "a approximates e within q"."""
    return _outcomes(fam, q, e, a, True, trials, seed, cfg)


def member_trial(fam: ApproxTy, q: Expr, a: Expr, e: Expr,
                 trial: int, seed: int, cfg: EvalConfig) -> TrialOutcome:
    """The outcome member_trials reports for one trial, from one check."""
    return _trial(fam, q, e, a, True, trial, seed, cfg)


def appr_member(fam: ApproxTy, q: Expr, a: Expr, e: Expr,
                trials: int = 100, seed: int = 42,
                cfg: EvalConfig = EvalConfig()) -> Verdict:
    """Does e belong to the members approximated by a within q?

    Base families decide by oracle comparison with precision escalation;
    function families sample member inputs, so a pass is on-samples.
    """
    return _verdict(fam, member_trials(fam, q, a, e, trials, seed, cfg))


def aeq_check(fam: ApproxTy, q: Expr, e1: Expr, e2: Expr,
              trials: int = 100, seed: int = 42,
              cfg: EvalConfig = EvalConfig()) -> Verdict:
    """Are e1 and e2 within q of each other in this family?"""
    return _verdict(fam, _outcomes(fam, q, e1, e2, False, trials, seed, cfg))


# ---------------------------------------------------------------------------
# member construction (sampling)

_FN_TRIPLES: Dict[str, List[Tuple[str, str, str]]] = {
    "Fl => Fl": [
        ("(lam (x Real) x)",
         "(lam (x Float64) x)",
         "(lam (x Real) (lam (k ErrReal) k))"),
        ("(lam (x Real) 1/3)",
         "(lam (x Float64) 0.3333333333333333)",
         "(lam (x Real) (lam (k ErrReal) (err 1/54043195528445952)))"),
        ("(lam (x Real) 1/1)",
         "(lam (x Float64) 1.0)",
         "(lam (x Real) (lam (k ErrReal) (err 0/1)))"),
        ("(lam (x Real) (+r x x))",
         "(lam (x Float64) (+f x x))",
         "(lam (x Real) (lam (k ErrReal) (+err x k x k)))"),
        ("(lam (x Real) (sinr x))",
         "(lam (x Float64) (sinf x))",
         "(lam (x Real) (lam (k ErrReal) (sinerr x k)))"),
        ("(lam (x Real) (*r 3/2 x))",
         "(lam (x Float64) (*f 1.5 x))",
         "(lam (x Real) (lam (k ErrReal) (*err 3/2 (err 0/1) x k)))"),
    ],
    "Nat => Fl": [
        ("(lam (n Nat) (nat2real n))",
         "(lam (n Nat) (nat2float n))",
         "(lam (n Nat) (lam (k Nat) (n2rerr n k)))"),
        ("(lam (n Nat) 1/2)",
         "(lam (n Nat) 0.5)",
         "(lam (n Nat) (lam (k Nat) (err 0/1)))"),
    ],
    "Nat => Nat": [
        ("(lam (n Nat) n)", "(lam (n Nat) n)",
         "(lam (n Nat) (lam (k Nat) k))"),
        ("(lam (n Nat) (+n n 1))", "(lam (n Nat) (+n n 1))",
         "(lam (n Nat) (lam (k Nat) k))"),
    ],
}

_fn_triple_cache: Dict[str, List[Tuple[Expr, Expr, Expr]]] = {}


def as_float_literals(e: Expr) -> Expr:
    """Reread numeric literals as binary64 (surface decimals parse as
    rationals; approximate programs carry float literals)."""
    if type(e) is RealLit:
        return FloatLit.of(nearest_float(e.value))
    return map_children(e, as_float_literals)


def _fn_triples(key: str) -> List[Tuple[Expr, Expr, Expr]]:
    if key not in _fn_triple_cache:
        _fn_triple_cache[key] = [
            (parse(e), as_float_literals(parse(a)), parse(q))
            for e, a, q in _FN_TRIPLES[key]]
    return _fn_triple_cache[key]


def sample_member_triple(fam: ApproxTy, rng: random.Random
                         ) -> Optional[Tuple[Expr, Expr, Expr]]:
    """A (exact, approximate, error) member triple, by construction."""
    if isinstance(fam, FlBase):
        for _ in range(16):
            x = sample_real_fraction(rng)
            k = rng.randrange(4)
            if k == 0:
                a = nearest_float(x)
            elif k == 1:
                a = math.nextafter(nearest_float(x),
                                   math.inf if rng.randrange(2) else -math.inf)
            else:
                off = sample_finite_err_fraction(rng)
                a = nearest_float(x + (off if rng.randrange(2) else -off))
            if not math.isfinite(a):
                continue
            d = abs(x - Fraction(a))
            extra = Fraction(0) if rng.randrange(2) else sample_finite_err_fraction(rng)
            return (RealLit(x), FloatLit.of(a), ErrLit(d + extra))
        return (RealLit(Fraction(0)), FloatLit.of(0.0), ErrLit(Fraction(0)))
    if isinstance(fam, NatBase):
        n = sample_nat(rng)
        return (NatLit(n), NatLit(n), NatLit(0))
    if isinstance(fam, BoolBase):
        b = bool(rng.randrange(2))
        return (BoolLit(b), BoolLit(b), NatLit(0))
    if isinstance(fam, Pi):
        key = family_source(fam)
        if key not in _FN_TRIPLES:
            return None
        pool = _fn_triples(key)
        return pool[rng.randrange(len(pool))]
    return None


# ---------------------------------------------------------------------------
# axiom suite for approximation descriptors

APPROX_CLAUSES = (
    "Error Weakening",
    "Error Addition",
    "Equivalence",
    "Approximate Equality",
    "Upward Closedness",
    "Reflexivity",
    "Symmetry",
    "Triangle Inequality",
    "Completeness",
)


def _shift_exact(fam: ApproxTy, e: Expr, c: Fraction) -> Optional[Expr]:
    """An expression at exact distance |c| from e (reals only)."""
    if isinstance(fam, FlBase):
        return Builtin("+r", (e, RealLit(c)))
    if isinstance(fam, Pi) and isinstance(fam.body, FlBase):
        b = "t"
        while b in free_vars(e):
            b += "'"
        return Lam(b, exact_ty(fam.fam),
                   Builtin("+r", (App(e, Var(b)), RealLit(c))))
    return None


def _const_err(fam: ApproxTy, c: Optional[Fraction]) -> Expr:
    """The constant error |c| lifted pointwise through the family."""
    if isinstance(fam, FlBase):
        return ErrLit(c)
    if isinstance(fam, (NatBase, BoolBase)):
        return NatLit(0 if c is None else math.ceil(c))
    if isinstance(fam, Pi):
        return Lam(fam.xe, exact_ty(fam.fam), Lam(fam.xq, err_ty(fam.fam),
                                                  _const_err(fam.body, c)))
    raise TypeError(fam)


def check_approx_axioms(fam: ApproxTy, trials: int = 200, seed: int = 42,
                        cfg: EvalConfig = EvalConfig()) -> AxiomReport:
    """Exercise the membership and equality laws on constructed members.

    Members are built by the samplers (never searched for), so every
    clause is tested on witnesses known to satisfy its premises.
    """
    report = AxiomReport(instance=f"approx({family_source(fam)})",
                         trials=trials, seed=seed)
    failures: Dict[str, str] = {}

    def fail(clause: str, note: str):
        failures.setdefault(clause, note)

    inner_trials = 2 if isinstance(fam, (Pi, PiTy)) else 1

    def member_ok(q, a, e, t):
        return appr_member(fam, q, a, e, trials=inner_trials,
                           seed=seed * 7 + t, cfg=cfg).status != "fail"

    def aeq_ok(q, e1, e2, t):
        return aeq_check(fam, q, e1, e2, trials=inner_trials,
                         seed=seed * 11 + t, cfg=cfg).status != "fail"

    for t in range(trials):
        rng = trial_rng(seed, t)
        trip = sample_member_triple(fam, rng)
        if trip is None:
            continue
        e, a, q = trip

        # Error Weakening: a member stays a member at any larger error
        delta = _const_err(fam, sample_finite_err_fraction(rng))
        q_bigger = plus_apply(fam, q, delta)
        if not member_ok(q_bigger, a, e, t):
            fail("Error Weakening", to_source(e))

        # Upward Closedness / Reflexivity / Symmetry / Triangle /
        # Completeness for the equality relation
        c1 = sample_finite_err_fraction(rng)
        c2 = sample_finite_err_fraction(rng)
        e2 = _shift_exact(fam, e, c1)
        if e2 is not None:
            if not aeq_ok(_const_err(fam, c1), e, e2, t):
                fail("Upward Closedness", to_source(e))  # premise: exact distance
            if not aeq_ok(plus_apply(fam, _const_err(fam, c1),
                                     _const_err(fam, c2)), e, e2, t):
                fail("Upward Closedness", to_source(e))
            if not aeq_ok(_const_err(fam, c1), e2, e, t):
                fail("Symmetry", to_source(e))
            e3 = _shift_exact(fam, e2, c2)
            if e3 is not None:
                if not aeq_ok(plus_apply(fam, _const_err(fam, c1),
                                         _const_err(fam, c2)), e, e3, t):
                    fail("Triangle Inequality", to_source(e))
            # Error Addition: shift a member and widen the bound
            if not member_ok(plus_apply(fam, q, _const_err(fam, c1)), a, e2, t):
                fail("Error Addition", to_source(e))
        if not aeq_ok(_const_err(fam, Fraction(0)), e, e, t):
            fail("Reflexivity", to_source(e))
        if e2 is not None and not aeq_ok(_const_err(fam, None), e2, e, t):
            fail("Completeness", to_source(e))

        # Equivalence: beta-equivalent wrappers preserve membership
        te = exact_ty(fam)
        ta = approx_ty(fam)
        e_w = App(Lam("%t", te, Var("%t")), e)
        a_w = App(Lam("%t", ta, Var("%t")), a)
        if not member_ok(q, a_w, e_w, t):
            fail("Equivalence", to_source(e))

        # Approximate Equality: two members of the same (q, a) are
        # within q + q of each other
        if e2 is not None:
            qq = plus_apply(fam, q, _const_err(fam, c1))
            if not aeq_ok(plus_apply(fam, qq, qq), e, e2, t):
                fail("Approximate Equality", to_source(e))
        else:
            if not aeq_ok(plus_apply(fam, q, q), e, e, t):
                fail("Approximate Equality", to_source(e))

    for name in APPROX_CLAUSES:
        if name in failures:
            report.results.append(AxiomResult(name, "fail", failures[name]))
        else:
            report.results.append(AxiomResult(name, "pass"))
    return report


# ---------------------------------------------------------------------------
# harness-level weakening

def weaken_err_expr(fam: ApproxTy, q: Expr, c: Fraction) -> Expr:
    """q plus a positive constant, lifted pointwise through the family."""
    return plus_apply(fam, q, _const_err(fam, c))
