"""End-to-end validation: compiled programs are checked against the
oracle, with replayable failure records and deterministic reports.

Polymorphic results are monomorphized at the real and natural base
families, and each instantiation is checked as a monomorphic claim: the
only path that checks a polymorphic claim.  A batch runner compiles and
checks a corpus directory; parse, compile and sidecar errors are reported
per file without aborting the batch.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .compiler import CompileError, CompileOpts, CompileResult, compile_program
from .families import (
    FL, NAT_A, ApproxTy, PiTy, TrialOutcome,
    family_source, member_trial, member_trials, monomorphize,
    weaken_err_expr,
)
from .interp import EvalConfig
from .parser import ParseError, parse
from .syntax import Expr
from .typecheck import TypeError_


@dataclass
class CheckReport:
    program: str
    family: str
    trials: int
    passes: int
    failures: List[dict] = field(default_factory=list)
    inconclusive: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        # wall_time is kept off the serialized form so reports are
        # byte-identical across reruns
        return {
            "schema": "check-report/v1",
            "program": self.program,
            "family": self.family,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "inconclusive": self.inconclusive,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)


def _instantiations(result: CompileResult, e: Expr
                    ) -> List[Tuple[str, Expr, Expr, Expr, ApproxTy]]:
    """The claim's (tag, exact, approx, err, family) at each instantiation:
    a polymorphic claim's at Fl and at Nat, tagged, or else the claim."""
    fam = result.family
    if not isinstance(fam, PiTy):
        return [("", e, result.approx, result.err, fam)]
    return [(f"@{family_source(b)}",
             *monomorphize(fam, b, e, result.approx, result.err))
            for b in (FL, NAT_A)]


def check_soundness(e: Expr, result: CompileResult, trials: int = 1000,
                    seed: int = 42, cfg: EvalConfig = EvalConfig(),
                    program: str = "<expr>",
                    weaken_by: Optional[Fraction] = None) -> CheckReport:
    """Sample the membership claim of a compilation result.

    With weaken_by set, a positive constant is added pointwise to the
    (instantiated) error before checking; passes must be preserved.
    """
    t0 = time.perf_counter()
    report = CheckReport(program=program, family=family_source(result.family),
                         trials=0, passes=0)
    for tag, me, ma, mq, mfam in _instantiations(result, e):
        if weaken_by is not None:
            mq = weaken_err_expr(mfam, mq, weaken_by)
        outcomes = member_trials(mfam, mq, ma, me, trials, seed, cfg)
        for o in outcomes:
            report.trials += 1
            if o.status == "pass":
                report.passes += 1
            elif o.status == "inconclusive":
                report.inconclusive += 1
            else:
                rec = dict(o.record)
                if tag:
                    rec["instantiation"] = tag
                report.failures.append(rec)
    report.wall_time = time.perf_counter() - t0
    return report


def replay_failure(e: Expr, result: CompileResult, record: dict,
                   cfg: EvalConfig = EvalConfig()) -> TrialOutcome:
    """Re-run the single trial a failure record came from, and only it."""
    tag = record.get("instantiation", "")
    for t, me, ma, mq, mfam in _instantiations(result, e):
        if t == tag:
            return member_trial(mfam, mq, ma, me, record["trial"],
                                record["seed"], cfg)
    raise ValueError("record does not match this compilation result")


# ---------------------------------------------------------------------------
# corpus runner

@dataclass
class CorpusEntry:
    name: str
    status: str  # "ok" | "fail" | "error" | "inconclusive"
    report: Optional[CheckReport] = None
    error: str = ""


@dataclass
class CorpusReport:
    entries: List[CorpusEntry] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for e in self.entries
                   if e.status == "fail" or e.status == "error")

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> str:
        doc = {
            "schema": "corpus-report/v1",
            "programs": [
                {
                    "name": e.name,
                    "status": e.status,
                    **({"report": e.report.to_doc()} if e.report else {}),
                    **({"error": e.error} if e.error else {}),
                }
                for e in self.entries
            ],
            "failures": self.failures,
        }
        return json.dumps(doc, sort_keys=True)


def load_sidecar_opts(path: Path, base: CompileOpts) -> CompileOpts:
    """Per-program options from <name>.opts.json next to the source."""
    side = path.with_suffix(".opts.json")
    if not side.exists():
        return base
    doc = json.loads(side.read_text())
    kwargs = {}
    if "subst_sin" in doc:
        kwargs["enable_sin_subst"] = bool(doc["subst_sin"])
    if "perforate" in doc:
        kwargs["perforation"] = {str(k): int(v)
                                 for k, v in doc["perforate"].items()}
    if "weaken_to" in doc:
        kwargs["weaken_to"] = parse(doc["weaken_to"])
    return replace(base, **kwargs)


def check_rule_corpus(corpus_dir: str, opts: CompileOpts = CompileOpts(),
                      trials: int = 1000, seed: int = 42,
                      cfg: EvalConfig = EvalConfig(),
                      weaken_by: Optional[Fraction] = None) -> CorpusReport:
    """Compile and check every .ax program under a directory.

    The exit protocol is the caller's concern: failures are data here, and
    a program that fails to parse, compile or load its sidecar is one error
    entry.  Inconclusive trials are reported but do not fail the run.
    """
    report = CorpusReport()
    for path in sorted(Path(corpus_dir).glob("*.ax")):
        name = path.name
        try:
            src = path.read_text()
            e = parse(src)
            popts = load_sidecar_opts(path, opts)
            result = compile_program(e, popts)
            rep = check_soundness(e, result, trials=trials, seed=seed,
                                  cfg=cfg, program=name, weaken_by=weaken_by)
            status = "fail" if rep.failures else "inconclusive" if (
                rep.passes == 0 and rep.inconclusive > 0) else "ok"
            report.entries.append(CorpusEntry(name, status, rep))
        except (ParseError, CompileError, TypeError_, OSError, ValueError) as ex:
            report.entries.append(CorpusEntry(name, "error",
                                              error=f"{type(ex).__name__}: {ex}"))
    return report


