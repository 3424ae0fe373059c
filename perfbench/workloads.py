"""The benchmark's workloads: what one operation is, and its known answer.

Every workload is a closed loop with one client: operation ``i`` starts
when operation ``i - 1`` has returned.  Operations are pure functions of
the workload seed and ``i``, so a traced pass can replay exactly the
operations of an untraced one.  approxc is called through its module
attributes (``parser.parse``, ``checker.check_soundness``, ...), which is
where the traced run installs its wrappers.
"""
from __future__ import annotations

import dataclasses
import random
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from approxc import checker, compiler, families, interp, parser, quant, sampling, syntax, typecheck

import progs

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"

# Known-unsound claims add this to the float result.  It is far past any
# bound the corpus synthesizes for its sampled inputs (|x| <= 2^30), so
# every trial of such a claim must fail.
SHIFT = 2.0 ** 64
# trials per check operation: one, so that an operation's latency shows
# the cost of a single input (the O(n^2) of fix_sum's p90)
CHECK_TRIALS = 1
# one operation in MUTANT_EVERY rounds checks the known-unsound claims
MUTANT_EVERY = 4
# generated programs for the compile workload, on the size ladder; enough
# that the compile-time percentiles fall among many similar programs
GENERATED_PROGRAMS = 128
# stratified inputs per cycle for programs whose input is a natural
NAT_STRATA = 32
NAT_REFERENCE_DRAWS = 6000
# mirrors scripts/run_axioms.py
AXIOM_CFG = interp.EvalConfig(fuel=200_000, precision_bits=96,
                              max_precision_bits=768)

_EXPR_TYPES = typing.get_args(syntax.Expr)


@dataclass
class OpResult:
    verdict_s: float
    compile_s: float
    trials: int
    failed: bool = False
    wrong: bool = False
    # the compiler refused a program it may refuse (an open generated one)
    rejected: bool = False
    program: str = ""
    compiled: Optional[compiler.CompileResult] = None
    # (program, claim, fail record) for the workload's settle() to replay
    pending: Tuple[Tuple[syntax.Expr, compiler.CompileResult, dict], ...] = ()


@dataclass
class Program:
    name: str
    src: str
    opts: compiler.CompileOpts
    family: object = None
    seeds: List[int] = field(default_factory=list)
    # the open shape of a generated program (see progs.py), "" for none
    shape: str = ""


def derive_seed(seed: int, *parts: object) -> int:
    """A trial seed derived from the workload seed, stable across runs."""
    return random.Random(":".join(map(str, ("approxc-bench", seed) + parts))
                         ).randrange(1 << 31)


def expr_nodes(e) -> int:
    """Number of expression nodes in an AST (types are not counted)."""
    n = 1
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        for x in (v if isinstance(v, tuple) else (v,)):
            if isinstance(x, _EXPR_TYPES):
                n += expr_nodes(x)
    return n


def load_corpus(name: str) -> Program:
    path = CORPUS / f"{name}.ax"
    opts = checker.load_sidecar_opts(path, compiler.CompileOpts())
    return Program(name, path.read_text(), opts)


def _compile_step(prog: Program) -> Tuple[syntax.Expr, compiler.CompileResult,
                                          str, str]:
    """The compile path of ``approxc compile``, without the file I/O:
    parse, compile_program (which typechecks), and print both programs."""
    e = parser.parse(prog.src)
    res = compiler.compile_program(e, prog.opts)
    return e, res, syntax.to_source(res.approx), syntax.to_source(res.err)


class Workload:
    name = ""
    # evaluations above this precision count as escalated
    start_bits = interp.EvalConfig().precision_bits
    # the loop runs at least this many operations, whatever --seconds says
    min_ops = 1

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def settle(self, r: OpResult) -> None:
        """Checks of one operation's result that are not part of the
        operation, made outside its timed interval."""

    def verify(self) -> Dict[str, int]:
        """Checks made once after the timed loop; each count must be 0."""
        return {}

    def meta(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# check workloads

def shifted(res: compiler.CompileResult) -> compiler.CompileResult:
    """The claim with its float program moved SHIFT away: unsound."""
    fam = res.family
    if not (isinstance(fam, families.Pi) and isinstance(fam.body, families.FlBase)):
        raise ValueError(f"no shifted claim for family {families.family_source(fam)}")
    x = "shift_x"
    approx = syntax.Lam(x, families.approx_ty(fam.fam), syntax.Builtin(
        "+f", (syntax.App(res.approx, syntax.Var(x)),
               syntax.FloatLit.of(SHIFT))))
    return compiler.CompileResult(approx, res.err, fam, res.derivation)


def _nat_input(fam, s: int) -> Optional[int]:
    """The natural the checker's first trial at seed ``s`` feeds the
    program, drawn by the checker's own sampler."""
    trip = families.sample_member_triple(fam.fam, sampling.trial_rng(s, 0))
    return trip[0].value if isinstance(trip[0], syntax.NatLit) else None


def spread_order(n: int, seed: int) -> List[int]:
    """0..n-1 in bit-reversed order, rotated by ``seed``: every stretch of
    the order samples the whole range evenly, so the unfinished cycle at
    the end of a run is a fair sample too."""
    bits = max(1, (n - 1).bit_length())
    rev = [int(format(j, f"0{bits}b")[::-1], 2) for j in range(1 << bits)]
    order = [j for j in rev if j < n]
    start = random.Random(seed).randrange(n)
    return order[start:] + order[:start]


def nat_schedule(fam, seed: int) -> List[int]:
    """Trial seeds whose inputs follow the sampler's distribution of n by
    fixed quantiles, in a low-discrepancy order rotated by ``seed``.

    A trial of a recursive program costs O(n^2), and the sampler mixes
    small and large n, so independent draws would make a run's latency
    percentiles depend on the seed more than on the code.  The quantiles
    are taken from seeds 0..NAT_REFERENCE_DRAWS-1, the same for every
    workload seed.  They run in bit-reversed order of size, so any stretch
    of the schedule, such as the unfinished cycle at the end of a run,
    holds small and large n alike.  The seed picks the rotation and the
    trial seed that carries each n.
    """
    draws = sorted(_nat_input(fam, s) for s in range(NAT_REFERENCE_DRAWS))
    targets = [draws[(2 * j + 1) * len(draws) // (2 * NAT_STRATA)]
               for j in spread_order(NAT_STRATA, seed)]
    found: Dict[int, int] = {}
    k = 0
    while not set(targets) <= found.keys():
        s = derive_seed(seed, "nat", k)
        found.setdefault(_nat_input(fam, s), s)
        k += 1
    return [found[n] for n in targets]


class CheckWorkload(Workload):
    """parse + compile_program + check_soundness of one corpus program at
    one derived seed: the path of ``approxc check`` without file I/O."""

    def __init__(self, name: str, programs: List[str], seed: int):
        self.name = name
        self.seed = seed
        self.cfg = interp.EvalConfig()
        self.programs = [load_corpus(p) for p in programs]
        self.min_ops = len(self.programs) * MUTANT_EVERY
        for prog in self.programs:
            prog.family = _compile_step(prog)[1].family
            if isinstance(prog.family.fam, families.NatBase):
                prog.seeds = nat_schedule(prog.family, seed)
        self.mutant_ops = 0
        self.replayed = 0
        self.replay_mismatches = 0

    def plan(self, i: int) -> Tuple[Program, bool, int]:
        """Operation i: round i // len(programs) visits every program;
        the last of every MUTANT_EVERY rounds checks the shifted claims.
        A stratified input is kept for all MUTANT_EVERY rounds, so each
        stratum is checked as often sound as unsound."""
        n = len(self.programs)
        prog = self.programs[i % n]
        r = i // n
        mutant = r % MUTANT_EVERY == MUTANT_EVERY - 1
        if prog.seeds:
            s = prog.seeds[(r // MUTANT_EVERY) % len(prog.seeds)]
        else:
            s = derive_seed(self.seed, prog.name, i)
        return prog, mutant, s

    def op(self, i: int) -> OpResult:
        prog, mutant, s = self.plan(i)
        return self._check(prog, mutant, s)

    def _check(self, prog: Program, mutant: bool, s: int) -> OpResult:
        t0 = time.perf_counter()
        try:
            e, res, _, _ = _compile_step(prog)
            t1 = time.perf_counter()
            claim = shifted(res) if mutant else res
            rep = checker.check_soundness(e, claim, trials=CHECK_TRIALS,
                                          seed=s, cfg=self.cfg,
                                          program=prog.name)
        except (parser.ParseError, compiler.CompileError, typecheck.TypeError_):
            t = time.perf_counter() - t0
            return OpResult(t, t, 0, failed=True, program=prog.name)
        t2 = time.perf_counter()
        verdict = "fail" if rep.failures else "ok"
        self.mutant_ops += mutant
        return OpResult(t2 - t0, t1 - t0, rep.trials,
                        failed=rep.inconclusive > 0,
                        wrong=verdict != ("fail" if mutant else "ok"),
                        program=prog.name, compiled=res,
                        pending=tuple((e, claim, rec) for rec in rep.failures))

    def settle(self, r: OpResult) -> None:
        """Replay every fail record of the operation; it must fail again.
        Nothing is kept, so memory does not grow with the operations."""
        for e, claim, rec in r.pending:
            self.replayed += 1
            if checker.replay_failure(e, claim, rec, self.cfg).status != "fail":
                self.replay_mismatches += 1

    def warmup(self) -> None:
        for prog in self.programs:
            self._check(prog, False, 0)

    def verify(self) -> Dict[str, int]:
        return {"replay_mismatches": self.replay_mismatches,
                "no_mutant_checked": int(self.mutant_ops == 0)}

    def meta(self) -> dict:
        return {"programs": [p.name for p in self.programs],
                "trials_per_op": CHECK_TRIALS,
                "mutant_ops": self.mutant_ops,
                "replayed_fail_records": self.replayed,
                "stratified_n": {p.name: len(p.seeds) for p in self.programs
                                 if p.seeds}}


# ---------------------------------------------------------------------------
# compile workload

class CompileWorkload(Workload):
    """parse + compile_program + to_source of the approx and error
    programs, over the corpus and seeded generated programs."""

    name = "compile"

    def __init__(self, seed: int):
        self.seed = seed
        self.programs = [load_corpus(p.stem) for p in sorted(CORPUS.glob("*.ax"))]
        for g in progs.generate(seed, GENERATED_PROGRAMS):
            self.programs.append(Program(g.name, g.src, _gen_opts(g.opts),
                                         shape=g.shape))
        self.order = spread_order(len(self.programs), seed)
        self.min_ops = len(self.programs)
        # first outcome per program: (family, approx, error) when it
        # compiled, (None, error class, message) when it was refused
        self.outputs: Dict[str, Tuple[object, str, str]] = {}
        self.nondeterministic = 0

    def op(self, i: int) -> OpResult:
        """A program without an open shape must compile.  One with an
        open shape may also be refused with a CompileError: the op then
        counts as rejected (in failed_frac), not as failed."""
        prog = self.programs[self.order[i % len(self.programs)]]
        t0 = time.perf_counter()
        try:
            _, res, a_src, q_src = _compile_step(prog)
        except compiler.CompileError as exc:
            if not prog.shape:
                raise
            t = time.perf_counter() - t0
            return self._outcome(prog, OpResult(t, t, 0, rejected=True, program=prog.name),
                                 (None, type(exc).__name__, str(exc)))
        t = time.perf_counter() - t0
        return self._outcome(prog, OpResult(t, t, 1, program=prog.name, compiled=res),
                             (res.family, a_src, q_src))

    def _outcome(self, prog: Program, r: OpResult, out: Tuple[object, str, str]) -> OpResult:
        """A program must have the same outcome every time it is compiled."""
        first = self.outputs.setdefault(prog.name, out)
        r.wrong = first[1:] != out[1:]
        self.nondeterministic += r.wrong
        return r

    def warmup(self) -> None:
        for prog in self.programs:
            if not prog.name.startswith("gen"):
                _compile_step(prog)

    def verify(self) -> Dict[str, int]:
        """Every emitted program re-parses and re-typechecks at the
        approximate and error types of its family."""
        bad = 0
        for fam, a_src, q_src in self.outputs.values():
            if fam is None:
                continue
            a = families.as_float_literals(parser.parse(a_src))
            q = parser.parse(q_src)
            ctx = typecheck.TyCtx()
            if (typecheck.infer_type(ctx, a) != families.approx_ty(fam)
                    or typecheck.infer_type(ctx, q) != families.err_ty(fam)):
                bad += 1
        return {"emitted_type_mismatches": bad,
                "nondeterministic_outputs": self.nondeterministic}

    def meta(self) -> dict:
        sizes = sorted(expr_nodes(parser.parse(p.src)) for p in self.programs)
        gen = sorted(expr_nodes(parser.parse(p.src)) for p in self.programs
                     if p.name.startswith("gen"))
        return {"programs": len(self.programs),
                "generated": len(gen),
                "open_programs": sum(bool(p.shape) for p in self.programs),
                "rejected_programs": sorted(n for n, out in self.outputs.items()
                                            if out[0] is None),
                "program_nodes": {"min": sizes[0], "median": sizes[len(sizes) // 2],
                                  "max": sizes[-1]},
                "generated_nodes": gen}


def _gen_opts(doc: dict) -> compiler.CompileOpts:
    return compiler.CompileOpts(
        enable_sin_subst=bool(doc.get("subst_sin", False)),
        perforation=dict(doc.get("perforate", {})))


# ---------------------------------------------------------------------------
# axioms workload

# (program whose family the suite checks, suite, trials per call); trial
# counts even out the cost of one call, about 7 ms on a 2-vCPU x86-64
# host.  The approximation suite on pi's family runs twice per cycle, so
# that pi is compiled in three calls of five: with two programs compiled
# equally often, the median compile time would fall on the step between
# them.
AXIOM_SUITES = (
    ("pi", "quant", 80),
    ("pi", "approx", 6),
    ("sin_lower", "quant", 3),
    ("pi", "approx", 6),
    ("sin_lower", "approx", 1),
)


class AxiomsWorkload(Workload):
    """One axiom-suite call per operation, on the family (or its error
    carrier) of a corpus program that the operation compiles first."""

    name = "axioms"
    start_bits = AXIOM_CFG.precision_bits

    def __init__(self, seed: int):
        self.seed = seed
        self.programs = {p: load_corpus(p) for p, _, _ in AXIOM_SUITES}
        self.min_ops = len(AXIOM_SUITES)

    def op(self, i: int) -> OpResult:
        pname, suite, trials = AXIOM_SUITES[i % len(AXIOM_SUITES)]
        return self._suite(pname, suite, trials, derive_seed(self.seed, i))

    def _suite(self, pname: str, suite: str, trials: int, s: int) -> OpResult:
        t0 = time.perf_counter()
        try:
            _, res, _, _ = _compile_step(self.programs[pname])
        except (parser.ParseError, compiler.CompileError, typecheck.TypeError_):
            t = time.perf_counter() - t0
            return OpResult(t, t, 0, failed=True, program=pname)
        t1 = time.perf_counter()
        fam = res.family
        if suite == "quant":
            inst = (quant.q_nonneg_reals() if isinstance(fam, families.FlBase)
                    else quant.fn_err_instance())
            rep = quant.check_quant_axioms(inst, trials=trials, seed=s)
        else:
            rep = families.check_approx_axioms(fam, trials=trials, seed=s,
                                               cfg=AXIOM_CFG)
        t2 = time.perf_counter()
        return OpResult(t2 - t0, t1 - t0, trials, wrong=not rep.ok,
                        program=pname, compiled=res)

    def warmup(self) -> None:
        for pname, suite, _ in AXIOM_SUITES:
            self._suite(pname, suite, 1, 0)

    def meta(self) -> dict:
        return {"suites": [{"program": p, "suite": s, "trials": t}
                           for p, s, t in AXIOM_SUITES]}


def make(name: str, seed: int) -> Workload:
    if name == "check-sine":
        return CheckWorkload(name, ["sin_lower", "sin_plus", "sin_subst"], seed)
    if name == "check-fix":
        return CheckWorkload(name, ["fix_sum"], seed)
    if name == "compile":
        return CompileWorkload(seed)
    if name == "axioms":
        return AxiomsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
