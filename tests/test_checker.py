import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from approxc import families
from approxc.checker import (
    CheckReport, check_rule_corpus, check_soundness, load_sidecar_opts,
    replay_failure,
)
from approxc.compiler import CompileOpts, compile_program
from approxc.families import err_ty
from approxc.interp import EvalConfig
from approxc.parser import parse
from approxc.syntax import Builtin, ErrLit, to_source
from approxc.typecheck import TyCtx, infer_type

CFG = EvalConfig(fuel=500_000, precision_bits=128)
OPTS = CompileOpts(cfg=CFG)


def test_scalar_program_passes_with_tight_bound():
    e = parse("1/3")
    r = compile_program(e, OPTS)
    rep = check_soundness(e, r, trials=1, seed=42, cfg=CFG)
    assert rep.ok and rep.passes == 1
    assert rep.trials == 1


def test_undecided_comparison_is_inconclusive_not_raised():
    # 1/3 encloses to an interval of nonzero width, so leqr cannot decide
    # 1/3 <= 1/3 at any precision
    e = parse("(leqr 1/3 1/3)")
    r = compile_program(e, OPTS)
    rep = check_soundness(e, r, trials=3, seed=42, cfg=CFG)
    assert rep.ok
    assert rep.inconclusive == rep.trials == 3 and rep.passes == 0


def test_doubling_function_soundness():
    e = parse("(lam (x Real) (+r x x))")
    r = compile_program(e, OPTS)
    rep = check_soundness(e, r, trials=120, seed=42, cfg=CFG)
    assert rep.ok, rep.to_json()
    assert rep.passes == 120


def test_corrupted_bound_fails_with_replayable_record():
    e = parse("1/3")
    r = compile_program(e, OPTS)
    # halve the claimed error after the fact
    bad = replace(r, err=ErrLit(r.err.value / 2))
    rep = check_soundness(e, bad, trials=1, seed=42, cfg=CFG)
    assert not rep.ok
    rec = rep.failures[0]
    assert rec["seed"] == 42
    # replaying the record reproduces the same verdict and measurement
    out = replay_failure(e, bad, rec, cfg=CFG)
    assert out.status == "fail"
    assert out.record["measured"] == rec["measured"]


def test_function_failure_replay_fidelity():
    e = parse("(lam (x Real) (sinr x))")
    r = compile_program(e, OPTS)
    bad = replace(r, err=parse("(lam (x Real) (lam (k ErrReal) (err 0/1)))"))
    rep = check_soundness(e, bad, trials=60, seed=42, cfg=CFG)
    assert rep.failures
    rec = rep.failures[0]
    out = replay_failure(e, bad, rec, cfg=CFG)
    assert out.status == "fail"
    assert out.record["inputs"] == rec["inputs"]
    assert out.record["measured"] == rec["measured"]


def test_replay_runs_only_the_recorded_trial(monkeypatch):
    e = parse("(lam (x Real) (+r x x))")
    r = compile_program(e, OPTS)
    bad = replace(r, err=parse("(lam (x Real) (lam (k ErrReal) (err 0/1)))"))
    rep = check_soundness(e, bad, trials=1000, seed=42, cfg=CFG)
    rec = rep.failures[-1]
    assert rec["trial"] > 900
    # count top-level checks: _check_once recurses down the Pi spine
    inner = families._check_once
    depth, checks = [0], [0]

    def counting(*args):
        checks[0] += depth[0] == 0
        depth[0] += 1
        try:
            return inner(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(families, "_check_once", counting)
    out = replay_failure(e, bad, rec, cfg=CFG)
    assert checks[0] == 1
    assert out.status == "fail" and out.record == rec


def test_replay_of_base_family_copies_trial_zero():
    e = parse("1/3")
    r = compile_program(e, OPTS)
    bad = replace(r, err=ErrLit(r.err.value / 2))
    rep = check_soundness(e, bad, trials=50, seed=42, cfg=CFG)
    rec = rep.failures[-1]
    assert rec["trial"] == 49
    assert replay_failure(e, bad, rec, cfg=CFG).record == rec


def test_weakening_preserves_passes():
    e = parse("(lam (x Real) (sinr x))")
    r = compile_program(e, OPTS)
    base = check_soundness(e, r, trials=50, seed=42, cfg=CFG)
    weak = check_soundness(e, r, trials=50, seed=42, cfg=CFG,
                           weaken_by=Fraction(1, 1000))
    assert weak.passes >= base.passes


def test_corpus_runner_aggregates(corpus_dir):
    rep = check_rule_corpus(str(corpus_dir), OPTS, trials=10, seed=42, cfg=CFG)
    assert rep.ok, rep.to_json()
    names = {e.name for e in rep.entries}
    assert "pi.ax" in names and "fix_sum.ax" in names
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "corpus-report/v1"
    assert doc["failures"] == 0


def test_corpus_runner_empty_dir(tmp_path):
    rep = check_rule_corpus(str(tmp_path), OPTS, trials=5, seed=42, cfg=CFG)
    assert rep.ok and rep.entries == []


def test_corpus_runner_flags_unparsable_file(tmp_path):
    (tmp_path / "good.ax").write_text("1/3\n")
    (tmp_path / "bad.ax").write_text("(lam (x Real)\n")
    rep = check_rule_corpus(str(tmp_path), OPTS, trials=2, seed=42, cfg=CFG)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["good.ax"].status == "ok"
    assert by_name["bad.ax"].status == "error"
    assert not rep.ok


def test_corpus_runner_reports_each_bad_program_and_continues(tmp_path):
    # a compile refusal, a sidecar CompileOpts refuses and a sidecar that
    # is not JSON are each one error entry; the good program after them
    # is still checked
    (tmp_path / "a_binder.ax").write_text("(lam (x Real) (lam (x_q Real) x))\n")
    (tmp_path / "b_factor.ax").write_text("(redseq +r 8 (lam (i Nat) (nat2real i)))\n")
    (tmp_path / "b_factor.opts.json").write_text('{"perforate": {"L0": 0}}\n')
    (tmp_path / "c_json.ax").write_text("1/3\n")
    (tmp_path / "c_json.opts.json").write_text('{"subst_sin": \n')
    (tmp_path / "d_good.ax").write_text("1/3\n")
    rep = check_rule_corpus(str(tmp_path), OPTS, trials=2, seed=42, cfg=CFG)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["a_binder.ax"].error.startswith("BinderCollision: binder x_q")
    assert by_name["b_factor.ax"].error == \
        "ValueError: perforation factor at L0 must be >= 1"
    assert by_name["c_json.ax"].error.startswith("JSONDecodeError: ")
    assert [e.status for e in rep.entries] == ["error"] * 3 + ["ok"]
    assert by_name["d_good.ax"].report.passes == 2
    assert rep.failures == 3


def test_claim_over_a_bool_argument_checks():
    e = parse("(lam (b Bool) (if b 1/2 1/3))")
    r = compile_program(e, OPTS)
    assert families.family_source(r.family) == "Bool => Fl"
    rep = check_soundness(e, r, trials=10, seed=42, cfg=CFG)
    assert rep.ok and rep.passes == rep.trials == 10, rep.to_json()


def test_unsound_polymorphic_claim_fails_tagged_by_instantiation():
    # the identity's error made the zero error: unsound wherever the input
    # error is not zero, which Fl members draw and Nat members never do
    e = parse("(tlam X (lam (x X) x))")
    r = compile_program(e, OPTS)
    bad = replace(r, err=parse(
        "(tlam X (tlam X_q (lam (z0_X X_q) (lam (zp_X (-> X_q (-> X_q X_q)))"
        " (lam (x X) (lam (x_q X_q) z0_X))))))"))
    assert infer_type(TyCtx(), bad.err) == err_ty(r.family)
    rep = check_soundness(e, bad, trials=30, seed=42, cfg=CFG)
    assert rep.trials == 60 and rep.failures
    assert {rec["instantiation"] for rec in rep.failures} == {"@Fl"}
    for rec in rep.failures:
        out = replay_failure(e, bad, rec, cfg=CFG)
        assert out.status == "fail"
        assert {**out.record, "instantiation": "@Fl"} == rec


def test_report_json_excludes_wall_time():
    e = parse("1/3")
    r = compile_program(e, OPTS)
    rep = check_soundness(e, r, trials=1, seed=42, cfg=CFG)
    assert rep.wall_time > 0
    assert "wall_time" not in json.loads(rep.to_json())


def test_emitted_error_expression_retypes(corpus_dir):
    """Printed error expressions re-parse and typecheck at the family's
    error carrier."""
    for path in sorted(Path(corpus_dir).glob("*.ax")):
        e = parse(path.read_text())
        r = compile_program(e, load_sidecar_opts(path, OPTS))
        back = parse(to_source(r.err))
        assert infer_type(TyCtx(), back) == err_ty(r.family), path.name


def test_sidecar_options(tmp_path):
    (tmp_path / "p.ax").write_text("(redseq +r 8 (lam (i Nat) (nat2real i)))\n")
    (tmp_path / "p.opts.json").write_text('{"perforate": {"L0": 2}}\n')
    opts = load_sidecar_opts(tmp_path / "p.ax", OPTS)
    assert opts.perforation == {"L0": 2}
