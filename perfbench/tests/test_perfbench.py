"""Tests of the benchmark itself: generator determinism, known-unsound
claims failing and replaying, metric names matching BENCHMARK.json, the
tracer's self-time accounting, the host-speed scale, and the run
contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import progs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from approxc import checker, compiler, parser, typecheck  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_in_its_seed():
    a = progs.generate(7, 12)
    assert a == progs.generate(7, 12)
    assert [p.src for p in a] != [p.src for p in progs.generate(8, 12)]


def test_generator_follows_the_size_ladder_and_typechecks():
    ladder = progs.size_ladder(32)
    assert ladder[0] == progs.MIN_SIZE and ladder[-1] == progs.MAX_SIZE
    assert ladder == sorted(ladder)
    sizes = []
    for g in progs.generate(3, 32):
        e = parser.parse(g.src)
        typecheck.infer_type(typecheck.TyCtx(), e)
        sizes.append(workloads.expr_nodes(e))
    assert min(sizes) < 10 and max(sizes) > 200


def test_generator_deals_every_open_shape_at_its_share():
    gen = progs.generate(4, 128)
    shapes = [g.shape for g in gen if g.shape]
    assert len(shapes) == 128 // progs.OPEN_EVERY
    assert set(shapes) == set(progs.OPEN_SHAPES)
    for g in gen:
        if g.shape:
            n = workloads.expr_nodes(parser.parse(g.src))
            assert progs.OPEN_MIN_SIZE - 4 <= n <= progs.OPEN_MAX_SIZE + 12


def _compile_workload_on(src: str, shape: str):
    wl = workloads.make("compile", 1)
    wl.programs = [workloads.Program("p", src, compiler.CompileOpts(), shape=shape)]
    wl.order = [0]
    return wl


# ROADMAP item 2: the cross-branch rule sees no disagreement on its
# samples and then refuses the program
REFUSED = "(lam (x Real) (if (leqr x 1/3) 0/1 1/1))"


def test_refused_open_program_counts_as_rejected_not_failed():
    wl = _compile_workload_on(REFUSED, "cross")
    st = run.timed_loop(wl, count=2)
    assert (st.ops, st.rejected, st.failed, st.wrong) == (2, 2, 0, 0)
    assert wl.meta()["rejected_programs"] == ["p"]


def test_refused_closed_program_counts_as_failed():
    wl = _compile_workload_on(REFUSED, "")
    st = run.timed_loop(wl, count=1)
    assert (st.ops, st.rejected, st.failed) == (1, 0, 1)


def test_mutant_fail_records_replay_after_their_operation():
    wl = workloads.make("check-sine", 3)
    mutant = len(wl.programs) * (workloads.MUTANT_EVERY - 1)
    st = run.timed_loop(wl, count=mutant + 1)
    assert st.wrong == 0 and wl.mutant_ops == 1
    assert wl.replayed == workloads.CHECK_TRIALS
    assert wl.verify() == {"replay_mismatches": 0, "no_mutant_checked": 0}


@pytest.mark.parametrize("name", ["sin_lower", "sin_plus", "sin_subst", "fix_sum"])
def test_shifted_claims_fail_and_replay(name):
    prog = workloads.load_corpus(name)
    e, res, _, _ = workloads._compile_step(prog)
    assert checker.check_soundness(e, res, trials=3, seed=11).ok
    claim = workloads.shifted(res)
    rep = checker.check_soundness(e, claim, trials=3, seed=11)
    assert len(rep.failures) == 3
    for rec in rep.failures:
        assert checker.replay_failure(e, claim, rec).status == "fail"


def test_nat_schedule_is_stratified_and_seeded():
    wl = workloads.make("check-fix", 5)
    prog = wl.programs[0]
    ns = [workloads._nat_input(prog.family, s) for s in prog.seeds]
    assert len(ns) == workloads.NAT_STRATA
    assert ns == [workloads._nat_input(prog.family, s)
                  for s in workloads.make("check-fix", 5).programs[0].seeds]
    # every half of the cycle holds small and large n alike
    half = len(ns) // 2
    assert max(ns[:half]) > 20 and max(ns[half:]) > 20
    assert min(ns[:half]) <= 1 and min(ns[half:]) <= 1


def test_end_to_end_names_match_benchmark_json():
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert spec == run.END_TO_END_UNITS


def test_per_layer_names_match_benchmark_json():
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    names = {f"{n}.calls": "1/op" for n in layers.layer_names()}
    names |= {f"{n}.self_ms": "ms/op" for n in layers.layer_names()}
    names |= layers.COUNTER_UNITS
    assert spec == names


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in _spec()["workloads"]) == run.WORKLOADS
    for name in run.WORKLOADS:
        assert workloads.make(name, 1).min_ops >= 1


def test_self_time_excludes_child_spans():
    tr = spans.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tr.span("child", child)

    tr.span("parent", parent)
    assert tr.calls == {"parent": 1, "child": 1}
    assert tr.self_time["child"] >= 0.02
    assert 0.01 <= tr.self_time["parent"] < 0.02
    (cid, _, _, _, cparent), (pid, _, _, _, pparent) = tr.spans
    assert cparent == pid and pparent is None


def test_install_wraps_every_binding_and_uninstall_restores():
    from approxc import families, interp
    original = interp.eval_exact
    tr = spans.Tracer()
    tr.install("approxc.interp", "eval_exact", spans.fixed("interp.eval_exact"))
    try:
        assert families.eval_exact is interp.eval_exact is not original
    finally:
        tr.uninstall()
    assert families.eval_exact is interp.eval_exact is original


def test_host_speed_scale_takes_the_median_probe_around_an_operation():
    probe = hostspeed.SpeedProbe()
    probe.times = [0.0, 1.0, 1.05, 1.1, 2.0]
    probe.kernel_s = [0.0002, 0.0004, 0.0009, 0.0005, 0.0006]
    ref = hostspeed.REFERENCE_S
    # only the bracketing probes are near
    assert probe.scale(0.2, 0.5) == pytest.approx(ref / 0.0003)
    # three probes within the window: the outlier does not count
    assert probe.scale(1.0, 1.02) == pytest.approx(ref / 0.0005)
    # after the last probe, the last kernel time stands alone
    assert probe.scale(2.5, 2.6) == pytest.approx(ref / 0.0006)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_the_contract_line(trace):
    out = _run(["--workload", "check-fix", "--seed", "2", "--seconds", "0.5",
                "--trace", trace], ROOT)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(res["metrics"]) == {m["name"] for m in _spec()[kind]}
    if trace == "1":
        assert res["metrics"]["enclosure.enclose_op.sinr.calls"]["value"] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(["--workload", "axioms", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
