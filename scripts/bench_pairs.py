"""Paired perfbench runs of two source trees, written to one BENCH file.

Each pair runs perfbench/run.py once in the parent tree and once in the
change tree, one run at a time; pairs alternate which side runs first.
Every run's metadata and result lines (the last two lines run.py prints)
are appended to the output file, whose "summary" is recomputed from all
of its runs after each call, and whose "src_lines" gives each tree's total
line count of src/approxc/*.py:

    python scripts/bench_pairs.py --parent P --change C --workload check-fix \\
        --seeds 11,23 --pairs 5 --out BENCH_10.json

P and C are fresh exports of the two commits (git archive); both are
byte-compiled before the first run.  A metric's summary gives each side's
median and quartiles over the untraced runs, the change's median against
the parent's in percent, and in how many pairs the change was better.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"trials_per_s": False}


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    meta, result = out.stdout.strip().splitlines()[-2:]
    return {"metadata": json.loads(meta), "result": json.loads(result)}


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (tree / "src" / "approxc").glob("*.py"))


def _quartiles(xs):
    if len(xs) < 2:
        return [round(xs[0], 4)] * 2
    q = statistics.quantiles(xs, n=4)
    return [round(q[0], 4), round(q[2], 4)]


def summarize(runs: list) -> list:
    groups: dict = {}
    for r in runs:
        if r["trace"]:
            continue
        key = (r["workload"], r["seed"])
        groups.setdefault(key, {}).setdefault(r["pair"], {})[r["side"]] = r
    out = []
    for (workload, seed), pairs in sorted(groups.items()):
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        metrics = {}
        for name in pairs[0]["parent"]["result"]["metrics"]:
            par = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
            lower = LOWER_IS_BETTER.get(name, True)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            pm, cm = statistics.median(par), statistics.median(chg)
            metrics[name] = {
                "parent_median": round(pm, 4), "parent_quartiles": _quartiles(par),
                "change_median": round(cm, 4), "change_quartiles": _quartiles(chg),
                "change_pct": round(100 * (cm - pm) / pm, 1) if pm else None,
                "change_wins": wins, "pairs": len(pairs)}
        out.append({
            "workload": workload, "seed": seed,
            "all_correct": all(p[s]["result"]["correct"] for p in pairs
                               for s in ("parent", "change")),
            "failed": sum(p[s]["result"]["failed"] for p in pairs
                          for s in ("parent", "change")),
            "metrics": metrics})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="11")
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    trees = {"parent": args.parent, "change": args.change}
    doc["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
    # byte-compile both trees first: a tree without a bytecode cache sets
    # up about 0.1 s slower, so its first run would read a higher setup_s
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=tree, check=True)
    for seed in (int(s) for s in args.seeds.split(",")):
        done = {r["pair"] for r in doc["runs"] if r["workload"] == args.workload
                and r["seed"] == seed and r["trace"] == args.trace}
        first = len(done)
        for pair in range(first, first + args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                run = run_once(trees[side], args.workload, seed, args.seconds,
                               args.trace)
                doc["runs"].append({"workload": args.workload, "seed": seed,
                                    "trace": args.trace, "pair": pair,
                                    "pair_order": order, "side": side, **run})
                m = run["result"]["metrics"]
                print(args.workload, seed, pair, side, json.dumps(
                    {k: round(v["value"], 4) for k, v in m.items()
                     if not args.trace or "err" in k or "eval_error" in k}),
                      flush=True)
                doc["summary"] = summarize(doc["runs"])
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
