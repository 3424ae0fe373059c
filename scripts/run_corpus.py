#!/usr/bin/env python3
"""Compile and check the shipped corpus; write the aggregate report.

Usage: python scripts/run_corpus.py [--trials N] [--seed S] [--out FILE]
Exit status: 0 all pass, 1 failures, 2 infrastructure error.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from approxc.checker import check_rule_corpus
from approxc.cli import positive_int
from approxc.compiler import CompileOpts
from approxc.interp import EvalConfig


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", default=str(Path(__file__).resolve().parents[1] / "corpus"))
    ap.add_argument("--trials", type=positive_int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--precision-bits", type=positive_int, default=128)
    ap.add_argument("--fuel", type=positive_int, default=500_000)
    ap.add_argument("--out", default="corpus_report.json")
    args = ap.parse_args()

    cfg = EvalConfig(fuel=args.fuel, precision_bits=args.precision_bits)
    try:
        rep = check_rule_corpus(args.corpus, CompileOpts(cfg=cfg),
                                trials=args.trials, seed=args.seed, cfg=cfg)
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    for e in rep.entries:
        line = f"{e.name:28s} {e.status}"
        if e.report:
            line += (f"  {e.report.passes}/{e.report.trials} pass"
                     f", {len(e.report.failures)} fail"
                     f", {e.report.inconclusive} inconclusive")
        if e.error:
            line += f"  {e.error}"
        print(line)
    Path(args.out).write_text(rep.to_json() + "\n")
    print(f"report written to {args.out}; failures: {rep.failures}")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
