#!/usr/bin/env python3
"""Same-host A/B of two dxbench_e2e binaries on one seed.

Runs N pairs per workload, alternating which binary goes first, so drift on
the host lands on both sides alike. For every end-to-end metric it prints
both medians and quartiles and the number of pairs the change won. It fails
when any run fails its correctness gate, or when the two binaries disagree
on a digest or on an exact metric: a performance change must not change
what the engine finds.

  python3 tools/e2e_ab.py --base PARENT/.bench_build/e2e/dxbench_e2e \\
      --change .bench_build/e2e/dxbench_e2e --workload tabular-kmnc --pairs 10
  python3 tools/e2e_ab.py ... --out-base a.json --out-change b.json
  python3 bench/e2e/run.py --compare a.json b.json

--workload may be given more than once; without it every workload in
BENCHMARK.json runs. Runs use bench/e2e/run.py's environment and its model
cache; each --out file holds the runs of every workload, in run.py's --out
format.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # Leave no __pycache__ inside bench/e2e.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench" / "e2e"))
from run import (EXACT, bench_env, check_repeats, load_spec, quartiles,  # noqa: E402
                 run_one, warm)


def git_of(binary):
    """The commit of the checkout a binary was built in, when it has one."""
    def git(*args):
        return subprocess.run(["git", "-C", str(binary.parent), *args], capture_output=True,
                              text=True, timeout=30, env=bench_env())
    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return {"git_sha": "none", "git_dirty": False}
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return {"git_sha": sha.stdout.strip(), "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "none", "git_dirty": False}


def label(git):
    return git["git_sha"] + (" (dirty)" if git["git_dirty"] else "")


def report(base, change, spec):
    """Medians, quartiles and the change's wins per end-to-end metric."""
    print(f"\n  {'metric':16} {'base median':>12} {'[p25, p75]':>20} {'change median':>14} "
          f"{'[p25, p75]':>20} {'change':>8} {'wins':>6}")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
        if not a or not b:
            continue
        a25, a50, a75 = quartiles(a)
        b25, b50, b75 = quartiles(b)
        better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
        wins = sum(better(x, y) for x, y in zip(a, b))
        delta = (b50 - a50) / a50 if a50 else 0.0
        print(f"  {name:16} {a50:12.5g} {f'[{a25:.5g}, {a75:.5g}]':>20} {b50:14.5g} "
              f"{f'[{b25:.5g}, {b75:.5g}]':>20} {delta:+8.1%} {wins:3d}/{len(a)}")


def main():
    spec, _ = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, type=Path, help="dxbench_e2e of the parent")
    p.add_argument("--change", required=True, type=Path, help="dxbench_e2e of the change")
    p.add_argument("--workload", action="append", choices=names,
                   help="a workload to run (repeatable; default: every workload)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out-base", help="write the base runs to this JSON file")
    p.add_argument("--out-change", help="write the change runs to this JSON file")
    args = p.parse_args()
    workloads = args.workload or names

    sides = {"base": (args.base.resolve(), []), "change": (args.change.resolve(), [])}
    for binary, _ in sides.values():
        warm(binary)
    gits = {side: git_of(binary) for side, (binary, _) in sides.items()}
    for workload in workloads:
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                binary, runs = sides[side]
                print(f"e2e_ab: {workload} pair {i + 1}/{args.pairs}: {side}", file=sys.stderr,
                      flush=True)
                runs.append(run_one(binary, workload, args.seed, args.seconds, False,
                                    gits[side]))

    base, change = sides["base"][1], sides["change"][1]
    print(f"seed {args.seed}, {args.pairs} pairs per workload; "
          f"base {label(gits['base'])}, change {label(gits['change'])}")
    for workload in workloads:
        a = [r for r in base if r["workload"] == workload]
        print(f"\n{workload}")
        report(a, [r for r in change if r["workload"] == workload], spec)
        print(f"  digest {a[0]['digest']}; " + ", ".join(
            f"{n} {a[0]['metrics'][n]['value']:.6g}" for n in EXACT))
    errors = []
    for side, (_, runs) in sides.items():
        errors += [f"{side} run: {e}" for r in runs for e in r["errors"]]
        errors += [f"{side} run: {r['failed']}/{r['attempted']} operations failed"
                   for r in runs if r["failed"]]
    errors += check_repeats(base + change)
    for path, runs in ((args.out_base, base), (args.out_change, change)):
        if path:
            Path(path).write_text(json.dumps({"runs": runs}, indent=1))
    for e in errors:
        print(f"e2e_ab: {e}", file=sys.stderr)
    print(f"\ncorrectness: {'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
