#!/usr/bin/env python3
"""End-to-end benchmark of the DeepXplore engine.

Builds bench/e2e (Release) into .bench_build/, warms the model cache without
timing it, runs the workloads named in BENCHMARK.json, prints every metric
by name with its unit, and checks that the outputs are correct. See
bench/e2e/README.md for the workloads, the metrics and how to read a trace.

  python3 bench/e2e/run.py                      # every workload once
  python3 bench/e2e/run.py --runs 5 --seed 3    # medians and quartiles
  python3 bench/e2e/run.py --trace              # per-layer metrics + traces
  python3 bench/e2e/run.py --repeat-check       # two sets agree within bounds?
  python3 bench/e2e/run.py --out a.json ...     # keep the raw results
  python3 bench/e2e/run.py --compare a.json b.json
  python3 bench/e2e/run.py --workload mnist-conv --seed 7 --seconds 20 --trace 0

With --workload the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics, or per-layer
metrics with --trace 1). The exit code is 0 only when every correctness
check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "e2e"
RUN_TIMEOUT_S = 170

# Metrics that repeat exactly for a given seed, whatever the timing.
EXACT = ("mean_coverage", "tests_per_seed")
# Fingerprint fields that identify the host and build; results that differ
# in any of them are not compared.
HOST_KEYS = ("cpus", "simd_backend", "simd_lanes", "global_pool_threads", "compiler",
             "build_type", "deepxplore_fast")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def bench_env():
    env = dict(os.environ)
    env["DEEPXPLORE_FAST"] = "1"
    env["DEEPXPLORE_CACHE_DIR"] = str(BUILD / "model_cache")
    # The intra-op pool plus its caller: three compute threads, like the
    # session workers, so no run uses more than three of the host's cores.
    env["DEEPXPLORE_THREADS"] = "2"
    # glibc gives each allocating thread an arena of its own, so peak RSS
    # then depends on which thread first touched which campaign; on
    # daemon-mix that moved it by 15% between runs. One arena holds it to 1%
    # at the same throughput (the executor does not allocate per iteration).
    env["MALLOC_ARENA_MAX"] = "1"
    # Compiler and program temporaries stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def build():
    """Configures and builds dxbench_e2e; exits non-zero when that fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "dxbench_e2e", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=bench_env(), stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"run.py: cannot run {cmd[0]}: {e}")
            sys.exit(2)
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return BUILD_DIR / "dxbench_e2e"


def warm(binary):
    done = subprocess.run([str(binary), "--warm"], env=bench_env(), stdout=sys.stderr,
                          stderr=sys.stderr, timeout=900)
    if done.returncode != 0:
        log("run.py: warming the model cache failed")
        sys.exit(2)


def git_fingerprint():
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_sha": "none", "git_dirty": False}
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return {"git_sha": sha, "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "none", "git_dirty": False}


def run_one(binary, workload, seed, seconds, trace, git):
    """Runs one workload in its own process; returns its result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work-dir", str(BUILD / "work" / f"{workload}-{os.getpid()}")]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    done = subprocess.run(cmd, env=bench_env(), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {workload} printed no result (exit {done.returncode})")
        sys.exit(2)
    result["fingerprint"].update(git)
    if trace:
        result["trace_file"] = cmd[-1]
    return result


def check_units(result, names, units):
    """Errors for metrics of `names` missing from a result or in the wrong unit."""
    errors = []
    for name in names:
        got = result["metrics"].get(name)
        if got is None:
            errors.append(f"{result['workload']}: metric {name} missing")
        elif got["unit"] != units[name]:
            errors.append(f"{result['workload']}: {name} in {got['unit']}, expected {units[name]}")
    return errors


def check_repeats(results):
    """Errors where runs of one workload and seed disagree on outputs."""
    errors = []
    groups = {}
    for r in results:
        groups.setdefault((r["workload"], r["seed"], r["seconds"]), []).append(r)
    for (workload, seed, _), runs in groups.items():
        first = runs[0]
        for r in runs[1:]:
            if r["digest"] != first["digest"]:
                errors.append(f"{workload} seed {seed}: digest {r['digest']} != {first['digest']}")
            for name in EXACT:
                a, b = first["metrics"][name]["value"], r["metrics"][name]["value"]
                if a != b:
                    errors.append(f"{workload} seed {seed}: {name} {b} != {a}")
    return errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summarize(results, names, units):
    """Prints median, quartiles and run count of each metric per workload."""
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == workload]
        print(f"\n{workload}  ({len(runs)} run{'s' if len(runs) > 1 else ''}, "
              f"seed {', '.join(str(s) for s in dict.fromkeys(r['seed'] for r in runs))})")
        print(f"  {'metric':44} {'unit':8} {'median':>12} {'p25':>12} {'p75':>12}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if not values:
                continue
            p25, med, p75 = quartiles(values)
            print(f"  {name:44} {units[name]:8} {med:12.6g} {p25:12.6g} {p75:12.6g}")


def print_self_times(traced, workloads, top=8):
    """The spans of each workload's last traced run with the most self time."""
    for workload in workloads:
        spans = [r for r in traced if r["workload"] == workload][-1]["spans"]
        ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:top]
        print(f"\n{workload}: spans by self time (duration minus child spans)")
        print(f"  {'span':44} {'count':>8} {'total s':>10} {'self s':>10}")
        for name, s in ranked:
            print(f"  {name:44} {s['count']:8d} {s['total_s']:10.4f} {s['self_s']:10.4f}")


def run_set(binary, workloads, seed, seconds, runs, trace, git, results):
    """`runs` rounds over the workloads, alternating their order per round."""
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            log(f"run.py: {workload} seed {seed} run {i + 1}/{runs}"
                f"{' (traced)' if trace else ''}")
            results.append(run_one(binary, workload, seed, seconds, trace, git))


def medians(results, workload, name):
    values = [r["metrics"][name]["value"] for r in results
              if r["workload"] == workload and name in r["metrics"]]
    return statistics.median(values) if values else None


def inputs_of(results, workload):
    """The (seed, seconds) pairs a workload ran with: they fix its inputs."""
    return {(r["seed"], r["seconds"]) for r in results if r["workload"] == workload}


def compare(a, b, spec):
    """Per (metric, workload) verdicts of set b against set a. Returns errors.

    The exact metrics repeat bit for bit on the same inputs, so when both sets
    ran a workload on the same seeds any drop in them is WORSE (bound 0); the
    bound in BENCHMARK.json covers sets that ran different seeds."""
    worse = []
    print(f"\n  {'workload':16} {'metric':16} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        same = inputs_of(a, workload) == inputs_of(b, workload)
        for m in spec["end_to_end"]:
            ma, mb = medians(a, workload, m["name"]), medians(b, workload, m["name"])
            if ma is None or mb is None:
                continue
            bound = 0.0 if same and m["name"] in EXACT else m["bound"]
            change = (mb - ma) / ma if ma else 0.0
            bad = change > bound if m["better"] == "lower" else -change > bound
            verdict = "WORSE" if bad else "within bound"
            print(f"  {workload:16} {m['name']:16} {ma:12.6g} {mb:12.6g} {change:+8.1%} "
                  f"{bound:6.2f}  {verdict}")
            if bad:
                worse.append(f"{workload} {m['name']} worse by {abs(change):.1%}")
    return worse


def host_of(results):
    return {k: results[0]["fingerprint"].get(k) for k in HOST_KEYS}


def cmd_compare(paths, spec):
    sets = [json.loads(Path(p).read_text())["runs"] for p in paths]
    hosts = [host_of(s) for s in sets]
    if hosts[0] != hosts[1]:
        diff = [k for k in HOST_KEYS if hosts[0][k] != hosts[1][k]]
        for k in diff:
            log(f"run.py: refusing to compare: fingerprint {k} differs: "
                f"{hosts[0][k]!r} vs {hosts[1][k]!r}")
        return 2
    for s, p in zip(sets, paths):
        fp = s[0]["fingerprint"]
        print(f"{p}: git {fp.get('git_sha')}{' (dirty)' if fp.get('git_dirty') else ''}")
    worse = compare(sets[0], sets[1], spec)
    return 1 if worse else 0


def cmd_single(args, spec, units):
    """The one-run interface: the last stdout line is the result object."""
    names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    binary = args.binary or build()
    warm(binary)
    r = run_one(binary, args.workload, args.seed, args.seconds, args.trace, git_fingerprint())
    errors = r["errors"] + check_units(r, names, units)
    for e in errors:
        log(f"run.py: {e}")
    summarize([r], names, units)
    line = {"correct": bool(r["correct"]) and not errors, "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {n: r["metrics"][n] for n in names if n in r["metrics"]}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_smoke(args, spec, units):
    binary = args.binary or build()
    warm(binary)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errors = []
    for w in spec["workloads"]:
        r = run_one(binary, w["name"], args.seed, 0.4, True, {})
        errors += [f"{w['name']}: {e}" for e in r["errors"]]
        errors += check_units(r, names, units)
        try:
            trace = json.loads(Path(r["trace_file"]).read_text())
            if not trace["traceEvents"]:
                errors.append(f"{w['name']}: empty trace")
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"{w['name']}: unreadable trace: {e}")
    for e in errors:
        log(f"smoke: {e}")
    print(f"smoke: {len(spec['workloads'])} workloads, {len(names)} metrics each: "
          f"{'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


def main():
    spec, units = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads,
                   help="run this workload once and print the result object last")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="traced runs: per-layer metrics and Chrome trace files")
    p.add_argument("--runs", type=int, default=1, help="rounds over the workloads")
    p.add_argument("--repeat-check", action="store_true",
                   help="run two sets of --runs (at least 5) and compare their medians")
    p.add_argument("--out", help="write every raw result to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out files (B against A)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload once, tiny and traced; check metric names and units")
    p.add_argument("--binary", help="use this dxbench_e2e instead of building one")
    args = p.parse_args()

    if args.compare:
        return cmd_compare(args.compare, spec)
    if args.smoke:
        return cmd_smoke(args, spec, units)
    if args.workload:
        return cmd_single(args, spec, units)

    binary = args.binary or build()
    warm(binary)
    git = git_fingerprint()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]

    results, second = [], []
    runs = max(args.runs, 5) if args.repeat_check else args.runs
    run_set(binary, workloads, args.seed, args.seconds, runs, False, git, results)
    if args.repeat_check:
        run_set(binary, workloads, args.seed, args.seconds, runs, False, git, second)
    traced = []
    if args.trace:
        run_set(binary, workloads, args.seed, args.seconds, args.runs, True, git, traced)

    everything = results + second + traced
    errors = [f"{r['workload']}: {e}" for r in everything for e in r["errors"]]
    errors += [e for r in results + second for e in check_units(r, e2e, units)]
    errors += [e for r in traced for e in check_units(r, layer, units)]
    errors += check_repeats(everything)

    fp = results[0]["fingerprint"]
    print("fingerprint: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    summarize(results + second, e2e, units)
    print("\ndigests (identical across the runs of a workload) and failed operations:")
    for workload in workloads:
        runs = [r for r in everything if r["workload"] == workload]
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"  {workload:16} {runs[0]['digest']}, {failed}/{attempted} ops failed "
              f"over {len(runs)} runs")
    if traced:
        summarize(traced, layer, units)
        print_self_times(traced, workloads)
        print("\ntracing overhead (1 - traced / untraced tests_per_s):")
        for w in workloads:
            base, with_trace = medians(results, w, "tests_per_s"), medians(traced, w, "tests_per_s")
            print(f"  {w:16} {1.0 - with_trace / base:+.1%}")
            print(f"  {'':16} trace: {[r['trace_file'] for r in traced if r['workload'] == w][-1]}")
    if args.repeat_check:
        print("\nrepeat check: second set against the first")
        errors += compare(results, second, spec)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": everything}, indent=1))
    for e in errors:
        log(f"run.py: {e}")
    print(f"\ncorrectness: {'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
