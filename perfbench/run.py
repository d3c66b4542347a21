#!/usr/bin/env python3
"""The wCQ suite's benchmark of record.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload mpmc --seed 1 --seconds 10 --trace 0

builds perfbench/ (a Cargo package of its own) into $CARGO_TARGET_DIR
(default .bench_build), runs it under a watchdog and passes its output
through: human-readable lines first, then one JSON line with `correct`,
`attempted`, `failed` and `metrics`.

Make a result set (every workload, untraced, seeds 1 to --runs; one JSON
line per run with its workload, seed, host and result), summarise its
spread, or compare two of them (parent vs change):

    python3 perfbench/run.py sweep --runs 10 --out parent.jsonl
    python3 perfbench/run.py summary parent.jsonl
    python3 perfbench/run.py compare parent.jsonl change.jsonl

Metrics are taken from correct runs only. `compare` pairs runs by seed
and prints, per workload, each side's incorrect runs and failed/attempted
operations, then per end-to-end metric each side's median and quartiles,
the share of pairs the change wins and a verdict under the bounds in
BENCHMARK.json: worse (the change fails more operations or has more
incorrect runs than the parent, or its median is worse by more than the
bound), improved (wins at least 9 in 10 pairs and the medians differ by
more than the parent's quartile distance), unresolved (spread wider than
the bound and the change does not beat every parent run) or no worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
CONFIG = ROOT / "BENCHMARK.json"
# A run must end within 180 s; the binary's own watchdog fires first.
RUN_TIMEOUT_S = 175


def load_config():
    with open(CONFIG) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path; exits 1 on failure."""
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PACKAGE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        sys.exit(1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(1)
    return target / "release" / "perfbench"


def failure(workload, seed, why):
    print(f"FAILED {why}: workload={workload} seed={seed}")
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_once(binary, workload, seed, seconds, trace, config):
    """Runs the binary once; returns (output lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(PACKAGE / "out" / f"trace-{workload}-{seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return [], failure(workload, seed, f"no result within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return lines, failure(workload, seed, f"exit code {proc.returncode}, no result line")
    if proc.returncode != 0:
        return lines[:-1], failure(workload, seed, f"exit code {proc.returncode}")
    if result.get("metrics"):
        wanted = {m["name"] for m in config["per_layer" if trace else "end_to_end"]}
        got = set(result["metrics"])
        if got != wanted:
            sys.stderr.write(f"perfbench: metrics {sorted(got ^ wanted)} disagree with BENCHMARK.json\n")
            sys.exit(1)
    return lines[:-1], result


def host_of(lines):
    for line in lines:
        if line.startswith("host "):
            return json.loads(line[len("host "):])
    return {}


def cmd_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    config = load_config()
    if a.workload not in {w["name"] for w in config["workloads"]}:
        p.error(f"unknown workload {a.workload}")
    binary = build()
    lines, result = run_once(binary, a.workload, a.seed, a.seconds, a.trace, config)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


def cmd_sweep(argv):
    p = argparse.ArgumentParser(prog="run.py sweep")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)
    config = load_config()
    seconds = config["run_seconds"]
    binary = build()
    for w in [x["name"] for x in config["workloads"]]:
        for seed in range(1, a.runs + 1):
            lines, result = run_once(binary, w, seed, seconds, 0, config)
            entry = {"workload": w, "seed": seed, "seconds": seconds,
                     "host": host_of(lines), "result": result}
            with open(a.out, "a") as f:
                f.write(json.dumps(entry) + "\n")
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{w} seed={seed} correct={result['correct']} {vals}", flush=True)


def load_set(path):
    """Returns {workload: {seed: result}}."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                e = json.loads(line)
                runs.setdefault(e["workload"], {})[e["seed"]] = e["result"]
    return runs


def correct(results):
    """The seeds whose runs were correct."""
    return sorted(s for s, r in results.items() if r["correct"] and r["metrics"])


def values(results, seeds, name):
    return [results[s]["metrics"][name]["value"] for s in seeds]


def having(name, seeds, *sets):
    """The seeds whose runs report metric `name` in every set."""
    return [s for s in seeds if all(name in r[s]["metrics"] for r in sets)]


def checks(results):
    """(incorrect runs, failed operations, attempted operations)."""
    rs = results.values()
    return (sum(1 for r in rs if not r["correct"]),
            sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, q2, q3 = quartiles(v)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def cmd_summary(argv):
    p = argparse.ArgumentParser(prog="run.py summary")
    p.add_argument("results")
    a = p.parse_args(argv)
    config = load_config()
    runs = load_set(a.results)
    steady = True
    for w, results in runs.items():
        bad, failed, attempted = checks(results)
        print(f"{w}: {len(results)} runs, {bad} incorrect, {failed}/{attempted} operations failed")
        steady &= bad == 0
        seeds = correct(results)
        for m in config["end_to_end"]:
            v = values(results, having(m["name"], seeds, results), m["name"])
            if not v:
                continue
            q1, q2, q3 = quartiles(v)
            s = spread(v)
            ok = s < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<18} median {q2:.6g} {m['unit']}  quartiles {q1:.6g}..{q3:.6g}"
                  f"  spread {s:.4f}  bound {m['bound']}  {'steady' if ok else 'WIDE'}")
    print("all runs correct and all spreads below a third of their bounds" if steady
          else "some runs incorrect or some spreads wide")


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent")
    p.add_argument("change")
    a = p.parse_args(argv)
    config = load_config()
    base, cand = load_set(a.parent), load_set(a.change)
    for w in [x["name"] for x in config["workloads"]]:
        if w not in base or w not in cand:
            continue
        pc, cc = checks(base[w]), checks(cand[w])
        print(f"{w}: parent {len(base[w])} runs, {pc[0]} incorrect, {pc[1]}/{pc[2]} failed;"
              f" change {len(cand[w])} runs, {cc[0]} incorrect, {cc[1]}/{cc[2]} failed")
        # A gain does not count when more runs or operations fail.
        fails_more = cc[0] > pc[0] or cc[1] * pc[2] > pc[1] * cc[2]
        # Pairs are runs of the same seed, both correct.
        seeds = sorted(set(correct(base[w])) & set(correct(cand[w])))
        if not seeds:
            print("  no seed has a correct run on both sides")
        for m in config["end_to_end"]:
            both = having(m["name"], seeds, base[w], cand[w])
            pv, cv = values(base[w], both, m["name"]), values(cand[w], both, m["name"])
            if not pv:
                continue
            sign = 1 if m["better"] == "higher" else -1
            # Ties count for neither side.
            pairs = list(zip(pv, cv))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            share = wins / len(pairs)
            p1, p2, p3 = quartiles(pv)
            c1, c2, c3 = quartiles(cv)
            worse_by = sign * (p2 - c2) / abs(p2) if p2 else 0.0
            wide = max(spread(pv), spread(cv)) > m["bound"]
            all_better = all(sign * (y - x) > 0 for x in pv for y in cv)
            if fails_more or worse_by > m["bound"]:
                verdict = "worse"
            elif share >= 0.9 and abs(c2 - p2) > (p3 - p1):
                verdict = "improved"
            elif wide and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no worse"
            print(f"  {m['name']:<18} parent {p2:.6g} [{p1:.6g}..{p3:.6g}]"
                  f"  change {c2:.6g} [{c1:.6g}..{c3:.6g}] {m['unit']}"
                  f"  change wins {wins}/{len(pairs)}  {verdict}")


def main():
    modes = {"sweep": cmd_sweep, "summary": cmd_summary, "compare": cmd_compare}
    if len(sys.argv) > 1 and sys.argv[1] in modes:
        modes[sys.argv[1]](sys.argv[2:])
    else:
        cmd_run(sys.argv[1:])


if __name__ == "__main__":
    main()
