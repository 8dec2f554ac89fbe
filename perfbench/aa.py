#!/usr/bin/env python3
"""A/A steadiness check for the perfbench benchmark.

Run a set (every workload of BENCHMARK.json at its run_seconds, --trace 0,
one run per seed) and record it:

    python3 perfbench/aa.py run --seeds 1-10 --out .bench_build/aa-set1.json

Summarize a set: for each end-to-end metric of each workload, the spread
(Q3 - Q1) / median over the seeds, with Q1/Q3 from
statistics.quantiles(values, n=4), set against the metric's bound in
BENCHMARK.json (a spread at or under bound/3 is "steady"):

    python3 perfbench/aa.py report .bench_build/aa-set1.json

Compare two sets of the same code: each metric's median shift, worse-side
only, as a share of the first set's median, against its bound:

    python3 perfbench/aa.py compare set1.json set2.json

Exit status is 1 when a spread or a median shift of any end-to-end metric
exceeds its bound, else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       p.returncode))
    return json.loads(lines[-1])


def cmd_run(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    out = {"seconds": seconds, "runs": {}}
    for w in (w["name"] for w in spec["workloads"]):
        out["runs"][w] = []
        for seed in parse_seeds(args.seeds):
            res = run_one(w, seed, seconds)
            vals = {k: v["value"] for k, v in res["metrics"].items()}
            out["runs"][w].append({"seed": seed, "correct": res["correct"],
                                   "failed": res["failed"],
                                   "metrics": vals})
            print("%s seed %d: %s" % (w, seed, "ok" if res["correct"]
                                      else "FAILED"), file=sys.stderr)
            with open(args.out, "w") as f:
                json.dump(out, f, indent=1)
    return 0


def quartiles(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def summarize(data, spec):
    """{workload: {metric: (median, spread, bound)}} over a recorded set."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = {}
    for w, runs in data["runs"].items():
        out[w] = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            out[w][name] = (med, spread, bounds.get(name))
    return out


def cmd_report(args):
    spec = load_spec()
    with open(args.set) as f:
        data = json.load(f)
    bad = 0
    print("| workload | metric | median | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|")
    for w, ms in summarize(data, spec).items():
        for name, (med, spread, bound) in ms.items():
            ratio = spread / bound if bound else float("nan")
            flag = ""
            if bound and spread > bound:
                flag, bad = " **over**", bad + 1
            print("| %s | %s | %.6g | %.2f%% | %s | %.2f%s |" %
                  (w, name, med, 100 * spread,
                   "%.0f%%" % (100 * bound) if bound else "-", ratio, flag))
    return 1 if bad else 0


def cmd_compare(args):
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(args.a) as f:
        a = summarize(json.load(f), spec)
    with open(args.b) as f:
        b = summarize(json.load(f), spec)
    bad = 0
    print("| workload | metric | median A | median B | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for w in a:
        for name, (ma, _, bound) in a[w].items():
            if name not in b.get(w, {}):
                continue
            mb = b[w][name][0]
            shift = (mb - ma) / ma if ma else 0.0
            worse = shift if better.get(name) == "lower" else -shift
            flag = ""
            if bound and worse > bound:
                flag, bad = " **over**", bad + 1
            print("| %s | %s | %.6g | %.6g | %+.2f%% | %s%s |" %
                  (w, name, ma, mb, 100 * worse,
                   "%.0f%%" % (100 * bound) if bound else "-", flag))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description="A/A steadiness runs for perfbench")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    return {"run": cmd_run, "report": cmd_report,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
