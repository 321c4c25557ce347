#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go harness in this directory).

One run, as the benchmark contract calls it (from the repository root):

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 20 --trace 0

prints the harness's output; its last stdout line is the JSON result.

Summary of repeated runs, every end-to-end metric by name and unit with
median and quartiles, plus ops attempted and failed:

    python3 perfbench/run.py --report --runs 10 --save results.json

Compare two saved summaries; a difference is marked only when it exceeds
the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --compare old.json new.json

Record the default seed's reference digests for a new model version
(refuses to overwrite existing pins):

    python3 perfbench/run.py --pin

Run the harness's self-test (schema, pin failures, span tree):

    python3 perfbench/run.py --selftest

Everything the build and the runs write stays under .bench_build/ in the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
RUN_TIMEOUT = 170  # seconds; the contract allows 180 per run


def go_env():
    """Environment that keeps the Go toolchain's state inside .bench_build."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOPATH", "go-path"),
                     ("GOMODCACHE", "go-path/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache"), ("HOME", "home")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="-mod=readonly", GOPROXY="off", GOTOOLCHAIN="local",
               GOTELEMETRY="off")
    return env


def build():
    """Compile the harness against the repository's own source."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at the repository root; the simulator source is missing")
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args, capture=False):
    """Run the harness once; returns (exit code, stdout text)."""
    cmd = [BINARY, "--pins", os.path.join(HERE, "pins"),
           "--out", os.path.join(BUILD, "perfbench")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=go_env(),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT)
    return proc.returncode, (out.decode() if out else "")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(runs, seconds, save):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    for wl in [w["name"] for w in bench["workloads"]]:
        rec = summary.setdefault(wl, {"attempted": [], "failed": [], "correct": [], "metrics": {}})
        for seed in range(1, runs + 1):
            code, out = run_once(["--workload", wl, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"], capture=True)
            if code != 0:
                sys.exit("perfbench: %s seed %d exited %d" % (wl, seed, code))
            res = json.loads(out.strip().splitlines()[-1])
            rec["attempted"].append(res["attempted"])
            rec["failed"].append(res["failed"])
            rec["correct"].append(res["correct"])
            for name, m in res["metrics"].items():
                rec["metrics"].setdefault(name, []).append(m["value"])
            print("perfbench: %s seed %d done" % (wl, seed), file=sys.stderr)
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | runs |")
    print("|---|---|---|---|---|---|---|---|---|")
    for wl, rec in summary.items():
        for name, vals in rec["metrics"].items():
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.1f%% | %.0f%% | %d |" % (
                wl, name, metrics[name]["unit"], med, q1, q3, 100 * spread,
                100 * metrics[name]["bound"], len(vals)))
        print("| %s | ops attempted / failed | count | %d / %d | | | | | %d |" % (
            wl, sum(rec["attempted"]), sum(rec["failed"]), len(rec["attempted"])))
    if save:
        with open(save, "w") as f:
            json.dump(summary, f, indent=1)


def compare(old_path, new_path):
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    print("| workload | metric | unit | old median [q1, q3] | new median [q1, q3] | change | verdict |")
    print("|---|---|---|---|---|---|---|")
    for wl in sorted(set(old) & set(new)):
        for name in sorted(set(old[wl]["metrics"]) & set(new[wl]["metrics"])):
            a, b = old[wl]["metrics"][name], new[wl]["metrics"][name]
            ma, mb = statistics.median(a), statistics.median(b)
            a1, a3 = quartiles(a)
            b1, b3 = quartiles(b)
            change = (mb - ma) / ma if ma else 0.0
            m = bounds.get(name)
            verdict = "within bound"
            if m and abs(change) > m["bound"]:
                worse = change > 0 if m["better"] == "lower" else change < 0
                verdict = "REGRESSION" if worse else "improvement"
            print("| %s | %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.1f%% | %s |" % (
                wl, name, m["unit"] if m else "", ma, a1, a3, mb, b1, b3, 100 * change, verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--report", action="store_true", help="run every workload --runs times and summarize")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save", help="with --report: write the per-run values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --save files")
    ap.add_argument("--pin", action="store_true", help="record reference digests for the current model version")
    ap.add_argument("--selftest", action="store_true", help="run the harness self-test (go test)")
    a = ap.parse_args()
    if a.compare:
        compare(*a.compare)
        return
    if a.selftest:
        sys.exit(subprocess.run(["go", "test", "-count=1", "."], cwd=HERE, env=go_env()).returncode)
    build()
    if a.pin:
        code, _ = run_once(["--pin"])
        sys.exit(code)
    if a.report:
        report(a.runs, a.seconds, a.save)
        return
    if not a.workload:
        ap.error("--workload is required")
    code, _ = run_once(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
