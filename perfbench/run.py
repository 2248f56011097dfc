#!/usr/bin/env python3
"""Build and run the layered benchmark, or compare two sets of results.

Run one workload (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload forkjoin --seed 1 --seconds 20 --trace 0

builds perfbench/bin/perfbench.exe from source with dune (release
profile), runs it, checks its result line against BENCHMARK.json, saves
the environment stamp and the result to perfbench/results/ and prints
both; the result object is the last line of standard output.  With
--trace 1 the run reports the per-layer metrics and also writes its
spans to perfbench/results/.

Compare two sets of result files, e.g. the parent commit's and a
change's:

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import benchstat

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROFILE = "release"
TARGET = "./perfbench/bin/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "perfbench.exe")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ["forkjoin", "sort", "service", "simulate"]
# A run must end within 180 s; leave the wrapper room to report.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "perfbench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from a full checkout of the repository" % need)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", PROFILE, TARGET],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed", 1)


def git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over the sources the executable is built from, so a number
    can be traced to its program where there is no git history."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in ("results", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != RESULT_KEYS:
        die("result has keys %s" % sorted(result))
    if result["attempted"] < 1:
        die("no operation was attempted")
    want = expected_metrics(trace)
    got = set(result["metrics"])
    if want is not None and got != want:
        die("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - got), sorted(got - want)))


def run(args):
    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-trace%d-seed%d" % (args.workload, args.trace, args.seed)
    spans = os.path.join(RESULTS, stem + "-spans.json")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if r.returncode != 0:
        die("benchmark exited with code %d" % r.returncode, 1)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        die("benchmark printed no result")
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    check_result(result, args.trace)
    env.update({
        "nproc": os.cpu_count(),
        "dune_profile": PROFILE,
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "source_sha256": source_digest(),
    })
    if args.trace:
        env["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({"env": env, "result": result}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))


def load_results(directory):
    """{(workload, trace): {metric: {seed: value}}} from a directory of
    saved result files."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name.endswith("-spans.json"):
            continue
        with open(os.path.join(directory, name)) as fh:
            rec = json.load(fh)
        env, metrics = rec["env"], rec["result"]["metrics"]
        key = (env["workload"], env["trace"])
        for m, v in metrics.items():
            out.setdefault(key, {}).setdefault(m, {})[env["seed"]] = v["value"]
    return out


def compare(args):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_results(args.parent), load_results(args.change)
    row = "%-10s %-42s %28s %28s %6s  %s"
    print(row % ("workload", "metric", "parent q1/median/q3", "change q1/median/q3", "won",
                 "verdict"))
    for key in sorted(set(parent) & set(change)):
        for m in sorted(set(parent[key]) & set(change[key])):
            spec_m = info.get(m, {"better": "lower"})
            p, c = parent[key][m], change[key][m]
            won, n = benchstat.pairs_won(p, c, spec_m["better"])
            fmt = "%.4g/%.4g/%.4g"
            print(row % (key[0], m, fmt % benchstat.quartiles(list(p.values())),
                         fmt % benchstat.quartiles(list(c.values())),
                         "%d/%d" % (round(won * n), n),
                         benchstat.verdict(p, c, spec_m["better"], spec_m.get("bound"))))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent", help="directory of the parent's result files")
        ap.add_argument("change", help="directory of the change's result files")
        compare(ap.parse_args(sys.argv[2:]))
        return
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    run(args)


if __name__ == "__main__":
    main()
