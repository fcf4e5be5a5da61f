#!/usr/bin/env python3
"""End-to-end benchmark of the TCP-PR simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs the workload in its own
process and prints, as the last line of stdout, one JSON object with the
keys correct/attempted/failed/metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, measured with every wrapper off.
With --trace 1 they are the per_layer metrics: the process alternates
traced and untraced repetitions, and trace.overhead_frac is the traced
over the untraced median repetition time, minus 1. Host times are
scaled to a reference host speed by a probe loop timed between the
measured slices (calib.ml; README.md explains why).

Correctness: every repetition must reproduce the first one's digest
(traced and untraced alike); the process re-runs a prefix of its
scenario through the library's own experiment entry point and must
agree with it; a traced run also checks its receiver replay; and where
perfbench/digests.json pins a digest for the workload and seed, the run
must reproduce it. attempted/failed count these checks.

    python3 perfbench/run.py --pin SEED [SEED ...]

recomputes the pinned digests for the given seeds (after a deliberate
change to simulated behaviour).

A run record (core count, OCaml version, seed, digests, checks and
every metric) is printed on the line before the result and written to
.perfbench-out/, next to the span files.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = ".perfbench-out"
DIGESTS = os.path.join(HERE, "digests.json")
PROCESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def find_dune():
    """dune on PATH, else in an opam switch (a shell without the opam
    environment); the switch's bin goes on PATH for the compilers too."""
    dune = shutil.which("dune")
    if dune is not None:
        return dune
    root = os.environ.get("OPAMROOT", os.path.expanduser("~/.opam"))
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [prefix] if prefix else []
    candidates += sorted(glob.glob(os.path.join(root, "*")))
    for switch in candidates:
        bindir = os.path.join(switch, "bin")
        if os.access(os.path.join(bindir, "dune"), os.X_OK):
            os.environ["PATH"] = bindir + os.pathsep + os.environ.get("PATH", "")
            return os.path.join(bindir, "dune")
    fail("dune not found on PATH or in an opam switch")


def build():
    dune = find_dune()
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the repository root (dune-project and lib/ not found)")
    done = subprocess.run(
        [dune, "build", "--root", ".", "./" + EXE],
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if done.returncode != 0:
        fail("build failed")


def run_process(workload, seed, seconds, trace):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--out", OUT,
    ]
    if trace:
        cmd.append("--trace")
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if done.returncode != 0:
        return None, done.stderr.strip() or f"exit code {done.returncode}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def pin(seeds, workloads):
    build()
    digests = load_json(DIGESTS, {})
    for workload in workloads:
        for seed in seeds:
            result, err = run_process(workload, seed, 0.001, False)
            if result is None or not all(result["checks"].values()):
                fail(f"{workload} seed {seed}: {err or result['checks']}")
            digests.setdefault(workload, {})[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}")
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()

    bench = load_json("BENCHMARK.json", None)
    if bench is None:
        fail("BENCHMARK.json not found; run from the repository root")
    workloads = [w["name"] for w in bench["workloads"]]
    if args.pin:
        pin(args.pin, workloads)
        return
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {workloads}")
    if args.seed is None or args.seconds is None or args.seconds <= 0:
        fail("--seed and a positive --seconds are required")
    build()
    os.makedirs(OUT, exist_ok=True)

    result, err = run_process(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        # A crash or an exception is a failed operation with nothing
        # measured.
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    checks = list(result["checks"].items())
    pinned = load_json(DIGESTS, {}).get(args.workload, {}).get(str(args.seed))
    if pinned is not None:
        checks.append(("pinned", result["digest"] == pinned))
    failed = sum(1 for _, ok in checks if not ok)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    # A layer a workload does not exercise (no route sampling, no churn,
    # no such variant) reads 0; end-to-end metrics always exist.
    metrics = {
        m["name"]: {
            "value": result["metrics"].get(m["name"], 0)
            if args.trace else result["metrics"][m["name"]],
            "unit": m["unit"],
        }
        for m in wanted
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "ocaml": result["ocaml"],
        "digest": result["digest"],
        "pinned_digest": pinned,
        "repetitions": result["reps"],
        "checks": dict(checks),
        "trace.overhead_frac": result["metrics"]["trace.overhead_frac"] if args.trace else None,
        "all_metrics": result["metrics"],
    }
    with open(
        os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w"
    ) as f:
        json.dump(record, f, indent=1)
    summary = {k: v for k, v in record.items() if k != "all_metrics"}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
