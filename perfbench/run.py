#!/usr/bin/env python3
"""Cold-start benchmark of `conefan verify` and the geometry layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-ideal --seed 0 --seconds 30 --trace 0

Workloads: verify-ideal, verify-chain, geometry (see perfbench/README.md).

The benchmark is a closed loop with one caller on one thread.  Every timed
run is a fresh interpreter (perfbench/child.py) that imports conefan from
``src``, so no memo cache carries over from an earlier run.  Runs follow
one another until ``--seconds`` is used up (at least three, or two pairs
with ``--trace 1``), and each metric is the median over the runs.

--trace 0 reports the end-to-end metrics: setup_s, run_s and peak_rss_mb.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced ones, plus trace.overhead_frac.

Every output is checked outside the timed phase.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric with its unit,
failed_frac, the report digest and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("verify-ideal", "verify-chain", "geometry")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# A run must end within 180 s: a child still running this many seconds
# after the run started is killed and the run fails.
HARD_LIMIT_S = 170.0


def git_sha(root: str) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload: str, seed: int, trace: bool, work_dir: str, deadline: float) -> dict:
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "1" if trace else "0", work_dir]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the child's stdout is conefan's own console output
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(os.path.join(work_dir, "result.json")) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """Fresh-interpreter runs until `seconds` are used; returns the untraced
    and the traced results."""
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain, traced = [], []
    plan = [False, True] if trace else [False]
    minimum = 2 if trace else 3
    while True:
        for mode in plan:
            results = traced if mode else plain
            work_dir = os.path.join(run_dir, f"{'t' if mode else 'u'}{len(results)}")
            results.append(run_child(workload, seed, mode, work_dir, deadline))
        elapsed = time.monotonic() - start
        rounds = len(plain)
        # stop once another round would end more than half a round past `seconds`
        if rounds >= minimum and elapsed + elapsed / rounds / 2 > seconds:
            return plain, traced


def median(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "conefan", "__init__.py")):
        print(f"error: no conefan sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so no timed set-up pays for it
    if not (compileall.compile_dir(SRC, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("error: compiling the sources failed", file=sys.stderr)
        return 2

    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"error: a timed run exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: a timed run did not end in time", file=sys.stderr)
        return 1

    everything = plain + traced
    digest = plain[0]["digest"]
    attempted = sum(r["attempted"] for r in everything)
    # every run of one seed, traced or not, must give the same outputs
    failed = sum(r["attempted"] if r["digest"] != digest else r["failed"] for r in everything)
    backend = plain[0]["kernel_backend"]
    env = {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "runs": len(plain),
        "traced_runs": len(traced),
    }
    try:
        with open(BASELINE) as fh:
            baseline_backend = json.load(fh)["env"]["kernel_backend"]
    except (OSError, ValueError, KeyError):
        baseline_backend = None
    env["backend_matches_baseline"] = backend == baseline_backend
    if baseline_backend is not None and backend != baseline_backend:
        print(f"WARNING: kernel backend {backend!r} differs from the baseline's "
              f"{baseline_backend!r}; kernel timings are not comparable")

    if args.trace:
        layers = {k: _layer_median([r["layers"][k] for r in traced], k)
                  for k in traced[0]["layers"]}
        overhead = median(traced, "run_s") / median(plain, "run_s") - 1
        layers["trace.overhead_frac"] = overhead
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        missing = traced[0]["missing"]
        if missing:
            print("skipped boundaries (not found): " + ", ".join(missing))
        _print_layers(layers, median(traced, "run_s"))
    else:
        metrics = {k: {"value": median(plain, k), "unit": u} for k, u in END_TO_END.items()}

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"report_digest: {digest}")
    for name in END_TO_END:
        print(f"{name:12s} {median(plain, name):12.6f} {END_TO_END[name]}")
    print(f"{'failed_frac':12s} {failed / attempted:12.6f} ratio ({failed}/{attempted})")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"env": env, "summary": summary, "runs": plain, "traced_runs": traced},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _layer_median(values: list, name: str):
    # counts repeat exactly from run to run; keep them whole numbers
    if _layer_unit(name) == "count":
        return statistics.median_low(values)
    return statistics.median(values)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _print_layers(layers: dict, run_s: float) -> None:
    print(f"{'boundary':34s} {'calls':>8s} {'self_s':>9s} {'self%':>6s} {'total_s':>9s} {'total%':>6s}")
    for key in layers:
        if not key.endswith(".calls") or not layers[key]:
            continue
        base = key[: -len(".calls")]
        s, t = layers[base + ".self_s"], layers[base + ".total_s"]
        print(f"{base:34s} {layers[key]:8d} {s:9.4f} {s / run_s:6.1%} {t:9.4f} {t / run_s:6.1%}")
    for key, value in layers.items():
        if not key.endswith((".calls", ".self_s", ".total_s")):
            print(f"{key:34s} {value}")


if __name__ == "__main__":
    sys.exit(main())
