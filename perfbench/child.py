"""One timed run of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE WORK_DIR

Imports conefan from the checkout's ``src``, makes and writes the inputs
(set-up), runs the timed phase, then checks the outputs and writes
``result.json`` into WORK_DIR.  With TRACE=1 the boundary wrappers are
installed after set-up and removed before the checks, and the spans go to
``spans.json``.  run.py starts this script once per timed run, so no memo
cache carries over from an earlier run.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    workload, seed, trace, work_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, SRC)
    import conefan

    if not os.path.abspath(conefan.__file__).startswith(SRC + os.sep):
        print(f"conefan imported from {conefan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    workloads.write_inputs(workload, inputs, work_dir)
    setup_s = time.perf_counter() - _START

    tr = tracer.Tracer() if trace else None
    if tr is not None:
        tr.install()
    start = time.perf_counter()
    outputs = workloads.run(workload, inputs, work_dir)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr is not None:
        tr.remove()

    attempted, failed, digest = workloads.check(workload, inputs, outputs)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "kernel_backend": str(getattr(conefan, "KERNEL_BACKEND", "none")),
    }
    if tr is not None:
        tr.write(os.path.join(work_dir, "spans.json"))
        result["layers"] = tr.metrics()
        result["missing"] = tr.missing
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
