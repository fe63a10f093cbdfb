"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import conefan  # noqa: E402
import conefan.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# The worked two-variable system of the README: a fast full verify run.
WORKED_SYSTEM = {
    "ambient_dim": 2,
    "grading_rank": 2,
    "generators": [
        {"degree": [1, 0], "ideal": [[1, 0]]},
        {"degree": [0, 1], "ideal": [[0, 1]]},
        {"degree": [1, 1], "ideal": [[1, 1], [2, 0]]},
    ],
}


def test_self_time_of_nested_and_recursive_spans():
    names = ("a", "b")
    # (name, parent, start, end, run); a contains b, which calls itself,
    # and a calls itself after b returns
    spans = [
        (0, -1, 0, 100, 0),
        (1, 0, 10, 40, 0),
        (1, 1, 15, 25, 0),
        (0, 0, 50, 70, 0),
    ]
    m = tracer.layer_metrics(names, spans)
    assert m["a.calls"] == 2 and m["b.calls"] == 2
    ns = {k: round(v * 1e9) for k, v in m.items() if k.endswith("_s")}
    assert ns["a.self_s"] == 50 + 20
    assert ns["b.self_s"] == 20 + 10
    # only the outermost activation counts towards total time
    assert ns["a.total_s"] == 100
    assert ns["b.total_s"] == 30
    # self times partition the root span
    assert ns["a.self_s"] + ns["b.self_s"] == 100


def test_sibling_spans_and_empty_boundaries():
    m = tracer.layer_metrics(("x", "y"), [(0, -1, 0, 10, 0), (0, -1, 20, 25, 1)])
    assert m["x.calls"] == 2
    assert round(m["x.self_s"] * 1e9) == round(m["x.total_s"] * 1e9) == 15
    assert m["y.calls"] == 0 and m["y.total_s"] == 0


def _bindings():
    mods = {n: m for n, m in sys.modules.items()
            if m is not None and (n == "conefan" or n.startswith("conefan."))}
    return {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}


def _verify_digest(tmp_path) -> str:
    system = tmp_path / "system.json"
    system.write_text(json.dumps(WORKED_SYSTEM))
    report = tmp_path / "report.json"
    code = conefan.cli.main(["verify", str(system), "--p-bound", "2", "--json", str(report)])
    assert code == 0
    return workloads.report_digest(json.loads(report.read_text())["report"])


def test_wrappers_restore_bindings_and_keep_the_digest(tmp_path):
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == []
        assert conefan.graded.representation_cost is not before[("conefan.lp", "representation_cost")]
        assert conefan.ideal_product is conefan.graded.ideal_product
        traced = _verify_digest(tmp_path)
    finally:
        tr.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # traced first, while the memo caches are cold, so the LP layer is reached
    assert _verify_digest(tmp_path) == traced
    m = tr.metrics()
    assert m["cli.main.calls"] == 1
    # graded reaches the LP through its own imported name
    assert m["lp.representation_cost.calls"] > 0
    assert m["graded.ideal_product.gens_out"] > 0
    spans = tr.spans()
    assert len(spans) == sum(m[f"{b}.calls"] for b in tracer.BOUNDARIES)
    # one outermost call (cli.main), so every span belongs to operation 0
    assert {s[4] for s in spans} == {0}


def test_missing_boundary_is_skipped(monkeypatch):
    monkeypatch.setattr(tracer, "BOUNDARIES", ("graded.no_such_function", "linalg.rank"))
    tr = tracer.Tracer()
    tr.install()
    try:
        conefan.rank([[1, 2], [2, 4]])
    finally:
        tr.remove()
    assert tr.missing == ["graded.no_such_function"]
    m = tr.metrics()
    assert m["graded.no_such_function.calls"] == 0 and m["linalg.rank.calls"] == 1


def test_inputs_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        a = json.dumps(workloads.make_inputs(w, 7), sort_keys=True)
        assert a == json.dumps(workloads.make_inputs(w, 7), sort_keys=True)
        assert a != json.dumps(workloads.make_inputs(w, 8), sort_keys=True)


def test_geometry_inputs_are_distinct_and_valid():
    inputs = workloads.make_inputs("geometry", 3)
    for case in inputs["costs"]:
        assert len({tuple(t) for t in case["targets"]}) == len(case["targets"])
    rows = [json.dumps(case["rows"]) for case in inputs["polyhedra"]]
    assert len(set(rows)) == len(rows)
    for case in inputs["polyhedra"]:
        assert all(b > 0 for _, b in case["rows"])  # the origin is interior


def test_no_memo_resets_and_no_private_conefan_names():
    # private names start with one underscore; dunders such as __file__ are fine
    forbidden = re.compile(
        "cache" + "_clear|conefan[.\\w]*\\._[A-Za-z]|from conefan[.\\w]* import[^\\n]*\\b_[A-Za-z]"
    )
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as fh:
                text = fh.read()
            assert not forbidden.search(text), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_report_digest_is_canonical():
    a = workloads.report_digest({"x": 1, "y": [1, 2]})
    b = workloads.report_digest({"y": [1, 2], "x": 1})
    assert a == b
    text = json.dumps({"x": 1, "y": [1, 2]}, sort_keys=True, separators=(",", ":"))
    assert a == "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def test_benchmark_json_lists_every_metric_and_workload():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    traced = set(tracer.Tracer().metrics()) | {"trace.overhead_frac"}
    assert traced == set(tracer.metric_names())
