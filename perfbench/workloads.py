"""Workload inputs, timed phases and output checks.

Each workload has three steps, all run inside one fresh interpreter:

* ``make_inputs(workload, seed)`` builds plain JSON data from the seed
  (the same seed always gives the same data);
* ``run(workload, inputs, work_dir)`` is the timed phase, made only of
  calls into conefan's public API;
* ``check(workload, inputs, outputs)`` checks every output outside the
  timed phase and returns ``(attempted, failed, digest)``.

The digest is a SHA-256 over the outputs, so that runs, traced runs and
commits can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

import conefan
from conefan import cli
from conefan.errors import ConefanError

WORKLOADS = ("verify-ideal", "verify-chain", "geometry")

# The 3x3 bench system: three degrees in Z^3 with monomial ideals in three
# variables.
BENCH_SYSTEM = {
    "ambient_dim": 3,
    "grading_rank": 3,
    "generators": [
        {"degree": [1, 3, 1], "ideal": [[2, 3, 2], [3, 1, 0]]},
        {"degree": [3, 1, 1], "ideal": [[0, 1, 4]]},
        {"degree": [1, 3, 3], "ideal": [[2, 1, 4], [3, 0, 3], [3, 2, 0]]},
    ],
}

# verify-ideal: L=2 keeps the ungated ideal-level power check hot while a
# run stays near 7 s (L=3 takes about 88 s).  verify-chain: p-bound 3 with
# L=1 makes the valuation chain (exact LPs) dominate.
VERIFY_CAPS = {
    "verify-ideal": ["--p-bound", "2", "--L", "2"],
    "verify-chain": ["--p-bound", "3", "--L", "1"],
}

# Smooth refinement family: the acceptance criterion-6 cones.  The seed
# permutes their coordinates.
SMOOTH_2D = [[(1, 0), (a, b)] for a in range(1, 8) for b in range(1, 8)]
SMOOTH_3D = [
    [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
    [(1, 0, 0), (0, 1, 0), (1, 1, 3)],
    [(1, 0, 0), (0, 1, 0), (1, 2, 4)],
    [(1, 0, 0), (0, 1, 0), (1, 1, 5)],
    [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)],
]
# Two high-multiplicity cones (17 and 9).  Permuting their coordinates
# changes the refinement's tie-breaks and moves their cost by up to a
# third, so the seed only reorders and rescales their generators, which
# leaves the cone, and the work, unchanged.
SMOOTH_HEAVY = [
    [(1, 0, 0), (0, 1, 0), (3, 5, 17)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 9)],
]

COST_SETS = 8
COST_GENERATORS = 5
COST_QUERIES_PER_SET = 62
POLYHEDRA = 20
POLY_DIM = 4
# project() removes redundant rows by exact LPs when Fourier-Motzkin
# leaves more than 24 rows, and only deduplicates them otherwise.  The LP
# path's cost varies by a quarter from instance to instance, so a seeded
# draw of a few would not be steady: its instances come from a constant
# seed, and the run seed only shuffles and rescales their rows (same point
# set).
PRUNE_FAMILY_SEED = 20230928
PRUNE_INSTANCES = 2


def _permute(vectors, perm):
    return [[v[p] for p in perm] for v in vectors]


def _smooth_inputs(rng: random.Random) -> list:
    out = []
    for gens in SMOOTH_2D + SMOOTH_3D:
        perm = list(range(len(gens[0])))
        rng.shuffle(perm)
        out.append(_permute(gens, perm))
    for gens in SMOOTH_HEAVY:
        scaled = [[k * x for x in g] for g, k in ((g, rng.randint(1, 3)) for g in gens)]
        rng.shuffle(scaled)
        out.append(scaled)
    return out


def _cost_inputs(rng: random.Random) -> list:
    out = []
    for _ in range(COST_SETS):
        gens = set()
        while len(gens) < COST_GENERATORS:
            g = tuple(rng.randint(0, 3) for _ in range(3))
            if any(g):
                gens.add(g)
        gens = sorted(gens)
        costs = [rng.randint(1, 9) for _ in gens]
        targets = set()
        while len(targets) < COST_QUERIES_PER_SET:
            coef = [rng.randint(0, 3) for _ in gens]
            if not any(coef):
                continue
            targets.add(
                tuple(sum(c * g[i] for c, g in zip(coef, gens)) for i in range(3))
            )
        out.append(
            {
                "generators": [list(g) for g in gens],
                "costs": costs,
                "targets": [list(t) for t in sorted(targets)],
            }
        )
    return out


def _polyhedron_rows(rng: random.Random, signs) -> list:
    """Rows <a, x> <= b with b > 0 (the origin is interior, so the
    polyhedron is full-dimensional) and the sign of a[-1] given per row."""
    rows = []
    seen = set()
    for s in signs:
        while True:
            a = tuple(rng.randint(-4, 4) for _ in range(POLY_DIM - 1))
            a += (s * rng.randint(1, 4) if s else 0,)
            if any(a) and a not in seen:
                break
        seen.add(a)
        rows.append([list(a), rng.randint(1, 12)])
    return rows


def _polyhedra_inputs(rng: random.Random) -> list:
    keep = list(range(POLY_DIM - 1))
    # 4 positive, 4 negative, 2 zero coefficients in the dropped coordinate:
    # 4*4 + 2 = 18 Fourier-Motzkin rows, the deduplication path.
    light = [1] * 4 + [-1] * 4 + [0] * 2
    out = [{"rows": _polyhedron_rows(rng, light), "keep": keep} for _ in range(POLYHEDRA)]
    family = random.Random(PRUNE_FAMILY_SEED)
    # 5 * 5 = 25 Fourier-Motzkin rows, the LP pruning path
    heavy = [1] * 5 + [-1] * 5
    for _ in range(PRUNE_INSTANCES):
        rows = _polyhedron_rows(family, heavy)
        rows = [[[k * x for x in a], k * b] for (a, b), k in
                ((row, rng.randint(1, 3)) for row in rows)]
        rng.shuffle(rows)
        out.append({"rows": rows, "keep": keep})
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """Plain JSON inputs of a workload, determined by the seed."""
    if workload in VERIFY_CAPS:
        return {
            "system": BENCH_SYSTEM,
            "argv": VERIFY_CAPS[workload] + ["--seed", str(seed)],
        }
    if workload == "geometry":
        rng = random.Random(seed)
        return {
            "smooth": _smooth_inputs(rng),
            "costs": _cost_inputs(rng),
            "polyhedra": _polyhedra_inputs(rng),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, inputs: dict, work_dir: str) -> None:
    """Write the inputs where the timed phase reads them (verify) or for
    the record (geometry)."""
    name = "system.json" if workload in VERIFY_CAPS else "inputs.json"
    data = inputs["system"] if workload in VERIFY_CAPS else inputs
    with open(os.path.join(work_dir, name), "w") as fh:
        json.dump(data, fh, sort_keys=True)


# ---------------------------------------------------------------- timed phase


def run(workload: str, inputs: dict, work_dir: str) -> dict:
    """The timed phase.  Library functions are looked up on their modules
    at call time, so the tracer's rebound wrappers are seen."""
    if workload in VERIFY_CAPS:
        report = os.path.join(work_dir, "report.json")
        argv = ["verify", os.path.join(work_dir, "system.json")]
        code = cli.main(argv + inputs["argv"] + ["--json", report])
        return {"exit_code": code, "report": report}
    return _run_geometry(inputs)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except ConefanError as exc:
        return exc


def _run_geometry(inputs: dict) -> dict:
    smooth = []
    for gens in inputs["smooth"]:
        cone = _attempt(conefan.cone_from_generators, gens)
        if isinstance(cone, ConefanError):
            smooth.append((None, cone))
            continue
        fan = conefan.Fan.make([cone], len(gens[0]))
        smooth.append((fan, _attempt(conefan.smooth_refine, fan)))
    costs = []
    for case in inputs["costs"]:
        gens, weights = case["generators"], case["costs"]
        fan = _attempt(conefan.linearity_fan, gens)
        values = [
            _attempt(conefan.representation_cost, gens, weights, t)
            for t in case["targets"]
        ]
        costs.append((fan, values))
    polyhedra = []
    for case in inputs["polyhedra"]:
        P = conefan.HPolyhedron.from_rows([(a, b) for a, b in case["rows"]])
        V = _attempt(conefan.dual_description, P)
        H = V if isinstance(V, ConefanError) else _attempt(conefan.vrep_to_h, V)
        Q = _attempt(conefan.project, P, case["keep"])
        polyhedra.append((P, H, Q))
    return {"smooth": smooth, "costs": costs, "polyhedra": polyhedra}


# ------------------------------------------------------------- output checks


def check(workload: str, inputs: dict, outputs: dict) -> tuple[int, int, str]:
    """(attempted, failed, digest) of one timed phase's outputs."""
    if workload in VERIFY_CAPS:
        return _check_verify(outputs)
    return _check_geometry(inputs, outputs)


def report_digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _check_verify(outputs: dict) -> tuple[int, int, str]:
    try:
        with open(outputs["report"]) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return 1, 1, "none"
    report = payload.get("report", {})
    ok = (
        outputs["exit_code"] == 0
        and payload.get("status") == "verified"
        and payload.get("exit_code") == 0
        and report.get("verified") is True
    )
    return 1, 0 if ok else 1, report_digest(report)


def _fmt_rows(P) -> list:
    return [
        [[str(x) for x in a], str(b)] for a, b in P.inequalities + P.equalities
    ]


def _check_geometry(inputs: dict, outputs: dict) -> tuple[int, int, str]:
    attempted = failed = 0
    record = []

    def tally(ok: bool):
        nonlocal attempted, failed
        attempted += 1
        failed += 0 if ok else 1

    for fan, refined in outputs["smooth"]:
        ok = fan is not None and not isinstance(refined, ConefanError)
        if ok:
            ok = all(conefan.is_smooth(c) for c in refined.maximal_cones)
            ok = ok and conefan.refines(refined, fan)
            record.append([[list(r) for r in c.rays] for c in refined.maximal_cones])
        tally(ok)

    for case, (fan, values) in zip(inputs["costs"], outputs["costs"]):
        gens = [tuple(Fraction(x) for x in g) for g in case["generators"]]
        weights = [Fraction(c) for c in case["costs"]]
        if isinstance(fan, ConefanError):
            tally(False)
        else:
            whole = conefan.Fan.make([conefan.cone_from_generators(gens)], 3)
            tally(fan.support_pair() == whole.support_pair())
            record.append([[list(r) for r in c.rays] for c in fan.maximal_cones])
        for target, value in zip(case["targets"], values):
            if isinstance(value, ConefanError):
                tally(False)
                continue
            w = value.witness
            ok = len(w) == len(gens) and all(t >= 0 for t in w)
            ok = ok and all(
                sum(t * g[i] for t, g in zip(w, gens)) == target[i]
                for i in range(len(target))
            )
            ok = ok and sum(t * c for t, c in zip(w, weights)) == value.value
            tally(ok)
            record.append(str(value.value))

    for case, (P, H, Q) in zip(inputs["polyhedra"], outputs["polyhedra"]):
        if isinstance(H, ConefanError):
            tally(False)
        else:
            tally(conefan.same_point_set(H, P))
            record.append(_fmt_rows(H))
        if isinstance(Q, ConefanError):
            tally(False)
            continue
        keep = case["keep"]
        vertices = conefan.dual_description(P).vertices
        tally(all(conefan.contains(Q, [v[k] for k in keep]) for v in vertices))
        record.append(_fmt_rows(Q))

    return attempted, failed, report_digest(record)
