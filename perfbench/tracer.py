"""Outside-in tracing of conefan's layer boundaries.

``Tracer.install()`` looks up each boundary function on its module and
rebinds every attribute of every loaded ``conefan`` module that *is* that
function object to a timing wrapper.  Internal callers that imported the
function by name (``graded`` calling ``representation_cost``, recursive
``ideal_power``, the ``lru_cache``-wrapped ``ideal_product``) therefore go
through the wrapper too.  ``remove()`` puts every original object back.

Spans are kept in memory as flat int64 rows (name, parent, start_ns,
end_ns, run) and written out when the traced run ends.  ``run`` numbers
the outermost traced calls, so the spans of one operation of the workload
share it.  A boundary name that no longer exists is skipped and listed in
``missing``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

BOUNDARIES = (
    "cli.main",
    "graded.verify_closure_identity",
    "graded.stabilizing_exponent",
    "graded.expand_degree",
    "graded.ideal_product",
    "graded.ideal_power",
    "graded.asymptotic_valuation",
    "graded.asymptotic_newton",
    "graded.newton_hform",
    "fans.linearity_fan",
    "fans.smooth_refine",
    "fans.cone_from_generators",
    "lp.representation_cost",
    "lp.simplex_solve",
    "polyhedra.dual_description",
    "polyhedra.vrep_to_h",
    "polyhedra.project",
    "linalg.linear_solve",
    "linalg.rank",
    "linalg.kernel_basis",
)

# Output sizes summed over every call's result.
RESULT_COUNTERS = {
    "graded.ideal_product": ("graded.ideal_product.gens_out", lambda r: len(r.gens)),
    "fans.smooth_refine": ("fans.smooth_refine.cones_out", lambda r: len(r.maximal_cones)),
}

FIELDS = ("name", "parent", "start_ns", "end_ns", "run")
_WIDTH = len(FIELDS)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{b}.{k}" for b in BOUNDARIES for k in ("calls", "self_s", "total_s")]
    names += [name for name, _ in RESULT_COUNTERS.values()]
    return names + ["trace.overhead_frac"]


def _conefan_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "conefan" or name.startswith("conefan."))
    ]


class Tracer:
    def __init__(self):
        self.run = -1
        self.counts = {name: 0 for name, _ in RESULT_COUNTERS.values()}
        self.missing: list[str] = []
        self._spans = array("q")
        self._stack = [-1]
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = _conefan_modules()
        for idx, qualified in enumerate(BOUNDARIES):
            module_name, attr = qualified.rsplit(".", 1)
            module = sys.modules.get("conefan." + module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.missing.append(qualified)
                continue
            wrapper = self._wrap(idx, qualified, target)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is target:
                        self._saved.append((m, name, target))
                        setattr(m, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, idx: int, qualified: str, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns
        counter = RESULT_COUNTERS.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) // _WIDTH
            parent = stack[-1]
            if parent < 0:
                self.run += 1
            spans.extend((idx, parent, 0, 0, self.run))
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid * _WIDTH + 2] = start
                spans[sid * _WIDTH + 3] = end
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def spans(self) -> list[tuple]:
        s = self._spans
        return [tuple(s[i : i + _WIDTH]) for i in range(0, len(s), _WIDTH)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": list(BOUNDARIES),
                    "fields": list(FIELDS),
                    "missing": self.missing,
                    "spans": self._spans.tolist(),
                },
                fh,
                separators=(",", ":"),
            )

    def metrics(self) -> dict:
        out = layer_metrics(BOUNDARIES, self.spans())
        out.update(self.counts)
        return out


def layer_metrics(names, spans) -> dict:
    """calls, self_s and total_s per boundary from spans.

    spans are (name index, parent span index or -1, start_ns, end_ns, run)
    with every parent listed before its children.  Self time is a span's
    duration minus the time its child spans cover; total_s counts only the
    outermost activation of a recursive function.
    """
    n = len(spans)
    covered = [0] * n
    ancestors = [0] * n  # bit mask of the names on the path to the root
    for sid, (name, parent, start, end, _run) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            ancestors[sid] = ancestors[parent] | (1 << spans[parent][0])
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    total_ns = [0] * len(names)
    for sid, (name, _parent, start, end, _run) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - covered[sid]
        if not (ancestors[sid] >> name) & 1:
            total_ns[name] += end - start
    out = {}
    for i, qualified in enumerate(names):
        out[f"{qualified}.calls"] = calls[i]
        out[f"{qualified}.self_s"] = self_ns[i] / 1e9
        out[f"{qualified}.total_s"] = total_ns[i] / 1e9
    return out
