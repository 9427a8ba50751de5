"""Per-layer tracing from outside the program.

``Tracer`` replaces the program's public functions by timing wrappers in
every module that holds them, and puts the originals back on exit.  It
keeps, per function, the number of calls and the self time: the time in
the call minus the time spent in wrapped functions it called.  Spans are
folded into these sums as they close, so memory stays flat however many
calls a round makes.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, counter name, count(args, result)): a counter,
# when given, sums the words each call materialised or scanned.
TARGETS = [
    ("gray", "gray_image", "words", lambda args, result: len(result)),
    ("gray", "is_double_cyclic", None, None),
    ("gray", "min_distance", None, None),
    ("codewords", "span_array", "words", lambda args, result: len(result)),
    ("codewords", "CodeSet.from_packed_words", None, None),
    ("codewords", "BinaryCode.from_packed_words", None, None),
    ("codewords", "is_constacyclic", None, None),
    ("codewords", "closure_of_spec", None, None),
    ("codewords", "enumerate_closure", None, None),
    ("codewords", "closure_basis", None, None),
    ("codewords", "CodeSpec.generators", None, None),
    ("duality", "recover_spec", None, None),
    ("duality", "build_dual_report", None, None),
    (
        "duality",
        "dual_bruteforce",
        "ambient_words",
        lambda args, result: 1 << (args[0].alpha + 2 * args[0].beta),
    ),
    ("structure", "type_from_enumeration", None, None),
    ("structure", "puncture_x", None, None),
    ("structure", "puncture_y", None, None),
    ("structure", "subcode_cb", None, None),
    ("structure", "count_codes_census", None, None),
    ("report", "verify_report", None, None),
    ("report", "render_json", None, None),
    ("cli", "main", None, None),
]

OVERHEAD_METRIC = "bench.trace_overhead_s"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, path, counter, _ in TARGETS:
        name = f"{module}.{path}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if counter:
            out.append((f"{name}.{counter}", "count"))
    out.append((OVERHEAD_METRIC, "s"))
    return out


class Tracer:
    """Context manager: while active, every target call is timed."""

    def __init__(self, package: str = "z2ucodes"):
        self.package = package
        self.totals: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, counter, count):
        totals, stack, clock = self.totals, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals[name + ".calls"] += 1
                totals[name + ".self_s"] += duration - frame[0]
            if counter:
                totals[f"{name}.{counter}"] += count(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for metric, _ in metric_names():
            if metric != OVERHEAD_METRIC:
                self.totals[metric] = 0
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == self.package]
        for module_name, path, counter, count in TARGETS:
            name = f"{module_name}.{path}"
            home = sys.modules[f"{self.package}.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter, count))
                else:
                    new = self._wrap(name, raw, counter, count)
                self._patch(cls, attr, new)
                continue
            original = getattr(home, path)
            traced = self._wrap(name, original, counter, count)
            # A name must be replaced in every module that imported it.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
