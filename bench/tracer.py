"""Outside-in tracer: per-layer spans and counters without touching the package.

`Tracer.install()` replaces every public module-level function of the seven
layers with a timing wrapper, both on its defining module and on every other
layer module that bound the same function by name (`from .qcore import ...`);
patching only the defining module would miss most qcore calls.  Functions held
in module-level dicts (`cli._HANDLERS`) are rebound as well.  `cli._map_grid`
is wrapped too, because its self time is the wait on the worker pool.

Each call records one span (name, start, end, parent) in memory; `metrics()`
folds the spans of one pass into the per-layer numbers and `write_spans()`
dumps them at the end of a run.  Spans from `--workers` pool children stay in
the children and are not collected; `cli.pool_wait_s` counts the wait on them.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("qcore", "chained_bell", "embezzle", "halfsum", "hvaudit", "couplings", "cli")
PRIVATE_WRAPPED = {"cli": ("_map_grid",)}
# Functions whose amplitude-map argument is summed into qcore.amplitudes_scanned,
# on the outermost of their spans only: born_probability and joint_probability
# call project_amplitudes on the same map, which must not count twice.
SCANNING = {"qcore.born_probability", "qcore.joint_probability", "qcore.project_amplitudes"}
PROBED = SCANNING | {"hvaudit.born_joint_distribution", "embezzle.embezzled_state"}
# Metrics that sum the inclusive time of outermost spans of these functions.
INCLUSIVE = {
    "hvaudit.check_compquant": "hvaudit.preaudit_s",
    "hvaudit.check_parind": "hvaudit.preaudit_s",
    "hvaudit.pe_invariance_check": "hvaudit.preaudit_s",
    "cli.run_validate": "cli.validate_s",
}
INCLUSIVE_GROUPS = {
    metric: {name for name, m in INCLUSIVE.items() if m == metric} for metric in INCLUSIVE.values()
}


def _targets() -> dict[str, list[tuple[str, object]]]:
    """Layer -> [(function name, function)] to wrap, in definition order."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"parind_lab.{layer}")
        chosen = []
        for name, value in vars(module).items():
            public = not name.startswith("_") or name in PRIVATE_WRAPPED.get(layer, ())
            if public and inspect.isfunction(value) and value.__module__ == module.__name__:
                chosen.append((name, value))
        targets[layer] = chosen
    return targets


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Records spans of one pass; reusable across passes via `reset()`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.scan_sizes: dict[int, int] = {}
        self.born_keys: set = set()
        self.spec_keys: set = set()
        self._fingerprints: dict[int, tuple[object, int]] = {}
        self._bindings: list[tuple[dict, object, object, object]] = []
        self._patched = False

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.scan_sizes.clear()
        self.born_keys.clear()
        self.spec_keys.clear()
        self._fingerprints.clear()

    # -- argument probes --------------------------------------------------

    def _fingerprint(self, obj: object) -> int:
        """Content hash of a state or observable, memoized per live object."""
        hit = self._fingerprints.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        if hasattr(obj, "amplitudes"):
            value = hash((obj.registry, frozenset(obj.amplitudes.items())))
        else:
            value = hash(tuple(
                (eig, proj.registry, proj.complemented,
                 tuple(self._fingerprint(ket) for ket in proj.kets))
                for eig, proj in obj.branches
            ))
        self._fingerprints[id(obj)] = (obj, value)
        return value

    def _probe(self, name: str, index: int, args: tuple, kwargs: dict) -> None:
        def arg(position: int, keyword: str):
            return args[position] if len(args) > position else kwargs[keyword]

        if name in ("qcore.born_probability", "qcore.joint_probability"):
            self.scan_sizes[index] = len(arg(0, "state").amplitudes)
        elif name == "qcore.project_amplitudes":
            self.scan_sizes[index] = len(arg(1, "amplitudes"))
        elif name == "hvaudit.born_joint_distribution":
            self.born_keys.add((
                self._fingerprint(arg(0, "state")),
                tuple(self._fingerprint(o) for o in arg(1, "observables")),
            ))
        elif name == "embezzle.embezzled_state":
            self.spec_keys.add(arg(0, "spec"))

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        names, spans, stack = self.names, self.spans, self.stack
        name_id = len(names)
        names.append(name)
        probe = self._probe if name in PROBED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            if probe is not None:
                probe(name, index, args, kwargs)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function; idempotent.

        A binding is a module global or a value in a module-level dict (such
        as `cli._HANDLERS`, through which `cli.main` dispatches)."""
        if self._patched:
            return
        if not self._bindings:
            wrappers = {}
            for layer, pairs in _targets().items():
                for name, fn in pairs:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
            for layer in LAYERS:
                namespace = vars(importlib.import_module(f"parind_lab.{layer}"))
                tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
                for table in tables:
                    for key, value in table.items():
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._bindings.append((table, key, value, hit[1]))
        for table, key, _, wrapper in self._bindings:
            table[key] = wrapper
        self._patched = True

    def uninstall(self) -> None:
        for table, key, original, _ in self._bindings:
            table[key] = original
        self._patched = False

    # -- folding ------------------------------------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        names = self.names
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("a span was still open when the pass ended")
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        calls_by_name: dict[str, int] = defaultdict(int)
        inclusive = {metric: 0.0 for metric in INCLUSIVE.values()}
        checks = []
        top = 0.0
        scanned = 0

        def outermost(parent: int, group: set) -> bool:
            """True if no ancestor span is a function of `group`."""
            while parent >= 0:
                if names[spans[parent][0]] in group:
                    return False
                parent = spans[parent][3]
            return True

        for index, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            duration = end - start
            self_by_name[name] += duration - child[index]
            calls_by_name[name] += 1
            if name == "halfsum.identity_check":
                checks.append(duration)
            if parent < 0:
                top += duration
            if index in self.scan_sizes and outermost(parent, SCANNING):
                scanned += self.scan_sizes[index]
            metric = INCLUSIVE.get(name)
            if metric is not None and outermost(parent, INCLUSIVE_GROUPS[metric]):
                inclusive[metric] += duration

        def layer_sum(table: dict, layer: str) -> float:
            return sum((v for k, v in table.items() if k.split(".")[0] == layer), 0.0)

        checks.sort()
        born_calls = calls_by_name["hvaudit.born_joint_distribution"]
        builds = calls_by_name["embezzle.embezzled_state"]
        out = {f"{layer}.self_s": layer_sum(self_by_name, layer) for layer in LAYERS}
        out.update({
            "qcore.calls": int(layer_sum(calls_by_name, "qcore")),
            "qcore.project_amplitudes.self_s": self_by_name["qcore.project_amplitudes"],
            "qcore.amplitudes_scanned": scanned,
            "qcore.apply_structured_map.self_s": self_by_name["qcore.apply_structured_map"],
            "hvaudit.born_joint_distribution.calls": born_calls,
            "hvaudit.born_unique_ratio": len(self.born_keys) / born_calls if born_calls else 0.0,
            "embezzle.embezzled_state.calls": builds,
            "embezzle.state_builds_per_spec": builds / len(self.spec_keys) if builds else 0.0,
            "embezzle.slot_statistics.self_s": self_by_name["embezzle.slot_statistics"],
            "chained_bell.chain_correlation.calls": calls_by_name["chained_bell.chain_correlation"],
            "halfsum.identity_check.calls": len(checks),
            "halfsum.identity_check.p50_us": _quantile(checks, 0.50) * 1e6,
            "halfsum.identity_check.p99_us": _quantile(checks, 0.99) * 1e6,
            "couplings.calls": int(layer_sum(calls_by_name, "couplings")),
            "cli.pool_wait_s": self_by_name["cli._map_grid"],
            "bench.self_s": wall - top,
            **inclusive,
        })
        return out

    def write_spans(self, path: Path) -> None:
        """Dump the recorded spans as CSV: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for index, span in enumerate(self.spans):
                name_id, start, end, parent = span
                writer.writerow([index, self.names[name_id], repr(start), repr(end), parent])
