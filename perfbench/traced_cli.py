"""Run the sawproj CLI once with timing hooks, then write spans and counts.

Usage: python3 perfbench/traced_cli.py TRACE_JSON CLI_ARG...

The CLI arguments are those of ``python -m sawproj.cli``; the exit code is the
CLI's. The hooks live here, outside the package: each hooked function is
replaced in every sawproj module that bound it (under any name), and methods
are replaced on their class. Spans are aggregated in memory per thread,
because ``image_measure`` enumerates pieces on pool threads when
``--workers`` > 1, and are written once when the CLI returns.

A hook whose target no longer exists is listed under ``missing`` with the
reason; it is never reported as a zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import re
import sys
import threading
import time
from functools import wraps

clock = time.perf_counter


class _ThreadStats:
    """Span stack and totals of one thread; only that thread writes them."""

    def __init__(self, name: str):
        self.name = name
        self.stack: list[list] = []  # [group, seconds covered by child spans]
        self.depth: dict[str, int] = {}  # open spans per group
        self.groups: dict[str, list] = {}  # group -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.enumerate_s = 0.0

    def group(self, name: str) -> list:
        g = self.groups.get(name)
        if g is None:
            g = self.groups[name] = [0, 0.0, 0.0]
        return g

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self.missing: list[dict] = []
        self.patched: dict[str, list[str]] = {}
        self.last_image_components = 0

    def stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            # image_measure starts a new pool per call; name workers by index
            name = re.sub(r"^ThreadPoolExecutor-\d+_", "pool-worker-",
                          threading.current_thread().name)
            st = self._local.stats = _ThreadStats(name)
            with self._lock:
                self._threads.append(st)
        return st

    def enumerate_total(self) -> float:
        with self._lock:
            threads = list(self._threads)
        return sum(st.enumerate_s for st in threads)

    def span(self, fn, group: str, observe=None):
        """Wrap fn in a span of `group`; observe(tracer, st, args, result, info)."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats()
            info = {"enumerate_before": self.enumerate_total()} if observe else None
            st.stack.append([group, 0.0])
            st.depth[group] = st.depth.get(group, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                _, child = st.stack.pop()
                st.depth[group] -= 1
                g = st.group(group)
                g[0] += 1
                g[2] += dur - child
                if st.depth[group] == 0:  # nested spans of one group count once
                    g[1] += dur
                if st.stack:
                    st.stack[-1][1] += dur
            if observe is not None:
                info["seconds"] = dur
                observe(self, st, args, result, info)
            return result

        return wrapper

    def counted(self, fn, group: str, observe):
        """Count calls without a span, so the caller's self time keeps them."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            st = self.stats()
            st.group(group)[0] += 1
            observe(self, st, args, result, None)
            return result

        return wrapper

    def items(self, fn, group: str, observe=None):
        """Wrap a generator: time each step inside it and count the items."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            step = fn(*args, **kwargs).__next__
            spent, count = 0.0, 0
            try:
                while True:
                    start = clock()
                    item = step()
                    spent += clock() - start
                    count += 1
                    yield item
            except StopIteration:
                spent += clock() - start
            finally:
                # charged to the thread that finished the generator, which is
                # the one that ran it: image_measure exhausts it in one go
                st = self.stats()
                g = st.group(group)
                g[0] += 1
                g[1] += spent
                g[2] += spent
                st.enumerate_s += spent
                st.count("construction.pieces_enumerated", count)
                if st.stack:
                    st.stack[-1][1] += spent

        return wrapper

    def dump(self) -> dict:
        groups: dict[str, dict] = {}
        counters: dict[str, float] = {}
        for st in self._threads:
            for name, (calls, total, own) in st.groups.items():
                g = groups.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "threads": {}}
                )
                g["calls"] += calls
                g["total_s"] += total
                g["self_s"] += own
                t = g["threads"].setdefault(
                    st.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                t["calls"] += calls
                t["total_s"] += total
                t["self_s"] += own
            for name, value in st.counters.items():
                counters[name] = counters.get(name, 0) + value
        return {
            "groups": groups,
            "counters": counters,
            "missing": self.missing,
            "patched": self.patched,
        }


# -- what the hooks record beyond calls and time --------------------------------------


def _cache(tracer, st, args, result, info):
    st.count("cli.cache_hits" if result is not None else "cli.cache_misses")


def _write(tracer, st, args, result, info):
    records, path = args[0], args[1]
    st.count("records.rows", len(records))
    st.count("records.bytes", os.path.getsize(path))


def _image(tracer, st, args, result, info):
    union, _ = result
    comps = union.component_count
    tracer.last_image_components = comps
    st.count("measure.components_all", comps)
    enumerated = tracer.enumerate_total() - info["enumerate_before"]
    st.count("measure.merge_s", info["seconds"] - enumerated)


def _bracket(tracer, st, args, result, info):
    # the last image a bracket computes is the one at its own level
    st.count("measure.components", tracer.last_image_components)


def _curve(tracer, st, args, result, info):
    st.count("curve.vertices", len(result.vertices))


def _event(tracer, st, args, result, info):
    st.count("diagnostics.event_intervals", result.cells.component_count)


def _secant(tracer, st, args, result, info):
    if result is not None:
        st.count("diagnostics.secant_witnesses")


SPAN, COUNT, ITEMS = "span", "count", "items"

# (module:attribute path, group, how, observe)
HOOKS = (
    ("sawproj.cli:main", "cli.main", SPAN, None),
    ("sawproj.cli:_Cache.get", "cli.cache", COUNT, _cache),
    ("sawproj.records:finalize_record", "records.finalize", SPAN, None),
    ("sawproj.records:write_jsonl", "records.write", SPAN, _write),
    ("sawproj.records:write_csv", "records.write", SPAN, _write),
    ("sawproj.params:ParameterSet.box_norm_sq_enclosure", "params.norm_enclosure", SPAN, None),
    ("sawproj.params:ParameterSet.box_norm_enclosure", "params.norm_enclosure", SPAN, None),
    ("sawproj.sequences:Functional.coeff", "sequences.coeff", SPAN, None),
    ("sawproj.sequences:Functional.abs_tail_upper", "sequences.tail", SPAN, None),
    # sqrt_lower and sqrt_upper call sqrt_enclosure, so this sees every root
    ("sawproj.rational:sqrt_enclosure", "rational.sqrt", SPAN, None),
    ("sawproj.construction:build_pl", "construction.build_pl", SPAN, None),
    ("sawproj.construction:PLFunction.piece_value_ints", "construction.enumerate", ITEMS, None),
    ("sawproj.measure:projection_bracket", "measure.bracket", SPAN, _bracket),
    ("sawproj.measure:image_measure", "measure.image", SPAN, _image),
    ("sawproj.measure:IntervalUnion.from_intervals", "measure.union", SPAN, None),
    ("sawproj.measure:IntervalUnion.intersect", "measure.union", SPAN, None),
    ("sawproj.measure:IntervalUnion.union", "measure.union", SPAN, None),
    ("sawproj.curve:build_curve", "curve.build", SPAN, _curve),
    ("sawproj.curve:curve_length", "curve.length", SPAN, None),
    ("sawproj.diagnostics:event_set", "diagnostics.event_set", SPAN, _event),
    ("sawproj.diagnostics:independence_check", "diagnostics.event_set", SPAN, None),
    ("sawproj.diagnostics:secant_witness", "diagnostics.secant", SPAN, _secant),
    ("sawproj.diagnostics:sample_event_union", "diagnostics.sampler", SPAN, None),
    ("sawproj.diagnostics:sample_slope_identities", "diagnostics.sampler", SPAN, None),
)


def install(tracer: Tracer) -> None:
    for target, group, how, observe in HOOKS:
        module_name, _, path = target.partition(":")
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            tracer.missing.append({"hook": target, "group": group, "reason": reason})
            continue
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrap = {SPAN: tracer.span, COUNT: tracer.counted, ITEMS: tracer.items}[how]
        wrapped = wrap(fn, group, observe)
        if outer:
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            tracer.patched[target] = [f"{module_name}.{'.'.join(outer)}"]
            continue
        binders = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "sawproj" or name.startswith("sawproj.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    binders.append(f"{name}.{key}")
        tracer.patched[target] = binders


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    import sawproj.cli

    tracer = Tracer()
    install(tracer)
    try:
        return sawproj.cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
