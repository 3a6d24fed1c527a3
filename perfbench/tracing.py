"""Spans around calls into divgrace's layers, recorded from outside the package.

Tracer.install wraps each public function named in TARGETS and rebinds
the wrapper under every name that holds the original in any loaded
divgrace module, because consumers bind these functions at import time
(`from .checking import check_alpha`).  A span is (id, parent, name,
start, end, instance); spans stay in memory until the run ends.
Recording is on only inside Tracer.instance(), so set-up calls leave no
spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (module, attribute, span name); "GridGraph.edge_indices" is a method.
TARGETS = [
    ("grids", "GridGraph.edge_indices", "grids.edge_indices"),
    ("grids", "two_coloring", "grids.two_coloring"),
    ("checking", "check_d_graceful", "checking.check_d_graceful"),
    ("checking", "check_alpha", "checking.check_alpha"),
    ("constructions", "construct", "constructions.construct"),
    ("constructions", "prism_labeling", "constructions.prism_labeling"),
    ("constructions", "extend", "constructions.extend"),
    ("constructions", "seed_matches", "constructions.seed_matches"),
    ("decomp", "base_blocks", "decomp.base_blocks"),
    ("decomp", "develop", "decomp.develop"),
    ("decomp", "verify_decomposition", "decomp.verify_decomposition"),
    ("decomp", "check_difference_classes", "decomp.check_difference_classes"),
    ("_kernels", "count_pairs", "kernels.count_pairs"),
    ("_kernels", "dfs_search", "kernels.dfs_search"),
    ("oracle", "search", "oracle.search"),
    ("certificates", "write_json", "certificates.write_json"),
    ("certificates", "read_json", "certificates.read_json"),
    ("certificates", "write_labeling", "certificates.write_labeling"),
    ("cli", "cmd_construct", "cli.construct"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_decompose", "cli.decompose"),
    ("cli", "cmd_search", "cli.search"),
]

# Sizes summed beside a span, from its arguments and result:
# span name -> (metric name, size).
MEASURES = {
    "decomp.develop": ("decomp.develop.bytes",
                       lambda args, out: out.development.nbytes),
    "kernels.count_pairs": ("kernels.count_pairs.pairs",
                            lambda args, out: args[0].shape[0]),
    "oracle.search": ("oracle.search.labelings", lambda args, out: out.count),
    "certificates.write_json": ("certificates.write_json.bytes",
                                lambda args, out: os.path.getsize(args[0])),
}


# (name, unit, better): what the traced run reports.  Counts, seconds and
# bytes are means per instance; peak_bytes is the largest tracemalloc peak
# of one verify_decomposition call; checks_per_labeling is the number of
# check_d_graceful calls made inside `construct` per labeling it writes.
LAYER_METRICS = [
    ("grids.edge_indices.calls", "count", "lower"),
    ("grids.edge_indices.s", "s", "lower"),
    ("grids.two_coloring.calls", "count", "lower"),
    ("grids.two_coloring.s", "s", "lower"),
    ("checking.check_d_graceful.calls", "count", "lower"),
    ("checking.check_d_graceful.s", "s", "lower"),
    ("checking.check_alpha.calls", "count", "lower"),
    ("checking.check_alpha.s", "s", "lower"),
    ("checking.checks_per_labeling", "ratio", "lower"),
    ("constructions.construct.self_s", "s", "lower"),
    ("constructions.prism_labeling.s", "s", "lower"),
    ("constructions.extend.calls", "count", "lower"),
    ("constructions.extend.self_s", "s", "lower"),
    ("constructions.seed_matches.calls", "count", "lower"),
    ("constructions.seed_matches.s", "s", "lower"),
    ("decomp.base_blocks.s", "s", "lower"),
    ("decomp.develop.s", "s", "lower"),
    ("decomp.develop.bytes", "bytes", "lower"),
    ("decomp.verify_decomposition.self_s", "s", "lower"),
    ("decomp.verify_decomposition.peak_bytes", "bytes", "lower"),
    ("decomp.check_difference_classes.s", "s", "lower"),
    ("kernels.count_pairs.s", "s", "lower"),
    ("kernels.count_pairs.pairs", "count", "lower"),
    ("kernels.dfs_search.calls", "count", "lower"),
    ("kernels.dfs_search.s", "s", "lower"),
    ("oracle.search.self_s", "s", "lower"),
    ("oracle.search.labelings", "count", "higher"),
    ("certificates.write_json.s", "s", "lower"),
    ("certificates.write_json.bytes", "bytes", "lower"),
    ("certificates.read_json.s", "s", "lower"),
    ("cli.construct.s", "s", "lower"),
    ("cli.construct.self_s", "s", "lower"),
    ("cli.verify.s", "s", "lower"),
    ("cli.verify.self_s", "s", "lower"),
    ("cli.decompose.s", "s", "lower"),
    ("cli.decompose.self_s", "s", "lower"),
    ("cli.search.s", "s", "lower"),
    ("cli.search.self_s", "s", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sizes: dict[str, int] = {}
        self.verify_peak = 0
        self._stack: list[int] = []
        self._instance: int | None = None
        self.instances = 0

    def install(self) -> None:
        """Wrap every target; divgrace and all its modules must be imported."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "divgrace" or name.startswith("divgrace.")]
        for module, attr, name in TARGETS:
            owner = sys.modules[f"divgrace.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        peak = name == "decomp.verify_decomposition"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._instance is None:
                return fn(*args, **kwargs)
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, 0.0, 0.0, self._instance]
            self.spans.append(span)
            self._stack.append(span[0])
            if peak:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                if peak:
                    self.verify_peak = max(self.verify_peak,
                                           tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if measure is not None:
                metric, size = measure
                self.sizes[metric] = self.sizes.get(metric, 0) + size(args, out)
            return out
        return wrapper

    @contextmanager
    def instance(self):
        """Record spans for one benchmark instance."""
        self._instance = self.instances
        try:
            yield
        finally:
            self._instance = None
            self.instances += 1

    def metrics(self) -> dict[str, float]:
        """LAYER_METRICS, as means per instance except the stated ratio and peak."""
        per = max(self.instances, 1)
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for _, parent, name, start, end, _ in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur
            if parent is not None:
                pname = self.spans[parent][2]
                self_s[pname] -= dur
        values: dict[str, float] = {}
        for _, _, name in TARGETS:
            values[f"{name}.calls"] = calls.get(name, 0) / per
            values[f"{name}.s"] = total.get(name, 0.0) / per
            values[f"{name}.self_s"] = self_s.get(name, 0.0) / per
        for metric, size in self.sizes.items():
            values[metric] = size / per
        in_construct = sum(1 for span in self.spans
                           if span[2] == "checking.check_d_graceful"
                           and self._under(span, "cli.construct"))
        written = calls.get("certificates.write_labeling", 0)
        values["checking.checks_per_labeling"] = in_construct / written if written else 0.0
        values["decomp.verify_decomposition.peak_bytes"] = float(self.verify_peak)
        return {name: values.get(name, 0.0) for name, _, _ in LAYER_METRICS}

    def _under(self, span, ancestor: str) -> bool:
        parent = span[1]
        while parent is not None:
            if self.spans[parent][2] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON rows [id, parent, name, start, end, instance]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
