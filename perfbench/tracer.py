"""Layer tracing for the traced benchmark pass.

The tracer wraps public functions of the girthcover modules from outside the
library: a module-level function is replaced in every girthcover module that
binds it (so ``girth_scan`` is wrapped where ``graph`` looks it up, and
``solve_shift_q`` where ``partition`` does); a method is replaced on its
class.  Nothing inside ``src/`` is edited.

Each wrapped call measures its duration, and the time covered by wrapped
calls made inside it is subtracted to give its self time (``busy_s``).  The
pass is single-threaded, so child calls never overlap.  Calls of layers that
run fewer than about 10^4 times per pass are also kept as spans (id, parent
id, layer, start, end) in memory and returned at the end; the hot layers
(``solve_shift_*``, ``CompleteCoverLocator.locate``) only add to their
layer's count and time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

_perf = time.perf_counter


def _tree_bytes(directory) -> int:
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# Counters, each computed from a wrapped call's arguments and return value
# and keyed by the metric name it is reported under.
def _count_scan(c, args, kwargs, result):
    # girth_scan(indptr, indices, n, cap); each edge appears twice in indices
    c["kernels.girth_scan.vertices"] += int(args[2])
    c["kernels.girth_scan.edges"] += len(args[1]) // 2


def _count_graph(c, args, kwargs, result):
    c["graph.Graph.edges"] += args[0].m  # args[0] is the constructed Graph


def _count_write_edges(c, args, kwargs, result):
    c["graph.write_edge_list.bytes"] += os.path.getsize(args[1])


def _count_read_edges(c, args, kwargs, result):
    c["graph.read_edge_list.bytes"] += os.path.getsize(args[0])


def _count_verify(c, args, kwargs, result):
    c["partition.verify_partition.parts"] += len(args[0].parts)


def _count_manifest(c, args, kwargs, result):
    c["partition.manifest.bytes"] += _tree_bytes(os.path.dirname(result))


def _count_decompose(c, args, kwargs, result):
    c["rainbow.rounds"] += len(result.rounds)


def _count_rainbow(c, args, kwargs, result):
    c["rainbow.retained_edges"] += result.retained.m
    c["rainbow.host_edges"] += result.host.m


# (layer, owner, attribute, keep spans, counter).  ``owner`` is a module
# name for functions or "module:Class" for methods.  Several targets may
# share one layer.
TARGETS = [
    ("kernels.girth_scan", "girthcover._kernels", "girth_scan", True, _count_scan),
    ("graph.Graph", "girthcover.graph:Graph", "__init__", True, _count_graph),
    ("graph.girth", "girthcover.graph:Graph", "girth", True, None),
    ("graph.girth", "girthcover.graph:Graph", "girth_exceeds", True, None),
    ("graph.has_cycle_of_length", "girthcover.graph:Graph", "has_cycle_of_length", True, None),
    ("graph.degeneracy_peel", "girthcover.graph", "degeneracy_peel", True, None),
    ("graph.forest_decompose", "girthcover.graph", "forest_decompose", True, None),
    ("graph.write_edge_list", "girthcover.graph", "write_edge_list", True, _count_write_edges),
    ("graph.read_edge_list", "girthcover.graph", "read_edge_list", True, _count_read_edges),
    ("algebraic.build", "girthcover.algebraic", "build_quadrangle", True, None),
    ("algebraic.build", "girthcover.algebraic", "build_hexagon", True, None),
    ("algebraic.solve_shift", "girthcover.algebraic", "solve_shift_q", False, None),
    ("algebraic.solve_shift", "girthcover.algebraic", "solve_shift_h", False, None),
    ("partition.cover_complete", "girthcover.partition", "cover_complete", True, None),
    ("partition.locate", "girthcover.partition:CompleteCoverLocator", "locate", False, None),
    ("partition.is_exact", "girthcover.partition:EdgePartition", "is_exact", True, None),
    ("partition.verify_partition", "girthcover.partition", "verify_partition", True, _count_verify),
    ("partition.write_manifest", "girthcover.partition", "write_manifest", True, _count_manifest),
    ("partition.read_manifest", "girthcover.partition", "read_manifest", True, None),
    ("rainbow.decompose", "girthcover.rainbow", "decompose", True, _count_decompose),
    ("rainbow.rainbow_color", "girthcover.rainbow", "rainbow_color", True, _count_rainbow),
    ("rainbow.pullback_partition", "girthcover.rainbow", "pullback_partition", True, None),
]


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Layer:
    __slots__ = ("calls", "total_s", "busy_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.busy_s = 0.0
        self.counters = _Counters()


class Tracer:
    """Wraps the TARGETS on ``install``; the pass process never unwraps."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple] = []
        self._stack = [[0.0, 0]]  # [child seconds, span id] per open call
        self._next_id = 1

    def _wrap(self, fn, layer_name, keep_span, counter):
        layer = self.layers.setdefault(layer_name, Layer())
        counters = layer.counters
        stack = self._stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            parent_id = stack[-1][1]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                layer.calls += 1
                layer.total_s += dur
                layer.busy_s += dur - frame[0]
                if keep_span:
                    spans.append((span_id, parent_id, layer_name, t0, t1))
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "girthcover" or name.startswith("girthcover."))]
        for layer_name, owner, attr, keep_span, counter in TARGETS:
            module_name, _, class_name = owner.partition(":")
            if class_name:
                cls = getattr(sys.modules[module_name], class_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, layer_name, keep_span, counter))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(original, layer_name, keep_span, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)

    def report(self) -> dict:
        """Flat metric name -> value: calls, self and total seconds, counters."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy_s
            out[f"{name}.total_s"] = layer.total_s
            out.update(layer.counters)
        return out
