"""Span tracing for the benchmark's traced pass.

The program has no spans of its own yet, so this module records them
from outside: :meth:`Tracer.install` replaces each layer's entry points, at
class or module level, with a wrapper that records one span per call.
It must run before the scenario is built, because nodes, timers and
dispatch tables capture bound methods at construction time.

Spans are kept in memory as parallel arrays (name, parent, start, end)
and reduced once the operation has finished.  A span's *self time* is
its duration minus the durations of its direct children, so the self
times of every span under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Dict, List, Tuple

#: (module, class or None for a module-level function, attribute, layer).
#: The layer names are the per-layer metric prefixes of BENCHMARK.json.
ENTRY_POINTS: Tuple[Tuple[str, object, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.net.network", "Network", "send", "net.network"),
    ("repro.net.network", "Network", "send_many", "net.network"),
    ("repro.net.router", "InprocRouter", "deliver_bucket", "net.router"),
    ("repro.core.base", "GossipNode", "_handle_propose", "core.gossip"),
    ("repro.core.base", "GossipNode", "_handle_request", "core.gossip"),
    ("repro.core.base", "GossipNode", "_handle_serve", "core.gossip"),
    ("repro.core.base", "GossipNode", "_on_gossip_tick", "core.gossip"),
    ("repro.core.aggregation", "CapabilityAggregator", "on_message",
     "core.aggregation"),
    ("repro.core.aggregation", "CapabilityAggregator", "_gossip",
     "core.aggregation"),
    ("repro.core.heap", "HeapGossipNode", "get_fanout", "core.fanout"),
    ("repro.membership.view", "LocalView", "sample", "membership"),
    ("repro.net.shard", "ShardRouter", "take_outboxes", "net.shard.pack"),
    ("repro.net.shard", "ShardRouter", "inject", "net.shard.decode"),
    ("repro.net.shard", None, "merge_harvests", "net.shard.merge"),
    # summarize is looked up through both modules: the benchmark calls
    # it from repro.metrics.summary, grid cells from the parallel engine.
    ("repro.metrics.summary", None, "summarize", "metrics"),
    ("repro.experiments.parallel", None, "summarize", "metrics"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p[3] for p in ENTRY_POINTS))


class Tracer:
    """In-memory span recorder; one per traced operation."""

    def __init__(self) -> None:
        self.layer_ids: Dict[str, int] = {name: i for i, name in enumerate(LAYERS)}
        self.names = array("B")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, fn, layer: str):
        """``fn`` with a span of ``layer`` around every call."""
        layer_id = self.layer_ids[layer]
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`.

        Every original is resolved before the first one is replaced: a
        module imported after a patch would otherwise bind the wrapper
        and get wrapped twice.
        """
        targets = []
        for module_name, class_name, attr, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            targets.append((owner, attr, getattr(owner, attr), layer))
        for owner, attr, original, layer in targets:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [ends[i] - starts[i] for i in range(len(starts))]
        child = [0.0] * len(own)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += own[i]
        return [d - c for d, c in zip(own, child)]

    def layers(self) -> Dict[str, Dict[str, float]]:
        """layer -> {"calls", "self_s", "incl_s"}.

        ``incl_s`` counts only outermost spans of the layer, so that a
        re-entrant layer is not counted twice.
        """
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
               for name in LAYERS}
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        for i, self_s in enumerate(self.self_times()):
            entry = out[LAYERS[names[i]]]
            entry["calls"] += 1
            entry["self_s"] += self_s
            if parents[i] < 0 or names[parents[i]] != names[i]:
                entry["incl_s"] += ends[i] - starts[i]
        return out

    def partition_error(self, root_layer: str = "sim") -> float:
        """How far the self times under ``root_layer`` roots miss the
        roots' total duration, as a share of it (0 for a partition)."""
        root_id = self.layer_ids[root_layer]
        parents, names = self.parents, self.names
        root_of = [-1] * len(parents)
        total = 0.0
        covered = 0.0
        for i, self_s in enumerate(self.self_times()):
            parent = parents[i]
            root_of[i] = i if parent < 0 else root_of[parent]
            root = root_of[i]
            if names[root] != root_id:
                continue
            covered += self_s
            if root == i:
                total += self.ends[i] - self.starts[i]
        if total <= 0:
            raise ValueError(f"no {root_layer} root span was recorded")
        return abs(covered - total) / total
