"""One benchmark operation, in a fresh interpreter.

Usage::

    PYTHONPATH=src python3 perfbench/worker.py \
        '{"workload": "heap-270", "seed": 1, "mode": "op"}'

Modes:

* ``setup``  -- imports plus the set-up an operation does before its
  first simulated event; reports ``setup_s`` only.
* ``op``     -- the timed operation on the workload's own path (grid
  with two workers, shards in two processes).
* ``ref``    -- the same operation on the serial path (grid with one
  worker, the in-process shard driver); its digest is the reference.
* ``traced`` -- ``ref`` with every layer's entry points wrapped in spans.

The last line of stdout is one JSON object.  It always carries
``kernel_s``, the host-speed kernel's time in this process right after
the timed work (see hostspeed.py).  A fresh process per
operation is what makes ``peak_rss_mb`` mean something: ``ru_maxrss``
only ever grows, and the sample tables are O(N^2) memory.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from hostspeed import calibrate  # noqa: E402
from workloads import (GRID_JOBS, WORKLOADS, digest, grid_cells,  # noqa: E402
                       scenario_config)

clock = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of this operation
    (this one or a reaped worker); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def traffic_counters(events: int, stats) -> dict:
    return {
        "sim.events": events,
        "net.network.datagrams": stats.sent,
        "net.network.bytes": stats.bytes_sent,
        "net.delivered": stats.delivered,
        "net.dropped": stats.lost + stats.dropped_queue + stats.dropped_dead,
        "net.dropped_dead": stats.dropped_dead,
    }


def build_counters(builds) -> dict:
    """Work counters summed over finished builds.  A shard's build holds
    replicas of the nodes it does not own; only owned nodes count."""
    from repro.net.stats import NetworkStats

    stats = NetworkStats()
    events = messages = entries = 0
    for build in builds:
        events += build.sim.events_executed
        stats.merge_from(build.net.stats)
        owned = getattr(build.net.router, "owned", None)
        for node_id, node in enumerate(build.nodes):
            aggregator = getattr(node, "aggregator", None)
            if aggregator is None or (owned is not None and node_id not in owned):
                continue
            messages += aggregator.messages_received
            entries += aggregator.sample_count()
    counters = traffic_counters(events, stats)
    counters.update({"core.aggregation.messages": messages,
                     "core.aggregation.table_entries": entries})
    return counters


# ----------------------------------------------------------------------
# single scenario: build + simulate + summarize + digest, in-process
# ----------------------------------------------------------------------
def scenario_setup(workload: str, seed: int) -> None:
    from repro.experiments.runner import build_scenario

    build_scenario(scenario_config(workload, seed))


def scenario_op(workload: str, seed: int) -> dict:
    from repro.experiments.runner import build_scenario
    from repro.metrics import summary

    config = scenario_config(workload, seed)
    started = clock()
    build = build_scenario(config)
    built = clock()
    build.sim.run(until=config.end_time)
    simulated = clock()
    # Looked up through the module so a traced pass sees the wrapper.
    summaries = summary.summarize(build.result(), summary.standard_bundle())
    out = {"digest": digest(summaries), "counters": build_counters([build])}
    out["wall_s"] = clock() - started
    out["sim_s"] = simulated - built
    return out


# ----------------------------------------------------------------------
# scenario x seed grid through the parallel engine
# ----------------------------------------------------------------------
def _noop(payload):
    return payload


def grid_setup(seed: int) -> None:
    """Imports, the grid's configs, a started two-worker pool (one
    round trip per worker) and the first cell's build."""
    from repro.experiments.runner import build_scenario
    from repro.faults.pool import SupervisedPool

    configs, seeds = grid_cells(seed)
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    with SupervisedPool(multiprocessing.get_context(method), GRID_JOBS,
                        _noop) as pool:
        for outcome in pool.run([(i, i) for i in range(GRID_JOBS)]):
            if outcome[0] != "ok":
                raise RuntimeError(f"pool start failed: {outcome}")
    build_scenario(configs[0].with_(seed=seeds[0]))


def grid_op(seed: int, jobs: int) -> dict:
    from repro.experiments.parallel import run_grid
    from repro.metrics.summary import standard_bundle

    configs, seeds = grid_cells(seed)
    started = clock()
    grid = run_grid(configs, seeds, metrics={}, jobs=jobs,
                    summaries=standard_bundle())
    value = digest([grid.determinism_keys(), grid.summary_keys()])
    wall = clock() - started
    records = [r for r in grid.records if r is not None]
    cell_walls = [r.wall_time for r in records]
    return {
        "wall_s": wall,
        "sim_s": sum(cell_walls),
        "digest": value,
        "counters": {"sim.events": sum(r.events_executed for r in records),
                     "experiments.parallel.cells": len(records)},
        "cell_walls": cell_walls,
        "jobs": jobs,
        "cell_failures": len(grid.failures),
        "cell_retries": grid.cell_retries,
    }


# ----------------------------------------------------------------------
# one 1000-node scenario across two shards
# ----------------------------------------------------------------------
def sharded_setup(seed: int) -> None:
    """Imports, two started shard processes with their builds, and the
    first lookahead window (the shard driver exposes no earlier point)."""
    from repro.net.shard import run_sharded

    config = scenario_config("sharded-1000", seed)
    run_sharded(config, until=config.latency_floor, processes=True)


def sharded_op(seed: int, processes: bool) -> dict:
    from repro.metrics.summary import standard_bundle, summarize
    from repro.net.shard import run_sharded, window_count

    config = scenario_config("sharded-1000", seed)
    started = clock()
    result = run_sharded(config, processes=processes)
    simulated = clock()
    summaries = summarize(result, standard_bundle())
    stats = result.net.stats
    counters = traffic_counters(result.sim.events_executed, stats)
    windows = window_count(config)
    counters.update({
        "net.shard.windows": windows,
        "net.shard.wire_bytes": stats.wire_bytes,
        "net.shard.wire_envelopes": stats.wire_envelopes,
        "net.shard.wire_buffers": stats.wire_buffers,
    })
    out = {"digest": digest(summaries), "counters": counters}
    out["wall_s"] = clock() - started
    out["sim_s"] = simulated - started
    return out


# ----------------------------------------------------------------------
def operation(workload: str, seed: int, parallel: bool) -> dict:
    """The workload's operation on its parallel or its serial path."""
    kind = WORKLOADS[workload]
    if kind == "grid":
        return grid_op(seed, jobs=GRID_JOBS if parallel else 1)
    if kind == "sharded":
        return sharded_op(seed, processes=parallel)
    return scenario_op(workload, seed)


def run_traced(workload: str, seed: int) -> dict:
    """The serial path with spans.  Builds made inside the program (grid
    cells, shards) are kept, so their work counters can be read after
    the run."""
    from repro.experiments import runner
    from tracing import Tracer

    builds = []
    build_scenario = runner.build_scenario

    def keep(*args, **kwargs):
        build = build_scenario(*args, **kwargs)
        builds.append(build)
        return build

    runner.build_scenario = keep
    try:
        with Tracer() as tracer:
            out = operation(workload, seed, parallel=False)
    finally:
        runner.build_scenario = build_scenario
    out["counters"].update(build_counters(builds))
    out["layers"] = tracer.layers()
    out["partition_error"] = tracer.partition_error("sim")
    return out


def main(request: dict) -> dict:
    workload, seed, mode = request["workload"], request["seed"], request["mode"]
    kind = WORKLOADS[workload]
    if mode == "setup":
        if kind == "grid":
            grid_setup(seed)
        elif kind == "sharded":
            sharded_setup(seed)
        else:
            scenario_setup(workload, seed)
        out = {"setup_s": clock() - STARTED}
    else:
        if mode == "traced":
            out = run_traced(workload, seed)
        else:
            out = operation(workload, seed, parallel=(mode == "op"))
        out["peak_rss_mb"] = peak_rss_mb()
    # Right after the timed work, in the same process, so on the same CPU
    # at nearly the same moment (see hostspeed.py).
    out["kernel_s"] = calibrate()
    return out


if __name__ == "__main__":
    try:
        reply = main(json.loads(sys.argv[1]))
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        sys.exit(3)
    print(json.dumps(reply))
