"""Checks of the benchmark itself.

Run with ``python3 perfbench/selfcheck.py`` (or name this file to
pytest).  It is not a tier-1 test: the seed check runs every workload's
serial and parallel paths, which takes about a minute.

* ``test_trace_*`` trace tiny scenarios in-process: the layer self
  times partition the ``Simulator.run`` spans, tracing leaves the
  summary digest unchanged, and the aggregation layer is silent under
  standard gossip.
* ``test_second_seed`` runs each workload at a second seed: the serial
  and parallel paths agree on digest and work counters, and the
  counters differ from the pinned ones of the default seed, which the
  default seed still reproduces.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from run import Run, load_json  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

SECOND_SEED = 2
TINY = dict(n_nodes=30, duration=1.0, drain=1.0, seed=5)


def _digest(result) -> str:
    from repro.metrics.summary import standard_bundle, summarize

    return digest(summarize(result, standard_bundle()))


def _traced(run, config):
    """(untraced digest, traced digest, tracer) of ``run(config)``."""
    plain = _digest(run(config))
    with Tracer() as tracer:
        traced = _digest(run(config))
    return plain, traced, tracer


def _check_partition(tracer: Tracer) -> None:
    assert tracer.partition_error("sim") < 0.01
    assert min(tracer.self_times()) >= -1e-9


def test_trace_scenario() -> None:
    from repro.experiments.runner import run_scenario
    from repro.workloads import ScenarioConfig

    for protocol in ("heap", "standard"):
        config = ScenarioConfig(protocol=protocol, **TINY)
        plain, traced, tracer = _traced(run_scenario, config)
        assert plain == traced, protocol
        _check_partition(tracer)
        layers = tracer.layers()
        aggregation = layers["core.aggregation"]
        if protocol == "standard":
            assert aggregation["calls"] == 0 and aggregation["self_s"] == 0.0
            assert layers["core.fanout"]["calls"] == 0
        else:
            assert aggregation["calls"] > 0 and aggregation["self_s"] > 0.0
        for layer in ("sim", "net.network", "net.router", "core.gossip",
                      "membership", "metrics"):
            assert layers[layer]["calls"] > 0, (protocol, layer)


def test_trace_sharded() -> None:
    from functools import partial

    from repro.net.shard import run_sharded
    from repro.workloads import ScenarioConfig

    config = ScenarioConfig(protocol="heap", shards=2, latency_rng="per-pair",
                            latency_floor=0.04, **TINY)
    plain, traced, tracer = _traced(partial(run_sharded, processes=False),
                                    config)
    assert plain == traced
    _check_partition(tracer)
    layers = tracer.layers()
    for layer in ("net.shard.pack", "net.shard.decode", "net.shard.merge"):
        assert layers[layer]["calls"] > 0, layer


def test_second_seed() -> None:
    pins = load_json(os.path.join(HERE, "pins.json"))
    for workload in WORKLOADS:
        run = Run(workload, SECOND_SEED, 0.0, pins)
        for mode in ("ref", "op"):
            run.operation(mode)
        assert not run.failures, (workload, run.failures)
        pinned = pins[workload]["counters"]
        assert run.reference["digest"] != pins[workload]["digest"], workload
        assert run.reference["counters"]["sim.events"] != pinned["sim.events"], \
            workload
        default = Run(workload, DEFAULT_SEED, 0.0, pins)
        default.operation("ref")
        assert not default.failures, (workload, default.failures)


if __name__ == "__main__":
    for check in (test_trace_scenario, test_trace_sharded, test_second_seed):
        check()
        print(f"ok  {check.__name__}")
