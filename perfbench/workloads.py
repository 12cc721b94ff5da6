"""The benchmark's workloads: inputs made from a seed, and the digest.

Every workload is a closed loop: one operation at a time, from one
process, with at most two workers.  The program is handed only the
:class:`ScenarioConfig` values built here; their seeds are derived from
the benchmark's ``--seed``, so the same seed gives the same inputs.

This module imports the program lazily, inside each function, so the
benchmark's coordinator can read the workload table without it and a
worker can time the imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json

#: workload name -> kind ("scenario", "grid" or "sharded").
WORKLOADS = {
    "heap-270": "scenario",
    "standard-270": "scenario",
    "grid-quick": "grid",
    "sharded-1000": "sharded",
}

#: The seed whose digests and counters are pinned in pins.json.
DEFAULT_SEED = 1

#: Worker processes of the grid workload (the measuring host's CPU count).
GRID_JOBS = 2
#: Seeds per grid scenario.
GRID_SEEDS = 4

#: Stream lengths.  The paper-scale scenarios run 2 s of stream and 2 s
#: of drain after a 6 s aggregation warm-up: the warm-up fills the
#: sample tables to most of the population, which is where HEAP's
#: per-message cost lies, while the stream stays short enough for
#: several operations per run.  The 1000-node run is 75 windows of the
#: 0.04 s lookahead.
PAPER = dict(n_nodes=270, stream_start=6.0, duration=2.0, drain=2.0)
GRID = dict(n_nodes=50, duration=1.0, drain=1.0)
SHARDED = dict(n_nodes=1000, duration=0.5, drain=1.0, stream_start=1.5,
               latency_rng="per-pair", latency_floor=0.04, shards=2)


def derived_seed(stream: str, seed: int, index: int = 0) -> int:
    """A scenario seed in [1, 2**31) that depends only on its arguments."""
    raw = hashlib.sha256(f"{stream}/{seed}/{index}".encode()).digest()
    return int.from_bytes(raw[:4], "big") % (2 ** 31 - 1) + 1


def scenario_config(workload: str, seed: int):
    """The single ScenarioConfig of a scenario or sharded workload."""
    from repro.workloads import REF_691, ScenarioConfig

    if workload == "sharded-1000":
        return ScenarioConfig(name=workload, protocol="heap",
                              distribution=REF_691,
                              seed=derived_seed(workload, seed), **SHARDED)
    # Both paper-scale workloads share one population, distribution and
    # stream, so they differ only in the protocol.
    protocol = {"heap-270": "heap", "standard-270": "standard"}[workload]
    return ScenarioConfig(name=workload, protocol=protocol,
                          distribution=REF_691,
                          seed=derived_seed("paper-270", seed), **PAPER)


def grid_cells(seed: int):
    """(configs, seeds) of the grid workload: 3 distributions x 2
    protocols x GRID_SEEDS seeds at the quick-scale population."""
    from repro.workloads import MS_691, REF_691, REF_724, ScenarioConfig

    configs = [ScenarioConfig(name=f"{protocol}-{dist.name}",
                              protocol=protocol, distribution=dist, **GRID)
               for dist in (REF_691, REF_724, MS_691)
               for protocol in ("heap", "standard")]
    seeds = [derived_seed("grid-quick", seed, i) for i in range(GRID_SEEDS)]
    return configs, seeds


def digest(value) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
