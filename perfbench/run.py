"""Repository benchmark: HEAP and standard gossip at paper scale, the
quick-scale figure grid and a 2-shard 1000-node run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload heap-270 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both passes

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a separate traced pass.  A human-readable table of
every metric, with its unit, goes to stderr.  Each operation runs in a
fresh interpreter (see worker.py); this coordinator only starts them,
checks their outputs and reduces their timings.  See README.md for the
workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fewest timed operations per run, however long they take.
MIN_OPS = 3
#: Set-up-only processes per run; setup_s is their median.
SETUP_REPS = 5
#: A run that would take longer stops without printing a result.
RUN_LIMIT_S = 170.0
#: Longest wait for killed stragglers of a worker to disappear.
END_GROUP_WAIT_S = 5.0
#: stderr line the shard driver prints when it restarts a scenario.
SHARD_RESTART_LINE = "shard supervision:"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run at all (no result is printed)."""


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def median(values):
    return statistics.median(values) if values else 0.0


def end_group(pgid: int) -> None:
    """Kill every process of group ``pgid`` and wait, at most
    ``END_GROUP_WAIT_S``, until none is left (a killed process nobody
    reaps stays listed)."""
    deadline = time.monotonic() + END_GROUP_WAIT_S
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


class Run:
    """One benchmark run: the child processes it started, what they
    reported, and every check that failed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 pins: dict) -> None:
        self.workload = workload
        self.kind = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list = []
        self.stderr: list = []
        self.reference = None
        self.cell_failures = 0
        self.cell_retries = 0
        #: Digest and counters of the default seed, pinned per workload.
        self.pin = pins.get(workload) if seed == DEFAULT_SEED else None

    # ------------------------------------------------------------------
    def child(self, mode: str):
        """Run one worker; its reply, or None if it failed."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchmarkError(f"{self.workload}: out of time before {mode}")
        request = json.dumps({"workload": self.workload, "seed": self.seed,
                              "mode": mode})
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), request],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"{self.workload}: {mode} ran out of time")
        finally:
            # Workers reap their own pools and shards; this ends any
            # process of the session that outlived its parent.
            end_group(proc.pid)
        self.attempted += 1
        self.stderr.append(err)
        lines = out.strip().splitlines()
        try:
            reply = json.loads(lines[-1])
        except (IndexError, ValueError):
            reply = {"error": f"exit code {proc.returncode}, no reply\n{err}"}
        if "error" in reply:
            self.fail(f"{mode} failed:\n{reply['error']}")
            return None
        return reply

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # ------------------------------------------------------------------
    def check(self, mode: str, reply) -> bool:
        """Compare an operation's digest and counters with the reference
        (the first serial-path reply of this run), and the reference with
        the pins of the default seed."""
        if reply is None:
            return False
        self.cell_failures += reply.get("cell_failures", 0)
        self.cell_retries += reply.get("cell_retries", 0)
        if reply.get("cell_failures"):
            self.fail(f"{mode}: {reply['cell_failures']} grid cells failed")
            return False
        if self.reference is None:
            self.reference = reply
            return self.pin is None or self._matches(mode, "pinned", self.pin,
                                                     reply)
        return self._matches(mode, "serial path's", self.reference, reply)

    def _matches(self, mode: str, source: str, expected: dict, reply) -> bool:
        if reply["digest"] != expected["digest"]:
            self.fail(f"{mode}: digest {reply['digest']} differs from the "
                      f"{source} {expected['digest']}")
            return False
        got = reply["counters"]
        diff = {k: (v, got.get(k)) for k, v in expected["counters"].items()
                if got.get(k) != v}
        if diff:
            self.fail(f"{mode}: work counters differ from the {source} "
                      f"(expected, got): {diff}")
            return False
        return True

    def operation(self, mode: str):
        reply = self.child(mode)
        return reply if self.check(mode, reply) else None

    def fault_metrics(self) -> dict:
        """Supervision and failure counts, reported even by a failed run."""
        return {
            "faults.cell_failures": self.cell_failures,
            "faults.cell_retries": self.cell_retries,
            "faults.shard_restarts": sum(err.count(SHARD_RESTART_LINE)
                                         for err in self.stderr),
            "failed_fraction": len(self.failures) / max(self.attempted, 1),
        }


# ----------------------------------------------------------------------
def scaled(replies: list, key: str) -> list:
    """``key`` of each reply at the reference host speed: scaled by the
    kernel time the same process took right after it (see hostspeed.py)."""
    return [r[key] * REFERENCE_S / r["kernel_s"] for r in replies]


def end_to_end(run: Run) -> dict:
    """Untraced pass: wall_s, setup_s and peak_rss_mb."""
    if run.kind != "scenario" and run.operation("ref") is None:
        return {}
    ops = []
    deadline = time.monotonic() + run.seconds
    while len(ops) < MIN_OPS or time.monotonic() < deadline:
        reply = run.operation("op")
        if reply is None:
            return {}
        ops.append(reply)
    setups = [r for r in (run.child("setup") for _ in range(SETUP_REPS))
              if r is not None]

    def show(replies: list, key: str) -> str:
        return ", ".join(f"{r[key]:.3f}/{r['kernel_s']:.3f}" for r in replies)

    print(f"# {run.workload}: {len(ops)} operations, raw wall/kernel "
          f"{show(ops, 'wall_s')} s; {len(setups)} set-ups, raw setup/kernel "
          f"{show(setups, 'setup_s')} s", file=sys.stderr)
    return {
        "wall_s": median(scaled(ops, "wall_s")),
        "setup_s": median(scaled(setups, "setup_s")),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ops]),
    }


def per_layer(run: Run) -> dict:
    """Traced pass: per-layer metrics from spans and work counters.

    A round is the serial path untraced (for scenario workloads that is
    the operation itself), the serial path traced, and, for the grid
    and the shards, the parallel operation untraced.
    """
    serial, traced, parallel = [], [], []
    deadline = time.monotonic() + run.seconds
    while not traced or time.monotonic() < deadline:
        reply = run.operation("op" if run.kind == "scenario" else "ref")
        if reply is None:
            break
        serial.append(reply)
        reply = run.operation("traced")
        if reply is None:
            break
        if reply["partition_error"] > 0.01:
            run.fail(f"traced: layer self times miss the Simulator.run "
                     f"spans by {reply['partition_error']:.2%}")
        traced.append(reply)
        if run.kind != "scenario":
            reply = run.operation("op")
            if reply is None:
                break
            parallel.append(reply)
    if run.failures or not traced:
        return {}

    def layer(name: str, field: str) -> float:
        return median([t["layers"][name][field] for t in traced])

    counters = dict(traced[0]["counters"])
    counters.update(serial[0]["counters"])
    events = counters["sim.events"]
    buckets = layer("net.router", "calls")
    m = {
        "sim.events": events,
        "sim.self_s": layer("sim", "self_s"),
        "sim.events_per_s": events / median([r["sim_s"] for r in serial]),
        "net.network.send_calls": layer("net.network", "calls"),
        "net.network.datagrams": counters["net.network.datagrams"],
        "net.network.bytes": counters["net.network.bytes"],
        "net.network.self_s": layer("net.network", "self_s"),
        "net.router.buckets": buckets,
        "net.router.envelopes_per_bucket":
            (counters["net.delivered"] + counters["net.dropped_dead"])
            / buckets if buckets else 0.0,
        "net.router.self_s": layer("net.router", "self_s"),
        "net.dropped": counters["net.dropped"],
        "core.gossip.handler_calls": layer("core.gossip", "calls"),
        "core.gossip.self_s": layer("core.gossip", "self_s"),
        "core.aggregation.messages": counters["core.aggregation.messages"],
        "core.aggregation.self_s": layer("core.aggregation", "self_s"),
        "core.aggregation.table_entries":
            counters["core.aggregation.table_entries"],
        "core.fanout.calls": layer("core.fanout", "calls"),
        "core.fanout.self_s": layer("core.fanout", "self_s"),
        "membership.sample_calls": layer("membership", "calls"),
        "membership.self_s": layer("membership", "self_s"),
        "metrics.summarize_s": layer("metrics", "incl_s"),
        "experiments.parallel.cells": 0,
        "experiments.parallel.cell_wall_s": 0.0,
        "experiments.parallel.efficiency": 0.0,
        "experiments.parallel.overhead_s": 0.0,
        "net.shard.windows": counters.get("net.shard.windows", 0),
        "net.shard.wire_bytes": counters.get("net.shard.wire_bytes", 0),
        "net.shard.wire_envelopes": counters.get("net.shard.wire_envelopes", 0),
        "net.shard.wire_buffers": counters.get("net.shard.wire_buffers", 0),
        "net.shard.bytes_per_window": 0.0,
        "net.shard.compute_s": 0.0,
        "net.shard.pack_s": layer("net.shard.pack", "self_s"),
        "net.shard.decode_s": layer("net.shard.decode", "self_s"),
        "net.shard.merge_s": layer("net.shard.merge", "incl_s"),
        "net.shard.speedup": 0.0,
        # Ratios of the same round: the host's speed drifts between rounds.
        "trace.overhead": median([t["wall_s"] / r["wall_s"]
                                  for r, t in zip(serial, traced)]),
    }
    if run.kind == "grid" and parallel:
        m["experiments.parallel.cells"] = counters["experiments.parallel.cells"]
        m["experiments.parallel.cell_wall_s"] = median(
            [w for r in parallel for w in r["cell_walls"]])
        m["experiments.parallel.efficiency"] = median(
            [sum(r["cell_walls"]) / (r["jobs"] * r["wall_s"]) for r in parallel])
        m["experiments.parallel.overhead_s"] = median(
            [r["wall_s"] - sum(r["cell_walls"]) / r["jobs"] for r in parallel])
    if run.kind == "sharded" and parallel:
        m["net.shard.bytes_per_window"] = (m["net.shard.wire_bytes"]
                                           / m["net.shard.windows"])
        m["net.shard.compute_s"] = layer("sim", "incl_s")
        m["net.shard.speedup"] = median([r["wall_s"] / p["wall_s"]
                                         for r, p in zip(serial, parallel)])
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict, pins: dict) -> dict:
    """One run; the result object printed as the last stdout line."""
    run = Run(workload, seed, seconds, pins)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(run) if trace else end_to_end(run)
    correct = not run.failures and bool(values)
    if trace:
        values.update(run.fault_metrics())
    for message in run.failures:
        print(f"# FAILED {workload}: {message}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{workload:14s} {name:34s} {metric['value']:>16.6g} "
              f"{metric['unit']}", file=sys.stderr)
    return {"correct": correct,
            "attempted": max(run.attempted, 1),
            "failed": len(run.failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"the program's sources are missing: no {SRC}/repro")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(os.path.join(HERE, "pins.json"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all":
        result = measure(args.workload, args.seed, seconds, bool(args.trace),
                         spec, pins)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            ok &= measure(workload, args.seed, seconds, trace, spec,
                          pins)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
