"""Pluggable fault-simulation backends and deterministic fault sharding.

The dispatch layer decouples *what* is simulated (the PPSFP kernel in
:mod:`repro.sim.faultsim`) from *how the fault universe is scheduled*:

* :class:`SerialBackend` — the textbook one-fault/one-pattern engine.
* :class:`PpsfpBackend` — single-process bit-parallel PPSFP.
* ``pool`` and ``supervised`` — the multiprocess runner of
  :mod:`repro.sim.supervisor`.  The collapsed fault list is partitioned
  here, deterministically (seeded shuffle of whole fanout-free regions,
  each placed on the least-loaded shard; partition count independent of
  worker count); the good-machine response is computed once in the
  parent, and each forked worker runs PPSFP over its partition against
  that response.  Partial results are
  min-merged here, so first-detecting-pattern semantics survive sharding
  and the outcome is bit-identical to PPSFP for any number of workers.

:func:`get_backend` is the one registry: ``FaultSimulator.simulate``
and the ``--backend`` CLI flag both resolve names through it.

Accelerator-scale fault universes (Sadi & Guin's yield-loss setting, the
tutorial's E3/E4 experiments) are only tractable when the universe is
sharded this way: faults are embarrassingly parallel once the good
machine is shared, and fault dropping still works because each fault's
lifetime is confined to one partition.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

from ..circuit.netlist import Netlist
from ..faults.model import StuckAtFault
from ..obs import MetricRegistry
from .faultsim import FaultSimResult, FaultSimulator, _unique

#: Backend names accepted by ``FaultSimulator.simulate(engine=...)`` and the
#: ``--backend`` CLI flag.  ``supervised`` is the fault-tolerant pool
#: (see :mod:`repro.sim.supervisor`).
BACKEND_NAMES = ("serial", "ppsfp", "pool", "supervised")


def validate_pool_args(
    jobs: Optional[int] = None,
    seed: int = 0,
    partitions: Optional[int] = None,
) -> None:
    """Reject nonsensical pool arguments with actionable messages.

    ``jobs`` and ``partitions`` must be positive when given (``None``
    means "pick automatically"); ``seed`` must be a non-negative int so
    the partitioning shuffle is reproducible across documentation and
    shard stores.
    """
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if partitions is not None and (not isinstance(partitions, int) or partitions < 1):
        raise ValueError(f"partitions must be a positive integer, got {partitions!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

#: Target faults per pool partition.  The partition count derives from the
#: universe size alone (never from the worker count), so the shard
#: boundaries — and therefore the merged result — are reproducible on any
#: machine.
DEFAULT_PARTITION_FAULTS = 256

#: Lower bound on partitions for non-trivial universes, so small fault
#: lists still feed several workers.
MIN_PARTITIONS = 8


def default_partition_count(n_faults: int) -> int:
    """Deterministic partition count for ``n_faults`` collapsed faults."""
    if n_faults == 0:
        return 0
    by_size = math.ceil(n_faults / DEFAULT_PARTITION_FAULTS)
    return min(n_faults, max(MIN_PARTITIONS, by_size))


#: Identity of the sharding rule below, recorded in every
#: :class:`~repro.sim.store.CampaignKey`: stores written under another
#: rule (e.g. per-fault shards) hold different partitions and must be
#: refused, not merged.
SHARDING_SCHEME = "ffr"


def partition_faults(
    faults: Sequence[StuckAtFault],
    n_partitions: int,
    seed: int = 0,
    region: Optional[Callable[[StuckAtFault], Hashable]] = None,
) -> List[List[StuckAtFault]]:
    """Shard ``faults`` into ``n_partitions`` deterministic partitions.

    ``region`` maps a fault to its group — the runner passes
    :meth:`FaultSimulator.fault_region`, so every fault of one
    fanout-free region lands in one shard and the shards' work counters
    sum exactly to the single-process run's (a region's stem is
    propagated once per word for all of its faults).  Without it each
    fault is its own group.  A seeded shuffle of the groups spreads
    structurally adjacent logic across partitions; each group then goes
    whole to the least-loaded partition (lowest index on ties), which
    for single-fault groups is round-robin.  Given the same seed and
    partition count the shards are identical on every run and every
    worker count.
    """
    unique = _unique(faults)
    if not unique:
        return []
    groups: Dict[Hashable, List[StuckAtFault]] = {}
    for position, fault in enumerate(unique):
        key = position if region is None else region(fault)
        groups.setdefault(key, []).append(fault)
    order = list(groups.values())
    random.Random(seed).shuffle(order)
    n = max(1, min(n_partitions, len(order)))
    partitions: List[List[StuckAtFault]] = [[] for _ in range(n)]
    loads = [(0, index) for index in range(n)]
    for group in order:
        load, index = heapq.heappop(loads)
        partitions[index].extend(group)
        heapq.heappush(loads, (load + len(group), index))
    return partitions


def partition_metrics(partial: FaultSimResult) -> Dict[str, object]:
    """Serialized worker-side metric registry for one partition result.

    Built inside the worker (or rebuilt in the parent for a published
    result that carries none) so per-partition counters travel home
    inside ``stats["metrics"]`` and fold together with the registry's
    associative, commutative merge — the totals are independent of worker
    count, completion order, and partition grouping.
    """
    stats = partial.stats
    registry = MetricRegistry()
    registry.counter("faultsim.faults_simulated").add(partial.total_faults)
    registry.counter("faultsim.faults_detected").add(len(partial.detected))
    registry.counter("faultsim.events_propagated").add(
        stats.get("events_propagated", 0)
    )
    registry.counter("faultsim.stems_propagated").add(
        stats.get("stems_propagated", 0)
    )
    registry.counter("faultsim.words_evaluated").add(
        stats.get("words_evaluated", 0)
    )
    registry.histogram("faultsim.partition_wall_s").observe(
        stats.get("wall_time_s", 0.0)
    )
    return registry.to_dict()


def merge_results(
    partials: Sequence[FaultSimResult],
    universe: Sequence[StuckAtFault],
    n_patterns: int,
    drop: bool,
) -> FaultSimResult:
    """Min-merge per-partition results back into one :class:`FaultSimResult`.

    ``detected`` keeps the smallest first-detecting-pattern index seen for
    each fault (partitions are disjoint, but min-merge also makes the
    merge idempotent); ``undetected`` is rebuilt in the caller's original
    fault order, matching exactly what the single-process engines produce.
    """
    result = FaultSimResult(total_faults=len(universe))
    for partial in partials:
        for fault, pattern_index in partial.detected.items():
            previous = result.detected.get(fault)
            if previous is None or pattern_index < previous:
                result.detected[fault] = pattern_index
        result.patterns_simulated = max(
            result.patterns_simulated, partial.patterns_simulated
        )
    result.undetected = [f for f in universe if f not in result.detected]
    if not drop:
        result.patterns_simulated = n_patterns
    return result


class FaultSimBackend:
    """A strategy for running stuck-at fault simulation over one netlist."""

    name = "?"

    def run(
        self,
        simulator: FaultSimulator,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
        drop: bool = True,
    ) -> FaultSimResult:
        raise NotImplementedError

    def simulate_netlist(
        self,
        netlist: Netlist,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
        drop: bool = True,
    ) -> FaultSimResult:
        """Convenience entry when no :class:`FaultSimulator` exists yet."""
        return self.run(FaultSimulator(netlist), patterns, faults, drop=drop)


class SerialBackend(FaultSimBackend):
    """One fault, one pattern, full re-simulation (the E3 baseline)."""

    name = "serial"

    def run(self, simulator, patterns, faults, drop=True):
        return simulator._simulate_serial(patterns, faults, drop)


class PpsfpBackend(FaultSimBackend):
    """Single-process bit-parallel PPSFP with cone-limited propagation."""

    name = "ppsfp"

    def run(self, simulator, patterns, faults, drop=True):
        return simulator._simulate_ppsfp(patterns, faults, drop)


_BACKENDS = {
    "serial": SerialBackend,
    "ppsfp": PpsfpBackend,
}


def get_backend(
    name: str,
    jobs: Optional[int] = None,
    seed: int = 0,
    partitions: Optional[int] = None,
) -> FaultSimBackend:
    """Instantiate a backend by name.

    ``jobs``/``seed``/``partitions`` configure the sharded backends
    (``pool`` and ``supervised``) and are validated up front.  A
    supervised run with a store, timeouts or chaos takes a
    :class:`repro.sim.supervisor.SupervisedPoolBackend` instance instead.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if name in _BACKENDS:
        return _BACKENDS[name]()
    # Imported here: the supervisor builds on this module.
    from .supervisor import PoolBackend, SupervisedPoolBackend

    backend = SupervisedPoolBackend if name == "supervised" else PoolBackend
    return backend(jobs=jobs, seed=seed, partitions=partitions)
