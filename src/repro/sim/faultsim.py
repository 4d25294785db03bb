"""Fault simulation engines.

Three stuck-at engines are provided, matching the E3 experiment:

* **serial** — one fault, one pattern, full-circuit re-evaluation.  The
  textbook baseline; trivially correct, painfully slow.
* **ppsfp** — Parallel-Pattern Single-Fault Propagation: ``word_width``
  patterns per machine word (64 by default, up to 4096), good machine
  simulated once per word.  Faults are graded by fanout-free region
  (FFR, critical-path tracing after Abramovici et al., DAC 1983): each
  fault's *local word* — the lanes where its effect reaches the root
  (*stem*) of its FFR — comes from a backward bitwise sweep over the good
  machine; each stem some fault activates is then propagated event-wise
  through its fanout cone once, and a fault's detection word is its
  local word AND its stem's.  With fault dropping this is the production
  algorithm every commercial fault simulator uses.
* **pool** / **supervised** — the PPSFP kernel sharded across forked
  worker processes (see :mod:`repro.sim.dispatch` and
  :mod:`repro.sim.supervisor`): the collapsed fault list is partitioned
  deterministically, whole FFRs per shard, each worker runs PPSFP against
  the parent's good-machine response, and the partial results are
  min-merged.

Transition-delay (launch-on-capture pairs) and bridging faults reuse the
same cone machinery.

Every ``simulate*`` call fills :attr:`FaultSimResult.stats` with
per-run instrumentation (faults simulated, cone events propagated, stems
propagated, packed words evaluated, wall time) so benchmarks can report
speedup and detect load imbalance without re-deriving counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..circuit.gates import GateType, compile_parallel_evaluator, evaluate_parallel
from ..circuit.netlist import Netlist
from ..faults.model import OUTPUT_PIN, BridgingFault, StuckAtFault, TransitionFault
from . import goodcache
from .parallel import WORD_WIDTH, ParallelSimulator

#: ``stats`` keys the parent process contributes to the observation's
#: ``faultsim.*`` counters — the good-machine side of a run, which no
#: worker partition ever sees.  Worker-side counters (events, words,
#: faults) come either from the same stats (single-process engines) or
#: from the merged per-partition metric registries (pool/supervised).
_PARENT_STAT_KEYS = (
    "good_passes",
    "good_cache_hits",
    "good_cache_misses",
    "good_cache_evictions",
    "good_response_s",
    "wall_time_s",
)

#: Supervisor recovery stats that become first-class ``supervisor.*``
#: counters when present.
_SUPERVISOR_STAT_KEYS = (
    "retries",
    "worker_crashes",
    "timeouts",
    "invalid_results",
    "inline_fallbacks",
    "journal_skipped",
)


def _unique(faults: Iterable[object]) -> List[object]:
    """Requested fault universe, first-occurrence order, duplicates removed.

    Callers may hand the same fault twice (e.g. a subset assembled from
    several heuristics); counting it twice would understate coverage and
    list it twice among the survivors.
    """
    return list(dict.fromkeys(faults))


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run.

    ``detected`` maps each detected fault to the index of the first pattern
    that caught it; ``undetected`` lists survivors.  ``coverage`` is the
    detected fraction of the simulated universe.  ``stats`` carries engine
    instrumentation: ``faults_simulated``, ``events_propagated``,
    ``stems_propagated``, ``words_evaluated``, ``wall_time_s``, and for
    the pool backend a ``partitions`` list with the same counters per
    worker partition.
    """

    total_faults: int
    detected: Dict[object, int] = field(default_factory=dict)
    undetected: List[object] = field(default_factory=list)
    patterns_simulated: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return len(self.detected) / self.total_faults

    def detections_by_pattern(self) -> Dict[int, int]:
        """Histogram: pattern index -> number of faults it first detected."""
        histogram: Dict[int, int] = {}
        for pattern_index in self.detected.values():
            histogram[pattern_index] = histogram.get(pattern_index, 0) + 1
        return histogram


class FaultSimulator:
    """Stuck-at / transition / bridging fault simulation over one netlist.

    ``word_width`` sets the patterns packed per PPSFP word (default 64; see
    :data:`repro.sim.parallel.WORD_WIDTHS` for the characterized ladder) —
    results are bit-identical for every width.  ``cache`` configures the
    good-machine response cache (default: the process-wide cache; ``None``
    disables it).
    """

    def __init__(
        self,
        netlist: Netlist,
        word_width: int = WORD_WIDTH,
        cache: object = goodcache.USE_DEFAULT,
    ):
        netlist.finalize()
        self.netlist = netlist
        self.parallel = ParallelSimulator(netlist, word_width=word_width, cache=cache)
        self.word_width = self.parallel.word_width
        self.view = self.parallel.view
        # Per-gate compiled evaluators for cone propagation: the gate-type
        # dispatch chain is resolved once here instead of once per event.
        self._evaluators = [
            None
            if gate.type == GateType.INPUT
            else compile_parallel_evaluator(gate.type, len(gate.fanin))
            for gate in netlist.gates
        ]
        order = netlist.topo_order
        self._topo_position = [0] * len(netlist.gates)
        for position, gate_index in enumerate(order):
            self._topo_position[gate_index] = position
        self._consumers = netlist.comb_fanout
        # Observation readers (one per response position, so a gate read
        # twice appears twice) and their distinct set, which the readout
        # intersects with the faulty map: a reader the fault never reached
        # XORs to zero.
        self._readers = list(self.view.output_readers)
        self._reader_set = set(self._readers)
        # POs and flops: a branch fault on one of their pins is observed
        # directly, not through the faulty map.
        self._observation_gates = frozenset(netlist.observation_points())
        # Lifetime instrumentation counters; simulate* methods snapshot
        # deltas into FaultSimResult.stats.
        self._events_propagated = 0
        self._stems_propagated = 0
        self._words_evaluated = 0
        # Fanout-free regions, built on first PPSFP use (see _regions).
        self._ffr_next: Optional[List[Optional[int]]] = None
        self._ffr_root: Optional[List[int]] = None

    def _snapshot(self) -> Tuple[int, int, int, int, int, int, int, float]:
        parallel = self.parallel
        cache = parallel.cache
        return (
            self._events_propagated,
            self._stems_propagated,
            self._words_evaluated,
            parallel.evaluations,
            parallel.cache_hits,
            parallel.cache_misses,
            cache.evictions if cache is not None else 0,
            time.perf_counter(),
        )

    def _fill_stats(
        self,
        result: FaultSimResult,
        engine: str,
        since: Tuple[int, int, int, int, int, int, int, float],
    ) -> FaultSimResult:
        events0, stems0, words0, passes0, hits0, misses0, evictions0, t0 = since
        parallel = self.parallel
        cache = parallel.cache
        good_passes = parallel.evaluations - passes0
        result.stats.update(
            engine=engine,
            word_width=self.word_width,
            faults_simulated=result.total_faults,
            events_propagated=self._events_propagated - events0,
            stems_propagated=self._stems_propagated - stems0,
            words_evaluated=self._words_evaluated
            - words0
            + good_passes * parallel.num_scheduled,
            good_passes=good_passes,
            good_cache_hits=parallel.cache_hits - hits0,
            good_cache_misses=parallel.cache_misses - misses0,
            good_cache_evictions=(
                (cache.evictions - evictions0) if cache is not None else 0
            ),
            wall_time_s=time.perf_counter() - t0,
        )
        return result

    def _publish(self, result: FaultSimResult) -> FaultSimResult:
        """Mirror a finished run's ``stats`` into the active observation.

        The counters are *derived from the same values* ``stats`` holds,
        so a RunReport's ``faultsim.*`` counters bit-identically match the
        legacy stats dict for every engine.  Pool/supervised runs carry a
        merged per-partition metric registry in ``stats["metrics"]``
        (built worker-side, merged in the parent); single-process runs
        publish the equivalent counters straight from stats.
        """
        observation = obs.current()
        if observation is None:
            return result
        stats = result.stats
        worker_metrics = stats.get("metrics")
        if worker_metrics:
            # Worker-side counters (events, partition words, faults) come
            # home through the associative registry merge; the parent adds
            # only its own good-machine word contribution on top so the
            # total equals stats["words_evaluated"] exactly.
            observation.merge_metrics(worker_metrics)
            observation.counter("faultsim.words_evaluated").add(
                stats.get("good_words_evaluated", 0)
            )
        else:
            observation.add_counters(
                "faultsim",
                {
                    key: stats[key]
                    for key in (
                        "faults_simulated",
                        "events_propagated",
                        "stems_propagated",
                        "words_evaluated",
                    )
                    if key in stats
                },
            )
            observation.counter("faultsim.faults_detected").add(
                len(result.detected)
            )
        observation.add_counters(
            "faultsim",
            {key: stats[key] for key in _PARENT_STAT_KEYS if key in stats},
        )
        observation.counter("faultsim.patterns_simulated").add(
            result.patterns_simulated
        )
        observation.counter("faultsim.runs").add(1)
        observation.add_counters(
            "supervisor",
            {key: stats[key] for key in _SUPERVISOR_STAT_KEYS if key in stats},
        )
        if "failed_partitions" in stats:
            observation.counter("supervisor.failed_partitions").add(
                len(stats["failed_partitions"])
            )
        # Worker/supervisor telemetry events come home the same way the
        # metric registries do: shipped payloads in stats, stitched onto
        # the observation's own monotonic timeline.
        for payload in stats.get("events", ()):
            observation.merge_events(payload)
        return result

    # ------------------------------------------------------------------
    # Core cone propagation
    # ------------------------------------------------------------------

    def _propagate(
        self,
        seeds: Dict[int, int],
        good: Sequence[int],
        mask: int,
    ) -> Dict[int, int]:
        """Propagate faulty words from ``seeds`` through fanout cones.

        ``seeds`` maps gate index -> faulty word (already different from the
        good word, or the propagation stops immediately).  Returns the map
        of all gates whose faulty word differs from good.
        """
        gates = self.netlist.gates
        evaluators = self._evaluators
        consumers = self._consumers
        topo = self._topo_position
        faulty: Dict[int, int] = {}
        heap: List[Tuple[int, int]] = []
        enqueued = set()
        events = 0

        for gate_index, word in seeds.items():
            if word != good[gate_index]:
                faulty[gate_index] = word
                for consumer in consumers[gate_index]:
                    if consumer not in enqueued:
                        enqueued.add(consumer)
                        heappush(heap, (topo[consumer], consumer))

        while heap:
            _, gate_index = heappop(heap)
            enqueued.discard(gate_index)
            inputs = [
                faulty.get(driver, good[driver]) for driver in gates[gate_index].fanin
            ]
            word = evaluators[gate_index](inputs, mask)
            events += 1
            if word == good[gate_index]:
                faulty.pop(gate_index, None)
                continue
            if faulty.get(gate_index) == word:
                continue
            faulty[gate_index] = word
            for consumer in consumers[gate_index]:
                if consumer not in enqueued:
                    enqueued.add(consumer)
                    heappush(heap, (topo[consumer], consumer))
        self._events_propagated += events
        self._words_evaluated += events
        return faulty

    def _stuck_at_seeds(
        self, fault: StuckAtFault, good: Sequence[int], mask: int
    ) -> Dict[int, int]:
        """Initial faulty words for a stuck-at fault."""
        gates = self.netlist.gates
        forced = mask if fault.value else 0
        if fault.pin == OUTPUT_PIN:
            return {fault.gate: forced}
        gate = gates[fault.gate]
        if fault.gate in self._observation_gates:
            # Branch straight into an observation point: handled at readout.
            return {}
        inputs = [good[driver] for driver in gate.fanin]
        inputs[fault.pin] = forced
        self._words_evaluated += 1
        return {fault.gate: self._evaluators[fault.gate](inputs, mask)}

    def _detection_word(
        self,
        fault: StuckAtFault,
        good: Sequence[int],
        faulty: Dict[int, int],
        mask: int,
    ) -> int:
        """Patterns (bitmask) on which the fault effect reaches observation."""
        diff = self._reader_diff(good, faulty)
        # A branch fault feeding a PO or flop D pin is observed directly at
        # that single observation position, bypassing the stem value.
        if fault.pin != OUTPUT_PIN and fault.gate in self._observation_gates:
            forced = mask if fault.value else 0
            driver = self.netlist.gates[fault.gate].fanin[fault.pin]
            diff |= forced ^ good[driver]
        return diff & mask

    def _reader_diff(self, good: Sequence[int], faulty: Dict[int, int]) -> int:
        """OR of faulty ^ good over the observation readers (unmasked).

        Cone-local: ``faulty`` holds only gates whose word differs from
        good, so readers outside it XOR to zero and are never visited.
        """
        diff = 0
        for reader in faulty.keys() & self._reader_set:
            diff |= faulty[reader] ^ good[reader]
        return diff

    # ------------------------------------------------------------------
    # Fanout-free regions
    # ------------------------------------------------------------------

    def _regions(self) -> Tuple[List[Optional[int]], List[int]]:
        """Split the netlist into fanout-free regions (FFRs), once.

        Returns ``(following, root)``: per gate, its single consumer
        (``None`` for a stem) and the stem its region hangs off.

        A gate is a *stem* unless its output reaches the rest of the
        circuit through exactly one combinational fanin pin: observation
        readers (PO and flop D drivers) are stems, and so is a gate
        referenced by zero pins or by several, even of one consumer
        (``AND(a, a)``).  Every other gate keeps its single consumer and
        shares that consumer's root, so each region is a tree hanging off
        its stem.
        """
        if self._ffr_root is not None:
            return self._ffr_next, self._ffr_root
        gates = self.netlist.gates
        references = [0] * len(gates)
        consumer: List[Optional[int]] = [None] * len(gates)
        for gate in gates:
            if gate.is_sequential:
                continue
            for driver in gate.fanin:
                references[driver] += 1
                consumer[driver] = gate.index
        root = [gate.index for gate in gates]  # shares the index ints
        for index in reversed(self.netlist.topo_order):
            if references[index] != 1 or index in self._reader_set:
                consumer[index] = None
            else:
                root[index] = root[consumer[index]]
        self._ffr_next = consumer
        self._ffr_root = root
        return consumer, root

    def fault_region(self, fault) -> int:
        """The stem whose fanout-free region holds ``fault``'s site gate.

        Faults of one region share their stem's propagation, so the
        sharded backends keep each region in one partition.
        """
        return self._regions()[1][fault.gate]

    # ------------------------------------------------------------------
    # Stuck-at engines
    # ------------------------------------------------------------------

    def simulate(
        self,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
        drop: bool = True,
        engine: object = "ppsfp",
        jobs: Optional[int] = None,
        seed: int = 0,
        partitions: Optional[int] = None,
    ) -> FaultSimResult:
        """Run stuck-at fault simulation.

        With ``drop`` true (default) a fault leaves the active list at its
        first detection; otherwise every fault sees every pattern (useful
        for building diagnosis dictionaries and detection profiles).

        ``engine`` selects the backend by name — ``"serial"``,
        ``"ppsfp"``, ``"pool"`` (multiprocess PPSFP), or ``"supervised"``
        (fault-tolerant multiprocess, see :mod:`repro.sim.supervisor`) —
        or is a ready :class:`repro.sim.dispatch.FaultSimBackend`
        instance, which lets callers attach journals, timeouts, or chaos
        plans.  ``jobs`` sizes the worker pool; ``seed`` and
        ``partitions`` control the deterministic fault sharding — results
        are identical for any worker count.
        """
        if isinstance(engine, str):
            from .dispatch import get_backend

            backend = get_backend(engine, jobs=jobs, seed=seed, partitions=partitions)
            engine_name = engine
        else:
            backend, engine_name = engine, type(engine).__name__
        # Span only multi-pattern runs: ATPG phase 2 / compression call in
        # here once per candidate cube, and a span per cube would drown the
        # tree.  Counters still accumulate for every run via _publish.
        if obs.current() is not None and len(patterns) > 1:
            with obs.span("faultsim", engine=engine_name, patterns=len(patterns)):
                return self._publish(backend.run(self, patterns, faults, drop))
        return self._publish(backend.run(self, patterns, faults, drop))

    def good_response(self, patterns: Sequence[Sequence[int]]) -> List[List[int]]:
        """Good-machine response for every ``word_width`` chunk of ``patterns``.

        One list of packed gate words per chunk — the shared response the
        pool backends compute once and hand to every worker partition.
        Chunks already in the good-machine cache are served without a pass.
        """
        chunks: List[List[int]] = []
        width = self.word_width
        for start in range(0, len(patterns), width):
            chunk = patterns[start : start + width]
            chunks.append(
                self.parallel.evaluate_words(
                    self.parallel.pack_block(chunk), len(chunk)
                )
            )
        return chunks

    def _simulate_ppsfp(
        self,
        patterns: Optional[Sequence[Sequence[int]]],
        faults: Iterable[StuckAtFault],
        drop: bool,
        good_chunks: Optional[Sequence[List[int]]] = None,
        n_patterns: Optional[int] = None,
    ) -> FaultSimResult:
        """PPSFP graded by fanout-free region.

        ``patterns`` may be ``None`` when ``good_chunks`` and ``n_patterns``
        are given — worker partitions grade against the parent's good
        response and never re-pack patterns.
        """
        since = self._snapshot()
        root = self._regions()[1]
        universe = _unique(faults)
        result = FaultSimResult(total_faults=len(universe))
        # Region-major order (stable within a region), so one word holds
        # the local words of one region at a time.
        active = sorted(universe, key=lambda fault: root[fault.gate])
        width = self.word_width
        total = len(patterns) if patterns is not None else n_patterns
        for chunk_index, start in enumerate(range(0, total, width)):
            if drop and not active:
                break
            n = min(width, total - start)
            if good_chunks is not None:
                good = good_chunks[chunk_index]
            else:
                good = self.parallel.evaluate_words(
                    self.parallel.pack_block(patterns[start : start + n]), n
                )
            caught = self._grade_word(
                good, (1 << n) - 1, start, active, result.detected
            )
            if drop and caught:
                active = _without(active, caught)
            result.patterns_simulated = min(start + n, total)
        result.undetected = [f for f in universe if f not in result.detected]
        if not drop:
            result.patterns_simulated = total
        return self._fill_stats(result, "ppsfp", since)

    def _grade_word(
        self, good: Sequence[int], mask: int, start: int,
        active: Sequence[StuckAtFault], detected: Dict[object, int],
    ) -> List[StuckAtFault]:
        """Grade ``active`` (region-major) on one word.

        Returns the faults the word detects, in ``active`` order; first
        detections go into ``detected``.  Per region:

        1. each fault's *local word*: the site difference (forced value
           XOR good, or the site gate re-evaluated with the pin forced)
           AND the lanes where it reaches the region's stem;
        2. if the OR of local words is non-zero, the stem flipped on those
           lanes only and propagated once through its cone;
        3. a fault's detection word: its local word AND the stem's.

        Lanes are independent and a region is a tree, so this is exactly
        the per-fault faulty machine.  Local words live only while their
        region is graded.
        """
        evaluators = self._evaluators
        gates = self.netlist.gates
        following, root = self._ffr_next, self._ffr_root
        observation = self._observation_gates
        paths: Dict[int, int] = {}  # one region's memo at a time
        hits: List[object] = []  # flat (fault, word, through stem) triples
        caught: List[StuckAtFault] = []
        region = lanes = None
        words = 0
        for fault in active:
            gate, pin = fault.gate, fault.pin
            if root[gate] != region:
                if hits:
                    self._settle(
                        good, mask, start, region, lanes, hits, detected, caught
                    )
                    hits = []
                region, lanes = root[gate], None
                paths.clear()
            forced = mask if fault.value else 0
            if pin == OUTPUT_PIN:
                local = good[gate] ^ forced
            elif gate in observation:
                # A branch into a PO or flop is observed directly.
                direct = forced ^ good[gates[gate].fanin[pin]]
                if direct:
                    hits += (fault, direct, False)
                continue
            else:
                inputs = [good[driver] for driver in gates[gate].fanin]
                inputs[pin] = forced
                local = evaluators[gate](inputs, mask) ^ good[gate]
                words += 1
            if not local:
                continue
            if following[gate] is not None:
                path = paths.get(gate)
                if path is None:
                    path = self._path_word(gate, paths, good, mask)
                local &= path
                if not local:
                    continue
            hits += (fault, local, True)
            lanes = local if lanes is None else lanes | local
        if hits:
            self._settle(good, mask, start, region, lanes, hits, detected, caught)
        self._words_evaluated += words
        return caught

    def _settle(
        self, good: Sequence[int], mask: int, start: int, stem: int,
        lanes: Optional[int], hits: List[object], detected: Dict[object, int],
        caught: List[StuckAtFault],
    ) -> None:
        """Finish one region on one word: propagate its stem on ``lanes``
        (if any fault reaches it), then record each hit it detects."""
        if lanes is not None:
            self._stems_propagated += 1
            stem_word = self._reader_diff(
                good, self._propagate({stem: good[stem] ^ lanes}, good, mask)
            )
        triples = iter(hits)
        for fault, word, through_stem in zip(triples, triples, triples):
            if through_stem:
                word &= stem_word
            if word:
                if fault not in detected:
                    detected[fault] = start + _lowest_bit(word)
                caught.append(fault)

    def _path_word(
        self, gate: int, paths: Dict[int, int], good: Sequence[int], mask: int
    ) -> int:
        """Lanes on which flipping ``gate`` flips its FFR stem.

        The backward product, along the region's tree edges, of
        ``eval(consumer with the pin flipped) ^ good[consumer]``,
        memoised per gate in ``paths`` for the current word.  A stem's
        own path is every lane; once a product is zero the gates below
        it are not evaluated.
        """
        evaluators = self._evaluators
        gates = self.netlist.gates
        following = self._ffr_next
        chain = []
        while gate not in paths and following[gate] is not None:
            chain.append(gate)
            gate = following[gate]
        word = paths.get(gate, mask)
        for below in reversed(chain):
            if word:
                consumer = following[below]
                # ``below`` drives exactly one pin of its consumer.
                flipped = good[below] ^ mask
                inputs = [
                    flipped if driver == below else good[driver]
                    for driver in gates[consumer].fanin
                ]
                word &= evaluators[consumer](inputs, mask) ^ good[consumer]
                self._words_evaluated += 1
            paths[below] = word
        return word

    def _simulate_serial(
        self,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
        drop: bool,
    ) -> FaultSimResult:
        """Naive engine: full re-simulation per (fault, pattern)."""
        since = self._snapshot()
        active = _unique(faults)
        result = FaultSimResult(total_faults=len(active))
        for pattern_index, pattern in enumerate(patterns):
            if drop and not active:
                break
            input_words = [int(bit) for bit in pattern]
            good = self.parallel.evaluate_words(input_words, 1)
            survivors: List[StuckAtFault] = []
            for fault in active:
                if self._serial_detects(fault, input_words, good):
                    if fault not in result.detected:
                        result.detected[fault] = pattern_index
                    if not drop:
                        survivors.append(fault)
                else:
                    survivors.append(fault)
            active = survivors
            result.patterns_simulated = pattern_index + 1
        result.undetected = [f for f in active if f not in result.detected]
        if not drop:
            result.patterns_simulated = len(patterns)
        return self._fill_stats(result, "serial", since)

    def _serial_detects(
        self, fault: StuckAtFault, input_words: Sequence[int], good: Sequence[int]
    ) -> bool:
        """Full faulty-machine evaluation of one pattern (width-1 words)."""
        gates = self.netlist.gates
        words: List[int] = [0] * len(gates)
        self._words_evaluated += self.parallel.num_scheduled
        forced = 1 if fault.value else 0
        for position, gate_index in enumerate(self.view.input_gates):
            words[gate_index] = input_words[position] & 1
        if fault.pin == OUTPUT_PIN and gates[fault.gate].type == GateType.INPUT:
            words[fault.gate] = forced
        for gate_index in self.netlist.topo_order:
            gate = gates[gate_index]
            if gate.type == GateType.INPUT or gate.is_sequential:
                if fault.pin == OUTPUT_PIN and gate_index == fault.gate:
                    words[gate_index] = forced
                continue
            inputs = [words[driver] for driver in gate.fanin]
            if gate_index == fault.gate and fault.pin != OUTPUT_PIN:
                inputs[fault.pin] = forced
            value = evaluate_parallel(gate.type, inputs, 1)
            if gate_index == fault.gate and fault.pin == OUTPUT_PIN:
                value = forced
            words[gate_index] = value
        for reader in self._readers:
            if words[reader] != good[reader]:
                return True
        if fault.pin != OUTPUT_PIN:
            gate = gates[fault.gate]
            if gate.type == GateType.OUTPUT or gate.is_sequential:
                if forced != good[gate.fanin[fault.pin]]:
                    return True
        return False

    # ------------------------------------------------------------------
    # Per-fault failure signatures (diagnosis support)
    # ------------------------------------------------------------------

    def failure_signature(
        self, patterns: Sequence[Sequence[int]], fault: StuckAtFault
    ) -> Dict[int, Tuple[int, ...]]:
        """Exactly which outputs fail on which patterns for one fault.

        Returns ``{pattern_index: (failing output positions...)}`` over the
        view's response vector (POs then flop D's).  This is the signature
        fault dictionaries store and effect-cause diagnosis compares.
        """
        signature: Dict[int, Tuple[int, ...]] = {}
        width = self.word_width
        for start in range(0, len(patterns), width):
            chunk = patterns[start : start + width]
            n = len(chunk)
            mask = (1 << n) - 1
            good = self.parallel.evaluate_words(self.parallel.pack_block(chunk), n)
            seeds = self._stuck_at_seeds(fault, good, mask)
            faulty = self._propagate(seeds, good, mask) if seeds else {}
            per_output_diff: List[int] = []
            for reader in self._readers:
                per_output_diff.append(
                    (faulty.get(reader, good[reader]) ^ good[reader]) & mask
                )
            # Direct observation of branch-into-observation faults.
            if fault.pin != OUTPUT_PIN and fault.gate in self._observation_gates:
                forced = mask if fault.value else 0
                driver = self.netlist.gates[fault.gate].fanin[fault.pin]
                position = self._direct_reader_position(fault.gate)
                if position is not None:
                    per_output_diff[position] |= (forced ^ good[driver]) & mask
            for bit in range(n):
                failing = tuple(
                    position
                    for position, diff in enumerate(per_output_diff)
                    if (diff >> bit) & 1
                )
                if failing:
                    signature[start + bit] = failing
        return signature

    def _direct_reader_position(self, observation_gate: int) -> Optional[int]:
        """Response-vector position of a PO marker or flop gate."""
        if observation_gate in self.netlist.outputs:
            return self.netlist.outputs.index(observation_gate)
        if observation_gate in self.netlist.flops:
            return len(self.netlist.outputs) + self.netlist.flops.index(
                observation_gate
            )
        return None

    # ------------------------------------------------------------------
    # Transition-delay faults (launch-on-capture pairs)
    # ------------------------------------------------------------------

    def simulate_transition(
        self,
        pattern_pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        faults: Iterable[TransitionFault],
        drop: bool = True,
    ) -> FaultSimResult:
        """Simulate transition faults against launch/capture pattern pairs.

        A fault is detected by a pair when the good machine launches the
        required transition at the fault site and the capture vector
        propagates the transient stuck-at effect to an observation point.
        """
        since = self._snapshot()
        active = _unique(faults)
        result = FaultSimResult(total_faults=len(active))
        width = self.word_width
        for start in range(0, len(pattern_pairs), width):
            if drop and not active:
                break
            chunk = pattern_pairs[start : start + width]
            n = len(chunk)
            mask = (1 << n) - 1
            # The pack buffer is reused, so each packed block is consumed by
            # evaluate_words before the next pack overwrites it.
            good_launch = self.parallel.evaluate_words(
                self.parallel.pack_block([pair[0] for pair in chunk]), n
            )
            good_capture = self.parallel.evaluate_words(
                self.parallel.pack_block([pair[1] for pair in chunk]), n
            )
            survivors: List[TransitionFault] = []
            for fault in active:
                site_launch = self._site_value(fault, good_launch)
                site_capture = self._site_value(fault, good_capture)
                if fault.slow_to == 1:
                    transition = ~site_launch & site_capture  # 0 -> 1
                else:
                    transition = site_launch & ~site_capture  # 1 -> 0
                transition &= mask
                if not transition:
                    survivors.append(fault)
                    continue
                stuck = StuckAtFault(fault.gate, fault.pin, fault.acts_as_stuck)
                seeds = self._stuck_at_seeds(stuck, good_capture, mask)
                faulty = self._propagate(seeds, good_capture, mask) if seeds else {}
                detect = self._detection_word(stuck, good_capture, faulty, mask)
                detect &= transition
                if detect:
                    if fault not in result.detected:
                        result.detected[fault] = start + _lowest_bit(detect)
                    if not drop:
                        survivors.append(fault)
                else:
                    survivors.append(fault)
            active = survivors
            result.patterns_simulated = min(start + n, len(pattern_pairs))
        result.undetected = [f for f in active if f not in result.detected]
        if not drop:
            result.patterns_simulated = len(pattern_pairs)
        return self._publish(
            self._fill_stats(result, "ppsfp-transition", since)
        )

    def _site_value(self, fault, good: Sequence[int]) -> int:
        """Good-machine word at a fault site (branch value = stem value)."""
        if fault.pin == OUTPUT_PIN:
            return good[fault.gate]
        driver = self.netlist.gates[fault.gate].fanin[fault.pin]
        return good[driver]

    # ------------------------------------------------------------------
    # Bridging faults
    # ------------------------------------------------------------------

    def simulate_bridging(
        self,
        patterns: Sequence[Sequence[int]],
        faults: Iterable[BridgingFault],
        drop: bool = True,
    ) -> FaultSimResult:
        """Simulate wired-logic bridges.

        Approximation: the shorted values are resolved from the good-machine
        driven values and then propagated once (no fixpoint iteration), the
        standard zero-feedback assumption for prototype bridging analysis.
        """
        since = self._snapshot()
        active = _unique(faults)
        result = FaultSimResult(total_faults=len(active))
        width = self.word_width
        for start in range(0, len(patterns), width):
            if drop and not active:
                break
            chunk = patterns[start : start + width]
            n = len(chunk)
            mask = (1 << n) - 1
            good = self.parallel.evaluate_words(self.parallel.pack_block(chunk), n)
            survivors: List[BridgingFault] = []
            for fault in active:
                value_a, value_b = good[fault.net_a], good[fault.net_b]
                forced_a, forced_b = _resolve_words(fault, value_a, value_b, mask)
                seeds = {}
                if forced_a != value_a:
                    seeds[fault.net_a] = forced_a
                if forced_b != value_b:
                    seeds[fault.net_b] = forced_b
                faulty = self._propagate(seeds, good, mask) if seeds else {}
                diff = self._reader_diff(good, faulty) & mask
                if diff:
                    if fault not in result.detected:
                        result.detected[fault] = start + _lowest_bit(diff)
                    if not drop:
                        survivors.append(fault)
                else:
                    survivors.append(fault)
            active = survivors
            result.patterns_simulated = min(start + n, len(patterns))
        result.undetected = [f for f in active if f not in result.detected]
        if not drop:
            result.patterns_simulated = len(patterns)
        return self._publish(
            self._fill_stats(result, "ppsfp-bridging", since)
        )


def _resolve_words(
    fault: BridgingFault, value_a: int, value_b: int, mask: int
) -> Tuple[int, int]:
    """Word-parallel wired-logic resolution of a bridge."""
    if fault.kind == "and":
        both = value_a & value_b
        return both, both
    if fault.kind == "or":
        both = value_a | value_b
        return (both & mask, both & mask)
    if fault.kind == "dom_a":
        return value_a, value_a
    if fault.kind == "dom_b":
        return value_b, value_b
    raise ValueError(f"unknown bridging kind {fault.kind!r}")


def _without(faults: List[object], caught: List[object]) -> List[object]:
    """``faults`` minus ``caught``, an in-order subsequence of it."""
    survivors = []
    pending = iter(caught)
    next_caught = next(pending)
    for fault in faults:
        if fault is next_caught:
            next_caught = next(pending, None)
        else:
            survivors.append(fault)
    return survivors


def _lowest_bit(word: int) -> int:
    """Index of the lowest set bit of a non-zero word."""
    return (word & -word).bit_length() - 1
