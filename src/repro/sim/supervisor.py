"""Supervised multiprocess fault simulation: the one fan-out runner, with
crash recovery, timeouts, poisoned-partition fallback, and resume.

:class:`SupervisedPoolBackend` grades the deterministic shards of
:mod:`repro.sim.dispatch` (same seeded partitioning, same min-merge, so
a clean run is bit-identical to ``ppsfp`` for any worker count) in
forked worker processes.  Workers inherit the parent's compiled
:class:`~repro.sim.faultsim.FaultSimulator` and its good-machine
response by ``fork`` copy-on-write: nothing campaign-sized is pickled
and no worker recompiles the netlist.  The ``pool`` backend name is this
runner with its default configuration (:class:`PoolBackend`).

An hours-long accelerator-scale campaign must not die with one worker.
The tutorial's own thesis — AI chips must keep working when parts fail —
applies to the test infrastructure too, so the supervisor assumes
workers *will* fail:

* **one process per partition** — failure isolation is the unit of work;
  a dead or wedged worker loses exactly one shard, never the campaign;
* **per-partition wall-clock deadline** — a hung worker is killed at
  ``timeout_s`` and its shard requeued;
* **bounded retry with exponential backoff** — crashes, kills, injected
  exceptions and validation failures requeue the shard up to
  ``max_retries`` times;
* **result validation** — every partial result must cover exactly its
  shard with in-range first-detection indices, so a worker returning
  structurally corrupt data is treated as a failure, not merged;
* **poisoned-partition fallback** — a shard that exhausts its worker
  retries is re-run inline in the parent (no fork, no pipe — the
  failure domain shrinks to the kernel itself);
* **graceful degradation** — a shard that fails even inline is recorded
  in ``stats["failed_partitions"]`` and its faults stay conservatively
  undetected: the merged result is a *coverage lower bound*
  (``stats["coverage_lower_bound"]``) instead of a traceback;
* **one durable shard format** — every shard is claimed, graded and
  published through a :class:`repro.sim.store.ShardStore`.  Given a
  store directory, a later run under the same runner id skips the shards
  already published there (``stats["resumed"]``), so a killed campaign
  resumes bit-identically, and runners with other ids share the
  campaign as peers.  Without one, the run grades into a private
  temporary store.

The simulator holds compiled closures and does not pickle, so on
platforms without ``fork`` the sharded backends raise and point at the
single-process ``ppsfp`` backend instead.

The failure modes are exercised deterministically by
:mod:`repro.sim.chaos`; ``tests/test_supervisor.py`` asserts that the
recovered merge is bit-identical to single-process PPSFP under every
injected schedule.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..faults.model import StuckAtFault
from ..obs import MetricRegistry
from ..obs.events import (
    CHAOS,
    CRASH,
    HEARTBEAT,
    HOST_CHAOS,
    INLINE_FALLBACK,
    INVALID,
    PARTITION_BEGIN,
    PARTITION_END,
    RETRY,
    TIMEOUT,
    EventLog,
)
from .chaos import (
    HOST_KILL_EXIT_CODE,
    KILL,
    PARTITION,
    STALL,
    ChaosPlan,
    HostChaosPlan,
)
from .dispatch import (
    FaultSimBackend,
    default_partition_count,
    merge_results,
    partition_faults,
    partition_metrics,
    validate_pool_args,
)
from .faultsim import FaultSimResult, _unique
from .store import CampaignKey, Lease, ShardStore, StoreCorruptionError

#: Recovery counters every campaign reports, zero when nothing failed.
_RECOVERY_COUNTERS = (
    "retries",
    "worker_crashes",
    "timeouts",
    "invalid_results",
    "inline_fallbacks",
)

#: Runner id of the private temporary store a run without a store uses.
PRIVATE_RUNNER_ID = "local"
#: Runner id of ``--resume DIR`` runs: a rerun under it reclaims its own
#: leases at once and counts its earlier publishes as resumed.
RESUME_RUNNER_ID = "resume"


@dataclass
class SupervisorConfig:
    """Tunables for the supervised pool.

    ``timeout_s`` is the per-partition wall-clock deadline (``None``
    disables hang detection — crashes are still recovered).
    ``max_retries`` counts *pool* retries per shard; after those, the
    shard runs inline in the parent when ``inline_fallback`` is set.
    ``backoff_s`` seeds exponential backoff between retries of one shard
    (attempt ``k`` waits ``backoff_s * 2**(k-1)``).
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.05
    inline_fallback: bool = True
    poll_interval_s: float = 0.01

    def validate(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )


def validate_partial(
    partial: FaultSimResult,
    shard: Sequence[StuckAtFault],
    n_patterns: int,
) -> Optional[str]:
    """Structural validity of a worker's partial result, or a reason.

    The contract: the partial grades exactly its shard — every shard
    fault is either detected (with a first-detection index inside the
    pattern set) or listed undetected, nothing extra, nothing missing.
    A crashed-and-restarted or byte-corrupted worker cannot satisfy this
    by accident, so validation turns silent corruption into a retry.
    """
    shard_set = set(shard)
    detected = set(partial.detected)
    undetected = set(partial.undetected)
    if partial.total_faults != len(shard_set):
        return f"total_faults {partial.total_faults} != shard size {len(shard_set)}"
    if not detected <= shard_set:
        return "detected faults outside the shard"
    if not undetected <= shard_set:
        return "undetected faults outside the shard"
    if detected & undetected:
        return "faults both detected and undetected"
    if detected | undetected != shard_set:
        return "shard universe not fully accounted for"
    for index in partial.detected.values():
        if not isinstance(index, int) or not 0 <= index < max(1, n_patterns):
            return f"first-detection index {index!r} out of range"
    return None


def _fork_context():
    """The ``fork`` start method, or an error naming the way out.

    Workers receive the parent's simulator (compiled gate closures, which
    do not pickle) and good-machine response as process arguments; only
    ``fork`` hands them over without pickling.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        raise RuntimeError(
            "the pool and supervised fault-sim backends need the 'fork' "
            "start method, which this platform lacks; use the ppsfp "
            "backend (single process, identical results)"
        ) from None


def _good_pass(simulator, patterns) -> Dict[str, object]:
    """The parent's one good-machine pass: the per-chunk response every
    worker grades against, and its ``words``/``hits``/``seconds`` cost."""
    start = time.perf_counter()
    parallel = simulator.parallel
    passes0, hits0 = parallel.evaluations, parallel.cache_hits
    chunks = simulator.good_response(patterns)
    return {
        "chunks": chunks,
        "words": (parallel.evaluations - passes0) * parallel.num_scheduled,
        "hits": parallel.cache_hits - hits0,
        "seconds": time.perf_counter() - start,
    }


def _supervised_worker(conn, simulator, good_chunks, n_patterns, index,
                       attempt, shard, drop, chaos) -> None:
    """Worker entry: grade one shard, send (status, payload), exit.

    Runs in its own forked process.  ``simulator`` and ``good_chunks``
    are the parent's objects, inherited copy-on-write: the worker neither
    recompiles the netlist nor re-simulates the good machine.  Any
    exception — including injected chaos — is reported as an ``error``
    message so the supervisor need not wait for a timeout to learn about
    it.
    """
    status, payload = "error", "worker exited without result"
    try:
        log = EventLog()
        log.emit(
            PARTITION_BEGIN, "partition",
            partition=index, attempt=attempt, faults=len(shard),
        )
        if chaos is not None:
            chaos.execute_pre(index, attempt)
        partial = simulator._simulate_ppsfp(
            None, shard, drop, good_chunks=good_chunks, n_patterns=n_patterns
        )
        if chaos is not None:
            partial = chaos.corrupt_result(index, attempt, partial, n_patterns)
        # After chaos corruption, so the registry describes the partial as
        # actually shipped (a rejected partial's metrics die with it).
        partial.stats["metrics"] = partition_metrics(partial)
        log.emit(
            PARTITION_END, "partition",
            partition=index, attempt=attempt, detected=len(partial.detected),
        )
        partial.stats["worker_events"] = log.to_payload()
        status, payload = "ok", partial
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    try:
        conn.send((status, payload))
    except Exception:
        pass  # parent already gone or pipe broken; exit code tells the story
    finally:
        conn.close()


@dataclass
class _Slot:
    """One in-flight worker process."""

    index: int
    attempt: int
    process: multiprocessing.process.BaseProcess
    conn: object
    deadline: Optional[float]


class SupervisedPoolBackend(FaultSimBackend):
    """Fault-tolerant multiprocess PPSFP over deterministic partitions.

    ``jobs`` defaults to the machine's CPU count.  ``seed`` fixes the
    partitioning shuffle; ``partitions`` overrides the automatic
    partition count (both independent of ``jobs``, so the merged result
    never depends on how many workers happened to run).  The runner
    survives worker crashes, hangs and corrupt results and degrades
    gracefully instead of dying.  Every run claims, grades and publishes
    its shards through a :class:`~repro.sim.store.ShardStore`: ``store``
    names a durable one — shared with independently launched runner
    processes, or resumed by a later run under the same runner id —
    and without it the run uses a private temporary store, removed on
    return (such a run reports no ``stats["store"]``).
    """

    name = "supervised"

    def __init__(
        self,
        jobs: Optional[int] = None,
        seed: int = 0,
        partitions: Optional[int] = None,
        config: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosPlan] = None,
        store: Optional[ShardStore] = None,
        host_chaos: Optional[HostChaosPlan] = None,
    ):
        validate_pool_args(jobs=jobs, seed=seed, partitions=partitions)
        if host_chaos is not None and store is None:
            raise ValueError(
                "host-level chaos targets runners of a shared store; "
                "pass store= as well (or use worker-level chaos=)"
            )
        self.jobs = jobs
        self.seed = seed
        self.partitions = partitions
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.chaos = chaos
        self.store = store
        self.host_chaos = host_chaos

    def run(self, simulator, patterns, faults, drop=True):
        _fork_context()  # fail before any grading work where fork is missing
        if self.store is not None:
            return _Run(self, self.store, simulator, patterns, faults, drop).execute()
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as root:
            store = ShardStore(root, runner_id=PRIVATE_RUNNER_ID)
            result = _Run(self, store, simulator, patterns, faults, drop).execute()
        del result.stats["store"]
        return result

    # ------------------------------------------------------------------
    # Process plumbing
    # ------------------------------------------------------------------

    def _spawn(self, run: "_Run", index: int, attempt: int) -> _Slot:
        """Start one forked worker process for one shard attempt."""
        if self.chaos is not None:
            mode = self.chaos.mode_for(index, attempt)
            if mode is not None:
                # The parent knows the schedule, so the injection lands on
                # the timeline even when the worker dies before reporting.
                run.events.emit(
                    CHAOS, f"chaos:{mode}",
                    partition=index, attempt=attempt, mode=mode,
                )
        context = _fork_context()
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_worker,
            args=(
                child_conn, run.simulator, run.good_chunks(), run.n_patterns,
                index, attempt, run.shards[index], run.drop, self.chaos,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            None
            if self.config.timeout_s is None
            else time.monotonic() + self.config.timeout_s
        )
        return _Slot(index, attempt, process, parent_conn, deadline)

    def _poll_slot(self, slot: _Slot, now: float):
        """One observation of a running worker.

        Returns ``None`` (still running), ``("ok", partial)``,
        ``("timeout", reason)``, or ``("crash"/"error", reason)``.
        """
        # Liveness first: a worker seen dead has finished every send, so
        # the poll below cannot miss a result it shipped just before
        # exiting (it would otherwise be misread as a crash).
        alive = slot.process.is_alive()
        if slot.conn.poll():
            try:
                status, payload = slot.conn.recv()
            except (EOFError, OSError):
                status, payload = None, None
            self._reap(slot)
            if status == "ok":
                return ("ok", payload)
            if status == "error":
                return ("error", f"worker error: {payload}")
            return ("crash", "worker closed pipe without a result")
        if not alive:
            self._reap(slot)
            return (
                "crash",
                f"worker died (exit code {slot.process.exitcode})",
            )
        if slot.deadline is not None and now > slot.deadline:
            self._reap(slot, kill=True)
            return (
                "timeout",
                f"partition exceeded {self.config.timeout_s}s deadline",
            )
        return None

    @staticmethod
    def _reap(slot: _Slot, kill: bool = False) -> None:
        if kill and slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=5.0)
        if slot.process.is_alive():  # pragma: no cover - stuck in kernel
            slot.process.terminate()
            slot.process.join(timeout=1.0)
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover
            pass


class PoolBackend(SupervisedPoolBackend):
    """The ``pool`` backend: the supervised runner with its defaults.

    Kept as its own name so stats, spans and the CLI still say ``pool``.
    """

    name = "pool"


def _claim_order(n_shards: int, runner_id: str) -> List[int]:
    """Shard visit order for claims, staggered per runner id.

    N runners launched together would otherwise all race shard 0, lose
    N-1 claims, race shard 1, and so on.  A deterministic per-runner
    offset (``hash()`` is salted per process, so a byte sum instead)
    spreads the fleet across the shard space while keeping each runner's
    order reproducible.
    """
    if n_shards == 0:
        return []
    offset = sum(runner_id.encode()) % n_shards
    return [(offset + i) % n_shards for i in range(n_shards)]


class _Run:
    """One campaign executed over one store: the runner loop and merge.

    Every shard is *claimed* from the store under a heartbeat-renewed
    lease, so any number of independently launched runner processes
    share the campaign and steal from dead peers, and a shard already
    published — by a peer, or by an earlier run of this runner — is never
    graded again.  Two deliberate choices, each load-bearing:

    * grading runs in child processes, so the loop stays free to renew
      leases however long a shard takes;
    * the final merge reads *only* the store's published result files —
      including for shards graded here — so every runner's merged result
      is bit-identical to every other's (and to ``ppsfp``) by
      construction.
    """

    def __init__(self, backend, store, simulator, patterns, faults, drop):
        self.start_time = time.perf_counter()
        self.backend, self.config, self.store = backend, backend.config, store
        self.simulator, self.patterns, self.drop = simulator, patterns, drop
        self.n_patterns = len(patterns)
        self.universe = _unique(faults)
        jobs = backend.jobs if backend.jobs is not None else (os.cpu_count() or 1)
        self.jobs = max(1, jobs)
        n_partitions = (
            backend.partitions
            if backend.partitions is not None
            else default_partition_count(len(self.universe))
        )
        # Shards hold whole fanout-free regions, so their work counters
        # sum to the single-process run's.
        self.shards = partition_faults(
            self.universe, n_partitions, backend.seed, simulator.fault_region
        )
        # Lease events + supervision; each recorded shard's worker timeline
        # ships beside it (the published result keeps only deterministic
        # stats, so this is the only place those events survive).
        self.events = store.events
        self.worker_events: Dict[int, Dict[str, object]] = {}
        # Fires once, then is cleared.
        self.injection = (
            backend.host_chaos.for_runner(store.runner_id)
            if backend.host_chaos is not None
            else None
        )
        self.counters = dict.fromkeys(_RECOVERY_COUNTERS, 0)
        self.sources: Dict[int, str] = {}
        self.attempts_used: Dict[int, int] = {}
        self.metrics_lost: Dict[int, int] = {}
        self.failed: List[Dict[str, object]] = []
        # (partition, attempt, eligible-at monotonic time)
        self.pending: List[Tuple[int, int, float]] = []
        self.running: List[_Slot] = []
        self.leases: Dict[int, Lease] = {}
        self.abandoned: Set[int] = set()
        self.publish_queue: Dict[int, FaultSimResult] = {}
        self.published = 0  # store.publish calls that landed ...
        self.wins = 0  # ... and those that won first-write
        self.graded_faults = 0
        self.window_mode: Optional[str] = None  # live stall/partition window
        self.window_until = 0.0
        # The good response is only computed when this runner actually
        # grades something: a runner that finds the campaign already
        # finished pays nothing but the merge.
        self.good: Dict[str, object] = {}

    def good_chunks(self):
        if not self.good:
            self.good.update(_good_pass(self.simulator, self.patterns))
        return self.good["chunks"]

    def execute(self) -> FaultSimResult:
        store = self.store
        key = CampaignKey.build(
            self.simulator.netlist, self.patterns, self.universe,
            self.backend.seed, len(self.shards), self.drop,
        )
        store.initialize(key, len(self.shards))
        try:
            while not self._finished():
                if not self._step():
                    time.sleep(self.config.poll_interval_s)
        finally:
            # Also on KeyboardInterrupt: reap children and give the held
            # leases back at once (peers and a ``--resume`` rerun should
            # not wait out the deadline), then flush telemetry.
            for slot in self.running:
                self.backend._reap(slot, kill=True)
            for lease in self.leases.values():
                store.release(lease)
            store.write_events()
        swept = store.sweep()
        return self._merge(swept)

    # ------------------------------------------------------------------
    # Host chaos windows
    # ------------------------------------------------------------------

    def _in_window(self, modes, now: float) -> bool:
        return self.window_mode in modes and now < self.window_until

    def _reachable(self, now: float) -> bool:
        return not self._in_window((PARTITION,), now)

    def _maybe_fire_host_chaos(self) -> None:
        injection = self.injection
        if injection is None or self.published < injection.after_publishes:
            return
        self.injection = None
        self.events.emit(
            HOST_CHAOS, f"host_chaos:{injection.mode}",
            runner=self.store.runner_id, mode=injection.mode,
            after_publishes=injection.after_publishes,
            duration_s=injection.duration_s,
        )
        if injection.mode == KILL:
            # A host death: no lease release, no cleanup — peers must
            # steal the expired leases.  Flush telemetry only, so the
            # postmortem shows what this runner was holding.
            self.store.write_events()
            os._exit(HOST_KILL_EXIT_CODE)
        self.window_mode = injection.mode
        self.window_until = (
            float("inf")
            if injection.duration_s == 0
            else time.monotonic() + injection.duration_s
        )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _step(self) -> bool:
        """One pass of the loop; True when a slot finished, a result was
        published or a shard was claimed (the caller sleeps otherwise)."""
        store = self.store
        self._maybe_fire_host_chaos()
        now = time.monotonic()
        progressed = False

        # Renew leases we hold before peers can deem them expired.
        if self.leases and not self._in_window((STALL, PARTITION), now):
            for index, lease in list(self.leases.items()):
                if store.needs_renewal(lease):
                    renewed = store.renew(lease)
                    if renewed is None:
                        # Stolen (we renewed too late).  Keep grading: the
                        # duplicate publish converges first-write-wins, and
                        # aborting now would waste the work if the stealer
                        # dies too.
                        del self.leases[index]
                    else:
                        self.leases[index] = renewed

        for slot in list(self.running):
            outcome = self.backend._poll_slot(slot, now)
            if outcome is not None:
                progressed = True
                self.running.remove(slot)
                self._settle(slot, outcome)

        now = time.monotonic()
        if self.publish_queue and self._reachable(now):
            # The partition window healed: queued results land late and
            # converge idempotently against any peer that graded the same
            # shards meanwhile.
            progressed = True
            for index in sorted(self.publish_queue):
                self._publish(index, self.publish_queue.pop(index))

        if self._reachable(now):
            progressed |= self._claim()

        self.pending.sort(key=lambda item: (item[2], item[0]))
        while (
            len(self.running) < self.jobs
            and self.pending
            and self.pending[0][2] <= now
        ):
            index, attempt, _ = self.pending.pop(0)
            if self._reachable(now) and store.is_done(index):
                # A peer finished it between claim and spawn (stall/steal
                # overlap): don't grade it again.
                lease = self.leases.pop(index, None)
                if lease is not None:
                    store.release(lease)
                continue
            self.running.append(self.backend._spawn(self, index, attempt))
        return progressed

    def _claim(self) -> bool:
        """Claim work from the store (stealing expired leases as a side
        effect), at most one shard per free slot; True if any claimed."""
        busy = {slot.index for slot in self.running}
        busy.update(item[0] for item in self.pending)
        if len(busy) >= self.jobs:
            return False
        skip = (
            self.store.done_indices() | busy | self.abandoned
            | set(self.leases) | set(self.publish_queue)
        )
        claimed = False
        for index in _claim_order(len(self.shards), self.store.runner_id):
            if len(busy) >= self.jobs:
                break
            if index in skip:
                continue
            lease = self.store.try_claim(index)
            if lease is None:
                continue  # done, live peer, or lost race
            claimed = True
            self.leases[index] = lease
            self.pending.append((index, 0, 0.0))
            busy.add(index)
        return claimed

    def _finished(self) -> bool:
        """Every shard published, or every one left is poisoned here."""
        if (
            self.running or self.pending or self.publish_queue
            or not self._reachable(time.monotonic())
        ):
            return False
        done = self.store.done_indices()
        un_done = [i for i in range(len(self.shards)) if i not in done]
        if not un_done:
            return True  # campaign complete (by us, peers, or both)
        if not all(i in self.abandoned for i in un_done):
            return False
        # Every remaining shard is poisoned *here*; only degrade once no
        # live peer still holds any of them — a peer might yet publish.
        held = self.store.leases()
        wall = self.store.clock()
        return not any(
            index in held
            and held[index].deadline > wall
            and held[index].runner != self.store.runner_id
            for index in un_done
        )

    # ------------------------------------------------------------------
    # Attempt outcomes
    # ------------------------------------------------------------------

    def _settle(self, slot: _Slot, outcome: Tuple[str, object]) -> None:
        """Apply one finished worker attempt to the campaign.

        A valid partial is recorded.  Anything else — an invalid partial,
        a timeout kill, a crash or a reported error — is counted, put on
        the timeline, and then either requeued with backoff or, once the
        retries are spent, poisoned.
        """
        index, attempt = slot.index, slot.attempt
        counters, events = self.counters, self.events
        status, payload = outcome
        if status == "ok":
            reason = validate_partial(payload, self.shards[index], self.n_patterns)
            if reason is None:
                self._record(index, payload, "worker", attempt)
                return
            counters["invalid_results"] += 1
            events.emit(
                INVALID, "invalid_result",
                partition=index, attempt=attempt, reason=reason,
            )
            reason = f"invalid result: {reason}"
        elif status == "timeout":
            counters["timeouts"] += 1
            events.emit(
                TIMEOUT, "timeout_kill",
                partition=index, attempt=attempt,
                deadline_s=self.config.timeout_s,
            )
            reason = payload
        else:
            counters["worker_crashes"] += 1
            events.emit(
                CRASH, "worker_crash",
                partition=index, attempt=attempt, reason=str(payload)[:200],
            )
            reason = payload
        # The attempt did real work whose metrics never arrived: note the
        # loss so merged totals can be reported as a stated lower bound.
        self.metrics_lost[index] = self.metrics_lost.get(index, 0) + 1
        if attempt < self.config.max_retries:
            counters["retries"] += 1
            events.emit(
                RETRY, "retry",
                partition=index, attempt=attempt, reason=reason[:200],
            )
            eligible = time.monotonic() + self.config.backoff_s * (2 ** attempt)
            self.pending.append((index, attempt + 1, eligible))
            return
        self._poison(index, attempt, reason)

    def _poison(self, index: int, attempt: int, reason: str) -> None:
        """Pool retries exhausted: inline fallback, else mark failed and
        hand the shard back so a peer (with a healthier host) can try it;
        only if nobody can does the campaign degrade to a coverage lower
        bound."""
        shard = self.shards[index]
        chaos, n_patterns = self.backend.chaos, self.n_patterns
        if self.config.inline_fallback:
            self.counters["inline_fallbacks"] += 1
            attempt += 1
            self.events.emit(
                INLINE_FALLBACK, "inline_fallback",
                partition=index, attempt=attempt, reason=reason[:200],
            )
            try:
                if chaos is not None:
                    chaos.execute_pre(index, attempt, inline=True)
                partial = self.simulator._simulate_ppsfp(
                    None, shard, self.drop,
                    good_chunks=self.good_chunks(), n_patterns=n_patterns,
                )
                if chaos is not None:
                    partial = chaos.corrupt_result(
                        index, attempt, partial, n_patterns
                    )
                invalid = validate_partial(partial, shard, n_patterns)
                if invalid is None:
                    partial.stats["metrics"] = partition_metrics(partial)
                    self._record(index, partial, "inline", attempt)
                    return
                reason = f"inline fallback invalid result: {invalid}"
            except Exception as exc:  # not KeyboardInterrupt: that ends the run
                reason = f"inline fallback failed: {type(exc).__name__}: {exc}"
        self.failed.append(
            {
                "partition": index,
                "faults": len(shard),
                "attempts": attempt + 1,
                "reason": reason,
            }
        )
        lease = self.leases.pop(index, None)
        if lease is not None:
            self.store.release(lease)
        self.abandoned.add(index)

    def _record(self, index: int, partial: FaultSimResult, source: str,
                attempt: int) -> None:
        self.sources[index] = source
        self.attempts_used[index] = attempt + 1
        self.graded_faults += partial.total_faults
        if partial.stats.get("worker_events"):
            self.worker_events[index] = partial.stats["worker_events"]
        if not self._reachable(time.monotonic()):
            self.publish_queue[index] = partial  # lands late, converges
            return
        self._publish(index, partial)

    def _publish(self, index: int, partial: FaultSimResult) -> None:
        # Publishing also drops this runner's lease file on the shard.
        if self.store.publish(index, partial):
            self.wins += 1
        self.published += 1
        self.leases.pop(index, None)
        # Campaign heartbeat on every publish: the live progress gauges
        # the trace exporter renders as a counter series.
        self.events.emit(
            HEARTBEAT, "progress",
            partition=index,
            faults_graded=self.graded_faults,
            faults_total=len(self.universe),
            partitions_done=len(self.store.done_indices()),
            partitions_total=len(self.shards),
        )

    # ------------------------------------------------------------------
    # Merge and stats
    # ------------------------------------------------------------------

    def _merge(self, swept: int) -> FaultSimResult:
        """Merge exclusively from the store's published bytes — shards
        this runner graded included — so all runners converge
        bit-identically.  A shard this run did not grade was published
        either by an earlier run under this runner id (resumed) or by a
        peer."""
        store, shards, sources = self.store, self.shards, self.sources
        results = store.load_results()
        for index, partial in results.items():
            reason = validate_partial(partial, shards[index], self.n_patterns)
            if reason is not None:
                raise StoreCorruptionError(
                    f"shard {index}: the result published in {store.root!r} "
                    f"does not grade this campaign's shard ({reason}); "
                    f"refusing to merge"
                )
            if index not in sources:
                mine = partial.stats.get("published_by") == store.runner_id
                sources[index] = "resumed" if mine else "peer"
        result = merge_results(
            [results[i] for i in sorted(results)], self.universe,
            self.n_patterns, self.drop,
        )
        self.counters["steals"] = store.steals
        self.counters["publish_conflicts"] = store.publish_conflicts
        counts = Counter(sources.values())
        self._fill_stats(result, results, resumed=counts["resumed"])
        result.stats["store"] = {
            "path": store.root,
            "runner_id": store.runner_id,
            "lease_s": store.lease_s,
            "n_shards": len(shards),
            "shards_graded_here": counts["worker"] + counts["inline"],
            "published": self.wins,
            "publish_conflicts": store.publish_conflicts,
            "steals": store.steals,
            "leases_swept": swept,
            "finished_by_peers": (
                self.wins == 0 and counts["peer"] > 0
                and len(results) >= len(shards)
            ),
        }
        return result

    def _fill_stats(self, result, results, resumed: int) -> None:
        """Fill ``result.stats`` for a merged campaign."""
        metrics_lost = self.metrics_lost
        per_partition: List[Dict[str, object]] = []
        merged = MetricRegistry()
        for index in sorted(results):
            partial = results[index]
            stats = partial.stats
            # A published result without a registry (written by hand or by
            # another tool) is rebuilt from the kept stats, so the merge
            # stays total.
            merged.merge_dict(stats.get("metrics") or partition_metrics(partial))
            row = {
                "partition": index,
                "faults": len(self.shards[index]),
                "detected": len(partial.detected),
                "events_propagated": stats.get("events_propagated", 0),
                "words_evaluated": stats.get("words_evaluated", 0),
                "wall_time_s": stats.get("wall_time_s", 0.0),
                "source": self.sources.get(index, "worker"),
                "attempts": self.attempts_used.get(index, 1),
            }
            if metrics_lost.get(index):
                # Timeout-killed / crashed attempts did work whose
                # metrics never arrived: state it, don't hide it.
                row["metrics_lost_attempts"] = metrics_lost[index]
            per_partition.append(row)
        walls = [p["wall_time_s"] for p in per_partition if p["wall_time_s"] > 0]
        imbalance = (max(walls) / (sum(walls) / len(walls))) if walls else 1.0
        total_lost = sum(metrics_lost.values())
        if total_lost:
            # Make the loss visible *inside* the merged registry, next to
            # the counters it undercuts: consumers see the totals are a
            # lower bound without cross-referencing the partition list.
            merged.counter("faultsim.metrics_lost_attempts").add(total_lost)
        # ``good`` stays empty when this runner graded nothing.
        good = self.good
        good_words = good.get("words", 0)
        result.stats.update(
            engine=self.backend.name,
            jobs=self.jobs,
            seed=self.backend.seed,
            word_width=self.simulator.word_width,
            faults_simulated=result.total_faults,
            n_partitions=len(self.shards),
            partitions=per_partition,
            # Derived from the merged worker registries rather than the raw
            # partition list: the production totals ride the same
            # associative merge the observability layer guarantees.
            events_propagated=merged.counter("faultsim.events_propagated").value,
            stems_propagated=merged.counter("faultsim.stems_propagated").value,
            words_evaluated=good_words
            + merged.counter("faultsim.words_evaluated").value,
            good_words_evaluated=good_words,
            good_cache_hits=good.get("hits", 0),
            load_imbalance=round(imbalance, 3),
            good_response_s=good.get("seconds", 0.0),
            wall_time_s=time.perf_counter() - self.start_time,
            resumed=resumed,
            metrics=merged.to_dict(),
            **self.counters,
        )
        if total_lost:
            result.stats["metrics_lost_attempts"] = total_lost
            result.stats["metrics_lower_bound"] = True
        payloads = [self.events.to_payload()] if len(self.events) else []
        payloads += [self.worker_events[i] for i in sorted(self.worker_events)]
        if payloads:
            result.stats["events"] = payloads
        if self.failed:
            result.stats["failed_partitions"] = self.failed
            result.stats["coverage_lower_bound"] = result.coverage
