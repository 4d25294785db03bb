"""Top-level ATPG flow: random phase + deterministic PODEM top-off.

The production recipe the tutorial describes:

1. collapse the stuck-at universe,
2. burn down easy faults with random patterns (cheap, massively effective
   early — each 64-pattern word is one PPSFP pass),
3. run PODEM on every survivor, fault-simulating each new test against the
   remaining list so one deterministic pattern usually kills several faults
   (dynamic compaction through fault dropping),
4. optionally statically compact the deterministic cubes, X-fill, and
   verify final coverage with one more fault-simulation pass.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..circuit.netlist import Netlist
from ..circuit.values import X
from ..faults.collapse import collapse_faults
from ..faults.model import StuckAtFault
from ..faults.stuck_at import full_fault_list
from ..sim.faultsim import FaultSimulator
from ..sim.parallel import WORD_WIDTH
from ..sim.store import ShardStore, check_store_root
from ..sim.supervisor import RESUME_RUNNER_ID, SupervisedPoolBackend
from .compaction import care_bit_stats, static_compact
from .portfolio import make_engine
from .random_gen import random_patterns


def x_fill(cube: Sequence[int], rng: random.Random, mode: str = "random") -> List[int]:
    """Fill a cube's X positions: ``random``, ``zero``, ``one``, ``repeat``.

    ``repeat`` copies the previous specified bit (reduces shift power in
    scan chains — the fill commercial tools call "adjacent fill").
    """
    filled: List[int] = []
    last = 0
    for value in cube:
        if value != X:
            filled.append(value)
            last = value
        elif mode == "random":
            bit = rng.randint(0, 1)
            filled.append(bit)
            last = bit
        elif mode == "zero":
            filled.append(0)
        elif mode == "one":
            filled.append(1)
        elif mode == "repeat":
            filled.append(last)
        else:
            raise ValueError(f"unknown fill mode {mode!r}")
    return filled


@dataclass
class AtpgResult:
    """Everything the flow produced, plus bookkeeping for the E1 table."""

    patterns: List[List[int]] = field(default_factory=list)
    cubes: List[List[int]] = field(default_factory=list)
    total_faults: int = 0
    detected_random: int = 0
    detected_deterministic: int = 0
    untestable: List[StuckAtFault] = field(default_factory=list)
    aborted: List[StuckAtFault] = field(default_factory=list)
    #: Why PODEM gave up, per aborted fault: "backtracks" or "time".
    #: Aborted faults are unresolved-within-budget, NOT proven untestable,
    #: so they stay in the fault-coverage denominator.
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    consistency_errors: List[StuckAtFault] = field(default_factory=list)
    random_pattern_count: int = 0
    cpu_seconds: float = 0.0
    #: Deterministic engine used for phase 2 ("podem", "dalg", "guided",
    #: or "portfolio").
    engine: str = "podem"
    #: Engine that settled each deterministic fault (detected or proved
    #: untestable), keyed by engine name.  For single engines the only
    #: key is the engine itself; the portfolio attributes per member.
    winner_engines: Dict[str, int] = field(default_factory=dict)
    #: Per-engine abort reasons for faults no engine settled — the audit
    #: trail that makes every abort explained, never silent.
    engine_abort_reasons: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Implications (gate re-evaluations) each deterministic engine spent
    #: in phase 2, keyed by engine name: a deterministic work counter.
    engine_implications: Dict[str, int] = field(default_factory=dict)

    @property
    def detected(self) -> int:
        return self.detected_random + self.detected_deterministic

    @property
    def fault_coverage(self) -> float:
        """Detected / all faults."""
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults

    @property
    def test_coverage(self) -> float:
        """Detected / (all faults − proven untestable)."""
        testable = self.total_faults - len(self.untestable)
        if testable <= 0:
            return 1.0
        return self.detected / testable

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "patterns": len(self.patterns),
            "faults": self.total_faults,
            "fault_coverage": round(self.fault_coverage, 4),
            "test_coverage": round(self.test_coverage, 4),
            "untestable": len(self.untestable),
            "aborted": len(self.aborted),
            "random_patterns": self.random_pattern_count,
            "cpu_s": round(self.cpu_seconds, 3),
        }
        summary["proved_untestable"] = len(self.untestable)
        summary["engine"] = self.engine
        if self.abort_reasons.get("time"):
            summary["aborted_timeout"] = self.abort_reasons["time"]
        if self.winner_engines:
            summary["winner_engine"] = dict(sorted(self.winner_engines.items()))
        if self.engine_abort_reasons:
            summary["engine_abort_reasons"] = {
                name: dict(sorted(reasons.items()))
                for name, reasons in sorted(self.engine_abort_reasons.items())
            }
        if self.consistency_errors:
            summary["consistency_errors"] = len(self.consistency_errors)
        return summary


def run_atpg(
    netlist: Netlist,
    faults: Optional[Sequence[StuckAtFault]] = None,
    random_batches: int = 8,
    min_batch_yield: int = 1,
    backtrack_limit: int = 64,
    fill_mode: str = "random",
    compact: bool = True,
    seed: int = 0,
    backend: object = "ppsfp",
    jobs: Optional[int] = None,
    partitions: Optional[int] = None,
    word_width: int = WORD_WIDTH,
    podem_time_budget_s: Optional[float] = None,
    resume: Optional[str] = None,
    engine: str = "podem",
) -> AtpgResult:
    """Run the full stuck-at ATPG flow on ``netlist``.

    ``random_batches`` bounds the random phase (``word_width`` patterns per
    batch — one packed simulation word each); the phase also stops early
    when a batch detects fewer than ``min_batch_yield`` new faults.
    Deterministic cubes are statically compacted when ``compact`` is set,
    then X-filled with ``fill_mode``.

    ``backend``/``jobs``/``partitions`` pick the fault-simulation engine
    for the batch passes (random phase, final verification, coverage
    top-off) — a name from :data:`repro.sim.dispatch.BACKEND_NAMES` or a
    ready backend instance.  ``resume`` names a directory: the batch
    passes then run under the supervised backend, each pass publishing
    its graded shards to its own shard store ``resume/0000``,
    ``resume/0001``, … in flow order (each pattern set is its own
    campaign), so a killed run resumes without re-grading them.
    ``podem_time_budget_s`` caps each PODEM search's wall
    clock, so one pathological fault aborts (counted separately in
    :meth:`AtpgResult.summary` — aborted is not untestable) instead of
    stalling the campaign; it applies to whichever deterministic
    ``engine`` runs phase 2 (the portfolio splits it across members).
    ``engine`` picks the deterministic generator — ``"podem"`` (default),
    ``"dalg"`` (D-algorithm, proves untestability), ``"guided"``
    (SCOAP-guided restarts), or ``"portfolio"`` (all three raced per
    fault; see :mod:`repro.atpg.portfolio`).  ``word_width`` sets the
    patterns packed per simulation word; results are identical for every
    width.  The per-cube dynamic-dropping sims inside phase 2 always run
    single-process PPSFP: they grade one pattern at a time, where pool
    dispatch is pure overhead.
    """
    start = time.perf_counter()
    netlist.finalize()
    if faults is None:
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = FaultSimulator(netlist, word_width=word_width)
    rng = random.Random(seed)
    result = AtpgResult(total_faults=len(faults), engine=engine)
    remaining = list(faults)
    n_inputs = simulator.view.num_inputs

    passes = itertools.count()
    if resume is not None:
        if not isinstance(backend, str):
            raise ValueError(
                "resume= runs the batch passes under its own supervised "
                "backend; pass backend by name"
            )
        check_store_root(resume)

    def batch_sim(patterns, fault_list, drop=True):
        engine = backend
        if resume is not None:
            store = ShardStore(
                os.path.join(resume, f"{next(passes):04d}"),
                runner_id=RESUME_RUNNER_ID,
            )
            engine = SupervisedPoolBackend(
                jobs=jobs, seed=seed, partitions=partitions, store=store
            )
        return simulator.simulate(
            patterns,
            fault_list,
            drop=drop,
            engine=engine,
            jobs=jobs,
            seed=seed,
            partitions=partitions,
        )

    # ------------------------------------------------------------------
    # Phase 1: random patterns with fault dropping.
    # ------------------------------------------------------------------
    kept_patterns: List[List[int]] = []
    with obs.span("random_fill"):
        for batch in range(random_batches):
            if not remaining:
                break
            batch_patterns = random_patterns(
                n_inputs, word_width, seed=seed * 1000 + batch
            )
            sim = batch_sim(batch_patterns, remaining)
            if sim.detected:
                used = sorted(set(sim.detected.values()))
                kept_patterns.extend(batch_patterns[index] for index in used)
                result.detected_random += len(sim.detected)
                remaining = [f for f in remaining if f not in sim.detected]
            result.random_pattern_count += len(batch_patterns)
            if len(sim.detected) < min_batch_yield:
                break

    # ------------------------------------------------------------------
    # Phase 2: deterministic generation with dynamic fault dropping.
    # ------------------------------------------------------------------
    generator = make_engine(
        engine,
        netlist,
        backtrack_limit=backtrack_limit,
        time_budget_s=podem_time_budget_s,
    )
    cubes: List[List[int]] = []
    phase2_fills: List[List[int]] = []
    queue = list(remaining)
    undetected = set(remaining)
    # Per aborted fault: (reason, {engine: reason}); tallied once the final
    # pattern set has had its chance to detect the fault.
    abort_trail: Dict[StuckAtFault, tuple] = {}
    with obs.span("podem"):
        for fault in queue:
            if fault not in undetected:
                continue
            outcome = generator.generate(fault)
            work = getattr(outcome, "engine_implications", None) or {
                engine: outcome.implications
            }
            for member, count in work.items():
                result.engine_implications[member] = (
                    result.engine_implications.get(member, 0) + count
                )
            winner = getattr(outcome, "winner", None)
            if outcome.status != "aborted":
                settled_by = winner or engine
                result.winner_engines[settled_by] = (
                    result.winner_engines.get(settled_by, 0) + 1
                )
            if outcome.status == "untestable":
                result.untestable.append(fault)
                undetected.discard(fault)
                continue
            if outcome.status == "aborted":
                result.aborted.append(fault)
                reason = outcome.reason or "backtracks"
                per_engine = getattr(outcome, "engine_reasons", None) or {
                    engine: reason
                }
                abort_trail[fault] = (reason, per_engine)
                undetected.discard(fault)
                continue
            cube = outcome.cube
            assert cube is not None
            cubes.append(cube)
            # Dynamic compaction: the filled test usually detects extra
            # faults.
            filled = x_fill(cube, rng, fill_mode)
            phase2_fills.append(filled)
            sim = simulator.simulate([filled], list(undetected), drop=True)
            result.detected_deterministic += len(sim.detected)
            for detected_fault in sim.detected:
                undetected.discard(detected_fault)
            if fault in undetected:
                # A correct PODEM cube detects its target under *any* X fill
                # (implication already proved a D at an observation point),
                # so fault simulation must confirm it.  Anything else is an
                # engine inconsistency worth surfacing, not silently
                # absorbing.
                undetected.discard(fault)
                result.consistency_errors.append(fault)

    with obs.span("compact"):
        if compact and cubes:
            cubes = static_compact(cubes)
        deterministic_patterns = [x_fill(cube, rng, fill_mode) for cube in cubes]
    result.cubes = cubes
    result.patterns = kept_patterns + deterministic_patterns

    # Compaction re-fills merged cubes, so detections credited to a
    # *particular* random fill during dynamic dropping can be lost.  Verify
    # the final set and top off from the phase-2 fills (each known-good).
    if compact and phase2_fills:
        with obs.span("top_off"):
            excluded = (
                set(result.untestable)
                | set(result.aborted)
                | set(result.consistency_errors)
            )
            counted = [f for f in faults if f not in excluded]
            check = batch_sim(result.patterns, counted)
            missing = [f for f in counted if f not in check.detected]
            # Top off one fill at a time: each fill was already simulated as
            # a single-pattern block during phase 2, so every good-machine
            # block here comes straight from the response cache — no
            # recomputation.
            for fill in phase2_fills:
                if not missing:
                    break
                topoff = simulator.simulate([fill], missing, drop=True)
                if topoff.detected:
                    result.patterns.append(fill)
                    missing = [f for f in missing if f not in topoff.detected]

    # An aborted fault left the phase-2 fault list when it aborted, so no
    # later fill and no compacted pattern was ever graded against it; the
    # random patterns all were.  Credit whatever the deterministic part of
    # the final set detects.
    deterministic_part = result.patterns[len(kept_patterns):]
    if result.aborted and deterministic_part:
        credited = simulator.simulate(
            deterministic_part, result.aborted, drop=True
        ).detected
        result.detected_deterministic += len(credited)
        result.aborted = [f for f in result.aborted if f not in credited]
    for fault in result.aborted:
        reason, per_engine = abort_trail[fault]
        result.abort_reasons[reason] = result.abort_reasons.get(reason, 0) + 1
        for member, member_reason in per_engine.items():
            member_counts = result.engine_abort_reasons.setdefault(member, {})
            member_counts[member_reason] = member_counts.get(member_reason, 0) + 1

    result.cpu_seconds = time.perf_counter() - start
    _publish_atpg(result)
    return result


def _publish_atpg(result: AtpgResult) -> None:
    """Mirror an :class:`AtpgResult` into the active observation."""
    observation = obs.current()
    if observation is None:
        return
    observation.add_counters(
        "atpg",
        {
            "faults": result.total_faults,
            "random_patterns": result.random_pattern_count,
            "detected_random": result.detected_random,
            "detected_deterministic": result.detected_deterministic,
            "untestable": len(result.untestable),
            "aborted": len(result.aborted),
            "consistency_errors": len(result.consistency_errors),
            "patterns": len(result.patterns),
            "cubes": len(result.cubes),
            "implications": sum(result.engine_implications.values()),
        },
    )
    if result.winner_engines:
        observation.add_counters(
            "atpg.winner",
            {name: count for name, count in sorted(result.winner_engines.items())},
        )
    obs.set_gauge("atpg.fault_coverage", result.fault_coverage)
    obs.set_gauge("atpg.test_coverage", result.test_coverage)


def atpg_table_row(netlist: Netlist, result: AtpgResult) -> Dict[str, object]:
    """One row of the E1 summary table for a finished run."""
    row: Dict[str, object] = {"circuit": netlist.name}
    row.update(netlist.stats())
    row.update(result.summary())
    if result.cubes:
        care, total, density = care_bit_stats(result.cubes)
        row["care_bit_density"] = round(density, 4)
    return row
