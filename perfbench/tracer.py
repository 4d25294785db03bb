"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: :meth:`Tracer.install`
replaces the public functions of each ``repro`` layer with thin wrappers
that append one record per call, and :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

A record is ``[name, parent, start, end, info]``: ``parent`` is the index
of the enclosing record (``-1`` for a root), times come from
``time.perf_counter()``, and ``info`` is whatever the layer's result
summariser kept (fault-sim stats, an ATPG outcome, whether a cube
encoded).  Records stay in a list until the run ends; :func:`run_report`
turns them into a ``repro.obs`` RunReport, so ``repro obs diff`` and the
Chrome-trace exporter read them like any other run.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, PARENT, START, END, INFO = range(5)

#: Percentiles tried for ``tail_ms``, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_MIN_BEYOND = 10

#: Per-layer self times that partition the traced flow call: their sum is
#: ``flow.wall_s``.
SELF_TIME_METRICS = (
    "flow.unattributed_s",
    "sim.compile_s",
    "sim.simulate.self_s",
    "atpg.podem.self_s",
    "atpg.guided.self_s",
    "atpg.dalg.self_s",
    "atpg.portfolio.self_s",
    "atpg.scoap_s",
    "atpg.compact_s",
    "compression.solve_cube.self_s",
    "compression.expand.self_s",
    "bist.prpg.self_s",
    "bist.signature.self_s",
)


def _sim_info(result) -> Tuple[int, int, int, int]:
    stats = result.stats
    return (
        stats["events_propagated"],
        stats["words_evaluated"],
        stats["good_passes"],
        stats["good_cache_hits"],
    )


def _atpg_info(result) -> Tuple[str, int]:
    return result.status, result.backtracks


def _solve_info(result) -> bool:
    return result is not None


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, result summariser)`` per wrapper."""
    from repro.atpg import dalg, engine, guided, podem, portfolio
    from repro.bist import lbist
    from repro.compression import decompressor
    from repro.faults import collapse
    from repro.scan import insertion
    from repro.sim import faultsim

    simulator = faultsim.FaultSimulator
    controller = lbist.StumpsController
    return [
        (collapse, "collapse_faults", "faults.collapse", None),
        (insertion, "insert_scan", "scan.insert", None),
        (simulator, "__init__", "sim.compile", None),
        (simulator, "simulate", "sim.simulate", _sim_info),
        (podem.Podem, "generate", "atpg.podem", _atpg_info),
        (guided.GuidedPodem, "generate", "atpg.guided", _atpg_info),
        (dalg.DAlgorithm, "generate", "atpg.dalg", _atpg_info),
        (portfolio.PortfolioAtpg, "generate", "atpg.portfolio", _atpg_info),
        # Both modules bind compute_testability by name; patch each.
        (podem, "compute_testability", "atpg.scoap", None),
        (portfolio, "compute_testability", "atpg.scoap", None),
        (engine, "static_compact", "atpg.compact", None),
        (decompressor.Decompressor, "solve_cube", "compression.solve_cube", _solve_info),
        (decompressor.Decompressor, "expand", "compression.expand", None),
        (controller, "generate_patterns", "bist.prpg", None),
        (controller, "good_signature", "bist.signature", None),
    ]


class Tracer:
    """Span recorder; a disabled tracer records nothing and wraps nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[list] = []
        self._stack: List[int] = [-1]
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, self._stack[-1], time.perf_counter(), 0.0, None]
        self._stack.append(len(self.records))
        self.records.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, function: Callable, name: str, summarise: Optional[Callable] = None):
        """``function`` with every call recorded as a span named ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(record)
            if summarise is not None:
                record[INFO] = summarise(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers around the program's layers
    # ------------------------------------------------------------------

    def install(self) -> None:
        if not self.enabled or self._installed:
            return
        for owner, attribute, name, summarise in _targets():
            # vars(): the attribute must be the owner's own, so putting the
            # original back never leaves a copy on a subclass.
            original = vars(owner)[attribute]
            setattr(owner, attribute, self.wrap(original, name, summarise))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


class FirstCallProbe:
    """Captures the result of the first ``FaultSimulator.simulate`` call,
    then takes itself out so later calls pay nothing."""

    def __init__(self):
        from repro.sim.faultsim import FaultSimulator

        self.owner = FaultSimulator
        self.inner = FaultSimulator.simulate
        self.first_stats: Optional[Dict[str, object]] = None
        probe = self

        def first_simulate(*args, **kwargs):
            probe.remove()
            result = probe.inner(*args, **kwargs)
            probe.first_stats = dict(result.stats)
            return result

        FaultSimulator.simulate = first_simulate

    def remove(self) -> None:
        self.owner.simulate = self.inner


# ----------------------------------------------------------------------
# Arithmetic over finished records
# ----------------------------------------------------------------------


def self_times(records: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    selfs = [record[END] - record[START] for record in records]
    for record in records:
        parent = record[PARENT]
        if parent >= 0:
            selfs[parent] -= record[END] - record[START]
    return selfs


def subtree(records: Sequence[list], root: int) -> List[int]:
    """Indices of ``root`` and every span nested under it."""
    inside = {root}
    for index in range(root + 1, len(records)):
        if records[index][PARENT] in inside:
            inside.add(index)
    return sorted(inside)


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples; rounding
    first keeps 99.9% of 10000 at rank 9990, not 9991."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND`` of
    ``count`` samples strictly beyond its nearest rank, or None."""
    best = None
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def latency_metrics(prefix: str, durations: Sequence[float]) -> Dict[str, float]:
    """``calls``, ``p50_ms``, ``tail_ms`` and ``tail_pct`` for one layer,
    from the calls' durations children included.

    With too few calls for any tail, ``tail_ms`` and ``tail_pct`` are 0.
    """
    metrics = {f"{prefix}.calls": len(durations)}
    if not durations:
        metrics.update({f"{prefix}.p50_ms": 0.0, f"{prefix}.tail_ms": 0.0, f"{prefix}.tail_pct": 0.0})
        return metrics
    metrics[f"{prefix}.p50_ms"] = percentile(durations, 50.0) * 1e3
    pct = tail_percentile(len(durations))
    metrics[f"{prefix}.tail_ms"] = 0.0 if pct is None else percentile(durations, pct) * 1e3
    metrics[f"{prefix}.tail_pct"] = 0.0 if pct is None else pct
    return metrics


def layer_metrics(records: Sequence[list]) -> Dict[str, float]:
    """Every per-layer metric the traced run reports, from its records.

    Expects one ``setup`` and one ``flow`` root span.  Self times of the
    ``flow`` subtree partition its duration exactly, so
    ``flow.unattributed_s`` plus the ``*.self_s``/``*_s`` layer times sums
    to ``flow.wall_s``.
    """
    roots = {records[i][NAME]: i for i in range(len(records)) if records[i][PARENT] < 0}
    selfs = self_times(records)

    def spans_named(name: str, within: Sequence[int]) -> List[int]:
        return [i for i in within if records[i][NAME] == name]

    def total_self(name: str, within: Sequence[int]) -> float:
        return sum(selfs[i] for i in spans_named(name, within))

    setup = subtree(records, roots["setup"])
    flow_root = roots["flow"]
    flow = subtree(records, flow_root)

    def duration(i: int) -> float:
        return records[i][END] - records[i][START]

    out: Dict[str, float] = {
        "circuit.build_s": total_self("circuit.build", setup),
        "faults.collapse_s": total_self("faults.collapse", setup),
        "scan.insert_s": total_self("scan.insert", setup),
        "flow.wall_s": duration(flow_root),
        "flow.unattributed_s": selfs[flow_root],
    }
    sims = spans_named("sim.simulate", flow)
    out.update(latency_metrics("sim.simulate", [duration(i) for i in sims]))
    out["sim.simulate.self_s"] = total_self("sim.simulate", flow)
    for offset, key in enumerate(("events_propagated", "words_evaluated", "good_passes", "good_cache_hits")):
        out[f"sim.{key}"] = sum(records[i][INFO][offset] for i in sims)
    out["sim.compile_s"] = total_self("sim.compile", flow)

    engine_names = ("atpg.podem", "atpg.guided", "atpg.dalg", "atpg.portfolio")
    for name in engine_names[:3]:
        spans = spans_named(name, flow)
        out.update(latency_metrics(name, [duration(i) for i in spans]))
        out[f"{name}.self_s"] = total_self(name, flow)
    out["atpg.portfolio.self_s"] = total_self("atpg.portfolio", flow)
    # Outermost engine calls only: a portfolio outcome already sums its
    # members' backtracks.
    outer = [
        i
        for i in flow
        if records[i][NAME] in engine_names
        and records[records[i][PARENT]][NAME] not in engine_names
    ]
    out["atpg.backtracks"] = sum(records[i][INFO][1] for i in outer)
    settled = sum(1 for i in outer if records[i][INFO][0] != "aborted")
    out["atpg.settled_ratio"] = settled / len(outer) if outer else 0.0
    out["atpg.scoap_s"] = total_self("atpg.scoap", flow)
    out["atpg.compact_s"] = total_self("atpg.compact", flow)

    solves = spans_named("compression.solve_cube", flow)
    out["compression.solve_cube.calls"] = len(solves)
    out["compression.solve_cube.self_s"] = total_self("compression.solve_cube", flow)
    solved = sum(1 for i in solves if records[i][INFO])
    out["compression.encode_ratio"] = solved / len(solves) if solves else 0.0
    out["compression.expand.self_s"] = total_self("compression.expand", flow)

    out["bist.prpg.self_s"] = total_self("bist.prpg", flow)
    out["bist.signature.self_s"] = total_self("bist.signature", flow)
    return out


def call_counts(records: Sequence[list]) -> Dict[str, int]:
    """Calls per span name — exact counts the determinism gate compares."""
    counts: Dict[str, int] = {}
    for record in records:
        counts[record[NAME]] = counts.get(record[NAME], 0) + 1
    return dict(sorted(counts.items()))


def run_report(records: Sequence[list], name: str, labels: Dict[str, str], layers: Dict[str, float]):
    """A ``repro.obs`` RunReport: the span tree, with ``layers`` as the
    payload ``repro obs diff`` compares (``*_s`` as wall times,
    ``events_propagated``/``words_evaluated``/``good_passes`` exactly)."""
    from repro.obs import RunReport

    epoch = min((record[START] for record in records), default=0.0)
    nodes = [
        {
            "name": record[NAME],
            "labels": {},
            "start_s": record[START] - epoch,
            "wall_time_s": record[END] - record[START],
            "children": [],
        }
        for record in records
    ]
    roots = []
    for record, node in zip(records, nodes):
        (nodes[record[PARENT]]["children"] if record[PARENT] >= 0 else roots).append(node)
    end = max((record[END] for record in records), default=epoch)
    span = {
        "name": name,
        "labels": dict(labels),
        "start_s": 0.0,
        "wall_time_s": end - epoch,
        "children": roots,
    }
    return RunReport(
        name=name,
        labels=dict(labels),
        span=span,
        payload=dict(layers),
        generated_unix_s=time.time(),
    )
