"""Campaign journal: JSONL checkpoint/resume for fault-sim campaigns.

An accelerator-scale fault-simulation campaign (Sadi & Guin's yield-loss
setting) runs for hours; losing it to one OOM kill and restarting from
zero is exactly the fragility the tutorial warns about in the chips
themselves.  The journal makes completed work durable: every graded
partition is appended — and flushed — as one JSON line, so a killed
campaign resumes by replaying the file and re-running only the shards
that never finished.  Because partitioning is deterministic (seeded
shuffle, partition count independent of worker count), the resumed merge
is bit-identical to an uninterrupted run.

A journal file is a sequence of *sections*.  Each section starts with a
``header`` line carrying a :class:`CampaignKey` — the netlist's
structural signature, digests of the pattern set and fault universe, the
partition seed, count and sharding scheme, and the drop flag — followed
by ``partition`` lines holding serialized per-shard results.  Results are
only valid for an identical campaign, so resume matches the *whole* key;
several campaigns (e.g. the random-phase batches and the verify pass of
one ``run_atpg`` flow) can safely share one file, each finding only its
own sections.

Stuck-at faults serialize as ``[gate, pin, value]`` triples — the frozen
dataclass round-trips losslessly through
:func:`repro.faults.model.StuckAtFault`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..faults.model import StuckAtFault
from .dispatch import SHARDING_SCHEME
from .faultsim import FaultSimResult

JOURNAL_VERSION = 1

#: Per-partition stats fields preserved through a journal round-trip.
#: ``metrics`` is the worker's serialized metric registry (plain dicts,
#: JSON-safe) so replayed partials merge into observations like fresh ones.
_KEPT_STATS = (
    "events_propagated",
    "stems_propagated",
    "words_evaluated",
    "wall_time_s",
    "metrics",
)


class JournalMismatchError(ValueError):
    """A strict journal holds no section matching the requested campaign."""


def pattern_digest(patterns: Sequence[Sequence[int]]) -> str:
    """Stable digest of a pattern set (order- and value-sensitive)."""
    hasher = hashlib.sha256()
    hasher.update(f"{len(patterns)}:".encode())
    for pattern in patterns:
        hasher.update(bytes(int(bit) & 1 for bit in pattern))
        hasher.update(b";")
    return hasher.hexdigest()[:24]


def fault_digest(faults: Iterable[StuckAtFault]) -> str:
    """Stable digest of a fault universe (order-insensitive)."""
    hasher = hashlib.sha256()
    for gate, pin, value in sorted((f.gate, f.pin, f.value) for f in faults):
        hasher.update(f"{gate},{pin},{value};".encode())
    return hasher.hexdigest()[:24]


@dataclass(frozen=True)
class CampaignKey:
    """Identity of one shardable campaign; journal entries bind to it.

    ``sharding`` names the partitioning rule, so shards cut by another
    rule never merge into this campaign.
    """

    signature: str
    patterns: str
    faults: str
    seed: int
    partitions: int
    drop: bool
    sharding: str = SHARDING_SCHEME

    @classmethod
    def build(
        cls,
        netlist,
        patterns: Sequence[Sequence[int]],
        universe: Iterable[StuckAtFault],
        seed: int,
        partitions: int,
        drop: bool,
    ) -> "CampaignKey":
        return cls(
            signature=netlist.structural_signature(),
            patterns=pattern_digest(patterns),
            faults=fault_digest(universe),
            seed=seed,
            partitions=partitions,
            drop=drop,
        )


def serialize_partial(index: int, partial: FaultSimResult) -> Dict[str, object]:
    """JSON-safe form of one shard result (shared with :mod:`repro.sim.store`)."""
    return {
        "kind": "partition",
        "index": index,
        "total": partial.total_faults,
        "patterns_simulated": partial.patterns_simulated,
        "detected": [
            [f.gate, f.pin, f.value, first]
            for f, first in sorted(
                partial.detected.items(), key=lambda kv: (kv[0].gate, kv[0].pin, kv[0].value)
            )
        ],
        "undetected": [[f.gate, f.pin, f.value] for f in partial.undetected],
        "stats": {
            k: partial.stats[k] for k in _KEPT_STATS if k in partial.stats
        },
    }


def deserialize_partial(line: Dict[str, object]) -> FaultSimResult:
    """Rebuild a :class:`FaultSimResult` from :func:`serialize_partial` output."""
    partial = FaultSimResult(total_faults=int(line["total"]))
    for gate, pin, value, first in line["detected"]:
        partial.detected[StuckAtFault(gate, pin, value)] = int(first)
    partial.undetected = [
        StuckAtFault(gate, pin, value) for gate, pin, value in line["undetected"]
    ]
    partial.patterns_simulated = int(line["patterns_simulated"])
    partial.stats.update(line.get("stats", {}))
    partial.stats["journaled"] = True
    return partial


class CampaignJournal:
    """Append-only JSONL log of completed campaign partitions.

    ``strict=True`` makes :meth:`begin` raise :class:`JournalMismatchError`
    when the file already holds sections but none match the requested key
    — the right behavior for a CLI ``--resume`` pointed at the wrong
    circuit or pattern file.  The default (non-strict) simply starts a new
    section, which is what multi-campaign flows like ``run_atpg`` need.
    """

    def __init__(self, path: str, strict: bool = False, durable: bool = True):
        self.path = str(path)
        self.strict = strict
        # ``durable`` controls the power-loss story: section headers are
        # written via fsync + atomic rename (never torn), and every shard
        # line is fsynced after the flush.  Heartbeats stay flush-only —
        # they are loss-tolerant progress gauges, not checkpoints.
        self.durable = durable
        self._handle = None
        self._sections = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _read_lines(self) -> List[Dict[str, object]]:
        if not os.path.exists(self.path):
            return []
        lines: List[Dict[str, object]] = []
        with open(self.path, "r") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    lines.append(json.loads(raw))
                except json.JSONDecodeError:
                    # A kill mid-write can leave one torn trailing line;
                    # everything before it is intact and usable.
                    break
        return lines

    def completed_for(self, key: CampaignKey) -> Dict[int, FaultSimResult]:
        """All journaled partition results belonging to ``key``."""
        completed: Dict[int, FaultSimResult] = {}
        key_dict = asdict(key)
        in_matching_section = False
        for line in self._read_lines():
            kind = line.get("kind")
            if kind == "header":
                self._sections += 1
                in_matching_section = line.get("key") == key_dict
            elif kind == "partition" and in_matching_section:
                completed[int(line["index"])] = deserialize_partial(line)
        return completed

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def begin(self, key: CampaignKey) -> Dict[int, FaultSimResult]:
        """Open a new section for ``key``; return prior completed shards."""
        self._sections = 0
        completed = self.completed_for(key)
        if self.strict and self._sections and not completed:
            raise JournalMismatchError(
                f"journal {self.path!r} holds {self._sections} section(s) but "
                f"none match this campaign (circuit, patterns, fault universe, "
                f"seed, partition count and sharding scheme must all be "
                f"identical)"
            )
        header = {"kind": "header", "version": JOURNAL_VERSION, "key": asdict(key)}
        if self.durable:
            self._write_section(header)
        else:
            self._append(header)
        return completed

    def _write_section(self, header: Dict[str, object]) -> None:
        """Append a section header via fsync + atomic rename.

        A host power-loss mid-``begin`` must never leave a half-written
        header (a torn *trailing* shard line is tolerated by readers, but
        a torn header would orphan every line after it).  The prior file
        content plus the new header is written to a sibling temp file,
        fsynced, and renamed over the journal — the OS guarantees readers
        see either the old intact file or the new one, never a mix.  As a
        side effect any torn trailing line from a previous crash is
        dropped here, so each section starts from a clean file.
        """
        self.close()
        lines = self._read_lines()
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            for line in lines:
                handle.write(json.dumps(line, separators=(",", ":")) + "\n")
            handle.write(json.dumps(header, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Make the rename itself durable (the directory entry)."""
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platforms without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def record(self, index: int, partial: FaultSimResult) -> None:
        """Durably append one completed partition result."""
        self._append(serialize_partial(index, partial))
        if self.durable:
            os.fsync(self._handle.fileno())

    def heartbeat(self, **fields: object) -> None:
        """Append one progress line (``kind: heartbeat``) to the journal.

        The supervisor flushes campaign-level progress gauges
        (``faults_graded``/``faults_total``, partitions done) here on
        every shard flush, which is what lets ``repro obs tail`` show a
        running campaign's progress from the outside.  Readers that only
        care about resume (``completed_for``) skip unknown kinds, so
        heartbeats are free to evolve.
        """
        self._append({"kind": "heartbeat", "t_wall": time.time(), **fields})

    def _append(self, line: Dict[str, object]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(line, separators=(",", ":")) + "\n")
        self._handle.flush()

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_campaign_progress(path: str) -> Dict[str, object]:
    """Live progress of the *last* campaign section in a journal file.

    Built for ``repro obs tail``: reads the journal exactly like resume
    does (torn trailing line tolerated), keeps the final campaign — all
    trailing sections that share the last header's key, so a resumed
    run's fresh (possibly empty) section still counts the shards its
    predecessors checkpointed — and summarizes it::

        {
          "path": ..., "sections": N, "key": {...} | None,
          "partitions_done": [indices...],
          "faults_graded": <sum of graded shard sizes>,
          "detected": <sum of detections so far>,
          "heartbeats": {partition_or_-1: <last heartbeat fields>},
          "last_heartbeat": {...} | None,
        }

    Heartbeat lines override the summed counts when present (they carry
    the supervisor's own ``faults_graded``/``faults_total`` gauges, which
    include journal-skipped shards a bare partition count would miss).
    """
    journal = CampaignJournal(path)
    sections = 0
    key: Optional[Dict[str, object]] = None
    partitions: Dict[int, Dict[str, object]] = {}
    heartbeats: Dict[int, Dict[str, object]] = {}
    last_heartbeat: Optional[Dict[str, object]] = None
    for line in journal._read_lines():
        kind = line.get("kind")
        if kind == "header":
            sections += 1
            new_key = line.get("key")
            if sections == 1 or new_key != key:
                partitions = {}
                heartbeats = {}
                last_heartbeat = None
            key = new_key
        elif kind == "partition":
            partitions[int(line["index"])] = {
                "faults": int(line.get("total", 0)),
                "detected": len(line.get("detected", ())),
            }
        elif kind == "heartbeat":
            fields = {k: v for k, v in line.items() if k != "kind"}
            partition = fields.get("partition")
            heartbeats[int(partition) if partition is not None else -1] = fields
            last_heartbeat = fields
    progress: Dict[str, object] = {
        "path": str(path),
        "sections": sections,
        "key": key,
        "partitions_done": sorted(partitions),
        "faults_graded": sum(p["faults"] for p in partitions.values()),
        "detected": sum(p["detected"] for p in partitions.values()),
        "heartbeats": heartbeats,
        "last_heartbeat": last_heartbeat,
    }
    if last_heartbeat is not None:
        for gauge in ("faults_graded", "faults_total", "partitions_total"):
            if gauge in last_heartbeat:
                progress[gauge] = last_heartbeat[gauge]
        if "partitions_done" in last_heartbeat:
            progress["partitions_done_count"] = last_heartbeat["partitions_done"]
    return progress
