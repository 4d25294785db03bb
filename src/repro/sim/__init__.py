"""Simulation engines: 4-valued event-driven, bit-parallel, fault simulation."""

from .chaos import ChaosPlan, HostChaosInjection, HostChaosPlan
from .dispatch import (
    BACKEND_NAMES,
    FaultSimBackend,
    PpsfpBackend,
    SerialBackend,
    get_backend,
    merge_results,
    partition_faults,
    validate_pool_args,
)
from .faultsim import FaultSimResult, FaultSimulator
from .store import (
    CampaignKey,
    Lease,
    ShardStore,
    StoreCorruptionError,
    StoreMismatchError,
    read_store_progress,
    validate_store_args,
)
from .supervisor import PoolBackend, SupervisedPoolBackend, SupervisorConfig
from .goodcache import DEFAULT_CACHE, GoodMachineCache
from .logicsim import LogicSimulator
from .seqfaultsim import LANES_PER_WORD, SequentialFaultSimulator
from .parallel import (
    WORD_WIDTH,
    WORD_WIDTHS,
    ParallelSimulator,
    pack_patterns,
    unpack_word,
)
from .view import CombinationalView

__all__ = [
    "LogicSimulator",
    "ParallelSimulator",
    "FaultSimulator",
    "FaultSimResult",
    "FaultSimBackend",
    "SerialBackend",
    "PpsfpBackend",
    "PoolBackend",
    "SupervisedPoolBackend",
    "SupervisorConfig",
    "ChaosPlan",
    "HostChaosInjection",
    "HostChaosPlan",
    "CampaignKey",
    "Lease",
    "ShardStore",
    "StoreCorruptionError",
    "StoreMismatchError",
    "read_store_progress",
    "validate_store_args",
    "BACKEND_NAMES",
    "get_backend",
    "merge_results",
    "partition_faults",
    "validate_pool_args",
    "SequentialFaultSimulator",
    "LANES_PER_WORD",
    "CombinationalView",
    "WORD_WIDTH",
    "WORD_WIDTHS",
    "GoodMachineCache",
    "DEFAULT_CACHE",
    "pack_patterns",
    "unpack_word",
]
