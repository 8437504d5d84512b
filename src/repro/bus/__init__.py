"""Transaction-level bus substrate.

Provides the bus interfaces of the paper's listings (``BusSlaveIf`` with
``get_low_add``/``get_high_add``/``read``/``write``), a shared arbitrated
bus with blocking and split-transaction protocols, latency-modelled
memories, a DMA controller and a traffic monitor.
"""

from .arbiter import Arbiter
from .bridge import BusBridge
from .bus import PROTOCOLS, Bus
from .dma import DmaController, DmaDescriptor
from .interfaces import (
    BusMasterIf,
    BusSlaveIf,
    InterruptIf,
    Transaction,
    check_range,
    normalize_write_data,
)
from .interrupt import REG_ACK, REG_MASK, REG_PENDING, InterruptController
from .memory import ConfigMemory, Memory, region_checksum
from .monitor import BusMonitor, TrainRecord

__all__ = [
    "Arbiter",
    "Bus",
    "BusBridge",
    "BusMasterIf",
    "BusMonitor",
    "BusSlaveIf",
    "ConfigMemory",
    "DmaController",
    "DmaDescriptor",
    "InterruptController",
    "InterruptIf",
    "Memory",
    "PROTOCOLS",
    "REG_ACK",
    "REG_MASK",
    "REG_PENDING",
    "Transaction",
    "TrainRecord",
    "check_range",
    "normalize_write_data",
    "region_checksum",
]
