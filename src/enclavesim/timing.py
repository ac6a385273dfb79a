"""Cycle accounting: critical path, one background lane, per-cause traffic.

The model separates three ideas:

  * latency     cycles the pipeline waits when an access is on the critical
                path (dram_access_cycles, crypto_block_cycles)
  * occupancy   cycles a background transfer keeps the memory/crypto engines
                busy; bandwidth-style constants an order of magnitude below
                latency, otherwise no overlapped design could ever win
  * counts      every metered DRAM access is attributed to a cause (data,
                merkle, forest, key_table) and must reconcile with the
                per-region counters kept by the emulated DRAM itself

Background work (page moves, deferred verification, MAC updates) shares one
lane that approximates the verification engine and the block loader running
in parallel with execution.  The lane is a busy-until clock: work submitted
at time t starts at max(t, lane_free) and the run's total cycle count is
max(critical path, lane drain).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

from .layout import EmulatedDram

logger = logging.getLogger(__name__)

DRAM_CAUSES = ("data", "merkle", "forest", "key_table")


@dataclass(frozen=True)
class LatencyConfig:
    dram_access_cycles: int = 100
    dram_occupancy_cycles: int = 10
    crypto_block_cycles: int = 40  # per 64-byte block, ECB/CTR/MAC alike
    crypto_occupancy_cycles: int = 4
    sgx_fault_penalty: int = 40000
    enclave_enter_exit: int = 30000
    mvc_bytes_per_cycle: int = 1
    clock_ghz: float = 3.6
    penglai_walk_accesses: int = 3
    penglai_mount_cycles: int = 3000
    penglai_region_pages: int = 128
    penglai_root_cache_entries: int = 32

    def __post_init__(self):
        for name in (
            "dram_access_cycles",
            "dram_occupancy_cycles",
            "sgx_fault_penalty",
            "enclave_enter_exit",
            "mvc_bytes_per_cycle",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # zero crypto cost is a supported ablation (paging as the only cost)
        for name in ("crypto_block_cycles", "crypto_occupancy_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


def mvc_cycles_per_page(cfg: LatencyConfig) -> int:
    """Verification-engine work per 4 KiB page at the configured rate."""
    return 4096 // cfg.mvc_bytes_per_cycle


class CycleStats:
    """Mutable per-run accounting shared by an engine and its components."""

    def __init__(self, cfg: LatencyConfig):
        self.cfg = cfg
        self.instructions = 0
        self.critical_cycles = 0
        self.lane_free = 0  # cycle at which the background lane drains
        self.lane_busy_cycles = 0
        self.stall_cycles = 0
        self.dram_reads = Counter()
        self.dram_writes = Counter()
        self.crypto_blocks = Counter()  # ecb / ctr / mac
        self.events = Counter()

    # ---- critical path -------------------------------------------------
    def advance_instructions(self, n: int):
        if n < 0:
            raise ValueError("instruction count must be non-decreasing")
        self.instructions += n
        self.critical_cycles += n  # one cycle per instruction baseline

    def charge_critical(self, cycles: int):
        self.critical_cycles += cycles

    def critical_crypto(self, kind: str, blocks: int = 1):
        self.crypto_blocks[kind] += blocks
        self.critical_cycles += self.cfg.crypto_block_cycles * blocks

    # ---- background lane -----------------------------------------------
    def lane_charge(self, available_at: int, duration: int) -> int:
        """Occupy the lane for `duration` cycles, no earlier than available_at."""
        start = max(self.lane_free, available_at)
        self.lane_free = start + duration
        self.lane_busy_cycles += duration
        return self.lane_free

    def stall_until_lane(self):
        """Critical path waits for the lane to drain (barriers, full tables)."""
        if self.lane_free > self.critical_cycles:
            self.stall_cycles += self.lane_free - self.critical_cycles
            self.critical_cycles = self.lane_free

    # ---- counting -------------------------------------------------------
    def count_dram(self, cause: str, *, write: bool = False):
        if cause not in DRAM_CAUSES:
            raise ValueError(f"unknown DRAM cause {cause!r}")
        (self.dram_writes if write else self.dram_reads)[cause] += 1

    def count_crypto(self, kind: str, blocks: int = 1):
        self.crypto_blocks[kind] += blocks

    @property
    def total_cycles(self) -> int:
        return max(self.critical_cycles, self.lane_free)

    @property
    def dram_total(self) -> int:
        return sum(self.dram_reads.values()) + sum(self.dram_writes.values())

    def dram_by_cause(self) -> dict:
        return {
            c: self.dram_reads.get(c, 0) + self.dram_writes.get(c, 0)
            for c in DRAM_CAUSES
        }


@dataclass
class MeteredDram:
    """EmulatedDram front end that attributes every access to a cause.

    All engine traffic goes through here so the cause totals reconcile with
    the DRAM's own region counters; adversaries and oracles use the
    unmetered peek/poke side doors instead.
    """

    dram: EmulatedDram
    stats: CycleStats
    default_cause: str = "data"

    def read(self, addr: int, length: int, cause: str | None = None) -> bytes:
        self.stats.count_dram(cause or self.default_cause, write=False)
        return self.dram.read(addr, length)

    def write(self, addr: int, data: bytes, cause: str | None = None):
        self.stats.count_dram(cause or self.default_cause, write=True)
        self.dram.write(addr, data)

    def read_span(self, addr: int, length: int, cause: str | None = None) -> bytes:
        """Block-granular span read: counts ceil(length/64) accesses."""
        cause = cause or self.default_cause
        if cause not in DRAM_CAUSES:
            raise ValueError(f"unknown DRAM cause {cause!r}")
        self.stats.dram_reads[cause] += -(-length // 64)
        return self.dram.read_span(addr, length)

    def write_span(self, addr: int, data: bytes, cause: str | None = None):
        cause = cause or self.default_cause
        if cause not in DRAM_CAUSES:
            raise ValueError(f"unknown DRAM cause {cause!r}")
        self.stats.dram_writes[cause] += -(-len(data) // 64)
        self.dram.write_span(addr, data)
