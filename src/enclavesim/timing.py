"""Cycle accounting: critical path, one background lane, named events.

The model separates three ideas:

  * latency     cycles the pipeline waits when an access is on the critical
                path (dram_access_cycles, crypto_block_cycles)
  * occupancy   cycles a background transfer keeps the memory/crypto engines
                busy; bandwidth-style constants an order of magnitude below
                latency, otherwise no overlapped design could ever win
  * events      every named count of a run, in one Counter; DRAM traffic
                is counted by cause in the emulated DRAM itself (layout.py)

`CycleStats.charge` is the one price list: a model states the DRAM
accesses, crypto blocks and flat cycles a step uses, and `charge` applies
latency when the step is on the critical path and occupancy when it runs on
the lane.

Background work (page moves, deferred verification, MAC updates) shares one
lane that approximates the verification engine and the block loader running
in parallel with execution.  The lane is a busy-until clock: work submitted
at time t starts at max(t, lane_free) and the run's total cycle count is
max(critical path, lane drain).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyConfig:
    dram_access_cycles: int = 100
    dram_occupancy_cycles: int = 10
    crypto_block_cycles: int = 40  # per 64-byte block, ECB/CTR/MAC alike
    crypto_occupancy_cycles: int = 4
    sgx_fault_penalty: int = 40000
    enclave_enter_exit: int = 30000
    mvc_bytes_per_cycle: int = 1
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
        self.events = Counter()  # every named count the report reads

    # ---- critical path -------------------------------------------------
    def advance_instructions(self, n: int):
        if n < 0:
            raise ValueError("instruction count must be non-decreasing")
        self.instructions += n
        self.critical_cycles += n  # one cycle per instruction baseline

    # ---- the price list ------------------------------------------------
    def charge(self, dram: int = 0, crypto: int = 0, cycles: int = 0, *,
               lane_at: int | None = None):
        """Price `dram` accesses, `crypto` 64-byte blocks and flat `cycles`:
        latency on the critical path when `lane_at` is None, otherwise
        occupancy on the lane from no earlier than `lane_at`."""
        cfg = self.cfg
        if lane_at is None:
            self.critical_cycles += (
                dram * cfg.dram_access_cycles + crypto * cfg.crypto_block_cycles + cycles
            )
        else:
            self.lane_charge(lane_at, self.occupancy(dram, crypto) + cycles)

    def occupancy(self, dram: int = 0, crypto: int = 0) -> int:
        """Lane cycles that `dram` accesses and `crypto` blocks keep busy."""
        cfg = self.cfg
        return dram * cfg.dram_occupancy_cycles + crypto * cfg.crypto_occupancy_cycles

    # ---- background lane -----------------------------------------------
    def lane_charge(self, available_at: int, duration: int):
        """Occupy the lane for `duration` cycles, no earlier than available_at."""
        start = max(self.lane_free, available_at)
        self.lane_free = start + duration
        self.lane_busy_cycles += duration

    def stall_until_lane(self):
        """Critical path waits for the lane to drain (barriers, full tables)."""
        if self.lane_free > self.critical_cycles:
            self.stall_cycles += self.lane_free - self.critical_cycles
            self.critical_cycles = self.lane_free

    @property
    def total_cycles(self) -> int:
        return max(self.critical_cycles, self.lane_free)
