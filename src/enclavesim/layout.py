"""Physical address space partitioning and byte-exact DRAM emulation.

The simulated machine has a flat physical address space of at most 39 bits
(512 GiB), split into five disjoint regions that together cover it exactly:

  EPC            hardware-protected page cache (counters + integrity tree)
  eEPC           encrypted EPC extension holding evicted secure pages
  ForestStorage  the two lower levels of the page-MAC forest (leaf + mid MACs)
  KeyTable       one 16-byte wrapped-key slot per physical page
  Scratch        shared OS-visible pages that bypass protection

Pages are 4 KiB and DRAM transfers happen in 64-byte blocks, so a physical
address splits into (page index, block index, byte offset).  The Key Table is
sized for every physical page (total_size / 4096 slots of 16 bytes); slots for
pages outside the eEPC exist but stay unused.  ForestStorage and the KeyTable
are carved from the top of what would otherwise be eEPC space, with Scratch
above them at the very top.

EmulatedDram stores only pages that were ever written (cold reads return
zeros) and keeps per-region monotone read/write counters so that the timing
model's per-cause accounting can be cross-checked against actual traffic.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

PAGE_SIZE = 4096
PAGE_SHIFT = 12
BLOCK_SIZE = 64
BLOCK_SHIFT = 6
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE  # 64
KEY_SLOT_BYTES = 16
PHYS_ADDR_BITS = 39
MAX_TOTAL_SIZE = 1 << PHYS_ADDR_BITS  # 512 GiB


def page_of(addr: int) -> int:
    """Physical page index of an address."""
    return addr >> PAGE_SHIFT


def block_of(addr: int) -> int:
    """64-byte block index of an address within its page (0..63)."""
    return (addr >> BLOCK_SHIFT) & (BLOCKS_PER_PAGE - 1)


def page_base(page: int) -> int:
    return page << PAGE_SHIFT


class Region(enum.Enum):
    EPC = "epc"
    EEPC = "eepc"
    FOREST = "forest"
    KEY_TABLE = "key_table"
    SCRATCH = "scratch"


def _round_up_pages(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


@dataclass(frozen=True)
class MemoryLayout:
    """Region bases and sizes for one simulated machine.

    All boundaries are page aligned.  total_size and epc_size must be powers
    of two; the carved regions are page-granular.
    """

    total_size: int
    epc_size: int
    forest_storage_size: int
    key_table_size: int
    scratch_size: int

    # derived bases (filled in __post_init__ via object.__setattr__)
    eepc_base: int = field(init=False)
    eepc_size: int = field(init=False)
    forest_base: int = field(init=False)
    key_table_base: int = field(init=False)
    scratch_base: int = field(init=False)

    def __post_init__(self):
        for name in ("total_size", "epc_size"):
            v = getattr(self, name)
            if v <= 0 or v & (v - 1):
                raise ValueError(f"{name} must be a positive power of two, got {v}")
        if self.total_size > MAX_TOTAL_SIZE:
            raise ValueError(
                f"total_size {self.total_size:#x} exceeds the "
                f"{PHYS_ADDR_BITS}-bit physical space"
            )
        for name in ("forest_storage_size", "key_table_size", "scratch_size"):
            v = getattr(self, name)
            if v < 0 or v % PAGE_SIZE:
                raise ValueError(f"{name} must be a non-negative page multiple, got {v}")
        carved = self.forest_storage_size + self.key_table_size + self.scratch_size
        if self.epc_size + carved >= self.total_size:
            raise ValueError("no eEPC space left after carving metadata regions")
        object.__setattr__(self, "eepc_base", self.epc_size)
        object.__setattr__(self, "scratch_base", self.total_size - self.scratch_size)
        object.__setattr__(
            self, "key_table_base", self.scratch_base - self.key_table_size
        )
        object.__setattr__(
            self, "forest_base", self.key_table_base - self.forest_storage_size
        )
        object.__setattr__(self, "eepc_size", self.forest_base - self.eepc_base)

    @classmethod
    def build(
        cls,
        total_size: int,
        epc_size: int,
        scratch_pages: int = 4,
        forest_storage_size: int = 0,
    ) -> "MemoryLayout":
        """Build a layout, sizing the Key Table for every physical page."""
        key_table_size = _round_up_pages(total_size // PAGE_SIZE * KEY_SLOT_BYTES)
        return cls(
            total_size=total_size,
            epc_size=epc_size,
            forest_storage_size=_round_up_pages(forest_storage_size),
            key_table_size=key_table_size,
            scratch_size=scratch_pages * PAGE_SIZE,
        )

    def classify(self, addr: int) -> Region:
        if not 0 <= addr < self.total_size:
            raise ValueError(f"address {addr:#x} outside physical space")
        if addr < self.epc_size:
            return Region.EPC
        if addr < self.forest_base:
            return Region.EEPC
        if addr < self.key_table_base:
            return Region.FOREST
        if addr < self.scratch_base:
            return Region.KEY_TABLE
        return Region.SCRATCH

    def key_table_slot(self, page: int) -> int:
        """Address of the wrapped-key slot for a physical page."""
        if not 0 <= page < self.total_size // PAGE_SIZE:
            raise ValueError(f"page {page} outside physical space")
        return self.key_table_base + page * KEY_SLOT_BYTES

    @property
    def total_pages(self) -> int:
        return self.total_size // PAGE_SIZE

    @property
    def epc_pages(self) -> int:
        return self.epc_size // PAGE_SIZE

    @property
    def eepc_pages(self) -> int:
        return self.eepc_size // PAGE_SIZE

    @property
    def scratch_pages(self) -> int:
        return self.scratch_size // PAGE_SIZE

    def region_sizes(self) -> dict[Region, int]:
        return {
            Region.EPC: self.epc_size,
            Region.EEPC: self.eepc_size,
            Region.FOREST: self.forest_storage_size,
            Region.KEY_TABLE: self.key_table_size,
            Region.SCRATCH: self.scratch_size,
        }


class EmulatedDram:
    """Sparse byte-exact DRAM with per-region access counters.

    Pages materialize on first write; reads of untouched locations return
    zeros without allocating.  read()/write() meter traffic per region;
    peek()/poke() are unmetered side doors for adversaries and test oracles.
    """

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self._pages: dict[int, bytearray] = {}
        self.reads: dict[Region, int] = {r: 0 for r in Region}
        self.writes: dict[Region, int] = {r: 0 for r in Region}

    def _span_ok(self, addr: int, length: int):
        if length <= 0:
            raise ValueError("length must be positive")
        if addr < 0 or addr + length > self.layout.total_size:
            raise ValueError(f"access [{addr:#x}, +{length}) outside physical space")

    def peek(self, addr: int, length: int) -> bytes:
        self._span_ok(addr, length)
        out = bytearray()
        while length:
            page, off = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
            n = min(length, PAGE_SIZE - off)
            buf = self._pages.get(page)
            out += bytes(n) if buf is None else bytes(buf[off : off + n])
            addr += n
            length -= n
        return bytes(out)

    def poke(self, addr: int, data: bytes):
        self._span_ok(addr, len(data))
        pos = 0
        while pos < len(data):
            page, off = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
            n = min(len(data) - pos, PAGE_SIZE - off)
            buf = self._pages.get(page)
            if buf is None:
                buf = self._pages[page] = bytearray(PAGE_SIZE)
            buf[off : off + n] = data[pos : pos + n]
            addr += n
            pos += n

    def read(self, addr: int, length: int) -> bytes:
        self.reads[self.layout.classify(addr)] += 1
        return self.peek(addr, length)

    def write(self, addr: int, data: bytes):
        self.writes[self.layout.classify(addr)] += 1
        self.poke(addr, data)

    def read_span(self, addr: int, length: int) -> bytes:
        """Read a span as one call counted as ceil(length/64) block accesses."""
        blocks = -(-length // BLOCK_SIZE)
        self.reads[self.layout.classify(addr)] += blocks
        return self.peek(addr, length)

    def write_span(self, addr: int, data: bytes):
        blocks = -(-len(data) // BLOCK_SIZE)
        self.writes[self.layout.classify(addr)] += blocks
        self.poke(addr, data)

    def total_accesses(self) -> int:
        return sum(self.reads.values()) + sum(self.writes.values())

    def touched_pages(self) -> int:
        return len(self._pages)
