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
zeros).  It is the one DRAM ledger: every metered access names its cause
(data, merkle, forest, key_table) and is counted there, once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

PAGE_SIZE = 4096
PAGE_SHIFT = 12
BLOCK_SIZE = 64
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE  # 64
ZERO_PAGE = bytes(PAGE_SIZE)  # the plaintext of a page never written
_ZERO_VIEW = memoryview(ZERO_PAGE)  # a never-written page, as page_view gives it
KEY_SLOT_BYTES = 16
PHYS_ADDR_BITS = 39
MAX_TOTAL_SIZE = 1 << PHYS_ADDR_BITS  # 512 GiB
# virtual pages at/above this index address scratch: the first page past the
# physical space, so no enclave page, which needs a home page, reaches it
SCRATCH_VBASE = MAX_TOTAL_SIZE >> PAGE_SHIFT
DRAM_CAUSES = ("data", "merkle", "forest", "key_table")


class ConfigError(ValueError):
    """A run configuration the simulated machine cannot hold; the message
    names the offending key, size or enclave."""


def check_size(name: str, size: int):
    """The rule for total and EPC sizes: a power of two, at least one page,
    that the physical space (and so the key format's page index) can address."""
    if size < PAGE_SIZE or size & (size - 1):
        raise ValueError(f"{name} must be a power of two of at least {PAGE_SIZE}, got {size}")
    if size > MAX_TOTAL_SIZE:
        raise ValueError(f"{name} {size:#x} exceeds the {PHYS_ADDR_BITS}-bit physical space")


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
            check_size(name, getattr(self, name))
        for name in ("forest_storage_size", "key_table_size", "scratch_size"):
            v = getattr(self, name)
            if v < 0 or v % PAGE_SIZE:
                raise ValueError(f"{name} must be a non-negative page multiple, got {v}")
        carved = self.forest_storage_size + self.key_table_size + self.scratch_size
        if self.epc_size + carved >= self.total_size:
            raise ConfigError(
                f"no eEPC space left after carving metadata regions: epc_size "
                f"{self.epc_size} plus {carved} bytes of forest, key-table and "
                f"scratch pages fill total_size {self.total_size}"
            )
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


def _unknown_cause(cause) -> ValueError:
    return ValueError(f"unknown DRAM cause {cause!r}")


class EmulatedDram:
    """Sparse byte-exact DRAM that counts its traffic by cause.

    Pages materialize on first write; reads of untouched locations return
    zeros without allocating.  read()/write() and the block-granular spans
    count every access under the cause the caller names; peek()/poke() are
    unmetered side doors for boot passes, adversaries and test oracles.
    page_view() is the counter tree's alone: an unmetered, read-only view of
    one whole page as it lies, so the tree MACs a protected page where it is
    instead of a copy that a caller hands it.  It moves no bytes, so it is
    no DRAM access; the tree's callers meter the accesses the modelled
    hardware makes.
    """

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self._size = layout.total_size
        self._n_pages = layout.total_size >> PAGE_SHIFT
        self._pages: dict[int, bytearray] = {}
        # accesses by cause, every cause present from the start: counting
        # is then the cause check too, as an unknown cause has no entry
        self.reads: dict[str, int] = dict.fromkeys(DRAM_CAUSES, 0)
        self.writes: dict[str, int] = dict.fromkeys(DRAM_CAUSES, 0)

    def _span_ok(self, addr: int, length: int):
        if length <= 0:
            raise ValueError("length must be positive")
        if addr < 0 or addr + length > self.layout.total_size:
            raise ValueError(f"access [{addr:#x}, +{length}) outside physical space")

    # peek and poke test the span inline, the hot case, and call _span_ok
    # only for its error
    def peek(self, addr: int, length: int) -> bytes:
        if length <= 0 or addr < 0 or addr + length > self._size:
            self._span_ok(addr, length)
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:  # inside one page: one slice
            buf = self._pages.get(addr >> PAGE_SHIFT)
            return bytes(length) if buf is None else bytes(buf[off : off + length])
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
        if not data or addr < 0 or addr + len(data) > self._size:
            self._span_ok(addr, len(data))
        page, off = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
        if off + len(data) <= PAGE_SIZE:  # inside one page: one slice
            buf = self._pages.get(page)
            if buf is None:
                buf = self._pages[page] = bytearray(PAGE_SIZE)
            buf[off : off + len(data)] = data
            return
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

    def read(self, addr: int, length: int, cause: str) -> bytes:
        try:
            self.reads[cause] += 1
        except KeyError:
            raise _unknown_cause(cause) from None
        return self.peek(addr, length)

    def write(self, addr: int, data: bytes, cause: str):
        try:
            self.writes[cause] += 1
        except KeyError:
            raise _unknown_cause(cause) from None
        # inside one page, the hot case, it writes inline; poke does the rest
        # and raises for a span that is empty or outside the physical space
        n = len(data)
        off = addr & (PAGE_SIZE - 1)
        if 0 < n <= PAGE_SIZE - off and 0 <= addr < self._size:
            buf = self._pages.get(addr >> PAGE_SHIFT)
            if buf is None:
                buf = self._pages[addr >> PAGE_SHIFT] = bytearray(PAGE_SIZE)
            buf[off : off + n] = data
        else:
            self.poke(addr, data)

    def read_span(self, addr: int, length: int, cause: str) -> bytes:
        """Read a span as one call counted as ceil(length/64) block accesses."""
        try:
            self.reads[cause] += -(-length // BLOCK_SIZE)
        except KeyError:
            raise _unknown_cause(cause) from None
        return self.peek(addr, length)

    def write_span(self, addr: int, data: bytes, cause: str):
        try:
            self.writes[cause] += -(-len(data) // BLOCK_SIZE)
        except KeyError:
            raise _unknown_cause(cause) from None
        self.poke(addr, data)

    def page_view(self, page: int) -> memoryview:
        """Physical page `page` as it lies, read-only and unmetered; zeros
        for a page never written.  For the counter tree only (see above)."""
        if not 0 <= page < self._n_pages:
            raise ValueError(f"page {page} outside physical space")
        buf = self._pages.get(page)
        return _ZERO_VIEW if buf is None else memoryview(buf).toreadonly()

    def total_accesses(self) -> int:
        return sum(self.reads.values()) + sum(self.writes.values())

    def touched_pages(self) -> int:
        return len(self._pages)

    def touched_in(self, addr: int, length: int) -> bool:
        """Whether a page overlapping [addr, addr+length) is materialized;
        O(touched pages), not O(length)."""
        lo, hi = addr >> PAGE_SHIFT, (addr + length - 1) >> PAGE_SHIFT
        return any(lo <= page <= hi for page in self._pages)
