"""Three-level MAC hierarchy authenticating every encrypted memory page.

Each physical page owns an 8-byte leaf MAC (computed by the caller over the
page plaintext with the page's own key).  Leaves are grouped 16 to a mid MAC
and mids are grouped 8 to a top MAC, so one top covers a 128-page region.
Leaf and mid MACs live in plain DRAM (ForestStorage region); top MACs live in
hardware-protected memory behind the top_read/top_write callbacks, which is
what stops an adversary from replaying a consistent (leaf, mid, top) triple.

Verification reads the 16-leaf group (two 64-byte blocks), the 8-mid group
(one block) and the top (one access, zero when the 8-entry region cache still
holds it) and compares recomputed against stored values at *every* level, so
a tampered sibling or a replayed (leaf, mid) pair is caught even when the
requested page's own leaf still matches.  That bounds a page verification at
four memory accesses.

Updates authenticate before they install: the sibling leaves and mids they
fold into the new digests are checked against the stored mid and the
hardware-held top first, otherwise a rollback sitting next to any legitimate
eviction would be laundered into a fresh authentic top.  An update therefore
rewrites one leaf and rebuilds the mid and top above it for two group reads,
one mid-group read and three writes -- six accesses with the region digest
still cached on chip, one more when it must be fetched.  Two updates that
land in the same region can be clubbed: they share the mid-group read, the
mid-block write and the top write (seven accesses when the leaves share a
group, nine otherwise, against twelve unclubbed).

Construction seeds the mid storage with MACs over all-zero leaf groups and
exposes the matching region digests as `boot_tops`, which the top-table owner
must install; that gives the very first update of a region an authentic
prior state to check against.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from .crypto import keyed_mac8
from .layout import BLOCK_SIZE, PAGE_SIZE
from .timing import MeteredDram
from .verifier import CatastrophicFailure

logger = logging.getLogger(__name__)

MAC_BYTES = 8


@dataclass(frozen=True)
class ForestConfig:
    group_arity: int = 16  # leaf MACs per mid
    region_arity: int = 8  # mid MACs per top
    top_cache_entries: int = 8
    top_cache_enabled: bool = True

    def __post_init__(self):
        for name in ("group_arity", "region_arity"):
            v = getattr(self, name)
            # MAC groups must tile 64-byte DRAM blocks exactly
            if v <= 0 or (v * MAC_BYTES) % BLOCK_SIZE:
                raise ValueError(f"{name} must be a positive multiple of 8, got {v}")
        if self.top_cache_entries <= 0:
            raise ValueError("top_cache_entries must be positive")

    @property
    def region_pages(self) -> int:
        return self.group_arity * self.region_arity


def _round_up_pages(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


@dataclass(frozen=True)
class ForestStorage:
    leaf_bytes: int
    mid_bytes: int
    top_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.leaf_bytes + self.mid_bytes + self.top_bytes

    @property
    def dram_region_bytes(self) -> int:
        """Page-rounded ForestStorage carve-out (tops live elsewhere)."""
        return _round_up_pages(self.leaf_bytes) + _round_up_pages(self.mid_bytes)


def forest_storage(total_size: int, config: ForestConfig = ForestConfig()) -> ForestStorage:
    """MAC storage needed to authenticate `total_size` bytes of memory."""
    pages = total_size // PAGE_SIZE
    groups = -(-pages // config.group_arity)
    regions = -(-groups // config.region_arity)
    return ForestStorage(
        leaf_bytes=pages * MAC_BYTES,
        mid_bytes=groups * MAC_BYTES,
        top_bytes=regions * MAC_BYTES,
    )


@dataclass
class ForestVerifyResult:
    page: int
    dram_reads: int  # leaf + mid block reads
    top_reads: int  # 0 or 1
    top_cache_hit: bool

    @property
    def total_accesses(self) -> int:
        return self.dram_reads + self.top_reads


@dataclass
class ForestUpdateResult:
    pages: tuple
    dram_reads: int
    dram_writes: int
    top_writes: int
    top_reads: int = 0  # stale-state authentication on a region-cache miss

    @property
    def total_accesses(self) -> int:
        return self.dram_reads + self.dram_writes + self.top_writes + self.top_reads


class MacForest:
    """Leaf/mid storage, top callbacks, verified reads and clubbed updates."""

    def __init__(
        self,
        port: MeteredDram,
        base_addr: int,
        n_pages: int,
        ssk_bytes: bytes,
        top_read: Callable[[int], bytes],
        top_write: Callable[[int, bytes], None],
        config: ForestConfig = ForestConfig(),
        cause: str = "forest",
    ):
        if n_pages <= 0 or n_pages % config.region_pages:
            raise ValueError(
                f"n_pages must be a positive multiple of {config.region_pages}"
            )
        if base_addr % BLOCK_SIZE:
            raise ValueError("base_addr must be block aligned")
        self.port = port
        self.config = config
        self.ssk = ssk_bytes
        self.cause = cause
        self.n_pages = n_pages
        self.n_groups = n_pages // config.group_arity
        self.n_regions = self.n_groups // config.region_arity
        self.leaf_base = base_addr
        self.mid_base = base_addr + _round_up_pages(n_pages * MAC_BYTES)
        self.top_read = top_read
        self.top_write = top_write
        self._top_cache: OrderedDict[int, bytes] = OrderedDict()
        self.touched: set[int] = set()
        self.top_cache_hits = 0
        self.top_cache_misses = 0

        # boot pass (unmetered): mids describing all-zero leaf groups, plus
        # the region digests the top-table owner must install before use
        zero_group = bytes(config.group_arity * MAC_BYTES)
        for g in range(self.n_groups):
            port.dram.poke(self.mid_addr(g), self._mid_mac(g, zero_group))
        self.boot_tops: dict[int, bytes] = {}
        for r in range(self.n_regions):
            mstart, mbytes = self._mid_group_span(r)
            self.boot_tops[r] = self._top_mac(r, port.dram.peek(mstart, mbytes))

    # ------------------------------------------------------------ layout
    def leaf_addr(self, page: int) -> int:
        if not 0 <= page < self.n_pages:
            raise ValueError(f"page {page} outside forest range")
        return self.leaf_base + page * MAC_BYTES

    def mid_addr(self, group: int) -> int:
        return self.mid_base + group * MAC_BYTES

    def group_of(self, page: int) -> int:
        return page // self.config.group_arity

    def region_of(self, page: int) -> int:
        return self.group_of(page) // self.config.region_arity

    # ------------------------------------------------------------- MACs
    def _mid_mac(self, group: int, leaf_blob: bytes) -> bytes:
        return keyed_mac8(self.ssk, b"forest-mid", group.to_bytes(8, "big"), leaf_blob)

    def _top_mac(self, region: int, mid_blob: bytes) -> bytes:
        return keyed_mac8(self.ssk, b"forest-top", region.to_bytes(8, "big"), mid_blob)

    # ----------------------------------------------------------- traffic
    def _read_span(self, start: int, nbytes: int) -> tuple[bytearray, int]:
        """Read a block-aligned span, one metered access per 64-byte block."""
        buf = bytearray()
        blocks = 0
        for off in range(0, nbytes, BLOCK_SIZE):
            buf += self.port.read(start + off, BLOCK_SIZE, cause=self.cause)
            blocks += 1
        return buf, blocks

    def _write_span(self, start: int, data: bytes) -> int:
        blocks = 0
        for off in range(0, len(data), BLOCK_SIZE):
            self.port.write(start + off, data[off : off + BLOCK_SIZE], cause=self.cause)
            blocks += 1
        return blocks

    def _leaf_group_span(self, group: int) -> tuple[int, int]:
        start = self.leaf_base + group * self.config.group_arity * MAC_BYTES
        return start, self.config.group_arity * MAC_BYTES

    def _mid_group_span(self, region: int) -> tuple[int, int]:
        start = self.mid_base + region * self.config.region_arity * MAC_BYTES
        return start, self.config.region_arity * MAC_BYTES

    # -------------------------------------------------------- top cache
    def _top_cached(self, region: int) -> bytes | None:
        if not self.config.top_cache_enabled:
            return None
        mac = self._top_cache.get(region)
        if mac is not None:
            self._top_cache.move_to_end(region)
        return mac

    def _top_cache_put(self, region: int, mac: bytes):
        if not self.config.top_cache_enabled:
            return
        self._top_cache[region] = mac
        self._top_cache.move_to_end(region)
        while len(self._top_cache) > self.config.top_cache_entries:
            self._top_cache.popitem(last=False)

    # ------------------------------------------------------------ verify
    def _check_region(
        self, region: int, leaf_groups: dict[int, bytearray], page: int
    ) -> tuple[bytearray, int, int]:
        """Check leaf groups against their stored mids, the mids against the top.

        The top comes from the region cache or the top_read callback, and the
        authenticated top goes back into the cache.  Returns the mid group,
        its block reads and the top reads (0 or 1); a mismatch raises,
        naming `page`.
        """
        mstart, mbytes = self._mid_group_span(region)
        mids, reads = self._read_span(mstart, mbytes)
        for g, leaves in leaf_groups.items():
            mslot = (g % self.config.region_arity) * MAC_BYTES
            if bytes(mids[mslot : mslot + MAC_BYTES]) != self._mid_mac(g, bytes(leaves)):
                raise CatastrophicFailure(
                    f"MAC group digest mismatch above page {page}", page=page
                )
        stored_top = self._top_cached(region)
        top_reads = 0
        if stored_top is None:
            self.top_cache_misses += 1
            stored_top = self.top_read(region)
            top_reads = 1
        else:
            self.top_cache_hits += 1
        if stored_top != self._top_mac(region, bytes(mids)):
            raise CatastrophicFailure(
                f"region digest mismatch above page {page}", page=page
            )
        self._top_cache_put(region, stored_top)
        return mids, reads, top_reads

    def verify_page(self, page: int, expected_leaf: bytes) -> ForestVerifyResult:
        """Compare recomputed vs stored MACs at leaf, mid and top level."""
        if len(expected_leaf) != MAC_BYTES:
            raise ValueError("leaf MAC must be 8 bytes")
        group = self.group_of(page)
        start, nbytes = self._leaf_group_span(group)
        leaves, reads = self._read_span(start, nbytes)
        slot = (page % self.config.group_arity) * MAC_BYTES
        if bytes(leaves[slot : slot + MAC_BYTES]) != expected_leaf:
            raise CatastrophicFailure(
                f"page MAC mismatch at leaf level for page {page}", page=page
            )
        _, mreads, top_reads = self._check_region(
            self.region_of(page), {group: leaves}, page
        )
        return ForestVerifyResult(
            page=page,
            dram_reads=reads + mreads,
            top_reads=top_reads,
            top_cache_hit=not top_reads,
        )

    # ------------------------------------------------------------ update
    def update(self, updates: Iterable[tuple[int, bytes]]) -> ForestUpdateResult:
        """Install new leaf MACs and rebuild the mids and tops above them.

        The stale sibling state each rebuild folds in is authenticated
        against the stored mid and the hardware-held top before anything is
        written.  Updates in the same 128-page region share the mid-group
        read, the mid-block write and the top write.  Callers club at most
        two.
        """
        items = list(updates)
        if not items:
            raise ValueError("no updates given")
        for page, leaf in items:
            if not 0 <= page < self.n_pages:
                raise ValueError(f"page {page} outside forest range")
            if len(leaf) != MAC_BYTES:
                raise ValueError("leaf MAC must be 8 bytes")

        reads = writes = top_writes = top_reads = 0
        by_region: dict[int, list[tuple[int, bytes]]] = {}
        for page, leaf in items:
            by_region.setdefault(self.region_of(page), []).append((page, leaf))

        ga = self.config.group_arity
        for region in sorted(by_region):
            batch = by_region[region]
            bufs: dict[int, bytearray] = {}
            for g in sorted({self.group_of(p) for p, _ in batch}):
                start, nbytes = self._leaf_group_span(g)
                bufs[g], r = self._read_span(start, nbytes)
                reads += r

            # authenticate every byte the rebuild is about to trust
            mids, r, t = self._check_region(region, bufs, batch[0][0])
            reads += r
            top_reads += t

            dirty_blocks: set[int] = set()
            for page, leaf in batch:
                g = self.group_of(page)
                slot = (page % ga) * MAC_BYTES
                bufs[g][slot : slot + MAC_BYTES] = leaf
                dirty_blocks.add(self.leaf_addr(page) // BLOCK_SIZE * BLOCK_SIZE)
                self.touched.add(page)

            for baddr in sorted(dirty_blocks):
                g = (baddr - self.leaf_base) // (ga * MAC_BYTES)
                off = baddr - (self.leaf_base + g * ga * MAC_BYTES)
                self.port.write(
                    baddr, bytes(bufs[g][off : off + BLOCK_SIZE]), cause=self.cause
                )
                writes += 1

            for g, leaves in bufs.items():
                mslot = (g % self.config.region_arity) * MAC_BYTES
                mids[mslot : mslot + MAC_BYTES] = self._mid_mac(g, bytes(leaves))
            writes += self._write_span(self._mid_group_span(region)[0], bytes(mids))

            top = self._top_mac(region, bytes(mids))
            self.top_write(region, top)
            top_writes += 1
            self._top_cache_put(region, top)

        return ForestUpdateResult(
            pages=tuple(p for p, _ in items),
            dram_reads=reads,
            dram_writes=writes,
            top_writes=top_writes,
            top_reads=top_reads,
        )
