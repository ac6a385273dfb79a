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

Construction writes nothing, so boot costs the same at any memory size.  A
mid or top word that reads as eight zero bytes stands for its boot value: for
mid g, the mid MAC over sixteen zero leaves; for top r, the top MAC over
region r's eight boot mids.  `_check_region`, the one place that reads mids
and tops, resolves zero words before it compares anything, and an update
writes its region's whole mid group back, so after a region's first update
its DRAM words and its top are the real MACs.  The very first update of a
region therefore still has an authentic prior state to check against.

This is as strong as writing every boot value at construction.  A boot value
is a pure function of the SSK and its index, and that eager state would sit
in the clear in DRAM, so an adversary who writes zeros gains nothing over
one who replays a boot value; the same checks catch both (the hardware-held
top for a mid, the counter tree over the top table for a top word).  A
genuine MAC that happens to be zero is read as its boot value: a false
detection with probability 2^-64, never a missed one.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from .crypto import MAC_BYTES, MacKey, keyed_mac8
from .layout import BLOCK_SIZE, PAGE_SIZE, EmulatedDram, _round_up_pages
from .verifier import CatastrophicFailure

GROUP_ARITY = 16  # leaf MACs per mid; a group is two 64-byte blocks
REGION_ARITY = 8  # mid MACs per top; a region's mids are one block
REGION_PAGES = GROUP_ARITY * REGION_ARITY
TOP_CACHE_ENTRIES = 8
ZERO_MAC = bytes(MAC_BYTES)  # a mid or top word that stands for its boot value
ZERO_GROUP = bytes(GROUP_ARITY * MAC_BYTES)


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


def forest_storage(total_size: int) -> ForestStorage:
    """MAC storage needed to authenticate `total_size` bytes of memory."""
    pages = total_size // PAGE_SIZE
    groups = -(-pages // GROUP_ARITY)
    regions = -(-groups // REGION_ARITY)
    return ForestStorage(
        leaf_bytes=pages * MAC_BYTES,
        mid_bytes=groups * MAC_BYTES,
        top_bytes=regions * MAC_BYTES,
    )


class MacForest:
    """Leaf/mid storage, top callbacks, verified reads and clubbed updates.

    Region-cache hits and misses are counted in `events`, the run's one
    counter (`CycleStats.events`); leaf and mid traffic is counted by the
    DRAM under cause "forest".
    """

    def __init__(
        self,
        dram: EmulatedDram,
        base_addr: int,
        n_pages: int,
        ssk_bytes: bytes,
        top_read: Callable[[int], bytes],
        top_write: Callable[[int, bytes], None],
        *,
        events: Counter,
        top_cache: bool = True,
    ):
        if n_pages <= 0 or n_pages % REGION_PAGES:
            raise ValueError(f"n_pages must be a positive multiple of {REGION_PAGES}")
        if base_addr % BLOCK_SIZE:
            raise ValueError("base_addr must be block aligned")
        self.dram = dram
        self.top_cache_enabled = top_cache
        self.ssk = MacKey(ssk_bytes)
        self.n_pages = n_pages
        self.n_groups = n_pages // GROUP_ARITY
        self.n_regions = self.n_groups // REGION_ARITY
        self.leaf_base = base_addr
        self.mid_base = base_addr + _round_up_pages(n_pages * MAC_BYTES)
        self.top_read = top_read
        self.top_write = top_write
        self._top_cache: OrderedDict[int, bytes] = OrderedDict()
        self.events = events

    # ------------------------------------------------------------ layout
    def leaf_addr(self, page: int) -> int:
        if not 0 <= page < self.n_pages:
            raise ValueError(f"page {page} outside forest range")
        return self.leaf_base + page * MAC_BYTES

    def mid_addr(self, group: int) -> int:
        return self.mid_base + group * MAC_BYTES

    def group_of(self, page: int) -> int:
        return page // GROUP_ARITY

    def region_of(self, page: int) -> int:
        return self.group_of(page) // REGION_ARITY

    # ------------------------------------------------------------- MACs
    def _mid_mac(self, group: int, leaf_blob: bytes) -> bytes:
        return keyed_mac8(self.ssk, b"forest-mid", group.to_bytes(8, "big"), leaf_blob)

    def _top_mac(self, region: int, mid_blob: bytes) -> bytes:
        return keyed_mac8(self.ssk, b"forest-top", region.to_bytes(8, "big"), mid_blob)

    def _boot_mids(self, region: int) -> bytes:
        """The region's eight mids over all-zero leaf groups."""
        first = region * REGION_ARITY
        return b"".join(
            self._mid_mac(g, ZERO_GROUP) for g in range(first, first + REGION_ARITY)
        )

    # ----------------------------------------------------------- traffic
    def _leaf_group_span(self, group: int) -> tuple[int, int]:
        start = self.leaf_base + group * GROUP_ARITY * MAC_BYTES
        return start, GROUP_ARITY * MAC_BYTES

    def _mid_group_span(self, region: int) -> tuple[int, int]:
        start = self.mid_base + region * REGION_ARITY * MAC_BYTES
        return start, REGION_ARITY * MAC_BYTES

    # -------------------------------------------------------- top cache
    def _top_cached(self, region: int) -> bytes | None:
        if not self.top_cache_enabled:
            return None
        mac = self._top_cache.get(region)
        if mac is not None:
            self._top_cache.move_to_end(region)
        return mac

    def _top_cache_put(self, region: int, mac: bytes):
        if not self.top_cache_enabled:
            return
        self._top_cache[region] = mac
        self._top_cache.move_to_end(region)
        while len(self._top_cache) > TOP_CACHE_ENTRIES:
            self._top_cache.popitem(last=False)

    # ------------------------------------------------------------ verify
    def _check_region(
        self, region: int, leaf_groups: dict[int, bytearray], page: int
    ) -> bytearray:
        """Check leaf groups against their stored mids, the mids against the top.

        The top comes from the region cache or the top_read callback, and the
        authenticated top goes back into the cache.  Returns the mid group;
        a mismatch raises, naming `page`.  Zero mid and top words are read as
        their boot values first, so the returned mids hold none.
        """
        mids = bytearray(self.dram.read_span(*self._mid_group_span(region), "forest"))
        boot_mids = None
        if 0 in memoryview(mids).cast("Q"):
            boot_mids = self._boot_mids(region)
            for lo in range(0, len(mids), MAC_BYTES):
                word = slice(lo, lo + MAC_BYTES)
                if mids[word] == ZERO_MAC:
                    mids[word] = boot_mids[word]
        for g, leaves in leaf_groups.items():
            mslot = (g % REGION_ARITY) * MAC_BYTES
            if bytes(mids[mslot : mslot + MAC_BYTES]) != self._mid_mac(g, bytes(leaves)):
                raise CatastrophicFailure(
                    f"MAC group digest mismatch above page {page}", page=page
                )
        stored_top = self._top_cached(region)
        if stored_top is None:
            self.events["top_cache_misses"] += 1
            stored_top = self.top_read(region)
            if stored_top == ZERO_MAC:
                if boot_mids is None:
                    boot_mids = self._boot_mids(region)
                stored_top = self._top_mac(region, boot_mids)
        else:
            self.events["top_cache_hits"] += 1
        if stored_top != self._top_mac(region, bytes(mids)):
            raise CatastrophicFailure(
                f"region digest mismatch above page {page}", page=page
            )
        self._top_cache_put(region, stored_top)
        return mids

    def verify_page(self, page: int, expected_leaf: bytes) -> None:
        """Compare recomputed vs stored MACs at leaf, mid and top level."""
        if len(expected_leaf) != MAC_BYTES:
            raise ValueError("leaf MAC must be 8 bytes")
        group = self.group_of(page)
        span = self._leaf_group_span(group)
        leaves = bytearray(self.dram.read_span(*span, "forest"))
        slot = (page % GROUP_ARITY) * MAC_BYTES
        if bytes(leaves[slot : slot + MAC_BYTES]) != expected_leaf:
            raise CatastrophicFailure(
                f"page MAC mismatch at leaf level for page {page}", page=page
            )
        self._check_region(self.region_of(page), {group: leaves}, page)

    # ------------------------------------------------------------ update
    def update(self, updates: Iterable[tuple[int, bytes]]) -> None:
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

        by_region: dict[int, list[tuple[int, bytes]]] = {}
        for page, leaf in items:
            by_region.setdefault(self.region_of(page), []).append((page, leaf))

        for region in sorted(by_region):
            batch = by_region[region]
            bufs: dict[int, bytearray] = {}
            for g in sorted({self.group_of(p) for p, _ in batch}):
                span = self._leaf_group_span(g)
                bufs[g] = bytearray(self.dram.read_span(*span, "forest"))

            # authenticate every byte the rebuild is about to trust
            mids = self._check_region(region, bufs, batch[0][0])

            dirty_blocks: set[int] = set()
            for page, leaf in batch:
                g = self.group_of(page)
                slot = (page % GROUP_ARITY) * MAC_BYTES
                bufs[g][slot : slot + MAC_BYTES] = leaf
                dirty_blocks.add(self.leaf_addr(page) // BLOCK_SIZE * BLOCK_SIZE)

            for baddr in sorted(dirty_blocks):
                g = (baddr - self.leaf_base) // (GROUP_ARITY * MAC_BYTES)
                off = baddr - (self.leaf_base + g * GROUP_ARITY * MAC_BYTES)
                self.dram.write(baddr, bytes(bufs[g][off : off + BLOCK_SIZE]), "forest")

            for g, leaves in bufs.items():
                mslot = (g % REGION_ARITY) * MAC_BYTES
                mids[mslot : mslot + MAC_BYTES] = self._mid_mac(g, bytes(leaves))
            mstart, _ = self._mid_group_span(region)
            self.dram.write_span(mstart, bytes(mids), "forest")

            top = self._top_mac(region, bytes(mids))
            self.top_write(region, top)
            self._top_cache_put(region, top)
