"""Counter-based integrity tree over the hardware-protected page cache.

The EPC is protected the classic way: counter-mode encryption plus a
Carter-Wegman style counter tree.  Every EPC page owns a 64-byte leaf node
holding its 56-bit major write counter and an 8-byte MAC over its plaintext
contents; internal nodes hold one counter per child packed into 56 bytes
(448/arity bits each: 14 bits at the arity of 32) plus an 8-byte
node MAC.  A node's MAC is keyed by the counter its parent holds for it, so
a replayed stale (node, MAC) pair fails against the incremented parent, and
the chain terminates in root counters kept on-chip.

The tree binds each protected page as it lies in DRAM: page i of the
range is the 4 KiB at i * PAGE_SIZE, and `write_update` and `check_data` MAC
it there, through `EmulatedDram.page_view`, so no caller hands the tree
bytes and no copy of a page stands between DRAM and its MAC.  The tree
meters its own node reads and writes; a page's data traffic is its
callers' to make and meter.

Narrow internal counters can wrap: a wrap resets the slot to 0 and re-keys
the affected child MAC in the same update (the re-encryption such designs
charge), counted as the run event `overflow_rekeys`.  A wrap re-keys only
that child, so a parent slot that has counted exactly 2^14 more writes holds
the same counter again, and the child's snapshot from before them verifies:
that replay is open, pinned as a strict xfail in tests/test_merkle.py.

A direct-mapped write-through 32 KiB counter cache holds verified
node lines; a walk stops at the first cached ancestor.

Construction writes nothing and computes no MAC, so boot costs the same at
any EPC size.  A stored node that reads as 64 zero bytes under a trusted
parent counter (or root counter) of 0 stands for its boot value and is
trusted without a MAC check.  For an internal node the boot value is every
child counter at 0, which the zero bytes already say; for a leaf it is major
0 over the zero page, and `read_verify`, the one reader of a leaf's data
MAC, works that MAC out when it meets a boot leaf.  A node's first update
writes its real bytes and bumps its parent's counter, so from then on zeros
fail the MAC check like any other forgery.

This is as strong as writing every boot node at construction.  An eager boot
node is a pure function of the SSK and its index, keyed by parent counter 0,
and it would sit in the clear in DRAM, so an adversary who writes zeros
gains nothing over one who replays those bytes: both verify exactly where
the parent counter reads 0, and nowhere else.  The rule rests on the tree's
DRAM starting unwritten -- the protected pages and the node storage -- which
construction checks.

Storage for a 128 MiB protected range at arity 32 with 64-byte nodes is
32768 + 1024 + 32 nodes = 2 MiB + 64 KiB + 2 KiB, with the root on-chip; a
512 GiB range would need gigabytes of counters, which is the scaling problem
the MAC forest exists to avoid.
"""

from __future__ import annotations

from collections import Counter

from .crypto import MacKey, PageMacKey, keyed_mac8
from .layout import PAGE_SIZE, ZERO_PAGE, ConfigError, EmulatedDram
from .verifier import CatastrophicFailure

NODE_BYTES = 64
NODE_MAC_BYTES = 8
COUNTER_AREA_BYTES = NODE_BYTES - NODE_MAC_BYTES  # 56
COUNTER_AREA_BITS = COUNTER_AREA_BYTES * 8  # 448
LEAF_MAJOR_BITS = 56
ARITY = 32  # children per internal node
COUNTER_BITS = COUNTER_AREA_BITS // ARITY  # 14: per-child counter width
COUNTER_MAX = (1 << COUNTER_BITS) - 1
CACHE_LINES = 32768 // NODE_BYTES  # a 32 KiB counter cache
ZERO_NODE = bytes(NODE_BYTES)  # under a parent counter of 0: a boot node
_LEAF_PAD = bytes(NODE_BYTES - 24)  # a leaf's bytes 16-55, which no MAC covers


def level_counts(n_leaves: int, arity: int) -> list[int]:
    """Stored node count per level, leaves first; the root is on-chip."""
    if n_leaves < 1:
        raise ValueError("tree needs at least one leaf")
    counts = [n_leaves]
    while counts[-1] > arity:
        counts.append(-(-counts[-1] // arity))
    return counts


def child_counter(node: bytes, idx: int) -> int:
    """The counter an internal node holds for its child node `idx`."""
    word = int.from_bytes(node[:COUNTER_AREA_BYTES], "little")
    return (word >> (idx % ARITY * COUNTER_BITS)) & COUNTER_MAX


def merkle_storage_bytes(protected_size: int) -> int:
    """DRAM bytes for counter-tree nodes over a protected range (root excluded)."""
    if protected_size % PAGE_SIZE:
        raise ValueError("protected size must be page aligned")
    return sum(level_counts(protected_size // PAGE_SIZE, ARITY)) * NODE_BYTES


def carve_slots(epc_pages: int, reserved: int) -> int:
    """Data slots an EPC holds beside `reserved` other protected pages.

    The counter tree covers the slots and the reserved pages and is stored
    after them, inside the EPC: this is the largest n with
    n + reserved + tree_pages(n + reserved) <= epc_pages.
    """

    def tree_pages(pages: int) -> int:
        return -(-merkle_storage_bytes(pages * PAGE_SIZE) // PAGE_SIZE)

    # a tree over the whole EPC is no smaller than the one needed, so this n
    # fits; the tree is a small fraction of the EPC, so few steps remain
    n = epc_pages - reserved - tree_pages(epc_pages)
    while n + 1 + reserved + tree_pages(n + 1 + reserved) <= epc_pages:
        n += 1
    if n < 2:
        raise ConfigError(
            f"EPC too small for metadata plus two data slots: epc_size "
            f"{epc_pages * PAGE_SIZE} beside {reserved} reserved pages and a "
            "counter tree over them"
        )
    return n


class EpcMerkle:
    """Byte-exact counter tree over the first `n_pages` physical pages.

    Its nodes are stored from `base_addr`, past those pages.  Both spans
    must be unwritten when the tree is built: a node still zero stands for
    its boot value, and a boot leaf for the zero page.
    """

    def __init__(
        self,
        dram: EmulatedDram,
        base_addr: int,
        n_pages: int,
        ssk_bytes: bytes,
        *,
        events: Counter,
        cache: bool = True,
    ):
        self.dram = dram
        self.base = base_addr
        self.n_pages = n_pages
        self.ssk = MacKey(ssk_bytes)
        self.data_key = PageMacKey(ssk_bytes)  # the same key, for data MACs
        self.cache_enabled = cache
        self.counts = level_counts(n_pages, ARITY)
        self.offsets = []
        off = 0
        for c in self.counts:
            self.offsets.append(off)
            off += c * NODE_BYTES
        self.storage_bytes = off
        if base_addr < n_pages * PAGE_SIZE:
            raise ValueError(
                f"counter-tree nodes at {base_addr:#x} overlap the "
                f"{n_pages} pages the tree protects"
            )
        self.root_counters = [0] * self.counts[-1]
        self.events = events
        self._paths: dict[int, tuple[tuple[int, int], ...]] = {}  # see _path
        # direct-mapped, write-through: line index -> (node_addr, bytes)
        self._cache: dict[int, tuple[int, bytes]] = {}
        for addr, length in ((0, n_pages * PAGE_SIZE), (base_addr, self.storage_bytes)):
            if dram.touched_in(addr, length):
                raise ValueError(
                    f"counter tree over written DRAM: [{addr:#x}, +{length:#x}) "
                    "holds materialized pages, which no boot value stands for"
                )

    # ------------------------------------------------------------ layout
    def node_addr(self, level: int, idx: int) -> int:
        return self.base + self.offsets[level] + idx * NODE_BYTES

    def _path(self, page: int) -> tuple[tuple[int, int], ...]:
        """(node index, node address) at each stored level, leaf first.

        A page's path never changes, so it is worked out once and kept.
        """
        if not 0 <= page < self.n_pages:
            raise ValueError(f"page {page} outside protected range")
        path = self._paths.get(page)
        if path is None:
            nodes, idx = [], page
            for level in range(len(self.counts)):
                nodes.append((idx, self.node_addr(level, idx)))
                idx //= ARITY
            path = self._paths[page] = tuple(nodes)
        return path

    # ------------------------------------------------------- node codecs
    @staticmethod
    def _leaf_bytes(major: int, data_mac: bytes, mac: bytes) -> bytes:
        return major.to_bytes(8, "little") + data_mac + _LEAF_PAD + mac

    @staticmethod
    def _leaf_fields(raw: bytes) -> tuple[int, bytes, bytes]:
        return int.from_bytes(raw[:8], "little"), raw[8:16], raw[56:64]

    # ------------------------------------------------------------- MACs
    def _leaf_mac(self, idx: int, parent_counter: int, major: int, data_mac: bytes) -> bytes:
        return keyed_mac8(
            self.ssk,
            b"tree-leaf",
            idx.to_bytes(8, "big"),
            parent_counter.to_bytes(8, "big"),
            major.to_bytes(8, "little"),
            data_mac,
        )

    def _node_mac(self, level: int, idx: int, parent_counter: int, counters_blob: bytes) -> bytes:
        return keyed_mac8(
            self.ssk,
            b"tree-node",
            level.to_bytes(1, "big"),
            idx.to_bytes(8, "big"),
            parent_counter.to_bytes(8, "big"),
            counters_blob,
        )

    def data_mac(self, page: int, major: int, plaintext: bytes) -> bytes:
        return keyed_mac8(
            self.data_key,
            b"tree-data",
            page.to_bytes(8, "big"),
            major.to_bytes(8, "little"),
            plaintext,
        )

    # ------------------------------------------------------------ cache
    def _cache_get(self, addr: int) -> bytes | None:
        if not self.cache_enabled:
            return None
        hit = self._cache.get((addr // NODE_BYTES) % CACHE_LINES)
        if hit and hit[0] == addr:
            return hit[1]
        return None

    def _cache_put(self, addr: int, raw: bytes):
        if self.cache_enabled:
            self._cache[(addr // NODE_BYTES) % CACHE_LINES] = (addr, raw)

    # -------------------------------------------------------- trusted walk
    def _fetch_verified_path(
        self, page: int, path: tuple[tuple[int, int], ...], full: bool
    ) -> tuple[list, int]:
        """The trusted walk past a cache miss: node bytes by level, leaf
        first, and the DRAM reads it made.

        A read walk (full=False) needs the leaf and stops at the first cached
        ancestor, leaving None above it; an update (full=True) needs every
        stored level because all ancestor counters increment.  Fetched nodes
        are verified top-down against their trusted parent.  `read_verify`
        and `write_update` come here only when a level they need is not
        cached; a disabled cache stays empty, so it never hits.
        """
        trusted: list = [None] * len(path)
        fetched: list[tuple[int, bytes]] = []  # (level, raw), leaf first
        for level, (_, addr) in enumerate(path):
            cached = self._cache_get(addr)
            if cached is not None:
                trusted[level] = cached
                if not full:
                    break
            else:
                fetched.append((level, self.dram.read(addr, NODE_BYTES, "merkle")))

        # verify top-down so each parent is trusted before its child; zeros
        # under a counter of 0 are the node's boot value (module docstring)
        top = len(path) - 1
        for level, raw in reversed(fetched):
            idx, addr = path[level]
            if level == top:
                parent_counter = self.root_counters[idx]
            else:
                parent_counter = child_counter(trusted[level + 1], idx)
            if parent_counter or raw != ZERO_NODE:
                if level == 0:
                    major, dmac, stored = self._leaf_fields(raw)
                    expect = self._leaf_mac(idx, parent_counter, major, dmac)
                else:
                    stored = raw[COUNTER_AREA_BYTES:]
                    expect = self._node_mac(
                        level, idx, parent_counter, raw[:COUNTER_AREA_BYTES]
                    )
                if stored != expect:
                    raise CatastrophicFailure(
                        f"counter-tree node MAC mismatch at level {level} node {idx}",
                        page=page,
                    )
            trusted[level] = raw
            self._cache_put(addr, raw)
        return trusted, len(fetched)

    # ---------------------------------------------------------------- ops
    def read_verify(self, page: int) -> tuple[int, bytes, int]:
        """Authenticate the counter path of a page: (major counter, data MAC
        its leaf binds, DRAM reads)."""
        path = self._paths.get(page) or self._path(page)
        addr = path[0][1]
        hit = self._cache.get(addr // NODE_BYTES % CACHE_LINES)
        if hit is not None and hit[0] == addr:  # a cached leaf is trusted
            leaf, reads = hit[1], 0
        else:
            nodes, reads = self._fetch_verified_path(page, path, False)
            leaf = nodes[0]
        major, dmac = self._bound_data(page, leaf)
        return major, dmac, reads

    def _bound_data(self, page: int, leaf: bytes) -> tuple[int, bytes]:
        """The (major, data MAC) a trusted leaf binds its page to; a boot
        leaf binds major 0 over the zero page."""
        if leaf == ZERO_NODE:
            return 0, self.data_mac(page, 0, ZERO_PAGE)
        return int.from_bytes(leaf[:8], "little"), leaf[8:16]

    def check_data(self, page: int, major: int, stored_mac: bytes):
        """Check the page as it lies in DRAM against its bound data MAC."""
        if self.data_mac(page, major, self.dram.page_view(page)) != stored_mac:
            raise CatastrophicFailure(
                f"page-cache data MAC mismatch for slot {page}", page=page
            )

    def check(self, page: int) -> int:
        """Check a protected page against the tree; returns the DRAM reads."""
        major, dmac, reads = self.read_verify(page)
        self.check_data(page, major, dmac)
        return reads

    def write_update(self, page: int) -> tuple[int, int, int]:
        """Bump the page's major counter, bind the page as it lies in DRAM
        and refresh the MAC path; returns (major, DRAM reads, DRAM writes)."""
        path = self._paths.get(page) or self._path(page)
        cache = self._cache
        nodes = ()  # every level from the cache, else from the full walk
        for _, addr in path:
            hit = cache.get(addr // NODE_BYTES % CACHE_LINES)
            if hit is None or hit[0] != addr:
                nodes, reads = self._fetch_verified_path(page, path, True)
                break
            nodes += (hit[1],)
        else:
            reads = 0
        major = int.from_bytes(nodes[0][:8], "little") + 1
        if major >= 1 << LEAF_MAJOR_BITS:
            raise CatastrophicFailure("page major counter exhausted", page=page)

        # Bottom-up: bump the counter each parent holds for the path child,
        # then re-MAC the child under it.  `word` is this level's counter
        # area, already bumped by the level below.
        dmac = self.data_mac(page, major, self.dram.page_view(page))
        top = len(path) - 1
        write = self.dram.write
        if not self.cache_enabled:
            cache = None
        word = level = 0
        for idx, addr in path:
            if level == top:
                self.root_counters[idx] += 1
                parent_counter = self.root_counters[idx]
            else:
                parent_word = int.from_bytes(nodes[level + 1][:COUNTER_AREA_BYTES], "little")
                shift = idx % ARITY * COUNTER_BITS
                parent_counter = (parent_word >> shift) & COUNTER_MAX
                if parent_counter == COUNTER_MAX:
                    # wrap: reset the slot alone, re-keying the child MAC
                    parent_word -= COUNTER_MAX << shift
                    parent_counter = 0
                    self.events["overflow_rekeys"] += 1
                else:
                    parent_word += 1 << shift
                    parent_counter += 1
            if level:
                blob = word.to_bytes(COUNTER_AREA_BYTES, "little")
                raw = blob + self._node_mac(level, idx, parent_counter, blob)
            else:
                raw = self._leaf_bytes(
                    major, dmac, self._leaf_mac(idx, parent_counter, major, dmac)
                )
            if level != top:
                word = parent_word
            write(addr, raw, "merkle")
            if cache is not None:  # _cache_put, inline
                cache[addr // NODE_BYTES % CACHE_LINES] = (addr, raw)
            level += 1
        return major, reads, level
