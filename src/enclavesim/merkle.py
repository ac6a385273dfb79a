"""Counter-based integrity tree over the hardware-protected page cache.

The EPC is protected the classic way: counter-mode encryption plus a
Carter-Wegman style counter tree.  Every EPC page owns a 64-byte leaf node
holding its 56-bit major write counter and an 8-byte MAC over its plaintext
contents; internal nodes hold one counter per child packed into 56 bytes
(448/arity bits each, 14 bits at the default arity of 32) plus an 8-byte
node MAC.  A node's MAC is keyed by the counter its parent holds for it, so
replaying any stale (node, MAC) pair fails against the incremented parent,
and the chain terminates in root counters kept on-chip.

A direct-mapped write-through counter cache (default 32 KiB) holds verified
node lines; a walk stops at the first cached ancestor.  Narrow internal
counters can wrap: a wrap resets the slot and re-keys the affected child MAC
in the same update (the re-encryption such designs charge), counted as an
event.

Storage for a 128 MiB protected range at arity 32 with 64-byte nodes is
32768 + 1024 + 32 nodes = 2 MiB + 64 KiB + 2 KiB, with the root on-chip; a
512 GiB range would need gigabytes of counters, which is the scaling problem
the MAC forest exists to avoid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .crypto import keyed_mac8
from .layout import PAGE_SIZE
from .timing import MeteredDram
from .verifier import CatastrophicFailure

logger = logging.getLogger(__name__)

NODE_BYTES = 64
NODE_MAC_BYTES = 8
COUNTER_AREA_BITS = (NODE_BYTES - NODE_MAC_BYTES) * 8  # 448
LEAF_MAJOR_BITS = 56


@dataclass(frozen=True)
class MerkleTreeConfig:
    arity: int = 32
    counter_cache_bytes: int = 32768
    cache_enabled: bool = True

    def __post_init__(self):
        if self.arity < 2 or COUNTER_AREA_BITS % self.arity:
            raise ValueError("arity must divide 448 bits of counter space")

    @property
    def counter_bits(self) -> int:
        return COUNTER_AREA_BITS // self.arity


def level_counts(n_leaves: int, arity: int) -> list[int]:
    """Stored node count per level, leaves first; the root is on-chip."""
    if n_leaves < 1:
        raise ValueError("tree needs at least one leaf")
    counts = [n_leaves]
    while counts[-1] > arity:
        counts.append(-(-counts[-1] // arity))
    return counts


def merkle_storage_bytes(protected_size: int, config: MerkleTreeConfig | None = None) -> int:
    """DRAM bytes for counter-tree nodes over a protected range (root excluded)."""
    config = config or MerkleTreeConfig()
    if protected_size % PAGE_SIZE:
        raise ValueError("protected size must be page aligned")
    return sum(level_counts(protected_size // PAGE_SIZE, config.arity)) * NODE_BYTES


@dataclass
class ReadResult:
    major: int
    data_mac: bytes
    dram_reads: int


@dataclass
class WriteResult:
    major: int
    dram_reads: int
    dram_writes: int


class EpcMerkle:
    """Byte-exact counter tree over `n_pages` slots starting at `base_addr`."""

    def __init__(
        self,
        port: MeteredDram,
        base_addr: int,
        n_pages: int,
        ssk_bytes: bytes,
        config: MerkleTreeConfig | None = None,
        cause: str = "merkle",
    ):
        self.port = port
        self.base = base_addr
        self.n_pages = n_pages
        self.ssk = ssk_bytes
        self.config = config or MerkleTreeConfig()
        self.cause = cause
        self.counts = level_counts(n_pages, self.config.arity)
        self.offsets = []
        off = 0
        for c in self.counts:
            self.offsets.append(off)
            off += c * NODE_BYTES
        self.storage_bytes = off
        self.root_counters = [0] * self.counts[-1]
        self.overflow_rekeys = 0
        # direct-mapped, write-through: line index -> (node_addr, bytes)
        self._cache_lines = max(1, self.config.counter_cache_bytes // NODE_BYTES)
        self._cache: dict[int, tuple[int, bytes]] = {}
        self._init_storage()

    # ------------------------------------------------------------ layout
    def node_addr(self, level: int, idx: int) -> int:
        return self.base + self.offsets[level] + idx * NODE_BYTES

    def _path(self, page: int) -> list[tuple[int, int]]:
        if not 0 <= page < self.n_pages:
            raise ValueError(f"page {page} outside protected range")
        path, idx = [], page
        for level in range(len(self.counts)):
            path.append((level, idx))
            idx //= self.config.arity
        return path

    # ------------------------------------------------------- node codecs
    def _leaf_bytes(self, major: int, data_mac: bytes, mac: bytes) -> bytes:
        return (
            major.to_bytes(8, "little")
            + data_mac
            + bytes(NODE_BYTES - 24)
            + mac
        )

    @staticmethod
    def _leaf_fields(raw: bytes) -> tuple[int, bytes, bytes]:
        return int.from_bytes(raw[:8], "little"), raw[8:16], raw[56:64]

    def _pack_counters(self, counters: list[int]) -> bytes:
        cw = self.config.counter_bits
        word = 0
        for j, c in enumerate(counters):
            word |= c << (j * cw)
        return word.to_bytes(NODE_BYTES - NODE_MAC_BYTES, "little")

    def _unpack_counters(self, raw: bytes) -> list[int]:
        cw = self.config.counter_bits
        word = int.from_bytes(raw[: NODE_BYTES - NODE_MAC_BYTES], "little")
        mask = (1 << cw) - 1
        return [(word >> (j * cw)) & mask for j in range(self.config.arity)]

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
            self.ssk,
            b"tree-data",
            page.to_bytes(8, "big"),
            major.to_bytes(8, "little"),
            plaintext,
        )

    # ------------------------------------------------------------- boot
    def _init_storage(self):
        """Write a MAC-consistent tree over boot-time page content (unmetered)."""
        for level, count in enumerate(self.counts):
            for idx in range(count):
                if level == 0:
                    content = self.port.dram.peek(idx * PAGE_SIZE, PAGE_SIZE)
                    dmac = self.data_mac(idx, 0, content)
                    mac = self._leaf_mac(idx, 0, 0, dmac)
                    raw = self._leaf_bytes(0, dmac, mac)
                else:
                    blob = self._pack_counters([0] * self.config.arity)
                    raw = blob + self._node_mac(level, idx, 0, blob)
                self.port.dram.poke(self.node_addr(level, idx), raw)

    # ------------------------------------------------------------ cache
    def _cache_get(self, addr: int) -> bytes | None:
        if not self.config.cache_enabled:
            return None
        hit = self._cache.get((addr // NODE_BYTES) % self._cache_lines)
        if hit and hit[0] == addr:
            return hit[1]
        return None

    def _cache_put(self, addr: int, raw: bytes):
        if self.config.cache_enabled:
            self._cache[(addr // NODE_BYTES) % self._cache_lines] = (addr, raw)

    # -------------------------------------------------------- trusted walk
    def _fetch_verified_path(
        self, page: int, full: bool = False
    ) -> tuple[dict[int, bytearray], int]:
        """Return trusted node bytes for levels on page's path.

        A read walk stops at the first cache-resident ancestor; an update
        (full=True) needs every stored level because all ancestor counters
        increment.  Fetched nodes are verified top-down against their
        trusted parent.  Returns ({level: node bytes}, dram_reads).
        """
        path = self._path(page)
        trusted: dict[int, bytearray] = {}
        to_fetch: list[tuple[int, int, int]] = []  # (level, idx, addr)
        for level, idx in path:
            addr = self.node_addr(level, idx)
            cached = self._cache_get(addr)
            if cached is not None:
                trusted[level] = bytearray(cached)
                if not full:
                    break
            else:
                to_fetch.append((level, idx, addr))

        fetched: dict[int, tuple[int, bytes]] = {}
        reads = 0
        for level, idx, addr in to_fetch:
            fetched[level] = (idx, self.port.read(addr, NODE_BYTES, self.cause))
            reads += 1

        # verify top-down so each parent is trusted before its child
        for level in sorted(fetched, reverse=True):
            idx, raw = fetched[level]
            parent_counter = self._parent_counter(level, idx, trusted)
            if level == 0:
                major, dmac, stored = self._leaf_fields(raw)
                expect = self._leaf_mac(idx, parent_counter, major, dmac)
            else:
                stored = raw[56:64]
                expect = self._node_mac(level, idx, parent_counter, raw[:56])
            if stored != expect:
                raise CatastrophicFailure(
                    f"counter-tree node MAC mismatch at level {level} node {idx}",
                    page=page,
                )
            trusted[level] = bytearray(raw)
            self._cache_put(self.node_addr(level, idx), bytes(raw))
        return trusted, reads

    def _parent_counter(self, level: int, idx: int, trusted: dict[int, bytearray]) -> int:
        slot = idx % self.config.arity
        parent_level = level + 1
        if parent_level >= len(self.counts):
            return self.root_counters[idx]
        return self._unpack_counters(bytes(trusted[parent_level]))[slot]

    # ---------------------------------------------------------------- ops
    def read_verify(self, page: int) -> ReadResult:
        """Authenticate the counter path of a page; returns its major counter."""
        trusted, reads = self._fetch_verified_path(page)
        major, dmac, _ = self._leaf_fields(bytes(trusted[0]))
        return ReadResult(major=major, data_mac=dmac, dram_reads=reads)

    def check_data(self, page: int, major: int, plaintext: bytes, stored_mac: bytes):
        if self.data_mac(page, major, plaintext) != stored_mac:
            raise CatastrophicFailure(
                f"page-cache data MAC mismatch for slot {page}", page=page
            )

    def write_update(self, page: int, plaintext: bytes) -> WriteResult:
        """Bump the page's major counter and refresh the MAC path."""
        trusted, reads = self._fetch_verified_path(page, full=True)
        path = self._path(page)
        arity = self.config.arity
        cap = 1 << self.config.counter_bits

        major, _, _ = self._leaf_fields(bytes(trusted[0]))
        major += 1
        if major >= 1 << LEAF_MAJOR_BITS:
            raise CatastrophicFailure("page major counter exhausted", page=page)

        # bump the counter each ancestor holds for the path child
        for level, idx in path:
            slot = idx % arity
            parent_level = level + 1
            if parent_level >= len(self.counts):
                self.root_counters[idx] += 1
            else:
                counters = self._unpack_counters(bytes(trusted[parent_level]))
                counters[slot] += 1
                if counters[slot] >= cap:
                    counters[slot] = 0  # wrap re-keys the child MAC below
                    self.overflow_rekeys += 1
                blob = self._pack_counters(counters)
                trusted[parent_level][: NODE_BYTES - NODE_MAC_BYTES] = blob

        # recompute MACs bottom-up under the new parent counters
        dmac = self.data_mac(page, major, plaintext)
        writes = 0
        for level, idx in path:
            parent_counter = self._parent_counter(level, idx, trusted)
            if level == 0:
                raw = self._leaf_bytes(
                    major, dmac, self._leaf_mac(idx, parent_counter, major, dmac)
                )
            else:
                blob = bytes(trusted[level][: NODE_BYTES - NODE_MAC_BYTES])
                raw = blob + self._node_mac(level, idx, parent_counter, blob)
            trusted[level] = bytearray(raw)
            addr = self.node_addr(level, idx)
            self.port.write(addr, raw, self.cause)
            self._cache_put(addr, raw)
            writes += 1
        return WriteResult(major=major, dram_reads=reads, dram_writes=writes)
