"""Counter-tree storage arithmetic, verified walks, caching and tampering."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.crypto import keyed_mac8
from enclavesim.layout import EmulatedDram, MemoryLayout
from enclavesim.merkle import (
    ARITY,
    CACHE_LINES,
    COUNTER_BITS,
    NODE_BYTES,
    EpcMerkle,
    level_counts,
    merkle_storage_bytes,
)
from enclavesim.verifier import CatastrophicFailure

MIB = 1 << 20
GIB = 1 << 30
SSK = bytes(range(32))


def make_tree(n_pages=64, cache=True):
    lay = MemoryLayout.build(total_size=16 * MIB, epc_size=4 * MIB)
    dram = EmulatedDram(lay)
    tree = EpcMerkle(
        dram, base_addr=0, n_pages=n_pages, ssk_bytes=SSK, events=Counter(), cache=cache
    )
    return tree, dram


def test_storage_bytes_128mib():
    # 32768 leaves + 1024 + 32 internal nodes, 64 B each; root on-chip.
    assert level_counts(32768, 32) == [32768, 1024, 32]
    total = merkle_storage_bytes(128 * MIB)
    assert total == (32768 + 1024 + 32) * 64 == 2164736
    assert abs(total / MIB - 2.06) < 0.01


def test_storage_bytes_full_memory_does_not_scale():
    # Protecting all 512 GiB this way costs more than 8 GiB of counters.
    assert merkle_storage_bytes(512 * GIB) > 8 * GIB


def test_fresh_tree_verifies_everywhere():
    tree, _ = make_tree(64)
    for page in (0, 31, 32, 63):
        res = tree.read_verify(page)
        assert res.major == 0


def test_write_bumps_major_and_read_returns_it():
    tree, _ = make_tree(64)
    page = 5
    pt = bytes(4096)
    for expect in (1, 2, 3):
        w = tree.write_update(page, pt)
        assert w.major == expect
    assert tree.read_verify(page).major == 3
    tree.check_data(page, 3, pt, tree.read_verify(page).data_mac)


def test_counter_cache_stops_walk():
    tree, _ = make_tree(64)
    first = tree.read_verify(7)
    assert first.dram_reads == len(tree.counts)  # cold: every stored level
    again = tree.read_verify(7)
    assert again.dram_reads == 0  # leaf line now cached


def test_cache_disabled_always_walks():
    tree, _ = make_tree(64, cache=False)
    tree.read_verify(7)
    assert tree.read_verify(7).dram_reads == len(tree.counts)


def test_write_through_keeps_dram_current():
    tree, dram = make_tree(64)
    tree.write_update(9, bytes(4096))
    for level, (idx, addr) in enumerate(tree._path(9)):
        assert addr == tree.node_addr(level, idx)
        cached = tree._cache_get(addr)
        assert cached is not None and cached == dram.peek(addr, NODE_BYTES)


@pytest.mark.parametrize("n_pages,levels", [(1, 1), (32, 1), (33, 2), (1100, 3)])
def test_kept_paths_equal_a_fresh_walk(n_pages, levels):
    lay = MemoryLayout.build(total_size=16 * MIB, epc_size=4 * MIB)
    base = 8 * MIB
    tree = EpcMerkle(
        EmulatedDram(lay), base_addr=base, n_pages=n_pages, ssk_bytes=SSK,
        events=Counter(),
    )
    counts = level_counts(n_pages, ARITY)
    assert len(counts) == levels
    starts = [base + sum(counts[:level]) * NODE_BYTES for level in range(levels)]

    def fresh(page):
        return tuple(
            (page // ARITY**level, starts[level] + page // ARITY**level * NODE_BYTES)
            for level in range(levels)
        )

    for _ in range(2):  # first computed, then kept
        for page in range(n_pages):
            assert tree._path(page) == fresh(page)
        for page in (-1, n_pages):
            with pytest.raises(ValueError, match="outside protected range"):
                tree._path(page)


def _slots(raw: bytes) -> list[int]:
    """All ARITY counters of an internal node, unpacked one by one."""
    word = int.from_bytes(raw[:56], "little")
    return [(word >> (j * COUNTER_BITS)) & ((1 << COUNTER_BITS) - 1) for j in range(ARITY)]


def _oracle_check_all_nodes(tree: EpcMerkle, dram: EmulatedDram):
    """Recompute every node MAC from raw DRAM bytes and the on-chip root."""

    def parent_counter(level, idx):
        if level + 1 >= len(tree.counts):
            return tree.root_counters[idx]
        praw = dram.peek(tree.node_addr(level + 1, idx // ARITY), NODE_BYTES)
        return _slots(praw)[idx % ARITY]

    for level, count in enumerate(tree.counts):
        for idx in range(count):
            raw = dram.peek(tree.node_addr(level, idx), NODE_BYTES)
            pc = parent_counter(level, idx)
            if level == 0:
                expect = keyed_mac8(
                    SSK,
                    b"tree-leaf",
                    idx.to_bytes(8, "big"),
                    pc.to_bytes(8, "big"),
                    raw[:8],
                    raw[8:16],
                )
            else:
                expect = keyed_mac8(
                    SSK,
                    b"tree-node",
                    level.to_bytes(1, "big"),
                    idx.to_bytes(8, "big"),
                    pc.to_bytes(8, "big"),
                    raw[:56],
                )
            assert raw[56:64] == expect, f"node MAC stale at L{level} idx {idx}"


def test_brute_force_oracle_after_random_ops():
    tree, dram = make_tree(64)
    rng = random.Random(1234)
    majors = {p: 0 for p in range(64)}
    pages_pt = {p: bytes(4096) for p in range(64)}
    for _ in range(500):
        page = rng.randrange(64)
        if rng.random() < 0.5:
            pt = bytes([rng.randrange(256)]) * 4096
            pages_pt[page] = pt
            tree.write_update(page, pt)
            majors[page] += 1
        else:
            res = tree.read_verify(page)
            assert res.major == majors[page]
            tree.check_data(page, res.major, pages_pt[page], res.data_mac)
    _oracle_check_all_nodes(tree, dram)


@pytest.mark.parametrize("byte_slice", [(0, 16), (56, 64)])
def test_leaf_tamper_detected(byte_slice):
    tree, dram = make_tree(64)
    tree.write_update(3, b"\x11" * 4096)
    addr = tree.node_addr(0, 3)
    raw = bytearray(dram.peek(addr, NODE_BYTES))
    off = random.Random(7).randrange(*byte_slice)
    raw[off] ^= 0x80
    dram.poke(addr, bytes(raw))
    tree._cache.clear()  # adversary only reaches DRAM, cache holds the truth
    with pytest.raises(CatastrophicFailure):
        tree.read_verify(3)


def test_internal_node_tamper_detected():
    tree, dram = make_tree(64)
    tree.write_update(40, b"\x22" * 4096)
    addr = tree.node_addr(1, 1)  # parent of pages 32..63
    raw = bytearray(dram.peek(addr, NODE_BYTES))
    raw[5] ^= 1
    dram.poke(addr, bytes(raw))
    tree._cache.clear()
    with pytest.raises(CatastrophicFailure):
        tree.read_verify(40)


def test_counter_replay_detected():
    tree, dram = make_tree(64)
    page = 12
    tree.write_update(page, b"\x33" * 4096)
    addr = tree.node_addr(0, page)
    snapshot = dram.peek(addr, NODE_BYTES)
    tree.write_update(page, b"\x44" * 4096)  # parent counter moves on
    dram.poke(addr, snapshot)  # replay the stale (node, MAC) pair
    tree._cache.clear()
    with pytest.raises(CatastrophicFailure):
        tree.read_verify(page)


def test_data_mac_mismatch_detected():
    tree, _ = make_tree(64)
    tree.write_update(2, b"\x55" * 4096)
    res = tree.read_verify(2)
    with pytest.raises(CatastrophicFailure):
        tree.check_data(2, res.major, b"\x56" + b"\x55" * 4095, res.data_mac)


def test_internal_counter_wrap_rekeys_and_survives():
    # 14-bit slots at arity 32: 16384 updates wrap the leaf's parent slot.
    tree, dram = make_tree(64)
    pt = bytes(4096)
    for _ in range(16385):
        tree.write_update(0, pt)
    assert tree.events["overflow_rekeys"] >= 1
    assert tree.read_verify(0).major == 16385
    _oracle_check_all_nodes(tree, dram)


def test_fresh_tree_binds_zero_pages():
    tree, _ = make_tree(64)
    res = tree.read_verify(11)
    tree.check_data(11, 0, bytes(4096), res.data_mac)  # boot state = zero page
    with pytest.raises(CatastrophicFailure):
        tree.check_data(11, 0, b"\x01" + bytes(4095), res.data_mac)


# ------------------------------------------- three stored levels, end to end
THREE_LEVELS = 1100  # level_counts: [1100, 35, 2], root counters on-chip


class _CacheModel:
    """Reference for the DRAM traffic of a direct-mapped write-through cache.

    Node addresses come from the level counts alone; a walk reads every
    level below the first cached one (an update reads every uncached
    level), fills the fetched lines top-down and writes the path bottom-up.
    """

    def __init__(self, n_pages: int, enabled: bool):
        self.counts = level_counts(n_pages, ARITY)
        self.enabled = enabled
        self.lines: dict[int, int] = {}

    def path(self, page: int) -> list[int]:
        addrs, idx = [], page
        for level in range(len(self.counts)):
            addrs.append((sum(self.counts[:level]) + idx) * NODE_BYTES)
            idx //= ARITY
        return addrs

    def _hit(self, addr: int) -> bool:
        return self.enabled and self.lines.get(addr // NODE_BYTES % CACHE_LINES) == addr

    def _fill(self, addrs):
        if self.enabled:
            for addr in addrs:
                self.lines[addr // NODE_BYTES % CACHE_LINES] = addr

    def read(self, page: int) -> int:
        fetch = []
        for addr in self.path(page):
            if self._hit(addr):
                break
            fetch.append(addr)
        self._fill(reversed(fetch))
        return len(fetch)

    def write(self, page: int) -> tuple[int, int]:
        path = self.path(page)
        fetch = [addr for addr in path if not self._hit(addr)]
        self._fill(reversed(fetch))
        self._fill(path)
        return len(fetch), len(path)


def test_three_level_update_costs():
    tree, _ = make_tree(THREE_LEVELS)
    assert tree.counts == [1100, 35, 2]
    cold = tree.write_update(7, b"\x01" * 4096)
    assert (cold.dram_reads, cold.dram_writes) == (3, 3)
    again = tree.write_update(7, b"\x02" * 4096)
    assert (again.dram_reads, again.dram_writes) == (0, 3)
    assert tree.read_verify(7).dram_reads == 0
    # page 78's leaf and its parent share a line, and the leaf is filled
    # last: a read walk stops at the leaf although the parent is gone, and
    # an update fetches the parent again
    assert tree.read_verify(78).dram_reads == 2  # the top node is cached
    assert tree.read_verify(78).dram_reads == 0
    assert tree.write_update(78, bytes(4096)).dram_reads == 1
    assert tree.read_verify(78).dram_reads == 1


_pages = st.one_of(
    st.integers(0, THREE_LEVELS - 1),
    # neighbours under one parent, the last partial group, and page 78,
    # whose leaf and parent share a cache line
    st.sampled_from([0, 1, 31, 32, 33, 78, 1023, 1024, 1099]),
)


@pytest.mark.parametrize("cache", [True, False])
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), _pages), min_size=1, max_size=40))
def test_random_ops_match_reference_model(cache, ops):
    tree, dram = make_tree(THREE_LEVELS, cache=cache)
    model = _CacheModel(THREE_LEVELS, cache)
    writes: dict[int, int] = {}
    contents: dict[int, bytes] = {}
    for is_write, page in ops:
        if is_write:
            writes[page] = writes.get(page, 0) + 1
            contents[page] = bytes([writes[page] % 256]) * 4096
            res = tree.write_update(page, contents[page])
            assert res.major == writes[page]
            assert (res.dram_reads, res.dram_writes) == model.write(page)
        else:
            res = tree.read_verify(page)
            assert res.major == writes.get(page, 0)
            assert res.dram_reads == model.read(page)
            if page in contents:
                tree.check_data(page, res.major, contents[page], res.data_mac)
    _oracle_check_all_nodes(tree, dram)
    for page in range(THREE_LEVELS):
        raw = dram.peek(tree.node_addr(0, page), NODE_BYTES)
        assert int.from_bytes(raw[:8], "little") == writes.get(page, 0)


@pytest.mark.parametrize("level", [1, 2])
def test_counter_wrap_leaves_neighbour_slots_alone(level):
    # slot j of node (level, 0) wraps; slots j-1 and j+1 hold 1 and 2
    tree, dram = make_tree(THREE_LEVELS)
    span = ARITY ** (level - 1)  # pages under one child of that node
    j = 5

    def write(slot: int, n: int):
        for i in range(n):
            tree.write_update(slot * span + i % span, bytes(4096))

    write(j - 1, 1)
    write(j + 1, 2)
    write(j, 1 << COUNTER_BITS)  # the last of these wraps slot j to 0
    slots = _slots(dram.peek(tree.node_addr(level, 0), NODE_BYTES))
    assert slots[j - 1 : j + 2] == [1, 0, 2]
    if level == 1:
        # the grandparent's slot 0 counts all 16,387 writes: it wrapped too
        assert _slots(dram.peek(tree.node_addr(2, 0), NODE_BYTES))[0] == 3
    assert tree.events["overflow_rekeys"] == 3 - level
    _oracle_check_all_nodes(tree, dram)
