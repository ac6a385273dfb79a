"""Counter-tree storage arithmetic, verified walks, caching and tampering."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.crypto import keyed_mac8
from enclavesim.layout import PAGE_SIZE, ZERO_PAGE, EmulatedDram, MemoryLayout
from enclavesim.merkle import (
    ARITY,
    CACHE_LINES,
    COUNTER_AREA_BYTES,
    COUNTER_BITS,
    NODE_BYTES,
    ZERO_NODE,
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


def make_eager_tree(n_pages=64, cache=True):
    """The eager twin: a tree whose DRAM holds every boot node up front.
    Each leaf binds major 0 over the zero page, and every node carries its
    MAC under a parent counter of 0."""
    tree, dram = make_tree(n_pages, cache)
    zeros = bytes(COUNTER_AREA_BYTES)
    for level, count in enumerate(tree.counts):
        for idx in range(count):
            if level == 0:
                dmac = tree.data_mac(idx, 0, ZERO_PAGE)
                raw = tree._leaf_bytes(0, dmac, tree._leaf_mac(idx, 0, 0, dmac))
            else:
                raw = zeros + tree._node_mac(level, idx, 0, zeros)
            dram.poke(tree.node_addr(level, idx), raw)
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
    """Recompute every node MAC from raw DRAM bytes and the on-chip root;
    a node still zero under a parent counter of 0 is its boot value."""

    def parent_counter(level, idx):
        if level + 1 >= len(tree.counts):
            return tree.root_counters[idx]
        praw = dram.peek(tree.node_addr(level + 1, idx // ARITY), NODE_BYTES)
        return _slots(praw)[idx % ARITY]

    for level, count in enumerate(tree.counts):
        for idx in range(count):
            raw = dram.peek(tree.node_addr(level, idx), NODE_BYTES)
            pc = parent_counter(level, idx)
            if pc == 0 and raw == ZERO_NODE:
                continue
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


# ------------------------------------------------------ boot by zero nodes
def test_boot_writes_nothing():
    _, dram = make_tree(THREE_LEVELS)
    assert dram.touched_pages() == 0
    assert dram.total_accesses() == 0


@pytest.mark.parametrize(
    "poke_at", [3 * PAGE_SIZE + 100, 8 * MIB + 64 * NODE_BYTES], ids=["page", "node"]
)
def test_a_tree_is_built_only_over_unwritten_dram(poke_at):
    # a page already written could not stand for its boot value
    lay = MemoryLayout.build(total_size=16 * MIB, epc_size=4 * MIB)
    dram = EmulatedDram(lay)
    dram.poke(poke_at, b"\x01")
    with pytest.raises(ValueError, match="counter tree over written DRAM"):
        EpcMerkle(dram, base_addr=8 * MIB, n_pages=64, ssk_bytes=SSK, events=Counter())
    dram = EmulatedDram(lay)
    dram.poke(64 * PAGE_SIZE, b"\x01")  # past the pages, short of the nodes
    EpcMerkle(dram, base_addr=8 * MIB, n_pages=64, ssk_bytes=SSK, events=Counter())


def _zero_node(tree, dram, level, idx):
    dram.poke(tree.node_addr(level, idx), ZERO_NODE)
    tree._cache.clear()  # the adversary reaches DRAM only


@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_zeroed_written_node_is_caught(level):
    tree, dram = make_tree(THREE_LEVELS)
    tree.write_update(40, b"\x22" * 4096)
    _zero_node(tree, dram, level, 40 // ARITY**level)
    with pytest.raises(
        CatastrophicFailure, match=f"MAC mismatch at level {level} node {40 // ARITY**level}"
    ):
        tree.read_verify(40)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_forged_node_under_a_zero_counter_is_caught(level):
    # page 40's path was never written: every counter on it is 0
    tree, dram = make_tree(THREE_LEVELS)
    forged = bytearray(ZERO_NODE)
    forged[0] = 1  # major 1, or one child counter at 1
    dram.poke(tree.node_addr(level, 40 // ARITY**level), bytes(forged))
    with pytest.raises(CatastrophicFailure, match=f"MAC mismatch at level {level}"):
        tree.read_verify(40)


@pytest.mark.parametrize("eager", [False, True])
def test_a_zeroed_never_written_node_verifies_as_boot(eager):
    # page 41's leaf was never written, under a parent that was: zeros in
    # its place are its boot value, in a lazy tree and in an eager twin alike
    tree, dram = (make_eager_tree if eager else make_tree)(THREE_LEVELS)
    tree.write_update(40, b"\x22" * 4096)
    before = tree.read_verify(41)
    _zero_node(tree, dram, 0, 41)
    after = tree.read_verify(41)
    assert (after.major, after.data_mac) == (before.major, before.data_mac)
    assert after.major == 0
    tree.check_data(41, 0, ZERO_PAGE, after.data_mac)


@pytest.mark.parametrize("cache", [True, False])
def test_check_data_on_a_boot_leaf_passes_only_the_zero_page(cache):
    tree, _ = make_tree(THREE_LEVELS, cache=cache)
    eager, _ = make_eager_tree(THREE_LEVELS, cache=cache)
    tree.write_update(40, b"\x22" * 4096)  # a written sibling
    for page in (0, 41, THREE_LEVELS - 1):
        res = tree.read_verify(page)
        assert res.data_mac == eager.read_verify(page).data_mac
        tree.check_data(page, 0, ZERO_PAGE, res.data_mac)
        for wrong in (b"\x01" + bytes(4095), bytes(4095) + b"\x80", b"\x22" * 4096):
            with pytest.raises(CatastrophicFailure, match="data MAC mismatch"):
                tree.check_data(page, 0, wrong, res.data_mac)
        with pytest.raises(CatastrophicFailure, match="data MAC mismatch"):
            tree.check_data(page, 1, ZERO_PAGE, res.data_mac)


# The differential runs the same operations on a tree built lazily and on
# its eager twin.  Tampering hits both at the same node and step: a flip of
# a MAC-covered bit, a replay of the node's bytes from an earlier snapshot of
# the same tree (snapshot 0 is boot: zeros in one, the eager boot node in
# the other), or zeros over a node whose parent counter is no longer 0.
# Bytes 16-55 of a leaf are padding no MAC covers, so a flip there goes
# unseen in the eager twin but is caught on a lazy boot leaf, whose bytes
# are then no longer zero; the differential leaves them out.
def _covered_offsets(level):
    return [*range(16), *range(56, 64)] if level == 0 else range(NODE_BYTES)


def _outcome(fn):
    try:
        return fn()
    except CatastrophicFailure as exc:
        return f"caught: {exc}"


def _read(tree, page):
    res = tree.read_verify(page)
    return res.major, res.data_mac, res.dram_reads


def _write(tree, page, pt):
    res = tree.write_update(page, pt)
    return res.major, res.dram_reads, res.dram_writes


def _check(tree, page, pt):
    res = tree.read_verify(page)
    tree.check_data(page, res.major, pt, res.data_mac)
    return res.major, res.dram_reads


def _counter_of(tree, level, page):
    """The counter that node (level, page's ancestor) is keyed by."""
    idx = page // ARITY**level
    if level + 1 == len(tree.counts):
        return tree.root_counters[idx]
    parent = tree.dram.peek(tree.node_addr(level + 1, idx // ARITY), NODE_BYTES)
    return _slots(parent)[idx % ARITY]


@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_lazy_boot_behaves_like_an_eager_one(seed, cache, tamper):
    rng = random.Random(seed)
    trees = [make_tree(THREE_LEVELS, cache), make_eager_tree(THREE_LEVELS, cache)]
    for _, dram in trees:
        dram.reads.clear()  # the eager twin's boot pokes are unmetered anyway
    snaps = [{}, {}]  # per tree: step -> {node address: bytes}
    contents: dict[int, bytes] = {}
    hot = rng.sample(range(THREE_LEVELS), 12)  # pages that collide often

    def both(fn, *args):
        out = [_outcome(lambda t=t: fn(t, *args)) for t, _ in trees]
        assert out[0] == out[1], (fn.__name__, args)
        return out[0]

    for step in range(300):
        page = rng.choice(hot) if rng.random() < 0.7 else rng.randrange(THREE_LEVELS)
        kind = rng.random()
        if step % 50 == 0:
            for (tree, dram), snap in zip(trees, snaps):
                addrs = (
                    tree.node_addr(level, idx)
                    for level, count in enumerate(tree.counts)
                    for idx in range(count)
                )
                snap[step] = {a: dram.peek(a, NODE_BYTES) for a in addrs}
        if tamper and kind < 0.25:
            level = rng.randrange(len(trees[0][0].counts))
            addr = trees[0][0].node_addr(level, page // ARITY**level)
            how = rng.choice(("flip", "replay", "zero"))
            saved = [dram.peek(addr, NODE_BYTES) for _, dram in trees]
            if how == "zero" and not _counter_of(trees[0][0], level, page):
                how = "flip"  # zeros under a counter of 0 are boot: not a tamper
            if how == "flip":
                off, bit = rng.choice(_covered_offsets(level)), 1 << rng.randrange(8)
            when = rng.choice(sorted(snaps[0]))
            for (tree, dram), snap in zip(trees, snaps):
                raw = bytearray(dram.peek(addr, NODE_BYTES))
                if how == "flip":
                    raw[off] ^= bit
                elif how == "replay":
                    raw[:] = snap[when][addr]
                else:
                    raw[:] = ZERO_NODE
                dram.poke(addr, bytes(raw))
            if rng.random() < 0.5:
                out = both(_read, page)
                undo = True
            else:
                pt = bytes([step % 251 + 1]) * 4096
                out = both(_write, page, pt)
                undo = isinstance(out, str)
                if not undo:
                    contents[page] = pt
            if undo:  # a write that went through has rewritten the node
                for (_, dram), raw in zip(trees, saved):
                    dram.poke(addr, raw)
        elif kind < 0.55:
            contents[page] = bytes([step % 251 + 1]) * 4096
            both(_write, page, contents[page])
        elif kind < 0.8:
            both(_read, page)
        else:
            pt = contents.get(page, ZERO_PAGE)
            if tamper and rng.random() < 0.3:
                pt = pt[:100] + bytes([pt[100] ^ 4]) + pt[101:]
            out = both(_check, page, pt)
            assert isinstance(out, str) == (pt != contents.get(page, ZERO_PAGE))
    (lazy, lazy_dram), (eager, eager_dram) = trees
    assert lazy_dram.reads == eager_dram.reads
    assert lazy_dram.writes == eager_dram.writes
    assert lazy.events == eager.events and lazy.root_counters == eager.root_counters
    # wherever the lazy tree holds a node, the twin holds the same bytes
    for level, count in enumerate(lazy.counts):
        for idx in range(count):
            raw = lazy_dram.peek(lazy.node_addr(level, idx), NODE_BYTES)
            if raw != ZERO_NODE:
                assert raw == eager_dram.peek(lazy.node_addr(level, idx), NODE_BYTES)


@pytest.mark.xfail(
    strict=True,
    reason="open: a wrap re-keys only the child, so a 14-bit parent counter "
    "that has counted 2^14 writes holds its old value and the stale leaf "
    "verifies again (ROADMAP item 1)",
)
def test_a_leaf_replayed_across_a_counter_wrap_is_caught():
    tree, dram = make_tree(64, cache=False)
    tree.write_update(0, b"X" * 4096)
    addr = tree.node_addr(0, 0)
    snapshot = dram.peek(addr, NODE_BYTES)
    for _ in range(1 << COUNTER_BITS):
        tree.write_update(0, b"Y" * 4096)
    assert tree.events["overflow_rekeys"] == 1
    dram.poke(addr, snapshot)
    with pytest.raises(CatastrophicFailure):
        res = tree.read_verify(0)
        tree.check_data(0, res.major, b"X" * 4096, res.data_mac)
