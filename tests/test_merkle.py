"""Counter-tree storage arithmetic, verified walks, caching and tampering."""

import functools
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
    COUNTER_MAX,
    LEAF_MAJOR_BITS,
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


NODE_BASE = 8 * MIB  # past every tree's pages; a multiple of the cache size


def make_tree(n_pages=64, cache=True, cls=EpcMerkle):
    lay = MemoryLayout.build(total_size=16 * MIB, epc_size=4 * MIB)
    dram = EmulatedDram(lay)
    tree = cls(
        dram, base_addr=NODE_BASE, n_pages=n_pages, ssk_bytes=SSK, events=Counter(),
        cache=cache,
    )
    return tree, dram


def bind(tree, page, pt):
    """Put `pt` in the page where the tree protects it, then bind it:
    (major, DRAM reads, DRAM writes)."""
    tree.dram.poke(page * PAGE_SIZE, pt)
    return tree.write_update(page)


def check_as(tree, page, major, pt, data_mac):
    """Put `pt` in the page, then check it against `data_mac`."""
    tree.dram.poke(page * PAGE_SIZE, pt)
    tree.check_data(page, major, data_mac)


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
        major, _, _ = tree.read_verify(page)
        assert major == 0


def test_write_bumps_major_and_read_returns_it():
    tree, _ = make_tree(64)
    page = 5
    pt = bytes(4096)
    for expect in (1, 2, 3):
        major, _, _ = bind(tree, page, pt)
        assert major == expect
    assert tree.read_verify(page)[0] == 3
    check_as(tree, page, 3, pt, tree.read_verify(page)[1])


def test_counter_cache_stops_walk():
    tree, _ = make_tree(64)
    *_, first = tree.read_verify(7)
    assert first == len(tree.counts)  # cold: every stored level
    *_, again = tree.read_verify(7)
    assert again == 0  # leaf line now cached


def test_cache_disabled_always_walks():
    tree, _ = make_tree(64, cache=False)
    tree.read_verify(7)
    assert tree.read_verify(7)[2] == len(tree.counts)


def test_write_through_keeps_dram_current():
    tree, dram = make_tree(64)
    bind(tree, 9, bytes(4096))
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
            bind(tree, page, pt)
            majors[page] += 1
        else:
            major, dmac, _ = tree.read_verify(page)
            assert major == majors[page]
            check_as(tree, page, major, pages_pt[page], dmac)
    _oracle_check_all_nodes(tree, dram)


@pytest.mark.parametrize("byte_slice", [(0, 16), (56, 64)])
def test_leaf_tamper_detected(byte_slice):
    tree, dram = make_tree(64)
    bind(tree, 3, b"\x11" * 4096)
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
    bind(tree, 40, b"\x22" * 4096)
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
    bind(tree, page, b"\x33" * 4096)
    addr = tree.node_addr(0, page)
    snapshot = dram.peek(addr, NODE_BYTES)
    bind(tree, page, b"\x44" * 4096)  # parent counter moves on
    dram.poke(addr, snapshot)  # replay the stale (node, MAC) pair
    tree._cache.clear()
    with pytest.raises(CatastrophicFailure):
        tree.read_verify(page)


def test_data_mac_mismatch_detected():
    tree, _ = make_tree(64)
    bind(tree, 2, b"\x55" * 4096)
    major, dmac, _ = tree.read_verify(2)
    with pytest.raises(CatastrophicFailure):
        check_as(tree, 2, major, b"\x56" + b"\x55" * 4095, dmac)


def test_internal_counter_wrap_rekeys_and_survives():
    # 14-bit slots at arity 32: 16384 updates wrap the leaf's parent slot.
    tree, dram = make_tree(64)
    pt = bytes(4096)
    for _ in range(16385):
        bind(tree, 0, pt)
    assert tree.events["overflow_rekeys"] >= 1
    assert tree.read_verify(0)[0] == 16385
    _oracle_check_all_nodes(tree, dram)


def test_an_exhausted_major_counter_is_caught_and_changes_nothing():
    # a MAC-valid leaf at the last major its 56 bits hold, keyed by the
    # counter its parent holds for it: the next write has no major left
    tree, dram = make_tree(64, cache=False)
    bind(tree, 5, b"\x5a" * 4096)
    parent = dram.peek(tree.node_addr(1, 0), NODE_BYTES)
    major = (1 << LEAF_MAJOR_BITS) - 1
    dmac = tree.data_mac(5, major, dram.peek(5 * PAGE_SIZE, PAGE_SIZE))
    leaf = tree._leaf_bytes(major, dmac, tree._leaf_mac(5, _slots(parent)[5], major, dmac))
    dram.poke(tree.node_addr(0, 5), leaf)
    assert tree.check(5) == len(tree.counts)  # the poked leaf verifies

    def nodes():
        return dram.peek(NODE_BASE, tree.storage_bytes)

    before = nodes(), list(tree.root_counters), dict(dram.writes)
    with pytest.raises(CatastrophicFailure, match="page major counter exhausted"):
        tree.write_update(5)
    assert (nodes(), list(tree.root_counters), dict(dram.writes)) == before


def test_fresh_tree_binds_zero_pages():
    tree, _ = make_tree(64)
    _, dmac, _ = tree.read_verify(11)
    check_as(tree, 11, 0, bytes(4096), dmac)  # boot state = zero page
    with pytest.raises(CatastrophicFailure):
        check_as(tree, 11, 0, b"\x01" + bytes(4095), dmac)


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
            addrs.append(NODE_BASE + (sum(self.counts[:level]) + idx) * NODE_BYTES)
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
    _, *cold = bind(tree, 7, b"\x01" * 4096)
    assert cold == [3, 3]
    _, *again = bind(tree, 7, b"\x02" * 4096)
    assert again == [0, 3]
    assert tree.read_verify(7)[2] == 0
    # page 78's leaf and its parent share a line, and the leaf is filled
    # last: a read walk stops at the leaf although the parent is gone, and
    # an update fetches the parent again
    assert tree.read_verify(78)[2] == 2  # the top node is cached
    assert tree.read_verify(78)[2] == 0
    assert bind(tree, 78, bytes(4096))[1] == 1
    assert tree.read_verify(78)[2] == 1


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
            major, *traffic = bind(tree, page, contents[page])
            assert major == writes[page]
            assert tuple(traffic) == model.write(page)
        else:
            major, dmac, reads = tree.read_verify(page)
            assert major == writes.get(page, 0)
            assert reads == model.read(page)
            if page in contents:
                check_as(tree, page, major, contents[page], dmac)
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
            bind(tree, slot * span + i % span, bytes(4096))

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


def test_a_tree_is_not_stored_over_its_own_pages():
    # the tree binds page i at i * PAGE_SIZE, so its nodes must lie past them
    lay = MemoryLayout.build(total_size=16 * MIB, epc_size=4 * MIB)
    with pytest.raises(ValueError, match="overlap the 64 pages"):
        EpcMerkle(
            EmulatedDram(lay), base_addr=63 * PAGE_SIZE, n_pages=64, ssk_bytes=SSK,
            events=Counter(),
        )
    EpcMerkle(
        EmulatedDram(lay), base_addr=64 * PAGE_SIZE, n_pages=64, ssk_bytes=SSK,
        events=Counter(),
    )


def _zero_node(tree, dram, level, idx):
    dram.poke(tree.node_addr(level, idx), ZERO_NODE)
    tree._cache.clear()  # the adversary reaches DRAM only


@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_zeroed_written_node_is_caught(level):
    tree, dram = make_tree(THREE_LEVELS)
    bind(tree, 40, b"\x22" * 4096)
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
    bind(tree, 40, b"\x22" * 4096)
    before = tree.read_verify(41)
    _zero_node(tree, dram, 0, 41)
    after = tree.read_verify(41)
    assert after[:2] == before[:2]
    assert after[0] == 0
    check_as(tree, 41, 0, ZERO_PAGE, after[1])


@pytest.mark.parametrize("cache", [True, False])
def test_check_data_on_a_boot_leaf_passes_only_the_zero_page(cache):
    tree, _ = make_tree(THREE_LEVELS, cache=cache)
    eager, _ = make_eager_tree(THREE_LEVELS, cache=cache)
    bind(tree, 40, b"\x22" * 4096)  # a written sibling
    for page in (0, 41, THREE_LEVELS - 1):
        _, dmac, _ = tree.read_verify(page)
        assert dmac == eager.read_verify(page)[1]
        check_as(tree, page, 0, ZERO_PAGE, dmac)
        for wrong in (b"\x01" + bytes(4095), bytes(4095) + b"\x80", b"\x22" * 4096):
            with pytest.raises(CatastrophicFailure, match="data MAC mismatch"):
                check_as(tree, page, 0, wrong, dmac)
        with pytest.raises(CatastrophicFailure, match="data MAC mismatch"):
            check_as(tree, page, 1, ZERO_PAGE, dmac)


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
    return tree.read_verify(page)


def _write(tree, page, pt):
    return bind(tree, page, pt)


def _check(tree, page, pt):
    major, dmac, reads = tree.read_verify(page)
    check_as(tree, page, major, pt, dmac)
    return major, reads


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
        assert dram.total_accesses() == 0  # the eager twin's boot pokes are unmetered
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
                    dram.poke(page * PAGE_SIZE, contents.get(page, ZERO_PAGE))
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
            for _, dram in trees:  # put back the page the tree binds
                dram.poke(page * PAGE_SIZE, contents.get(page, ZERO_PAGE))
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
    bind(tree, 0, b"X" * 4096)
    addr = tree.node_addr(0, 0)
    snapshot = dram.peek(addr, NODE_BYTES)
    for _ in range(1 << COUNTER_BITS):
        bind(tree, 0, b"Y" * 4096)
    assert tree.events["overflow_rekeys"] == 1
    dram.poke(addr, snapshot)
    with pytest.raises(CatastrophicFailure):
        major, dmac, _ = tree.read_verify(0)
        check_as(tree, 0, major, b"X" * 4096, dmac)


# ------------------------------------- differential against a byte-taking tree
class _ByteTakingTree(EpcMerkle):
    """The tree as it stood while its callers handed it page bytes:
    `write_update(page, plaintext)`, `read_verify(page)` and
    `check_data(page, major, plaintext, stored_mac)`, with the walk they
    shared, copied as they were but for returning tuples.  Node layout,
    MACs, paths and the cache are the tree's own."""

    def _walk(self, page, full=False):
        path = self._path(page)
        trusted = {}
        fetched = []  # (level, raw), leaf first
        for level, (_, addr) in enumerate(path):
            cached = self._cache_get(addr)
            if cached is not None:
                trusted[level] = cached
                if not full:
                    break
            else:
                fetched.append((level, self.dram.read(addr, NODE_BYTES, "merkle")))
        top = len(path) - 1
        for level, raw in reversed(fetched):
            idx, addr = path[level]
            if level == top:
                parent_counter = self.root_counters[idx]
            else:
                parent_counter = _slots(trusted[level + 1])[idx % ARITY]
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
        return path, trusted, len(fetched)

    def read_verify(self, page):
        _, trusted, reads = self._walk(page)
        major, dmac = self._bound_data(page, trusted[0])
        return major, dmac, reads

    def check_data(self, page, major, plaintext, stored_mac):
        if self.data_mac(page, major, plaintext) != stored_mac:
            raise CatastrophicFailure(
                f"page-cache data MAC mismatch for slot {page}", page=page
            )

    def write_update(self, page, plaintext):
        path, trusted, reads = self._walk(page, full=True)
        major = int.from_bytes(trusted[0][:8], "little") + 1
        if major >= 1 << LEAF_MAJOR_BITS:
            raise CatastrophicFailure("page major counter exhausted", page=page)
        dmac = self.data_mac(page, major, plaintext)
        top = len(path) - 1
        word = 0
        for level, (idx, addr) in enumerate(path):
            if level == top:
                self.root_counters[idx] += 1
                parent_counter = self.root_counters[idx]
            else:
                parent_word = int.from_bytes(trusted[level + 1][:COUNTER_AREA_BYTES], "little")
                shift = idx % ARITY * COUNTER_BITS
                parent_counter = (parent_word >> shift) & COUNTER_MAX
                if parent_counter == COUNTER_MAX:
                    parent_word -= COUNTER_MAX << shift
                    parent_counter = 0
                    self.events["overflow_rekeys"] += 1
                else:
                    parent_word += 1 << shift
                    parent_counter += 1
            if level == 0:
                raw = self._leaf_bytes(
                    major, dmac, self._leaf_mac(idx, parent_counter, major, dmac)
                )
            else:
                blob = word.to_bytes(COUNTER_AREA_BYTES, "little")
                raw = blob + self._node_mac(level, idx, parent_counter, blob)
            if level != top:
                word = parent_word
            self.dram.write(addr, raw, "merkle")
            self._cache_put(addr, raw)
        return major, reads, len(path)


WRAP_PAGE = 0  # its next write wraps its parent's slot and its grandparent's


@functools.lru_cache(maxsize=None)
def _one_write_short_of_a_wrap():
    """Node storage, page bytes and root counters after COUNTER_MAX writes
    of WRAP_PAGE on the byte-taking tree: one more write wraps."""
    tree, dram = make_tree(THREE_LEVELS, cls=_ByteTakingTree)
    for i in range(COUNTER_MAX):
        pt = i.to_bytes(8, "little") * (PAGE_SIZE // 8)
        dram.poke(WRAP_PAGE * PAGE_SIZE, pt)
        tree.write_update(WRAP_PAGE, pt)
    assert not tree.events["overflow_rekeys"]
    return (
        dram.peek(NODE_BASE, tree.storage_bytes),
        dram.peek(WRAP_PAGE * PAGE_SIZE, PAGE_SIZE),
        tuple(tree.root_counters),
    )


_diff_pages = st.one_of(
    st.integers(0, THREE_LEVELS - 1),
    st.sampled_from([WRAP_PAGE, 1, 31, 32, 78, 1023, 1024, 1099]),
)
_diff_ops = st.one_of(
    # write: an 8-byte store into the page, then bind it
    st.tuples(st.just("write"), _diff_pages, st.integers(0, 511), st.binary(min_size=8, max_size=8)),
    st.tuples(st.just("read"), _diff_pages),
    st.tuples(st.just("check"), _diff_pages),
    # the adversary: flip bits of a page, or of a node on a page's path
    # (then, or not, the cache loses its lines, as on eviction)
    st.tuples(st.just("poke_page"), _diff_pages, st.integers(0, 4095), st.integers(1, 255)),
    st.tuples(
        st.just("poke_node"), _diff_pages, st.integers(0, 2), st.integers(0, 63),
        st.integers(1, 255), st.booleans(),
    ),
)


@pytest.mark.parametrize("cache", [True, False])
@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_diff_ops, max_size=30), wrap_at=st.integers(0, 30))
def test_binding_pages_in_place_matches_the_byte_taking_tree(cache, ops, wrap_at):
    nodes, wrap_page, roots = _one_write_short_of_a_wrap()
    new, new_dram = make_tree(THREE_LEVELS, cache)
    ref, ref_dram = make_tree(THREE_LEVELS, cache, cls=_ByteTakingTree)
    for tree, dram in ((new, new_dram), (ref, ref_dram)):
        dram.poke(NODE_BASE, nodes)
        dram.poke(WRAP_PAGE * PAGE_SIZE, wrap_page)
        tree.root_counters[:] = roots
    drams = (new_dram, ref_dram)

    def flip(addr, xor):
        for dram in drams:
            dram.poke(addr, bytes([dram.peek(addr, 1)[0] ^ xor]))

    def page_bytes(page):
        return ref_dram.peek(page * PAGE_SIZE, PAGE_SIZE)

    def read_and_check(tree, page):
        major, dmac, reads = tree.read_verify(page)
        tree.check_data(page, major, page_bytes(page), dmac)
        return reads

    steps = list(ops)
    wrap = ("write", WRAP_PAGE, 0, b"wrapping")
    steps.insert(min(wrap_at, len(steps)), wrap)
    for step in steps:
        op, page, *args = step
        if op == "write":
            for dram in drams:
                dram.poke(page * PAGE_SIZE + args[0] * 8, args[1])
            out = (
                _outcome(lambda: new.write_update(page)),
                _outcome(lambda: ref.write_update(page, page_bytes(page))),
            )
        elif op == "read":
            out = _outcome(lambda: new.read_verify(page)), _outcome(lambda: ref.read_verify(page))
        elif op == "check":
            out = _outcome(lambda: new.check(page)), _outcome(lambda: read_and_check(ref, page))
        elif op == "poke_page":
            flip(page * PAGE_SIZE + args[0], args[1])
            continue
        else:
            level, offset, xor, evict = args
            flip(new.node_addr(level, page // ARITY**level) + offset, xor)
            if evict:
                new._cache.clear()
                ref._cache.clear()
            continue
        assert out[0] == out[1], (op, page)
        if step is wrap and not isinstance(out[0], str):
            assert new.events["overflow_rekeys"] >= 1  # the write wrapped
        assert new_dram.peek(NODE_BASE, new.storage_bytes) == ref_dram.peek(
            NODE_BASE, ref.storage_bytes
        )
        assert new.root_counters == ref.root_counters
        assert (new_dram.reads, new_dram.writes) == (ref_dram.reads, ref_dram.writes)
    assert new.events == ref.events
