"""MAC-forest storage arithmetic, access-count contracts, tamper detection."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.crypto import keyed_mac8
from enclavesim.forest import (
    GROUP_ARITY,
    MAC_BYTES,
    REGION_ARITY,
    REGION_PAGES,
    MacForest,
    forest_storage,
)
from enclavesim.layout import EmulatedDram, MemoryLayout, Region
from enclavesim.verifier import CatastrophicFailure

MIB = 1 << 20
GIB = 1 << 30
SSK = bytes(range(32, 64))


def leaf_for(page: int, version: int = 0) -> bytes:
    return keyed_mac8(SSK, b"test-leaf", page.to_bytes(8, "big"), version.to_bytes(4, "big"))


class TopStore:
    """Hardware-protected top-MAC table stand-in with access counters."""

    def __init__(self):
        self.macs = {}
        self.reads = 0
        self.writes = 0

    def read(self, region: int) -> bytes:
        self.reads += 1
        return self.macs.get(region, bytes(MAC_BYTES))

    def write(self, region: int, mac: bytes):
        self.writes += 1
        self.macs[region] = mac


def make_forest(total=16 * MIB, top_cache=True):
    storage = forest_storage(total)
    lay = MemoryLayout.build(
        total_size=total, epc_size=MIB, forest_storage_size=storage.dram_region_bytes
    )
    dram = EmulatedDram(lay)
    tops = TopStore()
    f = MacForest(
        dram,
        base_addr=lay.forest_base,
        n_pages=lay.total_pages,
        ssk_bytes=SSK,
        top_read=tops.read,
        top_write=tops.write,
        events=Counter(),
        top_cache=top_cache,
    )
    return f, dram, tops


def make_eager_forest(**kw):
    """A forest whose DRAM and top table hold every boot value up front:
    mids over zero leaf groups, tops over each region's boot mids."""
    f, dram, tops = make_forest(**kw)
    zero_group = bytes(GROUP_ARITY * MAC_BYTES)
    mids = b"".join(f._mid_mac(g, zero_group) for g in range(f.n_groups))
    dram.poke(f.mid_base, mids)
    span = REGION_ARITY * MAC_BYTES
    for r in range(f.n_regions):
        tops.macs[r] = f._top_mac(r, mids[r * span : (r + 1) * span])
    return f, dram, tops


# ----------------------------------------------------------------- storage
def test_storage_512gib():
    s = forest_storage(512 * GIB)
    assert s.leaf_bytes == 1 * GIB  # 2^27 pages x 8 B
    assert s.mid_bytes == 64 * MIB  # 2^23 groups x 8 B
    assert s.top_bytes == 8 * MIB  # 2^20 regions x 8 B
    assert s.total_bytes == 1096 * MIB
    assert s.dram_region_bytes == 1088 * MIB


def test_storage_scales_linearly():
    assert forest_storage(16 * MIB).total_bytes * 32768 == forest_storage(512 * GIB).total_bytes


def test_region_pages():
    assert REGION_PAGES == 128


def test_address_helpers():
    f, _, _ = make_forest()
    assert f.leaf_addr(0) == f.leaf_base
    assert f.leaf_addr(1) == f.leaf_base + 8
    assert f.mid_addr(1) == f.mid_base + 8
    assert f.group_of(17) == 1 and f.region_of(17) == 0
    assert f.region_of(128) == 1
    with pytest.raises(ValueError):
        f.leaf_addr(f.n_pages)


def test_config_validation():
    with pytest.raises(ValueError):
        make_forest()[0].__class__(
            dram=None, base_addr=0, n_pages=100, ssk_bytes=SSK,
            top_read=None, top_write=None, events=Counter(),
        )


# ----------------------------------------------- frozen access-count contract
def warm(f: MacForest, *pages: int):
    """Prime the on-chip region cache; count contracts assume hot regions."""
    for p in pages:
        f.update([(p, leaf_for(p, version=99))])


def update_cost(f: MacForest, tops: TopStore, *pages: int) -> tuple[int, int, int, int]:
    """One update of `pages`, as (forest reads, forest writes, top writes,
    top reads) counted by the DRAM and the top table."""
    d = f.dram
    before = (d.reads["forest"], d.writes["forest"], tops.writes, tops.reads)
    f.update([(p, leaf_for(p)) for p in pages])
    after = (d.reads["forest"], d.writes["forest"], tops.writes, tops.reads)
    return tuple(a - b for a, b in zip(after, before))


def verify_cost(f: MacForest, tops: TopStore, page: int, leaf: bytes) -> tuple[int, int, int]:
    """One verification of `page`, as (forest reads, top reads, top-cache
    hits) counted by the DRAM, the top table and the run's events."""
    def counts():
        return (f.dram.reads["forest"], tops.reads, f.events["top_cache_hits"])

    before = counts()
    f.verify_page(page, leaf)
    return tuple(a - b for a, b in zip(counts(), before))


def test_single_update_costs_six_accesses():
    f, _, tops = make_forest()
    warm(f, 66)  # same region, different leaf group
    cost = update_cost(f, tops, 0)
    assert cost == (3, 2, 1, 0)
    assert sum(cost) == 6


def test_cold_region_update_pays_one_top_read():
    # stale-state authentication must fetch the region digest once
    f, _, tops = make_forest()
    cost = update_cost(f, tops, 0)
    assert (cost[3], sum(cost)) == (1, 7)
    assert tops.reads == 1


def test_clubbed_same_group_costs_seven():
    # pages 0 and 8 share a leaf group but sit in different 64-byte blocks
    f, _, tops = make_forest()
    warm(f, 66)
    assert sum(update_cost(f, tops, 0, 8)) == 7


def test_clubbed_same_block_costs_six():
    # adjacent leaves share even the leaf block write
    f, _, tops = make_forest()
    warm(f, 66)
    assert sum(update_cost(f, tops, 0, 1)) == 6


def test_clubbed_same_region_costs_nine():
    # pages 0 and 127: distinct leaf groups, shared mid group and top
    f, _, tops = make_forest()
    warm(f, 66)
    assert sum(update_cost(f, tops, 0, 127)) == 9


def test_unclubbed_pair_costs_twelve():
    f, _, tops = make_forest()
    warm(f, 66)
    total = sum(sum(update_cost(f, tops, p)) for p in (0, 127))
    assert total == 12


def test_cross_region_pair_decomposes_to_twelve():
    f, _, tops = make_forest()
    warm(f, 66, 200)
    assert sum(update_cost(f, tops, 0, 128)) == 12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 127), st.integers(0, 127))
def test_clubbing_never_beats_region_sharing_bound(p1, p2):
    f, _, tops = make_forest()
    warm(f, (p1 + 64) % 128)
    if p1 == p2:
        p2 = (p2 + 1) % 128
    assert 6 <= sum(update_cost(f, tops, p1, p2)) <= 9  # always cheaper than 12 unclubbed


def test_verify_costs_at_most_four():
    f, _, tops = make_forest()
    f.update([(5, leaf_for(5))])
    f._top_cache.clear()
    cold = verify_cost(f, tops, 5, leaf_for(5))
    assert cold[2] == 0  # no top-cache hit
    assert cold[:2] == (3, 1)
    assert sum(cold[:2]) == 4
    warm = verify_cost(f, tops, 5, leaf_for(5))
    assert warm[2] == 1 and sum(warm[:2]) == 3


def test_top_cache_lru_evicts_ninth_region():
    f, _, tops = make_forest(total=32 * MIB)  # 64 regions
    for r in range(9):
        f.update([(r * 128, leaf_for(r * 128))])  # updates fill the cache too
    f._top_cache.clear()
    for r in range(9):
        f.verify_page(r * 128, leaf_for(r * 128))
    before = tops.reads
    res = verify_cost(f, tops, 0, leaf_for(0))  # region 0 was evicted by region 8
    assert res[1] == 1 and tops.reads == before + 1
    res = verify_cost(f, tops, 8 * 128, leaf_for(8 * 128))  # region 8 still resident
    assert res[1] == 0


def test_top_cache_disabled_always_reads():
    f, _, tops = make_forest(top_cache=False)
    f.update([(3, leaf_for(3))])  # update auth pays a top read too
    f.verify_page(3, leaf_for(3))
    f.verify_page(3, leaf_for(3))
    assert tops.reads == 3


# --------------------------------------------------------------- detection
def test_wrong_leaf_rejected():
    f, _, _ = make_forest()
    f.update([(9, leaf_for(9))])
    with pytest.raises(CatastrophicFailure):
        f.verify_page(9, leaf_for(9, version=1))


def test_tampered_sibling_leaf_detected_at_mid():
    f, dram, _ = make_forest()
    f.update([(0, leaf_for(0)), (1, leaf_for(1))])
    dram.poke(f.leaf_addr(1), b"\xff" * 8)  # sibling of page 0
    with pytest.raises(CatastrophicFailure) as e:
        f.verify_page(0, leaf_for(0))
    assert "group digest" in str(e.value)


def test_tampered_mid_detected():
    f, dram, _ = make_forest()
    f.update([(0, leaf_for(0))])
    raw = bytearray(dram.peek(f.mid_addr(0), 8))
    raw[0] ^= 1
    dram.poke(f.mid_addr(0), bytes(raw))
    with pytest.raises(CatastrophicFailure):
        f.verify_page(0, leaf_for(0))


def test_replayed_leaf_mid_pair_detected_at_top():
    f, dram, _ = make_forest(top_cache=False)
    page = 7
    f.update([(page, leaf_for(page, 1))])
    stale_leaves = dram.peek(*f._leaf_group_span(f.group_of(page)))
    stale_mids = dram.peek(*f._mid_group_span(f.region_of(page)))
    f.update([(page, leaf_for(page, 2))])
    dram.poke(f._leaf_group_span(f.group_of(page))[0], stale_leaves)
    dram.poke(f._mid_group_span(f.region_of(page))[0], stale_mids)
    with pytest.raises(CatastrophicFailure) as e:
        f.verify_page(page, leaf_for(page, 1))  # internally consistent replay
    assert "region digest" in str(e.value)


def test_tampered_top_detected():
    f, _, tops = make_forest(top_cache=False)
    f.update([(2, leaf_for(2))])
    tops.macs[0] = b"\x00" * 8
    with pytest.raises(CatastrophicFailure):
        f.verify_page(2, leaf_for(2))


def test_update_refuses_to_launder_a_rollback():
    # a consistent (leaf group, mid) rollback must not be folded into a
    # fresh top by a neighbouring update -- that would bless the replay
    f, dram, _ = make_forest(top_cache=False)
    page = 7
    f.update([(page, leaf_for(page, 1))])
    stale_leaves = dram.peek(*f._leaf_group_span(f.group_of(page)))
    stale_mids = dram.peek(*f._mid_group_span(f.region_of(page)))
    f.update([(page, leaf_for(page, 2))])
    dram.poke(f._leaf_group_span(f.group_of(page))[0], stale_leaves)
    dram.poke(f._mid_group_span(f.region_of(page))[0], stale_mids)
    with pytest.raises(CatastrophicFailure) as e:
        f.update([(40, leaf_for(40))])  # same region, different group
    assert "region digest" in str(e.value)


def test_update_detects_tampered_sibling_leaf():
    f, dram, _ = make_forest()
    f.update([(0, leaf_for(0))])
    dram.poke(f.leaf_addr(1), b"\xee" * 8)
    with pytest.raises(CatastrophicFailure) as e:
        f.update([(2, leaf_for(2))])  # same leaf group as the tamper
    assert "group digest" in str(e.value)


def test_top_cache_shields_against_top_tamper():
    # on-chip cached copy wins over a tampered backing entry
    f, _, tops = make_forest()
    f.update([(2, leaf_for(2))])
    tops.macs[0] = b"\x00" * 8
    assert verify_cost(f, tops, 2, leaf_for(2))[2] == 1


# ------------------------------------------------------------------ oracle
def _oracle_check(f: MacForest, dram: EmulatedDram, tops: TopStore, leaves_ref: dict):
    """Recompute mids and tops from raw DRAM bytes; compare to stored."""
    ga, ra = GROUP_ARITY, REGION_ARITY
    touched_groups = {f.group_of(p) for p in leaves_ref}
    touched_regions = {f.region_of(p) for p in leaves_ref}
    for page, leaf in leaves_ref.items():
        assert dram.peek(f.leaf_addr(page), MAC_BYTES) == leaf
    for g in touched_groups:
        blob = dram.peek(f.leaf_base + g * ga * MAC_BYTES, ga * MAC_BYTES)
        expect = keyed_mac8(SSK, b"forest-mid", g.to_bytes(8, "big"), blob)
        assert dram.peek(f.mid_addr(g), MAC_BYTES) == expect, f"stale mid {g}"
    for r in touched_regions:
        blob = dram.peek(f.mid_base + r * ra * MAC_BYTES, ra * MAC_BYTES)
        expect = keyed_mac8(SSK, b"forest-top", r.to_bytes(8, "big"), blob)
        assert tops.macs.get(r) == expect, f"stale top {r}"


def random_ops(n_pages: int, seed: int = 99, n: int = 300):
    """A random sequence of ("verify", page, leaf) and ("update", items)
    operations in which every verify names its page's current leaf; returns
    the operations and the final leaf of every updated page."""
    rng = random.Random(seed)
    ref: dict[int, bytes] = {}
    ops = []
    for version in range(1, n + 1):
        if ref and rng.random() < 0.4:
            page = rng.choice(sorted(ref))
            ops.append(("verify", page, ref[page]))
        elif ref and rng.random() < 0.5:
            pages = rng.sample(sorted(ref), k=min(2, len(ref)))
            ups = [(p, leaf_for(p, version)) for p in pages]
            ops.append(("update", ups))
            ref.update(ups)
        else:
            page = rng.randrange(n_pages)
            ups = [(page, leaf_for(page, version))]
            ops.append(("update", ups))
            ref.update(ups)
    return ops, ref


def test_brute_force_oracle_after_random_ops():
    f, dram, tops = make_forest()
    ops, ref = random_ops(f.n_pages)
    for op in ops:
        if op[0] == "verify":
            res = verify_cost(f, tops, op[1], op[2])
            assert sum(res[:2]) <= 4
        else:
            f.update(op[1])
    _oracle_check(f, dram, tops, ref)


# ------------------------------------------------------------ lazy boot
def _outcome(call) -> str:
    try:
        call()
    except CatastrophicFailure as cf:
        return str(cf)
    return "ok"


def _apply(f: MacForest, op) -> str:
    if op[0] == "verify":
        return _outcome(lambda: f.verify_page(op[1], op[2]))
    return _outcome(lambda: f.update(op[1]))


@pytest.mark.parametrize("top_cache", [True, False])
def test_lazy_boot_behaves_like_an_eager_one(top_cache):
    # the same operations on a forest that resolves zero words and on one
    # holding every boot value: same outcomes, same traffic, same top
    # writes, and the same mid bytes wherever a region has been updated
    lazy, lazy_dram, lazy_tops = make_forest(top_cache=top_cache)
    eager, eager_dram, eager_tops = make_eager_forest(top_cache=top_cache)
    ops, ref = random_ops(lazy.n_pages)
    for op in ops:
        assert _apply(lazy, op) == _apply(eager, op) == "ok"
    assert lazy_dram.reads == eager_dram.reads
    assert lazy_dram.writes == eager_dram.writes
    assert lazy.events == eager.events
    assert (lazy_tops.reads, lazy_tops.writes) == (eager_tops.reads, eager_tops.writes)
    updated = {lazy.region_of(p) for p in ref}
    assert {r: lazy_tops.macs[r] for r in updated} == {
        r: eager_tops.macs[r] for r in updated
    }
    assert set(lazy_tops.macs) == updated
    for r in updated:
        span = lazy._mid_group_span(r)
        assert lazy_dram.peek(*span) == eager_dram.peek(*span), f"region {r}"


def test_boot_writes_nothing():
    f, dram, tops = make_forest()
    assert dram.touched_pages() == 0 and not tops.macs


def test_zeroed_written_mid_is_caught_at_the_group():
    f, dram, _ = make_forest()
    f.update([(0, leaf_for(0))])
    dram.poke(f.mid_addr(0), bytes(MAC_BYTES))
    with pytest.raises(CatastrophicFailure, match="MAC group digest mismatch"):
        f.verify_page(0, leaf_for(0))


def test_zeroed_written_top_is_caught_at_the_region():
    f, _, tops = make_forest(top_cache=False)
    f.update([(2, leaf_for(2))])
    tops.macs[0] = bytes(MAC_BYTES)
    with pytest.raises(CatastrophicFailure, match="region digest mismatch"):
        f.verify_page(2, leaf_for(2))


def _zero_group_and_mid(f, dram, group):
    start, length = f._leaf_group_span(group)
    dram.poke(start, bytes(length))
    dram.poke(f.mid_addr(group), bytes(MAC_BYTES))


@pytest.mark.parametrize("top_cache", [True, False])
def test_zeroed_written_group_and_mid_are_caught_at_the_region(top_cache):
    # leaves and mid back at zero agree with each other as a boot group,
    # but not with the region's top
    f, dram, _ = make_forest(top_cache=top_cache)
    f.update([(0, leaf_for(0))])
    f.update([(40, leaf_for(40))])  # group 2, same region
    _zero_group_and_mid(f, dram, 0)
    with pytest.raises(CatastrophicFailure, match="region digest mismatch"):
        f.update([(1, leaf_for(1))])  # same group as the zeroed one

    f, dram, _ = make_forest(top_cache=top_cache)
    f.update([(0, leaf_for(0))])
    f.update([(40, leaf_for(40))])
    _zero_group_and_mid(f, dram, 0)
    with pytest.raises(CatastrophicFailure, match="region digest mismatch"):
        f.verify_page(40, leaf_for(40))  # elsewhere in the region
    # a verify in the zeroed group itself stops at its zeroed leaf
    with pytest.raises(CatastrophicFailure, match="at leaf level"):
        f.verify_page(0, leaf_for(0))


def test_zeroing_an_unwritten_mid_or_top_changes_nothing():
    def run(zero):
        f, dram, tops = make_forest(top_cache=False)
        f.update([(0, leaf_for(0))])
        if zero:
            dram.poke(f._mid_group_span(1)[0], bytes(REGION_ARITY * MAC_BYTES))
            tops.macs[1] = bytes(MAC_BYTES)
        outcomes = [
            _outcome(lambda: f.update([(128, leaf_for(128))])),
            _outcome(lambda: f.verify_page(128, leaf_for(128))),
            _outcome(lambda: f.verify_page(0, leaf_for(0))),
        ]
        return outcomes, dict(dram.reads), dict(dram.writes), tops.macs

    assert run(True) == run(False)
    assert run(True)[0] == ["ok"] * 3


def test_traffic_reconciles_with_dram_counters(region_ledger):
    f, dram, _ = make_forest()
    reads, writes = region_ledger(dram)
    for p in (0, 8, 200, 4000):
        f.update([(p, leaf_for(p))])
        f.verify_page(p, leaf_for(p))
    assert dram.reads["forest"] == reads[Region.FOREST]
    assert dram.writes["forest"] == writes[Region.FOREST]
