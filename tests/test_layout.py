"""Address-space partitioning and emulated-DRAM behavior."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.layout import (
    DRAM_CAUSES,
    KEY_SLOT_BYTES,
    PAGE_SIZE,
    EmulatedDram,
    MemoryLayout,
    Region,
)

MIB = 1 << 20
GIB = 1 << 30


def small_layout() -> MemoryLayout:
    return MemoryLayout.build(
        total_size=16 * MIB, epc_size=MIB, scratch_pages=4, forest_storage_size=40960
    )


def test_key_table_slot_arithmetic():
    lay = small_layout()
    assert lay.key_table_slot(0) == lay.key_table_base
    assert lay.key_table_slot(1) == lay.key_table_base + KEY_SLOT_BYTES
    assert lay.key_table_slot(1000) == lay.key_table_base + 1000 * KEY_SLOT_BYTES


def test_key_table_covers_all_pages_512gib():
    # At the full 512 GiB machine: 2^27 pages * 16 bytes = 2 GiB of key slots.
    lay = MemoryLayout.build(total_size=512 * GIB, epc_size=128 * MIB)
    assert lay.key_table_size == 2 * GIB
    assert lay.key_table_size == lay.total_pages * KEY_SLOT_BYTES


def test_regions_disjoint_and_cover():
    lay = small_layout()
    sizes = lay.region_sizes()
    assert sum(sizes.values()) == lay.total_size
    # walk every boundary page and its neighbours
    bounds = [
        0,
        lay.epc_size,
        lay.forest_base,
        lay.key_table_base,
        lay.scratch_base,
        lay.total_size - 1,
    ]
    seen = []
    for b in bounds:
        for addr in (b - 1, b, b + 1):
            if 0 <= addr < lay.total_size:
                seen.append(lay.classify(addr))
    order = [
        Region.EPC,
        Region.EEPC,
        Region.FOREST,
        Region.KEY_TABLE,
        Region.SCRATCH,
    ]
    # classifications along increasing addresses never go backwards
    idx = [order.index(r) for r in seen]
    assert idx == sorted(idx)


@given(st.integers(min_value=0, max_value=16 * MIB - 1))
@settings(max_examples=200)
def test_classify_matches_region_bounds(addr):
    lay = small_layout()
    r = lay.classify(addr)
    if r is Region.EPC:
        assert addr < lay.epc_size
    elif r is Region.EEPC:
        assert lay.eepc_base <= addr < lay.forest_base
    elif r is Region.FOREST:
        assert lay.forest_base <= addr < lay.key_table_base
    elif r is Region.KEY_TABLE:
        assert lay.key_table_base <= addr < lay.scratch_base
    else:
        assert addr >= lay.scratch_base


def test_layout_validation():
    with pytest.raises(ValueError):
        MemoryLayout.build(total_size=3 * MIB, epc_size=MIB)  # not a power of two
    with pytest.raises(ValueError):
        MemoryLayout.build(total_size=1024 * GIB, epc_size=MIB)  # > 39-bit space
    with pytest.raises(ValueError):
        # carved metadata leaves no eEPC
        MemoryLayout(
            total_size=2 * MIB,
            epc_size=MIB,
            forest_storage_size=MIB,
            key_table_size=0,
            scratch_size=0,
        )


def test_cold_reads_are_zero():
    dram = EmulatedDram(small_layout())
    assert dram.read(0x2000, 64, "data") == bytes(64)
    assert dram.touched_pages() == 0  # cold reads never allocate


def test_write_then_read_roundtrip_and_counters():
    lay = small_layout()
    dram = EmulatedDram(lay)
    addr = lay.eepc_base + 0x40
    dram.write(addr, b"\xAB" * 64, "data")
    assert dram.read(addr, 64, "key_table") == b"\xAB" * 64
    dram.write_span(addr, bytes(65), "merkle")  # spans count 64-byte blocks
    assert dram.read_span(addr, 65, "merkle") == bytes(65)
    # every cause is in the ledger from the start
    assert dram.writes == {"data": 1, "merkle": 2, "forest": 0, "key_table": 0}
    assert dram.reads == {"data": 0, "merkle": 2, "forest": 0, "key_table": 1}
    # peek/poke are unmetered
    before = dram.total_accesses()
    dram.poke(addr, b"\xCD" * 8)
    assert dram.peek(addr, 8) == b"\xCD" * 8
    assert dram.total_accesses() == before


@given(st.data())
@settings(max_examples=50)
def test_counters_monotone(data):
    lay = small_layout()
    dram = EmulatedDram(lay)
    prev = 0
    for _ in range(data.draw(st.integers(1, 20))):
        addr = data.draw(st.integers(0, lay.total_size - 65))
        cause = data.draw(st.sampled_from(DRAM_CAUSES))
        if data.draw(st.booleans()):
            dram.read(addr, 64, cause)
        else:
            dram.write(addr, bytes(64), cause)
        cur = dram.total_accesses()
        assert cur == prev + 1
        prev = cur


@pytest.mark.parametrize(
    "method,arg",
    [("read", 64), ("write", bytes(64)), ("read_span", 64), ("write_span", bytes(64))],
)
def test_metered_methods_reject_an_unknown_cause(method, arg):
    dram = EmulatedDram(small_layout())
    with pytest.raises(ValueError, match="unknown DRAM cause"):
        getattr(dram, method)(0, arg, "bogus")
    assert dram.total_accesses() == 0
    assert dram.touched_pages() == 0


def test_page_view_is_the_page_as_it_lies_read_only_and_unmetered():
    lay = small_layout()
    dram = EmulatedDram(lay)
    page = lay.eepc_base // PAGE_SIZE
    assert dram.page_view(page) == bytes(PAGE_SIZE)  # never written
    assert dram.touched_pages() == 0
    dram.write(page * PAGE_SIZE + 8, b"\x5a" * 8, "data")
    view = dram.page_view(page)
    assert view == dram.peek(page * PAGE_SIZE, PAGE_SIZE)
    dram.poke(page * PAGE_SIZE, b"\x01")
    assert view[0] == 1  # a view of the page, not a copy
    with pytest.raises(TypeError):
        view[0] = 2
    assert dram.total_accesses() == 1  # the one metered write
    for bad in (-1, lay.total_size // PAGE_SIZE):
        with pytest.raises(ValueError, match="outside physical space"):
            dram.page_view(bad)


def test_cross_page_peek_poke():
    lay = small_layout()
    dram = EmulatedDram(lay)
    addr = lay.eepc_base + PAGE_SIZE - 8
    dram.poke(addr, bytes(range(16)))
    assert dram.peek(addr, 16) == bytes(range(16))


@pytest.mark.parametrize(
    "addr,length,message",
    [
        (0x2000, 0, "length must be positive"),
        (0x2000, -8, "length must be positive"),
        (-1, 8, "access [-0x1, +8) outside physical space"),
        (16 * MIB - 4, 8, f"access [{16 * MIB - 4:#x}, +8) outside physical space"),
    ],
)
def test_peek_and_poke_reject_bad_spans(addr, length, message):
    dram = EmulatedDram(small_layout())
    with pytest.raises(ValueError, match=re.escape(message)):
        dram.peek(addr, length)
    if length >= 0:
        with pytest.raises(ValueError, match=re.escape(message)):
            dram.poke(addr, bytes(length))
        with pytest.raises(ValueError, match=re.escape(message)):
            dram.write(addr, bytes(length), "data")
    with pytest.raises(ValueError, match=re.escape(message)):
        dram.read_span(addr, length, "data")
    assert dram.touched_pages() == 0
    # the last byte of the physical space is in range
    dram.poke(16 * MIB - 1, b"\x01")
    assert dram.peek(16 * MIB - 1, 1) == b"\x01"
