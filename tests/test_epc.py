"""Engine tests: fault accounting, ESHR mechanics, deferral, clubbing.

The strongest oracles here are cross-model: the engine's final logical
state must equal a plain dictionary of last-writes, its DRAM cause counters
must reconcile with the regions that the metered addresses fall in, and a
deferred run must leave byte-identical memory to a blocking run of the same
trace.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import forest as forest_mod
from enclavesim import merkle as merkle_mod
from enclavesim import sim
from enclavesim.config import PRESETS, load_config
from enclavesim.crypto import compose_page_key, ecb_decrypt_page, unwrap_key
from enclavesim.epc import (
    SCRATCH_VBASE,
    EshrEntry,
    SecScaleEngine,
    write_value,
)
from enclavesim.forest import REGION_PAGES
from enclavesim.layout import (
    BLOCKS_PER_PAGE,
    KEY_SLOT_BYTES,
    PAGE_SIZE,
    Region,
)
from enclavesim.sim import SgxClientModel, SimConfig
from enclavesim.timing import LatencyConfig
from enclavesim.verifier import CatastrophicFailure

MIB = 1 << 20
EID = 7


def make_engine(epc_size=1 * MIB, total_size=64 * MIB, max_outstanding_jobs=None,
                **cfg):
    return SecScaleEngine(
        SimConfig(total_size=total_size, epc_size=epc_size, **cfg),
        max_outstanding_jobs=max_outstanding_jobs,
    )


# the events that say which path an access took: a fault, a hit, a write
# to a page in flight, a restart on a block not yet landed, or scratch
OUTCOME_EVENTS = (
    "read_faults", "write_faults", "epc_hits", "queued_writes", "refaults",
    "scratch_reads", "scratch_writes",
)


def access_outcome(eng, eid, vaddr, op, icount):
    """One access: the 8 bytes it returned and the outcome events it counted."""
    events = eng.stats.events
    before = {name: events[name] for name in OUTCOME_EVENTS}
    value = eng.access(eid, vaddr, op, icount)
    counted = {n: events[n] - b for n, b in before.items() if events[n] != b}
    return counted, value


# --------------------------------------------------------------- carving


def test_epc_carve_accounts_for_every_page():
    eng = make_engine()
    mpages = eng.layout.epc_pages - eng.n_slots - eng.top_table_pages
    assert mpages >= 1
    # counter tree storage sits right after the pages it protects
    protected = eng.n_slots + eng.top_table_pages
    assert eng.merkle.base == protected * PAGE_SIZE
    assert eng.merkle.n_pages == protected
    # 1 MiB EPC: 250 data slots + 1 top-table page + 5 tree pages
    assert (eng.n_slots, eng.top_table_pages, mpages) == (250, 1, 5)


def test_epc_too_small_rejected():
    # 4 GiB of memory needs 16 pages of region digests alone
    with pytest.raises(ValueError, match="EPC too small"):
        make_engine(epc_size=8 * PAGE_SIZE, total_size=1 << 32)


def test_enclave_registration_bounds():
    eng = make_engine()
    eng.register_enclave(EID, 16)
    with pytest.raises(ValueError, match="already registered"):
        eng.register_enclave(EID, 16)
    with pytest.raises(ValueError, match="31 bits"):
        eng.register_enclave(1 << 31, 4)
    with pytest.raises(ValueError, match="eEPC exhausted"):
        eng.register_enclave(9, 10**9)


# ----------------------------------------------------- functional oracle


def _reference_state(n_pages, writes):
    """Independent model: pages are zeroes overlaid with last-writes."""
    pages = {v: bytearray(PAGE_SIZE) for v in range(n_pages)}
    for vaddr, value in writes:
        off = (vaddr % PAGE_SIZE) & ~7
        pages[vaddr // PAGE_SIZE][off : off + 8] = value
    return {v: bytes(b) for v, b in pages.items()}


def test_final_state_matches_reference_dict():
    eng = make_engine(epc_size=16 * PAGE_SIZE, total_size=16 * MIB)
    eng.register_enclave(EID, 64)  # 64 pages over ~14 slots: constant churn
    rng = random.Random(11)
    writes = []
    ic = 0
    for _ in range(600):
        ic += rng.randrange(1, 200)
        vaddr = rng.randrange(64 * PAGE_SIZE) & ~7
        if rng.random() < 0.5:
            eng.access(EID, vaddr, "W", ic)
            writes.append((vaddr, write_value(EID, vaddr, ic)))
        else:
            eng.access(EID, vaddr, "R", ic)
    eng.finalize()
    assert eng.final_state(EID) == _reference_state(64, writes)


def test_read_returns_last_written_value_across_evictions():
    eng = make_engine()
    eng.register_enclave(EID, 400)  # more pages than the 250 slots
    ic = 0
    stored = {}
    for v in range(400):
        ic += 100
        eng.access(EID, v * PAGE_SIZE, "W", ic)
        stored[v] = write_value(EID, v * PAGE_SIZE, ic)
    for v in range(400):
        ic += 100
        val = eng.access(EID, v * PAGE_SIZE, "R", ic)
        assert val == stored[v], f"page {v} corrupted on round trip"
    eng.finalize()
    assert eng.stats.events["evictions"] >= 150


# ------------------------------------------------------ charge accounting


def test_read_miss_charges_exactly_two_dram_reads_plus_decrypt():
    lat = LatencyConfig()
    eng = make_engine()
    eng.register_enclave(EID, 300)
    ic = 0
    for v in range(300):  # initialize so later misses hit real ciphertext
        ic += 20000
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.syscall_barrier()
    base_critical = eng.stats.critical_cycles
    base_kt = eng.dram.reads["key_table"]
    base_faults = eng.stats.events["fault_critical_reads"]
    n = 40
    instr = 0
    for v in range(n):  # pages 0..39 were evicted by the LRU sweep
        ic += 20000
        instr += 20000
        counted, _ = access_outcome(eng, EID, v * PAGE_SIZE + 512, "R", ic)
        assert counted == {"read_faults": 1}
    assert eng.stats.events["eshr_stalls"] == 0, "gap too small to isolate charges"
    per_miss = 2 * lat.dram_access_cycles + lat.crypto_block_cycles
    assert eng.stats.critical_cycles - base_critical == instr + n * per_miss
    assert eng.stats.events["fault_critical_reads"] - base_faults == 2 * n
    assert eng.dram.reads["key_table"] - base_kt == n


def test_write_miss_charges_nothing_critical():
    eng = make_engine()
    eng.register_enclave(EID, 64)
    base = eng.stats.critical_cycles
    counted, _ = access_outcome(eng, EID, 5 * PAGE_SIZE, "W", 1000)
    assert counted == {"write_faults": 1}
    assert eng.stats.critical_cycles - base == 1000  # instructions only


def test_epc_hit_charges_one_read_one_decrypt():
    lat = LatencyConfig()
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.access(EID, 0, "W", 10000)
    eng.syscall_barrier()
    base = eng.stats.critical_cycles
    counted, _ = access_outcome(eng, EID, 64, "R", 20000)
    assert counted == {"epc_hits": 1}
    extra = eng.stats.critical_cycles - base - 10000
    assert extra == lat.dram_access_cycles + lat.crypto_block_cycles


def test_counts_reconcile_with_region_counters(region_ledger):
    eng = make_engine()
    reads, writes = region_ledger(eng.dram)
    eng.register_enclave(EID, 300)
    rng = random.Random(3)
    ic = 0
    for _ in range(800):
        ic += rng.randrange(1, 500)
        vaddr = rng.randrange(300 * PAGE_SIZE)
        eng.access(EID, vaddr, "RW"[rng.random() < 0.4], ic)
    eng.finalize()
    d = eng.dram
    assert sum(reads.values()) + sum(writes.values()) == d.total_accesses()
    # the key-table cause is the only traffic its region ever sees
    kt = d.reads["key_table"] + d.writes["key_table"]
    assert kt == reads[Region.KEY_TABLE] + writes[Region.KEY_TABLE]
    # forest-cause traffic splits between forest storage and the top table
    forest = d.reads["forest"] + d.writes["forest"]
    in_storage = reads[Region.FOREST] + writes[Region.FOREST]
    assert forest >= in_storage
    assert (forest - in_storage) == eng.stats.events["top_table_accesses"]


# ------------------------------------------------------------------ ESHR


def test_entry_completes_after_64_steps_and_clears_valid():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.access(EID, 3 * PAGE_SIZE + 128, "R", 10)
    (e,) = eng.eshr.values()
    assert e.demand and e.cursor == 0 and e.ls_vector == 1 << 2  # block 2 preset
    before = eng.stats.events["fault_steps"]
    eng.fault_step(e)  # no stop: the whole page
    assert eng.stats.events["fault_steps"] - before == BLOCKS_PER_PAGE
    assert e.cursor == BLOCKS_PER_PAGE
    assert e.ls_vector == (1 << BLOCKS_PER_PAGE) - 1
    assert not eng.eshr


def test_load_bits_never_clear_while_entry_live():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.access(EID, PAGE_SIZE + 7 * 64, "R", 10)
    (e,) = eng.eshr.values()
    seen = e.ls_vector
    until = eng.stats.lane_free
    advances = 0
    while e.slot in eng.eshr:
        until += 100  # a few 28-cycle block loads per advance
        eng.fault_step(e, until)
        advances += 1
        assert e.ls_vector & seen == seen, "a load-status bit was cleared"
        assert e.ls_vector == seen | (1 << e.cursor) - 1
        seen = e.ls_vector
    assert e.cursor == BLOCKS_PER_PAGE
    assert advances > 1


def _one_block(eng, entry):
    """One block move with its own lane charge: the lane's arithmetic before
    an entry advanced in one charge.  Evicting a block is two DRAM moves and
    two crypto passes, loading one is the same again, and a block whose
    load-status bit is set needs no load."""
    lat = eng.latency
    b = entry.cursor
    load_needed = not (entry.ls_vector >> b) & 1
    moves = (2 if entry.e_bit else 0) + (2 if load_needed else 0)
    eng.stats.lane_charge(
        entry.born_cycles,
        moves * lat.dram_occupancy_cycles + moves * lat.crypto_occupancy_cycles,
    )
    entry.ls_vector |= 1 << b
    entry.cursor = b + 1
    eng.stats.events["fault_steps"] += 1
    if entry.cursor == BLOCKS_PER_PAGE:
        eng._complete_entry(entry)


def _block_by_block(eng, entry, until):
    """fault_step(entry, until) one block at a time, the stop checked before
    every block after the first."""
    _one_block(eng, entry)
    while entry.cursor < BLOCKS_PER_PAGE and (
        until is None or eng.stats.lane_free < until
    ):
        _one_block(eng, entry)


@st.composite
def _lane_states(draw):
    critical = draw(st.integers(0, 10**6))
    lane_free = draw(st.integers(0, critical + 10**4))
    born = draw(st.integers(0, critical))
    page_cost = 64 * 56  # every block evicted and loaded at the default rates
    offset = draw(st.none() | st.integers(-200, page_cost + 200))
    until = None if offset is None else max(lane_free, born) + offset
    return dict(
        e_bit=draw(st.booleans()),
        ls_vector=draw(st.integers(0, (1 << BLOCKS_PER_PAGE) - 1)),
        cursor=draw(st.integers(0, BLOCKS_PER_PAGE - 1)),
        verify=draw(st.booleans()),
        critical=critical,
        lane_free=lane_free,
        born=born,
        until=until,
    )


@pytest.mark.parametrize(
    "latency",
    [LatencyConfig(), LatencyConfig(crypto_occupancy_cycles=0)],
    ids=["default", "no-crypto-occupancy"],
)
@given(state=_lane_states())
@settings(max_examples=300, deadline=None)
def test_fault_step_matches_block_by_block_reference(latency, state):
    def advance(step):
        eng = make_engine(epc_size=256 * 1024, total_size=16 * MIB, latency=latency)
        page = eng.layout.eepc_base // PAGE_SIZE
        entry = EshrEntry(
            slot=0,
            e_bit=state["e_bit"],
            ls_vector=state["ls_vector"],
            cursor=state["cursor"],
            born_cycles=state["born"],
            verify_payload=(page, bytes(32), bytes(PAGE_SIZE)) if state["verify"] else None,
        )
        eng.eshr[0] = entry
        eng.stats.critical_cycles = state["critical"]
        eng.stats.lane_free = state["lane_free"]
        step(eng, entry, state["until"])
        s = eng.stats
        return (
            entry.cursor, entry.ls_vector, s.lane_free, s.lane_busy_cycles,
            s.events["fault_steps"], 0 in eng.eshr, s.events["verifier_jobs"],
        )

    assert advance(SecScaleEngine.fault_step) == advance(_block_by_block)


class _OneBlockLane(SecScaleEngine):
    """The engine with the lane as it ran before an entry advanced in one
    charge: each fault_step moves one block, and a stall steps its entry to
    the end of the page."""

    def fault_step(self, entry, until=None):
        _one_block(self, entry)

    def _stall_complete_oldest(self):
        oldest = next(iter(self.eshr.values()))
        while oldest.cursor < BLOCKS_PER_PAGE:
            self.fault_step(oldest)
        self.stats.stall_until_lane()
        self.stats.events["eshr_stalls"] += 1


# trend overrides that load the lane differently: ESHR stalls, a drain after
# every access, a saturated and a busy lane, free crypto (zero-cost moves of
# loaded blocks), and a bounded verifier queue
LANE_RUNS = {
    "eshr-1": ({"eshr_entries": 1}, None),
    "eshr-2": ({"eshr_entries": 2}, None),
    "blocking": ({"deferred": False}, None),
    "1-per-1000": ({"workload": {"accesses_per_instruction": 1 / 1000}}, None),
    "1-per-4000": ({"workload": {"accesses_per_instruction": 1 / 4000}}, None),
    "no-crypto-cost": ({"latency": PRESETS["fault-only"]["latency"]}, None),
    "max-outstanding-3": ({}, 3),
}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(LANE_RUNS))
def test_lane_in_one_charge_reports_like_one_block_steps(monkeypatch, name, seed):
    overrides, limit = LANE_RUNS[name]
    cfg = load_config(preset="trend", overrides=dict(overrides, model="secscale", seed=seed))
    records = cfg.records()

    def report(cls):
        monkeypatch.setitem(
            sim.MODEL_CLASSES, "secscale",
            lambda c: cls(c, max_outstanding_jobs=limit),
        )
        return sim.run(cfg, records).to_json()

    assert report(SecScaleEngine) == report(_OneBlockLane)


def test_refault_charges_like_a_miss_and_marks_demand():
    lat = LatencyConfig()
    eng = make_engine()
    eng.register_enclave(EID, 300)
    ic = 0
    for v in range(300):
        ic += 20000
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.syscall_barrier()
    ic += 20000
    eng.access(EID, 0, "R", ic)  # miss on evicted page 0, entry in flight
    (e,) = eng.eshr.values()
    base = eng.stats.critical_cycles
    counted, val = access_outcome(eng, EID, 40 * 64, "R", ic)  # block 40 not yet landed
    assert counted == {"refaults": 1}
    assert eng.stats.events["refaults"] == 1
    assert e.ls_vector >> 40 & 1
    assert val == bytes(8)  # block 40 of page 0 was never written
    delta = eng.stats.critical_cycles - base
    assert delta == 2 * lat.dram_access_cycles + lat.crypto_block_cycles


def test_eshr_exhaustion_stalls_and_still_correct():
    eng = make_engine(eshr_entries=4)
    eng.register_enclave(EID, 64)
    ic = 0
    for v in range(64):
        ic += 1  # no slack: entries cannot drain between faults
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.finalize()
    assert eng.stats.events["eshr_stalls"] > 0
    assert len(eng.final_state(EID)) == 64


def test_full_epc_with_all_slots_in_flight_completes_oldest():
    # EPC with few slots and every slot mid-load: the next fault must
    # stall-complete the oldest entry rather than deadlock
    eng = make_engine(epc_size=16 * PAGE_SIZE, total_size=16 * MIB,
                      eshr_entries=32)
    eng.register_enclave(EID, 32)
    ic = 0
    for v in range(32):
        ic += 1
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.finalize()
    state = eng.final_state(EID)
    for v in range(32):
        assert state[v][:8] == write_value(EID, v * PAGE_SIZE, v + 1)


# ----------------------------------------------------- eviction register


def test_evict_register_matches_lru_scan_after_every_access():
    # the register is evict_select(); the scan is a reference LRU kept here:
    # last touch per page, over resident pages, skipping slots in flight
    eng = make_engine(epc_size=16 * PAGE_SIZE, total_size=16 * MIB)
    eng.register_enclave(EID, 40)
    rng = random.Random(5)
    last_touch = {}
    ic = 0
    for step in range(300):
        ic += rng.randrange(1, 50)
        vaddr = rng.randrange(40 * PAGE_SIZE)
        eng.access(EID, vaddr, "RW"[rng.random() < 0.5], ic)
        last_touch[(EID, vaddr // PAGE_SIZE)] = step
        assert len(eng.eshr) <= eng.cfg.eshr_entries
        in_flight = set(eng.eshr)
        touch_of_slot = {
            eng.resident[page]: t
            for page, t in last_touch.items()
            if page in eng.resident and eng.resident[page] not in in_flight
        }
        expected = min(touch_of_slot, key=touch_of_slot.get, default=None)
        assert eng.evict_select() == expected, f"wrong victim after access {step}"
    eng.finalize()


def test_evict_register_invalidated_by_touching_its_slot():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    ic = 0
    for v in range(3):
        ic += 20000
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.syscall_barrier()
    victim = eng.evict_select()
    assert victim is not None
    ic += 20000
    eng.access(EID, eng.slots[victim].vpage * PAGE_SIZE, "R", ic)  # victim touched
    assert eng.evict_select() not in (None, victim), "a touched slot stayed the victim"


# ------------------------------------------------------- crypto round trip


def test_evicted_page_is_encrypted_and_rekeyed_each_time():
    eng = make_engine(epc_size=16 * PAGE_SIZE, total_size=16 * MIB)
    eng.register_enclave(EID, 40)
    phys = eng.enclaves[EID].base_page
    eng.access(EID, 0, "W", 1)
    ic = 1
    snapshots = []
    for round_ in range(2):
        if round_:
            ic += 10000
            eng.access(EID, 0, "R", ic)  # reload, unchanged content
        for v in range(1, 20):  # flood to force page 0 out again
            ic += 10000
            eng.access(EID, v * PAGE_SIZE, "W", ic)
        eng.syscall_barrier()
        assert (EID, 0) not in eng.resident
        ct = eng.dram.peek(phys * PAGE_SIZE, PAGE_SIZE)
        kt = eng.dram.peek(eng.layout.key_table_slot(phys), KEY_SLOT_BYTES)
        snapshots.append((ct, kt))
    (ct1, kt1), (ct2, kt2) = snapshots
    assert kt1 != kt2, "eviction must draw a fresh key"
    assert ct1 != ct2, "same plaintext re-encrypted under a fresh key"
    key = unwrap_key(eng.ssk, kt2, eng.hw_key, EID, phys)
    pt = ecb_decrypt_page(key, ct2)
    assert pt[:8] == write_value(EID, 0, 1)
    assert pt == ecb_decrypt_page(unwrap_key(eng.ssk, kt1, eng.hw_key, EID, phys), ct1)
    assert ct2[:8] != pt[:8], "page left in the clear"


def test_first_touch_reads_zero_and_skips_verification():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    before = eng.stats.events["verifier_jobs"]
    counted, val = access_outcome(eng, EID, 2 * PAGE_SIZE + 256, "R", 50)
    assert counted == {"read_faults": 1}
    assert val == bytes(8)
    eng.finalize()
    assert eng.stats.events["verifier_jobs"] == before, "nothing to verify on first touch"
    assert eng.stats.events["first_touch_loads"] == 1


# --------------------------------------------------------------- clubbing


def _job_log(eng, monkeypatch):
    log = []
    orig = eng._submit_job

    def spy(kind, items, **kw):
        log.append((kind, tuple(p for p, _, _ in items)))
        return orig(kind, items, **kw)

    monkeypatch.setattr(eng, "_submit_job", spy)
    return log


def test_same_region_evictions_club_into_one_update(monkeypatch):
    eng = make_engine(epc_size=16 * PAGE_SIZE, total_size=16 * MIB)
    eng.register_enclave(EID, 40)
    log = _job_log(eng, monkeypatch)
    ic = 0
    for v in range(40):  # sequential flood: victims are consecutive pages
        ic += 5000
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.finalize()
    updates = [pages for kind, pages in log if kind == "update"]
    assert all(len(pages) in (1, 2) for pages in updates)
    pairs = [pages for pages in updates if len(pages) == 2]
    assert pairs, "sequential same-region evictions never clubbed"
    for pages in pairs:
        r0, r1 = (eng.forest.region_of(p) for p in pages)
        assert r0 == r1
    assert eng.stats.events["clubbed_pairs"] == len(pairs)


def test_clubbing_disabled_submits_singles(monkeypatch):
    eng = make_engine(epc_size=16 * PAGE_SIZE, total_size=16 * MIB, clubbing=False)
    eng.register_enclave(EID, 40)
    log = _job_log(eng, monkeypatch)
    ic = 0
    for v in range(40):
        ic += 5000
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.finalize()
    assert eng.stats.events["clubbed_pairs"] == 0
    updates = [pages for kind, pages in log if kind == "update"]
    assert updates and all(len(pages) == 1 for pages in updates)


def test_verify_flushes_same_region_pending_update_first():
    eng = make_engine()
    base_page = eng.layout.eepc_base // PAGE_SIZE
    pt = bytes(PAGE_SIZE)

    def key(page):
        return compose_page_key(eng.hw_key, EID, page * 97, page)

    # a lone eviction parks in the club buffer awaiting a partner
    eng._club_push(base_page, key(base_page), pt, instructions=0)
    assert eng._club is not None
    assert len(eng.queue) == 0
    # verifying a page of the same region must push that update out first,
    # otherwise the verify walks forest state the update has not written yet
    eng._submit_job("verify", [(base_page + 1, key(base_page + 1), pt)], instructions=0)
    assert [j.kind for j in eng.queue] == ["update", "verify"]

    # a verify in some other region leaves the pending update parked
    far = base_page + 5 * REGION_PAGES
    eng._club_push(base_page + 2, key(base_page + 2), pt, instructions=0)
    eng._submit_job("verify", [(far, key(far), pt)], instructions=0)
    assert eng._club is not None
    assert [j.kind for j in eng.queue] == ["update", "verify", "verify"]


# ---------------------------------------- emergent grouped verification


def _forest_cause_total(dram):
    return dram.reads["forest"] + dram.writes["forest"]


def _warm_region(eng, page):
    # first touch of a region pays an extra top read for stale-state auth;
    # the frozen counts below are the steady-state hot-region contract
    key = compose_page_key(eng.hw_key, EID, 99, page)
    eng._submit_job("update", [(page, key, bytes(PAGE_SIZE))], instructions=0)
    eng._retire_head()


def test_update_then_same_region_verify_shares_top_work():
    eng = make_engine(clubbing=False)
    page = eng.layout.eepc_base // PAGE_SIZE + 3
    _warm_region(eng, page + 70)  # same region, different leaf group
    key = compose_page_key(eng.hw_key, EID, 1234, page)
    pt = bytes(range(256)) * 16
    base = _forest_cause_total(eng.dram)
    eng._submit_job("update", [(page, key, pt)], instructions=0)
    eng._retire_head()
    after_update = _forest_cause_total(eng.dram)
    assert after_update - base == 6  # leaf/mid reads+writes plus one top write
    eng._submit_job("verify", [(page, key, pt)], instructions=0)
    eng._retire_head()
    after_verify = _forest_cause_total(eng.dram)
    assert after_verify - after_update == 3  # top served from the digest cache


def test_grouped_pair_update_costs_nine_accesses():
    eng = make_engine()
    base_page = eng.layout.eepc_base // PAGE_SIZE
    _warm_region(eng, base_page + 70)
    items = []
    for page in (base_page, base_page + 16):  # same region, different groups
        key = compose_page_key(eng.hw_key, EID, page, page)
        items.append((page, key, bytes(PAGE_SIZE)))
    before = _forest_cause_total(eng.dram)
    eng._submit_job("update", items, instructions=0)
    eng._retire_head()
    assert _forest_cause_total(eng.dram) - before == 9


# ------------------------------------------------------ barrier semantics


def test_barrier_on_idle_engine_costs_nothing():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    assert eng.syscall_barrier() == 0


def test_barrier_drains_entries_and_jobs():
    eng = make_engine()
    eng.register_enclave(EID, 64)
    ic = 0
    for v in range(40):
        ic += 10
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    assert eng.eshr or len(eng.queue)
    cost = eng.syscall_barrier()
    assert cost > 0
    assert not eng.eshr
    assert len(eng.queue) == 0
    assert eng._club is None


def test_scratch_write_pays_exit_and_scratch_is_shared():
    lat = LatencyConfig()
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.register_enclave(9, 8)
    vaddr = SCRATCH_VBASE * PAGE_SIZE + 24
    base = eng.stats.critical_cycles
    counted, val = access_outcome(eng, EID, vaddr, "W", 100)
    assert counted == {"scratch_writes": 1}
    assert eng.stats.critical_cycles - base >= 100 + lat.enclave_enter_exit
    counted, seen = access_outcome(eng, 9, vaddr, "R", 200)
    assert counted == {"scratch_reads": 1}
    assert seen == val, "scratch pages are shared address space"
    assert eng.stats.events["barriers"] == 1


def test_scratch_read_does_not_drain():
    eng = make_engine()
    eng.register_enclave(EID, 64)
    ic = 0
    for v in range(40):
        ic += 10
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    pending = len(eng.queue) + len(eng.eshr)
    assert pending > 0
    eng.access(EID, SCRATCH_VBASE * PAGE_SIZE, "R", ic + 10)
    assert len(eng.queue) + len(eng.eshr) >= pending - 1


# --------------------------------------------- deferred vs blocking modes


def _random_trace(seed, n=400, pages=300, write_frac=0.4, max_gap=300):
    rng = random.Random(seed)
    ic = 0
    out = []
    for _ in range(n):
        ic += rng.randrange(1, max_gap)
        vaddr = rng.randrange(pages * PAGE_SIZE)
        out.append((vaddr, "RW"[rng.random() < write_frac], ic))
    return out


def _run_mode(trace, deferred, seed=0):
    eng = make_engine(seed=seed, deferred=deferred)
    eng.register_enclave(EID, 300)
    for vaddr, op, ic in trace:
        eng.access(EID, vaddr, op, ic)
    eng.finalize()
    return eng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocking_never_beats_deferred(seed):
    trace = _random_trace(seed)
    deferred = _run_mode(trace, True, seed)
    blocking = _run_mode(trace, False, seed)
    assert blocking.stats.total_cycles >= deferred.stats.total_cycles
    if deferred.stats.events["read_faults"]:
        assert blocking.stats.total_cycles > deferred.stats.total_cycles


def test_deferred_and_blocking_leave_identical_memory():
    trace = _random_trace(42)
    deferred = _run_mode(trace, True, 42)
    blocking = _run_mode(trace, False, 42)
    assert deferred.final_state(EID) == blocking.final_state(EID)

    def image(eng):
        # counter-tree storage is excluded: blocking flushes the club every
        # access, so the top table sees more writes and its tree counters
        # legitimately differ; every byte an adversary or the owner can
        # observe (eEPC, key table, forest MACs, top table, EPC data) must
        # still be identical
        lo = eng.top_base_page + eng.top_table_pages
        hi = eng.layout.epc_pages
        return {
            p: bytes(b)
            for p, b in eng.dram._pages.items()
            if not lo <= p < hi and any(b)
        }

    assert image(deferred) == image(blocking), (
        "deferral changed memory bytes, not just timing"
    )
    assert (
        deferred.stats.events["evictions"] == blocking.stats.events["evictions"]
    ), "deferral must not change replacement decisions"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_any_trace_defers_no_worse_than_blocking(seed):
    trace = _random_trace(seed, n=120, pages=280)
    deferred = _run_mode(trace, True)
    blocking = _run_mode(trace, False)
    assert blocking.stats.total_cycles >= deferred.stats.total_cycles
    assert deferred.final_state(EID) == blocking.final_state(EID)


# ------------------------------------------------------- failure handling


def test_inverted_map_collision_is_catastrophic():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.register_enclave(9, 8)
    eng.access(EID, 0, "W", 10)
    # remap the second enclave's page 0 onto the first's physical page
    eng.mapping_overrides[(9, 0)] = eng.enclaves[EID].base_page
    with pytest.raises(CatastrophicFailure, match="inverted-table"):
        eng.access(9, 0, "W", 20)
    with pytest.raises(RuntimeError, match="halted"):
        eng.access(EID, 0, "R", 30)
    assert eng.stats.events["catastrophic_failures"] == 1


@pytest.mark.parametrize(
    "op",
    [
        "R",
        pytest.param("W", marks=pytest.mark.xfail(
            strict=True,
            reason="a resident write rebinds its page into the counter tree "
            "without checking the old data MAC, laundering the flipped byte",
        )),
    ],
)
def test_a_flipped_resident_byte_is_caught_by_the_next_access(op):
    # the module docstring: an adversary flipping EPC bytes between accesses
    # is caught; a write must not bless the flip and carry it out to the eEPC
    eng = make_engine()
    eng.register_enclave(EID, 300)
    eng.access(EID, 0, "W", 100)
    eng.syscall_barrier()  # page 0 resident, nothing in flight
    slot_base = eng.resident[(EID, 0)] * PAGE_SIZE
    flipped = bytearray(eng.dram.peek(slot_base + 512, 1))
    flipped[0] ^= 1
    eng.dram.poke(slot_base + 512, bytes(flipped))
    with pytest.raises(CatastrophicFailure, match="data MAC mismatch"):
        eng.access(EID, 8, op, 200)  # another word of the same page
        ic = 200
        for v in range(1, 300):  # push page 0 out to the eEPC
            ic += 100
            eng.access(EID, v * PAGE_SIZE, "W", ic)
        eng.finalize()


def test_mapping_outside_protected_region_is_catastrophic():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.mapping_overrides[(EID, 3)] = eng.layout.scratch_base // PAGE_SIZE
    with pytest.raises(CatastrophicFailure, match="outside the protected"):
        eng.access(EID, 3 * PAGE_SIZE, "R", 10)


def test_max_outstanding_jobs_bounds_queue_depth():
    eng = make_engine(max_outstanding_jobs=3)
    eng.register_enclave(EID, 300)
    ic = 0
    for v in range(300):
        ic += 5
        eng.access(EID, v * PAGE_SIZE, "W", ic)
    eng.finalize()
    events = eng.stats.events
    assert events["verifier_max_depth"] <= 4  # one transient overshoot while draining
    assert events["verifier_jobs"] > 0 and len(eng.queue) == 0


# ------------------------------------------------------ input validation


def test_icount_must_not_decrease():
    eng = make_engine()
    eng.register_enclave(EID, 8)
    eng.access(EID, 0, "W", 100)
    with pytest.raises(ValueError, match="non-decreasing"):
        eng.access(EID, 64, "R", 99)


def test_unknown_enclave_and_bad_op():
    eng = make_engine()
    with pytest.raises(ValueError, match="not registered"):
        eng.access(3, 0, "R", 1)
    eng.register_enclave(EID, 8)
    with pytest.raises(ValueError, match="op must be"):
        eng.access(EID, 0, "X", 1)


# -------------------------------------------------------- metadata carve


def test_paper_scale_boot_makes_no_mac_and_touches_no_dram(monkeypatch):
    # forest mids and tops are worked out on first read and counter-tree
    # nodes still zero stand for their boot values, so building the engine
    # at 512 GiB / 128 MiB computes no MAC and materializes no DRAM page
    calls = []
    for mod in (forest_mod, merkle_mod):
        real = mod.keyed_mac8

        def counted(*args, real=real):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(mod, "keyed_mac8", counted)
    eng = make_engine(epc_size=128 * MIB, total_size=512 << 30)
    assert calls == []
    assert eng.dram.touched_pages() == 0
    assert eng.dram.total_accesses() == 0
    eng.register_enclave(EID, 4)
    eng.access(EID, 0, "W", 1)
    assert calls  # the counters are live: the first write MACs its path


@pytest.mark.parametrize("epc_kib", [64, 128, 256, 512, 1024, 4096, 16384])
def test_counter_tree_never_spills_past_the_epc(epc_kib):
    # a spilled node would silently overwrite the first eEPC page's bytes
    eng = make_engine(epc_size=epc_kib << 10, total_size=64 * MIB)
    end = (eng.n_slots + eng.top_table_pages) * PAGE_SIZE + eng.merkle.storage_bytes
    assert end <= epc_kib << 10
    assert eng.n_slots >= 2
    # sgx-client carves the same way, with no top table
    sgx = SgxClientModel(SimConfig(total_size=64 * MIB, epc_size=epc_kib << 10))
    assert sgx.n_slots * PAGE_SIZE + sgx.merkle.storage_bytes <= epc_kib << 10
    assert sgx.n_slots >= 2


def test_thrash_at_tiny_epc_stays_benign():
    # regression: a 64-page EPC once leaked one tree node into eEPC page 0,
    # corrupting ciphertext and tripping a false leaf-MAC alarm
    eng = make_engine(epc_size=256 << 10, total_size=16 * MIB)
    eng.register_enclave(EID, 128)
    rng = random.Random(11)
    ic = 0
    for _ in range(400):
        ic += 100
        page = rng.randrange(128)
        op = "W" if rng.random() < 0.3 else "R"
        eng.access(EID, page * PAGE_SIZE + 64 * rng.randrange(64), op, ic)
    eng.finalize()
    assert eng.failure is None
