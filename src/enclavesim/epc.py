"""Overlapped EPC paging engine: fault handling, deferral, clubbing.

The EPC acts as a page-granular LRU cache over the encrypted eEPC.  A read
miss charges exactly two DRAM reads on the critical path -- the demanded
64-byte block and the page's wrapped-key slot -- plus one block decrypt,
and execution restarts.  Everything else about the fault (the other 63
block moves, the eviction's re-encryption, the MAC-forest verification of
the loaded page and the MAC update for the evicted one) is tracked by an
ESHR entry and consumed by a single background lane, so its cost appears
as occupancy that overlaps execution rather than latency that blocks it.

Two bookkeeping layers deliberately run at different times:

  bytes    move eagerly when the fault is handled, through the metered DRAM
           port, so functional state and traffic counts are exact and any
           interleaving question has one deterministic answer;
  cycles   accrue when the lane actually performs each step, so overlap,
           stalls and barrier drains are modeled faithfully.

EPC-resident plaintext lives in emulated DRAM like everything else; it is
bound into the counter tree on every change and re-checked against it on
every use, so an adversary flipping EPC bytes between accesses is caught
the same way one flipping eEPC ciphertext is.

Forest byte-effects are deferred: a loaded page's verification and an
evicted page's MAC update become FIFO jobs (the eviction side waits in a
one-deep club buffer so two same-region evictions share their mid/top
work).  A verification job for a region always flushes that region's
pending update first, which keeps the deferred forest state byte-identical
to a serialized execution.

Scratch pages bypass all protection and are shared between enclaves; a
scratch write is externally visible, so it drains pending verification
first (the syscall barrier) and pays the enclave exit cost -- a tampered
page can never leak plaintext past the enclave boundary.
"""

from __future__ import annotations

import enum
import hashlib
import logging
from collections import OrderedDict
from dataclasses import dataclass

from .crypto import (
    FreshnessSource,
    Ssk,
    compose_page_key,
    ecb_decrypt_page,
    ecb_encrypt_page,
    page_mac,
    unwrap_key,
    wrap_key,
)
from .forest import ForestConfig, MacForest
from .layout import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    KEY_SLOT_BYTES,
    PAGE_SIZE,
    EmulatedDram,
    MemoryLayout,
    Region,
    page_base,
)
from .merkle import EpcMerkle, MerkleTreeConfig, merkle_storage_bytes
from .timing import CycleStats, LatencyConfig, MeteredDram, mvc_cycles_per_page
from .verifier import CatastrophicFailure, VerificationJob, VerifierQueue

logger = logging.getLogger(__name__)

SCRATCH_VBASE = 0xFFFF0  # virtual pages at/above this index address scratch


def scratch_page(layout: MemoryLayout, vpage: int) -> int:
    """Physical page behind a scratch virtual page; all enclaves share it."""
    base = layout.scratch_base // PAGE_SIZE
    return base + (vpage - SCRATCH_VBASE) % layout.scratch_pages


def write_value(eid: int, vaddr: int, icount: int) -> bytes:
    """Deterministic 8-byte store value; shared with reference executions."""
    x = eid * 0x9E3779B97F4A7C15 ^ vaddr * 0xC2B2AE3D27D4EB4F ^ icount * 0x165667B19E3779F9
    return (x & (1 << 64) - 1).to_bytes(8, "big")


class AccessOutcome(enum.Enum):
    EPC_HIT = "epc_hit"
    FAULT_STARTED = "fault_started"
    QUEUED_WRITE = "queued_write"
    SCRATCH_ACCESS = "scratch_access"


@dataclass(frozen=True)
class EngineConfig:
    deferred: bool = True  # False: stall at each fault until load+verify done
    clubbing: bool = True
    eshr_entries: int = 32
    freshness_mode: str = "prng"
    max_outstanding_jobs: int | None = None

    def __post_init__(self):
        if self.eshr_entries <= 0:
            raise ValueError("eshr_entries must be positive")
        if self.max_outstanding_jobs is not None and self.max_outstanding_jobs <= 0:
            raise ValueError("max_outstanding_jobs must be positive when set")


@dataclass
class Enclave:
    eid: int
    n_pages: int
    base_page: int  # first eEPC physical page of the flat virtual range


@dataclass
class EpcSlot:
    index: int
    eid: int | None = None
    vpage: int | None = None
    home: int | None = None  # eEPC physical page this slot caches

    @property
    def occupied(self) -> bool:
        return self.eid is not None


@dataclass
class EshrEntry:
    slot: int
    e_bit: bool  # a page was evicted to make room
    v_bit: bool = True
    ls_vector: int = 0  # bit b set <=> block b of the page loaded
    cursor: int = 0  # next block index the lane will move
    demand: bool = False  # a read restart is waiting on this entry
    born_icount: int = 0
    born_instructions: int = 0
    born_cycles: int = 0
    verify_payload: tuple[int, bytes, bytes] | None = None  # (page, key, pt)


class SecScaleEngine:
    """Deterministic single-core model of the overlapped protection design."""

    def __init__(
        self,
        layout: MemoryLayout,
        latency: LatencyConfig = LatencyConfig(),
        forest_config: ForestConfig = ForestConfig(),
        merkle_config: MerkleTreeConfig = MerkleTreeConfig(),
        config: EngineConfig = EngineConfig(),
        seed: int = 0,
    ):
        self.layout = layout
        self.latency = latency
        self.config = config
        self.stats = CycleStats(latency)
        self.dram = EmulatedDram(layout)
        self.port = MeteredDram(self.dram, self.stats)

        h = hashlib.sha256(b"engine-seed" + seed.to_bytes(8, "big")).digest()
        self.hw_key = int.from_bytes(h[:8], "big")
        self.ssk = Ssk(device_key2=h[8:24], boot_time=h[16:32])
        self.freshness = FreshnessSource(h[16:32], self.hw_key, config.freshness_mode)

        # Carve the EPC internally: data slots, then the forest top table,
        # then counter-tree storage; the tree protects slots + top pages.
        self.n_regions = layout.total_pages // forest_config.region_pages
        self.top_table_pages = -(-self.n_regions * 8 // PAGE_SIZE)
        self.n_slots = self._carve_slots(layout.epc_pages, merkle_config)
        self.top_base_page = self.n_slots
        protected = self.n_slots + self.top_table_pages
        self.forest = MacForest(
            self.port,
            base_addr=layout.forest_base,
            n_pages=layout.total_pages,
            ssk_bytes=self.ssk.key_bytes,
            top_read=self._top_read,
            top_write=self._top_write,
            config=forest_config,
        )
        # boot order matters: the top table must hold its boot digests
        # before the counter tree MACs the page content covering them
        for region, mac in self.forest.boot_tops.items():
            self.dram.poke(self.top_base_page * PAGE_SIZE + region * 8, mac)
        self.merkle = EpcMerkle(
            self.port,
            base_addr=protected * PAGE_SIZE,
            n_pages=protected,
            ssk_bytes=self.ssk.key_bytes,
            config=merkle_config,
        )
        if protected * PAGE_SIZE + self.merkle.storage_bytes > layout.epc_size:
            raise AssertionError("counter-tree nodes overflow the EPC carve")

        # LRU order, least recently touched first; never-used slots lead it
        self.slots = OrderedDict((i, EpcSlot(i)) for i in range(self.n_slots))
        self.resident: dict[tuple[int, int], int] = {}  # (eid, vpage) -> slot
        self.inverted: dict[int, int] = {}  # physical eEPC page -> slot
        self.enclaves: dict[int, Enclave] = {}
        self.mapping_overrides: dict[tuple[int, int], int] = {}
        self.eepc_initialized: set[int] = set()
        self._next_eepc_page = layout.eepc_base // PAGE_SIZE

        self.eshr: dict[int, EshrEntry] = {}  # slot -> live entry, oldest first
        self.queue = VerifierQueue()
        self._club: tuple[int, list[tuple[int, bytes, bytes]]] | None = None

        self.last_icount = 0
        self.failure: CatastrophicFailure | None = None

    def _carve_slots(self, epc_pages: int, mcfg: MerkleTreeConfig) -> int:
        # largest slot count whose counter-tree nodes still fit in the EPC;
        # tree size grows with the slot count, so walk down until it fits
        slots = epc_pages - self.top_table_pages - 1
        while slots >= 2:
            protected = (slots + self.top_table_pages) * PAGE_SIZE
            mpages = -(-merkle_storage_bytes(protected, mcfg) // PAGE_SIZE)
            if slots + self.top_table_pages + mpages <= epc_pages:
                return slots
            slots -= 1
        raise ValueError("EPC too small for metadata plus two data slots")

    # ------------------------------------------------------------ enclaves
    def register_enclave(self, eid: int, n_pages: int) -> Enclave:
        if eid in self.enclaves:
            raise ValueError(f"enclave {eid} already registered")
        if not 0 < eid < 1 << 31:
            raise ValueError("enclave id must fit in 31 bits and be nonzero")
        end = self._next_eepc_page + n_pages
        if end > self.layout.forest_base // PAGE_SIZE:
            raise ValueError("eEPC exhausted")
        enc = Enclave(eid, n_pages, self._next_eepc_page)
        self._next_eepc_page = end
        self.enclaves[eid] = enc
        return enc

    def _phys_page(self, eid: int, vpage: int) -> int:
        enc = self.enclaves[eid]
        if vpage >= enc.n_pages:
            raise ValueError(f"vpage {vpage} outside enclave {eid} range")
        phys = self.mapping_overrides.get((eid, vpage), enc.base_page + vpage)
        if self.layout.classify(page_base(phys)) is not Region.EEPC:
            raise CatastrophicFailure(
                f"secure virtual page {vpage} mapped outside the protected "
                f"region (physical page {phys})",
                page=phys,
            )
        return phys

    # --------------------------------------------------- forest top table
    def _top_slot_addr(self, region: int) -> tuple[int, int]:
        addr = self.top_base_page * PAGE_SIZE + region * 8
        return addr, addr // PAGE_SIZE

    def _top_read(self, region: int) -> bytes:
        # called only while a job retires; the retire path charges occupancy
        # for every access this makes, so no lane charge happens here
        addr, tpage = self._top_slot_addr(region)
        data = self.port.read(addr, 8, cause="forest")
        self.stats.events["top_table_accesses"] += 1
        res = self.merkle.read_verify(tpage)
        self.merkle.check_data(
            tpage, res.major, self.dram.peek(tpage * PAGE_SIZE, PAGE_SIZE), res.data_mac
        )
        return data

    def _top_write(self, region: int, mac: bytes):
        addr, tpage = self._top_slot_addr(region)
        self.port.write(addr, mac, cause="forest")
        self.stats.events["top_table_accesses"] += 1
        self.merkle.write_update(tpage, self.dram.peek(tpage * PAGE_SIZE, PAGE_SIZE))

    # ----------------------------------------------------------------- LRU
    def _touch(self, slot: EpcSlot):
        self.slots.move_to_end(slot.index)

    def evict_select(self) -> int | None:
        """Victim slot: the least recently touched occupied one not in flight."""
        for index, slot in self.slots.items():
            if slot.occupied and index not in self.eshr:
                return index
        return None

    # ----------------------------------------------------- slot byte store
    def _slot_base(self, slot: EpcSlot) -> int:
        return slot.index * PAGE_SIZE

    def _slot_bytes(self, slot: EpcSlot) -> bytes:
        return self.dram.peek(self._slot_base(slot), PAGE_SIZE)

    def _charge_tree(self, accesses: int, *, critical: bool):
        """Counter-tree traffic: latency on the critical path, else lane time."""
        if critical:
            self.stats.charge_critical(self.latency.dram_access_cycles * accesses)
        else:
            self.stats.lane_charge(0, self.latency.dram_occupancy_cycles * accesses)

    def _check_slot(self, slot: EpcSlot, plaintext: bytes, *, critical: bool):
        """Re-check an EPC page's bytes against the counter tree."""
        res = self.merkle.read_verify(slot.index)
        self.merkle.check_data(slot.index, res.major, plaintext, res.data_mac)
        self._charge_tree(res.dram_reads, critical=critical)

    def _rebind_slot(self, slot: EpcSlot, plaintext: bytes, *, critical: bool):
        """Bind an EPC page's new bytes into the counter tree."""
        res = self.merkle.write_update(slot.index, plaintext)
        self._charge_tree(res.dram_reads + res.dram_writes, critical=critical)

    # ------------------------------------------------------ lane scheduling
    def _entry_step_cycles(self, entry: EshrEntry, load_needed: bool) -> int:
        # evicting a block is read EPC + write eEPC; loading is the reverse;
        # each side also decrypts and re-encrypts the block once
        dram = (2 if entry.e_bit else 0) + (2 if load_needed else 0)
        crypto = (2 if entry.e_bit else 0) + (2 if load_needed else 0)
        return (
            dram * self.latency.dram_occupancy_cycles
            + crypto * self.latency.crypto_occupancy_cycles
        )

    def fault_step(self, entry: EshrEntry):
        """Advance one block move for a live entry (lane work)."""
        if not entry.v_bit:
            raise ValueError("entry is not live")
        b = entry.cursor
        load_needed = not (entry.ls_vector >> b) & 1
        self.stats.lane_charge(
            entry.born_cycles, self._entry_step_cycles(entry, load_needed)
        )
        entry.ls_vector |= 1 << b
        entry.cursor = b + 1
        self.stats.events["fault_steps"] += 1
        if entry.cursor == BLOCKS_PER_PAGE:
            self._complete_entry(entry)

    def _complete_entry(self, entry: EshrEntry):
        entry.v_bit = False
        del self.eshr[entry.slot]  # the slot becomes eviction-eligible
        if entry.verify_payload is not None:
            page, key, pt = entry.verify_payload
            self._submit_job(
                "verify",
                [(page, key, pt)],
                icount=entry.born_icount,
                instructions=entry.born_instructions,
            )

    def _submit_job(self, kind: str, items, *, icount: int, instructions: int,
                    grouped: bool = False):
        region = self.forest.region_of(items[0][0])
        if kind == "verify":
            self._club_flush(region)  # pending same-region update goes first
        job = VerificationJob(
            kind=kind,
            pages=tuple(p for p, _, _ in items),
            page_keys=tuple(k for _, k, _ in items),
            plaintexts=tuple(pt for _, _, pt in items),
            enqueue_icount=icount,
            enqueue_instructions=instructions,
            enqueue_cycles=self.stats.critical_cycles,
            region=region,
            grouped=grouped,
        )
        self.queue.submit(job)
        limit = self.config.max_outstanding_jobs
        if limit is not None:
            while len(self.queue) > limit:
                self._retire_head()
                self.stats.stall_until_lane()

    def _retire_head(self):
        job = self.queue.pop()
        if job is None:
            return
        before = self.stats.dram_total
        try:
            if job.kind == "verify":
                for page, key, pt in zip(job.pages, job.page_keys, job.plaintexts):
                    res = self.forest.verify_page(page, page_mac(key, pt))
                    self.stats.events["max_verify_forest_accesses"] = max(
                        self.stats.events["max_verify_forest_accesses"],
                        res.total_accesses,
                    )
            else:
                self.forest.update(
                    [
                        (page, page_mac(key, pt))
                        for page, key, pt in zip(job.pages, job.page_keys, job.plaintexts)
                    ]
                )
        except CatastrophicFailure as cf:
            cf.speculative_instructions = (
                self.stats.instructions - job.enqueue_instructions
            )
            raise
        finally:
            accesses = self.stats.dram_total - before
            work = mvc_cycles_per_page(self.latency) * len(job.pages)
            self.stats.lane_charge(
                job.enqueue_cycles,
                work + accesses * self.latency.dram_occupancy_cycles,
            )
            self.stats.count_crypto("mac", BLOCKS_PER_PAGE * len(job.pages))

    def _lane_pull(self) -> bool:
        """One unit of background work: demand entries, oldest entry, jobs."""
        entries = self.eshr.values()
        for entry in entries:
            if entry.demand:
                break
        else:
            entry = next(iter(entries), None)
        if entry is not None:
            self.fault_step(entry)
            return True
        if self.queue:
            self._retire_head()
            return True
        return False

    def _drain_opportunistic(self):
        while self.stats.lane_free < self.stats.critical_cycles and self._lane_pull():
            pass

    def _drain_all(self):
        self._club_flush()
        while self._lane_pull():
            pass
        self.stats.stall_until_lane()

    # ------------------------------------------------------------ clubbing
    def _club_push(self, page: int, key: bytes, pt: bytes, *, icount: int,
                   instructions: int):
        item = (page, key, pt)
        if not self.config.clubbing:
            self._submit_job("update", [item], icount=icount, instructions=instructions)
            return
        region = self.forest.region_of(page)
        if self._club is None:
            self._club = (region, [item])
        elif self._club[0] == region:
            items = self._club[1] + [item]
            self._club = None
            self.stats.events["clubbed_pairs"] += 1
            self._submit_job(
                "update", items, icount=icount, instructions=instructions, grouped=True
            )
        else:
            old_items = self._club[1]
            self._club = (region, [item])
            self._submit_job("update", old_items, icount=icount, instructions=instructions)

    def _club_flush(self, region: int | None = None):
        if self._club is None:
            return
        if region is not None and self._club[0] != region:
            return
        old_items = self._club[1]
        self._club = None
        self._submit_job(
            "update",
            old_items,
            icount=self.last_icount,
            instructions=self.stats.instructions,
        )

    # -------------------------------------------------------------- faults
    def _stall_complete_oldest(self):
        oldest = next(iter(self.eshr.values()))
        while oldest.v_bit:
            self.fault_step(oldest)
        self.stats.stall_until_lane()
        self.stats.events["eshr_stalls"] += 1

    def _claim_slot(self) -> EpcSlot:
        first = next(iter(self.slots.values()))
        if not first.occupied:  # free slots lead the order, lowest index first
            return first
        while (victim := self.evict_select()) is None:
            # every occupied slot is mid-flight: finish the oldest fault
            self._stall_complete_oldest()
        return self.slots[victim]

    def _critical_restart(self, phys: int, block: int) -> bytes:
        """Restart a read that misses: the wrapped key and the demanded block
        are the two critical DRAM reads, plus one block decrypt."""
        wrapped = self.port.read(
            self.layout.key_table_slot(phys), KEY_SLOT_BYTES, cause="key_table"
        )
        self.port.read(phys * PAGE_SIZE + block * BLOCK_SIZE, BLOCK_SIZE, cause="data")
        self.stats.charge_critical(2 * self.latency.dram_access_cycles)
        self.stats.critical_crypto("ecb", 1)
        self.stats.events["fault_critical_reads"] += 2
        return wrapped

    def _evict_slot(self, slot: EpcSlot, *, icount: int):
        """Eagerly re-key, re-encrypt and write back a victim page."""
        # integrity gate before the page leaves hardware protection
        plaintext = self.port.read_span(self._slot_base(slot), PAGE_SIZE, cause="data")
        self._check_slot(slot, plaintext, critical=False)

        key = compose_page_key(self.hw_key, slot.eid, self.freshness.draw(), slot.home)
        self.port.write(
            self.layout.key_table_slot(slot.home),
            wrap_key(self.ssk, key),
            cause="key_table",
        )
        ciphertext = ecb_encrypt_page(key, plaintext)
        self.port.write_span(slot.home * PAGE_SIZE, ciphertext, cause="data")
        self.stats.count_crypto("ctr", BLOCKS_PER_PAGE)  # out of EPC decryption
        self.stats.count_crypto("ecb", BLOCKS_PER_PAGE)
        self.eepc_initialized.add(slot.home)
        self._club_push(
            slot.home, key, plaintext,
            icount=icount, instructions=self.stats.instructions,
        )
        del self.resident[(slot.eid, slot.vpage)]
        del self.inverted[slot.home]
        self.stats.events["evictions"] += 1

    def _start_fault(
        self, eid: int, vpage: int, phys: int, *, icount: int,
        demand_block: int | None, pending_write: tuple[int, bytes] | None = None,
    ) -> EpcSlot:
        if phys in self.inverted:
            raise CatastrophicFailure(
                f"physical page {phys} already mapped by another enclave "
                "(inverted-table collision)",
                page=phys,
            )
        while len(self.eshr) >= self.config.eshr_entries:
            self._stall_complete_oldest()
        slot = self._claim_slot()
        e_bit = slot.occupied
        if e_bit:
            self._evict_slot(slot, icount=icount)

        is_read = demand_block is not None
        base = phys * PAGE_SIZE
        if is_read:
            wrapped = self._critical_restart(phys, demand_block)
            # the other 63 blocks stream in the background
            if demand_block > 0:
                self.port.read_span(base, demand_block * BLOCK_SIZE, cause="data")
            if demand_block < BLOCKS_PER_PAGE - 1:
                after = (demand_block + 1) * BLOCK_SIZE
                self.port.read_span(base + after, PAGE_SIZE - after, cause="data")
        else:
            wrapped = self.port.read(
                self.layout.key_table_slot(phys), KEY_SLOT_BYTES, cause="key_table"
            )
            self.port.read_span(base, PAGE_SIZE, cause="data")
        ciphertext = self.dram.peek(base, PAGE_SIZE)

        initialized = phys in self.eepc_initialized
        if initialized:
            key = unwrap_key(self.ssk, wrapped, self.hw_key, eid, phys)
            plaintext = bytearray(ecb_decrypt_page(key, ciphertext))
            self.stats.count_crypto("ecb", BLOCKS_PER_PAGE - (1 if is_read else 0))
            payload = (phys, key, bytes(plaintext))
        else:
            plaintext = bytearray(PAGE_SIZE)  # first touch: fresh zero page
            payload = None
            self.stats.events["first_touch_loads"] += 1
        self.stats.count_crypto("ctr", BLOCKS_PER_PAGE)  # into-EPC re-encryption

        if pending_write is not None:
            offset, value = pending_write
            plaintext[offset : offset + len(value)] = value

        slot.eid, slot.vpage, slot.home = eid, vpage, phys
        self._touch(slot)
        self.resident[(eid, vpage)] = slot.index
        self.inverted[phys] = slot.index
        page = bytes(plaintext)
        self.port.write_span(self._slot_base(slot), page, cause="data")
        self._rebind_slot(slot, page, critical=False)

        entry = EshrEntry(
            slot=slot.index,
            e_bit=e_bit,
            demand=is_read,
            born_icount=icount,
            born_instructions=self.stats.instructions,
            born_cycles=self.stats.critical_cycles,
            verify_payload=payload,
        )
        if is_read:
            entry.ls_vector |= 1 << demand_block
        self.eshr[slot.index] = entry
        return slot

    # -------------------------------------------------------------- access
    def access(
        self, eid: int, vaddr: int, op: str, icount: int
    ) -> tuple[AccessOutcome, bytes | None]:
        if self.failure is not None:
            raise RuntimeError("engine halted by catastrophic failure")
        if op not in ("R", "W"):
            raise ValueError(f"op must be R or W, got {op!r}")
        if icount < self.last_icount:
            raise ValueError("icount must be non-decreasing")
        try:
            return self._access(eid, vaddr, op, icount)
        except CatastrophicFailure as cf:
            self.failure = cf
            self.stats.events["catastrophic_failures"] += 1
            raise

    def _access(self, eid, vaddr, op, icount):
        self.stats.advance_instructions(icount - self.last_icount)
        self.last_icount = icount
        self._drain_opportunistic()
        vpage = vaddr // PAGE_SIZE
        if vpage >= SCRATCH_VBASE:
            return self._scratch_access(eid, vaddr, op, icount)
        if eid not in self.enclaves:
            raise ValueError(f"enclave {eid} not registered")

        block = (vaddr % PAGE_SIZE) // BLOCK_SIZE
        offset = (vaddr % PAGE_SIZE) & ~7
        value = write_value(eid, vaddr, icount) if op == "W" else None
        slot_idx = self.resident.get((eid, vpage))

        if slot_idx is None:
            phys = self._phys_page(eid, vpage)
            slot = self._start_fault(
                eid, vpage, phys, icount=icount,
                demand_block=block if op == "R" else None,
                pending_write=(offset, value) if op == "W" else None,
            )
            if op == "R":
                self.stats.events["read_faults"] += 1
                outcome = AccessOutcome.FAULT_STARTED
                value = self._slot_bytes(slot)[offset : offset + 8]
            else:
                self.stats.events["write_faults"] += 1
                outcome = AccessOutcome.QUEUED_WRITE
        else:
            slot = self.slots[slot_idx]
            entry = self.eshr.get(slot_idx)
            self._touch(slot)
            if entry is not None and op == "R" and not (entry.ls_vector >> block) & 1:
                # page in flight, demanded block not yet landed: restart costs
                # the same two reads as a fresh miss
                self._critical_restart(slot.home, block)
                entry.ls_vector |= 1 << block
                entry.demand = True
                self.stats.events["refaults"] += 1
                outcome = AccessOutcome.FAULT_STARTED
                value = self._slot_bytes(slot)[offset : offset + 8]
            elif op == "R":
                self.stats.events["epc_hits"] += 1
                outcome = AccessOutcome.EPC_HIT
                self.port.read(
                    self._slot_base(slot) + block * BLOCK_SIZE, BLOCK_SIZE, cause="data"
                )
                self.stats.charge_critical(self.latency.dram_access_cycles)
                self.stats.critical_crypto("ctr", 1)
                pt = self._slot_bytes(slot)
                self._check_slot(slot, pt, critical=True)
                value = pt[offset : offset + 8]
            else:
                # resident write: update the page and rebind the counter tree
                in_flight = entry is not None
                self.stats.events["queued_writes" if in_flight else "epc_hits"] += 1
                outcome = (
                    AccessOutcome.QUEUED_WRITE if in_flight else AccessOutcome.EPC_HIT
                )
                pt = bytearray(self._slot_bytes(slot))
                pt[offset : offset + 8] = value
                self.port.write(
                    self._slot_base(slot) + offset, value, cause="data"
                )
                self._rebind_slot(slot, bytes(pt), critical=not in_flight)
                if not in_flight:
                    self.stats.charge_critical(self.latency.dram_access_cycles)
                    self.stats.critical_crypto("ctr", 1)

        if not self.config.deferred:
            self._drain_all()
        return outcome, value

    # ------------------------------------------------------------- scratch
    def _scratch_access(self, eid, vaddr, op, icount):
        phys = scratch_page(self.layout, vaddr // PAGE_SIZE)
        addr = phys * PAGE_SIZE + vaddr % PAGE_SIZE
        if op == "R":
            block_addr = addr & ~(BLOCK_SIZE - 1)
            data = self.port.read(block_addr, BLOCK_SIZE, cause="data")
            self.stats.charge_critical(self.latency.dram_access_cycles)
            off = (addr - block_addr) & ~7
            self.stats.events["scratch_reads"] += 1
            return AccessOutcome.SCRATCH_ACCESS, data[off : off + 8]
        # externally visible write: barrier, pay the exit, then store
        self.syscall_barrier()
        self.stats.charge_critical(self.latency.enclave_enter_exit)
        value = write_value(eid, vaddr, icount)
        self.port.write(addr & ~7, value, cause="data")
        self.stats.charge_critical(self.latency.dram_access_cycles)
        self.stats.events["scratch_writes"] += 1
        return AccessOutcome.SCRATCH_ACCESS, value

    # ------------------------------------------------------------- barrier
    def syscall_barrier(self) -> int:
        """Drain all pending verification before any externally visible act."""
        before = self.stats.critical_cycles
        self._drain_all()
        self.stats.events["barriers"] += 1
        return self.stats.critical_cycles - before

    def finalize(self):
        """End of run: complete in-flight faults and retire every job."""
        if self.failure is not None:
            return
        try:
            self._drain_all()
        except CatastrophicFailure as cf:
            self.failure = cf
            self.stats.events["catastrophic_failures"] += 1
            raise

    # -------------------------------------------------------------- state
    def final_state(self, eid: int) -> dict[int, bytes]:
        """Logical plaintext of an enclave's pages (oracle extraction)."""
        enc = self.enclaves[eid]
        out = {}
        for vpage in range(enc.n_pages):
            slot_idx = self.resident.get((eid, vpage))
            if slot_idx is not None:
                out[vpage] = self._slot_bytes(self.slots[slot_idx])
                continue
            phys = self.mapping_overrides.get((eid, vpage), enc.base_page + vpage)
            if phys not in self.eepc_initialized:
                out[vpage] = bytes(PAGE_SIZE)
                continue
            wrapped = self.dram.peek(self.layout.key_table_slot(phys), KEY_SLOT_BYTES)
            key = unwrap_key(self.ssk, wrapped, self.hw_key, eid, phys)
            out[vpage] = ecb_decrypt_page(key, self.dram.peek(phys * PAGE_SIZE, PAGE_SIZE))
        return out

    # ------------------------------------------------------------- metrics
    def live_entries(self) -> list[EshrEntry]:
        return list(self.eshr.values())
