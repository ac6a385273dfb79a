"""Overlapped EPC paging engine: fault handling, deferral, clubbing.

`Model`, the base every model in sim.py builds on, lives here too: it holds
the emulated memory, the clock, the enclave map and the one checked
`access`; `SecScaleEngine` is the overlapped design on top of it.

The EPC acts as a page-granular LRU cache over the encrypted eEPC.  A read
miss charges exactly two DRAM reads on the critical path -- the demanded
64-byte block and the page's wrapped-key slot -- plus one block decrypt,
and execution restarts.  Everything else about the fault (the other 63
block moves, the eviction's re-encryption, the MAC-forest verification of
the loaded page and the MAC update for the evicted one) is tracked by an
ESHR entry and consumed by a single background lane, so its cost appears
as occupancy that overlaps execution rather than latency that blocks it.

Two bookkeeping layers deliberately run at different times:

  bytes    move eagerly when the fault is handled, through the emulated
           DRAM's metered methods, so functional state and traffic counts
           are exact and any interleaving question has one deterministic
           answer;
  cycles   accrue when the lane performs the work -- a fault's block moves
           in one charge per advance, as far as the lane's free time
           reaches -- so overlap, stalls and barrier drains are modeled
           faithfully.

EPC-resident plaintext lives in emulated DRAM like everything else; it is
bound into the counter tree on every change and re-checked against it on
every use, so an adversary flipping EPC bytes between accesses is caught
the same way one flipping eEPC ciphertext is.  The forest's top MACs sit
in EPC pages too, behind a `TopTable` that the counter tree guards; the
forest holds the table, not the engine, so an engine holds no reference
cycle and is freed as soon as its last user lets go of it.

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

import hashlib
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

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
from .forest import REGION_PAGES, MacForest, forest_storage
from .layout import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    KEY_SLOT_BYTES,
    PAGE_SIZE,
    SCRATCH_VBASE,
    ZERO_PAGE,
    ConfigError,
    EmulatedDram,
    MemoryLayout,
    Region,
    page_base,
)
from .merkle import EpcMerkle, carve_slots
from .timing import CycleStats, mvc_cycles_per_page
from .verifier import CatastrophicFailure, VerificationJob

if TYPE_CHECKING:
    from .sim import SimConfig


def make_layout(total_size: int, epc_size: int) -> MemoryLayout:
    """Layout with forest storage sized for every page of physical memory."""
    return MemoryLayout.build(
        total_size=total_size,
        epc_size=epc_size,
        forest_storage_size=forest_storage(total_size).dram_region_bytes,
    )


def write_value(eid: int, vaddr: int, icount: int) -> bytes:
    """Deterministic 8-byte store value; shared with reference executions."""
    x = eid * 0x9E3779B97F4A7C15 ^ vaddr * 0xC2B2AE3D27D4EB4F ^ icount * 0x165667B19E3779F9
    return (x & (1 << 64) - 1).to_bytes(8, "big")


@dataclass
class Enclave:
    eid: int
    n_pages: int
    base_page: int  # first eEPC physical page of the flat virtual range


class Model:
    """What every model shares, the secscale engine included.

    Emulated memory that counts its traffic, one cycle account, and enclaves
    mapped to consecutive home pages in the eEPC.  `access` is the one entry
    and checks its input the same way for every model, before anything is
    charged; it advances the clock, then sends a scratch page to
    `_scratch_access` and an enclave page to `_secure_access`.  The default
    `_secure_access` is the unprotected reference, and a design overrides
    what it does differently.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.layout = make_layout(cfg.total_size, cfg.epc_size)
        self.stats = CycleStats(cfg.latency)
        self.dram = EmulatedDram(self.layout)
        self.enclaves: dict[int, Enclave] = {}
        self.last_icount = 0

    # ------------------------------------------------------------ enclaves
    def register_enclave(self, eid: int, n_pages: int) -> Enclave:
        """Map an enclave's pages to the next free run of eEPC home pages.

        Every model rejects the same enclaves: an id that is zero or does
        not fit the key format's 31 bits, fewer than one page, and pages
        that would run past the eEPC into the forest region.
        """
        if eid in self.enclaves:
            raise ValueError(f"enclave {eid} already registered")
        if not 0 < eid < 1 << 31:
            raise ConfigError(f"enclave id {eid}: must fit in 31 bits and be nonzero")
        if n_pages < 1:
            raise ConfigError(f"enclave {eid}: n_pages {n_pages} must be at least 1")
        layout = self.layout
        used = sum(e.n_pages for e in self.enclaves.values())
        base = layout.eepc_base // PAGE_SIZE + used
        free = layout.forest_base // PAGE_SIZE - base
        if n_pages > free:
            raise ConfigError(
                f"eEPC exhausted: enclave {eid} needs {n_pages} home pages, "
                f"{free} of the eEPC's {layout.eepc_size // PAGE_SIZE} are free"
            )
        enc = self.enclaves[eid] = Enclave(eid, n_pages, base)
        return enc

    def _enclave(self, eid: int) -> Enclave:
        try:
            return self.enclaves[eid]
        except KeyError:
            raise ValueError(f"enclave {eid} not registered") from None

    def home_page(self, eid: int, vpage: int) -> int:
        """The eEPC physical page an enclave's virtual page belongs to."""
        enc = self.enclaves.get(eid)
        if enc is None or not 0 <= vpage < enc.n_pages:
            self._enclave(eid)  # an unknown enclave raises here
            raise ValueError(f"vpage {vpage} outside enclave {eid} range")
        return enc.base_page + vpage

    # -------------------------------------------------------------- access
    def access(self, eid: int, vaddr: int, op: str, icount: int) -> bytes:
        """One 8-byte access; returns the bytes read or written."""
        if op not in ("R", "W"):
            raise ValueError(f"op must be R or W, got {op!r}")
        if icount < self.last_icount:
            raise ValueError("icount must be non-decreasing")
        vpage = vaddr // PAGE_SIZE
        if vpage >= SCRATCH_VBASE:
            self._enclave(eid)  # an unknown enclave raises here
            self._advance(icount)
            return self._scratch_access(eid, vaddr, op, icount)
        self.home_page(eid, vpage)  # an unknown enclave or page raises here
        self._advance(icount)
        return self._secure_access(eid, vaddr, op, icount)

    def _advance(self, icount: int):
        self.stats.advance_instructions(icount - self.last_icount)
        self.last_icount = icount

    def _scratch_access(self, eid: int, vaddr: int, op: str, icount: int) -> bytes:
        """Scratch pages bypass protection, and all enclaves share them.  No
        enclave exit is charged here; only secscale adds one, before a write."""
        layout = self.layout
        vpage = vaddr // PAGE_SIZE - SCRATCH_VBASE
        page = layout.scratch_base // PAGE_SIZE + vpage % layout.scratch_pages
        self.stats.events["scratch_reads" if op == "R" else "scratch_writes"] += 1
        return self._unprotected(page, eid, vaddr, op, icount)

    def _secure_access(self, eid: int, vaddr: int, op: str, icount: int) -> bytes:
        """The unprotected reference: the enclave page at its home."""
        page = self.home_page(eid, vaddr // PAGE_SIZE)
        return self._unprotected(page, eid, vaddr, op, icount)

    def _unprotected(self, page: int, eid: int, vaddr: int, op: str, icount: int):
        """One 8-byte access in physical `page` with no protection: a block
        read or an 8-byte write, and one DRAM latency on the critical path."""
        addr = page * PAGE_SIZE + vaddr % PAGE_SIZE
        if op == "R":
            block = addr & ~(BLOCK_SIZE - 1)
            data = self.dram.read(block, BLOCK_SIZE, "data")
            off = (addr - block) & ~7
            value = data[off : off + 8]
        else:
            value = write_value(eid, vaddr, icount)
            self.dram.write(addr & ~7, value, "data")
        self.stats.charge(dram=1)
        return value

    def finalize(self):
        pass

    def final_pages(self, eid: int) -> Iterator[tuple[int, bytes]]:
        """Each of an enclave's pages as (vpage, plaintext), in vpage order.

        A generator: it reads one page per step, so a digest fed from it
        never holds the enclave whole.  A model whose pages do not all sit
        at their homes overrides this one method; `final_state` is built
        from it.
        """
        enc = self.enclaves[eid]
        for v in range(enc.n_pages):
            yield v, self.dram.peek((enc.base_page + v) * PAGE_SIZE, PAGE_SIZE)

    def final_state(self, eid: int) -> dict[int, bytes]:
        """Plaintext of each of an enclave's pages, keyed by virtual page."""
        return dict(self.final_pages(eid))


class TopTable:
    """The forest's top MACs: one 8-byte word per region in EPC pages.

    The table's pages sit right after the data slots and the counter tree
    protects them, so a top is checked against the tree on every read and
    rebound into it on every write; that is what makes a top hardware-held.
    Every access is one metered DRAM access under cause "forest" and one
    `top_table_accesses` event.  The forest reads and writes tops through
    `read` and `write`; the table holds only the DRAM, the tree and the
    event counter, never the engine that built it.
    """

    def __init__(
        self, dram: EmulatedDram, merkle: EpcMerkle, events: Counter, base_page: int
    ):
        self.dram = dram
        self.merkle = merkle
        self.events = events
        self.base_page = base_page

    def _slot_addr(self, region: int) -> tuple[int, int]:
        addr = self.base_page * PAGE_SIZE + region * 8
        return addr, addr // PAGE_SIZE

    def read(self, region: int) -> bytes:
        # called only while a job retires; the retire path charges occupancy
        # for every access this makes, so no lane charge happens here
        addr, tpage = self._slot_addr(region)
        data = self.dram.read(addr, 8, "forest")
        self.events["top_table_accesses"] += 1
        self.merkle.check(tpage)
        return data

    def write(self, region: int, mac: bytes):
        addr, tpage = self._slot_addr(region)
        self.dram.write(addr, mac, "forest")
        self.events["top_table_accesses"] += 1
        self.merkle.write_update(tpage)


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
    ls_vector: int = 0  # bit b set <=> block b of the page loaded
    cursor: int = 0  # next block the lane moves; live while < BLOCKS_PER_PAGE
    demand: bool = False  # a read restart is waiting on this entry
    born_instructions: int = 0
    born_cycles: int = 0
    verify_payload: tuple[int, bytes, bytes] | None = None  # (page, key, pt)


class SecScaleEngine(Model):
    """Deterministic single-core model of the overlapped protection design.

    Built like every other model, from the run's SimConfig.  Two settings
    are not in it: `counter_cache=False` makes every counter-tree walk fetch
    from DRAM (a replayed tree node is only read back without the cache),
    and `max_outstanding_jobs` bounds the verifier queue by retiring jobs on
    the critical path.
    """

    def __init__(
        self,
        cfg: SimConfig,
        *,
        counter_cache: bool = True,
        max_outstanding_jobs: int | None = None,
    ):
        if max_outstanding_jobs is not None and max_outstanding_jobs <= 0:
            raise ValueError("max_outstanding_jobs must be positive when set")
        super().__init__(cfg)
        self.max_outstanding_jobs = max_outstanding_jobs
        layout = self.layout
        self.latency = cfg.latency

        h = hashlib.sha256(b"engine-seed" + cfg.seed.to_bytes(8, "big")).digest()
        self.hw_key = int.from_bytes(h[:8], "big")
        self.ssk = Ssk(device_key2=h[8:24], boot_time=h[16:32])
        self.freshness = FreshnessSource(h[16:32], self.hw_key, cfg.freshness_mode)

        # Carve the EPC internally: data slots, then the forest top table,
        # then counter-tree storage; the tree protects slots + top pages.
        self.n_regions = layout.total_pages // REGION_PAGES
        self.top_table_pages = -(-self.n_regions * 8 // PAGE_SIZE)
        self.n_slots = carve_slots(layout.epc_pages, self.top_table_pages)
        self.top_base_page = self.n_slots
        protected = self.n_slots + self.top_table_pages
        self.merkle = EpcMerkle(
            self.dram,
            base_addr=protected * PAGE_SIZE,
            n_pages=protected,
            ssk_bytes=self.ssk.key_bytes,
            events=self.stats.events,
            cache=counter_cache,
        )
        if protected * PAGE_SIZE + self.merkle.storage_bytes > layout.epc_size:
            raise AssertionError("counter-tree nodes overflow the EPC carve")
        # the forest reaches the tops through the table, not the engine, so
        # nothing the engine owns points back at it
        tops = TopTable(self.dram, self.merkle, self.stats.events, self.top_base_page)
        self.forest = MacForest(
            self.dram,
            base_addr=layout.forest_base,
            n_pages=layout.total_pages,
            ssk_bytes=self.ssk.key_bytes,
            top_read=tops.read,
            top_write=tops.write,
            events=self.stats.events,
            top_cache=cfg.top_cache,
        )

        # LRU order, least recently touched first; never-used slots lead it
        self.slots = OrderedDict((i, EpcSlot(i)) for i in range(self.n_slots))
        self.resident: dict[tuple[int, int], int] = {}  # (eid, vpage) -> slot
        self.inverted: dict[int, int] = {}  # physical eEPC page -> slot
        self.mapping_overrides: dict[tuple[int, int], int] = {}
        self.eepc_initialized: set[int] = set()

        self.eshr: dict[int, EshrEntry] = {}  # slot -> live entry, oldest first
        self.queue: deque[VerificationJob] = deque()  # strict FIFO
        self._club: tuple[int, list[tuple[int, bytes, bytes]]] | None = None

        # the detail of the failure that halted the engine; not the exception,
        # whose traceback would hold the engine's own frames
        self.failure: str | None = None

    # ------------------------------------------------------------ enclaves
    def _phys_page(self, eid: int, vpage: int) -> int:
        phys = self.mapping_overrides.get((eid, vpage), self.home_page(eid, vpage))
        if self.layout.classify(page_base(phys)) is not Region.EEPC:
            raise CatastrophicFailure(
                f"secure virtual page {vpage} mapped outside the protected "
                f"region (physical page {phys})",
                page=phys,
            )
        return phys

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
    # slot i's plaintext is EPC page i, the 4 KiB at i * PAGE_SIZE, where the
    # counter tree checks and binds it
    def _check_slot(self, index: int, *, lane_at: int | None):
        """Re-check an EPC page's bytes against the counter tree."""
        self.stats.charge(dram=self.merkle.check(index), lane_at=lane_at)

    def _rebind_slot(self, index: int, *, lane_at: int | None):
        """Bind an EPC page's new bytes into the counter tree."""
        _, reads, writes = self.merkle.write_update(index)
        self.stats.charge(dram=reads + writes, lane_at=lane_at)

    # ------------------------------------------------------ lane scheduling
    def fault_step(self, entry: EshrEntry, until: int | None = None):
        """Advance a live entry's block moves as one lane charge (lane work).

        Moves the fewest blocks from `cursor` on that leave the lane free no
        earlier than `until`, at least one; with `until` None, or when the
        page ends first, every block left.  Evicting a block is read EPC +
        write eEPC and loading is the reverse, each with one decrypt and one
        re-encrypt; a block whose `ls_vector` bit is set is already loaded
        and pays only its eviction half.  The charge is the sum of the
        per-block charges and rises with the block count, so a binary search
        finds the count, and `ls_vector` and `cursor` stay exact.
        """
        cursor = entry.cursor
        left = BLOCKS_PER_PAGE - cursor
        if left <= 0:
            raise ValueError("entry is not live")
        load = self.stats.occupancy(dram=2, crypto=2)
        evict = load if entry.e_bit else 0
        loaded = entry.ls_vector >> cursor

        def cost(k: int) -> int:
            return k * evict + (k - (loaded & ((1 << k) - 1)).bit_count()) * load

        k = left
        if until is not None:
            need = until - max(self.stats.lane_free, entry.born_cycles)
            lo = 1
            while lo < k:  # the fewest blocks whose charge meets `need`
                mid = (lo + k) // 2
                if cost(mid) >= need:
                    k = mid
                else:
                    lo = mid + 1
        self.stats.lane_charge(entry.born_cycles, cost(k))
        entry.ls_vector |= ((1 << k) - 1) << cursor
        entry.cursor = cursor + k
        self.stats.events["fault_steps"] += k
        if entry.cursor == BLOCKS_PER_PAGE:
            self._complete_entry(entry)

    def _complete_entry(self, entry: EshrEntry):
        del self.eshr[entry.slot]  # the slot becomes eviction-eligible
        if entry.verify_payload is not None:
            self._submit_job(
                "verify", [entry.verify_payload], instructions=entry.born_instructions
            )

    def _submit_job(self, kind: str, items, *, instructions: int):
        if kind == "verify":
            # a pending update of the same region goes first
            self._club_flush(self.forest.region_of(items[0][0]))
        job = VerificationJob(
            kind=kind,
            items=tuple(items),
            enqueue_instructions=instructions,
            enqueue_cycles=self.stats.critical_cycles,
        )
        self.queue.append(job)
        events = self.stats.events
        events["verifier_jobs"] += 1
        events["verifier_max_depth"] = max(events["verifier_max_depth"], len(self.queue))
        limit = self.max_outstanding_jobs
        if limit is not None:
            while len(self.queue) > limit:
                self._retire_head()
                self.stats.stall_until_lane()

    def _retire_head(self):
        job = self.queue.popleft()
        before = self.dram.total_accesses()
        try:
            if job.kind == "verify":
                # a verification's forest accesses, top read included, are
                # its forest reads in the DRAM ledger
                events, forest_reads = self.stats.events, self.dram.reads
                for page, key, pt in job.items:
                    start = forest_reads["forest"]
                    self.forest.verify_page(page, page_mac(key, pt))
                    events["max_verify_forest_accesses"] = max(
                        events["max_verify_forest_accesses"],
                        forest_reads["forest"] - start,
                    )
            else:
                self.forest.update(
                    [(page, page_mac(key, pt)) for page, key, pt in job.items]
                )
        except CatastrophicFailure as cf:
            cf.speculative_instructions = (
                self.stats.instructions - job.enqueue_instructions
            )
            raise
        finally:
            self.stats.charge(
                dram=self.dram.total_accesses() - before,
                cycles=mvc_cycles_per_page(self.latency) * len(job.items),
                lane_at=job.enqueue_cycles,
            )

    def _lane_pull(self, until: int | None) -> bool:
        """One unit of background work: advance a demand entry, else the
        oldest entry, toward `until` (see fault_step); else retire a job."""
        entries = self.eshr.values()
        for entry in entries:
            if entry.demand:
                break
        else:
            entry = next(iter(entries), None)
        if entry is not None:
            self.fault_step(entry, until)
            return True
        if self.queue:
            self._retire_head()
            return True
        return False

    def _advance(self, icount: int):
        """Advance the clock, then let the lane catch up with it."""
        stats = self.stats
        stats.advance_instructions(icount - self.last_icount)  # Model._advance
        self.last_icount = icount
        # the lane has work only while an entry is live or a job is queued
        while (self.eshr or self.queue) and stats.lane_free < stats.critical_cycles:
            self._lane_pull(stats.critical_cycles)

    def _drain_all(self):
        self._club_flush()
        while self._lane_pull(None):
            pass
        self.stats.stall_until_lane()

    # ------------------------------------------------------------ clubbing
    def _club_push(self, page: int, key: bytes, pt: bytes, *, instructions: int):
        item = (page, key, pt)
        if not self.cfg.clubbing:
            self._submit_job("update", [item], instructions=instructions)
            return
        region = self.forest.region_of(page)
        if self._club is None:
            self._club = (region, [item])
        elif self._club[0] == region:
            items = self._club[1] + [item]
            self._club = None
            self.stats.events["clubbed_pairs"] += 1
            self._submit_job("update", items, instructions=instructions)
        else:
            old_items = self._club[1]
            self._club = (region, [item])
            self._submit_job("update", old_items, instructions=instructions)

    def _club_flush(self, region: int | None = None):
        if self._club is None:
            return
        if region is not None and self._club[0] != region:
            return
        old_items = self._club[1]
        self._club = None
        self._submit_job("update", old_items, instructions=self.stats.instructions)

    # -------------------------------------------------------------- faults
    def _stall_complete_oldest(self):
        self.fault_step(next(iter(self.eshr.values())))
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

    def _critical_restart(self, phys: int, block: int) -> tuple[bytes, bytes]:
        """Restart a read that misses: the wrapped key and the demanded block
        are the two critical DRAM reads, plus one block decrypt.  Returns
        what they read."""
        wrapped = self.dram.read(
            self.layout.key_table_slot(phys), KEY_SLOT_BYTES, "key_table"
        )
        data = self.dram.read(phys * PAGE_SIZE + block * BLOCK_SIZE, BLOCK_SIZE, "data")
        self.stats.charge(dram=2, crypto=1)
        self.stats.events["fault_critical_reads"] += 2
        return wrapped, data

    def _evict_slot(self, slot: EpcSlot):
        """Eagerly re-key, re-encrypt and write back a victim page."""
        # integrity gate before the page leaves hardware protection
        plaintext = self.dram.read_span(slot.index * PAGE_SIZE, PAGE_SIZE, "data")
        self._check_slot(slot.index, lane_at=0)

        key = compose_page_key(self.hw_key, slot.eid, self.freshness.draw(), slot.home)
        self.dram.write(
            self.layout.key_table_slot(slot.home), wrap_key(self.ssk, key), "key_table"
        )
        ciphertext = ecb_encrypt_page(key, plaintext)
        self.dram.write_span(slot.home * PAGE_SIZE, ciphertext, "data")
        self.eepc_initialized.add(slot.home)
        self._club_push(slot.home, key, plaintext, instructions=self.stats.instructions)
        del self.resident[(slot.eid, slot.vpage)]
        del self.inverted[slot.home]
        self.stats.events["evictions"] += 1

    def _start_fault(
        self, eid: int, vpage: int, phys: int, *,
        demand_block: int | None, pending_write: tuple[int, bytes] | None = None,
    ) -> EpcSlot:
        if phys in self.inverted:
            raise CatastrophicFailure(
                f"physical page {phys} already mapped by another enclave "
                "(inverted-table collision)",
                page=phys,
            )
        while len(self.eshr) >= self.cfg.eshr_entries:
            self._stall_complete_oldest()
        slot = self._claim_slot()
        e_bit = slot.occupied
        if e_bit:
            self._evict_slot(slot)

        is_read = demand_block is not None
        base = phys * PAGE_SIZE
        if is_read:
            wrapped, ciphertext = self._critical_restart(phys, demand_block)
            # the other 63 blocks stream in the background
            if demand_block > 0:
                head = self.dram.read_span(base, demand_block * BLOCK_SIZE, "data")
                ciphertext = head + ciphertext
            if demand_block < BLOCKS_PER_PAGE - 1:
                after = (demand_block + 1) * BLOCK_SIZE
                ciphertext += self.dram.read_span(base + after, PAGE_SIZE - after, "data")
        else:
            wrapped = self.dram.read(
                self.layout.key_table_slot(phys), KEY_SLOT_BYTES, "key_table"
            )
            ciphertext = self.dram.read_span(base, PAGE_SIZE, "data")

        if phys in self.eepc_initialized:
            key = unwrap_key(self.ssk, wrapped, self.hw_key, eid, phys)
            plaintext = ecb_decrypt_page(key, ciphertext)
            payload = (phys, key, plaintext)
        else:
            plaintext = ZERO_PAGE  # first touch: fresh zero page
            payload = None
            self.stats.events["first_touch_loads"] += 1

        if pending_write is not None:
            offset, value = pending_write
            plaintext = bytearray(plaintext)
            plaintext[offset : offset + len(value)] = value

        slot.eid, slot.vpage, slot.home = eid, vpage, phys
        self._touch(slot)
        self.resident[(eid, vpage)] = slot.index
        self.inverted[phys] = slot.index
        self.dram.write_span(slot.index * PAGE_SIZE, plaintext, "data")
        self._rebind_slot(slot.index, lane_at=0)

        entry = EshrEntry(
            slot=slot.index,
            e_bit=e_bit,
            demand=is_read,
            born_instructions=self.stats.instructions,
            born_cycles=self.stats.critical_cycles,
            verify_payload=payload,
        )
        if is_read:
            entry.ls_vector |= 1 << demand_block
        self.eshr[slot.index] = entry
        return slot

    # -------------------------------------------------------------- access
    def access(self, eid: int, vaddr: int, op: str, icount: int) -> bytes:
        """`Model.access`; a catastrophic failure halts the engine."""
        if self.failure is not None:
            raise RuntimeError("engine halted by catastrophic failure")
        try:
            return Model.access(self, eid, vaddr, op, icount)
        except CatastrophicFailure as cf:
            self.failure = cf.detail
            self.stats.events["catastrophic_failures"] += 1
            raise

    def _secure_access(self, eid, vaddr, op, icount):
        vpage = vaddr // PAGE_SIZE
        offset = vaddr % PAGE_SIZE & ~7
        block = offset // BLOCK_SIZE
        value = write_value(eid, vaddr, icount) if op == "W" else None
        slot_idx = self.resident.get((eid, vpage))

        if slot_idx is None:
            phys = self._phys_page(eid, vpage)
            slot = self._start_fault(
                eid, vpage, phys,
                demand_block=block if op == "R" else None,
                pending_write=(offset, value) if op == "W" else None,
            )
            if op == "R":
                self.stats.events["read_faults"] += 1
                value = self.dram.peek(slot.index * PAGE_SIZE + offset, 8)
            else:
                self.stats.events["write_faults"] += 1
        else:
            entry = self.eshr.get(slot_idx)
            self.slots.move_to_end(slot_idx)  # _touch
            addr = slot_idx * PAGE_SIZE + offset
            if op == "W":
                # resident write: store the value, then bind the page as it
                # now lies into the counter tree
                stats = self.stats
                stats.events["epc_hits" if entry is None else "queued_writes"] += 1
                self.dram.write(addr, value, "data")
                _, reads, writes = self.merkle.write_update(slot_idx)
                if entry is None:  # resident, the tree work waits with the write
                    stats.charge(dram=1 + reads + writes, crypto=1)
                else:  # in flight, it rides the lane
                    stats.charge(dram=reads + writes, lane_at=0)
            elif entry is not None and not (entry.ls_vector >> block) & 1:
                # page in flight, demanded block not yet landed: restart costs
                # the same two reads as a fresh miss
                self._critical_restart(self.slots[slot_idx].home, block)
                entry.ls_vector |= 1 << block
                entry.demand = True
                self.stats.events["refaults"] += 1
                value = self.dram.peek(addr, 8)
            else:
                self.stats.events["epc_hits"] += 1
                data = self.dram.read(addr & ~(BLOCK_SIZE - 1), BLOCK_SIZE, "data")
                self.stats.charge(dram=1, crypto=1)
                self._check_slot(slot_idx, lane_at=None)
                word = offset % BLOCK_SIZE
                value = data[word : word + 8]

        if not self.cfg.deferred:
            self._drain_all()
        return value

    # ------------------------------------------------------------- scratch
    def _scratch_access(self, eid, vaddr, op, icount):
        if op == "W":
            # externally visible write: barrier, pay the exit, then store
            self.syscall_barrier()
            self.stats.charge(cycles=self.latency.enclave_enter_exit)
        return super()._scratch_access(eid, vaddr, op, icount)

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
            self.failure = cf.detail
            self.stats.events["catastrophic_failures"] += 1
            raise

    # -------------------------------------------------------------- state
    def final_pages(self, eid: int) -> Iterator[tuple[int, bytes]]:
        """Logical plaintext of an enclave's pages (oracle extraction): the
        EPC copy of a resident page, else its eEPC page decrypted, or
        `ZERO_PAGE` when that eEPC page was never written."""
        enc = self.enclaves[eid]
        for vpage in range(enc.n_pages):
            slot_idx = self.resident.get((eid, vpage))
            if slot_idx is not None:
                yield vpage, self.dram.peek(slot_idx * PAGE_SIZE, PAGE_SIZE)
                continue
            phys = self.mapping_overrides.get((eid, vpage), enc.base_page + vpage)
            if phys not in self.eepc_initialized:
                yield vpage, ZERO_PAGE
                continue
            wrapped = self.dram.peek(self.layout.key_table_slot(phys), KEY_SLOT_BYTES)
            key = unwrap_key(self.ssk, wrapped, self.hw_key, eid, phys)
            yield vpage, ecb_decrypt_page(key, self.dram.peek(phys * PAGE_SIZE, PAGE_SIZE))
