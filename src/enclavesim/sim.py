"""Trace-driven runs: comparison models, reports, model-vs-model harness.

Five memory-protection designs consume identical traces:

  secscale    the overlapped engine from epc.py: two critical reads per page
              fault, deferred forest verification, clubbed MAC updates
  sgx-client  page-granular EPC with a counter tree over resident pages and
              a software paging path: a flat kernel penalty per fault plus
              synchronous copy and crypto of the whole page, both directions
  dfp         sgx-client plus a fault-time prefetcher that pulls one
              predicted page per fault into the next-victim slot; a correct
              prediction turns a future fault into a hit
  penglai     no EPC at all; every access walks a mount-table path, with a
              small root cache that absorbs the walk for hot regions
  baseline    unprotected DRAM, one access per reference

The comparison models are performance models: they charge what their design
costs but store plaintext bytes, so every model's final state must equal
the unprotected reference — which is the cross-model correctness oracle.
Only the secscale engine materializes real ciphertext and MAC bytes, and
only it is the subject of the attack suite.

Reports carry a fixed column order so CSV output from different runs always
lines up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import random
from collections import OrderedDict
from dataclasses import dataclass, field

from .crypto import FRESHNESS_MODES
from .epc import (
    SCRATCH_VBASE,
    SecScaleEngine,
    make_layout,
    scratch_page,
    write_value,
)
from .layout import BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SIZE, EmulatedDram
from .merkle import EpcMerkle, carve_slots
from .timing import DRAM_CAUSES, CycleStats, LatencyConfig, MeteredDram
from .verifier import CatastrophicFailure
from .workload import TraceRecord

logger = logging.getLogger(__name__)

MODELS = ("secscale", "sgx-client", "dfp", "penglai", "baseline")


@dataclass(frozen=True)
class SimConfig:
    """The settings of one model run; every model is built from one.

    ``dfp_lookahead`` and ``dfp_accuracy`` set dfp's prefetcher, which is an
    oracle: on each fault it reads the next ``dfp_lookahead`` trace records
    and guesses the next faulting page right with probability
    ``dfp_accuracy``.  dfp's numbers are therefore an upper bound for a real
    history predictor.
    """

    model: str = "secscale"
    total_size: int = 64 << 20
    epc_size: int = 1 << 20
    seed: int = 0
    deferred: bool = True
    clubbing: bool = True
    top_cache: bool = True
    eshr_entries: int = 32
    freshness_mode: str = "prng"
    dfp_accuracy: float = 0.5
    dfp_lookahead: int = 256
    latency: LatencyConfig = field(default_factory=LatencyConfig)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.epc_size >= self.total_size:
            raise ValueError("epc_size must be smaller than total_size")
        if self.eshr_entries <= 0:
            raise ValueError("eshr_entries must be positive")
        if self.freshness_mode not in FRESHNESS_MODES:
            raise ValueError(
                f"freshness_mode must be one of {FRESHNESS_MODES}, "
                f"got {self.freshness_mode!r}"
            )
        if not 0.0 <= self.dfp_accuracy <= 1.0:
            raise ValueError("dfp_accuracy must be within [0, 1]")
        if self.dfp_lookahead <= 0:
            raise ValueError("dfp_lookahead must be positive")


# --------------------------------------------------------------------------
# Comparison models
# --------------------------------------------------------------------------
class _PlainModel:
    """What the plaintext comparison models share.

    Emulated memory behind a metered port, one cycle account, enclaves
    mapped to consecutive home pages in the eEPC, and unprotected DRAM
    accesses for the pages that bypass protection.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.layout = make_layout(cfg.total_size, cfg.epc_size)
        self.stats = CycleStats(cfg.latency)
        self.dram = EmulatedDram(self.layout)
        self.port = MeteredDram(self.dram, self.stats)
        self.enclaves: dict[int, tuple[int, int]] = {}  # eid -> (home page, pages)
        self._next_page = self.layout.eepc_base // PAGE_SIZE
        self.last_icount = 0

    def register_enclave(self, eid: int, n_pages: int):
        self.enclaves[eid] = (self._next_page, n_pages)
        self._next_page += n_pages

    def _advance(self, icount: int):
        self.stats.advance_instructions(icount - self.last_icount)
        self.last_icount = icount

    def _dram_access(self, addr: int, eid: int, vaddr: int, op: str, icount: int):
        """One unprotected 8-byte access at physical address `addr`."""
        if op == "R":
            block = addr & ~(BLOCK_SIZE - 1)
            data = self.port.read(block, BLOCK_SIZE, cause="data")
            self.stats.charge_critical(self.cfg.latency.dram_access_cycles)
            off = (addr - block) & ~7
            return data[off : off + 8]
        value = write_value(eid, vaddr, icount)
        self.port.write(addr & ~7, value, cause="data")
        self.stats.charge_critical(self.cfg.latency.dram_access_cycles)
        return value

    def finalize(self):
        pass

    def final_state(self, eid: int) -> dict[int, bytes]:
        base, n_pages = self.enclaves[eid]
        return {
            v: self.dram.peek((base + v) * PAGE_SIZE, PAGE_SIZE)
            for v in range(n_pages)
        }


class BaselineModel(_PlainModel):
    """Unprotected memory: one DRAM access per reference."""

    def access(self, eid: int, vaddr: int, op: str, icount: int):
        self._advance(icount)
        vpage = vaddr // PAGE_SIZE
        if vpage >= SCRATCH_VBASE:
            phys = scratch_page(self.layout, vpage)
        else:
            phys = self.enclaves[eid][0] + vpage
        return self._dram_access(
            phys * PAGE_SIZE + vaddr % PAGE_SIZE, eid, vaddr, op, icount
        )


class PenglaiModel(BaselineModel):
    """Mount-table walk per access with a small LRU cache of region roots.

    The mount-table nodes themselves are charges, not bytes: walk traffic is
    reported under walk_reads events rather than the DRAM cause counters,
    which only ever count real byte movement.
    """

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self._roots: OrderedDict[int, bool] = OrderedDict()

    def _walk(self, eid: int, vpage: int):
        lat = self.cfg.latency
        region = (eid, vpage // lat.penglai_region_pages)
        if region in self._roots:
            self._roots.move_to_end(region)
            self.stats.events["root_cache_hits"] += 1
        else:
            self._roots[region] = True
            if len(self._roots) > lat.penglai_root_cache_entries:
                self._roots.popitem(last=False)
            self.stats.events["root_cache_misses"] += 1
            self.stats.charge_critical(lat.penglai_mount_cycles)
            self.stats.events["mounts"] += 1
        self.stats.events["walk_reads"] += lat.penglai_walk_accesses
        self.stats.charge_critical(
            lat.penglai_walk_accesses * lat.dram_access_cycles
        )

    def access(self, eid: int, vaddr: int, op: str, icount: int):
        if vaddr // PAGE_SIZE < SCRATCH_VBASE:
            self._advance(icount)  # leaves super()._advance a no-op
            self._walk(eid, vaddr // PAGE_SIZE)
        return super().access(eid, vaddr, op, icount)


class SgxClientModel(_PlainModel):
    """EPC cache with a counter tree and a synchronous software paging path.

    Every fault exits to a kernel handler (flat penalty), which copies and
    re-encrypts the whole page in both directions on the critical path.
    """

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.n_slots = carve_slots(self.layout.epc_pages, 0)
        self.merkle = EpcMerkle(
            self.port,
            base_addr=self.n_slots * PAGE_SIZE,
            n_pages=self.n_slots,
            ssk_bytes=hashlib.sha256(b"sgx" + cfg.seed.to_bytes(8, "big")).digest(),
        )
        self.resident: dict[tuple[int, int], int] = {}
        self.slot_owner: list[tuple[int, int] | None] = [None] * self.n_slots
        self.free = list(range(self.n_slots - 1, -1, -1))
        # touched occupied slots, least recently touched first
        self._lru: OrderedDict[int, None] = OrderedDict()

    def _touch(self, slot: int):
        self._lru[slot] = None
        self._lru.move_to_end(slot)

    def _victim(self) -> int:
        return next(iter(self._lru))

    def _copy_page(self, src: int, dst: int, *, critical: bool):
        """Software page copy: per-block read+write, plus crypto charges."""
        lat = self.cfg.latency
        data = self.port.read_span(src, PAGE_SIZE, cause="data")
        self.port.write_span(dst, data, cause="data")
        if critical:
            self.stats.charge_critical(
                2 * BLOCKS_PER_PAGE * lat.dram_access_cycles
            )
            self.stats.critical_crypto("ecb", BLOCKS_PER_PAGE)
        else:
            self.stats.lane_charge(
                0,
                2 * BLOCKS_PER_PAGE * lat.dram_occupancy_cycles
                + BLOCKS_PER_PAGE * lat.crypto_occupancy_cycles,
            )
            self.stats.count_crypto("ecb", BLOCKS_PER_PAGE)

    def _evict(self, slot: int):
        eid, vpage = self.slot_owner[slot]
        home = self.enclaves[eid][0] + vpage
        self._copy_page(slot * PAGE_SIZE, home * PAGE_SIZE, critical=True)
        res = self.merkle.read_verify(slot)
        self.stats.charge_critical(
            self.cfg.latency.dram_access_cycles * res.dram_reads
        )
        del self.resident[(eid, vpage)]
        self.slot_owner[slot] = None
        self._lru.pop(slot, None)
        self.stats.events["evictions"] += 1

    def _insert(self, eid: int, vpage: int, *, cold: bool = False) -> int:
        if self.free:
            slot = self.free.pop()
        else:
            slot = self._victim()
            self._evict(slot)
        home = self.enclaves[eid][0] + vpage
        self._copy_page(home * PAGE_SIZE, slot * PAGE_SIZE, critical=not cold)
        res = self.merkle.write_update(
            slot, self.dram.peek(slot * PAGE_SIZE, PAGE_SIZE)
        )
        lat = self.cfg.latency
        accesses = res.dram_reads + res.dram_writes
        if cold:
            # background tree work costs occupancy per access, as in epc.py;
            # at the 100/10 access/occupancy cycles of every preset this is
            # the same charge as a tenth of the critical-path cost
            self.stats.lane_charge(0, lat.dram_occupancy_cycles * accesses)
        else:
            self.stats.charge_critical(lat.dram_access_cycles * accesses)
        self.resident[(eid, vpage)] = slot
        self.slot_owner[slot] = (eid, vpage)
        if not cold:
            self._touch(slot)
        return slot

    def _fault(self, eid: int, vpage: int, op: str) -> int:
        lat = self.cfg.latency
        self.stats.charge_critical(lat.sgx_fault_penalty)
        self.stats.events["read_faults" if op == "R" else "write_faults"] += 1
        return self._insert(eid, vpage)

    def access(self, eid: int, vaddr: int, op: str, icount: int):
        self._advance(icount)
        lat = self.cfg.latency
        vpage, off = vaddr // PAGE_SIZE, vaddr % PAGE_SIZE
        if vpage >= SCRATCH_VBASE:
            addr = scratch_page(self.layout, vpage) * PAGE_SIZE + off
            return self._dram_access(addr, eid, vaddr, op, icount)

        slot = self.resident.get((eid, vpage))
        if slot is None:
            slot = self._fault(eid, vpage, op)
        else:
            self.stats.events["epc_hits"] += 1
        self._touch(slot)
        base = slot * PAGE_SIZE
        if op == "R":
            block = base + (off & ~(BLOCK_SIZE - 1))
            self.port.read(block, BLOCK_SIZE, cause="data")
            self.stats.charge_critical(lat.dram_access_cycles)
            self.stats.critical_crypto("ctr", 1)
            res = self.merkle.read_verify(slot)
            self.stats.charge_critical(lat.dram_access_cycles * res.dram_reads)
            return self.dram.peek(base + (off & ~7), 8)
        value = write_value(eid, vaddr, icount)
        self.port.write(base + (off & ~7), value, cause="data")
        self.stats.charge_critical(lat.dram_access_cycles)
        self.stats.critical_crypto("ctr", 1)
        res = self.merkle.write_update(slot, self.dram.peek(base, PAGE_SIZE))
        self.stats.charge_critical(
            lat.dram_access_cycles * (res.dram_reads + res.dram_writes)
        )
        return value

    def final_state(self, eid: int) -> dict[int, bytes]:
        base, n_pages = self.enclaves[eid]
        out = {}
        for v in range(n_pages):
            slot = self.resident.get((eid, v))
            src = slot * PAGE_SIZE if slot is not None else (base + v) * PAGE_SIZE
            out[v] = self.dram.peek(src, PAGE_SIZE)
        return out


class DfpModel(SgxClientModel):
    """sgx-client plus a next-fault prefetcher.

    The predictor is an oracle.  On every fault a coin with probability
    ``dfp_accuracy`` decides whether it guesses right, taking the first
    non-resident page among the next ``dfp_lookahead`` trace records, or
    picks a random page of the enclave.  A real history predictor cannot
    see the future trace, so dfp's numbers are an upper bound for one.  The
    prefetched page loads off the critical path into the next-victim slot,
    so only a subsequent touch saves anything.
    """

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.rng = random.Random(0xDF9 ^ cfg.seed)
        self._future: list[tuple[int, int]] = []  # (eid, vpage) per access
        self._pos = 0
        # slots prefetched and not yet touched, lowest index first: they go
        # before every touched slot
        self._prefetched: OrderedDict[int, None] = OrderedDict()

    def set_trace(self, records: list[TraceRecord]):
        self._future = [(r.enclave_id, r.vaddr // PAGE_SIZE) for r in records]
        self._pos = 0

    def access(self, eid: int, vaddr: int, op: str, icount: int):
        slot = self.resident.get((eid, vaddr // PAGE_SIZE))
        if slot in self._prefetched:
            del self._prefetched[slot]
            self.stats.events["prefetch_hits"] += 1
        out = super().access(eid, vaddr, op, icount)
        self._pos += 1
        return out

    def _predict(self, faulting: tuple[int, int]) -> tuple[int, int] | None:
        horizon = self._future[self._pos : self._pos + self.cfg.dfp_lookahead]
        if self.rng.random() < self.cfg.dfp_accuracy:
            for cand in horizon:
                if (
                    cand != faulting
                    and cand[1] < SCRATCH_VBASE
                    and cand not in self.resident
                ):
                    return cand
            return None
        n_pages = self.enclaves[faulting[0]][1]
        return faulting[0], self.rng.randrange(n_pages)

    def _fault(self, eid: int, vpage: int, op: str) -> int:
        slot = super()._fault(eid, vpage, op)
        pred = self._predict((eid, vpage))
        if pred is not None and pred not in self.resident:
            self._insert(pred[0], pred[1], cold=True)
            self.stats.events["prefetches"] += 1
        return slot

    def _insert(self, eid: int, vpage: int, *, cold: bool = False) -> int:
        slot = super()._insert(eid, vpage, cold=cold)
        if cold:
            # a free slot lies above every used one; a victim slot was the
            # lowest prefetched one, or no prefetched slot was left
            self._prefetched[slot] = None
            if slot < next(iter(self._prefetched)):
                self._prefetched.move_to_end(slot, last=False)
        return slot

    def _victim(self) -> int:
        return next(iter(self._prefetched or self._lru))

    def _evict(self, slot: int):
        if slot in self._prefetched:
            del self._prefetched[slot]
            self.stats.events["wasted_prefetches"] += 1
        super()._evict(slot)


MODEL_CLASSES = {
    "secscale": SecScaleEngine,
    "sgx-client": SgxClientModel,
    "dfp": DfpModel,
    "penglai": PenglaiModel,
    "baseline": BaselineModel,
}


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------
@dataclass(kw_only=True)
class Report:
    """One run's summary; the field order is the column order of every row.

    `dram` becomes one `dram_<cause>` column per DRAM cause; `events` is the
    raw event counter and has no column.
    """

    model: str
    seed: int
    accesses: int
    instructions: int
    total_cycles: int
    critical_cycles: int
    lane_busy_cycles: int
    stall_cycles: int
    slowdown: float | None = None  # total cycles over the baseline's
    dram: dict[str, int]
    dram_total: int
    read_faults: int
    write_faults: int
    refaults: int
    evictions: int
    evictions_per_kilo_instructions: float
    epc_miss_frac: float
    clubbed_pairs: int
    club_frac: float
    top_cache_hit_rate: float | None
    max_verify_forest_accesses: int
    verifier_jobs: int
    verifier_max_depth: int
    eshr_stalls: int
    barriers: int
    events: dict[str, int]
    security_failure: str | None = None
    speculative_instructions: int | None = None
    final_state_digest: str = ""

    def to_dict(self) -> dict:
        dram = {f"dram_{c}": self.dram.get(c, 0) for c in DRAM_CAUSES}
        return {c: dram[c] if c in dram else getattr(self, c) for c in REPORT_COLUMNS}

    def to_json(self) -> str:
        d = self.to_dict()
        d["events"] = dict(sorted(self.events.items()))
        return json.dumps(d, indent=2, sort_keys=False)

    def csv_row(self) -> list:
        return list(self.to_dict().values())


REPORT_COLUMNS = tuple(
    column
    for f in dataclasses.fields(Report)
    if f.name != "events"
    for column in (
        [f"dram_{c}" for c in DRAM_CAUSES] if f.name == "dram" else [f.name]
    )
)


def state_digest(states: dict[int, dict[int, bytes]]) -> str:
    """Order-independent digest of {eid: {vpage: page bytes}}."""
    h = hashlib.sha256()
    for eid in sorted(states):
        for vpage in sorted(states[eid]):
            h.update(eid.to_bytes(8, "big"))
            h.update(vpage.to_bytes(8, "big"))
            h.update(states[eid][vpage])
    return h.hexdigest()


def enclave_footprints(records: list[TraceRecord]) -> dict[int, int]:
    """Pages each enclave needs: one past its highest non-scratch page."""
    needs: dict[int, int] = {}
    for r in records:
        vpage = r.vaddr // PAGE_SIZE
        if vpage >= SCRATCH_VBASE:
            needs.setdefault(r.enclave_id, 0)
            continue
        needs[r.enclave_id] = max(needs.get(r.enclave_id, 0), vpage + 1)
    return needs


def run(cfg: SimConfig, records: list[TraceRecord]) -> Report:
    """Execute one trace on one model and summarize it."""
    model = MODEL_CLASSES[cfg.model](cfg)
    for eid, n_pages in sorted(enclave_footprints(records).items()):
        model.register_enclave(eid, max(n_pages, 1))
    if isinstance(model, DfpModel):
        model.set_trace(records)

    failure: CatastrophicFailure | None = None
    done = 0
    for rec in records:
        try:
            model.access(rec.enclave_id, rec.vaddr, rec.op, rec.icount)
        except CatastrophicFailure as cf:
            failure = cf
            break
        done += 1
    if failure is None:
        try:
            model.finalize()
        except CatastrophicFailure as cf:
            failure = cf

    states = {}
    if failure is None:
        states = {
            eid: model.final_state(eid)
            for eid in sorted(enclave_footprints(records))
        }

    s = model.stats
    ev = s.events
    faults = ev["read_faults"] + ev["write_faults"]
    evictions = ev["evictions"]
    hit_rate = None
    if cfg.model == "secscale":
        f = model.forest
        seen = f.top_cache_hits + f.top_cache_misses
        hit_rate = f.top_cache_hits / seen if seen else None
    report = Report(
        model=cfg.model,
        seed=cfg.seed,
        accesses=done,
        instructions=s.instructions,
        total_cycles=s.total_cycles,
        critical_cycles=s.critical_cycles,
        lane_busy_cycles=s.lane_busy_cycles,
        stall_cycles=s.stall_cycles,
        dram=dict(s.dram_by_cause()),
        dram_total=s.dram_total,
        read_faults=ev["read_faults"],
        write_faults=ev["write_faults"],
        refaults=ev["refaults"],
        evictions=evictions,
        evictions_per_kilo_instructions=(
            1000 * evictions / s.instructions if s.instructions else 0.0
        ),
        epc_miss_frac=faults / done if done else 0.0,
        clubbed_pairs=ev["clubbed_pairs"],
        club_frac=2 * ev["clubbed_pairs"] / evictions if evictions else 0.0,
        top_cache_hit_rate=hit_rate,
        max_verify_forest_accesses=ev["max_verify_forest_accesses"],
        verifier_jobs=model.queue.jobs_submitted if cfg.model == "secscale" else 0,
        verifier_max_depth=model.queue.max_depth if cfg.model == "secscale" else 0,
        eshr_stalls=ev["eshr_stalls"],
        barriers=ev["barriers"],
        events=dict(sorted(ev.items())),
        security_failure=failure.detail if failure else None,
        speculative_instructions=(
            failure.speculative_instructions if failure else None
        ),
        final_state_digest=state_digest(states) if states else "",
    )
    return report


class StateMismatch(RuntimeError):
    """Completed models disagree on final memory: some model is wrong."""


def compare(
    cfg: SimConfig, records: list[TraceRecord], models: tuple[str, ...] = MODELS
) -> dict[str, Report]:
    """Run the same trace through several models; slowdowns vs baseline.

    Every model that completes must end in the same memory state, or
    StateMismatch is raised.
    """
    reports = {}
    for name in models:
        reports[name] = run(dataclasses.replace(cfg, model=name), records)
    digests = {
        name: r.final_state_digest for name, r in reports.items() if r.final_state_digest
    }
    if len(set(digests.values())) > 1:
        raise StateMismatch(f"models disagree on final memory state: {digests}")
    base = reports.get("baseline")
    if base is not None and base.total_cycles:
        for rep in reports.values():
            rep.slowdown = rep.total_cycles / base.total_cycles
    return reports
