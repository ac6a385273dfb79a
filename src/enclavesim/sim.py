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

Every model is an `epc.Model`: the base holds memory, clock and enclave map
and owns the one checked `access`, and each design overrides what it does
differently, mostly `_secure_access`.

The comparison models are performance models: they charge what their design
costs but store plaintext bytes, so every model's final state must equal
the unprotected reference — which is the cross-model correctness oracle.
The counter trees of sgx-client and dfp are the secscale engine's
`EpcMerkle` and hold real counter and MAC bytes, but only the secscale
engine materializes real ciphertext, and only it is the subject of the
attack suite.

Reports carry a fixed column order so CSV output from different runs always
lines up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .crypto import FRESHNESS_MODES
from .epc import Model, SecScaleEngine, write_value
from .layout import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    DRAM_CAUSES,
    PAGE_SIZE,
    SCRATCH_VBASE,
    check_size,
)
from .merkle import EpcMerkle, carve_slots
from .timing import LatencyConfig
from .verifier import CatastrophicFailure
from .workload import Trace, TraceRecord

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
    seed: int = 0  # a 64-bit unsigned value: models hash its 8 bytes
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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be within [0, 2**64), got {self.seed}")
        check_size("total_size", self.total_size)
        check_size("epc_size", self.epc_size)
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
class BaselineModel(Model):
    """Unprotected memory: one DRAM access per reference."""


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
            self.stats.charge(cycles=lat.penglai_mount_cycles)
            self.stats.events["mounts"] += 1
        self.stats.events["walk_reads"] += lat.penglai_walk_accesses
        self.stats.charge(dram=lat.penglai_walk_accesses)

    def _secure_access(self, eid: int, vaddr: int, op: str, icount: int):
        self._walk(eid, vaddr // PAGE_SIZE)
        return super()._secure_access(eid, vaddr, op, icount)


class SgxClientModel(Model):
    """EPC cache with a counter tree and a synchronous software paging path.

    Every fault exits to a kernel handler (flat penalty), which copies and
    re-encrypts the whole page in both directions on the critical path.
    """

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.n_slots = carve_slots(self.layout.epc_pages, 0)
        self.merkle = EpcMerkle(
            self.dram,
            base_addr=self.n_slots * PAGE_SIZE,
            n_pages=self.n_slots,
            ssk_bytes=hashlib.sha256(b"sgx" + cfg.seed.to_bytes(8, "big")).digest(),
            events=self.stats.events,
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

    def _copy_page(self, src: int, dst: int, *, lane_at: int | None):
        """Software page copy: a read and a write per block, each block
        re-encrypted once."""
        data = self.dram.read_span(src, PAGE_SIZE, "data")
        self.dram.write_span(dst, data, "data")
        self.stats.charge(
            dram=2 * BLOCKS_PER_PAGE, crypto=BLOCKS_PER_PAGE, lane_at=lane_at
        )

    def _evict(self, slot: int):
        eid, vpage = self.slot_owner[slot]
        home = self.home_page(eid, vpage)
        self._copy_page(slot * PAGE_SIZE, home * PAGE_SIZE, lane_at=None)
        _, _, reads = self.merkle.read_verify(slot)
        self.stats.charge(dram=reads)
        del self.resident[(eid, vpage)]
        self.slot_owner[slot] = None
        self._lru.pop(slot, None)
        self.stats.events["evictions"] += 1

    def _insert(self, eid: int, vpage: int, *, cold: bool = False) -> int:
        home = self.home_page(eid, vpage)  # a bad page raises before eviction
        if self.free:
            slot = self.free.pop()
        else:
            slot = self._victim()
            self._evict(slot)
        lane_at = 0 if cold else None  # a prefetch loads in the background
        self._copy_page(home * PAGE_SIZE, slot * PAGE_SIZE, lane_at=lane_at)
        _, reads, writes = self.merkle.write_update(slot)
        self.stats.charge(dram=reads + writes, lane_at=lane_at)
        self.resident[(eid, vpage)] = slot
        self.slot_owner[slot] = (eid, vpage)
        if not cold:
            self._touch(slot)
        return slot

    def _fault(self, eid: int, vpage: int, op: str) -> int:
        self.stats.charge(cycles=self.cfg.latency.sgx_fault_penalty)
        self.stats.events["read_faults" if op == "R" else "write_faults"] += 1
        return self._insert(eid, vpage)

    def _secure_access(self, eid: int, vaddr: int, op: str, icount: int):
        vpage, off = vaddr // PAGE_SIZE, vaddr % PAGE_SIZE
        slot = self.resident.get((eid, vpage))
        if slot is None:
            slot = self._fault(eid, vpage, op)
        else:
            self.stats.events["epc_hits"] += 1
        self._touch(slot)
        base = slot * PAGE_SIZE
        if op == "R":
            data = self.dram.read(base + (off & ~(BLOCK_SIZE - 1)), BLOCK_SIZE, "data")
            _, _, reads = self.merkle.read_verify(slot)
            self.stats.charge(dram=1 + reads, crypto=1)
            word = off % BLOCK_SIZE & ~7
            return data[word : word + 8]
        value = write_value(eid, vaddr, icount)
        self.dram.write(base + (off & ~7), value, "data")
        _, reads, writes = self.merkle.write_update(slot)
        self.stats.charge(dram=1 + reads + writes, crypto=1)
        return value

    def final_pages(self, eid: int) -> Iterator[tuple[int, bytes]]:
        for v in range(self.enclaves[eid].n_pages):
            slot = self.resident.get((eid, v))
            page = self.home_page(eid, v) if slot is None else slot
            yield v, self.dram.peek(page * PAGE_SIZE, PAGE_SIZE)


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
        self._trace = Trace.from_records(())
        self._pos = 0  # the trace index of the access in progress
        # slots prefetched and not yet touched, lowest index first: they go
        # before every touched slot
        self._prefetched: OrderedDict[int, None] = OrderedDict()

    def set_trace(self, trace: Trace):
        self._trace = trace
        self._pos = 0

    def access(self, eid: int, vaddr: int, op: str, icount: int) -> bytes:
        out = super().access(eid, vaddr, op, icount)
        self._pos += 1
        return out

    def _secure_access(self, eid: int, vaddr: int, op: str, icount: int):
        slot = self.resident.get((eid, vaddr // PAGE_SIZE))
        if slot in self._prefetched:
            del self._prefetched[slot]
            self.stats.events["prefetch_hits"] += 1
        return super()._secure_access(eid, vaddr, op, icount)

    def _predict(self, faulting: tuple[int, int]) -> tuple[int, int] | None:
        if self.rng.random() < self.cfg.dfp_accuracy:
            trace, pos = self._trace, self._pos
            end = pos + self.cfg.dfp_lookahead
            horizon = zip(trace.enclave_ids[pos:end], trace.vaddrs[pos:end])
            for eid, vaddr in horizon:
                cand = (eid, vaddr // PAGE_SIZE)
                if (
                    cand != faulting
                    and cand[1] < SCRATCH_VBASE
                    and cand not in self.resident
                ):
                    return cand
            return None
        n_pages = self.enclaves[faulting[0]].n_pages
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


def state_digest(
    states: Mapping[int, Mapping[int, bytes] | Iterable[tuple[int, bytes]]],
) -> str:
    """SHA-256 over every enclave's final pages, as a hex string.

    `states` maps an enclave id to its pages: a {vpage: page bytes} dict, or
    (vpage, page bytes) pairs in ascending vpage order as `Model.final_pages`
    yields them.  Pairs are hashed as they arrive, so a run's digest holds
    one page at a time.  Enclaves go in ascending id order and pages in
    ascending vpage order, each as its 8-byte big-endian enclave id, its
    8-byte big-endian vpage, then its bytes.
    """
    h = hashlib.sha256()
    for eid in sorted(states):
        pages = states[eid]
        for vpage, page in sorted(pages.items()) if isinstance(pages, Mapping) else pages:
            h.update(eid.to_bytes(8, "big"))
            h.update(vpage.to_bytes(8, "big"))
            h.update(page)
    return h.hexdigest()


def run(cfg: SimConfig, trace: Trace | Iterable[TraceRecord]) -> Report:
    """Execute one trace on one model and summarize it.

    Rows that are not a Trace become one here, so nothing below sees them.
    """
    if not isinstance(trace, Trace):
        trace = Trace.from_records(trace)
    model = MODEL_CLASSES[cfg.model](cfg)
    footprints = trace.footprints
    for eid, n_pages in sorted(footprints.items()):
        model.register_enclave(eid, max(n_pages, 1))
    if isinstance(model, DfpModel):
        model.set_trace(trace)

    # the failure's fields, not the exception: its traceback holds this
    # frame, and so the model, until a garbage collection
    failure = speculative = None
    done = 0
    access = model.access
    columns = zip(trace.enclave_ids, trace.vaddrs, trace.ops, trace.icounts)
    try:
        for eid, vaddr, op, icount in columns:
            access(eid, vaddr, op, icount)
            done += 1
        model.finalize()
    except CatastrophicFailure as cf:
        failure, speculative = cf.detail, cf.speculative_instructions

    digest = ""
    if failure is None and footprints:
        digest = state_digest({eid: model.final_pages(eid) for eid in footprints})

    s, d = model.stats, model.dram
    ev = s.events
    faults = ev["read_faults"] + ev["write_faults"]
    evictions = ev["evictions"]
    seen = ev["top_cache_hits"] + ev["top_cache_misses"]
    report = Report(
        model=cfg.model,
        seed=cfg.seed,
        accesses=done,
        instructions=s.instructions,
        total_cycles=s.total_cycles,
        critical_cycles=s.critical_cycles,
        lane_busy_cycles=s.lane_busy_cycles,
        stall_cycles=s.stall_cycles,
        dram={c: d.reads[c] + d.writes[c] for c in DRAM_CAUSES},
        dram_total=d.total_accesses(),
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
        top_cache_hit_rate=ev["top_cache_hits"] / seen if seen else None,
        max_verify_forest_accesses=ev["max_verify_forest_accesses"],
        verifier_jobs=ev["verifier_jobs"],
        verifier_max_depth=ev["verifier_max_depth"],
        eshr_stalls=ev["eshr_stalls"],
        barriers=ev["barriers"],
        events=dict(sorted(ev.items())),
        security_failure=failure,
        speculative_instructions=speculative,
        final_state_digest=digest,
    )
    return report


class StateMismatch(RuntimeError):
    """Completed models disagree on final memory: some model is wrong."""


def compare(
    cfg: SimConfig,
    trace: Trace | Iterable[TraceRecord],
    models: tuple[str, ...] = MODELS,
) -> dict[str, Report]:
    """Run the same trace through several models; slowdowns vs baseline.

    Every model that completes must end in the same memory state, or
    StateMismatch is raised.
    """
    if not isinstance(trace, Trace):
        trace = Trace.from_records(trace)
    reports = {}
    for name in models:
        reports[name] = run(dataclasses.replace(cfg, model=name), trace)
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
