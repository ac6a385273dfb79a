"""Cross-model tests: every design must compute the same memory contents.

The unprotected baseline is the semantic oracle for all protected models;
timing claims (fault-penalty monotonicity, prefetch benefit, overlap wins)
are checked against the direction the respective design argues for.
"""

import dataclasses
import gc
import random
import tracemalloc
import weakref

import pytest

from enclavesim.adversary import run_attack
from enclavesim.config import load_config
from enclavesim.epc import SCRATCH_VBASE, Model, make_layout, write_value
from enclavesim.forest import MacForest
from enclavesim.layout import PAGE_SIZE, ConfigError
from enclavesim.sim import (
    MODEL_CLASSES,
    MODELS,
    REPORT_COLUMNS,
    DfpModel,
    SimConfig,
    StateMismatch,
    compare,
    run,
    state_digest,
)
from enclavesim.verifier import CatastrophicFailure
from enclavesim.workload import SyntheticSpec, Trace, TraceRecord, generate


def trace(pattern="uniform", footprint=2 << 20, n=1500, seed=0, **kw):
    return generate(
        SyntheticSpec(
            pattern=pattern,
            footprint_bytes=footprint,
            n_accesses=n,
            accesses_per_instruction=1 / 8000,
            seed=seed,
            **kw,
        )
    )


def cfg(**kw):
    return SimConfig(total_size=64 << 20, epc_size=1 << 20, **kw)


# ------------------------------------------------------------- semantics


@pytest.mark.parametrize("model", MODELS)
def test_every_model_matches_unprotected_reference(model):
    records = trace(n=1200, seed=7)
    ref = run(cfg(model="baseline", seed=7), records)
    rep = run(cfg(model=model, seed=7), records)
    assert rep.final_state_digest == ref.final_state_digest
    assert rep.accesses == len(records)
    assert rep.security_failure is None


def test_models_agree_across_patterns():
    for pattern in ("sequential", "zipf", "strided", "pointer-chase"):
        records = trace(pattern=pattern, n=800, seed=3)
        reports = compare(cfg(seed=3), records)
        digests = {r.final_state_digest for r in reports.values()}
        assert len(digests) == 1, f"{pattern}: models disagree on final state"


def test_multi_enclave_footprints_and_state():
    records = [
        TraceRecord("W", 0, 1, 10),
        TraceRecord("W", 5 * PAGE_SIZE, 2, 20),
        TraceRecord("R", 0, 1, 30),
    ]
    assert Trace.from_records(records).footprints == {1: 1, 2: 6}
    reports = compare(cfg(), records, models=("secscale", "baseline"))
    assert (
        reports["secscale"].final_state_digest
        == reports["baseline"].final_state_digest
    )


def _two_enclaves_and_scratch(seed: int, n: int = 600) -> list[TraceRecord]:
    """Rows over more pages than a 256 KiB EPC holds, in two enclaves that
    both reach the shared scratch pages."""
    rng = random.Random(seed)
    rows, ic = [], 0
    for _ in range(n):
        ic += rng.randrange(1, 3000)
        eid = rng.choice((1, 2))
        if rng.random() < 0.05:
            vaddr = (SCRATCH_VBASE + rng.randrange(4)) * PAGE_SIZE
        else:
            vaddr = rng.randrange(100 if eid == 1 else 30) * PAGE_SIZE
        rows.append(TraceRecord("RW"[rng.random() < 0.4], vaddr + 8 * rng.randrange(512), eid, ic))
    return rows


@pytest.mark.parametrize("model", MODELS)
def test_a_trace_and_its_rows_give_one_report(model):
    config = SimConfig(model=model, total_size=16 << 20, epc_size=256 << 10, seed=3)
    rows = _two_enclaves_and_scratch(3)
    as_trace = run(config, Trace.from_records(rows)).to_json()
    assert run(config, rows).to_json() == as_trace
    assert run(config, iter(rows)).to_json() == as_trace  # rows read once
    generated = trace(n=500, seed=5)
    assert (
        run(cfg(model=model, seed=5), list(generated)).to_json()
        == run(cfg(model=model, seed=5), generated).to_json()
    )


class _TupleLookaheadDfp(DfpModel):
    """dfp reading its lookahead from one (eid, vpage) tuple per access, as
    it did before traces were columns: the oracle for the column reads."""

    def set_trace(self, trace):
        super().set_trace(trace)
        self._future = [(r.enclave_id, r.vaddr // PAGE_SIZE) for r in trace]

    def _predict(self, faulting):
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
        n_pages = self.enclaves[faulting[0]].n_pages
        return faulting[0], self.rng.randrange(n_pages)


@pytest.mark.parametrize("lookahead", [1, 7, 256])
def test_dfp_lookahead_from_columns_matches_tuples(monkeypatch, lookahead):
    config = SimConfig(
        model="dfp", total_size=16 << 20, epc_size=256 << 10, seed=4,
        dfp_accuracy=0.8, dfp_lookahead=lookahead,
    )
    rows = _two_enclaves_and_scratch(4)
    want = run(config, rows)
    assert want.events["prefetches"] > 0 and want.events["prefetch_hits"] > 0
    monkeypatch.setitem(MODEL_CLASSES, "dfp", _TupleLookaheadDfp)
    assert run(config, rows).to_json() == want.to_json()


@pytest.mark.parametrize("models", [("secscale", "penglai"), MODELS])
def test_compare_raises_when_models_disagree(broken_penglai, models):
    records = trace(n=300, seed=8)
    with pytest.raises(StateMismatch, match="penglai"):
        compare(cfg(seed=8), records, models=models)


def test_models_agree_at_a_small_epc():
    # at a 256 KiB EPC sgx-client once carved 63 slots, and its counter tree
    # then overwrote the first block of the first enclave page
    reports = compare(
        SimConfig(total_size=64 << 20, epc_size=256 << 10),
        trace(n=300),
        models=("baseline", "sgx-client", "dfp", "secscale"),
    )
    assert len({r.final_state_digest for r in reports.values()}) == 1


@pytest.mark.parametrize("model", MODELS)
def test_every_model_rejects_the_same_enclaves(model):
    config = SimConfig(model=model, total_size=16 << 20, epc_size=1 << 20)
    layout = make_layout(config.total_size, config.epc_size)
    eepc_pages = layout.eepc_size // PAGE_SIZE  # the home pages below the forest
    for eid, problem in ((0, "enclave id 0"), (1 << 31, "31 bits")):
        with pytest.raises(ConfigError, match=problem):
            run(config, [TraceRecord("R", 0, eid, 1)])
    with pytest.raises(ConfigError, match="eEPC exhausted"):
        run(config, [TraceRecord("R", eepc_pages * PAGE_SIZE, 1, 1)])
    # every eEPC page up to the forest region is an enclave's to use
    rep = run(config, [TraceRecord("W", (eepc_pages - 1) * PAGE_SIZE, 1, 1)])
    assert rep.accesses == 1 and rep.security_failure is None
    model_run = MODEL_CLASSES[model](config)
    model_run.register_enclave(1, 1)
    with pytest.raises(ValueError, match="already registered"):
        model_run.register_enclave(1, 1)
    # an empty or negative enclave would let the next one's base fall
    # inside the enclaves before it, or the EPC carve below the eEPC
    for n_pages in (0, -3):
        with pytest.raises(ConfigError, match="n_pages"):
            model_run.register_enclave(2, n_pages)
    assert list(model_run.enclaves) == [1]


def _counters(m):
    """Everything an access may charge or move, as plain values."""
    s = m.stats
    lane = [
        (e.slot, e.cursor, e.ls_vector, e.demand)
        for e in getattr(m, "eshr", {}).values()
    ]
    return (
        s.instructions, s.critical_cycles, s.lane_free, s.lane_busy_cycles,
        s.stall_cycles, dict(s.events), dict(m.dram.reads), dict(m.dram.writes),
        m.last_icount, lane, len(getattr(m, "queue", ())), getattr(m, "_pos", None),
    )


@pytest.mark.parametrize("model", MODELS)
def test_every_model_rejects_the_same_accesses(model):
    config = SimConfig(model=model, total_size=16 << 20, epc_size=256 << 10)
    m = MODEL_CLASSES[model](config)
    m.register_enclave(1, 4)
    m.register_enclave(2, 4)
    for v in range(4):
        m.access(2, v * PAGE_SIZE + 8, "W", 10 + v)
    if model == "secscale":
        assert m.eshr, "the lane should still have work pending"
    before, charged = m.final_state(2), _counters(m)
    bad = {
        "op": (1, 0, "X", 20),
        "enclave": (3, 0, "R", 20),
        "enclave write": (3, 0, "W", 20),
        "vpage": (1, 4 * PAGE_SIZE, "W", 20),  # enclave 2's first home page
        "vpage read": (1, 4 * PAGE_SIZE, "R", 20),
        "icount": (1, 0, "R", 5),
        "scratch write": (3, SCRATCH_VBASE * PAGE_SIZE, "W", 20),
        "scratch read": (3, SCRATCH_VBASE * PAGE_SIZE, "R", 20),
    }
    for name, args in bad.items():
        with pytest.raises(ValueError):
            m.access(*args)
        assert m.final_state(2) == before, f"a bad {name} changed enclave 2"
        assert _counters(m) == charged, f"a bad {name} was charged"


def _drive(sim_cfg, records):
    """Run a trace through `sim_cfg.model` as `run` does; return the
    finalized model and the value of every access."""
    trace = Trace.from_records(records)
    model = MODEL_CLASSES[sim_cfg.model](sim_cfg)
    for eid, n_pages in sorted(trace.footprints.items()):
        model.register_enclave(eid, max(n_pages, 1))
    if isinstance(model, DfpModel):
        model.set_trace(trace)
    values = [model.access(r.enclave_id, r.vaddr, r.op, r.icount) for r in records]
    model.finalize()
    return model, values


def test_every_model_returns_the_same_value_for_every_access():
    # two enclaves over more pages than the 256 KiB EPC holds, plus scratch
    # words both enclaves share; a small pool of words, so most reads see a
    # written value
    rng = random.Random(12)
    pool = [(1, rng.randrange(120) * PAGE_SIZE + rng.randrange(512) * 8)
            for _ in range(120)]
    pool += [(2, rng.randrange(40) * PAGE_SIZE + rng.randrange(512) * 8)
             for _ in range(40)]
    pool += [(None, (SCRATCH_VBASE + v) * PAGE_SIZE + 8 * v) for v in range(4)]
    records, ic = [], 0
    for _ in range(3000):
        ic += rng.randrange(1, 2000)
        eid, vaddr = rng.choice(pool)
        eid = eid or rng.choice((1, 2))  # either enclave reaches scratch
        records.append(TraceRecord("RW"[rng.random() < 0.4], vaddr, eid, ic))

    values, scratch_counts = {}, {}
    for name in MODELS:
        model, values[name] = _drive(
            SimConfig(model=name, total_size=16 << 20, epc_size=256 << 10, seed=3),
            records,
        )
        events = model.stats.events
        scratch_counts[name] = (events["scratch_reads"], events["scratch_writes"])
    for name in MODELS:
        assert values[name] == values["baseline"], f"{name} returned other values"

    last = {}  # scratch words are shared, enclave words are the enclave's own
    scratch_ops, reads, written_reads = set(), 0, 0
    for r, value in zip(records, values["baseline"]):
        scratch = r.vaddr // PAGE_SIZE >= SCRATCH_VBASE
        word = r.vaddr if scratch else (r.enclave_id, r.vaddr)
        if scratch:
            scratch_ops.add(r.op)
        if r.op == "W":
            last[word] = write_value(r.enclave_id, r.vaddr, r.icount)
            assert value == last[word]
        else:
            reads += 1
            written_reads += word in last
            assert value == last.get(word, bytes(8))
    assert scratch_ops == {"R", "W"}
    scratch = [r.op for r in records if r.vaddr // PAGE_SIZE >= SCRATCH_VBASE]
    expected = (scratch.count("R"), scratch.count("W"))
    assert scratch_counts == dict.fromkeys(MODELS, expected)
    assert written_reads > reads // 2, "most reads should see a written value"


def test_state_digest_is_order_independent():
    a = {1: {0: b"x" * PAGE_SIZE, 1: b"y" * PAGE_SIZE}}
    b = {1: {1: b"y" * PAGE_SIZE, 0: b"x" * PAGE_SIZE}}
    assert state_digest(a) == state_digest(b)
    c = {1: {0: b"y" * PAGE_SIZE, 1: b"x" * PAGE_SIZE}}
    assert state_digest(a) != state_digest(c)


# ---------------------------------------------------------------- memory


def test_final_pages_stream_is_final_state_and_digests_the_same():
    cfg = load_config(preset="trend")
    records = cfg.records()
    [eid] = records.footprints
    reference = None
    for name in MODELS:
        model, _ = _drive(dataclasses.replace(cfg, model=name), records)
        pages = list(model.final_pages(eid))
        assert [v for v, _ in pages] == list(range(len(pages))), name
        assert dict(pages) == model.final_state(eid), name
        if reference is None:
            reference = dict(pages)
        assert dict(pages) == reference, f"{name} differs from {MODELS[0]}"
        digest = state_digest({eid: model.final_pages(eid)})
        assert digest == state_digest({eid: reference}), name
    assert digest == run(cfg, records).final_state_digest


@pytest.mark.parametrize("model", MODELS)
def test_a_run_digests_its_final_state_page_by_page(model):
    # a 16 MiB enclave (4,096 pages) of which four pages are touched: a
    # digest that held the final state would hold 16 MiB
    records = [
        TraceRecord(op, v * PAGE_SIZE + 8, 1, 1000 * (i + 1))
        for i, (op, v) in enumerate((op, v) for op in "WR" for v in (0, 1, 2, 4095))
    ]
    tracemalloc.start()
    try:
        rep = run(cfg(model=model), records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.final_state_digest
    assert peak < 1 << 20, f"{model} peaked at {peak / (1 << 20):.1f} MiB"


def _fail_verification(forest, page, mac):
    raise CatastrophicFailure(f"forced failure at page {page}", page=page)


def test_no_model_outlives_its_run(monkeypatch):
    # with the cycle collector off, only reference counting frees a model:
    # a model in a reference cycle stays alive here
    born = []
    model_init = Model.__init__

    def tracked(self, *args, **kwargs):
        model_init(self, *args, **kwargs)
        born.append((type(self).__name__, weakref.ref(self)))

    monkeypatch.setattr(Model, "__init__", tracked)
    records = trace(n=2000, seed=4)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in MODELS:
            run(cfg(model=name, seed=4), records)
        # a detected attack halts its engine inside an access, and so does a
        # failed verification inside a run
        assert run_attack("replay-epc-counter", 0).detected
        monkeypatch.setattr(MacForest, "verify_page", _fail_verification)
        assert run(cfg(model="secscale", seed=4), records).security_failure
        alive = [name for name, ref in born if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert len(born) == len(MODELS) + 2
    assert not alive, f"still alive after their runs: {alive}"


# ---------------------------------------------------------------- timing


def test_protected_models_never_beat_baseline():
    records = trace(n=1000, seed=1)
    reports = compare(cfg(seed=1), records)
    base = reports["baseline"].total_cycles
    for name, rep in reports.items():
        if name != "baseline":
            assert rep.total_cycles > base, f"{name} cannot be free"
            assert rep.slowdown > 1.0


def test_trend_ordering_on_one_seed():
    records = trace(n=2000, seed=0)
    t = {
        m: r.total_cycles for m, r in compare(cfg(seed=0), records).items()
    }
    assert t["secscale"] < t["penglai"] < t["dfp"] <= t["sgx-client"]


def test_sgx_fault_penalty_sweep_is_monotone():
    records = trace(n=800, seed=2)
    for model in ("sgx-client", "dfp"):
        last = 0
        for penalty in (5000, 10000, 20000, 30000, 40000):
            c = cfg(model=model, seed=2)
            c = dataclasses.replace(
                c, latency=dataclasses.replace(c.latency, sgx_fault_penalty=penalty)
            )
            total = run(c, records).total_cycles
            assert total >= last, f"{model} sped up with a larger fault penalty"
            last = total


def test_dfp_accuracy_reduces_faults():
    records = trace(n=1200, seed=4)
    faults = {}
    for acc in (0.0, 0.5, 1.0):
        rep = run(cfg(model="dfp", seed=4, dfp_accuracy=acc), records)
        faults[acc] = rep.read_faults + rep.write_faults
    sgx = run(cfg(model="sgx-client", seed=4), records)
    assert faults[1.0] < faults[0.0]
    assert faults[1.0] < sgx.read_faults + sgx.write_faults
    assert faults[0.5] <= faults[0.0]


def test_dfp_victims_are_cold_prefetches_lowest_slot_first():
    model = DfpModel(cfg(model="dfp"))
    model.register_enclave(1, 4096)
    n = model.n_slots
    for v in range(n):  # fill every slot; slots 1, 3 and 5 hold prefetches
        assert model._insert(1, v, cold=v in (1, 3, 5)) == v
    assert model._victim() == 1
    assert model._insert(1, n) == 1  # a demand page takes the lowest
    assert model._insert(1, n + 1, cold=True) == 3  # so does a prefetch
    assert model._victim() == 3, "a refilled prefetch slot keeps its place"
    model.access(1, (n + 1) * PAGE_SIZE, "R", 1)  # referenced: joins the LRU
    assert model._victim() == 5
    model.access(1, 5 * PAGE_SIZE, "R", 2)
    assert model._victim() == 0  # then the least recently touched slot


def test_penglai_mount_count_matches_regions_within_cache():
    # 2 MiB footprint = 4 regions of 128 pages: every region mounts once
    records = trace(n=1000, seed=5)
    rep = run(cfg(model="penglai", seed=5), records)
    assert rep.events["mounts"] == 4
    assert rep.events["root_cache_hits"] == len(records) - 4
    # 32 MiB footprint = 64 regions against a 32-entry cache: remounts happen
    big = trace(footprint=32 << 20, n=1000, seed=5)
    rep2 = run(cfg(model="penglai", seed=5), big)
    assert rep2.events["mounts"] > 64


def test_secscale_deferral_beats_blocking_via_config():
    records = trace(n=1000, seed=6)
    deferred = run(cfg(seed=6), records)
    blocking = run(cfg(seed=6, deferred=False), records)
    assert blocking.total_cycles > deferred.total_cycles
    assert blocking.final_state_digest == deferred.final_state_digest


# --------------------------------------------------------------- reports


def test_report_dict_matches_fixed_columns():
    records = trace(n=400)
    rep = run(cfg(), records)
    d = rep.to_dict()
    assert tuple(d) == REPORT_COLUMNS == tuple(rep.to_dict())
    assert len(rep.csv_row()) == len(REPORT_COLUMNS)
    assert rep.to_json().startswith("{")


def test_secscale_report_carries_design_metrics():
    records = trace(pattern="zipf", footprint=8 << 20, n=2000, seed=0, zipf_s=1.0)
    rep = run(cfg(seed=0), records)
    assert rep.verifier_jobs > 0
    assert rep.max_verify_forest_accesses <= 4
    assert rep.top_cache_hit_rate is not None
    assert 0.0 <= rep.top_cache_hit_rate <= 1.0
    assert rep.clubbed_pairs > 0
    assert rep.club_frac <= 1.0


def test_config_validation():
    with pytest.raises(ValueError, match="model"):
        SimConfig(model="tdx")
    with pytest.raises(ValueError, match="dfp_accuracy"):
        SimConfig(dfp_accuracy=1.5)
    with pytest.raises(ValueError, match="dfp_lookahead"):
        SimConfig(dfp_lookahead=0)
