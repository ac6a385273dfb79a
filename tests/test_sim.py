"""Cross-model tests: every design must compute the same memory contents.

The unprotected baseline is the semantic oracle for all protected models;
timing claims (fault-penalty monotonicity, prefetch benefit, overlap wins)
are checked against the direction the respective design argues for.
"""

import dataclasses

import pytest

from enclavesim.layout import PAGE_SIZE
from enclavesim.sim import (
    MODELS,
    REPORT_COLUMNS,
    DfpModel,
    SimConfig,
    StateMismatch,
    compare,
    enclave_footprints,
    run,
    state_digest,
)
from enclavesim.workload import SyntheticSpec, TraceRecord, generate


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
    assert enclave_footprints(records) == {1: 1, 2: 6}
    reports = compare(cfg(), records, models=("secscale", "baseline"))
    assert (
        reports["secscale"].final_state_digest
        == reports["baseline"].final_state_digest
    )


@pytest.mark.parametrize("models", [("secscale", "penglai"), MODELS])
def test_compare_raises_when_models_disagree(broken_penglai, models):
    records = trace(n=300, seed=8)
    with pytest.raises(StateMismatch, match="penglai"):
        compare(cfg(seed=8), records, models=models)


def test_state_digest_is_order_independent():
    a = {1: {0: b"x" * PAGE_SIZE, 1: b"y" * PAGE_SIZE}}
    b = {1: {1: b"y" * PAGE_SIZE, 0: b"x" * PAGE_SIZE}}
    assert state_digest(a) == state_digest(b)
    c = {1: {0: b"y" * PAGE_SIZE, 1: b"x" * PAGE_SIZE}}
    assert state_digest(a) != state_digest(c)


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
