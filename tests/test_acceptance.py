"""End-to-end acceptance suite.

One test per shipped claim, each printing a single verdict line (visible
under pytest's -rP) and asserting the stated tolerance:

  A1 storage arithmetic at 512 GiB is exact
  A2 every attack kind x 100 seeds detected, zero benign false positives
  A3 rewriting one page always re-keys: all ciphertexts/wrapped keys distinct
  A4 forest and counter-tree state equal brute-force recomputation
  A5 deferred verification never loses to blocking, same final memory
  A6 model ordering, fault-penalty monotonicity, optimization wins, <=4 bound
  A7 every read miss charges exactly two critical DRAM reads
"""

import random

import pytest

from enclavesim.adversary import ATTACK_KINDS, run_benign, run_suite
from enclavesim.cli import main as cli_main
from enclavesim.config import expand_sweep, load_config, merge_layers
from enclavesim.crypto import ecb_decrypt_page, page_mac, unwrap_key
from enclavesim.epc import EngineConfig, SecScaleEngine
from enclavesim.forest import forest_storage
from enclavesim.layout import KEY_SLOT_BYTES, PAGE_SIZE
from enclavesim.merkle import merkle_storage_bytes
from enclavesim.sim import (
    MODEL_CLASSES,
    SimConfig,
    compare,
    make_layout,
    run,
    state_digest,
)
from enclavesim.workload import SyntheticSpec, generate

MIB = 1 << 20
GIB = 1 << 30
EID = 1


def verdict(tag: str, ok: bool, detail: str):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


# --------------------------------------------------------------------- A1
def test_a1_storage_arithmetic(capsys):
    fs = forest_storage(512 * GIB)
    tree = merkle_storage_bytes(128 * MIB)
    key_table = (512 * GIB // PAGE_SIZE) * KEY_SLOT_BYTES

    ok = (
        fs.total_bytes == 1096 * MIB
        and abs(tree / MIB - 2.06) <= 0.01
        and abs((fs.total_bytes + tree) / MIB - 1098.06) <= 0.01
        and key_table == 2 * GIB
        and fs.top_bytes == 8 * MIB
        and fs.top_bytes // 8 == 1 << 20
    )
    # the storage command must print the same table
    assert cli_main(["storage"]) == 0
    out = capsys.readouterr().out
    ok = ok and "1096.00 MB" in out and "2.06 MB" in out and "1098.06 MB" in out
    verdict(
        "A1", ok,
        f"512 GiB: forest {fs.total_bytes / MIB:.2f} MB, tree "
        f"{tree / MIB:.2f} MB, combined {(fs.total_bytes + tree) / MIB:.2f} MB, "
        f"key table {key_table / GIB:.2f} GiB, top 2^20 MACs "
        f"({fs.top_bytes / MIB:.0f} MiB in EPC)",
    )


# --------------------------------------------------------------------- A2
@pytest.mark.slow
def test_a2_attack_detection_and_no_false_positives():
    results = run_suite(ATTACK_KINDS, range(100))
    detected = sum(r.detected for r in results)
    layered = sum(r.layer_matched for r in results)
    benign = run_benign(n_ops=100_000)
    ok = (
        detected == len(results) == 100 * len(ATTACK_KINDS)
        and layered == len(results)
        and benign["failures"] == 0
    )
    verdict(
        "A2", ok,
        f"{detected}/{len(results)} attacks detected ({layered} at the "
        f"expected layer); {benign['ops']} benign ops, "
        f"{benign['failures']} false positives",
    )


# --------------------------------------------------------------------- A3
@pytest.mark.slow
def test_a3_every_eviction_rekeys():
    # smallest legal cache: two data slots, so a three-page round robin
    # evicts the target page once per lap
    eng = SecScaleEngine(make_layout(16 * MIB, 16 << 10), config=EngineConfig())
    enc = eng.register_enclave(EID, 3)
    home = enc.base_page * PAGE_SIZE
    kt_slot = eng.layout.key_table_slot(enc.base_page)

    wanted = 10_000
    ciphertexts, wrapped_keys = set(), set()
    last_kt = eng.dram.peek(kt_slot, KEY_SLOT_BYTES)
    ic = 0
    while len(ciphertexts) < wanted:
        for page in range(3):
            ic += 50
            eng.access(EID, page * PAGE_SIZE, "W", ic)  # same value rewritten
            kt = eng.dram.peek(kt_slot, KEY_SLOT_BYTES)
            if kt != last_kt:  # page 0 just left the cache under a new key
                last_kt = kt
                wrapped_keys.add(kt)
                ciphertexts.add(eng.dram.peek(home, PAGE_SIZE))
    ok = len(ciphertexts) == wanted and len(wrapped_keys) == wanted
    verdict(
        "A3", ok,
        f"{wanted} rewrites of one page: {len(ciphertexts)} distinct "
        f"ciphertexts, {len(wrapped_keys)} distinct wrapped keys",
    )


# --------------------------------------------------------------------- A4
@pytest.mark.slow
def test_a4_metadata_equals_brute_force_recomputation():
    records = generate(
        SyntheticSpec(
            pattern="uniform", footprint_bytes=4096 * PAGE_SIZE,
            n_accesses=10_000, accesses_per_instruction=1 / 500, seed=0,
        )
    )
    cfg = SimConfig(model="secscale", total_size=32 * MIB, epc_size=256 << 10)
    model = MODEL_CLASSES["secscale"](cfg)
    model.register_enclave(EID, 4096)
    for rec in records:
        model.access(rec.enclave_id, rec.vaddr, rec.op, rec.icount)
    model.finalize()

    eng = model.engine
    dram, f, m = eng.dram, eng.forest, eng.merkle
    ga = f.config.group_arity

    # forest leaves from (ciphertext, wrapped key); untouched pages stay boot
    leaf_err = mid_err = top_err = 0
    for p in range(eng.layout.total_pages):
        stored = dram.peek(f.leaf_addr(p), 8)
        if p in eng.eepc_initialized:
            wrapped = dram.peek(eng.layout.key_table_slot(p), KEY_SLOT_BYTES)
            key = unwrap_key(eng.ssk, wrapped, eng.hw_key, EID, p)
            pt = ecb_decrypt_page(key, dram.peek(p * PAGE_SIZE, PAGE_SIZE))
            leaf_err += stored != page_mac(key, pt)
        else:
            leaf_err += stored != bytes(8)
    for g in range(f.n_groups):
        blob = dram.peek(f.leaf_addr(g * ga), ga * 8)
        mid_err += dram.peek(f.mid_addr(g), 8) != f._mid_mac(g, blob)
    for r in range(f.n_regions):
        mstart, mbytes = f._mid_group_span(r)
        stored = dram.peek(eng.top_base_page * PAGE_SIZE + r * 8, 8)
        top_err += stored != f._top_mac(r, dram.peek(mstart, mbytes))

    # counter tree: every stored node re-derives from content and parents
    tree_err = 0
    arity = m.config.arity
    for level in range(len(m.counts) - 1, -1, -1):
        for idx in range(m.counts[level]):
            raw = dram.peek(m.node_addr(level, idx), 64)
            if level + 1 >= len(m.counts):
                pc = m.root_counters[idx]
            else:
                parent = dram.peek(m.node_addr(level + 1, idx // arity), 64)
                pc = m._unpack_counters(parent)[idx % arity]
            if level == 0:
                major, dmac, mac = m._leaf_fields(raw)
                content = dram.peek(idx * PAGE_SIZE, PAGE_SIZE)
                tree_err += dmac != m.data_mac(idx, major, content)
                tree_err += mac != m._leaf_mac(idx, pc, major, dmac)
            else:
                tree_err += raw[56:64] != m._node_mac(level, idx, pc, raw[:56])

    digest = state_digest({EID: model.final_state(EID)})
    ref = run(SimConfig(model="baseline", total_size=32 * MIB, epc_size=256 << 10), records)
    ok = (
        leaf_err == mid_err == top_err == tree_err == 0
        and digest == ref.final_state_digest
    )
    verdict(
        "A4", ok,
        f"forest ({eng.layout.total_pages} leaves, {f.n_groups} groups, "
        f"{f.n_regions} regions) and counter tree ({sum(m.counts)} nodes) "
        f"match brute force; final plaintext equals the unprotected "
        f"reference ({leaf_err + mid_err + top_err + tree_err} mismatches)",
    )


# --------------------------------------------------------------------- A5
def test_a5_deferral_never_loses_to_blocking():
    rng = random.Random(5)
    patterns = ("uniform", "zipf", "sequential", "strided", "pointer-chase")
    strict, equal_state = 0, 0
    for seed in range(20):
        spec = SyntheticSpec(
            pattern=patterns[seed % len(patterns)],
            footprint_bytes=rng.choice((512, 768, 1024)) << 10,
            n_accesses=400,
            read_frac=rng.choice((0.5, 0.7, 0.9)),
            accesses_per_instruction=1 / 2000,
            seed=seed,
        )
        records = generate(spec)
        base = dict(model="secscale", total_size=16 * MIB, epc_size=256 << 10)
        deferred = run(SimConfig(**base, deferred=True), records)
        blocking = run(SimConfig(**base, deferred=False), records)
        faults = deferred.read_faults + deferred.write_faults
        assert faults >= 1  # all footprints exceed the page cache
        strict += deferred.total_cycles < blocking.total_cycles
        equal_state += deferred.final_state_digest == blocking.final_state_digest
    ok = strict == 20 and equal_state == 20
    verdict(
        "A5", ok,
        f"20 traces: deferred strictly beat blocking on {strict}, "
        f"identical final memory on {equal_state}",
    )


# --------------------------------------------------------------------- A6
@pytest.mark.slow
def test_a6_trend_reproduction():
    ordered = 0
    max_verify = 0
    for seed in range(10):
        cfg = load_config(preset="trend", overrides={"seed": seed})
        reports = compare(cfg, cfg.records(), cfg.models)
        c = {name: reports[name].total_cycles for name in cfg.models}
        ordered += (
            c["baseline"] < c["secscale"] < c["penglai"] < c["dfp"] <= c["sgx-client"]
        )
        max_verify = max(max_verify, reports["secscale"].max_verify_forest_accesses)

    sweep = [
        run(rc, rc.records())
        for rc in expand_sweep(merge_layers(preset="fault-sweep"))
    ]
    penalties = [r.total_cycles for r in sweep]
    monotone = all(a <= b for a, b in zip(penalties, penalties[1:]))
    degrades = penalties[-1] > penalties[0]

    ablation = [
        run(rc, rc.records())
        for rc in expand_sweep(merge_layers(preset="ablation"))
    ]
    full, noclub, nocache = (r.dram.get("forest", 0) for r in ablation)
    max_verify = max(max_verify, *(r.max_verify_forest_accesses for r in ablation))
    wins = full < noclub and full < nocache

    ok = (
        ordered == 10 and monotone and degrades and wins and 0 < max_verify <= 4
    )
    verdict(
        "A6", ok,
        f"ordering {ordered}/10 seeds; penalty sweep non-decreasing "
        f"({penalties[0]} -> {penalties[-1]}); forest DRAM {full} < "
        f"{noclub} (no clubbing) and < {nocache} (no top cache); "
        f"verification never exceeded {max_verify} forest accesses",
    )


# --------------------------------------------------------------------- A7
def test_a7_read_miss_charges_exactly_two_reads():
    checked = 0
    clean = True
    for pattern in ("uniform", "zipf", "sequential", "strided", "pointer-chase"):
        for seed in (0, 1):
            records = generate(
                SyntheticSpec(
                    pattern=pattern, footprint_bytes=512 << 10, n_accesses=500,
                    accesses_per_instruction=1 / 1000, seed=seed,
                )
            )
            rep = run(
                SimConfig(model="secscale", total_size=16 * MIB, epc_size=256 << 10),
                records,
            )
            misses = rep.read_faults + rep.refaults
            clean &= rep.events["fault_critical_reads"] == 2 * misses
            checked += misses
    ok = clean and checked > 0
    verdict(
        "A7", ok,
        f"{checked} read misses across 10 traces, every one resumed after "
        f"exactly 2 critical DRAM reads",
    )
