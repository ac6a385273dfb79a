"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from enclavesim import adversary, epc, sim  # noqa: E402
from enclavesim.layout import EmulatedDram  # noqa: E402
from enclavesim.sim import SimConfig  # noqa: E402
from enclavesim.workload import SyntheticSpec  # noqa: E402

import suite  # noqa: E402
import tracing  # noqa: E402
from tracing import PatchSet, Tracer  # noqa: E402

TINY = suite.CompareSpec(
    SyntheticSpec(pattern="uniform", footprint_bytes=64 * 4096, n_accesses=120,
                  read_frac=0.7, accesses_per_instruction=1 / 8000),
    SimConfig(total_size=16 << 20, epc_size=32 * 4096),
    ("secscale", "sgx-client", "baseline"),
)
TINY_WL = suite.Workload("tiny", suite.compare_unit(TINY))


def _targets():
    """Every attribute either pass may replace, as currently bound."""
    out = {}
    for _, owner, attr in tracing.TARGETS:
        obj = tracing.resolve(owner)
        out[(owner, attr)] = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr)
    for cls in (*sim.MODEL_CLASSES.values(), epc.SecScaleEngine):
        out[(cls.__name__, "__init__")] = vars(cls).get("__init__")
    out[("sim", "run")] = sim.run
    out[("SecScaleEngine", "access")] = vars(epc.SecScaleEngine)["access"]
    return out


def _traced_pass(wl=TINY_WL, units=1):
    tracer = Tracer()
    rec = suite.Recorder(tracer)
    with PatchSet() as patches:
        tracer.install(patches)
        rec.install(patches)
        results, _ = tracer.run(suite.run_pass, wl, rec, 3, 0, units=units)
    return tracer, rec, results


def _untraced_pass(wl=TINY_WL, units=1):
    rec = suite.Recorder()
    with PatchSet() as patches:
        rec.install(patches)
        results, wall = suite.run_pass(wl, rec, 3, 0, units=units)
    return rec, results, wall


def test_wrappers_are_removed_after_a_traced_pass():
    before = _targets()
    _traced_pass()
    after = _targets()
    assert after == before
    assert all(not hasattr(v, "__wrapped__") for v in after.values() if v is not None)


def test_self_times_partition_the_traced_wall_time_exactly():
    tracer, _, _ = _traced_pass()
    layers = tracer.layer_self_ns()
    assert sum(layers.values()) == tracer.wall_ns
    # the same self times again, from the stored spans alone
    child = [0] * len(tracer.start)
    for i in range(1, len(tracer.start)):
        child[tracer.parent[i]] += tracer.end[i] - tracer.start[i]
    self_ns = [0] * len(tracer.names)
    for i in range(len(tracer.start)):
        self_ns[tracer.name_id[i]] += tracer.end[i] - tracer.start[i] - child[i]
    assert self_ns == tracer.self_ns
    assert layers["epc"] > 0 and layers["sim"] > 0 and layers["layout"] > 0
    # every span's parent opened before it and closed after it
    for i in range(1, len(tracer.start)):
        p = tracer.parent[i]
        assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def test_a_missing_target_reads_as_absent_not_as_a_crash(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[0] != "forest.verify"]
    targets.append(("forest.verify", "enclavesim.forest:MacForest", "no_such_method"))
    targets.append(("forest.verify", "enclavesim.no_such_module", "verify_page"))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer, _, _ = _traced_pass()
    assert "enclavesim.forest:MacForest.no_such_method" in tracer.missing
    values = suite.traced_metrics(tracer, tracer.wall_ns)
    assert "forest.verify_calls" not in values and "forest.verify_s" not in values
    assert "forest.update_calls" in values


def test_traced_pass_reproduces_the_untraced_reports():
    _, untraced, _ = _untraced_pass()
    _, _, traced = _traced_pass()
    digests = lambda results: [(r["what"], r["digest"]) for u in results for r in u.rows]
    assert digests(untraced) == digests(traced)
    assert not [f for u in untraced for f in u.failures]


def test_every_unit_starts_with_empty_program_caches(monkeypatch):
    from enclavesim import crypto

    caches = [f for f in vars(crypto).values() if hasattr(f, "cache_info")]
    filled_at_unit_start = []

    def clear():
        filled_at_unit_start.append(sum(f.cache_info().currsize for f in caches))
        clear_program_caches()
        assert all(f.cache_info().currsize == 0 for f in caches)

    clear_program_caches = suite.clear_program_caches
    monkeypatch.setattr(suite, "clear_program_caches", clear)
    _untraced_pass(units=2)
    # the second unit found the first unit's entries, and started without them
    assert caches and len(filled_at_unit_start) == 2 and filled_at_unit_start[1] > 0


def test_a_poked_dram_byte_counts_as_a_failed_operation():
    def poke_after_build(init):
        def broken_init(model, cfg):
            init(model, cfg)
            model.dram.poke(model.layout.eepc_base + 4093, b"\x5a")
        return broken_init

    rec = suite.Recorder()
    with PatchSet() as patches:
        patches.replace(sim.BaselineModel, "__init__", poke_after_build)
        rec.install(patches)
        results, _ = suite.run_pass(TINY_WL, rec, 3, 0, units=1)
    failures = results[0].failures
    assert [f["what"] for f in failures] == ["baseline"]
    assert "disagrees" in failures[0]["reason"]


def test_check_compare_flags_every_failure_kind():
    _, results, _ = _untraced_pass()
    reports = {r.model: r.report for r in results[0].runs}
    n = TINY.spec.n_accesses
    assert suite.check_compare(reports, n) == {m: [] for m in reports}
    sec = reports["secscale"]
    for broken, words in (
        (dataclasses.replace(sec, security_failure="page MAC mismatch"), "security failure"),
        (dataclasses.replace(sec, accesses=n - 1), "completed"),
        (dataclasses.replace(sec, max_verify_forest_accesses=5), "forest accesses"),
        (dataclasses.replace(sec, final_state_digest="0" * 64), "disagrees"),
    ):
        out = suite.check_compare({**reports, "secscale": broken}, n)
        assert words in " ".join(out["secscale"])
        assert out["baseline"] == [] and out["sgx-client"] == []
    # with two models and no majority, both fail
    pair = {"secscale": dataclasses.replace(sec, final_state_digest="0" * 64),
            "baseline": reports["baseline"]}
    assert all(suite.check_compare(pair, n).values())


def test_check_attack_flags_undetected_and_wrong_layer():
    res = adversary.run_attack("tamper-data", 0, suite.ATTACK_CFG)
    assert suite.check_attack(res) == []
    assert suite.check_attack(dataclasses.replace(res, detected=False))
    assert suite.check_attack(dataclasses.replace(res, layer_matched=False))


def test_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec, results, wall = _untraced_pass()
    e2e, _ = suite.end_to_end(results, rec, 1.0)
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    tracer, _, _ = _traced_pass()
    per_layer = suite.per_layer(results, tracer, wall)
    assert set(per_layer) == {m["name"] for m in declared["per_layer"]}


def test_p50_is_the_mean_of_unit_medians_and_p99_pools_every_call():
    rec, results, _ = _untraced_pass(units=2)
    values, samples = suite.end_to_end(results, rec, 1.0)
    medians = [suite.percentile(sorted(rec.latency[u.latency.start:u.latency.stop]), 50)
               for u in results]
    assert [len(u.latency) for u in results] == [TINY.spec.n_accesses] * 2
    assert values["access_us_p50"] == sum(medians) / 2 / 1e3
    assert values["access_us_p99"] == suite.percentile(sorted(rec.latency), 99) / 1e3
    assert samples["access_samples"] == 2 * TINY.spec.n_accesses


@pytest.mark.parametrize("pct,expected", [(50, 50), (99, 99), (100, 100), (1, 1)])
def test_percentile_is_nearest_rank(pct, expected):
    assert suite.percentile(list(range(1, 101)), pct) == expected


def test_emulated_dram_methods_are_wrapped_once_per_boundary():
    tracer, _, _ = _traced_pass()
    calls, _ = tracer.by_name()["layout.dram"]
    # read() calls peek() internally; the nested call stays in read's span
    assert calls > 0
    names = [tracer.names[i] for i in tracer.name_id]
    for i in range(len(names)):
        p = tracer.parent[i]
        assert not (names[i] == "layout.dram" and p >= 0 and names[p] == "layout.dram")
    assert EmulatedDram.read is vars(EmulatedDram)["read"]


def test_patchset_restores_inherited_and_module_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    resolve = tracing.resolve
    with PatchSet() as patches:
        assert patches.replace(Child, "f", lambda fn: lambda self: "patched " + fn(self))
        assert patches.replace(tracing, "resolve", lambda fn: lambda owner: None)
        assert not patches.replace(Child, "no_such_method", lambda fn: fn)
        assert Child().f() == "patched base" and tracing.resolve("sys") is None
    assert "f" not in vars(Child) and Child().f() == "base"
    assert tracing.resolve is resolve
