"""Configuration schema tests: sizes, key paths, precedence, presets, sweeps.

Every bad input must fail at load time with the offending key path in the
message — a run should never start on a half-understood config.
"""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclavesim.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    expand_sweep,
    load_config,
    merge_layers,
    parse_size,
)
from enclavesim.sim import SimConfig


# ------------------------------------------------------------------- sizes
@pytest.mark.parametrize(
    "text,expect",
    [
        (4096, 4096),
        ("4096", 4096),
        ("512K", 512 << 10),
        ("64M", 64 << 20),
        ("2G", 2 << 30),
        ("2GiB", 2 << 30),
        ("1T", 1 << 40),
        ("64 MB", 64 << 20),
        ("128b", 128),
    ],
)
def test_parse_size_accepts_ints_and_binary_suffixes(text, expect):
    assert parse_size(text) == expect


@pytest.mark.parametrize(
    "bad", ["", "M", "-4K", "64Q", "1.5G", 0, -1, True, None, 4.0, "00", "0K", "0 GiB"]
)
def test_parse_size_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_size(bad, "epc_size")


def test_parse_size_error_names_the_key():
    with pytest.raises(ConfigError, match="total_size"):
        parse_size("lots", "total_size")


@given(st.integers(min_value=1, max_value=1 << 20), st.sampled_from("KMGT"))
def test_parse_size_round_trips_suffixes(n, unit):
    shift = {"K": 10, "M": 20, "G": 30, "T": 40}[unit]
    assert parse_size(f"{n}{unit}") == n << shift


# --------------------------------------------------------------- key paths
def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key 'modle'"):
        RunConfig.from_dict({"modle": "secscale"})


def test_unknown_nested_key_reports_full_path():
    with pytest.raises(ConfigError, match="unknown config key 'workload.patern'"):
        RunConfig.from_dict({"workload": {"patern": "zipf"}})


def test_unknown_latency_key_reports_full_path():
    with pytest.raises(ConfigError, match="latency.dram_cycles"):
        RunConfig.from_dict({"latency": {"dram_cycles": 50}})


def test_unknown_model_rejected():
    with pytest.raises(ConfigError, match="model"):
        RunConfig.from_dict({"model": "sgx"})
    with pytest.raises(ConfigError, match="models"):
        RunConfig.from_dict({"models": ["baseline", "sgx"]})


def test_bad_pattern_rejected_with_path():
    with pytest.raises(ConfigError, match="workload.pattern"):
        RunConfig.from_dict({"workload": {"pattern": "random"}})


def test_workload_range_errors_fire_at_load_time():
    with pytest.raises(ConfigError, match="read_frac"):
        RunConfig.from_dict({"workload": {"read_frac": 1.5}})


def test_latency_range_errors_fire_at_load_time():
    with pytest.raises(ConfigError, match="latency"):
        RunConfig.from_dict({"latency": {"dram_access_cycles": -1}})


def test_epc_size_must_fit_inside_total():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"total_size": "1M", "epc_size": "64M"})


# -------------------------------------------------------------- precedence
def test_flag_beats_file_beats_preset(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "epc_size": "2M"}))
    cfg = load_config(str(path), preset="trend", overrides={"seed": 11})
    assert cfg.seed == 11  # flag wins
    assert cfg.epc_size == 2 << 20  # file beats the preset's 1M
    assert cfg.total_size == 64 << 20  # untouched preset value survives


def test_nested_merge_keeps_sibling_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"workload": {"n_accesses": 42}}))
    cfg = load_config(str(path), preset="trend")
    spec = cfg.workload.spec(seed=0)
    assert spec.n_accesses == 42
    assert spec.footprint_bytes == 2 << 20  # preset sibling preserved


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        merge_layers(preset="turbo")


def test_unreadable_and_malformed_files_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        merge_layers(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        merge_layers(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        merge_layers(str(arr))


# ----------------------------------------------------------------- presets
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_validates(name):
    cfg = load_config(preset=name)
    assert isinstance(cfg, RunConfig)


def test_trend_preset_lists_all_five_models():
    cfg = load_config(preset="trend")
    assert len(cfg.models) == 5
    assert cfg.models[0] == "baseline"


# ------------------------------------------------------------------ sweeps
def test_sweep_rows_expand_over_base():
    merged = merge_layers(preset="fault-sweep")
    rows = expand_sweep(merged)
    penalties = [rc.latency.sgx_fault_penalty for rc in rows]
    assert penalties == [5000, 10000, 20000, 30000, 40000]
    assert all(rc.model == "sgx-client" for rc in rows)


def test_ablation_sweep_toggles_one_knob_per_row():
    rows = expand_sweep(merge_layers(preset="ablation"))
    assert (rows[0].clubbing, rows[0].top_cache) == (True, True)
    assert (rows[1].clubbing, rows[1].top_cache) == (False, True)
    assert (rows[2].clubbing, rows[2].top_cache) == (True, False)


def test_sweep_row_must_be_object():
    with pytest.raises(ConfigError, match=r"sweep\[1\]"):
        expand_sweep({"sweep": [{}, 7]})


def test_empty_sweep_yields_single_base_row():
    rows = expand_sweep({"model": "penglai"})
    assert len(rows) == 1 and rows[0].model == "penglai"


# ---------------------------------------------------------------- plumbing
def test_run_config_is_the_sim_config():
    cfg = load_config(preset="trend")
    assert isinstance(cfg, SimConfig)
    dfp = dataclasses.replace(cfg, model="dfp")
    assert dfp.model == "dfp"
    assert dfp.workload == cfg.workload and dfp.latency == cfg.latency


def test_workload_seed_follows_run_seed_unless_pinned():
    base = {"workload": {"footprint": "64K", "n_accesses": 50}}
    a = RunConfig.from_dict({**base, "seed": 1}).records()
    b = RunConfig.from_dict({**base, "seed": 2}).records()
    assert a != b  # run seed reaches the generator
    pinned = {"workload": {"footprint": "64K", "n_accesses": 50, "seed": 9}}
    c = RunConfig.from_dict({**pinned, "seed": 1}).records()
    d = RunConfig.from_dict({**pinned, "seed": 2}).records()
    assert c == d  # explicit workload seed wins


def test_trace_workload_round_trip(tmp_path):
    from enclavesim.workload import format_record

    cfg = RunConfig.from_dict({"workload": {"footprint": "64K", "n_accesses": 30}})
    records = cfg.records()
    path = tmp_path / "t.trace"
    path.write_text("".join(format_record(r) + "\n" for r in records))
    replayed = RunConfig.from_dict({"workload": {"trace": str(path)}}).records()
    assert replayed == records
