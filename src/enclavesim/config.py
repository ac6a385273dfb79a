"""Run configuration: one validated schema, presets, files, flag overrides.

A run is described by a plain JSON object (human-editable key/value text).
Values merge with precedence flag > file > preset > built-in default, and
unknown keys are rejected with the full key path so a typo never silently
falls back to a default; so is a value whose type is not the one its
dataclass field declares.  Byte sizes accept suffixed strings ("64M", "2GiB")
anywhere the schema wants bytes.

Presets cover the shipped experiment families; each is a full config the
other layers may override key by key.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
import types
import typing
from dataclasses import dataclass, field

from .adversary import ATTACK_KINDS
from .sim import MODELS, SimConfig
from .timing import LatencyConfig
from .workload import (
    PATTERNS,
    SPEC_KEYS,
    SyntheticSpec,
    TraceRecord,
    generate,
    open_trace,
    parse_trace,
)

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad run configuration; the message names the offending key path."""


_SIZE_RE = re.compile(r"^(\d+)\s*(?:([KMGT])(?:I?B)?|B)?$", re.IGNORECASE)
_SIZE_SHIFT = {"": 0, "K": 10, "M": 20, "G": 30, "T": 40}


def parse_size(value, path: str = "size") -> int:
    """Bytes from an int or a suffixed string; binary units throughout."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a byte size, got {value!r}")
    if isinstance(value, int):
        if value <= 0:
            raise ConfigError(f"{path}: size must be positive, got {value}")
        return value
    if isinstance(value, str):
        m = _SIZE_RE.match(value.strip())
        if m:
            return int(m.group(1)) << _SIZE_SHIFT[(m.group(2) or "").upper()]
    raise ConfigError(f"{path}: cannot parse size {value!r}")


def _check_keys(d: dict, allowed, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown config key {where!r}")


def _has_type(value, hint) -> bool:
    """isinstance against a field annotation; ints pass as floats, bools
    pass only as bools."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, typing.get_origin(hint) or hint)


def _build(cls, kwargs: dict, path: str):
    """cls(**kwargs), once each value has the type its field declares.

    The dataclass's own range errors come back as ConfigErrors.
    """
    hints = typing.get_type_hints(cls)
    for key, value in kwargs.items():
        if not _has_type(value, hints[key]):
            where = f"{path}.{key}" if path else key
            expected = getattr(hints[key], "__name__", hints[key])
            raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}" if path else str(e)) from e


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


# ------------------------------------------------------------------ schema
@dataclass(frozen=True)
class WorkloadConfig:
    """A trace file to replay, or the SyntheticSpec fields a config sets.

    The generator seed follows the run seed unless the config pins it.
    """

    trace: str | None = None
    synthetic: dict = field(default_factory=dict)  # SyntheticSpec field -> value

    @classmethod
    def from_dict(cls, d: dict, path: str = "workload") -> "WorkloadConfig":
        _check_keys(d, ("trace", *SPEC_KEYS), path)
        if "pattern" in d and d["pattern"] not in PATTERNS:
            raise ConfigError(
                f"{path}.pattern: must be one of {PATTERNS}, got {d['pattern']!r}"
            )
        synthetic = {}
        for key, value in d.items():
            if key == "trace" or value is None:  # null keeps the default
                continue
            name = SPEC_KEYS[key]
            if name.endswith("_bytes"):
                value = parse_size(value, f"{path}.{key}")
            synthetic[name] = value
        cfg = _build(cls, {"trace": d.get("trace"), "synthetic": synthetic}, path)
        if cfg.trace is None:
            _build(SyntheticSpec, {"seed": 0, **synthetic}, path)  # checks at load
        return cfg

    def spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(**{"seed": seed, **self.synthetic})

    def records(self, default_seed: int) -> list[TraceRecord]:
        if self.trace is not None:
            with open_trace(self.trace) as fh:
                return list(parse_trace(fh))
        return generate(self.spec(default_seed))


@dataclass(frozen=True)
class AttackPlan:
    kinds: tuple[str, ...] = ATTACK_KINDS
    seeds: int = 100

    @classmethod
    def from_dict(cls, d: dict, path: str = "attack") -> "AttackPlan":
        _check_keys(d, (f.name for f in dataclasses.fields(cls)), path)
        kinds = tuple(d.get("kinds", ATTACK_KINDS))
        for k in kinds:
            if k not in ATTACK_KINDS:
                raise ConfigError(f"{path}.kinds: unknown attack kind {k!r}")
        plan = _build(cls, {"kinds": kinds, "seeds": d.get("seeds", 100)}, path)
        if plan.seeds <= 0:
            raise ConfigError(f"{path}.seeds: must be a positive integer")
        return plan


def _latency_from_dict(d: dict, path: str = "latency") -> LatencyConfig:
    _check_keys(d, (f.name for f in dataclasses.fields(LatencyConfig)), path)
    return _build(LatencyConfig, d, path)


@dataclass(frozen=True)
class RunConfig(SimConfig):
    """A SimConfig plus what selects the trace, the models and the outputs."""

    models: tuple[str, ...] = ()
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    attack: AttackPlan | None = None
    sweep: tuple[dict, ...] = ()
    out: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _check_keys(d, (f.name for f in dataclasses.fields(cls)), "")
        d = dict(d)
        for key in ("total_size", "epc_size"):
            if key in d:
                d[key] = parse_size(d[key], key)
        if "model" in d and d["model"] not in MODELS:
            raise ConfigError(f"model: must be one of {MODELS}, got {d['model']!r}")
        if "models" in d:
            for m in d["models"]:
                if m not in MODELS:
                    raise ConfigError(f"models: unknown model {m!r}")
            d["models"] = tuple(d["models"])
        if "latency" in d:
            d["latency"] = _latency_from_dict(d["latency"])
        if "workload" in d:
            d["workload"] = WorkloadConfig.from_dict(d["workload"])
        if d.get("attack") is not None:
            d["attack"] = AttackPlan.from_dict(d["attack"])
        if "sweep" in d:
            rows = d["sweep"]
            if not isinstance(rows, (list, tuple)):
                raise ConfigError("sweep: must be a list of override objects")
            d["sweep"] = tuple(rows)
        return _build(cls, d, "")

    def records(self) -> list[TraceRecord]:
        return self.workload.records(self.seed)


# ----------------------------------------------------------------- presets
_THRASH_WORKLOAD = {
    # footprint 2x the default EPC: roughly half of all accesses fault
    "pattern": "uniform",
    "footprint": "2M",
    "n_accesses": 6000,
    "read_frac": 0.7,
    "accesses_per_instruction": 0.000125,
}

PRESETS: dict[str, dict] = {
    # five-model ordering on a thrashing uniform trace
    "trend": {
        "models": ["baseline", "secscale", "penglai", "dfp", "sgx-client"],
        "total_size": "64M",
        "epc_size": "1M",
        "workload": dict(_THRASH_WORKLOAD),
    },
    # page-fault penalty sensitivity of the synchronous-fault designs
    "fault-sweep": {
        "model": "sgx-client",
        "total_size": "64M",
        "epc_size": "1M",
        "workload": dict(_THRASH_WORKLOAD),
        "sweep": [
            {"latency": {"sgx_fault_penalty": p}}
            for p in (5000, 10000, 20000, 30000, 40000)
        ],
    },
    # clubbing and the top-digest cache, each toggled off in turn
    "ablation": {
        "model": "secscale",
        "total_size": "64M",
        "epc_size": "1M",
        "workload": {
            "pattern": "zipf",
            "zipf_s": 1.0,
            "footprint": "8M",
            "n_accesses": 6000,
            "accesses_per_instruction": 0.000125,
        },
        "sweep": [{}, {"clubbing": False}, {"top_cache": False}],
    },
    # footprint inside the page cache: integrity machinery is the only cost
    "merkle-only": {
        "model": "sgx-client",
        "total_size": "64M",
        "epc_size": "1M",
        "workload": dict(_THRASH_WORKLOAD, footprint="512K"),
    },
    # crypto latencies zeroed: paging is the only cost
    "fault-only": {
        "model": "sgx-client",
        "total_size": "64M",
        "epc_size": "1M",
        "latency": {"crypto_block_cycles": 0, "crypto_occupancy_cycles": 0},
        "workload": dict(_THRASH_WORKLOAD),
    },
    # the full physical-adversary suite
    "attack-suite": {
        "attack": {"kinds": list(ATTACK_KINDS), "seeds": 100},
    },
}


# ------------------------------------------------------------------ loading
def load_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Merge preset, file and flag layers, then validate once."""
    return RunConfig.from_dict(merge_layers(path, preset, overrides))


def merge_layers(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> dict:
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"preset: must be one of {sorted(PRESETS)}, got {preset!r}"
            )
        merged = _deep_merge(merged, PRESETS[preset])
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        merged = _deep_merge(merged, loaded)
    if overrides:
        merged = _deep_merge(merged, overrides)
    return merged


def expand_sweep(merged: dict) -> list[RunConfig]:
    """One RunConfig per sweep row, each row deep-merged over the base."""
    base = {k: v for k, v in merged.items() if k != "sweep"}
    rows = merged.get("sweep") or [{}]
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(f"sweep[{i}]: must be an override object")
        out.append(RunConfig.from_dict(_deep_merge(base, row)))
    return out
