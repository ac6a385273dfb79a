"""Command-line front end: runs, comparisons, storage tables, attack suites.

Exit codes are a stable contract: 0 for benign completion, 2 when a security
event (catastrophic integrity failure) occurred, 1 for usage or configuration
errors, 3 when compared models end in different final memory (a model is
wrong, so no report is written).  All outputs are reproducible byte for byte
for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gzip
import json
import os
import sys
import zlib

from .adversary import ATTACK_KINDS, run_suite
from .config import (
    PRESETS,
    ConfigError,
    RunConfig,
    expand_sweep,
    merge_layers,
    parse_size,
)
from .forest import REGION_PAGES, forest_storage
from .layout import KEY_SLOT_BYTES, PAGE_SIZE, check_size
from .merkle import merkle_storage_bytes
from .sim import MODELS, REPORT_COLUMNS, Report, StateMismatch, compare, run
from .workload import (
    PATTERNS,
    SPEC_KEYS,
    SyntheticSpec,
    Trace,
    TraceParseError,
    format_record,
    generate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SECURITY = 2
EXIT_MISMATCH = 3

MIB = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _report_paths(out: str, config: str | None) -> tuple[str, str]:
    """The report's JSON and CSV paths; neither may be the config file."""
    paths = f"{out}.json", f"{out}.csv"
    if config is not None:
        for path in paths:
            if os.path.exists(path) and os.path.samefile(path, config):
                raise ConfigError(f"output {path} would overwrite the config file {config}")
    return paths


def _report_files(reports: list[Report], paths: tuple[str, str]) -> tuple[str, str]:
    jpath, cpath = paths
    payload = [r.to_dict() for r in reports]
    _write_json(jpath, payload[0] if len(payload) == 1 else payload)
    _write_csv(cpath, REPORT_COLUMNS, [r.csv_row() for r in reports])
    return jpath, cpath


def _file_error(path: str, e: Exception) -> ConfigError:
    """A file that cannot be read or written, as one usage-error line."""
    return ConfigError(f"{path}: {getattr(e, 'strerror', None) or e}")


def _records(cfg: RunConfig) -> Trace:
    """The run's trace; a trace file that cannot be read is a usage error."""
    try:
        return cfg.records()
    except (OSError, EOFError, zlib.error, UnicodeDecodeError, TraceParseError) as e:
        raise _file_error(cfg.workload.trace, e) from e


def _config_overrides(args) -> dict:
    overrides = {}
    for key in ("model", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return overrides


# -------------------------------------------------------------- subcommands
def cmd_run(args) -> int:
    merged = merge_layers(args.config, args.preset, _config_overrides(args))
    cfg = RunConfig.from_dict(merged)
    paths = _report_paths(cfg.out or "report", args.config)
    report = run(cfg, _records(cfg))
    jpath, cpath = _report_files([report], paths)
    print(
        f"{report.model} seed={report.seed}: {report.total_cycles} cycles, "
        f"{report.accesses} accesses  -> {jpath} {cpath}"
    )
    if report.security_failure:
        print(f"security failure: {report.security_failure}", file=sys.stderr)
        return EXIT_SECURITY
    return EXIT_OK


def cmd_compare(args) -> int:
    merged = merge_layers(args.config, args.preset, _config_overrides(args))
    cfg = RunConfig.from_dict(merged)
    paths = _report_paths(cfg.out or "compare", args.config)

    if merged.get("sweep"):
        rows = expand_sweep(merged)
        reports = [run(rc, _records(rc)) for rc in rows]
        first = reports[0].total_cycles
        for rep in reports:
            rep.slowdown = rep.total_cycles / first if first else 0.0
    else:
        names = cfg.models or MODELS
        if len(names) < 2:
            raise ConfigError("compare needs at least two models (or a sweep)")
        try:
            table = compare(cfg, _records(cfg), tuple(dict.fromkeys(names)))
        except StateMismatch as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_MISMATCH
        reports = [table[name] for name in names]  # duplicates keep their rows

    jpath, cpath = _report_files(reports, paths)
    width = max(len(r.model) for r in reports)
    for rep in reports:
        slow = f"{rep.slowdown:6.3f}" if rep.slowdown is not None else "     -"
        print(
            f"{rep.model:<{width}}  total={rep.total_cycles:>12}  "
            f"slowdown={slow}  dram={rep.dram_total}"
        )
    print(f"-> {jpath} {cpath}")
    if any(r.security_failure for r in reports):
        return EXIT_SECURITY
    return EXIT_OK


def cmd_storage(args) -> int:
    total = args.total_size
    epc = args.epc_size
    for flag, size in (("--total-size", total), ("--epc-size", epc)):
        try:
            check_size(flag, size)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if epc > total:
        raise ConfigError(f"--epc-size {epc:#x} exceeds --total-size {total:#x}")
    fs = forest_storage(total)
    merkle = merkle_storage_bytes(epc)
    client_tree = merkle_storage_bytes(total)  # counter tree over all memory
    key_table = (total // PAGE_SIZE) * KEY_SLOT_BYTES
    regions = -(-total // (REGION_PAGES * PAGE_SIZE))

    print(f"protected memory      {total / (1 << 30):.2f} GiB")
    print(
        f"MAC forest            {fs.total_bytes / MIB:.2f} MB"
        f"  (leaves {fs.leaf_bytes / MIB:.2f}, mids {fs.mid_bytes / MIB:.2f},"
        f" tops {fs.top_bytes / MIB:.2f})"
    )
    print(f"top-level MACs        {regions} entries, {fs.top_bytes / MIB:.2f} MB in EPC")
    print(f"EPC counter tree      {merkle / MIB:.2f} MB over {epc / MIB:.0f} MiB")
    print(f"full-memory counters  {client_tree / MIB:.2f} MB (client-style tree)")
    print(f"combined metadata     {(fs.total_bytes + merkle) / MIB:.2f} MB")
    print(f"key table             {key_table / (1 << 30):.2f} GiB")
    print(
        f"exact bytes           forest={fs.total_bytes} merkle={merkle}"
        f" client_tree={client_tree} key_table={key_table}"
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    kinds = ATTACK_KINDS if args.kinds == "all" else tuple(args.kinds.split(","))
    for k in kinds:
        if k not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {k!r}")
    if args.seeds <= 0:
        raise ConfigError(f"--seeds: must be positive, got {args.seeds}")
    out = args.out or "attacks"
    rows = [dataclasses.asdict(r) for r in run_suite(kinds, range(args.seeds))]
    columns = list(rows[0])
    _write_json(f"{out}.json", rows)
    _write_csv(f"{out}.csv", columns, [[r[c] for c in columns] for r in rows])
    for kind in kinds:
        sub = [r for r in rows if r["kind"] == kind]
        hits = sum(r["detected"] for r in sub)
        layered = sum(r["layer_matched"] for r in sub)
        print(f"{kind:24s} detected {hits}/{len(sub)}  expected layer {layered}/{len(sub)}")
    print(f"-> {out}.json {out}.csv")
    return EXIT_SECURITY if any(r["detected"] for r in rows) else EXIT_OK


def cmd_gen_trace(args) -> int:
    try:
        spec = SyntheticSpec(**{name: getattr(args, name) for name in SPEC_KEYS.values()})
    except ValueError as e:
        raise ConfigError(str(e)) from e
    trace = generate(spec)
    opener = gzip.open if args.out.endswith(".gz") else open
    try:
        with opener(args.out, "wt") as fh:
            fh.writelines(format_record(rec) + "\n" for rec in trace)
    except OSError as e:
        raise _file_error(args.out, e) from e
    print(f"{len(trace)} records -> {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------- parser
def _size(text: str) -> int:
    return parse_size(text, "size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enclavesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("config", nargs="?", help="JSON run-configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named experiment family")
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path base (.json/.csv appended)")

    p_run = sub.add_parser("run", help="single simulation run")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="same trace through several models or a sweep")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sto = sub.add_parser("storage", help="metadata storage table for a memory size")
    p_sto.add_argument("--total-size", type=_size, default=512 << 30)
    p_sto.add_argument("--epc-size", type=_size, default=128 << 20)
    p_sto.set_defaults(func=cmd_storage)

    p_att = sub.add_parser("attack", help="physical-adversary detection suite")
    p_att.add_argument("--kinds", default="all", help="comma-separated kinds, or 'all'")
    p_att.add_argument("--seeds", type=int, default=100)
    p_att.add_argument("--out")
    p_att.set_defaults(func=cmd_attack)

    p_gen = sub.add_parser("gen-trace", help="write a synthetic trace file")
    defaults = SyntheticSpec()
    for key, name in SPEC_KEYS.items():
        default = getattr(defaults, name)
        p_gen.add_argument(
            "--" + key.replace("_", "-"),
            dest=name,
            default=default,
            type=_size if name.endswith("_bytes") else type(default),
            choices=PATTERNS if name == "pattern" else None,
        )
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
