#!/usr/bin/env python3
"""Five-model slowdown ordering on the thrashing uniform trace.

For each seed the same trace runs through every model; the run passes when
the overlapped design is strictly cheapest among the protected models and
the synchronous-fault designs are dearest, i.e.
baseline < secscale < penglai < dfp <= sgx-client (total cycles).
"""

import argparse
import csv
import sys

from enclavesim.config import load_config
from enclavesim.sim import REPORT_COLUMNS, compare


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="trend.csv")
    args = ap.parse_args(argv)

    ordered_seeds = 0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for seed in range(args.seeds):
            cfg = load_config(preset="trend", overrides={"seed": seed})
            reports = compare(cfg, cfg.records(), cfg.models)
            writer.writerows(reports[m].csv_row() for m in cfg.models)
            c = {m: reports[m].total_cycles for m in cfg.models}
            ordered = (
                c["baseline"] < c["secscale"] < c["penglai"] < c["dfp"] <= c["sgx-client"]
            )
            ordered_seeds += ordered
            print(
                f"seed {seed}: secscale={c['secscale']} penglai={c['penglai']} "
                f"dfp={c['dfp']} sgx-client={c['sgx-client']} "
                f"{'ok' if ordered else 'ORDER VIOLATED'}"
            )
    print(f"ordering held on {ordered_seeds}/{args.seeds} seeds -> {args.out}")
    return 0 if ordered_seeds == args.seeds else 1


if __name__ == "__main__":
    sys.exit(main())
