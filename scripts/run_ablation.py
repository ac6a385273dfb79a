#!/usr/bin/env python3
"""Optimization ablation: eviction clubbing and the top-digest cache.

Runs the skewed (zipf) trace three times — full design, clubbing off, top
cache off — and reports MAC-forest DRAM traffic.  Both optimizations must
strictly reduce forest accesses on this workload.
"""

import argparse
import csv
import sys

from enclavesim.config import expand_sweep, merge_layers
from enclavesim.sim import REPORT_COLUMNS, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="ablation.csv")
    args = ap.parse_args(argv)

    rows = expand_sweep(merge_layers(preset="ablation", overrides={"seed": args.seed}))
    labels = ("full", "no-clubbing", "no-top-cache")
    forest = {}
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("variant",) + REPORT_COLUMNS)
        for label, rc in zip(labels, rows):
            rep = run(rc, rc.records())
            writer.writerow([label] + rep.csv_row())
            forest[label] = rep.dram.get("forest", 0)
            print(f"{label:<13} forest DRAM accesses: {forest[label]}")

    wins = forest["full"] < forest["no-clubbing"] and forest["full"] < forest["no-top-cache"]
    print(f"both optimizations help: {wins} -> {args.out}")
    return 0 if wins else 1


if __name__ == "__main__":
    sys.exit(main())
