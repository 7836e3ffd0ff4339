#!/usr/bin/env python3
"""Desk-scale study: noise sweep, graph ablation, and residual-strength sweep
on the canonical synthetic scene, written as CSVs for plotting.

Usage:
    python scripts/desk_study.py --out-dir results/ [--seeds 3] [--epochs 200]

Set CAGU_THREADS to parallelize the individual training runs.
"""

import argparse
import sys
from pathlib import Path

from cagu.config import TrainConfig
from cagu.hsi import write_text_atomic
from cagu.train import run_ablation, run_beta_sweep, run_snr_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--snrs", default="10,20,30,40")
    parser.add_argument("--betas", default="0,0.2,0.4,0.6,0.8,1.0")
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = TrainConfig(epochs=args.epochs).validate()
    seeds = range(args.seeds)

    snrs = [float(s) for s in args.snrs.split(",")]
    print(f"noise sweep over {snrs} dB, {args.seeds} seeds ...")
    snr_report = run_snr_sweep(config, snrs, seeds)
    write_text_atomic(out / "snr_sweep.csv", snr_report.to_csv())
    for note in snr_report.notes:
        print(" ", note)

    print("graph ablation (no graph / static grid / dynamic) ...")
    ablation = run_ablation(config, seeds)
    write_text_atomic(out / "ablation.csv", ablation.to_csv())
    for note in ablation.notes:
        print(" ", note)

    betas = [float(b) for b in args.betas.split(",")]
    print(f"residual-strength sweep over {betas} ...")
    beta_report = run_beta_sweep(config, betas, seeds)
    write_text_atomic(out / "beta_sweep.csv", beta_report.to_csv())
    for note in beta_report.notes:
        print(" ", note)

    print(f"wrote {out}/snr_sweep.csv, {out}/ablation.csv, {out}/beta_sweep.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
