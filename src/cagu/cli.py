"""Command-line surface.

Subcommands: gen, train, eval, sweep-snr, sweep-beta, ablate, gradcheck,
export. Exit codes: 0 success, 2 validation failure, 1 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from functools import partial
from pathlib import Path

from .config import ABLATION_MODES, TrainConfig
from .errors import CaguError, ConfigError, FormatError, ShapeError
from .hsi import (SynthSpec, generate_synthetic, read_container,
                  write_container, write_text_atomic)
from .train import (GRADCHECK_CONFIG, evaluate_checkpoint,
                    export_abundance_maps, gradcheck, load_checkpoint,
                    run_ablation, run_beta_sweep, run_snr_sweep, train,
                    write_metrics_csv)


def _float_list(text: str):
    return [float(v) for v in text.split(",") if v.strip() != ""]


# TrainConfig fields settable by flag, in --help order; --ablation sets
# ablation_mode, every other flag is its field's name with dashes. The
# studies take their seeds from --seeds, so only ``train`` adds --seed.
_TRAIN_FLAGS = ("epochs", "lr", "weight_decay", "beta", "k_steps", "radius",
                "patch_size", "ablation_mode")


def _add_train_flags(p: argparse.ArgumentParser):
    defaults = TrainConfig()
    for name in _TRAIN_FLAGS:
        default = getattr(defaults, name)
        if name == "ablation_mode":
            p.add_argument("--ablation", dest=name, choices=ABLATION_MODES,
                           default=default)
        else:
            p.add_argument("--" + name.replace("_", "-"), type=type(default),
                           default=default)


def _config_from_args(args, **overrides) -> TrainConfig:
    flags = {name: getattr(args, name) for name in _TRAIN_FLAGS}
    return TrainConfig(**flags, **overrides).validate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cagu",
        description="Hyperspectral unmixing with transformer features and "
                    "content-adaptive graph refinement.")
    # flags are spelled out: a study's --seed would abbreviate its --seeds
    sub = parser.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, allow_abbrev=False))

    gen = sub.add_parser("gen", help="generate a synthetic scene container")
    gen.add_argument("--height", type=int, required=True)
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--bands", type=int, required=True)
    gen.add_argument("--endmembers", type=int, required=True)
    gen.add_argument("--snr", type=float, default=30.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--alpha", type=float, default=1.0,
                     help="Dirichlet concentration for abundances")
    gen.add_argument("--no-purity", action="store_true",
                     help="skip planting pure pixels")

    tr = sub.add_parser("train", help="train on a scene container")
    tr.add_argument("--data", required=True)
    _add_train_flags(tr)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--resume", action="store_true",
                    help="continue from the checkpoint file")
    tr.add_argument("--endmembers", type=int, default=None,
                    help="override the endmember count (needed when the "
                         "scene has no ground truth)")

    ev = sub.add_parser("eval", help="evaluate a checkpoint against a scene")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--out-dir", required=True)

    sw = sub.add_parser("sweep-snr", help="train across noise levels")
    sw.add_argument("--snrs", type=_float_list, default=[10.0, 20.0, 30.0, 40.0])
    sw.add_argument("--seeds", type=int, default=3,
                    help="number of seeds per noise level")
    _add_train_flags(sw)
    sw.add_argument("--out", default=None, help="CSV path (default: stdout)")

    sb = sub.add_parser("sweep-beta", help="train across residual strengths")
    sb.add_argument("--betas", type=_float_list,
                    default=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    sb.add_argument("--seeds", type=int, default=1)
    _add_train_flags(sb)
    sb.add_argument("--out", default=None)

    ab = sub.add_parser("ablate", help="compare no-graph / static / dynamic")
    ab.add_argument("--seeds", type=int, default=1)
    ab.add_argument("--snr", type=float, default=80.0)
    _add_train_flags(ab)
    ab.add_argument("--out", default=None)

    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of every gradient group")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=1e-4)

    ex = sub.add_parser("export", help="write abundance PGMs and metrics CSV")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--data", required=True)
    ex.add_argument("--out-dir", required=True)

    return parser


def _emit(text: str, out_path):
    if out_path:
        write_text_atomic(out_path, text)
        print(f"wrote {out_path}")
    else:
        print(text, end="")


def _dispatch(args) -> int:
    if args.command == "gen":
        spec = SynthSpec(height=args.height, width=args.width,
                         bands=args.bands, endmembers=args.endmembers,
                         snr_db=args.snr, seed=args.seed,
                         dirichlet_alpha=args.alpha,
                         purity_pixels=not args.no_purity)
        write_container(generate_synthetic(spec), args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "train":
        config = _config_from_args(
            args, seed=args.seed, data_path=args.data,
            checkpoint_path=args.checkpoint, n_endmembers=args.endmembers)
        result = train(config,
                       resume_from=args.checkpoint if args.resume else None)
        print(f"final loss {result.checkpoint.final_loss:.6f} "
              f"after {config.epochs} epochs; wrote {args.checkpoint}")
        return 0

    if args.command == "eval":
        ckpt = load_checkpoint(args.checkpoint)
        cube = read_container(args.data)
        _, result = evaluate_checkpoint(ckpt, cube)
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        write_metrics_csv(args.out_dir, Path(args.data).stem, ckpt, result)
        if result is None:
            print("scene has no ground truth; writing reconstruction stats only")
        else:
            print(f"mean_sad {result.mean_sad:.4f} rmse {result.rmse:.4f}")
        return 0

    if args.command == "sweep-snr":
        config = _config_from_args(args)
        report = run_snr_sweep(config, args.snrs, range(args.seeds))
        _emit(report.to_csv(), args.out)
        return 0 if report.summary["trend_ok"] else 1

    if args.command == "sweep-beta":
        config = _config_from_args(args)
        report = run_beta_sweep(config, args.betas, range(args.seeds))
        _emit(report.to_csv(), args.out)
        return 0

    if args.command == "ablate":
        config = _config_from_args(args)
        report = run_ablation(config, range(args.seeds), snr_db=args.snr)
        _emit(report.to_csv(), args.out)
        return 0

    if args.command == "gradcheck":
        if not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise ConfigError(
                f"--tolerance must be positive and finite, got {args.tolerance}")
        config = TrainConfig(**{**GRADCHECK_CONFIG, "seed": args.seed})
        report = gradcheck(config, tolerance=args.tolerance)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    if args.command == "export":
        ckpt = load_checkpoint(args.checkpoint)
        cube = read_container(args.data)
        for path in export_abundance_maps(ckpt, cube, args.out_dir,
                                          Path(args.data).stem):
            print(f"wrote {path}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse validation failure
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (ConfigError, ShapeError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CaguError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
