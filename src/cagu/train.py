"""Training loop, optimizer, checkpoints, and the experiment harnesses.

Training runs full-image batches: one forward/backward/update per epoch on a
fresh tape. Everything is seeded and single-threaded by default, so a
(config, seed) pair determines the checkpoint byte for byte; the sweep
harnesses optionally fan out over worker processes capped by CAGU_THREADS.
"""

from __future__ import annotations

import logging
import math
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import decoder as dec
from . import model as mdl
from .autodiff import Tape, Tensor, backward, finite_diff_check, first_nonfinite
from .config import TrainConfig
from .errors import (ConfigError, FormatError, NonFiniteGradientError,
                     NonFiniteLossError)
from .hsi import (ByteReader, HsiCube, SynthSpec, atomic_writer,
                  generate_synthetic, write_pgm, write_text_atomic)

log = logging.getLogger("cagu")

CHECKPOINT_MAGIC = b"CAGC"
CHECKPOINT_VERSION = 1
MAX_RANK = 32  # the most dimensions numpy 1.24 allows an array

# Published full-scale benchmark value on the synthetic protocol, reported
# next to sweep output for context (never asserted at desk scale).
REFERENCE_SNR40_SAD = 0.0092

DESK_SCENE = dict(height=30, width=30, bands=60, endmembers=3)


def worker_count() -> int:
    """Worker cap for sweep parallelism: env CAGU_THREADS, 1 when unset or
    empty; ConfigError when it is not a positive integer."""
    text = os.environ.get("CAGU_THREADS", "")
    if not text:
        return 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(
            f"CAGU_THREADS must be a positive integer, got {text!r}")
    return workers


# ---------------------------------------------------------------------------
# optimizer

class AdamW:
    """Adam with decoupled weight decay; state keyed by parameter name."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Dict[str, Tensor], lr: float,
                 weight_decay: float):
        self.params = dict(sorted(params.items()))
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        # the update's temporaries, two of the largest group's size
        self._scratch = np.empty((2, max((t.data.size for t in self.params.values()),
                                         default=0)))

    def step(self):
        """One update of every parameter; refuses, before changing anything,
        when a gradient holds a NaN or an infinity, or an entry so large
        that its square, which feeds the second moment, overflows."""
        # one reduction per group: g . g is not finite when an entry is NaN
        # or infinite, or when the squares or their sum overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in self.params.items():
                if p.grad is not None and not np.isfinite(
                        np.dot(p.grad.ravel(), p.grad.ravel())):
                    raise NonFiniteGradientError(
                        f"gradient of parameter group {name} is not finite "
                        f"or too large to square")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            # m += (1 - beta1) g, v += (1 - beta2) g g and
            # p -= lr (m / bias1) / (sqrt(v / bias2) + eps), one numpy call
            # per operation, in their order, into two scratch buffers
            a, b = (buf[:p.data.size].reshape(p.data.shape) for buf in self._scratch)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=a), out=a)
            np.divide(m, bias1, out=a)
            np.multiply(self.lr, a, out=a)
            np.sqrt(np.divide(v, bias2, out=b), out=b)
            b += self.eps
            p.data -= np.divide(a, b, out=a)
            if self.weight_decay:
                p.data -= np.multiply(self.lr * self.weight_decay, p.data, out=a)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state(self, arrays: Dict[str, np.ndarray], step_count: int):
        """Moments as ``state_arrays`` names them; ConfigError, before any
        moment is replaced, when one is missing or shaped unlike its
        parameter, or when ``arrays`` holds a key that names no moment of
        the model (the first such key in sorted order)."""
        for name, p in self.params.items():
            for key in (f"m.{name}", f"v.{name}"):
                stored = arrays.get(key)
                if stored is None or stored.shape != p.data.shape:
                    raise ConfigError(f"checkpoint has no {key} shaped like "
                                      f"its parameter, {p.data.shape}")
        unexpected = sorted(set(arrays) - set(self.state_arrays()))
        if unexpected:
            raise ConfigError(f"checkpoint has moment {unexpected[0]}, which "
                              "the model does not have")
        for name in self.params:
            self.m[name] = arrays[f"m.{name}"].copy()
            self.v[name] = arrays[f"v.{name}"].copy()
        self.step_count = step_count


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    """Serializable training state; round-trips byte-exactly. It holds the
    state after ``config.epochs`` epochs, one optimizer step each."""

    config: TrainConfig
    parameters: Dict[str, np.ndarray]
    opt_moments: Dict[str, np.ndarray]
    final_loss: float


def _write_named_arrays(fh, arrays: Dict[str, np.ndarray]) -> None:
    """Each array's header, then its data from the array's own buffer, so
    no copy of the data is made on the way to the file."""
    fh.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{max(arr.ndim, 1)}I", *(arr.shape or (0,))))
        fh.write(memoryview(arr))


def _unpack_named_arrays(reader: ByteReader) -> Dict[str, np.ndarray]:
    (count,) = reader.unpack("<I", "array count")
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<I", "name length")
        name_at = reader.offset
        try:
            name = reader.read(name_len, "array name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("array name is not UTF-8", name_at) from None
        if name in out:
            raise FormatError(f"array {name} appears twice", name_at)
        rank_at = reader.offset
        (ndim,) = reader.unpack("<I", f"rank of {name}")
        if ndim > MAX_RANK:
            raise FormatError(f"rank {ndim} of {name} is above {MAX_RANK}",
                              rank_at)
        shape = reader.unpack(f"<{max(ndim, 1)}I", f"shape of {name}")[:ndim]
        values = reader.array("<f8", math.prod(shape), name)
        try:
            out[name] = values.reshape(shape).copy()
        except ValueError:  # a zero extent beside extents numpy cannot hold
            raise FormatError(f"shape {shape} of {name} is not an array "
                              "shape", rank_at + 4) from None
    return out


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path``; the stored config holds no checkpoint
    path, so a run gives the same bytes wherever it is saved."""
    config_blob = replace(ckpt.config, checkpoint_path=None).to_json().encode("utf-8")
    with atomic_writer(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        _write_named_arrays(fh, ckpt.parameters)
        _write_named_arrays(fh, ckpt.opt_moments)
        # opt_step and epoch, both config.epochs
        epochs = ckpt.config.epochs
        fh.write(struct.pack("<QId", epochs, epochs, ckpt.final_loss))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a truncated or malformed file, one holding a value
    that is not finite or an array name twice, or one whose trailer is not
    ``train``'s opt_step == epoch == config.epochs, raises FormatError with
    the byte offset of the defect."""
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read(), "checkpoint", CHECKPOINT_MAGIC)
    reader.version(CHECKPOINT_VERSION)
    (config_len,) = reader.unpack("<I", "config length")
    config_at = reader.offset
    config_blob = reader.read(config_len, "config")
    try:
        config = TrainConfig.from_json(config_blob.decode("utf-8"))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise FormatError(f"unreadable checkpoint config ({exc})",
                          config_at) from None
    parameters = _unpack_named_arrays(reader)
    moments = _unpack_named_arrays(reader)
    trailer_at = reader.offset
    opt_step, epoch, final_loss = reader.unpack("<QId", "trailer")
    if epoch != config.epochs:
        raise FormatError(f"epoch {epoch} is not the config's {config.epochs}",
                          trailer_at + 8)
    if opt_step != epoch:
        raise FormatError(f"opt_step {opt_step} is not epoch {epoch}",
                          trailer_at)
    if not math.isfinite(final_loss):
        raise FormatError("final_loss is not finite", trailer_at + 12)
    reader.end()
    return Checkpoint(config, parameters, moments, final_loss)


def params_from_checkpoint(ckpt: Checkpoint, bands: int) -> mdl.ModelParams:
    """The model of ``ckpt``, drawing no random numbers.

    Every name and shape comes from ``ModelParams.template``, the
    initializer's tree over a zero draw, so the initializer stays their
    one owner. ConfigError when the names differ from the model's or an
    array is shaped unlike its tensor. Each tensor gets its own copy of
    its stored array, so training or writing into the model leaves
    ``ckpt`` as it was."""
    cfg = ckpt.config
    p = cfg.n_endmembers
    if p is None:  # the endmember count is the kernel's second extent
        kernel = ckpt.parameters.get("decoder.endmember_w")
        shape = () if kernel is None else kernel.shape
        if len(shape) != 4 or shape[1] < 2:
            raise ConfigError("checkpoint has no decoder.endmember_w kernel "
                              f"(bands, endmembers >= 2, 1, 1); found {shape}")
        p = shape[1]
    params = mdl.ModelParams.template(bands, p, cfg)
    named = params.named_parameters()
    if set(named) != set(ckpt.parameters):
        raise ConfigError("checkpoint parameter names do not match the model")
    for name, tensor in named.items():
        stored = ckpt.parameters[name]
        if stored.shape != tensor.data.shape:
            raise ConfigError(
                f"checkpoint shape {stored.shape} for {name} does not match "
                f"model {tensor.data.shape}")
        tensor.data = stored.copy()
    return params


# ---------------------------------------------------------------------------
# training

@dataclass
class InvariantLog:
    """Per-epoch constraint tracking (all post optimizer step)."""

    abundance_min: List[float] = field(default_factory=list)
    abundance_sum_dev: List[float] = field(default_factory=list)
    mix_weight_sum_dev: List[float] = field(default_factory=list)
    mix_weight_min: List[float] = field(default_factory=list)
    endmember_min: List[float] = field(default_factory=list)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    losses: List[float]
    invariants: InvariantLog


# config fields a resumed run may change: the run's length and its file
# (a checkpoint stores no path, so it always differs from a resumed run's)
RESUMABLE_CHANGES = ("epochs", "checkpoint_path")


def _check_resumable(saved: TrainConfig, config: TrainConfig):
    """ConfigError naming every field, other than ``RESUMABLE_CHANGES``,
    in which ``config`` differs from the checkpoint's config."""
    differ = []
    for f in fields(TrainConfig):
        old, new = getattr(saved, f.name), getattr(config, f.name)
        if f.name not in RESUMABLE_CHANGES and old != new:
            differ.append(f"{f.name} {old!r} -> {new!r}")
    if differ:
        raise ConfigError("cannot resume: config differs from the checkpoint's "
                          "in " + ", ".join(differ))


def train(config: TrainConfig, cube: HsiCube,
          resume_from: Optional[str] = None) -> TrainResult:
    """Run the configured number of full-image epochs on ``cube`` and
    checkpoint the end.

    ``resume_from`` restores parameters and optimizer state from an earlier
    checkpoint and continues to ``config.epochs`` total; the resumed
    trajectory is bit-identical to an uninterrupted run. The configs may
    differ only in ``RESUMABLE_CHANGES``; any other difference raises
    ConfigError before training.
    """
    config.validate()
    observed = Tensor(cube.data)

    start_epoch = 0
    if resume_from is not None:
        prior = load_checkpoint(resume_from)
        _check_resumable(prior.config, config)
        params = params_from_checkpoint(prior, cube.bands)
        start_epoch = prior.config.epochs
        if start_epoch >= config.epochs:
            raise ConfigError(
                f"checkpoint already at epoch {start_epoch}, target "
                f"{config.epochs}")
    else:
        params = mdl.initialize_from_scene(cube, config)

    named = params.named_parameters()
    optimizer = AdamW(named, lr=config.lr, weight_decay=config.weight_decay)
    if resume_from is not None:
        optimizer.load_state(prior.opt_moments, start_epoch)

    losses: List[float] = []
    invariants = InvariantLog()
    for epoch in range(start_epoch, config.epochs):
        optimizer.zero_grad()
        with Tape() as tape:
            loss, outputs = mdl.training_loss(params, observed, config)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            culprit = first_nonfinite(tape) or "loss"
            raise NonFiniteLossError(
                f"epoch {epoch + 1}: non-finite loss; first non-finite tensor "
                f"from {culprit}")
        abund = outputs.abundances.data
        invariants.abundance_min.append(float(abund.min()))
        invariants.abundance_sum_dev.append(
            float(np.max(np.abs(abund.sum(axis=0) - 1.0))))
        # held past backward, the outputs would keep their tensors' gradients
        # alive through it, and into the next epoch's forward; the abundances
        # held into the next forward would sit where this epoch's heap layout
        # put them, and each epoch's layout would drift from the last
        del outputs, abund
        backward(tape, loss)
        del loss
        optimizer.step()
        params.decoder.clamp_endmembers()

        losses.append(loss_value)
        weights = params.graph_mix.mix_weights()
        invariants.mix_weight_sum_dev.append(abs(float(weights.sum()) - 1.0))
        invariants.mix_weight_min.append(float(weights.min()))
        invariants.endmember_min.append(
            float(params.decoder.endmember_w.data.min()))
        log.info("epoch %d loss %.6f", epoch + 1, loss_value)

    ckpt = Checkpoint(
        config=config,
        parameters={k: t.data.copy() for k, t in named.items()},
        opt_moments=optimizer.state_arrays(),
        final_loss=losses[-1],
    )
    if config.checkpoint_path:
        save_checkpoint(ckpt, config.checkpoint_path)
    return TrainResult(ckpt, losses, invariants)


def evaluate_checkpoint(ckpt: Checkpoint, cube: HsiCube
                        ) -> Tuple[mdl.ForwardOutputs, Optional[dec.UnmixResult]]:
    """Forward pass with checkpointed weights; metrics when truth is known.
    It reads no optimizer moments, so a checkpoint whose moments would not
    resume (one missing, or one the model does not have) still evaluates."""
    params = params_from_checkpoint(ckpt, cube.bands)
    outputs = mdl.forward(params, Tensor(cube.data), ckpt.config)
    result = None
    if cube.gt_endmembers is not None and cube.gt_abundances is not None:
        result = dec.evaluate(params.decoder.endmember_matrix(),
                              outputs.abundances.data,
                              cube.gt_endmembers, cube.gt_abundances)
    return outputs, result


# ---------------------------------------------------------------------------
# experiment harnesses

def make_desk_scene(snr_db: float, seed: int, scene: Optional[dict] = None
                    ) -> HsiCube:
    """Canonical pure-pixel synthetic scene used by the sweep harnesses."""
    return generate_synthetic(_desk_spec(snr_db, seed, scene))


def _desk_spec(snr_db: float, seed: int, scene: Optional[dict]) -> SynthSpec:
    merged = dict(DESK_SCENE)
    if scene:
        merged.update(scene)
    return SynthSpec(snr_db=snr_db, seed=seed, purity_pixels=True, **merged)


def _sweep_job(args):
    run_config, spec = args
    cube = generate_synthetic(spec)
    result = train(run_config, cube)
    _, metrics = evaluate_checkpoint(result.checkpoint, cube)
    return {
        "snr_db": spec.snr_db,
        "seed": spec.seed,
        "beta": run_config.beta,
        "mode": run_config.ablation_mode,
        "mean_sad": metrics.mean_sad,
        "rmse": metrics.rmse,
        "final_loss": result.checkpoint.final_loss,
    }


def _run_sweep(cases, seeds: Sequence[int], scene: Optional[dict]) -> List[dict]:
    """One row per (config, snr_db) case and seed, in that order. Every run's
    config and scene are checked before the first run trains, so a bad
    level raises ConfigError having trained nothing. The runs share
    min(``worker_count()``, runs) worker processes, or run serially."""
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ConfigError("a sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):  # a repeat counts one run twice
        raise ConfigError(f"a sweep repeats a seed: {seeds}")
    jobs = [(replace(config, seed=seed, checkpoint_path=None).validate(),
             _desk_spec(snr_db, seed, scene))
            for config, snr_db in cases for seed in seeds]
    workers = min(worker_count(), len(jobs))
    if workers == 1:
        return [_sweep_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_job, jobs))


@dataclass
class SweepReport:
    rows: List[dict]
    aggregates: List[dict]
    notes: List[str]
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        cols = ("snr_db", "seed", "beta", "mode", "mean_sad", "rmse",
                "final_loss")
        lines = [",".join(cols)]
        for row in self.rows + self.aggregates:
            lines.append(",".join(_fmt(row.get(c, "")) for c in cols))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _medians(rows: List[dict], key: str, metric: str = "mean_sad"
             ) -> Dict[object, float]:
    """Median of ``metric`` over the rows sharing each value of ``key``, in
    the order the values first appear."""
    groups: Dict[object, List[float]] = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row[metric])
    return {value: float(np.median(level)) for value, level in groups.items()}


def run_snr_sweep(config: TrainConfig, snrs: Sequence[float],
                  seeds: Sequence[int], scene: Optional[dict] = None
                  ) -> SweepReport:
    """Train per (snr, seed); report per-run rows plus per-SNR medians and
    whether the noise trend (higher SNR, no worse SAD) holds."""
    if len(set(snrs)) != len(snrs):  # a repeat trains one level twice
        raise ConfigError(f"snr sweep repeats a noise level: {list(snrs)}")
    if len(snrs) < 2:
        raise ConfigError("snr sweep needs at least 2 noise levels")
    rows = sorted(_run_sweep([(config, float(s)) for s in snrs], seeds, scene),
                  key=lambda r: (r["snr_db"], r["seed"]))
    sad, rmse = _medians(rows, "snr_db"), _medians(rows, "snr_db", "rmse")
    aggregates = [{"snr_db": snr, "seed": "median", "beta": config.beta,
                   "mode": config.ablation_mode, "mean_sad": sad[snr],
                   "rmse": rmse[snr]} for snr in sad]
    best = aggregates[-1]["mean_sad"]
    worst = aggregates[0]["mean_sad"]
    trend_ok = best <= worst
    notes = [
        f"trend_ok={trend_ok} (median mean_sad {best:.4f} at "
        f"{aggregates[-1]['snr_db']:g} dB vs {worst:.4f} at "
        f"{aggregates[0]['snr_db']:g} dB)",
        f"full-scale reference (context only): mean_sad {REFERENCE_SNR40_SAD} "
        "at 40 dB",
    ]
    return SweepReport(rows, aggregates, notes, summary={"trend_ok": trend_ok})


# graph mode -> the ablation case that trains it, in report order
ABLATION_CASES = {"none": "no_graph", "static": "static_grid",
                  "dynamic": "dynamic"}


def run_ablation(config: TrainConfig, seeds: Sequence[int] = (0,),
                 snr_db: float = 80.0, scene: Optional[dict] = None
                 ) -> SweepReport:
    """Train the three graph cases side by side with shared seeds/config."""
    cases = [(replace(config, ablation_mode=mode), snr_db) for mode in ABLATION_CASES]
    rows = [dict(row, case=ABLATION_CASES[row["mode"]])
            for row in _run_sweep(cases, seeds, scene)]
    medians = _medians(rows, "case")
    ordered = medians["dynamic"] <= medians["static_grid"] <= medians["no_graph"]
    notes = [
        "median mean_sad: " + ", ".join(
            f"{case}={sad:.4f}" for case, sad in medians.items()),
        f"expected ordering dynamic <= static <= none holds: {ordered} "
        "(soft check; stochastic at desk scale)",
    ]
    return SweepReport(rows, [], notes,
                       summary={"medians": medians, "ordering_holds": ordered})


def run_beta_sweep(config: TrainConfig, betas: Sequence[float],
                   seeds: Sequence[int] = (0,), snr_db: float = 80.0,
                   scene: Optional[dict] = None) -> SweepReport:
    """Train per residual strength; flag whether the best value is interior."""
    if len(set(betas)) != len(betas):
        raise ConfigError(f"beta sweep repeats a value: {list(betas)}")
    if not betas:
        raise ConfigError("beta sweep needs at least one value")
    cases = [(replace(config, beta=float(b)), snr_db) for b in betas]
    rows = sorted(_run_sweep(cases, seeds, scene),
                  key=lambda r: (r["beta"], r["seed"]))
    by_beta = _medians(rows, "beta")
    best_beta = min(by_beta, key=by_beta.get)
    interior = min(by_beta) < best_beta < max(by_beta)
    notes = [
        "median mean_sad by beta: " + ", ".join(
            f"{b:g}={s:.4f}" for b, s in by_beta.items()),
        f"best beta {best_beta:g}; interior optimum: {interior}",
    ]
    return SweepReport(rows, [], notes,
                       summary={"best_beta": best_beta,
                                "interior_optimum": interior})


# ---------------------------------------------------------------------------
# gradient verification over the full model

GRADCHECK_SCENE = dict(height=6, width=6, bands=8, endmembers=2)
GRADCHECK_CONFIG = dict(channels=8, token_dim=8, fused_channels=8,
                        patch_size=2, k_steps=2, beta=0.3, radius=1)
GRADCHECK_MAX_PIXELS = 64


@dataclass
class GradcheckReport:
    errors: Dict[str, float]
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.errors) and max(self.errors.values()) < self.tolerance

    def lines(self) -> List[str]:
        out = []
        for name in sorted(self.errors):
            err = self.errors[name]
            status = "ok" if err < self.tolerance else "FAIL"
            out.append(f"{status:4s} {name:28s} max_rel_err={err:.3e}")
        out.append(f"{'PASS' if self.passed else 'FAIL'} "
                   f"({len(self.errors)} groups, {self.seconds:.1f}s)")
        return out


def gradcheck(config: Optional[TrainConfig] = None,
              cube: Optional[HsiCube] = None,
              params: Optional[mdl.ModelParams] = None,
              tolerance: float = 1e-4, h: float = 1e-6) -> GradcheckReport:
    """Compare reverse-mode gradients against central differences for every
    trainable parameter group on a tiny random scene.

    Groups with requires_grad off are excluded from the report. The step
    defaults to the small end of the legal range: larger steps make central
    differences straddle LeakyReLU kinks, which shows up as phantom gradient
    error.
    """
    if config is None:
        config = TrainConfig(**GRADCHECK_CONFIG)
    config.validate()
    if cube is None:
        cube = make_desk_scene(snr_db=40.0, seed=config.seed,
                               scene=GRADCHECK_SCENE)
    if cube.n_pixels > GRADCHECK_MAX_PIXELS:
        raise ConfigError(
            f"gradcheck scene has {cube.n_pixels} pixels; "
            f"limit is {GRADCHECK_MAX_PIXELS}")
    if params is None:
        params = mdl.initialize_from_scene(cube, config)
    observed = Tensor(cube.data)

    def loss_fn(_probe: Tensor) -> Tensor:
        loss, _ = mdl.training_loss(params, observed, config)
        return loss

    start = time.monotonic()
    errors: Dict[str, float] = {}
    for name, tensor in params.named_parameters().items():
        if not tensor.requires_grad:
            continue  # frozen groups are excluded from the report
        errors[name] = finite_diff_check(loss_fn, tensor, h=h)
    return GradcheckReport(errors, tolerance, time.monotonic() - start)


# ---------------------------------------------------------------------------
# export

def write_metrics_csv(out_dir, dataset: str, ckpt: Checkpoint,
                      result: Optional[dec.UnmixResult]) -> str:
    """``out_dir/metrics.csv``: with ground truth, the aligned metrics rows
    (``decoder.metrics_csv_rows``); without, the checkpoint's final loss.
    ``dataset`` labels the rows; returns the path written."""
    seed = ckpt.config.seed
    rows = (dec.metrics_csv_rows(result, dataset, seed) if result is not None
            else ["dataset,seed,final_loss",
                  f"{dataset},{seed},{ckpt.final_loss:.6f}"])
    path = Path(out_dir) / "metrics.csv"
    write_text_atomic(path, "\n".join(rows) + "\n")
    return str(path)


def export_abundance_maps(ckpt: Checkpoint, cube: HsiCube, out_dir,
                          dataset: str) -> List[str]:
    """Write one grayscale PGM per endmember plus a metrics CSV whose rows
    ``dataset`` labels."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs, result = evaluate_checkpoint(ckpt, cube)
    abund = (result.abundances if result is not None
             else outputs.abundances.data)
    written = []
    for k in range(abund.shape[0]):
        path = out / f"abundance_{k:02d}.pgm"
        write_pgm(path, abund[k])
        written.append(str(path))
    written.append(write_metrics_csv(out, dataset, ckpt, result))
    return written
