"""Measure one call of one cagu workload in a fresh process.

run.py starts this script once per call, with the BLAS and cagu thread
counts already pinned in the environment, so they hold before numpy is
imported here. A fresh process per call is what a user of ``cagu train`` or
``cagu eval`` gets: its first training run pays for page faults that a second
run in the same process would not (glibc raises its mmap threshold as large
arrays are freed), so calls repeated inside one process would not be alike.

A call, as a user would make it from files:
  1. read the scene container and train the workload's fixed run through
     ``cagu.train.train``, which writes the checkpoint (``setup_s``,
     ``epoch_s``, ``run_s``);
  2. load the checkpoint and evaluate it forward-only through
     ``cagu.train.evaluate_checkpoint`` (``infer_s``).
The scene container itself is written before the call, untimed.

The process writes its samples, check results and machine facts as one JSON
file, plus its spans when traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from cagu.config import TrainConfig
from tracing import Instruments, hsi, tr
from workloads import BANDS, ENDMEMBERS, SNR_DB, WORKLOADS

SUM_TOLERANCE = 1e-9   # abundances must sum to 1 within this, per pixel


def train_call(scene_path: Path, config, inst: Instruments, out: dict):
    """Read the scene and train to a checkpoint on disk; returns the scene
    and the failed checks."""
    inst.marks.clear()
    start = time.perf_counter()
    cube = hsi.read_container(scene_path)
    result = tr.train(config, cube=cube)
    end = time.perf_counter()
    marks = inst.marks
    problems = []
    if len(marks) != config.epochs + 1:
        problems.append(f"saw {len(marks)} epoch marks for {config.epochs} epochs")
    losses = result.losses
    if len(losses) != config.epochs or not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite or missing epoch loss: {losses}")
    inv = result.invariants
    if min(inv.abundance_min) < 0.0:
        problems.append(f"negative abundance {min(inv.abundance_min)!r}")
    if max(inv.abundance_sum_dev) > SUM_TOLERANCE:
        problems.append(f"abundance sum off by {max(inv.abundance_sum_dev)!r}")
    blob = Path(config.checkpoint_path).read_bytes()
    out["samples"] = {"setup_s": [marks[0] - start] if marks else [],
                      "epoch_s": [b - a for a, b in zip(marks, marks[1:])],
                      "run_s": [end - start]}
    out["checkpoint_digest"] = hashlib.sha256(blob).hexdigest()
    out["checkpoint_bytes"] = len(blob)
    return cube, problems


def infer_call(checkpoint_path: str, cube, out: dict) -> list:
    """Load the checkpoint and evaluate it once; returns the failed checks."""
    checkpoint = tr.load_checkpoint(checkpoint_path)
    start = time.perf_counter()
    outputs, metrics = tr.evaluate_checkpoint(checkpoint, cube)
    out["samples"]["infer_s"] = [time.perf_counter() - start]
    abund = outputs.abundances.data
    problems = []
    if abund.min() < 0.0:
        problems.append(f"negative abundance {abund.min()!r}")
    sum_dev = float(np.max(np.abs(abund.sum(axis=0) - 1.0)))
    if sum_dev > SUM_TOLERANCE:
        problems.append(f"abundance sum off by {sum_dev!r}")
    if metrics is None or not (math.isfinite(metrics.mean_sad)
                               and math.isfinite(metrics.rmse)):
        return problems + ["evaluation gave no finite metrics"]
    out["abundance_digest"] = hashlib.sha256(abund.tobytes()).hexdigest()
    out["quality"] = {"mean_sad": metrics.mean_sad,
                      "abundance_rmse": metrics.rmse}
    return problems


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k, "") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CAGU_THREADS")},
    }


def run(spec: dict, seed: int, work: Path, inst: Instruments, out: dict) -> list:
    scene_path = work / "scene.hsic"
    hsi.write_container(hsi.generate_synthetic(hsi.SynthSpec(
        height=spec["size"], width=spec["size"], bands=BANDS,
        endmembers=ENDMEMBERS, snr_db=SNR_DB, seed=seed, purity_pixels=True)),
        scene_path)
    out["container_bytes"] = scene_path.stat().st_size
    config = TrainConfig(epochs=spec["epochs"], ablation_mode=spec["ablation"],
                         seed=seed, checkpoint_path=str(work / "model.ckpt"))
    call = inst.tracer.open("benchmark.call") if inst.tracer else None
    cube, problems = train_call(scene_path, config, inst, out)
    if not problems:
        problems += infer_call(config.checkpoint_path, cube, out)
    if call is not None:  # one root span, so the call's spans share a run id
        inst.tracer.close(call)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the scene and of the model's draw")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--process", type=int, default=0,
                        help="index of this process in the benchmark run")
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    inst = Instruments(trace=bool(args.trace))
    out: dict = {"machine": machine_facts(), "samples": {}}
    try:
        problems = run(spec, args.seed, args.work, inst, out)
    except Exception:  # reported as a failed call, with its traceback
        problems = [traceback.format_exc(limit=6)]
    out["problems"] = problems
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = inst.tracer
    if tracer is not None and not problems:
        out["segments"], out["calls"] = tracer.segments("train.epoch")
        out["infer_segments"], _ = tracer.segments("train.evaluate_checkpoint")
        if args.trace_file is not None:
            tracer.write(args.trace_file, args.process)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
