#!/usr/bin/env python3
"""cagu benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload desk_dynamic --seed 0 --seconds 50 --trace 0

Run from the repository root. Every call of a workload runs in a fresh
Python process with BLAS and cagu pinned to one thread, so the figures are
those of one closed-loop caller and peak memory belongs to that workload.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics untraced,
the per-layer metrics with ``--trace 1``). The exit code is 0 only when
every correctness check passed. ``--workload all`` runs every workload in
turn.

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,  # noqa: E402
                       INFER_LAYER, PER_LAYER, SCENES, UNATTRIBUTED_MARGIN,
                       WORKLOADS, scene_seed)

ROOT = HERE.parent
OUT_DIR = ROOT / "bench_out"
TIME_LIMIT = 170.0  # seconds one workload may take, all its calls included
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CAGU_THREADS": "1",
}


class CallFailed(Exception):
    pass


def run_call(workload: str, seed: int, trace: bool, index: int, work: Path,
             trace_file: Path, deadline: float) -> dict:
    """Run one call in a fresh measuring process and return what it wrote."""
    out = work / f"call-{index}.json"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work", str(work),
           "--out", str(out), "--process", str(index)]
    if trace:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        # the child's stdout goes to stderr: our last stdout line is the result
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise CallFailed(f"{workload}: call {index} timed out") from exc
    if proc.returncode != 0 or not out.exists():
        raise CallFailed(f"{workload}: call {index} exited with {proc.returncode}")
    return json.loads(out.read_text())


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def p90(values):
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def pooled(results, key):
    return [v for r in results for v in r["samples"].get(key, [])]


def check(results) -> tuple:
    """Failed calls and their messages: a call fails a check of its own, or
    writes other checkpoint or abundance bytes than the first call of its
    scene."""
    failed, messages = 0, []
    for r in results:
        problems = list(r["problems"])
        same = [x for x in results if x["scene"] == r["scene"]]
        for key in ("checkpoint_digest", "abundance_digest"):
            first = next((x[key] for x in same if key in x), None)
            if r.get(key, first) != first:
                problems.append(f"{key} differs from the first call's "
                                f"on scene {r['scene']}")
        failed += bool(problems)
        messages.extend(problems)
    return failed, messages


def per_layer(plain, traced) -> dict:
    """Median over every traced epoch and every traced evaluation, per-call
    medians, and the figures that come from the untraced processes."""
    segments = [g for r in traced for g in r.get("segments", [])]
    keys = {k for g in segments for k in g}
    layer = {k: median(g.get(k, 0.0) for g in segments) for k in keys}
    evaluations = [g for r in traced for g in r.get("infer_segments", [])]
    for name, _ in INFER_LAYER:
        layer[f"infer.{name}"] = median(g.get(name, 0.0) for g in evaluations)
    calls = {}
    for r in traced:
        for name, values in r.get("calls", {}).items():
            calls.setdefault(name, []).extend(values)
    layer.update({name: median(values) for name, values in calls.items()})
    last = traced[-1]
    layer["train.checkpoint_bytes"] = last.get("checkpoint_bytes", 0)
    layer["hsi.container_bytes"] = last.get("container_bytes", 0)
    layer["quality.abundance_rmse"] = quality(traced)["abundance_rmse"]
    untraced = median(pooled(plain, "epoch_s"))
    with_spans = median(pooled(traced, "epoch_s"))
    if untraced and with_spans:
        layer["trace.overhead_s"] = with_spans - untraced
        layer["trace.overhead_frac"] = (with_spans - untraced) / untraced
    layer["segments"] = len(segments)
    return layer


def quality(results) -> dict:
    """Mean over the run's scenes of each scene's (exact) quality figures."""
    per_scene = {}
    for r in results:
        per_scene.setdefault(r["scene"], r.get("quality", {}))
    return {key: statistics.fmean(q[key] for q in per_scene.values())
            for key in ("mean_sad", "abundance_rmse")}


def run_workload(workload: str, args, deadline: float) -> dict:
    """Start calls until the window is used and every scene has run (in a
    traced run, both untraced and traced), alternating untraced and traced
    calls when tracing; then turn their samples into metrics and report
    lines."""
    work = OUT_DIR / f"work-{os.getpid()}-{workload}"
    trace_file = OUT_DIR / f"trace-{workload}-seed{args.seed}.jsonl"
    trace_file.unlink(missing_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    results = []
    needed = 2 * SCENES if args.trace else SCENES + 1  # a scene runs twice
    try:
        window_end = time.monotonic() + args.seconds
        while not any(r["problems"] for r in results):
            index = len(results)
            traced = bool(args.trace) and index % 2 == 1
            scene = scene_seed(args.seed, index)
            results.append(run_call(workload, scene, traced, index, work,
                                    trace_file, deadline))
            results[-1].update(traced=traced, scene=scene)
            if len(results) >= needed and time.monotonic() >= window_end:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, messages = check(results)
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    samples = {key: pooled(traced if args.trace else plain, key)
               for key in ("setup_s", "epoch_s", "run_s", "infer_s")}
    machine = results[-1]["machine"]
    scenes = sorted({r["scene"] for r in results})
    lines = [f"== {workload} (trace {args.trace}, seed {args.seed}; "
             f"scenes {scenes[0]}-{scenes[-1]})",
             "machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
             f"calls: {len(results)}; samples: "
             + ", ".join(f"{k}={len(v)}" for k, v in samples.items())]
    metrics = {}
    if args.trace and traced and not failed:
        layer = per_layer(plain, traced)
        for name, unit in PER_LAYER:
            value = layer.get(name, 0.0)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
        frac = layer.get("trace.unattributed_frac", 0.0)
        lines.append(f"layer self times cover {1 - frac:.1%} of the median "
                     f"epoch ({layer['segments']} traced); margin "
                     f"{UNATTRIBUTED_MARGIN:.0%}: "
                     f"{'within' if frac <= UNATTRIBUTED_MARGIN else 'EXCEEDED'}")
    elif not args.trace and not failed:
        values = {
            "setup_s": median(samples["setup_s"]),
            "epoch_s.p50": median(samples["epoch_s"]),
            "run_s": median(samples["run_s"]),
            "infer_s.p50": median(samples["infer_s"]),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            **quality(plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        for key in ("epoch_s", "infer_s"):
            tail = p90(samples[key])
            if tail is not None:
                lines.append(f"  {key + '.p90':34s} {tail!r} s "
                             f"({len(samples[key])} samples)")
        lines.append(f"  {'abundance_rmse':34s} {values['abundance_rmse']!r} 1 "
                     "(unbounded; quality.abundance_rmse when traced)")
    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']!r} {m['unit']}")
    attempted = len(results)
    lines.append(f"  {'failed_frac':34s} {failed / attempted!r} "
                 f"({failed} of {attempted} calls)")
    lines.extend(f"  CHECK FAILED: {m.strip().splitlines()[-1]}" for m in messages)
    report = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "samples": samples,
              "metrics": metrics, "messages": messages}
    (OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    return dict(metrics=metrics, attempted=attempted, failed=failed, lines=lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cagu benchmark", epilog="see perfbench/README.md")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}); check a "
                        f"claimed gain on the held-out seed {HELD_OUT_SEED} too")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cagu" / "__init__.py").is_file():
        print(f"error: no cagu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args,
                                         time.monotonic() + TIME_LIMIT)
        except CallFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(results[name]["lines"]), flush=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
