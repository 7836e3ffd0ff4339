"""The benchmark's tracer over a real training run and one evaluation.

``perfbench/tracing.py`` wraps cagu's model stages by name where
``cagu.model`` and ``cagu.decoder`` look them up, so renaming a stage, or
calling it some other way, silently drops its span. Each mode runs in a
fresh interpreter, since the tracer patches cagu for the rest of its
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A two-epoch 8x8 training run and one evaluation under the tracer; prints
# every stage span and, per segment, the stage spans opened inside it.
RUN = """
import json, sys
import tracing
from cagu.config import TrainConfig

tr = tracing.tr
inst = tracing.Instruments(trace=True)
config = TrainConfig(epochs=2, channels=6, token_dim=6, fused_channels=6,
                     patch_size=2, k_steps=2, ablation_mode=sys.argv[1])
cube = tr.make_desk_scene(80.0, 0, dict(height=8, width=8, bands=8,
                                        endmembers=2))
tr.evaluate_checkpoint(tr.train(config, cube=cube).checkpoint, cube)

stages = {span for table in (tracing.MODEL_STAGES, tracing.DECODER_STAGES)
          for span, _ in table.values()}
spans = inst.tracer.spans[:inst.tracer.n]
segments, seen = [], {}
for i, (name, _, _, parent, _, _) in enumerate(spans):
    if name in tracing.SEGMENTS:
        seen[i] = set()
        segments.append([name, seen[i]])
    while parent >= 0 and parent not in seen:
        parent = spans[parent][3]
    if parent >= 0 and name in stages:
        seen[parent].add(name)
print(json.dumps({"stages": sorted(stages),
                  "segments": [[n, sorted(s)] for n, s in segments]}))
"""

SETUP_ONLY = {"model.initialize_from_scene", "vca.vca_extract"}


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_tracer_records_a_span_for_every_stage(mode):
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}"
                                      f"{ROOT / 'perfbench'}")
    done = subprocess.run([sys.executable, "-c", RUN, mode], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert [name for name, _ in report["segments"]] == [
        "train.setup", "train.epoch", "train.epoch",
        "train.evaluate_checkpoint"]
    (_, setup), *epochs, (_, evaluation) = report["segments"]
    # calibration in setup runs forward stages too, so each epoch and the
    # evaluation must show every stage of its own pass; a static run builds
    # its graph through build_static_grid_graph, whose span is build_graph's
    forward = set(report["stages"]) - SETUP_ONLY - {"decoder.loss",
                                                    "decoder.evaluate"}
    assert SETUP_ONLY <= set(setup)
    for _, spans in epochs:
        assert set(spans) == forward | {"decoder.loss"}
    assert set(evaluation) == forward | {"decoder.evaluate"}
