"""Outside-in instrumentation of cagu for the benchmark.

Everything here wraps cagu's functions where their callers look them up, so
the program itself is unchanged:

* tape ops as ``cagu.autodiff.<op>`` (callers write ``ad.<op>``, and the
  module's own helpers call each other through the same globals);
* the model stages where ``cagu.model`` binds them by from-import, and the
  decoder through ``cagu.decoder`` (``cagu.model`` reaches it as ``dec``);
* backward per op, by wrapping the closure each ``Tape.record`` receives;
* epoch boundaries, at ``AdamW.zero_grad`` (top of every epoch) and
  ``AdamW.state_arrays`` (the checkpoint is built right after the last one).

``Instruments`` always keeps the epoch marks, which untraced runs need for
``epoch_s``; in a traced process it also installs the ``Tracer``. A process
is traced or untraced for its whole life.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import cagu.autodiff as ad
import cagu.decoder as dec
import cagu.hsi as hsi
import cagu.model as mdl

from workloads import NAMED_OPS

# ``import cagu.train`` would give the function that cagu/__init__ re-exports.
tr = importlib.import_module("cagu.train")

# Spans that start a segment: per-layer figures are grouped by segment.
SEGMENTS = ("train.setup", "train.epoch", "train.evaluate_checkpoint")

# Stage functions from-imported into cagu.model: span name, and the module
# whose ``bwd_s`` receives the backward time of the tape nodes they record.
MODEL_STAGES = {
    "compress": ("frontend.compress", "frontend"),
    "tokenize": ("frontend.tokenize", "frontend"),
    "exchange_and_attend": ("attention.exchange_and_attend", "attention"),
    "fuse_and_restore": ("attention.fuse_and_restore", "attention"),
    "build_graph": ("graph.build_graph", "graph"),
    "build_static_grid_graph": ("graph.build_graph", "graph"),
    "propagate": ("graph.propagate", "graph"),
    "forward": ("model.forward", None),
    "initialize_from_scene": ("model.initialize_from_scene", None),
    "vca_extract": ("vca.vca_extract", None),
}
DECODER_STAGES = {
    "decode": ("decoder.decode", "decoder"),
    "loss": ("decoder.loss", "decoder"),
    "evaluate": ("decoder.evaluate", None),
}
# Public functions of cagu.autodiff that are not tape ops.
NOT_OPS = ("backward", "first_nonfinite", "finite_diff_check")

# Reported as the median duration of one call, wherever it happens.
PER_CALL = ("model.initialize_from_scene", "vca.vca_extract",
            "hsi.read_container", "train.load_checkpoint",
            "train.save_checkpoint", "decoder.evaluate")


def _op_key(op: str) -> str:
    return op if op in NAMED_OPS else "other"


class Tracer:
    """Spans kept in memory: [name, start, end, parent, run, module].

    ``run`` numbers the top-level call (one training run or one evaluation)
    a span belongs to; ``module`` is set on backward spans only.

    Creating one installs its wrappers into cagu for the rest of the process.

    The span and counter lists are allocated once, at full size. Growing
    them would free large blocks along the way, which makes glibc raise its
    mmap threshold early; the traced process would then page-fault far less
    than an untraced one (38% as often per desk epoch) and its layer times
    would not describe the untraced run.
    """

    CAPACITY = 1 << 20

    def __init__(self):
        self.spans: list = [None] * self.CAPACITY
        self.n = 0                 # spans recorded
        self.stack: list = []
        self.counters: list = [None] * self.CAPACITY  # (name, value, segment)
        self.n_counters = 0
        self.ranges: list = []     # (module, first node, end node) on the live tape
        self.owner: list = []      # module per tape node, during backward
        self.run = 0
        self.segment = -1
        self.op_names = set()
        self._install()

    def open(self, name: str) -> int:
        idx = self.n
        self.n += 1
        if not self.stack:
            self.run += 1
        self.spans[idx] = [name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.run, None]
        self.stack.append(idx)
        if name in SEGMENTS:
            self.segment = idx
        return idx

    def close(self, idx: int):
        """Close span ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break

    def count(self, name: str, value: float):
        self.counters[self.n_counters] = (name, value, self.segment)
        self.n_counters += 1

    def wrap(self, name: str, fn, module=None):
        """Time every call of ``fn`` as a span; when a tape is live and
        ``module`` is given, remember which tape nodes the call recorded."""
        def traced(*args, **kwargs):
            tape = ad.Tape._active if module else None
            first = len(tape.nodes) if tape is not None else 0
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if tape is not None:
                    self.ranges.append((module, first, len(tape.nodes)))
            if name == "graph.build_graph":
                self.count("graph.edges", result.edge_rows.size)
            return result
        return traced

    def next_epoch(self):
        if self.stack and self.spans[self.stack[-1]][0] in ("train.setup",
                                                            "train.epoch"):
            self.close(self.stack[-1])
        self.open("train.epoch")

    def end_epoch(self):
        if self.stack and self.spans[self.stack[-1]][0] == "train.epoch":
            self.close(self.stack[-1])

    def _install(self):
        for name in dir(ad):
            fn = getattr(ad, name)
            if (name.startswith("_") or name in NOT_OPS or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != ad.__name__):
                continue
            self.op_names.add(f"autodiff.{name}")
            setattr(ad, name, self.wrap(f"autodiff.{name}", fn))
        for owner, stages in ((mdl, MODEL_STAGES), (dec, DECODER_STAGES)):
            for attr, (span, module) in stages.items():
                setattr(owner, attr, self.wrap(span, getattr(owner, attr), module))
        hsi.read_container = self.wrap("hsi.read_container", hsi.read_container)
        for attr in ("load_checkpoint", "save_checkpoint", "evaluate_checkpoint"):
            setattr(tr, attr, self.wrap(f"train.{attr}", getattr(tr, attr)))
        tr.AdamW.step = self.wrap("train.adamw_step", tr.AdamW.step)

        train = tr.train

        def traced_train(*args, **kwargs):
            idx = self.open("train.run")
            self.open("train.setup")
            try:
                return train(*args, **kwargs)
            finally:
                self.close(idx)
        tr.train = traced_train

        backward = tr.backward

        def traced_backward(tape, loss):
            owner = [None] * len(tape.nodes)
            for module, first, end in sorted(self.ranges,
                                             key=lambda r: r[1] - r[2]):
                owner[first:end] = [module] * (end - first)  # inner wins
            self.owner = owner
            self.count("autodiff.nodes", len(tape.nodes))
            self.count("autodiff.tape_mb",
                       sum(n.output.data.nbytes for n in tape.nodes) / 1e6)
            idx = self.open("autodiff.backward")
            try:
                return backward(tape, loss)
            finally:
                self.close(idx)
                self.ranges = []
        tr.backward = traced_backward

        record = ad.Tape.record

        def traced_record(tape, op, inputs, output, backward_fn):
            node = len(tape.nodes)
            name = f"autodiff.{op}.bwd"

            def timed_backward(g):
                idx = self.open(name)
                try:
                    backward_fn(g)
                finally:
                    self.close(idx)
                    if node < len(self.owner):
                        self.spans[idx][5] = self.owner[node]
            return record(tape, op, inputs, output, timed_backward)
        ad.Tape.record = traced_record

    def segments(self, primary: str):
        """Per-layer totals of each ``primary`` segment (an epoch or an
        evaluation), and the durations of every ``PER_CALL`` span.

        Op ``fwd_s`` are self times; stage times, ``bwd_s`` and
        ``autodiff.backward_s`` include the spans inside them. The primary
        segment's own self time is what no layer span covers.
        """
        spans = self.spans[:self.n]
        dur = [s[2] - s[1] for s in spans]
        inner = [0.0] * len(spans)
        seg = [-1] * len(spans)
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                inner[parent] += dur[i]
            seg[i] = i if s[0] in SEGMENTS else (seg[parent] if parent >= 0 else -1)
        groups = {i: defaultdict(float) for i, s in enumerate(spans)
                  if s[0] == primary}
        calls = defaultdict(list)
        for i, s in enumerate(spans):
            name = s[0]
            if name in PER_CALL:
                calls[f"{name}_s"].append(dur[i])
            g = groups.get(seg[i])
            if g is None:
                continue
            if name == primary:
                g["trace.unattributed_s"] += dur[i] - inner[i]
                g["trace.unattributed_frac"] += (dur[i] - inner[i]) / dur[i]
            elif name.endswith(".bwd") and name.startswith("autodiff."):
                g[f"autodiff.{_op_key(name[9:-4])}.bwd_s"] += dur[i]
                if s[5]:
                    g[f"{s[5]}.bwd_s"] += dur[i]
            elif name in self.op_names:
                key = _op_key(name[9:])
                g[f"autodiff.{key}.fwd_s"] += dur[i] - inner[i]
                g[f"autodiff.{key}.calls"] += 1
            elif name not in PER_CALL:
                g[f"{name}_s"] += dur[i]
        for name, value, segment in self.counters[:self.n_counters]:
            if segment in groups:
                groups[segment][name] += value
        return list(groups.values()), calls

    def write(self, path, process: int):
        """Append one JSON object per span, times in seconds from the first
        span; ``process`` tells apart the processes of one benchmark run."""
        t0 = self.spans[0][1] if self.n else 0.0
        with open(path, "a") as fh:
            for name, start, end, parent, run, module in self.spans[:self.n]:
                row = {"name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "run": f"{process}.{run}"}
                if module:
                    row["module"] = module
                fh.write(json.dumps(row) + "\n")


class Instruments:
    """Epoch marks for every run, plus span recording when ``trace``."""

    def __init__(self, trace: bool):
        self.marks: list = []
        self.tracer = Tracer() if trace else None
        zero_grad = tr.AdamW.zero_grad
        state_arrays = tr.AdamW.state_arrays

        def marked_zero_grad(opt):
            self.marks.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.next_epoch()
            return zero_grad(opt)

        def marked_state_arrays(opt):
            self.marks.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.end_epoch()
            return state_arrays(opt)

        tr.AdamW.zero_grad = marked_zero_grad
        tr.AdamW.state_arrays = marked_state_arrays
