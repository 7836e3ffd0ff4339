"""Workload and metric definitions shared by the runner and the measuring
process. Imports nothing but the standard library."""

DEFAULT_SEED = 0      # the seed every tuning run and the README numbers use
HELD_OUT_SEED = 1009  # never used while tuning; check a claimed gain on it too

BANDS = 60
ENDMEMBERS = 3
SNR_DB = 80.0

# ``epochs`` is the length of the fixed training run that one call performs;
# every call of one scene must write the same checkpoint bytes.
WORKLOADS = {
    "desk_dynamic": dict(size=30, ablation="dynamic", epochs=20),
    "wide_dynamic": dict(size=100, ablation="dynamic", epochs=4),
}

# A run cycles through this many scenes, so its quality figures are a mean
# over scenes and steadier from one workload seed to the next. It is odd, so
# that alternating untraced and traced calls give every scene both kinds.
SCENES = 5


def scene_seed(seed: int, call: int) -> int:
    """Seed of the scene (and of the model's draw) of call ``call``."""
    return seed * SCENES + call % SCENES


# (name, unit) of the untraced metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s.p50", "s"),
    ("run_s", "s"),
    ("infer_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_sad", "rad"),
)

# Ops reported one by one; every other tape op is summed into autodiff.other.
NAMED_OPS = ("edge_matvec", "gather_cols", "segment_sum", "conv2d",
             "conv2d_batched", "matmul", "softmax", "sub", "square", "other")

# (name, unit) of the layers of the forward-only evaluation behind
# ``infer_s``; reported with the prefix ``infer.``.
INFER_LAYER = (
    ("model.forward_s", "s"),
    ("graph.build_graph_s", "s"),
    ("graph.propagate_s", "s"),
    ("graph.edges", "count"),
    *((f"autodiff.{op}.fwd_s", "s") for op in NAMED_OPS),
    ("frontend.compress_s", "s"),
    ("frontend.tokenize_s", "s"),
    ("attention.exchange_and_attend_s", "s"),
    ("attention.fuse_and_restore_s", "s"),
    ("decoder.decode_s", "s"),
    ("trace.unattributed_s", "s"),
)

# (name, unit) of the traced metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("graph.build_graph_s", "s"),
    ("graph.propagate_s", "s"),
    ("graph.bwd_s", "s"),
    ("graph.edges", "count"),
    *((f"autodiff.{op}.{field}", unit) for op in NAMED_OPS
      for field, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))),
    ("autodiff.nodes", "count"),
    ("autodiff.backward_s", "s"),
    ("autodiff.tape_mb", "MB"),
    ("frontend.compress_s", "s"),
    ("frontend.tokenize_s", "s"),
    ("frontend.bwd_s", "s"),
    ("attention.exchange_and_attend_s", "s"),
    ("attention.fuse_and_restore_s", "s"),
    ("attention.bwd_s", "s"),
    ("train.adamw_step_s", "s"),
    ("decoder.decode_s", "s"),
    ("decoder.loss_s", "s"),
    ("decoder.bwd_s", "s"),
    ("decoder.evaluate_s", "s"),
    ("model.forward_s", "s"),
    ("model.initialize_from_scene_s", "s"),
    ("vca.vca_extract_s", "s"),
    ("hsi.read_container_s", "s"),
    ("hsi.container_bytes", "bytes"),
    ("train.load_checkpoint_s", "s"),
    ("train.save_checkpoint_s", "s"),
    ("train.checkpoint_bytes", "bytes"),
    ("quality.abundance_rmse", "1"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "1"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "1"),
    *((f"infer.{name}", unit) for name, unit in INFER_LAYER),
)

UNATTRIBUTED_MARGIN = 0.10  # share of the timed call no layer span may exceed
