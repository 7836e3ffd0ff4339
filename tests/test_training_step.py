"""Memory held by one training step: backward consumes the tape, and the
tape keeps no scene-sized array beyond the reconstruction; and the page
faults of steady-state epochs."""

import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from cagu import autodiff as ad
from cagu import model as mdl
from cagu.autodiff import Tape, Tensor, backward
from cagu.config import TrainConfig
from cagu.errors import ContractError
from cagu.train import make_desk_scene

ROOT = Path(__file__).resolve().parents[1]


def _step_inputs(size, **config):
    cube = make_desk_scene(30.0, 0, dict(height=size, width=size, bands=60,
                                         endmembers=3))
    config = TrainConfig(seed=0, **config).validate()
    return mdl.initialize_from_scene(cube, config), Tensor(cube.data), config


@pytest.mark.parametrize("mode", ["dynamic", "static", "none"])
def test_backward_frees_every_intermediate_of_a_training_step(mode):
    params, observed, config = _step_inputs(
        8, channels=6, token_dim=6, fused_channels=6, patch_size=2,
        k_steps=2, ablation_mode=mode)
    with Tape() as tape:
        loss, outputs = mdl.training_loss(params, observed, config)
    kept = outputs.abundances
    outputs = None
    dropped = [weakref.ref(node.output) for node in tape.nodes
               if node.output is not kept and node.output is not loss]
    closures = [weakref.ref(node.backward_fn) for node in tape.nodes]
    backward(tape, loss)
    assert [ref for ref in dropped + closures if ref() is not None] == []
    assert kept.grad is not None and kept.grad.shape == kept.shape
    assert params.frontend.conv1_w.grad is not None
    with pytest.raises(ContractError):
        backward(tape, loss)


def test_autodiff_defines_only_the_ops_a_training_step_records():
    # the public functions of cagu.autodiff by the benchmark tracer's rule,
    # less the three that drive a tape rather than record on it
    public = {name for name in dir(ad)
              if not name.startswith("_") and callable(fn := getattr(ad, name))
              and not isinstance(fn, type)
              and getattr(fn, "__module__", None) == ad.__name__}
    recorded = set()
    for mode in ("dynamic", "static", "none"):
        params, observed, config = _step_inputs(8, ablation_mode=mode)
        with Tape() as tape:
            mdl.training_loss(params, observed, config)
        recorded |= {node.op for node in tape.nodes}
    assert len(recorded) == 15
    assert recorded == public - {"backward", "first_nonfinite", "finite_diff_check"}


def test_training_step_tape_has_one_node_per_layer_and_for_the_loss():
    params, observed, config = _step_inputs(
        8, channels=6, token_dim=6, fused_channels=6, patch_size=2,
        k_steps=2, ablation_mode="dynamic")
    with Tape() as tape:
        loss, outputs = mdl.training_loss(params, observed, config)
    nodes, recon = tape.nodes, outputs.reconstruction
    ops = [n.op for n in nodes]
    # the only bands x H x W array on the tape is the reconstruction
    assert [n.output for n in nodes if n.output.shape == observed.shape] == [recon]
    assert nodes[-2].op == "conv2d" and nodes[-2].output is recon
    # the loss is one node, reading the scene and the reconstruction
    assert nodes[-1].op == "unmixing_loss" and nodes[-1].output is loss
    assert nodes[-1].inputs == (observed, recon)
    # every biased layer is inside one node: no bias feeds an add of its
    # own, the spatial tokens' conv and linear map are one node together,
    # and so are each stack of 1x1 convs and the fuse layer with the seam
    # conv, so the only conv2d nodes left are the decoder's last two layers
    biases = {id(t) for name, t in params.named_parameters().items()
              if re.fullmatch(r".*_b\d*", name)}
    takers = [n for n in nodes if any(id(t) in biases for t in n.inputs)]
    taken = [id(t) for n in takers for t in n.inputs if id(t) in biases]
    assert sorted(taken) == sorted(biases)
    assert {n.op for n in takers} == {"conv1x1_stack", "conv2d", "matmul",
                                      "patch_linear", "patch_mean_linear",
                                      "linear_untile"}
    front, trunk = [n for n in nodes if n.op == "conv1x1_stack"]
    assert ops.count("conv2d") == 2 and ops.index("conv2d") == len(ops) - 4
    # the front end's stack reads the scene itself, so no standardised copy
    # and no inner map of the band squeeze is on the tape
    assert nodes[0] is front and front.inputs[0] is observed
    bands = observed.shape[0]
    inner = {(c, *observed.shape[1:]) for c in (-(-bands // 2), -(-bands // 4))}
    assert not inner & {n.output.shape for n in nodes}
    # the decoder's trunk reads the refined map and hands the abundance conv
    # its last layer's output
    refined = nodes[nodes.index(trunk) - 1]
    assert refined.op == "reshape" and trunk.inputs[0] is refined.output
    assert nodes[nodes.index(trunk) + 1].inputs[0] is trunk.output
    assert len(trunk.inputs) == 9 and len(front.inputs) == 7
    # the seam conv runs inside the fuse node, whose output the graph reads
    (fuse,) = [n for n in nodes if n.op == "linear_untile"]
    seam = (params.attention.seam_w, params.attention.seam_b)
    assert fuse.inputs[3:] == seam
    assert nodes[nodes.index(fuse) + 1].inputs == (fuse.output,)
    # every LeakyReLU runs inside its layer, and the K hops and their mix
    # are one node
    assert not {"leaky_relu", "stencil_matvec", "hop_mix"} & set(ops)
    assert ops.count("propagate") == 1
    # the compressed map goes to the two token sequences through two nodes,
    # which tile it privately: no patch tiles, padded grid or spectral
    # response on the tape, and no step of the patch mean of its own
    m, fused = config.patch_size, config.fused_channels
    n_patches = -(-observed.shape[1] // m) * -(-observed.shape[2] // m)
    fmap = front.output
    readers = [i for i, n in enumerate(nodes) if any(t is fmap for t in n.inputs)]
    assert readers == [1, 2]
    assert ops[1:3] == ["patch_mean_linear", "patch_linear"]
    assert all(nodes[i].output.shape == (n_patches, config.token_dim) for i in readers)
    assert not {"tile_patches", "untile_patches", "transpose", "sum"} & set(ops)
    assert (n_patches, config.channels, m, m) not in {n.output.shape for n in nodes}
    # the fuse layer's per-patch blocks never reach the tape: the layer and
    # its scatter onto the grid are one node
    assert (n_patches, fused * m * m) not in {n.output.shape for n in nodes}
    # the channel projection runs inside the propagation node
    proj = params.graph_mix.graph_proj
    (node,) = [n for n in nodes if n.op == "propagate"]
    assert any(t is proj for t in node.inputs)
    assert not [n for n in nodes if n.op == "matmul"
                and any(t is proj for t in n.inputs)]
    # the graph is one node, which reads the flat map that propagation reads,
    # and none of the ops it is made of reaches the tape
    (graph,) = [n for n in nodes if n.op == "window_graph"]
    assert len(graph.inputs) == 1 and graph.inputs[0] is node.inputs[-1]
    assert graph.output is outputs.graph.operator and graph.output in node.inputs
    assert not {"window_sqdist", "neighbour_shift", "exp", "sqrt", "divide"} & set(ops)
    # the static graph is built from a constant map: no node at all
    params, observed, config = _step_inputs(
        8, channels=6, token_dim=6, fused_channels=6, patch_size=2,
        k_steps=2, ablation_mode="static")
    with Tape() as tape:
        mdl.training_loss(params, observed, config)
    static_ops = [n.op for n in tape.nodes]
    assert "window_graph" not in static_ops and static_ops.count("propagate") == 1
    assert len(static_ops) == len(ops) - 1


def test_training_step_peak_stays_near_the_forward():
    # One step at 40x40 and at the benchmark's wide 100x100: backward frees
    # what it has used as it goes, so its peak stays close to what the
    # forward pass left live (1.73x at 40x40 when backward kept every
    # gradient and closure until the tape died, and the 3x3 convs held
    # column matrices). The peak itself is bounded, not what backward adds
    # on top of the forward (peak - live): the nodes that rebuild their
    # inner maps in backward add to that by design while the peak falls
    # (10.23 / 12.37 MB live / peak at 40x40 and 57.22 / 70.11 MB at
    # 100x100 with every 1x1 conv, the fuse layer and the seam conv a node
    # of its own that kept its output).
    for size, bound in ((40, 11.0e6), (100, 58e6)):
        params, observed, config = _step_inputs(size)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss, _ = mdl.training_loss(params, observed, config)
            live, nodes = tracemalloc.get_traced_memory()[0], len(tape.nodes)
            tracemalloc.reset_peak()
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"\nMEMORY {size}x{size} nodes {nodes} live {live / 1e6:.2f} "
              f"peak {peak / 1e6:.2f} peak-live {(peak - live) / 1e6:.2f} "
              f"ratio {peak / live:.3f}")
        assert peak <= bound, (size, peak / 1e6, live / 1e6)
        if size == 100:
            # the forward keeps no z0, no fuse block matrix, no patch tiles,
            # no spectral response, no z_K, no inner map of a 1x1 stack and
            # no map before the seam conv, and backward frees each node's
            # output before its closure runs (live 82.36 MB with z0 and the
            # block matrix, 67.78 MB with the rest, 57.22 MB with the maps)
            assert live <= 42e6, live / 1e6


# Twelve default desk epochs (30x30, 60 bands, 3 endmembers, dynamic graph)
# in a fresh interpreter; prints the minor page faults of each epoch after
# the first, counted between the "epoch N loss" log lines that end them.
FAULTS = """
import json, logging, resource
from cagu.config import TrainConfig
from cagu.train import make_desk_scene, train

marks = []

class Mark(logging.Handler):
    def emit(self, record):
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

log = logging.getLogger("cagu")
log.setLevel(logging.INFO)
log.addHandler(Mark())
cube = make_desk_scene(30.0, 0, dict(height=30, width=30, bands=60, endmembers=3))
train(TrainConfig(epochs=12, seed=0), cube=cube)
print(json.dumps([b - a for a, b in zip(marks, marks[1:])]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc malloc's page faults")
def test_steady_state_desk_epochs_take_almost_no_page_faults():
    # glibc trims the heap top and faults it back in whenever a step frees
    # and regrows it: about 1,000 faults per desk epoch with its default
    # thresholds (8,342 over epochs 2-20 of one run) until importing cagu
    # pinned them. A pinned heap still grows wherever an epoch's layout
    # differs from the last one's, by 85 to 117 faults in one epoch when an
    # epoch's abundances lived into the next forward. The interpreter gets
    # default malloc settings and one BLAS thread, and no other variable of
    # the caller's environment.
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", FAULTS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    per_epoch = json.loads(done.stdout.strip().splitlines()[-1])  # epochs 2-12
    print(f"\nFAULTS desk 30x30 epochs 2-12 {per_epoch} "
          f"sum 3-12 {sum(per_epoch[1:])}")
    assert len(per_epoch) == 11 and sum(per_epoch[1:]) <= 50, per_epoch
