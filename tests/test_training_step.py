"""Memory held by one training step: backward consumes the tape, and the
tape keeps no scene-sized array beyond the reconstruction."""

import re
import tracemalloc
import weakref

import pytest

from cagu import model as mdl
from cagu.autodiff import Tape, Tensor, backward
from cagu.config import TrainConfig
from cagu.errors import ContractError
from cagu.train import make_desk_scene


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


def test_training_step_tape_has_one_node_per_layer_and_for_the_loss():
    params, observed, config = _step_inputs(
        8, channels=6, token_dim=6, fused_channels=6, patch_size=2,
        k_steps=2, ablation_mode="dynamic")
    with Tape() as tape:
        loss, outputs = mdl.training_loss(params, observed, config)
    nodes, recon = tape.nodes, outputs.reconstruction
    # the only bands x H x W array on the tape is the reconstruction
    assert [n.output for n in nodes if n.output.shape == observed.shape] == [recon]
    assert nodes[-2].op == "conv2d" and nodes[-2].output is recon
    # the loss is one node, reading the scene and the reconstruction
    assert nodes[-1].op == "unmixing_loss" and nodes[-1].output is loss
    assert nodes[-1].inputs == (observed, recon)
    # every biased layer is one node: no bias feeds an add of its own, and
    # the spatial tokens' conv and linear map are one node together
    biases = {id(t) for name, t in params.named_parameters().items()
              if re.fullmatch(r".*_b\d*", name)}
    takers = [n for n in nodes if any(id(t) in biases for t in n.inputs)]
    taken = [id(t) for n in takers for t in n.inputs if id(t) in biases]
    assert sorted(taken) == sorted(biases)
    assert {n.op for n in takers} == {"conv2d", "matmul", "patch_linear",
                                      "patch_mean_linear", "linear_untile"}
    # every LeakyReLU runs inside its layer, and the K hops and their mix
    # are one node
    ops = [n.op for n in nodes]
    assert not {"leaky_relu", "stencil_matvec", "hop_mix"} & set(ops)
    assert ops.count("propagate") == 1
    # the compressed map goes to the two token sequences through two nodes,
    # which tile it privately: no patch tiles, padded grid or spectral
    # response on the tape, and no step of the patch mean of its own
    m, fused = config.patch_size, config.fused_channels
    n_patches = -(-observed.shape[1] // m) * -(-observed.shape[2] // m)
    (conv3,) = [i for i, n in enumerate(nodes)
                if any(t is params.frontend.conv3_b for t in n.inputs)]
    fmap = nodes[conv3].output
    readers = [i for i, n in enumerate(nodes) if any(t is fmap for t in n.inputs)]
    assert readers == [conv3 + 1, conv3 + 2]
    assert ops[conv3 + 1:conv3 + 3] == ["patch_mean_linear", "patch_linear"]
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
    # column matrices). What backward adds on top, peak - live, is bounded
    # in bytes, at a quarter of the live memory of a forward that still kept
    # the patch tiles, the spectral response and the last hop (11.93 MB at
    # 40x40, 67.78 MB at 100x100), so a leaner forward cannot fail it.
    for size, extra in ((40, 0.25 * 11.93e6), (100, 0.25 * 67.78e6)):
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
        assert peak - live <= extra, (size, peak / 1e6, live / 1e6)
        if size == 100:
            # the forward keeps no z0, no fuse block matrix, no patch tiles,
            # no spectral response and no z_K, and backward frees each
            # node's output before its closure runs (live 82.36 MB with z0
            # and the block matrix, 67.78 MB / peak 80.67 MB with the rest)
            assert live < 60e6, live / 1e6
            assert peak < 73e6, peak / 1e6
