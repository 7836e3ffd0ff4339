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
                                      "linear_untile"}
    # every LeakyReLU runs inside its layer, and the K hops and their mix
    # are one node
    ops = [n.op for n in nodes]
    assert not {"leaky_relu", "stencil_matvec", "hop_mix"} & set(ops)
    assert ops.count("propagate") == 1
    # the fuse layer's per-patch blocks never reach the tape: the layer and
    # its scatter onto the grid are one node
    m, fused = config.patch_size, config.fused_channels
    n_patches = -(-observed.shape[1] // m) * -(-observed.shape[2] // m)
    assert (n_patches, fused * m * m) not in {n.output.shape for n in nodes}
    # the channel projection runs inside the propagation node
    proj = params.graph_mix.graph_proj
    (node,) = [n for n in nodes if n.op == "propagate"]
    assert any(t is proj for t in node.inputs)
    assert not [n for n in nodes if n.op == "matmul"
                and any(t is proj for t in n.inputs)]


def test_training_step_peak_stays_near_the_forward():
    # One step at 40x40 and at the benchmark's wide 100x100: backward frees
    # what it has used as it goes, so its peak stays close to what the
    # forward pass left live (1.73x at 40x40 when backward kept every
    # gradient and closure until the tape died, and the 3x3 convs held
    # column matrices).
    for size in (40, 100):
        params, observed, config = _step_inputs(size)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss, _ = mdl.training_loss(params, observed, config)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"\nMEMORY {size}x{size} live {live / 1e6:.2f} peak {peak / 1e6:.2f} "
              f"ratio {peak / live:.3f}")
        assert peak <= 1.25 * live, (size, peak / 1e6, live / 1e6)
        if size == 100:
            # the forward keeps no z0 and no fuse block matrix (82.36 MB
            # live when it kept both)
            assert live < 75e6, live / 1e6
