"""Training determinism, checkpoint persistence, harnesses, CLI surface."""

import importlib
import json
import logging
import math
import re
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_ops as co
from cagu import autodiff as ad
from cagu import model as mdl
from cagu.autodiff import Tape, Tensor
from cagu.cli import build_parser, main
from cagu.config import TrainConfig
from cagu.errors import (ConfigError, FormatError, NonFiniteGradientError,
                         NonFiniteLossError)
from cagu.hsi import HsiCube, read_pgm, write_container
from damage import damage
from cagu.train import (AdamW, evaluate_checkpoint, export_abundance_maps,
                        gradcheck, load_checkpoint, make_desk_scene,
                        params_from_checkpoint, run_ablation, run_beta_sweep,
                        run_snr_sweep, save_checkpoint, train, worker_count)

TINY_SCENE = dict(height=8, width=8, bands=12, endmembers=2)


def tiny_config(**overrides):
    base = dict(epochs=4, channels=6, token_dim=6, fused_channels=6,
                patch_size=2, k_steps=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base).validate()


@pytest.fixture(scope="module")
def tiny_cube():
    return make_desk_scene(60.0, 0, TINY_SCENE)


def test_identical_runs_bitwise_identical(tiny_cube, tmp_path):
    path = tmp_path / "run.ckpt"
    cfg = tiny_config(checkpoint_path=str(path))
    first = train(cfg, cube=tiny_cube)
    first_bytes = path.read_bytes()
    second = train(cfg, cube=tiny_cube)
    assert first.losses == second.losses
    assert path.read_bytes() == first_bytes


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_radius_two_runs_bitwise_identical(tiny_cube, tmp_path, mode):
    path = tmp_path / "run.ckpt"
    cfg = tiny_config(radius=2, ablation_mode=mode, checkpoint_path=str(path))
    first = train(cfg, cube=tiny_cube)
    first_bytes = path.read_bytes()
    second = train(cfg, cube=tiny_cube)
    assert first.losses == second.losses
    assert path.read_bytes() == first_bytes
    assert first.graph_fingerprint != train(
        tiny_config(ablation_mode=mode), cube=tiny_cube).graph_fingerprint


def test_checkpoint_roundtrip_bit_exact(tiny_cube, tmp_path):
    path = tmp_path / "run.ckpt"
    cfg = tiny_config(checkpoint_path=str(path))
    train(cfg, cube=tiny_cube)
    ckpt = load_checkpoint(path)
    second = tmp_path / "copy.ckpt"
    save_checkpoint(ckpt, second)
    assert path.read_bytes() == second.read_bytes()


def test_resume_equals_uninterrupted(tiny_cube, tmp_path):
    # same final config both times so the checkpoint bytes are comparable
    final_path = tmp_path / "final.ckpt"
    final_cfg = tiny_config(epochs=6, checkpoint_path=str(final_path))
    train(final_cfg, cube=tiny_cube)
    uninterrupted = final_path.read_bytes()

    part_path = tmp_path / "part.ckpt"
    train(tiny_config(epochs=3, checkpoint_path=str(part_path)), cube=tiny_cube)
    train(final_cfg, cube=tiny_cube, resume_from=str(part_path))
    assert final_path.read_bytes() == uninterrupted


@pytest.mark.parametrize("data_path", [None, "scene.hsic"])
def test_checkpoint_whose_config_holds_data_path_loads_and_resumes(
        tiny_cube, tmp_path, data_path):
    # checkpoints written while the config held the scene's path
    full = train(tiny_config(epochs=4), tiny_cube)
    path = tmp_path / "part.ckpt"
    part_cfg = tiny_config(epochs=2, checkpoint_path=str(path))
    train(part_cfg, tiny_cube)
    path.write_bytes(with_config(path.read_bytes(), data_path=data_path))
    ckpt = load_checkpoint(path)
    assert ckpt.config == part_cfg
    _, metrics = evaluate_checkpoint(ckpt, tiny_cube)
    assert metrics is not None
    resumed = train(tiny_config(epochs=4), tiny_cube, resume_from=str(path))
    assert resumed.losses == full.losses[2:]
    for name, array in full.checkpoint.parameters.items():
        assert resumed.checkpoint.parameters[name].tobytes() == array.tobytes()


def test_cli_checkpoint_bytes_do_not_depend_on_the_scene_path(tmp_path):
    scene = make_desk_scene(60.0, 0, TINY_SCENE)
    blobs = []
    for name in ("a.hsic", "elsewhere.hsic"):
        write_container(scene, tmp_path / name)
        ckpt = tmp_path / "run.ckpt"
        assert main(["train", "--data", str(tmp_path / name), "--checkpoint",
                     str(ckpt), "--epochs", "1", "--patch-size", "2"]) == 0
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]
    assert b"hsic" not in blobs[0]


def test_failed_checkpoint_write_keeps_previous_file(tiny_cube, tmp_path):
    path = tmp_path / "model.ckpt"
    result = train(tiny_config(checkpoint_path=str(path)), cube=tiny_cube)
    before = path.read_bytes()
    # every array is written before the trailer fails to pack
    broken = replace(result.checkpoint, final_loss="not a float")
    with pytest.raises(struct.error):
        save_checkpoint(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_truncated_checkpoint_raises_format_error(tiny_cube, tmp_path):
    path = tmp_path / "run.ckpt"
    train(tiny_config(epochs=1, checkpoint_path=str(path)), cube=tiny_cube)
    blob = path.read_bytes()
    cut_path = tmp_path / "cut.ckpt"
    # every cut through the header and the first array names, then a stride
    for cut in list(range(400)) + list(range(400, len(blob), 97)):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(FormatError) as info:
            load_checkpoint(cut_path)
        assert 0 <= info.value.offset <= cut


@pytest.mark.parametrize("field", ["array count", "name length", "first dim"])
def test_checkpoint_with_absurd_length_raises_format_error(tiny_cube, tmp_path,
                                                          field):
    path = tmp_path / "run.ckpt"
    train(tiny_config(epochs=1, checkpoint_path=str(path)), cube=tiny_cube)
    blob = bytearray(path.read_bytes())
    count_at = 12 + int.from_bytes(blob[8:12], "little")  # after the config
    name_len = int.from_bytes(blob[count_at + 4:count_at + 8], "little")
    at = {"array count": count_at, "name length": count_at + 4,
          "first dim": count_at + 12 + name_len}[field]
    blob[at:at + 4] = (2 ** 32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def u32(blob, at):
    return int.from_bytes(blob[at:at + 4], "little")


def checkpoint_fields(blob):
    """Offsets of the checkpoint's uint32 config length, array counts, name
    lengths, ranks and extents; and, apart, of its arrays' ranks."""
    fields, ranks, at = [8], [], 12 + u32(blob, 8)
    for _ in range(2):  # parameters, then optimizer moments
        fields.append(at)
        count, at = u32(blob, at), at + 4
        for _ in range(count):
            fields.append(at)
            at += 4 + u32(blob, at)
            ranks.append(at)
            rank = u32(blob, at)
            dims = [u32(blob, at + 4 * (i + 1)) for i in range(max(rank, 1))]
            fields.extend(range(at, at + 4 * (len(dims) + 1), 4))
            at += 4 * (len(dims) + 1) + 8 * math.prod(dims[:rank])
    return tuple(fields), tuple(ranks)


@pytest.fixture(scope="module")
def checkpoint_blob(tiny_cube, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
    train(tiny_config(epochs=1, checkpoint_path=str(path)), cube=tiny_cube)
    return path.read_bytes()


def load_bounded(path):
    """``load_checkpoint``, asserting that it held at most about three
    times the file's size, whether it returned or raised."""
    tracemalloc.start()
    try:
        return load_checkpoint(path)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 3 * path.stat().st_size + (1 << 20)


def restore(ckpt, bands):
    """The model and optimizer state rebuilt from ``ckpt``, as resume does."""
    params = params_from_checkpoint(ckpt, bands)
    AdamW(params.named_parameters(), lr=1e-3, weight_decay=0.0
          ).load_state(ckpt.opt_moments, ckpt.config.epochs)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_checkpoints_raise_format_or_config_error(tmp_path_factory,
                                                          checkpoint_blob,
                                                          tiny_cube, data):
    path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
    path.write_bytes(damage(data, checkpoint_blob,
                            checkpoint_fields(checkpoint_blob)[0]))
    try:
        restore(load_bounded(path), tiny_cube.bands)
    except (FormatError, ConfigError):
        pass


def test_checkpoint_with_a_repeated_array_name_raises_format_error(
        checkpoint_blob, tmp_path):
    # two parameters of one shape whose names sort side by side: the second
    # renamed to the first, whose copy used to win silently
    at = checkpoint_blob.index(b"attention.cls_spe")
    path = tmp_path / "repeated.ckpt"
    path.write_bytes(checkpoint_blob[:at] + b"attention.cls_spa"
                     + checkpoint_blob[at + len(b"attention.cls_spe"):])
    with pytest.raises(FormatError, match="appears twice") as info:
        load_checkpoint(path)
    assert info.value.offset == at


@pytest.mark.parametrize("opt_step, epoch, epochs, field", [
    (999, 1, 1, "opt_step"), (999, 1, 2, "epoch"), (2, 2, 1, "epoch")])
def test_checkpoint_whose_trailer_disagrees_raises_format_error(
        checkpoint_blob, tmp_path, opt_step, epoch, epochs, field):
    # ``train`` writes opt_step == epoch == config.epochs
    blob = with_config(checkpoint_blob, epochs=epochs)
    trailer_at = len(blob) - 20  # uint64 opt_step, uint32 epoch, f64 loss
    path = tmp_path / "trailer.ckpt"
    path.write_bytes(blob[:trailer_at] + struct.pack("<QI", opt_step, epoch)
                     + blob[trailer_at + 12:])
    with pytest.raises(FormatError, match=field) as info:
        load_checkpoint(path)
    assert info.value.offset == trailer_at + {"opt_step": 0, "epoch": 8}[field]


def test_checkpoint_with_renamed_array_is_a_config_error(checkpoint_blob,
                                                         tiny_cube, tmp_path):
    for old in (b"decoder.endmember_w", b"m.decoder.abun_b"):
        at = checkpoint_blob.index(old)
        path = tmp_path / "renamed.ckpt"
        path.write_bytes(checkpoint_blob[:at] + old[:-1] + b"x"
                         + checkpoint_blob[at + len(old):])
        with pytest.raises(ConfigError):
            restore(load_checkpoint(path), tiny_cube.bands)


def rewrite_shape(blob, rank_at, extents):
    """``blob`` with the shape whose rank is at ``rank_at`` replaced by
    ``extents`` (the bytes after the old shape kept as they were)."""
    old_rank = u32(blob, rank_at)
    shape = struct.pack(f"<I{len(extents)}I", len(extents), *extents)
    return blob[:rank_at] + shape + blob[rank_at + 4 + 4 * max(old_rank, 1):]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_checkpoints_with_absurd_shapes_load_or_raise_format_error(
        tmp_path_factory, checkpoint_blob, data):
    # every extent but one the same: all zero, all huge, a zero among huge...
    extremes = st.sampled_from((0, 1, 2**32 - 1))
    rank = data.draw(st.sampled_from((0, 1, 2, 3, 4, 31, 32, 33, 64, 70, 1200)))
    fill, odd = data.draw(extremes), data.draw(extremes)
    rank_at = data.draw(st.sampled_from(checkpoint_fields(checkpoint_blob)[1]))
    extents = [fill] * rank
    if rank:
        extents[data.draw(st.integers(0, rank - 1))] = odd
    path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
    path.write_bytes(rewrite_shape(checkpoint_blob, rank_at, extents))
    try:
        load_bounded(path)
    except FormatError:
        pass


@pytest.mark.parametrize("extents", [[0] * 70, [2**32 - 1] * 1200, [1] * 33,
                                     [0] + [2**32 - 1] * 3],
                         ids=["rank70-zeros", "rank1200-huge", "rank33",
                              "zero-beside-huge"])
def test_cli_eval_of_checkpoint_with_absurd_shape_exits_2(
        checkpoint_blob, tiny_cube, tmp_path, capsys, extents):
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "run.ckpt"
    write_container(tiny_cube, scene)
    first_rank_at = checkpoint_fields(checkpoint_blob)[1][0]
    ckpt.write_bytes(rewrite_shape(checkpoint_blob, first_rank_at, extents))
    code = main(["eval", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert "shape" in err or "rank" in err


def with_config(blob, **changes):
    """``blob`` with ``changes`` written into its config JSON."""
    n = u32(blob, 8)
    raw = dict(json.loads(blob[12:12 + n]), **changes)
    text = json.dumps(raw).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + n:]


@pytest.mark.parametrize("name, value", [
    ("patch_size", 2.0), ("k_steps", 2.5), ("channels", 8.0), ("seed", "x"),
    ("epochs", 1.5), ("radius", True), ("lr", "0.001"), ("n_endmembers", 2.0),
    ("seed", -1)])
def test_cli_eval_of_checkpoint_with_mistyped_config_exits_2(
        checkpoint_blob, tiny_cube, tmp_path, capsys, name, value):
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "run.ckpt"
    write_container(tiny_cube, scene)
    ckpt.write_bytes(with_config(checkpoint_blob, **{name: value}))
    code = main(["eval", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert f"{name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("config", [b'"data_path"', b"3", b"[]",
                                    b'[{"data_path": null}]'])
def test_cli_eval_of_checkpoint_whose_config_is_no_object_exits_2(
        checkpoint_blob, tiny_cube, tmp_path, capsys, config):
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "run.ckpt"
    write_container(tiny_cube, scene)
    n = u32(checkpoint_blob, 8)
    ckpt.write_bytes(checkpoint_blob[:8] + struct.pack("<I", len(config))
                     + config + checkpoint_blob[12 + n:])
    code = main(["eval", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_config_types_checked():
    TrainConfig(lr=1, weight_decay=0, beta=0).validate()  # ints are floats
    for bad in (dict(epochs=True), dict(seed=1.0), dict(ablation_mode=None),
                dict(lr=float("nan")), dict(beta=float("inf")),
                dict(weight_decay=float("nan")), dict(seed=-1)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


def test_resume_with_changed_config_rejected_before_training(tiny_cube,
                                                             tmp_path):
    path = tmp_path / "part.ckpt"
    train(tiny_config(epochs=2, checkpoint_path=str(path)), cube=tiny_cube)
    before = path.read_bytes()
    changed = tiny_config(epochs=4, k_steps=3, radius=2, seed=1,
                          checkpoint_path=str(path))
    with pytest.raises(ConfigError) as info:
        train(changed, cube=tiny_cube, resume_from=str(path))
    message = str(info.value)
    for name in ("k_steps", "radius", "seed"):
        assert name in message
    for name in ("epochs", "checkpoint_path", "patch_size"):
        assert name not in message
    assert path.read_bytes() == before


def test_cli_resume_with_other_patch_size_exits_2(tmp_path, capsys):
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "model.ckpt"
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), scene)
    args = ["train", "--data", str(scene), "--checkpoint", str(ckpt)]
    assert main(args + ["--epochs", "2", "--patch-size", "2"]) == 0
    before = ckpt.read_bytes()
    assert main(args + ["--epochs", "4", "--patch-size", "4", "--resume"]) == 2
    assert "patch_size 2 -> 4" in capsys.readouterr().err
    assert ckpt.read_bytes() == before


def test_cli_eval_of_half_checkpoint_exits_2(tiny_cube, tmp_path, capsys):
    scene = tmp_path / "scene.hsic"
    write_container(tiny_cube, scene)
    ckpt = tmp_path / "run.ckpt"
    train(tiny_config(epochs=1, checkpoint_path=str(ckpt)), cube=tiny_cube)
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[:len(blob) // 2])
    code = main(["eval", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 2
    assert "byte offset" in capsys.readouterr().err


def with_value(blob, name, value, index=0):
    """``blob`` with value ``index`` of the array called ``name`` (or the
    final loss, for ``name`` None) set to ``value``; and that value's offset."""
    if name is None:
        at = len(blob) - 8
    else:
        encoded = name.encode("utf-8")
        at = blob.index(struct.pack("<I", len(encoded)) + encoded) + 4 + len(encoded)
        at += 4 * (max(u32(blob, at), 1) + 1) + 8 * index
    return blob[:at] + struct.pack("<d", value) + blob[at + 8:], at


@pytest.mark.parametrize("name, value, index", [
    ("decoder.abun_w", np.nan, 0), ("decoder.endmember_w", np.inf, 5),
    ("attention.cls_spe", -np.inf, 3), ("m.frontend.conv1_w", np.nan, 7),
    ("v.decoder.abun_b", np.inf, 1), (None, np.nan, 0)])
def test_nonfinite_checkpoint_raises_format_error(checkpoint_blob, tmp_path,
                                                  name, value, index):
    path = tmp_path / "run.ckpt"
    blob, at = with_value(checkpoint_blob, name, value, index)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=name or "final_loss") as info:
        load_checkpoint(path)
    assert info.value.offset == at


@pytest.mark.parametrize("command", ["eval", "export"])
def test_cli_reading_a_nonfinite_checkpoint_exits_2(checkpoint_blob, tiny_cube,
                                                    tmp_path, capsys, command):
    scene, ckpt, out = tmp_path / "scene.hsic", tmp_path / "run.ckpt", tmp_path / "out"
    write_container(tiny_cube, scene)
    ckpt.write_bytes(with_value(checkpoint_blob, "decoder.abun_w", np.nan)[0])
    code = main([command, "--data", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(out)])
    assert code == 2
    assert "decoder.abun_w holds a value that is not finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_resume_from_a_nonfinite_checkpoint_exits_2(tmp_path, capsys):
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "model.ckpt"
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), scene)
    args = ["train", "--data", str(scene), "--checkpoint", str(ckpt),
            "--patch-size", "2"]
    assert main(args + ["--epochs", "2"]) == 0
    ckpt.write_bytes(with_value(ckpt.read_bytes(), "m.decoder.abun_w", np.inf)[0])
    before = ckpt.read_bytes()
    assert main(args + ["--epochs", "4", "--resume"]) == 2
    assert "m.decoder.abun_w holds a value" in capsys.readouterr().err
    assert ckpt.read_bytes() == before


def make_optimizer():
    params = {"a.w": Tensor(np.ones(3), requires_grad=True),
              "b.w": Tensor(np.ones((2, 2)), requires_grad=True)}
    return params, AdamW(params, lr=0.1, weight_decay=0.01)


def test_zero_grad_frees_every_previous_gradient():
    params, opt = make_optimizer()
    with Tape() as tape:  # x * x: each parameter owns its summed gradient
        loss = ad.add(*(co.sum(co.mul(t, t)) for t in params.values()))
    ad.backward(tape, loss)
    previous = [weakref.ref(t.grad) for t in params.values()]
    opt.step()
    opt.zero_grad()
    assert [ref() for ref in previous] == [None, None]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_refused_before_any_update(bad):
    params, opt = make_optimizer()
    params["a.w"].grad = np.ones(3)
    params["b.w"].grad = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(NonFiniteGradientError, match="b.w"):
        opt.step()
    assert opt.step_count == 0
    np.testing.assert_array_equal(params["a.w"].data, np.ones(3))
    np.testing.assert_array_equal(opt.m["a.w"], np.zeros(3))


@pytest.mark.parametrize("big", [1e308, 1e155, -1e200])
def test_gradient_whose_square_overflows_refused(big):
    # every entry is finite, but its square (the second-moment update)
    # overflows, which would silently zero that entry's step
    params, opt = make_optimizer()
    params["a.w"].grad = np.full(3, big)
    params["b.w"].grad = np.ones((2, 2))
    before = {k: (t.data.copy(), opt.m[k].copy(), opt.v[k].copy())
              for k, t in params.items()}
    with pytest.raises(NonFiniteGradientError, match="a.w"):
        opt.step()
    assert opt.step_count == 0
    for k, t in params.items():
        data, m, v = before[k]
        np.testing.assert_array_equal(t.data, data)
        np.testing.assert_array_equal(opt.m[k], m)
        np.testing.assert_array_equal(opt.v[k], v)


def test_large_gradient_with_finite_square_accepted():
    params, opt = make_optimizer()
    params["a.w"].grad = np.full(3, 1e150)
    opt.step()
    assert opt.step_count == 1
    assert np.all(np.isfinite(opt.v["a.w"])) and np.all(opt.v["a.w"] > 0)


def test_invariants_tracked_every_epoch(tiny_cube):
    result = train(tiny_config(), cube=tiny_cube)
    inv = result.invariants
    assert len(inv.abundance_min) == 4
    assert min(inv.abundance_min) >= 0.0
    assert max(inv.abundance_sum_dev) < 1e-6
    assert max(inv.mix_weight_sum_dev) < 1e-10
    assert min(inv.mix_weight_min) >= 0.0
    assert min(inv.endmember_min) >= 0.0


def test_graph_bypass_modes_bit_identical(tiny_cube, tmp_path):
    none_path = tmp_path / "none.ckpt"
    zero_path = tmp_path / "zero.ckpt"
    train(tiny_config(ablation_mode="none", checkpoint_path=str(none_path)),
          cube=tiny_cube)
    train(tiny_config(ablation_mode="dynamic", beta=0.0,
                      checkpoint_path=str(zero_path)), cube=tiny_cube)
    a = load_checkpoint(none_path)
    b = load_checkpoint(zero_path)
    for name in a.parameters:
        assert a.parameters[name].tobytes() == b.parameters[name].tobytes()
    assert a.final_loss == b.final_loss


def test_nonfinite_loss_aborts_with_diagnostic(tiny_cube):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match="non-finite"):
            train(tiny_config(lr=1e12, epochs=30), cube=tiny_cube)


def test_nonfinite_loss_names_the_epoch_as_the_log_counts_it(tiny_cube, caplog):
    # the first epoch's loss is finite (logged as epoch 1); the step it
    # takes leaves the second epoch's loss non-finite
    caplog.set_level(logging.INFO, logger="cagu")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match="^epoch 2: non-finite"):
            train(tiny_config(lr=1e300, epochs=3), cube=tiny_cube)
    assert [r.getMessage().split(" loss")[0] for r in caplog.records
            if r.getMessage().startswith("epoch ")] == ["epoch 1"]


@pytest.mark.parametrize("name,node", [("frontend.conv2_w", "conv1x1_stack"),
                                       ("attention.fuse_w", "linear_untile")])
def test_nonfinite_loss_names_the_node_of_a_poisoned_inner_layer(
        tiny_cube, monkeypatch, name, node):
    # a NaN in a layer inside a node that rebuilds its inner maps in
    # backward still surfaces in that node's output, which the diagnostic
    # names
    initialize = mdl.initialize_from_scene

    def poisoned(cube, config):
        params = initialize(cube, config)
        params.named_parameters()[name].data.flat[0] = np.nan
        return params

    monkeypatch.setattr(mdl, "initialize_from_scene", poisoned)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteLossError,
                           match=rf"^epoch 1: .* from {node} \(node \d+ of \d+\)$"):
            train(tiny_config(), cube=tiny_cube)


def test_static_mode_uses_grid_fingerprint(tiny_cube):
    static = train(tiny_config(ablation_mode="static"), cube=tiny_cube)
    dynamic = train(tiny_config(ablation_mode="dynamic"), cube=tiny_cube)
    none = train(tiny_config(ablation_mode="none"), cube=tiny_cube)
    assert none.graph_fingerprint == "none"
    assert static.graph_fingerprint != dynamic.graph_fingerprint
    from cagu.graph import build_static_grid_graph
    assert (static.graph_fingerprint
            == build_static_grid_graph(8, 8, 1).fingerprint())


def test_evaluate_checkpoint_returns_metrics(tiny_cube):
    result = train(tiny_config(), cube=tiny_cube)
    outputs, metrics = evaluate_checkpoint(result.checkpoint, tiny_cube)
    assert outputs.abundances.shape == (2, 8, 8)
    assert metrics is not None
    assert 0.0 <= metrics.mean_sad <= np.pi
    assert metrics.rmse >= 0.0


# ---------------------------------------------------------------------------
# harnesses (reduced scale to keep the suite quick)

REDUCED = dict(height=8, width=8, bands=12, endmembers=2)


def test_snr_sweep_report_shape():
    report = run_snr_sweep(tiny_config(epochs=2), [20.0, 60.0], [0, 1],
                           scene=REDUCED)
    assert len(report.rows) == 4
    assert len(report.aggregates) == 2
    csv = report.to_csv()
    assert csv.splitlines()[0] == "snr_db,seed,beta,mode,mean_sad,rmse,final_loss"
    assert "trend_ok" in report.notes[0]
    assert "0.0092" in report.notes[1]  # full-scale context note


def test_ablation_report_cases_and_fingerprints():
    report = run_ablation(tiny_config(epochs=2), seeds=[0], snr_db=60.0,
                          scene=REDUCED)
    cases = {r["case"]: r for r in report.rows}
    assert set(cases) == {"no_graph", "static_grid", "dynamic"}
    assert cases["no_graph"]["fingerprint"] == "none"
    assert cases["static_grid"]["fingerprint"] != cases["dynamic"]["fingerprint"]
    assert "ordering_holds" in report.summary


def test_beta_sweep_zero_row_equals_no_graph_case():
    config = tiny_config(epochs=3)
    beta_report = run_beta_sweep(config, [0.0, 0.4], seeds=[0], snr_db=60.0,
                                 scene=REDUCED)
    ablation = run_ablation(config, seeds=[0], snr_db=60.0, scene=REDUCED)
    zero_row = next(r for r in beta_report.rows if r["beta"] == 0.0)
    case_one = next(r for r in ablation.rows if r["case"] == "no_graph")
    assert zero_row["final_loss"] == case_one["final_loss"]
    assert zero_row["mean_sad"] == case_one["mean_sad"]
    assert "best_beta" in report_summary(beta_report)


def report_summary(report):
    return report.summary


def test_sweeps_reject_empty_seed_lists():
    config = tiny_config(epochs=2)
    for run in (lambda: run_snr_sweep(config, [20.0, 60.0], [], scene=REDUCED),
                lambda: run_ablation(config, seeds=range(0), scene=REDUCED),
                lambda: run_beta_sweep(config, [0.0], seeds=range(-1),
                                       scene=REDUCED)):
        with pytest.raises(ConfigError, match="seed"):
            run()
    # a repeated seed trains one run twice and counts it twice in a median;
    # each sweep refuses it before training anything
    for run in (lambda: run_snr_sweep(config, [20.0, 60.0], [0, 0],
                                      scene=REDUCED),
                lambda: run_ablation(config, seeds=[1, 0, 1], scene=REDUCED),
                lambda: run_beta_sweep(config, [0.0], seeds=(2, 2),
                                       scene=REDUCED)):
        with pytest.raises(ConfigError, match="repeats a seed"):
            run()


@pytest.mark.parametrize("command", [["sweep-snr", "--snrs", "20,20"],
                                     ["sweep-beta", "--betas", "0.2,0.4,0.2"]])
def test_cli_sweeps_with_a_repeated_level_exit_2(command, capsys):
    # a repeat trains one level twice: "20,20" is one noise level, whose
    # trend against itself always holds
    assert main(command + ["--seeds", "1", "--epochs", "1"]) == 2
    assert "repeats" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sweep-snr", "--seeds", "0"],
                                     ["ablate", "--seeds", "0"],
                                     ["sweep-beta", "--seeds", "0"],
                                     ["sweep-snr", "--seeds", "-2"],
                                     ["ablate", "--seeds", "-1"],
                                     ["sweep-beta", "--seeds", "-1"]])
def test_cli_sweeps_without_seeds_exit_2(command, capsys):
    assert main(command) == 2
    assert "seed" in capsys.readouterr().err


def test_worker_env_parallel_sweep_matches_serial(monkeypatch):
    config = tiny_config(epochs=2)
    serial = run_snr_sweep(config, [20.0, 60.0], [0], scene=REDUCED)
    monkeypatch.setenv("CAGU_THREADS", "2")
    parallel = run_snr_sweep(config, [20.0, 60.0], [0], scene=REDUCED)
    assert serial.rows == parallel.rows


@pytest.mark.parametrize("text", ["abc", "0", "-3", "1.5"])
def test_bad_worker_env_raises_config_error(monkeypatch, text):
    monkeypatch.setenv("CAGU_THREADS", text)
    with pytest.raises(ConfigError, match=f"CAGU_THREADS.*{re.escape(text)}"):
        worker_count()


@pytest.mark.parametrize("text", [None, "", "1", "2"])
def test_worker_env_unset_empty_or_positive(monkeypatch, text):
    if text is None:
        monkeypatch.delenv("CAGU_THREADS", raising=False)
    else:
        monkeypatch.setenv("CAGU_THREADS", text)
    assert worker_count() == int(text or 1)


def test_cli_bad_worker_env_exits_2_before_training(monkeypatch, tmp_path,
                                                    capsys):
    monkeypatch.setenv("CAGU_THREADS", "abc")
    # the package's ``train`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("cagu.train"), "train",
                        lambda *a, **k: pytest.fail("trained"))
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--seeds", "1", "--out", str(out)]) == 2
    assert "CAGU_THREADS" in capsys.readouterr().err
    assert not out.exists()


# the study commands at desk scale, one epoch and one seed each
STUDIES = [
    (["sweep-snr", "--snrs", "20,40"],
     lambda config: run_snr_sweep(config, [20.0, 40.0], range(1))),
    (["ablate"], lambda config: run_ablation(config, range(1))),
    (["sweep-beta"], lambda config: run_beta_sweep(
        config, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], range(1))),
]


@pytest.mark.parametrize("command, study", STUDIES,
                         ids=[c[0] for c, _ in STUDIES])
def test_cli_study_csv_equals_the_harness_report(tmp_path, command, study):
    out = tmp_path / "study.csv"
    code = main(command + ["--seeds", "1", "--epochs", "1", "--out", str(out)])
    report = study(TrainConfig(epochs=1).validate())
    assert out.read_text() == report.to_csv()
    if command[0] == "sweep-snr":
        assert code == (0 if report.summary["trend_ok"] else 1)
    else:
        assert code == 0


# ---------------------------------------------------------------------------
# gradcheck harness

def test_gradcheck_excludes_frozen_groups():
    import cagu.model as mdl
    from cagu.train import GRADCHECK_CONFIG, GRADCHECK_SCENE
    config = TrainConfig(**GRADCHECK_CONFIG).validate()
    cube = make_desk_scene(40.0, 0, GRADCHECK_SCENE)
    params = mdl.initialize_from_scene(cube, config)
    params.attention.cls_spe.requires_grad = False
    report = gradcheck(config=config, cube=cube, params=params)
    assert "attention.cls_spe" not in report.errors
    assert "attention.cls_spa" in report.errors
    assert report.passed


def test_gradcheck_detects_corrupted_backward(tiny_cube):
    # a wrong backward rule planted through the public tape API must trip
    # the finite-difference comparison
    x = Tensor(np.random.default_rng(0).normal(size=5), requires_grad=True)

    def broken_double(t):
        out_data = 2.0 * t.data
        tape = Tape._active
        out = Tensor(out_data, requires_grad=True)
        if tape is not None:
            # wrong: claims d(2x)/dx = 3
            tape.record("broken_double", (t,), out,
                        lambda g: ad._accumulate(t, 3.0 * g))
        return out

    err = ad.finite_diff_check(lambda t: co.sum(broken_double(t)), x, h=1e-5)
    assert err > 1e-4


def test_gradcheck_scene_size_enforced():
    with pytest.raises(ConfigError, match="pixels"):
        gradcheck(cube=make_desk_scene(40.0, 0, dict(height=10, width=10,
                                                     bands=8, endmembers=2)))


# ---------------------------------------------------------------------------
# export

def test_export_writes_pgms_and_metrics(tiny_cube, tmp_path):
    result = train(tiny_config(), cube=tiny_cube)
    out_dir = tmp_path / "maps"
    written = export_abundance_maps(result.checkpoint, tiny_cube, out_dir,
                                    "tiny")
    pgms = sorted(p for p in written if p.endswith(".pgm"))
    assert len(pgms) == 2
    outputs, metrics = evaluate_checkpoint(result.checkpoint, tiny_cube)
    for k, path in enumerate(pgms):
        back = read_pgm(path)
        assert np.max(np.abs(back - metrics.abundances[k])) <= 1 / 255
    assert (out_dir / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# CLI

def test_cli_end_to_end(tmp_path, capsys):
    scene = tmp_path / "scene.hsic"
    ckpt = tmp_path / "model.ckpt"
    out_dir = tmp_path / "eval"
    assert main(["gen", "--height", "8", "--width", "8", "--bands", "12",
                 "--endmembers", "2", "--snr", "60", "--seed", "3",
                 "--out", str(scene)]) == 0
    assert main(["train", "--data", str(scene), "--epochs", "2",
                 "--patch-size", "2", "--checkpoint", str(ckpt)]) == 0
    assert main(["eval", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").read_text().startswith("dataset,seed")
    export_dir = tmp_path / "maps"
    assert main(["export", "--checkpoint", str(ckpt), "--data", str(scene),
                 "--out-dir", str(export_dir)]) == 0
    assert sorted(export_dir.glob("*.pgm"))


def test_cli_validation_failure_exit_2(tmp_path):
    scene = tmp_path / "scene.hsic"
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), scene)
    code = main(["train", "--data", str(scene), "--epochs", "0",
                 "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2


def test_cli_unknown_flag_exit_2():
    assert main(["gen", "--nonsense"]) == 2


def test_cli_runtime_error_exit_1(tmp_path):
    missing = tmp_path / "missing.hsic"
    code = main(["eval", "--data", str(missing),
                 "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--out-dir", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command", [
    ["gen", "--height", "4", "--width", "4", "--bands", "8", "--endmembers", "2"],
    ["train", "--data", "scene.hsic", "--checkpoint", "run.ckpt"],
    ["gradcheck"]], ids=["gen", "train", "gradcheck"])
def test_cli_negative_seed_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), "scene.hsic")
    out = [] if command[0] != "gen" else ["--out", "gen.hsic"]
    assert main(command + out + ["--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.hsic"]


@pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
def test_cli_gen_with_bad_alpha_exits_2_and_writes_nothing(tmp_path, capsys,
                                                           alpha):
    out = tmp_path / "scene.hsic"
    assert main(["gen", "--height", "4", "--width", "4", "--bands", "8",
                 "--endmembers", "2", "--alpha", alpha, "--out", str(out)]) == 2
    assert "dirichlet_alpha" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_with_more_pure_pixels_than_pixels_exits_2(tmp_path, capsys):
    out = tmp_path / "scene.hsic"
    assert main(["gen", "--height", "2", "--width", "2", "--bands", "8",
                 "--endmembers", "5", "--out", str(out)]) == 2
    assert "pure pixels" in capsys.readouterr().err
    assert not out.exists()


def test_more_endmembers_than_bands_rejected_before_calibrating(monkeypatch):
    cube = make_desk_scene(60.0, 0, dict(TINY_SCENE, bands=8))
    monkeypatch.setattr(mdl, "_calibrate_scales",
                        lambda *a: pytest.fail("calibrated"))
    with pytest.raises(ConfigError, match="9 endmembers do not fit 8 bands"):
        mdl.initialize_from_scene(cube, tiny_config(n_endmembers=9))


def test_cli_train_with_more_endmembers_than_bands_exits_2(tmp_path, capsys):
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "run.ckpt"
    write_container(make_desk_scene(60.0, 0, dict(TINY_SCENE, bands=8)), scene)
    assert main(["train", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--endmembers", "9", "--patch-size", "2"]) == 2
    assert "9 endmembers do not fit 8 bands" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_cli_train_with_a_radius_wider_than_the_scene_exits_2(tmp_path, capsys,
                                                             mode):
    # on the 8x8 scene radius 7 reaches every pixel, and radius 8 no more
    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "run.ckpt"
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), scene)
    assert main(["train", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--patch-size", "2", "--epochs", "2", "--ablation", mode,
                 "--radius", "8"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: window radius 8 is wider than the 8x8 scene, "
                    "where it may be at most 7")
    assert not ckpt.exists()


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 13.0 GiB for an array",
     "error: Unable to allocate 13.0 GiB for an array"),
    ("", "error: out of memory")])
def test_cli_train_out_of_memory_exits_1_with_one_line(monkeypatch, tmp_path,
                                                       capsys, message, line):
    import cagu.cli

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    scene, ckpt = tmp_path / "scene.hsic", tmp_path / "run.ckpt"
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), scene)
    monkeypatch.setattr(cagu.cli, "train", exhausted)
    assert main(["train", "--data", str(scene), "--checkpoint", str(ckpt),
                 "--patch-size", "2", "--radius", "100"]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["sweep-snr", "sweep-beta", "ablate"])
def test_cli_studies_take_no_seed_flag(monkeypatch, tmp_path, command):
    monkeypatch.setattr(importlib.import_module("cagu.train"), "train",
                        lambda *a, **k: pytest.fail("trained"))
    out = tmp_path / "study.csv"
    assert main([command, "--seeds", "1", "--seed", "7", "--out", str(out)]) == 2
    assert not out.exists()
    train_args = ["train", "--data", "d", "--checkpoint", "c", "--seed", "7"]
    assert build_parser().parse_args(train_args).seed == 7


def test_cli_gradcheck_smoke(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_gradcheck_passes_seed_and_tolerance(monkeypatch, capsys):
    import cagu.cli
    from cagu.train import GRADCHECK_CONFIG, GradcheckReport
    calls = []

    def recording_gradcheck(config=None, tolerance=1e-4):
        calls.append((config, tolerance))
        return GradcheckReport({"group": 1e-5}, tolerance, 0.0)

    monkeypatch.setattr(cagu.cli, "gradcheck", recording_gradcheck)
    assert main(["gradcheck", "--seed", "5", "--tolerance", "1e-6"]) == 1
    assert main(["gradcheck"]) == 0
    (first, tol_first), (default, tol_default) = calls
    assert (first.seed, tol_first) == (5, 1e-6)
    assert (default.seed, tol_default) == (0, 1e-4)
    for name, value in GRADCHECK_CONFIG.items():
        assert getattr(first, name) == value
    for bad in ("0", "-1e-4", "nan", "inf"):
        assert main(["gradcheck", f"--tolerance={bad}"]) == 2
    assert len(calls) == 2


def test_cli_eval_and_export_label_rows_with_the_evaluated_scene(tmp_path):
    # trained on train.hsic, evaluated on scenes whose stems differ from it
    train_scene, ckpt = tmp_path / "train.hsic", tmp_path / "model.ckpt"
    write_container(make_desk_scene(60.0, 0, TINY_SCENE), train_scene)
    assert main(["train", "--data", str(train_scene), "--epochs", "1",
                 "--patch-size", "2", "--checkpoint", str(ckpt)]) == 0
    other = make_desk_scene(60.0, 1, TINY_SCENE)
    for stem, cube in (("other", other), ("bare", HsiCube(other.data))):
        scene = tmp_path / f"{stem}.hsic"
        write_container(cube, scene)
        csvs = []
        for command in ("eval", "export"):
            out = tmp_path / f"{command}_{stem}"
            assert main([command, "--data", str(scene), "--checkpoint",
                         str(ckpt), "--out-dir", str(out)]) == 0
            csvs.append((out / "metrics.csv").read_text())
        assert csvs[0] == csvs[1]
        rows = csvs[0].splitlines()[1:]
        assert rows and all(row.startswith(f"{stem},0,") for row in rows)


def nan_container(path):
    """An 8x8, 8-band container whose first data value is a float32 NaN."""
    write_container(make_desk_scene(60.0, 0, dict(height=8, width=8, bands=8,
                                                  endmembers=2)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:28] + struct.pack("<f", np.nan) + blob[32:])


@pytest.mark.parametrize("command", ["eval", "export", "train"])
def test_cli_nonfinite_container_exits_2(checkpoint_blob, tmp_path, capsys,
                                         command):
    scene, ckpt, out = tmp_path / "nan.hsic", tmp_path / "run.ckpt", tmp_path / "out"
    nan_container(scene)
    if command == "train":
        args = ["train", "--data", str(scene), "--epochs", "1",
                "--patch-size", "2", "--checkpoint", str(ckpt)]
    else:
        ckpt.write_bytes(checkpoint_blob)
        args = [command, "--data", str(scene), "--checkpoint", str(ckpt),
                "--out-dir", str(out)]
    assert main(args) == 2
    assert ("data holds a value that is not finite (byte offset 28)"
            in capsys.readouterr().err)
    assert not out.exists()
    assert ckpt.exists() == (command != "train")
