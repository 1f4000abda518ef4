import functools
import gc
import operator
import re
import struct
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from setsum.autodiff import _toposort, backpropagate
from setsum.data import (SyntheticConfig, generate_dataset, load_split, read_tensor,
                         write_tensor)
from setsum.regressor import (ArchitectureConfig, build_base_regressor, hydra_forward,
                              hydra_loss, hydra_loss_replicated, load_model, predict,
                              save_model)
from setsum.regressor import _constants
from setsum.regressor import _forward as regressor_forward
from setsum.regressor import _loss_node
from setsum.trainer import infer

TINY = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                          skip_connections=((1, 2),), seed=5)
TINY_3D = ArchitectureConfig(input_shape=(1, 5, 5, 5), conv_blocks=((2, 3), (3, 3)),
                             skip_connections=((1, 2),), seed=5)


def _tiny_file_bytes() -> dict[str, bytes]:
    """The bytes of a one-conv saved model and of a 4x4 tensor file."""
    arch = ArchitectureConfig(input_shape=(1, 4, 4), conv_blocks=((1, 1),),
                              skip_connections=(), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        model, tensor = Path(tmp, "m.ssrm"), Path(tmp, "t.sstf")
        save_model(build_base_regressor(arch), model)
        write_tensor(tensor, np.arange(16.0).reshape(1, 4, 4))
        return {"model": model.read_bytes(), "tensor": tensor.read_bytes()}


TINY_FILES = _tiny_file_bytes()


def parameter_count(model) -> int:
    return sum(p.size for p in model.parameters.values())


def walk_parameter_count(arch: ArchitectureConfig) -> int:
    """Independent shape walk over the block list."""
    total = 0
    channels = arch.input_shape[0]
    outputs = []
    for i, (maps, k) in enumerate(arch.conv_blocks, start=1):
        in_ch = channels + sum(outputs[s - 1] for s, d in arch.skip_connections if d == i)
        total += maps * in_ch * k ** arch.dims
        outputs.append(maps)
        channels = maps
    total += channels  # fc weight row
    return total


class TestBuild:
    def test_deterministic_for_fixed_seed(self):
        a = build_base_regressor(TINY)
        b = build_base_regressor(TINY)
        assert a.parameters.keys() == b.parameters.keys()
        for name in a.parameters:
            assert np.array_equal(a.parameters[name].data, b.parameters[name].data)

    def test_different_seeds_differ(self):
        a = build_base_regressor(TINY)
        b = build_base_regressor(replace(TINY, seed=6))
        assert not np.array_equal(a.parameters["conv1.kernel"].data,
                                  b.parameters["conv1.kernel"].data)

    def test_zero_bias_has_no_bias_parameters(self):
        model = build_base_regressor(TINY)
        assert not any("bias" in name for name in model.parameters)

    def test_parameter_count_matches_shape_walk(self):
        desk = ArchitectureConfig(input_shape=(1, 16, 16))
        assert parameter_count(build_base_regressor(desk)) == walk_parameter_count(desk)
        assert parameter_count(build_base_regressor(TINY)) == walk_parameter_count(TINY)

    def test_desk_scale_count_value(self):
        # 8*1*9 + 16*8*9 + 24*24*9 + 32*24*9 + 32 by hand
        assert parameter_count(build_base_regressor(ArchitectureConfig((1, 16, 16)))) == 13352

    def test_dims_follow_input_shape(self):
        assert TINY.dims == 2 and TINY_3D.dims == 3
        with pytest.raises(ValueError, match="2 or 3 spatial extents"):
            ArchitectureConfig(input_shape=(1, 8))

    def test_even_kernel_rejected(self):
        # same padding would grow an even kernel's block by one, so block 1's
        # output would no longer fit block 3's input
        with pytest.raises(ValueError, match=r"conv block 2 has invalid .* positive and odd"):
            ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 2), (5, 3)),
                               skip_connections=((1, 3),))

    def test_bad_skip_order_rejected(self):
        with pytest.raises(ValueError, match="source < target"):
            ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                               skip_connections=((2, 1),))

    def test_3d_architecture_builds_and_runs(self):
        cfg = ArchitectureConfig(input_shape=(1, 6, 6, 6), conv_blocks=((2, 3), (3, 3)),
                                 skip_connections=(), seed=1)
        model = build_base_regressor(cfg)
        img = np.random.default_rng(0).uniform(size=(1, 6, 6, 6))
        assert np.isfinite(predict(model, img))


class TestPredict:
    def test_black_maps_to_zero_exactly(self):
        model = build_base_regressor(TINY)
        assert predict(model, model.black_image()) == 0.0

    def test_finite_scalar(self):
        model = build_base_regressor(TINY)
        img = np.random.default_rng(1).uniform(size=(1, 8, 8))
        value = predict(model, img)
        assert isinstance(value, float) and np.isfinite(value)

    def test_pure(self):
        model = build_base_regressor(TINY)
        img = np.random.default_rng(2).uniform(size=(1, 8, 8))
        assert predict(model, img) == predict(model, img)

    def test_shape_mismatch_rejected(self):
        model = build_base_regressor(TINY)
        with pytest.raises(ValueError, match="input shape"):
            predict(model, np.zeros((1, 9, 9)))


    def test_dropout_never_acts_at_inference(self, tmp_path):
        synth = SyntheticConfig(image_extent=(8, 8), blob_count_range=(0, 4),
                                blob_sigma_range=(0.45, 0.7), noise_sigma=0.02, seed=3)
        manifest = generate_dataset(tmp_path, synth, 1, 1, 4)
        plain = build_base_regressor(TINY)
        dropped = build_base_regressor(replace(TINY, dropout_rate=0.9))
        images, _ = load_split(manifest, "test")
        assert [predict(dropped, im) for im in images] == [predict(plain, im)
                                                            for im in images]
        assert infer(dropped, manifest, "test") == infer(plain, manifest, "test")


class TestHydraForward:
    def test_singleton_equals_predict(self):
        model = build_base_regressor(TINY)
        img = np.random.default_rng(3).uniform(size=(1, 8, 8))
        assert hydra_forward(model, [img]) == predict(model, img)

    def test_all_black_set_is_zero(self):
        model = build_base_regressor(TINY)
        assert hydra_forward(model, [None, None, None, None]) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        model = build_base_regressor(TINY)
        images = [rng.uniform(size=(1, 8, 8)) for _ in range(4)]
        a = hydra_forward(model, images)
        b = hydra_forward(model, images[::-1])
        assert abs(a - b) < 1e-12

    def test_black_padding_identity(self):
        # one real image plus black padding predicts exactly the single image
        model = build_base_regressor(TINY)
        img = np.random.default_rng(5).uniform(size=(1, 8, 8))
        assert hydra_forward(model, [img, None, None, None]) == predict(model, img)

    def test_empty_set_rejected(self):
        model = build_base_regressor(TINY)
        with pytest.raises(ValueError, match="at least one slot"):
            hydra_forward(model, [])


class TestOneRule:
    """An image's output has the same bits in any batch, and a set's
    prediction is the left-to-right sum of its members' predicts, in
    hydra_forward and hydra_loss alike."""

    @pytest.mark.parametrize("skips", [((1, 3),), ()], ids=["skips", "no-skips"])
    @pytest.mark.parametrize("shape, count", [((1, 16, 16), 40), ((1, 15, 13), 40),
                                              ((1, 9, 9, 9), 12)],
                             ids=["16x16", "15x13", "9x9x9"])
    def test_batched_forward_is_per_image_predict(self, shape, count, skips):
        model = build_base_regressor(ArchitectureConfig(input_shape=shape,
                                                        skip_connections=skips))
        images = np.random.default_rng(19).uniform(size=(count,) + shape)
        batched = regressor_forward(model.architecture, _constants(model), images)
        assert batched.data[:, 0].tolist() == [predict(model, im) for im in images]

    def test_set_total_is_left_to_right_sum_of_predicts(self, monkeypatch):
        model = build_base_regressor(ArchitectureConfig(input_shape=(1, 16, 16)))
        rng = np.random.default_rng(20)
        images = [None if i % 3 == 1 else rng.uniform(size=(1, 16, 16)) for i in range(24)]
        members = [predict(model, model.black_image() if im is None else im) for im in images]
        expected = functools.reduce(operator.add, members)
        assert hydra_forward(model, images) == expected

        totals = []

        def loss_node(total, label, loss_kind):
            totals.append(total.item())
            return _loss_node(total, label, loss_kind)

        monkeypatch.setattr("setsum.regressor._loss_node", loss_node)
        hydra_loss(model, images, 3.0)
        assert totals == [expected]


@pytest.mark.parametrize("arch", [TINY, TINY_3D, replace(TINY, dropout_rate=0.5),
                                  replace(TINY_3D, dropout_rate=0.5)],
                         ids=["2d", "3d", "2d-dropout", "3d-dropout"])
class TestGradFreeForward:
    """predict and hydra_forward run on the parameters as constants: the same
    bits as the trainable forward, with no backward state."""

    @staticmethod
    def check(monkeypatch, model, images, call, expected):
        # parameters hold gradients from a training pass; the call must leave
        # them alone and build one forward graph with no closure in it
        grads = backpropagate(hydra_loss(model, images, 1.0))
        before = {name: g.copy() for name, g in grads.items()}
        outputs = []

        def forward(*args, **kwargs):
            outputs.append(regressor_forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr("setsum.regressor._forward", forward)
        value = call()
        monkeypatch.undo()
        assert value == expected
        assert len(outputs) == 1
        assert all(n._backward is None for n in _toposort(outputs[0]))
        for name, p in model.parameters.items():
            assert p.grad is grads[name] and np.array_equal(p.grad, before[name]), name

    def test_predict(self, arch, monkeypatch):
        model = build_base_regressor(arch)
        img = np.random.default_rng(14).uniform(size=arch.input_shape)
        expected = regressor_forward(arch, model.parameters, img[np.newaxis]).item()
        self.check(monkeypatch, model, [img], lambda: predict(model, img), expected)

    def test_hydra_forward(self, arch, monkeypatch):
        model = build_base_regressor(arch)
        rng = np.random.default_rng(15)
        images = [rng.uniform(size=arch.input_shape), None, rng.uniform(size=arch.input_shape)]
        batch = np.stack([images[0], images[2]])
        heads = regressor_forward(arch, model.parameters, batch).data[:, 0].tolist()
        expected = functools.reduce(operator.add, heads)
        self.check(monkeypatch, model, images, lambda: hydra_forward(model, images), expected)


class TestDropoutFollowsGenerator:
    """hydra_loss drops out exactly when a step passes its generator and the
    architecture's rate is positive."""

    @staticmethod
    def images():
        rng = np.random.default_rng(16)
        return [rng.uniform(size=TINY.input_shape) for _ in range(3)]

    def test_without_rng_is_the_grad_free_loss(self):
        model = build_base_regressor(replace(TINY, dropout_rate=0.5))
        images = self.images()
        heads = regressor_forward(TINY, _constants(model), np.stack(images)).data[:, 0]
        diff = heads[0] + heads[1] + heads[2] - 2.0
        assert hydra_loss(model, images, 2.0).item() == diff * diff

    def test_with_rng_draws_masks(self):
        model = build_base_regressor(replace(TINY, dropout_rate=0.5))
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        hydra_loss(model, self.images(), 2.0, rng=rng)
        assert rng.bit_generator.state != before

    @pytest.mark.parametrize("rate", [None, 0.0])
    def test_no_dropout_model_leaves_rng_alone(self, rate):
        model = build_base_regressor(replace(TINY, dropout_rate=rate))
        images = self.images()
        rng = np.random.default_rng(18)
        before = rng.bit_generator.state
        with_rng = hydra_loss(model, images, 2.0, rng=rng).item()
        assert rng.bit_generator.state == before
        assert with_rng == hydra_loss(model, images, 2.0).item()


def identity_scalar_model():
    """f(x) = x for non-negative 1x1x1 inputs: single 1x1 conv and unit fc weight."""
    cfg = ArchitectureConfig(input_shape=(1, 1, 1), conv_blocks=((1, 1),),
                             skip_connections=(), seed=0)
    model = build_base_regressor(cfg)
    model.parameters["conv1.kernel"].data = np.ones((1, 1, 1, 1))
    model.parameters["fc.weight"].data = np.ones((1, 1))
    return model


def scalar_image(v: float) -> np.ndarray:
    return np.full((1, 1, 1), float(v))


class TestHydraLoss:
    def test_grouped_vs_per_sample_worked_example(self):
        # predictions (1, 2) against labels (2, 1): grouped loss is (3-3)^2 = 0,
        # summed per-sample losses are (1-2)^2 + (2-1)^2 = 2
        model = identity_scalar_model()
        images = [scalar_image(1.0), scalar_image(2.0)]
        grouped = hydra_loss(model, images, 3.0, "mse").item()
        per_sample = (hydra_loss(model, [images[0]], 2.0, "mse").item()
                      + hydra_loss(model, [images[1]], 1.0, "mse").item())
        assert grouped == 0.0
        assert per_sample == 2.0

    def test_perfect_predictions_zero_loss_both_kinds(self):
        model = identity_scalar_model()
        images = [scalar_image(2.0), scalar_image(5.0)]
        assert hydra_loss(model, images, 7.0, "mse").item() == 0.0
        assert hydra_loss(model, images, 7.0, "mae").item() == 0.0

    def test_unknown_loss_kind_rejected(self):
        model = identity_scalar_model()
        with pytest.raises(ValueError, match="loss_kind"):
            hydra_loss(model, [scalar_image(1.0)], 1.0, "huber")

    @pytest.mark.parametrize("loss_kind", ["mse", "mae"])
    def test_matches_replicated_branch_oracle(self, loss_kind):
        rng = np.random.default_rng(7)
        model = build_base_regressor(TINY)
        for _ in range(5):
            images = [rng.uniform(size=(1, 8, 8)) if rng.random() > 0.25 else None
                      for _ in range(4)]
            label = float(rng.uniform(0, 10))
            node = hydra_loss(model, images, label, loss_kind)
            grads = backpropagate(node)
            ref_loss, ref_grads = hydra_loss_replicated(model, images, label, loss_kind)
            assert abs(node.item() - ref_loss) <= 1e-10
            assert grads.keys() == ref_grads.keys()
            for name in grads:
                npt.assert_allclose(grads[name], ref_grads[name], atol=1e-10)

    @pytest.mark.parametrize("real", range(5))
    def test_matches_replicated_branch_oracle_3d(self, real):
        # the grouped graph batches only the real slots; the oracle runs every
        # slot, black ones included, through its own branch
        rng = np.random.default_rng(30 + real)
        model = build_base_regressor(TINY_3D)
        for loss_kind in ("mse", "mae"):
            images = [rng.uniform(size=TINY_3D.input_shape) for _ in range(real)]
            images += [None] * (4 - real)
            images = [images[i] for i in rng.permutation(4)]
            label = float(rng.uniform(0, 10))
            node = hydra_loss(model, images, label, loss_kind)
            grads = backpropagate(node)
            ref_loss, ref_grads = hydra_loss_replicated(model, images, label, loss_kind)
            assert abs(node.item() - ref_loss) <= 1e-10
            assert grads.keys() == ref_grads.keys()
            for name in grads:
                npt.assert_allclose(grads[name], ref_grads[name], atol=1e-10)

    def test_black_slots_are_not_forwarded(self):
        model = build_base_regressor(TINY)
        img = np.random.default_rng(11).uniform(size=(1, 8, 8))
        loss = hydra_loss(model, [img, None, None, None], 1.0, "mse")
        convs = [n for n in _toposort(loss)
                 if any(re.fullmatch(r"conv\d+\.kernel", p.name or "") for p in n._parents)]
        assert len(convs) == len(TINY.conv_blocks)
        assert all(n.shape[0] == 1 for n in convs)

    def test_branch_sharing_doubles_gradients(self):
        model = build_base_regressor(TINY)
        img = np.random.default_rng(8).uniform(size=(1, 8, 8))
        # same image twice: each parameter's gradient doubles relative to the
        # per-branch contribution at the same summed-prediction error
        label = 2.0 * predict(model, img) + 1.0
        grads_pair = backpropagate(hydra_loss(model, [img, img], label, "mse"))
        _, ref = hydra_loss_replicated(model, [img, img], label, "mse")
        for name in grads_pair:
            npt.assert_allclose(grads_pair[name], ref[name], atol=1e-10)

    @pytest.mark.parametrize("arch", [TINY, TINY_3D], ids=["2d", "3d"])
    def test_black_slots_contribute_exactly_nothing(self, arch):
        # a black slot must add exactly 0 to the loss and to every gradient,
        # so that skipping it changes nothing
        model = build_base_regressor(arch)
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, b, c = (rng.uniform(size=arch.input_shape) for _ in range(3))
            label = float(rng.uniform(0, 10))
            padded = hydra_loss(model, [a, None, b, c], label, "mse")
            real = hydra_loss(model, [a, b, c], label, "mse")
            assert padded.item() == real.item()
            got, want = backpropagate(padded), backpropagate(real)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), name
        empty = hydra_loss(model, [None] * 4, 0.0, "mse")
        assert empty.item() == 0.0
        grads = backpropagate(empty)
        assert grads.keys() == model.parameters.keys()
        for name, g in grads.items():
            assert not g.any(), name

    def test_second_pass_same_gradients_and_no_intermediate_kept(self):
        rng = np.random.default_rng(13)
        model = build_base_regressor(TINY_3D)
        images = [rng.uniform(size=TINY_3D.input_shape), None,
                  rng.uniform(size=TINY_3D.input_shape)]
        node = hydra_loss(model, images, 3.0, "mse")
        first = {name: g.copy() for name, g in backpropagate(node).items()}
        assert all(n.grad is None for n in _toposort(node) if n.name is None)
        second = backpropagate(node)
        _, ref = hydra_loss_replicated(model, images, 3.0, "mse")
        assert first.keys() == second.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(first[name], second[name]), name
            npt.assert_allclose(second[name], ref[name], atol=1e-10)

    def test_backward_peak_memory_3d_set(self):
        # default model, 3 real 12^3 volumes and a black slot: holding every
        # node's gradient from the start to the end of the pass peaks at
        # 30.5 MiB traced, dropping each one once its closure has run at 25.2 MiB
        model = build_base_regressor(ArchitectureConfig(input_shape=(1, 12, 12, 12), seed=3))
        rng = np.random.default_rng(40)
        images = [rng.uniform(size=(1, 12, 12, 12)) for _ in range(3)] + [None]
        tracemalloc.start()
        try:
            backpropagate(hydra_loss(model, images, 6.0, "mse"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20, peak

    def test_finished_graph_freed_without_cycle_collector(self):
        # a graph that is a reference cycle, with every activation its nodes
        # keep, lives until the cycle collector happens to run
        model = build_base_regressor(TINY)
        img = np.random.default_rng(10).uniform(size=(1, 8, 8))
        gc.disable()
        try:
            node = hydra_loss(model, [img, None], 1.0, "mse")
            backpropagate(node)
            closure, data = weakref.ref(node._backward), weakref.ref(node.data)
            del node
            assert closure() is None and data() is None
        finally:
            gc.enable()


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        for cfg in (TINY, replace(TINY, dropout_rate=0.25)):
            model = build_base_regressor(cfg)
            path = tmp_path / "model.ssrm"
            save_model(model, path)
            back = load_model(path)
            assert back.architecture == model.architecture
            assert back.parameters.keys() == model.parameters.keys()
            for name in model.parameters:
                assert np.array_equal(back.parameters[name].data,
                                      model.parameters[name].data)
            save_model(back, tmp_path / "model2.ssrm")
            assert (tmp_path / "model.ssrm").read_bytes() == \
                (tmp_path / "model2.ssrm").read_bytes()

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = build_base_regressor(TINY)
        save_model(model, tmp_path / "m.ssrm")
        back = load_model(tmp_path / "m.ssrm")
        img = np.random.default_rng(9).uniform(size=(1, 8, 8))
        assert predict(model, img) == predict(back, img)

    def test_file_with_dims_line_loads(self, tmp_path):
        # files written before ``dims`` became derived carry a ``dims=`` line
        model = build_base_regressor(TINY_3D)
        path = tmp_path / "m.ssrm"
        save_model(model, path)
        blob = path.read_bytes()
        (text_len,) = struct.unpack("<I", blob[5:9])
        text = blob[9:9 + text_len].replace(b"dropout_rate=", b"dims=3\ndropout_rate=")
        path.write_bytes(blob[:5] + struct.pack("<I", len(text)) + text
                         + blob[9 + text_len:])
        back = load_model(path)
        assert back.architecture == TINY_3D and back.architecture.dims == 3
        for name in model.parameters:
            assert np.array_equal(back.parameters[name].data, model.parameters[name].data)

    def test_config_block_is_fixed_text(self, tmp_path):
        arch = ArchitectureConfig(input_shape=(1, 6, 6, 6), conv_blocks=((2, 3), (3, 3)),
                                  skip_connections=((1, 2),), dropout_rate=0.1, seed=11)
        path = tmp_path / "m.ssrm"
        save_model(build_base_regressor(arch), path)
        blob = path.read_bytes()
        (text_len,) = struct.unpack("<I", blob[5:9])
        assert blob[:5] == b"SSRM1"
        assert blob[9:9 + text_len] == (b"input_shape=1,6,6,6\nconv_blocks=2:3,3:3\n"
                                         b"skip_connections=1:2\ndropout_rate=0.1\nseed=11\n")

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.ssrm"
        save_model(build_base_regressor(TINY), path)
        before = path.read_bytes()
        broken = build_base_regressor(replace(TINY, seed=6))
        broken.parameters["fc.weight"].data = None  # fails after the conv kernels
        with pytest.raises(AttributeError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ssrm"]

    def test_bad_magic_named(self, tmp_path):
        path = tmp_path / "m.ssrm"
        path.write_bytes(b"WRONG" + bytes(32))
        with pytest.raises(ValueError, match="SSRM1"):
            load_model(path)

    @pytest.mark.parametrize("kind, length", [(kind, length)
                                              for kind, blob in TINY_FILES.items()
                                              for length in range(len(blob))])
    def test_every_proper_prefix_rejected(self, tmp_path, kind, length):
        path = tmp_path / "prefix"
        path.write_bytes(TINY_FILES[kind][:length])
        with pytest.raises(ValueError, match=r"bad magic|truncated|declares \d+ values"):
            (load_model if kind == "model" else read_tensor)(path)

    def test_truncated_payload(self, tmp_path):
        model = build_base_regressor(TINY)
        path = tmp_path / "m.ssrm"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="truncated payload"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = build_base_regressor(TINY)
        path = tmp_path / "m.ssrm"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)
