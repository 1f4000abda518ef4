import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from setsum.autodiff import backpropagate
from setsum.regressor import (ArchitectureConfig, build_base_regressor, hydra_forward,
                              hydra_loss, hydra_loss_replicated, load_model, predict,
                              save_model)

TINY = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                          skip_connections=((1, 2),), seed=5)


def walk_parameter_count(arch: ArchitectureConfig) -> int:
    """Independent shape walk over the block list."""
    total = 0
    channels = arch.input_shape[0]
    outputs = []
    for i, (maps, k) in enumerate(arch.conv_blocks, start=1):
        in_ch = channels + sum(outputs[s - 1] for s, d in arch.skip_connections if d == i)
        total += maps * in_ch * k ** arch.dims
        if not arch.zero_bias:
            total += maps
        outputs.append(maps)
        channels = maps
    total += channels  # fc weight row
    if not arch.zero_bias:
        total += 1
    return total


class TestBuild:
    def test_deterministic_for_fixed_seed(self):
        a = build_base_regressor(TINY)
        b = build_base_regressor(TINY)
        assert a.parameters.keys() == b.parameters.keys()
        for name in a.parameters:
            assert np.array_equal(a.parameters[name].data, b.parameters[name].data)

    def test_different_seeds_differ(self):
        from dataclasses import replace
        a = build_base_regressor(TINY)
        b = build_base_regressor(replace(TINY, seed=6))
        assert not np.array_equal(a.parameters["conv1.kernel"].data,
                                  b.parameters["conv1.kernel"].data)

    def test_zero_bias_has_no_bias_parameters(self):
        model = build_base_regressor(TINY)
        assert not any("bias" in name for name in model.parameters)

    def test_biases_exist_when_enabled(self):
        from dataclasses import replace
        model = build_base_regressor(replace(TINY, zero_bias=False))
        assert "conv1.bias" in model.parameters
        assert "fc.bias" in model.parameters
        npt.assert_array_equal(model.parameters["fc.bias"].data, 0.0)

    def test_parameter_count_matches_shape_walk(self):
        desk = ArchitectureConfig(input_shape=(1, 16, 16))
        assert build_base_regressor(desk).parameter_count == walk_parameter_count(desk)
        assert build_base_regressor(TINY).parameter_count == walk_parameter_count(TINY)
        from dataclasses import replace
        with_bias = replace(desk, zero_bias=False)
        assert build_base_regressor(with_bias).parameter_count == walk_parameter_count(with_bias)

    def test_desk_scale_count_value(self):
        # 8*1*9 + 16*8*9 + 24*24*9 + 32*24*9 + 32 by hand
        assert build_base_regressor(ArchitectureConfig((1, 16, 16))).parameter_count == 13352

    def test_inconsistent_skip_rejected(self):
        # the even kernel in block 2 grows the extent, so block 1's output no
        # longer matches block 3's input
        cfg = ArchitectureConfig(input_shape=(1, 8, 8),
                                 conv_blocks=((3, 3), (4, 2), (5, 3)),
                                 skip_connections=((1, 3),))
        with pytest.raises(ValueError, match="skip connection 1->3"):
            build_base_regressor(cfg)

    def test_bad_skip_order_rejected(self):
        with pytest.raises(ValueError, match="source < target"):
            ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                               skip_connections=((2, 1),))

    def test_3d_architecture_builds_and_runs(self):
        cfg = ArchitectureConfig(input_shape=(1, 6, 6, 6), conv_blocks=((2, 3), (3, 3)),
                                 skip_connections=(), dims=3, seed=1)
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
        padded = hydra_forward(model, [img, None, None, None])
        assert abs(padded - predict(model, img)) < 1e-12

    def test_black_padding_identity_with_biases(self):
        # without zero_bias (and nonzero biases) the identity needs the
        # f(black) correction term
        from dataclasses import replace
        model = build_base_regressor(replace(TINY, zero_bias=False, seed=9))
        rng = np.random.default_rng(6)
        for name, p in model.parameters.items():
            if name.endswith(".bias"):
                p.data = rng.uniform(0.1, 0.5, size=p.shape)
        img = rng.uniform(size=(1, 8, 8))
        black = predict(model, model.black_image())
        assert black != 0.0
        padded = hydra_forward(model, [img, None, None, None])
        assert abs(padded - (predict(model, img) + 3 * black)) < 1e-12

    def test_empty_set_rejected(self):
        model = build_base_regressor(TINY)
        with pytest.raises(ValueError, match="at least one slot"):
            hydra_forward(model, [])


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

    def test_finished_graph_freed_without_cycle_collector(self):
        # a graph that is a reference cycle, with all its im2col columns,
        # lives until the cycle collector happens to run
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
        from dataclasses import replace
        for cfg in (TINY, replace(TINY, zero_bias=False, dropout_rate=0.25)):
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

    def test_bad_magic_named(self, tmp_path):
        path = tmp_path / "m.ssrm"
        path.write_bytes(b"WRONG" + bytes(32))
        with pytest.raises(ValueError, match="SSRM1"):
            load_model(path)

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
