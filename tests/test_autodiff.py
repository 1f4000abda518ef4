import numpy as np
import numpy.testing as npt
import pytest

from setsum.autodiff import (Tensor, backpropagate, concat_channels, conv, dropout_apply,
                             fully_connected, global_avg_pool, parameter, relu)

from oracles import conv_loop, fc_loop, finite_difference, relative_error


class TestConv:
    def test_all_ones(self):
        out = conv(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 2, 2))))
        assert out.shape == (1, 2, 2)
        npt.assert_array_equal(out.data, 4.0)

    def test_zero_kernel_annihilates(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 5, 5)))
        out = conv(x, Tensor(np.zeros((2, 3, 3, 3))), Tensor(np.zeros(2)), padding=1)
        npt.assert_array_equal(out.data, 0.0)

    def test_matches_loop_oracle_2d(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        got = conv(Tensor(x), Tensor(k), padding=1).data
        npt.assert_allclose(got, conv_loop(x, k, padding=1), atol=1e-12)

    def test_matches_loop_oracle_3d_bias(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 6, 5, 7))
        k = rng.normal(size=(4, 2, 3, 3, 3))
        b = rng.normal(size=4)
        got = conv(Tensor(x), Tensor(k), Tensor(b), padding=1).data
        npt.assert_allclose(got, conv_loop(x, k, b, padding=1), atol=1e-12)

    def test_output_extent_formula(self):
        x = Tensor(np.zeros((1, 11, 9)))
        k = Tensor(np.zeros((1, 1, 3, 5)))
        assert conv(x, k, padding=2).shape == (1, 13, 9)

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(ValueError, match="kernel axis 1"):
            conv(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ValueError, match="spatial dimension 0"):
            conv(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 1, 5, 3))))


class TestRelu:
    def test_definition(self):
        npt.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        npt.assert_array_equal(relu(Tensor(-np.ones((2, 3)))).data, 0.0)

    def test_identity_on_non_negative(self):
        x = np.random.default_rng(1).uniform(0, 5, size=(4, 4))
        npt.assert_array_equal(relu(Tensor(x)).data, x)


class TestConcatChannels:
    def test_shape_algebra(self):
        out = concat_channels(Tensor(np.zeros((2, 4, 4))), Tensor(np.ones((3, 4, 4))))
        assert out.shape == (5, 4, 4)

    def test_empty_identity(self):
        x = np.random.default_rng(2).normal(size=(3, 4, 4))
        out = concat_channels(Tensor(x), Tensor(np.zeros((0, 4, 4))))
        npt.assert_array_equal(out.data, x)

    def test_first_channels_recover_a(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 4, 4)), rng.normal(size=(3, 4, 4))
        out = concat_channels(Tensor(a), Tensor(b))
        npt.assert_array_equal(out.data[:2], a)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError, match="spatial extents differ"):
            concat_channels(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 4, 5))))


class TestGlobalAvgPool:
    def test_mean(self):
        out = global_avg_pool(Tensor([[1.0, 2.0, 3.0, 4.0]]))
        npt.assert_array_equal(out.data, [2.5])

    def test_constant_channel(self):
        out = global_avg_pool(Tensor(np.full((2, 3, 3), 7.0)))
        npt.assert_array_equal(out.data, [7.0, 7.0])

    def test_matches_summation_oracle(self):
        x = np.random.default_rng(4).normal(size=(3, 7, 7))
        expected = np.array([x[c].sum() / 49.0 for c in range(3)])
        npt.assert_allclose(global_avg_pool(Tensor(x)).data, expected, atol=1e-12)


class TestFullyConnected:
    def test_identity(self):
        x = np.arange(4.0)
        out = fully_connected(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        npt.assert_array_equal(out.data, x)

    def test_zero_weights_bias_only(self):
        out = fully_connected(Tensor(np.arange(3.0)), Tensor(np.zeros((1, 3))),
                              Tensor(np.array([5.0])))
        npt.assert_array_equal(out.data, [5.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=6), rng.normal(size=(4, 6)), rng.normal(size=4)
        got = fully_connected(Tensor(x), Tensor(w), Tensor(b)).data
        npt.assert_allclose(got, fc_loop(x, w, b), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            fully_connected(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))))


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones(10))
        assert dropout_apply(x, 0.0, True, np.random.default_rng(0)) is x

    def test_inference_identity(self):
        x = Tensor(np.ones(10))
        assert dropout_apply(x, 0.9, False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            dropout_apply(Tensor(np.ones(3)), 1.0, True, np.random.default_rng(0))

    def test_inverted_scaling_keeps_mean(self):
        # mean of inverted dropout over N ones is 1 +- 3 sigma of the binomial
        n, rate = 100_000, 0.3
        out = dropout_apply(Tensor(np.ones(n)), rate, True, np.random.default_rng(6))
        sigma = np.sqrt(rate * (1 - rate) / n) / (1 - rate)
        assert abs(out.data.mean() - 1.0) < 3 * sigma


class TestBackpropagate:
    def test_square_at_three(self):
        x = parameter(np.array([3.0]), "x")
        grads = backpropagate(x * x)
        npt.assert_allclose(grads["x"], [6.0])

    def test_constant_loss_zero_gradient(self):
        x = parameter(np.array([3.0]), "x")
        grads = backpropagate(x * 0.0)
        npt.assert_array_equal(grads["x"], [0.0])

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3), "x")
        with pytest.raises(ValueError, match="scalar"):
            backpropagate(x * x)

    def test_shared_parameter_double_use_doubles_gradient(self):
        rng = np.random.default_rng(9)
        w = parameter(rng.normal(size=(1, 4)), "w")
        x = Tensor(rng.normal(size=4))
        single = backpropagate(fully_connected(x, w))
        double = backpropagate(fully_connected(x, w) + fully_connected(x, w))
        npt.assert_allclose(double["w"], 2.0 * single["w"], atol=1e-10)

    def test_gradients_match_finite_differences(self):
        # composite graph exercising every primitive's backward
        rng = np.random.default_rng(10)
        k1 = parameter(rng.normal(size=(3, 2, 3, 3)) * 0.5, "k1")
        b1 = parameter(rng.normal(size=3) * 0.1, "b1")
        w = parameter(rng.normal(size=(1, 6)) * 0.5, "w")
        x = Tensor(rng.normal(size=(2, 6, 6)) + 0.3)

        def loss_node():
            h = relu(conv(x, k1, b1, padding=1))
            h = concat_channels(h, relu(conv(x, k1, b1, padding=1)) * 0.5)
            h = concat_channels(h, Tensor(np.zeros((0, 6, 6))))
            out = fully_connected(global_avg_pool(h), w)
            diff = out - 1.5
            return diff * diff

        analytic = backpropagate(loss_node())
        arrays = {"k1": k1.data, "b1": b1.data, "w": w.data}
        numeric = finite_difference(lambda: loss_node().item(), arrays)
        for name in arrays:
            assert relative_error(analytic[name], numeric[name]).max() < 1e-4

    def test_abs_subgradient_zero_at_kink(self):
        x = parameter(np.array([0.0]), "x")
        grads = backpropagate(x.abs())
        npt.assert_array_equal(grads["x"], [0.0])

    def test_mae_style_gradient(self):
        x = parameter(np.array([2.0]), "x")
        grads = backpropagate((x - 5.0).abs())
        npt.assert_array_equal(grads["x"], [-1.0])


class TestProperties:
    def test_linear_ops_are_linear(self):
        rng = np.random.default_rng(11)
        alpha, beta = 1.7, -0.6
        x, y = rng.normal(size=(2, 5, 5)), rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        combo = Tensor(alpha * x + beta * y)

        lhs = conv(combo, Tensor(k), padding=1).data
        rhs = alpha * conv(Tensor(x), Tensor(k), padding=1).data \
            + beta * conv(Tensor(y), Tensor(k), padding=1).data
        npt.assert_allclose(lhs, rhs, atol=1e-10)

        npt.assert_allclose(global_avg_pool(combo).data,
                            alpha * global_avg_pool(Tensor(x)).data
                            + beta * global_avg_pool(Tensor(y)).data, atol=1e-10)

        w = rng.normal(size=(3, 4))
        u, v = rng.normal(size=4), rng.normal(size=4)
        npt.assert_allclose(
            fully_connected(Tensor(alpha * u + beta * v), Tensor(w)).data,
            alpha * fully_connected(Tensor(u), Tensor(w)).data
            + beta * fully_connected(Tensor(v), Tensor(w)).data, atol=1e-10)

        a1, a2 = rng.normal(size=(1, 5, 5)), rng.normal(size=(1, 5, 5))
        b1, b2 = rng.normal(size=(2, 5, 5)), rng.normal(size=(2, 5, 5))
        lhs = concat_channels(Tensor(alpha * a1 + beta * a2),
                              Tensor(alpha * b1 + beta * b2)).data
        rhs = alpha * concat_channels(Tensor(a1), Tensor(b1)).data \
            + beta * concat_channels(Tensor(a2), Tensor(b2)).data
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_forward_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(12)
            k = parameter(rng.normal(size=(2, 1, 3, 3)), "k")
            x = Tensor(rng.normal(size=(1, 6, 6)))
            out = fully_connected(global_avg_pool(relu(conv(x, k, padding=1))),
                                  Tensor(rng.normal(size=(1, 2))))
            grads = backpropagate(out * out)
            return out.data.copy(), grads["k"].copy()

        out1, g1 = run()
        out2, g2 = run()
        assert np.array_equal(out1, out2)
        assert np.array_equal(g1, g2)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(13)
        k = parameter(rng.normal(size=(4, 3, 3, 3)), "k")
        x = Tensor(rng.normal(size=(3, 8, 8)) * 100)
        out = global_avg_pool(relu(conv(x, k, padding=1)))
        total = fully_connected(out, Tensor(rng.normal(size=(1, 4))))
        grads = backpropagate(total * total)
        assert np.isfinite(total.data).all()
        assert all(np.isfinite(g).all() for g in grads.values())
