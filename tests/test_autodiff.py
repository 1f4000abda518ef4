import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import setsum.autodiff
from setsum.autodiff import (Tensor, _tap_major, _toposort, backpropagate,
                             concat_channels, conv, dropout_apply, fully_connected, global_avg_pool, parameter,
                             relu, rows)

from oracles import conv_loop, fc_loop, finite_difference, relative_error


class TestConv:
    def test_all_ones(self):
        # same padding: each output counts the input positions its 3x3 window covers
        out = conv(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
        assert out.shape == (1, 1, 3, 3)
        npt.assert_array_equal(out.data[0, 0], [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0],
                                                [4.0, 6.0, 4.0]])

    def test_zero_kernel_annihilates(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        out = conv(x, Tensor(np.zeros((2, 3, 3, 3))))
        npt.assert_array_equal(out.data, 0.0)

    def test_matches_loop_oracle_2d(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        got = conv(Tensor(x[None]), Tensor(k)).data[0]
        npt.assert_allclose(got, conv_loop(x, k, padding=1), atol=1e-12)

    def test_matches_loop_oracle_3d(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 6, 5, 7))
        k = rng.normal(size=(4, 2, 3, 3, 3))
        got = conv(Tensor(x[None]), Tensor(k)).data[0]
        npt.assert_allclose(got, conv_loop(x, k, padding=1), atol=1e-12)

    @pytest.mark.parametrize("spatial, kext", [((11, 9), (3, 5)), ((2, 8), (5, 3)),
                                               ((4, 3, 5), (1, 3, 5))],
                             ids=["2d-k3x5", "2d-k5x3", "3d-k1x3x5"])
    def test_output_keeps_input_extents(self, spatial, kext):
        # a 5x3 kernel fits a 2x8 input too: the output never shrinks
        x = Tensor(np.zeros((2, 1) + spatial))
        assert conv(x, Tensor(np.zeros((1, 1) + kext))).shape == (2, 1) + spatial

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(ValueError, match="kernel axis 1"):
            conv(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))

    def test_multi_block_node_keeps_no_columns(self):
        # 24 -> 32 channels, 3x3x3 at 12^3: 3.48 MB of columns unfolded over
        # the last two axes, which the node must not keep; it holds its
        # output (0.44 MB)
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(1, 24, 12, 12, 12)))
        kernel = parameter(rng.normal(size=(32, 24, 3, 3, 3)), "kernel")
        tracemalloc.start()
        try:
            out = conv(x, kernel)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 32, 12, 12, 12)
        assert held < 2 * 2**20, held

    def test_node_keeps_only_its_parents(self):
        # 8 -> 6 channels at 16x16, batch 4: one block of 221 KB of columns
        # and an 83 KB padded input, neither of which the node may keep
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(4, 8, 16, 16)))
        kernel = parameter(rng.normal(size=(6, 8, 3, 3)), "kernel")
        tracemalloc.start()
        try:
            out = conv(x, kernel)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < out.data.nbytes + 16 * 2**10, held
        kept = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(isinstance(v, np.ndarray) for v in kept)
        assert [v for v in kept if isinstance(v, Tensor)] in ([x, kernel], [kernel, x])


class TestConvBatchBits:
    """Each image gets its own GEMMs, so a conv's output and input gradient for
    one image are the same bits in any batch and at any column budget."""

    @pytest.mark.parametrize("spatial, kext", [((9, 7), (3, 3)), ((7, 6, 5), (3, 3, 3)),
                                               ((9, 8), (5, 5)), ((6, 7, 8), (1, 3, 5))],
                             ids=["2d-k3", "3d-k3", "2d-k5", "3d-k1x3x5"])
    def test_batch_equals_per_image(self, monkeypatch, spatial, kext):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(3, 4) + spatial)
        kernel = Tensor(rng.normal(size=(5, 4) + kext))
        g = rng.normal(size=(3, 5) + spatial)

        def forward_backward(b):
            xb = parameter(x[b], "x")
            out = conv(xb, kernel)
            xb.grad = np.zeros_like(xb.data)
            out._backward(g[b])
            return out.data, xb.grad

        single = [forward_backward(slice(b, b + 1)) for b in range(3)]
        for budget in (setsum.autodiff._BLOCK_BYTES, 1):
            monkeypatch.setattr(setsum.autodiff, "_BLOCK_BYTES", budget)
            batch = forward_backward(slice(None))
            for b, (out, grad) in enumerate(single):
                npt.assert_array_equal(batch[0][b], out[0])
                npt.assert_array_equal(batch[1][b], grad[0])


class TestConvKernelLayout:
    """A kernel held tap-major behind its logical shape, as the regressor
    stores its kernels, is conv's GEMM operand without a copy and gives the
    bits of the same values in C order, forward and backward."""

    @pytest.mark.parametrize("spatial, kext", [((7, 6), (3, 3)), ((5, 6, 4), (3, 3, 3)),
                                               ((6, 7, 5), (3, 1, 5))],
                             ids=["2d-k3", "3d-k3", "3d-k3x1x5"])
    def test_tap_major_storage_same_bits(self, spatial, kext):
        rng = np.random.default_rng(31)
        x_data = rng.normal(size=(2, 3) + spatial)
        values = rng.normal(size=(4, 3) + kext)
        g = rng.normal(size=(2, 4) + spatial)
        stored = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 2, 0)), 0, 2)
        assert not stored.flags.c_contiguous
        assert np.shares_memory(_tap_major(stored), stored)

        def forward_backward(kernel_data):
            x, kernel = parameter(x_data, "x"), parameter(kernel_data, "kernel")
            out = conv(x, kernel)
            x.grad, kernel.grad = np.zeros_like(x.data), np.zeros_like(kernel.data)
            out._backward(g)
            return out.data, x.grad, kernel.grad

        for got, want in zip(forward_backward(stored), forward_backward(values)):
            npt.assert_array_equal(got, want)


class ConvBatchChecks:
    """Conv on a batch equals the oracle item by item, and its input and kernel
    gradients match finite differences."""

    @pytest.mark.parametrize("spatial", [(6, 7), (5, 6, 5)], ids=["2d", "3d"])
    @pytest.mark.parametrize("padding, k", [(p, k) for k in (1, 2, 3, 5) for p in range(k + 1)])
    def test_conv_per_item(self, spatial, k, padding):
        # The oracle's correlation at any padding is a window of the
        # same-padded conv, at padding k // 2 the whole output.  An even
        # kernel gets a zero tap appended (same padding needs odd extents),
        # and the input is widened by the zeros that the oracle's padding
        # adds beyond the conv's own.
        rng = np.random.default_rng(20 + k + padding)
        d = len(spatial)
        x = rng.normal(size=(3, 2) + spatial)
        kernel = rng.normal(size=(2, 2) + (k,) * d)
        odd = np.pad(kernel, [(0, 0)] * 2 + [(0, 1 - k % 2)] * d)
        widen = max(padding + k // 2 + 1 - k, 0)
        got = conv(Tensor(np.pad(x, [(0, 0)] * 2 + [(widen, widen)] * d)), Tensor(odd)).data
        assert got.shape[0] == 3
        start = k // 2 + widen - padding
        for b in range(3):
            want = conv_loop(x[b], kernel, padding=padding)
            window = tuple(slice(start, start + n) for n in want.shape[1:])
            npt.assert_allclose(got[b][(slice(None),) + window], want, atol=1e-12)

    @pytest.mark.parametrize("spatial,kext", [((5, 6), (3, 3)), ((6, 5), (5, 5)),
                                              ((4, 3, 4), (3, 3, 3)), ((5, 6), (3, 5)),
                                              ((5, 6), (2, 2))],
                             ids=["2d-k3", "2d-k5", "3d-k3", "2d-k3x5", "2d-k2"])
    def test_input_gradient_matches_finite_differences(self, spatial, kext):
        rng = np.random.default_rng(22 + max(kext))
        kernel = parameter(rng.normal(size=(3, 2) + kext), "kernel")
        x = parameter(rng.normal(size=(2, 2) + spatial), "x")
        if any(k % 2 == 0 for k in kext):
            with pytest.raises(ValueError, match="must be odd"):
                conv(x, kernel)
            return
        w = Tensor(rng.normal(size=(1, 3)))
        weight = Tensor(rng.normal(size=(2, 3) + spatial))

        def loss_node():
            heads = rows(fully_connected(global_avg_pool(conv(x, kernel) * weight), w))
            return heads[0] + heads[1]

        analytic = backpropagate(loss_node())
        arrays = {"x": x.data, "kernel": kernel.data}
        numeric = finite_difference(lambda: loss_node().item(), arrays)
        for name in arrays:
            assert relative_error(analytic[name], numeric[name]).max() < 1e-6, name


class TestBatch(ConvBatchChecks):
    """Every primitive applied to a batch equals the oracle applied item by item."""

    def test_concat_pool_fc_per_item(self):
        rng = np.random.default_rng(21)
        a, c = rng.normal(size=(3, 2, 4, 5)), rng.normal(size=(3, 1, 4, 5))
        w = rng.normal(size=(2, 3))
        cat = concat_channels(Tensor(a), Tensor(c)).data
        pooled = global_avg_pool(Tensor(cat)).data
        out = fully_connected(Tensor(pooled), Tensor(w)).data
        for b in range(3):
            npt.assert_array_equal(cat[b], np.concatenate([a[b], c[b]]))
            npt.assert_allclose(pooled[b], [cat[b, ch].sum() / 20.0 for ch in range(3)],
                                atol=1e-12)
            npt.assert_allclose(out[b], fc_loop(pooled[b], w), atol=1e-12)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch sizes differ"):
            concat_channels(Tensor(np.zeros((2, 1, 4, 4))), Tensor(np.zeros((3, 1, 4, 4))))

    def test_rows_route_gradients(self):
        x = parameter(np.arange(3.0).reshape(3, 1), "x")
        items = rows(x)
        assert [item.data.tolist() for item in items] == [[0.0], [1.0], [2.0]]
        grads = backpropagate(items[0] + items[2] * 2.0)
        npt.assert_array_equal(grads["x"], [[1.0], [0.0], [2.0]])

    def test_rows_gradients_match_per_row_addition_bit_for_bit(self):
        # row gradients of -0.0, and pulls that cancel to an exact zero, give
        # the bits of adding each gradient into its own zero-filled row: the
        # zero rows of every full-size pull change no bit of the others
        x = parameter(np.zeros((3, 2)), "x")
        items = rows(x)
        x.grad = np.zeros(x.shape)
        want = np.zeros(x.shape)
        for b, g in ((0, [-0.0, 1.5]), (1, [-0.0, -0.0]), (2, [2.0, -0.0]),
                     (0, [-0.0, -1.5]), (1, [-0.0, -0.0]), (2, [-2.0, 0.5])):
            items[b]._backward(np.array(g))
            want[b] += g
        assert x.grad.tobytes() == want.tobytes()
        assert not np.signbit(want).any()


class TestConvInOneRowBlocks(ConvBatchChecks):
    """ConvBatchChecks with a one-byte column budget, so every conv unfolds its
    input, and its output gradient, one batch row (one image) at a time."""

    @pytest.fixture(autouse=True)
    def one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(setsum.autodiff, "_BLOCK_BYTES", 1)


class TestConvPlan:
    """Conv's shape-only work is planned once per (input shape, kernel shape);
    the column budget and the shape checks still act on every call."""

    def test_budget_is_read_after_the_plan_exists(self, monkeypatch):
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(3, 2, 7, 6)))
        kernel = Tensor(rng.normal(size=(4, 2, 3, 3)))
        want = conv(x, kernel).data
        plan = setsum.autodiff._conv_plan(x.shape, kernel.shape)
        assert len(list(setsum.autodiff._tap_views(x.data, plan.x))) == 1
        monkeypatch.setattr(setsum.autodiff, "_BLOCK_BYTES", 1)
        blocks = [b for b, _ in setsum.autodiff._tap_views(x.data, plan.x)]
        assert blocks == [slice(0, 1), slice(1, 2), slice(2, 3)]
        npt.assert_array_equal(conv(x, kernel).data.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("x_shape, kernel_shape, message", [
        ((1, 1, 4), (1, 1, 3), "2 or 3 spatial dimensions"),
        ((1, 1, 4, 4, 4), (1, 1, 3, 3), "got 5 axes for 2 spatial dimensions"),
        ((1, 3, 4, 4), (1, 2, 3, 3), "kernel axis 1"),
        ((1, 1, 4, 4), (1, 1, 3, 2), "must be odd"),
    ], ids=["rank", "axes", "channels", "even"])
    def test_shape_errors_raise_on_every_call(self, x_shape, kernel_shape, message):
        x, kernel = Tensor(np.zeros(x_shape)), Tensor(np.zeros(kernel_shape))
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                conv(x, kernel)

    def test_cache_is_bounded_and_holds_no_arrays(self):
        plan_of = setsum.autodiff._conv_plan
        assert plan_of.cache_info().maxsize is not None
        shapes = [((2, 3, 5, 6), (4, 3, 3, 3)), ((1, 2, 4, 5, 3), (3, 2, 1, 3, 5))]
        for x_shape, kernel_shape in shapes:
            conv(Tensor(np.zeros(x_shape)), Tensor(np.zeros(kernel_shape)))

        def leaves(v):
            if isinstance(v, tuple):
                for item in v:
                    yield from leaves(item)
            else:
                yield v

        for x_shape, kernel_shape in shapes:
            hits = plan_of.cache_info().hits
            found = list(leaves(plan_of(x_shape, kernel_shape)))
            assert plan_of.cache_info().hits == hits + 1
            assert found and all(isinstance(v, (int, slice, type(...))) for v in found), found


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
        out = concat_channels(Tensor(np.zeros((2, 2, 4, 4))), Tensor(np.ones((2, 3, 4, 4))))
        assert out.shape == (2, 5, 4, 4)

    def test_empty_identity(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 4, 4))
        out = concat_channels(Tensor(x), Tensor(np.zeros((2, 0, 4, 4))))
        npt.assert_array_equal(out.data, x)

    def test_first_channels_recover_a(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(2, 3, 4, 4))
        out = concat_channels(Tensor(a), Tensor(b))
        npt.assert_array_equal(out.data[:, :2], a)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError, match="spatial extents differ"):
            concat_channels(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 4, 5))))


class TestGlobalAvgPool:
    def test_mean(self):
        out = global_avg_pool(Tensor([[[1.0, 2.0, 3.0, 4.0]]]))
        npt.assert_array_equal(out.data, [[2.5]])

    def test_constant_channel(self):
        out = global_avg_pool(Tensor(np.full((1, 2, 3, 3), 7.0)))
        npt.assert_array_equal(out.data, [[7.0, 7.0]])

    def test_matches_summation_oracle(self):
        x = np.random.default_rng(4).normal(size=(3, 7, 7))
        expected = np.array([x[c].sum() / 49.0 for c in range(3)])
        npt.assert_allclose(global_avg_pool(Tensor(x[None])).data[0], expected, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4, 7, 5), (2, 3, 1, 6), (1, 2, 1, 1), (2, 3, 4, 1, 5),
                                       (1, 1, 1, 1, 1), (4, 2, 6, 5, 3)])
    def test_bits_equal_numpy_mean(self, shape):
        x = np.random.default_rng(sum(shape)).normal(size=shape) * 10.0 ** np.arange(shape[-1])
        want = x.reshape(shape[0], shape[1], -1).mean(axis=2)
        npt.assert_array_equal(global_avg_pool(Tensor(x)).data.view(np.uint64),
                               want.view(np.uint64))


class TestFullyConnected:
    def test_identity(self):
        x = np.arange(4.0)
        out = fully_connected(Tensor(x[None]), Tensor(np.eye(4)))
        npt.assert_array_equal(out.data[0], x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=6), rng.normal(size=(4, 6))
        got = fully_connected(Tensor(x[None]), Tensor(w)).data[0]
        npt.assert_allclose(got, fc_loop(x, w), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            fully_connected(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))))


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones(10))
        assert dropout_apply(x, 0.0, np.random.default_rng(0)) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            dropout_apply(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_inverted_scaling_keeps_mean(self):
        # mean of inverted dropout over N ones is 1 +- 3 sigma of the binomial
        n, rate = 100_000, 0.3
        out = dropout_apply(Tensor(np.ones(n)), rate, np.random.default_rng(6))
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
        x = Tensor(rng.normal(size=(1, 4)))
        single = backpropagate(fully_connected(x, w))
        double = backpropagate(fully_connected(x, w) + fully_connected(x, w))
        npt.assert_allclose(double["w"], 2.0 * single["w"], atol=1e-10)
        p = parameter(np.array([1.5]), "p")
        npt.assert_array_equal(backpropagate(p + p)["p"], [2.0])

    def test_constant_operand_gets_no_gradient(self):
        p = parameter(np.array([2.0]), "p")
        c = Tensor(np.array([-0.5]))
        grads = backpropagate((p + c) * (c + p))
        npt.assert_array_equal(grads["p"], [3.0])
        assert c.grad is None

    def test_gradients_match_finite_differences(self):
        # composite graph exercising every primitive's backward
        rng = np.random.default_rng(10)
        k1 = parameter(rng.normal(size=(3, 2, 3, 3)) * 0.5, "k1")
        w = parameter(rng.normal(size=(1, 6)) * 0.5, "w")
        x = Tensor(rng.normal(size=(1, 2, 6, 6)) + 0.3)

        def loss_node():
            h = relu(conv(x, k1))
            h = concat_channels(h, relu(conv(x, k1)) * 0.5)
            h = concat_channels(h, Tensor(np.zeros((1, 0, 6, 6))))
            out = fully_connected(global_avg_pool(h), w)
            diff = out - 1.5
            return diff * diff

        analytic = backpropagate(loss_node())
        arrays = {"k1": k1.data, "w": w.data}
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

    def test_only_leaves_keep_gradients_and_second_pass_repeats(self):
        rng = np.random.default_rng(14)
        k = parameter(rng.normal(size=(3, 2, 3, 3)), "k")
        w = parameter(rng.normal(size=(1, 5)), "w")
        h = relu(conv(Tensor(rng.normal(size=(2, 2, 5, 5))), k))
        h = concat_channels(h, Tensor(rng.normal(size=(2, 2, 5, 5))))
        a, b = rows(fully_connected(global_avg_pool(h), w))
        loss = (a + b - 1.0).abs() * (a * b)
        first = backpropagate(loss)
        nodes = _toposort(loss)
        assert {n.name for n in nodes if n.grad is not None} == {"k", "w"}
        assert all(n.grad is None for n in nodes if n.name is None)
        assert all(first[n.name] is n.grad for n in nodes if n.name is not None)
        second = backpropagate(loss)
        assert first.keys() == second.keys()
        for name in first:
            assert np.array_equal(first[name], second[name]), name


class TestProperties:
    def test_linear_ops_are_linear(self):
        rng = np.random.default_rng(11)
        alpha, beta = 1.7, -0.6
        x, y = rng.normal(size=(1, 2, 5, 5)), rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        combo = Tensor(alpha * x + beta * y)

        lhs = conv(combo, Tensor(k)).data
        rhs = alpha * conv(Tensor(x), Tensor(k)).data \
            + beta * conv(Tensor(y), Tensor(k)).data
        npt.assert_allclose(lhs, rhs, atol=1e-10)

        npt.assert_allclose(global_avg_pool(combo).data,
                            alpha * global_avg_pool(Tensor(x)).data
                            + beta * global_avg_pool(Tensor(y)).data, atol=1e-10)

        w = rng.normal(size=(3, 4))
        u, v = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        npt.assert_allclose(
            fully_connected(Tensor(alpha * u + beta * v), Tensor(w)).data,
            alpha * fully_connected(Tensor(u), Tensor(w)).data
            + beta * fully_connected(Tensor(v), Tensor(w)).data, atol=1e-10)

        a1, a2 = rng.normal(size=(1, 1, 5, 5)), rng.normal(size=(1, 1, 5, 5))
        b1, b2 = rng.normal(size=(1, 2, 5, 5)), rng.normal(size=(1, 2, 5, 5))
        lhs = concat_channels(Tensor(alpha * a1 + beta * a2),
                              Tensor(alpha * b1 + beta * b2)).data
        rhs = alpha * concat_channels(Tensor(a1), Tensor(b1)).data \
            + beta * concat_channels(Tensor(a2), Tensor(b2)).data
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_forward_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(12)
            k = parameter(rng.normal(size=(2, 1, 3, 3)), "k")
            x = Tensor(rng.normal(size=(1, 1, 6, 6)))
            out = fully_connected(global_avg_pool(relu(conv(x, k))),
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
        x = Tensor(rng.normal(size=(1, 3, 8, 8)) * 100)
        out = global_avg_pool(relu(conv(x, k)))
        total = fully_connected(out, Tensor(rng.normal(size=(1, 4))))
        grads = backpropagate(total * total)
        assert np.isfinite(total.data).all()
        assert all(np.isfinite(g).all() for g in grads.values())
