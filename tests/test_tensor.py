"""Autodiff core: op contracts, gradient checks against central differences."""

import contextlib
import gc
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_grads_match, rel_err, sum_all, teacher_forced, tiny_config
from vttcap import tensor as T
from vttcap.errors import ContractError, DimensionError
from vttcap.model import TransformerModel
from vttcap.tensor import RngState, Tensor


def p64(arr):
    return T.parameter(np.asarray(arr, dtype=np.float64))


class TestMatmul:
    def test_identity(self):
        a = T.constant(np.arange(6.0).reshape(2, 3))
        eye = T.constant(np.eye(2))
        assert np.allclose(T.matmul(eye, a).data, a.data)

    def test_zero(self):
        a = T.constant(np.arange(6.0).reshape(2, 3))
        z = T.constant(np.zeros((2, 2)))
        assert np.all(T.matmul(z, a).data == 0)

    def test_hand_case(self):
        out = T.matmul(T.constant([[1.0, 2.0], [3.0, 4.0]]), T.constant([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_shape_error_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_lastdim(T.constant([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_no_overflow(self):
        out = T.softmax_lastdim(T.constant([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] > 1 - 1e-6 and out.data[1] < 1e-6

    def test_closed_form(self):
        out = T.softmax_lastdim(T.constant(np.array([math.log(2.0), 0.0])))
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-7)

    def test_rows_sum_to_one(self, np_rng):
        x = T.constant(np_rng.normal(size=(5, 7)))
        assert np.allclose(T.softmax_lastdim(x).data.sum(axis=-1), 1.0)


class TestLayerNorm:
    def test_constant_row_zero(self):
        x = T.constant(np.full((1, 4), 3.7))
        g = T.constant(np.ones(4))
        b = T.constant(np.zeros(4))
        out = T.layer_norm(x, g, b, eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_standardizes(self, np_rng):
        x = T.constant(np_rng.normal(2.0, 3.0, size=(6, 16)))
        out = T.layer_norm(x, T.constant(np.ones(16)), T.constant(np.zeros(16)),
                           eps=1e-9)
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-3

    def test_two_point_row(self):
        out = T.layer_norm(T.constant([[1.0, 3.0]]), T.constant(np.ones(2)),
                           T.constant(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_zero_length_row(self):
        with pytest.raises(DimensionError):
            T.layer_norm(T.constant(np.zeros((2, 0))), T.constant(np.zeros(0)),
                         T.constant(np.zeros(0)))


def np_var_layer_norm(x, gamma, beta, g, eps=1e-5):
    """layer_norm through ``np.var`` and its backward, as plain arrays: the
    output and the gradients of x, gamma and beta for output gradient g."""
    mean = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mean) * inv
    gy = g * gamma
    dx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(g.ndim - 1))
    return xhat * gamma + beta, dx, np.sum(g * xhat, axis=lead), np.sum(g, axis=lead)


class TestLayerNormExactness:
    @pytest.mark.parametrize("d", [1, 3, 32, 33, 48, 512])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_bit_equal_the_np_var_formula(self, d, dtype, np_rng):
        # rows of different scales and offsets, none of them centred
        x = (np_rng.normal(size=(3, 4, d)) * np_rng.uniform(1e-3, 1e3, size=(3, 4, 1))
             + np_rng.normal(0.0, 50.0, size=(3, 4, 1))).astype(dtype)
        gamma, beta = (np_rng.normal(size=d).astype(dtype) for _ in range(2))
        g = np_rng.normal(size=x.shape).astype(dtype)
        xs, gs, bs = T.parameter(x), T.parameter(gamma), T.parameter(beta)
        y = T.layer_norm(xs, gs, bs)
        sum_all(T.mul(y, T.constant(g))).backward()  # the layer's output gradient is g
        for name, got, want in zip(("y", "dx", "dgamma", "dbeta"),
                                   (y.data, xs.grad, gs.grad, bs.grad),
                                   np_var_layer_norm(x, gamma, beta, g)):
            assert got.dtype == want.dtype == dtype, name
            assert np.array_equal(got, want), name


def _op_results(t, x):
    """One result of every primitive on operands made by ``t``, plus the ops
    that NumPy answers with a scalar rather than an array, on 0-d operands."""
    m = t(3, 5)
    loss = T.cross_entropy(t(2, 3, 5), np.zeros((2, 3), dtype=np.int64))
    return {
        "matmul": T.matmul(x, t(4, 4)), "add": T.add(x, x), "mul": T.mul(x, t(4)),
        "scale": T.scale(x, 0.5), "relu": T.relu(x), "sigmoid": T.sigmoid(x),
        "softmax_lastdim": T.softmax_lastdim(x), "layer_norm": T.layer_norm(x, t(4), t(4)),
        "concat": T.concat([x, t(2, 1, 4)], axis=1), "slice_rows": T.slice_rows(m, 1, 2),
        "slice_cols": T.slice_cols(m, 0, 2), "gather_rows": T.gather_rows(m, [0, 2, 2]),
        "transpose": T.transpose(x, (2, 0, 1)), "reshape": T.reshape(x, (6, 4)),
        "matmul bias": T.matmul(x, t(4, 4), t(4)), "attention": T.attention(x, x, x),
        "split_heads": T.split_heads(x, 2),
        "merge_heads": T.merge_heads(T.reshape(x, (1, 2, 3, 4))),
        "layer_norm residual": T.layer_norm(x, t(4), t(4), x),
        "sum_all": sum_all(x), "cross_entropy": loss,
        "add 0-d": T.add(loss, loss), "mul 0-d": T.mul(loss, loss),
        "scale 0-d": T.scale(loss, 2.0), "relu 0-d": T.relu(loss),
    }


class TestOpResults:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [True, False])
    def test_every_primitive_returns_an_ndarray_of_its_dtype(self, dtype, record, np_rng):
        def t(*shape):
            return T.parameter(np_rng.normal(size=shape).astype(dtype))

        gc.collect()
        gc.disable()
        try:
            with contextlib.nullcontext() if record else T.no_grad():
                outs = _op_results(t, t(2, 3, 4))
            for name, out in outs.items():
                assert type(out.data) is np.ndarray and out.dtype == dtype, name
                assert out.grad is None and out.name is None, name
                assert out.requires_grad is record, name
                assert (out._backward is not None) is record and bool(out._inputs) is record, name
            assert outs["sum_all"].shape == outs["cross_entropy"].shape == outs["add 0-d"].shape == ()
            del outs, out  # a backward that held its own result would be a cycle
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_zero_d_graph_backpropagates(self):
        x = p64([1.0, 2.0, 3.0])
        total = sum_all(x)
        T.scale(T.add(total, T.mul(total, total)), 0.5).backward()  # (s + s^2) / 2
        assert np.array_equal(x.grad, np.full(3, 0.5 * (1.0 + 2.0 * 6.0)))


class TestBackwardBasics:
    def test_square(self):
        x = p64(3.0)
        loss = T.mul(x, x)
        loss.backward()
        assert x.grad == pytest.approx(6.0)

    def test_sum_gives_ones(self):
        x = p64(np.arange(6.0).reshape(2, 3))
        sum_all(x).backward()
        assert np.all(x.grad == 1.0)

    def test_non_scalar_rejected(self):
        x = p64(np.ones((2, 2)))
        with pytest.raises(ContractError):
            T.add(x, x).backward()

    def test_accumulation_over_reuse(self):
        x = p64(2.0)
        T.add(x, x).backward()
        assert x.grad == pytest.approx(2.0)

    def test_path_sum_linearity(self):
        base = np.array([0.4, -1.2, 2.0])
        x = p64(base)
        T.add(sum_all(T.mul(x, x)), sum_all(T.scale(x, 3.0))).backward()
        combined = x.grad.copy()

        x1 = p64(base)
        sum_all(T.mul(x1, x1)).backward()
        x2 = p64(base)
        sum_all(T.scale(x2, 3.0)).backward()
        assert np.allclose(combined, x1.grad + x2.grad)

    def test_random_three_op_graph(self, np_rng):
        a = p64(np_rng.normal(size=(3, 4)))
        b = p64(np_rng.normal(size=(4, 2)))
        c = p64(np_rng.normal(size=(3, 2)))

        def loss():
            return sum_all(T.mul(T.add(T.matmul(a, b), c), c))

        worst = assert_grads_match(loss, [a, b, c], np.random.default_rng(0),
                                   n_components=20)
        assert worst < 1e-4


class TestGraphLifetime:
    """One backward per graph: interior nodes free what they held, leaves keep ``grad``."""

    def graph(self, np_rng):
        x, w = p64(np_rng.normal(size=(3, 4))), p64(np_rng.normal(size=(4, 2)))
        c = T.constant(np_rng.normal(size=(3, 2)))
        h = T.relu(T.matmul(x, w))
        return (x, w, c), h, sum_all(T.mul(h, c))

    def test_interior_nodes_are_freed_and_leaves_keep_their_grad(self, np_rng):
        (x, w, c), h, loss = self.graph(np_rng)
        nodes = T._toposort(loss)
        interior = [t for t in nodes if t._inputs]
        assert len(interior) == 4 and h in interior and loss in interior
        arrays = [t.data for t in interior]
        loss.backward()
        for t, data in zip(interior, arrays):
            assert t.grad is None and t._inputs == () and t._backward is T._freed, t
            assert t.data is data
        assert x.grad is not None and w.grad is not None and c.grad is None
        assert np.isfinite(loss.item())

    def test_second_backward_through_a_freed_node_raises(self, np_rng):
        _, h, loss = self.graph(np_rng)
        loss.backward()
        with pytest.raises(ContractError, match="freed"):
            loss.backward()
        with pytest.raises(ContractError, match="freed"):
            sum_all(h).backward()

    @pytest.mark.parametrize("dtype,rows,d_in,cols", [
        (np.float32, 5, 64, 40000), (np.float64, 3, 96, 21847)])
    def test_blocked_weight_gradient_equals_the_full_product(self, dtype, rows, d_in, cols):
        assert d_in * cols > T._GRAD_BLOCK and cols % (T._GRAD_BLOCK // d_in) != 0
        rng = np.random.default_rng(5)
        a = T.constant(rng.normal(size=(1, rows, d_in)).astype(dtype))
        g = rng.normal(size=(1, rows, cols)).astype(dtype)
        w = T.parameter(rng.normal(size=(d_in, cols)).astype(dtype))
        w.grad = np.zeros_like(w.data)  # as an arena view: a buffer to add into
        sum_all(T.mul(T.matmul(a, w), T.constant(g))).backward()
        expected = np.zeros_like(w.data)
        expected += a.data[0].T @ g[0]
        assert np.array_equal(w.grad.view(np.uint8), expected.view(np.uint8))

    def test_backward_makes_no_out_proj_sized_temporary(self):
        model = TransformerModel(tiny_config(d_model=32, vocab_size=100_000), seed=6)
        weight = model.params["out_proj.w"]
        assert weight.data.size > 3 * T._GRAD_BLOCK
        frames = np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32)
        loss = T.cross_entropy(teacher_forced(model, [(frames, None)], [[1, 5]]), [[5, 2]])
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.any(weight.grad)
        assert peak < weight.data.nbytes


class TestPrimitiveGradients:
    """Every primitive: analytic vs central difference on random instances."""

    @pytest.mark.parametrize("trial", range(20))
    def test_matmul_add_mul_scale(self, trial):
        rng = np.random.default_rng(100 + trial)
        a = p64(rng.normal(size=(3, 4)))
        b = p64(rng.normal(size=(4, 3)))
        bias = p64(rng.normal(size=(3,)))
        r = T.constant(rng.normal(size=(3, 3)))

        def loss():
            y = T.add(T.matmul(a, b), bias)
            return sum_all(T.mul(T.scale(y, 1.7), r))

        assert_grads_match(loss, [a, b, bias], rng, n_components=10)

    @pytest.mark.parametrize("trial", range(20))
    def test_relu_sigmoid(self, trial):
        rng = np.random.default_rng(200 + trial)
        # keep inputs away from the relu kink so the oracle is valid
        raw = rng.normal(size=(4, 5))
        raw = np.where(np.abs(raw) < 0.05, 0.5, raw)
        x = p64(raw)
        r = T.constant(rng.normal(size=(4, 5)))

        def loss():
            return sum_all(T.mul(T.sigmoid(T.relu(x)), r))

        assert_grads_match(loss, [x], rng, n_components=10)

    @pytest.mark.parametrize("trial", range(20))
    def test_softmax_layernorm(self, trial):
        rng = np.random.default_rng(300 + trial)
        x = p64(rng.normal(size=(3, 6)))
        g = p64(rng.normal(1.0, 0.2, size=(6,)))
        b = p64(rng.normal(size=(6,)))
        r = T.constant(rng.normal(size=(3, 6)))

        def loss():
            return sum_all(T.mul(T.softmax_lastdim(T.layer_norm(x, g, b)), r))

        assert_grads_match(loss, [x, g, b], rng, n_components=12)

    @pytest.mark.parametrize("trial", range(20))
    def test_concat_slice_transpose(self, trial):
        rng = np.random.default_rng(400 + trial)
        a = p64(rng.normal(size=(2, 4)))
        b = p64(rng.normal(size=(3, 4)))
        r = T.constant(rng.normal(size=(2, 9)))

        def loss():
            joined = T.concat([a, b], axis=0)  # (5, 4)
            cols = T.concat([T.slice_cols(joined, 0, 2),
                             T.slice_cols(joined, 1, 3)], axis=1)  # (5, 4)
            picked = T.slice_rows(cols, 1, 3)  # (2, 4)
            wide = T.concat([picked, T.slice_rows(T.transpose(joined), 0, 2)], axis=1)
            return sum_all(T.mul(wide, r))

        assert_grads_match(loss, [a, b], rng, n_components=12)

    @pytest.mark.parametrize("trial", range(20))
    def test_gather_cross_entropy(self, trial):
        rng = np.random.default_rng(500 + trial)
        table = p64(rng.normal(size=(7, 4)))
        proj = p64(rng.normal(size=(4, 7)))
        ids = rng.integers(0, 7, size=5)
        targets = rng.integers(0, 7, size=5)
        weights = rng.uniform(0.2, 1.0, size=5)

        def loss():
            logits = T.matmul(T.gather_rows(table, ids), proj)
            return T.cross_entropy(logits, targets, weights)

        assert_grads_match(loss, [table, proj], rng, n_components=12)



class TestBroadcastGradients:
    """NumPy shape rules: every gradient is summed back over its broadcast axes."""

    @pytest.mark.parametrize("trial", range(5))
    def test_batched_matmul_broadcasts_a_matrix(self, trial):
        rng = np.random.default_rng(600 + trial)
        w = p64(rng.normal(size=(2, 4)))     # broadcast on the left of a 3-D operand
        x = p64(rng.normal(size=(3, 4, 5)))
        b = p64(rng.normal(size=(5, 6)))     # and on the right
        r = T.constant(rng.normal(size=(3, 2, 6)))

        def loss():
            return sum_all(T.mul(T.matmul(T.matmul(w, x), b), r))

        assert_grads_match(loss, [w, x, b], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_four_d_mul_with_size_one_axes_on_both_sides(self, trial):
        rng = np.random.default_rng(700 + trial)
        a = p64(rng.normal(size=(2, 1, 3, 4)))
        b = p64(rng.normal(size=(2, 5, 1, 4)))
        r = T.constant(rng.normal(size=(2, 5, 3, 4)))

        def loss():
            return sum_all(T.mul(T.mul(a, b), r))

        assert_grads_match(loss, [a, b], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_mask_add_over_heads(self, trial):
        rng = np.random.default_rng(800 + trial)
        scores = p64(rng.normal(size=(3, 4, 4)))
        mask = p64(rng.normal(size=(4, 4)))
        r = T.constant(rng.normal(size=(3, 4, 4)))

        def loss():
            return sum_all(T.mul(T.softmax_lastdim(T.add(scores, mask)), r))

        assert_grads_match(loss, [scores, mask], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_transpose_with_explicit_axes(self, trial):
        rng = np.random.default_rng(900 + trial)
        x = p64(rng.normal(size=(2, 3, 4)))
        r = T.constant(rng.normal(size=(4, 2, 3)))

        def loss():
            return sum_all(T.mul(T.transpose(x, (2, 0, 1)), r))

        assert T.transpose(x, (2, 0, 1)).shape == (4, 2, 3)
        assert T.transpose(x).shape == (2, 4, 3)
        assert_grads_match(loss, [x], rng, n_components=12)

    @pytest.mark.parametrize("trial", range(5))
    def test_reshape(self, trial):
        rng = np.random.default_rng(1000 + trial)
        x = p64(rng.normal(size=(2, 6)))
        w = p64(rng.normal(size=(2, 5)))
        r = T.constant(rng.normal(size=(3, 2, 5)))

        def loss():
            return sum_all(T.mul(T.matmul(T.reshape(x, (3, 2, 2)), w), r))

        assert_grads_match(loss, [x, w], rng, n_components=12)

    def test_values_follow_numpy(self, np_rng):
        a = np_rng.normal(size=(3, 1, 2, 4))
        b = np_rng.normal(size=(5, 4, 2))
        assert np.allclose(T.matmul(T.constant(a), T.constant(b)).data, a @ b)
        c = np_rng.normal(size=(5, 1, 1))
        assert np.allclose(T.add(T.constant(b), T.constant(c)).data, b + c)
        assert np.allclose(T.mul(T.constant(c), T.constant(b)).data, c * b)
        assert np.array_equal(T.reshape(T.constant(b), (4, 10)).data, b.reshape(4, 10))

    @pytest.mark.parametrize("op,a,b", [
        (T.matmul, (2, 3, 4), (5, 4, 2)),
        (T.matmul, (2, 3, 3, 4), (4, 4, 2)),
        (T.matmul, (3,), (3, 2)),
        (T.add, (2, 3), (3, 2)),
        (T.mul, (4, 1, 3), (2, 2)),
    ])
    def test_incompatible_shapes_rejected(self, op, a, b):
        with pytest.raises(DimensionError, match="incompatible"):
            op(T.constant(np.zeros(a)), T.constant(np.zeros(b)))

    def test_bad_reshape_and_axes_rejected(self):
        x = T.constant(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            T.reshape(x, (4, 2))
        with pytest.raises(DimensionError):
            T.transpose(x, (0, 0))
        with pytest.raises(DimensionError):
            T.transpose(T.constant(np.zeros(3)))

class TestBatchAxisGradients:
    """The ops a padded batch needs: concat on any axis with broadcasting,
    gather on the leading axis of any table, a batch times a 2-D weight, and
    cross entropy over (batch, positions, vocab)."""

    @pytest.mark.parametrize("trial", range(5))
    def test_concat_on_axis_two_broadcasts_a_shared_table(self, trial):
        rng = np.random.default_rng(1100 + trial)
        k = p64(rng.normal(size=(2, 3, 4, 5)))   # (batch, heads, keys, d)
        mem = p64(rng.normal(size=(3, 2, 5)))    # (heads, slots, d), shared by the batch
        r = T.constant(rng.normal(size=(2, 3, 6, 5)))

        def loss():
            return sum_all(T.mul(T.concat([k, mem], axis=2), r))

        assert T.concat([k, mem], axis=2).shape == (2, 3, 6, 5)
        assert np.array_equal(T.concat([k, mem], axis=-2).data,
                              np.concatenate([k.data, np.broadcast_to(mem.data, (2, 3, 2, 5))],
                                             axis=2))
        assert_grads_match(loss, [k, mem], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_gather_rows_of_a_four_d_table_with_two_d_ids(self, trial):
        rng = np.random.default_rng(1200 + trial)
        table = p64(rng.normal(size=(4, 2, 3, 2)))
        ids = np.array([[0, 3, 3], [1, 0, 2]])  # repeats scatter-add
        r = T.constant(rng.normal(size=(2, 3, 2, 3, 2)))

        def loss():
            return sum_all(T.mul(T.gather_rows(table, ids), r))

        assert T.gather_rows(table, ids).shape == (2, 3, 2, 3, 2)
        assert np.array_equal(T.gather_rows(table, ids).data, table.data[ids])
        assert_grads_match(loss, [table], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_three_d_matmul_by_a_two_d_weight(self, trial):
        rng = np.random.default_rng(1300 + trial)
        x = p64(rng.normal(size=(3, 4, 5)))
        w = p64(rng.normal(size=(5, 6)))
        r = T.constant(rng.normal(size=(3, 4, 6)))

        def loss():
            return sum_all(T.mul(T.matmul(x, w), r))

        assert np.allclose(T.matmul(x, w).data, x.data @ w.data, rtol=1e-12, atol=1e-12)
        assert_grads_match(loss, [x, w], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_cross_entropy_over_a_batch(self, trial):
        rng = np.random.default_rng(1400 + trial)
        logits = p64(rng.normal(size=(2, 3, 5)))
        targets = rng.integers(0, 5, size=(2, 3))
        weights = np.array([[1.0, 1.0, 0.0], [0.5, 0.0, 0.0]])

        def loss():
            return T.cross_entropy(logits, targets, weights)

        rows = T.cross_entropy(T.constant(logits.data.reshape(6, 5)), targets.reshape(6),
                               weights.reshape(6))
        assert loss().item() == pytest.approx(rows.item(), rel=1e-12)
        assert_grads_match(loss, [logits], rng, n_components=15)
        assert np.all(logits.grad[weights == 0] == 0.0)

    def test_batch_shapes_rejected(self):
        with pytest.raises(DimensionError):
            T.concat([T.constant(np.zeros((2, 3, 4))), T.constant(np.zeros((3, 2, 4)))], axis=2)
        with pytest.raises(DimensionError):
            T.concat([T.constant(np.zeros((2, 3))), T.constant(np.zeros(3))], axis=0)
        with pytest.raises(DimensionError):
            T.concat([T.constant(np.zeros((2, 3)))], axis=2)
        with pytest.raises(DimensionError):
            T.gather_rows(T.constant(np.float64(1.0)), [0])
        with pytest.raises(DimensionError):
            T.cross_entropy(T.constant(np.zeros((2, 3, 4))), [0, 1])


# ---------------------------------------------------------------------------
# fused transformer ops against the compositions they replace


def chain_linear(x, w, b):
    return T.add(T.matmul(x, w), b)


def chain_attention(q, k, v, mask=None):
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = T.add(scores, T.constant(mask))
    return T.matmul(T.softmax_lastdim(scores), v)


def _swap_head_axes(ndim):
    return (*range(ndim - 3), ndim - 2, ndim - 3, ndim - 1)


def chain_split_heads(x, n_heads):
    parts = T.reshape(x, x.shape[:-1] + (n_heads, x.shape[-1] // n_heads))
    return T.transpose(parts, _swap_head_axes(parts.ndim))


def chain_merge_heads(x):
    swapped = T.transpose(x, _swap_head_axes(x.ndim))
    return T.reshape(swapped, swapped.shape[:-2] + (swapped.shape[-2] * swapped.shape[-1],))


def chain_residual_norm(x, gamma, beta, residual):
    return T.layer_norm(T.add(x, residual), gamma, beta)


def outputs_and_grads(build, arrays, g):
    """The output of ``build`` over fresh parameters holding ``arrays``, and
    each parameter's gradient for output gradient ``g``."""
    params = [T.parameter(a.copy()) for a in arrays]
    out = build(*params)
    sum_all(T.mul(out, T.constant(g))).backward()
    return out.data, [p.grad for p in params]


def assert_fused_equals_chain(fused, chain, arrays, rng):
    """Forward values and every input gradient of ``fused`` bit-equal ``chain``'s."""
    with T.no_grad():
        shape = chain(*map(T.constant, arrays)).shape
    g = rng.normal(size=shape).astype(arrays[0].dtype)
    got, got_grads = outputs_and_grads(fused, arrays, g)
    want, want_grads = outputs_and_grads(chain, arrays, g)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for i, (a, b) in enumerate(zip(got_grads, want_grads)):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"gradient of input {i}"


def padding_mask(rng, batch, keys, dtype, memory=0):
    """A (batch, 1, 1, keys + memory) key mask, NEG_INF on a tail of each row's
    real keys, never on its first key or on the memory columns."""
    real = keys - rng.integers(0, keys, size=batch)
    column = np.arange(keys + memory)
    keep = (column < real[:, None]) | (column >= keys)
    return np.where(keep, 0.0, -1e9).astype(dtype)[:, None, None, :]


DTYPES = [np.float32, np.float64]


class TestFusedOpsEqualTheirChains:
    """Each fused op gives the values and gradients of the ops it replaced, bit
    for bit: the chains stay here as the oracle."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4), (1, 1, 4)])
    def test_biased_matmul(self, dtype, x_shape, np_rng):
        arrays = [np_rng.normal(size=s).astype(dtype) for s in (x_shape, (4, 6), (6,))]
        assert_fused_equals_chain(T.matmul, chain_linear, arrays, np_rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("shapes", [
        ((3, 2, 3), (3, 5, 3), (3, 5, 3)),            # heads, rows, d_head
        ((2, 3, 4, 5), (2, 3, 6, 5), (2, 3, 6, 5)),   # batch, heads, rows, d_head
        ((3, 2, 3), (1, 5, 3), (1, 5, 3)),            # one K/V for every head
    ])
    def test_attention(self, dtype, masked, shapes, np_rng):
        # d_head 3 and 5: 1/sqrt(d_head) is not a power of two, so scaling
        # before the product would round differently
        arrays = [np_rng.normal(size=s).astype(dtype) for s in shapes]
        mask = None
        if masked:
            keys = shapes[1][-2]
            mask = np.where(np_rng.random((shapes[0][-2], keys)) < 0.3, -1e9, 0.0).astype(dtype)
            mask[:, 0] = 0.0
        assert_fused_equals_chain(lambda q, k, v: T.attention(q, k, v, mask),
                                  lambda q, k, v: chain_attention(q, k, v, mask), arrays, np_rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_attention_over_keys_that_end_in_memory_slots(self, dtype, np_rng):
        # 2 videos, 3 heads, 4 queries over 5 keys then 2 memory slots shared by the batch
        arrays = [np_rng.normal(size=s).astype(dtype)
                  for s in ((2, 3, 4, 3), (2, 3, 5, 3), (2, 3, 5, 3), (3, 2, 3), (3, 2, 3))]
        mask = padding_mask(np_rng, 2, 5, dtype, memory=2)

        def fused(q, k, v, mem_k, mem_v):
            return T.attention(q, T.concat([k, mem_k], axis=2), T.concat([v, mem_v], axis=2), mask)

        def chain(q, k, v, mem_k, mem_v):
            return chain_attention(q, T.concat([k, mem_k], axis=2),
                                   T.concat([v, mem_v], axis=2), mask)

        assert_fused_equals_chain(fused, chain, arrays, np_rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_attention_of_rows_over_one_videos_keys(self, dtype, np_rng):
        # r = 5 decode rows, each one new query, over the K/V of one padded video
        arrays = [np_rng.normal(size=s).astype(dtype)
                  for s in ((5, 2, 1, 3), (1, 2, 6, 3), (1, 2, 6, 3))]
        mask = padding_mask(np_rng, 1, 6, dtype)
        assert_fused_equals_chain(lambda q, k, v: T.attention(q, k, v, mask),
                                  lambda q, k, v: chain_attention(q, k, v, mask), arrays, np_rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(3, 5, 8), (2, 3, 5, 8)])
    def test_split_and_merge_heads(self, dtype, shape, np_rng):
        x = np_rng.normal(size=shape).astype(dtype)
        assert_fused_equals_chain(lambda t: T.split_heads(t, 4),
                                  lambda t: chain_split_heads(t, 4), [x], np_rng)
        heads = np_rng.normal(size=shape[:-2] + (4, shape[-2], 2)).astype(dtype)
        assert_fused_equals_chain(T.merge_heads, chain_merge_heads, [heads], np_rng)
        split = T.split_heads(T.constant(x), 4)
        assert split.shape == shape[:-2] + (4, shape[-2], 2)
        assert np.array_equal(T.merge_heads(split).data, x)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(5, 8), (2, 3, 8)])
    def test_residual_layer_norm(self, dtype, shape, np_rng):
        arrays = [np_rng.normal(size=s).astype(dtype) for s in (shape, (8,), (8,), shape)]
        assert_fused_equals_chain(T.layer_norm, chain_residual_norm, arrays, np_rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_decoder_stack_sums_shared_gradients_in_the_same_order(self, dtype, np_rng):
        # Two post-LN layers of self- then cross-attention over one encoding:
        # x and the encoding reach the loss along several paths, so their
        # gradients are sums whose order the fused graph must keep.
        d, heads = 6, 2
        sublayer = ((d, d),) * 4 + ((d,),) * 3  # wq, wk, wv, wo, bo, gamma, beta
        arrays = [np_rng.normal(size=s).astype(dtype)
                  for s in ((2, 4, d), (2, 5, d), (d, d)) + sublayer * 4]
        mask = padding_mask(np_rng, 2, 5, dtype)
        causal = np.triu(np.full((4, 4), -1e9, dtype), 1)

        def stack(linear, split, attend, merge, norm):
            def run(x, enc, w_enc, *w):
                enc = T.relu(T.matmul(enc, w_enc))
                for i in range(4):  # self, cross, self, cross
                    wq, wk, wv, wo, bo, gamma, beta = w[7 * i:7 * i + 7]
                    kv_in, m = (x, causal) if i % 2 == 0 else (enc, mask)
                    q, k, v = (split(T.matmul(src, pw), heads)
                               for src, pw in ((x, wq), (kv_in, wk), (kv_in, wv)))
                    x = norm(x, gamma, beta, linear(merge(attend(q, k, v, m)), wo, bo))
                return x
            return run

        assert_fused_equals_chain(
            stack(T.matmul, T.split_heads, T.attention, T.merge_heads, T.layer_norm),
            stack(chain_linear, chain_split_heads, chain_attention, chain_merge_heads,
                  chain_residual_norm), arrays, np_rng)

    def test_a_residual_that_needs_no_gradient(self, np_rng):
        x, r = p64(np_rng.normal(size=(3, 4))), T.constant(np_rng.normal(size=(3, 4)))
        gamma, beta = p64(np.ones(4)), p64(np.zeros(4))
        sum_all(T.mul(T.layer_norm(x, gamma, beta, r), T.constant(np_rng.normal(size=(3, 4))))
                ).backward()
        assert x.grad is not None and r.grad is None

    def test_shapes_rejected(self):
        z = T.constant
        with pytest.raises(DimensionError, match="bias"):
            T.matmul(z(np.zeros((2, 3))), z(np.zeros((3, 4))), z(np.zeros(3)))
        with pytest.raises(DimensionError, match="attention"):
            T.attention(z(np.zeros((2, 4))), z(np.zeros((3, 5))), z(np.zeros((3, 5))))
        with pytest.raises(DimensionError, match="attention"):
            T.attention(z(np.zeros((2, 4))), z(np.zeros((3, 4))), z(np.zeros((2, 4))))
        with pytest.raises(DimensionError, match="attention"):
            T.attention(z(np.zeros((2, 2, 4))), z(np.zeros((3, 3, 4))), z(np.zeros((3, 3, 4))))
        with pytest.raises(DimensionError, match="attention"):
            T.attention(z(np.zeros((2, 4))), z(np.zeros((0, 4))), z(np.zeros((0, 4))))
        with pytest.raises(DimensionError, match="attention"):
            T.attention(z(np.zeros((3, 2, 4))), z(np.zeros((5, 4))), z(np.zeros((5, 4))))
        with pytest.raises(DimensionError, match="heads"):
            T.split_heads(z(np.zeros((2, 6))), 4)
        with pytest.raises(DimensionError, match="head axis"):
            T.merge_heads(z(np.zeros((2, 6))))
        with pytest.raises(DimensionError, match="residual"):
            T.layer_norm(z(np.zeros((2, 4))), z(np.ones(4)), z(np.zeros(4)), z(np.zeros((1, 4))))


class TestFusedOpGradients:
    """Central differences (float64) through each fused op."""

    @pytest.mark.parametrize("trial", range(5))
    def test_biased_matmul(self, trial):
        rng = np.random.default_rng(1100 + trial)
        x, w, b = (p64(rng.normal(size=s)) for s in ((2, 3, 4), (4, 5), (5,)))
        r = T.constant(rng.normal(size=(2, 3, 5)))
        assert_grads_match(lambda: sum_all(T.mul(T.matmul(x, w, b), r)), [x, w, b], rng,
                           n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_attention(self, trial):
        rng = np.random.default_rng(1200 + trial)
        q, k, v = (p64(rng.normal(size=s)) for s in ((2, 3, 4), (2, 5, 4), (2, 5, 3)))
        mask = padding_mask(rng, 2, 5, np.float64)[:, 0]  # (batch, 1, keys)
        r = T.constant(rng.normal(size=(2, 3, 3)))
        assert_grads_match(lambda: sum_all(T.mul(T.attention(q, k, v, mask), r)), [q, k, v],
                           rng, n_components=20)

    @pytest.mark.parametrize("trial", range(5))
    def test_split_and_merge_heads(self, trial):
        rng = np.random.default_rng(1300 + trial)
        x, w = p64(rng.normal(size=(2, 4, 6))), p64(rng.normal(size=(2, 3, 4, 2)))
        r = T.constant(rng.normal(size=(2, 4, 6)))

        def loss():  # a per-head product in between, so the two are not inverses
            return sum_all(T.mul(T.merge_heads(T.mul(T.split_heads(x, 3), w)), r))

        assert_grads_match(loss, [x, w], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_residual_layer_norm(self, trial):
        rng = np.random.default_rng(1400 + trial)
        x, res = p64(rng.normal(size=(3, 6))), p64(rng.normal(size=(3, 6)))
        g, b = p64(rng.normal(1.0, 0.2, size=6)), p64(rng.normal(size=6))
        r = T.constant(rng.normal(size=(3, 6)))
        assert_grads_match(lambda: sum_all(T.mul(T.layer_norm(x, g, b, res), r)),
                           [x, res, g, b], rng, n_components=15)


class TestCrossEntropy:
    def test_uniform_logits_value(self):
        logits = T.constant(np.zeros((3, 10)))
        ce = T.cross_entropy(logits, [1, 5, 9])
        assert ce.item() == pytest.approx(3 * math.log(10), rel=1e-6)

    def test_zero_weight_positions_ignored(self, np_rng):
        logits = p64(np_rng.normal(size=(4, 6)))
        full = T.cross_entropy(logits, [0, 1, 2, 3], [1.0, 1.0, 0.0, 0.0])
        short = T.cross_entropy(T.slice_rows(logits, 0, 2), [0, 1])
        assert full.item() == pytest.approx(short.item(), rel=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            T.cross_entropy(T.constant(np.zeros((2, 4))), [0, 4])


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = p64(np.ones((2, 2)))
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad and y._backward is None

    def test_reenabled_after(self):
        x = p64(np.ones((2, 2)))
        with T.no_grad():
            pass
        assert T.mul(x, x).requires_grad


class TestRngState:
    def test_identical_streams(self):
        a = RngState(99)
        b = RngState(99)
        assert np.array_equal(a.normal((4, 4)), b.normal((4, 4)))
        assert a.random() == b.random()
        assert np.array_equal(a.permutation(10), b.permutation(10))

    def test_derived_streams_differ(self):
        root = RngState(7)
        assert root.derive("x").seed != root.derive("y").seed
        assert root.derive("x").seed == RngState(7).derive("x").seed

    def test_categorical_draws_match_probs(self):
        rng = RngState(3)
        probs = np.array([0.2, 0.5, 0.3])
        draws = T.draw_rows(np.tile(probs, (20000, 1)), rng.uniform(20000))
        freq = np.bincount(draws, minlength=3) / len(draws)
        sigma = np.sqrt(probs * (1 - probs) / len(draws))
        assert np.all(np.abs(freq - probs) < 3 * sigma + 1e-12)

    def test_row_draws_are_the_inverse_cdf_of_each_row(self, np_rng):
        probs = np_rng.dirichlet(np.ones(6), size=200)
        probs[:, [0, 3]] = 0.0  # never drawn, even at u = 0
        u = np_rng.uniform(size=200)
        u[:2] = 0.0, np.nextafter(1.0, 0.0)
        expected = [np.searchsorted(np.cumsum(p), x * np.cumsum(p)[-1], side="right")
                    for p, x in zip(probs, u)]
        draws = T.draw_rows(probs, u)
        assert draws.tolist() == np.minimum(expected, 5).tolist()
        assert not np.isin(draws, [0, 3]).any()

    def test_ops_deterministic(self, np_rng):
        a = np_rng.normal(size=(6, 6)).astype(np.float32)
        x = Tensor(a)
        out1 = T.softmax_lastdim(T.matmul(x, x)).data
        out2 = T.softmax_lastdim(T.matmul(Tensor(a.copy()), Tensor(a.copy()))).data
        assert np.array_equal(out1, out2)


class TestRngFill:
    @pytest.mark.parametrize("block", [1, 7, 60, 65536])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_draw_what_one_call_draws(self, block, dtype):
        for dist, a, b, one_call in (("uniform", -0.3, 0.3, lambda r: r.uniform(60, -0.3, 0.3)),
                                     ("normal", 0.02, 0.5, lambda r: r.normal(60, 0.02, 0.5))):
            out = np.zeros(60, dtype)
            streamed, whole = RngState(5), RngState(5)
            streamed.fill(out, dist, a, b, block=block)
            assert np.array_equal(out, one_call(whole).astype(dtype)), dist
            assert streamed.random() == whole.random(), dist  # the streams stay in step

    def test_writes_through_a_strided_view(self):
        out = np.zeros(20, np.float32)
        RngState(1).fill(out[::2], "uniform", 0.0, 1.0, block=3)
        assert np.array_equal(out[::2], RngState(1).uniform(10).astype(np.float32))
        assert not out[1::2].any()


class TestDtypes:
    def test_float32_default(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.array([1, 2])).dtype == np.float32

    def test_float64_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float64))
        assert x.dtype == np.float64
        assert T.relu(x).dtype == np.float64
