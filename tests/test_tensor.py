"""Autodiff core: op contracts, gradient checks against central differences."""

import math

import numpy as np
import pytest

from conftest import assert_grads_match, rel_err
from vttcap import tensor as T
from vttcap.errors import ContractError, DimensionError
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


class TestBackwardBasics:
    def test_square(self):
        x = p64(3.0)
        loss = T.mul(x, x)
        loss.backward()
        assert x.grad == pytest.approx(6.0)

    def test_sum_gives_ones(self):
        x = p64(np.arange(6.0).reshape(2, 3))
        T.sum_all(x).backward()
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
        T.add(T.sum_all(T.mul(x, x)), T.sum_all(T.scale(x, 3.0))).backward()
        combined = x.grad.copy()

        x1 = p64(base)
        T.sum_all(T.mul(x1, x1)).backward()
        x2 = p64(base)
        T.sum_all(T.scale(x2, 3.0)).backward()
        assert np.allclose(combined, x1.grad + x2.grad)

    def test_random_three_op_graph(self, np_rng):
        a = p64(np_rng.normal(size=(3, 4)))
        b = p64(np_rng.normal(size=(4, 2)))
        c = p64(np_rng.normal(size=(3, 2)))

        def loss():
            return T.sum_all(T.mul(T.add(T.matmul(a, b), c), c))

        worst = assert_grads_match(loss, [a, b, c], np.random.default_rng(0),
                                   n_components=20)
        assert worst < 1e-4


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
            return T.sum_all(T.mul(T.scale(y, 1.7), r))

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
            return T.sum_all(T.mul(T.sigmoid(T.relu(x)), r))

        assert_grads_match(loss, [x], rng, n_components=10)

    @pytest.mark.parametrize("trial", range(20))
    def test_softmax_layernorm(self, trial):
        rng = np.random.default_rng(300 + trial)
        x = p64(rng.normal(size=(3, 6)))
        g = p64(rng.normal(1.0, 0.2, size=(6,)))
        b = p64(rng.normal(size=(6,)))
        r = T.constant(rng.normal(size=(3, 6)))

        def loss():
            return T.sum_all(T.mul(T.softmax_lastdim(T.layer_norm(x, g, b)), r))

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
            return T.sum_all(T.mul(wide, r))

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
            return T.sum_all(T.mul(T.matmul(T.matmul(w, x), b), r))

        assert_grads_match(loss, [w, x, b], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_four_d_mul_with_size_one_axes_on_both_sides(self, trial):
        rng = np.random.default_rng(700 + trial)
        a = p64(rng.normal(size=(2, 1, 3, 4)))
        b = p64(rng.normal(size=(2, 5, 1, 4)))
        r = T.constant(rng.normal(size=(2, 5, 3, 4)))

        def loss():
            return T.sum_all(T.mul(T.mul(a, b), r))

        assert_grads_match(loss, [a, b], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_mask_add_over_heads(self, trial):
        rng = np.random.default_rng(800 + trial)
        scores = p64(rng.normal(size=(3, 4, 4)))
        mask = p64(rng.normal(size=(4, 4)))
        r = T.constant(rng.normal(size=(3, 4, 4)))

        def loss():
            return T.sum_all(T.mul(T.softmax_lastdim(T.add(scores, mask)), r))

        assert_grads_match(loss, [scores, mask], rng, n_components=15)

    @pytest.mark.parametrize("trial", range(5))
    def test_transpose_with_explicit_axes(self, trial):
        rng = np.random.default_rng(900 + trial)
        x = p64(rng.normal(size=(2, 3, 4)))
        r = T.constant(rng.normal(size=(4, 2, 3)))

        def loss():
            return T.sum_all(T.mul(T.transpose(x, (2, 0, 1)), r))

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
            return T.sum_all(T.mul(T.matmul(T.reshape(x, (3, 2, 2)), w), r))

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
        draws = np.array([rng.draw_categorical(probs) for _ in range(20000)])
        freq = np.bincount(draws, minlength=3) / len(draws)
        sigma = np.sqrt(probs * (1 - probs) / len(draws))
        assert np.all(np.abs(freq - probs) < 3 * sigma + 1e-12)

    def test_ops_deterministic(self, np_rng):
        a = np_rng.normal(size=(6, 6)).astype(np.float32)
        x = Tensor(a)
        out1 = T.softmax_lastdim(T.matmul(x, x)).data
        out2 = T.softmax_lastdim(T.matmul(Tensor(a.copy()), Tensor(a.copy()))).data
        assert np.array_equal(out1, out2)


class TestDtypes:
    def test_float32_default(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.array([1, 2])).dtype == np.float32

    def test_float64_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float64))
        assert x.dtype == np.float64
        assert T.relu(x).dtype == np.float64
