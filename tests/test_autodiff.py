"""Tape mechanics, per-op finite-difference checks, and checkpoint I/O."""

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.errors import DimensionError, FormatError, NumericError, UsageError
from vadasr.model import (ModelDims, ModelParams, encode_features,
                          encoder_weights, param_layout, vad_forward)
from oracles import (attention_unfused, concat, depthwise_conv1d,
                     depthwise_conv1d_taps, encode_unfused, exp,
                     finite_diff_check, matmul_unfused, mean_all, mul, relu,
                     reshape, sigmoid, signed_zeros, softmax, stacked_matmul,
                     sum_all, transpose, vad_forward_unfused, with_upstream)

ENCODER = ("enc1_k", "enc1_b", "enc2_k", "enc2_b", "enc_ln_g", "enc_ln_b")
VAD_HEAD = ("vad_k", "vad_b", "vad_fc_w", "vad_fc_b")


def fd(f, params, tol=1e-6):
    assert finite_diff_check(f, params) < tol


class TestTape:
    def test_no_tape_no_recording(self):
        # off the tape a primitive returns the plain array, no Tensor
        a = ad.Tensor([1.0, 2.0])
        out = ad.scale(a, 2.0)
        assert type(out) is np.ndarray
        assert np.array_equal(out, [2.0, 4.0])

    def test_backward_requires_scalar(self):
        a = ad.Tensor([1.0, 2.0])
        with ad.Tape() as tape:
            out = ad.scale(a, 2.0)
            with pytest.raises(UsageError):
                ad.backward(tape, out)

    def test_backward_requires_loss_on_tape(self):
        a = ad.Tensor([1.0])
        with ad.Tape() as tape:
            ad.scale(a, 2.0)
        stranger = ad.Tensor(np.asarray(3.0))
        with pytest.raises(UsageError):
            ad.backward(tape, stranger)

    def test_gradient_accumulates_over_reuse(self):
        a = ad.Tensor(np.asarray(3.0))
        with ad.Tape() as tape:
            loss = ad.add(mul(a, a), a)  # a^2 + a -> grad 2a + 1
            grads = ad.backward(tape, loss)
        assert grads[a] == pytest.approx(7.0)

    def test_nested_tapes_record_independently(self):
        a = ad.Tensor(np.asarray(2.0))
        with ad.Tape() as outer:
            ad.scale(a, 1.0)
            with ad.Tape() as inner:
                loss = mul(a, a)
                g = ad.backward(inner, loss)
            assert g[a] == pytest.approx(4.0)
        assert len(outer) == 1

    def test_identity_hash(self):
        a = ad.Tensor([1.0])
        b = ad.Tensor([1.0])
        assert a is not b and len({a, b}) == 2


class TestOpGradients:
    def test_add_broadcast(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=(4,)))
        fd(lambda p: sum_all(mul(ad.add(p[0], p[1]),
                                 ad.add(p[0], p[1]))), [a, b])

    def test_matmul(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=(4, 2)))
        fd(lambda p: sum_all(mul(ad.matmul(p[0], p[1]),
                                 ad.matmul(p[0], p[1]))), [a, b])

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_sigmoid_relu_exp(self, rng):
        a = ad.Tensor(rng.normal(size=(5,)) + 0.3)
        fd(lambda p: sum_all(sigmoid(p[0])), [a])
        fd(lambda p: sum_all(relu(p[0])), [a])
        fd(lambda p: sum_all(exp(ad.scale(p[0], 0.3))), [a])

    @pytest.mark.parametrize("act", [None, "relu", "sigmoid"])
    def test_matmul_bias_activation(self, rng, act):
        # the unfused chain that the fused encoder and VAD nodes are pinned
        # to: a stack of matrices times a matrix, a bias, an activation
        x = ad.Tensor(rng.normal(size=(4, 3, 5)))
        w = ad.Tensor(rng.normal(size=(5, 2)))
        b = ad.Tensor(rng.normal(size=(3, 1)))
        u = rng.normal(size=(4, 3, 2))
        fd(lambda p: sum_all(mul(matmul_unfused(p[0], p[1], p[2], act), u)),
           [x, w, b])

    @pytest.mark.parametrize("act", [None, "relu"])
    def test_fused_matmul_bias_activation(self, rng, act):
        x = ad.Tensor(rng.normal(size=(4, 5)))
        w = ad.Tensor(rng.normal(size=(5, 2)))
        b = ad.Tensor(rng.normal(size=(4, 1)))
        u = rng.normal(size=(4, 2))
        fd(lambda p: sum_all(mul(ad.matmul(p[0], p[1], p[2], act), u)),
           [x, w, b])

    def test_matmul_rejects_unknown_activation(self):
        for act in ("tanh", "sigmoid"):
            with pytest.raises(UsageError, match="activation"):
                ad.matmul(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), act)

    def test_log_softmax_rows_normalize(self, rng):
        a = ad.Tensor(rng.normal(size=(4, 6)))
        out = ad.log_softmax(a)
        assert np.allclose(np.exp(out).sum(axis=1), 1.0)
        w = rng.normal(size=(4, 6))
        fd(lambda p: sum_all(mul(ad.log_softmax(p[0]), w)), [a])

    def test_softmax_grad(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 5)))
        w = rng.normal(size=(3, 5))
        fd(lambda p: sum_all(mul(softmax(p[0]), w)), [a])

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_attention(self, rng, n_heads):
        q = ad.Tensor(rng.normal(size=(3, 4)))
        k = ad.Tensor(rng.normal(size=(5, 4)))
        v = ad.Tensor(rng.normal(size=(5, 4)))
        w = rng.normal(size=(3, 4))
        fd(lambda p: sum_all(mul(ad.attention(*p, n_heads), w)), [q, k, v])

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_attention_blocks(self, rng, n_heads):
        # overlapping windows, a one-row body, a window clipped at each end
        blocks = [((0, 1), (0, 3)), ((1, 4), (0, 6)), ((4, 5), (2, 5)),
                  ((5, 7), (3, 7))]
        q, k, v = (ad.Tensor(rng.normal(size=(7, 4))) for _ in "qkv")
        w = rng.normal(size=(7, 4))
        fd(lambda p: sum_all(mul(ad.attention(*p, n_heads, blocks), w)),
           [q, k, v])
        # a body's rows are its window's chain, sliced
        out = ad.attention(q, k, v, n_heads, blocks)
        for (b0, b1), (w0, w1) in blocks:
            alone = ad.attention(*(t.data[w0:w1] for t in (q, k, v)), n_heads)
            assert np.array_equal(out[b0:b1], alone[b0 - w0:b1 - w0])

    @pytest.mark.parametrize("shapes,n_heads", [
        (((3, 4), (5, 4), (6, 4)), 2),   # keys and values disagree
        (((3, 4), (5, 6), (5, 6)), 2),   # queries and keys disagree
        (((3, 4), (5, 4), (5, 4)), 3),   # heads do not divide d
        (((2, 3, 4), (5, 4), (5, 4)), 1),   # queries not a matrix
    ])
    def test_attention_shape_error(self, shapes, n_heads):
        with pytest.raises(DimensionError):
            ad.attention(*(np.ones(s) for s in shapes), n_heads)

    @pytest.mark.parametrize("plain_first", [True, False])
    def test_plain_array_operand_gets_no_gradient(self, rng, plain_first):
        # a constant, so no vjp work
        plain = rng.normal(size=(4, 3))
        w = ad.Tensor(rng.normal(size=(3, 2) if plain_first else (2, 4)))
        with ad.Tape() as tape:
            out = ad.matmul(plain, w) if plain_first else ad.matmul(w, plain)
            loss = sum_all(out)
        grads = ad.backward(tape, loss)
        assert w in grads
        assert not [t for t in grads if t.shape == plain.shape]

    def test_layer_norm(self, rng):
        x = ad.Tensor(rng.normal(size=(4, 6)))
        g = ad.Tensor(rng.normal(size=(6,)) + 1.0)
        b = ad.Tensor(rng.normal(size=(6,)))
        w = rng.normal(size=(4, 6))
        fd(lambda p: sum_all(mul(ad.layer_norm(p[0], p[1], p[2]), w)),
           [x, g, b], tol=1e-5)

    def test_slices_and_concat(self, rng):
        a = ad.Tensor(rng.normal(size=(6, 4)))
        w = rng.normal(size=(2, 2))

        def f(p):
            r = ad.slice_axis(p[0], 1, 3)
            c = ad.slice_axis(r, 0, 2, axis=1)
            return sum_all(mul(c, w))

        fd(f, [a])
        parts = [ad.Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
        wc = rng.normal(size=(6, 3))
        fd(lambda p: sum_all(mul(concat(p, axis=0), wc)), parts)

    def test_slice_bounds(self):
        a = ad.Tensor(np.ones((3, 3)))
        with pytest.raises(DimensionError):
            ad.slice_axis(a, 0, 4)
        with pytest.raises(DimensionError):
            ad.slice_axis(a, -1, 2, axis=1)

    def test_matmul_stacked(self, rng):
        # the fused encoder and VAD nodes' stacked product and its
        # matmul_grads vjp, for both argument orders
        stack = ad.Tensor(rng.normal(size=(4, 2, 3)))
        mat = ad.Tensor(rng.normal(size=(3, 5)))
        w = rng.normal(size=(4, 2, 5))
        fd(lambda p: sum_all(mul(stacked_matmul(p[0], p[1]), w)),
           [stack, mat])
        left = ad.Tensor(rng.normal(size=(2, 4)))
        rstack = ad.Tensor(rng.normal(size=(3, 4, 5)))
        w = rng.normal(size=(3, 2, 5))
        fd(lambda p: sum_all(mul(stacked_matmul(p[0], p[1]), w)),
           [left, rstack])

    def test_matmul_stacked_items_independent(self, rng):
        # each item is multiplied on its own: a prefix of the stack gives
        # bit-identical items, whatever the stack length
        stack = rng.normal(size=(9, 1, 6))
        mat = rng.normal(size=(6, 4))
        whole = ad.value(stacked_matmul(stack, mat))
        for t in range(9):
            one = ad.value(stacked_matmul(stack[t:t + 1], mat))
            assert np.array_equal(one[0], whole[t])

    def test_matmul_two_stacks_rejected(self):
        # ad.matmul takes matrices only; the stacked product one stack
        two = (np.ones((2, 2, 3)), np.ones((2, 3, 2)))
        for x, y in (two, (two[0], np.ones((3, 2))),
                     (np.ones((2, 3)), two[1])):
            with pytest.raises(DimensionError):
                ad.matmul(ad.Tensor(x), ad.Tensor(y))
        with pytest.raises(DimensionError):
            stacked_matmul(*two)

    def test_depthwise_conv1d_causal(self, rng):
        # integer values make every product and sum exact, so the causal
        # np.convolve oracle must agree bit for bit
        x = rng.integers(-9, 10, size=(9, 4)).astype(float)
        k = rng.integers(-9, 10, size=(4, 1, 3)).astype(float)
        out = depthwise_conv1d(ad.Tensor(x), ad.Tensor(k))
        # causal: output at t sees inputs t-2..t
        ref = np.stack([np.convolve(x[:, c], k[c, 0][::-1])[:9]
                        for c in range(4)], axis=1)
        assert np.array_equal(out, ref)

    def test_depthwise_conv1d_rows_independent_of_length(self, rng):
        x = rng.normal(size=(12, 5))
        k = rng.normal(size=(5, 1, 4))
        whole = depthwise_conv1d(ad.Tensor(x), ad.Tensor(k))
        for t in range(1, 12):
            part = depthwise_conv1d(ad.Tensor(x[:t]), ad.Tensor(k))
            assert np.array_equal(part, whole[:t])

    def test_depthwise_conv1d_gradient(self, rng):
        x = ad.Tensor(rng.normal(size=(7, 3)))
        k = ad.Tensor(rng.normal(size=(3, 1, 4)))
        w = rng.normal(size=(7, 3))
        fd(lambda p: sum_all(mul(depthwise_conv1d(p[0], p[1]), w)),
           [x, k])

    def test_depthwise_conv1d_shape_mismatch(self):
        with pytest.raises(DimensionError):
            depthwise_conv1d(ad.Tensor(np.ones((5, 3))),
                             ad.Tensor(np.ones((2, 1, 2))))
        with pytest.raises(DimensionError):
            depthwise_conv1d(ad.Tensor(np.ones((5, 3))),
                             ad.Tensor(np.ones((3, 2, 2))))

    def test_depthwise_conv1d_left_context(self, rng):
        x = ad.Tensor(rng.normal(size=(6, 3)))
        k = ad.Tensor(rng.normal(size=(3, 1, 4)))
        left = rng.normal(size=(3, 3))
        w = rng.normal(size=(6, 3))
        fd(lambda p: sum_all(mul(depthwise_conv1d(p[0], p[1], left), w)),
           [x, k])

    def test_encoder_node(self, rng):
        dims = ModelDims(vocab_size=2, d_model=4, n_heads=1,
                         conv1_channels=2, ffn_dim=4)
        x = rng.normal(size=(3, 320))
        params = [ad.Tensor(rng.normal(size=shape))
                  for shape in shapes(dims, ENCODER)]
        w = rng.normal(size=(3, 4))
        fd(lambda p: sum_all(mul(
            encode_features(x, with_params(dims, ENCODER, p)), w)),
           params, tol=1e-5)

    @pytest.mark.parametrize("with_left", [False, True])
    def test_vad_nodes(self, rng, with_left):
        dims = ModelDims(vocab_size=2, d_model=4, n_heads=1,
                         vad_kernel_width=3)
        left = rng.normal(size=(2, 4)) if with_left else None
        params = [ad.Tensor(rng.normal(size=shape))
                  for shape in [(5, 4), *shapes(dims, VAD_HEAD)]]
        wh, wp = rng.normal(size=(5, 4)), rng.normal(size=(5,))

        def f(p):
            h, probs = vad_forward(p[0], with_params(dims, VAD_HEAD, p[1:]),
                                   left=left)
            return ad.add(sum_all(mul(h, wh)), sum_all(mul(probs, wp)))

        fd(f, params)

    def test_transpose_reshape_mean(self, rng):
        a = ad.Tensor(rng.normal(size=(3, 4)))
        w = rng.normal(size=(4, 3))
        fd(lambda p: sum_all(mul(transpose(p[0]), w)), [a])
        fd(lambda p: mean_all(reshape(p[0], (2, 6))), [a])


def shapes(dims, names):
    layout = param_layout(dims)
    return [layout[name][0] for name in names]


def with_params(dims, names, tensors) -> ModelParams:
    """A model of ``dims`` whose parameters ``names`` are ``tensors``."""
    return ModelParams([str(i) for i in range(dims.vocab_size)], dims,
                       dict(zip(names, tensors)))


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(ours, oracle):
    assert ours.shape == oracle.shape
    assert np.array_equal(bits(ours), bits(oracle))


class TestSameBitsAsUnfused:
    """The fused ops against the ops they replace, compared as uint64 bits
    (so -0.0 differs from +0.0), forward and every parent's gradient, with
    +0.0 and -0.0 seeded into inputs, weights and upstream gradients."""

    @pytest.mark.parametrize("T", [1, 2, 5, 118])
    @pytest.mark.parametrize("W", [1, 2, 4, 5])
    @pytest.mark.parametrize("with_left", [False, True])
    def test_depthwise_conv1d(self, rng, T, W, with_left):
        C = 6
        for zero_frac in (0.0, 0.5, 0.9, 1.0):
            x = signed_zeros(rng, (T, C), zero_frac)
            k = signed_zeros(rng, (C, 1, W), zero_frac)
            left = (signed_zeros(rng, (W - 1, C), zero_frac) if with_left
                    else None)
            g = signed_zeros(rng, (T, C), zero_frac)
            ours = with_upstream(
                lambda a, b: depthwise_conv1d(a, b, left), (x, k), g)
            oracle = with_upstream(
                lambda a, b: depthwise_conv1d_taps(a, b, left), (x, k), g)
            assert_same_bits(ours[0], oracle[0])
            for mine, theirs in zip(ours[1], oracle[1]):
                assert_same_bits(mine, theirs)
            # off the tape too
            assert_same_bits(depthwise_conv1d(x, k, left), oracle[0])

    def test_depthwise_conv1d_all_negative_zero_sum(self):
        # every product is -0.0, so the sum is -0.0, not +0.0
        x = np.full((3, 2), -0.0)
        k = np.ones((2, 1, 4))
        out = depthwise_conv1d(x, k, np.full((3, 2), -0.0))
        assert np.signbit(out).all()
        assert_same_bits(out, depthwise_conv1d_taps(
            x, k, np.full((3, 2), -0.0)).data)

    @pytest.mark.parametrize("act", [None, "relu"])
    @pytest.mark.parametrize("shapes", [
        ((7, 5), (5, 3), (3,)),          # rows times a matrix
        ((1, 5), (5, 3), (3,)),          # one row, as for one frame
        ((7, 5), (5, 1), (1,)),          # one output column
        ((4, 6), (6, 5), (4, 1)),        # a (rows, 1) bias
    ])
    def test_fused_matmul(self, rng, act, shapes):
        for zero_frac in (0.0, 0.5):
            arrays = [signed_zeros(rng, s, zero_frac) for s in shapes]
            out_shape = np.broadcast_shapes(
                (arrays[0] @ arrays[1]).shape, shapes[2])
            g = signed_zeros(rng, out_shape, zero_frac)
            ours = with_upstream(
                lambda a, b, c: ad.matmul(a, b, c, act), arrays, g)
            oracle = with_upstream(
                lambda a, b, c: matmul_unfused(a, b, c, act), arrays, g)
            assert_same_bits(ours[0], oracle[0])
            assert len(ours[1]) == 3
            for mine, theirs in zip(ours[1], oracle[1]):
                assert_same_bits(mine, theirs)
            assert_same_bits(ad.matmul(*arrays, act), oracle[0])

    @pytest.mark.parametrize("shapes", [
        ((7, 1, 5), (5, 3)),    # a (T, 1, n) stack, as in the encoder
        ((4, 3, 5), (5, 2)),    # a stack of wider matrices
        ((4, 6), (7, 6, 5)),    # matrix times a stack
    ])
    def test_stack_gradient_is_tensordot(self, rng, shapes):
        # the matrix's gradient has the bits of np.tensordot over the stack
        stack_first = len(shapes[0]) == 3
        for zero_frac in (0.0, 0.5):
            x, y = (signed_zeros(rng, s, zero_frac) for s in shapes)
            g = signed_zeros(rng, (x @ y).shape, zero_frac)
            _, (gx, gy) = with_upstream(stacked_matmul, (x, y), g)
            if stack_first:
                assert_same_bits(gy, np.tensordot(x, g, axes=([0, 1], [0, 1])))
            else:
                assert_same_bits(gx, np.tensordot(g, y, axes=([0, 2], [0, 2])))

    @pytest.mark.parametrize("T", [1, 2, 5, 118])
    def test_encoder(self, rng, T):
        dims = ModelDims(vocab_size=2)
        for zero_frac in (0.0, 0.5, 0.9, 1.0):
            x = signed_zeros(rng, (T, 320), zero_frac)
            arrays = [signed_zeros(rng, shape, zero_frac)
                      for shape in shapes(dims, ENCODER)]
            g = signed_zeros(rng, (T, dims.d_model), zero_frac)
            ours, oracle = (with_upstream(
                lambda *ts: fn(x, with_params(dims, ENCODER, ts)), arrays, g)
                for fn in (encode_features, encode_unfused))
            assert_same_bits(ours[0], oracle[0])
            assert len(ours[1]) == 6
            for mine, theirs in zip(ours[1], oracle[1]):
                assert_same_bits(mine, theirs)
            # off the tape, and on weights prepared once, as a scorer has them
            model = with_params(dims, ENCODER, arrays)
            assert_same_bits(encode_features(x, model), oracle[0])
            prepared = tuple(np.array(ad.value(w))
                             for w in encoder_weights(model))
            assert_same_bits(encode_features(x, model, prepared), oracle[0])

    @pytest.mark.parametrize("T", [1, 2, 5, 118])
    @pytest.mark.parametrize("with_left", [False, True])
    def test_vad_head(self, rng, T, with_left):
        dims = ModelDims(vocab_size=2)
        d, W = dims.d_model, dims.vad_kernel_width
        for zero_frac in (0.0, 0.5, 0.9, 1.0):
            arrays = [signed_zeros(rng, shape, zero_frac)
                      for shape in [(T, d), *shapes(dims, VAD_HEAD)]]
            left = (signed_zeros(rng, (W - 1, d), zero_frac) if with_left
                    else None)
            gs = (signed_zeros(rng, (T, d), zero_frac),
                  signed_zeros(rng, (T,), zero_frac))
            ours, oracle = (with_upstream(
                lambda z, *ts: fn(z, with_params(dims, VAD_HEAD, ts),
                                  left=left), arrays, gs)
                for fn in (vad_forward, vad_forward_unfused))
            for mine, theirs in zip(ours[0], oracle[0]):
                assert_same_bits(mine, theirs)
            assert len(ours[1]) == 5
            for mine, theirs in zip(ours[1], oracle[1]):
                assert_same_bits(mine, theirs)
            off = vad_forward(arrays[0], with_params(dims, VAD_HEAD,
                                                     arrays[1:]), left=left)
            for mine, theirs in zip(off, oracle[0]):
                assert_same_bits(mine, theirs)

    @pytest.mark.parametrize("T", [1, 2, 5, 118])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    def test_attention(self, rng, T, n_heads, cross):
        # cross: keys and values of another length
        self.check_attention(rng, T, T + 3 if cross else T, n_heads)

    @pytest.mark.parametrize("T, S", [(1, 40), (7, 118)])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_attention_fewer_queries(self, rng, T, S, n_heads):
        # a decoded window's span rows as queries, all its rows as keys
        self.check_attention(rng, T, S, n_heads)

    @staticmethod
    def check_attention(rng, T, S, n_heads):
        d = 8
        for zero_frac in (0.0, 0.5, 0.9, 1.0):
            q = signed_zeros(rng, (T, d), zero_frac)
            k, v = (signed_zeros(rng, (S, d), zero_frac) for _ in "kv")
            g = signed_zeros(rng, (T, d), zero_frac)
            ours = with_upstream(lambda *a: ad.attention(*a, n_heads),
                                 (q, k, v), g)
            oracle = with_upstream(lambda *a: attention_unfused(*a, n_heads),
                                   (q, k, v), g)
            assert_same_bits(ours[0], oracle[0])
            for mine, theirs in zip(ours[1], oracle[1]):
                assert_same_bits(mine, theirs)
            assert_same_bits(ad.attention(q, k, v, n_heads), oracle[0])


class TestFiniteDiffValidation:
    def test_rejects_bad_eps(self):
        a = ad.Tensor([1.0])
        with pytest.raises(UsageError):
            finite_diff_check(lambda p: sum_all(p[0]), [a], eps=0.0)

    def test_rejects_non_finite_objective(self):
        a = ad.Tensor([1.0])

        def f(p):
            return sum_all(mul(ad.Tensor(np.asarray(np.inf)), p[0]))

        with pytest.raises(NumericError):
            finite_diff_check(f, [a])


class TestCheckpointIO:
    def test_round_trip(self, rng, tmp_path):
        params = {
            "w": ad.Tensor(rng.normal(size=(3, 4)), name="w"),
            "b": ad.Tensor(rng.normal(size=(4,)), name="b"),
            "s": ad.Tensor(np.asarray(2.5), name="s"),
        }
        path = tmp_path / "ckpt.bin"
        ad.save_params(path, params)
        loaded = ad.load_params(path)
        assert set(loaded) == {"w", "b", "s"}
        for k in params:
            assert np.array_equal(loaded[k].data, params[k].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(FormatError):
            ad.load_params(path)

    def test_truncation(self, rng, tmp_path):
        path = tmp_path / "ckpt.bin"
        ad.save_params(path, {"w": ad.Tensor(rng.normal(size=(5, 5)))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError):
            ad.load_params(path)

    def test_trailing_garbage(self, rng, tmp_path):
        path = tmp_path / "ckpt.bin"
        ad.save_params(path, {"w": ad.Tensor(rng.normal(size=(2,)))})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            ad.load_params(path)
