"""Shape contracts, structural identities, and chunked-attention equivalence."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import vadasr.autodiff as ad
import vadasr.model as model_module
from vadasr.audio import FrameSequence
from vadasr.chunking import Chunk, ChunkLayout, plan_chunks
from vadasr.errors import (
    DataError,
    DimensionError,
    FormatError,
    LayoutError,
    UsageError,
)
from vadasr.model import (
    FRAME_SAMPLES,
    ModelDims,
    ModelParams,
    PosteriorGrid,
    _mha,
    context_forward,
    cross_task_attend,
    encode_features,
    forward,
    positional_encoding,
    vad_forward,
    vad_score_frames,
)
from vadasr.streamer import ModelDecoder, ModelScorer

from oracles import (context_forward_per_window, finite_diff_check,
                     forward_stages, mul, sum_all)

VOCAB = ["a", "b", "c"]


def small_model(seed=0, **dim_kwargs):
    dims = ModelDims(vocab_size=len(VOCAB), **dim_kwargs)
    return ModelParams.init(VOCAB, dims, seed=seed)


def perturbed_model(seed=0, **dim_kwargs):
    """Small model with every parameter, biases too, randomly nonzero."""
    model = small_model(seed=seed, **dim_kwargs)
    rng = np.random.default_rng(seed)
    for t in model.params.values():
        t.data += rng.normal(0.0, 0.1, t.shape)
    return model


def random_frames(rng, T):
    return FrameSequence(frames=rng.normal(0.0, 0.1, size=(T, FRAME_SAMPLES)))


class TestDims:
    @pytest.mark.parametrize("bad", [{"n_heads": 0}, {"d_model": -4},
                                     {"ffn_dim": 64.0}, {"d_model": True}])
    def test_dims_are_positive_ints(self, bad):
        with pytest.raises(UsageError, match="positive int"):
            ModelDims(vocab_size=3, **bad)

    def test_heads_must_divide(self):
        with pytest.raises(UsageError):
            ModelDims(vocab_size=3, d_model=32, n_heads=5)

    def test_vocab_size_must_match(self):
        with pytest.raises(UsageError):
            ModelParams(VOCAB, ModelDims(vocab_size=7), {})


class TestShapes:
    def test_forward_shapes(self, rng):
        model = small_model()
        T = 9
        Z = encode_features(random_frames(rng, T), model)
        H_vad = vad_forward(Z, model)[0]
        C = context_forward(Z, model)
        grid, probs = forward(Z, model)
        d = model.dims.d_model
        assert Z.shape == (T, d)
        assert H_vad.shape == (T, d)
        assert probs.shape == (T,)
        assert C.shape == (T, d)
        assert cross_task_attend(C, H_vad, model).shape == (T, d)
        assert grid.array.shape == (T, len(VOCAB) + 1)
        # posterior rows normalize
        assert np.allclose(np.exp(grid.array).sum(axis=1), 1.0)
        # speech probs are probabilities
        p = probs.data
        assert np.all((p > 0) & (p < 1))

    def test_grid_blank_is_the_column_after_the_vocabulary(self, rng):
        # the grid checks its width; its blank is the column after the
        # vocabulary
        grid = PosteriorGrid(log_probs=rng.normal(size=(4, len(VOCAB) + 1)),
                             vocab=VOCAB)
        assert grid.blank_index == len(VOCAB) == grid.array.shape[1] - 1
        with pytest.raises(DimensionError):
            PosteriorGrid(log_probs=rng.normal(size=(4, len(VOCAB) + 2)),
                          vocab=VOCAB)

    def test_empty_input_rejected(self):
        model = small_model()
        with pytest.raises(DataError):
            encode_features(FrameSequence(frames=np.zeros((0, FRAME_SAMPLES))),
                            model)

    def test_wrong_frame_width_rejected(self, rng):
        model = small_model()
        with pytest.raises(DimensionError):
            encode_features(FrameSequence(frames=rng.normal(size=(4, 100))),
                            model)


class TestStructuralIdentities:
    def test_encoder_is_frame_local(self, rng):
        # perturbing frame j leaves latents of all other frames untouched
        model = small_model()
        frames = random_frames(rng, 8)
        base = encode_features(frames, model)
        mod = frames.frames.copy()
        mod[3] += rng.normal(0.0, 1.0, FRAME_SAMPLES)
        pert = encode_features(FrameSequence(frames=mod), model)
        changed = np.any(base != pert, axis=1)
        assert changed[3]
        assert not changed[:3].any() and not changed[4:].any()

    def test_encoder_rows_independent_of_length(self, rng):
        # encoding one frame alone gives that frame's row of a
        # whole-sequence encode, bit for bit
        model = perturbed_model()
        frames = random_frames(rng, 9)
        whole = encode_features(frames, model)
        for t in range(9):
            one = encode_features(FrameSequence(frames.frames[t:t + 1]), model)
            assert np.array_equal(one[0], whole[t])

    def test_encoder_matches_strided_conv_reference(self, rng):
        # both convs have kernel == stride: conv1 reads 16-sample blocks of
        # the frame, conv2 all 20 conv1 positions, with the checkpoint's
        # (C_out, C_in, W) kernel layout
        model = perturbed_model()
        p = {k: v.data for k, v in model.params.items()}
        x = rng.normal(0.0, 0.1, size=(3, FRAME_SAMPLES))
        blocks = x.reshape(3, 20, 16)
        h1 = np.maximum(np.einsum("ci,tji->tcj", p["enc1_k"][:, 0], blocks)
                        + p["enc1_b"][None], 0.0)
        h2 = np.maximum(np.einsum("ocw,tcw->to", p["enc2_k"], h1)
                        + p["enc2_b"][:, 0], 0.0)
        mu = h2.mean(axis=1, keepdims=True)
        ref = ((h2 - mu) / np.sqrt(h2.var(axis=1, keepdims=True) + 1e-5)
               * p["enc_ln_g"] + p["enc_ln_b"])
        out = encode_features(FrameSequence(frames=x), model)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_vad_conv_is_causal(self, rng):
        # perturbing frame j never changes VAD features before j
        model = small_model()
        frames = random_frames(rng, 10)
        z = encode_features(frames, model)
        base = vad_forward(z, model)[1]
        mod = frames.frames.copy()
        mod[6] += 1.0
        z2 = encode_features(FrameSequence(frames=mod), model)
        pert = vad_forward(z2, model)[1]
        assert np.array_equal(base[:6], pert[:6])
        assert base[6] != pert[6]

    def test_vad_score_frames_skips_attention(self, rng):
        model = small_model()
        before = model.attention_evals
        vad_score_frames(random_frames(rng, 6), model)
        assert model.attention_evals == before
        forward(encode_features(random_frames(rng, 6), model), model)
        assert model.attention_evals == before + 2  # context + cross-task
        # streaming: scoring a stream frame by frame never attends, and
        # each decoded window attends twice
        before = model.attention_evals
        scorer = ModelScorer(model)
        for i, frame in enumerate(random_frames(rng, 12).frames):
            scorer(frame[None], i)
        assert model.attention_evals == before
        decoder = ModelDecoder(model)
        for n in (3, 8, 1):
            decoder(encode_features(random_frames(rng, n), model), 0, n)
            before += 2
            assert model.attention_evals == before

    def test_package_has_no_assert(self):
        # python -O strips assert statements, so none may carry behaviour
        src = Path(__file__).resolve().parents[1] / "src" / "vadasr"
        files = sorted(src.glob("*.py"))
        assert files
        for path in files:
            tree = ast.parse(path.read_text(), filename=str(path))
            found = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert not found, f"{path.name}: assert at lines {found}"

    def test_autodiff_names_are_all_used(self):
        # src carries only what the product runs: every public top-level
        # name of autodiff is referenced from another module of the package
        src = Path(__file__).resolve().parents[1] / "src" / "vadasr"
        public = set()
        for node in ast.parse((src / "autodiff.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.add(node.name)
            elif isinstance(node, ast.Assign):
                public.update(t.id for t in node.targets
                              if isinstance(t, ast.Name))
        public = {name for name in public if not name.startswith("_")}
        assert {"custom", "backward", "Tensor"} <= public
        used = set()
        for path in sorted(src.glob("*.py")):
            if path.name == "autodiff.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            aliases = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    if (node.module or "").endswith("autodiff"):
                        used.update(a.name for a in node.names)
                    aliases.update(a.asname or a.name for a in node.names
                                   if a.name == "autodiff")
            used.update(node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in aliases)
        assert not public - used, f"unused in src: {sorted(public - used)}"

    def test_vad_scores_match_full_forward(self, rng):
        model = small_model()
        frames = random_frames(rng, 7)
        cheap = vad_score_frames(frames, model).data
        full = forward(encode_features(frames, model), model)[1].data
        assert np.array_equal(cheap, full)

    def test_zero_value_projection_makes_fusion_identity(self, rng):
        # with W_v = 0 the cross-task attention adds nothing: G == C
        model = small_model()
        model.params["xattn_wv"] = ad.Tensor(
            np.zeros_like(model.params["xattn_wv"].data), name="xattn_wv")
        Z = encode_features(random_frames(rng, 6), model)
        C = context_forward(Z, model)
        G = cross_task_attend(C, vad_forward(Z, model)[0], model)
        assert np.allclose(G, C, atol=1e-14)

    def test_single_frame_attention_is_identity_weight(self, rng):
        # with T = 1 the attention weight is exactly 1, so fused output is
        # C + (v W_o) for the single value row
        model = small_model()
        frames = random_frames(rng, 1)
        Z = encode_features(frames, model)
        H_vad = vad_forward(Z, model)[0]
        C = context_forward(Z, model)
        p = model.params
        v = H_vad @ p["xattn_wv"].data
        expect = C + v @ p["xattn_wo"].data
        assert np.allclose(cross_task_attend(C, H_vad, model), expect,
                           atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_mha_records_five_nodes(self, rng, n_heads):
        # three projections, one attention node, the output projection
        model = small_model(n_heads=n_heads)
        p = model.params
        x = ad.Tensor(rng.normal(size=(6, 32)))
        kv = ad.Tensor(rng.normal(size=(4, 32)))
        for x_kv in (x, kv):
            with ad.Tape() as tape:
                _mha(x, x_kv, p["xattn_wq"], p["xattn_wk"], p["xattn_wv"],
                     p["xattn_wo"], n_heads, model)
            assert len(tape) == 5

    def test_cross_task_length_mismatch(self, rng):
        model = small_model()
        with pytest.raises(DimensionError):
            cross_task_attend(ad.Tensor(rng.normal(size=(4, 32))),
                              ad.Tensor(rng.normal(size=(5, 32))), model)


class TestChunkedAttention:
    def test_single_covering_chunk_equals_unchunked(self, rng):
        model = small_model()
        Z = encode_features(random_frames(rng, 12), model)
        whole = forward(Z, model, plan_chunks(12, 12))[0]
        default = forward(Z, model, None)[0]
        assert np.allclose(whole.array, default.array, atol=1e-12)

    def test_full_context_chunks_equal_unchunked(self, rng):
        # chunks whose contexts reach both stream ends see everything, so
        # the result must match the unchunked forward
        model = small_model()
        T = 10
        Z = encode_features(random_frames(rng, T), model)
        layout = plan_chunks(T, body_len=4, left_len=T, right_len=T)
        chunked = forward(Z, model, layout)[0]
        whole = forward(Z, model, None)[0]
        assert np.allclose(chunked.array, whole.array, atol=1e-9)

    def test_narrow_context_changes_output(self, rng):
        model = small_model()
        T = 20
        Z = encode_features(random_frames(rng, T), model)
        layout = plan_chunks(T, body_len=5, left_len=2, right_len=2)
        chunked = forward(Z, model, layout)[0]
        whole = forward(Z, model, None)[0]
        assert not np.allclose(chunked.array, whole.array, atol=1e-6)

    def test_body_rows_depend_only_on_window(self, rng):
        # perturbing a frame outside a chunk's window leaves that chunk's
        # context rows unchanged
        model = small_model()
        T = 20
        layout = plan_chunks(T, body_len=5, left_len=3, right_len=3)
        frames = random_frames(rng, T)
        base = context_forward(encode_features(frames, model), model, layout)
        mod = frames.frames.copy()
        mod[19] += 1.0  # outside window of chunk 0 ([0, 8))
        pert_frames = FrameSequence(frames=mod)
        pert = context_forward(encode_features(pert_frames, model), model,
                               layout)
        assert np.allclose(base[:5], pert[:5], atol=1e-12)

    @staticmethod
    def random_layout(rng, T):
        """Bodies tiling [0, T) at random cuts, each window reaching a
        random number of rows (zero too) past its body, clipped at the
        ends."""
        cuts = rng.choice(np.arange(1, T), int(rng.integers(0, min(T, 7))),
                          replace=False) if T > 1 else []
        edges = [0, *sorted(int(c) for c in cuts), T]
        return ChunkLayout(tuple(
            Chunk((b0, b1), (max(0, b0 - int(rng.integers(0, T + 1))),
                             min(T, b1 + int(rng.integers(0, T + 1)))))
            for b0, b1 in zip(edges, edges[1:])), T)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_layer_matches_per_window_oracle(self, monkeypatch, seed):
        # the one-layer chunked block against the per-window chain (slice
        # the window, run the layer, slice the body, stitch): C and the
        # log-posteriors bit for bit, every parameter gradient to 1e-12
        rng = np.random.default_rng(seed)
        layouts = [plan_chunks(9, 1, 2, 2),     # one-row bodies
                   plan_chunks(11, 3, 11, 11),  # windows clipped at both ends
                   plan_chunks(7, 7),           # one covering chunk
                   plan_chunks(10, 4)]          # zero context
        layouts += [self.random_layout(rng, int(rng.integers(1, 31)))
                    for _ in range(6)]
        model = perturbed_model(seed=seed, n_heads=1 + seed % 2)
        per_window = (lambda Z, m, layout, span:
                      context_forward_per_window(Z, m, layout))
        for layout in layouts:
            frames = random_frames(rng, layout.total_T)
            w = rng.normal(size=(layout.total_T, len(VOCAB) + 1))
            runs = []
            for patch in (False, True):
                if patch:
                    monkeypatch.setattr(model_module, "context_forward",
                                        per_window)
                with ad.Tape() as tape:
                    grid = forward(encode_features(frames, model), model,
                                   layout)[0]
                    loss = sum_all(mul(grid.log_probs, w))
                C = model_module.context_forward(
                    encode_features(frames, model), model, layout, None)
                runs.append((C, grid, ad.backward(tape, loss)))
                monkeypatch.undo()
            (C, grid, grads), (ref_C, ref, ref_grads) = runs
            assert np.array_equal(ad.value(C), ad.value(ref_C))
            assert np.array_equal(grid.array, ref.array)
            for name, p in model.params.items():
                assert (p in grads) == (p in ref_grads), name
                if p in grads:
                    scale = np.abs(ref_grads[p]).max()
                    assert (np.abs(grads[p] - ref_grads[p]).max()
                            <= 1e-12 * scale), name

    def test_layout_length_mismatch(self, rng):
        model = small_model()
        Z = encode_features(random_frames(rng, 8), model)
        with pytest.raises(LayoutError):
            forward(Z, model, plan_chunks(9, 9))


class TestSpanQueries:
    """A span's forward computes C, G and the posteriors for the span's rows
    only, attending over every row's keys and values: its rows are the full
    forward's rows of the span. C and G are read from the stages that make
    them, with the span's arguments."""

    T = 23
    SPANS = {"from-row-0": (0, 7), "to-last-row": (15, 23),
             "one-row": (11, 12), "first-row": (0, 1), "last-row": (22, 23),
             "inside": (4, 19), "whole-window": (0, 23)}

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_span_rows_match_full_forward(self, seed, n_heads):
        rng = np.random.default_rng(seed)
        model = perturbed_model(seed=seed, n_heads=n_heads)
        Z = encode_features(random_frames(rng, self.T), model)
        H_vad = vad_forward(Z, model)[0]
        # a span's forward runs the VAD head without its probabilities
        assert np.array_equal(vad_forward(Z, model, probs=False)[0], H_vad)

        def rows(span):
            C = context_forward(Z, model, span=span)
            grid, probs = forward(Z, model, span=span)
            return probs, {"C": C, "G": cross_task_attend(C, H_vad, model, span),
                           "log_posteriors": grid.log_probs}

        full = rows(None)[1]
        for name, (a, b) in self.SPANS.items():
            probs, part = rows((a, b))
            with ad.Tape() as tape:
                taped_probs, taped = rows((a, b))
            assert len(tape) > 0
            assert probs is None and taped_probs is None
            for field in ("C", "G", "log_posteriors"):
                got, on_tape, ref = (ad.value(x[field])
                                     for x in (part, taped, full))
                assert got.shape[0] == b - a, (name, field)
                assert np.array_equal(got, on_tape), (name, field)
                if name == "whole-window":
                    assert np.array_equal(got, ref), field
                else:
                    assert np.abs(got - ref[a:b]).max() <= 1e-12, (
                        name, field)

    @pytest.mark.parametrize("span", [(-1, 3), (3, 3), (5, 2), (4, 9)])
    def test_span_outside_rows_rejected(self, rng, span):
        model = small_model()
        with pytest.raises(DimensionError, match="span"):
            forward(encode_features(random_frames(rng, 8), model), model,
                    span=span)

    def test_span_with_layout_rejected(self, rng):
        model = small_model()
        with pytest.raises(DimensionError, match="without a layout"):
            forward(encode_features(random_frames(rng, 8), model), model,
                    plan_chunks(8, 8), span=(0, 4))


class TestOffTheTape:
    """Inference outside a Tape runs untaped, with the bits of a taped run."""

    @pytest.mark.parametrize("width", [4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bits_on_and_off_the_tape(self, seed, width):
        rng = np.random.default_rng(seed)
        model = small_model(seed=seed, vad_kernel_width=width)
        for t in model.params.values():
            t.data += rng.normal(0.0, 0.1, t.shape)
        T = 17 + seed
        frames = random_frames(rng, T)
        layouts = [None, plan_chunks(T, body_len=5, left_len=3, right_len=2)]
        for layout in layouts:
            with ad.Tape() as tape:
                taped = forward_stages(encode_features(frames, model), model,
                                       layout)
            assert len(tape) > 0
            plain = forward_stages(encode_features(frames, model), model,
                                   layout)
            for name in ("log_posteriors", "speech_probs"):
                assert isinstance(plain[name], ad.Tensor), name
            for name in taped:
                assert np.array_equal(ad.value(taped[name]),
                                      ad.value(plain[name])), name
        with ad.Tape():
            taped = vad_score_frames(frames, model)
        plain = vad_score_frames(frames, model)
        assert isinstance(plain, ad.Tensor)
        assert np.array_equal(taped.data, plain.data)

    def test_layers_return_plain_arrays(self, rng):
        model = small_model()
        z = encode_features(random_frames(rng, 4), model)
        h_vad, probs = vad_forward(z, model)
        assert all(type(x) is np.ndarray for x in (z, h_vad, probs))
        with ad.Tape():
            z = encode_features(random_frames(rng, 4), model)
        assert isinstance(z, ad.Tensor)


class TestGradients:
    @pytest.mark.parametrize("layout", [None, plan_chunks(4, 2, 1, 1)],
                             ids=["unchunked", "chunked"])
    def test_full_model_finite_difference(self, rng, layout):
        # small dims keep the parameter count tractable
        dims = ModelDims(vocab_size=2, d_model=4, n_heads=2,
                         conv1_channels=2, ffn_dim=4, vad_kernel_width=3)
        model = ModelParams.init(["a", "b"], dims, seed=1)
        frames = FrameSequence(
            frames=rng.normal(0.0, 0.1, size=(4, FRAME_SAMPLES)))
        names = ["enc1_k", "enc1_b", "enc2_k", "enc2_b", "vad_k", "vad_b",
                 "ctx_wq", "xattn_wv", "asr_w", "ctx_ln1_g", "vad_fc_w",
                 "vad_fc_b"]
        tensors = [model.params[n] for n in names]
        w = rng.normal(size=(4, 3))
        wp = rng.normal(size=4)

        def f(params):
            grid, probs = forward(encode_features(frames, model), model,
                                  layout)
            return ad.add(sum_all(mul(grid.log_probs, w)),
                          sum_all(mul(probs, wp)))

        assert finite_diff_check(f, tensors) < 1e-4


class TestSaveLoad:
    def test_round_trip(self, rng, tmp_path):
        model = small_model(seed=3)
        path = tmp_path / "model.ckpt"
        model.save(path)
        back = ModelParams.load(path)
        assert back.vocab == model.vocab
        assert back.dims == model.dims
        frames = random_frames(rng, 5)
        a = forward(encode_features(frames, model), model)[0].array
        b = forward(encode_features(frames, back), back)[0].array
        assert np.array_equal(a, b)

    def test_tensors_checked_against_sidecar_dims(self, tmp_path):
        # a d_model 16 sidecar over a d_model 32 checkpoint used to load and
        # fail later inside the scorer with a reshape error
        path = tmp_path / "model.ckpt"
        small_model().save(path)
        sidecar = path.with_suffix(".ckpt.json")
        meta = json.loads(sidecar.read_text())
        meta["dims"]["d_model"] = 16
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match="'enc2_k'"):
            ModelParams.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        # such a checkpoint used to load and decode from a NaN grid
        model = small_model()
        model.params["asr_w"].data[1, 2] = value
        path = tmp_path / "model.ckpt"
        model.save(path)
        with pytest.raises(FormatError, match="'asr_w' holds NaN or inf"):
            ModelParams.load(path)

    def test_copy_is_deep(self):
        model = small_model()
        clone = model.copy()
        clone.params["asr_b"].data[0] = 99.0
        assert model.params["asr_b"].data[0] == 0.0


class TestPositionalEncoding:
    def test_values(self):
        enc = positional_encoding(3, 4)
        assert enc.shape == (3, 4)
        assert np.allclose(enc[0], [0, 1, 0, 1])
        assert enc[1, 0] == pytest.approx(np.sin(1.0))
        assert enc[2, 2] == pytest.approx(np.sin(2.0 / 100.0))

    def test_cache_consistency(self):
        a = positional_encoding(600, 8)  # force regrow past default cache
        b = positional_encoding(10, 8)
        assert np.array_equal(a[:10], b)
