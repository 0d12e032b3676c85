"""Chunk layout planning, and the stitching of the per-window oracle."""

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.chunking import (
    Chunk,
    ChunkLayout,
    plan_chunks,
    sample_chunk_len,
)
from vadasr.errors import InvalidSpecError, LayoutError

from oracles import mul, stitch_outputs, sum_all


class TestPlanChunks:
    def test_hand_checked_layout(self):
        layout = plan_chunks(100, body_len=30, left_len=10, right_len=10)
        assert [(c.body, c.window) for c in layout.chunks] == [
            ((0, 30), (0, 40)),      # clipped at the start
            ((30, 60), (20, 70)),
            ((60, 90), (50, 100)),
            ((90, 100), (80, 100)),  # clipped at the end
        ]

    def test_window_clipped_at_both_ends(self):
        layout = plan_chunks(12, body_len=4, left_len=6, right_len=6)
        assert [c.window for c in layout.chunks] == [(0, 10), (0, 12),
                                                      (2, 12)]

    def test_single_chunk_when_body_covers_all(self):
        layout = plan_chunks(50, body_len=80, left_len=5, right_len=5)
        assert len(layout.chunks) == 1
        assert layout.chunks[0].body == (0, 50)
        assert layout.chunks[0].window == (0, 50)

    def test_zero_length_stream(self):
        assert plan_chunks(0, body_len=10).chunks == ()

    def test_bad_params(self):
        with pytest.raises(InvalidSpecError):
            plan_chunks(10, body_len=0)
        with pytest.raises(InvalidSpecError):
            plan_chunks(10, body_len=5, left_len=-1)

    def test_random_layouts_valid(self, rng):
        # __post_init__ validates; constructing is the assertion
        for _ in range(200):
            T = int(rng.integers(1, 400))
            body = int(rng.integers(1, 60))
            l = int(rng.integers(0, 30))
            r = int(rng.integers(0, 30))
            layout = plan_chunks(T, body, l, r)
            covered = sum(c.body[1] - c.body[0] for c in layout.chunks)
            assert covered == T


class TestLayoutValidation:
    def test_gap_rejected(self):
        with pytest.raises(LayoutError):
            ChunkLayout(chunks=(Chunk(body=(0, 5), window=(0, 5)),
                                Chunk(body=(6, 10), window=(6, 10))),
                        total_T=10)

    def test_overlap_rejected(self):
        with pytest.raises(LayoutError):
            ChunkLayout(chunks=(Chunk(body=(0, 6), window=(0, 6)),
                                Chunk(body=(4, 10), window=(4, 10))),
                        total_T=10)

    def test_incomplete_coverage_rejected(self):
        with pytest.raises(LayoutError):
            ChunkLayout(chunks=(Chunk(body=(0, 5), window=(0, 5)),),
                        total_T=10)

    def test_empty_layout_of_nonzero_length_rejected(self):
        with pytest.raises(LayoutError):
            ChunkLayout(chunks=(), total_T=3)

    # a window must hold its body and lie inside [0, total_T)
    @pytest.mark.parametrize("window", [(1, 10), (0, 9), (3, 4), (-1, 10),
                                        (0, 12)],
                             ids=["starts-inside", "stops-inside", "inside",
                                  "before-0", "past-total-T"])
    def test_bad_window_rejected(self, window):
        with pytest.raises(LayoutError, match="window"):
            ChunkLayout(chunks=(Chunk(body=(0, 10), window=window),),
                        total_T=10)


class TestSampleChunkLen:
    def test_range_in_frames(self, rng):
        lens = [sample_chunk_len(rng, 0.5, 3.0) for _ in range(500)]
        assert min(lens) >= 25  # 0.5 s at 20 ms frames
        assert max(lens) <= 150
        assert len(set(lens)) > 20

    def test_bad_range(self, rng):
        with pytest.raises(InvalidSpecError):
            sample_chunk_len(rng, 2.0, 1.0)


class TestStitch:
    def test_round_trip(self, rng):
        for _ in range(50):
            T = int(rng.integers(1, 200))
            layout = plan_chunks(T, int(rng.integers(1, 40)),
                                 int(rng.integers(0, 10)),
                                 int(rng.integers(0, 10)))
            full = rng.normal(size=(T, 3))
            parts = [full[c.body[0]:c.body[1]] for c in layout.chunks]
            assert np.array_equal(stitch_outputs(parts, layout), full)

    def test_tensors_join_on_the_tape(self, rng):
        # the per-window oracle stitches its chunk bodies with this function
        layout = plan_chunks(10, 4, 2, 2)
        full = rng.normal(size=(10, 3))
        weights = rng.normal(size=(10, 3))
        parts = [ad.Tensor(full[c.body[0]:c.body[1]]) for c in layout.chunks]
        with ad.Tape() as tape:
            out = stitch_outputs(parts, layout)
            loss = sum_all(mul(out, ad.Tensor(weights)))
        grads = ad.backward(tape, loss)
        assert np.array_equal(out.data, full)
        for part, c in zip(parts, layout.chunks):
            assert np.array_equal(grads[part], weights[c.body[0]:c.body[1]])

    def test_wrong_chunk_count(self):
        layout = plan_chunks(10, 5)
        with pytest.raises(LayoutError):
            stitch_outputs([np.zeros((5, 2))], layout)

    def test_wrong_row_count(self):
        layout = plan_chunks(10, 5)
        with pytest.raises(LayoutError):
            stitch_outputs([np.zeros((5, 2)), np.zeros((4, 2))], layout)
