"""Chunk-hopping plans: non-overlapping bodies, each inside the window of
frames its attention sees. The window's context rows on either side of the
body only widen what attention may see; they never produce output rows."""

from __future__ import annotations

from dataclasses import dataclass

from .audio import draw_frames
from .errors import InvalidSpecError, LayoutError

# chunk-hopping body lengths are drawn like any other duration
sample_chunk_len = draw_frames


@dataclass(frozen=True)
class Chunk:
    body: tuple[int, int]    # [start, stop): the output rows
    window: tuple[int, int]  # [start, stop): the rows attention sees


@dataclass(frozen=True)
class ChunkLayout:
    chunks: tuple[Chunk, ...]
    total_T: int

    def __post_init__(self):
        pos = 0
        for i, ch in enumerate(self.chunks):
            (b0, b1), (w0, w1) = ch.body, ch.window
            if b0 != pos or b1 <= b0:
                raise LayoutError(f"chunk {i} body {ch.body} breaks coverage at {pos}")
            if not 0 <= w0 <= b0 < b1 <= w1 <= self.total_T:
                raise LayoutError(f"chunk {i} window {ch.window} must hold "
                                  f"its body within [0,{self.total_T})")
            pos = b1
        if pos != self.total_T:
            raise LayoutError(f"bodies cover [0,{pos}) but total_T={self.total_T}")


def plan_chunks(total_T: int, body_len: int, left_len: int = 0,
                right_len: int = 0) -> ChunkLayout:
    """Bodies of ``body_len`` frames (last one possibly shorter), each with
    ``left_len`` and ``right_len`` frames of context in its window, clipped
    at the stream boundaries."""
    if body_len < 1:
        raise InvalidSpecError("body_len must be >= 1")
    if left_len < 0 or right_len < 0:
        raise InvalidSpecError("context lengths must be >= 0")
    chunks = []
    for start in range(0, total_T, body_len):
        stop = min(start + body_len, total_T)
        chunks.append(Chunk(body=(start, stop),
                            window=(max(0, start - left_len),
                                    min(total_T, stop + right_len))))
    return ChunkLayout(chunks=tuple(chunks), total_T=total_T)
