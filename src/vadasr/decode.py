"""CTC decoding: greedy best-path and prefix beam search with optional
stupid-backoff n-gram shallow fusion plus a per-token insertion score.

Beam search merges hypotheses by collapsed prefix, tracking blank and
non-blank probability mass separately in log space.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, UsageError, VocabularyError

NEG_INF = float("-inf")
BOS = "<s>"
EOS = "</s>"
BACKOFF_LOG = math.log(0.4)


# ---------------------------------------------------------------------------
# n-gram language model (stupid backoff)


class NgramLM:
    """Count-based n-gram scorer. Stupid backoff yields a score, not a
    normalized distribution; every (history, token) gets a finite value."""

    def __init__(self, order: int, counts: dict[tuple[str, ...], int]):
        if order < 1:
            raise UsageError("order must be >= 1")
        self.order = order
        self.counts = counts
        self.context_totals: dict[tuple[str, ...], int] = defaultdict(int)
        for gram, c in counts.items():
            self.context_totals[gram[:-1]] += c
        self.unigram_total = sum(c for g, c in counts.items() if len(g) == 1)
        self.vocab = sorted({g[-1] for g in counts if len(g) == 1})

    def score(self, history: Sequence[str], token: str) -> float:
        """Stupid-backoff log score of ``token`` after ``history``."""
        hist = tuple(history)[-(self.order - 1):] if self.order > 1 else ()
        if len(hist) < self.order - 1:
            hist = (BOS,) * (self.order - 1 - len(hist)) + hist
        return self._score(hist, token)

    def _score(self, hist: tuple[str, ...], token: str) -> float:
        if hist:
            joint = self.counts.get(hist + (token,), 0)
            ctx = self.context_totals.get(hist, 0)
            if joint > 0 and ctx > 0:
                return math.log(joint / ctx)
            return BACKOFF_LOG + self._score(hist[1:], token)
        # add-one-smoothed unigram floor: finite for any token
        c = self.counts.get((token,), 0)
        v = len(self.vocab) + 1
        return math.log((c + 1) / (self.unigram_total + v))

    def to_json(self) -> str:
        return json.dumps({
            "order": self.order,
            "vocab": self.vocab,
            "counts": {" ".join(g): c for g, c in self.counts.items()},
        })

    @classmethod
    def from_json(cls, text: str) -> "NgramLM":
        try:
            obj = json.loads(text)
            counts = {tuple(k.split(" ")): int(v)
                      for k, v in obj["counts"].items()}
            return cls(order=int(obj["order"]), counts=counts)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise DataError(f"malformed LM file: "
                            f"{type(exc).__name__}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "NgramLM":
        with open(path) as fh:
            return cls.from_json(fh.read())


def train_ngram(transcripts: Sequence[Sequence[str]], order: int = 4) -> NgramLM:
    """Count all n-grams up to ``order`` with sentence-boundary markers."""
    if not transcripts:
        raise DataError("cannot train an LM on an empty corpus")
    counts: dict[tuple[str, ...], int] = defaultdict(int)
    for sent in transcripts:
        padded = [BOS] * (order - 1) + list(sent) + [EOS]
        for n in range(1, order + 1):
            for i in range(len(padded) - n + 1):
                counts[tuple(padded[i:i + n])] += 1
    return NgramLM(order=order, counts=dict(counts))


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 20
    lm_weight: float = 0.46
    word_score: float = 0.52
    lm: Optional[NgramLM] = None

    def __post_init__(self):
        if self.beam_size < 1:
            raise UsageError("beam_size must be >= 1")


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    score: float       # ctc + lm_weight*lm + word_score*len
    ctc_score: float   # log CTC prefix probability
    lm_score: float    # cumulative LM log score (0 without an LM)


def _grid_array(grid) -> np.ndarray:
    lp = grid.log_probs
    return lp.data if hasattr(lp, "data") else np.asarray(lp)


def greedy_decode(grid) -> tuple[str, ...]:
    """Per-frame argmax, collapse adjacent repeats, strip blanks."""
    arr = _grid_array(grid)
    path = arr.argmax(axis=-1)
    out = []
    prev = -1
    for k in path:
        if k != prev and k != grid.blank_index:
            out.append(grid.vocab[k])
        prev = k
    return tuple(out)


def beam_search(grid, config: BeamConfig = BeamConfig()) -> list[Hypothesis]:
    """Prefix beam search with blank/non-blank mass merging; returns
    hypotheses ranked by combined score."""
    arr = _grid_array(grid)
    blank = grid.blank_index
    vocab = grid.vocab
    lm = config.lm
    if lm is not None:
        missing = [t for t in vocab if t not in lm.vocab]
        if missing:
            raise VocabularyError(f"grid tokens absent from LM: {missing}")

    # prefix -> [log p(blank-terminated), log p(non-blank-terminated)]
    beams: dict[tuple[int, ...], list[float]] = {(): [0.0, NEG_INF]}
    lm_scores: dict[tuple[int, ...], float] = {(): 0.0}

    def combined(prefix, pb, pnb):
        return (np.logaddexp(pb, pnb)
                + config.lm_weight * lm_scores[prefix]
                + config.word_score * len(prefix))

    for t in range(arr.shape[0]):
        row = arr[t]
        nxt: dict[tuple[int, ...], list[float]] = defaultdict(
            lambda: [NEG_INF, NEG_INF])
        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            # blank keeps the prefix
            cell = nxt[prefix]
            cell[0] = np.logaddexp(cell[0], total + row[blank])
            # repeated last symbol keeps the prefix (merge of repeats)
            if prefix:
                cell[1] = np.logaddexp(cell[1], pnb + row[prefix[-1]])
            for k in range(blank):
                ext = prefix + (k,)
                mass = pb + row[k] if prefix and k == prefix[-1] else total + row[k]
                ecell = nxt[ext]
                ecell[1] = np.logaddexp(ecell[1], mass)
                if ext not in lm_scores:
                    lm_scores[ext] = lm_scores[prefix] + (
                        lm.score([vocab[i] for i in prefix], vocab[k])
                        if lm is not None else 0.0)
        ranked = sorted(nxt.items(),
                        key=lambda kv: combined(kv[0], kv[1][0], kv[1][1]),
                        reverse=True)
        beams = dict(ranked[:config.beam_size])

    hyps = []
    for prefix, (pb, pnb) in beams.items():
        ctc = float(np.logaddexp(pb, pnb))
        lmsc = lm_scores[prefix]
        hyps.append(Hypothesis(
            tokens=tuple(vocab[i] for i in prefix),
            score=ctc + config.lm_weight * lmsc + config.word_score * len(prefix),
            ctc_score=ctc,
            lm_score=lmsc,
        ))
    hyps.sort(key=lambda h: h.score, reverse=True)
    return hyps
