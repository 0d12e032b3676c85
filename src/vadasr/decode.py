"""CTC decoding: greedy best-path and prefix beam search with optional
stupid-backoff n-gram shallow fusion plus a per-token insertion score.

Beam search merges hypotheses by collapsed prefix, tracking blank and
non-blank probability mass separately in log space.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, UsageError, VocabularyError

NEG_INF = float("-inf")
BOS = "<s>"
EOS = "</s>"
BACKOFF_LOG = math.log(0.4)
LOG2 = math.log(2.0)


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
        # a bool is an int to Python, but never a beam width
        if (isinstance(self.beam_size, bool)
                or not isinstance(self.beam_size, int)):
            raise UsageError(f"beam_size must be an int, "
                             f"got {self.beam_size!r}")
        if self.beam_size < 1:
            raise UsageError("beam_size must be >= 1")
        # one NaN or infinite weight makes every combined score NaN, and
        # the beam order arbitrary
        for name in ("lm_weight", "word_score"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise UsageError(f"{name} must be a finite number, "
                                 f"got {value!r}")


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


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` for two Python floats. It copies numpy's
    ``npy_logaddexp`` branch for branch, with the same libm ``exp`` and
    ``log1p`` calls, so it returns the same bits without a numpy scalar."""
    if x == y:
        return x + LOG2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # NaN


def beam_search(grid, config: BeamConfig = BeamConfig()) -> list[Hypothesis]:
    """Prefix beam search with blank/non-blank mass merging; returns
    hypotheses ranked by combined score.

    Each frame works on Python floats only. A candidate's LM score is the
    sum of increments along its prefix, and an increment depends only on the
    last ``order - 1`` tokens, so increments are memoized per call and the
    score travels with the beam."""
    rows = _grid_array(grid).tolist()
    blank = grid.blank_index
    vocab = grid.vocab
    lm = config.lm
    lm_weight, word_score = config.lm_weight, config.word_score
    if lm is not None:
        missing = [t for t in vocab if t not in lm.vocab]
        if missing:
            raise VocabularyError(f"grid tokens absent from LM: {missing}")
        n_ctx = lm.order - 1
    no_lm = [0.0] * blank
    increments: dict[tuple[int, ...], list[float]] = {}

    # (score, prefix, log p(blank-terminated), log p(non-blank-terminated),
    #  lm score, log p(prefix)), best first
    beams = [(0.0, (), 0.0, NEG_INF, 0.0, 0.0)]
    for row in rows:
        p_blank = row[blank]
        # prefix -> [log p(blank-terminated), log p(non-blank), lm score]
        nxt: dict[tuple[int, ...], list[float]] = {}
        for _, prefix, pb, pnb, lm_sc, total in beams:
            if lm is None:
                inc = no_lm
            else:
                ctx = prefix[-n_ctx:] if n_ctx else ()
                inc = increments.get(ctx)
                if inc is None:
                    hist = [vocab[i] for i in ctx]
                    inc = increments[ctx] = [lm.score(hist, vocab[k])
                                             for k in range(blank)]
            # blank keeps the prefix; repeating the last symbol keeps it too
            # (merge of repeats). A new cell's mass is stored as it is, since
            # _logaddexp(-inf, v) is v + 0.0, which is v: no mass is -0.0.
            last = prefix[-1] if prefix else -1
            stay_pnb = pnb + row[last] if prefix else NEG_INF
            cell = nxt.get(prefix)
            if cell is None:
                nxt[prefix] = [total + p_blank, stay_pnb, lm_sc]
            else:  # an earlier beam's extension: no blank mass yet
                cell[0] = total + p_blank
                cell[1] = _logaddexp(cell[1], stay_pnb)
            for k in range(blank):
                ext = prefix + (k,)
                mass = pb + row[k] if k == last else total + row[k]
                cell = nxt.get(ext)
                if cell is None:
                    nxt[ext] = [NEG_INF, mass, lm_sc + inc[k]]
                else:
                    cell[1] = _logaddexp(cell[1], mass)
        scored = []
        for prefix, (pb, pnb, lm_sc) in nxt.items():
            total = pnb if pb == NEG_INF else _logaddexp(pb, pnb)  # as above
            scored.append((total + lm_weight * lm_sc
                           + word_score * len(prefix),
                           prefix, pb, pnb, lm_sc, total))
        # stable like sorted(reverse=True): ties keep insertion order
        beams = heapq.nlargest(config.beam_size, scored, key=itemgetter(0))

    return [Hypothesis(tokens=tuple(vocab[i] for i in prefix), score=score,
                       ctc_score=total, lm_score=lm_sc)
            for score, prefix, _, _, lm_sc, total in beams]
