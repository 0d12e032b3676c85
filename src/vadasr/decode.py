"""CTC decoding: greedy best-path and prefix beam search with optional
stupid-backoff n-gram shallow fusion plus a per-token insertion score.

Beam search merges hypotheses by collapsed prefix, tracking blank and
non-blank probability mass separately in log space, and drops only
candidates that cannot make the beam.
"""

from __future__ import annotations

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
    normalized distribution; every (history, token) gets a finite value.
    Its counts must not change: ``beam_search`` memoizes scores on it."""

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
        # vocabulary -> beam_search's increments table, shared by every
        # search with this LM, such as one stream's events
        self._increments: dict[tuple, dict] = {}

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
            order = obj["order"]
            counts = {tuple(k.split(" ")): v
                      for k, v in obj["counts"].items()}
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise DataError(f"malformed LM file: "
                            f"{type(exc).__name__}: {exc}") from exc
        # a bool is an int to Python, but never an order or a count
        if type(order) is not int or order < 1:
            raise DataError(f"malformed LM file: order must be an int >= 1, "
                            f"got {order!r}")
        # scoring pads each history to order - 1 tokens
        longest = max(map(len, counts), default=0)
        if order > longest:
            raise DataError(f"malformed LM file: order {order} is above its "
                            f"longest gram's length, {longest}")
        for gram, c in counts.items():
            if type(c) is not int or c < 1:
                raise DataError(f"malformed LM file: the count of "
                                f"{' '.join(gram)!r} must be a positive "
                                f"int, got {c!r}")
        return cls(order=order, counts=counts)

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
    """The grid's log-probabilities; a NaN ranks arbitrarily and +inf makes
    NaN masses, so both raise DataError, while -inf is probability 0."""
    arr = grid.array
    if not (arr < math.inf).all():
        raise DataError("posterior grid holds NaN or +inf")
    return arr


def greedy_decode(grid) -> tuple[str, ...]:
    """Per-frame argmax, collapse adjacent repeats, strip blanks."""
    path = _grid_array(grid).argmax(axis=-1).tolist()
    blank = grid.blank_index
    out = []
    prev = -1
    for k in path:
        if k != prev and k != blank:
            out.append(grid.vocab[k])
        prev = k
    return tuple(out)


def beam_search(grid, config: BeamConfig = BeamConfig()) -> list[Hypothesis]:
    """Prefix beam search with blank/non-blank mass merging; returns
    hypotheses ranked by combined score.

    Each frame works on Python floats only, and prunes exactly: it returns
    what ranking every candidate cell would. A beam's "stay" cell (blank, or
    a repeat of its last token) can merge only with its parent beam's
    extension, so the stays are built first. Both of a stay's merges are
    written inline, branch for branch as numpy's ``npy_logaddexp``, so they
    have ``np.logaddexp``'s bits. With ``beam_size`` stays, the lowest stay
    score is a floor: a candidate strictly below it cannot make the cut and
    is dropped. Each beam's bound, built with its stay, is at least the
    score of any of its extensions; a beam whose bound is below the floor
    runs no token loop, and only its in-beam children's stays are inserted
    in its place. When even the highest bound is below the floor, the
    candidates are the stays alone and the trie is not touched. The kept
    candidates stay in the order a full pass would insert them, and the cut
    is a stable sort by score truncated to ``beam_size``, so ties rank as
    before.

    Prefixes are nodes of a trie, so a dropped extension builds nothing. A
    node's score terms are computed once, when it is made. Its LM
    increments depend only on its last ``order - 1`` tokens; they are
    memoized by that context on the LM, per vocabulary, so a later search
    with the same LM and vocabulary reuses them."""
    rows = _grid_array(grid).tolist()
    blank = grid.blank_index
    vocab = grid.vocab
    lm = config.lm
    beam_size = config.beam_size
    lm_weight, word_score = config.lm_weight, config.word_score
    n_ctx = 0
    if lm is not None:
        missing = [t for t in vocab if t not in lm.vocab]
        if missing:
            raise VocabularyError(f"grid tokens absent from LM: {missing}")
        n_ctx = lm.order - 1
        increments = lm._increments.setdefault(tuple(vocab), {})  # by context

    # prefix trie; node 0 is the empty prefix
    parent, last, length, lm_score = [-1], [-1], [0], [0.0]
    children: dict[int, int] = {}  # node * blank + token -> child node

    no_lm = [0.0] * blank

    def terms_of(node):
        # a node's stay's LM and word terms; its extensions' LM term per token,
        # their highest (rounding is monotone) and word term; its increments
        # and LM context, its parent's with its own token, at most n_ctx long
        inc, ctx = no_lm, ()
        if node and n_ctx:
            ctx = (node_terms[parent[node]][6] + (last[node],))[-n_ctx:]
        if lm is not None:
            inc = increments.get(ctx)
            if inc is None:
                hist = [vocab[i] for i in ctx]
                inc = increments[ctx] = [lm.score(hist, vocab[k])
                                         for k in range(blank)]
        ext = [lm_weight * (lm_score[node] + x) for x in inc]
        return (lm_weight * lm_score[node], word_score * length[node], ext,
                max(ext) if ext else NEG_INF, word_score * (length[node] + 1),
                inc, ctx)

    node_terms = [terms_of(0)]

    # (score, node, log p(blank-terminated), log p(non-blank-terminated),
    #  log p(prefix), -1), best first
    beams = [(0.0, 0, 0.0, NEG_INF, 0.0, -1)]
    exp, log1p = math.exp, math.log1p
    for row in rows:
        p_blank = row[blank]
        row_hi = max(row[:blank]) if blank else NEG_INF
        n_beams = len(beams)
        at = {beam[1]: i for i, beam in enumerate(beams)}
        # candidate: (score, node, pb, pnb, total, token), where a token >= 0
        # marks a new extension of ``node``
        stays = []
        # each beam's extension bound: every rounding step is monotone and
        # pb <= total, so no extension of the beam scores above it
        bounds = []
        kids: list[Optional[dict[int, int]]] = [None] * n_beams
        # False: the parent's extension is inserted first, and so is the stay
        own = [True] * n_beams
        low = math.inf
        for i, (_, node, pb, pnb, total, _) in enumerate(beams):
            # blank keeps the prefix; repeating the last symbol keeps it too
            # (merge of repeats). Each merge is npy_logaddexp's branches with
            # the same libm calls; no mass is NaN, and -inf adds 0.0
            stay_pb = total + p_blank
            stay_pnb = NEG_INF
            if node:
                k = last[node]
                stay_pnb = pnb + row[k]
                j = at.get(parent[node])
                if j is not None:  # the only merge: parent's extension by k
                    _, up, up_pb, _, up_total, _ = beams[j]
                    mass = (up_pb + row[k] if k == last[up]
                            else up_total + row[k])
                    if stay_pnb == mass:
                        stay_pnb += LOG2
                    else:
                        d = stay_pnb - mass
                        stay_pnb = (stay_pnb + log1p(exp(-d)) if d > 0
                                    else mass + log1p(exp(d)))
                    if kids[j] is None:
                        kids[j] = {k: i}
                    else:
                        kids[j][k] = i
                    own[i] = j > i
            if stay_pb == stay_pnb:
                cell = stay_pb + LOG2
            else:
                d = stay_pb - stay_pnb
                cell = (stay_pb + log1p(exp(-d)) if d > 0
                        else stay_pnb + log1p(exp(d)))
            lm_term, word_term, _, ext_hi, words, _, _ = node_terms[node]
            score = cell + lm_term + word_term
            stays.append((score, node, stay_pb, stay_pnb, cell, -1))
            bounds.append(total + row_hi + ext_hi + words)
            if score < low:
                low = score
        floor = low if n_beams >= beam_size else NEG_INF

        # candidates in the order a full pass inserts them: each beam's stay
        # (unless its parent's extension came first), then its extensions
        # and, in their token's place, its in-beam children's stays
        cands = []
        for i in range(n_beams):
            if own[i]:
                cands.append(stays[i])
            kid = kids[i]
            if bounds[i] < floor:
                if kid is not None:
                    for _, c in sorted(kid.items()):
                        if c > i:
                            cands.append(stays[c])
                continue
            _, node, pb, _, total, _ = beams[i]
            _, _, ext, _, words, _, _ = node_terms[node]
            tail = last[node]
            for k in range(blank):
                if kid is not None and k in kid:
                    if kid[k] > i:
                        cands.append(stays[kid[k]])
                    continue
                mass = pb + row[k] if k == tail else total + row[k]
                score = mass + ext[k] + words
                if score >= floor:
                    cands.append((score, node, NEG_INF, mass, mass, k))
        # a stable sort: ties keep insertion order. The kept candidates are
        # the next beams, an extension with its child node in place
        cands.sort(key=itemgetter(0), reverse=True)
        if len(cands) > n_beams:  # an extension passed the floor
            del cands[beam_size:]
            for j, (score, node, pb, pnb, total, k) in enumerate(cands):
                if k >= 0:
                    key = node * blank + k
                    child = children.get(key)
                    if child is None:
                        child = children[key] = len(parent)
                        parent.append(node)
                        last.append(k)
                        length.append(length[node] + 1)
                        lm_score.append(lm_score[node]
                                        + node_terms[node][5][k])
                        node_terms.append(terms_of(child))
                    cands[j] = (score, child, pb, pnb, total, -1)
        beams = cands

    hyps = []
    for score, node, _, _, total, _ in beams:
        tokens = []
        n = node
        while n:
            tokens.append(vocab[last[n]])
            n = parent[n]
        hyps.append(Hypothesis(tokens=tuple(reversed(tokens)), score=score,
                               ctc_score=total, lm_score=lm_score[node]))
    return hyps
