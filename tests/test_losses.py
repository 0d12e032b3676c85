"""CTC against a brute-force enumeration oracle and the two-loop kernel it
replaced, BCE, and the joint loss."""

import math

import numpy as np
import pytest

import vadasr.autodiff as ad
from vadasr.errors import (
    DataError,
    DimensionError,
    VocabularyError,
)
from vadasr.losses import (
    bce_loss,
    ctc_batch,
    ctc_loss,
    extend_with_blanks,
    min_frames_required,
    mtl_loss,
)
from vadasr.model import PosteriorGrid

from conftest import random_grid
from oracles import ctc_loss_bruteforce, finite_diff_check

NEG_INF = -np.inf


def reference_ctc_forward_backward(log_probs, targets, blank):
    """Oracle: the CTC kernel as first written, alpha over all frames and
    then beta, each step concatenating its shifted states. ``ctc_batch``
    must return exactly this for a batch of one."""
    T, K = log_probs.shape
    ext = extend_with_blanks(np.asarray(targets, dtype=np.int64), blank)
    S = len(ext)

    can_skip = np.zeros(S, dtype=bool)
    if S > 2:
        can_skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])

    emit = log_probs[:, ext]  # (T, S)

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate(([NEG_INF], prev[:-1]))
        a = np.logaddexp(stay, step)
        if S > 2:
            skip = np.concatenate(([NEG_INF, NEG_INF], prev[:-2]))
            skip = np.where(can_skip, skip, NEG_INF)
            a = np.logaddexp(a, skip)
        alpha[t] = a + emit[t]

    tail = alpha[T - 1, S - 1]
    if S > 1:
        tail = np.logaddexp(tail, alpha[T - 1, S - 2])
    log_z = tail
    if not np.isfinite(log_z):
        return float("inf"), np.zeros_like(log_probs)

    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + emit[t + 1]
        stay = nxt
        step = np.concatenate((nxt[1:], [NEG_INF]))
        b = np.logaddexp(stay, step)
        if S > 2:
            skip = np.concatenate((nxt[2:], [NEG_INF, NEG_INF]))
            skip = np.where(np.concatenate((can_skip[2:], [False, False])),
                            skip, NEG_INF)
            b = np.logaddexp(b, skip)
        beta[t] = b

    gamma = alpha + beta - log_z
    occ = np.exp(gamma)
    grad = np.zeros_like(log_probs)
    np.add.at(grad, (np.arange(T)[:, None], ext[None, :]), occ)
    return float(-log_z), -grad


def loss_value(node) -> float:
    return float(ad.value(node))


def gradient(loss_fn, x: ad.Tensor) -> np.ndarray:
    """d loss / d ``x`` of the loss node ``loss_fn()``, through the tape."""
    with ad.Tape() as tape:
        node = loss_fn()
    return ad.backward(tape, node)[x]


def uniform_grid(T, vocab_size):
    K = vocab_size + 1
    logp = np.full((T, K), -np.log(K))
    vocab = [chr(ord("a") + i) for i in range(vocab_size)]
    return PosteriorGrid(log_probs=ad.Tensor(logp), vocab=vocab)


class TestCtcHandValues:
    def test_two_frame_uniform_single_token(self):
        # paths a-, -a, aa out of 4 equally likely -> p = 3/4
        grid = uniform_grid(2, 1)
        loss = loss_value(ctc_loss([grid], [("a",)])[0])
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_single_frame_single_token(self):
        grid = uniform_grid(1, 1)
        loss = loss_value(ctc_loss([grid], [("a",)])[0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_repeat_needs_blank(self):
        # target "aa" over 3 uniform frames: only path a-a, p = 1/8
        grid = uniform_grid(3, 1)
        loss = loss_value(ctc_loss([grid], [("a", "a")])[0])
        assert loss == pytest.approx(3 * math.log(2.0), abs=1e-12)

    def test_empty_target(self):
        # all-blank path only
        grid = uniform_grid(3, 1)
        loss = loss_value(ctc_loss([grid], [()])[0])
        assert loss == pytest.approx(3 * math.log(2.0), abs=1e-12)

    def test_deterministic_grid_certain_path(self):
        logp = np.log(np.array([[0.7, 0.2, 0.1],
                                [0.1, 0.2, 0.7]]))
        grid = PosteriorGrid(log_probs=ad.Tensor(logp), vocab=["a", "b"])
        # target "a": alignments a-, aa, -a
        expect = -math.log(0.7 * 0.7 + 0.7 * 0.1 + 0.1 * 0.1)
        assert loss_value(ctc_loss([grid], [("a",)])[0]) == pytest.approx(
            expect, abs=1e-12)


class TestCtcOracle:
    @pytest.mark.parametrize("T,V", [(1, 1), (2, 1), (3, 1), (4, 1),
                                     (2, 2), (3, 2), (4, 2), (5, 2),
                                     (3, 3), (4, 3)])
    def test_matches_bruteforce(self, rng, T, V):
        for _ in range(20):
            grid = random_grid(rng, T, V)
            L = rng.integers(0, min(T, 3) + 1)
            target = tuple(rng.choice(grid.vocab) for _ in range(L))
            idx = np.array([grid.vocab.index(t) for t in target], dtype=int)
            if T < min_frames_required(idx):
                assert ctc_loss([grid], [target])[0] is None
                continue
            loss = loss_value(ctc_loss([grid], [target])[0])
            oracle = ctc_loss_bruteforce(grid, target)
            assert loss == pytest.approx(oracle, abs=1e-9)

    def test_gradient_rows_are_posteriors(self, rng):
        for _ in range(20):
            grid = random_grid(rng, 6, 3)
            grad = gradient(lambda: ctc_loss([grid], [("a", "b")])[0],
                            grid.log_probs)
            rowsums = (-grad).sum(axis=1)
            assert np.allclose(rowsums, 1.0, atol=1e-12)
            assert np.all(-grad >= -1e-15)

    def test_gradient_by_finite_difference(self, rng):
        grid = random_grid(rng, 5, 2)
        target = ("a", "b")

        def f(params):
            g = PosteriorGrid(log_probs=params[0], vocab=grid.vocab)
            return ctc_loss([g], [target])[0]

        err = finite_diff_check(f, [grid.log_probs])
        assert err < 1e-6


def draw_ctc_instance(rng, T, n_tokens, vocab_size):
    """A log-posterior grid and a target, with repeated labels and, at
    random, -inf and NaN entries."""
    logits = rng.normal(size=(T, vocab_size + 1)) * rng.uniform(0.5, 4.0)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    for hole in (NEG_INF, np.nan):
        if rng.random() < 0.25:
            logp[rng.random(logp.shape) < rng.uniform(0.01, 0.2)] = hole
    targets = rng.integers(0, vocab_size, size=n_tokens)
    repeat = rng.random(n_tokens) < 0.3
    for i in range(1, n_tokens):
        if repeat[i]:
            targets[i] = targets[i - 1]
    return logp, targets


class TestCtcMatchesReference:
    """``ctc_batch`` of one pair returns the two-loop kernel's loss and
    gradient bit for bit, NaN entries included, not just close ones."""

    @staticmethod
    def check(logp, targets, blank):
        with np.errstate(invalid="ignore"):  # NaN entries
            loss, grad = ctc_batch([logp], [targets])[0]
            ref_loss, ref_grad = reference_ctc_forward_backward(
                logp, targets, blank)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad, equal_nan=True)
        if math.isinf(loss):
            assert np.all(grad == 0.0)
        return loss, grad

    def test_random_instances(self, rng):
        seen = {"T=1": 0, "empty": 0, "single": 0, "repeat": 0,
                "infeasible": 0, "nan_grad": 0}
        for _ in range(3000):
            vocab_size = int(rng.integers(1, 6))
            T = 1 if rng.random() < 0.15 else int(rng.integers(2, 9))
            n_tokens = int(rng.integers(0, 5))
            logp, targets = draw_ctc_instance(rng, T, n_tokens, vocab_size)
            loss, grad = self.check(logp, targets, vocab_size)
            seen["T=1"] += T == 1
            seen["empty"] += n_tokens == 0
            seen["single"] += n_tokens == 1
            seen["repeat"] += bool(np.any(targets[1:] == targets[:-1]))
            seen["infeasible"] += math.isinf(loss)
            seen["nan_grad"] += bool(np.isnan(grad).any())
        assert min(seen.values()) > 0, seen

    def test_training_shapes(self, rng):
        # utterance lengths and transcripts of the desk corpora
        for _ in range(300):
            vocab_size = int(rng.integers(3, 9))
            T = int(rng.integers(39, 119))
            logp, targets = draw_ctc_instance(rng, T, int(rng.integers(2, 5)),
                                              vocab_size)
            self.check(logp, targets, vocab_size)

    def test_infeasible_targets(self, rng):
        # too few frames for the repeats, or every frame of a label -inf
        logp = random_grid(rng, 3, 2).array
        assert math.isinf(self.check(logp, np.array([0, 0, 1]), 2)[0])
        logp = random_grid(rng, 6, 2).array
        logp[:, 1] = NEG_INF
        assert math.isinf(self.check(logp, np.array([0, 1]), 2)[0])


    def test_step_batch_matches_single_pairs(self, rng):
        # one recursion for a training step's pairs, padded to the longest:
        # each pair gets its own single-pair call's loss and gradient bits
        seen = {"T=1": 0, "empty": 0, "repeat": 0, "infeasible": 0,
                "nan_row": 0, "neg_inf": 0, "mixed_T": 0}
        for _ in range(400):
            vocab_size = int(rng.integers(1, 6))
            pairs = []
            for _ in range(int(rng.integers(1, 7))):
                T = 1 if rng.random() < 0.2 else int(rng.integers(2, 12))
                logp, targets = draw_ctc_instance(
                    rng, T, int(rng.integers(0, 5)), vocab_size)
                if rng.random() < 0.1:
                    logp[rng.integers(0, T)] = np.nan
                pairs.append((logp, targets))
            with np.errstate(invalid="ignore"):
                batch = ctc_batch(*zip(*pairs))
            assert len(batch) == len(pairs)
            for (logp, targets), (loss, grad) in zip(pairs, batch):
                single = self.check(logp, targets, vocab_size)
                assert loss == single[0]
                assert np.array_equal(grad, single[1], equal_nan=True)
                seen["T=1"] += len(logp) == 1
                seen["empty"] += len(targets) == 0
                seen["repeat"] += bool(np.any(targets[1:] == targets[:-1]))
                seen["infeasible"] += math.isinf(loss)
                seen["nan_row"] += bool(np.isnan(logp).all(axis=1).any())
                seen["neg_inf"] += bool(np.isneginf(logp).any())
            seen["mixed_T"] += len({len(p[0]) for p in pairs}) > 1
        assert min(seen.values()) > 0, seen

    def test_step_nodes_on_their_tapes(self, rng):
        # a step's mixed list: grids too short for their targets (a repeat
        # without a frame for its blank, more tokens than frames) get None
        # and record nothing; an empty target, a one-frame grid and repeats
        # that fit each get the loss and gradient bits of a call of their
        # own, on the tape that recorded the grid or, without tapes, on the
        # active one
        grids = [random_grid(rng, T, 3) for T in (5, 2, 6, 3, 1, 8)]
        targets = [("a", "b"), ("a", "a"), (), ("a", "b", "c", "a"), ("c",),
                   ("c", "c", "b")]
        tapes = [ad.Tape() for _ in grids]
        nodes = ctc_loss(grids, targets, tapes)
        with ad.Tape() as active:
            untaped = ctc_loss(grids, targets)
        too_short = [False, True, False, True, False, False]
        assert [n is None for n in nodes] == too_short
        assert [n is None for n in untaped] == too_short
        assert len(active) == 4
        for grid, target, tape, node, other in zip(grids, targets, tapes,
                                                   nodes, untaped):
            if node is None:
                assert len(tape) == 0
                continue
            assert len(tape) == 1
            one = gradient(lambda: ctc_loss([grid], [target])[0],
                           grid.log_probs)
            assert loss_value(node) == loss_value(other) == loss_value(
                ctc_loss([grid], [target])[0])
            assert np.array_equal(ad.backward(tape, node)[grid.log_probs],
                                  one)
            assert np.array_equal(ad.backward(active, other)[grid.log_probs],
                                  one)


class TestCtcValidation:
    def test_unknown_token(self, rng):
        grid = random_grid(rng, 4, 2)
        with pytest.raises(VocabularyError):
            ctc_loss([grid], [("z",)])

    def test_infeasible(self, rng):
        grid = random_grid(rng, 2, 2)
        assert ctc_loss([grid], [("a", "a")])[0] is None  # needs 3 frames

    def test_bruteforce_size_guard(self, rng):
        grid = random_grid(rng, 30, 3)
        with pytest.raises(DataError):
            ctc_loss_bruteforce(grid, ("a",))

    def test_min_frames_required(self):
        assert min_frames_required(np.array([], dtype=int)) == 0
        assert min_frames_required(np.array([0, 1, 2])) == 3
        assert min_frames_required(np.array([0, 0, 1, 1])) == 6


class TestBce:
    def test_hand_value(self):
        # -ln 0.7 on a single frame
        loss = loss_value(bce_loss(np.array([0.7]), np.array([True])))
        assert loss == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_mean_over_frames(self):
        loss = loss_value(bce_loss(np.array([0.7, 0.3]),
                                   np.array([True, False])))
        assert loss == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_clamp_extreme_probs_finite(self):
        p = ad.Tensor(np.array([0.0, 1.0]))
        y = np.array([True, False])
        assert math.isfinite(loss_value(bce_loss(p, y)))
        # clamped coordinates get zero gradient
        assert np.all(gradient(lambda: bce_loss(p, y), p) == 0.0)

    def test_gradient_hand_value(self):
        # d/dp of -ln p at p=0.5 is -2; mean over 1 frame
        p = ad.Tensor(np.array([0.5]))
        grad = gradient(lambda: bce_loss(p, np.array([True])), p)
        assert grad[0] == pytest.approx(-2.0, abs=1e-12)

    def test_gradient_by_finite_difference(self, rng):
        p = ad.Tensor(rng.uniform(0.05, 0.95, size=8))
        y = rng.random(8) > 0.5

        def f(params):
            return bce_loss(params[0], y)

        assert finite_diff_check(f, [p]) < 1e-7

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(np.array([0.5, 0.5]), np.array([True]))


class TestMtl:
    def test_weighted_sum(self, rng):
        grid = random_grid(rng, 5, 2)
        probs, y = rng.uniform(0.1, 0.9, 5), rng.random(5) > 0.5
        ctc = ctc_loss([grid], [("a",)])[0]
        ce = bce_loss(probs, y)
        # the parts are the plain CTC and BCE values
        assert loss_value(ctc) == ctc_batch([grid.array],
                                            [np.array([0])])[0][0]
        assert loss_value(ce) == pytest.approx(
            -np.mean(np.where(y, np.log(probs), np.log(1.0 - probs))),
            abs=1e-12)
        for w in (0.0, 0.5, 1.0, 2.0):
            total = loss_value(mtl_loss(ctc, ce, vad_weight=w))
            assert total == pytest.approx(
                loss_value(ctc) + w * loss_value(ce), abs=1e-12)

    def test_rejects_non_finite(self, rng):
        ce = bce_loss(rng.uniform(0.1, 0.9, 5), rng.random(5) > 0.5)
        inf = ad.Tensor(float("inf"))
        with pytest.raises(DataError):
            mtl_loss(inf, ce, 1.0)

    def test_node_gradient_composes(self, rng):
        grid = random_grid(rng, 5, 2)
        probs = ad.Tensor(rng.uniform(0.1, 0.9, 5))
        y = rng.random(5) > 0.5
        w = 0.7
        with ad.Tape() as tape:
            m = mtl_loss(ctc_loss([grid], [("a", "b")])[0],
                         bce_loss(probs, y), vad_weight=w)
            grads = ad.backward(tape, m)
        _, ctc_grad = ctc_batch([grid.array], [np.array([0, 1])])[0]
        assert np.allclose(grads[grid.log_probs], ctc_grad)
        assert np.allclose(grads[probs],
                           w * gradient(lambda: bce_loss(probs, y), probs))


def test_extend_with_blanks():
    ext = extend_with_blanks(np.array([0, 1]), blank=2)
    assert list(ext) == [2, 0, 2, 1, 2]


def test_infeasible_returns_inf(rng):
    # the kernel itself, below ctc_loss's frame-count check
    logp = random_grid(rng, 2, 2).array
    loss, grad = ctc_batch([logp], [np.array([0, 0])])[0]
    assert np.isinf(loss)
    assert np.all(grad == 0.0)
