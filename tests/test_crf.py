import itertools
import math

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.crf import crf_log_z, crf_nll, crf_viterbi
from seqtag.exceptions import ShapeError
from seqtag.network import softmax_nll

from gradcheck import check_gradients
from reference_rnn import crf_log_z_reference, crf_nll_reference


def brute_force_paths(T, L):
    return itertools.product(range(L), repeat=T)


def path_score(logits, transitions, begin, end, path):
    score = begin[path[0]] + end[path[-1]]
    for t, y in enumerate(path):
        score += logits[t, y]
    for a, b in zip(path, path[1:]):
        score += transitions[a, b]
    return score


def brute_force_log_z(logits, transitions, begin, end):
    T, L = logits.shape
    scores = [path_score(logits, transitions, begin, end, p) for p in brute_force_paths(T, L)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_force_argmax(logits, transitions, begin, end):
    T, L = logits.shape
    scored = [
        (path_score(logits, transitions, begin, end, p), p) for p in brute_force_paths(T, L)
    ]
    best = max(s for s, _ in scored)
    optimal = [p for s, p in scored if s == best]
    # exact ties resolve like the decoder: smallest label index at each
    # backtrack step, i.e. the minimal reversed tuple
    return list(min(optimal, key=lambda p: tuple(reversed(p))))


def random_instance(rng, T, L, scale=1.0):
    logits = rng.normal(size=(T, L)) * scale
    transitions = rng.normal(size=(L, L)) * scale
    begin = rng.normal(size=L) * scale
    end = rng.normal(size=L) * scale
    return logits, transitions, begin, end


def test_single_token_equals_softmax_nll():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 3))
    zero = np.zeros(3)
    crf_loss = crf_nll(Tensor(logits), Tensor(np.zeros((3, 3))), Tensor(zero), Tensor(zero), [2])
    sm_loss = softmax_nll(Tensor(logits), [2])
    assert float(crf_loss.data) == pytest.approx(float(sm_loss.data), abs=1e-12)


def test_two_step_matches_enumeration():
    rng = np.random.default_rng(1)
    logits, transitions, begin, end = random_instance(rng, 2, 2)
    gold = [1, 0]
    loss = crf_nll(Tensor(logits), Tensor(transitions), Tensor(begin), Tensor(end), gold)
    log_z = brute_force_log_z(logits, transitions, begin, end)
    expect = log_z - path_score(logits, transitions, begin, end, gold)
    assert float(loss.data) == pytest.approx(expect, abs=1e-10)


def test_all_zero_scores_loss_is_t_log_l():
    zeros2 = np.zeros((2, 2))
    loss = crf_nll(Tensor(zeros2), Tensor(zeros2), Tensor(np.zeros(2)), Tensor(np.zeros(2)), [0, 1])
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_log_z_matches_enumeration_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(1, 5))
        logits, transitions, begin, end = random_instance(rng, T, L)
        got = float(crf_log_z(Tensor(logits), Tensor(transitions), Tensor(begin), Tensor(end)).data)
        want = brute_force_log_z(logits, transitions, begin, end)
        assert got == pytest.approx(want, abs=1e-10)


def test_path_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(30):
        T = int(rng.integers(1, 5))
        L = int(rng.integers(1, 5))
        logits, transitions, begin, end = random_instance(rng, T, L)
        log_z = brute_force_log_z(logits, transitions, begin, end)
        total = sum(
            math.exp(path_score(logits, transitions, begin, end, p) - log_z)
            for p in brute_force_paths(T, L)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(200):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(1, 5))
        logits, transitions, begin, end = random_instance(rng, T, L)
        got = crf_viterbi(logits, transitions, begin, end)
        want = brute_force_argmax(logits, transitions, begin, end)
        assert got == want


def test_viterbi_all_zero_ties_pick_first_label():
    zeros = np.zeros((4, 3))
    path = crf_viterbi(zeros, np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    assert path == [0, 0, 0, 0]


def test_viterbi_dominant_diagonal_keeps_label():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(5, 3)) * 0.01
    transitions = np.full((3, 3), -50.0)
    np.fill_diagonal(transitions, 50.0)
    path = crf_viterbi(logits, transitions, np.zeros(3), np.zeros(3))
    assert len(set(path)) == 1
    assert path == brute_force_argmax(logits, transitions, np.zeros(3), np.zeros(3))


def test_viterbi_beats_random_paths():
    rng = np.random.default_rng(6)
    logits, transitions, begin, end = random_instance(rng, 8, 4)
    best = crf_viterbi(logits, transitions, begin, end)
    best_score = path_score(logits, transitions, begin, end, best)
    for _ in range(1000):
        random_path = rng.integers(0, 4, size=8).tolist()
        assert path_score(logits, transitions, begin, end, random_path) <= best_score + 1e-12


def test_crf_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    logits = ad.parameter(rng.normal(size=(4, 3)))
    transitions = ad.parameter(rng.normal(size=(3, 3)))
    begin = ad.parameter(rng.normal(size=3))
    end = ad.parameter(rng.normal(size=3))
    gold = [0, 2, 1, 1]

    def build():
        return crf_nll(logits, transitions, begin, end, gold)

    assert check_gradients(build, [logits, transitions, begin, end]) <= 1e-6


def test_crf_score_gold_only():
    rng = np.random.default_rng(8)
    logits, transitions, begin, end = random_instance(rng, 3, 2)
    gold = [1, 1, 0]
    inputs = [Tensor(a) for a in (logits, transitions, begin, end)]
    got = crf_log_z(*inputs) - crf_nll(*inputs, gold)
    want = path_score(logits, transitions, begin, end, gold)
    assert float(got.data) == pytest.approx(want, abs=1e-12)


def test_single_token_log_z_matches_enumeration_and_gradients():
    rng = np.random.default_rng(9)
    logits, transitions, begin, end = random_instance(rng, 1, 4)
    got = crf_log_z(Tensor(logits), Tensor(transitions), Tensor(begin), Tensor(end))
    assert float(got.data) == pytest.approx(
        brute_force_log_z(logits, transitions, begin, end), abs=1e-12
    )
    params = [ad.parameter(a) for a in (logits, transitions, begin, end)]
    assert check_gradients(lambda: crf_log_z(*params), params) <= 1e-6
    params[1].grad = None
    crf_log_z(*params).backward()
    assert params[1].grad is None  # one token has no transition


def test_fused_log_z_op_gradients():
    rng = np.random.default_rng(10)
    for T in (2, 5):
        params = [ad.parameter(a) for a in random_instance(rng, T, 3)]
        assert check_gradients(lambda: crf_log_z(*params), params) <= 1e-6


def test_fused_log_z_matches_per_step_reference():
    rng = np.random.default_rng(11)
    for T in (1, 2, 4, 7):
        params = [ad.parameter(a) for a in random_instance(rng, T, 4, scale=3.0)]
        results = []
        for fn in (crf_log_z, crf_log_z_reference):
            for p in params:
                p.grad = None
            log_z = fn(*params)
            log_z.backward()
            grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
            results.append((float(log_z.data), grads))
        (z_fused, g_fused), (z_ref, g_ref) = results
        assert abs(z_fused - z_ref) <= 1e-12 * abs(z_ref)
        for a, b in zip(g_fused, g_ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)


def batch_loss_and_grads(loss_fn, sentences, shared, W):
    """Mean of per-sentence losses over logits ``x @ W`` with the
    ``shared`` arrays as parameters, as a training batch builds it;
    returns the loss bytes and every parameter's gradient bytes (None
    for a parameter the graph did not reach)."""
    params = [ad.parameter(a) for a in (W, *shared)]
    losses = [loss_fn(Tensor(x) @ params[0], *params[1:], gold) for x, gold in sentences]
    loss = sum(losses[1:], start=losses[0]) / float(len(losses))
    loss.backward()
    return loss.data.tobytes(), [None if p.grad is None else p.grad.tobytes() for p in params]


def random_gold(rng, T, L):
    gold = rng.integers(0, L, size=T)
    if T > 2 and rng.random() < 0.3:
        gold[:] = gold[0]  # one transition pair, repeated
    return gold


def test_fused_crf_nll_bitwise_equals_composed_reference():
    rng = np.random.default_rng(12)
    shapes = [(1, 1), (1, 3), (4, 1), (5, 2)]
    shapes += [(int(rng.integers(1, 7)), int(rng.integers(1, 5))) for _ in range(200)]
    for T, L in shapes:
        logits, transitions, begin, end = random_instance(rng, T, L, scale=2.0)
        params = [ad.parameter(a) for a in (logits, transitions, begin, end)]
        gold = random_gold(rng, T, L)
        results = []
        for fn in (crf_nll, crf_nll_reference):
            for p in params:
                p.grad = None
            loss = fn(*params, gold)
            loss.backward()
            grads = [None if p.grad is None else p.grad.tobytes() for p in params]
            results.append((loss.data.tobytes(), grads))
        assert results[0] == results[1], (T, L, gold)


def test_fused_crf_nll_batch_accumulates_like_composed_reference():
    # transitions, begin and end already hold earlier sentences'
    # gradients when a later sentence's backward runs
    rng = np.random.default_rng(13)
    for _ in range(100):
        L, k = int(rng.integers(1, 5)), 3
        shared = random_instance(rng, 1, L, scale=2.0)[1:]
        W = rng.normal(size=(k, L))
        sentences = []
        for _ in range(int(rng.integers(1, 5))):
            T = int(rng.integers(1, 7))
            sentences.append((rng.normal(size=(T, k)), random_gold(rng, T, L)))
        fused = batch_loss_and_grads(crf_nll, sentences, shared, W)
        assert fused == batch_loss_and_grads(crf_nll_reference, sentences, shared, W)


def test_one_token_crf_nll_gives_transitions_no_gradient():
    rng = np.random.default_rng(14)
    params = [ad.parameter(a) for a in random_instance(rng, 1, 3)]
    crf_nll(*params, [2]).backward()
    assert params[1].grad is None
    assert all(p.grad is not None for p in (params[0], params[2], params[3]))


def test_crf_nll_is_one_node_over_its_inputs():
    rng = np.random.default_rng(15)
    params = [ad.parameter(a) for a in random_instance(rng, 3, 2)]
    loss = crf_nll(*params, [0, 1, 1])
    assert loss._parents == tuple(params)
    assert loss.op == "crf_nll"
    frozen = Tensor(params[1].data)
    loss = crf_nll(params[0], frozen, params[2], params[3], [0, 1, 1])
    assert loss._parents == (params[0], params[2], params[3])


def test_crf_nll_rejects_a_gold_path_of_the_wrong_length():
    rng = np.random.default_rng(16)
    inputs = [Tensor(a) for a in random_instance(rng, 3, 2)]
    with pytest.raises(ShapeError):
        crf_nll(*inputs, [0, 1])


def random_batch(rng, L, max_len=4):
    """Several sequences' logits rows one after another, their lengths
    and gold paths."""
    lengths = [int(n) for n in rng.integers(1, max_len + 1, size=int(rng.integers(1, 5)))]
    logits = rng.normal(size=(sum(lengths), L)) * 2.0
    return logits, lengths, np.concatenate([random_gold(rng, n, L) for n in lengths])


def test_batched_crf_matches_brute_force_enumeration():
    """With ``lengths``, log Z and the NLL are the means over the
    sequences of the enumerated values, each sequence with its own
    begin and end."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        L = int(rng.integers(1, 4))
        _, transitions, begin, end = random_instance(rng, 1, L, scale=2.0)
        logits, lengths, gold = random_batch(rng, L)
        inputs = [Tensor(a) for a in (logits, transitions, begin, end)]
        starts = np.cumsum(lengths) - lengths
        seqs = [(logits[a : a + n], gold[a : a + n]) for a, n in zip(starts, lengths)]
        log_zs = [brute_force_log_z(x, transitions, begin, end) for x, _ in seqs]
        nlls = [
            z - path_score(x, transitions, begin, end, list(g)) for z, (x, g) in zip(log_zs, seqs)
        ]
        got_z = float(crf_log_z(*inputs, lengths=lengths).data)
        got_nll = float(crf_nll(*inputs, gold, lengths).data)
        assert got_z == pytest.approx(sum(log_zs) / len(lengths), rel=1e-12, abs=1e-12)
        assert got_nll == pytest.approx(sum(nlls) / len(lengths), rel=1e-12, abs=1e-12)


def test_batched_crf_gradients_equal_the_mean_of_its_sequences():
    rng = np.random.default_rng(18)
    for _ in range(60):
        L = int(rng.integers(2, 5))  # one label has all-zero gradients, up to rounding
        shared = random_instance(rng, 1, L, scale=2.0)[1:]
        logits, lengths, gold = random_batch(rng, L, max_len=6)
        params = [ad.parameter(a) for a in (logits, *shared)]
        crf_nll(*params, gold, lengths).backward()
        batched = [p.grad for p in params]
        # the mean of per-sequence nodes over the same rows
        mean = [np.zeros_like(p.data) for p in params]
        for a, n in zip(np.cumsum(lengths) - lengths, lengths):
            single = [ad.parameter(logits[a : a + n]), *(ad.parameter(x) for x in shared)]
            crf_nll(*single, gold[a : a + n]).backward()
            mean[0][a : a + n] += single[0].grad / len(lengths)
            for i, p in enumerate(single[1:], start=1):
                if p.grad is not None:
                    mean[i] += p.grad / len(lengths)
        if all(n == 1 for n in lengths):
            assert batched[1] is None
            batched[1] = mean[1]
        for a, b in zip(batched, mean):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)


def test_batched_crf_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    logits, lengths, gold = random_batch(rng, 3, max_len=5)
    params = [ad.parameter(a) for a in (logits, *random_instance(rng, 1, 3)[1:])]
    assert check_gradients(lambda: crf_nll(*params, gold, lengths), params) <= 1e-6
    assert check_gradients(lambda: crf_log_z(*params, lengths=lengths), params) <= 1e-6


def test_batch_of_one_crf_is_the_single_sequence_node_bit_for_bit():
    rng = np.random.default_rng(20)
    for T in (1, 2, 5):
        instance = random_instance(rng, T, 4, scale=2.0)
        gold = random_gold(rng, T, 4)
        results = []
        for lengths in (None, [T]):
            params = [ad.parameter(a) for a in instance]
            loss = crf_nll(*params, gold, lengths)
            loss.backward()
            grads = [None if p.grad is None else p.grad.tobytes() for p in params]
            results.append((loss.data.tobytes(), grads))
        assert results[0] == results[1]


def test_crf_nll_rejects_lengths_that_do_not_cover_the_rows():
    rng = np.random.default_rng(21)
    inputs = [Tensor(a) for a in random_instance(rng, 4, 2)]
    for lengths in ([2, 1], [2, 3], [4, 0]):
        with pytest.raises(ShapeError):
            crf_nll(*inputs, [0, 1, 1, 0], lengths)
