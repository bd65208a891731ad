import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.exceptions import NumericError, ShapeError

from gradcheck import check_gradients, exp, logsumexp, power, softmax, tmean, tsum


def test_matmul_identity():
    x = ad.Tensor([[1.0, 2.0]])
    w = ad.Tensor(np.eye(2))
    y = x @ w
    assert np.allclose(y.data, [[1.0, 2.0]])


def test_sigmoid_tanh_at_zero():
    assert float(ad.sigmoid(ad.Tensor(0.0)).data) == 0.5
    assert float(ad.tanh(ad.Tensor(0.0)).data) == 0.0


def test_square_gradient():
    w = ad.parameter(3.0)
    loss = power(w, 2)
    loss.backward()
    assert float(w.grad) == pytest.approx(6.0)


def test_sigmoid_sum_gradient():
    w = ad.parameter(np.zeros(4))
    loss = tsum(ad.sigmoid(w))
    loss.backward()
    assert np.allclose(w.grad, 0.25)


def test_three_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = ad.parameter(rng.normal(size=(3, 4)))
    w2 = ad.parameter(rng.normal(size=(4, 4)))
    w3 = ad.parameter(rng.normal(size=(4, 2)))
    b = ad.parameter(rng.normal(size=(1, 4)))
    x = ad.Tensor(rng.normal(size=(2, 3)))

    def build():
        h1 = ad.tanh(x @ w1 + b)
        h2 = ad.sigmoid(h1 @ w2)
        out = ad.relu(h2 @ w3)
        return tmean(out * out)

    err = check_gradients(build, [w1, w2, w3, b], eps=1e-5)
    assert err <= 1e-6


def test_linear_model_gradient_near_exact():
    rng = np.random.default_rng(1)
    w = ad.parameter(rng.normal(size=(5, 1)))
    x = ad.Tensor(rng.normal(size=(4, 5)))

    err = check_gradients(lambda: tsum(x @ w), [w], eps=1e-5)
    assert err < 1e-9


def test_corrupted_gradient_detected():
    w = ad.parameter(np.array([1.0, 2.0]))
    loss = tsum(w * w)
    loss.backward()
    analytic = w.grad.copy()
    w.grad = analytic + 1.0  # corruption
    eps = 1e-5
    worst = 0.0
    for i in range(w.data.size):
        saved = w.data[i]
        w.data[i] = saved + eps
        f_plus = float(tsum(w * w).data)
        w.data[i] = saved - eps
        f_minus = float(tsum(w * w).data)
        w.data[i] = saved
        numeric = (f_plus - f_minus) / (2 * eps)
        worst = max(worst, abs(w.grad[i] - numeric) / max(abs(w.grad[i]), abs(numeric), 1e-8))
    assert worst > 1e-3


def test_backward_accumulates_over_paths():
    w = ad.parameter(2.0)
    y = w * w + w  # dy/dw = 2w + 1 = 5
    y.backward()
    assert float(w.grad) == pytest.approx(5.0)


def test_backward_keeps_only_the_leaves_gradients():
    """An intermediate node's adjoint is freed once it has been pushed to
    the node's parents; the leaves keep theirs."""
    w = ad.parameter(np.array([[1.0, -2.0, 0.5]]))
    x = ad.parameter(np.array([[0.3], [-0.7], [1.1]]))
    hidden = ad.tanh(w @ x)
    loss = tsum(hidden * hidden + w)
    loss.backward()
    assert hidden.grad is None and loss.grad is None
    assert w.grad is not None and x.grad is not None


def test_backward_linearity():
    w = ad.parameter(np.array([1.0, -2.0, 0.5]))
    base = tsum(ad.tanh(w))
    base.backward()
    g1 = w.grad.copy()

    w.grad = None
    scaled = tsum(ad.tanh(w)) * 3.0
    scaled.backward()
    assert np.allclose(w.grad, 3.0 * g1)


def test_repeated_backward_is_error():
    w = ad.parameter(1.0)
    loss = w * w
    loss.backward()
    with pytest.raises(NumericError):
        loss.backward()


def test_non_scalar_loss_is_error():
    w = ad.parameter(np.ones(3))
    with pytest.raises(ShapeError):
        (w * 2.0).backward()


def test_shape_mismatch_raises():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))))


def test_nonfinite_forward_raises():
    big = ad.Tensor(np.array([1000.0]))
    with pytest.raises(NumericError):
        exp(big)


def test_logsumexp_matches_naive_and_is_stable():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    t = ad.Tensor(x)
    got = logsumexp(t, axis=1)
    want = np.log(np.exp(x).sum(axis=1))
    assert np.allclose(got.data, want)
    # would overflow without max subtraction
    shifted = logsumexp(ad.Tensor(x + 10000.0), axis=1)
    assert np.allclose(shifted.data, want + 10000.0)


def test_logsumexp_gradient():
    w = ad.parameter(np.random.default_rng(3).normal(size=(2, 4)))
    err = check_gradients(lambda: tsum(logsumexp(w, axis=1)), [w])
    assert err <= 1e-6


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    s = softmax(ad.Tensor(rng.normal(size=(6, 3))), axis=1)
    assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_gradient():
    w = ad.parameter(np.random.default_rng(5).normal(size=(2, 3)))
    target = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def build():
        diff = softmax(w, axis=1) - ad.Tensor(target)
        return tsum(diff * diff)

    assert check_gradients(build, [w]) <= 1e-6


def test_getitem_basic_and_advanced_gradients():
    w = ad.parameter(np.arange(12, dtype=float).reshape(3, 4) / 12.0)

    def build_basic():
        return tsum(w[1:3, :2] * 2.0)

    assert check_gradients(build_basic, [w]) <= 1e-6

    ids = np.array([0, 2, 2])

    def build_advanced():
        return tsum(ad.tanh(w[ids]))

    assert check_gradients(build_advanced, [w]) <= 1e-6

    keys = [
        [2, 0, 2, 2],  # a list with repeats
        (slice(1, 3), np.array([3, 0, 3])),  # a slice and a repeated index array
        w.data > 0.4,  # a boolean mask
    ]
    for key in keys:
        assert check_gradients(lambda: tsum(ad.tanh(w[key])), [w]) <= 1e-6


def test_gather_repeated_rows_accumulate():
    w = ad.parameter(np.ones((3, 2)))
    ids = np.array([1, 1, 1])
    loss = tsum(w[ids])
    loss.backward()
    assert np.allclose(w.grad, [[0, 0], [3, 3], [0, 0]])


def test_pair_indexing_gradient():
    w = ad.parameter(np.random.default_rng(6).normal(size=(4, 3)))
    rows = np.array([0, 1, 1, 3])
    cols = np.array([2, 0, 0, 1])

    def build():
        return tsum(power(w[rows, cols], 2))

    assert check_gradients(build, [w]) <= 1e-6


def test_concat_and_reshape_gradients():
    a = ad.parameter(np.random.default_rng(7).normal(size=(2, 3)))
    b = ad.parameter(np.random.default_rng(8).normal(size=(2, 2)))

    def build():
        joined = ad.concat([a, b], axis=1)
        return tsum(ad.sigmoid(ad.reshape(joined, 10)))

    assert check_gradients(build, [a, b]) <= 1e-6


def test_broadcast_add_gradient():
    w = ad.parameter(np.random.default_rng(9).normal(size=(1, 4)))
    x = ad.Tensor(np.random.default_rng(10).normal(size=(3, 4)))
    assert check_gradients(lambda: tsum(ad.tanh(x + w)), [w]) <= 1e-6


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_broadcast_of_a_lower_rank_operand_sums_over_the_broadcast_axis(op):
    rng = np.random.default_rng(14)
    matrix = ad.parameter(rng.normal(size=(3, 2)))
    row = ad.parameter(rng.normal(size=(2,)))
    for a, b in ((matrix, row), (row, matrix)):
        assert check_gradients(lambda: tsum(ad.tanh(op(a, b))), [matrix, row]) <= 1e-6
    assert row.grad.shape == (2,)


def test_backward_overflow_raises_at_the_first_non_finite_adjoint():
    # every forward value is finite (zero), but the parameter's adjoint is 1e400
    w = ad.parameter(np.zeros(2))
    loss = tsum(w * 1e200 * 1e200)
    assert float(loss.data) == 0.0
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=r"^non-finite adjoint at op 'param'$"):
            loss.backward()


def test_mean_gradient():
    w = ad.parameter(np.arange(6, dtype=float).reshape(2, 3))
    loss = tmean(w)
    loss.backward()
    assert np.allclose(w.grad, 1.0 / 6.0)


def test_forward_determinism():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4))

    def run():
        t = ad.Tensor(x)
        return softmax(ad.tanh(t @ ad.Tensor(x)), axis=1).data

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_no_grad_skips_tape():
    w = ad.parameter(np.ones(3))
    with ad.no_grad():
        out = tsum(w * 2.0)
    assert not out.requires_grad
    assert out._parents == ()


def test_dropout_mask_multiply():
    rng = np.random.default_rng(12)
    x = ad.parameter(rng.normal(size=(5, 4)))
    keep = (rng.random((5, 1)) >= 0.5).astype(float)
    masked = x * ad.Tensor(keep / 0.5)
    assert np.allclose(masked.data[keep[:, 0] == 0.0], 0.0)
    assert check_gradients(lambda: tsum(x * ad.Tensor(keep / 0.5)), [x]) <= 1e-6
