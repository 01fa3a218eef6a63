import io

import numpy as np
import pytest

import oracles
from fxevent.errors import ConfigError, GradCheckError
from fxevent.nn.core import (
    Dense,
    Param,
    adam_step,
    clip_global_norm,
    grad_check,
    load_params,
    mse_loss,
    save_params,
    sigmoid_,
    zero_grads,
)
from fxevent.nn.models import TrainHyper


class TestActivations:
    def test_symmetry_points(self):
        assert sigmoid_(np.array(0.0)) == 0.5

    def test_in_place_and_bitwise_the_textbook_formula(self, rng):
        x = rng.normal(scale=5, size=(3, 40))
        a = x.copy()
        assert sigmoid_(a) is a
        assert np.array_equal(a, 1.0 / (1.0 + np.exp(-x)))

    def test_sigmoid_complement(self, rng):
        x = rng.normal(scale=3, size=100)
        assert np.max(np.abs(sigmoid_(x.copy()) + sigmoid_(-x) - 1.0)) < 1e-15

    def test_saturation_is_finite(self):
        big = np.array([-1e4, -750.0, 750.0, 1e4])
        with np.errstate(over="ignore"):  # as the cells' step loops hold it
            s = sigmoid_(big.copy())
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_ranges(self, rng):
        x = rng.normal(scale=5, size=1000)
        s = sigmoid_(x.copy())
        assert np.all((s > 0) & (s < 1) | np.isin(x, [np.inf, -np.inf]))


class TestMseLoss:
    def test_perfect_fit(self):
        loss, grad = mse_loss([1.0, 2.0], [1.0, 2.0])
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_hand_case(self):
        loss, grad = mse_loss([1.0], [2.0])
        assert loss == 1.0
        assert grad.tolist() == [-2.0]

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.normal(size=20)
        target = rng.normal(size=20)
        _, grad = mse_loss(pred, target)
        h = 1e-6
        for i in range(len(pred)):
            bumped = pred.copy()
            bumped[i] += h
            up = mse_loss(bumped, target)[0]
            bumped[i] -= 2 * h
            down = mse_loss(bumped, target)[0]
            assert abs(grad[i] - (up - down) / (2 * h)) < 1e-8

    def test_nonnegative_and_zero_iff_equal(self, rng):
        pred = rng.normal(size=50)
        target = pred + rng.normal(scale=0.1, size=50)
        assert mse_loss(pred, target)[0] > 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mse_loss([], [])


class TestAdam:
    def test_zero_grads_fixed_point(self):
        p = Param("w", np.array([[1.0, -2.0]]))
        adam_step([p], TrainHyper(), 1)
        assert np.array_equal(p.value, np.array([[1.0, -2.0]]))

    def test_first_step_is_lr_sized_sign_step(self):
        for g in (0.5, -3.0, 1e-4):
            p = Param("w", np.array([1.0]))
            p.grad[...] = g
            hyper = TrainHyper(lr=1e-3)
            adam_step([p], hyper, 1)
            update = 1.0 - p.value[0]
            assert update == pytest.approx(np.sign(g) * hyper.lr, rel=1e-4)

    def test_three_steps_match_hand_recurrence(self):
        # quadratic loss 0.5*theta^2 -> grad = theta, re-evaluated each step
        p = Param("w", np.array([0.7]))
        hyper = TrainHyper(lr=1e-2)
        seen = []
        grads = []
        for t in range(1, 4):
            grads.append(float(p.value[0]))
            p.grad[...] = p.value
            adam_step([p], hyper, t)
            seen.append(float(p.value[0]))
        expected = oracles.adam_reference(0.7, grads, lr=1e-2)
        assert np.max(np.abs(np.array(seen) - np.array(expected))) < 1e-12

    def test_repeatable_from_identical_state(self):
        def run():
            p = Param("w", np.array([0.3, -0.8]))
            hyper = TrainHyper()
            for i in range(5):
                p.grad[...] = np.array([0.1 * (i + 1), -0.05])
                adam_step([p], hyper, i + 1)
            return p.value.copy()

        assert np.array_equal(run(), run())

    def test_bitwise_equal_to_the_out_of_place_update(self, rng):
        # adam_step works in scratch views; each value must round as the textbook
        # expressions below do, for params of every shape a model holds. The params
        # start at zero, so the first update's last bit shows in the value.
        hyper = TrainHyper(lr=3e-3)
        params = [Param(f"p{k}", np.zeros(shape)) for k, shape in enumerate([(5, 7), (7,), (3, 3)])]
        ref = [(p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value)) for p in params]
        for t in range(1, 6):
            for p in params:
                p.grad[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.grad.shape)
            adam_step(params, hyper, t)
            for k, (p, (value, m, v)) in enumerate(zip(params, ref)):
                m = hyper.beta1 * m + (1.0 - hyper.beta1) * p.grad
                v = hyper.beta2 * v + (1.0 - hyper.beta2) * p.grad**2
                m_hat = m / (1.0 - hyper.beta1**t)
                v_hat = v / (1.0 - hyper.beta2**t)
                ref[k] = (value - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps), m, v)
                assert np.array_equal(p.value, ref[k][0]) and np.array_equal(p.adam_m, m)
                assert np.array_equal(p.adam_v, v)

    def test_hyper_validation(self):
        with pytest.raises(ConfigError):
            TrainHyper(beta1=1.0)
        with pytest.raises(ConfigError):
            TrainHyper(lr=0.0)


class TestClip:
    def test_below_threshold_untouched(self):
        p = Param("w", np.zeros(3))
        p.grad[...] = np.array([0.3, 0.0, 0.4])
        norm = clip_global_norm([p], 5.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(p.grad, np.array([0.3, 0.0, 0.4]))

    def test_scales_to_threshold(self):
        p = Param("w", np.zeros(2))
        p.grad[...] = np.array([30.0, 40.0])
        clip_global_norm([p], 5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)
        assert p.grad[1] / p.grad[0] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("max_norm", [0.0, 1e-3, 1e3])
    def test_bitwise_equal_to_the_out_of_place_clip(self, rng, max_norm):
        params = [Param(f"p{k}", np.zeros(shape)) for k, shape in enumerate([(4, 6), (6,), (2, 2)])]
        for p in params:
            p.grad[...] = rng.normal(size=p.grad.shape)
        grads = [p.grad.copy() for p in params]
        total = np.sqrt(sum(float(np.sum(g**2)) for g in grads))
        clipped = 0.0 < max_norm < total
        assert clip_global_norm(params, max_norm) == total
        for p, g in zip(params, grads):
            assert np.array_equal(p.grad, g * (max_norm / total) if clipped else g)


class TestDense:
    def test_zero_weights_annihilate(self, rng):
        layer = Dense(4, 2, rng)
        layer.W.value[...] = 0.0
        assert np.all(layer.forward(rng.normal(size=(3, 4))) == 0)

    def test_identity(self, rng):
        layer = Dense(3, 3, rng)
        layer.W.value[...] = np.eye(3)
        layer.b.value[...] = 0.0
        x = rng.normal(size=(5, 3))
        assert np.allclose(layer.forward(x), x)

    def test_backward_matches_finite_differences(self, rng):
        layer = Dense(4, 2, rng)
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 2))

        def loss_fn():
            return mse_loss(layer.forward(x).ravel(), target.ravel())[0]

        def backward_fn():
            out = layer.forward(x)
            _, grad = mse_loss(out.ravel(), target.ravel())
            layer.backward(grad.reshape(out.shape))

        err = grad_check(loss_fn, backward_fn, layer.params(), h=1e-5)
        assert err < 1e-6

    def test_shape_mismatch_message(self, rng):
        layer = Dense(4, 2, rng)
        with pytest.raises(ConfigError, match="input dim 4"):
            layer.forward(np.zeros((3, 5)))


class TestGradCheck:
    def test_linear_model_exact(self):
        w = Param("w", np.array([[2.0], [-1.5], [0.5]]))
        x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        target = np.array([1.0, -1.0])

        def loss_fn():
            return mse_loss(x @ w.value[:, 0], target)[0]

        def backward_fn():
            pred = x @ w.value[:, 0]
            _, dpred = mse_loss(pred, target)
            w.grad[:, 0] += x.T @ dpred

        assert grad_check(loss_fn, backward_fn, [w], h=1e-5) < 1e-10

    def test_corrupted_backward_detected(self, rng):
        # dropping a term must blow past any plausible tolerance: the check has teeth
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            return mse_loss(layer.forward(x).ravel(), target.ravel())[0]

        def corrupted_backward():
            out = layer.forward(x)
            _, grad = mse_loss(out.ravel(), target.ravel())
            layer.backward(grad.reshape(out.shape))
            layer.W.grad[0, :] = 0.0  # drop one row's gradient

        assert grad_check(loss_fn, corrupted_backward, layer.params(), h=1e-5) > 1e-2

    def test_nonfinite_raises_with_name(self):
        w = Param("bad.weight", np.array([1.0]))

        def loss_fn():
            return float("nan")

        def backward_fn():
            w.grad[...] = 0.0

        with pytest.raises(GradCheckError, match="bad.weight"):
            grad_check(loss_fn, backward_fn, [w], h=1e-5)


class TestParamSerialization:
    def test_round_trip_17_digits(self, rng):
        params = [
            Param("a.W", rng.normal(size=(3, 4))),
            Param("a.b", rng.normal(size=5)),
        ]
        buf = io.StringIO()
        save_params(params, buf)
        buf.seek(0)
        clones = [Param("a.W", np.zeros((3, 4))), Param("a.b", np.zeros(5))]
        load_params(clones, buf)
        for p, c in zip(params, clones):
            assert np.array_equal(p.value, c.value)

    def test_order_mismatch_rejected(self, rng):
        params = [Param("x", rng.normal(size=(2, 2)))]
        buf = io.StringIO()
        save_params(params, buf)
        buf.seek(0)
        with pytest.raises(ConfigError, match="order"):
            load_params([Param("y", np.zeros((2, 2)))], buf)
