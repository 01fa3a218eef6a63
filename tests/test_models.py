import pickle
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fxevent.nn import models
from fxevent.dataset import Dataset, NormStats, Sample, apply_norm, fit_normalizer, invert_target
from fxevent.errors import ConfigError
from fxevent.nn.core import grad_check, sigmoid_, zero_grads
from fxevent.nn.models import (
    KINDS,
    BidirectionalLayer,
    GRULayer,
    LSTMLayer,
    ModelConfig,
    RecurrentModel,
    RNNLayer,
    TrainHyper,
    load_model,
    loss_closures,
    predict,
    save_model,
    train,
)


def zero_layer(layer):
    for p in layer.params():
        p.value[...] = 0.0
    return layer


def gate(param, k, H):
    """Gate k's slice of a fused W, U or b: columns k*H:(k+1)*H."""
    return param.value[..., k * H : (k + 1) * H]


def hand_lstm(layer, x):
    """Step-by-step LSTM over time-major x from zero state, one matmul per gate."""
    H = layer.hidden
    h = np.zeros((x.shape[1], H))
    C = np.zeros((x.shape[1], H))
    outs = []
    for x_t in x:
        pre = [
            x_t @ gate(layer.W, k, H) + h @ gate(layer.U, k, H) + gate(layer.b, k, H)
            for k in range(4)
        ]
        f, i, c_bar, o = sigmoid_(pre[0]), sigmoid_(pre[1]), np.tanh(pre[2]), sigmoid_(pre[3])
        C = f * C + i * c_bar
        h = o * np.tanh(C)
        outs.append(h)
    return np.stack(outs)


class TestRNNCell:
    def test_zero_weights_give_zero_states(self, rng):
        layer = zero_layer(RNNLayer(3, 4, rng, "l"))
        out = layer.forward(rng.normal(size=(6, 2, 3)))
        assert np.all(out == 0)

    def test_memoryless_when_recurrent_weights_zero(self, rng):
        layer = RNNLayer(3, 4, rng, "l")
        layer.U.value[...] = 0.0
        x = rng.normal(size=(5, 1, 3))
        out = layer.forward(x)
        # each step then depends only on its own input
        for t in range(5):
            expected = np.tanh(x[t] @ layer.W.value + layer.b.value)
            assert np.allclose(out[t], expected, atol=1e-15)

    def test_hand_unrolled_three_steps(self, rng):
        layer = RNNLayer(2, 2, rng, "l")
        x = rng.normal(size=(3, 1, 2))
        out = layer.forward(x)
        h = np.zeros((1, 2))
        for t in range(3):
            h = np.tanh(x[t] @ layer.W.value + h @ layer.U.value + layer.b.value)
            assert np.max(np.abs(out[t] - h)) < 1e-12


class TestLSTMCell:
    def test_zero_weights_fixed_point(self, rng):
        layer = zero_layer(LSTMLayer(3, 4, rng, "l"))
        out = layer.forward(rng.normal(size=(5, 2, 3)))
        assert np.all(out == 0)  # f=i=o=0.5 but c_bar=0 keeps C and h at zero

    def test_saturated_gates_retain_cell_state(self, rng):
        layer = zero_layer(LSTMLayer(3, 4, rng, "l"))
        H = 4
        gate(layer.b, 0, H)[...] = 60.0  # f ~= 1
        gate(layer.W, 1, H)[0] = 120.0  # i ~= 1 while x[..., 0] = 1, i ~= 0 while it is -1
        gate(layer.b, 2, H)[...] = 0.7  # c_bar = tanh(0.7)
        x = np.full((5, 1, 3), -1.0)
        x[0, 0, 0] = 1.0  # write the cell state once, then hold it
        out = layer.forward(x)
        assert np.max(np.abs(out[0] - 0.5 * np.tanh(np.tanh(0.7)))) < 1e-12
        assert np.max(np.abs(out - out[0])) < 1e-12

    def test_single_step_matches_hand_computation(self, rng):
        layer = LSTMLayer(2, 2, rng, "l")
        for p in layer.params():
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
        x = rng.normal(size=(2, 1, 2))  # the second step starts from a nonzero h and C
        out = layer.forward(x)
        assert np.max(np.abs(out - hand_lstm(layer, x))) < 1e-12

    def test_forget_bias_initialized_open(self, rng):
        layer = LSTMLayer(3, 4, rng, "l")
        assert np.all(gate(layer.b, 0, 4) == 1.0)
        assert np.all(layer.b.value[4:] == 0.0)


class TestGRUCell:
    def test_zero_weights_fixed_point(self, rng):
        layer = zero_layer(GRULayer(3, 4, rng, "l"))
        out = layer.forward(rng.normal(size=(5, 2, 3)))
        assert np.all(out == 0)

    def test_update_gate_closed_carries_state(self, rng):
        layer = zero_layer(GRULayer(3, 4, rng, "l"))
        H = 4
        gate(layer.W, 1, H)[0] = 120.0  # z ~= 1 while x[..., 0] = 1, z ~= 0 (pure carry) while -1
        gate(layer.b, 2, H)[...] = 0.7  # h_bar = tanh(0.7)
        x = np.full((5, 1, 3), -1.0)
        x[0, 0, 0] = 1.0
        out = layer.forward(x)
        assert np.max(np.abs(out[0] - np.tanh(0.7))) < 1e-12
        assert np.max(np.abs(out - out[0])) < 1e-12

    def test_single_step_matches_hand_computation(self, rng):
        layer = GRULayer(2, 2, rng, "l")
        for p in layer.params():
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
        H = 2
        x = rng.normal(size=(2, 1, 2))  # the second step starts from a nonzero h
        out = layer.forward(x)
        h_prev = np.zeros((1, H))
        for t in range(2):
            r = sigmoid_(x[t] @ gate(layer.W, 0, H) + h_prev @ gate(layer.U, 0, H) + gate(layer.b, 0, H))
            z = sigmoid_(x[t] @ gate(layer.W, 1, H) + h_prev @ gate(layer.U, 1, H) + gate(layer.b, 1, H))
            h_bar = np.tanh(
                x[t] @ gate(layer.W, 2, H) + (r * h_prev) @ gate(layer.U, 2, H) + gate(layer.b, 2, H)
            )
            h_prev = (1.0 - z) * h_prev + z * h_bar
            assert np.max(np.abs(out[t] - h_prev)) < 1e-12


class TestModelForward:
    def test_zero_model_predicts_dense_bias(self, rng):
        for kind in ("rnn", "lstm", "bilstm", "gru"):
            cfg = ModelConfig(kind=kind, n_timesteps=4, input_dim=3, layers=2, hidden=4, seed=1)
            model = RecurrentModel(cfg)
            for p in model.params():
                p.value[...] = 0.0
            model.head.b.value[...] = 0.7321
            window = rng.normal(size=(4, 3))
            assert model.forward_batch(window[None])[0] == pytest.approx(0.7321, abs=1e-15)

    def test_bilstm_head_width(self):
        cfg = ModelConfig(kind="bilstm", n_timesteps=4, input_dim=3, layers=2, hidden=5, seed=1)
        model = RecurrentModel(cfg)
        assert model.head.W.value.shape == (10, 1)

    def test_forward_matches_manual_composition(self, rng):
        cfg = ModelConfig(kind="lstm", n_timesteps=5, input_dim=4, layers=2, hidden=3, seed=9)
        model = RecurrentModel(cfg)
        window = rng.normal(size=(5, 4))
        got = model.forward_batch(window[None])[0]

        x = window[:, None]  # time-major, batch of one
        for layer in model.layers:
            x = hand_lstm(layer, x)
        manual = float((x[-1] @ model.head.W.value + model.head.b.value)[0, 0])
        assert got == pytest.approx(manual, abs=1e-12)

    def test_batch_decomposition_invariance(self, rng):
        cfg = ModelConfig(kind="gru", n_timesteps=6, input_dim=5, layers=2, hidden=4, seed=3)
        model = RecurrentModel(cfg)
        X = rng.normal(size=(7, 6, 5))
        whole = model.forward_batch(X)
        singles = np.array([model.forward_batch(X[i][None])[0] for i in range(7)])
        pairs = np.concatenate([model.forward_batch(X[:3]), model.forward_batch(X[3:])])
        assert np.max(np.abs(whole - singles)) < 1e-12
        assert np.max(np.abs(whole - pairs)) < 1e-12

    def test_gate_ranges_on_forward_trace(self, rng):
        cfg = ModelConfig(kind="lstm", n_timesteps=8, input_dim=4, layers=1, hidden=6, seed=5)
        model = RecurrentModel(cfg)
        model.forward_batch(rng.normal(size=(3, 8, 4)))
        _, A, C, _ = model.layers[0]._cache
        H = 6
        for gate_act in (A[..., : 2 * H], A[..., 3 * H :]):  # f, i and o
            assert np.all((gate_act > 0) & (gate_act < 1))
        c_bar = A[..., 2 * H : 3 * H]
        assert np.all((c_bar > -1) & (c_bar < 1))
        tC = np.tanh(C)
        assert np.all((tC > -1) & (tC < 1))

    @pytest.mark.parametrize("cell", [LSTMLayer, GRULayer])
    def test_saturated_pre_activations_stay_finite_and_silent(self, rng, cell):
        # exp overflows for the -800 gates; the step loop's errstate silences it
        # and must leave numpy's error state as it found it
        layer = zero_layer(cell(3, 4, rng, "l"))
        layer.b.value[...] = np.where(np.arange(layer.b.value.size) % 2, 800.0, -800.0)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = layer.forward(rng.normal(size=(5, 2, 3)))
        assert np.all(np.isfinite(out))
        assert np.geterr() == before

    def test_shape_validation(self, rng):
        cfg = ModelConfig(kind="rnn", n_timesteps=4, input_dim=3, layers=1, hidden=2, seed=1)
        model = RecurrentModel(cfg)
        with pytest.raises(ConfigError):
            model.forward_batch(rng.normal(size=(2, 5, 3)))


class TestBidirectionalIdentities:
    def test_forward_direction_equals_plain_lstm(self, rng):
        plain = LSTMLayer(3, 4, rng, "p")
        bidi = BidirectionalLayer(LSTMLayer(3, 4, rng, "f"), LSTMLayer(3, 4, rng, "b"))
        for src, dst in zip(plain.params(), bidi.fwd.params()):
            dst.value[...] = src.value
        x = rng.normal(size=(6, 2, 3))
        out = bidi.forward(x)
        assert np.max(np.abs(out[:, :, :4] - plain.forward(x))) < 1e-15

    def test_backward_direction_equals_reversed_lstm(self, rng):
        plain = LSTMLayer(3, 4, rng, "p")
        bidi = BidirectionalLayer(LSTMLayer(3, 4, rng, "f"), LSTMLayer(3, 4, rng, "b"))
        for src, dst in zip(plain.params(), bidi.bwd.params()):
            dst.value[...] = src.value
        x = rng.normal(size=(6, 2, 3))
        out = bidi.forward(x)
        reversed_out = plain.forward(x[::-1])[::-1]
        assert np.max(np.abs(out[:, :, 4:] - reversed_out)) < 1e-15


class TestModelBackward:
    @pytest.mark.parametrize("kind", ["rnn", "lstm", "bilstm", "gru"])
    def test_grad_check(self, kind):
        # frozen input: the relative-error formula floors its denominator at 1e-8,
        # so a window whose gradients all clear that floor keeps the check sharp
        data = np.random.default_rng(0)
        X = data.normal(size=(1, 5, 28))
        y = data.normal(size=1)
        cfg = ModelConfig(kind=kind, n_timesteps=5, input_dim=28, layers=2, hidden=4, seed=11)
        model = RecurrentModel(cfg)
        loss_fn, backward_fn = loss_closures(model, X, y)
        assert grad_check(loss_fn, backward_fn, model.params(), h=1e-5) < 1e-4

    def test_grad_check_single_layer_lstm(self):
        data = np.random.default_rng(0)
        X = data.normal(size=(1, 5, 4))
        y = data.normal(size=1)
        cfg = ModelConfig(kind="lstm", n_timesteps=5, input_dim=4, layers=1, hidden=4, seed=7)
        model = RecurrentModel(cfg)
        loss_fn, backward_fn = loss_closures(model, X, y)
        assert grad_check(loss_fn, backward_fn, model.params(), h=1e-5) < 1e-4

    def test_dropped_gate_term_is_detected(self):
        # the finite-difference check must catch a miscomputed backward pass
        data = np.random.default_rng(0)
        X = data.normal(size=(2, 5, 4))
        y = data.normal(size=2)
        cfg = ModelConfig(kind="lstm", n_timesteps=5, input_dim=4, layers=1, hidden=4, seed=7)
        model = RecurrentModel(cfg)
        loss_fn, backward_fn = loss_closures(model, X, y)

        def corrupted_backward():
            backward_fn()
            model.layers[0].U.grad[:, 3 * 4 :] = 0.0  # drop the output gate's recurrent term

        assert grad_check(loss_fn, corrupted_backward, model.params(), h=1e-5) > 1e-2

    def test_zero_upstream_gives_zero_grads(self, rng):
        cfg = ModelConfig(kind="lstm", n_timesteps=4, input_dim=3, layers=2, hidden=3, seed=2)
        model = RecurrentModel(cfg)
        zero_grads(model.params())
        model.forward_batch(rng.normal(size=(2, 4, 3)))
        model.backward_batch(np.zeros(2))
        for p in model.params():
            assert np.all(p.grad == 0)

    def test_backward_is_linear_in_upstream(self, rng):
        cfg = ModelConfig(kind="gru", n_timesteps=4, input_dim=3, layers=2, hidden=3, seed=2)
        model = RecurrentModel(cfg)
        X = rng.normal(size=(2, 4, 3))
        dpred = rng.normal(size=2)

        zero_grads(model.params())
        model.forward_batch(X)
        model.backward_batch(dpred)
        single = [p.grad.copy() for p in model.params()]

        zero_grads(model.params())
        model.forward_batch(X)
        model.backward_batch(2.0 * dpred)
        for p, g in zip(model.params(), single):
            assert np.max(np.abs(p.grad - 2.0 * g)) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_reused_buffers_match_a_fresh_model_at_every_batch_size(self, kind):
        # a smaller batch runs on the front of a larger one's buffers; every pass
        # must equal a fresh model's bit for bit
        cfg = ModelConfig(kind=kind, n_timesteps=5, input_dim=3, layers=2, hidden=4, seed=9)
        reused = RecurrentModel(cfg)
        data = np.random.default_rng(1)
        for batch in (32, 7, 32, 1):
            X = data.normal(size=(batch, 5, 3))
            dpred = data.normal(size=batch)
            fresh = RecurrentModel(cfg)
            outs = []
            for model in (reused, fresh):
                zero_grads(model.params())
                outs.append(model.forward_batch(X))
                model.backward_batch(dpred)
            assert np.array_equal(outs[0], outs[1]), batch
            for a, b in zip(reused.params(), fresh.params(), strict=True):
                assert np.array_equal(a.grad, b.grad), (batch, a.name)


def cells(model):
    """The model's recurrent cells in parameter order (both directions for bilstm)."""
    out = []
    for layer in model.layers:
        out += [layer.fwd, layer.bwd] if hasattr(layer, "fwd") else [layer]
    return out


def stacked(per_gate_cell, name, field):
    """A per-gate cell's W, U or b blocks side by side, in gate order."""
    parts = getattr(per_gate_cell, name)
    return np.concatenate([getattr(parts[g], field) for g in per_gate_cell.GATES], axis=-1)


class TestFusedMatchesPerGate:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind", ["rnn", "lstm", "bilstm", "gru"])
    def test_forward_and_gradients(self, kind, batch):
        cfg = ModelConfig(kind=kind, n_timesteps=7, input_dim=5, layers=2, hidden=4, seed=13)
        fused, ref = RecurrentModel(cfg), oracles.PerGateModel(cfg)
        assert all(len(c.params()) == 3 for c in cells(fused))
        # the same draws in the same order: the fused weights are the per-gate ones side by side
        for f_cell, r_cell in zip(cells(fused), cells(ref), strict=True):
            for name in "WUb":
                assert np.array_equal(getattr(f_cell, name).value, stacked(r_cell, name, "value"))
        data = np.random.default_rng(batch)
        X = data.normal(size=(batch, 7, 5))
        dpred = data.normal(size=batch)
        zero_grads(fused.params())
        zero_grads(ref.params())
        assert np.max(np.abs(fused.forward_batch(X) - ref.forward_batch(X))) <= 1e-12
        fused.backward_batch(dpred)
        ref.backward_batch(dpred)
        for f_cell, r_cell in zip(cells(fused), cells(ref)):
            for name in "WUb":
                diff = getattr(f_cell, name).grad - stacked(r_cell, name, "grad")
                assert np.max(np.abs(diff)) <= 1e-12, f"{f_cell.W.name} d{name}"
        for f_p, r_p in zip(fused.head.params(), ref.head.params()):
            assert np.max(np.abs(f_p.grad - r_p.grad)) <= 1e-12


def make_dataset(rng, n_samples, n=6, feat=5, target_fn=None):
    samples = []
    for i in range(n_samples):
        w = rng.normal(size=(n, feat))
        t = target_fn(w) if target_fn else float(rng.normal())
        samples.append(Sample(w, float(t), i, i + 1, 1000 + i, 2000 + i))
    return Dataset(tuple(samples), n, "train")


class TestTrain:
    def test_learns_linear_function_of_last_step(self, rng):
        ds = make_dataset(rng, 120, target_fn=lambda w: 0.8 * w[-1, 0] - 0.2)
        cfg = ModelConfig(kind="gru", n_timesteps=6, input_dim=5, layers=1, hidden=12, seed=4)
        hyper = TrainHyper(lr=1e-2, batch_size=16, max_epochs=200, patience=200)
        model, report = train(ds, 0.0, cfg, hyper)
        assert min(report.train_losses) < 1e-4

    def test_deterministic_given_seed(self, rng):
        ds = make_dataset(rng, 40)
        cfg = ModelConfig(kind="lstm", n_timesteps=6, input_dim=5, layers=1, hidden=4, seed=123)
        hyper = TrainHyper(max_epochs=5, batch_size=8)
        m1, r1 = train(ds, 0.1, cfg, hyper)
        m2, r2 = train(ds, 0.1, cfg, hyper)
        for a, b in zip(m1.params(), m2.params()):
            assert np.array_equal(a.value, b.value)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses

    def test_constant_target_converges_to_constant(self, rng):
        # through the real path: constant targets z-score to 0 (std guarded to 1),
        # so a bias-only solution exists and raw predictions invert back to 0.37
        ds = make_dataset(rng, 60, target_fn=lambda w: 0.37)
        with pytest.warns(UserWarning, match="constant targets"):
            stats = fit_normalizer(ds)
        normed = apply_norm(ds, stats)
        cfg = ModelConfig(kind="rnn", n_timesteps=6, input_dim=5, layers=1, hidden=2, seed=8)
        hyper = TrainHyper(lr=3e-3, batch_size=16, max_epochs=800, patience=800)
        model, report = train(normed, 0.1, cfg, hyper)
        assert min(report.val_losses) < 1e-6
        pred = predict(model, normed, stats)
        assert np.max(np.abs(pred - 0.37)) < 1e-2

    def test_adam_step_counter_spans_epochs(self, rng, monkeypatch):
        ds = make_dataset(rng, 10)
        cfg = ModelConfig(kind="rnn", n_timesteps=6, input_dim=5, layers=1, hidden=2, seed=1)
        steps = []
        step = models.adam_step
        monkeypatch.setattr(models, "adam_step", lambda params, hyper, t: steps.append(t) or step(params, hyper, t))
        train(ds, 0.0, cfg, TrainHyper(batch_size=4, max_epochs=3, patience=3))
        assert steps == list(range(1, 10))  # 3 batches in each of 3 epochs

    def test_report_invariants(self, rng):
        ds = make_dataset(rng, 30)
        cfg = ModelConfig(kind="gru", n_timesteps=6, input_dim=5, layers=1, hidden=3, seed=1)
        model, report = train(ds, 0.2, cfg, TrainHyper(max_epochs=12, patience=3))
        assert report.epochs_run <= 12
        assert 0 <= report.best_epoch < report.epochs_run
        assert all(np.isfinite(v) for v in report.train_losses + report.val_losses)
        assert report.wall_time_s > 0

    def test_nonfinite_loss_aborts_with_diagnostics(self, rng):
        ds = make_dataset(rng, 10)
        bad = Sample(np.full((6, 5), np.nan), 1.0, 0, 1, 0, 1)
        ds = Dataset(ds.samples + (bad,), 6, "train")
        cfg = ModelConfig(kind="rnn", n_timesteps=6, input_dim=5, layers=1, hidden=3, seed=1)
        with pytest.raises(RuntimeError, match="epoch"):
            train(ds, 0.0, cfg, TrainHyper(max_epochs=2, batch_size=32))

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(kind="rnn", n_timesteps=4, input_dim=2, layers=1, hidden=2, seed=0)
        with pytest.raises(ConfigError):
            train(Dataset((), 4, "train"), 0.1, cfg)


class TestPredict:
    def _normed(self, rng, n_samples=20):
        ds = make_dataset(rng, n_samples, target_fn=lambda w: 1.1 + 0.01 * w[-1, 0])
        stats = fit_normalizer(ds)
        return ds, apply_norm(ds, stats), stats

    def test_constant_model_prediction(self, rng):
        raw, normed, stats = self._normed(rng)
        cfg = ModelConfig(kind="rnn", n_timesteps=6, input_dim=5, layers=1, hidden=3, seed=0)
        model = RecurrentModel(cfg)
        for p in model.params():
            p.value[...] = 0.0
        model.head.b.value[...] = 0.25
        model.stats_fingerprint = stats.fingerprint
        pred = predict(model, normed, stats)
        assert np.allclose(pred, invert_target(0.25, stats))

    def test_cardinality_and_order(self, rng):
        raw, normed, stats = self._normed(rng, n_samples=17)
        cfg = ModelConfig(kind="gru", n_timesteps=6, input_dim=5, layers=1, hidden=3, seed=0)
        model, _ = train(normed, 0.1, cfg, TrainHyper(max_epochs=3))
        pred = predict(model, normed, stats)
        assert pred.shape == (17,)
        manual = np.array(
            [invert_target(model.forward_batch(s.window[None])[0], stats) for s in normed.samples]
        )
        assert np.max(np.abs(pred - manual)) < 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_cache_left_after_train_and_predict(self, rng, kind):
        raw, normed, stats = self._normed(rng)
        cfg = ModelConfig(kind=kind, n_timesteps=6, input_dim=5, layers=2, hidden=3, seed=0)

        def cached(model):
            """Cells holding a forward cache or a buffer, layers holding a buffer, a head holding its input."""
            held = [c.W.name for c in cells(model) if c._cache is not None or c._bufs]
            held += [f"layer{l}" for l, layer in enumerate(model.layers) if layer._bufs]
            return held + ["head"] * (model.head._x is not None)

        model, report = train(normed, 0.2, cfg, TrainHyper(max_epochs=2))
        assert report.val_losses and cached(model) == []
        model.forward_batch(normed.windows())
        assert cached(model) != []
        predict(model, normed, stats)
        assert cached(model) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_model_pickles_to_its_parameter_size(self, rng, kind):
        # after train and predict the model holds no per-batch buffer, so a grid
        # worker sends back little more than the parameters and their Adam state
        raw, normed, stats = self._normed(rng, n_samples=40)
        cfg = ModelConfig(kind=kind, n_timesteps=6, input_dim=5, layers=2, hidden=32, seed=0)
        model, _ = train(normed, 0.2, cfg, TrainHyper(max_epochs=1))
        predict(model, normed, stats)
        param_bytes = sum(p.value.nbytes + p.grad.nbytes + p.adam_m.nbytes + p.adam_v.nbytes
                          for p in model.params())
        assert len(pickle.dumps(model)) <= 1.1 * param_bytes

    def test_fingerprint_mismatch_rejected(self, rng):
        raw, normed, stats = self._normed(rng)
        other_stats = NormStats(np.zeros(5), np.ones(5), 0.0, 1.0)
        cfg = ModelConfig(kind="rnn", n_timesteps=6, input_dim=5, layers=1, hidden=3, seed=0)
        model, _ = train(normed, 0.1, cfg, TrainHyper(max_epochs=2))
        with pytest.raises(ConfigError, match="stats"):
            predict(model, normed, other_stats)
        with pytest.raises(ConfigError, match="stats"):
            predict(model, raw, stats)  # raw dataset was never normalized


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, rng, tmp_path):
        ds = make_dataset(rng, 15)
        stats = fit_normalizer(ds)
        normed = apply_norm(ds, stats)
        cfg = ModelConfig(kind="bilstm", n_timesteps=6, input_dim=5, layers=2, hidden=4, seed=6)
        model, _ = train(normed, 0.1, cfg, TrainHyper(max_epochs=3))
        path = tmp_path / "m.model.txt"
        save_model(model, path)
        clone = load_model(path)
        assert clone.config == model.config
        assert clone.stats_fingerprint == model.stats_fingerprint
        X = normed.windows()
        assert np.array_equal(clone.forward_batch(X), model.forward_batch(X))

    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(KINDS),
        layers=st.integers(1, 2),
        hidden=st.integers(1, 4),
        input_dim=st.integers(1, 4),
        n_timesteps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        fingerprint=st.one_of(st.none(), st.text("0123456789abcdef", min_size=16, max_size=16)),
    )
    def test_round_trip_is_bitwise(self, kind, layers, hidden, input_dim, n_timesteps, seed, fingerprint):
        model = RecurrentModel(ModelConfig(kind, n_timesteps, input_dim, layers, hidden, seed))
        model.stats_fingerprint = fingerprint
        rng = np.random.default_rng(seed)
        for p in model.params():  # magnitudes from subnormal to near overflow, and a negative zero
            p.value[...] = rng.standard_normal(p.value.shape) * 10.0 ** rng.integers(-310, 300, p.value.shape)
        model.params()[-1].value.flat[0] = -0.0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.model.txt"
            save_model(model, path)
            clone = load_model(path)
        assert clone.config == model.config
        assert clone.stats_fingerprint == fingerprint
        for a, b in zip(model.params(), clone.params(), strict=True):
            assert a.name == b.name
            assert a.value.tobytes() == b.value.tobytes(), a.name
        X = rng.standard_normal((3, n_timesteps, input_dim))
        with np.errstate(all="ignore"):
            assert clone.forward_batch(X).tobytes() == model.forward_batch(X).tobytes()

    def test_header_keeps_every_config_field(self, tmp_path):
        cfg = ModelConfig(kind="gru", n_timesteps=5, input_dim=3, layers=3, hidden=2, seed=11)
        # every field is off its default, so one the header dropped would load back changed
        assert all(getattr(cfg, f.name) != f.default for f in fields(ModelConfig))
        path = tmp_path / "m.model.txt"
        save_model(RecurrentModel(cfg), path)
        assert load_model(path).config == cfg

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(ConfigError):
            load_model(path)

    def test_v1_file_rejected_with_retrain_hint(self, tmp_path):
        path = tmp_path / "old.model.txt"
        path.write_text("fxevent-model v1\nconfig {}\n")
        with pytest.raises(ConfigError, match=r"old\.model\.txt: fxevent-model v1 .*retrain"):
            load_model(path)

    @pytest.mark.parametrize(
        "line, replacement",
        [
            (2, "stats_fingerprint"),  # fingerprint value missing
            (3, "params two"),  # non-integer parameter count
            (5, "0.5 0.25"),  # ragged row: W has 4 columns
            (5, "0.5 0.25 x 1"),  # non-numeric value
            (1, "config {not json"),
        ],
    )
    def test_malformed_file_names_path(self, tmp_path, line, replacement):
        cfg = ModelConfig(kind="rnn", n_timesteps=3, input_dim=2, layers=1, hidden=4, seed=0)
        path = tmp_path / "m.model.txt"
        save_model(RecurrentModel(cfg), path)
        lines = path.read_text().splitlines()
        lines[line] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_model(path)
