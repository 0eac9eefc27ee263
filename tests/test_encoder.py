import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ike_lab import oracles
from ike_lab.encoder import (
    Adam,
    EncoderParams,
    ParamGrads,
    backward,
    forward_batch,
    grad_check,
    init_encoder,
    load_encoder,
    save_encoder,
)
from ike_lab.errors import ConfigError, DegenerateEmbedding, ShapeMismatch
from ike_lab.memory import unit_rows


def quadratic_closure(X, target):
    """0.5 * sum ||f - target||^2 through the encoder."""

    def closure(params):
        out = forward_batch(params, X)
        diff = out.embeddings - target
        value = 0.5 * float((diff * diff).sum())
        return value, backward(out, diff)

    return closure


class TestForward:
    def test_zero_weights_bias_embedding(self):
        params = EncoderParams(
            [np.zeros((3, 4)), np.zeros((3, 3)), np.zeros((2, 3))],
            [np.zeros(3), np.zeros(3), np.array([3.0, 4.0])],
        )
        out = forward_batch(params, np.ones(4)[None])
        assert out.embeddings[0] == pytest.approx([0.6, 0.8], abs=1e-15)
        assert (out.middles[0] == 0).all()

    def test_unit_norm_invariant(self, rng):
        params = init_encoder([4, 4, 4, 2], rng)
        out = forward_batch(params, rng.normal(size=(16, 4)))
        assert np.max(np.abs(np.linalg.norm(out.embeddings, axis=1) - 1.0)) <= 1e-12

    def test_matches_step_by_step_oracle(self, rng):
        params = init_encoder([5, 7, 6, 4], rng)
        x = rng.normal(size=5)
        h = x
        acts = [h]
        for W, b in zip(params.weights[:-1], params.biases[:-1]):
            h = np.tanh(W @ h + b)
            acts.append(h)
        z = params.weights[-1] @ h + params.biases[-1]
        want = z / np.linalg.norm(z)
        out = forward_batch(params, x[None])
        assert np.max(np.abs(out.embeddings[0] - want)) <= 1e-12
        assert np.max(np.abs(out.middles[0][0] - acts[2])) <= 1e-12
        # L = 3 here, so the third tap is the pre-normalization output.
        assert np.max(np.abs(out.middles[1][0] - z)) <= 1e-12

    def test_middle_taps_for_four_blocks(self, rng):
        params = init_encoder([4, 8, 8, 8, 6], rng)
        X = rng.normal(size=(3, 4))
        out = forward_batch(params, X)
        assert out.middles[0].shape == (3, 8)
        assert out.middles[1].shape == (3, 8)

    def test_degenerate_embedding(self):
        params = EncoderParams(
            [np.zeros((3, 4)), np.zeros((3, 3)), np.zeros((2, 3))],
            [np.zeros(3), np.zeros(3), np.zeros(2)],
        )
        with pytest.raises(DegenerateEmbedding):
            forward_batch(params, np.ones(4)[None])

    def test_too_few_blocks_rejected(self):
        with pytest.raises(ConfigError):
            EncoderParams([np.zeros((3, 4)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])

    def test_input_shape_check(self, rng, small_encoder):
        with pytest.raises(ShapeMismatch):
            forward_batch(small_encoder, rng.normal(size=(2, 5)))


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng, small_encoder):
        X = rng.normal(size=(4, 4))
        out = forward_batch(small_encoder, X)
        grads = backward(out, np.zeros_like(out.embeddings))
        assert np.abs(grads.flat).max() == 0.0

    def test_quadratic_at_minimum(self, rng, small_encoder):
        X = rng.normal(size=(4, 4))
        out = forward_batch(small_encoder, X)
        closure = quadratic_closure(X, out.embeddings.copy())
        value, grads = closure(small_encoder)
        assert value == 0.0
        assert np.abs(grads.flat).max() == 0.0

    def test_finite_difference_agreement(self, rng):
        params = init_encoder([4, 6, 6, 5], rng)
        X = rng.normal(size=(3, 4))
        target = unit_rows(rng, 3, 5)
        err = grad_check(params, quadratic_closure(X, target), step=1e-5)
        assert err <= 1e-6

    @pytest.mark.parametrize("widths,tap_dims", [
        ([4, 6, 6, 6, 5], (6, 6)),   # taps are tanh block outputs
        ([4, 6, 6, 5], (6, 5)),      # with 3 blocks, tap 3 is the raw final affine
    ])
    def test_middle_grad_injection_finite_difference(self, rng, widths, tap_dims):
        params = init_encoder(widths, rng)
        X = rng.normal(size=(3, 4))
        t2 = rng.normal(size=(3, tap_dims[0]))
        t3 = rng.normal(size=(3, tap_dims[1]))

        def closure(p):
            out = forward_batch(p, X)
            d2 = out.middles[0] - t2
            d3 = out.middles[1] - t3
            value = 0.5 * float((d2 * d2).sum() + (d3 * d3).sum())
            grads = backward(out, np.zeros_like(out.embeddings), d2, d3)
            return value, grads

        assert grad_check(params, closure, step=1e-5) <= 1e-6

    def test_normalization_jacobian_orthogonal_to_embedding(self, rng, small_encoder):
        # Numeric directional derivative of the embedding along itself (via
        # the final bias) must be orthogonal to the embedding.
        x = rng.normal(size=4)
        f = forward_batch(small_encoder, x[None]).embeddings[0]
        h = 1e-6
        params_p = small_encoder.copy()
        params_p.biases[-1][...] += h * f
        params_m = small_encoder.copy()
        params_m.biases[-1][...] -= h * f
        deriv = (forward_batch(params_p, x[None]).embeddings[0]
                 - forward_batch(params_m, x[None]).embeddings[0]) / (2 * h)
        assert abs(float(deriv @ f)) <= 1e-9


class TestGradCheck:
    def test_constant_loss_is_exact(self, rng, small_encoder):
        def closure(params):
            return 3.5, ParamGrads(params)

        assert grad_check(small_encoder, closure) == 0.0


class TestDeterminism:
    def test_seeded_init_reproducible(self):
        a = init_encoder([4, 8, 8, 6], np.random.default_rng(99))
        b = init_encoder([4, 8, 8, 6], np.random.default_rng(99))
        assert (a.flat == b.flat).all()

    def test_forward_bitwise_reproducible(self, rng, small_encoder):
        X = rng.normal(size=(5, 4))
        out1 = forward_batch(small_encoder, X)
        out2 = forward_batch(small_encoder, X)
        assert (out1.embeddings == out2.embeddings).all()


class TestAdam:
    def test_descends_quadratic(self, rng):
        params = init_encoder([4, 6, 6, 5], rng)
        X = rng.normal(size=(8, 4))
        target = unit_rows(rng, 8, 5)
        closure = quadratic_closure(X, target)
        opt = Adam(params, weight_decay=0.0)
        v0 = closure(params)[0]
        for _ in range(50):
            _, grads = closure(params)
            opt.step(params, grads, 1e-2)
        assert closure(params)[0] < v0

    def test_lr_override(self, rng):
        # Each step moves by the lr it is given: not at all at 0, and by
        # lr * g / (|g| + EPS) on a first step at any other lr.
        params = init_encoder([4, 6, 6, 5], rng)
        before = params.flat.copy()
        grads = ParamGrads(params)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        Adam(params, weight_decay=0.0).step(params, grads, 0.0)
        assert (params.flat == before).all()
        for lr in (1e-3, 0.25):
            moved = params.copy()
            Adam(moved, weight_decay=0.0).step(moved, grads, lr)
            want = lr * grads.flat / (np.abs(grads.flat) + 1e-8)
            assert np.allclose(before - moved.flat, want, rtol=1e-9, atol=0)


class TestSnapshot:
    def test_roundtrip_bitwise(self, rng, tmp_path, small_encoder):
        path = tmp_path / "encoder.json"
        save_encoder(small_encoder, path)
        loaded = load_encoder(path)
        assert loaded.widths == small_encoder.widths
        assert (loaded.flat == small_encoder.flat).all()

    def test_json_bytes_unchanged(self, tmp_path):
        params = EncoderParams(
            [np.array([[0.5, -1.0]]), np.array([[2.0]]), np.array([[0.1], [-3.0]])],
            [np.array([0.0]), np.array([-0.125]), np.array([1.0, 1e-300])],
        )
        path = tmp_path / "encoder.json"
        save_encoder(params, path)
        assert path.read_text() == (
            '{"widths": [2, 1, 1, 2], "blocks": [{"W": [[0.5, -1.0]], "b": [0.0]}, '
            '{"W": [[2.0]], "b": [-0.125]}, {"W": [[0.1], [-3.0]], "b": [1.0, 1e-300]}]}'
        )

    def test_bytes_equal_to_per_element_floats(self, tmp_path, small_encoder):
        # -0.0, subnormals and 1e300 print as Python floats print them.
        params = small_encoder.copy()
        params.weights[0][0, :4] = [-0.0, 5e-324, -2.5e-310, 1e300]
        params.biases[-1][0] = -1e300
        path = tmp_path / "encoder.json"
        save_encoder(params, path)
        want = {
            "widths": params.widths,
            "blocks": [
                {"W": [[float(v) for v in row] for row in W], "b": [float(v) for v in b]}
                for W, b in zip(params.weights, params.biases)
            ],
        }
        assert path.read_text() == json.dumps(want)

    def test_schema_fields(self, tmp_path, small_encoder):
        path = tmp_path / "encoder.json"
        save_encoder(small_encoder, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"widths", "blocks"}
        assert set(doc["blocks"][0]) == {"W", "b"}


def blocks(p):
    """Every weight and bias array in the vector's block order."""
    return [a for W, b in zip(p.weights, p.biases) for a in (W, b)]


class TestFlatVector:
    @given(st.lists(st.integers(1, 7), min_size=4, max_size=6), st.integers(1, 6),
           st.floats(1e-6, 1.0), st.sampled_from([0.0, 5e-4, 0.1]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_adam_bitwise_equals_per_array_loop(self, widths, steps, lr, wd, seed):
        rng = np.random.default_rng(seed)
        params = init_encoder(widths, rng)
        ref = [a.copy() for a in blocks(params)]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        opt = Adam(params, weight_decay=wd)
        for t in range(1, steps + 1):
            grads = ParamGrads(params)
            grads.flat[:] = rng.normal(size=grads.flat.size)
            opt.step(params, grads, lr)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for theta, g, mi, vi in zip(ref, blocks(grads), m, v):
                g = g + wd * theta
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * (g * g)
                theta -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)
        assert (params.flat == np.concatenate([a.ravel() for a in ref])).all()

    @pytest.mark.parametrize("make", [lambda p: p.copy(), lambda p: ParamGrads(p)],
                             ids=["params", "grads"])
    def test_writes_through_flat_and_views(self, small_encoder, make):
        p = make(small_encoder)
        p.flat[:] = np.arange(p.flat.size)
        assert (np.concatenate([a.ravel() for a in blocks(p)]) == p.flat).all()
        p.biases[1][...] = -1.0
        at = p.weights[0].size + p.biases[0].size + p.weights[1].size
        assert (p.flat[at : at + p.biases[1].size] == -1.0).all()
        assert (p.flat == -1.0).sum() == p.biases[1].size
        with pytest.raises(TypeError):
            p.weights[0] = np.zeros_like(p.weights[0])

    def test_copy_shares_no_memory(self, small_encoder):
        c = small_encoder.copy()
        assert (c.flat == small_encoder.flat).all()
        assert all(np.shares_memory(a, c.flat) for a in blocks(c))
        assert not any(np.shares_memory(a, small_encoder.flat) for a in [c.flat, *blocks(c)])
        c.flat += 1.0
        assert not (c.flat == small_encoder.flat).any()
