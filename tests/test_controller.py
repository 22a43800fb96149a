import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliqs.arch import ArchChoice
from fliqs.controller import (
    AdamParams,
    LayerPolicy,
    advantage_update,
    arch_from_indices,
    beta_schedule,
    make_controller,
    model_entropy,
    policy_entropy,
    policy_gradient,
    reinforce_step,
    sample_architecture,
    softmax,
)
from fliqs.errors import DomainError
from fliqs.formats import int_format

from controller_reference import objective

OPTIONS = [ArchChoice(int_format(k)) for k in (4, 6, 8)]
DESIGNATED = (0, 1, 2)


def _bandit(seed, beta_end, steps=5000, optimizer="adam"):
    """3 layers x 3 options; reward 1 iff every layer picks its designated option."""
    state = make_controller(["a", "b", "c"], [OPTIONS] * 3, optimizer=optimizer)
    rng = np.random.default_rng(seed)
    warmup = int(state.warmup_fraction * steps)
    for t in range(steps):
        progress = t / steps
        idx = sample_architecture(state, rng, progress)
        r = 1.0 if tuple(idx) == DESIGNATED else 0.0
        adv = advantage_update(state, r)
        if t >= warmup:
            reinforce_step(state, idx, adv, beta_schedule(progress, beta_end))
    return state


class TestSoftmax:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, logits, shift):
        p1 = softmax(np.array(logits))
        p2 = softmax(np.array(logits) + shift)
        assert np.allclose(p1, p2, atol=1e-12)
        assert policy_entropy(p1) == pytest.approx(policy_entropy(p2), abs=1e-12)

    def test_normalizes(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert policy_entropy(np.ones(4) / 4) == pytest.approx(math.log(4))

    def test_one_hot_is_zero(self):
        assert policy_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_model_entropy_sums_layers(self):
        state = make_controller(["a", "b"], [OPTIONS, OPTIONS])
        assert model_entropy(state) == pytest.approx(2 * math.log(3))


class TestBetaSchedule:
    def test_cosine_anchors_exact(self):
        assert beta_schedule(0.0, 0.5) == 0.0
        assert beta_schedule(1.0, 0.5) == 0.5
        assert beta_schedule(0.5, 0.5) == 0.25

    def test_cosine_monotone(self):
        xs = np.linspace(0, 1, 501)
        ys = [beta_schedule(float(s), 0.7) for s in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_constant_kind(self):
        assert beta_schedule(0.3, 0.5, kind="constant") == 0.5

    def test_out_of_range_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert beta_schedule(1.5, 0.5) == 0.5
        with pytest.warns(UserWarning):
            assert beta_schedule(-0.1, 0.5) == 0.0

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            beta_schedule(0.5, -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            beta_schedule(0.5, 0.5, kind="linear")


class TestAdvantage:
    def test_first_reward_initializes_baseline(self):
        state = make_controller(["a"], [OPTIONS])
        assert advantage_update(state, 0.7) == 0.0
        assert state.reward_baseline == 0.7

    def test_ema_example(self):
        state = make_controller(["a"], [OPTIONS])
        state.reward_baseline = 0.4
        adv = advantage_update(state, 0.5)
        assert adv == pytest.approx(0.1)
        assert state.reward_baseline == pytest.approx(0.41)

    def test_advantage_uses_pre_update_baseline(self):
        state = make_controller(["a"], [OPTIONS])
        state.reward_baseline = 0.0
        assert advantage_update(state, 1.0) == pytest.approx(1.0)

    def test_non_finite_reward_rejected(self):
        state = make_controller(["a"], [OPTIONS])
        with pytest.raises(DomainError):
            advantage_update(state, float("nan"))


class TestSampling:
    def test_uniform_during_warmup(self):
        state = make_controller(["a"], [OPTIONS], warmup_fraction=0.5)
        state.policies[0].logits = np.array([10.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        for _ in range(3000):
            counts[sample_architecture(state, rng, 0.1)[0]] += 1
        # despite peaked logits, warmup sampling stays near uniform
        assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)

    def test_policy_sampling_after_warmup(self):
        state = make_controller(["a"], [OPTIONS], warmup_fraction=0.25)
        state.policies[0].logits = np.array([5.0, 0.0, -5.0])
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        for _ in range(2000):
            counts[sample_architecture(state, rng, 0.5)[0]] += 1
        p = softmax(state.policies[0].logits)
        assert counts[0] / 2000 == pytest.approx(p[0], abs=0.02)

    def test_stream_length_independent_of_phase(self):
        # the same generator state gives the same downstream draws whether a
        # step sampled uniformly or from the policy
        state = make_controller(["a", "b"], [OPTIONS, OPTIONS])
        r1 = np.random.default_rng(42)
        r2 = np.random.default_rng(42)
        sample_architecture(state, r1, 0.0)   # warmup step
        sample_architecture(state, r2, 0.9)   # policy step
        assert r1.random() == r2.random()

    def test_arch_from_indices(self):
        state = make_controller(["a"], [OPTIONS])
        assert arch_from_indices(state, [2])[0] is OPTIONS[2]


class TestPolicyGradient:
    def test_plain_sgd_hand_example(self):
        state = make_controller(
            ["a"], [OPTIONS[:2]], optimizer="sgd",
            adam=AdamParams(lr=1.0),
        )
        reinforce_step(state, [0], advantage=1.0, beta=0.0)
        assert np.allclose(state.policies[0].logits, [0.5, -0.5])

    def test_zero_advantage_zero_beta_is_noop(self):
        state = make_controller(["a"], [OPTIONS], optimizer="sgd")
        reinforce_step(state, [1], advantage=0.0, beta=0.0)
        assert np.array_equal(state.policies[0].logits, np.zeros(3))

    def test_entropy_term_sharpens_peaked_policy(self):
        # with zero advantage the entropy penalty pushes a peaked policy
        # further apart (toward lower entropy), not back toward uniform
        policy = LayerPolicy("a", OPTIONS[:2], logits=np.array([5.0, -5.0]))
        (g,) = policy_gradient([policy], [0], advantage=0.0, beta=0.5)
        assert g[0] > 0.0
        assert g[1] < 0.0

    def test_entropy_term_vanishes_at_uniform_gradient_sum(self):
        # gradient components always sum to zero (softmax reparameterization)
        policy = LayerPolicy("a", OPTIONS, logits=np.array([1.0, 0.3, -0.7]))
        (g,) = policy_gradient([policy], [1], advantage=0.8, beta=0.4)
        assert float(g.sum()) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_index_rejected(self):
        policy = LayerPolicy("a", OPTIONS)
        with pytest.raises(DomainError):
            policy_gradient([policy], [3], advantage=1.0, beta=0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        h = 1e-6
        for _ in range(100):
            k = int(rng.integers(2, 6))
            logits = rng.normal(0, 2, size=k)
            idx = int(rng.integers(k))
            adv = float(rng.normal(0, 1))
            beta = float(rng.uniform(0, 1))
            policy = LayerPolicy("a", [ArchChoice(int_format(4))] * k, logits=logits.copy())
            (g,) = policy_gradient([policy], [idx], adv, beta)
            num = np.zeros(k)
            for j in range(k):
                up = LayerPolicy("a", policy.option_set, logits=logits.copy())
                up.logits[j] += h
                dn = LayerPolicy("a", policy.option_set, logits=logits.copy())
                dn.logits[j] -= h
                num[j] = (objective([up], [idx], adv, beta)
                          - objective([dn], [idx], adv, beta)) / (2 * h)
            rel = np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-9)
            assert rel < 1e-5, rel


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update lr * sign(g) regardless of g scale
        state = make_controller(["a"], [OPTIONS[:2]], adam=AdamParams(lr=0.01))
        reinforce_step(state, [0], advantage=2.0, beta=0.0)
        logits = state.policies[0].logits
        assert logits[0] == pytest.approx(0.01, rel=1e-4)
        assert logits[1] == pytest.approx(-0.01, rel=1e-4)

    def test_step_count_advances(self):
        state = make_controller(["a"], [OPTIONS])
        reinforce_step(state, [0], 1.0, 0.0)
        reinforce_step(state, [0], 1.0, 0.0)
        assert state.step_count == 2

    def test_defaults_match_search_settings(self):
        a = AdamParams()
        assert a.lr == 4.6e-3
        assert a.beta1 == 0.95
        assert a.beta2 == 0.999
        assert a.eps == 1e-8


class TestValidation:
    def test_empty_option_set(self):
        with pytest.raises(DomainError):
            LayerPolicy("a", [])

    def test_bad_warmup_fraction(self):
        with pytest.raises(DomainError):
            make_controller(["a"], [OPTIONS], warmup_fraction=1.0)

    def test_bad_optimizer(self):
        with pytest.raises(DomainError):
            make_controller(["a"], [OPTIONS], optimizer="rmsprop")

    def test_logits_shape_mismatch(self):
        with pytest.raises(DomainError):
            LayerPolicy("a", OPTIONS, logits=np.zeros(2))


class TestBandit:
    def test_converges_to_designated_options(self):
        # spot-check two seeds here; the acceptance suite runs all ten
        for seed in (0, 1):
            state = _bandit(seed, beta_end=0.0)
            for policy, want in zip(state.policies, DESIGNATED):
                p = policy.probs()
                assert policy.argmax() == want
                assert p[want] > 0.9

    def test_entropy_regularization_lowers_final_entropy(self):
        h_free = model_entropy(_bandit(0, beta_end=0.0))
        h_reg = model_entropy(_bandit(0, beta_end=0.5))
        assert h_reg < h_free
