"""Environment bounds, ground-truth comparators, and determinism."""

import numpy as np
import pytest

from ldpbandits import (
    AdversarialMab,
    AffineQuadraticOracle,
    ConfigurationError,
    ContextualEnv,
    ContractViolation,
    DecisionSet,
    DrawAhead,
    QuadraticOracle,
    StochasticMab,
    derive_rng,
    logistic_link,
)
from ldpbandits.environments import _to_ball
from ldpbandits.harness import _with_best_prefix


def stream(*labels) -> DrawAhead:
    return DrawAhead(derive_rng(*labels))


class TestStochasticMab:
    def test_degenerate_bernoulli(self):
        env = StochasticMab([0.0, 1.0], stream(0, 0))
        assert all(env.sample(t, 0) == 0.0 for t in range(100))
        assert all(env.sample(t, 1) == 1.0 for t in range(100))

    def test_empirical_mean(self):
        env = StochasticMab([0.3, 0.9], stream(1, 0))
        pulls = np.array([env.sample(t, 0) for t in range(100_000)])
        assert pulls.mean() == pytest.approx(0.3, abs=0.01)

    def test_losses_in_range(self):
        env = StochasticMab([0.2, 0.7, 0.5], stream(2, 0))
        for t in range(5000):
            loss = env.sample(t, t % 3)
            assert 0.0 <= loss <= 1.0

    def test_best_arm_and_gaps(self):
        env = StochasticMab([0.5, 0.3, 0.9], stream(0, 0))
        assert np.allclose([env.instant_regret(arm) for arm in range(3)], [0.2, 0.0, 0.6])

    def test_arm_out_of_range(self):
        env = StochasticMab([0.5], stream(0, 0))
        with pytest.raises(ContractViolation):
            env.sample(1, 3)

    def test_invalid_means(self):
        with pytest.raises(ConfigurationError):
            StochasticMab([0.5, 1.2], stream(0, 0))


class TestAdversarialMab:
    def test_table_roundtrip(self):
        table = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.4]])
        env = AdversarialMab(table)
        for t in range(1, 4):
            for arm in range(2):
                assert env.sample(t, arm) == table[t - 1, arm]

    def test_best_fixed_arm(self):
        table = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.4]])
        env = AdversarialMab(table)
        _, best_prefix = _with_best_prefix(env)
        # arm 0 is best over every prefix (cumulative 1.2 vs 1.5 at the end)
        assert best_prefix.tolist() == pytest.approx([0.1, 0.9, 1.2])

    def test_fixed_gap_sequence(self):
        env = AdversarialMab.fixed_gap(4, 100, best_loss=0.3, gap=0.2)
        assert np.all(env.table[:, 0] == 0.3) and np.all(env.table[:, 1:] == 0.5)
        assert env.sample(1, 0) == 0.3
        assert env.sample(50, 3) == 0.5

    def test_switching_alternates_block_winner(self):
        env = AdversarialMab.switching(5, 1000, anchor_loss=0.45, dip_loss=0.44,
                                       off_loss=0.65, n_blocks=10)
        block = 1000 // 10
        winners = set()
        for b in range(10):
            t = b * block  # 0-indexed row at block start
            row = env.table[t]
            winner = int(np.argmin(row))
            assert row[winner] == 0.44
            winners.add(winner)
        assert winners == {1, 2, 3, 4}
        # arm 0 is still the best arm in hindsight
        assert int(np.argmin(env.table.sum(axis=0))) == 0

    @pytest.mark.parametrize("n_arms,horizon,n_blocks", [
        (5, 1000, 10), (5, 997, 10), (3, 7, 10), (2, 1, 4), (4, 123, 7),
    ])
    def test_switching_matches_loop_definition(self, n_arms, horizon, n_blocks):
        block = max(horizon // n_blocks, 1)
        table = np.full((horizon, n_arms), 0.65)
        table[:, 0] = 0.45
        for t in range(horizon):
            table[t, 1 + (min(t // block, n_blocks - 1) % (n_arms - 1))] = 0.44
        env = AdversarialMab.switching(n_arms, horizon, anchor_loss=0.45, dip_loss=0.44,
                                       off_loss=0.65, n_blocks=n_blocks)
        assert env.table.tobytes() == table.tobytes()

    def test_switching_bounds(self):
        env = AdversarialMab.switching(5, 500)
        assert np.all((env.table >= 0) & (env.table <= 1))

    def test_losses_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversarialMab(np.array([[0.5, 1.4]]))


class TestQuadraticOracle:
    def setup_method(self):
        self.dset = DecisionSet.ball(1.0, dim=2)
        self.oracle = QuadraticOracle(np.zeros(2), self.dset)

    def test_minimum_value(self):
        assert self.oracle.value(1, np.zeros(2)) == 0.0

    def test_hand_value(self):
        assert self.oracle.value(1, np.array([0.6, 0.8])) == pytest.approx(1.0)

    def test_bound_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = rng.normal(0, 1, 2)
            x = x / max(np.linalg.norm(x), 1.0)
            assert abs(self.oracle.value(1, x)) <= self.oracle.bound + 1e-12

    def test_gradient_bound_on_set(self):
        # |grad f| = 2 |x - x*| <= lipschitz everywhere on the set
        oracle = QuadraticOracle(np.array([0.3, 0.0]), self.dset)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.normal(0, 1, 2)
            x = x / max(np.linalg.norm(x), 1.0)
            assert 2 * np.linalg.norm(x - oracle.x_star) <= oracle.lipschitz + 1e-12

    def test_infeasible_query_rejected(self):
        with pytest.raises(ContractViolation):
            self.oracle.value(1, np.array([2.0, 0.0]))

    def test_optimum(self):
        x_opt, best = self.oracle.optimum(100)
        assert np.array_equal(x_opt, np.zeros(2))
        assert best == 0.0


class TestAffineQuadraticOracle:
    def test_bounds_hold(self):
        dset = DecisionSet.ball(1.0, dim=3)
        oracle = AffineQuadraticOracle(np.array([0.2, 0.0, 0.0]), dset, horizon=500,
                                       drift_norm=0.1, seed=3)
        rng = np.random.default_rng(2)
        for t in range(1, 501):
            x = rng.normal(0, 1, 3)
            x = x / max(np.linalg.norm(x), 1.0)
            assert abs(oracle.value(t, x)) <= oracle.bound + 1e-12

    def test_optimum_is_prefix_minimizer(self):
        dset = DecisionSet.ball(1.0, dim=2)
        oracle = AffineQuadraticOracle(np.zeros(2), dset, horizon=50, drift_norm=0.05, seed=1)
        x_opt, best = oracle.optimum(50)
        # compare against a dense grid search
        grid = np.linspace(-1, 1, 101)
        vals = []
        for a in grid:
            for b in grid:
                x = np.array([a, b])
                if np.linalg.norm(x) <= 1.0:
                    vals.append(sum(oracle.value(t, x) for t in range(1, 51)))
        assert best <= min(vals) + 1e-6

    def test_oblivious_sequence_fixed_by_seed(self):
        dset = DecisionSet.ball(1.0, dim=2)
        a = AffineQuadraticOracle(np.zeros(2), dset, horizon=10, seed=5)
        b = AffineQuadraticOracle(np.zeros(2), dset, horizon=10, seed=5)
        assert np.array_equal(a.drifts, b.drifts)

    def test_drift_table_drawn_once_and_read_only(self):
        dset = DecisionSet.ball(1.0, dim=2)
        a = AffineQuadraticOracle(np.zeros(2), dset, horizon=10, seed=6)
        b = AffineQuadraticOracle(np.zeros(2), dset, horizon=10, seed=6)
        assert a.drifts is b.drifts
        assert not a.drifts.flags.writeable
        other = AffineQuadraticOracle(np.zeros(2), dset, horizon=10, seed=6, drift_norm=0.2)
        assert other.drifts is not a.drifts


class TestContextualEnv:
    def test_single_arm_zero_regret(self):
        env = ContextualEnv(np.array([1.0, 0.0]), 1, derive_rng(0, 0))
        for t in range(1, 50):
            rnd = env.step(t)
            assert env.instant_regret(rnd, 0) == 0.0

    def test_linear_hand_regret(self):
        env = ContextualEnv(np.array([1.0, 0.0]), 2, derive_rng(0, 0))
        arms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        from ldpbandits.environments import ContextualRound

        rnd = ContextualRound(arms=arms, best_arm=0, best_value=1.0)
        assert env.instant_regret(rnd, 1) == pytest.approx(2.0)

    def test_logistic_hand_regret(self):
        link = logistic_link()
        env = ContextualEnv(np.array([1.0, 0.0]), 2, derive_rng(0, 0), link=link)
        arms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        from ldpbandits.environments import ContextualRound

        rnd = ContextualRound(arms=arms, best_arm=0, best_value=link.g(1.0))
        assert env.instant_regret(rnd, 1) == pytest.approx(0.4621171572, abs=1e-9)

    def test_best_arm_matches_bruteforce(self):
        link = logistic_link()
        env = ContextualEnv(np.array([0.6, -0.8]), 7, derive_rng(3, 0), link=link)
        for t in range(1, 200):
            rnd = env.step(t)
            scores = [link.g(float(a @ env.theta_star)) for a in rnd.arms]
            assert rnd.best_arm == int(np.argmax(scores))
            assert rnd.best_value == pytest.approx(max(scores), rel=1e-12)

    def test_arm_norms_bounded(self):
        env = ContextualEnv(np.array([1.0, 0.0, 0.0]), 10, derive_rng(4, 0))
        for t in range(1, 500):
            rnd = env.step(t)
            assert np.all(np.linalg.norm(rnd.arms, axis=1) <= 1.0 + 1e-12)

    def test_linear_reward_bounded(self):
        env = ContextualEnv(np.array([1.0, 0.0]), 3, derive_rng(5, 0))
        for t in range(1, 20_000):
            rnd = env.step(t)
            y = env.reward(rnd.arms[0])
            assert abs(y) <= 2.0 + 1e-12

    def test_logistic_reward_is_binary_with_correct_mean(self):
        link = logistic_link()
        env = ContextualEnv(np.array([1.0, 0.0]), 2, derive_rng(6, 0), link=link)
        x = np.array([1.0, 0.0])
        draws = []
        for t in range(1, 50_001):
            env.step(t)  # a reward belongs to the round step opened
            draws.append(env.reward(x))
        draws = np.array(draws)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert draws.mean() == pytest.approx(link.g(1.0), abs=0.01)

    def test_seeded_determinism(self):
        a = ContextualEnv(np.array([1.0, 0.0]), 5, derive_rng(7, 0, "environment"))
        b = ContextualEnv(np.array([1.0, 0.0]), 5, derive_rng(7, 0, "environment"))
        for t in range(1, 20):
            ra, rb = a.step(t), b.step(t)
            assert np.array_equal(ra.arms, rb.arms)
            assert ra.best_arm == rb.best_arm


class TestUnitBallSampling:
    def test_inside_ball(self):
        rng = derive_rng(0, 0)
        pts = _to_ball(rng.standard_normal((10_000, 3)), rng.random(10_000))
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    def test_radial_distribution(self):
        # P(|x| <= r) = r^d for uniform in the ball
        rng = derive_rng(1, 0)
        pts = _to_ball(rng.standard_normal((200_000, 2)), rng.random(200_000))
        radii = np.linalg.norm(pts, axis=1)
        for r in (0.3, 0.5, 0.8):
            assert (radii <= r).mean() == pytest.approx(r**2, abs=0.01)
