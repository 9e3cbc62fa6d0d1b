"""Environment bounds, ground-truth comparators, and determinism."""

from dataclasses import replace

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
from ldpbandits.environments import ContextualRound
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


def world(theta_star, n_arms, seed, link=None) -> ContextualEnv:
    return ContextualEnv(np.array(theta_star), n_arms, derive_rng(seed, 0, "environment"),
                         stream(seed, 0, "reward"), link=link)


class TestContextualEnv:
    def test_single_arm_zero_regret(self):
        env = world([1.0, 0.0], 1, 0)
        for t in range(1, 50):
            rnd = env.step(t)
            assert env.instant_regret(rnd, 0) == 0.0

    def test_linear_hand_regret(self):
        env = world([1.0, 0.0], 2, 0)
        arms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        rnd = ContextualRound(arms=arms, scores=[1.0, -1.0], best_score=1.0)
        assert env.instant_regret(rnd, 1) == pytest.approx(2.0)

    def test_logistic_hand_regret(self):
        link = logistic_link()
        env = world([1.0, 0.0], 2, 0, link=link)
        arms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        rnd = ContextualRound(arms=arms, scores=[1.0, -1.0], best_score=1.0)
        assert env.instant_regret(rnd, 1) == pytest.approx(0.4621171572, abs=1e-9)

    def test_best_arm_matches_bruteforce(self):
        link = logistic_link()
        env = world([0.6, -0.8], 7, 3, link=link)
        for t in range(1, 200):
            rnd = env.step(t)
            means = [link.g(float(a @ env.theta_star)) for a in rnd.arms]
            assert rnd.scores == pytest.approx(rnd.arms @ env.theta_star, rel=1e-12, abs=1e-15)
            assert link.g(rnd.best_score) == pytest.approx(max(means), rel=1e-12)
            assert env.instant_regret(rnd, int(np.argmax(means))) == 0.0

    @pytest.mark.parametrize("glm", [False, True])
    def test_regret_is_zero_at_the_best_arm_and_never_negative(self, glm):
        # the played arm's value is the one its round was scored with, so the
        # best arm's regret is exactly 0 whatever theta*, not a rounding residue
        link = logistic_link() if glm else None
        worlds = [([0.6, -0.48, 0.64], 10), ([0.3, -0.4], 3),
                  ([-0.2, 0.1, 0.5, -0.3, 0.25], 7), ([-0.7], 4)]
        for seed, (theta_star, k) in enumerate(worlds):
            env = world(theta_star, k, 10 + seed, link=link)
            for t in range(1, 2001):
                rnd = env.step(t)
                regrets = [env.instant_regret(rnd, arm) for arm in range(k)]
                assert min(regrets) == 0.0, (theta_star, t, regrets)

    def test_glm_link_applied_once_to_the_paid_arm(self):
        # reward's mean of the paid arm is reused by instant_regret for the
        # same round and arm; any other round or arm is computed afresh
        link = logistic_link()
        calls = []

        def counted(a):
            calls.append(a)
            return link.g(a)

        env = world([0.6, -0.48, 0.64], 5, 11, link=replace(link, g=counted))
        plain = world([0.6, -0.48, 0.64], 5, 11, link=link)
        for t in range(1, 300):
            rnd, ref = env.step(t), plain.step(t)
            arm = t % 5
            assert env.reward(arm) == plain.reward(arm)
            del calls[:]
            assert env.instant_regret(rnd, arm) == plain.instant_regret(ref, arm)
            assert calls == [rnd.best_score]
            other = (arm + 1) % 5
            assert env.instant_regret(rnd, other) == plain.instant_regret(ref, other)
            assert sorted(calls[1:]) == sorted([rnd.best_score, rnd.scores[other]])

    def test_arm_norms_bounded(self):
        env = world([1.0, 0.0, 0.0], 10, 4)
        for t in range(1, 500):
            rnd = env.step(t)
            assert np.all(np.linalg.norm(rnd.arms, axis=1) <= 1.0 + 1e-12)

    def test_linear_reward_bounded(self):
        env = world([1.0, 0.0], 3, 5)
        for t in range(1, 20_000):
            env.step(t)
            y = env.reward(0)
            assert abs(y) <= 2.0 + 1e-12

    def test_logistic_reward_is_binary_with_correct_mean(self):
        link = logistic_link()
        env = world([1.0, 0.0], 2, 6, link=link)
        draws, means = [], []
        for t in range(1, 50_001):
            rnd = env.step(t)  # a reward belongs to the round step opened
            draws.append(env.reward(0))
            means.append(link.g(rnd.scores[0]))
        draws = np.array(draws)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert draws.mean() == pytest.approx(np.mean(means), abs=0.01)

    def test_seeded_determinism(self):
        a, b = world([1.0, 0.0], 5, 7), world([1.0, 0.0], 5, 7)
        for t in range(1, 20):
            ra, rb = a.step(t), b.step(t)
            assert np.array_equal(ra.arms, rb.arms)
            assert ra.scores == rb.scores and ra.best_score == rb.best_score
            assert a.reward(t % 5) == b.reward(t % 5)


def ball_points(d: int, n: int, seed: int) -> np.ndarray:
    """n arms of a d-dimensional world: n / 100 rounds of 100 arms."""
    env = world(np.zeros(d), 100, seed)
    return np.concatenate([env.step(t).arms for t in range(1, n // 100 + 1)])


class TestUnitBallSampling:
    def test_inside_ball(self):
        pts = ball_points(3, 10_000, 0)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    def test_radial_distribution(self):
        # P(|x| <= r) = r^d for uniform in the ball
        for d in (2, 3):
            radii = np.linalg.norm(ball_points(d, 200_000, d), axis=1)
            for r in (0.3, 0.5, 0.8):
                assert (radii <= r).mean() == pytest.approx(r**d, abs=0.01), (d, r)

    def test_coordinate_moments(self):
        # uniform in the ball: every coordinate has mean 0 and E[x_i x_j] is
        # 1 / (d + 2) on the diagonal, 0 off it
        for d in (2, 3):
            pts = ball_points(d, 200_000, 10 + d)
            assert np.abs(pts.mean(axis=0)).max() < 0.01, d
            second = pts.T @ pts / len(pts)
            assert np.abs(second - np.eye(d) / (d + 2)).max() < 0.01, d
