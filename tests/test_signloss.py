"""Sign-weighted cross-entropy: values, branches, and gradients."""

import math

import numpy as np

from ecgdx.signloss import EPS, sign_coeff, sign_loss, sign_loss_grad


class TestSignCoeff:
    def test_exact_prediction(self):
        assert sign_coeff(1.0, 1.0) == 0.0

    def test_near_branch_hand_value(self):
        # 1 - 2*0.8 + 0.64
        assert abs(sign_coeff(0.8, 1.0) - 0.04) < 1e-15

    def test_far_branch(self):
        assert sign_coeff(0.6, 0.0) == 1.0

    def test_boundary_uses_far_branch(self):
        assert sign_coeff(0.5, 1.0) == 1.0
        assert sign_coeff(0.5, 0.0) == 1.0

    def test_equals_squared_error_on_near_branch(self):
        p = np.linspace(0.0, 1.0, 10001)
        for y in (0.0, 1.0):
            near = np.abs(y - p) < 0.5
            got = sign_coeff(p, np.full_like(p, y))
            np.testing.assert_allclose(got[near], (y - p[near]) ** 2, atol=1e-15)
            np.testing.assert_array_equal(got[~near], 1.0)

    def test_range_and_jump(self):
        p = np.linspace(0.0, 1.0, 10001)
        for y in (0.0, 1.0):
            c = sign_coeff(p, np.full_like(p, y))
            near = np.abs(y - p) < 0.5
            assert np.all(c[near] >= 0.0) and np.all(c[near] < 0.25)
            assert np.all(c[~near] == 1.0)
        # jump height at the branch point: 1 - 0.25
        inside = sign_coeff(np.nextafter(0.5, 1.0), 1.0)
        assert abs(1.0 - inside - 0.75) < 1e-6


class TestSignLoss:
    def test_perfect_prediction_vanishes(self):
        y = np.array([[1.0, 0.0, 1.0]])
        total, per_label = sign_loss(y.copy(), y)
        assert total < 1e-5
        assert per_label.shape == (1, 3)

    def test_single_label_hand_values(self):
        total, _ = sign_loss(np.array([[0.8]]), np.array([[1.0]]))
        assert abs(total - 0.04 * (-math.log(0.8))) < 1e-12
        assert abs(total - 0.0089257) < 1e-6
        total, _ = sign_loss(np.array([[0.6]]), np.array([[0.0]]))
        assert abs(total - (-math.log(0.4))) < 1e-12
        assert abs(total - 0.9162907) < 1e-6

    def test_never_exceeds_plain_bce(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.01, 0.99, size=(64, 27))
        y = rng.integers(0, 2, size=(64, 27)).astype(float)
        _, per_label = sign_loss(p, y)
        bce = -(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert np.all(per_label <= bce + 1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.01, 0.99, size=(8, 27))
        y = rng.integers(0, 2, size=(8, 27)).astype(float)
        perm = rng.permutation(27)
        total_a, per_a = sign_loss(p, y)
        total_b, per_b = sign_loss(p[:, perm], y[:, perm])
        assert abs(total_a - total_b) < 1e-12
        np.testing.assert_allclose(per_b, per_a[:, perm], atol=1e-15)

    def test_batch_mean_label_sum_reduction(self):
        p = np.array([[0.8], [0.6]])
        y = np.array([[1.0], [0.0]])
        total, per_label = sign_loss(p, y)
        assert abs(total - per_label.sum(axis=1).mean()) < 1e-15


class TestSignLossGrad:
    def test_optimum_gradient_vanishes(self):
        g = sign_loss_grad(np.array([[1.0]]), np.array([[1.0]]))  # clamps to 1-eps
        assert abs(g[0, 0]) < 1e-5

    def test_far_branch_reduces_to_bce_gradient(self):
        g = sign_loss_grad(np.array([[0.9]]), np.array([[0.0]]))
        assert abs(g[0, 0] - 10.0) < 1e-9

    def test_near_branch_matches_finite_differences(self):
        def loss_at(p, y):
            return float(sign_loss(np.array([[p]]), np.array([[y]]))[1][0, 0])

        h = 1e-6
        for p, y in ((0.8, 1.0), (0.7, 1.0), (0.2, 0.0), (0.35, 0.0), (0.9, 0.0)):
            fd = (loss_at(p + h, y) - loss_at(p - h, y)) / (2 * h)
            g = float(sign_loss_grad(np.array([[p]]), np.array([[y]]))[0, 0])
            assert abs(g - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_random_pairs_against_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        checked = 0
        while checked < 1000:
            p = float(rng.uniform(0.01, 0.99))
            y = float(rng.integers(0, 2))
            if abs(abs(y - p) - 0.5) < 1e-3:   # keep clear of the branch jump
                continue
            g = float(sign_loss_grad(np.array([[p]]), np.array([[y]]))[0, 0])
            lp = float(sign_loss(np.array([[p + h]]), np.array([[y]]))[1][0, 0])
            lm = float(sign_loss(np.array([[p - h]]), np.array([[y]]))[1][0, 0])
            fd = (lp - lm) / (2 * h)
            assert abs(g - fd) / max(abs(fd), 1e-9) < 1e-5
            checked += 1

    def test_clamp_keeps_gradient_finite(self):
        p, y = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
        g = sign_loss_grad(p, y)
        assert np.all(np.isfinite(g))
        _, per_label = sign_loss(p, y)   # both read p clipped to [EPS, 1 - EPS]
        np.testing.assert_allclose(per_label, -math.log(EPS), rtol=1e-9)

    def test_gradient_of_the_batch_mean_total(self):
        """On a 3 x 4 batch clear of the branch point, the gradient matches
        central differences of the total, whose batch mean divides by 3."""
        p = np.array([[0.2, 0.7, 0.9, 0.35],
                      [0.6, 0.1, 0.8, 0.3],
                      [0.95, 0.4, 0.15, 0.75]])
        y = np.array([[0.0, 1.0, 0.0, 1.0],
                      [1.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, 1.0]])
        h = 1e-6
        fd = np.zeros_like(p)
        for ix in np.ndindex(p.shape):
            step = np.zeros_like(p)
            step[ix] = h
            fd[ix] = (sign_loss(p + step, y)[0] - sign_loss(p - step, y)[0]) / (2 * h)
        np.testing.assert_allclose(sign_loss_grad(p, y), fd, rtol=1e-5)
