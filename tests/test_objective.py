"""Adaptation losses, their frozen-value gradients, and controller updates."""

import numpy as np
import pytest

from ehmc.entropy import MidpointOperator, roulette_pass
from ehmc.integrator import Trajectory, trajectory_reparam
from ehmc.objective import (
    AdaptConfig,
    AdaptState,
    _endpoint_pieces,
    adam_update,
    default_adapt_config,
    esjd_gradient,
    gsm_gradient,
    jump_value,
    l2hmc_gradient,
    make_adapt_state,
    update_beta,
    update_gamma,
    update_lambda,
)
from ehmc.precond import Preconditioner, make_preconditioner, n_params
from ehmc.targets import TargetModel, gaussian_target

from _oracles import (
    esjd_loss,
    esjd_surrogate_loss,
    fd_theta_gradient,
    flat_model,
    gsm_surrogate_loss,
    l2hmc_loss,
    l2hmc_surrogate_loss,
    relative_error,
    roulette_logdet_estimate,
    with_theta,
)


def make_case(kind, d, L, h, seed, sign=None, cov_spread=0.5):
    """1-row trajectory block + roulette draw on a random Gaussian,
    optionally filtered by the sign of the energy error."""
    rng = np.random.default_rng(seed)
    m = gaussian_target(covariance=np.exp(rng.normal(0, cov_spread, d)))
    p = Preconditioner(kind, d, rng.normal(0, 0.2, n_params(kind, d)))
    for _ in range(200):
        q0 = rng.standard_normal(d)
        v = rng.standard_normal(d)
        traj = trajectory_reparam(q0[None], v[None], h, L, p, m)
        if sign is None or (sign == "+" and traj.delta[0] > 1e-6) or (
            sign == "-" and traj.delta[0] < -1e-6
        ):
            break
    dl = MidpointOperator(traj.midpoint[0], p, m, h, L)
    draw = roulette_pass(dl, d, rng)
    return m, p, traj, draw


def stable_seed(*parts):
    # deterministic across processes, unlike hash() on strings
    return sum((i + 1) * sum(s.encode()) for i, s in enumerate(map(str, parts))) % 1000


def manual_traj(q0, qL, delta, h=0.5):
    d = len(q0)
    q = np.stack([np.asarray(q0, float), np.asarray(qL, float)])
    return Trajectory(q=q, grads=np.zeros((2, d)), v=np.zeros(d), w=np.zeros(d), h=h, L=1,
                      delta=delta)


# ----------------------------------------------------------- GSM loss value


def test_gsm_loss_flat_case():
    # zero potential: delta = 0, operator = 0, identity factor
    d, h, L = 3, 0.4, 4
    m = flat_model(d)
    p = make_preconditioner("diagonal", d)
    rng = np.random.default_rng(0)
    traj = trajectory_reparam(rng.standard_normal(d), rng.standard_normal(d), h, L, p, m)
    draw = roulette_pass(MidpointOperator(traj.midpoint, p, m, h, L), d, rng)
    state = make_adapt_state(p)
    state.beta = 1.7
    loss, parts = gsm_surrogate_loss(traj, draw, state, p, m)
    assert np.isclose(loss, -1.7 * d * np.log(h), atol=1e-12)
    assert parts["energy"] == 0.0
    assert parts["entropy"] == 0.0
    assert parts["penalty"] == 0.0
    assert np.isclose(parts["logdet"], d * np.log(h))


def test_gsm_loss_beta_linearity():
    m, p, traj, draw = make_case("dense", 4, 5, 0.25, seed=3)
    state = make_adapt_state(p)
    state.beta = 0.8
    l1, parts = gsm_surrogate_loss(traj.row(0), draw, state, p, m)
    state.beta = 1.6
    l2, _ = gsm_surrogate_loss(traj.row(0), draw, state, p, m)
    assert np.isclose(l2 - parts["energy"], 2.0 * (l1 - parts["energy"]), rtol=1e-12)


def test_gsm_entropy_loss_term_closed_form():
    # 1-d: D_L is the scalar c, so y^T D eps collapses to a finite sum
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    rng = np.random.default_rng(4)
    traj = trajectory_reparam(np.array([0.3]), np.array([0.2]), 0.5, 3, p, m)
    draw = roulette_pass(MidpointOperator(traj.midpoint, p, m, 0.5, 3), 1, rng)
    state = make_adapt_state(p)
    _, parts = gsm_surrogate_loss(traj, draw, state, p, m)
    c = -1.0 / 3.0
    k = np.arange(1, draw.n_terms + 1)
    expected = float(np.sum((-1.0) ** k * c ** (k + 1) / draw.survival))
    assert np.isclose(parts["entropy"], expected, atol=1e-14)


def test_gsm_entropy_reported_value_large_n():
    # deep truncation floor makes the 1/k-weighted reported estimate
    # deterministic: it is the log(1 + c) Taylor series nearly in full
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    rng = np.random.default_rng(5)
    dl = MidpointOperator(np.zeros(1), p, m, 0.5, 3)
    draw = roulette_pass(dl, 1, rng, n_min=200)
    assert np.isclose(roulette_logdet_estimate(draw), np.log(2.0 / 3.0), atol=1e-10)


# ----------------------------------------------------- GSM gradient checks


def test_gsm_gradient_degenerate_draw():
    # a zero Hessian zeroes the first series term: the draw keeps H C eps
    # and a zero H C y but has no mu probe, so the gradient makes no hvp
    # call and only the log-det part is left
    calls = []
    base = flat_model(3)
    m = TargetModel(dim=3, potential=base.potential, grad=base.grad,
                    hvp=lambda q, w: calls.append(1) or base.hvp(q, w))
    p = make_preconditioner("dense", 3)
    traj = trajectory_reparam(np.array([[0.3, -0.1, 0.2]]), np.array([[0.2, 0.5, -1.0]]),
                              0.4, 3, p, m)
    draw = roulette_pass(MidpointOperator(traj.midpoint[0], p, m, 0.4, 3), 3,
                         np.random.default_rng(6))
    assert draw.degenerate and draw.hvp_eps is not None and draw.hvp_b is None
    assert np.array_equal(draw.hvp_y, np.zeros(3))
    assert traj.delta[0] <= 0.0
    state = make_adapt_state(p)
    state.gamma = 2e3
    calls.clear()
    out = gsm_gradient(traj, [draw], state, p)[0]
    assert not calls
    expected = np.zeros_like(p.theta)
    p.accumulate_logdet_grad(expected, -state.beta)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("kind,d", [("diagonal", 5), ("dense", 6), ("banded", 6)])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_gsm_gradient_matches_fd(kind, d, sign):
    L = 3 if kind == "diagonal" else 4
    m, p, traj, draw = make_case(kind, d, L, 0.3, seed=stable_seed(kind, sign), sign=sign)
    state = make_adapt_state(p)
    state.beta = 0.9
    state.gamma = 2e3
    grad = gsm_gradient(traj, [draw], state, p)[0]
    fd = fd_theta_gradient(
        lambda th: gsm_surrogate_loss(traj.row(0), draw, state, with_theta(p, th), m)[0],
        p.theta,
    )
    assert relative_error(grad, fd) < 1e-5


def test_gsm_gradient_with_active_penalty():
    # large h drives |mu| past the threshold so the penalty branch engages
    m, p, traj, draw = make_case("diagonal", 5, 5, 1.1, seed=42, cov_spread=0.8)
    state = make_adapt_state(p)
    state.gamma = 5e3
    _, parts = gsm_surrogate_loss(traj.row(0), draw, state, p, m)
    assert parts["penalty"] > 0.0
    grad = gsm_gradient(traj, [draw], state, p)[0]
    fd = fd_theta_gradient(
        lambda th: gsm_surrogate_loss(traj.row(0), draw, state, with_theta(p, th), m)[0],
        p.theta,
    )
    assert relative_error(grad, fd) < 1e-5


def test_gsm_gradient_zero_when_beta_zero_and_no_energy():
    m, p, traj, draw = make_case("diagonal", 4, 3, 0.2, seed=8, sign="-")
    state = AdaptState(precond=p, config=AdaptConfig())
    state.beta = 0.0
    grad = gsm_gradient(traj, [draw], state, p)[0]
    assert np.array_equal(grad, np.zeros_like(p.theta))


# ------------------------------------------------------ competing objectives


def test_esjd_zero_cases():
    # zero acceptance
    t = manual_traj([0.0], [3.0], delta=np.inf)
    assert esjd_loss(t) == 0.0
    # zero displacement
    t = manual_traj([1.0, 2.0], [1.0, 2.0], delta=-0.2)
    assert esjd_loss(t) == 0.0


def test_esjd_value():
    t = manual_traj([0.0], [2.0], delta=0.0)
    assert np.isclose(esjd_loss(t), -4.0)


def test_l2hmc_hand_example():
    # a = 1, squared jump 4, moving average 2 -> -(2 - 1/2)
    t = manual_traj([0.0], [2.0], delta=0.0)
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    state.lambda_ma = 2.0
    assert np.isclose(l2hmc_loss(t, state), -1.5)


def test_l2hmc_floor_guards_zero_jump():
    t = manual_traj([1.0], [1.0], delta=-0.1)
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    state.lambda_ma = 2.0
    val = l2hmc_loss(t, state)
    assert np.isfinite(val)
    assert np.isclose(val, 2.0 / 1e-8)


@pytest.mark.parametrize("kind,d", [("diagonal", 5), ("dense", 6), ("banded", 6)])
def test_esjd_gradient_matches_fd(kind, d):
    m, p, traj, _ = make_case(kind, d, 4, 0.3, seed=stable_seed(kind, 'esjd'), sign="+")
    grad = esjd_gradient(traj, p)[0]
    fd = fd_theta_gradient(
        lambda th: esjd_surrogate_loss(traj.row(0), with_theta(p, th), m), p.theta
    )
    assert relative_error(grad, fd) < 1e-5


@pytest.mark.parametrize("kind,d", [("diagonal", 5), ("dense", 6), ("banded", 6)])
def test_l2hmc_gradient_matches_fd(kind, d):
    m, p, traj, _ = make_case(kind, d, 4, 0.3, seed=stable_seed(kind, 'l2hmc'), sign="+")
    state = make_adapt_state(p)
    state.lambda_ma = 1.3
    grad = l2hmc_gradient(traj, jump_value(traj), state, p)[0]
    fd = fd_theta_gradient(
        lambda th: l2hmc_surrogate_loss(traj.row(0), state, with_theta(p, th), m), p.theta
    )
    assert relative_error(grad, fd) < 1e-5


@pytest.mark.parametrize("kind", ["diagonal", "dense", "banded"])
def test_endpoint_pieces(kind):
    # x = h^2 xi + (L h^2 / 2) g_0 with xi = sum_{i=1}^{L-1} (L - i) g_i,
    # one row per chain, and C^T x with the bits of the factor map
    rng = np.random.default_rng(stable_seed(kind, "pieces"))
    d, h, L = 4, 0.1, 7
    m = gaussian_target(covariance=np.exp(rng.normal(0, 0.5, d)))
    p = Preconditioner(kind, d, rng.normal(0, 0.2, n_params(kind, d)))
    traj = trajectory_reparam(rng.standard_normal((3, d)), rng.standard_normal((3, d)),
                              h, L, p, m)
    x, ct_x = _endpoint_pieces(traj, p)
    xi = sum((L - i) * traj.grads[i] for i in range(1, L))
    assert np.allclose(x, h * h * xi + 0.5 * L * h * h * traj.grads[0])
    assert np.array_equal(ct_x, p.rmatvec(x))


@pytest.mark.parametrize("k,d", [(1, 1), (1, 3), (4, 1), (3, 5)])
@pytest.mark.parametrize("L", [1, 2, 9, 20])
def test_endpoint_sum_bits(k, d, L):
    # xi has the bits of the running sum from 0 in step order, signed
    # zeros included, also at k d = 1, where an add reduction would sum
    # pairwise; so x has the bits of the formula in test_endpoint_pieces
    rng = np.random.default_rng(100 * L + 10 * k + d)
    h = 0.3
    for t in range(20):
        grads = rng.standard_normal((L + 1, k, d)) * np.exp(rng.normal(0, 8, (L + 1, k, d)))
        grads[rng.random(grads.shape) < 0.1 * (t % 10)] = -0.0
        traj = Trajectory(q=None, grads=grads, v=np.zeros((k, d)), w=None, h=h, L=L)
        xi = np.zeros((k, d))
        for i in range(1, L):
            xi += (L - i) * grads[i]
        want = h * h * xi + 0.5 * L * h * h * grads[0]
        x, _ = _endpoint_pieces(traj, make_preconditioner("diagonal", d))
        assert np.array_equal(x, want) and np.array_equal(np.signbit(x), np.signbit(want))


def block_case(kind, d, h, L):
    """A 4-row trajectory block on a random Gaussian, two rows with a
    positive and two with a negative energy error, and a roulette draw
    per row."""
    rng = np.random.default_rng(stable_seed(kind, "block"))
    m = gaussian_target(covariance=np.exp(rng.normal(0, 0.5, d)))
    p = Preconditioner(kind, d, rng.normal(0, 0.2, n_params(kind, d)))
    starts = {"+": [], "-": []}
    while min(len(rows) for rows in starts.values()) < 2:
        q0, v = rng.standard_normal(d), rng.standard_normal(d)
        delta = trajectory_reparam(q0[None], v[None], h, L, p, m).delta[0]
        if abs(delta) > 1e-6:
            starts["+" if delta > 0 else "-"].append((q0, v))
    rows = starts["+"][:2] + starts["-"][:2]
    traj = trajectory_reparam(np.stack([q0 for q0, _ in rows]),
                              np.stack([v for _, v in rows]), h, L, p, m)
    draws = [roulette_pass(MidpointOperator(traj.midpoint[i], p, m, h, L), d, rng)
             for i in range(len(rows))]
    return m, p, traj, draws


def test_multi_chain_gradient_linearity():
    # every row of all three gradients on a block with mixed energy-error
    # signs, and their average, against finite differences of that row's
    # own loss, so the per-row branches meet an independent check
    for kind, d in [("diagonal", 4), ("dense", 5), ("banded", 5)]:
        m, p, traj, draws = block_case(kind, d, 0.3, 3)
        assert traj.live.all() and list(traj.delta > 0) == [True, True, False, False]
        state = make_adapt_state(p)
        state.lambda_ma = 1.3
        blocks = (
            (gsm_gradient(traj, draws, state, p),
             lambda i, q: gsm_surrogate_loss(traj.row(i), draws[i], state, q, m)[0]),
            (esjd_gradient(traj, p), lambda i, q: esjd_surrogate_loss(traj.row(i), q, m)),
            (l2hmc_gradient(traj, jump_value(traj), state, p),
             lambda i, q: l2hmc_surrogate_loss(traj.row(i), state, q, m)),
        )
        for grads, loss in blocks:
            assert grads.shape == (traj.live.size, p.theta.size)
            fds = [fd_theta_gradient(lambda th: loss(i, with_theta(p, th)), p.theta)
                   for i in range(traj.live.size)]
            for grad, fd in zip(grads, fds):
                assert relative_error(grad, fd) < 1e-5
            assert relative_error(grads.mean(axis=0), np.mean(fds, axis=0)) < 1e-5


def test_branch_off_rows_ignore_non_finite_pieces():
    # a row whose energy error is +inf (its final velocity overflowed, say)
    # holds no energy branch and, with a = 0, no jump branch: those terms
    # add nothing to it, so its ESJD gradient is exactly 0 and its GSM
    # gradient is the one it gets with a finite w and a negative error,
    # while the other rows keep their bits
    for kind, d in [("diagonal", 4), ("dense", 5), ("banded", 5)]:
        m, p, traj, draws = block_case(kind, d, 0.3, 3)
        state = make_adapt_state(p)
        gsm, esjd = gsm_gradient(traj, draws, state, p), esjd_gradient(traj, p)
        traj.delta = traj.delta.copy()
        traj.delta[3] = np.inf
        traj.w = traj.w.copy()
        traj.w[3] = np.inf
        got_gsm, got_esjd = gsm_gradient(traj, draws, state, p), esjd_gradient(traj, p)
        assert np.array_equal(got_gsm, gsm)
        assert np.array_equal(got_esjd[:3], esjd[:3]) and not got_esjd[3].any()


# ------------------------------------------------------------------- adam


def test_adam_zero_gradient_noop():
    p = make_preconditioner("dense", 3)
    state = make_adapt_state(p)
    theta0 = p.theta.copy()
    for _ in range(5):
        adam_update(state, np.zeros_like(theta0))
    assert np.array_equal(state.precond.theta, theta0)


def test_adam_first_step_magnitude():
    p = Preconditioner("diagonal", 4, np.zeros(4))
    state = make_adapt_state(p)
    g = np.array([3.0, -0.5, 1e-3, -7.0])
    adam_update(state, g)
    step = state.precond.theta
    expected = -state.config.rho_theta * np.sign(g)
    assert np.max(np.abs(step - expected)) < 1e-6


def test_adam_nonfinite_skip():
    p = make_preconditioner("diagonal", 2)
    state = make_adapt_state(p)
    theta0 = p.theta.copy()
    adam_update(state, np.array([np.nan, 1.0]))
    assert np.array_equal(state.precond.theta, theta0)
    assert state.skip_count == 1
    assert state.step == 0


def test_default_learning_rates():
    assert default_adapt_config("diagonal").rho_theta == 1e-2
    assert default_adapt_config("dense").rho_theta == 1e-3
    assert default_adapt_config("banded").rho_theta == 1e-3


# -------------------------------------------------------------- controllers


def test_beta_update_examples():
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    state.beta = 1.0
    update_beta(state, state.config.alpha_star)
    assert state.beta == 1.0
    update_beta(state, 1.0)
    assert np.isclose(state.beta, 1.0066)
    state.beta = 100.0
    update_beta(state, 1.0)
    assert state.beta == 100.0
    state.beta = 0.01
    update_beta(state, 0.0)
    assert state.beta == 0.01


def test_beta_monotone_growth_above_target():
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    trace = []
    for _ in range(1000):
        update_beta(state, 1.0)
        trace.append(state.beta)
    assert np.all(np.diff(trace) >= 0)
    assert trace[-1] == 100.0


def test_gamma_update():
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    assert state.gamma == 1e3
    update_gamma(state, 1.0)
    assert np.isclose(state.gamma, 1100.0)
    update_gamma(state, 0.0)
    assert np.isclose(state.gamma, 1100.0)
    state.gamma = 1e5
    update_gamma(state, 10.0)
    assert state.gamma == 1e5


def test_lambda_moving_average():
    p = make_preconditioner("diagonal", 1)
    state = make_adapt_state(p)
    assert state.lambda_ma is None
    update_lambda(state, 3.0)
    assert state.lambda_ma == 3.0
    rng = np.random.default_rng(6)
    tail = []
    for i in range(10000):
        update_lambda(state, float(rng.uniform(1.0, 3.0)))
        if i >= 8000:
            tail.append(state.lambda_ma)
    assert abs(np.mean(tail) - 2.0) / 2.0 < 0.05


def test_state_validation():
    p = make_preconditioner("diagonal", 2)
    with pytest.raises(ValueError):
        AdaptState(precond=p, config=AdaptConfig(), beta=1e3)
    with pytest.raises(ValueError):
        AdaptState(precond=p, config=AdaptConfig(), gamma=1.0)
