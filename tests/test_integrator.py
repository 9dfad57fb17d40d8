"""Leapfrog integration, energy error, and the residual-Jacobian recursion."""

import numpy as np
import pytest

from ehmc.integrator import (
    Trajectory,
    energy_error,
    row_dot,
    trajectory_reparam,
)
from ehmc.precond import KINDS, Preconditioner, make_preconditioner, n_params
from ehmc.targets import TargetModel, gaussian_target, logistic_target, simulate_logistic_data

from _oracles import (
    accept_prob,
    ds_recursion,
    flat_model,
    leapfrog_direct,
    logged_model,
    residual_jacobian_fd,
    surrogate_endpoint,
)


def test_free_particle():
    m = flat_model(1)
    p = make_preconditioner("diagonal", 1)
    qL, pL = leapfrog_direct(np.zeros(1), np.ones(1), 0.1, 10, p, m)
    assert np.isclose(qL[0], 1.0)
    assert np.isclose(pL[0], 1.0)
    traj = trajectory_reparam(np.zeros(1), np.ones(1), 0.1, 10, p, m)
    assert np.isclose(traj.delta, 0.0)
    assert traj.accept_prob == 1.0


def test_hand_example_1d_gaussian():
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    qL, pL = leapfrog_direct(np.array([1.0]), np.array([0.0]), 1.0, 1, p, m)
    assert np.isclose(qL[0], 0.5)
    assert np.isclose(pL[0], -0.75)


def test_hand_example_energy_error():
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    traj = trajectory_reparam(np.array([1.0]), np.array([0.0]), 1.0, 1, p, m)
    assert np.isclose(traj.delta, -0.09375)
    assert np.isclose(energy_error(traj, m), -0.09375)


def test_reversibility():
    rng = np.random.default_rng(0)
    m = gaussian_target(covariance=np.array([1.0, 4.0, 0.5]))
    p = Preconditioner("dense", 3, rng.normal(0, 0.2, n_params("dense", 3)))
    q0 = rng.standard_normal(3)
    p0 = rng.standard_normal(3)
    qL, pL = leapfrog_direct(q0, p0, 0.15, 8, p, m)
    qb, pb = leapfrog_direct(qL, -pL, 0.15, 8, p, m)
    assert np.max(np.abs(qb - q0)) < 1e-10
    assert np.max(np.abs(-pb - p0)) < 1e-10


def test_stationary_point():
    m = gaussian_target(precision=np.eye(2))
    p = make_preconditioner("diagonal", 2)
    traj = trajectory_reparam(np.zeros(2), np.zeros(2), 0.3, 6, p, m)
    assert np.allclose(traj.q[-1], 0.0)
    assert np.isclose(traj.delta, 0.0)


def test_mala_reduction_at_l1():
    rng = np.random.default_rng(1)
    m = gaussian_target(covariance=np.array([2.0, 0.5]))
    p = Preconditioner("diagonal", 2, rng.normal(0, 0.3, 2))
    q0 = rng.standard_normal(2)
    v = rng.standard_normal(2)
    h = 0.25
    traj = trajectory_reparam(q0, v, h, 1, p, m)
    expected = q0 - 0.5 * h * h * p.matvec(p.rmatvec(m.grad(q0))) + h * p.matvec(v)
    assert np.max(np.abs(traj.q[1] - expected)) < 1e-12


@pytest.mark.parametrize("kind", ["diagonal", "dense", "banded"])
def test_reparam_matches_direct(kind):
    rng = np.random.default_rng(5)
    for trial in range(6):
        d = int(rng.integers(1, 21))
        L = int(rng.integers(1, 21))
        h = float(rng.uniform(0.01, 0.2))
        cov = np.exp(rng.normal(0, 0.5, d))
        m = gaussian_target(covariance=cov)
        p = Preconditioner(kind, d, rng.normal(0, 0.2, n_params(kind, d)))
        q0 = rng.standard_normal(d)
        v = rng.standard_normal(d)
        traj = trajectory_reparam(q0, v, h, L, p, m)
        q_direct, p_direct = leapfrog_direct(q0, p.solve_t(v), h, L, p, m)
        scale = max(1.0, np.max(np.abs(q_direct)))
        assert np.max(np.abs(traj.q[-1] - q_direct)) / scale < 1e-10
        # endpoint identity from the cached accumulators
        assert np.max(np.abs(surrogate_endpoint(traj, p) - traj.q[-1])) / scale < 1e-10
        # final velocity consistency: w = C^T p_L
        assert np.max(np.abs(traj.w - p.rmatvec(p_direct))) < 1e-9


def test_trajectory_caches():
    rng = np.random.default_rng(2)
    m = gaussian_target(covariance=np.array([1.0, 2.0]))
    p = make_preconditioner("diagonal", 2)
    traj = trajectory_reparam(rng.standard_normal(2), rng.standard_normal(2), 0.1, 7, p, m)
    assert traj.q.shape == (8, 2)
    assert traj.grads.shape == (8, 2)
    for i in range(8):
        assert np.allclose(traj.grads[i], m.grad(traj.q[i]))
    assert np.allclose(traj.midpoint, traj.q[3])


def test_divergence_stops_at_step():
    # one divergence rule for one chain and for a row of a block: a NaN
    # gradient at step s stops the chain there, with no target call past
    # s and no potential, live False, delta +inf and zero gradients from
    # s on; its positions up to s are the leapfrog's.  In the block the
    # other row finishes
    d = 2

    def bad_grad(q):
        if np.max(np.abs(q)) > 1.5:
            return np.full(d, np.nan)
        return q

    base = TargetModel(dim=d, potential=lambda q: 0.5 * float(q @ q), grad=bad_grad,
                       hvp=lambda q, w: w)
    p = make_preconditioner("diagonal", 2)
    q0, v, h, L = np.array([1.4, 0.0]), np.array([8.0, 0.0]), 0.5, 5
    q = [q0]
    u = v - 0.5 * h * p.rmatvec(bad_grad(q0))
    while np.isfinite(bad_grad(q[-1])).all():
        q.append(q[-1] + h * p.matvec(u))
        u = u - h * p.rmatvec(bad_grad(q[-1]))
    s = len(q) - 1
    assert 1 <= s < L
    for form in ("chain", "block"):
        model, log = logged_model(base)
        if form == "chain":
            traj = trajectory_reparam(q0, v, h, L, p, model)
        else:
            block = trajectory_reparam(np.stack([q0, [0.1, 0.2]]), np.stack([v, [0.3, -0.2]]),
                                       h, L, p, model)
            assert block.live.tolist() == [False, True]
            assert np.isfinite(block.delta[1]) and block.u_end[1] is not None
            traj = block.row(0)
        assert traj.live is False and traj.delta == np.inf and traj.accept_prob == 0.0
        assert traj.u0 is None and traj.u_end is None
        assert np.array_equal(traj.q[: s + 1], np.stack(q))
        assert np.array_equal(traj.grads[:s], [bad_grad(x) for x in q[:s]])
        assert not traj.grads[s:].any()
        calls = [x.tobytes() for x in q]
        if form == "chain":
            assert log["grad"] == calls and log["potential"] == []
        else:
            assert [c for c in log["grad"] if c in calls] == calls
            assert len(log["grad"]) == len(calls) + L + 1 and len(log["potential"]) == 2


def test_energy_error_nonfinite_potential():
    d = 1

    def pot(q):
        return np.inf if abs(q[0]) > 2.0 else 0.5 * float(q @ q)

    m = TargetModel(dim=d, potential=pot, grad=lambda q: q, hvp=lambda q, w: w)
    p = make_preconditioner("diagonal", 1)
    traj = trajectory_reparam(np.array([0.0]), np.array([30.0]), 0.2, 1, p, m)
    assert traj.delta == np.inf
    assert traj.accept_prob == 0.0


EDGE_DELTAS = [-1e308, -700.0, -0.0, 0.0, 708.0, 745.0, 745.2, 746.0, 1000.0, np.inf]


def unit_trajectory(k=None, **delta):
    # a one-step trajectory in one dimension (a block of k rows if k is
    # given) with the energy error delta, if given
    shape = (2, 1) if k is None else (2, k, 1)
    return Trajectory(q=np.zeros(shape), grads=np.zeros(shape), v=np.zeros(shape[1:]),
                      w=np.zeros(shape[1:]), h=0.1, L=1, **delta)


def test_accept_prob_matches_reference():
    # one expression for a chain and a block gives every delta the
    # bits of min(1, exp(-delta)) clamped at -700 and 0 when non-finite
    rng = np.random.default_rng(31)
    random = rng.standard_normal(200) * 10.0 ** rng.uniform(-3, 3, 200)
    deltas = np.concatenate([EDGE_DELTAS, random])
    for delta in deltas:
        assert np.array_equal(unit_trajectory(delta=float(delta)).accept_prob,
                              accept_prob(delta))
    for k in range(1, 18):
        block = rng.choice(deltas, k)
        assert np.array_equal(unit_trajectory(k, delta=block).accept_prob,
                              [accept_prob(delta) for delta in block])
    # a proposal not evaluated yet is never accepted
    assert unit_trajectory().accept_prob == 0.0


def test_energy_error_order_h2():
    # fixed travel time T, shrinking h: |Delta| ~ h^2
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    T = 1.0
    hs, errs = [], []
    for L in (4, 8, 16, 32, 64):
        h = T / L
        traj = trajectory_reparam(np.array([1.3]), np.array([0.4]), h, L, p, m)
        hs.append(h)
        errs.append(abs(traj.delta))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_ds_recursion_base_cases():
    rng = np.random.default_rng(3)
    m = gaussian_target(covariance=np.array([1.0, 0.5, 2.0]))
    p = Preconditioner("diagonal", 3, rng.normal(0, 0.2, 3))
    traj = trajectory_reparam(rng.standard_normal(3), rng.standard_normal(3), 0.1, 4, p, m)
    assert np.allclose(ds_recursion(traj, p, m, upto=1), 0.0)
    C = p.dense()
    H = m.precision
    expected = -0.5 * 0.1**2 * C.T @ H @ C
    assert np.max(np.abs(ds_recursion(traj, p, m, upto=2) - expected)) < 1e-12
    with pytest.raises(ValueError):
        ds_recursion(traj, p, m, upto=5)
    with pytest.raises(ValueError):
        ds_recursion(traj, p, m, upto=0)


@pytest.mark.parametrize("model_kind", ["gaussian", "logistic"])
def test_ds_recursion_matches_fd_jacobian(model_kind):
    rng = np.random.default_rng(11)
    for _ in range(4):
        d = int(rng.integers(2, 5))
        L = int(rng.integers(2, 7))
        if model_kind == "gaussian":
            h = float(rng.uniform(0.02, 0.08))
            m = gaussian_target(covariance=np.exp(rng.normal(0, 0.4, d)))
        else:
            # non-constant Hessians: keep h small so the symmetrized output
            # tracks the (slightly asymmetric) true Jacobian within tolerance
            h = float(rng.uniform(0.01, 0.04))
            X, y = simulate_logistic_data(25, d, seed=int(rng.integers(1000)))
            m = logistic_target(X, y)
        p = Preconditioner("dense", d, rng.normal(0, 0.15, n_params("dense", d)))
        q0 = rng.standard_normal(d)
        v = rng.standard_normal(d)
        traj = trajectory_reparam(q0, v, h, L, p, m)
        ds = ds_recursion(traj, p, m)
        assert np.max(np.abs(ds - ds.T)) <= 1e-10
        jac = residual_jacobian_fd(q0, v, h, L, p, m)
        denom = max(np.max(np.abs(jac)), 1e-8)
        assert np.max(np.abs(ds - jac)) / denom < 1e-4


def test_ds_contraction_bound():
    rng = np.random.default_rng(21)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        L = int(rng.integers(2, 8))
        cov = np.exp(rng.normal(0, 0.5, d))
        m = gaussian_target(covariance=cov)
        p = Preconditioner("diagonal", d, rng.normal(0, 0.3, d))
        A = p.dense().T @ m.precision @ p.dense()
        bound = np.linalg.norm(A, 2)
        h = 0.9 / (L * np.sqrt(4.0 * bound))  # enforces L^2 h^2 < 1/(4 |A|)
        traj = trajectory_reparam(rng.standard_normal(d), rng.standard_normal(d), h, L, p, m)
        for ell in range(1, L + 1):
            ds = ds_recursion(traj, p, m, upto=ell)
            assert np.linalg.norm(ds, 2) < 0.125


def test_ds_minus_dl_higher_order():
    # Gaussian: DS_L - D_L must shrink like h^4 while each is O(h^2)
    m = gaussian_target(covariance=np.array([1.0, 2.0]))
    p = make_preconditioner("diagonal", 2)
    rng = np.random.default_rng(9)
    q0 = rng.standard_normal(2)
    v = rng.standard_normal(2)
    L = 4
    C = p.dense()
    A = C.T @ m.precision @ C
    gaps = []
    hs = (0.2, 0.1, 0.05)
    for h in hs:
        traj = trajectory_reparam(q0, v, h, L, p, m)
        ds = ds_recursion(traj, p, m)
        dl = -h * h * (L * L - 1) / 6.0 * A
        gaps.append(np.max(np.abs(ds - dl)))
    slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
    assert slope > 3.5


def test_invalid_step_arguments():
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    with pytest.raises(ValueError):
        leapfrog_direct(np.zeros(1), np.zeros(1), 0.0, 5, p, m)
    with pytest.raises(ValueError):
        trajectory_reparam(np.zeros(1), np.zeros(1), 0.1, 0, p, m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_nonfinite_step_is_refused(h):
    # refused before the first step, not run as a trajectory of NaNs
    m = gaussian_target(precision=np.array([1.0, 2.0]))
    p = make_preconditioner("diagonal", 2)
    for q0 in (np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="^need h > 0"):
            trajectory_reparam(q0, np.ones_like(q0), h, 3, p, m)


# ------------------------------------------------------- lockstep blocks


def assert_row_equals(block, i, traj):
    row = block.row(i)
    for name in ("q", "grads", "v", "w"):
        assert np.array_equal(getattr(row, name), getattr(traj, name))
    assert row.delta == traj.delta and row.u0 == traj.u0 and row.u_end == traj.u_end
    assert row.accept_prob == traj.accept_prob


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", [1, 2, 7])
def test_block_trajectory_equals_rows(kind, L):
    rng = np.random.default_rng(60 + L)
    d, k = 5, 4
    m = gaussian_target(covariance=np.exp(rng.normal(0, 0.5, d)))
    p = Preconditioner(kind, d, rng.normal(0, 0.3, n_params(kind, d)))
    Q0 = rng.standard_normal((k, d))
    V = rng.standard_normal((k, d))
    block = trajectory_reparam(Q0, V, 0.3, L, p, m)
    assert block.q.shape == (L + 1, k, d) and block.live.all()
    rows = [trajectory_reparam(Q0[i], V[i], 0.3, L, p, m) for i in range(k)]
    for i, traj in enumerate(rows):
        assert_row_equals(block, i, traj)
    assert np.array_equal(block.accept_prob, [t.accept_prob for t in rows])
    # start-point values given for some rows are used, not evaluated again
    g0 = [rows[0].grads[0], None, rows[2].grads[0], None]
    u0 = [rows[0].u0, None, rows[2].u0, None]
    logged, log = logged_model(m)
    again = trajectory_reparam(Q0, V, 0.3, L, p, logged, g0, u0)
    for i, traj in enumerate(rows):
        assert_row_equals(again, i, traj)
    assert len(log["grad"]) == 2 + k * L and len(log["potential"]) == 2 + k


def test_block_divergent_row_stops():
    # a row whose gradient turns non-finite makes no further target call
    # and no potential call; the other rows finish as they would alone.
    # Each row has the outcome of its one-chain run, stopped or not
    d = 2

    def cliff_grad(q):
        return np.full(d, np.nan) if np.max(np.abs(q)) > 1.5 else q

    base = TargetModel(dim=d, potential=lambda q: 0.5 * float(q @ q), grad=cliff_grad,
                       hvp=lambda q, w: w)
    p = make_preconditioner("diagonal", d)
    Q0 = np.array([[0.1, 0.2], [1.4, 0.0], [-0.3, 0.1], [2.0, 0.0]])
    V = np.array([[0.3, -0.2], [8.0, 0.0], [0.1, 0.4], [0.0, 0.0]])
    h, L = 0.5, 5
    block_model, block_log = logged_model(base)
    block = trajectory_reparam(Q0, V, h, L, p, block_model)
    assert block.live.tolist() == [True, False, True, False]
    points = {"grad": [], "potential": []}
    failed_at = {}
    for i in range(4):
        row_model, row_log = logged_model(base)
        traj = trajectory_reparam(Q0[i], V[i], h, L, p, row_model)
        for name in points:
            points[name] += row_log[name]
        assert block.live[i] == traj.live
        if traj.live:
            assert_row_equals(block, i, traj)
            continue
        # a stopped chain was called at each step up to its stop, no further
        s = failed_at[i] = len(row_log["grad"]) - 1
        assert block.delta[i] == traj.delta == np.inf and not row_log["potential"]
        assert block.u0[i] is traj.u0 is None and block.u_end[i] is traj.u_end is None
        assert np.array_equal(block.q[: s + 1, i], traj.q[: s + 1])
        assert np.array_equal(block.grads[:, i], traj.grads) and not traj.grads[s:].any()
    # row 3 starts past the cliff, row 1 crosses it mid-trajectory
    assert failed_at[3] == 0 and 1 <= failed_at[1] < L
    # the same evaluation points, not only as many: nothing after a failure
    for name in ("grad", "potential"):
        assert sorted(block_log[name]) == sorted(points[name])


@pytest.mark.parametrize("d", [3, 21, 51, 100])
def test_row_dot_equals_per_row_dot(d):
    # (x * y).sum(1) and norm(axis=1) round differently from the per-row dot
    rng = np.random.default_rng(d)
    for k in (1, 4, 8):
        X = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
        Y = rng.standard_normal((k, d))
        assert np.array_equal(row_dot(X, Y), [x @ y for x, y in zip(X, Y)])
        assert np.array_equal(row_dot(X, X), [x @ x for x in X])
