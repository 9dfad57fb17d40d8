"""Midpoint-Hessian operator, roulette estimator, and eigenvalue penalty."""

import dataclasses

import numpy as np
import pytest

from ehmc.entropy import (
    N_MIN,
    dl_coeff,
    MidpointOperator,
    RouletteDraw,
    penalty_h,
    penalty_h_grad,
    roulette_logdet_estimate,
    roulette_pass,
    sample_truncation,
)
from ehmc.precond import Preconditioner, make_preconditioner, n_params
from ehmc.targets import TargetModel, gaussian_target, logistic_target, simulate_logistic_data

from _oracles import EntrywiseMidpointOperator, hazard_model, roulette_pass_reference


# ---------------------------------------------------------------- operator


def test_dl_zero_at_l1():
    m = gaussian_target(precision=np.array([4.0]))
    p = make_preconditioner("diagonal", 1)
    out = MidpointOperator(np.array([1.7]), p, m, 0.5, 1)(np.array([3.0]))
    assert np.array_equal(out, np.zeros(1))


def test_dl_hand_example():
    # 1-d standard Gaussian, identity factor, h=0.5, L=3: -0.25*(8/6) = -1/3
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    out = MidpointOperator(np.zeros(1), p, m, 0.5, 3)(np.ones(1))
    assert np.isclose(out[0], -1.0 / 3.0, rtol=0, atol=1e-14)
    assert np.isclose(dl_coeff(0.5, 3), -1.0 / 3.0)


def test_dl_dense_materialization_gaussian():
    rng = np.random.default_rng(4)
    d = 4
    cov = np.exp(rng.normal(0, 0.4, d))
    m = gaussian_target(covariance=cov)
    p = Preconditioner("dense", d, rng.normal(0, 0.2, n_params("dense", d)))
    h, L = 0.3, 5
    C = p.dense()
    expected = dl_coeff(h, L) * C.T @ m.precision @ C
    dl = MidpointOperator(rng.standard_normal(d), p, m, h, L)
    mat = np.column_stack([dl(e) for e in np.eye(d)])
    assert np.max(np.abs(mat - expected)) < 1e-12
    # position-independence for Gaussian targets
    dl2 = MidpointOperator(rng.standard_normal(d) * 10, p, m, h, L)
    mat2 = np.column_stack([dl2(e) for e in np.eye(d)])
    assert np.max(np.abs(mat - mat2)) < 1e-12


def test_dl_symmetry_logistic():
    rng = np.random.default_rng(6)
    X, y = simulate_logistic_data(40, 3, seed=2)
    m = logistic_target(X, y)
    p = Preconditioner("banded", 3, rng.normal(0, 0.2, n_params("banded", 3)))
    dl = MidpointOperator(rng.standard_normal(3), p, m, 0.2, 4)
    for _ in range(5):
        u = rng.standard_normal(3)
        w = rng.standard_normal(3)
        a = float(u @ dl(w))
        b = float(w @ dl(u))
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-3)


def test_dl_nonfinite_raises():
    m = TargetModel(dim=1, potential=lambda q: 0.0, grad=lambda q: np.zeros(1),
                    hvp=lambda q, w: np.full(1, np.nan))
    p = make_preconditioner("diagonal", 1)
    with pytest.raises(FloatingPointError):
        MidpointOperator(np.zeros(1), p, m, 0.5, 3)(np.ones(1))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dl_huge_finite_output_passes():
    # finite entries near +-1e200 with a finite sum, whose dot with
    # themselves overflows: the entrywise fallback clears them
    rng = np.random.default_rng(5)
    d = 4
    p = Preconditioner("dense", d, rng.normal(0.0, 0.1, n_params("dense", d)))
    m = matrix_model(np.diag([1e200, -1e200, 1e200, -1e200]))
    dl = MidpointOperator(np.zeros(d), p, m, 0.5, 3)
    C = p.dense()
    for _ in range(3):
        w = rng.standard_normal(d)
        out = dl(w)
        assert np.isfinite(out.sum()) and not np.isfinite(out.dot(out))
        assert np.array_equal(out, dl.coeff * (C.T @ m.hvp(dl.q_mid, C @ w)))


# ---------------------------------------------------------------- truncation law


def test_truncation_law():
    rng = np.random.default_rng(7)
    draws = np.array([sample_truncation(rng)[0] for _ in range(20000)])
    assert np.all(draws >= N_MIN)
    # P(N = 3) = 1/2, E[N] = 4
    frac = np.mean(draws == N_MIN)
    assert abs(frac - 0.5) < 0.02
    assert abs(np.mean(draws) - (N_MIN + 1)) < 0.05


def test_truncation_survival_structure():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, p = sample_truncation(rng)
        assert len(p) == n
        assert np.all(p[:N_MIN] == 1.0)
        for k in range(N_MIN, n):
            assert p[k] == 0.5 ** (k + 1 - N_MIN)
        assert np.all(np.diff(p) <= 0)
        assert np.all(p > 0)


# ---------------------------------------------------------------- roulette


def test_roulette_zero_operator():
    rng = np.random.default_rng(9)
    draw = roulette_pass(lambda w: np.zeros_like(w), 3, rng)
    assert draw.degenerate
    assert np.array_equal(draw.b, np.zeros(3))
    assert draw.mu == 0.0
    assert roulette_logdet_estimate(draw) == 0.0


def assert_draws_bit_equal(new, ref):
    for field in dataclasses.fields(RouletteDraw):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
        if b is not None:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def scaled_orthogonal(d, lo, hi, rng):
    # Q diag(s) Q^T with every |s| in [lo, hi], so ||D w|| / ||w|| lies there too
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = rng.uniform(lo, hi, d) * rng.choice([-1.0, 1.0], d)
    return (Q * s) @ Q.T


def overflowing_model(d):
    # a Hessian-vector product with finite entries whose sum overflows
    base = gaussian_target(precision=np.ones(d))
    return TargetModel(dim=d, potential=base.potential, grad=base.grad,
                       hvp=lambda q, w: np.full(d, 1.7e308), precision=base.precision)


def matrix_model(A):
    # a target whose Hessian-vector product is A w at every position
    d = A.shape[0]
    return TargetModel(dim=d, potential=lambda q: 0.0, grad=lambda q: np.zeros(d),
                       hvp=lambda q, w: A @ w)


def roulette_operators(d, rng):
    """(name, package operator, reference operator) pairs; a plain callable
    serves both sides."""
    gauss = gaussian_target(covariance=np.exp(rng.normal(0.0, 0.5, d)))
    dense = Preconditioner("dense", d, rng.normal(0.0, 0.3, n_params("dense", d)))
    contractive = scaled_orthogonal(d, 0.05, 0.5, rng)
    expanding = scaled_orthogonal(d, 2.0, 4.0, rng)
    q = rng.normal(0.0, 0.5, d)
    pairs = [("zero", MidpointOperator(q, dense, gauss, 0.5, 1),
              EntrywiseMidpointOperator(q, dense, gauss, 0.5, 1)),
             ("never clamps", lambda w: contractive @ w, None),
             ("clamps every term", lambda w: expanding @ w, None)]
    # the same two operators as midpoint operators, D = c C^T H C with C = I
    # and H = D / c, and a nilpotent H, whose passes go degenerate once
    # eta_k = D^k eps vanishes after nonzero terms
    eye = make_preconditioner("diagonal", d)
    c = dl_coeff(0.5, 3)
    for name, A in (("never clamps", contractive / c), ("clamps every term", expanding / c),
                    ("nilpotent", np.diag(rng.uniform(1.0, 2.0, d - 1), 1))):
        model = matrix_model(A)
        pairs.append((name, MidpointOperator(q, eye, model, 0.5, 3),
                      EntrywiseMidpointOperator(q, eye, model, 0.5, 3)))
    for h in (0.3, 0.9):
        pairs.append(("midpoint", MidpointOperator(q, dense, gauss, h, 5),
                      EntrywiseMidpointOperator(q, dense, gauss, h, 5)))
    hazard = hazard_model()
    for q in (np.array([0.0, 0.3, -0.2]), np.array([1.2, 0.0, 0.0])):
        hz = Preconditioner("diagonal", 3, np.full(3, 0.7))
        pairs.append(("non-finite hvp", MidpointOperator(q, hz, hazard, 0.6, 4),
                      EntrywiseMidpointOperator(q, hz, hazard, 0.6, 4)))
    eye = make_preconditioner("diagonal", 4)
    big = overflowing_model(4)
    pairs.append(("overflowing sum", MidpointOperator(np.zeros(4), eye, big, 0.5, 3),
                  EntrywiseMidpointOperator(np.zeros(4), eye, big, 0.5, 3)))
    return [(name, new, new if ref is None else ref) for name, new, ref in pairs]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_roulette_pass_equals_reference():
    # every field of every draw bit for bit, the same FloatingPointError
    # where the reference raises, and the generators left in the same state
    rng = np.random.default_rng(31)
    seen = {}
    for name, new_op, ref_op in roulette_operators(5, rng):
        dim = 3 if name == "non-finite hvp" else 4 if name == "overflowing sum" else 5
        for n_min, delta_prime in ((1, 0.99), (3, 0.99), (6, 0.5)):
            new_rng, ref_rng = np.random.default_rng(n_min), np.random.default_rng(n_min)
            for _ in range(25):
                try:
                    ref = roulette_pass_reference(ref_op, dim, ref_rng, delta_prime, n_min)
                except FloatingPointError as err:
                    with pytest.raises(FloatingPointError) as raised:
                        roulette_pass(new_op, dim, new_rng, delta_prime, n_min)
                    assert str(raised.value) == str(err)
                    seen.setdefault(name, []).append(None)
                else:
                    new = roulette_pass(new_op, dim, new_rng, delta_prime, n_min)
                    assert_draws_bit_equal(new, ref)
                    seen.setdefault(name, []).append(ref)
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    assert sum(map(len, seen.values())) >= 500
    draws = {name: [dr for dr in got if dr is not None] for name, got in seen.items()}
    assert all(dr.degenerate for dr in draws["zero"])
    assert all(dr.clamp_count == 0 and not dr.degenerate for dr in draws["never clamps"])
    assert all(dr.clamp_count == dr.n_terms for dr in draws["clamps every term"])
    assert len({dr.n_terms for dr in draws["clamps every term"]}) > 3
    assert all(dr.hvp_eps is not None and dr.hvp_b is not None for dr in draws["midpoint"])
    assert any(dr.degenerate for dr in draws["nilpotent"])
    assert any(not dr.degenerate for dr in draws["nilpotent"])
    assert len({dr.clamp_count for dr in draws["midpoint"]}) > 1
    assert 0 < len(draws["non-finite hvp"]) < len(seen["non-finite hvp"])
    assert all(dr.degenerate for dr in draws["overflowing sum"])


def test_hvp_y_equals_a_fresh_product():
    # H C y summed from the pass's own products against one more hvp call
    # on y, on clamped, unclamped and degenerate passes; None from a plain
    # callable and at L = 1.  The overflowing model is left out: its hvp
    # is a constant, not linear in w.
    rng = np.random.default_rng(32)
    compared, nones = set(), set()
    for name, op, _ in roulette_operators(5, rng):
        if name == "overflowing sum":
            continue
        dim = 3 if name == "non-finite hvp" else 5
        for n_min, delta_prime in ((1, 0.99), (3, 0.99), (6, 0.5)):
            pass_rng = np.random.default_rng(n_min)
            for _ in range(25):
                try:
                    draw = roulette_pass(op, dim, pass_rng, delta_prime, n_min)
                except FloatingPointError:
                    continue
                if not isinstance(op, MidpointOperator) or op.L == 1:
                    assert draw.hvp_y is None, name
                    nones.add(name)
                    continue
                fresh = op.model.hvp(op.q_mid, op.precond.matvec(draw.y))
                err = np.linalg.norm(draw.hvp_y - fresh)
                assert err <= 1e-12 * np.linalg.norm(fresh), name
                compared.add((name, draw.degenerate))
    assert nones == {"zero", "never clamps", "clamps every term"}
    assert compared >= {("never clamps", False), ("clamps every term", False),
                        ("midpoint", False), ("nilpotent", False), ("nilpotent", True),
                        ("non-finite hvp", False)}


def test_roulette_scalar_closed_form():
    # d=1, D = c: eta_k = c^k * eps deterministically, so the estimate and y
    # admit exact partial-sum formulas for the realized truncation level
    c = -1.0 / 3.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        draw = roulette_pass(lambda w: c * w, 1, rng)
        n = draw.n_terms
        k = np.arange(1, n + 1)
        expected_est = float(np.sum((-1.0) ** (k + 1) * c**k / (k * draw.survival)))
        assert np.isclose(roulette_logdet_estimate(draw), expected_est, atol=1e-14)
        expected_y = float(np.sum((-1.0) ** k * c**k / draw.survival)) * draw.epsilon
        assert np.isclose(draw.y[0], expected_y[0], atol=1e-13)
        assert np.isclose(abs(draw.b[0]), 1.0)
        assert np.isclose(draw.mu, c)
        assert draw.clamp_count == 0


def test_roulette_unbiased_scalar():
    c = -1.0 / 3.0
    rng = np.random.default_rng(11)
    vals = np.array([
        roulette_logdet_estimate(roulette_pass(lambda w: c * w, 1, rng))
        for _ in range(20000)
    ])
    target = np.log(2.0 / 3.0)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


def test_roulette_unbiased_diag2():
    D = np.diag([-0.2, -0.4])
    rng = np.random.default_rng(12)
    vals = np.array([
        roulette_logdet_estimate(roulette_pass(lambda w: D @ w, 2, rng))
        for _ in range(20000)
    ])
    target = np.log(0.8) + np.log(0.6)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


def test_power_iteration_converges():
    rng = np.random.default_rng(13)
    d = 5
    for lead in (0.9, -0.9):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = np.array([lead, 0.5, 0.3, -0.2, 0.1])
        D = Q @ np.diag(lam) @ Q.T
        draw = roulette_pass(lambda w: D @ w, d, rng, n_min=50)
        assert abs(draw.mu - lead) < 1e-3
        assert np.isclose(np.linalg.norm(draw.b), 1.0)


def test_mu_bounded_by_spectral_norm():
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        A = rng.standard_normal((d, d))
        D = 0.4 * (A + A.T) / 2
        draw = roulette_pass(lambda w: D @ w, d, rng)
        if not draw.degenerate:
            assert abs(draw.mu) <= np.linalg.norm(D, 2) + 1e-12


def test_clamp_never_overflows():
    rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
    for scale in (3.0, 1e6, 1e150):
        draw = roulette_pass(lambda w: scale * w, 4, rng, n_min=20)
        # the reference pass, bit-equal to the package's, keeps the final iterate
        ref = roulette_pass_reference(lambda w: scale * w, 4, ref_rng, n_min=20)
        assert_draws_bit_equal(draw, ref)
        assert np.all(np.isfinite(ref.eta_bar))
        assert np.all(np.isfinite(draw.y))
        assert draw.clamp_count == draw.n_terms
        # every clamped step contracts by exactly delta' = 0.99
        expected_norm = 0.99 ** draw.n_terms * np.sqrt(4.0)
        assert np.isclose(np.linalg.norm(ref.eta_bar), expected_norm, rtol=1e-12)


def test_clamp_inactive_for_contractive():
    rng = np.random.default_rng(16)
    draw = roulette_pass(lambda w: 0.5 * w, 3, rng, n_min=10)
    assert draw.clamp_count == 0


# ---------------------------------------------------------------- penalty


def test_penalty_examples():
    assert penalty_h(0.5, 0.75) == 0.0
    assert np.isclose(penalty_h(1.0, 0.75), 0.0625)
    assert np.isclose(penalty_h(2.0, 0.75), 1.25)
    # delta defaults to PENALTY_DELTA = 0.75
    assert penalty_h(2.0) == penalty_h(2.0, 0.75)


def test_penalty_invalid_thresholds():
    for delta in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            penalty_h(1.0, delta)
        with pytest.raises(ValueError, match="delta"):
            penalty_h_grad(1.0, delta)


def test_penalty_vanishes_when_one_plus_delta_rounds_to_delta():
    for delta in (2.0**53, 1e17, 1e300):
        assert 1.0 + delta == delta
        for x in (0.0, 1.0, delta, 2.0 * delta):
            assert penalty_h(x, delta) == 0.0
            assert penalty_h_grad(x, delta) == 0.0


def test_penalty_continuity_at_kinks():
    for kink in (0.75, 1.75):
        lo = penalty_h(kink - 1e-9, 0.75)
        hi = penalty_h(kink + 1e-9, 0.75)
        assert abs(hi - lo) < 1e-8


def test_penalty_monotone():
    xs = np.linspace(0, 3, 301)
    vals = [penalty_h(x, 0.75) for x in xs]
    assert np.all(np.diff(vals) >= 0)


def test_penalty_grad_matches_fd():
    eps = 1e-7
    for x in (0.3, 0.9, 1.4, 2.2, 5.0):
        fd = (penalty_h(x + eps, 0.75) - penalty_h(x - eps, 0.75)) / (2 * eps)
        assert abs(penalty_h_grad(x, 0.75) - fd) < 1e-6
