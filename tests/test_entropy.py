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
    roulette_pass,
    sample_truncation,
)
from ehmc.precond import KINDS, Preconditioner, make_preconditioner, n_params
from ehmc.targets import TargetModel, gaussian_target, logistic_target, simulate_logistic_data

from _oracles import (ReferenceMidpointOperator, hazard_model, pair_operator,
                      penalty_slope_reference, penalty_value_reference, roulette_logdet_estimate,
                      roulette_pass_reference)


# ---------------------------------------------------------------- operator


def test_dl_zero_at_l1():
    # D w and H C w are two zero vectors, for every factor kind, and no
    # hvp call is made
    calls = []
    base = gaussian_target(precision=np.array([4.0, 0.5, 2.0]))
    m = TargetModel(dim=3, potential=base.potential, grad=base.grad,
                    hvp=lambda q, w: calls.append(1) or base.hvp(q, w))
    for kind in KINDS:
        p = Preconditioner(kind, 3, np.full(n_params(kind, 3), 0.3))
        out, hcw = MidpointOperator(np.array([1.7, 0.2, -0.4]), p, m, 0.5, 1)(np.ones(3))
        assert np.array_equal(out, np.zeros(3)) and np.array_equal(hcw, np.zeros(3))
        assert out is not hcw
    assert not calls


def test_dl_hand_example():
    # 1-d standard Gaussian, identity factor, h=0.5, L=3: -0.25*(8/6) = -1/3
    m = gaussian_target(precision=np.array([1.0]))
    p = make_preconditioner("diagonal", 1)
    out, hcw = MidpointOperator(np.zeros(1), p, m, 0.5, 3)(np.ones(1))
    assert np.isclose(out[0], -1.0 / 3.0, rtol=0, atol=1e-14)
    assert hcw[0] == 1.0
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
    mat = np.column_stack([dl(e)[0] for e in np.eye(d)])
    assert np.max(np.abs(mat - expected)) < 1e-12
    # position-independence for Gaussian targets
    dl2 = MidpointOperator(rng.standard_normal(d) * 10, p, m, h, L)
    mat2 = np.column_stack([dl2(e)[0] for e in np.eye(d)])
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
        a = float(u @ dl(w)[0])
        b = float(w @ dl(u)[0])
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-3)


def test_dl_nonfinite_raises():
    # the operator hands its NaN product on; the pass that applies it raises
    m = TargetModel(dim=1, potential=lambda q: 0.0, grad=lambda q: np.zeros(1),
                    hvp=lambda q, w: np.full(1, np.nan))
    p = make_preconditioner("diagonal", 1)
    dl = MidpointOperator(np.zeros(1), p, m, 0.5, 3)
    assert all(np.isnan(v).all() for v in dl(np.ones(1)))
    with pytest.raises(FloatingPointError, match="non-finite Hessian-vector product"):
        roulette_pass(dl, 1, np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dl_huge_finite_output_passes():
    # finite entries near +-1e200 with a finite sum, whose dot with
    # themselves overflows: the pass's entrywise fallback clears them, and
    # the clamp scales the first term to zero, so the pass goes degenerate
    rng = np.random.default_rng(5)
    d = 4
    p = Preconditioner("dense", d, rng.normal(0.0, 0.1, n_params("dense", d)))
    m = matrix_model(np.diag([1e200, -1e200, 1e200, -1e200]))
    dl = MidpointOperator(np.zeros(d), p, m, 0.5, 3)
    C = p.dense()
    for seed in range(3):
        w = rng.standard_normal(d)
        out, hcw = dl(w)
        assert np.isfinite(out.sum()) and not np.isfinite(out.dot(out))
        assert np.array_equal(hcw, m.hvp(dl.q_mid, C @ w))
        assert np.array_equal(out, dl.coeff * (C.T @ hcw))
        draw = roulette_pass(dl, d, np.random.default_rng(seed))
        assert draw.clamp_count == 1 and not draw.b.any() and draw.mu == 0.0
        assert np.isfinite(draw.hvp_eps).all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", [1, 3])
def test_dl_refuses_wrong_shape(kind, L):
    # the bound maps take w unchecked, so the operator checks it: a (1,)
    # vector would broadcast through the diagonal multiply, and a (d, d)
    # block would pass through C.dot as d products.  A list of d entries is
    # taken as its array
    d = 5
    rng = np.random.default_rng(6)
    p = Preconditioner(kind, d, rng.normal(0.0, 0.2, n_params(kind, d)))
    m = gaussian_target(covariance=np.exp(rng.normal(0.0, 0.5, d)))
    dl = MidpointOperator(rng.standard_normal(d), p, m, 0.4, L)
    for w in (np.ones(1), np.ones(d + 1), np.ones((d, d)), np.ones((1, d)), 1.0):
        with pytest.raises(ValueError, match="vector has shape"):
            dl(w)
    w = rng.standard_normal(d)
    for got, expected in zip(dl(list(w)), dl(w)):
        assert np.array_equal(got, expected)


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


@pytest.mark.parametrize("n_min,error", [(0, "n_min: must be at least 1, got 0"),
                                         (-2, "n_min: must be at least 1, got -2"),
                                         (2.0, "n_min: must be an integer, got 2.0")])
def test_truncation_refuses_bad_n_min(n_min, error):
    # a zero-term pass would have no H C eps for the gradient, and a
    # negative n_min no survival array; the pass refuses both before it
    # makes an hvp call
    calls = []
    base = gaussian_target(precision=np.ones(5))
    m = TargetModel(dim=5, potential=base.potential, grad=base.grad,
                    hvp=lambda q, w: calls.append(1) or base.hvp(q, w))
    op = MidpointOperator(np.zeros(5), make_preconditioner("diagonal", 5), m, 0.5, 3)
    with pytest.raises(ValueError, match=f"^{error}$"):
        sample_truncation(np.random.default_rng(0), n_min)
    with pytest.raises(ValueError, match=f"^{error}$"):
        roulette_pass(op, 5, np.random.default_rng(0), n_min=n_min)
    assert not calls


# ---------------------------------------------------------------- roulette


def test_roulette_zero_operator():
    rng = np.random.default_rng(9)
    draw = roulette_pass(pair_operator(np.zeros_like), 3, rng)
    assert np.array_equal(draw.b, np.zeros(3)) and np.array_equal(draw.hvp_b, np.zeros(3))
    assert draw.mu == 0.0
    assert roulette_logdet_estimate(draw) == 0.0


def assert_draws_bit_equal(new, ref):
    for field in dataclasses.fields(RouletteDraw):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
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
    """(name, package operator, reference operator) triples; a pair callable
    from ``pair_operator`` serves both sides."""
    gauss = gaussian_target(covariance=np.exp(rng.normal(0.0, 0.5, d)))
    dense = Preconditioner("dense", d, rng.normal(0.0, 0.3, n_params("dense", d)))
    contractive = scaled_orthogonal(d, 0.05, 0.5, rng)
    expanding = scaled_orthogonal(d, 2.0, 4.0, rng)
    q = rng.normal(0.0, 0.5, d)
    pairs = [("zero", MidpointOperator(q, dense, gauss, 0.5, 1),
              ReferenceMidpointOperator(q, dense, gauss, 0.5, 1)),
             ("never clamps", pair_operator(lambda w: contractive @ w), None),
             ("clamps every term", pair_operator(lambda w: expanding @ w), None)]
    # the same two operators as midpoint operators, D = c C^T H C with C = I
    # and H = D / c, and a nilpotent H, whose passes go degenerate once
    # eta_k = D^k eps vanishes after nonzero terms
    eye = make_preconditioner("diagonal", d)
    c = dl_coeff(0.5, 3)
    for name, A in (("never clamps", contractive / c), ("clamps every term", expanding / c),
                    ("nilpotent", np.diag(rng.uniform(1.0, 2.0, d - 1), 1))):
        model = matrix_model(A)
        pairs.append((name, MidpointOperator(q, eye, model, 0.5, 3),
                      ReferenceMidpointOperator(q, eye, model, 0.5, 3)))
    for h in (0.3, 0.9):
        pairs.append(("midpoint", MidpointOperator(q, dense, gauss, h, 5),
                      ReferenceMidpointOperator(q, dense, gauss, h, 5)))
    hazard = hazard_model()
    for q in (np.array([0.0, 0.3, -0.2]), np.array([1.2, 0.0, 0.0])):
        hz = Preconditioner("diagonal", 3, np.full(3, 0.7))
        pairs.append(("non-finite hvp", MidpointOperator(q, hz, hazard, 0.6, 4),
                      ReferenceMidpointOperator(q, hz, hazard, 0.6, 4)))
    eye = make_preconditioner("diagonal", 4)
    big = overflowing_model(4)
    pairs.append(("overflowing sum", MidpointOperator(np.zeros(4), eye, big, 0.5, 3),
                  ReferenceMidpointOperator(np.zeros(4), eye, big, 0.5, 3)))
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
    assert all(not dr.b.any() for dr in draws["zero"])
    assert all(dr.clamp_count == 0 and dr.b.any() for dr in draws["never clamps"])
    assert all(dr.clamp_count == dr.n_terms for dr in draws["clamps every term"])
    assert len({dr.n_terms for dr in draws["clamps every term"]}) > 3
    assert all(not dr.hvp_eps.any() and not dr.hvp_y.any() for dr in draws["zero"])
    assert all(dr.hvp_eps.any() and dr.hvp_b.any() for dr in draws["midpoint"])
    assert any(not dr.b.any() for dr in draws["nilpotent"])
    assert any(dr.b.any() for dr in draws["nilpotent"])
    assert len({dr.clamp_count for dr in draws["midpoint"]}) > 1
    assert 0 < len(draws["non-finite hvp"]) < len(seen["non-finite hvp"])
    assert all(not dr.b.any() for dr in draws["overflowing sum"])


@pytest.mark.parametrize("kind", KINDS)
def test_midpoint_operator_follows_theta_writes(kind):
    # one factor whose theta is rewritten between roulette passes, as
    # adam_update does, with one operator per pass as the sampler builds
    # them: each pass equals the reference pass over a fresh factor at the
    # new theta, and differs from the one at the theta before
    rng = np.random.default_rng(33)
    d, h, L = 5, 0.4, 5
    m = gaussian_target(covariance=np.exp(rng.normal(0.0, 0.5, d)))
    p = Preconditioner(kind, d, rng.normal(0.0, 0.3, n_params(kind, d)))
    before = None
    for seed in range(4):
        q_mid = rng.standard_normal(d)
        fresh = Preconditioner(kind, d, p.theta)
        new = roulette_pass(MidpointOperator(q_mid, p, m, h, L), d, np.random.default_rng(seed))
        ref = roulette_pass_reference(ReferenceMidpointOperator(q_mid, fresh, m, h, L), d,
                                      np.random.default_rng(seed))
        assert_draws_bit_equal(new, ref)
        if before is not None:
            stale = roulette_pass_reference(ReferenceMidpointOperator(q_mid, before, m, h, L),
                                            d, np.random.default_rng(seed))
            assert not np.array_equal(new.hvp_eps, stale.hvp_eps)
        before = fresh
        p.theta = p.theta - 0.05 * rng.standard_normal(p.theta.size)


def test_hvp_y_equals_a_fresh_product():
    # H C y summed from the pass's own products against one more
    # application to y, and the kept H C b against one to b (zero for a
    # zero b), on clamped, unclamped and degenerate passes, from pair
    # callables and at L = 1 too.  The overflowing model is left out: its
    # hvp is a constant, not linear in w.
    rng = np.random.default_rng(32)
    compared = set()
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
                for kept, v in ((draw.hvp_y, draw.y), (draw.hvp_b, draw.b)):
                    fresh = op(v)[1]
                    err = np.linalg.norm(kept - fresh)
                    assert err <= 1e-12 * np.linalg.norm(fresh), name
                compared.add((name, not draw.b.any()))
    assert compared >= {("zero", True), ("never clamps", False), ("clamps every term", False),
                        ("midpoint", False), ("nilpotent", False), ("nilpotent", True),
                        ("non-finite hvp", False)}


def probe_failing_model(d, failures):
    # a standard Gaussian whose hvp is +inf on its first `failures` unit
    # vectors w, logging whether each w was one.  With C = I, D = c I and
    # sqrt(d) |c|^k never 1, the mu probe b is the only unit vector a pass
    # applies D to
    base = gaussian_target(precision=np.ones(d))
    units = []

    def hvp(q, w):
        units.append(abs(w.dot(w) - 1.0) < 1e-12)
        if units[-1] and units.count(True) <= failures:
            return np.full(d, np.inf)
        return base.hvp(q, w)

    model = TargetModel(dim=d, potential=base.potential, grad=base.grad, hvp=hvp,
                        precision=base.precision)
    return model, units


def test_roulette_raises_at_a_non_finite_mu_probe():
    # D = -0.81 I: the N series products are finite and the probe's is not
    model, units = probe_failing_model(2, failures=1)
    dl = MidpointOperator(np.zeros(2), make_preconditioner("diagonal", 2), model, 0.45, 5)
    with pytest.raises(FloatingPointError, match="non-finite Hessian-vector product"):
        roulette_pass(dl, 2, np.random.default_rng(3))
    failed = units.copy()
    draw = roulette_pass(dl, 2, np.random.default_rng(3))
    assert failed == [False] * draw.n_terms + [True]
    assert units[len(failed):] == failed and draw.clamp_count == 0
    assert draw.mu == dl_coeff(0.45, 5) and np.isfinite(draw.hvp_y).all()


def test_adaptive_step_skips_a_chain_whose_mu_probe_fails(monkeypatch):
    # the first chain's pass fails at its mu probe: the step counts one
    # skipped update, and the second chain alone feeds theta, mu, the
    # penalty and gamma
    from ehmc import sampler
    from ehmc.objective import GAMMA_BOUNDS, AdaptState

    model, _ = probe_failing_model(2, failures=1)
    passes = []
    real_pass = sampler.roulette_pass

    def recording_pass(*args, **kwargs):
        passes.append(None)
        passes[-1] = real_pass(*args, **kwargs)
        return passes[-1]

    monkeypatch.setattr(sampler, "roulette_pass", recording_pass)
    state = AdaptState(make_preconditioner("diagonal", 2))
    gamma = state.gamma
    record = {}
    sampler.adaptive_step(sampler.make_chains(model, 2, seed=4), state, model, 0.45, 5,
                          "gsm", record)
    failed, kept = passes
    assert failed is None and kept.b.any()
    assert state.skip_count == 1 and state.step == 1
    pen = penalty_h(abs(kept.mu), state.config.penalty_delta)[0]
    assert pen > 0.0 and record["mu"] == abs(kept.mu) and record["pen"] == pen
    assert state.gamma == min(gamma + state.config.rho_gamma * pen, GAMMA_BOUNDS[1])


def test_roulette_scalar_closed_form():
    # d=1, D = c: eta_k = c^k * eps deterministically, so the estimate and y
    # admit exact partial-sum formulas for the realized truncation level
    c = -1.0 / 3.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        draw = roulette_pass(pair_operator(lambda w: c * w), 1, rng)
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
        roulette_logdet_estimate(roulette_pass(pair_operator(lambda w: c * w), 1, rng))
        for _ in range(20000)
    ])
    target = np.log(2.0 / 3.0)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


def test_roulette_unbiased_diag2():
    D = np.diag([-0.2, -0.4])
    rng = np.random.default_rng(12)
    vals = np.array([
        roulette_logdet_estimate(roulette_pass(pair_operator(lambda w: D @ w), 2, rng))
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
        draw = roulette_pass(pair_operator(lambda w: D @ w), d, rng, n_min=50)
        assert abs(draw.mu - lead) < 1e-3
        assert np.isclose(np.linalg.norm(draw.b), 1.0)


def test_mu_bounded_by_spectral_norm():
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        A = rng.standard_normal((d, d))
        D = 0.4 * (A + A.T) / 2
        draw = roulette_pass(pair_operator(lambda w: D @ w), d, rng)
        if draw.b.any():
            assert abs(draw.mu) <= np.linalg.norm(D, 2) + 1e-12


def test_clamp_never_overflows():
    rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
    for scale in (3.0, 1e6, 1e150):
        draw = roulette_pass(pair_operator(lambda w: scale * w), 4, rng, n_min=20)
        # the reference pass, bit-equal to the package's, keeps the final iterate
        ref = roulette_pass_reference(pair_operator(lambda w: scale * w), 4, ref_rng, n_min=20)
        assert_draws_bit_equal(draw, ref)
        assert np.all(np.isfinite(ref.eta_bar))
        assert np.all(np.isfinite(draw.y))
        assert draw.clamp_count == draw.n_terms
        # every clamped step contracts by exactly delta' = 0.99
        expected_norm = 0.99 ** draw.n_terms * np.sqrt(4.0)
        assert np.isclose(np.linalg.norm(ref.eta_bar), expected_norm, rtol=1e-12)


def test_clamp_inactive_for_contractive():
    rng = np.random.default_rng(16)
    draw = roulette_pass(pair_operator(lambda w: 0.5 * w), 3, rng, n_min=10)
    assert draw.clamp_count == 0


# ---------------------------------------------------------------- penalty


def test_penalty_examples():
    assert penalty_h(0.5, 0.75) == (0.0, 0.0)
    value, slope = penalty_h(1.0, 0.75)
    assert np.isclose(value, 0.0625) and np.isclose(slope, 0.5)
    value, slope = penalty_h(2.0, 0.75)
    assert np.isclose(value, 1.25) and slope == 1.0
    # delta defaults to PENALTY_DELTA = 0.75
    assert penalty_h(2.0) == penalty_h(2.0, 0.75)


def test_penalty_invalid_thresholds():
    for delta in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            penalty_h(1.0, delta)


def test_penalty_vanishes_when_one_plus_delta_rounds_to_delta():
    for delta in (2.0**53, 1e17, 1e300):
        assert 1.0 + delta == delta
        for x in (0.0, 1.0, delta, 2.0 * delta):
            assert penalty_h(x, delta) == (0.0, 0.0)


@pytest.mark.parametrize("delta", [0.75, 0.3, 2.5, 1e-3])
def test_penalty_value_and_slope_match_the_reference_bits(delta):
    # a grid through the zero, quadratic and linear pieces, with both kinks
    # and the floats either side of them
    delta2 = 1.0 + delta
    kinks = [np.nextafter(k, side) for k in (delta, delta2) for side in (-np.inf, np.inf)]
    for x in [*np.linspace(0.0, 3.0 * delta2, 301), delta, delta2, *kinks]:
        value, slope = penalty_h(x, delta)
        assert value == penalty_value_reference(x, delta), x
        assert slope == penalty_slope_reference(x, delta), x


def test_penalty_continuity_at_kinks():
    for kink in (0.75, 1.75):
        lo = penalty_h(kink - 1e-9, 0.75)[0]
        hi = penalty_h(kink + 1e-9, 0.75)[0]
        assert abs(hi - lo) < 1e-8


def test_penalty_monotone():
    xs = np.linspace(0, 3, 301)
    vals = [penalty_h(x, 0.75)[0] for x in xs]
    assert np.all(np.diff(vals) >= 0)


def test_penalty_grad_matches_fd():
    eps = 1e-7
    for x in (0.3, 0.9, 1.4, 2.2, 5.0):
        fd = (penalty_h(x + eps, 0.75)[0] - penalty_h(x - eps, 0.75)[0]) / (2 * eps)
        assert abs(penalty_h(x, 0.75)[1] - fd) < 1e-6
