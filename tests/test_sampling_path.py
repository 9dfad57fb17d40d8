"""The one-chain trajectory of the sampling phase against its oracle.

``_oracles.trajectory_one_chain`` is the leapfrog with textbook factor
maps and an entrywise finiteness test on every gradient.  The package's
(d,) path skips both costs; these tests hold it to the oracle bit for
bit, divergences included, and pin down what the factor maps accept.
A (k, d) block, which tests each step with one dot too, holds each row
to its one-chain outcome at the same finiteness edges.
"""

import numpy as np
import pytest

from ehmc.integrator import DivergenceError, trajectory_reparam
from ehmc.precond import KINDS, Preconditioner, n_params
from ehmc.targets import TargetModel, gaussian_target

from _oracles import hazard_model, logged_model, trajectory_one_chain


def random_precond(kind, d, rng, scale=0.3):
    return Preconditioner(kind, d, rng.normal(0.0, scale, n_params(kind, d)))


def outcome(fn, *args):
    """fn's trajectory, or the DivergenceError it raised."""
    try:
        return fn(*args)
    except DivergenceError as err:
        return err


def run_both(*args):
    return [outcome(fn, *args) for fn in (trajectory_reparam, trajectory_one_chain)]


def assert_same(new, ref):
    assert type(new) is type(ref)
    if isinstance(ref, DivergenceError):
        assert new.step == ref.step
        assert np.array_equal(new.positions, ref.positions)
        return
    for name in ("q", "grads", "v", "w"):
        assert np.array_equal(getattr(new, name), getattr(ref, name), equal_nan=True)
    assert new.delta == ref.delta and new.u0 == ref.u0 and new.u_end == ref.u_end


def float32_grad(model):
    """The model with a gradient that returns float32 arrays."""
    return TargetModel(dim=model.dim, potential=model.potential,
                       grad=lambda q: model.grad(q).astype(np.float32), hvp=model.hvp)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("given", [False, True])
def test_one_chain_equals_oracle(kind, L, given):
    # also for a gradient returned as float32: it is stored in its float64
    # row of grads, and the maps read that row, as the oracle's do
    rng = np.random.default_rng(10 * L + KINDS.index(kind))
    for d in (1, 5, 23):
        m = gaussian_target(covariance=np.exp(rng.normal(0, 0.5, d)))
        p = random_precond(kind, d, rng)
        for _ in range(3):
            q0, v = rng.standard_normal(d), rng.standard_normal(d)
            for model in (m, float32_grad(m)):
                g0, u0 = (model.grad(q0), model.potential(q0)) if given else (None, None)
                new, ref = run_both(q0, v, 0.2, L, p, model, g0, u0)
                assert_same(new, ref)
            # start values given are used, not evaluated again
            logged, log = logged_model(m)
            trajectory_reparam(q0, v, 0.2, L, p, logged, g0, u0)
            assert len(log["grad"]) == L + (not given)
            assert len(log["potential"]) == 1 + (not given)


@pytest.mark.parametrize("kind", KINDS)
def test_hazard_divergence_equals_oracle(kind):
    # hazard_model's gradient is NaN past |q_i| = 2.2; faster starts
    # cross the cliff at earlier steps, so a sweep of speeds reaches
    # step 0 (a start past the cliff), middle steps and the last step
    rng = np.random.default_rng(KINDS.index(kind))
    m = hazard_model()
    p = random_precond(kind, 3, rng, scale=0.1)
    h, L = 0.3, 5
    direction = np.array([0.2, 1.0, -0.1])
    steps = set()
    for q0 in (np.array([0.0, 0.5, 0.0]), np.array([2.5, 0.0, 0.0])):
        for speed in np.linspace(0.0, 8.0, 81):
            new, ref = run_both(q0, speed * direction, h, L, p, m)
            assert_same(new, ref)
            if isinstance(ref, DivergenceError):
                steps.add(ref.step)
    assert steps == set(range(L + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_bound_maps_follow_theta_writes(kind):
    # one factor whose theta is rewritten between trajectories, as
    # adam_update does: each trajectory equals the oracle on a fresh factor
    # at the new theta, and differs from the one at the theta before
    rng = np.random.default_rng(40 + KINDS.index(kind))
    d, h, L = 6, 0.3, 5
    m = gaussian_target(covariance=np.exp(rng.normal(0, 0.5, d)))
    p = random_precond(kind, d, rng)
    before = None
    for _ in range(4):
        q0, v = rng.standard_normal(d), rng.standard_normal(d)
        fresh = Preconditioner(kind, d, p.theta)
        new = trajectory_reparam(q0, v, h, L, p, m)
        assert_same(new, trajectory_one_chain(q0, v, h, L, fresh, m))
        if before is not None:
            stale = trajectory_one_chain(q0, v, h, L, before, m)
            assert not np.array_equal(new.q[L], stale.q[L])
        before = fresh
        p.theta = p.theta - 0.05 * rng.standard_normal(p.theta.size)


def scripted_model(d, script):
    """A Gaussian whose gradient at the call numbered n is script[n] when
    that entry is given: non-finite or overflowing gradients on cue."""
    base = gaussian_target(covariance=np.ones(d))
    calls = []

    def grad(q):
        calls.append(1)
        g = script.get(len(calls) - 1)
        return base.grad(q) if g is None else np.array(g, dtype=float)

    return TargetModel(dim=d, potential=base.potential, grad=grad, hvp=base.hvp)


# gradients of d = 4 entries for the finiteness edges: finite entries whose
# squares overflow, with or without their sum, then NaN and infinite entries
HUGE = [1e308] * 4
SQUARES = [1e200, -1e200, 1.5e200, -0.5e200]
FINITENESS_CASES = {
    "overflow": HUGE, "squares overflow": SQUARES, "nan": [0.5, np.nan, 0.0, 1.0],
    "+inf": [0.5, 0.0, np.inf, 1.0], "-inf": [-np.inf, 0.0, 0.5, 1.0],
    "+inf and -inf": [np.inf, -np.inf, 0.0, 0.0], "overflow and nan": HUGE[:3] + [np.nan],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("at", [0, 3, 6])
def test_finiteness_edges(kind, at):
    # the one-dot test reads g.g: finite entries whose squares overflow
    # (whether their sum overflows too or not) are no divergence, while one
    # NaN or infinite entry raises at its own step, as the entrywise test
    # does.  C = I keeps the huge gradients' maps finite
    d, L = 4, 6
    rng = np.random.default_rng(at)
    p = Preconditioner(kind, d, np.zeros(n_params(kind, d)))
    q0, v = rng.standard_normal(d), rng.standard_normal(d)
    for name, g in FINITENESS_CASES.items():
        new, ref = [outcome(fn, q0, v, 0.1, L, p, scripted_model(d, {at: g}))
                    for fn in (trajectory_reparam, trajectory_one_chain)]
        assert_same(new, ref)
        if name == "overflow":
            assert not np.isfinite(np.sum(HUGE))
            assert np.array_equal(new.grads[at], HUGE)
        elif name == "squares overflow":
            g = np.array(SQUARES)
            assert np.isfinite(g.sum()) and not np.isfinite(g.dot(g))
            assert np.array_equal(new.grads[at], SQUARES)
        else:
            assert new.step == at
    if at == 0:
        # the gradient at q0 must be (d,): its row of grads would take a
        # scalar or a (1,) array by broadcasting
        for g in (0.5, [0.5], [0.5] * (d - 1)):
            with pytest.raises(ValueError, match="gradient has shape"):
                trajectory_reparam(q0, v, 0.1, L, p, scripted_model(d, {0: g}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("at", [0, 3, 6])
def test_block_finiteness_edges(kind, at):
    # each case of test_finiteness_edges on row 1 of a 3-row block: the
    # block's one dot per step overflows or turns NaN, and each row keeps
    # its own one-chain outcome.  Overflowing rows stay live with their
    # exact entries; a NaN or infinite row leaves `live` at its own step,
    # keeps zero gradients from there and makes no further target call;
    # the other rows are bit-identical to their one-chain runs
    d, L, k = 4, 6, 3
    rng = np.random.default_rng(at)
    p = Preconditioner(kind, d, np.zeros(n_params(kind, d)))
    q0, v = rng.standard_normal((k, d)), rng.standard_normal((k, d))
    for name, g in FINITENESS_CASES.items():
        # row 1's gradient at step `at` is call at k + 1 of the block
        model, log = logged_model(scripted_model(d, {at * k + 1: g}))
        block = trajectory_reparam(q0, v, 0.1, L, p, model)
        points = {"grad": [], "potential": []}
        for i in range(k):
            row_model, row_log = logged_model(scripted_model(d, {at: g} if i == 1 else {}))
            ref = outcome(trajectory_reparam, q0[i], v[i], 0.1, L, p, row_model)
            for key in points:
                points[key] += row_log[key]
            if isinstance(ref, DivergenceError):
                assert not block.live[i] and block.delta[i] == np.inf
                assert np.array_equal(block.q[: ref.step + 1, i], ref.positions)
                assert not block.grads[ref.step:, i].any()
            else:
                assert block.live[i]
                assert_same(block.row(i), ref)
        if name in ("overflow", "squares overflow"):
            assert block.live.all() and np.array_equal(block.grads[at, 1], g)
        else:
            assert list(block.live) == [True, False, True]
            assert outcome(trajectory_reparam, q0[1], v[1], 0.1, L, p,
                           scripted_model(d, {at: g})).step == at
        for key in points:
            assert sorted(log[key]) == sorted(points[key]), (name, key)


# ------------------------------------------------- inputs of the maps


def old_check(dim, w):
    # the maps' input conversion before the per-theta dispatch
    w = np.asarray(w, dtype=float)
    if w.shape != (dim,) and (w.ndim != 2 or w.shape[1] != dim):
        raise ValueError(f"vector has shape {w.shape}, expected ({dim},) or (k, {dim})")
    return w


def map_inputs(d, rng):
    x = rng.standard_normal(2 * d)
    return {
        "float32": x[:d].astype(np.float32),
        "list": list(x[:d]),
        "int": np.arange(-2, d - 2),
        "column": x[:d, None],
        "strided": x[::2],
        "byte-swapped": x[:d].astype(">f8"),
        "float64": x[:d].copy(),
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [2, 7])
def test_map_inputs_convert_as_before(kind, d):
    rng = np.random.default_rng(d)
    p = random_precond(kind, d, rng)
    for name, w in map_inputs(d, rng).items():
        # the input as a stack of one term for one row, with its own dtype
        # and strides
        stack = [[w]] if isinstance(w, list) else w[None, None]
        try:
            ref = old_check(d, w)
        except ValueError as err:
            for method in ("matvec", "rmatvec", "solve", "solve_t"):
                with pytest.raises(ValueError) as new:
                    getattr(p, method)(w)
                assert str(new.value) == str(err)
            with pytest.raises(ValueError):
                p.accumulate_bilinear_grad(stack, stack, np.zeros((1, p.theta.size)), [[1.0]])
            assert name == "column"
            continue
        assert name != "column"
        # the same array as before: the input itself where asarray kept
        # it (a strided view stays strided), else an equal new array
        out = p._check_vec(w)
        assert (out is w) == (ref is w)
        assert out.dtype == ref.dtype and out.strides == ref.strides
        assert np.array_equal(out, ref)
        for method in ("matvec", "rmatvec", "solve", "solve_t"):
            assert np.array_equal(getattr(p, method)(w), getattr(p, method)(ref))
        bilinear = np.zeros((1, p.theta.size))
        p.accumulate_bilinear_grad(stack, stack, bilinear, [[1.0]])
        expected = np.zeros((1, p.theta.size))
        p.accumulate_bilinear_grad(ref[None, None], ref[None, None], expected, np.ones((1, 1)))
        assert np.array_equal(bilinear, expected)
