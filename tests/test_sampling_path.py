"""The one-chain trajectory of the sampling phase against its oracle.

``_oracles.trajectory_one_chain`` is the leapfrog with textbook factor
maps and an entrywise finiteness test on every gradient.  The package's
(d,) path skips both costs; these tests hold it to the oracle bit for
bit, divergences included, and pin down what the factor maps accept.
One divergence rule holds for a chain and a block: a (k, d) block, which
tests each step with one dot too, is held to the same oracle row by row
at the same finiteness edges.
"""

import numpy as np
import pytest

from ehmc.integrator import trajectory_reparam
from ehmc.precond import KINDS, Preconditioner, n_params
from ehmc.targets import TargetModel, gaussian_target

from _oracles import hazard_model, logged_model, trajectory_one_chain


def random_precond(kind, d, rng, scale=0.3):
    return Preconditioner(kind, d, rng.normal(0.0, scale, n_params(kind, d)))


FORMS = ("chain", "block")


def run_both(*args):
    return [fn(*args) for fn in (trajectory_reparam, trajectory_one_chain)]


def run_form(form, q0, v, *args):
    """trajectory_reparam on one chain, or on the same start as a 1-row
    block, read back as its row; args are h, L, precond, model and
    optionally g0 and u0."""
    if form == "chain":
        return trajectory_reparam(q0, v, *args)
    given = [[value] for value in args[4:]]
    return trajectory_reparam(q0[None], v[None], *args[:4], *given).row(0)


def assert_same(new, ref):
    """new is the oracle's ref bit for bit: all of it for a live chain; for
    a stopped one the positions up to its stop, the gradients (zero from
    the stop on), no potential evaluated and delta +inf."""
    assert new.live == ref.live
    upto = ref.L + 1 if ref.live else ref.stopped_at + 1
    assert np.array_equal(new.q[:upto], ref.q[:upto], equal_nan=True)
    for name in ("grads", "v") + (("w",) if ref.live else ()):
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
    # step 0 (a start past the cliff), middle steps and the last step.
    # One chain per speed and all speeds as one block are held to the
    # oracle alike, in the points they call the target at too: a stopped
    # chain calls it at no step past its stop and for no potential
    rng = np.random.default_rng(KINDS.index(kind))
    m = hazard_model()
    p = random_precond(kind, 3, rng, scale=0.1)
    h, L = 0.3, 5
    V = np.linspace(0.0, 8.0, 81)[:, None] * np.array([0.2, 1.0, -0.1])
    steps = set()
    for q0 in (np.array([0.0, 0.5, 0.0]), np.array([2.5, 0.0, 0.0])):
        oracle, oracle_log = logged_model(m)
        refs = [trajectory_one_chain(q0, v, h, L, p, oracle) for v in V]
        chain, chain_log = logged_model(m)
        for v, ref in zip(V, refs):
            assert_same(trajectory_reparam(q0, v, h, L, p, chain), ref)
        block_model, block_log = logged_model(m)
        block = trajectory_reparam(np.tile(q0, (len(V), 1)), V, h, L, p, block_model)
        for i, ref in enumerate(refs):
            assert_same(block.row(i), ref)
        assert len(oracle_log["potential"]) == 2 * sum(ref.live for ref in refs)
        for key in ("grad", "potential"):
            assert chain_log[key] == oracle_log[key]
            assert sorted(block_log[key]) == sorted(oracle_log[key])
        steps.update(ref.stopped_at for ref in refs if not ref.live)
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
    # NaN or infinite entry stops the chain at its own step, as the
    # entrywise test does, with no further target call; one chain and a
    # 1-row block alike.  C = I keeps the huge gradients' maps finite
    d, L = 4, 6
    rng = np.random.default_rng(at)
    p = Preconditioner(kind, d, np.zeros(n_params(kind, d)))
    q0, v = rng.standard_normal(d), rng.standard_normal(d)
    for name, g in FINITENESS_CASES.items():
        ref = trajectory_one_chain(q0, v, 0.1, L, p, scripted_model(d, {at: g}))
        for form in FORMS:
            model, log = logged_model(scripted_model(d, {at: g}))
            new = run_form(form, q0, v, 0.1, L, p, model)
            assert_same(new, ref)
            if name == "overflow":
                assert not np.isfinite(np.sum(HUGE))
                assert np.array_equal(new.grads[at], HUGE)
            elif name == "squares overflow":
                g = np.array(SQUARES)
                assert np.isfinite(g.sum()) and not np.isfinite(g.dot(g))
                assert np.array_equal(new.grads[at], SQUARES)
            else:
                assert (ref.stopped_at, new.delta) == (at, np.inf)
                assert (len(log["grad"]), log["potential"]) == (at + 1, [])
            if at == 0:
                # the same gradient given at q0 is tested alike
                model, log = logged_model(scripted_model(d, {}))
                given = trajectory_one_chain(q0, v, 0.1, L, p, scripted_model(d, {}),
                                             np.array(g), None)
                assert_same(run_form(form, q0, v, 0.1, L, p, model, np.array(g), None), given)
                assert len(log["grad"]) == (L if given.live else given.stopped_at)
    if at == 0:
        # the gradient at q0 must be (d,): its row of grads would take a
        # scalar or a (1,) array by broadcasting
        for g in (0.5, [0.5], [0.5] * (d - 1)):
            for form in FORMS:
                with pytest.raises(ValueError, match="gradient has shape"):
                    run_form(form, q0, v, 0.1, L, p, scripted_model(d, {0: g}))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("at", [0, 3, 6])
def test_block_finiteness_edges(kind, at):
    # each case of test_finiteness_edges on row 1 of a 3-row block: the
    # block's one dot per step overflows or turns NaN, and each row keeps
    # its own one-chain outcome.  Overflowing rows stay live with their
    # exact entries; a NaN or infinite row leaves `live` at its own step,
    # keeps zero gradients from there and makes no further target call;
    # every row matches its one-chain oracle, in target calls too
    d, L, k = 4, 6, 3
    rng = np.random.default_rng(at)
    p = Preconditioner(kind, d, np.zeros(n_params(kind, d)))
    q0, v = rng.standard_normal((k, d)), rng.standard_normal((k, d))
    for name, g in FINITENESS_CASES.items():
        # row 1's gradient at step `at` is call at k + 1 of the block
        model, log = logged_model(scripted_model(d, {at * k + 1: g}))
        block = trajectory_reparam(q0, v, 0.1, L, p, model)
        points = {"grad": [], "potential": []}
        refs = []
        for i in range(k):
            row_model, row_log = logged_model(scripted_model(d, {at: g} if i == 1 else {}))
            refs.append(trajectory_one_chain(q0[i], v[i], 0.1, L, p, row_model))
            for key in points:
                points[key] += row_log[key]
            assert_same(block.row(i), refs[i])
        if name in ("overflow", "squares overflow"):
            assert block.live.all() and np.array_equal(block.grads[at, 1], g)
        else:
            assert list(block.live) == [True, False, True] and refs[1].stopped_at == at
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
