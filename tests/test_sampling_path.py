"""The one-chain trajectory of the sampling phase against its oracle.

``_oracles.trajectory_one_chain`` is the leapfrog with textbook factor
maps and an entrywise finiteness test on every gradient.  The package's
(d,) path skips both costs; these tests hold it to the oracle bit for
bit, divergences included, and pin down what the factor maps accept.
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("given", [False, True])
def test_one_chain_equals_oracle(kind, L, given):
    rng = np.random.default_rng(10 * L + KINDS.index(kind))
    for d in (1, 5, 23):
        m = gaussian_target(covariance=np.exp(rng.normal(0, 0.5, d)))
        p = random_precond(kind, d, rng)
        for _ in range(3):
            q0, v = rng.standard_normal(d), rng.standard_normal(d)
            g0, u0 = (m.grad(q0), m.potential(q0)) if given else (None, None)
            new, ref = run_both(q0, v, 0.2, L, p, m, g0, u0)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("at", [0, 3, 6])
def test_finiteness_edges(kind, at):
    # the one-reduction test reads a gradient's sum: a sum that overflows
    # from finite entries is no divergence, while one NaN or infinite entry
    # raises at its own step, as the entrywise test does.  C = I keeps the
    # huge gradient's maps finite
    d, L = 4, 6
    rng = np.random.default_rng(at)
    p = Preconditioner(kind, d, np.zeros(n_params(kind, d)))
    q0, v = rng.standard_normal(d), rng.standard_normal(d)
    huge = [1e308] * d
    cases = {"overflow": huge, "nan": [0.5, np.nan, 0.0, 1.0],
             "+inf": [0.5, 0.0, np.inf, 1.0], "-inf": [-np.inf, 0.0, 0.5, 1.0],
             "+inf and -inf": [np.inf, -np.inf, 0.0, 0.0],
             "overflow and nan": huge[:3] + [np.nan]}
    for name, g in cases.items():
        new, ref = [outcome(fn, q0, v, 0.1, L, p, scripted_model(d, {at: g}))
                    for fn in (trajectory_reparam, trajectory_one_chain)]
        assert_same(new, ref)
        if name == "overflow":
            assert not np.isfinite(np.sum(huge))
            assert np.array_equal(new.grads[at], huge)
        else:
            assert new.step == at


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
