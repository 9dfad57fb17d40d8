"""Shared oracles and helpers for the test suite.

The oracles follow textbook formulas rather than the package's fast
paths, so the two routes stay independent: the leapfrog in raw (q, p)
coordinates, the exact residual-Jacobian recursion, dense factors, and
the adaptation losses re-evaluated at any parameter point with the
trajectory's gradients frozen, whose finite differences check the
package's analytic gradients.
"""

from dataclasses import dataclass

import numpy as np

from ehmc.entropy import (DELTA_PRIME, N_MIN, MidpointOperator, RouletteDraw, dl_coeff,
                          penalty_h)
from ehmc.integrator import Trajectory, energy_error, trajectory_reparam
from ehmc.objective import L2HMC_FLOOR, _contract, _delta_terms, _endpoint_pieces
from ehmc.precond import Preconditioner, n_params
from ehmc.targets import TargetModel


def masked_sigmoid(t):
    """Logistic function through a boolean-mask gather and scatter: the
    package's former form, against which the one-pass form is bit-checked."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def cholesky_inverse(S):
    """Symmetrized inverse of the SPD matrix S through the upper Cholesky
    factor that LAPACK reads from S's upper triangle: the numpy operations
    a Gaussian covariance matrix is documented to be inverted by."""
    U = np.linalg.cholesky(S.T).T
    U_inv = np.linalg.solve(U, np.eye(S.shape[0]))
    P = U_inv @ U_inv.T
    return 0.5 * (P + P.T)


def textbook_logistic(X, y, prior_cov=1.0):
    """Logistic-regression posterior from the textbook formulas: a C-order
    design, ``np.logaddexp`` for log(1 + e^t) and ``masked_sigmoid``."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def potential(q):
        t = X @ q
        return float(np.sum(np.logaddexp(0.0, t) - y * t)) + 0.5 * float(q @ q) / prior_cov

    def grad(q):
        return X.T @ (masked_sigmoid(X @ q) - y) + q / prior_cov

    def hvp(q, w):
        s = masked_sigmoid(X @ q)
        return X.T @ (s * (1.0 - s) * (X @ w)) + w / prior_cov

    return TargetModel(dim=X.shape[1], potential=potential, grad=grad, hvp=hvp)


def flat_model(d):
    """Zero potential in d dimensions: free-particle trajectories."""
    return TargetModel(dim=d, potential=lambda q: 0.0, grad=lambda q: np.zeros(d),
                       hvp=lambda q, w: np.zeros(d))


def with_theta(precond, theta):
    """Fresh preconditioner of the same kind at a different parameter point."""
    return Preconditioner(precond.kind, precond.dim, np.asarray(theta, dtype=float))


def scaled_identity(kind, dim, s):
    """Factor C = s I: log s on C's diagonal, or -log s on the diagonal of
    B = C^{-1} for the banded kind."""
    theta = np.zeros(n_params(kind, dim))
    theta[:dim] = -np.log(s) if kind == "banded" else np.log(s)
    return Preconditioner(kind, dim, theta)


def fd_theta_gradient(f, theta, eps=1e-6):
    """Central finite differences of a function of theta: of its scalar
    value, or of each entry of its array value with theta's axis last."""
    theta = np.asarray(theta, dtype=float)
    out = []
    for j in range(theta.size):
        tp = theta.copy()
        tp[j] += eps
        tm = theta.copy()
        tm[j] -= eps
        out.append((np.asarray(f(tp)) - np.asarray(f(tm))) / (2.0 * eps))
    return np.stack(out, axis=-1)


def relative_error(approx, exact, floor=1.0):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(floor, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact))) / scale


def logdet(precond):
    """log |det C| of a preconditioner: the sum of the log-diagonal of C,
    or minus that of B = C^{-1} for the banded kind."""
    s = float(np.sum(precond.theta[: precond.dim]))
    return -s if precond.kind == "banded" else s


def forward_substitution(diag, sup, w):
    """x with B^T x = w for the upper bidiagonal B with diagonal diag and
    superdiagonal sup, by textbook forward substitution on one (d,) vector."""
    x = np.empty(len(w))
    x[0] = w[0] / diag[0]
    for i in range(1, len(w)):
        x[i] = (w[i] - sup[i - 1] * x[i - 1]) / diag[i]
    return x


def banded_upper_bidiagonal(precond):
    """Dense B for a banded-kind preconditioner (C = B^{-1})."""
    d = precond.dim
    B = np.diag(np.exp(precond.theta[:d]))
    for i in range(d - 1):
        B[i, i + 1] = precond.theta[d + i]
    return B


def dense_lower_factor(precond):
    """Dense C for a dense-kind preconditioner, filled row by row."""
    d = precond.dim
    C = np.diag(np.exp(precond.theta[:d]))
    k = d
    for i in range(1, d):
        C[i, :i] = precond.theta[k : k + i]
        k += i
    return C


def factor_inverse(precond, w, transpose=False):
    """C^{-1} w, or C^{-T} w if transpose, for a (d,) or (k, d) w, by each
    kind's own formula from theta: w / exp(theta) (diagonal), a triangular
    solve with C or C^T (dense), and B w or B^T w from the band (banded,
    whose C^{-1} is B)."""
    from scipy.linalg import solve_triangular

    w = np.asarray(w, dtype=float)
    d = precond.dim
    if precond.kind == "diagonal":
        return w / np.exp(precond.theta)
    if precond.kind == "dense":
        trans = "T" if transpose else "N"
        return solve_triangular(dense_lower_factor(precond), w.T, trans=trans, lower=True).T
    sup = precond.theta[d:]
    out = np.exp(precond.theta[:d]) * w
    if transpose:
        out[..., 1:] += sup * w[..., :-1]
    else:
        out[..., :-1] += sup * w[..., 1:]
    return out


class TextbookFactor:
    """C w and C^T w on (d,) vectors, built from a preconditioner's theta
    alone: exp of the diagonal, the dense C filled row by row, scipy's
    ``solve_banded`` with B and ``forward_substitution`` with B^T for the
    banded kind.  Every input is converted with ``np.asarray`` and
    shape-checked, as the package's maps did before they bound a
    per-theta implementation."""

    def __init__(self, precond):
        from scipy.linalg import solve_banded

        self.dim = d = precond.dim
        if precond.kind == "diagonal":
            e = np.exp(precond.theta)
            self._matvec = self._rmatvec = lambda w: e * w
        elif precond.kind == "dense":
            C = dense_lower_factor(precond)
            self._matvec, self._rmatvec = (lambda w: C @ w), (lambda w: C.T @ w)
        else:
            B = banded_upper_bidiagonal(precond)
            ab_upper = np.zeros((2, d))
            ab_upper[0, 1:] = np.diag(B, 1)
            ab_upper[1] = np.diag(B)
            self._matvec = lambda w: solve_banded((0, 1), ab_upper, w)
            self._rmatvec = lambda w: forward_substitution(np.diag(B), np.diag(B, 1), w)

    def _check(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"vector has shape {w.shape}, expected ({self.dim},)")
        return w

    def matvec(self, w):
        return self._matvec(self._check(w))

    def rmatvec(self, w):
        return self._rmatvec(self._check(w))


class ReferenceMidpointOperator(MidpointOperator):
    """MidpointOperator through the checked maps ``precond.matvec`` and
    ``rmatvec`` of the factor's current theta: the pair (D w, H C w), two
    zero vectors at L = 1."""

    def __call__(self, w):
        if self.L == 1:
            w = np.asarray(w, dtype=float)
            return np.zeros_like(w), np.zeros_like(w)
        hcw = self.model.hvp(self.q_mid, self.precond.matvec(w))
        return self.coeff * self.precond.rmatvec(hcw), hcw


def pair_operator(apply):
    """The map w -> D w as the pair callable a roulette pass takes: with
    C = I and coefficient 1, H C w is D w itself."""

    def op(w):
        z = apply(w)
        return z, z.copy()

    return op


@dataclass
class ReferenceDraw(RouletteDraw):
    """A roulette draw that also keeps eta_bar, the final iterate."""

    eta_bar: np.ndarray


def _checked(z):
    # the rule the package's pass keeps: an operator output with a
    # non-finite entry raises
    if not np.isfinite(z).all():
        raise FloatingPointError("non-finite Hessian-vector product")
    return z


def roulette_pass_reference(dl, dim, rng, delta_prime=DELTA_PRIME, n_min=N_MIN):
    """The roulette pass with survival probabilities from a mask over
    1..N, both norms recomputed by ``np.linalg.norm`` on every term and
    every operator output tested entrywise for finiteness: the reference
    the package's pass must match bit for bit, in every RouletteDraw field,
    hvp_y summed term by term as H C eta_k arrives (from the next
    application, or as ||eta_N|| H C b from the mu probe).  It also returns
    the final iterate eta_bar."""
    epsilon = rng.integers(0, 2, size=dim).astype(float) * 2.0 - 1.0
    n = n_min + int(rng.geometric(0.5)) - 1
    k = np.arange(1, n + 1)
    survival = np.where(k <= n_min, 1.0, 0.5 ** np.maximum(k - n_min, 0))
    eta = epsilon.copy()
    y = np.zeros(dim)
    eps_eta = np.zeros(n)
    clamps = 0
    degenerate = False
    hvp_y = np.zeros(dim)
    for k in range(1, n + 1):
        z, hcw = dl(eta)
        _checked(z)
        if k == 1:
            hvp_eps = hcw
        else:
            # dl(eta_{k-1}) made H C eta_{k-1}
            hvp_y += ((-1.0) ** (k - 1) / survival[k - 2]) * hcw
        zn = float(np.linalg.norm(z))
        en = float(np.linalg.norm(eta))
        if zn == 0.0:
            eta = np.zeros(dim)
            degenerate = True
            break
        if zn > delta_prime * en:
            z = z * (delta_prime * en / zn)
            clamps += 1
        eta = z
        y += ((-1.0) ** k / survival[k - 1]) * eta
        eps_eta[k - 1] = float(epsilon @ eta)
    if degenerate or float(np.linalg.norm(eta)) == 0.0:
        b = np.zeros(dim)
        mu = 0.0
        hvp_b = np.zeros(dim)
    else:
        norm = float(np.linalg.norm(eta))
        b = eta / norm
        z, hvp_b = dl(b)
        mu = float(b @ _checked(z))
        hvp_y += ((-1.0) ** n / survival[n - 1] * norm) * hvp_b
    return ReferenceDraw(epsilon=epsilon, n_terms=n, survival=survival, y=y, b=b, mu=mu,
                         eps_eta=eps_eta, clamp_count=clamps, hvp_eps=hvp_eps,
                         hvp_b=hvp_b, hvp_y=hvp_y, eta_bar=eta)


def penalty_value_reference(x, delta):
    """The eigenvalue penalty's value, written apart from its slope: the
    reference that ``penalty_h(x, delta)[0]`` is bit-checked against."""
    delta2 = 1.0 + delta
    if x <= delta:
        return 0.0
    if x <= delta2:
        return (x - delta) ** 2
    w = delta2 - delta
    return w * w + w * w * (x - delta2)


def penalty_slope_reference(x, delta):
    """The eigenvalue penalty's slope (at a kink, the slope on its left),
    written apart from its value: the reference that
    ``penalty_h(x, delta)[1]`` is bit-checked against."""
    delta2 = 1.0 + delta
    if x <= delta:
        return 0.0
    if x <= delta2:
        return 2.0 * (x - delta)
    return (delta2 - delta) ** 2


def roulette_logdet_estimate(draw):
    """Unbiased log det(I + D) estimate from one pass.

    Sums ((-1)^{k+1} / (k p_k)) epsilon^T eta_k; unbiased for contractive
    D when no clamps fired (clamping trades a little bias for stability).
    """
    k = np.arange(1, draw.n_terms + 1)
    signs = (-1.0) ** (k + 1)
    return float(np.sum(signs / (k * draw.survival) * draw.eps_eta))


def trajectory_one_chain(q0, v, h, L, precond, model, g0=None, u0=None):
    """The one-chain leapfrog with textbook factor maps with checked
    inputs, every gradient tested entrywise with ``np.isfinite``, and the
    last half-kick to the final velocity w made with the same maps.

    A non-finite gradient at step s, given or evaluated, stops the chain
    there: no further target call, grads zero from s on, q NaN past s,
    w None, ``live`` False, and ``stopped_at`` = s (None for a live
    chain).  The package's (d,) path and each row of its (k, d) blocks
    must match it bit for bit, up to step s for a stopped chain.  The
    energy error is the shared ``integrator.energy_error``, which reads
    that w and evaluates no potential for a stopped chain."""
    maps = TextbookFactor(precond)
    q0 = np.asarray(q0, dtype=float)
    v = np.asarray(v, dtype=float)
    q = np.full((L + 1,) + q0.shape, np.nan)
    q[0] = q0
    grads = np.zeros_like(q)

    def stops(step, g=None):
        grads[step] = model.grad(q[step]) if g is None else g
        if np.isfinite(grads[step]).all():
            return False
        grads[step] = 0.0
        return True

    stopped_at, w = None, None
    if stops(0, g0):
        stopped_at = 0
    else:
        u = v - 0.5 * h * maps.rmatvec(grads[0])
        for step in range(1, L + 1):
            q[step] = q[step - 1] + h * maps.matvec(u)
            if stops(step):
                stopped_at = step
                break
            if step < L:
                u = u - h * maps.rmatvec(grads[step])
        else:
            w = u - 0.5 * h * maps.rmatvec(grads[L])
    traj = Trajectory(q=q, grads=grads, v=v.copy(), w=w, h=h, L=L, u0=u0,
                      live=stopped_at is None)
    traj.stopped_at = stopped_at
    traj.delta = energy_error(traj, model)
    return traj


def mala_log_accept(q, q_new, v, h, C, grad, potential):
    """Independent preconditioned-MALA acceptance, dense-matrix route.

    Proposal: q' = q - (h^2/2) C C^T grad(q) + h C v with v standard
    normal, i.e. N(mean(q), h^2 C C^T).  Returns log alpha computed from
    the classic ratio with explicit quadratic forms.
    """
    M_inv = C @ C.T

    def log_kernel(dst, src):
        mean = src - 0.5 * h * h * (M_inv @ grad(src))
        resid = np.linalg.solve(C, dst - mean)
        return -0.5 * float(resid @ resid) / (h * h)

    log_ratio = (
        -potential(q_new)
        + potential(q)
        + log_kernel(q, q_new)
        - log_kernel(q_new, q)
    )
    return min(0.0, log_ratio)


# -- leapfrog and the residual-Jacobian recursion ------------------------


def leapfrog_direct(q0, p0, h, L, precond, model):
    """Velocity-Verlet endpoint in raw (q, p) coordinates.

    Kinetic energy is 0.5 p^T C C^T p, so the drift is q += h C C^T p.
    """
    if h <= 0 or L < 1:
        raise ValueError("need h > 0 and L >= 1")
    q = np.array(q0, dtype=float)
    p = np.asarray(p0, dtype=float) - 0.5 * h * model.grad(q)
    for step in range(1, L + 1):
        q = q + h * precond.matvec(precond.rmatvec(p))
        p = p - (h if step < L else 0.5 * h) * model.grad(q)
    return q, p


def residual_map(traj, precond):
    """S_L(v) = (1/(Lh)) C^{-1} q_L - v, the drift-free residual of the endpoint."""
    return precond.solve(traj.q[traj.L]) / (traj.L * traj.h) - traj.v


def residual_jacobian_fd(q0, v, h, L, precond, model, eps=1e-6):
    """Central differences in v of the residual map of fresh trajectories."""
    d = v.size
    jac = np.zeros((d, d))
    for j in range(d):
        vp, vm = v.copy(), v.copy()
        vp[j] += eps
        vm[j] -= eps
        sp = residual_map(trajectory_reparam(q0, vp, h, L, precond, model), precond)
        sm = residual_map(trajectory_reparam(q0, vm, h, L, precond, model), precond)
        jac[:, j] = (sp - sm) / (2.0 * eps)
    return jac


def ds_recursion(traj, precond, model, upto=None):
    """Exact Jacobian of the residual map by the leapfrog recursion.

    DS_1 = 0 and
    DS_l = -h^2 sum_{i=1}^{l-1} (l-i)(i/l) C^T H(q_i) C (I + DS_i),
    with H the potential Hessian at the cached trajectory points.  Each
    level is symmetrized, matching the symmetry of the underlying
    Jacobian; the raw products pick up harmless O(h^5) asymmetry when the
    Hessians along the path differ.  One hvp per basis vector per interior
    point, so small d only.
    """
    L = traj.L
    if upto is None:
        upto = L
    if not 1 <= upto <= L:
        raise ValueError(f"upto must lie in [1, {L}]")
    d = traj.q.shape[1]
    h2 = traj.h * traj.h
    eye = np.eye(d)
    ds = [None, np.zeros((d, d))]
    a_mats = {}
    for ell in range(2, upto + 1):
        i = ell - 1
        if i not in a_mats:
            a_mats[i] = _ct_hessian_c(traj.q[i], precond, model)
        total = np.zeros((d, d))
        for j in range(1, ell):
            total += (ell - j) * (j / ell) * (a_mats[j] @ (eye + ds[j]))
        mat = -h2 * total
        ds.append(0.5 * (mat + mat.T))
    return ds[upto]


def _ct_hessian_c(q, precond, model):
    # dense C^T H(q) C, one hvp per column
    d = q.size
    out = np.empty((d, d))
    basis = np.eye(d)
    for j in range(d):
        out[:, j] = precond.rmatvec(model.hvp(q, precond.matvec(basis[j])))
    return 0.5 * (out + out.T)


# -- adaptation losses at any parameter point, pieces frozen -------------


def gradient_accumulator(traj):
    """xi = sum_{i=1}^{L-1} (L - i) g_i of a one-chain trajectory."""
    return sum(((traj.L - i) * traj.grads[i] for i in range(1, traj.L)),
               np.zeros_like(traj.v))


def surrogate_endpoint(traj, precond):
    """q_L = q_0 + Lh C v - h^2 C C^T xi - (L h^2 / 2) C C^T g_0 from the
    cached gradients, as an explicit function of the preconditioner."""
    h, L = traj.h, traj.L
    ct_terms = h * h * gradient_accumulator(traj) + 0.5 * L * h * h * traj.grads[0]
    return traj.q[0] + L * h * precond.matvec(traj.v) - precond.matvec(
        precond.rmatvec(ct_terms)
    )


def surrogate_final_velocity(traj, precond):
    """w = C^T p_L = v - C^T (h/2 (g_0 + g_L) + h * sum of interior g), with
    the trajectory's gradients frozen, as a function of the preconditioner."""
    h, L = traj.h, traj.L
    m = 0.5 * h * (traj.grads[0] + traj.grads[L]) + h * traj.grads[1:L].sum(axis=0)
    return traj.v - precond.rmatvec(m)


def surrogate_delta(traj, precond, model):
    """Energy error re-evaluated at an arbitrary parameter point."""
    w = surrogate_final_velocity(traj, precond)
    u0 = model.potential(traj.q[0])
    u_end = model.potential(surrogate_endpoint(traj, precond))
    return u_end - u0 + 0.5 * float(w @ w) - 0.5 * float(traj.v @ traj.v)


def _entropy_bilinear(traj, precond, model, u, w):
    # u^T D_L(theta) w with the midpoint frozen; one hvp
    if traj.L == 1:
        return 0.0
    hw = model.hvp(traj.midpoint, precond.matvec(w))
    return dl_coeff(traj.h, traj.L) * float(precond.matvec(u) @ hw)


def penalty_slopes(draws, state):
    """The slope of ``penalty_h`` at each draw's |mu|: the slopes that
    ``adaptive_step`` hands ``gsm_gradient``."""
    return [penalty_h(abs(draw.mu), state.config.penalty_delta)[1] for draw in draws]


def gsm_gradient_without_entropy(traj, state, precond):
    """``gsm_gradient`` of the block traj with its entropy and penalty terms
    left out: the log-det part, and the energy part on the rows whose
    energy error is positive.  At L = 1, where D is zero, the package's
    gradient must equal it bit for bit."""
    out = np.zeros((len(traj.delta), precond.theta.size))
    precond.accumulate_logdet_grad(out, -state.beta)
    positive = np.isfinite(traj.delta) & (traj.delta > 0.0)
    ends = _endpoint_pieces(traj, precond)
    _contract(precond, _delta_terms(traj, precond, ends, positive.astype(float)), out)
    return out


def gsm_surrogate_loss(traj, draw, state, precond, model):
    """Penalised loss at an arbitrary parameter point, frozen pieces fixed.

    Returns the scalar and a breakdown record with the energy, log-det,
    entropy-surrogate and penalty parts (the last three scaled by beta
    and beta * gamma inside the total).
    """
    d = traj.q.shape[1]
    delta = surrogate_delta(traj, precond, model)
    energy = max(0.0, delta)
    log_det = d * np.log(traj.h) + logdet(precond)
    ent = _entropy_bilinear(traj, precond, model, draw.y, draw.epsilon)
    mu = _entropy_bilinear(traj, precond, model, draw.b, draw.b)
    pen = penalty_h(abs(mu), state.config.penalty_delta)[0]
    loss = energy - state.beta * (log_det + ent - state.gamma * pen)
    parts = {
        "delta": delta,
        "energy": energy,
        "logdet": log_det,
        "entropy": ent,
        "mu": mu,
        "penalty": pen,
    }
    return loss, parts


def _l2hmc(j, state):
    lam = state.lambda_ma
    return -(j / lam - lam / max(j, L2HMC_FLOOR))


def accept_prob(delta):
    """min(1, exp(-delta)) for one energy error, 0 for a non-finite one,
    with exp's argument clamped at 700."""
    if not np.isfinite(delta):
        return 0.0
    return min(1.0, float(np.exp(-max(delta, -700.0))))


def _jump(delta, q0, qL):
    # J = a ||q_L - q_0||^2 with a the acceptance probability
    jump = qL - q0
    return accept_prob(delta) * float(jump @ jump)


def _surrogate_jump(traj, precond, model):
    # J with a and q_L re-evaluated at precond
    return _jump(surrogate_delta(traj, precond, model), traj.q[0],
                 surrogate_endpoint(traj, precond))


def esjd_loss(traj):
    """Negative acceptance-weighted squared jump of the trajectory."""
    return -_jump(traj.delta, traj.q[0], traj.q[traj.L])


def esjd_surrogate_loss(traj, precond, model):
    """ESJD loss re-evaluated at an arbitrary parameter point."""
    return -_surrogate_jump(traj, precond, model)


def l2hmc_loss(traj, state):
    """Jump-over-average ratio loss with a reciprocal barrier.

    loss = -(J / lambda - lambda / max(J, floor)) where J is the
    acceptance-weighted squared jump and lambda its moving average.
    """
    return _l2hmc(_jump(traj.delta, traj.q[0], traj.q[traj.L]), state)


def l2hmc_surrogate_loss(traj, state, precond, model):
    """L2HMC loss re-evaluated at an arbitrary parameter point."""
    return _l2hmc(_surrogate_jump(traj, precond, model), state)


def one_row_block(traj):
    """A one-chain trajectory as a block of one row, the form the objective
    gradients take."""
    return Trajectory(q=traj.q[:, None], grads=traj.grads[:, None], v=traj.v[None],
                      w=traj.w[None], h=traj.h, L=traj.L,
                      delta=np.array([traj.delta]), u0=[traj.u0], u_end=[traj.u_end],
                      live=np.ones(1, dtype=bool))


def adaptive_step_per_chain(chains, state, model, h, L, objective="gsm", record=None):
    """The adaptive step one chain at a time: each chain's own transition,
    roulette pass and gradient on a 1-row block, then the shared update.
    The package moves the chains in lockstep as one block; this is the
    reference it must match bit for bit.  Like the package, it looks its
    functions up as ``sampler`` globals."""
    from ehmc import sampler

    precond = state.precond
    cfg = state.config
    trajs = []
    a_vals = []
    step_divergences = 0
    for chain in chains:
        before = chain.divergence_count
        _, traj, a = sampler.hmc_transition(chain, precond, model, h, L)
        step_divergences += chain.divergence_count - before
        trajs.append(traj)
        a_vals.append(a)
    mean_a = float(np.mean(a_vals))
    stats = {"accept": mean_a, "divergences": step_divergences,
             "mu": np.nan, "pen": np.nan}
    live = [(c, one_row_block(t)) for c, t in zip(chains, trajs) if t.live]
    grads, pens, mus = [], [], []
    if objective == "gsm":
        for chain, block in live:
            dl = sampler.MidpointOperator(block.midpoint[0], precond, model, h, L)
            try:
                draw = sampler.roulette_pass(dl, model.dim, chain.rng_roulette,
                                             cfg.delta_prime, cfg.n_min)
            except FloatingPointError:
                state.skip_count += 1
                continue
            pen, slope = sampler.penalty_h(abs(draw.mu), cfg.penalty_delta)
            grads.append(sampler.gsm_gradient(block, [draw], [slope], state, precond)[0])
            pens.append(pen)
            mus.append(abs(draw.mu))
    elif objective == "esjd":
        grads = [sampler.esjd_gradient(block, precond)[0] for _, block in live]
    elif objective == "l2hmc":
        jumps = [sampler.jump_value(block) for _, block in live]
        fresh_lambda = state.lambda_ma is None
        if fresh_lambda and jumps:
            sampler.update_lambda(state, float(np.mean(jumps)))
        grads = [sampler.l2hmc_gradient(block, jump, state, precond)[0]
                 for (_, block), jump in zip(live, jumps)]
    finite = [g for g in grads if np.isfinite(g).all()]
    state.skip_count += len(grads) - len(finite)
    if finite:
        sampler.adam_update(state, np.mean(finite, axis=0))
    if objective == "gsm":
        sampler.update_beta(state, mean_a)
        if pens:
            stats["pen"] = float(np.mean(pens))
            stats["mu"] = float(np.mean(mus))
            sampler.update_gamma(state, stats["pen"])
    elif objective == "l2hmc" and jumps and not fresh_lambda:
        sampler.update_lambda(state, float(np.mean(jumps)))
    if record is not None:
        record.update(stats)
    return chains, state


def logged_model(base):
    """The same target with every grad, potential and hvp evaluation point
    logged (as bytes of the position), and each input checked to be one
    (d,) vector."""
    from ehmc.targets import TargetModel

    log = {"grad": [], "potential": [], "hvp": []}

    def logged(name, fn):
        def wrapper(q, *rest):
            q = np.asarray(q)
            if q.shape != (base.dim,) or any(np.shape(w) != (base.dim,) for w in rest):
                raise AssertionError(f"{name} called on shape {q.shape}")
            log[name].append(q.tobytes())
            return fn(q, *rest)
        return wrapper

    model = TargetModel(dim=base.dim, potential=logged("potential", base.potential),
                        grad=logged("grad", base.grad), hvp=logged("hvp", base.hvp),
                        precision=base.precision)
    return model, log


def hazard_model():
    """A 3-d Gaussian whose gradient is non-finite past a cliff, and whose
    Hessian-vector product is non-finite on one side of a plane and for
    long vectors w.  Chains diverge mid-trajectory, and roulette passes
    fail now and then."""
    from ehmc.targets import TargetModel, gaussian_target

    base = gaussian_target(covariance=np.array([1.0, 2.0, 0.5]))

    def grad(q):
        return np.full(3, np.nan) if np.max(np.abs(q)) > 2.2 else base.grad(q)

    def hvp(q, w):
        if q[0] > 0.9 or np.max(np.abs(w)) > 8.0:
            return np.full(3, np.inf)
        return base.hvp(q, w)

    return TargetModel(dim=3, potential=base.potential, grad=grad, hvp=hvp,
                       precision=base.precision)
