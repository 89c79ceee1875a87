"""Dense oracles for the penalty algebra, by explicit matrix inversion."""

import numpy as np


def eager_grid_penalties(t):
    """q, bands, weights, P1ginv and P2ginv of the grid ``t``, formed at once
    from the dense second-difference operator D: the penalty build as it was
    before it kept only the factors."""
    h1, h2 = np.diff(t)[:-1], np.diff(t)[1:]
    j = np.arange(t.shape[0] - 2)
    d = np.zeros((j.shape[0], t.shape[0]))
    d[j, j] = 2.0 / (h1 * (h1 + h2))
    d[j, j + 1] = -2.0 / (h1 * h2)
    d[j, j + 2] = 2.0 / (h2 * (h1 + h2))
    w = 0.5 * (t[2:] - t[:-2])
    p2ginv = d.T @ (w[:, None] * d)
    q, _ = np.linalg.qr(np.column_stack([np.ones_like(t), t]))
    return dict(q=q, bands=np.stack([d[j, j + k] for k in range(3)]), weights=w,
                P1ginv=q @ q.T, P2ginv=0.5 * (p2ginv + p2ginv.T))


def dense_covariances(gp):
    """Sigma, P1 and P2 of one grid's penalties: Sigma = inv(P1ginv + P2ginv)
    = P1 + P2, with P1 = P1ginv."""
    sigma = np.linalg.inv(gp.P1ginv + gp.P2ginv)
    return sigma, gp.P1ginv, sigma - gp.P1ginv


def dense_prior_cov(pen, gamma_w, lambda_w):
    """gamma_w^{-1} Sigma_w + lambda_w^{-1} Pw on the base grid; for the
    second-derivative penalty Pw is the P2 block of Sigma_w."""
    sigma_w, _, p2_w = dense_covariances(pen.base)
    pw = p2_w if pen.derivative_order_w == 2 else pen.Pw
    return sigma_w / gamma_w + pw / lambda_w


def long_double_form(gp, a, b, r):
    """a |Q' r|^2 + b |W^(1/2) D r|^2 for each row of r, the form of
    a * P1ginv + b * P2ginv on one grid's penalties, in extended precision."""
    ld = np.longdouble
    r = np.asarray(r, dtype=ld)
    qr = r @ gp.q.astype(ld)
    d = np.zeros((gp.p - 2, gp.p))
    j = np.arange(gp.p - 2)
    for k in range(3):
        d[j, j + k] = gp.bands[k]
    dr = r @ d.astype(ld).T
    w = gp.weights.astype(ld)
    return a * np.sum(qr * qr, axis=1) + b * np.sum(w * dr * dr, axis=1)


def e_z0_sq_full(state):
    """Second moments E[z0_i^2] of every shift, including the derived one."""
    return np.append(state.var_z0 + state.mu_z0 ** 2,
                     np.sum(state.var_z0) + np.sum(state.mu_z0) ** 2)


def dense_e_form(mean, cov, matrix):
    """E[x' matrix x] = trace(matrix E[xx']) for x with that mean and
    covariance, through the dense second moment."""
    return float(np.sum((cov + np.outer(mean, mean)) * matrix))


def dense_logdet(cov):
    """log det of a dense covariance by factorization; it must be positive
    definite."""
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return logdet


def dense_elbo(state, config, pen, wprior, weight, registered):
    """The noiseless evidence bound from the dense q(f) covariance: one curve
    at a time, with dense second moments and a factorized log-determinant."""
    from scipy.special import digamma, gammaln

    def gamma_kl(c, d, c_q, d_q):
        # -KL(q || prior) of a gamma on a precision, or of an inverse gamma on
        # a variance through the gamma on its inverse
        e_log = digamma(c_q) - np.log(d_q)
        return (c * np.log(d) - gammaln(c) - c_q * np.log(d_q) + gammaln(c_q)
                + (c - c_q) * e_log + (d_q - d) * (c_q / d_q))

    hy, n, p = config.hyper, state.n_curves, pen.p
    cov = pen.main.covariance(state.var_f)
    a = weight.matrix
    one = np.ones(p)
    m0, e_z0_sq = state.mu_z0_full(), e_z0_sq_full(state)
    e_z1_sq = state.var_z1 + state.mu_z1 ** 2
    total = 0.0
    for i in range(n):
        xh = registered[i]
        total += -0.5 * (
            xh @ a @ xh - 2.0 * m0[i] * (xh @ a @ one)
            - 2.0 * state.mu_z1[i] * (xh @ a @ state.mu_f)
            + e_z0_sq[i] * (one @ a @ one)
            + 2.0 * m0[i] * state.mu_z1[i] * (one @ a @ state.mu_f)
            + e_z1_sq[i] * dense_e_form(state.mu_f, cov, a))
        total += -0.5 * wprior.form(i).quad(state.w_hat[i])
    total += digamma(state.c_q_eta_f) - np.log(state.d_q_eta_f)
    total += 0.5 * (p - 2) * (digamma(state.c_q_lambda_f) - np.log(state.d_q_lambda_f))
    total += -0.5 * dense_e_form(state.mu_f, cov,
                                 state.eta_f * pen.main.P1ginv
                                 + state.lambda_f * pen.main.P2ginv)
    total += 0.5 * dense_logdet(cov) + 0.5 * p
    for var, mu, shift, a_q, b_q in ((state.var_z0, state.mu_z0, 0.0,
                                      state.a_q_sigma_z0, state.b_q_sigma_z0),
                                     (state.var_z1, state.mu_z1, 1.0,
                                      state.a_q_sigma_z1, state.b_q_sigma_z1)):
        k = var.shape[0]
        total += 0.5 * np.sum(np.log(var)) \
            - 0.5 * k * (np.log(b_q) - digamma(a_q)) \
            - 0.5 * (a_q / b_q) * np.sum(var + (mu - shift) ** 2) + 0.5 * k
        total += gamma_kl(hy.a, hy.b, a_q, b_q)
    total += gamma_kl(hy.c, hy.d, state.c_q_eta_f, state.d_q_eta_f)
    total += gamma_kl(hy.c, hy.d, state.c_q_lambda_f, state.d_q_lambda_f)
    return float(total)


def dense_roughness_rate(state, pen, matrix):
    """Summed E[(X_i - z0_i - z1_i f(h^{-1}))' matrix (same)] from the dense
    q(X) covariance, one curve at a time."""
    from gpalign.warping import at_inverse_warps

    n = state.n_curves
    cov = pen.main.covariance(state.var_X)
    ft = at_inverse_warps(state.mu_f, state.w_hat, pen.grid)
    m0, e_z0_sq = state.mu_z0_full(), e_z0_sq_full(state)
    one = np.ones(pen.p)
    total = 0.0
    for i in range(n):
        mu, m = state.mu_X[i], m0[i] * one + state.mu_z1[i] * ft[i]
        e_z1_sq = state.var_z1[i] + state.mu_z1[i] ** 2
        total += dense_e_form(mu, cov, matrix) - 2.0 * (m @ matrix @ mu) \
            + e_z0_sq[i] * (one @ matrix @ one) \
            + 2.0 * m0[i] * state.mu_z1[i] * (one @ matrix @ ft[i]) \
            + e_z1_sq * dense_e_form(ft[i], cov / n, matrix)
    return float(total)
