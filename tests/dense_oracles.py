"""Dense oracles for the penalty algebra, by explicit matrix inversion."""

import numpy as np


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
