"""Finite-difference gradient checking for the analytic backward passes."""

import numpy as np

from vidcap.errors import NumericError, ParameterError
from vidcap.numerics import Params


def grad_check(
    loss_fn,
    params: Params,
    rng: np.random.Generator,
    h: float = 1e-5,
    samples_per_param: int = 5,
) -> float:
    """Max relative error between analytic gradients and central differences.

    `loss_fn(params) -> (loss, grads)` must be deterministic across calls
    (fix any internal randomness). A sampled subset of coordinates per
    parameter is perturbed by +-h. Relative error uses the numeric estimate
    as reference with a small floor so that near-zero gradients do not
    produce spurious blow-ups.
    """
    if h <= 0:
        raise ParameterError(f"step h must be > 0, got {h}")
    _, grads = loss_fn(params)
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        n_coords = min(samples_per_param, p.size)
        idx = rng.choice(p.size, size=n_coords, replace=False)
        flat = p.reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lo_plus, _ = loss_fn(params)
            flat[i] = orig - h
            lo_minus, _ = loss_fn(params)
            flat[i] = orig
            if not (np.isfinite(lo_plus) and np.isfinite(lo_minus)):
                raise NumericError(f"non-finite loss while probing {name}[{i}]")
            numeric = (lo_plus - lo_minus) / (2.0 * h)
            analytic = g.reshape(-1)[i]
            err = abs(analytic - numeric) / max(abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst
