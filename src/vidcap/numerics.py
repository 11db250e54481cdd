"""Dense-array numerics: RNG, basic ops, RMSProp and dropout.

Everything downstream (decoder, evaluator, features) is built on plain numpy
arrays. Everything is float64, so that training runs are reproducible
bit-for-bit and finite-difference checks are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

Params = dict[str, np.ndarray]


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 stream `key` of `seed`, the same on every platform: make_rng(s) is
    Generator(PCG64(s)), make_rng(s, k) stream k of SeedSequence(s).spawn(n > k)."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def check_fits_in_memory(shapes: dict[str, tuple[int, ...]], what: str) -> None:
    """ParameterError when float64 tensors of these shapes need more bytes than
    the machine's physical memory, so that an impossible model or transient
    fails before it allocates anything; `what` names the tensors, as in "the
    model's parameters". Where os.sysconf cannot tell, there is no bound."""
    import math
    import os

    need = 8 * sum(math.prod(shape) for shape in shapes.values())
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if page > 0 and pages > 0 and need > page * pages:
        raise ParameterError(f"{what} need {need} bytes, more than the "
                             f"{page * pages} bytes of physical memory")


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


def log_softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    v = np.asarray(v)
    if v.size == 0:
        raise DimensionError("log_softmax of empty input")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) cannot overflow: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class OptState:
    """RMSProp state: one non-negative accumulator per parameter."""

    learning_rate: float = 1e-3
    decay: float = 0.9
    epsilon: float = 1e-8
    acc: Params = field(default_factory=dict)

    def __post_init__(self):
        # lr == 0 is allowed as an explicit no-op (ablation switch)
        if self.learning_rate < 0:
            raise ParameterError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 < self.decay < 1.0:
            raise ParameterError(f"decay must be in (0,1), got {self.decay}")
        if self.epsilon <= 0:
            raise ParameterError(f"epsilon must be > 0, got {self.epsilon}")


def rmsprop_step(param: np.ndarray, grad: np.ndarray, state: OptState, name: str = "param") -> np.ndarray:
    """One in-place RMSProp update; returns the updated parameter.

    acc <- decay*acc + (1-decay)*grad^2,  param <- param - lr*grad/sqrt(acc+eps)
    """
    if param.shape != grad.shape:
        raise DimensionError(f"rmsprop grad shape {grad.shape} != param shape {param.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite gradient for {name}")
    acc = state.acc.get(name)
    if acc is None:
        acc = state.acc[name] = np.zeros_like(param)
    step = (1.0 - state.decay) * grad
    step *= grad
    acc *= state.decay
    acc += step
    np.sqrt(np.add(acc, state.epsilon, out=step), out=step)
    param -= np.divide(state.learning_rate * grad, step, out=step)
    return param


def rmsprop_update(params: Params, grads: Params, state: OptState) -> None:
    """Apply rmsprop_step to every entry of a parameter dict (fixed key order)."""
    for name in sorted(params):
        rmsprop_step(params[name], grads[name], state, name=name)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability `rate`, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)
