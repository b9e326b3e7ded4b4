"""Shared test helpers: finite-difference gradient oracle, tiny configs."""

import numpy as np
import pytest

from vttcap import tensor as T
from vttcap.model import ModelConfig

pytest_plugins = ["pytester"]  # tests/test_settings.py runs pytest on a scratch suite


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def central_difference(loss_fn, param, index, h: float = 1e-3) -> float:
    """Independent gradient oracle: (f(x+h) - f(x-h)) / 2h at one component."""
    orig = param.data[index]
    with T.no_grad():
        param.data[index] = orig + h
        up = loss_fn().item()
        param.data[index] = orig - h
        down = loss_fn().item()
    param.data[index] = orig
    return (up - down) / (2.0 * h)


def assert_grads_match(loss_fn, params, rng, n_components: int = 20,
                       h: float = 1e-3, tol: float = 1e-4,
                       abs_floor: float = 1e-6):
    """Backward once, then compare sampled components against central differences.

    When the first estimate disagrees, the step is refined (h/10, h/100): a
    finite-difference artifact (ReLU kink inside the step, truncation) vanishes
    under refinement, a genuine backward bug does not.  Components where both
    estimates sit below ``abs_floor`` are compared absolutely.
    Returns the worst relative error seen.
    """
    for p in params:
        if p.grad is not None:  # a model parameter's grad is a view of its arena
            p.grad.fill(0)
    loss = loss_fn()
    loss.backward()
    flat = [(p, idx) for p in params for idx in np.ndindex(p.data.shape)]
    picks = rng.permutation(len(flat))[:n_components]
    worst = 0.0
    for i in picks:
        p, idx = flat[i]
        analytic = float(p.grad[idx]) if p.grad is not None else 0.0
        err = None
        for step in (h, h / 10.0, h / 100.0):
            numeric = central_difference(loss_fn, p, idx, h=step)
            if max(abs(analytic), abs(numeric)) < abs_floor:
                err = 0.0
                break
            err = rel_err(analytic, numeric)
            if err < tol:
                break
        worst = max(worst, err)
        assert err < tol, (f"gradient mismatch at {p.name or 'param'}{idx}: "
                           f"analytic {analytic:.8g} vs numeric {numeric:.8g} "
                           f"(rel err {err:.3e} after step refinement)")
    return worst


def sum_all(x):
    """Sum of every entry of ``x`` as a 0-d tensor, the scalar loss of the
    gradient checks; backward spreads the gradient to every entry."""
    def back(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g))

    return T._result(x.data.sum(), (x,), back)


def teacher_forced(model, videos, token_ids):
    """Teacher-forced logits of caption row b over ``videos[b]``, a (frames,
    audio) pair, every video encoded in one batch."""
    return model.forward_teacher_forced(model.encode(videos), list(range(len(videos))),
                                        token_ids)


def encoded(model, frames, audio=None):
    """The encoding of the one video (frames, audio), made without a graph."""
    with T.no_grad():
        return model.encode([(frames, audio)])


def only(batch):
    """Row 0 of a batch of one, as a tensor, for checks on one video's
    (positions, ...) values."""
    return T.gather_rows(batch, 0)


def tiny_config(attention_kind: str = "memory_scaled_dot", **overrides) -> ModelConfig:
    """The spec's gradient-suite configuration."""
    base = dict(n_enc=1, n_dec=1, n_heads=2, d_model=8, d_ff=16, d_memory=2,
                vocab_size=12, d_vision=5, d_audio=3, p_audio=300, l_max=8,
                attention_kind=attention_kind)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)
