"""Fast kernels against the straightforward code they replaced.

The reference implementations live here, verbatim, so the rewrites stay
bit-identical: the mix draw must pick the same index *and* leave the
generator in the same state as ``Generator.choice``, and the logistic must
produce the same float64 bits as the masked two-branch form.
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.nn.activations import Logistic
from repro.workload.distributions import Hyperexponential, choice_cdf

WEIGHT_VECTORS = [
    [1.0],
    [0.5, 0.0, 0.5],
    [0.0, 1.0],
    [0.3, 0.7, 0.0],
    [0.1] * 10,  # sums to 0.9999999999999999
    [1 / 3, 1 / 3, 1 / 3],
    [0.85, 0.15],
    [0.45, 0.2, 0.15, 0.1, 0.1],
]


@pytest.mark.parametrize("weights", WEIGHT_VECTORS, ids=str)
def test_cdf_bisect_matches_generator_choice(weights):
    reference = np.random.default_rng(2024)
    fast = np.random.default_rng(2024)
    cdf = choice_cdf(weights)
    expected = [reference.choice(len(weights), p=weights) for _ in range(20_000)]
    drawn = [bisect_right(cdf, fast.random()) for _ in range(20_000)]
    assert drawn == expected
    assert fast.bit_generator.state == reference.bit_generator.state
    # Zero-weight branches are never drawn.
    assert all(weights[i] > 0 for i in set(drawn))


def test_hyperexponential_sample_matches_choice_reference():
    means, weights = [0.0038, 0.022], [0.85, 0.15]
    dist = Hyperexponential(means=means, weights=weights)
    reference = np.random.default_rng(7)
    fast = np.random.default_rng(7)
    expected = [
        float(reference.exponential(means[reference.choice(2, p=dist.weights)]))
        for _ in range(5_000)
    ]
    assert [dist.sample(fast) for _ in range(5_000)] == expected
    assert fast.bit_generator.state == reference.bit_generator.state


def test_hyperexponential_repr_hides_cached_cdf():
    text = repr(Hyperexponential(means=[0.1, 2.0], weights=[0.7, 0.3]))
    assert text == "Hyperexponential(means=[0.1, 2.0], weights=[0.7, 0.3])"


def _masked_logistic(slope, x):
    """The pre-rewrite ``Logistic.forward``: boolean-mask scatter."""
    z = slope * np.asarray(x, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SPECIAL = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 800.0, -800.0,
    1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0, 709.0, -709.0,
    745.0, -746.0,
]


def _batches():
    rng = np.random.default_rng(3)
    yield np.array(SPECIAL)
    yield np.array(SPECIAL).reshape(1, -1)
    yield np.array(0.25)
    yield rng.normal(size=(40, 16))
    yield rng.normal(scale=30.0, size=(64, 12))
    yield rng.uniform(-1e3, 1e3, size=(7, 3, 5))


@pytest.mark.parametrize("slope", [1.0, 10.0])
def test_logistic_forward_matches_masked_reference(slope):
    activation = Logistic(slope)
    for batch in _batches():
        expected = _masked_logistic(slope, batch)
        got = activation.forward(batch)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
