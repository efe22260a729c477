"""Activation ("squashing") functions for perceptrons and MLPs.

The paper (Section 2.1) describes the activation function as the source of an
MLP's non-linearity and singles out the logistic sigmoid

    f(x) = 1 / (1 + exp(-a * x))

with a *slope parameter* ``a`` that controls the fuzziness of the decision
boundary (Figure 2: the function approaches a hard limiter as ``|a|`` grows).
This module implements that function, its relatives, and their derivatives.

Every activation is a stateless object with two methods:

``forward(x)``
    The element-wise activation value.
``derivative(x, fx)``
    The element-wise derivative ``f'(x)``.  Both the pre-activation ``x`` and
    the already-computed output ``fx = f(x)`` are supplied so implementations
    can use whichever is cheaper (the logistic derivative is
    ``a * fx * (1 - fx)``, for example).

Activations are looked up by name with :func:`get_activation`, so model
configuration files can refer to them as plain strings.
"""

from __future__ import annotations

from typing import Dict, Type, Union

import numpy as np

__all__ = [
    "Activation",
    "Logistic",
    "Tanh",
    "ReLU",
    "LeakyReLU",
    "Softplus",
    "Identity",
    "HardLimiter",
    "get_activation",
    "register_activation",
    "available_activations",
]


class Activation:
    """Base class for element-wise activation functions."""

    #: Canonical registry name; subclasses override.
    name = "activation"

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return ``f(x)`` element-wise."""
        raise NotImplementedError

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        """Return ``f'(x)`` element-wise.

        Parameters
        ----------
        x:
            Pre-activation values.
        fx:
            ``forward(x)``, supplied so the derivative can reuse it.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))

    def config(self) -> dict:
        """Serializable description, consumed by :mod:`repro.nn.serialization`."""
        return {"name": self.name, **self.__dict__}


class Logistic(Activation):
    """The paper's sigmoid: ``f(x) = 1 / (1 + exp(-slope * x))``.

    The output lies in the open interval (0, 1).  ``slope`` is the paper's
    ``a`` parameter; as ``|slope|`` grows the function approaches a hard
    limiter (paper Figure 2).

    Notes
    -----
    The paper writes the function as ``1 / (1 + exp(a x))``; with a positive
    ``a`` that form is *decreasing*, which contradicts the accompanying text
    ("a strictly increasing function") and Figure 2.  We use the standard
    increasing convention ``1 / (1 + exp(-a x))``.
    """

    name = "logistic"

    def __init__(self, slope: float = 1.0):
        if slope <= 0:
            raise ValueError(f"slope must be positive, got {slope}")
        self.slope = float(slope)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # e = exp(-|z|) never overflows; each branch is the stable form for
        # its sign of z (1/(1+e^-z) for z >= 0, e^z/(1+e^z) otherwise).
        # minimum(z, -z) rather than -abs(z) keeps a NaN input's sign bit.
        z = self.slope * np.asarray(x, dtype=float)
        e = np.exp(np.minimum(z, -z))
        d = 1.0 + e
        return np.where(z >= 0, 1.0 / d, e / d)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return self.slope * fx * (1.0 - fx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Logistic(slope={self.slope})"


class Tanh(Activation):
    """Hyperbolic tangent; a sigmoid symmetric about the origin, range (-1, 1)."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return 1.0 - fx * fx


class ReLU(Activation):
    """Rectified linear unit, ``max(0, x)``.

    Not used by the 2006 paper but provided for the ablation benches; it is
    the modern default for hidden layers.
    """

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return (x > 0).astype(float)


class LeakyReLU(Activation):
    """Leaky rectifier: ``x`` for ``x > 0`` else ``alpha * x``."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.01):
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.alpha * x)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return np.where(x > 0, 1.0, self.alpha)


class Softplus(Activation):
    """Smooth rectifier ``log(1 + exp(x))``; derivative is the logistic."""

    name = "softplus"

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # log1p(exp(-|x|)) + max(x, 0) is stable for large |x|.
        return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return Logistic().forward(x)


class Identity(Activation):
    """Linear pass-through, used for regression output layers.

    A network whose hidden layers squash to (0, 1) cannot emit arbitrary
    magnitudes; regression MLPs therefore end in an identity layer.
    """

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


class HardLimiter(Activation):
    """Step function: 1 if ``x >= 0`` else 0.

    The limit of the logistic as the slope parameter grows (paper Figure 2).
    Not differentiable at 0, so it cannot be trained with back-propagation;
    it exists for the Section 2.2 hand-constructed AND/OR perceptrons.
    """

    name = "hard_limiter"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) >= 0.0).astype(float)

    def derivative(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        raise ValueError(
            "HardLimiter is not differentiable; use Logistic with a large "
            "slope for trainable near-threshold behaviour"
        )


_REGISTRY: Dict[str, Type[Activation]] = {}


def register_activation(cls: Type[Activation]) -> Type[Activation]:
    """Add an :class:`Activation` subclass to the by-name registry."""
    if not issubclass(cls, Activation):
        raise TypeError(f"{cls!r} is not an Activation subclass")
    _REGISTRY[cls.name] = cls
    return cls


for _cls in (Logistic, Tanh, ReLU, LeakyReLU, Softplus, Identity, HardLimiter):
    register_activation(_cls)


def available_activations() -> list:
    """Names accepted by :func:`get_activation`, sorted."""
    return sorted(_REGISTRY)


def get_activation(spec: Union[str, Activation, dict], **kwargs) -> Activation:
    """Resolve an activation from a name, config dict, or instance.

    >>> get_activation("logistic", slope=2.0)
    Logistic(slope=2.0)
    >>> get_activation({"name": "tanh"})
    Tanh()
    """
    if isinstance(spec, Activation):
        if kwargs:
            raise ValueError("cannot pass kwargs with an Activation instance")
        return spec
    if isinstance(spec, dict):
        spec = dict(spec)
        name = spec.pop("name")
        return get_activation(name, **{**spec, **kwargs})
    if spec not in _REGISTRY:
        raise KeyError(
            f"unknown activation {spec!r}; available: {available_activations()}"
        )
    return _REGISTRY[spec](**kwargs)
