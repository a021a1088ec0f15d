"""Tolerance bundle shared by all validating constructors.

Every structural check in the package (hermiticity, unitarity, projector
idempotence, frame residuals, ...) reads its threshold from a single
:class:`NumericPolicy` record so that a caller can loosen or tighten the
whole stack coherently.  The environment variable ``ZENO_NUM_POLICY`` may
override individual fields with a ``key=value,key=value`` string.
"""

from __future__ import annotations

import dataclasses
import math
import os

from .errors import ConfigError, ValidationError

__all__ = ["NumericPolicy", "default_policy"]


ENV_VAR = "ZENO_NUM_POLICY"


@dataclasses.dataclass(frozen=True)
class NumericPolicy:
    """Tolerances used by validation and diagnostics.

    Every field must be positive and finite; construction (``replace``
    included) raises :class:`ValidationError` naming the first bad field.

    Attributes
    ----------
    hermitian_tol:
        Max-norm defect allowed in ``M - M^dagger``, relative to ``1 + |M|``.
    projector_tol:
        Max-norm defect allowed in ``P^2 - P`` and ``P - P^dagger``, and in
        ``V^dagger V - I`` of a level basis ``V``.
    rank_tol:
        How far ``trace(P)`` may sit from the nearest integer.
    trace_tol:
        Allowed deviation of a density-matrix trace from 1.
    psd_tol:
        Most negative eigenvalue a density matrix may carry.
    frame_tol:
        Allowed max-norm residual ``A P_n(0) A^dagger - P_n(t)``.
    degeneracy_rel:
        Relative factor (times spectral range) for the default eigenvalue
        clustering tolerance.
    adiabatic_margin:
        ``ratio <= adiabatic_margin * K**2`` is reported as adiabatic.
    qze_margin:
        Frequency dominance factor required by the Zeno-regime flag.
    imag_residual_tol:
        Allowed imaginary part of the raw jump quadrature, relative to
        ``1 + value``.
    """

    hermitian_tol: float = 1e-10
    projector_tol: float = 1e-10
    rank_tol: float = 1e-8
    trace_tol: float = 1e-10
    psd_tol: float = 1e-10
    frame_tol: float = 1e-6
    degeneracy_rel: float = 1e-8
    adiabatic_margin: float = 0.01
    qze_margin: float = 10.0
    imag_residual_tol: float = 1e-6

    def __post_init__(self):
        for name in self.field_names():
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{name}: must be positive and finite, got {value!r}")

    def replace(self, **overrides: float) -> "NumericPolicy":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_string(cls, text: str, base: "NumericPolicy | None" = None) -> "NumericPolicy":
        """Parse ``key=value,key=value`` overrides on top of ``base``.

        Every value must be a finite positive number; bad input raises
        :class:`ConfigError` naming the key.
        """
        policy = base if base is not None else cls()
        text = text.strip()
        if not text:
            return policy
        overrides: dict[str, float] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"bad policy item {item!r}: expected key=value")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in cls.field_names():
                raise ConfigError(f"unknown policy key {key!r}")
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"policy key {key!r}: expected a finite number, got {raw!r}")
            if not value > 0:
                raise ConfigError(f"policy key {key!r}: must be positive, got {raw!r}")
            overrides[key] = value
        return policy.replace(**overrides)

    @classmethod
    def from_env(cls) -> "NumericPolicy":
        """Default policy with ``ZENO_NUM_POLICY`` overrides applied."""
        return cls.from_string(os.environ.get(ENV_VAR, ""))


def default_policy(policy: NumericPolicy | None = None) -> NumericPolicy:
    """Resolve ``None`` to the environment-aware default policy."""
    return policy if policy is not None else NumericPolicy.from_env()
