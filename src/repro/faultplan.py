"""The seeded fault-plan primitive under every fault injector.

The crowd (:class:`~repro.simulation.faults.FaultModel`), event
delivery (:class:`~repro.stream.chaos.StreamChaos`) and disk
(:class:`~repro.storage.chaos.StorageChaos`) fault injectors are frozen
dataclasses of rates over :class:`FaultPlan`, which owns what they
share: validation where a plan is built, the keyed draw
``SeedSequence([seed, *SALT, *key])`` whose first value picks an action
by cumulative thresholds over the exclusive rates (so a plan injects
the same faults however its draws interleave), the ``name=rate,...``
spec language and the ``REPRO_<NAME>`` / ``REPRO_<NAME>_SEED``
environment reader.

Only numpy and the standard library are imported: the journal writer
consults the storage plan on every append, so this module sits below
:mod:`repro.core` in the import graph.
"""

from __future__ import annotations

import numbers
import os
from typing import ClassVar

import numpy as np


class FaultPlan:
    """Base of the frozen fault-config dataclasses.

    A subclass declares its dataclass fields (``seed`` among them) and:
    ``ACTIONS``, the mutually exclusive per-draw rate fields in the
    order the draw checks them; ``RATES``, further independent rates;
    ``SALT``, key parts separating its draw streams from other plans';
    ``ENV``, the variable :meth:`from_env` reads; and, for a plan with a
    ``schedule`` of ``{key: action}`` overrides, ``KIND`` (its name in
    errors) and ``SCHEDULE_KEY`` (the types of a key's parts).
    """

    ACTIONS: ClassVar[tuple[str, ...]] = ()
    RATES: ClassVar[tuple[str, ...]] = ()
    SALT: ClassVar[tuple[int, ...]] = ()
    ENV: ClassVar[str | None] = None
    KIND: ClassVar[str] = "fault"
    SCHEDULE_KEY: ClassVar[tuple[type, ...]] = ()

    def __post_init__(self) -> None:
        seed = self.seed
        if (
            isinstance(seed, bool)
            or not isinstance(seed, numbers.Integral)
            or seed < 0
        ):
            raise ValueError(f"seed must be an int >= 0, got {seed!r}")
        for name in self.ACTIONS + self.RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} rate must lie in [0, 1], got {rate}"
                )
        if sum(getattr(self, name) for name in self.ACTIONS) > 1.0 + 1e-12:
            raise ValueError(
                f"{' + '.join(self.ACTIONS)} must not exceed 1 (they are "
                "mutually exclusive per draw)"
            )
        if self.SCHEDULE_KEY:
            schedule = {}
            for key, action in dict(self.schedule).items():
                if action not in self.ACTIONS:
                    raise ValueError(
                        f"unknown {self.KIND} action {action!r}; expected "
                        f"one of {list(self.ACTIONS)}"
                    )
                parts = zip(self.SCHEDULE_KEY, key, strict=True)
                schedule[tuple(kind(part) for kind, part in parts)] = action
            object.__setattr__(self, "schedule", schedule)

    @property
    def enabled(self) -> bool:
        return bool(getattr(self, "schedule", None)) or any(
            getattr(self, name) > 0.0 for name in self.ACTIONS + self.RATES
        )

    def draw(self, *key: int, size: int | None = None):
        """The ``SeedSequence([seed, *SALT, *key])`` stream's first
        value (or first ``size`` values)."""
        sequence = np.random.SeedSequence(
            [int(self.seed), *self.SALT, *(int(part) for part in key)]
        )
        return np.random.default_rng(sequence).random(size)

    def pick(self, *key: int) -> str | None:
        """The action the keyed draw picks, or ``None``."""
        if not any(getattr(self, name) > 0.0 for name in self.ACTIONS):
            return None
        draw = self.draw(*key)
        threshold = 0.0
        for name in self.ACTIONS:
            threshold += getattr(self, name)
            if draw < threshold:
                return name
        return None

    @classmethod
    def parse(cls, spec: str, seed: int = 0):
        """Build a plan from a ``name=rate,...`` CLI/env spec that names
        each fault at most once."""
        allowed = cls.ACTIONS + cls.RATES
        rates: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, value = part.partition("=")
            name = name.strip()
            if name not in allowed:
                raise ValueError(
                    f"unknown fault {name!r}; expected one of "
                    f"{sorted(allowed)}"
                )
            if name in rates:
                raise ValueError(f"fault {name!r} is named twice in {spec!r}")
            try:
                rates[name] = float(value)
            except ValueError:
                raise ValueError(f"bad rate for {name!r}: {value!r}") from None
        return cls(seed=seed, **rates)

    @classmethod
    def from_env(cls, environ=None):
        """The plan ``ENV`` (+ ``ENV_SEED``, default 0) specifies, or
        ``None`` when it is unset or enables nothing."""
        env = os.environ if environ is None else environ
        spec = env.get(cls.ENV) if cls.ENV else None
        if not spec:
            return None
        seed = env.get(f"{cls.ENV}_SEED", "0")
        try:
            plan = cls.parse(spec, seed=int(seed))
        except ValueError as error:
            raise ValueError(
                f"{cls.ENV}={spec!r}, {cls.ENV}_SEED={seed!r}: {error}"
            ) from None
        return plan if plan.enabled else None
