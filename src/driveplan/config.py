"""Aggregated runtime configuration and ablation variants.

One flat structure holds every tunable constant across the stack; a config
file (JSON) is the single source of truth — environment variables are
deliberately ignored. Variants rewrite only their documented fields, and
the rewritten fields are reported so traces can prove ablation containment.
Every field is type- and range-checked on construction, so a bad config
file fails with ConfigError naming the field.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .inference import FilterConfig
from .observation import ObservationNoise
from .pomdp import RewardWeights
from .util import fits

VARIANTS = ("full", "wo_unc", "wo_is", "h4")


class ConfigError(Exception):
    pass


#: allowed range per numeric field, as (low, high, low_inclusive); a field
#: not listed here only has to have the right type
_RANGES = {
    "n_particles": (1, math.inf, True),
    "ess_frac": (0.0, 1.0, True),
    "theta_jitter_frac": (0.0, math.inf, True),
    "lik_floor": (0.0, math.inf, True),
    "intent_floor": (0.0, 1.0, True),
    "noise_pos": (0.0, math.inf, False),
    "noise_heading": (0.0, math.inf, False),
    "noise_speed": (0.0, math.inf, False),
    "k_scenarios": (1, math.inf, True),
    "horizon_s": (0.0, math.inf, False),
    "max_expansions": (0, math.inf, True),
    "n_is": (1, math.inf, True),
    "lambda_mix": (0.0, 1.0, True),
    "w_coll": (0.0, math.inf, True),
    "w_eff": (0.0, math.inf, True),
    "w_goal": (0.0, math.inf, True),
    "k_goal": (0.0, math.inf, True),
    "w_lc": (0.0, math.inf, True),
    "v_des_ego": (0.0, math.inf, True),
    "gamma": (0.0, 1.0, True),
}


def _check_field(name: str, kind: str, value) -> None:
    """Raise ConfigError unless value has the field's type and range."""
    if not fits(kind, value):
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")
    if name in _RANGES:
        lo, hi, lo_inclusive = _RANGES[name]
        if not ((lo <= value if lo_inclusive else lo < value) and value <= hi):
            left = "[" if lo_inclusive else "("
            right = ")" if math.isinf(hi) else "]"
            raise ConfigError(f"{name}: {value!r} outside {left}{lo}, {hi}{right}")


@dataclass(frozen=True)
class Config:
    variant: str = "full"
    # belief filter
    n_particles: int = 100
    ess_frac: float = 0.5
    theta_jitter_frac: float = 0.02
    lik_floor: float = 1e-12
    intent_floor: float = 1e-4
    # observation noise stds
    noise_pos: float = 0.3
    noise_heading: float = 0.05
    noise_speed: float = 0.3
    # belief tree search
    k_scenarios: int = 20
    horizon_s: float = 9.0
    max_expansions: int = 3
    # trajectory refinement
    n_is: int = 30
    lambda_mix: float = 0.5
    # reward
    w_coll: float = 10.0
    w_eff: float = 0.05
    w_goal: float = 0.1
    k_goal: float = 1.0
    w_lc: float = 0.3
    v_des_ego: float = 10.0
    gamma: float = 0.98

    def __post_init__(self):
        for f in fields(self):
            _check_field(f.name, f.type, getattr(self, f.name))

    def resolved(self) -> tuple["Config", dict]:
        """Apply the variant's documented overrides; returns (config, diff)."""
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        overrides = {}
        if self.variant == "wo_unc":
            overrides = {"k_scenarios": 1, "n_is": 1}
        elif self.variant == "wo_is":
            overrides = {"lambda_mix": 0.0}
        elif self.variant == "h4":
            overrides = {"horizon_s": 4.0}
        return replace(self, **overrides), overrides

    # --- typed views consumed by the submodules -------------------------
    def observation_noise(self) -> ObservationNoise:
        return ObservationNoise(self.noise_pos, self.noise_heading, self.noise_speed)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            n_particles=self.n_particles,
            ess_frac=self.ess_frac,
            theta_jitter_frac=self.theta_jitter_frac,
            lik_floor=self.lik_floor,
            intent_floor=self.intent_floor,
            noise=self.observation_noise(),
        )

    def reward_weights(self) -> RewardWeights:
        return RewardWeights(
            w_coll=self.w_coll,
            w_eff=self.w_eff,
            w_goal=self.w_goal,
            k_goal=self.k_goal,
            w_lc=self.w_lc,
            v_des_ego=self.v_des_ego,
            gamma=self.gamma,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{', '.join(sorted(unknown))}: unknown config field")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "Config":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        return cls.from_dict(data)
