"""Environment interface and config-file loading.

An environment is a seeded state machine exposing the mappings a shield
needs: a state map onto model variables, observation availability and
measurement, ground-truth interpretations of the unknown symbols (for
auditing only, never policy-facing) and a ground-truth safety check.

``step`` receives the post-controller valuation (the model state after the
executed control action); it integrates the physics from there.
"""

from __future__ import annotations

from dataclasses import fields
from numbers import Integral
from typing import Optional


class Environment:
    name = "env"
    max_steps = 100
    meta_mode = False

    consts: dict

    def reset(self, rng):
        raise NotImplementedError

    def step(self, state, exec_vals: dict, rng):
        raise NotImplementedError

    def state_map(self, state) -> dict:
        raise NotImplementedError

    def obs_available(self, state) -> frozenset:
        raise NotImplementedError

    def measure(self, state, rng) -> dict:
        raise NotImplementedError

    def ground_truth_safe(self, state) -> bool:
        raise NotImplementedError

    def unknowns(self) -> dict:
        """Ground-truth interpretation of unknown symbols; audit-only."""
        raise NotImplementedError

    def initial_global_bounds(self) -> Optional[dict]:
        return None

    def shaping(self, bounds: dict, budget_remaining: float) -> float:
        return 0.0


def load_env_config(path) -> dict:
    """Read a flat ``key = value`` config file (a TOML-style subset:
    comments with '#', floats/ints/bools/strings)."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = _parse_value(value.strip(), path, lineno)
    return out


def _parse_value(text: str, path, lineno):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: cannot parse value {text!r}")


def apply_overrides(cfg, overrides: Optional[dict]):
    """Apply config-file overrides onto a dataclass config; unknown keys are
    rejected."""
    if not overrides:
        return cfg
    known = {f.name for f in fields(cfg)}
    for key, value in overrides.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r} for {type(cfg).__name__}")
        setattr(cfg, key, value)
    return cfg


def require_counts(cfg, *names):
    """Reject a config whose named fields are not integers >= 1; a bool is
    not a count."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

