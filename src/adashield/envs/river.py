"""River-crossing robot: velocity control in the plane, a bridge of unknown
position, and position measurements gated by the lamp, a sensing radius and
a sensor cadence."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..dl import Ident
from .base import Environment, apply_overrides, require_counts

_X, _Y, _T = Ident("x"), Ident("y"), Ident("t")
_VX, _VY, _L = Ident("vx"), Ident("vy"), Ident("l")


@dataclass
class RiverConfig:
    V: float = 2.0
    W: float = 1.0
    T: float = 1.0
    sigma: float = 0.1
    lamp_radius: float = 5.0
    obs_period: int = 2
    yb_range: float = 10.0
    start_range: float = 20.0
    reward_goal: float = 10.0
    reward_crash: float = -10.0
    reward_step: float = -0.1
    reward_lamp: float = -0.2
    max_steps: int = 50

    def validate(self):
        if not (self.V > 0 and self.W > 0 and self.T > 0 and self.sigma > 0):
            raise ValueError("V, W, T, sigma must be positive")
        require_counts(self, "obs_period", "max_steps")
        return self


@dataclass(frozen=True)
class RiverState:
    x: float
    y: float
    t: float
    vx: float
    vy: float
    lamp: float
    step: int
    yb: float
    start_side: float
    in_river: bool = False


class RiverEnv(Environment):
    name = "river"

    def __init__(self, cfg: RiverConfig):
        self.cfg = cfg.validate()
        self.max_steps = cfg.max_steps
        self.consts = {"V": cfg.V, "W": cfg.W, "T": cfg.T, "sigma": cfg.sigma}
        self._yb = None

    def reset(self, rng):
        c = self.cfg
        if self._yb is None or self.meta_mode:
            self._yb = rng.uniform(-c.yb_range, c.yb_range)
        x = 0.0
        while x == 0.0:
            x = rng.uniform(-c.start_range, c.start_range)
        y = rng.uniform(-c.start_range, c.start_range)
        return RiverState(x, y, 0.0, 0.0, 0.0, 0.0, 0, self._yb,
                          math.copysign(1.0, x))

    def step(self, state: RiverState, exec_vals: dict, rng):
        c = self.cfg
        vx, vy = exec_vals[_VX], exec_vals[_VY]
        lamp = 1.0 if exec_vals[_L] > 0.5 else 0.0
        x2 = state.x + vx * c.T
        y2 = state.y + vy * c.T

        crashed = False
        crossed = False
        if state.x == 0.0 and x2 == 0.0:
            crashed = abs(y2 - state.yb) > c.W
        elif state.x * x2 < 0.0:
            tc = -state.x / vx
            yc = state.y + vy * tc
            crashed = abs(yc - state.yb) > c.W
            crossed = not crashed
        elif x2 == 0.0:
            crashed = abs(y2 - state.yb) > c.W

        nxt = RiverState(x2, y2, c.T, vx, vy, lamp, state.step + 1,
                         state.yb, state.start_side, in_river=crashed)
        if crashed:
            return nxt, c.reward_crash, True
        if crossed or (x2 != 0.0 and math.copysign(1.0, x2) != state.start_side):
            return nxt, c.reward_goal, True
        return nxt, (c.reward_lamp if lamp else c.reward_step), False

    def state_map(self, state: RiverState) -> dict:
        return {_X: state.x, _Y: state.y, _T: state.t,
                _VX: state.vx, _VY: state.vy, _L: state.lamp}

    def obs_available(self, state: RiverState) -> frozenset:
        c = self.cfg
        if state.lamp != 1.0:
            return frozenset()
        if math.hypot(state.x, state.y - state.yb) > c.lamp_radius:
            return frozenset()
        if state.step % c.obs_period != 0:
            return frozenset()
        return frozenset({"w"})

    def measure(self, state: RiverState, rng) -> dict:
        return {"w": state.yb - abs(state.x) * rng.normal(0.0, self.cfg.sigma)}

    def ground_truth_safe(self, state: RiverState) -> bool:
        if state.in_river:
            return False
        if state.x == 0.0:
            return abs(state.y - state.yb) <= self.cfg.W
        return True

    def unknowns(self) -> dict:
        return {"yb": self._yb}

    def initial_global_bounds(self):
        return {Ident("yb_lo"): -self.cfg.yb_range, Ident("yb_up"): self.cfg.yb_range}


def make_crossing_river(overrides: dict | None = None) -> RiverEnv:
    return RiverEnv(apply_overrides(RiverConfig(), overrides))
