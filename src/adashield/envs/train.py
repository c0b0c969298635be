"""Hill-train environments: binary accelerate/brake control on a sinusoidal
track of unknown slope.

The track height is C*sin(omega*x + phase), giving the slope acceleration

    f(x) = g * C*omega*cos(omega*x + phase) / sqrt(1 + (C*omega*cos(omega*x + phase))^2)

which is bounded by g*C*omega/sqrt(1 + (C*omega)^2) and g*C*omega^2-Lipschitz;
both are far inside the declared envelope (F and k), so the declared
assumptions hold with margin.  Dynamics integrate x' = v, v' = a + f(x) with
fixed-step RK4 sub-stepping, stopping exactly when v reaches 0.

One straight-line function, ``_rk4_step``, is the whole integrator: the
sub-step loop and the bisection for the exact stop both call it, and it
computes the slope inline from locals.  Its trajectories are bit-identical
to four ``_slope_at`` calls composed into a textbook RK4 step, because it
keeps that operation order:

- ``0.5*h*k`` is ``(0.5*h)*k`` and ``h/6*(...)`` is ``(h/6)*(...)``, so
  both factors are hoisted;
- ``C*omega*cos(...)`` is ``(C*omega)*cos(...)``, so ``C*omega`` is hoisted;
- ``k1 + 2*k2 + 2*k3 + k4`` is summed left to right, written ``2.0*k``
  (the int 2 converts to 2.0 exactly; a float-by-float multiply is the
  cheaper bytecode).

No fused (``fma``, ``hypot``) or vectorised math may replace these
operations, since each rounds differently.  ``_slope_at`` stays for
``measure`` and the audit-only ``unknowns`` and must give the same slope
bit for bit.  ``step`` reads ``C``, ``omega``, ``T`` and ``substeps`` from
``cfg`` on every call, not once at construction, so a config edited after
construction takes effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, sqrt

from ..dl import Ident
from .base import Environment, apply_overrides, require_counts

G = 9.81

_X, _V, _Y, _A, _T = Ident("x"), Ident("v"), Ident("y"), Ident("a"), Ident("t")


@dataclass
class TrainConfig:
    A: float = 4.0
    B: float = 4.0
    T: float = 1.0
    k: float = 0.0025
    F: float = 3.0
    v0: float = 30.0
    x0: float = -1000.0
    C: float = 0.22
    omega: float = 0.00083
    phase: float = math.pi / 2
    noise_kind: str = "uniform"  # 'uniform' (eta_r) or 'gauss' (sigma)
    eta_r: float = 0.3
    sigma: float = 0.001
    stop_window: float = 100.0
    stop_speed: float = 1.0
    reward_goal: float = 10.0
    reward_crash: float = -10.0
    reward_step: float = -0.05
    budget_bonus: float = 0.0
    substeps: int = 100
    max_steps: int = 100
    resample_phase: bool = False

    def validate(self):
        if not (self.A > 0 and self.B > 0 and self.T > 0 and self.k > 0):
            raise ValueError("A, B, T, k must be positive")
        if not (self.F < self.B and self.A + self.F > 0):
            raise ValueError("need F < B and A + F > 0")
        fmax = G * self.C * self.omega / math.sqrt(1 + (self.C * self.omega) ** 2)
        if fmax > self.F:
            raise ValueError("slope amplitude exceeds the declared bound F")
        if G * self.C * self.omega ** 2 > self.k:
            raise ValueError("slope exceeds the declared Lipschitz constant k")
        if self.noise_kind not in ("uniform", "gauss"):
            raise ValueError(f"noise_kind must be 'uniform' or 'gauss', "
                             f"got {self.noise_kind!r}")
        require_counts(self, "substeps", "max_steps")
        return self


def _rk4_step(x, v, a, h, cw, omega, phase):
    """One RK4 step of x' = v, v' = a + f(x) with f's ``C*omega`` as ``cw``;
    the operation order is fixed (see the module docstring)."""
    hh = 0.5 * h
    u = cw * cos(omega * x + phase)
    k1v = a + G * u / sqrt(1.0 + u * u)
    k2x = v + hh * k1v
    u = cw * cos(omega * (x + hh * v) + phase)
    k2v = a + G * u / sqrt(1.0 + u * u)
    k3x = v + hh * k2v
    u = cw * cos(omega * (x + hh * k2x) + phase)
    k3v = a + G * u / sqrt(1.0 + u * u)
    k4x = v + h * k3v
    u = cw * cos(omega * (x + h * k3x) + phase)
    k4v = a + G * u / sqrt(1.0 + u * u)
    h6 = h / 6.0
    return (x + h6 * (v + 2.0 * k2x + 2.0 * k3x + k4x),
            v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _integrate(x, v, a, phase, h, substeps, cw, omega):
    """``substeps`` RK4 steps of length h, with an exact stop when v crosses
    0 (braking only).  Returns the end position, speed and elapsed time."""
    t = 0.0
    for _ in range(substeps):
        x2, v2 = _rk4_step(x, v, a, h, cw, omega, phase)
        if v2 < 0.0:
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _rk4_step(x, v, a, mid, cw, omega, phase)[1] < 0.0:
                    hi = mid
                else:
                    lo = mid
            return _rk4_step(x, v, a, lo, cw, omega, phase)[0], 0.0, t + lo
        x, v = x2, v2
        t += h
        if v == 0.0:
            break
    return x, v, t


@dataclass(frozen=True)
class TrainState:
    x: float
    v: float
    y: float
    a: float
    t: float
    phase: float


class TrainEnv(Environment):
    name = "train"

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg.validate()
        self.max_steps = cfg.max_steps
        c = cfg
        noise_const = ({"eta_r": c.eta_r} if c.noise_kind == "uniform"
                       else {"sigma": c.sigma})
        self.consts = {"A": c.A, "B": c.B, "T": c.T, "k": c.k, "F": c.F,
                       **noise_const}
        self._phase = c.phase

    # -- physics ---------------------------------------------------------

    def _slope_at(self, phase: float, x: float) -> float:
        c = self.cfg
        u = c.C * c.omega * math.cos(c.omega * x + phase)
        return G * u / math.sqrt(1.0 + u * u)

    def reset(self, rng):
        c = self.cfg
        if self.meta_mode and c.resample_phase:
            self._phase = rng.uniform(0.0, 2.0 * math.pi)
        return TrainState(c.x0, c.v0, c.F, 0.0, 0.0, self._phase)

    # -- environment interface -------------------------------------------

    def step(self, state: TrainState, exec_vals: dict, rng):
        c = self.cfg
        a_val = exec_vals[_A]
        y_ctrl = exec_vals[_Y]
        x2, v2, t2 = _integrate(state.x, state.v, a_val, state.phase,
                                c.T / c.substeps, c.substeps,
                                c.C * c.omega, c.omega)
        y2 = y_ctrl + c.k * (x2 - state.x)
        nxt = TrainState(x2, v2, y2, a_val, t2, state.phase)
        if x2 > 0.0:
            return nxt, c.reward_crash, True
        if -c.stop_window <= x2 <= 0.0 and v2 < c.stop_speed:
            return nxt, c.reward_goal, True
        return nxt, c.reward_step, False

    def state_map(self, state: TrainState) -> dict:
        return {_X: state.x, _V: state.v, _Y: state.y, _A: state.a, _T: state.t}

    def obs_available(self, state) -> frozenset:
        return frozenset({"w"})

    def measure(self, state: TrainState, rng) -> dict:
        c = self.cfg
        if c.noise_kind == "uniform":
            eta = rng.uniform(-c.eta_r, c.eta_r)
        else:
            eta = rng.normal(0.0, c.sigma)
        return {"w": self._slope_at(state.phase, state.x) - eta}

    def ground_truth_safe(self, state: TrainState) -> bool:
        return state.x <= 0.0

    def unknowns(self) -> dict:
        phase = self._phase
        return {"f": lambda x: self._slope_at(phase, x)}

    def shaping(self, bounds, budget_remaining) -> float:
        if self.cfg.budget_bonus and budget_remaining > 0.0:
            return self.cfg.budget_bonus
        return 0.0


def make_sisyphean_train(overrides: dict | None = None) -> TrainEnv:
    """Fixed-track train with uniform measurement noise."""
    cfg = apply_overrides(TrainConfig(), overrides)
    env = TrainEnv(cfg)
    env.name = "sisyphean"
    return env


VERSATILE_SETTINGS = {
    # irregular track, low sensor noise
    "k_sigma_large": dict(k=0.002, sigma=0.001, C=0.19, omega=0.00080),
    # regular track, high sensor noise
    "k_sigma_small": dict(k=0.00001, sigma=1.0, C=38.2, omega=0.0000040),
}


def make_versatile_train(overrides: dict | None = None,
                         setting: str = "k_sigma_large") -> TrainEnv:
    """Meta-learning train: Gaussian noise and per-episode phase resampling."""
    if setting not in VERSATILE_SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; "
                         f"choose from {sorted(VERSATILE_SETTINGS)}")
    cfg = TrainConfig(noise_kind="gauss", F=2.5, budget_bonus=0.1,
                      resample_phase=True, **VERSATILE_SETTINGS[setting])
    cfg = apply_overrides(cfg, overrides)
    env = TrainEnv(cfg)
    env.name = f"versatile[{setting}]"
    return env
