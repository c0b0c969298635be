"""Vertical-plane collision avoidance: a double-integrator ownship against an
intruder whose trajectory is unknown but acceleration-bounded, and whose
compliance is a hidden boolean.

Intruders fly with a constant vertical acceleration chosen at reset so that
their velocity stays within +-V through the meeting time; compliant intruders
additionally never accelerate toward the ownship's initial altitude side.
Compliance evidence (radio call, trajectory analysis) is modeled as a boolean
observation channel: each evidence event arrives with probability
``evidence_avail_prob`` (the complement is the false-negative rate) and reads
``min(1, c + eta)`` with ``eta ~ B(p)``, so a non-compliant intruder is
falsely flagged with probability ``p`` per received event.

The shield enforces a separation of R at meeting time; the environment's own
collision threshold (used for rewards) is the smaller ``collision_dist``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dl import Ident
from .base import Environment, apply_overrides, require_counts

_H, _V, _T, _T0 = Ident("h"), Ident("v"), Ident("t"), Ident("t0")
_HN, _VN, _TL = Ident("hnext"), Ident("vnext"), Ident("tleft")
_A = Ident("a")


@dataclass
class AcasConfig:
    tm: float = 40.0
    T: float = 1.0
    A: float = 3.0
    Aint: float = 3.0
    R: float = 500.0
    V: float = 50.0
    H: float = 2000.0
    sigv: float = 2.0
    sigh: float = 20.0
    p: float = 1e-4
    collision_dist: float = 200.0
    h0_range: float = 500.0
    v0_range: float = 2.0
    evidence_times: tuple = (5.0, 10.0)
    evidence_avail_prob: float = 0.9
    reward_goal: float = 10.0
    reward_collision: float = -30.0
    h_penalty: float = 0.2
    compliance_bonus: float = 0.2
    max_steps: int = 40

    def validate(self):
        if not (0 < self.p < 1):
            raise ValueError("p must lie in (0, 1)")
        if self.collision_dist > self.R:
            raise ValueError("collision distance above the shield margin R")
        require_counts(self, "max_steps")
        return self


@dataclass(frozen=True)
class Intruder:
    h0: float
    v0: float
    accel: float
    compliant: bool

    def h(self, t: float) -> float:
        return self.h0 + self.v0 * t + 0.5 * self.accel * t * t

    def v(self, t: float) -> float:
        return self.v0 + self.accel * t


@dataclass(frozen=True)
class AcasState:
    h: float
    v: float
    t: float
    t0: float
    hnext: float
    vnext: float
    tleft: float
    intruder: Intruder
    evidence: tuple  # availability draw per evidence time


class AcasEnv(Environment):
    name = "acas"

    def __init__(self, cfg: AcasConfig):
        self.cfg = cfg.validate()
        self.max_steps = cfg.max_steps
        c = cfg
        self.consts = {"tm": c.tm, "T": c.T, "A": c.A, "Aint": c.Aint,
                       "R": c.R, "V": c.V, "H": c.H, "sigv": c.sigv,
                       "sigh": c.sigh, "p": c.p}
        self._intruder = None

    def _sample_intruder(self, rng) -> Intruder:
        c = self.cfg
        h0 = 0.0
        while h0 == 0.0:
            h0 = rng.uniform(-c.h0_range, c.h0_range)
        v0 = rng.uniform(-c.v0_range, c.v0_range)
        lo = max((-c.V - v0) / c.tm, -c.Aint)
        hi = min((c.V - v0) / c.tm, c.Aint)
        compliant = bool(rng.random() < 0.5)
        if compliant:
            if h0 > 0:
                lo = max(lo, 0.0)
            else:
                hi = min(hi, 0.0)
        return Intruder(h0, v0, rng.uniform(lo, hi), compliant)

    def reset(self, rng):
        c = self.cfg
        if self._intruder is None or self.meta_mode:
            self._intruder = self._sample_intruder(rng)
        evidence = tuple(bool(rng.random() < c.evidence_avail_prob)
                         for _ in c.evidence_times)
        return AcasState(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         self._intruder, evidence)

    def step(self, state: AcasState, exec_vals: dict, rng):
        c = self.cfg
        a = exec_vals[_A]
        tau = min(c.T, c.tm - state.t)
        h2 = state.h + state.v * tau + 0.5 * a * tau * tau
        v2 = state.v + a * tau
        t2 = state.t + tau
        nxt = AcasState(h2, v2, t2, state.t,
                        exec_vals[_HN], exec_vals[_VN], exec_vals[_TL],
                        state.intruder, state.evidence)
        if t2 >= c.tm:
            ok = abs(h2 - state.intruder.h(c.tm)) >= c.collision_dist
            return nxt, (c.reward_goal if ok else c.reward_collision), True
        return nxt, -c.h_penalty * abs(h2), False

    def state_map(self, state: AcasState) -> dict:
        return {_H: state.h, _V: state.v, _T: state.t, _T0: state.t0,
                _HN: state.hnext, _VN: state.vnext, _TL: state.tleft}

    def obs_available(self, state: AcasState) -> frozenset:
        out = {"wv", "wh"}
        for when, arrived in zip(self.cfg.evidence_times, state.evidence):
            if state.t == when and arrived:
                out.add("wc")
        return frozenset(out)

    def measure(self, state: AcasState, rng) -> dict:
        c = self.cfg
        it = state.intruder
        eta_c = 1.0 if rng.random() < c.p else 0.0
        return {
            "wv": it.v(state.t) - rng.normal(0.0, c.sigv),
            "wh": it.h(state.t) - rng.normal(0.0, c.sigh),
            "wc": min(1.0, (1.0 if it.compliant else 0.0) + eta_c),
        }

    def ground_truth_safe(self, state: AcasState) -> bool:
        if state.t == self.cfg.tm:
            return abs(state.h - state.intruder.h(self.cfg.tm)) >= self.cfg.R
        return True

    def unknowns(self) -> dict:
        it = self._intruder
        return {"vint": it.v, "hint": it.h, "c": 1.0 if it.compliant else 0.0}

    def shaping(self, bounds, budget_remaining) -> float:
        if bounds.get(Ident("c_lo"), 0.0) > 0.0:
            return self.cfg.compliance_bonus
        return 0.0


def make_acas(overrides: dict | None = None) -> AcasEnv:
    return AcasEnv(apply_overrides(AcasConfig(), overrides))
