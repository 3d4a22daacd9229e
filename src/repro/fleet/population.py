"""Seeded generation of per-session fleet parameters.

A fleet is a *population*, not a workload list: a
:class:`PopulationConfig` names the distributions (typist speed, app
profile mix, think-time, OS personality mix, fault-scenario mix) and a
single population seed; :class:`SessionPopulation` then materializes
the spec of any session *by index*, on demand.

The determinism contract mirrors :mod:`repro.sim.rng`: session ``i``'s
parameters are drawn from an RNG stream named by ``(population seed,
i)`` alone, so the spec of session 41 is identical whether the fleet
runs sessions one at a time, in batches of 50, or sharded across eight
work-stealing workers — batch boundaries and scheduling order can
never perturb a draw.  This is the property that lets the shard
scheduler hand out arbitrary index ranges and still reproduce the
exact same fleet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..sim.rng import RngStreams

__all__ = [
    "APP_PROFILES",
    "PopulationConfig",
    "SessionPopulation",
    "SessionSpec",
]

#: Interactive application profiles a session can run, in the spirit of
#: the paper's task mix (typing-centric, compute-heavy and draw-heavy
#: workloads stress different pipeline stages).  Costs are CPU cycles
#: per keystroke for the simulated app's handler.  ``ext-faults`` runs
#: the ``editor`` profile as its fault probe.
APP_PROFILES: Dict[str, dict] = {
    # Light editor: cheap echo, frequent autosave (sync I/O exposure).
    "editor": {
        "compute_cycles": 45_000,
        "draw_cycles": 20_000,
        "draw_pixels": 900,
        "autosave_every": 4,
    },
    # IDE-ish: heavier per-keystroke analysis, occasional autosave.
    "ide": {
        "compute_cycles": 140_000,
        "draw_cycles": 30_000,
        "draw_pixels": 1_400,
        "autosave_every": 8,
    },
    # Terminal-ish: nearly free compute, minimal redraw, no autosave.
    "terminal": {
        "compute_cycles": 12_000,
        "draw_cycles": 8_000,
        "draw_pixels": 200,
        "autosave_every": 0,
    },
    # Thin client on a lossy WAN: keystrokes ride the resilient remote
    # transport (:mod:`repro.remote`) instead of the local pipeline, so
    # the wait distribution is dominated by the link, not the app.
    "remote": {
        "remote": True,
        "rtt_ms": 60.0,
        "jitter_ms": 3.0,
        "loss": 0.08,
        "prediction": False,
    },
}


@dataclass(frozen=True)
class SessionSpec:
    """Everything one simulated session needs, fully resolved."""

    index: int
    seed: int              # master seed for this session's boot()
    os_name: str           # personality: nt351 / nt40 / win95
    profile: str           # APP_PROFILES key
    scenario: Optional[str]  # fault scenario name, or None (healthy)
    wpm: float             # typist speed, words per minute
    jitter: float          # multiplicative inter-key jitter
    think_mean_s: float    # mean think-pause between bursts
    chars: int             # keystrokes in the session

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "os": self.os_name,
            "profile": self.profile,
            "scenario": self.scenario,
            "wpm": round(self.wpm, 3),
            "jitter": round(self.jitter, 4),
            "think_mean_s": round(self.think_mean_s, 4),
            "chars": self.chars,
        }


def _normalize_mix(mix: Mapping[str, float], what: str) -> List[Tuple[str, float]]:
    items = sorted((str(k), float(v)) for k, v in mix.items())
    total = sum(weight for _, weight in items)
    if not items or total <= 0 or any(weight < 0 for _, weight in items):
        raise ValueError(f"{what} mix must have positive total weight: {mix!r}")
    return [(name, weight / total) for name, weight in items]


@dataclass(frozen=True)
class PopulationConfig:
    """Distribution parameters for a session population.

    The defaults describe a mixed office fleet: all three personalities,
    all three app profiles, typists between hunt-and-peck and fast
    touch-typing, and a small slice of sessions running under the
    cheap ``smoke`` fault scenario so fleet reports always have a
    degraded column to compare against.
    """

    seed: int = 0
    size: int = 1000
    os_mix: Mapping[str, float] = field(
        default_factory=lambda: {"nt351": 1.0, "nt40": 1.0, "win95": 1.0}
    )
    profile_mix: Mapping[str, float] = field(
        default_factory=lambda: {
            "editor": 2.0,
            "ide": 1.0,
            "terminal": 1.0,
            "remote": 1.0,
        }
    )
    #: scenario name -> weight; the empty string means healthy.
    scenario_mix: Mapping[str, float] = field(
        default_factory=lambda: {"": 3.0, "smoke": 1.0}
    )
    wpm_range: Tuple[float, float] = (25.0, 90.0)
    jitter_range: Tuple[float, float] = (0.15, 0.45)
    think_mean_range_s: Tuple[float, float] = (0.5, 3.0)
    chars_range: Tuple[int, int] = (6, 10)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"population size must be >= 1, got {self.size}")
        _normalize_mix(self.os_mix, "os")
        for profile in self.profile_mix:
            if profile not in APP_PROFILES:
                raise ValueError(
                    f"unknown app profile {profile!r}; "
                    f"known: {', '.join(sorted(APP_PROFILES))}"
                )
        _normalize_mix(self.profile_mix, "profile")
        _normalize_mix(self.scenario_mix, "scenario")
        for name in self.scenario_mix:
            if name:
                from ..faults import scenario_names

                if name not in scenario_names():
                    raise ValueError(
                        f"unknown fault scenario {name!r}; "
                        f"known: {', '.join(scenario_names())}"
                    )
        for low, high, what in (
            (*self.wpm_range, "wpm"),
            (*self.jitter_range, "jitter"),
            (*self.think_mean_range_s, "think_mean"),
            (*self.chars_range, "chars"),
        ):
            if not (0 <= low <= high):
                raise ValueError(f"invalid {what} range: ({low}, {high})")

    def to_dict(self) -> dict:
        return {
            "kind": "fleet-population",
            "seed": self.seed,
            "size": self.size,
            "os_mix": dict(sorted(self.os_mix.items())),
            "profile_mix": dict(sorted(self.profile_mix.items())),
            "scenario_mix": dict(sorted(self.scenario_mix.items())),
            "wpm_range": list(self.wpm_range),
            "jitter_range": list(self.jitter_range),
            "think_mean_range_s": list(self.think_mean_range_s),
            "chars_range": list(self.chars_range),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PopulationConfig":
        if data.get("kind") != "fleet-population":
            raise ValueError(
                f"not a fleet-population payload: {data.get('kind')!r}"
            )
        return cls(
            seed=int(data["seed"]),
            size=int(data["size"]),
            os_mix=dict(data["os_mix"]),
            profile_mix=dict(data["profile_mix"]),
            scenario_mix=dict(data["scenario_mix"]),
            wpm_range=tuple(data["wpm_range"]),
            jitter_range=tuple(data["jitter_range"]),
            think_mean_range_s=tuple(data["think_mean_range_s"]),
            chars_range=tuple(int(c) for c in data["chars_range"]),
        )

    def fingerprint(self) -> str:
        """Content digest identifying this exact population.

        Used as the fleet batches' cache-variant component: any change
        to the distributions — or the seed or size — invalidates cached
        batch aggregates, while renaming nothing never does.
        """
        import json

        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _pick(choices: Sequence[Tuple[str, float]], roll: float) -> str:
    cumulative = 0.0
    for name, weight in choices:
        cumulative += weight
        if roll < cumulative:
            return name
    return choices[-1][0]


class SessionPopulation:
    """Materializes :class:`SessionSpec`s from a :class:`PopulationConfig`."""

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
        self._rngs = RngStreams(config.seed)
        self._os_choices = _normalize_mix(config.os_mix, "os")
        self._profile_choices = _normalize_mix(config.profile_mix, "profile")
        self._scenario_choices = _normalize_mix(config.scenario_mix, "scenario")

    def __len__(self) -> int:
        return self.config.size

    def spec(self, index: int) -> SessionSpec:
        """The fully-resolved spec of session ``index``.

        Each session draws from its own named stream, so the result
        depends only on ``(population seed, index)`` — never on which
        other sessions were generated, in what order, or in what batch.
        """
        if not 0 <= index < self.config.size:
            raise IndexError(
                f"session index {index} out of range [0, {self.config.size})"
            )
        # ``fresh`` (not ``stream``): a cached stream's state advances
        # across calls, so spec(i) materialized twice on one population
        # object would silently differ — the exact nondeterminism this
        # module promises can never happen.
        rng = self._rngs.fresh(f"session:{index}")
        config = self.config
        os_name = _pick(self._os_choices, rng.random())
        profile = _pick(self._profile_choices, rng.random())
        scenario = _pick(self._scenario_choices, rng.random()) or None
        # Log-uniform typist speed: slow typists are as represented as
        # fast ones on a ratio scale.
        low, high = config.wpm_range
        wpm = math.exp(rng.uniform(math.log(low), math.log(high)))
        jitter = rng.uniform(*config.jitter_range)
        think_mean_s = rng.uniform(*config.think_mean_range_s)
        chars = rng.randint(*config.chars_range)
        session_seed = int.from_bytes(
            hashlib.sha256(
                f"fleet:{config.seed}:session:{index}".encode("utf-8")
            ).digest()[:8],
            "big",
        )
        return SessionSpec(
            index=index,
            seed=session_seed,
            os_name=os_name,
            profile=profile,
            scenario=scenario,
            wpm=wpm,
            jitter=jitter,
            think_mean_s=think_mean_s,
            chars=chars,
        )

    def __getitem__(self, index: int) -> SessionSpec:
        return self.spec(index)

    def __iter__(self) -> Iterator[SessionSpec]:
        for index in range(self.config.size):
            yield self.spec(index)

    def batches(self, batch_size: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` index ranges covering the fleet.

        These are the units the shard scheduler hands out; any
        partition yields the same merged aggregate (see
        ``tests/test_fleet_shards.py``).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return [
            (start, min(start + batch_size, self.config.size))
            for start in range(0, self.config.size, batch_size)
        ]
