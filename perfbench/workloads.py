"""The episodes that one round of each workload runs.

Scene seeds are fixed per workload. For multilane_tracking the
benchmark's --seed becomes the episode seed of ``run_episode``
(observation noise, filter particles, scenario and IS draws). Fixed scenes
keep the per-tick work comparable across seeds: tick time differs by up to
40% between multilane scenes.

merge_realtime is the criterion-9 episode itself, episode seed 0, whatever
--seed says. Its one 200-tick episode cannot average over seeds, and its
heavy ticks depend on the seed: over episode seeds 0-9 its p95 tick ranged
from 156 to 217 ms, against 156 to 181 ms over five runs of seed 0.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from driveplan.config import Config
from driveplan.pomdp import DT
from driveplan.scenes import ScenarioSpec, generate_scene

MULTILANE_SCENES = (0, 1, 2)


@dataclass(frozen=True)
class Episode:
    label: str
    spec: ScenarioSpec
    config: Config
    seed: int


def scene(template: str, scene_seed: int, n_exo: int, episode_s: float) -> ScenarioSpec:
    spec = generate_scene(template, seed=scene_seed, n_exo=n_exo)
    spec.episode_s = episode_s
    spec.validate()
    return spec


def truncated(ep: Episode, n_ticks: int) -> Episode:
    """The same episode cut to its first ``n_ticks`` ticks."""
    spec = replace(ep.spec, episode_s=n_ticks * DT)
    spec.validate()
    return replace(ep, spec=spec)


def merge_realtime(seed: int) -> list[Episode]:
    """The criterion-9 episode: merge scene 7, 5 exos, default Config,
    episode seed 0, 200 ticks; ``seed`` is not used (see the module doc)."""
    return [Episode("merge-7/full", scene("merge", 7, 5, 40.0), Config(), 0)]


def multilane_tracking(seed: int) -> list[Episode]:
    """Three-lane scenes with 8 exos under wo_unc: the belief filter dominates."""
    cfg = Config(variant="wo_unc")
    return [
        Episode(f"multilane-{s}/wo_unc", scene("multilane", s, 8, 40.0), cfg, seed)
        for s in MULTILANE_SCENES
    ]


WORKLOADS = {
    "merge_realtime": merge_realtime,
    "multilane_tracking": multilane_tracking,
}
