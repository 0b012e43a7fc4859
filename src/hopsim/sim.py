"""Scenario orchestration.

Binds per-radar scheduling agents to the signal channel, runs frames and
episodes on a common clock, and collects strategy trajectories,
interference rates, regret curves, the empirical joint distribution, and
range profiles. A run is fully deterministic given its config and seed.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import signal as sig
from .game import (
    PURE_ENUM_GUARD,
    TABLE_CELL_GUARD,
    JointDistribution,
    MixedStrategy,
    empirical_joint,
    external_regret,
    cce_deviation_gap,
    pure_strategy,
)
from .hopping import (
    DEFAULT_KAPPA,
    DEFAULT_LOSS_CLIP_DB,
    DEFAULT_PESSIMISTIC_FLOOR_DB,
    NashHopperState,
    NoRegretState,
    init_nash_hopper,
    init_noregret,
    nash_commit,
    nash_explore_update,
    noregret_update,
    sample_subbands,
    uniform_policy,
)

# Largest N_s x K block a radar synthesizes per frame (64 MiB, 25x table1's).
SAMPLE_BLOCK_GUARD = 2 ** 22

_REQUIRED = object()
_FINITE = (lambda v, a, episodes: np.isfinite(v), "finite")
_POSITIVE = (lambda v, a, episodes: 0 < v < np.inf, "finite and > 0")

# Accepted policy_params per policy: key -> (type, default, check, rule).
# ``check(value, n_subbands, episodes)`` bounds a well-typed value and
# ``rule`` states the bound in error messages. A default of None leaves
# the option off.
POLICY_PARAMS = {
    "uniform": {},
    "fixed": {
        "subband": (int, _REQUIRED, lambda v, a, episodes: 0 <= v < a, "in [0, {a})"),
    },
    "noregret": {
        "c_eta": (float, 1.0, *_POSITIVE),
        "c_gamma": (float, 1.0, *_POSITIVE),
        "kappa": (float, DEFAULT_KAPPA, lambda v, a, episodes: 0.0 <= v < 1.0 / a,
                  "in [0, 1/{a})"),
        "loss_clip_db": (float, DEFAULT_LOSS_CLIP_DB, *_POSITIVE),
        "baseline_delta_db": (float, None, *_FINITE),
    },
    "nash": {
        "explore_episodes": (int, 10, lambda v, a, episodes: 1 <= v <= episodes,
                             "in [1, {episodes}] (the run's episodes)"),
        "floor_db": (float, DEFAULT_PESSIMISTIC_FLOOR_DB, *_FINITE),
        "solver_mode": (str, "auto", lambda v, a, episodes: v in ("auto", "pure"),
                        "'auto' or 'pure'"),
    },
}


class ScenarioError(ValueError):
    """Config validation failure; carries every violated invariant."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("invalid scenario config:\n  " + "\n  ".join(self.messages))


@dataclass(frozen=True)
class RadarSpec:
    chirp: sig.ChirpParams
    policy: str = "uniform"
    policy_params: dict = field(default_factory=dict)
    targets: tuple[sig.Target, ...] = ()


@dataclass(frozen=True)
class LinkSpec:
    victim: int
    source: int
    inr_db: float


@dataclass(frozen=True)
class ScenarioConfig:
    radars: tuple[RadarSpec, ...]
    links: tuple[LinkSpec, ...] = ()
    episodes_per_frame: int = 1
    frames: int = 50
    seed: int = 0
    genie_detection: bool = True
    noise_power: float = 1.0
    detection_factor: float = sig.DEFAULT_DETECTION_FACTOR
    db_average: bool = False

    @property
    def n_radars(self) -> int:
        return len(self.radars)

    @property
    def n_subbands(self) -> int:
        return self.radars[0].chirp.n_subbands

    @property
    def total_episodes(self) -> int:
        return self.frames * self.episodes_per_frame


def validate_config(config: ScenarioConfig) -> list[str]:
    """Every violated invariant, as one message each."""
    errors = []
    if not config.radars:
        errors.append("radars: list must not be empty")
        return errors
    first = config.radars[0].chirp
    durations = []
    for idx, spec in enumerate(config.radars, start=1):
        ch = spec.chirp
        label = f"radars[{idx}]"
        if ch.f_c != first.f_c or ch.subband_hz != first.subband_hz \
                or ch.n_subbands != first.n_subbands:
            errors.append(f"{label}: all radars must share f_c, subband width, and subband count")
        if config.episodes_per_frame > 0 and ch.chirps_per_frame % config.episodes_per_frame:
            errors.append(
                f"{label}: chirps per frame {ch.chirps_per_frame} not divisible by "
                f"{config.episodes_per_frame} episodes")
        durations.append(ch.chirps_per_frame * ch.pri_s)
        if ch.n_samples * ch.chirps_per_frame > SAMPLE_BLOCK_GUARD:
            errors.append(
                f"{label}: {ch.n_samples} samples per chirp x {ch.chirps_per_frame} chirps "
                f"give {ch.n_samples * ch.chirps_per_frame} samples per frame, above the "
                f"{SAMPLE_BLOCK_GUARD} allowed")
        if spec.policy not in POLICY_PARAMS:
            errors.append(f"{label}: unknown policy {spec.policy!r}")
        else:
            errors += _policy_param_errors(spec, label, config.total_episodes)
        if spec.policy == "noregret" and ch.n_subbands < 2:
            errors.append(f"{label}: noregret policy needs at least two subbands")
        if not spec.targets:
            errors.append(f"{label}: needs at least one target (genie utility evaluation)")
        for tgt in spec.targets:
            max_delay = (2.0 / sig.C) * (
                tgt.range_m + abs(tgt.velocity_mps) * ch.chirps_per_frame * ch.pri_s)
            if max_delay >= ch.active_s:
                errors.append(f"{label}: target at {tgt.range_m} m beyond unambiguous range")
    if durations and max(durations) - min(durations) > 1e-12 * max(durations):
        errors.append("radars: frame durations K*PRI must agree across radars")
    # Only the Nash solver builds dense (n, A, ..., A) game tables.
    nash = any(spec.policy == "nash" for spec in config.radars)
    joint = first.n_subbands ** config.n_radars
    if nash and joint > PURE_ENUM_GUARD:
        errors.append(
            f"radars: {config.n_radars} radars on {first.n_subbands} subbands give "
            f"{joint} joint actions, above the {PURE_ENUM_GUARD} the dense game "
            "tables allow")
    elif nash and config.n_radars * joint > TABLE_CELL_GUARD:
        errors.append(
            f"radars: {config.n_radars} radars on {first.n_subbands} subbands give "
            f"dense game tables of {config.n_radars * joint} cells, above the "
            f"{TABLE_CELL_GUARD} allowed")
    for li, link in enumerate(config.links, start=1):
        n = config.n_radars
        if not (0 <= link.victim < n and 0 <= link.source < n) or link.victim == link.source:
            errors.append(f"links[{li}]: victim/source indices invalid")
    if config.frames < 1 or config.episodes_per_frame < 1:
        errors.append("run: frames and episodes_per_frame must be positive")
    # The per-step records (aligned actions, per-subband genie utilities)
    # hold frames * max(K) steps for every radar and subband.
    cells = (config.frames * max(spec.chirp.chirps_per_frame for spec in config.radars)
             * config.n_radars * first.n_subbands)
    if cells > TABLE_CELL_GUARD:
        errors.append(
            f"run.frames: {config.frames} frames give {cells} per-step cells for "
            f"{config.n_radars} radars on {first.n_subbands} subbands, above the "
            f"{TABLE_CELL_GUARD} allowed")
    if config.seed < 0:
        errors.append(f"run.seed: {config.seed} must be non-negative")
    if config.noise_power <= 0:
        errors.append("run: noise_power must be positive")
    if not config.genie_detection and not config.detection_factor > 1:
        errors.append("run: detection_factor must exceed 1")
    return errors


def has_type(value, kind) -> bool:
    """Whether a config value is of ``kind``; a bool is never a number."""
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, abstract) and (kind is bool or not isinstance(value, bool))


def _policy_param_errors(spec: RadarSpec, label: str, episodes: int) -> list[str]:
    table = POLICY_PARAMS[spec.policy]
    a = spec.chirp.n_subbands
    errors = [
        f"{label}.policy_params.{key}: not a {spec.policy} parameter "
        f"(accepted: {', '.join(table) or 'none'})"
        for key in spec.policy_params if key not in table
    ]
    for key, (kind, default, check, rule) in table.items():
        ctx = f"{label}.policy_params.{key}"
        rule = rule.format(a=a, episodes=episodes)
        value = spec.policy_params.get(key, default)
        if value is _REQUIRED:
            errors.append(f"{ctx}: {spec.policy} policy needs {key} {rule}")
        elif value is None and default is None:
            continue
        elif not has_type(value, kind):
            errors.append(f"{ctx}: expected {kind.__name__}, got {value!r}")
        elif not check(value, a, episodes):
            errors.append(f"{ctx}: {value!r} not {rule}")
    return errors


def _resolved_params(spec: RadarSpec) -> dict:
    """The radar's policy parameters, table defaults filled in."""
    return {key: spec.policy_params.get(key, default)
            for key, (_, default, _, _) in POLICY_PARAMS[spec.policy].items()}


def overlap_geometry(victim: sig.ChirpParams, source: sig.ChirpParams,
                           n_victim: int, n_source: int):
    """Candidate source chirps and time-overlap fractions per victim chirp.

    Chirp q of a radar is active on [q*PRI, q*PRI + T_a) from the common
    frame start (zero start offsets). Returns (cand, frac) arrays of shape
    (n_victim, C); frac is 0 where there is no overlap or no valid chirp.
    """
    q = np.arange(n_victim)
    start_v = q * victim.pri_s
    end_v = start_v + victim.active_s
    n_cand = int(np.ceil((victim.active_s + source.active_s) / source.pri_s)) + 2
    m0 = np.floor((start_v - source.active_s) / source.pri_s).astype(int)
    cand = m0[:, None] + np.arange(n_cand)[None, :]
    start_s = cand * source.pri_s
    overlap = np.minimum(end_v[:, None], start_s + source.active_s) \
        - np.maximum(start_v[:, None], start_s)
    frac = np.clip(overlap, 0.0, None) / victim.active_s
    valid = (cand >= 0) & (cand < n_source)
    frac = np.where(valid, frac, 0.0)
    cand = np.clip(cand, 0, max(n_source - 1, 0))
    return cand, frac


def overlap_weight(geometry, victim_actions: np.ndarray,
                   source_actions: np.ndarray) -> np.ndarray:
    """Per victim chirp, the summed overlap fraction of same-subband source chirps.

    ``geometry`` is the pair's ``overlap_geometry``; a weight of 0 means the
    chirp saw no collision from this source.
    """
    cand, frac = geometry
    return (frac * (source_actions[cand] == victim_actions[:, None])).sum(axis=1)


def _link_inr_lin(config: ScenarioConfig) -> dict:
    """Linear INR per (victim, source) pair, summed over repeated links."""
    inr = {}
    for link in config.links:
        key = (link.victim, link.source)
        inr[key] = inr.get(key, 0.0) + 10.0 ** (link.inr_db / 10.0)
    return inr


def genie_utility_table(config: ScenarioConfig, rows: np.ndarray,
                        player: int) -> np.ndarray:
    """Evaluation-side utility (dB) of each of ``player``'s subbands per row.

    ``rows`` holds joint actions, shape (S, n); the result has shape
    (S, A). A subband that linked sources play in that row is valued at
    the theoretical SINR with their summed INR, added in ascending source
    order; any other subband at the SNR. Never shown to agents in
    model-free runs.
    """
    snr_lin = sum(10.0 ** (t.snr_db / 10.0) for t in config.radars[player].targets)
    inr = _link_inr_lin(config)
    load = np.zeros((len(rows), config.n_subbands))
    for j in range(config.n_radars):
        if (player, j) in inr:
            load[np.arange(len(rows)), rows[:, j]] += inr[(player, j)]
    return 10.0 * np.log10(snr_lin / (load + 1.0))


class _Agent:
    """Binds one radar's policy state to the episode update cycle."""

    def __init__(self, spec: RadarSpec, player: int, n_players: int,
                 chirps_per_episode: int):
        self.policy = spec.policy
        a = spec.chirp.n_subbands
        params = _resolved_params(spec)
        if spec.policy == "uniform":
            self._strategy = uniform_policy(a)
        elif spec.policy == "fixed":
            self._strategy = pure_strategy(params["subband"], a)
        elif spec.policy == "noregret":
            self.state = init_noregret(
                a,
                eta_scale=params["c_eta"],
                gamma_scale=params["c_gamma"],
                kappa=params["kappa"],
                loss_clip_db=params["loss_clip_db"],
                baseline_delta_db=params["baseline_delta_db"],
            )
        elif spec.policy == "nash":
            self.explore_episodes = params["explore_episodes"]
            self.chirps_per_episode = chirps_per_episode
            self.episodes_seen = 0
            self.state = init_nash_hopper(
                player, n_players, a,
                explore_chirps=self.explore_episodes * chirps_per_episode,
                floor_db=params["floor_db"],
                solver_mode=params["solver_mode"],
            )

    @property
    def strategy(self) -> MixedStrategy:
        if self.policy in ("uniform", "fixed"):
            return self._strategy
        if self.policy == "noregret":
            return self.state.current
        return self.state.strategy

    def end_episode(self, own_stats, all_stats, solved: dict):
        if self.policy == "noregret":
            self.state = noregret_update(self.state, own_stats)
        elif self.policy == "nash":
            self.episodes_seen += 1
            if self.state.phase == "explore":
                self.state = nash_explore_update(self.state, all_stats, solved)
                if self.episodes_seen == self.explore_episodes:
                    self.state = nash_commit(
                        self.state, self.episodes_seen * self.chirps_per_episode)


@dataclass
class RunMetrics:
    """Everything a run records; arrays are episode-indexed where noted."""

    strategies: np.ndarray            # (episodes, radars, subbands)
    interference_rate: np.ndarray     # (episodes, radars)
    mean_sinr_db: np.ndarray          # (episodes, radars)
    cumulative_regret_db: np.ndarray  # (episodes, radars), genie utilities
    external_regret_db: np.ndarray    # (radars,), full horizon
    cce_gap_db: np.ndarray            # (radars,)
    joint_distribution: JointDistribution
    aligned_actions: np.ndarray       # (steps, radars), common chirp clock
    profiles: dict                    # radar index -> FineRangeProfile
    policies: tuple[str, ...]


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    errors = validate_config(config)
    if errors:
        raise ScenarioError(errors)

    n_radars = config.n_radars
    a = config.n_subbands
    t_ep = config.episodes_per_frame
    noise = config.noise_power
    chirps = [spec.chirp for spec in config.radars]
    k_frame = [ch.chirps_per_frame for ch in chirps]
    k_ep = [k // t_ep for k in k_frame]
    s_frame = max(k_frame)  # aligned steps per frame (finest chirp clock)

    root = np.random.SeedSequence(config.seed)
    rngs = [
        {name: np.random.default_rng(child)
         for name, child in zip(("action", "noise", "intf", "target"), seq.spawn(4))}
        for seq in root.spawn(n_radars)
    ]

    agents = [_Agent(spec, i, n_radars, k_ep[i])
              for i, spec in enumerate(config.radars)]

    inr_lin = _link_inr_lin(config)
    sources = [[j for j in range(n_radars) if (i, j) in inr_lin] for i in range(n_radars)]
    link_power = [noise * np.array([inr_lin[(i, j)] for j in sources[i]])
                  for i in range(n_radars)]
    residuals = [sig.interference_bases(chirps[i], [chirps[j] for j in sources[i]])
                 for i in range(n_radars)]
    # Episode boundaries align in time across radars, so the per-episode
    # overlap geometry is identical every episode: precompute it per pair.
    geometry = {(i, j): overlap_geometry(chirps[i], chirps[j], k_ep[i], k_ep[j])
                for (i, j) in inr_lin}

    episodes = config.total_episodes
    strategies = np.zeros((episodes, n_radars, a))
    interference_rate = np.zeros((episodes, n_radars))
    mean_sinr_db = np.zeros((episodes, n_radars))
    aligned_frames = []
    last_frame_samples = [[] for _ in range(n_radars)]

    for frame in range(config.frames):
        last = frame == config.frames - 1
        target_phases = [
            rngs[i]["target"].uniform(0.0, 2.0 * np.pi, size=len(spec.targets))
            for i, spec in enumerate(config.radars)
        ]
        frame_actions = [np.empty(k, dtype=int) for k in k_frame]
        for ep in range(t_ep):
            e = frame * t_ep + ep
            acts = []
            for i in range(n_radars):
                strategy = agents[i].strategy
                strategies[e, i] = strategy.probs
                acts.append(sample_subbands(strategy, rngs[i]["action"], k_ep[i]))
                frame_actions[i][ep * k_ep[i]:(ep + 1) * k_ep[i]] = acts[i]

            all_stats = []
            for i, spec in enumerate(config.radars):
                weights = np.array([overlap_weight(geometry[(i, j)], acts[i], acts[j])
                                    for j in sources[i]]).reshape(len(sources[i]), k_ep[i])
                phases = rngs[i]["intf"].uniform(0.0, 2.0 * np.pi, size=weights.shape)
                amps = np.sqrt(link_power[i][:, None] * weights) * np.exp(1j * phases)
                # Only the final frame's samples are used (range profile).
                meas, samples = sig.measure_episode(
                    chirps[i], spec.targets, target_phases[i], acts[i], ep * k_ep[i], amps,
                    *residuals[i], noise, rngs[i]["noise"], sampled=last,
                    genie_flags=(weights > 0).any(axis=0) if config.genie_detection else None,
                    detection_factor=config.detection_factor)
                if last:
                    last_frame_samples[i].append(samples)
                all_stats.append(sig.estimate_episode_sinr(meas, a, config.db_average))
                interference_rate[e, i] = float(np.mean(meas.flagged))
                mean_sinr_db[e, i] = 10.0 * np.log10(
                    np.mean(meas.clean_power / (meas.interference_power + noise)))

            solved = {}  # one Nash solve per distinct estimated table
            for i in range(n_radars):
                agents[i].end_episode(all_stats[i], all_stats, solved)

        step_idx = [
            (np.arange(s_frame) * k_frame[i]) // s_frame for i in range(n_radars)
        ]
        aligned_frames.append(np.stack(
            [frame_actions[i][step_idx[i]] for i in range(n_radars)], axis=1))

    aligned = np.concatenate(aligned_frames, axis=0)  # (steps, radars)
    joint = empirical_joint(aligned, a)

    # Regret after the last aligned step of every episode.
    bounds = np.arange(1, episodes + 1) * (s_frame // t_ep) - 1
    cumulative_regret = np.zeros((episodes, n_radars))
    ext_regret = np.zeros(n_radars)
    cce_gap = np.zeros(n_radars)
    for i in range(n_radars):
        running = external_regret(genie_utility_table(config, aligned, i), aligned[:, i])
        cumulative_regret[:, i] = running[bounds]
        ext_regret[i] = running[-1]
        cce_gap[i] = cce_deviation_gap(
            joint, genie_utility_table(config, joint.rows, i), i)

    profiles = {}
    for i, spec in enumerate(config.radars):
        ch = chirps[i]
        rfft = sig.range_fft(np.concatenate(last_frame_samples[i], axis=1))
        v0 = spec.targets[0].velocity_mps
        eps_grid = sig.default_eps_grid(ch)
        bins = np.arange(ch.n_samples // 2)
        # frame_actions holds the final frame's subbands
        surface = sig.sweep_coarse_bins(rfft, frame_actions[i] * ch.subband_hz, bins,
                                        np.array([v0]), eps_grid, ch)
        profiles[i] = sig.range_profile_at_velocity(surface, v0)

    return RunMetrics(
        strategies=strategies,
        interference_rate=interference_rate,
        mean_sinr_db=mean_sinr_db,
        cumulative_regret_db=cumulative_regret,
        external_regret_db=ext_regret,
        cce_gap_db=cce_gap,
        joint_distribution=joint,
        aligned_actions=aligned,
        profiles=profiles,
        policies=tuple(spec.policy for spec in config.radars),
    )
