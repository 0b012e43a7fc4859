"""Scenario orchestration.

Binds each radar's policy state to the signal channel, runs frames and
episodes on a common clock, and collects strategy trajectories,
interference rates, regret curves, the empirical joint distribution, and
range profiles. A run is fully deterministic given its config and seed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import signal as sig
from .game import (
    PURE_ENUM_GUARD,
    SUPPORT_PAIR_GUARD,
    TABLE_CELL_GUARD,
    JointDistribution,
    empirical_joint,
    external_regret,
    cce_deviation_gap,
)
from .hopping import (
    DEFAULT_KAPPA,
    DEFAULT_LOSS_CLIP_DB,
    DEFAULT_PESSIMISTIC_FLOOR_DB,
    IN_ORDER_SUM_TERMS,
    init_nash_hopper,
    init_noregret,
    nash_commit,
    nash_explore_update,
    noregret_update,
    sample_subbands,
)

# Largest N_s x K_ep block a radar synthesizes per episode in detector
# mode, 25x table1's. At the guard a detector episode holds the complex
# block x (64 MiB), the workspace's scratch, power and mask buffers (25
# bytes a sample, 100 MiB) and the noise worker's two (2, N_s, K_ep) float
# blocks of standard normals (128 MiB): about 292 MiB. In both modes, also
# the most (T + L) x (N_s + K_ep) noiseless rows plus coefficients that
# one radar, and that all radars of a run together, may hold (T targets
# and L linked sources bound the T + D rows of D source slopes held); and
# the largest (N_s/2, A, 2A) phase tensor of a radar's final-frame range
# profile.
SAMPLE_BLOCK_GUARD = 2 ** 22

# Most float-sized elements of one chunk of a radar group's stacked episode
# arrays (8 MiB). Larger chunks fall out of cache between the steps of an
# episode: crowd-32's groups of 16 radars (about 20 MiB) ran a seed about
# 20% slower than chunks of 6 radars.
GROUP_CHUNK_ELEMENTS = SAMPLE_BLOCK_GUARD // 4

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
    """Config document malformed or invalid; carries every problem found."""

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

    @property
    def n_radars(self) -> int:
        return len(self.radars)

    @property
    def n_subbands(self) -> int:
        return self.radars[0].chirp.n_subbands

    @property
    def total_episodes(self) -> int:
        return self.frames * self.episodes_per_frame


# The run fields: ScenarioConfig's own, each typed by its default.
RUN_FIELDS = {f.name: (type(f.default), f.default) for f in fields(ScenarioConfig)
              if f.name not in ("radars", "links")}


def validate_config(config: ScenarioConfig) -> list[str]:
    """Every violated invariant, as one message each."""
    errors = []
    if not config.radars:
        errors.append("radars: list must not be empty")
        return errors
    table = link_table(config)
    # A mistyped run field is reported once; checks that read it are skipped.
    typed = {name: has_type(getattr(config, name), kind) for name, (kind, _) in RUN_FIELDS.items()}
    episodes = config.total_episodes if typed["frames"] and typed["episodes_per_frame"] else None
    first = config.radars[0].chirp
    durations, basis_values = [], []
    for idx, spec in enumerate(config.radars, start=1):
        ch = spec.chirp
        label = f"radars[{idx}]"
        if ch.f_c != first.f_c or ch.subband_hz != first.subband_hz \
                or ch.n_subbands != first.n_subbands:
            errors.append(f"{label}: all radars must share f_c, subband width, and subband count")
        if typed["episodes_per_frame"] and ch.chirps_per_frame % max(config.episodes_per_frame, 1):
            errors.append(
                f"{label}: chirps per frame {ch.chirps_per_frame} not divisible by "
                f"{config.episodes_per_frame} episodes")
        durations.append(ch.chirps_per_frame * ch.pri_s)
        k_ep = ch.chirps_per_frame // max(config.episodes_per_frame, 1) \
            if typed["episodes_per_frame"] else ch.chirps_per_frame
        if config.genie_detection is not True and ch.n_samples * k_ep > SAMPLE_BLOCK_GUARD:
            errors.append(
                f"{label}: {ch.n_samples} samples per chirp x {k_ep} chirps per episode "
                f"give {ch.n_samples * k_ep} samples per episode, above the "
                f"{SAMPLE_BLOCK_GUARD} allowed")
        # Both modes hold the noiseless rows (targets, then one per source
        # slope, at most one per linked source) for the whole run, and their
        # per-chirp coefficients each episode.
        n_rows = len(spec.targets) + int(np.count_nonzero(table[idx - 1]))
        basis_values.append(n_rows * (ch.n_samples + k_ep))
        if basis_values[-1] > SAMPLE_BLOCK_GUARD:
            errors.append(
                f"{label}: {n_rows} noiseless rows (targets and linked sources) x "
                f"({ch.n_samples} samples per chirp + {k_ep} chirps per episode) give "
                f"{basis_values[-1]} values, above the {SAMPLE_BLOCK_GUARD} allowed")
        # The final frame's (N_s, A) hop sums and their noise are no larger.
        n_phase = (ch.n_samples // 2) * ch.n_subbands * 2 * ch.n_subbands
        if n_phase > SAMPLE_BLOCK_GUARD:
            errors.append(
                f"{label}: the final-frame range profile's {ch.n_samples // 2} coarse bins x "
                f"{ch.n_subbands} subbands x {2 * ch.n_subbands} fine offsets give {n_phase} "
                f"phase terms, above the {SAMPLE_BLOCK_GUARD} allowed")
        if spec.policy not in POLICY_PARAMS:
            errors.append(f"{label}: unknown policy {spec.policy!r}")
        else:
            errors += _policy_param_errors(spec, label, episodes)
        if spec.policy == "noregret" and ch.n_subbands < 2:
            errors.append(f"{label}: noregret policy needs at least two subbands")
        if not spec.targets:
            errors.append(f"{label}: needs at least one target (genie utility evaluation)")
        for ti, tgt in enumerate(spec.targets, start=1):
            if not np.isfinite(ch.beat_hz(tgt.range_m)):
                errors.append(f"{label}.targets[{ti}]: range {tgt.range_m} m gives a beat "
                              "product 2 R slope above the largest float")
            if not np.isfinite(ch.doppler_cycles(tgt.velocity_mps)):
                errors.append(
                    f"{label}.targets[{ti}]: velocity {tgt.velocity_mps} m/s gives a Doppler "
                    f"product 2 v PRI f_c above the largest float")
            if not np.isfinite(ch.hop_phase(tgt.velocity_mps, ch.chirps_per_frame - 1,
                                            ch.n_subbands - 1)):
                errors.append(
                    f"{label}.targets[{ti}]: velocity {tgt.velocity_mps} m/s gives a hop phase "
                    f"2 pi (2/c) PRI v k a B_a above the largest float at the frame's last "
                    f"chirp and subband")
            outside = sig.first_chirp_outside(ch, tgt)
            if outside is not None:
                errors.append(
                    f"{label}.targets[{ti}]: target at {tgt.range_m} m moving at "
                    f"{tgt.velocity_mps} m/s has its round-trip delay outside [0, "
                    f"{ch.active_s}) s from chirp {outside + 1} of {ch.chirps_per_frame}")
    if durations and max(durations) - min(durations) > 1e-12 * max(durations):
        errors.append("radars: frame durations K*PRI must agree across radars")
    if max(basis_values) <= SAMPLE_BLOCK_GUARD < sum(basis_values):
        errors.append(
            f"radars: the {config.n_radars} radars' noiseless rows x (samples per chirp + "
            f"chirps per episode) give {sum(basis_values)} values in all, above the "
            f"{SAMPLE_BLOCK_GUARD} allowed")
    # Only the Nash solver enumerates joint actions: a pure solve passes
    # once per radar over all A**n of them.
    nash = any(spec.policy == "nash" for spec in config.radars)
    joint = first.n_subbands ** config.n_radars
    if nash and joint > PURE_ENUM_GUARD:
        errors.append(
            f"radars: {config.n_radars} radars on {first.n_subbands} subbands give "
            f"{joint} joint actions, above the {PURE_ENUM_GUARD} the Nash solver "
            "enumerates")
    # A 2-radar 'auto' solve enumerates the equal-size support pairs with
    # S = T or |S \ T| = 1; counted once the joint actions fit (A <= 3162).
    a = first.n_subbands
    pairs = nash and config.n_radars == 2 and joint <= PURE_ENUM_GUARD and (
        2**a - 1 + a * (a - 1) * 2**a // 4)
    if pairs > SUPPORT_PAIR_GUARD:
        errors += [
            f"radars[{idx}].policy_params.solver_mode: 'auto' on 2 radars and "
            f"{a} subbands enumerates {pairs} support pairs per solve, above the "
            f"{SUPPORT_PAIR_GUARD} allowed; use 'pure'"
            for idx, spec in enumerate(config.radars, start=1)
            if spec.policy == "nash" and spec.policy_params.get("solver_mode", "auto") == "auto"]
    n, chirps = config.n_radars, [spec.chirp for spec in config.radars]
    t_end = [(ch.n_samples - 1) / ch.adc_hz for ch in chirps]  # each chirp's last sample
    for li, link in enumerate(config.links, start=1):
        if not (0 <= link.victim < n and 0 <= link.source < n) or link.victim == link.source:
            errors.append(f"links[{li}]: victim/source indices invalid")
        elif not math.isfinite(chirps[link.victim].residual_phase(chirps[link.source],
                                                                  t_end[link.victim])):
            errors.append(
                f"links[{li}]: the slopes of radars[{link.victim + 1}] and "
                f"radars[{link.source + 1}] give a residual chirp phase pi (a_v - a_s) t^2 "
                "above the largest float")
        if not math.isfinite(link.inr_db):
            errors.append(f"links[{li}].inr_db: {link.inr_db!r} not finite")
        elif not 0 < sig.db_power(link.inr_db) < np.inf:
            errors.append(f"links[{li}].inr_db: {link.inr_db!r} dB has a linear power "
                          "not finite and > 0")
    errors += [f"run.{name}: expected {RUN_FIELDS[name][0].__name__}, "
               f"got {getattr(config, name)!r}" for name, ok in typed.items() if not ok]
    if any(typed[name] and getattr(config, name) < 1 for name in ("frames", "episodes_per_frame")):
        errors.append("run: frames and episodes_per_frame must be positive")
    # The per-step records (aligned actions, per-subband genie utilities)
    # hold frames * max(K) steps for every radar and subband.
    cells = typed["frames"] and config.frames * config.n_radars * first.n_subbands * max(
        spec.chirp.chirps_per_frame for spec in config.radars)
    if cells > TABLE_CELL_GUARD:
        errors.append(
            f"run.frames: {config.frames} frames give {cells} per-step cells for "
            f"{config.n_radars} radars on {first.n_subbands} subbands, above the "
            f"{TABLE_CELL_GUARD} allowed")
    if typed["seed"] and config.seed < 0:
        errors.append(f"run.seed: {config.seed} must be non-negative")
    if typed["noise_power"] and not 0 < config.noise_power < np.inf:
        errors.append(f"run.noise_power: {config.noise_power!r} not finite and > 0")
    elif typed["noise_power"]:
        # Genie mode's 2 ||e_k||^2 is the largest float a run forms; it is at most
        # 2 N_s noise (1 + sum sqrt(SNR) + sum sqrt(INR))^2, every term adding
        # coherently. Repeated links of a pair form one amplitude, sqrt of their sum.
        for idx, spec in enumerate(config.radars, start=1):
            amp = 1.0 + sum([math.sqrt(sig.db_power(t.snr_db)) for t in spec.targets]
                            + np.sqrt(table[idx - 1]).tolist())
            bound = 2.0 * spec.chirp.n_samples * config.noise_power * amp * amp
            if amp < np.inf and not bound < np.inf:  # a bad INR is reported below
                terms = [f"radars[{idx}].targets[{k}]" for k in range(1, len(spec.targets) + 1)]
                terms += [f"links[{li}]"
                          for li, link in enumerate(config.links, 1) if link.victim == idx - 1]
                errors.append(f"run.noise_power: {config.noise_power!r} with {', '.join(terms)} "
                              f"gives radars[{idx}] a chirp energy bound 2 N_s noise (1 + sum "
                              "sqrt(SNR) + sum sqrt(INR))^2 above the largest float")
    if typed["detection_factor"] and (not np.isfinite(config.detection_factor) or (
            not config.genie_detection and not config.detection_factor > 1)):
        errors.append(f"run.detection_factor: {config.detection_factor!r} not finite and > 1")
    return errors


def has_type(value, kind) -> bool:
    """Whether a config value is of ``kind``; a bool is never a number."""
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, abstract) and (kind is bool or not isinstance(value, bool))


def _policy_param_errors(spec: RadarSpec, label: str, episodes: int | None) -> list[str]:
    table = POLICY_PARAMS[spec.policy]
    a = spec.chirp.n_subbands
    errors = [
        f"{label}.policy_params.{key}: not a {spec.policy} parameter "
        f"(accepted: {', '.join(table) or 'none'})"
        for key in spec.policy_params if key not in table
    ]
    for key, (kind, default, check, rule) in table.items():
        ctx = f"{label}.policy_params.{key}"
        text = rule.format(a=a, episodes=episodes)
        value = spec.policy_params.get(key, default)
        if value is _REQUIRED:
            errors.append(f"{ctx}: {spec.policy} policy needs {key} {text}")
        elif value is None and default is None:
            continue
        elif not has_type(value, kind):
            errors.append(f"{ctx}: expected {kind.__name__}, got {value!r}")
        elif episodes is None and "{episodes}" in rule:
            continue  # bounded by the run's episode count, which is mistyped
        elif not check(value, a, episodes):
            errors.append(f"{ctx}: {value!r} not {text}")
    return errors


def resolved_params(spec: RadarSpec) -> dict:
    """The radar's policy parameters, table defaults filled in."""
    return {key: spec.policy_params.get(key, default)
            for key, (_, default, _, _) in POLICY_PARAMS[spec.policy].items()}


def overlap_geometry(victim: sig.ChirpParams, source: sig.ChirpParams,
                           n_victim: int, n_source: int):
    """Candidate source chirps and time-overlap fractions per victim chirp.

    Chirp q of a radar is active on [q*PRI, q*PRI + T_a) from the common
    frame start (zero start offsets). Returns (cand, frac) arrays of shape
    (n_victim, C); frac is 0 where there is no overlap or no valid chirp.
    Candidate columns whose frac is 0 for every victim chirp add only zeros
    to every overlap weight; they are dropped when there are fewer than
    ``IN_ORDER_SUM_TERMS`` columns, so no weight changes by a bit.
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
    if n_cand < IN_ORDER_SUM_TERMS:
        live = frac.any(axis=0)
        cand, frac = cand[:, live], frac[:, live]
    return cand, frac


@dataclass(frozen=True)
class _Group:
    """Radars that share a waveform, a target count, an incoming-link count and
    the set of their sources' slopes.

    Row r of every array belongs to radar ``radars[r]``, whose L links are
    in ascending source order. ``links`` holds one entry per source
    waveform: its ``overlap_geometry`` (cand, frac) against the group's
    waveform and, for each (victim, link) pair it serves, the source's
    chirp positions in the episode's flat arrays (pairs, K_w), the victim's
    row and the link's slot r * L + l. A source's residual chirp depends
    only on its slope, so the group's D <= L source slopes are its classes:
    each radar has one noiseless row per class, whose coefficient sums the
    amplitudes of the radar's links of that slope.
    """

    radars: np.ndarray
    chirp: sig.ChirpParams
    chirps: np.ndarray           # (R, K) positions of the radars' chirps in the flat arrays
    power: np.ndarray            # (R, L, 1) linear link powers
    classes: np.ndarray          # (R * L,) each link's flat (radar, class) offset r * D + d
    echo_terms: tuple            # the targets' sig.echo_chirp_terms at each episode offset
    rows: tuple                  # each radar's noiseless_basis rows, (T + D, N_s)
    gram_t: np.ndarray           # (R, T, T) target blocks of the Gram matrices
    gram_s: np.ndarray           # (R, D, D) source class blocks
    links: tuple


def _episode_spans(config: ScenarioConfig) -> tuple[list, list]:
    """Each radar's chirps per episode and its slice of the episode's flat
    per-chirp arrays, which hold every radar's chirps, radar after radar."""
    k_ep = [spec.chirp.chirps_per_frame // config.episodes_per_frame for spec in config.radars]
    ends = np.cumsum(k_ep)
    return k_ep, [slice(end - k, end) for k, end in zip(k_ep, ends)]


def _radar_groups(config: ScenarioConfig, table: np.ndarray) -> list:
    """The run's ``_Group``s, each a chunk of the radars sharing a waveform, a
    target count, a link count and a set of source slopes, in order of their
    first radar; ``table`` is the run's ``link_table``.

    Episode boundaries align in time across radars, so a group's overlap
    geometry, link powers and Gram blocks hold for every episode of the
    run, and the echoes' chirp-index terms at an episode offset for that
    offset in every frame. A chunk's classes are its source slopes in the
    order its links first reach them, each row built from one source of
    that slope. A chunk's stacked episode arrays hold at most
    ``GROUP_CHUNK_ELEMENTS`` float-sized elements: per radar and chirp, two
    for each column of its link weight tensor (the int gather, then the
    bool hits and their float products) and eight for each of its T + L
    targets and links (weights, phases, complex coefficients and the Gram
    products; there are no more than T + D <= T + L coefficient rows).
    """
    noise = config.noise_power
    k_ep, spans = _episode_spans(config)
    positions = [np.arange(span.start, span.stop) for span in spans]
    sources = [np.flatnonzero(row).tolist() for row in table]
    chirps = [spec.chirp for spec in config.radars]
    keyed = {}  # group key -> its radars
    for i, spec in enumerate(config.radars):
        slopes = frozenset(chirps[j].slope for j in sources[i])
        keyed.setdefault((chirps[i], len(spec.targets), len(sources[i]), slopes), []).append(i)
    groups = []
    for (wave, n_t, n_l, _), members in keyed.items():
        k = k_ep[members[0]]
        heard = {chirps[j]: j for i in members for j in sources[i]}  # waveform -> a source
        geometry = {src: overlap_geometry(wave, src, k, k_ep[j]) for src, j in heard.items()}
        columns = max(sum(geometry[chirps[j]][0].shape[1] for j in sources[i]) for i in members)
        size = max(1, GROUP_CHUNK_ELEMENTS // (k * (2 * columns + 8 * (n_t + n_l))))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            by_slope = {}  # source slope -> a source waveform of that slope, in class order
            for i in chunk:
                for j in sources[i]:
                    by_slope.setdefault(chirps[j].slope, chirps[j])
            cls = {slope: d for d, slope in enumerate(by_slope)}
            echo = sig.echo_constants(wave, [config.radars[i].targets for i in chunk])
            bases = [sig.noiseless_basis(wave, config.radars[i].targets, list(by_slope.values()),
                                         noise) for i in chunk]
            pairs = {}  # source waveform -> (source chirps, victim row, slot) per pair
            for r, i in enumerate(chunk):
                for l, j in enumerate(sources[i]):
                    pairs.setdefault(chirps[j], []).append((positions[j], r, r * n_l + l))
            links = tuple((geometry[src], *(np.array(column) for column in zip(*served)))
                          for src, served in pairs.items())
            groups.append(_Group(
                radars=np.array(chunk), chirp=wave,
                chirps=np.array([positions[i] for i in chunk]),
                power=noise * np.reshape([table[i, sources[i]] for i in chunk],
                                         (len(chunk), n_l, 1)),
                classes=np.array([r * len(cls) + cls[chirps[j].slope]
                                  for r, i in enumerate(chunk) for j in sources[i]], dtype=np.intp),
                echo_terms=tuple(sig.echo_chirp_terms(wave, echo, ep * k, k)
                                 for ep in range(config.episodes_per_frame)),
                rows=tuple(rows for rows, _ in bases),
                gram_t=np.array([gram[:n_t, :n_t] for _, gram in bases]),
                gram_s=np.reshape([gram[n_t:, n_t:] for _, gram in bases],
                                  (len(chunk), len(cls), len(cls))),
                links=links))
    return groups


def _group_weights(group: _Group, subbands: np.ndarray) -> np.ndarray:
    """The group's overlap weights (R, L, K_v) on the episode's flat ``subbands``.

    Per source waveform, every served pair at once. Below
    ``IN_ORDER_SUM_TERMS`` candidate columns, each column's (pairs, K_v)
    hits are gathered and their overlaps added in column order, as numpy
    adds so few terms. From 8 on, one C-ordered ``np.take`` gathers the
    (pairs, K_v, C) hits, summed pairwise as the per-pair product is.
    """
    n_r, n_l = group.power.shape[:2]
    acts = subbands[group.chirps]
    weights = np.empty((n_r * n_l, acts.shape[1]))
    for (cand, frac), source_chirps, vic, slots in group.links:
        played, heard = subbands[source_chirps], acts[vic]
        if cand.shape[1] < IN_ORDER_SUM_TERMS:
            total = np.zeros(heard.shape)
            for c in range(cand.shape[1]):
                total += frac[:, c] * (np.take(played, cand[:, c], axis=1) == heard)
            weights[slots] = total
        else:
            hits = np.take(played, cand, axis=1) == heard[:, :, None]
            weights[slots] = (frac * hits).sum(axis=2)
    return weights.reshape(n_r, n_l, acts.shape[1])


def _measure_group(group: _Group, subbands: np.ndarray, target_phases: np.ndarray, ep: int,
                   rngs: list, config: ScenarioConfig, last: bool, workspace, normals):
    """One episode of a group's radars: the (R, K) interference flags, clean and
    interference powers, then in the final frame each radar's hop sums.

    Links, echo phases and genie mode's Gram energies are stacked arrays;
    each radar's own generators draw its link phases and, in genie mode, its
    measurement, which ``signal.measure_episode`` takes from its rows of
    those arrays. In detector mode the measurement's noise is the radar's
    next block from ``normals``, a ``_prefetched_noise`` generator.
    """
    ch, noise = group.chirp, config.noise_power
    n_r, n_l = group.power.shape[:2]
    n_t, n_d = group.gram_t.shape[1], group.gram_s.shape[1]
    acts = subbands[group.chirps]
    k = acts.shape[1]
    weights = _group_weights(group, subbands)
    # One phase per link and chirp keeps each radar's draw order; a chirp
    # a source misses has amplitude 0, so only hits need sqrt and exp. The
    # hits' flat (R, L, K) indices serve every gather, and moved to their
    # link's (radar, class) offset, they bin each class's amplitudes, in
    # link order, into the (R, D, K) source coefficients.
    phases = np.empty(weights.shape)
    for r, i in enumerate(group.radars):
        phases[r] = rngs[i]["intf"].uniform(0.0, 2.0 * np.pi, size=(n_l, k))
    hit = np.flatnonzero(weights > 0)
    link = hit // k
    amps = (np.sqrt(group.power.reshape(-1)[link] * weights.reshape(-1)[hit])
            * np.exp(1j * phases.reshape(-1)[hit]))
    bins = hit + (group.classes[link] - link) * k
    coeffs = np.empty((n_r, n_t + n_d, k), dtype=complex)
    for part, values in ((coeffs.real, amps.real), (coeffs.imag, amps.imag)):
        part[:, n_t:] = np.bincount(bins, values, n_r * n_d * k).reshape(n_r, n_d, k)
    coeffs[:, :n_t] = sig.echo_slow(ch, group.echo_terms[ep], acts, target_phases)
    clean = np.empty((n_r, k))
    if config.genie_detection:
        flags = weights.any(axis=1)
        energy = sig.column_energy(group.gram_t, coeffs[:, :n_t])
        intf = sig.column_energy(group.gram_s, coeffs[:, n_t:]) / ch.n_samples
    else:
        flags, intf = np.empty((n_r, k), dtype=bool), np.empty((n_r, k))
    sums = []
    for r, i in enumerate(group.radars):
        flags[r], clean[r], intf[r], radar_sums = sig.measure_episode(
            group.rows[r], coeffs[r], noise,
            rngs[i]["noise"] if config.genie_detection else next(normals),
            genie=(flags[r], energy[r], intf[r]) if config.genie_detection else None,
            hop_weights=sig.hop_sum_weights(
                ch, acts[r], config.radars[i].targets[0].velocity_mps, ep * k) if last else None,
            detection_factor=config.detection_factor, workspace=workspace)
        sums.append(radar_sums)
    return flags, clean, intf, sums


def _prefetched_noise(order: list, episodes: int):
    """Yields a detector run's noise blocks, each drawn on a worker thread while
    the caller measures with the block before.

    ``order`` lists an episode's (generator, (N_s, K)) per radar, in the order
    ``_measure_group`` measures them; every episode repeats it. Block b is
    that radar's (2, N_s, K) standard normals, real parts then imaginary
    parts: the draws of two fills on the calling thread. Asking for block b
    submits block b + 1 into block b - 1's buffer; nothing is drawn after
    the last block. A failed fill is raised again, as the same object, by
    the request for its block. Closing the generator joins the worker.
    """
    from concurrent.futures import ThreadPoolExecutor  # imports logging: detector runs only

    buffers = [np.empty(2 * max(n * k for _, (n, k) in order)) for _ in range(2)]

    def fill(b: int) -> np.ndarray:
        rng, (n, k) = order[b % len(order)]
        return rng.standard_normal(out=buffers[b % 2][:2 * n * k].reshape(2, n, k))

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="hopsim-noise") as pool:
        pending = pool.submit(fill, 0)
        for b in range(1, episodes * len(order)):
            block = pending.result()
            pending = pool.submit(fill, b)
            yield block
        yield pending.result()


def link_table(config: ScenarioConfig) -> np.ndarray:
    """Linear INR (n, n) of every link, victim by row and source by column.

    Repeated links of a pair add in config order. A link whose victim is its
    source or out of range is left out (``validate_config`` reports it).
    Victim i's sources are ``np.flatnonzero(table[i])``, in ascending order.
    """
    n = config.n_radars
    table = np.zeros((n, n))
    for link in config.links:
        if 0 <= link.victim < n and 0 <= link.source < n and link.victim != link.source:
            table[link.victim, link.source] += sig.db_power(link.inr_db)
    return table


def genie_utility_table(config: ScenarioConfig, rows: np.ndarray, player: int,
                        table: np.ndarray) -> np.ndarray:
    """Evaluation-side utility (dB) of each of ``player``'s subbands per row.

    ``rows`` holds joint actions, shape (S, n); ``table`` is the run's
    ``link_table``. The result has shape (S, A). A subband that linked
    sources play in that row is valued at the theoretical SINR with their
    summed INR, added in ascending source order; any other subband at the
    SNR. Never shown to the policies in model-free runs.
    """
    snr_lin = sum(sig.db_power(t.snr_db) for t in config.radars[player].targets)
    s, a = len(rows), config.n_subbands
    load = np.zeros(s * a)
    for j in np.flatnonzero(table[player]):
        load[np.arange(s) * a + rows[:, j]] += table[player, j]
    return 10.0 * np.log10(snr_lin / (load.reshape(s, a) + 1.0))


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
    k_ep, spans = _episode_spans(config)
    s_frame = max(k_frame)  # aligned steps per frame (finest chirp clock)
    s_ep = s_frame // t_ep

    root = np.random.SeedSequence(config.seed)
    rngs = [
        {name: np.random.default_rng(child)
         for name, child in zip(("action", "noise", "intf", "target"), seq.spawn(4))}
        for seq in root.spawn(n_radars)
    ]

    # Every radar's strategy for the coming episode, uniform at first and
    # one-hot for ``fixed`` radars. Rows of ``fixed`` and ``uniform`` radars
    # never change; the others follow their learners.
    probs = np.full((n_radars, a), 1.0 / a)
    for i, spec in enumerate(config.radars):
        if spec.policy == "fixed":
            probs[i] = np.eye(a)[spec.policy_params["subband"]]
    learners, seekers = ({i: resolved_params(spec) for i, spec in enumerate(config.radars)
                          if spec.policy == policy} for policy in ("noregret", "nash"))
    noregret = init_noregret(a, learners) if learners else None
    nash = init_nash_hopper(n_radars, a, seekers) if seekers else None

    episodes = config.total_episodes
    strategies = np.zeros((episodes, n_radars, a))
    interference_rate = np.zeros((episodes, n_radars))
    mean_sinr = np.zeros((episodes, n_radars))  # linear, converted to dB after the run
    aligned = np.empty((config.frames * s_frame, n_radars), dtype=int)  # common chirp clock
    hop_sums = [0] * n_radars  # each radar's final-frame hop sums, (N_s, A)
    # Every radar's chirps of the episode: subbands, flags, linear SINR and SNR.
    n_chirps = sum(k_ep)
    subbands, flagged = np.empty(n_chirps, dtype=int), np.empty(n_chirps, dtype=bool)
    sinr, snr = np.empty(n_chirps), np.empty(n_chirps)
    table = link_table(config)
    groups = _radar_groups(config, table)
    # Detector mode synthesizes every episode: one workspace serves them all,
    # and a worker thread, started by the first request, draws every
    # radar-episode's noise one block ahead.
    workspace = normals = None
    if not config.genie_detection:
        workspace = sig.SampleWorkspace(*((ch.n_samples, k) for ch, k in zip(chirps, k_ep)))
        normals = _prefetched_noise([(rngs[i]["noise"], (chirps[i].n_samples, k_ep[i]))
                                     for group in groups for i in group.radars], episodes)
    # The episode's chirp of each radar on every aligned step, (s_ep, n).
    clock = np.stack([span.start + (np.arange(s_ep) * k) // s_frame
                      for span, k in zip(spans, k_frame)], axis=1)

    try:
        for frame in range(config.frames):
            last = frame == config.frames - 1
            target_phases = [  # (R, T) per group
                np.array([rngs[i]["target"].uniform(0.0, 2.0 * np.pi,
                                                    size=len(config.radars[i].targets))
                          for i in group.radars])
                for group in groups]
            for ep in range(t_ep):
                e = frame * t_ep + ep
                strategies[e] = probs
                for i in range(n_radars):
                    subbands[spans[i]] = sample_subbands(probs[i], rngs[i]["action"], k_ep[i])
                aligned[e * s_ep:(e + 1) * s_ep] = subbands[clock]

                for group, phases in zip(groups, target_phases):
                    flags, p_clean, p_intf, sums = _measure_group(
                        group, subbands, phases, ep, rngs, config, last, workspace, normals)
                    if last:  # the final frame feeds the range profile through its hop sums
                        for i, radar_sums in zip(group.radars, sums):
                            hop_sums[i] += radar_sums
                    p_sinr = p_clean / (p_intf + noise)
                    flagged[group.chirps], sinr[group.chirps] = flags, p_sinr
                    snr[group.chirps] = p_clean / noise
                    # Each row's mean, summed along the row as np.mean sums it.
                    k = flags.shape[1]
                    interference_rate[e, group.radars] = flags.sum(axis=1) / k
                    mean_sinr[e, group.radars] = p_sinr.sum(axis=1) / k

                stats = sig.estimate_episode_sinr(subbands, flagged, sinr, snr, k_ep, a)
                if noregret is not None:
                    noregret = noregret_update(noregret, stats)
                    probs[noregret.radars] = noregret.probs
                if nash is not None and not nash.committed.all():
                    nash = nash_explore_update(nash, stats)
                    if np.any(nash.explore_episodes == nash.episodes_seen):
                        nash = nash_commit(nash)
                    probs[nash.radars] = nash.probs
    finally:
        if normals is not None:
            normals.close()
    del workspace, normals
    profiles = {i: sig.range_profile_at_velocity(
        sig.range_fft(hop_sums[i]), np.arange(a) * ch.subband_hz, np.arange(ch.n_samples // 2),
        sig.default_eps_grid(ch), ch) for i, ch in enumerate(chirps)}
    joint, support_row = empirical_joint(aligned, a)

    # Regret after the last aligned step of every episode; the last covers
    # the horizon. A step's utilities depend only on its joint action, so
    # they are evaluated on the support rows and gathered to the steps.
    bounds = np.arange(1, episodes + 1) * s_ep - 1
    cumulative_regret = np.zeros((episodes, n_radars))
    cce_gap = np.zeros(n_radars)
    for i in range(n_radars):
        per_arm = genie_utility_table(config, joint.rows, i, table)
        cumulative_regret[:, i] = external_regret(per_arm, support_row, aligned[:, i], bounds)
        cce_gap[i] = cce_deviation_gap(joint, per_arm, i)

    return RunMetrics(
        strategies=strategies,
        interference_rate=interference_rate,
        # Floored as the estimator floors: in detector mode every sample of
        # a chirp can lie above the threshold.
        mean_sinr_db=10.0 * np.log10(np.maximum(mean_sinr, 1e-300)),
        cumulative_regret_db=cumulative_regret,
        external_regret_db=cumulative_regret[-1].copy(),
        cce_gap_db=cce_gap,
        joint_distribution=joint,
        aligned_actions=aligned,
        profiles=profiles,
        policies=tuple(spec.policy for spec in config.radars),
    )
