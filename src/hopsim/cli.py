"""Command-line entry point.

``hopsim run`` executes a scenario config over one or more seeds and
emits per-seed CSVs plus a checksummed manifest; ``hopsim report``
summarizes one or more run directories. Exit codes: 0 ok, 1 usage,
2 validation, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import signal as sig
from .game import JointDistribution
from .sim import (
    LinkSpec,
    RadarSpec,
    RunMetrics,
    ScenarioConfig,
    ScenarioError,
    has_type,
    run_scenario,
    validate_config,
)

DEFAULT_ADC_HZ = 20e6
DEFAULT_ACTIVE_FRACTION = 0.8


class ConfigError(ValueError):
    """Config document malformed or invalid; carries every problem found."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("invalid config:\n  " + "\n  ".join(self.messages))


class ReportError(RuntimeError):
    pass


def _get(section: dict, field: str, errors: list, context: str, cast=float,
         default=None, required=False):
    """One typed field: bool and int fields take only YAML bools and ints.

    A float field also takes an int, or a numeric string (YAML 1.1 reads
    ``20e6``, written without a dot, as a string), and must be finite.
    """
    if field not in section:
        if required:
            errors.append(f"{context}: missing required field {field!r}")
        return default
    value = section[field]
    if cast is float and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if not has_type(value, cast):
        errors.append(f"{context}: field {field!r} has invalid value {section[field]!r} "
                      f"(expected {cast.__name__})")
        return default
    if cast is float and not np.isfinite(value):
        errors.append(f"{context}: field {field!r} must be finite, got {section[field]!r}")
        return default
    return cast(value)


def _mappings(doc: dict, section: str, errors: list) -> list:
    """The section's list entries; None stands in for each non-mapping entry."""
    entries = doc.get(section) or []
    if not isinstance(entries, list):
        errors.append(f"{section}: must be a list")
        return []
    out = []
    for idx, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            errors.append(f"{section}[{idx}]: must be a mapping, got {entry!r}")
            entry = None
        out.append(entry)
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document, collecting every violation at once."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"YAML parse error: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["document must be a mapping with sections radars/targets/links/run"])

    errors: list[str] = []
    radar_docs = _mappings(doc, "radars", errors)
    if not radar_docs and not errors:  # a non-list is reported already
        errors.append("radars: must be a non-empty list")
    run = doc.get("run") or {}
    if not isinstance(run, dict):
        errors.append("run: must be a mapping")
        run = {}

    targets_by_radar: dict[int, list[sig.Target]] = {}
    for ti, tdoc in enumerate(_mappings(doc, "targets", errors), start=1):
        if tdoc is None:
            continue
        ctx = f"targets[{ti}]"
        radar = _get(tdoc, "radar", errors, ctx, cast=int, required=True)
        rng_m = _get(tdoc, "range_m", errors, ctx, required=True)
        vel = _get(tdoc, "velocity_mps", errors, ctx, default=0.0)
        snr = _get(tdoc, "snr_db", errors, ctx, required=True)
        if None in (radar, rng_m, snr):
            continue
        if not 1 <= radar <= len(radar_docs):
            errors.append(f"{ctx}: radar {radar} is not one of radars 1..{len(radar_docs)}")
            continue
        try:
            tgt = sig.Target(range_m=rng_m, velocity_mps=vel, snr_db=snr)
        except ValueError as exc:
            errors.append(f"{ctx}: {exc}")
            continue
        targets_by_radar.setdefault(radar - 1, []).append(tgt)

    radars = []
    for ri, rdoc in enumerate(radar_docs, start=1):
        if rdoc is None:
            continue
        ctx = f"radars[{ri}]"
        pri = _get(rdoc, "pri_s", errors, ctx, required=True)
        fields = dict(
            f_c=_get(rdoc, "carrier_hz", errors, ctx, required=True),
            subband_hz=_get(rdoc, "subband_hz", errors, ctx, required=True),
            n_subbands=_get(rdoc, "subbands", errors, ctx, cast=int, required=True),
            pri_s=pri,
            active_s=_get(rdoc, "active_s", errors, ctx,
                          default=None if pri is None else DEFAULT_ACTIVE_FRACTION * pri),
            adc_hz=_get(rdoc, "adc_hz", errors, ctx, default=DEFAULT_ADC_HZ),
            chirps_per_frame=_get(rdoc, "chirps_per_frame", errors, ctx,
                                  cast=int, required=True),
        )
        if any(v is None for v in fields.values()):
            continue
        try:
            chirp = sig.ChirpParams(**fields)
        except ValueError as exc:
            errors.append(f"{ctx}: {exc}")
            continue
        policy = str(rdoc.get("policy", "uniform"))
        pparams = rdoc.get("policy_params") or {}
        if not isinstance(pparams, dict):
            errors.append(f"{ctx}: policy_params must be a mapping")
            pparams = {}
        radars.append(RadarSpec(chirp=chirp, policy=policy, policy_params=dict(pparams),
                                targets=tuple(targets_by_radar.get(ri - 1, ()))))

    links = []
    for li, ldoc in enumerate(_mappings(doc, "links", errors), start=1):
        if ldoc is None:
            continue
        ctx = f"links[{li}]"
        victim = _get(ldoc, "victim", errors, ctx, cast=int, required=True)
        source = _get(ldoc, "source", errors, ctx, cast=int, required=True)
        inr = _get(ldoc, "inr_db", errors, ctx, required=True)
        if None in (victim, source, inr):
            continue
        links.append(LinkSpec(victim=victim - 1, source=source - 1, inr_db=inr))

    ctx = "run"
    config_kwargs = dict(
        frames=_get(run, "frames", errors, ctx, cast=int, default=50),
        episodes_per_frame=_get(run, "episodes_per_frame", errors, ctx, cast=int, default=1),
        seed=_get(run, "seed", errors, ctx, cast=int, default=0),
        genie_detection=_get(run, "genie_detection", errors, ctx, cast=bool, default=True),
        noise_power=_get(run, "noise_power", errors, ctx, default=1.0),
        detection_factor=_get(run, "detection_factor", errors, ctx,
                              default=sig.DEFAULT_DETECTION_FACTOR),
        db_average=_get(run, "db_average", errors, ctx, cast=bool, default=False),
    )
    if errors:
        raise ConfigError(errors)
    config = ScenarioConfig(radars=tuple(radars), links=tuple(links), **config_kwargs)
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    return config


def render_config(config: ScenarioConfig) -> str:
    """YAML document reproducing the config, defaults included."""
    doc = {
        "radars": [
            {
                "carrier_hz": spec.chirp.f_c,
                "subband_hz": spec.chirp.subband_hz,
                "subbands": spec.chirp.n_subbands,
                "pri_s": spec.chirp.pri_s,
                "active_s": spec.chirp.active_s,
                "adc_hz": spec.chirp.adc_hz,
                "chirps_per_frame": spec.chirp.chirps_per_frame,
                "policy": spec.policy,
                "policy_params": dict(spec.policy_params),
            }
            for spec in config.radars
        ],
        "targets": [
            {"radar": i + 1, "range_m": t.range_m, "velocity_mps": t.velocity_mps,
             "snr_db": t.snr_db}
            for i, spec in enumerate(config.radars) for t in spec.targets
        ],
        "links": [
            {"victim": l.victim + 1, "source": l.source + 1, "inr_db": l.inr_db}
            for l in config.links
        ],
        "run": {
            "frames": config.frames,
            "episodes_per_frame": config.episodes_per_frame,
            "seed": config.seed,
            "genie_detection": config.genie_detection,
            "noise_power": config.noise_power,
            "detection_factor": config.detection_factor,
            "db_average": config.db_average,
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


@dataclass
class RunManifest:
    seeds: list[int]
    files: dict            # relative path -> sha256 hex digest
    summary: dict          # per-seed summary statistics
    config: dict           # resolved config document

    @classmethod
    def load(cls, out_dir) -> "RunManifest":
        path = Path(out_dir) / "manifest.json"
        if not path.is_file():
            raise ReportError(f"missing manifest: {path}")
        try:
            doc = json.loads(path.read_text())
            return cls(seeds=doc["seeds"], files=doc["files"],
                       summary=doc["summary"], config=doc["config"])
        except (json.JSONDecodeError, KeyError) as exc:
            raise ReportError(f"corrupt manifest {path}: {exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_joint_csv(path: Path, joint: JointDistribution):
    """``joint_dist.csv``: one row per support joint action, in the joint's C order.

    Joint actions are labelled 1-based, as ``"3"`` for one radar and
    ``"1-10-4"`` for three.
    """
    rows = [("-".join(str(a + 1) for a in row), repr(float(m)))
            for row, m in zip(joint.rows.tolist(), joint.mass)]
    _write_csv(path, ["joint_action", "mass"], rows)


def _emit_seed(out_dir: Path, seed: int, metrics: RunMetrics) -> tuple[dict, dict]:
    seed_dir = out_dir / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    episodes, n_radars, n_sub = metrics.strategies.shape
    files = {}

    rows = [(e + 1, i + 1, a + 1, repr(float(metrics.strategies[e, i, a])))
            for e in range(episodes) for i in range(n_radars) for a in range(n_sub)]
    _write_csv(seed_dir / "strategies.csv",
               ["episode", "radar", "subband", "probability"], rows)

    rows = [(e + 1, i + 1, repr(float(metrics.interference_rate[e, i])),
             repr(float(metrics.mean_sinr_db[e, i])))
            for e in range(episodes) for i in range(n_radars)]
    _write_csv(seed_dir / "interference.csv",
               ["episode", "radar", "rate", "mean_sinr_db"], rows)

    rows = [(e + 1, i + 1, repr(float(metrics.cumulative_regret_db[e, i])))
            for e in range(episodes) for i in range(n_radars)]
    _write_csv(seed_dir / "regret.csv",
               ["episode", "radar", "cumulative_regret_db"], rows)

    _write_joint_csv(seed_dir / "joint_dist.csv", metrics.joint_distribution)

    widths = {}
    seen = set()
    for i, policy in enumerate(metrics.policies):
        if policy in seen or i not in metrics.profiles:
            continue
        seen.add(policy)
        profile = metrics.profiles[i]
        rows = [(f"{r:.4f}", repr(float(m)))
                for r, m in zip(profile.ranges_m, profile.mags_db)]
        _write_csv(seed_dir / f"profile_{policy}.csv", ["range_m", "magnitude_db"], rows)
        widths[policy] = sig.mainlobe_width(profile)

    for path in sorted(seed_dir.iterdir()):
        files[str(path.relative_to(out_dir))] = _sha256(path)

    summary = {
        "final_interference_rate": [float(v) for v in metrics.interference_rate[-1]],
        "final_mean_sinr_db": [float(v) for v in metrics.mean_sinr_db[-1]],
        "cce_gap_db": [float(v) for v in metrics.cce_gap_db],
        "external_regret_db": [float(v) for v in metrics.external_regret_db],
        "mainlobe_width_m": widths,
        "policies": list(metrics.policies),
    }
    return files, summary


def _worker_count(n_jobs: int) -> int:
    """Pool size: ``n_jobs`` capped by HOPSIM_THREADS, or else by the CPU count."""
    cap = os.environ.get("HOPSIM_THREADS") or str(os.cpu_count() or 1)
    if not cap.isdecimal() or int(cap) < 1:
        raise ValueError(f"HOPSIM_THREADS must be a positive integer, got {cap!r}")
    return max(1, min(n_jobs, int(cap)))


def cmd_run(config: ScenarioConfig, out_dir, seeds) -> RunManifest:
    """Run the scenario once per seed and write CSVs plus manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)

    def one(seed):
        return run_scenario(replace(config, seed=seed))

    files = {}
    summary = {}
    # Emit each seed in order as soon as its run is done, then drop its
    # metrics, which hold every step's actions.
    with ThreadPoolExecutor(max_workers=_worker_count(len(seeds))) as pool:
        for seed, metrics in zip(seeds, pool.map(one, seeds)):
            seed_files, seed_summary = _emit_seed(out, seed, metrics)
            del metrics
            files.update(seed_files)
            summary[str(seed)] = seed_summary

    manifest = RunManifest(seeds=seeds, files=files,
                           summary=summary, config=yaml.safe_load(render_config(config)))
    (out / "manifest.json").write_text(json.dumps(
        {"seeds": manifest.seeds, "files": manifest.files,
         "summary": manifest.summary, "config": manifest.config},
        indent=2, sort_keys=True) + "\n")
    for rel, digest in manifest.files.items():
        path = out / rel
        if not path.is_file() or _sha256(path) != digest:
            raise RuntimeError(f"artifact verification failed for {rel}")
    return manifest


def cmd_report(run_dirs) -> str:
    """Per-policy medians across every seed of the given run directories."""
    if not run_dirs:
        raise ValueError("at least one run directory is required")
    per_policy: dict[str, dict[str, list[float]]] = {}
    for run_dir in run_dirs:
        manifest = RunManifest.load(run_dir)
        path = Path(run_dir) / "manifest.json"
        try:
            for seed in manifest.seeds:
                s = manifest.summary[str(seed)]
                for i, policy in enumerate(s["policies"]):
                    bucket = per_policy.setdefault(policy, {
                        "interference": [], "sinr": [], "gap": [], "width": []})
                    bucket["interference"].append(s["final_interference_rate"][i])
                    bucket["sinr"].append(s["final_mean_sinr_db"][i])
                    bucket["gap"].append(s["cce_gap_db"][i])
                for policy, width in s["mainlobe_width_m"].items():
                    if policy not in s["policies"]:
                        raise ReportError(f"corrupt manifest {path}: seed {seed} has a "
                                          f"mainlobe width for unrun policy {policy!r}")
                    per_policy[policy]["width"].append(width)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ReportError(f"corrupt manifest {path}: missing or malformed "
                              f"summary entry {exc}") from exc

    lines = [f"{'policy':<10} {'intf_rate':>10} {'mean_sinr_db':>13} "
             f"{'cce_gap_db':>11} {'mainlobe_m':>11}"]
    for policy in sorted(per_policy):
        b = per_policy[policy]
        med = lambda xs: f"{np.median(xs):.4f}" if xs else "-"
        lines.append(f"{policy:<10} {med(b['interference']):>10} {med(b['sinr']):>13} "
                     f"{med(b['gap']):>11} {med(b['width']):>11}")
    return "\n".join(lines)


def _parse_seeds(text: str) -> list[int]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty seed specification")
    if len(parts) == 1 and "," not in text:
        n = int(parts[0])
        if n <= 0:
            raise ValueError("seed count must be positive")
        return list(range(n))
    seeds = [int(p) for p in parts]
    if any(seed < 0 for seed in seeds):
        raise ValueError("seeds must be non-negative")
    repeated = [seed for seed, n in Counter(seeds).items() if n > 1]
    if repeated:
        raise ValueError(f"seed {repeated[0]} is repeated")
    return seeds


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopsim",
                     description="Frequency-hopping interference avoidance simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config over seeds")
    run_p.add_argument("--config", required=True, help="scenario YAML path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seeds", default="1",
                       help="seed count N (seeds 0..N-1) or comma-separated list")

    rep_p = sub.add_parser("report", help="summarize run directories")
    rep_p.add_argument("run_dirs", nargs="+", help="directories with manifest.json")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            try:
                seeds = _parse_seeds(args.seeds)
            except ValueError as exc:
                print(f"hopsim: error: --seeds: {exc}", file=sys.stderr)
                return 1
            try:
                _worker_count(len(seeds))
            except ValueError as exc:
                print(f"hopsim: error: {exc}", file=sys.stderr)
                return 1
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError([f"{args.config}: not UTF-8 text "
                                   f"({exc.reason} at byte {exc.start})"]) from None
            config = parse_config(text)
            cmd_run(config, args.out, seeds)
            return 0
        if args.command == "report":
            print(cmd_report(args.run_dirs))
            return 0
    except (ConfigError, ScenarioError) as exc:
        print(f"hopsim: {exc}", file=sys.stderr)
        return 2
    except (ReportError, OSError, RuntimeError) as exc:
        print(f"hopsim: {exc}", file=sys.stderr)
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
