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
import sys
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import signal as sig
from .game import JointDistribution
from .sim import (
    POLICY_PARAMS,
    RUN_FIELDS,
    LinkSpec,
    RadarSpec,
    RunMetrics,
    ScenarioConfig,
    ScenarioError,
    has_type,
    resolved_params,
    run_scenario,
    validate_config,
)

DEFAULT_ADC_HZ = 20e6
DEFAULT_ACTIVE_FRACTION = 0.8
SEED_COUNT_GUARD = 10**6  # largest --seeds count; each seed is one full run

# Accepted fields of each config section; the top level takes the sections.
FIELDS = {
    "radars": ("carrier_hz", "subband_hz", "subbands", "pri_s", "active_s", "adc_hz",
               "chirps_per_frame", "policy", "policy_params"),
    "targets": ("radar", "range_m", "velocity_mps", "snr_db"),
    "links": ("victim", "source", "inr_db"),
    "run": RUN_FIELDS,
}


class ReportError(RuntimeError):
    pass


_RESOLVER = yaml.resolver.Resolver()  # the safe loader's YAML 1.1 tag rules


def _number_text(value):
    """``value`` as a float if it is a string that YAML 1.1 reads as text
    but Python reads as a number; any other value unchanged.

    YAML 1.1 reads ``20e6`` and ``4e-1`` (exponents without a dot) as
    strings. A string that YAML 1.1 itself reads as a number, such as
    ``'0.1'``, was quoted, so it stays text.
    """
    # resolve(..., (True, False)): the tag of the text as a plain, unquoted scalar
    if isinstance(value, str) and _RESOLVER.resolve(
            yaml.ScalarNode, value, (True, False)) == _RESOLVER.DEFAULT_SCALAR_TAG:
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _get(section: dict, field: str, errors: list, context: str, cast=float,
         default=None, required=False):
    """One typed field: bool and int fields take only YAML bools and ints.

    A float field also takes an int, or a ``_number_text`` string, and
    must be finite.
    """
    if field not in section:
        if required:
            errors.append(f"{context}: missing required field {field!r}")
        return default
    value = _number_text(section[field]) if cast is float else section[field]
    if not has_type(value, cast):
        errors.append(f"{context}: field {field!r} has invalid value {section[field]!r} "
                      f"(expected {cast.__name__})")
        return default
    if cast is float and not np.isfinite(value):
        errors.append(f"{context}: field {field!r} must be finite, got {section[field]!r}")
        return default
    return cast(value)


def _unknown_fields(section: dict, accepted, context: str, errors: list):
    errors.extend(f"{context}{key}: unknown field (accepted: {', '.join(accepted)})"
                  for key in section if key not in accepted)


def _mappings(doc: dict, section: str, errors: list) -> list:
    """The section's list entries; None stands in for each non-mapping entry."""
    entries = [] if doc.get(section) is None else doc[section]
    if not isinstance(entries, list):
        errors.append(f"{section}: must be a list, got {entries!r}")
        return []
    out = []
    for idx, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            errors.append(f"{section}[{idx}]: must be a mapping, got {entry!r}")
            entry = None
        else:
            _unknown_fields(entry, FIELDS[section], f"{section}[{idx}].", errors)
        out.append(entry)
    return out


class _Loader(yaml.SafeLoader):
    """YAML's safe loader, with mappings built by ``_mapping_without_repeats``.

    Its pure-Python scanner quotes the offending line, with a caret under
    the column, in every parse error.
    """


class _FastLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """``_Loader`` on libyaml's scanner and parser where PyYAML has them.

    Its errors name the line and column but quote nothing, so a document
    it rejects is parsed again by ``_Loader`` for the message.
    """


def _mapping_without_repeats(loader: _Loader, node: yaml.MappingNode) -> dict:
    """A YAML mapping; a key repeated in it is an error naming the key and its lines."""
    lines = {}
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue  # keys a merge brings in may be overridden
        key = loader.construct_object(key_node, deep=True)
        if not isinstance(key, Hashable):
            continue  # construct_mapping rejects it
        line = key_node.start_mark.line + 1
        if key in lines:
            raise yaml.constructor.ConstructorError(
                problem=f"key {key!r} on line {line} repeats line {lines[key]}")
        lines[key] = line
    return loader.construct_mapping(node, deep=True)


for _loader in (_Loader, _FastLoader):
    _loader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
                            _mapping_without_repeats)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document, collecting every violation at once.

    Each radar's policy parameters come back resolved, defaults filled in.
    """
    try:
        doc = yaml.load(text, Loader=_FastLoader)
    except yaml.YAMLError:
        try:
            doc = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ScenarioError([f"YAML parse error: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(["document must be a mapping with sections radars/targets/links/run"])

    errors: list[str] = []
    radar_docs = _mappings(doc, "radars", errors)
    if not radar_docs and not errors:  # a non-list is reported already
        errors.append("radars: must be a non-empty list")
    _unknown_fields(doc, FIELDS, "", errors)
    run = {} if doc.get("run") is None else doc["run"]
    if not isinstance(run, dict):
        errors.append(f"run: must be a mapping, got {run!r}")
        run = {}
    _unknown_fields(run, FIELDS["run"], "run.", errors)

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
        chirp_fields = dict(
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
        if any(v is None for v in chirp_fields.values()):
            continue
        try:
            chirp = sig.ChirpParams(**chirp_fields)
        except ValueError as exc:
            errors.append(f"{ctx}: {exc}")
            continue
        policy = str(rdoc.get("policy", "uniform"))
        pparams = {} if rdoc.get("policy_params") is None else rdoc["policy_params"]
        if not isinstance(pparams, dict):
            errors.append(f"{ctx}.policy_params: must be a mapping, got {pparams!r}")
            pparams = {}
        floats = {key for key, (kind, *_) in POLICY_PARAMS.get(policy, {}).items()
                  if kind is float}
        pparams = {key: _number_text(value) if key in floats else value
                   for key, value in pparams.items()}
        radars.append(RadarSpec(chirp=chirp, policy=policy, policy_params=pparams,
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

    config_kwargs = {key: _get(run, key, errors, "run", cast=kind, default=default)
                     for key, (kind, default) in FIELDS["run"].items()}
    if errors:
        raise ScenarioError(errors)
    config = ScenarioConfig(radars=tuple(radars), links=tuple(links), **config_kwargs)
    errors = validate_config(config)
    if errors:
        raise ScenarioError(errors)
    return replace(config, radars=tuple(replace(spec, policy_params=resolved_params(spec))
                                        for spec in config.radars))


def config_document(config: ScenarioConfig) -> dict:
    """The config as a plain document, defaults included, policy parameters
    too (an unset one as None); its YAML parses back to it."""
    return {
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
                "policy_params": resolved_params(spec),
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
        "run": {key: getattr(config, key) for key in FIELDS["run"]},
    }


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
        try:  # ValueError covers bad JSON and bytes that are not UTF-8
            doc = json.loads(path.read_text(encoding="utf-8"))
            return cls(seeds=doc["seeds"], files=doc["files"],
                       summary=doc["summary"], config=doc["config"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ReportError(f"corrupt manifest {path}: {exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_lines(path: Path, header: str, lines: list[str]):
    """A CSV file: the header, then one formatted line per row."""
    path.write_text("\n".join([header, *lines]) + "\n")


def _write_joint_csv(path: Path, joint: JointDistribution):
    """``joint_dist.csv``: one row per support joint action, in the joint's C order.

    Joint actions are labelled 1-based, as ``"3"`` for one radar and
    ``"1-10-4"`` for three.
    """
    _write_lines(path, "joint_action,mass",
                 [f"{'-'.join(map(str, row))},{m!r}"
                  for row, m in zip((joint.rows + 1).tolist(), joint.mass.tolist())])


def _emit_seed(out_dir: Path, seed: int, metrics: RunMetrics) -> tuple[dict, dict]:
    """Write one seed's CSVs; return their digests and the seed's summary.

    Every value is a Python float from ``tolist``, written as its ``repr``,
    which is the ``repr`` of ``float`` of the array's float64.
    """
    seed_dir = out_dir / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)

    _write_lines(seed_dir / "strategies.csv", "episode,radar,subband,probability",
                 [f"{e},{i},{a},{p!r}"
                  for e, radars in enumerate(metrics.strategies.tolist(), 1)
                  for i, row in enumerate(radars, 1) for a, p in enumerate(row, 1)])
    _write_lines(seed_dir / "interference.csv", "episode,radar,rate,mean_sinr_db",
                 [f"{e},{i},{rate!r},{sinr!r}"
                  for e, rows in enumerate(zip(metrics.interference_rate.tolist(),
                                               metrics.mean_sinr_db.tolist()), 1)
                  for i, (rate, sinr) in enumerate(zip(*rows), 1)])
    _write_lines(seed_dir / "regret.csv", "episode,radar,cumulative_regret_db",
                 [f"{e},{i},{v!r}"
                  for e, row in enumerate(metrics.cumulative_regret_db.tolist(), 1)
                  for i, v in enumerate(row, 1)])
    _write_joint_csv(seed_dir / "joint_dist.csv", metrics.joint_distribution)

    widths = {}
    for i, policy in enumerate(metrics.policies):
        if policy in widths or i not in metrics.profiles:
            continue
        profile = metrics.profiles[i]
        _write_lines(seed_dir / f"profile_{policy}.csv", "range_m,magnitude_db",
                     [f"{r:.4f},{m!r}"
                      for r, m in zip(profile.ranges_m.tolist(), profile.mags_db.tolist())])
        widths[policy] = sig.mainlobe_width(profile)

    # The files written here only: a reused directory may hold other runs' profiles.
    names = sorted(["strategies.csv", "interference.csv", "regret.csv", "joint_dist.csv"]
                   + [f"profile_{policy}.csv" for policy in widths])
    files = {str((seed_dir / name).relative_to(out_dir)): _sha256(seed_dir / name)
             for name in names}

    summary = {
        "final_interference_rate": [float(v) for v in metrics.interference_rate[-1]],
        "final_mean_sinr_db": [float(v) for v in metrics.mean_sinr_db[-1]],
        "cce_gap_db": [float(v) for v in metrics.cce_gap_db],
        "external_regret_db": [float(v) for v in metrics.external_regret_db],
        "mainlobe_width_m": widths,
        "policies": list(metrics.policies),
    }
    return files, summary


def cmd_run(config: ScenarioConfig, out_dir, seeds) -> RunManifest:
    """Run the scenario once per seed and write CSVs plus manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)
    files = {}
    summary = {}
    # Emit each seed as soon as its run is done, then drop its metrics,
    # which hold every step's actions, before the next seed starts.
    for seed in seeds:
        seed_files, summary[str(seed)] = _emit_seed(
            out, seed, run_scenario(replace(config, seed=seed)))
        files.update(seed_files)

    manifest = RunManifest(seeds=seeds, files=files,
                           summary=summary, config=config_document(config))
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
            bad = [v for b in per_policy.values() for xs in b.values() for v in xs
                   if not has_type(v, float)]
            if bad:
                raise TypeError(f"{bad[0]!r} is not a number")
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
    """``--seeds``: a count N for seeds 0 .. N-1, or a ``seed_list``."""
    if "," in text or not text.strip():
        return seed_list(text)
    n = int(text)
    if not 0 < n <= SEED_COUNT_GUARD:
        raise ValueError(f"seed count {n} not in [1, {SEED_COUNT_GUARD}]")
    return list(range(n))


def seed_list(text: str) -> list[int]:
    """The seeds of a comma-separated list, each non-negative and listed once.
    One trailing comma is allowed; an empty entry is an error."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) > 1 and not parts[-1]:
        parts.pop()  # one trailing comma: "7," lists seed 7 alone
    if "" in parts:
        raise ValueError(f"empty entry in seed specification {text!r}")
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
                       help="seed count N (seeds 0..N-1) or comma-separated list "
                            "('N,' runs seed N alone)")

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
                text = Path(args.config).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ScenarioError([f"{args.config}: not UTF-8 text "
                                     f"({exc.reason} at byte {exc.start})"]) from None
            config = parse_config(text)
            cmd_run(config, args.out, seeds)
            return 0
        if args.command == "report":
            print(cmd_report(args.run_dirs))
            return 0
    except ScenarioError as exc:
        print(f"hopsim: {exc}", file=sys.stderr)
        return 2
    except (ReportError, OSError, RuntimeError) as exc:
        print(f"hopsim: {exc}", file=sys.stderr)
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
