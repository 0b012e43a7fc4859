"""SHA-256 of every ``RunMetrics`` array, per benchmark workload or config and seed.

    python3 tools/metrics_digest.py [--workload NAME ...] [--config PATH ...]
                                    [--seeds 0,7,11]

Runs ``hopsim.sim.run_scenario`` in process on the configs that
``perfbench/run.py`` reads (the bundled ``table1.cfg`` as ``table1-genie``,
then ``perfbench/workloads/*.yaml``), or on the named ones: each
``--workload`` and each ``--config`` file, which is named by its path as
given. Every run has its seed replaced by each of ``--seeds``, a list as
``hopsim run --seeds`` reads one: ``7,`` is seed 7 alone, and an empty
entry, a repeated or a negative seed is a usage error (exit 2). Prints
one line per array: name, seed, field, dtype and shape, and the SHA-256
of the array's bytes in C order. The final-frame profiles are listed per
radar. A change that claims
bit-identical results shows the same lines before and after; ``diff`` the
two outputs. The configs are only read, and no artifact is written.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def workload_paths() -> dict[str, Path]:
    """Workload name -> config path, as the benchmark names them."""
    paths = {"table1-genie": SRC / "hopsim" / "data" / "table1.cfg"}
    paths |= {p.stem: p for p in sorted((ROOT / "perfbench" / "workloads").glob("*.yaml"))}
    return paths


def array_digest(values) -> str:
    a = np.ascontiguousarray(values)
    return f"{a.dtype.str} {a.shape} {hashlib.sha256(a.tobytes()).hexdigest()}"


def metrics_digests(metrics) -> dict[str, str]:
    """Field name -> digest of every array a ``RunMetrics`` holds."""
    out = {}
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        if f.name == "joint_distribution":
            out["joint_distribution.rows"] = array_digest(value.rows)
            out["joint_distribution.mass"] = array_digest(value.mass)
        elif f.name == "profiles":
            for i, profile in sorted(value.items()):
                out[f"profiles[{i}].ranges_m"] = array_digest(profile.ranges_m)
                out[f"profiles[{i}].mags_db"] = array_digest(profile.mags_db)
        elif f.name == "policies":
            out["policies"] = hashlib.sha256(repr(value).encode()).hexdigest()
        else:
            out[f.name] = array_digest(value)
    return out


def main(argv=None) -> int:
    paths = workload_paths()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(paths),
                        help="workload to run (repeatable; default: all, or none with --config)")
    parser.add_argument("--config", action="append", default=[], metavar="PATH",
                        help="scenario config file to run (repeatable)")
    parser.add_argument("--seeds", default="0,7,11",
                        help="comma-separated run seeds, as a list for hopsim run's --seeds "
                             "(default: 0,7,11)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from hopsim.cli import parse_config, seed_list
    from hopsim.sim import run_scenario

    try:
        seeds = seed_list(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    runs = {name: paths[name] for name in args.workload or ([] if args.config else sorted(paths))}
    runs |= {path: Path(path) for path in args.config}

    for name, path in runs.items():
        config = parse_config(path.read_text())
        for seed in seeds:
            digests = metrics_digests(run_scenario(dataclasses.replace(config, seed=seed)))
            for field, digest in digests.items():
                print(f"{name} seed={seed} {field} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
