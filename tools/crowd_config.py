"""Print an N-radar crowd scenario as YAML.

    python3 tools/crowd_config.py N > crowd-N.yaml

Lays the two waveforms of the ``crowd-8`` workload alternately over N
``noregret`` radars (odd radars: 20 us PRI, 512 chirps; even radars:
40 us PRI, 256 chirps). Radar r sees one target at
15 + 5 ((r - 1) mod 8 + 1) m, every ordered pair of radars is linked at
30 dB INR, and the run section is crowd-8's. For N = 8 the output parses
to the same scenario as ``perfbench/workloads/crowd-8.yaml``.
"""
from __future__ import annotations

import sys

import yaml

PARAMS = {"c_eta": 0.4, "c_gamma": 0.1, "baseline_delta_db": 1.0}
# (PRI, active time, chirps per frame) of odd, then even radars
WAVEFORMS = ((20.0e-6, 16.0e-6, 512), (40.0e-6, 32.0e-6, 256))


def crowd_document(n: int) -> dict:
    radars = [{"carrier_hz": 77.0e9, "subband_hz": 150.0e6, "subbands": 6,
               "pri_s": pri, "active_s": active, "adc_hz": 20.0e6, "chirps_per_frame": k,
               "policy": "noregret", "policy_params": dict(PARAMS)}
              for pri, active, k in (WAVEFORMS[r % 2] for r in range(n))]
    return {
        "radars": radars,
        "targets": [{"radar": r, "range_m": 15.0 + 5.0 * ((r - 1) % 8 + 1),
                     "velocity_mps": -15.0, "snr_db": 20.0} for r in range(1, n + 1)],
        "links": [{"victim": v, "source": s, "inr_db": 30.0}
                  for v in range(1, n + 1) for s in range(1, n + 1) if s != v],
        "run": {"frames": 50, "episodes_per_frame": 1, "seed": 0, "genie_detection": True,
                "noise_power": 1.0},
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
        print("usage: crowd_config.py N  (N >= 1 radars)", file=sys.stderr)
        return 1
    sys.stdout.write(yaml.safe_dump(crowd_document(int(args[0])), sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
