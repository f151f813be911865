"""Average capacity and rank adaptation across every beamforming family.

The head-to-head: eigen-optimized beams (unconstrained, and projected onto
the plane / shallow-dish / hemisphere surfaces) against the DFT-codebook
baselines (full array with power and determinant greedy, and the best
sub-array partition), swept over the user antenna count.

Transmit SNR is calibrated so the single-dipole-to-single-dipole link sits
at a fixed mean SNR (default -12 dB), and capacity uses an equal power
split over M streams with M chosen by rank adaptation per family.  Two
structural facts shape the table:

* nothing on the eigenbeam side depends on N_UE (the user end is a mode
  sphere, not an element grid), so those rows are constant across the
  sweep;
* the conventional element correlation scales linearly with N_UE, which
  lifts capacity and pushes the determinant-greedy M_opt upward.

Runs scenarios/paper_baseline.yaml through the scenario runner and writes
its artifact tree to demos/out/capacity_rank_adaptation/.
"""

import argparse
import json
import time
from pathlib import Path

import yaml

from obpb import scenario

HERE = Path(__file__).resolve().parent
OUT = HERE / "out" / "capacity_rank_adaptation"
SCENARIO = HERE.parent / "scenarios" / "paper_baseline.yaml"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--siso-snr-db", type=float, default=-12.0)
    ap.add_argument("--m-max", type=int, default=12,
                    help="deepest stream count tried by rank adaptation")
    args = ap.parse_args()

    tree = yaml.safe_load(SCENARIO.read_text())
    tree["snr_db_siso"] = args.siso_snr_db
    tree["obpb"]["m_max"] = args.m_max
    tree["output_dir"] = str(OUT)
    scn = scenario.Scenario(tree, source=str(SCENARIO))

    t0 = time.perf_counter()
    outcome = scenario.run_scenario(scn)
    cal = json.loads(outcome.manifest_path.read_text())["resolved"]["capacity"]
    print(f"siso reference {cal['siso_reference']:.4f} -> "
          f"snr = {cal['snr']:.5f} at {args.siso_snr_db:+.1f} dB")
    print(f"scenario run in {time.perf_counter() - t0:.0f} s")

    sweep = scn.n_ue
    point = {(p["method"], p["n_ue"]): p for p in outcome.points}
    eig = [m["label"] for m in scn.methods if m["kind"] == "obpb"]
    conv = [m["label"] for m in scn.methods if m["kind"] != "obpb"]

    print("\naverage capacity (bit/s/Hz), rank-adapted")
    hdr = f"{'method':<26}" + "".join(f"{f'N_UE={n}':>10}" for n in sweep)
    print(hdr + "\n" + "-" * len(hdr))
    for label in eig + conv:
        tag = f" (M={point[label, sweep[0]]['m_opt']})" if label in eig else ""
        print(f"{label + tag:<26}" + "".join(
            f"{point[label, n]['capacity_bits']:>10.3f}" for n in sweep))

    print("\nM_opt details at the sweep ends:")
    for n in (sweep[0], sweep[-1]):
        print(f"  N_UE={n:>2}: " + ", ".join(
            f"{label} -> {point[label, n]['m_opt']}" for label in conv))

    best = max((point[label, sweep[0]]["capacity_bits"], label)
               for label in eig)
    print(f"\nbest eigenbeam family: {best[1]} at "
          f"{best[0]:.3f} bit/s/Hz (independent of N_UE)")
    for n in sweep:
        conv_best = max(point[label, n]["capacity_bits"] for label in conv)
        print(f"  vs best conventional at N_UE={n:>2}: "
              f"ratio {best[0] / conv_best:5.2f}")
    print("\nwrote", outcome.output_dir)
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
