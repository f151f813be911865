"""Command line front end: run, compare and validate scenarios.

Exit codes: 0 success, 1 configuration or input error, 2 scenario ran but at
least one optimizer point did not converge (artifacts are still written).
`validate` checks everything that reads neither a transfer matrix nor the
nodal density, the artifact steps (each must divide 180 deg), the theta
nodes' resolution of the profile and the SNR calibration included.  So
three errors only `run` reports (exit 1).  Two come before anything is
written: an ``obpb.m_max`` above a surface's radiatable rank, once the
surface's transfer matrix is built, and a nodal density that overflows a
float on the grids, which only a codebook method reads.  The third is a
determinant chain that runs out of admissible beams before its stream
count: a full-array method reports it before anything is written, a
sub-array method at its point.  `compare` reads of each
manifest only its profile and each point's summary keys, and reports a file
without them, or with a key of the wrong JSON type, as ``<path>: not a run
manifest`` (exit 1).  ``compare --out``
writes through the artifacts' text writer, which makes the file's
directories.  Before it computes anything, `run` checks that
``output_dir``, or else its nearest existing ancestor, is a writable
directory (exit 1, anchored at ``output_dir``), and any file system error
that `run` or ``compare --out`` meets is reported as ``error: <path>:
<reason>`` (exit 1).
"""

import argparse
import sys

from .scenario import (ScenarioError, compare_manifests, load_scenario,
                       render_csv, run_scenario, write_text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="obpb",
        description="Beam pattern optimization scenarios: proposed "
                    "spherical-mode beams with surface projection vs. "
                    "DFT-codebook baselines.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and write "
                                       "its artifact tree")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")

    p_cmp = sub.add_parser("compare", help="align two or more run manifests "
                                           "into one comparison CSV")
    p_cmp.add_argument("manifests", nargs="+", help="manifest.json paths")
    p_cmp.add_argument("--baseline", default=None,
                       help="method label the capacity ratios divide by "
                            "(default: first method of the first manifest)")
    p_cmp.add_argument("--out", default=None,
                       help="write the CSV here instead of stdout")

    p_val = sub.add_parser("validate", help="parse and validate a scenario "
                                            "file without running it")
    p_val.add_argument("config", help="scenario YAML file")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "validate":
            scenario = load_scenario(args.config)
            print(f"{args.config}: ok ({len(scenario.methods)} methods x "
                  f"{len(scenario.n_ue)} N_UE points -> "
                  f"{scenario.resolved_output_dir()})")
            return 0
        if args.verb == "run":
            echo = (lambda msg: None) if args.quiet else \
                (lambda msg: print(msg, flush=True))
            outcome = run_scenario(load_scenario(args.config), echo=echo)
            print(f"wrote {outcome.manifest_path}")
            if outcome.exit_code == 2:
                print("warning: at least one optimizer run did not converge "
                      "(converged=false in the manifest)", file=sys.stderr)
            return outcome.exit_code
        header, rows = compare_manifests(args.manifests,
                                         baseline=args.baseline)
        text = render_csv(header, rows)
        if args.out:
            write_text(args.out, text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a write error (a full disk) names no file
        print(f"error: {exc.filename or args.verb}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
