"""Command-line front end.

Subcommands: ``run`` (integrate a scenario and write artifacts),
``check-quad`` (probe the certificate inequality only), ``validate``
(schema + structural validation, no computation), ``version``.

Exit codes: 0 all requested checks passed, 2 the scenario failed
validation, 3 a check failed (certificate, proof constants, envelope, or
an explicitly thresholded sync verdict), 4 the state blew up during
integration, 5 an input or output path could not be used.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .certificates import ProofConstants, format_certificate_report
from .scenario import ScenarioError, certify, load_scenario, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3
EXIT_BLOWUP = 4
EXIT_IO = 5


def _seed(text: str) -> int:
    """A probe seed: a nonnegative integer, as ``default_rng`` accepts."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaynet",
        description="Simulate delay-coupled networks and check their "
                    "contraction certificates and growth envelopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario and write artifacts")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", help="output directory (overrides the scenario)")
    run_p.add_argument("--seed", type=_seed, default=None,
                       help="override the certificate probe seed")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress the summary printout")

    cq_p = sub.add_parser("check-quad",
                          help="probe the certificate inequality, skip integration")
    cq_p.add_argument("scenario", help="path to a scenario JSON file")
    cq_p.add_argument("--out", help="also write certificate.txt into this directory")
    cq_p.add_argument("--seed", type=_seed, default=None,
                      help="override the certificate probe seed")
    cq_p.add_argument("--quiet", action="store_true",
                      help="suppress the report printout")

    val_p = sub.add_parser("validate", help="validate a scenario file and exit")
    val_p.add_argument("scenario", help="path to a scenario JSON file")
    val_p.add_argument("--quiet", action="store_true",
                       help="print nothing on success")

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return EXIT_OK

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as err:
        for line in err.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"error: cannot read {args.scenario}: {err}", file=sys.stderr)
        return EXIT_IO

    if args.command == "validate":
        if not args.quiet:
            print(f"{args.scenario}: valid scenario ({scenario.name})")
        return EXIT_OK
    if args.command == "check-quad":
        return _cmd_check_quad(scenario, args)
    return _cmd_run(scenario, args)


def _cmd_run(scenario, args) -> int:
    try:
        summary, code = run_scenario(scenario, out_dir=args.out, seed=args.seed)
    except OSError as err:
        print(f"error: cannot write artifacts: {err}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet:
        print(json.dumps(summary, indent=2))
    if code != EXIT_OK:
        reason = ("blow-up at t={:.6g}".format(summary["blowup"]["time"])
                  if summary["blowup"] else
                  "failed checks: " + ", ".join(summary["failures"]))
        print(f"run '{summary['name']}': {reason}", file=sys.stderr)
    return code


def _cmd_check_quad(scenario, args) -> int:
    if scenario.certificate is None:
        print("error: certificate: the scenario has no certificate section",
              file=sys.stderr)
        return EXIT_VALIDATION
    result, constants, _ = certify(scenario, args.seed)
    report = format_certificate_report(result, scenario.certificate, constants)
    if args.out:
        try:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "certificate.txt").write_text(report + "\n", encoding="utf-8")
        except OSError as err:
            print(f"error: cannot write artifacts: {err}", file=sys.stderr)
            return EXIT_IO
    if not args.quiet:
        print(report)
    ok = result.passed and isinstance(constants, ProofConstants)
    return EXIT_OK if ok else EXIT_CHECK_FAILED
