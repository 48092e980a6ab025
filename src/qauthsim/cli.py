"""Command-line front end.

Subcommands: ``params`` (sizing calculator), ``run`` (scenario execution),
``verify-tables`` (exact enumeration checks), ``oracle`` (direct relay-step
state dumps).  Exit codes: 0 all checks passed, 1 a conformance check
failed, 2 usage or input error, including a file that cannot be read or
written.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from fractions import Fraction

from .harness import (
    ScenarioError,
    _json_value,
    emit_report,
    load_scenario,
    params_report,
    params_text,
    run_scenario,
    verify_tables,
)
from .qsim import BellLabel, SourceKind, swap_enumerate


_MAX_POWER_BITS = 1 << 16


def parse_number(text: str) -> Fraction:
    """Accept '0.25', '1e-6', '1/131072', '2**-17', and '2^-17' forms.

    Exponents are bounded before any power is computed: exponent times
    floor(log2 base) may not exceed 65536, so 2**-65536 and 1e-21845 are
    the smallest powers accepted.
    """
    s = text.strip().replace("^", "**")
    power = re.fullmatch(r"(\d+)\s*\*\*\s*-(\d+)", s)
    exp10 = re.search(r"[eE]([-+]?[\d_]+)$", s)
    try:
        if power:
            base, exponent = int(power[1]), int(power[2])
        else:
            base, exponent = 10, abs(int(exp10[1])) if exp10 else 0
    except ValueError:
        raise ValueError(f"cannot parse probability {text!r}") from None
    if exponent * (base.bit_length() - 1) > _MAX_POWER_BITS:
        raise ValueError(f"exponent too large in {text!r}")
    try:
        return Fraction(1, base ** exponent) if power else Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse probability {text!r}") from None


def parse_probability(text: str) -> Fraction:
    """A number in the forms :func:`parse_number` takes, in (0, 1)."""
    value = parse_number(text)
    if not 0 < value < 1:
        raise ValueError(f"probability must be in (0, 1), got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr, exit code 2.
    Subcommand parsers are made of the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qauthsim",
        description="Laboratory for a relay-mediated quantum authentication "
                    "protocol: seeded Monte Carlo scenarios, exact table "
                    "checks, and sizing math.")
    sub = parser.add_subparsers(dest="command", required=True)
    out_help = "write output to this path instead of stdout"

    p_params = sub.add_parser("params", help="slot sizing for a failure budget")
    p_params.add_argument("target",
                          help="failure budget, e.g. 2**-17, 0.5, 1e-6")
    p_params.add_argument("--p1", default=None,
                          help="single-photon probability for splitter "
                               "inflation figures")
    p_params.add_argument("--format", dest="out_format", choices=("text", "json"),
                          default="text", help="output format (default: text)")
    p_params.add_argument("--out", help=out_help)

    p_run = sub.add_parser("run", help="execute a scenario JSON document")
    p_run.add_argument("scenario", help="path to the scenario file, or -")
    p_run.add_argument("--seed", type=int, help="override the scenario master seed")
    p_run.add_argument("--trials", type=int,
                       help="override the scenario trial count")
    p_run.add_argument("--format", dest="out_format", choices=("json", "csv"),
                       help="override the scenario's outputs.format")
    p_run.add_argument("--out", help="override the scenario's outputs.path")

    p_verify = sub.add_parser("verify-tables",
                              help="exact enumeration checks of the "
                                   "pair-algebra tables")
    p_verify.add_argument("--out", help=out_help)

    p_oracle = sub.add_parser("oracle",
                              help="dump the exact relay-step distribution "
                                   "for one created pair and source")
    p_oracle.add_argument("--created", default="phi+",
                          help="created pair label: phi+ phi- psi+ psi-")
    p_oracle.add_argument("--source",
                          choices=[s.value for s in SourceKind],
                          default=SourceKind.ENTANGLED_PHI_PLUS.value,
                          help="what the relay actually emitted")
    p_oracle.add_argument("--product-bit", type=int, choices=(0, 1), default=0,
                          help="planted bit for the product source")
    p_oracle.add_argument("--format", dest="out_format", choices=("text", "json"),
                          default="text", help="output format (default: text)")
    p_oracle.add_argument("--out", help=out_help)
    return parser


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_writable(path: str) -> None:
    """Fail before a long run rather than after it.  Opening for append
    creates a missing file but truncates nothing."""
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc


def _cmd_params(args) -> int:
    try:
        target = parse_probability(args.target)
        # p1 = 1 is the ideal source; params_report checks the range
        p1 = parse_number(args.p1) if args.p1 is not None else None
        doc = params_report(target, p1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out_format == "json":
            text = _json_value(doc) + "\n"
        else:
            text = params_text(doc)
    except ValueError:  # str() refuses integers past the interpreter's digit limit
        print(f"error: --p1 {args.p1} is too small: pns_required_d has too many"
              " digits to print", file=sys.stderr)
        return 2
    _write(text, args.out)
    return 0


def _cmd_run(args) -> int:
    if args.scenario == "-":
        text = sys.stdin.read()
    else:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        spec = load_scenario(text)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.out_format is not None:
        overrides["out_format"] = args.out_format
    if args.out is not None:
        overrides["out_path"] = args.out
    if overrides:
        try:
            spec = replace(spec, **overrides)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if spec.out_path is not None:
        _check_writable(spec.out_path)
    report = run_scenario(spec)
    text_out = emit_report(report, spec.out_format, spec.out_path)
    if spec.out_path is None:
        sys.stdout.write(text_out)
    print(report.summary_text(), file=sys.stderr)
    if not report.all_pass:
        print(f"conformance FAILED: {', '.join(report.failures())}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify_tables(args) -> int:
    report = verify_tables()
    _write(report.text(), args.out)
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    try:
        created = BellLabel.from_short(args.created)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    source = SourceKind(args.source)
    table = swap_enumerate(created, source, product_bit=args.product_bit)

    if args.out_format == "json":
        doc = {
            "created": created.short(),
            "source": source.value,
            "product_bit": args.product_bit if source is SourceKind.PRODUCT else None,
            "outcomes": [
                {
                    "outcome": cell.outcome.short(),
                    "probability": str(cell.probability),
                    "residual_pair": (cell.residual_pair.short()
                                      if cell.residual_pair else None),
                    "joint": {"".join(map(str, bits)): str(prob)
                              for bits, prob in sorted(cell.joint.items())},
                }
                for cell in table.outcomes
            ],
        }
        _write(_json_value(doc) + "\n", args.out)
        return 0

    lines = [f"created={created.short()} source={source.value}"
             + (f" planted_bit={args.product_bit}"
                if source is SourceKind.PRODUCT else "")]
    for cell in table.outcomes:
        residual = cell.residual_pair.short() if cell.residual_pair else "mixed"
        lines.append(f"outcome={cell.outcome.short()}"
                     f" prob={cell.probability} residual={residual}")
        for bits, prob in sorted(cell.joint.items()):
            lines.append(f"  bits={''.join(map(str, bits))} prob={prob}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "params": _cmd_params,
    "run": _cmd_run,
    "verify-tables": _cmd_verify_tables,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 for usage errors already; normalize anything else
        return exc.code if exc.code in (0, 2) else 2
    try:
        return _COMMANDS[args.command](args)
    except (OSError, UnicodeDecodeError) as exc:  # bad scenario file or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
