"""Command-line front end.

Subcommands: ``exact`` (enumerated success report for one protocol), ``scan``
(the advantage staircase as a table, CSV, or JSON), ``oracle`` (exhaustive
classical search, or evaluation of a strategy file), ``simulate`` (seeded
Monte Carlo), and ``verify`` (closed-form versus enumeration cross-checks).

Every command returns a :class:`Report`, and one renderer turns it into the
requested format.  Output is deterministic: fields appear in a fixed order,
probabilities are rendered with 7 significant digits in text and CSV (JSON
carries full double precision), files end every line with LF, and reports
carry no timestamps.  JSON reports include a provenance block recording the
tool version, the parameters, and whether each value came from a closed form
or an enumeration.

Exit status: 0 on success, 1 on failed verification (including an internal
cross-check of enumeration against a closed form), 2 on invalid arguments or a
request too large for the available memory, 3 when the oracle search size
exceeds its budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, advantage, classical, montecarlo, quantum

OUTPUT_DIR_ENV = "RACSIM_OUTPUT_DIR"

_EXIT_VERIFY_FAILED = 1
_EXIT_BAD_ARGS = 2
_EXIT_INFEASIBLE = 3


@dataclass(frozen=True)
class Report:
    """What one command prints, before a format is chosen.

    ``parameters`` and ``sources`` (where each value came from) make up the
    JSON provenance; ``fields`` are the other JSON fields, in order, and a
    callable field is built only when JSON is rendered.  Text output shows the
    parameters or fields named by ``text_keys`` as ``key: value`` lines,
    skipping None, then the lines ``table`` returns.  ``csv`` returns the CSV
    lines of a command that has a CSV format.  ``status`` is the exit status.
    """

    command: str
    parameters: dict
    sources: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    text_keys: tuple[str, ...] = ()
    table: Callable[[], Iterable[str]] = tuple
    csv: Callable[[], Iterable[str]] | None = None
    status: int = 0


def _text(value) -> str:
    return format(value, ".7g") if isinstance(value, float) else str(value)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.environ.get(OUTPUT_DIR_ENV)
    if directory and not os.path.isabs(output):
        output = os.path.join(directory, output)
    with open(output, "w", newline="\n") as handle:
        handle.write(text)


def _render(report: Report, args: argparse.Namespace) -> None:
    """Write ``report`` in ``args.format`` to stdout or ``args.output``."""
    if args.format == "json":
        provenance = {"tool": "racsim", "version": __version__, "command": report.command,
                      "parameters": report.parameters, "values": report.sources}
        fields = {key: value() if callable(value) else value for key, value in report.fields.items()}
        text = json.dumps({"provenance": provenance, **fields}, indent=2) + "\n"
    elif args.format == "csv":
        text = "\n".join(report.csv()) + "\n"
    else:
        shown = {**report.parameters, **report.fields}
        lines = [f"{key}: {_text(shown[key])}" for key in report.text_keys if shown[key] is not None]
        text = "\n".join([*lines, *report.table()]) + "\n"
    _emit(text, args.output)


# ----------------------------------------------------------------- exact ---


def _build_spec(args: argparse.Namespace) -> tuple[quantum.ProtocolSpec, dict]:
    """The protocol named by --task/--d/--dprime/--variant, and its parameters."""
    if args.task == "full":
        spec = quantum.ProtocolSpec.full(args.d)
    elif args.dprime is None:
        raise ValueError("--dprime is required for the restricted task")
    else:
        spec = quantum.ProtocolSpec(args.d, args.dprime, quantum.GatingVariant(args.variant))
    parameters = {"task": args.task, "d": spec.d, "dprime": spec.d_prime, "variant": spec.variant.value}
    return spec, parameters


def cmd_exact(args: argparse.Namespace) -> Report:
    spec, parameters = _build_spec(args)
    report = quantum.exact_success(spec)
    per_input, d = report.per_input.tolist(), spec.d

    def cells():
        return ((x1, x2, y, per_input[x1][x2][y - 1]) for x1 in range(d) for x2 in range(d) for y in (1, 2))

    return Report(
        "exact",
        parameters,
        sources={"average": "enumerated", "worst_case": "enumerated", "per_input": "enumerated",
                 "closed_form": "formula"},
        fields={
            "average": report.average,
            "worst_case": report.worst_case,
            "closed_form": quantum.closed_form_restricted(spec.d, spec.r),
            "per_input": lambda: [list(cell) for cell in cells()],
        },
        text_keys=(*parameters, "average", "worst_case", "closed_form"),
        table=lambda: ["per-input success (x1 x2 y p):", *(f"{x1} {x2} {y} {_text(p)}" for x1, x2, y, p in cells())],
    )


# ------------------------------------------------------------------ scan ---

_SCAN_COLUMNS = ("d", "dprime", "r_max", "p_classical", "p_quantum_full", "p_quantum_restricted", "ratio")
_SCAN_TEXT_ROW = "{:>4} {:>6} {:>5} {:>11} {:>11} {:>11} {:>11}"


def cmd_scan(args: argparse.Namespace) -> Report:
    rows = [astuple(row) for row in advantage.scan(args.dmin, args.dmax)]
    return Report(
        "scan",
        {"dmin": args.dmin, "dmax": args.dmax},
        sources={
            "r_max": "strict-inequality search",
            "p_classical": "formula",
            "p_quantum_full": "formula",
            "p_quantum_restricted": f"formula, enumeration-verified for d <= {advantage.VERIFY_DMAX}",
        },
        fields={"rows": lambda: [dict(zip(_SCAN_COLUMNS, row)) for row in rows]},
        table=lambda: [
            _SCAN_TEXT_ROW.format("d", "dprime", "r_max", "classical", "full", "restricted", "ratio"),
            *(_SCAN_TEXT_ROW.format(*map(_text, row)) for row in rows),
        ],
        csv=lambda: [",".join(_SCAN_COLUMNS), *(",".join(map(_text, row)) for row in rows)],
    )


# ---------------------------------------------------------------- oracle ---


def cmd_oracle(args: argparse.Namespace) -> Report:
    if args.evaluate is not None:
        with open(args.evaluate) as handle:
            strategy = classical.strategy_from_text(handle.read())
        task = classical.ClassicalTask(strategy.n, strategy.d)
        report = classical.evaluate_strategy(task, strategy)
        return Report(
            "oracle",
            {"evaluate": args.evaluate, "n": task.n, "d": task.d},
            sources={"average": "enumerated", "worst_case": "enumerated"},
            fields={"average": report.average, "worst_case": report.worst_case,
                    "strategy": lambda: asdict(strategy)},
            text_keys=("n", "d", "average", "worst_case"),
        )

    if args.n is None or args.d is None:
        raise ValueError("oracle needs --n and --d (or --evaluate <path>)")
    task = classical.ClassicalTask(args.n, args.d)
    result = classical.optimal_classical_bruteforce(
        task, max_tuples=args.max_tuples, allow_large=args.allow_large
    )
    if args.witness_out is not None:
        _emit(classical.strategy_to_text(result.witness), args.witness_out)
    return Report(
        "oracle",
        {"n": args.n, "d": args.d, "max_tuples": args.max_tuples, "allow_large": args.allow_large},
        sources={"optimum": "exhaustive search", "closed_form": "formula"},
        fields={
            "optimum": result.optimum,
            "closed_form": classical.closed_form_classical(args.n, args.d) if args.n in (2, 3) else None,
            "strategies_examined": result.strategies_examined,
            "witness": lambda: asdict(result.witness),
        },
        text_keys=("n", "d", "optimum", "strategies_examined", "closed_form"),
        table=lambda: ["witness:", *classical.strategy_to_text(result.witness).splitlines()],
    )


# -------------------------------------------------------------- simulate ---


def cmd_simulate(args: argparse.Namespace) -> Report:
    config = montecarlo.TrialConfig(trials=args.trials, seed=args.seed)
    if args.strategy is not None:
        with open(args.strategy) as handle:
            protocol = classical.strategy_from_text(handle.read())
        parameters = {"strategy": args.strategy, "n": protocol.n, "d": protocol.d}
    elif args.d is None:
        raise ValueError("--d is required unless --strategy is given")
    elif args.task == "majority":
        if args.n is None:
            raise ValueError("--n is required for the majority task")
        protocol = classical.majority_identity_strategy(classical.ClassicalTask(args.n, args.d))
        parameters = {"task": "majority", "n": args.n, "d": args.d}
    else:
        protocol, parameters = _build_spec(args)
    estimate = montecarlo.simulate(protocol, config)
    return Report(
        "simulate",
        {**parameters, "trials": args.trials, "seed": args.seed},
        sources={"mean": f"sampled, stream version {montecarlo.STREAM_VERSION}",
                 "stderr": "binomial formula"},
        fields={"mean": estimate.mean, "stderr": estimate.stderr, "trials": estimate.trials},
        text_keys=("trials", "seed", "mean", "stderr"),
    )


# ---------------------------------------------------------------- verify ---


def _verify_checks() -> list[tuple[str, bool, str]]:
    tol = 1e-12
    checks: list[tuple[str, bool, str]] = []

    def error(spec: quantum.ProtocolSpec, closed_form: float) -> float:
        return abs(quantum.exact_success(spec).average - closed_form)

    worst = max(error(quantum.ProtocolSpec.full(d), quantum.closed_form_full(d)) for d in range(2, 33))
    checks.append(("full protocol vs closed form, d=2..32", worst <= tol, f"max err {worst:.2e}"))

    worst = max(
        error(quantum.ProtocolSpec(d, d - r), quantum.closed_form_restricted(d, r))
        for d in range(2, 33)
        for r in range(1, d - 1)
    )
    checks.append(
        ("restricted protocol vs closed form, d=2..32, 1<=r<d-1", worst <= tol, f"max err {worst:.2e}")
    )

    def majority_error(n: int, d: int) -> float:
        # The majority-identity table scored from arrays, as evaluate_strategy scores it.
        x = classical.all_inputs(n, d)
        hits = classical._hits(x, classical._majority_messages(x), np.tile(np.arange(d), (n, 1)))
        return abs(np.count_nonzero(hits) / hits.size - classical.closed_form_classical(n, d))

    worst = max(majority_error(n, d) for n in (2, 3) for d in range(2, 65))
    checks.append(
        ("majority-identity vs classical closed forms, n=2,3, d=2..64", worst <= tol, f"max err {worst:.2e}")
    )

    detail = []
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        res = classical.optimal_classical_bruteforce(classical.ClassicalTask(n, d))
        target = classical.closed_form_classical(n, d)
        if abs(res.optimum - target) > tol:
            detail.append(f"({n},{d}) {res.optimum}!={target}")
    checks.append(("oracle optimum vs classical closed forms", not detail,
                   "; ".join(detail) or "all sizes agree"))

    expected_bands = {**{d: 0 for d in range(2, 6)}, **{d: 1 for d in range(6, 12)},
                      **{d: 2 for d in range(12, 20)}, **{d: 3 for d in range(20, 30)},
                      **{d: 4 for d in range(30, 42)}, **{d: 5 for d in range(42, 51)}}
    rows = advantage.scan(2, 50)
    bad = [row.d for row in rows if expected_bands[row.d] != row.r_max]
    checks.append(("staircase bands, d=2..50", not bad, f"mismatches at {bad}" if bad else "bands match"))

    ties = [(5, 1), (11, 2)]
    ties_ok = all(advantage.restricted_exact_value(d, r) == Fraction(d + 1, 2 * d) for d, r in ties)
    checks.append(("boundary ties are exact rational equalities", ties_ok, "(5,1) and (11,2)"))

    arg = advantage.ratio_argmax(2, 1000)
    checks.append(("full/classical ratio maximized at d=6", arg == 6, f"argmax {arg}"))

    literal = quantum.exact_success(
        quantum.ProtocolSpec(6, 5, quantum.GatingVariant.BOTH_OR_NOTHING)
    ).average
    analytic = (13.5 + 12.5 / math.sqrt(5)) / 36.0
    ordered = literal < classical.closed_form_classical(2, 6) < quantum.closed_form_restricted(6, 1)
    checks.append(
        (
            "literal gating regression at d=6, r=1",
            abs(literal - analytic) <= tol and ordered,
            f"value {literal:.10f}",
        )
    )
    return checks


def cmd_verify(args: argparse.Namespace) -> Report:
    checks = _verify_checks()
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]" for name, ok, detail in checks]
    failed = sum(1 for _, ok, _ in checks if not ok)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return Report("verify", {}, table=lambda: lines, status=_EXIT_VERIFY_FAILED if failed else 0)


# ------------------------------------------------------------------ main ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racsim",
        description="Exact simulator and verification toolkit for d-level random access codes",
    )
    parser.add_argument("--version", action="version", version=f"racsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument(
            "--output",
            help=f"write the report to this path instead of stdout; relative paths "
            f"resolve under ${OUTPUT_DIR_ENV} when it is set",
        )

    def add_task(p: argparse.ArgumentParser, tasks: tuple[str, ...], d_required: bool = True) -> None:
        p.add_argument("--task", choices=tasks, default=tasks[0])
        p.add_argument("--d", type=int, required=d_required, help="alphabet size")
        p.add_argument("--dprime", type=int, help="quantum dimension (restricted task)")
        p.add_argument(
            "--variant",
            choices=[v.value for v in quantum.GatingVariant],
            default=quantum.GatingVariant.INDEPENDENT.value,
            help="gating rule for the restricted task",
        )

    p = sub.add_parser("exact", help="enumerate a protocol and print its success report")
    add_task(p, ("full", "restricted"))
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("scan", help="tabulate the dimensional-advantage staircase")
    p.add_argument("--dmin", type=int, default=2)
    p.add_argument("--dmax", type=int, default=50)
    add_common(p, ("text", "csv", "json"))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle", help="exhaustive classical search, or evaluate a strategy file")
    p.add_argument("--n", type=int, help="string length")
    p.add_argument("--d", type=int, help="alphabet size")
    p.add_argument(
        "--max-tuples",
        type=int,
        default=classical.DEFAULT_TUPLE_BUDGET,
        help="column-multiset budget for the search",
    )
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="run sizes over the budget anyway; only canonical multisets are scored, "
        "so (2,7), (3,5) and (4,4) take under a second",
    )
    p.add_argument("--evaluate", metavar="PATH", help="evaluate a strategy table file instead")
    p.add_argument(
        "--witness-out", metavar="PATH", help="also write the witness as a standalone strategy table"
    )
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of a protocol's success rate")
    add_task(p, ("full", "restricted", "majority"), d_required=False)
    p.add_argument("--n", type=int, help="string length (majority task)")
    p.add_argument("--strategy", metavar="PATH", help="simulate a strategy table file")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="cross-check every closed form against enumeration")
    add_common(p, ("text",))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        _render(report, args)
    except classical.InfeasibleSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except AssertionError as exc:  # an internal cross-check disagreed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _EXIT_VERIFY_FAILED
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _EXIT_BAD_ARGS
    return report.status


if __name__ == "__main__":
    sys.exit(main())
