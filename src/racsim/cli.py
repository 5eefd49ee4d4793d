"""Command-line front end.

Subcommands: ``exact`` (enumerated success report for one protocol), ``scan``
(the advantage staircase as a table, CSV, or JSON), ``oracle`` (exhaustive
classical search, or evaluation of a strategy file), ``simulate`` (seeded
Monte Carlo), and ``verify`` (closed forms against exact counts and search).

Every command returns a :class:`Report` of values, and one renderer turns it
into the requested format.  Output is deterministic: fields appear in a fixed
order, probabilities are rendered with 7 significant digits in text and CSV
(JSON carries full double precision), files end every line with LF, and
reports carry no timestamps.  JSON reports include a provenance block
recording the tool version, the parameters, and whether each value came from
a closed form or an enumeration.  They are laid out byte for byte as
``json.dumps(report, indent=2)`` lays them out, but written a field at a time.
Every table (``exact``'s ``per_input`` and ``scan``'s ``rows``) is written from
its columns in pieces by :func:`racsim.report.text_chunks`, from one
%-template per table and format; text and CSV join the pieces of a table,
JSON those of the whole report, once.  Every other field is written by
``json.dumps`` itself.

Each command imports only the modules it calls, so a process loads no more
of racsim than its command runs.

Exit status: 0 on success, 1 on failed verification (including an internal
cross-check of enumeration against a closed form), 2 on invalid arguments or a
request too large for the available memory, 3 when the oracle search size
exceeds its budget.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from . import __version__, quantum
from .report import InfeasibleSearchError, text_chunks

OUTPUT_DIR_ENV = "RACSIM_OUTPUT_DIR"

_EXIT_VERIFY_FAILED = 1
_EXIT_BAD_ARGS = 2
_EXIT_INFEASIBLE = 3


@dataclass(frozen=True)
class Report:
    """What one command prints, before a format is chosen.

    ``parameters`` and ``sources`` (where each value came from) make up the
    JSON provenance; ``fields`` are the other JSON fields, in order.  A
    :class:`_Table` field is written by :func:`~racsim.report.text_chunks`,
    any other field by ``json.dumps``.  Text output shows the parameters or
    fields named by ``text_keys`` as ``key: value`` lines, skipping None, then
    the text ``table`` returns; it is called only for text, so no other
    format renders it.  A CSV report is its one :class:`_Table` field,
    headed by that table's ``keys``.  ``status`` is the exit status.
    """

    command: str
    parameters: dict
    sources: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    text_keys: tuple[str, ...] = ()
    table: Callable[[], str] = str
    status: int = 0


@dataclass(frozen=True)
class _Table:
    """A table field: ``columns`` are its columns, each a sequence of integers or
    of float64 values.  In JSON a row is a list, or an object with the members
    ``keys`` when they are given; ``keys`` also head its CSV form."""

    columns: list
    keys: tuple[str, ...] | None = None


#: How text and CSV write a float: a bound C method, which tables call once per distinct value.
_FLOAT_TEXT = "%.7g".__mod__


def _text(value) -> str:
    return _FLOAT_TEXT(value) if isinstance(value, float) else str(value)


_SLOT = "\0"  # a placeholder value: json.dumps writes it as "\u0000", which no key or number contains


def _json_field(value) -> list[str]:
    """``value`` as ``json.dumps(..., indent=2)`` writes it as a member of the top-level object, in pieces."""
    import json
    if not isinstance(value, _Table):
        # JSON strings escape every newline, so each raw one starts a line one level deeper.
        return [json.dumps(value, indent=2).replace("\n", "\n  ")]
    row = dict.fromkeys(value.keys, _SLOT) if value.keys else [_SLOT] * len(value.columns)
    layout = json.dumps(row, indent=2).replace("%", "%%").replace(json.dumps(_SLOT), "%s")
    # float.__repr__ is how json writes a float; text_chunks gives it Python floats only.
    body = list(text_chunks("    " + layout.replace("\n", "\n    ") + ",\n", value.columns, float.__repr__))
    body[-1] = body[-1][:-2]  # no comma after the last row
    return ["[\n", *body, "\n  ]"]


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
        import json
        provenance = {"tool": "racsim", "version": __version__, "command": report.command,
                      "parameters": report.parameters, "values": report.sources}
        parts = ["{\n  "]
        for key, value in {"provenance": provenance, **report.fields}.items():
            parts += [json.dumps(key), ": ", *_json_field(value), ",\n  "]
        parts[-1] = "\n}\n"
        text = "".join(parts)  # the one copy of every table's rows
        del parts  # so the rows' pieces are not held while the text is written
    elif args.format == "csv":
        (table,) = [value for value in report.fields.values() if isinstance(value, _Table)]
        template = ",".join(["%s"] * len(table.keys)) + "\n"
        text = "".join([",".join(table.keys) + "\n", *text_chunks(template, table.columns, _FLOAT_TEXT)])
    else:
        shown = {**report.parameters, **report.fields}
        lines = [f"{key}: {_text(shown[key])}\n" for key in report.text_keys if shown[key] is not None]
        text = "".join(lines) + report.table()
    _emit(text, args.output)


# ----------------------------------------------------------------- exact ---


def _refuse_unread_options(args: argparse.Namespace) -> None:
    """Refuse --dprime unless the task is restricted, and --n unless it is majority."""
    if args.dprime is not None and args.task != "restricted":
        raise ValueError("--dprime applies to --task restricted only")
    if getattr(args, "n", None) is not None and args.task != "majority":
        raise ValueError("--n applies to --task majority only")


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
    _refuse_unread_options(args)
    spec, parameters = _build_spec(args)
    report = quantum.exact_success(spec)
    x1, x2, y = np.indices(report.per_input.shape, dtype=np.min_scalar_type(spec.d)).reshape(3, -1)
    cells = [x1, x2, y + 1, report.per_input.ravel()]

    return Report(
        "exact",
        parameters,
        sources={"average": "enumerated", "worst_case": "enumerated", "per_input": "enumerated",
                 "closed_form": "formula"},
        fields={
            "average": report.average,
            "worst_case": report.worst_case,
            "closed_form": quantum.closed_form_restricted(spec.d, spec.r),
            "per_input": _Table(cells),
        },
        text_keys=(*parameters, "average", "worst_case", "closed_form"),
        table=lambda: "".join(["per-input success (x1 x2 y p):\n",
                               *text_chunks("%s %s %s %s\n", cells, _FLOAT_TEXT)]),
    )


# ------------------------------------------------------------------ scan ---

_SCAN_COLUMNS = ("d", "dprime", "r_max", "p_classical", "p_quantum_full", "p_quantum_restricted", "ratio")
_SCAN_TEXT_ROW = "%4s %6s %5s %11s %11s %11s %11s\n"


def cmd_scan(args: argparse.Namespace) -> Report:
    from . import advantage
    columns = advantage.scan_columns(args.dmin, args.dmax)
    return Report(
        "scan",
        {"dmin": args.dmin, "dmax": args.dmax},
        sources={
            "r_max": "closed form isqrt(4d+1), closed forms checked at band edges",
            "p_classical": "formula",
            "p_quantum_full": "formula",
            "p_quantum_restricted": f"formula, enumeration-verified for d <= {advantage.VERIFY_DMAX}",
        },
        fields={"rows": _Table(columns, _SCAN_COLUMNS)},
        table=lambda: (_SCAN_TEXT_ROW % ("d", "dprime", "r_max", "classical", "full", "restricted", "ratio")
                       + "".join(text_chunks(_SCAN_TEXT_ROW, columns, _FLOAT_TEXT))),
    )


# ---------------------------------------------------------------- oracle ---


def _strategy_fields(strategy) -> dict:
    """A strategy's fields for JSON; shallow, as ``asdict`` would copy every table entry."""
    return {f.name: getattr(strategy, f.name) for f in dataclass_fields(strategy)}


def cmd_oracle(args: argparse.Namespace) -> Report:
    from . import classical
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
                    "strategy": _strategy_fields(strategy)},
            text_keys=("n", "d", "average", "worst_case"),
        )

    if args.n is None or args.d is None:
        raise ValueError("oracle needs --n and --d (or --evaluate <path>)")
    task = classical.ClassicalTask(args.n, args.d)
    max_tuples = classical.DEFAULT_TUPLE_BUDGET if args.max_tuples is None else args.max_tuples
    result = classical.optimal_classical_bruteforce(task, max_tuples=max_tuples, allow_large=args.allow_large)
    witness_text = classical.strategy_to_text(result.witness)
    if args.witness_out is not None:
        _emit(witness_text, args.witness_out)
    return Report(
        "oracle",
        {"n": args.n, "d": args.d, "max_tuples": max_tuples, "allow_large": args.allow_large},
        sources={"optimum": "exhaustive search", "closed_form": "formula"},
        fields={
            "optimum": result.optimum,
            "closed_form": classical.closed_form_classical(args.n, args.d) if args.n in (2, 3) else None,
            "strategies_examined": result.strategies_examined,
            "witness": _strategy_fields(result.witness),
        },
        text_keys=("n", "d", "optimum", "strategies_examined", "closed_form"),
        table=lambda: "witness:\n" + witness_text,
    )


# -------------------------------------------------------------- simulate ---


def cmd_simulate(args: argparse.Namespace) -> Report:
    from . import classical, montecarlo
    _refuse_unread_options(args)
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
    from fractions import Fraction

    from . import advantage, classical
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
        task = classical.ClassicalTask(n, d)  # valued by counting dit multiplicities; no table is built
        return abs(float(classical.majority_identity_value(task)) - classical.closed_form_classical(n, d))

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
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]\n" for name, ok, detail in checks]
    failed = sum(1 for _, ok, _ in checks if not ok)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return Report("verify", {}, table=lambda: "".join(lines), status=_EXIT_VERIFY_FAILED if failed else 0)


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
    except InfeasibleSearchError as exc:
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
