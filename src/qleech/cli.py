"""Command line driver.

Every subcommand performs one verification or computation and emits a single
RunResult JSON object on stdout:

    {"command": ..., "ok": ..., "payload": {...}, "elapsedMillis": ...}

All numeric payload values are decimal strings, because several of them
(tau sums, j coefficients) exceed 64 bits and number-typed JSON consumers
corrupt them.  elapsedMillis is the only field allowed to differ between
otherwise identical runs.

Exit codes: 0 when every asserted identity held and the arguments were
valid, 1 when a verification failed or anything raised past argument
checking (an internal failure), 2 on usage errors and nothing else.  No
environment variables are consulted; configuration is flags only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import modforms
from .lattices import MAX_JOBS, short_vectors, theta_check_e8, theta_check_leech
from .lorentz import leech_gram
from .observations import cannonball, check_congruence

ORDER_CEILING = 5000
# the search is linear in --max-n: about 3 s at the ceiling
MAX_N_CEILING = 10**7
EXPECTED_RESIDUE = 42

# observation ids: jm sums squared j coefficients, yhh squared tau values
_OBSERVATIONS = {"jm": "j", "yhh": "delta"}


class UsageError(ValueError):
    """Invalid command line arguments (exit code 2)."""


def _stringify(value):
    """Recursively render payload numerics as decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} in a payload")


# -- subcommand implementations: each returns (ok, payload) -------------------


def _cmd_coeffs(args) -> tuple[bool, dict]:
    if args.order > ORDER_CEILING and not args.unsafe_order:
        raise UsageError(
            f"order {args.order} exceeds the ceiling {ORDER_CEILING};"
            " pass --unsafe-order to proceed"
        )
    least = modforms.min_order(args.series)
    if args.order < least:
        raise UsageError(f"series {args.series!r} needs --order >= {least}")
    table = modforms.coefficient_table(args.series, args.order)
    payload = {
        "series": table.name,
        "valuation": table.valuation,
        "order": table.order,
        "coefficients": {str(m): c for m, c in sorted(table.entries.items())},
    }
    return True, payload


def _cmd_verify(args) -> tuple[bool, dict]:
    names = list(_OBSERVATIONS) if args.observation == "both" else [args.observation]
    entries = []
    for name in names:
        report = check_congruence(_OBSERVATIONS[name], 1, 24, 70)
        entries.append(
            {
                "name": name,
                "sequence": report.sequence,
                "lo": report.lo,
                "hi": report.hi,
                "modulus": report.modulus,
                "sumOfSquares": report.sum_of_squares,
                "residue": report.residue,
                "expectedResidue": EXPECTED_RESIDUE,
                "holds": report.residue == EXPECTED_RESIDUE,
            }
        )
    return all(e["holds"] for e in entries), {"observations": entries}


def _cmd_cannonball(args) -> tuple[bool, dict]:
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if args.max_n > MAX_N_CEILING:
        raise UsageError(f"--max-n {args.max_n} exceeds the ceiling {MAX_N_CEILING}")
    solutions = cannonball(args.max_n)
    payload = {
        "maxN": args.max_n,
        "solutions": [
            {"n": s.n, "m": s.m, "trivial": s.trivial} for s in solutions
        ],
    }
    return True, payload


def _cmd_leech(args) -> tuple[bool, dict]:
    if args.check == "gram":
        gram = leech_gram()
        det = gram.determinant()
        even = gram.is_even
        positive = gram.is_positive_definite
        payload = {
            "gram": gram.to_jsonable(),
            "determinant": det,
            "even": even,
            "positiveDefinite": positive,
        }
        return det == 1 and even and positive, payload
    if args.check == "min":
        found = short_vectors(leech_gram(), 2, jobs=args.jobs)
        ok = found.counts[1] == 0 and found.counts[2] == 0
        payload = {
            "maxNorm": found.max_norm,
            "counts": {str(m): c for m, c in sorted(found.counts.items())},
            "normTwoCount": found.counts[2],
        }
        return ok, payload
    check = theta_check_leech(args.max_norm, jobs=args.jobs)
    a, b = check.combination
    payload = {
        "maxNorm": check.max_norm,
        "combination": {"e4CubedWeight": a, "deltaWeight": b},
        "counts": {str(m): c for m, c in sorted(check.counts.counts.items())},
        "comparisons": [
            {
                "norm": r.norm,
                "enumerated": r.enumerated,
                "seriesCoefficient": r.series_coefficient,
                "matches": r.matches,
            }
            for r in check.rows
        ],
    }
    return check.ok, payload


def _cmd_e8(args) -> tuple[bool, dict]:
    if args.max_norm % 2 or not 2 <= args.max_norm <= 8:
        raise UsageError("--max-norm must be even and between 2 and 8")
    check = theta_check_e8(args.max_norm, jobs=args.jobs)
    payload = {
        "maxNorm": check.max_norm,
        "countsByNorm": {str(m): c for m, c in sorted(check.counts.counts.items())},
        "comparisons": [
            {
                "norm": r.norm,
                "enumerated": r.enumerated,
                "seriesCoefficient": r.series_coefficient,
                "matches": r.matches,
            }
            for r in check.rows
        ],
    }
    return check.ok, payload


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "cannonball": _cmd_cannonball,
    "leech": _cmd_leech,
    "e8": _cmd_e8,
}


# -- rendering ----------------------------------------------------------------


def _render_csv(payload: dict) -> str:
    lines = [f"{m},{c}" for m, c in payload["coefficients"].items()]
    return "\n".join(lines) + "\n"


def _render_text(payload: dict) -> str:
    lines = [
        f"{payload['series']} expansion, exponents {payload['valuation']}"
        f" to {int(payload['order']) - 1}"
    ]
    for m, c in payload["coefficients"].items():
        lines.append(f"  q^{m}: {c}")
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, body: str) -> None:
    """Write body to path through a temporary file beside it, so that path
    holds either its old contents or all of body; the temporary file is
    removed if anything fails after it was created."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _render(args, result: dict) -> tuple[str, str]:
    """(stdout body, --out body) for the chosen format."""
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        return (
            json.dumps(result, indent=2) + "\n",
            json.dumps(result["payload"], indent=2) + "\n",
        )
    if fmt == "csv":
        body = _render_csv(result["payload"])
    else:
        body = _render_text(result["payload"])
    return body, body


# -- argument parsing and entry point -----------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qleech",
        description=(
            "Exact q-expansions, congruence checks, and Leech lattice"
            " certification with integer arithmetic throughout."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", metavar="FILE", help="also write the payload to FILE")

    def add_jobs(p):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help=f"parallel enumeration workers, at most {MAX_JOBS} (output bytes unchanged)",
        )

    p = sub.add_parser("coeffs", help="expand a named q-series")
    p.add_argument("--series", required=True, choices=modforms.series_names())
    p.add_argument("--order", required=True, type=int, help="truncation order")
    p.add_argument("--format", default="json", choices=("json", "csv", "text"))
    p.add_argument(
        "--unsafe-order",
        action="store_true",
        help=f"allow orders beyond the default ceiling of {ORDER_CEILING}",
    )
    add_out(p)

    p = sub.add_parser("verify", help="check the mod-70 coefficient observations")
    p.add_argument(
        "--observation",
        default="both",
        choices=("jm", "yhh", "both"),
        help="jm: squared j coefficients; yhh: squared tau values",
    )
    add_out(p)

    p = sub.add_parser("cannonball", help="search square pyramid numbers that are squares")
    p.add_argument("--max-n", required=True, type=int, help="inclusive search bound")
    add_out(p)

    p = sub.add_parser("leech", help="certify the quotient-construction Leech lattice")
    p.add_argument("check", choices=("gram", "min", "kissing"))
    p.add_argument(
        "--max-norm",
        type=int,
        default=4,
        choices=(2, 4, 6),
        help="norm bound for the kissing check (6 takes minutes)",
    )
    add_jobs(p)
    add_out(p)

    p = sub.add_parser("e8", help="compare E8 vector counts with 240 sigma_3(n)")
    p.add_argument("--max-norm", type=int, default=4, help="even norm bound, at most 8")
    add_jobs(p)
    add_out(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    handler = _HANDLERS[args.command]
    start = time.perf_counter()
    try:
        if not 1 <= getattr(args, "jobs", 1) <= MAX_JOBS:
            raise UsageError(f"--jobs must be between 1 and {MAX_JOBS}")
        ok, payload = handler(args)
    except UsageError as exc:
        print(f"qleech: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"qleech: internal failure: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    result = {
        "command": args.command,
        "ok": ok,
        "payload": _stringify(payload),
        "elapsedMillis": elapsed_ms,
    }
    stdout_body, out_body = _render(args, result)
    if args.out:
        try:
            _write_atomic(args.out, out_body)
        except OSError as exc:
            print(f"qleech: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(stdout_body)
    return 0 if ok else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
