"""Command-line front end.

Every computation and verification is exposed as a scriptable subcommand
with deterministic output.  Exact values are serialized as strings
(rationals "p/q", cyclotomic {"a", "b"}) so the JSON round-trips
losslessly; numeric values carry their precision and tolerance.

Exit codes: 0 success / all verifications passed, 1 a verification
failed, 2 usage error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import asmcounts, bethe, conjectures, ed, qfunctions, symfunc
from .exact import rat_to_str
from .qfunctions import Boundary

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULT_PRECISION = 256


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        flat = _flatten(payload)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        sys.stdout.write(buf.getvalue())
    else:
        for key, value in _flatten(payload).items():
            print(f"{key}: {value}")


def _flatten(payload, prefix=""):
    out = {}
    if isinstance(payload, dict):
        for k, v in payload.items():
            out.update(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
        return {k.rstrip("."): v for k, v in out.items()} if not prefix else out
    if isinstance(payload, list):
        return {prefix.rstrip("."): json.dumps(payload)}
    return {prefix.rstrip("."): payload}


def _mp_str(x) -> dict:
    return {
        "re": mpmath.nstr(mp.re(x), mp.dps),
        "im": mpmath.nstr(mp.im(x), mp.dps),
    }


def _cmd_qpoly(args) -> int:
    qp = qfunctions.elem_for(Boundary(args.boundary), args.n)
    _emit({"boundary": qp.boundary.value, "n": qp.n,
           "e": [rat_to_str(e) for e in qp.evalues]}, args.format)
    return EXIT_OK


def _cmd_asm(args) -> int:
    which = args.which
    n = args.n
    if which == "count":
        value = asmcounts.asm_count(n)
    elif which == "v":
        value = asmcounts.asm_v(n)
    elif which == "n8":
        value = asmcounts.n8(n)
    else:
        value = asmcounts.asm_ht(n)
    # a bare integer on stdout regardless of format: these are single counts
    print(value)
    return EXIT_OK


def _nonconvergence_json(name: str, n: int, exc: bethe.NonConvergenceError) -> dict:
    """A report entry for an identity whose roots did not converge."""
    return {
        "conjecture": name,
        "n": n,
        "equal": False,
        "error": str(exc),
        "degree": exc.degree,
        "precision_bits": exc.precision,
        "iterations": exc.iterations,
        "correction": mpmath.nstr(exc.correction, 8),
    }


def _cmd_verify(args) -> int:
    """Run each requested report; a report whose roots do not converge
    becomes an unequal entry with the error's fields, the others still
    run, and the exit code is then EXIT_NUMERIC."""
    if args.which == "all":
        names, ns = list(conjectures.VERIFIERS), range(1, args.max_n + 1)
    else:
        names, ns = [args.which], [args.n]
    entries = []
    all_ok = True
    numeric_error = False
    for name in names:
        for n in ns:
            try:
                entry = conjectures.VERIFIERS[name](n, args.precision).to_json()
            except bethe.NonConvergenceError as exc:
                print(f"error: {name} n={n}: {exc}", file=sys.stderr)
                entry = _nonconvergence_json(name, n, exc)
                numeric_error = True
            entries.append(entry)
            all_ok = all_ok and entry["equal"]
    if len(entries) == 1:
        _emit(entries[0], args.format)
    else:
        _emit({"reports": entries, "equal": all_ok}, args.format)
    if numeric_error:
        return EXIT_NUMERIC
    return EXIT_OK if all_ok else EXIT_FAIL


def _cmd_roots(args) -> int:
    qp = qfunctions.elem_for(Boundary(args.boundary), args.n)
    rs = bethe.solve_roots(qp, args.precision)
    with mp.workprec(args.precision):
        payload = {
            "boundary": rs.boundary.value,
            "n": rs.n,
            "L": rs.L,
            "precision_bits": rs.precision,
            "roots": [dict(_mp_str(w), precision=rs.precision) for w in rs.roots],
            "residual": mpmath.nstr(rs.residual, 8),
            "iterations": rs.iterations,
            "reconstruction_error": mpmath.nstr(rs.reconstruction_error, 8),
        }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_diag(args) -> int:
    boundary = Boundary(args.boundary)
    basis, h = ed.build_hamiltonian(args.L, boundary)
    val, vec = ed.groundstate(h)
    obs = ed.rs_observables(vec)
    _emit({
        "boundary": boundary.value,
        "L": args.L,
        "sector": basis.n,
        "dim": len(basis),
        "energy": {"re": repr(float(val.real)), "im": repr(float(val.imag))},
        "ratio": repr(float(obs["ratio"])),
        "sum": {"re": repr(float(obs["sum"].real)),
                "im": repr(float(obs["sum"].imag))},
    }, args.format)
    return EXIT_OK


def _cmd_schur(args) -> int:
    parts = [int(p) for p in args.partition.split(",") if p.strip()]
    evals = [Fraction(s) for s in args.evalues.split(",") if s.strip()]
    if not evals or evals[0] != 1:
        raise ValueError("e-values must start with e_0 = 1")
    nvars = args.nvars if args.nvars is not None else len(evals) - 1
    if len(evals) < nvars + 1:
        raise ValueError(f"--nvars {nvars} needs e_0..e_{nvars}, got {len(evals)} e-values")
    table = symfunc.SymTable(evals, nvars)
    value = symfunc.schur_nk(symfunc.Partition(parts), table)
    _emit({"partition": parts, "schur": rat_to_str(value)}, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betheq",
        description="Exact Bethe-root identities for the XXZ chain at Delta = -1/2",
    )
    parser.add_argument("--format", choices=["json", "csv", "pretty"],
                        default="json", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qpoly", help="exact e-values of a groundstate Q-polynomial")
    p.add_argument("--boundary", required=True,
                   choices=[b.value for b in Boundary])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("asm", help="alternating-sign-matrix symmetry class counts")
    p.add_argument("which", choices=["count", "v", "n8", "ht"])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="verify one identity (or the whole suite)")
    p.add_argument("which", choices=[*conjectures.VERIFIERS, "all"])
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    p = sub.add_parser("roots", help="certified high-precision Bethe roots")
    p.add_argument("--boundary", required=True,
                   choices=[b.value for b in Boundary])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    p = sub.add_parser("diag", help="exact-diagonalization groundstate observables")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--boundary", required=True,
                   choices=[b.value for b in Boundary])

    p = sub.add_parser("schur", help="Schur value from supplied e-values")
    p.add_argument("--partition", required=True,
                   help="comma-separated non-increasing parts")
    p.add_argument("--evalues", required=True,
                   help="comma-separated rationals e_0,e_1,...")
    p.add_argument("--nvars", type=int, default=None)

    return parser


# built once per process: building takes about a millisecond, more than
# many of the commands it parses
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "verify" and args.which != "all" and args.n is None:
        print("error: verify requires --n (or use 'verify all --max-n K')",
              file=sys.stderr)
        return EXIT_USAGE
    if args.command == "verify":
        flag, value = ("--max-n", args.max_n) if args.which == "all" else ("--n", args.n)
        if value < 1:
            print(f"error: verify needs {flag} >= 1, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        # looked up at call time, so a patched or traced _cmd_* still runs
        return globals()["_cmd_" + args.command](args)
    except (bethe.NonConvergenceError, ed.ArnoldiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
