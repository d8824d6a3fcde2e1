"""Command-line front end.

Every computation and verification is exposed as a scriptable subcommand
with deterministic output, and this module is the only one that turns
values into output.  Exact values print through ``str`` (rationals "p/q",
cyclotomic {"a", "b"}) so the JSON round-trips losslessly; numeric values
carry their precision and tolerance.

Exit codes: 0 success / all verifications passed, 1 a verification failed
or the output pipe closed, 2 usage error, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import asmcounts, bethe, conjectures, ed, qfunctions, symfunc
from .exact import Cyclo
from .qfunctions import Boundary

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        flat = _flatten(payload)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
    else:
        for key, value in _flatten(payload).items():
            print(f"{key}: {value}")


def _flatten(payload, prefix=""):
    out = {}
    if isinstance(payload, dict):
        for k, v in payload.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(payload, list):
        return {prefix.rstrip("."): json.dumps(payload)}
    return {prefix.rstrip("."): payload}


def _value(v, tolerance):
    """Exact values as strings (a Cyclo as {"a", "b"}); a numeric value to
    30 digits, printed as its real part alone when its imaginary part is
    rounding noise (|im v| <= tolerance |v|)."""
    if isinstance(v, (tuple, list)):
        return [_value(x, tolerance) for x in v]
    if isinstance(v, Cyclo):
        return {"a": str(v.a), "b": str(v.b)}
    if isinstance(v, mpmath.mpc) and tolerance is not None and abs(v.imag) <= tolerance * abs(v):
        v = v.real
    if isinstance(v, (mpmath.mpf, mpmath.mpc)):
        return mpmath.nstr(v, 30)
    return str(v)


def _report(r: conjectures.VerificationReport) -> dict:
    """A report entry; csv and pretty print its keys in this order."""
    return {
        "conjecture": r.conjecture,
        "n": r.n,
        "method": "exact" if r.tolerance is None else "numeric",
        "lhs": _value(r.lhs, r.tolerance),
        "rhs": _value(r.rhs, r.tolerance),
        "equal": r.equal,
        "precision_bits": r.precision_bits,
        "tolerance": None if r.tolerance is None else mpmath.nstr(r.tolerance, 8),
    }


def _cmd_qpoly(args) -> int:
    qp = qfunctions.elem_for(args.boundary, args.n)
    _emit({"boundary": qp.boundary.value, "n": qp.n,
           "e": [str(e) for e in qp.evalues]}, args.format)
    return EXIT_OK


# `betheq asm` name -> asmcounts function, looked up at call time so a
# patched or traced count runs
ASM_COUNTS = {"count": "asm_count", "v": "asm_v", "n8": "n8", "ht": "asm_ht"}


def _cmd_asm(args) -> int:
    # a bare integer on stdout regardless of format: these are single counts
    print(getattr(asmcounts, ASM_COUNTS[args.which])(args.n))
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


def _verify_usage_error(args):
    """Why the `verify` options would check nothing or fail part way, or
    None.  `verify all` takes --max-n K and a named identity --n K; the
    other flag, or neither, is an error.  Checked before any report runs,
    so a bad option prints none."""
    flag, other = ("--max-n", "--n") if args.which == "all" else ("--n", "--max-n")
    given = {"--n": args.n, "--max-n": args.max_n}
    if given[other] is not None:
        return f"verify {args.which} takes {flag} K, not {other}"
    value = given[flag]
    if value is None:
        return f"verify {args.which} requires {flag} K"
    if value < 1:
        return f"verify needs {flag} >= 1, got {value}"
    if args.precision < bethe.MIN_PRECISION:
        return f"precision must be at least {bethe.MIN_PRECISION} bits"
    return None


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
                entry = _report(conjectures.VERIFIERS[name](n, args.precision))
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
    qp = qfunctions.elem_for(args.boundary, args.n)
    rs = bethe.solve_roots(qp, args.precision)
    with mp.workprec(args.precision):
        payload = {
            "boundary": rs.boundary.value,
            "n": rs.n,
            "L": rs.L,
            "precision_bits": rs.precision,
            "roots": [{"re": mpmath.nstr(mp.re(w), mp.dps), "im": mpmath.nstr(mp.im(w), mp.dps),
                       "precision": rs.precision} for w in rs.roots],
            "residual": mpmath.nstr(rs.residual, 8),
            "iterations": rs.iterations,
            "certified_scale": rs.certified_scale,
        }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_diag(args) -> int:
    basis, h = ed.build_hamiltonian(args.L, args.boundary)
    val, vec = ed.groundstate(h)
    obs = ed.rs_observables(vec)
    _emit({
        "boundary": args.boundary,
        "L": args.L,
        "sector": basis.n,
        "dim": len(basis),
        "energy": {"re": repr(float(val.real)), "im": repr(float(val.imag))},
        "ratio": repr(float(obs["ratio"])),
        "sum": {"re": repr(float(obs["sum"].real)),
                "im": repr(float(obs["sum"].imag))},
    }, args.format)
    return EXIT_OK


def _entries(flag: str, text: str, parse, kind: str) -> list:
    """The parsed comma-separated entries of a flag's value; a bad entry
    raises ValueError naming the flag and the entry."""
    out = []
    for entry in filter(None, (s.strip() for s in text.split(","))):
        try:
            out.append(parse(entry))
        except ZeroDivisionError:
            raise ValueError(f"{flag}: {entry!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"{flag}: {entry!r} is not {kind}") from None
    return out


def _cmd_schur(args) -> int:
    parts = _entries("--partition", args.partition, int, "an integer")
    evals = _entries("--evalues", args.evalues, Fraction, "a rational")
    nvars = args.nvars if args.nvars is not None else len(evals) - 1
    table = symfunc.SymTable(evals, nvars)
    value = symfunc.schur_nk(symfunc.Partition(parts), table)
    _emit({"partition": parts, "schur": str(value)}, args.format)
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
    p.add_argument("which", choices=list(ASM_COUNTS))
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="verify one identity (or the whole suite)")
    p.add_argument("which", choices=[*conjectures.VERIFIERS, "all"])
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int)
    p.add_argument("--precision", type=int, default=bethe.DEFAULT_PRECISION)

    p = sub.add_parser("roots", help="certified high-precision Bethe roots")
    p.add_argument("--boundary", required=True,
                   choices=[b.value for b in Boundary])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", type=int, default=bethe.DEFAULT_PRECISION)

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
    problem = args.command == "verify" and _verify_usage_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    # exact values print in full: A_n^3 has more than the default 4300
    # digits from n = 113 on
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # looked up at call time, so a patched or traced _cmd_* still runs
        return globals()["_cmd_" + args.command](args)
    except (bethe.NonConvergenceError, ed.ArnoldiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone (`| head`): devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()
