#!/usr/bin/env python3
"""Reach report: the largest n each check passes within a fixed budget.

    python3 perfbench/reach.py

For conj, conj1, conj2, sums and solve_roots on each boundary, n = 1, 2, ...
runs in this process until a call raises, its check does not hold, or it
is still running after BUDGET_S seconds (a timer interrupts it).
The reach is the last n before that.  The report is informational and not
gated: ROADMAP aim 1 asks that a speed-up also extends it.  It prints one
JSON line per check and takes a few minutes.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import run

run._import_package()

import workloads  # noqa: E402
from betheq import bethe, conjectures, qfunctions  # noqa: E402

# seconds one call may take; the reported reach figures are at this budget
BUDGET_S = 10.0


class OverBudget(Exception):
    pass


def _interrupt(signum, frame):
    raise OverBudget


def _conj(n):
    report = conjectures.verify_periodic_product(n)
    return None if report.equal and report.lhs == workloads.asm_n(n) ** 3 else "unequal"


def _conj1(n):
    report = conjectures.verify_twisted_product(n)
    value = workloads.cyclo_mul((workloads.asm_n(n) * workloads.asm_ht_odd(n - 1), 0),
                                workloads.cyclo_pow(workloads.QINV, n - 1))
    return None if report.equal and (report.lhs.a, report.lhs.b) == value else "unequal"


def _conj2(n):
    report = conjectures.verify_reflecting_product(n, workloads.ROOT_PRECISION)
    return workloads.conj2_problem(workloads.Tally("reach"), report, n)


def _sums(n):
    report = conjectures.verify_component_sums(n, workloads.ROOT_PRECISION)
    return workloads.sums_problem(workloads.Tally("reach"), report, n)


def _roots(boundary):
    def check(n):
        qp = qfunctions.elem_for(boundary, n)
        return workloads.vieta_problem(qp, bethe.solve_roots(qp, workloads.ROOT_PRECISION))
    return check


CHECKS = {
    "conj": _conj,
    "conj1": _conj1,
    "conj2": _conj2,
    "sums": _sums,
    "solve_roots/periodic": _roots("periodic"),
    "solve_roots/twisted": _roots("twisted"),
    "solve_roots/reflecting": _roots("reflecting"),
}


def reach(name, check):
    n, seconds = 0, 0.0
    while True:
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        start = time.perf_counter()
        try:
            problem = check(n + 1)
        except OverBudget:
            problem = f"over the {BUDGET_S:g} s budget"
        except Exception as exc:  # the failing call ends this check's reach
            problem = f"{type(exc).__name__}: {str(exc)[:120]}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if problem:
            return {"check": name, "reach_n": n, "seconds_at_reach": seconds,
                    "stopped_at": n + 1, "reason": problem}
        n, seconds = n + 1, elapsed


def main() -> int:
    signal.signal(signal.SIGALRM, _interrupt)
    print(json.dumps({"env": run.environment(), "budget_s": BUDGET_S}), flush=True)
    for name, check in CHECKS.items():
        print(json.dumps(reach(name, check)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
