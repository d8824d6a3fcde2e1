"""Acceptance suite: twelve criteria, one pass/fail line each.

Each criterion prints exactly one line "[PASS|FAIL] criterion N: ..." and
then asserts, so the verdicts survive in captured output and the pytest
report.  Tolerances are stated inline next to each check.
"""

from fractions import Fraction
from mpmath import mp

import betheq.bethe as bethe
import betheq.ed as ed
from betheq.asmcounts import asm_count, asm_ht, asm_v, n8
from betheq.conjectures import (
    verify_component_sums,
    verify_periodic_product,
    verify_reflecting_product,
    verify_twisted_product,
)
from betheq.detlab import det_exact
from betheq.exact import QINV, Cyclo
from betheq.qfunctions import (
    Boundary,
    check_recursion_periodic,
    elem_for,
    elem_periodic,
    elem_twisted,
    hyp_failures,
)
from betheq.symfunc import Partition, schur_nk
from oracles import (
    CondensationSingularError,
    asm_enumerate,
    check_special_values,
    complete_table,
    elem_brute,
    lambda_det_asm_sum,
    lambda_det_dodgson,
    schur_jt,
    schur_tableaux,
    schur_vandermonde,
    to_z,
)


def verdict(num: int, desc: str, ok: bool):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    print(line)
    assert ok, line


def test_criterion_01_exact_evalues():
    ok = (
        elem_periodic(2).evalues == (1, Fraction(11, 5), 1)
        and elem_twisted(1).evalues == (1, Fraction(1, 2))
    )
    verdict(1, "exact e-values: periodic n=2 -> (1, 11/5, 1); twisted n=1 -> (1, 1/2)", ok)


def test_criterion_02_recursion():
    ok = all(check_recursion_periodic(n) for n in range(1, 21))
    verdict(2, "three-term Q recursion holds as exact polynomial identity for n=1..20", ok)


def test_criterion_03_special_values():
    ok = all(check_special_values(n) for n in range(21))
    verdict(
        3,
        "Q_n(0) = (-1)^n, q^{2n}Q_n(1/q) product formula and the"
        " prod(1+z+z^2) corollary hold exactly for n <= 20",
        ok,
    )


def test_criterion_04_periodic_product():
    ok = True
    for n in range(1, 17):
        rep = verify_periodic_product(n)
        ok = ok and rep.equal and rep.lhs == Fraction(asm_count(n)) ** 3
    verdict(4, "periodic double product equals A_n^3 exactly for n=1..16", ok)


def test_criterion_05_twisted_product():
    ok = True
    for n in range(1, 17):
        rep = verify_twisted_product(n)
        target = Cyclo(asm_count(n) * asm_ht(2 * n - 1)) * QINV ** (n - 1)
        ok = ok and rep.equal and rep.lhs == target
    verdict(
        5,
        "twisted double product equals q^{-(n-1)} A_n A_HT(2n-1) exactly in"
        " Q(q) for n=1..16",
        ok,
    )


def test_criterion_06_reflecting_product():
    ok = True
    targets = {1: 1, 2: 144, 3: 9897316}
    for n in range(1, 6):
        rep = verify_reflecting_product(n, 256)
        ok = ok and rep.equal
        if n in targets:
            ok = ok and rep.rhs == targets[n]
        with mp.workprec(300):
            ok = ok and abs(rep.lhs - rep.rhs) <= mp.mpf(10) ** -30 * abs(rep.rhs)
    verdict(
        6,
        "reflecting double product matches A_V(2n+1)^2 N_8(2n)^4 to relative"
        " 1e-30 at 256 bits for n <= 5",
        ok,
    )


def test_criterion_07_component_sums():
    ok = True
    for n in range(1, 11):
        rep = verify_component_sums(n, 256)
        a = asm_count(n)
        with mp.workprec(300):
            ok = (
                ok
                and rep.equal
                and abs(rep.lhs[0] - a) < mp.mpf(10) ** -20
                and abs(rep.lhs[1] - a * a) < mp.mpf(10) ** -20 * a
            )
    verdict(7, "component sums equal A_n and A_n^2 to 1e-20 at 256 bits for n <= 10", ok)


def test_criterion_08_bethe_residuals():
    ok = True
    for boundary in Boundary:
        for n in range(1, 11):
            rs = bethe.solve_roots(elem_for(boundary, n), 256)
            ok = ok and rs.residual < mp.mpf(10) ** -40
    verdict(
        8,
        "Bethe equation residuals < 1e-40 at 256 bits for all three"
        " boundaries, n <= 10",
        ok,
    )


def test_criterion_09_hyp_identities():
    fails1 = hyp_failures(1, 10)
    fails2 = hyp_failures(2, 10)
    detail = ""
    if fails1 or fails2:
        detail = (
            f" [failures (n, s) under the generalized convention:"
            f" identity1={fails1} identity2(corrected)={fails2}]"
        )
    ok = not fails1 and not fails2
    verdict(
        9,
        "binomial summation identities hold exactly for n <= 10, 0 <= s <= 3n"
        " under the generalized convention (identity 2 with corrected lower"
        " index 2n-1)" + detail,
        ok,
    )


def _partitions(max_weight, max_parts):
    out = [Partition()]

    def rec(prefix, remaining, cap):
        for p in range(min(cap, remaining), 0, -1):
            new = prefix + [p]
            if len(new) <= max_parts:
                out.append(Partition(new))
                rec(new, remaining - p, p)

    for w in range(1, max_weight + 1):
        rec([], w, w)
    return sorted(set(out), key=lambda p: (p.weight, p.parts))


def test_criterion_10_symfunc_cross_identities():
    import random

    rng = random.Random(20260823)
    parts = _partitions(8, 5)
    ok = True
    trials = 0
    while trials < 50:
        n = rng.randint(3, 6)
        ws = set()
        while len(ws) < n:
            ws.add(Fraction(rng.randint(1, 60), rng.randint(1, 9)))
        ws = list(ws)
        p = parts[rng.randrange(len(parts))]
        if len(p) > n:
            continue
        trials += 1
        e = elem_brute(ws)
        h = complete_table(e, p.weight + len(p) + 1)
        nk = schur_nk(p, e)
        ok = (
            ok
            and schur_jt(p, h) == nk
            and schur_vandermonde(p, ws) == nk
            and schur_tableaux(p, ws) == nk
        )
        if not ok:
            break
    verdict(
        10,
        "Schur cross-identities (NK, JT, tableau sum, Vandermonde ratio) agree"
        " exactly: partitions of weight <= 8, <= 5 parts, 3-6 variables,"
        " 50 random trials",
        ok,
    )


def test_criterion_11_lambda_determinant():
    import random

    rng = random.Random(77)
    ok = True
    # Dodgson == ASM sum on random rational matrices, n <= 4; lambda = -1
    # reduces to the ordinary determinant
    for n in range(1, 5):
        for _ in range(5):
            m = [
                [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            try:
                ok = ok and lambda_det_dodgson(m, lam) == lambda_det_asm_sum(m, lam)
                ok = ok and lambda_det_dodgson(m, Fraction(-1)) == det_exact(m)
            except CondensationSingularError:
                continue
    # enumeration counts
    for n in range(1, 7):
        ok = ok and len(asm_enumerate(n)) == asm_count(n)
    # generalized Vandermonde product identity
    for n in range(2, 7):
        ws = [Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n)]
        lam = Fraction(2, 3)
        m = [[ws[i] ** (n - j) for j in range(1, n + 1)] for i in range(n)]
        expect = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                expect *= ws[i] + lam * ws[j]
        ok = ok and lambda_det_dodgson(m, lam) == expect
    verdict(
        11,
        "lambda-determinant: Dodgson == ASM sum (n <= 4), lambda=-1 == det,"
        " |ASM_n| == A_n (n <= 6), Vandermonde product identity (n <= 6)",
        ok,
    )


def test_criterion_12_ed_oracle():
    ok = True
    # periodic: component ratio equals A_n, energy matches, z-sum = n+1.
    # ED runs without the Bethe energy as a hint, so the Bethe state must
    # be the lowest one.
    for L in (3, 5, 7, 9, 11, 13):
        n = (L - 1) // 2
        rs = bethe.solve_roots(elem_periodic(n), 128)
        eb = complex(bethe.energy(rs))
        _, h = ed.build_hamiltonian(L, Boundary.PERIODIC)
        val, vec = ed.groundstate(h)
        obs = ed.rs_observables(vec)
        ok = ok and abs(obs["ratio"] - asm_count(n)) < 1e-8 * asm_count(n)
        ok = ok and abs(val - eb) < 1e-10
        with mp.workprec(128):
            zsum = sum(
                to_z(w, 128) + 1 / to_z(w, 128) for w in rs.roots
            )
        ok = ok and abs(complex(zsum) - (n + 1)) < 1e-10
    # twisted and reflecting energies
    for boundary in (Boundary.TWISTED, Boundary.REFLECTING):
        for L in (2, 4, 6, 8, 10, 12):
            rs = bethe.solve_roots(elem_for(boundary, L // 2), 128)
            eb = complex(bethe.energy(rs))
            _, h = ed.build_hamiltonian(L, boundary)
            val, _ = ed.groundstate(h)
            ok = ok and abs(val - eb) < 1e-10
    verdict(
        12,
        "ED oracle: periodic ratio = A_n to 1e-8 (L=3..13 odd), ground-state"
        " energies match Bethe to 1e-10 for all boundaries, periodic"
        " sum(z + 1/z) = n+1 to 1e-10",
        ok,
    )
