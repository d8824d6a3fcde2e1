"""The benchmark's three workloads and the checks on their outputs.

A workload is a fixed list of operations built from the seed; one pass
runs them in order through `Tally.run`, which counts each operation,
records the ones that raise or whose check does not hold, and keeps the
numeric margins.  The checks use oracles of the benchmark's own: ASM
counts from their product formulas, Q(q) arithmetic on integer pairs,
digests of exact outputs recorded at the commit that added the benchmark
(`digests.json`), Vieta relations for root sets, and the dense ED oracle
against Bethe energies and wavefunctions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path

from mpmath import mp

import hostspeed
from betheq import bethe, cli, conjectures, ed, qfunctions

DIGESTS = Path(__file__).with_name("digests.json")

# Exact checks have no numeric tolerance: one that holds counts as this
# many bits of margin, one that fails as minus this many.
MARGIN_CAP_BITS = 1000.0

# ---------------------------------------------------------------- oracles


def _integer(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {x}")
    return x.numerator


def asm_n(n: int) -> int:
    """A_n = prod_{j<n} (3j+1)! / (n+j)!"""
    out = Fraction(1)
    for j in range(n):
        out *= Fraction(factorial(3 * j + 1), factorial(n + j))
    return _integer(out, f"A_{n}")


def asm_v_odd(n: int) -> int:
    """A_V(2n+1) = prod_{j<n} (3j+2) (2j+1)! (6j+3)! / ((4j+2)! (4j+3)!)"""
    out = Fraction(1)
    for j in range(n):
        out *= Fraction((3 * j + 2) * factorial(2 * j + 1) * factorial(6 * j + 3),
                        factorial(4 * j + 2) * factorial(4 * j + 3))
    return _integer(out, f"A_V({2 * n + 1})")


def n8_even(n: int) -> int:
    """N_8(2n) = prod_{0<i<n} (3i+1) (2i)! (6i)! / ((4i)! (4i+1)!)"""
    out = Fraction(1)
    for i in range(1, n):
        out *= Fraction((3 * i + 1) * factorial(2 * i) * factorial(6 * i),
                        factorial(4 * i) * factorial(4 * i + 1))
    return _integer(out, f"N_8({2 * n})")


def asm_ht_odd(n: int) -> int:
    """A_HT(2n+1) = A_n^2 prod_{0<k<=n} (3/4) ((3k-1)/(2k-1))^2"""
    out = Fraction(asm_n(n) ** 2)
    for k in range(1, n + 1):
        out *= Fraction(3, 4) * Fraction(3 * k - 1, 2 * k - 1) ** 2
    return _integer(out, f"A_HT({2 * n + 1})")


# Published prefixes (OEIS A005130, A005156, A051255, A005158 at odd
# orders), which pin the formulas above.
KNOWN_COUNTS = {
    asm_n: (0, [1, 1, 2, 7, 42, 429, 7436, 218348]),
    asm_v_odd: (0, [1, 1, 3, 26, 646, 45885, 9304650]),
    n8_even: (1, [1, 2, 11, 170, 7429, 920460]),
    asm_ht_odd: (0, [1, 3, 25, 588, 39204]),
}


def oracle_problems() -> list:
    return [f"{f.__name__}({first + i}) = {f(first + i)}, published {v}"
            for f, (first, values) in KNOWN_COUNTS.items()
            for i, v in enumerate(values) if f(first + i) != v]


def cyclo_mul(x, y):
    """(a + bq)(c + dq) in Q(q) with q^2 = q - 1."""
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c + b * d)


def cyclo_pow(x, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = cyclo_mul(out, x)
    return out


QINV = (Fraction(1), Fraction(-1))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def margin_bits(tolerance, lhs, rhs) -> float:
    """log2(tolerance |rhs| / |lhs - rhs|): bits to spare before the
    numeric check would fail (negative once it fails)."""
    diff = abs(lhs - rhs)
    if diff == 0:
        return MARGIN_CAP_BITS
    return max(-MARGIN_CAP_BITS, min(MARGIN_CAP_BITS, float(
        mp.log(tolerance * abs(rhs) / diff, 2))))


# ---------------------------------------------------------------- accounting


@dataclass
class Tally:
    workload: str
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: dict = field(default_factory=dict)
    margins: list = field(default_factory=list)
    # (start, end, native) of every operation, checks excluded, and
    # (end time, seconds) of every reference sample (see hostspeed)
    ops: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    def run(self, call, boundary, n, fn, check, native=False):
        """Run one operation; return its output, or None if it failed.
        A raise counts as a wrong result unless it is listed in
        EXPECTED_FAILURES.  `native` marks an operation whose time is
        not rescaled."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is recorded; the pass goes on
            error = type(exc).__name__
            expected = (self.workload, call, boundary, n, error) in EXPECTED_FAILURES
            self._fail(call, boundary, n, error, str(exc), expected)
            return None
        finally:
            self.ops.append((start, time.perf_counter(), native))
        problem = check(out)
        if problem:
            self._fail(call, boundary, n, "CheckFailed", problem, False)
            return None
        return out

    def seconds(self, ops) -> tuple:
        """Measured and rescaled seconds of the operations self.ops[i]
        for i in `ops`, the reference samples taken inside them left out.
        Native operations (LAPACK in ed.groundstate) hardly slow with the
        interpreted ones, so they are not rescaled."""
        measured = rescaled = 0.0
        window = hostspeed.SAMPLE_WINDOW_S
        for start, end, native in (self.ops[i] for i in ops):
            elapsed = end - start - sum(s for t, s in self.samples if start <= t <= end)
            measured += elapsed
            near = [s for t, s in self.samples if start - window <= t <= end + window]
            # an unsampled pass reads as if at the reference speed
            rescaled += elapsed if native else hostspeed.rescale(
                elapsed, near or [hostspeed.REF_S])
        return measured, rescaled

    def _fail(self, call, boundary, n, error, detail, expected):
        self.failed += 1
        self.wrong += not expected
        key = (call, boundary, n, error)
        entry = self.failures.setdefault(key, {
            "workload": self.workload, "call": call, "boundary": boundary,
            "n": n, "error": error, "expected": expected, "detail": detail[:160],
            "count": 0})
        entry["count"] += 1

    def exact_margin(self, holds: bool):
        self.margins.append(MARGIN_CAP_BITS if holds else -MARGIN_CAP_BITS)


class Digests:
    """Digests of exact outputs.  In record mode every digest is stored;
    otherwise each is compared with the recorded one."""

    def __init__(self, record: bool = False):
        self.record = record
        self.values = {} if record else json.loads(DIGESTS.read_text())

    def problem(self, key, obj):
        value = digest(obj)
        if self.record:
            self.values[key] = value
            return None
        expected = self.values.get(key)
        if expected is None:
            return f"no recorded digest for {key}"
        return None if value == expected else f"{key} digest {value} != {expected}"


def _cli(argv):
    """cli.run in-process: (exit code, parsed stdout or None, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None, err.getvalue()


def _first(*problems):
    return next((p for p in problems if p), None)


# ---------------------------------------------------------------- exact-identities

# reflecting n = 40 alone would take 2-4 s, a third of a pass
QPOLY_GRID = {
    "periodic": (10, 20, 30, 40),
    "twisted": (10, 20, 30, 40),
    "reflecting": (10, 20, 30),
}
CONJ_MAX_N = 16
RECURSION_MAX_N = 16
HYP_MAX_N = 12
SCHUR_N = 30
SCHUR_PICK = 10


def _schur_pool():
    """32 partitions with first part SCHUR_N, so every Naegelsbach-Kostka
    determinant has the same size; digests are recorded for all of them."""
    rng = random.Random(20011001)
    pool = []
    while len(pool) < 32:
        parts = tuple(sorted([SCHUR_N] + [rng.randint(1, SCHUR_N)
                                          for _ in range(rng.randint(10, SCHUR_N - 1))],
                             reverse=True))
        if parts not in pool:
            pool.append(parts)
    return pool


SCHUR_POOL = _schur_pool()


class ExactIdentities:
    """qpoly, verify conj/conj1/recursion/hyp1/hyp2 and schur through cli.run."""

    name = "exact-identities"

    def __init__(self, seed, digests: Digests | None = None):
        if seed is None:
            self.partitions = SCHUR_POOL
        else:
            picks = random.Random(seed).sample(range(len(SCHUR_POOL)), SCHUR_PICK)
            self.partitions = [SCHUR_POOL[i] for i in sorted(picks)]
        self.digests = digests or Digests()

    def setup(self):
        _cli(["qpoly", "--boundary", "periodic", "--n", "1"])

    def run_pass(self, tally: Tally):
        evalues = {}
        for boundary, ns in QPOLY_GRID.items():
            for n in ns:
                out = tally.run("qpoly", boundary, n,
                                lambda: _cli(["qpoly", "--boundary", boundary, "--n", str(n)]),
                                lambda r: self._check_qpoly(r, boundary, n))
                if out:
                    evalues[boundary, n] = out[1]["e"]
        for n in range(1, CONJ_MAX_N + 1):
            self._verify(tally, "conj", n, self._check_conj)
            self._verify(tally, "conj1", n, self._check_conj1)
        for n in range(1, RECURSION_MAX_N + 1):
            self._verify(tally, "recursion", n, lambda r, n: None)
        for which in ("hyp1", "hyp2"):
            self._verify(tally, which, HYP_MAX_N,
                         lambda r, n: None if r["lhs"] == [] else f"failures {r['lhs']}")
        for parts in self.partitions:
            tally.run("schur", "periodic", SCHUR_N,
                      lambda: self._schur(evalues, parts),
                      lambda r: self._check_schur(r, parts))

    def _check_qpoly(self, result, boundary, n):
        code, payload, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        e = payload["e"]
        return _first(len(e) != n + 1 and f"{len(e)} e-values for n={n}",
                      e[0] != "1" and f"e_0 = {e[0]}",
                      self.digests.problem(f"qpoly/{boundary}/{n}", e))

    def _verify(self, tally, which, n, check):
        def checked(result):
            code, payload, err = result
            holds = code == 0 and payload is not None and payload["equal"] is True
            tally.exact_margin(holds)
            if not holds:
                return f"exit {code}: {err.strip() or payload}"
            return check(payload, n)

        tally.run(f"verify {which}", None, n,
                  lambda: _cli(["verify", which, "--n", str(n)]), checked)

    def _check_conj(self, report, n):
        expected = Fraction(asm_n(n) ** 3)
        return _first(Fraction(report["lhs"]) != expected and f"lhs != A_{n}^3",
                      Fraction(report["rhs"]) != expected and f"rhs != A_{n}^3",
                      self.digests.problem(f"conj/{n}", report["lhs"]))

    def _check_conj1(self, report, n):
        value = cyclo_mul((Fraction(asm_n(n) * asm_ht_odd(n - 1)), Fraction(0)),
                          cyclo_pow(QINV, n - 1))

        def as_pair(d):
            return (Fraction(d["a"]), Fraction(d["b"]))

        return _first(as_pair(report["lhs"]) != value
                      and f"lhs != A_{n} A_HT({2 * n - 1}) q^-{n - 1}",
                      as_pair(report["rhs"]) != value and "rhs wrong",
                      self.digests.problem(f"conj1/{n}", report["lhs"]))

    @staticmethod
    def _schur(evalues, parts):
        e = evalues["periodic", SCHUR_N]
        return _cli(["schur", "--partition", ",".join(map(str, parts)),
                     "--evalues", ",".join(e), "--nvars", str(SCHUR_N)])

    def _check_schur(self, result, parts):
        code, payload, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        key = "schur/{}/{}".format(SCHUR_N, ".".join(map(str, parts)))
        return self.digests.problem(key, payload["schur"])


# ---------------------------------------------------------------- certified-roots

ROOT_PRECISION = 256
ROOT_GRID = {
    "periodic": (10, 20),
    "twisted": (10, 20),
    # stalls at n = 20 and 24 (NonConvergenceError after the iteration cap)
    "reflecting": (8, 16, 20, 24),
}
# The only operations allowed to raise: the reflecting stalls above.
# Any other exception makes the run's result wrong.
EXPECTED_FAILURES = {
    ("certified-roots", f"solve_roots@{ROOT_PRECISION}", "reflecting", n, "NonConvergenceError")
    for n in (20, 24)
}
HIGH_PRECISION = 4096
HIGH_PRECISION_N = 6
CONJ2_MAX_N = 10


def vieta_problem(qp, rs):
    """Sum and product of the roots against e_1 and e_n, to the relative
    tolerance solve_roots itself promises (2^(20 - precision))."""
    n = qp.n
    values = rs.wt_roots if rs.wt_roots is not None else rs.roots
    if len(values) != n or len(rs.roots) != (2 * n if rs.wt_roots is not None else n):
        return f"{len(values)} roots for degree {n}"
    with mp.workprec(rs.precision + bethe.GUARD_BITS):
        tol = n * mp.mpf(2) ** (20 - rs.precision)
        for name, got, want in (("e_1", mp.fsum(values), qp.evalues[1]),
                                (f"e_{n}", mp.fprod(values), qp.evalues[n])):
            want = mp.mpf(want.numerator) / want.denominator
            if abs(got - want) > tol * max(1, abs(want)):
                return f"Vieta {name} off by {mp.nstr(abs(got - want), 5)}"
    return None


def conj2_problem(tally, report, n):
    """The numeric reflecting product against A_V(2n+1)^2 N_8(2n)^4."""
    rhs = asm_v_odd(n) ** 2 * n8_even(n) ** 4
    with mp.workprec(report.precision_bits + bethe.GUARD_BITS):
        margin = margin_bits(report.tolerance, report.lhs, mp.mpf(rhs))
    tally.margins.append(margin)
    return _first(abs(report.rhs - rhs) > report.tolerance * rhs
                  and f"rhs {report.rhs} != {rhs}",
                  margin < 0 and f"|lhs - rhs| beyond tolerance by {-margin:.1f} bits",
                  not report.equal and "report says unequal")


class CertifiedRoots:
    """solve_roots on a degree grid per boundary, one high-precision root
    set, and the numeric reflecting product (conj2)."""

    name = "certified-roots"

    def __init__(self, seed):
        boundaries = ("periodic", "twisted", "reflecting")
        self.high_boundary = boundaries[random.Random(seed).randrange(3)]

    def setup(self):
        for precision in (ROOT_PRECISION, HIGH_PRECISION):
            bethe.solve_roots(qfunctions.elem_reflecting(1), precision)

    def run_pass(self, tally: Tally):
        cases = [(b, n, ROOT_PRECISION) for b, ns in ROOT_GRID.items() for n in ns]
        cases.append((self.high_boundary, HIGH_PRECISION_N, HIGH_PRECISION))
        for boundary, n, precision in cases:
            def solve():
                qp = qfunctions.elem_for(boundary, n)
                return qp, bethe.solve_roots(qp, precision)

            tally.run(f"solve_roots@{precision}", boundary, n, solve,
                      lambda r: vieta_problem(*r))
        for n in range(1, CONJ2_MAX_N + 1):
            tally.run("verify_reflecting_product", "reflecting", n,
                      lambda: conjectures.verify_reflecting_product(n, ROOT_PRECISION),
                      lambda r: conj2_problem(tally, r, n))


# ---------------------------------------------------------------- wavefunction-oracle

SUMS_MAX_N = 6
ED_PRECISION = 128
ED_CASES = (
    [("periodic", L) for L in range(3, 14, 2)]
    + [("twisted", L) for L in range(2, 13, 2)]
    + [("reflecting", L) for L in range(2, 13, 2)]
)
# largest n whose wavefunction components are compared with ED
WAVEFUNCTION_MAX_N = {"periodic": 6, "reflecting": 4}
POSITION_SETS = 3
ENERGY_TOL = 1e-10
COMPONENT_TOL = 1e-8


def _position_sets(rng, L, n):
    count = min(POSITION_SETS, math.comb(L, n))
    sets = []
    while len(sets) < count:
        x = tuple(sorted(rng.sample(range(1, L + 1), n)))
        if x not in sets:
            sets.append(x)
    return sets


def sums_problem(tally, report, n):
    """Both periodic component sums against A_n and A_n^2, each with its
    margin."""
    a = asm_n(n)
    problems = []
    with mp.workprec(report.precision_bits + bethe.GUARD_BITS):
        for got, want in zip(report.lhs, (a, a * a)):
            margin = margin_bits(report.tolerance, got, mp.mpf(want))
            tally.margins.append(margin)
            if margin < 0:
                problems.append(f"sum {want} missed by {-margin:.1f} bits")
    if tuple(report.rhs) != (a, a * a):
        problems.append(f"rhs {report.rhs} != ({a}, {a * a})")
    if not report.equal:
        problems.append("report says unequal")
    return "; ".join(problems) or None


class WavefunctionOracle:
    """Component sums, wavefunction components at seeded positions, and
    the ED cross-check of Bethe energies and wavefunctions up to L = 13."""

    name = "wavefunction-oracle"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.positions = {
            (b, L): _position_sets(rng, L, L // 2)
            for b, L in ED_CASES if L // 2 <= WAVEFUNCTION_MAX_N.get(b, -1)
        }

    def setup(self):
        for precision in (ED_PRECISION, ROOT_PRECISION):
            bethe.solve_roots(qfunctions.elem_periodic(1), precision)
        _, h = ed.build_hamiltonian(3, "periodic")
        ed.groundstate(h, shift_hint=-1.0)

    def run_pass(self, tally: Tally):
        for n in range(1, SUMS_MAX_N + 1):
            tally.run("verify_component_sums", "periodic", n,
                      lambda: conjectures.verify_component_sums(n, ROOT_PRECISION),
                      lambda r: sums_problem(tally, r, n))
        for boundary, L in ED_CASES:
            n = L // 2
            model = tally.run("ed.build_hamiltonian", boundary, L,
                              lambda: self._model(boundary, L), lambda r: None)
            if model is None:
                continue
            oracle = tally.run("ed.groundstate", boundary, L,
                               lambda: self._groundstate(model),
                               lambda r: self._check_ed(r, boundary, n), native=True)
            sets = self.positions.get((boundary, L))
            if oracle is None or sets is None:
                continue
            rs, _, basis, _, vec = oracle
            tally.run("wavefunction_component", boundary, n,
                      lambda: [complex(bethe.wavefunction_component(rs, x)) for x in sets],
                      lambda psi: self._check_components(psi, sets, basis, vec))

    @staticmethod
    def _model(boundary, L):
        """Bethe roots and energy, and the sector Hamiltonian."""
        rs = bethe.solve_roots(qfunctions.elem_for(boundary, L // 2), ED_PRECISION)
        energy = complex(bethe.energy(rs))
        basis, h = ed.build_hamiltonian(L, boundary)
        return rs, energy, basis, h

    @staticmethod
    def _groundstate(model):
        """The ED ground state, shifted by the Bethe energy (LAPACK)."""
        rs, energy, basis, h = model
        value, vec = ed.groundstate(h, shift_hint=energy.real)
        return rs, energy, basis, value, vec

    @staticmethod
    def _check_ed(result, boundary, n):
        _, energy, _, value, vec = result
        if abs(value - energy) >= ENERGY_TOL:
            return f"ED energy {value} vs Bethe {energy}"
        if boundary == "periodic":
            ratio = ed.rs_observables(vec)["ratio"]
            if abs(ratio - asm_n(n)) >= COMPONENT_TOL * asm_n(n):
                return f"component ratio {ratio} != A_{n}"
        return None

    @staticmethod
    def _check_components(psi, sets, basis, vec):
        """psi(x)/psi(x_0) must equal the ED vector's ratio at the same
        configurations (bit x-1 set for a down spin at site x)."""
        ed_values = [vec[basis.index[sum(1 << (x - 1) for x in xs)]] for xs in sets]
        for xs, p, v in zip(sets[1:], psi[1:], ed_values[1:]):
            want = v / ed_values[0]
            got = p / psi[0]
            if abs(got - want) > COMPONENT_TOL * max(1.0, abs(want)):
                return f"psi{xs}/psi{sets[0]} = {got:.6g}, ED {want:.6g}"
        return None


WORKLOADS = {w.name: w for w in (ExactIdentities, CertifiedRoots, WavefunctionOracle)}
