"""The four benchmark workloads.

Each workload is a closed loop with one client: an operation starts when
the previous one has returned.  ``prepare`` (the set-up) makes the
inputs from the seed; ``run_round`` performs one round of operations and
returns its timings and outputs; ``check`` compares the outputs with
``refs`` (computed without the package) or with properties the method
must have.  The seed changes the evaluation points, the query mix inside
fixed strata and (outside cli-cache) the order of operations, never the
amount of work, so the cost of a round does not depend on the seed.

The package is reached through its modules at call time (``counts.f``,
not a name bound at import), so a tracer that wraps a module attribute
sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from decimal import Decimal, localcontext, Context
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import refs

FAILED = object()

# The paper's reference grid: 1..10 and the powers of two 16..8192.
OMEGA_K_GRID = tuple(range(1, 11)) + tuple(2 ** e for e in range(4, 14))
ASYMPTOTE_FROM = 1024
ORACLE_TOL = "1e-10"
DECIMAL_REF = Context(prec=45)


def _import_package():
    import buchstab  # noqa: F401
    from buchstab import cli, counts, omega, omega_k, store  # noqa: F401
    return sys.modules["buchstab"]


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> List[float]:
    """One uniform point in each of ``count`` equal strata of [lo, hi)."""
    return [lo + (hi - lo) * (j + rng.random()) / count for j in range(count)]


def _x(value: float) -> str:
    return f"{value:.9f}"


class Recorder:
    """Counts operations and failures, and times each call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def call(self, label: str, fn, *args) -> Tuple[Any, float]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that fails is counted, not fatal
            out = FAILED
            self.failed += 1
            self.failures.append(f"{label}: {exc!r}")
        return out, time.perf_counter() - start


class Round:
    def __init__(self):
        self.solve_s = 0.0
        self.warm_s: List[float] = []
        self.outputs: Dict[str, Any] = {}


class Workload:
    name = ""
    min_rounds = 1
    rss_scope = resource.RUSAGE_SELF

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")

    def prepare(self) -> None:
        """Set-up: imports and inputs, up to the first timed operation."""
        self.pkg = _import_package()

    def run_round(self, rec: Recorder) -> Round:
        raise NotImplementedError

    def trace_round(self, rec: Recorder) -> Round:
        """The round a traced run times, once untraced and once traced."""
        return self.run_round(rec)

    def check(self, rnd: Round) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# exact-counts
# ---------------------------------------------------------------------------

class ExactCounts(Workload):
    """build_table for permutations and derangements at N = 400 and a
    seeded batch of variance_series, distribution and tail_probability
    queries on the permutation table (the warm samples), half of them
    before the derangement build and half after."""

    name = "exact-counts"
    N = 400
    DISTRIBUTIONS = 140  # 1-4 ms each: they set both warm percentiles
    TAILS = 60

    def prepare(self) -> None:
        super().prepare()
        N, rng = self.N, self.rng
        lo = N // 2
        queries: List[Tuple] = [("variance_series",)]
        for x in _stratified(rng, lo, N + 1, self.DISTRIBUTIONS):
            queries.append(("distribution", int(x)))
        for x in _stratified(rng, lo, N + 1, self.TAILS):
            n = int(x)
            queries.append(("tail", n, rng.randint(1, n)))
        rng.shuffle(queries)
        self.queries = queries
        self._brute: Optional[Dict[int, List[int]]] = None

    def run_round(self, rec: Recorder) -> Round:
        counts = self.pkg.counts
        rnd = Round()
        start = time.perf_counter()
        perm, _ = rec.call("build_table permutations", counts.build_table,
                           counts.PERMUTATIONS, self.N)
        der = FAILED
        answers = []
        half = len(self.queries) // 2
        for i, q in enumerate(self.queries):
            if i == half:  # half the queries before the second build, half after
                der, _ = rec.call("build_table derangements", counts.build_table,
                                  counts.DERANGEMENTS, self.N)
            if q[0] == "variance_series":
                out, dt = rec.call("variance_series", counts.variance_series, perm)
            elif q[0] == "distribution":
                out, dt = rec.call(f"distribution {q[1]}", counts.distribution, perm, q[1])
            else:
                out, dt = rec.call(f"tail_probability {q[1]} {q[2]}",
                                   counts.tail_probability, perm, q[1], q[2])
            answers.append(out)
            rnd.warm_s.append(dt)
        rnd.solve_s = time.perf_counter() - start
        rnd.outputs = {"perm": perm, "der": der, "answers": answers}
        return rnd

    def check(self, rnd: Round) -> List[str]:
        errors: List[str] = []
        N = self.N
        perm, der = rnd.outputs["perm"], rnd.outputs["der"]
        fact = [math.factorial(n) for n in range(N + 1)]
        wanted_tails: Dict[Tuple[int, int], int] = {}
        for q in self.queries:
            if q[0] == "tail":
                wanted_tails[(q[1], q[2])] = 0
        if perm is FAILED:
            return errors
        # suffix sums of the table rows, compared with the column recurrence
        rows = [None] + [perm.row(n) for n in range(1, N + 1)]
        suffix: List[Optional[List[int]]] = [None]
        for n in range(1, N + 1):
            row = rows[n]
            if sum(row) != fact[n]:
                errors.append(f"permutation row {n} does not sum to {n}!")
            suf = [0] * (n + 2)
            for k in range(n, 0, -1):
                suf[k] = suf[k + 1] + row[k - 1]
            suffix.append(suf)
        col2 = None
        s1, s2 = [0] * (N + 1), [0] * (N + 1)   # n! E[X_n], n! E[X_n^2]
        for k, col in refs.tail_columns(N):
            if k == 2:
                col2 = col
            for n in range(k, N + 1):
                s1[n] += col[n]
                s2[n] += (2 * k - 1) * col[n]
            for n in range(k, N + 1):
                if suffix[n][k] != col[n]:
                    errors.append(f"T({k},{n}) differs from the column recurrence")
                    break
            for (n, kk) in wanted_tails:
                if kk == k:
                    wanted_tails[(n, kk)] = col[n]
        if self._brute is None:
            self._brute = {n: refs.brute_force_smallest(n)
                           for n in range(1, refs.BRUTE_FORCE_MAX + 1)}
        for n, tally in self._brute.items():
            if rows[n] != tally:
                errors.append(f"row {n} differs from brute-force enumeration")
        if der is not FAILED:
            for n in range(1, N + 1):
                drow = der.row(n)
                if drow[0] != 0:
                    errors.append(f"derangement s(1,{n}) != 0")
                if drow[1:] != rows[n][1:]:
                    errors.append(f"derangement row {n} differs from permutations at k >= 2")
                if sum(drow) != col2[n]:
                    errors.append(f"derangement row {n} does not sum to D({n})")
        von_ref = refs.variance_over_n_float(N)
        for q, out in zip(self.queries, rnd.outputs["answers"]):
            if out is FAILED:
                continue
            if q[0] == "variance_series":
                if [r[0] for r in out] != list(range(1, N + 1)):
                    errors.append("variance_series does not cover n = 1..N")
                    continue
                for n, var, von in out:
                    if var != refs.exact_variance(n, s1[n], s2[n]):
                        errors.append(f"Var(X_{n}) differs from the exact recurrence")
                        break
                    if abs(float(von) - von_ref[n]) > 1e-9 * von_ref[n] + 1e-15:
                        errors.append(f"Var(X_{n})/{n} differs from the float recurrence")
                        break
            elif q[0] == "distribution":
                n = q[1]
                want = tuple(Fraction(suffix[n][k] - suffix[n][k + 1], fact[n])
                             for k in range(1, n + 1))
                if tuple(out.probs) != want or sum(out.probs) != 1:
                    errors.append(f"distribution({n}) is wrong")
            else:
                n, k = q[1], q[2]
                if out != Fraction(wanted_tails[(n, k)], fact[n]):
                    errors.append(f"tail_probability({n},{k}) differs from the column recurrence")
        return errors


# ---------------------------------------------------------------------------
# variance-constant
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _omega_float() -> refs.OmegaFloat:
    return refs.OmegaFloat()


def _omega_23(x: Decimal) -> Decimal:
    """omega on [2, 3) in 45-digit Decimal: (1 + ln(x-1))/x."""
    with localcontext(DECIMAL_REF):
        return (1 + (x - 1).ln()) / x


def _check_omega_value(x: str, v: Decimal, what: str) -> Optional[str]:
    xd = Decimal(x)
    if xd < 2:
        with localcontext(DECIMAL_REF):
            want = 1 / xd
        ok = abs(v - want) <= Decimal("1e-18")
    elif xd < 3:
        ok = abs(v - _omega_23(xd)) <= Decimal("1e-18")
    else:
        ref, err = _omega_float().omega(float(xd))
        ok = abs(float(v) - ref) <= err + 1e-15
    return None if ok else f"{what}({x}) = {v} disagrees with the reference"


class VarianceConstant(Workload):
    """build_omega_ledger(QuadratureConfig()), moment_constant(ell=2) and
    eval_omega at seeded points of [1, 20) (the warm samples).

    One evaluation takes ~50 us, and the speed of this machine drifts
    over tenths of a second, so the batch is swept ``SWEEPS`` times before
    and after the quadrature: the warm samples span about a second in
    two places of the run instead of two 10 ms snapshots."""

    name = "variance-constant"
    EVALS = 200
    SWEEPS = 50
    EVAL_HI = 19.99

    def prepare(self) -> None:
        super().prepare()
        points = [_x(x) for x in _stratified(self.rng, 1.0, self.EVAL_HI, self.EVALS)]
        self.rng.shuffle(points)
        self.points = points

    def run_round(self, rec: Recorder) -> Round:
        omega = self.pkg.omega
        rnd = Round()
        start = time.perf_counter()
        ledger, _ = rec.call("build_omega_ledger", omega.build_omega_ledger,
                             omega.QuadratureConfig())
        values = []
        const = FAILED
        for step in ("before", "after"):
            if step == "after":
                const, _ = rec.call("moment_constant", omega.moment_constant, ledger, 2)
            for _ in range(self.SWEEPS):
                for x in self.points:
                    v, dt = rec.call(f"eval_omega {x}", omega.eval_omega, ledger, x)
                    values.append(v)
                    rnd.warm_s.append(dt)
        rnd.solve_s = time.perf_counter() - start
        rnd.outputs = {"const": const, "values": values}
        return rnd

    def check(self, rnd: Round) -> List[str]:
        errors: List[str] = []
        const = rnd.outputs["const"]
        if const is not FAILED:
            ref = _omega_float()
            if const.first_interval != Fraction(3, 4):
                errors.append(f"first_interval = {const.first_interval}, not 3/4")
            gap = abs(float(const.value) - ref.C)
            if gap > float(const.error_budget) + ref.C_err:
                errors.append(f"C = {const.value} is {gap:.2e} from the float reference "
                              f"{ref.C!r}, beyond budget {const.error_budget:.2e} "
                              f"+ reference error {ref.C_err:.1e}")
        for x, v in zip(self.points * (2 * self.SWEEPS), rnd.outputs["values"]):
            if v is not FAILED:
                problem = _check_omega_value(x, v, "omega")
                if problem:
                    errors.append(problem)
        return errors


# ---------------------------------------------------------------------------
# omega-k-table
# ---------------------------------------------------------------------------

class OmegaKTable(Workload):
    """OmegaKLedger for K = 1 and K = 1/2 grown over the reference grid to
    x = 8192, eval_omega_k at seeded off-grid points, oracle_quadrature at
    three seeded x <= 20, and a small omega ledger for the identity
    Omega_1(x) = x omega(x).

    Grid and off-grid points are evaluated in increasing x, so the ledger
    grows as they are reached; each off-grid point is evaluated once more
    right away, and those repeats are the warm samples.  The off-grid
    points above 20 are spread evenly in x, so the warm samples are spread
    evenly over the growth, which takes most of the round."""

    name = "omega-k-table"
    min_rounds = 2
    KS = ("1", "0.5")
    LOW_POINTS = 20      # in [1, 20), where the omega ledger also reaches
    HIGH_POINTS = 80     # in [20, 8192)
    ORACLE_BANDS = ((3.0, 4.0), (9.0, 10.0), (18.0, 19.0))

    def prepare(self) -> None:
        super().prepare()
        rng = self.rng
        self.points: Dict[str, List[str]] = {}
        self.oracle_points: Dict[str, List[str]] = {}
        for K in self.KS:
            pts = _stratified(rng, 1.0, 19.99, self.LOW_POINTS)
            pts += _stratified(rng, 20.0, 8192.0, self.HIGH_POINTS)
            self.points[K] = [_x(x) for x in pts]
            self.oracle_points[K] = [_x(rng.uniform(lo, hi)) for lo, hi in self.ORACLE_BANDS]

    def run_round(self, rec: Recorder) -> Round:
        omega, omega_k = self.pkg.omega, self.pkg.omega_k
        rnd = Round()
        start = time.perf_counter()
        ledger, _ = rec.call("build_omega_ledger", omega.build_omega_ledger,
                             omega.QuadratureConfig())
        out: Dict[str, Any] = {"values": {}, "oracle": {}, "oracle_ledger": {}}
        for K in self.KS:
            lk, _ = rec.call(f"OmegaKLedger {K}", omega_k.OmegaKLedger, K)
            values = {}
            walk = sorted([(float(x), str(x), False) for x in OMEGA_K_GRID]
                          + [(float(x), x, True) for x in self.points[K]])
            for _, x, repeat in walk:
                values[x], _ = rec.call(f"eval_omega_k {K} {x}", omega_k.eval_omega_k, lk, x)
                if repeat:
                    again, dt = rec.call(f"eval_omega_k {K} {x}", omega_k.eval_omega_k, lk, x)
                    rnd.warm_s.append(dt)
                    if again is FAILED or again != values[x]:
                        values[x] = FAILED if again is FAILED else "not repeatable"
            out["values"][K] = values
            out["oracle_ledger"][K] = [rec.call(f"eval_omega_k {K} {x}", omega_k.eval_omega_k,
                                                lk, x)[0] for x in self.oracle_points[K]]
            out["oracle"][K] = [rec.call(f"oracle_quadrature {K} {x}",
                                         omega_k.oracle_quadrature, K, x, ORACLE_TOL)[0]
                                for x in self.oracle_points[K]]
        out["omega"] = [rec.call(f"eval_omega {x}", omega.eval_omega, ledger, x)[0]
                        for x in self._low_points()]
        rnd.solve_s = time.perf_counter() - start
        rnd.outputs = out
        return rnd

    def _low_points(self) -> List[str]:
        return [x for x in self.points["1"] if float(x) < 20.0]

    def check(self, rnd: Round) -> List[str]:
        errors: List[str] = []
        out = rnd.outputs
        for K in self.KS:
            Kf = float(K)
            for x, v in out["values"][K].items():
                if v is FAILED:
                    continue
                xd = Decimal(x)
                if isinstance(v, str):
                    ok = False
                elif xd < 2:
                    ok = v == 1
                elif xd < 3:
                    with localcontext(DECIMAL_REF):
                        want = 1 + Decimal(K) * (xd - 1).ln()
                    ok = abs(v - want) <= Decimal("1e-18")
                elif xd >= ASYMPTOTE_FROM:
                    ratio = float(v) / refs.omega_k_asymptote(Kf, float(xd))
                    ok = abs(ratio - 1.0) <= refs.omega_k_asymptote_tolerance(Kf, float(xd))
                else:
                    ok = v > 1
                if not ok:
                    errors.append(f"Omega_{K}({x}) = {v} fails its reference")
            walk = sorted((float(x), v) for x, v in out["values"][K].items()
                          if float(x) >= 2 and isinstance(v, Decimal))
            if any(b[1] <= a[1] for a, b in zip(walk, walk[1:])):
                errors.append(f"Omega_{K} is not increasing")
            for x, ov, ledger_value in zip(self.oracle_points[K], out["oracle"][K],
                                           out["oracle_ledger"][K]):
                if ov is FAILED or ledger_value is FAILED:
                    continue
                if abs(ov - ledger_value) > Decimal(ORACLE_TOL):
                    errors.append(f"oracle_quadrature({K}, {x}) = {ov} vs ledger {ledger_value}")
        for x, w in zip(self._low_points(), out["omega"]):
            big = out["values"]["1"][x]
            if w is FAILED or not isinstance(big, Decimal):
                continue
            problem = _check_omega_value(x, w, "omega")
            if problem:
                errors.append(problem)
            if abs(big - Decimal(x) * w) > Decimal("1e-18") * Decimal(x):
                errors.append(f"Omega_1({x}) = {big} != x omega(x) = {Decimal(x) * w}")
        return errors


# ---------------------------------------------------------------------------
# cli-cache
# ---------------------------------------------------------------------------

class CliCache(Workload):
    """A seeded stream of ``python -m buchstab`` invocations into a fresh
    cache directory: one cold pass, then as many warm passes of the same
    stream as make at least ``MIN_WARM`` warm invocations.  One child
    process runs at a time.

    The set of cache keys is fixed, so every seed writes and reads the
    same bytes: the K = 1 ledger at n* = 8192 (read by ``omega-k-table``
    and by two ``omega-k --x 8192.f``, the large loads that set the p90),
    small ledgers at fixed integer parts, some repeated, for K = 1 and
    K = 1/2 (up to 2048), two count tables and the omega ledger.  The
    seed picks fractional parts and tail indices.  The order is fixed:
    ``omega-k --x`` in [1, 2) stores its ledger under the key of [2, 3),
    so the hit count would depend on whether it runs before ``--x 2.f``.
    ``constant`` is left out: it takes about 20 s even with a warm cache.
    """

    name = "cli-cache"
    rss_scope = resource.RUSAGE_CHILDREN
    MIN_WARM = 100
    LARGE_K1 = 2         # omega-k --k 1 --x 8192.f invocations
    SMALL_X = {"1": (3, 3, 17, 150, 150, 600), "0.5": (1, 2, 40, 40, 300, 2048)}
    TAILS = ((60, 2), (90, 1))     # (n, how many k)
    VARIANCE_N = 60
    OMEGA_X = 2

    def prepare(self) -> None:
        super().prepare()
        rng = self.rng
        stream: List[List[str]] = [["omega-k-table", "--k", "1"]]
        for _ in range(self.LARGE_K1):
            stream.append(["omega-k", "--k", "1", "--x", _x(8192 + 0.999 * rng.random())])
        for K, xs in self.SMALL_X.items():
            for n in xs:
                stream.append(["omega-k", "--k", K, "--x", _x(n + 0.999 * rng.random())])
        for n, how_many in self.TAILS:
            for k in rng.sample(range(1, n + 1), how_many):
                stream.append(["tail", "--n", str(n), "--k", str(k)])
        stream.append(["variance-series", "--n", str(self.VARIANCE_N)])
        for x in _stratified(rng, 1.0, 19.99, self.OMEGA_X):
            stream.append(["omega", "--x", _x(x)])
        self.stream = stream
        self.cache_root = os.path.join(self.workdir, "cache")
        os.makedirs(self.cache_root, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.cache_bytes = 0

    def _fresh_dir(self, tag: str) -> str:
        path = os.path.join(self.cache_root, tag)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _invoke(self, rec: Recorder, argv: List[str], cache_dir: str) -> Tuple[Any, float]:
        cmd = [sys.executable, "-m", "buchstab"] + argv + ["--cache-dir", cache_dir]

        def run():
            done = subprocess.run(cmd, env=self.env, capture_output=True, timeout=150)
            if done.returncode != 0:
                raise RuntimeError(f"exit {done.returncode}: {done.stderr.decode()[-300:]}")
            return done.stdout

        return rec.call(" ".join(argv), run)

    def run_round(self, rec: Recorder) -> Round:
        rnd = Round()
        cache_dir = self._fresh_dir("run")
        start = time.perf_counter()
        cold = [self._invoke(rec, argv, cache_dir)[0] for argv in self.stream]
        rnd.solve_s = time.perf_counter() - start
        warm_passes: List[List[Any]] = []
        for _ in range(-(-self.MIN_WARM // len(self.stream))):
            outs = []
            for argv in self.stream:
                out, dt = self._invoke(rec, argv, cache_dir)
                outs.append(out)
                rnd.warm_s.append(dt)
            warm_passes.append(outs)
        self.cache_bytes = _dir_bytes(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        rnd.outputs = {"cold": cold, "warm": warm_passes}
        return rnd

    def trace_round(self, rec: Recorder) -> Round:
        """The same stream in-process through buchstab.cli.main: a cold pass
        and one warm pass into a fresh cache directory."""
        rnd = Round()
        cache_dir = self._fresh_dir("inprocess")
        passes = []
        start = time.perf_counter()
        for _ in range(2):
            outs = []
            for argv in self.stream:
                out, _ = rec.call(" ".join(argv), self._main, argv + ["--cache-dir", cache_dir])
                outs.append(out)
            passes.append(outs)
        rnd.solve_s = time.perf_counter() - start
        self.cache_bytes = _dir_bytes(cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        rnd.outputs = {"cold": passes[0], "warm": passes[1:]}
        return rnd

    def _main(self, argv: List[str]) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}")
        return buf.getvalue().encode("ascii")

    def startup_ms(self, probes: int = 5) -> float:
        """Median wall time of a no-op ``cache list`` child process."""
        cache_dir = self._fresh_dir("startup")
        times = []
        for _ in range(probes):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "buchstab", "cache", "list",
                            "--cache-dir", cache_dir], env=self.env,
                           capture_output=True, timeout=60, check=True)
            times.append(time.perf_counter() - start)
        return 1000.0 * statistics.median(times)

    def check(self, rnd: Round) -> List[str]:
        errors: List[str] = []
        cold = rnd.outputs["cold"]
        for outs in rnd.outputs["warm"]:
            for argv, a, b in zip(self.stream, cold, outs):
                if a is not FAILED and b is not FAILED and a != b:
                    errors.append(f"warm output of {' '.join(argv)} differs from cold")
        for argv, out in zip(self.stream, cold):
            if out is FAILED:
                continue
            problem = self._check_output(argv, out.decode("ascii"))
            if problem:
                errors.append(problem)
        return errors

    def _check_output(self, argv: List[str], text: str) -> Optional[str]:
        cmd = argv[0]
        lines = text.strip().splitlines()
        what = " ".join(argv)
        if cmd == "tail":
            n, k = int(argv[2]), int(argv[4])
            want = Fraction(refs.tail_column(k, n)[n], math.factorial(n))
            got = Fraction(lines[1].split(",")[2])
            return None if got == want else f"{what}: {got} != column recurrence {want}"
        if cmd == "variance-series":
            n_max = int(argv[2])
            von = refs.variance_over_n_float(n_max)
            for line in lines[1:]:
                n, _, v = line.split(",")
                if abs(float(v) - von[int(n)]) > 1e-5 * von[int(n)] + 1e-12:
                    return f"{what}: row {n} = {v}, float recurrence {von[int(n)]}"
            return None if len(lines) == n_max + 1 else f"{what}: {len(lines) - 1} rows"
        if cmd == "omega":
            x = float(argv[2])
            ref, err = _omega_float().omega(x)
            return None if abs(float(lines[0]) - ref) <= 1e-6 * ref + err else \
                f"{what}: {lines[0]} vs reference {ref}"
        K = float(argv[2])
        if cmd == "omega-k":
            rows = [(float(argv[4]), float(lines[0]))]
        else:
            rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
            if [int(x) for x, _ in rows] != list(OMEGA_K_GRID):
                return f"{what}: grid {[x for x, _ in rows]}"
        for x, v in rows:
            if 2 <= x < 3:
                want, tol = refs.omega_k_closed_form(K, x), 1e-5
            elif x >= ASYMPTOTE_FROM:
                want = refs.omega_k_asymptote(K, x)
                tol = refs.omega_k_asymptote_tolerance(K, x) + 1e-5
            elif x < 2:
                want, tol = 1.0, 0.0
            else:
                continue
            if abs(v / want - 1.0) > tol:
                return f"{what}: Omega_{K}({x}) = {v} vs reference {want}"
        return None

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


WORKLOADS = {w.name: w for w in (ExactCounts, VarianceConstant, OmegaKTable, CliCache)}
