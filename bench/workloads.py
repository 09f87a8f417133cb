"""The benchmark's four seeded workloads and the loop that measures them.

Every workload is a closed loop with one caller: the next verdict starts when
the previous one returns.  A verdict is one user-facing call
(``twisted_homology``, ``make_acyclic_fibered``, or ``subquotient_dims`` with
its coinvariants check).  ``setup`` turns the seed into inputs; a pass is one
fixed unit of work on those inputs, repeated until the run's time is used.
The float reference in ``oracle.py`` checks every verdict of the first pass,
outside the timed region; later passes must reproduce its exact outcomes.

The library is called only through its public module attributes
(``homology.specialize`` and so on), so a test can monkeypatch a layer and
every workload sees the change.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import calibrate
import oracle
from spans import NullTracer, Tracer
from twisthom import alexander, complexes, groups, homology, reps
from twisthom.matrices import Matrix, integer_kernel_basis
from twisthom.numbers import Cyclo


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def catalog(spec: str):
    return complexes.catalog_entry_from_string(spec).complex


def random_grading(rng: random.Random, basis, num_generators: int, n: int) -> list[int]:
    """A seeded combination of a grading-lattice basis, nonzero modulo n.

    A character that is trivial would take the cheaper integer path, so a
    nonzero one keeps the cost of a pass the same for every seed.
    """
    if not basis:
        raise ValueError("the group has no homomorphism onto Z")
    while True:
        coeffs = [rng.randint(-2, 2) for _ in basis]
        phi = [sum(c * b[g] for c, b in zip(coeffs, basis)) for g in range(num_generators)]
        if any(v % n for v in phi):
            return phi


def grading_lattice(p) -> list[list[int]]:
    """Basis of the homomorphisms pi -> Z: integer kernel of the relator matrix."""
    return integer_kernel_basis(p.exponent_matrix().transpose())


# ---------------------------------------------------------------------------
# one pass: verdicts, outcomes, oracle checks and work counts
# ---------------------------------------------------------------------------

class Pass:
    """What one pass did.  ``limit`` caps the verdicts (used by the tests).

    ``marks`` holds (wall, cpu) at the pass's start, at each verdict's end
    and at its end, on clocks that leave out the calibration kernel.  The
    kernel runs at a mark once ``calibrate.EVERY_S`` have passed since its
    last run, and at the first and last mark; ``speeds`` holds (mark index,
    kernel wall, kernel cpu).
    """

    def __init__(self, tracer, limit: int | None = None):
        self.tracer = tracer
        self.limit = limit
        self.latencies: list[float] = []
        self.marks: list[tuple[float, float]] = []
        self.speeds: list[tuple[int, float, float]] = []
        self.paused = (0.0, 0.0)
        self.last_calibration = -math.inf
        self.outcomes: list = []
        self.failures: dict[int, str] = {}
        self.checks: list = []
        self.counts: Counter = Counter()

    def full(self) -> bool:
        return self.limit is not None and len(self.latencies) >= self.limit

    def begin(self):
        """Tag the spans of the next verdict's preparation with its id."""
        self.tracer.verdict = len(self.latencies)

    def verdict(self, fn, check, signature=lambda r: r):
        """Time fn() as one verdict; check(result) runs later, off the clock."""
        vid = len(self.latencies)
        self.tracer.verdict = vid
        t0 = time.perf_counter()
        try:
            with self.tracer.span("bench.verdict"):
                result = fn()
        except Exception as e:  # a verdict that raises is a failed verdict
            self.mark(t0)
            self.failures[vid] = f"raised {type(e).__name__}: {e}"
            self.outcomes.append(("raised", type(e).__name__))
            return None
        self.mark(t0)
        self.outcomes.append(signature(result))
        self.checks.append((vid, check, result))
        return result

    def mark(self, t0: float | None = None, calibrate_now: bool = False):
        now, cpu = time.perf_counter(), time.process_time()
        if t0 is not None:
            self.latencies.append(now - t0)
        self.marks.append((now - self.paused[0], cpu - self.paused[1]))
        if calibrate_now or now - self.last_calibration >= calibrate.EVERY_S:
            kernel_wall, kernel_cpu = calibrate.sample()
            self.speeds.append((len(self.marks) - 1, kernel_wall, kernel_cpu))
            self.last_calibration = time.perf_counter()
            self.paused = (self.paused[0] + self.last_calibration - now,
                           self.paused[1] + time.process_time() - cpu)

    def normalized(self) -> tuple[list[float], list[float], list[float]]:
        """Wall and CPU time of each segment between marks, and each verdict's
        latency, scaled to the calibration kernel's reference speed.

        A segment is scaled by the mean kernel time of the calibrations just
        before its start and just after its end.  Verdict i ends segment i.
        """
        walls, cpus, latencies = [], [], []
        before = 0
        for j in range(len(self.marks) - 1):
            while before + 1 < len(self.speeds) and self.speeds[before + 1][0] <= j:
                before += 1
            after = before
            while self.speeds[after][0] < j + 1:
                after += 1
            (_, w0, c0), (_, w1, c1) = self.speeds[before], self.speeds[after]
            wall_scale = 2 * calibrate.REFERENCE_S / (w0 + w1)
            cpu_scale = 2 * calibrate.REFERENCE_S / (c0 + c1)
            walls.append((self.marks[j + 1][0] - self.marks[j][0]) * wall_scale)
            cpus.append((self.marks[j + 1][1] - self.marks[j][1]) * cpu_scale)
            if j < len(self.latencies):
                latencies.append(self.latencies[j] * wall_scale)
        return walls, cpus, latencies

    def run_checks(self):
        for vid, check, result in self.checks:
            try:
                problem = check(result)
            except Exception as e:  # the reference itself must not hide a failure
                problem = f"reference raised {type(e).__name__}: {e}"
            if problem:
                self.failures[vid] = problem
        self.checks = []


def count_rep(counts: Counter, rep):
    counts["reps.rep_dim_sum"] += rep.dim
    counts["reps.max_conductor"] = max(counts["reps.max_conductor"], rep.conductor)


def count_twisted(counts: Counter, c, rep):
    entries = sum(a * b for a, b in zip(c.ranks, c.ranks[1:])) * rep.dim ** 2
    counts["homology.specialize_calls"] += 1
    counts["homology.specialized_entries"] += entries
    counts["matrices.rank_calls"] += len(c.boundaries)
    counts["matrices.rank_expanded_entries"] += entries * euler_phi(rep.conductor) ** 2


def twisted(tracer, c, rep):
    """twisted_homology; traced, it is split into specialize and homology_dims."""
    if not tracer.enabled:
        return homology.twisted_homology(c, rep)
    with tracer.span("homology.specialize"):
        b = homology.specialize(c, rep)
    with tracer.span("matrices.rank"):
        return homology.homology_dims(b)


def check_float(report, c, rep, closed_form=None):
    want = oracle.float_dims(c, oracle.rep_matrices(rep), rep.dim)
    if report.dims != want:
        return f"exact dims {report.dims} != float dims {want}"
    if closed_form is not None and report.dims != closed_form:
        return f"exact dims {report.dims} != closed form {closed_form}"
    return None


def dims_of(report):
    return report.dims


# ---------------------------------------------------------------------------
# perm_battery
# ---------------------------------------------------------------------------

PERM_MAX_DEGREE = 4
PERM_SAMPLE = 3000


def perm_setup(seed: int) -> dict:
    t3 = catalog("t3").group
    return {"seed": seed,
            "cx": complexes.presentation_complex(groups.free_product(t3, t3))}


def perm_pass(state: dict, p: Pass):
    tr, cx = p.tracer, state["cx"]
    with tr.span("groups.transitive_actions"):
        actions = groups.transitive_actions_up_to(cx.group, PERM_MAX_DEGREE)
    p.counts["groups.actions"] += len(actions)
    rng = random.Random(state["seed"])
    for i in rng.sample(range(len(actions)), min(PERM_SAMPLE, len(actions))):
        if p.full():
            return
        p.begin()
        with tr.span("reps.build"):
            rep = reps.permutation_rep(cx.group, actions[i])
        count_rep(p.counts, rep)
        count_twisted(p.counts, cx, rep)
        p.verdict(partial(twisted, tr, cx, rep), partial(check_float, c=cx, rep=rep),
                  dims_of)


# ---------------------------------------------------------------------------
# cyclo_sweep
# ---------------------------------------------------------------------------

# Fixed primes keep the cost of a pass the same for every seed; the seed picks
# q, the covering actions and the sub-characters.
LENS_PRIMES = (17, 19, 23)
INDUCED_BASES = ("s1x_sigma:2", "t3")
# (cover degree, stabilizer rep dimension, conductor): dims 2, 3, 4 for every
# conductor up to 12, and one dimension-6 rep of the largest conductor
INDUCED_SHAPES = tuple((degree, sub_dim, n) for degree, sub_dim in ((2, 1), (3, 1), (2, 2))
                       for n in (3, 4, 5, 6, 8, 10, 12)) + ((3, 2, 12),)


def cyclo_setup(seed: int) -> dict:
    rng = random.Random(seed)
    lens = [(prime, catalog(f"lens:{prime},{rng.randrange(1, prime)}"))
            for prime in LENS_PRIMES]
    induced = []
    for spec in INDUCED_BASES:
        cx = catalog(spec)
        by_degree = {d: groups.transitive_actions(cx.group, d) for d in (2, 3)}
        for degree, sub_dim, n in INDUCED_SHAPES:
            action = rng.choice(by_degree[degree])
            sub, _ = groups.reidemeister_schreier(cx.group, action)
            basis = grading_lattice(sub)
            exponents = [random_grading(rng, basis, sub.num_generators, n)
                         for _ in range(sub_dim)]
            induced.append((cx, action, n, exponents))
    return {"lens": lens, "induced": induced}


def induced_rep(cx, action, n: int, exponents):
    """Induce the diagonal sum of characters zeta_n^exponents[i] of the stabilizer."""
    k, zero = len(exponents), Cyclo.zero()
    mats = [Matrix(k, k, [[Cyclo.root_of_unity(n, exponents[a][s]) if a == b else zero
                           for b in range(k)] for a in range(k)])
            for s in range(len(exponents[0]))]
    return reps.induce_rep(cx.group, action, mats, k)


def check_lens(report, c, rep, index: int, count: int, prime: int):
    if count != prime:
        return f"lens:{prime} has {count} torsion characters, not {prime}"
    return check_float(report, c, rep, (1, 0, 0, 1) if index == 0 else (0, 0, 0, 0))


def cyclo_pass(state: dict, p: Pass):
    tr = p.tracer
    for prime, cx in state["lens"]:
        p.begin()
        with tr.span("reps.build"):
            chars = reps.torsion_characters(cx.group)
        for index, rep in enumerate(chars):
            if p.full():
                return
            count_rep(p.counts, rep)
            count_twisted(p.counts, cx, rep)
            p.verdict(partial(twisted, tr, cx, rep),
                      partial(check_lens, c=cx, rep=rep, index=index,
                              count=len(chars), prime=prime), dims_of)
    for cx, action, n, exponents in state["induced"]:
        if p.full():
            return
        p.begin()
        with tr.span("reps.build"):
            rep = induced_rep(cx, action, n, exponents)
        count_rep(p.counts, rep)
        count_twisted(p.counts, cx, rep)
        p.verdict(partial(twisted, tr, cx, rep), partial(check_float, c=cx, rep=rep),
                  dims_of)


# ---------------------------------------------------------------------------
# fibered_covers
# ---------------------------------------------------------------------------

# (catalog entry, fibration class, {cover degree: seeded sample size, or None
# for every cover of that degree})
FIBERED_BASES = (("trefoil_exterior", (1, 1), {d: None for d in range(2, 8)}),
                 ("t3", (1, 0, 0), {2: None, 3: None, 4: 12}),
                 ("s1x_sigma:2", (0, 0, 0, 0, 1), {2: None, 3: 14}))
OBSTRUCTION_PROBES = range(2, 7)


def fibered_setup(seed: int) -> dict:
    rng = random.Random(seed)
    items = []
    for spec, phi, degrees in FIBERED_BASES:
        cx = catalog(spec)
        for d, sample in degrees.items():
            actions = groups.transitive_actions(cx.group, d)
            if sample is not None:
                actions = rng.sample(actions, sample)
            items.extend((cx, phi, a) for a in actions)
    return {"items": items}


def pulled_back(phi, data, num_generators: int) -> list[int]:
    """The class phi on the cover's group, divided by the gcd of its values."""
    out = [sum(e * phi[g] for g, e in data.schreier_generator_word(s))
           for s in range(num_generators)]
    g = math.gcd(*out)
    return [v // g for v in out]


def certify(tracer, c, phi):
    """make_acyclic_fibered; traced, its public steps are called in order."""
    try:
        if not tracer.enabled:
            return alexander.make_acyclic_fibered(c, phi)
        with tracer.span("alexander.laurent_specialize"):
            mats = alexander.laurent_specialize(c, phi)
        with tracer.span("alexander.torsion_invariants"):
            td = alexander.torsion_invariants(mats, c.ranks)
        with tracer.span("alexander.select_root"):
            n, a = alexander.select_root_of_unity(td)
        with tracer.span("alexander.verify_root"):
            with tracer.span("reps.build"):
                character = reps.character_from_grading(c.group, phi, n, a)
            report = twisted(tracer, c, character)
            expected = alexander.uct_dims(td, n)
            if list(report.dims) != expected:
                raise homology.CrossCheckError(
                    f"direct dims {report.dims} disagree with UCT dims {expected}")
            return alexander.AcyclicityCertificate(n, a, character, report, td)
    except alexander.FreeRankObstruction as e:
        return e


def certificate_signature(result):
    if isinstance(result, alexander.FreeRankObstruction):
        return ("obstruction", result.degree, result.free_rank)
    td = result.torsion
    polys = tuple(tuple(tuple(sorted(q.terms.items())) for q in ps)
                  for ps in td.torsion_polys)
    return ("certificate", result.z_order, result.z_power, result.report.dims,
            td.free_ranks, polys)


def check_certificate(result, c, phi):
    def dims_at(n, a=1):
        return oracle.float_dims(c, oracle.character_matrices(n, [a * v for v in phi]), 1)

    if isinstance(result, alexander.FreeRankObstruction):
        for m in OBSTRUCTION_PROBES:
            if not any(dims_at(m)):
                return f"free-rank obstruction, yet zeta_{m} is acyclic"
        return None
    n, a = result.z_order, result.z_power
    if any(result.report.dims):
        return f"certificate dims {result.report.dims} are not zero"
    if any(dims_at(n, a)):
        return f"float dims {dims_at(n, a)} at zeta_{n}^{a} are not zero"
    for m in range(2, n):
        if not any(dims_at(m)):
            return f"zeta_{m} is already acyclic, so zeta_{n} is not the smallest root"
    return None


def fibered_pass(state: dict, p: Pass):
    tr = p.tracer
    for base, phi, action in state["items"]:
        if p.full():
            return
        p.begin()
        with tr.span("groups.reidemeister_schreier"):
            sub, data = groups.reidemeister_schreier(base.group, action)
        with tr.span("complexes.cover_complex"):
            cover = complexes.cover_complex(base, action)
        phi_cover = pulled_back(phi, data, sub.num_generators)
        p.counts["groups.schreier_generators"] += sub.num_generators
        p.counts["complexes.cover_cells"] += sum(cover.ranks)
        p.counts["alexander.laurent_entries"] += sum(
            b.rows * b.cols for b in cover.boundaries)
        result = p.verdict(partial(certify, tr, cover, phi_cover),
                           partial(check_certificate, c=cover, phi=phi_cover),
                           certificate_signature)
        if isinstance(result, alexander.FreeRankObstruction):
            p.counts["alexander.obstructions"] += 1
        elif result is not None:
            p.counts["alexander.certificates"] += 1
            count_rep(p.counts, result.character)
            count_twisted(p.counts, cover, result.character)


# ---------------------------------------------------------------------------
# split_subquotient
# ---------------------------------------------------------------------------

# (catalog entry, order of H1 for the one base without gradings)
SPLIT_BASES = (("handlebody:1", None), ("torus2d", None), ("lens:3,1", 3),
               ("trefoil_exterior", None), ("t3", None))
SPLIT_COUNT = 150
ROTATION = (Fraction(3, 5), Fraction(4, 5))


def split_shape(i: int) -> tuple[int, int]:
    """(summands, trivial summands) of item i: every base meets every shape,
    so the cost of a pass does not depend on the seed."""
    k = 1 + (i // len(SPLIT_BASES)) % 4
    return k, (i // (4 * len(SPLIT_BASES))) % (k + 1)


def split_setup(seed: int) -> dict:
    rng = random.Random(seed)
    bases = [(catalog(spec), order) for spec, order in SPLIT_BASES]
    lattices = [grading_lattice(cx.group) if order is None else None
                for cx, order in bases]
    items = []
    for i in range(SPLIT_COUNT):
        cx, order = bases[i % len(bases)]
        ngens = cx.group.num_generators
        n = order or rng.choice((3, 4, 6))
        k, trivial = split_shape(i)
        summands = [[0] * ngens for _ in range(trivial)]
        for _ in range(k - trivial):
            if order is None:
                summands.append(random_grading(rng, lattices[i % len(bases)], ngens, n))
            else:  # H1 = Z/order on the single generator
                summands.append([rng.randrange(1, order)])
        rng.shuffle(summands)
        plane = rng.sample(range(k), 2) if k > 1 else None
        items.append((cx, n, summands, plane))
    return {"items": items}


def dense_rep(cx, n: int, summands, plane):
    """explicit_rep of a sum of characters, rotated in one coordinate plane so
    that the generator matrices are dense and W is not a coordinate subspace."""
    k, zero = len(summands), Cyclo.zero()
    mats = [Matrix(k, k, [[Cyclo.root_of_unity(n, summands[a][g]) if a == b else zero
                           for b in range(k)] for a in range(k)])
            for g in range(cx.group.num_generators)]
    if plane is not None:
        i, j = plane
        c, s = ROTATION
        u = [[Fraction(int(a == b)) for b in range(k)] for a in range(k)]
        u[i][i], u[i][j], u[j][i], u[j][j] = c, -s, s, c
        u = Matrix(k, k, [[Cyclo.from_rational(x) for x in row] for row in u])
        ut = u.transpose()
        mats = [u @ m @ ut for m in mats]
    return reps.explicit_rep(cx.group, mats)


def split_verdict(tracer, cx, rep):
    with tracer.span("reps.invariant_coinvariant_split"):
        split = reps.invariant_coinvariant_split(rep)
    with tracer.span("homology.subquotient_dims"):
        w, v, q = homology.subquotient_dims(cx, rep, split)
    with tracer.span("homology.coinvariants_h0"):
        h0 = homology.coinvariants_h0(cx.group, rep)
    if h0 != v.dims[0]:
        raise homology.CrossCheckError(f"coinvariants {h0} != H0 {v.dims[0]}")
    return w.dims, v.dims, q.dims, h0


def check_split(result, cx, rep, n: int, summands):
    dims_w, dims_v, dims_q, h0 = result
    top = len(cx.ranks)
    trivial = [all(e % n == 0 for e in s) for s in summands]
    want_w = [0] * top
    for s, triv in zip(summands, trivial):
        if not triv:
            d = oracle.float_dims(cx, oracle.character_matrices(n, s), 1)
            want_w = [x + y for x, y in zip(want_w, d)]
    k = sum(trivial)
    base = oracle.float_dims(cx, oracle.character_matrices(1, [0] * cx.group.num_generators), 1)
    want_q = tuple(k * d for d in base)
    want_v = oracle.float_dims(cx, oracle.rep_matrices(rep), rep.dim)
    if dims_w != tuple(want_w):
        return f"dims_w {dims_w} != sum over nontrivial summands {tuple(want_w)}"
    if dims_q != want_q:
        return f"dims_wperp {dims_q} != {k} x trivial dims {base}"
    if dims_v != want_v:
        return f"dims_v {dims_v} != float dims {want_v}"
    if h0 != k:
        return f"coinvariants {h0} != {k} trivial summands"
    return None


def split_pass(state: dict, p: Pass):
    tr = p.tracer
    for cx, n, summands, plane in state["items"]:
        if p.full():
            return
        p.begin()
        with tr.span("reps.build"):
            rep = dense_rep(cx, n, summands, plane)
        count_rep(p.counts, rep)
        p.verdict(partial(split_verdict, tr, cx, rep),
                  partial(check_split, cx=cx, rep=rep, n=n, summands=summands))


# ---------------------------------------------------------------------------
# registry and measuring loop
# ---------------------------------------------------------------------------

MIN_PASSES = 3

WORKLOADS = {
    "perm_battery": (perm_setup, perm_pass),
    "cyclo_sweep": (cyclo_setup, cyclo_pass),
    "fibered_covers": (fibered_setup, fibered_pass),
    "split_subquotient": (split_setup, split_pass),
}


def one_pass(name: str, state: dict, traced: bool, limit: int | None = None) -> Pass:
    """Run one pass; its reference checks are left to ``Pass.run_checks``."""
    p = Pass(Tracer() if traced else NullTracer(), limit)
    p.mark(calibrate_now=True)
    WORKLOADS[name][1](state, p)
    p.mark(calibrate_now=True)
    p.counts["bench.verdicts"] = len(p.latencies)
    return p


def composite(passes: list[Pass]) -> tuple[float, float, list[float]]:
    """Wall, CPU and verdict latencies of one pass at the reference speed.

    Passes run the same inputs, so their segments (from one verdict's end to
    the next one's) line up.  Each segment's normalized time is the median
    over the passes, which drops a stretch where the calibration missed a
    change of the machine's speed.
    """
    columns = list(zip(*(p.normalized() for p in passes)))
    walls, cpus, latencies = ([statistics.median(seg) for seg in zip(*col)]
                              for col in columns)
    return sum(walls), sum(cpus), latencies


def measure(name: str, state: dict, seconds: float, trace: bool) -> dict:
    """Run passes over the set-up ``state`` until ``seconds`` have passed.

    The reference checks run on the first pass.  Every later pass runs the
    same inputs, so its verdicts fail where their exact outcomes differ from
    the first pass's or where those failed.  Untraced runs make at least
    MIN_PASSES passes, for ``composite``.  With ``trace`` the passes
    alternate untraced and traced, at least one each; a traced pass's layer
    times are scaled like its wall time, and the tracing overhead is the
    difference of the fastest normalized wall times.
    """
    start = time.perf_counter()
    first = None
    plain: list[Pass] = []
    records, spans = [], []
    while True:
        traced = trace and len(records) % 2 == 1
        gc.collect()
        p = one_pass(name, state, traced)
        walls, cpus, _ = p.normalized()
        raw_wall = p.marks[-1][0] - p.marks[0][0]
        record = {"traced": traced, "wall_s": sum(walls), "cpu_s": sum(cpus),
                  "raw_wall_s": raw_wall, "raw_cpu_s": p.marks[-1][1] - p.marks[0][1],
                  "verdicts": len(p.latencies), "counts": dict(p.counts)}
        if first is None:
            o0 = time.perf_counter()
            p.run_checks()
            record["oracle_s"] = time.perf_counter() - o0
            first = p
        else:
            p.checks = []
            p.failures = {j: f"outcome differs from the first pass: {a!r}"
                          for j, (a, b) in enumerate(zip(p.outcomes, first.outcomes)) if a != b}
            p.failures.update((j, m) for j, m in first.failures.items() if j not in p.failures)
            record["counts_repeat"] = p.counts == first.counts
        record["failed"] = len(p.failures)
        record["failures"] = [f"verdict {v}: {m}" for v, m in sorted(p.failures.items())[:5]]
        if traced:
            scale = sum(walls) / raw_wall
            record["layers"] = {k: v * scale for k, v in p.tracer.self_times().items()}
            spans.append(p.tracer.records)
        else:
            plain.append(p)
        records.append(record)
        last = time.perf_counter() - p.marks[0][0]
        needed = 2 if trace else MIN_PASSES
        if len(records) >= needed and time.perf_counter() - start + last > seconds:
            break
    wall, cpu, latencies = composite(plain)
    return {"passes": records, "spans": spans,
            "oracle_s": records[0]["oracle_s"], "wall_s": wall, "cpu_s": cpu,
            "verdict_ms_p50": statistics.median(latencies) * 1e3,
            "verdict_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3}
