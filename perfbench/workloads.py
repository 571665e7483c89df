"""The benchmark's workloads: seeded inputs, one query per input, and a check
of every answer against a route that shares no code with the one measured.

Inputs come from ``--seed`` alone.  Each query builds its monoid fresh from
a generator tuple, as the command line does, so the oracle's membership
cache starts cold every time; only ``ladder-readoff`` shares state across
queries, namely the bases it builds during set-up.

Workloads that mix input sizes draw them from fixed strata visited in a
fixed cyclic order, and the loop only stops at the end of a cycle.  Every
run therefore holds the same mix of sizes, and the seed only picks the
monoids inside each stratum; that keeps run-to-run spread down to the
variation within a stratum."""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import importlib
import io
import json
import random
from dataclasses import dataclass

MODULES = ("semigroup", "orders", "groebner", "apery", "homology", "affine", "cli", "sampling")


@dataclass(frozen=True)
class Api:
    """The aperykit modules, as imported for this run.

    Queries call through these module objects, so anything substituted on
    a module (by the tracer, or by a test) is what the query runs.
    """

    semigroup: object
    orders: object
    groebner: object
    apery: object
    homology: object
    affine: object
    cli: object
    sampling: object


def load_api() -> Api:
    importlib.import_module("aperykit")
    return Api(**{name: importlib.import_module(f"aperykit.{name}") for name in MODULES})


@dataclass
class Inputs:
    """One run's inputs: ``items[i]`` is the input of query ``i mod len``."""

    items: list
    fingerprint: str


def fingerprint(name: str, seed: int, generator_tuples) -> str:
    """Hash of the generator tuples a run measures, to compare result files."""
    blob = json.dumps([name, seed, list(generator_tuples)], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def band_generators(api: Api, rng: random.Random, k: int, lo: int, hi: int) -> tuple[int, ...]:
    """k distinct generators from [lo, hi] forming a minimal generating set."""
    while True:
        gens = tuple(sorted(rng.sample(range(lo, hi + 1), k)))
        try:
            api.semigroup.NumericalSemigroup(gens)
        except ValueError:
            continue
        return gens


def run_cli(api: Api, argv) -> tuple[int, object]:
    """One in-process ``aperykit`` call; returns exit code and parsed stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(list(argv))
    payload = json.loads(out.getvalue()) if code == 0 else err.getvalue()
    return code, payload


class Workload:
    name = ""
    default_seed = 0
    cycle = 1  # queries per stratum cycle; the loop stops on cycle boundaries

    def build(self, api: Api, seed: int) -> Inputs:
        raise NotImplementedError

    def reference(self, api: Api, inputs: Inputs) -> list:
        """Reference answers per item, by the independent route (untimed)."""
        return [None] * len(inputs.items)

    def query(self, api: Api, item):
        raise NotImplementedError

    def check(self, api: Api, item, ref, answer) -> str | None:
        """None when ``answer`` is right, else a short description of why not."""
        raise NotImplementedError


def _mismatch(what, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
class CorpusCli(Workload):
    """Acceptance-distribution monoids through the command line's defaults."""

    name = "corpus-cli"
    default_seed = 20240917
    pool = 200

    def build(self, api, seed):
        corpus = api.sampling.random_corpus(seed, self.pool, kmin=3, kmax=5, max_gen=60)
        items = [S.generators for S in corpus]
        return Inputs(items, fingerprint(self.name, seed, items))

    def reference(self, api, inputs):
        sg = api.semigroup
        refs = []
        for gens in inputs.items:
            S = sg.NumericalSemigroup(gens)
            refs.append((sg.apery_bruteforce(S, gens[-1]), sg.typeset_bruteforce(S)))
        return refs

    def query(self, api, gens):
        g = ",".join(map(str, gens))
        apery = run_cli(api, ["apery", "--gens", g, "--wrt", str(gens[-1]), "--dump-basis"])
        typeset = run_cli(api, ["typeset", "--gens", g])
        return apery, typeset

    def check(self, api, gens, ref, answer):
        (code_a, apery), (code_t, typeset) = answer
        if code_a or code_t:
            return f"exit codes {code_a}, {code_t}"
        ap, ts = ref
        ak = gens[-1]
        return (
            _mismatch("apery", apery["apery"], ap)
            or _mismatch("basis present", "basis" in apery, True)
            or _mismatch("type_set", typeset["type_set"], ts)
            or _mismatch("pf", typeset["pf"], [t - ak for t in ts])
            or _mismatch("gorenstein", typeset["gorenstein"], len(ts) == 1)
        )


def apery_by_shortest_paths(gens) -> list[int]:
    """Ap(S, a_1) indexed by residue mod a_1, as shortest-path distances.

    Nijenhuis' route: the least member of S in residue class r is the
    length of a shortest path from 0 to r in the graph on Z/a_1 whose edges
    add a generator.  No aperykit code is involved.
    """
    a1 = gens[0]
    dist: list[int | None] = [None] * a1
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for a in gens[1:]:
            nd = d + a
            nr = nd % a1
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


# ---------------------------------------------------------------------------
class CliOracle(Workload):
    """Banded numerical monoids through ``aperykit analyze``."""

    name = "cli-oracle"
    default_seed = 7
    # queries of a few milliseconds: large enough that scheduler jitter
    # does not set the tail, small enough for thousands of distinct inputs
    rungs = ((3, 60, 120), (4, 100, 200), (5, 100, 200))
    cycle = len(rungs)
    # more distinct monoids than a run gets through, so the tail is not set
    # by a few inputs met again and again
    cycles = 1500

    def build(self, api, seed):
        rng = random.Random(seed)
        items = [
            band_generators(api, rng, k, lo, hi)
            for _ in range(self.cycles)
            for k, lo, hi in self.rungs
        ]
        return Inputs(items, fingerprint(self.name, seed, items))

    def query(self, api, gens):
        return run_cli(api, ["analyze", "--gens", ",".join(map(str, gens))])

    def check(self, api, gens, ref, answer):
        # the reference is computed here rather than stored: it is cheap,
        # and thousands of stored gap lists would dominate peak_rss_mb
        code, payload = answer
        if code:
            return f"exit code {code}"
        floor = apery_by_shortest_paths(gens)
        a1 = gens[0]
        frobenius = max(floor) - a1
        gap_list = [x for x in range(1, frobenius + 1) if x < floor[x % a1]]
        symmetric = 2 * len(gap_list) == frobenius + 1
        expected = {
            "generators": list(gens),
            "frobenius": frobenius,
            "genus": len(gap_list),
            "gaps": gap_list,
            "symmetric": symmetric,
            "gorenstein": symmetric,  # Kunz: Gorenstein iff symmetric
        }
        return _mismatch("analyze", payload, expected)


# ---------------------------------------------------------------------------
@dataclass
class LadderItem:
    generators: tuple[int, ...]
    batch: tuple[int, ...]
    basis: object = None


class LadderReadoff(Workload):
    """A ladder over k read off prebuilt bases; Buchberger runs only in set-up."""

    name = "ladder-readoff"
    default_seed = 1009
    # (k, lowest generator, highest generator) per rung; one generator band
    # for every k, so each rung costs about the same and the median and the
    # tail do not sit on the edge between rungs
    rungs = ((3, 200, 400), (4, 200, 400), (5, 200, 400))
    cycle = len(rungs)
    cycles = 60
    batch = 8

    def build(self, api, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(self.cycles):
            for k, lo, hi in self.rungs:
                gens = band_generators(api, rng, k, lo, hi)
                batch = tuple(rng.randrange(2 * gens[-1]) for _ in range(self.batch))
                items.append(LadderItem(gens, batch))
        gb = api.groebner
        for item in items:
            k = len(item.generators)
            S = api.semigroup.NumericalSemigroup(item.generators)
            order = api.orders.apery_order(k, k, item.generators)
            item.basis = gb.buchberger(gb.ideal_generators(S, order), order, strategy="fifo")
        keys = [(it.generators, it.batch) for it in items]
        return Inputs(items, fingerprint(self.name, seed, keys))

    def reference(self, api, inputs):
        sg = api.semigroup
        refs = []
        for item in inputs.items:
            S = sg.NumericalSemigroup(item.generators)
            refs.append(
                (
                    tuple(sg.apery_bruteforce(S, item.generators[-1])),
                    tuple(sg.typeset_bruteforce(S)),
                    tuple(sg.contains(S, l) for l in item.batch),
                )
            )
        return refs

    def query(self, api, item):
        S = api.semigroup.NumericalSemigroup(item.generators)
        k = len(item.generators)
        report = api.apery.apery_delta(S, k, basis=item.basis)
        extremal = api.apery.extremal_set(S, report, item.basis)
        verdicts = tuple(api.apery.classify(S, l, item.basis).in_monoid for l in item.batch)
        oracle_ap = api.semigroup.apery_bruteforce(S, item.generators[-1])
        oracle_ts = api.semigroup.typeset_bruteforce(S)
        return report.elements, tuple(extremal), verdicts, tuple(oracle_ap), tuple(oracle_ts)

    def check(self, api, item, ref, answer):
        elements, extremal, verdicts, oracle_ap, oracle_ts = answer
        ap, ts, members = ref
        if not set(ts) <= set(extremal) <= set(ap):
            return f"extremal set {extremal} not between {ts} and the Apery set"
        return (
            _mismatch("apery_delta", elements, ap)
            or _mismatch("classify", verdicts, members)
            or _mismatch("apery_bruteforce", oracle_ap, ap)
            or _mismatch("typeset_bruteforce", oracle_ts, ts)
        )


# ---------------------------------------------------------------------------
class Homology(Workload):
    """Pseudo-Frobenius numbers through sphere homology."""

    name = "homology"
    default_seed = 257
    # cost grows with genus x 2^k faces, so larger k gets smaller generators
    rungs = ((5, 50, 100), (6, 20, 40), (7, 10, 20))
    cycle = len(rungs)
    cycles = 60

    def build(self, api, seed):
        rng = random.Random(seed)
        items = [
            band_generators(api, rng, k, lo, hi)
            for _ in range(self.cycles)
            for k, lo, hi in self.rungs
        ]
        return Inputs(items, fingerprint(self.name, seed, items))

    def reference(self, api, inputs):
        sg = api.semigroup
        return [sg.pf_bruteforce(sg.NumericalSemigroup(gens)) for gens in inputs.items]

    def query(self, api, gens):
        return api.homology.pf_via_homology(api.semigroup.NumericalSemigroup(gens))

    def check(self, api, gens, ref, answer):
        return _mismatch("pf", list(answer), ref)


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AffineItem:
    dim: int
    generators: tuple[tuple[int, ...], ...]
    lam: tuple[int, ...]  # 0-based positions of the axis multiples


class Affine(Workload):
    """Pointed affine monoids in d = 2, 3 with Lambda on the coordinate axes."""

    name = "affine"
    default_seed = 3
    # (d, k): k generators in all, d of them the axis multiples in Lambda
    strata = ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6))
    cycle = len(strata)
    cycles = 1000
    max_coord = 4
    multiple = 2  # of each coordinate axis in Lambda

    def build(self, api, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(self.cycles):
            for d, k in self.strata:
                axes = [
                    tuple(self.multiple if c == i else 0 for c in range(d))
                    for i in range(d)
                ]
                others: set[tuple[int, ...]] = set()
                while len(others) < k - d:
                    g = tuple(rng.randint(0, self.max_coord) for _ in range(d))
                    if any(g) and g not in axes:
                        others.add(g)
                gens = tuple(sorted(others)) + tuple(axes)
                api.affine.AffineMonoid(d, gens)
                items.append(AffineItem(d, gens, tuple(range(k - d, k))))
        keys = [(it.dim, it.generators) for it in items]
        return Inputs(items, fingerprint(self.name, seed, keys))

    def query(self, api, item):
        M = api.affine.AffineMonoid(item.dim, item.generators)
        lam = api.affine.validate_lambda(M, item.lam)
        return api.affine.apery_affine(M, lam=lam).elements

    def check(self, api, item, ref, answer):
        return affine_apery_mismatch(api, item, answer)


def affine_apery_mismatch(api: Api, item: AffineItem, answer) -> str | None:
    """Check ``answer`` = Ap(S, Lambda) from the definition.

    With Lambda = {c_i e_i}, the lattice points of <Lambda> are the points
    whose i-th coordinate is a nonnegative multiple of c_i.  A finite set A
    is Ap(S, Lambda) exactly when (1) every a in A lies in S with no
    a - c_i e_i in S, and (2) 0 is in A and A + <Lambda> is closed under
    adding each generator.  (2) gives S inside A + <Lambda>; then an Apery
    element a = a' + l with a' in A forces l = 0 by its own definition, and
    (1) is the converse.  Membership comes from
    ``affine_members_bruteforce`` up to the largest coordinate sum in A.
    """
    d = item.dim
    points = list(answer)
    if len(set(points)) != len(points) or (0,) * d not in points:
        return "answer is not a set containing the origin"
    M = api.affine.AffineMonoid(d, item.generators)
    members = api.affine.affine_members_bruteforce(M, max(sum(p) for p in points))
    mult = [item.generators[i][c] for c, i in enumerate(item.lam)]
    for p in points:
        if p not in members:
            return f"{p} is not in the monoid"
        for c in range(d):
            q = p[:c] + (p[c] - mult[c],) + p[c + 1 :]
            if q in members:
                return f"{p} minus an axis generator stays in the monoid"
    for p in points:
        for g in item.generators:
            s = tuple(a + b for a, b in zip(p, g))
            if not any(
                all(x >= y and (x - y) % m == 0 for x, y, m in zip(s, a, mult))
                for a in points
            ):
                return f"{s} is not covered by the answer plus <Lambda>"
    return None


WORKLOADS = {w.name: w for w in (CorpusCli(), LadderReadoff(), Homology(), Affine(), CliOracle())}
