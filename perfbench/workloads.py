"""Seeded inputs of the benchmark workloads.

Every input is a pure function of the workload name and the ``--seed``
value, so the same seed always gives the same inputs.  The program under
test only ever sees the generated inputs: CLI argument vectors for the
``catalog`` and ``queries`` workloads, hermitian forms for the three
``forms-*`` workloads.

The catalog job list and the forms suites are fixed; the seed orders them
and picks the samples that are cross-checked against the test oracles.
Keeping them fixed keeps the work per pass identical across seeds, so
figures from different seeds are comparable.  The query stream is drawn
from the seed afresh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("catalog", "queries", "forms-laurent", "forms-cyclic", "forms-refute")
FORMS_WORKLOADS = ("forms-laurent", "forms-cyclic", "forms-refute")

# ---------------------------------------------------------------------------
# catalog: `enumerate` over a fixed list of (manifold, ks, max_abs) jobs

CATALOG_JOBS = (
    ("H#H#H", 0, 2),  # even indefinite, 15625 classes
    ("CP2#CP2#CP2#diag(-1,-1)", 1, 2),  # odd indefinite, 3125 classes
    ("E8", 0, 1),  # even definite, 6561 classes
    ("E8", 1, 1),  # the same box with the other ks bit
)

#: The small job of the traced run's probe, for workloads that do not
#: enumerate themselves.
PROBE_JOB = ("H#H", 1, 2)

#: Classes per catalog job whose verdicts are checked against the oracles.
ORACLE_SAMPLE = 40


@dataclass(frozen=True)
class CatalogJob:
    manifold: str
    ks: int
    max_abs: int
    sample: tuple  # classes whose verdicts are cross-checked

    @property
    def classes(self) -> int:
        return (2 * self.max_abs + 1) ** len(self.sample[0])

    def argv(self, out_path: str) -> list[str]:
        return [
            "enumerate", "--manifold", self.manifold, "--ks", str(self.ks),
            "--max-abs", str(self.max_abs), "--out", out_path,
        ]


def catalog_job(manifold: str, ks: int, max_abs: int, rng: random.Random) -> CatalogJob:
    from spherecalc import cli

    rank = cli.parse_manifold_spec(manifold).manifold().b2
    sample = tuple(
        tuple(rng.randint(-max_abs, max_abs) for _ in range(rank)) for _ in range(ORACLE_SAMPLE)
    )
    return CatalogJob(manifold, ks, max_abs, sample)


def catalog_jobs(seed: int) -> list[CatalogJob]:
    """The fixed job list in seeded order, each with a seeded oracle sample."""
    rng = random.Random(f"catalog:{seed}")
    jobs = [catalog_job(*job, rng) for job in CATALOG_JOBS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# queries: a seeded stream of single `classify` calls


@dataclass(frozen=True)
class PoolManifold:
    literal: str
    ks: int
    sigma: int  # known signature, independent of the library


QUERY_POOL = (
    PoolManifold("CP2", 0, 1),
    PoolManifold("H", 0, 0),
    PoolManifold("diag(1,-1)", 1, 0),
    PoolManifold("[[1,2],[2,3]]", 1, 0),
    PoolManifold("[[0,1],[1,0]]#CP2", 0, 1),
    PoolManifold("H#H", 1, 0),
    PoolManifold("CP2#CP2#CP2#diag(-1,-1)", 1, 1),
    PoolManifold("H#H#H", 0, 0),
    PoolManifold("E8", 1, 8),
    PoolManifold("E8#H", 0, 8),
    PoolManifold("CP2#E8#diag(-1,-1,-1)", 0, 6),
    PoolManifold("E8#E8#H#H#H", 0, 16),
    PoolManifold("diag(" + ",".join(["1"] * 3 + ["-1"] * 19) + ")", 1, -16),
)

#: Malformed queries from the README's error classes, with the exit code
#: the README promises: 2 for parse errors, 1 for other input errors.
MALFORMED = (
    (["classify", "--manifold", "H#H", "--class", "[1,2,3]"], 1),
    (["classify", "--manifold", "E8", "--class", "[1,2"], 2),
    (["classify", "--manifold", "CP2", "--class", "[1.5]"], 2),
    (["classify", "--manifold", "K3#H", "--class", "[1,0]"], 2),
    (["classify", "--manifold", "H##H", "--class", "[1,0,0,0]"], 2),
    (["classify", "--manifold", "[[1,0]]", "--class", "[1]"], 2),
    (["classify", "--manifold", "H", "--ks", "2", "--class", "[1,0]"], 2),
    (["classify", "--manifold", "diag(x)", "--class", "[1]"], 2),
)

#: Malformed queries that escape `cli.main` as tracebacks at the seed
#: commit although the README promises an exit code: a non-unimodular or
#: non-symmetric matrix and an empty `diag` entry.  The traced run counts
#: how many still escape (`cli.contract_escapes`).
ESCAPING = (
    (["classify", "--manifold", "[[2,0],[0,2]]", "--class", "[1,0]"], 1),
    (["classify", "--manifold", "[[1,1],[0,1]]", "--class", "[1,0]"], 1),
    (["classify", "--manifold", "[[1,2],[2,1]]", "--class", "[1,0]"], 1),
    (["classify", "--manifold", "diag(1,,2)", "--class", "[1,0]"], 2),
)

#: Query kinds per pool manifold in one round of the stream.
ROUND_KINDS = ("zero",) + ("characteristic",) * 3 + ("divisible",) * 2 + ("ordinary",) * 6
MALFORMED_PER_ROUND = 3  # about 2% of a round
TABLE_SHARE = 0.2


@dataclass(frozen=True)
class Query:
    argv: tuple
    expected_exit: int
    pool: PoolManifold | None = None  # None for malformed queries
    x: tuple = ()
    table: bool = False


def characteristic_vector(q_rows) -> tuple[int, ...]:
    """The w in {0,1}^n with Qw = diag(Q) mod 2, by elimination over GF(2).

    Q is unimodular, hence invertible mod 2, and the characteristic
    classes are exactly w + 2Z^n.
    """
    n = len(q_rows)
    aug = [[q_rows[i][j] % 2 for j in range(n)] + [q_rows[i][i] % 2] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [a ^ b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


class QueryStream:
    """Endless seeded stream of classify queries, drawn round by round.

    Every round holds the same mix, each pool manifold with every kind in
    ``ROUND_KINDS`` plus ``MALFORMED_PER_ROUND`` malformed queries, in
    seeded order with seeded classes; so the work per round hardly depends
    on the seed.
    """

    def __init__(self, seed: int):
        from spherecalc import cli

        self.rng = random.Random(f"queries:{seed}")
        self.forms = {}
        for entry in QUERY_POOL:
            matrix = cli.parse_manifold_spec(entry.literal).matrix
            self.forms[entry] = (matrix, characteristic_vector(matrix))

    def _class(self, entry: PoolManifold, kind: str) -> tuple[int, ...]:
        rng = self.rng
        matrix, w = self.forms[entry]
        n = len(matrix)
        if kind == "zero":
            return (0,) * n
        if kind == "characteristic":  # w + 2v
            return tuple(wi + 2 * rng.randint(-2, 2) for wi in w)
        if kind == "divisible":  # d * y with d up to 10^15
            d = rng.choice((rng.randint(2, 60), rng.randint(10**3, 10**6), rng.randint(10**12, 10**15)))
            y = [rng.randint(-3, 3) for _ in range(n)]
            y[rng.randrange(n)] = rng.choice((1, -1))
            return tuple(d * v for v in y)
        return tuple(rng.randint(-5, 5) for _ in range(n))

    def _query(self, entry: PoolManifold, kind: str) -> Query:
        x = self._class(entry, kind)
        table = self.rng.random() < TABLE_SHARE
        argv = [
            "classify", "--manifold", entry.literal, "--ks", str(entry.ks),
            "--class", "[" + ",".join(map(str, x)) + "]",
        ]
        if table:
            argv += ["--format", "table"]
        return Query(tuple(argv), 0, entry, x, table)

    def round(self) -> list[Query]:
        queries = [self._query(entry, kind) for entry in QUERY_POOL for kind in ROUND_KINDS]
        for argv, code in self.rng.sample(MALFORMED, MALFORMED_PER_ROUND):
            queries.append(Query(tuple(argv), code))
        self.rng.shuffle(queries)
        return queries


# ---------------------------------------------------------------------------
# forms: fixed suites of congruence searches on pairs (A, P A P*)

SCALE, SWAP, ADD = "scale", "swap", "add"

#: Integer Gram matrices the suites extend to hermitian forms.
BASES = {
    "H": ((0, 1), (1, 0)),
    "I+-": ((1, 0), (0, -1)),
    "I2": ((1, 0), (0, 1)),
    "I++-": ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
    "HH": ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "I3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "I4": tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
    "I5": tuple(tuple(int(i == j) for j in range(5)) for i in range(5)),
    "I++--": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
}


@dataclass(frozen=True)
class FormsSpec:
    """One search instance, before construction.

    ``ring`` is ``"laurent"`` or a cyclic order.  ``moves`` build P:
    ``(SCALE, i, k, c)`` multiplies row i by c*T^k, ``(SWAP, i, j)`` swaps
    rows, ``(ADD, i, j, k, c)`` adds c*T^k times row j to row i.  The moves
    were drawn at random once and are pinned here, so every seed runs the
    same suite.  ``diag`` and ``twist`` hold ``(i, (k, c), ...)`` entries
    that add the sum of c*T^k to diagonal entry i: of A before P acts, and
    of P A P* afterwards.  ``point`` makes the instance pointed: z0 = e_i,
    and z1 = P z0 unless ``target`` gives z1 as ``((row, ((k, c), ...)), ...)``.
    """

    name: str
    ring: object
    base: str
    moves: tuple = ()
    budget: int = 5_000
    expected: str = "found"
    diag: tuple = ()
    twist: tuple = ()
    point: int | None = None
    target: tuple | None = None


_L = "laurent"
_TT = ((1, 1), (-1, 1), (0, -2))  # t + t^-1 - 2: hermitian, augments to 0

FORMS_SUITES = {
    "forms-laurent": (
        FormsSpec("H.swap-add", _L, "H", ((SWAP, 1, 0), (ADD, 1, 0, -2, -2))),
        FormsSpec("H.add-scale-swap", _L, "H", ((ADD, 1, 0, 2, 2), (SCALE, 1, -1, -1), (SWAP, 1, 0))),
        FormsSpec("I+-.swaps", _L, "I+-", ((SWAP, 0, 1), (SWAP, 1, 0), (SWAP, 0, 1))),
        FormsSpec("I++-.scale", _L, "I++-", ((SCALE, 2, 1, -1),)),
        FormsSpec("HH.scale", _L, "HH", ((SCALE, 1, -1, 1),)),
        FormsSpec("Htwisted.add-scale", _L, "H", ((ADD, 1, 0, 1, 1), (SCALE, 1, 0, -1)), diag=((0, (1, 1), (-1, 1)),)),
        FormsSpec("I+-.pointed", _L, "I+-", ((SCALE, 0, 0, -1), (SWAP, 1, 0)), point=0),
        # No witness exists: the first column of an invertible matrix
        # generates the unit ideal, and 2 - t does not.  The search can
        # only run into its budget.
        FormsSpec(
            "H.pointed-nonunit", _L, "H", (), budget=150, expected="not_found_within_budget",
            point=0, target=((0, ((0, 2), (1, -1))),),
        ),
    ),
    "forms-cyclic": (
        FormsSpec("Z2.H.add-add", 2, "H", ((ADD, 0, 1, 1, -2), (ADD, 1, 0, 1, -1))),
        FormsSpec("Z2.H.add-add-swap", 2, "H", ((ADD, 0, 1, 0, -1), (ADD, 1, 0, 1, -1), (SWAP, 1, 0))),
        FormsSpec("Z2.I2.pointed", 2, "I2", ((ADD, 1, 0, 0, -1), (SCALE, 0, 0, -1)), point=1),
        FormsSpec("Z3.I+-.scale-add-swap", 3, "I+-", ((SCALE, 0, 1, 1), (ADD, 1, 0, 1, 2), (SWAP, 1, 0))),
        FormsSpec("Z4.H.scale", 4, "H", ((SCALE, 0, 3, -1),)),
        FormsSpec("Z4.I++-.swap", 4, "I++-", ((SWAP, 2, 1),)),
        FormsSpec("Z4.HH.scale", 4, "HH", ((SCALE, 3, 1, -1),)),
        FormsSpec("Z5.H.add-swap-add", 5, "H", ((ADD, 1, 0, 1, 1), (SWAP, 0, 1), (ADD, 0, 1, 4, -2))),
        FormsSpec("Z5.I+-.add", 5, "I+-", ((ADD, 0, 1, 1, 1),)),
    ),
    "forms-refute": (
        FormsSpec("L.I+-.det-class", _L, "I+-", ((ADD, 1, 0, 1, 1),), expected="disproven", twist=((1,) + _TT,)),
        FormsSpec("Z2.1-vs-T", 2, "1", (), expected="disproven", twist=((0, (0, -1), (1, 1)),)),
        FormsSpec("Z3.I++-.det-class", 3, "I++-", ((SWAP, 0, 1),), expected="disproven", twist=((0, (1, 1), (2, 1), (0, -2)),)),
        FormsSpec("Z4.I+-.vs-I2.aug-det", 4, "I+-", (), expected="disproven", twist=((1, (0, 2)),)),
        FormsSpec("L.I++--.vs-I4.aug-signature", _L, "I++--", (), expected="disproven", twist=((2, (0, 2)), (3, (0, 2)))),
        FormsSpec("Z3.odd-vs-H.aug-parity", 3, "H", (), expected="disproven", diag=((0, (0, 1)),), twist=((0, (0, -1)),)),
        FormsSpec(
            "L.H.pointed-divisibility", _L, "H", (), expected="disproven", point=0,
            target=((0, ((0, 2),)),),
        ),
        # Definite augmentations in a changed basis: `is_isometric` runs
        # its bounded definite search, then the determinant class refutes.
        FormsSpec(
            "L.I3.definite-undecided", _L, "I3",
            ((ADD, 0, 1, 0, 2), (ADD, 0, 2, 0, 2), (ADD, 1, 0, 0, 2), (ADD, 0, 1, 0, 2), (ADD, 2, 0, 0, 1)),
            expected="disproven", twist=((1,) + _TT,),
        ),
        FormsSpec("L.I3.definite-a", _L, "I3", ((ADD, 0, 2, 0, -1), (SWAP, 0, 2), (ADD, 2, 0, 0, -1)), expected="disproven", twist=((0,) + _TT,)),
        FormsSpec("L.I3.definite-b", _L, "I3", ((ADD, 2, 1, 0, -1), (ADD, 0, 1, 0, 1)), expected="disproven", twist=((0,) + _TT,)),
        FormsSpec("L.I3.definite-c", _L, "I3", ((ADD, 0, 2, 0, 1), (ADD, 1, 2, 0, 1)), expected="disproven", twist=((0,) + _TT,)),
        FormsSpec("L.I4.definite", _L, "I4", ((ADD, 0, 1, 0, 1), (SWAP, 2, 3)), expected="disproven", twist=((2,) + _TT,)),
        FormsSpec(
            "L.I4.definite-b", _L, "I4", ((ADD, 2, 3, 0, 1), (ADD, 2, 0, 0, -1), (SWAP, 1, 2), (SWAP, 1, 0)),
            expected="disproven", twist=((0,) + _TT,),
        ),
        FormsSpec("L.I5.definite", _L, "I5", ((ADD, 3, 4, 0, -1),), expected="disproven", twist=((0,) + _TT,)),
        FormsSpec("L.I5.definite-b", _L, "I5", ((SWAP, 1, 3), (ADD, 1, 3, 0, -1)), expected="disproven", twist=((0,) + _TT,)),
        FormsSpec("L.I5.definite-c", _L, "I5", ((ADD, 4, 0, 0, -1), (ADD, 0, 4, 0, 1)), expected="disproven", twist=((0,) + _TT,)),
    ),
}


@dataclass(frozen=True)
class FormsInstance:
    name: str
    form0: object
    form1: object
    budget: int
    expected: str
    pointed0: object = None
    pointed1: object = None

    @property
    def size(self) -> int:
        return self.form0.size


def _ring(spec_ring):
    from spherecalc.groupring import CyclicRing, LaurentRing

    return LaurentRing() if spec_ring == _L else CyclicRing(spec_ring)


def _poly(ring, terms):
    out = ring.zero()
    for k, c in terms:
        out = out + ring.monomial(k, c)
    return out


def build_instance(spec: FormsSpec) -> FormsInstance:
    from spherecalc import hermitian

    ring = _ring(spec.ring)
    base = ((1,),) if spec.base == "1" else BASES[spec.base]
    m = len(base)
    a = [[ring.from_int(v) for v in row] for row in base]
    for i, *terms in spec.diag:
        a[i][i] = a[i][i] + _poly(ring, terms)
    form0 = hermitian.HermitianForm(ring, tuple(map(tuple, a)))
    p = [list(row) for row in hermitian.ring_identity(ring, m)]
    for move in spec.moves:
        if move[0] == SCALE:
            _, i, k, c = move
            p[i] = [ring.monomial(k, c) * v for v in p[i]]
        elif move[0] == SWAP:
            _, i, j = move
            p[i], p[j] = p[j], p[i]
        else:
            _, i, j, k, c = move
            p[i] = [u + ring.monomial(k, c) * v for u, v in zip(p[i], p[j])]
    p = tuple(map(tuple, p))
    b = hermitian.ring_mat_mul(
        hermitian.ring_mat_mul(p, form0.matrix, ring), hermitian.conj_transpose(p), ring
    )
    b = [list(row) for row in b]
    for i, *terms in spec.twist:
        b[i][i] = b[i][i] + _poly(ring, terms)
    form1 = hermitian.HermitianForm(ring, tuple(map(tuple, b)))
    pointed0 = pointed1 = None
    if spec.point is not None:
        z0 = tuple(ring.one() if r == spec.point else ring.zero() for r in range(m))
        if spec.target is None:
            z1 = hermitian.ring_mat_vec(p, z0, ring)
        else:
            given = dict(spec.target)
            z1 = tuple(_poly(ring, given[r]) if r in given else ring.zero() for r in range(m))
        pointed0 = hermitian.PointedHermitianForm(form0, z0)
        pointed1 = hermitian.PointedHermitianForm(form1, z1)
    return FormsInstance(spec.name, form0, form1, spec.budget, spec.expected, pointed0, pointed1)


def forms_suite(workload: str, seed: int) -> list[FormsInstance]:
    """The fixed suite of a forms workload, built and put in seeded order."""
    instances = [build_instance(spec) for spec in FORMS_SUITES[workload]]
    random.Random(f"{workload}:{seed}").shuffle(instances)
    return instances


# ---------------------------------------------------------------------------


def build_inputs(workload: str, seed: int):
    """Construct a workload's manifolds and forms: the timed set-up work."""
    if workload == "catalog":
        from spherecalc import cli

        jobs = catalog_jobs(seed)
        for job in jobs:
            _ = cli.parse_manifold_spec(job.manifold, ks=job.ks).manifold().sigma
        return jobs
    if workload == "queries":
        from spherecalc import cli

        stream = QueryStream(seed)
        for entry in QUERY_POOL:
            _ = cli.parse_manifold_spec(entry.literal, ks=entry.ks).manifold().sigma
        return stream
    if workload in FORMS_WORKLOADS:
        return forms_suite(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")
