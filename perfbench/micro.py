"""Layer microbenchmarks on operands drawn from the workloads' own inputs.

Ring elements and matrices come from the three forms suites and integer
forms from the query pool; the run's seed picks which.  Each figure is
the median over ``REPEATS`` timed loops of the mean time per call.
"""

from __future__ import annotations

import random
import statistics
from itertools import cycle, islice
from time import perf_counter

import workloads

REPEATS = 5
MIN_LOOP_S = 0.02
SAMPLE = 64


def per_call_s(fn, operands) -> float:
    """Median over loops of seconds per ``fn(*args)``, cycling the operands."""
    calls = 1
    while True:  # calibrate: enough calls that one loop lasts MIN_LOOP_S
        batch = list(islice(cycle(operands), calls))
        start = perf_counter()
        for args in batch:
            fn(*args)
        if perf_counter() - start >= MIN_LOOP_S:
            break
        calls *= 2
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for args in batch:
            fn(*args)
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def _block_diag(ring, a, b):
    zero = ring.zero()
    m, n = len(a), len(b)
    rows = [tuple(row) + (zero,) * n for row in a]
    rows += [(zero,) * m + tuple(row) for row in b]
    return tuple(rows)


def run(seed: int) -> dict[str, tuple[float, str]]:
    from spherecalc import cli, hermitian, intlattice
    from spherecalc.groupring import LaurentRing

    rng = random.Random(f"micro:{seed}")
    matrices = {"laurent": {}, "cyclic": {}}  # family -> size -> [(ring, matrix)]
    elements = {"laurent": [], "cyclic": []}
    for workload in workloads.FORMS_WORKLOADS:
        for inst in workloads.forms_suite(workload, seed):
            ring = inst.form0.ring
            family = "laurent" if isinstance(ring, LaurentRing) else "cyclic"
            for form in (inst.form0, inst.form1):
                matrices[family].setdefault(form.size, []).append((ring, form.matrix))
                elements[family].extend(v for row in form.matrix for v in row if v)

    out = {}
    lau = list(zip(rng.choices(elements["laurent"], k=SAMPLE), rng.choices(elements["laurent"], k=SAMPLE)))
    out["groupring.laurent_mul_ns"] = (1e9 * per_call_s(lambda a, b: a * b, lau), "ns")
    out["groupring.laurent_add_ns"] = (1e9 * per_call_s(lambda a, b: a + b, lau), "ns")
    by_order = {}
    for v in elements["cyclic"]:
        by_order.setdefault(v.d, []).append(v)
    cyc = []
    for _ in range(SAMPLE):
        same = by_order[rng.choice(sorted(by_order))]
        cyc.append((rng.choice(same), rng.choice(same)))
    out["groupring.cyclic_mul_ns"] = (1e9 * per_call_s(lambda a, b: a * b, cyc), "ns")
    out["groupring.cyclic_add_ns"] = (1e9 * per_call_s(lambda a, b: a + b, cyc), "ns")
    units = [(v,) for v in rng.choices(elements["cyclic"], k=SAMPLE)]
    out["groupring.cyclic_is_unit_us"] = (1e6 * per_call_s(lambda v: v.is_unit(), units), "us")

    for family, sizes in matrices.items():
        for m in (2, 3, 4):
            pairs = []
            for ring, a in rng.choices(sizes[m], k=SAMPLE):
                same_ring = [b for r, b in sizes[m] if r == ring]
                pairs.append((a, rng.choice(same_ring), ring))
            out[f"hermitian.ring_mat_mul_us.{family}.m{m}"] = (
                1e6 * per_call_s(hermitian.ring_mat_mul, pairs), "us"
            )
        for m in (2, 3, 4, 5, 6):
            if m in sizes:
                dets = [(a, ring) for ring, a in rng.choices(sizes[m], k=SAMPLE)]
            else:  # block sums of the suite's own matrices over one ring
                splits = [
                    (ring, x, y)
                    for k in sizes if m - k in sizes
                    for ring, x in sizes[k]
                    for r2, y in sizes[m - k] if r2 == ring
                ]
                dets = [(_block_diag(r, x, y), r) for r, x, y in rng.choices(splits, k=SAMPLE)]
            out[f"hermitian.ring_det_us.{family}.m{m}"] = (
                1e6 * per_call_s(hermitian.ring_det, dets), "us"
            )

    pool = [cli.parse_manifold_spec(e.literal).matrix for e in workloads.QUERY_POOL]
    setups = [(q,) for q in rng.choices(pool, k=SAMPLE)]
    out["intlattice.form_setup_us"] = (
        1e6 * per_call_s(lambda q: intlattice.signature(intlattice.IntersectionForm(q)), setups), "us"
    )
    for rank in (8, 22):
        same_rank = [(q,) for q in pool if len(q) == rank]
        picked = rng.choices(same_rank, k=SAMPLE)
        out[f"intlattice.signature_us.r{rank}"] = (1e6 * per_call_s(intlattice.signature, picked), "us")
    return out
