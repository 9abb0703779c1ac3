"""spherecalc benchmark: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout and driven from outside, in this process, on one
thread: ``cli.main`` for ``catalog`` and ``queries``, the public
``hermitian`` search functions for the ``forms-*`` workloads.  Every
workload is a closed loop with one client: the next operation starts
when the previous one has returned.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs whole passes of the workload untraced for a quarter
of ``--seconds``, the same operations again traced, then a small traced
probe of the other workloads so that every layer is seen, then the layer
microbenchmarks, and reports the per-layer metrics; the spans go to
``.perfbench/trace-<workload>.spans.gz``.  The last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import micro
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
TRACED_SHARE = 0.25  # of --seconds, spent on the untraced copy of the traced slice
PROBE_QUERIES = 20
MAX_TRACEBACKS = 3
PROBE_FORMS = (
    ("forms-laurent", "H.swap-add"),
    ("forms-cyclic", "Z4.H.scale"),
    ("forms-refute", "L.I4.definite"),
)


def _import_program():
    """Put this checkout's src/ first on the path and import spherecalc from it."""
    for path in (HERE, TESTS, SRC):
        sys.path.insert(0, str(path))
    import spherecalc

    if Path(spherecalc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"spherecalc was imported from {spherecalc.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# statistics


def percentile(samples, p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def tail(samples) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the tail
    is the maximum.
    """
    n = len(samples)
    for p in (99, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return percentile(samples, p), f"p{p}"
    return max(samples), "max"


# ---------------------------------------------------------------------------
# one operation of each kind


def call_cli(argv):
    """Run ``cli.main`` in-process.

    Returns the exit code (or the exception that escaped), the standard
    output, and the start and duration of the call.
    """
    from spherecalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # an escape is a failed operation, not a crash
            code = exc
        elapsed = perf_counter() - start
    return code, out.getvalue(), start, elapsed


def search(instance):
    """Run one search instance; returns (outcome or escaped exception, start, seconds)."""
    from spherecalc import hermitian

    start = perf_counter()
    try:
        if instance.pointed0 is not None:
            outcome = hermitian.pointed_congruence_search(
                instance.pointed0, instance.pointed1, instance.budget
            )
        else:
            outcome = hermitian.congruence_search(instance.form0, instance.form1, instance.budget)
    except Exception as exc:
        outcome = exc
    return outcome, start, perf_counter() - start


class Runner:
    """Runs and checks operations, keeping latency samples and failure counts."""

    def __init__(self, workload: str, seed: int, inputs=None):
        from spherecalc import cli

        self.workload = workload
        self.oracle = checks.Oracle()
        self.inputs = workloads.build_inputs(workload, seed) if inputs is None else inputs
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # wall time inside the program's calls
        self.records: list[tuple] = []  # (op key, start, seconds, units) per call
        self.passes: list[range] = []  # indices into records
        self.gauge = speed.Gauge()
        self.nodes = 0
        self.node_s = 0.0
        self.catalog_bytes = 0
        self.catalog_classes = 0
        self._sampled = set()
        self._matrices = {}
        self.deferred = []  # checks that need sympy, run by finish()
        self.escapes = 0
        self._spec = cli.parse_manifold_spec
        WORK.mkdir(exist_ok=True)
        self.out_path = WORK / f"catalog-{os.getpid()}.json"
        self.files = [self.out_path]

    def _escaped(self, result) -> None:
        """Print the first few exceptions that escaped the program to stderr."""
        if isinstance(result, Exception):
            self.escapes += 1
            if self.escapes <= MAX_TRACEBACKS:
                traceback.print_exception(result, file=sys.stderr)

    def _record(self, key, start: float, seconds: float, units: int, failed: int) -> None:
        self.attempted += units
        self.failed += failed
        self.busy_s += seconds
        self.records.append((key, start, seconds, units))

    def catalog_job(self, job) -> None:
        if self.out_path.exists():
            self.out_path.unlink()
        code, _, start, seconds = call_cli(job.argv(str(self.out_path)))
        data = self.out_path.read_bytes() if self.out_path.exists() else None
        key = (job.manifold, job.ks, job.max_abs)
        self._escaped(code)
        failed = checks.check_catalog(job, code, data)
        if not failed and key not in self._sampled:
            self._sampled.add(key)
            kept = WORK / f"sample-{os.getpid()}-{len(self._sampled)}.json"
            self.out_path.replace(kept)
            self.files.append(kept)
            self.deferred.append(lambda: checks.check_catalog_sample(job, kept.read_bytes()))
        self.catalog_classes += job.classes
        self.catalog_bytes += len(data or b"")
        self._record(key, start, seconds, job.classes, failed)

    def query(self, query) -> None:
        code, stdout, start, seconds = call_cli(query.argv)
        matrix = None
        if query.pool is not None:
            matrix = self._matrices.get(query.pool)
            if matrix is None:
                matrix = self._matrices[query.pool] = self._spec(query.pool.literal).matrix
        self._escaped(code)
        failed = checks.check_query(query, code, stdout, matrix, self.oracle)
        self._record(query.argv, start, seconds, 1, failed)

    def forms(self, instance) -> None:
        outcome, start, seconds = search(instance)
        self._escaped(outcome)
        nodes = getattr(outcome, "nodes_explored", 0)
        if nodes:
            self.nodes += nodes
            self.node_s += seconds
        self._record(instance.name, start, seconds, 1, checks.check_forms(instance, outcome))

    def one_pass(self) -> list:
        """The operations of one pass: the job list, the suite, or a query round."""
        if self.workload == "catalog":
            return [(self.catalog_job, job) for job in self.inputs]
        if self.workload == "queries":
            return [(self.query, q) for q in self.inputs.round()]
        return [(self.forms, inst) for inst in self.inputs]

    def run_pass(self, ops) -> None:
        first = len(self.records)
        for op, arg in ops:
            self.gauge.maybe_probe()
            op(arg)
            self.gauge.maybe_probe()
        self.gauge.probe()
        self.passes.append(range(first, len(self.records)))

    def run_for(self, seconds: float) -> None:
        """Whole passes until ``seconds`` of time inside the program's calls."""
        while self.busy_s < seconds:
            self.run_pass(self.one_pass())

    def finish(self) -> None:
        """Run the deferred checks, then remove the files this runner wrote."""
        try:
            for check in self.deferred:
                self.failed += check()
        finally:
            self.deferred.clear()
            self.close()

    def close(self) -> None:
        for path in self.files:
            if path.exists():
                path.unlink()


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload: str, seed: int, gauge) -> float:
    """Median time, scaled to the reference speed, of a fresh interpreter
    importing spherecalc and constructing the workload's manifolds and forms."""
    code = (
        "import sys; sys.path[:0] = sys.argv[3:]; import workloads; "
        "workloads.build_inputs(sys.argv[1], int(sys.argv[2]))"
    )
    argv = [sys.executable, "-c", code, workload, str(seed), str(SRC), str(TESTS), str(HERE)]
    times = []
    for _ in range(SETUP_REPEATS):
        # A blocking wait: waiting with a timeout polls in steps of up to 50 ms.
        gauge.probe()
        start = perf_counter()
        code = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
        seconds = perf_counter() - start
        gauge.probe()
        times.append(gauge.scaled(start, seconds))
        if code:
            raise RuntimeError(f"set-up interpreter exited with {code}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    runner = Runner(workload, seed)
    try:
        runner.run_for(seconds)
        rss = peak_rss_mb()
    finally:
        runner.finish()
    # Every time is scaled to the reference speed (see speed.py), and
    # medians keep the remaining slow stretches from moving the figures.
    # Catalog and forms repeat a fixed set of operations, so each operation
    # contributes its median over passes; a query round never repeats, so
    # rounds contribute their rates.
    scaled = [runner.gauge.scaled(start, seconds) for _, start, seconds, _ in runner.records]
    if workload == "queries":
        ops_per_s = statistics.median(len(p) / sum(scaled[i] for i in p) for p in runner.passes)
        latencies = scaled
    else:
        per_op, units = {}, {}
        for (key, _, _, n), seconds in zip(runner.records, scaled):
            per_op.setdefault(key, []).append(seconds)
            units[key] = n
        medians = {key: statistics.median(v) for key, v in per_op.items()}
        ops_per_s = sum(units.values()) / sum(medians.values())
        latencies = [medians[key] / units[key] for key in medians]
    tail_s, tail_name = tail(latencies)
    metrics = {
        "setup_s": (measure_setup(workload, seed, runner.gauge), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(
        f"# {workload} seed {seed}: {runner.attempted} ops in {runner.busy_s:.3f} s of calls, "
        f"{len(latencies)} latency samples, tail = {tail_name}, failed {runner.failed}; "
        f"reference kernel median {1e3 * statistics.median(runner.gauge.took):.3f} ms "
        f"over {len(runner.gauge.took)} probes (nominal {1e3 * speed.REF_NOMINAL_S:g} ms)"
    )
    return result(runner, metrics)


def probe_ops(workload: str, seed: int, probe: Runner) -> list:
    """A few traced operations of every other workload, so each layer is seen."""
    ops = []
    if workload != "catalog":
        job = workloads.catalog_job(*workloads.PROBE_JOB, random.Random(f"probe:{seed}"))
        ops.append((probe.catalog_job, job))
    if workload != "queries":
        ops += [(probe.query, q) for q in workloads.QueryStream(seed).round()[:PROBE_QUERIES]]
    for name, instance in PROBE_FORMS:
        if workload != name:
            inst = next(i for i in workloads.forms_suite(name, seed) if i.name == instance)
            ops.append((probe.forms, inst))
    return ops


def traced(workload: str, seed: int, seconds: float) -> dict:
    runner = Runner(workload, seed)
    probe = Runner(workload, seed, inputs=())
    tracer = spans.Tracer()
    try:
        ops = []  # whole passes, until a quarter of the run's seconds
        while runner.busy_s < seconds * TRACED_SHARE:
            one = runner.one_pass()
            runner.run_pass(one)
            ops += one
        untraced_s = runner.busy_s
        half = (runner.nodes, runner.node_s, runner.catalog_classes, runner.catalog_bytes)
        extra = probe_ops(workload, seed, probe)
        with tracer.installed():
            for i, (op, arg) in enumerate(ops + extra):
                tracer.current_request = i
                op(arg)
        traced_s = runner.busy_s - untraced_s
    finally:
        runner.finish()
        probe.finish()
    # The probe counts in the layer metrics but not in the tracing
    # overhead, which compares the same slice both ways.
    traced_nodes = runner.nodes - half[0] + probe.nodes
    traced_node_s = runner.node_s - half[1] + probe.node_s
    classes = runner.catalog_classes - half[2] + probe.catalog_classes
    catalog_bytes = runner.catalog_bytes - half[3] + probe.catalog_bytes
    traced_total_s = traced_s + probe.busy_s
    escapes = sum(1 for argv, _ in workloads.ESCAPING if isinstance(call_cli(argv)[0], Exception))

    agg = tracer.aggregate()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{workload}.spans.gz")

    def incl(name):
        return agg.get(name, {}).get("incl_ns", 0)

    def count(name):
        return agg.get(name, {}).get("count", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    mains = count("cli.main")
    classifies = count("classifier.classify")
    enumerates = count("cli.cmd_enumerate")
    searches = count("hermitian.congruence_search")
    parse = sum(incl(n) for n in ("cli.build_parser", spans.PARSE_ARGS, "cli.parse_manifold_spec", "cli.parse_int_vector"))
    main_self = sum(agg.get(n, {}).get("self_ns", 0) for n in ("cli.main", "cli.cmd_classify"))
    metrics = {
        "cli.parse_us": (ratio(parse, mains) / 1e3, "us"),
        "cli.main_self_us": (ratio(main_self, mains) / 1e3, "us"),
        "cli.serialize_us_per_class": (ratio(incl("cli.to_json_text"), classes) / 1e3, "us"),
        "cli.enumerate_self_s": (ratio(agg.get("cli.cmd_enumerate", {}).get("self_ns", 0), enumerates) / 1e9, "s"),
        "cli.catalog_mb": (ratio(catalog_bytes, enumerates) / 1e6, "MB"),
        "cli.contract_escapes": (escapes, "count"),
        "classifier.classify_us": (ratio(incl("classifier.classify"), classifies) / 1e3, "us"),
        "classifier.lw_bound_calls_per_class": (ratio(count("classifier.lw_bound"), classifies), "count"),
        "classifier.exists_calls_per_class": (ratio(count("classifier.exists_simple_sphere"), classifies), "count"),
        "intlattice.is_isometric_ms": (ratio(incl("intlattice.is_isometric"), count("intlattice.is_isometric")) / 1e6, "ms"),
        "intlattice.is_isometric_calls": (ratio(count("intlattice.is_isometric"), searches), "count"),
        "hermitian.nodes": (traced_nodes, "count"),
        "hermitian.nodes_per_s": (ratio(traced_nodes, traced_node_s), "1/s"),
        "hermitian.ring_mat_mul_calls_per_node": (ratio(count("hermitian.ring_mat_mul"), traced_nodes), "count"),
        "hermitian.verify_us": (ratio(incl("hermitian.verify_congruence"), count("hermitian.verify_congruence")) / 1e3, "us"),
        "trace.overhead_pct": (100 * (traced_s - untraced_s) / untraced_s, "%"),
    }
    for layer in ("cli", "classifier", "intlattice", "groupring", "hermitian"):
        own = sum(v["self_ns"] for k, v in agg.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_pct"] = (100 * own / 1e9 / traced_total_s, "%")
    metrics.update(micro.run(seed))
    print(
        f"# {workload} seed {seed} traced: {len(tracer)} spans, slice {untraced_s:.3f} s untraced "
        f"vs {traced_s:.3f} s traced, probe {probe.busy_s:.3f} s, failed {runner.failed + probe.failed}"
    )
    runner.attempted += probe.attempted
    runner.failed += probe.failed
    return result(runner, metrics)


def result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.trace:
        out = traced(args.workload, args.seed, args.seconds)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
