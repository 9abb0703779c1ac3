"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repository root."""

import json
import random
from pathlib import Path

import pytest

import checks
import oracles
import run
import workloads
from spherecalc import classifier, cli, hermitian

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# inputs


def test_same_seed_gives_same_inputs():
    assert workloads.catalog_jobs(7) == workloads.catalog_jobs(7)
    assert workloads.QueryStream(7).round() == workloads.QueryStream(7).round()
    for name in workloads.FORMS_WORKLOADS:
        first, second = workloads.forms_suite(name, 7), workloads.forms_suite(name, 7)
        assert first == second


def test_other_seed_gives_other_inputs():
    assert workloads.catalog_jobs(7) != workloads.catalog_jobs(8)
    assert workloads.QueryStream(7).round() != workloads.QueryStream(8).round()


def test_query_rounds_keep_the_same_mix():
    stream = workloads.QueryStream(3)
    first, second = stream.round(), stream.round()
    assert len(first) == len(second)
    assert sorted(q.pool.literal for q in first if q.pool) == sorted(q.pool.literal for q in second if q.pool)
    assert sum(q.pool is None for q in first) == workloads.MALFORMED_PER_ROUND
    ranks = {len(q.x) for q in first if q.pool}
    assert min(ranks) == 1 and max(ranks) == 22


def test_pool_signatures_match_the_oracle():
    for entry in workloads.QUERY_POOL:
        matrix = cli.parse_manifold_spec(entry.literal).matrix
        assert oracles.signature_by_sturm(matrix) == entry.sigma, entry.literal


def test_characteristic_coset_matches_brute_force():
    rng = random.Random(5)
    oracle = checks.Oracle()
    bases = [cli.parse_manifold_spec(s).matrix for s in ("H#H", "CP2#diag(-1,1)", "[[1,2],[2,3]]#H", "E8")]
    for _ in range(20):
        base = rng.choice(bases)
        q = oracles.conjugate_form(base, oracles.random_unimodular(rng, len(base)))
        table = oracles.characteristic_pairing_table(q)
        for _ in range(10):
            x = tuple(rng.randint(-3, 3) for _ in range(len(q)))
            assert oracle.characteristic(q, x) == oracles.is_characteristic_bruteforce(q, x, table)


def test_oracle_exists_agrees_with_the_straight_line_oracle():
    rng = random.Random(9)
    oracle = checks.Oracle()
    for literal, ks in (("H#H", 0), ("CP2#diag(-1)", 1), ("E8", 0)):
        matrix = cli.parse_manifold_spec(literal).matrix
        sigma = oracles.signature_by_sturm(matrix)
        for _ in range(30):
            x = tuple(rng.choice((1, 2, 3)) * rng.randint(-3, 3) for _ in range(len(matrix)))
            assert oracle.exists(matrix, sigma, ks, x) == oracles.straightline_exists(matrix, sigma, len(x), ks, x)


def test_forms_suites_hold_the_required_instances():
    suites = {name: workloads.FORMS_SUITES[name] for name in workloads.FORMS_WORKLOADS}
    assert any(s.expected == "not_found_within_budget" for s in suites["forms-laurent"])
    assert any(s.ring == 5 for s in suites["forms-cyclic"])
    assert all(s.expected == "disproven" for s in suites["forms-refute"])
    for spec in suites["forms-refute"]:
        inst = workloads.build_instance(spec)
        if "definite" in spec.name:
            assert 3 <= inst.size <= 5


# ---------------------------------------------------------------------------
# failures are counted


def _job():
    return workloads.catalog_job(*workloads.PROBE_JOB, random.Random(1))


def _catalog_bytes(job, tmp_path):
    out = tmp_path / "c.json"
    code, *_ = run.call_cli(job.argv(str(out)))
    assert code == 0
    return out.read_bytes()


def test_catalog_corruption_fails_every_class(tmp_path):
    job = _job()
    data = _catalog_bytes(job, tmp_path)
    assert checks.check_catalog(job, 0, data) == 0
    assert checks.check_catalog_sample(job, data) == 0
    corrupted = data.replace(b'"exists": "No"', b'"exists": "Yes"', 1)
    assert checks.check_catalog(job, 0, corrupted) == job.classes
    assert checks.check_catalog(job, RuntimeError("escaped"), None) == job.classes


def test_catalog_sample_catches_a_wrong_verdict(tmp_path):
    job = _job()
    data = json.loads(_catalog_bytes(job, tmp_path))
    for report in data["reports"]:
        report["exists"] = "Yes" if report["exists"] == "No" else report["exists"]
    assert checks.check_catalog_sample(job, json.dumps(data).encode()) > 0


def test_corrupted_query_report_is_a_failure():
    stream = workloads.QueryStream(2)
    oracle = checks.Oracle()
    query = next(q for q in stream.round() if q.pool is not None and not q.table and any(q.x))
    matrix = cli.parse_manifold_spec(query.pool.literal).matrix
    code, stdout, *_ = run.call_cli(query.argv)
    assert checks.check_query(query, code, stdout, matrix, oracle) == 0
    report = json.loads(stdout)
    report["exists"] = "No" if report["exists"] == "Yes" else "Yes"
    assert checks.check_query(query, code, json.dumps(report), matrix, oracle) == 1
    assert checks.check_query(query, 1, stdout, matrix, oracle) == 1
    assert checks.check_query(query, 0, "not json", matrix, oracle) == 1


def test_table_reports_are_checked():
    query = next(q for q in workloads.QueryStream(4).round() if q.table)
    matrix = cli.parse_manifold_spec(query.pool.literal).matrix
    code, stdout, *_ = run.call_cli(query.argv)
    assert checks.check_query(query, code, stdout, matrix, checks.Oracle()) == 0
    flipped = stdout.replace("characteristic: yes", "characteristic: no") if "characteristic: yes" in stdout \
        else stdout.replace("characteristic: no", "characteristic: yes")
    assert checks.check_query(query, code, flipped, matrix, checks.Oracle()) == 1


def test_malformed_queries_follow_the_exit_code_contract():
    for argv, expected in workloads.MALFORMED:
        query = workloads.Query(tuple(argv), expected)
        code, *_ = run.call_cli(argv)
        assert checks.check_query(query, code, "", None, checks.Oracle()) == 0, argv


def test_escaping_exception_is_a_failed_query_not_a_crash(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("escaped")

    monkeypatch.setattr(classifier, "classify", boom)
    runner = run.Runner("queries", 1)
    ops = runner.one_pass()
    runner.run_pass(ops)
    runner.finish()
    valid = sum(1 for _, q in ops if q.pool is not None)
    assert runner.attempted == len(ops)
    assert runner.failed == valid


def test_escaping_inputs_still_escape_or_exit_as_promised():
    for argv, expected in workloads.ESCAPING:
        code, *_ = run.call_cli(argv)
        assert isinstance(code, Exception) or code == expected


def _instance(name):
    return next(i for w in workloads.FORMS_WORKLOADS for i in workloads.forms_suite(w, 1) if i.name == name)


def test_wrong_status_or_bad_witness_is_a_failure():
    inst = _instance("H.swap-add")
    outcome, *_ = run.search(inst)
    assert outcome.status == "found"
    assert checks.check_forms(inst, outcome) == 0
    ring = inst.form0.ring
    bogus = hermitian.CongruenceOutcome("found", witness=hermitian.ring_identity(ring, inst.size))
    assert checks.check_forms(inst, bogus) == 1
    assert checks.check_forms(inst, hermitian.CongruenceOutcome("disproven", reason="x")) == 1
    assert checks.check_forms(inst, RuntimeError("escaped")) == 1


def test_pointed_witness_must_carry_the_point():
    inst = _instance("Z2.I2.pointed")
    outcome, *_ = run.search(inst)
    assert checks.check_forms(inst, outcome) == 0
    # W * swap still carries form0 to form1 (swap fixes the identity form
    # form0), but sends the point elsewhere
    ring = inst.form0.ring
    swap = ((ring.zero(), ring.one()), (ring.one(), ring.zero()))
    moved = hermitian.ring_mat_mul(outcome.witness, swap, ring)
    assert hermitian.verify_congruence(moved, inst.form0, inst.form1)
    assert checks.check_forms(inst, hermitian.CongruenceOutcome("found", witness=moved)) == 1


# ---------------------------------------------------------------------------
# statistics and emitted metrics


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    samples = list(range(1, 2001))
    assert run.tail(samples) == (1980, "p99")
    assert run.tail(list(range(1, 101)))[1] == "p90"
    assert run.tail([3, 1, 2]) == (3, "max")


def _emitted(argv, capsys):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(trace, section, capsys):
    out = _emitted(
        ["--workload", "forms-cyclic", "--seed", "1", "--seconds", "0.01", "--trace", str(trace)], capsys
    )
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_benchmark_json_follows_its_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
