"""Output checks.  Each returns the number of failed operations it found.

An operation is one class for ``catalog``, one query for ``queries`` and
one search instance for the ``forms-*`` workloads.  The verdict oracles
come from ``tests/oracles.py`` (imported read-only) and from ``Oracle``,
a literal evaluation of the existence conditions that uses no library
code.  ``tests/oracles.py`` pulls in sympy, so it is imported only by the
catalog sample check, which runs after the run has read its peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from workloads import CatalogJob, FormsInstance, Query, characteristic_vector

#: sha256 of each catalog with its ``generated_at`` value masked, as the
#: seed commit writes it.  A change that alters one byte of a catalog
#: fails every class of that catalog.
CATALOG_DIGESTS = {
    ("H#H#H", 0, 2): "d49db65e7866f6b1b83ff30cc9fdfb60503ada9c5860f49153c6fbe828c6f333",
    ("CP2#CP2#CP2#diag(-1,-1)", 1, 2): "0d16013d1e585f7ef7dd3eed16b2b852d28b80c75b4a624ce0b48494b45fd051",
    ("E8", 0, 1): "d4743661be0886a827a0abb72e601be24d59de52790abca6be9ed3e7654899e1",
    ("E8", 1, 1): "d96f3df684179cc2830f5a3141e83763233bc059b70203bcc22dd68ee806823f",
    ("H#H", 1, 2): "c1f9bfa71ab71a8459f8736403948ff85d309ef7119b0e28a58e83b8e2c663a4",
}

_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


def catalog_digest(data: bytes) -> str:
    return hashlib.sha256(_GENERATED_AT.sub(b'"generated_at": ""', data)).hexdigest()


class Oracle:
    """Independent existence and characteristic verdicts, cached per form.

    A class is characteristic iff it lies in the coset w + 2Z^n (see
    ``workloads.characteristic_vector``); the tests compare this with the
    brute-force oracle of ``tests/oracles.py``.
    """

    def __init__(self):
        self._w = {}

    def characteristic(self, q_rows, x) -> bool:
        if q_rows not in self._w:
            self._w[q_rows] = characteristic_vector(q_rows)
        return all((xi - wi) % 2 == 0 for xi, wi in zip(x, self._w[q_rows]))

    def exists(self, q_rows, sigma, ks, x) -> bool:
        """The two conditions evaluated as written, in Fraction arithmetic.

        For divisibility above 256 only j = 0 and j = d//2 are evaluated:
        the term is affine in j(d - j), whose extremes sit there.
        """
        if not any(x):
            return True
        n = len(x)
        d = math.gcd(*x)
        xx = sum(x[i] * q_rows[i][j] * x[j] for i in range(n) for j in range(n))
        js = range(d) if d <= 256 else (0, d // 2)
        bound = max(abs(Fraction(sigma) - Fraction(2 * j * (d - j), d * d) * xx) for j in js)
        if n < bound:
            return False
        if self.characteristic(q_rows, x):
            return (sigma - xx) // 8 % 2 == ks % 2
        return True


# ---------------------------------------------------------------------------
# catalog


def check_catalog(job: CatalogJob, code, data: bytes | None) -> int:
    """Exit code and digest of one written catalog.

    ``code`` is the exit code, or the exception that escaped ``cli.main``.
    """
    if code != 0 or data is None:
        return job.classes
    if catalog_digest(data) != CATALOG_DIGESTS[(job.manifold, job.ks, job.max_abs)]:
        return job.classes
    return 0


def check_catalog_sample(job: CatalogJob, data: bytes) -> int:
    """Cross-check the job's sampled classes against the test oracles."""
    import oracles
    from spherecalc import cli

    matrix = cli.parse_manifold_spec(job.manifold).matrix
    sigma = oracles.signature_by_sturm(matrix)
    reports = json.loads(data)["reports"]
    side = 2 * job.max_abs + 1
    failed = 0
    for x in job.sample:
        index = 0
        for c in x:
            index = index * side + c + job.max_abs
        report = reports[index]
        exists = oracles.straightline_exists(matrix, sigma, len(x), job.ks, x)
        expected = "YesByDefinition" if not any(x) else "Yes" if exists else "No"
        if (
            report["class"] != list(x)
            or report["exists"] != expected
            or report["characteristic"] != oracles.is_characteristic_bruteforce(matrix, x)
        ):
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# queries


def _table_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    exists = fields["exists"].split()[0]
    b2, sigma, ks = (int(v) for v in fields["b2 / sigma / ks"].split("/"))
    return {
        "class": json.loads(fields["class"]),
        "divisibility": int(fields["divisibility"]),
        "characteristic": fields["characteristic"] == "yes",
        "b2": b2, "sigma": sigma, "ks": ks, "exists": exists,
    }


def check_query(query: Query, code, stdout: str, matrix, oracle: Oracle) -> int:
    """1 if the query failed: an escaped exception, a wrong exit code or verdict."""
    if code != query.expected_exit:
        return 1
    if query.pool is None:
        return 0
    try:
        report = _table_fields(stdout) if query.table else json.loads(stdout)
    except (ValueError, KeyError):
        return 1
    x = query.x
    char = oracle.characteristic(matrix, x)
    exists = oracle.exists(matrix, query.pool.sigma, query.pool.ks, x)
    expected = "YesByDefinition" if not any(x) else "Yes" if exists else "No"
    ok = (
        report["class"] == list(x)
        and report["divisibility"] == math.gcd(*x)
        and report["characteristic"] == char
        and report["b2"] == len(x)
        and report["sigma"] == query.pool.sigma
        and report["ks"] == query.pool.ks
        and report["exists"] == expected
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# forms


def check_forms(instance: FormsInstance, outcome) -> int:
    """1 unless the status is the expected one and a witness verifies.

    Any verifying witness is accepted, not only the one the seed finds.
    """
    from spherecalc import hermitian

    if isinstance(outcome, BaseException) or outcome.status != instance.expected:
        return 1
    if outcome.status != hermitian.SEARCH_FOUND:
        return 0
    w = outcome.witness
    if w is None or not hermitian.verify_congruence(w, instance.form0, instance.form1):
        return 1
    if instance.pointed0 is not None:
        ring = instance.form0.ring
        if hermitian.ring_mat_vec(w, instance.pointed0.z, ring) != instance.pointed1.z:
            return 1
    return 0
