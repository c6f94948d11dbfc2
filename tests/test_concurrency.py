"""Determinism under concurrent use: values are immutable, ops are pure."""

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import cfindep
from cfindep import sequences
from cfindep.bigreal import interval, poly
from cfindep.bigreal.dyadic import Dyadic
from cfindep.bigreal.poly import IntPoly, isolate_real_roots
from cfindep.catalog import build_config
from cfindep.criteria import check_all
from cfindep.lemmas import run_lemma2_suite
from cfindep.sequences import nth_prime, prime_pi, spec
from cfindep.cfcore import enclose_value
from test_golden_reports import report_digest


def test_parallel_checks_are_deterministic():
    def job(seed):
        rep = check_all(build_config("ex1"), 4, 128)
        suite = run_lemma2_suite(trials=100, seed=seed)
        enc = enclose_value(spec("constant", value=Fraction(2)), 8, 96)
        return (
            rep.overall,
            tuple(c.verdict for c in rep.conditions),
            report_digest(rep),
            suite.worst,
            enc.lo.as_fraction(),
            enc.hi.as_fraction(),
        )

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(job, [7] * 8))
    assert all(r == results[0] for r in results)
    assert results[0][0] == "pass"
    # every margin endpoint, not only the verdicts, equals a serial run's
    assert results[0][2] == report_digest(check_all(build_config("ex1"), 4, 128))


def test_parallel_sieve_growth():
    with ThreadPoolExecutor(max_workers=8) as pool:
        primes = list(pool.map(nth_prime, range(1, 200)))
    assert primes[:8] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_pi(nth_prime(199)) == 199


class _SlowAppendList(list):
    """A list that gives up the interpreter between computing and appending."""

    def append(self, item):
        time.sleep(1e-4)
        super().append(item)


def test_harmonic_cache_survives_thread_switching(monkeypatch):
    # c4 quotients a_n * (j + H_n) read H_n from a cache shared by all
    # threads; a lost or doubled append there shifts every later H_n.  c4's
    # own base 2**(n * 2**n) caps n near 12, so the base here is a_n = 1.
    seqs = [spec("harmonic", base=spec("constant", value=Fraction(1)), j=j) for j in (3, 2, 1)]
    ns = range(1, 101)
    expected = [s.quotient(n) for n in ns for s in seqs]

    def job(_):
        return [s.quotient(n) for n in ns for s in seqs]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(sequences, "_HARMONIC", _SlowAppendList([Fraction(0)]))
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(job, range(4), timeout=60))
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(old)


def test_shared_point_caches_under_thread_switching():
    # the log2/exp2 point caches are filled by whichever thread gets there
    # first; every thread must still see the serial reports exactly
    caches = (interval._ln_mantissa_ends, interval._log2_ends, interval._exp2_ends)
    names = ("c4", "c5", "t2")

    def job(_):
        return [check_all(build_config(name), 3, 256) for name in names]

    for c in caches:
        c.cache_clear()
    expected = job(None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c in caches:
            c.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(job, range(4), timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert all(r == expected for r in results)


def test_refinement_memo_under_thread_switching():
    # the refinement memo is filled by whichever thread gets there first;
    # every thread must still see the memo-free endpoints exactly
    cases = [(p, iv, Dyadic(1, -bits))
             for p in (IntPoly.of(14, -8, 1), IntPoly.of(-1, -1, 1), IntPoly.of(-2, 0, 0, 0, 0, 0, 1))
             for iv in isolate_real_roots(p) for bits in (64, 512, 2048)]
    expected = [poly._refine_root.__wrapped__(*case) for case in cases]

    def job(k):
        return [poly.refine_root(*case) for case in cases[k:] + cases[:k]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            poly._refine_root.cache_clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(job, range(4), timeout=120))
            for k, got in enumerate(results):
                assert got == expected[k:] + expected[:k]
    finally:
        sys.setswitchinterval(old)


# Runs in a fresh interpreter, so the first calls of sqrt2_field() and
# phi_field() in the process are the ones that race.
_FIELD_RACE = """
import sys, threading
sys.setswitchinterval(1e-6)
from cfindep.sequences import phi_field, sqrt2_field

start = threading.Barrier(8)
got = []

def job():
    start.wait()
    got.append((sqrt2_field(), phi_field()))

threads = [threading.Thread(target=job) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(len({id(s) for s, _ in got}), len({id(p) for _, p in got}))
for k in range(2):
    acc = got[0][k].generator()
    for fields in got[1:]:
        acc = acc + fields[k].generator()  # FieldMismatch across distinct fields
    assert acc.coords == (0, 8)
"""


def test_shared_fields_have_one_identity_across_threads():
    src = os.path.dirname(os.path.dirname(cfindep.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", _FIELD_RACE], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "1"]
