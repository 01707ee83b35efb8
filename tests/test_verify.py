"""Verification-suite plumbing: prime ranges and result merging."""

import pytest

from padichg import primes_between, run_suite
from padichg.verify import SUITES

from oracles import small_primes


def test_primes_between_matches_trial_division():
    assert primes_between(5, 100) == small_primes(5, 100)
    assert primes_between(10, 10) == []
    assert primes_between(13, 13) == [13]
    assert primes_between(100, 5) == []


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("everything", 5, 20)


def test_identities_suite_small_range():
    results = run_suite("identities", 5, 40)
    assert results and all(r.ok for r in results)
    names = [r.name for r in results]
    assert "2g2-matches-phi(-2)-ap" in names
    assert "6g6-matches-phi(-1)-ap" in names
    assert "tilde-at-minus-one" in names


def test_all_runs_every_suite():
    results = run_suite("all", 5, 20)
    assert {r.suite for r in results} == set(SUITES)
    assert all(r.ok for r in results)
