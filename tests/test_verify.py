"""Verification-suite plumbing: prime ranges and result merging."""

import dataclasses

import pytest

from padichg import hypergeo, primes_between, run_suite
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


def test_special_values_cover_both_families():
    # 5 = 2 (mod 3): G(1) = phi(twist) is checked for 6G6 as for 2G2
    (sv,) = [r for r in run_suite("identities", 5, 5) if r.name == "special-values"]
    assert sv.ok and sv.detail == "1 cases across 1 primes"


def test_wrong_twist_is_flagged(monkeypatch):
    # the identities suite reads each family's twist from its table row;
    # at 13, phi(-1) = 1 but phi(-2) = -1, so a 2G2 row with 6G6's twist
    # fails both checks that read it; a_p(lambda) != 0 at every lambda
    # in 2 .. 11 there
    row = hypergeo._FAMILIES["2g2"]
    monkeypatch.setitem(hypergeo._FAMILIES, "2g2", dataclasses.replace(row, twist=-1))
    results = {r.name: r for r in run_suite("identities", 13, 13)}
    assert "2g2-matches-phi(-2)-ap" not in results
    assert results["2g2-matches-phi(-1)-ap"].detail.startswith(
        "10 failures out of 10 cases across 1 primes: p=13 lambda=2: 2G2=-6, phi(-1)*ap=6;"
    )
    assert results["special-values"].detail == (
        "1 failures out of 1 cases across 1 primes: p=13: 2G2(1)=-1, phi(-1)=1"
    )
    assert results["tilde-at-minus-one"].ok


def test_all_runs_every_suite():
    results = run_suite("all", 5, 20)
    assert {r.suite for r in results} == set(SUITES)
    assert all(r.ok for r in results)
