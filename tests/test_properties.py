"""Property-based invariants over random primes, residues, and samples."""

import math

from hypothesis import given, settings, strategies as st

from padichg import (
    GnValue,
    eval_family,
    family_sweep,
    lift_signed,
    pk_poly,
    semicircle_cdf,
    teichmuller,
)

from conftest import cached_ctx, cached_table
from oracles import companion_closed_form

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
primes = st.sampled_from(PRIMES)


@settings(max_examples=60, deadline=None)
@given(primes, st.integers(1, 10**6), st.integers(1, 10**6))
def test_teichmuller_is_multiplicative(p, s, t):
    if s % p == 0 or t % p == 0:
        return
    pn = p**3
    ws, wt = teichmuller(p, s, 3), teichmuller(p, t, 3)
    assert teichmuller(p, s * t, 3) == ws * wt % pn
    assert ws % p == s % p
    assert pow(ws, p - 1, pn) == 1


@settings(max_examples=60, deadline=None)
@given(primes, st.integers(0, 10**6))
def test_gamma_functional_equation(p, m):
    # Gamma_p(x+1) = -x Gamma_p(x) for units x, else -Gamma_p(x)
    t = cached_table(p, 3)
    pn = t.modulus
    lhs = t.gamma_residue(m + 1)
    fac = (pn - m) % pn if m % p else pn - 1
    assert lhs == fac * t.gamma_residue(m) % pn


@settings(max_examples=60, deadline=None)
@given(primes, st.integers(0, 10**6))
def test_gamma_reflection(p, r):
    t = cached_table(p, 3)
    pn = t.modulus
    x0 = r % pn % p or p
    prod = t.gamma_residue(r) * t.gamma_residue(1 - r) % pn
    assert prod == (-1) ** x0 % pn


@settings(max_examples=60, deadline=None)
@given(primes, st.data())
def test_lift_signed_round_trip(p, data):
    bound = math.isqrt(4 * p)
    v = data.draw(st.integers(-bound, bound))
    assert lift_signed(GnValue(v % p**3, p**3, bound)) == v


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((4, 6, 8, 10, 12)),
    st.integers(-40, 40),
    st.integers(2, 60),
)
def test_companion_recurrence_matches_closed_form(k, s, p):
    assert pk_poly(k, s, p) == companion_closed_form(k, s, p)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_semicircle_cdf_monotone(a, b):
    lo, hi = sorted((a, b))
    assert semicircle_cdf(lo) <= semicircle_cdf(hi)
    assert 0.0 <= semicircle_cdf(lo) <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((7, 13, 19, 31)), st.data())
def test_scalar_eval_matches_sweep(p, data):
    lam = data.draw(st.integers(0, p - 1))
    fam = data.draw(st.sampled_from(("2g2", "2g2t")))
    ctx = cached_ctx(p)
    sweep = family_sweep(ctx, fam)
    got = eval_family(ctx, cached_table(p, 3), fam, lam).lift()
    assert got == int(sweep[lam])
