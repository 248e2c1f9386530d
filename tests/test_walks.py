"""Walk counts, de-biasing polynomials, and the embedded reference tables."""

import numpy as np
import pytest

from centreg import (
    Graphon,
    build_true_adjacency,
    count_even_path_walks,
    count_even_path_walks_isomorphism,
    derive_b,
    derive_g,
    evaluate_b,
    evaluate_g,
    observe,
    reference_b,
    reference_g,
    sample_latent,
)
from centreg.errors import BudgetExceeded, OddLength, Unsupported


def test_walk_counts_small():
    assert count_even_path_walks(2).counts == {1: 1}
    # i-j-i-j-i; i-j-i-k-i; i-j-k-j-i
    assert count_even_path_walks(4).counts == {1: 1, 2: 2}


def test_walk_counts_odd_length_rejected():
    with pytest.raises(OddLength):
        count_even_path_walks(3)
    with pytest.raises(OddLength):
        count_even_path_walks_isomorphism(3)


def test_walk_counts_budget():
    with pytest.raises(BudgetExceeded):
        count_even_path_walks(16)
    with pytest.raises(BudgetExceeded):
        count_even_path_walks_isomorphism(10)


@pytest.mark.parametrize("t", [2, 4, 6])
def test_independent_enumerators_agree(t):
    fast = count_even_path_walks(t).counts
    brute = count_even_path_walks_isomorphism(t).counts
    assert fast == brute


def test_derive_g_base_and_small():
    assert derive_g(1).coeffs == {1: 1}
    assert derive_g(2).coeffs == {1: -1, 2: 1}
    assert derive_g(4).coeffs == {1: -5, 2: 4, 3: -3, 4: 1}


@pytest.mark.parametrize("t", range(1, 11))
def test_derive_g_matches_reference(t):
    assert derive_g(t).coeffs == reference_g(t).coeffs


def test_derive_g_budget():
    with pytest.raises(BudgetExceeded):
        derive_g(15)
    with pytest.raises(BudgetExceeded):
        derive_g(0)


def test_derive_b_t1_and_t2():
    assert derive_b(1).coeffs == {(1, 2): 1}
    assert derive_b(2).coeffs == {
        (1, 2): 1, (1, 3): -3, (1, 4): 3,
        (2, 3): 3, (2, 4): -2,
        (3, 4): 2,
    }


@pytest.mark.parametrize("T", range(1, 5))
def test_derive_b_matches_reference(T):
    assert derive_b(T).coeffs == reference_b(T).coeffs


@pytest.mark.slow
def test_derive_b_matches_reference_extended():
    assert derive_b(5).coeffs == reference_b(5).coeffs


def test_derive_b_budget():
    with pytest.raises(BudgetExceeded):
        derive_b(6)
    with pytest.raises(BudgetExceeded):
        derive_b(0)


def test_reference_spot_values_from_tables():
    assert reference_b(3).coeffs[(5, 6)] == 2
    assert reference_b(5).coeffs[(9, 10)] == 4
    assert reference_b(6).coeffs[(1, 12)] == 15981
    assert reference_b(10).coeffs[(19, 20)] == 9
    assert reference_g(13).coeffs[1] == 186702
    assert reference_g(20).coeffs[20] == 1
    assert reference_g(7).coeffs[3] == 10


def test_reference_range_guards():
    with pytest.raises(Unsupported):
        reference_b(11)
    with pytest.raises(Unsupported):
        reference_g(21)


def test_evaluate_b_on_triangle():
    # iota' Ahat iota = 6 on K3, so b_1 evaluates to 6 delta^2
    moments = [3.0, 6.0, 12.0, 24.0]
    val = evaluate_b(reference_b(1), 0.5, moments)
    assert val == pytest.approx(0.25 * 6.0)


def test_g_estimates_cubed_moment():
    # for the flat graphon, the mean of g(3) over observations tracks
    # iota' A^3 iota up to the remainder the derivation drops, which is
    # O(p + 1/n) relative to the subtracted correction; at p = 0.15 that
    # deterministic remainder is comparable to three standard errors, so
    # the tolerance adds it explicitly
    n, p = 400, 0.15
    g = Graphon.constant(1.0)
    u = sample_latent(n, seed=123)
    a = build_true_adjacency(g, u, p)
    dense = a.entries
    target = float(np.ones(n) @ (dense @ (dense @ (dense @ np.ones(n)))))
    g3 = derive_g(3)
    g_draws, correction_draws = [], []
    for r in range(200):
        a_hat = observe(a, seed=r)
        v = np.ones(n)
        moments = [float(n)]
        for _ in range(3):
            v = a_hat.matvec(v)
            moments.append(float(v.sum()))
        g_draws.append(evaluate_g(g3, moments))
        correction_draws.append(moments[3] - g_draws[-1])
    g_draws = np.asarray(g_draws)
    se = g_draws.std(ddof=1) / np.sqrt(len(g_draws))
    remainder = (p + 1.0 / n) * abs(float(np.mean(correction_draws)))
    assert abs(g_draws.mean() - target) <= 3 * se + remainder
