import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from latpath import (BoundingPair, DirectSum, DomainError, Dual, FreeExt,
                     InvalidPavingError, InvalidRelaxationError, ParallelExt,
                     Paving, Relax, ResourceError, Truncate, Uniform,
                     brute_circuits, brute_connected_flats, brute_connectivity,
                     brute_fundamental_flats, catalog, construct, dual_table,
                     entry_table, has_minor, is_isomorphic, minor,
                     paving_table, relax_table, to_rank_table)
from latpath import ranktable
from gen import all_pairs, band_pair, random_table
from oracles import match_rank, pair_sets

P3 = Truncate(DirectSum(Uniform(2, 3), Uniform(2, 3)), 3)


def test_uniform_ranks():
    t = construct(Uniform(2, 4))
    assert t.rank({1, 2, 3}) == 2
    assert t.rank({3}) == 1
    assert t.rank(set()) == 0


def test_truncated_sum_ranks():
    t = construct(P3)
    assert t.rank({1, 2, 3}) == 2
    assert t.rank({1, 2, 4}) == 3
    assert t.rank_total == 3


def test_dual_of_free_point_construction():
    t = construct(Dual(catalog("Dn", (3,)).expr))
    assert t.size == 6
    assert t.rank_total == 3


def test_free_and_parallel_extension_ranks():
    t = construct(FreeExt(Uniform(2, 3)))
    assert t.size == 4 and t.rank_total == 2
    assert all(t.rank(set(b)) == 2
               for b in [(1, 2), (1, 4), (3, 4)])


def test_minor_delete_keeps_uniform():
    t = minor(construct(Uniform(2, 4)), {4}, set())
    assert is_isomorphic(t, construct(Uniform(2, 3))) is not None


def test_minor_contract_drops_rank():
    t = minor(construct(Uniform(2, 4)), set(), {1})
    assert is_isomorphic(t, construct(Uniform(1, 3))) is not None


def test_minor_contract_point_of_truncated_sum():
    t = minor(construct(P3), set(), {1})
    assert t.rank_total == 2
    assert t.rank({2, 3}) == 1  # 2-circuit survives the contraction
    assert frozenset({2, 3}) in set(brute_circuits(t))
    # the contraction is connected: no rank-additive split exists
    assert brute_connectivity(t) != 1


def test_minor_rejects_overlap():
    with pytest.raises(DomainError):
        minor(construct(Uniform(2, 4)), {1}, {1})


def test_brute_circuits_uniform():
    t = construct(Uniform(2, 4))
    got = list(brute_circuits(t))
    assert sorted(sorted(c) for c in got) == [
        [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_brute_circuits_truncated_sum():
    got = list(brute_circuits(construct(P3)))
    assert len(got) == 11
    assert frozenset({1, 2, 3}) in got and frozenset({4, 5, 6}) in got
    assert sum(1 for c in got if len(c) == 4) == 9


def test_brute_circuits_free_matroid_empty():
    assert list(brute_circuits(construct(Uniform(3, 3)))) == []


def test_brute_connected_flats():
    got = brute_connected_flats(construct(P3))
    assert [(sorted(f), r) for f, r in got] == [
        ([1, 2, 3], 2), ([4, 5, 6], 2), ([1, 2, 3, 4, 5, 6], 3)]
    u = brute_connected_flats(construct(Uniform(2, 4)))
    assert [(sorted(f), r) for f, r in u] == [([1, 2, 3, 4], 2)]
    tiny = brute_connected_flats(construct(Uniform(1, 2)))
    assert [(sorted(f), r) for f, r in tiny] == [([1, 2], 1)]


def test_brute_fundamental_flats():
    got = brute_fundamental_flats(construct(P3))
    assert sorted(sorted(f) for f, _ in got) == [[1, 2, 3], [4, 5, 6]]
    assert brute_fundamental_flats(construct(Uniform(2, 4))) == []
    prism = entry_table(catalog("Cnk", (4, 2)))
    assert brute_fundamental_flats(prism) == []


def test_brute_connectivity_values():
    assert brute_connectivity(construct(Uniform(2, 4))) == float("inf")
    assert brute_connectivity(construct(P3)) == 2
    assert brute_connectivity(
        construct(DirectSum(Uniform(1, 2), Uniform(1, 2)))) == 1


def test_is_isomorphic_relabel():
    a = construct(Uniform(2, 4))
    b = minor(construct(Uniform(2, 5)), {3}, set())
    found = is_isomorphic(a, b)
    assert found is not None
    assert sorted(found) == sorted(a.ground)


def test_is_isomorphic_size_mismatch():
    assert is_isomorphic(construct(Uniform(2, 4)), construct(P3)) is None


def test_is_isomorphic_duality_pairing():
    d3 = entry_table(catalog("Dn", (3,)))
    e3 = entry_table(catalog("En", (3,)))
    assert is_isomorphic(d3, dual_table(e3)) is not None


def test_has_minor_parallel_pair():
    assert has_minor(construct(P3), construct(Uniform(1, 2)))


def test_has_minor_disjoint_parallel_pairs_absent():
    # contracting one point of either circuit leaves the other one whole,
    # so no minor splits into two parallel pairs
    p2 = construct(Truncate(DirectSum(Uniform(1, 2), Uniform(1, 2)), 2))
    assert not has_minor(construct(P3), p2)
    assert not has_minor(construct(Uniform(2, 4)), p2)


def test_relax_raises_rank_of_exactly_one_set():
    t = construct(P3)
    out = relax_table(t, {1, 2, 3})
    changed = [m for m in range(1 << 6) if out.ranks[m] != t.ranks[m]]
    assert changed == [t.mask_of({1, 2, 3})]
    assert out.rank({1, 2, 3}) == 3


def test_relax_rejects_basis():
    with pytest.raises(InvalidRelaxationError):
        relax_table(construct(P3), {1, 2, 4})


def test_relax_wheel_gives_whirl():
    w3 = entry_table(catalog("W3"))
    tri = next(c for c in brute_circuits(w3)
               if len(c) == 3 and w3.rank(set(w3.ground) - c) == 3)
    assert is_isomorphic(relax_table(w3, tri),
                         entry_table(catalog("Whirl3"))) is not None


def test_paving_rejects_overlapping_hyperplanes():
    with pytest.raises(InvalidPavingError):
        construct(Paving(3, (1, 2, 3, 4, 5, 6), ({1, 2, 3}, {1, 2, 4})))


def test_construct_respects_cap():
    with pytest.raises(ResourceError):
        construct(Uniform(3, 17))
    construct(Uniform(3, 17), cap=17)


def test_axioms_hold_on_samples():
    for expr in [Uniform(2, 4), P3, Relax(P3, frozenset({1, 2, 3})),
                 Dual(P3), FreeExt(Uniform(1, 2))]:
        construct(expr).validate()


def test_pair_bridge_matches_construction():
    t = to_rank_table(BoundingPair("EENN", "NNEE"))
    assert is_isomorphic(t, construct(Uniform(2, 4))) is not None


def test_to_rank_table_matches_matching_oracle_exhaustively():
    """Every subset of every pair on at most 7 elements."""
    for n in range(8):
        for pair in all_pairs(n):
            sets = pair_sets(pair.lower, pair.upper)
            ranks = to_rank_table(pair).ranks
            for mask in range(1 << n):
                X = [x for x in range(1, n + 1) if mask >> (x - 1) & 1]
                assert ranks[mask] == match_rank(sets, X), (pair, X)


def test_to_rank_table_band_pair_n16_within_time_bound():
    pair = band_pair(random.Random(3), 16, 3)
    t0 = time.perf_counter()
    table = to_rank_table(pair)
    assert time.perf_counter() - t0 < 1.0
    assert table.rank_total == 8


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_minor_ranks_are_contraction_differences(seed):
    rng = random.Random(seed)
    t = random_table(rng, n_max=8)
    labels = list(t.ground)
    rng.shuffle(labels)
    k = rng.randint(0, len(labels))
    cut = rng.randint(0, k)
    D, C = set(labels[:cut]), set(labels[cut:k])
    m = minor(t, D, C)
    kept = [e for e in t.ground if e not in D | C]
    assert list(m.ground) == kept
    for mask in range(1 << len(kept)):
        X = {e for i, e in enumerate(kept) if mask >> i & 1}
        assert m.rank(X) == t.rank(X | C) - t.rank(C)


def test_tables_past_the_hard_limit_are_refused_before_allocation():
    wide = BoundingPair("E" * 13 + "N" * 13, "EN" * 13)
    for build in (lambda: to_rank_table(wide, cap=64),
                  lambda: paving_table(2, range(30), []),
                  lambda: construct(Uniform(1, 30), cap=64),
                  lambda: construct(Paving(2, range(30), []), cap=64)):
        t0 = time.perf_counter()
        with pytest.raises(ResourceError):
            build()
        assert time.perf_counter() - t0 < 1.0


def test_every_builder_checks_size_against_the_limit(monkeypatch):
    monkeypatch.setattr(ranktable, "TABLE_LIMIT", 8)
    for expr in (Uniform(1, 9), DirectSum(Uniform(1, 5), Uniform(1, 4)),
                 FreeExt(Uniform(1, 8)), ParallelExt(Uniform(1, 8), 1),
                 Paving(2, range(9), [])):
        with pytest.raises(ResourceError):
            construct(expr, cap=64)
    with pytest.raises(ResourceError):
        to_rank_table(BoundingPair("E" * 9, "E" * 9), cap=64)
    with pytest.raises(ResourceError):
        paving_table(2, range(9), [])
    construct(FreeExt(Uniform(1, 7)), cap=64)
    for expr in (DirectSum(Uniform(1, 4), Uniform(1, 4)),
                 ParallelExt(Uniform(1, 7), 1)):
        with pytest.raises(ResourceError):
            construct(expr, cap=7)
