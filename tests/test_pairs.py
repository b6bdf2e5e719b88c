"""Bounding-pair operations: presentations, counting, surgery, flats."""

import random
import time
import tracemalloc

import pytest

from latpath import (BoundingPair, DomainError, InputError,
                     NoSpanningCircuitError, ResourceError, Uniform,
                     automorphism_count, canonical_form, circuits,
                     connected_flats, connectivity, construct, count_bases,
                     direct_sum, dual, element_interval, fundamental_flats,
                     is_basis, is_circuit, is_connected, is_isomorphic,
                     isthmuses, loops, lpm_components,
                     lpm_maximal_presentation, path_minor, restrict_interval,
                     spanning_circuit, standard_presentation, to_rank_table,
                     validate_word)
from gen import all_pairs, band_pair
from oracles import all_bases, automorphism_count_brute, circuits_of, pair_sets

U24 = BoundingPair("EENN", "NNEE")
P3 = BoundingPair("EENENN", "NNENEE")
# chain of three parallel connections; hits the connected-flat count bounds
PC = BoundingPair("EENEENEN", "NENEENEE")
FIG = BoundingPair("EEENEENEENN", "NNEENNEEEEE")


def test_validate_word_rejects_bad_step():
    with pytest.raises(InputError, match="invalid step 'X' at position 2"):
        validate_word("EXN")


def test_pair_requires_dominance():
    with pytest.raises(DomainError, match="rises above"):
        BoundingPair("NNEE", "EENN")
    with pytest.raises(DomainError, match="length"):
        BoundingPair("EN", "NNE")
    with pytest.raises(DomainError, match="heights"):
        BoundingPair("EE", "NN")


def test_standard_presentation():
    assert standard_presentation(FIG).intervals == (
        (1, 4), (2, 7), (5, 10), (6, 11))
    assert standard_presentation(U24).intervals == ((1, 3), (2, 4))
    assert standard_presentation(P3).intervals == ((1, 3), (2, 5), (4, 6))


def test_element_interval_and_special_elements():
    assert [element_interval(P3, x) for x in range(1, 7)] == [
        (1, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 3)]
    assert element_interval(BoundingPair("ENE", "NEE"), 3) is None
    assert loops(BoundingPair("ENE", "NEE")) == (3,)
    assert isthmuses(BoundingPair("NENN", "NNNE")) == (1,)
    assert loops(P3) == () and isthmuses(P3) == ()
    with pytest.raises(DomainError):
        element_interval(P3, 7)


def test_loops_are_the_steps_without_an_interval():
    for n in range(7):
        for pair in all_pairs(n):
            assert loops(pair) == tuple(
                x for x in range(1, n + 1) if element_interval(pair, x) is None)


def test_loops_band_pair_n4096_within_time_bound():
    pair = band_pair(random.Random(5), 4096, 8)
    start = time.perf_counter()
    got = loops(pair)
    assert time.perf_counter() - start < 1.0
    assert got == ()


def test_count_bases():
    assert count_bases(BoundingPair("EEENNN", "ENENEN")) == 5
    assert count_bases(U24) == 6
    assert count_bases(P3) == 18
    assert count_bases(BoundingPair("", "")) == 1


def test_count_bases_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        pair = BoundingPair("E" * n + "N" * n, "EN" * n)
        assert count_bases(pair) == catalan[n]


def test_is_basis():
    assert is_basis(U24, {1, 4})
    assert not is_basis(P3, {1, 2, 3})
    assert is_basis(P3, {1, 2, 4})
    assert not is_basis(P3, {1, 2})
    with pytest.raises(DomainError, match="outside ground"):
        is_basis(U24, {1, 9})


def test_is_basis_matches_enumeration():
    ground = list(range(1, 7))
    sets = [set(range(a, b + 1))
            for a, b in standard_presentation(P3).intervals]
    brute = all_bases(ground, sets)
    from itertools import combinations
    for k in range(7):
        for B in combinations(ground, k):
            assert is_basis(P3, set(B)) == (frozenset(B) in brute)


def test_path_minor_delete():
    out = path_minor(U24, 4, "delete")
    assert (out.lower, out.upper) == ("ENN", "NNE")
    assert count_bases(out) == 3


def test_path_minor_contract():
    out = path_minor(U24, 1, "contract")
    assert (out.lower, out.upper) == ("EEN", "NEE")
    assert out.r == 1 and out.m == 2


def test_path_minor_on_loop_drops_shared_east():
    out = path_minor(BoundingPair("ENE", "NEE"), 3, "delete")
    assert (out.lower, out.upper) == ("EN", "NE")
    with pytest.raises(DomainError):
        path_minor(U24, 5, "delete")


def test_dual():
    assert (dual(U24).lower, dual(U24).upper) == ("EENN", "NNEE")
    d = dual(P3)
    assert dual(d) == P3
    assert count_bases(d) == count_bases(P3)


def test_direct_sum():
    two = direct_sum([BoundingPair("EN", "NE"), BoundingPair("EN", "NE")])
    assert (two.lower, two.upper) == ("ENEN", "NENE")
    assert direct_sum([U24]) == U24
    u12 = BoundingPair("EN", "NE")
    from latpath import DirectSum
    table = construct(DirectSum(DirectSum(Uniform(1, 2), Uniform(1, 2)),
                                Uniform(1, 2)))
    assert is_isomorphic(to_rank_table(direct_sum([u12, u12, u12])), table)


def test_lpm_components():
    assert lpm_components(U24) == [U24]
    parts = lpm_components(BoundingPair("ENEN", "NENE"))
    assert [(p.lower, p.upper) for p in parts] == [("EN", "NE")] * 2
    assert lpm_components(P3) == [P3]
    assert is_connected(P3) and not is_connected(BoundingPair("ENEN", "NENE"))
    # loops and isthmuses split off as singletons
    parts = lpm_components(BoundingPair("EEN", "ENE"))
    assert [(p.lower, p.upper) for p in parts] == [("E", "E"), ("EN", "NE")]


def test_spanning_circuit():
    assert spanning_circuit(U24) == frozenset({1, 2, 4})
    assert spanning_circuit(P3) == frozenset({1, 2, 4, 6})
    through = spanning_circuit(P3, through=5)
    assert 5 in through and is_circuit(P3, through)
    assert len(through) == 4


def test_spanning_circuit_blocked_at_basepoint():
    # interior elements of the middle parallel class meet only one set
    for x in (4, 5):
        with pytest.raises(NoSpanningCircuitError,
                           match=f"element {x} meets only interior set 2"):
            spanning_circuit(PC, through=x)
    # every other element admits one
    for x in (1, 2, 3, 6, 7, 8):
        C = spanning_circuit(PC, through=x)
        assert x in C and is_circuit(PC, C)


def test_circuits_p3():
    got = [frozenset(c) for c in circuits(P3)]
    assert len(got) == 11
    sets = pair_sets(P3.lower, P3.upper)
    assert got == circuits_of(list(range(1, 7)), sets)
    assert is_circuit(U24, {1, 2, 3})
    assert not is_circuit(P3, {1, 2, 4})
    assert not is_circuit(P3, {1, 2, 3, 4})
    assert is_circuit(BoundingPair("ENE", "NEE"), {3})


def test_fundamental_flats():
    ff = fundamental_flats(P3)
    assert ff.initial == ((3, 2, 1),)
    assert ff.final == ((4, 2, 1),)
    assert sorted((sorted(f), r) for f, r in ff.flats()) == [
        ([1, 2, 3], 2), ([4, 5, 6], 2)]
    empty = fundamental_flats(U24)
    assert empty.initial == () and empty.final == ()
    with pytest.raises(DomainError, match="must be connected"):
        fundamental_flats(BoundingPair("ENEN", "NENE"))


def test_fundamental_flats_lower_staircase_gives_one_chain():
    # lower path E^mN^r has no interior NE corner, so no final flats
    ff = fundamental_flats(BoundingPair("EEENNN", "NENNEE"))
    assert ff.final == ()
    assert ff.initial == ((2, 1, 1),)


def test_connected_flats():
    assert [(sorted(f), r) for f, r in connected_flats(P3)] == [
        ([1, 2, 3], 2), ([4, 5, 6], 2)]
    assert connected_flats(U24) == []
    with pytest.raises(DomainError):
        connected_flats(BoundingPair("ENEN", "NENE"))


def test_connected_flats_parallel_chain_hits_bounds():
    got = [(sorted(f), r) for f, r in connected_flats(PC)]
    assert got == [([1, 2], 1), ([1, 2, 3, 4, 5], 2), ([4, 5], 1),
                   ([4, 5, 6, 7, 8], 2), ([7, 8], 1)]
    # rank 2 = hyperplanes here (r=3): exactly the maximum of two;
    # rank 1: exactly the maximum of k+1 = 3
    by_rank = {}
    for _, r in got:
        by_rank[r] = by_rank.get(r, 0) + 1
    assert by_rank == {1: 3, 2: 2}


def test_connectivity():
    assert connectivity(P3) == (2, (frozenset({4, 5, 6}), frozenset({1, 2, 3})))
    k, witness = connectivity(U24)
    assert k == float("inf") and witness is None
    assert connectivity(BoundingPair("ENEN", "NENE"))[0] == 1
    assert connectivity(BoundingPair("", ""))[0] == float("inf")
    assert connectivity(PC) == (
        2, (frozenset({1, 2}), frozenset({3, 4, 5, 6, 7, 8})))


def test_connectivity_band_pair_n4096_memory_bound():
    pair = band_pair(random.Random(5), 4096, 8)
    tracemalloc.start()
    try:
        k, (side, rest) = connectivity(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert side | rest == frozenset(range(1, 4097)) and not side & rest
    assert min(len(side), len(rest)) >= k


def test_connectivity_three_connected_shape():
    lam = BoundingPair("EEEENENENENN", "NNENNEENEEEE")
    k, (side, rest) = connectivity(lam)
    assert k == 3
    assert sorted(side) == [1, 2, 3]
    assert sorted(rest) == list(range(4, 13))


def test_maximal_presentation_uniform():
    assert lpm_maximal_presentation(U24).intervals == ((1, 4), (1, 4))


def test_maximal_presentation_grows_middle_interval():
    # deleting N_2 = {2..5} leaves 1 and 6 as isthmuses, so N_2 absorbs both
    out = lpm_maximal_presentation(P3)
    assert out.intervals == ((1, 3), (1, 6), (4, 6))


def test_maximal_presentation_isthmus_handling():
    pair = BoundingPair("NENN", "NNNE")
    with pytest.raises(DomainError, match="isthmus"):
        lpm_maximal_presentation(pair)
    stripped = lpm_maximal_presentation(pair, strip_isthmuses=True)
    assert stripped.intervals == ((1, 3), (1, 3))


def test_restrict_interval():
    out = restrict_interval(P3, 1, 3)
    assert (out.lower, out.upper) == ("ENN", "NNE")
    assert count_bases(out) == 3
    assert restrict_interval(P3, 1, 6) == P3
    out = restrict_interval(P3, 4, 6)
    assert count_bases(out) == 3


def test_restrict_interval_free_middle_window():
    out = restrict_interval(BoundingPair("EEENNN", "ENENEN"), 3, 4)
    assert (out.lower, out.upper) == ("NN", "NN")


def test_canonical_form():
    assert canonical_form(U24) == U24
    assert canonical_form(P3) == P3
    # a pair and its rotation present the same matroid
    skew = BoundingPair("EEENNN", "NNEENE")
    rot = BoundingPair(skew.upper[::-1], skew.lower[::-1])
    assert rot != skew
    assert canonical_form(skew) == canonical_form(rot)
    assert is_isomorphic(to_rank_table(skew), to_rank_table(rot)) is not None


def test_automorphism_count():
    assert automorphism_count(U24) == 24
    assert automorphism_count(P3) == 72
    with pytest.raises(DomainError):
        automorphism_count(BoundingPair("ENEN", "NENE"))


def test_automorphism_count_matches_permutation_oracle():
    """Every connected pair on at most 7 elements."""
    connected = [p for n in range(8) for p in all_pairs(n) if is_connected(p)]
    assert len(connected) == 198
    for p in connected:
        assert automorphism_count(p) == automorphism_count_brute(p.lower, p.upper), p


def test_to_rank_table():
    assert is_isomorphic(to_rank_table(U24), construct(Uniform(2, 4)))
    t = to_rank_table(P3)
    assert t.rank({1, 2, 3}) == 2 and t.rank({1, 2, 4}) == 3
    cat = BoundingPair("EEEENNNN", "ENENENEN")
    assert len(all_bases(list(range(1, 9)),
                         [set(range(a, b + 1)) for a, b in
                          standard_presentation(cat).intervals])) == 14
    with pytest.raises(ResourceError):
        to_rank_table(BoundingPair("E" * 10 + "N" * 10, "EN" * 10), cap=12)


def test_degenerate_pairs():
    empty = BoundingPair("", "")
    assert count_bases(empty) == 1
    assert lpm_components(empty) == []
    loop = BoundingPair("E", "E")
    isth = BoundingPair("N", "N")
    assert loops(loop) == (1,) and isthmuses(isth) == (1,)
    assert count_bases(loop) == 1 and count_bases(isth) == 1
    assert connectivity(loop) == (float("inf"), None)
