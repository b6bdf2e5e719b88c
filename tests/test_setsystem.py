import random

import pytest

from latpath import (DomainError, components, make_system, matching_rank,
                     maximal_presentation, special_elements)
from gen import random_pair, random_system, shuffled_presentation
from oracles import bondy_maximal, match_rank


def _seeded_systems(seed, count):
    """Arbitrary systems and shuffled pair presentations, n <= 9, alternating."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            yield random_system(rng, n_max=9)
        else:
            yield shuffled_presentation(rng, random_pair(rng, 1, 9))[0]


def test_matching_rank_two_overlapping_intervals():
    sys_ = make_system([1, 2, 3, 4], [{1, 2, 3}, {2, 3, 4}])
    assert matching_rank(sys_) == 2
    assert matching_rank(sys_, set()) == 0


def test_matching_rank_four_interval_system():
    sets = [set(range(1, 5)), set(range(2, 8)), set(range(5, 11)),
            set(range(6, 12))]
    sys_ = make_system(range(1, 12), sets)
    assert matching_rank(sys_, set(range(1, 12))) == 4


def test_matching_rank_subset_queries():
    sys_ = make_system([1, 2, 3, 4], [{1, 2, 3}, {2, 3, 4}])
    assert matching_rank(sys_, {1}) == 1
    assert matching_rank(sys_, {2, 3}) == 2
    assert matching_rank(sys_, {1, 2, 3}) == 2


def test_matching_rank_rejects_foreign_element():
    sys_ = make_system([1, 2], [{1}])
    with pytest.raises(DomainError):
        matching_rank(sys_, {9})


def test_make_system_rejects_member_outside_ground():
    with pytest.raises(DomainError):
        make_system([1, 2, 3, 4], [{5}])


def test_special_elements_singleton_set_isthmus():
    sys_ = make_system([1, 2, 3], [{1}, {2, 3}])
    loops, isth = special_elements(sys_)
    assert set(loops) == set()
    assert set(isth) == {1}


def test_special_elements_loop_and_isthmus():
    # element 1 in no set, element 6 pinned by the singleton interval
    sys_ = make_system(range(1, 7), [{2, 3, 4}, {4, 5}, {6}])
    loops, isth = special_elements(sys_)
    assert set(loops) == {1}
    assert set(isth) == {6}


def test_special_elements_none():
    sys_ = make_system([1, 2, 3, 4], [{1, 2, 3}, {2, 3, 4}])
    assert special_elements(sys_) == ((), ())


def test_special_elements_match_rank_oracle():
    for system in _seeded_systems(2026, 400):
        ground = list(system.ground)
        sets = [set(s) for s in system.sets]
        loops, isth = special_elements(system)
        assert loops == tuple(e for e in ground
                              if not any(e in s for s in sets))
        base = match_rank(sets, ground)
        assert isth == tuple(e for e in ground
                             if match_rank(sets, [x for x in ground if x != e]) < base)


def test_maximal_presentation_matches_bondy_oracle():
    checked = 0
    for system in _seeded_systems(2027, 600):
        ground = list(system.ground)
        sets = [set(s) for s in system.sets]
        if match_rank(sets, ground) != len(sets):
            continue
        got = [set(s) for s in maximal_presentation(system).sets]
        assert got == bondy_maximal(ground, sets)
        checked += 1
    assert checked >= 300


def test_maximal_presentation_grows_both_sets():
    sys_ = make_system([1, 2, 3, 4], [{1, 2, 3}, {2, 3, 4}])
    out = maximal_presentation(sys_)
    assert sorted(sorted(s) for s in out.sets) == [[1, 2, 3, 4], [1, 2, 3, 4]]


def test_maximal_presentation_middle_set_absorbs_ends():
    # deleting the middle set leaves {1, 6} as a pair of isthmuses,
    # so the middle set grows to the whole ground set
    sets = [{1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6}]
    sys_ = make_system(range(1, 7), sets)
    out = maximal_presentation(sys_)
    assert [set(s) for s in out.sets] == [
        {1, 2, 3}, {1, 2, 3, 4, 5, 6}, {4, 5, 6}]
    again = maximal_presentation(out)
    assert again.sets == out.sets


def test_maximal_presentation_fixed_point():
    sets = [{1, 2, 3}, {3, 4, 5, 6}, {6, 7, 8}]
    sys_ = make_system(range(1, 9), sets)
    out = maximal_presentation(sys_)
    assert [set(s) for s in out.sets] == sets
    again = maximal_presentation(out)
    assert again.sets == out.sets


def test_components_disjoint_sets_split():
    sys_ = make_system([1, 2, 3, 4], [{1, 2}, {3, 4}])
    assert [sorted(b) for b in components(sys_)] == [[1, 2], [3, 4]]


def test_components_overlap_joins():
    sys_ = make_system([1, 2, 3, 4], [{1, 2, 3}, {2, 3, 4}])
    assert [sorted(b) for b in components(sys_)] == [[1, 2, 3, 4]]


def test_components_loop_is_singleton():
    sys_ = make_system([1], [])
    assert [sorted(b) for b in components(sys_)] == [[1]]
