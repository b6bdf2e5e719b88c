"""Recognition pipeline: incidence classes, orderings, interval test, recovery."""

import random
import time

from latpath import (BoundingPair, IntervalPresentation, canonical_form,
                     check_charint, incidence_classes, lpm_components,
                     lpm_maximal_presentation, make_system, matching_rank,
                     order_classes, recognize, recover_paths,
                     standard_presentation)
from gen import band_pair, random_connected_pair, shuffled_presentation


def interval_system(intervals, n):
    return make_system(range(1, n + 1),
                       [set(range(a, b + 1)) for a, b in intervals])


def test_incidence_classes_single():
    got = incidence_classes(interval_system([(1, 4), (1, 4)], 4))
    assert len(got) == 1
    assert got[0].members == (1, 2, 3, 4)
    assert got[0].image == frozenset({0, 1})


def test_incidence_classes_strict_staircase():
    got = incidence_classes(interval_system([(1, 3), (2, 5), (4, 6)], 6))
    assert [c.members for c in got] == [(1,), (2, 3), (4, 5), (6,)]
    assert [sorted(c.image) for c in got] == [[0], [0, 1], [1, 2], [2]]


def test_incidence_classes_absorbing_middle_set():
    got = incidence_classes(interval_system([(1, 3), (1, 6), (4, 6)], 6))
    assert [c.members for c in got] == [(1, 2, 3), (4, 5, 6)]
    assert [sorted(c.image) for c in got] == [[0, 1], [1, 2]]


def test_order_classes_single_class():
    got = order_classes(incidence_classes(interval_system([(1, 4), (1, 4)], 4)))
    assert len(got) == 1


def test_order_classes_forward_and_reverse():
    for intervals in ([(1, 3), (2, 5), (4, 6)], [(1, 3), (1, 6), (4, 6)]):
        classes = incidence_classes(interval_system(intervals, 6))
        got = order_classes(classes)
        assert len(got) == 2
        assert got[1] == got[0][::-1]
        assert got[0] == tuple(classes)


def test_check_charint_accepts_maximal_forms():
    assert check_charint(IntervalPresentation(((1, 4), (1, 4)), 4)) == (True, None)
    assert check_charint(IntervalPresentation(((1, 3), (1, 6), (4, 6)), 6)) == (
        True, None)


def test_check_charint_unit_difference():
    got = check_charint(IntervalPresentation(((1, 3), (2, 4), (2, 4)), 4))
    assert got == (False, ('unit-difference', ((1, 3), (2, 4))))
    # a strict staircase is never maximal: consecutive sets differ by one
    got = check_charint(IntervalPresentation(((1, 3), (2, 5), (4, 6)), 6))
    assert got == (False, ('unit-difference', ((1, 3), (2, 5))))


def test_recover_paths():
    assert recover_paths(IntervalPresentation(((1, 4), (1, 4)), 4)) == \
        BoundingPair("EENN", "NNEE")
    assert recover_paths(IntervalPresentation(((1, 3), (1, 6), (4, 6)), 6)) == \
        BoundingPair("EENENN", "NNENEE")


def test_recognize_accepts_uniform():
    out = recognize(make_system(range(1, 5), [{2, 3, 4}, {1, 3, 4}]))
    assert out.accepted
    assert out.pair == BoundingPair("EENN", "NNEE")
    assert out.ordering == (1, 2, 3, 4)
    assert out.rejection is None


def test_recognize_rejects_prism():
    out = recognize(make_system(range(1, 7),
                                [{1, 2}, {3, 4}, {5, 6}, set(range(1, 7))]))
    assert not out.accepted
    assert out.rejection.component == (1, 2, 3, 4, 5, 6)
    assert out.rejection.step == 5
    assert out.rejection.reason == \
        'no class ordering satisfies the overlap conditions'


def test_recognize_places_loops_and_isthmuses():
    out = recognize(make_system([1, 2, 3], [{2, 3}]))
    assert out.accepted
    assert [(c, (p.lower, p.upper)) for c, p in out.components] == [
        ((1,), ("E", "E")), ((2, 3), ("EN", "NE"))]
    out = recognize(make_system([1, 2, 3], [{1, 2}, {3}]))
    assert out.accepted
    assert [(c, (p.lower, p.upper)) for c, p in out.components] == [
        ((1, 2), ("EN", "NE")), ((3,), ("N", "N"))]


def test_recognize_empty_system():
    out = recognize(make_system([], []))
    assert out.accepted
    assert out.components == ()
    assert out.pair == BoundingPair("", "")


def test_recognize_rank_equality_on_acceptance():
    sys_ = make_system(range(1, 7), [{4, 5, 6}, set(range(1, 7))])
    out = recognize(sys_)
    assert out.accepted
    recovered = [set(range(a, b + 1)) for a, b in
                 standard_presentation(out.pair).intervals]
    relabel = {pos: out.ordering[pos - 1] for pos in range(1, 7)}
    mapped = [{relabel[x] for x in s} for s in recovered]
    from itertools import combinations
    for k in range(7):
        for X in combinations(range(1, 7), k):
            assert matching_rank(sys_, set(X)) == \
                matching_rank(make_system(range(1, 7), mapped), set(X))


def test_recognize_round_trip_shuffled():
    rng = random.Random(7)
    pairs = [BoundingPair("EENENN", "NNENEE"),
             BoundingPair("EENEENEN", "NENEENEE"),
             BoundingPair("EEEENENENENN", "NNENNEENEEEE")]
    for pair in pairs:
        for _ in range(5):
            system, _ = shuffled_presentation(rng, pair)
            out = recognize(system)
            assert out.accepted
            got = sorted(canonical_form(p) for _, p in out.components)
            want = sorted(canonical_form(c) for c in lpm_components(pair))
            assert [(p.lower, p.upper) for p in got] == \
                [(p.lower, p.upper) for p in want]


def test_recognize_n64_many_classes_within_time_bound():
    rng = random.Random(64)
    done = 0
    while done < 4:
        pair = random_connected_pair(rng, n_min=64, n_max=64)
        classes = incidence_classes(lpm_maximal_presentation(pair).to_system())
        if len(classes) < 16:
            continue
        system, _ = shuffled_presentation(rng, pair)
        start = time.perf_counter()
        out = recognize(system)
        assert time.perf_counter() - start < 2.0
        assert out.accepted
        assert [p for _, p in out.components] == [canonical_form(pair)]
        done += 1


def test_order_classes_scales_to_thousands_of_classes():
    # over a thousand classes: one Python frame per class would pass the
    # default recursion limit
    pair = band_pair(random.Random(4096), 4096, 2)
    maxp = lpm_maximal_presentation(pair, strip_isthmuses=True).to_system()
    classes = incidence_classes(maxp)
    assert len(classes) > 1000
    start = time.perf_counter()
    got = order_classes(classes)
    assert time.perf_counter() - start < 10.0
    assert got == [tuple(classes), tuple(classes)[::-1]]
