"""Class membership, the excluded-minor catalog, and relaxation."""

import pytest

from latpath import (BoundingPair, DomainError, catalog, count_bases,
                     dual_table, entry_table, is_generalized_catalan,
                     is_isomorphic, is_notch, lpmchar_check,
                     notlpm_certificate, pn_minor_test, recognize,
                     relax_table, table_components, table_in_catalan,
                     table_in_notch, table_is_lpm, to_rank_table,
                     verify_excluded_minor)

P3 = BoundingPair("EENENN", "NNENEE")
U24 = BoundingPair("EENN", "NNEE")


def test_catalog_pn():
    e = catalog("Pn", 3)
    assert e.pair == P3
    assert count_bases(e.pair) == 18


def test_catalog_mn():
    e = catalog("Mn", 4)
    assert e.pair == BoundingPair("EEEENNNN", "ENENENEN")
    assert count_bases(e.pair) == 14


def test_catalog_an_is_paving_with_free_point():
    e = catalog("An", 3)
    assert e.pair is None
    t = entry_table(e)
    assert len(t.ground) == 6
    assert t.rank({1, 2, 3}) == 2 and t.rank({1, 4, 5}) == 2
    # the free point lies in neither dependent hyperplane
    assert t.rank({2, 3, 6}) == 3


def test_catalog_parameter_ranges():
    for name, params, msg in [("An", 2, ">= 3"),
                              ("Bnk", (1, 3), "2 <= k <= n"),
                              ("Fn", 3, ">= 4"),
                              ("Gn", 1, ">= 2"),
                              ("Hn", 2, ">= 3"),
                              ("Dn", 2, ">= 3")]:
        with pytest.raises(DomainError, match=msg):
            catalog(name, params)
    with pytest.raises(DomainError, match="unknown catalog name"):
        catalog("Zz", 3)


def test_catalog_frozen_pairs_match_constructions():
    """Entries carrying both a pair and a construction agree."""
    entries = [catalog("Pn", 3), catalog("Dn", 3), catalog("En", 3),
               catalog("Fn", 4), catalog("Gn", 2), catalog("Hn", 3),
               catalog("PrismDualPair", 1), catalog("PrismDualPair", 2)]
    for e in entries:
        assert is_isomorphic(to_rank_table(e.pair), entry_table(e)), e.name


def test_is_generalized_catalan():
    assert is_generalized_catalan(catalog("Mn", 3).pair)
    assert not is_generalized_catalan(P3)
    assert is_generalized_catalan(BoundingPair("EEENN", "ENENE"))
    assert is_generalized_catalan(U24)


def test_is_notch():
    assert is_notch(P3)  # lower path EENENN has the notch shape
    assert is_notch(catalog("Mn", 3).pair)
    assert is_notch(U24)
    f6 = catalog("Fn", 6)
    assert not is_notch(f6.pair)


def test_table_predicates():
    assert table_in_catalan(to_rank_table(catalog("Mn", 3).pair))
    assert not table_in_catalan(to_rank_table(P3))
    assert table_in_notch(to_rank_table(P3))
    assert table_is_lpm(to_rank_table(P3))
    assert not table_is_lpm(entry_table(catalog("An", 3)))
    from latpath import DirectSum, Uniform, construct
    assert table_components(construct(DirectSum(Uniform(1, 2),
                                                Uniform(2, 3)))) == \
        ((1, 2), (3, 4, 5))


def test_relax_circuit_hyperplane_gives_catalan():
    relaxed = relax_table(to_rank_table(P3), {1, 2, 3})
    assert relaxed.rank({1, 2, 3}) == 3
    assert table_in_catalan(relaxed)
    out = recognize_table(relaxed)
    assert out.accepted


def recognize_table(table):
    """Recognize from a brute transversal presentation of an LPM table."""
    from latpath import make_system
    from oracles import pair_sets
    out = recognize(make_system(table.ground, _presentation_search(table)))
    return out


def _presentation_search(table):
    # tables reaching here are small relaxations known to be LPMs; search
    # all orderings for an interval presentation
    from itertools import permutations
    from oracles import paths_in_hull
    n = len(table.ground)
    r = table.rank(set(table.ground))
    bases = [frozenset(B) for B in _subsets(table.ground, r)
             if table.rank(set(B)) == r]
    for order in permutations(table.ground):
        pos = {x: i + 1 for i, x in enumerate(order)}
        rows = [sorted(sorted(pos[x] for x in B)[i] for B in bases)
                for i in range(r)]
        lo = [min(row) for row in rows]
        hi = [max(row) for row in rows]
        if all(lo[i] <= hi[i] for i in range(r)) and \
                paths_in_hull(lo, hi) == len(bases):
            inv = {i + 1: x for i, x in enumerate(order)}
            return [{inv[p] for p in range(lo[i], hi[i] + 1)}
                    for i in range(r)]
    raise AssertionError("no interval presentation found")


def _subsets(ground, k):
    from itertools import combinations
    return combinations(ground, k)


def test_relax_whirl():
    from latpath import construct
    w3 = entry_table(catalog("W3"))
    relaxed = relax_table(w3, set(next(iter(_triangles(w3)))))
    assert is_isomorphic(relaxed, entry_table(catalog("Whirl3")))


def _triangles(table):
    from itertools import combinations
    r = table.rank(set(table.ground))
    for T in combinations(table.ground, r):
        if table.rank(set(T)) == r - 1:
            yield T


def test_lpmchar_check():
    assert lpmchar_check(to_rank_table(P3)) == (True, None)
    ok, detail = lpmchar_check(entry_table(catalog("An", 3)))
    assert not ok
    assert detail == ('union', (frozenset({1, 2, 3}), frozenset({1, 4, 5})))
    ok, detail = lpmchar_check(entry_table(catalog("Cnk", (4, 2))))
    assert not ok
    assert detail[0] == 'flats'
    assert len(detail[1]) == 3
    # the rank-3 entry with two fundamental chains overlapping badly
    ok, detail = lpmchar_check(entry_table(catalog("Dn", 4)))
    assert not ok
    assert detail[0] == 'union'


def test_notlpm_certificate():
    X, Xp, y = notlpm_certificate(entry_table(catalog("An", 3)))
    assert X == frozenset({1, 2, 3}) and Xp == frozenset({1, 4, 5})
    assert y == 6
    assert notlpm_certificate(to_rank_table(U24)) is None
    # absence of a certificate does not imply membership
    assert notlpm_certificate(entry_table(catalog("Dn", 4))) is None
    assert not lpmchar_check(entry_table(catalog("Dn", 4)))[0]


def test_verify_excluded_minor():
    rep = verify_excluded_minor(catalog("An", 3), "notch")
    assert rep.passed and rep.not_in_class and rep.minor_failures == ()
    rep = verify_excluded_minor(catalog("Gn", 2), "notch")
    assert rep.passed
    rep = verify_excluded_minor(catalog("W3"), "notch")
    assert rep.passed
    rep = verify_excluded_minor(catalog("An", 3), "lpm_intersection")
    assert rep.passed


def test_pn_minor_test():
    p4 = entry_table(catalog("Pn", 4))
    assert pn_minor_test(p4, 4)
    # the family is a minor antichain: every proper minor of a member has
    # the linearly ordered flats, so the only witness inside P_4 is itself
    assert not pn_minor_test(p4, 3)
    assert not pn_minor_test(entry_table(catalog("Pn", 3)), 2)
    assert pn_minor_test(entry_table(catalog("Pn", 3)), 3)
    assert not pn_minor_test(to_rank_table(catalog("Mn", 4).pair), 4)
    assert not pn_minor_test(to_rank_table(U24), 4)


def test_placeholder_entries_have_no_realization():
    for name in ("OtherEx1", "OtherEx2"):
        e = catalog(name)
        assert e.pair is None and e.expr is None
        with pytest.raises(DomainError, match="no realization"):
            entry_table(e)
