"""Property suites: every structural invariant, derandomized and seeded."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from latpath import (BoundingPair, IncidenceClass, Uniform, brute_circuits,
                     brute_connectivity, catalog, circuits, connected_flats,
                     connectivity, construct, count_bases, direct_sum, dual,
                     dual_table, element_interval, entry_table,
                     fundamental_flats, is_generalized_catalan, is_isomorphic,
                     is_notch, lpm_components, lpm_maximal_presentation,
                     make_system, matching_rank, maximal_presentation, minor,
                     order_classes, path_minor, incidence_classes, recognize,
                     relax_table, spanning_circuit, standard_presentation,
                     to_rank_table, canonical_form)
from gen import random_connected_pair, random_pair, random_system, \
    random_table, shuffled_presentation
from oracles import admissible_orderings, is_lpm_system, pair_sets

FAST = settings(derandomize=True, max_examples=25, deadline=None)
SLOW = settings(derandomize=True, max_examples=10, deadline=None)


def subsets(ground):
    for k in range(len(ground) + 1):
        yield from combinations(ground, k)


# ---------------------------------------------------------------- set systems

@FAST
@given(st.integers(0, 10**6))
def test_matching_rank_monotone_and_submodular(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, n_max=7)
    ground = list(sys_.ground)
    ranks = {frozenset(X): matching_rank(sys_, set(X)) for X in subsets(ground)}
    for X in map(frozenset, subsets(ground)):
        for y in ground:
            grown = ranks[X | {y}]
            assert ranks[X] <= grown <= ranks[X] + 1
    pool = [frozenset(X) for X in subsets(ground)]
    for _ in range(200):
        X, Y = rng.choice(pool), rng.choice(pool)
        assert ranks[X | Y] + ranks[X & Y] <= ranks[X] + ranks[Y]


@FAST
@given(st.integers(0, 10**6))
def test_maximal_presentation_idempotent_same_matroid(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=2, n_max=8)
    sets = [set(range(a, b + 1))
            for a, b in standard_presentation(pair).intervals]
    sys_ = make_system(range(1, pair.size + 1), sets)
    grown = maximal_presentation(sys_)
    again = maximal_presentation(grown)
    assert again.sets == grown.sets
    for X in subsets(sys_.ground):
        assert matching_rank(sys_, set(X)) == matching_rank(grown, set(X))


@FAST
@given(st.integers(0, 10**6))
def test_circuit_incidence_has_full_rank(seed):
    """For a circuit C, both C and every C - x meet exactly r(C) sets."""
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=2, n_max=9)
    sets = pair_sets(pair.lower, pair.upper)
    sys_ = make_system(range(1, pair.size + 1), sets)
    for C in circuits(pair):
        rC = matching_rank(sys_, set(C))
        nC = {j for j, s in enumerate(sets) if s & set(C)}
        assert len(nC) == rC
        for x in C:
            rest = set(C) - {x}
            nRest = {j for j, s in enumerate(sets) if s & rest}
            assert len(nRest) == rC


# ----------------------------------------------------------------- rank tables

@FAST
@given(st.integers(0, 10**6))
def test_dual_involution_and_minor_duality(seed):
    rng = random.Random(seed)
    t = random_table(rng, n_max=7)
    assert dual_table(dual_table(t)).ranks == t.ranks
    if t.ground:
        x = rng.choice(t.ground)
        a = dual_table(minor(t, {x}, set()))
        b = minor(dual_table(t), set(), {x})
        assert a.ranks == b.ranks and a.ground == b.ground


@FAST
@given(st.integers(0, 10**6))
def test_relax_changes_exactly_supersets_of_hyperplane(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=4, n_max=9)
    t = to_rank_table(pair)
    r = t.rank(set(t.ground))
    hyperplanes = [set(C) for C in circuits(pair)
                   if len(C) == r and t.rank(set(C)) == r - 1
                   and all(t.rank(set(C) | {y}) == r
                           for y in set(t.ground) - set(C))]
    if not hyperplanes:
        return
    H = hyperplanes[0]
    relaxed = relax_table(t, H)
    for X in subsets(t.ground):
        before, after = t.rank(set(X)), relaxed.rank(set(X))
        if set(X) >= H:
            assert after == min(before + (set(X) == H), r)
        if set(X) == H:
            assert after == before + 1
        elif not (set(X) > H):
            assert after == before


@SLOW
@given(st.integers(0, 10**6))
def test_connectivity_is_self_dual_on_tables(seed):
    rng = random.Random(seed)
    t = random_table(rng, n_max=8)
    assert brute_connectivity(t) == brute_connectivity(dual_table(t))


# ---------------------------------------------------------------------- pairs

@FAST
@given(st.integers(0, 10**6))
def test_rank_table_bridge_commutes_with_duality(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=0, n_max=9)
    assert to_rank_table(dual(pair)).ranks == \
        dual_table(to_rank_table(pair)).ranks
    assert dual(dual(pair)) == pair
    assert count_bases(pair) == count_bases(dual(pair))
    if pair.size:
        x = rng.randint(1, pair.size)
        assert dual(path_minor(pair, x, "delete")) == \
            path_minor(dual(pair), x, "contract")


@FAST
@given(st.integers(0, 10**6))
def test_count_bases_matches_basis_scan(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=0, n_max=9)
    t = to_rank_table(pair)
    r = t.rank(set(t.ground))
    scan = sum(1 for B in combinations(t.ground, r) if t.rank(set(B)) == r)
    assert count_bases(pair) == scan


@FAST
@given(st.integers(0, 10**6))
def test_circuits_match_brute_enumeration(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=0, n_max=9)
    got = [tuple(sorted(C)) for C in circuits(pair)]
    want = [tuple(sorted(C)) for C in brute_circuits(to_rank_table(pair))]
    assert got == want


@FAST
@given(st.integers(0, 10**6))
def test_connected_flats_are_intervals_with_interval_images(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=10)
    r = pair.r
    for flat, rank in connected_flats(pair):
        members = sorted(flat)
        assert members == list(range(members[0], members[-1] + 1))
        image = set()
        for x in members:
            lo, hi = element_interval(pair, x)
            image.update(range(lo, hi + 1))
        lo, hi = min(image), max(image)
        assert sorted(image) == list(range(lo, hi + 1))
        assert len(image) == rank
        assert image <= set(range(1, r + 1))


@FAST
@given(st.integers(0, 10**6))
def test_circuits_nearly_avoid_parallel_classes(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=2, n_max=9)
    t = to_rank_table(pair)
    nontrivial = set()
    for x, y in combinations(t.ground, 2):
        if t.rank({x}) == t.rank({y}) == 1 and t.rank({x, y}) == 1:
            nontrivial.update((x, y))
    for C in circuits(pair):
        if len(C) > 2:
            assert len(set(C) & nontrivial) <= 2


@SLOW
@given(st.integers(0, 10**6))
def test_circuit_extensions_are_end_segments(seed):
    """If Z with x attached is a circuit and Z sits inside a circuit C,
    then Z is an initial or final run of C."""
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=2, n_max=8)
    all_c = [frozenset(C) for C in circuits(pair)]
    for C in all_c:
        members = sorted(C)
        runs = {frozenset(members[:k]) for k in range(len(members) + 1)}
        runs |= {frozenset(members[k:]) for k in range(len(members) + 1)}
        for Cp in all_c:
            extra = Cp - C
            if len(extra) == 1 and Cp - extra <= C:
                assert Cp - extra in runs


@FAST
@given(st.integers(0, 10**6))
def test_fundamental_flats_dualize_to_complements(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=10)
    ground = set(range(1, pair.size + 1))
    primal = {frozenset(f) for f, _ in fundamental_flats(pair).flats()}
    dual_side = {frozenset(f) for f, _ in fundamental_flats(dual(pair)).flats()}
    assert dual_side == {frozenset(ground - f) for f in primal}


@FAST
@given(st.integers(0, 10**6))
def test_connectivity_is_self_dual_on_pairs(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=10)
    assert connectivity(pair)[0] == connectivity(dual(pair))[0]


@FAST
@given(st.integers(0, 10**6))
def test_membership_and_circuit_size_lower_bounds(seed):
    """k-connectivity forces every element into k-1 maximal sets and
    every circuit and cocircuit to k elements."""
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=10)
    k = connectivity(pair)[0]
    if k == float("inf"):
        return
    maximal = lpm_maximal_presentation(pair)
    for x in range(1, pair.size + 1):
        hits = sum(1 for a, b in maximal.intervals if a <= x <= b)
        assert hits >= k - 1
    for C in circuits(pair):
        assert len(C) >= k
    for C in circuits(dual(pair)):
        assert len(C) >= k


@FAST
@given(st.integers(0, 10**6))
def test_connected_flat_count_bounds(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=10)
    r = pair.r
    by_corank = {}
    for _, rank in connected_flats(pair):
        by_corank[r - rank] = by_corank.get(r - rank, 0) + 1
    for k, count in by_corank.items():
        assert count <= k + 1
    assert by_corank.get(1, 0) <= 2


@SLOW
@given(st.integers(0, 10**6))
def test_flats_covered_by_at_most_two_connected_flats(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=8)
    t = to_rank_table(pair)
    ground = set(t.ground)
    r = t.rank(ground)
    connected = [set(f) for f, _ in connected_flats(pair)]
    flats = [set(X) for X in subsets(t.ground)
             if all(t.rank(set(X) | {y}) > t.rank(set(X))
                    for y in ground - set(X))]
    for F in flats:
        if not 1 <= t.rank(F) < r:
            continue
        covers = [X for X in connected
                  if X > F and t.rank(X) == t.rank(F) + 1]
        assert len(covers) <= 2


@FAST
@given(st.integers(0, 10**6))
def test_spanning_circuit_exists_on_connected_pairs(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=12)
    C = spanning_circuit(pair)
    t = to_rank_table(pair)
    assert t.rank(set(C)) == t.rank(set(t.ground))
    assert t.rank(set(C)) == len(C) - 1
    for x in C:
        assert t.rank(set(C) - {x}) == len(C) - 1


def test_uniform_connectivity_closed_form_exhaustive():
    for n in range(2, 11):
        for r in range(n + 1):
            word_lo = "E" * (n - r) + "N" * r
            word_hi = "N" * r + "E" * (n - r)
            k = connectivity(BoundingPair(word_lo, word_hi))[0]
            assert k == brute_connectivity(construct(Uniform(r, n)))


# ----------------------------------------------------------------- recognition

@FAST
@given(st.integers(0, 10**6))
def test_recognition_round_trip(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=0, n_max=12)
    system, _ = shuffled_presentation(rng, pair)
    out = recognize(system)
    assert out.accepted
    got = sorted((p.lower, p.upper) for _, p in out.components)
    want = sorted((canonical_form(c).lower, canonical_form(c).upper)
                  for c in lpm_components(pair))
    assert got == want


@SLOW
@given(st.integers(0, 10**6))
def test_recognition_completeness_against_ordering_search(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, n_max=7)
    assert recognize(sys_).accepted == is_lpm_system(sys_.ground, sys_.sets)


@FAST
@given(st.integers(0, 10**6))
def test_recognition_acceptance_implies_rank_equality(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, n_max=7)
    out = recognize(sys_)
    if not out.accepted:
        return
    rebuilt = [set() for _ in range(out.pair.r)]
    for p, x in enumerate(out.ordering, start=1):
        iv = element_interval(out.pair, p)
        if iv is not None:
            for j in range(iv[0], iv[1] + 1):
                rebuilt[j - 1].add(x)
    mirror = make_system(sys_.ground, rebuilt)
    for X in subsets(sys_.ground):
        assert matching_rank(sys_, set(X)) == matching_rank(mirror, set(X))


@FAST
@given(st.integers(0, 10**6))
def test_accepted_orderings_come_in_mirror_pairs(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=2, n_max=10)
    system, _ = shuffled_presentation(rng, pair)
    classes = incidence_classes(maximal_presentation(system))
    got = order_classes(classes)
    assert 1 <= len(got) <= 2
    if len(got) == 2:
        assert got[1] == got[0][::-1]


def assert_orderings_match_oracle(classes):
    want = [tuple(classes[i] for i in order)
            for order in admissible_orderings([c.image for c in classes])]
    assert order_classes(classes) == want


@FAST
@given(st.integers(0, 10**6))
def test_order_classes_matches_exhaustive_search_on_presentations(seed):
    rng = random.Random(seed)
    system, _ = shuffled_presentation(rng, random_pair(rng, n_min=0, n_max=12))
    assert_orderings_match_oracle(incidence_classes(maximal_presentation(system)))
    system = random_system(rng, n_max=7)
    assert_orderings_match_oracle(incidence_classes(maximal_presentation(system)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 5), min_size=1),
                max_size=7, unique=True))
def test_order_classes_matches_exhaustive_search_on_image_families(images):
    assert_orderings_match_oracle(
        [IncidenceClass((i,), img) for i, img in enumerate(images)])


# --------------------------------------------------------------------- classes

def notch_pair(rng, n_min=4, n_max=10):
    """Random pair whose lower path has one of the two defining shapes."""
    n = rng.randint(n_min, n_max)
    r = rng.randint(1, n - 1)
    m = n - r
    if rng.random() < 0.5 or m < 2 or r < 2:
        lower = "E" * m + "N" * r
    else:
        lower = "E" * (m - 1) + "NE" + "N" * (r - 1)
    lo = [0]
    for ch in lower:
        lo.append(lo[-1] + (ch == "N"))
    word = list(lower)
    rng.shuffle(word)
    hi, prev = [0], 0
    for ch in word:
        prev += ch == "N"
        hi.append(prev)
    merged = [max(a, b) for a, b in zip(lo, hi)]
    upper = "".join("N" if merged[i + 1] > merged[i] else "E"
                    for i in range(n))
    return BoundingPair(lower, upper)


@FAST
@given(st.integers(0, 10**6))
def test_notch_outside_catalan_has_final_circuit_hyperplane(seed):
    rng = random.Random(seed)
    pair = notch_pair(rng, n_min=4, n_max=10)
    assert is_notch(pair)
    if is_generalized_catalan(pair) or len(lpm_components(pair)) != 1:
        return
    H = set(range(pair.m + 1, pair.size + 1))
    t = to_rank_table(pair)
    r = t.rank(set(t.ground))
    assert t.rank(H) == r - 1
    assert all(t.rank(H - {x}) == r - 1 for x in H)
    assert all(t.rank(H | {y}) == r for y in set(t.ground) - H)


@SLOW
@given(st.integers(0, 10**6))
def test_relaxing_any_circuit_hyperplane_linearizes_flats(seed):
    rng = random.Random(seed)
    pair = random_connected_pair(rng, n_min=4, n_max=9)
    t = to_rank_table(pair)
    r = t.rank(set(t.ground))
    for C in circuits(pair):
        H = set(C)
        if len(H) != r or t.rank(H) != r - 1:
            continue
        if any(t.rank(H | {y}) == r - 1 for y in set(t.ground) - H):
            continue
        relaxed = relax_table(t, H)
        from latpath import brute_connected_flats
        flats = [set(f) for f, _ in brute_connected_flats(relaxed)]
        for A, B in combinations(flats, 2):
            assert A <= B or B <= A


@SLOW
@given(st.integers(0, 10**6))
def test_pn_minor_free_iff_flats_form_chain(seed):
    from latpath import brute_connected_flats, pn_minor_test, table_components
    rng = random.Random(seed)
    t = random_table(rng, n_max=8)
    if len(table_components(t)) != 1 or not t.ground:
        return
    flats = [set(f) for f, _ in brute_connected_flats(t)]
    chain = all(a <= b or b <= a for a, b in combinations(flats, 2))
    has_pn = pn_minor_test(t, max_n=len(t.ground) // 2)
    assert has_pn == (not chain)


def test_catalog_duality_relations():
    pairs = [(catalog("Fn", n), catalog("Gn", n - 2)) for n in (4, 5, 6)]
    pairs += [(catalog("Bnk", (n, k)), catalog("Cnk", (n + k, k)))
              for n, k in ((2, 2), (3, 2), (3, 3), (4, 2))]
    pairs += [(catalog("Dn", n), catalog("En", n)) for n in (3, 4)]
    for left, right in pairs:
        assert is_isomorphic(dual_table(entry_table(left)),
                             entry_table(right)), (left.name, right.name)
    for entry in [catalog("Hn", 3), catalog("Hn", 4), catalog("An", 3),
                  catalog("An", 4)]:
        t = entry_table(entry)
        assert is_isomorphic(dual_table(t), t), entry.name


@FAST
@given(st.integers(0, 10**6))
def test_notch_closed_under_minors_and_duality(seed):
    rng = random.Random(seed)
    pair = notch_pair(rng, n_min=4, n_max=12)
    assert is_notch(dual(pair))
    for x in range(1, pair.size + 1):
        for kind in ("delete", "contract"):
            assert is_notch(path_minor(pair, x, kind))


@SLOW
@given(st.integers(0, 10**6))
def test_notch_has_no_three_incomparable_connected_flats(seed):
    from latpath import brute_connected_flats
    rng = random.Random(seed)
    pair = notch_pair(rng, n_min=4, n_max=10)
    flats = [set(f) for f, _ in
             brute_connected_flats(to_rank_table(pair))]
    for A, B, C in combinations(flats, 3):
        comparable = sum((X <= Y or Y <= X)
                         for X, Y in ((A, B), (A, C), (B, C)))
        assert comparable >= 1


@FAST
@given(st.integers(0, 10**6))
def test_notch_stable_under_loop_and_isthmus_summands(seed):
    rng = random.Random(seed)
    pair = notch_pair(rng, n_min=4, n_max=10)
    assert is_notch(direct_sum([pair, BoundingPair("E", "E")]))
    assert is_notch(direct_sum([pair, BoundingPair("N", "N")]))


# ------------------------------------------------------------------------- cli

def run_cli(argv):
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        from latpath.cli import main
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@FAST
@given(st.integers(0, 10**6))
def test_cli_output_is_deterministic(seed):
    rng = random.Random(seed)
    pair = random_pair(rng, n_min=0, n_max=10)
    first = run_cli(["info", "--pair", pair.lower, pair.upper])
    second = run_cli(["info", "--pair", pair.lower, pair.upper])
    assert first == second and first[0] == 0


@FAST
@given(st.integers(0, 10**6))
def test_cli_never_panics_on_malformed_words(seed):
    rng = random.Random(seed)
    word = "".join(rng.choice("ENX") for _ in range(rng.randint(1, 6)))
    other = "".join(rng.choice("EN") for _ in range(rng.randint(1, 6)))
    rc, _, err = run_cli(["info", "--pair", word, other])
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error: ")
