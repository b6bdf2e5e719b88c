"""Finite set systems and the transversal matroids they present.

A system is an ordered list of subsets of a ground sequence.  The rank of X is
the size of a maximum matching between the elements of X and the sets that
contain them; all structure here (loops, isthmuses, components, the Bondy
maximal presentation) is computed through such matchings.
"""

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class SetSystem:
    ground: tuple
    sets: tuple  # tuple of frozensets

    def __post_init__(self):
        if len(set(self.ground)) != len(self.ground):
            raise DomainError("ground has repeated labels")
        g = set(self.ground)
        for i, s in enumerate(self.sets):
            if not s <= g:
                bad = sorted(s - g, key=repr)[0]
                raise DomainError(f"set {i} contains {bad!r} not in ground")

    @property
    def size(self):
        return len(self.ground)


def make_system(ground, sets):
    return SetSystem(tuple(ground), tuple(frozenset(s) for s in sets))


def _incidence(system):
    """Element -> indices of the sets containing it, ascending."""
    adj = {e: [] for e in system.ground}
    for j, s in enumerate(system.sets):
        for e in s:
            adj[e].append(j)
    return adj


def _max_matching(adj, elements):
    """Maximum matching of `elements` into the sets containing them.

    `adj` maps each element to its set indices (see _incidence).  Returns
    (match_set, match_elt): set index -> element and element -> set index.
    Deterministic: elements in the given order, sets in index order.
    """
    match_set = {}
    match_elt = {}

    def augment(e, seen):
        for j in adj[e]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_set or augment(match_set[j], seen):
                match_set[j] = e
                match_elt[e] = j
                return True
        return False

    for e in elements:
        augment(e, set())
    return match_set, match_elt


def matching_rank(system, X=None):
    """Rank of X: size of a maximum matching of X into the sets."""
    if X is None:
        elements = list(system.ground)
    else:
        g = set(system.ground)
        X = set(X)
        if not X <= g:
            raise DomainError("rank query outside the ground set")
        elements = [e for e in system.ground if e in X]
    match_set, _ = _max_matching(_incidence(system), elements)
    return len(match_set)


def special_elements(system):
    """(loops, isthmuses) of the presented matroid.

    A loop lies in no set.  An isthmus is an element whose removal drops the
    rank, i.e. one covered by every maximum matching.  By Dulmage-Mendelsohn
    (1958) these are the matched elements that no even alternating path from
    an unmatched element reaches, so one maximum matching plus one walk over
    those paths finds them all.
    """
    adj = _incidence(system)
    loops = tuple(e for e in system.ground if not adj[e])
    match_set, match_elt = _max_matching(adj, system.ground)
    # From an element, any set containing it leads on to that set's partner;
    # every such set is matched, or the matching would not be maximum.
    stack = [e for e in system.ground if e not in match_elt]
    reached = set(stack)
    while stack:
        for j in adj[stack.pop()]:
            f = match_set[j]
            if f not in reached:
                reached.add(f)
                stack.append(f)
    return loops, tuple(e for e in system.ground if e not in reached)


def maximal_presentation(system):
    """Largest presentation of the same matroid.

    First reduce to the rank-many sets saturated by one maximum matching,
    then grow each set A by the isthmuses of the matroid with A's elements
    deleted.  Idempotent; the output has exactly rank-many sets.
    """
    match_set, _ = _max_matching(_incidence(system), system.ground)
    reduced = [system.sets[j] for j in sorted(match_set)]
    grown = []
    for a in reduced:
        rest = tuple(e for e in system.ground if e not in a)
        sub = SetSystem(rest, tuple(s - a for s in reduced))
        _, isth = special_elements(sub)
        grown.append(a | set(isth))
    return make_system(system.ground, grown)


def components(system):
    """Connected blocks of the element/set incidence graph.

    Requires an isthmus-free system (strip isthmuses first); loops come out
    as singleton blocks.  Blocks and their members follow ground order.
    """
    _, isth = special_elements(system)
    if isth:
        raise DomainError(f"system has isthmuses {sorted(isth, key=repr)}; strip them first")
    parent = {e: e for e in system.ground}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in system.sets:
        members = [e for e in system.ground if e in s]
        for a, b in zip(members, members[1:]):
            parent[find(a)] = find(b)
    blocks = {}
    for e in system.ground:
        blocks.setdefault(find(e), []).append(e)
    order = {e: i for i, e in enumerate(system.ground)}
    out = sorted(blocks.values(), key=lambda b: order[b[0]])
    return tuple(tuple(b) for b in out)
