"""Deciding whether a set system presents a lattice path matroid.

Pipeline: strip isthmuses, split into incidence components, grow each block
to its maximal presentation, group elements into incidence classes, search
the class orderings that could lay the sets out as intervals, then test the
interval family and read the two bounding paths off it.  Accepted blocks
come back with their element ordering and pair; the assembled result is the
blocks' direct sum in a deterministic order.

The ordering search is a depth-first search over class permutations with
forward checking: each newly formed adjacent pair is checked at once against
every class still to be placed, only classes meeting the last placed class
are tried while any remain, and the search runs on an explicit stack.  It
returns the same orderings, in the same order, as the unpruned search.
"""

from dataclasses import dataclass

from .errors import DomainError
from .pairs import (BoundingPair, IntervalPresentation, canonical_form,
                    direct_sum)
from .setsystem import (components, make_system, maximal_presentation,
                        special_elements)


@dataclass(frozen=True)
class IncidenceClass:
    members: tuple
    image: frozenset  # indices of the presentation sets containing the members


@dataclass(frozen=True)
class Rejection:
    component: tuple
    step: int
    reason: str


@dataclass(frozen=True)
class RecognitionOutcome:
    accepted: bool
    components: tuple | None  # (labels, BoundingPair) per block
    ordering: tuple | None    # all labels, concatenated in block order
    pair: BoundingPair | None
    rejection: Rejection | None


def incidence_classes(system):
    """Partition non-loop elements by the exact set family containing them."""
    out = []
    seen = {}
    for e in system.ground:
        img = frozenset(j for j, s in enumerate(system.sets) if e in s)
        if not img:
            continue
        if img in seen:
            out[seen[img]] = IncidenceClass(out[seen[img]].members + (e,), img)
        else:
            seen[img] = len(out)
            out.append(IncidenceClass((e,), img))
    return out


def order_classes(classes):
    """All class orderings whose images can nest as consecutive intervals.

    A placement at position j is admissible against every earlier position
    i (1 < i < j): the image of X_j may meet X_{i-1}'s image only inside
    X_i's, and whenever it meets X_{i-1}'s image it must pick up everything
    X_i added beyond X_{i-1}.  The result lists every ordering in which each
    class is admissible at its position, in lexicographic order of the
    class indices.

    The depth-first search prunes with three devices that leave the result
    set and its order unchanged:

    * forward check: once class c follows prev, every unused class will be
      placed later and must be admissible against the pair (prev, c), so
      the pair is checked at once against all of them and the prefix is
      dropped if one fails.  A class disjoint from prev's image always
      passes, so only the unused classes meeting prev are checked, found
      through an index of the classes by presentation set;
    * candidate restriction: while some unused class meets prev's image, a
      candidate disjoint from prev fails the forward check, so only the
      unused classes meeting prev are tried, in ascending index order; all
      unused classes are tried otherwise, and at the root;
    * explicit stack: the search keeps a stack of candidate iterators
      instead of recursing, so blocks with thousands of classes stay clear
      of the recursion limit.
    """
    k = len(classes)
    if k == 0:
        return [()]
    images = [c.image for c in classes]
    by_set = {}
    for c, img in enumerate(images):
        for j in img:
            by_set.setdefault(j, []).append(c)
    meets = [sorted({d for j in img for d in by_set[j]} - {c})
             for c, img in enumerate(images)]
    used = [False] * k
    seq = []
    results = []
    # one frame per open position: (candidate iterator, unused classes
    # meeting the last placed class)
    stack = [(iter(range(k)), ())]
    while stack:
        candidates, live = stack[-1]
        c = next(candidates, None)
        if c is None:
            stack.pop()
            if seq:
                used[seq.pop()] = False
            continue
        if live:
            prev, cur = images[seq[-1]], images[c]
            gain = cur - prev
            if not all(images[u] & prev <= cur and gain <= images[u]
                       for u in live if u != c):
                continue
        if len(seq) + 1 == k:
            results.append((*seq, c))
            continue
        used[c] = True
        seq.append(c)
        live = [u for u in meets[c] if not used[u]]
        stack.append((iter(live or [u for u in range(k) if not used[u]]), live))
    return [tuple(classes[i] for i in order) for order in results]


def check_charint(presentation):
    """Whether an interval family is the maximal presentation of some pair.

    Returns (True, None) or (False, (condition, witness)).  Sorted by
    endpoints, the family must avoid strictly crossing containments, may
    not have two members differing by exactly one element either way, and
    each member must be large enough for its endpoint ties.
    """
    ivs = sorted(presentation.intervals)
    k = len(ivs)
    for i in range(k):
        a1, b1 = ivs[i]
        for j in range(i + 1, k):
            a2, b2 = ivs[j]
            if a1 < a2 and b2 < b1:
                return False, ("crossing", (ivs[i], ivs[j]))
            common = max(0, min(b1, b2) - max(a1, a2) + 1)
            if (b1 - a1 + 1) - common == 1 or (b2 - a2 + 1) - common == 1:
                return False, ("unit-difference", (ivs[i], ivs[j]))
    for h in range(k):
        a, b = ivs[h]
        d = sum(1 for i in range(h) if ivs[i][0] == a)
        dd = sum(1 for j in range(h + 1, k) if ivs[j][1] == b)
        if d + dd + 2 > b - a + 1:
            return False, ("tie-overcrowding", ivs[h])
    return True, None


def recover_paths(presentation):
    """Bounding pair whose maximal presentation is the given interval family.

    Endpoint ties are stripped (the i-th tied left endpoint moves right by
    its tie index, symmetrically on the right) to reach the standard
    endpoints, which are the N-positions of the two words.
    """
    ivs = sorted(presentation.intervals)
    n = presentation.size
    ls, gs = [], []
    for h, (a, b) in enumerate(ivs):
        d = sum(1 for i in range(h) if ivs[i][0] == a)
        dd = sum(1 for j in range(h + 1, len(ivs)) if ivs[j][1] == b)
        ls.append(a + d)
        gs.append(b - dd)
    assert all(x < y for x, y in zip(ls, ls[1:]))
    assert all(x < y for x, y in zip(gs, gs[1:]))
    lset, gset = set(ls), set(gs)
    upper = "".join("N" if t in lset else "E" for t in range(1, n + 1))
    lower = "".join("N" if t in gset else "E" for t in range(1, n + 1))
    return BoundingPair(lower, upper)


def _recognize_block(system):
    """One isthmus-free connected block: (labels, pair) or Rejection."""
    comp = system.ground
    maxp = maximal_presentation(system)
    classes = incidence_classes(maxp)
    orderings = order_classes(classes)
    if not orderings:
        return Rejection(comp, 5, "no class ordering satisfies the overlap conditions")
    first_fail = None
    for ordering in orderings:
        labels = [e for cls in ordering for e in cls.members]
        pos = {e: t + 1 for t, e in enumerate(labels)}
        intervals = []
        bad = None
        for s in maxp.sets:
            ps = sorted(pos[e] for e in s)
            if ps[-1] - ps[0] + 1 != len(ps):
                bad = s
                break
            intervals.append((ps[0], ps[-1]))
        if bad is not None:
            if first_fail is None:
                first_fail = f"set {sorted(bad, key=repr)} is not consecutive under the ordering"
            continue
        ip = IntervalPresentation(tuple(intervals), len(labels))
        ok, detail = check_charint(ip)
        if not ok:
            if first_fail is None:
                first_fail = f"interval family fails {detail[0]} at {detail[1]}"
            continue
        pair = recover_paths(ip)
        canon = canonical_form(pair)
        if canon != pair:
            labels.reverse()
        return tuple(labels), canon
    return Rejection(comp, 6, first_fail)


def recognize(system):
    """Full decision: RecognitionOutcome with blocks or a rejection."""
    loop_set, isth = special_elements(system)
    isth_set = set(isth)
    working = make_system([e for e in system.ground if e not in isth_set],
                          [s - isth_set for s in system.sets])
    blocks = []
    for comp in components(working):
        if len(comp) == 1:
            assert comp[0] in loop_set
            blocks.append((comp, BoundingPair("E", "E")))
            continue
        sub = make_system(comp, [s & set(comp) for s in working.sets if s & set(comp)])
        got = _recognize_block(sub)
        if isinstance(got, Rejection):
            return RecognitionOutcome(False, None, None, None, got)
        blocks.append(got)
    for x in isth:
        blocks.append(((x,), BoundingPair("N", "N")))
    orig = {e: i for i, e in enumerate(system.ground)}
    blocks.sort(key=lambda lp: (lp[1].lower, lp[1].upper, orig[lp[0][0]]))
    ordering = tuple(e for labels, _ in blocks for e in labels)
    pair = direct_sum([p for _, p in blocks])
    return RecognitionOutcome(True, tuple(blocks), ordering, pair, None)
