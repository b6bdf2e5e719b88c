"""Bounding path pairs and their matroid structure in closed form.

A pair of monotone words over {E, N} with the same endpoint, the lower one
never rising above the upper one, presents a matroid on steps 1..m+r: bases
are the N-step sets of the monotone paths between the two.  Everything here
(bases, circuits, flats, connectivity, minors, canonical form) is computed
from corner and interval arithmetic on the two words, without enumerating
subsets.  The rank-table conversion at the bottom is the bridge to the brute
oracles.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import permutations, product

from .errors import DomainError, InputError, NoSpanningCircuitError
from .ranktable import RankTable, _check_size

STEPS = "EN"


def validate_word(word):
    for i, ch in enumerate(word):
        if ch not in STEPS:
            raise InputError(f"invalid step {ch!r} at position {i + 1}")


def prefix_n(word):
    """Running N-counts, length len(word)+1, starting at 0."""
    out = [0]
    for ch in word:
        out.append(out[-1] + (ch == "N"))
    return out


@dataclass(frozen=True)
class BoundingPair:
    lower: str
    upper: str

    def __post_init__(self):
        validate_word(self.lower)
        validate_word(self.upper)
        if len(self.lower) != len(self.upper):
            raise DomainError("paths differ in length")
        lp, up = prefix_n(self.lower), prefix_n(self.upper)
        if lp[-1] != up[-1]:
            raise DomainError("paths end at different heights")
        for t, (a, b) in enumerate(zip(lp, up)):
            if a > b:
                raise DomainError(f"lower path rises above upper path at step {t}")

    @property
    def size(self):
        return len(self.lower)

    @property
    def r(self):
        return self.lower.count("N")

    @property
    def m(self):
        return self.lower.count("E")


@dataclass(frozen=True)
class IntervalPresentation:
    intervals: tuple  # (lo, hi) per set, 1-indexed inclusive
    size: int

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not 1 <= lo <= hi <= self.size:
                raise DomainError(f"interval [{lo},{hi}] outside ground [1,{self.size}]")

    def to_system(self):
        from .setsystem import make_system
        return make_system(range(1, self.size + 1),
                           [range(lo, hi + 1) for lo, hi in self.intervals])


@dataclass(frozen=True)
class FundamentalFlats:
    # (end, rank, nullity) per initial segment [1..end], nested ascending
    initial: tuple
    # (start, rank, nullity) per final segment [start..size], nested ascending
    final: tuple
    size: int

    def flats(self):
        """All members as (elements, rank), initial chain first."""
        out = [(frozenset(range(1, e + 1)), r) for e, r, _ in self.initial]
        out += [(frozenset(range(s, self.size + 1)), r) for s, r, _ in self.final]
        return out


def _ends(pair):
    """(l, g): positions of the i-th N in upper resp. lower, 1-indexed."""
    l = [t + 1 for t, ch in enumerate(pair.upper) if ch == "N"]
    g = [t + 1 for t, ch in enumerate(pair.lower) if ch == "N"]
    return l, g


def standard_presentation(pair):
    l, g = _ends(pair)
    return IntervalPresentation(tuple(zip(l, g)), pair.size)


def element_interval(pair, x):
    """Indices of the presentation sets containing step x, as (lo, hi); None for a loop."""
    if not 1 <= x <= pair.size:
        raise DomainError(f"element {x} outside ground [1,{pair.size}]")
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    lo, hi = lp[x - 1] + 1, up[x]
    return (lo, hi) if lo <= hi else None


def loops(pair):
    """Steps in no presentation set: those where element_interval is None."""
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    return tuple(x for x in range(1, pair.size + 1) if lp[x - 1] >= up[x])


def isthmuses(pair):
    l, g = _ends(pair)
    return tuple(sorted(li for li, gi in zip(l, g) if li == gi))


def count_bases(pair):
    """Number of monotone paths between the two words (exact integer DP)."""
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    ways = {0: 1}
    for t in range(1, pair.size + 1):
        nxt = {}
        for k in range(lp[t], up[t] + 1):
            total = ways.get(k, 0) + ways.get(k - 1, 0)
            if total:
                nxt[k] = total
        ways = nxt
    return ways.get(lp[-1], 1 if pair.size == 0 else 0)


def is_basis(pair, B):
    B = sorted(set(B))
    for x in B:
        if not 1 <= x <= pair.size:
            raise DomainError(f"element {x} outside ground [1,{pair.size}]")
    l, g = _ends(pair)
    if len(B) != len(l):
        return False
    return all(li <= b <= gi for b, li, gi in zip(B, l, g))


def dual(pair):
    swap = str.maketrans("EN", "NE")
    return BoundingPair(pair.upper.translate(swap), pair.lower.translate(swap))


def direct_sum(pairs):
    return BoundingPair("".join(p.lower for p in pairs),
                        "".join(p.upper for p in pairs))


def lpm_components(pair):
    """Maximal segments between meeting points of the two paths."""
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    out = []
    prev = 0
    for t in range(1, pair.size + 1):
        if lp[t] == up[t]:
            out.append(BoundingPair(pair.lower[prev:t], pair.upper[prev:t]))
            prev = t
    return out


def is_connected(pair):
    return len(lpm_components(pair)) == 1


def path_minor(pair, x, kind):
    """Single-element deletion or contraction by path surgery."""
    if kind not in ("delete", "contract"):
        raise DomainError(f"kind must be 'delete' or 'contract', not {kind!r}")
    if not 1 <= x <= pair.size:
        raise DomainError(f"element {x} outside ground [1,{pair.size}]")
    lo, up = pair.lower, pair.upper
    if element_interval(pair, x) is None or x in isthmuses(pair):
        p = q = x  # shared step: deletion and contraction agree
    elif kind == "delete":
        q = next(t for t in range(x, pair.size + 1) if up[t - 1] == "E")
        p = next(t for t in range(x, 0, -1) if lo[t - 1] == "E")
    else:
        q = next(t for t in range(x, 0, -1) if up[t - 1] == "N")
        p = next(t for t in range(x, pair.size + 1) if lo[t - 1] == "N")
    return BoundingPair(lo[:p - 1] + lo[p:], up[:q - 1] + up[q:])


def spanning_circuit(pair, through=None):
    """A circuit of rank-plus-one elements; optionally through a given element."""
    if not is_connected(pair) or pair.size < 2:
        raise DomainError("pair must be connected with at least 2 elements")
    l, g = _ends(pair)
    r = len(l)
    if through is None:
        return frozenset(l + [g[-1]])
    x = through
    iv = element_interval(pair, x)
    if iv is None:
        raise NoSpanningCircuitError(f"element {x} is a loop")
    lo, hi = iv
    if hi > lo:
        c = l[:lo] + [x] + g[lo:]
    elif r == 1:
        c = [x, l[0] if l[0] != x else g[0]]
    elif lo == 1:
        c = [x] + g
    elif lo == r:
        c = l + [x]
    else:
        raise NoSpanningCircuitError(
            f"element {x} meets only interior set {lo}; no spanning circuit through it")
    assert len(set(c)) == r + 1
    return frozenset(c)


def is_circuit(pair, C):
    """Interval test: |n(C)| = |C|-1 with endpoints and overlaps aligned."""
    c = sorted(set(C))
    for x in c:
        if not 1 <= x <= pair.size:
            raise DomainError(f"element {x} outside ground [1,{pair.size}]")
    if not c:
        return False
    ivs = [element_interval(pair, x) for x in c]
    if len(c) == 1:
        return ivs[0] is None
    if any(iv is None for iv in ivs):
        return False
    touched = sorted({i for lo, hi in ivs for i in range(lo, hi + 1)})
    k = len(c) - 1
    if len(touched) != k:
        return False
    if not ivs[0][0] <= touched[0] <= ivs[0][1]:
        return False
    if not ivs[-1][0] <= touched[-1] <= ivs[-1][1]:
        return False
    for j in range(1, k):
        lo, hi = ivs[j]
        if not (lo <= touched[j - 1] and touched[j] <= hi):
            return False
    return True


def circuits(pair):
    """Stream all circuits, sizes ascending, lexicographic within a size.

    For each size k+1 and window of k consecutive presentation sets, the
    members are drawn from the window's entry, overlap, and exit element
    ranges; every circuit arises from exactly one window.
    """
    ivs = [element_interval(pair, x) for x in range(1, pair.size + 1)]
    for x in sorted(loops(pair)):
        yield frozenset({x})
    r = pair.r
    elements = range(1, pair.size + 1)
    for k in range(1, r + 1):
        found = []
        for a in range(1, r - k + 2):
            b = a + k - 1
            inside = [x for x in elements
                      if ivs[x - 1] and a <= ivs[x - 1][0] and ivs[x - 1][1] <= b]
            slots = [[x for x in inside if ivs[x - 1][0] == a]]
            for j in range(1, k):
                slots.append([x for x in inside
                              if ivs[x - 1][0] <= a + j - 1 and a + j <= ivs[x - 1][1]])
            slots.append([x for x in inside if ivs[x - 1][1] == b])

            def extend(j, start, chosen):
                if j == len(slots):
                    found.append(tuple(chosen))
                    return
                for x in slots[j]:
                    if x > start:
                        chosen.append(x)
                        extend(j + 1, x, chosen)
                        chosen.pop()

            extend(0, 0, [])
        yield from (frozenset(c) for c in sorted(found))


def fundamental_flats(pair):
    """Initial segments at upper EN corners, final segments at lower NE corners."""
    if not is_connected(pair):
        raise DomainError("pair must be connected")
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    n, r = pair.size, pair.r
    initial = []
    final = []
    for t in range(1, n):
        if pair.upper[t - 1] == "E" and pair.upper[t] == "N":
            initial.append((t, up[t], t - up[t]))
        if pair.lower[t - 1] == "N" and pair.lower[t] == "E":
            rank = r - lp[t]
            final.append((t + 1, rank, (n - t) - rank))
    final.reverse()  # smallest flat first, matching the nesting order
    return FundamentalFlats(tuple(initial), tuple(final), n)


def connected_flats(pair):
    """Proper nontrivial connected flats: the two corner chains plus their
    fat intersections (nullities exceeding the pair's width)."""
    ff = fundamental_flats(pair)
    n, r, m = pair.size, pair.r, pair.m
    out = [(frozenset(range(1, e + 1)), rk) for e, rk, _ in ff.initial]
    out += [(frozenset(range(s, n + 1)), rk) for s, rk, _ in ff.final]
    for e, ri, ni in ff.initial:
        for s, rf, nf in ff.final:
            if s <= e and m < ni + nf:
                out.append((frozenset(range(s, e + 1)), ri + rf - r))
    return sorted(out, key=lambda fr: (min(fr[0]), max(fr[0])))


def connectivity(pair):
    """(k, witness): the smallest separation order and an exact k-separation.

    Witness is (X, complement) with X the certifying segment, or None when
    the connectivity is infinite.
    """
    n = pair.size
    comps = lpm_components(pair)
    if n <= 1:
        return math.inf, None
    if len(comps) > 1:
        first = comps[0].size
        return 1, (frozenset(range(1, first + 1)), frozenset(range(first + 1, n + 1)))
    r, m = pair.r, pair.m
    if pair.lower == "E" * m + "N" * r and pair.upper == "N" * r + "E" * m:
        if abs(n - 2 * r) <= 1:
            return math.inf, None
        k = min(r, m) + 1
        return k, (frozenset(range(1, k + 1)), frozenset(range(k + 1, n + 1)))
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    # (k, position, side): side 1 is the final segment after a lower NE
    # corner at t, side 0 the initial segment before an upper EN corner.
    cands = []
    for t in range(1, n):
        if pair.lower[t - 1] == "N" and pair.lower[t] == "E":
            cands.append((up[t] - lp[t - 1], t, 1))
        if pair.upper[t - 1] == "E" and pair.upper[t] == "N":
            j = t + 1
            cands.append((up[j] - lp[j - 1], j, 0))
    k, pos, side = min(cands)
    flat = frozenset(range(pos + 1, n + 1) if side else range(1, pos))
    return k, (flat, frozenset(range(1, n + 1)) - flat)


def lpm_maximal_presentation(pair, strip_isthmuses=False):
    """Largest interval presentation; endpoints slide along shared staircase runs.

    Isthmuses admit no enlargement and are rejected unless strip_isthmuses
    is set, in which case they are deleted first (ground relabels to the
    surviving steps in order).
    """
    isth = isthmuses(pair)
    if isth:
        if not strip_isthmuses:
            raise DomainError(f"pair has isthmuses {list(isth)}")
        for x in sorted(isth, reverse=True):
            pair = path_minor(pair, x, "delete")
        assert not isthmuses(pair)
    l, g = _ends(pair)
    r = len(l)
    grown = []
    for i in range(r):
        hi = g[i]
        for j in range(i + 1, r):
            if g[j] == g[i] + (j - i):
                hi = max(hi, g[j])
            else:
                break
        lo = l[i]
        for j in range(i - 1, -1, -1):
            if l[j] == l[i] - (i - j):
                lo = min(lo, l[j])
            else:
                break
        grown.append((lo, hi))
    return IntervalPresentation(tuple(grown), pair.size)


def restrict_interval(pair, a, b):
    """Restriction to the interval [a, b], again as a pair.

    Initial and final segments clip one path; interior windows clip both.
    A window strictly between the paths is free and comes back as all-N.
    """
    n = pair.size
    if not 1 <= a <= b <= n:
        raise DomainError(f"[{a},{b}] is not a nonempty interval of [1,{n}]")
    lp, up = prefix_n(pair.lower), prefix_n(pair.upper)
    if a == 1:
        i = b
        k = up[i]
        f = [max(lp[t], k - (i - t)) for t in range(i + 1)]
        return BoundingPair(_word(f), pair.upper[:i])
    if b == n:
        j = a - 1
        base = lp[j]
        g = [min(t, up[j + t] - base) for t in range(n - j + 1)]
        return BoundingPair(pair.lower[j:], _word(g))
    j, i = a - 1, b
    if (j - lp[j]) > (i - up[i]):
        return BoundingPair("N" * (b - a + 1), "N" * (b - a + 1))
    k, base = up[i], lp[j]
    f = [max(lp[j + t] - base, (k - base) - (i - j - t)) for t in range(i - j + 1)]
    g = [min(t, k - base, up[j + t] - base) for t in range(i - j + 1)]
    return BoundingPair(_word(f), _word(g))


def _word(counts):
    assert counts[0] == 0
    out = []
    for prev, cur in zip(counts, counts[1:]):
        assert cur - prev in (0, 1)
        out.append("N" if cur > prev else "E")
    return "".join(out)


def canonical_form(pair):
    """Lexicographic minimum of the pair and its half-turn rotation."""
    rotated = (pair.upper[::-1], pair.lower[::-1])
    return BoundingPair(*min((pair.lower, pair.upper), rotated))


def automorphism_count(pair):
    """Number of ground permutations preserving the rank function.

    Counted through the corner flats: automorphisms are exactly the
    permutations acting as rank-preserving bijections on that collection,
    so the count is (number of realizable collection bijections) times the
    product of the signature-class factorials.
    """
    if not is_connected(pair):
        raise DomainError("pair must be connected")
    n = pair.size
    flats = fundamental_flats(pair).flats()
    classes = {}
    for x in range(1, n + 1):
        sig = frozenset(i for i, (f, _) in enumerate(flats) if x in f)
        classes.setdefault(sig, []).append(x)
    base = 1
    for members in classes.values():
        base *= math.factorial(len(members))
    if not flats:
        return base
    by_rank = {}
    for i, (_, rk) in enumerate(flats):
        by_rank.setdefault(rk, []).append(i)
    groups = sorted(by_rank.values())
    valid = 0
    for images in product(*(permutations(g) for g in groups)):
        pi = {}
        for g, img in zip(groups, images):
            pi.update(zip(g, img))
        ok = True
        for sig, members in classes.items():
            target = frozenset(pi[i] for i in sig)
            if target not in classes or len(classes[target]) != len(members):
                ok = False
                break
        if ok:
            valid += 1
    return valid * base


def to_rank_table(pair, cap=16):
    """Full rank table by greedy matching into the standard presentation.

    The presentation's intervals [l[i], g[i]] have strictly increasing left
    and right ends.  Matching the elements of a set in ascending order,
    each to the unused interval that reaches it and ends first, is a
    maximum matching of a convex bipartite graph (Glover, Naval Res.
    Logist. Q. 14, 1967).  Here the interval that ends first is the one of
    least index.  An unused interval below the last one used was skipped by
    the element that took that one, so it ends before that element and can
    take no later element.  The greedy state after a set is therefore one
    index, nxt: the one after the last interval used.  A mask extends the
    mask without its top element x; the candidate for x is j = max(nxt,
    first interval with g >= x), and x is matched exactly when j exists and
    l[j] <= x.  Each mask costs O(1) from a smaller one, and only the ranks
    and the nxt indices are kept.
    """
    n = pair.size
    _check_size(n, cap)
    l, g = _ends(pair)
    ranks, nxt = [0], [0]
    for x in range(1, n + 1):
        first = bisect_left(g, x)   # first interval with g >= x
        reach = bisect_right(l, x)  # intervals with l <= x are 0..reach-1
        if first >= reach:          # x is a loop: no interval reaches it
            ranks += ranks
            nxt += nxt
            continue
        # masks 2**(x-1) .. 2**x - 1 in order: the top bit x over every prev
        ranks += [rk + (j < reach) for rk, j in zip(ranks, nxt)]
        nxt += [max(j, first) + 1 if j < reach else j for j in nxt]
    return RankTable(tuple(range(1, n + 1)), tuple(ranks))
