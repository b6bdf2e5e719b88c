"""Reference answers for the benchmark's correctness checks.

Everything here is computed from the two path words or from the raw set
system, by routes that share no code with the library: the presentation
intervals are read off the N positions, ranks come from greedy interval
matching or a breadth-first augmenting-path matcher, and basis counts from a
selection DP over the intervals.  The checks run outside the timed region.
"""

from bisect import bisect_left, bisect_right
from collections import deque


def intervals(lower, upper):
    """(lefts, rights): set i of the standard presentation is [lefts[i], rights[i]]."""
    lefts = [t + 1 for t, ch in enumerate(upper) if ch == "N"]
    rights = [t + 1 for t, ch in enumerate(lower) if ch == "N"]
    return lefts, rights


def element_interval(lower, upper, x):
    """1-based indices (lo, hi) of the sets holding x, or None for a loop."""
    lefts, rights = intervals(lower, upper)
    lo = bisect_left(rights, x) + 1
    hi = bisect_right(lefts, x)
    return (lo, hi) if lo <= hi else None


def loops(lower, upper):
    lefts, rights = intervals(lower, upper)
    covered = [False] * (len(lower) + 2)
    for a, b in zip(lefts, rights):
        for x in range(a, b + 1):
            covered[x] = True
    return tuple(x for x in range(1, len(lower) + 1) if not covered[x])


def isthmuses(lower, upper):
    lefts, rights = intervals(lower, upper)
    return tuple(a for a, b in zip(lefts, rights) if a == b)


def interval_rank(lower, upper, points):
    """Rank of a point set: greedy matching of sorted points into the intervals."""
    lefts, rights = intervals(lower, upper)
    pts = sorted(points)
    j = used = 0
    for a, b in zip(lefts, rights):
        while j < len(pts) and pts[j] < a:
            j += 1
        if j < len(pts) and pts[j] <= b:
            used += 1
            j += 1
    return used


def is_basis(lower, upper, basis):
    lefts, rights = intervals(lower, upper)
    b = sorted(set(basis))
    return len(b) == len(lefts) and all(
        a <= x <= c for x, a, c in zip(b, lefts, rights))


def count_bases(lower, upper):
    """Increasing selections x_1 < ... < x_r with x_i in set i."""
    lefts, rights = intervals(lower, upper)
    prev_lo, prev = 0, [1]  # ways ending at position prev_lo + k
    for a, b in zip(lefts, rights):
        cur = []
        acc = 0
        k = 0
        for x in range(a, b + 1):
            while k < len(prev) and prev_lo + k < x:
                acc += prev[k]
                k += 1
            cur.append(acc)
        prev_lo, prev = a, cur
    return sum(prev)


def is_circuit(lower, upper, circuit, probes):
    """Dependent with nullity one, and each probed element's removal independent."""
    c = sorted(circuit)
    if interval_rank(lower, upper, c) != len(c) - 1:
        return False
    return all(interval_rank(lower, upper, [y for y in c if y != x]) == len(c) - 1
               for x in probes)


def max_matching(ground, sets):
    """Maximum matching of ground elements into sets, by BFS augmenting paths.

    Returns (element -> set index, set index -> element).
    """
    members = {e: [] for e in ground}
    for j, s in enumerate(sets):
        for e in s:
            members[e].append(j)
    elt_of = {}
    set_of = {}
    for root in ground:
        parent = {}
        queue = deque([root])
        seen_sets = set()
        end = None
        while queue and end is None:
            e = queue.popleft()
            for j in members[e]:
                if j in seen_sets:
                    continue
                seen_sets.add(j)
                parent[j] = e
                if j not in elt_of:
                    end = j
                    break
                queue.append(elt_of[j])
        while end is not None:
            e = parent[end]
            nxt = set_of.get(e)
            set_of[e] = end
            elt_of[end] = e
            end = nxt
    return set_of, elt_of


def rank(ground, sets):
    return len(max_matching(ground, sets)[0])


def system_isthmuses(ground, sets):
    """Elements in every maximum matching (Dulmage-Mendelsohn reachability)."""
    set_of, elt_of = max_matching(ground, sets)
    members = {e: [] for e in ground}
    for j, s in enumerate(sets):
        for e in s:
            members[e].append(j)
    free = [e for e in ground if e not in set_of]
    reached = set(free)
    queue = deque(free)
    while queue:
        e = queue.popleft()
        for j in members[e]:
            f = elt_of.get(j)
            if f is not None and f not in reached:
                reached.add(f)
                queue.append(f)
    return {e for e in set_of if e not in reached}
