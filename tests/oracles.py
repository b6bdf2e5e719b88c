"""Independent brute-force oracles for the tests.

Everything here is recomputed from first principles (augmenting-path
matching, subset enumeration, all-orderings search) without calling the
library's closed forms, so agreement between the two routes is evidence.
"""

from itertools import combinations, permutations


def match_rank(sets, X):
    """Maximum matching of the elements of X into the given sets."""
    owner = {}

    def augment(e, seen):
        for j, s in enumerate(sets):
            if e in s and j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = e
                    return True
        return False

    size = 0
    for e in X:
        if augment(e, set()):
            size += 1
    return size


def pair_sets(lower, upper):
    """Presentation sets read straight off the two words."""
    left = [i + 1 for i, s in enumerate(upper) if s == "N"]
    right = [i + 1 for i, s in enumerate(lower) if s == "N"]
    return [set(range(a, b + 1)) for a, b in zip(left, right)]


def all_bases(ground, sets):
    r = match_rank(sets, ground)
    return [frozenset(b) for b in combinations(ground, r)
            if match_rank(sets, b) == r]


def circuits_of(ground, sets):
    """Minimal dependent sets, sizes ascending."""
    out = []
    for k in range(1, len(ground) + 1):
        for c in combinations(ground, k):
            cs = frozenset(c)
            if match_rank(sets, cs) < k and not any(o <= cs for o in out):
                out.append(cs)
    return out


def component_split(ground, sets):
    """Blocks of the relation "share a circuit"; untouched elements sit alone."""
    parent = {e: e for e in ground}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in circuits_of(ground, sets):
        cl = sorted(c, key=repr)
        for e in cl[1:]:
            parent[find(e)] = find(cl[0])
    blocks = {}
    for e in ground:
        blocks.setdefault(find(e), []).append(e)
    return list(blocks.values())


def paths_in_hull(lo, hi):
    """Count increasing selections x_1<...<x_r with lo[i] <= x_i <= hi[i]."""
    prev = {0: 1}
    for a, b in zip(lo, hi):
        cur = {}
        for x in range(a, b + 1):
            c = sum(v for q, v in prev.items() if q < x)
            if c:
                cur[x] = c
        prev = cur
    return sum(prev.values())


def _ordering_passes(order, bases, r):
    pos = {e: i + 1 for i, e in enumerate(order)}
    n = len(order)
    lo = [n + 1] * r
    hi = [0] * r
    for b in bases:
        t = sorted(pos[e] for e in b)
        for j, x in enumerate(t):
            if x < lo[j]:
                lo[j] = x
            if x > hi[j]:
                hi[j] = x
    # every basis lies inside the hull, so count equality forces set equality
    return paths_in_hull(lo, hi) == len(bases)


def _component_orderable(elements, bases):
    """Some element ordering realizes the bases as bounded-path selections."""
    n = len(elements)
    if n <= 1:
        return True
    r = len(next(iter(bases)))
    # elements appearing in exactly the same bases commute in any ordering:
    # transposing them fixes every basis, so fix their relative order
    grouped = {}
    for e in elements:
        key = frozenset(i for i, b in enumerate(bases) if e in b)
        grouped.setdefault(key, []).append(e)
    classes = [sorted(members, key=repr) for members in grouped.values()]
    tags = []
    for i, members in enumerate(classes):
        tags.extend([i] * len(members))
    seen = set()
    halve = all(len(c) == 1 for c in classes)
    for tagseq in permutations(tags):
        if tagseq in seen:
            continue
        seen.add(tagseq)
        if halve and tagseq > tagseq[::-1]:
            continue  # a reversed ordering realizes the same matroid
        nxt = [0] * len(classes)
        order = []
        for t in tagseq:
            order.append(classes[t][nxt[t]])
            nxt[t] += 1
        if _ordering_passes(order, bases, r):
            return True
    return False


def is_lpm_system(ground, sets):
    """All-orderings decision: does the system present a bounded-path matroid?

    Each connected block must admit an ordering whose basis hull counts
    exactly the bases; one-element blocks pass trivially.
    """
    sets = [frozenset(s) for s in sets]
    for comp in component_split(ground, sets):
        if len(comp) == 1:
            continue
        cset = set(comp)
        csets = [s & cset for s in sets if s & cset]
        bases = all_bases(comp, csets)
        if not _component_orderable(comp, bases):
            return False
    return True


def automorphism_count_brute(lower, upper):
    """Permutations of 1..n mapping bases onto bases."""
    n = len(lower)
    sets = pair_sets(lower, upper)
    bases = set(all_bases(list(range(1, n + 1)), sets))
    count = 0
    for perm in permutations(range(1, n + 1)):
        ok = True
        for b in bases:
            if frozenset(perm[x - 1] for x in b) not in bases:
                ok = False
                break
        if ok:
            count += 1
    return count


def admissible_orderings(images):
    """Every admissible ordering of class images, as index tuples.

    Exhaustive search over permutations: a class may follow the prefix when
    it is admissible against each adjacent pair (p, q) of the prefix, that is,
    it meets p only inside q, and when it meets p it contains q - p.  Tuples
    come out in lexicographic order.
    """
    k = len(images)
    results = []
    seq = []
    used = [False] * k

    def admissible(cand):
        nj = images[cand]
        for i in range(2, len(seq) + 1):
            prev, cur = images[seq[i - 2]], images[seq[i - 1]]
            if not (prev & nj) <= (prev & cur):
                return False
            if (nj & prev) and not (cur - prev) <= (nj - prev):
                return False
        return True

    def search():
        if len(seq) == k:
            results.append(tuple(seq))
            return
        for c in range(k):
            if not used[c] and admissible(c):
                used[c] = True
                seq.append(c)
                search()
                seq.pop()
                used[c] = False

    search()
    return results


def bondy_maximal(ground, sets):
    """Grow each set by the isthmuses of the deletion of that set."""
    grown = []
    for a in sets:
        rest = [e for e in ground if e not in a]
        rsets = [s - set(a) for s in sets]
        base = match_rank(rsets, rest)
        isth = [e for e in rest
                if match_rank(rsets, [x for x in rest if x != e]) < base]
        grown.append(set(a) | set(isth))
    return grown
