"""Seeded generators shared across the test modules."""

import random

from latpath import (BoundingPair, DirectSum, Truncate, Uniform,
                     brute_circuits, construct, dual_table, is_connected,
                     make_system, relax_table, standard_presentation,
                     to_rank_table)


def word_from_profile(profile):
    out, prev = [], 0
    for c in profile:
        out.append("N" if c > prev else "E")
        prev = c
    return "".join(out)


def random_pair(rng, n_min=2, n_max=12):
    """Pointwise min/max of two random words with equal step counts."""
    n = rng.randint(n_min, n_max)
    r = rng.randint(0, n)
    a = ["N"] * r + ["E"] * (n - r)
    b = a[:]
    rng.shuffle(a)
    rng.shuffle(b)
    lo, hi, ca, cb = [], [], 0, 0
    for sa, sb in zip(a, b):
        ca += sa == "N"
        cb += sb == "N"
        lo.append(min(ca, cb))
        hi.append(max(ca, cb))
    return BoundingPair(word_from_profile(lo), word_from_profile(hi))


def random_connected_pair(rng, n_min=2, n_max=12):
    while True:
        p = random_pair(rng, n_min, n_max)
        if is_connected(p):
            return p


def band_pair(rng, n, width):
    """Connected pair: the region within `width` N-steps of a random path.

    Both bounds are clipped to the rectangle, which keeps them strictly
    apart inside (0, n) for every width >= 1, so the pair is connected.
    """
    r = n // 2
    word = ["N"] * r + ["E"] * (n - r)
    rng.shuffle(word)
    prof = [0]
    for s in word:
        prof.append(prof[-1] + (s == "N"))
    hi = [min(t, c + width, r) for t, c in enumerate(prof)]
    lo = [max(0, t - (n - r), c - width) for t, c in enumerate(prof)]
    return BoundingPair(word_from_profile(lo[1:]), word_from_profile(hi[1:]))


def all_pairs(n):
    """Every bounding pair on n steps, lower weakly below upper."""
    by_r = {}
    for mask in range(1 << n):
        prof = []
        c = 0
        for i in range(n):
            c += mask >> i & 1
            prof.append(c)
        by_r.setdefault(c, []).append(tuple(prof))
    for group in by_r.values():
        for lo in group:
            wl = word_from_profile(lo)
            for hi in group:
                if all(x <= y for x, y in zip(lo, hi)):
                    yield BoundingPair(wl, word_from_profile(hi))


def shuffled_presentation(rng, pair, relabel=True):
    """Standard presentation with shuffled labels, ground order, set order.

    Returns (system, labels) where labels[p-1] is the label given to
    position p.
    """
    n = pair.size
    ivs = standard_presentation(pair).intervals
    if relabel:
        labels = rng.sample(range(1, 3 * n + 2), n)
    else:
        labels = list(range(1, n + 1))
    sets = [{labels[p - 1] for p in range(lo, hi + 1)} for lo, hi in ivs]
    rng.shuffle(sets)
    ground = labels[:]
    rng.shuffle(ground)
    return make_system(ground, sets), labels


def random_system(rng, n_max=8, n_min=0):
    """Arbitrary small set system: random subsets, loops and repeats allowed."""
    n = rng.randint(n_min, n_max)
    ground = list(range(1, n + 1))
    k = rng.randint(0, max(n, 1))
    sets = []
    for _ in range(k):
        size = rng.randint(0, n)
        sets.append(set(rng.sample(ground, size)))
    return make_system(ground, sets)


def random_table(rng, n_max=9):
    """Small rank table drawn from a mix of construction shapes."""
    kind = rng.randrange(5)
    if kind == 0:
        return to_rank_table(random_pair(rng, 1, n_max))
    if kind == 1 and n_max >= 4:
        a = rng.randint(2, n_max - 2)
        b = rng.randint(2, n_max - a)
        top = rng.randint(1, a + b - 2)
        return construct(Truncate(DirectSum(Uniform(a - 1, a),
                                            Uniform(b - 1, b)), top), cap=n_max)
    if kind == 2:
        return dual_table(to_rank_table(random_pair(rng, 1, n_max)))
    if kind == 3:
        t = to_rank_table(random_connected_pair(rng, 2, n_max))
        r = t.rank_total
        chs = [c for c in brute_circuits(t)
               if len(c) == r
               and all(t.rank(set(c) | {y}) == r
                       for y in set(t.ground) - set(c))]
        if chs:
            return relax_table(t, rng.choice(chs))
        return t
    n = rng.randint(1, n_max)
    r = rng.randint(0, n)
    return construct(Uniform(r, n), cap=n_max)
