"""Explicit rank tables on small grounds, a construction algebra, and brute oracles.

A RankTable stores the full rank function of a matroid, indexed by bitmask
over a fixed ground order.  Everything downstream (circuits, flats,
connectivity, isomorphism, minors) is computed from it by exhaustive scan;
these serve as reference oracles for the closed-form path operations.
The scans work on masks: a mask's test walks only the bits it needs (the
members of a candidate circuit, the non-members of a candidate flat), and
minors lift their masks by doubling instead of bit by bit.

Tables hold 2**n entries, so no table is built past TABLE_LIMIT elements:
every builder checks its size against min(cap, TABLE_LIMIT) before it
allocates anything of size 2**n, and raises ResourceError past it.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (DomainError, InvalidPavingError, InvalidRelaxationError,
                     ResourceError)

DEFAULT_CAP = 16
TABLE_LIMIT = 24  # hard ceiling on the ground size of any table, whatever the cap


def _check_size(n, cap=TABLE_LIMIT):
    """Refuse a 2**n table past min(cap, TABLE_LIMIT), before it is allocated."""
    if n > min(cap, TABLE_LIMIT):
        if n > TABLE_LIMIT:
            raise ResourceError(f"{n} elements is past the hard table limit {TABLE_LIMIT}")
        raise ResourceError(f"{n} elements exceeds cap {cap}")


@dataclass(frozen=True)
class RankTable:
    ground: tuple
    ranks: tuple  # ranks[mask] for every subset bitmask

    def __post_init__(self):
        n = len(self.ground)
        if len(set(self.ground)) != n:
            raise DomainError("ground has repeated labels")
        _check_size(n)
        if len(self.ranks) != 1 << n:
            raise DomainError("rank list length must be 2**|ground|")

    @property
    def size(self):
        return len(self.ground)

    @property
    def rank_total(self):
        return self.ranks[-1]

    @property
    def corank(self):
        return self.size - self.rank_total

    def mask_of(self, X):
        return _label_mask({e: 1 << i for i, e in enumerate(self.ground)}, X)

    def set_of(self, mask):
        return frozenset(e for i, e in enumerate(self.ground) if mask >> i & 1)

    def rank(self, X):
        return self.ranks[self.mask_of(X)]

    def validate(self):
        """Check the rank axioms exhaustively (test helper; O(2^n * n^2))."""
        r = self.ranks
        n = self.size
        assert r[0] == 0
        for m in range(1 << n):
            for i in range(n):
                if m >> i & 1:
                    continue
                step = r[m | 1 << i] - r[m]
                assert step in (0, 1)
                for j in range(i + 1, n):
                    if m >> j & 1:
                        continue
                    assert (r[m | 1 << i] + r[m | 1 << j]
                            >= r[m | 1 << i | 1 << j] + r[m])
        return True


# construction expressions

class Uniform:
    def __init__(self, rank, size):
        self.rank, self.size = rank, size


class DirectSum:
    def __init__(self, *parts):
        if len(parts) < 2:
            raise DomainError("direct sum needs at least two parts")
        self.parts = parts


class Truncate:
    def __init__(self, expr, rank):
        self.expr, self.rank = expr, rank


class FreeExt:
    def __init__(self, expr):
        self.expr = expr


class ParallelExt:
    def __init__(self, expr, of):
        self.expr, self.of = expr, of


class Dual:
    def __init__(self, expr):
        self.expr = expr


class Relax:
    def __init__(self, expr, hyperplane):
        self.expr, self.hyperplane = expr, frozenset(hyperplane)


class Paving:
    def __init__(self, rank, ground, hyperplanes):
        self.rank = rank
        self.ground = tuple(ground)
        self.hyperplanes = tuple(frozenset(h) for h in hyperplanes)


def _label_mask(bits, X):
    m = 0
    for e in X:
        if e not in bits:
            raise DomainError(f"{e!r} not in ground")
        m |= bits[e]
    return m


def _relabel(table):
    return RankTable(tuple(range(1, table.size + 1)), table.ranks)


def _pair_sum(a, b):
    na = a.size
    low = (1 << na) - 1
    ranks = tuple(a.ranks[m & low] + b.ranks[m >> na]
                  for m in range(1 << (na + b.size)))
    return RankTable(tuple(range(1, na + b.size + 1)), ranks)


def dual_table(table):
    full = (1 << table.size) - 1
    r = table.rank_total
    ranks = tuple(m.bit_count() + table.ranks[full ^ m] - r
                  for m in range(full + 1))
    return RankTable(table.ground, ranks)


def relax_table(table, hyperplane):
    """Turn a circuit-hyperplane into a basis; validates the target."""
    h = table.mask_of(hyperplane)
    r = table.rank_total
    if h.bit_count() != r or table.ranks[h] != r - 1:
        raise InvalidRelaxationError("target is not a rank-(r-1) set of size r")
    for i in range(table.size):
        if h >> i & 1:
            if table.ranks[h ^ (1 << i)] != r - 1:
                raise InvalidRelaxationError("target is not a circuit")
        elif table.ranks[h | 1 << i] != r:
            raise InvalidRelaxationError("target is not closed")
    ranks = list(table.ranks)
    ranks[h] = r
    return RankTable(table.ground, tuple(ranks))


def paving_table(rank, ground, hyperplanes):
    ground = tuple(ground)
    n = len(ground)
    if not 1 <= rank <= n:
        raise InvalidPavingError("rank out of range")
    _check_size(n)
    bits = {e: 1 << i for i, e in enumerate(ground)}
    if len(bits) != n:
        raise DomainError("ground has repeated labels")
    masks = []
    for h in hyperplanes:
        m = _label_mask(bits, h)
        if not rank <= m.bit_count() <= n - 1:
            raise InvalidPavingError("hyperplane size must be in [rank, n-1]")
        masks.append(m)
    for a, b in combinations(masks, 2):
        if (a & b).bit_count() > rank - 2:
            raise InvalidPavingError("two hyperplanes share a (rank-1)-subset")
    ranks = []
    for m in range(1 << n):
        if any(m & ~h == 0 for h in masks):
            ranks.append(min(m.bit_count(), rank - 1))
        else:
            ranks.append(min(m.bit_count(), rank))
    return RankTable(ground, tuple(ranks))


def construct(expr, cap=DEFAULT_CAP):
    """Evaluate a construction expression to a RankTable.

    Sums relabel the ground to 1..n (left part in the low positions); the
    other constructors keep their argument's labels.  Every table is
    refused past min(cap, TABLE_LIMIT) elements before it is allocated.
    """
    if isinstance(expr, Uniform):
        r, n = expr.rank, expr.size
        if not 0 <= r <= n:
            raise DomainError("uniform rank out of range")
        _check_size(n, cap)
        ranks = tuple(min(m.bit_count(), r) for m in range(1 << n))
        return RankTable(tuple(range(1, n + 1)), ranks)
    if isinstance(expr, DirectSum):
        tables = [_relabel(construct(p, cap)) for p in expr.parts]
        _check_size(sum(t.size for t in tables), cap)
        acc = tables[0]
        for t in tables[1:]:
            acc = _pair_sum(acc, t)
        return acc
    if isinstance(expr, Truncate):
        t = construct(expr.expr, cap)
        if not 0 <= expr.rank <= t.rank_total:
            raise DomainError("truncation rank out of range")
        return RankTable(t.ground, tuple(min(r, expr.rank) for r in t.ranks))
    if isinstance(expr, FreeExt):
        t = construct(expr.expr, cap)
        _check_size(t.size + 1, cap)
        label = _fresh_label(t.ground)
        r = t.rank_total
        ranks = list(t.ranks) + [min(t.ranks[m] + 1, r) for m in range(1 << t.size)]
        return RankTable(t.ground + (label,), tuple(ranks))
    if isinstance(expr, ParallelExt):
        t = construct(expr.expr, cap)
        _check_size(t.size + 1, cap)
        x = t.mask_of([expr.of])
        label = _fresh_label(t.ground)
        ranks = list(t.ranks) + [t.ranks[m | x] for m in range(1 << t.size)]
        return RankTable(t.ground + (label,), tuple(ranks))
    if isinstance(expr, Dual):
        return dual_table(construct(expr.expr, cap))
    if isinstance(expr, Relax):
        return relax_table(construct(expr.expr, cap), expr.hyperplane)
    if isinstance(expr, Paving):
        _check_size(len(expr.ground), cap)
        return paving_table(expr.rank, expr.ground, expr.hyperplanes)
    raise DomainError(f"not a construction expression: {expr!r}")


def _fresh_label(ground):
    if all(isinstance(e, int) for e in ground):
        return max(ground, default=0) + 1
    i = 1
    while f"y{i}" in ground:
        i += 1
    return f"y{i}"


def minor(table, deleted, contracted):
    """Delete and contract label sets; kept elements stay in ground order."""
    dmask = table.mask_of(deleted)
    cmask = table.mask_of(contracted)
    if dmask & cmask:
        raise DomainError("deleted and contracted sets overlap")
    return _minor_masks(table, dmask, cmask)


def _minor_masks(table, dmask, cmask):
    """Minor by disjoint delete and contract masks.

    The host masks of the minor's subsets are built by doubling: each kept
    element appends a copy of the list so far with its bit set, so bit k of
    a minor mask stands for the k-th kept element.
    """
    r = table.ranks
    gone = dmask | cmask
    lifted = [cmask]
    ground = []
    for i, e in enumerate(table.ground):
        bit = 1 << i
        if not gone & bit:
            lifted += [m | bit for m in lifted]
            ground.append(e)
    base = r[cmask]
    return RankTable(tuple(ground), tuple([r[m] - base for m in lifted]))


# brute-force oracles

def _sort_key(table):
    pos = {e: i for i, e in enumerate(table.ground)}
    return lambda s: tuple(sorted(pos[e] for e in s))


def brute_circuits(table):
    """All circuits: dependent sets whose proper subsets are independent.

    A circuit C has rank |C| - 1, so only those masks are tested, and only
    by dropping each of their own bits.
    """
    r = table.ranks
    out = []
    for m in range(1, len(r)):
        k = m.bit_count() - 1
        if r[m] != k:
            continue
        rest = m
        while rest:
            low = rest & -rest
            if r[m ^ low] != k:
                break
            rest ^= low
        else:
            out.append(table.set_of(m))
    key = _sort_key(table)
    return sorted(out, key=lambda c: (len(c), key(c)))


def _is_flat(r, full, m):
    """Whether every element outside m raises its rank (full: ground mask)."""
    rm = r[m]
    rest = full ^ m
    while rest:
        low = rest & -rest
        if r[m | low] == rm:
            return False
        rest ^= low
    return True


def _is_connected_mask(table, m):
    """No bipartition of the restriction into rank-additive halves."""
    if m.bit_count() <= 1:
        return True
    r = table.ranks
    low = m & -m
    sub = (m - 1) & m
    while sub:
        if sub & low and sub != m and r[sub] + r[m ^ sub] == r[m]:
            return False
        sub = (sub - 1) & m
    return True


def brute_connected_flats(table):
    """Nontrivial (dependent) connected flats, with ranks."""
    r = table.ranks
    full = len(r) - 1
    out = []
    for m in range(1, full + 1):
        if r[m] >= m.bit_count():
            continue
        if _is_flat(r, full, m) and _is_connected_mask(table, m):
            out.append((table.set_of(m), r[m]))
    key = _sort_key(table)
    return sorted(out, key=lambda fr: (len(fr[0]), key(fr[0])))


def brute_fundamental_flats(table):
    """Proper nontrivial connected flats met by some spanning circuit in a basis of the flat."""
    full = (1 << table.size) - 1
    if not _is_connected_mask(table, full):
        raise DomainError("table is not connected")
    r = table.rank_total
    spanning = [table.mask_of(c) for c in brute_circuits(table) if len(c) == r + 1]
    out = []
    for flat, frank in brute_connected_flats(table):
        fmask = table.mask_of(flat)
        if fmask == full:
            continue
        for c in spanning:
            meet = fmask & c
            if meet.bit_count() == frank and table.ranks[meet] == frank:
                out.append((flat, frank))
                break
    return out


def brute_connectivity(table):
    """Smallest k admitting a k-separation; math.inf when none exists."""
    n = table.size
    r = table.ranks
    total = r[-1]
    best = math.inf
    full = (1 << n) - 1
    for m in range(1, full, 2):  # fix lowest element on one side
        lam = r[m] + r[full ^ m] - total + 1
        if lam <= min(m.bit_count(), n - m.bit_count()):
            best = min(best, lam)
    return best


def _flat_counts(table):
    r = table.ranks
    full = len(r) - 1
    counts = {}
    for m in range(full + 1):
        if _is_flat(r, full, m):
            counts[r[m]] = counts.get(r[m], 0) + 1
    return tuple(sorted(counts.items()))


def _iso_invariants(table):
    sizes = tuple(sorted(len(c) for c in brute_circuits(table)))
    return (table.size, table.rank_total, sizes, _flat_counts(table))


def _element_profiles(table):
    circ = [table.mask_of(c) for c in brute_circuits(table)]
    prof = []
    for i in range(table.size):
        through = tuple(sorted(c.bit_count() for c in circ if c >> i & 1))
        prof.append((table.ranks[1 << i], through))
    return prof


def is_isomorphic(a, b):
    """A rank-preserving ground bijection as a label dict, or None."""
    if _iso_invariants(a) != _iso_invariants(b):
        return None
    n = a.size
    pa, pb = _element_profiles(a), _element_profiles(b)
    cands = [[q for q in range(n) if pb[q] == pa[p]] for p in range(n)]
    if any(not c for c in cands):
        return None
    image = [None] * n
    used = [False] * n

    def consistent(depth):
        m = (1 << (depth + 1)) - 1
        bit = 1 << depth
        sub = m
        while sub:
            if sub & bit:
                mapped = 0
                for i in range(depth + 1):
                    if sub >> i & 1:
                        mapped |= 1 << image[i]
                if a.ranks[sub] != b.ranks[mapped]:
                    return False
            sub = (sub - 1) & m
        return True

    def bt(depth):
        if depth == n:
            return True
        for q in cands[depth]:
            if used[q]:
                continue
            image[depth] = q
            used[q] = True
            if consistent(depth) and bt(depth + 1):
                return True
            used[q] = False
        image[depth] = None
        return False

    if not bt(0):
        return None
    return {a.ground[p]: b.ground[image[p]] for p in range(n)}


def has_minor(host, pattern):
    """Whether some delete/contract of host is isomorphic to pattern.

    Contractions range over independent sets only, which loses no minors.
    """
    nh, np_ = host.size, pattern.size
    rh, rp = host.rank_total, pattern.rank_total
    c, d = rh - rp, (nh - np_) - (rh - rp)
    if np_ > nh or c < 0 or d < 0:
        return False
    pinv = _iso_invariants(pattern)
    full = (1 << nh) - 1
    for cset in combinations(range(nh), c):
        cmask = 0
        for i in cset:
            cmask |= 1 << i
        if host.ranks[cmask] != c:
            continue
        rest = [i for i in range(nh) if not cmask >> i & 1]
        for dset in combinations(rest, d):
            dmask = 0
            for i in dset:
                dmask |= 1 << i
            if host.ranks[full ^ dmask] - c != rp:
                continue
            m = _minor_masks(host, dmask, cmask)
            if _iso_invariants(m) == pinv and is_isomorphic(m, pattern):
                return True
    return False
