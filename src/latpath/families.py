"""Class membership (generalized Catalan, notch, lattice path) and the
excluded-minor catalog.

Pair-level tests decide membership by arranging connected components against
the defining path shapes.  Table-level tests decide the same classes from the
rank function alone (chain condition on connected flats, circuit-hyperplane
plus the flat characterization), so the two routes stay independent.  The
catalog carries the known excluded minors with frozen realizations, and
verify_excluded_minor certifies minor-minimality against a chosen class.
"""

from dataclasses import dataclass

from .errors import DomainError
from .pairs import BoundingPair, lpm_components, to_rank_table
from .ranktable import (DirectSum, Dual, FreeExt, Paving, Relax, Truncate,
                        Uniform, brute_circuits, brute_connected_flats,
                        brute_fundamental_flats, construct, has_minor, minor,
                        _is_connected_mask)


# pair-level membership

def _nontrivial_blocks(pair):
    return [c for c in lpm_components(pair) if c.size >= 2]


def is_generalized_catalan(pair):
    """Some arrangement of the components is bounded below by a single-corner path."""
    blocks = _nontrivial_blocks(pair)
    if len(blocks) > 1:
        return False
    for b in blocks:
        shape = "E" * b.m + "N" * b.r
        if b.lower != shape and b.upper[::-1] != shape:
            return False
    return True


def is_notch(pair):
    """Some arrangement of the components is bounded below by a path with at
    most one notch (E^m N^r or E^(m-1) N E N^(r-1), up to half-turn)."""
    blocks = _nontrivial_blocks(pair)
    if len(blocks) > 2:
        return False
    if len(blocks) == 2:
        (r1, m1), (r2, m2) = [(b.r, b.m) for b in blocks]
        return (r1 == 1 and m2 == 1) or (m1 == 1 and r2 == 1)
    for b in blocks:
        shapes = {"E" * b.m + "N" * b.r,
                  "E" * (b.m - 1) + "NE" + "N" * (b.r - 1)}
        if b.lower not in shapes and b.upper[::-1] not in shapes:
            return False
    return True


# table-level membership

def table_components(table):
    """Blocks of the matroid: elements joined by circuits; singletons otherwise."""
    n = table.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    index = {e: i for i, e in enumerate(table.ground)}
    for c in brute_circuits(table):
        idx = sorted(index[e] for e in c)
        for a, b in zip(idx, idx[1:]):
            parent[find(a)] = find(b)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(table.ground[i])
    return tuple(tuple(b) for b in sorted(blocks.values(),
                                          key=lambda b: index[b[0]]))


def _restriction(table, elements):
    keep = set(elements)
    return minor(table, [e for e in table.ground if e not in keep], [])


def _has_circuit_hyperplane(table):
    r = table.rank_total
    for c in brute_circuits(table):
        if len(c) != r:
            continue
        cm = table.mask_of(c)
        if all(table.ranks[cm | 1 << i] == r
               for i in range(table.size) if not cm >> i & 1):
            return True
    return False


def table_in_catalan(table):
    """Membership via the chain condition on connected flats of the one block."""
    blocks = [b for b in table_components(table) if len(b) >= 2]
    if not blocks:
        return True
    if len(blocks) > 1:
        return False
    sub = _restriction(table, blocks[0])
    flats = [f for f, _ in brute_connected_flats(sub)]
    return all(a <= b or b <= a for i, a in enumerate(flats) for b in flats[:i])


def table_in_notch(table):
    blocks = [b for b in table_components(table) if len(b) >= 2]
    if len(blocks) > 2:
        return False
    if len(blocks) == 2:
        subs = [_restriction(table, b) for b in blocks]
        prof = [(s.rank_total, s.corank) for s in subs]
        return ((prof[0][0] == 1 and prof[1][1] == 1)
                or (prof[0][1] == 1 and prof[1][0] == 1))
    for b in blocks:
        sub = _restriction(table, b)
        if table_in_catalan(sub):
            continue
        if not (_has_circuit_hyperplane(sub) and lpmchar_check(sub)[0]):
            return False
    return True


def table_is_lpm(table):
    return all(lpmchar_check(_restriction(table, b))[0]
               for b in table_components(table) if len(b) >= 2)


def lpmchar_check(table):
    """Flat-collection test for connected tables.

    (ok, None) or (ok=False, (condition, witness)) where condition is one of
    "chains", "union", "flats", "rank": the fundamental flats must split into
    two chains; crossing members must union to the ground; the proper
    nontrivial connected flats must be exactly the chain members plus the fat
    intersections; and those intersections must have the modular rank.
    """
    full = (1 << table.size) - 1
    if not _is_connected_mask(table, full):
        raise DomainError("table is not connected")
    ground = frozenset(table.ground)
    r = table.rank_total
    m = table.corank
    ff = brute_fundamental_flats(table)
    cf = {f for f, _ in brute_connected_flats(table) if f != ground}
    best = (0, ("chains", tuple(f for f, _ in ff)))
    k = len(ff)
    for split in range(1 << max(k - 1, 0)):
        chain1, chain2 = [], []
        for i, (f, rk) in enumerate(ff):
            (chain1 if (i == 0 or split >> (i - 1) & 1) else chain2).append((f, rk))
        if any(not (a[0] <= b[0] or b[0] <= a[0])
               for ch in (chain1, chain2) for i, a in enumerate(ch) for b in ch[:i]):
            continue
        fail = None
        inter = []
        for f, rf in chain1:
            for g, rg in chain2:
                if f & g and f | g != ground:
                    fail = (1, ("union", (f, g)))
                    break
                nf, ng = len(f) - rf, len(g) - rg
                if m < nf + ng:
                    inter.append((f & g, rf + rg - r))
            if fail:
                break
        if fail is None:
            expected = {f for f, _ in chain1} | {f for f, _ in chain2} | {f for f, _ in inter}
            if expected != cf:
                fail = (2, ("flats", tuple(sorted(expected ^ cf, key=sorted))))
            else:
                for f, rk in inter:
                    if table.ranks[table.mask_of(f)] != rk:
                        fail = (3, ("rank", f))
                        break
        if fail is None:
            return True, None
        if fail[0] > best[0]:
            best = fail
    return False, best[1]


def notlpm_certificate(table):
    """Two overlapping spanning-union connected flats plus an outside element, or None."""
    ground = frozenset(table.ground)
    r = table.rank_total
    flats = brute_connected_flats(table)
    for i, (x, _) in enumerate(flats):
        for y, _ in flats[:i]:
            u = x | y
            if x & y and u != ground and table.ranks[table.mask_of(u)] == r:
                out = next(e for e in table.ground if e not in u)
                return (y, x, out)
    return None


# catalog

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    pair: BoundingPair | None
    expr: object | None
    note: str

    @property
    def realization(self):
        return self.pair if self.pair is not None else self.expr


def _need(cond, msg):
    if not cond:
        raise DomainError(msg)


def _one_param(params, least, name):
    _need(len(params) == 1, f"{name} takes one parameter")
    n = params[0]
    _need(isinstance(n, int) and n >= least, f"{name} needs an integer >= {least}")
    return n


CATALOG_INFO = (
    ("Mn", "n>=1", "pair", "single-corner family; bases count the ballot paths"),
    ("Pn", "n>=2", "pair+expr", "excluded minors for the single-corner class"),
    ("W3", "", "expr", "3-wheel; flat chains fail"),
    ("Whirl3", "", "expr", "3-whirl; flat chains fail"),
    ("An", "n>=3", "expr", "two circuit-hyperplanes through a common point"),
    ("Bnk", "n k (2<=k<=n)", "expr", "truncated sum of three circuits"),
    ("Cnk", "p k (p>=2k, k>=2)", "expr", "dual of Bnk; prism is C 4 2"),
    ("Dn", "n>=3", "expr (pair at n=3)", "free point over a truncated circuit sum plus isthmus"),
    ("En", "n>=3", "expr (pair at n=3)", "dual of Dn"),
    ("Fn", "n>=4", "pair+expr", "truncated sum of two circuits"),
    ("Gn", "n>=2", "pair+expr", "truncated sum of two corank-2 uniforms"),
    ("Hn", "n>=3", "pair+expr", "truncated mixed sum"),
    ("PrismDualPair", "1|2", "pair+expr", "the two disconnected excluded minors"),
    ("OtherEx1", "", "none", "known further excluded minor; no realization recorded"),
    ("OtherEx2", "", "none", "known further excluded minor; no realization recorded"),
)


def catalog(name, params=()):
    if isinstance(params, int):
        params = (params,)
    params = tuple(params)
    if name == "Mn":
        n = _one_param(params, 1, name)
        return CatalogEntry(name, params,
                            BoundingPair("E" * n + "N" * n, "EN" * n), None,
                            "bases biject with the paths weakly below the staircase")
    if name == "Pn":
        n = _one_param(params, 2, name)
        pair = BoundingPair("E" * (n - 1) + "NE" + "N" * (n - 1),
                            "N" * (n - 1) + "EN" + "E" * (n - 1))
        expr = Truncate(DirectSum(Uniform(n - 1, n), Uniform(n - 1, n)), n)
        return CatalogEntry(name, params, pair, expr,
                            "truncated sum of two n-circuits")
    if name == "W3":
        _need(params == (), "W3 takes no parameters")
        return CatalogEntry(name, params, None, _w3_expr(), "3-wheel")
    if name == "Whirl3":
        _need(params == (), "Whirl3 takes no parameters")
        return CatalogEntry(name, params, None,
                            Relax(_w3_expr(), frozenset("def")), "3-whirl")
    if name == "An":
        n = _one_param(params, 3, name)
        hyp1 = [1] + list(range(2, n + 1))
        hyp2 = [1] + list(range(n + 1, 2 * n))
        return CatalogEntry(name, params, None,
                            Paving(n, range(1, 2 * n + 1), [hyp1, hyp2]),
                            "self-dual; one free point outside both hyperplanes")
    if name == "Bnk":
        _need(len(params) == 2, "Bnk takes two parameters")
        n, k = params
        _need(isinstance(n, int) and isinstance(k, int) and 2 <= k <= n,
              "Bnk needs integers with 2 <= k <= n")
        expr = Truncate(DirectSum(Uniform(n - 1, n), Uniform(n - 1, n),
                                  Uniform(k - 1, k)), n)
        return CatalogEntry(name, params, None, expr,
                            "three disjoint circuit flats")
    if name == "Cnk":
        _need(len(params) == 2, "Cnk takes two parameters")
        p, k = params
        _need(isinstance(p, int) and isinstance(k, int) and k >= 2 and p >= 2 * k,
              "Cnk needs integers with k >= 2 and p >= 2k")
        inner = catalog("Bnk", (p - k, k)).expr
        return CatalogEntry(name, params, None, Dual(inner), "dual of Bnk")
    if name == "Dn":
        n = _one_param(params, 3, name)
        inner = DirectSum(Truncate(DirectSum(Uniform(n - 2, n - 1),
                                             Uniform(n - 2, n - 1)), n - 1),
                          Uniform(1, 1))
        pair = BoundingPair("EENNEN", "NENNEE") if n == 3 else None
        return CatalogEntry(name, params, pair, FreeExt(inner),
                            "path realization exists only at n=3")
    if name == "En":
        n = _one_param(params, 3, name)
        pair = BoundingPair("ENEENN", "NNEENE") if n == 3 else None
        return CatalogEntry(name, params, pair, Dual(catalog("Dn", (n,)).expr),
                            "path realization exists only at n=3")
    if name == "Fn":
        n = _one_param(params, 4, name)
        pair = BoundingPair("E" * (n - 3) + "NNE" + "N" * (n - 2),
                            "N" * (n - 2) + "ENN" + "E" * (n - 3))
        expr = Truncate(DirectSum(Uniform(n - 2, n - 1), Uniform(n - 2, n - 1)), n)
        return CatalogEntry(name, params, pair, expr,
                            "truncated sum of two (n-1)-circuits")
    if name == "Gn":
        n = _one_param(params, 2, name)
        pair = BoundingPair("E" * n + "NEE" + "N" * (n - 1),
                            "N" * (n - 1) + "EEN" + "E" * n)
        expr = Truncate(DirectSum(Uniform(n - 1, n + 1), Uniform(n - 1, n + 1)), n)
        return CatalogEntry(name, params, pair, expr,
                            "truncated sum of two corank-2 uniforms")
    if name == "Hn":
        n = _one_param(params, 3, name)
        pair = BoundingPair("E" * (n - 2) + "NEE" + "N" * (n - 1),
                            "N" * (n - 2) + "ENN" + "E" * (n - 1))
        expr = Truncate(DirectSum(Uniform(n - 2, n - 1), Uniform(n - 1, n + 1)), n)
        return CatalogEntry(name, params, pair, expr, "truncated mixed sum")
    if name == "PrismDualPair":
        which = _one_param(params, 1, name)
        _need(which in (1, 2), "PrismDualPair takes parameter 1 or 2")
        if which == 1:
            pair = BoundingPair("ENENEN", "NENENE")
            expr = DirectSum(Uniform(1, 2), Uniform(1, 2), Uniform(1, 2))
        else:
            pair = BoundingPair("EENNEN", "NENENE")
            expr = DirectSum(Truncate(DirectSum(Uniform(1, 2), Uniform(1, 1),
                                                Uniform(1, 1)), 2), Uniform(1, 2))
        return CatalogEntry(name, params, pair, expr,
                            "disconnected; related to the prism dual")
    if name in ("OtherEx1", "OtherEx2"):
        _need(params == (), f"{name} takes no parameters")
        return CatalogEntry(name, params, None, None,
                            "placeholder; status unresolved, no realization")
    raise DomainError(f"unknown catalog name {name!r}")


def _w3_expr():
    return Paving(3, "abcdef", [frozenset("abd"), frozenset("bce"),
                                frozenset("acf"), frozenset("def")])


def entry_table(entry, cap=16):
    """RankTable of a catalog entry (constructions take precedence)."""
    if entry.expr is not None:
        return construct(entry.expr, cap)
    if entry.pair is not None:
        return to_rank_table(entry.pair, cap)
    raise DomainError(f"{entry.name} has no realization to evaluate")


# excluded-minor verification

_TARGETS = {
    "notch": table_in_notch,
    "lpm_intersection": table_is_lpm,
    "catalan": table_in_catalan,
}


@dataclass(frozen=True)
class VerificationReport:
    entry: CatalogEntry
    target: str
    not_in_class: bool
    minor_failures: tuple  # ("delete"|"contract", element) pairs that left the class
    passed: bool


def verify_excluded_minor(entry, target="notch", cap=16):
    """Certify: the entry is outside the target class, every one-element
    deletion and contraction is inside it."""
    if target not in _TARGETS:
        raise DomainError(f"unknown target class {target!r}")
    member = _TARGETS[target]
    table = entry_table(entry, cap)
    not_in_class = not member(table)
    failures = []
    for x in table.ground:
        for op, args in (("delete", ([x], [])), ("contract", ([], [x]))):
            if not member(minor(table, *args)):
                failures.append((op, x))
    return VerificationReport(entry, target, not_in_class, tuple(failures),
                              not_in_class and not failures)


def pn_minor_test(table, max_n):
    """Whether the table has one of the truncated-circuit-sum minors up to max_n."""
    for n in range(2, max_n + 1):
        if 2 * n > table.size:
            break
        if has_minor(table, entry_table(catalog("Pn", (n,)))):
            return True
    return False
