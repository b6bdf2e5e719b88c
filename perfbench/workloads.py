"""Seeded inputs, operations and answer checks for the six workloads.

A workload is a list of passes.  Every pass of a workload is drawn from the
same recipe, so passes cost about the same and any whole number of them gives
the same mix; the runner cycles through the passes until the time is up.  An
op is one unit of user work: `call` is timed, `check` runs after the pass,
outside the timed region, and never repeats the call it checks.

Library functions are looked up on the package object at call time, so the
traced run's wrappers see every call.
"""

import functools
import importlib.util
import itertools
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    name: str
    call: object                 # () -> result, timed
    check: object                # result -> bool, untimed
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    passes: list                 # list of lists of Op
    limit_s: float               # per-op time limit
    known_defects: list          # named inputs the library fails on today
    props: dict                  # input properties, printed with the result
    # False when each op runs in a child process: then the op is bounded by
    # the subprocess timeout, not SIGALRM, and peak RSS is the largest child's
    in_process: bool = True


# ---------------------------------------------------------------- generators

def profile_word(counts):
    return "".join("N" if b > a else "E" for a, b in zip(counts, counts[1:]))


def prefix(word):
    out = [0]
    for ch in word:
        out.append(out[-1] + (ch == "N"))
    return out


def band_pair(L, rng, n, width):
    """Connected pair: the region within `width` N-steps of a random path.

    Clipping by t and r keeps the bounds strictly apart inside (0, n), so
    the pair is connected for every draw.
    """
    r = n // 2
    m = n - r
    word = ["N"] * r + ["E"] * m
    rng.shuffle(word)
    p = prefix(word)
    upper = [min(t, p[t] + width, r) for t in range(n + 1)]
    lower = [max(0, t - m, p[t] - width) for t in range(n + 1)]
    return L.BoundingPair(profile_word(lower), profile_word(upper))


def random_pair(L, rng, n):
    """Pointwise min/max of two random words with a common N count."""
    r = rng.randint(0, n)
    a = ["N"] * r + ["E"] * (n - r)
    b = a[:]
    rng.shuffle(a)
    rng.shuffle(b)
    pa, pb = prefix(a), prefix(b)
    lo = [min(x, y) for x, y in zip(pa, pb)]
    hi = [max(x, y) for x, y in zip(pa, pb)]
    return L.BoundingPair(profile_word(lo), profile_word(hi))


def random_connected_pair(L, rng, n):
    """random_pair conditioned on the two paths meeting only at their ends.

    Both words are drawn step by step (sampling without replacement), so a
    draw is dropped at its first interior meeting point.
    """
    while True:
        r = rng.randint(1, n - 1)
        left = [r, n - r, r, n - r]  # N and E steps still to place in a, b
        ca = cb = 0
        lo, hi = [0], [0]
        for t in range(1, n + 1):
            for w in (0, 2):
                step = rng.random() * (left[w] + left[w + 1]) < left[w]
                left[w + 1 - step] -= 1
                if w == 0:
                    ca += step
                else:
                    cb += step
            if t < n and ca == cb:
                break
            lo.append(min(ca, cb))
            hi.append(max(ca, cb))
        else:
            return L.BoundingPair(profile_word(lo), profile_word(hi))


def class_count(L, pair):
    """Incidence classes of the pair's maximal presentation."""
    ivs = L.lpm_maximal_presentation(pair).intervals
    return len({tuple(i for i, (a, b) in enumerate(ivs) if a <= x <= b)
                for x in range(1, pair.size + 1)})


def presentation(L, rng, pair, shuffle=True):
    """Standard presentation; shuffled labels, ground order and set order.

    Returns (system, labels) with labels[p - 1] the label of position p.
    """
    n = pair.size
    lefts, rights = ref.intervals(pair.lower, pair.upper)
    labels = rng.sample(range(1, 3 * n + 2), n) if shuffle else list(range(1, n + 1))
    sets = [frozenset(labels[p - 1] for p in range(a, b + 1))
            for a, b in zip(lefts, rights)]
    ground = labels[:]
    if shuffle:
        rng.shuffle(sets)
        rng.shuffle(ground)
    return L.make_system(ground, sets), labels


def random_system(L, rng, n_min=3, n_max=8):
    n = rng.randint(n_min, n_max)
    ground = list(range(1, n + 1))
    return L.make_system(ground, [set(rng.sample(ground, rng.randint(0, n)))
                                  for _ in range(rng.randint(1, n))])


def random_basis(rng, pair):
    lp, up = prefix(pair.lower), prefix(pair.upper)
    c, out = 0, []
    for t in range(1, pair.size + 1):
        steps = [d for d in (0, 1) if lp[t] <= c + d <= up[t]]
        d = rng.choice(steps)
        c += d
        if d:
            out.append(t)
    return out


def all_pairs(L, n):
    by_r = {}
    for mask in range(1 << n):
        prof = [0]
        for i in range(n):
            prof.append(prof[-1] + (mask >> i & 1))
        by_r.setdefault(prof[-1], []).append(prof)
    for group in by_r.values():
        for lo in group:
            for hi in group:
                if all(x <= y for x, y in zip(lo, hi)):
                    yield profile_word(lo), profile_word(hi)


def canonical_components(L, pair):
    out = []
    for c in L.lpm_components(pair):
        rot = (c.upper[::-1], c.lower[::-1])
        out.append(min((c.lower, c.upper), rot))
    return sorted(out)


def round_trip_ok(L, pair):
    """Criterion 2: accepted, and the blocks are the pair's canonical components."""
    want = canonical_components(L, pair)

    def check(out):
        return out.accepted and sorted(
            (p.lower, p.upper) for _, p in out.components) == want
    return check


# ---------------------------------------------------------------- pair_sweep

def sweep_op(L, lower, upper):
    p = L.BoundingPair(lower, upper)
    d = L.dual(p)
    n = p.size
    out = {"p": p, "d": d,
           "del": [L.path_minor(p, x, "delete") for x in range(1, n + 1)],
           "con": [L.path_minor(d, x, "contract") for x in range(1, n + 1)],
           "canon": L.canonical_form(p),
           "bases": (L.count_bases(p), L.count_bases(d))}
    if n and L.is_connected(p):
        out["flats"] = (L.fundamental_flats(p).flats(), L.fundamental_flats(d).flats())
        out["conn"] = (L.connectivity(p)[0], L.connectivity(d)[0])
    return out


def sweep_check(L, lower, upper):
    def check(out):
        p, d = out["p"], out["d"]
        n = len(lower)
        ok = (p.lower, p.upper) == (lower, upper)
        ok = ok and L.dual(d) == p and out["bases"][0] == out["bases"][1]
        ok = ok and out["bases"][0] == ref.count_bases(lower, upper)
        canon = min((lower, upper), (upper[::-1], lower[::-1]))
        ok = ok and (out["canon"].lower, out["canon"].upper) == canon
        ok = ok and all(L.dual(a) == b for a, b in zip(out["del"], out["con"]))
        if "flats" in out:
            ground = frozenset(range(1, n + 1))
            primal = {frozenset(f) for f, _ in out["flats"][0]}
            co = {frozenset(f) for f, _ in out["flats"][1]}
            ok = ok and co == {ground - f for f in primal}
            ok = ok and out["conn"][0] == out["conn"][1]
        return ok
    return check


def build_pair_sweep(L, rng, toy):
    words = [w for n in range(9 if not toy else 5) for w in all_pairs(L, n)]
    rng.shuffle(words)
    ops = [Op("pair_sweep", functools.partial(sweep_op, L, lo, up),
              sweep_check(L, lo, up)) for lo, up in words]
    k = 4
    passes = [ops[i::k] for i in range(k)]
    return Workload("pair_sweep", passes, 5.0, [],
                    {"pairs": len(words), "n": [0, 8 if not toy else 4]})


# ---------------------------------------------------------------- pair_queries

# (n, width, components); the seed draws the paths and the query arguments
QUERY_POOL = ((256, 2, 1), (256, 4, 1), (256, 8, 1), (256, 12, 1), (256, 16, 1),
              (256, 24, 1), (256, 32, 1), (256, 4, 2), (256, 8, 4),
              (1024, 4, 1), (1024, 8, 2), (1024, 16, 8), (4096, 8, 1))
TOY_POOL = ((32, 2, 1), (32, 4, 2))
CIRCUIT_CAP = 50
# circuits() builds every circuit of a size before yielding the first; past
# width 2 the smallest size class alone runs for seconds at n = 256.
# connected_flats runs on the same pair only.  With nine pairs at n = 256,
# the 90th percentile of a pass falls inside the cluster of n = 256 loops
# calls rather than on the edge between two clusters, where it would jump
# between runs
CIRCUIT_MAX_WIDTH = 2


def capped_circuits(L, pair, cap):
    return list(itertools.islice(L.circuits(pair), cap))


def query_ops(L, rng, pair, width, comps):
    lo_w, up_w = pair.lower, pair.upper
    n, r = pair.size, pair.r
    isth = set(ref.isthmuses(lo_w, up_w))
    loop_set = set(ref.loops(lo_w, up_w))
    props = {"n": n, "width": width, "components": comps}

    def op(name, call, check):
        return Op(f"pair_queries.{name}", call, check, props)

    x = rng.randint(1, n)
    basis = random_basis(rng, pair)
    a = rng.randint(1, n)
    b = rng.randint(a, n)
    y = rng.randint(1, n)
    kind = rng.choice(("delete", "contract"))
    ops = [
        op("element_interval", lambda: L.element_interval(pair, x),
           lambda got: got == ref.element_interval(lo_w, up_w, x)),
        op("is_basis", lambda: L.is_basis(pair, basis),
           lambda got: got is True and ref.is_basis(lo_w, up_w, basis)),
        op("loops", lambda: L.loops(pair),
           lambda got: tuple(got) == ref.loops(lo_w, up_w)),
        op("isthmuses", lambda: L.isthmuses(pair),
           lambda got: tuple(got) == ref.isthmuses(lo_w, up_w)),
        op("count_bases", lambda: L.count_bases(pair),
           lambda got: got == ref.count_bases(lo_w, up_w)),
        op("connectivity", lambda: L.connectivity(pair),
           lambda got: connectivity_ok(lo_w, up_w, got)),
        op("lpm_maximal_presentation",
           lambda: L.lpm_maximal_presentation(pair, strip_isthmuses=True),
           lambda got: len(got.intervals) == r - len(isth) and got.size == n - len(isth)),
        op("restrict_interval", lambda: L.restrict_interval(pair, a, b),
           lambda got: got.size == b - a + 1
           and got.r == ref.interval_rank(lo_w, up_w, range(a, b + 1))),
        op("path_minor", lambda: L.path_minor(pair, y, kind),
           lambda got: got.size == n - 1 and got.r == r - (
               (y in isth) if kind == "delete" else (y not in loop_set))),
    ]
    if comps == 1:
        circuit = sorted(L.spanning_circuit(pair))
        probes = rng.sample(circuit, min(8, len(circuit)))
        ops += [
            op("fundamental_flats", lambda: L.fundamental_flats(pair),
               lambda got: flats_ok(lo_w, up_w, got)),
            op("spanning_circuit", lambda: L.spanning_circuit(pair),
               lambda got: len(got) == r + 1 and ref.is_circuit(
                   lo_w, up_w, got, sorted(got)[:4] + sorted(got)[-4:])),
        ]
        if n <= 1024:  # O(r n) at seed; 1.5 s a call at n = 4096
            ops.append(op("is_circuit", lambda: L.is_circuit(pair, circuit),
                          lambda got: got is ref.is_circuit(lo_w, up_w, circuit, probes)))
        if n <= 256 and width <= CIRCUIT_MAX_WIDTH:
            ops += [
                op("connected_flats", lambda: L.connected_flats(pair),
                   lambda got: all(0 < len(f) < n and max(f) - min(f) + 1 == len(f)
                                   and rk == ref.interval_rank(lo_w, up_w, f)
                                   for f, rk in got)),
                op("circuits", lambda: capped_circuits(L, pair, CIRCUIT_CAP),
                   lambda got: all(len(c) <= len(d) for c, d in zip(got, got[1:]))
                   and all(ref.is_circuit(lo_w, up_w, c, c) for c in got)),
            ]
    return ops


def connectivity_ok(lower, upper, got):
    k, witness = got
    n = len(lower)
    if witness is None:
        return k == float("inf")
    side, rest = witness
    r = prefix(lower)[-1]
    lam = (ref.interval_rank(lower, upper, side) + ref.interval_rank(lower, upper, rest)
           - r + 1)
    return (side | rest == frozenset(range(1, n + 1)) and not side & rest
            and min(len(side), len(rest)) >= k and lam == k)


def flats_ok(lower, upper, got):
    n = len(lower)
    return (all(rk == ref.interval_rank(lower, upper, range(1, e + 1)) and nl == e - rk
                for e, rk, nl in got.initial)
            and all(rk == ref.interval_rank(lower, upper, range(s, n + 1))
                    and nl == n - s + 1 - rk for s, rk, nl in got.final))


def build_pair_queries(L, rng, toy):
    pool = []
    for n, width, comps in (TOY_POOL if toy else QUERY_POOL):
        pair = L.direct_sum([band_pair(L, rng, n // comps, width) for _ in range(comps)])
        pool.append((pair, width, comps))
    passes = []
    for _ in range(4):
        ops = []
        for pair, width, comps in pool:
            ops += query_ops(L, rng, pair, width, comps)
        passes.append(ops)
    return Workload("pair_queries", passes, 30.0, [],
                    {"pool": [{"n": p.size, "width": w, "components": c}
                              for p, w, c in pool]})


# ---------------------------------------------------------------- recognize

# (n, smallest class count, largest class count, pairs per pass).  The counts
# follow the natural spread of class counts at each n, stopped at 10 classes
# so every op stays far below the time limit and the timing tail is not left
# to a few draws; the n = 64 pairs below carry the exponential case.
RECOGNIZE_QUOTAS = (
    (16, 1, 5, 5), (16, 6, 6, 3), (16, 7, 7, 3), (16, 8, 8, 2), (16, 9, 9, 2), (16, 10, 10, 1),
    (20, 1, 6, 4), (20, 7, 7, 2), (20, 8, 8, 2), (20, 9, 9, 2), (20, 10, 10, 2),
    (24, 1, 7, 3), (24, 8, 8, 2), (24, 9, 9, 2), (24, 10, 10, 1),
)
TOY_QUOTAS = ((8, 1, 8, 3), (10, 1, 10, 2))
RANDOM_SYSTEMS = 12
DEFECT_N = 64
DEFECT_MIN_CLASSES = 16


def draw_by_classes(L, rng, quotas):
    """Connected pairs filling each (n, class range) quota, in draw order."""
    out = []
    for n in sorted({q[0] for q in quotas}):
        need = {(lo, hi): cnt for qn, lo, hi, cnt in quotas if qn == n}
        while any(need.values()):
            pair = random_connected_pair(L, rng, n)
            k = class_count(L, pair)
            for (lo, hi), cnt in need.items():
                if cnt and lo <= k <= hi:
                    need[(lo, hi)] -= 1
                    out.append((pair, k))
                    break
    return out


@functools.cache
def oracles():
    """tests/oracles.py, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location(
        "latpath_test_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recognize_op(L, rng, pair, k):
    system, _ = presentation(L, rng, pair)
    return Op(f"recognize.n{pair.size}", lambda: L.recognize(system),
              round_trip_ok(L, pair), {"n": pair.size, "classes": k, "blocks": 1})


def build_recognize(L, rng, toy):
    quotas = TOY_QUOTAS if toy else RECOGNIZE_QUOTAS
    passes = []
    for _ in range(3 if toy else 12):
        ops = [recognize_op(L, rng, pair, k) for pair, k in draw_by_classes(L, rng, quotas)]
        for _ in range(RANDOM_SYSTEMS):
            system = random_system(L, rng)
            ops.append(Op("recognize.random", lambda s=system: L.recognize(s),
                          lambda out, s=system: out.accepted == oracles().is_lpm_system(
                              s.ground, s.sets), {"n": system.size}))
        passes.append(ops)
    defects = []
    if not toy:
        while len(defects) < 2:
            pair = random_connected_pair(L, rng, DEFECT_N)
            k = class_count(L, pair)
            if k >= DEFECT_MIN_CLASSES:
                op = recognize_op(L, rng, pair, k)
                op.name = f"recognize_n64_{'ab'[len(defects)]}"
                defects.append(op)
    classes = [op.props["classes"] for op in passes[0] if "classes" in op.props]
    return Workload("recognize", passes, 2.0, defects, {
        "n": sorted({q[0] for q in quotas}), "random_system_n": [3, 8],
        "classes_p50": statistics.median(classes), "classes_max": max(classes),
        "blocks": 1, "defect_classes": [op.props["classes"] for op in defects]})


# ---------------------------------------------------------------- presentations

def block_sum(L, rng, n_total, lo=4, hi=10):
    blocks = []
    while sum(b.size for b in blocks) < n_total:
        blocks.append(random_connected_pair(L, rng, rng.randint(lo, hi)))
    return L.direct_sum(blocks), len(blocks)


def maximal_op(L, rng, n, width):
    """maximal_presentation of a band pair plus one isthmus, shuffled."""
    pair = L.direct_sum([band_pair(L, rng, n, width), L.BoundingPair("N", "N")])
    system, labels = presentation(L, rng, pair)
    want_isth = {labels[p - 1] for p in ref.isthmuses(pair.lower, pair.upper)}

    def check(out):
        sets = list(out.sets)
        return (len(sets) == pair.r and ref.rank(list(out.ground), sets) == pair.r
                and ref.system_isthmuses(list(out.ground), sets) == want_isth)
    return Op(f"presentations.maximal_presentation.n{n}",
              lambda: L.maximal_presentation(system), check,
              {"n": pair.size, "width": width, "components": 2})


def uniform_op(L, rng, r, name=None):
    pair = L.BoundingPair("E" + "N" * r, "N" * r + "E")
    system, _ = presentation(L, rng, pair)
    return Op(name or f"presentations.matching_rank.r{r}",
              lambda: L.matching_rank(system), lambda got: got == r,
              {"n": r + 1, "sets": r, "components": 1})


# U(1000, 1001) sits at the recursion limit: whether matching_rank raises
# depends on the shuffle and on the caller's stack depth, so the largest
# always-passing size is 800; 2000 always raises (the known defect)
UNIFORM_R = 800


def build_presentations(L, rng, toy):
    # ~100 ops per pass, so one pass fills a round even with the 1 s
    # maximal_presentation at n = 256 in it
    recipe = ((("sum", 256), 55), (("sum", 512), 4), (("max", 64), 12), (("max", 128), 2),
              (("max", 256), 1), (("U", 500), 20), (("U", UNIFORM_R), 8))
    if toy:
        recipe = ((("sum", 32), 2), (("max", 16), 2), (("U", 20), 2))
    passes = []
    blocks_seen = []
    for _ in range(3):
        ops = []
        for (kind, n), count in recipe:
            for _ in range(count):
                if kind == "sum":
                    pair, blocks = block_sum(L, rng, n)
                    blocks_seen.append(blocks)
                    system, _ = presentation(L, rng, pair)
                    ops.append(Op(f"presentations.recognize.n{n}",
                                  lambda s=system: L.recognize(s),
                                  round_trip_ok(L, pair),
                                  {"n": pair.size, "blocks": blocks}))
                elif kind == "max":
                    ops.append(maximal_op(L, rng, n, 4))
                else:
                    ops.append(uniform_op(L, rng, n))
        passes.append(ops)
    defects = [] if toy else [uniform_op(L, rng, 2000, "matching_rank_U2000")]
    return Workload("presentations", passes, 20.0, defects, {
        "recognize_n": [256, 512], "blocks_per_sum_p50": statistics.median(blocks_seen),
        "block_n": [4, 10], "maximal_n": [64, 128, 256], "maximal_width": 4,
        "uniform_r": [500, UNIFORM_R], "defect_uniform_r": 2000})


# ---------------------------------------------------------------- rank_table

# criterion 9: (name, params, target, expected verdict)
VERIFY_MATRIX = tuple(
    [(n, p, t, True) for n, p, t in (
        ("Pn", 2, "catalan"), ("Pn", 3, "catalan"), ("Pn", 4, "catalan"),
        ("An", 3, "notch"), ("An", 4, "notch"), ("Bnk", (2, 2), "notch"),
        ("Bnk", (3, 2), "notch"), ("Cnk", (4, 2), "notch"), ("Cnk", (5, 2), "notch"),
        ("Dn", 3, "notch"), ("Dn", 4, "notch"), ("En", 3, "notch"), ("En", 4, "notch"),
        ("Fn", 4, "notch"), ("Fn", 5, "notch"), ("Gn", 2, "notch"), ("Gn", 3, "notch"),
        ("Hn", 3, "notch"), ("Hn", 4, "notch"), ("W3", (), "notch"),
        ("Whirl3", (), "notch"), ("PrismDualPair", 1, "notch"),
        ("PrismDualPair", 2, "notch"))]
    + [(n, p, "lpm_intersection", True) for n, p in (
        ("An", 3), ("An", 4), ("Bnk", (2, 2)), ("Bnk", (3, 2)), ("Cnk", (4, 2)),
        ("Cnk", (5, 2)), ("Dn", 4), ("En", 4), ("W3", ()), ("Whirl3", ()))]
    + [(n, p, "lpm_intersection", False) for n, p in (
        ("Dn", 3), ("En", 3), ("Fn", 4), ("Fn", 5), ("Gn", 2), ("Gn", 3), ("Hn", 3),
        ("Hn", 4), ("PrismDualPair", 1), ("PrismDualPair", 2))])


def table_ops(L, pair):
    """to_rank_table, then the three brute oracles on the table it built."""
    ctx = {}
    n = pair.size
    props = {"n": n}

    def build():
        ctx["table"] = L.to_rank_table(pair, cap=16)
        return ctx["table"]

    def circuits_ok(got):
        want = [tuple(sorted(c)) for c in L.circuits(pair)]
        return [tuple(sorted(c)) for c in got] == want

    def flats_ok(got):
        want = sorted((tuple(sorted(f)), rk) for f, rk in L.connected_flats(pair))
        return sorted((tuple(sorted(f)), rk) for f, rk in got if len(f) < n) == want

    return [
        Op(f"rank_table.to_rank_table.n{n}", build,
           lambda t: len(t.ranks) == 1 << n and t.rank_total == pair.r, props),
        Op(f"rank_table.brute_circuits.n{n}", lambda: L.brute_circuits(ctx["table"]),
           circuits_ok, props),
        Op(f"rank_table.brute_connected_flats.n{n}",
           lambda: L.brute_connected_flats(ctx["table"]), flats_ok, props),
        Op(f"rank_table.brute_connectivity.n{n}",
           lambda: L.brute_connectivity(ctx["table"]),
           lambda k: k == L.connectivity(pair)[0], props),
    ]


def verify_op(L, name, params, target, want):
    entry = L.catalog(name, params)
    return Op("rank_table.verify_excluded_minor",
              lambda: L.verify_excluded_minor(entry, target),
              lambda rep: rep.passed is want, {"entry": name, "target": target})


def minor_op(L, rng, n):
    """has_minor over the P_k patterns; criterion 10 says it fails exactly on chains."""
    host = L.to_rank_table(random_connected_pair(L, rng, n))
    patterns = [L.entry_table(L.catalog("Pn", k)) for k in range(2, n // 2 + 1)]

    def chain(flats):
        sets = [set(f) for f, _ in flats]
        return all(a <= b or b <= a for a, b in itertools.combinations(sets, 2))
    return Op(f"rank_table.has_minor.n{n}",
              lambda: any(L.has_minor(host, p) for p in patterns),
              lambda got: got == (not chain(L.brute_connected_flats(host))), {"n": n})


def build_rank_table(L, rng, toy):
    # every n from 12 to 16, so table costs spread evenly instead of in
    # three clusters that p50 and p90 would jump between
    sizes = (6, 8) if toy else (12, 13, 14, 15, 16)
    matrix = VERIFY_MATRIX[:4] if toy else VERIFY_MATRIX
    passes = []
    for _ in range(8):
        ops = []
        for n in sizes:
            ops += table_ops(L, random_connected_pair(L, rng, n))
        ops += [verify_op(L, *row) for row in matrix]
        ops += [minor_op(L, rng, 6 if toy else 10) for _ in range(2)]
        passes.append(ops)
    return Workload("rank_table", passes, 20.0, [], {
        "table_n": list(sizes), "verify_entries": len(matrix), "minor_host_n": 10,
        "masks_per_pass": sum(1 << n for n in sizes)})


# ---------------------------------------------------------------- cli

@functools.cache
def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCrash(Exception):
    """The child printed a Python traceback instead of an answer."""


def run_cli(argv, stdin, timeout):
    proc = subprocess.run([sys.executable, "-m", "latpath.cli", *argv], input=stdin,
                          capture_output=True, timeout=timeout, cwd=ROOT, env=cli_env())
    if b"Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1].decode(errors="replace")
        raise CliCrash(f"exit {proc.returncode}: {last}")
    return proc.returncode, proc.stdout


def in_process_answer(L, argv, stdin):
    """Exit status and stdout bytes of latpath.cli.main run in this process."""
    import contextlib
    import io
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin.decode())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = L.cli.main(list(argv))
    finally:
        sys.stdin = old_stdin
    return status, out.getvalue().encode()


def system_doc(system):
    import json
    return json.dumps({"ground": list(system.ground),
                       "sets": [sorted(s) for s in system.sets]}).encode()


def cli_op(L, sub, argv, stdin=b"", limit=30.0):
    argv = tuple(argv)

    def check(got):
        try:
            return got == in_process_answer(L, argv, stdin)
        except RecursionError:
            return False
    return Op(f"cli.{sub}", lambda: run_cli(argv, stdin, limit), check, {"argv0": sub})


def build_cli(L, rng, toy):
    import latpath.cli  # noqa: F401  (binds L.cli for the in-process answers)
    limit = 30.0
    passes = []
    for _ in range(2 if toy else 8):
        pair = random_connected_pair(L, rng, rng.randint(10, 16))
        other = random_pair(L, rng, rng.randint(3, 8))
        acc, _ = presentation(L, rng, random_connected_pair(L, rng, rng.randint(10, 14)))
        rand = random_system(L, rng)
        x = rng.randint(1, pair.size)
        a = rng.randint(1, pair.size)
        b = rng.randint(a, pair.size)
        name, params, target, _ = rng.choice(VERIFY_MATRIX)
        if not isinstance(params, tuple):
            params = (params,)
        words = ("--pair", pair.lower, pair.upper)
        ops = [
            cli_op(L, "info", ["info", *words]),
            cli_op(L, "info", ["info", "--system", "-"], system_doc(acc)),
            cli_op(L, "recognize", ["recognize", "--system", "-"], system_doc(acc)),
            cli_op(L, "recognize", ["recognize", "--system", "-"], system_doc(rand)),
            cli_op(L, "transform", ["transform", *words, "dual"]),
            cli_op(L, "transform", ["transform", *words, "delete", str(x)]),
            cli_op(L, "transform", ["transform", *words, "contract", str(x)]),
            cli_op(L, "transform", ["transform", *words, "sum", "-"],
                   f"{other.lower} {other.upper}\n".encode()),
            cli_op(L, "transform", ["transform", *words, "restrict", str(a), str(b)]),
            cli_op(L, "transform", ["transform", *words, "canonical"]),
            cli_op(L, "class", ["class", *words]),
            cli_op(L, "class", ["class", "--catalog", name, *map(str, params),
                                "--verify", "--target", target]),
            cli_op(L, "catalog-list", ["catalog-list"]),
        ]
        passes.append(ops)
    defects = []
    if not toy:
        big, _ = presentation(L, rng, L.BoundingPair("E" + "N" * 1200, "N" * 1200 + "E"),
                              shuffle=False)
        op = cli_op(L, "recognize", ["recognize", "--system", "-"], system_doc(big))
        op.name = "cli_recognize_U1200"
        defects.append(op)
    return Workload("cli", passes, limit, defects, {
        "pair_n": [10, 16], "system_n": [3, 14], "subcommands": 5,
        "defect_sets": 1200}, in_process=False)


WORKLOADS_BY_NAME = {
    "pair_sweep": build_pair_sweep,
    "pair_queries": build_pair_queries,
    "recognize": build_recognize,
    "presentations": build_presentations,
    "rank_table": build_rank_table,
    "cli": build_cli,
}


def build(L, name, seed, toy=False):
    return WORKLOADS_BY_NAME[name](L, random.Random(f"{name}:{seed}"), toy)


# ---------------------------------------------------------------- ceilings

CEILING_NS = (16, 64, 256, 1024, 4096)
RANKTABLE_CAP = 16


def ceiling_calls(L, rng):
    """Per layer, its representative call at each rung of the size ladder."""
    def loops_at(n):
        pair = band_pair(L, rng, n, 8)
        return lambda: L.loops(pair)

    def special_at(n):
        system, _ = presentation(L, rng, band_pair(L, rng, n, 8))
        return lambda: L.special_elements(system)

    def recognize_at(n):
        system, _ = presentation(L, rng, band_pair(L, rng, n, 2))
        return lambda: L.recognize(system)

    def table_at(n):
        pair = band_pair(L, rng, n, 3)
        return lambda: L.to_rank_table(pair, cap=RANKTABLE_CAP)

    return {
        "pairs": (loops_at, CEILING_NS),
        "setsystem": (special_at, CEILING_NS),
        "recognition": (recognize_at, CEILING_NS),
        "ranktable": (table_at, tuple(n for n in CEILING_NS if n <= RANKTABLE_CAP)),
    }
