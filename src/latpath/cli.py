"""Command-line interface: info, recognize, transform, class, catalog-list.

Input is either a pair of path words (--pair LOWER UPPER) or a set-system
document (--system FILE, `-` for stdin).  The document is a JSON object with
exactly two keys: "ground", an array of distinct string or integer labels,
and "sets", an array of arrays of ground labels (no duplicates within a
set).  Exit codes: 0 success or accept, 1 semantic reject or failed
verification, 2 malformed input or refused work, 3 internal error (an
unexpected exception, reported as one `error: internal error:` line with no
traceback).  Output is plain keyed lines, byte deterministic for identical
inputs.
"""

import argparse
import json
import math
import sys

from .errors import InputError, LatpathError
from .families import (CATALOG_INFO, catalog, entry_table,
                       is_generalized_catalan, is_notch, table_in_catalan,
                       table_in_notch, table_is_lpm, verify_excluded_minor)
from .pairs import (BoundingPair, canonical_form, connected_flats,
                    connectivity, count_bases, direct_sum, dual,
                    fundamental_flats, is_connected, isthmuses, loops,
                    lpm_components, path_minor, restrict_interval)
from .ranktable import DEFAULT_CAP, construct
from .recognition import recognize
from .setsystem import make_system


def _label_key(e):
    # ints sort before strings so mixed grounds stay orderable
    return (1, str(e)) if isinstance(e, str) else (0, e)


def _fmt_labels(labels):
    labels = sorted(labels, key=_label_key)
    return ",".join(str(x) for x in labels) if labels else "-"


def _fmt_flats(entries):
    if not entries:
        return "-"
    keyed = []
    for members, rank in entries:
        ordered = sorted(members, key=_label_key)
        keyed.append((tuple(_label_key(x) for x in ordered), rank, ordered))
    keyed.sort(key=lambda t: t[:2])
    return "|".join("{%s}r%d" % (",".join(str(x) for x in ordered), rank)
                    for _, rank, ordered in keyed)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_doc(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid document: {e}") from None
    if not isinstance(doc, dict) or set(doc) != {"ground", "sets"}:
        raise InputError('document must be an object with exactly the keys "ground" and "sets"')
    ground, sets = doc["ground"], doc["sets"]
    if not isinstance(ground, list) or not isinstance(sets, list):
        raise InputError('"ground" and "sets" must be arrays')
    for e in ground:
        if isinstance(e, bool) or not isinstance(e, (str, int)):
            raise InputError(f"ground label {e!r} is not a string or integer")
    known = set(ground)
    families = []
    for i, s in enumerate(sets):
        if not isinstance(s, list):
            raise InputError(f"set {i + 1} is not an array")
        for e in s:
            if e not in known:
                raise InputError(f"element {e!r} in set {i + 1} but not in ground")
        if len(set(s)) != len(s):
            raise InputError(f"set {i + 1} repeats an element")
        families.append(frozenset(s))
    return make_system(ground, families)


def _parse_pair_text(text):
    words = text.split()
    if len(words) != 2:
        raise InputError(f"expected two path words, got {len(words)}")
    return BoundingPair(words[0], words[1])


def _int_arg(s):
    try:
        return int(s)
    except ValueError:
        raise InputError(f"expected an integer, got {s!r}") from None


def _bool(b):
    return "true" if b else "false"


def _print_rejection(rej):
    print("rejected")
    print(f"component={_fmt_labels(rej.component)}")
    print(f"step={rej.step}")
    print(f"reason={rej.reason}")


def cmd_info(args):
    if args.pair is not None:
        pair = BoundingPair(*args.pair)
        relabel = None
    else:
        system = _parse_doc(_read_text(args.system))
        outcome = recognize(system)
        if not outcome.accepted:
            _print_rejection(outcome.rejection)
            return 1
        pair = outcome.pair
        relabel = outcome.ordering

    def named(positions):
        if relabel is None:
            return positions
        return [relabel[p - 1] for p in positions]

    connected = is_connected(pair)
    ff = fundamental_flats(pair).flats() if connected else []
    cf = connected_flats(pair) if connected else []
    k, _ = connectivity(pair)
    print(f"rank={pair.r}")
    print(f"nullity={pair.m}")
    print(f"loops={_fmt_labels(named(loops(pair)))}")
    print(f"isthmuses={_fmt_labels(named(isthmuses(pair)))}")
    print(f"components={len(lpm_components(pair))}")
    print(f"connectivity={'inf' if k == math.inf else k}")
    print(f"fundamental_flats={_fmt_flats([(named(f), r) for f, r in ff])}")
    print(f"connected_flats={_fmt_flats([(named(f), r) for f, r in cf])}")
    print(f"bases={count_bases(pair)}")
    return 0


def cmd_recognize(args):
    system = _parse_doc(_read_text(args.system))
    outcome = recognize(system)
    if not outcome.accepted:
        _print_rejection(outcome.rejection)
        return 1
    print("accepted")
    print(f"order={','.join(str(x) for x in outcome.ordering)}")
    print(f"lower={outcome.pair.lower}")
    print(f"upper={outcome.pair.upper}")
    for labels, bp in outcome.components:
        print(f"component={','.join(str(x) for x in labels)} "
              f"lower={bp.lower} upper={bp.upper}")
    return 0


def cmd_transform(args):
    pair = BoundingPair(*args.pair)
    op, opargs = args.op, args.opargs

    def arity(k):
        if len(opargs) != k:
            raise InputError(f"{op} takes {k} argument(s), got {len(opargs)}")

    if op == "dual":
        arity(0)
        out = dual(pair)
    elif op in ("delete", "contract"):
        arity(1)
        out = path_minor(pair, _int_arg(opargs[0]), op)
    elif op == "sum":
        arity(1)
        out = direct_sum([pair, _parse_pair_text(_read_text(opargs[0]))])
    elif op == "restrict":
        arity(2)
        out = restrict_interval(pair, _int_arg(opargs[0]), _int_arg(opargs[1]))
    else:
        arity(0)
        out = canonical_form(pair)
    print(f"{out.lower} {out.upper}")
    return 0


def _print_memberships(lpm, cat, notch):
    print(f"is_lpm={lpm}")
    print(f"catalan={cat}")
    print(f"notch={notch}")


def cmd_class(args):
    if args.pair is not None:
        pair = BoundingPair(*args.pair)
        _print_memberships(_bool(True), _bool(is_generalized_catalan(pair)),
                           _bool(is_notch(pair)))
        return 0
    name, params = args.catalog[0], tuple(_int_arg(p) for p in args.catalog[1:])
    entry = catalog(name, params)
    kinds = {(True, True): "pair+expr", (True, False): "pair",
             (False, True): "expr", (False, False): "none"}
    print(f"name={entry.name}")
    print(f"params={','.join(str(p) for p in entry.params) or '-'}")
    print(f"realization={kinds[(entry.pair is not None, entry.expr is not None)]}")
    print(f"note={entry.note}")
    if entry.pair is not None:
        print(f"lower={entry.pair.lower}")
        print(f"upper={entry.pair.upper}")
        _print_memberships(_bool(True), _bool(is_generalized_catalan(entry.pair)),
                           _bool(is_notch(entry.pair)))
    elif entry.expr is not None:
        table = construct(entry.expr, args.cap)
        _print_memberships(_bool(table_is_lpm(table)), _bool(table_in_catalan(table)),
                           _bool(table_in_notch(table)))
    else:
        _print_memberships("unknown", "unknown", "unknown")
    if args.verify:
        report = verify_excluded_minor(entry, args.target, args.cap)
        print(f"target={report.target}")
        print(f"not_in_class={_bool(report.not_in_class)}")
        fails = "|".join(f"{op}:{x}" for op, x in report.minor_failures)
        print(f"minor_failures={fails or '-'}")
        print(f"verify={'pass' if report.passed else 'fail'}")
        return 0 if report.passed else 1
    return 0


def cmd_catalog_list(args):
    for name, params, kind, note in CATALOG_INFO:
        print("\t".join((name, params or "-", kind, note)))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latpath",
        description="Lattice path matroids: analyze pairs of bounding paths, "
                    "recognize transversal presentations, transform pairs, "
                    "and test class membership.")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="rank, special elements, flats, "
                                       "connectivity, and basis count")
    g = info.add_mutually_exclusive_group(required=True)
    g.add_argument("--pair", nargs=2, metavar=("LOWER", "UPPER"))
    g.add_argument("--system", metavar="FILE", help="set-system document, - for stdin")
    info.set_defaults(func=cmd_info)

    rec = sub.add_parser("recognize", help="decide whether a set system "
                                           "presents a lattice path matroid")
    rec.add_argument("--system", metavar="FILE", required=True,
                     help="set-system document, - for stdin")
    rec.set_defaults(func=cmd_recognize)

    tra = sub.add_parser("transform", help="dual, minors, sums, interval "
                                           "restriction, canonical form")
    tra.add_argument("--pair", nargs=2, metavar=("LOWER", "UPPER"), required=True)
    tra.add_argument("op", choices=["dual", "delete", "contract", "sum",
                                    "restrict", "canonical"])
    tra.add_argument("opargs", nargs="*", metavar="ARG")
    tra.set_defaults(func=cmd_transform)

    cls = sub.add_parser("class", help="membership tests and excluded-minor "
                                       "verification")
    g = cls.add_mutually_exclusive_group(required=True)
    g.add_argument("--pair", nargs=2, metavar=("LOWER", "UPPER"))
    g.add_argument("--catalog", nargs="+", metavar="NAME_OR_PARAM",
                   help="catalog name followed by integer parameters")
    cls.add_argument("--verify", action="store_true",
                     help="run the excluded-minor checks for the entry")
    cls.add_argument("--target", choices=["notch", "lpm_intersection", "catalan"],
                     default="notch")
    cls.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help="ground-size cap for brute-force evaluation")
    cls.set_defaults(func=cmd_class)

    lst = sub.add_parser("catalog-list", help="list the excluded-minor catalog")
    lst.set_defaults(func=cmd_catalog_list)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LatpathError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
