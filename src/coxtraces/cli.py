"""Command-line interface.

Commands: count, classes, table, verify, cache.  Output is byte-stable
for fixed inputs (timing goes to stderr), so runs can be diffed.  Exit
codes: 0 success, 1 verification failure or a failed certificate
(CertificateError, whose message goes to stderr before any result is
printed), 2 usage or parse error, 3 enumeration refused (root limit,
ring limit, budget or E8), 4 I/O problem.  Class reports
print charpoly coefficients in the forms of coxtraces.linalg.Ring.text
and Ring.as_json, which depend only on the system's ring index N.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import namedtuple

from .classes import conjugacy_classes, count, count_brute_force
from .group import (CACHE_VERSION, DEFAULT_BUDGET, BudgetExceededError,
                    CacheFormatError, check_enumerable, generate_group,
                    load_group, save_group)
from .linalg import CertificateError
from .partitions import closed_form_count
from .roots import (Factor, SpecParseError, build_irreducible, build_system,
                    parse_system_spec, system_label, system_order)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4

# the errors that print as one line on stderr, and their exit codes
_ERROR_EXITS = {SpecParseError: EXIT_USAGE, BudgetExceededError: EXIT_BUDGET,
                CertificateError: EXIT_VERIFY, CacheFormatError: EXIT_IO,
                OSError: EXIT_IO}

ENV_CACHE_DIR = "COXTRACES_CACHE_DIR"
ENV_BUDGET = "COXTRACES_BUDGET"

# table rows whose brute-force cross-check is cheap enough to run inline
_TABLE_CROSSCHECK_CAP = 5000

_COLUMNS = ("system", "T", "S", "method", "|W|", "-I in W")


class ReportRow(namedtuple("ReportRow", "system traces supertraces method "
                                        "order minus_identity")):
    __slots__ = ()

    def cells(self):
        return (self.system, str(self.traces), str(self.supertraces),
                self.method, str(self.order),
                "yes" if self.minus_identity else "no")

    def as_dict(self):
        return {"system": self.system, "T": self.traces, "S": self.supertraces,
                "method": self.method, "order": self.order,
                "minus_identity": self.minus_identity}


def _emit_markdown(rows, header=_COLUMNS):
    def esc(cell: str) -> str:
        return cell.replace("|", "\\|")

    out = ["| " + " | ".join(esc(c) for c in header) + " |",
           "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        out.append("| " + " | ".join(esc(c) for c in row) + " |")
    return "\n".join(out) + "\n"


def _emit_csv(rows, header):
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _print_json(payload):
    import json
    print(json.dumps(payload, indent=2))


def _print_rows(rows, fmt, header, json_payload):
    if fmt == "json":
        _print_json(json_payload)
    elif fmt == "csv":
        sys.stdout.write(_emit_csv(rows, header))
    else:
        sys.stdout.write(_emit_markdown(rows, header))


def _effective_budget(args) -> int:
    budget, env = args.budget, os.environ.get(ENV_BUDGET)
    if budget is None and env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise SpecParseError(
                f"{ENV_BUDGET} must be an integer, got {env!r}")
    if budget is not None and budget < 0:
        raise SpecParseError(f"budget must be non-negative, got {budget}")
    return DEFAULT_BUDGET if budget is None else budget


def _effective_cache_dir(args):
    return args.cache_dir or os.environ.get(ENV_CACHE_DIR)


def _cache_path(cache_dir: str, label: str) -> str:
    safe = label.replace("(", "").replace(")", "").replace("+", "_")
    return os.path.join(cache_dir, f"{safe}.grp")


def _group(args, factors, budget: int, cached: bool = True):
    """The group from the cache directory if it holds one (and cached),
    else its chain.  The refusals come first, before any root is built,
    and hold for a cached group too: the class walk enumerates W."""
    check_enumerable(factors, budget)
    cache_dir, label = _effective_cache_dir(args), system_label(factors)
    path = cache_dir and _cache_path(cache_dir, label)
    if cached and path and os.path.exists(path):
        group = load_group(path)
        if group.system.label != label:
            raise CacheFormatError(
                f"{path} holds {group.system.label}, not {label}")
        return group
    return generate_group(build_system(factors), budget=budget)


# -- commands ----------------------------------------------------------------


def cmd_count(args) -> int:
    budget = _effective_budget(args)
    factors = parse_system_spec(args.system)
    started = time.perf_counter()
    if args.strategy == "brute":
        result = count_brute_force(_group(args, factors, budget))
    else:
        result = count(factors, strategy=args.strategy)
    elapsed = time.perf_counter() - started
    row = ReportRow(system_label(factors), result.traces, result.supertraces,
                    result.method, system_order(factors),
                    all(f.contains_minus_identity for f in factors))
    _print_rows([row.cells()], args.format, _COLUMNS, row.as_dict())
    print(f"computed in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_classes(args) -> int:
    budget = _effective_budget(args)
    factors = parse_system_spec(args.system)
    started = time.perf_counter()
    group = _group(args, factors, budget)
    classes = conjugacy_classes(group)
    elapsed = time.perf_counter() - started
    header = ("class", "size", "det", "char_poly", "has_plus_one", "has_minus_one")
    rows = []
    payload = []
    ring = group.system.ring
    for i, cls in enumerate(classes):
        rows.append((str(i), str(cls.size), str(cls.det), cls.char_poly_str,
                     "yes" if cls.has_plus_one else "no",
                     "yes" if cls.has_minus_one else "no"))
        payload.append({"class": i, "size": cls.size,
                        # a + b*sqrt5 as [a_num, a_den, b_num, b_den]
                        "det": [cls.det, 1, 0, 1],
                        "char_poly": cls.char_poly_str,
                        "char_poly_coeffs": [ring.as_json(c)
                                             for c in cls.char_poly],
                        "has_plus_one": cls.has_plus_one,
                        "has_minus_one": cls.has_minus_one})
    _print_rows(rows, args.format,
                header, {"system": group.system.label, "classes": payload})
    print(f"{group.order} elements, {len(classes)} classes in {elapsed:.3f}s",
          file=sys.stderr)
    return EXIT_OK


def _section3_factors():
    factors = [Factor("A", 1)]
    factors += [Factor("B", n) for n in range(2, 11)]
    factors += [Factor("D", n) for n in range(4, 21, 2)]
    factors += [Factor("E", 7), Factor("E", 8), Factor("F", 4), Factor("G", 2),
                Factor("H", 3), Factor("H", 4)]
    factors += [Factor("I", n) for n in range(4, 21, 2)]
    return factors


def _section4_factors():
    factors = [Factor("A", 0)]
    factors += [Factor("A", n) for n in range(2, 10)]
    factors += [Factor("D", n) for n in range(5, 20, 2)]
    factors += [Factor("E", 6)]
    factors += [Factor("I", n) for n in range(5, 20, 2)]
    return factors


def _table_row(factor: Factor, budget: int) -> ReportRow:
    result = closed_form_count(factor)
    method = "closed_form"
    if factor.order <= min(_TABLE_CROSSCHECK_CAP, budget):
        brute = count_brute_force(generate_group(build_irreducible(factor),
                                                 budget=budget))
        if brute.pair() != result.pair():  # cannot happen; belt and braces
            raise CertificateError(f"closed form disagrees with brute "
                                   f"force on {factor.label}")
        method = "closed_form=brute"
    return ReportRow(factor.label, result.traces, result.supertraces, method,
                     factor.order, factor.contains_minus_identity)


def cmd_table(args) -> int:
    budget = _effective_budget(args)
    started = time.perf_counter()
    sections = []
    if args.which in ("section3", "all"):
        sections.append(("section3", [_table_row(f, budget)
                                      for f in _section3_factors()]))
    if args.which in ("section4", "all"):
        sections.append(("section4", [_table_row(f, budget)
                                      for f in _section4_factors()]))
    elapsed = time.perf_counter() - started
    if args.format == "json":
        _print_json({name: [row.as_dict() for row in rows]
                     for name, rows in sections})
    else:
        chunks = []
        for name, rows in sections:
            title = ("equal trace and supertrace counts" if name == "section3"
                     else "strictly more supertraces than traces")
            cells = [row.cells() for row in rows]
            if args.format == "csv":
                chunks.append(_emit_csv(cells, _COLUMNS))
            else:
                chunks.append(f"### {title}\n\n" + _emit_markdown(cells))
        sys.stdout.write("\n".join(chunks))
    print(f"tables computed in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


_VERIFY_OPTIONS = ("seed", "trials", "degree")


def cmd_verify(args) -> int:
    from . import verify as verify_mod
    for name in _VERIFY_OPTIONS:  # verify_mod.DEFAULT_SEED, ... unless given
        value = getattr(args, name)
        if value is None:
            setattr(args, name, getattr(verify_mod, f"DEFAULT_{name.upper()}"))
        elif value < 0 and name != "seed":
            raise SpecParseError(f"{name} must be non-negative, got {value}")
        elif name == "degree" and value > verify_mod.MAX_DEGREE:
            raise SpecParseError(f"degree must be at most "
                                 f"{verify_mod.MAX_DEGREE:,}, got {value}")
    budget = _effective_budget(args)
    started = time.perf_counter()
    if args.scope == "theorems":
        result = verify_mod.inequality_suite(trials=args.trials, seed=args.seed)
        extra = verify_mod.multiplicativity_suite(seed=args.seed, budget=budget)
        result.lines.extend(extra.lines)
    elif args.scope == "lemma":
        result = verify_mod.lemma_suite(degree=args.degree)
    else:
        result = verify_mod.appendix_suite(budget=budget)
    for line in result.lines:
        print(line.render())
    elapsed = time.perf_counter() - started
    print(f"verify {args.scope}: {len(result.lines)} checks in {elapsed:.1f}s",
          file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_VERIFY


def cmd_cache(args) -> int:
    cache_dir = _effective_cache_dir(args)
    if not cache_dir:
        raise SpecParseError("no cache directory configured; pass "
                             f"--cache-dir or set {ENV_CACHE_DIR}")
    if args.action == "warm":
        if not args.system:
            raise SpecParseError("cache warm needs a system spec")
        group = _group(args, parse_system_spec(args.system),
                       _effective_budget(args), cached=False)
        os.makedirs(cache_dir, exist_ok=True)
        path = _cache_path(cache_dir, group.system.label)
        save_group(group, path)
        print(f"cached {group.system.label}: {group.order} elements -> {path}")
        return EXIT_OK
    names = sorted(n for n in (os.listdir(cache_dir)
                               if os.path.isdir(cache_dir) else ())
                   if n.endswith(".grp"))
    if args.action == "list":
        if not names:
            print("(empty)")
        for name in names:
            path = os.path.join(cache_dir, name)
            try:
                group = load_group(path)  # which reads CACHE_VERSION only
                print(f"{group.system.label}  order={group.order}  "
                      f"bytes={os.path.getsize(path)}  "
                      f"version={CACHE_VERSION}")
            except (CacheFormatError, OSError) as exc:  # OSError: not a file
                print(f"{name}  UNREADABLE ({exc})")
        return EXIT_OK
    paths = [p for p in (os.path.join(cache_dir, n) for n in names)
             if os.path.isfile(p)]
    for path in paths:  # clear: regular files only
        os.remove(path)
    print(f"removed {len(paths)} cached group(s)")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxtraces",
        description="Count traces and supertraces over finite reflection groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, enumerates=False, formats=True):
        if formats:  # only count, classes and table read it
            p.add_argument("--format", choices=("markdown", "csv", "json"),
                           default="markdown")
        p.add_argument("--budget", type=int, default=None,
                       help=f"enumeration budget (default {DEFAULT_BUDGET:,}, "
                            f"or {ENV_BUDGET})")
        if enumerates:  # only count, classes and cache read it
            p.add_argument("--cache-dir", default=None,
                           help=f"group cache directory (or {ENV_CACHE_DIR})")

    p_count = sub.add_parser("count", help="trace/supertrace counts for a system")
    p_count.add_argument("system", help="e.g. 'B4+D5+I2(7)+A0'")
    common(p_count, enumerates=True)
    p_count.add_argument("--strategy", choices=("auto", "closed", "brute"),
                         default="auto")
    p_count.set_defaults(func=cmd_count)

    p_classes = sub.add_parser("classes",
                               help="conjugacy class report for a system")
    p_classes.add_argument("system")
    common(p_classes, enumerates=True)
    p_classes.set_defaults(func=cmd_classes)

    p_table = sub.add_parser("table",
                             help="tabulate the irreducible families in two "
                                  "fixed sections")
    p_table.add_argument("which", choices=("section3", "section4", "all"))
    common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("scope", choices=("theorems", "lemma", "appendices"))
    for name in _VERIFY_OPTIONS:
        p_verify.add_argument(f"--{name}", type=int)
    common(p_verify, formats=False)
    p_verify.set_defaults(func=cmd_verify)

    p_cache = sub.add_parser("cache", help="manage the on-disk group cache")
    p_cache.add_argument("action", choices=("list", "clear", "warm"))
    p_cache.add_argument("system", nargs="?")
    common(p_cache, enumerates=True, formats=False)
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # |W(A2000)| = 2001! has more digits than Python prints by default
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
