"""Command-line front end: report, table, verify, search, construct.

Also owns the family file format:

    # comment lines start with '#'
    d=6 k=3
    000000
    10*0*0
    ...

one vector per line, exactly d characters over {0,1,*}; duplicate lines
are rejected and trailing whitespace is ignored.

Exit codes: 0 success/valid family, 1 invalid family or failed audit,
2 usage error (including a file that cannot be opened, read or written,
``search --kernel compiled`` when the compiled kernel is not available,
and a negative ``--max-nodes`` or a negative or NaN ``--max-seconds``;
``inf`` means no time limit), 3 resource limit (also a failed allocation, and ``verify``
on a family with d > 24 when ``--dimension-cap`` is at least d),
141 (128 + SIGPIPE, what a shell reports for a program killed by a broken
pipe) when stdout was closed before the output was written, e.g.
``neighborly table 40 40 | head -1``; that case prints nothing to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Optional, TextIO

from . import bounds, reference
from .analysis import AUDIT_DIMENSION_CAP, AUDIT_DIMENSION_LIMIT, audit
from .constructions import (
    alon_product,
    b_config_family,
    extremal_dminus1_family,
    staircase_code,
)
from .core import Family
from .errors import (
    DomainError,
    NeighborlyError,
    ParseError,
    ResourceError,
    ValidationError,
)
from .search import Budget, get_kernel, max_family
from .search.solver import DEFAULT_MAX_SECONDS, DEFAULT_NODE_LIMIT, STATUS_OPTIMAL

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141

BOUND_LABELS = {
    "alon_lower": "Alon product construction (lower)",
    "alon_upper": "Alon polynomial bound",
    "huang_sudakov": "Huang-Sudakov rank bound",
    "agkp": "AGKP halfcube-plus-ball bound",
    "main": "weighted-cover bound",
    "main2": "weighted-cover bound, binary-member split",
    "refined": "weighted-cover bound, h-shell split",
    "kleitman": "Kleitman diameter bound (binary codes)",
    "stability": "Kleitman stability bound (binary codes)",
}

LOWER_ENTRIES = ("alon_lower",)
CODE_ENTRIES = ("kleitman", "stability")


# ---------------------------------------------------------------- family files


def write_family(family: Family, stream: TextIO, comment: Optional[str] = None) -> None:
    if comment:
        stream.write(f"# {comment}\n")
    stream.write(f"d={family.d} k={family.k}\n")
    for word in family.sorted_words():
        stream.write(f"{word}\n")


def write_witness(path: str, family: Family, comment: str) -> None:
    """Write ``family`` to ``path`` so that a failed write leaves the old file.

    When the resolved target (symlinks followed) is absent or a regular
    file, the family goes to ``<target>.tmp-<pid>`` beside it and is then
    renamed over it, so a symlink stays a symlink.  Anything else (a FIFO,
    a device) is written in place.  On OSError the temporary file is
    removed and the error raised.
    """
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            write_family(family, fh, comment=comment)
        if not in_place:
            os.replace(tmp, target)
    except OSError:
        if not in_place and os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_family(lines: Iterable[str]) -> Family:
    """Parse the family file format; raises ParseError with a line number.

    Every line is read and stripped before any is checked, so a file that
    cannot be decoded fails as such whatever its other faults.  The vector
    lines go to ``Family.from_strings`` as they are.  Only when it raises,
    or drops a repeat, are they walked in order, to name the first bad
    line as ``_first_bad_vector`` does; when no line is bad, its error
    becomes the ParseError.
    """
    lines = [raw.rstrip() for raw in lines]
    d = k = None
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (
            len(parts) != 2
            or not parts[0].startswith("d=")
            or not parts[1].startswith("k=")
        ):
            raise ParseError(f"expected header 'd=<int> k=<int>', got {line!r}", lineno)
        try:
            d = int(parts[0][2:])
            k = int(parts[1][2:])
        except ValueError:
            raise ParseError(f"malformed header {line!r}", lineno) from None
        break
    if d is None:
        raise ParseError("missing 'd=<int> k=<int>' header line")
    words = [line for line in lines[lineno:] if line and line[0] != "#"]
    try:
        family = Family.from_strings(d, k, words)
    except NeighborlyError as exc:
        _first_bad_vector(lines, lineno, d)
        raise ParseError(str(exc)) from exc
    if len(family) < len(words):
        _first_bad_vector(lines, lineno, d)
    return family


def _first_bad_vector(lines: list[str], header: int, d: int) -> None:
    """Raise the ParseError of the first bad vector line after line ``header``:
    a length other than d, a symbol outside 0, 1, * or a repeat, in that
    order on each line."""
    seen: set[str] = set()
    for lineno, line in enumerate(lines[header:], start=header + 1):
        if not line or line.startswith("#"):
            continue
        if len(line) != d:
            raise ParseError(f"vector {line!r} has length {len(line)}, expected {d}", lineno)
        if line.strip("01*"):
            raise ParseError(f"vector {line!r} has symbols outside 0, 1, *", lineno)
        if line in seen:
            raise ParseError(f"duplicate vector {line!r}", lineno)
        seen.add(line)


def read_family(path: str) -> Family:
    """Parse a family file; a file that is not ASCII text raises ParseError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return parse_family(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path} is not ASCII text (byte {exc.object[exc.start]:#04x})"
            ) from None


# -------------------------------------------------------------------- report


def cmd_report(args) -> int:
    k, d = args.k, args.d
    rep = bounds.report(k, d)
    out = sys.stdout
    if args.machine:
        out.write(f"k={k}\nd={d}\n")
        for name in BOUND_LABELS:
            if name in rep.entries:
                out.write(f"{name}={rep.entries[name]}\n")
        out.write(f"best_lower={rep.best_lower}\nbest_upper={rep.best_upper}\n")
        if rep.exact_known is not None:
            out.write(f"exact_known={rep.exact_known}\n")
            out.write(f"exact_source={rep.exact_source}\n")
        out.write(f"status={'certified' if not rep.has_gap() else 'gap'}\n")
        return EXIT_OK

    out.write(f"bounds for n(k={k}, d={d})\n")
    out.write("  lower bounds:\n")
    for name in LOWER_ENTRIES:
        if name in rep.entries:
            out.write(f"    {name:<14} {rep.entries[name]:>12}  {BOUND_LABELS[name]}\n")
    out.write("  upper bounds:\n")
    for name in bounds.UPPER_ENTRIES:
        if name in rep.entries:
            out.write(f"    {name:<14} {rep.entries[name]:>12}  {BOUND_LABELS[name]}\n")
    shown_codes = [n for n in CODE_ENTRIES if n in rep.entries]
    if shown_codes:
        out.write("  binary codes of diameter k (reference):\n")
        for name in shown_codes:
            out.write(f"    {name:<14} {rep.entries[name]:>12}  {BOUND_LABELS[name]}\n")
    out.write(f"  best: {rep.best_lower} <= n({k},{d}) <= {rep.best_upper}\n")
    if rep.exact_known is not None:
        out.write(f"  exact: n({k},{d}) = {rep.exact_known}  [{rep.exact_source}]\n")
    if not rep.has_gap():
        out.write("  status: certified by formulas\n")
    else:
        out.write("  status: gap\n")
    return EXIT_OK


# --------------------------------------------------------------------- table


def table_rows(k_max: int, d_max: int) -> list[tuple[int, int, int, int, int, bool]]:
    """(k, d, lower, prior_upper, new_upper, starred) rows where the new bound improves.

    Covers 1 <= k, d <= limits with d - k >= 2; the lower column is the best
    of the formulas and the embedded reference table, and the new column
    folds in embedded exact values (the reported tables print those).
    """
    rows = []
    for k in range(1, k_max + 1):
        for d in range(k + 2, d_max + 1):
            rep = bounds.report(k, d)
            prior = min(rep.entries["huang_sudakov"], rep.entries["agkp"])
            new = bounds.best_new_upper(k, d)
            if rep.exact_known is not None:
                new = min(new, rep.exact_known)
            if new >= prior:
                continue
            lower = rep.best_lower
            known = reference.best_known_lower(k, d)
            if known is not None:
                lower = max(lower, known)
            starred = bounds.refined_strictly_best(k, d)
            rows.append((k, d, lower, prior, new, starred))
    return rows


def render_table_csv(rows, stream: TextIO) -> None:
    stream.write("k,d,lower,prior_upper,new_upper,star\n")
    for k, d, lower, prior, new, starred in rows:
        stream.write(f"{k},{d},{lower},{prior},{new},{'*' if starred else ''}\n")


def render_table_markdown(rows, stream: TextIO) -> None:
    header = ("k", "d", "lower", "prior upper", "new upper")
    cells = [
        (str(k), str(d), str(lower), str(prior), f"{new}{'*' if starred else ''}")
        for k, d, lower, prior, new, starred in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    def line(row):
        return "| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |\n"
    stream.write(line(header))
    stream.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
    for row in cells:
        stream.write(line(row))


def cmd_table(args) -> int:
    if args.k_max < 2 or args.d_max < 2:
        raise DomainError(f"table limits must be >= 2, got {args.k_max}, {args.d_max}")
    rows = table_rows(args.k_max, args.d_max)
    if args.markdown:
        render_table_markdown(rows, sys.stdout)
    else:
        render_table_csv(rows, sys.stdout)
    return EXIT_OK


# -------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    family = read_family(args.path)
    validated = family.validate()
    print(f"family of {len(validated)} vectors, d={family.d}, k={family.k}: k-neighborly")
    if family.d - family.k < 1:
        print("audit skipped: requires d - k >= 1")
        return EXIT_OK
    if family.d > args.dimension_cap:
        print(f"audit skipped: d={family.d} exceeds exhaustive cap {args.dimension_cap}")
        return EXIT_OK
    rep = audit(validated, dimension_cap=args.dimension_cap)
    for name, result in rep.checks.items():
        if result.passed:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {result.counterexample}")
    print(f"sum of weights = {rep.total_weight} (family size {rep.family_size})")
    return EXIT_OK if rep.passed else EXIT_INVALID


# -------------------------------------------------------------------- search


def cmd_search(args) -> int:
    try:
        get_kernel(args.kernel)
    except RuntimeError as exc:  # --kernel compiled where the C kernel did not build
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    incumbent = None
    if args.incumbent:
        try:
            incumbent = read_family(args.incumbent)
        except ParseError as exc:
            print(f"parse error in incumbent: {exc}", file=sys.stderr)
            return EXIT_INVALID
    budget = Budget(node_limit=args.max_nodes, max_seconds=args.max_seconds)
    result = max_family(
        args.k,
        args.d,
        budget=budget,
        incumbent=incumbent,
        kernel=args.kernel,
    )
    prefix = "" if result.status == STATUS_OPTIMAL else "≥"
    print(f"{prefix}{result.best_size} {result.status}")
    print(
        f"nodes={result.nodes_explored} elapsed={result.elapsed:.3f}s "
        f"kernel={result.kernel} formula_upper={result.upper_limit}"
    )
    if args.witness:
        try:
            write_witness(args.witness, result.witness, f"search witness, status={result.status}")
        except OSError as exc:
            print(f"error: cannot write witness {args.witness}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        print(f"witness written to {args.witness}")
    return EXIT_OK


# ----------------------------------------------------------------- construct

# name -> (builder, number of parameters, what they are); the names are
# also the parser's choices
CONSTRUCTIONS = {
    "alon-product": (alon_product, 2, "K and D"),
    "corollary35": (extremal_dminus1_family, 1, "D only"),
    "b-config": (b_config_family, 2, "K and D"),
    "staircase": (staircase_code, 1, "M only"),
}


def cmd_construct(args) -> int:
    builder, arity, usage = CONSTRUCTIONS[args.name]
    try:
        params = [int(a) for a in args.params if a not in ("-", "—")]
    except ValueError:
        raise DomainError(f"construction parameters must be integers, got {args.params}")
    if len(params) != arity:
        raise DomainError(f"{args.name} needs {usage}")
    family = builder(*params)
    write_family(family, sys.stdout, comment=f"construction: {args.name}")
    return EXIT_OK


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neighborly",
        description="bounds, constructions and exact search for k-neighborly families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="print every bound for one (k, d) cell")
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--machine", action="store_true", help="flat key=value output")
    p.set_defaults(func=cmd_report, needs_kd=True)

    p = sub.add_parser("table", help="emit all cells where the new bounds improve")
    p.add_argument("k_max", type=int)
    p.add_argument("d_max", type=int)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="CSV output (default)")
    fmt.add_argument("--markdown", action="store_true", help="aligned markdown table")
    p.set_defaults(func=cmd_table, needs_kd=False)

    p = sub.add_parser("verify", help="check a family file and audit it")
    p.add_argument("path")
    p.add_argument("--dimension-cap", type=int, default=AUDIT_DIMENSION_CAP,
                   help="largest d the audit will attempt; it works on sets of 2^d "
                        f"binary vectors (default {AUDIT_DIMENSION_CAP}; a d above the cap "
                        f"is skipped, a d above {AUDIT_DIMENSION_LIMIT} within the cap "
                        "exits 3)")
    p.set_defaults(func=cmd_verify, needs_kd=False)

    p = sub.add_parser("search", help="run the exact maximum-family search")
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--max-seconds", type=float, default=DEFAULT_MAX_SECONDS)
    p.add_argument("--witness", metavar="PATH", help="write the witness family here")
    p.add_argument("--incumbent", metavar="PATH", help="seed with this family file")
    # accepted and ignored: the search makes no random choices, but the
    # benchmark's workloads and scripts written for older versions pass it
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--kernel", choices=("auto", "python", "compiled"), default="auto")
    p.set_defaults(func=cmd_search, needs_kd=True)

    p = sub.add_parser("construct", help="emit a named construction as a family file")
    p.add_argument("name", choices=CONSTRUCTIONS)
    p.add_argument("params", nargs="+", help="K D (or D / M alone; '-' placeholders ok)")
    p.set_defaults(func=cmd_construct, needs_kd=False)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_kd", False):
        if args.k < 1 or args.d < args.k:
            parser.error(f"need 1 <= k <= d, got k={args.k} d={args.d}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at /dev/null so the interpreter's
        # final flush of what is still buffered cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:  # a file that cannot be opened, read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValidationError as exc:
        print(f"invalid family: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
