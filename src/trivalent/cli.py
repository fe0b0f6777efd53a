"""Command-line front end.

Verbs: `count` (series coefficients), `census` (exhaustive small-size
enumeration), `decide` (subgroup relations on diagram files), `export`
(barycentric subdivision as DOT), `selftest` (verification suite).

All structured output is JSON on stdout with keys in a fixed order and big
integers rendered as decimal strings, so results are byte-stable and safe
for consumers without big-integer support.  Diagnostics go to stderr.

Exit codes: 0 success (a `decide` answer of false is still success: the
answer is the payload), 2 usage error, 3 input error, 4 internal invariant
failure (self-test mismatch, or a `ValueError` from the pipelines: every
user-input path raises `InputError` or `DiagramParseError` instead).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import census as census_mod
from . import counting
from .diagram import (
    DiagramParseError,
    _check_connected,
    _close,
    _parse_arrays,
    barycentric_graph,
    canonical_code,
    normality_conflict,
    parse_diagram_text,
)
# unused here, but `perfbench/spans.py` wraps them by name in this module
from .diagram import automorphism_order, is_normal  # noqa: F401
from .diagram import pointed_morphism, pointed_morphism_conflict  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# the largest `count --max`: on a 2-core x86 host (Python 3.11.7)
# `count classes --max 3000` took 68 s (46 s with --general), 5.5 (5.0) times
# its index-2000 time, so N = 5000 runs in about 10 (6) minutes, not hours
MAX_COUNT_INDEX = 5000

CACHE_ENV = "TRIVALENT_CACHE_DIR"
CACHE_FORMAT_VERSION = 2


class InputError(Exception):
    """A problem with user-supplied files or sizes (exit code 3)."""


class UsageError(Exception):
    """A malformed invocation not caught by argparse itself (exit code 2)."""


# ---------------------------------------------------------------------------
# coefficient cache (advisory: deleting or damaging it never changes output)


def _cache_path(kind: str, general: bool) -> str | None:
    directory = os.environ.get(CACHE_ENV)
    if not directory:
        return None
    name = "count-%s%s.json" % (kind, "-general" if general else "")
    return os.path.join(directory, name)


def _digest(coefficient_strings) -> str:
    # imported here: loading it (OpenSSL) took about 5 ms of each cold start
    # on a 2-core x86 host, and only runs that use the cache need it
    import hashlib

    return hashlib.sha256("\n".join(coefficient_strings).encode("ascii")).hexdigest()


def _load_cached(path: str, kind: str, general: bool):
    try:
        with open(path, "r", encoding="ascii") as handle:
            data = json.load(handle)
        if (
            data["format_version"] != CACHE_FORMAT_VERSION
            or data["kind"] != kind
            or data["general"] != general
            or data["max"] != len(data["coefficients"])
        ):
            raise ValueError("inconsistent cache fields")
        if data["sha256"] != _digest(data["coefficients"]):
            raise ValueError("coefficient digest mismatch")
        return [int(c) for c in data["coefficients"]]
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(
            "warning: ignoring corrupt cache %s (%s); recomputing" % (path, exc),
            file=sys.stderr,
        )
        return None


def _store_cached(path: str, kind: str, general: bool, coefficients) -> None:
    strings = [str(c) for c in coefficients]
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "kind": kind,
        "general": general,
        "max": len(strings),
        "coefficients": strings,
        "sha256": _digest(strings),
    }
    try:
        # write a temporary file beside the cache, then rename it into place,
        # so a reader never sees a half-written table
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        print("warning: could not write cache %s (%s)" % (path, exc), file=sys.stderr)


def _count_coefficients(kind: str, max_order: int, general: bool):
    """Coefficients for n = 1..max_order, consulting the advisory cache."""
    path = _cache_path(kind, general)
    if path is not None:
        cached = _load_cached(path, kind, general)
        if cached is not None and len(cached) >= max_order:
            return cached[:max_order]
    compute = (
        counting.subgroup_series if kind == "pointed" else counting.conjugacy_class_series
    )
    coefficients = compute(max_order, general).integer_coefficients()[1:]
    if path is not None:
        _store_cached(path, kind, general, coefficients)
    return coefficients


# ---------------------------------------------------------------------------
# verb handlers


def _emit(payload) -> None:
    print(json.dumps(payload))


def _cmd_count(args) -> int:
    if not 1 <= args.max <= MAX_COUNT_INDEX:
        raise UsageError("--max must be in 1..%d, got %d" % (MAX_COUNT_INDEX, args.max))
    # general coefficients pass Python's 4300-digit limit on int/str
    # conversion from about index 2833; lift it for the cache and the output
    # only, so that diagram files are still parsed under it, and restore the
    # caller's value
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        coefficients = _count_coefficients(args.kind, args.max, args.general)
        _emit(
            {
                "kind": args.kind,
                "max": args.max,
                "general": args.general,
                "coefficients": [str(c) for c in coefficients],
            }
        )
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return EXIT_OK


def _cmd_census(args) -> int:
    if args.normal_only and not (args.list or args.dot):
        raise UsageError("--normal-only restricts a listing; add --list or --dot")
    try:
        report = census_mod.enumerate_size(args.size)
    except census_mod.CensusSizeError as exc:
        raise InputError(str(exc)) from None
    normal_reps = report.normal_representatives()
    payload = {
        "size": report.size,
        "unpointed": report.unpointed_classes,
        "pointed": report.pointed_classes,
        "normal": len(normal_reps),
    }
    if args.list or args.dot:
        reps = normal_reps if args.normal_only else list(report.class_representatives)
        if args.list:
            payload["representatives"] = [d.to_text() for d in reps]
        if args.dot:
            payload["representatives_dot"] = [
                barycentric_graph(d).to_dot() for d in reps
            ]
    _emit(payload)
    return EXIT_OK


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None


def _in_file(path: str, check, *args):
    """check(*args), reporting its parse error as an input error of `path`."""
    try:
        return check(*args)
    except DiagramParseError as exc:
        raise InputError("%s: %s" % (path, exc)) from None


def _read_diagram_file(path: str):
    return _in_file(path, parse_diagram_text, _read_text(path))


def _pointed_arrays(path: str):
    """The checked arrays and base of a pointed diagram file; its
    connectivity is still unproven."""
    arrays = _in_file(path, _parse_arrays, _read_text(path))
    if arrays.base is None:
        _in_file(path, _check_connected, arrays)
        raise InputError("%s: this relation needs a base arc (add '; base=K')" % path)
    return arrays


def _decide_pointed(files, same_size: bool):
    """`included` (a pointed map from the first file to the second) or, with
    `same_size`, `isomorphic` (such a map between equal arc counts).

    One closure both decides the relation and proves the two files
    connected: a map that assigns every source arc shows the source is, and
    an image of every target arc (the orbit of the target base) shows the
    target is.  Every other outcome first checks connectivity, file 1
    before file 2, so a disconnected file is reported as the full parse
    reports it, and no `Diagram` is built."""
    one = _pointed_arrays(files[0])
    try:
        two = _pointed_arrays(files[1])
    except InputError:
        _in_file(files[0], _check_connected, one)
        raise

    def check_both_connected():
        _in_file(files[0], _check_connected, one)
        _in_file(files[1], _check_connected, two)

    n1, n2 = len(one.rot), len(two.rot)
    if same_size and n1 != n2:
        check_both_connected()
        return False, {"sizes": [n1, n2]}
    mapping, conflict = _close(one, one.base, two, two.base)
    if conflict is None and -1 not in mapping and len(set(mapping)) == n2:
        return True, {"map": list(mapping)}
    check_both_connected()  # then the closure met a conflict
    return False, {"critical_pair": conflict._asdict()}


def _decide_conjugate(files):
    d1, _ = _read_diagram_file(files[0])
    d2, _ = _read_diagram_file(files[1])
    c1 = canonical_code(d1).decode("ascii")
    c2 = canonical_code(d2).decode("ascii")
    return c1 == c2, {"canonical_codes": [c1, c2]}


def _decide_normal(files):
    d, _ = _read_diagram_file(files[0])
    conflict = normality_conflict(d)
    if conflict is None:  # Aut acts freely and transitively: |Aut| = n
        return True, {"automorphism_order": d.n}
    return False, {
        "unreachable_arc": conflict.partial_map[0],
        "critical_pair": conflict._asdict(),
    }


_RELATIONS = {
    "included": (2, lambda files: _decide_pointed(files, same_size=False)),
    "isomorphic": (2, lambda files: _decide_pointed(files, same_size=True)),
    "conjugate": (2, _decide_conjugate),
    "normal": (1, _decide_normal),
}


def _cmd_decide(args) -> int:
    arity, decide = _RELATIONS[args.relation]
    if len(args.files) != arity:
        raise UsageError(
            "relation %r takes %d file%s, got %d"
            % (args.relation, arity, "s" if arity > 1 else "", len(args.files))
        )
    result, witness = decide(args.files)
    _emit({"relation": args.relation, "result": result, "witness": witness})
    return EXIT_OK


def _cmd_export(args) -> int:
    d, _ = _read_diagram_file(args.file)
    sys.stdout.write(barycentric_graph(d).to_dot())
    return EXIT_OK


def _cmd_selftest(args) -> int:
    # imported here, so that no other verb pays for loading the oracle
    # registry in its start-up time and peak memory
    from .selftest import run_selftest

    ok = run_selftest(full=(args.depth == "full"))
    return EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivalent",
        description="Count and classify finite-index subgroups of the modular "
        "group through trivalent diagrams, with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count", help="series coefficients (subgroups or classes)")
    p.add_argument("kind", choices=("pointed", "classes"),
                   help="pointed = subgroups by index; classes = conjugacy classes")
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help="compute coefficients for indices 1..N")
    p.add_argument("--general", action="store_true",
                   help="drop the trivalence constraint (free product flavor)")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("census", help="exhaustive enumeration at one size")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--list", action="store_true",
                   help="include class representatives in the output")
    p.add_argument("--normal-only", action="store_true", dest="normal_only",
                   help="restrict the listing to normal (arc-transitive) classes")
    p.add_argument("--dot", action="store_true",
                   help="also emit each listed representative's barycentric "
                        "subdivision as DOT")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("decide", help="decide a relation between diagram files")
    p.add_argument("relation", choices=sorted(_RELATIONS))
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("export", help="export a diagram")
    p.add_argument("format", choices=("dot",),
                   help="dot = barycentric subdivision as Graphviz")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("selftest", help="run the verification suite")
    p.add_argument("depth", choices=("quick", "full"))
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (InputError, DiagramParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
