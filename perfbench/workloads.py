"""The three workloads.  Each `setup_*` builds its inputs (seeded) before
any timing starts and returns the ops of one round, in the fixed order they
run; every op carries the check its output must pass."""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import check
import gen

CACHE_ENV = "TRIVALENT_CACHE_DIR"

#: SHA-256 of the comma-joined decimal coefficients of `count ... --max 500`,
#: frozen from the first implementation (values are normative; the
#: trivalent ones are also checked against `trivalent.reference`).
COUNT_DIGESTS = {
    ("pointed", False): "c506efcfa74eb6d10cac1fc49107e7dde8c91e8bee6234061b2d6265be9166b3",
    ("classes", False): "1739b3b9103a579a1be696e7338f3183065b6ebcc2e416cd6f427c2d58420781",
    ("pointed", True): "15e299b625b7ea0db845f001379687c3f0afddadb8105074f4a769e9f411858a",
    ("classes", True): "eb2783fd0c61882cb972cfa6a42cb3508b1534a2e750826a7f118ddb9a883aaf",
}

SERIES_MAX = 500
CENSUS_TRIVALENT_SIZE = 14
CENSUS_GENERAL_SIZE = 10
RIGID_ARCS = 1800
PSL2_PRIME = 13
COVER_SHEETS = 64


@dataclass
class Op:
    label: str
    metric: Optional[str]            # end-to-end metric its time goes into
    run: Callable[[], object]
    check: Callable[[object], object]  # raises check.CheckError
    # set on `count` ops only: whether the op should be served from the
    # cache (asserted from the spans of a traced run)
    cache_hit: Optional[bool] = None
    # runs per timed sample, for an op too short to time one run at a time
    repeat: int = 1


def cli_op(package, argv, cache_dir=None):
    """Run `trivalent.cli.main(argv)` in-process with stdout captured.  The
    cache variable is set only for an op that reads the benchmark's own
    cache, and unset otherwise, so a stray value cannot turn a compute op
    into a cache read."""

    def run():
        if cache_dir is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = cache_dir
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = package.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.environ.pop(CACHE_ENV, None)
        return code, buf.getvalue()

    return run


def setup_series(package, rng, workdir):
    """Returns (ops, setup_ops): setup ops run once before timing."""
    ref = package.reference
    known = {
        ("pointed", False): dict(enumerate(ref.SUBGROUPS_BY_INDEX, 1)),
        ("classes", False): dict(enumerate(ref.CONJUGACY_CLASSES_BY_INDEX, 1)),
        ("pointed", True): {},
        ("classes", True): {},
    }
    known[("pointed", False)][500] = ref.SUBGROUPS_INDEX_500
    known[("classes", False)][500] = ref.CONJUGACY_CLASSES_INDEX_500
    # the census is the independent ground truth for the general flavor
    for size in range(1, 7):
        report = package.census.enumerate_size(size, trivalent=False)
        known[("pointed", True)][size] = report.pointed_classes
        known[("classes", True)][size] = report.unpointed_classes

    def count(kind, general, metric, cache_dir=None, repeat=1):
        argv = ["count", kind, "--max", str(SERIES_MAX)] + (["--general"] if general else [])
        label = " ".join(argv) + (" (warm cache)" if cache_dir else "")
        return Op(
            label, metric, cli_op(package, argv, cache_dir),
            lambda r: check.check_count(r, kind, SERIES_MAX, general,
                                        COUNT_DIGESTS[(kind, general)], known[(kind, general)]),
            cache_hit=cache_dir is not None, repeat=repeat)

    cache_dir = os.path.join(workdir, "cache")
    # a cache read takes milliseconds: time 100 reads as one sample
    cached = count("classes", False, "count_cached_s", cache_dir, repeat=100)

    def check_filled(result):
        payload = cached.check(result)
        if not os.listdir(cache_dir):
            raise check.CheckError("the cache fill wrote no file")
        return payload

    fill = replace(cached, label="count classes --max 500 (filling the cache)",
                   metric=None, check=check_filled, cache_hit=False, repeat=1)
    ops = [
        count("pointed", False, "count_pointed_s"),
        count("classes", False, "count_classes_s"),
        count("pointed", True, "count_pointed_general_s"),
        count("classes", True, "count_classes_general_s"),
        cached,
    ]
    return ops, [fill]


def setup_census(package, rng, workdir):
    ref = package.reference
    size = CENSUS_TRIVALENT_SIZE
    pointed, classes = ref.SUBGROUPS_BY_INDEX[size - 1], ref.CONJUGACY_CLASSES_BY_INDEX[size - 1]
    gsize = CENSUS_GENERAL_SIZE
    g_pointed = package.counting.subgroup_series(gsize, True).integer_coefficients()[gsize]
    g_classes = package.counting.conjugacy_class_series(gsize, True).integer_coefficients()[gsize]
    argv = ["census", "--size", str(size), "--list"]
    ops = [
        # a third of a second: time 3 runs as one sample
        Op(" ".join(argv), "census_trivalent_s", cli_op(package, argv),
           lambda r: check.check_census_cli(r, size, pointed, classes), repeat=3),
        Op("enumerate_size(%d, trivalent=False)" % gsize, "census_general_s",
           lambda: package.census.enumerate_size(gsize, trivalent=False),
           lambda r: check.check_census_report(r, gsize, g_pointed, g_classes)),
    ]
    return ops, []


def setup_decide(package, rng, workdir):
    def write(name, rot, inv, base=None):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(gen.to_text(rot, inv, base))
        return path

    rigid = gen.random_trivalent(RIGID_ARCS, rng)
    rigid_copy = gen.relabel(*rigid, gen.random_perm(RIGID_ARCS, rng))
    gamma = gen.psl2_regular(PSL2_PRIME)
    n = len(gamma[0])
    gamma_copy = gen.relabel(*gamma, gen.random_perm(n, rng))
    cover = gen.random_cover(*gamma, COVER_SHEETS, rng)
    big = len(cover[0])
    cover_base = rng.randrange(big)
    perm = gen.random_perm(big, rng)
    cover_copy = gen.relabel(*cover, perm)

    files = {
        "rigid": write("rigid.txt", *rigid),
        "rigid_copy": write("rigid_relabeled.txt", *rigid_copy),
        "gamma": write("gamma13.txt", *gamma, cover_base // COVER_SHEETS),
        "gamma_copy": write("gamma13_relabeled.txt", *gamma_copy),
        "cover": write("cover.txt", *cover, cover_base),
        "cover_copy": write("cover_relabeled.txt", *cover_copy, perm[cover_base]),
    }
    src_cover = (*cover, cover_base)
    dst_gamma = (*gamma, cover_base // COVER_SHEETS)
    dst_copy = (*cover_copy, perm[cover_base])

    def decide(metric, relation, names, verify):
        argv = ["decide", relation] + [files[k] for k in names]
        label = " ".join(["decide", relation] + list(names))
        return Op(label, metric, cli_op(package, argv), verify)

    ops = [
        decide("decide_conjugate_rigid_s", "conjugate", ("rigid", "rigid_copy"),
               check.check_conjugate),
        decide("decide_conjugate_symmetric_s", "conjugate", ("gamma", "gamma_copy"),
               check.check_conjugate),
        decide("decide_normal_s", "normal", ("gamma",),
               lambda r: check.check_normal_true(r, n)),
        decide("decide_normal_s", "normal", ("rigid",),
               lambda r: check.check_normal_false(r, rigid)),
        decide("decide_closure_s", "included", ("cover", "gamma"),
               lambda r: check.check_decide_map(r, "included", src_cover, dst_gamma, False)),
        decide("decide_closure_s", "isomorphic", ("cover", "cover_copy"),
               lambda r: check.check_decide_map(r, "isomorphic", src_cover, dst_copy, True)),
    ]
    return ops, []


WORKLOADS = {
    "series": setup_series,
    "census": setup_census,
    "decide": setup_decide,
}
