"""Tests for the command-line interface (run in-process via cli.main)."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from trivalent import cli
from trivalent.diagram import PointedDiagram

TERMINAL_TEXT = "n=1; rot=[0]; inv=[0]; base=0"
INDEX2_TEXT = "n=2; rot=[0,1]; inv=[1,0]; base=0"
# the single trivalent size-5 class, two different pointings
SIZE5_A = "n=5; rot=[0,2,3,1,4]; inv=[1,0,2,4,3]; base=0"
SIZE5_B = "n=5; rot=[0,2,3,1,4]; inv=[1,0,2,4,3]; base=3"
DISCONNECTED = "n=2; rot=[0,1]; inv=[0,1]"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- count -----------------------------------------------------------------


def test_count_classes(capsys):
    code, out, _ = run(capsys, "count", "classes", "--max", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "classes",
        "max": 9,
        "general": False,
        "coefficients": ["1", "1", "2", "2", "1", "8", "6", "7", "14"],
    }


def test_count_pointed(capsys):
    code, out, _ = run(capsys, "count", "pointed", "--max", "6")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "1", "4", "8", "5", "22"]


def test_count_max_one(capsys):
    code, out, _ = run(capsys, "count", "classes", "--max", "1")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1"]


def test_count_general(capsys):
    code, out, _ = run(capsys, "count", "pointed", "--max", "4", "--general")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "3", "7", "23"]


def test_count_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "count", "classes", "--max", "8")
    _, second, _ = run(capsys, "count", "classes", "--max", "8")
    assert first == second


def test_count_bad_max(capsys):
    code, _, err = run(capsys, "count", "classes", "--max", "0")
    assert code == cli.EXIT_USAGE
    assert "max" in err


@pytest.mark.parametrize("n", [cli.MAX_COUNT_INDEX + 1, 10**20])
def test_count_max_above_cap_exits_2_before_any_work(monkeypatch, capsys, n):
    # 10**20 would overflow inside cycleindex, and a large N that fits would
    # run for hours: both must be refused before the series layer is
    # touched.  The cap still admits the general digit crossing at 2833.
    assert cli.MAX_COUNT_INDEX >= 3000

    class Unreachable:
        def __getattr__(self, name):
            raise AssertionError("counting.%s reached with --max %d" % (name, n))

    monkeypatch.setattr(cli, "counting", Unreachable())
    code, out, err = run(capsys, "count", "pointed", "--max", str(n))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --max must be in 1..%d, got %d\n" % (cli.MAX_COUNT_INDEX, n)


def test_internal_value_error_exits_4(monkeypatch, capsys):
    # a non-integral coefficient is an invariant failure, not bad user input
    from fractions import Fraction

    from trivalent import counting
    from trivalent.series import TruncSeries

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setattr(
        counting, "subgroup_series",
        lambda order, general=False: TruncSeries(order, [0, 1, Fraction(1, 2)]),
    )
    code, out, err = run(capsys, "count", "pointed", "--max", "2")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.startswith("error: internal: ")


@pytest.mark.parametrize("kind", ["pointed", "classes"])
def test_wrong_residue_exits_4_without_output_or_cache(tmp_path, monkeypatch, capsys, kind):
    # a corrupted column entry puts residues above their bounds, which the
    # lift must refuse before anything is printed or cached
    from trivalent import counting

    residue_column = counting._residue_column

    def corrupted(k, n_max, modulus, inverses):
        column = residue_column(k, n_max, modulus, inverses)
        if len(column) > 2:
            column[2] = (column[2] + 1) % modulus
        return column

    monkeypatch.setattr(counting, "_residue_column", corrupted)
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    code, out, err = run(capsys, "count", kind, "--max", "40")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.startswith("error: internal: ")
    assert not cache_dir.exists()


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_coefficients_past_4300_digits(tmp_path, monkeypatch, capsys, cached):
    # the index-7400 coefficients pass Python's default int/str digit limit;
    # the digits are built without str(), which that limit would refuse
    from trivalent import counting
    from trivalent.series import TruncSeries

    digits = "7" + "0" * 4998 + "3"
    calls = []

    def subgroup_series(order, general=False):
        calls.append(order)
        return TruncSeries(order, [0, 7 * 10**4999 + 3])

    def no_switch(limit):
        raise AssertionError("count switched the int/str digit limit")

    monkeypatch.setattr(counting, "subgroup_series", subgroup_series)
    monkeypatch.setattr(sys, "set_int_max_str_digits", no_switch, raising=False)
    if cached:
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    else:
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for _ in range(2):
        code, out, err = run(capsys, "count", "pointed", "--max", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["coefficients"] == [digits]
    assert len(calls) == (1 if cached else 2)  # the second call read the cache
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_real_coefficients_past_the_digit_limit(tmp_path, monkeypatch, capsys):
    # general coefficients reach 858 digits by index 700: past a 640-digit
    # limit, computed and then read back from the cache
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    _, expected, _ = run(capsys, "count", "pointed", "--general", "--max", "700")
    assert max(map(len, json.loads(expected)["coefficients"])) > 640
    env = dict(os.environ, PYTHONPATH=SRC, **{cli.CACHE_ENV: str(tmp_path)})
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    argv = [sys.executable, "-X", "int_max_str_digits=640", "-m", "trivalent.cli",
            "count", "pointed", "--general", "--max", "700"]
    inodes = []
    for _ in range(2):
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")
        inodes.append(os.stat(tmp_path / "count-pointed-general.json").st_ino)
    assert inodes[0] == inodes[1]  # the second run read the cache, not rewrote it


@pytest.mark.parametrize("argv, unbuffered", [
    (["count", "classes", "--max", "9"], "1"),
    (["count", "classes", "--max", "9"], ""),
    (["census", "--size", "9", "--list", "--dot"], ""),
], ids=["count-unbuffered", "count-buffered", "census-past-the-buffer"])
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # `trivalent ... | head`, made deterministic: the read end is closed
    # before the spawn, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    env.pop(cli.CACHE_ENV, None)
    try:
        result = subprocess.run([sys.executable, "-m", "trivalent.cli", *argv], env=env,
                                stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


# --- cache -----------------------------------------------------------------


def test_cache_roundtrip_and_advisory(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    _, first, _ = run(capsys, "count", "classes", "--max", "9")
    cache_file = cache_dir / "count-classes.json"
    assert cache_file.exists()
    # cached rerun and a shorter prefix read
    _, second, _ = run(capsys, "count", "classes", "--max", "9")
    assert first == second
    _, prefix, _ = run(capsys, "count", "classes", "--max", "5")
    assert json.loads(prefix)["coefficients"] == ["1", "1", "2", "2", "1"]
    # deleting the cache never changes the output
    cache_file.unlink()
    _, third, _ = run(capsys, "count", "classes", "--max", "9")
    assert first == third


def test_corrupt_cache_recovers(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    run(capsys, "count", "pointed", "--max", "6")
    cache_file = cache_dir / "count-pointed.json"
    reference = json.loads(cache_file.read_text())

    # json raises RecursionError, not ValueError, on deep nesting
    for corrupt in ("{ not json", "[" * 200000):
        cache_file.write_text(corrupt)
        code, out, err = run(capsys, "count", "pointed", "--max", "6")
        assert code == 0
        assert "warning: ignoring corrupt cache" in err and "recomputing" in err
        assert json.loads(out)["coefficients"] == ["1", "1", "4", "8", "5", "22"]
        # the cache got rewritten cleanly
        assert json.loads(cache_file.read_text()) == reference

    cache_file.write_text(json.dumps({"format_version": 999}))
    code, out, err = run(capsys, "count", "pointed", "--max", "6")
    assert code == 0 and "warning" in err


@pytest.mark.parametrize("field", ["format_version", "kind", "general", "max"])
def test_cache_with_a_wrong_field_is_not_served(tmp_path, monkeypatch, capsys, field):
    # each table keeps an intact digest, so only the field comparison refuses
    # it: a classes or general table must never pass for pointed counts
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    _, uncached, _ = run(capsys, "count", "pointed", "--max", "9")
    cache_file = cache_dir / "count-pointed.json"
    reference = cache_file.read_text()
    if field == "kind":
        run(capsys, "count", "classes", "--max", "9")
        data = json.loads((cache_dir / "count-classes.json").read_text())
    elif field == "general":
        run(capsys, "count", "pointed", "--general", "--max", "9")
        data = json.loads((cache_dir / "count-pointed-general.json").read_text())
    else:
        data = json.loads(reference)
        data[field] += 1
    cache_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "count", "pointed", "--max", "9")
    assert (code, out) == (0, uncached)
    assert "warning: ignoring corrupt cache" in err and "inconsistent cache fields" in err
    assert cache_file.read_text() == reference


def test_edited_cache_value_is_not_served(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    _, uncached, _ = run(capsys, "count", "classes", "--max", "9")
    cache_file = cache_dir / "count-classes.json"
    data = json.loads(cache_file.read_text())
    data["coefficients"][5] = "9"  # well-formed, wrong value
    cache_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "count", "classes", "--max", "9")
    assert code == 0
    assert out == uncached
    assert "digest" in err and "recomputing" in err
    # the rewrite leaves no temporary file behind
    assert os.listdir(cache_dir) == ["count-classes.json"]


@pytest.mark.parametrize("entry", ["022", "2_2", "+22"])
def test_non_canonical_cache_entry_is_not_served(tmp_path, monkeypatch, capsys, entry):
    # int() reads each of these as 22, the true index-6 count, but the cache
    # only ever stores canonical decimal text, so the entry is corruption
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    _, uncached, _ = run(capsys, "count", "pointed", "--max", "9")
    cache_file = cache_dir / "count-pointed.json"
    data = json.loads(cache_file.read_text())
    assert data["coefficients"][5] == "22"
    data["coefficients"][5] = entry
    data["sha256"] = hashlib.sha256("\n".join(data["coefficients"]).encode("ascii")).hexdigest()
    cache_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "count", "pointed", "--max", "9")
    assert (code, out) == (0, uncached)
    assert "warning: ignoring corrupt cache" in err and "recomputing" in err
    assert json.loads(cache_file.read_text())["coefficients"][5] == "22"


def test_unwritable_cache_warns_and_keeps_the_output(tmp_path, monkeypatch, capsys):
    # a directory under a regular file cannot be made, even by root
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    _, uncached, _ = run(capsys, "count", "classes", "--max", "9")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv(cli.CACHE_ENV, str(blocker / "cache"))
    code, out, err = run(capsys, "count", "classes", "--max", "9")
    assert code == 0
    assert out == uncached
    assert "warning: could not write cache %s" % (blocker / "cache" / "count-classes.json") in err
    # the cache file cannot exist either, so reading it is no corruption
    assert "ignoring corrupt cache" not in err
    assert blocker.read_text() == ""


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # the write fails half way: the output is the uncached one, and neither
    # the partial temporary file nor a cache file is left behind
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    _, uncached, _ = run(capsys, "count", "classes", "--max", "9")

    def partial_dump(payload, handle):
        handle.write(json.dumps(payload)[:20])
        raise OSError("simulated full disk")

    monkeypatch.setattr(cli.json, "dump", partial_dump)
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
    code, out, err = run(capsys, "count", "classes", "--max", "9")
    assert (code, out) == (0, uncached)
    assert err == "warning: could not write cache %s (simulated full disk)\n" \
        % (cache_dir / "count-classes.json")
    assert list(cache_dir.iterdir()) == []


def test_no_cache_dir_means_no_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, out, _ = run(capsys, "count", "classes", "--max", "3")
    assert code == 0


# --- census -----------------------------------------------------------------


def test_census_size_6(capsys):
    code, out, _ = run(capsys, "census", "--size", "6")
    assert code == 0
    assert json.loads(out) == {"size": 6, "unpointed": 8, "pointed": 22, "normal": 2}


def test_census_size_1(capsys):
    code, out, _ = run(capsys, "census", "--size", "1")
    assert json.loads(out) == {"size": 1, "unpointed": 1, "pointed": 1, "normal": 1}


def test_census_normal_only_list(capsys):
    code, out, _ = run(capsys, "census", "--size", "3", "--normal-only", "--list")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal"] == 1
    assert len(payload["representatives"]) == 1
    from trivalent.diagram import is_normal, parse_diagram_text

    d, _ = parse_diagram_text(payload["representatives"][0])
    assert is_normal(d)


def test_census_normal_only_needs_a_listing(monkeypatch, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the usage check")

    monkeypatch.setattr(cli.census_mod, "enumerate_size", no_enumeration)
    code, out, err = run(capsys, "census", "--size", "6", "--normal-only")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --normal-only restricts a listing; add --list or --dot\n"


def test_census_list_all(capsys):
    code, out, _ = run(capsys, "census", "--size", "4", "--list")
    payload = json.loads(out)
    assert len(payload["representatives"]) == payload["unpointed"] == 2


def test_census_dot_dump(capsys):
    code, out, _ = run(capsys, "census", "--size", "3", "--dot")
    payload = json.loads(out)
    assert len(payload["representatives_dot"]) == 2
    assert all(s.startswith("graph barycentric {") for s in payload["representatives_dot"])
    assert "representatives" not in payload


def test_census_listing_bytes_are_pinned(capsys):
    # the census enumerator may change its search, never its output
    code, out, _ = run(capsys, "census", "--size", "12", "--list")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "75ef279ce8aeb58b8541e5a594ad0406b8eb1416657a8bbd7dabf1e5600457fe"


def test_census_dot_bytes_are_pinned(capsys):
    # the barycentric export may change its code, never its output
    code, out, _ = run(capsys, "census", "--size", "14", "--list", "--dot")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "8114a77a1a2247979202baac4745ebf10eaff3721feb7a30eb921fd8b9b3b060"


@pytest.mark.parametrize("argv, digest", [
    (("pointed",), "fdb9e5d360c019818a2367254011a338aa17da9ff7bca80a7cc0b9e775eb6d16"),
    (("pointed", "--general"), "ef76c700dfa1f8d8bbd8b4d8c1f17c12fcc8bf75ed207ca5ebbde37603c27245"),
    (("classes",), "e5cfcc87b0f333abbcfd1b55b9cbfb0e16691217582cd9a5aeee5feedd34290c"),
    (("classes", "--general"), "5331d77d0c1d13b28264ba201bc45b88c45a245239195fa0f0b4cdfbbb52467a"),
])
def test_count_output_bytes_are_pinned(monkeypatch, capsys, argv, digest):
    # the series layer may change its arithmetic, never the index-500 output
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, out, _ = run(capsys, "count", argv[0], "--max", "500", *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_census_over_cap(capsys):
    code, _, err = run(capsys, "census", "--size", "99")
    assert code == cli.EXIT_INPUT
    assert "cap" in err


@pytest.mark.parametrize("size, message", [
    (0, "error: size must be >= 1, got 0\n"),
    (15, "error: census size 15 exceeds the cap 14\n"),
])
def test_census_size_errors_exit_3(capsys, size, message):
    code, out, err = run(capsys, "census", "--size", str(size))
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == message


def test_census_internal_value_error_exits_4(monkeypatch, capsys):
    # only the size checks are input errors; a fault inside the census is not
    from trivalent import census

    def still_tied(rot, pre, inv, tied):
        raise ValueError("simulated internal fault")

    monkeypatch.setattr(census, "_still_tied", still_tied)
    code, out, err = run(capsys, "census", "--size", "3")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal: simulated internal fault\n"


# --- decide -----------------------------------------------------------------


def test_decide_normal_true(tmp_path, capsys):
    path = write(tmp_path, "d.diag", INDEX2_TEXT)
    code, out, _ = run(capsys, "decide", "normal", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] is True
    assert payload["witness"]["automorphism_order"] == 2


def test_decide_normal_false_with_conflict(tmp_path, capsys):
    path = write(tmp_path, "d.diag", "n=3; rot=[1,2,0]; inv=[0,2,1]")
    code, out, _ = run(capsys, "decide", "normal", path)
    assert code == 0  # a false answer is still a successful run
    payload = json.loads(out)
    assert payload["result"] is False
    assert "critical_pair" in payload["witness"]


def test_decide_conjugate_pointings_of_one_diagram(tmp_path, capsys):
    p1 = write(tmp_path, "a.diag", SIZE5_A)
    p2 = write(tmp_path, "b.diag", SIZE5_B)
    code, out, _ = run(capsys, "decide", "conjugate", p1, p2)
    payload = json.loads(out)
    assert payload["result"] is True
    codes = payload["witness"]["canonical_codes"]
    assert codes[0] == codes[1]


def test_decide_conjugate_false(tmp_path, capsys):
    p1 = write(tmp_path, "a.diag", "n=3; rot=[1,2,0]; inv=[0,1,2]")
    p2 = write(tmp_path, "b.diag", "n=3; rot=[1,2,0]; inv=[0,2,1]")
    code, out, _ = run(capsys, "decide", "conjugate", p1, p2)
    payload = json.loads(out)
    assert payload["result"] is False
    codes = payload["witness"]["canonical_codes"]
    assert codes[0] != codes[1]


def test_decide_included_in_terminal(tmp_path, capsys):
    sub = write(tmp_path, "sub.diag", SIZE5_A)
    top = write(tmp_path, "top.diag", TERMINAL_TEXT)
    code, out, _ = run(capsys, "decide", "included", sub, top)
    payload = json.loads(out)
    assert payload["result"] is True
    # witness map re-checks: equivariant and base-preserving
    from trivalent.diagram import parse_diagram_text

    d_sub, b_sub = parse_diagram_text(SIZE5_A)
    mapping = payload["witness"]["map"]
    assert mapping[b_sub] == 0
    assert all(mapping[d_sub.rot[a]] == 0 and mapping[d_sub.inv[a]] == 0
               for a in range(5))


def test_decide_included_false_has_verifiable_conflict(tmp_path, capsys):
    top = write(tmp_path, "top.diag", TERMINAL_TEXT)
    sub = write(tmp_path, "sub.diag", INDEX2_TEXT)
    code, out, _ = run(capsys, "decide", "included", top, sub)
    payload = json.loads(out)
    assert payload["result"] is False
    from trivalent import selftest

    # (rot, inv, base) of TERMINAL_TEXT and INDEX2_TEXT
    src, dst = ([0], [0], 0), ([0, 1], [1, 0], 0)
    assert selftest.refutes(payload["witness"]["critical_pair"], src, dst)


def test_decide_isomorphic(tmp_path, capsys):
    p1 = write(tmp_path, "a.diag", SIZE5_A)
    p2 = write(tmp_path, "b.diag", SIZE5_A)
    code, out, _ = run(capsys, "decide", "isomorphic", p1, p2)
    assert json.loads(out)["result"] is True
    p3 = write(tmp_path, "c.diag", TERMINAL_TEXT)
    code, out, _ = run(capsys, "decide", "isomorphic", p1, p3)
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["witness"]["sizes"] == [5, 1]


def _decide_pin_inputs():
    from trivalent import selftest

    rng = random.Random(610)
    rigid = selftest.random_trivalent(rng, 600)
    rigid_relabeled = rigid.relabel(rng.sample(range(600), 600))
    psl2_7 = selftest.psl2_regular(7)
    # a 16-fold cover of psl2_7 (2688 arcs): a -> a // 16 is a morphism onto it
    big = selftest.random_cover(psl2_7, 16, random.Random(10946))
    base = rng.randrange(big.n)
    perm = rng.sample(range(big.n), big.n)
    # a bead ring of 2003 arcs, in the labeling that is worst for a search
    # in arc order, and a relabeled copy
    bead = selftest.bead_ring(500)
    return {
        "bead": bead,
        "bead_relabeled": bead.relabel(random.Random(1597).sample(range(bead.n), bead.n)),
        "rigid": rigid,
        "rigid_relabeled": rigid_relabeled,
        "psl2_7": psl2_7,
        "cover": selftest.random_cover(selftest.psl2_regular(5), 2, random.Random(6765)),
        "rigid_pointed": PointedDiagram(rigid, 0),
        "psl2_7_pointed": PointedDiagram(psl2_7, base // 16),
        "big_cover": PointedDiagram(big, base),
        "big_cover_relabeled": PointedDiagram(big.relabel(perm), perm[base]),
    }


@pytest.mark.parametrize("relation, names, digest", [
    ("conjugate", ("rigid", "rigid_relabeled"),
     "2d41bef8125de6d27a0d3456e281894fd07413868ca03a9d0e97413dd4bf5fd9"),
    ("normal", ("psl2_7",),
     "09647850bd07271556450197b8642518e38e442cb15a31e460260abcbf4e644f"),
    ("normal", ("cover",),
     "56298e15f4b5c34c749b6cce65c045327bbf495a4d83b50c3b6d26a0f84c7a2f"),
    # the closure: a map witness, a critical pair and a bijection, from
    # sources of 2688 and 600 arcs
    ("included", ("big_cover", "psl2_7_pointed"),
     "9aea0e2ac9fb254ec0aa3d6f86e6a34e86bf924d2719b63796823309d2b70f14"),
    ("included", ("rigid_pointed", "psl2_7_pointed"),
     "eb9ecec80fb173a0a2a0bad774ea34a87621e1d94969491c87fb83a5a8c37894"),
    ("isomorphic", ("big_cover", "big_cover_relabeled"),
     "7786a57d7f53864055b350e0c534b2c6946f32ad27de28f0633044777f3990ee"),
    ("conjugate", ("bead", "bead_relabeled"),
     "4f3ce1fbf0f989b945df346631f2318fff6ef29077ab1bb12ad7aeeec0ff2e33"),
])
def test_decide_output_bytes_are_pinned(tmp_path, capsys, relation, names, digest):
    # the canonical-code search and the orbit algorithm may change, never
    # the output; the inputs come from the seeded builders of the selftest
    inputs = _decide_pin_inputs()
    paths = [write(tmp_path, name + ".diag", inputs[name].to_text()) for name in names]
    code, out, _ = run(capsys, "decide", relation, *paths)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_decide_requires_base_for_pointed_relations(tmp_path, capsys):
    nobase = write(tmp_path, "a.diag", "n=2; rot=[0,1]; inv=[1,0]")
    top = write(tmp_path, "b.diag", TERMINAL_TEXT)
    code, _, err = run(capsys, "decide", "included", nobase, top)
    assert code == cli.EXIT_INPUT
    assert "base" in err


# One fault per file for the pointed relations: the file text (None: the
# file does not exist) and the stderr line it gives, exit code 3.  A file
# with several faults reports the first that the full parse meets:
# structure, then connectivity, then the base.
NOT_CONNECTED = "{path}: diagram is not connected (line 1, column 6)"
POINTED_FAULTS = {
    "fine": (INDEX2_TEXT, None),
    "disconnected": ("n=2; rot=[0,1]; inv=[0,1]; base=0", NOT_CONNECTED),
    "missing-base": ("n=2; rot=[0,1]; inv=[1,0]",
                     "{path}: this relation needs a base arc (add '; base=K')"),
    "unreadable": (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "malformed": ("n=2; rot=[0,x]; inv=[1,0]; base=0",
                  "{path}: field 'rot' has a non-integer entry (line 1, column 6)"),
}
# faults tried with a fine partner only: the base range, and two faults in
# one file
MORE_FAULTS = {
    "base-out-of-range": ("n=2; rot=[0,1]; inv=[1,0]; base=2",
                          "{path}: base=2 out of range 0..1 (line 1, column 28)"),
    "disconnected-missing-base": ("n=2; rot=[0,1]; inv=[0,1]", NOT_CONNECTED),
    "disconnected-base-out-of-range": ("n=2; rot=[0,1]; inv=[0,1]; base=2", NOT_CONNECTED),
    "not-a-permutation-disconnected": ("n=2; rot=[0,0]; inv=[0,1]; base=0",
                                       "{path}: rot is not a permutation: image 0 repeated "
                                       "(line 1, column 6)"),
}


def _decide_faulty(tmp_path, capsys, relation, first, second):
    """Run `decide relation` on two files with the given (text, message)
    faults; returns (exit code, stdout, stderr, expected stderr or None)."""
    paths, expected = [], None
    for name, (text, message) in (("one", first), ("two", second)):
        path = str(tmp_path / (name + ".diag"))
        if text is not None:
            write(tmp_path, name + ".diag", text)
        if message is not None and expected is None:  # file 1's fault comes first
            expected = "error: %s\n" % message.format(path=path)
        paths.append(path)
    code, out, err = run(capsys, "decide", relation, *paths)
    return code, out, err, expected


@pytest.mark.parametrize("relation", ["included", "isomorphic"])
@pytest.mark.parametrize("fault1", sorted(POINTED_FAULTS))
@pytest.mark.parametrize("fault2", sorted(POINTED_FAULTS))
def test_pointed_relation_error_precedence(tmp_path, capsys, relation, fault1, fault2):
    code, out, err, expected = _decide_faulty(
        tmp_path, capsys, relation, POINTED_FAULTS[fault1], POINTED_FAULTS[fault2])
    if expected is None:
        assert (code, err) == (0, "")
        assert json.loads(out) == {"relation": relation, "result": True,
                                   "witness": {"map": [0, 1]}}
    else:
        assert (code, out, err) == (cli.EXIT_INPUT, "", expected)


@pytest.mark.parametrize("relation", ["included", "isomorphic"])
@pytest.mark.parametrize("fault", sorted(MORE_FAULTS))
@pytest.mark.parametrize("slot", [0, 1])
def test_pointed_relation_fault_within_one_file(tmp_path, capsys, relation, fault, slot):
    files = [POINTED_FAULTS["fine"], POINTED_FAULTS["fine"]]
    files[slot] = MORE_FAULTS[fault]
    code, out, err, expected = _decide_faulty(tmp_path, capsys, relation, *files)
    assert (code, out, err) == (cli.EXIT_INPUT, "", expected)


DISCONNECTED3 = "n=3; rot=[0,1,2]; inv=[1,0,2]; base=0"  # components {0, 1} and {2}
# (id, relation, file 1, file 2, exit code, stdout payload or stderr line):
# the faults that only the closure meets, and the size test of `isomorphic`
POINTED_OUTCOMES = [
    ("source-maps-cleanly", "included", DISCONNECTED3, INDEX2_TEXT, 3,
     "{one}: diagram is not connected (line 1, column 6)"),
    ("image-misses-arc-2", "included", INDEX2_TEXT, DISCONNECTED3, 3,
     "{two}: diagram is not connected (line 1, column 6)"),
    ("image-misses-arcs-1-2", "isomorphic", "n=3; rot=[1,2,0]; inv=[0,1,2]; base=0",
     "n=3; rot=[0,1,2]; inv=[0,2,1]; base=0", 3,
     "{two}: diagram is not connected (line 1, column 6)"),
    ("both-disconnected", "included", DISCONNECTED3, DISCONNECTED3, 3,
     "{one}: diagram is not connected (line 1, column 6)"),
    ("source-conflicts", "included", "n=3; rot=[0,1,2]; inv=[0,2,1]; base=0", INDEX2_TEXT, 3,
     "{one}: diagram is not connected (line 1, column 6)"),
    ("sizes", "isomorphic", SIZE5_A, INDEX2_TEXT, 0,
     {"relation": "isomorphic", "result": False, "witness": {"sizes": [5, 2]}}),
    ("sizes-target-disconnected", "isomorphic", SIZE5_A, DISCONNECTED3, 3,
     "{two}: diagram is not connected (line 1, column 6)"),
    ("sizes-source-disconnected", "isomorphic", DISCONNECTED3, SIZE5_A, 3,
     "{one}: diagram is not connected (line 1, column 6)"),
    ("conflict", "included", TERMINAL_TEXT, INDEX2_TEXT, 0,
     {"relation": "included", "result": False, "witness": {"critical_pair": {
         "arc": 0, "generator": "inv", "target_arc": 0, "existing_image": 0,
         "required_image": 1, "partial_map": [0]}}}),
]


@pytest.mark.parametrize("relation, text1, text2, exit_code, expected",
                         [pytest.param(*row[1:], id=row[0]) for row in POINTED_OUTCOMES])
def test_pointed_relation_outcomes(tmp_path, capsys, relation, text1, text2, exit_code,
                                   expected):
    one, two = write(tmp_path, "one.diag", text1), write(tmp_path, "two.diag", text2)
    code, out, err = run(capsys, "decide", relation, one, two)
    if exit_code == 0:
        assert (code, err) == (0, "")
        assert json.loads(out) == expected
    else:
        assert (code, out, err) == (exit_code, "", "error: %s\n"
                                    % expected.format(one=one, two=two))


def test_pointed_relations_match_brute_force():
    # the selftest oracle with its own seed: random files of up to 6 arcs,
    # connected or not, against every map and `_transitive` on each file
    from trivalent import selftest

    selftest.check_pointed_relations(random.Random(1597), 250)


def test_refutes_accepts_only_a_real_critical_pair():
    from trivalent import selftest

    src, dst = ([0], [0], 0), ([0, 1], [1, 0], 0)
    pair = {"arc": 0, "generator": "inv", "target_arc": 0, "existing_image": 0,
            "required_image": 1, "partial_map": [0]}
    assert selftest.refutes(pair, src, dst)
    for key, value in [("required_image", 0), ("generator", "rot"), ("partial_map", [1]),
                       ("existing_image", 1)]:
        assert not selftest.refutes(dict(pair, **{key: value}), src, dst)
    # an assignment that no respected step reaches proves nothing
    src3 = ([0, 1], [0, 1], 0)
    pair3 = dict(pair, partial_map=[0, 1])
    assert not selftest.refutes(pair3, src3, dst)


def test_decide_arity_checked(tmp_path, capsys):
    path = write(tmp_path, "a.diag", INDEX2_TEXT)
    code, _, err = run(capsys, "decide", "normal", path, path)
    assert code == cli.EXIT_USAGE


def test_decide_parse_error_reports_position(tmp_path, capsys):
    path = write(tmp_path, "bad.diag", "n=2; rot=[0,x]; inv=[1,0]")
    code, _, err = run(capsys, "decide", "normal", path)
    assert code == cli.EXIT_INPUT
    assert "line 1" in err


def test_decide_disconnected_rejected(tmp_path, capsys):
    path = write(tmp_path, "d.diag", DISCONNECTED)
    code, out, err = run(capsys, "decide", "normal", path)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: %s: diagram is not connected (line 1, column 6)\n" % path


@pytest.mark.parametrize("key", ["rot", "inv"])
@pytest.mark.parametrize("entry", ["true", "-1", "1.5", "null", "1e3", "[1]"])
def test_decide_list_entry_that_is_no_arc_is_named(tmp_path, capsys, key, entry):
    # the last entry of one list is no arc: -1 is an int out of range, the
    # others are no ints; a list read straight onto the arc table must name
    # the same fault as the type and range checks
    lists = {"rot": "[1,2,0]", "inv": "[0,2,1]"}
    lists[key] = lists[key][:-2] + entry + "]"
    path = write(tmp_path, "d.diag", "n=3; rot=%s; inv=%s" % (lists["rot"], lists["inv"]))
    code, out, err = run(capsys, "decide", "normal", path)
    if entry == "-1":
        fault = "%s image -1 out of range 0..2" % key
    else:
        fault = "field %r has a non-integer entry" % key
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: %s: %s (line 1, column %d)\n" % (path, fault, 6 if key == "rot" else 19)


@pytest.mark.parametrize("text", [INDEX2_TEXT[:-1] + "7" * 200000,
                                  INDEX2_TEXT + "; " + "x" * 200000],
                         ids=["long-base", "segment-without-equals"])
def test_decide_parse_errors_echo_bounded_input(tmp_path, capsys, text):
    path = write(tmp_path, "long.diag", text)
    code, out, err = run(capsys, "decide", "normal", path)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert len(err.encode()) < 400


def test_decide_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "decide", "normal", str(tmp_path / "absent.diag"))
    assert code == cli.EXIT_INPUT


def test_decide_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.diag"
    path.write_bytes(INDEX2_TEXT.encode("ascii") + b"\xff")
    code, out, err = run(capsys, "decide", "normal", str(path))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith("error: cannot read %s: 'utf-8' codec can't decode" % path)


def test_decide_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    text = "n=3; rot=[1,2,0]; inv=[0,2,1]"
    plain = write(tmp_path, "plain.diag", text)
    marked = tmp_path / "marked.diag"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("ascii"))
    expected = run(capsys, "decide", "normal", plain)
    assert run(capsys, "decide", "normal", str(marked)) == expected
    assert expected[0] == 0


def test_decide_overlong_integer_is_rejected_under_the_digit_limit(tmp_path, capsys):
    # no verb lifts Python's int/str digit limit; a diagram file is parsed
    # under it, so a 5000-digit field is not an integer
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        path = write(tmp_path, "long.diag", INDEX2_TEXT[:-1] + "5" * 5000)
        code, out, err = run(capsys, "decide", "normal", path)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert "field 'base' is not an integer" in err


# --- export -----------------------------------------------------------------


def test_export_dot(tmp_path, capsys):
    path = write(tmp_path, "d.diag", INDEX2_TEXT)
    code, out, _ = run(capsys, "export", "dot", path)
    assert code == 0
    assert out.startswith("graph barycentric {")
    assert out.count("--") == 2


def test_export_dot_bytes_are_pinned(tmp_path, capsys):
    from trivalent import selftest

    d = selftest.random_trivalent(random.Random(2584), 600)
    path = write(tmp_path, "d.diag", d.to_text())
    code, out, _ = run(capsys, "export", "dot", path)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "413679f9c488713508c1bfcebd39154c1f17e1b39e65cd9046dc299ea2dbf31c"


# --- selftest ----------------------------------------------------------------


@pytest.fixture(scope="module")
def selftest_quick_run(tmp_path_factory):
    # one `selftest quick` run, made under a corrupt cache file, serves both
    # tests below: the cache is advisory and never consulted by the
    # verification suite, so a corrupt one changes nothing
    cache_dir = tmp_path_factory.mktemp("cache")
    (cache_dir / "count-classes.json").write_text("garbage")
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.CACHE_ENV, str(cache_dir))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["selftest", "quick"])
    return code, out.getvalue(), err.getvalue()


def test_selftest_quick_passes(selftest_quick_run):
    code, out, _ = selftest_quick_run
    assert code == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    assert len(lines) >= 8
    # each check reports its wall time
    assert all(re.fullmatch(r"ok [a-z0-9-]+ \(\d+\.\d\d s\)", line) for line in lines)


def test_selftest_quick_ignores_corrupt_cache(selftest_quick_run):
    code, out, err = selftest_quick_run
    assert code == 0
    assert "FAIL" not in out
    # the suite never reads the cache, so it never warns about it either
    assert "corrupt cache" not in err


def test_selftest_names_first_failing_check(monkeypatch, capsys):
    # sabotage the reference data: the run must stop at the named check
    # with the internal-failure exit code
    from trivalent import reference, selftest

    monkeypatch.setattr(
        reference, "SUBGROUPS_BY_INDEX", (2,) + reference.SUBGROUPS_BY_INDEX[1:]
    )
    code, out, _ = run(capsys, "selftest", "quick")
    assert code == cli.EXIT_INTERNAL
    assert "FAIL reference" in out
    # checks before the failing one still ran and reported
    assert "ok recurrence-order-20" in out


def test_selftest_reports_an_unexpected_error_and_stops(monkeypatch, capsys):
    from trivalent import selftest

    def broken(limit):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(selftest, "check_number_theory", broken)
    code, out, _ = run(capsys, "selftest", "quick")
    assert code == cli.EXIT_INTERNAL
    first, second = out.splitlines()
    assert re.fullmatch(r"ok series-roundtrips \(\d+\.\d\d s\)", first)
    assert second == "FAIL number-theory: unexpected ZeroDivisionError: boom"


# --- startup ----------------------------------------------------------------


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI call pays the import; dataclasses pulls in inspect, ast, dis,
    # and only `selftest` needs the oracles
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import sys, trivalent.cli; print(sorted("
             "{'dataclasses', 'inspect', 'trivalent.selftest'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
