"""Tests of the benchmark's own code: generators, checkers, span arithmetic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import random
import signal
import time

import pytest

import run  # puts this directory on sys.path
import check
import gen
import probe
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
trivalent = run.load_package(ROOT)


def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = trivalent.cli.main(list(argv))
    return code, buf.getvalue()


# --- generators --------------------------------------------------------------


def test_random_trivalent_is_seeded_connected_trivalent():
    d = gen.random_trivalent(60, random.Random(3))
    gen.check_trivalent(*d)
    assert len(d[0]) == 60
    assert sum(d[0][a] == a for a in range(60)) == 6
    assert sum(d[1][a] == a for a in range(60)) == 8
    assert d == gen.random_trivalent(60, random.Random(3))
    assert d != gen.random_trivalent(60, random.Random(4))


@pytest.mark.parametrize("p", [5, 7])
def test_psl2_regular_is_normal_of_the_right_index(p):
    rot, inv = gen.psl2_regular(p)
    n = p * (p * p - 1) // 2
    assert len(rot) == n
    gen.check_trivalent(rot, inv)
    assert all(rot[a] != a and inv[a] != a for a in range(n))
    d = trivalent.Diagram(rot, inv)
    assert trivalent.is_normal(d)
    assert trivalent.automorphism_order(d) == n


def test_random_cover_projects_onto_its_base():
    rng = random.Random(5)
    base = gen.random_trivalent(12, rng, fixed=3, folded=2)
    k = 4
    rot, inv = gen.random_cover(*base, k, rng)
    gen.check_trivalent(rot, inv)
    assert len(rot) == 12 * k
    projection = [a // k for a in range(len(rot))]
    check.check_pointed_map(projection, (rot, inv, 7), (*base, 7 // k), bijective=False)


def test_relabel_is_an_isomorphism():
    rng = random.Random(6)
    rot, inv = gen.random_trivalent(30, rng, fixed=3, folded=2)
    perm = gen.random_perm(30, rng)
    copy = gen.relabel(rot, inv, perm)
    check.check_pointed_map(perm, (rot, inv, 4), (*copy, perm[4]), bijective=True)
    text = gen.to_text(*copy, perm[4])
    assert gen.parse_text(text) == (*copy, perm[4])


# --- checkers ----------------------------------------------------------------


def test_count_checker_rejects_a_wrong_coefficient():
    result = cli("count", "pointed", "--max", "6")
    coefficients = json.loads(result[1])["coefficients"]
    digest = check.coefficients_digest(coefficients)
    known = {3: 4, 6: 22}
    check.check_count(result, "pointed", 6, False, digest, known)
    wrong = result[1].replace('"22"', '"23"')
    with pytest.raises(check.CheckError):
        check.check_count((0, wrong), "pointed", 6, False, None, known)
    with pytest.raises(check.CheckError):
        check.check_count((0, wrong), "pointed", 6, False, digest, {})
    with pytest.raises(check.CheckError):
        check.check_count((3, result[1]), "pointed", 6, False, digest, known)


def test_map_checker_rejects_a_corrupted_witness(tmp_path):
    rng = random.Random(7)
    small = gen.random_trivalent(24, rng, fixed=3, folded=2)
    big = gen.random_cover(*small, 3, rng)
    big_path, small_path = tmp_path / "big.txt", tmp_path / "small.txt"
    big_path.write_text(gen.to_text(*big, 5))
    small_path.write_text(gen.to_text(*small, 5 // 3))
    result = cli("decide", "included", str(big_path), str(small_path))
    src, dst = (*big, 5), (*small, 5 // 3)
    check.check_decide_map(result, "included", src, dst, False)
    payload = json.loads(result[1])
    payload["witness"]["map"][10] = (payload["witness"]["map"][10] + 1) % 24
    with pytest.raises(check.CheckError):
        check.check_decide_map((0, json.dumps(payload)), "included", src, dst, False)


def test_normal_false_checker_verifies_the_critical_pair(tmp_path):
    d = gen.random_trivalent(30, random.Random(8), fixed=3, folded=2)
    path = tmp_path / "d.txt"
    path.write_text(gen.to_text(*d))
    result = cli("decide", "normal", str(path))
    check.check_normal_false(result, d)
    payload = json.loads(result[1])
    payload["witness"]["critical_pair"]["required_image"] = (
        payload["witness"]["critical_pair"]["existing_image"])
    with pytest.raises(check.CheckError):
        check.check_normal_false((0, json.dumps(payload)), d)


def test_conjugate_checker_needs_equal_codes():
    payload = {"relation": "conjugate", "result": True,
               "witness": {"canonical_codes": ["1;0;0", "1;0;0"]}}
    check.check_conjugate((0, json.dumps(payload)))
    payload["witness"]["canonical_codes"][1] = "2;0,1;1,0"
    with pytest.raises(check.CheckError):
        check.check_conjugate((0, json.dumps(payload)))


# --- spans -------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    tree = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 3.0, 0, 0, 0),     # overlaps b: together they cover 1..5
        ("b", 2.0, 5.0, 0, 0, 0),
        ("c", 4.0, 4.5, 2, 0, 0),     # inside b
        ("d", 8.0, 12.0, 0, 0, 0),    # runs past the root: clipped to 8..10
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([10 - 4 - 2, 2.0, 2.5, 0.5, 4.0])
    summary = spans.summarize(tree + [("a", 6.0, 7.0, 0, 1, 3)], selfs + [1.0])
    assert summary["a"] == {"self_s": 3.0, "calls": 2, "size": 3}


def test_tracer_nests_spans_and_restores_the_package():
    original = trivalent.cli.main
    tracer = spans.Tracer()
    tracer.install(trivalent)
    try:
        tracer.op = 0
        code, _ = tracer.call("bench.op", cli, "count", "pointed", "--max", "5")
        assert code == 0
    finally:
        tracer.remove()
    assert trivalent.cli.main is original
    assert trivalent.census.pointed_structures.__name__ == "pointed_structures"
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["bench.op", "cli.main", "counting.subgroup_series"]
    parent = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parent["series.TruncSeries.log"] == "counting.subgroup_series"
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[2] - root[1])


def test_generator_spans_count_yields():
    tracer = spans.Tracer()
    tracer.install(trivalent)
    try:
        tracer.op = 0
        report = tracer.call("bench.op", trivalent.census.enumerate_size, 6)
    finally:
        tracer.remove()
    summary = spans.summarize(tracer.spans, spans.self_times(tracer.spans))
    assert summary["census.pointed_structures"]["size"] == report.pointed_classes
    assert summary["diagram.canonical_code"]["calls"] == report.pointed_classes
    assert summary["census.enumerate_size"]["size"] == report.unpointed_classes


def test_op_times_leave_out_the_speed_probe():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return 0

    op = workloads.Op("busy", "busy_s", busy, lambda result: result)
    speed = probe.SpeedProbe(period=0.01)
    previous = signal.getsignal(signal.SIGALRM)
    speed.arm()
    try:
        record = run.run_op(op, run.Tally(), probe=speed)
    finally:
        speed.disarm()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert record.ok and sum(speed.samples) > 0.03
    assert abs(record.seconds + sum(speed.samples) - 0.3) < 0.02
    assert speed.factor() > 0
    with pytest.raises(ValueError):
        probe.SpeedProbe().factor()


def test_percentile_has_ten_samples_beyond_it():
    line = run.describe("x", [float(i) for i in range(20)])
    assert "median 9.5000" in line and "p50 9.0000" in line and "n=20" in line
    assert "no tail percentile" in run.describe("x", [1.0] * 10)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
