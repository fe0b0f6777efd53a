"""Output checks.  Every benchmark op goes through one of these; a check
raises CheckError on a wrong output, and the runner counts it as failed."""

from __future__ import annotations

import hashlib
import json
import math

from gen import check_trivalent, parse_text


class CheckError(Exception):
    """An op's output is wrong."""


def cli_payload(result) -> dict:
    """Exit code 0 and stdout that parses as one JSON object."""
    code, out = result
    if code != 0:
        raise CheckError("exit code %r" % (code,))
    try:
        payload = json.loads(out)
    except ValueError as exc:
        raise CheckError("stdout is not JSON: %s" % exc) from None
    if not isinstance(payload, dict):
        raise CheckError("stdout JSON is not an object")
    return payload


def _expect(what, got, want):
    if got != want:
        raise CheckError("%s: got %r, want %r" % (what, got, want))


def coefficients_digest(coefficients) -> str:
    return hashlib.sha256(",".join(coefficients).encode("ascii")).hexdigest()


def check_count(result, kind, max_n, general, digest, known=None):
    """A `count` payload: its header fields, the SHA-256 of the decimal
    coefficient list, and `known` = {index: value} against independent data."""
    payload = cli_payload(result)
    _expect("kind", payload.get("kind"), kind)
    _expect("max", payload.get("max"), max_n)
    _expect("general", payload.get("general"), general)
    coefficients = payload.get("coefficients")
    if not isinstance(coefficients, list) or len(coefficients) != max_n:
        raise CheckError("expected %d coefficients" % max_n)
    for index, value in (known or {}).items():
        _expect("coefficient %d" % index, coefficients[index - 1], str(value))
    if digest is not None:
        _expect("coefficient digest", coefficients_digest(coefficients), digest)
    return payload


def check_census_cli(result, size, pointed, unpointed):
    """`census --size N --list`: counts equal the series coefficients and the
    listed representatives are distinct connected trivalent diagrams."""
    payload = cli_payload(result)
    _expect("size", payload.get("size"), size)
    _expect("pointed", payload.get("pointed"), pointed)
    _expect("unpointed", payload.get("unpointed"), unpointed)
    reps = payload.get("representatives")
    if not isinstance(reps, list) or len(reps) != unpointed:
        raise CheckError("expected %d representatives" % unpointed)
    if len(set(reps)) != len(reps):
        raise CheckError("representatives repeat")
    for text in reps:
        rot, inv, _ = parse_text(text)
        _expect("representative size", len(rot), size)
        try:
            check_trivalent(rot, inv)
        except ValueError as exc:
            raise CheckError("representative %s: %s" % (text, exc)) from None
    return payload


def check_census_report(report, size, pointed, unpointed):
    """A `CensusReport` from `enumerate_size`: counts equal the series."""
    _expect("size", report.size, size)
    _expect("pointed", report.pointed_classes, pointed)
    _expect("unpointed", report.unpointed_classes, unpointed)
    _expect("labelled", report.labelled_connected, pointed * math.factorial(size - 1))
    _expect("representatives", len(report.class_representatives), unpointed)
    return report


def check_pointed_map(mapping, src, dst, bijective):
    """`mapping` is an equivariant, base-preserving map src -> dst, where
    src and dst are (rot, inv, base) triples."""
    (s_rot, s_inv, s_base), (d_rot, d_inv, d_base) = src, dst
    if not isinstance(mapping, list) or len(mapping) != len(s_rot):
        raise CheckError("map must list one image per source arc")
    m = len(d_rot)
    for a, b in enumerate(mapping):
        if not isinstance(b, int) or not 0 <= b < m:
            raise CheckError("image of arc %d out of range" % a)
    _expect("image of the base arc", mapping[s_base], d_base)
    for a in range(len(s_rot)):
        if mapping[s_rot[a]] != d_rot[mapping[a]]:
            raise CheckError("map does not commute with rot at arc %d" % a)
        if mapping[s_inv[a]] != d_inv[mapping[a]]:
            raise CheckError("map does not commute with inv at arc %d" % a)
    if bijective and len(set(mapping)) != m:
        raise CheckError("map is not a bijection")


def check_decide_map(result, relation, src, dst, bijective):
    payload = cli_payload(result)
    _expect("relation", payload.get("relation"), relation)
    _expect("result", payload.get("result"), True)
    check_pointed_map(payload.get("witness", {}).get("map"), src, dst, bijective)
    return payload


def check_conjugate(result):
    payload = cli_payload(result)
    _expect("relation", payload.get("relation"), "conjugate")
    _expect("result", payload.get("result"), True)
    codes = payload.get("witness", {}).get("canonical_codes")
    if not isinstance(codes, list) or len(codes) != 2 or not codes[0]:
        raise CheckError("expected two canonical codes")
    _expect("second canonical code", codes[1], codes[0])
    return payload


def check_normal_true(result, order):
    payload = cli_payload(result)
    _expect("relation", payload.get("relation"), "normal")
    _expect("result", payload.get("result"), True)
    _expect("automorphism_order", payload.get("witness", {}).get("automorphism_order"), order)
    return payload


def check_normal_false(result, diagram):
    """The critical pair must be a real conflict of the closure of (0, a)."""
    rot, inv = diagram
    payload = cli_payload(result)
    _expect("relation", payload.get("relation"), "normal")
    _expect("result", payload.get("result"), False)
    witness = payload.get("witness", {})
    pair = witness.get("critical_pair") or {}
    try:
        a = witness["unreachable_arc"]
        gen = {"rot": rot, "inv": inv}[pair["generator"]]
        partial = pair["partial_map"]
        arc, target = pair["arc"], pair["target_arc"]
        _expect("partial map base", partial[0], a)
        _expect("target arc", gen[arc], target)
        _expect("existing image", partial[target], pair["existing_image"])
        _expect("required image", gen[partial[arc]], pair["required_image"])
    except (KeyError, IndexError, TypeError) as exc:
        raise CheckError("malformed critical pair: %r" % (exc,)) from None
    if pair["existing_image"] == pair["required_image"]:
        raise CheckError("critical pair is not a conflict")
    return payload
