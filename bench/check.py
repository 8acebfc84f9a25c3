"""Per-operation output checks behind the benchmark's error count.

An operation passes when its exit code is 0, every self-check flag in its
JSON is true, and its output matches the record in expected.json: on seed 0
(the canonical labelling) the sha256 of the output bytes must equal the
recorded digest, and on every seed the dimensions must equal the
canonical ones once names are mapped back through the relabelling.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dimensions(value, names: dict):
    """Label-free form of a JSON payload: names mapped back to canonical,
    name lists and record lists sorted, representatives dropped (their
    coordinates depend on the basis order)."""
    if isinstance(value, dict):
        return {k: dimensions(v, names) for k, v in value.items() if k != "representatives"}
    if isinstance(value, list):
        items = [dimensions(v, names) for v in value]
        if items and all(isinstance(v, (str, dict)) for v in items):
            items.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return items
    if isinstance(value, str):
        return ",".join(names.get(s, s) for s in value.split(","))
    return value


def self_checks(payload: dict) -> list:
    """Names of the self-check flags in the payload that are false."""
    flags = ["all_pass"]
    if payload.get("command") == "poset":
        flags += ["monotone", "surjective", "triangles_commute"]
    bad = [f for f in flags if payload.get(f) is False]
    if "oracle" in payload and payload["oracle"].get("agrees") is not True:
        bad.append("oracle.agrees")
    return bad


def check_op(result: dict, expected: dict, seed: int, names: dict) -> str | None:
    """None when the operation passed, else the reason it failed."""
    if result["code"] != 0:
        return "exit code %s: %s" % (result["code"], result["stderr"].strip()[:200])
    try:
        payload = json.loads(result["stdout"])
    except ValueError:
        return "output is not JSON"
    bad = self_checks(payload)
    if bad:
        return "self-check false: %s" % ", ".join(bad)
    if seed == 0 and digest(result["stdout"]) != expected["sha256"]:
        return "output differs from the recorded digest"
    if dimensions(payload, names) != expected["dims"]:
        return "dimensions differ from the canonical labelling"
    return None
