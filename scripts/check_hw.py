#!/usr/bin/env python3
"""Validates hardware-counter telemetry in a chameleon metrics JSONL.

Usage: check_hw.py <metrics.jsonl> [--expect=available|unavailable|auto]

The exactly-one-of contract: a run holds either >= 1 "hw_counters"
record (counters were live) or exactly one "hw_counters_unavailable"
record (graceful degradation) — never both, never neither.
--expect=available / --expect=unavailable pins which side CI demands;
auto (the default) accepts either side but still enforces the contract.

Every hw_counters record must carry the full schema: path, backend in
{perf, emulated}, class in the toplev-lite enum, non-negative integer
counters, and derived rates consistent with the raw counters
(ipc ~ instructions/cycles and so on). Exits 0 on success, 1 on a
validation failure, 2 on usage errors.
"""
import json
import sys

BACKENDS = {"perf", "emulated"}
CLASSES = {
    "unknown",
    "frontend-bound",
    "backend-memory-bound",
    "compute-bound",
    "balanced",
}
COUNTER_FIELDS = (
    "spans",
    "cycles",
    "instructions",
    "cache_refs",
    "cache_misses",
    "branch_misses",
    "stalled_backend",
    "task_clock_ns",
)
RATE_FIELDS = ("ipc", "cache_miss_rate", "branch_miss_rate")


def fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def check_record(path: str, lineno: int, obj: dict) -> str | None:
    """Returns a diagnostic for a malformed hw_counters record, or None."""
    where = f"{path}:{lineno}"
    if not obj.get("path"):
        return f"{where}: hw_counters record without a span path"
    if obj.get("backend") not in BACKENDS:
        return f"{where}: bad backend {obj.get('backend')!r}"
    if obj.get("class") not in CLASSES:
        return f"{where}: bad class {obj.get('class')!r}"
    for field in COUNTER_FIELDS:
        value = obj.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            return f"{where}: counter {field}={value!r} is not a " \
                   f"non-negative number"
    for field in RATE_FIELDS:
        value = obj.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            return f"{where}: rate {field}={value!r} is not a " \
                   f"non-negative number"
    if obj["spans"] < 1:
        return f"{where}: aggregate with zero spans was emitted"
    # The derived rates must match the raw counters they summarize
    # (loose tolerance: the writer rounds to a few decimals).
    if obj["cycles"] > 0:
        ipc = obj["instructions"] / obj["cycles"]
        if abs(ipc - obj["ipc"]) > max(0.01, 0.01 * ipc):
            return f"{where}: ipc {obj['ipc']} inconsistent with " \
                   f"instructions/cycles = {ipc:.4f}"
    if obj["cache_refs"] > 0:
        cmr = obj["cache_misses"] / obj["cache_refs"]
        if abs(cmr - obj["cache_miss_rate"]) > max(0.01, 0.01 * cmr):
            return f"{where}: cache_miss_rate {obj['cache_miss_rate']} " \
                   f"inconsistent with misses/refs = {cmr:.4f}"
    return None


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    opts = [a for a in sys.argv[1:] if a.startswith("--")]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = args[0]
    expect = "auto"
    for opt in opts:
        if opt.startswith("--expect="):
            expect = opt.split("=", 1)[1]
            if expect not in ("available", "unavailable", "auto"):
                print(__doc__, file=sys.stderr)
                return 2
        else:
            print(__doc__, file=sys.stderr)
            return 2

    hw_records = []
    unavailable = []
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                return fail(f"{path}:{lineno}: invalid JSON: {err}")
            kind = obj.get("type")
            if kind == "hw_counters":
                diag = check_record(path, lineno, obj)
                if diag is not None:
                    return fail(diag)
                hw_records.append(obj)
            elif kind == "hw_counters_unavailable":
                if not obj.get("reason"):
                    return fail(f"{path}:{lineno}: unavailable record "
                                f"without a reason")
                unavailable.append(obj)

    # The exactly-one-of contract.
    if hw_records and unavailable:
        return fail(f"{path}: both hw_counters ({len(hw_records)}) and "
                    f"hw_counters_unavailable ({len(unavailable)}) present")
    if not hw_records and len(unavailable) != 1:
        return fail(f"{path}: no hw_counters and "
                    f"{len(unavailable)} hw_counters_unavailable records "
                    f"(want exactly 1)")
    if expect == "available" and not hw_records:
        return fail(f"{path}: expected live counters, got unavailable "
                    f"({unavailable[0].get('reason')})")
    if expect == "unavailable" and hw_records:
        return fail(f"{path}: expected unavailable fallback, got "
                    f"{len(hw_records)} hw_counters records")

    if hw_records:
        nonzero = sum(1 for r in hw_records if r["ipc"] > 0)
        print(f"{path}: {len(hw_records)} hw_counters records "
              f"({nonzero} with nonzero ipc), backend="
              f"{hw_records[0]['backend']}")
        if nonzero == 0:
            return fail(f"{path}: every hw_counters record has ipc 0")
    else:
        print(f"{path}: counters unavailable "
              f"({unavailable[0].get('reason')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
