#!/usr/bin/env python3
"""Validates the crash-forensics trail in a chameleon metrics JSONL file.

Usage: check_crash.py <metrics.jsonl> [--signal=N] [--min-frames=K]
           [--require-span]

Passes when the stream holds a "crash" record whose signal matches
--signal (when given), whose backtrace has at least --min-frames frames
with at least one of them symbolized (a frame that names a function, not
just a "module+0x..." fallback), and a "run_summary" stamped with the
crash's signal: the evidence that the handler flushed the stream.
--require-span additionally demands the crash record name the span that
was open at the fault. Exits 0 on success, 1 on a validation failure, 2
on usage errors.
"""
import json
import sys


def is_symbolized(frame):
    """A frame counts as symbolized when it names a function. The two
    fallback shapes — "module+0xoffset" when dladdr finds no symbol and
    bare "0xaddress" when it finds no module — both fail this test."""
    return ("+0x" not in frame and not frame.startswith("0x")
            and any(c.isalpha() for c in frame))


def load_records(path):
    crashes, summaries = [], []
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: bad JSON: {err}") from err
            kind = obj.get("type")
            if kind == "crash":
                crashes.append(obj)
            elif kind == "run_summary":
                summaries.append(obj)
    return crashes, summaries


def main() -> int:
    want_signal = None
    min_frames = 1
    require_span = False
    positional = []
    for arg in sys.argv[1:]:
        if arg.startswith("--signal="):
            want_signal = int(arg.split("=", 1)[1])
        elif arg.startswith("--min-frames="):
            min_frames = int(arg.split("=", 1)[1])
        elif arg == "--require-span":
            require_span = True
        else:
            positional.append(arg)
    if len(positional) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    path = positional[0]
    try:
        crashes, summaries = load_records(path)
    except (OSError, ValueError) as err:
        print(err, file=sys.stderr)
        return 1

    if not crashes:
        print(f"{path}: no crash record", file=sys.stderr)
        return 1
    crash = crashes[-1]

    if want_signal is not None and crash.get("signal") != want_signal:
        print(f"{path}: crash signal {crash.get('signal')} != expected "
              f"{want_signal}", file=sys.stderr)
        return 1

    frames = crash.get("frames", [])
    if len(frames) < min_frames:
        print(f"{path}: only {len(frames)} backtrace frames "
              f"(need {min_frames}): {frames}", file=sys.stderr)
        return 1
    symbolized = [f for f in frames if is_symbolized(f)]
    if not symbolized:
        print(f"{path}: no symbolized frame in backtrace (build with "
              f"-rdynamic / CMAKE_ENABLE_EXPORTS?): {frames}",
              file=sys.stderr)
        return 1

    if require_span and not crash.get("span_path"):
        print(f"{path}: crash record has no span_path", file=sys.stderr)
        return 1

    if not any("signal" in summary and summary["signal"] == crash.get("signal")
               for summary in summaries):
        print(f"{path}: no run_summary stamped with signal "
              f"{crash.get('signal')}", file=sys.stderr)
        return 1

    print(f"crash trail OK: {crash.get('signal_name', '?')} "
          f"(signal {crash.get('signal')}), {len(frames)} frames "
          f"({len(symbolized)} symbolized)"
          + (f", span {crash['span_path']}" if crash.get("span_path") else "")
          + f", run_summary signal {crash.get('signal')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
