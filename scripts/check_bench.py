#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against the committed baseline.

Usage:
    check_bench.py BASELINE CANDIDATE [--tolerance 0.20]
    check_bench.py BASELINE CANDIDATE --update-baseline

Fails (exit 1) when:
  * a section present in the baseline is missing from the candidate,
  * a section's trace digest differs (the engine stopped being
    deterministic, or an optimisation changed simulation results),
  * a section's events/sec dropped more than --tolerance below the
    baseline (default 20%).

Exit 2 is reserved for harness problems: a missing, unreadable,
corrupt, or wrong-schema baseline/candidate file reports a one-line
diagnostic instead of a traceback.

Throughput above the baseline never fails; CI runners are noisy in
the fast direction too, and improvements should be ratcheted in with
--update-baseline, which verifies the candidate's digests against
the baseline and then copies the candidate over it.
"""

import argparse
import json
import shutil
import sys

SCHEMA = "uqsim-bench-engine-v1"


class BenchFileError(Exception):
    """A baseline/candidate file that cannot be used at all."""


def load_sections(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise BenchFileError(
            f"{path}: no such file (run bench_engine --out FILE first, or "
            "restore the committed baseline)") from None
    except OSError as error:
        raise BenchFileError(f"{path}: cannot read: {error}") from None
    except json.JSONDecodeError as error:
        raise BenchFileError(
            f"{path}: corrupt JSON (line {error.lineno}, column "
            f"{error.colno}): {error.msg}") from None
    if not isinstance(doc, dict):
        raise BenchFileError(f"{path}: expected a JSON object at top level")
    if doc.get("schema") != SCHEMA:
        raise BenchFileError(
            f"{path}: unexpected schema {doc.get('schema')!r} "
            f"(want {SCHEMA!r})")
    sections = doc.get("sections")
    if not isinstance(sections, list):
        raise BenchFileError(f"{path}: missing or malformed 'sections' list")
    by_name = {}
    for index, section in enumerate(sections):
        if not isinstance(section, dict) or "name" not in section:
            raise BenchFileError(
                f"{path}: sections[{index}] has no 'name' field")
        for field in ("trace_digest", "events", "events_per_sec"):
            if field not in section:
                raise BenchFileError(
                    f"{path}: section {section['name']!r} is missing "
                    f"{field!r}")
        by_name[section["name"]] = section
    if not by_name:
        raise BenchFileError(f"{path}: no benchmark sections")
    return by_name


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional events/sec regression")
    parser.add_argument("--update-baseline", action="store_true",
                        help="after checking digests (throughput is "
                             "ignored), copy the candidate over the "
                             "baseline to ratchet in a new reference")
    args = parser.parse_args()

    try:
        baseline = load_sections(args.baseline)
        candidate = load_sections(args.candidate)
    except BenchFileError as error:
        print(f"ERROR {error}", file=sys.stderr)
        return 2

    failures = []
    for name, base in sorted(baseline.items()):
        got = candidate.get(name)
        if got is None:
            failures.append(f"{name}: missing from candidate run")
            continue
        section_failures = []
        if got["trace_digest"] != base["trace_digest"]:
            section_failures.append(
                f"{name}: trace digest changed "
                f"{base['trace_digest']} -> {got['trace_digest']} "
                "(simulation results differ from baseline)")
        if got["events"] != base["events"]:
            section_failures.append(
                f"{name}: event count changed "
                f"{base['events']} -> {got['events']}")
        floor = base["events_per_sec"] * (1.0 - args.tolerance)
        if not args.update_baseline and got["events_per_sec"] < floor:
            section_failures.append(
                f"{name}: {got['events_per_sec']:.0f} events/s is below "
                f"the {floor:.0f} floor "
                f"(baseline {base['events_per_sec']:.0f}, "
                f"tolerance {args.tolerance:.0%})")
        if not section_failures:
            ratio = got["events_per_sec"] / base["events_per_sec"]
            print(f"ok  {name}: {got['events_per_sec']:.0f} events/s "
                  f"({ratio:.2f}x baseline), digest match")
        failures.extend(section_failures)

    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1

    if args.update_baseline:
        try:
            shutil.copyfile(args.candidate, args.baseline)
        except OSError as error:
            print(f"ERROR cannot update baseline: {error}", file=sys.stderr)
            return 2
        print(f"baseline updated: {args.candidate} -> {args.baseline}")
        return 0

    print("bench check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
