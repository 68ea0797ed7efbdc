#!/usr/bin/env python3
"""Fail when a speedup claim in the docs is not backed by a committed
benchmark artifact.

Every `N×` or `N–M×` in README.md and docs/ARCHITECTURE.md must sit in a
bullet or paragraph that names at least one `BENCH_*.json` file, and each
number must be within 10% of a value that artifact carries: an entry's
`speedup` field, or the ratio of two entries' `ops_per_sec` measured at
the same `size`. A claim with no artifact in its block, a missing
artifact, or a number no artifact supports is an error; so stale figures
fail CI instead of outliving the measurement they quote.

Usage: check_bench_claims.py [--root REPO_ROOT] [FILES...]
"""

import argparse
import json
import re
import sys
from pathlib import Path

DEFAULT_FILES = ("README.md", "docs/ARCHITECTURE.md")
NUMBER = r"\d+(?:\.\d+)?"
CLAIM_RE = re.compile(rf"({NUMBER})(?:\s*[–-]\s*({NUMBER}))?\s*×")
ARTIFACT_RE = re.compile(r"BENCH_\w+\.json")
BULLET_RE = re.compile(r"^\s*(?:[-*+]|\d+\.)\s")
TOLERANCE = 0.10


def blocks(text: str):
    """Yields (first line number, text) of each bullet or paragraph,
    skipping fenced code."""
    current, start, in_fence = [], 0, False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            if current:
                yield start, "\n".join(current)
            current = []
            continue
        if in_fence:
            continue
        if not line.strip() or BULLET_RE.match(line) or line.startswith("#"):
            if current:
                yield start, "\n".join(current)
            current = []
            if not line.strip() or line.startswith("#"):
                continue
        if not current:
            start = number
        current.append(line)
    if current:
        yield start, "\n".join(current)


def supported_values(artifact: dict) -> list:
    entries = artifact.get("benchmarks", [])
    values = [e["speedup"] for e in entries if "speedup" in e]
    by_size = {}
    for e in entries:
        by_size.setdefault(e["size"], []).append(e["ops_per_sec"])
    for ops in by_size.values():
        values += [a / b for a in ops for b in ops if a != b and b > 0]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        type=Path)
    parser.add_argument("files", nargs="*", default=DEFAULT_FILES)
    args = parser.parse_args()

    cache = {}
    errors = []
    claims = 0
    for name in args.files:
        path = args.root / name
        for line, block in blocks(path.read_text()):
            found = CLAIM_RE.findall(block)
            if not found:
                continue
            where = f"{name}:{line}"
            artifacts = sorted(set(ARTIFACT_RE.findall(block)))
            if not artifacts:
                errors.append(f"{where}: speedup claim names no BENCH_*.json artifact")
                continue
            values = []
            for artifact in artifacts:
                if artifact not in cache:
                    file = args.root / artifact
                    cache[artifact] = (supported_values(json.loads(file.read_text()))
                                       if file.exists() else None)
                if cache[artifact] is None:
                    errors.append(f"{where}: {artifact} does not exist")
                else:
                    values += cache[artifact]
            for low, high in found:
                for number in filter(None, (low, high)):
                    claims += 1
                    claimed = float(number)
                    if not any(abs(claimed - v) <= TOLERANCE * v for v in values):
                        errors.append(f"{where}: {number}× is not within 10% of any "
                                      f"speedup or same-size ops ratio in "
                                      f"{', '.join(artifacts)}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_bench_claims: {claims} claimed figures backed by their artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
