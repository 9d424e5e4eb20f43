#!/usr/bin/env python3
"""Checks that every repository path README.md and DESIGN.md mention exists.

Usage: doc_paths_test.py <source dir> <build dir>

A path token is [build/]{src,include,bench,tools,scripts,examples,tests,
docs}/PATH. It must name a file or directory of the source tree, the stem
of a file there (bench/harness names bench/harness.h), or a file of the
build tree (build/tools/chameleon_obs_dump names a built binary). A
brace list is expanded (bench/harness.{h,cc} is two tokens); a token with
a glob (*, ?) is skipped. Prints each token that names nothing, as
<doc>:<line>: <token>, and exits 1 when there is one.
"""
import os
import re
import sys

DOCS = ["README.md", "DESIGN.md"]
TOKEN = re.compile(
    r"(?<![\w./-])((?:build/)?"
    r"(?:src|include|bench|tools|scripts|examples|tests|docs)/"
    r"[\w./*?{},-]*)")


def expand(token):
    match = re.search(r"\{([^{}]*)\}", token)
    if match is None:
        return [token]
    return [expanded
            for choice in match.group(1).split(",")
            for expanded in expand(token[:match.start()] + choice +
                                   token[match.end():])]


def names_something(path, source, build):
    if path.startswith("build/"):
        return os.path.exists(os.path.join(build, path[len("build/"):]))
    if os.path.exists(os.path.join(source, path)):
        return True
    if os.path.exists(os.path.join(build, path)):
        return True
    directory, stem = os.path.split(os.path.join(source, path))
    return os.path.isdir(directory) and any(
        os.path.splitext(entry)[0] == stem for entry in os.listdir(directory))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    source, build = sys.argv[1], sys.argv[2]
    missing = 0
    for doc in DOCS:
        with open(os.path.join(source, doc), encoding="utf-8") as text:
            for number, line in enumerate(text, 1):
                for match in TOKEN.finditer(line):
                    token = match.group(1).rstrip(".,")
                    if "*" in token or "?" in token:
                        continue
                    for path in expand(token):
                        if not names_something(path.rstrip("/"), source,
                                               build):
                            print(f"{doc}:{number}: {path}")
                            missing += 1
    if missing:
        print(f"{missing} path(s) in the docs name nothing", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
