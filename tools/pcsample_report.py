#!/usr/bin/env python3
"""Summarize a PC sample file written by tools/pcsample.c.

    python3 tools/pcsample_report.py EXECUTABLE SAMPLES [--top N]

Symbolizes every sampled offset once with `addr2line -a -f -i -C`
and prints three tables, each as a share of all samples (the ones
outside the executable included):

  by file      the innermost source file of each sample (inlined code
               counts where it was written, not where it was inlined)
  by function  the innermost function whose source is in the project, so
               a sample in an inlined std:: helper is charged to the
               simulator function that called it
  by line      the innermost project file:line

A source belongs to the project when its path runs through one of the
project's top-level directories (src/, tools/, bench/, examples/,
tests/) and is shown from there, so a binary built in any checkout is
attributed, not only one built next to this script.

Exits with status 77 (a ctest skip) when the executable carries no line
information: a build without -g, such as CMAKE_BUILD_TYPE=Release.
"""

import argparse
import collections
import subprocess
import sys

PROJECT_DIRS = ("src", "tools", "bench", "examples", "tests")
NO_LINE_INFO = 77


def read_samples(path):
    counts = collections.Counter()
    extra = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, value = line[1:].split()
                extra[key] = int(value)
            else:
                counts[int(line, 16)] += 1
    return counts, extra


def symbolize(executable, offsets):
    """Map each offset to its inline frames, innermost first, as
    (function, file, line) triples."""
    text = "".join("%x\n" % o for o in offsets)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", executable],
        input=text, capture_output=True, text=True, check=True).stdout
    frames = {}
    current = None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        func = lines[i]
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        i += 2
        path, _, lineno = where.rpartition(":")
        lineno = lineno.split()[0] if lineno else "0"
        frames[current].append((func, path, lineno))
    return frames


def project_path(path):
    """@p path from its last project top-level directory on, or None
    when it runs through none (system headers, libc, "??")."""
    parts = path.split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] in PROJECT_DIRS:
            return "/".join(parts[i:])
    return None


def report(executable, samples_path, top):
    counts, extra = read_samples(samples_path)
    total = sum(counts.values()) + extra.get("outside", 0)
    if total == 0:
        print("no samples")
        return 1
    frames = symbolize(executable, sorted(counts))
    if frames and not any(f[2].isdigit() and f[2] != "0"
                          for stack in frames.values() for f in stack):
        print("%s has no line information (built without -g?); "
              "nothing to attribute" % executable)
        return NO_LINE_INFO

    by_file = collections.Counter()
    by_func = collections.Counter()
    by_line = collections.Counter()
    for offset, n in counts.items():
        stack = frames.get(offset) or [("??", "??", "0")]
        by_file[project_path(stack[0][1]) or stack[0][1]] += n
        frame = next((f for f in stack if project_path(f[1])), None)
        if frame:
            by_func[frame[0]] += n
            by_line["%s:%s" % (project_path(frame[1]), frame[2])] += n
        else:
            by_func["(outside the project)"] += n
            by_line["(outside the project)"] += n
    if extra.get("outside"):
        for table in (by_file, by_func, by_line):
            table["(outside the executable)"] += extra["outside"]

    print("%d samples (%d outside the executable, %d dropped)" %
          (total, extra.get("outside", 0), extra.get("dropped", 0)))
    for title, table in (("file", by_file), ("function", by_func),
                         ("line", by_line)):
        print("\nby %s:" % title)
        for name, n in table.most_common(top):
            print("%6.1f%%  %s" % (100.0 * n / total, name))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Summarize a tools/pcsample.c sample file.")
    ap.add_argument("executable", help="the sampled program")
    ap.add_argument("samples", help="the file PCSAMPLE_OUT named")
    ap.add_argument("--top", type=int, default=25,
                    help="rows per table (default 25)")
    args = ap.parse_args()
    return report(args.executable, args.samples, args.top)


if __name__ == "__main__":
    sys.exit(main())
