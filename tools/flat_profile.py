#!/usr/bin/env python3
"""Flat profile from a pcsample.<pid>.out file (tools/pcsample.c).

    python3 tools/flat_profile.py pcsample.<pid>.out

Each sample is one program counter taken at a SIGPROF tick of process CPU
time. The script maps every counter through the recorded /proc/self/maps
to (object file, ELF virtual address), resolves the addresses with one
`addr2line` call per object, and prints the share of samples per function
and then per source line, largest first (top 30 of each). Samples in
objects without line information show as "?? (<object>)". Run it before
rebuilding: addresses resolve against the files now at the recorded paths.
"""
import argparse
import collections
import os
import struct
import subprocess
import sys


def parse(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "map":
                fields = rest.split(None, 5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
    return maps, pcs


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) triples of a 64-bit ELF, or []."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            phoff, = struct.unpack_from("<Q", head, 32)
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    out = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            out.append((p_offset, p_vaddr, p_filesz))
    return out


def to_vaddr(segments, offset):
    for p_offset, p_vaddr, p_filesz in segments:
        if p_offset <= offset < p_offset + p_filesz:
            return offset - p_offset + p_vaddr
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("samples")
    args = parser.parse_args()

    maps, pcs = parse(args.samples)
    if not pcs:
        print("no samples in " + args.samples, file=sys.stderr)
        return 1
    # (object, vaddr) per sample; unmapped counters keep a placeholder.
    located = []
    segments = {}
    for pc in pcs:
        hit = next((m for m in maps if m[0] <= pc < m[1]), None)
        if hit is None:
            located.append(("?", None))
            continue
        lo, _, offset, obj = hit
        if obj not in segments:
            segments[obj] = load_segments(obj) if os.path.isfile(obj) else []
        located.append((obj, to_vaddr(segments[obj], pc - lo + offset)))

    names = {}
    by_object = collections.defaultdict(set)
    for obj, vaddr in located:
        if vaddr is not None:
            by_object[obj].add(vaddr)
    for obj, addrs in by_object.items():
        addrs = sorted(addrs)
        run = subprocess.run(["addr2line", "-f", "-C", "-e", obj],
                             input="".join("%x\n" % a for a in addrs),
                             capture_output=True, text=True)
        lines = run.stdout.splitlines()
        if run.returncode != 0 or len(lines) != 2 * len(addrs):
            continue
        for i, a in enumerate(addrs):
            names[(obj, a)] = (lines[2 * i], lines[2 * i + 1])

    total = len(pcs)
    print("%d samples" % total)
    for column, title in enumerate(("function", "line")):
        counts = collections.Counter()
        for obj, vaddr in located:
            name = names.get((obj, vaddr), ("??", "??"))[column]
            if name.startswith("??"):
                name = "?? (%s)" % os.path.basename(obj)
            counts[name] += 1
        print("\n%7s %8s  %s" % ("self%", "samples", title))
        for name, n in counts.most_common(30):
            print("%6.2f%% %8d  %s" % (100.0 * n / total, n, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
