#!/usr/bin/env python3
"""Symbolizes sigprof.c and allocsample.c captures: self and inclusive tables, and a top-down tree.

    symbolize.py [--root NAME] [--by-module] capture.<pid> ...

A capture line is one sample. A line may start with `=N`: it then stands
for N samples (allocsample.c writes one line per distinct stack, weighted
by its sampled allocations or by its bytes live at the heap's peak; its
`UNIT` line names what the weights count, and its `NOTE` line is printed).

Addresses in the executable are resolved through `addr2line -f -C -i`
(inlined frames count as frames). Shared objects carry no debug info here,
so theirs are named from `nm -D` (exported symbols with sizes), from where
the capture says libc's IFUNC'd string functions resolved to, or else as
`[object+page, before NAME]`, NAME being the next exported function. A
sample whose instruction pointer is outside the
executable takes the word at its stack pointer as its caller when that
word points into code: libc's leaf routines keep no frame, and the
frame-pointer chain alone would skip the function that called them.

Shares are of all samples given; with `--root NAME` a call tree is printed
below the outermost frame whose function name contains NAME, with shares
of the samples that reach it; nodes below MIN_SHARE percent are pruned.

With `--by-module` it also prints every sample's owner, split into set-up
(any frame in `lfsbench::workloads::setup`) and the measured window. The
owner is the innermost frame naming a crate of this repository, as
`crate::module` (generic std code inlined into the store counts as the
store); libc's allocator and string routines get rows of their own; the
rows cover every sample. With `--root NAME` too, the table is repeated for
the samples that reach NAME.
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys

TOP = 25  # rows per table
MIN_SHARE = 1.0  # percent of the samples reaching the root; smaller tree nodes are pruned
HASH = re.compile(r"::h[0-9a-f]{16}$")
ESCAPES = {"$LT$": "<", "$GT$": ">", "$C$": ",", "$u20$": " ", "$RF$": "&", "$BP$": "*",
           "$u7b$": "{", "$u7d$": "}", "$LP$": "(", "$RP$": ")", "$u5b$": "[", "$u5d$": "]",
           "..": "::"}


def clean(name):
    name = HASH.sub("", name)
    for esc, text in ESCAPES.items():
        name = name.replace(esc, text)
    return name


def read_capture(path):
    """Returns (samples, ifuncs, exe, maps, unit, notes).

    A sample is (weight, [ip, word at sp, return addresses innermost first]);
    ifuncs is sorted (address, name); maps is sorted (start, end, load bias,
    file); unit names what a weight counts.
    """
    samples, ifuncs, exe, maps, bases = [], [], "", [], {}
    unit, notes = "samples", []
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            fields = line.split()
            if fields[:1] == ["MAPS"]:
                break
            if fields[:1] == ["SYM"]:
                ifuncs.append((int(fields[2], 16), fields[1]))
            elif fields[:1] == ["EXE"]:
                exe = line[4:].rstrip("\n")
            elif fields[:1] == ["UNIT"]:
                unit = line[5:].strip()
            elif fields[:1] == ["NOTE"]:
                notes.append(line[5:].strip())
            elif fields:
                weight = 1
                if fields[0].startswith("="):
                    weight = int(fields.pop(0)[1:])
                samples.append((weight, [int(a, 16) for a in fields]))
        for line in lines:
            fields = line.split()
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            # The load bias of an object is where its offset-0 mapping starts.
            base = bases.setdefault(fields[5], start - int(fields[2], 16))
            if "x" in fields[1]:
                maps.append((start, end, base, fields[5]))
    return samples, sorted(ifuncs), exe, sorted(maps), unit, notes


def object_of(addr, maps, starts):
    i = bisect.bisect_right(starts, addr) - 1
    return maps[i] if i >= 0 and addr < maps[i][1] else None


def exported(obj):
    """Sorted (start, end, name) of the object's sized dynamic symbols."""
    out = subprocess.run(["nm", "-D", "-S", "--defined-only", obj], text=True,
                         capture_output=True).stdout
    syms = []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 4:
            start = int(fields[0], 16)
            syms.append((start, start + int(fields[1], 16), fields[3].split("@")[0]))
    return sorted(syms)


def symbolize(addresses, ifuncs, exe, maps):
    """Maps each address to its frames, innermost first: [function, ...]."""
    starts = [m[0] for m in maps]
    by_object = collections.defaultdict(list)
    frames = {}
    for addr in addresses:
        m = object_of(addr, maps, starts)
        if m:
            by_object[m[3]].append((addr, addr - m[2]))
        else:
            frames[addr] = ["[unmapped]"]
    for obj, pairs in by_object.items():
        short = obj.rsplit("/", 1)[-1]
        if obj != exe:
            syms = exported(obj)
            for addr, vaddr in pairs:
                i = bisect.bisect_right(syms, (vaddr, float("inf"), "")) - 1
                j = bisect.bisect_right(ifuncs, (addr, "~")) - 1
                if i >= 0 and vaddr < syms[i][1]:
                    frames[addr] = [f"{syms[i][2]} [{short}]"]
                elif j >= 0 and addr - ifuncs[j][0] < 4096:
                    # Several names can share one implementation (memcpy and
                    # memmove do): list them all.
                    names = "/".join(n for a, n in ifuncs if a == ifuncs[j][0])
                    frames[addr] = [f"{names} [{short}]"]
                else:
                    # Unexported code sits in its file's text, ahead of the
                    # public function that follows it: name that one.
                    nxt = list(dict.fromkeys(
                        n for a, _, n in syms[i + 1:i + 9] if a == syms[i + 1][0]))
                    after = f", before {'/'.join(nxt)}" if nxt else ""
                    frames[addr] = [f"[{short}+{vaddr & ~0xfff:#x}{after}]"]
            continue
        out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
                             input="\n".join(hex(v) for _, v in pairs), text=True,
                             capture_output=True, check=True).stdout.splitlines()
        groups, i = [], 0
        while i < len(out):
            if out[i].startswith("0x"):
                groups.append([])
                i += 1
            else:
                groups[-1].append(out[i])  # function; out[i + 1] is file:line
                i += 2
        for (addr, _), names in zip(pairs, groups):
            frames[addr] = [clean(n) if n != "??" else f"[{short}]" for n in names]
    return frames


OURS = re.compile(r"\b(lambda_\w+|lfsbench)::(\w+)")
LIBC_ALLOC = {"malloc", "free", "realloc", "calloc", "cfree", "posix_memalign", "aligned_alloc",
              "memalign", "malloc_usable_size", "__default_morecore"}
LIBC_STRING = re.compile(r"^(__)?(mem|str|bcmp|wmem|wcs)\w*")
LIBC_NAMES = re.compile(r"^([\w/.@]+) \[libc|, before ([\w/.@]+)\]$")
SETUP = "lfsbench::workloads::setup"


def libc_names(frame):
    """The functions a libc frame names: its own, or the export it precedes."""
    m = LIBC_NAMES.search(frame)
    if not m or "libc" not in frame:
        return []
    return [n.split("@")[0] for n in (m.group(1) or m.group(2)).split("/")]


def owner(stack):
    """The row a sample (frames outermost first) is charged to in --by-module."""
    leaf = stack[-1]
    if "[libc" in leaf:
        # Allocator internals keep no frame: a sample in one is known by
        # the allocator function it precedes or was called from.
        if any(LIBC_ALLOC.intersection(libc_names(f)) for f in stack):
            return "libc allocator"
        if any(LIBC_STRING.match(n) for n in libc_names(leaf)):
            return "libc string"
        return "libc (other)"
    for frame in reversed(stack):
        m = OURS.search(frame)
        if m:
            crate, item = m.groups()
            # A lowercase second segment is a module; otherwise the item is
            # at the crate root.
            return f"{crate}::{item}" if item[0].islower() else crate
    if leaf.startswith("["):
        return "unresolved"
    return "std / runtime"


def by_module(stacks, title, unit):
    setup = collections.Counter()
    window = collections.Counter()
    for s, w in stacks:
        (setup if any(SETUP in f for f in s) else window)[owner(s)] += w
    n_setup, n_window = sum(setup.values()), sum(window.values())
    total = n_setup + n_window
    if not total:
        return
    print(f"\n== self by module{title}: {total} {unit}, set-up {n_setup} "
          f"({100 * n_setup / total:.2f}%), measured window {n_window} ==")
    print(f"{'window %':>9} {'window':>7} {'set-up %':>9} {'set-up':>7}  module")
    pct = lambda n, of: 100 * n / of if of else 0.0
    rows = sorted(set(setup) | set(window), key=lambda r: (-window[r], -setup[r], r))
    for r in rows:
        print(f"{pct(window[r], n_window):8.2f}% {window[r]:7d} "
              f"{pct(setup[r], n_setup):8.2f}% {setup[r]:7d}  {r}")
    print(f"{100.0:8.2f}% {n_window:7d} {100.0 if n_setup else 0.0:8.2f}% {n_setup:7d}  total")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("captures", nargs="+")
    ap.add_argument("--root", help="print a call tree below the frame containing this text")
    ap.add_argument("--by-module", action="store_true",
                    help="print self samples by crate and module, set-up and measured window apart")
    args = ap.parse_args()

    stacks = []  # (function names outermost first, weight)
    unit = "samples"
    for path in args.captures:
        samples, ifuncs, exe, maps, unit, notes = read_capture(path)
        for note in notes:
            print(f"{path}: {note}")
        starts = [m[0] for m in maps]
        chains = []
        for weight, (ip, at_sp, *returns) in samples:
            leaf, caller = object_of(ip, maps, starts), object_of(at_sp, maps, starts)
            if leaf and leaf[3] != exe and caller and at_sp not in returns[:1]:
                returns.insert(0, at_sp)
            # A return address points past its call: step back into it.
            chains.append((weight, [ip] + [a - 1 for a in returns]))
        frames = symbolize({a for _, c in chains for a in c}, ifuncs, exe, maps)
        for weight, c in chains:
            stacks.append(([f for a in c for f in frames[a]][::-1], weight))
    total = sum(w for _, w in stacks)
    if not total:
        sys.exit("no samples")

    self_count, incl_count = collections.Counter(), collections.Counter()
    for s, w in stacks:
        self_count[s[-1]] += w
        for f in set(s):
            incl_count[f] += w
    for title, table in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n== {title}: top {TOP} of {total} {unit} ==")
        for name, n in table.most_common(TOP):
            print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")

    if args.by_module:
        by_module(stacks, "", unit)
        if args.root:
            by_module([(s, w) for s, w in stacks if any(args.root in f for f in s)],
                      f" below {args.root!r}", unit)

    if args.root:
        tree = lambda: {"n": 0, "kids": collections.defaultdict(tree)}
        root, reached = tree(), 0
        for s, w in stacks:
            at = next((i for i, f in enumerate(s) if args.root in f), None)
            if at is None:
                continue
            reached += w
            node = root
            for f in s[at:]:
                node = node["kids"][f]
                node["n"] += w
        print(f"\n== below {args.root!r}: {reached} of {total} {unit} "
              f"({100 * reached / total:.1f}%) ==")

        def show(node, depth):
            for name, kid in sorted(node["kids"].items(), key=lambda kv: -kv[1]["n"]):
                if 100 * kid["n"] / reached >= MIN_SHARE:
                    print(f"{100 * kid['n'] / reached:6.2f}%  {'  ' * depth}{name}")
                    show(kid, depth + 1)
        if reached:
            show(root, 0)


if __name__ == "__main__":
    main()
