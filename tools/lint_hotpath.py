#!/usr/bin/env python3
"""Lint the replay's hot paths for constructs they must not use.

A replay's throughput rests on its hot event loops doing nothing but
arithmetic and array reads: no allocation, no logging, no virtual
dispatch, no exceptions, and no non-relaxed atomics anywhere near them
(DESIGN.md §5k). Those properties are invisible to the type system and
easy to regress with a well-meaning one-line change, so CI enforces
them here, next to clang-tidy.

Two kinds of hot region, configured in HOT_FILES below:

  * marker regions — `// lint:hot-begin ...` / `// lint:hot-end`
    comment pairs bracketing, in src/core/cyclesum.hh, the cycle sum's
    builder loop, the one event loop both of its forms run (DESIGN.md
    §5u), and the BTB outcome's builder loop, which the plan part and
    the BTB pass both run (§5v); in src/core/timing.cc, the per-layout
    form's level source with its in-line fetch, the BTB pass's lookup
    and the cycle sum's per-layout BTB correction loop; in
    src/core/shared.cc, the L1D pass, the L2 first-touch pass over the
    plan's distinct ids (§5x), the shared form's level source and the
    per-set fetch loop over the events that reach an overflowing L1I
    set (§5w). Their enclosing functions may do setup work (latency
    tables, allocation) before entering the loop. The
    per-branch paths of the Pin-style simulation (L-TAGE, PinSim) are
    marked too;
  * function manifests — named inline member functions in the cache /
    BTB headers whose whole body is hot (they are called per event or
    per line from inside the marker regions).

A manifest name that no longer matches a function definition is an
error (exit 2): renames must update the manifest, otherwise the lint
would silently stop covering the renamed function. The non-relaxed
atomics rule applies file-wide to every listed file — the replay data
structures are shared across pool workers as immutable state, and any
synchronization beside the documented relaxed telemetry counters is a
design violation, hot loop or not.

Exit codes: 0 clean, 1 findings, 2 configuration/IO error.

Stdlib only. Comments and string literals are stripped (preserving
line numbers) before any rule runs, so banned words in documentation
or assertion messages never trip the lint.
"""

import argparse
import os
import re
import sys

# Every file the lint covers. `functions` lists hot inline functions
# that must exist in the file; `markers` requires at least one
# lint:hot-begin/end pair. The atomics rule applies to all of them.
HOT_FILES = [
    {
        # The cycle sum's and the BTB outcome's builders: the event
        # loops the shared and per-layout forms share.
        "path": "src/core/cyclesum.hh",
        "markers": True,
        "functions": [],
    },
    {
        "path": "src/core/timing.cc",
        "markers": True,
        "functions": [],
    },
    {
        # The shared passes run once per campaign, or per layout where
        # a randomized heap shares no stream: the L1D pass loop, the L2
        # first-touch loop, the shared form's level source and the
        # per-set fetch loop, which runs per layout, are marked hot.
        "path": "src/core/shared.cc",
        "markers": True,
        "functions": [],
    },
    {
        # Plan/table construction allocates by design (it runs once
        # per campaign or per layout, not per event); only the
        # file-wide atomics rule applies.
        "path": "src/trace/replay.cc",
        "markers": False,
        "functions": [],
    },
    {
        "path": "src/cache/cache.hh",
        "markers": False,
        "functions": [
            "access", "contains", "probeWay", "accessAt", "install",
            "materializeSet", "touchLru", "findWay", "accessT",
            "probeWayT", "installT", "pickVictim", "setIndex", "tagOf",
        ],
    },
    {
        "path": "src/cache/hierarchy.hh",
        "markers": False,
        "functions": [
            "fetchInst", "accessData", "accessDataBelowL1",
        ],
    },
    {
        "path": "src/bpred/btb.hh",
        "markers": False,
        "functions": [
            "lookup", "lookupUpdate", "update", "probeWay",
            "updateFound", "setIndex", "touchLru", "renormalizeLru",
            "pickVictim", "findWay",
        ],
    },
    {
        "path": "src/cache/hierarchy.cc",
        "markers": False,
        "functions": [],
    },
    {
        "path": "src/bpred/btb.cc",
        "markers": False,
        "functions": [],
    },
    {
        # Pin-style simulation (DESIGN.md §5l): L-TAGE's per-branch
        # predict/update path, PinSim's predictor-major stream loop and
        # the shared per-branch stream loop every predictor runs, which
        # the Machine's cycle sum runs too (§5t).
        "path": "src/bpred/ltage.cc",
        "markers": True,
        "functions": [],
    },
    {
        "path": "src/pinsim/pinsim.cc",
        "markers": True,
        "functions": [],
    },
    {
        "path": "src/bpred/predictor.hh",
        "markers": False,
        "functions": ["streamMispredicts"],
    },
    {
        # The machine's predictor: the per-branch body of the cycle
        # sum's stream loop (DESIGN.md §5t).
        "path": "src/bpred/hybrid.hh",
        "markers": False,
        "functions": ["predictAndTrain", "tallyStream"],
    },
]

# Rules applied inside hot regions, line by line, on sanitized text.
HOT_RULES = [
    ("allocation",
     re.compile(r"\bnew\b|\bdelete\b|\bmalloc\s*\(|\bcalloc\s*\("
                r"|\brealloc\s*\(|\bfree\s*\(|\bmake_unique\b"
                r"|\bmake_shared\b|\.push_back\s*\(|\.emplace_back\s*\("
                r"|\.resize\s*\(|\.reserve\s*\(|\bstd::vector\s*<"
                r"|\bstd::string\b|\bstrprintf\s*\(")),
    ("logging",
     re.compile(r"\bpanic\s*\(|\bfatal\s*\(|\bwarn\s*\(|\binfo\s*\("
                r"|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\("
                r"|\bstd::cout\b|\bstd::cerr\b")),
    ("exception", re.compile(r"\bthrow\b")),
    ("virtual-dispatch",
     re.compile(r"\bvirtual\b|\bpredictor_\s*->|\bdynamic_cast\b")),
]

# Rule applied to every line of every listed file. Relaxed atomics are
# the telemetry counters' documented idiom; everything else is banned.
ATOMIC_RULE = ("non-relaxed-atomic",
               re.compile(r"\bstd::atomic\b|__atomic_"
                          r"|\batomic_thread_fence\b"
                          r"|\bmemory_order_(?!relaxed\b)\w+"))

MARKER_BEGIN = re.compile(r"//\s*lint:hot-begin\b")
MARKER_END = re.compile(r"//\s*lint:hot-end\b")


def sanitize(text):
    """Blank comments and string/char literals, preserving newlines.

    A small state machine instead of regex so multi-line block
    comments and escapes stay line-accurate.
    """
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
            elif (state == "string" and c == '"') or \
                 (state == "char" and c == "'"):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def marker_regions(raw_lines, path, errors):
    """[(begin_line, end_line)] 1-based inclusive, from marker pairs."""
    regions = []
    begin = None
    for num, line in enumerate(raw_lines, 1):
        if MARKER_BEGIN.search(line):
            if begin is not None:
                errors.append(f"{path}:{num}: nested lint:hot-begin")
            begin = num
        elif MARKER_END.search(line):
            if begin is None:
                errors.append(f"{path}:{num}: lint:hot-end without "
                              "begin")
            else:
                regions.append((begin, num))
                begin = None
    if begin is not None:
        errors.append(f"{path}:{begin}: unterminated lint:hot-begin")
    return regions


def match_parens(text, open_idx):
    """Index one past the ')' matching text[open_idx] == '(', or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def function_regions(sanitized, name, path, errors):
    """Line ranges of every definition of member function `name`.

    A definition is `name ( ... )` followed (after qualifiers like
    const/noexcept/override/final/-> type) by `{`; calls are followed by anything
    else and are skipped. Config error if no definition matches.
    """
    regions = []
    for m in re.finditer(r"\b%s\s*\(" % re.escape(name), sanitized):
        open_idx = sanitized.index("(", m.start())
        after_args = match_parens(sanitized, open_idx)
        if after_args < 0:
            continue
        rest = sanitized[after_args:]
        qual = re.match(
            r"\s*(?:const\b\s*|noexcept\b\s*|override\b\s*|final\b\s*"
            r"|->\s*[\w:<>&*\s]+?\s*)*\{",
            rest)
        if not qual:
            continue
        body_open = after_args + qual.end() - 1
        depth = 0
        body_close = -1
        for i in range(body_open, len(sanitized)):
            if sanitized[i] == "{":
                depth += 1
            elif sanitized[i] == "}":
                depth -= 1
                if depth == 0:
                    body_close = i
                    break
        if body_close < 0:
            errors.append(f"{path}: unbalanced braces in '{name}'")
            continue
        begin = sanitized.count("\n", 0, m.start()) + 1
        end = sanitized.count("\n", 0, body_close) + 1
        regions.append((begin, end))
    if not regions:
        errors.append(
            f"{path}: hot function '{name}' not found; if it was "
            "renamed, update HOT_FILES in tools/lint_hotpath.py")
    return regions


def lint_file(root, spec, findings, errors):
    path = spec["path"]
    full = os.path.join(root, path)
    try:
        with open(full, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        errors.append(f"{path}: unreadable: {e}")
        return
    raw_lines = text.splitlines()
    sanitized = sanitize(text)
    san_lines = sanitized.splitlines()

    regions = []
    if spec["markers"]:
        regions += marker_regions(raw_lines, path, errors)
        if not regions:
            errors.append(f"{path}: expected lint:hot-begin/end "
                          "marker regions, found none")
    for name in spec["functions"]:
        regions += function_regions(sanitized, name, path, errors)

    hot = set()
    for begin, end in regions:
        hot.update(range(begin, end + 1))

    for num, line in enumerate(san_lines, 1):
        if num in hot:
            for rule, pat in HOT_RULES:
                m = pat.search(line)
                if m:
                    findings.append((path, num, rule,
                                     raw_lines[num - 1].strip()))
        m = ATOMIC_RULE[1].search(line)
        if m:
            findings.append((path, num, ATOMIC_RULE[0],
                             raw_lines[num - 1].strip()))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repository root (default: the script's "
                         "parent directory)")
    ap.add_argument("--list-regions", action="store_true",
                    help="print the resolved hot regions and exit")
    args = ap.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    findings = []
    errors = []
    if args.list_regions:
        for spec in HOT_FILES:
            full = os.path.join(root, spec["path"])
            try:
                with open(full, encoding="utf-8") as f:
                    text = f.read()
            except OSError as e:
                errors.append(f"{spec['path']}: unreadable: {e}")
                continue
            sanitized = sanitize(text)
            regions = marker_regions(text.splitlines(), spec["path"],
                                     errors) if spec["markers"] else []
            for name in spec["functions"]:
                regions += function_regions(sanitized, name,
                                            spec["path"], errors)
            for begin, end in sorted(regions):
                print(f"{spec['path']}:{begin}-{end}")
    else:
        for spec in HOT_FILES:
            lint_file(root, spec, findings, errors)

    for e in errors:
        print(f"lint_hotpath: config error: {e}", file=sys.stderr)
    for path, num, rule, snippet in findings:
        print(f"{path}:{num}: {rule}: {snippet}")

    if errors:
        return 2
    if findings:
        print(f"{len(findings)} hot-path violation(s)")
        return 1
    print("hot paths clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
