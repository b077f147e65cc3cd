#!/usr/bin/env python3
"""List the atomic operations and protection slots of each C++ function.

For every function defined in the given source files, prints one row per

  * atomic operation: `.load` / `.store` / `.exchange` /
    `.compare_exchange_*` / `.fetch_*` with the memory orders it passes
    (`(default)` when it passes none, i.e. seq_cst), and
  * `protect_link(source, slot)` call with its protection slot.

Rows are `function  line  op  object  orders-or-slot`, where `function`
is qualified by its enclosing classes and `object` is the receiver
expression (the link read, for `protect_link`).

`--flatten` prints the per-path view instead: for each function, its own
sites plus those of every function of the given files it calls, expanded
at each call site (recursively; a cycle is expanded once), as counted
`op member orders-or-slot` rows without line numbers. A step moved into
a helper, or into another of the files, leaves that view unchanged, so
diffing it before and after a refactor shows whether any path gained,
lost or changed an atomic. A call resolves by name, narrowed in turn by
its `Class::` qualifier (a member call `x.f()` never resolves to the
calling function's own class), by the classes of the functions on the
path being expanded (innermost first, then to the types that function
brace-initializes: a call through a template parameter, such as a node
layout's hook, resolves to the layout its caller built), and by include
distance from the calling file; what is still ambiguous is expanded for
every candidate.

`--require NAME` (repeatable) exits with status 1 when NAME has no rows
of its own. The parser is a brace/paren scanner, not a C++ front end: it
handles the repository's own style (comments, string literals,
preprocessor lines, constructor initializer lists, lambdas inside
functions), and merges overloads that share a name.

Usage: tools/atomic_sites.py [--flatten] [--require NAME]... FILE...
"""

import argparse
import collections
import re
import sys

ATOMIC_OPS = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|compare_exchange_strong|"
    r"compare_exchange_weak|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor)\s*\(")
PROTECT = re.compile(r"\bprotect_link\s*\(")
ORDER = re.compile(r"memory_order_(\w+)")
FN_QUALIFIERS = re.compile(
    r"\)\s*(?:(?:const|noexcept|override|final|mutable|&&|&)\s*)*$")
SCOPE_KEYWORD = re.compile(r"\b(?:struct|class|namespace|enum|union|extern)\b")
FN_NAME = re.compile(
    r"((?:\w+::)*(?:operator\s*\(\s*\)|operator\s*[^\s(]+|~?\w+))\s*\(")
CLASS_NAME = re.compile(
    r"\b(?:struct|class|union)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+)")
BRACE_INIT = re.compile(r"\b(\w+)\s*(?:<[^;{}()]*>)?\s*\{")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)
CALL = re.compile(
    r"(?<![\w~])((?:\w+::)*)(\w+)\s*(?:<[^;{}()]*>)?\s*\(")

# `cls` is the tuple of enclosing class names, `file` the index of the
# source file the function is defined in.
Function = collections.namedtuple("Function", "name start end cls file")
Site = collections.namedtuple("Site", "line op obj detail")


def blank_out(src):
    """Returns `src` with comments, string/char literals and preprocessor
    lines replaced by spaces (newlines kept, so offsets and line numbers
    stay valid)."""
    out = list(src)
    i, n = 0, len(src)
    line_start = True
    while i < n:
        c = src[i]
        if line_start and c == "#":
            # Preprocessor line, with backslash continuations.
            while i < n and not (src[i] == "\n" and src[i - 1] != "\\"):
                if src[i] != "\n":
                    out[i] = " "
                i += 1
            continue
        if c == "\n":
            line_start = True
            i += 1
            continue
        if not c.isspace():
            line_start = False
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if src.startswith("/*", i):
            end = src.find("*/", i + 2)
            end = n if end < 0 else end + 2
            for j in range(i, end):
                if src[j] != "\n":
                    out[j] = " "
            i = end
            continue
        raw = re.match(r'R"([^(\s]*)\(', src[i:i + 20])
        if raw and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            close = ")" + raw.group(1) + '"'
            end = src.find(close, i + raw.end())
            end = n if end < 0 else end + len(close)
            for j in range(i, end):
                if src[j] != "\n":
                    out[j] = " "
            i = end
            continue
        if c in "\"'":
            if c == "'" and i > 0 and src[i - 1].isalnum():
                i += 1  # a digit separator such as 1'000
                continue
            j = i + 1
            while j < n and src[j] != c:
                j += 2 if src[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                out[k] = " "
            i = j + 1
            continue
        i += 1
    return "".join(out)


def drop_templates(head):
    """`head` without its template parameter and argument lists."""
    head = re.sub(r"^\s*template\s*<", "<", head)
    depth = 0
    flat = []
    for c in head:
        if c == "<":
            depth += 1
        elif c == ">" and depth:
            depth -= 1
        elif depth == 0:
            flat.append(c)
    return "".join(flat)


def function_name(head):
    """The declared name in a function head, or None."""
    m = FN_NAME.search(drop_templates(head))
    return re.sub(r"\s+", "", m.group(1)) if m else None


def find_functions(code, file=0):
    """Every function definition outside another function's body."""
    functions = []
    stack = []  # braces outside functions: ('scope', class) | ('init',)
    head_start = 0
    paren = 0
    fn_name, fn_start, fn_depth = None, 0, 0
    for i, c in enumerate(code):
        if fn_name is not None:
            if c == "{":
                fn_depth += 1
            elif c == "}":
                fn_depth -= 1
                if fn_depth == 0:
                    cls = tuple(e[1] for e in stack
                                if e[0] == "scope" and e[1])
                    functions.append(
                        Function(fn_name, fn_start, i, cls, file))
                    fn_name = None
                    head_start = i + 1
            continue
        if c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        if paren:
            continue
        if c == ";":
            head_start = i + 1
        elif c == "{":
            head = code[head_start:i].strip()
            name = function_name(head) if FN_QUALIFIERS.search(head) else None
            if name:
                fn_name, fn_start, fn_depth = name, i, 1
            elif SCOPE_KEYWORD.search(head):
                m = CLASS_NAME.search(drop_templates(head))
                stack.append(("scope", m.group(1) if m else None))
                head_start = i + 1
            else:
                stack.append(("init",))  # a brace initializer: head goes on
        elif c == "}" and stack:
            if stack.pop()[0] == "scope":
                head_start = i + 1
    return functions


def balanced_args(code, open_paren):
    """Top-level comma-separated arguments of the call whose '(' is at
    `open_paren`."""
    depth, args, cur = 0, [], []
    for c in code[open_paren:]:
        if c in "([{":
            depth += 1
            if depth == 1:
                continue
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(cur))
                break
        elif c == "," and depth == 1:
            args.append("".join(cur))
            cur = []
            continue
        cur.append(c)
    return [re.sub(r"\s+", " ", a).strip() for a in args]


def receiver(code, end):
    """The postfix expression ending just before `end` (the '.' or '->'
    of a member call)."""
    i = end
    while i > 0:
        c = code[i - 1]
        if c.isalnum() or c in "_.":
            i -= 1
        elif c == ">" and i > 1 and code[i - 2] == "-":
            i -= 2
        elif c == ":" and i > 1 and code[i - 2] == ":":
            i -= 2
        elif c in ")]":
            close, open_ = c, "(" if c == ")" else "["
            depth = 0
            while i > 0:
                i -= 1
                if code[i] == close:
                    depth += 1
                elif code[i] == open_:
                    depth -= 1
                    if depth == 0:
                        break
        elif c.isspace():
            j = i - 1
            while j > 0 and code[j - 1].isspace():
                j -= 1
            # `return Commit.load(...)`: a space between two names ends
            # the expression.
            if i < end and (code[i].isalnum() or code[i] == "_") and j > 0 \
                    and (code[j - 1].isalnum() or code[j - 1] in "_)]"):
                break
            i = j
        else:
            break
    return re.sub(r"\s+", "", code[i:end])


def sites(code, fn):
    """The atomic and protect_link sites in `fn`'s body."""
    body = code[fn.start:fn.end]
    base_line = code.count("\n", 0, fn.start) + 1
    found = []
    for m in ATOMIC_OPS.finditer(body):
        args = balanced_args(body, m.end() - 1)
        orders = ORDER.findall(" ".join(args))
        found.append((m.start(), m.group(1), receiver(body, m.start()),
                      "/".join(orders) if orders else "(default)"))
    for m in PROTECT.finditer(body):
        args = balanced_args(body, m.end() - 1)
        found.append((m.start(), "protect_link", args[0] if args else "?",
                      "slot " + (args[1] if len(args) > 1 else "?")))
    found.sort()
    return [Site(base_line + body.count("\n", 0, off), op, obj, detail)
            for off, op, obj, detail in found]


def member(obj):
    """The field an atomic object expression names (`L.KN->R.VHead` ->
    `VHead`)."""
    names = re.findall(r"\w+", obj)
    return names[-1] if names else obj


def qualified(fn):
    """`fn`'s name with its enclosing classes (`ShardIndex::find`)."""
    return "::".join(fn.cls + (fn.name,))


def include_distances(paths, sources):
    """dist[i][j]: include hops from file i to file j among the given
    files (None when j is not reachable)."""
    edges = [[j for inc in INCLUDE.findall(src)
              for j, other in enumerate(paths)
              if j != i and other.replace("\\", "/").endswith("/" + inc)]
             for i, src in enumerate(sources)]
    dist = []
    for i in range(len(paths)):
        d, frontier = {i: 0}, [i]
        while frontier:
            nxt = []
            for f in frontier:
                for j in edges[f]:
                    if j not in d:
                        d[j] = d[f] + 1
                        nxt.append(j)
            frontier = nxt
        dist.append([d.get(j) for j in range(len(paths))])
    return dist


def flatten(codes, functions, dist):
    """Per-function multiset of (op, member, detail), callees expanded at
    every call site."""
    by_name = collections.defaultdict(list)
    for fn in functions:
        by_name[fn.name.split("::")[-1]].append(fn)
    own = {fn: sites(codes[fn.file], fn) for fn in functions}

    def scope(fn):
        return fn.cls + tuple(fn.name.split("::")[:-1])

    def body(fn):
        return codes[fn.file][fn.start:fn.end]

    def resolve(qual, name, member_call, path):
        cands = by_name[name]
        if member_call:
            cands = [c for c in cands if scope(c) != scope(path[-1])]
        if qual:
            last = qual.rstrip(":").split("::")[-1]
            cands = [c for c in cands if last in scope(c)] or cands
        for caller in reversed(path):
            outer = scope(caller)
            inside = [c for c in cands
                      if outer and scope(c)[:len(outer)] == outer]
            if inside:
                built = set(BRACE_INIT.findall(body(caller)))
                return [c for c in inside if built & set(scope(c))] or inside
        hops = dist[path[-1].file]
        reach = [hops[c.file] for c in cands if hops[c.file] is not None]
        if reach:
            cands = [c for c in cands if hops[c.file] == min(reach)]
        return cands

    def calls(fn):
        text = body(fn)
        return [(m.group(1), m.group(2),
                 text[:m.start()].rstrip().endswith((".", "->")))
                for m in CALL.finditer(text) if m.group(2) in by_name]

    def expand(fn, path):
        rows = collections.Counter(
            (s.op, member(s.obj), s.detail) for s in own[fn])
        helpers = []
        for qual, name, member_call in calls(fn):
            for callee in resolve(qual, name, member_call, path):
                if callee in path:
                    continue
                sub, sub_helpers = expand(callee, path + (callee,))
                if sub:
                    helpers.append(name)
                    helpers.extend(sub_helpers)
                rows.update(sub)
        return rows, helpers

    result = []
    for fn in functions:
        rows, helpers = expand(fn, (fn,))
        result.append((fn, rows, helpers))
    return result


def main(argv):
    parser = argparse.ArgumentParser(
        description="List atomic operations and protect_link slots per "
        "function.")
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--flatten", action="store_true",
                        help="expand callees from any FILE at each call site")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="fail unless NAME has rows of its own")
    args = parser.parse_args(argv)

    sources = []
    for path in args.files:
        with open(path, encoding="utf-8") as f:
            sources.append(f.read())
    codes = [blank_out(src) for src in sources]
    functions = [fn for i, code in enumerate(codes)
                 for fn in find_functions(code, i)]
    if args.flatten:
        dist = include_distances(args.files, sources)
        for fn, rows, helpers in flatten(codes, functions, dist):
            if not rows:
                continue
            via = " (via %s)" % ", ".join(sorted(set(helpers))) \
                if helpers else ""
            print(qualified(fn) + via)
            for (op, mem, detail), count in sorted(rows.items()):
                print("  %2dx %-24s %-8s %s" % (count, op, mem, detail))
    else:
        for fn in functions:
            for s in sites(codes[fn.file], fn):
                print("%-22s %5d  %-24s %-28s %s" %
                      (qualified(fn), s.line, s.op, s.obj, s.detail))

    have_rows = set()  # every qualified suffix: `find`, `ShardIndex::find`
    for fn in functions:
        if sites(codes[fn.file], fn):
            parts = qualified(fn).split("::")
            have_rows.update("::".join(parts[i:]) for i in range(len(parts)))
    missing = [name for name in args.require if name not in have_rows]
    for name in missing:
        print("atomic_sites: no rows for %s" % name, file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
