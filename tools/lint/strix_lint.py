#!/usr/bin/env python3
"""Architecture linter: layering DAG + secret-isolation rule.

Two invariants are enforced over the include graph of src/ (and,
with --repo, the tools/ tree):

1. Layering. The libraries form a strict DAG (see src/CMakeLists.txt):

       common -> poly -> tfhe -> {strix, workloads, baselines}
       common -> sim  -> strix
       common -> net  -> server <- {tfhe, workloads}

   A file in layer L may only include headers from the layers L is
   allowed to depend on. An upward or sideways include (poly including
   tfhe/, common including anything, net/ including tfhe/ -- the wire
   layer moves opaque bytes and must stay below the crypto) is a
   violation.

2. Secret isolation. `tfhe/client_keyset.h` holds the secret keys.
   Server-side translation units -- server_context, batch_executor,
   eval_keys, gates, bootstrap, everything under net/ and server/
   (the serving daemon), every tools/ TU when --repo is given, and
   everything those transitively include -- must not include it, and
   must not name `ClientKeyset`. A header that includes the secret
   header anywhere down a server TU's include chain makes the closure
   walk fail with that chain. Client-facing facades that
   legitimately bridge the two halves are listed in an explicit
   allowlist; the allowlist itself is checked for freshness (an entry
   that no longer includes client_keyset.h is stale and fails the
   run, so the list cannot rot into fiction).

Optionally cross-checks TU coverage against a compile_commands.json:
a compiled source under src/ the linter did not scan is an error (the
lint surface silently shrank); a scanned .cpp missing from the build
is only a warning (config-dependent sources like simd_avx2.cpp).

Exit status: 0 clean, 1 violations found, 2 bad invocation/input.
"""

import argparse
import json
import os
import re
import sys
from collections import deque

# Layer -> layers it may include from (itself always allowed).
LAYER_DEPS = {
    "common": set(),
    "net": {"common"},
    "poly": {"common"},
    "sim": {"common"},
    "tfhe": {"common", "poly"},
    "strix": {"common", "poly", "sim", "tfhe"},
    "workloads": {"common", "poly", "sim", "strix", "tfhe"},
    "baselines": {"common", "poly", "sim", "strix", "tfhe"},
    "server": {"common", "net", "poly", "sim", "strix", "tfhe",
               "workloads"},
}

SECRET_HEADER = "tfhe/client_keyset.h"

# Modules owning the secret header: its own implementation files.
SECRET_OWNERS = {"tfhe/client_keyset.h", "tfhe/client_keyset.cpp"}

# Client-facing facades audited to hold/route secret keys on purpose.
# Kept deliberately small; tools/lint/test_lint.py asserts staleness
# detection, and rule [allowlist-stale] fails the run if an entry
# stops including the secret header.
DEFAULT_ALLOWLIST = [
    "tfhe/integer.h",        # client-side integer encrypt/decrypt API
    "workloads/circuit_client.h",  # encrypt-eval-decrypt wrapper
]

# Server-side roots: the pure-evaluation surface. Their transitive
# include closure is the "server side" for rules [secret-include] and
# [secret-name].
SERVER_ROOTS = [
    "tfhe/server_context",
    "tfhe/batch_executor",
    "tfhe/eval_keys",
    "tfhe/gates",
    "tfhe/bootstrap",
]

# Whole directories that are server-side in their entirety: every TU
# of the wire layer and the serving daemon (plus, when --repo merges
# them in, the tools/ binaries) is a closure root.
SERVER_ROOT_DIRS = ("net", "server", "tools")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def strip_comments_and_strings(text):
    """Remove //, /* */ comments and string/char literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j  # keep the newline
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            # preserve line count inside the comment
            seg = text[i:] if j < 0 else text[i : j + 2]
            out.append("\n" * seg.count("\n"))
            i = n if j < 0 else j + 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def scan_tree(src_root):
    """Map repo-relative path -> [(line_no, included_rel_path)]."""
    files = {}
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if not name.endswith((".h", ".cpp", ".hpp", ".cc")):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, src_root).replace(os.sep, "/")
            with open(full, encoding="utf-8") as f:
                text = f.read()
            includes = []
            for line_no, line in enumerate(text.splitlines(), 1):
                m = INCLUDE_RE.match(line)
                if m:
                    includes.append((line_no, m.group(1)))
            files[rel] = {"includes": includes, "text": text}
    return files


def layer_of(rel):
    return rel.split("/", 1)[0] if "/" in rel else None


def check_layering(files):
    violations = []
    for rel in sorted(files):
        layer = layer_of(rel)
        if layer not in LAYER_DEPS:
            continue
        allowed = LAYER_DEPS[layer] | {layer}
        for line_no, inc in files[rel]["includes"]:
            if inc not in files:
                continue  # system/third-party header
            inc_layer = layer_of(inc)
            if inc_layer in LAYER_DEPS and inc_layer not in allowed:
                violations.append(
                    f"{rel}:{line_no}: [layering] {layer}/ may not "
                    f"include {inc_layer}/ (got \"{inc}\"); allowed: "
                    f"{', '.join(sorted(allowed))}"
                )
    return violations


def server_closure(files):
    """BFS the include graph from the server roots.

    Returns {reached_file: (parent, line_no)} for chain printing;
    roots map to (None, 0).
    """
    queue = deque()
    seen = {}
    roots = []
    for root in SERVER_ROOTS:
        for ext in (".h", ".cpp"):
            roots.append(root + ext)
    roots += [rel for rel in sorted(files)
              if layer_of(rel) in SERVER_ROOT_DIRS]
    for rel in roots:
        if rel in files and rel not in seen:
            seen[rel] = (None, 0)
            queue.append(rel)
    while queue:
        cur = queue.popleft()
        for line_no, inc in files[cur]["includes"]:
            if inc in files and inc not in seen:
                seen[inc] = (cur, line_no)
                queue.append(inc)
    return seen


def include_chain(closure, target):
    """Render the root -> ... -> target chain with file:line hops."""
    hops = []
    cur = target
    while cur is not None:
        parent, line = closure[cur]
        hops.append((cur, parent, line))
        cur = parent
    hops.reverse()
    lines = [f"    {hops[0][0]} (server root)"]
    for rel, parent, line in hops[1:]:
        lines.append(f"    -> {rel} (included at {parent}:{line})")
    return "\n".join(lines)


def check_secret_isolation(files, allowlist):
    violations = []
    allowed_direct = set(allowlist) | SECRET_OWNERS

    # Rule [secret-direct]: only audited facades include the header.
    for rel in sorted(files):
        for line_no, inc in files[rel]["includes"]:
            if inc == SECRET_HEADER and rel not in allowed_direct:
                violations.append(
                    f"{rel}:{line_no}: [secret-direct] includes "
                    f"{SECRET_HEADER} but is not on the audited "
                    f"allowlist (tools/lint/strix_lint.py)"
                )

    # Rule [secret-include]: the server closure never reaches it.
    closure = server_closure(files)
    if SECRET_HEADER in closure:
        parent, line = closure[SECRET_HEADER]
        violations.append(
            f"{parent}:{line}: [secret-include] server-side closure "
            f"reaches {SECRET_HEADER}; include chain:\n"
            + include_chain(closure, SECRET_HEADER)
        )

    # Rule [secret-name]: no server-side TU names the secret type,
    # even without the include (forward declarations, reinterpret
    # tricks). Comments and strings are stripped first.
    name_re = re.compile(r"\bClientKeyset\b")
    for rel in sorted(closure):
        if rel in SECRET_OWNERS or rel in allowed_direct:
            continue
        code = strip_comments_and_strings(files[rel]["text"])
        for line_no, line in enumerate(code.splitlines(), 1):
            if name_re.search(line):
                violations.append(
                    f"{rel}:{line_no}: [secret-name] server-side TU "
                    f"names ClientKeyset"
                )

    # Rule [allowlist-stale]: every allowlist entry still earns its
    # place by directly including the secret header.
    for entry in allowlist:
        if entry not in files:
            violations.append(
                f"{entry}:0: [allowlist-stale] allowlisted file does "
                f"not exist"
            )
            continue
        direct = {inc for _, inc in files[entry]["includes"]}
        if SECRET_HEADER not in direct:
            violations.append(
                f"{entry}:0: [allowlist-stale] allowlisted but no "
                f"longer includes {SECRET_HEADER}; remove it from the "
                f"allowlist"
            )
    return violations


def check_compile_commands(files, cc_path, src_root):
    """Cross-check TU coverage. Returns (violations, warnings)."""
    try:
        with open(cc_path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        print(f"strix_lint: cannot read {cc_path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    src_abs = os.path.abspath(src_root)
    compiled = set()
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        if path.startswith(src_abs + os.sep):
            rel = os.path.relpath(path, src_abs).replace(os.sep, "/")
            compiled.add(rel)
    violations = []
    for rel in sorted(compiled - set(files)):
        violations.append(
            f"{rel}:0: [coverage] compiled (per {cc_path}) but not "
            f"scanned by the linter -- lint surface out of sync"
        )
    warnings = []
    scanned_cpp = {r for r in files if r.endswith((".cpp", ".cc"))}
    for rel in sorted(scanned_cpp - compiled):
        warnings.append(
            f"note: {rel} scanned but absent from {cc_path} "
            f"(config-dependent source?)"
        )
    return violations, warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src",
                    help="source root to scan (default: src)")
    ap.add_argument("--repo", default=None,
                    help="repo root; additionally scans its tools/ "
                         "tree as server-side closure roots")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for TU coverage check")
    ap.add_argument("--allowlist", default=None,
                    help="comma-separated override of the audited "
                         "secret-header allowlist (empty string: no "
                         "facade may include it)")
    args = ap.parse_args()

    if not os.path.isdir(args.src):
        print(f"strix_lint: no such directory: {args.src}",
              file=sys.stderr)
        return 2

    if args.allowlist is None:
        allowlist = DEFAULT_ALLOWLIST
    else:
        allowlist = [a for a in args.allowlist.split(",") if a]

    files = scan_tree(args.src)
    src_files = dict(files)  # for the compile-commands cross-check
    # With --repo, the daemon binaries under tools/ join the layering
    # and secret checks as server-side closure roots: a tool that
    # touched secret-key headers would ship key material in an
    # evaluation-only binary.
    if args.repo:
        tools_root = os.path.join(args.repo, "tools")
        if os.path.isdir(tools_root):
            for rel, info in scan_tree(tools_root).items():
                files[f"tools/{rel}"] = info
    violations = check_layering(files)
    violations += check_secret_isolation(files, allowlist)
    if args.compile_commands:
        cc_violations, warnings = check_compile_commands(
            src_files, args.compile_commands, args.src)
        violations += cc_violations
        for w in warnings:
            print(w)

    if violations:
        for v in violations:
            print(v)
        print(f"strix_lint: {len(violations)} violation(s) in "
              f"{len(files)} files")
        return 1
    print(f"strix_lint: OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
