#!/usr/bin/env python3
"""check_headers.py: prove every public header is self-sufficient.

Each src/**/*.hpp is compiled standalone (a generated TU that includes it
twice — the second include also exercises the include guard) with the
project's warning set.  A header that leans on whatever its includer
happened to pull in breaks here instead of in a later refactor.

The concurrency wrapper headers (common/thread_annotations.hpp and
common/sync.hpp) are additionally compiled with clang++ under
-Wthread-safety -Werror when clang++ is on PATH: the annotation macros
expand to real attributes only under Clang, so the g++ pass alone would
never parse them.  When clang++ is absent the extra pass is skipped with
a note (CI installs clang, so the gate is real there).

Keeps a content-hash result cache so unchanged headers cost nothing (CI
keys an actions/cache on the cache directory), and runs headers in
parallel.

Usage:
    check_headers.py [paths...]     default: src
    --cache-dir DIR                 result cache (default: .headers-cache)
    --no-cache                      ignore and do not write the cache
    --jobs N                        parallel headers (default: cpu count)

Exit status: 0 clean, 1 findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAGS = ["-std=c++20", "-fsyntax-only", "-Wall", "-Wextra", "-Wshadow",
         "-Wconversion", "-Werror"]

# Headers whose annotations only expand under Clang; these get a second
# standalone compile with the thread-safety analysis as errors.
THREAD_SAFETY_HEADERS = (
    "src/common/thread_annotations.hpp",
    "src/common/sync.hpp",
)
CLANG_TS_FLAGS = ("-Wthread-safety", "-Werror=thread-safety")


def find_headers(paths):
    headers = []
    for path in paths:
        if os.path.isfile(path) and path.endswith(".hpp"):
            headers.append(os.path.abspath(path))
            continue
        for dirpath, _, names in os.walk(path):
            for name in sorted(names):
                if name.endswith(".hpp"):
                    # Absolute: the generated TU lives in a temp directory.
                    headers.append(os.path.abspath(os.path.join(dirpath,
                                                                name)))
    return sorted(set(headers))


def tool_version(path):
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.stdout else path
    except OSError:
        return path


def cache_key(header, salt: bytes):
    h = hashlib.sha256()
    h.update(salt)
    with open(header, "rb") as f:
        h.update(f.read())
    # Transitive includes are not hashed; the per-PR cache key in CI
    # (keyed on the tree) bounds the staleness, exactly as in run_tidy.
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="check_headers.py")
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--cache-dir",
                        default=os.path.join(REPO_ROOT, ".headers-cache"))
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = parser.parse_args(argv)

    roots = args.paths or [os.path.join(REPO_ROOT, "src")]
    headers = find_headers(roots)
    if not headers:
        print(f"check_headers: no headers under {roots}", file=sys.stderr)
        return 2
    gxx = shutil.which("g++")
    if not gxx:
        print("check_headers: g++ not found", file=sys.stderr)
        return 2
    clangxx = shutil.which("clang++")

    if not args.no_cache:
        os.makedirs(args.cache_dir, exist_ok=True)

    def norm(header):
        return os.path.relpath(header, REPO_ROOT).replace(os.sep, "/")

    # (header, compiler, extra flags, display tag); the clang pass runs
    # only for the annotated wrapper headers, where -Wthread-safety has
    # attributes to check.
    jobs = [(h, gxx, (), "") for h in headers]
    ts_headers = [h for h in headers if norm(h) in THREAD_SAFETY_HEADERS]
    if clangxx:
        jobs += [(h, clangxx, CLANG_TS_FLAGS, " [clang thread-safety]")
                 for h in ts_headers]
    elif ts_headers:
        print("check_headers: clang++ not on PATH; skipping the "
              "thread-safety compile of the annotated headers",
              file=sys.stderr)

    def check_one(job):
        header, cxx, extra, tag = job
        rel = os.path.relpath(header, REPO_ROOT)
        salt = (tool_version(cxx) + " ".join(FLAGS)
                + " ".join(extra)).encode()
        key = cache_key(header, salt)
        marker = os.path.join(args.cache_dir, key + ".ok")
        if not args.no_cache and os.path.exists(marker):
            return rel, tag, 0, "(cached)"
        tu = (f'#include "{header}"\n'
              f'#include "{header}"\n')  # include guard must hold
        with tempfile.NamedTemporaryFile("w", suffix=".cpp",
                                         delete=False) as f:
            f.write(tu)
            tu_path = f.name
        try:
            cmd = [cxx, *FLAGS, *extra,
                   "-I", os.path.join(REPO_ROOT, "src"), tu_path]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=REPO_ROOT)
        finally:
            os.unlink(tu_path)
        if proc.returncode == 0 and not args.no_cache:
            with open(marker, "w", encoding="utf-8") as f:
                f.write(rel + "\n")
        return rel, tag, proc.returncode, proc.stderr.strip()

    failures = 0
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for rel, tag, rc, output in pool.map(check_one, jobs):
            status = "ok" if rc == 0 else "NOT SELF-SUFFICIENT"
            cached = " (cached)" if output == "(cached)" else ""
            print(f"check_headers {rel}{tag}: {status}{cached}")
            if rc != 0:
                failures += 1
                print(output)
    print(f"check_headers: {len(jobs)} compile(s) over {len(headers)} "
          f"header(s), {failures} not self-sufficient", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
