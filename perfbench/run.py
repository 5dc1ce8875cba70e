#!/usr/bin/env python3
"""Build and run the Infopipe runtime benchmark.

Run from the repository root, for example:

    python3 perfbench/run.py --workload shard-fanout --seed 1 --seconds 10 --trace 0

The script builds the Go program in perfbench/ against the runtime in the
same checkout (the build cache, temporary files and binary all live in
.bench_build/), then replaces itself with the program, passing the
arguments through.  The program's last line of output is the JSON result.
A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def source_digest():
    """Digest of every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".s", ".mod")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(BENCH, "go.mod")):
        sys.exit("run.py: run from the repository root (perfbench/go.mod not found)")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    sys.stdout.flush()
    args = [BINARY] + sys.argv[1:] + ["--source-digest", source_digest(), "--commit", commit()]
    os.execve(BINARY, args, env)


if __name__ == "__main__":
    main()
