#!/usr/bin/env python3
"""Build sasserve and the perfbench harness from this checkout, then run one
benchmark workload and pass its output through.

    python3 perfbench/run.py --workload ingest|query|mixed --seed N \
        --seconds S --trace 0|1

Run it from the repository root. Everything it builds or writes stays under
.bench_build/ (or $CARGO_TARGET_DIR when set): binaries, the Go build cache,
run directories (removed when a run ends) and span files of traced runs.
The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys


def source_revision(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("go.mod", "cmd", "internal", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["ingest", "query", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the Go toolchain writes inside the checkout, and never
    # reach for the network: the module and its vendor tree are complete.
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    bindir = os.path.join(build, "bin")
    sasserve = os.path.join(bindir, "sasserve")
    harness = os.path.join(bindir, "perfbench")
    for cmd, cwd in ((["go", "build", "-o", sasserve, "./cmd/sasserve"], root),
                     (["go", "build", "-o", harness, "."], os.path.join(root, "perfbench"))):
        try:
            res = subprocess.run(cmd, cwd=cwd, env=env, timeout=850)
        except (OSError, subprocess.SubprocessError) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return 1
        if res.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed in {cwd}", file=sys.stderr)
            return 1

    # Write the build's files back to disk now, not while the run measures.
    os.sync()
    sys.stdout.flush()
    cmd = [harness, "-sasserve", sasserve, "-work", os.path.join(build, "work"),
           "-trace-dir", os.path.join(build, "traces"), "-commit", source_revision(root),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        # The harness kills its servers and removes its files on SIGTERM.
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=178)
    except subprocess.TimeoutExpired:
        print("run.py: harness overran its time limit", file=sys.stderr)
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()  # its servers die with it (Pdeathsig)
            child.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
