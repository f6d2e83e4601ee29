#!/usr/bin/env python3
"""Check that the working tree prints the same output bytes as revision REV.

Checks REV out into a temporary detached `git worktree`, then runs REV's
copies of three scripts under `python -W error`, once with REV's `src` and
once with the working tree's `src` on PYTHONPATH:

* `output_digest.py` (every `uli` command's exit code and output hashes);
* `stabilizer_fuzz.py --states 500 --max-dim 16`;
* `degeneracy_sweep.py`.

Running REV's scripts on both sides keeps a script edit in the working tree
from hiding a change in the library. Each run's stdout is compared with its
exit code appended as a last line. The script prints one line per check,
`same`, or `differs` with the first differing line of each side, and exits 1
on any difference. The worktree is removed on exit, also on failure, so
`git worktree list` is unchanged afterwards. The digest's hashes depend on
the BLAS build, which is the same for both sides of one run.

Usage: python scripts/compare_parent.py REV   (for example HEAD~1)
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = [
    ("output_digest.py", []),
    ("stabilizer_fuzz.py", ["--states", "500", "--max-dim", "16"]),
    ("degeneracy_sweep.py", []),
]


def git(*args, check=True):
    subprocess.run(["git", "-C", str(ROOT), *args], check=check, capture_output=True, text=True)


def run(script, args, src, cwd):
    """stdout of one script run, with its exit code as the last line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-W", "error", str(script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.stdout.splitlines() + [f"exit {proc.returncode}"]


def first_difference(rev_lines, tree_lines):
    """'' when the two outputs are equal, else the first line where they differ."""
    for k, (a, b) in enumerate(zip(rev_lines, tree_lines), 1):
        if a != b:
            return f"at line {k}: REV {a!r}, tree {b!r}"
    if len(rev_lines) != len(tree_lines):
        return f"in length: REV {len(rev_lines)} lines, tree {len(tree_lines)}"
    return ""


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 64
    rev = sys.argv[1]
    work = Path(tempfile.mkdtemp(prefix="compare_parent-"))
    worktree = work / "rev"
    ok = True
    try:
        try:
            git("worktree", "add", "--detach", str(worktree), rev)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot check out {rev}: {exc.stderr.strip()}", file=sys.stderr)
            return 2
        for name, args in CHECKS:
            script = worktree / "scripts" / name
            if not script.exists():
                print(f"{name}: missing at {rev}")
                ok = False
                continue
            rev_lines = run(script, args, worktree / "src", work)
            tree_lines = run(script, args, ROOT / "src", work)
            diff = first_difference(rev_lines, tree_lines)
            ok &= not diff
            print(f"{name}: differs {diff}" if diff else
                  f"{name}: same ({len(rev_lines) - 1} lines, {rev_lines[-1]})")
    finally:
        git("worktree", "remove", "--force", str(worktree), check=False)
        git("worktree", "prune", check=False)
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
