"""Run the byte pins under other Python interpreters: the local check of CI's
version matrix, with no package installed or downloaded.

For each interpreter given, the digest pins (tests/test_output_digests.py and
tests/test_suite_digests.py) run under pytest as CI runs them, under
PYTHONHASHSEED 0 and 1, with src/ and this interpreter's site-packages on
PYTHONPATH. An interpreter under which pytest does not start (it may lack a
backport that pytest needs) runs the pinned `report` directly instead, and
each file it writes is compared with its pin. Prints one line per
interpreter and exits 1 if any of them fails.

Run from anywhere: python3 tools/check_pythons.py ~/.pyenv/versions/3.1*/bin/python
"""
import ast
import json
import os
import site
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ["tests/test_output_digests.py", "tests/test_suite_digests.py"]

# The run of the report_run fixture of tests/test_output_digests.py; prints
# {path under out_dir: sha256} of the cell files, the response cache aside.
REPORT = """
import hashlib, json, sys
from pathlib import Path
from morphsuite import cli
root = Path(sys.argv[1])
(root / "model.json").write_text(json.dumps(
    {"endpoint_url": "mock://random", "model_name": "random", "seed": 3}), encoding="utf-8")
(root / "run.json").write_text(json.dumps({
    "language": "turkish", "input": "bundled:turkish_demo", "seed": 11, "shots": 1,
    "model_config": str(root / "model.json"), "out_dir": str(root / "run")}), encoding="utf-8")
assert cli.main(["report", "--config", str(root / "run.json")]) == 0
print(json.dumps({path.relative_to(root / "run").as_posix():
                  hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted((root / "run").glob("*/*")) if path.parent.name != "cache"}))
"""


def report_pins() -> dict:
    """REPORT_DIGESTS of tests/test_output_digests.py, read without importing it."""
    tree = ast.parse((ROOT / PINS[0]).read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "REPORT_DIGESTS":
            return ast.literal_eval(node.value)
    raise SystemExit(f"{PINS[0]}: no REPORT_DIGESTS")


def run(interp, args, env):
    return subprocess.run([interp, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def check(interp) -> tuple[bool, str]:
    """Whether the pins hold under interp, and the line that says so."""
    paths = [str(ROOT / "src"), *site.getsitepackages()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    version = run(interp, ["-c", "import sys; print(sys.version.split()[0])"], env)
    if version.returncode != 0:
        return False, f"{interp}: does not start: {version.stderr.strip()[-200:]}"
    name = f"{version.stdout.strip()} ({interp})"
    probe = run(interp, ["-c", "import pytest"], env)
    if probe.returncode == 0:
        for hashseed in ("0", "1"):
            tests = run(interp, ["-X", "dev", "-m", "pytest", "-q", "-W", "error",
                                 "-p", "no:cacheprovider", *PINS],
                        env | {"PYTHONHASHSEED": hashseed})
            summary = (tests.stdout.strip().splitlines() or ["no output"])[-1]
            if tests.returncode != 0:
                return False, f"{name}: pytest, PYTHONHASHSEED={hashseed}: {summary}"
        return True, f"{name}: pytest under PYTHONHASHSEED 0 and 1: {summary}"
    why = (probe.stderr.strip().splitlines() or ["no output"])[-1]
    with tempfile.TemporaryDirectory(prefix="morphsuite-pythons-") as tmp:
        report = run(interp, ["-X", "dev", "-W", "error", "-c", REPORT, tmp], env)
    if report.returncode != 0:
        return False, f"{name}: pytest does not start ({why}); report: {report.stderr[-300:]}"
    written, pins = json.loads(report.stdout.splitlines()[-1]), report_pins()
    wrong = sorted(path for path in pins.keys() | written.keys()
                   if written.get(path) != pins.get(path))
    line = (f"{name}: pytest does not start ({why}); report:"
            f" {sum(written.get(p) == d for p, d in pins.items())} of {len(pins)} pins match")
    return not wrong, line + (f"; differ: {', '.join(wrong)}" if wrong else "")


def main(interps) -> int:
    if not interps:
        raise SystemExit(f"usage: {sys.argv[0]} INTERP...")
    ok = True
    for interp in interps:
        passed, line = check(interp)
        print(("ok   " if passed else "FAIL ") + line, flush=True)
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
