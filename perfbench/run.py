"""The repository benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload farm-paper --seed 1 \
        --seconds 36 --trace 0
    python3 perfbench/run.py --regen-references

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` re-runs the same inputs with every layer wrapped and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is a plain summary, and the one before that is the
provenance record (code version, interpreter, host, config digests,
inputs).  The process exits 1 if any check failed, 2 if it cannot run.

``--regen-references`` re-pins ``perfbench/references.json`` after an
intentional model change; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
WORKLOADS = ("farm-paper", "lazy-rack", "forecast-mix")
#: Scratch space for the cache journal; removed when the run ends.
TMP_DIR = ROOT / ".perfbench-tmp"
#: Directories the tree check skips: VCS data, build output, bytecode.
_UNWATCHED = {".git", ".bench_build", "__pycache__", TMP_DIR.name}


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _snapshot() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the tree the run must not touch."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in _UNWATCHED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path, follow_symlinks=False)
            files[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def _provenance(args: argparse.Namespace) -> dict:
    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            rev = subprocess.run(git + ["rev-parse", "HEAD"], timeout=60,
                                 capture_output=True, text=True
                                 ).stdout.strip() or None
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                timeout=60, capture_output=True, text=True)
            dirty = (bool(status.stdout.strip())
                     if status.returncode == 0 else None)
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    uname = os.uname()
    import numpy
    return {
        "git_rev": rev, "git_dirty": dirty, "src_digest": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "host_id": hashlib.blake2b(
            f"{uname.nodename}/{uname.machine}".encode(),
            digest_size=8).hexdigest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace}


def _regen(path: Path) -> None:
    import workloads
    refs = {"schema": "perfbench.references.v1"}
    for name in workloads.DES_CONFIGS:
        refs[name] = workloads.des_references(name)
        print(f"pinned {name}", file=sys.stderr)
    refs["forecast-mix"] = workloads.forecast_references()
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _layer_names() -> set[str]:
    import tracing
    empty = tracing.Tracer()
    return {*tracing.des_layers(empty, 1, []),
            *tracing.service_layers(empty, 1),
            "setup.build_grid_s", "trace.overhead_ratio"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-references", action="store_true",
                    help="re-pin every workload's reference answers")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _die(f"no program source under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _die(f"missing {spec_path}")
    # Nothing the program runs may append to the tracked perf history or
    # telemetry sinks, in this process or any child.
    os.environ["REPRO_BENCH_PATH"] = ""
    os.environ["REPRO_TELEMETRY_PATH"] = ""
    sys.path.insert(0, str(ROOT / "src"))
    if args.regen_references:
        _regen(REFERENCES)
        return 0
    if args.workload is None:
        _die("--workload is required")

    import workloads
    spec = json.loads(spec_path.read_text())
    if {m["name"] for m in spec["per_layer"]} != _layer_names():
        _die("BENCHMARK.json per_layer names do not match the tracer's")
    refs = json.loads(REFERENCES.read_text())
    before = _snapshot()
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        refs = refs[args.workload]
        if args.workload == "forecast-mix":
            out = workloads.run_forecast(args.seed, args.seconds,
                                         bool(args.trace), refs, tmp)
        else:
            out = workloads.run_des(args.workload, args.seed, args.seconds,
                                    bool(args.trace), refs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass            # another run still holds a scratch dir
    after = _snapshot()
    changed = sorted(p for p in before.keys() | after.keys()
                     if before.get(p) != after.get(p))
    if changed:
        out.problems.append(f"the run changed files of the tree: "
                            f"{changed[:10]}")

    out.metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = out.metrics.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            out.problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = out.failed == 0 and not out.problems
    print(json.dumps({"provenance": {**_provenance(args),
                                     **out.provenance}}))
    print(json.dumps({"summary": {
        **out.summary,
        "error_rate": out.failed / max(out.attempted, 1)}}))
    for problem in out.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
