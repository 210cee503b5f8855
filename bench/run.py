"""Benchmark of bnslopes through its public entry point, ``bnslopes.cli.main``.

One process, one thread, no ``multiprocessing``: ``BNSLOPES_JOBS`` is
removed from the environment and no item passes ``--jobs``.  Each item
is one in-process ``cli.main(argv)`` call with stdout captured, and
every output is checked (see ``workloads.py``).  A closed loop with one
caller runs whole passes over the workload's items, after an untimed
warm-up pass, until about ``--seconds`` have gone by.  Every pass runs
on a fresh import of ``bnslopes``, so no module-level state carries over
from one repeat of an item to the next.
Times are reported in reference-speed seconds (see ``reference_work``).

    python3 bench/run.py --workload slope-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the result holds the
per-layer metrics of the traced passes, and the spans are written to
``.bench_trace/``.  ``--workload all`` runs every workload in its own
process and prints one table.  The last line of stdout is the result as
one JSON object.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from layertrace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Seconds between two samples of the reference loop, and between two
# extra set-up timings, both taken between items.
REFERENCE_EVERY_S = 0.2
SETUP_EVERY_S = 0.5
# The reference loop's time on the 2-core host the baseline was measured
# on, when no other tenant slowed it down.
REFERENCE_S = 0.008


def reference_work() -> None:
    """Fixed exact arithmetic that shares no code with bnslopes:
    Gauss-Jordan elimination with Fractions on a seeded 11 x 12 matrix of
    12-digit integers, which, like bnslopes, mixes interpreter work with
    arithmetic on integers of many words.

    A shared host slows a process by up to 1.8x for stretches of seconds
    to minutes, and slows this loop in step with bnslopes.  Every time is
    therefore scaled by ``REFERENCE_S`` over this loop's median time
    during the same pass: a change to bnslopes moves the scaled times in
    full, while the host's speed cancels out."""
    rng = random.Random(7)
    n, bound = 11, 10**12
    rows = [[Fraction(rng.randint(-bound, bound)) for _ in range(n + 1)] for _ in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _is_bnslopes(name: str) -> bool:
    return name == "bnslopes" or name.startswith("bnslopes.")


def setup(workload: str, seed: int):
    """Import bnslopes from a clean module table and generate the inputs;
    returns the package, its passes and the seconds taken."""
    for name in [m for m in sys.modules if _is_bnslopes(m)]:
        del sys.modules[name]
    start = time.perf_counter()
    package = importlib.import_module("bnslopes")
    importlib.import_module("bnslopes.cli")
    passes = workloads.generate(workload, seed)
    return package, passes, time.perf_counter() - start


def time_setup(workload: str, seed: int) -> float:
    """Seconds of one more set-up; the modules in use are put back after."""
    saved = {name: mod for name, mod in sys.modules.items() if _is_bnslopes(name)}
    seconds = setup(workload, seed)[2]
    for name in [m for m in sys.modules if _is_bnslopes(m)]:
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


def run_pass(package, items, checker, tracer=None, tag=0, between=None):
    """Run every item once (traced when a tracer is given), then check the
    outputs; returns (pass seconds, item seconds, failed items, output bytes).
    ``between`` is called after each item, outside the timed span."""
    perf = time.perf_counter
    outputs, codes, latencies = {}, {}, []
    between_s = 0.0
    if tracer is not None:
        tracer.install(package)
    begin = perf()
    try:
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = f"{tag}:{index}"
            buf = io.StringIO()
            start = perf()
            try:
                with contextlib.redirect_stdout(buf):
                    code = package.cli.main(list(item.argv))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception as exc:  # recorded as a failed item, never aborts the run
                code = f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf() - start)
            outputs[item.key] = buf.getvalue()
            codes[item.key] = code
            if between is not None:
                paused = perf()
                between()
                between_s += perf() - paused
    finally:
        end = perf()
        if tracer is not None:
            tracer.uninstall()
    wall = end - begin - between_s
    out_bytes = sum(len(out.encode()) for out in outputs.values())
    return wall, latencies, checker.failures(outputs, codes), out_bytes


class Checker:
    """Checks the passes over one list of items.  A pass whose exit codes
    and outputs hash like those of a verified pass is not re-checked; any
    other is checked item by item."""

    def __init__(self, items) -> None:
        self.items = items
        self.verified = None

    def failures(self, outputs, codes) -> int:
        digest = hashlib.sha256()
        for item in self.items:
            digest.update(f"{item.key}\0{codes[item.key]}\0{outputs[item.key]}\0".encode())
        if digest.digest() == self.verified:
            return 0
        failed = 0
        for item in self.items:
            code = codes[item.key]
            if isinstance(code, str):
                reason = code
            else:
                try:
                    reason = item.check(code, outputs[item.key], outputs)
                except Exception as exc:  # unparsable output fails the item
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failed += 1
                print(f"FAILED {item.key}: {reason}", file=sys.stderr)
        if not failed:
            self.verified = digest.digest()
        return failed


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """After an untimed warm-up pass, cycle through the passes (at least
    two) while another pass would end no more than half a pass after
    ``seconds``, counted from before the warm-up.  Each pass runs on a fresh
    import of bnslopes whose set-up is timed; more set-ups are timed
    between items, one per ``SETUP_EVERY_S``.  The reference loop runs
    before and after each pass and between items, one per
    ``REFERENCE_EVERY_S``, and the pass's times are scaled by its median.
    When traced, each untraced pass is followed by a traced pass over
    another fresh import, whose times are not scaled."""
    perf = time.perf_counter
    tracer = Tracer() if traced else None
    walls, raw_walls, latencies, setups, references, layer_passes = [], [], [], [], [], []
    attempted = failed = 0
    pass_refs, pass_setups = [], []
    last_ref = last_setup = perf()

    def between():
        nonlocal last_ref, last_setup
        if perf() - last_ref >= REFERENCE_EVERY_S:
            pass_refs.append(time_reference())
            last_ref = perf()
        if perf() - last_setup >= SETUP_EVERY_S:
            pass_setups.append(time_setup(workload, seed))
            last_setup = perf()

    begin = last = perf()
    package, passes, _ = setup(workload, seed)
    checkers = [Checker(items) for items in passes]
    run_pass(package, passes[0], checkers[0])
    while len(walls) < 2 or perf() + (perf() - last) / 2 < begin + seconds:
        last = perf()
        package, passes, took = setup(workload, seed)
        variant = len(walls) % len(passes)
        items, checker = passes[variant], checkers[variant]
        gc.collect()
        pass_setups[:] = [took]
        pass_refs[:] = [time_reference()]
        wall, lat, bad, _ = run_pass(package, items, checker, between=between)
        pass_refs.append(time_reference())
        scale = REFERENCE_S / statistics.median(pass_refs)
        references += pass_refs
        raw_walls.append(wall)
        walls.append(wall * scale)
        latencies += [x * scale for x in lat]
        setups += [x * scale for x in pass_setups]
        attempted += len(items)
        failed += bad
        if traced:
            package, passes, _ = setup(workload, seed)
            gc.collect()
            tracer.reset()
            traced_wall, _, bad, out_bytes = run_pass(
                package, passes[variant], checker, tracer, len(layer_passes)
            )
            layers = tracer.pass_metrics()
            layers["cli.out_bytes"] = out_bytes
            layers["trace.overhead_s"] = traced_wall - wall
            layer_passes.append(layers)
            attempted += len(items)
            failed += bad
    result = {
        "walls": walls,
        "raw_walls": raw_walls,
        "latencies": latencies,
        "setups": setups,
        "references": references,
        "items_per_pass": len(checkers[0].items),
        "pass_variants": len(checkers),
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        result["layers"] = {
            name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]
        }
        result["tracer"] = tracer
    return result


def _commit():
    """The checked-out commit when the tree is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bnslopes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args) -> int:
    if not (SRC / "bnslopes" / "cli.py").is_file():
        print(f"bench: no bnslopes sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("BNSLOPES_JOBS", None)
    sys.path.insert(0, str(SRC))
    package = setup(args.workload, args.seed)[0]
    if Path(package.__file__).resolve().parent != SRC / "bnslopes":
        print(f"bench: bnslopes was imported from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    lat_ms = [x * 1000 for x in res["latencies"]]
    if args.trace:
        metrics = {name: (value, _layer_unit(name)) for name, value in sorted(res["layers"].items())}
        res["tracer"].write_spans(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(res["setups"]), "s"),
            "wall_s": (statistics.median(res["walls"]), "s"),
            "items_per_s": (res["items_per_pass"] / statistics.median(res["walls"]), "1/s"),
            "item_p50_ms": (statistics.median(lat_ms), "ms"),
            "item_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "setup_repeats": len(res["setups"]),
        "items_per_pass": res["items_per_pass"],
        "pass_variants": res["pass_variants"],
        "passes": len(res["walls"]),
        "traced_passes": len(res["walls"]) if args.trace else 0,
        "latency_samples": len(lat_ms),
        "raw_pass_median_s": statistics.median(res["raw_walls"]),
        "reference_samples": len(res["references"]),
        "reference_median_s": statistics.median(res["references"]),
        "error_rate": res["failed"] / res["attempted"],
    }
    print(f"bnslopes benchmark: {json.dumps(record, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<40} {record['error_rate']:>16.6g} ({res['failed']} of {res['attempted']} items)")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith("_bytes"):
        return "byte"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one table."""
    ok = True
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{workload}: {result['attempted']} items, {result['failed']} failed, "
              f"error_rate {result['failed'] / result['attempted']:.6g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
