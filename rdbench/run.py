"""Benchmark of cascade-rd: the simulator, the discrete search, the Gaussian sweep.

Run from the root of a checkout of the repository:

    python3 rdbench/run.py --workload sim-n20 --seed 1 --seconds 20 --trace 0
    python3 rdbench/run.py --workload gauss-sweep --seed 1 --seconds 20 --trace 1
    python3 rdbench/run.py --selftest

Everything runs in this one process, on one thread: the BLAS and OpenMP pools
are pinned to one thread before numpy is imported. The program is imported
from ./src of the checkout, never from an installed copy. A run sets up
SETUP_REPS times (each time: input generation, source/auxiliary files
written and read back, one untimed warm-up unit), then runs whole rounds of
units for about --seconds of timed work and checks every unit's output,
outside the timed region, with the independent checks in checks.py.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1 the run times its first round (the first
`trace_rounds` of the workload) untraced, then runs the same rounds again
with the layer boundaries wrapped (tracing.py), prints the per-layer metrics
instead, reports the tracing overhead, and writes every span to
rdbench/out/. A human-readable report goes to stderr.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_program(root: Path):
    """Import cascade_rd from <root>/src and the Gaussian oracle from <root>/tests."""
    src = root / "src"
    oracle_file = root / "tests" / "oracles.py"
    if not (src / "cascade_rd" / "__init__.py").is_file() or not oracle_file.is_file():
        raise FileNotFoundError(
            f"{root} is not a cascade-rd checkout: need src/cascade_rd/ and tests/oracles.py")
    sys.path.insert(0, str(src))
    import cascade_rd
    from cascade_rd import _kernels, cli, discrete, gaussian, probability, simulate

    if Path(cascade_rd.__file__).resolve().parent != (src / "cascade_rd").resolve():
        raise ImportError(f"cascade_rd imported from {cascade_rd.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("rdbench_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    api = SimpleNamespace(_kernels=_kernels, cli=cli, discrete=discrete, gaussian=gaussian,
                          probability=probability, simulate=simulate)
    return api, oracles.gaussian_min_r1_oracle


class Tally:
    """Unit times, items and check failures of one measured stretch."""

    def __init__(self):
        self.unit_times = []
        self.rounds = 0
        self.items = 0
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.fails = []
        self.items_of_unit = {}

    @property
    def items_per_s(self):
        return self.items / self.timed if self.timed > 0 else 0.0

    @property
    def unit_p50_ms(self):
        return 1e3 * statistics.median(self.unit_times) if self.unit_times else 0.0


def run_unit(wl, unit, tally, tracer=None):
    """Time one unit, then check it outside the timed region."""
    idx = tally.attempted
    tally.attempted += 1
    if tracer is not None:
        tracer.unit = idx
    t0 = time.perf_counter()
    try:
        out = wl.run(unit)
    except Exception as exc:  # noqa: BLE001 - a unit that raises is a failed operation
        tally.failed += 1
        tally.fails.append(("raised", f"{unit!r}: {type(exc).__name__}: {exc}"))
        return 0, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.unit = -1
    n = wl.items(unit, out)
    tally.items_of_unit[idx] = n
    tally.fails += [(name, f"{unit!r}: {msg}") for name, msg in wl.check(unit, out)]
    tally.unit_times.append(dt)
    return n, dt


def measure(wl, seed, seconds, rounds=None, tracer=None):
    """Whole rounds until the next would pass `seconds` of timed work.

    At least one round runs; with `rounds` set, exactly that many.
    """
    tally = Tally()
    while True:
        r_time = 0.0
        for unit in wl.units(seed, tally.rounds):
            n, dt = run_unit(wl, unit, tally, tracer)
            tally.items += n
            r_time += dt
        tally.timed += r_time
        tally.rounds += 1
        if rounds is not None:
            if tally.rounds >= rounds:
                return tally
        elif tally.timed + r_time > seconds:
            return tally


def set_up(factory, api, oracle, seed, workdir):
    """SETUP_REPS set-up passes; returns the last workload and each pass's time.

    A pass is the program's share of set-up: building the workload's inputs and
    files, reading them back, and one warm-up unit. Checking the warm-up
    unit's output is the benchmark's own work and is left out.
    """
    times, warm = [], Tally()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = factory(api, oracle)
        wl.setup(seed, workdir)
        prepared = time.perf_counter() - t0
        _, dt = run_unit(wl, wl.warmup_unit(seed), warm)  # its check is not set-up
        times.append(prepared + dt)
    return wl, times, warm


def tail_line(times):
    """Highest whole percentile with at least ten samples beyond it (n >= 40)."""
    n = len(times)
    if n < 40:
        return f"{n} units: too few for a tail percentile"
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(times)
    value = ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]
    return f"{n} units: p{pct} = {1e3 * value:.3f} ms"


def report_fails(fails):
    for name, msg in fails[:20]:
        log(f"CHECK FAILED [{name}] {msg}")
    if len(fails) > 20:
        log(f"... and {len(fails) - 20} more")


def run_benchmark(args) -> dict:
    api, oracle = load_program(Path.cwd())
    import_s = time.perf_counter() - T_START  # numpy, the benchmark and the program
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, setup_times, warm = set_up(WORKLOADS[args.workload], api, oracle, args.seed,
                                       str(workdir))
        setup_s = import_s + statistics.median(setup_times)
        log(f"{args.workload} seed={args.seed}: imports {import_s:.3f} s, set-up passes "
            + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        if not args.trace:
            t_wall = time.perf_counter()
            tally = measure(wl, args.seed, args.seconds)
            t_wall = time.perf_counter() - t_wall
            tallies = [warm, tally]
            metrics = {
                "items_per_s": {"value": tally.items_per_s, "unit": "1/s"},
                "unit_p50_ms": {"value": tally.unit_p50_ms, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            log(f"{tally.rounds} rounds, {tally.items} {wl.item_label} in "
                f"{tally.timed:.3f} s timed ({t_wall:.3f} s with checks); "
                f"{tail_line(tally.unit_times)}")
        else:
            base = measure(wl, args.seed, args.seconds, rounds=wl.trace_rounds)
            tracer = tracing.Tracer()
            if hasattr(wl, "branches"):
                wl.branches = dict.fromkeys(wl.branches, 0)
            tracer.install(api)
            try:
                traced = measure(wl, args.seed, args.seconds, rounds=wl.trace_rounds,
                                 tracer=tracer)
            finally:
                tracer.restore()
            tallies = [warm, base, traced]
            metrics, absent = tracing.layer_metrics(
                tracer, traced.items, traced.attempted, traced.items_of_unit,
                getattr(wl, "branches", {}))
            overhead = {
                "untraced_items_per_s": base.items_per_s,
                "traced_items_per_s": traced.items_per_s,
                "items_per_s_change_pct": 100.0 * (traced.items_per_s / base.items_per_s - 1),
                "untraced_unit_p50_ms": base.unit_p50_ms,
                "traced_unit_p50_ms": traced.unit_p50_ms,
                "unit_p50_change_pct": 100.0 * (traced.unit_p50_ms / base.unit_p50_ms - 1),
            }
            for name, m in metrics.items():
                log(f"  {name:28s} {m['value']:16.6f} {m['unit']}"
                    + ("   (absent)" if name in absent else ""))
            log(f"rounds 0-{traced.rounds - 1}: {traced.attempted} units, {traced.items} "
                f"{wl.item_label}; {len(tracer.spans)} spans; kernels.bytes_computed is "
                "computed from array sizes")
            log("tracing overhead: items_per_s {untraced_items_per_s:.6g} -> "
                "{traced_items_per_s:.6g} ({items_per_s_change_pct:+.2f} %), unit_p50_ms "
                "{untraced_unit_p50_ms:.6g} -> {traced_unit_p50_ms:.6g} "
                "({unit_p50_change_pct:+.2f} %)".format(**overhead))
            if absent:
                log("absent (wrapped function renamed or removed): " + ", ".join(absent))
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                               "metrics": metrics, "absent": absent, "overhead": overhead})
            log(f"spans written to {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fails = [f for t in tallies for f in t.fails if f[0] != "raised"]
    report_fails([f for t in tallies for f in t.fails])
    return {
        "correct": not fails,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that every correctness check rejects a wrong answer")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest

        lines = selftest.run()
        print("\n".join(lines))
        return 1 if any(ln.startswith("FAIL") for ln in lines) else 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_benchmark(args)
    except (FileNotFoundError, ImportError) as exc:
        log(f"error: {exc}")
        return 2
    except Exception:  # noqa: BLE001 - report, and exit without a result line
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
