"""Run one g2nil benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: g2nil is imported from ./src. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it, `{"info": ...}`,
names the workload and describes the run (read by `compare.py`).

With --trace 0 the metrics are the end-to-end ones (set-up time, throughput,
median operation time, peak memory). With --trace 1 rounds alternate between
untraced and traced; the metrics are the per-layer call counts and self
times of the traced rounds plus the tracing overhead against the untraced
rounds. See README.md.

Operation times are reported at a fixed reference speed of the machine:
after every operation the benchmark times a fixed pure-Python reference
step, and each round's times are scaled by REFERENCE_STEP_MS / (that
round's mean step time). The machine this benchmark was written on shares
its cores, and its speed drifts by up to 2x within minutes; the operations
and the reference step slow down together, so the scaled figures stay
steady while the raw ones (reported in the info line) do not. setup_s is
scaled by the run's median step time.
"""
import os
import time

_T0 = time.perf_counter()

# one thread for BLAS/OpenMP even when started without the pinned environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse      # noqa: E402
import gc            # noqa: E402
import json          # noqa: E402
import resource      # noqa: E402
import statistics    # noqa: E402
import sys           # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

# nominal time of one reference step; scaled times read as if every reference
# step had taken exactly this long
REFERENCE_STEP_MS = 0.5
# a fixed dense 7x7 rational matrix for the reference step
_REF_MATRIX = [[Fraction(i * j % 5 + 1, (i + 2 * j) % 4 + 1) + (3 if i == j else 0)
                for j in range(7)] for i in range(7)]


def reference(steps: int) -> float:
    """Seconds taken by `steps` Fraction eliminations of _REF_MATRIX.

    The collector is off meanwhile, so the program's heap does not change
    the step's cost; the step does not touch g2nil.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(steps):
            a = [row[:] for row in _REF_MATRIX]
            for k in range(7):
                for r in range(k + 1, 7):
                    f = a[r][k] / a[k][k]
                    a[r] = [x - f * y for x, y in zip(a[r], a[k])]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _process_age() -> float:
    """Seconds since this process started (falls back to since this file ran)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        if 0.0 < age < 3600.0:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return time.perf_counter() - _T0


def _import_g2nil(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import g2nil
    except ImportError as exc:
        sys.exit(f"bench: cannot import g2nil from {src}: {exc}")
    origin = Path(g2nil.__file__).resolve()
    if src not in origin.parents:
        sys.exit(f"bench: g2nil was imported from {origin}, not from {src}")
    return g2nil


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    bench_dir = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench_dir))
    import workloads
    if args.workload not in workloads.BUILDERS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")

    # set-up: import, catalog algebras and one untimed warm-up operation; the
    # benchmark's own input generation is left out of setup_s
    g2nil = _import_g2nil(Path.cwd())
    cat = workloads.Catalog(g2nil)
    t_gen = time.perf_counter()
    wl = workloads.BUILDERS[args.workload](args.seed, cat)
    t_gen = time.perf_counter() - t_gen
    wl.run(wl.ops[0])       # the same operation is checked in the first round
    setup_raw = _process_age() - t_gen

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        for key in tracer.missing:
            print(f"bench: trace target {key} not found; reporting 0", file=sys.stderr)

    gc.collect()
    clock = time.perf_counter
    op_ms: list[float] = []                # scaled, untraced rounds only
    raw_op_ms: list[float] = []
    rates = {False: [], True: []}          # scaled ops/s per round, keyed by "traced"
    raw_rates: list[float] = []
    ref_ms: list[float] = []               # mean reference step per round
    attempted = failed = 0
    wrong: list[str] = []
    traced_ops = 0
    self_ms: dict[str, float] = {}         # scaled self time of traced rounds
    rounds = 0
    deadline = clock() + args.seconds
    # whole rounds only; a traced run needs at least one round of each kind
    while clock() < deadline or (tracer is not None and rounds < 2):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            before = dict(tracer.self_s)
            tracer.install()
        times = []
        ref_s = reference(wl.reference_steps)     # steps before every operation and after the last
        for op in wl.ops:
            attempted += 1
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception as exc:    # a failed operation is counted, not fatal
                out = exc
            dt = clock() - t0
            ref_s += reference(wl.reference_steps)
            if isinstance(out, Exception):
                failed += 1
                print(f"bench: {op.kind} failed: {type(out).__name__}: {out}", file=sys.stderr)
                continue
            times.append(dt)
            problem = wl.check(op, out)
            if problem:
                wrong.append(f"{op.kind}: {problem}")
        step_ms = ref_s * 1000.0 / (wl.reference_steps * (len(wl.ops) + 1))
        scale = REFERENCE_STEP_MS / step_ms      # multiplies this round's times
        if traced:
            tracer.uninstall()
            traced_ops += len(wl.ops)
            for key, s in tracer.self_s.items():
                self_ms[key] = self_ms.get(key, 0.0) + (s - before[key]) * 1000.0 * scale
        busy = sum(times)
        if busy > 0:
            rates[traced].append(len(times) / (busy * scale))
            if not traced:
                raw_rates.append(len(times) / busy)
        if not traced:
            raw_op_ms += [t * 1000.0 for t in times]
            op_ms += [t * 1000.0 * scale for t in times]
            ref_ms.append(step_ms)
        rounds += 1

    for line in wrong[:10]:
        print(f"bench: wrong output: {line}", file=sys.stderr)
    if not op_ms or (tracer is not None and not rates[True]):
        sys.exit(f"bench: no {wl.name} operation completed ({failed} failed)")

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # set-up is too short to carry its own reference steps; the run's
        # median step stands for the machine's speed during it
        setup_s = setup_raw * REFERENCE_STEP_MS / statistics.median(ref_ms)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(rates[False]), "ops/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        import tracing
        metrics = {}
        for name, unit in tracing.layer_metric_names():
            key, kind = name.rsplit(".", 1)
            total = tracer.calls[key] if kind == "calls" else self_ms.get(key, 0.0)
            metrics[name] = (total / traced_ops, unit)
        overhead = (statistics.median(rates[False]) / statistics.median(rates[True]) - 1.0) * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")

    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "ops_per_round": len(wl.ops),
            "mix": wl.mix(), "inputs_s": t_gen, "wrong": len(wrong),
            "raw": {"setup_s": setup_raw,
                    "ops_per_s": statistics.median(raw_rates),
                    "op_ms_p50": statistics.median(raw_op_ms),
                    "reference_step_ms": statistics.median(ref_ms)},
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
