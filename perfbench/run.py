"""sgfem benchmark: convergence-study and verification time, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload study --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one CLI invocation after another in this process):

* ``study``  smooth example at iota = 1e-6, four levels from structured:2,
  one ``sgfem convergence`` per family.
* ``sweep``  layer example at the CLI's default iotas {1, 1e-2, 1e-4, 1e-6},
  three levels from structured:2, one ``sgfem convergence`` per family.
* ``verify`` ``sgfem verify all`` with a seed drawn from ``--seed``, plus one
  ``sgfem solve`` on structured:8, with fixed probes, per family.

See README.md in this directory for why each workload and metric exists.

Every invocation goes through ``sgfem.cli.main(argv)`` with stdout captured
and checked (exit code, FAIL lines, rates, a reference table of
``rel_energy_err``).  Rounds repeat while the next operation is expected
to end within ``--seconds`` (a traced run stops at the end of a round).
The fixed kernel of ``calibrate.py`` is timed between operations; each
operation's time is divided by the mean of the kernel's times right before
and right after it and multiplied by the kernel's reference time, which
takes out the shared host's drift in CPU speed (see ``calibrate.py``).
Each reported time is the mean of these over the run's operations (on
runs of a few operations the mean varied less between runs than the median).
``--trace 1`` runs each operation twice, untraced then traced with the
wrappers of ``tracing.py``, requires
identical output from both, and reports the per-layer metrics in raw
seconds.  The last
line of stdout is the JSON result; spans and a full record of the run are
written under ``perfbench/out/``.  ``--workload all`` runs the three
workloads, one process each, and prints every metric.
"""

import os

# Pin BLAS before numpy is imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("study", "sweep", "verify")
FAMILIES = ("ntw", "specht", "morley")
SETUP_PROBES = 5
CALIBRATION_WARMUP = 3

# rel_energy_err must match reference.json within this relative tolerance.
# The LU solves stop at relative residuals <= 3.8e-11 on these workloads;
# switching the SuperLU column ordering (COLAMD -> MMD_AT_PLUS_A) moves
# rel_energy_err by at most 7.2e-12 for ntw and specht, i.e. at the level of
# the residual.  1e-9 leaves a factor 25 over the residual.  The morley
# matrix controls the quadratic part of the shape functions only through
# the iota^2 Hessian term, so its conditioning grows like 1/iota^2 and the
# same reordering moves its errors by about 2e-16/iota^2 (3.5e-8 at
# iota = 1e-4, 1.7e-4 at iota = 1e-6); 1e-14/iota^2 leaves a factor 25.
REL_TOL = 1e-9


def rel_tolerance(element, iota):
    if element == "morley":
        return max(REL_TOL, 1e-14 / iota**2)
    return REL_TOL


# sgfem solve prints probe values with 9 significant digits.
PROBE_TOL = 1e-7
PROBES = "0.5,0.5;0.1,0.2;0.33,0.77;0.9,0.05;0.62,0.41;0.27,0.58;0.71,0.88;0.05,0.95"
# Criterion 2's final-rate floors.  Morley's 1.6 floor holds for the full
# structured:8 four-level study; at the benchmark's size (512 triangles at
# the last level) its final rate is 0.66, still pre-asymptotic, so morley
# is gated by the reference table only.
RATE_FLOORS = {"ntw": 1.8, "specht": 1.8}
VERIFY_CHECKS = 31  # PASS lines of `sgfem verify all`

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ntw_s": "s",
    "specht_s": "s",
    "morley_s": "s",
    "peak_rss_mb": "MB",
}


def convergence_argv(element, example, levels, mesh, iota=None):
    argv = ["convergence", "--element", element, "--example", example]
    if iota is not None:
        argv += ["--iota", iota]
    return argv + ["--levels", str(levels), "--mesh", mesh]


def solve_argv(element, mesh):
    return [
        "solve", "--element", element, "--example", "layer", "--iota", "1e-2",
        "--mesh", mesh, "--probe", PROBES,
    ]


def family_ops(workload, tiny):
    """{op key: argv} of the per-family operations of a workload."""
    if workload == "study":
        levels = 2 if tiny else 4
        return {k: convergence_argv(k, "smooth", levels, "structured:2", "1e-6") for k in FAMILIES}
    if workload == "sweep":
        levels = 2 if tiny else 3
        return {k: convergence_argv(k, "layer", levels, "structured:2") for k in FAMILIES}
    return {k: solve_argv(k, "structured:2" if tiny else "structured:8") for k in FAMILIES}


def make_round(workload, rng, tiny):
    """Operations of one round as (key, argv); order and verify seed from rng."""
    ops = list(family_ops(workload, tiny).items())
    if workload == "verify":
        ops.append(("suites", ["verify", "all", "--seed", str(rng.randrange(10**6))]))
    rng.shuffle(ops)
    return ops


# -- output checks ------------------------------------------------------------


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def parse_csv(text):
    import sgfem.cli

    lines = text.splitlines()
    if not lines or lines[0] != sgfem.cli.CSV_HEADER:
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {
                "iota": float(cells[2]),
                "level": int(cells[3]),
                "dofs": int(cells[5]),
                "rel_energy_err": float(cells[7]),
                "rate": float(cells[8]) if cells[8] else None,
            }
        )
    return rows


def parse_solve(text):
    probes, energy = [], None
    for line in text.splitlines():
        if line.startswith("u_h("):
            inside = line.split("= (", 1)[1].split(")", 1)[0]
            probes.append([float(v) for v in inside.split(",")])
        elif line.startswith("energy_err="):
            energy = float(line.split("rel_energy_err=", 1)[1].split()[0])
    if energy is None:
        raise ValueError("missing energy error line")
    return {"rel_energy_err": energy, "probes": probes}


def check_output(argv, rc, out, reference, floors):
    """List of problems with one operation's output; empty when it is correct.

    ``floors`` maps a family to the least final convergence rate accepted.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if argv[0] == "verify":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        passes = sum(line.startswith("PASS") for line in out.splitlines())
        problems += fails
        if passes != VERIFY_CHECKS:
            problems.append(f"{passes} PASS lines, expected {VERIFY_CHECKS}")
        return problems
    ref = reference.get(" ".join(argv))
    if ref is None:
        return ["no reference entry"]
    element = _argv_value(argv, "--element")
    if argv[0] == "solve":
        got = parse_solve(out)
        iota = float(_argv_value(argv, "--iota"))
        if not _close(got["rel_energy_err"], ref["rel_energy_err"], rel_tolerance(element, iota)):
            problems.append(
                f"rel_energy_err {got['rel_energy_err']!r} vs {ref['rel_energy_err']!r}"
            )
        scale = max(abs(v) for p in ref["probes"] for v in p)
        if len(got["probes"]) != len(ref["probes"]):
            problems.append(f"{len(got['probes'])} probe lines, expected {len(ref['probes'])}")
        for p, q in zip(got["probes"], ref["probes"]):
            if max(abs(a - b) for a, b in zip(p, q)) > PROBE_TOL * scale:
                problems.append(f"probe {p} vs {q}")
        return problems
    rows = parse_csv(out)
    if [(r["iota"], r["level"], r["dofs"]) for r in rows] != [tuple(r[:3]) for r in ref]:
        return ["rows differ from the reference (iota, level, dofs)"]
    for row, (iota, level, _, err) in zip(rows, ref):
        if not _close(row["rel_energy_err"], err, rel_tolerance(element, iota)):
            problems.append(
                f"iota={iota} level={level}: rel_energy_err {row['rel_energy_err']!r} vs {err!r}"
            )
    floor = floors.get(element)
    if floor is not None and not rows[-1]["rate"] >= floor:
        problems.append(f"final rate {rows[-1]['rate']} below {floor}")
    return problems


# -- measurement ------------------------------------------------------------


def run_op(argv, tracer=None, op_id=None):
    """Invoke the CLI once; returns (exit code, ns, stdout, stderr)."""
    import sgfem.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = sgfem.cli.main(list(argv))
            else:
                rc = tracer.call(op_id, sgfem.cli.main, list(argv))
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter_ns() - t0, out.getvalue(), err.getvalue()


def environment():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def runner_argv(workload, seed, tiny, *extra):
    """Command line that runs this script again in a child process."""
    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), *extra]
    return argv + ["--tiny"] if tiny else argv


def speed_factor(before, after):
    """Reference over measured kernel time, from the kernel timed around a span."""
    import calibrate

    return calibrate.REFERENCE_S / ((before + after) / 2)


def measure_setup(workload, seed, tiny):
    """Seconds from spawning a fresh interpreter to the point where the first
    operation could start (imports plus input construction): (raw median,
    median of the calibrated probes)."""
    import calibrate

    raw, calibrated = [], []
    before = calibrate.measure()
    for _ in range(SETUP_PROBES):
        argv = runner_argv(workload, seed, tiny, "--setup-only")
        start = time.monotonic()
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed: {child.stderr.strip()}")
        seconds = float(child.stdout.split()[-1]) - start
        after = calibrate.measure()
        raw.append(seconds)
        calibrated.append(seconds * speed_factor(before, after))
        before = after
    return statistics.median(raw), statistics.median(calibrated)


def import_program():
    """Import sgfem from this checkout's src/ and nowhere else."""
    if not (SRC / "sgfem" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'sgfem'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sgfem
    import sgfem.cli  # noqa: F401  (part of set-up: every operation enters here)

    if Path(sgfem.__file__).resolve().parent != (SRC / "sgfem").resolve():
        raise SystemExit(f"error: imported sgfem from {sgfem.__file__}, not {SRC}")
    return sgfem


def load_reference():
    return json.loads(REFERENCE.read_text())


def run_workload(args):
    import_program()
    import calibrate

    env = environment()
    reference = load_reference()
    floors = RATE_FLOORS if args.workload == "study" and not args.tiny else {}
    rng = random.Random(args.seed)
    trace = args.trace == 1
    if trace:
        from tracing import PER_LAYER, Tracer
    else:
        setup_raw_s, setup_s = measure_setup(args.workload, args.seed, args.tiny)

    for _ in range(CALIBRATION_WARMUP):
        calibrate.measure()
    plain = {}  # op key -> [ns]
    calibrated = {}  # op key -> [s at the reference speed]
    calibration_s = []
    traced = {}
    layer_rounds = []
    attempted = failed = 0
    problems = []
    iteration_s = []
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{tag}.csv"
    if trace:
        spans_path.write_text("name,start_ns,end_ns,parent,op\n")
    start = time.perf_counter()
    before = calibrate.measure()
    calibration_s.append(before)
    op_id = 0
    stop = False
    while not stop:
        t_round = time.perf_counter()
        tracer = Tracer() if trace else None
        round_plain = round_traced = 0
        for key, argv in make_round(args.workload, rng, args.tiny):
            # Untraced runs stop at the first operation, after the first round,
            # that is expected to end past --seconds; traced runs at a round's end.
            if not trace and iteration_s and (
                time.perf_counter() - start + statistics.fmean(plain[key]) * 1e-9 > args.seconds
            ):
                stop = True
                break
            rc, ns, out, err = run_op(argv)
            after = calibrate.measure()
            calibration_s.append(after)
            calibrated.setdefault(key, []).append(ns * 1e-9 * speed_factor(before, after))
            before = after
            attempted += 1
            try:
                bad = check_output(argv, rc, out, reference, floors)
            except (ValueError, IndexError) as exc:
                bad = [f"unparsable output: {exc}"]
            if err and rc != 0:
                bad.append(err.strip().splitlines()[-1])
            plain.setdefault(key, []).append(ns)
            round_plain += ns
            if trace:
                # The same operation again, straight after, with every wrapper on.
                with tracer.patched():
                    rc_t, ns_t, out_t, _ = run_op(argv, tracer, op_id)
                op_id += 1
                attempted += 1
                if rc_t != rc or out_t != out:
                    failed += 1
                    problems.append(
                        {"op": " ".join(argv), "problems": ["traced output differs from untraced"]}
                    )
                traced.setdefault(key, []).append(ns_t)
                round_traced += ns_t
                before = calibrate.measure()  # the next operation follows this one
            if bad:
                failed += 1
                problems.append({"op": " ".join(argv), "problems": bad})
        if stop:
            break
        if trace:
            layer_rounds.append(tracer.layer_metrics(round_traced, round_plain))
            tracer.write_spans(spans_path)
        iteration_s.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if trace and elapsed + statistics.median(iteration_s) > args.seconds:
            break

    if trace:
        metrics = {
            name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        per_op = {key: statistics.fmean(v) for key, v in calibrated.items()}
        values = {
            "setup_s": setup_s,
            "wall_s": sum(per_op.values()),
            **{f"{k}_s": per_op[k] for k in FAMILIES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": env,
        "rounds": len(iteration_s),
        "op_seconds": {k: [ns * 1e-9 for ns in v] for k, v in plain.items()},
        "calibrated_op_seconds": calibrated,
        "calibration_seconds": calibration_s,
        "calibration_reference_s": calibrate.REFERENCE_S,
        **({} if trace else {"setup_raw_s": setup_raw_s}),
        "traced_op_seconds": {k: [ns * 1e-9 for ns in v] for k, v in traced.items()},
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    print(f"rounds {len(iteration_s)}  operations {attempted}  failed {failed}  "
          f"fail_share {failed / attempted:.4g}")
    for p in problems:
        print(f"FAILED {p['op']}: {'; '.join(p['problems'])}")
    print(f"calibration kernel median {statistics.median(calibration_s):.4g} s "
          f"(reference {calibrate.REFERENCE_S} s)")
    if not trace:
        raw = {key: statistics.median(v) * 1e-9 for key, v in plain.items()}
        print(f"raw (uncalibrated) medians: setup_s {setup_raw_s:.4g} s, wall_s "
              f"{sum(raw.values()):.4g} s, " + ", ".join(f"{k} {raw[k]:.4g} s" for k in raw))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run_all(args):
    """Run every workload in its own process and print all metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        extra = ("--seconds", str(args.seconds), "--trace", str(args.trace))
        argv = runner_argv(workload, args.seed, args.tiny, *extra)
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"error: workload {workload} exited with {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"== {workload}: fail_share {result['failed'] / result['attempted']:.4g}")
        for name, m in result["metrics"].items():
            print(f"{workload}.{name} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="structured:2 meshes and two levels, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        import_program()
        load_reference()
        make_round(args.workload, random.Random(args.seed), args.tiny)
        print(time.monotonic())
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
