"""ldscreen benchmark: CLI session times and screening throughput.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/ldscreen`` of that checkout, nothing installed.  ``--workload all``
runs every workload in turn.  With ``--trace 0`` the run repeats the
workload's CLI session, one client and one child process at a time, for
about ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs the session once, then a traced in-process pass of
the same library calls, and reports the per-layer metrics.  Either way
every output is checked, the environment is printed, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
RUN_LIMIT_S = 170.0  # children still running past this are killed
SCREEN_SLICE_S = 0.05  # in-process screening after each CLI call
PROBE_CALLS = 3  # `python -c pass` / `import ldscreen` probes in a traced run


@dataclass(frozen=True)
class Workload:
    """How to run one workload; why each exists is in BENCHMARK.json."""

    cohort: Callable[[int, bool], str]  # (seed, tiny) -> ARFF text
    tree_folds: int
    rules_folds: int
    numeric: bool = False
    seeded_folds: bool = True  # False: `evaluate --seed` is fixed by design


def _workloads():
    import cohorts

    return {
        "paper_session": Workload(
            cohorts.paper_cohort,
            tree_folds=10,
            rules_folds=10,
        ),
        "cohort_4k_gappy": Workload(
            cohorts.gappy_cohort,
            tree_folds=5,
            rules_folds=2,
            seeded_folds=False,
        ),
        "numeric_1k": Workload(
            cohorts.numeric_cohort,
            tree_folds=2,
            rules_folds=2,
            numeric=True,
        ),
    }


END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_tree_s": "s",
    "evaluate_rules_s": "s",
    "rules_s": "s",
    "cluster_s": "s",
    "checklist_s": "s",
    "session_s": "s",
    "screen_per_s": "1/s",
    "peak_rss_mb": "MB",
}
_CALL_METRIC = {
    "help": "setup_s",
    "train": "train_s",
    "evaluate_tree": "evaluate_tree_s",
    "evaluate_rules": "evaluate_rules_s",
    "rules": "rules_s",
    "cluster": "cluster_s",
    "checklist": "checklist_s",
}


def _environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_before": os.getloadavg(),
    }


def _prepare(wl, seed, tiny, workdir, runner):
    """Write the workload's files; return the Inputs its sessions share."""
    import cohorts
    from ldscreen import encode_dataset, impute_missing, parse_arff
    from session import ANSWER_SETS, Inputs

    text = wl.cohort(seed, tiny)
    cohort = workdir / "cohort.arff"
    cohort.write_text(text)
    dataset = parse_arff(text)
    encoded, _ = encode_dataset(impute_missing(dataset))
    answers = [
        list(a)
        for a in cohorts.answer_batch(ANSWER_SETS, f"{seed}/answers", missing_share=0.0)
    ]
    n = 200 if tiny else 2000
    if wl.numeric:
        batch = cohorts.numeric_batch(n, f"{seed}/screen")
    else:
        batch = cohorts.answer_batch(n, f"{seed}/screen")
    checklist_model = None
    if wl.numeric:
        # The CLI cannot score numeric models, so `checklist` scores a model
        # trained on a paper-size checklist cohort made from the same seed.
        companion = workdir / "checklist_cohort.arff"
        companion.write_text(cohorts.paper_cohort(seed))
        checklist_model = workdir / "checklist_model.json"
        call = runner.cli("train", "train", "--input", str(companion), "--out", str(checklist_model))
        if call.error:
            raise RuntimeError(f"training the checklist model failed: {call.error}")
    return text, Inputs(
        cohort=cohort,
        rows=len(dataset),
        encoded=encoded,
        tree_folds=wl.tree_folds,
        rules_folds=wl.rules_folds,
        seed=seed,
        fold_seed=seed if wl.seeded_folds else cohorts.GAPPY_SEED,
        answers=answers,
        checklist_model=checklist_model,
        batch=[tuple(v) + (None,) for v in batch],
    )


def _end_to_end(sessions):
    """Each end-to-end metric's value, and its samples, over the run's sessions.

    Every call starts the same way, with the interpreter and the import of
    ``ldscreen.cli``, so the run estimates that start-up once, as the
    median scaled start-up of all its calls; a call's time is that plus
    its own scaled work.  Returns (values, samples, start-up, calls).
    """
    samples = {name: [] for name in END_TO_END}
    ok = [c for s in sessions for c in s.calls if c.error is None]
    startup = median(c.startup for c in ok) if ok else 0.0
    for c in ok:
        samples[_CALL_METRIC[c.kind]].append(startup + c.work_scaled)
    for s in sessions:
        if not (s.errors or s.partial):
            samples["session_s"].append(sum(startup + c.work_scaled for c in s.work_calls))
        if s.calls:
            samples["peak_rss_mb"].append(max(c.rss_kb for c in s.calls) / 1024)
    passes = [p for s in sessions for p in s.screen_passes]
    samples["screen_per_s"] = [n / t for n, t in passes]
    values = {name: median(v) if v else None for name, v in samples.items()}
    if passes:
        # The stream's own rate, all checklists over all pass time.  When the
        # host changes speed mid-run this moves in proportion, where a median
        # of pass rates would jump from one speed to the other.
        values["screen_per_s"] = sum(n for n, _ in passes) / sum(t for _, t in passes)
    return values, samples, startup, len(ok)


def _traced(name, runner, text, inp, session):
    """The traced pass; returns (per-layer values, {check: passed}, report lines)."""
    import spans
    from layers import layer_metrics, probes, timed_mirror

    interp = [runner.python("-c", "pass")[0] for _ in range(PROBE_CALLS)]
    imports = [runner.python("-c", "import ldscreen")[0] for _ in range(PROBE_CALLS)]
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the collector's scans
    try:
        _, untraced_s = timed_mirror(spans.NullRecorder(), text, inp)
        rec = spans.Recorder()
        m, traced_s = timed_mirror(rec, text, inp)
        p = probes(rec, m, inp)
    finally:
        gc.unfreeze()

    checks = {f"{f} equals the in-process result": inp.outputs.get(f) == t for f, t in m.outputs.items()}
    checks["pruning the unpruned tree gives the trained model"] = (
        _model_json(p["pruned"]) == inp.outputs.get("model.json")
    )
    nesting = rec.nesting_errors()
    checks["spans nest" + (f" ({nesting[0]})" if nesting else "")] = not nesting
    # The mirror makes each command once, as the session's first call of it.
    firsts = {}
    for c in session.work_calls:
        firsts.setdefault(c.kind, c)
    cli_walls = [c.own for c in firsts.values()]
    lib_times = [rec.total(f"cli.{kind}") for kind in firsts]
    checks["the session's traced library time <= its CLI wall time"] = sum(lib_times) <= sum(cli_walls)
    checks["every CLI command has its traced counterpart"] = all(
        len(rec.durations(f"cli.{kind}")) == 1 for kind in _CALL_METRIC if kind != "help"
    ) and set(firsts) == {kind for kind in _CALL_METRIC if kind != "help"}
    values = layer_metrics(
        rec,
        m,
        p,
        inp,
        interp_s=median(interp),
        import_s=median(imports),
        cli_self_s=sum(c.work - c.sampled for c in firsts.values()) - sum(lib_times),
        overhead_frac=traced_s / untraced_s - 1.0,
    )
    trace_file = WORK / f"trace-{name}-{inp.seed}.jsonl"
    rec.write(trace_file)
    lines = [
        f"{len(rec.spans)} spans written to {trace_file.relative_to(ROOT)}",
        f"session: library time {sum(lib_times):.3f} s of CLI wall {sum(cli_walls):.3f} s",
        f"in-process pass: {untraced_s:.3f} s untraced, {traced_s:.3f} s traced",
    ]
    return values, checks, lines


def measure(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (correct, attempted, failed, metrics, report)."""
    from layers import PER_LAYER
    from session import REFERENCE_S, TOUCH_REFERENCE_S, Runner, run_session

    wl = _workloads()[name]
    start = perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    report = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}"]
    try:
        runner = Runner(ROOT, workdir, start + RUN_LIMIT_S)
        runner.cli("help", "--help")  # warm-up: byte-compile the checkout once
        text, inp = _prepare(wl, seed, tiny, workdir, runner)

        # The first session always runs whole; later ones fill the window
        # and the last of them is cut short where its next call would not
        # fit.  A traced run makes one session.
        window_end = perf_counter() + seconds
        sessions = [run_session(runner, inp, SCREEN_SLICE_S)]
        while not (trace or sessions[-1].errors or sessions[-1].partial or perf_counter() >= window_end):
            sessions.append(run_session(runner, inp, SCREEN_SLICE_S, len(sessions), window_end))
        errors = [e for s in sessions for e in s.errors]
        # + each session's screening stream
        attempted = sum(len(s.calls) + bool(s.screen_passes or s.screen_error) for s in sessions)
        e2e, samples, startup, calls = _end_to_end(sessions)
        report.append(f"{len(sessions)} session(s) in {perf_counter() - start:.1f} s")
        report.append(f"start-up (scaled): {startup:.4f} s, median of {calls} calls")
        for what, ref, refs in (
            ("reference unit (work)", REFERENCE_S, [c.unit for s in sessions for c in s.calls if c.unit]),
            ("memory touch (start-up)", TOUCH_REFERENCE_S, [c.touch for s in sessions for c in s.calls]),
        ):
            if refs:
                report.append(
                    f"host speed: {what} {1e3 * median(refs):.3f} ms median per call"
                    f" ({1e3 * min(refs):.3f}..{1e3 * max(refs):.3f}), scaled to {1e3 * ref:.3f} ms"
                )
        if trace:
            values, checks, lines = _traced(name, runner, text, inp, sessions[-1])
            report += lines
            attempted += len(checks)
            errors += [f"trace check failed: {c}" for c, ok in checks.items() if not ok]
            metrics = {n: (values[n], unit) for n, unit in PER_LAYER.items()}
        else:
            metrics = {n: (v, END_TO_END[n]) for n, v in e2e.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for n, v in samples.items():
        spread = f"n={len(v)}" + (f"  {_fmt(min(v))}..{_fmt(max(v))}" if v else "")
        report.append(f"  {n:<26}{_fmt(e2e[n]):>14}  {END_TO_END[n]:<6}{spread}")
    failed = len(errors)
    report.append(f"  {'failed_frac':<26}{_fmt(failed / attempted):>14}  ratio ({failed} of {attempted} operations)")
    report += [f"  ! {e}" for e in errors]
    if trace:
        report += [f"  {n:<26}{_fmt(v):>14}  {u}" for n, (v, u) in metrics.items()]
    return not errors, attempted, failed, metrics, report


def _model_json(model):
    from dataclasses import replace

    from layers import CLI_TREE_CONFIG
    from ldscreen import model_to_json

    return model_to_json(replace(model, config=CLI_TREE_CONFIG)) + "\n"


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ldscreen" / "__init__.py").is_file():
        print(f"bench: no src/ldscreen under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ldscreen

    if Path(ldscreen.__file__).resolve().parent != ROOT / "src" / "ldscreen":
        print(f"bench: imported ldscreen from {ldscreen.__file__}, not the checkout", file=sys.stderr)
        return 2
    names = list(_workloads())
    if args.workload != "all" and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2

    env = _environment()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        correct, attempted, failed, metrics, report = measure(
            name, args.seed, args.seconds, args.trace
        )
        print("\n".join(report), flush=True)
        prefix = f"{name}/" if args.workload == "all" else ""
        total["correct"] &= correct
        total["attempted"] += attempted
        total["failed"] += failed
        for n, (v, unit) in metrics.items():
            total["metrics"][prefix + n] = {"value": v, "unit": unit}
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
