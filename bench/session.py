"""The closed-loop CLI session: one client, one child process at a time.

Every call runs the real command line in a fresh interpreter, exactly as
the ``ldscreen`` console script does, so interpreter start-up and imports
count the way users pay them.  Each call is timed from outside, its peak
RSS taken from the child's own ``VmHWM``, and its output checked before
the next call starts.  A call fails on a non-zero exit or on a failed check.

The host this runs on is shared, and its speed swings by tens of percent
from one second to the next, in two ways that move independently: how
fast pure-Python code runs, and how long a fresh page of memory takes to
fault in.  Each call's time is split where the child finishes importing
``ldscreen.cli``, and each part is scaled by a reference for the way it
is slowed.  Start-up (interpreter, imports, exit), which faults in some
100 MB, is scaled by ``touch_time`` measured right before and after the
call, to a host on which it takes ``TOUCH_REFERENCE_S``.  The command's
work is scaled by ``child.reference_unit``, timed inside the child while
it works, to a host on which it takes ``REFERENCE_S``.  A change to
ldscreen touches neither reference, so it moves the scaled times by the
same share as the raw ones.  How a run combines the parts is in
``run._end_to_end``.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from time import perf_counter

import numpy as np

from child import timed_unit
from ldscreen import (
    classify,
    cluster_model_from_json,
    extract_rules,
    model_from_json,
    report_from_json,
)

#: Runs the ``ldscreen`` command line as its console script does, plus the sampler.
CHILD = Path(__file__).resolve().parent / "child.py"

#: Seeded answer sets for `checklist`; the sessions of a run score them in turn.
ANSWER_SETS = 8

#: Time of one ``child.reference_unit`` on the host the scaled times are
#: quoted for; on a 2-core Xeon VM it takes 0.8 ms when no other tenant
#: slows the core and about 1.4 ms when one does.
REFERENCE_S = 0.001
#: Reference units timed after each screening pass to scale it.
SCREEN_UNITS = 5

#: Fresh memory that ``touch_time`` faults in, one byte per page.
TOUCH_BYTES = 64 << 20
#: Time of one ``touch_time`` on the host the scaled start-up times are
#: quoted for; on a 2-core Xeon VM it ranges from about 45 to 70 ms.
TOUCH_REFERENCE_S = 0.05


def touch_time():
    """Seconds to map TOUCH_BYTES of fresh memory and write to each page."""
    start = perf_counter()
    m = mmap.mmap(-1, TOUCH_BYTES)
    try:
        for offset in range(0, TOUCH_BYTES, mmap.PAGESIZE):
            m[offset] = 1
    finally:
        m.close()
    return perf_counter() - start


@dataclass
class Call:
    kind: str
    wall: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str
    error: str | None = None
    work: float = 0.0  # wall time from the end of `import ldscreen.cli` to main's return
    sampled: float = 0.0  # the speed sampler's share of ``work``
    unit: float | None = None  # mean time of one reference unit; None: no sample
    touch: float = TOUCH_REFERENCE_S  # mean touch_time right before and after the call

    @property
    def own(self):
        """Wall time of the call less the sampler's share."""
        return self.wall - self.sampled

    @property
    def startup(self):
        """Interpreter, imports and exit, scaled to a host on which
        ``touch_time`` takes TOUCH_REFERENCE_S."""
        return (self.wall - self.work) * TOUCH_REFERENCE_S / self.touch

    @property
    def work_scaled(self):
        """The command's own work time, scaled to a host on which a
        reference unit takes REFERENCE_S."""
        work = self.work - self.sampled
        return work * REFERENCE_S / self.unit if self.unit else work


class Runner:
    """Runs one child at a time with the checkout's ``src`` on the path."""

    def __init__(self, root, workdir, deadline):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = deadline  # perf_counter() value; children are killed past it
        self._out = workdir / "child.out"
        self._err = workdir / "child.err"
        self._samples = workdir / "child.samples"
        self.last_wall = {}  # kind -> wall time of the latest call of that kind
        self.last_touch = None  # touch_time after the latest call

    def python(self, *args):
        """Wall time, peak RSS and output of ``python3 <args>``."""
        argv = [sys.executable, *args]
        with open(self._out, "w+b") as out, open(self._err, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return wall, usage.ru_maxrss, proc.returncode, out.read().decode(), err.read().decode()

    def cli(self, kind, *args):
        self._samples.unlink(missing_ok=True)
        before = self.last_touch or touch_time()
        call = Call(kind, *self.python(str(CHILD), str(self._samples), *args))
        self.last_touch = touch_time()
        call.touch = (before + self.last_touch) / 2
        self.last_wall[kind] = call.wall
        if call.code != 0:
            call.error = f"exit {call.code}: {call.stderr.strip()[-300:]}"
            return call
        try:
            head, samples = self._samples.read_text().split("\n", 1)
            work, peak_kb = head.split()
            call.work = float(work)
            call.rss_kb = int(peak_kb) or call.rss_kb
            samples = [float(t) for t in samples.split()]
        except (OSError, ValueError) as e:
            call.error = f"speed samples unreadable: {e}"
            return call
        if samples:
            call.sampled, call.unit = sum(samples), mean(samples)
        return call


@dataclass
class Inputs:
    """Files and in-process facts one run's sessions share."""

    cohort: Path
    rows: int
    encoded: np.ndarray  # imputed, encoded cohort for the WCSS check
    tree_folds: int
    rules_folds: int
    seed: int  # `cluster --seed`
    fold_seed: int  # `evaluate --seed`
    answers: list  # ANSWER_SETS complete answer lists for `checklist`
    checklist_model: Path | None  # None: score the session's own model
    batch: list  # screening vectors, about 30 % with blanks
    outputs: dict = field(default_factory=dict)  # first text of each output file

    def out(self, name):
        return self.cohort.parent / name


@dataclass
class SessionResult:
    calls: list = field(default_factory=list)
    screen_passes: list = field(default_factory=list)  # (vectors, scaled seconds) per pass
    screen_error: str | None = None
    partial: bool = False  # cut short at the end of the run's window

    @property
    def work_calls(self):
        return [c for c in self.calls if c.kind != "help"]

    @property
    def errors(self):
        errs = [f"{c.kind}: {c.error}" for c in self.calls if c.error]
        if self.screen_error:
            errs.append(f"screen: {self.screen_error}")
        return errs


#: One session, in order.  The calls that are mostly interpreter start-up
#: come several times, between the long ones, so that a run gets several
#: samples of each.
SESSION = (
    "help", "train", "checklist", "evaluate_tree", "cluster", "checklist",
    "evaluate_rules", "help", "rules", "cluster", "checklist",
)


def _steps(inp, index):
    """(kind, arguments, checklist answers or None) of session ``index``."""
    cohort = str(inp.cohort)
    model = str(inp.out("model.json"))
    args = {
        "help": ["--help"],
        "train": ["train", "--input", cohort, "--out", model],
        "evaluate_tree": ["evaluate", "--input", cohort, "--learner", "tree",
                          "--folds", str(inp.tree_folds), "--seed", str(inp.fold_seed),
                          "--out", str(inp.out("report_tree.json"))],
        "evaluate_rules": ["evaluate", "--input", cohort, "--learner", "rules",
                           "--folds", str(inp.rules_folds), "--seed", str(inp.fold_seed),
                           "--out", str(inp.out("report_rules.json"))],
        "rules": ["rules", "--input", cohort, "--simplify",
                  "--out", str(inp.out("rules.json"))],
        "cluster": ["cluster", "--input", cohort, "--clusters", "2",
                    "--seed", str(inp.seed), "--out", str(inp.out("cluster.json")),
                    "--profile-csv", str(inp.out("profile.csv"))],
    }
    scored = str(inp.checklist_model or model)
    n = SESSION.count("checklist")
    sets = (inp.answers[(n * index + j) % len(inp.answers)] for j in range(n))
    for kind in SESSION:
        if kind == "checklist":
            answers = next(sets)
            yield kind, ["checklist", "--model", scored, "--answers", ",".join(answers)], answers
        else:
            yield kind, args[kind], None


def run_session(runner, inp, screen_slice, index=0, window_end=None):
    """Run session number ``index``; return its timings and errors.

    Once ``train`` has written a model, the in-process screening stream
    gets a slice of about ``screen_slice`` seconds after every call, so its
    samples spread over the whole session.  With ``window_end`` (a
    ``perf_counter()`` value) the session skips each call that, at the
    length of the run's last call of its kind, would end past it; shorter
    calls after it still run.
    """
    res = SessionResult()
    model = None
    for kind, args, answers in _steps(inp, index):
        if perf_counter() > runner.deadline:
            res.calls.append(Call(kind, 0.0, 0, -1, "", "", "run deadline passed"))
            break
        if window_end is not None and perf_counter() + runner.last_wall.get(kind, 0.0) > window_end:
            res.partial = True
            continue
        call = runner.cli(kind, *args)
        res.calls.append(call)
        if call.error is None:
            try:
                call.error = CHECKS[kind](call, inp, answers)
            except (ValueError, KeyError, TypeError, OSError) as e:
                call.error = f"output check raised {type(e).__name__}: {e}"
        if kind == "train" and call.error is None:
            model = model_from_json(inp.outputs["model.json"])
            res.screen_error = check_screening(model, inp.batch)
            if res.screen_error:
                model = None
        if model is not None:
            res.screen_passes += screen(model, inp.batch, screen_slice)
    if not res.screen_passes and res.screen_error is None and not res.partial:
        res.screen_error = "no trained model to screen with"
    return res


def check_screening(model, batch):
    """Every distribution sums to 1 and its label is the first maximum."""
    for vec in batch:
        label, dist = classify(model, vec)
        probs = [dist[v] for v in model.class_values]
        if abs(sum(probs) - 1.0) > 1e-9:
            return f"distribution sums to {sum(probs)!r}"
        if label != model.class_values[probs.index(max(probs))]:
            return f"label {label} is not the first maximum of {probs}"
    return None


def screen(model, batch, seconds):
    """(vectors, scaled seconds) of each pass over ``batch``, for about ``seconds``.

    Each pass is scaled by the mean time of the SCREEN_UNITS reference
    units timed right after it.
    """
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        t0 = perf_counter()
        for vec in batch:
            classify(model, vec)
        took = perf_counter() - t0
        unit = mean(timed_unit() for _ in range(SCREEN_UNITS))
        passes.append((len(batch), took * REFERENCE_S / unit))
    return passes


# ---------------------------------------------------------------------------
# Output checks: each returns an error string or None
# ---------------------------------------------------------------------------


def _keep(inp, name):
    """Read an output file; later sessions must reproduce it byte for byte."""
    text = inp.out(name).read_text()
    first = inp.outputs.setdefault(name, text)
    return text, (None if text == first else f"{name} differs between calls")


def _check_help(call, inp, answers):
    return None if call.stdout.startswith("usage: ldscreen") else "no usage text"


def _check_train(call, inp, answers):
    text, err = _keep(inp, "model.json")
    if err:
        return err
    model = model_from_json(text)
    nodes = re.search(r"^Nodes: (\d+)$", call.stdout, re.M)
    leaves = re.search(r"^Leaves: (\d+)$", call.stdout, re.M)
    if not nodes or not leaves:
        return "summary lines missing"
    if (int(nodes[1]), int(leaves[1])) != (model.node_count(), model.leaf_count()):
        return "printed node/leaf counts disagree with the model file"
    if len(extract_rules(model).rules) != model.leaf_count():
        return "rule count before simplification differs from the leaf count"
    return None


def _check_evaluate(name):
    def check(call, inp, answers):
        text, err = _keep(inp, name)
        if err:
            return err
        report = report_from_json(text)
        total = sum(sum(row) for row in report.matrix.counts)
        if total != inp.rows:
            return f"confusion total {total} != {inp.rows} rows"
        correct = sum(report.matrix.counts[i][i] for i in range(len(report.matrix.counts)))
        if f"Correctly Classified Instances {correct} Nos." not in call.stdout:
            return "printed headline disagrees with the report file"
        return None

    return check


def _check_rules(call, inp, answers):
    text, err = _keep(inp, "rules.json")
    if err:
        return err
    doc = json.loads(text)
    if doc.get("format") != "ldscreen-rules":
        return "not a rule-set document"
    printed = [ln for ln in call.stdout.splitlines() if ln.startswith("IF ")]
    if len(printed) != len(doc["rules"]):
        return "printed rule count disagrees with the rule file"
    if not call.stdout.rstrip().endswith(f"={doc['default_class']}"):
        return "printed default class disagrees with the rule file"
    return None


def _check_cluster(call, inp, answers):
    text, err = _keep(inp, "cluster.json")
    if err:
        return err
    _, err = _keep(inp, "profile.csv")
    if err:
        return err
    model = cluster_model_from_json(text)
    if len(model.assignments) != inp.rows:
        return "assignment count differs from the row count"
    centroids = np.asarray(model.centroids, dtype=float)
    wcss = float(((inp.encoded - centroids[np.asarray(model.assignments)]) ** 2).sum())
    if abs(wcss - model.wcss) > 1e-9 * max(1.0, abs(wcss)):
        return f"recomputed WCSS {wcss!r} != reported {model.wcss!r}"
    if f"Within cluster sum of squared errors: {model.wcss:.3f}" not in call.stdout:
        return "printed WCSS disagrees with the cluster file"
    return None


def _check_checklist(call, inp, answers):
    path = inp.checklist_model or inp.out("model.json")
    model = model_from_json(path.read_text())
    values = tuple(answers) + (None,)
    label, dist = classify(model, values)
    class_name = model.schema[model.class_index].name
    lines = call.stdout.splitlines()
    if not lines or lines[0] != f"Prediction: {class_name}={label}":
        return "prediction differs from in-process classify"
    expected = ", ".join(f"{v}={dist[v]:.3f}" for v in model.class_values)
    if len(lines) < 3 or lines[1] != f"Distribution: {expected}":
        return "distribution differs from in-process classify"
    shown = [float(t.split("=")[1]) for t in expected.split(", ")]
    if abs(sum(shown) - 1.0) > 0.0005 * len(shown):
        return "printed distribution does not sum to 1"
    if not lines[2].startswith("Matched rule: "):
        return "matched-rule line missing"
    return None


CHECKS = {
    "help": _check_help,
    "train": _check_train,
    "evaluate_tree": _check_evaluate("report_tree.json"),
    "evaluate_rules": _check_evaluate("report_rules.json"),
    "rules": _check_rules,
    "cluster": _check_cluster,
    "checklist": _check_checklist,
}
