#!/usr/bin/env python3
"""Benchmark: run one seeded workload of `hypercount` CLI commands.

    python3 bench/run.py --workload truncation --seed 0 --seconds 22 --trace 0

One client in a closed loop calls `hypercount.cli.main(argv)` in this
process, with its output captured, and starts the next command when the
previous one returns.  The command list is repeated in passes until
`--seconds` would be exceeded.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones:

    setup_s      the median of nine imports of hypercount.cli, each in a
                 fresh interpreter, plus the median of three builds of the
                 corpus (generated and written to a directory under
                 bench/out) each followed by one warm-up command
    wall_s       time of one pass over the command list
    cmd_p50_s    median over the commands of their latencies
    cmd_tail_s   the highest percentile of those latencies with at least
                 ten commands beyond it
    peak_rss_mb  maximum resident set size after the loop

Before each command and each corpus build the package's module-level
caches are emptied (`reset_caches()`), so that every command starts as it
would in a fresh CLI process.

The CPU this runs on may be shared: its speed was seen to drop by a third
or more, for seconds and for minutes at a time.  So right before each
command a fixed probe (`probe()`, about a millisecond of memoised
backtracking, the kind of work the package does) is timed, and the
command's time is taken in units of the median of the PROBE_WINDOW probes
centred on its own.  A command's latency is the median of these ratios
over the passes, reported in seconds at the CPU speed where the probe takes
PROBE_REFERENCE_S.  The anchors are measured the same way; each set-up
command is timed against the one probe right before it, and each import
against the probes right before and after it.

With `--trace 1` untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes (see tracing.py) and
`trace.overhead`, the traced over the untraced pass time (each the sum of
the command latencies), minus one.  The spans and the per-layer metrics are also
written to bench/out.

`--record-reference` stores the digest of every command's exact output
for this seed in bench/reference/<workload>.json.  The program is imported
from src/ next to this directory; the benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

import checks  # noqa: E402  (bench/ is the script directory)
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 9
MIN_PASSES = 3
PROBE_WINDOW = 7
TAIL_BEYOND = 10
# held-out seed: its reference is recorded but it was not used for tuning
VALIDATION_SEED = 1000

# The probe: count the independent sets of a fixed 3-uniform set system on
# 16 points (20 edges) by memoised backtracking over bitmasks, the kind of
# work the package's exact counter does, in about a millisecond.  It uses
# only the standard library, so no change to the package moves it.
PROBE_POINTS = 16
PROBE_EDGES = (0x43, 0x62, 0x112, 0x182, 0x205, 0x222, 0x228, 0x444, 0x4c0, 0x1009,
               0x2042, 0x2102, 0x2300, 0x3020, 0x4102, 0x4202, 0x8050, 0x8408,
               0xa001, 0xa002)
# typical time of one probe on the 2-vCPU x86-64 VM (Python 3.11) the
# benchmark was written on; timings are reported at that CPU speed
PROBE_REFERENCE_S = 0.0012


def _probe_count(vmask, edges, memo):
    hit = memo.get((vmask, edges))
    if hit is not None:
        return hit
    if not edges:
        return 1 << vmask.bit_count()
    bit = edges[0] & -edges[0]
    without = tuple(e for e in edges if not e & bit)
    reduced = tuple(sorted({e & ~bit if e & bit else e for e in edges}))
    val = _probe_count(vmask & ~bit, without, memo)
    if 0 not in reduced:
        val += _probe_count(vmask & ~bit, reduced, memo)
    memo[(vmask, edges)] = val
    return val


def probe() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    _probe_count((1 << PROBE_POINTS) - 1, PROBE_EDGES, {})
    return time.perf_counter() - start


# run in a fresh interpreter: prints the seconds `import hypercount.cli` takes
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import hypercount.cli; "
                "print(time.perf_counter() - start)")


def import_cli():
    """Import hypercount.cli from this checkout's src/; returns the module
    and the median time, in probes, of IMPORT_REPEATS imports of it, each in
    a fresh interpreter that is waited for and timed against the probes run
    right before and right after it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hypercount", "cli.py")):
        raise SystemExit(f"error: no hypercount package under {src}")
    sys.path.insert(0, src)
    cli = importlib.import_module("hypercount.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: hypercount was imported from {cli.__file__}, not {src}")
    times = []
    for _ in range(IMPORT_REPEATS):
        before = [probe() for _ in range(5)]
        child = subprocess.run([sys.executable, "-c", IMPORT_CHILD, src], cwd=ROOT,
                               capture_output=True, text=True, check=True)
        unit = statistics.median(before + [probe() for _ in range(5)])
        times.append(float(child.stdout) / unit)
    return cli, statistics.median(times)


def reset_caches():
    """Empty the package's module-level caches (dicts named `*_cache`), as
    a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("hypercount.") or module is None:
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_cache") and isinstance(value, dict):
                value.clear()


def run_cli(main, argv):
    """Call the CLI entry point; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def build_corpus(cli, wl, tmp_root):
    """Generate the corpus into a fresh directory and run the warm-up
    command; returns the directory and the time it took, in probes, each
    command timed against a probe run right before it."""
    corpus = tempfile.mkdtemp(prefix="corpus-", dir=tmp_root)
    reset_caches()
    argvs = [list(inst.generate_args()) + ["--out", os.path.join(corpus, inst.name)]
             for inst in wl.instances]
    total = 0.0
    for argv in argvs + [wl.warmup.argv(corpus)]:
        unit = probe()
        start = time.perf_counter()
        code, _, err = run_cli(cli.main, argv)
        total += (time.perf_counter() - start) / unit
        if code != 0:
            raise SystemExit(f"error: set-up command failed: {' '.join(argv)}: {err}")
    return corpus, total


class Loop:
    """Closed-loop passes over the command list, with output checks."""

    def __init__(self, cli, commands, corpus):
        self.cli = cli
        self.commands = commands
        self.corpus = corpus
        self.first = [None] * len(commands)  # first-pass stdout per command
        self.failed = [0] * len(commands)
        self.errors = []
        self.attempted = 0
        self.probes = []  # every probe's seconds, in the order they ran
        # (traced, seconds, [(command seconds, index of its probe)],
        #  (span lo, span hi))
        self.passes = []

    def run_pass(self, tracer=None):
        main = self.cli.main
        lo = 0
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
            tracer.install()
            lo = len(tracer.start)
        timings = []
        pass_start = time.perf_counter()
        try:
            for i, cmd in enumerate(self.commands):
                # start each command with empty caches and no garbage left
                # by the last, and keep what survives out of later
                # collections, as a fresh process's small heap would be
                reset_caches()
                gc.collect()
                gc.freeze()
                self.probes.append(probe())
                if tracer is not None:
                    tracer.command_id = i
                argv = cmd.argv(self.corpus)
                start = time.perf_counter()
                code, out, err = run_cli(main, argv)
                timings.append((time.perf_counter() - start, len(self.probes) - 1))
                self.attempted += 1
                self._check(i, cmd, code, out, err)
        finally:
            if tracer is not None:
                tracer.uninstall()
        span_range = (lo, len(tracer.start)) if tracer is not None else None
        self.passes.append((tracer is not None, time.perf_counter() - pass_start,
                            timings, span_range))

    def _check(self, i, cmd, code, out, err):
        if code != 0:
            self.failed[i] += 1
            self.errors.append(f"{cmd.id}: exit {code}: {err.strip()[-400:]}")
        elif self.first[i] is None:
            self.first[i] = out
        elif checks.exact_lines(out) != checks.exact_lines(self.first[i]):
            self.failed[i] += 1
            self.errors.append(f"{cmd.id}: exact output changed between passes")

    def run(self, seconds, tracer=None):
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(self.passes) % 2 == 1
            self.run_pass(tracer if traced else None)
            elapsed = time.perf_counter() - start
            if len(self.passes) >= MIN_PASSES and elapsed + self.passes[-1][1] > seconds:
                return

    def latencies(self, traced=False):
        """Each command's median latency over the passes of one kind, in
        seconds at the reference CPU speed.  A command's time is divided by
        the median of the PROBE_WINDOW probes centred on its own, which
        follows the CPU's speed over a fraction of a second without one
        probe's jitter."""
        half = PROBE_WINDOW // 2

        def ratio(seconds, j):
            return seconds / statistics.median(self.probes[max(0, j - half):j + half + 1])

        per_cmd = zip(*[[ratio(*tm) for tm in timings]
                        for t, _, timings, _ in self.passes if t == traced])
        return [statistics.median(values) * PROBE_REFERENCE_S for values in per_cmd]

    def count(self, traced=False):
        return sum(1 for t, _, _, _ in self.passes if t == traced)


def end_to_end(loop, setup_s):
    lat = sorted(loop.latencies())
    n = len(lat)
    tail_pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(lat), "s"),
        "cmd_p50_s": (statistics.median(lat), "s"),
        "cmd_tail_s": (lat[n - TAIL_BEYOND - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"wall_s": f"{n} commands, each the median of {loop.count()} passes",
             "cmd_p50_s": f"over {n} commands",
             "cmd_tail_s": f"p{tail_pct}: {TAIL_BEYOND} of {n} commands slower"}
    return metrics, notes


def generated_instances(results, corpus):
    """For generate-girth: write each generated instance into the corpus and
    return it as an Instance, so the instance checks apply to it, in the
    order of `results`."""
    out = []
    for cmd, text in results:
        opts = {flag: cmd.option(flag) for flag in ("--k", "--n", "--r", "--seed", "--min-girth")}
        inst = workloads.Instance(int(opts["--k"]), int(opts["--n"]), int(opts["--r"]),
                                  int(opts["--seed"]),
                                  int(opts["--min-girth"]) if opts["--min-girth"] else None)
        with open(os.path.join(corpus, inst.name), "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append(inst)
    return out


def correctness(cli, wl, loops, corpus, seed, record):
    """Reference comparison and identity checks over the outputs of the
    timed loop and the anchors.

    Returns (ok, messages, bad, unattributed): `bad` holds the ids of the
    commands whose output differs from the reference or fails an identity,
    `unattributed` counts the failed identities that are about no command
    of the loop or the anchors.
    """
    main = cli.main

    def run(argv):
        return run_cli(main, argv)

    messages = [e for loop in loops for e in loop.errors]
    ok = not messages
    results = [(cmd, text) for loop in loops for cmd, text in zip(loop.commands, loop.first)]
    if any(text is None for _, text in results):
        return False, messages, set(), 0  # a command never succeeded
    digests = {cmd.id: checks.output_digest(text) for cmd, text in results}

    instances = wl.instances
    # the commands whose output an identity about an instance checks
    about = {}
    for cmd, _ in results:
        if cmd.instance is not None:
            about.setdefault(cmd.instance.name, set()).add(cmd.id)
    if wl.name == "generate-girth":
        instances = generated_instances(results, corpus)
        for (cmd, _), inst in zip(results, instances):
            about.setdefault(inst.name, set()).add(cmd.id)
    checked, failures = checks.identity_checks(run, corpus, instances, results)
    if wl.name == "partition":
        small = workloads.Instance(3, 6, 2, seed)
        path = os.path.join(corpus, small.name)
        code, _, err = run(list(small.generate_args()) + ["--out", path])
        if code != 0:
            failures.append((small.name, f"generating {small.name} failed: {err}"))
        else:
            c, f = checks.defect_identity(run, path, small.k, small.n)
            checked, failures = checked + c, failures + [(small.name, m) for m in f]
    messages.append(f"identities: {checked} checked, {len(failures)} failed")
    messages += [m for _, m in failures]
    ok = ok and not failures
    bad = set().union(*[about.get(name, set()) for name, _ in failures])
    unattributed = sum(1 for name, _ in failures if name not in about)

    reference = checks.load_reference(BENCH_DIR, wl.name, seed)
    if record:
        if ok:
            checks.record_reference(BENCH_DIR, wl.name, seed, digests)
            messages.append(f"reference: recorded {len(digests)} commands for seed {seed}")
        else:
            messages.append("reference: not recorded, the run failed its checks")
    elif reference is None:
        messages.append(f"reference: none for seed {seed} (recorded seeds: 0 and "
                        f"{VALIDATION_SEED}); identity checks only")
    else:
        mismatched = [cid for cid, d in digests.items() if reference.get(cid) != d]
        missing = set(reference) - set(digests)
        messages.append(f"reference: {len(digests) - len(mismatched)} of {len(digests)} "
                        f"commands match the record for seed {seed}")
        messages += [f"reference mismatch: {cid}" for cid in mismatched]
        messages += [f"reference command not run: {cid}" for cid in sorted(missing)]
        ok = ok and not mismatched and not missing
        bad.update(mismatched)
    return ok, messages, bad, unattributed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    cli, import_s = import_cli()
    wl = workloads.build(args.workload, args.seed)
    if len(wl.commands) <= TAIL_BEYOND:
        raise SystemExit("error: a workload needs more commands than TAIL_BEYOND")
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            if builds:
                shutil.rmtree(builds[-1][0])
            builds.append(build_corpus(cli, wl, tmp_root))
        corpus = builds[-1][0]
        setup_s = (import_s + statistics.median(b[1] for b in builds)) * PROBE_REFERENCE_S

        tracer = None
        if args.trace:
            import tracing  # imports numpy, so only after the timed import
            modules = {m: importlib.import_module(f"hypercount.{m}") for m in
                       ("cli", "clusters", "exact", "formats", "formulas",
                        "hypergraph", "lab", "polymers")}
            tracer = tracing.Tracer(modules)
        loop = Loop(cli, wl.commands, corpus)
        loop.run(args.seconds, tracer)
        if args.trace:
            overhead = sum(loop.latencies(True)) / sum(loop.latencies()) - 1
            traced_ranges = [r for t, _, _, r in loop.passes if t]
            metrics = tracing.layer_metrics(tracer, traced_ranges, overhead)
            notes = {}
        else:
            values, notes = end_to_end(loop, setup_s)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        anchors = Loop(cli, wl.anchors, corpus)
        anchors.run_pass()
        ok, messages, bad, unattributed = correctness(cli, wl, (loop, anchors), corpus,
                                                      args.seed, args.record_reference)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    untraced = loop.count()
    print(f"workload={wl.name} seed={args.seed} commands={len(wl.commands)} "
          f"passes={len(loop.passes)} untraced_passes={untraced} "
          f"client=1 closed loop, in-process")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name}={m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    # every run of a command whose output fails a check failed, since its
    # output was the same in every pass (or that run already counts)
    failed = unattributed + sum(
        len(lp.passes) if cmd.id in bad else runs_failed
        for lp in (loop, anchors) for cmd, runs_failed in zip(lp.commands, lp.failed))
    attempted = loop.attempted + anchors.attempted
    print(f"fail_ratio={failed / attempted:.6g} 1  "
          f"({failed} of {attempted} command runs failed, anchors included; a run fails "
          f"if it exits non-zero, raises, or its output fails a check)")
    for cmd, lat in zip(wl.anchors, anchors.latencies()):
        print(f"anchor {cmd.id}: {lat:.3f} s  (ROADMAP: {cmd.anchor})")
    for line in messages:
        print(f"check: {line}")
    if args.trace:
        stem = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}")
        tracer.save(stem + "-spans.npz", {"workload": wl.name, "seed": args.seed,
                                          "commands": [c.id for c in wl.commands]})
        with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1)
        print(f"spans: {len(tracer.start)} written to {stem}-spans.npz")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
