"""Output checks: recorded references and exact identities.

Every check here runs outside the timed loop.  A command's exact output is
every line it prints except `elapsed=`; those lines are compared with the
reference recorded for the seed, when there is one.  For any seed, the
identities below hold exactly and are checked through the CLI:

* the t=1 class exponent equals n * gamma_k^(-r) (`closed-form --t 1`);
* on girth-5 instances the t=2 class exponent equals the corrected
  closed form (`closed-form --t 2`);
* `estimate` and `compare` class exponents equal `log-xi-trunc` for the
  same instance, class and t;
* `compare` reports the same exact count as `exact-count`;
* Xi grows with the polymer order bound b, and on a small instance the
  defect-class count equals 2^(|V| - n) * Xi;
* every instance is r-regular with equal class sizes and linear, and every
  girth-bounded one passes `check girth --min-girth 5`.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from fractions import Fraction

from workloads import Command


def exact_lines(stdout: str) -> list:
    """The lines of a command's output that the CLI promises are
    deterministic: everything but the timing line."""
    return [line for line in stdout.splitlines() if not line.startswith("elapsed=")]


def output_digest(stdout: str) -> str:
    return hashlib.sha256("\n".join(exact_lines(stdout)).encode()).hexdigest()


def parse(stdout: str):
    """Split `key=value` output into top-level fields and named rows."""
    fields, rows = {}, []
    for line in exact_lines(stdout):
        head, _, _ = line.partition("=")
        if " " in head:
            name, rest = line.split(" ", 1)
            rows.append((name, dict(part.split("=", 1) for part in rest.split()
                                    if "=" in part)))
        elif head:
            fields[head] = line.split("=", 1)[1]
    return fields, rows


# ----- references ------------------------------------------------------------


def reference_path(bench_dir: str, workload: str) -> str:
    return os.path.join(bench_dir, "reference", f"{workload}.json")


def load_reference(bench_dir: str, workload: str, seed: int):
    """Recorded digest per command id for this seed, or None."""
    path = reference_path(bench_dir, workload)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def record_reference(bench_dir: str, workload: str, seed: int, digests: dict) -> None:
    path = reference_path(bench_dir, workload)
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data[str(seed)] = digests
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----- instance properties ---------------------------------------------------


def _degrees(text: str):
    """Class sizes and vertex degrees of an instance in the text format."""
    sizes, deg = None, defaultdict(int)
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("k="):
            sizes = [int(s) for s in line.split("sizes=")[1].split(",")]
        elif line.startswith("e "):
            for tok in line.split()[1:]:
                deg[tok] += 1
    return sizes, deg


def check_instance(run, path: str, n: int, r: int, min_girth) -> list:
    """Problems with one instance file, as messages."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        sizes, deg = _degrees(fh.read())
    vertices = sum(sizes)
    if set(sizes) != {n} or len(deg) != vertices or set(deg.values()) != {r}:
        problems.append(f"{path}: not {r}-regular with class sizes {n}")
    props = [("linear", [])]
    if min_girth:
        props.append(("girth", ["--min-girth", str(min_girth)]))
    for prop, extra in props:
        code, out, _ = run(["check", prop, "-i", path] + extra)
        if code != 0 or parse(out)[0].get("verdict") != "holds":
            problems.append(f"{path}: check {prop} does not hold")
    return problems


# ----- identities --------------------------------------------------------------


def class_exponents(results) -> dict:
    """(instance name, t, class) -> set of exponents reported by any command."""
    seen = defaultdict(set)
    for cmd, out in results:
        if cmd.instance is None:
            continue
        fields, rows = parse(out)
        t = cmd.option("--t")
        if cmd.args[0] in ("estimate", "compare"):
            for name, row in rows:
                if name == "class_exponent":
                    seen[(cmd.instance.name, t, row["class"])].add(Fraction(row["exponent"]))
        elif cmd.args[0] == "log-xi-trunc":
            seen[(cmd.instance.name, t, cmd.option("--class"))].add(
                Fraction(fields["log_xi_truncated"]))
    return seen


def identity_checks(run, corpus: str, instances, results) -> tuple:
    """Run every identity over the loop's outputs and the corpus.

    `run(argv)` runs one CLI command and returns (code, stdout, stderr);
    `results` pairs each command with its first-pass stdout.  Returns the
    number of identities checked and the failures, each as (name of the
    instance it is about, message).
    """
    failures, checked = [], 0
    closed_forms = []
    for inst in instances:
        path = os.path.join(corpus, inst.name)
        checked += 1
        failures += [(inst.name, m) for m in
                     check_instance(run, path, inst.n, inst.r, inst.min_girth)]
        for t in ((1, 2) if inst.min_girth else (1,)):
            c1, closed, e1 = run(["closed-form", "--t", str(t), "-i", path])
            c2, est, e2 = run(["estimate", "--t", str(t), "-i", path])
            if c1 != 0 or c2 != 0:
                failures.append((inst.name, f"{inst.name}: closed-form/estimate --t {t} "
                                 f"exited {c1}/{c2}: {e1.strip()} {e2.strip()}"))
                continue
            results = results + [(Command(("estimate", "--t", str(t)), inst), est)]
            key = "exponent" if t == 1 else "corrected_exponent"
            closed_forms.append((inst.name, str(t), inst.k, Fraction(parse(closed)[0][key])))

    seen = class_exponents(results)
    for key, values in seen.items():
        checked += 1
        if len(values) != 1:
            failures.append((key[0], f"class exponents disagree at {key}: {sorted(values)}"))
    for name, t, k, want in closed_forms:
        for cls in range(k):
            checked += 1
            if seen.get((name, t, str(cls))) != {want}:
                failures.append((name, f"{name}: t={t} class {cls} exponents "
                                       f"{seen.get((name, t, str(cls)))} != closed form {want}"))

    counts = {}
    xi = defaultdict(dict)
    for cmd, out in results:
        fields, _ = parse(out)
        if cmd.args[0] == "exact-count":
            counts[cmd.instance.name] = int(fields["count"])
        elif cmd.args[0] == "xi":
            xi[(cmd.instance.name, cmd.option("--class"))][int(cmd.option("--b"))] = \
                Fraction(fields["xi"])
    for cmd, out in results:
        if cmd.args[0] == "compare" and cmd.instance.name in counts:
            checked += 1
            if int(parse(out)[0]["exact"]) != counts[cmd.instance.name]:
                failures.append((cmd.instance.name, f"{cmd.id}: exact differs from exact-count"))
    for key, by_b in xi.items():
        values = [by_b[b] for b in sorted(by_b)]
        checked += 1
        if values != sorted(values):
            failures.append((key[0], f"Xi not monotone in b at {key}: {by_b}"))
    return checked, failures


def defect_identity(run, path: str, k: int, n: int) -> tuple:
    """defect-count equals 2^(|V| - n) * Xi for every class and b <= 3, on
    an instance with k classes of size n."""
    failures, checked = [], 0
    for cls in range(k):
        for b in (1, 2, 3):
            argv = ["--class", str(cls), "--b", str(b), "-i", path]
            c1, o1, e1 = run(["defect-count"] + argv)
            c2, o2, e2 = run(["xi"] + argv)
            checked += 1
            if c1 != 0 or c2 != 0:
                failures.append(f"defect identity at class {cls} b={b}: exit {c1}/{c2} "
                                f"{e1.strip()} {e2.strip()}")
                continue
            count = int(parse(o1)[0]["count"])
            scaled = Fraction(parse(o2)[0]["xi"]) * 2 ** ((k - 1) * n)
            if count != scaled:
                failures.append(f"defect identity at class {cls} b={b}: {count} != {scaled}")
    return checked, failures
