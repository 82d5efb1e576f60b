"""Command-line surface: structured, deterministic reports over the library.

Output is line-oriented `key=value` by default (`--json` for structured
output).  Exact rationals are printed exactly; log-domain floats with 12
significant digits.  Exit codes: 0 ok, 2 input error, 3 budget refusal,
4 generation failure, 141 standard output closed by its reader.  Timings
are reported but excluded from the determinism contract.

Plain command lines (exact flag names, each value its own token) are
parsed straight from the `_COMMANDS` table; argparse is imported and
built from that table only for help and for the lines `_parse` leaves to
it, such as usage errors, so it prints the same help, messages and exit
codes.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from . import clusters as cl
from . import exact, formats, formulas, lab, polymers
from .errors import BudgetExceeded, GenerationError, InputError
from .hypergraph import Vertex, girth_at_most
from .logdomain import format_log, log_of, relative_error


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Vertex):
        return str(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


@contextlib.contextmanager
def _all_digits():
    """Let str() and json print ints of any length while output is written
    (Python caps int-to-decimal conversion at 4300 digits by default)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # a Python without the cap
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(args, command, digest, params, results, rows, elapsed):
    """rows: list of (rowname, dict) printed one line per entry."""
    if args.json:
        import json  # only JSON output needs it

        def deep(v):
            if isinstance(v, dict):
                return {k: deep(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [deep(x) for x in v]
            if isinstance(v, (bool, int, str)) or v is None:
                return v
            return _fmt(v)
        payload = {
            "command": command,
            "digest": digest,
            "params": deep(params),
            "results": deep(results),
        }
        if rows:
            payload["rows"] = [{"row": name} | deep(d) for name, d in rows]
        payload["timings"] = {"elapsed_s": round(elapsed, 6)}
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"command={command}")
    if digest is not None:
        print(f"digest={digest}")
    for key, val in params.items():
        print(f"param.{key}={_fmt(val)}")
    for key, val in results.items():
        print(f"{key}={_fmt(val)}")
    for name, d in rows:
        print(name + " " + " ".join(f"{k}={_fmt(v)}" for k, v in d.items()))
    print(f"elapsed={elapsed:.6f}")


def _vertex(text: str) -> Vertex:
    try:
        c, i = text.split(":")
        return Vertex(int(c), int(i))
    except ValueError:
        raise InputError(f"bad vertex {text!r}, expected <class>:<index>")


def _fraction(name: str, text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad --{name} {text!r}, expected a rational")
    try:
        float(value)  # the check's report name prints it as a float
    except OverflowError:
        raise InputError(f"bad --{name} {text!r}, too large for a float")
    return value


# ----- command handlers -----------------------------------------------------


def _cmd_exact_count(args, G):
    return G, {}, {"count": exact.count_independent_sets(G)}, []


def _cmd_defect_count(args, G):
    count = exact.count_with_defect_class(G, args.cls, args.b)
    return G, {"class": args.cls, "b": args.b}, {"count": count}, []


def _cmd_polymers(args, G):
    root = _vertex(args.root) if args.root is not None else None
    polys = polymers.enumerate_polymers(G, args.cls, args.b, root=root)
    rows = [("polymer", {
        "vertices": [str(v) for v in p.vertices],
        "order": p.order,
        "weight": p.weight,
        "neighborhood_size": p.neighborhood_size,
    }) for p in polys]
    params = {"class": args.cls, "b": args.b}
    if root is not None:
        params["root"] = root
    return G, params, {"count": len(polys)}, rows


def _cmd_xi(args, G):
    value = polymers.partition_function(G, args.cls, args.b)
    return (G, {"class": args.cls, "b": args.b},
            {"xi": value, "log_xi": log_of(value)}, [])


def _cmd_kp_check(args, G):
    root = _vertex(args.root) if args.root is not None else None
    found = polymers.kp_terms(G, args.cls, args.b, root=root)
    rows = [("root", {
        "vertex": res.root,
        "lhs_upper": res.lhs_upper,
        "rhs": res.rhs,
        "holds": res.holds,
        "polymers": len(res.polymers),
    }) for res in found]
    return (G, {"class": args.cls, "b": args.b},
            {"all_hold": all(res.holds for res in found),
             "roots": len(found)}, rows)


def _cmd_clusters(args, G):
    found = cl.enumerate_clusters(G, args.cls, args.t)
    rows = []
    for c in found:
        rows.append(("cluster", {
            "entries": str(c),
            "length": c.length,
            "size": c.size,
            "orderings": c.ordering_count,
            "weight": cl.cluster_weight(c),
        }))
    return (G, {"class": args.cls, "t": args.t},
            {"count": len(found)}, rows)


def _cmd_log_xi_trunc(args, G):
    value = cl.truncated_log_xi(G, args.cls, args.t)
    return (G, {"class": args.cls, "t": args.t},
            {"log_xi_truncated": value,
             "log_xi_truncated_float": float(value)}, [])


def _exponent_rows(est: cl.CountEstimate) -> list:
    return [("class_exponent", {"class": c, "exponent": x})
            for c, x in est.class_exponents]


def _cmd_estimate(args, G):
    est = cl.estimate_count(G, args.t)
    results = {
        "log_value": est.log_value,
        "log10_value": est.log_value / math.log(10),
        "value": format_log(est.log_value),
    }
    return G, {"t": args.t}, results, _exponent_rows(est)


def _closed_forms(G, sizes) -> tuple:
    """The paper's closed forms of the given sizes on G, tested in order:
    the common degree r, the forms whose hypotheses hold as {size:
    estimate}, and the InputError of the first hypothesis that fails, or
    None.  Each hypothesis is tested once, the size-2 girth only when size
    2 is asked for; formulas checks k >= 3, n >= 1 and r >= 1."""
    r = G.regular_degree()
    forms = {}
    try:
        if r is None or len(set(G.sizes)) != 1:
            raise InputError("closed forms require a regular hypergraph "
                             "with equal class sizes")
        if not G.is_linear():
            raise InputError("closed forms require a linear hypergraph")
        n = G.sizes[0]
        if 1 in sizes:
            forms[1] = formulas.closed_form_t1(G.k, n, r)
        if 2 in sizes:
            if girth_at_most(G, 4):
                raise InputError("the size-2 closed form requires no loose "
                                 "cycle shorter than 5")
            forms[2] = formulas.closed_form_t2(G.k, n, r)
    except InputError as exc:
        return r, forms, exc
    return r, forms, None


def _cmd_closed_form(args, G):
    r, forms, failure = _closed_forms(G, (args.t,))
    if failure is not None:
        raise failure
    est = forms[args.t]
    if args.t == 1:
        results = {"exponent": est.exponent, "log_value": est.log_value,
                   "value": format_log(est.log_value)}
    else:
        results = {
            "printed_exponent": est.exponent,
            "printed_log_value": est.log_value,
            "corrected_exponent": est.corrected_exponent,
            "corrected_log_value": est.corrected_log_value,
            "delta": est.correction_delta,
        }
    return G, {"t": args.t, "k": G.k, "n": G.sizes[0], "r": r}, results, []


def _report_rows(report: lab.PropertyReport):
    results = {"property": report.name, "verdict": report.verdict}
    if report.worst_ratio is not None:
        results["worst_ratio"] = report.worst_ratio
        try:
            results["worst_ratio_float"] = float(report.worst_ratio)
        except OverflowError:  # beyond the float range; worst_ratio is exact
            results["worst_ratio_float"] = math.inf
    rows = []
    if report.witness is not None:
        if isinstance(report.witness, dict):
            rows.append(("witness", report.witness))
        else:
            rows.append(("witness", {"value": report.witness}))
    return results, rows


# property name -> its check on the instance and the parsed arguments
_CHECKS = {
    "reg": lambda G, args: lab.check_reg(G, args.t),
    "exp1": lambda G, args: lab.check_exp1(
        G, _fraction("alpha", args.alpha), seed=args.seed),
    "exp2": lambda G, args: lab.check_exp2(
        G, _fraction("beta", args.beta), seed=args.seed),
    "def": lambda G, args: lab.check_def(G, args.b, seed=args.seed),
    "linear": lambda G, args: lab.check_linear(G),
    "girth": lambda G, args: lab.check_girth(G, args.min_girth),
    "common-neighbor": lambda G, args: lab.check_common_neighbor(G),
}


def _cmd_check(args, G):
    report = _CHECKS[args.property](G, args)
    return G, {"property": args.property} | report.params, *_report_rows(report)


def _cmd_generate(args, G):
    G = lab.gen_linear_regular(args.k, args.n, args.r, args.seed,
                               min_girth=args.min_girth)
    comment = (f"generated k={args.k} n={args.n} r={args.r} seed={args.seed}"
               + (f" min_girth={args.min_girth}" if args.min_girth else ""))
    text = formats.serialize_text(G, comment=comment)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}")
        return (G, {"k": args.k, "n": args.n, "r": args.r, "seed": args.seed},
                {"edges": G.num_edges, "out": args.out}, [])
    if args.json:
        return (G, {"k": args.k, "n": args.n, "r": args.r, "seed": args.seed},
                {"edges": G.num_edges, "text": text}, [])
    sys.stdout.write(text)
    return None, {}, {}, []


def _cmd_compare(args, G):
    est = cl.estimate_count(G, args.t)  # its input errors come first
    count = exact.count_independent_sets(G)
    log_exact = log_of(count)
    results = {
        "exact": count,
        "estimate_log": est.log_value,
        "estimate": format_log(est.log_value),
        "exact_log": log_exact,
        "relative_error": relative_error(est.log_value, log_exact),
    }
    _, forms, _ = _closed_forms(G, (1, 2) if args.t >= 2 else (1,))
    if 1 in forms:
        results["closed_form_t1_log"] = forms[1].log_value
        results["closed_form_t1_rel_error"] = relative_error(
            forms[1].log_value, log_exact)
    if 2 in forms:
        results["closed_form_t2_printed_log"] = forms[2].log_value
        results["closed_form_t2_corrected_log"] = forms[2].corrected_log_value
        results["closed_form_t2_delta"] = forms[2].correction_delta
    return G, {"t": args.t}, results, _exponent_rows(est)


# ----- parser ------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_CLASS = _arg("--class", dest="cls", type=int, required=True)
_B = _arg("--b", type=int, required=True)
_T = _arg("--t", type=int, required=True)
_ROOT = _arg("--root", default=None, help="<class>:<index>")
_INPUT = _arg("--input", "-i", default="-",
              help="path to instance file, '-' for stdin")

# command name -> (handler, reads --input, its other argument specs in
# parser order)
_COMMANDS = {
    "exact-count": (_cmd_exact_count, True, ()),
    "defect-count": (_cmd_defect_count, True, (_CLASS, _B)),
    "polymers": (_cmd_polymers, True, (_CLASS, _B, _ROOT)),
    "xi": (_cmd_xi, True, (_CLASS, _B)),
    "kp-check": (_cmd_kp_check, True, (_CLASS, _B, _ROOT)),
    "clusters": (_cmd_clusters, True, (_CLASS, _T)),
    "log-xi-trunc": (_cmd_log_xi_trunc, True, (_CLASS, _T)),
    "estimate": (_cmd_estimate, True, (_T,)),
    "closed-form": (_cmd_closed_form, True,
                    (_arg("--t", type=int, choices=(1, 2), required=True),)),
    "check": (_cmd_check, True, (
        _arg("property", choices=tuple(_CHECKS)),
        _arg("--t", type=int, default=1),
        _arg("--alpha", default="1/4"),
        _arg("--beta", default="1/4"),
        _arg("--b", type=int, default=1),
        _arg("--min-girth", dest="min_girth", type=int, default=5),
        _arg("--seed", type=int, default=0))),
    "generate": (_cmd_generate, False, (
        _arg("--k", type=int, required=True),
        _arg("--n", type=int, required=True),
        _arg("--r", type=int, required=True),
        _arg("--seed", type=int, required=True),
        _arg("--min-girth", dest="min_girth", type=int, default=None),
        _arg("--out", default=None))),
    "compare": (_cmd_compare, True, (_T,)),
}


def _specs(name: str) -> tuple:
    """The argument specs of command `name` in parser order."""
    _, needs_input, specs = _COMMANDS[name]
    return (_INPUT, *specs) if needs_input else specs


def _parse(argv: list) -> Optional[SimpleNamespace]:
    """The namespace argparse gives for a plain command line, or None.

    A plain line is an optional leading --json, a command name, then each
    of the command's flags at most once, by its exact name and with its
    value as the next token, and check's property.  As in argparse a token
    that starts with '-' is a flag unless it is a lone '-' (stdin), so it
    is never a value here; argparse would read '-1' as one, but that line
    goes to argparse.  Values pass the spec's type and choices, and every
    required argument must be given."""
    as_json = argv[:1] == ["--json"]
    name, *rest = argv[as_json:] or [""]
    if name not in _COMMANDS:
        return None
    specs = _specs(name)
    options = {flag: spec for spec in specs for flag in spec[0]}
    positionals = [spec for spec in specs if not spec[0][0].startswith("-")]
    given = {}  # a spec's first name -> its token
    tokens = iter(rest)
    for token in tokens:
        if token.startswith("-") and token != "-":
            spec = options.get(token)
            token = next(tokens, "--")  # "--" is never a value
        elif positionals:
            spec = positionals.pop(0)
        else:
            return None
        if (spec is None or spec[0][0] in given
                or token.startswith("-") and token != "-"):
            return None
        given[spec[0][0]] = token
    args = {"json": as_json, "command": name}
    for flags, kwargs in specs:
        dest = kwargs.get("dest", flags[0].lstrip("-").replace("-", "_"))
        if flags[0] not in given:
            if kwargs.get("required") or not flags[0].startswith("-"):
                return None
            args[dest] = kwargs.get("default")
            continue
        try:
            value = kwargs.get("type", str)(given[flags[0]])
        except (TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        args[dest] = value
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of every command, built from the same specs.
    `main` builds it only for a line that `_parse` does not take: help,
    usage errors, and lines argparse reads more loosely (abbreviated
    flags, '--t=2', '-iPATH', repeated flags, negative numbers)."""
    import argparse  # plain command lines never load it

    parser = argparse.ArgumentParser(
        prog="hypercount",
        description="Exact and truncated-expansion counting of independent "
                    "sets in partite uniform hypergraphs.")
    parser.add_argument("--json", action="store_true",
                        help="structured JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flags, kwargs in _specs(name):
            p.add_argument(*flags, **kwargs)
    return parser


# exit code when the reader closes standard output early: what a shell
# reports for a process that SIGPIPE ends (128 + 13), so `set -o pipefail`
# treats `hypercount ... | head -1` as it treats any other filter
CLOSED_PIPE = 141


def main(argv: Optional[list] = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more can be written: point stdout at the null device, so
        # that the interpreter's own flush at exit finds no pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    return code


def _run(argv: list) -> int:
    args = _parse(argv) or _build_parser().parse_args(argv)
    handler, needs_input, _ = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        G = formats.load(args.input) if needs_input else None
        G, params, results, rows = handler(args, G)
    except InputError as exc:
        print(f"error=input {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error=budget {exc}", file=sys.stderr)
        return 3
    except GenerationError as exc:
        print(f"error=generation {exc}", file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - start
    if G is not None or params or results or rows:
        dig = formats.digest(G) if G is not None else None
        with _all_digits():
            _emit(args, args.command, dig, params, results, rows, elapsed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
