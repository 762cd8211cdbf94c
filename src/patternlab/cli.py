"""Command-line entry point.

Every subcommand prints a single JSON document on stdout embedding a run
manifest (command line, effective config, input file hashes, tool version,
seed), so identical invocations on identical inputs produce byte-identical
output.  The library returns result records; this module alone turns them
into JSON.  Wall-clock time goes to stderr; --timing copies it into the
manifest (at the cost of bytewise reproducibility).

Exit codes: 0 ok, 2 bad input, 3 resource cap exceeded, 4 verification
failure.  A reader that closes stdout early ends the output quietly, with
the command's own exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .algebra import (decomposition_suite, map_f, nonjump_catalog,
                      union_lambda_suite, union_on_set)
from .blowups import CONSTRUCTION_TRIALS, blowup, construction_suite, density, sequence_check
from .errors import CapExceeded, FormatError, PatternLabError
from .lagrangian import OptimizerConfig, grid_oracle, maximize, minimality_suite
from .patterns import Hypergraph, _document, load_any, load_pattern, pattern_of_hypergraph

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFICATION = 4


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fraction_dict(value) -> dict:
    return {"value": f"{value.numerator}/{value.denominator}", "value_float": float(value)}


def _write(path: str, doc, **layout) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **layout)
        fh.write("\n")


def _report_dict(rep) -> dict:
    return {**asdict(rep), "argmax": rep.argmax.weights.tolist()}


def _optimizer_flags(parser: argparse.ArgumentParser) -> None:
    default = OptimizerConfig()
    parser.add_argument("--restarts", type=int, default=default.restarts,
                        help="random restarts on top of the barycenter starts")
    parser.add_argument("--iters", type=int, default=default.max_iterations,
                        help="max ascent iterations")
    parser.add_argument("--tol", type=float, default=default.tolerance,
                        help="KKT stopping tolerance")
    parser.add_argument("--seed", type=int, default=default.seed, help="RNG seed")


def _config_of(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, max_iterations=args.iters,
                           tolerance=args.tol, seed=args.seed)


def _parse_glue(single: int | None, spec: str, m: int) -> tuple[int, ...]:
    """A glue set from a single index, or from 'all' or comma-separated indices."""
    if single is not None:
        return (single,)
    if spec == "all":
        return tuple(range(1, m + 1))
    return tuple(_csv_ints(spec))


def _csv_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


# ---------------------------------------------------------------------------
# Subcommands: each returns (result dict, exit code, input paths)
# ---------------------------------------------------------------------------


def _cmd_lambda(args) -> tuple[dict, int, list[str]]:
    obj = load_any(args.file)
    if isinstance(obj, Hypergraph):
        source = {"kind": "hypergraph", "n": obj.n, "r": obj.r, "edges": obj.edge_count}
        P = pattern_of_hypergraph(obj)
    else:
        source = {"kind": "pattern", "m": obj.m, "r": obj.r, "edges": obj.edge_count}
        P = obj
    cfg = _config_of(args)
    rep = maximize(P, cfg)
    result = {"input": source, "report": _report_dict(rep)}
    code = EXIT_OK
    if args.grid_denominator is not None:
        oracle = grid_oracle(P, args.grid_denominator)
        gap = rep.value - float(oracle)
        result["report"]["oracle_gap"] = gap
        result["grid_oracle"] = {"denominator": args.grid_denominator,
                                 **_fraction_dict(oracle)}
        if gap < -1e-9:
            # The exact grid beat the optimizer: the reported maximum is not
            # the Lagrangian.  Surface it loudly.
            result["oracle_violation"] = True
            code = EXIT_VERIFICATION
    return result, code, [args.file]


def _cmd_union(args) -> tuple[dict, int, list[str]]:
    P1 = load_pattern(args.file1)
    P2 = load_pattern(args.file2)
    U, lab = union_on_set(P1, P2, _parse_glue(args.on, args.on_set, P1.m))
    result = {
        "glue": list(lab.glue),
        "m": U.m,
        "r": U.r,
        "edges": U.edge_count,
        "pattern": _document(U),
        "labeling": lab.to_dict(),
    }
    if args.out:
        # The bytes save_pattern writes, from the document printed above.
        _write(args.out, result["pattern"], separators=(",", ":"))
        sidecar = re.sub(r"\.json$", "", args.out) + ".labeling.json"
        _write(sidecar, result["labeling"], indent=2)
        result["pattern_file"] = args.out
        result["labeling_file"] = sidecar
    return result, EXIT_OK, [args.file1, args.file2]


def _cmd_mapf(args) -> tuple[dict, int, list[str]]:
    P = load_pattern(args.pattern)
    glue = _parse_glue(args.glue, args.glue_set, P.m)
    cfg = _config_of(args)
    rep = map_f(P, glue, args.lambda2, cfg)
    result = {
        "glue": list(glue),
        "lambda2": args.lambda2,
        "value": rep.value,
        "report": _report_dict(rep),
    }
    return result, EXIT_OK, [args.pattern]


def _cmd_blowup(args) -> tuple[dict, int, list[str]]:
    P = load_pattern(args.pattern)
    sizes = _csv_ints(args.sizes)
    G, part = blowup(P, sizes)
    result = {
        "sizes": sizes,
        "n": G.n,
        "r": G.r,
        "edges": G.edge_count,
        "hypergraph": _document(G),
    }
    if G.n >= G.r:
        result["density"] = density(G)
    if args.out:
        _write(args.out, result["hypergraph"], separators=(",", ":"))
        result["hypergraph_file"] = args.out
    return result, EXIT_OK, [args.pattern]


def _cmd_density(args) -> tuple[dict, int, list[str]]:
    G = load_any(args.file)
    if not isinstance(G, Hypergraph):
        raise FormatError(f"{args.file} is a pattern file; density needs a hypergraph")
    if G.n < G.r:
        raise FormatError(f"density needs n >= r, got n={G.n}, r={G.r}")
    exact = Fraction(G.edge_count, math.comb(G.n, G.r))
    result = {"n": G.n, "r": G.r, "edges": G.edge_count,
              "density": density(G), **_fraction_dict(exact)}
    return result, EXIT_OK, [args.file]


_SUITES = ("decomposition", "union-lambda", "minimality", "construction")


def _cmd_verify(args) -> tuple[dict, int, list[str]]:
    cfg = _config_of(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    runners = {
        "decomposition": lambda: decomposition_suite(trials=args.trials, seed=args.seed),
        "union-lambda": lambda: union_lambda_suite(cfg, seed=args.seed),
        "minimality": lambda: minimality_suite(cfg, seed=args.seed),
        "construction": lambda: construction_suite(seed=args.seed, cfg=cfg),
    }
    reports = [runners[name]() for name in names]
    passed = all(rep["passed"] for rep in reports)
    result = {"suites": reports, "passed": passed}
    return result, EXIT_OK if passed else EXIT_VERIFICATION, []


def _cmd_check_sequence(args) -> tuple[dict, int, list[str]]:
    if not math.isfinite(args.lambda0):
        raise FormatError(f"--lambda0 must be a finite number, got {args.lambda0}")
    names = sorted(f for f in os.listdir(args.directory) if f.endswith(".json"))
    if not names:
        raise FormatError(f"no .json pattern files in {args.directory}")
    paths = [os.path.join(args.directory, f) for f in names]
    patterns = [load_pattern(p) for p in paths]
    with open(args.eps_file, "r", encoding="utf-8") as fh:
        try:
            eps = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"eps file: parse error at line {exc.lineno}: {exc.msg}") from exc
    entries = eps if isinstance(eps, list) else [eps]
    for k, value in enumerate(entries):
        where = f"eps[{k}]" if entries is eps else "eps"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"eps file: {where} must be a number, got {json.dumps(value)}")
        try:
            value = float(value)
        except OverflowError:  # json reads integers of any length
            raise FormatError(f"eps file: {where} is too large for a float") from None
        if not math.isfinite(value):  # json reads NaN and Infinity
            raise FormatError(f"eps file: {where} must be finite, got {json.dumps(value)}")
    cfg = _config_of(args)
    report = sequence_check(patterns, args.k, args.lambda0, eps, cfg)
    result = {"terms": names, **asdict(report), "ok": report.ok}
    return result, EXIT_OK if report.ok else EXIT_VERIFICATION, paths + [args.eps_file]


def _cmd_catalog(args) -> tuple[dict, int, list[str]]:
    l_values = _csv_ints(args.frankl_rodl_l) if args.frankl_rodl_l else ()
    entries = []
    for e in nonjump_catalog(args.r, frankl_rodl_l=l_values):
        entry = {"statement": e.statement, "status": e.status, "source": e.source}
        if e.value is not None:
            entry.update(_fraction_dict(e.value))
        if e.note:
            entry["note"] = e.note
        entries.append(entry)
    return {"r": args.r, "entries": entries}, EXIT_OK, []


# ---------------------------------------------------------------------------
# Parser and main
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternlab",
        description="Pattern Lagrangians over the simplex: evaluation, gluing, blowups, verification.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock time in the manifest (breaks bytewise reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="maximize a pattern (or hypergraph) over the simplex")
    p.add_argument("file", help="pattern or hypergraph JSON file")
    _optimizer_flags(p)
    p.add_argument("--grid-denominator", type=int, default=None,
                   help="also run the exact rational grid oracle at this denominator")
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("union", help="glue the second pattern into indices of the first")
    p.add_argument("file1")
    p.add_argument("file2")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--on", type=int, help="single glue index of the first pattern")
    g.add_argument("--on-set", help="comma-separated glue indices, or 'all'")
    p.add_argument("--out", help="write the glued pattern here (labeling goes to a sidecar)")
    p.set_defaults(fn=_cmd_union)

    p = sub.add_parser("mapf", help="maximize host polynomial + lambda * sum of glue r-th powers")
    p.add_argument("--pattern", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--glue", type=int, help="single glue index")
    g.add_argument("--glue-set", help="comma-separated glue indices, or 'all'")
    p.add_argument("--lambda", dest="lambda2", type=float, required=True,
                   help="inner Lagrangian value in [0, 1]")
    _optimizer_flags(p)
    p.set_defaults(fn=_cmd_mapf)

    p = sub.add_parser("blowup", help="materialize a blowup of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated class sizes")
    p.add_argument("--out", help="write the hypergraph here")
    p.set_defaults(fn=_cmd_blowup)

    p = sub.add_parser("density", help="edge density of a hypergraph file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=_SUITES + ("all",))
    p.add_argument("--trials", type=int, default=200, help="random trials of the decomposition "
                   f"suite only; the construction suite always runs {CONSTRUCTION_TRIALS}")
    _optimizer_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("check-sequence", help="check sequence conditions on a directory of patterns")
    p.add_argument("directory", help="pattern files, ordered by filename")
    p.add_argument("--k", type=int, required=True, help="subpattern size for condition 3")
    p.add_argument("--lambda0", type=float, required=True, help="target level")
    p.add_argument("--eps-file", required=True,
                   help="JSON number or list: the required per-term margins")
    _optimizer_flags(p)
    p.set_defaults(fn=_cmd_check_sequence)

    p = sub.add_parser("catalog", help="known non-jump densities, as exact rationals")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--frankl-rodl-l", default="",
                   help="comma-separated l values to materialize the family entries")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def _manifest_config(args: argparse.Namespace) -> dict:
    skip = {"fn", "command", "pretty", "timing"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        result, code, input_paths = args.fn(args)
        hashes = {path: _sha256(path) for path in input_paths}
    except CapExceeded as exc:
        print(f"patternlab: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FormatError, PatternLabError, ValueError, OSError) as exc:
        print(f"patternlab: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - started

    manifest = {
        "command": ["patternlab"] + argv,
        "config": _manifest_config(args),
        "input_hashes": hashes,
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }
    if args.timing:
        manifest["wall_clock_s"] = elapsed
    doc = {"manifest": manifest, "result": result}
    text = json.dumps(doc, indent=2) if args.pretty else json.dumps(doc, separators=(",", ":"))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Send what is still
        # buffered to devnull, so the interpreter's last flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    print(f"patternlab: {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
