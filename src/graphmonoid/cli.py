"""Batch command-line front end: JSON in, JSON or text report out.

Exit codes: 0 the computation ran (a "false" equality decision is still 0),
2 invalid input, 3 completion budget exhausted.  Every command is a thin
wrapper over the library; no computation logic lives here.  The modules for
approximations, limits and the oracle are imported by the commands that use
them, so the query commands (validate, present, normal-form, equal) never
load them.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .engine import (
    BudgetExceededError,
    EngineError,
    certificate_to_json,
    completed_system,
    equal,
    normal_form,
)
from .graphs import GraphError, graph_from_json, graph_to_json, validate_graph
from .presentation import (
    Generator,
    MonoidElement,
    PresentationError,
    element_from_json,
    element_to_json,
    generator_to_json,
    presentation_of,
    presentation_to_json,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _load_graph(path: str):
    g = graph_from_json(_load_json(path))
    report = g.validation
    if not report.ok:
        raise InputError(f"{path}: invalid graph: " + "; ".join(report.violations))
    return g


def _require_non_negative(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise InputError(f"--{name} must be >= 0, got {value}")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    for line in _text_lines(doc):
        print(line)


def _text_lines(doc, prefix: str = ""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"
    else:
        yield f"{prefix}{doc}"


def _cmd_validate(args) -> dict:
    g = graph_from_json(_load_json(args.graph))
    report = validate_graph(g)
    return {"valid": report.ok, "violations": list(report.violations)}


def _cmd_present(args) -> dict:
    g = _load_graph(args.graph)
    return presentation_to_json(presentation_of(g))


def _cmd_normal_form(args) -> dict:
    g = _load_graph(args.graph)
    p = presentation_of(g)
    x = element_from_json(_load_json(args.element), g)
    rs = completed_system(p, args.budget)
    return {"normal_form": element_to_json(normal_form(rs, x))}


def _cmd_equal(args) -> dict:
    g = _load_graph(args.graph)
    p = presentation_of(g)
    u = element_from_json(_load_json(args.lhs), g)
    v = element_from_json(_load_json(args.rhs), g)
    result = equal(p, u, v, args.budget)
    return {"equal": result.equal, "certificate": certificate_to_json(p, u, result)}


def _cmd_desingularize(args) -> dict:
    from .desingularize import desingularize

    g = _load_graph(args.graph)
    d = desingularize(g, args.level)
    return graph_to_json(d.graph, d.boundary)


def _cmd_phi(args) -> dict:
    from .desingularize import desingularize, phi, required_truncation

    g = _load_graph(args.graph)
    x = element_from_json(_load_json(args.element), g)
    level = args.level if args.level is not None else required_truncation(g, x)
    d = desingularize(g, level)
    return {"level": level, "element": element_to_json(phi(d, x))}


def _cmd_psi(args) -> dict:
    from .desingularize import desingularize, psi

    g = _load_graph(args.graph)
    d = desingularize(g, args.level)
    y = element_from_json(_load_json(args.element), d.graph)
    return {"level": args.level, "element": element_to_json(psi(d, y))}


def _cmd_ck_check(args) -> dict:
    from .limits import is_ck_morphism, morphism_from_json

    src = _load_graph(args.source)
    dst = _load_graph(args.target)
    m = morphism_from_json(_load_json(args.morphism), src, dst)
    report = is_ck_morphism(m)  # raises MorphismError unless m is a graph morphism
    return {"ck": report.ok, "violations": list(report.violations)}


def _cmd_induced_map(args) -> dict:
    from .limits import induced_monoid_morphism, morphism_from_json

    src = _load_graph(args.source)
    dst = _load_graph(args.target)
    m = morphism_from_json(_load_json(args.morphism), src, dst)
    return {
        "map": [
            {"from": generator_to_json(g), "to": element_to_json(img)}
            for g, img in induced_monoid_morphism(m).items()  # in canonical alphabet order
        ]
    }


def _cmd_colimit(args) -> dict:
    from .limits import chain_from_json, colimit_graph, morphism_to_json

    chain = chain_from_json(_load_json(args.system))
    result = colimit_graph(chain)
    return {
        "graph": graph_to_json(result.graph),
        "injections": [morphism_to_json(m) for m in result.injections],
    }


def _cmd_continuity_check(args) -> dict:
    from .limits import chain_from_json, check_continuity, morphism_from_json

    _require_non_negative(args, "degree")
    chain = chain_from_json(_load_json(args.system))
    if (args.top is None) != (args.into is None):
        raise InputError("--top and --into go together: the top graph and the morphism from the chain top into it")
    into_top = None
    if args.top is not None:
        into_top = morphism_from_json(_load_json(args.into), chain.graphs[-1], _load_graph(args.top))
    report = check_continuity(chain, into_top, degree=args.degree, budget=args.budget)
    return {
        "ok": report.ok,
        "levels": report.levels,
        "sample_sizes": list(report.sample_sizes),
        "mismatches": list(report.mismatches),
        "uncovered_generators": list(report.uncovered_generators),
        "merged_classes": list(report.merged_classes),
    }


def _random_element(rng: random.Random, alphabet, max_degree: int) -> MonoidElement:
    degree = rng.randint(0, max_degree)
    counts: dict[Generator, int] = {}
    for _ in range(degree):
        gen = rng.choice(alphabet)
        counts[gen] = counts.get(gen, 0) + 1
    return MonoidElement.from_counts(counts)


def _cmd_oracle_check(args) -> dict:
    from .oracle import cross_check

    _require_non_negative(args, "samples", "degree")
    g = _load_graph(args.graph)
    p = presentation_of(g)
    rng = random.Random(args.seed)
    vertex_gens = tuple(gen for gen in p.alphabet if not gen.is_cofinite)
    pairs = [
        (_random_element(rng, vertex_gens, args.degree), _random_element(rng, vertex_gens, args.degree))
        for _ in range(args.samples)
    ]
    report = cross_check(g, pairs, args.budget)
    return {
        "samples": args.samples,
        "seed": args.seed,
        "agreements": report.agreements,
        "discrepancies": len(report.discrepancies),
        "details": list(report.discrepancies),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmonoid",
        description="graph monoid toolkit: presentations, word problem, tails, limits",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--budget", type=int, default=None, help="completion S-pair budget")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **arguments):
        sp = sub.add_parser(name)
        for arg, kwargs in arguments.items():
            sp.add_argument(f"--{arg.replace('_', '-')}", **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    cmd("validate", _cmd_validate, graph=dict(required=True))
    cmd("present", _cmd_present, graph=dict(required=True))
    cmd("normal-form", _cmd_normal_form, graph=dict(required=True), element=dict(required=True))
    cmd("equal", _cmd_equal, graph=dict(required=True), lhs=dict(required=True), rhs=dict(required=True))
    cmd("desingularize", _cmd_desingularize, graph=dict(required=True), level=dict(required=True, type=int))
    cmd("phi", _cmd_phi, graph=dict(required=True), element=dict(required=True), level=dict(type=int, default=None))
    cmd("psi", _cmd_psi, graph=dict(required=True), element=dict(required=True), level=dict(required=True, type=int))
    cmd("ck-check", _cmd_ck_check, morphism=dict(required=True), source=dict(required=True), target=dict(required=True))
    cmd("induced-map", _cmd_induced_map, morphism=dict(required=True), source=dict(required=True), target=dict(required=True))
    cmd("colimit", _cmd_colimit, system=dict(required=True))
    cmd(
        "continuity-check",
        _cmd_continuity_check,
        system=dict(required=True),
        top=dict(default=None),
        into=dict(default=None),
        degree=dict(type=int, default=2),
    )
    cmd(
        "oracle-check",
        _cmd_oracle_check,
        graph=dict(required=True),
        samples=dict(type=int, default=50),
        seed=dict(type=int, default=0),
        degree=dict(type=int, default=4),
    )
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        doc = args.fn(args)
    except BudgetExceededError as exc:
        _emit({"error": str(exc), "undecided": True}, args.format)
        return EXIT_UNDECIDED
    except ValueError as exc:
        # every error of the library is a ValueError; a module's own errors
        # are looked up only here, once a command has raised
        from .desingularize import MaterializationError, TruncationError
        from .limits import MorphismError
        from .oracle import OracleError

        if isinstance(exc, TruncationError):
            _emit({"error": str(exc), "required_level": exc.required}, args.format)
        elif isinstance(
            exc,
            (InputError, GraphError, PresentationError, EngineError, MorphismError, OracleError, MaterializationError),
        ):
            _emit({"error": str(exc)}, args.format)
        else:
            raise
        return EXIT_INVALID
    _emit(doc, args.format)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
