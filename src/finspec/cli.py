"""Command-line interface.

Subcommands: validate, distance, morphism, decompose, example, compare.
All input and output is JSON; every report carries a top-level "pass" flag
and the exit status is 0 iff all requested checks pass.  Usage errors exit
with 2, failed checks with 1, I/O problems with 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys

from . import category, geometry, metric, triple as triple_mod
from .errors import AlgebraMismatch, ToolkitError


def _load_json(path: str):
    """Parse a JSON file.  An unreadable file is an I/O error; malformed JSON
    is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise _UsageFailure(f"malformed JSON in {path}: {exc}") from exc


def _decode(path: str, what: str, decode):
    """Read a JSON file and decode it.  Every error the decoder raises, a
    toolkit error included, means the file is not a valid input: a usage
    error.

    A triple file is an acyclic tree of up to ~10^4 lists, which reference
    counting frees once it is decoded.  The cyclic collector is paused until
    then: collecting while the tree is built promotes it to the oldest
    generation and sets off a full collection every few loads.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return decode(_load_json(path))
    except (KeyError, ValueError, TypeError, ToolkitError) as exc:
        raise _UsageFailure(f"malformed {what} in {path}: {exc!r}") from exc
    finally:
        if enabled:
            gc.enable()


def _load_triple(path: str):
    """Read a triple, unwrapping the {'triple': ...} envelope that the
    example subcommand emits."""

    def decode(doc):
        if isinstance(doc, dict) and "triple" in doc and "algebra" not in doc:
            doc = doc["triple"]
        return triple_mod.triple_from_json(doc)

    return _decode(path, "triple", decode)


class _UsageFailure(Exception):
    pass


class _IOFailure(Exception):
    pass


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc
    else:
        print(text)


def cmd_validate(args) -> int:
    t = _load_triple(args.triple)
    tol = args.tol if args.tol is not None else triple_mod.ALGEBRAIC_TOL
    report = triple_mod.validate_triple(t, tol=tol)
    payload = {"validation": report.to_json()}
    ok = report.passed
    if t.real_structure is not None:
        real = triple_mod.check_real_structure(t, tol=tol)
        payload["real"] = real.to_json()
        payload["ko_dimension"] = sorted(triple_mod.ko_dimension(real.signs))
        ok = ok and real.passed
    payload["pass"] = ok
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_distance(args) -> int:
    if args.complex_search and args.states is None:
        raise _UsageFailure("--complex-search checks one pair: give --states I J")
    t = _load_triple(args.triple)
    if args.complex_search and t.algebra.k > 4:
        raise _UsageFailure(
            f"--complex-search runs the grid oracle, which is limited to "
            f"k <= 4 characters; this triple has k = {t.algebra.k}"
        )
    if args.states is not None:
        i, j = args.states
        try:
            w1 = t.algebra.pure_state(i - 1)
            w2 = t.algebra.pure_state(j - 1)
        except AlgebraMismatch as exc:
            raise _UsageFailure(
                f"--states {i} {j}: characters are numbered 1..{t.algebra.k}"
            ) from exc
        d = metric.connes_distance(t, w1, w2, seed=args.seed)
        payload = {"pass": True, "distance": d.to_json()}
        if args.complex_search:
            real_lb = metric.brute_force_distance(t, w1, w2, box=4.0, grid=21)
            cplx_lb = metric.brute_force_distance(
                t, w1, w2, box=4.0, grid=21, complex_phases=4
            )
            payload["crosscheck"] = {
                "real_grid_lower_bound": real_lb,
                "complex_grid_lower_bound": cplx_lb,
            }
        _emit(payload, args.out)
        return 0
    dm = metric.distance_matrix(t, seed=args.seed)
    _emit({"pass": True, **dm.to_json()}, args.out)
    return 0


def cmd_morphism(args) -> int:
    t1 = _load_triple(args.triple1)
    t2 = _load_triple(args.triple2)
    m = _decode(args.morphism, "morphism",
                lambda doc: category.morphism_from_json(t1, t2, doc))
    tol = args.tol
    if isinstance(m, category.MetricMorphism):
        report = category.check_metric_morphism(
            t1, t2, m.hom,
            tol=tol if tol is not None else category.DISTANCE_TOL, seed=args.seed
        )
        payload = report.to_json()
    else:
        report = category.check_sf_morphism(
            t1, t2, m, tol=tol if tol is not None else category.MORPHISM_TOL
        )
        payload = report.to_json()
        if m.isometric and report.passed:
            contraction = category.check_pullback_contraction(
                t1, t2, m, seed=args.seed
            )
            payload["contraction"] = contraction.to_json()
            payload["pass"] = payload["pass"] and contraction.passed
    _emit(payload, args.out)
    return 0 if payload["pass"] else 1


def cmd_decompose(args) -> int:
    t = _load_triple(args.triple)
    components = triple_mod.decompose(t)
    prefix = args.out or "component"
    paths = []
    for idx, comp in enumerate(components, start=1):
        paths.append(f"{prefix}_{idx}.json")
        _emit(triple_mod.triple_to_json(comp), paths[-1])
    print(json.dumps({
        "pass": True,
        "components": len(components),
        "character_counts": [c.algebra.k for c in components],
        "files": paths,
    }, indent=2))
    return 0


_EXAMPLE_RE = re.compile(r"^(circle|interval)_(\d+)$")


def build_example(name: str, length: float = 1.0, radius: float = 1.0):
    """The built-in gallery: two_point, circle_N, interval_N, disjoint_circles."""
    if name == "two_point":
        return geometry.two_point_geometry(length)
    m = _EXAMPLE_RE.match(name)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if kind == "circle":
            return geometry.lattice_circle(n, radius)
        return geometry.lattice_interval(n, length)
    if name == "disjoint_circles":
        g1, _ = geometry.lattice_circle(3, radius)
        g2, _ = geometry.lattice_circle(3, radius)
        g = geometry.disjoint_union(g1, g2)
        even = geometry.graph_triple(g)
        odd = triple_mod.SpectralTriple(even.algebra, even.dirac, None,
                                        even.real_structure, "odd")
        return g, odd
    raise _UsageFailure(f"unknown example '{name}'")


def cmd_example(args) -> int:
    g, t = build_example(args.name, length=args.length, radius=args.radius)
    _emit({
        "pass": True,
        "geometry": geometry.geometry_to_json(g),
        "triple": triple_mod.triple_to_json(t),
    }, args.out)
    return 0


def cmd_compare(args) -> int:
    g = _decode(args.geometry, "geometry", geometry.geometry_from_json)
    t = geometry.graph_triple(g)
    report = geometry.compare_metrics(g, t, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finspec",
        description="finite spectral-triple toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="axiom checks, real structure, KO signs")
    p.add_argument("triple")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("distance", help="distance matrix or a single pair")
    p.add_argument("triple")
    p.add_argument("--states", nargs=2, type=int, metavar=("I", "J"))
    p.add_argument("--complex-search", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("morphism", help="check a morphism between two triples")
    p.add_argument("triple1")
    p.add_argument("triple2")
    p.add_argument("morphism")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("decompose", help="split into irreducible components")
    p.add_argument("triple")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("example", help="emit a built-in geometry and triple")
    p.add_argument("name")
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("compare", help="spectral vs geodesic distance report")
    p.add_argument("geometry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IOFailure as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (ToolkitError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
