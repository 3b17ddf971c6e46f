"""The benchmark's three workloads: seeded inputs, the calls of one round,
and the checks that decide whether each answer is correct.

Every call goes through a module attribute of finspec (``metric.distance_matrix``,
``cli.main``) so that the traced run, which replaces those attributes, sees
it.  Inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from finspec import category, cli, geometry, metric, triple

DISTANCE_TOL = 1e-6      # the package's relative distance tolerance
FEASIBILITY_TOL = 1e-9   # slack on ||[D, pi(cert)]|| <= 1
N_MIXED = 8              # mixed-state pairs in check_pullback_contraction

WORKLOADS = ("geodesic_gallery", "cyclic_graphs", "cli_session")


@dataclass
class Call:
    """One closed-loop operation of a round.

    ``check(output)`` returns (errors, worst relative error against an exact
    reference or None).  ``certify()`` re-solves every pair of the call's
    triple through ``connes_distance``, checks each certificate and returns
    the errors; it runs once per run, untimed, before the checks, which use
    the certified lower bounds it leaves behind.
    """
    label: str
    run: Callable[[], object]
    pairs: int
    check: Callable[[object], tuple]
    certify: Callable[[], list] | None = None
    heavy: bool = False


def build(name: str, seed: int, workdir: str) -> list:
    """Build the inputs of one workload (writing its JSON files), warm up,
    and return the calls of one round."""
    rng = np.random.default_rng(seed)
    if name in ("geodesic_gallery", "cyclic_graphs"):
        graphs = _gallery(rng) if name == "geodesic_gallery" else _cyclic(rng)
        solver_seed = int(rng.integers(1 << 16))
        calls = [_matrix_call(label, g, t, solver_seed)
                 for label, g, t in graphs]
    elif name == "cli_session":
        calls = _cli_calls(rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    _warm_up(name, workdir)
    return calls


# --- graph inputs --------------------------------------------------------------

def second_endpoint_multiplicity(g) -> int:
    """Largest number of edges sharing a vertex as their second endpoint.

    At most 1 (paths, circles, trees as built here) makes the geodesic an
    exact reference for the spectral distance; 2 or more puts a curved
    constraint into the problem and the distance drops below the geodesic.
    """
    counts = np.zeros(g.k, dtype=int)
    for _, j, _ in g.edges:
        counts[j] += 1
    return int(counts.max()) if g.edges else 0


# Graph shapes are fixed; for the trees, circles and intervals the seed
# draws edge lengths and radii.  Shape alone moves the solver cost of a
# 5-vertex cyclic graph by up to 3x, and on cyclic graphs the edge lengths do
# too: they decide how many pairs stop at Kelley's 200-cut cap, and one graph
# took 0.8 to 5.5 s over ten length draws.  So cyclic_graphs keeps its graphs
# (shapes and lengths) fixed and takes from the seed the solver seed and the
# order of the graphs.  They have 4 vertices (1 to 1.6 s each, LP 60-75 %),
# not 5 (1.6 to 3.7 s): more, shorter calls fit into a run, so that each
# call's median over the rounds is steadier.
SHAPE_SEED = 2008


def _shapes(k: int, extra_edges: int, count: int):
    rng = np.random.default_rng([SHAPE_SEED, k, extra_edges])
    return [geometry.random_connected_geometry(rng, k, extra_edges)
            for _ in range(count)]


def _with_lengths(shape, rng, low=0.5, high=2.0):
    """The shape with edge lengths drawn from the workload seed."""
    return geometry.DiscreteGeometry(
        shape.labels,
        tuple((i, j, float(rng.uniform(low, high))) for i, j, _ in shape.edges))


def _gallery(rng):
    # circle_8 is the largest call and sets call_ms_p90; its radius moved its
    # cost by 10-20 %, so it is fixed.
    g, t = geometry.lattice_circle(8, 1.0)
    yield "circle_8", g, t
    g, t = geometry.lattice_circle(6, float(rng.uniform(0.5, 2.0)))
    yield "circle_6", g, t
    g, t = geometry.lattice_interval(6, float(rng.uniform(1.0, 4.0)))
    yield "interval_6", g, t
    for n, shape in enumerate(_shapes(6, 0, 3)):
        g = _with_lengths(shape, rng)
        yield f"tree_6.{n}", g, geometry.graph_triple(g)


def _cyclic(rng):
    shapes = _shapes(4, 2, 3)
    for n in rng.permutation(len(shapes)):
        g = shapes[n]
        yield f"cyclic_4_2.{n}", g, geometry.graph_triple(g)


def _matrix_call(label, g, t, solver_seed) -> Call:
    geo = geometry.geodesic_matrix(g)
    exact = second_endpoint_multiplicity(g) <= 1
    lower = np.full(geo.shape, np.nan)   # filled in by certify_matrix
    return Call(
        label=label,
        run=lambda: metric.distance_matrix(t, seed=solver_seed),
        pairs=g.k * (g.k - 1) // 2,
        check=lambda dm: check_matrix(np.asarray(dm.values), geo, exact, lower),
        certify=lambda: certify_matrix(t, geo, exact, solver_seed, lower),
    )


# --- checks ---------------------------------------------------------------------
#
# Every test is written as "not (value within bound)", so that a NaN, which
# compares false with everything, fails it.

def check_matrix(values: np.ndarray, geo: np.ndarray, exact: bool,
                 lower: np.ndarray | None = None):
    """Spectral matrix against the geodesic one and the certified bounds.

    The diagonal must be 0 and the entries +inf exactly where the geodesic
    is infinite.  Every other entry must be finite, at most the geodesic,
    at least the certified lower bound ``lower`` (from certify_matrix; NaN
    where no certificate was obtained, which fails), and equal to the
    geodesic where that is exact.
    """
    if values.shape != geo.shape:
        return [f"matrix shape {values.shape}, expected {geo.shape}"], None
    errors = []
    off = ~np.eye(len(geo), dtype=bool)
    if not np.all(np.diag(values) == 0):
        errors.append(f"diagonal is {np.diag(values).tolist()}, expected 0")
    infinite = np.isinf(geo) & off
    if not np.all(values[infinite] == math.inf):
        errors.append("infinity pattern differs from geodesic_matrix")
    finite = ~np.isinf(geo) & off
    v, g = values[finite], geo[finite]
    if not np.all(np.isfinite(v)):
        errors.append(f"{int(np.sum(~np.isfinite(v)))} entries not finite "
                      f"where the geodesic is finite")
    above = ~(v <= g * (1 + DISTANCE_TOL))
    if above.any():
        errors.append(f"{int(above.sum())} entries exceed the geodesic")
    if lower is not None:
        below = ~(v >= lower[finite] * (1 - DISTANCE_TOL))
        if below.any():
            errors.append(f"{int(below.sum())} entries below the certified "
                          f"lower bound |c.cert| / ||[D, pi(cert)]||")
    ref_err = None
    if exact and v.size:
        ref_err = float(np.max(np.abs(v - g) / g))
        if not ref_err <= DISTANCE_TOL:
            errors.append(f"distance differs from exact geodesic by {ref_err:.3e}")
        if not math.isfinite(ref_err):
            ref_err = None
    return errors, ref_err


def certify_matrix(t, geo: np.ndarray, exact: bool, seed: int,
                   lower: np.ndarray) -> list:
    """Re-solve every pair through connes_distance and check each answer and
    its certificate; writes |c.cert| / ||[D, pi(cert)]||, a lower bound on
    the true distance, into ``lower`` (+inf for infinite pairs)."""
    dirac = np.asarray(t.dirac)
    comms = [dirac @ p - p @ dirac for p in t.algebra.projections]
    np.fill_diagonal(lower, 0.0)
    errors = []
    for i in range(t.algebra.k):
        for j in range(i + 1, t.algebra.k):
            w1, w2 = t.algebra.pure_state(i), t.algebra.pure_state(j)
            try:
                d = metric.connes_distance(t, w1, w2, seed=seed)
                c = np.asarray(w1.weights) - np.asarray(w2.weights)
                more, bound = certify_value(d, c, comms, float(geo[i, j]), exact)
            except Exception as exc:
                more, bound = [f"{type(exc).__name__}: {exc}"], math.nan
            lower[i, j] = lower[j, i] = bound
            errors += [f"pair ({i},{j}): {e}" for e in more]
    return errors


def certify_value(d, c: np.ndarray, comms: list, geo_ij: float, exact: bool):
    """Check one DistanceValue against the geodesic and its certificate.

    Returns (errors, certified lower bound on the distance)."""
    if math.isinf(geo_ij) or d.is_infinite:
        if not (math.isinf(geo_ij) and d.value == math.inf):
            return [f"distance {d.value}, geodesic {geo_ij}"], math.nan
        return [], math.inf
    errors = []
    value = float(d.value)
    if not value <= geo_ij * (1 + DISTANCE_TOL):
        errors.append(f"{value!r} exceeds geodesic {geo_ij!r}")
    if exact and not abs(value - geo_ij) <= DISTANCE_TOL * geo_ij:
        errors.append(f"{value!r} differs from geodesic {geo_ij!r}")
    if not d.solver_residual * value <= DISTANCE_TOL:
        errors.append(f"solver_residual*d = {d.solver_residual * value!r}")
    if d.certificate is None:
        return errors + ["no certificate"], math.nan
    x = np.asarray(d.certificate.values)
    lip = float(np.linalg.norm(sum(xi * k for xi, k in zip(x, comms)), 2))
    if not lip <= 1 + FEASIBILITY_TOL:
        errors.append(f"certificate has ||[D,x]|| = {lip!r}")
    gain = float(abs(c @ x))
    if not abs(gain - value) <= DISTANCE_TOL * value:
        errors.append(f"|c.cert| = {gain!r}, d = {value!r}")
    return errors, gain / max(lip, 1.0)


# --- cli_session ------------------------------------------------------------------

def cli_call(argv):
    """Run finspec.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _parse(output, code):
    """Common part of every CLI check: exit code and a JSON document."""
    got, text, err = output
    if got != code:
        return None, [f"exit code {got}, expected {code}: {err.strip()[:200]}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("pass") is not (code == 0):
        return None, [f"'pass' flag does not match exit code {code}"]
    return doc, []


def _check_ko(n):
    def check(output):
        doc, errors = _parse(output, 0)
        if doc is not None and doc.get("ko_dimension") != [n]:
            errors.append(f"KO-dimension {doc.get('ko_dimension')}, expected [{n}]")
        return errors, None
    return check


def _check_graph_validate(output):
    # Graph triples fail the first-order condition by design (README).
    doc, errors = _parse(output, 1)
    if doc is not None and "validation" not in doc:
        errors.append("no validation report")
    return errors, None


def _check_decompose(sizes):
    def check(output):
        doc, errors = _parse(output, 0)
        if doc is not None and sorted(doc.get("character_counts", [])) != sizes:
            errors.append(f"component sizes {doc.get('character_counts')}, "
                          f"expected {sizes}")
        return errors, None
    return check


def _wire_value(v):
    return math.inf if v == "inf" else float(v)


def _check_pair(expected, complex_search=False):
    def check(output):
        doc, errors = _parse(output, 0)
        if doc is None:
            return errors, None
        d = _wire_value(doc["distance"]["value"])
        if math.isinf(expected) or math.isinf(d):
            if not (math.isinf(expected) and d == math.inf):
                errors.append(f"distance {d}, geodesic {expected}")
            return errors, None
        rel = abs(d - expected) / expected
        if not rel <= DISTANCE_TOL:
            errors.append(f"distance {d!r} differs from geodesic {expected!r}")
        if not doc["distance"]["solver_residual"] * d <= DISTANCE_TOL:
            errors.append("solver_residual*d above tolerance")
        if complex_search:
            for key, lb in doc["crosscheck"].items():
                if not lb <= d * (1 + DISTANCE_TOL):
                    errors.append(f"{key} {lb!r} exceeds the distance {d!r}")
        return errors, rel if math.isfinite(rel) else None
    return check


def _check_full(geo, lower):
    def check(output):
        doc, errors = _parse(output, 0)
        if doc is None:
            return errors, None
        values = np.array([[_wire_value(v) for v in row] for row in doc["matrix"]])
        more, ref_err = check_matrix(values, geo, True, lower)
        return errors + more, ref_err
    return check


def _check_morphism(pairs):
    def check(output):
        doc, errors = _parse(output, 0)
        if doc is not None:
            contraction = doc.get("contraction") or {}
            if contraction.get("pairs_checked") != pairs:
                errors.append(f"contraction checked {contraction.get('pairs_checked')}"
                              f" pairs, expected {pairs}")
        return errors, None
    return check


def _check_compare(output):
    doc, errors = _parse(output, 0)
    if doc is None:
        return errors, None
    dev = doc["max_relative_deviation"]
    if not (doc["infinite_pattern_match"] is True and dev <= DISTANCE_TOL):
        errors.append(f"compare: pattern {doc['infinite_pattern_match']}, "
                      f"max deviation {dev!r}")
    return errors, dev


def _write(workdir, name, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _example_envelope(g, t):
    # The layout `finspec example` writes; the CLI unwraps it on load.
    return {"pass": True, "geometry": geometry.geometry_to_json(g),
            "triple": triple.triple_to_json(t)}


def _disjoint_sum(rng):
    parts = [geometry.lattice_circle(3, float(rng.uniform(0.5, 2.0)))[0],
             geometry.lattice_circle(4, float(rng.uniform(0.5, 2.0)))[0],
             geometry.lattice_interval(3, float(rng.uniform(1.0, 3.0)))[0],
             geometry.lattice_interval(2, float(rng.uniform(0.5, 2.0)))[0],
             geometry.lattice_circle(3, float(rng.uniform(0.5, 2.0)))[0]]
    order = rng.permutation(len(parts))
    g = parts[order[0]]
    for idx in order[1:]:
        g = geometry.disjoint_union(g, parts[idx])
    return g


def _cli_calls(rng, workdir):
    # The heavy commands, the oracle cross-checks, the tree and the circle
    # take their inputs from ``fixed``, not from the seed: lengths, pairs and
    # mixed states moved the cost of the heavy commands by 10-20 % between
    # seeds, and that of one circle pair by up to 2x.  The seed draws the
    # interval, the cross-component pairs and the order of the session.
    fixed = np.random.default_rng([SHAPE_SEED, 0])
    calls = []

    for n in range(8):
        path = _write(workdir, f"ko_{n}.json",
                      triple.triple_to_json(triple.standard_ko_triple(n)))
        calls.append(Call(f"validate ko_{n}",
                          _argv_runner(["validate", path]), 0, _check_ko(n)))

    graphs = {
        "tree": _with_lengths(_shapes(5, 0, 1)[0], fixed),
        "circle": geometry.lattice_circle(7, float(fixed.uniform(0.5, 2.0)))[0],
        "interval": geometry.lattice_interval(4, float(rng.uniform(1.0, 3.0)))[0],
        "sum": _disjoint_sum(fixed),
    }
    paths, geos, triples = {}, {}, {}
    for name, g in graphs.items():
        paths[name], geos[name], triples[name] = _graph_file(workdir, name, g, calls)

    # Single pairs.  The quantiles of call latency sit inside two clusters of
    # like work instead of on a jump between classes of commands: 40
    # cross-component pairs on the k = 15 sum (load, coupling components,
    # infinite detection, emit; about 35 ms) straddle the median, and 16
    # repeats of one pair three steps apart on the 7-point circle (about
    # 60 ms) hold the 90th percentile above them and below the six oracle and
    # heavy commands.
    k_sum = graphs["sum"].k
    infinite = [(i, j) for i in range(k_sum) for j in range(k_sum)
                if np.isinf(geos["sum"][i, j])]
    picks = [("sum",) + infinite[n] for n in rng.choice(len(infinite), 40)]
    i = int(fixed.integers(7))
    picks += [("circle", i, (i + 3) % 7)] * 16
    for name, i, j in picks:
        calls.append(Call(
            f"distance {name} {i + 1} {j + 1}",
            _argv_runner(["distance", paths[name], "--states",
                          str(i + 1), str(j + 1)]),
            1, _check_pair(float(geos[name][i, j]))))

    # Single pairs cross-checked by the grid oracle, on k = 3 triples.
    small = [geometry.lattice_interval(3, float(fixed.uniform(1.0, 3.0)))[0],
             geometry.lattice_circle(3, float(fixed.uniform(0.5, 2.0)))[0],
             _with_lengths(_shapes(3, 0, 1)[0], fixed)]
    for n, g in enumerate(small):
        path, _, _ = _graph_file(workdir, f"small_{n}", g, calls)
        i, j = (int(v) for v in fixed.choice(3, size=2, replace=False))
        calls.append(Call(
            f"distance small_{n} {i + 1} {j + 1} --complex-search",
            _argv_runner(["distance", path, "--states", str(i + 1), str(j + 1),
                          "--complex-search"]),
            1, _check_pair(float(geometry.geodesic_matrix(g)[i, j]),
                           complex_search=True)))

    # Heavy commands: a full matrix on the k = 15 disjoint sum, a restriction
    # sf-morphism with its contraction check, and a geodesic comparison.
    # The CLI prints no certificates; the sum's pairs are re-solved with the
    # CLI's default solver seed 0 to certify the lower bounds.
    lower = np.full(geos["sum"].shape, np.nan)
    calls.append(Call(
        "distance sum", _argv_runner(["distance", paths["sum"]]),
        k_sum * (k_sum - 1) // 2, _check_full(geos["sum"], lower),
        certify=lambda: certify_matrix(triples["sum"], geos["sum"], True, 0, lower),
        heavy=True))

    g_src = geometry.disjoint_union(
        geometry.lattice_circle(3, float(fixed.uniform(0.5, 2.0)))[0],
        geometry.lattice_interval(2, float(fixed.uniform(0.5, 2.0)))[0])
    t_src = geometry.graph_triple(g_src)
    sub, morph = category.restriction_morphism(t_src, [0, 1, 2])
    # --seed draws the mixed states of the contraction check.
    argv = ["morphism",
            _write(workdir, "morph_source.json", triple.triple_to_json(t_src)),
            _write(workdir, "morph_target.json", triple.triple_to_json(sub)),
            _write(workdir, "morph.json", category.morphism_to_json(morph)),
            "--seed", str(int(fixed.integers(1 << 16)))]
    contraction_pairs = 3 + N_MIXED
    calls.append(Call("morphism restriction", _argv_runner(argv),
                      2 * contraction_pairs, _check_morphism(contraction_pairs),
                      heavy=True))

    g_cmp = graphs["tree"]
    path = _write(workdir, "compare.json", geometry.geometry_to_json(g_cmp))
    calls.append(Call("compare tree", _argv_runner(["compare", path]),
                      g_cmp.k * (g_cmp.k - 1) // 2, _check_compare, heavy=True))

    # A session interleaves the commands; the order is part of the seed.
    return [calls[i] for i in rng.permutation(len(calls))]


def _graph_file(workdir, name, g, calls):
    """Write the graph's triple, queue a validate and a decompose of it, and
    return (path, geodesic matrix, triple)."""
    if second_endpoint_multiplicity(g) > 1:
        raise ValueError(f"{name}: the geodesic would not be an exact reference")
    t = geometry.graph_triple(g)
    doc = (_example_envelope(g, t) if name in ("circle", "sum")
           else triple.triple_to_json(t))
    path = _write(workdir, f"{name}.json", doc)
    sizes = sorted(len(c) for c in geometry.graph_components(g))
    calls.append(Call(f"validate {name}", _argv_runner(["validate", path]),
                      0, _check_graph_validate))
    calls.append(Call(f"decompose {name}",
                      _argv_runner(["decompose", path, "--out",
                                    os.path.join(workdir, f"part_{name}")]),
                      0, _check_decompose(sizes)))
    return path, geometry.geodesic_matrix(g), t


def _argv_runner(argv):
    return lambda: cli_call(argv)


# --- warm-up ----------------------------------------------------------------------

def _warm_up(name, workdir):
    """One small untimed pass through the code paths a round uses, so that
    lazy imports and first-call costs land in set-up, not in the round."""
    g, t = geometry.lattice_circle(4, 1.0)
    metric.distance_matrix(t)
    if name == "cli_session":
        path = _write(workdir, "warm.json", triple.triple_to_json(t))
        for argv in (["validate", path], ["decompose", path, "--out",
                                           os.path.join(workdir, "warm_part")],
                     ["distance", path, "--states", "1", "3"]):
            cli_call(argv)
