import copy
import gc
import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finspec as fs
from finspec import category, cli
from finspec.geometry import disjoint_union, geometry_to_json, graph_triple
from finspec.numerics import matrix_to_json
from finspec.triple import (standard_ko_triple, triple_from_json,
                            triple_to_json)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ko0_path(tmp_path):
    return write_json(tmp_path / "ko0.json", triple_to_json(standard_ko_triple(0)))


@pytest.fixture
def two_point_path(tmp_path):
    t = fs.two_point_geometry(0.5)[1]
    return write_json(tmp_path / "tp.json", triple_to_json(t))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes_on_ko_triple(ko0_path, capsys):
    code, out, _ = run(capsys, "validate", ko0_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["ko_dimension"] == [0]


def test_validate_fails_on_nonhermitian_dirac(tmp_path, capsys):
    doc = triple_to_json(standard_ko_triple(0))
    doc["dirac"]["entries"][0][1] = [3.0, 0.0]  # break self-adjointness
    path = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    report = json.loads(out)
    names = {c["name"]: c["pass"] for c in report["validation"]["checks"]}
    assert names["dirac_selfadjoint"] is False


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 3
    assert "I/O" in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate", "x.json")
    assert code == 2


def test_distance_pair(two_point_path, capsys):
    code, out, _ = run(capsys, "distance", two_point_path, "--states", "1", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"]["value"] == pytest.approx(0.5, rel=1e-6)


def test_distance_matrix_deterministic(two_point_path, capsys):
    code1, out1, _ = run(capsys, "distance", two_point_path, "--seed", "4")
    code2, out2, _ = run(capsys, "distance", two_point_path, "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_example_validate_distance_pipeline(tmp_path, capsys):
    ex = str(tmp_path / "ex.json")
    code, _, _ = run(capsys, "example", "interval_3", "--length", "2.0",
                     "--out", ex)
    assert code == 0
    code, out, _ = run(capsys, "distance", ex)
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"][0][2] == pytest.approx(2.0, rel=1e-6)


def test_example_unknown_name(capsys):
    code, _, _ = run(capsys, "example", "moebius_7")
    assert code == 2


def test_decompose_writes_components(tmp_path, capsys, monkeypatch):
    t = fs.direct_sum(fs.two_point_geometry(1.0)[1], fs.two_point_geometry(2.0)[1])
    path = write_json(tmp_path / "sum.json", triple_to_json(t))
    prefix = str(tmp_path / "part")
    code, out, _ = run(capsys, "decompose", path, "--out", prefix)
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == 2
    assert doc["character_counts"] == [2, 2]
    for f in doc["files"]:
        sub = triple_from_json(json.loads(open(f).read()))
        assert fs.validate_triple(sub).passed


def test_morphism_identity_exit_zero(tmp_path, ko0_path, capsys):
    t = standard_ko_triple(0)
    morph = {
        "kind": "sf",
        "character_map": [1],
        "phi_matrix": {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                             [[0.0, 0.0], [1.0, 0.0]]]},
        "flags": {"real": True, "even": True, "isometric": True},
    }
    mpath = write_json(tmp_path / "id.json", morph)
    code, out, _ = run(capsys, "morphism", ko0_path, ko0_path, mpath)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    residuals = [c["residual"] for c in doc["checks"]]
    assert max(residuals) <= 1e-8


def test_compare_report(tmp_path, capsys):
    g = fs.lattice_circle(4, 1.0)[0]
    from finspec.geometry import geometry_to_json
    path = write_json(tmp_path / "g.json", geometry_to_json(g))
    code, out, _ = run(capsys, "compare", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["infinite_pattern_match"] is True
    assert doc["max_relative_deviation"] <= 1e-6


def test_out_flag_writes_file(tmp_path, ko0_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", ko0_path, "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["pass"] is True


@pytest.mark.parametrize("states", [("0", "2"), ("1", "4"), ("4", "1")])
def test_distance_states_out_of_range_is_usage_error(tmp_path, capsys, states):
    path = write_json(tmp_path / "i3.json",
                      triple_to_json(fs.lattice_interval(3, 2.0)[1]))
    code, out, err = run(capsys, "distance", path, "--states", *states)
    assert code == 2
    assert out == ""
    assert "1..3" in err


def test_distance_rejects_nonhermitian_dirac(tmp_path, capsys):
    doc = triple_to_json(fs.two_point_geometry(5.0)[1])
    doc["dirac"]["entries"][0][1] = [5.0, 0.0]
    path = write_json(tmp_path / "bad.json", doc)
    code, out, err = run(capsys, "distance", path)
    assert code == 1
    assert out == ""
    assert "Hermitian" in err
    code, out, _ = run(capsys, "distance", path, "--states", "1", "2")
    assert code == 1
    assert out == ""
    # validate still reports the failed axiom instead of raising
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    names = {c["name"]: c["pass"] for c in json.loads(out)["validation"]["checks"]}
    assert names["dirac_selfadjoint"] is False


def _nan_entry(doc):
    doc["dirac"]["entries"][0][1] = [float("nan"), 0.0]


def _inf_entry(doc):
    doc["dirac"]["entries"][1][0] = [0.0, float("inf")]


def _short_row(doc):
    doc["dirac"]["entries"][0].pop()


def _missing_dirac(doc):
    del doc["dirac"]


def _wrong_size_dirac(doc):
    doc["dirac"] = matrix_to_json(np.zeros((3, 3)))


def _wrong_size_grading(doc):
    doc["grading"] = matrix_to_json(np.diag([1.0, -1.0, 1.0]))


def _wrong_size_real_part(doc):
    doc["real_unitary_part"] = matrix_to_json(np.eye(3))


@pytest.mark.parametrize("corrupt", [_nan_entry, _inf_entry, _short_row,
                                     _missing_dirac, _wrong_size_dirac,
                                     _wrong_size_grading,
                                     _wrong_size_real_part])
def test_malformed_triple_is_usage_error(tmp_path, capsys, corrupt):
    doc = triple_to_json(fs.two_point_geometry(0.5)[1])
    corrupt(doc)
    path = write_json(tmp_path / "malformed.json", doc)
    code, out, err = run(capsys, "distance", path)
    assert code == 2
    assert out == ""
    assert "malformed triple" in err


def test_complex_search_beyond_oracle_limit_is_usage_error(tmp_path, capsys):
    ex = str(tmp_path / "c6.json")
    assert run(capsys, "example", "circle_6", "--out", ex)[0] == 0
    code, out, err = run(capsys, "distance", ex, "--states", "1", "2",
                         "--complex-search")
    assert code == 2
    assert out == ""
    assert "k <= 4" in err


def test_complex_search_within_oracle_limit(tmp_path, capsys):
    path = write_json(tmp_path / "i3.json",
                      triple_to_json(fs.lattice_interval(3, 2.0)[1]))
    code, out, _ = run(capsys, "distance", path, "--states", "1", "3",
                       "--complex-search")
    assert code == 0
    doc = json.loads(out)
    d = doc["distance"]["value"]
    assert set(doc["crosscheck"]) == {"real_grid_lower_bound",
                                      "complex_grid_lower_bound"}
    assert all(lb <= d * (1 + 1e-9) for lb in doc["crosscheck"].values())


def test_invalid_projection_family_is_rejected(tmp_path, capsys):
    doc = triple_to_json(fs.lattice_interval(3, 2.0)[1])
    projections = doc["algebra"]["projections"]
    p0, p1 = (np.array(p["entries"]) for p in projections[:2])
    projections[0]["entries"] = (p0 + p1).tolist()  # P0 := P0 + P1
    path = write_json(tmp_path / "overlap.json", doc)
    for argv in (["distance", path], ["distance", path, "--states", "1", "3"],
                 ["decompose", path, "--out", str(tmp_path / "part")]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "orthogonal resolution of the identity" in err
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    names = {c["name"]: c["pass"] for c in json.loads(out)["validation"]["checks"]}
    assert names["representation_projections"] is False


def test_complex_search_without_states_is_usage_error(tmp_path, capsys):
    path = write_json(tmp_path / "i3.json",
                      triple_to_json(fs.lattice_interval(3, 2.0)[1]))
    code, out, err = run(capsys, "distance", path, "--complex-search")
    assert code == 2
    assert out == ""
    assert "--states" in err


def test_malformed_morphism_is_usage_error(tmp_path, capsys):
    t = graph_triple(disjoint_union(fs.lattice_circle(3, 1.0)[0],
                                    fs.lattice_interval(2, 1.0)[0]))
    sub, morph = category.restriction_morphism(t, [0, 1, 2])
    doc = category.morphism_to_json(morph)
    assert "rows" in doc["phi_matrix"]
    paths = [write_json(tmp_path / "src.json", triple_to_json(t)),
             write_json(tmp_path / "sub.json", triple_to_json(sub))]
    good = write_json(tmp_path / "good.json", doc)
    assert run(capsys, "morphism", *paths, good)[0] == 0
    doc["phi_matrix"]["entries"][0][0] = [float("nan"), 0.0]
    bad = write_json(tmp_path / "nan.json", doc)
    code, out, err = run(capsys, "morphism", *paths, bad)
    assert code == 2
    assert out == ""
    assert "malformed morphism" in err


def _phi_wrong_shape(doc):
    doc["phi_matrix"] = matrix_to_json(np.eye(3))


def _character_out_of_range(doc):
    doc["character_map"][0] = 99


@pytest.mark.parametrize("corrupt", [_phi_wrong_shape, _character_out_of_range])
def test_invalid_morphism_is_usage_error(tmp_path, capsys, corrupt):
    t = graph_triple(disjoint_union(fs.lattice_circle(3, 1.0)[0],
                                    fs.lattice_interval(2, 1.0)[0]))
    sub, morph = category.restriction_morphism(t, [0, 1, 2])
    doc = category.morphism_to_json(morph)
    corrupt(doc)
    code, out, err = run(capsys, "morphism",
                         write_json(tmp_path / "src.json", triple_to_json(t)),
                         write_json(tmp_path / "sub.json", triple_to_json(sub)),
                         write_json(tmp_path / "m.json", doc))
    assert code == 2
    assert out == ""
    assert "malformed morphism" in err


def test_nonpositive_edge_length_is_usage_error(tmp_path, capsys):
    doc = geometry_to_json(fs.lattice_circle(4, 1.0)[0])
    doc["edges"][1][2] = -1.0
    code, out, err = run(capsys, "compare", write_json(tmp_path / "g.json", doc))
    assert code == 2
    assert out == ""
    assert "malformed geometry" in err


@pytest.mark.parametrize("argv", [
    ["validate", "t.json", "--seed", "1"],
    ["decompose", "t.json", "--seed", "1"],
    ["example", "two_point", "--seed", "1"],
    ["distance", "t.json", "--tol", "1e-6"],
    ["decompose", "t.json", "--tol", "1e-6"],
    ["example", "two_point", "--tol", "1e-6"],
    ["compare", "g.json", "--tol", "1e-6"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_files_are_parsed_by_load_json(ko0_path, capsys, monkeypatch):
    """The benchmark's trace times file parsing through cli._load_json."""
    parsed = []
    original = cli._load_json

    def counting(path):
        parsed.append(path)
        return original(path)

    monkeypatch.setattr(cli, "_load_json", counting)
    assert run(capsys, "validate", ko0_path)[0] == 0
    assert parsed == [ko0_path]


def test_malformed_geometry_is_usage_error(tmp_path, capsys):
    doc = geometry_to_json(fs.lattice_circle(4, 1.0)[0])
    del doc["vertices"]
    path = write_json(tmp_path / "g.json", doc)
    code, out, err = run(capsys, "compare", path)
    assert code == 2
    assert out == ""
    assert "malformed geometry" in err


def test_loading_runs_no_collection_and_restores_the_collector(tmp_path):
    g = fs.lattice_circle(7, 1.0)[0]
    for n in (4, 5):
        g = disjoint_union(g, fs.lattice_circle(n, 1.0)[0])
    good = write_json(tmp_path / "sum.json", triple_to_json(graph_triple(g)))
    doc = triple_to_json(fs.two_point_geometry(0.5)[1])
    _nan_entry(doc)
    bad = write_json(tmp_path / "nan.json", doc)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        assert cli._load_triple(good).algebra.k == 16
        with pytest.raises(cli._UsageFailure):
            cli._load_triple(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            cli._load_triple(good)
            assert not gc.isenabled()
        finally:
            gc.enable()
    finally:
        gc.callbacks.remove(count)
    assert collections == []


# --- fuzzing the triple decoder through the CLI -----------------------------

_FUZZ_BASES = [triple_to_json(t) for t in (fs.two_point_geometry(0.5)[1],
                                           fs.lattice_interval(3, 1.0)[1],
                                           fs.lattice_circle(3, 1.0)[1])]


def _at(doc, path):
    return reduce(lambda node, key: node[key], path, doc)


def _matrix_paths(doc):
    paths = [("dirac",)]
    paths += [(name,) for name in ("grading", "real_unitary_part")
              if doc.get(name) is not None]
    paths += [("algebra", "projections", i)
              for i in range(len(doc["algebra"]["projections"]))]
    return paths


def _drop_key(doc, data):
    required = [("algebra",), ("dirac",), ("algebra", "projections")]
    required += [m + (key,) for m in _matrix_paths(doc)
                 for key in ("dim", "entries")]
    *parent, key = data.draw(st.sampled_from(required))
    del _at(doc, parent)[key]


def _short_row(doc, data):
    rows = _at(doc, data.draw(st.sampled_from(_matrix_paths(doc))))["entries"]
    rows[data.draw(st.integers(0, len(rows) - 1))].pop()


def _non_finite(doc, data):
    rows = _at(doc, data.draw(st.sampled_from(_matrix_paths(doc))))["entries"]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j][data.draw(st.integers(0, 1))] = data.draw(
        st.sampled_from([float("nan"), float("inf"), -float("inf")]))


def _non_square(doc, data):
    m = _at(doc, data.draw(st.sampled_from(_matrix_paths(doc))))
    n = m.pop("dim")
    if data.draw(st.booleans()):
        for row in m["entries"]:
            row.append([0.0, 0.0])
        m.update(rows=n, cols=n + 1)
    else:
        for row in m["entries"]:
            row.pop()
        m.update(rows=n, cols=n - 1)


def _projection_count(doc, data):
    projections = doc["algebra"]["projections"]
    i = data.draw(st.integers(0, len(projections) - 1))
    if data.draw(st.booleans()):
        del projections[i]
    else:
        projections.append(copy.deepcopy(projections[i]))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_FUZZ_BASES),
       corrupt=st.sampled_from([_drop_key, _short_row, _non_finite,
                                _non_square, _projection_count]),
       data=st.data())
def test_corrupted_triple_is_usage_error(tmp_path, capsys, base, corrupt,
                                         data):
    """A valid triple document with one corruption is malformed input:
    validate and distance exit 2 and raise nothing."""
    doc = copy.deepcopy(base)
    corrupt(doc, data)
    path = write_json(tmp_path / "fuzz.json", doc)
    for argv in (["validate", path], ["distance", path, "--states", "1", "2"]):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, ""), argv


# --- fuzzing the morphism and geometry decoders through the CLI -------------

def _morphism_bases():
    """(source triple, target triple, morphism) documents that `finspec
    morphism` decodes: an sf identity with a square phi, a restriction with
    a rectangular phi, and a metric identity with no phi."""
    ko = triple_to_json(standard_ko_triple(0))
    sf_identity = {"kind": "sf", "character_map": [1],
                   "phi_matrix": matrix_to_json(np.eye(2)),
                   "flags": {"real": True, "even": True, "isometric": True}}
    t = graph_triple(disjoint_union(fs.lattice_circle(3, 1.0)[0],
                                    fs.lattice_interval(2, 1.0)[0]))
    sub, restriction = category.restriction_morphism(t, [0, 1, 2])
    circle = triple_to_json(fs.lattice_circle(3, 1.0)[1])
    metric_identity = {"kind": "metric", "character_map": [1, 2, 3],
                       "phi_matrix": None}
    return [(ko, ko, sf_identity),
            (triple_to_json(t), triple_to_json(sub),
             category.morphism_to_json(restriction)),
            (circle, circle, metric_identity)]


_MORPHISM_BASES = _morphism_bases()

_GEOMETRY_BASES = [geometry_to_json(g) for g in (
    fs.two_point_geometry(0.5)[0], fs.lattice_interval(3, 1.0)[0],
    fs.lattice_circle(4, 2.0)[0],
    disjoint_union(fs.lattice_circle(3, 1.0)[0], fs.lattice_interval(2, 1.0)[0]))]


def _drop_morphism_key(doc, data):
    required = [("character_map",)]
    phi = doc["phi_matrix"]
    if phi is not None:
        required += [("phi_matrix",)] + [("phi_matrix", key) for key in phi]
    *parent, key = data.draw(st.sampled_from(required))
    del _at(doc, parent)[key]


def _short_phi_row(doc, data):
    rows = doc["phi_matrix"]["entries"]
    rows[data.draw(st.integers(0, len(rows) - 1))].pop()


def _non_finite_phi(doc, data):
    rows = doc["phi_matrix"]["entries"]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j][data.draw(st.integers(0, 1))] = data.draw(
        st.sampled_from([float("nan"), float("inf"), -float("inf")]))


def _phi_shape(doc, data):
    """One column more or one fewer, with a header that says so."""
    m = doc["phi_matrix"]
    rows = m.pop("dim", None) or m.pop("rows")
    m.pop("cols", None)
    grow = data.draw(st.booleans())
    for row in m["entries"]:
        if grow:
            row.append([0.0, 0.0])
        else:
            row.pop()
    m.update(rows=rows, cols=len(m["entries"][0]))


def _character_count(doc, data):
    cm = doc["character_map"]
    if data.draw(st.booleans()):
        del cm[data.draw(st.integers(0, len(cm) - 1))]
    else:
        cm.append(cm[0])


def _character_range(doc, data):
    cm = doc["character_map"]
    cm[data.draw(st.integers(0, len(cm) - 1))] = data.draw(
        st.sampled_from([0, -1, 99]))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_MORPHISM_BASES), data=st.data())
def test_corrupted_morphism_is_usage_error(tmp_path, capsys, base, data):
    """A valid morphism document with one corruption is malformed input:
    morphism exits 2 and raises nothing."""
    t1, t2, doc = copy.deepcopy(base)
    corruptions = [_drop_morphism_key, _character_count, _character_range]
    if doc["phi_matrix"] is not None:
        corruptions += [_short_phi_row, _non_finite_phi, _phi_shape]
    data.draw(st.sampled_from(corruptions))(doc, data)
    paths = [write_json(tmp_path / name, d)
             for name, d in (("t1.json", t1), ("t2.json", t2), ("m.json", doc))]
    code, out, _ = run(capsys, "morphism", *paths)
    assert (code, out) == (2, "")


def _drop_geometry_key(doc, data):
    del doc[data.draw(st.sampled_from(["vertices", "edges"]))]


def _short_edge(doc, data):
    edges = doc["edges"]
    edges[data.draw(st.integers(0, len(edges) - 1))].pop()


def _bad_length(doc, data):
    edges = doc["edges"]
    edges[data.draw(st.integers(0, len(edges) - 1))][2] = data.draw(
        st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -1.0]))


def _bad_endpoint(doc, data):
    edge = doc["edges"][data.draw(st.integers(0, len(doc["edges"]) - 1))]
    end = data.draw(st.integers(0, 1))
    edge[end] = data.draw(st.sampled_from(
        [0, len(doc["vertices"]) + 1, edge[1 - end]]))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_GEOMETRY_BASES),
       corrupt=st.sampled_from([_drop_geometry_key, _short_edge, _bad_length,
                                _bad_endpoint]),
       data=st.data())
def test_corrupted_geometry_is_usage_error(tmp_path, capsys, base, corrupt,
                                           data):
    """A valid geometry document with one corruption is malformed input:
    compare exits 2 and raises nothing."""
    doc = copy.deepcopy(base)
    corrupt(doc, data)
    code, out, _ = run(capsys, "compare", write_json(tmp_path / "g.json", doc))
    assert (code, out) == (2, "")


def test_fuzz_bases_are_valid(tmp_path, capsys):
    """Uncorrupted, every base document decodes and is checked."""
    for t1, t2, doc in _MORPHISM_BASES:
        paths = [write_json(tmp_path / name, d) for name, d in
                 (("t1.json", t1), ("t2.json", t2), ("m.json", doc))]
        assert run(capsys, "morphism", *paths)[0] == 0
    for doc in _GEOMETRY_BASES:
        assert run(capsys, "compare", write_json(tmp_path / "g.json", doc))[0] == 0
