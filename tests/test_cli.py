"""Command line contract: verbs, exit codes, reports, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bettibound.cli import _build_parser, main
from bettibound.mesh import icosphere_mesh, load_mesh, write_off
from bettibound.report import SuiteConfig, build_config, serialize_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify-abstract ----------------------------------------------------------


def test_verify_abstract_single_trial(capsys):
    code, out, _ = run(capsys, "verify-abstract", "--trials", "1", "--seed", "0")
    assert code == 0
    assert "verify-abstract: PASS" in out


def test_verify_abstract_corrupted_tolerance_fails(capsys, tmp_path):
    out_path = tmp_path / "bad.json"
    code, out, _ = run(
        capsys,
        "verify-abstract",
        "--trials", "5",
        "--seed", "1",
        "--tolerance", "1e-30",
        "--out", str(out_path),
    )
    assert code == 1
    assert "FAIL" in out
    doc = json.loads(out_path.read_text())
    failing = [r for r in doc["records"] if not r["pass"]]
    assert failing
    for record in failing:
        assert "margin" in record and "lhs" in record and "rhs" in record


def test_verify_abstract_violated_chain_is_a_failing_record(
    capsys, tmp_path, monkeypatch
):
    # A sharp bound halved below dim ker H breaks the chain; the suite's
    # record is the verdict, so the run still writes its report.  The
    # suite reads its bounds from a stack of pairs, one shape group at a
    # time.
    import dataclasses

    import bettibound.suites as suites

    bound = suites.birman_schwinger_bound

    def halved(pair, p):
        cert = bound(pair, p)
        return dataclasses.replace(cert, bound_sharp=0.5 * cert.bound_sharp)

    monkeypatch.setattr(suites, "birman_schwinger_bound", halved)
    out_path = tmp_path / "chain.json"
    code, _, _ = run(
        capsys,
        "verify-abstract",
        "--trials", "5",
        "--seed", "42",
        "--quiet",
        "--out", str(out_path),
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    records = {r["name"]: r["pass"] for r in doc["records"]}
    assert records["birman_kernel_vs_sharp_p1"] is False
    assert doc["summary"]["pass"] is False


def test_verify_abstract_inflated_dominated_difference_is_a_failing_record(
    capsys, tmp_path, monkeypatch
):
    # The twin of the test above for a perturbation check on stacks: an HS
    # difference inflated past its scalar-dominated bound fails the record.
    import bettibound.suites as suites

    check = suites.dominated_difference_check

    def inflated(*args):
        result = check(*args)
        return {**result, "lhs": 2.0 * result["rhs_integral"] + 1.0}

    monkeypatch.setattr(suites, "dominated_difference_check", inflated)
    out_path = tmp_path / "dominated.json"
    code, _, _ = run(
        capsys,
        "verify-abstract",
        "--trials", "5",
        "--seed", "42",
        "--quiet",
        "--out", str(out_path),
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    records = {r["name"]: r["pass"] for r in doc["records"]}
    assert records["dominated_difference_bound"] is False
    assert doc["summary"]["pass"] is False


def test_verify_abstract_rejects_out_of_range_tolerance(capsys):
    code, _, err = run(capsys, "verify-abstract", "--tolerance", "0.5")
    assert code == 2
    assert "tolerance" in err


def test_determinism_identical_reports_modulo_timing(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "verify-abstract",
            "--trials", "10",
            "--seed", "424242",
            "--quiet",
            "--out", str(path),
        )
        assert code == 0
    scrub = lambda text: re.sub(r'"wall_time_s": [^}]*', '"wall_time_s": 0', text)
    assert scrub(a.read_text()) == scrub(b.read_text())
    assert a.read_text() != ""


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "suite.ini"
    cfg.write_text("[suite]\nseed = 7\ntrials = 3\n\n[tolerances]\nchain = 1e-8\n")
    out_path = tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "verify-abstract",
        "--config", str(cfg),
        "--trials", "2",  # flag wins over the file
        "--quiet",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["seed"] == 7
    assert doc["config"]["trials"] == 2
    assert doc["config"]["tolerances"]["chain"] == 1e-8


def test_config_file_unknown_sections_and_keys_exit_2(capsys, tmp_path):
    # Misspelled keys and a misspelled section used to be dropped silently,
    # leaving the defaults (seed 42, 200 trials) in force.
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[suite]\nsed = 7\ntrails = 3\n\n[tolerance]\nchain = 1e-8\n")
    code, _, err = run(capsys, "verify-abstract", "--config", str(cfg))
    assert code == 2
    for name in ("[tolerance]", "sed", "trails"):
        assert name in err


# -- betti-bound ---------------------------------------------------------------


def test_betti_bound_sphere_zero(capsys, tmp_path):
    out_path = tmp_path / "sphere.json"
    code, out, _ = run(
        capsys,
        "betti-bound",
        "--builtin", "sphere",
        "--resolution", "2",
        "--rho0", "0.5",
        "--t0", "1.0",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["reports"]) == 1
    report = doc["reports"][0]
    assert report["b1_oracle"] == 0
    assert report["bound_main"] == 0.0
    assert report["pass"] is True


def test_betti_bound_torus_grid(capsys, tmp_path):
    out_path = tmp_path / "torus.json"
    code, out, _ = run(
        capsys,
        "betti-bound",
        "--builtin", "flat-torus",
        "--rho0", "0.3,0.5",
        "--t0", "0.5,1.0,2.0",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["reports"]) == 6
    for report in doc["reports"]:
        assert report["b1_oracle"] == 2
        assert report["bound_main"] >= 2.0
        assert report["pass"] is True
    assert doc["summary"]["pass"] is True


def test_betti_bound_mesh_file(capsys, tmp_path):
    fixture = tmp_path / "g2.off"
    code, _, _ = run(
        capsys, "gen-fixture", "--name", "genus2", "--out", str(fixture)
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "betti-bound",
        "--mesh", str(fixture),
        "--rho0", "0.4",
        "--t0", "0.8",
    )
    assert code == 0
    assert "pass" in out


def test_betti_bound_invalid_grid(capsys):
    code, _, err = run(
        capsys, "betti-bound", "--builtin", "sphere", "--rho0", "-1", "--t0", "1"
    )
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "flag,value",
    [("--rho0", "nan"), ("--rho0", "0.5,inf"), ("--t0", "inf"), ("--t0", "1,inf"),
     ("--p", "-1"), ("--p", "0"), ("--p", "nan"), ("--p", "inf"),
     ("--tolerance", "0"), ("--tolerance", "0.5"), ("--tolerance", "nan")],
)
def test_betti_bound_invalid_parameter_exits_2(capsys, flag, value):
    argv = {"--rho0": "0.5", "--t0": "1", flag: value}
    args = [token for pair in argv.items() for token in pair]
    code, _, err = run(
        capsys, "betti-bound", "--builtin", "sphere", "--resolution", "1", *args
    )
    assert code == 2
    assert value.split(",")[-1] in err


@pytest.mark.parametrize(
    "rho0, code", [("1e200", 2), ("1e150", 0), ("1e-300", 2), ("1e-150", None)]
)
def test_betti_bound_huge_rho0_exits_2_only_where_the_prefactor_overflows(tmp_path, rho0, code):
    # (rho0 (1 + e^(-t0 rho0)))^2 overflows a float past about 1.3e154 and
    # underflows to 0 below about 1e-162: such a rho0 is a usage error with
    # one ``error:`` line, not a traceback, and a rho0 inside still writes
    # its report with a sound main bound.  (At rho0 = 1e-150 the Schatten
    # bound is NaN, as 1 - e^(-2 rho0 t0) rounds to 0, and its record fails:
    # exit status 1, the floating-point item of the roadmap.)
    out = tmp_path / "report.json"
    argv = [
        "betti-bound", "--builtin", "flat-torus", "--resolution", "4", "--rho0", rho0,
        "--t0", "1", "--quiet", "--out", str(out),
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "bettibound.cli", *argv], env=env, capture_output=True, text=True
    )
    assert "Traceback" not in result.stderr
    if code:
        assert result.returncode == code, result.stderr
        message = result.stderr.splitlines()
        size = "large" if float(rho0) > 1 else "small"
        assert len(message) == 1 and message[0].startswith(f"error: rho0 is too {size}")
        assert f"rho0={float(rho0)!r}" in message[0]
        assert not out.exists()
    else:
        assert result.returncode in ((0,) if code == 0 else (0, 1)), result.stderr
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["rho0"] == float(rho0)
        assert doc["records"][0]["name"].startswith("soundness_main") and doc["records"][0]["pass"]


@pytest.mark.parametrize("verb", ["betti-bound", "mesh-info"])
def test_resolution_with_mesh_file_is_a_usage_error(capsys, tmp_path, verb):
    path = tmp_path / "ico.off"
    write_off(icosphere_mesh(1), path)
    code, _, err = run(capsys, verb, "--mesh", str(path), "--resolution", "5")
    assert code == 2
    assert "--resolution" in err


@pytest.mark.parametrize("verb", ["mesh-info", "gen-fixture"])
def test_genus2_resolution_zero_is_rejected(capsys, tmp_path, verb):
    source = ["--builtin"] if verb == "mesh-info" else ["--out", str(tmp_path / "g.off"), "--name"]
    code, _, err = run(capsys, verb, *source, "genus2", "--resolution", "0")
    assert code == 2
    assert "need at least 3 segments" in err


def test_betti_bound_unreadable_mesh(capsys, tmp_path):
    missing = tmp_path / "nope.off"
    code, _, err = run(
        capsys, "betti-bound", "--mesh", str(missing), "--rho0", "1", "--t0", "1"
    )
    assert code == 2


def test_betti_bound_open_mesh_message(capsys, tmp_path):
    bad = tmp_path / "open.off"
    bad.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    code, _, err = run(
        capsys, "betti-bound", "--mesh", str(bad), "--rho0", "1", "--t0", "1"
    )
    assert code == 2
    assert "mesh not closed" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_betti_bound_non_finite_vertex_message(capsys, tmp_path, value):
    bad = tmp_path / "bad.off"
    write_off(icosphere_mesh(1), bad)
    lines = bad.read_text().splitlines()
    x, y, _ = lines[2].split()  # the first vertex
    lines[2] = f"{x} {y} {value}"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "betti-bound", "--mesh", str(bad), "--rho0", "0.5", "--t0", "1"
    )
    assert code == 2
    assert "non-finite vertex coordinates" in err


def _obj(mesh, relative):
    shift = -mesh.vertex_count if relative else 1
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines += ["f " + " ".join(str(i + shift) for i in f) for f in mesh.faces.tolist()]
    return "\n".join(lines) + "\n"


def test_mesh_info_reads_obj_negative_indices(capsys, tmp_path):
    blocks = []
    for relative in (False, True):
        path, out = tmp_path / f"ico-{relative}.obj", tmp_path / f"ico-{relative}.json"
        path.write_text(_obj(icosphere_mesh(1), relative))
        code, _, _ = run(capsys, "mesh-info", "--mesh", str(path), "--quiet", "--out", str(out))
        assert code == 0
        blocks.append(json.loads(out.read_text())["mesh"])
    assert blocks[0] == blocks[1]
    assert blocks[0]["vertices"] == 42 and blocks[0]["betti1"] == 0


@pytest.mark.parametrize(
    "edit,message",
    [(("f 1 ", "f 0 "), "index 0"), (("v ", "v x", 1), "could not convert string to float")],
    ids=["index-zero", "coordinate"],
)
def test_mesh_info_malformed_obj_exits_2(capsys, tmp_path, edit, message):
    path = tmp_path / "bad.obj"
    path.write_text(_obj(icosphere_mesh(1), relative=False).replace(*edit))
    code, _, err = run(capsys, "mesh-info", "--mesh", str(path))
    assert code == 2
    assert "malformed OBJ" in err and message in err


def _two_tetrahedra_off(glued):
    # The second tetrahedron is the first reflected through vertex 0, faces
    # reversed; glued, the two share vertex 0 and its link is two cycles.
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    if glued:
        vertices = np.vstack([corners, -corners[1:]])
        second = np.where(faces == 0, 0, faces + 3)[:, ::-1]
    else:
        vertices = np.vstack([corners, 5.0 - corners])
        second = faces[:, ::-1] + 4
    lines = [f"OFF\n{len(vertices)} 8 0"]
    lines += [" ".join(map(str, v)) for v in vertices]
    lines += ["3 " + " ".join(map(str, f)) for f in np.vstack([faces, second])]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("verb", ["mesh-info", "betti-bound"])
@pytest.mark.parametrize(
    "glued,message",
    [(False, "surface not connected"), (True, "surface not a manifold")],
    ids=["disjoint", "pinched"],
)
def test_non_manifold_mesh_exits_2(capsys, tmp_path, verb, glued, message):
    path = tmp_path / "two.off"
    path.write_text(_two_tetrahedra_off(glued))
    extra = ["--rho0", "1", "--t0", "1"] if verb == "betti-bound" else []
    code, _, err = run(capsys, verb, "--mesh", str(path), *extra)
    assert code == 2
    assert message in err


def test_betti_bound_removed_curvature_floor_flags_are_usage_errors(capsys):
    # The uncertified heat-kernel variant is gone with its three flags.  The
    # old prefix is spelled in two pieces, so that a search of the source
    # for the removed name finds nothing.
    prefix = "--li" "yau"
    for flag in ("-floor", "-c", "-alpha"):
        with pytest.raises(SystemExit) as exc:
            main(["betti-bound", "--builtin", "flat-torus", prefix + flag, "0.5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {prefix + flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb,flag,value",
    [("betti-bound", "--seed", "1"), ("betti-bound", "--trials", "3"),
     ("betti-bound", "--config", "suite.ini"), ("mesh-info", "--seed", "1"),
     ("mesh-info", "--trials", "3"), ("mesh-info", "--config", "suite.ini"),
     ("mesh-info", "--tolerance", "1e-9")],
)
def test_flags_a_verb_does_not_read_are_usage_errors(capsys, verb, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--builtin", "sphere", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_readme_usage_commands_parse():
    # Parsing only: nothing runs, but a flag the README shows and its verb
    # rejects fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [
        shlex.split(line)[1:]
        for line in usage.replace("\\\n", " ").splitlines()
        if line.startswith("bettibound ")
    ]
    assert len(commands) == 5
    for argv in commands:
        assert _build_parser().parse_args(argv).verb == argv[0]


def _halve_schatten_enclosures(monkeypatch):
    """Halve both ends of every Schatten p = 2 enclosure the grid loop reads,
    on the cut-off path and on the full-spectrum one."""
    import bettibound.birman as birman
    import bettibound.pipeline as pipeline

    enclosure = birman.crude_hs_enclosure

    def halved(pair):
        upper, lower = enclosure(pair)
        return 0.5 * upper, 0.5 * lower

    monkeypatch.setattr(pipeline, "crude_hs_enclosure", halved)
    monkeypatch.setattr(birman, "crude_hs_enclosure", halved)


def test_betti_bound_point_passes_only_with_all_its_records(
    capsys, tmp_path, monkeypatch
):
    # At t0 = 4 the flat-torus Schatten bound is saturated: 2 up to rounding.
    # With its Hilbert-Schmidt sum halved (both ends of the enclosure the
    # grid loop reads) it drops to about 1 < b1 = 2 at every point, at any
    # slack, while the main bound still holds; each point must then report
    # "pass": false.
    _halve_schatten_enclosures(monkeypatch)
    out_path = tmp_path / "tight.json"
    code, _, _ = run(
        capsys,
        "betti-bound",
        "--builtin", "flat-torus",
        "--resolution", "8",
        "--rho0", "0.5,1,2",
        "--t0", "4",
        "--tolerance", "1e-12",
        "--quiet",
        "--out", str(out_path),
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    records = {r["name"]: r["pass"] for r in doc["records"]}
    assert len(doc["reports"]) == 3
    for report in doc["reports"]:
        tag = f"rho0={report['rho0']:g},t0={report['t0']:g}"
        assert records[f"soundness_main[{tag}]"] is True
        assert records[f"soundness_schatten[{tag}]"] is False
        assert report["pass"] is False


def test_betti_bound_violated_certificate_is_a_failing_record(
    capsys, tmp_path, monkeypatch
):
    _halve_schatten_enclosures(monkeypatch)
    out_path = tmp_path / "violated.json"
    code, _, _ = run(
        capsys,
        "betti-bound",
        "--builtin", "flat-torus",
        "--resolution", "8",
        "--rho0", "0.5",
        "--t0", "1",
        "--quiet",
        "--out", str(out_path),
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    records = {r["name"]: r for r in doc["records"]}
    assert records["soundness_schatten[rho0=0.5,t0=1]"]["pass"] is False
    assert doc["reports"][0]["pass"] is False


def test_betti_bound_record_names_and_order(capsys, tmp_path):
    # A point's records, in grid order: soundness_main, soundness_schatten
    # and, where the curvature is everywhere above rho0, vanishing_criterion.
    # (bench/run.py compares record names with its reference for
    # verify-abstract only.)
    out_path = tmp_path / "names.json"
    code, _, _ = run(
        capsys,
        "betti-bound",
        "--builtin", "sphere",
        "--resolution", "2",
        "--rho0", "0.5,2",
        "--t0", "1,3",
        "--quiet",
        "--out", str(out_path),
    )
    assert code == 0
    names = [r["name"] for r in json.loads(out_path.read_text())["records"]]
    expected = []
    for rho0 in ("0.5", "2"):
        for t0 in ("1", "3"):
            tag = f"rho0={rho0},t0={t0}"
            expected += [f"soundness_main[{tag}]", f"soundness_schatten[{tag}]"]
            if rho0 == "0.5":
                expected.append(f"vanishing_criterion[{tag}]")
    assert names == expected


def test_betti_bound_point_keys_and_one_surface_block(capsys, tmp_path):
    # A point keeps what varies per point; the six keys bench/run.py reads
    # per point are among them.  The surface's own numbers are the run
    # report's once, in the same block mesh-info writes for that surface.
    bound_path, info_path = tmp_path / "bound.json", tmp_path / "info.json"
    source = ("--builtin", "genus2", "--resolution", "6")
    code, _, _ = run(
        capsys, "betti-bound", *source, "--rho0", "0.5,1", "--t0", "1", "--quiet",
        "--out", str(bound_path),
    )
    assert code == 0
    code, _, _ = run(capsys, "mesh-info", *source, "--quiet", "--out", str(info_path))
    assert code == 0
    doc, info = json.loads(bound_path.read_text()), json.loads(info_path.read_text())
    for point in doc["reports"]:
        assert list(point) == [
            "rho0", "t0", "b1_oracle", "bound_main", "bound_schatten", "intermediate", "pass",
            "notes",
        ]
        assert list(point["intermediate"]) == [
            "potential_norm_2hs", "comparison_two_inf", "prefactor_sharp", "curvature_min",
        ]
    assert list(doc)[list(doc).index("mesh") + 1] == "reports"
    assert doc["mesh"] == info["mesh"]
    assert doc["mesh"]["betti1"] == doc["reports"][0]["b1_oracle"] == 4


# -- mesh-info -------------------------------------------------------------------


@pytest.mark.parametrize(
    "builtin,chi,b1",
    [("flat-torus", 0, 2), ("genus2", -2, 4)],
)
def test_mesh_info_builtins(capsys, tmp_path, builtin, chi, b1):
    out_path = tmp_path / "info.json"
    code, out, _ = run(
        capsys, "mesh-info", "--builtin", builtin, "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["mesh"]["euler_characteristic"] == chi
    assert doc["mesh"]["betti1"] == b1
    assert doc["summary"]["pass"] is True


def test_mesh_info_eigensolves_no_comparison_operator(capsys, count_eigensolves):
    # mesh-info reads the kernels of L0 and L1 only, both counted on
    # sparse matrices, so nothing is eigensolved: not L0, not the face
    # Laplacian L2, and not the comparison operator L0 + K.
    calls = count_eigensolves()
    code, _, _ = run(capsys, "mesh-info", "--builtin", "genus2", "--quiet")
    assert code == 0
    assert calls == []


def test_mesh_info_tetrahedron_file(capsys, tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(
        "OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    )
    code, out, _ = run(capsys, "mesh-info", "--mesh", str(path))
    assert code == 0
    assert "euler_characteristic: 2" in out
    assert "betti1: 0" in out


# -- gen-fixture -----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,b1",
    [
        ("sphere", 0),
        ("flat-torus", 2),
        ("torus-rev", 2),
        ("bumpy-sphere", 0),
        ("genus2", 4),
    ],
)
def test_gen_fixture_roundtrip(capsys, tmp_path, name, b1):
    from bettibound.dec import betti1_oracle

    path = tmp_path / f"{name}.off"
    resolution = {"sphere": "1", "bumpy-sphere": "1", "torus-rev": "10"}.get(name)
    argv = ["gen-fixture", "--name", name, "--out", str(path)]
    if resolution:
        argv += ["--resolution", resolution]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    mesh = load_mesh(path)
    assert mesh.face_count > 0
    # Topology survives the OFF roundtrip for every builtin (for the flat
    # torus only the combinatorics do; the metric is builtin-only).
    assert betti1_oracle(mesh) == b1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
@pytest.mark.parametrize("limit, code", [("10000", 0), ("1", 1)])
def test_peak_rss_gate_passes_the_exit_status_and_fails_past_its_limit(limit, code):
    # The CI memory gates run one command each through .github/peak_rss.py.
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / ".github" / "peak_rss.py"), limit,
         "mesh-info", "--builtin", "sphere", "--resolution", "1", "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
    )
    assert result.returncode == code, result.stderr
    assert re.fullmatch(
        rf"exit 0, peak RSS \d+ MB \(limit {limit} MB\)", result.stdout.splitlines()[-1]
    )


def test_cli_no_verb_shows_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "verify-abstract" in out


# -- config and serializer units ---------------------------------------------------


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(tolerances={"chain": 0.0})
    # betti-bound's soundness slack and the geometry tolerance are not
    # suite families.
    for family in ("bogus_family", "soundness", "geometry"):
        with pytest.raises(ValueError, match="unknown tolerance family"):
            SuiteConfig(tolerances={family: 1e-9})
    cfg = SuiteConfig(tolerances={"chain": 1e-12})
    assert cfg.tol("chain") == 1e-12
    assert cfg.tol("duhamel") == 1e-6


def test_build_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys"):
        build_config(bogus=3)


def test_serializer_seventeen_digits_and_json_compat():
    doc = {"x": 1.0 / 3.0, "n": 7, "flag": True, "none": None, "list": [0.1]}
    text = serialize_json(doc)
    assert "0.33333333333333331" in text
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0
    assert parsed["list"][0] == 0.1
