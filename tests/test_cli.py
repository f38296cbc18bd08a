import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import algebroids
from algebroids import dump_json
from algebroids.cli import main


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_validate_builtin_complex(run):
    code, out, err = run("validate", "--complex", "builtin:torus3x3")
    assert code == 0
    assert "complex ok: 9 vertices, 27 edges, 18 triangles" in out
    assert err == ""


def test_validate_with_representation(run):
    code, out, _ = run(
        "validate", "--complex", "builtin:torus", "--rep", "a=2,b=3",
        "--omega", "fundamental",
    )
    assert code == 0
    assert "representation ok: rank 1, flat" in out
    assert "omega ok: closed" in out


def test_validate_rejects_inconsistent_representation(run, tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(dump_json({"entries": {"edge_1_2": "2/1"}}))
    code, out, err = run(
        "validate", "--complex", "builtin:torus", "--rep-file", str(rep)
    )
    assert code == 1
    assert out == ""
    assert "error [RELATION_VIOLATION]" in err


def test_validate_requires_some_input(run):
    code, _, err = run("validate")
    assert code == 1
    assert "error [BAD_INPUT]" in err


def test_cohomology_text_output(run):
    code, out, _ = run(
        "cohomology", "--complex", "builtin:torus", "--rep", "a=2,b=1"
    )
    assert code == 0
    assert out.strip() == "H0=0 H1=0 H2=0"


def test_cohomology_untwisted_and_single_degree(run):
    code, out, _ = run(
        "cohomology", "--complex", "builtin:torus", "--rep", "a=1,b=1",
        "--degree", "1",
    )
    assert code == 0
    assert out.strip() == "H1=2"


def test_cohomology_degree_out_of_range(run):
    base = ("cohomology", "--complex", "builtin:torus", "--rep", "a=1,b=1")
    code, out, err = run(*base, "--degree", "-1")
    assert code == 1
    assert out == ""
    assert err == "error [BAD_DEGREE]: cohomology degree must be nonnegative\n"
    code, out, err = run(*base, "--degree", "5")
    assert code == 0
    assert out == "H5=0\n"
    assert err == ""


def test_a_query_leaves_no_cyclic_garbage(run):
    """A query's complex, systems and spaces are freed by reference
    counting alone: none of them sits in a reference cycle that only the
    cycle collector could reclaim."""
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, _ = run(
            "char-classes", "--check-surjectivity", "--complex", "builtin:torus",
            "--rep", "a=2,b=3",
        )
        gc.collect()
        leaked = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code == 0
    assert not leaked & {"Complex", "LocalSystem", "CohomologySpace"}


def test_cohomology_json_is_deterministic(run):
    argv = (
        "cohomology", "--complex", "builtin:circle5", "--rep", "a=3/2", "--json"
    )
    code1, out1, _ = run(*argv)
    code2, out2, _ = run(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["dims"] == {"0": 0, "1": 0}
    assert data["schema_version"] == "1"


def test_chern_weil_counterexample(run):
    code, out, _ = run(
        "chern-weil", "--complex", "builtin:torus", "--rep", "a=2,b=1",
        "--min-k", "1", "--max-k", "1",
    )
    assert code == 0
    assert out.strip() == "k=1: invariant sections 0, image {0}"


def test_chern_weil_trivial_with_fundamental_omega(run):
    code, out, _ = run(
        "chern-weil", "--complex", "builtin:torus", "--rep", "a=1,b=1",
        "--omega", "fundamental", "--min-k", "1", "--max-k", "1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    power = data["powers"]["1"]
    assert power["invariant_sections"] == 1
    assert len(power["classes"]) == 1
    assert any(x != "0/1" for x in power["classes"][0])


def test_char_classes_text(run):
    code, out, _ = run(
        "char-classes", "--complex", "builtin:torus", "--rep", "a=-2,b=3"
    )
    assert code == 0
    assert "sign class: bits" in out
    assert "log class p=2" in out
    assert "log class p=3" in out
    assert "image dims: H1=2 H2=1" in out


def test_char_classes_surjectivity_json(run):
    code, out, _ = run(
        "char-classes", "--complex", "builtin:torus", "--rep", "a=2,b=3",
        "--check-surjectivity", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["surjective"] is True
    assert [c["target"] for c in data["certificate"]] == [
        "a_dual", "b_dual", "fundamental",
    ]
    for cert in data["certificate"]:
        for term in cert["terms"]:
            assert term["coefficient"] == "1/1"


def test_surjectivity_negative_case(run):
    code, out, _ = run(
        "surjectivity", "--complex", "builtin:torus", "--rep", "a=2,b=4"
    )
    assert code == 0
    assert out.strip() == "surjective: false"


def test_surjectivity_rejects_other_bases(run):
    code, _, err = run(
        "surjectivity", "--complex", "builtin:circle3", "--rep", "a=2"
    )
    assert code == 1
    assert "error [UNSUPPORTED_BASE]" in err


def test_pullback_emits_usable_representation(run, tmp_path):
    map_doc = {
        "source": "builtin:torus3x6",
        "target": "builtin:torus3x3",
        "vertex_map": [3 * (v // 6) + (v % 6) % 3 for v in range(18)],
    }
    map_path = tmp_path / "map.json"
    map_path.write_text(dump_json(map_doc))
    code, out, _ = run(
        "pullback", "--map", str(map_path), "--rep", "a=2,b=3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1
    rep_path = tmp_path / "pulled.json"
    rep_path.write_text(out)
    code, out, _ = run(
        "cohomology", "--complex", "builtin:torus3x6",
        "--rep-file", str(rep_path), "--json",
    )
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 0, "1": 0, "2": 0}


def test_missing_file_is_a_schema_error(run):
    code, _, err = run(
        "cohomology", "--complex", "/nonexistent/complex.json", "--rep", "a=2"
    )
    assert code == 1
    assert "error [BAD_SCHEMA]" in err


def test_verbose_mode_emits_structured_errors(run, monkeypatch):
    monkeypatch.setenv("ALGEBROIDS_VERBOSE", "1")
    code, _, err = run(
        "surjectivity", "--complex", "builtin:circle3", "--rep", "a=2"
    )
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["code"] == "UNSUPPORTED_BASE"


def test_console_script_is_installed():
    """The declared `algebroids` script launches `main` and answers --version.

    Runs the entry point the way a console-script launcher does, from
    wherever `algebroids` is imported, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    entry = project["scripts"]["algebroids"]
    assert entry == "algebroids.cli:main"
    launcher = "import sys; from algebroids.cli import main; sys.exit(main())"
    env = dict(os.environ, PYTHONPATH=str(Path(algebroids.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--version"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stdout.strip() == project["version"] == algebroids.__version__


@pytest.mark.skipif(
    shutil.which("algebroids") is None, reason="no algebroids console script on PATH"
)
def test_installed_console_script_reports_version():
    proc = subprocess.run(
        [shutil.which("algebroids"), "--version"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == algebroids.__version__
