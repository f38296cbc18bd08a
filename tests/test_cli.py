import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import algebroids
from algebroids import (
    Matrix,
    NotInvariantError,
    TwistedCochain,
    chern_weil,
    cochain_from_json,
    complex_to_json,
    dump_json,
    invariant_sections,
    make_algebroid,
    representation_from_json,
    representation_to_json,
)
from algebroids.cli import main
from algebroids.jsonio import load_json, resolve_complex_spec


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


def _refused(run, *argv):
    code, out, err = run(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error [BAD_INPUT]: ")
    return err


def test_validate_refuses_omega_without_a_representation(run):
    """--omega used to be ignored here: a missing file validated as ok."""
    err = _refused(run, "validate", "--complex", "builtin:torus", "--omega", "/nonexistent.json")
    assert "no representation given" in err


@pytest.mark.parametrize("option, value", [
    ("--complex", "builtin:torus"), ("--rep", "a=2"), ("--rep-file", "rep.json"),
    ("--rank", "2"), ("--omega", "zero"),
])
def test_validate_refuses_an_algebroid_with_other_input(run, option, value):
    """The bundle holds its own complex, adjoint and omega; the option is
    refused before the bundle is read."""
    err = _refused(run, "validate", "--algebroid", "/nonexistent.json", option, value)
    assert option in err


def test_rep_and_rep_file_together_are_refused(run):
    """The file used never to be read: the inline --rep won."""
    _refused(run, "cohomology", "--complex", "builtin:torus", "--rep", "a=3",
             "--rep-file", "/nonexistent.json")


@pytest.mark.parametrize("argv", [
    ("cohomology", "--complex", "builtin:torus", "--rep-file", "/nonexistent.json"),
    ("validate", "--complex", "builtin:torus"),
])
def test_rank_without_an_inline_rep_is_refused(run, argv):
    err = _refused(run, *argv, "--rank", "2")
    assert "--rank" in err


def test_a_generator_given_twice_in_an_inline_rep_is_refused(run):
    """The last value used to win: a=2,a=1,b=1 printed the untwisted dims."""
    err = _refused(run, "cohomology", "--complex", "builtin:torus", "--rep", "a=2,a=1,b=1")
    assert err == "error [BAD_INPUT]: --rep gives generator 'a' twice\n"
    err = _refused(run, "cohomology", "--complex", "builtin:torus", "--rep", "a=2, b=1 ,b=1")
    assert "'b'" in err


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


FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chern_weil"


def _cyclic_garbage_after(run, *argv):
    """Names of the types left in reference cycles by one query."""
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, _ = run(*argv)
        gc.collect()
        leaked = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code == 0
    return leaked


def test_a_query_leaves_no_cyclic_garbage(run):
    """A query's complex, systems and spaces are freed by reference
    counting alone: none of them sits in a reference cycle that only the
    cycle collector could reclaim."""
    leaked = _cyclic_garbage_after(
        run, "char-classes", "--check-surjectivity", "--complex", "builtin:torus",
        "--rep", "a=2,b=3",
    )
    assert not leaked & {"Complex", "LocalSystem", "CohomologySpace"}


def test_a_chern_weil_query_leaves_no_cyclic_garbage(run):
    """The memoised duals, the tensor factors, the algebroid's per-power
    systems, the violations kept on each system and the echelon image kept
    on each space all point one way, and the per-call memos of transport
    actions die with their call, so nothing forms a cycle."""
    leaked = _cyclic_garbage_after(
        run, "chern-weil", "--complex", "builtin:torus3x3",
        "--rep-file", str(FIXTURES / "rep2_unipotent.json"),
        "--omega", str(FIXTURES / "omega_torus3x3_rank2.json"), "--max-k", "2",
    )
    assert not leaked & {
        "Complex", "LocalSystem", "CohomologySpace", "CommAlgebroid", "TwistedCochain",
        "Matrix", "_RowSpace", "function", "cell",
    }


def test_a_chern_weil_query_on_a_complex_file_leaves_no_cyclic_garbage(run, tmp_path):
    """The builtin models stay alive in the model cache, so a query on a
    complex read from a file shows whether the query's own complex,
    systems and spaces are freed by reference counting alone."""
    torus = resolve_complex_spec("builtin:torus3x3")
    complex_path = tmp_path / "torus.json"
    complex_path.write_text(dump_json(complex_to_json(torus)))
    # the same transports, as explicit edges: a complex file has no named loops
    rep = representation_from_json(torus, load_json(str(FIXTURES / "rep2_unipotent.json")))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(dump_json(representation_to_json(rep)))
    leaked = _cyclic_garbage_after(
        run, "chern-weil", "--complex", str(complex_path), "--rep-file", str(rep_path),
        "--omega", str(FIXTURES / "omega_torus3x3_rank2.json"), "--max-k", "2",
    )
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


def test_chern_weil_inverts_only_adjoint_transports(run, monkeypatch):
    """Every derived system of a Chern-Weil query is dualized through the
    adjoint: Matrix.inverse sees no tensor-power or symmetric-power
    transport, and at most one matrix per edge of the base."""
    inverted = []
    inverse = Matrix.inverse

    def counting_inverse(m):
        inverted.append((m.rows, m.cols))
        return inverse(m)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    code, out, _ = run(
        "chern-weil", "--complex", "builtin:torus4x4",
        "--rep-file", str(FIXTURES / "rep3_diagonal.json"),
        "--omega", str(FIXTURES / "omega_torus4x4_rank3.json"), "--max-k", "2",
    )
    assert code == 0
    assert "k=2: invariant sections 2" in out
    assert inverted
    assert set(inverted) == {(3, 3)}
    assert len(inverted) <= len(resolve_complex_spec("builtin:torus4x4").edges)


@pytest.mark.parametrize("grid", ["3x3", "4x4"])
def test_chern_weil_inverts_each_generator_once(run, monkeypatch, grid):
    """Every transport of a system built from generator images is a product
    of generator powers, and its inverse is built from the generators'
    inverses: a query inverts the two generators and nothing else."""
    inverted = []
    inverse = Matrix.inverse

    def counting_inverse(m):
        inverted.append(m)
        return inverse(m)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    code, out, _ = run(
        "chern-weil", "--complex", f"builtin:torus{grid}",
        "--rep-file", str(FIXTURES / "rep2_unipotent.json"),
        "--omega", str(FIXTURES / f"omega_torus{grid}_rank2.json"),
        "--min-k", "0", "--max-k", "2",
    )
    assert code == 0
    assert "k=2:" in out
    generators = load_json(FIXTURES / "rep2_unipotent.json")["entries"]
    assert len(inverted) == len(generators) == 2


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind a package function in every module namespace that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "algebroids" or name.startswith("algebroids."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_chern_weil_walks_a_callers_section_once_per_nonidentity_edge(run, monkeypatch):
    """A rank-3 query walks none of its sections: they are the
    representatives of an H^0 space, flat when built.  A section a caller
    builds is walked once, in one pass over the rows of d_0 that multiplies
    each entry of an edge transport other than 0, 1 and -1 once and no
    entry of an identity transport, and is refused when it is not flat,
    stopping at the first nonzero row.  The flatness law multiplies no
    triple with an identity factor."""
    cohomology = sys.modules["algebroids.cohomology"]
    local_systems = sys.modules["algebroids.local_systems"]

    applied = []  # per section check: the degree of each pass over rows of d
    products = []  # per flatness check: factor pairs multiplied
    frames = []  # (log, entry) of the checks running
    rows, mul = cohomology._coboundary_rows, Matrix.__mul__
    is_flat_section, check_flat = cohomology.is_flat_section, local_systems.check_flat

    def within(log, fn):
        def wrapped(*args):
            log.append([])
            frames.append((log, log[-1]))
            try:
                return fn(*args)
            finally:
                frames.pop()
        return wrapped

    def counting_rows(L, n):
        if frames and frames[-1][0] is applied:
            frames[-1][1].append(n)
        return rows(L, n)

    def counting_mul(a, b):
        if frames and frames[-1][0] is products:
            frames[-1][1].append((a, b))
        return mul(a, b)

    monkeypatch.setattr(cohomology, "_coboundary_rows", counting_rows)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    _patch_everywhere(monkeypatch, is_flat_section, within(applied, is_flat_section))
    _patch_everywhere(monkeypatch, check_flat, within(products, check_flat))
    rep = FIXTURES / "rep3_unipotent.json"
    omega = FIXTURES / "omega_torus4x4_rank3.json"
    code, out, _ = run(
        "chern-weil", "--complex", "builtin:torus4x4",
        "--rep-file", str(rep), "--omega", str(omega), "--max-k", "2",
    )
    assert code == 0
    assert "k=2: invariant sections" in out
    # one check per section, in chern_weil, and none of them walks
    sections = re.findall(r"invariant sections (\d+)", out)
    assert len(applied) == sum(map(int, sections)) >= 3
    assert not any(applied)
    assert any(products)
    for pairs in products:
        for a, b in pairs:
            assert not a.is_identity() and not b.is_identity()

    c = resolve_complex_spec("builtin:torus4x4")
    L = representation_from_json(c, load_json(str(rep)))
    A = make_algebroid(L, cochain_from_json(L, load_json(str(omega))))
    factors = []  # the row entry of each product taken while a section is walked
    fraction_mul = Fraction.__mul__

    def counting_fraction_mul(a, b):
        if frames and frames[-1][0] is applied:
            factors.append(a)
        return fraction_mul(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counting_fraction_mul)
    for k in (1, 2):
        built = invariant_sections(A, k).representatives[0]
        section = TwistedCochain(built.system, 0, built.values)
        moved = [built.system.matrix(*e) for e in c.edges]
        moved = [t for t in moved if not t.is_identity()]
        entries = [x for t in moved for row in t.entries for x in row if x not in (0, 1, -1)]
        assert 0 < len(moved) < len(c.edges) and entries
        del applied[:], factors[:]
        assert chern_weil(A, section, k) == chern_weil(A, section, k) == chern_weil(A, built, k)
        walks = [degrees for degrees in applied if degrees]
        assert len(applied) == 3 and walks == [[0]]
        assert sorted(factors) == sorted(entries)
        for vertex in (5, 0):
            values = dict(built.values)
            values[(vertex,)] = tuple(x + 1 for x in values[(vertex,)])
            del factors[:]
            with pytest.raises(NotInvariantError):
                chern_weil(A, TwistedCochain(built.system, 0, values), k)
        # moving the first vertex makes the first row nonzero
        assert len(factors) < len(entries)


def test_chern_weil_builds_no_cup_power_for_a_zero_target(run, monkeypatch):
    """The torus has no 4- or 6-simplices, so a --max-k 3 query cups and
    tensors only for omega^1, and prints the bytes it printed when it built
    omega^2 and omega^3 (recorded before the shortcut)."""
    cohomology = sys.modules["algebroids.cohomology"]
    local_systems = sys.modules["algebroids.local_systems"]
    cupped, tensored = [], []
    cup, tensor_system = cohomology.cup, local_systems.tensor_system

    def recording_cup(alpha, beta):
        cupped.append(alpha.degree + beta.degree)
        return cup(alpha, beta)

    def recording_tensor_system(L1, L2):
        tensored.append(L1.rank * L2.rank)
        return tensor_system(L1, L2)

    _patch_everywhere(monkeypatch, cup, recording_cup)
    _patch_everywhere(monkeypatch, tensor_system, recording_tensor_system)
    code, out, _ = run(
        "chern-weil", "--complex", "builtin:torus3x3",
        "--rep-file", str(FIXTURES / "rep3_unipotent.json"),
        "--omega", str(FIXTURES / "omega_torus3x3_rank3.json"), "--max-k", "3",
    )
    assert code == 0
    assert out == (
        "k=0: invariant sections 1, nonzero classes (1/1)\n"
        "k=1: invariant sections 1, nonzero classes (22/3)\n"
        "k=2: invariant sections 1, image {0}\n"
        "k=3: invariant sections 1, image {0}\n"
    )
    assert cupped == [2]  # 1 cup omega
    assert tensored == [3]  # the trivial line tensor the rank-3 adjoint


def test_chern_weil_builds_a_powers_shared_work_once_for_all_its_sections(run, monkeypatch):
    """The trivial rank-2 system has two invariant sections at k = 1, and
    their classes share one omega^1 and one untwisted H^2.  A power with no
    section (k = 1 of the diagonal system) builds neither."""
    cohomology = sys.modules["algebroids.cohomology"]
    cupped, spaces = [], []
    cup, untwisted_space = cohomology.cup, cohomology.untwisted_space

    def recording_cup(alpha, beta):
        cupped.append(alpha.degree + beta.degree)
        return cup(alpha, beta)

    def recording_untwisted_space(c, n):
        spaces.append(n)
        return untwisted_space(c, n)

    _patch_everywhere(monkeypatch, cup, recording_cup)
    _patch_everywhere(monkeypatch, untwisted_space, recording_untwisted_space)
    outs = {}
    for name in ("rep2_trivial", "rep2_diagonal"):
        del cupped[:], spaces[:]
        code, out, _ = run(
            "chern-weil", "--complex", "builtin:torus3x3",
            "--rep-file", str(FIXTURES / f"{name}.json"),
            "--omega", str(FIXTURES / "omega_torus3x3_rank2.json"), "--min-k", "0", "--max-k", "2",
        )
        assert code == 0
        outs[name] = (out.splitlines()[1], list(cupped), list(spaces))
    assert outs["rep2_trivial"] == (
        "k=1: invariant sections 2, nonzero classes (10/3); (5/3)", [2], [0, 2],
    )
    assert outs["rep2_diagonal"] == ("k=1: invariant sections 0, image {0}", [], [0])


def test_chern_weil_dualizes_only_the_adjoint(run, monkeypatch):
    """A query pairs each section with omega^k in the fiber, so the only
    system it dualizes is the adjoint, whose Sym^k duals hold the sections."""
    local_systems = sys.modules["algebroids.local_systems"]
    dualized = []
    dual = local_systems.dual

    def recording_dual(L):
        dualized.append(L)
        return dual(L)

    _patch_everywhere(monkeypatch, dual, recording_dual)
    code, out, _ = run(
        "chern-weil", "--complex", "builtin:torus4x4",
        "--rep-file", str(FIXTURES / "rep3_unipotent.json"),
        "--omega", str(FIXTURES / "omega_torus4x4_rank3.json"), "--max-k", "2",
    )
    assert code == 0
    assert "k=2: invariant sections" in out
    assert dualized
    assert {id(L) for L in dualized} == {id(dualized[0])}
    assert dualized[0].rank == 3


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


def _limited_cli_process(*argv, timeout):
    """Run the command line in a child process under a 1 GiB address limit,
    with errors printed as JSON, killed after ``timeout`` seconds."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(
        os.environ,
        PYTHONPATH=str(Path(algebroids.__file__).resolve().parents[1]),
        ALGEBROIDS_VERBOSE="1",
    )
    return subprocess.run(
        [sys.executable, "-m", "algebroids.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=timeout,
    )


def test_huge_vertex_count_fails_typed_in_bounded_memory(tmp_path):
    """A declared vertex count far beyond the edges must not allocate per
    vertex: the disconnection error comes out under a 1 GiB address limit."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": 100_000_000, "simplices": [[0, 1]]}))
    proc = _limited_cli_process("validate", "--complex", str(path), timeout=10)
    assert proc.returncode == 1
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == {
        "code": "DISCONNECTED",
        "details": {"vertex": 2},
        "message": "vertex 2 is not reachable from vertex 0",
    }


def test_running_out_of_memory_fails_typed():
    """The dense coboundary of the 100x100 torus does not fit in a 1 GiB
    address space; the MemoryError that escapes gets a typed error line,
    not a traceback."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(algebroids.__file__).resolve().parents[1]))
    env.pop("ALGEBROIDS_VERBOSE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "cohomology",
         "--complex", "builtin:torus100x100", "--rep", "a=1,b=1"],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("error [OUT_OF_MEMORY]: ")


RANK3_TORUS4X4 = (
    "chern-weil", "--complex", "builtin:torus4x4",
    "--rep-file", str(FIXTURES / "rep3_unipotent.json"),
    "--omega", str(FIXTURES / "omega_torus4x4_rank3.json"),
)


@pytest.mark.parametrize("k", [10, 10**6])
def test_a_symmetric_power_past_the_bound_fails_fast(k):
    """Sym^10 of the rank-3 adjoint has dimension 66, past the bound of 55
    (before the bound, k = 7 alone ran past a minute).  Both powers are
    refused before any power is built."""
    proc = _limited_cli_process(*RANK3_TORUS4X4, "--min-k", "0", "--max-k", str(k), timeout=10)
    assert proc.returncode == 1
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["code"] == "BAD_INPUT"
    assert error["details"] == {"dimension": math.comb(k + 2, k), "limit": 55}


def test_the_largest_symmetric_power_in_the_bound_answers():
    proc = _limited_cli_process(*RANK3_TORUS4X4, "--min-k", "9", "--max-k", "9", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "k=9: invariant sections 1, image {0}\n"


def test_an_empty_power_range_is_refused():
    """--min-k past --max-k used to print an empty report and exit 0."""
    proc = _limited_cli_process(*RANK3_TORUS4X4, "--min-k", "3", "--max-k", "2", timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["code"] == "BAD_INPUT"
    assert error["details"] == {"min_k": 3, "max_k": 2}


RANK1_TORUS = ("chern-weil", "--complex", "builtin:torus", "--rep", "a=2/3,b=5")


@pytest.mark.parametrize("k", [1000, 10**9])
def test_a_power_range_past_the_summed_bound_fails_fast(k):
    """Sym^k of a line is a line, so no single power is past its bound, but
    powers 0 to k sum to k + 1 dimensions, past the bound of 220 (before
    that bound, --max-k 1000 answered after 8 s).  The sum is taken in
    closed form, so a range of 10^9 powers costs no loop."""
    proc = _limited_cli_process(*RANK1_TORUS, "--min-k", "0", "--max-k", str(k), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["code"] == "BAD_INPUT"
    assert error["details"] == {"dimension": k + 1, "limit": 220}


@pytest.mark.parametrize("k", [220, 10**9])
def test_one_power_of_a_line_past_the_range_bound_fails_fast(k):
    """A single power of a line sums to one dimension, so neither bound
    fires, but its transports climb all k degrees: k = 10^6 took 7 s.  A
    power past 219, the top of the widest range of a line, is refused
    before any power is built."""
    proc = _limited_cli_process(*RANK1_TORUS, "--min-k", str(k), "--max-k", str(k), timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["code"] == "BAD_INPUT"
    assert error["details"] == {"power": k, "limit": 219}


def test_the_highest_power_of_a_line_in_the_bound_answers():
    proc = _limited_cli_process(*RANK1_TORUS, "--min-k", "219", "--max-k", "219", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "k=219: invariant sections 0, image {0}\n"


def test_deeply_nested_json_fails_typed(tmp_path):
    """200,000 nested brackets used to print a RecursionError traceback from
    the JSON parser, with no error line."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    proc = _limited_cli_process("validate", "--complex", str(path), timeout=10)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["code"] == "BAD_SCHEMA"
    assert error["message"].endswith("nested too deeply")


def test_a_signed_denominator_is_not_a_rational(run):
    """``1/-2`` used to pass the pattern and be refused by Fraction, which
    the message then called too many digits."""
    code, out, err = run("cohomology", "--complex", "builtin:torus", "--rep", "a=1/-2,b=1")
    assert (code, out) == (1, "")
    assert err == "error [BAD_SCHEMA]: expected a rational like '3/2', got '1/-2'\n"


def test_a_non_ascii_digit_is_not_a_rational(run):
    """A fullwidth 1 used to be read as 1: ``a=\uff11,b=1`` printed the
    untwisted dims H0=1 H1=2 H2=1."""
    code, out, err = run("cohomology", "--complex", "builtin:torus", "--rep", "a=\uff11,b=1")
    assert (code, out) == (1, "")
    assert err == "error [BAD_SCHEMA]: expected a rational like '3/2', got '\uff11'\n"


@pytest.mark.parametrize("argv, last_line", [
    (("char-classes", "--rep", "a=6/5,b=-35/3"), "image dims: H1=2 H2=1"),
    (("chern-weil", "--rep", "a=1,b=1", "--omega", "fundamental", "--max-k", "1"),
     "k=1: invariant sections 1, nonzero classes (1/1)"),
])
def test_the_class_commands_answer_on_the_100x100_torus(argv, last_line):
    """The untwisted H^2 of the 100x100 torus is eliminated from the sparse
    rows of d_1 and d_2: the dense transposed d_1 alone, 20,000 x 30,000
    entries, used to run both commands out of memory."""
    proc = _limited_cli_process(*argv, "--complex", "builtin:torus100x100", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


@pytest.mark.parametrize("argv, last_line", [
    (("char-classes", "--rep", "a=6/5,b=-35/3"), "image dims: H1=2 H2=1"),
    (("cohomology", "--rep", "a=1,b=1"), "H0=1 H1=2 H2=1"),
])
def test_the_30x30_torus_answers_in_bounded_memory_and_time(argv, last_line):
    """A guard against entry growth or a hang in the integer back-reduction:
    the rank of d_1 of the 30x30 torus is read off 1,799 reduced rows, out
    of a forward echelon with 103,854 nonzeros, and both commands answer
    under 1 GiB within a minute."""
    proc = _limited_cli_process(*argv, "--complex", "builtin:torus30x30", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_a_huge_degree_answers_without_a_coboundary_per_degree():
    """Above the base dimension there are no cochains; --degree 10^6 used to
    build one empty coboundary per degree and took 5 s."""
    proc = _limited_cli_process("cohomology", "--complex", "builtin:torus", "--rep", "a=2,b=3",
                                "--degree", "1000000000", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "H1000000000=0\n"


def test_the_widest_power_range_in_the_bound_answers():
    """Powers 0 to 9 of the rank-3 adjoint sum to 220 dimensions, the bound."""
    proc = _limited_cli_process(*RANK3_TORUS4X4, "--min-k", "0", "--max-k", "9", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "k=0: invariant sections 1, nonzero classes (1/1)",
        "k=1: invariant sections 1, nonzero classes (-68/3)",
    ] + [f"k={k}: invariant sections 1, image {{0}}" for k in range(2, 10)]


@pytest.mark.parametrize("rep", ["a=6/5,b=-35/3", "a=-42/5,b=-42/5", "a=1,b=66/7", "a=2,b=3"])
def test_both_commands_print_one_surjectivity_report(run, rep):
    torus = ("--complex", "builtin:torus", "--rep", rep)
    outputs = [
        run(*argv, *torus)
        for argv in (
            ("char-classes", "--check-surjectivity", "--json"),
            ("surjectivity", "--json"),
            ("char-classes", "--check-surjectivity"),
            ("surjectivity",),
        )
    ]
    assert [code for code, _, _ in outputs] == [0, 0, 0, 0]
    classes, alone = (json.loads(out) for _, out, _ in outputs[:2])
    for key in ("surjective", "certificate"):
        assert classes[key] == alone[key]
    classes_text, alone_text = (out.splitlines() for _, out, _ in outputs[2:])
    assert alone_text[0].startswith("surjective: ")
    assert classes_text[-len(alone_text):] == alone_text


def _cli_process(*argv):
    """Run the command line in a child process that is killed after 10 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(algebroids.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "algebroids.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )


def test_a_61_bit_prime_holonomy_gets_its_log_class():
    """Trial division up to the root of 2**61 - 1 would run for hours;
    Miller-Rabin proves it prime at once."""
    p = 2**61 - 1
    proc = _cli_process("char-classes", "--complex", "builtin:torus", "--rep", f"a={p},b=1")
    assert proc.returncode == 0, proc.stderr
    assert f"log class p={p}: 1_2:1/1, 2_5:-1/1" in proc.stdout
    assert "image dims: H1=1 H2=0" in proc.stdout


def test_a_loop_through_two_large_generators_is_factored_by_parts():
    """The loop whose holonomy is a * b has 125 bits, over the bound, but a
    and b each appear alone on other loops, so the coprime base splits it
    and each prime is factored by itself."""
    a, b = 2305843009213693951, 18446744073709551557  # primes of 61 and 64 bits
    proc = _cli_process("surjectivity", "--complex", "builtin:torus", "--rep", f"a={a},b={b}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "surjective: true",
        f"  a_dual = 1/1 * l{a}",
        f"  b_dual = 1/1 * l{b}",
        f"  fundamental = 1/1 * l{a}*l{b}",
    ]


def test_large_primes_that_never_appear_apart_fail_typed():
    """A generator that is itself a product of two large primes gives no
    gcd to split it by, so its 125 bits are over the bound."""
    ab = 2305843009213693951 * 18446744073709551557
    proc = _cli_process("char-classes", "--complex", "builtin:torus", "--rep", f"a={ab},b=1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error [BAD_INPUT]: cannot factor {ab}: ")


def test_a_holonomy_over_the_factoring_bound_fails_typed():
    q = 2**89 - 1  # a prime: 89 bits are left after trial division
    proc = _cli_process("char-classes", "--complex", "builtin:torus", "--rep", f"a=3/{q},b=1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error [BAD_INPUT]: cannot factor ")


@pytest.mark.parametrize("name", ["torus2000x2000", "torus99999999x99999999", "circle40001"])
def test_a_builtin_past_the_size_bound_fails_fast_in_bounded_memory(name):
    """A builtin name is a few bytes however large the model it names, so
    its size is checked against a bound before anything is built."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(algebroids.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "validate", "--complex", f"builtin:{name}"],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error [BAD_INPUT]: builtin model has more than 40000 vertices\n"


def test_builtin_models_up_to_the_bound_are_built(run):
    code, out, _ = run("validate", "--complex", "builtin:torus100x100")
    assert code == 0
    assert "complex ok: 10000 vertices, 30000 edges, 20000 triangles" in out
    code, _, err = run("validate", "--complex", "builtin:torus200x201")
    assert code == 1
    assert err.startswith("error [BAD_INPUT]")


DIGITS = "7" * 5000  # past the interpreter's 4,300-digit limit on int(str)


def test_an_inline_rational_past_the_digit_limit_fails_typed(run):
    code, _, err = run("cohomology", "--complex", "builtin:torus", "--rep", f"a={DIGITS},b=1")
    assert code == 1
    assert err == "error [BAD_SCHEMA]: rational of 5000 characters has too many digits\n"


def test_a_builtin_size_past_the_digit_limit_fails_typed(run):
    code, _, err = run("validate", "--complex", f"builtin:torus{DIGITS}x3")
    assert code == 1
    assert err == "error [BAD_SCHEMA]: builtin size of 5000 digits is too long\n"


@pytest.mark.parametrize("option", ["--rep-file", "--complex"])
def test_a_json_number_past_the_digit_limit_fails_typed(run, tmp_path, option):
    path = tmp_path / "big.json"
    path.write_text(f'{{"vertices": 3, "simplices": [], "entries": {{"edge_0_1": {DIGITS}}}}}')
    argv = ["--complex", "builtin:torus", "--rep-file", str(path)]
    if option == "--complex":
        argv = ["--complex", str(path)]
    code, _, err = run("cohomology", *argv)
    assert code == 1
    assert err.startswith(f"error [BAD_SCHEMA]: invalid JSON in {path}: ")


def test_an_answer_past_the_digit_limit_fails_typed(run, tmp_path):
    # circle6 wraps twice around loop a, so the pulled holonomy is a^2: an
    # input of 3,000 digits, under the limit, gives an answer of 6,000
    path = tmp_path / "double.json"
    path.write_text(dump_json({
        "source": "builtin:circle6",
        "target": "builtin:torus",
        "vertex_map": [0, 1, 2, 0, 1, 2],
    }))
    code, out, err = run("pullback", "--map", str(path), "--rep", "a=" + "7" * 3000 + ",b=1")
    assert code == 1
    assert out == ""
    assert err == "error [BAD_INPUT]: rational with a 19931-bit part has too many digits to print\n"
