"""Each oracle accepts the program's real answer and rejects a deliberately
wrong one, so the benchmark's checks are not vacuous.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from algebroids import cli  # noqa: E402
from oracles import OracleError  # noqa: E402


def run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def edit(stdout: str, change) -> str:
    data = json.loads(stdout)
    change(data)
    return json.dumps(data)


def write(tmp_path, name, doc) -> str:
    return workloads.write_json(str(tmp_path / name), doc)


F = Fraction
U_A = [[F(1), F(3, 2)], [F(0), F(1)]]
U_B = [[F(1), F(-2, 5)], [F(0), F(1)]]


# --- dims ---------------------------------------------------------------------


def test_rank1_dims_closed_form():
    assert oracles.rank1_dims(F(1), F(1)) == (1, 2, 1)
    assert oracles.rank1_dims(F(-1), F(1)) == (0, 0, 0)
    out = run("cohomology", "--json", "--complex", "builtin:torus", "--rep", "a=1,b=1")
    oracles.check_dims(out, (1, 2, 1), 1)
    flipped = edit(out, lambda d: d["dims"].update({"1": 1}))
    with pytest.raises(OracleError):
        oracles.check_dims(flipped, (1, 2, 1), 1)


def test_commuting_dims_flipped(tmp_path):
    assert oracles.commuting_dims(U_A, U_B) == (1, 2, 1)
    rep = write(tmp_path, "rep.json", workloads.rep_document(U_A, U_B))
    out = run("cohomology", "--json", "--complex", "builtin:torus3x3", "--rep-file", rep)
    oracles.check_dims(out, oracles.commuting_dims(U_A, U_B), 2)
    flipped = edit(out, lambda d: d["dims"].update({"0": 0}))
    with pytest.raises(OracleError):
        oracles.check_dims(flipped, oracles.commuting_dims(U_A, U_B), 2)


# --- classes ------------------------------------------------------------------

A, B = F(6, 35), F(-22, 13)
PRIMES = workloads.SMALL_PRIMES


@pytest.fixture(scope="module")
def classes_out():
    return run("char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus",
               "--rep", workloads.inline_rep(A, B))


@pytest.fixture(scope="module")
def surjectivity_out():
    return run("surjectivity", "--json", "--complex", "builtin:torus", "--rep", workloads.inline_rep(A, B))


def test_classes_accept_real_answers(classes_out, surjectivity_out):
    oracles.check_char_classes(classes_out, A, B, PRIMES)
    oracles.check_surjectivity(surjectivity_out, A, B, PRIMES)


@pytest.mark.parametrize("mutate", [
    # a wrong valuation: the p=2 class moved on edge (1, 2) of loop a
    lambda d: d["logs"]["2"].__setitem__(d["generators"].index("edge_1_2"), "2/1"),
    # a wrong valuation that stays closed: every class scaled by 2
    lambda d: d["logs"].update({p: [f"{2 * F(x).numerator}/{F(x).denominator}" for x in v]
                                for p, v in d["logs"].items()}),
    # a prime class missing
    lambda d: d["logs"].pop("13"),
    # a flipped sign bit
    lambda d: d["sign"].__setitem__(0, 1 - d["sign"][0]),
    # a flipped image dim
    lambda d: d["image_dims"].update({"2": 0}),
    # a scaled certificate coefficient
    lambda d: d["certificate"][0]["terms"][0].update({"coefficient": "2/1"}),
    # a scaled fundamental coefficient
    lambda d: d["certificate"][2]["terms"][0].update({"coefficient": "1/1"}),
    # a flipped verdict
    lambda d: d.update({"surjective": False, "certificate": []}),
])
def test_char_classes_rejects(classes_out, mutate):
    with pytest.raises(OracleError):
        oracles.check_char_classes(edit(classes_out, mutate), A, B, PRIMES)


@pytest.mark.parametrize("mutate", [
    lambda d: d["certificate"][1]["terms"][0].update({"coefficient": "3/1"}),
    lambda d: d["certificate"][2]["terms"][0].update({"coefficient": "-2/1"}),
    lambda d: d["certificate"].pop(),
])
def test_surjectivity_rejects(surjectivity_out, mutate):
    with pytest.raises(OracleError):
        oracles.check_surjectivity(edit(surjectivity_out, mutate), A, B, PRIMES)


def test_non_surjective_answer():
    a, b = F(4), F(1, 8)
    out = run("char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus",
              "--rep", workloads.inline_rep(a, b))
    oracles.check_char_classes(out, a, b, PRIMES)
    with pytest.raises(OracleError):
        oracles.check_char_classes(edit(out, lambda d: d["image_dims"].update({"1": 2})), a, b, PRIMES)


def test_valuation_table_needs_every_prime():
    with pytest.raises(ValueError):
        oracles.valuation_table(F(6), F(53), PRIMES)


# --- Chern-Weil ---------------------------------------------------------------


@pytest.fixture(scope="module")
def chern_weil_outs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cw")
    wl = workloads.ChernWeilRank2(seed=5, inputs=str(tmp))
    case = wl.round(0)[1]  # 3x3 rank 2 unipotent: one k=1 class
    return case, [run(*argv) for argv in case.argvs]


def test_chern_weil_accepts_real_answers(chern_weil_outs):
    case, outs = chern_weil_outs
    case.check(outs)


def test_section_counts():
    assert oracles.section_counts(U_A, U_B, 2) == [1, 1, 1]
    s, t = F(2), F(3, 5)
    diag = ([[s, 0], [0, 1 / s]], [[t, 0], [0, 1 / t]])
    assert oracles.section_counts(*diag, 2) == [1, 0, 1]


def _class_plus_one(index):
    """Move the first k=1 class of report ``index`` by one."""
    def bump(d):
        cls = d["powers"]["1"]["classes"][0]
        cls[0] = workloads.text(F(cls[0]) + 1)

    def mutate(outs):
        outs = list(outs)
        outs[index] = edit(outs[index], bump)
        return outs

    return mutate


def _wrong_count(outs):
    outs = list(outs)
    outs[0] = edit(outs[0], lambda d: d["powers"]["2"].update(
        {"invariant_sections": 2, "classes": [[], []]}))
    return outs


@pytest.mark.parametrize("mutate", [_wrong_count, _class_plus_one(1), _class_plus_one(2)])
def test_chern_weil_rejects(chern_weil_outs, mutate):
    case, outs = chern_weil_outs
    with pytest.raises(OracleError):
        case.check(mutate(outs))


def test_repeat_must_match():
    oracles.check_repeat("same\n", "same\n")
    with pytest.raises(OracleError):
        oracles.check_repeat("H0=1\n", "H0=0\n")


# --- tracer -------------------------------------------------------------------


def test_tracer_accounts_for_the_query_and_restores_the_program():
    from tracer import Tracer

    original_main, original_solve = cli.main, cli.cohomology.__globals__["solve"]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_query("char-classes")
        out = run("char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus",
                  "--rep", workloads.inline_rep(A, B))
        tracer.end_query()
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert cli.cohomology.__globals__["solve"] is original_solve
    oracles.check_char_classes(out, A, B, PRIMES)
    # the root span without the tracer's hooks is exactly the layer self times
    root = tracer.seconds("cli.main")
    metrics = tracer.metrics([root], [root])
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, rel=1e-9)
    assert metrics["char_classes.log_classes_per_query"][0] > 0
    assert metrics["linalg.factor_calls"][0] > 0
