import csv
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import csdlab
from csdlab.cli import Caps, _verify_cases, main
from csdlab.expr import evaluate, parse, render
from csdlab.groups import (
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    heisenberg_E,
    p_group_P,
    quasidihedral,
)
from csdlab.formulas import csd_quaternion
from csdlab.reports import decimal_str

HEADER = "group,order,l1,lattice,csd,sd,ndeg,cdeg,d,csd_star,is_iwasawa,wall_ms"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_all_csv(capsys):
    code, out, err = run(capsys, ["compute", "--group", "D(8)", "--all", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "D(8),8,7,10,41/49,23/25,3/5,7/10,5/8,41/49,false,"


def test_compute_all_counts_csd_once(capsys, monkeypatch):
    # compute, sd, csd_star, is_iwasawa and the section walk's H = G row all
    # need csd(G); G's cyclic pairs are counted for the first only
    from csdlab import lattice

    sizes = []
    count_pairs = lattice._count_pairs

    def recording(group, orbits):
        sizes.append(sum(map(len, orbits)))
        return count_pairs(group, orbits)

    monkeypatch.setattr(lattice, "_count_pairs", recording)
    code, out, _ = run(capsys, ["compute", "--all", "--group", "S(5)", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].startswith("S(5),120,67,156,")
    # a proper subgroup H has |L1(H)| < |L1(G)| = 67
    assert sizes.count(67) == 1


@pytest.mark.parametrize(
    "group,tests,closures,chain",
    [
        ("D(8)xEa(2,3)", 77696, 6923, 1989),
        ("S(5)", 1387, 137, 49),
        ("Ea(2,5)", 0, 2046, 0),
        ("D(128)", 892, 364, 43),
    ],
)
def test_compute_all_work_is_pinned(capsys, monkeypatch, group, tests, closures, chain):
    # pair tests (the body of permutes), lattice closures (the worklist and
    # the section walk) and closures of the generator chain; a change to
    # these counts is deliberate
    from csdlab import groups, lattice

    counts = {}

    def count(module, name):
        real = getattr(module, name)
        key = f"{module.__name__}.{name}"
        counts[key] = 0

        def counting(*args):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    count(lattice, "_permutes")
    count(lattice, "_coset_closure")
    count(groups, "_coset_closure")
    code, _, _ = run(capsys, ["compute", "--all", "--group", group, "--format", "csv"])
    assert code == 0
    assert counts == {
        "csdlab.lattice._permutes": tests,
        "csdlab.lattice._coset_closure": closures,
        "csdlab.groups._coset_closure": chain,
    }


OVER_SECTIONS = "order 192 exceeds sections max order 128"


@pytest.mark.parametrize(
    "argv, ops, message",
    [
        (["--all", "--group", "Z(3)xD(8)xEa(2,3)"], None, OVER_SECTIONS),
        (["--jobs", "1"], ["all"], f"batch entry 0: {OVER_SECTIONS}"),
        (["--jobs", "2"], ["all"], f"batch entry 0: {OVER_SECTIONS}"),
        (["--jobs", "1"], ["sd", "csd_star"], f"batch entry 0: {OVER_SECTIONS}"),
        # the first op over its cap names the error, as when the ops ran in turn
        (["--all", "--group", "Z(300)"], None, "order 300 exceeds lattice max order 256"),
    ],
    ids=["all", "batch-all-jobs1", "batch-all-jobs2", "batch-sd-csd_star", "lattice-first"],
)
def test_compute_meets_every_cap_before_any_work(capsys, monkeypatch, argv, ops, message):
    from csdlab import lattice

    calls = {"_lattice_worklist": 0, "_count_pairs": 0}
    for name in calls:
        real = getattr(lattice, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(lattice, name, counting)
    if ops is not None:
        batch = json.dumps([{"group": "Z(3)xD(8)xEa(2,3)", "ops": ops}])
        monkeypatch.setattr("sys.stdin", io.StringIO(batch))
        argv = ["--batch", "-", *argv]
    assert run(capsys, ["compute", *argv]) == (3, "", f"error: {message}\n")
    assert calls == {"_lattice_worklist": 0, "_count_pairs": 0}


def test_scan_csd_eq_sd_meets_the_lattice_cap_before_csd(capsys, monkeypatch):
    from csdlab import lattice

    def no_count(*args):
        raise AssertionError("csd counted for a group over the lattice cap")

    monkeypatch.setattr(lattice, "_count_pairs", no_count)
    code, out, _ = run(capsys, ["scan", "csd-eq-sd", "Z(300)", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "Z(300),,,skipped"


@pytest.mark.parametrize("flag", ["--all", "--sections"])
def test_batch_rejects_all_and_sections(capsys, monkeypatch, flag):
    monkeypatch.setattr("sys.stdin", io.StringIO('[{"group": "D(8)"}]'))
    code, out, err = run(capsys, ["compute", "--batch", "-", flag])
    assert (code, out) == (2, "")
    assert err == 'error: --batch takes no --all or --sections: each batch entry lists its own "ops"\n'


def test_long_product_chain_needs_no_recursion(capsys):
    text = "x".join(["Z(1)"] * 2000)
    assert render(parse(text)) == text
    code, out, _ = run(capsys, ["compute", "--group", text, "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "1"


def test_deep_nesting_is_a_parse_error(capsys):
    code, _, err = run(capsys, ["compute", "--group", "(" * 1000 + "Z(2)" + ")" * 1000])
    assert code == 2
    assert "nested too deeply" in err


def test_compute_default_ops(capsys):
    code, out, _ = run(capsys, ["compute", "--group", "S(3)", "--format", "csv"])
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[:3] == ["S(3)", "6", "5"]
    assert row[4] == "19/25"  # csd
    assert row[8] == "1/2"  # d
    assert row[5] == ""  # sd not requested


def test_compute_csd_only_alias(capsys):
    _, out_default, _ = run(capsys, ["compute", "--group", "Q(8)", "--format", "csv"])
    _, out_alias, _ = run(capsys, ["compute", "--group", "Q(8)", "--csd-only", "--format", "csv"])
    assert out_default == out_alias


def test_compute_json_keys(capsys):
    code, out, _ = run(capsys, ["compute", "--group", "D(8)", "--all", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["group"] == "D(8)"
    assert data[0]["csd"] == "41/49"
    assert data[0]["is_iwasawa"] is False
    assert data[0]["wall_ms"] is None


def test_compute_decimal(capsys):
    code, out, _ = run(capsys, ["compute", "--group", "D(8)", "--decimal", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "0.836735"


def test_compute_text_format(capsys):
    code, out, _ = run(capsys, ["compute", "--group", "D(8)", "--all"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["group", "order", "l1", "lattice"]
    assert "41/49" in lines[1]


def test_compute_timing_flag(capsys):
    _, out_plain, _ = run(capsys, ["compute", "--group", "Z(6)", "--format", "json"])
    assert json.loads(out_plain)[0]["wall_ms"] is None
    _, out_timed, _ = run(capsys, ["compute", "--group", "Z(6)", "--timing", "--format", "json"])
    wall = json.loads(out_timed)[0]["wall_ms"]
    assert isinstance(wall, (int, float)) and wall >= 0


def test_compute_deterministic_across_jobs(capsys):
    argv = ["compute", "--group", "D(12)", "--all", "--format", "json"]
    _, out_one, _ = run(capsys, argv + ["--jobs", "1"])
    _, out_three, _ = run(capsys, argv + ["--jobs", "3"])
    assert out_one == out_three


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_below_one_exit_2(capsys, value):
    for argv in (["compute", "--group", "Z(4)"], ["scan", "csd-star", "Z(4)"]):
        code, out, err = run(capsys, argv + ["--jobs", value])
        assert code == 2
        assert out == ""
        assert "--jobs" in err


def test_pool_has_at_most_one_worker_per_task(capsys, monkeypatch, tmp_path):
    sizes = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers and runs
        the tasks in this process, so no worker is ever started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"group": "Z(3)"}, {"group": "S(3)"}]))
    code, out_batch, _ = run(capsys, ["compute", "--batch", str(batch), "--jobs", "8"])
    assert code == 0
    code, out_scan, _ = run(capsys, ["scan", "csd-star", "Z(4)", "D(8)", "Q(8)", "--jobs", "16"])
    assert code == 0
    code, _, _ = run(capsys, ["scan", "csd-star", "Z(4)", "D(8)", "Q(8)", "--jobs", "2"])
    assert code == 0
    assert sizes == [2, 3, 2]
    assert "S(3)" in out_batch and "41/49" in out_scan


def test_cli_import_loads_no_process_pool():
    src = str(Path(csdlab.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import csdlab.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses_json_or_csv(capsys, tmp_path):
    """Importing csdlab.cli newly loads none of these; the formats and --batch that
    need json or csv load it themselves and print what they print in process."""
    src = str(Path(csdlab.__file__).resolve().parents[1])
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"group": "Z(3)"}, {"group": "S(3)", "ops": ["all"]}]))
    runs = [
        ["compute", "--group", "D(8)", "--format", "json"],
        ["compute", "--group", "D(8)", "--format", "csv"],
        ["compute", "--batch", str(batch)],
    ]
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import csdlab.cli\n"
        "loaded = {'dataclasses', 'inspect', 'json', 'csv'} & (set(sys.modules) - before)\n"
        "print(sorted(loaded), flush=True)\n"
        f"for argv in {runs!r}:\n"
        "    assert csdlab.cli.main(argv) == 0, argv\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    expected = ""
    for argv in runs:
        code, out, _ = run(capsys, argv)
        assert code == 0
        expected += out
    assert done.stdout == "[]\n" + expected


def test_batch_file(capsys, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"group": "S(3)", "ops": ["all"]},
        {"group": "Z(6)", "ops": ["csd"]},
    ]))
    code, out, _ = run(capsys, ["compute", "--batch", str(batch), "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("S(3),6,5,6,19/25,5/6,")
    assert lines[2] == "Z(6),6,4,,1/1,,,,1/1,,,"


def test_batch_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('[{"group": "Z(4)"}]'))
    code, out, _ = run(capsys, ["compute", "--batch", "-", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "Z(4),4,3,,1/1,,,,1/1,,,"


def test_batch_parallel_preserves_order(capsys, tmp_path):
    entries = [{"group": f"Z({n})"} for n in (3, 4, 5, 6, 7, 8)]
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(entries))
    argv = ["compute", "--batch", str(batch), "--format", "csv"]
    code, out_seq, _ = run(capsys, argv)
    assert code == 0
    code, out_par, _ = run(capsys, argv + ["--jobs", "4"])
    assert code == 0
    assert out_seq == out_par
    groups = [line.split(",")[0] for line in out_seq.splitlines()[1:]]
    assert groups == [e["group"] for e in entries]


def test_batch_bad_ops_exit_2(capsys, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text('[{"group": "Z(4)", "ops": ["frobnicate"]}]')
    code, _, err = run(capsys, ["compute", "--batch", str(batch)])
    assert code == 2
    assert "error" in err
    for ops, message in [("[{}]", "unknown op {}"), ('[["sd"]]', "unknown op ['sd']"), ('"sd"', "ops must be a list")]:
        batch.write_text(f'[{{"group": "Z(4)"}}, {{"group": "Z(4)", "ops": {ops}}}]')
        assert run(capsys, ["compute", "--batch", str(batch)]) == (2, "", f"error: batch entry 1: {message}\n")


def test_batch_not_a_list_exit_2(capsys, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text('{"group": "Z(4)"}')
    code, _, _ = run(capsys, ["compute", "--batch", str(batch)])
    assert code == 2


def test_batch_nested_too_deeply_exit_2(capsys, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text("[" * 100000)
    code, _, err = run(capsys, ["compute", "--batch", str(batch)])
    assert code == 2
    assert err.startswith("error: batch input is not valid JSON: ")


PARSE_ERROR = "expected ')', found 'end of input' (at position 3)"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "bad, code, message",
    [
        ({"group": "Q(8"}, 2, f"batch entry 1: {PARSE_ERROR}"),
        ({"group": "Z(300)", "ops": ["all"]}, 3, "batch entry 1: order 300 exceeds lattice max order 256"),
    ],
    ids=["parse", "guardrail"],
)
def test_batch_bad_entry_is_named(capsys, tmp_path, jobs, bad, code, message):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"group": "D(8)"}, bad]))
    got, out, err = run(capsys, ["compute", "--batch", str(batch), "--jobs", jobs])
    assert got == code
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_bad_group_is_named(capsys, jobs):
    code, out, err = run(capsys, ["scan", "csd-star", "D(8)", "Q(8", "--jobs", jobs])
    assert code == 2
    assert out == ""
    assert err == f"error: scan group 'Q(8': {PARSE_ERROR}\n"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, ["compute", "--group", "W(3)"])
    assert code == 2
    assert "unknown family" in err


def test_guardrail_exit_3(capsys):
    code, _, err = run(capsys, ["compute", "--group", "Z(600)"])
    assert code == 3
    assert "exceeds" in err


def test_max_order_flag_lifts_guardrail(capsys):
    code, out, _ = run(
        capsys, ["compute", "--group", "Z(600)", "--max-order", "1000", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[1].startswith("Z(600),600,24,")


def test_env_var_guardrail(capsys, monkeypatch):
    monkeypatch.setenv("CSDLAB_MAX_ORDER", "40")
    code, _, _ = run(capsys, ["compute", "--group", "Z(60)"])
    assert code == 3
    # explicit flag wins over the environment
    code, out, _ = run(
        capsys, ["compute", "--group", "Z(60)", "--max-order", "100", "--format", "csv"]
    )
    assert code == 0
    monkeypatch.setenv("CSDLAB_MAX_ORDER", "banana")
    code, _, err = run(capsys, ["compute", "--group", "Z(6)"])
    assert code == 2
    assert "CSDLAB_MAX_ORDER must be an integer, got 'banana'" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "name", ["--max-order", "--max-lattice-order", "--max-sections-order", "CSDLAB_MAX_ORDER"]
)
def test_caps_below_one_exit_2(capsys, monkeypatch, name, value):
    argv = ["compute", "--group", "D(8)"]
    if name.startswith("--"):
        argv += [name, value]
    else:
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert name in err and f"must be at least 1, got {value}" in err


def test_perm_row_does_not_depend_on_the_declared_degree(capsys):
    _, small, _ = run(capsys, ["compute", "--group", "Perm(2; (0 1))", "--format", "csv"])
    code, big, _ = run(capsys, ["compute", "--group", "Perm(99999999; (0 1))", "--format", "csv"])
    assert code == 0
    assert big == small.replace("Perm(2;", "Perm(99999999;")


def test_usage_error_exit_2(capsys):
    assert main(["compute"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["compute", "--group", "Z(4)", "--batch", "x.json"]) == 2
    capsys.readouterr()
    assert main(["verify", "dihedral", "notarange"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["compute", "--group", "Z(²)"], "unexpected character '²' (at position 2)"),
        (["verify", "dihedral", "2..²"], "range must look like 2..40, got '2..²'"),
    ],
)
def test_non_decimal_digits_are_named(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_dihedral(capsys):
    code, out, _ = run(capsys, ["verify", "dihedral", "2..12", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "params,formula,brute,match"
    assert len(lines) == 12
    assert all(line.endswith(",yes") for line in lines[1:])
    assert lines[1].startswith("m=2,")


def test_verify_dihedral_skips_out_of_domain(capsys):
    code, out, _ = run(capsys, ["verify", "dihedral", "1..3", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["m=2", "m=3"]


def test_verify_quaternion(capsys):
    code, out, _ = run(capsys, ["verify", "quaternion", "3..6", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",yes") for row in rows)


def test_verify_prints_formula_cells_past_the_int_digit_limit(capsys):
    """csd_quaternion(7150) has a denominator of more than 4300 digits, past
    Python's int-to-str limit; its skipped row still prints the exact cell."""
    code, out, err = run(capsys, ["verify", "quaternion", "7149..7150", "--format", "csv"])
    assert code == 0, err
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [(row[0], row[2], row[3]) for row in rows] == [
        ("n=7149", "", "skipped"),
        ("n=7150", "", "skipped"),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert [Fraction(row[1]) for row in rows] == [csd_quaternion(7149), csd_quaternion(7150)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(rows[1][1].split("/")[1]) > limit


def test_verify_names_a_point_whose_group_cannot_be_written(capsys):
    # Q(2^14285) has an order of more than 4300 decimal digits
    code, out, err = run(capsys, ["verify", "quaternion", "14285..14285"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify quaternion 14285: ")


def test_verify_semidihedral_mismatch_exit_1(capsys):
    code, out, _ = run(capsys, ["verify", "semidihedral", "4..5", "--format", "csv"])
    assert code == 1
    rows = out.splitlines()[1:]
    assert rows[0] == "n=4,37/50,19/25,no"
    assert rows[1] == "n=5,165/289,169/289,no"


def test_verify_ep3_guardrail_skip(capsys):
    code, out, _ = run(capsys, ["verify", "ep3", "3..7", "--max-order", "200", "--format", "csv"])
    assert code == 0  # skipped rows are not mismatches
    rows = out.splitlines()[1:]
    assert rows[0] == "p=3,22/49,22/49,yes"
    assert rows[1] == "p=5,137/512,137/512,yes"
    assert rows[2].startswith("p=7,") and rows[2].endswith(",skipped")
    code, out, _ = run(capsys, ["verify", "ep3", "3..7", "--max-order", "200", "--format", "json"])
    assert code == 0
    assert json.loads(out)[2] == {
        "params": "p=7", "formula": "155/841", "brute": None, "match": "skipped"
    }


def test_verify_pgroup_stops_once_no_group_fits(capsys):
    """|P(n,p,q)| >= 2*3^(n-1), so past n = 6 the default cap admits none."""
    _, expected, _ = run(capsys, ["verify", "pgroup", "2..6"])
    code, out, _ = run(capsys, ["verify", "pgroup", "2..20000"])
    assert code == 0
    assert out == expected


def test_verify_pgroup(capsys):
    code, out, _ = run(capsys, ["verify", "pgroup", "2..3", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) >= 4
    assert all(row.endswith(",yes") for row in rows)
    # params cells contain commas, so csv quotes them
    assert '"n=2,p=3,q=2",19/25,19/25,yes' in rows
    assert '"n=3,p=3,q=2",31/49,31/49,yes' in rows


def test_verify_zq8bound(capsys):
    code, out, _ = run(capsys, ["verify", "zq8bound", "2..3", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert all(row.endswith(",yes") for row in rows)


def test_verify_zq8bound_skips_out_of_domain(capsys):
    code, out, _ = run(capsys, ["verify", "zq8bound", "1..2", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].startswith("n=2,")


def test_verify_zq8bound_skips_over_the_order_cap(capsys):
    # Z(4) fits a cap of 4 but Q(8) does not, so both rows skip
    code, out, _ = run(capsys, ["verify", "zq8bound", "2..3", "--max-order", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == ["n=2,19/27,,skipped", "n=3,139/169,,skipped"]


def _family_call(family: str, params: str):
    """The constructor call each verify family made before it used expressions."""
    v = {key: int(value) for key, value in (kv.split("=") for kv in params.split(","))}
    cap = 1024
    if family == "dihedral":
        return dihedral(v["m"], max_order=cap)
    if family == "quaternion":
        return generalized_quaternion(v["n"], max_order=cap)
    if family == "semidihedral":
        return quasidihedral(v["n"], max_order=cap)
    if family == "pgroup":
        return p_group_P(v["n"], v["p"], v["q"], max_order=cap)
    if family == "ep3":
        return heisenberg_E(v["p"], max_order=cap)
    return direct_product(cyclic(2 ** v["n"], max_order=cap), generalized_quaternion(3), max_order=cap)


@pytest.mark.parametrize(
    "family, span",
    [
        ("dihedral", range(2, 61)),
        ("quaternion", range(3, 10)),
        ("semidihedral", range(4, 10)),
        ("pgroup", range(3, 7)),
        ("ep3", range(3, 8)),
        ("zq8bound", range(2, 8)),
    ],
)
def test_verify_expressions_build_the_family_tables(family, span):
    caps = Caps(None, None, None)
    seen = 0
    for value in span:
        for params, _, text in _verify_cases(family, value, caps):
            built = evaluate(parse(text), max_order=1024)
            assert built.table == _family_call(family, params).table, (family, params, text)
            seen += 1
    assert seen > 0


def test_scan_csd_star(capsys):
    code, out, _ = run(
        capsys, ["scan", "csd-star", "E(27)", "D(8)", "Q(8)", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,csd_star,classification,eq_41_49"
    assert lines[1] == "E(27),22/49,uncertified,no"
    assert lines[2] == "D(8),41/49,nilpotent-certified,yes"
    assert lines[3] == "Q(8),1/1,iwasawa-certified,no"


def test_scan_csd_eq_sd_silent_without_coincidence(capsys):
    # rows appear only when csd == sd != 1: abelian groups have both equal
    # to 1 and S(3) has csd 19/25 != sd 5/6, so none of these qualify
    code, out, _ = run(
        capsys, ["scan", "csd-eq-sd", "Z(12)", "Ea(2,3)", "S(3)", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == ["group,csd,sd,status"]


def test_scan_csd_eq_sd_skipped_row(capsys):
    code, out, _ = run(capsys, ["scan", "csd-eq-sd", "Z(600)", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "Z(600),,,skipped"


def test_scan_monotonicity(capsys):
    code, out, _ = run(capsys, ["scan", "monotonicity", "S(3)", "D(8)", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,h_index,h_order,k_index,k_order,csd_h,csd_k,status"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_monotonicity_rows(capsys, jobs):
    # A4 < S4 is the one nested pair of S(4) whose csd rises; with two
    # jobs the rows come back through the process pool
    code, out, _ = run(
        capsys, ["scan", "monotonicity", "S(4)", "D(8)", "--format", "csv", "--jobs", jobs]
    )
    assert code == 0
    assert out.splitlines()[1:] == ["S(4),28,12,29,24,7/16,127/289,pair"]


def test_scan_guardrail_rows_skipped(capsys):
    code, out, _ = run(
        capsys, ["scan", "csd-star", "Z(600)", "D(8)", "--format", "csv"]
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0] == "Z(600),,skipped,"
    assert rows[1] == "D(8),41/49,nilpotent-certified,yes"
    # csd-star's skip field, classification, sits between two absent cells
    code, out, _ = run(capsys, ["scan", "csd-star", "Z(600)", "D(8)", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0] == {
        "group": "Z(600)", "csd_star": None, "classification": "skipped", "eq_41_49": None
    }
    code, out, _ = run(capsys, ["scan", "csd-star", "Z(600)", "D(8)"])
    assert code == 0
    assert out.splitlines() == [
        "group   csd_star  classification       eq_41_49",
        "Z(600)  -         skipped              -",
        "D(8)    41/49     nilpotent-certified  yes",
    ]
    # Z(300) is inside the order cap but over the lattice cap of 256
    code, out, _ = run(
        capsys, ["scan", "monotonicity", "Z(300)", "D(8)", "--format", "csv"]
    )
    assert code == 0
    # D(8) has no pair of nested subgroups whose csd rises
    assert out.splitlines()[1:] == ["Z(300),,,,,,,skipped"]


def test_lattice_dump(capsys):
    code, out, _ = run(capsys, ["lattice", "--group", "D(8)"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "size=1 members=0"
    assert lines[-1] == "size=8 members=0,1,2,3,4,5,6,7"
    assert sum(1 for line in lines if line.startswith("size=2 ")) == 5
    assert sum(1 for line in lines if line.startswith("size=4 ")) == 3


def test_sections_table(capsys):
    code, out, _ = run(capsys, ["sections", "--group", "D(8)", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h_order,n_order,order,csd"
    assert "8,1,8,41/49" in lines
    assert all(line.endswith(",1/1") for line in lines[1:] if not line.startswith("8,1,"))


def test_sections_guardrail(capsys):
    code, _, _ = run(capsys, ["sections", "--group", "Z(200)"])
    assert code == 3
    code, out, _ = run(
        capsys, ["sections", "--group", "Z(200)", "--max-sections-order", "256", "--format", "csv"]
    )
    assert code == 0
    assert "200,1,200,1/1" in out.splitlines()


def test_lattice_guardrail(capsys):
    assert main(["lattice", "--group", "Z(300)"]) == 3
    capsys.readouterr()
    assert main(["lattice", "--group", "Z(300)", "--max-lattice-order", "400"]) == 0
    capsys.readouterr()


def _table_cells(out, fmt):
    """The cells of a rendered table, header row first, as strings or JSON values."""
    if fmt == "json":
        data = json.loads(out)
        return [list(data[0])] + [list(row.values()) for row in data]
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out)))
    return [line.split() for line in out.splitlines()]


# No small group has csd = sd != 1, so the csd-eq-sd rows hold no degree
# cells; the case still checks that --decimal leaves its other cells alone.
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "argv, degrees",
    [
        (["scan", "csd-eq-sd", "S(3)", "Z(600)", "D(8)"], False),
        (["scan", "monotonicity", "S(4)", "Z(300)"], True),
        (["scan", "csd-star", "E(27)", "Z(600)", "Q(8)"], True),
        (["verify", "dihedral", "1..6", "--max-order", "8"], True),
        (["sections", "--group", "D(8)"], True),
    ],
    ids=["csd-eq-sd", "monotonicity", "csd-star", "verify", "sections"],
)
def test_decimal_renders_every_degree_cell(capsys, argv, degrees, fmt):
    code, exact, _ = run(capsys, argv + ["--format", fmt])
    assert code == 0
    code, decimal, _ = run(capsys, argv + ["--format", fmt, "--decimal"])
    assert code == 0
    exact_rows, decimal_rows = _table_cells(exact, fmt), _table_cells(decimal, fmt)
    assert len(exact_rows) == len(decimal_rows) > 1
    seen = 0
    for exact_row, decimal_row in zip(exact_rows, decimal_rows):
        assert len(exact_row) == len(decimal_row)
        for e, x in zip(exact_row, decimal_row):
            if isinstance(e, str) and re.fullmatch(r"\d+/\d+", e):
                assert x == decimal_str(Fraction(e))
                seen += 1
            else:
                assert x == e
    assert (seen > 0) == degrees
