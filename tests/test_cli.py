import json
import subprocess
import sys
from pathlib import Path

import pytest

import csdlab
from csdlab.cli import main

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


def test_batch_not_a_list_exit_2(capsys, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text('{"group": "Z(4)"}')
    code, _, _ = run(capsys, ["compute", "--batch", str(batch)])
    assert code == 2


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


def test_usage_error_exit_2(capsys):
    assert main(["compute"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["compute", "--group", "Z(4)", "--batch", "x.json"]) == 2
    capsys.readouterr()
    assert main(["verify", "dihedral", "notarange"]) == 2
    capsys.readouterr()


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


def test_scan_guardrail_rows_skipped(capsys):
    code, out, _ = run(
        capsys, ["scan", "csd-star", "Z(600)", "D(8)", "--format", "csv"]
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0] == "Z(600),,skipped,"
    assert rows[1] == "D(8),41/49,nilpotent-certified,yes"
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
