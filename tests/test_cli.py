import json
from pathlib import Path

import numpy as np
import pytest

from switchlearn import load_json, save_json
from switchlearn.cli import main

from conftest import (make_demo2d_system, make_fault_system,
                      make_three_node_hypothesis)


@pytest.fixture
def demo_model(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(save_json(make_demo2d_system()))
    return str(path)


def test_gen_writes_valid_model(tmp_path):
    out = tmp_path / "sys.json"
    assert main(["gen", "--nodes", "4", "--events", "2", "--labels", "3",
                 "--dim", "2", "--seed", "7", "--out", str(out)]) == 0
    system = load_json(out.read_text())
    assert system.fa.num_nodes == 4


def test_gen_is_deterministic(tmp_path):
    args = ["gen", "--nodes", "5", "--events", "2", "--labels", "3",
            "--dim", "2", "--seed", "9"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_large_shape(tmp_path):
    out = tmp_path / "big.json"
    assert main(["gen", "--nodes", "2000", "--events", "9", "--labels", "9",
                 "--dim", "100", "--seed", "1", "--out", str(out)]) == 0
    system = load_json(out.read_text())
    assert system.fa.num_nodes == 2000
    assert system.d == 100


def test_simulate_five_event_trace(demo_model, capsys):
    assert main(["simulate", "--model", demo_model, "--x0", "0.5,0.5",
                 "--word", "e1 e2 e1 e2 e2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    final = [float(v) for v in lines[-1].split()]
    assert np.allclose(final, [-1.02078, -0.724035], atol=1e-5)


def test_simulate_empty_word(demo_model, capsys):
    assert main(["simulate", "--model", demo_model, "--x0", "1,0",
                 "--word", ""]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_simulate_rejects_wrong_x0_length(demo_model, capsys):
    assert main(["simulate", "--model", demo_model, "--x0", "1,2,3",
                 "--word", "e1"]) == 2


@pytest.mark.parametrize("x0, named", [("a,1", "entry 0 ('a')"),
                                       ("1,nan", "entry 1 ('nan')"),
                                       ("inf,0", "entry 0 ('inf')"),
                                       ("1,", "entry 1 ('')")])
def test_simulate_rejects_bad_x0_entry(demo_model, capsys, x0, named):
    assert main(["simulate", "--model", demo_model, "--x0", x0,
                 "--word", "e1"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


def test_simulate_rejects_unknown_event(demo_model):
    assert main(["simulate", "--model", demo_model, "--x0", "1,0",
                 "--word", "e9"]) == 2


def test_output_two_event_word(demo_model, capsys):
    assert main(["output", "--model", demo_model, "--word", "e1 e2"]) == 0
    rows = [[float(v) for v in line.split()]
            for line in capsys.readouterr().out.strip().splitlines()]
    assert np.allclose(rows, [[0.4, 0.8], [-0.7, 0.6]], atol=1e-9)


def test_output_empty_word_prints_initial_label(demo_model, capsys):
    assert main(["output", "--model", demo_model, "--word", ""]) == 0
    rows = [[float(v) for v in line.split()]
            for line in capsys.readouterr().out.strip().splitlines()]
    assert np.allclose(rows, [[1.0, 0.3], [0.7, 1.2]], atol=1e-9)


def test_output_matches_simulated_label(tmp_path, capsys):
    model = tmp_path / "gen.json"
    main(["gen", "--nodes", "5", "--events", "2", "--labels", "3",
          "--dim", "3", "--seed", "21", "--out", str(model)])
    assert main(["output", "--model", str(model), "--word", "e2 e1 e2"]) == 0
    rows = np.array([[float(v) for v in line.split()]
                     for line in capsys.readouterr().out.strip().splitlines()])
    system = load_json(model.read_text())
    from switchlearn import output_of, parse_word
    label = output_of(system.fa, parse_word("e2 e1 e2", system.fa.alphabet))
    assert np.allclose(rows, system.matrices[label], atol=1e-6)


def test_learn_then_equiv_round_trip(demo_model, tmp_path, capsys):
    learned = tmp_path / "learned.json"
    stats = tmp_path / "stats.json"
    assert main(["learn", "--model", demo_model, "--eq", "exact",
                 "--out", str(learned), "--stats", str(stats)]) == 0
    recorded = json.loads(stats.read_text())
    assert recorded["equivalence_queries"] == 2
    assert recorded["rounds"] == 2
    capsys.readouterr()
    assert main(["equiv", "--a", demo_model, "--b", str(learned)]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_learn_bounded_oracle(demo_model, tmp_path):
    learned = tmp_path / "learned.json"
    assert main(["learn", "--model", demo_model, "--eq", "bounded",
                 "--L", "6", "--out", str(learned)]) == 0
    assert main(["equiv", "--a", demo_model, "--b", str(learned)]) == 0


@pytest.mark.parametrize("eq", [[], ["--eq", "exact"]], ids=["default", "exact"])
def test_learn_depth_without_bounded_oracle_is_usage_error(demo_model, tmp_path, capsys, eq):
    learned = tmp_path / "learned.json"
    assert main(["learn", "--model", demo_model, *eq, "--L", "6",
                 "--out", str(learned)]) == 2
    assert "--L" in capsys.readouterr().err
    assert not learned.exists()


def test_learn_fault_mode_model(tmp_path):
    model = tmp_path / "fault.json"
    model.write_text(save_json(make_fault_system()))
    learned = tmp_path / "learned.json"
    assert main(["learn", "--model", str(model), "--out", str(learned)]) == 0
    assert load_json(learned.read_text()).fa.num_nodes == 4


def test_equiv_detects_mismatch(demo_model, tmp_path, capsys):
    other = tmp_path / "three.json"
    other.write_text(save_json(make_three_node_hypothesis()))
    assert main(["equiv", "--a", demo_model, "--b", str(other)]) == 1
    assert capsys.readouterr().out == "not equivalent, counterexample: e1 e2 e2\n"


def test_equiv_model_with_itself(demo_model):
    assert main(["equiv", "--a", demo_model, "--b", demo_model]) == 0


def test_export_dot(demo_model, tmp_path):
    out = tmp_path / "model.dot"
    assert main(["export-dot", "--model", demo_model, "--out", str(out)]) == 0
    dot = out.read_text()
    assert dot.count("shape=circle") == 4
    assert sum("->" in line and "__start__" not in line
               for line in dot.splitlines()) == 8


def test_missing_model_is_runtime_error(tmp_path):
    assert main(["simulate", "--model", str(tmp_path / "nope.json"),
                 "--x0", "1,0", "--word", ""]) == 3


@pytest.mark.parametrize("entry", ["1e400", "1" + "0" * 400], ids=["1e400", "int-10^400"])
def test_model_with_entry_beyond_float_range_is_runtime_error(demo_model, tmp_path,
                                                              capsys, entry):
    # exit 1 would read as equiv's "not equivalent"
    text = Path(demo_model).read_text().replace("1.0", entry, 1)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["export-dot", "--model", str(path), "--out", str(tmp_path / "m.dot")]) == 3
    assert "matrix 0 has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["learn", "equiv"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "x"])
def test_nonpositive_tol_is_usage_error(demo_model, tmp_path, capsys,
                                        command, tol):
    args = {"learn": ["--model", demo_model, "--out", str(tmp_path / "o.json")],
            "equiv": ["--a", demo_model, "--b", demo_model]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol" in err and tol in err
    assert list(tmp_path.iterdir()) == [tmp_path / "demo.json"]


@pytest.mark.parametrize("command, flag, value", [
    ("learn", "--L", "-1"),
    ("gen", "--nodes", "0"),
    ("gen", "--events", "0"),
    ("gen", "--labels", "-2"),
    ("gen", "--dim", "0"),
    ("gen", "--seed", "-1"),
    ("gen", "--nodes", "2.5"),
    ("output", "--precision", "-1"),
    ("simulate", "--precision", "-1"),
])
def test_out_of_range_integer_flag_is_usage_error(demo_model, tmp_path, capsys,
                                                  command, flag, value):
    out = tmp_path / "o.json"
    args = {"learn": ["--model", demo_model, "--eq", "bounded", "--out", str(out)],
            "gen": ["--nodes", "3", "--events", "2", "--labels", "2", "--dim", "2",
                    "--seed", "1", "--out", str(out)],
            "output": ["--model", demo_model, "--word", "e1"],
            "simulate": ["--model", demo_model, "--x0", "1,0", "--word", "e1"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--nodes", "4"])
    assert exc.value.code == 2
