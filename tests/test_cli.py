import contextlib
import csv
import errno
import hashlib
import io
import os
import sys

import numpy as np
import pytest

from cascade_rd import discrete
from cascade_rd.cli import COMMANDS, ConfigError, build_parser, load_config, main
from cascade_rd.discrete import (
    AuxiliarySystem,
    SourceSpec,
    save_aux,
    save_source_spec,
)
from cascade_rd.probability import CondPMF, DeterministicMap, JointPMF
from test_golden_points import instance
from test_golden_search import dsbs_source
from test_simulate import y_blind_aux


@pytest.fixture
def ident_files(tmp_path):
    ham = np.array([[0.0, 1.0], [1.0, 0.0]])
    pxyz = np.zeros((2, 2, 1))
    pxyz[0, 0, 0] = 0.5
    pxyz[1, 1, 0] = 0.5
    src = SourceSpec(JointPMF(pxyz), ham, ham)
    q = 0.25
    pu = np.zeros((2, 2, 2))
    pu[0, :, :] = [1 - q, q]
    pu[1, :, :] = [q, 1 - q]
    pxh = np.zeros((2, 2, 2, 2))
    pxh[:, :, 0, 0] = 1.0
    pxh[:, :, 1, 1] = 1.0
    aux = AuxiliarySystem(
        p_u=CondPMF(pu), p_xhat1=CondPMF(pxh),
        g2=DeterministicMap(np.array([[0], [1]]), 2),
    )
    src_path = tmp_path / "src.txt"
    aux_path = tmp_path / "aux.txt"
    src_path.write_text(save_source_spec(src))
    aux_path.write_text(save_aux(aux))
    return str(src_path), str(aux_path)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_gaussian_cascade_happy_path(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main([
        "gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
        "--d1", "0.25", "--d2", "2.5", "--r2", "1.0", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["r1"]) == pytest.approx(1.0, abs=1e-9)


def test_missing_required_flag_names_it(capsys):
    code = main([
        "gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
        "--d1", "0.25", "--r2", "1.0",
    ])
    assert code == 2
    assert "d2" in capsys.readouterr().err


def test_sweep_parses_and_is_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
        "--d1", "0.02", "--d2", "0.5", "--sweep", "r2:log:1.0:4.0:8",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 8
    r1s = [float(r["r1"]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(r1s, r1s[1:]))


def test_infeasible_row_marked_not_dropped(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
        "--d1", "0.25", "--d2", "0.5", "--r2", "0.2", "--out", str(out),
    ])
    assert code == 0  # infeasible is not an error
    rows = read_rows(out)
    assert rows[0]["status"] == "infeasible"
    assert rows[0]["r1"] == ""


def test_error_row_gives_nonzero_exit(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "discrete-eval", "--source", "/nonexistent/path.txt",
        "--aux", "/nonexistent/aux.txt", "--setting", "cascade",
        "--out", str(out),
    ])
    assert code == 1
    rows = read_rows(out)
    assert rows[0]["status"] == "error"


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "var-a = 1.0\nvar-b = 1.0\nvar-z = 1.0\nd1 = 0.25\nd2 = 2.5\nr2 = 1.0\n"
    )
    out = tmp_path / "r.csv"
    code = main(["gaussian-cascade", "--config", str(cfg), "--out", str(out),
                 "--d1", "4.0"])
    assert code == 0
    rows = read_rows(out)
    # flag overrides the config value, and R1 = 0 once both terms are slack
    assert float(rows[0]["d1"]) == 4.0
    assert float(rows[0]["r1"]) == 0.0


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("var-a = 1.0\nbogus-key = 3\n")
    code = main(["gaussian-cascade", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus-key" in err and ":2" in err


def test_config_key_written_as_a_field_name_gets_the_flag_as_a_hint(tmp_path, capsys,
                                                                   ident_files):
    # config keys are flag names; the CSV header uses the field names
    src, _ = ident_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"source = {src}\nu_size = 2\nbogus_key = 3\n")
    assert main(["discrete-search", "--config", str(cfg), "--d1", "0.3", "--d2", "0.3",
                 "--r2", "1"]) == 2
    assert "run.cfg:2: unknown key 'u_size' (write u-size)" in capsys.readouterr().err
    cfg.write_text(f"source = {src}\nbogus_key = 3\n")
    assert main(["discrete-search", "--config", str(cfg), "--d1", "0.3", "--d2", "0.3",
                 "--r2", "1"]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bogus_key'" in err and "write" not in err


def test_config_seed_is_used_unless_the_flag_is_given(tmp_path):
    def run(name, cfg_text, *flags):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / f"{name}.csv"
        assert main(["kaspi-check", "--instances", "5", "--config", str(cfg),
                     "--out", str(out), *flags]) == 0
        return out.read_text()

    from_config = run("cfg", "seed = 7\n")
    assert "# seed: 7" in from_config
    assert from_config == run("flag", "", "--seed", "7")
    assert from_config != run("default", "")
    assert run("both", "seed = 7\n", "--seed", "3") == run("flag3", "", "--seed", "3")


@pytest.mark.parametrize("line, name", [("seed = 1.5", "'seed'"), ("seed = nan", "'seed'"),
                                        ("seed = -1", "'seed'"), ("out = r.csv", "'out'"),
                                        ("sweep = instances:lin:1:3:3", "'sweep'")])
def test_bad_seed_and_out_or_sweep_config_keys_are_refused_by_name(tmp_path, capsys,
                                                                  line, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"instances = 5\n{line}\n")
    assert main(["kaspi-check", "--config", str(cfg)]) == 2
    assert name in capsys.readouterr().err


def test_negative_seed_flag_is_refused_by_name(capsys):
    assert main(["kaspi-check", "--instances", "2", "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err


def test_provenance_hash_covers_the_sweep(tmp_path):
    hashes = []
    for sweep in ("r2:lin:1:2:3", "r2:lin:1:3:3", "r2:log:1:2:3", None):
        out = tmp_path / "r.csv"
        argv = ["gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
                "--d1", "0.25", "--d2", "2.5", "--r2", "1.0", "--out", str(out)]
        assert main(argv + (["--sweep", sweep] if sweep else [])) == 0
        hashes += [ln for ln in out.read_text().splitlines()
                   if ln.startswith("# config-hash")]
    assert len(set(hashes)) == 4


def test_round_trip_of_numeric_cells(tmp_path):
    out = tmp_path / "r.csv"
    main([
        "gaussian-cascade", "--var-a", "1.7", "--var-b", "0.3", "--var-z", "2.2",
        "--d1", "0.11", "--d2", "0.77", "--r2", "1.9", "--out", str(out),
    ])
    rows = read_rows(out)
    # 12 significant digits survive the parse back
    assert float(rows[0]["var_a"]) == 1.7
    assert float(rows[0]["d2"]) == 0.77


def test_provenance_hash_changes_with_config(tmp_path):
    outs = []
    for d1 in ("0.25", "0.26"):
        out = tmp_path / f"r{d1}.csv"
        main([
            "gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
            "--d1", d1, "--d2", "2.5", "--r2", "1.0", "--out", str(out),
        ])
        line = [ln for ln in out.read_text().splitlines()
                if ln.startswith("# config-hash")][0]
        outs.append(line)
    assert outs[0] != outs[1]


def test_simulate_deterministic_given_seed(tmp_path, ident_files):
    src, aux = ident_files
    texts = []
    for run in range(2):
        out = tmp_path / f"sim{run}.csv"
        code = main([
            "simulate", "--source", src, "--aux", aux, "--n", "8",
            "--epsilon", "0.4", "--trials", "40", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_discrete_eval_command(tmp_path, ident_files):
    src, aux = ident_files
    out = tmp_path / "eval.csv"
    code = main([
        "discrete-eval", "--source", src, "--aux", aux,
        "--setting", "cascade", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["r1"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[0]["d2"]) == pytest.approx(0.25, abs=1e-9)


def test_kaspi_check_command(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["kaspi-check", "--instances", "10", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert float(rows[0]["max_i1"]) <= 1e-10


def test_load_config_reports_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("var-a\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(cfg))
    assert ":1" in str(err.value)


def test_config_value_may_hold_a_hash(tmp_path, ident_files, monkeypatch):
    src, aux = ident_files
    run = tmp_path / "data" / "run#3"
    run.mkdir(parents=True)
    (run / "src.txt").write_bytes(open(src, "rb").read())
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a comment line\nsource = data/run#3/src.txt  # trailing comment\n"
                   f"aux = {aux}\nsetting = cascade\n")
    assert load_config(str(cfg))["source"] == ("data/run#3/src.txt", 2)
    out = tmp_path / "r.csv"
    monkeypatch.chdir(tmp_path)  # the config's source path is relative
    assert main(["discrete-eval", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_rows(out)[0]["status"] == "ok"


@pytest.mark.parametrize("flag", ["n", "trials"])
def test_simulate_refuses_counts_below_one_by_name(tmp_path, ident_files, flag):
    src, aux = ident_files
    flags = {"n": "8", "epsilon": "0.4", "trials": "2", flag: "0"}
    out = tmp_path / "r.csv"
    argv = ["simulate", "--source", src, "--aux", aux] + [f"--{k}={v}" for k, v in flags.items()]
    assert main(argv + ["--out", str(out)]) == 1
    header, row = _csv_rows(out)
    row = dict(zip(header, row))
    assert (row["status"], row["detail"]) == ("error",
                                              f"ValueError: {flag} must be at least 1, got 0")


def test_simulate_refuses_a_seed_of_64_bits_by_name(tmp_path, ident_files):
    src, aux = ident_files
    out = tmp_path / "r.csv"
    argv = ["simulate", "--source", src, "--aux", aux, "--n", "8", "--epsilon", "0.4",
            "--trials", "2", "--seed", str(2**63), "--out", str(out)]
    assert main(argv) == 1
    header, row = _csv_rows(out)
    row = dict(zip(header, row))
    assert (row["status"], row["detail"]) == (
        "error", f"ValueError: seed must lie in [0, 2^63), got {2**63}")


def test_simulate_refuses_an_auxiliary_of_the_wrong_shape_by_name(tmp_path):
    src, aux, out = tmp_path / "src.txt", tmp_path / "aux.txt", tmp_path / "r.csv"
    src.write_text(save_source_spec(dsbs_source()))
    aux.write_text(save_aux(y_blind_aux()))
    argv = ["simulate", "--source", str(src), "--aux", str(aux), "--n", "8",
            "--epsilon", "0.4", "--trials", "2", "--out", str(out)]
    assert main(argv) == 1
    header, row = _csv_rows(out)
    row = dict(zip(header, row))
    assert (row["status"], row["detail"]) == (
        "error", "ValueError: p_u conditioning has shape (2, 1), expected (2, 2)")


def test_integer_flag_sweep_gives_ok_rows(tmp_path, ident_files):
    src, aux = ident_files
    out = tmp_path / "sweep.csv"
    code = main([
        "simulate", "--source", src, "--aux", aux, "--epsilon", "0.4",
        "--trials", "3", "--sweep", "n:lin:8:10:2", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert [r["n"] for r in rows] == ["8", "10"]
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_integer_flag_sweep_to_fraction_names_the_flag(tmp_path, ident_files, capsys):
    src, aux = ident_files
    code = main([
        "simulate", "--source", src, "--aux", aux, "--epsilon", "0.4",
        "--trials", "3", "--sweep", "n:lin:8:9:3",
    ])
    assert code == 2
    assert "'n'" in capsys.readouterr().err


GAUSS_CASCADE = {"var-a": "1", "var-b": "1", "var-z": "1", "d1": "0.25", "d2": "0.5",
                 "r2": "1"}


@pytest.mark.parametrize("flag, value", [("var-a", "nan"), ("r2", "inf"), ("d2", "-inf")])
def test_non_finite_flag_is_rejected_by_name(flag, value, capsys):
    flags = dict(GAUSS_CASCADE, **{flag: value})
    assert main(["gaussian-cascade"] + [f"--{k}={v}" for k, v in flags.items()]) == 2
    assert f"'{flag}'" in capsys.readouterr().err


def test_non_finite_config_value_and_sweep_bound_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in GAUSS_CASCADE.items() if k != "d1")
                   + "d1 = nan\n")
    assert main(["gaussian-cascade", "--config", str(cfg)]) == 2
    assert "'d1'" in capsys.readouterr().err
    argv = [f"--{k}={v}" for k, v in GAUSS_CASCADE.items() if k != "r2"]
    assert main(["gaussian-cascade"] + argv + ["--sweep", "r2:lin:1:inf:4"]) == 2
    assert "'r2'" in capsys.readouterr().err


@pytest.mark.parametrize("command, sweep, message", [
    ("gaussian-cascade", "r2:lin:1:2", "sweep must be 'param:lin|log:min:max:steps'"),
    ("discrete-search", "source:lin:0:1:3", "sweep parameter 'source' not a numeric parameter "
     "of this command (have ['d1', 'd2', 'r2', 'restarts', 'u-size'])"),
    ("gaussian-cascade", "r2:exp:1:2:3", "sweep scale must be lin or log, got 'exp'"),
    ("gaussian-cascade", "r2:lin:1:2:0", "sweep needs at least one step"),
    ("gaussian-cascade", "r2:log:0:2:3", "log sweep bounds must be positive"),
])
def test_malformed_sweep_is_refused_with_its_message(command, sweep, message, capsys):
    flags = [f"--{k}={v}" for k, v in GAUSS_CASCADE.items() if k != "r2"]
    assert main([command] + (flags if command == "gaussian-cascade" else [])
                + ["--sweep", sweep]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_one_step_sweep_writes_one_row_at_its_lower_bound(tmp_path):
    out = tmp_path / "r.csv"
    flags = [f"--{k}={v}" for k, v in GAUSS_CASCADE.items() if k != "r2"]
    assert main(["gaussian-cascade"] + flags + ["--sweep", "r2:log:1.5:4:1",
                                                "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [(row["r2"], row["status"]) for row in rows] == [("1.5", "ok")]


def _provenance(path):
    return dict(ln[2:].split(": ", 1) for ln in path.read_text().splitlines()
                if ln.startswith("# "))


@pytest.mark.parametrize("command, edited, flags", [
    ("discrete-eval", "aux", ["--aux", "{aux}", "--setting", "cascade"]),
    ("discrete-search", "source", ["--d1", "0.3", "--d2", "0.3", "--r2", "1",
                                   "--u-size", "2", "--restarts", "1"]),
    ("simulate", "source", ["--aux", "{aux}", "--n", "8", "--epsilon", "0.4",
                            "--trials", "5"]),
])
def test_provenance_hashes_the_input_file_contents(tmp_path, ident_files, command,
                                                   edited, flags):
    src, aux = ident_files
    paths = {"source": src, "aux": aux}
    argv = [command, "--source", src] + [f.format(aux=aux) for f in flags]
    out = tmp_path / "r.csv"
    provs = []
    for _ in range(2):
        assert main(argv + ["--out", str(out)]) == 0
        provs.append(_provenance(out))
        with open(paths[edited], "a") as fh:
            fh.write("# same path, edited contents\n")
    first, second = provs
    for name, path in paths.items():
        key = f"{name}-sha256"
        if name == "aux" and "--aux" not in argv:
            assert key not in first
        elif name == edited:
            assert first[key] != second[key]
        else:
            with open(path, "rb") as fh:
                assert first[key] == second[key] == hashlib.sha256(fh.read()).hexdigest()
    assert first["config-hash"] != second["config-hash"]


def test_unreadable_input_file_is_named_in_the_provenance(tmp_path):
    out = tmp_path / "r.csv"
    main(["discrete-eval", "--source", "/nonexistent/path.txt",
          "--aux", "/nonexistent/aux.txt", "--setting", "cascade", "--out", str(out)])
    prov = _provenance(out)
    assert prov["source-sha256"] == prov["aux-sha256"] == "unreadable"


# the data cells after the two path columns, captured from the parser that
# re-read the files for every row: reading them once must not change a bit
SIM_SWEEP_ROWS = [
    "8,0.4,0.1,20,0.45,0.85,0.85,0.85,0,0.75,0.425,0.0573199698828,0.425,"
    "0.0573199698828,3,0.25,0.25,ok,",
    "8,0.4,0.12,20,0.45,0.85,0.85,0.85,0,0.75,0.425,0.0573199698828,0.425,"
    "0.0573199698828,3,0.25,0.25,ok,",
    "8,0.4,0.14,20,0.45,0.85,0.85,0.85,0,0.75,0.425,0.0573199698828,0.425,"
    "0.0573199698828,3,0.25,0.25,ok,",
    "8,0.4,0.16,20,0.45,0.85,0.85,0.85,0,0.75,0.425,0.0573199698828,0.425,"
    "0.0573199698828,3,0.25,0.25,ok,",
    "8,0.4,0.18,20,0.45,0.85,0.85,0.85,0,0.75,0.425,0.0573199698828,0.425,"
    "0.0573199698828,3,0.25,0.25,ok,",
    "8,0.4,0.2,20,0.45,0.65,0.65,0.65,0.05,0.7,0.40625,0.0637768261411,0.4125,"
    "0.0618275402781,5,0.25,0.25,ok,",
]


def test_sweep_reads_and_parses_each_input_file_once(tmp_path, ident_files, monkeypatch):
    src, aux = ident_files
    calls = {"load_source_spec": 0, "load_aux": 0}
    for name in calls:
        def counted(text, parse=getattr(discrete, name), name=name):
            calls[name] += 1
            return parse(text)
        monkeypatch.setattr(discrete, name, counted)
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--source", src, "--aux", aux, "--n", "8", "--epsilon", "0.4",
                 "--trials", "20", "--seed", "3", "--sweep", "delta:lin:0.1:0.2:6",
                 "--out", str(out)]) == 0
    assert calls == {"load_source_spec": 1, "load_aux": 1}
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [ln.split(",", 2)[2] for ln in lines[1:]] == SIM_SWEEP_ROWS


def test_unparsable_input_file_gives_an_error_row_per_point(tmp_path, ident_files):
    _, aux = ident_files
    out = tmp_path / "r.csv"
    assert main(["discrete-search", "--source", aux, "--d1", "0.1", "--d2", "0.36",
                 "--r2", "0.4", "--u-size", "2", "--sweep", "d2:lin:0.33:0.36:2",
                 "--out", str(out)]) == 1
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["error", "error"]
    assert all("unexpected block 'p_u'" in r["detail"] for r in rows)


# ---------------------------------------------------------- pinned output
#
# Captured before `main` built only the parser of the command it runs, and
# before the backward-chain MMSE took its closed form: the same argv must
# give the same bytes.

# the five sweep shapes of the benchmark's gauss-sweep: (command, fixed
# flags, (swept flag, scale, lo, hi)); variances and distortions scale
GAUSS_SWEEPS = (
    ("gaussian-cascade", dict(var_a=1, var_b=1, var_z=1, d1=0.25, d2=0.5),
     ("r2", "log", 1.0, 4.0)),
    ("gaussian-cascade", dict(var_a=1, var_b=1, var_z=1, d1=0.25, r2=1.5),
     ("d2", "log", 0.3, 2.5)),
    ("gaussian-triangular", dict(var_a=1, var_b=1, var_z=1, d1=0.25, d2=0.5, r2=0.6),
     ("r3", "lin", 0.45, 1.5)),
    ("gaussian-two-way", dict(var_a=1, var_b=1, var_z=1, d1=0.25, d2=0.5, d3=0.3,
                              r3=0.2, r4=1.0),
     ("r2", "lin", 0.85, 2.0)),
    ("gaussian-extended", dict(var_a=1, var_b=1, var_z=1, dz1=0.1, dz2=0.3, r4=0.5),
     ("r3", "lin", 1.2, 3.0)),
)
SCALED = {"var_a", "var_b", "var_z", "d1", "d2", "d3", "dz1", "dz2"}
SWEEP_CSV_SHA256 = {
    (0, 1.0): "73af4c55a90cb9815c5b8530321221df002cadc3cedfe508e79d17daf7515df8",
    (1, 1.0): "854ec0b100cddf7186a0a0b862ab1a2d8d8fbfbe1441b09288658c39fda0c7a9",
    (2, 1.0): "5c73e83d0f7728d1fed50e7fcd69f1880346897aa8feeb52b80de1fd74a8f427",
    (3, 1.0): "87643fc5fa0794a1e8aab9378c53d9ef34d8b93c47c92e3746f18fda92216f1b",
    (4, 1.0): "a00d428b68e19aa317c217f9abb2ef28c8715de7cc8a9ec9b21ce92dd8ebdf9e",
    (0, 0.375): "e1c9e911304a7aee7160b8696f6b1a1e2e7770eba0b03af976f55d93e0a2c40f",
    (1, 0.375): "051ea801a63ff7f4cf2722485c0995d0087cacf9cb80c963352ed0789ebae956",
    (2, 0.375): "f328413c22e694024d212f20640de6de1ec9b0e92f34ab614981bf7ce9d1fc7f",
    (3, 0.375): "f78d4cf4af5812595567c3494c0454745a1ec089da5c2b5225c20e97142b0de2",
    (4, 0.375): "b9aaa8310016150c7f6b0baa8379e6c3f497fc963a2a7f11de19c88ba9df8679",
}


def _sweep_argv(index, scale, out):
    command, fixed, (name, kind, lo, hi) = GAUSS_SWEEPS[index]
    argv = [command]
    for key, val in fixed.items():
        val = val * scale if key in SCALED else val
        argv += ["--" + key.replace("_", "-"), repr(float(val))]
    if name in SCALED:
        lo, hi = lo * scale, hi * scale
    return argv + ["--sweep", f"{name}:{kind}:{lo!r}:{hi!r}:200", "--out", str(out)]


@pytest.mark.parametrize("index, scale", sorted(SWEEP_CSV_SHA256))
def test_gaussian_sweep_csv_is_pinned(tmp_path, index, scale):
    out = tmp_path / "sweep.csv"
    assert main(_sweep_argv(index, scale, out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256[index, scale]


def _run(argv, parse=main):
    """(exit code, stdout, stderr) of one call; argparse exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# sha256 of the --help text at 80 columns, by command (None: the top level)
HELP_SHA256 = {
    None: "ce614b6127cd925a8beb29cdb6ababdaf06877333181ea06b8ce7bda07565a59",
    "gaussian-cascade": "e66e81952693b2ad2ee974b3c1d308a4948aeab3f5d679c4c495f78dbbd98718",
    "gaussian-triangular": "81b2fce11f1a04234615adadb28a7d00287233d986948ed0050497dddf3bb726",
    "gaussian-two-way": "36ccb7910d2bb21b14ce55a351e064ac8b67b9ba5d63fc0cc0b1aa94e5f203c5",
    "gaussian-extended": "b8da6e541cbc942cdd1ba2945fe73dcf5f39b8aa255d98576b117aa130620fac",
    "discrete-eval": "2671877ce4575413f5abb95407914025179ce9ad9dd0cec64b18d0064291e9dc",
    "discrete-search": "85234898ed42688851d8360ea28fb2c2bc7f1a9030ff9861c846b5017cb897d8",
    "simulate": "c92783d56760fb8deea56ed6915a251fbcb01f44438e5a3fdd38396d4fd3df2e",
    "kaspi-check": "ac3f0a5bc89749d150fea7a7867edaf384ee2a49ceadf4fd0d0f53232215161a",
}
USAGE = ("usage: cascade-rd [-h]\n                  {" + ",".join(COMMANDS) + "}\n"
         "                  ...\n")
CASCADE_USAGE = (
    "usage: cascade-rd gaussian-cascade [-h] [--var-a VAR_A] [--var-b VAR_B]\n"
    "                                   [--var-z VAR_Z] [--d1 D1] [--d2 D2]\n"
    "                                   [--r2 R2] [--config CONFIG] [--seed SEED]\n"
    "                                   [--out OUT] [--sweep SWEEP]\n")
ARGPARSE_ERRORS = [
    (["no-such-command"], USAGE + "cascade-rd: error: argument command: invalid choice: "
     "'no-such-command' (choose from " + ", ".join(f"'{c}'" for c in COMMANDS) + ")\n"),
    ([], USAGE + "cascade-rd: error: the following arguments are required: command\n"),
    (["gaussian-cascade", "--bogus", "1"],
     USAGE + "cascade-rd: error: unrecognized arguments: --bogus 1\n"),
    (["gaussian-cascade", "--seed", "x"],
     CASCADE_USAGE + "cascade-rd gaussian-cascade: error: argument --seed: "
     "invalid int value: 'x'\n"),
]
PY311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                           reason="pinned bytes are Python 3.11's argparse output")


@PY311
@pytest.mark.parametrize("command", sorted(HELP_SHA256, key=str))
def test_help_text_is_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


@PY311
@pytest.mark.parametrize("argv, stderr", ARGPARSE_ERRORS,
                         ids=["unknown-command", "no-command", "unknown-flag", "bad-seed"])
def test_argparse_errors_are_pinned(monkeypatch, argv, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(argv) == (2, "", stderr)


@pytest.mark.parametrize("argv", [[c, "--help"] for c in COMMANDS] + [
    ["gaussian-cascade", "--bogus", "1"], ["gaussian-cascade", "--seed", "x"]])
def test_one_command_parser_prints_what_the_full_parser_prints(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(argv) == _run(argv, build_parser().parse_args)


def test_missing_required_flag_message_is_pinned():
    argv = ["gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
            "--d1", "0.25", "--r2", "1.0"]
    assert _run(argv) == (2, "", "error: missing required parameter 'd2'\n")


@pytest.mark.parametrize("target, code", [("no-such-dir/r.csv", errno.ENOENT),
                                          ("a-dir", errno.EISDIR)])
def test_unwritable_out_is_refused_by_name(tmp_path, capsys, target, code):
    (tmp_path / "a-dir").mkdir()
    out = tmp_path / target
    assert main(["gaussian-cascade", "--var-a", "1", "--var-b", "1", "--var-z", "1",
                 "--d1", "0.25", "--d2", "2.5", "--r2", "1.0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write --out {out}: {os.strerror(code)}\n"
    assert not list(tmp_path.rglob(".cascade-rd-*"))


# ------------------------------------------------- CSV shape and refusals

# the header row of each command, captured while each command still listed
# its input columns by hand: deriving them from the parameters keeps them
HEADERS = {
    "gaussian-cascade": "var_a,var_b,var_z,d1,d2,r2,r1,alpha,beta,status,detail",
    "gaussian-triangular": "var_a,var_b,var_z,d1,d2,r2,r3,r1,alpha,beta,status,detail",
    "gaussian-two-way": "var_a,var_b,var_z,d1,d2,d3,r2,r3,r4,r1,alpha,beta,"
                        "r4_threshold,status,detail",
    "gaussian-extended": "var_a,var_b,var_z,dz1,dz2,r3,r4,case,r3_achieved,r4_achieved,"
                         "r5_achieved,dist_z1,dist_z2,slack_r3,slack_r3_r5,slack_r4_r5,"
                         "status,detail",
    "discrete-eval": "source,aux,setting,r1,r2,r3,r4,rh,d1,d2,d3,status,detail",
    "discrete-search": "source,d1,d2,r2,u_size,restarts,r1,r2_achieved,d1_achieved,"
                       "d2_achieved,path,status,detail",
    "simulate": "source,aux,n,epsilon,delta,trials,e0_rate,e1_rate,e2_rate,e3_rate,"
                "e4_rate,e5_rate,d1_mean,d1_ci,d2_mean,d2_ci,clean_trials,d1_mean_clean,"
                "d2_mean_clean,status,detail",
    "kaspi-check": "size_a1,size_a2,size_b1,size_b2,m1_size,m2_size,instances,max_i1,"
                   "max_i2,max_i3,status,detail",
}
SMALL_ARGV = {
    "gaussian-cascade": "--var-a 1 --var-b 1 --var-z 1 --d1 0.25 --d2 2.5 --r2 1",
    "gaussian-triangular": "--var-a 1 --var-b 1 --var-z 1 --d1 0.25 --d2 0.5 --r2 1 --r3 0.5",
    "gaussian-two-way": "--var-a 1 --var-b 1 --var-z 1 --d1 0.25 --d2 0.5 --d3 0.3 "
                        "--r2 1 --r3 0.5 --r4 1",
    "gaussian-extended": "--var-a 1 --var-b 1 --var-z 1 --dz1 0.1 --dz2 0.3 --r3 2 --r4 0.5",
    "discrete-eval": "--source {src} --aux {aux} --setting cascade",
    "discrete-search": "--source {src} --d1 0.3 --d2 0.6 --r2 1 --u-size 2 --restarts 0",
    "simulate": "--source {src} --aux {aux} --n 8 --epsilon 0.4 --trials 2",
    "kaspi-check": "--instances 1",
}


def _csv_rows(path):
    """Header and rows of a CSV the way a CSV reader sees them."""
    lines = [ln for ln in path.read_text().splitlines(keepends=True)
             if not ln.startswith("#")]
    return list(csv.reader(lines))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_csv_header_rows_are_pinned(tmp_path, ident_files, command):
    src, aux = ident_files
    out = tmp_path / "r.csv"
    argv = SMALL_ARGV[command].format(src=src, aux=aux).split()
    assert main([command] + argv + ["--out", str(out)]) == 0
    header, row = _csv_rows(out)
    assert ",".join(header) == HEADERS[command]
    assert row[header.index("status")] == "ok"


def _search_infeasible(tmp_path, src, aux):
    # Z is constant, so with r2 = 0 the terminal's distortion stays 0.5
    return (["discrete-search", "--source", src, "--d1", "0", "--d2", "0.01", "--r2", "0",
             "--u-size", "2", "--restarts", "1"], 0,
            "detail", "search found no auxiliary satisfying (d1, d2, r2); the query may "
                      "be infeasible at this u_size")


def _unknown_setting(tmp_path, src, aux):
    # refused by name with an error row that lists the settings
    choices = ", ".join(repr(s) for s in sorted(discrete._SETTINGS))
    return (["discrete-eval", "--source", src, "--aux", aux, "--setting", "foo"], 1,
            "detail", f"ValueError: unknown setting 'foo'; choose from [{choices}]")


def _path_with_comma(tmp_path, src, aux):
    odd = tmp_path / 'a,"b".txt'
    odd.write_bytes(open(src, "rb").read())
    return (["discrete-eval", "--source", str(odd), "--aux", aux, "--setting", "cascade"], 0,
            "source", str(odd))


@pytest.mark.parametrize("case", [_search_infeasible, _unknown_setting, _path_with_comma])
def test_cells_with_commas_or_quotes_are_quoted(tmp_path, ident_files, case):
    argv, code, column, text = case(tmp_path, *ident_files)
    out = tmp_path / "r.csv"
    assert main(argv + ["--out", str(out)]) == code
    header, *rows = _csv_rows(out)
    assert rows and all(len(r) == len(header) for r in rows)
    assert rows[0][header.index(column)] == text


@pytest.mark.parametrize("setting", sorted(discrete._SETTINGS))
def test_discrete_eval_answers_every_setting(tmp_path, setting):
    src, aux = instance(setting, 0)
    paths = [tmp_path / "src.txt", tmp_path / "aux.txt"]
    paths[0].write_text(save_source_spec(src))
    paths[1].write_text(save_aux(aux))
    out = tmp_path / "r.csv"
    assert main(["discrete-eval", "--source", str(paths[0]), "--aux", str(paths[1]),
                 "--setting", setting, "--out", str(out)]) == 0
    row = read_rows(out)[0]
    assert row["status"] == "ok"
    want = discrete.evaluate_point(setting, discrete.load_source_spec(paths[0].read_text()),
                                   discrete.load_aux(paths[1].read_text()))
    for name in ("r1", "r2", "r3", "r4", "rh", "d1", "d2", "d3"):
        value = getattr(want, name)
        assert row[name] == ("" if value is None else "%.12g" % value), name


@pytest.mark.parametrize("flags, path", [
    pytest.param("--d1 0.05 --d2 0.33 --r2 0.4", "relay-floor",  # a golden DSBS query
                 id="--d2 0.33 --r2 0.4 --restarts 2-relay-floor"),
    ("--d1 0.18 --d2 0.37 --r2 0.05", "search"),  # the golden fallback query
])
def test_search_rows_name_their_path(tmp_path, flags, path):
    src = tmp_path / "src.txt"
    src.write_text(save_source_spec(dsbs_source()))
    out = tmp_path / "r.csv"
    argv = f"discrete-search --source {src} --u-size 2 --restarts 2 {flags} --out {out}"
    assert main(argv.split()) == 0
    row = read_rows(out)[0]
    assert (row["status"], row["path"]) == ("ok", path)
    res = discrete.min_r1_cascade_search(discrete.load_source_spec(src.read_text()),
                                         *(float(row[k]) for k in ("d1", "d2", "r2")),
                                         u_size=2, restarts=int(row["restarts"]))
    assert res.path == path and row["r1"] == "%.12g" % res.r1


def test_search_sweep_over_r2_writes_the_rows_of_cold_runs_and_solves_the_relay_once(
        tmp_path, monkeypatch):
    src = tmp_path / "src.txt"
    src.write_text(save_source_spec(dsbs_source()))
    solve, calls = discrete._xhat1_rd_solve, []

    def counted(*args):
        calls.append(args[3])
        return solve(*args)

    monkeypatch.setattr(discrete, "_xhat1_rd_solve", counted)
    base = f"discrete-search --source {src} --d1 0.1 --d2 0.36 --u-size 2 --restarts 2"

    def rows(r2, *extra):
        out = tmp_path / "r.csv"
        discrete._anchor.cache_clear()
        assert main(f"{base} --r2 {r2} {' '.join(extra)} --out {out}".split()) == 0
        return [ln for ln in out.read_bytes().splitlines() if not ln.startswith(b"#")]

    swept = rows(0.3, "--sweep", "r2:lin:0.3:0.6:4")
    assert calls == [0.1]
    cold = [rows(repr(float(r2))) for r2 in np.linspace(0.3, 0.6, 4)]
    assert swept == cold[0][:1] + [one[1] for one in cold]


@pytest.mark.parametrize("flag, value, name", [("u-size", "0", "u_size"),
                                               ("u-size", "-1", "u_size"),
                                               ("restarts", "-2", "restarts")])
def test_search_refuses_out_of_range_counts_by_name(tmp_path, ident_files, flag, value,
                                                    name):
    src, _ = ident_files
    flags = {"d1": "0.3", "d2": "0.3", "r2": "1", "u-size": "2", "restarts": "1", flag: value}
    out = tmp_path / "r.csv"
    argv = ["discrete-search", "--source", src] + [f"--{k}={v}" for k, v in flags.items()]
    assert main(argv + ["--out", str(out)]) == 1
    header, row = _csv_rows(out)
    row = dict(zip(header, row))
    assert row["status"] == "error"
    assert row["detail"].startswith(f"ValueError: {name} must be ")


@pytest.mark.parametrize("flag", ["size-a1", "size-a2", "size-b1", "size-b2", "m1-size",
                                  "m2-size", "instances"])
def test_kaspi_check_refuses_sizes_below_one_by_name(tmp_path, flag):
    out = tmp_path / "r.csv"
    assert main(["kaspi-check", f"--{flag}", "0", "--out", str(out)]) == 1
    header, row = _csv_rows(out)
    row = dict(zip(header, row))
    assert (row["status"], row["detail"]) == ("error", f"ValueError: '{flag}' must be at "
                                                       "least 1, got 0")
