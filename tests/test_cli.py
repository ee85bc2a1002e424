import hashlib

import numpy as np
import pytest

from cascade_rd import discrete
from cascade_rd.cli import ConfigError, load_config, main
from cascade_rd.discrete import (
    AuxiliarySystem,
    SourceSpec,
    save_aux,
    save_source_spec,
)
from cascade_rd.probability import CondPMF, DeterministicMap, JointPMF


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
