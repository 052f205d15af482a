import hashlib
import logging
import math
import pickle
import re
import resource
from dataclasses import replace

import pytest
import yaml

from conftest import DECK_PATHS, bath_for

from spinphonon import cli
from spinphonon.cli import SCAN_COLUMNS, main
from spinphonon.config import DeckValidationError, load_config
from spinphonon.dynamics import AmbiguousEigenvectorError
from spinphonon.generators import build_generator
from spinphonon.runner import PointEngine, _fmt, _provenance, peak_rss_mb


def test_validate_ok(capsys):
    assert main(["validate", str(DECK_PATHS["spin_half"])]) == 0
    echo = yaml.safe_load(capsys.readouterr().out)
    assert echo["model"]["two_j"] == 1
    assert echo["numeric"]["workers"] == 1


SPIN_HALF_ROWS = {
    # every matrix row a float row, read from its tagged scalar
    "float_rows": (
        ("        real: [[0.0, 0.5], [0.5, 0.0]]\n",
         "        real: [[0.0, 0.5], [0.5, 0.0]]\n        imag: [[0.0, -0.25], [0.25, 0.0]]\n"),
    ),
    # integer entries, which the stock constructor reads, and no imag
    "integer_entries": (
        ("[[0.0, 0.5], [0.5, 0.0]]", "[[0, 1], [1, 0]]"),
        ("[[0.3, 0.0], [0.0, -0.3]]", "[[1, 0], [0, -1]]"),
    ),
}


@pytest.mark.parametrize(
    "name, rows_read, echo_sha256, config_hash",
    [
        (
            "float_rows", 9,
            "80c6f843e73228d221775a108d1d9c3abc4441294968d711e45722363752593b", "8453d5900589b87a",
        ),
        (
            "integer_entries", 3,
            "29bbbf5bb4afed3f24d88bfeed16ff52a3af01062683b15de73ef8100f1e1b61", "06f4b87e74c83f19",
        ),
    ],
)
def test_a_matrix_decks_echo_and_hash_keep_their_bytes(
    tmp_path, capsys, caplog, name, rows_read, echo_sha256, config_hash
):
    # the digests were recorded when RunConfig.resolved still held the
    # deck's matrices; validate now echoes them from the deck it parsed
    text = DECK_PATHS["spin_half"].read_text()
    for old, new in SPIN_HALF_ROWS[name]:
        assert old in text
        text = text.replace(old, new)
    deck = tmp_path / "deck.yaml"
    deck.write_text(text)
    caplog.set_level(logging.INFO)
    assert main(["-v", "validate", str(deck)]) == 0
    assert f"({rows_read} float rows read directly)" in caplog.text
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == echo_sha256
    assert yaml.safe_load(out)["coupling"] == yaml.safe_load(text)["coupling"]
    assert f"# config_hash: {config_hash}" in _provenance(load_config(deck))


def test_validate_reports_every_diagnostic(tmp_path, capsys):
    deck = tmp_path / "bad.yaml"
    deck.write_text(
        yaml.safe_dump(
            {
                "model": {"two_j": 0},
                "bath": {"modes_cm1": []},
                "coupling": {"operators": [{"matrix_cm1": {"real": [[0.0]]}}]},
                "sweep": {"temperatures_k": [1.0]},
            }
        )
    )
    assert main(["validate", str(deck)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") >= 2  # several diagnostics, not just the first


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/deck.yaml"]) == 2
    assert "not found" in capsys.readouterr().err


def test_validate_unparseable_yaml(tmp_path, capsys):
    deck = tmp_path / "broken.yaml"
    deck.write_text("model: [unclosed\n")
    assert main(["validate", str(deck)]) == 2
    assert "YAML" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    code = main(["run", str(DECK_PATHS["spin_half"]), "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "spin_half_rates.csv").exists()
    assert (tmp_path / "spin_half_fits.txt").exists()
    out = capsys.readouterr().out
    assert "spin_half_rates.csv" in out


def test_run_numeric_failure_exits_3(tmp_path, capsys):
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    deck["numeric"]["regularizer_cm1"] = 0.0
    deck["sweep"]["orders"] = 4
    path = tmp_path / "singular.yaml"
    path.write_text(yaml.safe_dump(deck))
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_scan_regularizer(tmp_path, capsys):
    code = main(
        [
            "scan-regularizer",
            str(DECK_PATHS["spin_half"]),
            "--values", "0.5,1.0,2.0",
            "--temperature-k", "2.0",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "scan_regularizer.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("regularizer_cm1,")
    assert len(data) == 4


def test_scan_regularizer_rejects_garbage_values(capsys):
    assert main(
        ["scan-regularizer", str(DECK_PATHS["spin_half"]), "--values", "a,b"]
    ) == 2


def test_scan_regularizer_rejects_nonpositive_temperature(tmp_path, capsys):
    args = ["scan-regularizer", str(DECK_PATHS["spin_half"]), "--values", "1.0"]
    for temperature in ("0", "inf"):
        assert main(args + ["--temperature-k", temperature, "--output-dir", str(tmp_path)]) == 2
        assert "--temperature-k" in capsys.readouterr().err
        assert not (tmp_path / "scan_regularizer.csv").exists()


@pytest.mark.parametrize(
    "command, flag, values",
    [
        ("scan-regularizer", "--values", "1.0,-1"),
        ("scan-broadening", "--widths", "1.0,nan"),
        ("scan-regularizer", "--values", "1.0,inf"),
        ("scan-broadening", "--widths", "inf"),
    ],
)
def test_scan_rejects_out_of_range_knob_values(tmp_path, capsys, command, flag, values):
    args = [command, str(DECK_PATHS["spin_half"]), flag, values]
    assert main(args + ["--output-dir", str(tmp_path)]) == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_scan_point_failure_names_the_value(tmp_path, capsys):
    # eta = 0 leaves a vanishing order-4 denominator on the spin_half deck
    args = ["scan-regularizer", str(DECK_PATHS["spin_half"]), "--values", "1.0,0"]
    assert main(args + ["--order", "4", "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "regularizer_cm1=0.0" in err and "zero denominator" in err


def test_scan_broadening(tmp_path):
    code = main(
        [
            "scan-broadening",
            str(DECK_PATHS["spin_half"]),
            "--widths", "0.3,0.6",
            "--kind", "lorentzian",
            "--temperature-k", "2.0",
            "--order", "2",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "scan_broadening.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("width_cm1,")
    assert len(data) == 3


def test_scan_broadening_of_an_exact_deck_scans_the_default_gaussian(tmp_path):
    # the exact selector's cutoff of 1 must not truncate the scanned kernel:
    # the scan matches the bundled gaussian deck (5 sigma) at its own width
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    deck["numeric"]["broadening"] = {"kind": "exact"}
    exact = tmp_path / "exact.yaml"
    exact.write_text(yaml.safe_dump(deck))
    rows = []
    for path, out in ((exact, tmp_path / "a"), (DECK_PATHS["spin_half"], tmp_path / "b")):
        assert main(["scan-broadening", str(path), "--widths", "0.5", "--output-dir", str(out)]) == 0
        lines = (out / "scan_broadening.csv").read_text().splitlines()
        rows.append([l for l in lines if not l.startswith("#")])
    assert rows[0] == rows[1]
    t2star = float(rows[0][1].split(",")[1 + SCAN_COLUMNS.index("t2star_s")])
    assert math.isfinite(t2star)


def test_run_ambiguous_doublet_exits_3(tmp_path, capsys):
    # B = 10 T along z reorders the four_level levels: the doublet with the
    # largest moment pairs -3/2 with -1/2, which is no Kramers doublet
    deck = yaml.safe_load(DECK_PATHS["four_level"].read_text())
    deck["model"]["field_t"] = [0.0, 0.0, 10.0]
    path = tmp_path / "ambiguous.yaml"
    path.write_text(yaml.safe_dump(deck))
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "fundamental doublet (0, 1)" in err
    assert "ambiguous" in err and "-1.5, -0.5" in err
    assert not (tmp_path / "four_level_rates.csv").exists()


def test_run_fit_failure_exits_3(tmp_path, capsys):
    # tau is blocked (inf) at 6-8 K, so a tau_rate fit over 6-9 K keeps no point
    deck = yaml.safe_load(DECK_PATHS["j15_2"].read_text())
    deck["fits"].append(
        {"quantity": "tau_rate", "fit_model": "arrhenius", "order": 2, "window_k": [6, 9]}
    )
    path = tmp_path / "blocked_fit.yaml"
    path.write_text(yaml.safe_dump(deck))
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"fits[{len(deck['fits']) - 1}] (tau_rate, arrhenius, order 2)" in err
    # the sweep's rows were all valid, so the CSV is on disk anyway
    lines = (tmp_path / deck["outputs"]["rates_csv"]).read_text().splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 20


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("sweep", "temperatures_k", 0), math.inf, "sweep.temperatures_k[0]"),
        (("numeric", "broadening", "width_cm1"), math.nan, "numeric.broadening.width_cm1"),
        (
            ("coupling", "operators", 0, "matrix_cm1", "real", 1, 0),
            math.nan,
            "coupling.operators[0].matrix_cm1.real[1][0]",
        ),
        (("bath", "modes_cm1", 1), math.inf, "bath.modes_cm1[1]"),
        (
            ("coupling", "operators", 1, "matrix_cm1", "real", 1),
            [0.0],
            "coupling.operators[1].matrix_cm1.real[1]",
        ),
    ],
    ids=["inf_temperature", "nan_width", "nan_matrix_entry", "inf_mode", "ragged_matrix_row"],
)
def test_run_refuses_a_bad_deck_number(tmp_path, capsys, path, value, named):
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    target = deck
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    deck_path = tmp_path / "bad_number.yaml"
    deck_path.write_text(yaml.safe_dump(deck))
    out_dir = tmp_path / "out"
    assert main(["run", str(deck_path), "--output-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"{named}: ")
    assert not out_dir.exists()


def test_run_verbose_logs_where_setup_went(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    assert main(["-v", "run", str(DECK_PATHS["spin_half"]), "--output-dir", str(tmp_path)]) == 0
    assert "deck loaded in" in caplog.text and "validate and resolve" in caplog.text
    # field_t, modes_cm1, the two rows of each coupling matrix, temperatures_k
    assert "(7 float rows read directly)" in caplog.text
    assert re.search(r"sweep finished: 10 rows; .*, write \d+\.\d{3} s", caplog.text)
    # and the order-4 prefilter tasks and rate-carrying jumps, summed over
    # the deck's temperatures
    cfg = load_config(DECK_PATHS["spin_half"])
    eng = PointEngine(cfg)
    builds = [
        build_generator(
            4, eng.couplings, bath_for(cfg, t), eng.es, blocks=eng.blocks,
            regularizer_cm1=cfg.regularizer_cm1, channels=cfg.channels,
            allow_same_mode=cfg.allow_same_mode,
        )
        for t in cfg.temperatures_k
    ]
    tasks, jumps = (sum(getattr(r, f) for r in builds) for f in ("prefilter_tasks", "jump_count"))
    assert 0 < jumps and 0 < tasks
    assert f"s; order-4 prefilter tasks {tasks}, jumps {jumps}; peak RSS " in caplog.text


def test_verbose_finished_lines_report_the_peak_resident_set(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    deck = str(DECK_PATHS["spin_half"])
    assert main(["-v", "run", deck, "--output-dir", str(tmp_path)]) == 0
    args = ["-v", "scan-regularizer", deck, "--values", "0.5", "--output-dir", str(tmp_path)]
    assert main(args) == 0
    found = re.findall(
        r" finished: .*; peak RSS (\d+\.\d) MB, children (\d+\.\d) MB$", caplog.text, re.M
    )
    assert len(found) == 2
    logged = [float(mb) for mb, _ in found]
    # ru_maxrss only grows, and an interpreter with numpy holds over 10 MB
    assert 10.0 < logged[0] <= logged[1] <= peak_rss_mb() + 0.05
    # the largest child finished so far, pool worker or not
    assert all(float(mb) <= peak_rss_mb(resource.RUSAGE_CHILDREN) + 0.05 for _, mb in found)


def test_scan_verbose_logs_where_the_time_went(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    args = ["-v", "scan-regularizer", str(DECK_PATHS["spin_half"]), "--values", "0.5,1.0"]
    assert main(args + ["--output-dir", str(tmp_path)]) == 0
    assert "scan finished: 2 rows; prepare" in caplog.text
    assert "generate" in caplog.text and "extract" in caplog.text
    assert re.search(r"scan finished: .*, write \d+\.\d{3} s", caplog.text)


def test_scan_prepares_one_engine_and_matches_fresh_engines(tmp_path, monkeypatch):
    prepared = []

    class CountingEngine(cli.PointEngine):
        def __init__(self, *args, **kwargs):
            prepared.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "PointEngine", CountingEngine)
    values = (0.5, 1.0, 2.0)
    args = ["scan-regularizer", str(DECK_PATHS["four_level"]), "--values", "0.5,1.0,2.0"]
    assert main(args + ["--order", "4", "--output-dir", str(tmp_path)]) == 0
    assert len(prepared) == 1
    rows = (tmp_path / "scan_regularizer.csv").read_text().splitlines()[-3:]

    config = load_config(DECK_PATHS["four_level"])
    for value, row in zip(values, rows):
        cfg = replace(config, regularizer_cm1=value)
        rep = PointEngine(cfg).rates(config.temperatures_k[0], (4,))[4]
        assert row == ",".join([_fmt(value)] + [_fmt(getattr(rep, f)) for f in cli.SCAN_COLUMNS])


@pytest.mark.parametrize(
    "error",
    [cls("a message") for cls in cli.NUMERIC_ERRORS if cls is not AmbiguousEigenvectorError]
    + [
        AmbiguousEigenvectorError("amplitude 0.4 < 0.5", [(-1.5 + 0.25j, 0.4), (-2.0 + 0j, 0.3)]),
        DeckValidationError(["model.two_j: must be odd", "bath.modes_cm1: empty"]),
    ],
    ids=lambda e: type(e).__name__,
)
def test_every_refusal_survives_a_trip_through_pickle(error):
    # a sweep's worker processes send their errors back pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    for extra in ("table", "diagnostics"):
        assert getattr(back, extra, None) == getattr(error, extra, None)
