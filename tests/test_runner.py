import copy
import csv
from dataclasses import replace

import numpy as np
import pytest
import yaml

from conftest import DECK_PATHS, GOLDEN
from test_config import MIXED

from spinphonon import runner
from spinphonon.bath import BathConfig
from spinphonon.config import DeckValidationError, load_config, resolve
from spinphonon.coupling import from_raw_matrices
from spinphonon.dynamics import extract_tau
from spinphonon.generators import build_generator
from spinphonon.runner import CSV_COLUMNS, PointEngine, SweepPointError, run_sweep
from spinphonon.spin_model import StevensTerm, stevens_sum


def read_rates_csv(path):
    provenance, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                provenance.append(line.rstrip("\n"))
            else:
                fh2 = [line.rstrip("\n")] + [l.rstrip("\n") for l in fh]
                reader = csv.DictReader(fh2)
                rows = list(reader)
                break
    return provenance, rows


def test_even_two_j_is_rejected():
    deck = {
        "model": {"two_j": 2},
        "bath": {"modes_cm1": [1.0]},
        "coupling": {"operators": [{"matrix_cm1": {"real": np.eye(3).tolist()}}]},
        "sweep": {"temperatures_k": [1.0]},
    }
    with pytest.raises(DeckValidationError) as info:
        resolve(deck)
    assert info.value.diagnostics == [
        "model.two_j: 2 is even; rate sweeps need a Kramers system (half-integer J), "
        "so two_j must be odd"
    ]


def test_sweep_csv_structure(tmp_path, spin_half_config):
    result = run_sweep(spin_half_config, output_dir=tmp_path)
    provenance, rows = read_rates_csv(result.rates_csv_path)
    assert len(provenance) == 4
    assert provenance[1].startswith("# config_hash: ")
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)
    # temperatures x orders rows, both orders per temperature
    assert len(rows) == len(spin_half_config.temperatures_k) * 2
    orders = [r["order"] for r in rows]
    assert orders[:2] == ["2", "4"]
    # identity 1/T2 = 1/(2T1) + 1/T2* holds row by row
    for r in rows:
        lhs = 1.0 / float(r["t2_s"])
        rhs = 1.0 / (2.0 * float(r["t1_s"])) + 1.0 / float(r["t2star_s"])
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)


def test_sweep_is_reproducible_byte_for_byte(tmp_path, spin_half_config):
    a = run_sweep(spin_half_config, output_dir=tmp_path / "a")
    b = run_sweep(spin_half_config, output_dir=tmp_path / "b")
    with open(a.rates_csv_path, "rb") as fa, open(b.rates_csv_path, "rb") as fb:
        assert fa.read() == fb.read()


def test_order4_rows_are_cumulative(four_level_engine):
    eng = four_level_engine
    t = 2.0
    reports = eng.rates(t, (2, 4))
    r2, r4 = eng.build(2, t), eng.build(4, t)
    tau = extract_tau(r2.superoperator + r4.superoperator, eng.pair)
    assert reports[4].tau_s == tau.tau_s
    # and the order-2 row is untouched by the order-4 contribution
    assert reports[2].tau_s == extract_tau(r2.superoperator, eng.pair).tau_s


def _bits(r):
    return r.superoperator.dense(), r.weights, r.dephasing, r.jump_count, r.prefilter_tasks


def test_build_passes_every_deck_setting_to_build_generator(
    spin_half_engine, four_level_engine, j15_2_engine
):
    # the one build assembled by hand from a deck's settings, with the
    # blocks left for build_generator to partition: engine.build must give
    # its bits with the deck's settings and with each setting overridden
    for eng in (spin_half_engine, four_level_engine, j15_2_engine):
        cfg = eng.config
        t = cfg.temperatures_k[-1]
        width = replace(cfg.broadening, width_cm1=2.0 * cfg.broadening.width_cm1)
        channels = ("absorption_emission", "double_absorption", "double_emission")
        for c in (
            cfg,
            replace(cfg, regularizer_cm1=0.3),
            replace(cfg, broadening=width),
            replace(cfg, channels=channels, allow_same_mode=True),
        ):
            bath = BathConfig(modes=c.modes, temperature_k=t, broadening=c.broadening)
            for order in (2, 4):
                want = build_generator(
                    order, eng.couplings, bath, eng.es, secular_tol_cm1=c.secular_tol_cm1,
                    regularizer_cm1=c.regularizer_cm1, channels=c.channels,
                    allow_same_mode=c.allow_same_mode,
                )
                for x, y in zip(_bits(eng.build(order, t, c)), _bits(want)):
                    np.testing.assert_array_equal(x, y, strict=True)


def test_build_refuses_a_config_the_engine_was_not_prepared_with(
    four_level_engine, spin_half_config
):
    eng = four_level_engine
    cfg = eng.config
    # equal values in new objects are refused too: the engine was prepared
    # from the objects themselves
    for other, name in (
        (spin_half_config, "model"),
        (load_config(DECK_PATHS["four_level"]), "model"),
        (replace(cfg, modes=tuple(list(cfg.modes))), "modes"),
        (replace(cfg, couplings_cm1=cfg.couplings_cm1.copy()), "couplings_cm1"),
        (replace(cfg, coupling_bases=tuple(list(cfg.coupling_bases))), "coupling_bases"),
        (replace(cfg, secular_tol_cm1=2.0 * cfg.secular_tol_cm1), "secular_tol_cm1"),
    ):
        message = f"config.{name} is not the one the engine was prepared with"
        with pytest.raises(ValueError, match=message):
            eng.build(4, 2.0, other)
        with pytest.raises(ValueError, match=message):
            eng.rates(2.0, (2,), other)
    # what the scans change, through replace, passes
    eng.build(2, 2.0, replace(cfg, regularizer_cm1=0.5))


def test_field_sweep_appends_field_columns(tmp_path):
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    deck["sweep"]["temperatures_k"] = [2.0]
    deck["sweep"]["fields_t"] = [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]
    cfg = resolve(deck)
    result = run_sweep(cfg, output_dir=tmp_path)
    _, rows = read_rates_csv(result.rates_csv_path)
    assert len(rows) == 4  # 2 fields x 1 temperature x 2 orders
    assert "field_T_z" in rows[0]
    z = sorted({r["field_T_z"] for r in rows})
    assert z == ["1.0", "2.0"]


def test_mixed_coupling_forms_match_each_mode_summed_and_transformed_alone():
    deck = copy.deepcopy(MIXED)
    deck["model"].update(stevens_terms_cm1=[[2, 0, -2.0]], field_t=[0.1, 0.0, 0.2])
    deck["coupling"]["operators"][1]["matrix_cm1"]["basis"] = "eigen"
    cfg = resolve(deck)
    assert cfg.coupling_bases == ("mj", "eigen", "mj")
    eng = PointEngine(cfg)
    assert eng.frame is not None  # the tilted field rotates the M_J couplings
    j = cfg.model.angular_momentum
    for i, op in enumerate(deck["coupling"]["operators"]):
        if "stevens_derivatives_cm1" in op:
            terms = [StevensTerm(l, m, v) for l, m, v in op["stevens_derivatives_cm1"]]
            matrix, basis = stevens_sum(terms, j), "mj"
        else:
            mat = op["matrix_cm1"]
            real = np.array(mat["real"], dtype=float)
            matrix = real + 1j * np.array(mat.get("imag", np.zeros_like(real)), dtype=float)
            basis = mat.get("basis", "mj")
        np.testing.assert_array_equal(cfg.couplings_cm1[i], matrix, strict=True)
        stack = matrix[None]
        if basis == "mj":
            stack = eng.frame @ stack @ eng.frame.conj().T
        (want,) = from_raw_matrices(stack, basis, eng.es, mode_indices=[i])
        assert eng.couplings[i].mode_index == i
        np.testing.assert_array_equal(eng.couplings[i].matrix, want.matrix, strict=True)


def test_run_sweep_makes_each_output_files_directory(tmp_path, spin_half_config):
    cfg = replace(spin_half_config, rates_csv="a/rates.csv", fit_report="b/c/fits.txt")
    result = run_sweep(cfg, output_dir=tmp_path / "out")
    assert (tmp_path / "out" / "a" / "rates.csv").is_file()
    assert (tmp_path / "out" / "b" / "c" / "fits.txt").is_file()
    assert result.rates_csv_path == str(tmp_path / "out" / "a" / "rates.csv")


def test_sweep_error_names_the_point(tmp_path):
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    # exact-resonant mode with eta = 0 blows up the two-phonon denominators
    deck["numeric"]["regularizer_cm1"] = 0.0
    deck["sweep"]["temperatures_k"] = [2.0]
    deck["sweep"]["orders"] = 4
    cfg = resolve(deck)
    with pytest.raises(SweepPointError, match="temperature_K=2.0"):
        run_sweep(cfg, output_dir=tmp_path)


def test_fit_report_written_for_requested_fits(tmp_path, four_level_config):
    result = run_sweep(four_level_config, output_dir=tmp_path)
    text = open(result.fit_report_path).read()
    assert "quantity=t1_rate" in text
    assert "U_cm1" in text
    assert len(result.fit_results) == 1
    request, fit = result.fit_results[0]
    assert request.quantity == "t1_rate"
    assert fit.window_k == (2.0, 8.0)
    # barrier between the doublet centers is 12 cm^-1 for this model
    assert fit.u_cm1 == pytest.approx(12.0, rel=0.05)


def test_tilted_field_engine_aligns_and_runs(spin_half_config):
    # field along +x: alignment maps it back onto z, the spectrum is the
    # same as for the straight deck and the sweep still produces numbers
    deck = yaml.safe_load(DECK_PATHS["spin_half"].read_text())
    deck["model"]["field_t"] = [1.0, 0.0, 0.0]
    eng = PointEngine(resolve(deck))
    straight = PointEngine(spin_half_config)
    assert np.allclose(eng.es.energies_cm1, straight.es.energies_cm1, atol=1e-9)
    assert eng.pair.indices == (0, 1)
    rep = eng.rates(2.0, (2,))[2]
    assert np.isfinite(rep.t1_s) and rep.t1_s > 0.0


@pytest.mark.parametrize(
    "name, field_t, calls",
    [("spin_half", None, 1), ("four_level", None, 1), ("j15_2", None, 1),
     ("spin_half", (1.0, 0.0, 0.0), 2)],
)
def test_engine_diagonalizes_again_only_after_rotating(monkeypatch, name, field_t, calls):
    models = []

    def counting(model, *args, original=runner.eigensystem_for):
        models.append(model)
        return original(model, *args)

    monkeypatch.setattr(runner, "eigensystem_for", counting)
    PointEngine(load_config(DECK_PATHS[name]), field_t)
    assert len(models) == calls


def test_four_level_sweep_reproduces_golden_and_rates_are_monotone(
    tmp_path, four_level_config
):
    result = run_sweep(four_level_config, output_dir=str(tmp_path))
    with open(result.rates_csv_path, "rb") as fresh, open(
        GOLDEN / "four_level_rates.csv", "rb"
    ) as frozen:
        assert fresh.read() == frozen.read()

    _, rows = read_rates_csv(result.rates_csv_path)
    assert len(rows) == 20
    for order in ("2", "4"):
        track = [r for r in rows if r["order"] == order]
        for col in ("tau_s", "t1_s", "t2_s"):
            rates = [1.0 / float(r[col]) for r in track]
            assert all(b > a for a, b in zip(rates, rates[1:])), (order, col)
        # the order-2 dephasing track is blocked throughout (rate 0)
        dep = [1.0 / float(r["t2star_s"]) for r in track]
        assert all(b >= a for a, b in zip(dep, dep[1:])), order
