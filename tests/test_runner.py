import csv

import numpy as np
import pytest
import yaml

from conftest import DECK_PATHS, GOLDEN, bath_for

from spinphonon import runner
from spinphonon.config import load_config, resolve
from spinphonon.generators import Superoperator, build_generator
from spinphonon.runner import CSV_COLUMNS, PointEngine, SweepPointError, run_sweep


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
    with pytest.raises(SweepPointError):
        PointEngine(resolve(deck))


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


def test_order4_rows_are_cumulative(four_level_config, four_level_engine):
    eng = four_level_engine
    t = 2.0
    reports = eng.rates(t, (2, 4))
    kw = dict(
        secular_tol_cm1=four_level_config.secular_tol_cm1,
        regularizer_cm1=four_level_config.regularizer_cm1,
    )
    bath = bath_for(four_level_config, t)
    r2 = build_generator(2, eng.couplings, bath, eng.es, **kw)
    r4 = build_generator(
        4, eng.couplings, bath, eng.es,
        channels=four_level_config.channels,
        allow_same_mode=four_level_config.allow_same_mode, **kw,
    )
    cumulative = Superoperator(
        matrix=r2.superoperator.matrix + r4.superoperator.matrix, dim=r2.superoperator.dim
    )
    from spinphonon.dynamics import extract_tau

    tau = extract_tau(cumulative, eng.pair)
    assert reports[4].tau_s == pytest.approx(tau.tau_s, rel=1e-12)
    # and the order-2 row is untouched by the order-4 contribution
    tau2 = extract_tau(r2.superoperator, eng.pair)
    assert reports[2].tau_s == pytest.approx(tau2.tau_s, rel=1e-12)


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
