import json
import subprocess
import sys

import numpy as np
import pytest

from lemniscates import cli
from lemniscates import io as lio
from lemniscates.cli import RunConfig, main
from lemniscates.curves import ellipse, unit_circle
from lemniscates.errors import ChainClosureError, PreconditionError, TraceError
from lemniscates.fingerprint import BlaschkeProduct
from lemniscates.levelcurves import ClosedLoop, trace_level
from lemniscates.polynomials import Polynomial, RationalMap


@pytest.fixture()
def files(tmp_path):
    f4 = tmp_path / "f4.json"
    f4.write_text(json.dumps({"coeffs": [[0, 0], [0, 0], [3, 0], [4, 0], [1, 0]]}))
    p2 = tmp_path / "p2.json"
    p2.write_text(json.dumps({"coeffs": [[-0.1, 0], [0, 0], [1, 0]]}))
    improper = tmp_path / "improper.json"
    improper.write_text(json.dumps({"coeffs": [[-4, 0], [0, 0], [1, 0]]}))
    ell = tmp_path / "ellipse.json"
    lio.save_curve(ellipse(1.0, 0.6, 512), ell)
    return tmp_path


def run_cli(*args, outdir):
    return main(["--outdir", str(outdir), *args])


def test_polynomial_roundtrip(tmp_path):
    p = Polynomial([1 + 2j, 0, 3.5])
    path = tmp_path / "p.json"
    lio.save_polynomial(p, path)
    q = lio.load_polynomial(path)
    assert np.allclose(q.coeffs, p.coeffs)


def test_curve_roundtrip(tmp_path):
    c = unit_circle(64)
    path = tmp_path / "c.json"
    lio.save_curve(c, path)
    c2 = lio.load_curve(path)
    assert c2.closed and np.allclose(c2.points, c.points)


def test_blaschke_roundtrip():
    b = BlaschkeProduct([0.3 + 0.1j, -0.2], rotation=np.exp(0.7j))
    b2 = lio.blaschke_from_dict(lio.blaschke_to_dict(b))
    assert np.allclose(b2.zeros, b.zeros) and b2.rotation == pytest.approx(b.rotation)


def test_arc_csv_columns(tmp_path):
    arc = trace_level(RationalMap(Polynomial([0, 1])), 1.0, 1.0, 1, ClosedLoop(), 0.05)
    path = tmp_path / "arc.csv"
    lio.save_arc_csv(arc, path)
    header = path.read_text().splitlines()[0]
    assert header == "s_index,re,im,abs_f,arg_lift"


def test_cli_roots(files, capsys):
    assert run_cli("roots", str(files / "f4.json"), outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 4
    mults = sorted(r["multiplicity"] for r in out["roots"])
    assert mults == [1, 1, 2]


def test_cli_roots_bad_input(files, capsys, tmp_path):
    bad = {
        "empty.json": json.dumps({"coeffs": []}),
        "truncated.json": json.dumps({"coeffs": [[1, 0], [0, 0], [1, 0]]})[:-5],
        "list.json": json.dumps([[1, 0], [1, 0]]),
        "binary.json": None,
    }
    for name, text in bad.items():
        path = tmp_path / name
        if text is None:
            path.write_bytes(b"\xff\xfe\x00{")
        else:
            path.write_text(text)
    for path in [*(tmp_path / name for name in bad), tmp_path / "missing.json"]:
        assert run_cli("roots", str(path), outdir=files) == 2, path.name
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"


def _raising(err):
    def handler(args, cfg):
        raise err

    return handler


def test_cli_error_json_keeps_error_data(files, capsys, monkeypatch):
    closure = ChainClosureError("2 of 3 candidates gave distinct closed Jordan chains", [
        {"start": 1 + 2j, "closure_residual": 1e-12, "diameter": 3.0, "jordan": True},
        {"start": -0.5j, "error": "critical point near 0"},
    ])
    monkeypatch.setitem(cli._HANDLERS, "counterexample", _raising(closure))
    assert run_cli("counterexample", "table", outdir=files) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChainClosureError"
    assert err["details"] == {"candidates": [
        {"start": [1.0, 2.0], "closure_residual": 1e-12},
        {"start": [0.0, -0.5], "error": "critical point near 0"},
    ]}

    trace = TraceError("critical point near 0.5", samples=np.array([0.1, 0.25 + 0.5j]))
    monkeypatch.setitem(cli._HANDLERS, "counterexample", _raising(trace))
    assert run_cli("counterexample", "table", outdir=files) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TraceError"
    assert err["details"] == {"samples": 2, "last_sample": [0.25, 0.5]}

    monkeypatch.setitem(cli._HANDLERS, "counterexample", _raising(TraceError("budget")))
    assert run_cli("counterexample", "table", outdir=files) == 3
    assert json.loads(capsys.readouterr().err)["details"] == {"samples": 0, "last_sample": None}

    monkeypatch.setitem(cli._HANDLERS, "counterexample", _raising(PreconditionError("bad")))
    assert run_cli("counterexample", "table", outdir=files) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "PreconditionError", "message": "bad"}


def test_cli_lemniscate_proper(files, capsys):
    assert run_cli("lemniscate", str(files / "p2.json"), "unit-circle", "lem.svg", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["proper"] is True
    svg = (files / "lem.svg").read_text()
    assert svg.startswith("<svg") and "polygon" in svg
    curve = lio.load_curve(files / "lem.json")
    assert len(curve) == 2048


def test_cli_lemniscate_improper_warns(files, capsys):
    assert run_cli("lemniscate", str(files / "improper.json"), "unit-circle", "imp.svg", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["proper"] is False and "warning" in out
    assert (files / "imp.svg").exists()


def test_cli_lemniscate_improper_f4_levels(files, capsys):
    # z^2(z+1)(z+3) on the unit circle: just below each nonzero critical
    # modulus every zero has its own component; -3's own component at
    # 0.98|cv_big| is one of the eight
    assert run_cli("lemniscate", str(files / "f4.json"), "unit-circle", "levels.svg", outdir=files) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert len(levels) == 8
    assert levels.count(levels[5]) == 2 and levels[5] == pytest.approx(4.7511, abs=1e-4)


def test_cli_fingerprint(files, capsys):
    assert run_cli("fingerprint", str(files / "p2.json"), "unit-circle", "fp.csv", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual_rad"] <= 1e-4
    assert (files / "fp.csv").read_text().splitlines()[0] == "t,L"
    assert (files / "fp_kgamma.csv").exists()
    assert (files / "fp_blaschke.csv").exists()
    bj = json.loads((files / "fp_blaschke.json").read_text())
    assert len(bj["zeros"]) == 2


def test_cli_fingerprint_ellipse(files, capsys):
    code = run_cli(
        "fingerprint", str(files / "p2.json"), str(files / "ellipse.json"), "fe.csv",
        outdir=files,
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual_rad"] <= 1e-3


def test_cli_properness(files, capsys):
    assert run_cli("properness", str(files / "p2.json"), "unit-circle", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["proper"] is True and out["methods_agree"] is True
    assert run_cli("properness", str(files / "improper.json"), "unit-circle", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["proper"] is False and out["methods_agree"] is True


def test_cli_counterexample_table(files, capsys):
    assert run_cli("counterexample", "table", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_ok"] is True and out["rows_ok"] == 10
    report = json.loads((files / "table_report.json").read_text())
    assert len(report["rows"]) == 10


def test_cli_counterexample_noninj_small(files, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_args": 60, "grid_moduli": 15}))
    code = main(["--config", str(cfg), "--outdir", str(files), "counterexample", "noninj"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 2


def test_cli_counterexample_export(files, capsys):
    assert run_cli("counterexample", "export", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 20
    curve = lio.load_curve(files / "d4_boundary.json")
    from lemniscates.curves import is_jordan

    assert is_jordan(curve, tol=1e-9)


def test_cli_counterexample_family(files, capsys):
    assert run_cli("counterexample", "family", "--n", "5", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 5 and out["spacing_ratio"] == 3.0


def test_cli_counterexample_rejects_higher_degree_region(files, capsys):
    assert run_cli("counterexample", "noninj", "--n", "5", outdir=files) == 2


def test_cli_deterministic_outputs(files, capsys):
    run_cli("lemniscate", str(files / "p2.json"), "unit-circle", "a.svg", outdir=files)
    first_svg = (files / "a.svg").read_bytes()
    first_json = (files / "a.json").read_bytes()
    run_cli("lemniscate", str(files / "p2.json"), "unit-circle", "a.svg", outdir=files)
    capsys.readouterr()
    assert (files / "a.svg").read_bytes() == first_svg
    assert (files / "a.json").read_bytes() == first_json


def test_cli_outdir_env_override(files, capsys, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("LEMNISCATES_OUTDIR", str(target))
    assert main(["roots", str(files / "f4.json")]) == 0
    capsys.readouterr()
    monkeypatch.delenv("LEMNISCATES_OUTDIR")


def test_runconfig_validation(tmp_path):
    with pytest.raises(PreconditionError):
        RunConfig(nodes=100).validate()
    with pytest.raises(PreconditionError):
        RunConfig(nodes=8192).validate()
    with pytest.raises(PreconditionError):
        RunConfig(table_tol=-1.0).validate()
    cfg = tmp_path / "bad.json"
    for text in [
        json.dumps({"not_a_key": 1}),
        json.dumps({"trace_step": "nan"}),
        json.dumps({"trace_step": True}),
        json.dumps({"trace_step": None}),
        '{"trace_step": NaN}',
        '{"trace_step": Infinity}',
        json.dumps({"nodes": 1024.5}),
        json.dumps({"grid_args": "360"}),
        json.dumps({"outdir": 3}),
        json.dumps({"seed": 1}),
        json.dumps({"trace_step": 0.01})[:-1],
        json.dumps([1, 2]),
    ]:
        cfg.write_text(text)
        with pytest.raises(PreconditionError):
            RunConfig.load(cfg)
    with pytest.raises(PreconditionError):
        RunConfig.load(tmp_path / "missing.json")
    with pytest.raises(PreconditionError):
        RunConfig(trace_step=float("nan")).validate()
    cfg.write_text(json.dumps({"nodes": 512.0, "trace_step": 1, "outdir": "out"}))
    loaded = RunConfig.load(cfg)
    assert loaded.nodes == 512 and isinstance(loaded.nodes, int)
    assert loaded.trace_step == 1.0 and isinstance(loaded.trace_step, float)


def test_cli_entrypoint_subprocess(files):
    r = subprocess.run(
        [sys.executable, "-m", "lemniscates.cli", "--outdir", str(files),
         "roots", str(files / "f4.json")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["degree"] == 4
