import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lemniscates import cli, fingerprint
from lemniscates import io as lio
from lemniscates.cli import RunConfig, main
from lemniscates.curves import SampledCurve, ellipse, unit_circle
from lemniscates.errors import ChainClosureError, PreconditionError, TraceError
from lemniscates.fingerprint import BlaschkeProduct, identity_report, is_proper, pseudo_lemniscate
from lemniscates.polynomials import Polynomial, normalize_leading


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


@pytest.mark.parametrize("d", [
    {},
    {"zeros": [[0.1, 0]]},
    {"zeros": [[0.1, 0]], "rotation": 1},
    {"zeros": [[0.1, 0, 0]], "rotation": [1, 0]},
    {"zeros": [[1.5, 0]], "rotation": [1, 0]},
])
def test_blaschke_malformed_json_refused(d):
    with pytest.raises(PreconditionError):
        lio.blaschke_from_dict(d)


@pytest.fixture(scope="module")
def solved_maps():
    from lemniscates.conformal import riemann_maps

    dicts = [lio.solved_map_to_dict(m) for m in riemann_maps(unit_circle(64, center=0.2), 64)]
    for d in dicts:
        lio.solved_map_from_dict(d)  # the unaltered files load
    return dicts


@pytest.mark.parametrize("case", [
    "empty", "no mu (older format)", "no g0", "short mu", "decreasing theta",
    "bad points", "exterior without inner", "exterior with older inner",
    "exterior with theta", "exterior with a", "exterior with points",
    "with center_derivative", "infinite g0", "NaN in mu", "NaN in points",
    "exterior with NaN in inner mu", "kind bogus", "kind Exterior", "inner with unknown key",
    "exterior inner", "inner not an object", "not an object", "one-entry g0",
])
def test_solved_map_malformed_json_refused(solved_maps, case):
    dm, em = solved_maps
    d = {
        "empty": {},
        "no mu (older format)": {k: v for k, v in dm.items() if k != "mu"},
        "no g0": {k: v for k, v in dm.items() if k != "g0"},
        "short mu": {**dm, "mu": dm["mu"][:-1]},
        "decreasing theta": {**dm, "theta": dm["theta"][::-1]},
        "bad points": {**dm, "points": [1.0] * len(dm["points"])},
        "exterior without inner": {k: v for k, v in em.items() if k != "inner"},
        "exterior with older inner": {
            **em, "inner": {k: v for k, v in em["inner"].items() if k != "mu"},
        },
        # all are read off inner; a file that carries them is refused, not read
        "exterior with theta": {**em, "theta": em["inner"]["theta"]},
        "exterior with a": {**em, "a": float(np.exp(em["inner"]["g0"][0]))},
        "exterior with points": {**em, "points": em["inner"]["points"]},
        # g0 determines phi'(0) = exp(-Re g0); a stored copy could disagree
        "with center_derivative": {**dm, "center_derivative": float(np.exp(-dm["g0"][0]))},
        "infinite g0": {**dm, "g0": [float("inf"), 0.0]},
        # json reads NaN; such a map would evaluate to NaN quietly
        "NaN in mu": {**dm, "mu": [float("nan")] + dm["mu"][1:]},
        "NaN in points": {**dm, "points": [[float("nan"), 0.0]] + dm["points"][1:]},
        "exterior with NaN in inner mu": {
            **em, "inner": {**em["inner"], "mu": [float("nan")] + em["inner"]["mu"][1:]},
        },
        # an unknown kind is not read as an interior map
        "kind bogus": {**dm, "kind": "bogus"},
        "kind Exterior": {**dm, "kind": "Exterior"},
        "inner with unknown key": {**em, "inner": {**em["inner"], "nodes": len(dm["mu"])}},
        "exterior inner": {**em, "inner": em},
        "inner not an object": {**em, "inner": [1, 2]},
        "not an object": [dm],
        "one-entry g0": {**dm, "g0": dm["g0"][:1]},
    }[case]
    with pytest.raises(PreconditionError):
        lio.solved_map_from_dict(d)


@pytest.mark.parametrize("fmt", ["polynomial", "curve", "Blaschke", "interior map",
                                 "exterior map"])
def test_reader_refuses_unknown_key(solved_maps, fmt):
    """A file holds exactly the keys of its format: the written dict loads,
    and the same dict with one more key is refused, naming the key."""
    read, d = {
        "polynomial": (lio.polynomial_from_dict, lio.polynomial_to_dict(Polynomial([1, 2j, 3]))),
        "curve": (lio.curve_from_dict, lio.curve_to_dict(unit_circle(8))),
        "Blaschke": (lio.blaschke_from_dict, lio.blaschke_to_dict(BlaschkeProduct([0.3j]))),
        "interior map": (lio.solved_map_from_dict, solved_maps[0]),
        "exterior map": (lio.solved_map_from_dict, solved_maps[1]),
    }[fmt]
    read(d)
    with pytest.raises(PreconditionError, match=r"unknown .*keys: \['extra'\]"):
        read({**d, "extra": 1})


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


_CIRCLE16 = [[float(np.cos(t)), float(np.sin(t))] for t in np.linspace(0, 2 * np.pi, 16, endpoint=False)]
_BAD_POLYS = {
    "string_coeffs.json": json.dumps({"coeffs": "z^2 - 0.1"}),
    "nested_coeffs.json": json.dumps({"coeffs": [[[1, 0]], [0, 0]]}),
    "null_coeffs.json": json.dumps({"coeffs": None}),
    "dict_coeffs.json": json.dumps({"coeffs": {"re": 1, "im": 0}}),
    "nan_coeffs.json": '{"coeffs": [[NaN, 0], [0, 0], [1, 0]]}',
    "degree70.json": json.dumps({"coeffs": [[1, 0]] * 71}),
    "constant.json": json.dumps({"coeffs": [[2, 0]]}),
    "zero.json": json.dumps({"coeffs": [[0, 0], [0, 0]]}),
}
# p overflows on the disk that holds its roots, where the companion matrix and
# the residual test need it finite
_OVERFLOW_POLYS = {
    "wide_range.json": json.dumps({"coeffs": [[1e308, 0], [0, 0], [1e-308, 0]]}),
    "subnormal_lead.json": json.dumps({"coeffs": [[1, 0], [0, 0], [1e-320, 0]]}),
}
_BAD_CURVES = {
    "two_points.json": json.dumps({"points": [[1, 0], [0, 1]]}),
    "repeated.json": json.dumps({"points": [[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]}),
    "points_int.json": json.dumps({"points": 5}),
    "clockwise.json": json.dumps({"points": _CIRCLE16[::-1]}),
    # counterclockwise overall (the right lobe is larger), origin inside
    "bow_tie.json": json.dumps({"points": [[-1, -0.5], [-1, 0.5], [2, -2], [2, 2]]}),
    "open.json": json.dumps({"closed": False, "points": _CIRCLE16}),
}
_BAD_CONFIGS = [
    {"nodes": "1024"}, {"nodes": 100}, {"grid_args": 2.5}, {"grid_moduli": 0},
    {"grid_args": -4}, {"grid_moduli": 10**30}, {"grid_mod_min": -0.01},
    {"grid_mod_max": 0.1}, {"trace_step": 0.01}, {"outdir": 3}, {"grid_mod_min": None},
]


def _assert_fails_with_json(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (2, 3), argv
    assert not caught, (argv, [str(w.message) for w in caught])  # nothing else on stderr
    record = json.loads(err)
    assert record["error"] in ("PreconditionError", "TraceError", "NumericalError",
                               "SolverError", "RootFindingError"), argv
    assert record["message"], argv


_OUTPUTS = {"properness": [], "lemniscate": ["out.svg"], "fingerprint": ["out.csv"]}


@pytest.mark.parametrize("command", [
    *_OUTPUTS, "roots",
    "counterexample table", "counterexample noninj", "counterexample family",
    "counterexample export",
])
def test_cli_malformed_inputs_exit_2_or_3(files, capsys, command):
    for name, text in {**_BAD_POLYS, **_OVERFLOW_POLYS, **_BAD_CURVES}.items():
        (files / name).write_text(text)
    base = ["--outdir", str(files / "out")]
    argv = command.split()
    p2 = str(files / "p2.json")
    if argv[0] == "roots":
        for name in {**_BAD_POLYS, **_OVERFLOW_POLYS}:
            _assert_fails_with_json([*base, "roots", str(files / name)], capsys)
        for tol in ("inf", "nan", "0", "-1", "1"):
            _assert_fails_with_json([*base, "roots", p2, "--tol", tol], capsys)
        argv.append(p2)
    elif argv[0] in _OUTPUTS:
        out = _OUTPUTS[argv[0]]
        for name in _BAD_POLYS:
            _assert_fails_with_json([*base, *argv, str(files / name), "unit-circle", *out],
                                    capsys)
        for name in _BAD_CURVES:
            _assert_fails_with_json([*base, *argv, p2, str(files / name), *out], capsys)
        argv += [p2, "unit-circle", *out]
    cfg = files / "cfg.json"
    for bad in _BAD_CONFIGS:
        cfg.write_text(json.dumps(bad))
        _assert_fails_with_json(["--config", str(cfg), *base, *argv], capsys)
    if command == "fingerprint":  # the fingerprint needs the origin inside the curve
        (files / "shifted.json").write_text(
            json.dumps({"points": [[x + 5, y] for x, y in _CIRCLE16]}))
        _assert_fails_with_json([*base, command, p2, str(files / "shifted.json"), "out.csv"],
                                capsys)
    assert not list(files.glob("out/*"))  # no output file was written


@pytest.mark.parametrize("key, argv", [
    ("grid_args", ["counterexample", "noninj"]),
    ("grid_moduli", ["counterexample", "noninj"]),
])
def test_cli_rejects_oversized_counts(files, capsys, key, argv):
    # a 10**30-point grid would fail to allocate: the config is refused first
    cfg = files / "cfg.json"
    cfg.write_text(json.dumps({key: 10**30}))
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    assert main(["--config", str(cfg), "--outdir", str(files), *argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError" and key in err["message"]


def test_cli_error_json_keeps_error_data(files, capsys, monkeypatch):
    closure = ChainClosureError("2 of 4 candidates gave distinct closed Jordan chains", [
        {"start": 1 + 2j, "closure_residual": 1e-12, "diameter": 3.0, "jordan": True},
        {"start": -0.5j, "error": "critical point near 0"},
        {"start": 0.25 + 0j, "crossed_after_arc": 4},
    ])
    monkeypatch.setitem(cli._HANDLERS, "counterexample", _raising(closure))
    assert run_cli("counterexample", "table", outdir=files) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChainClosureError"
    assert err["details"] == {"candidates": [
        {"start": [1.0, 2.0], "closure_residual": 1e-12},
        {"start": [0.0, -0.5], "error": "critical point near 0"},
        {"start": [0.25, 0.0], "crossed_after_arc": 4},
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


def test_cli_lemniscate_tests_properness_once(files, capsys, monkeypatch):
    """A proper input gets one `is_proper` call, so one Jordan test of Gamma
    and one critical-value winding, and lem.json is pseudo_lemniscate's curve."""
    calls = []
    real = fingerprint.is_proper

    def counting(p, gamma):
        calls.append(p)
        return real(p, gamma)

    monkeypatch.setattr(fingerprint, "is_proper", counting)
    monkeypatch.setattr(cli, "is_proper", counting)
    assert run_cli("lemniscate", str(files / "p2.json"), "unit-circle", "lem.svg", outdir=files) == 0
    assert json.loads(capsys.readouterr().out)["proper"] is True
    assert len(calls) == 1
    p, _ = normalize_leading(lio.load_polynomial(files / "p2.json"))
    lio.save_curve(pseudo_lemniscate(p, unit_circle(512)), files / "library.json")
    assert (files / "lem.json").read_bytes() == (files / "library.json").read_bytes()


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


@pytest.mark.parametrize("poly, curve, out", [
    ("f4.json", "unit-circle", "f4.svg"),      # JSON output onto the polynomial
    ("p2.json", "ellipse.json", "ellipse.svg"),  # JSON output onto the curve
    ("p2.json", "unit-circle", "cfg.svg"),     # JSON output onto the config
    ("p2.json", "unit-circle", "p2.json"),     # SVG output onto the polynomial
])
def test_cli_lemniscate_refuses_to_overwrite_inputs(files, capsys, poly, curve, out):
    (files / "cfg.json").write_text("{}")
    inputs = ["cfg.json", "f4.json", "p2.json", "ellipse.json"]
    before = {name: (files / name).read_bytes() for name in inputs}
    curve_arg = curve if curve == "unit-circle" else str(files / curve)
    argv = ["--config", str(files / "cfg.json"), "--outdir", str(files),
            "lemniscate", str(files / poly), curve_arg, out]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PreconditionError"
    assert {name: (files / name).read_bytes() for name in inputs} == before
    assert not list(files.glob("*.svg"))


@pytest.mark.parametrize("out, curve, save_maps", [
    ("p2.json", "unit-circle", False),                    # k_p CSV onto the polynomial
    ("fp.csv", "fp_blaschke.json", False),                # Blaschke JSON onto the curve
    ("fp.csv", "fp_map_curve_exterior.json", True),      # a saved map onto the curve
])
def test_cli_fingerprint_refuses_to_overwrite_inputs(files, capsys, out, curve, save_maps):
    if curve != "unit-circle":
        lio.save_curve(unit_circle(512), files / curve)
    inputs = ["p2.json"] + ([curve] if curve != "unit-circle" else [])
    before = {name: (files / name).read_bytes() for name in inputs}
    argv = ["fingerprint", str(files / "p2.json"),
            curve if curve == "unit-circle" else str(files / curve), out]
    assert run_cli(*argv, *(["--save-maps"] if save_maps else []), outdir=files) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "PreconditionError" and "overwrite an input" in record["message"]
    assert {name: (files / name).read_bytes() for name in inputs} == before
    assert not list(files.glob("*.csv"))  # no output was written before the refusal


def test_cli_fingerprint(files, capsys):
    assert run_cli("fingerprint", str(files / "p2.json"), "unit-circle", "fp.csv", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residual_rad"] <= 1e-4
    assert (files / "fp.csv").read_text().splitlines()[0] == "t,L"
    assert (files / "fp_kgamma.csv").exists()
    assert (files / "fp_blaschke.csv").exists()
    bj = json.loads((files / "fp_blaschke.json").read_text())
    assert len(bj["zeros"]) == 2


def test_cli_fingerprint_is_identity_report(files, capsys):
    # the CLI traces at identity_report's own lap count: for a cubic the
    # lap rule max(512, 2 * nodes // n) differs from any fixed count
    p3 = Polynomial([0, -0.3, 0, 1])
    lio.save_polynomial(p3, files / "p3.json")
    assert run_cli("fingerprint", str(files / "p3.json"), "unit-circle", "fp3.csv",
                   outdir=files) == 0
    capsys.readouterr()
    k_p = identity_report(p3, unit_circle(512), nodes=1024).k_p
    t, lift = np.loadtxt(files / "fp3.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(t, k_p.t_nodes) and np.array_equal(lift, k_p.lift_nodes)


def test_cli_fingerprint_saved_maps_reproducible(files, capsys):
    saved = []
    for outdir in (files / "a", files / "b"):
        outdir.mkdir()
        args = ("fingerprint", str(files / "p2.json"), "unit-circle", "fp.csv", "--save-maps")
        assert run_cli(*args, outdir=outdir) == 0
        maps = json.loads(capsys.readouterr().out)["solved_maps"]
        assert sorted(maps) == [
            "base_exterior", "base_interior", "curve_exterior", "curve_interior",
        ]
        saved.append({name: (outdir / f"fp_map_{name}.json").read_bytes() for name in maps})
    assert saved[0] == saved[1]
    em = lio.solved_map_from_dict(json.loads(saved[0]["base_exterior"]))
    assert em.a == pytest.approx(1.0, abs=1e-12)


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


def test_cli_properness_open_curve_exits_2(files, capsys):
    (files / "open.json").write_text(json.dumps(
        {"closed": False, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}))
    assert run_cli("properness", str(files / "p2.json"), str(files / "open.json"),
                   outdir=files) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "PreconditionError", "message": "the base curve must be closed"}


@pytest.mark.parametrize("closed", ["false", "no", 0, None])
def test_cli_curve_closed_flag_must_be_a_boolean(files, capsys, closed):
    """A closed flag that is not a JSON boolean exits 2 instead of reading as
    closed; a curve without the flag is closed."""
    square = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    (files / "sq.json").write_text(json.dumps({"closed": closed, "points": square}))
    assert run_cli("properness", str(files / "p2.json"), str(files / "sq.json"),
                   outdir=files) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "PreconditionError",
        "message": f'curve JSON "closed" must be true or false, got {json.dumps(closed)}'}
    assert lio.curve_from_dict({"points": square}).closed


@pytest.mark.parametrize("curve, poly, message", [
    # a misspelt "closed" loaded as a closed curve before the exact-key rule
    ({"close": False, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}, None,
     "unknown curve JSON keys: ['close']"),
    (None, {"coeffs": [[-0.1, 0], [0, 0], [1, 0]], "degree": 2},
     "unknown polynomial JSON keys: ['degree']"),
])
def test_cli_unknown_file_key_exits_2(files, capsys, curve, poly, message):
    args = [str(files / "p2.json"), "unit-circle"]
    for i, payload in enumerate((poly, curve)):
        if payload is not None:
            args[i] = str(files / "extra.json")
            (files / "extra.json").write_text(json.dumps(payload))
    assert run_cli("properness", *args, outdir=files) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err) == {"error": "PreconditionError", "message": message}


def test_repeated_closing_point_is_dropped(files):
    """A closed curve whose last point repeats its first loads without it,
    from points or from a file, and properness reads it as before."""
    circle = unit_circle(64)
    repeated = np.append(circle.points, circle.points[0])
    path = files / "repeated.json"
    path.write_text(json.dumps({"points": [[z.real, z.imag] for z in repeated]}))
    for loaded in (SampledCurve(repeated), lio.load_curve(path)):
        assert len(loaded) == 64 and np.array_equal(loaded.points, circle.points)
        for p in (Polynomial([-0.1, 0, 1]), Polynomial([-4, 0, 1])):
            assert is_proper(p, loaded) == is_proper(p, circle)
    assert is_proper(Polynomial([-0.1, 0, 1]), circle)
    assert not is_proper(Polynomial([-4, 0, 1]), circle)


def test_cli_properness_pinned_improper_pair(files, capsys, criterion6_poly):
    path = files / "pinned.json"
    lio.save_polynomial(criterion6_poly(20, 47), path)
    assert run_cli("properness", str(path), "unit-circle", outdir=files) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["proper"] is False and out["methods_agree"] is True


@pytest.mark.parametrize("key", ["oracle_nx", "oracle_ny"])
def test_cli_rejects_removed_oracle_keys(files, capsys, key):
    cfg = files / "cfg.json"
    cfg.write_text(json.dumps({key: 96}))
    argv = ["--config", str(cfg), "--outdir", str(files), "properness",
            str(files / "p2.json"), "unit-circle"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError" and key in err["message"]


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


@pytest.mark.parametrize("argv", [
    ["counterexample", "family", "--n", "5", "--outdir", "x"],  # a global option after
    ["roots"],
    ["counterexample", "bogus"],
    ["counterexample", "family", "--n", "abc"],
], ids=["unknown option", "missing positional", "bad action", "non-integer --n"])
def test_cli_usage_errors_emit_json(files, capsys, argv):
    assert run_cli(*argv, outdir=files / "out") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "PreconditionError"
    assert not (files / "out").exists()


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["counterexample", "--help"])
    assert info.value.code == 0 and "family" in capsys.readouterr().out


def test_cli_outdir_that_is_a_file(files, capsys):
    blocker = files / "blocker"
    blocker.write_text("")
    before = sorted(files.iterdir())
    assert run_cli("counterexample", "family", "--n", "5", outdir=blocker) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "PreconditionError" and "output directory" in record["message"]
    assert sorted(files.iterdir()) == before and blocker.read_text() == ""


def test_cli_output_that_is_a_directory(files, capsys):
    (files / "sub").mkdir()
    assert run_cli("fingerprint", str(files / "p2.json"), "unit-circle", "sub", outdir=files) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "PreconditionError" and "is a directory" in record["message"]
    assert not list(files.glob("sub*.csv"))


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


def test_cli_outdir_env_override(files, capsys, monkeypatch):
    """--outdir beats $LEMNISCATES_OUTDIR, which beats the config's outdir."""
    cfg = files / "cfg.json"
    cfg.write_text(json.dumps({"outdir": str(files / "cfgout")}))
    monkeypatch.setenv("LEMNISCATES_OUTDIR", str(files / "envout"))
    argv = ["counterexample", "family", "--n", "5"]
    assert main(["--config", str(cfg), *argv]) == 0
    assert (files / "envout" / "f5.json").exists()
    (files / "envout" / "f5.json").unlink()
    assert main(["--config", str(cfg), "--outdir", str(files / "cliout"), *argv]) == 0
    assert (files / "cliout" / "f5.json").exists()
    assert not list(files.glob("envout/*")) and not (files / "cfgout").exists()
    capsys.readouterr()


def test_runconfig_validation(tmp_path):
    with pytest.raises(PreconditionError):
        RunConfig(nodes=100).validate()
    with pytest.raises(PreconditionError):
        RunConfig(nodes=8192).validate()
    with pytest.raises(PreconditionError):
        RunConfig(grid_mod_min=-1.0).validate()
    cfg = tmp_path / "bad.json"
    for text in [
        json.dumps({"not_a_key": 1}),
        json.dumps({"grid_mod_min": "nan"}),
        json.dumps({"grid_mod_min": True}),
        json.dumps({"grid_mod_min": None}),
        '{"grid_mod_min": NaN}',
        '{"grid_mod_min": Infinity}',
        json.dumps({"grid_mod_min": 9.0}),  # above grid_mod_max
        json.dumps({"nodes": 1024.5}),
        json.dumps({"grid_args": "360"}),
        json.dumps({"outdir": 3}),
        json.dumps({"seed": 1}),
        json.dumps({"oracle_nx": 96}),
        json.dumps({"oracle_ny": 96}),
        # the tolerances the acceptance suite pins are not configurable
        json.dumps({"close_tol_factor": 1e-6}),
        json.dumps({"table_tol": 1e-3}),
        json.dumps({"modulus_rtol": 1e-6}),
        # sample counts, the trace step and the SVG width are the library's
        json.dumps({"samples": 512}),
        json.dumps({"samples_per_lap": 1024}),
        json.dumps({"trace_step": 0.01}),
        json.dumps({"svg_width": 800}),
        json.dumps({"grid_mod_min": 0.16})[:-1],
        json.dumps([1, 2]),
    ]:
        cfg.write_text(text)
        with pytest.raises(PreconditionError):
            RunConfig.load(cfg)
    with pytest.raises(PreconditionError):
        RunConfig.load(tmp_path / "missing.json")
    with pytest.raises(PreconditionError):
        RunConfig(grid_mod_min=float("nan")).validate()
    cfg.write_text(json.dumps({"nodes": 512.0, "grid_mod_max": 8, "outdir": "out"}))
    loaded = RunConfig.load(cfg)
    assert loaded.nodes == 512 and isinstance(loaded.nodes, int)
    assert loaded.grid_mod_max == 8.0 and isinstance(loaded.grid_mod_max, float)


@pytest.mark.parametrize("x", [1e200, 1e308])
def test_cli_refuses_a_curve_vertex_beyond_the_kernels_range(files, capsys, x):
    """A base curve with one vertex at (x, 0), where products of coordinate
    differences overflow, is refused when it is read: exit 2 with one JSON
    record and no numpy warning."""
    points = np.exp(2j * np.pi * np.arange(64) / 64)
    points[16] = x
    (files / "big.json").write_text(json.dumps({"points": [[z.real, z.imag] for z in points]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("properness", str(files / "p2.json"), str(files / "big.json"),
                       outdir=files)
    err = capsys.readouterr().err
    assert code == 2 and not caught and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "PreconditionError"


def test_cli_entrypoint_subprocess(files):
    r = subprocess.run(
        [sys.executable, "-m", "lemniscates.cli", "--outdir", str(files),
         "roots", str(files / "f4.json")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["degree"] == 4
