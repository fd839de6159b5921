import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maxkernel import _piecewise, classify, discretize, matrixrep, sturm
from maxkernel.cli import main
from maxkernel.symbols import Step, TrigPoly, symbol_to_json

AFFINE = '{"kind":"ppoly","breakpoints":[1.0],"pieces":[[1.0,-1.0]]}'
TWO_STEP = '{"kind":"step","breakpoints":[1.0,2.0],"values":[2.0,1.0]}'
INV_TAIL = '{"kind":"ppoly","breakpoints":[1.0],"pieces":[[]],"tail":[[1.0,-1]]}'
# breakpoint 1/3 is a node of no uniform grid
OFF_GRID_STEP = ('{"kind":"step","breakpoints":[0.3333333333333333,1],'
                 '"values":[2,1]}')


def test_classify_csv(capsys):
    assert main(["classify", "--symbol", AFFINE, "--p", "0.4,1.0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# config: ")
    cfg = json.loads(out[0].split("# config: ", 1)[1])
    assert cfg["command"] == "classify" and cfg["p"] == [0.4, 1.0]
    assert out[1] == "p,verdict,criterion"
    assert out[2].startswith("0.4,out,")
    assert out[3].startswith("1.0,in,")


def test_classify_json(capsys):
    assert main(["classify", "--symbol", AFFINE, "--p", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["format"] == "json"
    assert doc["results"]["operator"]["bounded"] == "in"
    assert doc["results"]["schatten"][0]["verdict"] == "in"


def test_spectrum_step_exact(capsys):
    assert main(["spectrum", "--symbol", TWO_STEP,
                 "--method", "step_exact"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    top = float(rows[0].split(",")[1])
    assert top == pytest.approx(2.618033988749895, rel=1e-12)


def test_off_grid_step_converges(capsys):
    assert main(["spectrum", "--symbol", OFF_GRID_STEP, "--method",
                 "galerkin", "--K", "2", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]["svals"]
    exact = discretize.step_exact_spectrum(
        Step([0.3333333333333333, 1.0], [2.0, 1.0])).svals
    assert max(abs(g - e) for g, e in zip(got, exact)) <= 1e-12 * exact[0]


def test_hankel_refuses_origin_divergence_at_once(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(_piecewise, "quad", counted)
    monkeypatch.setattr(matrixrep, "quad", counted)
    laurent = ('{"kind":"ppoly","breakpoints":[1.0],"pieces":[[-1.0,3.0]],'
               '"lowest":[-1]}')
    assert main(["hankel", "--symbol", laurent, "--K", "32"]) == 3
    assert "not integrable near the origin" in capsys.readouterr().err
    assert calls == []


def test_spectrum_compare(capsys):
    assert main(["spectrum", "--symbol", AFFINE, "--compare", "--K", "4",
                 "--n", "256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "n,sturm,galerkin,rel_dev"
    assert lines[-1].startswith("max_rel_deviation,")
    assert float(lines[-1].split(",")[-1]) < 1e-3


def test_symbol_from_file(tmp_path, capsys):
    p = tmp_path / "sym.json"
    p.write_text(AFFINE)
    assert main(["classify", "--symbol", str(p), "--p", "1"]) == 0
    assert "in" in capsys.readouterr().out


def test_output_file_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["spectrum", "--symbol", AFFINE, "--n", "128",
                     "--K", "6", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sturm_json(capsys):
    assert main(["sturm", "--symbol", AFFINE, "--K", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in doc["results"]] == [0, 1]
    assert doc["results"][0]["lambda"] == pytest.approx(0.4052847345693511)


def test_hankel_json(capsys):
    assert main(["hankel", "--symbol", AFFINE, "--K", "8",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["results"]["coverage"] <= 1
    assert doc["results"]["svals"][0] > 0


def test_expdemo(capsys):
    assert main(["expdemo", "--N", "1,4", "--p", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "N,p,norm,reference,ratio"
    assert len(lines) == 4


def test_verify_single_family(capsys):
    assert main(["verify", "--only", "kronecker"]) == 0
    out = capsys.readouterr().out
    assert "PASS kronecker-det" in out
    assert "1/1 checks passed" in out


def test_verify_family_list(capsys):
    assert main(["verify", "--only", "positivity,kronecker"]) == 0
    out = capsys.readouterr().out
    assert "PASS kronecker-det" in out
    assert "PASS positivity" in out
    assert "2/2 checks passed" in out


def test_verify_unknown_family(capsys):
    assert main(["verify", "--only", "nonsense"]) == 2
    assert main(["verify", "--only", "kronecker,nonsense"]) == 2
    assert main(["verify", "--only", ","]) == 2


def test_repeated_main_calls_match(capsys):
    # the parser is built once per process; a usage error in between must
    # not change what a later call prints or returns
    calls = [["classify", "--symbol", AFFINE, "--p", "2,0.75"],
             ["classify", "--symbol", AFFINE, "--p"],
             ["sturm", "--symbol", AFFINE, "--K", "2", "--format", "json"],
             ["nonsense"], ["hankel", "--help"]]
    first = []
    for argv in calls:
        code = main(argv)
        first.append((code, capsys.readouterr()))
    assert [code for code, _ in first] == [0, 2, 0, 2, 0]
    for argv, want in zip(calls[::-1], first[::-1]):
        assert (main(argv), capsys.readouterr()) == want


def test_trig_classify_makes_no_quad_call(monkeypatch, tmp_path):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(_piecewise, "quad", counted)
    monkeypatch.setattr(classify, "quad", counted)
    complex_trig = TrigPoly(1.0, [0.3 - 0.2j, -0.5 + 0.4j, 0.8 + 0.1j,
                                  0.2 - 0.6j, -0.4 - 0.3j])
    real_trig = TrigPoly(1.3, [0.2 - 0.1j, 0.4 + 0.3j, 0.7, 0.4 - 0.3j,
                               0.2 + 0.1j])
    for s in (complex_trig, real_trig):
        out = tmp_path / "classify.json"
        assert main(["classify", "--symbol", symbol_to_json(s), "--p",
                     "2,1,0.75,0.4", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["results"]["schatten"]
        assert [r["criterion"] for r in doc] == [
            "xp-norm", "yp-variation", "yp-variation",
            "smooth-slope-exclusion"]
    assert calls == []


def test_parse_error_exit(capsys):
    assert main(["classify", "--symbol", "not json", "--p", "1"]) == 2
    for text in ("[1,2]", '"step"', "3", "null"):  # JSON, not an object
        assert main(["classify", "--symbol", text, "--p", "1"]) == 2
        assert "must be an object" in capsys.readouterr().err
    assert main(["classify", "--symbol", AFFINE, "--p", "one"]) == 2
    for p in ("nan", "inf", "0", "-1", "1,nan"):
        assert main(["classify", "--symbol", AFFINE, "--p", p]) == 2
        assert main(["expdemo", "--N", "1", "--p", p]) == 2
        assert "error: exponents must be positive" in capsys.readouterr().err
    for cmd in ("sturm", "spectrum", "hankel"):
        assert main([cmd, "--symbol", AFFINE, "--K", "0"]) == 2
        assert "error: argument --K: must be at least 1" in \
            capsys.readouterr().err
        assert main([cmd, "--symbol", AFFINE, "--K", "abc"]) == 2
        assert "error: argument --K: invalid" in capsys.readouterr().err
    assert main(["classify", "--symbol", AFFINE, "--format", "xml"]) == 2
    assert "error: argument --format: invalid choice" in \
        capsys.readouterr().err
    for N in ("a", "0", "1,-4", "1,,2"):
        assert main(["expdemo", "--N", N]) == 2
        assert main(["spectrum", "--symbol", AFFINE, "--method", "exp",
                     "--N", N]) == 2
        assert "error: argument --N:" in capsys.readouterr().err
    for args in (["spectrum", "--n", "0"], ["spectrum", "--n", "-3"],
                 ["hankel", "--n", "0"], ["hankel", "--n", "-2"]):
        assert main(args[:1] + ["--symbol", AFFINE] + args[1:]) == 2
        assert "error: argument --n: must be at least 1" in \
            capsys.readouterr().err
    for tol in ("nan", "-1", "0", "inf"):
        assert main(["spectrum", "--symbol", AFFINE, "--tol", tol]) == 2
        assert main(["verify", "--only", "kronecker", "--tol", tol]) == 2
        assert "error: argument --tol: must be positive and finite" in \
            capsys.readouterr().err


def test_loose_symbol_json_exit(capsys):
    for values in ("[[1]]", "[[1,2,3]]", '["1"]', "[true]", "[[1,null]]"):
        step = f'{{"kind":"step","breakpoints":[1],"values":{values}}}'
        assert main(["classify", "--symbol", step, "--p", "1"]) == 2
        assert "expected a number or [re, im]" in capsys.readouterr().err
    for periodic in ('"false"', "0", "null"):
        trig = f'{{"kind":"trig","period":1,"coeffs":[1],' \
               f'"periodic":{periodic}}}'
        assert main(["classify", "--symbol", trig, "--p", "1"]) == 2
        assert "periodic must be true or false" in capsys.readouterr().err
    for sym in ('{"kind":"step","breakpoints":"12","values":[1,2]}',
                '{"kind":"step","breakpoints":[true],"values":[1]}',
                '{"kind":"sampled","grid":"123","values":[1,2,3]}',
                '{"kind":"trig","period":true,"coeffs":[1]}',
                '{"kind":"trig","period":"1","coeffs":[1]}',
                '{"kind":"ppoly","breakpoints":[1],"pieces":[[1]],'
                '"lowest":[true]}',
                '{"kind":"ppoly","breakpoints":[1],"pieces":[[]],'
                '"tail":[[1,"-2"]]}'):
        assert main(["classify", "--symbol", sym, "--p", "1"]) == 2
        assert "expected a real number" in capsys.readouterr().err
    deep = "[" * 100000 + "]" * 100000
    assert main(["classify", "--symbol", deep, "--p", "1"]) == 2
    assert "error: cannot parse symbol" in capsys.readouterr().err
    big = '{"kind":"step","breakpoints":[1],"values":[1' + "0" * 400 + ']}'
    assert main(["classify", "--symbol", big, "--p", "1"]) == 2
    assert "error: cannot parse symbol" in capsys.readouterr().err
    ok = '{"kind":"step","breakpoints":[1],"values":[[1,2]]}'
    assert main(["classify", "--symbol", ok, "--p", "1"]) == 0


@st.composite
def _symbol_dicts(draw):
    """Valid symbol JSON objects of every kind, breakpoints on a 1/8 grid."""
    bp = [x / 8 for x in sorted(draw(st.sets(st.integers(1, 40),
                                             min_size=2, max_size=4)))]
    nums = st.lists(st.integers(-8, 8).map(lambda k: k / 4),
                    min_size=len(bp), max_size=len(bp))
    kind = draw(st.sampled_from(["step", "ppoly", "trig", "sampled"]))
    if kind == "step":
        return {"kind": kind, "breakpoints": bp, "values": draw(nums)}
    if kind == "ppoly":
        return {"kind": kind, "breakpoints": bp,
                "pieces": [[v, 1.0] for v in draw(nums)],
                "lowest": [draw(st.integers(-1, 1)) for _ in bp],
                "tail": [[1.0, -2], [0.5, -3]]}
    if kind == "trig":
        return {"kind": kind, "period": bp[-1], "coeffs": draw(nums)[:1] * 3,
                "periodic": draw(st.booleans())}
    return {"kind": kind, "grid": bp, "values": draw(nums),
            "interpolation": draw(st.sampled_from(["pc", "pl"]))}


def _paths(d):
    """Every field, list element and pair element of a symbol object."""
    out = []
    for k, v in d.items():
        out.append((k,))
        for i, e in enumerate(v if isinstance(v, list) else []):
            out.append((k, i))
            if isinstance(e, list):
                out += [(k, i, j) for j in range(len(e))]
    return out


REAL_FIELDS = ("breakpoints", "grid", "period", "lowest")
_loose = st.one_of(st.sampled_from(["1", "0.5", "", True, False, None, {},
                                    [], [[1, 2]], [[[]]]]),
                   st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(_symbol_dicts(), st.data())
def test_symbol_json_fuzz_exit(d, data):
    path = data.draw(st.sampled_from(_paths(d)))
    bad = data.draw(_loose)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["classify", "--symbol", json.dumps(d), "--p", "2"])
    assert code in (0, 2, 3)
    real = path[0] in REAL_FIELDS or path[0] == "tail" and path[2:] == (1,)
    if real and isinstance(bad, (str, bool)):
        assert code == 2


def test_non_finite_symbol_exit(capsys):
    nan_step = '{"kind":"step","breakpoints":[NaN],"values":[1]}'
    assert main(["classify", "--symbol", nan_step, "--p", "1",
                 "--format", "json"]) == 2
    assert "must be finite" in capsys.readouterr().err
    # the pl slope (-2e308) / 1e-15 overflows when the symbol is built
    steep = ('{"kind":"sampled","grid":[1,1.000000000000001],'
             '"values":[1e308,-1e308]}')
    assert main(["classify", "--symbol", steep, "--p", "1"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_non_integer_power_exit(capsys):
    tail = '{"kind":"ppoly","breakpoints":[1],"pieces":[[]],"tail":[[1.0,-2.5]]}'
    assert main(["classify", "--symbol", tail, "--p", "1",
                 "--format", "json"]) == 2
    assert "tail powers must be integers" in capsys.readouterr().err


def test_unwritable_out_exit(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "res.csv"
    assert main(["classify", "--symbol", AFFINE, "--p", "1",
                 "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_numeric_error_exit(capsys):
    # unbounded operator: truncation cannot succeed
    assert main(["spectrum", "--symbol", INV_TAIL]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    # cell integrals overflow; the last cell's midpoint overflowed too
    huge_step = '{"kind":"step","breakpoints":[1e308],"values":[1e308]}'
    assert main(["spectrum", "--symbol", huge_step]) == 3
    assert "non-finite cell integral" in capsys.readouterr().err
    # |phi|^2 overflows, so the x_p norm and the window coverage are NaN
    huge = '{"kind":"ppoly","breakpoints":[1],"pieces":[[1e300,1e300]]}'
    assert main(["classify", "--symbol", huge, "--p", "2,1,0.4",
                 "--format", "json"]) == 3
    assert "x_p norm is NaN" in capsys.readouterr().err
    assert main(["hankel", "--symbol", huge, "--format", "json"]) == 3
    assert "coverage is NaN" in capsys.readouterr().err
    # T(x) ** 1.5 in the x_p integral raises OverflowError
    far_step = '{"kind":"step","breakpoints":[1e308],"values":[-1]}'
    assert main(["classify", "--symbol", far_step, "--p", "3"]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_out_of_memory_exit(monkeypatch, capsys):
    def exhausted(s, K):
        raise MemoryError("Unable to allocate 1.75 TiB")
    monkeypatch.setattr(sturm, "eigenvalues", exhausted)
    assert main(["sturm", "--symbol", AFFINE, "--K", "100000"]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: out of memory")


def test_exp_method_requires_N(capsys):
    assert main(["spectrum", "--symbol", AFFINE, "--method", "exp"]) == 2
    assert main(["spectrum", "--symbol", AFFINE, "--method", "exp",
                 "--N", "4", "--K", "6"]) == 0


_EVERY_OUTPUT = {
    "classify": ["classify", "--symbol", AFFINE, "--p", "2,0.75,0.4"],
    "spectrum": ["spectrum", "--symbol", AFFINE, "--n", "64", "--K", "4"],
    "spectrum-sturm": ["spectrum", "--symbol", AFFINE, "--method", "sturm",
                       "--K", "4"],
    "spectrum-compare": ["spectrum", "--symbol", AFFINE, "--compare",
                         "--n", "64", "--K", "4"],
    "spectrum-step-exact": ["spectrum", "--symbol", TWO_STEP, "--method",
                            "step_exact"],
    "spectrum-off-grid-step": ["spectrum", "--symbol", OFF_GRID_STEP,
                               "--K", "2"],
    "sturm": ["sturm", "--symbol", AFFINE, "--K", "4"],
    "hankel": ["hankel", "--symbol", AFFINE, "--K", "8"],
    "expdemo": ["expdemo", "--N", "1,4", "--p", "1.0"],
    "verify": ["verify", "--only", "kronecker"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("job", sorted(_EVERY_OUTPUT))
def test_every_output_reruns_byte_identically(job, fmt, capsys):
    argv = _EVERY_OUTPUT[job] + ["--format", fmt]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        # a check's wall time is the one field that may differ
        outs.append(re.sub(r'(?<=\[)[0-9.]+(?=s\])|(?<="elapsed": )[0-9.e-]+',
                           "0", capsys.readouterr().out))
    assert outs[0] == outs[1]
    if fmt == "json":
        cfg = json.loads(outs[0])["config"]
    else:
        head = outs[0].splitlines()[0]
        assert head.startswith("# config: ")
        cfg = json.loads(head[len("# config: "):])
    assert cfg["command"] == argv[0] and cfg["format"] == fmt
