import hashlib
import io
import json
from contextlib import redirect_stdout
from importlib import resources

import jsonschema
import pytest

from homopix.cli import PALETTE, run


def invoke(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def invoke_json(*argv):
    code, out = invoke(*argv)
    return code, json.loads(out) if out else None


def schema(name):
    text = resources.files("homopix").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


@pytest.fixture
def order_file(tmp_path):
    path = tmp_path / "order.json"
    code, _ = invoke(
        "gen", "--kind", "generator", "--name", "order_function", "--out", str(path)
    )
    assert code == 0
    return str(path)


@pytest.fixture
def ab_file(tmp_path):
    path = tmp_path / "ab.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "grid",
                "d": 1,
                "k": 2,
                "m": 2,
                "values": [1, 2],
            }
        )
    )
    return str(path)


def test_gen_output_validates_against_model_schema(order_file, tmp_path):
    jsonschema.validate(json.loads(open(order_file).read()), schema("model.schema.json"))
    grid = tmp_path / "g.json"
    code, _ = invoke(
        "gen", "--kind", "grid", "--d", "2", "--k", "2", "--m", "3",
        "--seed", "4", "--out", str(grid),
    )
    assert code == 0
    jsonschema.validate(json.loads(grid.read_text()), schema("model.schema.json"))
    homog = tmp_path / "h.json"
    code, _ = invoke(
        "gen", "--kind", "homogeneous", "--d", "2", "--k", "2", "--l", "2",
        "--seed", "4", "--out", str(homog),
    )
    assert code == 0
    jsonschema.validate(json.loads(homog.read_text()), schema("model.schema.json"))


def test_eval_and_envelope(order_file):
    code, report = invoke_json("eval", "--in", order_file, "--at", "1/4,3/4")
    assert code == 0
    jsonschema.validate(report, schema("report.schema.json"))
    assert report["result"]["color"] == 1
    assert report["config"]["command"] == "eval"
    assert report["config"]["at"] == "1/4,3/4"


def test_mu_distribution(ab_file):
    code, report = invoke_json("mu", "--in", ab_file, "--n", "2")
    assert code == 0
    jsonschema.validate(report, schema("report.schema.json"))
    jsonschema.validate(report["result"], schema("distribution.schema.json"))
    masses = {
        tuple(e["model"]["values"]): (e["mu"]["num"], e["mu"]["den"])
        for e in report["result"]["entries"]
    }
    assert masses == {(1, 1): (1, 4), (1, 2): (1, 2), (2, 2): (1, 4)}


def test_sample_report_schema(ab_file):
    code, report = invoke_json(
        "sample", "--in", ab_file, "--n", "2", "--trials", "50", "--seed", "3"
    )
    assert code == 0
    jsonschema.validate(report["result"], schema("sample_report.schema.json"))
    assert sum(c["count"] for c in report["result"]["counts"]) == 50


def test_ramsey_bound_value(tmp_path):
    code, report = invoke_json(
        "ramsey-bound", "--kind", "r", "--l", "1", "--s", "2", "--d", "1", "--k", "2"
    )
    assert code == 0
    jsonschema.validate(report["result"], schema("bound.schema.json"))
    assert report["result"]["value"] == "3"
    code, report = invoke_json(
        "ramsey-bound", "--kind", "delta", "--l", "1", "--s", "2", "--d", "1", "--k", "2"
    )
    assert report["result"]["value"] == "1/3"


def test_pixelate_certificate(order_file):
    code, report = invoke_json(
        "pixelate", "--in", order_file, "--epsilon", "1/2", "--nmax", "2",
        "--seed", "7",
    )
    assert code == 0
    jsonschema.validate(report, schema("report.schema.json"))
    jsonschema.validate(report["result"], schema("certificate.schema.json"))
    assert report["result"]["verdict"] == "pass"
    assert report["result"]["l"] == 6
    assert report["result"]["distance"] == {"num": 0, "den": 1}


def test_certify_exit_codes(order_file, tmp_path):
    # the flattened order spec fails strict certification -> exit 1
    code, flat = invoke_json("quantize", "--in", order_file, "--l", "1")
    assert code == 0
    spec_path = tmp_path / "flat.json"
    spec_path.write_text(json.dumps(flat["result"]))
    code, report = invoke_json(
        "certify", "--in", str(spec_path), "--against", order_file, "--nmax", "2"
    )
    assert code in (0, 1)
    if report["result"]["verdict"] == "fail":
        assert code == 1


def test_certify_report_bytes(tmp_path, monkeypatch):
    # sha256 of the whole report, exact and empirical mode; relative paths
    # keep the echoed config fixed.  Recorded before the command shared the
    # certificate table serializer with certificate_to_json.
    monkeypatch.chdir(tmp_path)
    invoke("gen", "--kind", "generator", "--name", "order_function", "--out", "order.json")
    invoke(
        "gen", "--kind", "generator", "--name", "threshold",
        "--params", '{"c": "1"}', "--out", "th.json",
    )
    _, flat = invoke_json("quantize", "--in", "order.json", "--l", "2")
    (tmp_path / "spec.json").write_text(json.dumps(flat["result"]))
    expected = {
        "order.json": "ff7e986ce5f02a518b66773aa2e19b0c42fd5d78f1972fffab6dceb69bc3f4cd",
        "th.json": "08517c857d78cc38652cfec492a9ec478c5264f4a29ce1a342a56a930dfdd671",
    }
    extra = {"order.json": [], "th.json": ["--trials", "50", "--seed", "5"]}
    for against, digest in expected.items():
        code, out = invoke(
            "certify", "--in", "spec.json", "--against", against, "--nmax", "2",
            *extra[against],
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_and_distance_mc_report_bytes(tmp_path, monkeypatch):
    # sha256 of whole `sample` and `distance --mc` reports on a threshold,
    # specs, a dyadic grid and a 2-D grid.  Recorded while the samplers
    # still evaluated Fraction points, before they colored integer words.
    monkeypatch.chdir(tmp_path)
    gen = {
        "order.json": ("order_function", None),
        "th.json": ("threshold", '{"c": "3/4"}'),
        "dy.json": ("dyadic_alternating", '{"depth_cap": 3}'),
        "rh.json": ("random_homogeneous", '{"l": 2, "d": 2, "k": 3, "seed": 4}'),
    }
    for out, (name, params) in gen.items():
        extra = ["--params", params] if params else []
        invoke("gen", "--kind", "generator", "--name", name, *extra, "--out", out)
    (tmp_path / "grid.json").write_text(json.dumps({
        "format_version": 1, "kind": "grid", "d": 2, "k": 2, "m": 3,
        "values": [1, 2, 2, 1, 1, 2, 2, 2, 1],
    }))
    expected = {
        "sample th.json 3 2000 7":
            "e89ae60bd550ea370ab426e8b7fffc7a89a221b8536448c87d51db671035bf14",
        "sample order.json 3 1000 3":
            "f674721e3bd09f6b1c878d7eb3917dc8a817f87f7411bfe7be18f0c98a5eb732",
        "sample dy.json 2 2000 1":
            "ec92d13d9cd842d844749cbdca484db7a975fb79702f13860e196c11048fe38d",
        "sample rh.json 2 1000 2":
            "7224e2d46b4197724b751be8a114549354ca88eed791e9c8fd02adee37482638",
        "sample grid.json 2 1000 4":
            "8dccbd1504057f46f1414ac955a2065308b1904d66563f0cc4433d11ef415544",
        "distance th.json grid.json 3000 5":
            "9c425df73aa916d453a8508de411a88ec4629153cce4503a6bf27693d1839ebe",
        "distance order.json rh.json 3000 6":
            "a4547e8fb0904c21d9ffa5eeda491c7b122ec6bdc4aac0da7808966f52f6e201",
    }
    for case, digest in expected.items():
        command, first, second, trials, seed = case.split()
        if command == "sample":
            argv = ["sample", "--in", first, "--n", second]
        else:
            argv = ["distance", "--mc", "--in", first, "--in2", second]
        code, out = invoke(*argv, "--trials", trials, "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, case


def test_inlay_sample_and_appclose_report_bytes(tmp_path, monkeypatch):
    # sha256 of whole `inlay-sample` and `appclose` reports, the two that
    # print a dense inlay model, on grids, specs, generators and threshold,
    # homogeneous and not.  Recorded while sample_random_inlay still
    # evaluated every entry of the dense model to decide homogeneity.
    monkeypatch.chdir(tmp_path)
    gen = {
        "order.json": ("order_function", None),
        "th.json": ("threshold", '{"c": "3/4"}'),
        "dy.json": ("dyadic_alternating", '{"depth_cap": 3}'),
        "rh.json": ("random_homogeneous", '{"l": 2, "d": 2, "k": 3, "seed": 4}'),
    }
    for out, (name, params) in gen.items():
        extra = ["--params", params] if params else []
        invoke("gen", "--kind", "generator", "--name", name, *extra, "--out", out)
    (tmp_path / "grid.json").write_text(json.dumps({
        "format_version": 1, "kind": "grid", "d": 2, "k": 2, "m": 3,
        "values": [1, 1, 2, 1, 1, 2, 2, 2, 2],
    }))
    expected = {
        "inlay-sample --in grid.json --l 3 --s 2 --seed 1":
            "61e1d1a3d1aebae921c4b608e5c16e4f308dacee9709209dea897608cbbd3779",
        "inlay-sample --in grid.json --l 2 --s 2 --seed 6":
            "9dd0989e5f765b9812cb696ff1dcd004eefe359ad6c3b3dbcea00756234bb379",
        "inlay-sample --in th.json --l 2 --s 2 --seed 2":
            "75ff91dda4ae08752fb9333260437b2d3be723b4afe37539f85efd8bd94e59c7",
        "inlay-sample --in th.json --l 2 --s 2 --seed 4":
            "6b1aca992164f18b99e85b062b976881adfa1d1fe40c99e724874fc4c497cb33",
        "inlay-sample --in dy.json --l 2 --s 2 --seed 1":
            "f1081e83baadd21d208fdba1529c650a6903dda7202268e70dce44a7e1f5d7e3",
        "inlay-sample --in rh.json --l 2 --s 3 --seed 3 --index 5":
            "f6e6b37ed03587da4d052ac861482b430478ecf769524f5c19369f95726bddd6",
        "inlay-sample --in dy.json --l 2 --s 2 --seed 4 --alpha 0,1/2 --beta 1/2,1":
            "fd78f580fec37a89ee77635870fd1038aeb4aa045fdcf9b827382b2f163eabdf",
        "inlay-sample --in order.json --l 1 --s 3 --seed 5":
            "6e55b4a2e9da5b763ace3381b3097ce9822131563c606567e8e45dab3ad7cb67",
        "appclose --in order.json --l 2 --s 2 --trials 4 --seed 3":
            "bbb6cfb62ff2bde1926bb39d3640964b27aca882cb900d934ed0d7311f12241f",
        "appclose --in grid.json --l 3 --s 2 --trials 6 --seed 1":
            "96690075db889b0b47714ecc477ba3fd660d7b514efa183248c975a298d18c95",
        "appclose --in th.json --l 3 --s 2 --trials 8 --seed 2 --box-strategy dyadic":
            "eb667d949a48faa6b958b871e42c67f030d4ac045540d42b69d744278e5d6db9",
        "appclose --in rh.json --l 2 --s 2 --trials 4 --seed 5":
            "66eaada7ce08f1e125bf6f0c9cc3238918b094df01dfa88e8a11fa2b0d1309b7",
    }
    for case, digest in expected.items():
        code, out = invoke(*case.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, case


def test_threshold_exact_report_bytes(tmp_path, monkeypatch):
    # sha256 of whole exact `distance`, `quantize` and `pixelate` reports on
    # thresholds, against a grid and a spec in both argument orders, with
    # cuts whose denominators the grids do not divide.  Recorded while the
    # threshold's box areas were still clipped as polygons.
    monkeypatch.chdir(tmp_path)
    for out, c in [("th.json", "3/4"), ("th53.json", "5/3"), ("th12.json", "1/2"),
                   ("th43.json", "4/3")]:
        invoke("gen", "--kind", "generator", "--name", "threshold",
               "--params", json.dumps({"c": c}), "--out", out)
    invoke("gen", "--kind", "homogeneous", "--d", "2", "--k", "2", "--l", "3",
           "--seed", "4", "--out", "spec.json")
    (tmp_path / "grid.json").write_text(json.dumps({
        "format_version": 1, "kind": "grid", "d": 2, "k": 2, "m": 3,
        "values": [1, 2, 2, 1, 1, 2, 2, 2, 1],
    }))
    expected = {
        "distance --in th.json --in2 grid.json":
            "6bb7268d9625aeee201ed605f25fb9051e52413a0db417a5ff270fdb2142a687",
        "distance --in grid.json --in2 th.json":
            "b92c52a6e766fd25ceaf38e620829148161a3d769b65fe567df877865a2bc567",
        "distance --in th53.json --in2 spec.json":
            "aa14551c4a4a330f606107df06d602fa2ee927e1dcbcf65e461ee20a270d1532",
        "distance --in spec.json --in2 th.json":
            "5af1c36ce8f96da3b782440c96b9f590f1d9dbe6b1c5bddf3afa373bb855b7b4",
        "quantize --in th.json --l 2":
            "126a8e36627023a603ab61797867e8edc5c09f8343687b35b6dde56a79d0d916",
        "quantize --in th53.json --l 3":
            "d25e3136eebae5465170b600b9f68f210bfdd17d14a2dfcd638443fb3b390c98",
        "quantize --in th.json --l 7":
            "9a7999cc87a7f508cbc01ce5deb5b42a9ec07900a0c41e1199857c21d0bf9220",
        "pixelate --in th12.json --epsilon 1/2 --nmax 2 --seed 3":
            "91242c62462845818103dfa0fbe374e29bdf41cd771ef8db99cca5b6d829d7eb",
        "pixelate --in th43.json --epsilon 1/3 --nmax 2 --seed 1":
            "792c3de87d9aabbca55e5e71bb363320876f2037a9c7748a3a3e04dca93bd9b6",
        "pixelate --in th.json --epsilon 1/2 --nmax 2 --seed 2 --box-strategy dyadic":
            "aa275cd42248e20e5bed36f4ba967822326b360114ee491011322ad62400d77b",
    }
    for case, digest in expected.items():
        code, out = invoke(*case.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, case


def test_check_homog_failure_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "discrete",
                "d": 1,
                "k": 2,
                "m": 4,
                "values": [1, 2, 1, 2],
            }
        )
    )
    code, report = invoke_json("check-homog", "--in", str(bad), "--l", "2")
    assert code == 1
    assert report["result"]["homogeneous"] is False
    assert report["result"]["counterexample"] == {"first": [1], "second": [2]}


def test_usage_error_exit_code():
    code, _ = invoke("pixelate", "--epsilon", "1/2")
    assert code == 2


@pytest.mark.parametrize("params", ["{bad", "[1]"])
def test_gen_bad_params_exit_code(params, capsys):
    code, out = invoke(
        "gen", "--kind", "generator", "--name", "threshold", "--params", params
    )
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: --params")


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "kind": "grid"')
    code, _ = invoke("eval", "--in", str(bad), "--at", "1/2")
    assert code == 2


def test_unknown_field_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "grid",
                "d": 1,
                "k": 2,
                "m": 1,
                "values": [1],
                "extra": True,
            }
        )
    )
    code, _ = invoke("eval", "--in", str(bad), "--at", "1/2")
    assert code == 2


def test_byte_identical_reports(order_file):
    argv = [
        "pixelate", "--in", order_file, "--epsilon", "1/2", "--nmax", "2",
        "--seed", "11",
    ]
    code1, out1 = invoke(*argv)
    code2, out2 = invoke(*argv)
    assert (code1, out1) == (code2, out2)
    assert out1.encode() == out2.encode()


def test_appears_and_inlay_commands(tmp_path):
    r = tmp_path / "r.json"
    s = tmp_path / "s.json"
    r.write_text(
        json.dumps(
            {"format_version": 1, "kind": "discrete", "d": 1, "k": 2, "m": 2,
             "values": [1, 1]}
        )
    )
    s.write_text(
        json.dumps(
            {"format_version": 1, "kind": "discrete", "d": 1, "k": 2, "m": 3,
             "values": [1, 2, 1]}
        )
    )
    code, report = invoke_json("appears", "--needle", str(r), "--haystack", str(s))
    assert code == 0
    assert report["result"] == {"found": True, "witness": [1, 3]}
    code, report = invoke_json("inlay-find", "--in", str(s), "--l", "1", "--s", "2")
    assert code == 0
    assert report["result"]["selection"] == {"blocks": [[1, 3]]}
    # continuous selections serialize block entries as num/den rationals
    code, report = invoke_json(
        "inlay-sample", "--in", str(s), "--l", "1", "--s", "2", "--seed", "5"
    )
    assert code == 0
    block = report["result"]["selection"]["blocks"][0]
    assert all(set(x) == {"num", "den"} for x in block)
    assert set(report["result"]["box"]) == {"alpha", "beta"}


def test_ramsey_find_pentagon(tmp_path):
    import itertools

    cycle = {frozenset(((i % 5) + 1, (i + 1) % 5 + 1)) for i in range(5)}
    entries = [
        {"set": sorted(e), "color": "red" if frozenset(e) in cycle else "blue"}
        for e in itertools.combinations(range(1, 6), 2)
    ]
    path = tmp_path / "pent.json"
    path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "coloring",
                "d": 2,
                "vertices": [1, 2, 3, 4, 5],
                "entries": entries,
            }
        )
    )
    jsonschema.validate(json.loads(path.read_text()), schema("coloring.schema.json"))
    code, report = invoke_json("ramsey-find", "--in", str(path), "--mode", "mono", "--s", "3")
    assert code == 0
    assert report["result"] == {"found": False}


def test_ppm_raster(order_file, tmp_path):
    ppm = tmp_path / "o.ppm"
    argv = [
        "quantize", "--in", order_file, "--l", "2",
        "--ppm", str(ppm), "--ppm-size", "16", "--out", str(tmp_path / "q.json"),
    ]
    code, _ = invoke(*argv)
    assert code == 0
    data = ppm.read_bytes()
    assert data.startswith(b"P6\n16 16\n255\n")
    assert len(data) == len(b"P6\n16 16\n255\n") + 3 * 16 * 16
    # top-left pixel is above the diagonal -> color 1 region of the quantized map
    first = tuple(data[len(b"P6\n16 16\n255\n"):][:3])
    assert first in PALETTE
    code, _ = invoke(*argv)
    assert ppm.read_bytes() == data  # raster emission is deterministic too


def test_generator_params_cross_cli_exactly(tmp_path):
    th = tmp_path / "th.json"
    code, _ = invoke(
        "gen", "--kind", "generator", "--name", "threshold",
        "--params", '{"c": "1/2"}', "--out", str(th),
    )
    assert code == 0
    assert json.loads(th.read_text())["params"]["c"] == "1/2"
    code, rep = invoke_json("eval", "--in", str(th), "--at", "1/4,1/4")
    assert rep["result"]["color"] == 1
    code, rep = invoke_json("eval", "--in", str(th), "--at", "1/4,1/3")
    assert rep["result"]["color"] == 2


def test_appclose_with_base_file(order_file, tmp_path):
    code, q = invoke_json("quantize", "--in", order_file, "--l", "2")
    base = tmp_path / "base.json"
    base.write_text(json.dumps(q["result"]))
    code, rep = invoke_json(
        "appclose", "--in", order_file, "--base", str(base), "--s", "2",
        "--trials", "4", "--seed", "3",
    )
    assert code == 0
    assert rep["result"]["candidates"]
    first = rep["result"]["candidates"][0]
    assert first["within_bound"] is True
    assert first["distance"] == {"num": 0, "den": 1}


def test_instantiate_flatten_compatible_flow(order_file, tmp_path):
    code, q = invoke_json("quantize", "--in", order_file, "--l", "2")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(q["result"]))
    code, inst2 = invoke_json("instantiate", "--in", str(spec_path), "--t", "2")
    assert code == 0
    jsonschema.validate(inst2["result"], schema("model.schema.json"))
    a = tmp_path / "a.json"
    a.write_text(json.dumps(inst2["result"]))
    code, inst3 = invoke_json("instantiate", "--in", str(spec_path), "--t", "3")
    b = tmp_path / "b.json"
    b.write_text(json.dumps(inst3["result"]))
    code, rep = invoke_json("compatible", "--in", str(a), "--in2", str(b), "--l", "2")
    assert code == 0
    assert rep["result"]["compatible"] is True
    code, flat = invoke_json("flatten", "--in", str(spec_path))
    assert code == 0
    jsonschema.validate(flat["result"], schema("model.schema.json"))


def test_distance_mc_flag(order_file, ab_file, tmp_path):
    code, rep = invoke_json(
        "distance", "--in", order_file, "--in2", order_file, "--mc",
        "--trials", "100", "--seed", "2",
    )
    assert code == 0
    assert rep["result"]["estimate"] == {"num": 0, "den": 1}


def test_substructs_command(order_file, tmp_path):
    code, q = invoke_json("quantize", "--in", order_file, "--l", "1")
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(q["result"]))
    code, rep = invoke_json("substructs", "--in", str(spec_path), "--n", "2")
    assert code == 0
    assert len(rep["result"]["models"]) == 1


def test_every_report_validates_against_envelope_schema(order_file, ab_file, tmp_path):
    code, q = invoke_json("quantize", "--in", order_file, "--l", "2")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(q["result"]))
    code, inst = invoke_json("instantiate", "--in", str(spec_path), "--t", "2")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst["result"]))
    coloring_path = tmp_path / "col.json"
    coloring_path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "kind": "coloring",
                "d": 1,
                "vertices": [1, 2, 3],
                "entries": [
                    {"set": [1], "color": "a"},
                    {"set": [2], "color": "b"},
                    {"set": [3], "color": "a"},
                ],
            }
        )
    )
    batteries = [
        ["eval", "--in", order_file, "--at", "1/4,3/4"],
        ["check-homog", "--in", str(inst_path), "--l", "2"],
        ["instantiate", "--in", str(spec_path), "--t", "3"],
        ["compatible", "--in", str(inst_path), "--in2", str(inst_path), "--l", "2"],
        ["flatten", "--in", str(spec_path)],
        ["distance", "--in", order_file, "--in2", str(spec_path)],
        ["mu", "--in", ab_file, "--n", "2"],
        ["sample", "--in", ab_file, "--n", "2", "--trials", "20"],
        ["substructs", "--in", str(spec_path), "--n", "2"],
        ["appears", "--needle", str(inst_path), "--haystack", str(inst_path)],
        ["inlay-find", "--in", str(inst_path), "--l", "2", "--s", "2"],
        ["inlay-sample", "--in", str(spec_path), "--l", "2", "--s", "2"],
        ["ramsey-find", "--in", str(coloring_path), "--mode", "mono", "--s", "2"],
        ["ramsey-bound", "--kind", "r1", "--d", "1", "--a", "2", "--s", "2"],
        ["quantize", "--in", order_file, "--l", "2"],
        ["appclose", "--in", order_file, "--l", "2", "--s", "2", "--trials", "4"],
        ["pixelate", "--in", order_file, "--epsilon", "1/2", "--nmax", "2"],
        ["certify", "--in", str(spec_path), "--against", order_file, "--nmax", "2"],
        ["ensure-size", "--in", ab_file, "--epsilon", "1/2", "--r", "1", "--nmax", "2"],
    ]
    envelope = schema("report.schema.json")
    for argv in batteries:
        code, report = invoke_json(*argv)
        assert report is not None, argv
        jsonschema.validate(report, envelope)
        assert report["command"] == argv[0]
        assert code in (0, 1), argv
