import dataclasses
import json
import re

import pytest

from agstab import artifacts, pauli
from agstab.cli import main
from agstab.curves import build_dual_chain, enumerate_curve
from agstab.expansion import ExpansionMap, expand_chain
from agstab.fields import EPS, EPS_BAR, element_to_hex, get_field, self_dual_basis
from agstab.linear import binary_code, make_code
from agstab.pipeline import PipelineConfig, pipeline_build
from agstab.symplectic import make_symplectic

from gf4_words import pack_gf4
from helpers import parse_csv, report_from_obj


def test_build_expand_steane_verify_round_trip(tmp_path, capsys):
    triple_path = tmp_path / "triple.json"
    pair_path = tmp_path / "pair.json"
    fcode_path = tmp_path / "fcode.json"
    report_path = tmp_path / "report.json"

    assert main([
        "build", "--curve", "hermitian", "--q", "2", "--a", "3",
        "--a-prime", "1", "--out", str(triple_path),
    ]) == 0
    triple = artifacts.triple_from_obj(artifacts.load_json(triple_path))
    assert (triple.c.n, triple.c.k_dim) == (8, 5)

    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 0
    pair = artifacts.pair_from_obj(artifacts.load_json(pair_path))
    assert (pair.d.k_dim, pair.d_prime.k_dim) == (10, 14)

    assert main(["steane", "--d", str(pair_path), "--out", str(fcode_path)]) == 0
    fcode = artifacts.fcode_from_obj(artifacts.load_json(fcode_path))
    assert fcode.k_dim == 24 and fcode.is_large

    assert main([
        "verify", "--code", str(fcode_path), "--exact-distance",
        "--out", str(report_path),
    ]) == 0
    report = report_from_obj(artifacts.load_json(report_path))
    assert (report.n, report.k_q, report.d_q, report.d_exact) == (16, 8, 3, True)
    out = capsys.readouterr().out
    assert '"d_q": 3' in out


def test_verify_without_exact_distance_reports_bound(tmp_path):
    triple_path = tmp_path / "t.json"
    pair_path = tmp_path / "p.json"
    fcode_path = tmp_path / "f.json"
    main(["build", "--curve", "hermitian", "--q", "2", "--a", "3", "--a-prime", "1",
          "--out", str(triple_path)])
    main(["expand", "--in", str(triple_path), "--out", str(pair_path)])
    main(["steane", "--d", str(pair_path), "--out", str(fcode_path)])
    rc = main(["verify", "--code", str(fcode_path), "--out", str(tmp_path / "r.json")])
    assert rc == 0
    report = report_from_obj(artifacts.load_json(tmp_path / "r.json"))
    assert not report.d_exact
    assert report.d_q == 2  # designed bound recorded at composition time


def test_expand_refuses_a_triple_whose_c_misses_its_dual(tmp_path, capsys):
    triple_path = tmp_path / "t.json"
    main(["build", "--curve", "hermitian", "--q", "2", "--a", "3", "--a-prime", "1",
          "--out", str(triple_path)])
    triple = artifacts.triple_from_obj(artifacts.load_json(triple_path))
    tampered = dataclasses.replace(triple, c=triple.c.dual())
    artifacts.save_json(artifacts.triple_to_obj(tampered), triple_path)
    pair_path = tmp_path / "p.json"
    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 1
    assert "differs from its rebuilt construction at ['c']" in capsys.readouterr().err
    assert not pair_path.exists()


def _build_m2(tmp_path):
    triple_path, pair_path = tmp_path / "t.json", tmp_path / "p.json"
    assert main(["build", "--curve", "hermitian", "--q", "4", "--a", "34", "--a-prime", "30",
                 "--out", str(triple_path)]) == 0
    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 0
    return triple_path, pair_path


def test_expand_refuses_an_m2_triple_whose_codes_are_another_chain(tmp_path, capsys):
    # C = ones^perp = [64,63] and C' = GF(16)^64 form a chain C' > C >= C^perp,
    # but not the AG chain of the provenance; its code has weight-2 logicals.
    triple_path, _ = _build_m2(tmp_path)
    gf16 = get_field(4)
    obj = artifacts.load_json(triple_path)
    obj["c"] = artifacts.code_to_obj(make_code(gf16, 64, [[1] * 64]).dual())
    identity = [[int(i == j) for j in range(64)] for i in range(64)]
    obj["c_prime"] = artifacts.code_to_obj(make_code(gf16, 64, identity))
    artifacts.save_json(obj, triple_path)
    pair_path = tmp_path / "tampered_pair.json"
    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 1
    assert "differs from its rebuilt construction at ['c']" in capsys.readouterr().err
    assert not pair_path.exists()


def test_steane_refuses_an_m2_pair_whose_codes_are_another_chain(tmp_path, capsys):
    # D = {x : x.u = x.v = 0} = [256,254] for u = 1^256 and v = 1^128 0^128, and
    # D' = GF(2)^256: D' > D >= D^perp = <u, v>, beside a valid source triple.
    _, pair_path = _build_m2(tmp_path)
    u, v = (1 << 256) - 1, (1 << 128) - 1
    obj = artifacts.load_json(pair_path)
    obj["d"] = artifacts.code_to_obj(binary_code(256, [u, v]).dual())
    obj["d_prime"] = artifacts.code_to_obj(binary_code(256, [1 << j for j in range(256)]))
    artifacts.save_json(obj, pair_path)
    fcode_path = tmp_path / "f.json"
    assert main(["steane", "--d", str(pair_path), "--out", str(fcode_path)]) == 1
    assert "differs from its rebuilt construction at ['d']" in capsys.readouterr().err
    assert not fcode_path.exists()


def _flip_first_bit(code):
    row = code["generators"][0]
    code["generators"][0] = "10"[int(row[0])] + row[1:]


# Edits of a valid m=1 pair and the key that its refusal names.
PAIR_TAMPERS = [
    (lambda p: _flip_first_bit(p["d"]), "['d']"),
    (lambda p: _flip_first_bit(p["d_prime"]), "['d_prime']"),
    (lambda p: p["d"]["generators"].pop(), "['d']"),
    (lambda p: p["d_prime"].update(extra=1), "['d_prime']"),
    (lambda p: p["d_prime"].update(field_k=2), "['d_prime']"),
    (lambda p: p.update(n=15), "['n']"),
    (lambda p: p["provenance"]["source"]["provenance"].update(flags={}), "['provenance']['source']['provenance']['flags']"),
    (lambda p: p.update(extra=None), "['extra']"),  # a key added as null, not read as missing
    (lambda p: p["d"].update(field_k=True), "['d']['field_k']"),  # true == 1 in Python, not in JSON
]


@pytest.mark.parametrize("tamper, key", PAIR_TAMPERS)
def test_a_pair_is_refused_at_the_first_key_that_differs_from_its_rebuild(tamper, key):
    obj = artifacts.pair_to_obj(expand_chain(build_dual_chain(enumerate_curve("hermitian", 2), 3, 1), _self_dual_map(2)))
    tamper(obj)
    with pytest.raises(ValueError, match=re.escape(f"differs from its rebuilt construction at {key}")):
        artifacts.pair_from_obj(json.loads(json.dumps(obj)))


def test_a_pair_load_decodes_each_code_once(monkeypatch):
    obj = json.loads(json.dumps(artifacts.pair_to_obj(
        expand_chain(build_dual_chain(enumerate_curve("hermitian", 2), 3, 1), _self_dual_map(2))
    )))
    decoded = []
    hex_to_symbols = artifacts.hex_to_symbols
    monkeypatch.setattr(artifacts, "hex_to_symbols", lambda f, rows, n: decoded.append(f.k) or hex_to_symbols(f, rows, n))
    artifacts.pair_from_obj(obj)
    assert sorted(decoded) == [1, 1, 2, 2]  # the source triple's C and C', then D and D'


def test_a_matching_pair_is_compared_without_hex_encoding_d_or_d_prime(monkeypatch):
    obj = json.loads(json.dumps(artifacts.pair_to_obj(
        expand_chain(build_dual_chain(enumerate_curve("hermitian", 4), 34, 30), _self_dual_map(4))
    )))
    obj["provenance"]["flags"] = {"out": "p.json"}  # the CLI's echo, ignored
    encoded = []
    code_to_obj = artifacts.code_to_obj
    monkeypatch.setattr(artifacts, "code_to_obj", lambda c: encoded.append(c.field.k) or code_to_obj(c))
    pair = artifacts.pair_from_obj(obj)
    assert encoded == []  # neither D, D' nor the source triple's C, C' is encoded
    del obj["provenance"]["flags"]
    assert artifacts.pair_to_obj(pair) == obj


@pytest.mark.parametrize("tamper, path", [
    (lambda prov: prov.pop("basis"), "['provenance']['basis']"),
    (lambda prov: prov.update(basis_field_k=2.0), "['provenance']['basis_field_k']"),
    (lambda prov: prov.update(basis_field_k=True), "['provenance']['basis_field_k']"),
    (lambda prov: prov.update(basis=[int(e, 16) for e in prov["basis"]]), "['provenance']['basis']"),
    (lambda prov: prov.pop("source"), "['provenance']['source']"),
    # the basis is read in the source triple's field, GF(4), whatever basis_field_k names
    (lambda prov: prov.update(basis_field_k=4), "['provenance']['basis_field_k']"),
    (lambda prov: prov.update(basis_field_k=4, basis=[element_to_hex(get_field(4), e)
                                                      for e in self_dual_basis(get_field(4)).elements]),
     "['provenance']['basis']"),
], ids=["basis-dropped", "field-k-float", "field-k-true", "basis-ints", "source-dropped",
        "field-k-other", "basis-of-the-other-field"])
def test_a_pair_basis_is_read_by_its_path(tamper, path):
    obj = json.loads(json.dumps(artifacts.pair_to_obj(
        expand_chain(build_dual_chain(enumerate_curve("hermitian", 2), 3, 1), _self_dual_map(2))
    )))
    tamper(obj["provenance"])
    with pytest.raises(ValueError, match=r"^binary_pair .*" + re.escape(path)):
        artifacts.pair_from_obj(obj)


def _self_dual_map(k):
    field = get_field(k)
    return ExpansionMap(field=field, basis=self_dual_basis(field))


def test_a_triple_is_rebuilt_in_the_regime_it_names(tmp_path, capsys):
    # a = 4 on the q = 2 Hermitian curve is past n + g - 2 = 7: extended only
    triple_path, pair_path = tmp_path / "t.json", tmp_path / "p.json"
    assert main(["build", "--curve", "hermitian", "--q", "2", "--a", "4", "--a-prime", "1",
                 "--allow-extended-a", "--out", str(triple_path)]) == 0
    assert artifacts.triple_from_obj(artifacts.load_json(triple_path)).regime == "extended"
    obj = artifacts.load_json(triple_path)
    obj["provenance"]["regime"] = "standard"
    artifacts.save_json(obj, triple_path)
    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 1
    assert "allow_extended" in capsys.readouterr().err
    assert not pair_path.exists()


def test_a_standard_triple_claiming_the_extended_regime_is_refused():
    obj = artifacts.triple_to_obj(build_dual_chain(enumerate_curve("hermitian", 2), 3, 1))
    obj["provenance"]["regime"] = "extended"
    with pytest.raises(ValueError, match=re.escape("['provenance']['regime']")):
        artifacts.triple_from_obj(obj)


def _tamper_twist(prov):
    prov["twist_w"][3] = "2"


def _drop_a_kept_point(prov):
    del prov["kept_points"][5]


@pytest.mark.parametrize("tamper, key", [
    (_tamper_twist, "twist_w"),
    (_drop_a_kept_point, "kept_points"),
])
def test_expand_refuses_a_triple_that_claims_another_twist(tmp_path, capsys, tamper, key):
    _assert_expand_refuses(tmp_path, capsys, tamper, key)


def _claim_designed_99(prov):
    prov["designed_d"] = prov["designed_d_prime"] = 99


def _claim_designed_prime_2(prov):
    prov["designed_d_prime"] = 2


def _claim_genus_0(prov):
    prov["curve"]["genus"] = 0


@pytest.mark.parametrize("tamper, key", [
    (_claim_designed_99, "designed_d"),
    (_claim_designed_prime_2, "designed_d_prime"),
    (_claim_genus_0, "genus"),
])
def test_expand_refuses_a_triple_whose_bounds_disagree_with_its_parameters(tmp_path, capsys, tamper, key):
    # the designed distances become the recorded d_Q bound downstream
    _assert_expand_refuses(tmp_path, capsys, tamper, key)


def _assert_expand_refuses(tmp_path, capsys, tamper, key):
    triple_path = tmp_path / "t.json"
    assert main(["build", "--curve", "hermitian", "--q", "2", "--a", "3", "--a-prime", "1",
                 "--out", str(triple_path)]) == 0
    obj = artifacts.load_json(triple_path)
    tamper(obj["provenance"])
    artifacts.save_json(obj, triple_path)
    pair_path = tmp_path / "p.json"
    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not pair_path.exists()


def _drop_a(prov):
    del prov["a"]


def _q_as_float(prov):
    prov["curve"]["q"] = 2.0


def _a_as_fraction(prov):
    prov["a"] = 3.5


@pytest.mark.parametrize("tamper, path", [
    (_drop_a, "['provenance']['a']"),
    (_q_as_float, "['provenance']['curve']['q']"),
    (_a_as_fraction, "['provenance']['a']"),
])
def test_expand_refuses_a_triple_missing_or_mistyping_a_parameter_by_its_path(tmp_path, capsys, tamper, path):
    # the parameters are checked before the rebuild reads them
    triple_path, pair_path = tmp_path / "t.json", tmp_path / "p.json"
    assert main(["build", "--curve", "hermitian", "--q", "2", "--a", "3", "--a-prime", "1",
                 "--out", str(triple_path)]) == 0
    obj = artifacts.load_json(triple_path)
    tamper(obj["provenance"])
    artifacts.save_json(obj, triple_path)
    capsys.readouterr()
    assert main(["expand", "--in", str(triple_path), "--out", str(pair_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dual_chain_triple ") and path in err
    assert not pair_path.exists()


_DROP = object()


def _m1_fcode_obj():
    run = pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1))
    return json.loads(json.dumps(artifacts.fcode_to_obj(run.fcode)))


@pytest.mark.parametrize("key, value", [
    ("distance_bound", "abc"),
    ("distance_bound", 0),
    ("distance_bound", True),
    ("distance_bound", 3.0),
    ("distance_bound", _DROP),
    ("n", 16.0),
    ("k_f", _DROP),
    ("k_f", 25),
    ("is_isotropic", True),
    ("is_large", False),
    ("is_large", 1),
], ids=lambda v: "dropped" if v is _DROP else str(v))
def test_verify_refuses_an_fcode_value_by_its_path(tmp_path, capsys, key, value):
    # each value is read by its key path and JSON type; k_f and the flags
    # must also equal what the rows give
    obj = _m1_fcode_obj()
    assert (obj["n"], obj["k_f"], obj["is_isotropic"], obj["is_large"]) == (16, 24, False, True)
    if value is _DROP:
        del obj[key]
    else:
        obj[key] = value
    path = tmp_path / "f.json"
    artifacts.save_json(obj, path)
    capsys.readouterr()
    assert main(["verify", "--code", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: symplectic_code ") and f"[{key!r}]" in err


@pytest.mark.parametrize("tamper, key", [
    (lambda f: f.update(extra=None), "['extra']"),  # a key added as null, not read as missing
    (lambda f: f["space"]["generators"].reverse(), "['space']['generators']"),  # the same span, not F's RREF
    (lambda f: f["space"].update(field_k=2), "['space']['field_k']"),
    (lambda f: f["space"].update(n=33), "['space']['n']"),
], ids=["extra-null", "rows-reversed", "space-field-k", "space-n"])
def test_an_fcode_is_refused_at_the_first_key_that_differs_from_its_rebuild(tamper, key):
    obj = _m1_fcode_obj()
    obj["provenance"] = {"source_pair": "pair.json", "flags": {"out": "f.json"}}  # as agstab steane writes it
    assert artifacts.fcode_to_obj(artifacts.fcode_from_obj(obj), {"source_pair": "pair.json"}) == {
        **obj, "provenance": {"source_pair": "pair.json"}
    }
    tamper(obj)
    with pytest.raises(ValueError, match=re.escape(f"differs from its rebuilt construction at {key}") + "$"):
        artifacts.fcode_from_obj(obj)


def test_an_fcode_with_rows_of_another_length_is_refused_at_its_rows():
    obj = _m1_fcode_obj()
    obj["space"]["generators"][0] += "0"
    with pytest.raises(ValueError, match=re.escape("symplectic_code holds no rows of 2n = 32 bits at ['space']['generators']")):
        artifacts.fcode_from_obj(obj)


def test_a_matching_fcode_load_decodes_f_once_and_encodes_nothing(monkeypatch):
    obj = _m1_fcode_obj()
    decoded, encoded = [], []
    hex_to_symbols, code_to_obj = artifacts.hex_to_symbols, artifacts.code_to_obj
    monkeypatch.setattr(artifacts, "hex_to_symbols", lambda f, rows, n: decoded.append((f.k, n)) or hex_to_symbols(f, rows, n))
    monkeypatch.setattr(artifacts, "code_to_obj", lambda c: encoded.append(c.field.k) or code_to_obj(c))
    fcode = artifacts.fcode_from_obj(obj)
    assert (decoded, encoded) == ([(1, 32)], [])
    assert fcode.k_dim == 24 and fcode.is_large


def test_an_fcode_with_a_null_bound_loads_without_one():
    obj = _m1_fcode_obj()
    assert artifacts.fcode_from_obj(obj).distance_bound == obj["distance_bound"] >= 1
    obj["distance_bound"] = None
    assert artifacts.fcode_from_obj(obj).distance_bound is None


@pytest.mark.parametrize("kind, q, a, a_prime", [("hermitian", 2, 3, 1), ("line", 16, 5, 3)])
def test_triple_round_trips(kind, q, a, a_prime):
    obj = artifacts.triple_to_obj(build_dual_chain(enumerate_curve(kind, q), a, a_prime))
    assert artifacts.triple_to_obj(artifacts.triple_from_obj(obj)) == obj


def test_bounds_csv_outputs(tmp_path):
    env_path = tmp_path / "env.csv"
    assert main(["bounds", "--type", "envelope", "--step", "0.001",
                 "--out", str(env_path)]) == 0
    curves = parse_csv(env_path)
    assert len(curves) == 1
    assert curves[0].samples[0].source == "envelope"

    gv_path = tmp_path / "gv.csv"
    assert main(["bounds", "--type", "gv4", "--step", "0.01", "--out", str(gv_path)]) == 0
    assert parse_csv(gv_path)[0].samples[0].source == "gv4"

    ag_path = tmp_path / "ag.csv"
    assert main(["bounds", "--type", "agq", "--m", "3", "--step", "0.01",
                 "--out", str(ag_path)]) == 0
    assert parse_csv(ag_path)[0].samples[0].m == 3

    assert main(["bounds", "--type", "agq", "--step", "0.01",
                 "--out", str(tmp_path / "bad.csv")]) == 2


def test_pipeline_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["pipeline", "--m", "1", "--curve", "hermitian", "--q", "2",
               "--a", "3", "--a-prime", "1", "--out", str(out)])
    assert rc == 0
    obj = artifacts.load_json(out)
    assert obj["params"] == "[[16, 8, 3]]"
    assert obj["provenance"]["config"]["m"] == 1
    # the report's own key names, not PipelineConfig's field names
    assert set(obj["provenance"]["config"]) == {
        "m", "curve", "q", "a", "a_prime", "budget", "allow_extended",
    }
    assert capsys.readouterr().out.strip().endswith("[[16, 8, 3]]")


def test_pipeline_cli_failure_exit_code(tmp_path, capsys):
    rc = main(["pipeline", "--m", "1", "--curve", "hermitian", "--q", "2",
               "--a", "4", "--a-prime", "1", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "chain" in capsys.readouterr().err


def test_pauli_check_cli(tmp_path, capsys):
    fcode = make_symplectic(4, [pack_gf4((EPS,) * 4), pack_gf4((EPS_BAR,) * 4)])
    path = tmp_path / "small.json"
    artifacts.save_json(artifacts.fcode_to_obj(fcode), path)
    rc = main(["pauli-check", "--code", str(path), "--max-n", "4", "--all-mu"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["passed"]
    assert result["dmax_checked"] == 2
    assert result["errors_checked"] == 12

    rc = main(["pauli-check", "--code", str(path), "--max-n", "2"])
    assert rc == 1  # n exceeds the cap


def test_pauli_check_cli_fails_on_a_non_projector(tmp_path, capsys, monkeypatch):
    # the stored basis with one row's phase flipped: its column is no
    # longer a +1 eigenvector of X X X X
    build = pauli._build

    def flipped(gens, n):
        owner, power, x_rank = build(gens, n)
        power = power.copy()
        power[0] ^= 2
        return owner, power, x_rank

    monkeypatch.setattr(pauli, "_build", flipped)
    fcode = make_symplectic(4, [pack_gf4((EPS,) * 4), pack_gf4((EPS_BAR,) * 4)])
    path = tmp_path / "small.json"
    artifacts.save_json(artifacts.fcode_to_obj(fcode), path)
    rc = main(["pauli-check", "--code", str(path), "--max-n", "4"])
    assert rc == 1
    result = json.loads(capsys.readouterr().out)
    assert not result["passed"]
    assert any("not an orthogonal projector" in f for f in result["failures"])


def test_pauli_check_cli_certifies_the_m1_code_at_sixteen_qubits(tmp_path, capsys):
    paths = {name: str(tmp_path / f"{name}.json") for name in ("triple", "pair", "fcode")}
    assert main([
        "build", "--curve", "hermitian", "--q", "2", "--a", "3",
        "--a-prime", "1", "--out", paths["triple"],
    ]) == 0
    assert main(["expand", "--in", paths["triple"], "--out", paths["pair"]]) == 0
    assert main(["steane", "--d", paths["pair"], "--out", paths["fcode"]]) == 0
    capsys.readouterr()
    assert main(["pauli-check", "--code", paths["fcode"], "--max-n", "16"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["passed"] and result["trace"] == ["256", "0"]
    assert (result["dmax_checked"], result["errors_checked"]) == (3, 1128)


def test_artifact_kind_mismatch(tmp_path):
    path = tmp_path / "x.json"
    artifacts.save_json({"kind": "something_else"}, path)
    assert main(["verify", "--code", str(path)]) == 1


def test_verify_rejects_uncertified_space(tmp_path, capsys):
    # neither isotropic nor dual-containing: certificates cannot hold
    from agstab.fields import EPS as E, EPS_BAR as EB

    crooked = make_symplectic(2, [pack_gf4((E, 0)), pack_gf4((EB, 0))])
    path = tmp_path / "crooked.json"
    artifacts.save_json(artifacts.fcode_to_obj(crooked), path)
    assert main(["verify", "--code", str(path)]) == 1
    assert "neither" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper, key",
    [
        (lambda t: t.update(extra=None), "['extra']"),
        (lambda t: t["provenance"]["curve"].update(extra=None), "['provenance']['curve']['extra']"),
    ],
)
def test_a_triple_adding_a_null_key_is_refused_naming_that_key(tamper, key):
    obj = artifacts.triple_to_obj(build_dual_chain(enumerate_curve("hermitian", 2), 3, 1))
    tamper(obj)
    with pytest.raises(ValueError, match=re.escape(f"differs from its rebuilt construction at {key}") + "$"):
        artifacts.triple_from_obj(json.loads(json.dumps(obj)))


@pytest.mark.parametrize(
    "tamper, key",
    [
        (lambda t: t.update(n=float(t["n"])), "['n']"),
        (lambda t: t["provenance"].update(designed_d=float(t["provenance"]["designed_d"])), "['provenance']['designed_d']"),
        (lambda t: t["c"].update(n=float(t["c"]["n"])), "['c']['n']"),
    ],
)
def test_a_triple_whose_numbers_change_json_type_is_refused_naming_that_key(tamper, key):
    # 8.0 == 8 in Python; the file must keep the writer's JSON types
    obj = artifacts.triple_to_obj(build_dual_chain(enumerate_curve("hermitian", 2), 3, 1))
    tamper(obj)
    with pytest.raises(ValueError, match=re.escape(f"differs from its rebuilt construction at {key}") + "$"):
        artifacts.triple_from_obj(json.loads(json.dumps(obj)))


def test_a_gf16_triple_with_uppercase_rows_is_refused_at_c():
    # hex is lowercase only, as code_to_obj writes it
    obj = artifacts.triple_to_obj(build_dual_chain(enumerate_curve("hermitian", 4), 34, 30))
    rows = obj["c"]["generators"]
    assert any(r != r.upper() for r in rows)
    obj["c"]["generators"] = [r.upper() for r in rows]
    with pytest.raises(ValueError, match=re.escape("differs from its rebuilt construction at ['c']['generators']")):
        artifacts.triple_from_obj(obj)
