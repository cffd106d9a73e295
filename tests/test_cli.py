import json
import re
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from tautilt.cli import VERBS, load_algebra_file, run
from tautilt.errors import CapExceededError
from tautilt.homology import enumerate_indecomposables

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def alg(name):
    return str(FIXTURES / f"{name}.alg")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    with resources.files("tautilt.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def validator(name):
    base = schema(name)
    registry_schemas = {
        s["$id"]: s
        for s in (schema("representation.schema.json"), schema("ar_quiver.schema.json"), schema("hasse.schema.json"))
    }
    from referencing import Registry, Resource

    registry = Registry().with_resources(
        (k, Resource.from_contents(v)) for k, v in registry_schemas.items()
    )
    return jsonschema.Draft202012Validator(base, registry=registry)


def test_basis_verb(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "basis", alg("a3rel"))
    assert code == 0
    assert "dim 5" in out


def test_tau_verb_worked_example(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "tau", alg("a3lin"), "--module", "010")
    assert code == 0
    assert out.strip() == "001"


def test_tau_inverse(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "tau", alg("kronecker"),
                          "--no-cache", "--module", "P(2)", "--inverse")
    assert code == 0
    assert out.strip() == "23"


def test_hasse_json_vertex_count(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "hasse", alg("a3rel"))
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["vertices"] == 12
    assert payload["counts"]["edges"] == 18
    validator("hasse.schema.json").validate(payload)


def test_hasse_dot_a2(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "dot",
                          "hasse", alg("a2"))
    assert code == 0
    assert out.count(" -> ") == 5
    assert out.count("label=") >= 10  # 5 nodes + 5 edge labels


def test_ar_quiver_dot_a3rel(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "dot",
                          "ar-quiver", alg("a3rel"))
    assert code == 0
    assert out.count("[label=") >= 5
    # 110 = P(1) is projective-injective here, so only two tau links survive
    assert out.count("style=dashed") == 2


def test_ar_quiver_dot_a3lin_has_three_tau_links(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "dot",
                          "ar-quiver", alg("a3lin"))
    assert code == 0
    assert out.count("style=dashed") == 3


def test_indecs_kronecker_exit_code(tmp_path, capsys):
    code, out, err = invoke(capsys, "--cache-dir", str(tmp_path), "--dim-cap", "12",
                            "indecs", alg("kronecker"))
    assert code == 1
    assert "not representation-finite within caps: dim_cap=12 exceeded" in err
    assert "homology" in err
    # the same run as a library call carries the cap as fields
    with pytest.raises(CapExceededError) as exc:
        enumerate_indecomposables(load_algebra_file(alg("kronecker"), 24), dim_cap=12)
    assert str(exc.value) in err
    fields = exc.value
    assert (fields.cap, fields.value) == ("dim_cap", 12)
    assert fields.dim > 12 and f"dimension {fields.dim} after {fields.progress} " in err


def test_usage_error_exit_code(tmp_path, capsys):
    assert invoke(capsys, "definitely-not-a-verb")[0] == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x { vertices: 1 2; arrows a: 1->2; }")  # missing colon
    code, _, err = invoke(capsys, "basis", str(bad))
    assert code == 2
    assert "error [algebra/parse]" in err


def test_torsion_oracle_table_a2(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "torsion-oracle", alg("a2"))
    assert code == 0
    assert "5 torsion classes" in out
    assert "01 + 10 + 11" in out


def test_rep_json_roundtrip_schema(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "tau", alg("a3lin"), "--module", "100")
    assert code == 0
    payload = json.loads(out)
    validator("representation.schema.json").validate(payload)


def test_ar_quiver_json_schema(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "indecs", alg("a3rel"))
    assert code == 0
    validator("ar_quiver.schema.json").validate(json.loads(out))


def test_cache_roundtrip_bytes(tmp_path, capsys):
    args = ["--cache-dir", str(tmp_path), "--format", "json", "indecs", alg("skewed")]
    code1, out1, _ = invoke(capsys, *args)
    assert code1 == 0
    files = list(Path(tmp_path).glob("*.json"))
    assert len(files) == 1
    code2, out2, _ = invoke(capsys, *args)
    assert code2 == 0
    assert out1 == out2


def test_hasse_from_warm_cache_matches_fresh(tmp_path, capsys):
    args = ["--cache-dir", str(tmp_path), "--format", "json", "hasse", alg("a3rel")]
    code1, fresh, _ = invoke(capsys, *args)
    assert code1 == 0
    assert len(list(Path(tmp_path).glob("*.json"))) == 1
    code2, warmed, _ = invoke(capsys, *args)   # reconstructs the AR data from disk
    assert code2 == 0
    assert warmed == fresh


def test_cache_key_changes_with_caps(tmp_path, capsys):
    invoke(capsys, "--cache-dir", str(tmp_path), "indecs", alg("a2"))
    invoke(capsys, "--cache-dir", str(tmp_path), "--dim-cap", "23", "indecs", alg("a2"))
    assert len(list(Path(tmp_path).glob("*.json"))) == 2


def test_cache_key_changes_with_source(tmp_path, capsys):
    invoke(capsys, "--cache-dir", str(tmp_path), "indecs", alg("a3lin"))
    invoke(capsys, "--cache-dir", str(tmp_path), "indecs", alg("a3rel"))
    assert len(list(Path(tmp_path).glob("*.json"))) == 2


def test_corrupt_cache_recovers(tmp_path, capsys):
    args = ["--cache-dir", str(tmp_path), "--format", "json", "indecs", alg("a2")]
    invoke(capsys, *args)
    entry = next(Path(tmp_path).glob("*.json"))
    entry.write_text("{ not json")
    code, out, err = invoke(capsys, *args)
    assert code == 0
    assert "corrupt cache entry" in err
    assert json.loads(out)["indecomposables"]


def _tamper_and_rerun(tmp_path, capsys, args, tamper):
    code, fresh, _ = invoke(capsys, *args)
    assert code == 0
    entry = next(Path(tmp_path).glob("*.json"))
    payload = json.loads(entry.read_text())
    tamper(payload)
    entry.write_text(json.dumps(payload))
    code, out, err = invoke(capsys, *args)
    assert code == 0
    assert "corrupt cache entry" in err and "recomputing" in err
    code, uncached, _ = invoke(capsys, "--no-cache", *args)
    assert out == uncached == fresh
    return err


def test_cache_entry_with_wrong_arrow_multiplicity_recomputes(tmp_path, capsys):
    # derived Hom tables trust the cached arrows, so a miscount must be caught
    def bump_first_arrow(payload):
        payload["arrows"][0][2] += 1

    args = ["--cache-dir", str(tmp_path), "--format", "json", "hasse", alg("a3rel")]
    err = _tamper_and_rerun(tmp_path, capsys, args, bump_first_arrow)
    assert "arrows into" in err or "AR sequence at" in err


def test_cache_entry_for_another_algebra_recomputes(tmp_path, capsys):
    def rehash(payload):
        payload["algebra"] = "0" * 64

    args = ["--cache-dir", str(tmp_path), "--format", "json", "hasse", alg("a3rel")]
    err = _tamper_and_rerun(tmp_path, capsys, args, rehash)
    assert "different algebra" in err


def test_cache_entry_breaking_a_relation_recomputes(tmp_path, capsys):
    # a3rel has the relation b*a = 0, which 111 would violate
    def add_path(payload):
        for item in payload["indecomposables"]:
            if item["label"] == "110":
                item["rep"]["dims"] = [1, 1, 1]
                item["rep"]["arrows"] = {"a": [["1"]], "b": [["1"]]}
                item["dims"] = [1, 1, 1]

    args = ["--cache-dir", str(tmp_path), "--format", "json", "hasse", alg("a3rel")]
    err = _tamper_and_rerun(tmp_path, capsys, args, add_path)
    assert "violated" in err


def test_mutate_verb(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "mutate", alg("a2"), "--summands", "01,11", "--at", "01")
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "left"
    assert payload["pair"] == "10+11"


def test_mutate_at_killed_vertex(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "mutate", alg("a2"), "--summands", "", "--kill", "1,2", "--at", "P(1)")
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "right"
    assert payload["pair"] == "10 | kill 2"


def test_kill_that_is_not_vertices_is_a_usage_error(tmp_path, capsys):
    code, out, err = invoke(capsys, "--cache-dir", str(tmp_path), "dagger", alg("a2"), "--kill", "x")
    assert (code, out) == (2, "")
    assert "argument --kill: not a comma-separated list of vertices: 'x'" in err


@pytest.mark.parametrize("at", ["zz", "P(x)"])
def test_mutate_at_unknown_label_is_a_typed_error(tmp_path, capsys, at):
    code, out, err = invoke(capsys, "--cache-dir", str(tmp_path),
                            "mutate", alg("a2"), "--summands", "01,11", "--at", at)
    assert (code, out) == (1, "")
    assert err == f"error [cli]: unknown summand label {at!r}\n"


def test_probe_verbs(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "probe", alg("a3rel"))
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_tilting_finite"] is True
    assert payload["count"] == 12

    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "--dim-cap", "10", "--vertex-cap", "16", "probe", alg("kronecker"))
    assert code == 0
    assert json.loads(out)["tau_tilting_finite"] is None


def test_statt_and_bongartz_verbs(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "bongartz", alg("a3lin"), "--module", "010")
    assert code == 0
    assert json.loads(out)["completion"] == ["010", "011", "111"]

    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "statt-check", alg("a3lin"), "--module", "010+111")
    assert code == 0
    assert json.loads(out)["support_tau_tilting"] is False


def test_grigid_verb(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "grigid", alg("a3lin"), "--module", "010+111")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_rigid"] is True
    assert payload["g_vectors_independent"] is True


def test_dagger_verb(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), "--format", "json",
                          "dagger", alg("a2"), "--summands", "01,11")
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"] == []
    assert payload["kill"] == [1, 2]


def test_determinism_across_runs(tmp_path, capsys):
    a = invoke(capsys, "--cache-dir", str(tmp_path), "--no-cache",
               "--format", "json", "hasse", alg("skewed"))
    b = invoke(capsys, "--cache-dir", str(tmp_path), "--no-cache",
               "--format", "json", "hasse", alg("skewed"))
    assert a == b


def test_seed_option_is_gone(capsys):
    # runs are deterministic, so there is no seed to pass
    code, _, err = invoke(capsys, "--seed", "0", "hasse", alg("a2"))
    assert code == 2
    assert "--seed" not in err   # not among the options the usage lists


def test_readme_lists_the_verbs_of_the_verb_table():
    readme = (FIXTURES.parent / "README.md").read_text()
    line = re.search(r"^Verbs: (.*?)\.$", readme, re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", line) == list(VERBS)
