"""Command-line front-end: scenario parsing, suites, exit codes, determinism."""

import json

import numpy as np
import pytest

from qms.cli import main

LOG2 = float(np.log(2.0))


def base_scenario(**overrides):
    scenario = {
        "v": 1,
        "name": "reference-pair",
        "algebra": {"dim": 2, "h": [[2 / 3, 0], [0, 1 / 3]]},
        "source": {"jumps": [
            {"matrix": [[0, 0], [1, 0]], "omega": LOG2},
            {"matrix": [[0, 1], [0, 0]], "omega": -LOG2},
            {"matrix": [[0.7071067811865476, 0], [0, -0.7071067811865476]],
             "omega": 0.0},
        ]},
        "checks": ["triple-agreement"],
        "seed": 7,
    }
    scenario.update(overrides)
    return scenario


def mat_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


class TestSuitesCommand:
    def test_registry_contents(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        for name in ("alicki-validate", "certify-generator", "triple-agreement",
                     "uniqueness", "stinespring-rate", "fock-commutant",
                     "free-aw-derivation", "carre-positivity"):
            assert name in out
        assert len(out.strip().splitlines()) >= 8

    def test_deterministic(self, capsys):
        main(["suites"])
        first = capsys.readouterr().out
        main(["suites"])
        assert capsys.readouterr().out == first


class TestRunCommand:
    def test_empty_checks(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario(checks=[]))
        assert main(["run", path]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_triple_agreement_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario())
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "triple/form_vs_bimodule" in out

    def test_deliberate_break_flags_axiom_e(self, tmp_path, capsys):
        scenario = base_scenario(checks=["bimodule-axioms"])
        scenario["source"]["jumps"][0]["omega"] = LOG2 + 0.1
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] axiom (e)" in out
        # a suite that needs a valid system raises instead, whichever runs first
        for checks in (["bimodule-axioms", "triple-agreement"],
                       ["triple-agreement", "bimodule-axioms"],
                       ["fock-commutant"]):
            path = write_scenario(tmp_path, dict(scenario, checks=checks))
            assert main(["run", path]) == 1
            assert "InvalidJumpSystem" in capsys.readouterr().err

    def test_cp_map_source_is_parse_error(self, tmp_path, capsys):
        scenario = base_scenario(checks=["certify-generator"])
        scenario["source"] = {"cp_map": [[0] * 4] * 4}
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, raw, code", [
        ("depth", "-1", 2), ("depth", "2.5", 2), ("depth", "true", 2),
        ("depth", '"3"', 2), ("depth", "0", 0), ("depth", "3", 0),
        ("seed", "true", 2), ("seed", "2.0", 2), ("seed", "-3", 2),
        ("seed", "5", 0),
        ("omega", "1e400", 2), ("omega", "true", 2), ("omega", '"0.5"', 2),
        ("dim", "2.5", 2), ("dim", "2", 0),
    ])
    def test_field_validation(self, tmp_path, capsys, field, raw, code):
        """Scenario fields are JSON values of the documented type, or exit 2."""
        aw = {"v": 1, "source": {"fock_spec": {"A": [[1, 0], [0, 1]]}},
              "checks": ["free-aw-derivation"]}
        jumps = base_scenario(checks=["alicki-validate"])
        scenario, holder = {
            "depth": (aw, aw["source"]["fock_spec"]),
            "seed": (aw, aw),
            "omega": (jumps, jumps["source"]["jumps"][2]),
            "dim": (jumps, jumps["algebra"]),
        }[field]
        holder[field] = "VALUE"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario).replace('"VALUE"', raw))
        assert main(["run", str(path)]) == code
        assert ("parse error" in capsys.readouterr().err) == (code == 2)

    def test_negative_seed_flag_is_parse_error(self, tmp_path, capsys):
        scenario = {"v": 1, "source": {"fock_spec": {"A": [[1, 0], [0, 1]]}},
                    "checks": ["free-aw-derivation"]}
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path, "--seed", "-3"]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, code", [
        ("triple-agreement", 2), ("uniqueness", 2), ("gram-axioms", 2),
        ("certify-generator", 0),
    ])
    def test_size_limit_is_scenario_error(self, tmp_path, capsys, suite, code):
        """n = 5 is above the default Gram size limit: exit 2, not 3."""
        from qms.sampling import random_jump_system, random_weighted_algebra
        rng = np.random.default_rng(77)
        w = random_weighted_algebra(5, rng)
        system = random_jump_system(w, rng, m_max=4)
        scenario = base_scenario(checks=[suite])
        scenario["algebra"] = {"dim": 5, "h": mat_json(w.h)}
        scenario["source"] = {"jumps": [{"matrix": mat_json(v), "omega": om}
                                        for v, om in system.jumps]}
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == code
        assert ("SizeLimitExceeded" in capsys.readouterr().err) == (code == 2)

    def test_missing_file_parse_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_bad_json_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_unknown_suite_parse_error(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(checks=["no-such-suite"]))
        assert main(["run", path]) == 2

    def test_two_sources_rejected(self, tmp_path):
        scenario = base_scenario()
        scenario["source"]["generator"] = [[0] * 4] * 4
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 2

    def test_bad_tolerance_override(self, tmp_path):
        path = write_scenario(tmp_path,
                              base_scenario(tolerances={"nope": 1e-9}))
        assert main(["run", path]) == 2

    def test_json_report_deterministic(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario())
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["run", path, "--json", str(out1)]) == 0
        assert main(["run", path, "--json", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["overall_pass"] is True
        assert report["environment"]["seed"] == 7
        assert all(c["residual"] <= c["tolerance"] for c in report["checks"])

    def test_tol_flag_can_force_failure(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario())
        code = main(["run", path, "--tol", "axiom=1e-30"])
        capsys.readouterr()
        assert code == 1

    def test_emit_artifacts(self, tmp_path, capsys):
        path = write_scenario(tmp_path, base_scenario(checks=[]))
        emit_dir = tmp_path / "artifacts"
        assert main(["run", path, "--emit", str(emit_dir)]) == 0
        capsys.readouterr()
        for name in ("jumps.json", "gram.json", "generator.json"):
            assert (emit_dir / name).exists()
        gram = json.loads((emit_dir / "gram.json").read_text())
        assert gram["rank"] > 0


NON_FOCK_SUITES = ["alicki-validate", "bimodule-axioms", "carre-positivity",
                   "certify-generator", "gram-axioms", "stinespring-rate",
                   "triple-agreement", "uniqueness"]


def generator_source(system):
    from qms.lindblad import build_generator
    return {"generator": mat_json(build_generator(system).matrix)}


class TestSharedScenario:
    @pytest.mark.parametrize("source", ["jumps", "generator"])
    def test_multi_suite_run_matches_single_runs(self, tmp_path, capsys,
                                                 qubit_system3, source):
        """Objects shared between suites do not change any suite's result."""
        scenario = base_scenario()
        if source == "generator":
            scenario["source"] = generator_source(qubit_system3)

        def checks_of(suites, name):
            path = write_scenario(tmp_path, dict(scenario, checks=suites),
                                  name + ".json")
            out = tmp_path / (name + ".report.json")
            main(["run", path, "--json", str(out)])
            return [(c["name"], c["residual"], c["pass"])
                    for c in json.loads(out.read_text())["checks"]]

        single = []
        for suite in NON_FOCK_SUITES:
            single.extend(checks_of([suite], suite))
        together = checks_of(NON_FOCK_SUITES, "all")
        capsys.readouterr()
        assert len(together) == len(single) > len(NON_FOCK_SUITES)
        assert together == single


class TestGeneratorSource:
    def test_generator_roundtrip(self, tmp_path, capsys, qubit_system):
        from qms.lindblad import build_generator
        l = build_generator(qubit_system)
        mat = [[[float(v.real), float(v.imag)] for v in row]
               for row in l.matrix]
        scenario = base_scenario(checks=["alicki-validate",
                                         "certify-generator"])
        scenario["source"] = {"generator": mat}
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_asymmetric_generator_is_reported(self, tmp_path, capsys):
        """certify-generator reports a failing certificate of the input
        generator instead of raising."""
        mat = np.eye(4).tolist()
        mat[0][1] = 0.3
        scenario = base_scenario(checks=["certify-generator"])
        scenario["source"] = {"generator": mat}
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] certify/gns_symmetric" in captured.out
        assert captured.err == ""


class TestFockSpecSource:
    def test_free_aw_scenario(self, tmp_path, capsys):
        import scipy.linalg
        k = np.array([[0.0, 0.7], [-0.7, 0.0]])
        a = scipy.linalg.expm(1j * k)
        scenario = {
            "v": 1,
            "name": "free-aw",
            "source": {"fock_spec": {
                "A": [[[float(v.real), float(v.imag)] for v in row]
                      for row in a],
                "I": "conjugation",
                "depth": 4,
            }},
            "checks": ["free-aw-derivation"],
            "seed": 3,
        }
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 0
        assert "FAIL" not in capsys.readouterr().out
