"""Command-line front-end: scenario parsing, suites, exit codes, determinism."""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qms.sampling
from qms.cli import main
from qms.lindblad import JumpSystem, build_generator
from qms.modular import WeightedAlgebra

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


def test_readme_scenario_passes(tmp_path):
    """The example scenario of the README runs and passes."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    assert main(["run", write_scenario(tmp_path, json.loads(block))]) == 0


def test_run_imports_no_scipy(tmp_path):
    """``qms run`` needs numpy alone: a whole run in a fresh process loads no
    scipy module."""
    path = write_scenario(tmp_path, base_scenario())
    code = ("import sys\nfrom qms.cli import main\n"
            f"assert main(['run', {path!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


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
        ("decomp", "-1", 2), ("decomp", "0", 2), ("decomp", "true", 2),
        ("decomp", '"nan"', 2), ("decomp", '"1e-12"', 2), ("decomp", "1e400", 2),
        ("decomp", "1e-12", 0), ("axiom", "1e-30", 1), ("cond_max", "0.5", 2),
        ("jumps", "5", 2), ("jumps", "[]", 0), ("blocks", "5", 2),
        ("blocks", "[[[2, 0], [0, 1]]]", 0),
        ("I", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", 2), ("I", "[[0, 1], [1, 0]]", 0),
        ("A", "[[1, 0]]", 2),
    ])
    def test_field_validation(self, tmp_path, capsys, field, raw, code):
        """Scenario fields are JSON values of the documented type, or exit 2.

        Tolerances are finite numbers > 0 and reach the algebra: cond_max
        0.5 rejects the density (condition number 2)."""
        aw = {"v": 1, "source": {"fock_spec": {"A": [[1, 0], [0, 1]]}},
              "checks": ["free-aw-derivation"]}
        jumps = base_scenario(checks=["alicki-validate"])
        tols = base_scenario(tolerances={})
        blocks = base_scenario(checks=["alicki-validate"], algebra={"dim": 2})
        scenario, holder = {
            "depth": (aw, aw["source"]["fock_spec"]),
            "seed": (aw, aw),
            "omega": (jumps, jumps["source"]["jumps"][2]),
            "dim": (jumps, jumps["algebra"]),
            "decomp": (tols, tols["tolerances"]),
            "axiom": (tols, tols["tolerances"]),
            "cond_max": (tols, tols["tolerances"]),
            "jumps": (jumps, jumps["source"]),
            "blocks": (blocks, blocks["algebra"]),
            "I": (aw, aw["source"]["fock_spec"]),
            "A": (aw, aw["source"]["fock_spec"]),
        }[field]
        holder[field] = "VALUE"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario).replace('"VALUE"', raw))
        assert main(["run", str(path)]) == code
        assert ("parse error" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("raw", ["true", "[true, 1]", "NaN", "Infinity"])
    @pytest.mark.parametrize("source", ["h", "jumps", "generator", "A"])
    def test_bad_matrix_entry(self, tmp_path, capsys, source, raw):
        """A bool, a pair holding one, NaN or Infinity as a matrix entry is a
        parse error, raised before any arithmetic can warn on it."""
        aw = {"v": 1, "source": {"fock_spec": {"A": [[1, 0], [0, 1]]}},
              "checks": ["free-aw-derivation"]}
        jumps = base_scenario()
        gen = base_scenario(source={"generator": [[0] * 4 for _ in range(4)]})
        scenario, matrix = {
            "h": (jumps, jumps["algebra"]["h"]),
            "jumps": (jumps, jumps["source"]["jumps"][0]["matrix"]),
            "generator": (gen, gen["source"]["generator"]),
            "A": (aw, aw["source"]["fock_spec"]["A"]),
        }[source]
        matrix[1][1] = "VALUE"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario).replace('"VALUE"', raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert "parse error" in err and "Warning" not in err

    @pytest.mark.parametrize("file_tol, flag, code", [
        ({}, "decomp=-1", 2), ({}, "decomp=0", 2), ({}, "decomp=nan", 2),
        ({}, "decomp=inf", 2), ({}, "decomp=true", 2), ({}, "cond_max=0.5", 2),
        ({"cond_max": 0.5}, "cond_max=10", 0), ({"cond_max": 10}, "cond_max=0.5", 2),
        ({}, "decomp=1e-12", 0),
    ])
    def test_tol_flag_validation(self, tmp_path, capsys, file_tol, flag, code):
        """--tol values are finite numbers > 0; they apply after the file's
        tolerances, and the algebra is built with the result."""
        path = write_scenario(tmp_path, base_scenario(tolerances=file_tol))
        assert main(["run", path, "--tol", flag]) == code
        assert ("parse error" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("suite", ["carre-positivity", "fock-commutant"])
    @pytest.mark.parametrize("source", ["jumps", "generator"])
    def test_system_without_jumps(self, tmp_path, capsys, suite, source):
        """No jumps (or a zero generator): Gamma = 0 and F(0) = L2(M), so
        every residual is 0 and the run passes."""
        scenario = base_scenario(checks=[suite])
        scenario["source"] = ({"jumps": []} if source == "jumps"
                              else {"generator": [[0] * 4] * 4})
        path = write_scenario(tmp_path, scenario)
        report = tmp_path / "report.json"
        assert main(["run", path, "--json", str(report)]) == 0
        capsys.readouterr()
        checks = json.loads(report.read_text())["checks"]
        assert checks and all(c["residual"] == 0.0 for c in checks)

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
    def test_size_limit_is_scenario_error(self, tmp_path, capsys, monkeypatch,
                                          suite, code):
        """An n = 5 scenario passes under the default stage limit; with the
        limit at 1 MiB each Gram suite is refused with exit 2 (``code``),
        never 3, and a suite without a counted stage still passes."""
        from qms.sampling import random_jump_system, random_weighted_algebra
        rng = np.random.default_rng(77)
        w = random_weighted_algebra(5, rng)
        system = random_jump_system(w, rng, m_max=4)
        scenario = base_scenario(checks=[suite])
        scenario["algebra"] = {"dim": 5, "h": mat_json(w.h)}
        scenario["source"] = {"jumps": [{"matrix": mat_json(v), "omega": om}
                                        for v, om in system.jumps]}
        path = write_scenario(tmp_path, scenario)
        assert main(["run", path]) == 0
        assert "SizeLimitExceeded" not in capsys.readouterr().err
        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES", 1 << 20)
        assert main(["run", path]) == code
        assert ("scenario error: SizeLimitExceeded" in capsys.readouterr().err) \
            == (code == 2)

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

    @pytest.mark.parametrize("suite", ["triple-agreement", "uniqueness",
                                       "gram-axioms"])
    def test_certified_once(self, tmp_path, capsys, monkeypatch, qubit_system3,
                            suite):
        """The certificate of the input generator serves certify-generator,
        the extraction and the Gram suite's gate: one certify call."""
        import qms.lindblad
        import qms.suites
        certify = qms.lindblad.certify
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        for module in (qms.lindblad, qms.suites):
            monkeypatch.setattr(module, "certify", counting)
        scenario = base_scenario(checks=["certify-generator", suite])
        scenario["source"] = generator_source(qubit_system3)
        assert main(["run", write_scenario(tmp_path, scenario)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert len(calls) == 1


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

    def test_free_aw_depth_over_budget(self, tmp_path, capsys):
        """A 2 x 2 A at depth 12 would need about 1 TB: a named scenario error."""
        scenario = {
            "v": 1,
            "source": {"fock_spec": {"A": [[1, 0], [0, 1]], "depth": 12}},
            "checks": ["free-aw-derivation"],
        }
        assert main(["run", write_scenario(tmp_path, scenario)]) == 2
        assert "scenario error: SizeLimitExceeded" in capsys.readouterr().err

    def test_fock_commutant_over_budget(self, tmp_path, capsys):
        """n = 4 with 15 jumps: the commutant check's images of the safe
        columns would take about 226 MiB each, a named scenario error."""
        from qms.sampling import random_jump_system, random_weighted_algebra
        rng = np.random.default_rng(78)
        w = random_weighted_algebra(4, rng)
        system = random_jump_system(w, rng, m_max=15)
        while system.m != 15:
            system = random_jump_system(w, rng, m_max=15)
        scenario = base_scenario(checks=["fock-commutant"])
        scenario["algebra"] = {"dim": 4, "h": mat_json(w.h)}
        scenario["source"] = {"jumps": [{"matrix": mat_json(v), "omega": om}
                                        for v, om in system.jumps]}
        assert main(["run", write_scenario(tmp_path, scenario)]) == 2
        assert "scenario error: SizeLimitExceeded" in capsys.readouterr().err


# --- inputs at the edges: a report or a named error, never exit 3 -------------

# P_t = I: a valid GNS-symmetric semigroup with E = 0, on M_2 and on M_1
TRIVIAL = {
    "no-jumps-n2": ({"h": [[0.6, 0], [0, 0.4]]}, {"jumps": []}),
    "zero-generator-n2": ({"h": [[0.6, 0], [0, 0.4]]}, {"generator": [[0] * 4] * 4}),
    "no-jumps-n1": ({"h": [[1]]}, {"jumps": []}),
    "zero-generator-n1": ({"h": [[1]]}, {"generator": [[0]]}),
}


@pytest.mark.parametrize("suite", NON_FOCK_SUITES + ["fock-commutant"])
@pytest.mark.parametrize("case", sorted(TRIVIAL))
def test_trivial_semigroup_passes(tmp_path, capsys, case, suite):
    """Every suite that takes the source passes; on M_1 the generator source
    gives the empty jump system (M_1 has no traceless basis), and
    stinespring-rate fits no slope to deviations that are rounding only."""
    algebra, source = TRIVIAL[case]
    path = write_scenario(tmp_path, {"v": 1, "algebra": algebra, "source": source,
                                     "checks": [suite]})
    assert main(["run", path]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("omega, tolerances", [
    (800.0, {}), (-800.0, {}), (3000.0, {}), (-3000.0, {}), (1e308, {}),
    (5.0, {"cond_max": 100.0})])
def test_weight_beyond_log_cond_max_is_parse_error(tmp_path, capsys, omega, tolerances):
    """No valid jump over an admitted density (cond(h) <= cond_max) carries
    a weight of modulus above log cond_max: refused before any suite runs."""
    scenario = base_scenario(checks=["alicki-validate"], tolerances=tolerances)
    scenario["source"]["jumps"][0]["omega"] = omega
    assert main(["run", write_scenario(tmp_path, scenario)]) == 2
    assert "exceeds log cond_max" in capsys.readouterr().err


def test_weight_at_log_cond_max_is_admitted(tmp_path, capsys):
    scenario = base_scenario(checks=["alicki-validate"])
    scenario["source"]["jumps"][0]["omega"] = float(np.log(1e12))
    assert main(["run", write_scenario(tmp_path, scenario)]) == 1
    assert "alicki/modular-eigenvector" in capsys.readouterr().out


def run_without_runtime_warnings(argv):
    """The exit code of ``main(argv)``, asserting that numpy raised no
    floating-point (Runtime) warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def test_generator_without_finite_norm_is_parse_error(tmp_path, capsys):
    scenario = base_scenario(checks=["certify-generator"])
    scenario["source"] = {"generator": (1e200 * np.eye(4)).tolist()}
    assert run_without_runtime_warnings(["run", write_scenario(tmp_path, scenario)]) == 2
    assert "Frobenius norm overflows" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e160, 2e154])
def test_jump_without_finite_squared_norm_is_parse_error(tmp_path, capsys, scale):
    """The reference pair scaled by 1e160 (its norm overflows) or 2e154 (its
    norm is finite, its square is not): refused before any suite runs, with
    one line on stderr and no report."""
    scenario = base_scenario(checks=["alicki-validate", "bimodule-axioms"])
    for jump in scenario["source"]["jumps"]:
        jump["matrix"] = (scale * np.array(jump["matrix"])).tolist()
    report = tmp_path / "report.json"
    argv = ["run", write_scenario(tmp_path, scenario), "--json", str(report)]
    assert run_without_runtime_warnings(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["parse error: a jump's squared Frobenius norm overflows: "
                                "the generator sums its products"]
    assert not report.exists()


def test_growing_semigroup_is_named_check_failure(tmp_path, capsys):
    """L = -1000 I: e^{-tL} overflows, so L generates no Markov semigroup;
    stderr holds the named error alone."""
    scenario = base_scenario(checks=["certify-generator"])
    scenario["source"] = {"generator": (-1000.0 * np.eye(4)).tolist()}
    assert run_without_runtime_warnings(["run", write_scenario(tmp_path, scenario)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("check failure: NotContractive")


_OMEGAS = ("zero", "match", "flip", 1e3, -1e3, 1e308, -1e308)


@st.composite
def edge_scenarios(draw):
    """A scenario over diag(lam), n in {1, 2, 3}: 0-4 jumps c E_ab with
    weight 0, +-log(lam_b / lam_a) (the valid one and its negative), +-1e3
    or +-1e308, as jumps or as the generator they build; 1-3 non-Fock suites."""
    n = draw(st.integers(1, 3))
    lam = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    lam /= lam.sum()
    jumps = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = np.zeros((n, n), dtype=complex)
        v[a, b] = draw(st.sampled_from([1.0, 0.5j, 1e-200]))
        kind = draw(st.sampled_from(_OMEGAS))
        valid = float(np.log(lam[b] / lam[a]))
        jumps.append((v, {"zero": 0.0, "match": valid, "flip": -valid}.get(kind, kind)))
    if draw(st.booleans()):
        source = {"jumps": [{"matrix": mat_json(v), "omega": om} for v, om in jumps]}
    else:
        w = WeightedAlgebra(np.diag(lam))
        with np.errstate(over="ignore", invalid="ignore"):
            gen = build_generator(JumpSystem(W=w, jumps=jumps), validate=False)
        source = {"generator": mat_json(gen.matrix)}
    checks = draw(st.lists(st.sampled_from(NON_FOCK_SUITES), min_size=1, max_size=3,
                           unique=True))
    return {"v": 1, "algebra": {"h": mat_json(np.diag(lam))}, "source": source,
            "checks": checks}


@settings(max_examples=80)
@example(sc={"v": 1, "algebra": {"h": [[1]]}, "source": {"generator": [[0]]},
             "checks": NON_FOCK_SUITES})
@example(sc=base_scenario(source={"jumps": [
    {"matrix": [[0, 0], [1, 0]], "omega": 800.0},
    {"matrix": [[0, 1], [0, 0]], "omega": -800.0}]}, checks=NON_FOCK_SUITES))
@example(sc={"v": 1, "algebra": {"h": [[0.6, 0], [0, 0.4]]}, "checks": ["bimodule-axioms"],
             "source": {"jumps": [
                 {"matrix": [[0, 0], [1e-200, 0]], "omega": float(np.log(1.5))},
                 {"matrix": [[0, 1e-200], [0, 0]], "omega": -float(np.log(1.5))}]}})
@given(sc=edge_scenarios())
def test_edge_scenarios_exit_named(tmp_path_factory, sc):
    """Every such scenario ends in exit 0, 1 or 2 with a finite report."""
    work = tmp_path_factory.mktemp("edge")
    path, report = work / "scenario.json", work / "report.json"
    path.write_text(json.dumps(sc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_without_runtime_warnings(["run", str(path), "--json", str(report)])
    assert code in (0, 1, 2), err.getvalue()
    text = report.read_text() if report.exists() else ""
    assert "NaN" not in text and "Infinity" not in text
