import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from conefan.cli import main

WORKED = {
    "ambient_dim": 2,
    "grading_rank": 2,
    "generators": [
        {"degree": [1, 0], "ideal": [[1, 0]]},
        {"degree": [0, 1], "ideal": [[0, 1]]},
        {"degree": [1, 1], "ideal": [[1, 1], [2, 0]]},
    ],
}

HALFSTEP = {
    "ambient_dim": 2,
    "grading_rank": 1,
    "generators": [
        {"degree": [1], "ideal": [[2, 0], [0, 2]]},
        {"degree": [2], "ideal": [[1, 0], [0, 1]]},
    ],
}


# the 3x3 bench system of the verify benchmarks
BENCH = {
    "ambient_dim": 3,
    "grading_rank": 3,
    "generators": [
        {"degree": [1, 3, 1], "ideal": [[2, 3, 2], [3, 1, 0]]},
        {"degree": [3, 1, 1], "ideal": [[0, 1, 4]]},
        {"degree": [1, 3, 3], "ideal": [[2, 1, 4], [3, 0, 3], [3, 2, 0]]},
    ],
}


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def test_phi_success(capsys):
    code = main(
        [
            "phi",
            "--generators",
            "[[1,0],[0,1],[1,1]]",
            "--alpha",
            "[1,1,1]",
            "--v",
            "[1,1]",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "phi = 1" in out
    assert "witness = (0, 0, 1)" in out
    assert "dual max = 1" in out


def test_phi_rational_output(capsys):
    code = main(
        [
            "phi",
            "--generators",
            "[[2,0],[0,2]]",
            "--alpha",
            "[1,1]",
            "--v",
            "[1,1]",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "phi = 1" in out  # 1/2 + 1/2
    assert "witness = (1/2, 1/2)" in out


def test_phi_not_in_cone(capsys):
    code = main(
        [
            "phi",
            "--generators",
            "[[1,0],[0,1],[1,1]]",
            "--alpha",
            "[1,1,1]",
            "--v",
            "[-1,0]",
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "not in cone" in err


def test_phi_negative_cost_is_usage_error(capsys):
    code = main(
        [
            "phi",
            "--generators",
            "[[1,0]]",
            "--alpha",
            "[-1]",
            "--v",
            "[1,0]",
        ]
    )
    assert code == 2


def test_phi_malformed_json():
    assert main(["phi", "--generators", "[[1,0]", "--alpha", "[1]", "--v", "[1,0]"]) == 2


def test_fan_linearity(capsys):
    code = main(["fan", "--generators", "[[1,0],[0,1],[1,1]]", "--linearity"])
    out = capsys.readouterr().out
    assert code == 0
    assert "maximal cones (2)" in out
    assert "(1, 0), (1, 1)" in out


def test_fan_smooth(capsys):
    code = main(["fan", "--generators", "[[1,0],[1,2]]", "--smooth"])
    out = capsys.readouterr().out
    assert code == 0
    assert "maximal cones (2)" in out
    assert "(1, 1)" in out


def test_fan_single_ray(capsys):
    code = main(["fan", "--generators", "[[2,4]]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "maximal cones (1)" in out


def test_fan_normal_fan(capsys):
    code = main(
        [
            "fan",
            "--generators",
            "[[1,0],[0,1],[1,1]]",
            "--normal-fan-alpha",
            "[1,1,1]",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "maximal cones (2)" in out


def test_fan_normal_fan_rejects_ragged_generators(capsys):
    # the short generator used to be dropped, and a fan of one cone was
    # printed with exit 0
    args = ["fan", "--generators", "[[1,0],[0]]", "--normal-fan-alpha", "[1,1]"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "generator dimension mismatch" in _one_error_line(captured.err)


def test_fan_check(capsys):
    code = main(
        [
            "fan",
            "--generators",
            "[[1,0],[0,1],[1,1]]",
            "--linearity",
            "--check",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "linearity check: PASS" in out


def test_fan_non_pointed(capsys):
    code = main(["fan", "--generators", "[[1,0],[-1,0]]"])
    assert code == 2


def test_verify_worked(worked_file, capsys, tmp_path):
    report_path = str(tmp_path / "report.json")
    code = main(["verify", worked_file, "--json", report_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFIED (d = 1" in out
    payload = json.loads(open(report_path).read())
    assert payload["status"] == "verified"
    assert payload["report"]["exponent"] == 1
    assert payload["input_digest"].startswith("sha256:")


def test_verify_adversarial(worked_file, capsys):
    code = main(["verify", worked_file, "--no-refine"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FALSIFIED" in out
    witness = re.search(r"weight \(.*\) gives (\S+) vs (\S+)", out)
    assert witness and witness.group(1) != witness.group(2)


def test_verify_halfstep(tmp_path, capsys):
    path = tmp_path / "halfstep.json"
    path.write_text(json.dumps(HALFSTEP))
    code = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFIED (d = 2" in out


def test_verify_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED)))
    code = main(["verify", "-", "--p-bound", "2"])
    assert code == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bad": 1}')
    assert main(["verify", str(path)]) == 2
    path2 = tmp_path / "nojson.json"
    path2.write_text("not json")
    assert main(["verify", str(path2)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_verify_merges_duplicate_degrees(tmp_path, capsys):
    doubled = {
        "ambient_dim": 1,
        "grading_rank": 1,
        "generators": [
            {"degree": [1], "ideal": [[2]]},
            {"degree": [1], "ideal": [[1]]},
        ],
    }
    path = tmp_path / "dupe.json"
    path.write_text(json.dumps(doubled))
    code = main(["verify", str(path)])
    assert code == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_minimalizes_the_ideals_of_a_file(tmp_path, capsys):
    # the command line builds each ideal with from_exponents, so redundant
    # and unsorted exponents are accepted and give the minimal ideal's report
    padded = json.loads(json.dumps(WORKED))
    padded["generators"][2]["ideal"] = [[2, 1], [2, 0], [3, 3], [1, 1]]
    reports = []
    for name, system in (("worked", WORKED), ("padded", padded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system))
        assert main(["verify", str(path), "--json", str(tmp_path / f"{name}_report.json")]) == 0
        reports.append(json.loads((tmp_path / f"{name}_report.json").read_text())["report"])
    assert reports[0] == reports[1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "system, caps",
    [(WORKED, []), (BENCH, ["--p-bound", "3", "--L", "1"])],
    ids=["worked", "bench"],
)
def test_verify_report_does_not_depend_on_cache_state(system, caps, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    report = tmp_path / "report.json"

    def digest():
        assert main(["verify", str(path), *caps, "--json", str(report)]) == 0
        return hashlib.sha256(report.read_bytes()).hexdigest()

    first = digest()
    warm = digest()
    # a fresh interpreter holds nothing an earlier run made
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cold = tmp_path / "cold.json"
    proc = subprocess.run(
        [sys.executable, "-m", "conefan.cli", "verify", str(path), *caps]
        + ["--json", str(cold)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(cold.read_bytes()).hexdigest() == warm == first


@pytest.mark.parametrize(
    "index, key, value",
    [(0, "degree", [True, 0]), (2, "degree", [1, False]), (1, "ideal", [[0, True]])],
)
def test_verify_rejects_bool_entries(tmp_path, capsys, index, key, value):
    # JSON true is not the integer 1: a bool in a degree or an exponent is
    # a validation error (exit 2), as it is in fan --generators
    system = json.loads(json.dumps(WORKED))
    system["generators"][index][key] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(system))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: not a rational scalar: ")
    assert main(["fan", "--generators", "[[true,0],[0,1]]"]) == 2


# a JSON string is not an array: iterated, "10" would be the digits (1, 0),
# and {"degree": "10", "ideal": ["10"]} would verify as degree (1, 0) with
# ideal (x)
STRING_ARRAYS = [
    {"degree": "10", "ideal": ["10"]},
    {"degree": "10", "ideal": [[1, 0]]},
    {"degree": [1, 0], "ideal": "10"},
    {"degree": [1, 0], "ideal": ["10"]},
    {"degree": [1, 0], "ideal": [[1, 0], "01"]},
]


def _string_array_file(tmp_path, k, entry) -> str:
    path = tmp_path / f"strings{k}.json"
    path.write_text(json.dumps({"ambient_dim": 2, "grading_rank": 2, "generators": [entry]}))
    return str(path)


def test_verify_rejects_strings_for_arrays(tmp_path, capsys):
    for k, entry in enumerate(STRING_ARRAYS):
        path = _string_array_file(tmp_path, k, entry)
        assert main(["verify", path]) == 2, entry
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be JSON arrays" in _one_error_line(captured.err)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "conefan.cli", "verify", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, (entry, proc.stderr)
        assert proc.stdout == ""
        assert "must be JSON arrays" in _one_error_line(proc.stderr)


# the worked system's first generator with numeric strings for entries:
# ivec would read them as integers, and the system would verify (exit 0);
# a float or a bool entry is refused by ivec itself (exit 2, as above)
NUMERIC_STRING_ENTRIES = [
    {"degree": ["1", "0"], "ideal": [["1", "0"]]},
    {"degree": ["1", 0], "ideal": [[1, 0]]},
    {"degree": [1, 0], "ideal": [[1, "0"]]},
]


def test_verify_rejects_numeric_strings_for_integers(tmp_path, capsys):
    for k, entry in enumerate(NUMERIC_STRING_ENTRIES):
        data = json.loads(json.dumps(WORKED))
        data["generators"][0] = entry
        path = tmp_path / f"entries{k}.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 2, entry
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be JSON integers" in _one_error_line(captured.err)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "conefan.cli", "verify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, (entry, proc.stderr)
        assert proc.stdout == ""
        assert "must be JSON integers" in _one_error_line(proc.stderr)


def test_verify_deterministic_reports(worked_file, tmp_path):
    p1 = str(tmp_path / "r1.json")
    p2 = str(tmp_path / "r2.json")
    assert main(["verify", worked_file, "--json", p1, "--seed", "3"]) == 0
    assert main(["verify", worked_file, "--json", p2, "--seed", "3"]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_cli_entry_point_subprocess(worked_file):
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "conefan.cli", "verify", worked_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "VERIFIED" in proc.stdout


def test_usage_error_exit_code():
    assert main(["fan"]) == 2
    assert main(["nonsense"]) == 2


def test_verify_d_cap_exhausted_is_budget_error(tmp_path, capsys):
    path = tmp_path / "halfstep.json"
    path.write_text(json.dumps(HALFSTEP))
    code = main(["verify", str(path), "--d-cap", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no stabilizing exponent" in err


# the limit polyhedron of the ray (1, 2, 1) has vertex denominators with
# lcm 105, so no exponent up to 64 can stabilize that ray, and 210 does
DENOMINATOR = {
    "ambient_dim": 3,
    "grading_rank": 3,
    "generators": [
        {"degree": [0, 3, 0], "ideal": [[0, 2, 2], [2, 3, 0]]},
        {"degree": [1, 3, 1], "ideal": [[1, 2, 2]]},
        {"degree": [1, 2, 3], "ideal": [[1, 2, 1], [3, 0, 1]]},
        {"degree": [2, 3, 1], "ideal": [[2, 2, 3]]},
    ],
}


def test_verify_names_the_vertex_denominator_lcm(tmp_path, capsys):
    path = tmp_path / "denominator.json"
    path.write_text(json.dumps(DENOMINATOR))
    assert main(["verify", str(path), "--d-cap", "64"]) == 2
    assert capsys.readouterr().err == (
        "error: no stabilizing exponent <= 64 found for ray (1, 2, 1): the "
        "vertex denominators of its limit polyhedron have lcm 105\n"
    )
    flags = ["--d-cap", "210", "--p-bound", "2", "--L", "1"]
    assert main(["verify", str(path), *flags]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "VERIFIED (d = 210, 31 cones)"


def test_verify_caps_from_file(tmp_path, capsys):
    data = dict(HALFSTEP)
    data["caps"] = {"p_bound": 2, "d_cap": 8, "L": 4, "seed": 1}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path)])
    assert code == 0
    assert "VERIFIED (d = 2" in capsys.readouterr().out


# caps that are not JSON integers, or that would leave no nonzero tuple or
# no exponent to check, from the file or from a flag: each is a usage error
BAD_CAPS = {
    "p_bound-string": ({"p_bound": "x"}, []),
    "seed-string": ({"seed": "x"}, []),
    "caps-not-object": ("oops", []),
    "p_bound-float": ({"p_bound": 2.7}, []),
    "p_bound-bool": ({"p_bound": True}, []),
    "p_bound-zero": ({"p_bound": 0}, []),
    "d_cap-zero": ({"d_cap": 0}, []),
    "p-bound-flag-negative": ({}, ["--p-bound", "-3"]),
    "L-flag-negative": ({}, ["--L", "-1"]),
}


def _bad_caps_file(tmp_path, caps) -> str:
    path = tmp_path / "caps.json"
    path.write_text(json.dumps(dict(WORKED, caps=caps)))
    return str(path)


@pytest.mark.parametrize("caps, flags", BAD_CAPS.values(), ids=BAD_CAPS.keys())
def test_verify_rejects_bad_caps(tmp_path, capsys, caps, flags):
    assert main(["verify", _bad_caps_file(tmp_path, caps), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_verify_rejects_bad_caps_under_python_O(tmp_path):
    for caps, flags in BAD_CAPS.values():
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "conefan.cli", "verify",
             _bad_caps_file(tmp_path, caps), *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, (caps, flags, proc.stderr)
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_fan_check_fails_on_unrefined_cone(capsys):
    code = main(
        [
            "fan",
            "--generators",
            "[[1,0],[0,1],[1,1]]",
            "--check",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "linearity check: FAIL" in out


def test_fan_check_exit_codes_survive_python_O():
    # the chamber test decides PASS/FAIL without assert statements
    for flags, code in ((["--linearity"], 0), ([], 1)):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "conefan.cli", "fan", "--generators",
             "[[1,0],[0,1],[1,1]]", "--check", *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code, proc.stderr
        verdict = "PASS (2 cones)" if code == 0 else "FAIL (1/1 cones)"
        assert f"linearity check: {verdict}" in proc.stdout


def test_fan_takes_no_seed(capsys):
    # --check is exact, so fan has no --seed: passing one is a usage error
    args = ["fan", "--generators", "[[1,0],[0,1],[1,1],[1,2]]", "--check"]
    assert main(args + ["--seed", "0"]) == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_fan_check_caps_generator_count(capsys):
    gens = json.dumps([[1, k] for k in range(13)])
    assert main(["fan", "--generators", gens, "--check"]) == 2
    assert "capped at 12 generators" in capsys.readouterr().err


_UNDER_O = (
    "import sys\n"
    "if __debug__:\n"
    "    sys.exit('not running under -O')\n"
    "from conefan import _kernel, cli, graded\n"
)


def _assert_internal_error_under_O(body, message):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O + body],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ")
    assert message in lines[0]


def test_internal_error_exits_3_under_python_O(worked_file, tmp_path):
    # a failed consistency check is a bug: exit 3 with one line on stderr,
    # never a FALSIFIED report, and it must not depend on assert statements
    report = tmp_path / "report.json"
    halfstep = tmp_path / "halfstep.json"
    halfstep.write_text(json.dumps(HALFSTEP))
    cases = [
        (
            "_kernel.simplex_rows = lambda rows, den, basis, k: ('unbounded', 0, den)\n"
            "sys.exit(cli.main(['phi', '--generators', '[[1,0],[0,1],[1,1]]',\n"
            "    '--alpha', '[1,1,1]', '--v', '[1,1]']))\n",
            "phase 1 cannot be unbounded",
        ),
        (
            "real = graded.asymptotic_valuation\n"
            "graded.asymptotic_valuation = lambda s, w, m: real(s, w, m) + 1\n"
            f"sys.exit(cli.main(['verify', {worked_file!r}, '--json', {str(report)!r}]))\n",
            "disagrees with the asymptotic",
        ),
        (
            # an exponent certificate that claims d = 1 for the half-step
            # system, whose ray needs 2
            "graded._stabilize = lambda forms, fan, cap, checks: "
            "graded.ExponentCertificate(1, (((1,), 1),))\n"
            f"sys.exit(cli.main(['verify', {str(halfstep)!r}, '--json', {str(report)!r}]))\n",
            "fan ray (1,) is not stable at its exponent 1",
        ),
    ]
    # points at (2, 1) that break each theorem link of the valuation chain
    # on the worked system, with the cone certificate off so that the tuple
    # check runs: no degree point, degree points missing the product of
    # the ray ideals, degree points outside P((2, 1)), and doubled limit
    # points, which shrink P((2, 1)) below the product
    for name, broken, message in [
        ("_degree_points", "()", "is zero under a nonzero product"),
        ("_degree_points", "((2, 2), (4, 0))", "product of the ray ideals is not inside"),
        ("_degree_points", "((1, 0),)", "is not inside 1 times the limit polyhedron"),
        (
            "_limit_points",
            "(tuple(tuple(2 * x for x in c) for c in real(s, m)[0]), real(s, m)[1])",
            "product of the ray ideals in degree (2, 1) is not inside 1 times",
        ),
    ]:
        body = (
            "graded._cone_certified = lambda *args: False\n"
            f"real = graded.{name}\n"
            f"graded.{name} = lambda s, m: {broken} "
            "if tuple(m) == (2, 1) else real(s, m)\n"
            f"sys.exit(cli.main(['verify', {worked_file!r}, '--p-bound', '3', "
            f"'--json', {str(report)!r}]))\n"
        )
        cases.append((body, message))
    for body, message in cases:
        _assert_internal_error_under_O(body, message)
    assert not report.exists()


def test_degree_point_outside_its_limit_exits_3(tmp_path, capsys, monkeypatch):
    # the origin added to every nonzero degree of the bench system breaks
    # NP(a_{k e}) within k P(e) on the first ray tried: an internal error,
    # plain and under -O, never "no stabilizing exponent" (exit 2)
    import conefan.graded as graded

    path = tmp_path / "bench.json"
    path.write_text(json.dumps(BENCH))
    report = tmp_path / "report.json"
    message = "the Newton polyhedron in degree (4, 4, 4) is not inside 4 times"
    patch = (
        "real = graded._degree_points\n"
        "graded._degree_points = lambda s, m: "
        "tuple(sorted({*real(s, m), (0,) * s.ambient})) if any(m) else real(s, m)\n"
    )
    run = f"sys.exit(cli.main(['verify', {str(path)!r}, '--json', {str(report)!r}]))\n"
    _assert_internal_error_under_O(patch + run, message)
    real = graded._degree_points
    monkeypatch.setattr(
        graded,
        "_degree_points",
        lambda s, m: tuple(sorted({*real(s, m), (0,) * s.ambient})) if any(m) else real(s, m),
    )
    assert main(["verify", str(path), "--json", str(report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ")
    assert message in lines[0]
    assert not report.exists()


def test_orthant_hull_checks_exit_3_under_python_O(worked_file, tmp_path):
    # the integer Newton hull keeps both of its consistency checks: a
    # lineality space in the dual cone and an absurd row (0 <= -1)
    report = tmp_path / "report.json"
    run = f"sys.exit(cli.main(['verify', {worked_file!r}, '--json', {str(report)!r}]))\n"
    cases = [
        (
            "graded.cone_generators = lambda rows, dim: "
            "(((1,) + (0,) * (dim - 1),), ())\n",
            "orthant hull is not full-dimensional",
        ),
        (
            "graded.cone_generators = lambda rows, dim: "
            "((), ((0,) * (dim - 1) + (-1,),))\n",
            "homogenized hull gave an absurd row",
        ),
    ]
    for body, message in cases:
        _assert_internal_error_under_O(body + run, message)
    assert not report.exists()


def _one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize("key", ["ambient_dim", "grading_rank"])
@pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
def test_verify_rejects_non_integer_dimensions(tmp_path, capsys, key, value):
    # int() would read 2.7 as 2, true as 1 and "2" as 2, and the worked
    # system would verify
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(WORKED, **{key: value})))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} must be an integer" in _one_error_line(captured.err)


def test_verify_unwritable_report_is_usage_error(worked_file, tmp_path, capsys):
    # found before the run: no verdict is printed and the exit code is not
    # FALSIFIED's 1
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        assert main(["verify", worked_file, "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write report" in _one_error_line(captured.err)
    assert not (tmp_path / "missing").exists()


def test_verify_failed_run_keeps_existing_report(worked_file, tmp_path, capsys):
    # a run that fails after the report path was opened leaves an existing
    # file as it was
    report = tmp_path / "report.json"
    report.write_text("earlier\n")
    assert main(["verify", worked_file, "--p-bound", "0", "--json", str(report)]) == 2
    _one_error_line(capsys.readouterr().err)
    assert report.read_text() == "earlier\n"


HUGE_MULTIPLICITY = '[[3,"1/3",1],[0,2,1],["2/3","1/2",0],["3/2",0,2],["2/3",2,0]]'


ZERO_RAY = {
    "ambient_dim": 1,
    "grading_rank": 2,
    "generators": [
        {"degree": [1, 0], "ideal": [[1]]},
        {"degree": [0, 1], "ideal": []},
    ],
}


def test_verify_ray_with_only_zero_ideals_names_the_cause(tmp_path, capsys):
    # the ray (0, 1) carries only the zero ideal: exit 2 as before, but the
    # message names the empty cone, not the exponent cap
    path = tmp_path / "zero_ray.json"
    path.write_text(json.dumps(ZERO_RAY))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = _one_error_line(captured.err)
    assert line == (
        "error: fan ray (0, 1) lies outside the cone of the degrees with a "
        "nonzero ideal, so its ideals are all zero"
    )
    assert "cap" not in line and "64" not in line
    live = dict(ZERO_RAY, generators=ZERO_RAY["generators"][:1])
    path.write_text(json.dumps(live))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "VERIFIED (d = 1, 1 cones)"


def test_out_of_memory_is_a_usage_exit_not_a_verdict(worked_file, monkeypatch, capsys):
    # exit 1 would read as FALSIFIED; a MemoryError says nothing about the
    # system, so it exits 2 with one error line and no traceback
    import conefan.graded as graded

    def exhausted(exponents):
        raise MemoryError

    monkeypatch.setattr(graded, "_minimalize", exhausted)
    assert main(["verify", worked_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) == "error: out of memory"


def test_unexpected_exception_is_an_internal_error(worked_file, monkeypatch, capsys):
    # a bug that raises an exception conefan never raises on purpose exited
    # 1, the FALSIFIED code, with a traceback; it is an internal error (exit
    # 3) with one line on stderr, plain and under -O
    import conefan.graded as graded

    def broken(exponents):
        raise ZeroDivisionError("integer division or modulo by zero")

    line = "internal error: ZeroDivisionError: integer division or modulo by zero"
    monkeypatch.setattr(graded, "_minimalize", broken)
    assert main(["verify", worked_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    body = (
        "def broken(exponents):\n"
        "    raise ZeroDivisionError('integer division or modulo by zero')\n"
        "graded._minimalize = broken\n"
        f"sys.exit(cli.main(['verify', {worked_file!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O + body],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [line]


def test_fan_smooth_caps_multiplicity(capsys):
    # chambers of multiplicity up to 135,200 (3,070,080 once triangulated)
    # are refused before their group is listed; that listing died of
    # MemoryError with exit 1
    args = ["fan", "--generators", HUGE_MULTIPLICITY, "--linearity", "--smooth"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capped at multiplicity" in _one_error_line(captured.err)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "conefan.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "capped at multiplicity" in _one_error_line(proc.stderr)
