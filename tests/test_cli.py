import json
import math
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from dyadicspec.cli import (
    Config,
    ConfigError,
    builtin_example,
    format_g,
    main,
    parse_config,
    render_config,
    run,
)
from dyadicspec import cli, levels
from dyadicspec.classify import ClassifyParams
from dyadicspec.exactnum import PiLinear
from dyadicspec.levels import LevelCache
from dyadicspec.spectrum import ConsistencyError, Rect, VLine

from conftest import random_spectrum


CONFIG = """
# rectangle with custom depths
spectrum rect re=[-1,0] im=[-1*pi,1*pi]
spectrum vline re=0
n_max 6
K 3
search_depth 10
node_budget 500
epsilon 1/10,1/100
delta 3/2
float_digits 10
ext_zero false
emit_csv true
tower constant 2,1
lambda 1,0.5
"""


def test_parse_config_fields():
    cfg = parse_config(CONFIG)
    assert isinstance(cfg.spectrum.primitives[0], Rect)
    assert isinstance(cfg.spectrum.primitives[1], VLine)
    assert cfg.params.n_max == 6
    assert cfg.params.K == 3
    assert cfg.params.epsilons == (F(1, 10), F(1, 100))
    assert cfg.params.delta == F(3, 2)
    assert cfg.params.ext_zero is False
    assert cfg.emit_csv is True
    assert cfg.tower is not None and cfg.tower.rank == 2
    assert cfg.lambdas == (1 + 0j, 0.5 + 0j)


def _roundtrips(cfg: Config):
    text = render_config(cfg)
    assert parse_config(text) == cfg
    assert render_config(parse_config(text)) == text


def test_roundtrip_render_parse():
    cfg = parse_config(CONFIG)
    assert "tower constant 2,1" in render_config(cfg) and "lambda 1,0.5" in render_config(cfg)
    _roundtrips(cfg)
    for name in ("roots2k", "solenoid", "rectangle", "primefamily"):
        _roundtrips(builtin_example(name))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config("spectrum rect re=[-1,0] im=[-1*pi,1*pi]\nbogus 3\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config("spectrum rect re=[0,-1] im=[0,1*pi]\n")
    assert "re_lo > re_hi" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("n_max zero\n")
    with pytest.raises(ConfigError):
        parse_config("spectrum point re=0\n")  # missing im=
    with pytest.raises(ConfigError):
        parse_config("spectrum point re=0 im=1*pi extra=2\n")
    with pytest.raises(ConfigError):
        parse_config("spectrum ilattice re=0 base=0 step=-2*pi\n")


def test_builtin_verdicts_and_exit_codes():
    code, text = run("classify", builtin_example("rectangle"))
    assert code == 0 and "UniformlyContinuous" in text
    code, text = run("classify", builtin_example("solenoid"))
    assert code == 0 and "NotStronglyContinuous" in text


def test_inconclusive_exit_code():
    cfg = parse_config("spectrum vline re=0\nnode_budget 1\nsearch_depth 2\nn_max 4\n")
    code, text = run("classify", cfg)
    assert code == 2
    assert "Inconclusive" in text


def test_reports_byte_stable():
    cfg = builtin_example("primefamily")
    _, a = run("classify", cfg)
    _, b = run("classify", cfg)
    assert a == b
    _, ja = run("classify", cfg, as_json=True)
    json.loads(ja)  # valid JSON


def test_other_commands_run(tmp_path):
    cfg = builtin_example("roots2k")
    code, text = run("mt", cfg)
    assert code == 0 and "all n >= 1" in text
    code, text = run("antipodes", cfg)
    assert code == 0 and "level 1:" in text
    code, text = run("levels", cfg, csv_path=str(tmp_path / "pts.csv"))
    assert code == 0 and (tmp_path / "pts.csv").read_text().startswith("level,re,im")
    code, text = run("simulate", cfg)
    assert code == 0 and "norm bound" in text


def test_towers_command():
    cfg = parse_config("spectrum vline re=0\ntower constant 2\n")
    code, text = run("towers", cfg)
    assert code == 0
    assert "lim = 0" in text and "lim^1 = 0: no" in text
    cfg = parse_config("spectrum vline re=0\ntower zero\n")
    code, text = run("towers", cfg)
    assert "lim^1 = 0: yes" in text and "middle group = 0" in text
    cfg = parse_config("spectrum vline re=0\n")
    code, text = run("towers", cfg)
    assert code == 1


def test_main_entrypoint(capsys, tmp_path):
    code = main(["examples", "rectangle"])
    out = capsys.readouterr().out
    assert code == 0 and "UniformlyContinuous" in out

    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("spectrum vline re=0\nn_max 4\n")
    code = main(["mt", "--config", str(cfgfile)])
    out = capsys.readouterr().out
    assert code == 0 and "infinite" in out

    code = main(["examples", "nosuch"])
    err = capsys.readouterr().err
    assert code == 1 and "unknown example" in err

    cfgfile.write_text("what 1\n")
    code = main(["classify", "--config", str(cfgfile)])
    err = capsys.readouterr().err
    assert code == 1 and "line 1" in err


def test_emit_csv_flag_defaults_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config("spectrum vline re=0\nn_max 3\nemit_csv true\n")
    code, _ = run("levels", cfg)
    assert code == 0
    assert (tmp_path / "dyadicspec_levels.csv").exists()


def test_byte_stable_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    import dyadicspec

    # the directory holding the package, so the child imports the same code
    src = os.path.dirname(os.path.dirname(dyadicspec.__file__))
    outs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "dyadicspec.cli", "examples", "primefamily", "--json"],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _classify_in_subprocess(config: str, *flags: str, command: str = "classify"):
    import os
    import subprocess
    import sys

    import dyadicspec

    src = os.path.dirname(os.path.dirname(dyadicspec.__file__))
    return subprocess.run(
        [sys.executable, "-m", "dyadicspec.cli", command, "--config", "-", *flags],
        input=config,
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        timeout=120,
    )


_LATTICE_8193 = "spectrum ilattice re=0 base=0 step=1/8193*pi\n"


@pytest.mark.parametrize(
    "config, code, levels",
    [
        # the segments cover the circle, and the line is the circle: the
        # antipodes meet the lattice with a full circle, not with an arc
        (
            "spectrum vsegment re=0 im=[0,3*pi]\nspectrum vsegment re=0 im=[-3*pi,0]\n"
            + _LATTICE_8193
            + "n_max 1\n",
            0,
            2,
        ),
        ("spectrum vline re=0\nspectrum vsegment re=0 im=[0,1*pi]\n" + _LATTICE_8193, 0, 13),
        # one arc holds 8194 of the lattice's members: the lattice-interval
        # enumeration limit ends the run Inconclusive
        (_LATTICE_8193 + "spectrum vsegment re=0 im=[0,1*pi]\n", 2, 0),
    ],
)
def test_lattice_and_arc_antipodes_in_subprocess(config, code, levels):
    reported = list(range(levels))
    for command, flags in (("classify", ()), ("classify", ("--json",)), ("antipodes", ())):
        proc = _classify_in_subprocess(config, *flags, command=command)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert proc.stdout == ""
            assert "exceeds the enumeration limit 4096" in proc.stderr
        elif command == "antipodes":
            assert proc.stdout == "".join(f"level {n}: FullCircle\n" for n in reported)
        elif flags:
            antipodal = json.loads(proc.stdout)["antipodal"]
            assert antipodal["levels"] == reported
            assert antipodal["pair_samples"] == [f"n={n}: FullCircle" for n in reported]
        else:
            lines = proc.stdout.splitlines()
            assert "verdict: NotStronglyContinuous" in lines
            assert f"antipodal levels (eventual image): {','.join(map(str, reported))}" in lines


@pytest.mark.parametrize("spectrum", ["point re=1000 im=1", "vline re=800"])
def test_far_spectra_end_without_traceback(spectrum):
    proc = _classify_in_subprocess(f"spectrum {spectrum}\n")
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["classify", "levels", "antipodes", "mt", "simulate"])
@pytest.mark.parametrize(
    "spectrum",
    [
        "point re=1000 im=1",
        "rect re=[-1000,1000] im=[0,1*pi]",
        "ilattice re=800 base=0 step=1/3*pi",
        "vline re=-900",
    ],
)
def test_extreme_re_ends_in_a_verdict_an_error_or_inconclusive(spectrum, command):
    # e^|re| is above the largest float, so float-side code must not leak
    # an OverflowError
    proc = _classify_in_subprocess(
        f"spectrum {spectrum}\nn_max 8\nlambda 1,1\n", command=command
    )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "config",
    [
        # the level sup, the witness search's band test, and the symbolic
        # constant each ask for an exp of about 10**20
        "spectrum point re=99999999999999999999 im=-1/2*pi\n",
        "spectrum vline re=99999999999999999999\nfloat_digits 1\n",
        "spectrum point re=0 im=-1/2+99999999999999999999*pi\n",
    ],
)
def test_exp_far_above_the_cap_ends_inconclusive(config):
    start = time.perf_counter()
    proc = _classify_in_subprocess(config)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("inconclusive: computation limit reached:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_overflowing_constant_prints_exactly(flags):
    # C_sym = R e^R is above the largest float once R > ~703
    proc = _classify_in_subprocess("spectrum point re=-800 im=0\nn_max 16\n", *flags)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if flags:
        c_sym = json.loads(proc.stdout)["uniform_bound"]["symbolic_constant"]
    else:
        (c_sym,) = [ln for ln in proc.stdout.splitlines() if "C_sym" in ln]
    assert "e+" in c_sym


def test_overflowing_table_prints_exactly_in_csv(tmp_path):
    # e^1000 - 1 heads the u_n table of a point at re=1000
    cfg = parse_config("spectrum point re=1000 im=1\nn_max 16\n")
    code, text = run("classify", cfg, csv_path=str(tmp_path / "u.csv"))
    assert code == 0 and "C = 1.97007111402e+434" in text
    rows = (tmp_path / "u.csv").read_text().splitlines()
    assert rows[1] == "0,1.97007111402e+434,1.97007111402e+434"


_HUGE = "1" + "0" * 400  # 10^400, past the float range


@pytest.mark.parametrize(
    "command, spectrum",
    [
        ("classify", f"vline re={_HUGE}"),
        ("classify", f"ilattice re={_HUGE} base=0 step=1*pi"),
        ("simulate", f"point re=-{_HUGE} im=1"),
        ("simulate", f"vline re=-{_HUGE}"),
    ],
)
def test_seed_order_past_the_float_range_ends_without_traceback(command, spectrum):
    # the search seeds' sort key reads a log-modulus past the float range as +-inf
    proc = _classify_in_subprocess(f"spectrum {spectrum}\n", command=command)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "spectrum, first",
    [
        ("point re=2000 im=1", "1/2,0,inf"),
        ("vline re=5000", "1/2,0,inf"),
        (f"point re=-{_HUGE} im=1", "1/2,0,1"),
    ],
)
def test_simulate_csv_writes_a_modulus_past_the_float_range(spectrum, first, tmp_path):
    # |multiplier| = e^(re/2) is inf above the float range and 0 below it
    path = tmp_path / "trace.csv"
    proc = _classify_in_subprocess(f"spectrum {spectrum}\n", "--csv", str(path), command="simulate")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = path.read_text().splitlines()
    assert rows[1] == first and len(rows) == 16
    assert "nan" not in path.read_text()


def test_levels_csv_writes_overflowing_coordinates_as_inf(tmp_path):
    # |z| = e^(1000/2^n) is above the largest float for n <= 3
    path = tmp_path / "levels.csv"
    proc = _classify_in_subprocess(
        "spectrum point re=1000 im=1\nspectrum point re=1000 im=0\nn_max 16\n",
        "--csv",
        str(path),
        command="levels",
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = path.read_text().splitlines()
    assert rows[1:3] == ["0,inf,0", "0,inf,inf"]
    assert "nan" not in path.read_text()
    assert rows[-1].startswith("16,") and "inf" not in rows[-1]


def test_touching_annuli_meet_in_a_full_circle():
    # the rectangles share the circle |z| = 1 at level 0
    cfg = "spectrum rect re=[-1,0] im=[-1*pi,1*pi]\nspectrum rect re=[0,1/2] im=[-1*pi,1*pi]\n"
    code, text = run("antipodes", parse_config(cfg))
    assert code == 0 and "level 0: FullCircle" in text.splitlines()
    code, text = run("classify", parse_config(cfg + "n_max 2\n"), as_json=True)
    assert json.loads(text)["antipodal"]["pair_samples"][0] == "n=0: FullCircle"


def _scaled_g(v: float, digits: int, shift: int) -> str:
    # %g of v * 10^shift, read off the float's own %e digits
    mant, exp = f"{v:.{max(digits, 1) - 1}e}".split("e")
    if "." in mant:
        mant = mant.rstrip("0").rstrip(".")
    return f"{mant}e+{int(exp) + shift:02d}"


def test_format_g_matches_float_formatting():
    import random

    rng = random.Random(5)
    for _ in range(2000):
        v = rng.choice([-1, 1]) * rng.uniform(1, 10) * 10.0 ** rng.randint(-300, 300)
        v = rng.choice([v, round(v, 2) or v, float(rng.randint(1, 10**6))])
        d = rng.randint(0, 20)
        assert format_g(F(v), d) == f"{v:.{d}g}"
        assert format_g(v, d) == f"{v:.{d}g}"
        if abs(v) >= 1:
            assert format_g(F(v) * 10**400, d) == _scaled_g(v, d, 400), (v, d)
    # ties round half to even, carries bump the exponent
    assert format_g(F(25) * 10**400, 1) == "2e+401"
    assert format_g(F(35) * 10**400, 1) == "4e+401"
    assert format_g(F(9996) * 10**400, 3) == "1e+404"
    assert format_g(-F(1234) * 10**400, 2) == "-1.2e+403"
    assert format_g(F(10**320) + F(1, 2), 330) == "1." + "0" * 320 + "5e+320"
    assert format_g(F(10**320) + F(1, 2), 321) == "1e+320"
    assert format_g(F(10**5000) / 3, 12) == "3.33333333333e+4999"


def test_computation_limit_ends_inconclusive():
    # a segment on the section of a lattice of step pi/8193: at level 0 the
    # segment meets 8194 orbit points, more than the enumeration limit
    proc = _classify_in_subprocess(
        "spectrum ilattice re=0 base=0 step=1/8193*pi\n"
        "spectrum vsegment re=0 im=[0,1*pi]\n"
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("inconclusive: ") and "enumeration limit 4096" in line


def test_precision_cap_ends_inconclusive():
    # at every searched level r = e^(-10^29 / 2^n) and |1 - z|^2 - 1 =
    # r (r - 2 cos t) lies below any precision, so the comparison against
    # delta^2 = 1 runs to the precision cap and ends Inconclusive
    proc = _classify_in_subprocess("spectrum point re=-100000000000000000000000000000 im=1\ndelta 1\n")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "internal" not in proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("inconclusive: computation limit reached: ")


@pytest.mark.parametrize("error", [ConsistencyError])
def test_internal_errors_exit_1_with_one_line(error, monkeypatch, capsys):
    import dyadicspec.cli

    def fail(*args, **kwargs):
        raise error("did not separate")

    monkeypatch.setattr(dyadicspec.cli, "run", fail)
    assert main(["examples", "rectangle"]) == 1
    assert capsys.readouterr().err == "error: internal: did not separate\n"


def test_a_witness_failing_reverification_is_an_internal_error(monkeypatch, capsys):
    # the package attribute dyadicspec.classify is the function, so the
    # module is reached through sys.modules
    monkeypatch.setattr(sys.modules["dyadicspec.classify"], "verify_witness", lambda *args: False)
    assert main(["examples", "solenoid"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: internal: the divergence search returned a thread that fails re-verification\n",
    )


def test_examples_show_config(capsys):
    code = main(["examples", "primefamily", "--show-config"])
    out = capsys.readouterr().out
    assert code == 0
    assert "primefamily nseq=2j J=8" in out


@pytest.mark.parametrize(
    "spectrum",
    [
        "point re=0 im=1/0*pi",
        "ilattice re=0 base=0 step=1/0*pi",
        "vsegment re=0 im=[0,1/0*pi]",
    ],
)
def test_zero_denominator_literal_is_one_error_line(spectrum):
    proc = _classify_in_subprocess(f"spectrum {spectrum}\n")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: line 1, col ") and "zero denominator" in line
    assert proc.stdout == ""


def test_main_twice_in_one_process_gives_identical_output(capsys):
    # the parser is built once per process; a second call must not differ
    calls = (
        ["examples", "roots2k", "--json"],
        ["examples", "solenoid", "--show-config"],
        ["--help"],
        ["examples", "--help"],
        ["bogus"],
        ["classify", "--nope"],
    )

    def one_round():
        out = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out.append((code, *capsys.readouterr()))
        return out

    first = one_round()
    assert first == one_round()
    assert [c[0] for c in first] == [0, 0, 0, 0, 2, 2]
    assert first[4][2].startswith("usage: dyadicspec ")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["examples", "solenoid"], "classify_solenoid.csv"),
        (["examples", "roots2k"], "classify_roots2k.csv"),
    ]
    + [
        (["examples", name, "--run", "simulate"], f"simulate_{name}.csv")
        for name in ("roots2k", "solenoid", "rectangle", "primefamily")
    ],
)
def test_csv_writers_match_golden_bytes(argv, golden, tmp_path, capsys):
    # the witness table and the continuity trace, byte for byte
    path = tmp_path / golden
    assert main([*argv, "--csv", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / golden).read_bytes()


def _counting(monkeypatch, name, modules):
    """Replace levels.<name> in `modules` by a wrapper; returns its call list."""
    calls = []
    fn = getattr(levels, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["roots2k", "solenoid"])
def test_classify_csv_rewalks_the_witness_in_the_classify_cache(name, monkeypatch, tmp_path):
    # the rate table walks the witness to its depth, past the levels
    # classify builds; it reads those from the classify cache, so no level
    # is built twice and classify's levels are all among those built
    calls = _counting(monkeypatch, "level_view", [levels])
    built = []
    for csv in (None, str(tmp_path / "w.csv")):
        calls.clear()
        assert run("classify", builtin_example(name), csv)[0] == 0
        built.append(list(calls))
    plain, with_csv = built
    assert plain and len(with_csv) == len(set(with_csv))
    assert set(plain) <= set(with_csv)
    assert (tmp_path / "w.csv").read_text().startswith("n,dist_lo,dist_hi,angle,log_mod")


@pytest.mark.parametrize("name, checks", [("roots2k", 31), ("rectangle", 62), ("primefamily", 93)])
def test_default_model_tries_the_other_root_only_when_needed(name, checks, monkeypatch):
    # the seed and 30 levels of greedy steps, each point checked once (the
    # principal root holds throughout on these), per thread
    from dyadicspec.simulate import default_model

    calls = []
    contains = LevelCache.contains
    monkeypatch.setattr(LevelCache, "contains", lambda self, n, p: calls.append(n) or contains(self, n, p))
    cfg = builtin_example(name)
    model = default_model(LevelCache(cfg.spectrum), cfg.params.search_depth)
    assert len(calls) == checks == 31 * len(model.threads)


@pytest.mark.parametrize(
    "line, col",
    [
        ("spectrum point re=0 im=1+2*e", 21),
        ("spectrum point re=x im=1", 16),
        ("spectrum point re=0 im=1 junk", 26),
        ("  spectrum  point re=x im=1  # note", 19),
        ("spectrum point re=0 im=1 t", 26),
        ("spectrum point junk re=0 im=1 more", 16),
    ],
)
def test_config_error_columns_count_from_line_start(line, col, tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(line + "\n")
    assert main(["classify", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line 1, col {col}: ")


@pytest.mark.parametrize(
    "spectrum",
    [
        "point re=1000 im=1",
        "rect re=[-1000,1000] im=[0,1*pi]",
        "ilattice re=800 base=0 step=1/3*pi",
    ],
)
def test_residual_past_the_float_range_is_finite(spectrum):
    code, text = run("simulate", parse_config(f"spectrum {spectrum}\nlambda 1,1\n"))
    assert code == 0
    (line,) = [ln for ln in text.splitlines() if ln.startswith("joint-spectrum residual")]
    assert math.isfinite(float(line.split("]: ")[1].split(" (")[0]))


BUILTINS = ("roots2k", "solenoid", "rectangle", "primefamily")

# every setting and primitive kind; setting-value errors name the column
# where the value starts, spectrum-field errors the column of `key=`, and
# missing, extra or unknown fields and constructor errors column 1
ERROR_GRID = [
    ("bogus 3", "line 1, col 1: unknown key 'bogus'"),
    ("n_max", "line 1, col 6: n_max needs a value"),
    ("ext_zero  # no value", "line 1, col 9: ext_zero needs a value"),
    ("n_max x", "line 1, col 7: bad integer 'x'"),
    ("   n_max   x", "line 1, col 12: bad integer 'x'"),
    ("n_max 0", "line 1, col 7: n_max must be >= 1"),
    ("K -2", "line 1, col 3: K must be >= 1"),
    ("search_depth 1.5", "line 1, col 14: bad integer '1.5'"),
    ("node_budget 0", "line 1, col 13: node_budget must be >= 1"),
    ("float_digits abc", "line 1, col 14: bad integer 'abc'"),
    ("delta x", "line 1, col 7: bad rational 'x'"),
    ("delta -1", "line 1, col 7: delta must be positive"),
    ("delta 0", "line 1, col 7: delta must be positive"),
    ("delta 1/0", "line 1, col 7: bad rational '1/0'"),
    ("delta 1 2", "line 1, col 7: bad rational '1 2'"),
    ("  delta   -1   # comment", "line 1, col 11: delta must be positive"),
    ("delta\t-1", "line 1, col 7: delta must be positive"),
    ("epsilon 1/10,x", "line 1, col 9: bad rational 'x'"),
    ("epsilon 1/10,-1/2", "line 1, col 9: epsilons must be positive"),
    ("epsilon -1,x", "line 1, col 9: bad rational 'x'"),
    ("epsilon 0", "line 1, col 9: epsilons must be positive"),
    ("ext_zero maybe", "line 1, col 10: bad boolean 'maybe'"),
    ("emit_csv 2", "line 1, col 10: bad boolean '2'"),
    ("tower spiral", "line 1, col 7: unknown tower kind 'spiral' (constant|periodic|zero)"),
    ("tower constant 2,x", "line 1, col 7: bad tower entries '2,x'"),
    ("tower periodic 1,2|x", "line 1, col 7: bad tower entries '1,2|x'"),
    ("tower periodic 1,2|3", "line 1, col 7: bad tower entries '1,2|3'"),
    ("tower zero 2,1", "line 1, col 7: bad tower entries '2,1'"),
    ("lambda 1,q", "line 1, col 8: bad complex list '1,q'"),
    ("spectrum", "line 1, col 9: spectrum needs a value"),
    ("spectrum blob re=0", "line 1, col 10: unknown primitive 'blob'"),
    ("spectrum blob junk", "line 1, col 15: unparsed text 'junk'"),
    ("spectrum point re=0", "line 1, col 10: point needs im="),
    ("spectrum point im=1", "line 1, col 10: point needs re="),
    ("spectrum point re=0 im=1 extra=2", "line 1, col 10: point got unknown fields ['extra']"),
    ("spectrum point re=x im=1", "line 1, col 16: bad rational 'x'"),
    ("spectrum point re=0 im=1+2*e", "line 1, col 21: bad pi-linear term: '2*e'"),
    ("spectrum point re=0 im=1/0*pi", "line 1, col 21: zero denominator in pi-linear term: '1/0*pi'"),
    ("spectrum point re=0 re=1 im=x", "line 1, col 26: bad pi-linear term: 'x'"),
    ("spectrum point re=0 im=1 junk", "line 1, col 26: unparsed text 'junk'"),
    ("  spectrum  point re=x im=1  # note", "line 1, col 19: bad rational 'x'"),
    ("spectrum point junk re=0 im=1 more", "line 1, col 16: unparsed text 'junk more'"),
    ("spectrum vsegment re=0", "line 1, col 10: vsegment needs im="),
    ("spectrum vsegment re=0 im=5", "line 1, col 24: expected [a,b], got '5'"),
    ("spectrum vsegment re=x im=5", "line 1, col 24: expected [a,b], got '5'"),
    ("spectrum vsegment re=0 im=[1,2,3]", "line 1, col 24: expected two comma-separated values in '[1,2,3]'"),
    ("spectrum vsegment re=0 im=[1*pi,0]", "line 1, col 10: segment with im_lo > im_hi"),
    ("spectrum vsegment re=0 im=[0,x]", "line 1, col 24: bad pi-linear term: 'x'"),
    ("spectrum ilattice re=0 base=0 step=-2*pi", "line 1, col 10: lattice step must be positive"),
    ("spectrum ilattice re=0 base=x step=2*pi", "line 1, col 24: bad pi-linear term: 'x'"),
    ("spectrum ilattice re=0 step=2*pi", "line 1, col 10: ilattice needs base="),
    ("spectrum vline re=1/0", "line 1, col 16: bad rational '1/0'"),
    ("spectrum vline", "line 1, col 10: vline needs re="),
    ("spectrum vline re=0 im=1", "line 1, col 10: vline got unknown fields ['im']"),
    ("spectrum rect re=[0,1]", "line 1, col 10: rect needs im="),
    ("spectrum rect re=[x,0] im=5", "line 1, col 24: expected [a,b], got '5'"),
    ("spectrum rect re=[0,-1] im=[0,1*pi]", "line 1, col 10: rectangle with re_lo > re_hi"),
    ("spectrum rect re=0 im=[0,1]", "line 1, col 15: expected [a,b], got '0'"),
    ("spectrum rect re=[0,1] im=[0,y]", "line 1, col 24: bad pi-linear term: 'y'"),
    ("spectrum primefamily nseq=2j J=x", "line 1, col 30: bad integer 'x'"),
    ("spectrum primefamily nseq=jj J=3", "line 1, col 10: unsupported n_seq 'jj' (expected e.g. '2j' or '2j+1')"),
    ("spectrum primefamily nseq=2j J=0", "line 1, col 10: prime family truncation must be >= 1"),
    ("spectrum primefamily J=3", "line 1, col 10: primefamily needs nseq="),
    ("# header\n\nn_max 3\ndelta x", "line 4, col 7: bad rational 'x'"),
    ("n_max 3  # fine\n  bogus 1", "line 2, col 3: unknown key 'bogus'"),
    ("   n_max", "line 1, col 9: n_max needs a value"),
    ("  spectrum  point re=0", "line 1, col 13: point needs im="),
    # a key or a field given twice is an error at its second occurrence
    ("n_max 3\nn_max 5", "line 2, col 1: repeated key 'n_max'"),
    ("ext_zero true\n  ext_zero true", "line 2, col 3: repeated key 'ext_zero'"),
    ("spectrum point re=0 re=1 im=1", "line 1, col 21: repeated field re="),
]


@pytest.mark.parametrize("config, error", ERROR_GRID)
def test_malformed_config_gives_one_exact_error_line(config, error, tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config + "\n")
    assert main(["classify", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_error_grid_covers_every_setting_and_primitive():
    words = {w for config, _ in ERROR_GRID for w in config.split()[:2]}
    assert set(cli._SETTINGS) | set(cli._PRIMITIVES) <= words


def test_render_config_roundtrips_random_spectra():
    rng = random.Random(1501)
    for _ in range(200):
        _roundtrips(Config(random_spectrum(rng), ClassifyParams()))


@pytest.mark.parametrize(
    "text, canonical", [("2j", "2j"), ("2*j", "2j"), ("1j+0", "j"), ("3j+1", "3j+1"), ("j+4", "j+4")]
)
def test_nseq_is_rendered_in_one_form(text, canonical):
    cfg = parse_config(f"spectrum primefamily nseq={text} J=2\n")
    assert render_config(cfg).splitlines()[0] == f"spectrum primefamily nseq={canonical} J=2"
    _roundtrips(cfg)


def test_render_config_lists_settings_in_table_order():
    keys = [line.split()[0] for line in render_config(parse_config(CONFIG)).splitlines()]
    assert keys == ["spectrum", "spectrum", *cli._SETTINGS]


# name -> (config text, exit code): configs beyond the built-ins whose
# reports hold sentences no built-in reaches
GOLDEN_CONFIGS = {
    "config": (CONFIG, 2),
    # a depth-8 divergent prefix that no source primitive certifies
    "prefix": ("spectrum primefamily nseq=2j J=8\nsearch_depth 8\n", 0),
    # a lattice with an irrational step: the dense-orbit persistence
    "dense": ("spectrum ilattice re=0 base=0 step=1\n", 0),
    # no gate closes: the sup table at n_max 2 stays above the tolerance
    "open": ("spectrum point re=0 im=1\nn_max 2\n", 2),
}


@pytest.mark.parametrize("name", [*BUILTINS, *GOLDEN_CONFIGS])
@pytest.mark.parametrize("as_json, ext", [(False, "txt"), (True, "json")])
def test_classify_reports_match_golden_bytes(name, as_json, ext, tmp_path):
    text, want = GOLDEN_CONFIGS.get(name, (None, 0))
    cfg = builtin_example(name) if text is None else parse_config(text)
    code, text = run("classify", cfg, str(tmp_path / "c.csv"), as_json)
    assert code == want
    assert text.encode() == (GOLDEN / f"report_{name}.{ext}").read_bytes()


# name -> config text: simulate runs beyond the built-ins, so that each
# cover outcome (indices, a blocking thread, inconclusive) is pinned
SIMULATE_CONFIGS = {
    # inconclusive at eps 1/100 and 1/1000
    "primefamily40": "spectrum primefamily nseq=2j J=40\n",
    # a cover found at a later index for each eps
    "farpoint": "spectrum point re=1000 im=1\n",
}


@pytest.mark.parametrize("name", [*BUILTINS, *SIMULATE_CONFIGS])
def test_simulate_reports_match_golden_bytes(name):
    text = SIMULATE_CONFIGS.get(name)
    cfg = builtin_example(name) if text is None else parse_config(text)
    code, text = run("simulate", cfg)
    assert code == 0
    assert text.encode() == (GOLDEN / f"simulate_{name}.txt").read_bytes()


# on these the default model's three threads each take the negated root:
# their bits start (1, 1, 0), (0, 1, 0) and (1, 0, 0)
SWITCH_CONFIG = "spectrum point re=0 im=2*pi\nspectrum vsegment re=-1 im=[3*pi,7/2*pi]\n"


def test_simulate_switching_threads_match_golden_bytes(tmp_path):
    from dyadicspec.simulate import default_model

    cfg = parse_config(SWITCH_CONFIG)
    model = default_model(LevelCache(cfg.spectrum), cfg.params.search_depth)
    assert [th.bits[:3] for th in model.threads] == [(1, 1, 0), (0, 1, 0), (1, 0, 0)]
    code, text = run("simulate", cfg, str(tmp_path / "s.csv"))
    assert code == 0
    assert text.encode() == (GOLDEN / "simulate_switch.txt").read_bytes()
    assert (tmp_path / "s.csv").read_bytes() == (GOLDEN / "simulate_switch.csv").read_bytes()


# config texts whose simulate reports, concatenated, make one golden file:
# a joint-spectrum residual whose square chain breaks, and one that holds
SIMULATE_LAMBDA_CONFIGS = (
    "spectrum rect re=[-1,0] im=[-1*pi,1*pi]\nlambda 1,0.5,1j\n",
    "spectrum vline re=0\nspectrum point re=-2 im=1/3*pi\nlambda 1,1,1\n",
)


def test_simulate_residual_reports_match_golden_bytes():
    text = ""
    for config in SIMULATE_LAMBDA_CONFIGS:
        code, out = run("simulate", parse_config(config))
        assert code == 0
        text += out
    assert text.encode() == (GOLDEN / "simulate_lambda.txt").read_bytes()


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"), ("1e400", "inf")])
def test_simulate_prints_a_non_finite_lambda(value, shown, tmp_path, capsys):
    # a real lambda prints as an integer only when it is one; int(inf) raised
    path = tmp_path / "c.txt"
    path.write_text(f"spectrum vline re=0\nlambda {value}\n")
    assert main(["simulate", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert f"joint-spectrum residual for lambda=['{shown}']: " in out
    if value != "nan":  # nan != nan, so no config holding it equals its round trip
        _roundtrips(parse_config(path.read_text()))


def test_simulate_covers_keep_to_the_node_budget():
    # each blocking-thread search stops after node_budget stack pops
    code, text = run("simulate", parse_config("spectrum vline re=0\nnode_budget 1\n"))
    assert code == 0
    covers = [ln for ln in text.splitlines() if ln.startswith("quasi-uniform cover")]
    assert len(covers) == 3 and all(ln.endswith("not found (inconclusive)") for ln in covers)


def test_mt_report_of_a_dense_lattice_matches_golden_bytes():
    # the closedness witness of a dense orbit: the missed angle and limit point
    code, text = run("mt", parse_config(GOLDEN_CONFIGS["dense"][0]))
    assert code == 0
    assert text.encode() == (GOLDEN / "mt_dense.txt").read_bytes()



# one primitive per component kind: level 0 holds a lattice, an arc, an
# isolated point, a full circle, a sector and an annulus
LEVELS_KINDS_CONFIG = (
    "spectrum point re=1 im=1/3*pi\n"
    "spectrum vsegment re=0 im=[0,1*pi]\n"
    "spectrum vline re=2\n"
    "spectrum ilattice re=-1 base=0 step=1/16*pi\n"
    "spectrum rect re=[-3,-2] im=[-1*pi,1*pi]\n"
    "spectrum rect re=[-5,-4] im=[0,1/2*pi]\n"
    "n_max 1\n"
)


def test_component_printouts_match_golden_bytes():
    # the levels and antipodes printouts, then classify's JSON pair_samples:
    # the only outputs that name every component kind
    cfg = parse_config(LEVELS_KINDS_CONFIG)
    text = ""
    for command in ("levels", "antipodes"):
        code, out = run(command, cfg)
        assert code == 0
        text += out
    code, out = run("classify", cfg, as_json=True)
    assert code == 0
    text += json.dumps(json.loads(out)["antipodal"]["pair_samples"], indent=2) + "\n"
    assert text.encode() == (GOLDEN / "levels_kinds.txt").read_bytes()


def test_commands_on_a_family_never_build_its_points(monkeypatch):
    # level views, section levels and boundedness read the closed form
    from dyadicspec.spectrum import PrimeFamily

    monkeypatch.setattr(PrimeFamily, "section", property(lambda self: pytest.fail("section built")))
    cfg = parse_config("spectrum primefamily nseq=2j J=40\n")
    for command in ("classify", "levels", "antipodes", "mt", "simulate"):
        assert run(command, cfg)[0] in (0, 2), command
    assert run("classify", cfg, as_json=True)[0] == 0


def test_json_text_is_json_dumps_with_indent(monkeypatch):
    reports = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("report_*.json"))]
    assert len(reports) >= 8
    bench = Path(__file__).resolve().parents[1] / "bench"
    for path in sorted((bench / "references").glob("*.json")):
        for ref in json.loads(path.read_text())["items"].values():
            if ref["exit"] in (0, 2) and ref["stdout"].startswith("{"):
                reports.append(json.loads(ref["stdout"]))
    assert len(reports) > 100
    rng = random.Random(57)
    params = ClassifyParams(n_max=6, K=2, search_depth=12)
    from dyadicspec.classify import classify

    for _ in range(300):
        reports.append(cli.report_to_dict(classify(random_spectrum(rng), params)))
    for d in reports:
        assert cli.json_text(d) == json.dumps(d, indent=2)
    for x in ({}, [], {"a": [[], {}, [1, "é", None, True, False, -3]]}):
        assert cli.json_text(x) == json.dumps(x, indent=2)
    with pytest.raises(TypeError):
        cli.json_text({"x": 1.5})
