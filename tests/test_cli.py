import json
from fractions import Fraction as F

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
from dyadicspec.classify import ClassifyParams
from dyadicspec.exactnum import PiLinear, PrecisionError
from dyadicspec.spectrum import ConsistencyError, Rect, VLine


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


def test_roundtrip_render_parse():
    cfg = parse_config(CONFIG)
    again = parse_config(render_config(cfg))
    assert again == cfg
    for name in ("roots2k", "solenoid", "rectangle", "primefamily"):
        cfg = builtin_example(name)
        assert parse_config(render_config(cfg)) == cfg


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


def _classify_in_subprocess(config: str, *flags: str):
    import os
    import subprocess
    import sys

    import dyadicspec

    src = os.path.dirname(os.path.dirname(dyadicspec.__file__))
    return subprocess.run(
        [sys.executable, "-m", "dyadicspec.cli", "classify", "--config", "-", *flags],
        input=config,
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
        timeout=120,
    )


@pytest.mark.parametrize("spectrum", ["point re=1000 im=1", "vline re=800"])
def test_far_spectra_end_without_traceback(spectrum):
    proc = _classify_in_subprocess(f"spectrum {spectrum}\n")
    assert proc.returncode in (0, 2), proc.stderr
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


@pytest.mark.parametrize("error", [PrecisionError, ConsistencyError])
def test_internal_errors_exit_1_with_one_line(error, monkeypatch, capsys):
    import dyadicspec.cli

    def fail(*args, **kwargs):
        raise error("did not separate")

    monkeypatch.setattr(dyadicspec.cli, "run", fail)
    assert main(["examples", "rectangle"]) == 1
    assert capsys.readouterr().err == "error: internal: did not separate\n"


def test_examples_show_config(capsys):
    code = main(["examples", "primefamily", "--show-config"])
    out = capsys.readouterr().out
    assert code == 0
    assert "primefamily nseq=2j J=8" in out
