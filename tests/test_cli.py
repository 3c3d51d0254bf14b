"""End-to-end CLI checks, through a real subprocess unless noted."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ussim import cli

SMALLEST = ["--n", "2", "--a", "1", "--t", "1", "--k", "1"]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env():
    # subprocesses import this checkout's package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(*args, env_extra=None):
    env = child_env()
    env.pop("USS_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ussim.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def csv_parts(stdout):
    comments, rows = [], []
    for line in stdout.splitlines():
        (comments if line.startswith("# ") else rows).append(line)
    header, data = rows[0].split(","), [r.split(",") for r in rows[1:]]
    return comments, header, data


def test_params_default_output_is_frozen():
    proc = run_cli("params")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("version=")
    assert lines[1] == (
        "n=7 msg_len_bits=8 tag_len_bits=8 k=900 l_max=1 p_target=1e-10 "
        "eps1=0.005 eps2=0.001 tail_mode=squared"
    )
    assert "s_levels: s[1]=0.005 s[0]=0.252 s[-1]=0.499" in lines
    assert (
        "consumption mode=accounting: preparation_bits=705600 "
        "sharing_bits=1096200 total_bits=1801800 id_bits=13"
    ) in lines
    assert (
        "consumption mode=literal: preparation_bits=352800 "
        "sharing_bits=882 total_bits=353682 id_bits=13"
    ) in lines
    bound_lines = [l for l in lines if l.startswith("bound level=")]
    assert len(bound_lines) == 2
    for line in bound_lines:
        assert "n_p=15" in line
        achieved = float(line.split("p_nontransfer=")[1].split()[0])
        assert achieved <= 1e-10


def test_params_literal_tail_mode_changes_k():
    proc = run_cli("params", "--tail-mode", "literal")
    assert proc.returncode == 0
    assert " k=223 " in proc.stdout.splitlines()[1]
    assert "tail_mode=literal" in proc.stdout


def test_run_smallest_instance_and_determinism():
    proc = run_cli("run", *SMALLEST, "--seed", "0")
    assert proc.returncode == 0
    out = proc.stdout
    assert "consumed_total_bits=14" in out
    recipient_lines = [l for l in out.splitlines() if l.startswith("recipient ")]
    assert len(recipient_lines) == 2
    assert all("accepted=True" in l for l in recipient_lines)
    assert "chain hop 0: recipient=0 level=0 accepted=True" in out
    again = run_cli("run", *SMALLEST, "--seed", "0")
    assert again.stdout == out


def test_seed_precedence_cli_env_default():
    explicit = run_cli("run", *SMALLEST, "--seed", "5")
    via_env = run_cli("run", *SMALLEST, env_extra={"USS_SEED": "5"})
    assert via_env.stdout == explicit.stdout
    overridden = run_cli(
        "run", *SMALLEST, "--seed", "5", env_extra={"USS_SEED": "999"}
    )
    assert overridden.stdout == explicit.stdout
    bad = run_cli("run", *SMALLEST, env_extra={"USS_SEED": "abc"})
    assert bad.returncode == 2
    assert "USS_SEED must be an integer" in bad.stderr


def test_attack_repudiation_csv():
    args = (
        "attack", "--kind", "repudiation", "--gamma", "0.3", "--trials", "400",
        "--k", "10", "--seed", "3",
    )
    proc = run_cli(*args)
    assert proc.returncode == 0
    comments, header, data = csv_parts(proc.stdout)
    assert "# kind=repudiation" in comments
    assert "# trials=400" in comments
    assert "# seed=3" in comments
    assert any(c.startswith("# version=") for c in comments)
    assert header == [
        "gamma", "trials", "successes", "rate",
        "wilson_low", "wilson_high", "bound", "bound_level",
    ]
    assert len(data) == 1
    row = dict(zip(header, data[0]))
    assert row["gamma"] == "0.3"
    successes = int(row["successes"])
    assert 0 <= successes <= 400
    assert float(row["rate"]) == successes / 400
    assert row["bound_level"] == "0"
    assert run_cli(*args).stdout == proc.stdout


def test_attack_repudiation_per_batch_gammas_fill_one_cell(capsys):
    # the raw "0.3,0.2,0.3" used to spread over three cells of the row
    argv = ["attack", "--kind", "repudiation", "--gamma", "0.3,0.2,0.3", "--n", "3",
            "--k", "10", "--trials", "100"]
    assert cli.main(argv) == 0
    _, header, data = csv_parts(capsys.readouterr().out)
    assert [len(row) for row in data] == [len(header)]
    assert dict(zip(header, data[0]))["gamma"] == "0.3;0.2;0.3"


@pytest.mark.parametrize("text, cell", [
    ("0.3\n", "0.3"),
    (" 0.30", "0.3"),
    ("0.3 ,0.20\t,.3", "0.3;0.2;0.3"),
])
def test_attack_repudiation_writes_the_parsed_gammas(capsys, text, cell):
    # float() takes surrounding whitespace, and the raw text of "0.3\n" used
    # to split the data row over two lines
    argv = ["attack", "--kind", "repudiation", "--gamma", text, "--n", "3",
            "--k", "10", "--trials", "100"]
    assert cli.main(argv) == 0
    _, header, data = csv_parts(capsys.readouterr().out)
    assert [len(row) for row in data] == [len(header)]
    assert dict(zip(header, data[0]))["gamma"] == cell


def test_params_the_wire_format_cannot_carry_exit_two():
    # 70000 recipients overflow the signature header's 16-bit count; this
    # used to print the set and exit 0
    proc = run_cli("params", "--n", "70000", "--k", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "n_recipients must be an int in [2, 65535], got 70000" in proc.stderr


def test_attack_repudiation_bound_follows_the_tail_mode(capsys):
    # the bound column is the level-0 p_nontransfer of the literal set that
    # the header names, not the squared one
    flags = ["--n", "7", "--k", "200", "--tail-mode", "literal"]
    assert cli.main(["params", *flags]) == 0
    level0 = next(l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("bound level=0:"))
    p_nontransfer = level0.split("p_nontransfer=")[1].split()[0]
    assert p_nontransfer == "1.2654065258038911e-09"
    argv = ["attack", "--kind", "repudiation", "--gamma", "0.325", "--trials", "200", *flags]
    assert cli.main(argv) == 0
    comments, header, data = csv_parts(capsys.readouterr().out)
    assert "# tail_mode=literal" in comments
    assert dict(zip(header, data[0]))["bound"] == p_nontransfer


def test_attack_forge_out_of_range_tags_exit_two_at_once():
    # t = 256 does not fit the wire header's tag field; the parameters must
    # be rejected before any of the 10**6 trials
    proc = run_cli("attack", "--kind", "forge", "--a", "300", "--t", "256",
                   "--trials", "1000000")
    assert proc.returncode == 2
    assert "tag_len_bits" in proc.stderr


def _run_rejected_before_the_run(monkeypatch, capsys, args, field):
    # in-process: out-of-range parameters must fail before run_honest
    def never(*args, **kwargs):
        raise AssertionError("run_honest called")

    monkeypatch.setattr(cli, "run_honest", never)
    assert cli.main(["run", *args]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


def test_run_out_of_range_tags_exit_two_before_the_run(monkeypatch, capsys):
    args = ["--n", "3", "--a", "300", "--t", "256", "--k", "4", "--lmax", "0"]
    _run_rejected_before_the_run(monkeypatch, capsys, args, "tag_len_bits")


def test_run_oversized_message_exits_two_before_the_run(monkeypatch, capsys):
    # 5000 bits is past find_irreducible's 4096; it used to fail at the
    # first tag call, after the whole distribution had run
    args = ["--n", "2", "--a", "5000", "--t", "8", "--k", "1", "--lmax", "0"]
    _run_rejected_before_the_run(monkeypatch, capsys, args, "msg_len_bits")


def test_run_oversized_key_state_exits_two_at_once(monkeypatch, capsys):
    # n=50, k=10**6 would hold about 19 GiB of keys; it used to reach
    # MemoryError partway through the distribution
    def never(*args, **kwargs):
        raise AssertionError("run_honest called")

    monkeypatch.setattr(cli, "run_honest", never)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 32 << 30)
    assert cli.main(["run", "--n", "50", "--k", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "about 19360 MiB of packed key state (n=50, k=1000000)" in captured.err
    assert "next to the interpreter's 33 MiB" in captured.err
    assert "more than 42% of the 32768 MiB of physical memory" in captured.err
    # the subprocess exits at once, before any bound is priced; 24 TiB of
    # keys exceeds any machine's memory, and 3 GiB of signature payload
    # still fits the wire header
    proc = run_cli("run", "--n", "50", "--a", "4096", "--t", "1", "--k", "10000000")
    assert proc.returncode == 2 and "packed key state" in proc.stderr


def test_run_key_state_limit_follows_physical_memory(monkeypatch, capsys):
    # n=100 at the default k (14407) holds about 1.1 GiB of keys at the
    # distribution's peak: a run that fits in 42% of the machine's memory
    # with the interpreter goes ahead, 8 GiB included, a larger one is
    # refused, and a machine that does not report its memory sets no limit
    runs = []

    def record(*args, **kwargs):
        runs.append(args)
        raise RuntimeError("stopped after the memory check")

    monkeypatch.setattr(cli, "run_honest", record)
    for memory in (8 << 30, None):
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: memory)
        assert cli.main(["run", "--n", "100"]) == 1
    assert len(runs) == 2 and runs[0][0].k == 14407
    assert "packed key state" not in capsys.readouterr().err
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 2 << 30)
    assert cli.main(["run", "--n", "100"]) == 2
    assert "about 1107 MiB of packed key state" in capsys.readouterr().err
    assert len(runs) == 2


def test_run_prints_a_vacuous_nontransfer_bound_as_one():
    # at k=100 the union bound exceeds 1 at both levels; like p_forge it is
    # reported clamped, never as a probability above 1
    proc = run_cli("run", "--n", "7", "--a", "128", "--t", "32", "--k", "100", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    bounds = [l for l in proc.stdout.splitlines() if l.startswith("bound level=")]
    assert [l.split()[1] for l in bounds] == ["level=1:", "level=0:"]
    assert all(" p_nontransfer=1.0 " in l for l in bounds)


def test_wide_tags_run_end_to_end():
    # t > 64: the bounds are priced and forge draws packed uniform tags
    wide = ["--n", "3", "--a", "72", "--t", "72", "--k", "4", "--lmax", "0"]
    for command in (["params"], ["run"], ["attack", "--kind", "forge", "--trials", "50"]):
        proc = run_cli(*command, *wide)
        assert proc.returncode == 0, (command, proc.stderr)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, ussim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_attack_forge_csv_tracks_small_case_oracle():
    proc = run_cli(
        "attack", "--kind", "forge", "--trials", "2000", "--seed", "1",
        "--n", "3", "--a", "8", "--t", "1", "--lmax", "1", "--dr", "0.0",
        "--k", "4", "--target", "2", "--level", "0",
    )
    assert proc.returncode == 0
    _, header, data = csv_parts(proc.stdout)
    assert header == [
        "forger", "colluders", "target", "level", "trials", "successes",
        "rate", "wilson_low", "wilson_high", "bound", "bound_level",
    ]
    row = dict(zip(header, data[0]))
    assert row["forger"] == "0" and row["colluders"] == "" and row["target"] == "2"
    assert row["level"] == "0"
    # exact acceptance probability of this configuration is 135/256
    assert abs(float(row["rate"]) - 135 / 256) < 0.05


def test_attack_forge_has_no_redraw_flag(capsys):
    # one forge attack reads one view, so there is no redraw period to set
    with pytest.raises(SystemExit) as info:
        cli.main(["attack", "--kind", "forge", "--redraw-every", "8"])
    assert info.value.code == 2
    assert "--redraw-every" in capsys.readouterr().err


def test_attack_repudiation_requires_gamma():
    proc = run_cli("attack", "--kind", "repudiation", "--trials", "10", "--k", "10")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "gamma" in proc.stderr


def test_sweep_q_requires_step():
    proc = run_cli("sweep", "--axis", "q", "--from", "0", "--to", "0.001")
    assert proc.returncode == 2
    assert "--step is required for the q axis" in proc.stderr


def test_sweep_int_axis_rejects_fractional_bounds():
    proc = run_cli("sweep", "--axis", "n", "--from", "2.5", "--to", "5")
    assert proc.returncode == 2
    assert "--from must be an integer for axis n" in proc.stderr


def test_sweep_p_target_row_agrees_with_params():
    proc = run_cli(
        "sweep", "--axis", "p_target", "--from", "1e-4", "--to", "1e-14",
        "--factor", "0.1",
    )
    assert proc.returncode == 0
    _, header, data = csv_parts(proc.stdout)
    assert header == [
        "n", "msg_len_bits", "tag_len_bits", "l_max", "band", "d_r", "k",
        "id_bits", "p_target", "prep_bits_accounting",
        "sharing_bits_accounting", "total_bits_accounting",
        "total_bits_literal",
    ]
    assert len(data) == 11
    rows = {row[header.index("p_target")]: row for row in data}
    target_row = dict(zip(header, rows["1e-10"]))
    assert target_row["k"] == "900"
    assert target_row["total_bits_accounting"] == "1801800"
    assert target_row["id_bits"] == "13"


def test_sweep_out_writes_file_and_keeps_stdout_empty(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("sweep", "--axis", "n", "--from", "2", "--to", "4",
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    _, header, data = csv_parts(out.read_text())
    assert [row[header.index("n")] for row in data] == ["2", "3", "4"]


def test_sweep_out_unwritable_path_exits_two(tmp_path):
    proc = run_cli("sweep", "--axis", "n", "--from", "2", "--to", "3",
                   "--out", str(tmp_path / "missing" / "t.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_run_config_file_roundtrip(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"users": 3, "seed": 7}))
    proc = run_cli("run", "--config", str(path), *SMALLEST)
    assert proc.returncode == 0
    assert "network: users=3 seed=7" in proc.stdout
    assert "consumed_total_bits=14" in proc.stdout


def test_uss_seed_overrides_a_config_file_seed(tmp_path, monkeypatch, capsys):
    # USS_SEED stands in for --seed with --config too, as the README says
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"users": 3}))
    monkeypatch.delenv("USS_SEED", raising=False)
    assert cli.main(["run", "--config", str(path), *SMALLEST, "--seed", "5"]) == 0
    explicit = capsys.readouterr().out
    assert "network: users=3 seed=5" in explicit
    monkeypatch.setenv("USS_SEED", "5")
    assert cli.main(["run", "--config", str(path), *SMALLEST]) == 0
    assert capsys.readouterr().out == explicit
    path.write_text(json.dumps({"users": 3, "seed": 7}))
    assert cli.main(["run", "--config", str(path), *SMALLEST]) == 0
    assert capsys.readouterr().out == explicit


def test_run_config_unknown_key_is_named(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"users": 3, "rate": 5}))
    proc = run_cli("run", "--config", str(path), *SMALLEST)
    assert proc.returncode == 2
    assert "unknown config key 'rate'" in proc.stderr


def test_time_to_ready_frozen_case():
    proc = run_cli("time-to-ready", "--k", "906")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "time_to_ready_s=101.472"
    assert lines[1] == "binding_link=0-1"
    link_lines = [l for l in lines if l.startswith("link ")]
    assert len(link_lines) == 28
    assert "link 1-2: 52.548" in lines


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("uss ")


def test_time_to_ready_nan_rate_exits_two(capsys):
    for rate in ("nan", "inf"):
        assert cli.main(["time-to-ready", "--rate-bps", rate]) == 2
        captured = capsys.readouterr()
        assert "default_rate_bps" in captured.err
        assert captured.out == ""


def test_time_to_ready_subnormal_rate_exits_two(capsys, tmp_path):
    # 1e-320 is a positive finite rate, but k bits over it take inf seconds
    assert cli.main(["time-to-ready", "--rate-bps", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert "link (0, 1) at rate 1e-320 bps" in captured.err
    assert captured.out == ""
    path = tmp_path / "net.json"
    path.write_text('{"users": 8, "links": [{"a": 2, "b": 5, "rate_bps": 1e-320}]}')
    assert cli.main(["time-to-ready", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "link (2, 5) at rate 1e-320 bps" in captured.err
    assert captured.out == ""


def test_time_to_ready_nan_link_rate_in_config_exits_two(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"users": 8, "links": [{"a": 0, "b": 1, "rate_bps": NaN}]}')
    proc = run_cli("time-to-ready", "--config", str(path))
    assert proc.returncode == 2
    assert "rate_bps on link (0, 1)" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ['"0.01"', "true", "NaN", "Infinity"])
@pytest.mark.parametrize("where", ["default", "link"])
def test_run_config_bad_flip_prob_exits_two_naming_the_key(tmp_path, capsys, value, where):
    # a string used to exit 1 with a TypeError, and true ran as q = 1
    path = tmp_path / "net.json"
    if where == "default":
        path.write_text(f'{{"users": 4, "default_flip_prob": {value}}}')
        key = "default_flip_prob"
    else:
        path.write_text(f'{{"users": 4, "links": [{{"a": 0, "b": 1, "flip_prob": {value}}}]}}')
        key = "flip_prob on link (0, 1)"
    assert cli.main(["run", "--config", str(path), "--n", "3", "--k", "40"]) == 2
    captured = capsys.readouterr()
    assert f"{key} must be a number in [0, 1]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("end", [1.5, True])
def test_run_config_non_int_link_endpoint_exits_two(tmp_path, capsys, end):
    # a fractional endpoint used to be stored under a pair no link looks up,
    # so its flip probability silently never applied
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"users": 4, "links": [{"a": end, "b": 2, "flip_prob": 0.4}]}))
    assert cli.main(["run", "--config", str(path), "--n", "3", "--k", "40"]) == 2
    captured = capsys.readouterr()
    assert "links[0]" in captured.err
    assert captured.out == ""


def test_run_config_repeated_link_exits_two(tmp_path, capsys):
    # the second entry for a pair used to replace the first without a word
    path = tmp_path / "net.json"
    links = [{"a": 0, "b": 1, "flip_prob": 0.5}, {"a": 0, "b": 1, "flip_prob": 0.0}]
    path.write_text(json.dumps({"users": 4, "links": links}))
    assert cli.main(["run", "--config", str(path), "--n", "3", "--k", "40"]) == 2
    captured = capsys.readouterr()
    assert "links[1] configures link (0, 1) a second time" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, flag", [
    (["--axis", "q", "--from", "nan", "--to", "0.001", "--step", "0.001"], "--from"),
    (["--axis", "q", "--from", "0", "--to", "nan", "--step", "0.001"], "--to"),
    (["--axis", "q", "--from", "0", "--to", "inf", "--step", "0.001"], "--to"),
    (["--axis", "q", "--from", "0", "--to", "0.001", "--step", "nan"], "--step"),
    (["--axis", "p_target", "--from", "nan", "--to", "1e-12"], "--from"),
    (["--axis", "p_target", "--from", "1e-4", "--to", "1e-12", "--factor", "nan"], "--factor"),
    (["--axis", "n", "--from", "nan", "--to", "5"], "--from"),
    (["--axis", "msg_len", "--from", "8", "--to=-inf"], "--to"),
], ids=["q-from", "q-to", "q-to-inf", "q-step", "p_target-from", "p_target-factor",
        "n-from", "msg_len-to"])
def test_sweep_non_finite_bounds_exit_two_naming_the_flag(capsys, args, flag):
    assert cli.main(["sweep", *args]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be finite" in captured.err
    assert captured.out == ""
