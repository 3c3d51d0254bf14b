"""End-to-end CLI checks, through a real subprocess unless noted."""
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ussim import cli, secparams
from ussim.secparams import ProtocolParams, SLevelSpec
from ussim.simlab import SweepResult

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


@pytest.mark.parametrize("n, d_r", [("2", "0.1"), ("3", "0.4")])
def test_params_with_one_honest_recipient_exit_two_naming_d_r(capsys, n, d_r):
    # floor(d_r * n) recipients may be dishonest, so these leave two honest
    # ones, one verifier pair; they were priced with one and exited 2
    assert cli.main(["params", "--n", n, "--dr", d_r]) == 0
    assert "bound level=0: n_p=1 " in capsys.readouterr().out
    # one honest recipient exited 2 with only "math domain error"; only n = 2
    # with d_r within 5e-10 of 1/2 still leaves one
    assert cli.main(["params", "--n", "2", "--dr", "0.4999999999"]) == 2
    assert "d_r = 0.4999999999 leaves 1 honest recipient(s) of n = 2" in capsys.readouterr().err


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
    # n=50, k=10**6 would hold about 17 GiB of keys; it used to reach
    # MemoryError partway through the distribution
    def never(*args, **kwargs):
        raise AssertionError("run_honest called")

    monkeypatch.setattr(cli, "run_honest", never)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 16 << 30)
    assert cli.main(["run", "--n", "50", "--k", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "about 17263 MiB of packed key state and link stores (n=50, k=1000000)" in captured.err
    assert "next to the interpreter's 33 MiB" in captured.err
    assert "more than 80% of the 16384 MiB of physical memory" in captured.err
    # the subprocess exits at once, before any bound is priced; 24 TiB of
    # keys exceeds any machine's memory, and 3 GiB of signature payload
    # still fits the wire header
    proc = run_cli("run", "--n", "50", "--a", "4096", "--t", "1", "--k", "10000000")
    assert proc.returncode == 2 and "packed key state" in proc.stderr


def test_run_of_many_users_exits_two_for_its_link_stores(monkeypatch, capsys):
    # n=800 at k=1 holds about 4 MiB of keys and tags but builds 320,400
    # link stores; their 313 MiB put the run past 80% of 256 MiB, so it is
    # refused before any store is built
    def never(*args, **kwargs):
        raise AssertionError("run_honest called")

    monkeypatch.setattr(cli, "run_honest", never)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 256 << 20)
    assert cli.main(["run", "--n", "800", "--a", "8", "--t", "8", "--k", "1", "--lmax", "0"]) == 2
    assert "about 323 MiB of packed key state and link stores (n=800, k=1)" in capsys.readouterr().err


def test_run_key_state_limit_follows_physical_memory(monkeypatch, capsys):
    # n=100 at the default k (14407) holds about 1 GiB of keys and tags at
    # the run's peak: a run that fits in 80% of the machine's memory with
    # the interpreter goes ahead, 8 GiB included, a larger one is refused,
    # and a machine that does not report its memory sets no limit
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
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 1 << 30)
    assert cli.main(["run", "--n", "100"]) == 2
    assert "about 983 MiB of packed key state and link stores" in capsys.readouterr().err
    assert len(runs) == 2


def test_attack_repudiation_past_memory_exits_two_before_any_draw(monkeypatch, capsys):
    # n=3000 at 1000 trials would hold about 76 GiB of mismatch counts and
    # level_rule's arrays over them; it used to run out of memory drawing them
    def never(*args, **kwargs):
        raise AssertionError("attack_repudiation called")

    monkeypatch.setattr(cli, "attack_repudiation", never)
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 16 << 30)
    argv = ["attack", "--kind", "repudiation", "--k", "10", "--gamma", "0.1", "--trials", "1000"]
    assert cli.main([*argv, "--n", "3000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: attack --kind repudiation would hold about 77339 MiB of mismatch counts "
        "(n=3000, trials=1000) next to the interpreter's 33 MiB, more than 80% of the "
        "16384 MiB of physical memory\n"
    )
    # n=1000 needs about 8.4 GiB: past 80% of 8 GiB, within 80% of 16 GiB
    monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: 8 << 30)
    assert cli.main([*argv, "--n", "1000"]) == 2
    assert "about 8614 MiB of mismatch counts (n=1000, trials=1000)" in capsys.readouterr().err


def test_attack_repudiation_within_memory_goes_ahead(monkeypatch, capsys):
    # n=200 at 1000 trials holds about 349 MiB; a machine that does not
    # report its memory sets no limit
    runs = []

    def record(gamma, params, **kwargs):
        runs.append((params.n_recipients, kwargs["trials"]))
        raise RuntimeError("stopped after the memory check")

    monkeypatch.setattr(cli, "attack_repudiation", record)
    argv = ["attack", "--kind", "repudiation", "--k", "10", "--gamma", "0.1", "--trials", "1000"]
    for n, memory in (("200", 16 << 30), ("800", 16 << 30), ("3000", None)):
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: memory)
        assert cli.main([*argv, "--n", n]) == 1
    assert runs == [(200, 1000), (800, 1000), (3000, 1000)]
    assert "mismatch counts" not in capsys.readouterr().err


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


def test_run_and_time_to_ready_state_one_users_rule(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"users": 8}))
    for command in ("run", "time-to-ready"):
        assert cli.main([command, "--n", "6", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: network has 8 users but the protocol needs 7 (one sender plus 6 recipients)\n"
        ), command
        assert captured.out == ""


def test_run_config_unknown_key_is_named(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"users": 3, "rate": 5}))
    proc = run_cli("run", "--config", str(path), *SMALLEST)
    assert proc.returncode == 2
    assert "unknown config key 'rate'" in proc.stderr


@pytest.mark.parametrize("text, error", [
    ('{"users": 8, "links": [1]}', "links[0] must be an object, got 1"),
    ('{"users": 8, "links": null}', "config key 'links' must be a list of link objects, got None"),
    ('{"users": 8, "links": {"a": 1}}', "config key 'links' must be a list of link objects"),
    ("[1, 2]", "a network config must be an object, got [1, 2]"),
    ('"x"', "a network config must be an object, got 'x'"),
])
def test_time_to_ready_config_of_the_wrong_shape_exits_two(tmp_path, capsys, text, error):
    # the first two exited 1 with "not iterable", the others named the wrong fault
    path = tmp_path / "net.json"
    path.write_text(text)
    assert cli.main(["time-to-ready", "--config", str(path)]) == 2
    assert error in capsys.readouterr().err


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


@pytest.mark.parametrize("start, stop, step, geometric, want", [
    (0.0, 0.005, 0.0005, False,
     [0.0, 0.0005, 0.001, 0.0015, 0.002, 0.0025, 0.003, 0.0035, 0.004, 0.0045, 0.005]),
    (0.003, 0.0, -0.001, False, [0.003, 0.002, 0.001, 0.0]),
    # 0.1 + 2 * 0.1 is 0.30000000000000004, within 1e-9 of a step of --to
    (0.1, 0.3, 0.1, False, [0.1, 0.2, 0.3]),
    (2, 12, 3, False, [2, 5, 8, 11]),
    (12, 2, -4, False, [12, 8, 4]),
    (1e-4, 1e-14, 0.1, True,
     [0.0001, 1e-05, 1e-06, 1e-07, 1e-08, 1e-09, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14]),
    (1e-14, 1e-4, 10.0, True,
     [1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-09, 1e-08, 1e-07, 1e-06, 1e-05, 0.0001]),
], ids=["q-up", "q-down", "q-end-within-1e-9", "n-up", "n-down", "p_target-down",
        "p_target-up"])
def test_sweep_axis_values_are_pinned(start, stop, step, geometric, want):
    got = cli._axis_values(start, stop, step, geometric=geometric)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("args, error", [
    (["--axis", "q", "--from", "0", "--to", "0.005", "--step", "-0.001"],
     "step -0.001 never reaches --to 0.005 from --from 0.0"),
    (["--axis", "n", "--from", "2", "--to", "12", "--step", "-1"],
     "step -1 never reaches --to 12 from --from 2"),
    (["--axis", "msg_len", "--from", "8", "--to", "4"],
     "step 1 never reaches --to 4 from --from 8"),
    (["--axis", "p_target", "--from", "1e-4", "--to", "1e-14", "--factor", "10"],
     "factor 10.0 never reaches --to 1e-14 from --from 0.0001"),
], ids=["q", "n", "msg_len", "p_target"])
def test_sweep_axis_that_never_reaches_its_end_exits_two(capsys, args, error):
    assert cli.main(["sweep", *args]) == 2
    captured = capsys.readouterr()
    assert f"error: {error}" in captured.err
    assert captured.out == ""


def test_sweep_point_limit_fails_before_the_range_is_built(capsys):
    # the whole range of 3e6 ints would take about 100 MiB
    tracemalloc.start()
    try:
        status = cli.main(["sweep", "--axis", "n", "--from", "2", "--to", "3e6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert "error: sweep exceeds 10000 points" in capsys.readouterr().err
    assert peak < 1 << 20


def test_sweep_factor_power_past_the_float_range_exits_two(capsys):
    # 1e200**2 overflows before 1e-300 * 1e200**2 can be compared with --to;
    # it used to escape as OverflowError, exit 1
    args = ["--axis", "p_target", "--from", "1e-300", "--to", "0.5", "--factor", "1e200"]
    assert cli.main(["sweep", *args]) == 2
    assert "error: factor 1e+200 to the power 2 overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, flag", [
    (["--from", "0", "--to", "1e-5", "--factor", "10"], "--from 0.0"),
    (["--from", "0", "--to", "0"], "--from 0.0"),
    (["--from", "1e-5", "--to", "0"], "--to 0.0"),
], ids=["from-0-rising", "both-0", "to-0"])
def test_sweep_p_target_bounds_outside_zero_one_exit_two(capsys, bounds, flag):
    assert cli.main(["sweep", "--axis", "p_target", *bounds]) == 2
    captured = capsys.readouterr()
    assert f"error: p_target axis bounds must be in (0, 1), got {flag}" in captured.err
    assert captured.out == ""


def test_sweep_point_that_cannot_be_built_exits_two_naming_it(capsys):
    # n=2 prices; at n=20002 the signature payload overflows the header's byte count
    argv = ["sweep", "--axis", "n", "--from", "2", "--to", "100002", "--step", "20000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: n=20002: signature payload of ")
    assert captured.out == ""


def test_parameter_comments_print_numpy_reals_plainly():
    spec = SLevelSpec(eps1=np.float64(0.005), eps2=np.float64(0.001))
    params = ProtocolParams.build(
        7, 8, 8, p_target=np.float64(1e-10), d_r=np.float64(1 / 7), spec=spec, k=10
    )
    comments = cli._param_comments(params)
    assert "p_target=1e-10" in comments and "d_r=0.14285714285714285" in comments
    assert "eps1=0.005" in comments and "eps2=0.001" in comments
    lines = cli._param_lines(params)
    assert "d_r=0.14285714285714285" in lines
    assert "s_levels: s[1]=0.005 s[0]=0.252 s[-1]=0.499" in lines
    # and a table cell holding a numpy float is written as its number
    table = SweepResult(columns=("p",), rows=((np.float64(0.1),),))
    assert table.to_csv() == "p\n0.1\n"


@pytest.mark.parametrize("axis", ["n", "p_target", "msg_len"])
@pytest.mark.parametrize("flag, value", [("--k", "10"), ("--lmax", "0"), ("--dr", "0.1")])
def test_consumption_sweep_refuses_the_flags_it_re_derives(monkeypatch, capsys, axis, flag, value):
    # every row solves its own k, l_max and d_r, so the header would misstate them
    def priced(*args, **kwargs):
        raise AssertionError("a row was priced")

    monkeypatch.setattr(cli, "sweep_consumption", priced)
    bounds = ["--from", "1e-4", "--to", "1e-6"] if axis == "p_target" else ["--from", "8", "--to", "9"]
    assert cli.main(["sweep", "--axis", axis, *bounds, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is re-derived at every point of axis {axis}; omit it\n"
    assert captured.out == ""


@pytest.mark.parametrize("axis, swept", [("n", "n"), ("p_target", "p_target"), ("msg_len", "msg_len_bits")])
def test_consumption_sweep_header_keeps_only_what_its_rows_share(capsys, axis, swept):
    # rows re-derive k, l_max and d_r and set the swept field, so the header
    # records neither: here the base set would say n=50, k=6906 and l_max=4
    bounds = ["--from", "1e-4", "--to", "1e-5"] if axis == "p_target" else ["--from", "2", "--to", "3"]
    assert cli.main(["sweep", "--axis", axis, *bounds, "--n", "50"]) == 0
    comments, header, data = csv_parts(capsys.readouterr().out)
    keys = [line[2:].split("=")[0] for line in comments]
    assert not {"k", "l_max", "d_r", swept} & set(keys)
    assert {"version", "msg_len_bits", "tag_len_bits", "p_target", "axis"} - {swept} <= set(keys)
    assert len(data) == 2 and swept in header


def test_msg_len_sweep_reads_no_a(capsys):
    # each row's message length is its own, so --a sets neither the rows nor their tag cap
    argv = ["sweep", "--axis", "msg_len", "--from", "4", "--to", "12"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert cli.main([*argv, "--a", "4"]) == 0
    assert capsys.readouterr().out == plain
    _, header, data = csv_parts(plain)
    assert [row[header.index("tag_len_bits")] for row in data] == ["4", "5", "6", "7"] + ["8"] * 5


@pytest.mark.parametrize("axis, argv, flag, why", [
    ("n", ["--from", "2", "--to", "3", "--seed", "9"], "--seed", "draws nothing"),
    ("msg_len", ["--from", "4", "--to", "5", "--seed", "0"], "--seed", "draws nothing"),
    ("p_target", ["--from", "1e-4", "--to", "1e-5", "--seed", "9"], "--seed", "draws nothing"),
    ("p_target", ["--from", "1e-4", "--to", "1e-5", "--step", "4"], "--step", "steps by --factor"),
])
def test_consumption_sweep_refuses_flags_it_never_reads(monkeypatch, capsys, axis, argv, flag, why):
    def priced(*args, **kwargs):
        raise AssertionError("a row was priced")

    monkeypatch.setattr(cli, "sweep_consumption", priced)
    assert cli.main(["sweep", "--axis", axis, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is not read by axis {axis}, which {why}; omit it\n"
    assert captured.out == ""


def test_time_to_ready_takes_no_seed():
    assert run_cli("time-to-ready", "--seed", "5").returncode == 2
    plain = run_cli("time-to-ready")
    assert plain.returncode == 0
    # it draws nothing, so a malformed USS_SEED does not concern it
    assert run_cli("time-to-ready", env_extra={"USS_SEED": "abc"}).stdout == plain.stdout


def test_consumption_sweep_reads_no_seed(capsys, monkeypatch):
    monkeypatch.setenv("USS_SEED", "abc")
    assert cli.main(["sweep", "--axis", "n", "--from", "2", "--to", "3"]) == 0
    out = capsys.readouterr().out
    monkeypatch.delenv("USS_SEED")
    assert cli.main(["sweep", "--axis", "n", "--from", "2", "--to", "3"]) == 0
    assert capsys.readouterr().out == out
    # the q axis draws, so it still refuses a malformed USS_SEED
    monkeypatch.setenv("USS_SEED", "abc")
    assert cli.main(["sweep", "--axis", "q", "--from", "0", "--to", "0", "--step", "0.001"]) == 2
    assert "USS_SEED must be an integer" in capsys.readouterr().err


def started(*args, **kwargs):
    raise AssertionError("a row, trial or run was started")


@pytest.mark.parametrize("axis, bounds", [
    ("n", ["--from", "2", "--to", "3"]),
    ("p_target", ["--from", "1e-4", "--to", "1e-6"]),
    ("msg_len", ["--from", "4", "--to", "5"]),
])
def test_consumption_sweep_solves_k_once_per_row_and_builds_no_base_set(monkeypatch, capsys, axis, bounds):
    calls = []
    real_solve_k = secparams.solve_k

    def counted(*args, **kwargs):
        calls.append(args)
        return real_solve_k(*args, **kwargs)

    monkeypatch.setattr(secparams, "solve_k", counted)
    assert cli.main(["sweep", "--axis", axis, *bounds]) == 0
    out = capsys.readouterr().out
    assert len(calls) == len(csv_parts(out)[2])
    if axis == "n":
        # --n is the swept field's own flag: no row reads it, so no row fails on it
        calls.clear()
        assert cli.main(["sweep", "--axis", "n", *bounds, "--n", "70000"]) == 0
        assert capsys.readouterr().out == out
        assert [args[1] for args in calls] == [2, 3]


@pytest.mark.parametrize("axis, argv, flag, why", [
    ("n", ["--from", "2", "--to", "3", "--factor", "5"], "--factor", "steps by --step"),
    ("msg_len", ["--from", "4", "--to", "5", "--factor", "5"], "--factor", "steps by --step"),
    ("q", ["--from", "0", "--to", "0", "--step", "0.001", "--factor", "5"], "--factor", "steps by --step"),
    ("n", ["--from", "2", "--to", "3", "--margin", "0.3"], "--margin", "prices no noise"),
    ("p_target", ["--from", "1e-4", "--to", "1e-5", "--margin", "0.3"], "--margin", "prices no noise"),
    ("msg_len", ["--from", "4", "--to", "5", "--trials", "7"], "--trials", "draws nothing"),
    ("p_target", ["--from", "1e-4", "--to", "1e-5", "--trials", "7"], "--trials", "draws nothing"),
])
def test_sweep_refuses_the_flags_its_axis_never_reads(monkeypatch, capsys, axis, argv, flag, why):
    monkeypatch.setattr(cli, "sweep_consumption", started)
    monkeypatch.setattr(cli, "sweep_error_tolerance", started)
    assert cli.main(["sweep", "--axis", axis, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is not read by axis {axis}, which {why}; omit it\n"
    assert captured.out == ""


def test_sweep_flags_left_out_keep_their_defaults(monkeypatch, capsys):
    assert cli.main(["sweep", "--axis", "p_target", "--from", "1e-4", "--to", "1e-5"]) == 0
    assert "# factor=0.1" in capsys.readouterr().out.splitlines()
    read = {}

    def priced(values, params, **kwargs):
        read.update(kwargs)
        return SweepResult(columns=("q",), rows=((0.0,),))

    monkeypatch.setattr(cli, "sweep_error_tolerance", priced)
    assert cli.main(["sweep", "--axis", "q", "--from", "0", "--to", "0", "--step", "0.001"]) == 0
    comments = capsys.readouterr().out.splitlines()
    assert read == {"margin": 0.002, "trials": 200, "seed": 0}
    assert "# margin=0.002" in comments and "# trials=200" in comments


@pytest.mark.parametrize("argv, flag", [
    (["run", "--flip-prob", "0.1"], "--flip-prob"),
    (["run", "--rate-bps", "5", "--flip-prob", "0.4", "--seed", "1"], "--rate-bps"),
    (["time-to-ready", "--rate-bps", "5"], "--rate-bps"),
])
def test_config_refuses_the_uniform_network_flags(monkeypatch, capsys, tmp_path, argv, flag):
    # the file sets every link, so a uniform flag beside it would be dropped unread
    path = tmp_path / "net.json"
    path.write_text('{"users": 8}')
    monkeypatch.setattr(cli, "run_honest", started)
    monkeypatch.setattr(cli, "time_to_ready", started)
    if argv[:2] == ["run", "--rate-bps"]:
        # a run never reads a rate, so its parser takes none, file or not
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--config", str(path)])
        assert info.value.code == 2
        assert "unrecognized arguments: --rate-bps 5" in capsys.readouterr().err
    else:
        assert cli.main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} is not read with --config, whose file sets every link; omit it\n"
        assert captured.out == ""
    # fill time never reads a flip probability, so time-to-ready takes none
    with pytest.raises(SystemExit) as info:
        cli.main(["time-to-ready", "--flip-prob", "0.3"])
    assert info.value.code == 2


@pytest.mark.parametrize("kind, argv, flag", [
    ("repudiation", ["--forger", "3"], "--forger"),
    ("repudiation", ["--forger", "0"], "--forger"),
    ("repudiation", ["--colluders", "1"], "--colluders"),
    ("repudiation", ["--target", "1"], "--target"),
    ("repudiation", ["--level", "0"], "--level"),
    ("repudiation", ["--allow-oversized-collusion"], "--allow-oversized-collusion"),
    ("forge", ["--gamma", "0.3"], "--gamma"),
])
def test_attack_refuses_the_other_kinds_flags(monkeypatch, capsys, kind, argv, flag):
    monkeypatch.setattr(cli, "attack_forge", started)
    monkeypatch.setattr(cli, "attack_repudiation", started)
    gamma = ["--gamma", "0.3"] if kind == "repudiation" else []
    assert cli.main(["attack", "--kind", kind, "--k", "20", "--trials", "50", *gamma, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} is not read by --kind {kind}; omit it\n"
    assert captured.out == ""
