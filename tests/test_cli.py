import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tatestar
from tatestar import cli, suites
from tatestar.cli import main
from tatestar.local_pairing import TameFieldModel


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_gamma_p3_golden(capsys):
    code, out, _ = _run(capsys, "expand", "--p", "3", "--form", "gamma")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 3
    assert payload["form"] == "gamma"
    assert payload["convention"] == "e(Q,P)=zeta"
    assert payload["terms"] == [
        {
            "coeff": ["-3/1", "0/1"],
            "monomial": [
                {"point": "0,1", "exp": 1},
                {"point": "1,1", "exp": 1},
                {"point": "2,1", "exp": 1},
            ],
        },
        {"coeff": ["1/1", "0/1"], "monomial": [{"point": "0,1", "exp": 3}]},
        {"coeff": ["1/1", "0/1"], "monomial": [{"point": "1,1", "exp": 3}]},
        {"coeff": ["1/1", "0/1"], "monomial": [{"point": "2,1", "exp": 3}]},
    ]


def test_expand_output_is_byte_stable(capsys):
    _, first, _ = _run(capsys, "expand", "--p", "3", "--form", "gamma")
    _, second, _ = _run(capsys, "expand", "--p", "3", "--form", "gamma")
    assert first == second


def test_expand_rho_matches_gamma_terms(capsys):
    _, gamma_out, _ = _run(capsys, "expand", "--p", "3", "--form", "gamma")
    _, rho_out, _ = _run(capsys, "expand", "--p", "3", "--form", "rho")
    assert json.loads(gamma_out)["terms"] == json.loads(rho_out)["terms"]


def test_expand_intermediate_supported_at_origin_only(capsys):
    code, out, _ = _run(capsys, "expand", "--p", "3", "--form", "intermediate")
    assert code == 0
    payload = json.loads(out)
    assert [entry["point"] for entry in payload["element"]] == ["0,0"]


def test_expand_latex(capsys):
    code, out, _ = _run(capsys, "expand", "--p", "3", "--latex")
    assert code == 0
    assert out.startswith("\\left(")
    assert "\\delta_{O}" in out
    assert "g_{Q+2P}" in out


# sha256 of the stdout of each command, pinned byte for byte
_STDOUT_SHA256 = {
    "expand --p 3 --form gamma":
        "f59188f569e24485e1eaf5b4a10b375fe8565c80aa15d0d9d31dd1c68f9d1e10",
    "expand --p 3 --form gamma --latex":
        "200c58a22a885a702ccfc5d962751236c6ef5a4ad6f0b65b05f072533cc5fddf",
    "expand --p 3 --form intermediate":
        "c0708a34680b2f5489a172197166de0f731d69f071243a38a0aa43920420341e",
    "expand --p 3 --form intermediate --latex":
        "200c58a22a885a702ccfc5d962751236c6ef5a4ad6f0b65b05f072533cc5fddf",
    "expand --p 3 --form rho":
        "3464fc95296d59768a4a28a247be99c17ca69da9dbdd394339d7ce84bddfdd69",
    "expand --p 3 --form rho --latex":
        "200c58a22a885a702ccfc5d962751236c6ef5a4ad6f0b65b05f072533cc5fddf",
    "expand --p 5 --form gamma":
        "fe19392c6d93e7fc8466392eb2ab3e5f5b3146b1d6cf295e4685d160d6b21077",
    "expand --p 5 --form gamma --latex":
        "5935d9569c628063acab9a515ec15227f225c2b7d4069aa9bbd15caec4e1d67b",
    "expand --p 5 --form intermediate":
        "119a768d7c3bc15f063337a38a55e72265667a5feb71cefb620166789b4ad648",
    "expand --p 5 --form intermediate --latex":
        "5935d9569c628063acab9a515ec15227f225c2b7d4069aa9bbd15caec4e1d67b",
    "expand --p 5 --form rho":
        "ee8ebd6cd0c1907836ca287dd5327f66ba930d612497d04d0ac3f0404d3dc840",
    "expand --p 5 --form rho --latex":
        "5935d9569c628063acab9a515ec15227f225c2b7d4069aa9bbd15caec4e1d67b",
    "expand --p 7 --form gamma":
        "a9d9d9974ea769975aabfd1ba6d0cee18ca0ccc14a0cf0b1ae60ff000e29d1e8",
    "expand --p 7 --form gamma --latex":
        "e696fef3d4bfeca200203c09f164de3d04bd575bda4459788bc6ae4c2f0d127a",
    "expand --p 7 --form intermediate":
        "16728de5862fad3482e7cce8f136fec47e02c29026ac1c465c1d7691b174eadd",
    "expand --p 7 --form intermediate --latex":
        "e696fef3d4bfeca200203c09f164de3d04bd575bda4459788bc6ae4c2f0d127a",
    "expand --p 7 --form rho":
        "6588669f08df17426df043ef0affd38f52e389d1d68187c4dfc1faaec6247094",
    "expand --p 7 --form rho --latex":
        "e696fef3d4bfeca200203c09f164de3d04bd575bda4459788bc6ae4c2f0d127a",
    "verify --p 3 --suite all":
        "1d70b3d0d62594ab7c545a16734d3a315b3b4c3ebf3c647630cf79a425a2c810",
    "verify --p 5 --suite all":
        "189fe637e117095723407741397a994840a78a614cbbd8c5b21bad3c987702d2",
    # 19 checks: p = 7 runs both closed checks (the other p run 18)
    "verify --p 7 --suite all":
        "e20526a289c962474ab0e42562d7079e15eb394968696be5341a6a1556f9fc9e",
    "verify --p 11 --suite all":
        "4abd3bb2aea299ddba84c685d18e63382988cffe65c80fb2abc52a9af53bea04",
    "verify --p 13 --suite all":
        "38e6d7ffbe9afbc5b8f7ef1bd84d0ebee52d27d8629d1b864f479566a85d6fe4",
}


@pytest.mark.parametrize("command", sorted(_STDOUT_SHA256))
def test_stdout_is_byte_pinned(capsys, command):
    code, out, err = _run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[command]


def test_expand_rejects_bad_primes(capsys):
    code, _, err = _run(capsys, "expand", "--p", "2")
    assert code == 2 and "odd prime" in err
    code, _, err = _run(capsys, "expand", "--p", "9")
    assert code == 2
    code, _, err = _run(capsys, "expand", "--p", "11")
    assert code == 2 and "p <= 7" in err


def test_expand_p7_runs_without_a_flag(capsys):
    code, out, _ = _run(capsys, "expand", "--p", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 7
    # one term per multiset of 7 coset indices with sum 0 mod 7
    assert len(payload["terms"]) == 246


def test_verify_all_p3(capsys):
    code, out, _ = _run(capsys, "verify", "--p", "3", "--suite", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_single_suites(capsys):
    for suite in ("star", "qplane", "norm", "local"):
        code, out, _ = _run(capsys, "verify", "--p", "3", "--suite", suite)
        assert code == 0, suite
        assert "checks passed" in out


def test_verify_seed_changes_nothing_for_p3(capsys):
    _, a, _ = _run(capsys, "verify", "--p", "3", "--suite", "star", "--seed", "0")
    _, b, _ = _run(capsys, "verify", "--p", "3", "--suite", "star", "--seed", "5")
    # p = 3 sweeps are exhaustive, so the seed cannot matter
    assert a == b


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--p", "3", "--suite", "bogus"])
    assert excinfo.value.code == 2


def test_verify_closed_runs_at_large_p(capsys, monkeypatch):
    monkeypatch.setattr(suites, "DEFAULT_GAMMA_COUNT", 2)
    code, out, _ = _run(capsys, "verify", "--p", "11", "--suite", "closed")
    assert code == 0
    assert out.splitlines() == [
        "ok   closed:closed-forms-numeric  (2 random gamma and bases over F_23)",
        "1/1 checks passed",
    ]


def test_verify_star_sweeps_over_the_given_q(capsys):
    code, out, _ = _run(capsys, "verify", "--p", "5", "--q", "31", "--suite", "star")
    assert code == 0
    assert out.splitlines()[0] == "ok   star:indicator-product  (100 random point pairs over F_31)"


def test_verify_closed_sweeps_over_the_given_q(capsys, monkeypatch):
    monkeypatch.setattr(suites, "DEFAULT_GAMMA_COUNT", 2)
    code, out, _ = _run(capsys, "verify", "--p", "7", "--q", "43", "--suite", "closed")
    assert code == 0
    assert out.splitlines() == [
        "ok   closed:closed-forms-numeric  (2 random gamma and bases over F_43)",
        "ok   closed:closed-forms-symbolic  (free gamma, exact)",
        "2/2 checks passed",
    ]


def test_pair_golden(capsys):
    code, out, _ = _run(
        capsys, "pair", "--p", "3", "--q", "7", "--alpha-p", "0:3", "--alpha-q", "1:1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/3"
    assert payload["model"] == {"p": 3, "q": 7, "g": 3, "zeta": 2}
    assert payload["convention"] == "e(Q,P)=zeta"


def test_pair_is_byte_stable(capsys):
    argv = ("pair", "--p", "3", "--q", "7", "--alpha-p", "0:3", "--alpha-q", "1:1")
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second


def test_pair_default_q(capsys):
    code, out, _ = _run(capsys, "pair", "--p", "5", "--alpha-p", "0:2", "--alpha-q", "1:1")
    assert code == 0
    assert json.loads(out)["model"]["q"] == 11


def test_pair_rejects_bad_model(capsys):
    code, _, err = _run(
        capsys, "pair", "--p", "3", "--q", "5", "--alpha-p", "0:1", "--alpha-q", "1:1"
    )
    assert code == 2
    assert "1 mod p" in err


@pytest.mark.parametrize("q, suite, message", [
    (8, "star", "error: q must be prime, got 8\n"),
    (7, "all", "error: q must be 1 mod p so the residue field has p-th roots; got q=7\n"),
], ids=["star", "all"])
def test_verify_checks_q_before_any_suite_runs(capsys, q, suite, message):
    code, out, err = _run(capsys, "verify", "--p", "5", "--q", str(q), "--suite", suite)
    assert (code, out, err) == (2, "", message)


def test_pair_rejects_bad_element(capsys):
    code, _, err = _run(
        capsys, "pair", "--p", "3", "--q", "7", "--alpha-p", "nope", "--alpha-q", "1:1"
    )
    assert code == 2


def test_hilbert_command(capsys):
    code, out, _ = _run(capsys, "hilbert", "--p", "3", "--q", "7", "--a", "1:1", "--b", "0:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2/3"
    assert payload["model"]["zeta"] == 2


@pytest.mark.parametrize("q, gen", [(7, 9), (13, 13)])
def test_a_bad_generator_is_named_as_given(capsys, q, gen):
    # 9 = 2 and 13 = 0 mod q; the message names the g on the command line
    code, out, err = _run(
        capsys, "hilbert", "--p", "3", "--q", str(q), "--gen", str(gen), "--a", "1:1", "--b", "0:3"
    )
    assert (code, out, err) == (2, "", f"error: g={gen} is not a primitive root mod {q}\n")


def test_hilbert_with_generator_override(capsys):
    # 5 is the other primitive root mod 7; zeta becomes 5^2 = 4
    code, out, _ = _run(
        capsys, "hilbert", "--p", "3", "--q", "7", "--gen", "5", "--a", "1:1", "--b", "0:3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["g"] == 5
    assert payload["model"]["zeta"] == 4


def test_hilbert_at_a_61_bit_prime(capsys):
    # q = 2^61 - 1 = 1 mod 3; 3 is a cube mod q, so {pi, [3]} vanishes
    q = 2 ** 61 - 1
    code, out, err = _run(
        capsys, "hilbert", "--p", "3", "--q", str(q), "--a", "1:1", "--b", "0:3"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert pow(3, (q - 1) // 3, q) == 1
    assert payload["value"] == "0"
    assert payload["model"]["q"] == q


def test_hilbert_when_q_minus_1_has_a_58_bit_prime_factor(capsys):
    # q - 1 = 6 * 288230376151712227; trial division of q - 1 would not end
    code, out, err = _run(
        capsys, "hilbert", "--p", "3", "--q", "1729382256910273363", "--a", "1:1", "--b", "0:3"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["model"]["q"] == 1729382256910273363


def test_verify_local_at_a_61_bit_prime(capsys):
    # the Steinberg sweep samples units when q - 1 is large
    code, out, err = _run(
        capsys, "verify", "--p", "3", "--q", str(2 ** 61 - 1), "--suite", "local"
    )
    assert (code, err) == (0, "")
    assert "64 random units of 2305843009213693950" in out
    assert out.endswith("7/7 checks passed\n")


# The largest prime q = 1 mod 3 below 318665857834031151167461, the bound up to
# which the Miller-Rabin test is exact and so the largest q split_field accepts.
_Q_BELOW_BOUND = 318665857834031151167263


def test_verify_local_past_2_to_the_63(capsys):
    # rng.sample(range(1, q), 64) took len() of the range, which overflows here
    code, out, err = _run(
        capsys, "verify", "--p", "3", "--q", str(_Q_BELOW_BOUND), "--suite", "local"
    )
    assert (code, err) == (0, "")
    assert f"64 random units of {_Q_BELOW_BOUND - 1}" in out
    assert out.endswith("7/7 checks passed\n")


def test_hilbert_just_below_the_exact_primality_bound(capsys):
    code, out, err = _run(
        capsys, "hilbert", "--p", "3", "--q", str(_Q_BELOW_BOUND), "--a", "1:1", "--b", "0:3"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["model"]["q"] == _Q_BELOW_BOUND


# The bound itself, a strong pseudoprime to all twelve bases, and a q whose q - 1
# is 6 times two 60-bit primes, which Pollard rho did not split in 30 s.
@pytest.mark.parametrize("q", [318665857834031151167461, 5217488142485159139375364863261581263])
def test_q_at_or_past_the_exact_primality_bound_exits_2(capsys, q):
    code, out, err = _run(capsys, "hilbert", "--p", "3", "--q", str(q), "--a", "1:1", "--b", "0:3")
    assert (code, out) == (2, "")
    assert "q must be below 318665857834031151167461" in err


def test_huge_prime_p_is_rejected_by_the_guard(capsys):
    code, _, err = _run(capsys, "verify", "--p", str(2 ** 61 - 1), "--suite", "star")
    assert code == 2
    assert "exceeds the guard bound 13" in err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def _fresh_process(argv):
    """(exit code, stdout, stderr) of one command in a new interpreter, 80 columns wide."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(tatestar.__file__).resolve().parents[1]))
    script = "import sys; from tatestar.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def _run_exiting(capsys, argv):
    """(exit code, stdout, stderr) of one in-process command, argparse's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_HELP = [["--help"]] + [[command, "--help"] for command in ("expand", "verify", "pair", "hilbert")]
_USAGE_ERROR = ["hilbert", "--p", "3"]


def test_the_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["hilbert", "--p", "3", "--q", "7", "--a", "1:1", "--b", "0:3"],
        ["pair", "--p", "3", "--q", "7", "--alpha-p", "0:3", "--alpha-q", "1:1"],
        _USAGE_ERROR,
        ["pair", "--p", "3", "--q", "5", "--alpha-p", "0:1", "--alpha-q", "1:1"],
        *_HELP,
        ["expand", "--p", "3"],
        ["verify", "--p", "3", "--suite", "norm"],
    ]
    cli.build_parser.cache_clear()
    first = [_run_exiting(capsys, argv) for argv in sequence]
    assert first == [_run_exiting(capsys, argv) for argv in sequence]
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0]
    usage = first[2]
    assert usage[1] == "" and usage[2].startswith("usage: tatestar hilbert")
    for argv, outcome in zip(sequence, first):
        if argv in _HELP or argv == _USAGE_ERROR:
            assert outcome == _fresh_process(argv), argv


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    argv = ["hilbert", "--p", "3", "--q", "7", "--a", "1:1", "--b", "0:3"]
    assert main(argv) == 0
    # the top level and its four subcommands
    assert len(built) == 5
    for _ in range(20):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(built) == 5


def test_each_model_is_built_once_and_equals_a_new_one(capsys, monkeypatch):
    seen, payload = [], cli.symbol_payload

    def recording(command, model, value):
        seen.append(model)
        return payload(command, model, value)

    monkeypatch.setattr(cli, "symbol_payload", recording)
    flags = ["--p", "3", "--q", "7"]
    assert main(["hilbert", *flags, "--a", "1:1", "--b", "0:3"]) == 0
    assert main(["pair", *flags, "--alpha-p", "0:3", "--alpha-q", "1:1"]) == 0
    assert main(["hilbert", *flags, "--gen", "5", "--a", "1:1", "--b", "0:3"]) == 0
    capsys.readouterr()
    assert seen[0] is seen[1] and seen[2] is not seen[0]
    assert seen[0] == TameFieldModel.create(3, 7, None)
    assert seen[2] == TameFieldModel.create(3, 7, 5)


@pytest.mark.parametrize("flags, message", [
    (["--q", "8"], "error: q must be prime, got 8\n"),
    (["--q", "7", "--gen", "2"], "error: g=2 is not a primitive root mod 7\n"),
], ids=["q", "gen"])
def test_a_rejected_model_is_rejected_on_every_call(capsys, flags, message):
    argv = ["hilbert", "--p", "3", *flags, "--a", "1:1", "--b", "0:3"]
    assert [_run(capsys, *argv) for _ in range(3)] == [(2, "", message)] * 3
