"""lab-cli: instance files, conversions, cohomology commands, generation,
verify; the exit-code contract and determinism guarantees."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padic_simpson import io_json, linalg
from padic_simpson.cli import build_parser, main
from padic_simpson.context import PrimeContext
from padic_simpson.generate import gen_higgs
from padic_simpson.higgs import HiggsModule, SmallRep, spectral_algebra
from padic_simpson.matrix import PadicMatrix


C5 = PrimeContext(5, 32)


def write_higgs(path, H, metadata=None):
    io_json.write_instance(str(path), io_json.higgs_to_json(H, metadata))


def run_cli(*argv):
    return main(list(argv))


class TestInstanceFiles:
    def test_higgs_round_trip(self, tmp_path):
        H = gen_higgs(5, d=2, rank=3, seed=1)
        path = tmp_path / "h.json"
        write_higgs(path, H)
        obj, _ = io_json.load_instance(str(path))
        assert io_json.higgs_from_json(obj) == H

    def test_rep_round_trip(self, tmp_path):
        from padic_simpson.higgs import higgs_to_rep

        V = higgs_to_rep(gen_higgs(5, d=2, rank=2, seed=2))
        path = tmp_path / "v.json"
        io_json.write_instance(str(path), io_json.rep_to_json(V))
        obj, _ = io_json.load_instance(str(path))
        assert io_json.rep_from_json(obj) == V

    def test_algebra_round_trip(self):
        from padic_simpson.algebra import FinAlgebra

        A = FinAlgebra.from_power_relation(C5, [0, 1])
        back = io_json.algebra_from_json(io_json.algebra_to_json(A))
        assert back == A and back.exact_structure

    @pytest.mark.parametrize("field, index, value, message", [
        ("mul", (0, 1), ["0", "1", "0"], "mul[0][1] holds 3 entries, expected 2"),
        ("mul", (1, 0), ["1"], "mul[1][0] holds 1 entries, expected 2"),
        ("mul", (1,), [["0", "1"]], "mul[1] holds 1 entries, expected 2"),
        ("one", (), ["1"], "one holds 1 entries, expected 2"),
        ("one", (), ["1", "0", "0"], "one holds 3 entries, expected 2"),
    ])
    def test_ragged_algebra_tensor_refused(self, field, index, value, message):
        # a list of the wrong length in "mul" or "one" is named with the
        # length expected, never read as another tensor
        from padic_simpson.algebra import FinAlgebra
        from padic_simpson.errors import ParseError

        obj = io_json.algebra_to_json(FinAlgebra.from_power_relation(C5, [0, 1]))
        if index:
            target = obj[field]
            for i in index[:-1]:
                target = target[i]
            target[index[-1]] = value
        else:
            obj[field] = value
        with pytest.raises(ParseError) as info:
            io_json.algebra_from_json(obj)
        assert str(info.value) == "tensor field " + message

    @pytest.mark.parametrize("tau0, message", [
        (["0", "0:1", "0"], "tau[0] holds 3 entries, expected 2"),
        (["0:1"], "tau[0] holds 1 entries, expected 2"),
    ])
    def test_ragged_twist_tau_refused(self, tau0, message):
        # B_theta of this instance has dim 2: a tau coordinate list of
        # another length is named, never read as an element of B
        from padic_simpson.errors import ParseError
        from padic_simpson.higgs import spectral_algebra

        S = spectral_algebra(gen_higgs(5, 1, 3, 0.6, seed=1))
        obj = io_json.twist_to_json(S.algebra, S.tau)
        assert S.algebra.dim == 2 and len(obj["tau"][0]) == 2
        obj["tau"][0] = tau0
        with pytest.raises(ParseError) as info:
            io_json.twist_from_json(obj)
        assert str(info.value) == "twist field " + message

    @pytest.mark.parametrize("field, value", [
        ("p", 7.9), ("p", True), ("p", "5"), ("p", None),
        ("precision", 16.7), ("precision", False), ("precision", "32"), ("precision", 32.0),
    ])
    def test_context_fields_must_be_json_integers(self, field, value):
        # "p": 7.9 used to read as p = 7, "precision": 16.7 as N = 16 and
        # "p": true as 1; every kind of file reads its context here
        from padic_simpson.errors import ParseError

        obj = io_json.higgs_to_json(gen_higgs(5, d=1, rank=2, seed=3))
        obj[field] = value
        with pytest.raises(ParseError) as info:
            io_json.higgs_from_json(obj)
        assert str(info.value) == "field %s must be an integer, got %s" % (field, json.dumps(value))
        # the --precision override still replaces the file's precision
        if field == "precision":
            assert io_json.higgs_from_json(obj, 24).ctx == PrimeContext(5, 24)

    def test_twist_round_trip(self):
        # a twist's tensor was solved for and reloads as such, so exp of a
        # reloaded tau keeps the original's digits; read as an exact tensor
        # it would claim all 32
        from padic_simpson.algebra import alg_exp
        from padic_simpson.higgs import spectral_algebra

        S = spectral_algebra(gen_higgs(3, d=1, rank=3, density=0.85, seed=2))
        B, tau = io_json.twist_from_json(io_json.twist_to_json(S.algebra, S.tau))
        assert B == S.algebra and not B.exact_structure
        for t, back in zip(S.tau, tau):
            assert [(c.v, c.u, c.prec) for c in alg_exp(back).coords] == [
                (c.v, c.u, c.prec) for c in alg_exp(t).coords]

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run_cli("cohomology", str(path)) == 2

    def test_wrong_kind_rejected(self, tmp_path):
        H = gen_higgs(5, d=1, rank=2, seed=3)
        path = tmp_path / "h.json"
        write_higgs(path, H)
        out = tmp_path / "out.json"
        assert run_cli("to-higgs", str(path), "--out", str(out)) == 2

    def test_schema_mismatch_rejected(self, tmp_path):
        H = gen_higgs(5, d=1, rank=2, seed=3)
        obj = io_json.higgs_to_json(H)
        obj["rank"] = 7
        path = tmp_path / "h.json"
        path.write_text(json.dumps(obj))
        assert run_cli("cohomology", str(path)) == 2


class TestConversions:
    def test_zero_to_identity(self, tmp_path):
        path = tmp_path / "h.json"
        out = tmp_path / "v.json"
        write_higgs(path, HiggsModule.trivial(C5, 2, rank=2))
        assert run_cli("to-rep", str(path), "--out", str(out)) == 0
        obj, _ = io_json.load_instance(str(out))
        V = io_json.rep_from_json(obj)
        assert V.is_trivial()

    def test_nilpotent_fixture(self, tmp_path):
        H = HiggsModule.create(C5, [PadicMatrix.from_ints(C5, [[0, 5], [0, 0]])])
        path, out = tmp_path / "h.json", tmp_path / "v.json"
        write_higgs(path, H)
        run_cli("to-rep", str(path), "--out", str(out))
        obj, _ = io_json.load_instance(str(out))
        assert obj["rho"][0][0] == ["0:1", "1:1"]
        assert obj["rho"][0][1] == ["0", "0:1"]

    def test_round_trip_files(self, tmp_path):
        H = gen_higgs(3, d=2, rank=3, seed=4)
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        write_higgs(a, H)
        assert run_cli("to-rep", str(a), "--out", str(b)) == 0
        assert run_cli("to-higgs", str(b), "--out", str(c)) == 0
        back = io_json.higgs_from_json(io_json.load_instance(str(c))[0])
        assert back.agrees(H, 24)

    def test_provenance_metadata(self, tmp_path):
        H = gen_higgs(5, d=1, rank=2, seed=5)
        path, out = tmp_path / "h.json", tmp_path / "v.json"
        text = write_higgs(path, H) or path.read_text()
        run_cli("to-rep", str(path), "--out", str(out))
        obj, _ = io_json.load_instance(str(out))
        assert obj["metadata"]["source_sha256"] == io_json.file_hash(text)
        assert obj["metadata"]["command"] == "to-rep"

    def test_invalid_higgs_exit_2(self, tmp_path):
        bad = HiggsModule.create(
            C5,
            [
                PadicMatrix.from_ints(C5, [[0, 5], [0, 0]]),
                PadicMatrix.from_ints(C5, [[0, 0], [5, 0]]),
            ],
        )
        path, out = tmp_path / "bad.json", tmp_path / "v.json"
        write_higgs(path, bad)
        assert run_cli("to-rep", str(path), "--out", str(out)) == 2


@pytest.mark.parametrize("kind", ["higgs", "rep"])
@pytest.mark.parametrize("rank, matrices", [
    (1, None),  # no matrix field
    (2, [[["5", "0"], ["0"]]]),  # ragged row
    (1, [[["5", "0"]]]),  # not rank x rank
], ids=["missing", "ragged", "not-square"])
def test_malformed_instance_exit_2(tmp_path, capsys, kind, rank, matrices):
    field, command = {"higgs": ("theta", "to-rep"), "rep": ("rho", "to-higgs")}[kind]
    obj = {"format": 1, "kind": kind, "p": 5, "precision": 32, "d": 1, "rank": rank}
    if matrices is not None:
        obj[field] = matrices
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    assert run_cli(command, str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")
    assert not out.exists()

@pytest.mark.parametrize("kind", ["higgs", "rep"])
def test_gen_rank_zero_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "g.json"
    for rank in ("0", "-1"):
        assert run_cli("gen", "--kind", kind, "--p", "3", "--d", "1", "--rank", rank,
                       "--out", str(path)) == 2
        assert "the rank must be at least 1" in capsys.readouterr().err
        assert not path.exists()


@pytest.mark.parametrize("command", ["gen", "to-rep", "to-higgs", "spectral", "verify --out",
                                     "verify --counterexample-dir"])
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    # a path that cannot be written is refused as invalid input, exit 2,
    # not the exit 1 of a failed suite, and no file is written
    h, v, bad = tmp_path / "h.json", tmp_path / "v.json", tmp_path / "bad.json"
    assert run_cli("gen", "--p", "5", "--d", "1", "--rank", "2", "--seed", "1",
                   "--out", str(h)) == 0
    assert run_cli("to-rep", str(h), "--out", str(v)) == 0
    write_higgs(bad, HiggsModule.create(C5, [PadicMatrix.from_ints(C5, [[0, 5], [0, 0]]),
                                             PadicMatrix.from_ints(C5, [[0, 0], [5, 0]])]))
    capsys.readouterr()
    missing = tmp_path / "missing"
    target = missing / "out.json"
    argv = {
        "gen": ["gen", "--p", "5", "--d", "1", "--rank", "2", "--out", str(target)],
        "to-rep": ["to-rep", str(h), "--out", str(target)],
        "to-higgs": ["to-higgs", str(v), "--out", str(target)],
        "spectral": ["spectral", str(h), "--out", str(target)],
        "verify --out": ["verify", "--suites", "roundtrip", "--count", "1",
                         "--out", str(target)],
        # the fixture fails the suite, so its counterexample is written
        "verify --counterexample-dir": [
            "verify", "--suites", "roundtrip", "--count", "1", "--fixture", str(bad),
            "--counterexample-dir", str(missing)],
    }[command]
    if command == "verify --counterexample-dir":
        target = missing / "counterexample_roundtrip.json"
    assert run_cli(*argv) == 2
    assert "error: cannot write %s: " % target in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("density", ["1.5", "-0.5", "nan"])
def test_gen_density_outside_unit_interval_exit_2(tmp_path, capsys, density):
    # a density is a probability: above 1 it would be the law of 1 under
    # another seed (the generator is seeded with repr(density))
    path = tmp_path / "g.json"
    assert run_cli("gen", "--p", "3", "--d", "1", "--rank", "2", "--density", density,
                   "--out", str(path)) == 2
    assert "the density must lie in [0, 1], got %s" % density in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("kind, commands", [
    ("higgs", ["to-rep", "cohomology", "compare", "spectral"]),
    ("rep", ["to-higgs", "cohomology"]),
])
def test_rank_zero_instance_exit_2(tmp_path, capsys, kind, commands):
    # a file of 0 x 0 components, as gen --rank 0 once wrote
    field = {"higgs": "theta", "rep": "rho"}[kind]
    obj = {"format": 1, "kind": kind, "p": 3, "precision": 32, "d": 1, "rank": 0,
           field: [[]]}
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    for command in commands:
        argv = [command, str(path)]
        if command not in ("cohomology", "compare"):
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 2, command
        assert "the rank must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--p", "3", "--d", "1", "--rank", "2"],
    ["verify", "--count", "1"],
], ids=["gen", "verify"])
def test_precision_zero_exit_2(tmp_path, capsys, argv):
    # 0 is refused like any precision below the minimum, not read as unset
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--precision", "0", "--out", str(out)) == 2
    assert "precision 0 below the minimum" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["to-rep", "H.json", "--out", "V.json"],
    ["to-higgs", "V.json", "--out", "H.json"],
    ["spectral", "H.json", "--out", "B.json"],
    ["gen", "--p", "3", "--d", "1", "--rank", "2", "--out", "H.json"],
], ids=["to-rep", "to-higgs", "spectral", "gen"])
def test_slack_refused_where_no_rank_is_decided(tmp_path, capsys, argv):
    # only cohomology, compare and verify read --slack; elsewhere argparse
    # refuses it before any file is read or written
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--slack", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --slack 3" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["cohomology", "compare", "verify"])
def test_negative_slack_exit_2(tmp_path, monkeypatch, capsys, command):
    # a negative slack would lower the evidence a rank decision rests on
    # below nothing (cohomology, compare) or ask for N + 1 digits of a
    # suite (verify); it is refused before any file is read or written
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "h.json"
    write_higgs(path, gen_higgs(3, d=1, rank=2, seed=0))
    argv = ["verify", "--count", "1"] if command == "verify" else [command, str(path)]
    assert run_cli(*argv, "--slack", "-1") == 2
    assert "the slack must be at least 0, got -1" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["h.json"]


@pytest.mark.parametrize("option, value", [
    ("--primes", "x"), ("--primes", "3,,5"), ("--primes", ""),
    ("--d-max", "0"), ("--d-max", "-1"), ("--n-max", "0"), ("--count", "0"),
])
def test_bad_grid_options_exit_2(tmp_path, monkeypatch, capsys, option, value):
    # a grid verify cannot run is refused as invalid input (exit 2), not
    # as a suite failure with a traceback (exit 1) or as a run at d = 1
    monkeypatch.chdir(tmp_path)
    message = {"--primes": "--primes takes a comma-separated list of integers, got %r" % value,
               "--count": "count must be at least 1"}.get(option,
                                                           "d_max and n_max must be at least 1")
    assert run_cli("verify", "--count", "1", option, value) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_slack_accepted_where_ranks_are_decided():
    parser = build_parser()
    for argv in (["cohomology", "H.json"], ["compare", "H.json"], ["verify"]):
        assert parser.parse_args(argv + ["--slack", "3"]).slack == 3


class TestCohomologyCommands:
    def test_trivial_shape(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        write_higgs(path, HiggsModule.trivial(C5, 2, rank=1))
        assert run_cli("cohomology", str(path)) == 0
        out = capsys.readouterr().out
        assert "h = 1 2 1" in out

    def test_compare_exit_0(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        H = HiggsModule.create(C5, [PadicMatrix.from_ints(C5, [[0, 5], [0, 0]])])
        write_higgs(path, H)
        assert run_cli("compare", str(path)) == 0
        out = capsys.readouterr().out
        assert "higgs h = 1 1" in out and "group h = 1 1" in out

    def test_rep_side(self, tmp_path, capsys):
        from padic_simpson.higgs import higgs_to_rep

        V = higgs_to_rep(HiggsModule.trivial(C5, 2, rank=1))
        path = tmp_path / "v.json"
        io_json.write_instance(str(path), io_json.rep_to_json(V))
        assert run_cli("cohomology", str(path)) == 0
        assert "side = group" in capsys.readouterr().out

    def test_precision_exhausted_exit_4(self, tmp_path, capsys):
        # a rank-deficient instance at precision 8 cannot give 10 digits of
        # evidence behind its zero-decisions
        ctx8 = PrimeContext(5, 8)
        H = HiggsModule.create(ctx8, [PadicMatrix.from_ints(ctx8, [[0, 5], [0, 0]])])
        path = tmp_path / "h.json"
        write_higgs(path, H)
        assert run_cli("compare", str(path), "--slack", "10") == 4
        assert "precision" in capsys.readouterr().err

    def test_spectral_output(self, tmp_path, capsys):
        H = HiggsModule.create(C5, [PadicMatrix.from_ints(C5, [[0, 5], [0, 0]])])
        path, out = tmp_path / "h.json", tmp_path / "s.json"
        write_higgs(path, H)
        assert run_cli("spectral", str(path), "--out", str(out)) == 0
        obj, _ = io_json.load_instance(str(out))
        assert obj["kind"] == "twist"
        B, tau = io_json.twist_from_json(obj)
        assert B.dim == 2 and len(tau) == 1

    def test_spectral_shortfall_exit_4(self, tmp_path, capsys):
        # at precision 8 the multiplication matrices of this B_theta do not
        # commute to the digits they keep; as a subalgebra of End(E) it can
        # only have run out of digits
        path, out = tmp_path / "h.json", tmp_path / "s.json"
        assert run_cli("gen", "--kind", "higgs", "--p", "2", "--d", "2", "--rank", "5",
                       "--density", "0.6", "--seed", "1", "--precision", "8",
                       "--out", str(path)) == 0
        assert run_cli("spectral", str(path), "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert ("precision exhausted: the multiplication matrices of theta_0 and theta_1 "
                "do not commute") in err
        assert not out.exists()

    def test_spectral_at_precision_8_earns_its_digits(self, tmp_path):
        # refused once the span's decisions and a second elimination of it
        # disagreed; decided once, it is B_theta of dim 4, and every digit
        # of its tensor and tau agrees with B_theta at N = 72
        path, out = tmp_path / "h.json", tmp_path / "s.json"
        assert run_cli("gen", "--kind", "higgs", "--p", "3", "--d", "2", "--rank", "4",
                       "--density", "0.6", "--seed", "2", "--precision", "8",
                       "--out", str(path)) == 0
        assert run_cli("spectral", str(path), "--out", str(out)) == 0
        S = spectral_algebra(io_json.higgs_from_json(io_json.load_instance(str(path))[0]))
        W = spectral_algebra(gen_higgs(3, 2, 4, 0.6, 2, precision=72))
        assert S.algebra.dim == W.algebra.dim == 4
        for x, y in [(S.algebra.tensor, W.algebra.tensor)] + \
                [(s.row, w.row) for s, w in zip(S.tau, W.tau, strict=True)]:
            for k in range(len(x)):
                assert y.prec[k] >= x.prec[k]
                assert linalg.congruent(x.slice(k, k + 1), y.slice(k, k + 1))


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--p", "5", "--d", "2", "--rank", "3", "--seed", "9"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_validates(self, tmp_path):
        path = tmp_path / "g.json"
        run_cli("gen", "--p", "7", "--d", "3", "--rank", "4", "--seed", "1",
                "--out", str(path))
        from padic_simpson.higgs import validate_higgs

        H = io_json.higgs_from_json(io_json.load_instance(str(path))[0])
        assert validate_higgs(H).ok

    def test_density_zero(self, tmp_path):
        path = tmp_path / "g.json"
        run_cli("gen", "--p", "5", "--d", "2", "--rank", "3", "--density", "0",
                "--seed", "2", "--out", str(path))
        H = io_json.higgs_from_json(io_json.load_instance(str(path))[0])
        assert H.is_trivial()

    def test_malformed_precision_env_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIMPSON_PRECISION", "abc")
        path = tmp_path / "x.json"
        assert run_cli("gen", "--p", "3", "--d", "1", "--rank", "2", "--out", str(path)) == 2
        assert "invalid input: SIMPSON_PRECISION" in capsys.readouterr().err
        assert not path.exists()

    def test_rep_kind(self, tmp_path):
        path = tmp_path / "g.json"
        run_cli("gen", "--kind", "rep", "--p", "3", "--d", "2", "--rank", "2",
                "--seed", "3", "--out", str(path))
        from padic_simpson.higgs import validate_rep

        V = io_json.rep_from_json(io_json.load_instance(str(path))[0])
        assert validate_rep(V).ok


class TestVerifyCommand:
    def test_all_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = run_cli("verify", "--count", "4", "--seed", "1", "--out", str(out))
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["ok"] is True
        assert set(summary["suites"]) == {
            "roundtrip", "cohomology", "functoriality", "explog",
            "cartdiag", "unitscaling", "spectral",
        }

    def test_summary_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("verify", "--count", "3", "--seed", "5", "--suites", "roundtrip,explog",
                "--out", str(a))
        run_cli("verify", "--count", "3", "--seed", "5", "--suites", "roundtrip,explog",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_default_summary_pinned(self, tmp_path, capsys, monkeypatch):
        # the default suites at --count 20: every digit, rank and verdict
        # of the summary file, byte for byte
        monkeypatch.delenv("SIMPSON_PRECISION", raising=False)
        out = tmp_path / "summary.json"
        assert run_cli("verify", "--count", "20", "--seed", "0", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4de96e9c23df7557e3d0827f4b6297eb2758d46554cd568413a56915e9baa29c")

    def test_suite_subset(self, tmp_path, capsys):
        code = run_cli("verify", "--count", "2", "--suites", "explog")
        assert code == 0
        out = capsys.readouterr().out
        assert "explog" in out and "roundtrip" not in out

    def test_bad_suite_name(self):
        assert run_cli("verify", "--suites", "nonsense") == 2

    def test_empty_suite_list_refused(self, capsys):
        # a list that names no suite would run nothing and read as "every
        # suite passed"; it is refused as a bad name is
        for suites in (",", ""):
            assert run_cli("verify", "--suites", suites) == 2
            err = capsys.readouterr().err
            assert "no suites to run" in err

    def test_cartdiag_replay_hint_parses(self, monkeypatch):
        # force a failing square check so the suite writes its replay hint
        from types import SimpleNamespace

        from padic_simpson import verify
        from padic_simpson.cli import build_parser

        monkeypatch.setattr(verify, "cart_square_check",
                            lambda A, f, seed, slack: SimpleNamespace(ok=False, failures=["forced"]))
        cfg = verify.VerifyConfig(suites=("cartdiag",), primes=(7, 3), seed=11, slack=5,
                                  precision=24)
        replay = verify.suite_cartdiag(cfg).counterexample["replay"]
        prog, *argv = replay.split()
        assert prog == "simpson"
        args = build_parser().parse_args(argv)
        assert args.command == "verify"
        assert (args.suites, args.primes) == ("cartdiag", "7")
        assert (args.seed, args.slack, args.precision) == (11, 5, 24)

    def test_corrupted_fixture_detected(self, tmp_path):
        # a non-commuting theta must be rejected with the validation report
        bad = HiggsModule.create(
            C5,
            [
                PadicMatrix.from_ints(C5, [[0, 5], [0, 0]]),
                PadicMatrix.from_ints(C5, [[0, 0], [5, 0]]),
            ],
        )
        path = tmp_path / "bad.json"
        write_higgs(path, bad)
        assert run_cli("compare", str(path)) == 2

    def test_corrupted_fixture_in_verify_exit_1_and_replayable(self, tmp_path, capsys):
        bad = HiggsModule.create(
            C5,
            [
                PadicMatrix.from_ints(C5, [[0, 5], [0, 0]]),
                PadicMatrix.from_ints(C5, [[0, 0], [5, 0]]),
            ],
        )
        path = tmp_path / "bad.json"
        write_higgs(path, bad)
        code = run_cli("verify", "--suites", "roundtrip", "--count", "2",
                       "--fixture", str(path), "--counterexample-dir", str(tmp_path))
        assert code == 1
        ce = tmp_path / "counterexample_roundtrip.json"
        assert ce.exists()
        # the counterexample is itself an instance file and re-fails in
        # isolation through the corresponding command
        out = tmp_path / "out.json"
        assert run_cli("to-rep", str(ce), "--out", str(out)) == 2

    def test_fixture_judged_at_its_own_precision(self, tmp_path):
        # a valid file made at N = 16 round-trips to 16 - 8 digits: it
        # passes under any run precision, and writes no counterexample
        path = tmp_path / "h16.json"
        assert run_cli("gen", "--p", "5", "--d", "2", "--rank", "3", "--seed", "1",
                       "--precision", "16", "--out", str(path)) == 0
        for precision in ([], ["--precision", "16"], ["--precision", "40"]):
            assert run_cli("verify", "--suites", "roundtrip", "--count", "1", *precision,
                           "--fixture", str(path), "--counterexample-dir", str(tmp_path)) == 0
        assert [f.name for f in tmp_path.iterdir()] == ["h16.json"]


class TestEntryPoint:
    def test_module_invocation_and_cross_process_determinism(self, tmp_path):
        out = tmp_path / "g.json"
        # the fresh interpreter imports the package from this checkout's src,
        # installed or not
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        proc = subprocess.run(
            [sys.executable, "-m", "padic_simpson.cli", "gen", "--p", "5", "--d", "1",
             "--rank", "2", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        # generation is seeded through sha512-hashed strings, so a separate
        # process must produce the identical file
        here = tmp_path / "h.json"
        assert run_cli("gen", "--p", "5", "--d", "1", "--rank", "2", "--seed", "0",
                       "--out", str(here)) == 0
        assert out.read_bytes() == here.read_bytes()


# -- pinned CLI output ---------------------------------------------------------


def cli_output_digests(monkeypatch, capsys, tmp_path):
    """sha256 prefix, per command, of what the CLI writes on a fixed grid:
    gen higgs files at p in {2, 3, 5, 7} and d in {1, 2, 3}, with ranks and
    densities cycling, pushed through to-rep, to-higgs (on the written rep
    file), spectral, cohomology (on both files) and compare; to-rep and
    to-higgs run once more with --precision 20.  Each transcript
    entry is the exit code, stdout, stderr and the bytes of any written file.
    'invalid' covers to-rep on a non-commuting higgs file and to-higgs on a
    rep file not congruent to 1."""
    monkeypatch.chdir(tmp_path)
    digests = {}

    def run(key, *argv, out=None):
        code = run_cli(*argv)
        cap = capsys.readouterr()
        blob = repr((argv, code, cap.out, cap.err)).encode()
        if out is not None and (tmp_path / out).exists():
            blob += (tmp_path / out).read_bytes()
        digests.setdefault(key, hashlib.sha256()).update(blob)

    ranks, densities = (1, 2, 3), ("0.0", "0.6", "0.85")
    idx = 0
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3):
            h, v, hb, s, v20, h20 = ("%s%d.json" % (x, idx)
                                     for x in ("h", "v", "hb", "s", "v20_", "h20_"))
            run("gen", "gen", "--p", str(p), "--d", str(d),
                "--rank", str(ranks[(idx + idx // 3) % 3]),
                "--density", densities[(idx // 2) % 3], "--seed", str(idx), "--out", h, out=h)
            run("to-rep", "to-rep", h, "--out", v, out=v)
            run("to-rep", "to-rep", h, "--precision", "20", "--out", v20, out=v20)
            run("to-higgs", "to-higgs", v, "--out", hb, out=hb)
            run("to-higgs", "to-higgs", v, "--precision", "20", "--out", h20, out=h20)
            run("spectral", "spectral", h, "--out", s, out=s)
            run("cohomology", "cohomology", h)
            run("cohomology", "cohomology", v)
            run("compare", "compare", h)
            idx += 1
    bad_h = HiggsModule.create(C5, [PadicMatrix.from_ints(C5, [[0, 5], [0, 0]]),
                                    PadicMatrix.from_ints(C5, [[0, 0], [5, 0]])])
    write_higgs(tmp_path / "bad_h.json", bad_h)
    run("invalid", "to-rep", "bad_h.json", "--out", "bad_v_out.json")
    bad_v = SmallRep.create(C5, [PadicMatrix.from_ints(C5, [[2, 0], [0, 1]])])
    io_json.write_instance(str(tmp_path / "bad_v.json"), io_json.rep_to_json(bad_v))
    run("invalid", "to-higgs", "bad_v.json", "--out", "bad_h_out.json")
    return {k: v.hexdigest()[:16] for k, v in digests.items()}


# cli_output_digests, recorded before the two sides shared their code paths;
# to-rep re-pinned when the exp term count stopped dropping surviving terms,
# which had put wrong digits in rho at --precision 20 for p = 3 and 5
CLI_OUTPUT = {
    "gen": "046912b6ac3bee94", "to-rep": "c6f1064535b25b4b", "to-higgs": "20129baf068070aa",
    "spectral": "4f9ed0947c68e2fa", "cohomology": "b2eb0eebab0b5e76",
    "compare": "26243386d8a50a3b", "invalid": "d43a0173dd1494ba",
}


def test_cli_output_pinned(monkeypatch, capsys, tmp_path):
    assert cli_output_digests(monkeypatch, capsys, tmp_path) == CLI_OUTPUT
