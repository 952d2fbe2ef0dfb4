import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pairkey import cli
from pairkey import montecarlo as mc

import oracles


def run(argv):
    return cli.main(argv)


def read_edges(path):
    return [tuple(int(x) for x in line.split())
            for line in path.read_text().splitlines()]


def no_work(*args, **kwargs):
    raise AssertionError("work ran")


def strict_json(text):
    """json.loads without Python's NaN and Infinity, which JSON lacks and
    other parsers reject."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


# two workers where the machine has two CPUs: the CLI rejects more workers
# than CPUs
TWO_WORKERS = str(min(2, os.cpu_count() or 1))

INSTANCE_FILES = ("channel.edges", "pairwise.edges", "intersection.edges",
                  "intersection.components", "pairing.txt")


class TestParseGrids:
    def test_k_range(self):
        assert cli.parse_k_values("1..5", 200) == (1, 2, 3, 4, 5)

    def test_k_commas(self):
        assert cli.parse_k_values("2,5,9", 200) == (2, 5, 9)

    def test_k_mixed(self):
        assert cli.parse_k_values("1..3,7", 200) == (1, 2, 3, 7)

    def test_k_empty_range(self):
        with pytest.raises(ValueError):
            cli.parse_k_values("5..3", 200)

    def test_k_range_checked_against_n_before_it_is_expanded(self):
        cli._sweep_config(n=200, K="1..3")  # pays any one-time allocation
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as e:
                cli._sweep_config(n=200, K="1..3000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == "require 1 <= K < n, got K=3000000, n=200"
        assert peak < 2 ** 20
        with pytest.raises(ValueError, match="got K=0, n=200"):
            cli.parse_k_values("0..5", 200)

    def test_p_list(self):
        assert cli.parse_p_values("0.2,0.4") == (0.2, 0.4)

    def test_p_bad(self):
        with pytest.raises(ValueError):
            cli.parse_p_values("0.2,oops")


class TestUsageErrors:
    def test_no_command(self):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_simulate_missing_out(self):
        assert run(["simulate", "--n", "10"]) == 1

    def test_k_geq_n(self, tmp_path, capsys):
        rc = run(["simulate", "--n", "10", "--K", "10", "--p", "0.5",
                  "--trials", "1", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "K" in capsys.readouterr().err

    def test_bad_p(self, tmp_path):
        assert run(["simulate", "--n", "10", "--K", "2", "--p", "1.5",
                    "--trials", "1", "--seed", "1",
                    "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_figure(self, tmp_path):
        assert run(["figure", "fig99", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "10", "--K", "2", "--p", "0.5", "--trials", "1",
         "--seed", "1", "--workers", "1"],
        ["figure", "fig2", "--trials", "1", "--seed", "1", "--workers", "1"],
        ["validate", "--samples", "1000", "--seed", "1"],
    ])
    def test_unwritable_out_fails_before_any_work(self, command, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.setattr(mc, "_run_cell", no_work)
        monkeypatch.setattr(mc, "validate_bounds", no_work)
        # a missing directory, and a directory named as the file
        for out in ("/nonexistent/dir/x.csv", str(tmp_path)):
            assert run(command + ["--out", out]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and out in err[0], err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,named", [
        (["dump-instance", "--seed", "-1", "--outdir", "D"], "seed"),
        (["validate", "--seed", "-3"], "seed"),
        (["simulate", "--seed", "-1", "--out", "D/x.csv"], "seed"),
        (["figure", "fig2", "--seed", "-1", "--out", "D/x.csv"], "seed"),
        (["validate", "--n", "5", "--K", "9"], "K"),
        (["validate", "--samples", "10"], "samples"),
        (["dump-instance", "--n", "5", "--K", "5", "--outdir", "D"], "K"),
        # a figure takes only the options of the command it runs
        (["figure", "fig-intersection", "--trials", "3", "--outdir", "D"], "--trials"),
        # a repeated grid value would run as two cells with their own streams
        (["simulate", "--K", "1,1,2", "--out", "x.csv"], "K_grid"),
        (["simulate", "--K", "1", "--p", "0.5,0.5", "--out", "x.csv"], "p_grid"),
        (["simulate", "--K", "1", "--p", "0.3,0.300000000001", "--out", "x.csv"],
         "p_grid"),
    ])
    def test_bad_input_is_one_line_before_seed(self, tmp_path, monkeypatch, capsys,
                                               argv, named):
        monkeypatch.setattr(mc, "_run_cell", no_work)
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_write_failure_is_one_line(self, tmp_path, monkeypatch, capsys):
        # the checks pass, then opening the file fails
        def no_space(path, *args, **kwargs):
            raise OSError(f"[Errno 28] No space left on device: {str(path)!r}")

        monkeypatch.setattr(cli, "open", no_space, raising=False)
        rc = run(["simulate", "--n", "10", "--K", "2", "--p", "0.5", "--trials", "1",
                  "--seed", "1", "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: ") and str(tmp_path) in err[-1]


class TestTheoryCommand:
    def test_json_to_stdout(self, capsys):
        assert run(["theory", "--n", "200", "--K", "12", "--p", "0.2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 200 and obj["K"] == 12
        assert obj["edge_prob"] == pytest.approx(0.2 * (2 * 12 / 199 - (12 / 199) ** 2))
        assert obj["predicted_threshold_K"] == pytest.approx(12.52, abs=0.01)

    def test_invalid_params(self):
        assert run(["theory", "--n", "5", "--K", "5", "--p", "0.5"]) == 1

    def test_non_finite_is_null(self, capsys):
        # alpha_n is NaN at p=1
        assert run(["theory", "--n", "5", "--K", "4", "--p", "1.0"]) == 0
        assert strict_json(capsys.readouterr().out)["alpha_n"] is None

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_reader_is_not_an_error(self, unbuffered):
        # the pipe is closed before the child has imported anything, so its
        # write (Python ignores SIGPIPE) or its flush fails with EPIPE
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "pairkey.cli", "theory", "--n", "5", "--K", "4",
             "--p", "1.0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        proc.wait(timeout=60)
        assert err == b""


class TestSimulateCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run(["simulate", "--n", "15", "--K", "2,4", "--p", "0.3,0.8",
                  "--trials", "20", "--seed", "7", "--workers", "1",
                  "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(mc.CSV_COLUMNS)
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "on_off" and first[1] == "15"
        # sorted by (channel, p, K): p=0.3 rows first, ascending K
        assert [tuple(l.split(",")[2:4]) for l in lines[1:]] == [
            ("2", "0.3"), ("4", "0.3"), ("2", "0.8"), ("4", "0.8")]

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = run(["simulate", "--n", "12", "--K", "3", "--p", "0.5",
                  "--trials", "10", "--seed", "3", "--workers", "1",
                  "--format", "json", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        table = mc.EstimateTable.from_json_obj(obj)
        assert table.rows[0].n == 12 and table.rows[0].trials == 10

    def test_reproducible_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "15", "--K", "1..4", "--p", "0.4",
                "--trials", "25", "--seed", "11", "--workers", "1"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b), "--workers", TWO_WORKERS]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_zero_draws_and_prints(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = run(["simulate", "--n", "10", "--K", "2", "--p", "0.5",
                  "--trials", "5", "--seed", "0", "--workers", "1",
                  "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.startswith("seed: ")
        printed = int(err.split()[1])
        assert printed != 0
        assert out.read_text().splitlines()[1].endswith(str(printed))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 12, "K": "2,3", "p": [0.5],
                                   "trials": 10, "seed": 5}))
        out = tmp_path / "c.csv"
        rc = run(["simulate", "--config", str(cfg), "--trials", "15",
                  "--workers", "1", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(r.split(",")[4] == "15" for r in rows)  # override wins
        assert all(r.split(",")[1] == "12" for r in rows)  # file value kept

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 12, "K": "2", "p": [0.5], "trails": 3,
                                   "seed": 5}))
        out = tmp_path / "c.csv"
        rc = run(["simulate", "--config", str(cfg), "--workers", "1",
                  "--out", str(out)])
        assert rc == 1
        assert "trails" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"K": [1, 2], "p": "0.5"},
                                        {"K": "1,2", "p": 0.5},
                                        {"K": [1, 2], "p": [0.5]}])
    def test_config_grid_same_as_flags(self, tmp_path, config):
        # a JSON list or number is the grid its flag text would give
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        common = ["simulate", "--n", "12", "--trials", "5", "--seed", "4",
                  "--workers", "1"]
        flags, from_file = tmp_path / "flags.csv", tmp_path / "config.csv"
        assert run(common + ["--K", "1,2", "--p", "0.5", "--out", str(flags)]) == 0
        assert run(common + ["--config", str(cfg), "--out", str(from_file)]) == 0
        assert from_file.read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("config", [{"K": {"a": 1}}, {"trials": 2.7},
                                        {"n": 20.9}, {"seed": True}])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, monkeypatch,
                                                 capsys, config):
        monkeypatch.setattr(mc, "_run_cell", no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "c.csv"
        rc = run(["simulate", "--config", str(cfg), "--workers", "1",
                  "--out", str(out)])
        assert rc == 1
        (key,) = config
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be "), err
        assert captured.out == ""
        assert not out.exists()

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        rc = run(["simulate", "--n", "10", "--K", "2", "--p", "0.5",
                  "--trials", "2", "--seed", "1", "--workers", "0",
                  "--out", str(tmp_path / "w.csv")])
        assert rc == 1
        assert "--workers" in capsys.readouterr().err

    def test_env_workers_below_one_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PAIRKEY_WORKERS", "-2")
        rc = run(["figure", "fig2", "--seed", "1", "--trials", "1",
                  "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "PAIRKEY_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--workers", "PAIRKEY_WORKERS"])
    def test_workers_above_cpu_count_rejected(self, source, tmp_path, monkeypatch,
                                              capsys):
        # a pool forks all its workers at once; no_work keeps a regression
        # from starting any
        monkeypatch.setattr(mc, "sweep", no_work)
        cpus = os.cpu_count() or 1
        argv = ["simulate", "--trials", "1", "--seed", "1",
                "--out", str(tmp_path / "w.csv")]
        if source == "--workers":
            argv += ["--workers", str(cpus + 1)]
        else:
            monkeypatch.setenv("PAIRKEY_WORKERS", str(cpus + 1))
        assert run(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {source} "), err
        assert f"CPU count {cpus}," in err[0]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_env_workers_not_integer_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PAIRKEY_WORKERS", "abc")
        out = tmp_path / "f.csv"
        rc = run(["figure", "fig2", "--seed", "1", "--trials", "1",
                  "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "PAIRKEY_WORKERS" in err and "'abc'" in err
        assert not out.exists()

    def test_dead_worker_is_one_line(self, tmp_path, monkeypatch, capsys):
        # what a pool raises when a worker is killed, e.g. out of memory;
        # the patched sweep starts no process
        from concurrent.futures.process import BrokenProcessPool

        def killed(*args, **kwargs):
            raise BrokenProcessPool("A process in the process pool was "
                                    "terminated abruptly")

        monkeypatch.setattr(mc, "sweep", killed)
        out = tmp_path / "k.csv"
        assert run(["simulate", "--n", "10", "--K", "2", "--p", "0.5", "--trials", "1",
                    "--seed", "1", "--workers", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["seed: 1", "error: a sweep worker process died: A process "
                       "in the process pool was terminated abruptly"], err
        assert not out.exists()

    def test_disk_forced_via_flag(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run(["simulate", "--n", "10", "--K", "2", "--p", "0.9",
                  "--trials", "5", "--seed", "2", "--channel", "disk_forced",
                  "--workers", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("disk_forced,")

    def test_disk_large_p_rejected_without_flag(self, tmp_path):
        rc = run(["simulate", "--n", "10", "--K", "2", "--p", "0.9",
                  "--trials", "5", "--seed", "2", "--channel", "disk",
                  "--workers", "1", "--out", str(tmp_path / "d.csv")])
        assert rc == 1


class TestValidateCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run(["validate", "--n", "5", "--K", "2", "--p", "0.5",
                  "--samples", "20000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") >= 7
        report = json.loads(out.read_text())
        assert report["all_passed"] is True

    def test_failure_exit_two(self, monkeypatch, capsys):
        # force one check to fail to exercise the exit-code mapping
        failing = mc.BoundCheck(name="edge_prob", empirical=1.0, reference=0.0,
                                sigma=1e-9, kind="two_sided", passed=False)
        report = mc.ValidationReport(n=5, K=2, p=0.5, samples=1000, seed=1,
                                     checks=(failing,))
        monkeypatch.setattr(mc, "validate_bounds", lambda *a, **k: report)
        assert run(["validate", "--samples", "1000", "--seed", "1"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_bad_params_exit_one(self):
        assert run(["validate", "--n", "5", "--K", "9", "--seed", "1"]) == 1

    def test_skipped_check_is_null(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["validate", "--n", "5", "--K", "2", "--p", "1.0", "--samples",
                    "5000", "--seed", "1", "--out", str(out)]) == 0
        check = next(c for c in strict_json(out.read_text())["checks"]
                     if c["name"] == "cross_moment_ratio")
        assert check["status"].startswith("skipped")
        assert check["empirical"] is check["reference"] is check["sigma"] is None


class TestDumpInstance:
    def test_files_written(self, tmp_path):
        outdir = tmp_path / "inst"
        rc = run(["dump-instance", "--n", "20", "--K", "3", "--p", "0.5",
                  "--seed", "9", "--outdir", str(outdir)])
        assert rc == 0
        for name in INSTANCE_FILES:
            assert (outdir / name).exists()
        comp = (outdir / "intersection.components").read_text().splitlines()
        assert comp[0].startswith("# components: ")
        assert len(comp) == 21
        pairing = (outdir / "pairing.txt").read_text().splitlines()
        assert len(pairing) == 20
        assert all(len(line.split(": ")[1].split()) == 3 for line in pairing)

    def test_intersection_subset_of_both(self, tmp_path):
        outdir = tmp_path / "inst"
        assert run(["dump-instance", "--n", "25", "--K", "4", "--p", "0.4",
                    "--seed", "5", "--outdir", str(outdir)]) == 0
        g = read_edges(outdir / "channel.edges")
        h = read_edges(outdir / "pairwise.edges")
        hg = read_edges(outdir / "intersection.edges")
        for edges in (g, h, hg):
            assert edges == sorted(set(edges))
            assert all(1 <= i < j <= 25 for i, j in edges)
        assert set(hg) == set(h) & set(g)

    @pytest.mark.parametrize("n,K,p,seed", [(2, 1, 0.5, 3), (6, 5, 0.7, 4),
                                            (30, 3, 0.4, 5), (50, 5, 0.2, 42)])
    def test_matches_oracle(self, tmp_path, n, K, p, seed):
        assert run(["dump-instance", "--n", str(n), "--K", str(K),
                    "--p", str(p), "--seed", str(seed),
                    "--outdir", str(tmp_path)]) == 0
        rng = mc.rng_from_entropy((seed, 201, n, K))
        partners, keyed, up, both = oracles.dump_instance(n, K, p, rng)
        for name, pairs in (("pairwise.edges", keyed), ("channel.edges", up),
                            ("intersection.edges", both)):
            assert read_edges(tmp_path / name) == \
                sorted((i + 1, j + 1) for i, j in pairs), name
        labels = oracles.component_labels(n, both)
        assert (tmp_path / "intersection.components").read_text() == \
            f"# components: {max(labels) + 1}\n" + "".join(
                f"{i} {lab}\n" for i, lab in enumerate(labels, start=1))
        assert (tmp_path / "pairing.txt").read_text() == "".join(
            f"{i}: {' '.join(str(j + 1) for j in sorted(s))}\n"
            for i, s in enumerate(partners, start=1))

    def test_bad_p_exit_one(self, tmp_path):
        assert run(["dump-instance", "--n", "5", "--K", "2", "--p", "0",
                    "--seed", "1", "--outdir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("n,K,p", [(5, 5, 0.5), (5, 0, 0.5), (1, 1, 0.5),
                                       (5, 2, 1.5)])
    def test_bad_input_creates_nothing(self, tmp_path, n, K, p):
        outdir = tmp_path / "inst"
        assert run(["dump-instance", "--n", str(n), "--K", str(K),
                    "--p", str(p), "--seed", "1", "--outdir", str(outdir)]) == 1
        assert not outdir.exists()

    def test_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        args = ["dump-instance", "--n", "15", "--K", "2", "--p", "0.5",
                "--seed", "4"]
        assert run(args + ["--outdir", str(d1)]) == 0
        assert run(args + ["--outdir", str(d2)]) == 0
        for name in ("channel.edges", "pairwise.edges", "intersection.edges"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestFigurePresets:
    def test_sweep_presets(self):
        assert cli.FIGURES["fig2"] == cli.FIGURES["fig3"] == ["simulate"]
        assert cli.FIGURES["fig4"] == ["simulate", "--channel", "disk_forced"]
        cfg = cli._sweep_config()
        assert cfg.channel == "on_off"
        assert cfg.n == 200 and cfg.K_grid == tuple(range(1, 26))
        assert cfg.p_grid == (0.2, 0.4, 0.6, 0.8, 1.0)
        assert cfg.trials == 500 and cfg.seed == 0

    def test_intersection_preset(self):
        assert cli.FIGURES["fig-intersection"] == ["dump-instance"]
        assert cli._INSTANCE_DEFAULTS == {"n": 50, "K": 5, "p": 0.2}
        args = cli._build_parser().parse_args(["dump-instance", "--outdir", "d"])
        assert (args.n, args.K, args.p) == (50, 5, 0.2)

    def test_figure_intersection_end_to_end(self, tmp_path):
        outdir = tmp_path / "fig"
        rc = run(["figure", "fig-intersection", "--seed", "3",
                  "--out", str(outdir)])
        assert rc == 0
        assert (outdir / "intersection.edges").exists()

    def test_figure_sweep_small_trials(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = run(["figure", "fig2", "--seed", "6", "--trials", "2",
                  "--workers", TWO_WORKERS, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 25 * 5

    @pytest.mark.parametrize("name,flags", [("fig2", []),
                                            ("fig4", ["--channel", "disk_forced"])])
    def test_figure_sweep_is_simulate(self, tmp_path, name, flags):
        common = ["--trials", "2", "--seed", "8", "--workers", TWO_WORKERS]
        fig, sim = tmp_path / "fig.csv", tmp_path / "sim.csv"
        assert run(["figure", name, *common, "--out", str(fig)]) == 0
        assert run(["simulate", *flags, *common, "--out", str(sim)]) == 0
        assert fig.read_bytes() == sim.read_bytes()

    def test_figure_intersection_is_dump_instance(self, tmp_path):
        fig, dump = tmp_path / "fig", tmp_path / "dump"
        assert run(["figure", "fig-intersection", "--seed", "8",
                    "--out", str(fig)]) == 0
        assert run(["dump-instance", "--seed", "8", "--outdir", str(dump)]) == 0
        assert sorted(p.name for p in fig.iterdir()) == sorted(INSTANCE_FILES)
        for name in INSTANCE_FILES:
            assert (fig / name).read_bytes() == (dump / name).read_bytes(), name


def readme_commands():
    """The arguments of every `pairkey ...` line in README's "Command line"
    block, with backslash continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pairkey ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "simulate", "theory", "validate", "figure", "dump-instance"}
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "figure":
            # the arguments after the name are those of the command it runs
            parser.parse_args(cli.FIGURES[args.name] + args.args)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_text_rejects_non_finite(value):
    # undefined values reach the writer as None; any other NaN is a fault
    with pytest.raises(ValueError):
        cli._json_text({"x": [1.0, value]})
